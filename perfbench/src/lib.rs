//! Outside-in benchmark of the ASF simulator, the shard engine and
//! `asf-serve`.
//!
//! Every workload drives only the public API of the repository's crates
//! and times the calls into each layer from here. `README.md` in this
//! directory defines the workloads, the metrics and the layers.

pub mod cal;
pub mod grid;
pub mod serve;
pub mod shard;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["paper-grid", "huge-shard", "serve-zipf"];

/// End-to-end metrics: `(name, unit)`. Every workload reports all of them
/// when tracing is off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("macc_per_s", "Macc/s"),
    ("hit_p50_us", "us"),
    ("hit_p90_us", "us"),
    ("miss_p50_ms", "ms"),
    ("miss_p90_ms", "ms"),
    ("within_limit_frac", "fraction"),
];

/// The ten Table III kernels, in presentation order.
pub const BENCHES: [&str; 10] = [
    "intruder",
    "kmeans",
    "labyrinth",
    "ssca2",
    "vacation",
    "genome",
    "scalparc",
    "apriori",
    "fluidanimate",
    "utilitymine",
];

/// Span names, one per timed layer boundary. The traced run reports each
/// one's self time as `<span>_self_s`.
pub const SPANS: &[&str] = &[
    "box.cal",
    "workloads.build",
    "machine.new",
    "machine.run",
    "shard.new",
    "shard.run",
    "server.start",
    "server.warm",
    "gen.late",
    "http.submit",
    "http.result",
    "spec.parse",
    "spec.digest",
    "cache.lookup",
    "cache.insert",
    "http.read",
    "http.write",
    "runner.result_body",
];

/// Per-layer metrics: `(name, unit)`. Every workload reports all of them
/// when tracing is on; a layer that does no work on a workload reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("box.cal_us", "us"),
        ("box.steal_frac", "fraction"),
        ("box.slowdown", "ratio"),
        ("box.raw_setup_s", "s"),
        ("box.raw_macc_per_s", "Macc/s"),
        ("box.raw_hit_p50_us", "us"),
        ("box.raw_hit_p90_us", "us"),
        ("box.raw_miss_p50_ms", "ms"),
        ("box.raw_miss_p90_ms", "ms"),
        ("trace.overhead_frac", "fraction"),
        ("trace.wall_s", "s"),
        ("trace.unattributed_s", "s"),
        ("workloads.build_us", "us"),
        ("machine.new_us", "us"),
        ("shard.new_ms", "ms"),
        ("machine.ns_per_access", "ns"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for b in BENCHES {
        out.push((format!("machine.ns_per_access.{b}"), "ns"));
    }
    for (n, u) in [
        ("core.attempts_per_commit", "ratio"),
        ("core.false_conflicts", "count"),
        ("core.probe_targets_per_probe", "ratio"),
        ("mem.l1_miss_ratio", "ratio"),
        ("machine.sched_ns_per_access", "ns"),
        ("machine.probe_ns_per_access", "ns"),
        ("machine.teardown_ns_per_access", "ns"),
        ("machine.commit_ns_per_access", "ns"),
        ("specdir.hit_ratio", "ratio"),
        ("machine.unattributed_frac", "fraction"),
        ("shard.compute_s", "s"),
        ("shard.barrier_s", "s"),
        ("shard.stall_frac", "fraction"),
        ("shard.epochs", "count"),
        ("shard.us_per_epoch", "us"),
        ("shard.busy_s.w0", "s"),
        ("shard.busy_s.w1", "s"),
        ("shard.cross_probes", "count"),
        ("shard.dir_lookups", "count"),
        ("spec.parse_us", "us"),
        ("spec.digest_us", "us"),
        ("cache.lookup_us", "us"),
        ("cache.insert_us", "us"),
        ("http.read_us", "us"),
        ("http.write_us", "us"),
        ("runner.result_body_us", "us"),
        ("serve.rtt_residual_us", "us"),
        ("pool.queue_wait_ms", "ms"),
        ("pool.execute_ms", "ms"),
        ("serve.hits", "count"),
        ("serve.misses", "count"),
        ("serve.coalesced", "count"),
        ("serve.rejected_429", "count"),
        ("cache.evictions", "count"),
        ("gen.late_p90_us", "us"),
        ("http.poll_s", "s"),
        ("serve.hit_p99_us", "us"),
        ("serve.hit_p999_us", "us"),
        ("serve.hit_samples", "count"),
        ("serve.miss_p99_ms", "ms"),
        ("serve.miss_samples", "count"),
    ] {
        out.push((n.to_string(), u));
    }
    for s in SPANS {
        out.push((format!("{s}_self_s"), "s"));
    }
    out
}

/// The declared metric set for one tracing mode.
pub fn declared(trace: bool) -> Vec<(String, &'static str)> {
    if trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    }
}

/// What one run of a workload produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (grid cells, shard runs, serve requests).
    pub attempted: u64,
    /// Operations that failed a correctness check or returned an error.
    pub failed: u64,
    /// Measured values by metric name. Units come from the declarations.
    pub values: BTreeMap<String, f64>,
    /// The traced run's spans (empty when tracing is off).
    pub spans: Vec<trace::Span>,
    /// `(scaled, raw)` of every host-time end-to-end metric.
    pub scaling: BTreeMap<String, (f64, f64)>,
}

impl Report {
    /// Record one metric value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Record a host-time end-to-end metric, scaled to the reference box
    /// speed and raw. [`run`] reports one of them as the metric, as
    /// [`SCALED`] says; the raw value is also the per-layer `box.raw_<name>`.
    pub fn set_scaled(&mut self, name: &str, (scaled, raw): (f64, f64)) {
        self.scaling.insert(name.to_string(), (scaled, raw));
        self.set(&format!("box.raw_{name}"), raw);
    }

    /// Both values of every host-time metric, as one line of JSON:
    /// `{"scaling": {"<metric>": {"scaled": x, "raw": y}, ...}}`.
    pub fn scaling_json(&self) -> String {
        let pairs: Vec<String> = self
            .scaling
            .iter()
            .map(|(name, (scaled, raw))| {
                format!("\"{name}\": {{\"scaled\": {scaled:?}, \"raw\": {raw:?}}}")
            })
            .collect();
        format!("{{\"scaling\": {{{}}}}}", pairs.join(", "))
    }

    /// Count one attempted operation, failed or not.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`,
    /// carrying exactly the declared metrics of the mode. A declared metric
    /// the workload did not set is a bug in this benchmark.
    pub fn to_json(&self, trace: bool) -> String {
        let mut metrics = String::new();
        for (i, (name, unit)) in declared(trace).iter().enumerate() {
            let value = *self
                .values
                .get(name)
                .unwrap_or_else(|| panic!("workload did not report metric {name}"));
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        )
    }
}

/// The host-time end-to-end metrics each workload reports scaled to the
/// reference box speed; the others it reports raw. Scaling is kept only
/// where it made runs steadier (README.md, "The calibration kernel").
pub const SCALED: &[(&str, &[&str])] = &[
    (
        "paper-grid",
        &[
            "setup_s",
            "macc_per_s",
            "hit_p50_us",
            "hit_p90_us",
            "miss_p50_ms",
            "miss_p90_ms",
        ],
    ),
    ("huge-shard", &[]),
    (
        "serve-zipf",
        &[
            "setup_s",
            "macc_per_s",
            "hit_p50_us",
            "hit_p90_us",
            "miss_p90_ms",
        ],
    ),
];

/// Whether `workload` reports `metric` scaled ([`SCALED`]).
pub fn is_scaled(workload: &str, metric: &str) -> bool {
    SCALED
        .iter()
        .any(|(w, metrics)| *w == workload && metrics.contains(&metric))
}

/// Run one workload by name for `seconds` of measurement. Grid and shard
/// always make a minimum number of passes or runs, however short `seconds`.
pub fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let stolen_before = cpu_ticks();
    let mut report = match workload {
        "paper-grid" => grid::run(seed, seconds, trace),
        "huge-shard" => shard::run(seed, seconds, trace),
        "serve-zipf" => serve::run(seed, seconds, trace)?,
        other => {
            return Err(format!(
                "unknown workload {other:?} (expected one of {WORKLOADS:?})"
            ))
        }
    };
    let stolen_after = cpu_ticks();
    if trace {
        let total = stolen_after.1.saturating_sub(stolen_before.1).max(1);
        report.set(
            "box.steal_frac",
            stolen_after.0.saturating_sub(stolen_before.0) as f64 / total as f64,
        );
    }
    // Serve reads it before the set-ups it repeats after its run.
    report
        .values
        .entry("peak_rss_mb".to_string())
        .or_insert_with(peak_rss_mb);
    for (name, &(scaled, raw)) in &report.scaling {
        let value = if is_scaled(workload, name) {
            scaled
        } else {
            raw
        };
        report.values.insert(name.clone(), value);
    }
    fill_idle_layers(&mut report, trace);
    Ok(report)
}

/// Report 0 for every per-layer metric whose layer did no work in this
/// workload, so every workload emits the same metric names.
fn fill_idle_layers(report: &mut Report, trace: bool) {
    if trace {
        for (name, _) in per_layer() {
            report.values.entry(name).or_insert(0.0);
        }
    }
}

/// `(steal, total)` CPU ticks of the whole box from `/proc/stat`: the time
/// the hypervisor ran something else while this box wanted the CPU.
/// `(0, 0)` where the file is missing.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|t| t.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// The seed of one input family (simulation seeds, spec seeds, the request
/// stream), derived from the benchmark seed so the families are independent.
pub fn mix_seed(seed: u64, stream: u64) -> u64 {
    asf_mem::rng::SimRng::derive(seed, stream).next_u64()
}
