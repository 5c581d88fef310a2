//! `paper-grid`: the paper's ten kernels × {baseline, sb4, perfect} on one
//! thread, swept in many interleaved passes.
//!
//! Nearly all the time goes to the single-machine hot path: the scheduler,
//! the `asf_mem` caches and MOESI, the `asf_core` detectors, probe
//! resolution and teardown. Conflict-heavy kernels (intruder, kmeans,
//! apriori) run next to conflict-light ones (fluidanimate, utilitymine).
//!
//! The grid's operation is one cell: build the kernel, construct the
//! machine, run it to completion. A pass is the whole 30-cell grid.

use crate::cal::Cal;
use crate::stats::{mean, median, ms, percentile, us, Better, Series, Windowed, WINDOW};
use crate::trace::{self, Tracer};
use crate::{mix_seed, Report, BENCHES};
use asf_core::detector::DetectorKind;
use asf_machine::machine::{Machine, SimConfig};
use asf_machine::obs::ObsConfig;
use asf_stats::digest::run_stats_digest;
use asf_workloads::Scale;
use std::time::{Duration, Instant};

/// The detectors the paper compares.
pub const DETECTORS: [DetectorKind; 3] = [
    DetectorKind::Baseline,
    DetectorKind::SubBlock(4),
    DetectorKind::Perfect,
];

/// A cell answered within this time counts toward `within_limit_frac`.
pub const CELL_LIMIT: Duration = Duration::from_millis(250);
/// A whole pass answered within this time counts toward `within_limit_frac`.
pub const PASS_LIMIT: Duration = Duration::from_millis(2500);

/// Passes always run, whatever the time budget: one untimed warm-up pass
/// plus enough timed ones for a median (and, traced, for both halves).
const MIN_PASSES: usize = 5;

/// The `PhaseProfiler` phases, in the order of the per-layer metrics.
const PHASES: [(&str, &str); 4] = [
    ("scheduler-step", "sched"),
    ("probe-resolve", "probe"),
    ("teardown", "teardown"),
    ("commit", "commit"),
];

#[derive(Default)]
struct Acc {
    accesses: u64,
    run: Duration,
}

/// Run the workload for at least `seconds` and report its metrics.
pub fn run(seed: u64, seconds: f64, trace_on: bool) -> Report {
    let sim_seed = mix_seed(seed, 1);
    let cells: Vec<(usize, DetectorKind)> = (0..BENCHES.len())
        .flat_map(|b| DETECTORS.iter().map(move |&d| (b, d)))
        .collect();
    let mut report = Report::default();
    let mut cal = Cal::new();
    let mut tr = Tracer::new(false, Instant::now(), 0);
    let mut digests: Vec<Option<u64>> = vec![None; cells.len()];

    // Untraced timed passes feed the end-to-end metrics, by window.
    let start = Instant::now();
    let (mut setup_s, mut rate, mut cell_us, mut pass_ms) = (
        Series::new(start),
        Series::new(start),
        Series::new(start),
        Series::new(start),
    );
    let mut within = Windowed::starting_at(start, WINDOW);
    let (mut build_us, mut new_us) = (vec![], vec![]);
    let mut per_bench: Vec<Acc> = (0..BENCHES.len()).map(|_| Acc::default()).collect();
    // Traced passes: pass times, profiled phase totals and their accesses.
    let (mut traced_pass_ms, mut untraced_pass_ms) = (vec![], vec![]);
    let mut phase_ns = [0u64; 4];
    let (mut traced_acc, mut traced_run) = (0u64, Duration::ZERO);
    let (mut specdir_hits, mut specdir_misses) = (0u64, 0u64);
    // Exact counts of one pass.
    let mut counts = Counts::default();

    let mut pass = 0usize;
    loop {
        // Pass 0 warms up; traced runs alternate untraced and traced passes.
        let traced = trace_on && pass.is_multiple_of(2) && pass > 0;
        let timed = pass > 0 && !traced;
        tr.set_on(traced);
        let pass_span = tr.begin("grid.pass", pass as u64);
        let pass_start = Instant::now();
        let (mut setup, mut cells_time) = (Duration::ZERO, Duration::ZERO);
        let (mut acc_pass, mut run_pass) = (0u64, Duration::ZERO);
        let mut pass_cells = vec![];
        for (ci, &(b, det)) in cells.iter().enumerate() {
            tr.time("box.cal", ci as u64, || cal.run());
            let t0 = Instant::now();
            let workload = tr.time("workloads.build", ci as u64, || {
                asf_workloads::by_name(BENCHES[b], Scale::Standard).expect("Table III kernel")
            });
            let t1 = Instant::now();
            let cfg = SimConfig::paper_seeded(det, sim_seed);
            let mut machine = tr.time("machine.new", ci as u64, || {
                Machine::new(workload.as_ref(), cfg)
            });
            if traced {
                machine.enable_observability(ObsConfig {
                    interval_cycles: 100_000,
                    profile: true,
                });
            }
            let t2 = Instant::now();
            let out = tr.time("machine.run", ci as u64, || machine.try_run_to_completion());
            let t3 = Instant::now();
            let out = match out {
                Ok(out) => out,
                Err(e) => {
                    eprintln!("paper-grid: {}/{} failed: {e}", BENCHES[b], det.label());
                    report.op(false);
                    continue;
                }
            };
            let digest = run_stats_digest(&out.stats);
            let same = *digests[ci].get_or_insert(digest) == digest;
            if !same {
                eprintln!(
                    "paper-grid: {}/{} RunStats digest changed between passes",
                    BENCHES[b],
                    det.label()
                );
            }
            report.op(same);
            let accesses = out.stats.l1_hits + out.stats.l1_misses;
            if pass == 0 {
                counts.add(&out.stats);
            }
            let (build, new, run) = (t1 - t0, t2 - t1, t3 - t2);
            setup += build + new;
            cells_time += t3 - t0;
            acc_pass += accesses;
            run_pass += run;
            if timed {
                build_us.push(us(build));
                new_us.push(us(new));
                pass_cells.push((t0, us(t3 - t0)));
                within.push(t0, f64::from(u8::from(t3 - t0 <= CELL_LIMIT)));
                per_bench[b].accesses += accesses;
                per_bench[b].run += run;
            }
            if let Some(obs) = out.obs.filter(|_| traced) {
                for (name, _, total, _, _) in obs.phases.phases() {
                    if let Some(i) = PHASES.iter().position(|(p, _)| *p == name) {
                        phase_ns[i] += total;
                    }
                }
                specdir_hits += obs.registry.get_by_name("specdir.hits").unwrap_or(0);
                specdir_misses += obs.registry.get_by_name("specdir.misses").unwrap_or(0);
                traced_acc += accesses;
                traced_run += run;
            }
        }
        tr.end(pass_span);
        if timed {
            for (at, cell) in pass_cells {
                cell_us.push(at, cell);
            }
            setup_s.push(pass_start, setup.as_secs_f64());
            pass_ms.push(pass_start, ms(cells_time));
            rate.push(pass_start, acc_pass as f64 / run_pass.as_secs_f64() / 1e6);
            within.push(pass_start, f64::from(u8::from(cells_time <= PASS_LIMIT)));
            untraced_pass_ms.push(ms(cells_time));
        } else if traced {
            traced_pass_ms.push(ms(cells_time));
        }
        pass += 1;
        if pass >= MIN_PASSES && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let end = Instant::now();
    for series in [&mut setup_s, &mut rate, &mut cell_us, &mut pass_ms] {
        series.close(end);
    }
    within.close(end);

    report.set_scaled("setup_s", setup_s.quiet(Better::Lower, &cal, median));
    report.set_scaled("macc_per_s", rate.quiet(Better::Higher, &cal, median));
    report.set_scaled(
        "hit_p50_us",
        cell_us.quiet(Better::Lower, &cal, |w| percentile(w, 0.5)),
    );
    report.set_scaled(
        "hit_p90_us",
        cell_us.quiet(Better::Lower, &cal, |w| percentile(w, 0.9)),
    );
    report.set_scaled(
        "miss_p50_ms",
        pass_ms.quiet(Better::Lower, &cal, |w| percentile(w, 0.5)),
    );
    report.set_scaled(
        "miss_p90_ms",
        pass_ms.quiet(Better::Lower, &cal, |w| percentile(w, 0.9)),
    );
    report.set("within_limit_frac", within.quiet(Better::Higher, mean));
    if trace_on {
        report.set("box.cal_us", cal.median_us());
        report.set("box.slowdown", cal.slowdown());
        report.set(
            "trace.overhead_frac",
            median(&traced_pass_ms) / median(&untraced_pass_ms) - 1.0,
        );
        report.set("workloads.build_us", median(&build_us));
        report.set("machine.new_us", median(&new_us));
        let (acc, run) = per_bench.iter().fold((0u64, Duration::ZERO), |(a, r), x| {
            (a + x.accesses, r + x.run)
        });
        report.set("machine.ns_per_access", run.as_nanos() as f64 / acc as f64);
        for (b, x) in BENCHES.iter().zip(&per_bench) {
            report.set(
                &format!("machine.ns_per_access.{b}"),
                x.run.as_nanos() as f64 / x.accesses as f64,
            );
        }
        counts.report(&mut report);
        for ((_, name), ns) in PHASES.iter().zip(phase_ns) {
            report.set(
                &format!("machine.{name}_ns_per_access"),
                ns as f64 / traced_acc as f64,
            );
        }
        report.set(
            "specdir.hit_ratio",
            specdir_hits as f64 / (specdir_hits + specdir_misses).max(1) as f64,
        );
        // Scheduler steps enclose the other phases; what lies outside them
        // is the run loop itself.
        report.set(
            "machine.unattributed_frac",
            1.0 - phase_ns[0] as f64 / traced_run.as_nanos() as f64,
        );
        let b = trace::breakdown(tr.spans(), 0);
        trace::report(&mut report, &b);
        report.spans = tr.into_spans();
    }
    report
}

/// Exact `RunStats` counts summed over one pass of the grid.
#[derive(Default)]
pub(crate) struct Counts {
    attempts: u64,
    commits: u64,
    false_conflicts: u64,
    probes: u64,
    probe_targets: u64,
    l1_hits: u64,
    l1_misses: u64,
}

impl Counts {
    pub(crate) fn add(&mut self, s: &asf_stats::run::RunStats) {
        self.attempts += s.tx_attempts;
        self.commits += s.tx_committed;
        self.false_conflicts += s.conflicts.false_total();
        self.probes += s.probes;
        self.probe_targets += s.probe_targets;
        self.l1_hits += s.l1_hits;
        self.l1_misses += s.l1_misses;
    }

    pub(crate) fn report(&self, report: &mut Report) {
        report.set(
            "core.attempts_per_commit",
            self.attempts as f64 / self.commits.max(1) as f64,
        );
        report.set("core.false_conflicts", self.false_conflicts as f64);
        report.set(
            "core.probe_targets_per_probe",
            self.probe_targets as f64 / self.probes.max(1) as f64,
        );
        report.set(
            "mem.l1_miss_ratio",
            self.l1_misses as f64 / (self.l1_hits + self.l1_misses).max(1) as f64,
        );
    }
}
