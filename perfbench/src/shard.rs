//! `huge-shard`: the streaming `mix` preset on 256 simulated cores in
//! 16-core clusters, driven by `min(2, nproc)` worker threads.
//!
//! The only workload where epochs, the barrier drain, the inter-cluster
//! directory and the engine's worker threads do work. The operation is one
//! whole shard run; its small unit is one epoch (execution plus barrier).

use crate::cal::Cal;
use crate::grid::Counts;
use crate::stats::{mean, median, ms, percentile, us, Better, Series, Windowed, WINDOW};
use crate::trace::{self, Tracer};
use crate::{mix_seed, Report};
use asf_core::detector::DetectorKind;
use asf_machine::machine::SimConfig;
use asf_machine::shard::{ShardConfig, ShardEngine};
use asf_stats::digest::run_stats_digest;
use std::time::{Duration, Instant};

/// Simulated cores.
pub const CORES: usize = 256;
/// An epoch resolved within this time counts toward `within_limit_frac`.
pub const EPOCH_LIMIT: Duration = Duration::from_millis(100);
/// A run finished within this time counts toward `within_limit_frac`.
pub const RUN_LIMIT: Duration = Duration::from_millis(2500);
/// Runs always made, whatever the time budget: one untimed warm-up run plus
/// enough timed ones for a median (and, traced, for both halves).
const MIN_RUNS: usize = 5;

/// The epoch length an instant drawn uniformly from the run's epoch time
/// falls in, at quantile `q`: the smallest duration `d` such that epochs no
/// longer than `d` hold at least `q` of the total time. A commit waits for
/// the end of its epoch before its probes cross clusters, so this is the
/// host-time delay of cross-cluster conflict detection. Most epochs are
/// near-empty tail epochs; weighting by time keeps them from setting the
/// figure.
pub fn time_weighted(epochs_us: &[f64], q: f64) -> f64 {
    let mut v = epochs_us.to_vec();
    v.sort_by(f64::total_cmp);
    let total: f64 = v.iter().sum();
    let mut acc = 0.0;
    for d in &v {
        acc += d;
        if acc >= q * total {
            return *d;
        }
    }
    f64::NAN
}

/// Run the workload for at least `seconds` and report its metrics.
pub fn run(seed: u64, seconds: f64, trace_on: bool) -> Report {
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    let cfg = ShardConfig {
        worker_threads: threads,
        ..ShardConfig::huge(CORES)
    };
    let base = SimConfig::paper_seeded(DetectorKind::SubBlock(4), mix_seed(seed, 2));
    let mut report = Report::default();
    let mut cal = Cal::new();
    let mut tr = Tracer::new(false, Instant::now(), 0);
    let mut digest0: Option<u64> = None;

    // Untraced timed runs feed the end-to-end metrics, by window.
    let start = Instant::now();
    let (mut setup_s, mut run_ms, mut epoch_us, mut rate) = (
        Series::new(start),
        Series::new(start),
        Series::new(start),
        Series::new(start),
    );
    let mut within = Windowed::starting_at(start, WINDOW);
    let (mut build_us, mut new_ms) = (vec![], vec![]);
    let (mut traced_ms, mut untraced_ms) = (vec![], vec![]);
    let (mut acc_total, mut run_total) = (0u64, Duration::ZERO);
    // Engine totals over timed runs.
    let (mut compute, mut barrier, mut epochs) = (Duration::ZERO, Duration::ZERO, 0u64);
    let mut busy = vec![Duration::ZERO; threads];
    let mut stall = vec![];
    let (mut cross_probes, mut dir_lookups) = (0u64, 0u64);
    let mut counts = Counts::default();

    let mut i = 0usize;
    loop {
        let traced = trace_on && i.is_multiple_of(2) && i > 0;
        let timed = i > 0 && !traced;
        tr.set_on(traced);
        let op = tr.begin("shard.op", i as u64);
        tr.time("box.cal", i as u64, || cal.run());
        let t0 = Instant::now();
        let workload = tr.time("workloads.build", i as u64, || {
            asf_workloads::streaming::by_name("mix").expect("mix preset")
        });
        let t1 = Instant::now();
        let engine = tr.time("shard.new", i as u64, || {
            ShardEngine::new(&workload, base, cfg)
        });
        let t2 = Instant::now();
        let out = tr.time("shard.run", i as u64, || engine.try_run());
        let t3 = Instant::now();
        tr.end(op);
        match out {
            Err(e) => {
                eprintln!("huge-shard: run {i} failed: {e}");
                report.op(false);
            }
            Ok(out) => {
                let digest = run_stats_digest(&out.stats);
                let same = *digest0.get_or_insert(digest) == digest;
                if !same {
                    eprintln!("huge-shard: RunStats digest changed between runs");
                }
                report.op(same);
                let accesses = out.stats.l1_hits + out.stats.l1_misses;
                if i == 0 {
                    counts.add(&out.stats);
                }
                let s = &out.scale;
                if timed {
                    setup_s.push(t0, (t2 - t0).as_secs_f64());
                    build_us.push(us(t1 - t0));
                    new_ms.push(ms(t2 - t1));
                    run_ms.push(t0, ms(t3 - t0));
                    untraced_ms.push(ms(t3 - t0));
                    rate.push(t0, accesses as f64 / (t3 - t2).as_secs_f64() / 1e6);
                    acc_total += accesses;
                    run_total += t3 - t2;
                    within.push(t0, f64::from(u8::from(t3 - t0 <= RUN_LIMIT)));
                    for e in &s.timeline {
                        let d = e.wall + e.barrier;
                        epoch_us.push(t0, us(d));
                        within.push(t0, f64::from(u8::from(d <= EPOCH_LIMIT)));
                    }
                    compute += s.epoch_wall;
                    barrier += s.barrier_wall;
                    epochs += s.epochs;
                    for (b, w) in busy.iter_mut().zip(&s.busy) {
                        *b += *w;
                    }
                    stall.push(s.barrier_stall_fraction());
                    cross_probes = s.cross_probes;
                    dir_lookups = s.dir_lookups;
                } else if traced {
                    traced_ms.push(ms(t3 - t0));
                }
            }
        }
        i += 1;
        if i >= MIN_RUNS && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }

    let end = Instant::now();
    for series in [&mut setup_s, &mut run_ms, &mut epoch_us, &mut rate] {
        series.close(end);
    }
    within.close(end);
    let runs = untraced_ms.len().max(1) as f64;
    report.set_scaled("setup_s", setup_s.quiet(Better::Lower, &cal, median));
    report.set_scaled("macc_per_s", rate.quiet(Better::Higher, &cal, median));
    report.set_scaled(
        "hit_p50_us",
        epoch_us.quiet(Better::Lower, &cal, |w| time_weighted(w, 0.5)),
    );
    report.set_scaled(
        "hit_p90_us",
        epoch_us.quiet(Better::Lower, &cal, |w| time_weighted(w, 0.9)),
    );
    report.set_scaled(
        "miss_p50_ms",
        run_ms.quiet(Better::Lower, &cal, |w| percentile(w, 0.5)),
    );
    report.set_scaled(
        "miss_p90_ms",
        run_ms.quiet(Better::Lower, &cal, |w| percentile(w, 0.9)),
    );
    report.set("within_limit_frac", within.quiet(Better::Higher, mean));
    if trace_on {
        report.set("box.cal_us", cal.median_us());
        report.set("box.slowdown", cal.slowdown());
        report.set(
            "trace.overhead_frac",
            median(&traced_ms) / median(&untraced_ms) - 1.0,
        );
        report.set("workloads.build_us", median(&build_us));
        report.set("shard.new_ms", median(&new_ms));
        report.set(
            "machine.ns_per_access",
            run_total.as_nanos() as f64 / acc_total as f64,
        );
        counts.report(&mut report);
        report.set("shard.compute_s", compute.as_secs_f64() / runs);
        report.set("shard.barrier_s", barrier.as_secs_f64() / runs);
        report.set("shard.stall_frac", median(&stall));
        report.set("shard.epochs", epochs as f64 / runs);
        report.set(
            "shard.us_per_epoch",
            us(compute + barrier) / epochs.max(1) as f64,
        );
        for (w, b) in busy.iter().enumerate() {
            report.set(&format!("shard.busy_s.w{w}"), b.as_secs_f64() / runs);
        }
        report.set("shard.cross_probes", cross_probes as f64);
        report.set("shard.dir_lookups", dir_lookups as f64);
        let b = trace::breakdown(tr.spans(), 0);
        trace::report(&mut report, &b);
        report.spans = tr.into_spans();
    }
    report
}
