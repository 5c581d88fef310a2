//! Shard-parallel equivalence fence (DESIGN.md §15).
//!
//! The shard engine's whole claim is that OS worker threads are *invisible*
//! to the simulation: for any shard topology, detector, and seed, running
//! the shards on N threads produces the exact `RunStats` of running them on
//! one — and a single-shard engine produces the exact `RunStats` of a plain
//! [`Machine`]. This suite sweeps those claims across detectors × seeds ×
//! shard counts on a streaming workload (whose generation is a pure
//! function of the global core id, never the thread count), and pins the
//! watchdog scaling: a 256-core idle-heavy run must not trip a spurious
//! `Livelock` just because commits per-core are sparse at system scale.

use asf_core::detector::DetectorKind;
use asf_machine::hier::DirLatency;
use asf_machine::machine::{EpochLog, Machine, SimConfig};
use asf_machine::shard::{ShardConfig, ShardEngine, ShardOutput};
use asf_machine::txprog::{FnWorkload, ScriptedProgram, ThreadProgram, TxAttempt, TxOp, WorkItem};
use asf_machine::SimError;
use asf_mem::addr::Addr;
use asf_workloads::streaming::{StreamSpec, StreamWorkload};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

/// A quick streaming mix: every pool class exercised (private, cluster,
/// global) so cross-shard routing actually fires, but small enough for a
/// debug-build sweep.
fn quick_spec() -> StreamSpec {
    StreamSpec { txns_per_core: 12, ..StreamSpec::smoke() }
}

fn run_sharded(
    w: &StreamWorkload,
    det: DetectorKind,
    seed: u64,
    total: usize,
    per_cluster: usize,
    threads: usize,
) -> ShardOutput {
    let base = SimConfig::paper_seeded(det, seed);
    try_run_sharded(w, base, total, per_cluster, threads).expect("sharded run completes")
}

fn try_run_sharded(
    w: &dyn asf_machine::Workload,
    base: SimConfig,
    total: usize,
    per_cluster: usize,
    threads: usize,
) -> Result<ShardOutput, SimError> {
    ShardEngine::new(
        w,
        base,
        ShardConfig {
            total_cores: total,
            cores_per_cluster: per_cluster,
            epoch_cycles: 1024,
            worker_threads: threads,
            dir_latency: DirLatency::opteron_like(),
        },
    )
    .try_run()
}

#[test]
fn worker_threads_invisible_across_detectors_seeds_and_shard_counts() {
    let w = StreamWorkload::new("smoke", quick_spec());
    let total = 16;
    for det in [DetectorKind::Baseline, DetectorKind::SubBlock(4), DetectorKind::Perfect] {
        for seed in [1u64, 0xBEEF] {
            for shards in [1usize, 2, 4, 8] {
                let per_cluster = total / shards;
                let seq = run_sharded(&w, det, seed, total, per_cluster, 1);
                let par = run_sharded(&w, det, seed, total, per_cluster, 3);
                assert_eq!(
                    seq.stats, par.stats,
                    "{det:?}/seed {seed:#x}/{shards} shard(s): \
                     3 worker threads diverged from 1"
                );
                assert_eq!(
                    seq.per_shard_cycles, par.per_shard_cycles,
                    "{det:?}/seed {seed:#x}/{shards} shard(s): per-shard clocks diverged"
                );
                assert_eq!(
                    (seq.scale.epochs, seq.scale.cross_probes, seq.scale.cross_aborts),
                    (par.scale.epochs, par.scale.cross_probes, par.scale.cross_aborts),
                    "{det:?}/seed {seed:#x}/{shards} shard(s): cross-shard counters diverged"
                );
                assert!(seq.stats.tx_committed > 0, "the sweep must do real work");
            }
        }
    }
}

#[test]
fn single_shard_engine_equals_plain_machine() {
    let w = StreamWorkload::new("smoke", quick_spec());
    for det in [DetectorKind::Baseline, DetectorKind::SubBlock(8)] {
        for seed in [7u64, 0xCAFE] {
            let mut plain_cfg = SimConfig::paper_seeded(det, seed);
            plain_cfg.machine.cores = 16;
            let plain = Machine::try_run(&w, plain_cfg).expect("plain run");
            let sharded = run_sharded(&w, det, seed, 16, 16, 1);
            assert_eq!(
                plain.stats, sharded.stats,
                "{det:?}/seed {seed:#x}: one 16-core shard must equal a plain \
                 16-core machine (epoch pausing is behaviour-neutral)"
            );
            assert_eq!(sharded.scale.cross_probes, 0, "one cluster routes nothing");
        }
    }
}

/// Watchdog scaling regression (the satellite fix): at 256 simulated cores
/// an idle-heavy mix leaves each core committing rarely and aborting in
/// long per-core droughts. With the 8-core thresholds this tripped spurious
/// `Livelock`/`Starvation` reports; `ProgressMonitor::with_system_cores`
/// now scales the abort-streak threshold and commit-age window with the
/// *system* core count, so the run must complete.
#[test]
fn huge_idle_heavy_run_does_not_trip_the_watchdog() {
    let spec = StreamSpec { txns_per_core: 24, ..StreamSpec::idle_heavy() };
    let w = StreamWorkload::new("idle_heavy", spec);
    let out = run_sharded(&w, DetectorKind::SubBlock(8), 0x1D7E, 256, 16, 2);
    assert!(out.stats.tx_committed > 0);
    assert!(out.scale.epochs > 0);
    // 16 clusters all ran to their own completion.
    assert_eq!(out.per_shard_cycles.len(), 16);
    assert!(out.per_shard_cycles.iter().all(|&c| c > 0));
}

/// Run `f` on a helper thread and return how it ended (value or panic),
/// failing the test if it has not ended within a minute: a barrier that
/// loses a worker must not hang the suite.
fn finishes<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> std::thread::Result<T> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(catch_unwind(AssertUnwindSafe(f)));
    });
    rx.recv_timeout(Duration::from_secs(60)).expect("the shard engine hung")
}

/// A watchdog trip inside an epoch ends the run with the error of the
/// lowest tripping shard id, whatever the worker count.
#[test]
fn watchdog_trip_reports_the_same_error_for_every_worker_count() {
    let outcome = |threads: usize| {
        finishes(move || {
            let w = StreamWorkload::new("smoke", quick_spec());
            let mut base = SimConfig::paper_seeded(DetectorKind::SubBlock(4), 0x5EED);
            base.max_steps = 300;
            match try_run_sharded(&w, base, 16, 4, threads) {
                Ok(_) => panic!("a 300-step budget must trip the watchdog"),
                Err(e) => format!("{e:?}"),
            }
        })
        .expect("a watchdog trip is an error, not a panic")
    };
    let seq = outcome(1);
    assert!(seq.starts_with("Watchdog"), "{seq}");
    for threads in [2, 3] {
        assert_eq!(outcome(threads), seq, "{threads} workers reported a different trip");
    }
}

/// Yields a few short transactions, then panics: a bug in one shard's
/// program.
struct PanicsAfter(u32);

impl ThreadProgram for PanicsAfter {
    fn next_item(&mut self) -> Option<WorkItem> {
        assert!(self.0 > 0, "injected program panic");
        self.0 -= 1;
        Some(WorkItem::Tx(TxAttempt::new(vec![
            TxOp::Write { addr: Addr(0x40_0000), size: 8, value: 1 },
            TxOp::Compute { cycles: 2000 },
        ])))
    }
}

/// A program that panics on one shard must re-raise the panic from
/// `try_run`, not leave the other workers waiting at the barrier.
#[test]
fn program_panic_on_one_shard_is_reraised() {
    for threads in [1, 2, 3] {
        let ended = finishes(move || {
            let w = FnWorkload {
                name: "panics",
                spawn_fn: |tid: usize, _threads: usize, _seed: u64| -> Box<dyn ThreadProgram> {
                    if tid == 9 {
                        return Box::new(PanicsAfter(5));
                    }
                    let addr = Addr(0x1000 + tid as u64 * 64);
                    let work = (0..20)
                        .map(|i| {
                            WorkItem::Tx(TxAttempt::new(vec![
                                TxOp::Write { addr, size: 8, value: i },
                                TxOp::Compute { cycles: 500 },
                            ]))
                        })
                        .collect();
                    Box::new(ScriptedProgram::new(work))
                },
            };
            let base = SimConfig::paper_seeded(DetectorKind::SubBlock(4), 1);
            try_run_sharded(&w, base, 16, 4, threads).map(|_| ())
        });
        assert!(ended.is_err(), "{threads} worker(s): the panic must propagate");
    }
}

/// Each machine logs a line in `EpochLog::spec_touched` only the first
/// time it ever gains speculative state there: aborted and retried
/// attempts re-mark lines, but the inter-cluster directory already lists
/// the shard, so the line is not logged again.
#[test]
fn no_shard_logs_a_spec_touched_line_twice() {
    // Hot 16-slot cluster pools: cores of one shard keep conflicting, so
    // retried attempts re-mark the same lines epoch after epoch.
    let (total, per_cluster, epoch) = (16, 4, 512u64);
    let spec = StreamSpec {
        cluster_update_pct: 60,
        slots_per_pool: 16,
        cores_per_cluster: per_cluster,
        ..quick_spec()
    };
    let w = StreamWorkload::new("smoke", spec);
    let mut shards: Vec<Machine> = (0..total / per_cluster)
        .map(|s| {
            let mut c = SimConfig::paper_seeded(DetectorKind::Baseline, 0xD0);
            c.machine.cores = per_cluster;
            c.tid_base = s * per_cluster;
            c.system_cores = total;
            let mut m = Machine::new(&w, c);
            m.enable_epoch_log();
            m
        })
        .collect();
    let mut seen: Vec<HashSet<u64>> = vec![HashSet::new(); shards.len()];
    let mut log = EpochLog::default();
    let mut epochs = 0;
    while let Some(next) = shards.iter().filter_map(Machine::next_event_clock).min() {
        let until = (next / epoch + 1) * epoch;
        for (s, m) in shards.iter_mut().enumerate() {
            m.run_epoch(until).expect("epoch runs");
            m.swap_epoch_log(&mut log);
            for (line, _) in &log.spec_touched {
                assert!(seen[s].insert(line.0), "shard {s} logged line {:#x} twice", line.0);
            }
        }
        epochs += 1;
    }
    let aborted: u64 = shards
        .iter_mut()
        .map(|m| m.finish().expect("finish").stats.tx_aborted)
        .sum();
    assert!(epochs >= 3, "the run must span several epochs: {epochs}");
    assert!(aborted > 0, "retried attempts must re-mark lines for the check to bite");
    assert!(seen.iter().all(|lines| !lines.is_empty()));
}

/// Every external probe the barrier routes is applied to its target shard
/// — including those routed by the final barrier, which no later epoch
/// drains, so the engine must apply them before finishing. Each core's
/// every transaction writes one line all clusters share, so every barrier
/// routes probes. With an epoch longer than the whole run, the final
/// barrier is the only one; with a short epoch, many barriers route and
/// cross-shard aborts fire. Applied probes (`cross_probes`) must equal
/// routed hops (`dir_probes_routed`) at every worker count, and the
/// results must not depend on it.
#[test]
fn every_routed_probe_is_applied_before_finish() {
    let w = FnWorkload {
        name: "shared-line",
        spawn_fn: |tid: usize, _threads: usize, _seed: u64| -> Box<dyn ThreadProgram> {
            let work = (0..6)
                .map(|i| {
                    WorkItem::Tx(TxAttempt::new(vec![
                        TxOp::Read { addr: Addr(0x1000 + 8 * (tid as u64 % 8)), size: 8 },
                        TxOp::Write { addr: Addr(0x1000 + 8 * (tid as u64 % 8)), size: 8, value: i },
                        TxOp::Compute { cycles: 300 },
                    ]))
                })
                .collect();
            Box::new(ScriptedProgram::new(work))
        },
    };
    let base = SimConfig::paper_seeded(DetectorKind::SubBlock(4), 0xAB);
    for epoch_cycles in [1u64 << 40, 256] {
        let run = |threads: usize| {
            ShardEngine::new(
                &w,
                base,
                ShardConfig {
                    total_cores: 16,
                    cores_per_cluster: 4,
                    epoch_cycles,
                    worker_threads: threads,
                    dir_latency: DirLatency::opteron_like(),
                },
            )
            .try_run()
            .expect("run completes")
        };
        let seq = run(1);
        assert!(seq.scale.dir_probes_routed > 0, "epoch {epoch_cycles}: probes must be routed");
        if epoch_cycles > 256 {
            assert_eq!(seq.scale.epochs, 1, "the whole run must fit one epoch");
        } else {
            assert!(seq.scale.cross_aborts > 0, "short epochs must deliver cross-shard aborts");
        }
        for threads in [1, 2, 3] {
            let out = run(threads);
            assert_eq!(
                out.scale.cross_probes, out.scale.dir_probes_routed,
                "epoch {epoch_cycles}, {threads} worker(s): a routed probe was never applied"
            );
            assert_eq!(out.stats, seq.stats, "epoch {epoch_cycles}, {threads} worker(s)");
            assert_eq!(
                (out.scale.cross_probes, out.scale.cross_aborts),
                (seq.scale.cross_probes, seq.scale.cross_aborts),
                "epoch {epoch_cycles}, {threads} worker(s)"
            );
        }
    }
}
