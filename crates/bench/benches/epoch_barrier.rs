//! Epoch-barrier micro-benchmark (DESIGN.md §15): the cost of the
//! cross-shard drain that the last worker to reach the barrier runs,
//! single-threaded, between epochs while the other workers sleep.
//!
//! Two levels:
//!
//! * `dir_drain/<clusters>` — the barrier's directory work in isolation:
//!   pass 1 notes every line that gained speculative state this epoch and
//!   files the returned directory id under the shard's own line id, pass 2
//!   routes each committed write footprint by that id and walks the
//!   returned target bitmask — exactly the shape of the engine's barrier,
//!   minus the push into each target shard's inbox. A machine logs a line
//!   for pass 1 only the first time in its life it gains speculative
//!   state, so in a real run the notes thin out after the first epochs;
//!   the fixed synthetic logs here are that early, note-heavy case.
//! * `engine/<threads>` — a complete 32-core / 2-shard streaming run end to
//!   end, so the barrier cost is visible in its real proportions (epoch
//!   execution dominates; the drain must stay a rounding error). The
//!   workers live for the whole run: `engine/2` spawns its two threads
//!   once per run, and `engine/1` runs on the calling thread.
//!
//! Like `sched`/`probe_batch`, this compiles in CI via `cargo bench -- --test`.

use asf_core::detector::DetectorKind;
use asf_machine::hier::{DirLatency, InterClusterDirectory};
use asf_machine::machine::SimConfig;
use asf_machine::shard::{ShardConfig, ShardEngine};
use asf_mem::addr::{Addr, LineAddr};
use asf_mem::intern::LineId;
use asf_mem::rng::SimRng;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// Committed lines routed per simulated epoch (per cluster).
const COMMITS_PER_CLUSTER: usize = 64;
/// Newly speculative lines noted per simulated epoch (per cluster).
const TOUCHED_PER_CLUSTER: usize = 128;
/// Distinct lines in the synthetic working set.
const LINES: u64 = 1024;

/// A line of the working set, with the id a machine would intern it as
/// (here simply its index).
fn line(rng: &mut SimRng) -> (LineAddr, LineId) {
    let n = rng.below(LINES);
    (Addr(n * 64).line(), n as LineId)
}

/// One cluster's epoch log: lines noted, then committed line ids. Every
/// committed line is among the noted ones, as in a real machine.
type Log = (Vec<(LineAddr, LineId)>, Vec<LineId>);

/// Pre-generated per-cluster epoch logs.
fn logs(clusters: usize, seed: u64) -> Vec<Log> {
    let mut rng = SimRng::seed_from_u64(seed);
    (0..clusters)
        .map(|_| {
            let touched: Vec<_> = (0..TOUCHED_PER_CLUSTER).map(|_| line(&mut rng)).collect();
            let commits = (0..COMMITS_PER_CLUSTER)
                .map(|_| touched[rng.below_usize(touched.len())].1)
                .collect();
            (touched, commits)
        })
        .collect()
}

/// One barrier's directory drain in canonical order: all notes (filing
/// each directory id under the cluster's line id), then all routes by id,
/// walking each target mask ascending.
fn drain(dir: &mut InterClusterDirectory, ids: &mut [Vec<u32>], logs: &[Log]) -> u64 {
    let lat = DirLatency::opteron_like();
    for (s, ((touched, _), ids)) in logs.iter().zip(ids.iter_mut()).enumerate() {
        for &(l, lid) in touched {
            ids[lid as usize] = dir.note(l, s);
        }
    }
    let mut delivered: u64 = 0;
    for (s, ((_, commits), ids)) in logs.iter().zip(ids.iter()).enumerate() {
        for &lid in commits {
            let mut targets = dir.route(ids[lid as usize], s, lat);
            while targets != 0 {
                let t = targets.trailing_zeros() as u64;
                targets &= targets - 1;
                delivered = delivered.wrapping_add(t + 1);
            }
        }
    }
    delivered
}

fn bench_epoch_barrier(c: &mut Criterion) {
    let mut g = c.benchmark_group("epoch_barrier");
    for clusters in [4usize, 16] {
        let data = logs(clusters, 0xE90C);
        // Persistent directory across iterations, like across real epochs:
        // steady-state drains hit an already-populated sharer map.
        let mut dir = InterClusterDirectory::new();
        let mut ids = vec![vec![0u32; LINES as usize]; clusters];
        g.bench_function(format!("dir_drain/{clusters}"), |b| {
            b.iter(|| black_box(drain(&mut dir, &mut ids, &data)))
        });
    }
    let preset = asf_workloads::streaming::by_name("smoke").expect("smoke preset");
    for threads in [1usize, 2] {
        g.sample_size(10);
        g.bench_function(format!("engine/{threads}"), |b| {
            b.iter(|| {
                let base = SimConfig::paper_seeded(DetectorKind::SubBlock(8), 0xE90C);
                let cfg = ShardConfig { worker_threads: threads, ..ShardConfig::huge(32) };
                let out = ShardEngine::new(&preset, base, cfg).try_run().expect("run");
                black_box(out.stats.cycles)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_epoch_barrier);
criterion_main!(benches);
