//! `asf-repro scale` — shard-parallel scaling curves.
//!
//! Sweeps simulated-cores × worker-threads over a streaming workload
//! preset, running each cell through [`ShardEngine`] and reporting the
//! throughput curve: wall time, simulated accesses per second, speedup over
//! the single-threaded reference at the same core count, and the epoch
//! barrier's stall fraction. Every thread count at a given core count must
//! produce **bit-identical** `RunStats` — the sweep itself asserts this
//! (an A/B fence run on every invocation, not only in tests).
//!
//! The sweep prints its table; `--csv DIR` / `--json DIR` write it, and
//! `--json DIR` also writes one Chrome timeline per fresh cell. Host speed
//! of record is measured by perfbench's `huge-shard` workload, not here.
//!
//! Honesty note: speedup > 1 needs real host cores. On a 1-vCPU runner the
//! worker threads time-slice one core and the curve is flat (or slightly
//! worse, barrier overhead being pure cost) — the numbers report what the
//! host actually did, never an extrapolation.

use crate::checkpoint::{job_key, Checkpoint};
use crate::error::HarnessError;
use asf_core::detector::DetectorKind;
use asf_machine::machine::SimConfig;
use asf_machine::shard::{ShardConfig, ShardEngine, ShardOutput};
use asf_machine::Workload;
use asf_stats::chrome::ChromeTraceWriter;
use asf_stats::table::Table;
use asf_workloads::streaming;
use std::time::{Duration, Instant};

/// Simulated-core counts of the default sweep (`--scale huge` tier).
pub const CORES_GRID: [usize; 3] = [64, 128, 256];
/// Worker-thread counts of the default sweep, before [`threads_grid`]
/// caps them at the host's CPU count.
pub const THREADS_GRID: [usize; 3] = [1, 2, 4];

/// [`THREADS_GRID`] capped at `nproc` host CPUs. A row with more workers
/// than CPUs only time-slices them, so it measures the host's scheduler
/// rather than the engine, and is dropped — except 1 and 2, which the
/// sweep's determinism cross-check compares. Returns the kept rows and a
/// table note naming the dropped ones (`None` when none were dropped).
pub fn threads_grid(nproc: usize) -> (Vec<usize>, Option<String>) {
    let (kept, dropped): (Vec<usize>, Vec<usize>) =
        THREADS_GRID.iter().partition(|&&t| t <= nproc.max(2));
    let note = (!dropped.is_empty())
        .then(|| format!("thread counts {dropped:?} skipped: above this host's {nproc} CPU(s)"));
    (kept, note)
}

/// Detector the sweep runs under: the paper's preferred sub-blocking,
/// matching the perf grid's middle column.
pub const DETECTOR: DetectorKind = DetectorKind::SubBlock(8);

/// One timed (cores × threads) cell of the sweep.
#[derive(Clone, Debug)]
pub struct ScaleCell {
    /// Simulated cores.
    pub cores: usize,
    /// Worker threads that drove the shards.
    pub threads: usize,
    /// Wall time of the cell (zero when resumed from a checkpoint).
    pub wall: Duration,
    /// Simulated accesses (L1 hits + misses).
    pub accesses: u64,
    /// Simulated cycles (max over shards — the run's critical path).
    pub cycles: u64,
    /// Committed transactions.
    pub txns: u64,
    /// Epoch barriers resolved (zero when resumed).
    pub epochs: u64,
    /// Cross-shard probes delivered (zero when resumed).
    pub cross_probes: u64,
    /// Transactions aborted by cross-shard probes (zero when resumed).
    pub cross_aborts: u64,
    /// Barrier stall fraction (0..1; zero when resumed).
    pub stall: f64,
    /// True when the cell's stats came from a checkpoint, not a fresh run.
    /// Resumed cells still participate in the determinism cross-check but
    /// carry no timing.
    pub resumed: bool,
}

/// A completed scaling sweep.
#[derive(Clone, Debug)]
pub struct ScaleReport {
    /// Streaming preset name (`mix`, `million`, …).
    pub preset: String,
    /// Master seed.
    pub seed: u64,
    /// Cells in (cores, threads) grid order.
    pub cells: Vec<ScaleCell>,
    /// Chrome-trace timelines of the fresh cells:
    /// `(artifact name, JSON document)`.
    pub timelines: Vec<(String, String)>,
}

fn accesses_of(stats: &asf_stats::run::RunStats) -> u64 {
    stats.l1_hits + stats.l1_misses
}

/// Run one (cores, threads) cell: a [`ShardEngine`] over the preset with
/// 16-core clusters and the huge-tier epoch length.
pub fn run_cell(
    preset: &streaming::StreamWorkload,
    cores: usize,
    threads: usize,
    seed: u64,
) -> Result<(ShardOutput, Duration), HarnessError> {
    let base = SimConfig::paper_seeded(DETECTOR, seed);
    let cfg = ShardConfig { worker_threads: threads, ..ShardConfig::huge(cores) };
    let start = Instant::now();
    let out = ShardEngine::new(preset, base, cfg).try_run().map_err(|e| {
        HarnessError::FailedCell {
            bench: format!("scale_{}_c{cores}_t{threads}", preset.name()),
            detector: DETECTOR.label(),
            error: e.to_string(),
        }
    })?;
    let wall = start.elapsed();
    Ok((out, wall))
}

/// The checkpoint key of one sweep cell.
pub fn cell_key(preset: &str, cores: usize, threads: usize, seed: u64) -> String {
    job_key(&format!("scale_{preset}_c{cores}_t{threads}"), "shard", seed)
}

/// Sweep `cores_grid × threads_grid` over the named preset. With a
/// checkpoint, completed cells are recorded as they finish and recorded
/// cells are skipped on resume (their simulated stats still enter the
/// determinism cross-check, so a resumed sweep re-verifies fresh runs
/// against the checkpointed reference).
pub fn sweep(
    preset_name: &str,
    seed: u64,
    cores_grid: &[usize],
    threads_grid: &[usize],
    mut checkpoint: Option<&mut Checkpoint>,
) -> Result<ScaleReport, HarnessError> {
    let preset = streaming::by_name(preset_name)
        .ok_or_else(|| HarnessError::UnknownBenchmark(format!("streaming preset {preset_name}")))?;
    let mut cells = Vec::new();
    let mut timelines = Vec::new();
    for &cores in cores_grid {
        // The determinism fence: every thread count at this core count must
        // reproduce the first cell's simulated outcome bit-for-bit.
        let mut reference: Option<asf_stats::run::RunStats> = None;
        for &threads in threads_grid {
            let key = cell_key(preset_name, cores, threads, seed);
            let recorded =
                checkpoint.as_deref_mut().and_then(|cp| cp.get(&key).cloned());
            let (stats, cell) = if let Some(stats) = recorded {
                let cell = ScaleCell {
                    cores,
                    threads,
                    wall: Duration::ZERO,
                    accesses: accesses_of(&stats),
                    cycles: stats.cycles,
                    txns: stats.tx_committed,
                    epochs: 0,
                    cross_probes: 0,
                    cross_aborts: 0,
                    stall: 0.0,
                    resumed: true,
                };
                (stats, cell)
            } else {
                let (out, wall) = run_cell(&preset, cores, threads, seed)?;
                let cell = ScaleCell {
                    cores,
                    threads,
                    wall,
                    accesses: accesses_of(&out.stats),
                    cycles: out.stats.cycles,
                    txns: out.stats.tx_committed,
                    epochs: out.scale.epochs,
                    cross_probes: out.scale.cross_probes,
                    cross_aborts: out.scale.cross_aborts,
                    stall: out.scale.barrier_stall_fraction(),
                    resumed: false,
                };
                timelines.push((
                    format!("scale_timeline_{preset_name}_c{cores}_t{threads}"),
                    timeline_json(&out),
                ));
                if let Some(cp) = checkpoint.as_deref_mut() {
                    cp.record(key, out.stats.clone())?;
                }
                (out.stats, cell)
            };
            match &reference {
                None => reference = Some(stats),
                Some(r) if *r == stats => {}
                Some(_) => {
                    return Err(HarnessError::Determinism(format!(
                        "scale {preset_name} at {cores} cores: {threads} worker thread(s) \
                         diverged from the sweep's first thread count — shard execution \
                         leaked host timing into simulated state"
                    )));
                }
            }
            cells.push(cell);
        }
    }
    Ok(ScaleReport { preset: preset_name.to_string(), seed, cells, timelines })
}

fn rate(accesses: u64, wall: Duration) -> f64 {
    accesses as f64 / wall.as_secs_f64().max(1e-9)
}

impl ScaleReport {
    /// The single-threaded wall time at `cores`, if that cell ran fresh.
    fn reference_wall(&self, cores: usize) -> Option<Duration> {
        self.cells
            .iter()
            .find(|c| c.cores == cores && c.threads == 1 && !c.resumed)
            .map(|c| c.wall)
    }

    /// The scaling-curve table: one row per (cores, threads) cell.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!("scale — shard-parallel throughput ({}, seed {:#x})", self.preset, self.seed),
            &[
                "cores", "threads", "txns", "wall ms", "Macc/s", "speedup", "epochs",
                "stall %", "x-probes", "x-aborts",
            ],
        );
        for c in &self.cells {
            let (wall_ms, macc, speedup) = if c.resumed {
                ("resumed".to_string(), "-".to_string(), "-".to_string())
            } else {
                let speedup = match self.reference_wall(c.cores) {
                    Some(base) if c.threads > 1 => {
                        format!("{:.2}x", base.as_secs_f64() / c.wall.as_secs_f64().max(1e-9))
                    }
                    _ => "1.00x".to_string(),
                };
                (
                    format!("{:.2}", c.wall.as_secs_f64() * 1e3),
                    format!("{:.2}", rate(c.accesses, c.wall) / 1e6),
                    speedup,
                )
            };
            t.row(vec![
                c.cores.to_string(),
                c.threads.to_string(),
                c.txns.to_string(),
                wall_ms,
                macc,
                speedup,
                c.epochs.to_string(),
                format!("{:.1}", c.stall * 100.0),
                c.cross_probes.to_string(),
                c.cross_aborts.to_string(),
            ]);
        }
        t
    }
}

/// Chrome-trace timeline of one cell: a track per worker thread showing its
/// busy time each epoch, plus a barrier track. Timestamps are cumulative
/// wall microseconds; open in `chrome://tracing` or Perfetto.
pub fn timeline_json(out: &ShardOutput) -> String {
    let mut w = ChromeTraceWriter::new();
    w.thread_name(0, "epoch barrier");
    for wk in 0..out.scale.busy.len() {
        w.thread_name(wk as u64 + 1, &format!("shard worker {wk}"));
    }
    let mut ts: u64 = 0;
    for span in &out.scale.timeline {
        for (wk, busy) in span.busy.iter().enumerate() {
            let dur = busy.as_micros() as u64;
            if dur > 0 {
                w.complete(
                    "epoch",
                    wk as u64 + 1,
                    ts,
                    dur,
                    &[("until_cycle", span.until.to_string())],
                );
            }
        }
        ts += span.wall.as_micros() as u64;
        w.complete(
            "barrier",
            0,
            ts,
            span.barrier.as_micros().max(1) as u64,
            &[("until_cycle", span.until.to_string())],
        );
        ts += span.barrier.as_micros() as u64;
    }
    if out.scale.timeline_dropped > 0 {
        w.instant(
            &format!("{} later epochs not recorded", out.scale.timeline_dropped),
            0,
            ts,
            'g',
            &[],
        );
    }
    w.finish()
}

/// The CI smoke gate: a 2-shard huge-tier config run with 1 and then 2
/// worker threads **in one process**, asserting the two runs are
/// bit-identical — full merged `RunStats`, per-shard clocks, and the
/// cross-shard counters. Returns a one-line summary, or the divergence.
pub fn smoke(seed: u64) -> Result<String, HarnessError> {
    let preset = streaming::by_name("smoke").expect("smoke preset exists");
    let (seq, _) = run_cell(&preset, 32, 1, seed)?;
    let (par, _) = run_cell(&preset, 32, 2, seed)?;
    if seq.stats != par.stats {
        return Err(HarnessError::Determinism(format!(
            "scale smoke: 2-thread RunStats diverged from 1-thread \
             ({} vs {} cycles, {} vs {} commits)",
            par.stats.cycles, seq.stats.cycles, par.stats.tx_committed, seq.stats.tx_committed
        )));
    }
    if seq.per_shard_cycles != par.per_shard_cycles {
        return Err(HarnessError::Determinism(format!(
            "scale smoke: per-shard clocks diverged: {:?} vs {:?}",
            par.per_shard_cycles, seq.per_shard_cycles
        )));
    }
    if (seq.scale.epochs, seq.scale.cross_probes, seq.scale.cross_aborts)
        != (par.scale.epochs, par.scale.cross_probes, par.scale.cross_aborts)
    {
        return Err(HarnessError::Determinism(format!(
            "scale smoke: cross-shard counters diverged: \
             epochs {} vs {}, probes {} vs {}, aborts {} vs {}",
            par.scale.epochs,
            seq.scale.epochs,
            par.scale.cross_probes,
            seq.scale.cross_probes,
            par.scale.cross_aborts,
            seq.scale.cross_aborts,
        )));
    }
    Ok(format!(
        "scale smoke ok: 32 cores / 2 shards, sequential == 2-thread \
         ({} commits, {} epochs, {} cross-shard probes, {} cross-shard aborts)",
        seq.stats.tx_committed, seq.scale.epochs, seq.scale.cross_probes, seq.scale.cross_aborts
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use asf_stats::json::parse;

    #[test]
    fn threads_grid_is_capped_at_nproc_but_keeps_the_cross_check() {
        assert_eq!(threads_grid(1).0, vec![1, 2]);
        let (kept, note) = threads_grid(2);
        assert_eq!(kept, vec![1, 2]);
        assert!(note.expect("4 is dropped").contains("[4]"));
        assert_eq!(threads_grid(8), (vec![1, 2, 4], None));
    }

    #[test]
    fn smoke_gate_passes() {
        let msg = smoke(0x5ca1e).expect("1-thread == 2-thread");
        assert!(msg.contains("scale smoke ok"), "{msg}");
        assert!(msg.contains("2 shards"), "{msg}");
    }

    #[test]
    fn sweep_runs_checks_determinism_and_renders() {
        let r = sweep("smoke", 0x5ca1e, &[32], &[1, 2], None).expect("sweep");
        assert_eq!(r.cells.len(), 2);
        // Same simulated outcome at both thread counts (the sweep would
        // have erred otherwise); timing differs.
        assert_eq!(r.cells[0].cycles, r.cells[1].cycles);
        assert_eq!(r.cells[0].accesses, r.cells[1].accesses);
        assert!(r.cells[0].txns > 0);
        assert!(r.cells[0].epochs > 0);
        let t = r.table();
        assert_eq!(t.len(), 2);
        // One timeline per fresh cell, and it is valid Chrome JSON.
        assert_eq!(r.timelines.len(), 2);
        let v = parse(&r.timelines[0].1).expect("timeline parses");
        assert!(!v.as_arr().expect("array").is_empty());
    }

    #[test]
    fn sweep_resumes_from_checkpoint() {
        let mut path = std::env::temp_dir();
        path.push(format!("asf_scale_ckpt_{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut cp = Checkpoint::load_or_new(&path).unwrap();
        let fresh = sweep("smoke", 3, &[32], &[1], Some(&mut cp)).expect("fresh");
        assert!(!fresh.cells[0].resumed);
        // Second sweep over a superset: the recorded cell is skipped (no
        // wall, no timeline) but still anchors the determinism check that
        // the fresh 2-thread cell must match.
        let mut cp = Checkpoint::load_or_new(&path).unwrap();
        assert_eq!(cp.len(), 1);
        let again = sweep("smoke", 3, &[32], &[1, 2], Some(&mut cp)).expect("resumed");
        assert!(again.cells[0].resumed);
        assert!(!again.cells[1].resumed);
        assert_eq!(again.cells[0].cycles, again.cells[1].cycles);
        assert_eq!(again.timelines.len(), 1);
        let _ = std::fs::remove_file(&path);
    }
}
