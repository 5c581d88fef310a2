//! Shard-parallel execution: many [`Machine`]s as one big simulation.
//!
//! The sequential engine tops out at 64 cores (its dense per-line state is
//! a set of `u64` bitmask columns). To scale past the paper's 8-core
//! machine to hundreds of simulated cores, this module runs **K clusters of
//! ≤ 64 cores each as K independent `Machine`s** — each cluster is a snoop
//! domain with its own broadcast fabric — joined by the conservative
//! [`InterClusterDirectory`] of [`crate::hier`].
//!
//! ## Execution model: bulk-synchronous epochs
//!
//! Time is cut into fixed-length *coherence epochs* (`epoch_cycles`). Each
//! epoch, every shard runs its own packed-key run queue up to the epoch
//! boundary — completely independently, touching no shared state — and then
//! a single-threaded barrier *routes* cross-shard traffic:
//!
//! 1. every line that *gained speculative state* is noted in the
//!    inter-cluster directory (conservative: entries are never removed,
//!    mirroring HT-Assist's never-cleaned probe filter). A machine logs a
//!    line only the first time in its life it turns speculative there —
//!    a second note of the same (line, shard) could change nothing. The
//!    note hands back the line's dense directory id, which the barrier
//!    files under the shard's own line id;
//! 2. every committed write footprint is routed through the directory by
//!    that id — two array loads, no hash probe — to the other clusters
//!    holding (possibly stale) speculative state on the line, and queued
//!    in each target shard's *inbox*.
//!
//! The barrier applies nothing. Each shard's worker drains its inbox right
//! before it runs the shard's next epoch (and [`ShardEngine::try_run`]
//! drains what the last barrier left before finishing): each probe lands
//! as an external invalidating probe and aborts conflicting transactions
//! with the same detector mask check — and the same true/false-conflict
//! taxonomy — as a local probe, stamped with the boundary of the epoch it
//! was routed in. Deferring the application is exact: a probe touches only
//! its target machine, and an abort tears down speculative state without
//! moving any clock or run-queue key, so the next boundary is the same
//! whether or not the inboxes have been drained.
//!
//! ## Threads
//!
//! [`ShardEngine::try_run`] starts `worker_threads` scoped threads once per
//! run; the calling thread runs no shard and only joins (with one worker,
//! the same loop runs on the calling thread, with no spawn). Worker `w`
//! owns shards `s ≡ w (mod N)`. After draining their inboxes and running
//! them to the boundary it arrives at one `Mutex` + `Condvar`; the *last*
//! worker to arrive leads the barrier — folds the epoch's times, routes
//! cross-shard traffic, picks the next boundary or stops — and then wakes
//! the others once. A worker that panics wakes the others on its way out,
//! so the panic is re-raised rather than leaving them at the barrier.
//!
//! ## Determinism
//!
//! The barrier runs on one thread and walks shards, commits, and probe
//! targets in a canonical order (ascending source shard id → commit event
//! order → line order), so every inbox receives its probes in that order,
//! and intra-epoch shard execution shares no state whatsoever. Worker
//! threads therefore *cannot* affect any simulated outcome: `worker_threads
//! = N` is bit-identical to `worker_threads = 1`, and a single-shard engine
//! is bit-identical to a plain [`Machine`] run — both invariants are pinned
//! by tests (`tests/shard_equivalence.rs`).
//!
//! The price of the model is physical fidelity, stated plainly: conflicts
//! *within* a cluster are detected at exact cycle granularity as before,
//! while cross-cluster conflicts are detected only at epoch boundaries and
//! only in the committed-writer → speculative-reader direction. Plain
//! (non-speculative) data is not kept coherent across clusters — shard
//! workloads partition their plain data by cluster (see
//! `asf-workloads::streaming`). DESIGN.md §15 discusses the trade-off.

use crate::hier::{ClusterTopology, DirLatency, InterClusterDirectory};
use crate::machine::{EpochLog, Machine, SimConfig, SimOutput};
use crate::txprog::Workload;
use asf_mem::addr::LineAddr;
use asf_stats::run::RunStats;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::error::SimError;

/// Shard-engine shape: how many cores, how they cluster, how often the
/// barrier runs, and how many OS threads drive the shards.
#[derive(Clone, Copy, Debug)]
pub struct ShardConfig {
    /// Total simulated cores across all shards; must be a multiple of
    /// `cores_per_cluster` (or equal to it).
    pub total_cores: usize,
    /// Cores per cluster = per shard (1..=64); 16 models four Opteron
    /// Istanbul sockets sharing one snoop domain.
    pub cores_per_cluster: usize,
    /// Epoch length in cycles: the cross-cluster conflict-detection
    /// granularity *and* the barrier frequency. Smaller = more faithful +
    /// more barrier overhead.
    pub epoch_cycles: u64,
    /// OS worker threads driving the shards (`shard s → worker s % N`),
    /// capped at the shard count. They are spawned once per
    /// [`ShardEngine::try_run`] and live for the whole run; 1 runs every
    /// shard on the calling thread and is the sequential reference. Any N
    /// is bit-identical to it.
    pub worker_threads: usize,
    /// Inter-cluster directory latency model (accounted, not simulated:
    /// the cycles accrue in [`ScaleStats`], not in any shard's clock).
    pub dir_latency: DirLatency,
}

impl ShardConfig {
    /// The `--scale huge` tier shape: 16-core clusters, 4096-cycle epochs,
    /// sequential driving unless the caller raises `worker_threads`.
    pub fn huge(total_cores: usize) -> ShardConfig {
        ShardConfig {
            total_cores,
            cores_per_cluster: 16,
            epoch_cycles: 4096,
            worker_threads: 1,
            dir_latency: DirLatency::opteron_like(),
        }
    }
}

/// Epochs recorded in the [`ScaleStats`] timeline before it stops growing
/// (a 512-core soak resolves tens of thousands of epochs; the timeline is
/// for tracing, not accounting, so it is capped and the totals keep going).
pub const TIMELINE_CAP: usize = 4096;

/// One resolved epoch, for timeline export (Chrome-trace shard tracks).
#[derive(Clone, Debug)]
pub struct EpochSpan {
    /// The epoch boundary this span ran up to (simulated cycles).
    pub until: u64,
    /// Wall-clock of the parallel execution phase: from the epoch's
    /// release to the last worker's arrival.
    pub wall: Duration,
    /// Wall-clock of the single-threaded barrier that followed: from the
    /// last arrival to the next release (or the stop).
    pub barrier: Duration,
    /// Per-worker busy time within this epoch (index = worker id).
    pub busy: Vec<Duration>,
}

/// Cross-shard and engine-level statistics, kept *outside* [`RunStats`] so
/// shard-parallel runs stay field-for-field comparable with sequential
/// references (the equivalence tests compare whole `RunStats` values).
#[derive(Debug, Default)]
pub struct ScaleStats {
    /// Epochs resolved (barrier executions).
    pub epochs: u64,
    /// External probes applied to shards (one per routed line × target,
    /// so always equal to `dir_probes_routed`).
    pub cross_probes: u64,
    /// Transactions aborted by external probes.
    pub cross_aborts: u64,
    /// Inter-cluster directory lookups (one per routed committed line).
    pub dir_lookups: u64,
    /// Directory-routed probe hops (targets across all lookups).
    pub dir_probes_routed: u64,
    /// Modelled directory latency: lookups and hops priced by
    /// [`DirLatency`]. Accounted cost, never added to a core clock.
    pub dir_latency_cycles: u64,
    /// Distinct lines the directory tracks at the end of the run.
    pub dir_lines: usize,
    /// Wall-clock spent inside shard execution, per worker thread.
    pub busy: Vec<Duration>,
    /// Wall-clock of the execution phases, each from an epoch's release to
    /// the last worker's arrival at the barrier, summed across epochs —
    /// the parallel region's critical path, wake-up latency included.
    pub epoch_wall: Duration,
    /// Wall-clock of the single-threaded barriers, each from the last
    /// arrival to the next release.
    pub barrier_wall: Duration,
    /// Per-epoch spans, first [`TIMELINE_CAP`] epochs only.
    pub timeline: Vec<EpochSpan>,
    /// Epochs that ran after the timeline filled (totals still include
    /// them; only the per-epoch detail is dropped).
    pub timeline_dropped: u64,
}

impl ScaleStats {
    /// Fraction of the parallel region's thread-time lost to the epoch
    /// barrier (idle workers waiting on the slowest shard): `1 − Σbusy /
    /// (threads × Σ epoch_wall)`. 0 when nothing has run yet.
    pub fn barrier_stall_fraction(&self) -> f64 {
        let threads = self.busy.len().max(1) as f64;
        let wall = self.epoch_wall.as_secs_f64() * threads;
        if wall <= 0.0 {
            return 0.0;
        }
        let busy: f64 = self.busy.iter().map(|d| d.as_secs_f64()).sum();
        (1.0 - busy / wall).max(0.0)
    }

    /// Render the engine-level counters — plus a per-epoch barrier-stall
    /// gauge over the recorded timeline — as OpenMetrics text (DESIGN.md
    /// §18). The per-epoch series is naturally bounded by
    /// [`TIMELINE_CAP`], so exposition size cannot grow without bound on
    /// long soaks.
    pub fn to_openmetrics(&self) -> String {
        let mut r = asf_stats::openmetrics::Renderer::new();
        r.counter("asf_shard_epochs", "Epochs resolved (barrier executions)", &[], self.epochs);
        r.counter(
            "asf_shard_cross_probes",
            "External probes delivered to shards",
            &[],
            self.cross_probes,
        );
        r.counter(
            "asf_shard_cross_aborts",
            "Transactions aborted by external probes",
            &[],
            self.cross_aborts,
        );
        r.counter(
            "asf_shard_dir_lookups",
            "Inter-cluster directory lookups",
            &[],
            self.dir_lookups,
        );
        r.counter(
            "asf_shard_dir_probes_routed",
            "Directory-routed probe hops",
            &[],
            self.dir_probes_routed,
        );
        r.counter(
            "asf_shard_dir_latency_cycles",
            "Modelled directory latency, accounted cycles",
            &[],
            self.dir_latency_cycles,
        );
        r.gauge(
            "asf_shard_dir_lines",
            "Distinct lines the directory tracks",
            &[],
            self.dir_lines as f64,
        );
        r.gauge(
            "asf_shard_barrier_stall_fraction",
            "Fraction of parallel thread-time lost to the epoch barrier",
            &[],
            self.barrier_stall_fraction(),
        );
        r.counter(
            "asf_shard_timeline_dropped",
            "Epochs past the timeline cap (totals still include them)",
            &[],
            self.timeline_dropped,
        );
        for (i, span) in self.timeline.iter().enumerate() {
            let epoch = i.to_string();
            let wall = span.wall.as_secs_f64() * span.busy.len().max(1) as f64;
            let busy: f64 = span.busy.iter().map(|d| d.as_secs_f64()).sum();
            let stall = if wall > 0.0 { (1.0 - busy / wall).max(0.0) } else { 0.0 };
            r.gauge(
                "asf_shard_epoch_barrier_stall",
                "Per-epoch barrier-stall fraction over the recorded timeline",
                &[("epoch", &epoch)],
                stall,
            );
        }
        r.finish()
    }
}

/// Result of a shard-parallel run.
#[derive(Debug)]
pub struct ShardOutput {
    /// All shards' statistics merged ([`RunStats::merge`]), with `cycles`
    /// overridden to the *maximum* shard cycle count (the shards ran
    /// concurrently in simulated time; summing would double-count it).
    pub stats: RunStats,
    /// Per-shard end-of-run clocks, ascending shard id.
    pub per_shard_cycles: Vec<u64>,
    /// Cross-shard traffic and engine timing.
    pub scale: ScaleStats,
}

/// K machines + the inter-cluster directory, driven in lock-step epochs.
pub struct ShardEngine {
    /// One shard per cluster. Each is locked only by the worker that owns
    /// it (`s % N`) while an epoch runs, and only by the barrier leader
    /// while the others wait, so the locks are never contended.
    shards: Vec<Mutex<Shard>>,
    topo: ClusterTopology,
    barrier: Barrier,
}

/// One cluster's machine, with the external probes the last barrier
/// routed to it.
struct Shard {
    machine: Machine,
    /// `(line, write-mask bits)` probes, in the canonical routing order;
    /// applied by the shard's own worker before its next epoch.
    inbox: Vec<(LineAddr, u64)>,
    /// Boundary of the epoch the inbox was routed in: the cycle its
    /// probes are applied at.
    inbox_at: u64,
    /// External probes applied here.
    cross_probes: u64,
    /// Transactions aborted by them.
    cross_aborts: u64,
}

impl Shard {
    /// Apply the probes the last barrier routed here, in routing order.
    fn drain_inbox(&mut self) {
        if self.inbox.is_empty() {
            return;
        }
        // Exactness of the deferred application: aborts tear down
        // speculative state but move no clock or run-queue key.
        let next = self.machine.next_event_clock();
        for &(line, wbits) in &self.inbox {
            self.cross_aborts +=
                u64::from(self.machine.apply_external_probe(line, wbits, self.inbox_at));
        }
        self.cross_probes += self.inbox.len() as u64;
        self.inbox.clear();
        debug_assert_eq!(self.machine.next_event_clock(), next, "a probe moved the schedule");
    }
}

/// What the epoch barrier owns: everything the engine has but the shards.
struct Barrier {
    dir: InterClusterDirectory,
    cfg: ShardConfig,
    /// Parked per-shard log buffers, swapped against each machine's live
    /// outbox at the barrier (no allocation per epoch).
    logs: Vec<EpochLog>,
    /// Per shard: directory id of each noted line, indexed by the
    /// machine-local line id ([`NO_DIR_ID`] where not yet noted). Grown
    /// as lines are noted.
    dir_ids: Vec<Vec<u32>>,
    scale: ScaleStats,
}

/// [`Barrier::dir_ids`] slot of a line the shard has not noted.
const NO_DIR_ID: u32 = u32::MAX;

/// The state the workers of one run share, behind one mutex: where the
/// run is, who has arrived, and the barrier itself (run by the leader).
struct EpochSync {
    /// Boundary of the epoch being run; `None` once the run stops.
    until: Option<u64>,
    /// Bumped at every release; a waiting worker wakes when it moves.
    generation: u64,
    /// Workers at the barrier in the current epoch.
    arrived: usize,
    /// When the current epoch was released.
    released: Instant,
    /// Busy time of each worker in the current epoch.
    busy: Vec<Duration>,
    /// The watchdog trip of the lowest shard id in the current epoch.
    error: Option<(usize, SimError)>,
    /// A worker panicked; every other worker leaves at once.
    panicked: bool,
    barrier: Barrier,
}

/// Lock the run state, ignoring poison: a worker that panics while
/// leading the barrier poisons it, and the others must still read
/// `panicked` to leave — it is the only field read after a panic.
fn lock(sync: &Mutex<EpochSync>) -> MutexGuard<'_, EpochSync> {
    sync.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Lock one shard. A shard is poisoned only when its owner panicked
/// mid-epoch; the barrier never runs after that, so no one locks it again.
fn shard(m: &Mutex<Shard>) -> MutexGuard<'_, Shard> {
    m.lock().expect("a shard is not locked after its worker panicked")
}

/// Releases the other workers if its worker unwinds, so the scope
/// re-raises the panic instead of deadlocking at the barrier.
struct ReleaseOnPanic<'a> {
    sync: &'a Mutex<EpochSync>,
    cv: &'a Condvar,
}

impl Drop for ReleaseOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            lock(self.sync).panicked = true;
            self.cv.notify_all();
        }
    }
}

/// Next epoch boundary: one past the earliest scheduled event anywhere,
/// rounded up — empty epochs are skipped entirely, and the boundary is a
/// pure function of simulated state, so every thread count computes the
/// same schedule. `None` once every shard is done.
fn next_until(shards: &[Mutex<Shard>], epoch_cycles: u64) -> Option<u64> {
    let next = shards.iter().filter_map(|m| shard(m).machine.next_event_clock()).min()?;
    Some((next / epoch_cycles + 1) * epoch_cycles)
}

impl ShardEngine {
    /// Build one machine per cluster, each seeing the *global* thread space
    /// (`tid_base`, `system_cores`): shard `s`'s core `i` runs the exact
    /// program and RNG stream that core `s·k + i` of a monolithic machine
    /// would, so sharding changes scheduling, never workload content.
    pub fn new(workload: &dyn Workload, base: SimConfig, cfg: ShardConfig) -> ShardEngine {
        assert!(cfg.epoch_cycles > 0, "epoch length must be positive");
        assert!(cfg.worker_threads > 0, "need at least one worker thread");
        let topo = if cfg.total_cores <= cfg.cores_per_cluster {
            ClusterTopology::new(1, cfg.total_cores)
        } else {
            assert!(
                cfg.total_cores.is_multiple_of(cfg.cores_per_cluster),
                "total cores must be a multiple of the cluster size"
            );
            ClusterTopology::new(cfg.total_cores / cfg.cores_per_cluster, cfg.cores_per_cluster)
        };
        let shards = (0..topo.clusters)
            .map(|s| {
                let mut c = base;
                c.machine.cores = topo.cores_per_cluster;
                c.tid_base = topo.base_core(s);
                c.system_cores = topo.total_cores();
                let mut machine = Machine::new(workload, c);
                machine.enable_epoch_log();
                Mutex::new(Shard {
                    machine,
                    inbox: Vec::new(),
                    inbox_at: 0,
                    cross_probes: 0,
                    cross_aborts: 0,
                })
            })
            .collect();
        let logs = (0..topo.clusters).map(|_| EpochLog::default()).collect();
        let dir_ids = (0..topo.clusters).map(|_| Vec::new()).collect();
        let workers = cfg.worker_threads.min(topo.clusters);
        ShardEngine {
            shards,
            topo,
            barrier: Barrier {
                dir: InterClusterDirectory::default(),
                cfg,
                logs,
                dir_ids,
                scale: ScaleStats { busy: vec![Duration::ZERO; workers], ..ScaleStats::default() },
            },
        }
    }

    /// Cluster layout in use.
    pub fn topology(&self) -> ClusterTopology {
        self.topo
    }

    /// Run every shard to completion, epoch by epoch, on `worker_threads`
    /// workers that live for the whole run (one worker runs on the calling
    /// thread, with no spawn).
    pub fn try_run(self) -> Result<ShardOutput, SimError> {
        let ShardEngine { shards, barrier, .. } = self;
        let workers = barrier.scale.busy.len();
        let first = next_until(&shards, barrier.cfg.epoch_cycles);
        let sync = Mutex::new(EpochSync {
            until: first,
            generation: 0,
            arrived: 0,
            released: Instant::now(),
            busy: vec![Duration::ZERO; workers],
            error: None,
            panicked: false,
            barrier,
        });
        let cv = Condvar::new();
        if let Some(until) = first {
            let work = |w: usize| run_worker(w, workers, until, &shards, &sync, &cv);
            if workers == 1 {
                work(0);
            } else {
                std::thread::scope(|scope| {
                    for w in 0..workers {
                        scope.spawn(move || work(w));
                    }
                });
            }
        }
        let EpochSync { error, barrier, .. } = sync.into_inner().expect("no worker panicked");
        if let Some((_, e)) = error {
            return Err(e);
        }
        let Barrier { dir, mut scale, .. } = barrier;
        // Apply what the last barrier routed, then finalize each shard (no
        // events left — this only folds counters).
        let mut outs: Vec<SimOutput> = Vec::with_capacity(shards.len());
        for m in shards {
            let mut sh = m.into_inner().expect("no worker panicked");
            sh.drain_inbox();
            scale.cross_probes += sh.cross_probes;
            scale.cross_aborts += sh.cross_aborts;
            outs.push(sh.machine.finish()?);
        }
        let per_shard_cycles: Vec<u64> = outs.iter().map(|o| o.stats.cycles).collect();
        let mut stats = RunStats::default();
        for o in &outs {
            stats.merge(&o.stats);
        }
        stats.cycles = per_shard_cycles.iter().copied().max().unwrap_or(0);
        scale.dir_lookups = dir.lookups;
        scale.dir_probes_routed = dir.probes_routed;
        scale.dir_latency_cycles = dir.latency_cycles;
        scale.dir_lines = dir.lines();
        Ok(ShardOutput { stats, per_shard_cycles, scale })
    }
}

/// One worker's whole run: drive its fixed shards (`s % workers == w`, a
/// map that never depends on timing) through their inboxes and on to
/// `until`, arrive at the barrier,
/// and either lead it (the last to arrive) or sleep until released.
/// Errors (watchdog trips) are reported for the lowest shard id, so the
/// report is independent of threading.
fn run_worker(
    w: usize,
    workers: usize,
    mut until: u64,
    shards: &[Mutex<Shard>],
    sync: &Mutex<EpochSync>,
    cv: &Condvar,
) {
    let _release = ReleaseOnPanic { sync, cv };
    loop {
        let t0 = Instant::now();
        let mut error = None;
        for (s, m) in shards.iter().enumerate().skip(w).step_by(workers) {
            let mut sh = shard(m);
            sh.drain_inbox();
            if let Err(e) = sh.machine.run_epoch(until) {
                error = error.or(Some((s, e)));
            }
        }
        let busy = t0.elapsed();
        let mut st = lock(sync);
        if st.panicked {
            return;
        }
        st.busy[w] = busy;
        if let Some((s, e)) = error {
            if st.error.as_ref().is_none_or(|(first, _)| s < *first) {
                st.error = Some((s, e));
            }
        }
        st.arrived += 1;
        let next = if st.arrived == workers {
            st.lead(shards);
            let next = st.until;
            drop(st);
            cv.notify_all();
            next
        } else {
            let generation = st.generation;
            while st.generation == generation && !st.panicked {
                st = cv.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
            if st.panicked {
                return;
            }
            st.until
        };
        match next {
            Some(next) => until = next,
            None => return,
        }
    }
}

impl EpochSync {
    /// The last worker to arrive: fold the epoch's times, resolve the
    /// barrier, pick the next boundary (or stop), and release the epoch.
    fn lead(&mut self, shards: &[Mutex<Shard>]) {
        let arrived = Instant::now();
        let until = self.until.expect("a running epoch has a boundary");
        self.arrived = 0;
        self.generation += 1;
        if self.error.is_some() {
            self.until = None;
            return;
        }
        self.barrier.resolve(shards, until);
        self.until = next_until(shards, self.barrier.cfg.epoch_cycles);
        let released = Instant::now();
        let (wall, barrier) = (arrived - self.released, released - arrived);
        self.released = released;
        let scale = &mut self.barrier.scale;
        for (total, b) in scale.busy.iter_mut().zip(&self.busy) {
            *total += *b;
        }
        scale.epoch_wall += wall;
        scale.barrier_wall += barrier;
        scale.epochs += 1;
        if scale.timeline.len() < TIMELINE_CAP {
            scale.timeline.push(EpochSpan { until, wall, barrier, busy: self.busy.clone() });
        } else {
            scale.timeline_dropped += 1;
        }
    }
}

impl Barrier {
    /// The single-threaded epoch barrier: drain outboxes, feed the
    /// directory, and queue committed write footprints in the target
    /// shards' inboxes. Canonical order throughout — ascending source
    /// shard id, then each shard's own commit order, then line order — so
    /// every inbox is a pure function of the (deterministic) per-shard
    /// logs.
    fn resolve(&mut self, shards: &[Mutex<Shard>], until: u64) {
        let mut shards: Vec<MutexGuard<'_, Shard>> = shards.iter().map(shard).collect();
        for (sh, log) in shards.iter_mut().zip(self.logs.iter_mut()) {
            debug_assert!(sh.inbox.is_empty(), "an inbox outlived its epoch");
            sh.machine.swap_epoch_log(log);
            sh.inbox_at = until;
        }
        // Pass 1: register this epoch's new speculative lines *before* any
        // routing, so a commit in shard 0 sees speculative state shard 2
        // acquired in the same epoch (conservative ordering: the directory
        // may over-route, never under-route).
        for (s, (log, ids)) in self.logs.iter().zip(self.dir_ids.iter_mut()).enumerate() {
            for &(line, lid) in &log.spec_touched {
                let lid = lid as usize;
                if lid >= ids.len() {
                    ids.resize(lid + 1, NO_DIR_ID);
                }
                ids[lid] = self.dir.note(line, s);
            }
        }
        // Pass 2: route committed write footprints. A committed written
        // line was speculative in its own shard, so pass 1 of this or an
        // earlier barrier noted it there.
        for (s, (log, ids)) in self.logs.iter().zip(&self.dir_ids).enumerate() {
            for &(line, lid, wbits) in &log.commit_lines {
                let id = ids.get(lid as usize).copied().unwrap_or(NO_DIR_ID);
                assert_ne!(id, NO_DIR_ID, "shard {s} committed a line it never noted");
                let mut targets = self.dir.route(id, s, self.cfg.dir_latency);
                while targets != 0 {
                    let t = targets.trailing_zeros() as usize;
                    targets &= targets - 1;
                    shards[t].inbox.push((line, wbits));
                }
            }
        }
        for log in self.logs.iter_mut() {
            log.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use crate::txprog::{ScriptedWorkload, TxAttempt, TxOp, WorkItem};
    use asf_core::detector::DetectorKind;
    use asf_mem::addr::Addr;

    fn contention_workload(cores: usize) -> ScriptedWorkload {
        // Every core increments a shared counter a few times, plus touches
        // a private line — enough traffic to exercise commits, conflicts,
        // and retries.
        let scripts = (0..cores)
            .map(|tid| {
                (0..4)
                    .map(|i| {
                        WorkItem::Tx(TxAttempt::new(vec![
                            TxOp::Read { addr: Addr(0x1000), size: 8 },
                            TxOp::Write { addr: Addr(0x1000), size: 8, value: (tid + i) as u64 },
                            TxOp::Write {
                                addr: Addr(0x8000 + tid as u64 * 64),
                                size: 8,
                                value: i as u64,
                            },
                        ]))
                    })
                    .collect()
            })
            .collect();
        ScriptedWorkload { name: "contention", scripts }
    }

    #[test]
    fn single_shard_matches_plain_machine() {
        let w = contention_workload(4);
        let base = SimConfig::paper_seeded(DetectorKind::SubBlock(4), 7);
        let mut plain_cfg = base;
        plain_cfg.machine.cores = 4;
        let plain = Machine::try_run(&w, plain_cfg).expect("plain run");
        let sharded = ShardEngine::new(
            &w,
            base,
            ShardConfig {
                total_cores: 4,
                cores_per_cluster: 4,
                epoch_cycles: 256,
                worker_threads: 1,
                dir_latency: DirLatency::opteron_like(),
            },
        )
        .try_run()
        .expect("sharded run");
        assert_eq!(plain.stats, sharded.stats, "one shard must equal the plain machine");
        assert_eq!(sharded.scale.cross_probes, 0, "a single cluster routes nothing");
    }

    #[test]
    fn worker_thread_count_is_invisible() {
        let w = contention_workload(8);
        let base = SimConfig::paper_seeded(DetectorKind::Baseline, 11);
        let cfg = ShardConfig {
            total_cores: 8,
            cores_per_cluster: 2,
            epoch_cycles: 512,
            worker_threads: 1,
            dir_latency: DirLatency::opteron_like(),
        };
        let seq = ShardEngine::new(&w, base, cfg).try_run().expect("seq");
        let par = ShardEngine::new(&w, base, ShardConfig { worker_threads: 4, ..cfg })
            .try_run()
            .expect("par");
        assert_eq!(seq.stats, par.stats, "threads must be bit-invisible");
        assert_eq!(seq.per_shard_cycles, par.per_shard_cycles);
        assert_eq!(seq.scale.epochs, par.scale.epochs);
        assert_eq!(seq.scale.cross_probes, par.scale.cross_probes);
        assert_eq!(seq.scale.cross_aborts, par.scale.cross_aborts);
        assert_eq!(seq.scale.dir_lookups, par.scale.dir_lookups);
        // The timeline records every epoch (well under the cap here), and
        // its `until` sequence — pure simulated state — matches too.
        assert_eq!(seq.scale.timeline.len(), seq.scale.epochs as usize);
        assert_eq!(seq.scale.timeline_dropped, 0);
        let seq_untils: Vec<u64> = seq.scale.timeline.iter().map(|e| e.until).collect();
        let par_untils: Vec<u64> = par.scale.timeline.iter().map(|e| e.until).collect();
        assert_eq!(seq_untils, par_untils);
    }

    #[test]
    fn cross_shard_commit_aborts_remote_speculative_reader() {
        // Shard 0 (core 0) commits a write to line L early; shard 1
        // (core 1) holds a speculative read of L across the epoch boundary
        // inside a long transaction. The barrier must route the committed
        // footprint and abort the reader with a *true* WAR conflict.
        let scripts = vec![
            vec![WorkItem::Tx(TxAttempt::new(vec![TxOp::Write {
                addr: Addr(0x1000),
                size: 8,
                value: 1,
            }]))],
            vec![WorkItem::Tx(TxAttempt::new(vec![
                TxOp::Read { addr: Addr(0x1000), size: 8 },
                TxOp::Compute { cycles: 1_000_000 },
            ]))],
        ];
        let w = ScriptedWorkload { name: "cross", scripts };
        let base = SimConfig::paper_seeded(DetectorKind::SubBlock(4), 3);
        let out = ShardEngine::new(
            &w,
            base,
            ShardConfig {
                total_cores: 2,
                cores_per_cluster: 1,
                epoch_cycles: 4096,
                worker_threads: 1,
                dir_latency: DirLatency::opteron_like(),
            },
        )
        .try_run()
        .expect("run");
        assert_eq!(out.scale.cross_aborts, 1, "the remote reader must abort once");
        assert!(out.scale.cross_probes >= 1);
        assert!(out.scale.dir_lookups >= 1);
        assert_eq!(out.stats.tx_committed, 2, "both transactions commit in the end");
        assert!(out.stats.tx_aborted >= 1);
        // Accounted directory latency: every lookup pays, every hop pays.
        assert!(out.scale.dir_latency_cycles >= out.scale.dir_lookups * 60);
    }

    #[test]
    fn barrier_stall_fraction_is_bounded() {
        let s = ScaleStats::default();
        assert_eq!(s.barrier_stall_fraction(), 0.0);
        let s = ScaleStats {
            busy: vec![Duration::from_millis(30), Duration::from_millis(10)],
            epoch_wall: Duration::from_millis(40),
            ..ScaleStats::default()
        };
        let f = s.barrier_stall_fraction();
        assert!(f > 0.49 && f < 0.51, "2 threads × 40ms wall, 40ms busy → 50%: {f}");
    }

    #[test]
    fn scale_stats_render_as_valid_openmetrics() {
        let s = ScaleStats {
            epochs: 7,
            cross_probes: 12,
            cross_aborts: 3,
            busy: vec![Duration::from_millis(30), Duration::from_millis(10)],
            epoch_wall: Duration::from_millis(40),
            timeline: vec![EpochSpan {
                until: 4096,
                wall: Duration::from_millis(40),
                barrier: Duration::from_millis(2),
                busy: vec![Duration::from_millis(30), Duration::from_millis(10)],
            }],
            ..ScaleStats::default()
        };
        let text = s.to_openmetrics();
        let exp = asf_stats::openmetrics::parse_exposition(&text).expect("parses");
        assert_eq!(exp.value("asf_shard_epochs_total", &[]), Some(7.0));
        let stall = exp
            .value("asf_shard_epoch_barrier_stall", &[("epoch", "0")])
            .expect("per-epoch stall gauge present");
        assert!(stall > 0.49 && stall < 0.51, "{stall}");
    }
}
