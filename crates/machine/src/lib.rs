//! # asf-machine — the multicore HTM simulator
//!
//! A deterministic, sequential, discrete-event, cycle-approximate simulator
//! of the paper's Table II machine: N cores with private L1/L2/L3, broadcast
//! MOESI snooping, and an ASF-style best-effort HTM whose conflict detection
//! is pluggable via [`asf_core::DetectorKind`].
//!
//! ## Execution model
//!
//! Each core owns a local cycle clock. The scheduler always advances the
//! core with the smallest clock (ties broken by core id), executing one
//! operation to completion; coherence probes take effect atomically at the
//! requester's timestamp, and a victim discovers its abort before its next
//! operation. This yields bit-for-bit reproducible runs for a given seed.
//!
//! ## HTM semantics (matching §IV of the paper)
//!
//! * **Lazy versioning**: speculative stores are buffered in a per-core
//!   write set and published to the committed global memory at commit;
//!   uncommitted data is never visible to other cores.
//! * **Eager conflict detection**: every cache miss / upgrade broadcasts a
//!   probe carrying the access's byte mask; each remote core checks it
//!   against its live *and retained* speculative line state with the active
//!   detector. Requester wins; the victim aborts.
//! * **Dirty sub-blocks**: a surviving responder piggy-backs its
//!   speculatively-written sub-blocks on the data response; the requester
//!   marks them dirty and treats later local hits on dirty bytes as misses
//!   (forcing the probe that detects the Figure 6 conflicts).
//! * **Retained metadata**: a line invalidated by a false WAR conflict keeps
//!   its speculative state for conflict checking (modelled as a per-core
//!   side table).
//! * **Best effort**: speculative lines are pinned in L1; if a set cannot
//!   hold a new speculative line the transaction takes a capacity abort.
//!   After `max_retries` consecutive aborts a transaction falls back to a
//!   global software lock and executes non-transactionally (the standard
//!   ASF software contract, which also guarantees progress).
//!
//! An **isolation oracle** watches every transactional read: if it overlaps
//! a remote in-flight transaction's write set without any conflict having
//! been raised, the run records an isolation violation. With the dirty
//! mechanism enabled this count is always zero; switching it off
//! (`SimConfig::enable_dirty = false`) reproduces the atomicity hazards of
//! Figure 6 — used by the ablation bench and the integration tests.
//!
//! ```
//! use asf_core::detector::DetectorKind;
//! use asf_machine::machine::{Machine, SimConfig};
//! use asf_machine::txprog::{ScriptedWorkload, TxAttempt, TxOp, WorkItem};
//! use asf_mem::addr::Addr;
//!
//! // One core, one transaction: write 8 bytes, bump them, commit.
//! let w = ScriptedWorkload {
//!     name: "demo",
//!     scripts: vec![vec![WorkItem::Tx(TxAttempt::new(vec![
//!         TxOp::Write { addr: Addr(0x100), size: 8, value: 41 },
//!         TxOp::Update { addr: Addr(0x100), size: 8, delta: 1 },
//!     ]))]],
//! };
//! let out = Machine::run(&w, SimConfig::paper(DetectorKind::SubBlock(4)));
//! assert_eq!(out.memory.read_u64(Addr(0x100), 8), 42);
//! assert_eq!(out.stats.tx_committed, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod error;
pub mod fault;
pub mod hier;
pub mod machine;
pub mod obs;
mod runq;
pub mod shard;
pub mod snapshot;
pub mod trace;
pub mod txprog;
pub mod value;

pub use error::{CoreReport, ProgressReport, SimError};
pub use fault::{FaultPlan, FaultRate};
pub use machine::{Machine, ResolutionPolicy, SimConfig, SimOutput};
pub use obs::{ObsConfig, ObsReport};
pub use snapshot::{CancelKind, CancelToken, ProgressProbe, ProgressSnapshot};
pub use shard::{EpochSpan, ScaleStats, ShardConfig, ShardEngine, ShardOutput};
pub use trace::{ChromeTraceSink, RingTrace, TraceEvent, TraceSink};
pub use txprog::{ThreadProgram, TxAttempt, TxBuilder, TxOp, WorkItem, Workload};
pub use value::GlobalMemory;
