//! # asf-mem — memory-hierarchy substrate
//!
//! Foundation crate for the ASF sub-blocking reproduction. It provides the
//! pieces every other crate builds on:
//!
//! * [`addr`] — byte addresses, line addresses, core/transaction identifiers;
//! * [`mask`] — 64-bit intra-line byte masks ([`mask::AccessMask`]), the
//!   ground-truth representation from which every conflict-detection
//!   granularity (line, sub-block, byte) is derived;
//! * [`geometry`] — set-associative cache geometry (index/tag/offset math);
//! * [`cache`] — a set-associative cache level with true-LRU replacement,
//!   keyed by interned line id and parameterised over per-line metadata;
//! * [`moesi`] — the MOESI coherence state machine used by the snooping
//!   fabric;
//! * [`latency`] — the Table II latency model of the paper (AMD Opteron
//!   configuration);
//! * [`config`] — machine configuration ([`config::MachineConfig`]) with the
//!   paper's 8-core Opteron preset;
//! * [`rng`] — a deterministic, dependency-free PRNG (SplitMix64 seeding
//!   xoshiro256**) so simulation runs are reproducible bit-for-bit.
//!
//! Nothing in this crate knows about transactions; it is plain
//! memory-system machinery.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod cache;
pub mod config;
pub mod fxhash;
pub mod geometry;
pub mod intern;
pub mod latency;
pub mod mask;
pub mod moesi;
pub mod rng;

pub use addr::{Addr, CoreId, LineAddr};
pub use cache::{CacheArray, EvictionInfo};
pub use config::MachineConfig;
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use geometry::CacheGeometry;
pub use latency::{AccessLevel, LatencyModel};
pub use mask::AccessMask;
pub use moesi::{CoherenceKind, MoesiState};
pub use rng::SimRng;
