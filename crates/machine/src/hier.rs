//! Per-core private cache hierarchy: L1 with speculative metadata, plus
//! timing-only L2/L3 tag arrays, plus the retained-metadata side table —
//! and, above the per-core level, the *hierarchical fabric* model: clusters
//! of cores forming per-cluster snoop domains joined by an inter-cluster
//! directory (DESIGN.md §15).
//!
//! The paper's machine is a flat 8-core snoop domain; probes broadcast to
//! every other core. Scaling to hundreds of cores that way makes every
//! probe O(total cores). The hierarchical model keeps probes O(cluster
//! sharers): each cluster of 8–16 cores snoops internally exactly as
//! before, while cross-cluster traffic is routed by
//! [`InterClusterDirectory`] — a conservative sharer map in the style of
//! AMD's HT Assist probe filter, lifted one level up — which charges its
//! own lookup/hop latencies ([`DirLatency`]) to a fabric-occupancy budget.

use asf_core::spec::SpecState;
use asf_mem::addr::LineAddr;
use asf_mem::cache::CacheArray;
use asf_mem::config::MachineConfig;
use asf_mem::intern::LineId;
use asf_mem::latency::AccessLevel;
use asf_mem::moesi::MoesiState;
use asf_mem::fxhash::FxHashMap;

/// L1 per-line metadata: coherence state + speculative record.
#[derive(Clone, Copy, Debug, Default)]
pub struct LineMeta {
    /// MOESI coherence state.
    pub moesi: MoesiState,
    /// Speculative access record of the local running transaction (empty
    /// when the core is not in a transaction).
    pub spec: SpecState,
}

/// A line whose residency on a core may have ended during speculative
/// teardown: `(id, left_caches)`. `left_caches` means the teardown removed
/// the line from every cache level, so only the retained table can still
/// hold it; otherwise a surviving L2/L3 copy must be checked for too.
pub type DroppedLine = (LineId, bool);

/// One core's private hierarchy, every part keyed by the machine's
/// interned line id.
#[derive(Debug)]
pub struct CoreCaches {
    /// L1 data cache with speculative metadata.
    pub l1: CacheArray<LineMeta>,
    /// Timing-only L2 tag array.
    pub l2: CacheArray<()>,
    /// Timing-only L3 tag array.
    pub l3: CacheArray<()>,
    /// Speculative metadata of lines invalidated by non-conflicting remote
    /// writes (false WAR survivals): the paper keeps it "inside the
    /// invalidated cache line"; we keep it beside the cache. Checked by
    /// every incoming probe and folded back on refetch.
    pub retained: FxHashMap<LineId, SpecState>,
    /// Lines currently carrying speculative state (live or retained) —
    /// cleared in O(set size) at commit/abort instead of scanning the L1.
    pub spec_lines: Vec<LineId>,
}

impl CoreCaches {
    /// Build an empty hierarchy per the machine configuration.
    pub fn new(cfg: &MachineConfig) -> CoreCaches {
        CoreCaches {
            l1: CacheArray::new(cfg.l1),
            l2: CacheArray::new(cfg.l2),
            l3: CacheArray::new(cfg.l3),
            retained: FxHashMap::default(),
            spec_lines: Vec::new(),
        }
    }

    /// The core's speculative `(read, write)` byte masks for the line: its
    /// live L1 record ORed with its retained entry. This union is the
    /// state every remote conflict check reads; dirty bits are left out,
    /// as they are local-only.
    #[inline]
    pub fn spec_masks(&self, lid: LineId) -> (u64, u64) {
        let (mut r, mut w) = self
            .l1
            .peek(lid)
            .map_or((0, 0), |m| (m.spec.read_mask.0, m.spec.write_mask.0));
        if !self.retained.is_empty() {
            if let Some(ret) = self.retained.get(&lid) {
                r |= ret.read_mask.0;
                w |= ret.write_mask.0;
            }
        }
        (r, w)
    }

    /// Record that the line now carries speculative state.
    ///
    /// The caller must guarantee the line is not already tracked — the
    /// machine pushes exactly once, on a line's empty→speculative
    /// transition, so this is a plain O(1) push (the old membership scan
    /// made large write sets quadratic). `debug_assert` keeps the contract
    /// honest in debug builds.
    #[inline]
    pub fn note_spec_line(&mut self, lid: LineId) {
        debug_assert!(!self.spec_lines.contains(&lid), "spec line {lid} noted twice");
        self.spec_lines.push(lid);
    }

    /// Where would a fill for the line be satisfied locally (L2/L3), if at
    /// all? (L1 was already checked and missed; remote supply is decided by
    /// the fabric.)
    pub fn local_fill_level(&self, lid: LineId) -> Option<AccessLevel> {
        if self.l2.contains(lid) {
            Some(AccessLevel::L2)
        } else if self.l3.contains(lid) {
            Some(AccessLevel::L3)
        } else {
            None
        }
    }

    /// Does this core hold the line anywhere — any cache level or the
    /// retained-metadata table? This is the ground truth the machine's
    /// residency index mirrors.
    #[inline]
    pub fn holds(&self, lid: LineId) -> bool {
        self.l1.contains(lid)
            || self.l2.contains(lid)
            || self.l3.contains(lid)
            || self.retained.contains_key(&lid)
    }

    /// Install the line into L2 and L3 on a fill from below (timing model
    /// only). Evictions there are reported by line id so the machine's
    /// residency index can drop cores that no longer hold the evicted
    /// lines anywhere.
    pub fn fill_outer(&mut self, lid: LineId, line: LineAddr) -> (Option<LineId>, Option<LineId>) {
        let e2 = self
            .l2
            .insert(lid, line, (), |_| false)
            .expect("unpinned L2 insert cannot fail")
            .map(|e| e.lid);
        let e3 = self
            .l3
            .insert(lid, line, (), |_| false)
            .expect("unpinned L3 insert cannot fail")
            .map(|e| e.lid);
        (e2, e3)
    }

    /// Invalidate every level's copy of the line (remote write probe).
    pub fn invalidate_all_levels(&mut self, lid: LineId) -> Option<LineMeta> {
        let m = self.l1.remove(lid);
        self.l2.remove(lid);
        self.l3.remove(lid);
        m
    }

    /// Self-consistency check of all three levels
    /// ([`CacheArray::check`]).
    pub fn check(&self) -> Result<(), String> {
        self.l1.check().map_err(|e| format!("L1: {e}"))?;
        self.l2.check().map_err(|e| format!("L2: {e}"))?;
        self.l3.check().map_err(|e| format!("L3: {e}"))
    }

    /// Clear one line's speculative state: the live L1 record and any
    /// retained entry. Teardown is driven line-by-line from the tracked
    /// spec-line list so the machine can retire its spec-directory bit in
    /// the same walk; the retained table is drained per-line (never
    /// `clear()`ed), which keeps its capacity pooled across attempts.
    ///
    /// `invalidate_written` — on abort, a line the transaction
    /// speculatively wrote is discarded from every level (its hardware data
    /// would be the speculative values); on commit it stays. If the line's
    /// residency on this core may have *ended* — discarded, or a dropped
    /// retained entry — it is pushed onto `dropped` so the machine can
    /// update its residency index.
    #[inline]
    pub fn clear_spec_line(
        &mut self,
        lid: LineId,
        invalidate_written: bool,
        dropped: &mut Vec<DroppedLine>,
    ) {
        let had_retained = self.retained.remove(&lid).is_some();
        let mut left_caches = false;
        if let Some(meta) = self.l1.peek_mut(lid) {
            let wrote = meta.spec.write_mask.any();
            meta.spec.gang_clear();
            if invalidate_written && wrote {
                self.invalidate_all_levels(lid);
                left_caches = true;
            }
        }
        if had_retained || left_caches {
            dropped.push((lid, left_caches));
        }
    }
}

// ----------------------------------------------------------------------
// Hierarchical fabric: cluster topology + inter-cluster directory
// ----------------------------------------------------------------------

/// How the huge-tier machine's cores are grouped into snoop domains.
///
/// Cores `[c * cores_per_cluster, (c+1) * cores_per_cluster)` form cluster
/// `c`. Each cluster is one flat snoop domain (one
/// [`crate::machine::Machine`] in the shard-parallel engine); only the
/// directory sees all clusters.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ClusterTopology {
    /// Number of clusters (1..=64 — the directory sharer map is a `u64`
    /// bitmask).
    pub clusters: usize,
    /// Cores per cluster (1..=64 — each cluster reuses the flat machine's
    /// 64-core index structures).
    pub cores_per_cluster: usize,
}

impl ClusterTopology {
    /// Define a topology, validating both dimensions.
    pub fn new(clusters: usize, cores_per_cluster: usize) -> ClusterTopology {
        assert!(
            (1..=64).contains(&clusters),
            "cluster count {clusters} outside the directory's 1..=64 bitmask range"
        );
        assert!(
            (1..=64).contains(&cores_per_cluster),
            "cores-per-cluster {cores_per_cluster} outside the snoop domain's 1..=64 range"
        );
        ClusterTopology { clusters, cores_per_cluster }
    }

    /// Topology for `total` simulated cores: clusters of 16 (the upper end
    /// of the per-cluster snoop-domain size), or one cluster when `total`
    /// fits in a single flat domain.
    pub fn for_cores(total: usize) -> ClusterTopology {
        if total <= 16 {
            ClusterTopology::new(1, total)
        } else {
            assert!(
                total.is_multiple_of(16),
                "huge-tier core count {total} must be a multiple of the cluster size 16"
            );
            ClusterTopology::new(total / 16, 16)
        }
    }

    /// Total simulated cores.
    pub fn total_cores(&self) -> usize {
        self.clusters * self.cores_per_cluster
    }

    /// Cluster of a global core id.
    #[inline]
    pub fn cluster_of(&self, global_core: usize) -> usize {
        global_core / self.cores_per_cluster
    }

    /// First global core id of a cluster.
    #[inline]
    pub fn base_core(&self, cluster: usize) -> usize {
        cluster * self.cores_per_cluster
    }
}

/// Latency model of the inter-cluster directory, in cycles.
///
/// Cross-cluster traffic does not stall the requesting core in the
/// epoch-parallel model (delivery is deferred to the epoch barrier, which
/// already coarsens timing to the epoch length); instead the directory
/// accumulates the cycles its lookups and probe hops *would* occupy on the
/// fabric, reported as the scaling experiment's directory-occupancy column.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DirLatency {
    /// One directory lookup (committed-line footprint check).
    pub lookup: u64,
    /// One routed probe hop to a sharing cluster.
    pub probe_hop: u64,
}

impl DirLatency {
    /// HT-Assist-flavoured defaults: a lookup costs about a local memory
    /// access, a routed cross-cluster hop about a remote-cache transfer.
    pub fn opteron_like() -> DirLatency {
        DirLatency { lookup: 60, probe_hop: 120 }
    }
}

/// The inter-cluster sharer directory.
///
/// Maps each line to the set of clusters that may hold speculative state
/// for it (a `u64` bitmask). *Conservative*, like the HT-Assist probe
/// filter it scales up from: clusters are added when any of their cores
/// first takes speculative state on the line and never removed — commit
/// and abort teardown are cluster-local silent events the directory does
/// not observe. Over-approximation only routes extra probes (counted, and
/// answered "no conflict"); it can never miss a cluster whose speculative
/// state matters, which is the soundness half the determinism fence pins.
///
/// Lines are keyed once, at [`note`](Self::note), which hands back a
/// dense *directory id*; [`route`](Self::route) takes that id, so routing
/// a committed line is an array load, not a hash probe.
#[derive(Debug, Default)]
pub struct InterClusterDirectory {
    /// Directory id of every noted line.
    ids: FxHashMap<LineAddr, u32>,
    /// Sharer-cluster bitmask, indexed by directory id.
    sharers: Vec<u64>,
    /// Directory lookups served (one per committed-line footprint).
    pub lookups: u64,
    /// Cross-cluster probes routed to sharing clusters.
    pub probes_routed: u64,
    /// Modeled fabric occupancy: lookup + hop cycles accumulated.
    pub latency_cycles: u64,
}

impl InterClusterDirectory {
    /// An empty directory.
    pub fn new() -> InterClusterDirectory {
        InterClusterDirectory::default()
    }

    /// Note that `cluster` now holds speculative state for `line`, and
    /// return the line's directory id: assigned densely on the line's
    /// first note, the same for every later one.
    #[inline]
    pub fn note(&mut self, line: LineAddr, cluster: usize) -> u32 {
        let next = self.sharers.len() as u32;
        let id = *self.ids.entry(line).or_insert(next);
        if id == next {
            self.sharers.push(0);
        }
        self.sharers[id as usize] |= 1u64 << cluster;
        id
    }

    /// Route one committed-write footprint for the line with directory id
    /// `id` from `from_cluster`: returns the bitmask of *other* clusters
    /// that may hold speculative state for the line, charging the lookup
    /// and one hop per routed target to the occupancy budget.
    #[inline]
    pub fn route(&mut self, id: u32, from_cluster: usize, lat: DirLatency) -> u64 {
        self.lookups += 1;
        self.latency_cycles += lat.lookup;
        let targets = self.sharers[id as usize] & !(1u64 << from_cluster);
        let hops = targets.count_ones() as u64;
        self.probes_routed += hops;
        self.latency_cycles += lat.probe_hop * hops;
        targets
    }

    /// Lines with at least one recorded sharer.
    pub fn lines(&self) -> usize {
        self.sharers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asf_mem::addr::Addr;
    use asf_mem::mask::AccessMask;

    fn line(n: u64) -> LineAddr {
        Addr(n * 64).line()
    }

    /// Line `n`'s id: the tests intern line `n` as id `n`.
    fn id(n: u64) -> LineId {
        n as LineId
    }

    fn caches() -> CoreCaches {
        CoreCaches::new(&MachineConfig::tiny_l1(1))
    }

    /// Tear down every tracked spec line, as the machine's commit/abort
    /// walk does.
    fn clear_spec(c: &mut CoreCaches, invalidate_written: bool, dropped: &mut Vec<DroppedLine>) {
        for lid in std::mem::take(&mut c.spec_lines) {
            c.clear_spec_line(lid, invalidate_written, dropped);
        }
        assert!(c.retained.is_empty(), "retained entries must all be tracked spec lines");
    }

    #[test]
    fn fill_levels() {
        let mut c = caches();
        assert_eq!(c.local_fill_level(id(1)), None);
        c.fill_outer(id(1), line(1));
        assert_eq!(c.local_fill_level(id(1)), Some(AccessLevel::L2));
        c.l2.remove(id(1));
        assert_eq!(c.local_fill_level(id(1)), Some(AccessLevel::L3));
    }

    #[test]
    fn invalidate_all_levels_removes_everywhere() {
        let mut c = caches();
        c.fill_outer(id(2), line(2));
        c.l1.insert(id(2), line(2), LineMeta::default(), |_| false).unwrap();
        let m = c.invalidate_all_levels(id(2));
        assert!(m.is_some());
        assert!(!c.holds(id(2)));
        c.check().unwrap();
    }

    #[test]
    fn clear_spec_on_commit_keeps_written_lines() {
        let mut c = caches();
        let mut meta = LineMeta::default();
        meta.spec.mark_write(AccessMask::from_range(0, 8));
        meta.moesi = MoesiState::Modified;
        c.l1.insert(id(3), line(3), meta, |_| false).unwrap();
        c.note_spec_line(id(3));
        clear_spec(&mut c, false, &mut Vec::new()); // commit
        let m = c.l1.peek(id(3)).unwrap();
        assert!(m.spec.is_empty());
        assert!(c.l1.contains(id(3)));
    }

    #[test]
    fn clear_spec_on_abort_drops_written_lines() {
        let mut c = caches();
        let mut wmeta = LineMeta::default();
        wmeta.spec.mark_write(AccessMask::from_range(0, 8));
        c.l1.insert(id(3), line(3), wmeta, |_| false).unwrap();
        c.note_spec_line(id(3));
        let mut rmeta = LineMeta::default();
        rmeta.spec.mark_read(AccessMask::from_range(0, 8));
        c.l1.insert(id(5), line(5), rmeta, |_| false).unwrap();
        c.note_spec_line(id(5));
        // Retained entries are tracked spec lines too (machine invariant).
        c.retained.insert(id(7), SpecState::EMPTY);
        c.note_spec_line(id(7));
        let mut dropped = Vec::new();
        clear_spec(&mut c, true, &mut dropped); // abort
        assert!(!c.l1.contains(id(3)), "spec-written line invalidated");
        assert!(c.l1.contains(id(5)), "spec-read line survives");
        assert!(c.l1.peek(id(5)).unwrap().spec.is_empty());
        assert!(c.retained.is_empty());
        // Both the discarded write line and the dropped retained entry are
        // reported as residency-change candidates, ids attached.
        assert!(dropped.contains(&(id(3), true)) && dropped.contains(&(id(7), false)));
    }

    #[test]
    fn holds_sees_every_level_and_retained() {
        let mut c = caches();
        assert!(!c.holds(id(9)));
        c.fill_outer(id(9), line(9));
        assert!(c.holds(id(9)), "L2/L3 residency counts");
        c.l2.remove(id(9));
        c.l3.remove(id(9));
        assert!(!c.holds(id(9)));
        c.retained.insert(id(9), SpecState::EMPTY);
        assert!(c.holds(id(9)), "retained metadata counts");
    }

    #[test]
    fn fill_outer_reports_evictions() {
        let mut c = caches();
        // tiny_l1 outer levels are still finite: fill until something falls
        // out and check the eviction is surfaced, not silent.
        let mut evicted = None;
        for n in 0..4096 {
            let (e2, e3) = c.fill_outer(id(n), line(n));
            if e2.is_some() || e3.is_some() {
                evicted = e2.or(e3);
                break;
            }
        }
        let ev = evicted.expect("outer levels must evict eventually");
        assert!(!c.l2.contains(ev) || !c.l3.contains(ev));
        c.check().unwrap();
    }

    #[test]
    fn clear_spec_line_drains_retained_per_line() {
        let mut c = caches();
        c.retained.insert(id(4), SpecState::EMPTY);
        let mut dropped = Vec::new();
        c.clear_spec_line(id(4), true, &mut dropped);
        assert!(c.retained.is_empty());
        assert_eq!(dropped, vec![(id(4), false)]);
        // A line with no state anywhere is a no-op.
        c.clear_spec_line(id(6), true, &mut dropped);
        assert_eq!(dropped.len(), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "noted twice")]
    fn note_spec_line_rejects_duplicates() {
        let mut c = caches();
        c.note_spec_line(id(1));
        c.note_spec_line(id(1));
    }

    #[test]
    fn cluster_topology_maps_cores() {
        let t = ClusterTopology::new(4, 16);
        assert_eq!(t.total_cores(), 64);
        assert_eq!(t.cluster_of(0), 0);
        assert_eq!(t.cluster_of(15), 0);
        assert_eq!(t.cluster_of(16), 1);
        assert_eq!(t.cluster_of(63), 3);
        assert_eq!(t.base_core(2), 32);
        assert_eq!(ClusterTopology::for_cores(8), ClusterTopology::new(1, 8));
        assert_eq!(ClusterTopology::for_cores(256), ClusterTopology::new(16, 16));
    }

    #[test]
    #[should_panic(expected = "multiple of the cluster size")]
    fn odd_huge_core_counts_rejected() {
        ClusterTopology::for_cores(100);
    }

    #[test]
    fn directory_routes_to_other_sharers_only() {
        let lat = DirLatency { lookup: 10, probe_hop: 100 };
        let mut d = InterClusterDirectory::new();
        // A line only its own cluster shares: lookup charged, nothing routed.
        let solo = d.note(line(9), 3);
        assert_eq!(d.route(solo, 3, lat), 0);
        assert_eq!((d.lookups, d.probes_routed, d.latency_cycles), (1, 0, 10));
        let id = d.note(line(1), 0);
        d.note(line(1), 2);
        d.note(line(1), 5);
        assert_eq!(d.lines(), 2);
        // From cluster 0: clusters 2 and 5 are targets, never the origin.
        assert_eq!(d.route(id, 0, lat), (1 << 2) | (1 << 5));
        assert_eq!((d.lookups, d.probes_routed, d.latency_cycles), (2, 2, 220));
        // Conservative: sharers are never dropped.
        assert_eq!(d.route(id, 2, lat), 1 | (1 << 5));
    }

    #[test]
    fn directory_ids_are_dense_and_stable() {
        let mut d = InterClusterDirectory::new();
        let ids: Vec<u32> = [4, 7, 4, 1, 7].iter().map(|&n| d.note(line(n), 0)).collect();
        // First sight assigns the next id; a repeated line keeps its own.
        assert_eq!(ids, vec![0, 1, 0, 2, 1]);
        assert_eq!(d.lines(), 3);
        // A note from another cluster adds a sharer, not an id.
        assert_eq!(d.note(line(7), 6), 1);
        assert_eq!(d.lines(), 3);
    }

    #[test]
    fn repeated_notes_are_idempotent() {
        let lat = DirLatency::opteron_like();
        let mut once = InterClusterDirectory::new();
        let mut twice = InterClusterDirectory::new();
        for c in [1, 4] {
            once.note(line(2), c);
            twice.note(line(2), c);
            twice.note(line(2), c);
        }
        assert_eq!(once.lines(), twice.lines());
        for from in 0..6 {
            assert_eq!(once.route(0, from, lat), twice.route(0, from, lat));
        }
    }

    #[test]
    fn route_by_id_is_the_sharer_set_minus_the_sender() {
        let lat = DirLatency::opteron_like();
        let mut rng = asf_mem::rng::SimRng::seed_from_u64(0xD1);
        let mut d = InterClusterDirectory::new();
        // Reference model: a plain sharer set per line.
        let mut truth = std::collections::HashMap::<u64, u64>::new();
        let mut id_of = std::collections::HashMap::<u64, u32>::new();
        for _ in 0..500 {
            let (n, c) = (rng.below(40), rng.below(16) as usize);
            let id = d.note(line(n), c);
            assert_eq!(*id_of.entry(n).or_insert(id), id, "line {n} changed id");
            *truth.entry(n).or_insert(0) |= 1 << c;
        }
        assert_eq!(d.lines(), truth.len());
        for (&n, &set) in &truth {
            for from in 0..16 {
                assert_eq!(d.route(id_of[&n], from, lat), set & !(1u64 << from));
            }
        }
    }
}
