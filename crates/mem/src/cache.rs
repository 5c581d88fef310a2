//! Set-associative cache level with true-LRU replacement, keyed by the
//! machine's interned [`LineId`].
//!
//! The array stores one metadata value of type `M` per resident line. The
//! HTM layers above decide what `M` is: MOESI state plus speculative bits
//! for the L1, and `()` for the timing-only L2/L3 tag arrays. Victim
//! selection can *pin* lines — ASF pins speculatively-accessed lines in L1,
//! and an insertion that would have to evict a pinned line fails, which the
//! machine turns into a capacity abort.
//!
//! Storage is line-major. A `loc` index maps each `LineId` to the slab slot
//! holding it (`NONE` = absent), so lookup, LRU touch and removal are one
//! index load with no tag scan. The slab holds only resident lines, and
//! freed slots are chained for reuse, so it is sized by the lines held,
//! not by the geometry. The set structure survives as one zero-initialised
//! `u32` per set: the head of an intrusive list of that set's residents
//! (stored as slot + 1). A fill walks that list to count the set's
//! residents — at most `ways` entries, in practice zero or one, since
//! workloads touch a small fraction of the sets — and, when the set is
//! full, to pick the victim.
//!
//! The victim is the least-recently-stamped resident that is not pinned.
//! The clock advances on every `insert` and `get`, so resident stamps are
//! unique and the choice never depends on list order.

use crate::addr::LineAddr;
use crate::geometry::CacheGeometry;
use crate::intern::LineId;

/// `loc` entry of a line that is not resident.
const NONE: u32 = u32::MAX;

/// A line evicted to make room for an insertion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EvictionInfo<M> {
    /// Interned id of the evicted line.
    pub lid: LineId,
    /// Address of the evicted line.
    pub line: LineAddr,
    /// Its metadata at eviction time.
    pub meta: M,
}

/// Error returned when every way of the target set is pinned.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SetFull;

/// One slab slot: a resident line, or a free slot (`lid == NONE`) on the
/// free chain.
#[derive(Clone, Debug)]
struct Slot<M> {
    lid: LineId,
    /// Next resident of the same set (or next free slot), as slot + 1;
    /// 0 ends the list.
    next: u32,
    /// Clock value of the last `insert` or `get`; the smallest in a set is
    /// the LRU line.
    stamp: u64,
    line: LineAddr,
    meta: M,
}

/// A set-associative cache level with per-line metadata `M`.
///
/// `M: Default` fills the metadata of freed slots.
#[derive(Clone, Debug)]
pub struct CacheArray<M> {
    /// `LineId` → slab slot, `NONE` when absent; grown on first insert.
    loc: Vec<u32>,
    /// Per set: head of the resident list, as slot + 1 (0 = empty set).
    head: Vec<u32>,
    slab: Vec<Slot<M>>,
    /// Head of the free-slot chain, as slot + 1 (0 = none).
    free: u32,
    /// `sets - 1`, cached for the set index.
    set_mask: usize,
    /// Ways per set.
    ways: usize,
    clock: u64,
    len: usize,
    /// Lines evicted by replacement (explicit `remove` excluded).
    evictions: u64,
}

impl<M: Default> CacheArray<M> {
    /// Create an empty array with the given geometry. Allocates only the
    /// zeroed per-set list heads.
    pub fn new(geom: CacheGeometry) -> Self {
        CacheArray {
            loc: Vec::new(),
            head: vec![0; geom.sets()],
            slab: Vec::new(),
            free: 0,
            set_mask: geom.sets() - 1,
            ways: geom.ways,
            clock: 0,
            len: 0,
            evictions: 0,
        }
    }

    /// Lines evicted by LRU replacement over the array's lifetime (passive
    /// counter for the observability layer; explicit removals excluded).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Slab slot of a resident line.
    #[inline]
    fn slot(&self, lid: LineId) -> Option<usize> {
        match self.loc.get(lid as usize) {
            Some(&s) if s != NONE => Some(s as usize),
            _ => None,
        }
    }

    /// Is the line resident?
    #[inline]
    pub fn contains(&self, lid: LineId) -> bool {
        self.slot(lid).is_some()
    }

    /// Borrow the metadata of a resident line without touching LRU state.
    #[inline]
    pub fn peek(&self, lid: LineId) -> Option<&M> {
        self.slot(lid).map(|s| &self.slab[s].meta)
    }

    /// Mutably borrow the metadata of a resident line without touching LRU.
    #[inline]
    pub fn peek_mut(&mut self, lid: LineId) -> Option<&mut M> {
        self.slot(lid).map(|s| &mut self.slab[s].meta)
    }

    /// Borrow the metadata of a resident line and mark it most-recently-used.
    #[inline]
    pub fn get(&mut self, lid: LineId) -> Option<&mut M> {
        self.clock += 1;
        let s = self.slot(lid)?;
        let slot = &mut self.slab[s];
        slot.stamp = self.clock;
        Some(&mut slot.meta)
    }

    /// Insert line `lid` (address `line`, which picks the set) with
    /// metadata `meta`, evicting the LRU non-pinned resident if the set is
    /// full. `is_pinned` marks metadata that must not be evicted.
    ///
    /// Returns the evicted line (if any). Fails with [`SetFull`] when the
    /// set is full and every resident is pinned — the caller (the HTM
    /// machine) converts this into a capacity abort.
    ///
    /// If the line is already resident its metadata is replaced in place and
    /// no eviction occurs.
    pub fn insert(
        &mut self,
        lid: LineId,
        line: LineAddr,
        meta: M,
        is_pinned: impl Fn(&M) -> bool,
    ) -> Result<Option<EvictionInfo<M>>, SetFull> {
        self.clock += 1;
        let stamp = self.clock;
        if let Some(s) = self.slot(lid) {
            let slot = &mut self.slab[s];
            slot.meta = meta;
            slot.stamp = stamp;
            return Ok(None);
        }
        let set = line.0 as usize & self.set_mask;
        let mut residents = 0;
        let mut cur = self.head[set];
        while cur != 0 {
            residents += 1;
            cur = self.slab[cur as usize - 1].next;
        }
        if residents < self.ways {
            let s = self.alloc(Slot {
                lid,
                next: self.head[set],
                stamp,
                line,
                meta,
            });
            self.head[set] = s + 1;
            self.set_loc(lid, s);
            self.len += 1;
            return Ok(None);
        }

        // Full set: the oldest unpinned resident makes room, its slot
        // taken over in place (the list links stay as they are).
        let mut victim: Option<usize> = None;
        let mut cur = self.head[set];
        while cur != 0 {
            let s = cur as usize - 1;
            let slot = &self.slab[s];
            let older = victim.is_none_or(|v| slot.stamp < self.slab[v].stamp);
            if older && !is_pinned(&slot.meta) {
                victim = Some(s);
            }
            cur = slot.next;
        }
        let s = victim.ok_or(SetFull)?;
        let slot = &mut self.slab[s];
        let old_lid = std::mem::replace(&mut slot.lid, lid);
        let old_line = std::mem::replace(&mut slot.line, line);
        let old_meta = std::mem::replace(&mut slot.meta, meta);
        slot.stamp = stamp;
        self.loc[old_lid as usize] = NONE;
        self.set_loc(lid, s as u32);
        self.evictions += 1;
        Ok(Some(EvictionInfo {
            lid: old_lid,
            line: old_line,
            meta: old_meta,
        }))
    }

    /// Place `slot` in a free slab slot, returning its index.
    #[inline]
    fn alloc(&mut self, slot: Slot<M>) -> u32 {
        if self.free == 0 {
            self.slab.push(slot);
            return self.slab.len() as u32 - 1;
        }
        let s = self.free - 1;
        self.free = self.slab[s as usize].next;
        self.slab[s as usize] = slot;
        s
    }

    #[inline]
    fn set_loc(&mut self, lid: LineId, s: u32) {
        let i = lid as usize;
        if i >= self.loc.len() {
            self.loc.resize(i + 1, NONE);
        }
        self.loc[i] = s;
    }

    /// Remove a line, returning its metadata.
    pub fn remove(&mut self, lid: LineId) -> Option<M> {
        let s = self.slot(lid)?;
        let target = s as u32 + 1;
        let next = self.slab[s].next;
        let set = self.slab[s].line.0 as usize & self.set_mask;
        if self.head[set] == target {
            self.head[set] = next;
        } else {
            let mut p = self.head[set] as usize - 1;
            while self.slab[p].next != target {
                p = self.slab[p].next as usize - 1;
            }
            self.slab[p].next = next;
        }
        self.loc[lid as usize] = NONE;
        let slot = &mut self.slab[s];
        slot.lid = NONE;
        slot.next = self.free;
        self.free = target;
        self.len -= 1;
        Some(std::mem::take(&mut slot.meta))
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no line is resident.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterate over `(line, &meta)` for every resident line.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &M)> {
        self.slab
            .iter()
            .filter(|s| s.lid != NONE)
            .map(|s| (s.line, &s.meta))
    }

    /// Self-consistency check: the index, the per-set lists, the free
    /// chain and the slab agree. Every resident slot sits on exactly one
    /// list — its own set's, which holds at most `ways` lines — and is
    /// indexed under its id; every free slot sits on the free chain and
    /// nowhere else. Returns a description of the first disagreement.
    pub fn check(&self) -> Result<(), String> {
        let mut seen = vec![false; self.slab.len()];
        let mut residents = 0;
        // Every set's list, then the free chain (`None`).
        let lists = self.head.iter().copied().map(Some).enumerate();
        for (set, first) in lists.chain([(usize::MAX, None)]) {
            let (mut cur, mut n) = (first.unwrap_or(self.free), 0);
            while cur != 0 {
                let i = cur as usize - 1;
                let slot = self
                    .slab
                    .get(i)
                    .ok_or_else(|| format!("link to slot {i} beyond the slab"))?;
                if std::mem::replace(&mut seen[i], true) {
                    return Err(format!("slot {i} sits on two lists"));
                }
                let placed = match first {
                    Some(_) => {
                        slot.line.0 as usize & self.set_mask == set
                            && slot.lid != NONE
                            && self.slot(slot.lid) == Some(i)
                    }
                    None => slot.lid == NONE,
                };
                if !placed {
                    let list = first.map_or("the free chain".into(), |_| format!("set {set}"));
                    return Err(format!(
                        "slot {i} (id {}, {:?}) misplaced on {list}",
                        slot.lid, slot.line
                    ));
                }
                n += 1;
                cur = slot.next;
            }
            if first.is_some() {
                if n > self.ways {
                    return Err(format!("set {set} holds {n} lines in {} ways", self.ways));
                }
                residents += n;
            }
        }
        if let Some(i) = seen.iter().position(|&s| !s) {
            return Err(format!("slot {i} sits on no list"));
        }
        let indexed = self.loc.iter().filter(|&&s| s != NONE).count();
        if (residents, indexed) != (self.len, self.len) {
            return Err(format!(
                "{residents} listed, {indexed} indexed, len {}",
                self.len
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheArray<u32> {
        // 2 sets x 2 ways.
        CacheArray::new(CacheGeometry::new(2 * 2 * 64, 2))
    }

    /// Line `n`, interned as id `n`.
    fn line(n: u32) -> (LineId, LineAddr) {
        (n, LineAddr(n as u64))
    }

    fn ins(c: &mut CacheArray<u32>, n: u32, m: u32) -> Option<EvictionInfo<u32>> {
        let (lid, l) = line(n);
        let ev = c.insert(lid, l, m, |&m| m >= 100).unwrap();
        c.check().unwrap();
        ev
    }

    #[test]
    fn insert_and_lookup() {
        let mut c = tiny();
        assert!(ins(&mut c, 0, 10).is_none());
        assert_eq!(c.peek(0), Some(&10));
        assert_eq!(c.peek(2), None); // same set, different line
        assert_eq!(c.peek(1 << 20), None); // beyond the index
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn reinsert_replaces_in_place() {
        let mut c = tiny();
        ins(&mut c, 0, 1);
        assert!(ins(&mut c, 0, 2).is_none());
        assert_eq!(c.peek(0), Some(&2));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Lines 0, 2, 4 all map to set 0 (even line numbers, 2 sets).
        ins(&mut c, 0, 0);
        ins(&mut c, 2, 2);
        // Touch line 0 so line 2 becomes LRU.
        c.get(0);
        let ev = ins(&mut c, 4, 4).unwrap();
        assert_eq!(
            ev,
            EvictionInfo {
                lid: 2,
                line: LineAddr(2),
                meta: 2
            }
        );
        assert!(c.contains(0) && c.contains(4) && !c.contains(2));
    }

    #[test]
    fn pinned_lines_are_skipped() {
        let mut c = tiny();
        ins(&mut c, 0, 100); // pinned (>= 100)
        ins(&mut c, 2, 1);
        let ev = ins(&mut c, 4, 2).unwrap();
        assert_eq!(ev.lid, 2); // LRU would be line 0 but it is pinned
        assert!(c.contains(0));
    }

    #[test]
    fn set_full_when_all_pinned() {
        let mut c = tiny();
        ins(&mut c, 0, 100);
        ins(&mut c, 2, 100);
        assert_eq!(c.insert(4, LineAddr(4), 1, |&m| m >= 100), Err(SetFull));
        // The set is untouched.
        assert!(c.contains(0) && c.contains(2) && !c.contains(4));
        c.check().unwrap();
    }

    #[test]
    fn remove_returns_meta_and_frees_the_slot() {
        let mut c = tiny();
        ins(&mut c, 1, 7);
        ins(&mut c, 3, 8);
        assert_eq!(c.remove(1), Some(7));
        assert_eq!(c.remove(1), None);
        c.check().unwrap();
        assert_eq!(c.remove(3), Some(8));
        assert!(c.is_empty());
        c.check().unwrap();
        // The freed slots are reused before the slab grows.
        ins(&mut c, 5, 9);
        ins(&mut c, 0, 10);
        assert_eq!(c.slab.len(), 2);
    }

    #[test]
    fn iter_yields_resident_lines() {
        let mut c = tiny();
        for n in 0..4 {
            ins(&mut c, n, n);
        }
        c.remove(1);
        let mut got: Vec<_> = c.iter().map(|(l, &m)| (l, m)).collect();
        got.sort();
        assert_eq!(
            got,
            vec![(LineAddr(0), 0), (LineAddr(2), 2), (LineAddr(3), 3)]
        );
    }

    #[test]
    fn eviction_counter() {
        let mut c = tiny();
        ins(&mut c, 0, 0);
        ins(&mut c, 2, 2);
        ins(&mut c, 0, 1); // re-insertion
        assert_eq!(c.evictions(), 0);
        ins(&mut c, 4, 4).unwrap();
        assert_eq!(c.evictions(), 1);
        // Explicit removal is not an eviction.
        c.remove(4);
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn sets_stay_disjoint() {
        // Lines 0,2 → set 0; lines 1,3 → set 1 (2 sets).
        let mut c = tiny();
        for n in 0..4 {
            ins(&mut c, n, n);
        }
        assert_eq!(c.len(), 4);
        // Evicting in set 0 must not disturb set 1.
        ins(&mut c, 4, 40).unwrap();
        assert!(c.contains(1) && c.contains(3));
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn paper_l3_allocates_only_set_heads() {
        // The paper machine's 2 MB 16-way L3.
        let mut c: CacheArray<()> = CacheArray::new(CacheGeometry::new(2 * 1024 * 1024, 16));
        assert_eq!(c.head.len(), 2048);
        assert_eq!(
            (c.slab.capacity(), c.loc.capacity()),
            (0, 0),
            "construction must not allocate line storage"
        );
        assert!(c.is_empty() && !c.contains(5));
        c.insert(5, LineAddr(5), (), |_| false).unwrap();
        // Two more lines, one in the same set: one slot per line held.
        c.insert(6, LineAddr(5 + 2048), (), |_| false).unwrap();
        c.insert(7, LineAddr(6), (), |_| false).unwrap();
        assert_eq!((c.slab.len(), c.loc.len()), (3, 8));
        assert_eq!(c.len(), 3);
        c.check().unwrap();
    }

    #[test]
    fn check_reports_a_corrupted_index() {
        let mut c = tiny();
        ins(&mut c, 0, 0);
        ins(&mut c, 2, 2);
        c.loc[0] = 1;
        assert!(c.check().is_err());
    }
}
