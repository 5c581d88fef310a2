//! Generic set-associative tag array with true-LRU replacement.
//!
//! The array stores one metadata value of type `M` per resident line. The
//! HTM layers above decide what `M` is (MOESI state + speculative bits for
//! L1; plain MOESI for L2/L3). Victim selection can *pin* lines — ASF pins
//! speculatively-accessed lines in L1, and an insertion that would have to
//! evict a pinned line fails, which the machine turns into a capacity abort.
//!
//! Storage is struct-of-arrays in pages: each page holds the `tags`, `lru`
//! and `meta` of `PAGE_SETS` sets' ways as three flat slices, and a
//! per-set `u32` block number (0 = the set was never touched) says which
//! page slot a set owns. Construction allocates only the zeroed block
//! table (8 KB for the paper machine's 2 MB, 2048-set L3). A set gets the
//! next free block on its first insertion, and the array allocates a new
//! page when the last one is full, so workloads, which touch a small
//! fraction of the sets, pay only for what they touch: three allocations
//! per `PAGE_SETS` sets and no copying. (Flat vectors grown by doubling
//! made each machine's pages fault in afresh: 23k minor faults over five
//! paper-grid passes against 1.5k with pages.) A free way holds the
//! `EMPTY` tag, which no line address can produce, so a probe is one scan
//! over `ways` adjacent `u64` tags. Set count and tag shift are cached at
//! construction; the per-access path does no division.

use crate::addr::LineAddr;
use crate::geometry::CacheGeometry;

/// Tag of a free way. Real tags are line addresses shifted right by the set
/// bits, so they never reach `u64::MAX`.
const EMPTY: u64 = u64::MAX;

/// Result of a lookup.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LookupResult {
    /// Line is resident.
    Hit,
    /// Line is not resident.
    Miss,
}

/// Information about a line evicted to make room for an insertion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EvictionInfo<M> {
    /// Address of the evicted line.
    pub line: LineAddr,
    /// Its metadata at eviction time.
    pub meta: M,
}

/// Error returned when every way of the target set is pinned.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SetFull;

/// Sets per storage page: a page holds the ways of this many sets and is
/// allocated whole when the first of them is touched.
const PAGE_SETS: usize = 32;

/// One page of way storage, struct-of-arrays.
#[derive(Clone, Debug)]
struct Page<M> {
    /// Way tags; `EMPTY` marks a free way.
    tags: Box<[u64]>,
    /// Monotone last-touch stamps; the smallest in a set is the LRU way.
    lru: Box<[u64]>,
    /// Per-way metadata (`M::default()` in free ways).
    meta: Box<[M]>,
}

impl<M: Default> Page<M> {
    fn new(ways: usize) -> Page<M> {
        let n = PAGE_SETS * ways;
        Page {
            tags: vec![EMPTY; n].into_boxed_slice(),
            lru: vec![0; n].into_boxed_slice(),
            meta: (0..n).map(|_| M::default()).collect(),
        }
    }
}

/// A set-associative cache tag array with per-line metadata `M`.
///
/// `M: Default` fills the metadata slots of free ways.
#[derive(Clone, Debug)]
pub struct CacheArray<M> {
    geom: CacheGeometry,
    /// Per-set block number: 0 until the set's first insertion, then `b`,
    /// whose ways are block `(b - 1) % PAGE_SETS` of page
    /// `(b - 1) / PAGE_SETS`.
    block: Vec<u32>,
    /// Set index owning each block (line-address reconstruction for the
    /// eviction path and the whole-array walks).
    owner: Vec<u32>,
    /// Way storage, one page per `PAGE_SETS` touched sets.
    pages: Vec<Page<M>>,
    /// Ways per set, cached out of `geom`.
    ways: usize,
    /// `log2(sets)`, cached for line-address reconstruction.
    sets_bits: u32,
    clock: u64,
    /// Lines newly filled (re-insertions of a resident line excluded).
    fills: u64,
    /// Lines evicted by replacement (explicit `remove` excluded).
    evictions: u64,
}

impl<M: Default> CacheArray<M> {
    /// Create an empty array with the given geometry. Allocates only the
    /// zeroed block table; way storage arrives a page at a time.
    pub fn new(geom: CacheGeometry) -> Self {
        let sets = geom.sets();
        assert!(
            u32::try_from(sets).is_ok(),
            "set count {sets} exceeds the u32 block table"
        );
        CacheArray {
            geom,
            block: vec![0; sets],
            owner: Vec::new(),
            pages: Vec::new(),
            ways: geom.ways,
            sets_bits: sets.trailing_zeros(),
            clock: 0,
            fills: 0,
            evictions: 0,
        }
    }

    /// The geometry this array was built with.
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    /// Lines newly filled over the array's lifetime (passive counter for
    /// the observability layer; re-insertions of resident lines excluded).
    pub fn fills(&self) -> u64 {
        self.fills
    }

    /// Lines evicted by LRU replacement over the array's lifetime (passive
    /// counter for the observability layer; explicit removals excluded).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Split a line address into (set index, tag) using the cached shift —
    /// same math as `CacheGeometry::{set_of, tag_of}` minus their per-call
    /// set-count division.
    #[inline]
    fn slot(&self, line: LineAddr) -> (usize, u64) {
        let set = (line.0 as usize) & ((1usize << self.sets_bits) - 1);
        (set, line.0 >> self.sets_bits)
    }

    /// `(page, first way index in the page)` of block number `b`.
    #[inline]
    fn block_at(&self, b: usize) -> (usize, usize) {
        ((b - 1) / PAGE_SETS, (b - 1) % PAGE_SETS * self.ways)
    }

    /// `(page, way index)` of the way holding `line`, if resident.
    #[inline]
    fn find(&self, line: LineAddr) -> Option<(usize, usize)> {
        let (set, tag) = self.slot(line);
        let b = self.block[set] as usize;
        if b == 0 {
            return None;
        }
        let (p, base) = self.block_at(b);
        self.pages[p].tags[base..base + self.ways]
            .iter()
            .position(|&t| t == tag)
            .map(|w| (p, base + w))
    }

    /// Line address of the resident way `i` of page `p`.
    #[inline]
    fn line_at(&self, p: usize, i: usize) -> LineAddr {
        let set = self.owner[p * PAGE_SETS + i / self.ways] as u64;
        LineAddr((self.pages[p].tags[i] << self.sets_bits) | set)
    }

    /// `(page, first way index)` of `set`'s block, handing the set the next
    /// free block (and the array a new page when the last one is full) on
    /// its first insertion.
    #[inline]
    fn block_of(&mut self, set: usize) -> (usize, usize) {
        let mut b = self.block[set] as usize;
        if b == 0 {
            if self.owner.len().is_multiple_of(PAGE_SETS) {
                self.pages.push(Page::new(self.ways));
            }
            self.owner.push(set as u32);
            b = self.owner.len();
            self.block[set] = u32::try_from(b).expect("block count fits the u32 table");
        }
        self.block_at(b)
    }

    /// Is the line resident?
    #[inline]
    pub fn contains(&self, line: LineAddr) -> bool {
        self.find(line).is_some()
    }

    /// Borrow the metadata of a resident line without touching LRU state.
    #[inline]
    pub fn peek(&self, line: LineAddr) -> Option<&M> {
        self.find(line).map(|(p, i)| &self.pages[p].meta[i])
    }

    /// Mutably borrow the metadata of a resident line without touching LRU.
    #[inline]
    pub fn peek_mut(&mut self, line: LineAddr) -> Option<&mut M> {
        self.find(line).map(|(p, i)| &mut self.pages[p].meta[i])
    }

    /// Borrow the metadata of a resident line and mark it most-recently-used.
    #[inline]
    pub fn get(&mut self, line: LineAddr) -> Option<&mut M> {
        self.clock += 1;
        let (p, i) = self.find(line)?;
        let page = &mut self.pages[p];
        page.lru[i] = self.clock;
        Some(&mut page.meta[i])
    }

    /// Insert `line` with metadata `meta`, evicting the LRU non-pinned way if
    /// the set is full. `is_pinned` marks metadata that must not be evicted.
    ///
    /// Returns the evicted line (if any). Fails with [`SetFull`] when the
    /// set has no free way and every resident way is pinned — the caller
    /// (the HTM machine) converts this into a capacity abort.
    ///
    /// If the line is already resident its metadata is replaced in place and
    /// no eviction occurs.
    pub fn insert(
        &mut self,
        line: LineAddr,
        meta: M,
        is_pinned: impl Fn(&M) -> bool,
    ) -> Result<Option<EvictionInfo<M>>, SetFull> {
        self.clock += 1;
        let clock = self.clock;
        let (set, tag) = self.slot(line);
        let (p, base) = self.block_of(set);
        let ways = base..base + self.ways;
        let page = &mut self.pages[p];

        // Replace in place on re-insertion; otherwise take the first free
        // way. One pass finds both.
        let mut slot = None;
        for (i, &t) in page.tags[ways.clone()].iter().enumerate() {
            if t == tag {
                slot = Some((base + i, false));
                break;
            }
            if t == EMPTY && slot.is_none() {
                slot = Some((base + i, true));
            }
        }
        if let Some((i, fill)) = slot {
            page.tags[i] = tag;
            page.meta[i] = meta;
            page.lru[i] = clock;
            self.fills += u64::from(fill);
            return Ok(None);
        }

        // Evict the first way with the minimal stamp among non-pinned ways.
        let mut victim = None;
        for i in ways {
            let older = victim.is_none_or(|v: usize| page.lru[i] < page.lru[v]);
            if older && !is_pinned(&page.meta[i]) {
                victim = Some(i);
            }
        }
        let i = victim.ok_or(SetFull)?;
        let evicted = self.line_at(p, i);
        let page = &mut self.pages[p];
        page.tags[i] = tag;
        page.lru[i] = clock;
        let old = std::mem::replace(&mut page.meta[i], meta);
        self.fills += 1;
        self.evictions += 1;
        Ok(Some(EvictionInfo {
            line: evicted,
            meta: old,
        }))
    }

    /// Remove a line, returning its metadata.
    pub fn remove(&mut self, line: LineAddr) -> Option<M> {
        let (p, i) = self.find(line)?;
        let page = &mut self.pages[p];
        page.tags[i] = EMPTY;
        Some(std::mem::take(&mut page.meta[i]))
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.pages
            .iter()
            .map(|pg| pg.tags.iter().filter(|&&t| t != EMPTY).count())
            .sum()
    }

    /// True when no line is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate over `(line, &meta)` for every resident line.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &M)> {
        self.pages.iter().enumerate().flat_map(move |(p, pg)| {
            (0..pg.tags.len())
                .filter(move |&i| pg.tags[i] != EMPTY)
                .map(move |i| (self.line_at(p, i), &pg.meta[i]))
        })
    }

    /// Iterate mutably over `(line, &mut meta)` for every resident line.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (LineAddr, &mut M)> {
        let (ways, sets_bits, owner) = (self.ways, self.sets_bits, &self.owner);
        self.pages.iter_mut().enumerate().flat_map(move |(p, pg)| {
            pg.tags
                .iter()
                .zip(pg.meta.iter_mut())
                .enumerate()
                .filter_map(move |(i, (&tag, m))| {
                    let set = owner[p * PAGE_SETS + i / ways] as u64;
                    (tag != EMPTY).then(|| (LineAddr((tag << sets_bits) | set), m))
                })
        })
    }

    /// Drop every line for which `pred` returns false.
    pub fn retain(&mut self, mut pred: impl FnMut(LineAddr, &mut M) -> bool) {
        for p in 0..self.pages.len() {
            for i in 0..self.pages[p].tags.len() {
                if self.pages[p].tags[i] != EMPTY {
                    let line = self.line_at(p, i);
                    let page = &mut self.pages[p];
                    if !pred(line, &mut page.meta[i]) {
                        page.tags[i] = EMPTY;
                        page.meta[i] = M::default();
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Addr;

    fn tiny() -> CacheArray<u32> {
        // 2 sets x 2 ways.
        CacheArray::new(CacheGeometry::new(2 * 2 * 64, 2))
    }

    fn line(n: u64) -> LineAddr {
        Addr(n * 64).line()
    }

    #[test]
    fn insert_and_lookup() {
        let mut c = tiny();
        assert!(c.insert(line(0), 10, |_| false).unwrap().is_none());
        assert_eq!(c.peek(line(0)), Some(&10));
        assert_eq!(c.peek(line(2)), None); // same set, different tag
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn reinsert_replaces_in_place() {
        let mut c = tiny();
        c.insert(line(0), 1, |_| false).unwrap();
        assert!(c.insert(line(0), 2, |_| false).unwrap().is_none());
        assert_eq!(c.peek(line(0)), Some(&2));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Lines 0, 2, 4 all map to set 0 (even line numbers, 2 sets).
        c.insert(line(0), 0, |_| false).unwrap();
        c.insert(line(2), 2, |_| false).unwrap();
        // Touch line 0 so line 2 becomes LRU.
        c.get(line(0));
        let ev = c.insert(line(4), 4, |_| false).unwrap().unwrap();
        assert_eq!(ev.line, line(2));
        assert_eq!(ev.meta, 2);
        assert!(c.contains(line(0)) && c.contains(line(4)));
    }

    #[test]
    fn pinned_lines_are_skipped() {
        let mut c = tiny();
        c.insert(line(0), 100, |_| false).unwrap(); // pinned (>=100)
        c.insert(line(2), 1, |_| false).unwrap();
        let ev = c.insert(line(4), 2, |m| *m >= 100).unwrap().unwrap();
        assert_eq!(ev.line, line(2)); // LRU would be line 0 but it is pinned
        assert!(c.contains(line(0)));
    }

    #[test]
    fn set_full_when_all_pinned() {
        let mut c = tiny();
        c.insert(line(0), 100, |_| false).unwrap();
        c.insert(line(2), 100, |_| false).unwrap();
        assert_eq!(c.insert(line(4), 1, |m| *m >= 100), Err(SetFull));
        // The set is untouched.
        assert!(c.contains(line(0)) && c.contains(line(2)));
    }

    #[test]
    fn remove_returns_meta() {
        let mut c = tiny();
        c.insert(line(1), 7, |_| false).unwrap();
        assert_eq!(c.remove(line(1)), Some(7));
        assert_eq!(c.remove(line(1)), None);
        assert!(c.is_empty());
    }

    #[test]
    fn iter_reconstructs_line_addresses() {
        let mut c = tiny();
        for n in [0u64, 1, 2, 3] {
            c.insert(line(n), n as u32, |_| false).unwrap();
        }
        let mut got: Vec<_> = c.iter().map(|(l, &m)| (l, m)).collect();
        got.sort();
        let want: Vec<_> = (0..4).map(|n| (line(n), n as u32)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn retain_drops_matching() {
        let mut c = tiny();
        for n in 0..4 {
            c.insert(line(n), n as u32, |_| false).unwrap();
        }
        c.retain(|_, m| *m % 2 == 0);
        assert_eq!(c.len(), 2);
        assert!(c.contains(line(0)) && c.contains(line(2)));
    }

    #[test]
    fn fill_and_eviction_counters() {
        let mut c = tiny();
        c.insert(line(0), 0, |_| false).unwrap();
        c.insert(line(2), 2, |_| false).unwrap();
        assert_eq!((c.fills(), c.evictions()), (2, 0));
        // Re-insertion is not a fill.
        c.insert(line(0), 1, |_| false).unwrap();
        assert_eq!((c.fills(), c.evictions()), (2, 0));
        // Replacement counts both a fill and an eviction.
        c.insert(line(4), 4, |_| false).unwrap().unwrap();
        assert_eq!((c.fills(), c.evictions()), (3, 1));
        // Explicit removal is not an eviction.
        c.remove(line(4));
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn flat_layout_keeps_sets_disjoint() {
        // Fill both sets completely and check no cross-set interference:
        // lines 0,2 → set 0; lines 1,3 → set 1 (2 sets).
        let mut c = tiny();
        for n in 0..4 {
            c.insert(line(n), n as u32, |_| false).unwrap();
        }
        assert_eq!(c.len(), 4);
        // Evicting in set 0 must not disturb set 1.
        c.insert(line(4), 40, |_| false).unwrap().unwrap();
        assert!(c.contains(line(1)) && c.contains(line(3)));
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn paper_l3_allocates_no_ways_until_first_insert() {
        // The paper machine's 2 MB 16-way L3.
        let mut c: CacheArray<()> = CacheArray::new(CacheGeometry::new(2 * 1024 * 1024, 16));
        assert_eq!(c.block.len(), 2048);
        assert!(c.block.iter().all(|&b| b == 0));
        assert_eq!(
            (c.pages.capacity(), c.owner.capacity()),
            (0, 0),
            "construction must not allocate way storage"
        );
        assert!(c.is_empty() && !c.contains(line(5)));
        c.insert(line(5), (), |_| false).unwrap();
        assert_eq!(
            (c.pages.len(), c.owner.len()),
            (1, 1),
            "one page, one block for the one touched set"
        );
        // A second line in the same set reuses the block; another set
        // takes the next block of the same page.
        c.insert(line(5 + 2048), (), |_| false).unwrap();
        c.insert(line(6), (), |_| false).unwrap();
        assert_eq!((c.pages.len(), c.owner.len()), (1, 2));
        assert_eq!(c.len(), 3);
    }
}
