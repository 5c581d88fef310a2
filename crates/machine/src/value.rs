//! Committed value memory and speculative write sets (lazy versioning).
//!
//! The global memory holds **committed** bytes only. Each core buffers its
//! transaction's stores in a [`WriteSet`]; commit publishes them, abort
//! drops them. Because the simulator routes every read through
//! write-set-then-global, uncommitted data is never visible across cores —
//! matching ASF's lazy-versioning visibility rule (and documented in
//! DESIGN.md as the one deliberate simplification versus data-in-L1).

use asf_mem::addr::{Addr, LineAddr, LINE_SIZE};
use asf_mem::fxhash::FxHashMap;

/// Sparse committed byte memory, line-granular allocation, zero-initialised.
#[derive(Clone, Debug, Default)]
pub struct GlobalMemory {
    lines: FxHashMap<LineAddr, Box<[u8; LINE_SIZE]>>,
}

impl GlobalMemory {
    /// Fresh zeroed memory.
    pub fn new() -> GlobalMemory {
        GlobalMemory::default()
    }

    /// Read up to 8 little-endian bytes at `addr` (may straddle lines).
    pub fn read_u64(&self, addr: Addr, size: u32) -> u64 {
        assert!((1..=8).contains(&size), "valued reads are 1..=8 bytes");
        // Fast path: the access stays within one line — look it up once
        // instead of once per byte.
        let off = addr.offset();
        if off + size as usize <= LINE_SIZE {
            let Some(line) = self.lines.get(&addr.line()) else { return 0 };
            let mut out = 0u64;
            for i in 0..size as usize {
                out |= (line[off + i] as u64) << (8 * i);
            }
            return out;
        }
        let mut out = 0u64;
        for i in 0..size as u64 {
            let a = addr.offset_by(i);
            let byte = self
                .lines
                .get(&a.line())
                .map(|l| l[a.offset()])
                .unwrap_or(0);
            out |= (byte as u64) << (8 * i);
        }
        out
    }

    /// Write up to 8 little-endian bytes at `addr`.
    pub fn write_u64(&mut self, addr: Addr, size: u32, value: u64) {
        assert!((1..=8).contains(&size), "valued writes are 1..=8 bytes");
        // Fast path: one line, one map probe.
        let off = addr.offset();
        if off + size as usize <= LINE_SIZE {
            let line = self
                .lines
                .entry(addr.line())
                .or_insert_with(|| Box::new([0; LINE_SIZE]));
            for i in 0..size as usize {
                line[off + i] = (value >> (8 * i)) as u8;
            }
            return;
        }
        for i in 0..size as u64 {
            let a = addr.offset_by(i);
            let line = self
                .lines
                .entry(a.line())
                .or_insert_with(|| Box::new([0; LINE_SIZE]));
            line[a.offset()] = (value >> (8 * i)) as u8;
        }
    }

    /// Write one byte.
    pub fn write_byte(&mut self, addr: Addr, byte: u8) {
        let line = self
            .lines
            .entry(addr.line())
            .or_insert_with(|| Box::new([0; LINE_SIZE]));
        line[addr.offset()] = byte;
    }

    /// Write the bytes of `src` selected by `mask` (bit `i` ⇒ byte `i`)
    /// into `line` — one map probe per line instead of one per byte. The
    /// write-set publish path lives on this.
    pub fn write_masked_line(&mut self, line: LineAddr, mask: u64, src: &[u8; LINE_SIZE]) {
        if mask == 0 {
            return;
        }
        let dst = self
            .lines
            .entry(line)
            .or_insert_with(|| Box::new([0; LINE_SIZE]));
        let mut bits = mask;
        while bits != 0 {
            let i = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            dst[i] = src[i];
        }
    }

    /// Number of allocated (ever-written) lines.
    pub fn allocated_lines(&self) -> usize {
        self.lines.len()
    }
}

/// One line's buffered speculative bytes: a presence bitmask plus the byte
/// values, generation-tagged so abort/commit never walks the map.
#[derive(Clone, Debug)]
struct WsLine {
    /// Epoch stamp; the entry is live iff it matches the set's epoch.
    epoch: u64,
    /// Bit `i` set ⇒ byte `i` of the line is buffered.
    mask: u64,
    /// Buffered byte values (only masked positions are meaningful).
    bytes: [u8; LINE_SIZE],
}

/// A transaction's buffered stores: byte-granular, last-write-wins,
/// **line-packed**.
///
/// Storage is one map entry per touched *line* — a 64-bit presence mask
/// plus the byte values — so an 8-byte store is one hash probe and a word
/// OR instead of eight per-byte map entries, and the isolation oracle's
/// [`WriteSet::overlaps`] is one probe and an AND. Entries are
/// **generation-tagged**: a line is live iff its epoch stamp matches the
/// set's, so [`WriteSet::discard`] (abort) and the clear after
/// [`WriteSet::publish`] (commit) are O(1) — the backing map is pooled
/// across attempts instead of being torn down and re-grown. A side log of
/// the current epoch's distinct lines makes publish O(touched lines).
#[derive(Clone, Debug, Default)]
pub struct WriteSet {
    lines: FxHashMap<LineAddr, WsLine>,
    /// Distinct lines written in the current epoch, in first-write order.
    log: Vec<LineAddr>,
    epoch: u64,
    /// Distinct bytes buffered in the current epoch.
    live_bytes: usize,
}

/// One line-sized piece of an access: `(line, offset-in-line, len)`.
type Fragment = (LineAddr, usize, usize);

impl WriteSet {
    /// Is the write set empty?
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }

    /// Number of buffered bytes.
    pub fn len(&self) -> usize {
        self.live_bytes
    }

    /// Split `[addr, addr+size)` (size ≤ 8, so at most two lines) into a
    /// head fragment and an optional straddle tail, each `(line,
    /// offset-in-line, len)`. Returned as a pair — not an iterator — so the
    /// hot callers compile to a straight-line head path with a predictable
    /// rarely-taken tail branch.
    #[inline]
    fn fragments(addr: Addr, size: u32) -> (Fragment, Option<Fragment>) {
        let first = addr.line();
        let off = addr.offset();
        let head = (LINE_SIZE - off).min(size as usize);
        let tail = size as usize - head;
        (
            (first, off, head),
            (tail > 0).then(|| (LineAddr(first.0 + LINE_SIZE as u64), 0, tail)),
        )
    }

    /// Buffer one fragment's bytes (`value` already shifted so its low byte
    /// is the fragment's first byte).
    #[inline]
    fn buffer_fragment(&mut self, (line, off, len): (LineAddr, usize, usize), value: u64) {
        let slot = self.lines.entry(line).or_insert_with(|| WsLine {
            epoch: self.epoch.wrapping_sub(1),
            mask: 0,
            bytes: [0; LINE_SIZE],
        });
        if slot.epoch != self.epoch {
            slot.epoch = self.epoch;
            slot.mask = 0;
            self.log.push(line);
        }
        let frag_mask = (u64::MAX >> (64 - len)) << off;
        self.live_bytes += (frag_mask & !slot.mask).count_ones() as usize;
        slot.mask |= frag_mask;
        for i in 0..len {
            slot.bytes[off + i] = (value >> (8 * i)) as u8;
        }
    }

    /// Buffer a write of up to 8 little-endian bytes.
    pub fn write_u64(&mut self, addr: Addr, size: u32, value: u64) {
        assert!((1..=8).contains(&size));
        let (head, tail) = Self::fragments(addr, size);
        self.buffer_fragment(head, value);
        if let Some(frag) = tail {
            self.buffer_fragment(frag, value >> (8 * head.2));
        }
    }

    /// Overlay one fragment's buffered bytes onto `out` (little-endian view
    /// of the access), where the fragment's first byte is access byte
    /// `consumed`.
    #[inline]
    fn overlay_fragment(
        &self,
        (line, off, len): (LineAddr, usize, usize),
        consumed: usize,
        out: &mut u64,
    ) {
        if let Some(slot) = self.lines.get(&line) {
            if slot.epoch == self.epoch {
                for i in 0..len {
                    if slot.mask & (1 << (off + i)) != 0 {
                        let shift = 8 * (consumed + i);
                        *out = (*out & !(0xffu64 << shift))
                            | ((slot.bytes[off + i] as u64) << shift);
                    }
                }
            }
        }
    }

    /// Read up to 8 little-endian bytes, taking buffered bytes where present
    /// and falling back to `global` elsewhere (store-to-load forwarding).
    pub fn read_u64(&self, global: &GlobalMemory, addr: Addr, size: u32) -> u64 {
        assert!((1..=8).contains(&size));
        if self.log.is_empty() {
            return global.read_u64(addr, size);
        }
        // Read the committed bytes in one go, then overlay buffered bytes —
        // one map probe per line fragment.
        let mut out = global.read_u64(addr, size);
        let (head, tail) = Self::fragments(addr, size);
        self.overlay_fragment(head, 0, &mut out);
        if let Some(frag) = tail {
            self.overlay_fragment(frag, head.2, &mut out);
        }
        out
    }

    /// Does one fragment hit any buffered byte?
    #[inline]
    fn fragment_overlaps(&self, (line, off, len): (LineAddr, usize, usize)) -> bool {
        self.lines.get(&line).is_some_and(|slot| {
            slot.epoch == self.epoch && slot.mask & ((u64::MAX >> (64 - len)) << off) != 0
        })
    }

    /// Does the current attempt hold buffered bytes in `line`?
    pub fn holds_line(&self, line: LineAddr) -> bool {
        self.lines
            .get(&line)
            .is_some_and(|slot| slot.epoch == self.epoch && slot.mask != 0)
    }

    /// Does the buffered set overlap `[addr, addr+size)`?
    #[inline]
    pub fn overlaps(&self, addr: Addr, size: u32) -> bool {
        // The isolation oracle asks this for every remote core on every
        // transactional access; most write sets are empty, and a non-empty
        // one answers with one map probe and a mask AND per line fragment.
        if self.log.is_empty() {
            return false;
        }
        let (head, tail) = Self::fragments(addr, size);
        self.fragment_overlaps(head) || tail.is_some_and(|f| self.fragment_overlaps(f))
    }

    /// Publish all buffered bytes into `global` and clear (commit).
    ///
    /// Iterates the line log — logged lines are distinct and bytes within a
    /// line are written mask-selected in one pass, so the final memory image
    /// is identical regardless of iteration order.
    pub fn publish(&mut self, global: &mut GlobalMemory) {
        for &line in &self.log {
            let slot = &self.lines[&line];
            debug_assert_eq!(slot.epoch, self.epoch, "logged line must be current-epoch");
            global.write_masked_line(line, slot.mask, &slot.bytes);
        }
        self.discard();
    }

    /// Drop all buffered bytes (abort). O(1) logical clear: bumps the epoch
    /// and truncates the log; the line map keeps its capacity for reuse.
    pub fn discard(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        self.log.clear();
        self.live_bytes = 0;
    }
}

/// A transaction's value-validation read log (DPTM WAR speculation):
/// byte-granular `addr → observed byte`, replayed at commit to detect a
/// conflicting committed write. Generation-tagged like [`WriteSet`] so
/// per-attempt teardown is O(1) with pooled storage.
#[derive(Clone, Debug, Default)]
pub struct ReadLog {
    /// addr → (epoch stamp, first byte observed this epoch).
    bytes: FxHashMap<u64, (u64, u8)>,
    /// Distinct addresses logged in the current epoch.
    log: Vec<u64>,
    epoch: u64,
}

impl ReadLog {
    /// Is the log empty?
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }

    /// Record `byte` as the value observed at `addr`; a repeated address
    /// within an epoch keeps the *latest* observation (map-insert semantics,
    /// matching the plain hash-map log this replaces).
    pub fn record(&mut self, addr: u64, byte: u8) {
        let slot = self.bytes.entry(addr).or_insert((self.epoch.wrapping_sub(1), 0));
        if slot.0 != self.epoch {
            self.log.push(addr);
        }
        *slot = (self.epoch, byte);
    }

    /// Iterate the current epoch's `(addr, observed byte)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u8)> + '_ {
        self.log.iter().map(move |&a| {
            let (e, b) = self.bytes[&a];
            debug_assert_eq!(e, self.epoch, "logged address must be current-epoch");
            (a, b)
        })
    }

    /// O(1) logical clear; backing storage is pooled across attempts.
    pub fn clear(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        self.log.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialised() {
        let g = GlobalMemory::new();
        assert_eq!(g.read_u64(Addr(0x1234), 8), 0);
        assert_eq!(g.allocated_lines(), 0);
    }

    #[test]
    fn read_write_roundtrip() {
        let mut g = GlobalMemory::new();
        g.write_u64(Addr(0x100), 8, 0xdead_beef_cafe_f00d);
        assert_eq!(g.read_u64(Addr(0x100), 8), 0xdead_beef_cafe_f00d);
        assert_eq!(g.read_u64(Addr(0x100), 4), 0xcafe_f00d);
        assert_eq!(g.read_u64(Addr(0x104), 4), 0xdead_beef);
    }

    #[test]
    fn straddling_line_boundary() {
        let mut g = GlobalMemory::new();
        g.write_u64(Addr(0x3c), 8, 0x1122_3344_5566_7788); // bytes 60..68
        assert_eq!(g.read_u64(Addr(0x3c), 8), 0x1122_3344_5566_7788);
        assert_eq!(g.allocated_lines(), 2);
    }

    #[test]
    fn writeset_forwarding() {
        let mut g = GlobalMemory::new();
        g.write_u64(Addr(0x40), 8, 0xaaaa_aaaa_aaaa_aaaa);
        let mut ws = WriteSet::default();
        // Buffer only the low 4 bytes.
        ws.write_u64(Addr(0x40), 4, 0x5555_5555);
        // Read 8 bytes: low half from write set, high half from global.
        assert_eq!(ws.read_u64(&g, Addr(0x40), 8), 0xaaaa_aaaa_5555_5555);
        // Global unchanged until publish.
        assert_eq!(g.read_u64(Addr(0x40), 8), 0xaaaa_aaaa_aaaa_aaaa);
        ws.publish(&mut g);
        assert_eq!(g.read_u64(Addr(0x40), 8), 0xaaaa_aaaa_5555_5555);
        assert!(ws.is_empty());
    }

    #[test]
    fn writeset_discard() {
        let mut g = GlobalMemory::new();
        let mut ws = WriteSet::default();
        ws.write_u64(Addr(8), 8, 42);
        assert!(ws.overlaps(Addr(8), 1));
        assert!(ws.overlaps(Addr(15), 4));
        assert!(!ws.overlaps(Addr(16), 8));
        ws.discard();
        assert!(ws.is_empty());
        ws.publish(&mut g);
        assert_eq!(g.read_u64(Addr(8), 8), 0);
    }

    #[test]
    fn last_write_wins() {
        let g = GlobalMemory::new();
        let mut ws = WriteSet::default();
        ws.write_u64(Addr(0), 8, 1);
        ws.write_u64(Addr(0), 8, 2);
        assert_eq!(ws.read_u64(&g, Addr(0), 8), 2);
        assert_eq!(ws.len(), 8);
    }

    #[test]
    fn writeset_epochs_stay_isolated() {
        // The O(1) discard must behave exactly like draining the map: no
        // byte buffered before the epoch bump may be visible after it.
        let mut g = GlobalMemory::new();
        let mut ws = WriteSet::default();
        for round in 0u64..50 {
            ws.write_u64(Addr(round * 8), 8, round + 1);
            assert_eq!(ws.len(), 8);
            assert!(ws.overlaps(Addr(round * 8), 1));
            ws.discard();
            assert!(ws.is_empty());
            assert!(!ws.overlaps(Addr(round * 8), 8));
            assert_eq!(ws.read_u64(&g, Addr(round * 8), 8), 0);
        }
        // Publish only writes current-epoch bytes.
        ws.write_u64(Addr(0), 4, 0xdead_beef);
        ws.publish(&mut g);
        assert_eq!(g.read_u64(Addr(0), 8), 0xdead_beef);
        assert_eq!(g.read_u64(Addr(8), 8), 0, "stale epochs must not publish");
    }

    #[test]
    fn read_log_epochs_and_last_observation() {
        let mut rl = ReadLog::default();
        assert!(rl.is_empty());
        rl.record(0x10, 1);
        rl.record(0x10, 2); // repeated address: latest observation wins
        rl.record(0x11, 9);
        let mut got: Vec<_> = rl.iter().collect();
        got.sort_unstable();
        assert_eq!(got, vec![(0x10, 2), (0x11, 9)]);
        rl.clear();
        assert!(rl.is_empty());
        assert_eq!(rl.iter().count(), 0);
        rl.record(0x10, 7);
        assert_eq!(rl.iter().collect::<Vec<_>>(), vec![(0x10, 7)]);
    }
}
