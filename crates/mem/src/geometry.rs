//! Set-associative cache geometry: size/associativity → set-index math.

use crate::addr::{LineAddr, LINE_SIZE};

/// Geometry of one cache level.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
}

impl CacheGeometry {
    /// Construct a geometry, validating that it divides into whole
    /// power-of-two sets of [`LINE_SIZE`]-byte lines.
    ///
    /// # Panics
    /// If the configuration is not realisable (non-multiple size, zero ways,
    /// non-power-of-two set count).
    pub fn new(size_bytes: usize, ways: usize) -> CacheGeometry {
        assert!(ways >= 1, "cache must have at least one way");
        assert!(
            size_bytes.is_multiple_of(LINE_SIZE * ways),
            "cache size {size_bytes} not a multiple of ways*line ({ways}*{LINE_SIZE})"
        );
        let g = CacheGeometry { size_bytes, ways };
        assert!(
            g.sets().is_power_of_two(),
            "set count {} must be a power of two",
            g.sets()
        );
        g
    }

    /// Number of sets.
    #[inline]
    pub fn sets(&self) -> usize {
        self.size_bytes / (LINE_SIZE * self.ways)
    }

    /// Total number of lines the cache can hold.
    #[inline]
    pub fn lines(&self) -> usize {
        self.size_bytes / LINE_SIZE
    }

    /// Set index for a line address.
    #[inline]
    pub fn set_of(&self, line: LineAddr) -> usize {
        (line.0 as usize) & (self.sets() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Addr;

    #[test]
    fn paper_l1_geometry() {
        // Table II: 64 KB, 64 B lines, 2-way ⇒ 512 sets.
        let g = CacheGeometry::new(64 * 1024, 2);
        assert_eq!(g.sets(), 512);
        assert_eq!(g.lines(), 1024);
    }

    #[test]
    fn paper_l2_l3_geometry() {
        let l2 = CacheGeometry::new(512 * 1024, 16);
        assert_eq!(l2.sets(), 512);
        let l3 = CacheGeometry::new(2 * 1024 * 1024, 16);
        assert_eq!(l3.sets(), 2048);
    }

    #[test]
    fn set_index_is_the_low_line_bits() {
        let g = CacheGeometry::new(64 * 1024, 2);
        for raw in [0u64, 0x40, 64 * 1024, 0xde_adbe_efc0] {
            let line = Addr(raw).line();
            assert_eq!(g.set_of(line) as u64, line.0 % 512);
        }
        // Lines 512 sets apart share a set.
        assert_eq!(g.set_of(Addr(0).line()), g.set_of(Addr(512 * 64).line()));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_sets() {
        let _ = CacheGeometry::new(3 * 64 * 2, 2); // 3 sets
    }
}
