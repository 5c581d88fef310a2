//! The calibration kernel: a fixed dependent walk over a table that fits in
//! L2, run between operations of every workload, and the box speed it
//! gives. Each call walks the table twice. The first walk is untimed and
//! brings the table into L2, whatever ran before. The second, identical
//! walk is timed, so it always starts from the state the kernel set itself:
//! its time does not depend on how much cache the program just used.
//!
//! Frozen: its time (`box.cal_us`) and the speeds derived from it are
//! comparable across commits only while this file stays as it is. README.md
//! records the traces that chose the kernel, its exponent and its
//! reference time.

use std::hint::black_box;
use std::time::Instant;

/// Table entries: 32 Ki × 8 bytes = 256 KiB.
const TABLE_WORDS: usize = 32 * 1024;
/// Dependent loads per walk (~80 µs from L2 on the reference box).
const STEPS: usize = 10_000;
/// Timed-walk time that defines the reference box speed, µs: the median of
/// a seven-minute grid trace on the reference box.
pub const REF_US: f64 = 80.0;
/// How strongly simulator speed follows kernel speed. Between the box's
/// speed regimes the simulator swings further than the L2 walk does; 2
/// gave the steadiest scaled grid throughput in that trace (README.md).
pub const EXPONENT: f64 = 2.0;

/// The kernel's table and its timings.
pub struct Cal {
    table: Vec<u64>,
    samples: Vec<(Instant, f64)>,
}

impl Default for Cal {
    fn default() -> Self {
        Cal::new()
    }
}

impl Cal {
    /// Fill the table from a fixed xorshift stream.
    pub fn new() -> Cal {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let table = (0..TABLE_WORDS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        Cal {
            table,
            samples: Vec::new(),
        }
    }

    /// Run the kernel once: an untimed walk, then a timed one. Returns and
    /// records the timed walk's time in µs.
    pub fn run(&mut self) -> f64 {
        black_box(self.walk(black_box(STEPS)));
        let t0 = Instant::now();
        black_box(self.walk(black_box(STEPS)));
        let us = crate::stats::us(t0.elapsed());
        self.samples.push((t0, us));
        us
    }

    /// Each load's address depends on the value the last one read. Every
    /// walk starts at entry 0, so both walks of a call visit the same lines.
    fn walk(&self, steps: usize) -> u64 {
        let mask = self.table.len() - 1;
        let (mut i, mut acc) = (0usize, 1u64);
        for _ in 0..steps {
            let v = self.table[i];
            acc = acc.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(v);
            i = ((v ^ acc) as usize) & mask;
        }
        acc
    }

    /// Median kernel time so far, µs.
    pub fn median_us(&self) -> f64 {
        let all: Vec<f64> = self.samples.iter().map(|&(_, us)| us).collect();
        crate::stats::median(&all)
    }

    /// The slowdown over every kernel run so far.
    pub fn slowdown(&self) -> f64 {
        slowdown(self.median_us())
    }

    /// The slowdown over the kernel runs that started in `[from, to)`, or
    /// `None` if none did.
    pub fn slowdown_between(&self, from: Instant, to: Instant) -> Option<f64> {
        let inside: Vec<f64> = self
            .samples
            .iter()
            .filter(|&&(at, _)| at >= from && at < to)
            .map(|&(_, us)| us)
            .collect();
        (!inside.is_empty()).then(|| slowdown(crate::stats::median(&inside)))
    }
}

/// How much slower than the reference box the box ran while the kernel
/// took `cal_us`: divide a host time by it, or multiply a throughput by it,
/// to report it at the reference speed.
pub fn slowdown(cal_us: f64) -> f64 {
    (cal_us / REF_US).powf(EXPONENT)
}
