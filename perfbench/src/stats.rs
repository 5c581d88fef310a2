//! Order statistics over measured samples.

use crate::cal::Cal;
use std::time::{Duration, Instant};

/// Width of the windows every workload groups its samples into.
pub const WINDOW: Duration = Duration::from_secs(5);
/// The shortest span of kernel runs a window is scaled by: a slowdown from
/// a handful of kernel runs is noisy, and the quiet quartile would pick the
/// windows whose kernel runs happened to read slow.
pub const SCALE_SPAN: Duration = Duration::from_secs(1);

/// Median (mean of the two middle values for even counts); NaN when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Arithmetic mean; NaN when empty.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Nearest-rank percentile, `q` in (0, 1]: the smallest sample with at
/// least `q` of the samples at or below it. NaN when empty.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Samples grouped by the fixed window of wall time they fall in. Windows
/// count from the first sample.
pub struct Windowed {
    start: Option<Instant>,
    width: Duration,
    windows: Vec<Vec<f64>>,
}

impl Windowed {
    /// Windows of `width`.
    pub fn new(width: Duration) -> Windowed {
        Windowed {
            start: None,
            width,
            windows: Vec::new(),
        }
    }

    /// Windows of `width` counted from `start`.
    pub fn starting_at(start: Instant, width: Duration) -> Windowed {
        Windowed {
            start: Some(start),
            width,
            windows: Vec::new(),
        }
    }

    /// Add the samples of `other`, which must count from the same start.
    pub fn merge(&mut self, other: Windowed) {
        assert!(
            self.start == other.start && self.width == other.width,
            "windows do not line up"
        );
        if self.windows.len() < other.windows.len() {
            self.windows.resize_with(other.windows.len(), Vec::new);
        }
        for (mine, theirs) in self.windows.iter_mut().zip(other.windows) {
            mine.extend(theirs);
        }
    }

    /// Add a sample taken at `at`.
    pub fn push(&mut self, at: Instant, value: f64) {
        let start = *self.start.get_or_insert(at);
        let i = (at.saturating_duration_since(start).as_nanos() / self.width.as_nanos()) as usize;
        if self.windows.len() <= i {
            self.windows.resize_with(i + 1, Vec::new);
        }
        self.windows[i].push(value);
    }

    /// Drop the trailing windows that `end` cut short, keeping at least one.
    pub fn close(&mut self, end: Instant) {
        let Some(start) = self.start else { return };
        let elapsed = end.saturating_duration_since(start).as_nanos();
        let complete = (elapsed / self.width.as_nanos()) as usize;
        self.windows.truncate(complete.max(1));
    }

    /// Every sample, in order.
    pub fn all(&self) -> Vec<f64> {
        self.windows.concat()
    }

    /// `f` of each non-empty window's samples.
    pub fn each(&self, f: impl Fn(&[f64]) -> f64) -> Vec<f64> {
        self.each_between(f)
            .into_iter()
            .map(|(_, _, x)| x)
            .collect()
    }

    /// `(from, to, f(samples))` of each non-empty window.
    pub fn each_between(&self, f: impl Fn(&[f64]) -> f64) -> Vec<(Instant, Instant, f64)> {
        let Some(start) = self.start else {
            return Vec::new();
        };
        let from = |i: usize| start + self.width * i as u32;
        self.windows
            .iter()
            .enumerate()
            .filter(|(_, w)| !w.is_empty())
            .map(|(i, w)| (from(i), from(i + 1), f(w)))
            .collect()
    }

    /// The quiet quartile ([`quiet`]) of `f` over the windows.
    pub fn quiet(&self, better: Better, f: impl Fn(&[f64]) -> f64) -> f64 {
        quiet(&self.each(f), better)
    }
}

/// One end-to-end metric's samples by window, reported raw and scaled to
/// the reference box speed by the calibration kernel runs of the same
/// window ([`crate::cal::slowdown`]).
pub struct Series {
    windows: Windowed,
}

impl Series {
    /// Empty, in [`WINDOW`]-wide windows counted from `start`.
    pub fn new(start: Instant) -> Series {
        Series::with_width(start, WINDOW)
    }

    /// Empty, in windows of `width` counted from `start`.
    pub fn with_width(start: Instant, width: Duration) -> Series {
        Series {
            windows: Windowed::starting_at(start, width),
        }
    }

    /// Add a sample taken at `at`.
    pub fn push(&mut self, at: Instant, value: f64) {
        self.windows.push(at, value);
    }

    /// [`Windowed::close`].
    pub fn close(&mut self, end: Instant) {
        self.windows.close(end);
    }

    /// Every sample, in order.
    pub fn all(&self) -> Vec<f64> {
        self.windows.all()
    }

    /// `(scaled, raw)`: the quiet quartile of `f` over the windows. Scaled,
    /// each window's figure is first divided by the slowdown of the kernel
    /// runs around that window if it is a time (`Better::Lower`), or
    /// multiplied by it if it is a throughput. The kernel runs counted are
    /// those in the window, widened to [`SCALE_SPAN`] around its middle if
    /// it is shorter. Where none ran, the whole run's slowdown is taken.
    pub fn quiet(&self, better: Better, cal: &Cal, f: impl Fn(&[f64]) -> f64) -> (f64, f64) {
        let (mut raw, mut scaled) = (vec![], vec![]);
        for (from, to, x) in self.windows.each_between(f) {
            let (from, to) = match SCALE_SPAN.checked_sub(to - from) {
                Some(extra) if !extra.is_zero() => {
                    (from.checked_sub(extra / 2).unwrap_or(from), to + extra / 2)
                }
                _ => (from, to),
            };
            let slow = cal
                .slowdown_between(from, to)
                .unwrap_or_else(|| cal.slowdown());
            raw.push(x);
            scaled.push(match better {
                Better::Lower => x / slow,
                Better::Higher => x * slow,
            });
        }
        (quiet(&scaled, better), quiet(&raw, better))
    }
}

/// Which direction of a metric is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Times, sizes.
    Lower,
    /// Throughputs, fractions met.
    Higher,
}

/// The quartile of per-window figures on the better side: the lower
/// quartile of a time, the upper quartile of a throughput. Load from
/// outside the benchmark only ever makes a window worse, and on a shared
/// box it comes in phases of seconds to minutes, so the quieter quarter of
/// the windows estimates the program's own cost; a change to the program
/// moves every window, this one included.
pub fn quiet(per_window: &[f64], better: Better) -> f64 {
    match better {
        Better::Lower => percentile(per_window, 0.25),
        Better::Higher => percentile(per_window, 0.75),
    }
}

/// Seconds → microseconds of a `Duration`.
pub fn us(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Seconds → milliseconds of a `Duration`.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.9), 90.0);
        assert_eq!(percentile(&xs, 0.999), 100.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn windows_group_by_time_and_quiet_takes_the_better_quartile() {
        let t0 = Instant::now();
        let mut w = Windowed::new(Duration::from_secs(1));
        for (ms, v) in [
            (0, 1.0),
            (500, 3.0),
            (2000, 10.0),
            (3000, 20.0),
            (3900, 40.0),
            (4100, 0.0),
        ] {
            w.push(t0 + Duration::from_millis(ms), v);
        }
        w.close(t0 + Duration::from_millis(4500));
        assert_eq!(w.each(median), vec![2.0, 10.0, 30.0]);
        assert_eq!(w.all().len(), 5);
        let per_window = [5.0, 1.0, 4.0, 2.0, 3.0, 6.0, 7.0, 8.0];
        assert_eq!(quiet(&per_window, Better::Lower), 2.0);
        assert_eq!(quiet(&per_window, Better::Higher), 6.0);
    }
}
