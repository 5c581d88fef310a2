//! OpenMetrics / Prometheus text exposition plus fixed-bucket log2
//! histograms (DESIGN.md §18).
//!
//! Three pieces live here:
//!
//! * [`Histogram`] — a fixed-bucket log2 latency histogram. Bucket `i`
//!   holds samples whose bit length is `i` (bucket 0 is exactly zero), so
//!   recording is one `leading_zeros` plus two adds: allocation-free and
//!   branch-light on the hot path. Quantiles are derived from cumulative
//!   bucket counts and bracket the true order statistic within one bucket.
//!   [`AtomicHistogram`] is the lock-free variant the serve layer records
//!   into from many threads at once.
//! * [`Renderer`] — builds Prometheus/OpenMetrics exposition text
//!   (`# TYPE` lines, `_total` counters, cumulative `_bucket{le=...}`
//!   series) from counters, gauges, histograms and any
//!   [`MetricsRegistry`].
//! * [`parse_exposition`] — a small validating parser for that text,
//!   shared by the test suite, the CI serve-smoke scrape and
//!   `asf-repro dash`, so "scrapes parse cleanly" is pinned by the same
//!   code everywhere.
//!
//! Everything is deliberately decoupled from the simulation: rendering
//! reads accumulated values only, so scraping a server cannot perturb a
//! run (the bit-transparency contract of DESIGN.md §13 extends here).

use crate::metrics::MetricsRegistry;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log2 buckets a [`Histogram`] holds. Bucket 0 is the value 0;
/// bucket `i` (1 ≤ i < 63) covers `[2^(i-1), 2^i)`; the last bucket is
/// open-ended.
pub const LOG2_BUCKETS: usize = 40;

/// Bucket index a u64 sample lands in: its bit length, saturated to the
/// last bucket. Zero lands in bucket 0, `1` in bucket 1, `2..=3` in
/// bucket 2, and so on.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    ((64 - value.leading_zeros()) as usize).min(LOG2_BUCKETS - 1)
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` for the last bucket).
pub fn bucket_upper(i: usize) -> u64 {
    assert!(i < LOG2_BUCKETS, "bucket index out of range");
    if i == LOG2_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1 // i=0 → 0, i=1 → 1, i=2 → 3, ...
    }
}

/// Inclusive lower bound of bucket `i`.
pub fn bucket_lower(i: usize) -> u64 {
    assert!(i < LOG2_BUCKETS, "bucket index out of range");
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// The 1-based nearest rank of the `q`-quantile among `n` sorted samples:
/// `ceil(q·n)`, with `q` clamped to `0.0 ..= 1.0` and the rank to
/// `1 ..= n`. Returns 0 when `n == 0`. Every quantile in the workspace
/// (histogram, scrape-side and sampled) takes its rank from here, so a
/// bucket bound always brackets the sampled quantile of the same data.
pub fn nearest_rank(q: f64, n: u64) -> u64 {
    if n == 0 {
        return 0;
    }
    ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).clamp(1, n)
}

/// Fixed-bucket log2 histogram over u64 samples.
///
/// Recording never allocates; merging is element-wise addition, so the
/// merge of two histograms equals the histogram of the concatenated
/// samples exactly (pinned by proptest).
#[derive(Clone, Debug)]
pub struct Histogram {
    count: u64,
    sum: u64,
    buckets: [u64; LOG2_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// Create an empty histogram.
    pub fn new() -> Histogram {
        Histogram { count: 0, sum: 0, buckets: [0; LOG2_BUCKETS] }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.buckets[bucket_index(value)] += 1;
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Per-bucket counts.
    pub fn buckets(&self) -> &[u64; LOG2_BUCKETS] {
        &self.buckets
    }

    /// Estimate the `q`-quantile (`0.0 ..= 1.0`): the inclusive upper
    /// bound of the bucket holding the sample of rank
    /// [`nearest_rank`]`(q, count)`. The true quantile lies in the same
    /// bucket, so the estimate brackets it within one bucket width.
    /// Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = nearest_rank(q, self.count);
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cum += b;
            if cum >= rank {
                return bucket_upper(i);
            }
        }
        bucket_upper(LOG2_BUCKETS - 1)
    }

    /// Median estimate (`quantile(0.5)`).
    pub fn p50(&self) -> u64 {
        self.quantile(0.5)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> u64 {
        self.quantile(0.9)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

/// Lock-free log2 histogram for concurrent recording (relaxed atomics —
/// per-bucket counts are exact, cross-field snapshots may be torn by at
/// most in-flight samples, which scraping tolerates).
#[derive(Debug)]
pub struct AtomicHistogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; LOG2_BUCKETS],
}

impl Default for AtomicHistogram {
    fn default() -> AtomicHistogram {
        AtomicHistogram::new()
    }
}

impl AtomicHistogram {
    /// Create an empty histogram.
    pub fn new() -> AtomicHistogram {
        AtomicHistogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Record one sample (allocation-free, three relaxed RMWs).
    #[inline]
    pub fn record(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Copy the current contents into a plain [`Histogram`].
    pub fn snapshot(&self) -> Histogram {
        let mut h = Histogram::new();
        h.count = self.count.load(Ordering::Relaxed);
        h.sum = self.sum.load(Ordering::Relaxed);
        for (b, a) in h.buckets.iter_mut().zip(self.buckets.iter()) {
            *b = a.load(Ordering::Relaxed);
        }
        h
    }
}

/// Sanitise a metric name into the Prometheus charset
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): anything else becomes `_`.
pub fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic()
            || c == '_'
            || c == ':'
            || (i > 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escape a label value per the exposition format: backslash, double
/// quote and newline.
pub fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

fn label_block(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}=\"{}\"", sanitize_name(k), escape_label(v));
    }
    out.push('}');
    out
}

/// Builds Prometheus/OpenMetrics exposition text.
///
/// Families are emitted in call order; each `# TYPE` line is written once
/// per family even when samples are added across multiple calls.
#[derive(Debug, Default)]
pub struct Renderer {
    out: String,
    typed: Vec<String>,
}

impl Renderer {
    /// Start an empty exposition.
    pub fn new() -> Renderer {
        Renderer::default()
    }

    fn type_line(&mut self, name: &str, kind: &str, help: &str) {
        if self.typed.iter().any(|n| n == name) {
            return;
        }
        self.typed.push(name.to_string());
        if !help.is_empty() {
            let _ = writeln!(self.out, "# HELP {} {}", name, help.replace('\n', " "));
        }
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    /// Emit a monotonic counter sample; `_total` is appended to the name.
    pub fn counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: u64) {
        let base = sanitize_name(name);
        self.type_line(&base, "counter", help);
        let _ = writeln!(self.out, "{}_total{} {}", base, label_block(labels), value);
    }

    /// Emit a gauge sample (current value, may go down).
    pub fn gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        let base = sanitize_name(name);
        self.type_line(&base, "gauge", help);
        let _ = writeln!(self.out, "{}{} {}", base, label_block(labels), fmt_f64(value));
    }

    /// Emit a histogram family: cumulative `_bucket{le=...}` series plus
    /// `_sum` and `_count`.
    pub fn histogram(&mut self, name: &str, help: &str, labels: &[(&str, &str)], h: &Histogram) {
        let base = sanitize_name(name);
        self.type_line(&base, "histogram", help);
        let mut cum = 0u64;
        for (i, b) in h.buckets().iter().enumerate() {
            cum += b;
            if *b == 0 && i != LOG2_BUCKETS - 1 {
                continue; // keep the exposition compact: only non-empty + +Inf
            }
            let mut ls: Vec<(&str, String)> =
                labels.iter().map(|(k, v)| (*k, (*v).to_string())).collect();
            let le = if i == LOG2_BUCKETS - 1 {
                "+Inf".to_string()
            } else {
                bucket_upper(i).to_string()
            };
            ls.push(("le", le));
            let borrowed: Vec<(&str, &str)> =
                ls.iter().map(|(k, v)| (*k, v.as_str())).collect();
            let _ = writeln!(self.out, "{}_bucket{} {}", base, label_block(&borrowed), cum);
        }
        let lb = label_block(labels);
        let _ = writeln!(self.out, "{}_sum{} {}", base, lb, h.sum());
        let _ = writeln!(self.out, "{}_count{} {}", base, lb, h.count());
    }

    /// Render every counter and interval gauge of a [`MetricsRegistry`]
    /// under a shared family per kind, with the registry's dotted metric
    /// name carried as a `name` label (arbitrary names stay intact
    /// through label escaping instead of being mangled into the metric
    /// name).
    pub fn registry(&mut self, prefix: &str, reg: &MetricsRegistry) {
        let counter_family = format!("{prefix}_counter");
        for (name, value) in reg.counters() {
            self.counter(
                &counter_family,
                "simulator counters from the MetricsRegistry",
                &[("name", name)],
                value,
            );
        }
        let gauge_family = format!("{prefix}_interval_events");
        for (name, width, buckets) in reg.intervals() {
            let total: u64 = buckets.iter().sum();
            let w = width.to_string();
            self.counter(
                &gauge_family,
                "events accumulated by cycle-bucketed interval gauges",
                &[("name", name), ("width_cycles", &w)],
                total,
            );
        }
    }

    /// Finish and return the exposition text (ends with `# EOF`).
    pub fn finish(mut self) -> String {
        self.out.push_str("# EOF\n");
        self.out
    }
}

fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// One sample line of a parsed exposition.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    /// Full sample name (including `_total` / `_bucket` suffixes).
    pub name: String,
    /// Label pairs in source order.
    pub labels: Vec<(String, String)>,
    /// Parsed value.
    pub value: f64,
}

/// A parsed exposition: `# TYPE` declarations plus all samples.
#[derive(Clone, Debug, Default)]
pub struct Exposition {
    /// `(family name, kind)` pairs from `# TYPE` lines, in order.
    pub types: Vec<(String, String)>,
    /// All sample lines, in order.
    pub samples: Vec<Sample>,
}

impl Exposition {
    /// Kind declared for a family, if any.
    pub fn kind(&self, family: &str) -> Option<&str> {
        self.types.iter().find(|(n, _)| n == family).map(|(_, k)| k.as_str())
    }

    /// First sample value whose name matches exactly and whose labels
    /// include every pair in `labels`.
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| {
                s.name == name
                    && labels.iter().all(|(k, v)| {
                        s.labels.iter().any(|(sk, sv)| sk == k && sv == v)
                    })
            })
            .map(|s| s.value)
    }

    /// Sum of all sample values with this exact name.
    pub fn sum(&self, name: &str) -> f64 {
        self.samples.iter().filter(|s| s.name == name).map(|s| s.value).sum()
    }
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars().enumerate().all(|(i, c)| {
            c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
        })
}

fn parse_labels(src: &str, lineno: usize) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut chars = src.chars().peekable();
    loop {
        // label name
        let mut name = String::new();
        while let Some(&c) = chars.peek() {
            if c.is_ascii_alphanumeric() || c == '_' {
                name.push(c);
                chars.next();
            } else {
                break;
            }
        }
        if !valid_name(&name) {
            return Err(format!("line {lineno}: bad label name {name:?}"));
        }
        if chars.next() != Some('=') || chars.next() != Some('"') {
            return Err(format!("line {lineno}: expected =\" after label name"));
        }
        let mut value = String::new();
        loop {
            match chars.next() {
                Some('\\') => match chars.next() {
                    Some('\\') => value.push('\\'),
                    Some('"') => value.push('"'),
                    Some('n') => value.push('\n'),
                    _ => return Err(format!("line {lineno}: bad escape in label value")),
                },
                Some('"') => break,
                Some(c) => value.push(c),
                None => return Err(format!("line {lineno}: unterminated label value")),
            }
        }
        labels.push((name, value));
        match chars.next() {
            Some(',') => continue,
            None => break,
            Some(c) => return Err(format!("line {lineno}: unexpected {c:?} after label")),
        }
    }
    Ok(labels)
}

/// Parse and validate exposition text.
///
/// Checks the properties the format requires: sample and family names in
/// the legal charset, label values correctly quoted/escaped, values that
/// parse as floats (`+Inf` allowed), and every sample preceded by a
/// `# TYPE` declaration for its family.
pub fn parse_exposition(text: &str) -> Result<Exposition, String> {
    let mut exp = Exposition::default();
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if let Some(t) = rest.strip_prefix("TYPE ") {
                let mut parts = t.split_whitespace();
                let name = parts.next().unwrap_or("");
                let kind = parts.next().unwrap_or("");
                if !valid_name(name) {
                    return Err(format!("line {lineno}: bad family name {name:?}"));
                }
                if !matches!(kind, "counter" | "gauge" | "histogram" | "summary" | "untyped") {
                    return Err(format!("line {lineno}: bad metric kind {kind:?}"));
                }
                if exp.types.iter().any(|(n, _)| n == name) {
                    return Err(format!("line {lineno}: duplicate TYPE for {name}"));
                }
                exp.types.push((name.to_string(), kind.to_string()));
            }
            continue; // HELP / EOF / other comments
        }
        // sample line: name[{labels}] value
        let (name_part, rest) = match line.find(['{', ' ']) {
            Some(pos) => (&line[..pos], &line[pos..]),
            None => return Err(format!("line {lineno}: sample has no value")),
        };
        if !valid_name(name_part) {
            return Err(format!("line {lineno}: bad sample name {name_part:?}"));
        }
        let (labels, value_part) = if let Some(inner) = rest.strip_prefix('{') {
            let close = inner
                .rfind('}')
                .ok_or_else(|| format!("line {lineno}: unterminated label block"))?;
            (parse_labels(&inner[..close], lineno)?, &inner[close + 1..])
        } else {
            (Vec::new(), rest)
        };
        let value_str = value_part.trim();
        let value = match value_str {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            "NaN" => f64::NAN,
            v => v
                .parse::<f64>()
                .map_err(|_| format!("line {lineno}: bad value {v:?}"))?,
        };
        let family = family_of(name_part);
        if !exp.types.iter().any(|(n, _)| n == &family || n == name_part) {
            return Err(format!("line {lineno}: sample {name_part} has no TYPE declaration"));
        }
        exp.samples.push(Sample {
            name: name_part.to_string(),
            labels,
            value,
        });
    }
    Ok(exp)
}

/// Strip the exposition suffixes (`_total`, `_bucket`, `_sum`, `_count`)
/// to recover the family a sample belongs to.
pub fn family_of(sample_name: &str) -> String {
    for suffix in ["_total", "_bucket", "_sum", "_count"] {
        if let Some(base) = sample_name.strip_suffix(suffix) {
            if !base.is_empty() {
                return base.to_string();
            }
        }
    }
    sample_name.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_the_u64_line() {
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024, u64::MAX] {
            let i = bucket_index(v);
            assert!(bucket_lower(i) <= v && v <= bucket_upper(i), "v={v} bucket={i}");
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
    }

    #[test]
    fn nearest_rank_is_ceil_clamped() {
        assert_eq!(nearest_rank(0.5, 64), 32);
        assert_eq!(nearest_rank(0.99, 64), 64);
        assert_eq!(nearest_rank(0.0, 10), 1);
        assert_eq!(nearest_rank(1.0, 10), 10);
        assert_eq!(nearest_rank(2.0, 10), 10);
        assert_eq!(nearest_rank(-1.0, 10), 1);
        assert_eq!(nearest_rank(0.5, 0), 0);
    }

    #[test]
    fn histogram_records_and_quantiles() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        let p50 = h.p50();
        assert!((32..=63).contains(&p50), "p50 bucket upper = {p50}");
        let p99 = h.p99();
        assert!((64..=127).contains(&p99), "p99 bucket upper = {p99}");
        assert_eq!(Histogram::new().quantile(0.5), 0);
    }

    #[test]
    fn merge_equals_concat() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for v in [0u64, 5, 17, 1000, u64::MAX] {
            a.record(v);
            all.record(v);
        }
        for v in [3u64, 5, 900_000] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.sum(), all.sum());
        assert_eq!(a.buckets(), all.buckets());
    }

    #[test]
    fn atomic_histogram_snapshot_matches() {
        let a = AtomicHistogram::new();
        a.record(7);
        a.record(12345);
        let s = a.snapshot();
        assert_eq!(s.count(), 2);
        assert_eq!(s.sum(), 12352);
    }

    #[test]
    fn renderer_output_parses() {
        let mut r = Renderer::new();
        r.counter("asf_http_requests", "requests", &[("endpoint", "submit"), ("status", "202")], 7);
        r.counter("asf_http_requests", "", &[("endpoint", "healthz"), ("status", "200")], 3);
        r.gauge("asf_queue_depth", "jobs queued", &[], 2.0);
        let mut h = Histogram::new();
        h.record(100);
        h.record(90_000);
        r.histogram("asf_job_e2e_ns", "end to end", &[], &h);
        let text = r.finish();
        let exp = parse_exposition(&text).expect("renderer output parses");
        assert_eq!(exp.kind("asf_http_requests"), Some("counter"));
        assert_eq!(exp.kind("asf_job_e2e_ns"), Some("histogram"));
        assert_eq!(
            exp.value("asf_http_requests_total", &[("endpoint", "submit")]),
            Some(7.0)
        );
        assert_eq!(exp.value("asf_job_e2e_ns_count", &[]), Some(2.0));
        // +Inf bucket carries the total count.
        assert_eq!(exp.value("asf_job_e2e_ns_bucket", &[("le", "+Inf")]), Some(2.0));
    }

    #[test]
    fn label_escaping_round_trips() {
        let mut r = Renderer::new();
        r.counter("asf_weird", "", &[("name", "a\"b\\c\nd")], 1);
        let text = r.finish();
        let exp = parse_exposition(&text).expect("escaped labels parse");
        assert_eq!(exp.value("asf_weird_total", &[("name", "a\"b\\c\nd")]), Some(1.0));
    }

    #[test]
    fn registry_renders_under_shared_families() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("tx.commits");
        reg.add(c, 9);
        let g = reg.interval("conflicts.per_interval", 100);
        reg.bump(g, 50);
        reg.bump(g, 150);
        let mut r = Renderer::new();
        r.registry("asf_sim", &reg);
        let exp = parse_exposition(&r.finish()).expect("registry exposition parses");
        assert_eq!(exp.value("asf_sim_counter_total", &[("name", "tx.commits")]), Some(9.0));
        assert_eq!(
            exp.value("asf_sim_interval_events_total", &[("name", "conflicts.per_interval")]),
            Some(2.0)
        );
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_exposition("bad name 1\n").is_err());
        assert!(parse_exposition("# TYPE x counter\nx_total{le=\"unterminated} 1\n").is_err());
        assert!(parse_exposition("# TYPE x counter\nx_total notanumber\n").is_err());
        assert!(parse_exposition("orphan_total 3\n").is_err(), "samples need a TYPE line");
        assert!(parse_exposition("# TYPE 9bad counter\n").is_err());
    }

    #[test]
    fn sanitize_and_family() {
        assert_eq!(sanitize_name("tx.commits"), "tx_commits");
        assert_eq!(sanitize_name("9lives"), "_lives");
        assert_eq!(family_of("asf_http_requests_total"), "asf_http_requests");
        assert_eq!(family_of("asf_job_e2e_ns_bucket"), "asf_job_e2e_ns");
        assert_eq!(family_of("plain_gauge"), "plain_gauge");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Every u64 sample lands in exactly one bucket: its index's
        /// `[lower, upper]` range contains it, and no other bucket's does.
        #[test]
        fn every_sample_lands_in_exactly_one_bucket(v in any::<u64>()) {
            let i = bucket_index(v);
            prop_assert!(bucket_lower(i) <= v && v <= bucket_upper(i));
            let homes = (0..LOG2_BUCKETS)
                .filter(|&j| bucket_lower(j) <= v && v <= bucket_upper(j))
                .count();
            prop_assert_eq!(homes, 1);
        }

        /// Bucket ranges tile the u64 line with no gaps or overlaps.
        #[test]
        fn bucket_boundaries_are_contiguous(i in 0usize..LOG2_BUCKETS - 1) {
            prop_assert_eq!(bucket_upper(i) + 1, bucket_lower(i + 1));
        }

        /// Merging two histograms equals the histogram of the
        /// concatenated samples — count, sum, and every bucket.
        #[test]
        fn merge_equals_histogram_of_concatenation(
            a in prop::collection::vec(any::<u64>(), 0..200),
            b in prop::collection::vec(any::<u64>(), 0..200),
        ) {
            let mut ha = Histogram::new();
            for &v in &a {
                ha.record(v);
            }
            let mut hb = Histogram::new();
            for &v in &b {
                hb.record(v);
            }
            let mut merged = ha.clone();
            merged.merge(&hb);

            let mut concat = Histogram::new();
            for &v in a.iter().chain(b.iter()) {
                concat.record(v);
            }
            prop_assert_eq!(merged.count(), concat.count());
            prop_assert_eq!(merged.sum(), concat.sum());
            prop_assert_eq!(merged.buckets(), concat.buckets());
        }

        /// The quantile estimate brackets the sampled quantile within one
        /// bucket: the sorted sample at index `nearest_rank(q, n) - 1` is
        /// at most the estimate and lies in the bucket whose upper bound
        /// the estimate reports.
        #[test]
        fn quantile_brackets_true_quantile_within_one_bucket(
            mut samples in prop::collection::vec(0u64..1u64 << 40, 1..300),
            q_ppm in 0u32..=1_000_000,
        ) {
            let q = f64::from(q_ppm) / 1e6;
            let mut h = Histogram::new();
            for &v in &samples {
                h.record(v);
            }
            samples.sort_unstable();
            let rank = nearest_rank(q, samples.len() as u64);
            let truth = samples[rank as usize - 1];
            let estimate = h.quantile(q);
            let i = bucket_index(truth);
            prop_assert_eq!(estimate, bucket_upper(i));
            prop_assert!(bucket_lower(i) <= truth && truth <= estimate);
        }
    }
}
