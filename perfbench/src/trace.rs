//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end, a parent and a request id shared by
//! every span of one serve request. Spans stay in memory and are written
//! once, at the end of the traced run, through the repository's
//! `ChromeTraceWriter`. A layer's self time is its span's duration minus
//! the part its children cover; a root span's self time is the remainder
//! no layer accounts for.

use asf_stats::chrome::ChromeTraceWriter;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer boundary name (one of [`crate::SPANS`], or a root name).
    pub name: &'static str,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Request id (serve) or operation index (grid, shard).
    pub req: u64,
    /// Thread track: 0 drives the workload, 1 polls for serve results.
    pub track: u32,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
}

/// Span recorder for one thread. When off, every call is a no-op.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    track: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span (`None` while the tracer is off).
pub type Open = Option<usize>;

impl Tracer {
    /// A tracer on `track` whose clock starts at `epoch`.
    pub fn new(on: bool, epoch: Instant, track: u32) -> Tracer {
        Tracer {
            on,
            epoch,
            track,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turn recording on or off between operations (never inside a span).
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "tracing toggled inside an open span");
        self.on = on;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span that started at `start` (the request's due time, for
    /// instance) under the innermost open span.
    pub fn begin_at(&mut self, name: &'static str, req: u64, start: Instant) -> Open {
        if !self.on {
            return None;
        }
        let span = Span {
            name,
            parent: self.open.last().copied(),
            req,
            track: self.track,
            start: self.ns(start),
            end: 0,
        };
        self.spans.push(span);
        let id = self.spans.len() - 1;
        self.open.push(id);
        Some(id)
    }

    /// Open a span starting now.
    pub fn begin(&mut self, name: &'static str, req: u64) -> Open {
        if !self.on {
            return None;
        }
        self.begin_at(name, req, Instant::now())
    }

    /// Close the innermost open span, which must be `id`.
    pub fn end(&mut self, id: Open) {
        if let Some(id) = id {
            assert_eq!(
                self.open.pop(),
                Some(id),
                "spans must close innermost first"
            );
            self.spans[id].end = self.ns(Instant::now());
        }
    }

    /// Record a closed leaf span under the innermost open span.
    pub fn leaf(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) {
        if self.on {
            let span = Span {
                name,
                parent: self.open.last().copied(),
                req,
                track: self.track,
                start: self.ns(start),
                end: self.ns(end),
            };
            self.spans.push(span);
        }
    }

    /// Run `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        let s = self.begin(name, req);
        let out = f();
        self.end(s);
        out
    }

    /// Append another tracer's spans (another thread's track).
    pub fn absorb(&mut self, other: Tracer) {
        assert!(other.open.is_empty(), "absorbing a tracer with open spans");
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Give up the recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// The Chrome `trace_event` document of `spans`.
pub fn to_chrome(spans: &[Span]) -> String {
    let mut w = ChromeTraceWriter::new();
    w.thread_name(0, "driver");
    w.thread_name(1, "poller");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(-1, |p| p as i64);
        w.complete(
            s.name,
            u64::from(s.track),
            s.start / 1000,
            (s.end - s.start) / 1000,
            &[
                ("req", s.req.to_string()),
                ("span", i.to_string()),
                ("parent", parent.to_string()),
            ],
        );
    }
    w.finish()
}

/// Self time per layer on one track.
#[derive(Debug, Default, PartialEq)]
pub struct Breakdown {
    /// Summed duration of the track's root spans, ns: the end-to-end wall
    /// time of the traced operations.
    pub wall_ns: u64,
    /// Self time of root spans: what no layer accounts for, ns.
    pub unattributed_ns: u64,
    /// Self time by span name over non-root spans, ns.
    pub self_ns: BTreeMap<&'static str, u64>,
}

/// Self times of the spans on `track`. Children nest inside their parent
/// and do not overlap (one thread per track), so the layers' self times
/// and the unattributed remainder add up to the wall time exactly.
pub fn breakdown(spans: &[Span], track: u32) -> Breakdown {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans.iter().filter(|s| s.track == track) {
        if let Some(p) = s.parent {
            child_ns[p] += s.end - s.start;
        }
    }
    let mut out = Breakdown::default();
    for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.track == track) {
        let dur = s.end - s.start;
        let own = dur
            .checked_sub(child_ns[i])
            .unwrap_or_else(|| panic!("children of span {i} ({}) outlast it", s.name));
        match s.parent {
            None => {
                out.wall_ns += dur;
                out.unattributed_ns += own;
            }
            Some(_) => *out.self_ns.entry(s.name).or_insert(0) += own,
        }
    }
    out
}

/// Check that every span lies inside its parent's interval, on its
/// parent's track, and that parents are recorded before their children.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    for (i, s) in spans.iter().enumerate() {
        if s.end < s.start {
            return Err(format!("span {i} ({}) ends before it starts", s.name));
        }
        if let Some(p) = s.parent {
            let ps = &spans[p];
            if p >= i || ps.track != s.track || s.start < ps.start || s.end > ps.end {
                return Err(format!(
                    "span {i} ({}) is not inside its parent {p} ({})",
                    s.name, ps.name
                ));
            }
        }
    }
    Ok(())
}

/// Put the track's layer self times, the remainder and the wall time into
/// the report as seconds.
pub fn report(report: &mut crate::Report, b: &Breakdown) {
    report.set("trace.wall_s", b.wall_ns as f64 / 1e9);
    report.set("trace.unattributed_s", b.unattributed_ns as f64 / 1e9);
    for (name, ns) in &b.self_ns {
        assert!(
            crate::SPANS.contains(name),
            "span {name} is not declared in SPANS"
        );
        report.set(&format!("{name}_self_s"), *ns as f64 / 1e9);
    }
}

/// Write the Chrome trace of a traced run's `spans` to
/// `out/trace-<workload>.json` in the benchmark's directory.
pub fn write(spans: &[Span], workload: &str) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{workload}.json"));
    std::fs::write(&path, to_chrome(spans))?;
    Ok(path)
}
