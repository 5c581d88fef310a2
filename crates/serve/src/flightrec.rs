//! Crash flight recorder: a bounded in-memory ring of recent structured
//! events, dumped to disk when something dies (DESIGN.md §18).
//!
//! Workers append job transitions, cancel/deadline edges and chaos
//! injections to one shared ring (each event tagged with the recording
//! thread, so per-worker timelines fall out of a filter). The ring is
//! bounded: recording is O(1) and the memory cost is fixed no matter how
//! long the server runs.
//!
//! A **dump trigger** — worker panic (the `PhaseGuard` unwinding), the
//! deadline watchdog killing a job, or an explicit request — snapshots
//! the ring to `flightrec_<pid>_<seq>.json` in the configured directory,
//! written with the same temp-file + atomic-rename discipline as the
//! cache store, so a crash mid-dump leaves either a whole artifact or
//! nothing. Dumps are counted and surfaced in `/v1/healthz` as
//! `flight_dumps`; with no directory configured the ring still records
//! and counts, it just keeps everything in memory (unit-test servers
//! don't litter the tree).

use asf_stats::json::escape;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

/// Schema tag every dump carries.
pub const FLIGHTREC_SCHEMA: &str = "asf-flightrec-v1";

/// One recorded event.
#[derive(Clone, Debug)]
pub struct FlightEvent {
    /// Monotonic sequence number (gaps reveal ring evictions).
    pub seq: u64,
    /// Wall-clock milliseconds since the epoch.
    pub ts_ms: u64,
    /// Name of the recording thread (worker, watchdog, connection).
    pub worker: String,
    /// Event kind (`job.running`, `chaos.panic`, `deadline.fired`, …).
    pub kind: String,
    /// Job digest hex, when the event concerns a job.
    pub job: Option<String>,
    /// Free-form detail.
    pub detail: String,
}

impl FlightEvent {
    fn to_json(&self) -> String {
        let job = match &self.job {
            Some(j) => escape(j),
            None => "null".to_string(),
        };
        format!(
            "{{\"seq\": {}, \"ts_ms\": {}, \"worker\": {}, \"kind\": {}, \
             \"job\": {}, \"detail\": {}}}",
            self.seq,
            self.ts_ms,
            escape(&self.worker),
            escape(&self.kind),
            job,
            escape(&self.detail)
        )
    }
}

/// Bounded event ring plus dump bookkeeping.
pub struct FlightRecorder {
    ring: Mutex<VecDeque<FlightEvent>>,
    capacity: usize,
    seq: AtomicU64,
    dumps: AtomicU64,
    dump_seq: AtomicU64,
    dir: Option<PathBuf>,
    dump_paths: Mutex<Vec<PathBuf>>,
}

fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

impl FlightRecorder {
    /// Ring holding the most recent `capacity` events; dumps land in
    /// `dir` (`None` = record and count, write nothing).
    pub fn new(capacity: usize, dir: Option<PathBuf>) -> FlightRecorder {
        FlightRecorder {
            ring: Mutex::new(VecDeque::with_capacity(capacity.max(1))),
            capacity: capacity.max(1),
            seq: AtomicU64::new(0),
            dumps: AtomicU64::new(0),
            dump_seq: AtomicU64::new(0),
            dir,
            dump_paths: Mutex::new(Vec::new()),
        }
    }

    /// Append one event, evicting the oldest when full. The recording
    /// thread's name becomes the `worker` tag.
    pub fn record(&self, kind: &str, job: Option<&str>, detail: &str) {
        let event = FlightEvent {
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            ts_ms: now_ms(),
            worker: std::thread::current().name().unwrap_or("unnamed").to_string(),
            kind: kind.to_string(),
            job: job.map(str::to_string),
            detail: detail.to_string(),
        };
        let mut ring = self.ring.lock().expect("flightrec lock");
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(event);
    }

    /// Events currently in the ring, oldest first.
    pub fn snapshot(&self) -> Vec<FlightEvent> {
        self.ring.lock().expect("flightrec lock").iter().cloned().collect()
    }

    /// Lifetime count of dump triggers (counted even with no directory).
    pub fn dumps(&self) -> u64 {
        self.dumps.load(Ordering::Acquire)
    }

    /// Paths of every dump written so far.
    pub fn dump_paths(&self) -> Vec<PathBuf> {
        self.dump_paths.lock().expect("flightrec lock").clone()
    }

    /// The ring as a schema-tagged JSON document (also the dump body).
    pub fn to_json(&self, reason: &str, job: Option<&str>) -> String {
        let job_json = match job {
            Some(j) => escape(j),
            None => "null".to_string(),
        };
        let mut out = format!(
            "{{\n  \"schema\": \"{FLIGHTREC_SCHEMA}\",\n  \"reason\": {},\n  \
             \"job\": {},\n  \"pid\": {},\n  \"ts_ms\": {},\n  \"events\": [",
            escape(reason),
            job_json,
            std::process::id(),
            now_ms()
        );
        for (i, event) in self.snapshot().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    {}", event.to_json());
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Fire a dump: record the trigger itself, persist the ring via
    /// temp+rename when a directory is configured, then count the dump —
    /// after the write attempt, so a reader that sees the count also sees
    /// the path. Returns the written path. Never panics: a recorder that
    /// cannot write must not take the worker down a second time.
    pub fn dump(&self, reason: &str, job: Option<&str>) -> Option<PathBuf> {
        self.record("flightrec.dump", job, reason);
        let written = self.dir.as_ref().and_then(|dir| {
            let body = self.to_json(reason, job);
            let seq = self.dump_seq.fetch_add(1, Ordering::Relaxed);
            let path = dir.join(format!("flightrec_{}_{}.json", std::process::id(), seq));
            match write_atomic(dir, &path, &body) {
                Ok(()) => {
                    self.dump_paths.lock().expect("flightrec lock").push(path.clone());
                    Some(path)
                }
                Err(e) => {
                    eprintln!("warning: flight-recorder dump to {} failed: {e}", path.display());
                    None
                }
            }
        });
        // Release pairs with the Acquire in `dumps()`: a reader that sees
        // this count also sees the path pushed above.
        self.dumps.fetch_add(1, Ordering::Release);
        written
    }
}

/// Temp-file + atomic-rename write (the cache-store discipline): a crash
/// mid-write leaves either the previous file or nothing, never torn JSON.
fn write_atomic(dir: &Path, path: &Path, body: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let tmp = path.with_file_name(format!(
        "{}.{}",
        path.file_name().unwrap_or_default().to_string_lossy(),
        crate::cache::unique_tmp_suffix()
    ));
    std::fs::write(&tmp, body)?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asf_stats::json::parse;

    #[test]
    fn ring_is_bounded_and_ordered() {
        let rec = FlightRecorder::new(3, None);
        for i in 0..5 {
            rec.record("tick", None, &format!("n{i}"));
        }
        let events = rec.snapshot();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].detail, "n2", "oldest events evicted first");
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn snapshot_json_is_schema_tagged_and_parses() {
        let rec = FlightRecorder::new(8, None);
        rec.record("job.running", Some("00ab"), "");
        rec.record("chaos.panic", Some("00ab"), "attempt 0");
        let v = parse(&rec.to_json("worker_panic", Some("00ab"))).expect("dump parses");
        assert_eq!(v.field("schema").unwrap().as_str().unwrap(), FLIGHTREC_SCHEMA);
        assert_eq!(v.field("reason").unwrap().as_str().unwrap(), "worker_panic");
        assert_eq!(v.field("job").unwrap().as_str().unwrap(), "00ab");
        let events = v.field("events").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].field("kind").unwrap().as_str().unwrap(), "chaos.panic");
    }

    #[test]
    fn dump_writes_whole_file_and_counts() {
        let dir = std::env::temp_dir().join(format!(
            "asf_flightrec_test_{}_{}",
            std::process::id(),
            crate::cache::unique_tmp_suffix()
        ));
        let rec = FlightRecorder::new(8, Some(dir.clone()));
        rec.record("job.failed", Some("beef"), "boom");
        let path = rec.dump("worker_panic", Some("beef")).expect("dump written");
        assert_eq!(rec.dumps(), 1);
        assert_eq!(rec.dump_paths(), vec![path.clone()]);
        let body = std::fs::read_to_string(&path).unwrap();
        let v = parse(&body).expect("written dump parses");
        assert_eq!(v.field("schema").unwrap().as_str().unwrap(), FLIGHTREC_SCHEMA);
        // The trigger event itself made it into the ring before snapshot.
        let events = v.field("events").unwrap().as_arr().unwrap();
        assert_eq!(events.last().unwrap().field("kind").unwrap().as_str().unwrap(), "flightrec.dump");
        // No temp litter left behind.
        let stray: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(stray.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dump_without_dir_counts_but_writes_nothing() {
        let rec = FlightRecorder::new(4, None);
        assert!(rec.dump("deadline", None).is_none());
        assert_eq!(rec.dumps(), 1);
        assert!(rec.dump_paths().is_empty());
    }
}
