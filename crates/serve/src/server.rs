//! The `asf-serve` service: HTTP/JSON API over the bounded pool and the
//! content-addressed cache.
//!
//! ## Endpoints
//!
//! | Method | Path                  | Purpose                                   |
//! |--------|-----------------------|-------------------------------------------|
//! | GET    | `/v1/healthz`         | readiness: pool supervision, queue, cache integrity |
//! | POST   | `/v1/jobs`            | submit a job spec (429 + depth when full) |
//! | GET    | `/v1/jobs/:id`        | status + progress snapshot                |
//! | DELETE | `/v1/jobs/:id`        | cooperative cancel (409 once terminal)    |
//! | GET    | `/v1/jobs/:id/result` | the `asf-serve-v1` artifact (202 pending, 410 cancelled) |
//! | GET    | `/v1/jobs/:id/metrics`| `asf-obs-v1` snapshot (observed jobs)     |
//! | GET    | `/v1/jobs/:id/trace`  | Chrome trace JSON (observed jobs)         |
//! | GET    | `/v1/cache/stats`     | cache + admission counters                |
//! | POST   | `/v1/shutdown`        | stop accepting, drain, exit               |
//!
//! A job's id **is** its spec digest (16 hex digits): submitting is
//! idempotent, a repeat submission of a completed spec answers `cached`
//! in O(1), and concurrent identical submissions — whether they race
//! through the queue or arrive while one is running — coalesce onto a
//! single computation (`ResultCache::get_or_compute`'s single-flight).
//!
//! ## Deadlines & cancellation
//!
//! Every submission carries a deadline (client `deadline_ms`, clamped to
//! the server cap; server default otherwise). A watchdog thread scans the
//! registry every [`ServeOpts::deadline_tick_ms`] and fires the job's
//! [`CancelToken`] once the deadline passes; the simulator checks the
//! token cooperatively at its progress-publish cadence and unwinds
//! cleanly. `DELETE /v1/jobs/:id` fires the same token with client
//! provenance. Both produce *typed terminal states* (`cancelled`,
//! `deadline_exceeded`) that are never cached — a resubmission computes
//! fresh. Cancellation is cooperative and therefore best-effort: a job
//! that completes in the race window stays `done` and its (valid) result
//! is kept.

use crate::cache::{CacheConfig, ResultCache};
use crate::chaos::ServeChaosPlan;
use crate::flightrec::FlightRecorder;
use crate::http::{read_request, write_response, write_response_typed, HttpError, HttpLimits, Request};
use crate::metrics::{endpoint_label, ServeMetrics};
use crate::pool::{PoolHealth, WorkerPool};
use crate::runner::run_spec_cancellable;
use crate::spec::{parse_digest_hex, JobSpec, Submission};
use asf_machine::snapshot::{CancelKind, CancelToken, ProgressProbe};
use asf_mem::fxhash::FxHashMap;
use asf_stats::json::escape;
use asf_stats::openmetrics::Renderer;
use asf_stats::slog::Logger;
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServeOpts {
    /// Bind address; port 0 picks an ephemeral port (the smoke/loadtest
    /// default).
    pub addr: String,
    /// Worker threads executing simulations.
    pub workers: usize,
    /// Pending-job bound; submissions beyond it get 429.
    pub queue_capacity: usize,
    /// In-memory result-cache entries.
    pub cache_capacity: usize,
    /// Persistent store directory (`None` = memory only).
    pub disk_dir: Option<PathBuf>,
    /// Request framing bounds (body size, header line length/count).
    pub limits: HttpLimits,
    /// Socket read timeout per connection, ms. A connection idle past it
    /// is closed; one that stalls *mid-request* is answered 408 first.
    pub read_timeout_ms: u64,
    /// Socket write timeout per connection, ms.
    pub write_timeout_ms: u64,
    /// Deadline applied to submissions that do not name one, ms.
    pub default_deadline_ms: u64,
    /// Hard cap on client-requested deadlines, ms.
    pub max_deadline_ms: u64,
    /// Deadline-watchdog scan interval, ms. Bounds how far past its
    /// deadline a job can run before its cancel token fires.
    pub deadline_tick_ms: u64,
    /// Fault-injection plan; [`ServeChaosPlan::none`] (the default) is
    /// structurally inert.
    pub chaos: ServeChaosPlan,
    /// Flight-recorder ring capacity (most recent events kept).
    pub flightrec_capacity: usize,
    /// Directory flight-recorder dumps land in. `None` (the default)
    /// records and counts but writes nothing — unit-test servers stay
    /// clean; the chaos soak and foreground serve point this at
    /// `results/`.
    pub flightrec_dir: Option<PathBuf>,
    /// Structured logger threaded through the request lifecycle.
    pub log: Logger,
}

impl Default for ServeOpts {
    fn default() -> Self {
        ServeOpts {
            addr: "127.0.0.1:0".to_string(),
            workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2).min(4),
            queue_capacity: 256,
            cache_capacity: 1024,
            disk_dir: None,
            limits: HttpLimits::default(),
            read_timeout_ms: 10_000,
            write_timeout_ms: 10_000,
            default_deadline_ms: 300_000,
            max_deadline_ms: 600_000,
            deadline_tick_ms: 25,
            chaos: ServeChaosPlan::none(),
            flightrec_capacity: 256,
            flightrec_dir: None,
            log: Logger::from_env(),
        }
    }
}

/// Lifecycle of one registered job.
#[derive(Clone, Debug)]
enum JobPhase {
    Queued,
    Running,
    Done,
    Failed(String),
    Cancelled,
    DeadlineExceeded,
}

impl JobPhase {
    fn label(&self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Done => "done",
            JobPhase::Failed(_) => "failed",
            JobPhase::Cancelled => "cancelled",
            JobPhase::DeadlineExceeded => "deadline_exceeded",
        }
    }

    fn is_terminal(&self) -> bool {
        !matches!(self, JobPhase::Queued | JobPhase::Running)
    }
}

struct JobEntry {
    spec: JobSpec,
    phase: Mutex<JobPhase>,
    probe: Arc<ProgressProbe>,
    cancel: Arc<CancelToken>,
    deadline: Instant,
    submitted_at: Instant,
}

/// Shared service state (cache, registry, pool, counters). Exposed so the
/// in-process load test can read counters without a round-trip.
pub struct ServeState {
    /// The content-addressed result cache.
    pub cache: ResultCache,
    jobs: Mutex<FxHashMap<u64, Arc<JobEntry>>>,
    pool: WorkerPool,
    limits: HttpLimits,
    read_timeout_ms: u64,
    write_timeout_ms: u64,
    default_deadline_ms: u64,
    max_deadline_ms: u64,
    deadline_tick_ms: u64,
    chaos: ServeChaosPlan,
    /// Execution-attempt ordinals per digest, so chaos decisions are a
    /// pure function of `(seed, digest, attempt)` regardless of thread
    /// interleaving. Only touched when chaos is enabled.
    chaos_attempts: Mutex<FxHashMap<u64, u32>>,
    /// Total submissions accepted (cached answers included).
    pub jobs_submitted: AtomicU64,
    /// Submissions answered `cached` straight from the store.
    pub submit_cache_hits: AtomicU64,
    /// Submissions coalesced onto an already queued/running identical job.
    pub submit_coalesced: AtomicU64,
    /// Submissions rejected with 429 (queue at capacity).
    pub jobs_rejected: AtomicU64,
    /// Jobs that completed successfully.
    pub jobs_completed: AtomicU64,
    /// Jobs that failed (watchdog etc.).
    pub jobs_failed: AtomicU64,
    /// Jobs terminated by client cancel.
    pub jobs_cancelled: AtomicU64,
    /// Jobs terminated by the deadline watchdog.
    pub jobs_deadline_exceeded: AtomicU64,
    /// Worker panics injected by the chaos plan.
    pub chaos_panics_injected: AtomicU64,
    /// Artificial stalls injected by the chaos plan.
    pub chaos_stalls_injected: AtomicU64,
    /// Request counters, latency histograms, correlation-id mint.
    pub metrics: ServeMetrics,
    /// Bounded event ring + crash-dump bookkeeping.
    pub flightrec: FlightRecorder,
    /// Structured logger shared by every thread of the service.
    pub log: Logger,
    shutting_down: AtomicBool,
}

impl ServeState {
    /// Current pending-queue depth.
    pub fn queue_depth(&self) -> usize {
        self.pool.depth()
    }

    /// Worker-supervision snapshot.
    pub fn pool_health(&self) -> PoolHealth {
        self.pool.health()
    }

    /// True once shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::Relaxed)
    }

    /// The `GET /v1/healthz` readiness document: pool supervision, queue
    /// pressure, cache integrity, uptime, build info and flight-dump
    /// count in one probe-friendly object.
    pub fn healthz_json(&self) -> String {
        let health = self.pool.health();
        let shutting_down = self.is_shutting_down();
        let ok = !shutting_down && health.live > 0;
        format!(
            "{{\"ok\": {ok}, \"shutting_down\": {shutting_down}, \
             \"workers\": {}, \"live_workers\": {}, \"worker_panics\": {}, \
             \"worker_respawns\": {}, \"queue_depth\": {}, \"queue_capacity\": {}, \
             \"corrupt_quarantined\": {}, \"disk_write_failures\": {}, \
             \"uptime_ms\": {}, \"version\": \"{}\", \
             \"detectors\": [\"baseline\", \"sb2\", \"sb4\", \"sb8\", \"sb16\", \"perfect\"], \
             \"flight_dumps\": {}}}\n",
            health.workers,
            health.live,
            health.panics,
            health.respawns,
            health.queue_depth,
            self.pool.capacity(),
            self.cache.counters.corrupt_quarantined.load(Ordering::Relaxed),
            self.cache.counters.disk_write_failures.load(Ordering::Relaxed),
            self.metrics.uptime_ms(),
            env!("CARGO_PKG_VERSION"),
            self.flightrec.dumps(),
        )
    }

    /// Count of jobs currently in the `running` phase (the worker-
    /// utilization numerator).
    fn running_jobs(&self) -> usize {
        self.jobs
            .lock()
            .unwrap()
            .values()
            .filter(|e| matches!(*e.phase.lock().unwrap(), JobPhase::Running))
            .count()
    }

    /// The `GET /v1/metrics/prometheus` exposition: request counters by
    /// endpoint/status, queue and worker gauges, cache and single-flight
    /// counters, cancel/deadline/chaos counters, flight dumps, and the
    /// four latency histograms. Rendered by
    /// [`asf_stats::openmetrics::Renderer`], so its output parses with
    /// the same parser the tests and CI scrape use.
    pub fn prometheus_text(&self) -> String {
        let mut r = Renderer::new();
        for (endpoint, status, count) in self.metrics.request_counts() {
            let status = status.to_string();
            r.counter(
                "asf_http_requests",
                "HTTP responses by endpoint and status",
                &[("endpoint", endpoint), ("status", &status)],
                count,
            );
        }
        let health = self.pool.health();
        r.gauge("asf_queue_depth", "pending jobs", &[], self.queue_depth() as f64);
        r.gauge("asf_queue_capacity", "queue bound", &[], self.pool.capacity() as f64);
        r.gauge("asf_workers_live", "live worker threads", &[], health.live as f64);
        let running = self.running_jobs();
        r.gauge("asf_workers_busy", "jobs in the running phase", &[], running as f64);
        let utilization = if health.workers == 0 {
            0.0
        } else {
            running as f64 / health.workers as f64
        };
        r.gauge("asf_worker_utilization", "busy fraction of the pool", &[], utilization);
        r.counter("asf_worker_panics", "jobs that panicked", &[], health.panics);
        r.counter("asf_worker_respawns", "workers respawned after a panic", &[], health.respawns);
        let c = &self.cache.counters;
        for (name, value) in [
            ("hits", c.hits.load(Ordering::Relaxed)),
            ("disk_hits", c.disk_hits.load(Ordering::Relaxed)),
            ("misses", c.misses.load(Ordering::Relaxed)),
            ("inserts", c.inserts.load(Ordering::Relaxed)),
            ("evictions", c.evictions.load(Ordering::Relaxed)),
            ("flight_joins", c.flight_joins.load(Ordering::Relaxed)),
            ("flight_leads", c.flight_leads.load(Ordering::Relaxed)),
            ("corrupt_quarantined", c.corrupt_quarantined.load(Ordering::Relaxed)),
            ("disk_write_failures", c.disk_write_failures.load(Ordering::Relaxed)),
        ] {
            r.counter("asf_cache_events", "result-cache events by kind", &[("kind", name)], value);
        }
        r.gauge("asf_cache_entries", "in-memory cache entries", &[], self.cache.len() as f64);
        for (name, value) in [
            ("submitted", self.jobs_submitted.load(Ordering::Relaxed)),
            ("cache_hit", self.submit_cache_hits.load(Ordering::Relaxed)),
            ("coalesced", self.submit_coalesced.load(Ordering::Relaxed)),
            ("rejected", self.jobs_rejected.load(Ordering::Relaxed)),
            ("completed", self.jobs_completed.load(Ordering::Relaxed)),
            ("failed", self.jobs_failed.load(Ordering::Relaxed)),
            ("cancelled", self.jobs_cancelled.load(Ordering::Relaxed)),
            ("deadline_exceeded", self.jobs_deadline_exceeded.load(Ordering::Relaxed)),
        ] {
            r.counter("asf_jobs", "job lifecycle events by kind", &[("kind", name)], value);
        }
        r.counter(
            "asf_chaos_panics_injected",
            "worker panics injected by the chaos plan",
            &[],
            self.chaos_panics_injected.load(Ordering::Relaxed),
        );
        r.counter(
            "asf_chaos_stalls_injected",
            "stalls injected by the chaos plan",
            &[],
            self.chaos_stalls_injected.load(Ordering::Relaxed),
        );
        r.counter("asf_flight_dumps", "flight-recorder dump triggers", &[], self.flightrec.dumps());
        r.gauge("asf_uptime_ms", "milliseconds since server start", &[], self.metrics.uptime_ms() as f64);
        r.histogram(
            "asf_http_request_duration_ns",
            "request parse to response write",
            &[],
            &self.metrics.http_request_ns.snapshot(),
        );
        r.histogram(
            "asf_job_e2e_ns",
            "submission to terminal phase",
            &[],
            &self.metrics.job_e2e_ns.snapshot(),
        );
        r.histogram(
            "asf_job_queue_wait_ns",
            "submission to worker pickup",
            &[],
            &self.metrics.queue_wait_ns.snapshot(),
        );
        r.histogram(
            "asf_job_execute_ns",
            "worker compute time",
            &[],
            &self.metrics.execute_ns.snapshot(),
        );
        r.finish()
    }

    /// The `GET /v1/cache/stats` document.
    pub fn stats_json(&self) -> String {
        format!(
            "{{\n  \"cache\": {},\n  \"entries\": {},\n  \"capacity\": {},\n  \
             \"queue_depth\": {},\n  \"queue_capacity\": {},\n  \
             \"jobs_submitted\": {},\n  \"submit_cache_hits\": {},\n  \
             \"submit_coalesced\": {},\n  \"jobs_rejected\": {},\n  \
             \"jobs_completed\": {},\n  \"jobs_failed\": {},\n  \
             \"jobs_cancelled\": {},\n  \"jobs_deadline_exceeded\": {},\n  \
             \"chaos_panics_injected\": {},\n  \"chaos_stalls_injected\": {}\n}}\n",
            self.cache.counters.to_json(),
            self.cache.len(),
            self.cache.capacity(),
            self.queue_depth(),
            self.pool.capacity(),
            self.jobs_submitted.load(Ordering::Relaxed),
            self.submit_cache_hits.load(Ordering::Relaxed),
            self.submit_coalesced.load(Ordering::Relaxed),
            self.jobs_rejected.load(Ordering::Relaxed),
            self.jobs_completed.load(Ordering::Relaxed),
            self.jobs_failed.load(Ordering::Relaxed),
            self.jobs_cancelled.load(Ordering::Relaxed),
            self.jobs_deadline_exceeded.load(Ordering::Relaxed),
            self.chaos_panics_injected.load(Ordering::Relaxed),
            self.chaos_stalls_injected.load(Ordering::Relaxed),
        )
    }
}

/// A running server. Dropping (or [`Server::shutdown`]) stops the accept
/// loop and drains the worker pool.
pub struct Server {
    state: Arc<ServeState>,
    port: u16,
    accept: Option<JoinHandle<()>>,
    watchdog: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind, start the accept loop, the worker pool, and the deadline
    /// watchdog.
    pub fn start(opts: ServeOpts) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&opts.addr)?;
        let port = listener.local_addr()?.port();
        let state = Arc::new(ServeState {
            cache: ResultCache::new(CacheConfig {
                capacity: opts.cache_capacity,
                disk_dir: opts.disk_dir.clone(),
            })?,
            jobs: Mutex::new(FxHashMap::default()),
            pool: WorkerPool::new(opts.workers, opts.queue_capacity),
            limits: opts.limits,
            read_timeout_ms: opts.read_timeout_ms,
            write_timeout_ms: opts.write_timeout_ms,
            default_deadline_ms: opts.default_deadline_ms,
            max_deadline_ms: opts.max_deadline_ms,
            deadline_tick_ms: opts.deadline_tick_ms,
            chaos: opts.chaos,
            chaos_attempts: Mutex::new(FxHashMap::default()),
            jobs_submitted: AtomicU64::new(0),
            submit_cache_hits: AtomicU64::new(0),
            submit_coalesced: AtomicU64::new(0),
            jobs_rejected: AtomicU64::new(0),
            jobs_completed: AtomicU64::new(0),
            jobs_failed: AtomicU64::new(0),
            jobs_cancelled: AtomicU64::new(0),
            jobs_deadline_exceeded: AtomicU64::new(0),
            chaos_panics_injected: AtomicU64::new(0),
            chaos_stalls_injected: AtomicU64::new(0),
            metrics: ServeMetrics::new(),
            flightrec: FlightRecorder::new(opts.flightrec_capacity, opts.flightrec_dir.clone()),
            log: opts.log.clone(),
            shutting_down: AtomicBool::new(false),
        });
        state
            .log
            .info("serve.start")
            .u64("port", u64::from(port))
            .u64("workers", opts.workers as u64)
            .u64("queue_capacity", opts.queue_capacity as u64)
            .bool("chaos", opts.chaos.enabled())
            .emit();
        if state.chaos.enabled() {
            let plan = state.chaos;
            state.cache.set_disk_chaos(Box::new(move |digest| plan.disk_decision(digest)));
        }
        let accept_state = Arc::clone(&state);
        let accept = std::thread::Builder::new()
            .name("asf-serve-accept".to_string())
            .spawn(move || {
                for stream in listener.incoming() {
                    if accept_state.shutting_down.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let _ = stream.set_nodelay(true);
                    let conn_state = Arc::clone(&accept_state);
                    let _ = std::thread::Builder::new()
                        .name("asf-serve-conn".to_string())
                        .spawn(move || handle_connection(stream, &conn_state));
                }
            })
            .expect("spawn accept loop");
        let watchdog_state = Arc::clone(&state);
        let watchdog = std::thread::Builder::new()
            .name("asf-serve-deadline".to_string())
            .spawn(move || deadline_watchdog(&watchdog_state))
            .expect("spawn deadline watchdog");
        Ok(Server { state, port, accept: Some(accept), watchdog: Some(watchdog) })
    }

    /// The bound port (useful with an ephemeral bind).
    pub fn port(&self) -> u16 {
        self.port
    }

    /// `host:port` of the listener.
    pub fn addr(&self) -> String {
        format!("127.0.0.1:{}", self.port)
    }

    /// The shared service state (counters, cache) for in-process callers.
    pub fn state(&self) -> Arc<ServeState> {
        Arc::clone(&self.state)
    }

    /// Block until the accept loop exits on its own — i.e. until some
    /// client issues `POST /v1/shutdown`. The foreground `asf-repro serve`
    /// command parks here.
    pub fn wait(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }

    /// Stop accepting connections and join the accept loop. Worker threads
    /// drain their queue when the last state reference drops.
    pub fn shutdown(mut self) {
        self.signal_shutdown();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }

    fn signal_shutdown(&self) {
        self.state.shutting_down.store(true, Ordering::Relaxed);
        // Unblock the accept loop with one throwaway connection. Always
        // attempted (not just on the first signal): the HTTP shutdown
        // endpoint may have set the flag without waking the listener, and
        // a connect against an already-dead listener is harmless.
        let _ = TcpStream::connect(("127.0.0.1", self.port));
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.signal_shutdown();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.watchdog.take() {
            let _ = h.join();
        }
    }
}

/// The deadline watchdog: every tick, fire the cancel token of any
/// non-terminal job past its deadline. Queued victims are transitioned
/// immediately (there is no simulation to unwind); running victims are
/// unwound cooperatively by the machine at its next publish cadence.
/// Exits on shutdown — injected stalls also watch the shutdown flag, so
/// the drain never waits out a stall the watchdog can no longer cancel.
fn deadline_watchdog(state: &Arc<ServeState>) {
    while !state.shutting_down.load(Ordering::Relaxed) {
        std::thread::sleep(Duration::from_millis(state.deadline_tick_ms));
        let now = Instant::now();
        let expired: Vec<Arc<JobEntry>> = {
            let jobs = state.jobs.lock().unwrap();
            jobs.values()
                .filter(|e| now >= e.deadline && !e.phase.lock().unwrap().is_terminal())
                .cloned()
                .collect()
        };
        for entry in expired {
            let id = entry.spec.digest_hex();
            state.flightrec.record("deadline.fired", Some(&id), "watchdog tick");
            state.log.warn("serve.deadline_fired").str("digest", &id).emit();
            entry.cancel.cancel(CancelKind::Deadline);
            let queued = matches!(*entry.phase.lock().unwrap(), JobPhase::Queued);
            if queued {
                mark_cancelled(state, &entry);
            }
        }
    }
}

/// Transition a job to its cancelled terminal phase, exactly once. The
/// phase is derived from the token (first writer wins there), so racing
/// supervisors agree on the verdict.
fn mark_cancelled(state: &ServeState, entry: &JobEntry) {
    let Some(kind) = entry.cancel.kind() else { return };
    let mut phase = entry.phase.lock().unwrap();
    if phase.is_terminal() {
        return;
    }
    let id = entry.spec.digest_hex();
    *phase = match kind {
        CancelKind::Client => {
            state.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
            state.flightrec.record("job.cancelled", Some(&id), "client cancel");
            JobPhase::Cancelled
        }
        CancelKind::Deadline => {
            state.jobs_deadline_exceeded.fetch_add(1, Ordering::Relaxed);
            state.flightrec.record("job.deadline_exceeded", Some(&id), "deadline kill");
            JobPhase::DeadlineExceeded
        }
    };
    drop(phase);
    state
        .metrics
        .job_e2e_ns
        .record(entry.submitted_at.elapsed().as_nanos() as u64);
    if matches!(kind, CancelKind::Deadline) {
        // A deadline kill is a dump trigger: the ring around it is the
        // evidence for *why* the job overran.
        state.flightrec.dump("deadline_exceeded", Some(&id));
    }
    entry.probe.finish();
}

fn handle_connection(stream: TcpStream, state: &Arc<ServeState>) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(state.read_timeout_ms)));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(state.write_timeout_ms)));
    let Ok(write_half) = stream.try_clone() else { return };
    let mut write_half = write_half;
    let mut reader = BufReader::new(stream);
    loop {
        match read_request(&mut reader, &state.limits) {
            Ok(Some(req)) => {
                let keep_going = respond(&mut write_half, &req, state);
                if !keep_going || state.shutting_down.load(Ordering::Relaxed) {
                    break;
                }
            }
            // Clean close between requests.
            Ok(None) => break,
            // Broken traffic is *answered*, then the connection closes:
            // a client that can read a status line learns what it did
            // wrong instead of diagnosing a silent hangup.
            Err(HttpError::Malformed(e)) => {
                let rid = state.metrics.next_request_id();
                state.log.warn("http.malformed").str("rid", &rid).str("error", &e).emit();
                state.metrics.observe_request("other", 400, 0);
                let _ = write_response(
                    &mut write_half,
                    400,
                    &[("x-asf-request-id", rid)],
                    &format!("{{\"error\": {}}}\n", escape(&e)),
                );
                break;
            }
            Err(HttpError::TooLarge(len)) => {
                let rid = state.metrics.next_request_id();
                state.log.warn("http.too_large").str("rid", &rid).u64("len", len as u64).emit();
                state.metrics.observe_request("other", 413, 0);
                let _ = write_response(
                    &mut write_half,
                    413,
                    &[("x-asf-request-id", rid)],
                    &format!(
                        "{{\"error\": \"request body of {len} bytes exceeds the \
                         {}-byte limit\"}}\n",
                        state.limits.max_body
                    ),
                );
                break;
            }
            // A request was started but never finished arriving: 408.
            Err(HttpError::Timeout { started: true }) => {
                let rid = state.metrics.next_request_id();
                state.log.warn("http.timeout").str("rid", &rid).emit();
                state.metrics.observe_request("other", 408, 0);
                let _ = write_response(
                    &mut write_half,
                    408,
                    &[("x-asf-request-id", rid)],
                    "{\"error\": \"timed out reading request\"}\n",
                );
                break;
            }
            // Idle keep-alive expiry or transport failure: just close.
            Err(HttpError::Timeout { started: false }) | Err(HttpError::Io(_)) => break,
        }
    }
}

/// Per-request instrumentation context: the correlation id (returned as
/// `x-asf-request-id` and stamped on every log line), the endpoint label
/// for the request counters, and the parse-time anchor for the duration
/// histogram. Every response goes through [`reply`], so no path can skip
/// the id or the metrics.
struct ReqCtx {
    rid: String,
    endpoint: &'static str,
    t0: Instant,
}

/// The single response choke point: append the correlation id, write,
/// count, time, log.
fn reply(
    stream: &mut TcpStream,
    state: &ServeState,
    ctx: &ReqCtx,
    status: u16,
    extra_headers: &[(&str, String)],
    body: &str,
) -> std::io::Result<()> {
    reply_typed(stream, state, ctx, status, "application/json", extra_headers, body)
}

/// [`reply`] with an explicit content type (the OpenMetrics endpoint).
fn reply_typed(
    stream: &mut TcpStream,
    state: &ServeState,
    ctx: &ReqCtx,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, String)],
    body: &str,
) -> std::io::Result<()> {
    let mut headers: Vec<(&str, String)> = Vec::with_capacity(extra_headers.len() + 1);
    headers.extend(extra_headers.iter().map(|(n, v)| (*n, v.clone())));
    headers.push(("x-asf-request-id", ctx.rid.clone()));
    let outcome = write_response_typed(stream, status, content_type, &headers, body);
    let elapsed_ns = ctx.t0.elapsed().as_nanos() as u64;
    state.metrics.observe_request(ctx.endpoint, status, elapsed_ns);
    state
        .log
        .debug("http.respond")
        .str("rid", &ctx.rid)
        .str("endpoint", ctx.endpoint)
        .u64("status", u64::from(status))
        .u64("dur_ns", elapsed_ns)
        .emit();
    outcome
}

/// Route one request; returns `false` when the connection should close.
fn respond(stream: &mut TcpStream, req: &Request, state: &Arc<ServeState>) -> bool {
    let segments: Vec<&str> = req.path.trim_matches('/').split('/').collect();
    let ctx = ReqCtx {
        rid: state.metrics.next_request_id(),
        endpoint: endpoint_label(req.method.as_str(), segments.as_slice()),
        t0: Instant::now(),
    };
    let outcome = match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["v1", "healthz"]) => {
            reply(stream, state, &ctx, 200, &[], &state.healthz_json())
        }
        ("POST", ["v1", "jobs"]) => handle_submit(stream, req, state, &ctx),
        ("GET", ["v1", "jobs", id]) => handle_status(stream, id, state, &ctx),
        ("DELETE", ["v1", "jobs", id]) => handle_cancel(stream, id, state, &ctx),
        ("GET", ["v1", "jobs", id, "result"]) => handle_result(stream, id, state, &ctx),
        ("GET", ["v1", "jobs", id, artifact @ ("metrics" | "trace")]) => {
            handle_artifact(stream, id, artifact, state, &ctx)
        }
        ("GET", ["v1", "cache", "stats"]) => {
            reply(stream, state, &ctx, 200, &[], &state.stats_json())
        }
        ("GET", ["v1", "metrics", "prometheus"]) => reply_typed(
            stream,
            state,
            &ctx,
            200,
            "text/plain; version=0.0.4; charset=utf-8",
            &[],
            &state.prometheus_text(),
        ),
        ("GET", ["v1", "flightrec"]) => {
            reply(stream, state, &ctx, 200, &[], &state.flightrec.to_json("snapshot", None))
        }
        ("POST", ["v1", "shutdown"]) => {
            state.log.info("serve.shutdown").str("rid", &ctx.rid).emit();
            let r = reply(stream, state, &ctx, 200, &[], "{\"shutting_down\": true}\n");
            state.shutting_down.store(true, Ordering::Relaxed);
            // Wake the accept loop so it observes the flag even when no
            // further client ever connects.
            if let Ok(addr) = stream.local_addr() {
                let _ = TcpStream::connect(addr);
            }
            let _ = r;
            return false;
        }
        (_, ["v1", ..]) => reply(
            stream,
            state,
            &ctx,
            405,
            &[],
            "{\"error\": \"method not allowed\"}\n",
        ),
        _ => reply(stream, state, &ctx, 404, &[], "{\"error\": \"no such endpoint\"}\n"),
    };
    outcome.is_ok()
}

fn depth_header(state: &ServeState) -> (&'static str, String) {
    ("x-asf-queue-depth", state.queue_depth().to_string())
}

fn submit_reply(id: &str, status: &str, depth: usize) -> String {
    format!("{{\"job\": \"{id}\", \"status\": \"{status}\", \"queue_depth\": {depth}}}\n")
}

fn handle_submit(
    stream: &mut TcpStream,
    req: &Request,
    state: &Arc<ServeState>,
    ctx: &ReqCtx,
) -> std::io::Result<()> {
    let body = String::from_utf8_lossy(&req.body);
    let submission = match Submission::from_json(&body) {
        Ok(sub) => sub,
        Err(e) => {
            state.log.warn("serve.submit_rejected").str("rid", &ctx.rid).str("error", &e).emit();
            return reply(
                stream,
                state,
                ctx,
                400,
                &[depth_header(state)],
                &format!("{{\"error\": {}}}\n", escape(&e)),
            );
        }
    };
    let spec = submission.spec;
    let digest = spec.digest();
    let id = spec.digest_hex();
    state.jobs_submitted.fetch_add(1, Ordering::Relaxed);
    // O(1) memoized repeat: answer straight from the store.
    if state.cache.lookup(digest).is_some() {
        state.submit_cache_hits.fetch_add(1, Ordering::Relaxed);
        mark_done_entry(state, digest, &spec);
        state.log.debug("serve.submit").str("rid", &ctx.rid).str("digest", &id).str("outcome", "cached").emit();
        return reply(
            stream,
            state,
            ctx,
            200,
            &[depth_header(state), ("x-asf-cache", "hit".to_string())],
            &submit_reply(&id, "cached", state.queue_depth()),
        );
    }
    // Coalesce onto an identical queued/running job.
    {
        let jobs = state.jobs.lock().unwrap();
        if let Some(entry) = jobs.get(&digest) {
            let phase = entry.phase.lock().unwrap().clone();
            if matches!(phase, JobPhase::Queued | JobPhase::Running) {
                state.submit_coalesced.fetch_add(1, Ordering::Relaxed);
                state.cache.counters.flight_joins.fetch_add(1, Ordering::Relaxed);
                state.log.debug("serve.submit").str("rid", &ctx.rid).str("digest", &id).str("outcome", "join").emit();
                return reply(
                    stream,
                    state,
                    ctx,
                    200,
                    &[depth_header(state), ("x-asf-cache", "join".to_string())],
                    &submit_reply(&id, phase.label(), state.queue_depth()),
                );
            }
        }
    }
    // The effective deadline: client ask clamped to the cap, server
    // default otherwise. Submission-level only — it never touches the
    // content address.
    let deadline_ms = submission
        .deadline_ms
        .unwrap_or(state.default_deadline_ms)
        .min(state.max_deadline_ms);
    // Admission control: reject instead of queueing unboundedly.
    let entry = Arc::new(JobEntry {
        spec: spec.clone(),
        phase: Mutex::new(JobPhase::Queued),
        probe: Arc::new(ProgressProbe::new()),
        cancel: Arc::new(CancelToken::new()),
        deadline: Instant::now() + Duration::from_millis(deadline_ms),
        submitted_at: Instant::now(),
    });
    let job_state = Arc::clone(state);
    let job_entry = Arc::clone(&entry);
    let submit = state.pool.submit(move || execute_job(&job_state, &job_entry));
    match submit {
        Ok(depth) => {
            state.jobs.lock().unwrap().insert(digest, entry);
            state.flightrec.record("job.queued", Some(&id), "");
            state
                .log
                .info("serve.submit")
                .str("rid", &ctx.rid)
                .str("digest", &id)
                .str("outcome", "queued")
                .u64("depth", depth as u64)
                .u64("deadline_ms", deadline_ms)
                .emit();
            reply(
                stream,
                state,
                ctx,
                200,
                &[depth_header(state), ("x-asf-cache", "miss".to_string())],
                &format!(
                    "{{\"job\": \"{id}\", \"status\": \"queued\", \
                     \"queue_depth\": {depth}, \"deadline_ms\": {deadline_ms}}}\n"
                ),
            )
        }
        Err(full) => {
            state.jobs_rejected.fetch_add(1, Ordering::Relaxed);
            state
                .log
                .warn("serve.submit_rejected")
                .str("rid", &ctx.rid)
                .str("digest", &id)
                .u64("depth", full.0 as u64)
                .emit();
            reply(
                stream,
                state,
                ctx,
                429,
                &[("x-asf-queue-depth", full.0.to_string())],
                &format!(
                    "{{\"error\": \"queue full\", \"queue_depth\": {}, \
                     \"queue_capacity\": {}}}\n",
                    full.0,
                    state.pool.capacity()
                ),
            )
        }
    }
}

/// Register (or update) a registry entry for a spec already answered from
/// the cache, so the status endpoint reports `done` for it.
fn mark_done_entry(state: &ServeState, digest: u64, spec: &JobSpec) {
    let mut jobs = state.jobs.lock().unwrap();
    let entry = jobs.entry(digest).or_insert_with(|| {
        Arc::new(JobEntry {
            spec: spec.clone(),
            phase: Mutex::new(JobPhase::Done),
            probe: Arc::new(ProgressProbe::new()),
            cancel: Arc::new(CancelToken::new()),
            deadline: Instant::now(),
            submitted_at: Instant::now(),
        })
    });
    *entry.phase.lock().unwrap() = JobPhase::Done;
}

/// Marks the job `Failed` if execution unwinds without reaching a normal
/// phase transition — a panicking job (injected or genuine) must leave a
/// terminal state behind, or resubmissions would coalesce onto a
/// permanently `running` ghost.
struct PhaseGuard<'a> {
    state: &'a ServeState,
    entry: &'a JobEntry,
    armed: bool,
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        // This drop only runs armed while unwinding a worker panic — the
        // flight-recorder dump turns "respawns == panics" into a
        // debuggable artifact naming the job that died. It is written
        // before the terminal phase is published, so a client that sees
        // `failed` also sees the dump.
        let id = self.entry.spec.digest_hex();
        self.state.flightrec.record("job.panic", Some(&id), "worker unwound");
        self.state.flightrec.dump("worker_panic", Some(&id));
        self.state.log.error("serve.worker_panic").str("digest", &id).emit();
        self.state.jobs_failed.fetch_add(1, Ordering::Relaxed);
        *self.entry.phase.lock().unwrap() =
            JobPhase::Failed("worker panicked during execution; resubmit to retry".to_string());
        self.state
            .metrics
            .job_e2e_ns
            .record(self.entry.submitted_at.elapsed().as_nanos() as u64);
        self.entry.probe.finish();
    }
}

/// Worker-side execution: run (or join) the computation, then publish the
/// phase transition.
fn execute_job(state: &Arc<ServeState>, entry: &Arc<JobEntry>) {
    // A supervisor may have fired the token while we were queued (client
    // cancel, or the deadline passed before a worker freed up): terminal
    // state without ever starting the simulation.
    if entry.cancel.kind().is_some() {
        mark_cancelled(state, entry);
        return;
    }
    state
        .metrics
        .queue_wait_ns
        .record(entry.submitted_at.elapsed().as_nanos() as u64);
    *entry.phase.lock().unwrap() = JobPhase::Running;
    let id = entry.spec.digest_hex();
    state.flightrec.record("job.running", Some(&id), "");
    state.log.debug("serve.job_running").str("digest", &id).emit();
    let mut guard = PhaseGuard { state, entry, armed: true };
    let digest = entry.spec.digest();
    if state.chaos.enabled() {
        let attempt = {
            let mut attempts = state.chaos_attempts.lock().unwrap();
            let counter = attempts.entry(digest).or_insert(0);
            let attempt = *counter;
            *counter += 1;
            attempt
        };
        let decision = state.chaos.job_decision(digest, attempt);
        if decision.stall {
            state.chaos_stalls_injected.fetch_add(1, Ordering::Relaxed);
            state.flightrec.record("chaos.stall", Some(&id), &format!("attempt {attempt}"));
            // Stall in small slices, watching the cancel token (so the
            // deadline watchdog cuts the stall short) and the shutdown
            // flag (so a drain never waits out a full stall).
            let stall_until = Instant::now() + Duration::from_millis(state.chaos.stall_ms);
            while Instant::now() < stall_until
                && entry.cancel.kind().is_none()
                && !state.shutting_down.load(Ordering::Relaxed)
            {
                std::thread::sleep(Duration::from_millis(5));
            }
            if entry.cancel.kind().is_some() {
                mark_cancelled(state, entry);
                guard.armed = false;
                return;
            }
        }
        if decision.panic {
            state.chaos_panics_injected.fetch_add(1, Ordering::Relaxed);
            state.flightrec.record("chaos.panic", Some(&id), &format!("attempt {attempt}"));
            // The PhaseGuard converts this into `failed`; the pool
            // supervisor counts it and respawns the worker.
            panic!("chaos: injected worker panic");
        }
    }
    let probe = Arc::clone(&entry.probe);
    let cancel = Arc::clone(&entry.cancel);
    let spec = entry.spec.clone();
    let execute_start = Instant::now();
    let result = state.cache.get_or_compute(digest, move || {
        run_spec_cancellable(&spec, Some(probe), Some(cancel))
    });
    state
        .metrics
        .execute_ns
        .record(execute_start.elapsed().as_nanos() as u64);
    guard.armed = false;
    match result {
        Ok(_) => {
            state.jobs_completed.fetch_add(1, Ordering::Relaxed);
            *entry.phase.lock().unwrap() = JobPhase::Done;
            state
                .metrics
                .job_e2e_ns
                .record(entry.submitted_at.elapsed().as_nanos() as u64);
            state.flightrec.record("job.done", Some(&id), "");
            state.log.info("serve.job_done").str("digest", &id).emit();
        }
        Err(e) => {
            // The token says whether this failure *is* a cancellation;
            // typed terminal states are never cached (`get_or_compute`
            // drops every Err on the floor).
            if entry.cancel.kind().is_some() {
                mark_cancelled(state, entry);
            } else {
                state.jobs_failed.fetch_add(1, Ordering::Relaxed);
                state.flightrec.record("job.failed", Some(&id), &e);
                state.log.error("serve.job_failed").str("digest", &id).str("error", &e).emit();
                *entry.phase.lock().unwrap() = JobPhase::Failed(e);
                state
                    .metrics
                    .job_e2e_ns
                    .record(entry.submitted_at.elapsed().as_nanos() as u64);
            }
        }
    }
}

fn lookup_entry(state: &ServeState, id: &str) -> Result<(u64, Option<Arc<JobEntry>>), String> {
    let digest = parse_digest_hex(id)?;
    let entry = state.jobs.lock().unwrap().get(&digest).cloned();
    Ok((digest, entry))
}

fn handle_status(
    stream: &mut TcpStream,
    id: &str,
    state: &Arc<ServeState>,
    ctx: &ReqCtx,
) -> std::io::Result<()> {
    let (digest, entry) = match lookup_entry(state, id) {
        Ok(pair) => pair,
        Err(e) => {
            return reply(stream, state, ctx, 400, &[], &format!("{{\"error\": {}}}\n", escape(&e)))
        }
    };
    if let Some(entry) = entry {
        let phase = entry.phase.lock().unwrap().clone();
        let error = match &phase {
            JobPhase::Failed(e) => format!(", \"error\": {}", escape(e)),
            _ => String::new(),
        };
        let body = format!(
            "{{\"job\": \"{id}\", \"status\": \"{}\", \"spec\": {}, \
             \"progress\": {}{error}, \"queue_depth\": {}}}\n",
            phase.label(),
            entry.spec.canonical(),
            entry.probe.snapshot().to_json(),
            state.queue_depth(),
        );
        return reply(stream, state, ctx, 200, &[depth_header(state)], &body);
    }
    // Not registered this lifetime — the disk store may still answer.
    if state.cache.lookup(digest).is_some() {
        return reply(
            stream,
            state,
            ctx,
            200,
            &[depth_header(state)],
            &format!("{{\"job\": \"{id}\", \"status\": \"cached\"}}\n"),
        );
    }
    reply(stream, state, ctx, 404, &[], "{\"error\": \"unknown job\"}\n")
}

/// `DELETE /v1/jobs/:id` — fire the job's cancel token with client
/// provenance. Queued jobs transition immediately; running jobs are
/// unwound at the machine's next cooperative check (the response says
/// `cancelling`, the status endpoint reports the landing). A job already
/// in a terminal state answers 409 — there is nothing left to cancel.
fn handle_cancel(
    stream: &mut TcpStream,
    id: &str,
    state: &Arc<ServeState>,
    ctx: &ReqCtx,
) -> std::io::Result<()> {
    let (digest, entry) = match lookup_entry(state, id) {
        Ok(pair) => pair,
        Err(e) => {
            return reply(stream, state, ctx, 400, &[], &format!("{{\"error\": {}}}\n", escape(&e)))
        }
    };
    let Some(entry) = entry else {
        // Completed in a previous lifetime (disk store) — terminal, so
        // cancelling is a conflict; never-seen is a 404.
        return if state.cache.lookup(digest).is_some() {
            reply(
                stream,
                state,
                ctx,
                409,
                &[],
                &format!("{{\"job\": \"{id}\", \"error\": \"job already cached\"}}\n"),
            )
        } else {
            reply(stream, state, ctx, 404, &[], "{\"error\": \"unknown job\"}\n")
        };
    };
    let phase = entry.phase.lock().unwrap().clone();
    if phase.is_terminal() {
        return reply(
            stream,
            state,
            ctx,
            409,
            &[],
            &format!(
                "{{\"job\": \"{id}\", \"status\": \"{}\", \
                 \"error\": \"job already terminal\"}}\n",
                phase.label()
            ),
        );
    }
    state.log.info("serve.cancel").str("rid", &ctx.rid).str("digest", id).emit();
    state.flightrec.record("cancel.requested", Some(id), "client");
    entry.cancel.cancel(CancelKind::Client);
    if matches!(phase, JobPhase::Queued) {
        // No simulation to unwind — terminal right now.
        mark_cancelled(state, &entry);
    }
    let landed = entry.phase.lock().unwrap().label();
    reply(
        stream,
        state,
        ctx,
        200,
        &[depth_header(state)],
        &format!(
            "{{\"job\": \"{id}\", \"status\": \"{}\"}}\n",
            if landed == "running" { "cancelling" } else { landed }
        ),
    )
}

fn handle_result(
    stream: &mut TcpStream,
    id: &str,
    state: &Arc<ServeState>,
    ctx: &ReqCtx,
) -> std::io::Result<()> {
    let (digest, entry) = match lookup_entry(state, id) {
        Ok(pair) => pair,
        Err(e) => {
            return reply(stream, state, ctx, 400, &[], &format!("{{\"error\": {}}}\n", escape(&e)))
        }
    };
    // Pending phases answer 202 without charging the cache a miss.
    if let Some(entry) = &entry {
        let phase = entry.phase.lock().unwrap().clone();
        match phase {
            JobPhase::Queued | JobPhase::Running => {
                return reply(
                    stream,
                    state,
                    ctx,
                    202,
                    &[depth_header(state)],
                    &format!("{{\"job\": \"{id}\", \"status\": \"{}\"}}\n", phase.label()),
                );
            }
            JobPhase::Failed(e) => {
                return reply(
                    stream,
                    state,
                    ctx,
                    500,
                    &[],
                    &format!(
                        "{{\"job\": \"{id}\", \"status\": \"failed\", \"error\": {}}}\n",
                        escape(&e)
                    ),
                );
            }
            // Cancelled jobs have no result, by construction: nothing was
            // cached and nothing ever will be for this submission. 410
            // (not 404) tells the client the job existed and is gone.
            JobPhase::Cancelled | JobPhase::DeadlineExceeded => {
                return reply(
                    stream,
                    state,
                    ctx,
                    410,
                    &[],
                    &format!(
                        "{{\"job\": \"{id}\", \"status\": \"{}\", \
                         \"error\": \"job was cancelled; resubmit to compute\"}}\n",
                        phase.label()
                    ),
                );
            }
            JobPhase::Done => {}
        }
    }
    match state.cache.lookup(digest) {
        Some(hit) => reply(
            stream,
            state,
            ctx,
            200,
            &[("x-asf-cache", "hit".to_string())],
            &hit.body,
        ),
        None if entry.is_some() => {
            // Done in the registry but evicted from memory *and* disk
            // (memory-only deployments): recompute on resubmission.
            reply(stream, state, ctx, 404, &[], "{\"error\": \"result evicted; resubmit\"}\n")
        }
        None => reply(stream, state, ctx, 404, &[], "{\"error\": \"unknown job\"}\n"),
    }
}

fn handle_artifact(
    stream: &mut TcpStream,
    id: &str,
    artifact: &str,
    state: &Arc<ServeState>,
    ctx: &ReqCtx,
) -> std::io::Result<()> {
    let (digest, _) = match lookup_entry(state, id) {
        Ok(pair) => pair,
        Err(e) => {
            return reply(stream, state, ctx, 400, &[], &format!("{{\"error\": {}}}\n", escape(&e)))
        }
    };
    let Some(hit) = state.cache.lookup(digest) else {
        return reply(stream, state, ctx, 404, &[], "{\"error\": \"unknown or pending job\"}\n");
    };
    let payload = if artifact == "metrics" { &hit.metrics } else { &hit.trace };
    match payload {
        Some(text) => reply(stream, state, ctx, 200, &[], text),
        None => reply(
            stream,
            state,
            ctx,
            404,
            &[],
            "{\"error\": \"job was not submitted with observe: true\"}\n",
        ),
    }
}
