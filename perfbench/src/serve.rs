//! `serve-zipf`: an in-process `asf-serve` with one pool worker and a
//! memory-only cache, driven by one open-loop generator connection.
//!
//! Set-up starts the server and warms its cache with a hot set of small
//! specs. The generator then sends a seeded Zipf stream at one fixed rate,
//! well below saturation. Most requests repeat a hot spec: submit, answered
//! from the cache, then fetch the result (http → spec → cache). A few
//! percent are never-seen specs: submit, queue, pool, `Machine::run`, cache
//! insert and LRU eviction; a second connection polls for their results.
//! Every latency runs from the request's due time, so a stall also charges
//! the requests queued behind it.

use crate::cal::{self, Cal};
use crate::stats::{mean, median, percentile, us, Better, Series, Windowed, WINDOW};
use crate::trace::{self, Open, Tracer};
use crate::{mix_seed, Report, BENCHES};
use asf_core::detector::DetectorKind;
use asf_machine::machine::{Machine, SimConfig};
use asf_mem::rng::SimRng;
use asf_serve::cache::{CacheConfig, CachedResult, ResultCache};
use asf_serve::http::{read_request, write_response, Client, HttpLimits, Response};
use asf_serve::runner::result_body;
use asf_serve::server::{ServeOpts, Server};
use asf_serve::spec::{JobSpec, Submission};
use asf_stats::json::parse;
use asf_stats::openmetrics::parse_exposition;
use asf_stats::slog::Logger;
use asf_workloads::Scale;
use std::collections::HashMap;
use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Hot specs warmed into the cache at set-up.
const HOT: usize = 16;
/// In-memory cache entries: the hot set plus room for 48 misses, so misses
/// evict older misses and never a hot spec.
const CACHE_CAPACITY: usize = 64;
/// Requests per second of the open loop. A hit takes ~200 µs on the
/// reference box, so the generator's connection is busy a fifth of the
/// time, and a neighbour that triples that cost still builds no backlog.
/// 5000/s built a growing backlog there.
const RATE: f64 = 1000.0;
/// Requests per thousand that name a never-seen spec: about 10 misses a
/// second, so the one pool worker is busy a few percent of the time and
/// its simulations stay out of the hit path's p90.
const MISS_PER_MILLE: u64 = 10;
/// Set-ups per run; `setup_s` is their median and the first one is measured.
const SETUPS: usize = 15;
/// The pacer sleeps until this long before a due time, then spins.
const SPIN: Duration = Duration::from_micros(250);
/// Time between two polls of a pending miss. The poller sleeps rather than
/// spins: a spinning poller would take the CPU the pool worker needs.
const POLL_GAP: Duration = Duration::from_millis(1);
/// A hit answered within this time counts toward `within_limit_frac`.
pub const HIT_LIMIT: Duration = Duration::from_millis(5);
/// A miss answered within this time counts toward `within_limit_frac`.
pub const MISS_LIMIT: Duration = Duration::from_millis(100);
/// A 429 is retried this many times before the request counts as failed.
const RETRIES: u32 = 4;
/// A miss not servable after this long counts as failed.
const MISS_GIVE_UP: Duration = Duration::from_secs(20);
/// The calibration kernel runs after every this many requests: ten times a
/// second, so a hit window is scaled by the ten kernel runs around it
/// (`stats::SCALE_SPAN`).
const CAL_EVERY: u64 = 100;
/// Hits are windowed by the 100 ms: a window holds 100 of them, enough for
/// a p90. On the reference box the hypervisor stole CPU time in bursts
/// (6–11 % of it in some phases), and finer windows leave more quiet ones
/// to find: in one such run the quiet-quartile hit p90 was 325 µs over
/// 1-second windows and 290 µs over 100 ms ones, against about 240 µs in
/// quiet runs.
const HIT_WINDOW: Duration = Duration::from_millis(100);
/// Traced runs trace one request in this many; the rest are the untraced
/// reference for `trace.overhead_frac`.
const TRACE_EVERY: u64 = 16;

/// The detectors specs are drawn from.
const DETECTORS: [DetectorKind; 3] = [
    DetectorKind::Baseline,
    DetectorKind::SubBlock(4),
    DetectorKind::Perfect,
];

fn spec_json(spec: &JobSpec) -> String {
    format!(
        "{{\"bench\": \"{}\", \"detector\": \"{}\", \"scale\": \"small\", \"seed\": {}}}",
        spec.bench,
        spec.detector.label(),
        spec.seed
    )
}

/// The seeded inputs of one run. Which kernel and detector each spec names
/// is fixed (round-robin), so every seed asks for the same amount of
/// simulation; the seed varies the specs' simulation seeds and the stream.
pub struct Inputs {
    /// The hot set, most popular first (Zipf rank order).
    pub hot: Vec<JobSpec>,
    miss_base: u64,
    stream: SimRng,
}

impl Inputs {
    /// Derive the inputs from the benchmark seed. Hot seeds lie below 2^40
    /// and miss seeds at or above 2^41, so a miss is never a hot spec.
    pub fn new(seed: u64) -> Inputs {
        let mut rng = SimRng::seed_from_u64(mix_seed(seed, 3));
        let hot = (0..HOT)
            .map(|k| round_robin_spec(k, rng.next_u64() >> 24))
            .collect();
        let miss_base = (1u64 << 41) + (rng.next_u64() >> 24);
        Inputs {
            hot,
            miss_base,
            stream: SimRng::seed_from_u64(mix_seed(seed, 4)),
        }
    }

    /// The `j`-th never-seen spec.
    pub fn miss(&self, j: u64) -> JobSpec {
        round_robin_spec(j as usize, self.miss_base + j)
    }
}

fn round_robin_spec(k: usize, seed: u64) -> JobSpec {
    let det = DETECTORS[(k / BENCHES.len()) % DETECTORS.len()];
    JobSpec::new(BENCHES[k % BENCHES.len()], det, Scale::Small, seed)
}

/// Sleep until shortly before `due`, then spin, so the pacer's own wake-up
/// does not dominate what it measures.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// Submit with bounded retries on 429. Returns the final response and how
/// many 429s it met.
fn submit(client: &mut Client, body: &str) -> (std::io::Result<Response>, u64) {
    let mut rejected = 0;
    loop {
        let r = client.post("/v1/jobs", body);
        match &r {
            Ok(resp) if resp.status == 429 && rejected < u64::from(RETRIES) => {
                rejected += 1;
                std::thread::sleep(Duration::from_millis(1 << rejected));
            }
            _ => return (r, rejected),
        }
    }
}

/// The `spec_digest` a result body names.
fn body_spec_digest(body: &str) -> Result<String, String> {
    Ok(parse(body)?.field("spec_digest")?.as_str()?.to_string())
}

/// Simulated accesses recorded in a result body's stats.
fn body_accesses(body: &str) -> Result<u64, String> {
    let v = parse(body)?;
    let stats = v.field("stats")?;
    Ok(stats.field("l1_hits")?.as_u64()? + stats.field("l1_misses")?.as_u64()?)
}

/// Checks served result bodies: byte-identical to the first body served for
/// their digest, and naming the spec's own digest.
#[derive(Default)]
struct Bodies {
    first: HashMap<u64, Arc<String>>,
}

impl Bodies {
    fn check(&mut self, spec: &JobSpec, body: &[u8]) -> Result<(), String> {
        let digest = spec.digest();
        if let Some(first) = self.first.get(&digest) {
            return if first.as_bytes() == body {
                Ok(())
            } else {
                Err(format!(
                    "body for {} differs from the first one served",
                    spec.digest_hex()
                ))
            };
        }
        let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
        let named = body_spec_digest(text)?;
        if named != spec.digest_hex() {
            return Err(format!(
                "body names spec_digest {named}, expected {}",
                spec.digest_hex()
            ));
        }
        self.first.insert(digest, Arc::new(text.to_string()));
        Ok(())
    }
}

/// A submitted miss the poller waits on.
struct Pending {
    id: u64,
    spec: JobSpec,
    due: Instant,
}

/// What the poller saw, by the misses' due times.
struct Polled {
    latencies_ms: Series,
    within: Windowed,
    ok: u64,
    failed: u64,
    accesses: u64,
    tracer: Tracer,
}

/// Poll each pending miss until its result is servable, on a connection of
/// its own. Windows count from `start`, like the generator's.
fn poller(addr: String, rx: mpsc::Receiver<Pending>, tracer: Tracer, start: Instant) -> Polled {
    let mut out = Polled {
        latencies_ms: Series::new(start),
        within: Windowed::starting_at(start, WINDOW),
        ok: 0,
        failed: 0,
        accesses: 0,
        tracer,
    };
    let mut client = match Client::connect(&addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("serve-zipf: poller cannot connect: {e}");
            for p in rx.iter() {
                out.failed += 1;
                out.within.push(p.due, 0.0);
            }
            return out;
        }
    };
    let mut pending: Vec<Pending> = Vec::new();
    let mut open = true;
    let mut next = Instant::now();
    while open || !pending.is_empty() {
        if pending.is_empty() {
            match rx.recv() {
                Ok(p) => pending.push(p),
                Err(_) => break,
            }
        }
        loop {
            match rx.try_recv() {
                Ok(p) => pending.push(p),
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    open = false;
                    break;
                }
            }
        }
        if let Some(wait) = next.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        pending.retain(|p| {
            let t0 = Instant::now();
            let r = client.get(&format!("/v1/jobs/{}/result", p.spec.digest_hex()));
            let done = Instant::now();
            out.tracer.leaf("http.poll", p.id, t0, done);
            let verdict = match r {
                Ok(resp) if resp.status == 202 => {
                    if done - p.due < MISS_GIVE_UP {
                        return true;
                    }
                    Err("still pending when the benchmark gave up".to_string())
                }
                Ok(resp) if resp.status == 200 => {
                    let body = String::from_utf8_lossy(&resp.body);
                    match body_spec_digest(&body) {
                        Ok(named) if named == p.spec.digest_hex() => body_accesses(&body),
                        Ok(named) => Err(format!("body names spec_digest {named}")),
                        Err(e) => Err(e),
                    }
                    .map(|acc| out.accesses += acc)
                }
                Ok(resp) => Err(format!("result answered {}: {}", resp.status, resp.text())),
                Err(e) => Err(e.to_string()),
            };
            match verdict {
                Ok(()) => {
                    let latency = done - p.due;
                    out.ok += 1;
                    out.latencies_ms.push(p.due, latency.as_secs_f64() * 1e3);
                    out.within
                        .push(p.due, f64::from(u8::from(latency <= MISS_LIMIT)));
                }
                Err(e) => {
                    eprintln!("serve-zipf: miss {} failed: {e}", p.spec.digest_hex());
                    out.failed += 1;
                    out.within.push(p.due, 0.0);
                }
            }
            false
        });
        next = Instant::now() + POLL_GAP;
    }
    out
}

/// One scrape of the server's counters.
struct Scrape {
    prometheus: String,
    evictions: u64,
}

impl Scrape {
    /// Scrape on a short-lived connection of its own: the server closes
    /// connections idle for longer than its read timeout.
    fn take(addr: &str) -> Result<Scrape, String> {
        let mut c = Client::connect(addr).map_err(|e| e.to_string())?;
        let prometheus = c
            .get("/v1/metrics/prometheus")
            .map_err(|e| e.to_string())?
            .text();
        let stats = parse(&c.get("/v1/cache/stats").map_err(|e| e.to_string())?.text())?;
        let evictions = stats.field("cache")?.field("evictions")?.as_u64()?;
        Ok(Scrape {
            prometheus,
            evictions,
        })
    }

    /// `(sum, count)` of a histogram family.
    fn histogram(&self, family: &str) -> (f64, f64) {
        let e = parse_exposition(&self.prometheus).unwrap_or_default();
        let get = |suffix: &str| e.value(&format!("{family}_{suffix}"), &[]).unwrap_or(0.0);
        (get("sum"), get("count"))
    }

    /// Mean of a histogram's observations since `before`, converted from
    /// ns to ms.
    fn mean_ms_since(&self, before: &Scrape, family: &str) -> f64 {
        let ((s1, c1), (s0, c0)) = (self.histogram(family), before.histogram(family));
        if c1 > c0 {
            (s1 - s0) / (c1 - c0) / 1e6
        } else {
            0.0
        }
    }
}

/// Layer replays: the calls a hit makes inside the server, timed here on
/// the same inputs, outside any request's latency.
struct Layers {
    cache: ResultCache,
    results: Vec<CachedResult>,
    stats: asf_stats::run::RunStats,
    stats_spec: JobSpec,
    sink: TcpStream,
    drain: std::thread::JoinHandle<()>,
    next_key: u64,
    samples: HashMap<&'static str, Vec<f64>>,
}

impl Layers {
    fn new(hot: &[JobSpec], bodies: &Bodies) -> Result<Layers, String> {
        let cache = ResultCache::new(CacheConfig {
            capacity: CACHE_CAPACITY,
            disk_dir: None,
        })
        .map_err(|e| e.to_string())?;
        let mut results = Vec::new();
        for spec in hot {
            let body = bodies
                .first
                .get(&spec.digest())
                .ok_or("hot spec never served")?;
            let stats_digest = parse(body)?.field("stats_digest")?.as_str()?.to_string();
            let result = CachedResult {
                spec_digest: spec.digest(),
                stats_digest: u64::from_str_radix(&stats_digest, 16).map_err(|e| e.to_string())?,
                body: Arc::clone(body),
                metrics: None,
                trace: None,
            };
            cache.insert(spec.digest(), result.clone());
            results.push(result);
        }
        // `result_body` needs a run's stats: run the first hot spec here,
        // and check that the server served exactly what it renders.
        let stats_spec = hot[0].clone();
        let workload =
            asf_workloads::by_name(&stats_spec.bench, stats_spec.scale).ok_or("unknown bench")?;
        let cfg = SimConfig::paper_seeded(stats_spec.detector, stats_spec.seed);
        let stats = Machine::new(workload.as_ref(), cfg)
            .try_run_to_completion()
            .map_err(|e| e.to_string())?
            .stats;
        if result_body(&stats_spec, &stats).as_bytes() != results[0].body.as_bytes() {
            return Err("served body differs from result_body of a direct run".to_string());
        }
        // `write_response` writes to a `TcpStream`: a loopback pair whose
        // far end a thread drains.
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let local = listener.local_addr().map_err(|e| e.to_string())?;
        let sink = TcpStream::connect(local).map_err(|e| e.to_string())?;
        let (mut far, _) = listener.accept().map_err(|e| e.to_string())?;
        let drain = std::thread::spawn(move || {
            let mut buf = [0u8; 1 << 16];
            while matches!(far.read(&mut buf), Ok(n) if n > 0) {}
        });
        Ok(Layers {
            cache,
            results,
            stats,
            stats_spec,
            sink,
            drain,
            next_key: 1 << 63,
            samples: HashMap::new(),
        })
    }

    fn time<T>(
        &mut self,
        tr: &mut Tracer,
        name: &'static str,
        req: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let s = tr.begin(name, req);
        let t0 = Instant::now();
        let out = f(self);
        let d = us(t0.elapsed());
        tr.end(s);
        self.samples.entry(name).or_default().push(d);
        out
    }

    /// Replay one hit of hot spec `k` whose submission body is `body`.
    fn replay(&mut self, tr: &mut Tracer, req: u64, k: usize, body: &str) {
        let raw = format!(
            "POST /v1/jobs HTTP/1.1\r\nhost: asf-serve\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        let limits = HttpLimits::default();
        self.time(tr, "http.read", req, |_| {
            read_request(&mut raw.as_bytes(), &limits).map(|r| r.is_some())
        })
        .expect("replayed request parses");
        let sub = self
            .time(tr, "spec.parse", req, |_| Submission::from_json(body))
            .expect("replayed spec parses");
        let digest = self.time(tr, "spec.digest", req, |_| sub.spec.digest());
        let hit = self.time(tr, "cache.lookup", req, |l| l.cache.lookup(digest));
        let result = hit.unwrap_or_else(|| self.results[k].clone());
        let key = self.next_key;
        self.next_key += 1;
        self.time(tr, "cache.insert", req, |l| {
            l.cache.insert(key, result.clone())
        });
        let headers = [("x-asf-cache", "hit".to_string())];
        self.time(tr, "http.write", req, |l| {
            write_response(&mut l.sink, 200, &headers, &result.body)
        })
        .expect("loopback write");
        self.time(tr, "runner.result_body", req, |l| {
            result_body(&l.stats_spec, &l.stats).len()
        });
    }

    fn median(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(0.0, |v| median(v))
    }

    /// Close the loopback pair and wait for the drain thread.
    fn finish(self) {
        drop(self.sink);
        let _ = self.drain.join();
    }
}

/// Start a server and warm its cache with the hot set through HTTP.
/// Returns the server and how many warm results failed their checks.
fn start_and_warm(
    hot: &[JobSpec],
    tr: &mut Tracer,
    bodies: &mut Bodies,
) -> Result<(Server, u64), String> {
    let s = tr.begin("server.start", 0);
    let server = Server::start(ServeOpts {
        workers: 1,
        queue_capacity: 64,
        cache_capacity: CACHE_CAPACITY,
        disk_dir: None,
        log: Logger::disabled(),
        ..ServeOpts::default()
    })
    .map_err(|e| format!("server start: {e}"))?;
    tr.end(s);
    let s = tr.begin("server.warm", 0);
    let mut client = Client::connect(&server.addr()).map_err(|e| e.to_string())?;
    for spec in hot {
        match submit(&mut client, &spec_json(spec)).0 {
            Ok(resp) if resp.status == 200 => {}
            Ok(resp) => {
                return Err(format!(
                    "warm submit answered {}: {}",
                    resp.status,
                    resp.text()
                ))
            }
            Err(e) => return Err(format!("warm submit: {e}")),
        }
    }
    let mut failed = 0;
    for spec in hot {
        let path = format!("/v1/jobs/{}/result", spec.digest_hex());
        loop {
            let resp = client.get(&path).map_err(|e| format!("warm result: {e}"))?;
            match resp.status {
                202 => std::thread::sleep(Duration::from_micros(200)),
                200 => {
                    if let Err(e) = bodies.check(spec, &resp.body) {
                        eprintln!("serve-zipf: warm result: {e}");
                        failed += 1;
                    }
                    break;
                }
                other => return Err(format!("warm result answered {other}: {}", resp.text())),
            }
        }
    }
    tr.end(s);
    Ok((server, failed))
}

/// One kernel run, then one timed set-up, as a root span. Counts the warm
/// results as operations. Returns the server, the set-up's seconds and the
/// kernel's µs.
fn set_up(
    hot: &[JobSpec],
    tr: &mut Tracer,
    bodies: &mut Bodies,
    cal: &mut Cal,
    report: &mut Report,
) -> Result<(Server, f64, f64), String> {
    let root = tr.begin("serve.setup", 0);
    let cal_us = tr.time("box.cal", 0, || cal.run());
    let t0 = Instant::now();
    let (server, failed) = start_and_warm(hot, tr, bodies)?;
    let secs = t0.elapsed().as_secs_f64();
    tr.end(root);
    for i in 0..HOT as u64 {
        report.op(i >= failed);
    }
    Ok((server, secs, cal_us))
}

/// Run the workload for `seconds` and report its metrics.
pub fn run(seed: u64, seconds: f64, trace_on: bool) -> Result<Report, String> {
    let mut report = Report::default();
    let inputs = Inputs::new(seed);
    let hot = &inputs.hot;
    let mut rng = inputs.stream.clone();
    let hot_json: Vec<String> = hot.iter().map(spec_json).collect();
    let zipf: Vec<f64> = {
        let total: f64 = (1..=HOT).map(|k| 1.0 / k as f64).sum();
        let mut acc = 0.0;
        (1..=HOT)
            .map(|k| {
                acc += 1.0 / k as f64 / total;
                acc
            })
            .collect()
    };

    let epoch = Instant::now();
    let mut tr = Tracer::new(trace_on, epoch, 0);
    let mut bodies = Bodies::default();
    let mut cal = Cal::new();
    // The measured server is the first one. The other set-ups come after
    // the run, so their thread churn stays out of the run's peak RSS.
    let (server, secs, cal_us) = set_up(hot, &mut tr, &mut bodies, &mut cal, &mut report)?;
    let (mut setups, mut setup_cal_us) = (vec![secs], vec![cal_us]);
    let addr = server.addr();
    let mut layers = if trace_on {
        Some(Layers::new(hot, &bodies)?)
    } else {
        None
    };
    let mut client = Client::connect(&addr).map_err(|e| e.to_string())?;
    let before = Scrape::take(&addr)?;

    let gap = Duration::from_secs_f64(1.0 / RATE);
    let start = Instant::now() + Duration::from_millis(5);
    let end = start + Duration::from_secs_f64(seconds);
    let (tx, rx) = mpsc::channel::<Pending>();
    let poll_tracer = Tracer::new(trace_on, epoch, 1);
    let poll_addr = addr.clone();
    let poll = std::thread::spawn(move || poller(poll_addr, rx, poll_tracer, start));

    // Untraced hits by due-time window; traced ones apart, for the overhead.
    // Each window is scaled by the kernel runs around it (`Series::quiet`).
    let mut hit_us = Series::with_width(start, HIT_WINDOW);
    let mut within = Windowed::starting_at(start, WINDOW);
    // Sized up front: its growth would show in the run's peak RSS.
    let mut late_us = Vec::with_capacity((RATE * seconds) as usize + 1);
    let mut traced_hit_us = Vec::new();
    let (mut hits, mut misses, mut coalesced, mut rejected) = (0u64, 0u64, 0u64, 0u64);
    let mut due = start;
    let mut id = 0u64;
    let mut miss_seq = 0u64;
    while due < end {
        let traced = trace_on && id % TRACE_EVERY == 1;
        tr.set_on(traced);
        let is_miss = rng.below(1000) < MISS_PER_MILLE;
        let (spec, body, k) = if is_miss {
            let spec = inputs.miss(miss_seq);
            miss_seq += 1;
            let body = spec_json(&spec);
            (spec, body, usize::MAX)
        } else {
            let u = rng.f64();
            let k = zipf.iter().position(|&c| u < c).unwrap_or(HOT - 1);
            (hot[k].clone(), hot_json[k].clone(), k)
        };
        wait_until(due);
        let root: Open = tr.begin_at(if is_miss { "serve.miss" } else { "serve.hit" }, id, due);
        let sent = Instant::now();
        late_us.push(us(sent - due));
        tr.leaf("gen.late", id, due, sent);
        let s = tr.begin("http.submit", id);
        let (r, r429) = submit(&mut client, &body);
        tr.end(s);
        rejected += r429;
        let verdict: Result<(), String> = match r {
            Ok(resp) if resp.status == 200 => {
                match resp.header("x-asf-cache") {
                    Some("hit") => hits += 1,
                    Some("miss") => misses += 1,
                    Some("join") => coalesced += 1,
                    _ => {}
                }
                if is_miss {
                    // The poller completes the request; its latency is
                    // recorded there.
                    let _ = tx.send(Pending {
                        id,
                        spec: spec.clone(),
                        due,
                    });
                    Ok(())
                } else {
                    let s = tr.begin("http.result", id);
                    let r = client.get(&format!("/v1/jobs/{}/result", spec.digest_hex()));
                    tr.end(s);
                    match r {
                        Ok(resp) if resp.status == 200 => bodies.check(&spec, &resp.body),
                        Ok(resp) => {
                            Err(format!("result answered {}: {}", resp.status, resp.text()))
                        }
                        Err(e) => Err(format!("result: {e}")),
                    }
                }
            }
            Ok(resp) => Err(format!("submit answered {}: {}", resp.status, resp.text())),
            Err(e) => Err(format!("submit: {e}")),
        };
        let done = Instant::now();
        tr.end(root);
        if !is_miss || verdict.is_err() {
            report.op(verdict.is_ok());
        }
        match verdict {
            Err(e) => {
                eprintln!("serve-zipf: request {id} failed: {e}");
                within.push(due, 0.0);
                if client.get("/v1/healthz").is_err() {
                    client = Client::connect(&addr).map_err(|e| e.to_string())?;
                }
            }
            Ok(()) if !is_miss => {
                let latency = done - due;
                within.push(due, f64::from(u8::from(latency <= HIT_LIMIT)));
                if traced {
                    traced_hit_us.push(us(latency));
                } else {
                    hit_us.push(due, us(latency));
                }
            }
            Ok(()) => {}
        }
        if let (Some(l), true) = (layers.as_mut(), traced && !is_miss) {
            let s = tr.begin("serve.layers", id);
            l.replay(&mut tr, id, k, &body);
            tr.end(s);
        }
        if id.is_multiple_of(CAL_EVERY) {
            tr.set_on(false);
            cal.run();
        }
        id += 1;
        due += gap;
    }
    tr.set_on(trace_on);
    drop(tx);
    let polled = poll
        .join()
        .map_err(|_| "poller thread panicked".to_string())?;
    for _ in 0..polled.ok {
        report.op(true);
    }
    for _ in 0..polled.failed {
        report.op(false);
    }
    within.merge(polled.within);
    let misses_ms = polled.latencies_ms;
    let after = Scrape::take(&addr)?;
    drop(client);
    server.shutdown();
    report.set("peak_rss_mb", crate::peak_rss_mb());
    for _ in 1..SETUPS {
        let (server, secs, cal_us) = set_up(hot, &mut tr, &mut bodies, &mut cal, &mut report)?;
        server.shutdown();
        setups.push(secs);
        setup_cal_us.push(cal_us);
    }

    let execute_ns =
        after.histogram("asf_job_execute_ns").0 - before.histogram("asf_job_execute_ns").0;
    let setup = median(&setups);
    report.set_scaled(
        "setup_s",
        (setup / cal::slowdown(median(&setup_cal_us)), setup),
    );
    let macc = polled.accesses as f64 / (execute_ns / 1e9) / 1e6;
    let slow = cal
        .slowdown_between(start, end)
        .unwrap_or_else(|| cal.slowdown());
    report.set_scaled("macc_per_s", (macc * slow, macc));
    report.set_scaled(
        "hit_p50_us",
        hit_us.quiet(Better::Lower, &cal, |w| percentile(w, 0.5)),
    );
    report.set_scaled(
        "hit_p90_us",
        hit_us.quiet(Better::Lower, &cal, |w| percentile(w, 0.9)),
    );
    report.set_scaled(
        "miss_p50_ms",
        misses_ms.quiet(Better::Lower, &cal, |w| percentile(w, 0.5)),
    );
    report.set_scaled(
        "miss_p90_ms",
        misses_ms.quiet(Better::Lower, &cal, |w| percentile(w, 0.9)),
    );
    report.set("within_limit_frac", within.quiet(Better::Higher, mean));
    if trace_on {
        let l = layers.take().expect("layers exist when tracing");
        report.set("box.cal_us", cal.median_us());
        report.set("box.slowdown", slow);
        let (all_hits_us, all_misses_ms) = (hit_us.all(), misses_ms.all());
        report.set(
            "trace.overhead_frac",
            median(&traced_hit_us) / median(&all_hits_us) - 1.0,
        );
        for name in [
            "spec.parse",
            "spec.digest",
            "cache.lookup",
            "cache.insert",
            "http.read",
            "http.write",
            "runner.result_body",
        ] {
            report.set(&format!("{name}_us"), l.median(name));
        }
        // A hit is two requests: submit (read, parse, digest, lookup, write)
        // and result (read, lookup, write).
        let layered = 2.0 * l.median("http.read")
            + l.median("spec.parse")
            + l.median("spec.digest")
            + 2.0 * l.median("cache.lookup")
            + 2.0 * l.median("http.write");
        report.set("serve.rtt_residual_us", median(&all_hits_us) - layered);
        l.finish();
        report.set(
            "pool.queue_wait_ms",
            after.mean_ms_since(&before, "asf_job_queue_wait_ns"),
        );
        report.set(
            "pool.execute_ms",
            after.mean_ms_since(&before, "asf_job_execute_ns"),
        );
        report.set(
            "machine.ns_per_access",
            execute_ns / polled.accesses.max(1) as f64,
        );
        report.set("serve.hits", hits as f64);
        report.set("serve.misses", misses as f64);
        report.set("serve.coalesced", coalesced as f64);
        report.set("serve.rejected_429", rejected as f64);
        report.set(
            "cache.evictions",
            (after.evictions - before.evictions) as f64,
        );
        report.set("gen.late_p90_us", percentile(&late_us, 0.9));
        report.set("serve.hit_p99_us", percentile(&all_hits_us, 0.99));
        report.set("serve.hit_p999_us", percentile(&all_hits_us, 0.999));
        report.set("serve.hit_samples", all_hits_us.len() as f64);
        report.set("serve.miss_p99_ms", percentile(&all_misses_ms, 0.99));
        report.set("serve.miss_samples", all_misses_ms.len() as f64);
        let b = trace::breakdown(tr.spans(), 0);
        trace::report(&mut report, &b);
        let poll_ns: u64 = polled.tracer.spans().iter().map(|s| s.end - s.start).sum();
        report.set("http.poll_s", poll_ns as f64 / 1e9);
        tr.absorb(polled.tracer);
        report.spans = tr.into_spans();
    }
    Ok(report)
}
