//! In-process load test and CI smoke check for the serve layer.
//!
//! The load test starts a server on an ephemeral port and hammers it with
//! many concurrent keep-alive clients drawing jobs from a **Zipf-skewed**
//! mix of distinct specs — the access pattern a shared result service
//! actually sees (a handful of hot parameter points dominating a long tail
//! of one-offs). It reports the submit-path hit rate, latency percentiles,
//! and the hot-path speedup of a memoized repeat over a cold simulation of
//! the same standard-scale cell. Percentiles are nearest-rank
//! ([`asf_stats::nearest_rank`]), the same rank the log2 histograms use.
//! Serve latency of record is measured by perfbench's `serve-zipf`
//! workload.

//! Clients treat transient adversity the way a real caller should:
//! connect failures, mid-request transport errors, and 429 admission
//! rejections are retried a bounded number of times under seeded
//! exponential backoff (the paper's §V-A manager, reused with
//! microsecond units) instead of failing the whole run. Retry counts are
//! part of the report, so a round that only passed by retrying heavily is
//! visible, not hidden.

use crate::http::Client;
use crate::server::{ServeOpts, Server};
use crate::spec::JobSpec;
use asf_core::backoff::ExponentialBackoff;
use asf_core::detector::DetectorKind;
use asf_mem::rng::SimRng;
use asf_workloads::Scale;
use std::time::{Duration, Instant};

/// Most retries one logical request will attempt before giving up.
const RETRY_LIMIT: u32 = 8;
/// Base backoff window, microseconds (doubles per retry, seeded jitter).
const BACKOFF_BASE_US: u64 = 200;
/// Window cap exponent: ≤ 200µs · 2^7 ≈ 25.6ms per sleep.
const BACKOFF_CAP_EXP: u32 = 7;

/// Sleep one seeded-jitter backoff step.
fn backoff_sleep(backoff: &mut ExponentialBackoff, rng: &mut SimRng) {
    let us = backoff.on_abort(rng);
    std::thread::sleep(Duration::from_micros(us));
}

/// Load-test shape.
#[derive(Clone, Debug)]
pub struct LoadTestOpts {
    /// Concurrent client threads.
    pub clients: usize,
    /// Requests each client issues.
    pub requests_per_client: usize,
    /// Size of the distinct-spec universe the Zipf mix draws from.
    pub distinct_specs: usize,
    /// RNG seed for the mix (and the base of the spec seeds).
    pub seed: u64,
    /// Scale of the mixed jobs (small keeps thousands of requests cheap;
    /// the speedup probe always uses a standard-scale cell regardless).
    pub scale: Scale,
    /// Worker threads in the server under test.
    pub workers: usize,
    /// Queue bound in the server under test.
    pub queue_capacity: usize,
}

impl Default for LoadTestOpts {
    fn default() -> Self {
        LoadTestOpts {
            clients: 64,
            requests_per_client: 32,
            distinct_specs: 24,
            seed: 7,
            scale: Scale::Small,
            workers: 4,
            queue_capacity: 4096,
        }
    }
}

/// What the load test measured.
#[derive(Clone, Debug)]
pub struct LoadTestReport {
    /// Total submit requests issued.
    pub requests: u64,
    /// Answered `cached` straight from the store.
    pub cached: u64,
    /// Coalesced onto an in-flight identical job.
    pub coalesced: u64,
    /// Accepted as fresh work.
    pub queued: u64,
    /// Requests whose *final* answer (after bounded retries) was 429.
    pub rejected: u64,
    /// Backoff retries spent on transient failures (connect errors,
    /// transport drops, 429s that later succeeded).
    pub retries: u64,
    /// `cached / requests` — the submit-path hit rate.
    pub hit_rate: f64,
    /// Median submit round-trip (nearest-rank sample), microseconds.
    pub p50_us: f64,
    /// 99th-percentile submit round-trip (nearest-rank sample), microseconds.
    pub p99_us: f64,
    /// Median from the log2 latency histogram (bucket upper bound), µs.
    pub hist_p50_us: f64,
    /// 90th percentile from the log2 latency histogram, µs.
    pub hist_p90_us: f64,
    /// 99th percentile from the log2 latency histogram, µs.
    pub hist_p99_us: f64,
    /// Cold wall time of the standard-scale probe cell, nanoseconds.
    pub cold_ns: u64,
    /// Memoized round-trip (submit answered `cached` + result fetch) for
    /// the same cell, nanoseconds.
    pub hot_ns: u64,
    /// `cold_ns / hot_ns` — the hot-path speedup (target: ≥ 100x).
    pub speedup: f64,
}

/// The standard-scale cell the speedup probe measures (a fixed point so
/// rounds are comparable across sessions).
fn probe_spec(seed: u64) -> JobSpec {
    JobSpec::new("ssca2", DetectorKind::SubBlock(4), Scale::Standard, seed)
}

/// Build the Zipf(1.0) cumulative weight table over `n` ranks.
fn zipf_cdf(n: usize) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf = Vec::with_capacity(n);
    for i in 0..n {
        acc += 1.0 / (i as f64 + 1.0);
        cdf.push(acc);
    }
    let total = acc;
    for w in &mut cdf {
        *w /= total;
    }
    cdf
}

/// Sample a rank from the table.
fn zipf_pick(cdf: &[f64], rng: &mut SimRng) -> usize {
    let x = rng.f64();
    cdf.iter().position(|&c| x < c).unwrap_or(cdf.len() - 1)
}

/// The spec universe: benchmarks round-robined, seeds offset by rank, all
/// at the test scale with the sb4 detector (the paper's headline config).
fn spec_universe(opts: &LoadTestOpts) -> Vec<JobSpec> {
    let benches = asf_workloads::names(opts.scale);
    (0..opts.distinct_specs)
        .map(|i| {
            JobSpec::new(
                benches[i % benches.len()],
                DetectorKind::SubBlock(4),
                opts.scale,
                opts.seed.wrapping_add(i as u64),
            )
        })
        .collect()
}

/// Run the load test against a private server instance.
pub fn run(opts: &LoadTestOpts) -> Result<LoadTestReport, String> {
    let server = Server::start(ServeOpts {
        workers: opts.workers,
        queue_capacity: opts.queue_capacity,
        cache_capacity: opts.distinct_specs.max(16) * 2,
        ..ServeOpts::default()
    })
    .map_err(|e| format!("start server: {e}"))?;
    let addr = server.addr();
    let universe = spec_universe(opts);
    let bodies: Vec<String> = universe.iter().map(JobSpec::canonical).collect();
    let cdf = zipf_cdf(universe.len());

    // Fan the clients out; each keeps one connection alive for its whole
    // request budget and records per-request submit latencies.
    let mut handles = Vec::with_capacity(opts.clients);
    for c in 0..opts.clients {
        let addr = addr.clone();
        let bodies = bodies.clone();
        let cdf = cdf.clone();
        let mut rng = SimRng::derive(opts.seed, 0x10ad + c as u64);
        let n = opts.requests_per_client;
        handles.push(
            std::thread::Builder::new()
                .name(format!("asf-loadtest-client-{c}"))
                .spawn(move || client_loop(&addr, &bodies, &cdf, &mut rng, n))
                .map_err(|e| format!("spawn client: {e}"))?,
        );
    }
    let mut latencies_ns: Vec<u64> = Vec::new();
    let mut cached = 0u64;
    let mut coalesced = 0u64;
    let mut queued = 0u64;
    let mut rejected = 0u64;
    let mut retries = 0u64;
    for h in handles {
        let outcome = h.join().map_err(|_| "client thread panicked".to_string())??;
        latencies_ns.extend(outcome.latencies_ns);
        cached += outcome.cached;
        coalesced += outcome.coalesced;
        queued += outcome.queued;
        rejected += outcome.rejected;
        retries += outcome.retries;
    }

    // Let the backlog finish so the speedup probe measures a quiet server.
    let state = server.state();
    let deadline = Instant::now() + Duration::from_secs(120);
    while state.queue_depth() > 0 {
        if Instant::now() > deadline {
            return Err("load-test backlog did not drain within 120s".to_string());
        }
        std::thread::sleep(Duration::from_millis(5));
    }

    // Hot-path speedup: cold wall time of a fresh standard-scale cell vs
    // the memoized round-trip for the same cell.
    let probe = probe_spec(opts.seed ^ 0x5eed);
    let mut client =
        Client::connect(&addr).map_err(|e| format!("connect probe client: {e}"))?;
    let cold_start = Instant::now();
    submit_and_wait(&mut client, &probe)?;
    let cold_ns = cold_start.elapsed().as_nanos() as u64;
    // Warm once (populates nothing new — asserts the hit), then time it.
    let hot_ns = {
        let path = format!("/v1/jobs/{}/result", probe.digest_hex());
        let start = Instant::now();
        let resp = client
            .post("/v1/jobs", &probe.canonical())
            .map_err(|e| format!("hot submit: {e}"))?;
        if resp.header("x-asf-cache") != Some("hit") {
            return Err(format!("probe repeat was not a cache hit: {}", resp.text()));
        }
        let body = client.get(&path).map_err(|e| format!("hot fetch: {e}"))?;
        if body.status != 200 {
            return Err(format!("hot fetch status {}", body.status));
        }
        start.elapsed().as_nanos() as u64
    };

    server.shutdown();

    latencies_ns.sort_unstable();
    let pct = |p: f64| -> f64 {
        if latencies_ns.is_empty() {
            return 0.0;
        }
        let rank = asf_stats::nearest_rank(p, latencies_ns.len() as u64);
        latencies_ns[rank as usize - 1] as f64 / 1_000.0
    };
    // Same samples through the allocation-free log2 histogram the server
    // uses on its hot path: the `hist_*` percentiles are what a scrape of
    // `/v1/metrics/prometheus` can derive, reported next to the exact
    // sampled ones so the bucket-resolution error stays visible. Both take
    // the same nearest rank, so each `hist_*` bounds its sample from above.
    let mut hist = asf_stats::Histogram::new();
    for &ns in &latencies_ns {
        hist.record(ns);
    }
    let hist_us = |q: f64| hist.quantile(q) as f64 / 1_000.0;
    let requests = cached + coalesced + queued + rejected;
    Ok(LoadTestReport {
        requests,
        cached,
        coalesced,
        queued,
        rejected,
        retries,
        hit_rate: if requests == 0 { 0.0 } else { cached as f64 / requests as f64 },
        p50_us: pct(0.50),
        p99_us: pct(0.99),
        hist_p50_us: hist_us(0.50),
        hist_p90_us: hist_us(0.90),
        hist_p99_us: hist_us(0.99),
        cold_ns,
        hot_ns: hot_ns.max(1),
        speedup: cold_ns as f64 / hot_ns.max(1) as f64,
    })
}

struct ClientOutcome {
    latencies_ns: Vec<u64>,
    cached: u64,
    coalesced: u64,
    queued: u64,
    rejected: u64,
    retries: u64,
}

/// Connect with bounded seeded-backoff retries — a burst of simultaneous
/// clients racing a server that is still binding (or a chaos-restarted
/// one) is transient, not fatal.
fn connect_with_retry(
    addr: &str,
    rng: &mut SimRng,
    retries: &mut u64,
) -> Result<Client, String> {
    let mut backoff = ExponentialBackoff::new(BACKOFF_BASE_US, BACKOFF_CAP_EXP);
    loop {
        match Client::connect(addr) {
            Ok(client) => return Ok(client),
            Err(e) if backoff.retries() >= RETRY_LIMIT => {
                return Err(format!("connect after {RETRY_LIMIT} retries: {e}"))
            }
            Err(_) => {
                *retries += 1;
                backoff_sleep(&mut backoff, rng);
            }
        }
    }
}

fn client_loop(
    addr: &str,
    bodies: &[String],
    cdf: &[f64],
    rng: &mut SimRng,
    requests: usize,
) -> Result<ClientOutcome, String> {
    let mut out = ClientOutcome {
        latencies_ns: Vec::with_capacity(requests),
        cached: 0,
        coalesced: 0,
        queued: 0,
        rejected: 0,
        retries: 0,
    };
    let mut client = connect_with_retry(addr, rng, &mut out.retries)?;
    for _ in 0..requests {
        let body = &bodies[zipf_pick(cdf, rng)];
        let start = Instant::now();
        // One logical request: retry transient failures (transport drops,
        // 429 admission pushback) under backoff, bounded so a genuinely
        // unhealthy server still fails the run instead of hanging it.
        let mut backoff = ExponentialBackoff::new(BACKOFF_BASE_US, BACKOFF_CAP_EXP);
        let resp = loop {
            match client.post("/v1/jobs", body) {
                Ok(resp) if resp.status == 429 && backoff.retries() < RETRY_LIMIT => {
                    out.retries += 1;
                    backoff_sleep(&mut backoff, rng);
                }
                Ok(resp) => break resp,
                Err(e) if backoff.retries() >= RETRY_LIMIT => {
                    return Err(format!("submit after {RETRY_LIMIT} retries: {e}"))
                }
                Err(_) => {
                    // The connection died (server closed it on a timeout,
                    // reset, …): back off and reconnect.
                    out.retries += 1;
                    backoff_sleep(&mut backoff, rng);
                    client = connect_with_retry(addr, rng, &mut out.retries)?;
                }
            }
        };
        out.latencies_ns.push(start.elapsed().as_nanos() as u64);
        match (resp.status, resp.header("x-asf-cache")) {
            (200, Some("hit")) => out.cached += 1,
            (200, Some("join")) => out.coalesced += 1,
            (200, _) => out.queued += 1,
            (429, _) => out.rejected += 1,
            (status, _) => return Err(format!("submit status {status}: {}", resp.text())),
        }
    }
    Ok(out)
}

/// Submit `spec` and poll until its result is servable; returns the body.
fn submit_and_wait(client: &mut Client, spec: &JobSpec) -> Result<String, String> {
    let resp = client
        .post("/v1/jobs", &spec.canonical())
        .map_err(|e| format!("submit: {e}"))?;
    if resp.status != 200 {
        return Err(format!("submit status {}: {}", resp.status, resp.text()));
    }
    let path = format!("/v1/jobs/{}/result", spec.digest_hex());
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let resp = client.get(&path).map_err(|e| format!("poll: {e}"))?;
        match resp.status {
            200 => return Ok(resp.text()),
            202 => {
                if Instant::now() > deadline {
                    return Err("job did not finish within 300s".to_string());
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            status => return Err(format!("result status {status}: {}", resp.text())),
        }
    }
}

/// Scrape `/v1/metrics/prometheus`, require it to parse as valid
/// OpenMetrics text, and return the recorded `asf_http_requests_total`
/// sum (which the smoke gate requires to be non-zero).
fn scrape_prometheus(client: &mut Client) -> Result<f64, String> {
    let resp = client
        .get("/v1/metrics/prometheus")
        .map_err(|e| format!("prometheus scrape: {e}"))?;
    if resp.status != 200 {
        return Err(format!("prometheus scrape status {}", resp.status));
    }
    if resp.header("content-type").is_none_or(|ct| !ct.starts_with("text/plain")) {
        return Err(format!("prometheus content-type {:?}", resp.header("content-type")));
    }
    let text = resp.text();
    let exposition = asf_stats::openmetrics::parse_exposition(&text)
        .map_err(|e| format!("prometheus output does not parse: {e}\n{text}"))?;
    let requests: f64 = exposition
        .samples
        .iter()
        .filter(|s| s.name == "asf_http_requests_total")
        .map(|s| s.value)
        .sum();
    Ok(requests)
}

/// The CI smoke gate: ephemeral server, one fixed-seed job submitted
/// twice — the repeat must answer `cached` with a byte-identical result
/// body, the prometheus exposition must parse and show the traffic — then
/// a clean HTTP-initiated shutdown. Returns the one-line summary the CLI
/// prints (listening port, job digest, scrape count).
pub fn smoke(seed: u64) -> Result<String, String> {
    let server =
        Server::start(ServeOpts::default()).map_err(|e| format!("start server: {e}"))?;
    let addr = server.addr();
    let mut client = Client::connect(&addr).map_err(|e| format!("connect: {e}"))?;
    let health = client.get("/v1/healthz").map_err(|e| format!("healthz: {e}"))?;
    if health.status != 200 || !health.text().contains("\"ok\": true") {
        return Err(format!("healthz not ready ({}): {}", health.status, health.text()));
    }
    if health.header("x-asf-request-id").is_none() {
        return Err("healthz reply missing x-asf-request-id".to_string());
    }
    let spec = JobSpec::new("ssca2", DetectorKind::SubBlock(4), Scale::Small, seed);
    let first_body = submit_and_wait(&mut client, &spec)?;

    let repeat = client
        .post("/v1/jobs", &spec.canonical())
        .map_err(|e| format!("repeat submit: {e}"))?;
    if repeat.header("x-asf-cache") != Some("hit") {
        return Err(format!("repeat submission was not a cache hit: {}", repeat.text()));
    }
    let path = format!("/v1/jobs/{}/result", spec.digest_hex());
    let second = client.get(&path).map_err(|e| format!("repeat fetch: {e}"))?;
    if second.status != 200 {
        return Err(format!("repeat fetch status {}", second.status));
    }
    if second.text() != first_body {
        return Err("cached result body is not byte-identical to the first".to_string());
    }
    let stats = client.get("/v1/cache/stats").map_err(|e| format!("stats: {e}"))?;
    if stats.status != 200 || !stats.text().contains("\"hits\"") {
        return Err(format!("cache stats malformed: {}", stats.text()));
    }
    let scraped_requests = scrape_prometheus(&mut client)?;
    if scraped_requests <= 0.0 {
        return Err("prometheus exposition recorded zero HTTP requests".to_string());
    }
    let bye = client.post("/v1/shutdown", "").map_err(|e| format!("shutdown: {e}"))?;
    if bye.status != 200 {
        return Err(format!("shutdown status {}", bye.status));
    }
    server.shutdown();
    Ok(format!(
        "serve smoke ok: addr={addr} job={} prometheus_requests={scraped_requests} \
         artifacts=none (in-memory cache, no flight dumps)",
        spec.digest_hex()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_table_is_monotone_and_normalised() {
        let cdf = zipf_cdf(16);
        assert!(cdf.windows(2).all(|w| w[0] < w[1]));
        assert!((cdf[15] - 1.0).abs() < 1e-12);
        // Rank 0 carries the largest share (the "hot spec").
        assert!(cdf[0] > 1.0 / 16.0);
    }

    #[test]
    fn smoke_round_trip() {
        let summary = smoke(0x51).expect("smoke must pass");
        assert!(summary.contains("serve smoke ok"), "{summary}");
        assert!(summary.contains("addr="), "{summary}");
    }

    #[test]
    fn tiny_loadtest_reports_hits() {
        let report = run(&LoadTestOpts {
            clients: 8,
            requests_per_client: 8,
            distinct_specs: 4,
            seed: 11,
            scale: Scale::Small,
            workers: 2,
            queue_capacity: 256,
        })
        .expect("load test runs");
        assert_eq!(report.requests, 64);
        assert!(report.cached + report.coalesced + report.queued + report.rejected == 64);
        // In a debug-build burst every repeat may coalesce onto a job
        // still in flight instead of hitting a completed cache entry;
        // either way no repeat recomputed.
        assert!(
            report.cached + report.coalesced > 0,
            "repeats must dedup: {report:?}"
        );
        assert!(report.speedup > 1.0, "{report:?}");
        // Histogram-derived percentiles bracket from above (bucket upper
        // bound) and must be ordered like any quantile family.
        assert!(report.hist_p50_us >= report.p50_us, "{report:?}");
        assert!(report.hist_p50_us <= report.hist_p90_us, "{report:?}");
        assert!(report.hist_p90_us <= report.hist_p99_us, "{report:?}");
    }
}
