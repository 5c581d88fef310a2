//! `asf-repro serve` / `asf-repro loadtest` — harness glue for the
//! content-addressed simulation service (DESIGN.md §16).
//!
//! `serve` runs [`asf_serve::server::Server`] in the foreground until a
//! `POST /v1/shutdown` arrives (or, with `--smoke`, runs the CI gate:
//! ephemeral port, one fixed-seed job submitted twice, the repeat must be
//! a byte-identical cache hit). `loadtest` hammers a private server with
//! in-process concurrent clients over a Zipf-skewed job mix and prints
//! the measurement as one table row (`--csv DIR` / `--json DIR` write it).
//! Serve latency of record is measured by perfbench's `serve-zipf`
//! workload, not here.

use asf_serve::loadtest::{LoadTestOpts, LoadTestReport};
use asf_stats::table::Table;
use asf_workloads::Scale;

/// Default concurrent clients for `asf-repro loadtest` ("thousands of
/// in-process concurrent clients" at full scale; CI uses fewer).
pub const DEFAULT_CLIENTS: usize = 128;
/// Default requests per client.
pub const DEFAULT_REQUESTS: usize = 24;
/// Default distinct-spec universe size.
pub const DEFAULT_DISTINCT: usize = 32;

/// The speedup floor the load test holds the hot path to (ISSUE/DESIGN
/// §16 acceptance: memoized repeats ≥ 100x faster than cold simulation of
/// the standard-scale probe cell).
pub const SPEEDUP_FLOOR: f64 = 100.0;

/// Shape a [`LoadTestOpts`] from CLI-level knobs. `scale` sets the mixed
/// jobs' size; the speedup probe is standard-scale regardless.
pub fn loadtest_opts(clients: usize, scale: Scale, seed: u64) -> LoadTestOpts {
    LoadTestOpts {
        clients,
        requests_per_client: DEFAULT_REQUESTS,
        distinct_specs: DEFAULT_DISTINCT,
        seed,
        scale,
        workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2),
        // Deep enough that a full-burst start never 429s the measurement
        // itself; admission control is exercised by the serve unit tests.
        queue_capacity: clients.saturating_mul(DEFAULT_REQUESTS).max(1024),
    }
}

/// Human-readable summary table of one load-test run.
pub fn loadtest_table(opts: &LoadTestOpts, report: &LoadTestReport) -> Table {
    let mut t = Table::new(
        "serve loadtest — Zipf-skewed job mix against the result cache",
        &[
            "clients",
            "requests",
            "cached",
            "coalesced",
            "queued",
            "rejected",
            "retries",
            "hit rate",
            "p50 (us)",
            "p99 (us)",
            "h50 (us)",
            "h90 (us)",
            "h99 (us)",
            "cold (ms)",
            "hot (us)",
            "speedup",
        ],
    );
    t.row(vec![
        opts.clients.to_string(),
        report.requests.to_string(),
        report.cached.to_string(),
        report.coalesced.to_string(),
        report.queued.to_string(),
        report.rejected.to_string(),
        report.retries.to_string(),
        format!("{:.1}%", report.hit_rate * 100.0),
        format!("{:.1}", report.p50_us),
        format!("{:.1}", report.p99_us),
        format!("{:.1}", report.hist_p50_us),
        format!("{:.1}", report.hist_p90_us),
        format!("{:.1}", report.hist_p99_us),
        format!("{:.2}", report.cold_ns as f64 / 1e6),
        format!("{:.1}", report.hot_ns as f64 / 1e3),
        format!("{:.0}x", report.speedup),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_report() -> LoadTestReport {
        LoadTestReport {
            requests: 3072,
            cached: 2000,
            coalesced: 700,
            queued: 372,
            rejected: 0,
            retries: 5,
            hit_rate: 2000.0 / 3072.0,
            p50_us: 81.0,
            p99_us: 410.5,
            hist_p50_us: 131.0,
            hist_p90_us: 524.2,
            hist_p99_us: 524.2,
            cold_ns: 9_000_000,
            hot_ns: 60_000,
            speedup: 150.0,
        }
    }

    #[test]
    fn table_renders_the_headline_numbers() {
        let opts = loadtest_opts(128, Scale::Small, 7);
        let rendered = loadtest_table(&opts, &fake_report()).render();
        assert!(rendered.contains("150x"), "{rendered}");
        assert!(rendered.contains("65.1%"), "{rendered}");
    }
}
