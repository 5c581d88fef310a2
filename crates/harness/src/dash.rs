//! `asf-repro dash` — a read-only terminal dashboard over the service's
//! observability surface (DESIGN.md §18).
//!
//! It polls a live `asf-serve` instance's `/v1/healthz` and
//! `/v1/metrics/prometheus` endpoints a few times and renders request
//! totals by endpoint, histogram-derived latency quantiles, cache events
//! and health/uptime as tables and [`BarChart`]s. Strictly read-only: both
//! endpoints are snapshots, so watching a server never perturbs it.

use asf_stats::chart::BarChart;
use asf_stats::json::{self, JsonValue};
use asf_stats::openmetrics::{parse_exposition, Exposition};
use asf_stats::table::Table;

/// One polled snapshot of a live server.
pub struct DashSample {
    /// Parsed `/v1/metrics/prometheus` exposition.
    pub exposition: Exposition,
    /// `uptime_ms` from `/v1/healthz`.
    pub uptime_ms: u64,
    /// `flight_dumps` from `/v1/healthz`.
    pub flight_dumps: u64,
    /// `version` from `/v1/healthz`.
    pub version: String,
    /// `ok` from `/v1/healthz`.
    pub ok: bool,
}

/// Scrape both observability endpoints once.
pub fn poll(client: &mut asf_serve::http::Client) -> Result<DashSample, String> {
    let health = client.get("/v1/healthz").map_err(|e| format!("healthz: {e}"))?;
    if health.status != 200 {
        return Err(format!("healthz status {}", health.status));
    }
    let health_text = health.text();
    let root = json::parse(&health_text).map_err(|e| format!("healthz parse: {e}"))?;
    let metrics = client
        .get("/v1/metrics/prometheus")
        .map_err(|e| format!("prometheus: {e}"))?;
    if metrics.status != 200 {
        return Err(format!("prometheus status {}", metrics.status));
    }
    let exposition = parse_exposition(&metrics.text())
        .map_err(|e| format!("prometheus output does not parse: {e}"))?;
    Ok(DashSample {
        exposition,
        uptime_ms: root.get("uptime_ms").and_then(|v| v.as_u64().ok()).unwrap_or(0),
        flight_dumps: root.get("flight_dumps").and_then(|v| v.as_u64().ok()).unwrap_or(0),
        version: root
            .get("version")
            .and_then(|v| v.as_str().ok())
            .unwrap_or("?")
            .to_string(),
        ok: matches!(root.get("ok"), Some(JsonValue::Bool(true))),
    })
}

/// Estimate a quantile from an exposition histogram's cumulative
/// `_bucket{le=...}` samples — the scrape-side mirror of
/// [`asf_stats::Histogram::quantile`], with the same
/// [`asf_stats::nearest_rank`], bracketing the true quantile from above
/// within one log2 bucket.
pub fn quantile_from_buckets(exposition: &Exposition, family: &str, q: f64) -> Option<f64> {
    let mut buckets: Vec<(f64, f64)> = exposition
        .samples
        .iter()
        .filter(|s| s.name == format!("{family}_bucket"))
        .filter_map(|s| {
            let le = s.labels.iter().find(|(k, _)| k == "le")?.1.parse::<f64>().ok()?;
            Some((le, s.value))
        })
        .collect();
    buckets.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("le bounds are comparable"));
    let total = buckets.last()?.1 as u64;
    if total == 0 {
        return None;
    }
    let rank = asf_stats::nearest_rank(q, total) as f64;
    buckets.iter().find(|&&(_, cum)| cum >= rank).map(|&(le, _)| le)
}

/// Render the live dashboard from the latest sample (plus a request rate
/// derived from the first, when the caller polled more than once).
pub fn render_online(first: &DashSample, last: &DashSample) -> String {
    let mut out = String::new();
    let mut t = Table::new(
        "dash — asf-serve health",
        &["version", "ok", "uptime (s)", "flight dumps", "requests", "req/s (window)"],
    );
    let requests = last.exposition.sum("asf_http_requests_total");
    let window_ms = last.uptime_ms.saturating_sub(first.uptime_ms);
    let rate = if window_ms > 0 {
        let first_requests = first.exposition.sum("asf_http_requests_total");
        format!("{:.1}", (requests - first_requests) / (window_ms as f64 / 1000.0))
    } else {
        "-".to_string()
    };
    t.row(vec![
        last.version.clone(),
        last.ok.to_string(),
        format!("{:.1}", last.uptime_ms as f64 / 1000.0),
        last.flight_dumps.to_string(),
        format!("{requests:.0}"),
        rate,
    ]);
    out.push_str(&t.render());
    out.push('\n');

    let mut lat = Table::new(
        "dash — latency quantiles from the scraped log2 histograms (us)",
        &["series", "p50", "p90", "p99"],
    );
    for family in ["asf_http_request_duration_ns", "asf_job_e2e_ns", "asf_job_queue_wait_ns", "asf_job_execute_ns"] {
        let q = |q: f64| {
            quantile_from_buckets(&last.exposition, family, q)
                .map_or("-".to_string(), |ns| format!("{:.1}", ns / 1_000.0))
        };
        lat.row(vec![family.to_string(), q(0.50), q(0.90), q(0.99)]);
    }
    out.push_str(&lat.render());
    out.push('\n');

    let mut chart = BarChart::new("requests by endpoint", "");
    let mut by_endpoint: Vec<(String, f64)> = Vec::new();
    for s in &last.exposition.samples {
        if s.name != "asf_http_requests_total" {
            continue;
        }
        if let Some((_, endpoint)) = s.labels.iter().find(|(k, _)| k == "endpoint") {
            match by_endpoint.iter_mut().find(|(e, _)| e == endpoint) {
                Some((_, v)) => *v += s.value,
                None => by_endpoint.push((endpoint.clone(), s.value)),
            }
        }
    }
    by_endpoint.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("counts are finite"));
    for (endpoint, v) in &by_endpoint {
        chart.bar(endpoint.clone(), *v);
    }
    if !chart.is_empty() {
        out.push_str(&chart.render(48));
        out.push('\n');
    }

    let mut cache = Table::new("dash — cache events", &["kind", "count"]);
    for s in &last.exposition.samples {
        if s.name != "asf_cache_events_total" {
            continue;
        }
        if let Some((_, kind)) = s.labels.iter().find(|(k, _)| k == "kind") {
            cache.row(vec![kind.clone(), format!("{:.0}", s.value)]);
        }
    }
    out.push_str(&cache.render());
    out
}

/// Poll a live server `iterations` times, `interval_ms` apart, and render
/// the final dashboard.
pub fn online(addr: &str, iterations: usize, interval_ms: u64) -> Result<String, String> {
    let mut client =
        asf_serve::http::Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let first = poll(&mut client)?;
    let mut last = None;
    for _ in 1..iterations.max(1) {
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
        last = Some(poll(&mut client)?);
    }
    Ok(render_online(&first, last.as_ref().unwrap_or(&first)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_quantiles_come_from_cumulative_le() {
        let text = "# TYPE lat histogram\n\
                    lat_bucket{le=\"100\"} 5\n\
                    lat_bucket{le=\"200\"} 9\n\
                    lat_bucket{le=\"+Inf\"} 10\n\
                    lat_sum 1000\n\
                    lat_count 10\n\
                    # EOF\n";
        let exp = parse_exposition(text).expect("parses");
        assert_eq!(quantile_from_buckets(&exp, "lat", 0.5), Some(100.0));
        assert_eq!(quantile_from_buckets(&exp, "lat", 0.9), Some(200.0));
        assert_eq!(quantile_from_buckets(&exp, "lat", 1.0), Some(f64::INFINITY));
    }
}
