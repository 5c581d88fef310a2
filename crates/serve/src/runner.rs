//! Execute one [`JobSpec`] and package the servable artifact.
//!
//! The runner is the only place a serve-layer result is ever produced, so
//! its output format *is* the cache-value format: a deterministic
//! `asf-serve-v1` JSON document whose bytes depend only on the spec (the
//! simulator is deterministic and `RunStats::to_json` is canonical), plus
//! the optional PR-5 observability artifacts when the spec asked for them.
//! Byte-determinism of the body is what makes "the second response is a
//! byte-identical cache hit" a checkable contract rather than an
//! implementation accident.

use crate::cache::CachedResult;
use crate::spec::JobSpec;
use asf_machine::machine::{Machine, SimConfig};
use asf_machine::obs::ObsConfig;
use asf_machine::snapshot::{CancelToken, ProgressProbe};
use asf_machine::trace::ChromeTraceSink;
use asf_stats::digest::run_stats_digest;
use asf_stats::run::RunStats;
use std::sync::Arc;

/// Interval width of the metrics gauges when a job observes (matches the
/// harness `observe` experiment).
const OBS_INTERVAL_CYCLES: u64 = 100_000;

/// Render the servable result document for `spec`'s finished `stats`.
pub fn result_body(spec: &JobSpec, stats: &RunStats) -> String {
    render_body(spec, spec.digest(), run_stats_digest(stats), stats)
}

/// [`result_body`] with both digests already computed, written into one
/// buffer.
fn render_body(spec: &JobSpec, spec_digest: u64, stats_digest: u64, stats: &RunStats) -> String {
    use std::fmt::Write;
    let mut out = String::with_capacity(8192);
    write!(
        out,
        "{{\n  \"schema\": \"asf-serve-v1\",\n  \"spec\": {},\n  \
         \"spec_digest\": \"{spec_digest:016x}\",\n  \"stats_digest\": \"{stats_digest:016x}\",\n  \
         \"stats\": ",
        spec.canonical(),
    )
    .expect("writing to a String cannot fail");
    stats.write_json(&mut out);
    out.push_str("\n}\n");
    out
}

/// Run the simulation a spec names, publishing progress through `probe`
/// when one is attached. Errors (watchdog, …) come back as strings — the
/// serve layer reports them to every coalesced waiter and caches nothing.
pub fn run_spec(
    spec: &JobSpec,
    probe: Option<Arc<ProgressProbe>>,
) -> Result<CachedResult, String> {
    run_spec_cancellable(spec, probe, None)
}

/// [`run_spec`] with a cooperative [`CancelToken`]: the machine checks it
/// at the progress-publish cadence and unwinds with a cancellation error
/// when a supervisor (client cancel or the server's deadline watchdog)
/// has fired it. A cancelled run produces no result and is never cached.
pub fn run_spec_cancellable(
    spec: &JobSpec,
    probe: Option<Arc<ProgressProbe>>,
    cancel: Option<Arc<CancelToken>>,
) -> Result<CachedResult, String> {
    let workload = asf_workloads::by_name(&spec.bench, spec.scale)
        .ok_or_else(|| format!("unknown benchmark {:?}", spec.bench))?;
    let mut cfg = SimConfig::paper_seeded(spec.detector, spec.seed);
    cfg.faults = spec.fault_plan();
    let mut machine = Machine::new(workload.as_ref(), cfg);
    if let Some(probe) = probe {
        machine.attach_progress_probe(probe);
    }
    if let Some(cancel) = cancel {
        machine.attach_cancel_token(cancel);
    }
    if spec.observe {
        machine.enable_observability(ObsConfig {
            interval_cycles: OBS_INTERVAL_CYCLES,
            profile: true,
        });
        machine.set_trace_sink(Box::new(ChromeTraceSink::new()));
    }
    let out = machine.try_run_to_completion().map_err(|e| e.to_string())?;
    let trace = if spec.observe {
        let mut sink = machine.take_trace_sink().expect("sink installed above");
        let sink = sink
            .as_any()
            .downcast_mut::<ChromeTraceSink>()
            .expect("the installed sink is a ChromeTraceSink");
        let sink = std::mem::replace(sink, ChromeTraceSink::new());
        Some(Arc::new(sink.finish()))
    } else {
        None
    };
    let metrics = out.obs.map(|report| Arc::new(report.to_json()));
    let (spec_digest, stats_digest) = (spec.digest(), run_stats_digest(&out.stats));
    Ok(CachedResult {
        spec_digest,
        stats_digest,
        body: Arc::new(render_body(spec, spec_digest, stats_digest, &out.stats)),
        metrics,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use asf_core::detector::DetectorKind;
    use asf_workloads::Scale;

    #[test]
    fn run_is_deterministic_and_body_parses() {
        let spec = JobSpec::new("ssca2", DetectorKind::SubBlock(4), Scale::Small, 0xA5);
        let a = run_spec(&spec, None).unwrap();
        let b = run_spec(&spec, None).unwrap();
        assert_eq!(*a.body, *b.body, "result body must be byte-deterministic");
        assert_eq!(a.stats_digest, b.stats_digest);
        let root = asf_stats::json::parse(&a.body).unwrap();
        assert_eq!(root.field("schema").unwrap().as_str().unwrap(), "asf-serve-v1");
        let stats =
            RunStats::from_value(root.field("stats").unwrap()).expect("stats parse back");
        assert_eq!(run_stats_digest(&stats), a.stats_digest);
        assert!(a.metrics.is_none() && a.trace.is_none());
    }

    #[test]
    fn body_layout_is_pinned() {
        let spec = JobSpec::new("ssca2", DetectorKind::SubBlock(4), Scale::Small, 0xA5);
        let stats = RunStats::default();
        let expected = format!(
            "{{\n  \"schema\": \"asf-serve-v1\",\n  \"spec\": {},\n  \
             \"spec_digest\": \"{:016x}\",\n  \"stats_digest\": \"{:016x}\",\n  \
             \"stats\": {}\n}}\n",
            spec.canonical(),
            spec.digest(),
            run_stats_digest(&stats),
            stats.to_json()
        );
        assert_eq!(result_body(&spec, &stats), expected);
    }

    #[test]
    fn observing_attaches_artifacts_without_touching_stats() {
        let plain = JobSpec::new("ssca2", DetectorKind::SubBlock(4), Scale::Small, 0xA5);
        let mut observed = plain.clone();
        observed.observe = true;
        let a = run_spec(&plain, None).unwrap();
        let b = run_spec(&observed, None).unwrap();
        // Different content address (observe is part of the spec), same
        // simulated outcome (observability is bit-transparent).
        assert_ne!(plain.digest(), observed.digest());
        assert_eq!(a.stats_digest, b.stats_digest);
        assert!(b.metrics.is_some() && b.trace.is_some());
        assert!(b.metrics.unwrap().contains("asf-obs-v1"));
    }

    #[test]
    fn a_prefired_cancel_token_stops_the_run_with_a_typed_message() {
        let spec = JobSpec::new("ssca2", DetectorKind::SubBlock(4), Scale::Small, 0xA5);
        let token = Arc::new(CancelToken::new());
        token.cancel(asf_machine::snapshot::CancelKind::Deadline);
        let err = run_spec_cancellable(&spec, None, Some(token)).unwrap_err();
        assert!(err.contains("deadline"), "{err}");
        // An attached-but-unfired token is bit-transparent.
        let live = Arc::new(CancelToken::new());
        let a = run_spec_cancellable(&spec, None, Some(live)).unwrap();
        let b = run_spec(&spec, None).unwrap();
        assert_eq!(*a.body, *b.body);
    }

    #[test]
    fn probe_sees_progress_and_completion() {
        let spec = JobSpec::new("intruder", DetectorKind::Baseline, Scale::Small, 3);
        let probe = Arc::new(ProgressProbe::new());
        run_spec(&spec, Some(Arc::clone(&probe))).unwrap();
        let snap = probe.snapshot();
        assert!(snap.done, "final publish marks the run done");
        assert!(snap.tx_committed > 0 && snap.cycles > 0, "{snap:?}");
    }
}
