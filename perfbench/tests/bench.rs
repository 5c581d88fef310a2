//! The benchmark's own tests: metric names, declared metric sets, span
//! nesting and accounting, and what the seed changes.
//!
//! The workloads run at full size with a short time budget: grid and shard
//! stop after their minimum pass or run count. Run with
//! `cargo test --release` from this directory.

use asf_perfbench::trace::{self, breakdown, check_nesting};
use asf_perfbench::{
    declared, is_scaled, per_layer, run, serve, Report, END_TO_END, SCALED, SPANS, WORKLOADS,
};
use asf_stats::json::{parse, JsonValue};
use std::collections::BTreeSet;

/// Short runs. Grid and shard stop after their minimum count of passes or
/// runs; serve gets two seconds so its seeded stream holds a few dozen
/// misses.
fn short(workload: &str) -> f64 {
    if workload == "serve-zipf" {
        2.0
    } else {
        0.1
    }
}

fn valid_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn run_short(workload: &str, seed: u64, trace: bool) -> Report {
    run(workload, seed, short(workload), trace).unwrap_or_else(|e| panic!("{workload}: {e}"))
}

#[test]
fn every_name_and_unit_is_well_formed() {
    let mut seen = BTreeSet::new();
    for w in WORKLOADS {
        assert!(valid_name(w), "workload {w}");
        assert!(seen.insert(w.to_string()), "workload {w} repeats");
    }
    for (name, unit) in declared(false).into_iter().chain(declared(true)) {
        assert!(valid_name(&name), "metric {name}");
        assert!(valid_unit(unit), "unit {unit} of {name}");
        assert!(seen.insert(name.clone()), "metric {name} repeats");
    }
    assert!(per_layer().len() <= 128);
}

fn named_list(v: &JsonValue, key: &str) -> Vec<(String, String)> {
    v.field(key)
        .and_then(|a| a.as_arr())
        .expect("list")
        .iter()
        .map(|m| {
            let name = m
                .field("name")
                .and_then(|n| n.as_str())
                .expect("name")
                .to_string();
            let unit = m
                .get("unit")
                .map_or(String::new(), |u| u.as_str().expect("unit").to_string());
            (name, unit)
        })
        .collect()
}

#[test]
fn scaled_metrics_are_declared_end_to_end_metrics() {
    for (w, metrics) in SCALED {
        assert!(WORKLOADS.contains(w), "{w}");
        for m in *metrics {
            assert!(END_TO_END.iter().any(|(n, _)| n == m), "{w}: {m}");
        }
    }
}

#[test]
fn benchmark_json_declares_what_the_code_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON");
    let workloads: Vec<String> = named_list(&doc, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(workloads, WORKLOADS.to_vec());
    let owned = |v: Vec<(String, &str)>| {
        v.into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect::<Vec<_>>()
    };
    assert_eq!(named_list(&doc, "end_to_end"), owned(declared(false)));
    assert_eq!(named_list(&doc, "per_layer"), owned(declared(true)));
    assert_eq!(END_TO_END[0].0, "setup_s");
}

/// Layers each workload must load: their per-layer metrics are non-zero.
fn busy_layers(workload: &str) -> &'static [&'static str] {
    match workload {
        "paper-grid" => &[
            "machine.ns_per_access.intruder",
            "machine.sched_ns_per_access",
            "machine.new_us",
            "workloads.build_us",
            "core.attempts_per_commit",
            "specdir.hit_ratio",
            "machine.run_self_s",
        ],
        "huge-shard" => &[
            "shard.epochs",
            "shard.compute_s",
            "shard.new_ms",
            "shard.dir_lookups",
            "shard.run_self_s",
        ],
        "serve-zipf" => &[
            "spec.parse_us",
            "cache.lookup_us",
            "http.write_us",
            "pool.execute_ms",
            "serve.hits",
            "serve.misses",
            "http.submit_self_s",
        ],
        _ => unreachable!(),
    }
}

#[test]
fn every_workload_emits_its_declared_metrics_and_its_spans_add_up() {
    for w in WORKLOADS {
        for trace in [false, true] {
            let report = run_short(w, 7, trace);
            assert_eq!(report.failed, 0, "{w}: failed operations");
            assert!(report.attempted > 0, "{w}: nothing attempted");
            let line = report.to_json(trace);
            let doc = parse(&line).expect("result line is JSON");
            let metrics = doc.field("metrics").expect("metrics");
            let JsonValue::Obj(pairs) = metrics else {
                panic!("metrics must be an object")
            };
            let emitted: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
            let wanted: Vec<String> = declared(trace).into_iter().map(|(n, _)| n).collect();
            assert_eq!(emitted, wanted, "{w} trace={trace}");
            for (name, m) in pairs {
                assert!(
                    !m.field("unit").unwrap().as_str().unwrap().is_empty(),
                    "{w}: {name} has no unit"
                );
            }
            if !trace {
                for (name, _) in END_TO_END {
                    assert!(
                        report.values[*name] > 0.0,
                        "{w}: end-to-end {name} is not positive"
                    );
                }
                // Six host-time metrics, each reported scaled or raw as
                // `SCALED` says.
                assert_eq!(report.scaling.len(), 6, "{w}");
                for (name, &(scaled, raw)) in &report.scaling {
                    let want = if is_scaled(w, name) { scaled } else { raw };
                    assert_eq!(report.values[name], want, "{w}: {name}");
                }
                continue;
            }
            for name in busy_layers(w) {
                assert!(
                    report.values[*name] > 0.0,
                    "{w}: layer metric {name} is zero"
                );
            }
            check_nesting(&report.spans).unwrap_or_else(|e| panic!("{w}: {e}"));
            let b = breakdown(&report.spans, 0);
            assert!(b.wall_ns > 0, "{w}: no traced wall time");
            let layered: u64 = b.self_ns.values().sum();
            assert_eq!(
                layered + b.unattributed_ns,
                b.wall_ns,
                "{w}: self times do not add up"
            );
            let reported: f64 = SPANS
                .iter()
                .map(|s| report.values[&format!("{s}_self_s")])
                .sum::<f64>()
                + report.values["trace.unattributed_s"];
            let wall = report.values["trace.wall_s"];
            assert!(
                (reported - wall).abs() <= 1e-6 * wall.max(1.0),
                "{w}: {reported} != {wall}"
            );
        }
    }
}

#[test]
fn breakdown_splits_nested_spans_exactly() {
    let span = |name, parent, start, end| trace::Span {
        name,
        parent,
        req: 0,
        track: 0,
        start,
        end,
    };
    let spans = vec![
        span("root", None, 0, 100),
        span("machine.run", Some(0), 10, 60),
        span("box.cal", Some(1), 20, 30),
        span("machine.new", Some(0), 70, 80),
        span("root", None, 200, 250),
    ];
    check_nesting(&spans).unwrap();
    let b = breakdown(&spans, 0);
    assert_eq!(b.wall_ns, 150);
    assert_eq!(b.unattributed_ns, 40 + 50);
    assert_eq!(b.self_ns["machine.run"], 40);
    assert_eq!(b.self_ns["box.cal"], 10);
    assert_eq!(b.self_ns["machine.new"], 10);
    let mut bad = spans.clone();
    bad[2].end = 70;
    assert!(check_nesting(&bad).is_err());
}

#[test]
fn the_seed_changes_the_inputs_but_not_the_metric_names() {
    for w in ["paper-grid", "huge-shard"] {
        let (a, b) = (run_short(w, 1, true), run_short(w, 2, true));
        assert_eq!(
            a.values.keys().collect::<Vec<_>>(),
            b.values.keys().collect::<Vec<_>>(),
            "{w}"
        );
        // Exact simulation counts differ when the simulated inputs do.
        assert_ne!(
            a.values["core.false_conflicts"], b.values["core.false_conflicts"],
            "{w}"
        );
    }
    let (a, b) = (serve::Inputs::new(1), serve::Inputs::new(2));
    assert_ne!(a.hot, b.hot);
    assert_ne!(a.miss(0), b.miss(0));
    assert_eq!(serve::Inputs::new(1).hot, a.hot, "same seed, same inputs");
    let (ra, rb) = (
        run_short("serve-zipf", 1, false),
        run_short("serve-zipf", 2, false),
    );
    assert_eq!(
        ra.values.keys().collect::<Vec<_>>(),
        rb.values.keys().collect::<Vec<_>>()
    );
}
