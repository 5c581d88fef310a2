//! `asf-repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! asf-repro [EXPERIMENT ...] [--scale small|standard|large] [--seed N] [--csv DIR] [--json DIR]
//!                            [--threads N] [--check-baseline BENCH_perf.json]
//!                            [--checkpoint FILE] [--resume]
//!
//! EXPERIMENT: all | ext | table1 | table2 | table3 | fig1 .. fig10
//!           | overhead | headline | diag | scaling | backoff | policy | charts | excluded | related | signatures | variance | adaptive | fabric | summary | faults | perf | profile:<bench> | trace:<bench>
//! ```
//!
//! Experiments needing simulation runs share one (benchmark × detector)
//! matrix, aggregated over three seeds; `--seed` changes the seed family,
//! `--scale` the input size. `--csv DIR` additionally writes each table as
//! `DIR/<name>.csv`. `--threads N` (or the `ASF_THREADS` env var) sets the
//! matrix worker-pool size — wall-clock only, results are identical for
//! every worker count; default is the machine's available parallelism.
//!
//! Matrix jobs run under `catch_unwind` with one retry; a job that still
//! fails becomes a failed cell — tables render partial results and the
//! failures are listed at the end (exit code 1). `--checkpoint FILE`
//! persists each completed job to `FILE` as it finishes; `--resume` loads
//! the file first and re-runs only the jobs it is missing.

use asf_harness::experiments;
use asf_harness::matrix::{ComputeOpts, Matrix};
use asf_harness::Checkpoint;
use asf_stats::table::Table;
use asf_workloads::Scale;

const USAGE: &str = "usage: asf-repro [all|ext|table1|table2|table3|fig1..fig10|overhead|headline|diag|scaling|backoff|policy\
                     |charts|excluded|related|signatures|variance|adaptive|fabric|summary|faults|perf|observe|scale|serve|loadtest|chaos|dash|profile:<bench>|trace:<bench>]* \
                     [--scale small|standard|large|huge] [--seed N] [--csv DIR] [--json DIR] [--threads N] [--samples N] \
                     [--check-baseline BENCH_perf.json] [--checkpoint FILE] [--resume] [--smoke] [--allow-failed] \
                     [--port N] [--clients N] [--cache-dir DIR] [--offline]";

/// Subject line of the HEAD commit, for stamping report rounds.
fn git_subject() -> String {
    std::process::Command::new("git")
        .args(["log", "-1", "--pretty=%s"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "(no git)".to_string())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Standard;
    let mut seed: u64 = 0x5eed_2013;
    let mut csv_dir: Option<String> = None;
    let mut json_dir: Option<String> = None;
    let mut check_baseline: Option<String> = None;
    let mut checkpoint_path: Option<String> = None;
    let mut resume = false;
    let mut smoke = false;
    let mut offline = false;
    let mut allow_failed = false;
    let mut port: u16 = 0;
    let mut clients = asf_harness::serve::DEFAULT_CLIENTS;
    let mut cache_dir: Option<String> = None;
    let mut samples = asf_harness::perf::DEFAULT_SAMPLES;
    let mut cmds: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = match args.get(i).map(String::as_str) {
                    Some("small") => Scale::Small,
                    Some("standard") => Scale::Standard,
                    Some("large") => Scale::Large,
                    Some("huge") => Scale::Huge,
                    other => {
                        eprintln!("unknown scale {other:?}\n{USAGE}");
                        std::process::exit(2);
                    }
                };
            }
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| {
                        eprintln!("--seed needs a u64\n{USAGE}");
                        std::process::exit(2);
                    });
            }
            "--csv" => {
                i += 1;
                csv_dir = Some(args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--csv needs a directory\n{USAGE}");
                    std::process::exit(2);
                }));
            }
            "--json" => {
                i += 1;
                json_dir = Some(args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--json needs a directory\n{USAGE}");
                    std::process::exit(2);
                }));
            }
            "--threads" => {
                i += 1;
                let n: usize = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| {
                        eprintln!("--threads needs a positive integer\n{USAGE}");
                        std::process::exit(2);
                    });
                asf_harness::matrix::set_default_workers(Some(n));
            }
            "--check-baseline" => {
                i += 1;
                check_baseline = Some(args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--check-baseline needs a BENCH_perf.json path\n{USAGE}");
                    std::process::exit(2);
                }));
            }
            "--checkpoint" => {
                i += 1;
                checkpoint_path = Some(args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--checkpoint needs a file path\n{USAGE}");
                    std::process::exit(2);
                }));
            }
            "--samples" => {
                i += 1;
                samples = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| {
                        eprintln!("--samples needs a positive integer\n{USAGE}");
                        std::process::exit(2);
                    });
            }
            "--port" => {
                i += 1;
                port = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--port needs a u16 (0 = ephemeral)\n{USAGE}");
                    std::process::exit(2);
                });
            }
            "--clients" => {
                i += 1;
                clients = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| {
                        eprintln!("--clients needs a positive integer\n{USAGE}");
                        std::process::exit(2);
                    });
            }
            "--cache-dir" => {
                i += 1;
                cache_dir = Some(args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--cache-dir needs a directory\n{USAGE}");
                    std::process::exit(2);
                }));
            }
            "--resume" => resume = true,
            "--smoke" => smoke = true,
            "--offline" => offline = true,
            "--allow-failed" => allow_failed = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            cmd => cmds.push(cmd.to_string()),
        }
        i += 1;
    }
    if cmds.is_empty() {
        cmds.push("all".to_string());
    }

    // Structured JSON-lines logging (stderr, ASF_LOG-filtered): every run
    // stamps which experiments it drives, correlating harness activity
    // with the serve layer's request logs when both are captured.
    let log = asf_stats::slog::Logger::from_env();
    log.info("repro.start")
        .str("cmds", &cmds.join(","))
        .str("scale", &format!("{scale:?}"))
        .u64("seed", seed)
        .emit();

    // Only build the matrix if some requested experiment needs it.
    let needs_matrix = cmds.iter().any(|c| {
        matches!(
            c.as_str(),
            "all" | "fig1" | "fig2" | "fig3" | "fig4" | "fig5" | "fig8" | "fig9" | "fig10"
                | "headline" | "diag" | "charts" | "summary"
        )
    });
    if resume && checkpoint_path.is_none() {
        eprintln!("--resume needs --checkpoint FILE\n{USAGE}");
        std::process::exit(2);
    }
    let matrix = needs_matrix.then(|| {
        eprintln!("computing run matrix (scale {scale:?}, seed {seed:#x}) …");
        let checkpoint = checkpoint_path.as_ref().map(|path| {
            if resume {
                Checkpoint::load_or_new(path).unwrap_or_else(|e| {
                    eprintln!("error: {e}");
                    std::process::exit(2);
                })
            } else {
                Checkpoint::new(path)
            }
        });
        let opts = ComputeOpts { retries: 1, checkpoint, ..ComputeOpts::default() };
        let m = Matrix::paper_grid_opts(scale, seed, opts);
        if m.jobs_resumed > 0 {
            eprintln!(
                "resumed {} job(s) from checkpoint, ran {}",
                m.jobs_resumed, m.jobs_run
            );
        }
        m
    });
    let m = matrix.as_ref();

    // Tables that rendered at least one `failed` placeholder cell. Every
    // experiment with an internal matrix (scaling, backoff, ext, …) flows
    // through `emit`, so scanning rendered rows here catches failures the
    // shared paper-grid check below cannot see.
    let failed_tables: std::cell::RefCell<Vec<String>> = std::cell::RefCell::new(Vec::new());
    let emit = |name: &str, table: Table| {
        if table.rows().iter().any(|r| r.iter().any(|c| c == "failed")) {
            failed_tables.borrow_mut().push(name.to_string());
        }
        print!("{}", table.render());
        println!();
        if let Some(dir) = &csv_dir {
            std::fs::create_dir_all(dir).expect("create csv dir");
            let path = format!("{dir}/{name}.csv");
            std::fs::write(&path, table.to_csv()).expect("write csv");
            eprintln!("wrote {path}");
        }
        if let Some(dir) = &json_dir {
            std::fs::create_dir_all(dir).expect("create json dir");
            let path = format!("{dir}/{name}.json");
            std::fs::write(&path, table.to_json()).expect("write json");
            eprintln!("wrote {path}");
        }
    };

    for cmd in &cmds {
        log.debug("repro.cmd").str("cmd", cmd).emit();
        match cmd.as_str() {
            "all" => {
                for (name, table) in experiments::all_experiments(m.expect("matrix")) {
                    emit(name, table);
                }
            }
            "ext" => {
                // Every extension experiment beyond the paper's artifacts.
                emit("scaling", experiments::scaling(scale, seed));
                emit("backoff", experiments::backoff_sweep(scale, seed));
                emit("policy", experiments::policy_ablation(scale, seed));
                emit("related", experiments::related_work(scale, seed));
                emit("signatures", experiments::signatures(scale, seed));
                emit("excluded", experiments::excluded(scale, seed));
                emit("excluded_bayes", experiments::excluded_bayes(scale, seed));
                emit("adaptive", experiments::adaptive(scale, seed));
                emit("fabric", experiments::fabric(scale, seed));
                emit("variance", experiments::variance(scale, seed, 5));
            }
            "table1" => emit("table1", experiments::table1()),
            "table2" => emit("table2", experiments::table2()),
            "table3" => emit("table3", experiments::table3()),
            "fig1" => emit("fig1", experiments::fig1(m.expect("matrix"))),
            "fig2" => emit("fig2", experiments::fig2(m.expect("matrix"))),
            "fig3" => emit("fig3", experiments::fig3(m.expect("matrix"))),
            "fig4" => emit("fig4", experiments::fig4(m.expect("matrix"))),
            "fig5" => emit("fig5", experiments::fig5(m.expect("matrix"))),
            "fig6" => emit("fig6", experiments::fig6()),
            "fig7" => emit("fig7", experiments::fig7()),
            "fig8" => emit("fig8", experiments::fig8(m.expect("matrix"))),
            "fig9" => emit("fig9", experiments::fig9(m.expect("matrix"))),
            "fig10" => emit("fig10", experiments::fig10(m.expect("matrix"))),
            "overhead" => emit("overhead", experiments::overhead_table()),
            "scaling" => emit("scaling", experiments::scaling(scale, seed)),
            "backoff" => emit("backoff", experiments::backoff_sweep(scale, seed)),
            "policy" => emit("policy", experiments::policy_ablation(scale, seed)),
            "excluded" => {
                emit("excluded", experiments::excluded(scale, seed));
                emit("excluded_bayes", experiments::excluded_bayes(scale, seed));
            }
            "related" => emit("related", experiments::related_work(scale, seed)),
            "signatures" => emit("signatures", experiments::signatures(scale, seed)),
            "variance" => emit("variance", experiments::variance(scale, seed, 5)),
            "adaptive" => emit("adaptive", experiments::adaptive(scale, seed)),
            "fabric" => emit("fabric", experiments::fabric(scale, seed)),
            "perf" => {
                // Throughput smoke grid; also writes the machine-readable
                // report to BENCH_perf.json in the current directory (the
                // repo root when run from CI), independent of --json.
                // With --check-baseline PATH the committed report is read
                // *before* the overwrite and the run fails (exit 1) on a
                // >25% wall-time regression or any simulated-cycles drift.
                eprintln!(
                    "timing perf smoke grid (scale {scale:?}, seed {seed:#x}, \
                     {samples} sample(s)/cell) …"
                );
                let baseline = check_baseline.as_ref().map(|p| {
                    std::fs::read_to_string(p).unwrap_or_else(|e| {
                        eprintln!("cannot read baseline {p}: {e}");
                        std::process::exit(2);
                    })
                });
                let report = asf_harness::perf::measure_samples(scale, seed, samples);
                emit("perf", report.table());
                // Carry the append-only round history — and any scale_rounds
                // section — forward from the file being replaced (empty when
                // absent) and record this run as the next round, stamped
                // with HEAD's commit subject.
                let old_json = std::fs::read_to_string("BENCH_perf.json").unwrap_or_default();
                let prior = asf_harness::perf::parse_history(&old_json);
                let history =
                    asf_harness::perf::next_history(&prior, &report, &git_subject());
                let rendered = report.to_json_with_history(&history);
                let carried = asf_harness::scale::carry_scale_rounds(&old_json, &rendered);
                let carried = asf_harness::serve::carry_serve_rounds(&old_json, &carried);
                std::fs::write("BENCH_perf.json", carried)
                    .expect("write BENCH_perf.json");
                eprintln!("wrote BENCH_perf.json ({} history rounds)", history.len());
                if let Some(json) = baseline {
                    match asf_harness::perf::check_against_baseline(&report, &json, 0.25) {
                        Ok(msg) => eprintln!("{msg}"),
                        Err(msg) => {
                            eprintln!("FAIL: {msg}");
                            std::process::exit(1);
                        }
                    }
                }
            }
            "scale" => {
                // Shard-parallel scaling sweep (DESIGN.md §15). `--smoke`
                // runs the CI gate instead: a 2-shard config with 1 and 2
                // worker threads in one process, exit 1 unless bit-equal.
                if smoke {
                    match asf_harness::scale::smoke(seed) {
                        Ok(msg) => eprintln!("{msg}"),
                        Err(e) => {
                            eprintln!("FAIL: {e}");
                            std::process::exit(1);
                        }
                    }
                    continue;
                }
                // `--scale huge` runs the million-transaction soak; every
                // other scale uses the balanced mix preset.
                let preset = if scale == Scale::Huge { "million" } else { "mix" };
                let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
                let (threads_grid, capped) = asf_harness::scale::threads_grid(nproc);
                eprintln!(
                    "scale sweep: preset {preset}, cores {:?} x threads {threads_grid:?}, \
                     seed {seed:#x} …",
                    asf_harness::scale::CORES_GRID,
                );
                let mut checkpoint = checkpoint_path.as_ref().map(|path| {
                    if resume {
                        Checkpoint::load_or_new(path).unwrap_or_else(|e| {
                            eprintln!("error: {e}");
                            std::process::exit(2);
                        })
                    } else {
                        Checkpoint::new(path)
                    }
                });
                let report = asf_harness::scale::sweep(
                    preset,
                    seed,
                    &asf_harness::scale::CORES_GRID,
                    &threads_grid,
                    checkpoint.as_mut(),
                )
                .unwrap_or_else(|e| {
                    eprintln!("FAIL: {e}");
                    std::process::exit(1);
                });
                let mut table = report.table();
                if let Some(note) = capped {
                    table.note(note);
                }
                emit("scale", table);
                if let Some(dir) = &json_dir {
                    for (name, json) in &report.timelines {
                        let path = format!("{dir}/{name}.json");
                        std::fs::write(&path, json).expect("write timeline");
                        eprintln!("wrote {path} — open in chrome://tracing or Perfetto");
                    }
                }
                // Append this sweep as a round of the scale_rounds section.
                let old_json = std::fs::read_to_string("BENCH_perf.json").unwrap_or_default();
                let entry = asf_harness::scale::scale_round_entry(
                    &report,
                    asf_harness::scale::next_scale_round(&old_json),
                    &git_subject(),
                );
                std::fs::write(
                    "BENCH_perf.json",
                    asf_harness::scale::append_scale_round(&old_json, &entry),
                )
                .expect("write BENCH_perf.json");
                eprintln!("appended scale round to BENCH_perf.json");
            }
            "serve" => {
                // Content-addressed simulation service (DESIGN.md §16).
                // `--smoke` runs the CI gate in-process instead: ephemeral
                // port, one fixed-seed job submitted twice, the repeat must
                // answer `cached` with a byte-identical result body.
                if smoke {
                    match asf_serve::loadtest::smoke(seed) {
                        Ok(msg) => eprintln!("{msg} (seed {seed:#x})"),
                        Err(e) => {
                            eprintln!("FAIL: serve smoke: {e}");
                            std::process::exit(1);
                        }
                    }
                    continue;
                }
                let flightrec_dir = std::path::PathBuf::from("results");
                let opts = asf_serve::server::ServeOpts {
                    addr: format!("127.0.0.1:{port}"),
                    disk_dir: cache_dir.clone().map(std::path::PathBuf::from),
                    flightrec_dir: Some(flightrec_dir.clone()),
                    ..asf_serve::server::ServeOpts::default()
                };
                let server = asf_serve::server::Server::start(opts).unwrap_or_else(|e| {
                    eprintln!("FAIL: cannot start server: {e}");
                    std::process::exit(1);
                });
                let addr = server.addr();
                let state = server.state();
                eprintln!(
                    "asf-serve listening on http://{addr} — POST /v1/jobs to submit, \
                     GET /v1/metrics/prometheus to scrape, POST /v1/shutdown to stop"
                );
                server.wait();
                let dumps = state.flightrec.dump_paths();
                let artifacts = if dumps.is_empty() {
                    "none".to_string()
                } else {
                    format!(
                        "{} ({} flight dumps)",
                        flightrec_dir.display(),
                        dumps.len()
                    )
                };
                eprintln!(
                    "asf-serve stopped: addr=http://{addr} requests={} artifacts={artifacts}",
                    state.metrics.total_requests()
                );
            }
            "loadtest" => {
                // Hammer a private server with concurrent in-process
                // clients over a Zipf-skewed job mix; append the round to
                // BENCH_perf.json's serve_rounds section.
                let opts = asf_harness::serve::loadtest_opts(clients, scale, seed);
                eprintln!(
                    "serve loadtest: {} clients x {} requests over {} distinct specs \
                     (scale {scale:?}, seed {seed:#x}) …",
                    opts.clients, opts.requests_per_client, opts.distinct_specs
                );
                let report = asf_serve::loadtest::run(&opts).unwrap_or_else(|e| {
                    eprintln!("FAIL: loadtest: {e}");
                    std::process::exit(1);
                });
                emit("loadtest", asf_harness::serve::loadtest_table(&opts, &report));
                if report.speedup < asf_harness::serve::SPEEDUP_FLOOR {
                    eprintln!(
                        "warning: hot-path speedup {:.0}x is below the {:.0}x target \
                         (loaded host?)",
                        report.speedup,
                        asf_harness::serve::SPEEDUP_FLOOR
                    );
                }
                let old_json = std::fs::read_to_string("BENCH_perf.json").unwrap_or_default();
                let entry = asf_harness::serve::serve_round_entry(
                    &opts,
                    &report,
                    asf_harness::serve::next_serve_round(&old_json),
                    &git_subject(),
                );
                std::fs::write(
                    "BENCH_perf.json",
                    asf_harness::serve::append_serve_round(&old_json, &entry),
                )
                .expect("write BENCH_perf.json");
                eprintln!("appended serve round to BENCH_perf.json");
            }
            "chaos" => {
                // Self-healing soak (DESIGN.md §17): drive a live server
                // under a seeded ServeChaosPlan and assert the healing
                // invariants. `--smoke` runs the short CI gate, which also
                // requires the plan to have demonstrably fired (≥1 injected
                // worker panic, ≥1 deadline expiry). Deterministic in
                // --seed: a CI failure replays locally with the same seed.
                if smoke {
                    match asf_harness::chaos::smoke(seed) {
                        Ok(msg) => eprintln!("{msg}"),
                        Err(e) => {
                            eprintln!("FAIL: chaos smoke: {e}");
                            std::process::exit(1);
                        }
                    }
                    continue;
                }
                eprintln!("chaos soak (seed {seed:#x}) …");
                let opts = asf_harness::chaos::ChaosOpts {
                    seed,
                    ..asf_harness::chaos::ChaosOpts::default()
                };
                match asf_harness::chaos::soak(&opts) {
                    Ok(report) => emit("chaos", report.table(seed)),
                    Err(e) => {
                        eprintln!("FAIL: chaos soak: {e}");
                        std::process::exit(1);
                    }
                }
            }
            "dash" => {
                // Read-only observability dashboard (DESIGN.md §18).
                // `--offline` renders the BENCH_perf.json trajectory (the
                // CI mode, pinned against the committed report); otherwise
                // poll a live server given by --port.
                if offline {
                    let json = std::fs::read_to_string("BENCH_perf.json").unwrap_or_else(|e| {
                        eprintln!("FAIL: dash --offline needs BENCH_perf.json: {e}");
                        std::process::exit(1);
                    });
                    match asf_harness::dash::offline(&json) {
                        Ok(out) => print!("{out}"),
                        Err(e) => {
                            eprintln!("FAIL: dash: {e}");
                            std::process::exit(1);
                        }
                    }
                    continue;
                }
                if port == 0 {
                    eprintln!(
                        "dash needs --port N of a running asf-serve (or --offline)\n{USAGE}"
                    );
                    std::process::exit(2);
                }
                match asf_harness::dash::online(&format!("127.0.0.1:{port}"), 3, 500) {
                    Ok(out) => print!("{out}"),
                    Err(e) => {
                        eprintln!("FAIL: dash: {e}");
                        std::process::exit(1);
                    }
                }
            }
            "observe" => {
                // End-to-end observability run (DESIGN.md §13): per
                // benchmark, write the Chrome/Perfetto timeline and the
                // asf-obs-v1 metrics snapshot, and print the hot-path
                // breakdown + conflict time-series. `--smoke` restricts to
                // one small benchmark and *validates* the artifacts
                // (exit 1 on any contract violation) — the CI gate.
                let benches: Vec<&str> = if smoke {
                    vec![asf_harness::observe::SMOKE_BENCH]
                } else {
                    asf_harness::experiments::REPRESENTATIVE.to_vec()
                };
                eprintln!(
                    "observing {benches:?} (scale {scale:?}, seed {seed:#x}) …"
                );
                let dir = json_dir.clone().unwrap_or_else(|| "results".to_string());
                std::fs::create_dir_all(&dir).expect("create results dir");
                let mut observations = Vec::new();
                for bench in benches {
                    let obs = asf_harness::observe::observe_one(
                        bench,
                        scale,
                        seed,
                        asf_harness::observe::DEFAULT_INTERVAL,
                    )
                    .unwrap_or_else(|e| {
                        eprintln!("error: {e}");
                        std::process::exit(1);
                    });
                    if smoke {
                        if let Err(msg) = asf_harness::observe::validate(&obs) {
                            eprintln!("FAIL: observe artifacts for {bench}: {msg}");
                            std::process::exit(1);
                        }
                        eprintln!("observe artifacts for {bench} validate OK");
                    }
                    let trace_path = format!("{dir}/observe_trace_{bench}.json");
                    std::fs::write(&trace_path, &obs.trace_json).expect("write trace");
                    eprintln!(
                        "wrote {trace_path} ({} events) — open in chrome://tracing or Perfetto",
                        obs.trace_events
                    );
                    let metrics_path = format!("{dir}/observe_metrics_{bench}.json");
                    std::fs::write(&metrics_path, obs.report.to_json()).expect("write metrics");
                    eprintln!("wrote {metrics_path}");
                    observations.push(obs);
                }
                emit("observe_breakdown", asf_harness::observe::breakdown_table(&observations));
                emit("observe_series", asf_harness::observe::series_table(&observations));
                for obs in &observations {
                    println!("{}", asf_harness::observe::series_chart(obs).render(48));
                }
            }
            cmd if cmd.starts_with("trace:") => {
                // Run one benchmark with tracing and write a Chrome-tracing
                // JSON next to the CSVs (or ./trace_<bench>.json).
                let bench = cmd.trim_start_matches("trace:");
                let w = asf_workloads::by_name(bench, scale).unwrap_or_else(|| {
                    eprintln!("unknown benchmark {bench}");
                    std::process::exit(2);
                });
                let cfg = asf_machine::machine::SimConfig::paper_seeded(
                    asf_core::detector::DetectorKind::SubBlock(4),
                    seed,
                );
                let mut machine = asf_machine::machine::Machine::new(w.as_ref(), cfg);
                machine.enable_trace(200_000);
                let out = machine.run_to_completion();
                let trace = out.trace.expect("tracing enabled");
                let dir = csv_dir.clone().unwrap_or_else(|| ".".to_string());
                std::fs::create_dir_all(&dir).expect("create dir");
                let path = format!("{dir}/trace_{bench}.json");
                std::fs::write(&path, trace.to_chrome_json()).expect("write trace");
                println!(
                    "wrote {path} ({} events, {} dropped) — open in chrome://tracing or Perfetto",
                    trace.len(),
                    trace.dropped()
                );
            }
            "faults" => {
                eprintln!("fault-injection grid (scale {scale:?}, seed {seed:#x}) …");
                match experiments::faults(scale, seed) {
                    Ok(table) => emit("faults", table),
                    Err(e) => {
                        eprintln!("error: {e}");
                        std::process::exit(1);
                    }
                }
            }
            cmd if cmd.starts_with("profile:") => {
                let bench = cmd.trim_start_matches("profile:");
                match experiments::profile(bench, scale, seed) {
                    Ok(table) => emit(&format!("profile_{bench}"), table),
                    Err(e) => {
                        eprintln!("error: {e}");
                        std::process::exit(2);
                    }
                }
            }
            "charts" => {
                let mm = m.expect("matrix");
                println!("{}", experiments::fig1_chart(mm).render(48));
                println!("{}", experiments::fig8_chart(mm).render(48));
                println!("{}", experiments::fig10_chart(mm).render(48));
            }
            "headline" => emit("headline", experiments::headline(m.expect("matrix"))),
            "summary" => emit("summary", experiments::summary(m.expect("matrix"))),
            "diag" => emit("diag", experiments::diag(m.expect("matrix"))),
            other => {
                eprintln!("unknown experiment {other}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    // Failed cells render as placeholder rows above; list them here and
    // fail the process so CI notices partial results. This covers both the
    // shared paper-grid matrix and every experiment-internal matrix (whose
    // `failed` placeholder rows are caught at emit time). `--allow-failed`
    // downgrades the exit to a warning for deliberate partial runs.
    let mut any_failed = false;
    if let Some(m) = m {
        let failed = m.failed_cells();
        if !failed.is_empty() {
            any_failed = true;
            eprintln!("{} matrix cell(s) failed (tables show partial results):", failed.len());
            for (key, error, attempts) in &failed {
                eprintln!(
                    "  {}/{} after {attempts} attempt(s): {error}",
                    key.bench, key.detector
                );
            }
        }
    }
    let failed_tables = failed_tables.into_inner();
    if !failed_tables.is_empty() {
        any_failed = true;
        eprintln!(
            "{} table(s) contain failed cells: {}",
            failed_tables.len(),
            failed_tables.join(", ")
        );
    }
    if any_failed {
        if allow_failed {
            eprintln!("--allow-failed: exiting 0 despite failed cells");
        } else {
            std::process::exit(1);
        }
    }
}
