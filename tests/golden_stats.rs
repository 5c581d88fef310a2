//! Golden-stats equivalence fence for the hot-path optimisation work.
//!
//! Unlike `tests/golden.rs` (which checks determinism within one build and
//! a handful of headline counters), this test pins the *entire* `RunStats`
//! of a few (benchmark, detector, seed) cells to exact constants captured
//! from the pre-optimisation simulator. Any change to cache indexing,
//! hashing, victim selection, scheduling order, or allocation strategy that
//! alters even one counter, histogram bucket, or time-series stamp fails
//! here — this is the "bit-identical before/after" bar for perf refactors.
//!
//! To re-baseline after an *intentional* behavioural change:
//!     cargo test --test golden_stats -- --ignored --nocapture
//! and paste the printed `Cell` rows over the `EXPECTED` table (re-checking
//! EXPERIMENTS.md in the same commit).

use asf_core::detector::DetectorKind;
use asf_machine::machine::{AdaptiveConfig, FabricKind, Machine, SimConfig, SignatureConfig};
use asf_stats::run::RunStats;
use asf_workloads::Scale;

/// FNV-1a over a canonical serialisation of every `RunStats` field —
/// [`asf_stats::digest::run_stats_digest`], the exact fold this fence
/// historically defined inline. It moved into the stats crate so the
/// serve layer's content-addressed cache stamps results with the *same*
/// digest this table pins; the constants below did not change.
fn digest(s: &RunStats) -> u64 {
    asf_stats::digest::run_stats_digest(s)
}

/// Key counters kept alongside the digest so a failure names *what* moved
/// instead of only "the hash changed".
type Key = (u64, u64, u64, u64, u64, u64, u64, u64);

fn key(s: &RunStats) -> Key {
    (
        s.tx_committed,
        s.tx_aborted,
        s.conflicts.total(),
        s.conflicts.false_total(),
        s.probes,
        s.l1_hits,
        s.l1_misses,
        s.cycles,
    )
}

/// The pinned cells: three paper-standard configurations plus one cell each
/// for the adaptive predictor (`line_heat` path) and DPTM WAR speculation
/// (`read_log` path), so every data structure touched by the hot-path
/// rewrite sits behind this fence.
fn cells() -> Vec<(&'static str, &'static str, SimConfig)> {
    vec![
        (
            "ssca2/sb4/seed=0xA5",
            "ssca2",
            SimConfig::paper_seeded(DetectorKind::SubBlock(4), 0xA5),
        ),
        (
            "vacation/baseline/seed=0x1CE",
            "vacation",
            SimConfig::paper_seeded(DetectorKind::Baseline, 0x1CE),
        ),
        (
            "intruder/perfect/seed=0x7E57",
            "intruder",
            SimConfig::paper_seeded(DetectorKind::Perfect, 0x7E57),
        ),
        ("ssca2/adaptive/seed=0xADA", "ssca2", {
            let mut c = SimConfig::paper_seeded(DetectorKind::Baseline, 0xADA);
            c.adaptive = Some(AdaptiveConfig::standard());
            c
        }),
        ("kmeans/dptm/seed=0xD9", "kmeans", {
            let mut c = SimConfig::paper_seeded(DetectorKind::Baseline, 0xD9);
            c.war_speculation = true;
            c
        }),
        // Probe-path fences: the residency-index rewrite must keep both the
        // probe-filter directory accounting and the signature (LogTM-SE)
        // detection path — which fires on cores holding *no* copy of the
        // probed line — bit-identical, not just the broadcast default.
        ("utilitymine/sb4+probefilter/seed=0xF17", "utilitymine", {
            let mut c = SimConfig::paper_seeded(DetectorKind::SubBlock(4), 0xF17);
            c.fabric = FabricKind::ProbeFilter;
            c
        }),
        ("genome/signatures1024/seed=0x516", "genome", {
            let mut c = SimConfig::paper_seeded(DetectorKind::Baseline, 0x516);
            c.signatures = Some(SignatureConfig::logtm_se());
            c
        }),
        // Spec-directory fences (PR 3): a conflict-heavy cell checked with
        // the one-lookup directory resolution (the default) — the same
        // digest must also hold under the exhaustive metadata walk, which
        // the A/B test below enforces against this very table.
        (
            "labyrinth/sb8/seed=0xD1C",
            "labyrinth",
            SimConfig::paper_seeded(DetectorKind::SubBlock(8), 0xD1C),
        ),
        (
            "vacation/sb2/seed=0x5D1",
            "vacation",
            SimConfig::paper_seeded(DetectorKind::SubBlock(2), 0x5D1),
        ),
        // The A/B halves: identical configurations forced onto the
        // exhaustive per-victim metadata walk. Pinned to the *same* digests
        // as the directory-resolved cells above — the directory may only
        // change how speculative metadata is found, never any statistic.
        ("labyrinth/sb8/seed=0xD1C/exhaustive-spec-walk", "labyrinth", {
            let mut c = SimConfig::paper_seeded(DetectorKind::SubBlock(8), 0xD1C);
            c.exhaustive_spec_walk = true;
            c
        }),
        ("vacation/sb2/seed=0x5D1/exhaustive-spec-walk", "vacation", {
            let mut c = SimConfig::paper_seeded(DetectorKind::SubBlock(2), 0x5D1);
            c.exhaustive_spec_walk = true;
            c
        }),
        // Batched-probe fences (PR 6): the same two conflict-heavy cells
        // forced onto the sequential one-victim-at-a-time reference path.
        // Pinned to the *same* digests again — batching every same-cycle
        // verdict into one spec-directory pass may only change how fast
        // probes resolve, never any statistic.
        ("labyrinth/sb8/seed=0xD1C/sequential-probes", "labyrinth", {
            let mut c = SimConfig::paper_seeded(DetectorKind::SubBlock(8), 0xD1C);
            c.sequential_probe_resolution = true;
            c
        }),
        ("vacation/sb2/seed=0x5D1/sequential-probes", "vacation", {
            let mut c = SimConfig::paper_seeded(DetectorKind::SubBlock(2), 0x5D1);
            c.sequential_probe_resolution = true;
            c
        }),
    ]
}

fn run(bench: &str, cfg: SimConfig) -> RunStats {
    let w = asf_workloads::by_name(bench, Scale::Small).expect("known benchmark");
    Machine::run(w.as_ref(), cfg).stats
}

/// Expected (digest, key) per cell, captured from the pre-optimisation
/// simulator (commit f4c5c8f lineage) at `Scale::Small`.
const EXPECTED: &[(&str, u64, Key)] = &[
    ("ssca2/sb4/seed=0xA5", 0x272ab65f4b1bfeaf, (480, 47, 47, 24, 819, 1249, 819, 14358)),
    ("vacation/baseline/seed=0x1CE", 0x99b14e079c667a11, (360, 140, 140, 100, 2034, 2216, 2034, 48190)),
    ("intruder/perfect/seed=0x7E57", 0xc333126da5733654, (520, 222, 222, 0, 687, 1064, 687, 131853)),
    ("ssca2/adaptive/seed=0xADA", 0x886cab87da6c577c, (480, 70, 70, 55, 835, 1290, 835, 16626)),
    ("kmeans/dptm/seed=0xD9", 0x164343f68462a897, (400, 82, 76, 58, 1160, 2274, 1160, 46357)),
    ("utilitymine/sb4+probefilter/seed=0xF17", 0x9dc6556de940fe6c, (336, 32, 32, 32, 1404, 867, 1404, 61031)),
    ("genome/signatures1024/seed=0x516", 0x24d3edb7c6e06347, (400, 133, 133, 111, 2303, 960, 2303, 64402)),
    ("labyrinth/sb8/seed=0xD1C", 0x82d8d9714f5ece8e, (105, 50, 37, 6, 1058, 1842, 1058, 65563)),
    ("vacation/sb2/seed=0x5D1", 0x8e06e4f7134f4fd9, (360, 94, 94, 66, 2011, 1865, 2011, 46555)),
    // Same digests as the two cells above, by design (A/B fence).
    ("labyrinth/sb8/seed=0xD1C/exhaustive-spec-walk", 0x82d8d9714f5ece8e, (105, 50, 37, 6, 1058, 1842, 1058, 65563)),
    ("vacation/sb2/seed=0x5D1/exhaustive-spec-walk", 0x8e06e4f7134f4fd9, (360, 94, 94, 66, 2011, 1865, 2011, 46555)),
    ("labyrinth/sb8/seed=0xD1C/sequential-probes", 0x82d8d9714f5ece8e, (105, 50, 37, 6, 1058, 1842, 1058, 65563)),
    ("vacation/sb2/seed=0x5D1/sequential-probes", 0x8e06e4f7134f4fd9, (360, 94, 94, 66, 2011, 1865, 2011, 46555)),
];

#[test]
fn golden_stats_bit_identical() {
    for (name, bench, cfg) in cells() {
        let stats = run(bench, cfg);
        let (d, k) = (digest(&stats), key(&stats));
        let (_, ed, ek) = EXPECTED
            .iter()
            .find(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("no expectation for {name}"));
        assert_eq!(
            k, *ek,
            "{name}: key counters (committed, aborted, conflicts, false, \
             probes, l1_hits, l1_misses, cycles) drifted"
        );
        assert_eq!(d, *ed, "{name}: full RunStats digest drifted");
    }
}

/// Prints the current actuals in `EXPECTED` table form; used to (re)baseline.
#[test]
#[ignore = "baseline capture helper, run with --ignored --nocapture"]
fn print_golden_stats() {
    for (name, bench, cfg) in cells() {
        let stats = run(bench, cfg);
        println!("    (\"{name}\", {:#018x}, {:?}),", digest(&stats), key(&stats));
    }
}

// ---------------------------------------------------------------------------
// Huge-tier fence (PR 7): one shard-parallel configuration pinned in both
// execution modes. The two cells share one digest constant *by construction*
// — the worker-thread count must be bit-invisible — so this extends the
// golden fence across the shard engine: any change to epoch scheduling,
// barrier ordering, or cross-shard probe routing that moves a single
// counter fails here.
// ---------------------------------------------------------------------------

fn run_shard(worker_threads: usize) -> asf_machine::shard::ShardOutput {
    use asf_machine::hier::DirLatency;
    use asf_machine::shard::{ShardConfig, ShardEngine};
    let w = asf_workloads::streaming::by_name("smoke").expect("smoke preset");
    let base = SimConfig::paper_seeded(DetectorKind::SubBlock(8), 0x46E);
    ShardEngine::new(
        &w,
        base,
        ShardConfig {
            total_cores: 32,
            cores_per_cluster: 16,
            epoch_cycles: 4096,
            worker_threads,
            dir_latency: DirLatency::opteron_like(),
        },
    )
    .try_run()
    .expect("huge-tier golden run completes")
}

/// Expected (digest, key) of the huge-tier cell — identical for the
/// sequential (1-thread) and parallel (4-thread) modes by design.
const EXPECTED_SHARD: (u64, Key) = (0x9ce664e0ce98b5a6, (689, 0, 0, 0, 1952, 2871, 1952, 16855));

#[test]
fn golden_stats_shard_sequential() {
    let stats = run_shard(1).stats;
    assert_eq!(key(&stats), EXPECTED_SHARD.1, "huge-tier key counters drifted (sequential)");
    assert_eq!(digest(&stats), EXPECTED_SHARD.0, "huge-tier digest drifted (sequential)");
}

#[test]
fn golden_stats_shard_parallel() {
    let stats = run_shard(4).stats;
    assert_eq!(key(&stats), EXPECTED_SHARD.1, "huge-tier key counters drifted (4 workers)");
    assert_eq!(digest(&stats), EXPECTED_SHARD.0, "huge-tier digest drifted (4 workers)");
}

/// Prints the huge-tier actuals; used to (re)baseline `EXPECTED_SHARD`
/// and `EXPECTED_SHARD_SCALE`.
#[test]
#[ignore = "baseline capture helper, run with --ignored --nocapture"]
fn print_golden_shard_stats() {
    let out = run_shard(1);
    println!("    ({:#018x}, {:?})", digest(&out.stats), key(&out.stats));
    println!("    {:?}", scale_key(&out.scale));
}

/// The huge-tier cell's cross-shard counters: (epochs, cross_probes,
/// cross_aborts, dir_lookups, dir_probes_routed, dir_latency_cycles,
/// dir_lines). `RunStats` does not see directory routing, so these pin
/// the barrier's note/route passes themselves.
type ScaleKey = (u64, u64, u64, u64, u64, u64, usize);

fn scale_key(s: &asf_machine::shard::ScaleStats) -> ScaleKey {
    (
        s.epochs,
        s.cross_probes,
        s.cross_aborts,
        s.dir_lookups,
        s.dir_probes_routed,
        s.dir_latency_cycles,
        s.dir_lines,
    )
}

/// Expected `ScaleKey` of the huge-tier cell, for every thread count.
const EXPECTED_SHARD_SCALE: ScaleKey = (5, 19, 0, 1374, 19, 84720, 1739);

#[test]
fn golden_scale_stats_shard_sequential() {
    let out = run_shard(1);
    assert_eq!(
        scale_key(&out.scale),
        EXPECTED_SHARD_SCALE,
        "huge-tier ScaleStats drifted (sequential)"
    );
}

#[test]
fn golden_scale_stats_shard_parallel() {
    let out = run_shard(4);
    assert_eq!(
        scale_key(&out.scale),
        EXPECTED_SHARD_SCALE,
        "huge-tier ScaleStats drifted (4 workers)"
    );
}

// ---------------------------------------------------------------------------
// Standard-scale grid fence: the paper's 10 kernels × {baseline, sb4,
// perfect} at `SimConfig::paper`, the grid the benchmark's `paper-grid`
// workload sweeps. The Small-scale cells above miss drift that only the
// larger inputs reach; this table pins every cell's full digest.
// ---------------------------------------------------------------------------

const GRID_DETECTORS: [DetectorKind; 3] =
    [DetectorKind::Baseline, DetectorKind::SubBlock(4), DetectorKind::Perfect];

fn grid_stats() -> Vec<(String, RunStats)> {
    let mut out = Vec::new();
    for w in asf_workloads::all(Scale::Standard) {
        for det in GRID_DETECTORS {
            let stats = Machine::run(w.as_ref(), SimConfig::paper(det)).stats;
            out.push((format!("{}/{}", w.name(), det.label()), stats));
        }
    }
    out
}

/// Expected (digest, key) per Standard-scale grid cell.
const EXPECTED_GRID: &[(&str, u64, Key)] = &[
    ("intruder/baseline", 0x36d34c6c782689a2, (4160, 917, 917, 45, 4055, 8345, 4055, 574092)),
    ("intruder/sb4", 0x8823d45fb850c267, (4160, 903, 903, 7, 4136, 8166, 4136, 539820)),
    ("intruder/perfect", 0x7d0eab2c2da32336, (4160, 685, 685, 0, 3730, 8016, 3730, 536381)),
    ("kmeans/baseline", 0x044f9d9fd64191d0, (3200, 950, 950, 704, 8051, 20581, 8051, 449265)),
    ("kmeans/sb4", 0x1b7ee9b36cda9eaa, (3200, 295, 295, 103, 7881, 16972, 7881, 252126)),
    ("kmeans/perfect", 0xc316e6525ee4bf18, (3200, 191, 191, 0, 7419, 16836, 7419, 244535)),
    ("labyrinth/baseline", 0x97774cfd726e6278, (581, 409, 355, 286, 6698, 16041, 6698, 415864)),
    ("labyrinth/sb4", 0x4824971014ef3d87, (581, 274, 216, 137, 6191, 12541, 6191, 362489)),
    ("labyrinth/perfect", 0x706619900e6743fa, (581, 134, 68, 0, 5432, 9396, 5432, 294540)),
    ("ssca2/baseline", 0x2afd13ba752327d8, (3840, 991, 991, 852, 7092, 11224, 7092, 130650)),
    ("ssca2/sb4", 0x1ad484a5834c6344, (3840, 261, 261, 112, 6024, 10160, 6024, 91834)),
    ("ssca2/perfect", 0x6e4fad3a95a2d1be, (3840, 155, 155, 0, 5786, 10078, 5786, 86083)),
    ("vacation/baseline", 0x895cdd0354b27c08, (2880, 1509, 1509, 1135, 12838, 23850, 12838, 321017)),
    ("vacation/sb4", 0xf690c0f07380e79b, (2880, 650, 650, 84, 12519, 18366, 12519, 238147)),
    ("vacation/perfect", 0xd9a0777d2e8553e3, (2880, 613, 613, 0, 12494, 18155, 12494, 225970)),
    ("genome/baseline", 0xf61115b53ff73c8c, (3200, 850, 850, 622, 13341, 12496, 13341, 363192)),
    ("genome/sb4", 0xa361702e634dc6b7, (3200, 429, 429, 131, 13341, 10695, 13341, 295943)),
    ("genome/perfect", 0x6ed6959f3e580022, (3200, 320, 320, 0, 13228, 10374, 13228, 284643)),
    ("scalparc/baseline", 0xfcb8902edb6fef63, (3040, 717, 717, 397, 10990, 19700, 10990, 309743)),
    ("scalparc/sb4", 0xf99c70f2acdd7f5e, (3040, 332, 332, 8, 10592, 17615, 10592, 286180)),
    ("scalparc/perfect", 0x45ffc8ded85539df, (3040, 285, 285, 0, 10563, 17325, 10563, 283173)),
    ("apriori/baseline", 0x5f25b2890b6cd74c, (3360, 2353, 2353, 2328, 19565, 42833, 19565, 387113)),
    ("apriori/sb4", 0xe20a46a423b5c9d3, (3360, 61, 61, 21, 18254, 22798, 18254, 202016)),
    ("apriori/perfect", 0xe7b385e4a3e6536f, (3360, 28, 28, 0, 18206, 22450, 18206, 201231)),
    ("fluidanimate/baseline", 0x4293bfaf9738e108, (2400, 105, 105, 49, 4885, 9783, 4885, 231035)),
    ("fluidanimate/sb4", 0x22a89dfc05d56964, (2400, 67, 67, 0, 4839, 9736, 4839, 231399)),
    ("fluidanimate/perfect", 0x22a89dfc05d56964, (2400, 67, 67, 0, 4839, 9736, 4839, 231399)),
    ("utilitymine/baseline", 0x37e2561eb9c35ac5, (2720, 141, 141, 140, 9965, 7832, 9965, 413364)),
    ("utilitymine/sb4", 0x37e2561eb9c35ac5, (2720, 141, 141, 140, 9965, 7832, 9965, 413364)),
    ("utilitymine/perfect", 0xb6674bb4308e0023, (2720, 9, 9, 0, 9819, 7437, 9819, 407962)),
];

#[test]
fn golden_stats_standard_grid() {
    let got = grid_stats();
    assert_eq!(got.len(), EXPECTED_GRID.len(), "grid cell count");
    for ((name, stats), (ename, ed, ek)) in got.iter().zip(EXPECTED_GRID) {
        assert_eq!(name, ename, "grid cell order");
        assert_eq!(key(stats), *ek, "{name}: key counters drifted");
        assert_eq!(digest(stats), *ed, "{name}: full RunStats digest drifted");
    }
}

/// Prints the grid actuals in `EXPECTED_GRID` form; used to (re)baseline.
#[test]
#[ignore = "baseline capture helper, run with --ignored --nocapture"]
fn print_golden_grid_stats() {
    for (name, stats) in grid_stats() {
        println!("    (\"{name}\", {:#018x}, {:?}),", digest(&stats), key(&stats));
    }
}

// ---------------------------------------------------------------------------
// Eviction fence: the paper geometry never evicts from L2 or L3, so no cell
// above reaches the outer levels' victim path. A shrunken hierarchy (L1
// 4 sets × 2 ways, L2 8 × 4, L3 16 × 4) evicts at every level and turns
// pinned L1 sets into capacity aborts.
// ---------------------------------------------------------------------------

fn run_evicting() -> (RunStats, [u64; 3]) {
    use asf_machine::obs::ObsConfig;
    use asf_mem::geometry::CacheGeometry;
    let mut cfg = SimConfig::paper_seeded(DetectorKind::SubBlock(4), 0xE71C);
    cfg.machine.l1 = CacheGeometry::new(4 * 2 * 64, 2);
    cfg.machine.l2 = CacheGeometry::new(8 * 4 * 64, 4);
    cfg.machine.l3 = CacheGeometry::new(16 * 4 * 64, 4);
    let w = asf_workloads::by_name("genome", Scale::Small).expect("known benchmark");
    let mut m = Machine::new(w.as_ref(), cfg);
    m.enable_observability(ObsConfig::default());
    let out = m.run_to_completion();
    let report = out.obs.expect("observability was enabled");
    let ev = |level: &str| {
        report
            .registry
            .get_by_name(&format!("cache.{level}_evictions"))
            .expect("eviction counter registered")
    };
    (out.stats, [ev("l1"), ev("l2"), ev("l3")])
}

/// Expected (digest, key) of the evicting cell.
const EXPECTED_EVICTING: (u64, Key) =
    (0x07e70cd054dac815, (400, 13196, 2, 2, 26978, 47308, 26978, 57911050));

#[test]
fn golden_stats_evicting_geometry() {
    let (stats, evictions) = run_evicting();
    assert!(
        evictions.iter().all(|&e| e > 0),
        "every level must evict under the shrunken geometry: {evictions:?}"
    );
    let capacity = stats.aborts_by_cause[2];
    assert!(capacity > 0, "pinned L1 sets must produce capacity aborts");
    assert_eq!(key(&stats), EXPECTED_EVICTING.1, "evicting cell key counters drifted");
    assert_eq!(digest(&stats), EXPECTED_EVICTING.0, "evicting cell digest drifted");
}

/// Prints the evicting cell's actuals; used to (re)baseline.
#[test]
#[ignore = "baseline capture helper, run with --ignored --nocapture"]
fn print_golden_evicting_stats() {
    let (stats, evictions) = run_evicting();
    println!(
        "    ({:#018x}, {:?}) evictions {evictions:?} capacity {}",
        digest(&stats),
        key(&stats),
        stats.aborts_by_cause[2]
    );
}

// ---------------------------------------------------------------------------
// Contended shard fence: the huge-tier cell above resolves no cross-shard
// abort, so it cannot see when or how an external probe is delivered. The
// `mix` preset on 64 cores (4 clusters of 16) updates a global pool every
// cluster shares, so its barrier routes probes that abort remote
// transactions. Pinned at 1 and 2 workers: the digest, the key counters
// and all seven `ScaleStats` counters.
// ---------------------------------------------------------------------------

fn run_contended_shard(worker_threads: usize) -> asf_machine::shard::ShardOutput {
    use asf_machine::shard::{ShardConfig, ShardEngine};
    let w = asf_workloads::streaming::by_name("mix").expect("mix preset");
    let base = SimConfig::paper_seeded(DetectorKind::SubBlock(4), 5);
    ShardEngine::new(&w, base, ShardConfig { worker_threads, ..ShardConfig::huge(64) })
        .try_run()
        .expect("contended shard run completes")
}

/// Expected (digest, key) of the contended cell, for every thread count.
const EXPECTED_CONTENDED: (u64, Key) =
    (0x500220867c6d4ba8, (14734, 267, 267, 230, 13109, 91657, 13109, 67322));

/// Expected `ScaleKey` of the contended cell, for every thread count.
const EXPECTED_CONTENDED_SCALE: ScaleKey = (17, 1746, 17, 29291, 1746, 1966980, 4416);

#[test]
fn golden_stats_contended_shard() {
    for workers in [1, 2] {
        let out = run_contended_shard(workers);
        assert_eq!(
            scale_key(&out.scale),
            EXPECTED_CONTENDED_SCALE,
            "contended shard ScaleStats drifted ({workers} workers)"
        );
        assert_eq!(
            key(&out.stats),
            EXPECTED_CONTENDED.1,
            "contended shard key counters drifted ({workers} workers)"
        );
        assert_eq!(
            digest(&out.stats),
            EXPECTED_CONTENDED.0,
            "contended shard digest drifted ({workers} workers)"
        );
    }
}

/// Prints the contended cell's actuals; used to (re)baseline.
#[test]
#[ignore = "baseline capture helper, run with --ignored --nocapture"]
fn print_golden_contended_shard_stats() {
    for workers in [1, 2] {
        let out = run_contended_shard(workers);
        println!("    {workers}: ({:#018x}, {:?})", digest(&out.stats), key(&out.stats));
        println!("    {workers}: {:?}", scale_key(&out.scale));
    }
}
