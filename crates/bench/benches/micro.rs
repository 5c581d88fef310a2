//! Micro-benchmarks of the hot paths: the detector's probe check (executed
//! on every coherence probe against every speculative line), mask
//! coarsening, the line-id-keyed cache level, and the deterministic RNG.

use asf_core::detector::{DetectorKind, ProbeKind};
use asf_core::spec::SpecState;
use asf_mem::addr::Addr;
use asf_mem::cache::CacheArray;
use asf_mem::geometry::CacheGeometry;
use asf_mem::mask::AccessMask;
use asf_mem::rng::SimRng;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_detector(c: &mut Criterion) {
    let mut g = c.benchmark_group("detector");
    let mut st = SpecState::EMPTY;
    st.mark_write(AccessMask::from_range(0, 8));
    st.mark_read(AccessMask::from_range(24, 16));
    let probes: Vec<AccessMask> = (0..56).map(|o| AccessMask::from_range(o, 8)).collect();

    for k in [DetectorKind::Baseline, DetectorKind::SubBlock(4), DetectorKind::Perfect] {
        g.bench_function(format!("check_probe/{k}"), |b| {
            b.iter(|| {
                let mut hits = 0u32;
                for &m in &probes {
                    if k
                        .check_probe(black_box(&st), ProbeKind::Invalidating, black_box(m))
                        .is_conflict()
                    {
                        hits += 1;
                    }
                    if k
                        .check_probe(black_box(&st), ProbeKind::NonInvalidating, black_box(m))
                        .is_conflict()
                    {
                        hits += 1;
                    }
                }
                black_box(hits)
            })
        });
    }
    g.finish();
}

fn bench_masks(c: &mut Criterion) {
    let mut g = c.benchmark_group("mask");
    let masks: Vec<AccessMask> = (0..57).map(|o| AccessMask::from_range(o, 7)).collect();
    for n in [2usize, 4, 8, 16] {
        g.bench_function(format!("coarsen/{n}"), |b| {
            b.iter(|| {
                let mut acc = 0u64;
                for &m in &masks {
                    acc ^= m.coarsen(black_box(n)).0;
                }
                black_box(acc)
            })
        });
    }
    g.bench_function("overlaps", |b| {
        b.iter(|| {
            let mut hits = 0u32;
            for &a in &masks {
                for &bm in &masks {
                    hits += a.overlaps(bm) as u32;
                }
            }
            black_box(hits)
        })
    });
    g.finish();
}

fn bench_cache_array(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache-array");
    let geom = CacheGeometry::new(64 * 1024, 2);
    g.bench_function("insert_evict_1k", |b| {
        b.iter(|| {
            let mut arr: CacheArray<u32> = CacheArray::new(geom);
            for i in 0..1024u32 {
                let line = Addr(i as u64 * 64 * 7).line(); // stride to mix sets
                let _ = arr.insert(black_box(i), line, i, |_| false);
            }
            black_box(arr.len())
        })
    });
    g.bench_function("lookup_hit", |b| {
        let mut arr: CacheArray<u32> = CacheArray::new(geom);
        let ids: Vec<u32> = (0..512).collect();
        for &i in &ids {
            let _ = arr.insert(i, Addr(i as u64 * 64).line(), i, |_| false);
        }
        b.iter(|| {
            let mut sum = 0u64;
            for &i in &ids {
                if let Some(&v) = arr.peek(black_box(i)) {
                    sum += v as u64;
                }
            }
            black_box(sum)
        })
    });
    g.finish();
}

fn bench_rng(c: &mut Criterion) {
    c.bench_function("rng/next_u64_1k", |b| {
        let mut rng = SimRng::seed_from_u64(42);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..1000 {
                acc ^= rng.next_u64();
            }
            black_box(acc)
        })
    });
}

criterion_group!(benches, bench_detector, bench_masks, bench_cache_array, bench_rng);
criterion_main!(benches);
