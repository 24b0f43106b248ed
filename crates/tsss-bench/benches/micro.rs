//! Dependency-free micro-benchmarks for the hot kernels of the
//! reproduction: geometry distances, the SE + DFT feature pipeline, R*-tree
//! maintenance and the end-to-end search methods.
//!
//! `harness = false`: this is a plain binary timing each kernel with
//! `std::time::Instant` (median of repeated batches), so it runs offline
//! with no external benchmarking framework.
//!
//! Run: `cargo bench -p tsss-bench`

use std::hint::black_box;
use std::time::Instant;

use tsss_core::{EngineConfig, Query, SearchEngine, SearchOptions};
use tsss_data::{MarketConfig, MarketSimulator};
use tsss_dft::{fft_real, FeatureExtractor};
use tsss_geometry::line::{lld, Line};
use tsss_geometry::penetration::{line_penetrates_mbr, PenetrationMethod};
use tsss_geometry::scale_shift::optimal_scale_shift;
use tsss_geometry::se::se_transform;
use tsss_index::{DataEntry, RTree, TreeConfig};

fn pseudo_series(n: usize, seed: u64) -> Vec<f64> {
    let mut x = seed;
    (0..n)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((x >> 33) as f64 / (1u64 << 31) as f64) * 20.0 + 50.0
        })
        .collect()
}

/// Times `f` by running batches and reporting the median per-call time.
fn bench<R>(name: &str, iters_per_batch: usize, mut f: impl FnMut() -> R) {
    // Warm-up.
    for _ in 0..iters_per_batch.min(16) {
        black_box(f());
    }
    const BATCHES: usize = 9;
    let mut per_call: Vec<f64> = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let t0 = Instant::now();
        for _ in 0..iters_per_batch {
            black_box(f());
        }
        per_call.push(t0.elapsed().as_secs_f64() / iters_per_batch as f64);
    }
    per_call.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = per_call[BATCHES / 2];
    let (val, unit) = if median >= 1e-3 {
        (median * 1e3, "ms")
    } else if median >= 1e-6 {
        (median * 1e6, "µs")
    } else {
        (median * 1e9, "ns")
    };
    println!("{name:<44} {val:>10.3} {unit}/iter  (median of {BATCHES}×{iters_per_batch})");
}

fn bench_geometry() {
    for n in [16usize, 128, 1024] {
        let u = pseudo_series(n, 1);
        let v = pseudo_series(n, 2);
        let l1 = Line::scaling(&u);
        let l2 = Line::shifting(&v);
        bench(
            &format!("geometry/lld_scaling_vs_shifting/{n}"),
            10_000,
            || lld(black_box(&l1), black_box(&l2)),
        );
        bench(&format!("geometry/optimal_scale_shift/{n}"), 10_000, || {
            optimal_scale_shift(black_box(&u), black_box(&v)).unwrap()
        });
        bench(&format!("geometry/se_transform/{n}"), 10_000, || {
            se_transform(black_box(&u))
        });
    }
}

fn bench_penetration() {
    let line = Line::new(vec![0.0; 6], pseudo_series(6, 3)).unwrap();
    let lo = pseudo_series(6, 4);
    let hi: Vec<f64> = lo.iter().map(|x| x + 5.0).collect();
    bench("penetration/slab_test_6d", 100_000, || {
        line_penetrates_mbr(black_box(&line), black_box(&lo), black_box(&hi), 0.0)
    });
}

fn bench_dft() {
    for n in [128usize, 512] {
        let x = pseudo_series(n, 5);
        bench(&format!("dft/fft_real/{n}"), 10_000, || {
            fft_real(black_box(&x))
        });
        let fx = FeatureExtractor::new(n, 3);
        let centred = se_transform(&x);
        bench(&format!("dft/extract_fc3/{n}"), 10_000, || {
            fx.extract(black_box(&centred))
        });
    }
}

fn bench_rtree() {
    let points: Vec<DataEntry> = (0..20_000)
        .map(|i| DataEntry::new(pseudo_series(6, i as u64), i as u64))
        .collect();

    bench("rtree/insert_20k_rstar", 1, || {
        let mut t = RTree::new(TreeConfig::paper(6)).expect("valid config");
        for e in &points {
            t.insert(e.point.to_vec(), e.id).expect("healthy store");
        }
        t.len()
    });
    // The served ack's shape: a 64-point correlated walk, started at an
    // indexed point, lands in the full leaves STR packing leaves behind and
    // sets off forced-reinsert and split cascades. Each call grows a fresh
    // copy-on-write fork of the packed tree by one batch.
    let packed =
        tsss_index::bulk::bulk_load(TreeConfig::paper(6), points.clone()).expect("valid config");
    let mut walk = Vec::with_capacity(64);
    let mut p = points[4_321].point.to_vec();
    for j in 0..64u64 {
        for (x, step) in p.iter_mut().zip(pseudo_series(6, 100_000 + j)) {
            *x += (step - 60.0) * 0.05;
        }
        walk.push(DataEntry::new(p.clone(), 20_000 + j));
    }
    bench("rtree/append_64_into_str_20k", 20, || {
        let mut t = packed.fork();
        t.insert_batch(walk.iter().cloned()).expect("healthy store");
        t.len()
    });
    bench("rtree/bulk_load_20k", 1, || {
        let t = tsss_index::bulk::bulk_load(TreeConfig::paper(6), points.clone())
            .expect("valid config");
        t.len()
    });

    let tree =
        tsss_index::bulk::bulk_load(TreeConfig::paper(6), points.clone()).expect("valid config");
    let line = Line::scaling(&pseudo_series(6, 77));
    bench("rtree/line_query_20k", 100, || {
        tree.line_query(&line, 1.0, PenetrationMethod::EnteringExiting, None)
            .expect("healthy store")
            .matches
            .len()
    });
    bench("rtree/nearest_k10_20k", 100, || {
        tree.nearest(&line)
            .take(10)
            .map(|m| m.expect("healthy store").id)
            .sum::<u64>()
    });
}

fn bench_end_to_end() {
    let data = MarketSimulator::new(MarketConfig::small(100, 400, 9)).generate();
    let mut cfg = EngineConfig::paper();
    cfg.window_len = 64;
    let engine = SearchEngine::build(&data, cfg).expect("bench data fits");
    let query = data[0].values[100..164].to_vec();
    let eps = 0.01 * tsss_geometry::se::se_norm(&query);

    bench("end_to_end/indexed_search", 20, || {
        engine
            .execute(
                &query,
                Query::Range { epsilon: eps },
                SearchOptions::default(),
            )
            .unwrap()
            .matches
            .len()
    });
    bench("end_to_end/sequential_scan", 5, || {
        engine
            .sequential_search(&query, eps, SearchOptions::default())
            .unwrap()
            .matches
            .len()
    });
}

fn main() {
    bench_geometry();
    bench_penetration();
    bench_dft();
    bench_rtree();
    bench_end_to_end();
}
