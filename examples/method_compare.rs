//! Side-by-side comparison of the paper's three experiment sets on a
//! miniature data set — a runnable preview of Figures 4 and 5 (the
//! full-scale reproduction lives in `tsss-bench`).
//!
//! * set 1 — sequential scan, distance by Lemma 2 / §5.2 closed form,
//! * set 2 — R*-tree + Entering/Exiting-Points penetration checks,
//! * set 3 — R*-tree + inner/outer bounding spheres with slab fallback.
//!
//! Run with: `cargo run --release --example method_compare`

use std::time::Instant;

use tsss::core::{EngineConfig, Query, SearchEngine, SearchOptions};
use tsss::data::{MarketConfig, MarketSimulator, QueryWorkload, WorkloadConfig};
use tsss::geometry::penetration::PenetrationMethod;

const WINDOW: usize = 64;

fn main() {
    let market = MarketSimulator::new(MarketConfig::small(150, 400, 1999)).generate();
    let mut cfg = EngineConfig::small(WINDOW);
    cfg.fc = Some(3);
    cfg.max_entries = 20;
    cfg.min_entries = 8;
    cfg.reinsert_count = 6;
    let t0 = Instant::now();
    let engine = SearchEngine::build(&market, cfg).expect("data set fits the u32 window ids");
    println!(
        "built index over {} windows ({} data pages) in {:.2?}\n",
        engine.num_windows(),
        engine.data_page_count(),
        t0.elapsed()
    );

    let workload = QueryWorkload::generate(
        &market,
        WorkloadConfig {
            queries: 50,
            window_len: WINDOW,
            noise_level: 0.05,
            seed: 7,
            ..Default::default()
        },
    );

    println!(
        "{:>8} | {:>12} {:>11} | {:>12} {:>11} | {:>12} {:>11}",
        "eps", "seq µs", "seq pages", "E/E µs", "E/E pages", "spheres µs", "sph pages"
    );
    for eps_frac in [0.0, 0.05, 0.1, 0.2, 0.4] {
        let mut row = [0.0f64; 6];
        for q in &workload.queries {
            let eps = eps_frac * tsss::geometry::se::se_norm(&q.values);
            let range = Query::Range { epsilon: eps };

            let seq = engine
                .sequential_search(&q.values, eps, SearchOptions::default())
                .unwrap();
            row[0] += seq.stats.elapsed.as_secs_f64() * 1e6;
            row[1] += seq.stats.total_pages() as f64;

            let ee = engine
                .execute(&q.values, range, SearchOptions::default())
                .unwrap();
            row[2] += ee.stats.elapsed.as_secs_f64() * 1e6;
            row[3] += ee.stats.total_pages() as f64;

            let sph = engine
                .execute(
                    &q.values,
                    range,
                    SearchOptions {
                        method: PenetrationMethod::BoundingSpheres,
                        ..Default::default()
                    },
                )
                .unwrap();
            row[4] += sph.stats.elapsed.as_secs_f64() * 1e6;
            row[5] += sph.stats.total_pages() as f64;

            assert_eq!(seq.id_set(), ee.id_set(), "set 2 diverged from set 1");
            assert_eq!(seq.id_set(), sph.id_set(), "set 3 diverged from set 1");
        }
        let n = workload.queries.len() as f64;
        println!(
            "{:>8.3} | {:>12.1} {:>11.1} | {:>12.1} {:>11.1} | {:>12.1} {:>11.1}",
            eps_frac,
            row[0] / n,
            row[1] / n,
            row[2] / n,
            row[3] / n,
            row[4] / n,
            row[5] / n
        );
    }
    println!("\nall three methods returned identical match sets for every query ✓");
}
