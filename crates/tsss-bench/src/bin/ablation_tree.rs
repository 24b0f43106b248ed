//! Ablation **A2**: R*-tree vs Guttman R-tree (quadratic and linear splits)
//! as the underlying index — the paper chose the R*-tree citing its
//! behaviour being "well understood in the database community".
//!
//! Both trees answer identically (the tests prove it); this sweep measures
//! the *cost* difference: build time, node count, and per-query pages/CPU
//! at a fixed ε. Because split quality only matters for incrementally built
//! trees, the engines here are built with one-by-one insertion, not bulk
//! loading.
//!
//! Run: `cargo run --release -p tsss-bench --bin ablation_tree`

#![forbid(unsafe_code)]

use std::time::Instant;

use tsss_bench::{median_window_fluctuation, Method};
use tsss_core::{EngineConfig, Query, SearchEngine, SearchOptions};
use tsss_data::{MarketConfig, MarketSimulator, QueryWorkload, WorkloadConfig};
use tsss_index::SplitPolicy;

fn main() {
    let quick = std::env::var("TSSS_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false);
    // Incremental R*-insertion of half a million windows is the slow part;
    // default to a mid-sized setting unless the full scale is forced.
    let (companies, days, queries) = if quick { (60, 650, 10) } else { (200, 650, 50) };
    let data = MarketSimulator::new(MarketConfig {
        companies,
        days,
        seed: 0x7555_1999,
        ..MarketConfig::paper()
    })
    .generate();
    let window_len = EngineConfig::paper().window_len;
    let workload = QueryWorkload::generate(
        &data,
        WorkloadConfig {
            queries,
            window_len,
            noise_level: 0.02,
            seed: 0xAB1E,
            ..Default::default()
        },
    );
    let eps = 0.002 * median_window_fluctuation(&data, window_len);

    println!(
        "{:>20} {:>12} {:>10} {:>12} {:>12} {:>10}",
        "split policy", "build s", "height", "avg pages", "avg cands", "cpu µs"
    );
    for split in [
        SplitPolicy::RStar,
        SplitPolicy::GuttmanQuadratic,
        SplitPolicy::GuttmanLinear,
    ] {
        let mut cfg = EngineConfig::paper();
        cfg.split = split;
        cfg.build = tsss_core::BuildMethod::Insert; // split quality only shows on incremental builds
        let t0 = Instant::now();
        let engine = SearchEngine::build(&data, cfg).expect("data set fits the u32 window ids");
        let build = t0.elapsed().as_secs_f64();

        let mut pages = 0.0;
        let mut cands = 0.0;
        let mut cpu = 0.0;
        for q in &workload.queries {
            let r = engine
                .execute(
                    &q.values,
                    Query::Range { epsilon: eps },
                    SearchOptions::default(),
                )
                .unwrap();
            pages += r.stats.total_pages() as f64;
            cands += r.stats.candidates as f64;
            cpu += r.stats.elapsed.as_secs_f64() * 1e6;
        }
        let n = workload.queries.len() as f64;
        println!(
            "{:>20} {:>12.2} {:>10} {:>12.1} {:>12.1} {:>10.1}",
            format!("{split:?}"),
            build,
            engine.index_height(),
            pages / n,
            cands / n,
            cpu / n
        );
    }
    let _ = Method::ALL; // (methods fixed to set 2 here)
    println!("\n(incremental builds, eps = 0.002·median fluctuation, set 2 checks)");
}
