//! Ablation **A6**: buffer-pool effect (an extension beyond the paper).
//!
//! The paper counts raw, unbuffered page accesses. Real systems put an LRU
//! buffer pool in front of the disk; this sweep gives the index file a pool
//! of varying capacity and reports the *physical* reads (misses) per query
//! when the pool persists across a 100-query batch. The tree's upper levels
//! cache perfectly, so even a tiny pool removes most of its I/O — while the
//! sequential scan (cycling through 1270 pages) defeats LRU caching until
//! the pool holds the whole file.
//!
//! Run: `cargo run --release -p tsss-bench --bin ablation_buffer`

#![forbid(unsafe_code)]

use tsss_core::{EngineConfig, Query, SearchEngine, SearchOptions};
use tsss_data::{MarketConfig, MarketSimulator, QueryWorkload, WorkloadConfig};

fn main() {
    let quick = std::env::var("TSSS_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false);
    let (companies, queries) = if quick { (200, 20) } else { (500, 100) };
    let data = MarketSimulator::new(MarketConfig {
        companies,
        days: 650,
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
            seed: 0xB0FF,
            ..Default::default()
        },
    );
    let eps = {
        let med = tsss_bench::median_window_fluctuation(&data, window_len);
        0.001 * med
    };

    println!(
        "{:>10} {:>14} {:>14} {:>12}",
        "frames", "logical/query", "misses/query", "hit rate"
    );
    for frames in [0usize, 8, 32, 128, 512, 2048] {
        let mut cfg = EngineConfig::paper();
        cfg.index_buffer_frames = frames;
        let engine = SearchEngine::build(&data, cfg).expect("data set fits the u32 window ids");
        engine.reset_counters();
        // One warm batch: the pool persists across queries.
        for q in &workload.queries {
            let _ = engine
                .execute(
                    &q.values,
                    Query::Range { epsilon: eps },
                    SearchOptions::default(),
                )
                .unwrap();
        }
        let stats = engine.index_stats();
        let n = workload.queries.len() as f64;
        let logical = stats.reads() as f64 / n;
        let misses = stats.misses() as f64 / n;
        let hit_rate = if stats.reads() == 0 {
            0.0
        } else {
            stats.hits() as f64 / stats.reads() as f64
        };
        println!(
            "{:>10} {:>14.1} {:>14.1} {:>11.1}%",
            frames,
            logical,
            misses,
            100.0 * hit_rate
        );
    }
    println!("\n(index file only; eps = 0.001·median fluctuation; pool persists across the batch)");
}
