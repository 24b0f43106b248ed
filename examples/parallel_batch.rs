//! Parallel batch search over one shared engine.
//!
//! `SearchEngine` is `Send + Sync`: after the build, any number of threads
//! can query it concurrently. `execute_batch` packages the common case —
//! answer a whole batch of queries on N worker threads — and returns the
//! exact results a serial loop would produce, in query order, including
//! each query's own page-access counts (the paper's Figure 5 metric), which
//! are tallied per thread rather than read off the shared counters.
//!
//! Run with: `cargo run --release --example parallel_batch`

use std::time::Instant;

use tsss::core::{EngineConfig, Query, SearchEngine, SearchOptions, SearchResult};
use tsss::data::{MarketConfig, MarketSimulator, QueryWorkload, WorkloadConfig};

const WINDOW: usize = 64;

fn main() {
    let market = MarketSimulator::new(MarketConfig::small(150, 400, 2026)).generate();
    let mut cfg = EngineConfig::small(WINDOW);
    cfg.fc = Some(3);
    let engine = SearchEngine::build(&market, cfg).expect("data set fits the u32 window ids");
    println!(
        "built index over {} windows of {} synthetic stocks\n",
        engine.num_windows(),
        market.len()
    );

    let queries: Vec<Vec<f64>> = QueryWorkload::generate(
        &market,
        WorkloadConfig {
            queries: 64,
            window_len: WINDOW,
            noise_level: 0.02,
            seed: 0xBA7C4,
            ..Default::default()
        },
    )
    .queries
    .into_iter()
    .map(|q| q.values)
    .collect();
    let epsilon = 0.5;

    // Serial reference: one thread, one query at a time.
    let t0 = Instant::now();
    let serial = batch(&engine, &queries, epsilon, 1);
    let serial_wall = t0.elapsed();

    // The same batch on all available cores.
    let workers = std::thread::available_parallelism().map_or(4, |n| n.get());
    let t0 = Instant::now();
    let parallel = batch(&engine, &queries, epsilon, workers);
    let parallel_wall = t0.elapsed();

    // Same answers, same per-query costs — only the wall clock moved.
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.matches, p.matches);
        assert_eq!(s.stats.index_pages, p.stats.index_pages);
        assert_eq!(s.stats.data_pages, p.stats.data_pages);
    }

    let matches: usize = parallel.iter().map(|r| r.matches.len()).sum();
    let pages: u64 = parallel.iter().map(|r| r.stats.total_pages()).sum();
    println!(
        "{} queries, {matches} match(es), {pages} logical pages",
        queries.len()
    );
    println!("  1 worker : {serial_wall:.2?}");
    println!(
        "  {workers} workers: {parallel_wall:.2?} ({:.2}x)",
        serial_wall.as_secs_f64() / parallel_wall.as_secs_f64()
    );
    println!("\nper-query match sets and page counts are identical — asserted above");
}

/// A range batch on `workers` threads, every query expected to answer.
fn batch(
    engine: &SearchEngine,
    queries: &[Vec<f64>],
    epsilon: f64,
    workers: usize,
) -> Vec<SearchResult> {
    engine
        .execute_batch(
            queries,
            Query::Range { epsilon },
            SearchOptions::default(),
            workers,
        )
        .into_iter()
        .collect::<Result<_, _>>()
        .expect("valid queries")
}
