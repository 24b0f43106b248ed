//! Threaded stress test for the parallel batch query path.
//!
//! `execute_batch` must be observationally equivalent to looping
//! `execute` on one thread: identical match sets (bit-identical transforms
//! and distances), identical per-query page counts (Figure 5's metric must
//! not change when queries run in parallel), and per-query counts that sum
//! to the global counter increase.

use tsss_core::{EngineConfig, EngineError, Query, SearchEngine, SearchOptions, SearchResult};
use tsss_data::{MarketConfig, MarketSimulator, Series};
use tsss_rand::Rng;

const WINDOW: usize = 16;

/// A range batch that fails on the first per-query error.
fn range_batch(
    e: &SearchEngine,
    queries: &[Vec<f64>],
    epsilon: f64,
    opts: SearchOptions,
    workers: usize,
) -> Result<Vec<SearchResult>, EngineError> {
    e.execute_batch(queries, Query::Range { epsilon }, opts, workers)
        .into_iter()
        .collect()
}

fn build() -> (SearchEngine, Vec<Series>) {
    let data = MarketSimulator::new(MarketConfig::small(8, 120, 0xBA7C4)).generate();
    let e = SearchEngine::build(&data, EngineConfig::small(WINDOW)).unwrap();
    (e, data)
}

fn query_mix(data: &[Series], n: usize) -> Vec<Vec<f64>> {
    let mut rng = Rng::seed_from_u64(0xBA7C4 + 1);
    (0..n)
        .map(|_| {
            let s = rng.usize_below(data.len());
            let off = rng.usize_below(data[s].len() - WINDOW);
            if rng.bool() {
                // In-data query, possibly disguised.
                let a = rng.f64_range(0.25, 4.0);
                let b = rng.f64_range(-50.0, 50.0);
                data[s]
                    .window(off, WINDOW)
                    .unwrap()
                    .iter()
                    .map(|v| a * v + b)
                    .collect()
            } else {
                rng.f64_vec(WINDOW, -10.0, 110.0)
            }
        })
        .collect()
}

#[test]
fn batch_stress_matches_serial_under_contention() {
    let (e, data) = build();
    let queries = query_mix(&data, 64);
    let eps = 4.0;
    let opts = SearchOptions::default();

    let serial: Vec<SearchResult> = queries
        .iter()
        .map(|q| e.search(q, eps, opts).unwrap())
        .collect();

    for workers in [4, 8, 16] {
        e.reset_counters();
        let batch = range_batch(&e, &queries, eps, opts, workers).unwrap();
        assert_eq!(batch.len(), serial.len());

        let mut index_sum = 0u64;
        let mut data_sum = 0u64;
        for (i, (b, s)) in batch.iter().zip(&serial).enumerate() {
            // Bit-identical matches: ids, transforms and distances.
            assert_eq!(b.matches, s.matches, "query {i}, workers {workers}");
            // Exact per-query page accounting despite interleaving.
            assert_eq!(
                b.stats.index_pages, s.stats.index_pages,
                "query {i}, workers {workers}"
            );
            assert_eq!(
                b.stats.data_pages, s.stats.data_pages,
                "query {i}, workers {workers}"
            );
            assert_eq!(b.stats.candidates, s.stats.candidates);
            assert_eq!(b.stats.verified, s.stats.verified);
            assert_eq!(b.stats.false_alarms, s.stats.false_alarms);
            index_sum += b.stats.index_pages;
            data_sum += b.stats.data_pages;
        }
        // The thread-local tallies partition the global increment exactly.
        assert_eq!(index_sum, e.index_stats().total_accesses());
        assert_eq!(data_sum, e.data_stats().total_accesses());
    }
}

#[test]
fn concurrent_searches_share_the_engine_across_plain_threads() {
    // Beyond execute_batch: a shared reference can be queried from manually
    // spawned threads (SearchEngine is Sync), each getting serial-identical
    // answers.
    let (e, data) = build();
    let queries = query_mix(&data, 16);
    let eps = 2.0;
    let serial: Vec<SearchResult> = queries
        .iter()
        .map(|q| e.search(q, eps, SearchOptions::default()).unwrap())
        .collect();
    std::thread::scope(|s| {
        for chunk in queries.chunks(4).zip(serial.chunks(4)) {
            let (qs, expect) = chunk;
            let e = &e;
            s.spawn(move || {
                for (q, want) in qs.iter().zip(expect) {
                    let got = e.search(q, eps, SearchOptions::default()).unwrap();
                    assert_eq!(got.matches, want.matches);
                    assert_eq!(got.stats.index_pages, want.stats.index_pages);
                    assert_eq!(got.stats.data_pages, want.stats.data_pages);
                }
            });
        }
    });
}
