//! Cross-crate integration tests: the full pipeline (market data → engine →
//! queries) exercised through the public facade, validated against the
//! sequential-scan oracle.

// Test fixture: counters are tiny, narrowing casts cannot truncate.
#![allow(clippy::cast_possible_truncation)]

use tsss::core::{CostLimit, EngineConfig, Query, SearchEngine, SearchOptions};
use tsss::data::{MarketConfig, MarketSimulator, QueryWorkload, Series, WorkloadConfig};
use tsss::geometry::penetration::PenetrationMethod;
use tsss::geometry::scale_shift::min_scale_shift_distance;

const WINDOW: usize = 32;

fn market() -> Vec<Series> {
    MarketSimulator::new(MarketConfig::small(15, 160, 20260706)).generate()
}

fn engine(data: &[Series]) -> SearchEngine {
    let mut cfg = EngineConfig::small(WINDOW);
    cfg.fc = Some(3);
    SearchEngine::build(data, cfg).unwrap()
}

#[test]
fn recall_is_exactly_one_for_every_epsilon_and_method() {
    // The paper's headline guarantee: the indexed search never misses a
    // match the sequential scan finds (Theorems 1–3 + DFT contraction), and
    // never reports anything extra after verification.
    let data = market();
    let e = engine(&data);
    let queries = QueryWorkload::generate(
        &data,
        WorkloadConfig {
            queries: 6,
            window_len: WINDOW,
            noise_level: 0.05,
            seed: 31,
            ..Default::default()
        },
    );
    for q in &queries.queries {
        for eps in [0.0, 0.5, 2.0, 10.0, 50.0] {
            let oracle = e
                .sequential_search(&q.values, eps, SearchOptions::default())
                .unwrap();
            for method in [
                PenetrationMethod::EnteringExiting,
                PenetrationMethod::BoundingSpheres,
            ] {
                let got = e
                    .search(
                        &q.values,
                        eps,
                        SearchOptions {
                            method,
                            ..Default::default()
                        },
                    )
                    .unwrap();
                assert_eq!(got.id_set(), oracle.id_set(), "eps {eps}, {method:?}");
            }
        }
    }
}

#[test]
fn workload_queries_recover_their_disguised_sources() {
    let data = market();
    let e = engine(&data);
    let queries = QueryWorkload::generate(
        &data,
        WorkloadConfig {
            queries: 20,
            window_len: WINDOW,
            noise_level: 0.0,
            scale_range: 4.0,
            shift_range: 50.0,
            seed: 77,
        },
    );
    for q in &queries.queries {
        let res = e.search(&q.values, 1e-5, SearchOptions::default()).unwrap();
        let hit = res
            .matches
            .iter()
            .find(|m| {
                m.id.series as usize == q.source_series && m.id.offset as usize == q.source_offset
            })
            .unwrap_or_else(|| panic!("source {}@{} lost", q.source_series, q.source_offset));
        // The recovered transform must invert the disguise y = a·x + b:
        // x = y/a − b/a.
        let (a, b) = (1.0 / q.applied.a, -q.applied.b / q.applied.a);
        assert!((hit.transform.a - a).abs() < 1e-6 * (1.0 + a.abs()));
        assert!((hit.transform.b - b).abs() < 1e-4 * (1.0 + b.abs()));
    }
}

#[test]
fn index_pruning_skips_most_of_the_database_at_small_epsilon() {
    // At this toy scale the raw data fits in a handful of pages, so the
    // paper's page-count comparison (Figure 5) is only meaningful in the
    // full-scale bench harness. The scale-robust form of the claim is the
    // *pruning* itself: at small ε the traversal distance-checks only a
    // small fraction of the windows, instead of all of them like the scan.
    // Fat leaves (73 entries at dim 6) need enough windows for the
    // fraction to be meaningful.
    let data = MarketSimulator::new(MarketConfig::small(60, 300, 4)).generate();
    let e = engine(&data);
    let q = data[5].window(60, WINDOW).unwrap().to_vec();
    let tree = e.search(&q, 0.0, SearchOptions::default()).unwrap();
    let seq = e
        .sequential_search(&q, 0.0, SearchOptions::default())
        .unwrap();
    assert_eq!(seq.stats.candidates as usize, e.num_windows());
    // In 6-d feature space a line through the origin still grazes a fair
    // share of the (few, coarse) leaves at this scale; the fraction drops
    // further as the index grows (see the full-scale bench).
    assert!(
        (tree.stats.index.candidates_checked as usize) * 3 < e.num_windows(),
        "index checked {} of {} windows",
        tree.stats.index.candidates_checked,
        e.num_windows()
    );
}

#[test]
fn transformation_cost_limits_are_honoured_end_to_end() {
    let data = market();
    let e = engine(&data);
    let q = data[2].window(10, WINDOW).unwrap().to_vec();
    let opts = SearchOptions {
        cost: CostLimit {
            a_range: Some((0.8, 1.25)),
            b_range: Some((-5.0, 5.0)),
        },
        ..Default::default()
    };
    let res = e.search(&q, 20.0, opts).unwrap();
    for m in &res.matches {
        assert!(m.transform.a >= 0.8 && m.transform.a <= 1.25);
        assert!(m.transform.b.abs() <= 5.0);
    }
    // And the same limits produce the same set on the scan.
    let seq = e.sequential_search(&q, 20.0, opts).unwrap();
    assert_eq!(res.id_set(), seq.id_set());
}

#[test]
fn dynamic_growth_keeps_the_index_consistent() {
    // Simulate the paper's "data collected regularly": grow several series
    // day by day, checking that every new window is immediately searchable
    // and invariants hold.
    let mut data = market();
    let split_day = 100;
    let tails: Vec<Vec<f64>> = data
        .iter_mut()
        .map(|s| s.values.split_off(split_day))
        .collect();
    let mut cfg = EngineConfig::small(WINDOW);
    cfg.fc = Some(3);
    let mut e = SearchEngine::build(&data, cfg).unwrap();
    let base_windows = e.num_windows();

    // Feed ten days at a time.
    for chunk_start in (0..60).step_by(10) {
        for (si, tail) in tails.iter().enumerate() {
            e.append_values(si, &tail[chunk_start..chunk_start + 10])
                .unwrap();
        }
    }
    e.tree_mut().check_invariants().unwrap();
    assert_eq!(
        e.num_windows(),
        base_windows + data.len() * 60,
        "each appended day completes exactly one window per series"
    );

    // A window spanning the original boundary is searchable.
    let full_series: Vec<f64> = data[0]
        .values
        .iter()
        .chain(&tails[0][..60])
        .copied()
        .collect();
    let q = full_series[split_day - WINDOW / 2..split_day + WINDOW / 2].to_vec();
    let res = e.search(&q, 1e-6, SearchOptions::default()).unwrap();
    assert!(res
        .matches
        .iter()
        .any(|m| m.id.series == 0 && m.id.offset as usize == split_day - WINDOW / 2));
}

#[test]
fn nearest_neighbour_agrees_with_the_distance_oracle() {
    let data = market();
    let e = engine(&data);
    let q: Vec<f64> = data[9]
        .window(70, WINDOW)
        .unwrap()
        .iter()
        .map(|v| v * 0.1 + 100.0)
        .collect();
    let got = e
        .execute(&q, Query::Nearest { k: 5 }, SearchOptions::default())
        .unwrap()
        .matches;
    // Oracle.
    let mut all: Vec<f64> = Vec::new();
    for s in &data {
        for off in 0..=s.len() - WINDOW {
            all.push(min_scale_shift_distance(&q, s.window(off, WINDOW).unwrap()).unwrap());
        }
    }
    all.sort_by(|a, b| a.partial_cmp(b).unwrap());
    for (g, want) in got.iter().zip(&all) {
        assert!((g.distance - want).abs() < 1e-7);
    }
    assert!(
        got[0].distance < 1e-6,
        "the (rescaled) source is distance 0"
    );
}

#[test]
fn long_queries_match_their_oracle_via_facade() {
    let data = market();
    let e = engine(&data);
    let q = data[7].window(20, 80).unwrap().to_vec();
    let long = Query::Long { epsilon: 3.0 };
    let fast = e.execute(&q, long, SearchOptions::default()).unwrap();
    let brute = e.sequential_search_long(&q, 3.0).unwrap();
    assert_eq!(fast.id_set(), brute.id_set());
}

#[test]
fn csv_roundtrip_feeds_an_identical_engine() {
    let data = market();
    let text = tsss::data::csv::to_csv(&data);
    let reloaded = tsss::data::csv::from_csv(&text).unwrap();
    let a = engine(&data);
    let b = engine(&reloaded);
    let q = data[1].window(33, WINDOW).unwrap().to_vec();
    let ra = a.search(&q, 4.0, SearchOptions::default()).unwrap();
    let rb = b.search(&q, 4.0, SearchOptions::default()).unwrap();
    assert_eq!(ra.id_set(), rb.id_set());
}
