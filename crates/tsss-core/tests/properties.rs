//! End-to-end randomised tests for the engine: on arbitrary (small) markets
//! and arbitrary queries, the indexed search must agree exactly with the
//! sequential-scan oracle, persistence must be transparent, and the
//! z-normalised search must agree with its own brute force.
//!
//! Deterministic pseudo-random cases (seeded [`tsss_rand::Rng`]) replace the
//! former proptest strategies so the workspace builds offline.

// Test fixture: counters are tiny, narrowing casts cannot truncate.
#![allow(clippy::cast_possible_truncation)]

use tsss_core::{CostLimit, EngineConfig, Query, SearchEngine, SearchOptions, SubseqId};
use tsss_data::{MarketConfig, MarketSimulator, Series};
use tsss_geometry::penetration::PenetrationMethod;
use tsss_rand::Rng;

const WINDOW: usize = 12;
const CASES: usize = 24;

fn engine_cfg() -> EngineConfig {
    let mut cfg = EngineConfig::small(WINDOW);
    cfg.fc = Some(2);
    cfg
}

fn market(seed: u64) -> Vec<Series> {
    MarketSimulator::new(MarketConfig::small(4, 50, seed)).generate()
}

/// An arbitrary query: either in data range or pure noise.
fn random_query(rng: &mut Rng) -> Vec<f64> {
    if rng.bool() {
        rng.f64_vec(WINDOW, -20.0, 120.0)
    } else {
        rng.f64_vec(WINDOW, -1.0, 1.0)
    }
}

/// Recall and precision are exactly 1 against the scan for arbitrary
/// queries, ε values, methods and cost limits.
#[test]
fn index_equals_oracle() {
    let mut rng = Rng::seed_from_u64(0xC07E_0001);
    for _ in 0..CASES {
        let seed = rng.next_u64();
        let query = random_query(&mut rng);
        let eps = rng.f64_range(0.0, 30.0);
        let a_lo = rng.f64_range(-2.0, 2.0);
        let use_cost = rng.bool();
        let sphere = rng.bool();

        let data = market(seed);
        let e = SearchEngine::build(&data, engine_cfg()).unwrap();
        let cost = if use_cost {
            CostLimit {
                a_range: Some((a_lo, a_lo + 2.5)),
                b_range: None,
            }
        } else {
            CostLimit::UNLIMITED
        };
        let opts = SearchOptions {
            method: if sphere {
                PenetrationMethod::BoundingSpheres
            } else {
                PenetrationMethod::EnteringExiting
            },
            cost,
            ..Default::default()
        };
        let fast = e.search(&query, eps, opts).unwrap();
        let slow = e.sequential_search(&query, eps, opts).unwrap();
        assert_eq!(fast.id_set(), slow.id_set());
        // Reported distances agree pairwise.
        for (a, b) in fast.matches.iter().zip(&slow.matches) {
            assert_eq!(a.id, b.id);
            assert!((a.distance - b.distance).abs() < 1e-9);
            assert!(a.distance <= eps + 1e-9);
        }
    }
}

/// Save → load is observationally transparent.
#[test]
fn persistence_is_transparent() {
    let mut rng = Rng::seed_from_u64(0xC07E_0002);
    for _ in 0..CASES {
        let seed = rng.next_u64();
        let eps = rng.f64_range(0.0, 10.0);
        let data = market(seed);
        let e = SearchEngine::build(&data, engine_cfg()).unwrap();
        let mut buf = Vec::new();
        e.save_to(&mut buf).unwrap();
        let l = SearchEngine::load_from(&mut std::io::Cursor::new(buf)).unwrap();
        let q = data[0].window(7, WINDOW).unwrap().to_vec();
        let a = e.search(&q, eps, SearchOptions::default()).unwrap();
        let b = l.search(&q, eps, SearchOptions::default()).unwrap();
        assert_eq!(a.matches, b.matches);
        assert_eq!(a.stats.total_pages(), b.stats.total_pages());
    }
}

/// z-normalised search equals its brute force for arbitrary inputs.
#[test]
fn znorm_search_equals_brute_force() {
    let mut rng = Rng::seed_from_u64(0xC07E_0003);
    for _ in 0..CASES {
        let seed = rng.next_u64();
        let query = random_query(&mut rng);
        let z_eps = rng.f64_range(0.0, 4.0);
        let data = market(seed);
        let e = SearchEngine::build(&data, engine_cfg()).unwrap();
        let got = e
            .execute(
                &query,
                Query::ZNormalized { z_eps },
                SearchOptions::default(),
            )
            .unwrap()
            .id_set();
        let mut want = std::collections::BTreeSet::new();
        for (si, s) in data.iter().enumerate() {
            for off in 0..=s.len() - WINDOW {
                let zd = tsss_core::normalized::z_distance(&query, s.window(off, WINDOW).unwrap())
                    .unwrap();
                if zd <= z_eps {
                    want.insert(SubseqId {
                        series: si as u32,
                        offset: off as u32,
                    });
                }
            }
        }
        assert_eq!(got, want);
    }
}

/// Dynamic maintenance: after random appends and removals, the index still
/// equals the oracle (which always sees the current data file).
#[test]
fn dynamic_updates_preserve_oracle_equality() {
    let mut rng = Rng::seed_from_u64(0xC07E_0004);
    for _ in 0..CASES {
        let seed = rng.next_u64();
        let grow_by = 1 + rng.usize_below(19);
        let remove_offset = rng.usize_below(30);
        let eps = rng.f64_range(0.0, 10.0);

        let mut data = market(seed);
        let tail: Vec<f64> = data[1].values.split_off(50 - grow_by);
        let mut e = SearchEngine::build(&data, engine_cfg()).unwrap();
        e.append_values(1, &tail).unwrap();
        // The oracle scans the engine's own data file, so it reflects the
        // append automatically.
        let victim = SubseqId {
            series: 0,
            offset: (remove_offset % (50 - WINDOW)) as u32,
        };
        assert!(e.remove_window(victim).unwrap());
        let q = data[2].window(11, WINDOW).unwrap().to_vec();
        let fast = e.search(&q, eps, SearchOptions::default()).unwrap();
        let slow = e
            .sequential_search(&q, eps, SearchOptions::default())
            .unwrap();
        // The scan still sees the removed window (it scans raw data); the
        // index must match it everywhere else.
        let mut slow_ids = slow.id_set();
        slow_ids.remove(&victim);
        assert_eq!(fast.id_set(), slow_ids);
        e.tree_mut().check_invariants().unwrap();
    }
}

/// k-NN results are consistent with the range search: searching with
/// ε = (k-th NN distance) returns at least k windows.
#[test]
fn knn_and_range_search_are_consistent() {
    let mut rng = Rng::seed_from_u64(0xC07E_0005);
    for _ in 0..CASES {
        let seed = rng.next_u64();
        let k = 1 + rng.usize_below(7);
        let data = market(seed);
        let e = SearchEngine::build(&data, engine_cfg()).unwrap();
        let q = data[3].window(20, WINDOW).unwrap().to_vec();
        let nn = e
            .execute(&q, Query::Nearest { k }, SearchOptions::default())
            .unwrap()
            .matches;
        assert_eq!(nn.len(), k);
        let kth = nn.last().unwrap().distance;
        let range = e.search(&q, kth + 1e-9, SearchOptions::default()).unwrap();
        assert!(range.matches.len() >= k);
        // And every NN is inside that range result.
        let ids = range.id_set();
        for m in &nn {
            assert!(ids.contains(&m.id));
        }
    }
}

/// A query scaled far down is still not constant (the planner's test is
/// scale-invariant), so it takes the line probe. Its SE-line's direction
/// then has a tiny but non-zero `‖d‖²`, and the index and kNN must still
/// find the window the query was scaled from, as the scan does. The sweep
/// stays inside the range where the exact fit itself neither overflows
/// (above ≈1e154) nor underflows (below ≈1e-160).
#[test]
fn small_magnitude_queries_find_their_source_window() {
    let data = MarketSimulator::new(MarketConfig::small(5, 60, 99)).generate();
    let engine = SearchEngine::build(&data, EngineConfig::small(16)).unwrap();
    let source = SubseqId {
        series: 1,
        offset: 3,
    };
    let window = data[1].window(3, 16).unwrap();
    let opts = SearchOptions::default();
    for scale in [1.0, 1e100, 1e150, 1e-150, 1e-152, 1e-155, 1e-158] {
        let query: Vec<f64> = window.iter().map(|v| scale * v).collect();
        let oracle = engine.sequential_search(&query, 1e-6, opts).unwrap();
        assert!(
            oracle.matches.iter().any(|m| m.id == source),
            "the scan misses the source at scale {scale:e}"
        );
        let range = engine
            .execute(&query, Query::Range { epsilon: 1e-6 }, opts)
            .unwrap();
        assert_eq!(range.matches, oracle.matches, "range at scale {scale:e}");
        let nearest = engine
            .execute(&query, Query::Nearest { k: 1 }, opts)
            .unwrap();
        assert_eq!(
            nearest.matches.first().map(|m| m.id),
            Some(source),
            "nearest at scale {scale:e}: {:?}",
            nearest.matches.first()
        );
    }
}
