//! Chaos suite: seeded fault injection against the whole engine.
//!
//! The contract under test (ISSUE: fault-injection storage layer): with
//! faults injected beneath the checksum layer, **every** query either
//!
//! * returns exactly the sequential-scan oracle's answer (possibly via the
//!   degradation path, with `stats.degraded` set), or
//! * returns a typed [`EngineError`] — never a panic, never a silently
//!   wrong answer.
//!
//! Every case is deterministic: the default run sweeps the eight seeds
//! below, and `TSSS_CHAOS_SEED=<u64>` re-runs any single seed (the CI
//! `chaos` job drives this over its seed matrix).

// Test fixture: counters are tiny, narrowing casts cannot truncate.
#![allow(clippy::cast_possible_truncation)]

use tsss_core::{DegradationPolicy, EngineConfig, Query, SearchEngine, SearchOptions};
use tsss_data::{MarketConfig, MarketSimulator, Series};
use tsss_rand::Rng;
use tsss_storage::FaultConfig;

const WINDOW: usize = 12;
const QUERIES_PER_SEED: usize = 12;

/// Eight fixed seeds, or the single seed from `TSSS_CHAOS_SEED`.
fn seeds() -> Vec<u64> {
    match std::env::var("TSSS_CHAOS_SEED") {
        Ok(s) => vec![s
            .parse()
            .expect("TSSS_CHAOS_SEED must be an unsigned integer")],
        Err(_) => (1..=8).map(|i| 0xC4A0_5000 + i).collect(),
    }
}

fn engine_cfg() -> EngineConfig {
    let mut cfg = EngineConfig::small(WINDOW);
    cfg.fc = Some(2);
    cfg
}

fn market(seed: u64) -> Vec<Series> {
    MarketSimulator::new(MarketConfig::small(4, 50, seed)).generate()
}

fn random_query(rng: &mut Rng) -> Vec<f64> {
    if rng.bool() {
        rng.f64_vec(WINDOW, -20.0, 120.0)
    } else {
        rng.f64_vec(WINDOW, -1.0, 1.0)
    }
}

fn fallback_opts() -> SearchOptions {
    SearchOptions {
        degradation: DegradationPolicy::SeqScanFallback,
        ..Default::default()
    }
}

fn error_opts() -> SearchOptions {
    SearchOptions {
        degradation: DegradationPolicy::Error,
        ..Default::default()
    }
}

/// Read faults on both stores: every query answer is the oracle's or a
/// typed corruption error, under both degradation policies.
#[test]
fn read_fault_chaos_matches_oracle_or_fails_typed() {
    for seed in seeds() {
        let mut rng = Rng::seed_from_u64(seed);
        let data = market(seed);
        let pristine = SearchEngine::build(&data, engine_cfg()).unwrap();
        let mut chaotic = SearchEngine::build(&data, engine_cfg()).unwrap();
        // The read path retries transient faults up to three times, so the
        // per-attempt rates are raised to keep a meaningful probability of a
        // *permanent* (all-attempts-exhausted) failure: 0.6³ ≈ 0.22 per
        // index read, 0.3³ ≈ 0.027 per data read.
        let idx = chaotic.inject_index_faults(FaultConfig::read_errors(seed, 0.6));
        let dat = chaotic.inject_data_faults(FaultConfig::read_errors(seed ^ 0xFF, 0.3));

        let mut degraded = 0usize;
        let mut errors = 0usize;
        for _ in 0..QUERIES_PER_SEED {
            let q = random_query(&mut rng);
            let eps = rng.f64_range(0.0, 20.0);
            let oracle = pristine
                .sequential_search(&q, eps, SearchOptions::default())
                .unwrap();

            match chaotic.search(&q, eps, fallback_opts()) {
                Ok(res) => {
                    assert_eq!(res.id_set(), oracle.id_set(), "seed {seed}");
                    if res.stats.degraded {
                        degraded += 1;
                        assert!(res.stats.degraded_reason.is_some(), "seed {seed}");
                    }
                }
                // The fallback scan itself can hit an injected data-read
                // fault; that must surface as a typed corruption error.
                Err(e) => {
                    errors += 1;
                    assert!(e.is_corruption(), "seed {seed}: untyped error {e}");
                }
            }

            match chaotic.search(&q, eps, error_opts()) {
                Ok(res) => {
                    assert!(!res.stats.degraded, "seed {seed}: Error policy degraded");
                    assert_eq!(res.id_set(), oracle.id_set(), "seed {seed}");
                }
                Err(e) => assert!(e.is_corruption(), "seed {seed}: untyped error {e}"),
            }
        }
        // The profile is aggressive enough that faults actually fired.
        assert!(
            idx.read_errors() + dat.read_errors() > 0,
            "seed {seed}: no fault ever fired — the chaos test has no teeth"
        );
        // And at least one query took *some* non-happy path.
        assert!(degraded + errors > 0, "seed {seed}: chaos was a no-op");
    }
}

/// Index read faults only, through the parallel batch path: the fallback
/// scan runs on the healthy data store, so every per-query result must
/// equal the oracle regardless of thread interleaving.
#[test]
fn batch_read_fault_chaos_every_result_matches_oracle() {
    for seed in seeds() {
        let mut rng = Rng::seed_from_u64(seed ^ 0xBA7C);
        let data = market(seed);
        let pristine = SearchEngine::build(&data, engine_cfg()).unwrap();
        let mut chaotic = SearchEngine::build(&data, engine_cfg()).unwrap();
        chaotic.inject_index_faults(FaultConfig::read_errors(seed, 0.3));

        let queries: Vec<Vec<f64>> = (0..QUERIES_PER_SEED)
            .map(|_| random_query(&mut rng))
            .collect();
        let eps = rng.f64_range(1.0, 20.0);
        let results =
            chaotic.execute_batch(&queries, Query::Range { epsilon: eps }, fallback_opts(), 4);
        for (q, res) in queries.iter().zip(&results) {
            let res = res
                .as_ref()
                .expect("index faults degrade per query; the healthy data store answers");
            let oracle = pristine
                .sequential_search(q, eps, SearchOptions::default())
                .unwrap();
            assert_eq!(res.id_set(), oracle.id_set(), "seed {seed}");
        }
    }
}

/// Write-side faults (torn writes + bit rot) during dynamic appends: every
/// append and every later query either succeeds honestly or fails typed.
#[test]
fn write_fault_chaos_never_panics_or_lies() {
    for seed in seeds() {
        let mut rng = Rng::seed_from_u64(seed ^ 0x3717E);
        let data = market(seed);
        let mut e = SearchEngine::build(&data, engine_cfg()).unwrap();
        e.inject_index_faults(FaultConfig {
            torn_write: 0.05,
            bit_flip: 0.05,
            ..FaultConfig::none(seed)
        });

        // A torn write is silent at write time, so an append only errors
        // when it *reads* a page poisoned by an earlier fault. After any
        // failed append the index may have legitimately lost entries
        // mid-operation, so oracle equality is only asserted while every
        // append has been acknowledged.
        let mut all_acked = true;
        for round in 0..6 {
            let tail = rng.f64_vec(3, -5.0, 5.0);
            match e.append_values(round % 4, &tail) {
                Ok(()) => {}
                Err(err) => {
                    assert!(err.is_corruption(), "seed {seed}: untyped error {err}");
                    all_acked = false;
                }
            }
        }

        for _ in 0..QUERIES_PER_SEED {
            let q = random_query(&mut rng);
            let eps = rng.f64_range(0.0, 20.0);
            match e.search(&q, eps, fallback_opts()) {
                Ok(res) => {
                    if all_acked {
                        // The data store is healthy, so the engine's own
                        // sequential scan is the exact oracle for whatever
                        // the file currently holds.
                        let oracle = e
                            .sequential_search(&q, eps, SearchOptions::default())
                            .unwrap();
                        assert_eq!(res.id_set(), oracle.id_set(), "seed {seed}");
                    }
                }
                Err(err) => assert!(err.is_corruption(), "seed {seed}: untyped error {err}"),
            }
        }

        // Structural scrub: clean or typed, never a panic.
        if let Err(err) = e.tree_mut().check_invariants() {
            let msg = err.to_string();
            assert!(!msg.is_empty(), "seed {seed}");
        }
    }
}

/// Direct page corruption (bytes smashed behind the checksum): fallback
/// queries return exactly the oracle with the degraded flag set; the
/// `Error` policy surfaces typed corruption.
#[test]
fn smashed_page_chaos_degrades_to_exact_oracle() {
    for seed in seeds() {
        let mut rng = Rng::seed_from_u64(seed ^ 0x5A5A);
        let data = market(seed);
        let pristine = SearchEngine::build(&data, engine_cfg()).unwrap();
        let mut chaotic = SearchEngine::build(&data, engine_cfg()).unwrap();

        // Smash a random half of the index pages (free pages reject the
        // corruption call with a typed error — that is fine too).
        let extent = chaotic.index_extent() as u32;
        for p in 0..extent {
            if rng.bool() {
                let _ = chaotic.corrupt_index_page(p, &mut |b| {
                    let i = b.len() / 2;
                    b[i] ^= 0x81;
                });
            }
        }

        for _ in 0..QUERIES_PER_SEED {
            let q = random_query(&mut rng);
            let eps = rng.f64_range(0.0, 20.0);
            let oracle = pristine
                .sequential_search(&q, eps, SearchOptions::default())
                .unwrap();

            let res = chaotic
                .search(&q, eps, fallback_opts())
                .expect("healthy data store: the fallback always answers");
            assert_eq!(res.id_set(), oracle.id_set(), "seed {seed}");

            if let Err(e) = chaotic.search(&q, eps, error_opts()) {
                assert!(e.is_corruption(), "seed {seed}: untyped error {e}");
            }
        }
    }
}

/// The full recovery arc under chaos, per seed: smash index pages →
/// queries degrade (exact answers via the fallback) → `repair` rebuilds
/// the index from the data file → the very next query is answered by the
/// index again, bit-identical to the sequential oracle, breaker closed.
#[test]
fn recovery_chaos_repair_restores_indexed_service() {
    for seed in seeds() {
        let mut rng = Rng::seed_from_u64(seed ^ 0x9E4A12);
        let data = market(seed);
        let pristine = SearchEngine::build(&data, engine_cfg()).unwrap();
        let mut chaotic = SearchEngine::build(&data, engine_cfg()).unwrap();

        // Smash every index page: any probe is guaranteed to find damage
        // (a random subset can miss the probe paths on some seeds).
        let extent = chaotic.index_extent() as u32;
        for p in 0..extent {
            let _ = chaotic.corrupt_index_page(p, &mut |b| {
                let i = b.len() / 3;
                b[i] ^= 0x42;
            });
        }

        // Phase 1: degraded service. Every answer is still exact.
        let mut degraded = 0usize;
        for _ in 0..QUERIES_PER_SEED {
            let q = random_query(&mut rng);
            let eps = rng.f64_range(0.0, 20.0);
            let oracle = pristine
                .sequential_search(&q, eps, SearchOptions::default())
                .unwrap();
            let res = chaotic
                .search(&q, eps, fallback_opts())
                .expect("healthy data store: the fallback always answers");
            assert_eq!(res.id_set(), oracle.id_set(), "seed {seed}");
            if res.stats.degraded {
                degraded += 1;
            }
        }
        assert!(degraded > 0, "seed {seed}: corruption never surfaced");

        // Phase 2: repair. The quarantine drains and the breaker closes.
        let report = chaotic
            .repair()
            .unwrap_or_else(|e| panic!("seed {seed}: repair failed on a healthy data file: {e}"));
        assert_eq!(
            report.windows_reindexed,
            chaotic.num_windows(),
            "seed {seed}"
        );
        let h = chaotic.health();
        assert_eq!(h.breaker.to_string(), "closed", "seed {seed}");
        assert!(h.quarantined_pages.is_empty(), "seed {seed}");

        // Phase 3: indexed service restored, answers bit-identical.
        for _ in 0..QUERIES_PER_SEED {
            let q = random_query(&mut rng);
            let eps = rng.f64_range(0.0, 20.0);
            let oracle = pristine
                .sequential_search(&q, eps, SearchOptions::default())
                .unwrap();
            let res = chaotic.search(&q, eps, fallback_opts()).unwrap();
            assert!(!res.stats.degraded, "seed {seed}: still degraded");
            assert_eq!(res.id_set(), oracle.id_set(), "seed {seed}");
            for (a, b) in res.matches.iter().zip(&oracle.matches) {
                assert_eq!(a.id, b.id, "seed {seed}");
                assert_eq!(a.distance.to_bits(), b.distance.to_bits(), "seed {seed}");
            }
        }
    }
}

/// Tiny page budgets: the guard is a hard stop — either the full (oracle)
/// answer within budget, or a typed budget error. Never a degraded scan,
/// which would defeat the point of bounding work.
#[test]
fn budget_chaos_is_exact_or_a_typed_hard_error() {
    for seed in seeds() {
        let mut rng = Rng::seed_from_u64(seed ^ 0xB0D6E7);
        let data = market(seed);
        let e = SearchEngine::build(&data, engine_cfg()).unwrap();

        for _ in 0..QUERIES_PER_SEED {
            let q = random_query(&mut rng);
            let eps = rng.f64_range(0.0, 20.0);
            let budget = rng.usize_below(30) as u64;
            let opts = SearchOptions {
                page_budget: Some(budget),
                ..Default::default()
            };
            match e.search(&q, eps, opts) {
                Ok(res) => {
                    assert!(!res.stats.degraded, "seed {seed}");
                    let oracle = e
                        .sequential_search(&q, eps, SearchOptions::default())
                        .unwrap();
                    assert_eq!(res.id_set(), oracle.id_set(), "seed {seed}");
                }
                Err(tsss_core::EngineError::PageBudgetExceeded { budget: b }) => {
                    assert_eq!(b, budget, "seed {seed}");
                }
                Err(other) => panic!("seed {seed}: unexpected error {other}"),
            }
        }
    }
}

/// Persistence chaos: single-bit flips and truncations anywhere in a saved
/// engine stream are rejected at load with a typed error — the layered
/// magic tags, header checksums and per-page checksums leave no byte
/// uncovered.
#[test]
fn persisted_stream_chaos_rejects_every_flip_and_truncation() {
    for seed in seeds() {
        let mut rng = Rng::seed_from_u64(seed ^ 0xF11F);
        let data = market(seed);
        let e = SearchEngine::build(&data, engine_cfg()).unwrap();
        let mut buf = Vec::new();
        e.save_to(&mut buf).unwrap();

        for _ in 0..24 {
            let pos = rng.usize_below(buf.len());
            let bit = rng.usize_below(8);
            let mut bad = buf.clone();
            bad[pos] ^= 1 << bit;
            assert!(
                SearchEngine::load_from(&mut std::io::Cursor::new(bad)).is_err(),
                "seed {seed}: flip at byte {pos} bit {bit} loaded cleanly"
            );
        }
        for _ in 0..12 {
            let cut = rng.usize_below(buf.len());
            assert!(
                SearchEngine::load_from(&mut std::io::Cursor::new(&buf[..cut])).is_err(),
                "seed {seed}: truncation at {cut} loaded cleanly"
            );
        }
        // The untouched stream still loads and answers.
        let l = SearchEngine::load_from(&mut std::io::Cursor::new(buf)).unwrap();
        let q = data[0].window(7, WINDOW).unwrap().to_vec();
        let a = e.search(&q, 5.0, SearchOptions::default()).unwrap();
        let b = l.search(&q, 5.0, SearchOptions::default()).unwrap();
        assert_eq!(a.id_set(), b.id_set(), "seed {seed}");
    }
}
