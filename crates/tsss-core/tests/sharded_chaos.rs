//! Sharded chaos suite: smash one fault domain, keep the other N−1 exact.
//!
//! The contract under test (ISSUE 9): with 1 of N shards smashed, **every**
//! query mode returns the N−1 surviving shards' results bit-identical to an
//! unsharded engine built over the same (surviving) series, with
//! `stats.degraded_shards == 1` — and after `repair()` on the sick shard,
//! full bit-identity with a never-smashed unsharded twin.
//!
//! Every case is deterministic. The default run sweeps the eight chaos
//! seeds and every smash target; `TSSS_CHAOS_SEED=<u64>` re-runs one seed
//! and `TSSS_SMASH_SHARD=<idx>` one smashed-shard index (the CI
//! `sharded-chaos` job drives the seed × shard matrix).

// Test fixture: counters are tiny, narrowing casts cannot truncate.
#![allow(clippy::cast_possible_truncation)]

use tsss_core::{
    BreakerState, DegradationPolicy, EngineConfig, EngineError, Query, SearchEngine, SearchOptions,
    SearchResult, ShardedEngine, SubsequenceMatch,
};
use tsss_data::{MarketConfig, MarketSimulator, Series};

const WINDOW: usize = 12;
const SHARDS: usize = 4;

/// Eight fixed seeds, or the single seed from `TSSS_CHAOS_SEED`.
fn seeds() -> Vec<u64> {
    match std::env::var("TSSS_CHAOS_SEED") {
        Ok(s) => vec![s
            .parse()
            .expect("TSSS_CHAOS_SEED must be an unsigned integer")],
        Err(_) => (1..=8).map(|i| 0xC4A0_5000 + i).collect(),
    }
}

/// Every smashed-shard index, or the single one from `TSSS_SMASH_SHARD`.
fn smash_targets() -> Vec<usize> {
    match std::env::var("TSSS_SMASH_SHARD") {
        Ok(s) => vec![s.parse().expect("TSSS_SMASH_SHARD must be a shard index")],
        Err(_) => (0..SHARDS).collect(),
    }
}

fn engine_cfg() -> EngineConfig {
    let mut cfg = EngineConfig::small(WINDOW);
    cfg.fc = Some(2);
    cfg
}

fn market(seed: u64) -> Vec<Series> {
    MarketSimulator::new(MarketConfig::small(6, 50, seed)).generate()
}

/// Corrupts every index page of shard `sick` and drops its page cache, so
/// each of its probes fails the checksum — an index-only smash the shard's
/// own `repair()` can fully undo from its intact data file.
fn smash(sharded: &mut ShardedEngine, sick: usize) {
    let extent = sharded.shard(sick).unwrap().index_extent() as u32;
    let shard = sharded.shard_mut(sick).unwrap();
    for p in 0..extent {
        let _ = shard.corrupt_index_page(p, &mut |b| {
            b[12] ^= 0x42;
        });
    }
}

/// Every single-query mode with its query values; tags name the mode in
/// failure output.
fn modes(data: &[Series]) -> Vec<(&'static str, Vec<f64>, Query)> {
    let q = data[0].window(3, WINDOW).unwrap().to_vec();
    let ql = data[1].window(10, 30).unwrap().to_vec();
    vec![
        ("range", q.clone(), Query::Range { epsilon: 0.8 }),
        ("knn", q.clone(), Query::Nearest { k: 5 }),
        ("znorm", q, Query::ZNormalized { z_eps: 1.0 }),
        ("long", ql, Query::Long { epsilon: 2.0 }),
    ]
}

/// Runs every single-query mode on one engine.
fn run_modes_single(e: &SearchEngine, data: &[Series]) -> Vec<(&'static str, SearchResult)> {
    modes(data)
        .into_iter()
        .map(|(tag, q, query)| (tag, e.execute(&q, query, SearchOptions::default()).unwrap()))
        .collect()
}

/// The same modes through the sharded engine, with per-mode outcomes.
fn run_modes_sharded(
    e: &ShardedEngine,
    data: &[Series],
) -> Vec<(&'static str, Result<SearchResult, EngineError>)> {
    modes(data)
        .into_iter()
        .map(|(tag, q, query)| (tag, e.execute(&q, query, SearchOptions::default())))
        .collect()
}

/// Asserts `got` is bit-for-bit `expected` after mapping the expected
/// engine's series numbering into the global one via `map`.
fn assert_bit_identical(
    tag: &str,
    expected: &[SubsequenceMatch],
    got: &[SubsequenceMatch],
    map: &dyn Fn(usize) -> usize,
) {
    assert_eq!(expected.len(), got.len(), "{tag}: match count");
    for (a, b) in expected.iter().zip(got) {
        assert_eq!(map(a.id.series_idx()), b.id.series_idx(), "{tag}: series");
        assert_eq!(a.id.offset_idx(), b.id.offset_idx(), "{tag}: offset");
        assert_eq!(
            a.distance.to_bits(),
            b.distance.to_bits(),
            "{tag}: distance bits"
        );
        assert_eq!(
            a.transform.a.to_bits(),
            b.transform.a.to_bits(),
            "{tag}: scale bits"
        );
        assert_eq!(
            a.transform.b.to_bits(),
            b.transform.b.to_bits(),
            "{tag}: shift bits"
        );
    }
}

/// The acceptance matrix: seeds × smashed-shard index × every query mode.
/// Survivors stay bit-identical to an unsharded engine over the surviving
/// series; repairing the sick shard restores bit-identity with the
/// never-smashed twin.
#[test]
fn smashed_shard_matrix_survivors_exact_then_repair_restores_twin() {
    for seed in seeds() {
        let data = market(seed);
        let twin = SearchEngine::build(&data, engine_cfg()).unwrap();
        for sick in smash_targets() {
            let tagp = format!("seed={seed:#x} sick={sick}");
            let mut sharded = ShardedEngine::build(&data, engine_cfg(), SHARDS).unwrap();
            smash(&mut sharded, sick);

            // The surviving twin: an unsharded engine over exactly the
            // series the healthy shards hold, in global order.
            let surviving: Vec<usize> = (0..data.len()).filter(|g| g % SHARDS != sick).collect();
            let surviving_data: Vec<Series> = surviving.iter().map(|&g| data[g].clone()).collect();
            let surv_twin = SearchEngine::build(&surviving_data, engine_cfg()).unwrap();
            let surv_map = |j: usize| surviving[j];

            let expected = run_modes_single(&surv_twin, &data);
            let got = run_modes_sharded(&sharded, &data);
            for ((tag, exp), (tag2, out)) in expected.iter().zip(&got) {
                assert_eq!(tag, tag2);
                let tag = format!("{tagp} {tag}");
                let res = out.as_ref().unwrap_or_else(|e| panic!("{tag}: {e}"));
                assert_eq!(res.stats.degraded_shards, 1, "{tag}");
                assert_eq!(res.stats.shards_ok as usize, SHARDS - 1, "{tag}");
                assert!(res.stats.degraded, "{tag}");
                let reason = res.stats.degraded_reason.clone().unwrap();
                assert!(
                    reason.starts_with(&format!("shard {sick}:")),
                    "{tag}: {reason}"
                );
                assert_eq!(
                    res.stats.candidates,
                    res.stats.verified + res.stats.false_alarms + res.stats.cost_rejected,
                    "{tag}: identity"
                );
                assert_bit_identical(&tag, &exp.matches, &res.matches, &surv_map);
            }

            // Repairing only the sick shard restores full, undegraded
            // service — bit-identical to the never-smashed twin.
            let report = sharded.repair_shard(sick).unwrap();
            assert!(report.windows_reindexed > 0, "{tagp}: repair reindexed");
            assert_eq!(
                sharded.breaker_states()[sick],
                BreakerState::Closed,
                "{tagp}: repair closes the sick shard's breaker"
            );
            let expected = run_modes_single(&twin, &data);
            let got = run_modes_sharded(&sharded, &data);
            for ((tag, exp), (_, out)) in expected.iter().zip(&got) {
                let tag = format!("{tagp} healed {tag}");
                let res = out.as_ref().unwrap_or_else(|e| panic!("{tag}: {e}"));
                assert_eq!(res.stats.degraded_shards, 0, "{tag}");
                assert_eq!(res.stats.shards_ok as usize, SHARDS, "{tag}");
                assert!(!res.stats.degraded, "{tag}");
                assert_bit_identical(&tag, &exp.matches, &res.matches, &|j| j);
            }
        }
    }
}

/// A batch over a smashed shard: per-query isolation holds. Degradable
/// queries degrade individually (each carrying its own shard accounting),
/// a malformed query in the middle fails alone, and every per-query
/// answer equals the same query issued on its own.
#[test]
fn batch_with_smashed_shard_isolates_per_query() {
    for seed in seeds() {
        let data = market(seed);
        let mut sharded = ShardedEngine::build(&data, engine_cfg(), SHARDS).unwrap();
        let sick = smash_targets()[0];
        smash(&mut sharded, sick);

        let q0 = data[0].window(3, WINDOW).unwrap().to_vec();
        let q1 = data[2].window(7, WINDOW).unwrap().to_vec();
        let malformed = vec![0.0; WINDOW + 1];
        let batch = vec![q0.clone(), malformed, q1.clone()];
        let range = Query::Range { epsilon: 0.8 };
        let results = sharded.execute_batch(&batch, range, SearchOptions::default(), 3);
        assert_eq!(results.len(), 3);

        let r0 = results[0].as_ref().unwrap();
        assert_eq!(r0.stats.degraded_shards, 1, "seed={seed:#x}");
        assert!(matches!(
            results[1].as_ref().unwrap_err(),
            EngineError::QueryLength { .. }
        ));
        let r2 = results[2].as_ref().unwrap();
        assert_eq!(r2.stats.degraded_shards, 1, "seed={seed:#x}");

        // Batch answers are identical to the same queries issued solo.
        let solo0 = sharded.search(&q0, 0.8, SearchOptions::default()).unwrap();
        let solo2 = sharded.search(&q1, 0.8, SearchOptions::default()).unwrap();
        assert_bit_identical("batch[0]", &solo0.matches, &r0.matches, &|j| j);
        assert_bit_identical("batch[2]", &solo2.matches, &r2.matches, &|j| j);
    }
}

/// Zero survivors: when every shard is smashed there is nothing to answer
/// from, and the query fails with the typed fan-out error instead of an
/// empty (silently wrong) result — under every policy.
#[test]
fn zero_shard_survivors_is_a_typed_error() {
    let seed = seeds()[0];
    let data = market(seed);
    let mut sharded = ShardedEngine::build(&data, engine_cfg(), SHARDS).unwrap();
    for s in 0..SHARDS {
        smash(&mut sharded, s);
    }
    let q = data[0].window(3, WINDOW).unwrap().to_vec();
    let err = sharded
        .search(&q, 0.8, SearchOptions::default())
        .unwrap_err();
    assert!(
        matches!(err, EngineError::ShardUnavailable { shard: 0, .. }),
        "{err:?}"
    );
    let err = sharded
        .nearest_search_opts(&q, 3, SearchOptions::default())
        .unwrap_err();
    assert!(
        matches!(err, EngineError::ShardUnavailable { .. }),
        "{err:?}"
    );
    // Strict still surfaces the first shard's own error verbatim.
    let err = sharded
        .search(
            &q,
            0.8,
            SearchOptions {
                degradation: DegradationPolicy::Strict,
                ..SearchOptions::default()
            },
        )
        .unwrap_err();
    assert!(err.is_corruption(), "{err:?}");
    // Repairing every shard restores full service.
    sharded.repair().unwrap();
    let res = sharded.search(&q, 0.8, SearchOptions::default()).unwrap();
    assert_eq!(res.stats.shards_ok as usize, SHARDS);
    assert_eq!(res.stats.degraded_shards, 0);
}

/// An exhausted per-shard deadline slice degrades like corruption: the
/// slice is dropped, not the query — and when every slice exhausts, the
/// typed zero-survivor error names the deadline.
#[test]
fn deadline_slices_degrade_per_shard() {
    let seed = seeds()[0];
    let data = market(seed);
    let sharded = ShardedEngine::build(&data, engine_cfg(), SHARDS).unwrap();
    let q = data[0].window(3, WINDOW).unwrap().to_vec();
    let opts = SearchOptions {
        deadline: Some(tsss_core::Deadline {
            max_pages: 0,
            max_steps: 0,
        }),
        ..SearchOptions::default()
    };
    let err = sharded.search(&q, 0.8, opts).unwrap_err();
    match err {
        EngineError::ShardUnavailable { detail, .. } => {
            assert!(detail.contains("deadline"), "{detail}");
        }
        other => panic!("expected ShardUnavailable, got {other:?}"),
    }
}
