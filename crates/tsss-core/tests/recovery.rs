//! Recovery subsystem integration tests: query deadlines on every entry
//! point, per-query isolation in batches, degradation-policy side-effect
//! contracts, the circuit-breaker lifecycle, online index repair, and the
//! repair-tolerant persistence load.

// Test fixture: counters are tiny, narrowing casts cannot truncate.
#![allow(clippy::cast_possible_truncation)]

use tsss_core::{
    Deadline, DegradationPolicy, EngineConfig, EngineError, Query, SearchEngine, SearchOptions,
};
use tsss_data::{MarketConfig, MarketSimulator, Series};

const WINDOW: usize = 16;

fn market() -> Vec<Series> {
    MarketSimulator::new(MarketConfig::small(6, 90, 20260807)).generate()
}

fn engine() -> (SearchEngine, Vec<Series>) {
    let data = market();
    let mut cfg = EngineConfig::small(WINDOW);
    cfg.fc = Some(2);
    (SearchEngine::build(&data, cfg).unwrap(), data)
}

fn with_deadline(d: Deadline) -> SearchOptions {
    SearchOptions {
        deadline: Some(d),
        ..Default::default()
    }
}

fn assert_deadline_err(what: &str, r: Result<tsss_core::SearchResult, EngineError>) {
    match r {
        Err(EngineError::DeadlineExceeded { pages, steps }) => {
            assert!(
                pages > 0 || steps > 0,
                "{what}: exceeded with zero recorded spend"
            );
        }
        Err(other) => panic!("{what}: expected DeadlineExceeded, got {other}"),
        Ok(_) => panic!("{what}: a zero deadline cannot be met"),
    }
}

/// A zero deadline is exceeded — with a typed error, never a panic or a
/// silently truncated answer — on every query entry point.
#[test]
fn zero_deadline_is_a_typed_error_on_every_entry_point() {
    let (e, data) = engine();
    let q = data[0].window(10, WINDOW).unwrap().to_vec();
    let zero = Deadline::uniform(0);

    assert_deadline_err("indexed", e.search(&q, 5.0, with_deadline(zero)));
    assert_deadline_err("seqscan", e.sequential_search(&q, 5.0, with_deadline(zero)));
    assert_deadline_err("knn", e.nearest_search_opts(&q, 3, with_deadline(zero)));
    let long_q = data[1].window(0, 2 * WINDOW).unwrap().to_vec();
    let long = Query::Long { epsilon: 5.0 };
    assert_deadline_err("long", e.execute(&long_q, long, with_deadline(zero)));
    let znorm = Query::ZNormalized { z_eps: 0.5 };
    assert_deadline_err("znormalized", e.execute(&q, znorm, with_deadline(zero)));
}

/// A generous deadline changes nothing: every entry point returns answers
/// and stats bit-identical to the unlimited run, and the spend it metered
/// is observable in `steps_spent`.
#[test]
fn generous_deadline_answers_are_bit_identical_to_unlimited() {
    let (e, data) = engine();
    let q = data[2].window(20, WINDOW).unwrap().to_vec();
    let long_q = data[3].window(5, 2 * WINDOW).unwrap().to_vec();
    let generous = with_deadline(Deadline::uniform(1_000_000_000));
    let long = Query::Long { epsilon: 8.0 };
    let znorm = Query::ZNormalized { z_eps: 0.5 };

    let pairs = [
        (
            "indexed",
            e.search(&q, 8.0, SearchOptions::default()).unwrap(),
            e.search(&q, 8.0, generous).unwrap(),
        ),
        (
            "seqscan",
            e.sequential_search(&q, 8.0, SearchOptions::default())
                .unwrap(),
            e.sequential_search(&q, 8.0, generous).unwrap(),
        ),
        (
            "knn",
            e.nearest_search_opts(&q, 4, SearchOptions::default())
                .unwrap(),
            e.nearest_search_opts(&q, 4, generous).unwrap(),
        ),
        (
            "long",
            e.execute(&long_q, long, SearchOptions::default()).unwrap(),
            e.execute(&long_q, long, generous).unwrap(),
        ),
        (
            "znormalized",
            e.execute(&q, znorm, SearchOptions::default()).unwrap(),
            e.execute(&q, znorm, generous).unwrap(),
        ),
    ];
    for (name, free, bounded) in pairs {
        assert_eq!(free.matches.len(), bounded.matches.len(), "{name}");
        for (a, b) in free.matches.iter().zip(&bounded.matches) {
            assert_eq!(a.id, b.id, "{name}");
            assert_eq!(a.distance.to_bits(), b.distance.to_bits(), "{name}");
            assert_eq!(a.transform.a.to_bits(), b.transform.a.to_bits(), "{name}");
            assert_eq!(a.transform.b.to_bits(), b.transform.b.to_bits(), "{name}");
        }
        assert_eq!(free.stats.candidates, bounded.stats.candidates, "{name}");
        assert_eq!(free.stats.verified, bounded.stats.verified, "{name}");
        assert_eq!(
            free.stats.false_alarms, bounded.stats.false_alarms,
            "{name}"
        );
        assert_eq!(free.stats.steps_spent, bounded.stats.steps_spent, "{name}");
        assert!(
            bounded.stats.steps_spent > 0 || bounded.stats.candidates == 0,
            "{name}: steps were metered"
        );
    }
}

/// One deadline-exhausted query in a parallel batch must not poison the
/// other results: they come back `Ok` and identical to their serial runs.
#[test]
fn exhausted_query_in_a_batch_does_not_poison_the_others() {
    let (e, data) = engine();
    // Query 1 is crafted to need the most verification steps: it sits in
    // the data, so a wide epsilon nominates many candidates.
    let queries: Vec<Vec<f64>> = (0..4)
        .map(|i| data[i].window(7 * i, WINDOW).unwrap().to_vec())
        .collect();
    let eps = 10.0;

    // Measure each query's actual spend, then pick a budget that splits
    // the pack: at least one query fits, at least one exceeds.
    let serial: Vec<_> = queries
        .iter()
        .map(|q| e.search(q, eps, SearchOptions::default()).unwrap())
        .collect();
    let mut spends: Vec<u64> = serial
        .iter()
        .map(|r| r.stats.steps_spent.max(r.stats.total_pages()))
        .collect();
    spends.sort_unstable();
    let budget = (spends[0] + spends[spends.len() - 1]) / 2;
    assert!(
        spends[0] <= budget && spends[spends.len() - 1] > budget,
        "workload must split around the budget (spends: {spends:?})"
    );

    let opts = with_deadline(Deadline::uniform(budget));
    for workers in [1, 4] {
        let results = e.execute_batch(&queries, Query::Range { epsilon: eps }, opts, workers);
        assert_eq!(results.len(), queries.len());
        let mut ok = 0usize;
        let mut exhausted = 0usize;
        for (i, r) in results.iter().enumerate() {
            match r {
                Ok(res) => {
                    ok += 1;
                    assert_eq!(res.id_set(), serial[i].id_set(), "query {i}");
                    assert_eq!(
                        res.stats.candidates, serial[i].stats.candidates,
                        "query {i}"
                    );
                }
                Err(EngineError::DeadlineExceeded { .. }) => exhausted += 1,
                Err(other) => panic!("query {i}: unexpected error {other}"),
            }
        }
        assert!(ok > 0, "workers {workers}: every query starved");
        assert!(exhausted > 0, "workers {workers}: no query exceeded");
    }

    // And collecting the batch into one `Result` surfaces the first
    // failure instead of fabricating a partial answer.
    assert!(matches!(
        e.execute_batch(&queries, Query::Range { epsilon: eps }, opts, 2)
            .into_iter()
            .collect::<Result<Vec<_>, _>>(),
        Err(EngineError::DeadlineExceeded { .. })
    ));
}

fn smash_index(e: &mut SearchEngine) {
    let extent = e.index_extent() as u32;
    for p in 0..extent {
        let _ = e.corrupt_index_page(p, &mut |b| {
            let i = b.len() / 2;
            b[i] ^= 0x81;
        });
    }
}

/// `Strict` surfaces the typed corruption error and leaves the recovery
/// machinery completely untouched: no strikes, no quarantine, no breaker
/// movement. `Error` surfaces the same error but *does* feed both.
#[test]
fn strict_policy_is_isolated_from_the_breaker_and_quarantine() {
    let (mut e, data) = engine();
    smash_index(&mut e);
    let q = data[0].window(3, WINDOW).unwrap().to_vec();

    let strict = SearchOptions {
        degradation: DegradationPolicy::Strict,
        ..Default::default()
    };
    for _ in 0..5 {
        let err = e.search(&q, 5.0, strict).unwrap_err();
        assert!(err.is_corruption(), "strict surfaces the corruption: {err}");
    }
    let h = e.health();
    assert_eq!(h.breaker.to_string(), "closed");
    assert_eq!(h.strikes, 0, "strict must not feed breaker strikes");
    assert_eq!(h.seqscan_served, 0, "strict must not count seqscan service");
    assert!(h.quarantined_pages.is_empty(), "strict must not quarantine");

    let error = SearchOptions {
        degradation: DegradationPolicy::Error,
        ..Default::default()
    };
    let err = e.search(&q, 5.0, error).unwrap_err();
    assert!(err.is_corruption());
    let h = e.health();
    assert_eq!(h.strikes, 1, "Error policy feeds the breaker");
    assert!(
        !h.quarantined_pages.is_empty(),
        "Error policy quarantines the page"
    );
}

/// The full breaker lifecycle: consecutive corrupt probes trip it open,
/// an open breaker routes straight to the sequential scan, sustained
/// seqscan service moves it half-open, the half-open probe re-trips on
/// still-present corruption, and `repair` closes it for good.
#[test]
fn breaker_trips_routes_reprobes_and_repair_closes_it() {
    let data = market();
    let mut cfg = EngineConfig::small(WINDOW);
    cfg.fc = Some(2);
    let pristine = SearchEngine::build(&data, cfg.clone()).unwrap();
    let mut e = SearchEngine::build(&data, cfg).unwrap();
    smash_index(&mut e);

    let q = data[1].window(12, WINDOW).unwrap().to_vec();
    let oracle = pristine
        .sequential_search(&q, 5.0, SearchOptions::default())
        .unwrap();
    let fallback = SearchOptions {
        degradation: DegradationPolicy::SeqScanFallback,
        ..Default::default()
    };

    // Three consecutive corrupt probes trip the breaker open.
    for i in 0..3 {
        let res = e.search(&q, 5.0, fallback).unwrap();
        assert!(res.stats.degraded, "probe {i}");
        assert_eq!(res.id_set(), oracle.id_set(), "probe {i}");
    }
    assert_eq!(e.health().breaker.to_string(), "open");
    assert_eq!(e.health().breaker_trips, 1);

    // While open, queries skip the probe entirely and say so.
    let res = e.search(&q, 5.0, fallback).unwrap();
    assert!(res.stats.degraded);
    assert!(
        res.stats
            .degraded_reason
            .as_deref()
            .unwrap()
            .contains("circuit breaker open"),
        "reason: {:?}",
        res.stats.degraded_reason
    );

    // Sustained successful seqscan service earns a half-open re-probe.
    // Two scans were already served while open (alongside the tripping
    // probe, and the routed query above); two more reach the threshold.
    for _ in 0..2 {
        e.search(&q, 5.0, fallback).unwrap();
    }
    assert_eq!(e.health().breaker.to_string(), "half-open");

    // … which finds the index still corrupt and re-trips.
    let res = e.search(&q, 5.0, fallback).unwrap();
    assert!(res.stats.degraded);
    assert_eq!(res.id_set(), oracle.id_set());
    assert_eq!(e.health().breaker.to_string(), "open");
    assert_eq!(e.health().breaker_trips, 2);

    // Repair rebuilds the index from the data file, drains the
    // quarantine, and closes the breaker.
    let report = e.repair().unwrap();
    assert_eq!(report.windows_reindexed, e.num_windows());
    assert!(!report.quarantine_cleared.is_empty());
    let h = e.health();
    assert_eq!(h.breaker.to_string(), "closed");
    assert!(h.quarantined_pages.is_empty());

    // The next query is answered by the index again, bit-identical.
    let res = e.search(&q, 5.0, fallback).unwrap();
    assert!(!res.stats.degraded, "repaired index answers directly");
    assert_eq!(res.id_set(), oracle.id_set());
    for (a, b) in res.matches.iter().zip(&oracle.matches) {
        assert_eq!(a.distance.to_bits(), b.distance.to_bits());
    }
}

/// A damaged index stream in a persisted engine is rebuilt from the
/// (intact, checksummed) data stream by the tolerant load; damage anywhere
/// else still fails loudly.
#[test]
fn load_repairing_rebuilds_a_damaged_index_stream_only() {
    let (e, data) = engine();
    let mut buf = Vec::new();
    e.save_to(&mut buf).unwrap();
    let q = data[4].window(30, WINDOW).unwrap().to_vec();
    let want = e.search(&q, 5.0, SearchOptions::default()).unwrap();

    // Clean stream: tolerant load reports no rebuild and answers the same.
    let (clean, rebuilt) =
        SearchEngine::load_repairing(&mut std::io::Cursor::new(buf.clone())).unwrap();
    assert!(!rebuilt, "clean stream must not trigger a rebuild");
    let got = clean.search(&q, 5.0, SearchOptions::default()).unwrap();
    assert_eq!(got.id_set(), want.id_set());

    // Damaged index page (the index stream is the final section).
    let mut bad = buf.clone();
    let n = bad.len();
    bad[n - 100] ^= 0x40;
    assert!(
        SearchEngine::load_from(&mut std::io::Cursor::new(bad.clone())).is_err(),
        "strict load must reject the damage"
    );
    let (fixed, rebuilt) = SearchEngine::load_repairing(&mut std::io::Cursor::new(bad)).unwrap();
    assert!(rebuilt, "tolerant load rebuilds the index");
    let got = fixed.search(&q, 5.0, SearchOptions::default()).unwrap();
    assert!(!got.stats.degraded);
    assert_eq!(got.id_set(), want.id_set());
    for (a, b) in got.matches.iter().zip(&want.matches) {
        assert_eq!(a.distance.to_bits(), b.distance.to_bits());
    }

    // Damage to the header / config / data sections still fails, even for
    // the tolerant load — only the index stream is reconstructible.
    for pos in [0usize, 8, 64] {
        let mut bad = buf.clone();
        bad[pos] ^= 0x01;
        assert!(
            SearchEngine::load_repairing(&mut std::io::Cursor::new(bad)).is_err(),
            "tolerant load accepted damage at byte {pos}"
        );
    }
}
