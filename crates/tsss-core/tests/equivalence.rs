//! Differential equivalence suite: every public query entry point, run on
//! one seeded workload, locked byte-for-byte against a fixture generated
//! by the pre-pipeline-refactor code.
//!
//! The fixture (`tests/fixtures/equivalence_oracle.txt`) records, per case,
//! the full match list (ids, transforms and distances as exact `f64` bit
//! patterns) and the per-stage statistics including per-query page counts.
//! Any refactor of the query paths must reproduce it exactly — including
//! page accounting under parallel batches, which is also asserted to match
//! the serial runs case by case.
//!
//! Regenerate (only when an *intentional* behaviour change is made) with:
//!
//! ```text
//! TSSS_BLESS=1 cargo test -p tsss-core --test equivalence
//! ```

// Test fixture: counters are tiny, narrowing casts cannot truncate.
#![allow(clippy::cast_possible_truncation)]

use std::fmt::Write as _;

use tsss_core::{
    CostLimit, EngineConfig, Query, SearchEngine, SearchOptions, SearchResult, SubsequenceMatch,
};
use tsss_data::{MarketConfig, MarketSimulator, Series};
use tsss_geometry::scale_shift::ScaleShift;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/equivalence_oracle.txt"
);

fn workload() -> Vec<Series> {
    let mut data = MarketSimulator::new(MarketConfig::small(6, 90, 20260807)).generate();
    data.push(Series::new("flat", vec![42.0; 90]));
    data
}

fn engine() -> SearchEngine {
    SearchEngine::build(&workload(), EngineConfig::small(16)).unwrap()
}

fn fmt_matches(out: &mut String, matches: &[SubsequenceMatch]) {
    for m in matches {
        writeln!(
            out,
            "match {}:{} a={:016x} b={:016x} d={:016x}",
            m.id.series,
            m.id.offset,
            m.transform.a.to_bits(),
            m.transform.b.to_bits(),
            m.distance.to_bits()
        )
        .unwrap();
    }
}

/// Appends one case to the report. `lock_pages` is false for paths whose
/// page accounting was undefined pre-refactor (so only the logical stats
/// are locked there).
fn case(out: &mut String, name: &str, res: &SearchResult, lock_pages: bool) {
    writeln!(out, "case {name}").unwrap();
    write!(
        out,
        "stats candidates={} verified={} false_alarms={} cost_rejected={} degraded={}",
        res.stats.candidates,
        res.stats.verified,
        res.stats.false_alarms,
        res.stats.cost_rejected,
        res.stats.degraded
    )
    .unwrap();
    if lock_pages {
        write!(
            out,
            " index_pages={} data_pages={}",
            res.stats.index_pages, res.stats.data_pages
        )
        .unwrap();
    }
    out.push('\n');
    fmt_matches(out, &res.matches);
    writeln!(out, "end").unwrap();
}

/// A case holding bare matches (the k-NN entry points predate per-query
/// stats, so only the ranked list is locked).
fn case_matches(out: &mut String, name: &str, matches: &[SubsequenceMatch]) {
    writeln!(out, "case {name}").unwrap();
    fmt_matches(out, matches);
    writeln!(out, "end").unwrap();
}

/// The per-stage accounting identity that must hold on every entry point:
/// every candidate is either verified, a false alarm, or cost-rejected.
fn assert_stage_invariant(name: &str, res: &SearchResult) {
    assert_eq!(
        res.stats.candidates,
        res.stats.verified + res.stats.false_alarms + res.stats.cost_rejected,
        "stage accounting broken on {name}: {:?}",
        res.stats
    );
    assert_eq!(res.matches.len() as u64, res.stats.verified, "{name}");
}

fn build_report() -> String {
    let data = workload();
    let e = engine();
    let mut out = String::new();

    let q0 = data[2].window(10, 16).unwrap().to_vec();
    let q1 = ScaleShift { a: 2.5, b: -40.0 }.apply(data[4].window(30, 16).unwrap());
    let q2 = vec![7.0; 16]; // constant: the degenerate shift-only plan
    let q3 = data[0].window(5, 16).unwrap().to_vec();
    let cost_tight = CostLimit {
        a_range: Some((0.9, 1.1)),
        b_range: None,
    };
    let with_cost = SearchOptions {
        cost: cost_tight,
        ..Default::default()
    };

    // Indexed search (the paper's §6 path), including the degenerate
    // constant query and a cost-limited run.
    for (name, q, eps, opts) in [
        ("indexed/q0/eps0.5", &q0, 0.5, SearchOptions::default()),
        ("indexed/q0/eps2", &q0, 2.0, SearchOptions::default()),
        ("indexed/q1/eps1e-6", &q1, 1e-6, SearchOptions::default()),
        ("indexed/q2/eps0.5", &q2, 0.5, SearchOptions::default()),
        ("indexed/q3/eps8/cost", &q3, 8.0, with_cost),
        ("indexed/q0/eps30", &q0, 30.0, SearchOptions::default()),
    ] {
        let res = e.search(q, eps, opts).unwrap();
        assert_stage_invariant(name, &res);
        case(&mut out, name, &res, true);
    }

    // Sequential-scan oracle — including a near-exact-match query (the
    // catastrophic-cancellation regime of the fit), a huge ε (the
    // accept-everything regime), and the degenerate constant query. The
    // locked `data_pages` also pin the scan's one-read-per-page contract.
    for (name, q, eps, opts) in [
        ("seqscan/q0/eps2", &q0, 2.0, SearchOptions::default()),
        ("seqscan/q3/eps8/cost", &q3, 8.0, with_cost),
        ("seqscan/q2/eps0.5", &q2, 0.5, SearchOptions::default()),
        ("seqscan/q1/eps1e-6", &q1, 1e-6, SearchOptions::default()),
        ("seqscan/q0/eps30", &q0, 30.0, SearchOptions::default()),
    ] {
        let res = e.sequential_search(q, eps, opts).unwrap();
        assert_stage_invariant(name, &res);
        case(&mut out, name, &res, true);
    }

    // k-NN (plain and cost-constrained).
    let knn5 = Query::Nearest { k: 5 };
    let res = e.execute(&q0, knn5, SearchOptions::default()).unwrap();
    case_matches(&mut out, "nn/q0/k5", &res.matches);
    let nn_cost = SearchOptions {
        cost: CostLimit {
            a_range: Some((0.5, 2.0)),
            b_range: None,
        },
        ..Default::default()
    };
    let res = e.execute(&q3, knn5, nn_cost).unwrap();
    case_matches(&mut out, "nn_cost/q3/k5", &res.matches);

    // Long queries: prefix stitching vs its brute-force oracle. The oracle
    // predates page accounting, so its pages are not locked.
    let ql = data[1].window(10, 40).unwrap().to_vec();
    let long = Query::Long { epsilon: 2.0 };
    let res = e.execute(&ql, long, SearchOptions::default()).unwrap();
    assert_stage_invariant("long/len40/eps2", &res);
    case(&mut out, "long/len40/eps2", &res, true);
    let res = e.sequential_search_long(&ql, 2.0).unwrap();
    assert_stage_invariant("long_seq/len40/eps2", &res);
    case(&mut out, "long_seq/len40/eps2", &res, false);

    // z-normalised search.
    let znorm = Query::ZNormalized { z_eps: 1.0 };
    let res = e.execute(&q0, znorm, SearchOptions::default()).unwrap();
    assert_stage_invariant("znorm/q0/z1", &res);
    case(&mut out, "znorm/q0/z1", &res, true);

    // Parallel batch: per-query results and page counts must be identical
    // to the serial runs above regardless of interleaving.
    let queries = vec![q0.clone(), q1.clone(), q2.clone(), q3.clone()];
    let batch: Vec<SearchResult> = e
        .execute_batch(
            &queries,
            Query::Range { epsilon: 2.0 },
            SearchOptions::default(),
            4,
        )
        .into_iter()
        .collect::<Result<_, _>>()
        .unwrap();
    let serial: Vec<SearchResult> = queries
        .iter()
        .map(|q| e.search(q, 2.0, SearchOptions::default()).unwrap())
        .collect();
    for (i, (b, s)) in batch.iter().zip(&serial).enumerate() {
        assert_eq!(b.matches, s.matches, "batch query {i} diverged from serial");
        assert_eq!(b.stats.index_pages, s.stats.index_pages, "batch query {i}");
        assert_eq!(b.stats.data_pages, s.stats.data_pages, "batch query {i}");
        assert_stage_invariant("batch", b);
        case(&mut out, &format!("batch/q{i}/eps2"), b, true);
    }

    // Degraded fallback: smash every index page on a fresh engine; the
    // sequential fallback must still produce the oracle answer, flagged.
    let mut broken = engine();
    for p in 0..broken.index_extent() as u32 {
        let _ = broken.corrupt_index_page(p, &mut |b| b[0] ^= 0xFF);
    }
    let res = broken.search(&q0, 2.0, SearchOptions::default()).unwrap();
    assert!(res.stats.degraded, "fallback must be flagged");
    assert_stage_invariant("degraded/q0/eps2", &res);
    case(&mut out, "degraded/q0/eps2", &res, true);

    out
}

#[test]
fn every_entry_point_matches_the_pre_refactor_oracle() {
    let report = build_report();
    if std::env::var_os("TSSS_BLESS").is_some() {
        std::fs::create_dir_all(std::path::Path::new(FIXTURE).parent().unwrap()).unwrap();
        std::fs::write(FIXTURE, &report).unwrap();
        eprintln!("blessed {FIXTURE} ({} lines)", report.lines().count());
        return;
    }
    let expected = std::fs::read_to_string(FIXTURE)
        .expect("missing fixture — run with TSSS_BLESS=1 to generate");
    if report != expected {
        // Surface the first divergence compactly instead of dumping both.
        for (i, (got, want)) in report.lines().zip(expected.lines()).enumerate() {
            assert_eq!(got, want, "first divergence at fixture line {}", i + 1);
        }
        assert_eq!(
            report.lines().count(),
            expected.lines().count(),
            "report length diverged from fixture"
        );
        unreachable!("reports differ but no line-level divergence found");
    }
}

/// Retry accounting: transient index-read faults that succeed on retry are
/// invisible to the answer — matches, transforms, and the stage identity
/// `candidates == verified + false_alarms + cost_rejected` are bit-identical
/// to the no-fault run — while the retries themselves are observable in
/// `SearchStats::retries`.
#[test]
fn retried_transient_faults_leave_answers_bit_identical() {
    let data = workload();
    let pristine = SearchEngine::build(&data, EngineConfig::small(16)).unwrap();
    let mut flaky = SearchEngine::build(&data, EngineConfig::small(16)).unwrap();
    // 25% per-attempt read failures: almost every query retries somewhere,
    // but a *permanent* (three-attempt) failure is rare (~1.6% per read).
    flaky.inject_index_faults(tsss_storage::FaultConfig::read_errors(0xE7A1, 0.25));

    let error_opts = SearchOptions {
        degradation: tsss_core::DegradationPolicy::Error,
        ..Default::default()
    };
    let mut total_retries = 0u64;
    let mut compared = 0usize;
    for (series, offset, eps) in [
        (0usize, 5usize, 2.0),
        (1, 20, 8.0),
        (2, 40, 0.5),
        (3, 11, 15.0),
        (4, 33, 4.0),
        (5, 60, 1.0),
    ] {
        let q = data[series].window(offset, 16).unwrap().to_vec();
        let want = pristine.search(&q, eps, SearchOptions::default()).unwrap();
        match flaky.search(&q, eps, error_opts) {
            // A permanent failure surfaces typed; it cannot corrupt a
            // comparison, so it is simply not compared.
            Err(e) => assert!(e.is_corruption(), "untyped error: {e}"),
            Ok(got) => {
                compared += 1;
                assert!(!got.stats.degraded);
                assert_eq!(got.matches.len(), want.matches.len());
                for (a, b) in got.matches.iter().zip(&want.matches) {
                    assert_eq!(a.id, b.id);
                    assert_eq!(a.distance.to_bits(), b.distance.to_bits());
                    assert_eq!(a.transform.a.to_bits(), b.transform.a.to_bits());
                    assert_eq!(a.transform.b.to_bits(), b.transform.b.to_bits());
                }
                assert_eq!(got.stats.candidates, want.stats.candidates);
                assert_eq!(got.stats.verified, want.stats.verified);
                assert_eq!(got.stats.false_alarms, want.stats.false_alarms);
                assert_eq!(got.stats.cost_rejected, want.stats.cost_rejected);
                assert_eq!(
                    got.stats.candidates,
                    got.stats.verified + got.stats.false_alarms + got.stats.cost_rejected
                );
                total_retries += got.stats.retries;
            }
        }
    }
    assert!(compared > 0, "every query failed permanently");
    assert!(
        total_retries > 0,
        "no retry ever fired — the fault profile has no teeth"
    );
}

/// Parallel sequential scans: the seqscan oracle run from many threads at
/// once must be bit-identical to the serial runs — matches, transforms,
/// distances, and the per-query page accounting (each scan charges the
/// whole file exactly once, regardless of interleaving). This pins the
/// scan path under concurrency the same way the batch cases in the fixture
/// pin the indexed path.
#[test]
fn parallel_seqscans_are_bit_identical_to_serial() {
    let data = workload();
    let e = engine();
    let queries: Vec<(Vec<f64>, f64)> = [
        (2usize, 10usize, 2.0f64),
        (4, 30, 0.5),
        (0, 5, 8.0),
        (1, 44, 1.0),
        (5, 60, 4.0),
        (3, 12, 30.0),
    ]
    .iter()
    .map(|&(s, off, eps)| (data[s].window(off, 16).unwrap().to_vec(), eps))
    .collect();

    let serial: Vec<SearchResult> = queries
        .iter()
        .map(|(q, eps)| {
            e.sequential_search(q, *eps, SearchOptions::default())
                .unwrap()
        })
        .collect();

    let parallel: Vec<SearchResult> = std::thread::scope(|sc| {
        let handles: Vec<_> = queries
            .iter()
            .map(|(q, eps)| {
                let e = &e;
                sc.spawn(move || {
                    e.sequential_search(q, *eps, SearchOptions::default())
                        .unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let total_pages = e.data_page_count() as u64;
    for (i, (p, s)) in parallel.iter().zip(&serial).enumerate() {
        assert_eq!(p.matches.len(), s.matches.len(), "query {i}");
        for (a, b) in p.matches.iter().zip(&s.matches) {
            assert_eq!(a.id, b.id, "query {i}");
            assert_eq!(a.distance.to_bits(), b.distance.to_bits(), "query {i}");
            assert_eq!(a.transform.a.to_bits(), b.transform.a.to_bits());
            assert_eq!(a.transform.b.to_bits(), b.transform.b.to_bits());
        }
        assert_eq!(p.stats.candidates, s.stats.candidates, "query {i}");
        assert_eq!(p.stats.data_pages, total_pages, "query {i}");
        assert_eq!(p.stats.index_pages, 0, "query {i}");
        assert_stage_invariant("parallel seqscan", p);
    }
}

/// Write-path equivalence: growing an engine by appends, round-tripping it
/// through save → load, and querying must be bit-identical (matches,
/// transforms, distances) to building an engine from the full data in one
/// shot. The tree *structures* differ (incremental inserts vs bulk load),
/// so page counts are not compared — but the answer must not depend on how
/// the windows got into the index.
#[test]
fn append_save_load_answers_bit_identical_to_build_from_scratch() {
    let full = workload();
    // Split every series: build from a prefix, append the rest in two
    // uneven chunks (exercising windows that span append boundaries), plus
    // one series added entirely via append_series.
    let split = 55;
    let prefixes: Vec<Series> = full[..full.len() - 1]
        .iter()
        .map(|s| Series::new(s.name.clone(), s.values[..split].to_vec()))
        .collect();
    let mut grown = SearchEngine::build(&prefixes, EngineConfig::small(16)).unwrap();
    for (i, s) in full[..full.len() - 1].iter().enumerate() {
        let mid = split + 13;
        grown.append_values(i, &s.values[split..mid]).unwrap();
        grown.append_values(i, &s.values[mid..]).unwrap();
    }
    let last = full.last().unwrap();
    grown.append_series(last).unwrap();

    // Round-trip the grown engine through persistence.
    let dir = std::env::temp_dir().join(format!("tsss-equiv-append-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("grown.tsss");
    grown.save_to_path(&path).unwrap();
    let reloaded = SearchEngine::load_from_path(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    let scratch = SearchEngine::build(&full, EngineConfig::small(16)).unwrap();
    assert_eq!(reloaded.num_windows(), scratch.num_windows());
    assert_eq!(reloaded.num_series(), scratch.num_series());

    for (series, offset, eps) in [
        (0usize, 5usize, 2.0),
        (2, 40, 0.5),
        (4, 33, 4.0),
        (5, 60, 1.0),
        (3, 50, 8.0), // spans the append boundary (50..66 crosses 55)
    ] {
        let q = full[series].window(offset, 16).unwrap().to_vec();
        let want = scratch.search(&q, eps, SearchOptions::default()).unwrap();
        let got = reloaded.search(&q, eps, SearchOptions::default()).unwrap();
        assert_eq!(got.matches.len(), want.matches.len(), "eps {eps}");
        for (a, b) in got.matches.iter().zip(&want.matches) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.distance.to_bits(), b.distance.to_bits());
            assert_eq!(a.transform.a.to_bits(), b.transform.a.to_bits());
            assert_eq!(a.transform.b.to_bits(), b.transform.b.to_bits());
        }
        assert_eq!(got.stats.verified, want.stats.verified);
        assert_eq!(
            got.stats.candidates,
            got.stats.verified + got.stats.false_alarms + got.stats.cost_rejected
        );
        // The grown engine's z-probe bound must agree too: identical data
        // means identical max SE-norm, so the z-normalised path plans the
        // same feature-space ε.
        assert_eq!(
            reloaded.max_se_norm().to_bits(),
            scratch.max_se_norm().to_bits()
        );
    }
}

/// Shard-count invariance: the scatter-gather engine must answer every
/// query mode bit-identically (ids, transforms, distances) whether the
/// series live in 1 shard or 4 — and identically to the plain unsharded
/// engine. The partition is an implementation detail; the answer is not
/// allowed to depend on it.
#[test]
fn sharded_answers_are_shard_count_invariant() {
    use tsss_core::ShardedEngine;
    let data = workload();
    let single = engine();
    let n1 = ShardedEngine::build(&data, EngineConfig::small(16), 1).unwrap();
    let n4 = ShardedEngine::build(&data, EngineConfig::small(16), 4).unwrap();
    assert_eq!(n1.num_windows(), single.num_windows());
    assert_eq!(n4.num_windows(), single.num_windows());

    let assert_same = |name: &str, want: &SearchResult, got: &SearchResult| {
        assert_eq!(got.matches.len(), want.matches.len(), "{name}: count");
        for (a, b) in got.matches.iter().zip(&want.matches) {
            assert_eq!(a.id, b.id, "{name}");
            assert_eq!(a.distance.to_bits(), b.distance.to_bits(), "{name}");
            assert_eq!(a.transform.a.to_bits(), b.transform.a.to_bits(), "{name}");
            assert_eq!(a.transform.b.to_bits(), b.transform.b.to_bits(), "{name}");
        }
        // Only the accounting identity — not `matches == verified`, which
        // k-NN's truncation to k legitimately breaks.
        assert_eq!(
            got.stats.candidates,
            got.stats.verified + got.stats.false_alarms + got.stats.cost_rejected,
            "stage accounting broken on {name}: {:?}",
            got.stats
        );
    };

    let q = data[0].window(5, 16).unwrap().to_vec();
    let ql = data[1].window(10, 40).unwrap().to_vec();
    for (name, values, query) in [
        ("range/eps2", &q, Query::Range { epsilon: 2.0 }),
        ("knn/k7", &q, Query::Nearest { k: 7 }),
        ("znorm/eps1", &q, Query::ZNormalized { z_eps: 1.0 }),
        ("long/len40", &ql, Query::Long { epsilon: 2.0 }),
    ] {
        let opts = SearchOptions::default();
        let base = single.execute(values, query, opts).unwrap();
        let r1 = n1.execute(values, query, opts).unwrap();
        let r4 = n4.execute(values, query, opts).unwrap();
        assert_same(&format!("{name}/n1"), &base, &r1);
        assert_same(&format!("{name}/n4"), &base, &r4);
        assert_eq!(r1.stats.shards_ok, 1, "{name}");
        assert_eq!(r4.stats.shards_ok, 4, "{name}");
        assert_eq!(r4.stats.degraded_shards, 0, "{name}");
    }

    // Batches too, across worker counts.
    let batch: Vec<Vec<f64>> = (0..5)
        .map(|i| data[i % data.len()].window(3 + 7 * i, 16).unwrap().to_vec())
        .collect();
    let range = Query::Range { epsilon: 1.5 };
    let base = single.execute_batch(&batch, range, SearchOptions::default(), 1);
    for workers in [1, 4] {
        let got = n4.execute_batch(&batch, range, SearchOptions::default(), workers);
        for (i, (want, have)) in base.iter().zip(&got).enumerate() {
            let (want, have) = (want.as_ref().unwrap(), have.as_ref().unwrap());
            assert_same(&format!("batch[{i}]/w{workers}"), want, have);
        }
    }
}
