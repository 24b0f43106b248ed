//! Scatter-gather sharding benchmark, machine-readable: ms/iter for the
//! same query batch over a `ShardedEngine` with 1, 2, 4 and 8 shards,
//! written to `BENCH_shard.json`.
//!
//! Like `bench_search`, this is the per-PR regression probe for the
//! sharded hot path: the four shard-count latencies are gated (see
//! [`tsss_bench::gate::SHARD_GATED`]); the derived `merge_overhead` —
//! one-shard scatter-gather over a direct engine call, i.e. the pure cost
//! of the fan-out/merge machinery — is reported but not gated.
//!
//! Run: `cargo run --release -p tsss-bench --bin bench_shard`
//! (optionally `TSSS_BENCH_OUT=path/to/BENCH_shard.json`)

#![forbid(unsafe_code)]

use std::io::Write as _;
use std::time::Instant;

use tsss_bench::Harness;
use tsss_core::{EngineConfig, Query, SearchOptions, ShardedEngine};

fn main() {
    // Moderate scale (~46k values): large enough that per-shard tree
    // descents dominate, small enough for a CI lane.
    let h = Harness::build(96, 480, 12, EngineConfig::paper(), 0x7555_1999);
    let epsilon = h.epsilon_grid()[3];
    let queries_per_iter = h.queries.len();

    let run_direct = |iters: u32| -> f64 {
        let _ = direct_iter(&h, epsilon);
        let t0 = Instant::now();
        for _ in 0..iters {
            assert!(direct_iter(&h, epsilon) > 0, "a search must verify work");
        }
        t0.elapsed().as_secs_f64() * 1e3 / f64::from(iters)
    };
    let run_sharded = |shards: usize, iters: u32| -> f64 {
        let sh = ShardedEngine::build(&h.data, h.engine.config().clone(), shards)
            .expect("bench data fits the u32 window ids");
        assert_eq!(sh.num_shards(), shards);
        let _ = sharded_iter(&sh, &h.queries, epsilon);
        let t0 = Instant::now();
        for _ in 0..iters {
            assert!(
                sharded_iter(&sh, &h.queries, epsilon) > 0,
                "a search must verify work"
            );
        }
        t0.elapsed().as_secs_f64() * 1e3 / f64::from(iters)
    };

    let direct_ms = run_direct(3);
    let shard_counts = [1usize, 2, 4, 8];
    let mut shard_ms = Vec::with_capacity(shard_counts.len());
    for &n in &shard_counts {
        shard_ms.push(run_sharded(n, 3));
    }
    let merge_overhead = shard_ms[0] / direct_ms;

    println!("direct:   {direct_ms:.3} ms/iter ({queries_per_iter} queries per iter)");
    for (&n, &ms) in shard_counts.iter().zip(&shard_ms) {
        println!("shard{n}:   {ms:.3} ms/iter");
    }
    println!("merge overhead (1 shard / direct): {merge_overhead:.2}x");

    let out = std::env::var("TSSS_BENCH_OUT").unwrap_or_else(|_| "BENCH_shard.json".to_string());
    let json = format!(
        "{{\n  \"bench\": \"shard\",\n  \"dataset\": {{\"companies\": 96, \"days\": 480, \"window\": 128, \"fc\": 3}},\n  \"queries_per_iter\": {queries_per_iter},\n  \"epsilon\": {epsilon},\n  \"direct_ms_per_iter\": {direct:.3},\n  \"shard1_ms_per_iter\": {s1:.3},\n  \"shard2_ms_per_iter\": {s2:.3},\n  \"shard4_ms_per_iter\": {s4:.3},\n  \"shard8_ms_per_iter\": {s8:.3},\n  \"merge_overhead\": {merge_overhead:.3}\n}}\n",
        direct = direct_ms,
        s1 = shard_ms[0],
        s2 = shard_ms[1],
        s4 = shard_ms[2],
        s8 = shard_ms[3],
    );
    let mut f = std::fs::File::create(&out).expect("create bench output");
    f.write_all(json.as_bytes()).expect("write bench output");
    println!("wrote {out}");
}

/// One iteration over the whole query batch on the direct (unsharded)
/// engine; returns total verified matches as the anti-dead-code check.
fn direct_iter(h: &Harness, epsilon: f64) -> usize {
    let mut verified = 0;
    for q in &h.queries {
        let res = h
            .engine
            .execute(q, Query::Range { epsilon }, SearchOptions::default())
            .expect("bench search must succeed");
        verified += usize::try_from(res.stats.verified).unwrap_or(usize::MAX);
    }
    verified
}

/// One iteration over the whole query batch on a sharded engine.
fn sharded_iter(sh: &ShardedEngine, queries: &[Vec<f64>], epsilon: f64) -> usize {
    let mut verified = 0;
    for q in queries {
        let res = sh
            .execute(q, Query::Range { epsilon }, SearchOptions::default())
            .expect("bench search must succeed");
        assert_eq!(res.stats.degraded_shards, 0, "healthy bench shards");
        verified += usize::try_from(res.stats.verified).unwrap_or(usize::MAX);
    }
    verified
}
