//! Ingest-path benchmark, machine-readable: ms per acknowledged append for
//! the volatile engine vs the write-ahead-logged durable engine, plus the
//! snapshot-publish cost, written to `BENCH_append.json`.
//!
//! The durable column prices the durability contract itself — every
//! acknowledged append pays a frame encode, a CRC and an fsync before the
//! in-memory insert. The publish column prices what a single-engine
//! `/append` pays to hand readers a fresh immutable snapshot after a
//! mutation: a copy-on-write [`SearchEngine::fork`] of the engine.
//!
//! Run: `cargo run --release -p tsss-bench --bin bench_append`
//! (optionally `TSSS_BENCH_OUT=path/to/BENCH_append.json`)

#![forbid(unsafe_code)]

use std::io::Write as _;
use std::time::Instant;

use tsss_core::{DurableEngine, EngineConfig, SearchEngine};
use tsss_data::{MarketConfig, MarketSimulator};

const BATCH: usize = 64;
const BATCHES: usize = 40;

fn batch_values(i: usize) -> Vec<f64> {
    (0..BATCH)
        .map(|j| {
            let x = u32::try_from((i * BATCH + j) % 997).unwrap_or(0);
            f64::from(x).mul_add(0.25, -40.0)
        })
        .collect()
}

/// Streams `BATCHES` acknowledged appends into the engine; returns mean
/// ms per append call.
fn measure_appends(de: &mut DurableEngine) -> f64 {
    let t0 = Instant::now();
    for i in 0..BATCHES {
        de.append_values(0, &batch_values(i))
            .expect("benchmark appends must succeed");
    }
    let denom = u32::try_from(BATCHES).expect("BATCHES fits u32");
    t0.elapsed().as_secs_f64() * 1e3 / f64::from(denom)
}

fn main() {
    let data = MarketSimulator::new(MarketConfig::small(50, 400, 0x7555_1999)).generate();
    let cfg = EngineConfig::small(64);
    let engine = SearchEngine::build(&data, cfg.clone()).expect("build benchmark engine");

    // Volatile: acknowledgement is memory-only.
    let mut volatile = DurableEngine::new_volatile(
        SearchEngine::build(&data, cfg.clone()).expect("build benchmark engine"),
    );
    let volatile_ms = measure_appends(&mut volatile);

    // Durable: every acknowledgement is preceded by a WAL fsync.
    let dir = std::env::temp_dir().join(format!("tsss-bench-append-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create benchmark dir");
    let path = dir.join("engine.tsss");
    engine.save_to_path(&path).expect("save benchmark engine");
    let mut durable = DurableEngine::open(&path).expect("open durable engine");
    let durable_ms = measure_appends(&mut durable);

    // Snapshot publish: the copy-on-write fork a single-engine `/append`
    // hands its readers after a mutation. A fork costs microseconds (one
    // pointer per page), so it is timed over many forks and reported to
    // 0.1 µs.
    let publish_ms = {
        let iters = 1000u32;
        let t0 = Instant::now();
        for _ in 0..iters {
            let fresh = durable.engine().fork();
            assert_eq!(fresh.num_windows(), durable.engine().num_windows());
        }
        t0.elapsed().as_secs_f64() * 1e3 / f64::from(iters)
    };

    let fsync_overhead = durable_ms / volatile_ms;
    println!("volatile: {volatile_ms:.3} ms/append ({BATCH} values per append)");
    println!("durable:  {durable_ms:.3} ms/append (WAL fsync before ack)");
    println!("overhead: {fsync_overhead:.1}x");
    println!("publish:  {publish_ms:.4} ms/snapshot fork");

    std::fs::remove_dir_all(&dir).ok();

    let out = std::env::var("TSSS_BENCH_OUT").unwrap_or_else(|_| "BENCH_append.json".to_string());
    let json = format!(
        "{{\n  \"bench\": \"append\",\n  \"dataset\": {{\"companies\": 50, \"days\": 400, \"window\": 64}},\n  \"values_per_append\": {BATCH},\n  \"appends\": {BATCHES},\n  \"volatile_ms_per_append\": {volatile_ms:.3},\n  \"durable_ms_per_append\": {durable_ms:.3},\n  \"fsync_overhead\": {fsync_overhead:.2},\n  \"publish_ms_per_snapshot\": {publish_ms:.4}\n}}\n"
    );
    let mut f = std::fs::File::create(&out).expect("create bench output");
    f.write_all(json.as_bytes()).expect("write bench output");
    println!("wrote {out}");
}
