//! Ablation: index dimensionality — the §7 motivation for DFT reduction.
//!
//! The paper: "the searching time increases as the overlap of the R-tree
//! increases. Moreover, the overlap increases significantly when the
//! dimension of the R-tree is larger than 10. Thus, in our implementation,
//! we use a technique … to reduce the dimension." This sweep indexes the
//! *same* windows at increasing dimension — DFT features from 2-d up to
//! 16-d, then the raw SE window (window_len-d) — and measures the R*-tree's
//! directory overlap and query cost.
//!
//! Run: `cargo run --release -p tsss-bench --bin ablation_dimension`

#![forbid(unsafe_code)]

use tsss_bench::{median_window_fluctuation, Method};
use tsss_core::{EngineConfig, Query, SearchEngine, SearchOptions};
use tsss_data::{MarketConfig, MarketSimulator, QueryWorkload, WorkloadConfig};
use tsss_index::Node;

const WINDOW: usize = 34; // full-dim mode gives a 34-d tree (> the paper's 10)

fn main() {
    let quick = std::env::var("TSSS_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false);
    let (companies, queries) = if quick { (60, 10) } else { (300, 40) };
    let data = MarketSimulator::new(MarketConfig {
        companies,
        days: 650,
        seed: 0x7555_1999,
        ..MarketConfig::paper()
    })
    .generate();
    let workload = QueryWorkload::generate(
        &data,
        WorkloadConfig {
            queries,
            window_len: WINDOW,
            noise_level: 0.005,
            seed: 0xD1111,
            ..Default::default()
        },
    );
    let eps = 0.002 * median_window_fluctuation(&data, WINDOW);

    println!(
        "{:>8} {:>6} {:>10} {:>14} {:>12} {:>10}",
        "dim", "fc", "leaves M", "mean overlap", "pages/query", "cpu µs"
    );
    for fc in [Some(1usize), Some(3), Some(6), Some(8), None] {
        let mut cfg = EngineConfig::paper();
        cfg.window_len = WINDOW;
        cfg.fc = fc;
        let dim = cfg.feature_dim();
        let max_m = Node::max_internal_fanout(cfg.page_size, dim);
        if cfg.max_entries > max_m {
            cfg.max_entries = max_m;
            cfg.min_entries = (max_m * 2 / 5).max(2);
            cfg.reinsert_count = max_m * 3 / 10;
        }
        let engine = SearchEngine::build(&data, cfg).expect("data set fits the u32 window ids");

        // Mean pairwise overlap fraction among sibling directory boxes —
        // the quantity the paper says explodes past ~10 dimensions.
        let boxes = engine.tree().directory_mbrs().expect("healthy store");
        let sample = &boxes[..boxes.len().min(400)];
        let mut overlap_frac = 0.0;
        let mut pairs = 0u64;
        for (i, a) in sample.iter().enumerate() {
            for b in sample.iter().skip(i + 1) {
                let o = a.overlap(b);
                let denom = a.volume().min(b.volume());
                if denom > 0.0 {
                    overlap_frac += o / denom;
                    pairs += 1;
                }
            }
        }
        overlap_frac /= pairs.max(1) as f64;

        let mut pages = 0.0;
        let mut cpu = 0.0;
        for q in &workload.queries {
            let r = engine
                .execute(
                    &q.values,
                    Query::Range { epsilon: eps },
                    SearchOptions::default(),
                )
                .unwrap();
            pages += r.stats.total_pages() as f64;
            cpu += r.stats.elapsed.as_secs_f64() * 1e6;
        }
        let n = workload.queries.len() as f64;
        println!(
            "{:>8} {:>6} {:>10} {:>13.4} {:>12.1} {:>10.1}",
            dim,
            fc.map(|f| f.to_string()).unwrap_or_else(|| "—".into()),
            engine.config().tree_config().leaf_max_entries,
            overlap_frac,
            pages / n,
            cpu / n
        );
    }
    let _ = Method::ALL;
    println!(
        "\n(same {} windows in every row; dim = window length {WINDOW} in the fc = — row)",
        WINDOW
    );
}
