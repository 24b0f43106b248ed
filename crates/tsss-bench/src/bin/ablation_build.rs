//! Ablation: index-construction strategy — coordinate STR bulk loading vs
//! **polar** (direction-first) bulk loading vs the paper's one-by-one
//! R*-tree insertion.
//!
//! All three produce identical answers; they differ in box geometry. The
//! engine's only query shape is a *line through the origin* (the query's
//! SE-line), and a line through the origin penetrates a box only if the
//! box's angular extent covers the line's direction. Polar tiling makes
//! boxes angular sectors, collapsing the ε = 0 traversal from "cut across
//! the whole feature cloud" to "walk one sector" — this bench quantifies
//! the effect on the Figure 5 metric.
//!
//! Run: `cargo run --release -p tsss-bench --bin ablation_build`

#![forbid(unsafe_code)]

use std::time::Instant;

use tsss_bench::{median_window_fluctuation, Method};
use tsss_core::{BuildMethod, EngineConfig, Query, SearchEngine, SearchOptions};
use tsss_data::{MarketConfig, MarketSimulator, QueryWorkload, WorkloadConfig};

fn main() {
    let quick = std::env::var("TSSS_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false);
    // Insertion-build of the full 523 000 windows is the limiting factor.
    let (companies, queries) = if quick { (100, 10) } else { (500, 50) };
    let data = MarketSimulator::new(MarketConfig {
        companies,
        days: 650,
        seed: 0x7555_1999,
        ..MarketConfig::paper()
    })
    .generate();
    let window_len = EngineConfig::paper().window_len;
    let workload = QueryWorkload::generate(
        &data,
        WorkloadConfig {
            queries,
            window_len,
            noise_level: 0.02,
            seed: 0xB111D,
            ..Default::default()
        },
    );
    let med = median_window_fluctuation(&data, window_len);

    println!(
        "{:>12} {:>10} | {:>11} {:>11} {:>11}",
        "build", "build s", "pages@0", "pages@1e-3", "pages@5e-3"
    );
    for build in [
        BuildMethod::BulkStr,
        BuildMethod::BulkPolar,
        BuildMethod::Insert,
    ] {
        let mut cfg = EngineConfig::paper();
        cfg.build = build;
        let t0 = Instant::now();
        let engine = SearchEngine::build(&data, cfg).expect("data set fits the u32 window ids");
        let build_s = t0.elapsed().as_secs_f64();

        let mut row = Vec::new();
        for frac in [0.0, 0.001, 0.005] {
            let eps = frac * med;
            let mut pages = 0.0;
            for q in &workload.queries {
                let r = engine
                    .execute(
                        &q.values,
                        Query::Range { epsilon: eps },
                        SearchOptions::default(),
                    )
                    .unwrap();
                pages += r.stats.total_pages() as f64;
            }
            row.push(pages / workload.queries.len() as f64);
        }
        println!(
            "{:>12} {:>10.1} | {:>11.1} {:>11.1} {:>11.1}",
            format!("{build:?}"),
            build_s,
            row[0],
            row[1],
            row[2]
        );
    }
    let _ = Method::ALL;
    println!("\n(set 2 checks; eps as fractions of the median window fluctuation)");
}
