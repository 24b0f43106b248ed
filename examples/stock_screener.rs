//! Stock screener — the paper's §1 motivating application.
//!
//! "Although the stock price of company C is higher than that of company A,
//! if they have the same fluctuation, they should be considered to have the
//! same trend" — this example screens a synthetic market for every stock
//! whose recent window moves like a chosen reference stock, regardless of
//! price level (shift) or amplitude (scale), and ranks the closest
//! look-alikes with the engine's k-nearest-neighbour search.
//!
//! Run with: `cargo run --release --example stock_screener`

use std::collections::BTreeMap;

use tsss::core::{CostLimit, EngineConfig, Query, SearchEngine, SearchOptions};
use tsss::data::{MarketConfig, MarketSimulator};

const WINDOW: usize = 64;

fn main() {
    // A mid-sized market: 200 stocks, 320 days.
    let market = MarketSimulator::new(MarketConfig::small(200, 320, 7)).generate();
    let mut cfg = EngineConfig::small(WINDOW);
    cfg.fc = Some(3);
    cfg.max_entries = 20;
    cfg.min_entries = 8;
    cfg.reinsert_count = 6;
    let engine = SearchEngine::build(&market, cfg).expect("data set fits the u32 window ids");

    // Reference: the last complete window of stock 0.
    let reference_series = 0usize;
    let offset = market[reference_series].len() - WINDOW;
    let reference = market[reference_series]
        .window(offset, WINDOW)
        .unwrap()
        .to_vec();
    println!(
        "reference: {} days {}..{} (price level ≈ {:.2})",
        market[reference_series].name,
        offset,
        offset + WINDOW,
        reference.iter().sum::<f64>() / WINDOW as f64
    );

    // Range screen: everything within ε, but only with a *substantial
    // positive* scaling — we want genuinely co-moving stocks, not mirror
    // images and not near-flat windows that the model's asymmetric distance
    // would otherwise match with a ≈ 0. The cost limit expresses that
    // directly (paper §3: transformation cost as part of the query).
    let fluctuation = tsss::geometry::se::se_norm(&reference);
    let eps = 0.35 * fluctuation;
    let opts = SearchOptions {
        cost: CostLimit {
            a_range: Some((0.25, 4.0)),
            b_range: None,
        },
        ..Default::default()
    };
    let result = engine
        .execute(&reference, Query::Range { epsilon: eps }, opts)
        .expect("valid query");

    // Keep each stock's best-matching window.
    let mut best_per_stock: BTreeMap<u32, (f64, f64, f64)> = BTreeMap::new();
    for m in &result.matches {
        if m.id.series as usize == reference_series {
            continue; // the reference trivially matches itself
        }
        let entry = best_per_stock
            .entry(m.id.series)
            .or_insert((f64::INFINITY, 0.0, 0.0));
        if m.distance < entry.0 {
            *entry = (m.distance, m.transform.a, m.transform.b);
        }
    }

    println!(
        "\nscreen at ε = {eps:.2}: {} co-moving stock(s) \
         ({} candidate windows, {} false alarms)\n",
        best_per_stock.len(),
        result.stats.candidates,
        result.stats.false_alarms
    );
    println!(
        "{:<8} {:>10} {:>9} {:>10}",
        "stock", "distance", "scale a", "shift b"
    );
    for (series, (d, a, b)) in best_per_stock.iter().take(15) {
        println!(
            "{:<8} {:>10.3} {:>9.3} {:>10.2}",
            market[*series as usize].name, d, a, b
        );
    }

    // Ranked view: the nearest windows market-wide under a substantial
    // scaling. The model's raw nearest neighbours are dominated by
    // low-volatility windows (distance is measured in the target's
    // amplitude), so rank with the cost-constrained k-NN.
    let nearest = engine
        .execute(&reference, Query::Nearest { k: 8 }, opts)
        .expect("valid query")
        .matches;
    println!("\nnearest co-moving windows market-wide (cost-constrained k-NN):");
    for m in nearest
        .iter()
        .filter(|m| m.id.series as usize != reference_series)
        .take(5)
    {
        println!(
            "  {} ({}) · distance {:.3} · a = {:.3}, b = {:+.2}",
            m.id, market[m.id.series as usize].name, m.distance, m.transform.a, m.transform.b
        );
    }
}
