//! Quickstart: build an engine over a synthetic market, disguise a real
//! window with a scale-shift transformation, and watch the engine recover
//! the source — together with the transformation — despite the disguise.
//!
//! Run with: `cargo run --release --example quickstart`

use tsss::core::{EngineConfig, Query, SearchEngine, SearchOptions};
use tsss::data::{MarketConfig, MarketSimulator};
use tsss::geometry::scale_shift::ScaleShift;

fn main() {
    // 1. Data: 50 synthetic stocks, 250 trading days each.
    let market = MarketSimulator::new(MarketConfig::small(50, 250, 42)).generate();
    println!(
        "market: {} series, {} values total",
        market.len(),
        market.iter().map(|s| s.len()).sum::<usize>()
    );

    // 2. Engine: window 32, 3 Fourier coefficients → a 6-d R*-tree.
    let mut cfg = EngineConfig::small(32);
    cfg.fc = Some(3);
    let engine = SearchEngine::build(&market, cfg).expect("data set fits the u32 window ids");
    println!(
        "indexed {} windows in an R*-tree of height {}",
        engine.num_windows(),
        engine.index_height()
    );

    // 3. A disguised query: stock 17's days 100..132, scaled ×2.5 and
    //    shifted down 40 units. Its price level and amplitude now look
    //    nothing like the original.
    let source = market[17].window(100, 32).unwrap();
    let disguise = ScaleShift { a: 2.5, b: -40.0 };
    let query = disguise.apply(source);

    // 4. Search with a small error bound.
    let result = engine
        .execute(
            &query,
            Query::Range { epsilon: 1e-6 },
            SearchOptions::default(),
        )
        .expect("well-formed query");

    println!(
        "\n{} match(es); index visited {} nodes, checked {} candidates, \
         {} false alarm(s)",
        result.matches.len(),
        result.stats.index.internal_visited + result.stats.index.leaves_visited,
        result.stats.candidates,
        result.stats.false_alarms,
    );
    for m in result.matches.iter().take(5) {
        println!(
            "  {} · a = {:.4}, b = {:+.3} · distance {:.2e}",
            m.id, m.transform.a, m.transform.b, m.distance
        );
    }

    // 5. The top match is the source, and the reported transformation is
    //    the inverse of the disguise (a = 1/2.5, b = 40/2.5).
    let best = &result.matches[0];
    assert_eq!((best.id.series, best.id.offset), (17, 100));
    assert!((best.transform.a - 0.4).abs() < 1e-9);
    assert!((best.transform.b - 16.0).abs() < 1e-6);
    println!("\nrecovered the source window and inverted the disguise ✓");
}
