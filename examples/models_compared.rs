//! The paper's scale-shift model vs the modern z-normalised model, side by
//! side on the same index — plus engine persistence.
//!
//! The two formulations agree on "same trend" for positively-correlated
//! windows (both are monotone in the angle between SE-transforms) but
//! diverge on two points this example makes concrete:
//!
//! 1. **Inversions**: the paper's model happily maps a window onto its
//!    mirror image (`a < 0`); the z-normalised model calls them maximally
//!    different.
//! 2. **Asymmetry**: the paper's distance is measured in the *target's*
//!    amplitude, so quiet windows match everything (`a ≈ 0`); z-distance is
//!    symmetric and amplitude-free.
//!
//! Run with: `cargo run --release --example models_compared`

use tsss::core::{EngineConfig, Query, SearchEngine, SearchOptions};
use tsss::data::{MarketConfig, MarketSimulator, Series};

const WINDOW: usize = 32;

fn main() {
    // A market plus two synthetic actors: a mirror of stock 0 and a
    // near-flat series.
    let mut market = MarketSimulator::new(MarketConfig::small(60, 200, 3)).generate();
    let mirror = Series::new(
        "MIRROR",
        market[0].values.iter().map(|v| 300.0 - v).collect(),
    );
    let flat = Series::new(
        "FLAT",
        (0..200)
            .map(|i| 50.0 + 0.01 * (i as f64 * 0.4).sin())
            .collect(),
    );
    let mirror_idx = market.len();
    let flat_idx = market.len() + 1;
    market.push(mirror);
    market.push(flat);

    let engine = SearchEngine::build(&market, EngineConfig::small(WINDOW))
        .expect("data set fits the u32 window ids");
    println!(
        "indexed {} windows from {} series\n",
        engine.num_windows(),
        engine.num_series()
    );

    let query = market[0].window(100, WINDOW).unwrap().to_vec();
    let eps = 0.25 * tsss::geometry::se::se_norm(&query);

    // Paper model.
    let range = Query::Range { epsilon: eps };
    let ss = engine
        .execute(&query, range, SearchOptions::default())
        .expect("valid query");
    let ss_has_mirror = ss
        .matches
        .iter()
        .any(|m| m.id.series as usize == mirror_idx);
    let ss_has_flat = ss.matches.iter().any(|m| m.id.series as usize == flat_idx);
    println!(
        "scale-shift model (ε = {eps:.2}): {} matches — mirror matched: {}, \
         flat windows matched: {}",
        ss.matches.len(),
        ss_has_mirror,
        ss_has_flat
    );
    if let Some(m) = ss
        .matches
        .iter()
        .find(|m| m.id.series as usize == mirror_idx)
    {
        println!(
            "  the mirror matched with a = {:.3} (a negative scaling!)",
            m.transform.a
        );
    }

    // Modern model, same index.
    let z = engine
        .execute(
            &query,
            Query::ZNormalized { z_eps: 2.0 },
            SearchOptions::default(),
        )
        .expect("valid query");
    let z_has_mirror = z.matches.iter().any(|m| m.id.series as usize == mirror_idx);
    let z_has_flat = z.matches.iter().any(|m| m.id.series as usize == flat_idx);
    println!(
        "z-normalised model (zε = 2.0): {} matches — mirror matched: {}, \
         flat windows matched: {}",
        z.matches.len(),
        z_has_mirror,
        z_has_flat
    );

    assert!(ss_has_mirror && !z_has_mirror, "inversion divergence");
    assert!(ss_has_flat && !z_has_flat, "asymmetry divergence");

    // Persistence: save, reload, and confirm the loaded engine answers
    // identically.
    let path = std::env::temp_dir().join("models_compared.tsss");
    engine.save_to_path(&path).expect("save engine");
    let reloaded = SearchEngine::load_from_path(&path).expect("load engine");
    let again = reloaded
        .execute(&query, range, SearchOptions::default())
        .expect("valid query");
    assert_eq!(ss.id_set(), again.id_set());
    println!(
        "\nsaved + reloaded the engine ({} KiB) — identical answers ✓",
        std::fs::metadata(&path)
            .map(|m| m.len() / 1024)
            .unwrap_or(0)
    );
    std::fs::remove_file(&path).ok();
}
