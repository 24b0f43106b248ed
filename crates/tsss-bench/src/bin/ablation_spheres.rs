//! Ablation for claim **C3**: why the bounding-sphere heuristic (set 3)
//! loses to the plain Entering/Exiting-Points test (set 2).
//!
//! The paper's explanation (§7, citing the SR-tree observation \[26\]): R*-tree
//! MBRs have *long diagonals but small volumes*, so the circumscribed sphere
//! is far too big (it rarely rejects) and the inscribed sphere far too small
//! (it rarely accepts) — most tests fall through to the slab test anyway,
//! making the spheres pure overhead. This binary measures exactly that:
//!
//! * the elongation (diagonal / shortest side) distribution of the tree's
//!   directory boxes,
//! * the decision breakdown of every sphere test across the ε grid, with
//!   the CPU penalty.
//!
//! Run: `cargo run --release -p tsss-bench --bin ablation_spheres`

#![forbid(unsafe_code)]

use tsss_bench::{Harness, Method};
use tsss_core::{Query, SearchOptions};
use tsss_geometry::penetration::{PenetrationMethod, SphereStats};

fn main() {
    let h = Harness::from_env();

    // Box-shape evidence.
    let mut elong: Vec<f64> = h
        .engine
        .tree()
        .directory_mbrs()
        .expect("healthy store")
        .iter()
        .map(|m| {
            let min_side = (0..m.dim())
                .map(|i| m.extent(i))
                .fold(f64::INFINITY, f64::min);
            if min_side <= 0.0 {
                f64::INFINITY
            } else {
                m.diagonal() / min_side
            }
        })
        .collect();
    elong.sort_by(|a, b| a.partial_cmp(b).unwrap());
    // Percentile rank of an in-memory Vec: the product is < len by construction.
    #[allow(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_precision_loss
    )]
    let pct = |p: f64| elong[((elong.len() - 1) as f64 * p) as usize];
    println!(
        "MBR elongation (diagonal / shortest side) over {} directory boxes:",
        elong.len()
    );
    println!(
        "  p10 {:.1}   p50 {:.1}   p90 {:.1}   p99 {:.1}",
        pct(0.10),
        pct(0.50),
        pct(0.90),
        pct(0.99)
    );
    println!(
        "  (a perfect cube scores √d ≈ {:.2}; larger ⇒ long diagonal / small volume)",
        (h.engine.config().feature_dim() as f64).sqrt()
    );

    // Decision breakdown across the ε grid.
    println!(
        "\n{:>12} | {:>13} {:>13} {:>13} | {:>10} {:>10} {:>8}",
        "epsilon", "outer-reject", "inner-accept", "fallback", "set2 µs", "set3 µs", "penalty"
    );
    let grid = h.epsilon_grid();
    for &eps in &grid {
        // Aggregate the sphere decision counters directly.
        let mut agg = SphereStats::default();
        let queries = h.queries.clone();
        for q in &queries {
            let r = h
                .engine
                .execute(
                    q,
                    Query::Range { epsilon: eps },
                    SearchOptions {
                        method: PenetrationMethod::BoundingSpheres,
                        ..Default::default()
                    },
                )
                .expect("valid query");
            agg.merge(&r.stats.index.sphere);
        }
        let total = agg.total().max(1) as f64;
        let set2 = h.run_method(Method::TreeEnteringExiting, eps);
        let set3 = h.run_method(Method::TreeBoundingSpheres, eps);
        println!(
            "{:>12.4} | {:>12.1}% {:>12.1}% {:>12.1}% | {:>10.1} {:>10.1} {:>7.2}x",
            eps,
            100.0 * agg.outer_reject as f64 / total,
            100.0 * agg.inner_accept as f64 / total,
            100.0 * agg.fallback as f64 / total,
            set2.cpu_us,
            set3.cpu_us,
            set3.cpu_us / set2.cpu_us
        );
    }
    println!(
        "\npaper C3: the fallback share dominates, so the spheres cannot pay for \
         themselves — set 3's CPU ≥ set 2's at equal page counts."
    );
}
