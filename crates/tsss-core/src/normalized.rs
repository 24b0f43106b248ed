//! z-normalisation comparator — relating the paper's model to the later
//! standard.
//!
//! The paper's scale/shift-invariant similarity was later standardised (UCR
//! Suite, stumpy, tslearn, …) as Euclidean distance between **z-normalised**
//! sequences: `z(x) = (x − mean(x)) / std(x)`. The two views are tightly
//! related: z-normalisation first applies the SE-transformation (mean
//! removal — the paper's shift elimination) and then divides by the norm,
//! which quotients out the scaling line. Writing `θ` for the angle between
//! the SE-transforms of `u` and `v`:
//!
//! * the paper's minimum distance is `‖T_se(v)‖·|sin θ|` (the perpendicular
//!   drop of `T_se(v)` onto the SE-line of `u`),
//! * the z-normalised distance is `√(2n·(1 − cos θ))`,
//!
//! so both are monotone functions of the angle when `cos θ ≥ 0` — they rank
//! positively-correlated matches identically — but the paper's distance is
//! *asymmetric* (it scales with the target's amplitude) and admits negative
//! scalings (`cos θ < 0`), which z-normalised distance penalises. The test
//! suite pins these relationships down.
//!
//! The engine answers z-normalised range queries with the paper's own
//! index: a [`crate::Query::ZNormalized`] through
//! [`crate::SearchEngine::execute`] probes the R-tree at the sound radius
//! [`crate::QueryPlan::znormalized`] derives from `z_eps`, then verifies
//! exact z-distances. Matches report the z-distance in `distance` and the
//! optimal scale-shift `(a, b)` in `transform` (which for a z-match always
//! has `a > 0`: inversions are *not* z-similar).

use tsss_geometry::se::se_norm;
use tsss_geometry::vector::{dist, mean};
use tsss_geometry::DimensionMismatch;

/// z-normalises a sequence: zero mean, unit standard deviation
/// (population). Constant sequences map to all-zeros.
pub fn z_normalize(x: &[f64]) -> Vec<f64> {
    let n = x.len();
    if n == 0 {
        return Vec::new();
    }
    let m = mean(x);
    let sd = se_norm(x) / (n as f64).sqrt();
    if sd <= 1e-300 {
        return vec![0.0; n];
    }
    x.iter().map(|v| (v - m) / sd).collect()
}

/// Euclidean distance between the z-normalised operands — the modern
/// "normalised Euclidean distance".
///
/// # Errors
/// [`DimensionMismatch`] when the operands differ in length.
pub fn z_distance(u: &[f64], v: &[f64]) -> Result<f64, DimensionMismatch> {
    if u.len() != v.len() {
        return Err(DimensionMismatch {
            left: u.len(),
            right: v.len(),
        });
    }
    Ok(dist(&z_normalize(u), &z_normalize(v)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsss_geometry::scale_shift::min_scale_shift_distance;
    use tsss_geometry::vector::dot;

    /// The cosine of the angle between the SE-transforms of `u` and `v`:
    /// the quantity both distance models are functions of.
    fn se_cosine(u: &[f64], v: &[f64]) -> f64 {
        let n = u.len() as f64;
        let dot_c = dot(u, v) - n * mean(u) * mean(v);
        (dot_c / (se_norm(u) * se_norm(v))).clamp(-1.0, 1.0)
    }

    #[test]
    fn z_normalized_output_has_zero_mean_unit_std() {
        let x = [5.0, 10.0, 6.0, 12.0, 4.0];
        let z = z_normalize(&x);
        assert!(mean(&z).abs() < 1e-12);
        let sd = se_norm(&z) / (z.len() as f64).sqrt();
        assert!((sd - 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_sequences_normalize_to_zero() {
        assert_eq!(z_normalize(&[7.0; 4]), vec![0.0; 4]);
        assert!(z_normalize(&[]).is_empty());
    }

    #[test]
    fn z_distance_is_invariant_under_positive_scale_and_shift() {
        let u = [1.0, 3.0, 2.0, 5.0, 4.0];
        let v: Vec<f64> = u.iter().map(|x| 3.5 * x - 20.0).collect();
        assert!(z_distance(&u, &v).unwrap() < 1e-9);
    }

    #[test]
    fn z_distance_penalises_negative_scalings() {
        // The paper's model happily maps u onto −u (a = −1); z-normalised
        // distance calls them maximally different.
        let u = [1.0, 3.0, 2.0, 5.0, 4.0];
        let neg: Vec<f64> = u.iter().map(|x| -x).collect();
        let paper = min_scale_shift_distance(&u, &neg).unwrap();
        let z = z_distance(&u, &neg).unwrap();
        assert!(paper < 1e-9, "paper model sees a perfect (negative) match");
        assert!(z > 1.0, "z-distance rejects the inversion: {z}");
    }

    #[test]
    fn both_distances_are_monotone_in_the_angle_for_positive_cosine() {
        // Construct targets at controlled angles from a fixed query.
        let n = 64usize;
        let base: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let ortho: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).cos()).collect();
        let mk = |theta: f64| -> Vec<f64> {
            base.iter()
                .zip(&ortho)
                .map(|(b, o)| theta.cos() * b + theta.sin() * o + 5.0)
                .collect()
        };
        let mut prev_paper = -1.0;
        let mut prev_z = -1.0;
        for deg in [5.0, 20.0, 45.0, 70.0, 85.0] {
            let v = mk(deg * std::f64::consts::PI / 180.0);
            let paper = min_scale_shift_distance(&base, &v).unwrap();
            let z = z_distance(&base, &v).unwrap();
            assert!(paper > prev_paper, "paper distance must grow with angle");
            assert!(z > prev_z, "z distance must grow with angle");
            prev_paper = paper;
            prev_z = z;
        }
    }

    #[test]
    fn paper_distance_formula_via_sine() {
        // min distance = ‖T_se(v)‖ · |sin θ|.
        let u = [0.4, -1.0, 2.2, 0.1, -0.7, 1.5];
        let v = [1.0, 2.0, -0.5, 0.3, 0.9, -1.1];
        let cos = se_cosine(&u, &v);
        let sin = (1.0 - cos * cos).sqrt();
        let expect = se_norm(&v) * sin;
        let got = min_scale_shift_distance(&u, &v).unwrap();
        assert!((got - expect).abs() < 1e-9, "{got} vs {expect}");
    }

    #[test]
    fn z_distance_formula_via_cosine() {
        // z-distance = √(2n(1 − cos θ)).
        let u = [0.4, -1.0, 2.2, 0.1, -0.7, 1.5];
        let v = [1.0, 2.0, -0.5, 0.3, 0.9, -1.1];
        let n = u.len() as f64;
        let cos = se_cosine(&u, &v);
        let expect = (2.0 * n * (1.0 - cos)).sqrt();
        let got = z_distance(&u, &v).unwrap();
        assert!((got - expect).abs() < 1e-9, "{got} vs {expect}");
    }

    #[test]
    fn mismatched_lengths_error() {
        assert!(z_distance(&[1.0], &[1.0, 2.0]).is_err());
    }
}

#[cfg(test)]
mod engine_tests {
    use super::*;
    use crate::config::{EngineConfig, SearchOptions};
    use crate::engine::SearchEngine;
    use crate::error::EngineError;
    use crate::pipeline::Query;
    use crate::result::SearchResult;
    use tsss_data::{MarketConfig, MarketSimulator, Series};

    fn znorm(e: &SearchEngine, q: &[f64], z_eps: f64) -> Result<SearchResult, EngineError> {
        e.execute(q, Query::ZNormalized { z_eps }, SearchOptions::default())
    }

    fn engine() -> (SearchEngine, Vec<Series>) {
        let data = MarketSimulator::new(MarketConfig::small(8, 80, 77)).generate();
        (
            SearchEngine::build(&data, EngineConfig::small(16)).unwrap(),
            data,
        )
    }

    #[test]
    fn znorm_search_matches_brute_force_exactly() {
        let (e, data) = engine();
        let q = data[3].window(25, 16).unwrap().to_vec();
        for z_eps in [0.1, 1.0, 3.0] {
            let got = znorm(&e, &q, z_eps).unwrap();
            let mut want = std::collections::BTreeSet::new();
            for (si, s) in data.iter().enumerate() {
                for off in 0..=s.len() - 16 {
                    if z_distance(&q, s.window(off, 16).unwrap()).unwrap() <= z_eps {
                        want.insert(crate::id::SubseqId {
                            series: si as u32,
                            offset: off as u32,
                        });
                    }
                }
            }
            assert_eq!(got.id_set(), want, "z_eps {z_eps}");
        }
    }

    #[test]
    fn znorm_search_is_scale_and_shift_invariant() {
        let (e, data) = engine();
        let base = data[1].window(10, 16).unwrap().to_vec();
        let disguised: Vec<f64> = base.iter().map(|v| v * 7.0 - 100.0).collect();
        let a = znorm(&e, &base, 1.0).unwrap().id_set();
        let b = znorm(&e, &disguised, 1.0).unwrap().id_set();
        assert_eq!(a, b, "z-search must not care about the query's scale/shift");
        assert!(a.contains(&crate::id::SubseqId {
            series: 1,
            offset: 10
        }));
    }

    #[test]
    fn znorm_rejects_inversions() {
        let mut data = MarketSimulator::new(MarketConfig::small(3, 60, 5)).generate();
        // Add the exact mirror of a window of series 0 as its own series.
        let mirrored: Vec<f64> = data[0].values.iter().map(|v| 200.0 - v).collect();
        data.push(Series::new("mirror", mirrored));
        let e = SearchEngine::build(&data, EngineConfig::small(16)).unwrap();
        let q = data[0].window(20, 16).unwrap().to_vec();
        // The scale-shift model embraces the mirror (a < 0)…
        let ss = e.search(&q, 1e-6, SearchOptions::default()).unwrap();
        assert!(ss
            .matches
            .iter()
            .any(|m| m.id.series == 3 && m.id.offset == 20 && m.transform.a < 0.0));
        // …the z-normalised model rejects it.
        let z = znorm(&e, &q, 0.5).unwrap();
        assert!(z
            .matches
            .iter()
            .all(|m| !(m.id.series == 3 && m.id.offset == 20)));
        // And every reported z-match has a positive scaling.
        assert!(z.matches.iter().all(|m| m.transform.a > 0.0));
    }

    #[test]
    fn znorm_validation_mirrors_plain_search() {
        let (e, _) = engine();
        assert!(matches!(
            znorm(&e, &[0.0; 4], 1.0),
            Err(EngineError::QueryLength { .. })
        ));
        assert!(matches!(
            znorm(&e, &[0.0; 16], -1.0),
            Err(EngineError::InvalidEpsilon(_))
        ));
    }

    #[test]
    fn huge_z_eps_degenerates_to_everything() {
        let (e, _) = engine();
        let q: Vec<f64> = (0..16).map(|i| (i as f64).sin()).collect();
        // z-distance is bounded by 2√n; beyond that every window matches.
        let everything = znorm(&e, &q, 1000.0).unwrap();
        assert_eq!(everything.matches.len(), e.num_windows());
    }
}
