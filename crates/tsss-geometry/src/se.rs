//! The Shift-Eliminated Transformation (SE-Transformation) of paper §5.1.
//!
//! Definition 2 of the paper:
//!
//! ```text
//! T_se(p) = p − ((p · N) / ‖N‖²) · N
//! ```
//!
//! Since `N = (1, …, 1)`, `(p·N)/‖N‖²` is just the arithmetic mean of `p`, so
//! the SE-transformation is **mean removal** — the projection of `p` onto the
//! SE-Plane, the (n−1)-dimensional hyperplane through the origin orthogonal
//! to `N`. (This is the ancestor of today's z-normalisation: z-normalisation
//! is the SE-transformation followed by division by the norm, which
//! additionally quotients out the scaling line.)
//!
//! Key properties (paper §5.1, validated by the property tests):
//!
//! 1. `T_se` is linear;
//! 2. every shifting line collapses to the single point `T_se(v)`;
//! 3. every scaling line maps to the **SE-line** `{ t·T_se(u) }` lying in the
//!    SE-Plane;
//! 4. the image is orthogonal to `N` (the SE-Plane has dimension n−1).

use crate::line::Line;
use crate::vector::{mean, norm_sq};

/// Applies the SE-transformation, returning `p − mean(p)·N` as a new vector.
///
/// ```
/// use tsss_geometry::se::se_transform;
/// // Shifted copies collapse to the same SE point (paper §5.1, property 2).
/// let v = [2.0, 8.0, 5.0];
/// let shifted = [102.0, 108.0, 105.0];
/// assert_eq!(se_transform(&v), se_transform(&shifted));
/// ```
pub fn se_transform(p: &[f64]) -> Vec<f64> {
    let m = mean(p);
    p.iter().map(|x| x - m).collect()
}

/// Applies the SE-transformation in place.
pub fn se_transform_in_place(p: &mut [f64]) {
    let m = mean(p);
    for x in p {
        *x -= m;
    }
}

/// Writes the SE-transformation of `p` into `out` (no allocation).
///
/// # Panics
/// Debug-asserts `p.len() == out.len()`.
pub fn se_transform_into(p: &[f64], out: &mut [f64]) {
    debug_assert_eq!(p.len(), out.len());
    let m = mean(p);
    for (o, x) in out.iter_mut().zip(p) {
        *o = x - m;
    }
}

/// The norm of the SE-transformation of `p` — the sequence's "fluctuation
/// energy" once the level is removed — computed without allocating.
///
/// `se_norm(p)² = ‖p‖² − n·mean(p)²`.
pub fn se_norm(p: &[f64]) -> f64 {
    let n = p.len() as f64;
    let m = mean(p);
    (norm_sq(p) - n * m * m).max(0.0).sqrt()
}

/// The **SE-line** of `u`: the image `{ t·T_se(u) }` of the scaling line of
/// `u` under the SE-transformation (paper §5.1, property 3).
///
/// This is the line the search algorithm probes against the indexed feature
/// points (Theorem 2).
pub fn se_line(u: &[f64]) -> Line {
    Line {
        point: vec![0.0; u.len()],
        dir: se_transform(u),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::line::{lld, pld};
    use crate::vector::{approx_eq, dot};

    #[test]
    fn se_transform_removes_the_mean() {
        let p = [5.0, 10.0, 6.0, 12.0, 4.0]; // mean 7.4
        let t = se_transform(&p);
        assert!(approx_eq(&t, &[-2.4, 2.6, -1.4, 4.6, -3.4], 1e-12));
        assert!(mean(&t).abs() < 1e-12);
    }

    #[test]
    fn se_transform_is_idempotent() {
        let p = [1.0, -3.0, 2.5, 0.0];
        let once = se_transform(&p);
        let twice = se_transform(&once);
        assert!(approx_eq(&once, &twice, 1e-12));
    }

    #[test]
    fn se_transform_is_linear() {
        let u = [1.0, 2.0, 3.0];
        let v = [-4.0, 0.0, 4.0];
        let sum: Vec<f64> = u.iter().zip(&v).map(|(a, b)| a + b).collect();
        let lhs = se_transform(&sum);
        let rhs: Vec<f64> = se_transform(&u)
            .iter()
            .zip(se_transform(&v))
            .map(|(a, b)| a + b)
            .collect();
        assert!(approx_eq(&lhs, &rhs, 1e-12));

        let scaled: Vec<f64> = u.iter().map(|a| 3.5 * a).collect();
        let lhs = se_transform(&scaled);
        let rhs: Vec<f64> = se_transform(&u).iter().map(|a| 3.5 * a).collect();
        assert!(approx_eq(&lhs, &rhs, 1e-12));
    }

    #[test]
    fn shifting_line_collapses_to_a_point() {
        // Property 2: T_se(v + t·N) = T_se(v) for every t.
        let v = [2.0, 8.0, 5.0, 1.0];
        let base = se_transform(&v);
        for t in [-100.0, -1.0, 0.0, 0.5, 3.0, 1e6] {
            let shifted: Vec<f64> = v.iter().map(|x| x + t).collect();
            assert!(approx_eq(&se_transform(&shifted), &base, 1e-6));
        }
    }

    #[test]
    fn image_is_orthogonal_to_n() {
        // Property 4: T_se(p) · N = 0.
        let p = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0];
        let n = vec![1.0; p.len()];
        assert!(dot(&se_transform(&p), &n).abs() < 1e-12);
    }

    #[test]
    fn se_norm_matches_explicit_norm() {
        let p = [7.0, -2.0, 4.0, 4.0, 11.0];
        let explicit = crate::vector::norm(&se_transform(&p));
        assert!((se_norm(&p) - explicit).abs() < 1e-12);
    }

    #[test]
    fn se_norm_of_constant_is_zero() {
        assert!(se_norm(&[5.0; 8]) < 1e-12);
    }

    #[test]
    fn se_transform_into_and_in_place_agree() {
        let p = [1.0, 2.0, 4.0, 8.0];
        let by_alloc = se_transform(&p);
        let mut buf = [0.0; 4];
        se_transform_into(&p, &mut buf);
        assert!(approx_eq(&buf, &by_alloc, 0.0));
        let mut q = p;
        se_transform_in_place(&mut q);
        assert!(approx_eq(&q, &by_alloc, 0.0));
    }

    #[test]
    fn theorem2_pld_on_se_plane_equals_lld_in_original_space() {
        // PLD(T_se(v), SE-line(u)) == LLD(Line_sa(u), Line_sh(v)).
        let u = [1.0, -2.0, 3.5, 0.0, 7.0];
        let v = [2.0, 2.0, -1.0, 4.0, 0.5];
        let lhs = pld(&se_transform(&v), &se_line(&u));
        let rhs = lld(&Line::scaling(&u), &Line::shifting(&v));
        assert!((lhs - rhs).abs() < 1e-10, "{lhs} vs {rhs}");
    }

    #[test]
    fn se_line_is_degenerate_for_constant_sequences() {
        // A constant sequence's SE-line collapses to the origin: its
        // direction is zero, and every point projects onto parameter 0.
        let flat = se_line(&[3.0; 5]);
        assert_eq!(flat.at(1.0), vec![0.0; 5]);
        assert_eq!(flat.project_param(&[1.0, -2.0, 0.5, 3.0, -1.0]), 0.0);
        assert_ne!(se_line(&[3.0, 4.0, 3.0, 4.0, 3.0]).at(1.0), vec![0.0; 5]);
    }
}
