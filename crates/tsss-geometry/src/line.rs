//! Lines in ℝⁿ and the shortest-distance functions `PLD` and `LLD` of
//! paper §4.
//!
//! A line is the point set `{ p₀ + t·d : t ∈ ℝ }` (paper §4, property 5). Two
//! kinds of lines drive the whole search algorithm:
//!
//! * the **scaling line** of a query `u`: `{ t·u }`, through the origin, and
//! * the **shifting line** of a data subsequence `v`: `{ v + t·N }`, along
//!   the shifting vector `N = (1, …, 1)`.
//!
//! [`pld`] implements Lemma 1 and [`lld`] implements Lemma 2. Note that the
//! paper's printed Lemma 2 has `‖d₂‖²` in the denominator of the Gram–Schmidt
//! term — this is a typo for `‖d₂⊥‖²` (with the printed form the claimed
//! shortest distance is not even attained by any pair of points on the lines
//! unless `d₂⊥` happens to be unit length). We implement the corrected
//! formula and validate it against direct numeric minimisation in the
//! property tests.

// analyze::allow-file(index): the kernels index only within `0..n` where `n` is the common dimension `debug_assert`ed (and checked by the public entry points) to match every operand vector.

use crate::vector::{dot, norm_sq, sub};
use crate::DimensionMismatch;

/// Tolerance under which a squared norm is considered zero by the line–line
/// functions and [`Line::project_param`], i.e. a direction vector
/// degenerates and the "line" is really a point. [`pld_sq`] does not use it:
/// see there.
pub(crate) const DEGENERATE_SQ: f64 = 1e-300;

/// A line `{ p + t·d : t ∈ ℝ }` in ℝⁿ.
///
/// Degenerate directions (`‖d‖ ≈ 0`) are permitted: such a "line" is the
/// single point `p`, and the distance functions fall back to point distances.
/// This matters in practice because the scaling line of an all-zero query
/// collapses to the origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Line {
    /// A position vector of one point on the line (`p₀` in the paper).
    pub point: Vec<f64>,
    /// A vector parallel to the line (`d` in the paper).
    pub dir: Vec<f64>,
}

impl Line {
    /// Creates a line from a point on it and a direction.
    ///
    /// # Errors
    /// Returns [`DimensionMismatch`] when `point` and `dir` differ in length.
    pub fn new(point: Vec<f64>, dir: Vec<f64>) -> Result<Self, DimensionMismatch> {
        if point.len() != dir.len() {
            return Err(DimensionMismatch {
                left: point.len(),
                right: dir.len(),
            });
        }
        Ok(Self { point, dir })
    }

    /// The **scaling line** `Line_sa(u) = { t·u }` of paper §5: the locus of
    /// all scalings of `u`. Passes through the origin.
    pub fn scaling(u: &[f64]) -> Self {
        Self {
            point: vec![0.0; u.len()],
            dir: u.to_vec(),
        }
    }

    /// The **shifting line** `Line_sh(v) = { v + t·N }` of paper §5: the
    /// locus of all vertical shifts of `v`, where `N = (1, …, 1)`.
    pub fn shifting(v: &[f64]) -> Self {
        Self {
            point: v.to_vec(),
            dir: vec![1.0; v.len()],
        }
    }

    /// Ambient dimension `n`.
    pub fn dim(&self) -> usize {
        self.point.len()
    }

    /// The point `L(t) = p + t·d`.
    pub fn at(&self, t: f64) -> Vec<f64> {
        self.point
            .iter()
            .zip(&self.dir)
            .map(|(p, d)| p + t * d)
            .collect()
    }

    /// The parameter `t*` minimising `‖q − L(t)‖`, i.e. the foot of the
    /// perpendicular from `q`; `0.0` for a degenerate line.
    pub fn project_param(&self, q: &[f64]) -> f64 {
        debug_assert_eq!(q.len(), self.dim());
        let dd = norm_sq(&self.dir);
        if dd <= DEGENERATE_SQ {
            return 0.0;
        }
        let mut qp = vec![0.0; q.len()];
        sub(q, &self.point, &mut qp);
        dot(&qp, &self.dir) / dd
    }
}

/// `PLD(q, L)` — the shortest `D₂` distance between point `q` and line `L`
/// (paper §4, Lemma 1):
///
/// ```text
/// PLD(q, L) = ‖ (q − p) − ((q − p)·d / ‖d‖²) · d ‖
/// ```
///
/// For a zero direction this is simply `‖q − p‖`.
///
/// # Panics
/// Debug-asserts that `q` and `l` share a dimension; the public engine
/// validates dimensions at its boundary.
pub fn pld(q: &[f64], l: &Line) -> f64 {
    pld_sq(q, l).sqrt()
}

/// Squared version of [`pld`], avoiding the final square root for callers
/// that compare against `ε²`. Allocates nothing.
///
/// The line counts as the single point `p` only when `‖d‖²` is exactly
/// zero. The projection `(q − p)·d / ‖d‖²` is invariant under scaling `d`,
/// so any non-zero `‖d‖²`, however small, gives the true distance; a
/// tolerance here would turn every query whose features are small (but
/// not constant, which the planner tests scale-invariantly) into the
/// distance to the origin.
pub fn pld_sq(q: &[f64], l: &Line) -> f64 {
    pld_sq_with_norm(q, l, norm_sq(&l.dir))
}

/// [`pld_sq`] with `‖d‖²` supplied by the caller, for a walk that tests
/// many points against one line and computes `norm_sq(&l.dir)` once.
/// Bit-identical to `pld_sq(q, l)` when `dir_norm_sq` is that value.
pub fn pld_sq_with_norm(q: &[f64], l: &Line, dir_norm_sq: f64) -> f64 {
    debug_assert_eq!(q.len(), l.dim());
    pld_sq_of(q.iter().copied(), l, dir_norm_sq)
}

/// The PLD kernel over any re-iterable coordinate source: a slice, or a
/// sphere centre computed coordinate by coordinate. Sums run in index
/// order, so every source gives the same bits for the same coordinates.
pub(crate) fn pld_sq_of(q: impl Iterator<Item = f64> + Clone, l: &Line, dir_norm_sq: f64) -> f64 {
    let residual = q.zip(&l.point).map(|(q, p)| q - p);
    // analyze::allow(float-eq): exact-zero test — only a literally-zero direction makes the projection divide by zero; see `pld_sq` for why no tolerance.
    if dir_norm_sq == 0.0 {
        return residual.map(|r| r * r).sum();
    }
    let t = residual
        .clone()
        .zip(&l.dir)
        .map(|(r, d)| r * d)
        .sum::<f64>()
        / dir_norm_sq;
    residual
        .zip(&l.dir)
        .map(|(r, d)| {
            let e = r - t * d;
            e * e
        })
        .sum()
}

/// `LLD(L₁, L₂)` — the shortest `D₂` distance between two lines in ℝⁿ
/// (paper §4, Lemma 2, with the Gram–Schmidt denominator corrected to
/// `‖d₂⊥‖²`; see the module docs).
///
/// When `d₁ ∥ d₂` (including either being degenerate) the distance reduces to
/// a point-to-line distance, exactly as the paper's case split states.
///
/// ```
/// use tsss_geometry::line::{lld, Line};
/// // Figure 1's A and C are scale-shift equivalent, so their scaling and
/// // shifting lines meet (Theorem 1).
/// let a = [5.0, 10.0, 6.0, 12.0, 4.0];
/// let c = [25.0, 30.0, 26.0, 32.0, 24.0];
/// let d = lld(&Line::scaling(&a), &Line::shifting(&c));
/// assert!(d < 1e-9);
/// ```
pub fn lld(l1: &Line, l2: &Line) -> f64 {
    lld_sq(l1, l2).sqrt()
}

/// Squared version of [`lld`].
pub fn lld_sq(l1: &Line, l2: &Line) -> f64 {
    debug_assert_eq!(l1.dim(), l2.dim());
    let n = l1.dim();
    let d1d1 = norm_sq(&l1.dir);
    let d2d2 = norm_sq(&l2.dir);
    if d1d1 <= DEGENERATE_SQ {
        // L1 is the point p1.
        return pld_sq(&l1.point, l2);
    }
    if d2d2 <= DEGENERATE_SQ {
        return pld_sq(&l2.point, l1);
    }

    // d2 perpendicular to d1 (Gram–Schmidt).
    let c = dot(&l2.dir, &l1.dir) / d1d1;
    let d2p: Vec<f64> = (0..n).map(|i| l2.dir[i] - c * l1.dir[i]).collect();
    let d2p_sq = norm_sq(&d2p);

    let mut r = vec![0.0; n]; // p1 - p2
    sub(&l1.point, &l2.point, &mut r);

    // Parallel lines: the perpendicular component of d2 vanishes. Use a
    // *relative* tolerance — two nearly-parallel scaling lines of large
    // vectors must not be misclassified just because of absolute magnitude.
    if d2p_sq <= 1e-24 * d2d2 {
        return pld_sq(&l1.point, l2);
    }

    let a1 = dot(&r, &l1.dir) / d1d1;
    let a2 = dot(&r, &d2p) / d2p_sq;
    (0..n)
        .map(|i| {
            let e = r[i] - a1 * l1.dir[i] - a2 * d2p[i];
            e * e
        })
        .sum()
}

/// The pair of parameters `(t₁, t₂)` achieving `LLD`, i.e. the closest points
/// are `L₁(t₁)` and `L₂(t₂)`.
///
/// For parallel or degenerate configurations the minimiser is not unique; a
/// canonical representative is returned (foot-of-perpendicular projections,
/// with `0` for degenerate directions). Used to recover the scaling factor
/// and shifting offset from the geometric picture (paper Figure 2).
pub fn lld_argmin(l1: &Line, l2: &Line) -> (f64, f64) {
    debug_assert_eq!(l1.dim(), l2.dim());
    let d1d1 = norm_sq(&l1.dir);
    let d2d2 = norm_sq(&l2.dir);
    if d1d1 <= DEGENERATE_SQ {
        return (0.0, l2.project_param(&l1.point));
    }
    if d2d2 <= DEGENERATE_SQ {
        return (l1.project_param(&l2.point), 0.0);
    }
    let d1d2 = dot(&l1.dir, &l2.dir);
    let denom = d1d1 * d2d2 - d1d2 * d1d2; // Gram determinant ≥ 0
    let mut r = vec![0.0; l1.dim()]; // p2 - p1
    sub(&l2.point, &l1.point, &mut r);
    let rd1 = dot(&r, &l1.dir);
    let rd2 = dot(&r, &l2.dir);
    if denom <= 1e-24 * d1d1 * d2d2 {
        // Parallel: fix t2 = 0, project p2 onto L1.
        return (rd1 / d1d1, 0.0);
    }
    // Solve the 2x2 normal equations of min ‖p1 + t1 d1 − p2 − t2 d2‖².
    let t1 = (rd1 * d2d2 - rd2 * d1d2) / denom;
    let t2 = (rd1 * d1d2 - rd2 * d1d1) / denom;
    (t1, t2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::{dist, norm};

    fn brute_force_lld(l1: &Line, l2: &Line) -> f64 {
        // Coarse-to-fine grid search over (t1, t2).
        let mut best = f64::INFINITY;
        let (mut c1, mut c2, mut span) = (0.0f64, 0.0f64, 64.0f64);
        for _ in 0..40 {
            let mut best_t = (c1, c2);
            for i in -20..=20 {
                for j in -20..=20 {
                    let t1 = c1 + span * i as f64 / 20.0;
                    let t2 = c2 + span * j as f64 / 20.0;
                    let d = dist(&l1.at(t1), &l2.at(t2));
                    if d < best {
                        best = d;
                        best_t = (t1, t2);
                    }
                }
            }
            c1 = best_t.0;
            c2 = best_t.1;
            span *= 0.25;
        }
        best
    }

    #[test]
    fn new_rejects_mismatched_dims() {
        let err = Line::new(vec![0.0, 0.0], vec![1.0]).unwrap_err();
        assert_eq!(err, DimensionMismatch { left: 2, right: 1 });
    }

    #[test]
    fn at_parameterises_the_line() {
        let l = Line::new(vec![1.0, 2.0], vec![3.0, -1.0]).unwrap();
        assert_eq!(l.at(0.0), vec![1.0, 2.0]);
        assert_eq!(l.at(2.0), vec![7.0, 0.0]);
    }

    #[test]
    fn scaling_line_passes_through_origin_and_u() {
        let u = [5.0, 10.0, 6.0];
        let l = Line::scaling(&u);
        assert_eq!(l.at(0.0), vec![0.0; 3]);
        assert_eq!(l.at(1.0), u.to_vec());
    }

    #[test]
    fn shifting_line_moves_along_n() {
        let v = [1.0, 2.0, 3.0];
        let l = Line::shifting(&v);
        assert_eq!(l.at(5.0), vec![6.0, 7.0, 8.0]);
    }

    #[test]
    fn pld_point_on_line_is_zero() {
        let l = Line::new(vec![0.0, 0.0, 0.0], vec![1.0, 1.0, 1.0]).unwrap();
        assert!(pld(&[3.0, 3.0, 3.0], &l) < 1e-12);
    }

    #[test]
    fn pld_axis_aligned_hand_case() {
        // Distance from (0, 5) to the x-axis is 5.
        let l = Line::new(vec![0.0, 0.0], vec![1.0, 0.0]).unwrap();
        assert!((pld(&[7.0, 5.0], &l) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn pld_degenerate_line_is_point_distance() {
        let l = Line::new(vec![1.0, 1.0], vec![0.0, 0.0]).unwrap();
        assert!((pld(&[4.0, 5.0], &l) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn project_param_is_the_foot() {
        let l = Line::new(vec![0.0, 0.0], vec![2.0, 0.0]).unwrap();
        let t = l.project_param(&[6.0, 3.0]);
        assert!((t - 3.0).abs() < 1e-12);
        // Residual orthogonal to dir.
        let foot = l.at(t);
        assert!((foot[0] - 6.0).abs() < 1e-12 && foot[1].abs() < 1e-12);
    }

    #[test]
    fn lld_skew_lines_3d_hand_case() {
        // Classic skew pair: x-axis and the line {(0,1,t)}; distance 1.
        let l1 = Line::new(vec![0.0, 0.0, 0.0], vec![1.0, 0.0, 0.0]).unwrap();
        let l2 = Line::new(vec![0.0, 1.0, 0.0], vec![0.0, 0.0, 1.0]).unwrap();
        assert!((lld(&l1, &l2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lld_parallel_lines() {
        let l1 = Line::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap();
        let l2 = Line::new(vec![0.0, 2.0], vec![-2.0, -2.0]).unwrap();
        // Parallel lines offset by 2 along y: distance 2/√2 = √2.
        assert!((lld(&l1, &l2) - 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn lld_intersecting_lines_is_zero() {
        let l1 = Line::new(vec![0.0, 0.0, 0.0], vec![1.0, 0.0, 0.0]).unwrap();
        let l2 = Line::new(vec![2.0, 0.0, 0.0], vec![0.0, 1.0, 1.0]).unwrap();
        assert!(lld(&l1, &l2) < 1e-12);
    }

    #[test]
    fn lld_degenerate_first_line() {
        let p = Line::new(vec![0.0, 3.0], vec![0.0, 0.0]).unwrap();
        let l = Line::new(vec![0.0, 0.0], vec![1.0, 0.0]).unwrap();
        assert!((lld(&p, &l) - 3.0).abs() < 1e-12);
        assert!((lld(&l, &p) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn lld_matches_brute_force_on_fixed_cases() {
        let cases = vec![
            (
                Line::new(vec![1.0, 2.0, 3.0], vec![0.5, -1.0, 2.0]).unwrap(),
                Line::new(vec![-1.0, 0.0, 4.0], vec![1.0, 1.0, 1.0]).unwrap(),
            ),
            (
                Line::scaling(&[5.0, 10.0, 6.0, 12.0, 4.0]),
                Line::shifting(&[25.0, 30.0, 26.0, 32.0, 24.0]),
            ),
            (Line::scaling(&[1.0, 2.0]), Line::shifting(&[-3.0, 7.0])),
        ];
        for (l1, l2) in cases {
            let exact = lld(&l1, &l2);
            let approx = brute_force_lld(&l1, &l2);
            assert!(
                (exact - approx).abs() < 1e-4,
                "lld {exact} vs brute {approx}"
            );
        }
    }

    #[test]
    fn lld_argmin_achieves_the_distance() {
        let l1 = Line::new(vec![1.0, 2.0, 3.0], vec![0.5, -1.0, 2.0]).unwrap();
        let l2 = Line::new(vec![-1.0, 0.0, 4.0], vec![1.0, 1.0, 1.0]).unwrap();
        let (t1, t2) = lld_argmin(&l1, &l2);
        let achieved = dist(&l1.at(t1), &l2.at(t2));
        assert!((achieved - lld(&l1, &l2)).abs() < 1e-9);
    }

    #[test]
    fn lld_argmin_parallel_is_consistent() {
        let l1 = Line::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap();
        let l2 = Line::new(vec![0.0, 2.0], vec![3.0, 3.0]).unwrap();
        let (t1, t2) = lld_argmin(&l1, &l2);
        let achieved = dist(&l1.at(t1), &l2.at(t2));
        assert!((achieved - lld(&l1, &l2)).abs() < 1e-9);
    }

    #[test]
    fn paper_figure1_sequences_have_zero_min_distance() {
        // A, B, C of Figure 1 are pairwise scale-shift equivalent, so the
        // scaling/shifting line pairs must meet (LLD = 0).
        let a = [5.0, 10.0, 6.0, 12.0, 4.0];
        let b = [10.0, 20.0, 12.0, 24.0, 8.0];
        let c = [25.0, 30.0, 26.0, 32.0, 24.0];
        for (u, v) in [(&a, &b), (&a, &c), (&b, &c), (&b, &a), (&c, &a)] {
            let d = lld(&Line::scaling(&u[..]), &Line::shifting(&v[..]));
            assert!(d < 1e-10, "expected similar pair, lld = {d}");
        }
    }

    #[test]
    fn scaling_line_of_constant_sequence_is_parallel_to_shifting_lines() {
        // u = c·N makes Line_sa(u) parallel to every shifting line; the code
        // must take the parallel branch and still match brute force.
        let u = [2.0, 2.0, 2.0, 2.0];
        let v = [1.0, 4.0, 2.0, 3.0];
        let l1 = Line::scaling(&u);
        let l2 = Line::shifting(&v);
        let exact = lld(&l1, &l2);
        let approx = brute_force_lld(&l1, &l2);
        assert!((exact - approx).abs() < 1e-4);
        // Distance must equal the norm of mean-centred v.
        let m = crate::vector::mean(&v);
        let centred: Vec<f64> = v.iter().map(|x| x - m).collect();
        assert!((exact - norm(&centred)).abs() < 1e-9);
    }
}
