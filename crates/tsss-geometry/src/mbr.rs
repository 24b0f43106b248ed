//! Minimum bounding hyper-rectangles (MBRs) and their ε-enlargement
//! (paper §6.1).
//!
//! An MBR is defined by the two endpoints `L` and `H` of its major diagonal
//! with `lᵢ ≤ hᵢ`. The R-tree/R*-tree node entries carry MBRs; the search
//! algorithm prunes a subtree when the query's SE-line does not penetrate the
//! node's **ε-MBR** — the box grown by ε on every side (Theorem 3). The
//! search never builds that box: it reads each child's `low`/`high` off the
//! node page and hands the slices, with ε, to [`crate::penetration`] (or,
//! for the radius probe, to [`min_dist_sq`]).
//!
//! Beyond the paper's definitions, this module provides the standard R*-tree
//! goodness metrics (volume, margin, overlap, centre distance) needed by the
//! Beckmann et al. insertion/split algorithms in `tsss-index`.

// analyze::allow-file(index): every loop runs over `0..self.dim()` (or the dim of a just-validated peer), and the `low`/`high` boxes are built with equal lengths by the checked constructors; a mismatch is rejected as `DimensionMismatch` before any indexing.

use crate::DimensionMismatch;

/// A minimum bounding hyper-rectangle `[low, high]` in ℝⁿ.
#[derive(Debug, Clone, PartialEq)]
pub struct Mbr {
    low: Box<[f64]>,
    high: Box<[f64]>,
}

impl Mbr {
    /// Creates an MBR from its diagonal endpoints.
    ///
    /// # Errors
    /// [`DimensionMismatch`] when the endpoints differ in length.
    ///
    /// # Panics
    /// Panics if any `low[i] > high[i]` — a reversed box is a logic error in
    /// the index, never a data condition.
    pub fn new(low: Vec<f64>, high: Vec<f64>) -> Result<Self, DimensionMismatch> {
        if low.len() != high.len() {
            return Err(DimensionMismatch {
                left: low.len(),
                right: high.len(),
            });
        }
        assert!(
            low.iter().zip(&high).all(|(l, h)| l <= h),
            "MBR endpoints must satisfy low <= high component-wise"
        );
        Ok(Self {
            low: low.into_boxed_slice(),
            high: high.into_boxed_slice(),
        })
    }

    /// The degenerate MBR covering exactly one point.
    pub fn point(p: &[f64]) -> Self {
        Self {
            low: p.to_vec().into_boxed_slice(),
            high: p.to_vec().into_boxed_slice(),
        }
    }

    /// The smallest MBR covering every point in `points`.
    ///
    /// Returns `None` for an empty iterator.
    pub fn covering<'a, I: IntoIterator<Item = &'a [f64]>>(points: I) -> Option<Self> {
        let mut it = points.into_iter();
        let first = it.next()?;
        let mut mbr = Self::point(first);
        for p in it {
            mbr.extend_point(p);
        }
        Some(mbr)
    }

    /// Ambient dimension.
    pub fn dim(&self) -> usize {
        self.low.len()
    }

    /// Lower diagonal endpoint `L`.
    pub fn low(&self) -> &[f64] {
        &self.low
    }

    /// Upper diagonal endpoint `H`.
    pub fn high(&self) -> &[f64] {
        &self.high
    }

    /// Side length along dimension `i`.
    pub fn extent(&self, i: usize) -> f64 {
        self.high[i] - self.low[i]
    }

    /// True when the box contains the point (paper §6.1: `lᵢ ≤ pᵢ ≤ hᵢ`).
    pub fn contains_point(&self, p: &[f64]) -> bool {
        debug_assert_eq!(p.len(), self.dim());
        self.low
            .iter()
            .zip(self.high.iter())
            .zip(p)
            .all(|((l, h), x)| *l <= *x && *x <= *h)
    }

    /// True when this box contains `other` (paper §6.1: `lᵢ ≤ l'ᵢ ∧ h'ᵢ ≤ hᵢ`).
    pub fn contains_mbr(&self, other: &Mbr) -> bool {
        debug_assert_eq!(other.dim(), self.dim());
        self.low.iter().zip(other.low.iter()).all(|(l, ol)| l <= ol)
            && self
                .high
                .iter()
                .zip(other.high.iter())
                .all(|(h, oh)| oh <= h)
    }

    /// Grows this box (in place) to cover the point `p`.
    pub fn extend_point(&mut self, p: &[f64]) {
        debug_assert_eq!(p.len(), self.dim());
        for (i, &x) in p.iter().enumerate() {
            if x < self.low[i] {
                self.low[i] = x;
            }
            if x > self.high[i] {
                self.high[i] = x;
            }
        }
    }

    /// Grows this box (in place) to cover `other`.
    pub fn extend_mbr(&mut self, other: &Mbr) {
        debug_assert_eq!(other.dim(), self.dim());
        for i in 0..self.low.len() {
            if other.low[i] < self.low[i] {
                self.low[i] = other.low[i];
            }
            if other.high[i] > self.high[i] {
                self.high[i] = other.high[i];
            }
        }
    }

    /// The smallest box covering both operands.
    pub fn union(&self, other: &Mbr) -> Mbr {
        let mut out = self.clone();
        out.extend_mbr(other);
        out
    }

    /// Hyper-volume `Π (hᵢ − lᵢ)`. The "area" criterion of R-tree insertion.
    pub fn volume(&self) -> f64 {
        self.low
            .iter()
            .zip(self.high.iter())
            .map(|(l, h)| h - l)
            .product()
    }

    /// Margin `Σ (hᵢ − lᵢ)` — the perimeter-like criterion the R*-tree split
    /// uses to pick its axis (Beckmann et al. §4.1).
    pub fn margin(&self) -> f64 {
        self.low
            .iter()
            .zip(self.high.iter())
            .map(|(l, h)| h - l)
            .sum()
    }

    /// Volume of the intersection with `other` (0 when disjoint) — the
    /// "overlap" criterion of the R*-tree.
    pub fn overlap(&self, other: &Mbr) -> f64 {
        debug_assert_eq!(other.dim(), self.dim());
        let mut v = 1.0;
        for i in 0..self.low.len() {
            let lo = self.low[i].max(other.low[i]);
            let hi = self.high[i].min(other.high[i]);
            if hi <= lo {
                return 0.0;
            }
            v *= hi - lo;
        }
        v
    }

    /// How much this box's volume would grow to also cover `other`.
    pub fn enlargement_for(&self, other: &Mbr) -> f64 {
        self.union(other).volume() - self.volume()
    }

    /// Centre point of the box.
    pub fn center(&self) -> Vec<f64> {
        self.low
            .iter()
            .zip(self.high.iter())
            .map(|(l, h)| 0.5 * (l + h))
            .collect()
    }

    /// Length of the major diagonal `‖H − L‖`.
    ///
    /// The paper's §7 discussion of why the bounding-sphere heuristic fails
    /// rests on R*-tree boxes having *long diagonals but small volume* (the
    /// SR-tree observation \[26\]); [`crate::sphere`] exposes both spheres so
    /// the ablation bench can measure exactly that.
    pub fn diagonal(&self) -> f64 {
        self.low
            .iter()
            .zip(self.high.iter())
            .map(|(l, h)| (h - l) * (h - l))
            .sum::<f64>()
            .sqrt()
    }
}

/// Squared Euclidean distance from `p` to the nearest point of the box
/// `[low, high]` (0 when inside), with the box read from coordinate slices
/// as a node page stores them — the radius probe's pruning test.
pub fn min_dist_sq(low: &[f64], high: &[f64], p: &[f64]) -> f64 {
    debug_assert!(low.len() == p.len() && high.len() == p.len());
    let mut d = 0.0;
    for ((&l, &h), &x) in low.iter().zip(high).zip(p) {
        let e = if x < l {
            l - x
        } else if x > h {
            x - h
        } else {
            0.0
        };
        d += e * e;
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_box() -> Mbr {
        Mbr::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap()
    }

    #[test]
    fn new_rejects_mismatched_dims() {
        assert!(Mbr::new(vec![0.0], vec![0.0, 1.0]).is_err());
    }

    #[test]
    #[should_panic(expected = "low <= high")]
    fn new_panics_on_reversed_box() {
        let _ = Mbr::new(vec![1.0], vec![0.0]);
    }

    #[test]
    fn point_box_has_zero_volume_and_contains_itself() {
        let m = Mbr::point(&[2.0, 3.0]);
        assert_eq!(m.volume(), 0.0);
        assert!(m.contains_point(&[2.0, 3.0]));
        assert!(!m.contains_point(&[2.0, 3.1]));
    }

    #[test]
    fn covering_spans_all_points() {
        let pts: Vec<Vec<f64>> = vec![vec![0.0, 5.0], vec![2.0, 1.0], vec![-1.0, 3.0]];
        let m = Mbr::covering(pts.iter().map(|p| p.as_slice())).unwrap();
        assert_eq!(m.low(), &[-1.0, 1.0]);
        assert_eq!(m.high(), &[2.0, 5.0]);
        for p in &pts {
            assert!(m.contains_point(p));
        }
        assert!(Mbr::covering(std::iter::empty()).is_none());
    }

    #[test]
    fn containment_boundaries_are_inclusive() {
        let m = unit_box();
        assert!(m.contains_point(&[0.0, 1.0]));
        assert!(m.contains_point(&[1.0, 0.0]));
        assert!(!m.contains_point(&[1.0 + 1e-12, 0.5]));
    }

    #[test]
    fn contains_mbr_per_paper_definition() {
        let outer = Mbr::new(vec![0.0, 0.0], vec![10.0, 10.0]).unwrap();
        let inner = Mbr::new(vec![1.0, 1.0], vec![9.0, 9.0]).unwrap();
        assert!(outer.contains_mbr(&inner));
        assert!(!inner.contains_mbr(&outer));
        assert!(outer.contains_mbr(&outer));
    }

    #[test]
    fn extend_point_grows_minimally() {
        let mut m = unit_box();
        m.extend_point(&[2.0, 0.5]);
        assert_eq!(m.high(), &[2.0, 1.0]);
        assert_eq!(m.low(), &[0.0, 0.0]);
    }

    #[test]
    fn union_covers_both() {
        let a = unit_box();
        let b = Mbr::new(vec![3.0, -1.0], vec![4.0, 0.5]).unwrap();
        let u = a.union(&b);
        assert!(u.contains_mbr(&a) && u.contains_mbr(&b));
        assert_eq!(u.low(), &[0.0, -1.0]);
        assert_eq!(u.high(), &[4.0, 1.0]);
    }

    #[test]
    fn volume_margin_diagonal_hand_case() {
        let m = Mbr::new(vec![0.0, 0.0, 0.0], vec![2.0, 3.0, 4.0]).unwrap();
        assert_eq!(m.volume(), 24.0);
        assert_eq!(m.margin(), 9.0);
        assert!((m.diagonal() - 29f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn overlap_of_half_overlapping_boxes() {
        let a = unit_box();
        let b = Mbr::new(vec![0.5, 0.0], vec![1.5, 1.0]).unwrap();
        assert!((a.overlap(&b) - 0.5).abs() < 1e-12);
        let c = Mbr::new(vec![2.0, 2.0], vec![3.0, 3.0]).unwrap();
        assert_eq!(a.overlap(&c), 0.0);
    }

    #[test]
    fn enlargement_for_is_growth_in_volume() {
        let a = unit_box();
        let b = Mbr::new(vec![1.0, 0.0], vec![2.0, 1.0]).unwrap();
        // Union is [0,2]x[0,1] with volume 2; growth = 1.
        assert!((a.enlargement_for(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn center_is_midpoint() {
        assert_eq!(unit_box().center(), vec![0.5, 0.5]);
    }

    #[test]
    fn min_dist_sq_inside_is_zero_outside_positive() {
        let m = unit_box();
        assert_eq!(min_dist_sq(m.low(), m.high(), &[0.5, 0.5]), 0.0);
        assert!((min_dist_sq(m.low(), m.high(), &[2.0, 0.5]) - 1.0).abs() < 1e-12);
        assert!((min_dist_sq(m.low(), m.high(), &[2.0, 2.0]) - 2.0).abs() < 1e-12);
    }
}
