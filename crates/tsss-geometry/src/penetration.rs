//! Line–MBR penetration testing (paper §6.1 and §7).
//!
//! An MBR is *penetrated* by a line `L(t) = p + t·d` if some `L(t')` is
//! contained in the box. Theorem 3 of the paper turns this into the pruning
//! rule of the whole search: if the query's SE-line does not penetrate a
//! node's ε-MBR, the node cannot hold any qualifying point.
//!
//! [`line_penetrates_mbr`] implements the **Entering/Exiting Points** method
//! the paper borrows from ray tracing — the slab method generalised to
//! hyper-rectangles and to full lines (`t ∈ ℝ`, not just rays): every
//! dimension restricts the feasible parameter range to a slab interval, and
//! the box is penetrated iff the intersection of all the intervals is
//! non-empty.
//!
//! [`PenetrationMethod`] selects between the plain slab test (paper's
//! experiment set 2) and the inner/outer bounding-sphere heuristic wrapped
//! around it (set 3, see [`crate::sphere`]).

// analyze::allow-file(index): loops run over `0..line.dim()` with the line/MBR dimension equality `debug_assert`ed at entry and enforced by the callers via the checked constructors.

use crate::line::Line;
use crate::mbr::Mbr;
use crate::sphere::Sphere;

/// Which penetration-checking strategy the tree search uses. Mirrors the
/// paper's experiment sets 2 and 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PenetrationMethod {
    /// Entering/Exiting Points (slab) test only — experiment **set 2**.
    #[default]
    EnteringExiting,
    /// Inner/outer bounding-sphere pre-tests with a slab-test fallback —
    /// experiment **set 3**. The paper finds this *slower* in practice
    /// because R*-tree boxes have long diagonals and small volumes.
    BoundingSpheres,
}

/// Statistics describing how the sphere heuristic resolved penetration
/// queries. Used by the `ablation_spheres` bench to reproduce the paper's
/// §7 explanation of why set 3 loses to set 2.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SphereStats {
    /// Outer sphere missed ⇒ box proven un-penetrated without a slab test.
    pub outer_reject: u64,
    /// Inner sphere hit ⇒ box proven penetrated without a slab test.
    pub inner_accept: u64,
    /// Between the spheres: the slab test had to run anyway (pure overhead).
    pub fallback: u64,
    /// Of the fallbacks, how many the slab test then accepted.
    pub fallback_hit: u64,
}

impl SphereStats {
    /// Total number of penetration queries recorded.
    pub fn total(&self) -> u64 {
        self.outer_reject + self.inner_accept + self.fallback
    }

    /// Merges another statistics record into this one.
    pub fn merge(&mut self, other: &SphereStats) {
        self.outer_reject += other.outer_reject;
        self.inner_accept += other.inner_accept;
        self.fallback += other.fallback;
        self.fallback_hit += other.fallback_hit;
    }
}

/// The feasible parameter interval `[t_lo, t_hi]` for which `L(t)` lies in
/// `mbr`, or `None` when the line misses the box.
///
/// This is the Entering/Exiting Points computation itself: `t_lo` is the
/// entering parameter and `t_hi` the exiting parameter. Boundary contact
/// counts as penetration (consistent with the closed boxes of paper §6.1).
pub fn line_mbr_interval(line: &Line, mbr: &Mbr) -> Option<(f64, f64)> {
    debug_assert_eq!(line.dim(), mbr.dim());
    let mut t_lo = f64::NEG_INFINITY;
    let mut t_hi = f64::INFINITY;
    for i in 0..line.dim() {
        let p = line.point[i];
        let d = line.dir[i];
        let (lo, hi) = (mbr.low()[i], mbr.high()[i]);
        // analyze::allow(float-eq): exact-zero test — only a direction component that is literally 0.0 makes the slab equations degenerate (division by it would yield ±inf/NaN); tiny non-zero components divide fine.
        if d == 0.0 {
            // The line is constant in this dimension: either always inside
            // the slab or always outside.
            if p < lo || p > hi {
                return None;
            }
            continue;
        }
        let mut t1 = (lo - p) / d;
        let mut t2 = (hi - p) / d;
        if t1 > t2 {
            std::mem::swap(&mut t1, &mut t2);
        }
        if t1 > t_lo {
            t_lo = t1;
        }
        if t2 < t_hi {
            t_hi = t2;
        }
        if t_lo > t_hi {
            return None;
        }
    }
    Some((t_lo, t_hi))
}

/// True when the line penetrates the box (Entering/Exiting Points method).
pub fn line_penetrates_mbr(line: &Line, mbr: &Mbr) -> bool {
    line_mbr_interval(line, mbr).is_some()
}

/// Penetration test with the selected strategy, recording sphere statistics.
///
/// With [`PenetrationMethod::BoundingSpheres`] the decision procedure is the
/// paper's §7 heuristic:
/// 1. if the line misses the **outer** sphere (circumscribing the box), the
///    box is certainly missed;
/// 2. else if it hits the **inner** sphere (inscribed in the box), the box is
///    certainly hit;
/// 3. otherwise fall back to the slab test.
pub fn penetrates(
    line: &Line,
    mbr: &Mbr,
    method: PenetrationMethod,
    stats: &mut SphereStats,
) -> bool {
    match method {
        PenetrationMethod::EnteringExiting => line_penetrates_mbr(line, mbr),
        PenetrationMethod::BoundingSpheres => {
            let outer = Sphere::outer(mbr);
            if !outer.penetrated_by(line) {
                stats.outer_reject += 1;
                return false;
            }
            let inner = Sphere::inner(mbr);
            if inner.penetrated_by(line) {
                stats.inner_accept += 1;
                return true;
            }
            stats.fallback += 1;
            let hit = line_penetrates_mbr(line, mbr);
            if hit {
                stats.fallback_hit += 1;
            }
            hit
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mbr2(low: [f64; 2], high: [f64; 2]) -> Mbr {
        Mbr::new(low.to_vec(), high.to_vec()).unwrap()
    }

    #[test]
    fn diagonal_line_penetrates_unit_box() {
        let l = Line::new(vec![-1.0, -1.0], vec![1.0, 1.0]).unwrap();
        let m = mbr2([0.0, 0.0], [1.0, 1.0]);
        let (t0, t1) = line_mbr_interval(&l, &m).unwrap();
        assert!((t0 - 1.0).abs() < 1e-12);
        assert!((t1 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn line_missing_the_box_is_rejected() {
        // Horizontal line at y = 2 above the unit box.
        let l = Line::new(vec![0.0, 2.0], vec![1.0, 0.0]).unwrap();
        assert!(!line_penetrates_mbr(&l, &mbr2([0.0, 0.0], [1.0, 1.0])));
    }

    #[test]
    fn negative_parameters_count_full_line_not_ray() {
        // Box entirely "behind" the base point: a ray would miss, the line
        // must hit.
        let l = Line::new(vec![10.0, 10.0], vec![1.0, 1.0]).unwrap();
        let m = mbr2([0.0, 0.0], [1.0, 1.0]);
        let (t0, t1) = line_mbr_interval(&l, &m).unwrap();
        assert!(t0 < 0.0 && t1 < 0.0);
    }

    #[test]
    fn zero_direction_component_inside_slab() {
        // Vertical line x = 0.5 crosses the box.
        let l = Line::new(vec![0.5, -5.0], vec![0.0, 1.0]).unwrap();
        assert!(line_penetrates_mbr(&l, &mbr2([0.0, 0.0], [1.0, 1.0])));
        // Vertical line x = 2 misses it.
        let l = Line::new(vec![2.0, -5.0], vec![0.0, 1.0]).unwrap();
        assert!(!line_penetrates_mbr(&l, &mbr2([0.0, 0.0], [1.0, 1.0])));
    }

    #[test]
    fn fully_degenerate_line_is_point_containment() {
        let inside = Line::new(vec![0.5, 0.5], vec![0.0, 0.0]).unwrap();
        let outside = Line::new(vec![2.0, 0.5], vec![0.0, 0.0]).unwrap();
        let m = mbr2([0.0, 0.0], [1.0, 1.0]);
        assert!(line_penetrates_mbr(&inside, &m));
        assert!(!line_penetrates_mbr(&outside, &m));
    }

    #[test]
    fn boundary_tangency_counts_as_penetration() {
        // Line along the box edge y = 1.
        let l = Line::new(vec![0.0, 1.0], vec![1.0, 0.0]).unwrap();
        assert!(line_penetrates_mbr(&l, &mbr2([0.0, 0.0], [1.0, 1.0])));
        // Line touching only the corner (1,1).
        let l = Line::new(vec![0.0, 2.0], vec![1.0, -1.0]).unwrap();
        assert!(line_penetrates_mbr(&l, &mbr2([0.0, 0.0], [1.0, 1.0])));
    }

    #[test]
    fn interval_points_lie_in_the_box() {
        let l = Line::new(vec![-3.0, 0.2, 1.0], vec![2.0, 0.3, -0.5]).unwrap();
        let m = Mbr::new(vec![-1.0, 0.0, -1.0], vec![1.0, 1.0, 1.0]).unwrap();
        if let Some((t0, t1)) = line_mbr_interval(&l, &m) {
            let grown = m.enlarged(1e-9);
            assert!(grown.contains_point(&l.at(t0)));
            assert!(grown.contains_point(&l.at(t1)));
            assert!(grown.contains_point(&l.at(0.5 * (t0 + t1))));
        }
    }

    #[test]
    fn epsilon_enlargement_admits_near_misses() {
        // Line at y = 1.2 misses the unit box but hits its 0.25-MBR.
        let l = Line::new(vec![0.0, 1.2], vec![1.0, 0.0]).unwrap();
        let m = mbr2([0.0, 0.0], [1.0, 1.0]);
        assert!(!line_penetrates_mbr(&l, &m));
        assert!(line_penetrates_mbr(&l, &m.enlarged(0.25)));
    }

    #[test]
    fn sphere_method_agrees_with_slab_method() {
        // The bounding-sphere decision procedure is exact (conservative
        // pre-tests + exact fallback), so outcomes must always agree.
        let boxes = [
            mbr2([0.0, 0.0], [1.0, 1.0]),
            mbr2([-3.0, 2.0], [-1.0, 9.0]),
            mbr2([5.0, 5.0], [5.5, 10.0]),
        ];
        let lines = [
            Line::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap(),
            Line::new(vec![0.0, 3.0], vec![1.0, 0.0]).unwrap(),
            Line::new(vec![-10.0, -10.0], vec![0.3, 1.7]).unwrap(),
            Line::new(vec![5.2, 0.0], vec![0.0, 1.0]).unwrap(),
        ];
        let mut stats = SphereStats::default();
        for m in &boxes {
            for l in &lines {
                let slab = penetrates(l, m, PenetrationMethod::EnteringExiting, &mut stats);
                let sph = penetrates(l, m, PenetrationMethod::BoundingSpheres, &mut stats);
                assert_eq!(slab, sph, "disagreement on {m:?} vs {l:?}");
            }
        }
        assert_eq!(stats.total(), (boxes.len() * lines.len()) as u64);
    }

    #[test]
    fn sphere_stats_classify_elongated_boxes_as_fallbacks() {
        // A long skinny box: outer sphere is huge, inner sphere tiny — the
        // regime the paper blames for set 3's poor performance.
        let m = mbr2([0.0, 0.0], [100.0, 0.1]);
        // A line crossing near the box but missing it.
        let l = Line::new(vec![50.0, 5.0], vec![1.0, 0.0]).unwrap();
        let mut stats = SphereStats::default();
        let hit = penetrates(&l, &m, PenetrationMethod::BoundingSpheres, &mut stats);
        assert!(!hit);
        assert_eq!(stats.fallback, 1, "spheres could not decide: {stats:?}");
    }

    #[test]
    fn sphere_stats_merge_adds_counters() {
        let mut a = SphereStats {
            outer_reject: 1,
            inner_accept: 2,
            fallback: 3,
            fallback_hit: 1,
        };
        let b = SphereStats {
            outer_reject: 10,
            inner_accept: 0,
            fallback: 1,
            fallback_hit: 0,
        };
        a.merge(&b);
        assert_eq!(a.total(), 17);
    }
}
