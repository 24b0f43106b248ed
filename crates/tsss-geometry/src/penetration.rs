//! Line–MBR penetration testing (paper §6.1 and §7).
//!
//! An MBR is *penetrated* by a line `L(t) = p + t·d` if some `L(t')` is
//! contained in the box. Theorem 3 of the paper turns this into the pruning
//! rule of the whole search: if the query's SE-line does not penetrate a
//! node's ε-MBR, the node cannot hold any qualifying point.
//!
//! [`line_mbr_interval`] implements the **Entering/Exiting Points** method
//! the paper borrows from ray tracing — the slab method generalised to
//! hyper-rectangles and to full lines (`t ∈ ℝ`, not just rays): every
//! dimension restricts the feasible parameter range to a slab interval, and
//! the box is penetrated iff the intersection of all the intervals is
//! non-empty.
//!
//! Boxes are coordinate slices `low`/`high`, as a node page stores them, and
//! the ε-enlargement is applied inside the test, so the tree walk tests a
//! child's ε-MBR without building one.
//!
//! [`PenetrationMethod`] selects between the plain slab test (paper's
//! experiment set 2) and the inner/outer bounding-sphere heuristic wrapped
//! around it (set 3, see [`crate::sphere`]).

use crate::line::Line;
use crate::sphere::BoxSpheres;

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
/// the ε-box `[low − eps, high + eps]`, or `None` when the line misses it.
///
/// This is the Entering/Exiting Points computation itself: `t_lo` is the
/// entering parameter and `t_hi` the exiting parameter. Boundary contact
/// counts as penetration (consistent with the closed boxes of paper §6.1).
/// `eps = 0` tests the box itself.
pub fn line_mbr_interval(line: &Line, low: &[f64], high: &[f64], eps: f64) -> Option<(f64, f64)> {
    debug_assert!(low.len() == line.dim() && high.len() == line.dim());
    let mut t_lo = f64::NEG_INFINITY;
    let mut t_hi = f64::INFINITY;
    for (((&p, &d), &l), &h) in line.point.iter().zip(&line.dir).zip(low).zip(high) {
        let (lo, hi) = (l - eps, h + eps);
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

/// True when the line penetrates the ε-box `[low − eps, high + eps]`
/// (Entering/Exiting Points method).
pub fn line_penetrates_mbr(line: &Line, low: &[f64], high: &[f64], eps: f64) -> bool {
    line_mbr_interval(line, low, high, eps).is_some()
}

/// Penetration test of the ε-box `[low − eps, high + eps]` with the
/// selected strategy, recording sphere statistics.
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
    low: &[f64],
    high: &[f64],
    eps: f64,
    method: PenetrationMethod,
    stats: &mut SphereStats,
) -> bool {
    match method {
        PenetrationMethod::EnteringExiting => line_penetrates_mbr(line, low, high, eps),
        PenetrationMethod::BoundingSpheres => {
            let spheres = BoxSpheres::new(low, high, eps);
            // Both spheres share the box centre, so one distance decides both.
            let center_sq = spheres.center_pld_sq(line);
            let outer_hit = center_sq <= spheres.outer_radius * spheres.outer_radius;
            if !outer_hit {
                stats.outer_reject += 1;
                return false;
            }
            if center_sq <= spheres.inner_radius * spheres.inner_radius {
                stats.inner_accept += 1;
                return true;
            }
            stats.fallback += 1;
            let hit = line_penetrates_mbr(line, low, high, eps);
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

    const UNIT_LOW: [f64; 2] = [0.0, 0.0];
    const UNIT_HIGH: [f64; 2] = [1.0, 1.0];

    fn hits_unit_box(l: &Line) -> bool {
        line_penetrates_mbr(l, &UNIT_LOW, &UNIT_HIGH, 0.0)
    }

    #[test]
    fn diagonal_line_penetrates_unit_box() {
        let l = Line::new(vec![-1.0, -1.0], vec![1.0, 1.0]).unwrap();
        let (t0, t1) = line_mbr_interval(&l, &UNIT_LOW, &UNIT_HIGH, 0.0).unwrap();
        assert!((t0 - 1.0).abs() < 1e-12);
        assert!((t1 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn line_missing_the_box_is_rejected() {
        // Horizontal line at y = 2 above the unit box.
        let l = Line::new(vec![0.0, 2.0], vec![1.0, 0.0]).unwrap();
        assert!(!hits_unit_box(&l));
    }

    #[test]
    fn negative_parameters_count_full_line_not_ray() {
        // Box entirely "behind" the base point: a ray would miss, the line
        // must hit.
        let l = Line::new(vec![10.0, 10.0], vec![1.0, 1.0]).unwrap();
        let (t0, t1) = line_mbr_interval(&l, &UNIT_LOW, &UNIT_HIGH, 0.0).unwrap();
        assert!(t0 < 0.0 && t1 < 0.0);
    }

    #[test]
    fn zero_direction_component_inside_slab() {
        // Vertical line x = 0.5 crosses the box.
        let l = Line::new(vec![0.5, -5.0], vec![0.0, 1.0]).unwrap();
        assert!(hits_unit_box(&l));
        // Vertical line x = 2 misses it.
        let l = Line::new(vec![2.0, -5.0], vec![0.0, 1.0]).unwrap();
        assert!(!hits_unit_box(&l));
    }

    #[test]
    fn fully_degenerate_line_is_point_containment() {
        let inside = Line::new(vec![0.5, 0.5], vec![0.0, 0.0]).unwrap();
        let outside = Line::new(vec![2.0, 0.5], vec![0.0, 0.0]).unwrap();
        assert!(hits_unit_box(&inside));
        assert!(!hits_unit_box(&outside));
    }

    #[test]
    fn boundary_tangency_counts_as_penetration() {
        // Line along the box edge y = 1.
        let l = Line::new(vec![0.0, 1.0], vec![1.0, 0.0]).unwrap();
        assert!(hits_unit_box(&l));
        // Line touching only the corner (1,1).
        let l = Line::new(vec![0.0, 2.0], vec![1.0, -1.0]).unwrap();
        assert!(hits_unit_box(&l));
    }

    #[test]
    fn interval_points_lie_in_the_box() {
        let l = Line::new(vec![-3.0, 0.2, 1.0], vec![2.0, 0.3, -0.5]).unwrap();
        let (low, high) = ([-1.0, 0.0, -1.0], [1.0, 1.0, 1.0]);
        let within = |p: Vec<f64>| {
            p.iter()
                .zip(low.iter().zip(&high))
                .all(|(x, (lo, hi))| lo - 1e-9 <= *x && *x <= hi + 1e-9)
        };
        if let Some((t0, t1)) = line_mbr_interval(&l, &low, &high, 0.0) {
            assert!(within(l.at(t0)));
            assert!(within(l.at(t1)));
            assert!(within(l.at(0.5 * (t0 + t1))));
        }
    }

    #[test]
    fn epsilon_enlargement_admits_near_misses() {
        // Line at y = 1.2 misses the unit box but hits its 0.25-MBR.
        let l = Line::new(vec![0.0, 1.2], vec![1.0, 0.0]).unwrap();
        assert!(!hits_unit_box(&l));
        assert!(line_penetrates_mbr(&l, &UNIT_LOW, &UNIT_HIGH, 0.25));
        assert!(!line_penetrates_mbr(&l, &UNIT_LOW, &UNIT_HIGH, 0.15));
    }

    #[test]
    fn sphere_method_agrees_with_slab_method() {
        // The bounding-sphere decision procedure is exact (conservative
        // pre-tests + exact fallback), so outcomes must always agree.
        let boxes = [
            ([0.0, 0.0], [1.0, 1.0]),
            ([-3.0, 2.0], [-1.0, 9.0]),
            ([5.0, 5.0], [5.5, 10.0]),
        ];
        let lines = [
            Line::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap(),
            Line::new(vec![0.0, 3.0], vec![1.0, 0.0]).unwrap(),
            Line::new(vec![-10.0, -10.0], vec![0.3, 1.7]).unwrap(),
            Line::new(vec![5.2, 0.0], vec![0.0, 1.0]).unwrap(),
        ];
        let mut stats = SphereStats::default();
        let mut tests = 0;
        for (low, high) in &boxes {
            for l in &lines {
                for eps in [0.0, 0.4] {
                    let slab = penetrates(
                        l,
                        low,
                        high,
                        eps,
                        PenetrationMethod::EnteringExiting,
                        &mut stats,
                    );
                    let sph = penetrates(
                        l,
                        low,
                        high,
                        eps,
                        PenetrationMethod::BoundingSpheres,
                        &mut stats,
                    );
                    assert_eq!(
                        slab, sph,
                        "disagreement on {low:?}..{high:?} ± {eps} vs {l:?}"
                    );
                    tests += 1;
                }
            }
        }
        assert_eq!(stats.total(), tests);
    }

    #[test]
    fn sphere_stats_classify_elongated_boxes_as_fallbacks() {
        // A long skinny box: outer sphere is huge, inner sphere tiny — the
        // regime the paper blames for set 3's poor performance.
        let (low, high) = ([0.0, 0.0], [100.0, 0.1]);
        // A line crossing near the box but missing it.
        let l = Line::new(vec![50.0, 5.0], vec![1.0, 0.0]).unwrap();
        let mut stats = SphereStats::default();
        let hit = penetrates(
            &l,
            &low,
            &high,
            0.0,
            PenetrationMethod::BoundingSpheres,
            &mut stats,
        );
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
