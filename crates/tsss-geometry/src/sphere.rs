//! Bounding spheres for the penetration-check heuristic of paper §7.
//!
//! The paper imports a ray-tracing trick: wrap each ε-MBR in two spheres,
//!
//! * the **inner sphere**, the largest sphere inscribed in the box (radius =
//!   half the *shortest* side), and
//! * the **outer sphere**, the smallest sphere circumscribing the box
//!   (radius = half the *diagonal*),
//!
//! so that `line misses outer ⇒ line misses box` and `line hits inner ⇒ line
//! hits box`. Only the undecided middle band needs the exact (more expensive)
//! Entering/Exiting Points test. The paper's experiments find the heuristic
//! counter-productive for R*-tree boxes — their long-diagonal/small-volume
//! shape makes the middle band dominate — and our `ablation_spheres` bench
//! reproduces that finding quantitatively.

use crate::line::{pld_sq_of, Line};
use crate::vector::norm_sq;

/// The inner and outer bounding spheres of the ε-box
/// `[low − eps, high + eps]`.
///
/// Both spheres are centred at the box centre, which is computed
/// coordinate by coordinate from the slices whenever it is needed, so
/// building the pair allocates nothing.
#[derive(Debug, Clone, Copy)]
pub struct BoxSpheres<'a> {
    low: &'a [f64],
    high: &'a [f64],
    eps: f64,
    /// Radius of the largest sphere inscribed in the box: half the
    /// shortest side. `line hits inner ⇒ line hits box`.
    pub inner_radius: f64,
    /// Radius of the smallest sphere circumscribing the box: half the
    /// diagonal. `line misses outer ⇒ line misses box`.
    pub outer_radius: f64,
}

impl<'a> BoxSpheres<'a> {
    /// The two spheres of the box `[low − eps, high + eps]`.
    pub fn new(low: &'a [f64], high: &'a [f64], eps: f64) -> Self {
        debug_assert_eq!(low.len(), high.len());
        let sides = low.iter().zip(high).map(|(l, h)| (h + eps) - (l - eps));
        let inner_radius = sides.clone().fold(f64::INFINITY, f64::min) / 2.0;
        Self {
            low,
            high,
            eps,
            inner_radius: if inner_radius.is_finite() {
                inner_radius
            } else {
                0.0
            },
            outer_radius: sides.map(|s| s * s).sum::<f64>().sqrt() / 2.0,
        }
    }

    /// The shared centre, one coordinate per item.
    pub fn center(&self) -> impl Iterator<Item = f64> + Clone + 'a {
        let eps = self.eps;
        self.low
            .iter()
            .zip(self.high)
            .map(move |(l, h)| 0.5 * ((l - eps) + (h + eps)))
    }

    /// `PLD²` from the centre to `line`: the line passes through (or
    /// touches) a sphere iff this is at most that sphere's radius squared.
    pub fn center_pld_sq(&self, line: &Line) -> f64 {
        pld_sq_of(self.center(), line, norm_sq(&line.dir))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::penetration::line_penetrates_mbr;

    const CUBE: ([f64; 3], [f64; 3]) = ([0.0, 0.0, 0.0], [2.0, 2.0, 2.0]);
    // Long diagonal, small volume — the problematic R*-tree shape.
    const SLAB: ([f64; 3], [f64; 3]) = ([0.0, 0.0, 0.0], [10.0, 0.2, 0.2]);

    fn hits_inner(s: &BoxSpheres<'_>, l: &Line) -> bool {
        s.center_pld_sq(l) <= s.inner_radius * s.inner_radius
    }

    fn hits_outer(s: &BoxSpheres<'_>, l: &Line) -> bool {
        s.center_pld_sq(l) <= s.outer_radius * s.outer_radius
    }

    #[test]
    fn cube_spheres_have_expected_radii() {
        let s = BoxSpheres::new(&CUBE.0, &CUBE.1, 0.0);
        assert_eq!(s.center().collect::<Vec<_>>(), vec![1.0, 1.0, 1.0]);
        assert_eq!(s.inner_radius, 1.0);
        assert!((s.outer_radius - 3f64.sqrt()).abs() < 1e-12);
        // The ε-box grows both spheres and keeps the centre.
        let grown = BoxSpheres::new(&CUBE.0, &CUBE.1, 0.5);
        assert_eq!(grown.center().collect::<Vec<_>>(), vec![1.0, 1.0, 1.0]);
        assert_eq!(grown.inner_radius, 1.5);
        assert!((grown.outer_radius - 1.5 * 3f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn slab_box_spheres_are_badly_mismatched() {
        let s = BoxSpheres::new(&SLAB.0, &SLAB.1, 0.0);
        assert_eq!(s.inner_radius, 0.1);
        assert!(s.outer_radius > 5.0);
        // The gap ratio is what defeats the heuristic.
        assert!(s.outer_radius / s.inner_radius > 50.0);
    }

    #[test]
    fn inner_hit_implies_box_hit() {
        let s = BoxSpheres::new(&CUBE.0, &CUBE.1, 0.0);
        let l = Line::new(vec![1.0, 1.0, -5.0], vec![0.0, 0.0, 1.0]).unwrap();
        assert!(hits_inner(&s, &l));
        assert!(line_penetrates_mbr(&l, &CUBE.0, &CUBE.1, 0.0));
    }

    #[test]
    fn outer_miss_implies_box_miss() {
        let s = BoxSpheres::new(&CUBE.0, &CUBE.1, 0.0);
        let l = Line::new(vec![10.0, 10.0, 0.0], vec![0.0, 0.0, 1.0]).unwrap();
        assert!(!hits_outer(&s, &l));
        assert!(!line_penetrates_mbr(&l, &CUBE.0, &CUBE.1, 0.0));
    }

    #[test]
    fn tangent_line_counts_as_penetration() {
        // The box [-1, 1]² has the unit circle as its inner sphere.
        let s = BoxSpheres::new(&[-1.0, -1.0], &[1.0, 1.0], 0.0);
        // Line y = 1 is tangent.
        let l = Line::new(vec![0.0, 1.0], vec![1.0, 0.0]).unwrap();
        assert!(hits_inner(&s, &l));
        // Line y = 1.001 misses.
        let l = Line::new(vec![0.0, 1.001], vec![1.0, 0.0]).unwrap();
        assert!(!hits_inner(&s, &l));
    }

    #[test]
    fn degenerate_point_box_spheres() {
        let s = BoxSpheres::new(&[1.0, 2.0], &[1.0, 2.0], 0.0);
        assert_eq!(s.inner_radius, 0.0);
        assert_eq!(s.outer_radius, 0.0);
        let through = Line::new(vec![1.0, 0.0], vec![0.0, 1.0]).unwrap();
        assert!(hits_outer(&s, &through));
    }
}
