//! Randomised tests for the geometric core of the paper.
//!
//! These validate the re-derived Lemmas 1–4 and Theorems 1–3 (whose proofs
//! the paper omits) against brute-force/numeric ground truth on random
//! inputs. Deterministic pseudo-random cases (seeded [`tsss_rand::Rng`])
//! replace the former proptest strategies so the workspace builds offline.

use tsss_geometry::line::{lld, lld_argmin, pld, Line};
use tsss_geometry::mbr::Mbr;
use tsss_geometry::penetration::{line_mbr_interval, line_penetrates_mbr};
use tsss_geometry::scale_shift::{min_scale_shift_distance, optimal_scale_shift, ScaleShift};
use tsss_geometry::se::{se_line, se_transform};
use tsss_geometry::sphere::Sphere;
use tsss_geometry::vector::{dist, dot, mean};
use tsss_rand::Rng;

const CASES: usize = 256;

fn vec_n(rng: &mut Rng, n: usize) -> Vec<f64> {
    rng.f64_vec(n, -100.0, 100.0)
}

fn random_dim(rng: &mut Rng) -> usize {
    2 + rng.usize_below(10)
}

fn paired_vecs(rng: &mut Rng) -> (Vec<f64>, Vec<f64>) {
    let n = random_dim(rng);
    (vec_n(rng, n), vec_n(rng, n))
}

/// Lemma 1: PLD is the true minimum of ‖q − L(t)‖ over t (checked against
/// the analytic foot-of-perpendicular and a parameter sweep).
#[test]
fn pld_is_a_lower_bound_of_all_line_points() {
    let mut rng = Rng::seed_from_u64(0x6E0_0001);
    for _ in 0..CASES {
        let n = random_dim(&mut rng);
        let (q, p, d) = (vec_n(&mut rng, n), vec_n(&mut rng, n), vec_n(&mut rng, n));
        let line = Line::new(p, d).unwrap();
        let exact = pld(&q, &line);
        let t_star = line.project_param(&q);
        // The foot of the perpendicular achieves it...
        assert!((dist(&q, &line.at(t_star)) - exact).abs() < 1e-6);
        // ...and no sampled parameter beats it.
        for k in -10..=10 {
            let t = t_star + k as f64 * 0.37;
            assert!(dist(&q, &line.at(t)) + 1e-9 >= exact);
        }
    }
}

/// Lemma 2 / Theorem 1: LLD(scaling line of u, shifting line of v) equals
/// the closed-form minimum scale-shift distance.
#[test]
fn theorem1_lld_equals_min_scale_shift_distance() {
    let mut rng = Rng::seed_from_u64(0x6E0_0002);
    for _ in 0..CASES {
        let (u, v) = paired_vecs(&mut rng);
        let geometric = lld(&Line::scaling(&u), &Line::shifting(&v));
        let algebraic = min_scale_shift_distance(&u, &v).unwrap();
        assert!(
            (geometric - algebraic).abs() < 1e-6,
            "lld = {geometric}, closed form = {algebraic}"
        );
    }
}

/// LLD's argmin really achieves the reported distance.
#[test]
fn lld_argmin_achieves_lld() {
    let mut rng = Rng::seed_from_u64(0x6E0_0003);
    for _ in 0..CASES {
        let (u, v) = paired_vecs(&mut rng);
        let l1 = Line::scaling(&u);
        let l2 = Line::shifting(&v);
        let (t1, t2) = lld_argmin(&l1, &l2);
        let achieved = dist(&l1.at(t1), &l2.at(t2));
        assert!((achieved - lld(&l1, &l2)).abs() < 1e-6);
    }
}

/// Lemma 3: ‖F_{a,b}(u) − v‖ = ‖L_sa(u)(a) − L_sh(v)(−b)‖ for all a, b.
#[test]
fn lemma3_transform_distance_is_line_point_distance() {
    let mut rng = Rng::seed_from_u64(0x6E0_0004);
    for _ in 0..CASES {
        let (u, v) = paired_vecs(&mut rng);
        let a = rng.f64_range(-10.0, 10.0);
        let b = rng.f64_range(-10.0, 10.0);
        let f = ScaleShift { a, b };
        let lhs = dist(&f.apply(&u), &v);
        let rhs = dist(&Line::scaling(&u).at(a), &Line::shifting(&v).at(-b));
        assert!((lhs - rhs).abs() < 1e-8);
    }
}

/// §5.2: the closed-form (a, b) is optimal — no random transform does
/// better.
#[test]
fn closed_form_fit_is_optimal() {
    let mut rng = Rng::seed_from_u64(0x6E0_0005);
    for _ in 0..CASES {
        let (u, v) = paired_vecs(&mut rng);
        let a = rng.f64_range(-10.0, 10.0);
        let b = rng.f64_range(-10.0, 10.0);
        let fit = optimal_scale_shift(&u, &v).unwrap();
        let candidate = dist(&ScaleShift { a, b }.apply(&u), &v);
        assert!(fit.distance <= candidate + 1e-8);
        // And the reported transform achieves the reported distance.
        let achieved = dist(&fit.transform.apply(&u), &v);
        assert!((achieved - fit.distance).abs() < 1e-7);
    }
}

/// SE-transformation: linear, idempotent, kills shifts, image ⟂ N.
#[test]
fn se_transformation_properties() {
    let mut rng = Rng::seed_from_u64(0x6E0_0006);
    for _ in 0..CASES {
        let n = random_dim(&mut rng);
        let v = vec_n(&mut rng, n);
        let t = rng.f64_range(-50.0, 50.0);
        let base = se_transform(&v);
        // Shift invariance.
        let shifted: Vec<f64> = v.iter().map(|x| x + t).collect();
        let s = se_transform(&shifted);
        for (a, b) in s.iter().zip(&base) {
            assert!((a - b).abs() < 1e-7);
        }
        // Idempotence.
        let twice = se_transform(&base);
        for (a, b) in twice.iter().zip(&base) {
            assert!((a - b).abs() < 1e-9);
        }
        // Orthogonal to N ⇔ zero mean.
        assert!(mean(&base).abs() < 1e-9);
        let ones = vec![1.0; v.len()];
        assert!(dot(&base, &ones).abs() < 1e-7);
    }
}

/// Theorem 2: similarity can be decided entirely on the SE-Plane.
#[test]
fn theorem2_pld_in_se_plane_decides_similarity() {
    let mut rng = Rng::seed_from_u64(0x6E0_0007);
    for _ in 0..CASES {
        let (u, v) = paired_vecs(&mut rng);
        let on_plane = pld(&se_transform(&v), &se_line(&u));
        let original = lld(&Line::scaling(&u), &Line::shifting(&v));
        assert!((on_plane - original).abs() < 1e-6);
    }
}

/// Theorem 3 (soundness of pruning): if the ε-MBR of a box holding T_se(v)
/// is *not* penetrated by the SE-line of u, then u is not ε-similar to v.
#[test]
fn theorem3_no_penetration_implies_no_similarity() {
    let mut rng = Rng::seed_from_u64(0x6E0_0008);
    for _ in 0..CASES {
        let (u, v) = paired_vecs(&mut rng);
        let eps = rng.f64_range(0.01, 50.0);
        let feat = se_transform(&v);
        let mbr = Mbr::point(&feat);
        let line = se_line(&u);
        if !line_penetrates_mbr(&line, &mbr.enlarged(eps)) {
            let d = min_scale_shift_distance(&u, &v).unwrap();
            assert!(d > eps, "pruned a similar pair: d = {d}, eps = {eps}");
        }
    }
}

/// The slab test agrees with dense sampling of the line parameter.
#[test]
fn slab_test_agrees_with_sampling() {
    let mut rng = Rng::seed_from_u64(0x6E0_0009);
    for _ in 0..CASES {
        let p = vec_n(&mut rng, 3);
        let d = vec_n(&mut rng, 3);
        let lo = vec_n(&mut rng, 3);
        let ext = rng.f64_vec(3, 0.1, 30.0);
        let line = Line::new(p, d).unwrap();
        let high: Vec<f64> = lo.iter().zip(&ext).map(|(l, e)| l + e).collect();
        let mbr = Mbr::new(lo, high).unwrap();
        match line_mbr_interval(&line, &mbr) {
            Some((t0, t1)) => {
                assert!(t0 <= t1 + 1e-9);
                let grown = mbr.enlarged(1e-6);
                assert!(grown.contains_point(&line.at(0.5 * (t0 + t1))));
            }
            None => {
                // No sampled point may fall inside the box.
                for k in -200..=200 {
                    let t = k as f64 * 0.25;
                    assert!(
                        !mbr.contains_point(&line.at(t)),
                        "slab said miss but t = {t} is inside"
                    );
                }
            }
        }
    }
}

/// Sphere sandwich: outer-miss ⇒ box-miss, inner-hit ⇒ box-hit.
#[test]
fn sphere_sandwich_is_conservative() {
    let mut rng = Rng::seed_from_u64(0x6E0_000A);
    for _ in 0..CASES {
        let p = vec_n(&mut rng, 4);
        let d = vec_n(&mut rng, 4);
        let lo = vec_n(&mut rng, 4);
        let ext = rng.f64_vec(4, 0.1, 30.0);
        let line = Line::new(p, d).unwrap();
        let high: Vec<f64> = lo.iter().zip(&ext).map(|(l, e)| l + e).collect();
        let mbr = Mbr::new(lo, high).unwrap();
        let box_hit = line_penetrates_mbr(&line, &mbr);
        if !Sphere::outer(&mbr).penetrated_by(&line) {
            assert!(!box_hit, "outer sphere missed but box hit");
        }
        if Sphere::inner(&mbr).penetrated_by(&line) {
            assert!(box_hit, "inner sphere hit but box missed");
        }
    }
}

/// MBR algebra: union contains operands; overlap symmetric and bounded.
#[test]
fn mbr_algebra() {
    let mut rng = Rng::seed_from_u64(0x6E0_000B);
    for _ in 0..CASES {
        let (a_lo, b_lo) = paired_vecs(&mut rng);
        let ext_seed = rng.f64_range(0.0, 1.0);
        let ea: Vec<f64> = a_lo
            .iter()
            .map(|x| x.abs() * 0.1 + ext_seed + 0.1)
            .collect();
        let eb: Vec<f64> = b_lo.iter().map(|x| x.abs() * 0.05 + 0.2).collect();
        let a_hi: Vec<f64> = a_lo.iter().zip(&ea).map(|(l, e)| l + e).collect();
        let b_hi: Vec<f64> = b_lo.iter().zip(&eb).map(|(l, e)| l + e).collect();
        let a = Mbr::new(a_lo, a_hi).unwrap();
        let b = Mbr::new(b_lo, b_hi).unwrap();
        let u = a.union(&b);
        assert!(u.contains_mbr(&a));
        assert!(u.contains_mbr(&b));
        assert!(u.volume() + 1e-9 >= a.volume().max(b.volume()));
        let o = a.overlap(&b);
        assert!((o - b.overlap(&a)).abs() < 1e-9);
        assert!(o <= a.volume().min(b.volume()) + 1e-9);
    }
}

/// Corollary 1: no ε' < LLD admits similarity — i.e. the similarity
/// predicate is monotone in ε with threshold exactly LLD.
#[test]
fn corollary1_threshold_behaviour() {
    let mut rng = Rng::seed_from_u64(0x6E0_000C);
    for _ in 0..CASES {
        let (u, v) = paired_vecs(&mut rng);
        let d = min_scale_shift_distance(&u, &v).unwrap();
        if d <= 1e-6 {
            continue; // analogous to prop_assume!
        }
        assert!(tsss_geometry::scale_shift::similar(&u, &v, d * 1.001).unwrap());
        assert!(!tsss_geometry::scale_shift::similar(&u, &v, d * 0.999).unwrap());
    }
}
