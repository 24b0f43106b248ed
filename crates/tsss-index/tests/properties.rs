//! Model-based randomised tests: the R-tree (any split policy, incremental
//! or bulk-loaded) must behave exactly like a flat vector of points under
//! every query, across random sequences of inserts.
//!
//! Deterministic pseudo-random cases (seeded [`tsss_rand::Rng`]) replace the
//! former proptest strategies so the workspace builds offline.

use std::collections::BTreeSet;
use tsss_geometry::line::{pld_sq, Line};
use tsss_geometry::penetration::PenetrationMethod;
use tsss_geometry::Mbr;
use tsss_index::bulk::bulk_load;
use tsss_index::{DataEntry, RTree, SplitPolicy, TreeConfig};
use tsss_rand::Rng;

fn cfg(split: SplitPolicy) -> TreeConfig {
    TreeConfig::uniform(3, 1024, 8, 3, 2, split)
}

fn point(rng: &mut Rng) -> Vec<f64> {
    rng.f64_vec(3, -50.0, 50.0)
}

fn random_split(rng: &mut Rng) -> SplitPolicy {
    match rng.usize_below(3) {
        0 => SplitPolicy::RStar,
        1 => SplitPolicy::GuttmanQuadratic,
        _ => SplitPolicy::GuttmanLinear,
    }
}

#[test]
fn tree_matches_model_under_churn() {
    let mut rng = Rng::seed_from_u64(0x1DE_0001);
    for case in 0..64 {
        let split = random_split(&mut rng);
        let n_ops = 1 + rng.usize_below(119);
        let line_dir = point(&mut rng);
        let eps = rng.f64_range(0.0, 30.0);

        let mut tree = RTree::new(cfg(split)).unwrap();
        let mut model: Vec<(Vec<f64>, u64)> = Vec::new();
        for id in 0..n_ops as u64 {
            let p = point(&mut rng);
            tree.insert(p.clone(), id).unwrap();
            model.push((p, id));
        }

        assert_eq!(tree.len(), model.len());
        tree.check_invariants().unwrap();

        // Full content equality.
        let mut dumped: Vec<(Vec<f64>, u64)> = tree.dump().unwrap();
        dumped.sort_by_key(|(_, id)| *id);
        let mut want = model.clone();
        want.sort_by_key(|(_, id)| *id);
        assert_eq!(&dumped, &want);

        // Line query equality for both penetration methods.
        let line = Line::new(vec![0.0; 3], line_dir).unwrap();
        for method in [
            PenetrationMethod::EnteringExiting,
            PenetrationMethod::BoundingSpheres,
        ] {
            let got: BTreeSet<u64> = tree
                .line_query(&line, eps, method, None)
                .unwrap()
                .matches
                .iter()
                .map(|m| m.id)
                .collect();
            let expect: BTreeSet<u64> = model
                .iter()
                .filter(|(p, _)| pld_sq(p, &line) <= eps * eps)
                .map(|(_, id)| *id)
                .collect();
            assert_eq!(
                &got, &expect,
                "case {case}: line query diverged ({method:?})"
            );
        }
    }
}

#[test]
fn bulk_load_equals_incremental_build() {
    let mut rng = Rng::seed_from_u64(0x1DE_0002);
    for _ in 0..64 {
        let split = random_split(&mut rng);
        let n_points = rng.usize_below(150);
        let points: Vec<Vec<f64>> = (0..n_points).map(|_| point(&mut rng)).collect();
        let center = point(&mut rng);
        let radius = rng.f64_range(0.0, 60.0);

        let entries: Vec<DataEntry> = points
            .iter()
            .enumerate()
            .map(|(i, p)| DataEntry::new(p.clone(), i as u64))
            .collect();
        let bulk = bulk_load(cfg(split), entries.clone()).unwrap();
        bulk.check_invariants().unwrap();
        let mut incr = RTree::new(cfg(split)).unwrap();
        for e in &entries {
            incr.insert(e.point.to_vec(), e.id).unwrap();
        }
        let a: BTreeSet<u64> = bulk
            .radius_query(&center, radius, None)
            .unwrap()
            .matches
            .iter()
            .map(|m| m.id)
            .collect();
        let b: BTreeSet<u64> = incr
            .radius_query(&center, radius, None)
            .unwrap()
            .matches
            .iter()
            .map(|m| m.id)
            .collect();
        assert_eq!(a, b);
    }
}

#[test]
fn nn_matches_brute_force() {
    let mut rng = Rng::seed_from_u64(0x1DE_0004);
    for _ in 0..64 {
        let n_points = 1 + rng.usize_below(119);
        let points: Vec<Vec<f64>> = (0..n_points).map(|_| point(&mut rng)).collect();
        let dir = point(&mut rng);
        let k = 1 + rng.usize_below(7);

        let mut tree = RTree::new(cfg(SplitPolicy::RStar)).unwrap();
        for (i, p) in points.iter().enumerate() {
            tree.insert(p.clone(), i as u64).unwrap();
        }
        let line = Line::new(vec![0.0; 3], dir).unwrap();
        let got: Vec<_> = tree
            .nearest(&line)
            .take(k)
            .collect::<Result<_, _>>()
            .unwrap();
        let mut brute: Vec<f64> = points.iter().map(|p| pld_sq(p, &line).sqrt()).collect();
        brute.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(got.len(), k.min(points.len()));
        for (g, b) in got.iter().zip(&brute) {
            assert!(
                (g.distance - b).abs() < 1e-7,
                "k-NN distance {} vs brute {}",
                g.distance,
                b
            );
        }
    }
}

/// The exact line–MBR distance equals dense-sampled ground truth and is
/// admissible (never exceeds the distance to any box point).
#[test]
fn line_mbr_min_dist_is_exact() {
    use tsss_index::nn::line_mbr_min_dist;
    let mut rng = Rng::seed_from_u64(0x1DE_0005);
    for _ in 0..256 {
        let p = rng.f64_vec(3, -30.0, 30.0);
        let d = rng.f64_vec(3, -5.0, 5.0);
        let lo = rng.f64_vec(3, -30.0, 30.0);
        let ext = rng.f64_vec(3, 0.1, 20.0);
        let line = match Line::new(p, d) {
            Ok(l) => l,
            Err(_) => continue, // zero direction — vanishingly unlikely
        };
        let high: Vec<f64> = lo.iter().zip(&ext).map(|(l, e)| l + e).collect();
        let mbr = Mbr::new(lo, high).unwrap();
        let exact = line_mbr_min_dist(&line, mbr.low(), mbr.high(), &mut Vec::new());
        // Dense sample of t; the sampled minimum can only be ≥ the true one.
        let f = |t: f64| -> f64 {
            (0..3)
                .map(|i| {
                    let x = line.point[i] + t * line.dir[i];
                    let e = (mbr.low()[i] - x).max(0.0).max(x - mbr.high()[i]);
                    e * e
                })
                .sum::<f64>()
                .sqrt()
        };
        let mut sampled = f64::INFINITY;
        for k in -4000..=4000 {
            sampled = sampled.min(f(k as f64 * 0.05));
        }
        assert!(
            exact <= sampled + 1e-9,
            "bound not admissible: {exact} > {sampled}"
        );
        // And within sampling resolution of the truth (f is 1-Lipschitz-ish
        // in t scaled by ‖d‖, so a 0.05 grid pins it down to ~0.05·‖d‖).
        let lip = 0.06 * line.dir.iter().map(|v| v * v).sum::<f64>().sqrt() + 1e-6;
        assert!(
            sampled - exact <= lip,
            "gap {} exceeds sampling slack {lip}",
            sampled - exact
        );
    }
}
