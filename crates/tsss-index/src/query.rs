//! Range search over the R-tree.
//!
//! The paper's searching step (§6) is the **line-penetration query**: given
//! the query's SE-line and an error bound ε, traverse only the children
//! whose ε-MBR is penetrated by the line (Theorem 3); at the leaves, keep
//! every point within ε of the line (Theorem 2). [`RTree::line_query`]
//! implements exactly that with a pluggable [`PenetrationMethod`] — the
//! paper's experiment sets 2 and 3 differ only in that plug.
//!
//! [`RTree::radius_query`] is the same traversal with a ball in place of
//! the line: the probe for a numerically-constant query, whose SE-line
//! collapses to the origin. Both run one budgeted depth-first walk.

use tsss_geometry::line::{pld_sq, Line};
use tsss_geometry::penetration::{penetrates, PenetrationMethod, SphereStats};
use tsss_geometry::Mbr;

use crate::error::IndexError;
use crate::node::Node;
use crate::tree::RTree;

/// Per-query traversal statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LineQueryStats {
    /// Internal nodes visited.
    pub internal_visited: u64,
    /// Leaf nodes visited.
    pub leaves_visited: u64,
    /// Leaf entries distance-checked.
    pub candidates_checked: u64,
    /// MBR penetration tests performed.
    pub penetration_tests: u64,
    /// How the bounding-sphere heuristic resolved (only populated under
    /// [`PenetrationMethod::BoundingSpheres`]).
    pub sphere: SphereStats,
}

impl LineQueryStats {
    /// Accumulates another traversal's counters into this one — e.g. a
    /// multi-probe query (one index probe per piece of a long query)
    /// reporting a single set of index statistics.
    pub fn merge(&mut self, other: &LineQueryStats) {
        self.internal_visited += other.internal_visited;
        self.leaves_visited += other.leaves_visited;
        self.candidates_checked += other.candidates_checked;
        self.penetration_tests += other.penetration_tests;
        self.sphere.merge(&other.sphere);
    }
}

/// A match returned by a query: the stored point's record id and its
/// distance to the query object (line or point).
#[derive(Debug, Clone, PartialEq)]
pub struct Match {
    /// Record identifier supplied at insertion time.
    pub id: u64,
    /// Distance to the query object.
    pub distance: f64,
}

/// Result of a query: matches plus traversal statistics.
#[derive(Debug, Clone, Default)]
pub struct QueryOutcome {
    /// All matching entries, in traversal order.
    pub matches: Vec<Match>,
    /// Traversal statistics.
    pub stats: LineQueryStats,
}

impl RTree {
    /// The paper's search (§6): every indexed point within `epsilon` of
    /// `line`, pruned by ε-MBR penetration (Theorem 3).
    ///
    /// `budget` caps the pages the traversal may visit: it aborts with
    /// [`IndexError::BudgetExhausted`] before visiting page `budget + 1` —
    /// the guard against runaway queries over a damaged or degenerate
    /// tree. `None` is unbounded.
    ///
    /// # Errors
    /// [`IndexError::BudgetExhausted`] when the budget runs out, or any
    /// storage/decoding failure met during the traversal.
    ///
    /// # Panics
    /// Panics when the line's dimension differs from the tree's.
    pub fn line_query(
        &self,
        line: &Line,
        epsilon: f64,
        method: PenetrationMethod,
        budget: Option<u64>,
    ) -> Result<QueryOutcome, IndexError> {
        assert_eq!(line.dim(), self.config().dim, "line dimension mismatch");
        assert!(epsilon >= 0.0, "epsilon must be non-negative");
        self.range_walk(
            budget,
            |mbr, stats| {
                stats.penetration_tests += 1;
                penetrates(line, &mbr.enlarged(epsilon), method, &mut stats.sphere)
            },
            |point| pld_sq(point, line),
            epsilon * epsilon,
        )
    }

    /// All points within Euclidean distance `radius` of `center` — the
    /// F-index style range query, under the same optional page `budget` as
    /// [`RTree::line_query`].
    ///
    /// # Errors
    /// [`IndexError::BudgetExhausted`] when the budget runs out, or any
    /// storage/decoding failure met during the traversal.
    ///
    /// # Panics
    /// Panics when the center's dimension differs from the tree's.
    pub fn radius_query(
        &self,
        center: &[f64],
        radius: f64,
        budget: Option<u64>,
    ) -> Result<QueryOutcome, IndexError> {
        assert_eq!(center.len(), self.config().dim, "center dimension mismatch");
        assert!(radius >= 0.0, "radius must be non-negative");
        let radius_sq = radius * radius;
        self.range_walk(
            budget,
            |mbr, _| mbr.min_dist_sq_to_point(center) <= radius_sq,
            |point| tsss_geometry::vector::dist_sq(point, center),
            radius_sq,
        )
    }

    /// The one range traversal: a depth-first walk from the root that
    /// descends into every child whose MBR passes `descend`, and keeps
    /// every leaf point whose `dist_sq` is at most `limit_sq`. Pages are
    /// visited in pre-order, children in entry order, so the matches come
    /// out in a fixed order. Fails before visiting page `budget + 1`.
    fn range_walk(
        &self,
        budget: Option<u64>,
        mut descend: impl FnMut(&Mbr, &mut LineQueryStats) -> bool,
        dist_sq: impl Fn(&[f64]) -> f64,
        limit_sq: f64,
    ) -> Result<QueryOutcome, IndexError> {
        let mut out = QueryOutcome::default();
        let mut stack = vec![self.root_page()];
        while let Some(page) = stack.pop() {
            let visited = out.stats.internal_visited + out.stats.leaves_visited;
            if let Some(budget) = budget.filter(|&b| visited >= b) {
                return Err(IndexError::BudgetExhausted { budget });
            }
            match self.read_node(page)? {
                Node::Leaf(slab) => {
                    out.stats.leaves_visited += 1;
                    for (id, point) in slab.rows() {
                        out.stats.candidates_checked += 1;
                        let d_sq = dist_sq(point);
                        if d_sq <= limit_sq {
                            out.matches.push(Match {
                                id,
                                distance: d_sq.sqrt(),
                            });
                        }
                    }
                }
                Node::Internal(entries) => {
                    out.stats.internal_visited += 1;
                    // Tested last to first, so the stack pops them in entry
                    // order.
                    for e in entries.iter().rev() {
                        if descend(&e.mbr, &mut out.stats) {
                            stack.push(e.page);
                        }
                    }
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{SplitPolicy, TreeConfig};

    fn cfg() -> TreeConfig {
        TreeConfig::uniform(2, 1024, 8, 3, 2, SplitPolicy::RStar, 0)
    }

    fn build(n: usize) -> (RTree, Vec<Vec<f64>>) {
        let mut t = RTree::new(cfg()).unwrap();
        let pts: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![((i * 37) % 101) as f64, ((i * 61) % 97) as f64])
            .collect();
        for (i, p) in pts.iter().enumerate() {
            t.insert(p.clone(), i as u64).unwrap();
        }
        (t, pts)
    }

    #[test]
    fn radius_query_matches_linear_filter() {
        let (t, pts) = build(200);
        let center = [50.0, 50.0];
        let r = 25.0;
        let got: std::collections::BTreeSet<u64> = t
            .radius_query(&center, r, None)
            .unwrap()
            .matches
            .iter()
            .map(|m| m.id)
            .collect();
        let want: std::collections::BTreeSet<u64> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| tsss_geometry::vector::dist(p, &center) <= r)
            .map(|(i, _)| i as u64)
            .collect();
        assert_eq!(got, want);
        assert!(!want.is_empty());
    }

    #[test]
    fn line_query_matches_linear_filter_for_both_methods() {
        let (t, pts) = build(300);
        let line = Line::new(vec![0.0, 0.0], vec![1.0, 0.9]).unwrap();
        for method in [
            PenetrationMethod::EnteringExiting,
            PenetrationMethod::BoundingSpheres,
        ] {
            for eps in [0.0, 1.0, 5.0, 20.0] {
                let got: std::collections::BTreeSet<u64> = t
                    .line_query(&line, eps, method, None)
                    .unwrap()
                    .matches
                    .iter()
                    .map(|m| m.id)
                    .collect();
                let want: std::collections::BTreeSet<u64> = pts
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| pld_sq(p, &line) <= eps * eps + 1e-12)
                    .map(|(i, _)| i as u64)
                    .collect();
                assert_eq!(got, want, "method {method:?}, eps {eps}");
            }
        }
    }

    #[test]
    fn line_query_reports_distances() {
        let (t, pts) = build(100);
        let line = Line::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap();
        let out = t
            .line_query(&line, 10.0, PenetrationMethod::EnteringExiting, None)
            .unwrap();
        for m in &out.matches {
            let expect = pld_sq(&pts[m.id as usize], &line).sqrt();
            assert!((m.distance - expect).abs() < 1e-9);
            assert!(m.distance <= 10.0 + 1e-9);
        }
    }

    #[test]
    fn pruning_visits_fewer_leaves_than_full_scan() {
        let (t, _) = build(500);
        let line = Line::new(vec![0.0, 0.0], vec![1.0, 0.0]).unwrap();
        let out = t
            .line_query(&line, 1.0, PenetrationMethod::EnteringExiting, None)
            .unwrap();
        // A thin strip query should not need every leaf.
        let total_leaves = {
            let full = t.radius_query(&[0.0, 0.0], 1e9, None).unwrap();
            full.stats.leaves_visited
        };
        assert!(
            out.stats.leaves_visited < total_leaves,
            "no pruning happened: {} vs {}",
            out.stats.leaves_visited,
            total_leaves
        );
    }

    #[test]
    fn sphere_stats_populated_only_for_sphere_method() {
        let (t, _) = build(300);
        let line = Line::new(vec![0.0, 0.0], vec![1.0, 2.0]).unwrap();
        let plain = t
            .line_query(&line, 2.0, PenetrationMethod::EnteringExiting, None)
            .unwrap();
        assert_eq!(plain.stats.sphere.total(), 0);
        let sph = t
            .line_query(&line, 2.0, PenetrationMethod::BoundingSpheres, None)
            .unwrap();
        assert_eq!(
            sph.stats.sphere.total(),
            sph.stats.penetration_tests,
            "every test should be classified"
        );
    }

    #[test]
    fn empty_tree_queries_return_nothing() {
        let t = RTree::new(cfg()).unwrap();
        let line = Line::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap();
        assert!(t
            .line_query(&line, 100.0, PenetrationMethod::EnteringExiting, None)
            .unwrap()
            .matches
            .is_empty());
        assert!(t
            .radius_query(&[0.0, 0.0], 100.0, None)
            .unwrap()
            .matches
            .is_empty());
    }

    #[test]
    fn zero_epsilon_line_query_finds_points_on_the_line() {
        let mut t = RTree::new(cfg()).unwrap();
        for i in 0..50 {
            t.insert(vec![i as f64, i as f64], i).unwrap(); // on the diagonal
            t.insert(vec![i as f64, i as f64 + 5.0], 100 + i).unwrap(); // off it
        }
        let line = Line::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap();
        let out = t
            .line_query(&line, 0.0, PenetrationMethod::EnteringExiting, None)
            .unwrap();
        assert_eq!(out.matches.len(), 50);
        assert!(out.matches.iter().all(|m| m.id < 100));
    }

    #[test]
    fn page_reads_equal_nodes_visited() {
        let (t, _) = build(400);
        t.stats().reset();
        let line = Line::new(vec![0.0, 0.0], vec![1.0, 1.3]).unwrap();
        let out = t
            .line_query(&line, 3.0, PenetrationMethod::EnteringExiting, None)
            .unwrap();
        assert_eq!(
            t.stats().reads(),
            out.stats.internal_visited + out.stats.leaves_visited,
            "every visited node is exactly one page read"
        );
        assert_eq!(t.stats().writes(), 0, "queries never write");
    }

    #[test]
    fn budget_aborts_with_a_typed_error_and_counts_pages_exactly() {
        let (t, _) = build(500);
        let line = Line::new(vec![0.0, 0.0], vec![1.0, 1.3]).unwrap();
        let full = t
            .line_query(&line, 3.0, PenetrationMethod::EnteringExiting, None)
            .unwrap();
        let needed = full.stats.internal_visited + full.stats.leaves_visited;
        assert!(needed > 1);
        // One page short of enough: must abort with BudgetExhausted.
        t.stats().reset();
        let err = t
            .line_query(
                &line,
                3.0,
                PenetrationMethod::EnteringExiting,
                Some(needed - 1),
            )
            .unwrap_err();
        assert_eq!(err, IndexError::BudgetExhausted { budget: needed - 1 });
        assert!(
            t.stats().reads() < needed,
            "budget must bound actual page reads"
        );
        // Exactly enough: same answer as unbudgeted.
        let again = t
            .line_query(&line, 3.0, PenetrationMethod::EnteringExiting, Some(needed))
            .unwrap();
        assert_eq!(again.matches.len(), full.matches.len());
    }

    #[test]
    fn zero_budget_rejects_even_the_root_visit() {
        let (t, _) = build(50);
        let err = t.radius_query(&[0.0, 0.0], 10.0, Some(0)).unwrap_err();
        assert_eq!(err, IndexError::BudgetExhausted { budget: 0 });
    }
}
