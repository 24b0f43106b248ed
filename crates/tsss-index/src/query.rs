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
//!
//! The walk reads each page in place: a child's `low`/`high` and a leaf
//! point are decoded into two coordinate buffers owned by the walk and
//! tested from there, with ε applied inside the slab test and the line's
//! `‖d‖²` computed once per query. No `Node`, `Mbr` or `LeafSlab` is built,
//! so a page visit allocates only the page copy the buffer pool hands out.

use tsss_geometry::line::{pld_sq_with_norm, Line};
use tsss_geometry::mbr::min_dist_sq;
use tsss_geometry::penetration::{penetrates, PenetrationMethod, SphereStats};
use tsss_geometry::vector::{dist_sq, norm_sq};

use crate::error::IndexError;
use crate::node::NodeScan;
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
        let dir_norm_sq = norm_sq(&line.dir);
        self.range_walk(
            budget,
            |low, high, stats| {
                stats.penetration_tests += 1;
                penetrates(line, low, high, epsilon, method, &mut stats.sphere)
            },
            |point| pld_sq_with_norm(point, line, dir_norm_sq),
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
            |low, high, _| min_dist_sq(low, high, center) <= radius_sq,
            |point| dist_sq(point, center),
            radius_sq,
        )
    }

    /// The one range traversal: a depth-first walk from the root that
    /// descends into every child whose box `[low, high]` passes `descend`,
    /// and keeps every leaf point whose `dist_sq` is at most `limit_sq`.
    /// Pages are visited in pre-order, children in entry order, so the
    /// matches come out in a fixed order. Fails before visiting page
    /// `budget + 1`, and on the first malformed entry of a visited page.
    fn range_walk(
        &self,
        budget: Option<u64>,
        mut descend: impl FnMut(&[f64], &[f64], &mut LineQueryStats) -> bool,
        dist_sq: impl Fn(&[f64]) -> f64,
        limit_sq: f64,
    ) -> Result<QueryOutcome, IndexError> {
        let dim = self.config().dim;
        // A leaf point decodes into `low`; a child's MBR into both.
        let (mut low, mut high) = (vec![0.0; dim], vec![0.0; dim]);
        let mut out = QueryOutcome::default();
        let mut stack = vec![self.root_page()];
        while let Some(page) = stack.pop() {
            let visited = out.stats.internal_visited + out.stats.leaves_visited;
            if let Some(budget) = budget.filter(|&b| visited >= b) {
                return Err(IndexError::BudgetExhausted { budget });
            }
            let bytes = self.pool.read(page)?;
            let corrupt = |detail| IndexError::CorruptNode { page, detail };
            let node = NodeScan::new(&bytes, dim).map_err(corrupt)?;
            if node.is_leaf() {
                out.stats.leaves_visited += 1;
                for i in 0..node.len() {
                    let id = node.point(i, &mut low).map_err(corrupt)?;
                    out.stats.candidates_checked += 1;
                    let d_sq = dist_sq(&low);
                    if d_sq <= limit_sq {
                        out.matches.push(Match {
                            id,
                            distance: d_sq.sqrt(),
                        });
                    }
                }
            } else {
                out.stats.internal_visited += 1;
                let first = stack.len();
                for i in 0..node.len() {
                    let child = node.child(i, &mut low, &mut high).map_err(corrupt)?;
                    if descend(&low, &high, &mut out.stats) {
                        stack.push(child);
                    }
                }
                // Reversed so the stack pops the children in entry order.
                if let Some(pushed) = stack.get_mut(first..) {
                    pushed.reverse();
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{Node, NODE_HEADER_BYTES};
    use crate::tree::{SplitPolicy, TreeConfig};
    use tsss_geometry::line::pld_sq;
    use tsss_geometry::penetration::line_penetrates_mbr;
    use tsss_storage::{Page, PageId};

    fn cfg() -> TreeConfig {
        TreeConfig::uniform(2, 1024, 8, 3, 2, SplitPolicy::RStar)
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

    /// The range walk's contract restated over the owned `Node` view:
    /// pre-order, children in entry order, each ε-MBR by the slab test and
    /// each point by its PLD.
    fn reference_line_query(t: &RTree, line: &Line, eps: f64) -> Vec<Match> {
        let mut out = Vec::new();
        let mut stack = vec![t.root_page()];
        while let Some(page) = stack.pop() {
            match t.read_node(page).unwrap() {
                Node::Leaf(slab) => {
                    for (id, point) in slab.rows() {
                        let d_sq = pld_sq(point, line);
                        if d_sq <= eps * eps {
                            out.push(Match {
                                id,
                                distance: d_sq.sqrt(),
                            });
                        }
                    }
                }
                Node::Internal(entries) => {
                    for e in entries.iter().rev() {
                        if line_penetrates_mbr(line, e.mbr.low(), e.mbr.high(), eps) {
                            stack.push(e.page);
                        }
                    }
                }
            }
        }
        out
    }

    #[test]
    fn the_in_place_walk_visits_and_matches_in_the_reference_order() {
        let (t, _) = build(500);
        for (line, eps) in [
            (Line::new(vec![0.0, 0.0], vec![1.0, 0.9]).unwrap(), 7.0),
            (Line::new(vec![10.0, -5.0], vec![0.3, 1.0]).unwrap(), 20.0),
            (Line::new(vec![50.0, 50.0], vec![0.0, 0.0]).unwrap(), 30.0),
        ] {
            let got = t
                .line_query(&line, eps, PenetrationMethod::EnteringExiting, None)
                .unwrap();
            let want = reference_line_query(&t, &line, eps);
            assert!(want.len() > 10);
            assert_eq!(got.matches, want, "{line:?} ± {eps}");
        }
    }

    /// Rewrites `page` through the tree's buffer pool: the damage carries a
    /// valid checksum, so only the node checks of the walks can refuse it.
    fn rewrite(t: &mut RTree, page: PageId, damage: impl FnOnce(&mut Page)) {
        let mut bytes = t.pool.read(page).unwrap();
        damage(&mut bytes);
        t.pool.write(page, bytes).unwrap();
    }

    fn coord(entry_bytes: usize, i: usize, skip: usize, j: usize) -> usize {
        NODE_HEADER_BYTES + i * entry_bytes + skip + 8 * j
    }

    /// Every walk reads every page of the tree: each fails on the first
    /// malformed entry it reads, naming its page and that entry.
    #[test]
    fn malformed_nodes_with_valid_checksums_fail_every_walk() {
        let line = Line::new(vec![0.0, 0.0], vec![1.0, 0.9]).unwrap();
        let internal = Node::internal_entry_bytes(2);
        let leaf = Node::leaf_entry_bytes(2);
        // (damage the root or a leaf, the damage given the entry count,
        // the diagnosis)
        type Damage = fn(&mut Page, usize, usize, usize);
        let cases: [(bool, Damage, &str); 3] = [
            (
                false,
                |p, leaf, _, len| {
                    // Two bad entries: the walks name the first.
                    p.put_f64(coord(leaf, 1, 8, 1), f64::NAN);
                    p.put_f64(coord(leaf, len - 1, 8, 0), f64::INFINITY);
                },
                "leaf entry 1 has a non-finite coordinate",
            ),
            (
                true,
                |p, _, internal, _| {
                    let high = p.get_f64(coord(internal, 0, 4 + 16, 0));
                    p.put_f64(coord(internal, 0, 4, 0), high + 1.0);
                },
                "internal entry 0 has an inverted MBR",
            ),
            (
                true,
                |p, _, internal, _| p.put_u32(coord(internal, 1, 0, 0), u32::MAX),
                "internal entry 1 points at the sentinel page",
            ),
        ];
        for (at_root, damage, detail) in cases {
            let (mut t, _) = build(300);
            let mut page = t.root_page();
            if !at_root {
                while let Node::Internal(children) = t.read_node(page).unwrap() {
                    page = children[0].page;
                }
            }
            let len = t.read_node(page).unwrap().len();
            assert!(len >= 2, "the damage needs two entries");
            rewrite(&mut t, page, |p| damage(p, leaf, internal, len));
            let expected = IndexError::CorruptNode {
                page,
                detail: detail.to_string(),
            };
            let everything = PenetrationMethod::EnteringExiting;
            assert_eq!(
                t.line_query(&line, 1e9, everything, None).unwrap_err(),
                expected
            );
            assert_eq!(
                t.radius_query(&[0.0, 0.0], 1e9, None).unwrap_err(),
                expected
            );
            assert_eq!(
                t.nearest(&line).find_map(Result::err),
                Some(expected),
                "{detail}"
            );
        }
    }

    #[test]
    fn zero_budget_rejects_even_the_root_visit() {
        let (t, _) = build(50);
        let err = t.radius_query(&[0.0, 0.0], 10.0, Some(0)).unwrap_err();
        assert_eq!(err, IndexError::BudgetExhausted { budget: 0 });
    }
}
