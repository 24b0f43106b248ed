//! Best-first nearest-neighbour search under point-to-line distance.
//!
//! Corollary 1 of the paper observes that the nearest neighbour of a query
//! `u` under scale-shift dissimilarity is the stored sequence whose shifting
//! line is closest to `u`'s scaling line — equivalently (Theorem 2), the
//! indexed SE/feature point closest to the query's SE-line. The paper defers
//! the algorithm for space reasons; we implement the standard
//! Hjaltason–Samet best-first traversal with a priority queue keyed by a
//! lower bound on the line-to-MBR distance. [`RTree::nearest`] returns it
//! as an iterator that keeps its queue between pulls, so a caller that
//! needs more neighbours resumes the one walk instead of starting over.
//!
//! Like the range walk, it reads each page in place: child MBRs and leaf
//! points are decoded into coordinate buffers the walk owns, the line's
//! `‖d‖²` is computed once, and [`line_mbr_min_dist`] reuses one breakpoint
//! buffer for the whole walk.
//!
//! The lower bound `min_t dist(L(t), box)` is computed *exactly*:
//! `f(t) = dist²(L(t), box)` is a convex piecewise-quadratic function of `t`
//! whose breakpoints are the parameters where each coordinate of `L(t)`
//! crosses its slab boundary. Between consecutive breakpoints `f` is a
//! single quadratic; evaluating the minimum of each piece (clamped to the
//! piece) and taking the best yields the global minimum analytically.

// analyze::allow-file(index): the distance kernel indexes only `0..n` where `n = line.dim()` equals `low.len()` and `high.len()` (the walk decodes both at the tree's dimension, which `nearest` asserts the line has), plus positions taken from the `breaks` vector it just built.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use tsss_geometry::line::{pld_sq_with_norm, Line};
use tsss_geometry::penetration::line_penetrates_mbr;
use tsss_geometry::vector::norm_sq;
use tsss_storage::PageId;

use crate::error::IndexError;
use crate::node::NodeScan;
use crate::query::Match;
use crate::tree::RTree;

/// Exact `min_t dist(L(t), box)` for the box `[low, high]`: zero when the
/// line penetrates the box, otherwise the global minimum of the convex
/// piecewise-quadratic `f(t) = Σᵢ clamp-residualᵢ(t)²`.
///
/// `breaks` is scratch space for the breakpoints; a walk passes the same
/// buffer to every call, so the bound allocates nothing once it has grown.
pub fn line_mbr_min_dist(line: &Line, low: &[f64], high: &[f64], breaks: &mut Vec<f64>) -> f64 {
    if line_penetrates_mbr(line, low, high, 0.0) {
        return 0.0;
    }
    let n = line.dim();
    let f = |t: f64| -> f64 {
        let mut acc = 0.0;
        for i in 0..n {
            let x = line.point[i] + t * line.dir[i];
            let e = if x < low[i] {
                low[i] - x
            } else if x > high[i] {
                x - high[i]
            } else {
                0.0
            };
            acc += e * e;
        }
        acc
    };

    // Breakpoints: every t where some coordinate of L(t) crosses its slab
    // boundary. Between consecutive breakpoints the active set is fixed and
    // f is one quadratic A·t² + B·t + C.
    breaks.clear();
    for i in 0..n {
        let d = line.dir[i];
        // analyze::allow(float-eq): exact-zero test — a literally-zero direction component contributes no breakpoint (dividing by it is the only hazard); tiny components produce valid finite breakpoints.
        if d != 0.0 {
            breaks.push((low[i] - line.point[i]) / d);
            breaks.push((high[i] - line.point[i]) / d);
        }
    }
    if breaks.is_empty() {
        // Fully degenerate line: a single point.
        return f(0.0).sqrt();
    }
    #[allow(clippy::unwrap_used)]
    // analyze::allow(panic): breakpoints are (bound - point)/d with d != 0 over finite box/line coordinates, so no NaN can reach the comparator.
    breaks.sort_by(|a, b| a.partial_cmp(b).unwrap());
    breaks.dedup();

    let mut best = f64::INFINITY;
    // Evaluate each piece: (-∞, b₀], [b₀, b₁], …, [b_last, ∞). On a piece,
    // reconstruct the quadratic from the active residuals at its midpoint
    // and minimise it clamped to the piece. Unbounded end pieces are convex
    // and increasing away from the box, so their minima sit at the finite
    // end (already covered); still evaluate the breakpoints themselves.
    for &b in breaks.iter() {
        best = best.min(f(b));
    }
    for w in breaks.windows(2) {
        let (lo, hi) = (w[0], w[1]);
        if hi - lo <= 0.0 {
            continue;
        }
        let mid = 0.5 * (lo + hi);
        // Quadratic coefficients from the residuals active at `mid`.
        let (mut qa, mut qb) = (0.0f64, 0.0f64);
        for i in 0..n {
            let x = line.point[i] + mid * line.dir[i];
            let (p, d) = (line.point[i], line.dir[i]);
            if x < low[i] {
                // residual = low − p − t·d
                qa += d * d;
                qb += -2.0 * d * (low[i] - p);
            } else if x > high[i] {
                // residual = p + t·d − high
                qa += d * d;
                qb += 2.0 * d * (p - high[i]);
            }
        }
        if qa > 0.0 {
            let t_star = -qb / (2.0 * qa);
            if t_star > lo && t_star < hi {
                best = best.min(f(t_star));
            }
        }
    }
    best.max(0.0).sqrt()
}

#[derive(Debug)]
enum HeapItem {
    Node { page: PageId, bound: f64 },
    Point { entry: Match },
}

impl HeapItem {
    fn key(&self) -> f64 {
        match self {
            HeapItem::Node { bound, .. } => *bound,
            HeapItem::Point { entry } => entry.distance,
        }
    }
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for smallest-first.
        other
            .key()
            .partial_cmp(&self.key())
            .unwrap_or(Ordering::Equal)
    }
}

impl RTree {
    /// The indexed points in ascending distance to `line`: a best-first
    /// walk that reads a page only when its bound reaches the front of the
    /// queue. The walk keeps its queue between pulls, so taking `k` and
    /// then `k'` more reads exactly the pages that taking `k + k'` at once
    /// would.
    ///
    /// Ties at equal distance are broken arbitrarily but deterministically.
    /// A failed page read is yielded once and ends the walk.
    ///
    /// # Panics
    /// Panics when the line's dimension differs from the tree's.
    pub fn nearest<'a>(
        &'a self,
        line: &'a Line,
    ) -> impl Iterator<Item = Result<Match, IndexError>> + 'a {
        let dim = self.config().dim;
        assert_eq!(line.dim(), dim, "line dimension mismatch");
        let mut heap = BinaryHeap::new();
        if !self.is_empty() {
            heap.push(HeapItem::Node {
                page: self.root_page(),
                bound: 0.0,
            });
        }
        BestFirst {
            tree: self,
            line,
            dir_norm_sq: norm_sq(&line.dir),
            low: vec![0.0; dim],
            high: vec![0.0; dim],
            breaks: Vec::with_capacity(2 * dim),
            heap,
        }
    }
}

/// The state of one [`RTree::nearest`] walk: its queue, plus the
/// coordinate and breakpoint buffers every page visit reuses.
struct BestFirst<'a> {
    tree: &'a RTree,
    line: &'a Line,
    dir_norm_sq: f64,
    low: Vec<f64>,
    high: Vec<f64>,
    breaks: Vec<f64>,
    heap: BinaryHeap<HeapItem>,
}

impl BestFirst<'_> {
    /// Reads `page` in place and queues its entries in order: leaf points
    /// at their distance to the line, children at their line–MBR bound.
    fn expand(&mut self, page: PageId) -> Result<(), IndexError> {
        let bytes = self.tree.pool.read(page)?;
        let corrupt = |detail| IndexError::CorruptNode { page, detail };
        let node = NodeScan::new(&bytes, self.tree.config().dim).map_err(corrupt)?;
        if node.is_leaf() {
            for i in 0..node.len() {
                let id = node.point(i, &mut self.low).map_err(corrupt)?;
                let distance = pld_sq_with_norm(&self.low, self.line, self.dir_norm_sq).sqrt();
                self.heap.push(HeapItem::Point {
                    entry: Match { id, distance },
                });
            }
        } else {
            for i in 0..node.len() {
                let child = node
                    .child(i, &mut self.low, &mut self.high)
                    .map_err(corrupt)?;
                let bound = line_mbr_min_dist(self.line, &self.low, &self.high, &mut self.breaks);
                self.heap.push(HeapItem::Node { page: child, bound });
            }
        }
        Ok(())
    }
}

impl Iterator for BestFirst<'_> {
    type Item = Result<Match, IndexError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            match self.heap.pop()? {
                HeapItem::Point { entry } => return Some(Ok(entry)),
                HeapItem::Node { page, .. } => {
                    if let Err(e) = self.expand(page) {
                        self.heap.clear();
                        return Some(Err(e));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Node;
    use crate::tree::{SplitPolicy, TreeConfig};
    use tsss_geometry::line::pld_sq;

    fn bound(line: &Line, low: &[f64], high: &[f64]) -> f64 {
        line_mbr_min_dist(line, low, high, &mut Vec::new())
    }

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

    fn knn(t: &RTree, line: &Line, k: usize) -> Vec<Match> {
        t.nearest(line).take(k).collect::<Result<_, _>>().unwrap()
    }

    #[test]
    fn bound_is_zero_for_penetrated_boxes() {
        let line = Line::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap();
        assert_eq!(bound(&line, &[1.0, 1.0], &[2.0, 2.0]), 0.0);
    }

    #[test]
    fn bound_matches_hand_computed_distance() {
        // x-axis vs box [0,1]x[3,4]: distance 3.
        let line = Line::new(vec![0.0, 0.0], vec![1.0, 0.0]).unwrap();
        let d = bound(&line, &[0.0, 3.0], &[1.0, 4.0]);
        assert!((d - 3.0).abs() < 1e-6, "got {d}");
    }

    #[test]
    fn bound_never_exceeds_distance_to_any_contained_point() {
        let line = Line::new(vec![-3.0, 2.0], vec![2.0, 0.7]).unwrap();
        let bound = bound(&line, &[5.0, -8.0], &[9.0, -4.0]);
        // Sample points of the box; all must be at least `bound` away.
        for i in 0..=10 {
            for j in 0..=10 {
                let p = [5.0 + 4.0 * i as f64 / 10.0, -8.0 + 4.0 * j as f64 / 10.0];
                assert!(pld_sq(&p, &line).sqrt() + 1e-9 >= bound);
            }
        }
    }

    #[test]
    fn nearest_one_matches_brute_force() {
        let (t, pts) = build(300);
        let line = Line::new(vec![0.0, 0.0], vec![1.0, 0.85]).unwrap();
        let got = knn(&t, &line, 1);
        assert_eq!(got.len(), 1);
        let best_brute = pts
            .iter()
            .map(|p| pld_sq(p, &line).sqrt())
            .fold(f64::INFINITY, f64::min);
        assert!((got[0].distance - best_brute).abs() < 1e-9);
    }

    #[test]
    fn nearest_k_is_sorted_and_matches_brute_force() {
        let (t, pts) = build(250);
        let line = Line::new(vec![10.0, -5.0], vec![0.3, 1.0]).unwrap();
        let k = 10;
        let got = knn(&t, &line, k);
        assert_eq!(got.len(), k);
        for w in got.windows(2) {
            assert!(w[0].distance <= w[1].distance + 1e-12);
        }
        let mut brute: Vec<f64> = pts.iter().map(|p| pld_sq(p, &line).sqrt()).collect();
        brute.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (g, b) in got.iter().zip(&brute) {
            assert!((g.distance - b).abs() < 1e-9);
        }
    }

    #[test]
    fn k_larger_than_tree_returns_everything() {
        let (t, pts) = build(20);
        let line = Line::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap();
        let got = knn(&t, &line, 100);
        assert_eq!(got.len(), pts.len());
    }

    #[test]
    fn k_zero_and_empty_tree() {
        let (t, _) = build(20);
        let line = Line::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap();
        assert!(knn(&t, &line, 0).is_empty());
        let empty = RTree::new(cfg()).unwrap();
        assert!(knn(&empty, &line, 3).is_empty());
    }

    /// The best-first walk restated over the owned `Node` view: the same
    /// queue, fed the same pushes in the same order.
    fn reference_nearest(t: &RTree, line: &Line) -> Vec<Match> {
        let mut heap = BinaryHeap::new();
        heap.push(HeapItem::Node {
            page: t.root_page(),
            bound: 0.0,
        });
        let mut out = Vec::new();
        while let Some(item) = heap.pop() {
            match item {
                HeapItem::Point { entry } => out.push(entry),
                HeapItem::Node { page, .. } => match t.read_node(page).unwrap() {
                    Node::Leaf(slab) => {
                        for (id, point) in slab.rows() {
                            let distance = pld_sq(point, line).sqrt();
                            heap.push(HeapItem::Point {
                                entry: Match { id, distance },
                            });
                        }
                    }
                    Node::Internal(entries) => {
                        for e in entries {
                            heap.push(HeapItem::Node {
                                page: e.page,
                                bound: bound(line, e.mbr.low(), e.mbr.high()),
                            });
                        }
                    }
                },
            }
        }
        out
    }

    #[test]
    fn the_in_place_walk_yields_the_reference_sequence() {
        // Integer grid points: many exact distance ties, so the order of
        // the queue's pushes shows in the output.
        let (t, _) = build(400);
        for line in [
            Line::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap(),
            Line::new(vec![10.0, -5.0], vec![0.3, 1.0]).unwrap(),
            Line::new(vec![50.0, 50.0], vec![0.0, 0.0]).unwrap(),
        ] {
            let got: Vec<Match> = t.nearest(&line).collect::<Result<_, _>>().unwrap();
            assert_eq!(got, reference_nearest(&t, &line), "{line:?}");
        }
    }

    #[test]
    fn best_first_visits_fewer_nodes_than_full_scan() {
        let (t, _) = build(600);
        t.stats().reset();
        let line = Line::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap();
        let _ = knn(&t, &line, 1);
        let nn_reads = t.stats().reads();
        t.stats().reset();
        let _ = t.dump().unwrap();
        let full_reads = t.stats().reads();
        assert!(
            nn_reads < full_reads,
            "NN visited {nn_reads} nodes, full scan {full_reads}"
        );
    }
}
