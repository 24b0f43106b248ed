//! Exact k-nearest-subsequence search under scale-shift dissimilarity.
//!
//! Corollary 1 of the paper: the nearest neighbour of `Q` is the
//! subsequence whose shifting line lies closest to `Q`'s scaling line — the
//! paper leaves the algorithm as future work ("because of the limited space,
//! we will not discuss nearest neighbor search in this paper"). We implement
//! it with the standard **filter-and-refine multi-step kNN**: feature-space
//! distances lower-bound exact distances (the DFT contraction + Theorem 2),
//! so candidates retrieved in ascending feature distance can be verified
//! until the k-th exact distance drops below the feature distance of the
//! last unverified candidate — at which point no unseen candidate can
//! improve the answer. The candidates come from one resumable best-first
//! walk of the R-tree ([`tsss_index::RTree::nearest`]), so no index page is
//! read twice.

use tsss_index::LineQueryStats;

use crate::config::SearchOptions;
use crate::engine::SearchEngine;
use crate::error::EngineError;
use crate::id::SubseqId;
use crate::pipeline::{
    CandidateSource, Candidates, QueryPlan, RawAccess, SeqScanSource, Spend, Verifier,
};
use crate::result::{SearchResult, SubsequenceMatch};

impl SearchEngine {
    /// A [`crate::Query::Nearest`]: the `k` indexed subsequences nearest to
    /// `query` under the paper's dissimilarity (minimum scale-shift
    /// distance), ascending, with the pipeline's per-stage statistics
    /// (`candidates` = windows pulled from the best-first walk,
    /// `verified`/`cost_rejected` partitioning them, and exact per-query
    /// page counts). Returns fewer when the index holds fewer windows.
    ///
    /// `opts.cost` counts only neighbours whose optimal transformation it
    /// accepts (paper §3's transformation budget applied to ranking).
    /// Under the paper's asymmetric distance, unconstrained nearest
    /// neighbours are dominated by low-fluctuation windows (any query maps
    /// near them with `a ≈ 0`); a lower bound on `a` recovers the intuitive
    /// "same trend" ranking.
    ///
    /// The frontier drives the shared pipeline iteratively: each round
    /// pulls the next best-first batch from one walk of the index, verifies
    /// it through the one [`Verifier`], and stops as soon as the k-th exact
    /// distance is at most the feature distance of the last pulled
    /// candidate (no unseen window can improve the answer, since feature
    /// distances lower-bound exact distances). `stats.verified` counts all
    /// exactly-verified candidates; the k best of them are returned, so
    /// `matches.len() ≤ stats.verified`. Page accounting is
    /// [`SearchEngine::run_pipeline`]'s: `opts.deadline` and
    /// `opts.page_budget` are checked once per frontier round and once at
    /// the end (the deadline also per candidate).
    ///
    /// A numerically-constant query degenerates (its SE-line collapses to
    /// the origin, so the frontier order is meaningless): the ranking is
    /// answered exhaustively by the sequential-scan source instead.
    pub(crate) fn knn_search(
        &self,
        query: &[f64],
        k: usize,
        opts: SearchOptions,
    ) -> Result<SearchResult, EngineError> {
        let plan = QueryPlan::ranking(self, query, opts)?;
        self.accounted(&plan, |spend| {
            if k == 0 || self.num_windows() == 0 {
                Ok(SearchResult::default())
            } else if plan.degenerate() {
                let cands = SeqScanSource.candidates(self, &plan, &mut spend.meter)?;
                let mut res = Verifier.verify(self, &plan, cands, &mut spend.meter)?;
                res.matches.truncate(k);
                Ok(res)
            } else {
                self.nearest_frontier(&plan, k.min(self.num_windows()), spend)
            }
        })
    }

    /// The filter-and-refine frontier loop over a non-degenerate ranking
    /// plan. Round `r` extends the pulled prefix of the best-first walk to
    /// `max(2k, 8)·2^r` candidates (capped at the window count) and
    /// verifies only the extension. The
    /// deadline and page budget are checked cooperatively once per round
    /// against the pages spent so far (the deadline also per candidate
    /// inside the shared verifier).
    fn nearest_frontier(
        &self,
        plan: &QueryPlan<'_>,
        k: usize,
        spend: &mut Spend<'_>,
    ) -> Result<SearchResult, EngineError> {
        let line = self.query_line(plan.query());
        let mut walk = self.tree().nearest(&line);
        let mut res = SearchResult::default();
        // All verified matches so far, in canonical order.
        let mut pool: Vec<SubsequenceMatch> = Vec::new();
        let mut pulled = 0;
        let mut fetch = (2 * k).max(8);
        loop {
            spend.charge_pages()?;
            let batch = walk
                .by_ref()
                .take(fetch - pulled)
                .collect::<Result<Vec<_>, _>>()?;
            pulled += batch.len();
            // Exhausted: we have already pulled every window — exact answers
            // are final regardless of bounds.
            let exhausted = pulled < fetch || fetch >= self.num_windows();
            let max_feature_dist = batch.last().map_or(f64::INFINITY, |c| c.distance);

            let round = Verifier.verify(
                self,
                plan,
                Candidates {
                    ids: batch.iter().map(|c| SubseqId::unpack(c.id)).collect(),
                    index: LineQueryStats::default(),
                    raw: RawAccess::Paged,
                },
                &mut spend.meter,
            )?;
            res.stats.candidates += round.stats.candidates;
            res.stats.verified += round.stats.verified;
            res.stats.false_alarms += round.stats.false_alarms;
            res.stats.cost_rejected += round.stats.cost_rejected;
            pool.extend(round.matches);
            pool.sort_by(SubsequenceMatch::ordering);

            // analyze::allow(index): the range end is clamped to pool.len().
            let exact = &pool[..pool.len().min(k)];

            // Termination: every unseen candidate has feature distance
            // ≥ max_feature_dist, and exact ≥ feature, so once our k-th
            // exact distance is within that bound the answer is final.
            let kth = exact.last().map(|m| m.distance).unwrap_or(f64::INFINITY);
            if exhausted || (exact.len() == k && kth <= max_feature_dist) {
                res.matches = exact.to_vec();
                return Ok(res);
            }
            fetch = (fetch * 2).min(self.num_windows());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CostLimit, EngineConfig};
    use crate::pipeline::Query;
    use tsss_data::{MarketConfig, MarketSimulator, Series};
    use tsss_geometry::scale_shift::{min_scale_shift_distance, ScaleShift};

    fn knn_with_cost(
        e: &SearchEngine,
        q: &[f64],
        k: usize,
        cost: CostLimit,
    ) -> Result<Vec<SubsequenceMatch>, EngineError> {
        let opts = SearchOptions {
            cost,
            ..Default::default()
        };
        Ok(e.execute(q, Query::Nearest { k }, opts)?.matches)
    }

    fn knn(e: &SearchEngine, q: &[f64], k: usize) -> Result<Vec<SubsequenceMatch>, EngineError> {
        knn_with_cost(e, q, k, CostLimit::UNLIMITED)
    }

    fn engine() -> (SearchEngine, Vec<Series>) {
        let data = MarketSimulator::new(MarketConfig::small(5, 60, 99)).generate();
        (
            SearchEngine::build(&data, EngineConfig::small(16)).unwrap(),
            data,
        )
    }

    fn brute_force_nn(data: &[Series], q: &[f64], k: usize) -> Vec<(SubseqId, f64)> {
        let mut all = Vec::new();
        for (si, s) in data.iter().enumerate() {
            for off in 0..=s.len() - 16 {
                let d = min_scale_shift_distance(q, s.window(off, 16).unwrap()).unwrap();
                all.push((
                    SubseqId {
                        series: si as u32,
                        offset: off as u32,
                    },
                    d,
                ));
            }
        }
        all.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then_with(|| a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }

    #[test]
    fn nn_of_an_indexed_window_is_itself() {
        let (e, data) = engine();
        let q = data[3].window(25, 16).unwrap().to_vec();
        let got = knn(&e, &q, 1).unwrap();
        assert_eq!(got.len(), 1);
        assert!(got[0].distance < 1e-6);
        assert_eq!(got[0].id.series, 3);
        assert_eq!(got[0].id.offset, 25);
    }

    #[test]
    fn nn_sees_through_disguises() {
        let (e, data) = engine();
        let src = data[1].window(5, 16).unwrap();
        let q = ScaleShift { a: 0.2, b: 55.0 }.apply(src);
        let got = knn(&e, &q, 1).unwrap();
        assert!(got[0].distance < 1e-6);
        assert_eq!((got[0].id.series, got[0].id.offset), (1, 5));
    }

    #[test]
    fn knn_distances_match_brute_force() {
        let (e, data) = engine();
        let q = data[0].window(30, 16).unwrap().to_vec();
        for k in [1, 3, 10] {
            let got = knn(&e, &q, k).unwrap();
            let want = brute_force_nn(&data, &q, k);
            assert_eq!(got.len(), k);
            for (g, (_, wd)) in got.iter().zip(&want) {
                assert!(
                    (g.distance - wd).abs() < 1e-7,
                    "k = {k}: {} vs {}",
                    g.distance,
                    wd
                );
            }
        }
    }

    #[test]
    fn knn_is_sorted_ascending() {
        let (e, data) = engine();
        let q = data[2].window(11, 16).unwrap().to_vec();
        let got = knn(&e, &q, 15).unwrap();
        for w in got.windows(2) {
            assert!(w[0].distance <= w[1].distance + 1e-12);
        }
    }

    #[test]
    fn k_zero_and_oversized_k() {
        let (e, data) = engine();
        let q = data[0].window(0, 16).unwrap().to_vec();
        assert!(knn(&e, &q, 0).unwrap().is_empty());
        let all = knn(&e, &q, usize::MAX).unwrap();
        assert_eq!(all.len(), e.num_windows());
    }

    #[test]
    fn cost_constrained_nn_only_returns_accepted_transforms() {
        let (e, data) = engine();
        let q = data[0].window(30, 16).unwrap().to_vec();
        let cost = CostLimit {
            a_range: Some((0.5, 2.0)),
            b_range: None,
        };
        let got = knn_with_cost(&e, &q, 10, cost).unwrap();
        assert!(!got.is_empty());
        for m in &got {
            assert!(m.transform.a >= 0.5 && m.transform.a <= 2.0);
        }
        // Matches brute force restricted to the same cost set.
        let mut brute = Vec::new();
        for (si, s) in data.iter().enumerate() {
            for off in 0..=s.len() - 16 {
                let fit =
                    tsss_geometry::scale_shift::optimal_scale_shift(&q, s.window(off, 16).unwrap())
                        .unwrap();
                if fit.transform.a >= 0.5 && fit.transform.a <= 2.0 {
                    brute.push(((si, off), fit.distance));
                }
            }
        }
        brute.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        for (g, (_, wd)) in got.iter().zip(&brute) {
            assert!((g.distance - wd).abs() < 1e-7, "{} vs {}", g.distance, wd);
        }
    }

    #[test]
    fn cost_constrained_nn_may_return_fewer_than_k() {
        let (e, data) = engine();
        let q = data[0].window(0, 16).unwrap().to_vec();
        // Impossible cost window: nothing qualifies.
        let cost = CostLimit {
            a_range: Some((1e9, 2e9)),
            b_range: None,
        };
        assert!(knn_with_cost(&e, &q, 5, cost).unwrap().is_empty());
    }

    #[test]
    fn nearest_search_stats_satisfy_the_stage_identity() {
        let (e, data) = engine();
        let q = data[0].window(30, 16).unwrap().to_vec();
        let cost = CostLimit {
            a_range: Some((0.5, 2.0)),
            b_range: None,
        };
        for cost in [CostLimit::UNLIMITED, cost] {
            let opts = SearchOptions {
                cost,
                ..Default::default()
            };
            let res = e.execute(&q, Query::Nearest { k: 5 }, opts).unwrap();
            let s = &res.stats;
            assert_eq!(s.candidates, s.verified + s.false_alarms + s.cost_rejected);
            // ε = ∞ on the ranking plan: nothing can be a false alarm.
            assert_eq!(s.false_alarms, 0);
            // The k best of the verified pool are returned.
            assert!((res.matches.len() as u64) <= s.verified);
            assert!(s.index_pages > 0 && s.data_pages > 0);
        }
    }

    #[test]
    fn knn_reads_each_index_page_at_most_once() {
        let (e, data) = engine();
        for (series, offset) in [(1, 5), (3, 25), (4, 40)] {
            let src = data[series].window(offset, 16).unwrap();
            let q = ScaleShift { a: 0.2, b: 55.0 }.apply(src);
            for k in [1, 3, 10] {
                let res = e
                    .execute(&q, Query::Nearest { k }, SearchOptions::default())
                    .unwrap();
                assert!(res.stats.candidates > 0);
                assert!(
                    res.stats.index_pages <= e.index_extent() as u64,
                    "k = {k}: {} index pages read from an index of {}",
                    res.stats.index_pages,
                    e.index_extent()
                );
            }
        }
    }

    #[test]
    fn malformed_query_is_an_error() {
        let (e, _) = engine();
        assert!(matches!(
            knn(&e, &[1.0; 5], 3),
            Err(EngineError::QueryLength { .. })
        ));
    }
}
