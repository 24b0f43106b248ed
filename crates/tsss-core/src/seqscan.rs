//! The sequential-scan baseline (paper experiment set 1).
//!
//! Reads the whole data file once per query (≈ 1300 pages at paper scale)
//! and computes the minimum scale-shift distance of every window via the
//! closed form of §5.2 (equivalently Lemma 2's `LLD` — Theorem 1 says they
//! agree, and the property tests verify it). CPU cost is therefore constant
//! in ε — exactly the flat curve of Figure 4.

use crate::config::SearchOptions;
use crate::engine::SearchEngine;
use crate::error::EngineError;
use crate::pipeline::{QueryPlan, SeqScanSource};
use crate::result::SearchResult;

impl SearchEngine {
    /// Answers a range query by scanning every window of every series — no
    /// index, no pruning. Produces exactly the same match set as a
    /// [`crate::Query::Range`] through [`SearchEngine::execute`] (the
    /// recall oracle of the test suite, and the degradation fallback).
    ///
    /// A thin composition over the staged pipeline: the same plan as the
    /// indexed path, with [`SeqScanSource`] — which reads the file once and
    /// nominates every window — in place of the R-tree probe. Verification
    /// and stats come from the shared [`crate::pipeline::Verifier`], so
    /// `stats.candidates` is the total window count and `index_pages` is 0.
    /// `opts.cost` and `opts.deadline` apply exactly as on the indexed
    /// path.
    ///
    /// # Errors
    /// Same input validation as the indexed range query, plus
    /// [`EngineError::DeadlineExceeded`] when `opts.deadline` fires.
    pub fn sequential_search(
        &self,
        query: &[f64],
        epsilon: f64,
        opts: SearchOptions,
    ) -> Result<SearchResult, EngineError> {
        let plan = QueryPlan::exact(self, query, epsilon, opts)?;
        self.run_pipeline(&plan, &SeqScanSource)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CostLimit, EngineConfig};
    use tsss_data::{MarketConfig, MarketSimulator, Series};

    fn engine() -> (SearchEngine, Vec<Series>) {
        let data = MarketSimulator::new(MarketConfig::small(5, 70, 321)).generate();
        (
            SearchEngine::build(&data, EngineConfig::small(16)).unwrap(),
            data,
        )
    }

    #[test]
    fn sequential_scan_equals_indexed_search() {
        let (e, data) = engine();
        for (series, offset, eps) in [(0, 3, 0.5), (2, 20, 2.0), (4, 40, 8.0)] {
            let q = data[series].window(offset, 16).unwrap().to_vec();
            let seq = e
                .sequential_search(&q, eps, SearchOptions::default())
                .unwrap();
            let idx = e.search(&q, eps, SearchOptions::default()).unwrap();
            assert_eq!(seq.id_set(), idx.id_set(), "eps {eps}");
            // And the reported distances agree pairwise.
            for (a, b) in seq.matches.iter().zip(&idx.matches) {
                assert_eq!(a.id, b.id);
                assert!((a.distance - b.distance).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn page_cost_is_the_whole_file_independent_of_epsilon() {
        let (e, data) = engine();
        let q = data[1].window(10, 16).unwrap().to_vec();
        let total_pages = e.data_page_count() as u64;
        for eps in [0.0, 1.0, 100.0] {
            e.reset_counters();
            let res = e
                .sequential_search(&q, eps, SearchOptions::default())
                .unwrap();
            assert_eq!(res.stats.data_pages, total_pages, "eps {eps}");
            assert_eq!(res.stats.index_pages, 0, "no index involved");
        }
    }

    #[test]
    fn candidate_count_is_the_window_count() {
        let (e, data) = engine();
        let q = data[0].window(0, 16).unwrap().to_vec();
        let res = e
            .sequential_search(&q, 1.0, SearchOptions::default())
            .unwrap();
        assert_eq!(res.stats.candidates as usize, e.num_windows());
    }

    #[test]
    fn cost_limits_apply_to_the_scan_too() {
        let (e, data) = engine();
        let q = data[0].window(0, 16).unwrap().to_vec();
        let all = e
            .sequential_search(&q, 5.0, SearchOptions::default())
            .unwrap();
        let restricted = e
            .sequential_search(
                &q,
                5.0,
                SearchOptions {
                    cost: CostLimit {
                        a_range: Some((0.99, 1.01)),
                        b_range: Some((-0.5, 0.5)),
                    },
                    ..Default::default()
                },
            )
            .unwrap();
        assert!(restricted.matches.len() <= all.matches.len());
        for m in &restricted.matches {
            assert!(m.transform.a >= 0.99 && m.transform.a <= 1.01);
            assert!(m.transform.b.abs() <= 0.5);
        }
    }

    #[test]
    fn input_validation_matches_indexed_search() {
        let (e, _) = engine();
        assert!(matches!(
            e.sequential_search(&[0.0; 4], 1.0, SearchOptions::default()),
            Err(EngineError::QueryLength { .. })
        ));
        assert!(matches!(
            e.sequential_search(&[0.0; 16], -2.0, SearchOptions::default()),
            Err(EngineError::InvalidEpsilon(_))
        ));
    }
}
