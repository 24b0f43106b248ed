//! Queries longer than the indexed window (paper §7, first remark).
//!
//! The paper adopts the ST-index method \[2\]: partition the long query into
//! length-`n` sub-queries, search each independently, and combine. For
//! scale-shift similarity the combination is sound because squared distance
//! decomposes over disjoint index ranges: if `‖F_{a,b}(Q) − S'‖ ≤ ε` then
//! every aligned piece satisfies `‖F_{a,b}(Q_i) − S'_i‖ ≤ ε`, and each
//! piece's *optimal* per-piece transform does at least as well as the global
//! `(a, b)`. Hence searching each piece with the full ε and intersecting the
//! (alignment-shifted) candidate sets never drops a true match — Theorem 1's
//! no-false-dismissal guarantee survives the decomposition. False alarms are
//! removed by verifying the full-length window.
//!
//! A [`crate::Query::Long`] through [`SearchEngine::execute`] runs a long
//! plan (verified at full query length) with
//! [`crate::pipeline::PieceStitchSource`] generating candidates by
//! per-piece index probes and intersection, which relies on every offset
//! being indexed.

use crate::config::SearchOptions;
use crate::engine::SearchEngine;
use crate::error::EngineError;
use crate::pipeline::{QueryPlan, SeqScanSource};
use crate::result::SearchResult;

impl SearchEngine {
    /// Brute-force oracle for long queries (test/verification facility):
    /// scans every possible start position.
    ///
    /// # Errors
    /// Same validation as a [`crate::Query::Long`].
    pub fn sequential_search_long(
        &self,
        query: &[f64],
        epsilon: f64,
    ) -> Result<SearchResult, EngineError> {
        let plan = QueryPlan::long(self, query, epsilon, SearchOptions::default())?;
        self.run_pipeline(&plan, &SeqScanSource)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::pipeline::Query;
    use tsss_data::{MarketConfig, MarketSimulator, Series};
    use tsss_geometry::scale_shift::ScaleShift;

    fn long(e: &SearchEngine, q: &[f64], epsilon: f64) -> Result<SearchResult, EngineError> {
        e.execute(q, Query::Long { epsilon }, SearchOptions::default())
    }

    fn engine() -> (SearchEngine, Vec<Series>) {
        let data = MarketSimulator::new(MarketConfig::small(4, 90, 2024)).generate();
        (
            SearchEngine::build(&data, EngineConfig::small(16)).unwrap(),
            data,
        )
    }

    #[test]
    fn long_query_finds_its_exact_source() {
        let (e, data) = engine();
        let q = data[1].window(10, 40).unwrap().to_vec(); // 2.5 windows
        let res = long(&e, &q, 1e-6).unwrap();
        assert!(res
            .matches
            .iter()
            .any(|m| m.id.series == 1 && m.id.offset == 10));
    }

    #[test]
    fn long_query_sees_through_disguises() {
        let (e, data) = engine();
        let src = data[3].window(0, 48).unwrap();
        let q = ScaleShift { a: 3.0, b: -12.0 }.apply(src);
        let res = long(&e, &q, 1e-5).unwrap();
        let hit = res
            .matches
            .iter()
            .find(|m| m.id.series == 3 && m.id.offset == 0)
            .expect("disguised long query must recover its source");
        assert!((hit.transform.a - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn long_search_matches_brute_force_exactly() {
        let (e, data) = engine();
        let q = data[0].window(20, 35).unwrap().to_vec(); // non-multiple length
        for eps in [0.1, 2.0, 10.0] {
            let fast = long(&e, &q, eps).unwrap();
            let brute = e.sequential_search_long(&q, eps).unwrap();
            assert_eq!(fast.id_set(), brute.id_set(), "eps {eps}");
        }
    }

    #[test]
    fn exact_window_length_degenerates_to_plain_search() {
        let (e, data) = engine();
        let q = data[2].window(7, 16).unwrap().to_vec();
        let stitched = long(&e, &q, 3.0).unwrap();
        let plain = e.search(&q, 3.0, SearchOptions::default()).unwrap();
        assert_eq!(stitched.id_set(), plain.id_set());
    }

    #[test]
    fn too_short_long_query_is_an_error() {
        let (e, _) = engine();
        assert!(matches!(
            long(&e, &[0.0; 10], 1.0),
            Err(EngineError::QueryTooShort { min: 16, got: 10 })
        ));
    }

    #[test]
    fn candidate_set_shrinks_with_more_pieces() {
        // A long query at high eps still verifies; the piece intersection
        // must only ever reduce false alarms, never lose matches (checked
        // against brute force in long_search_matches_brute_force_exactly).
        let (e, data) = engine();
        let q = data[1].window(0, 64).unwrap().to_vec(); // 4 pieces
        let res = long(&e, &q, 5.0).unwrap();
        let brute = e.sequential_search_long(&q, 5.0).unwrap();
        assert_eq!(res.id_set(), brute.id_set());
    }
}
