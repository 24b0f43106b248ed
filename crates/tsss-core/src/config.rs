//! Engine configuration, search options, and transformation-cost limits.

use tsss_geometry::penetration::PenetrationMethod;
use tsss_index::{SplitPolicy, TreeConfig};
use tsss_storage::DEFAULT_PAGE_SIZE;

/// Static configuration of a [`crate::SearchEngine`].
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Window length `n` — also the length of plain queries.
    pub window_len: usize,
    /// Sliding-window stride (paper: 1).
    pub stride: usize,
    /// Number of DFT coefficients kept, `Some(f_c)`; `None` indexes the full
    /// SE-transformed window (only sensible for small `n` — the paper's §7
    /// motivation for dimension reduction is that R-trees degrade past ~10
    /// dimensions).
    pub fc: Option<usize>,
    /// Page size for both the index and the data file (paper: 4 KB).
    pub page_size: usize,
    /// Maximum R-tree node entries `M` (paper: 20).
    pub max_entries: usize,
    /// Minimum R-tree node entries `m` (paper: 40 % of M = 8).
    pub min_entries: usize,
    /// Forced-reinsert count `p` (paper: 30 % of M = 6).
    pub reinsert_count: usize,
    /// Split policy (paper: R*-tree).
    pub split: SplitPolicy,
    /// How the index is constructed (query results are identical for all
    /// choices).
    pub build: BuildMethod,
}

/// Index-construction strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BuildMethod {
    /// Sort-Tile-Recursive bulk loading over the raw feature coordinates —
    /// fast and dense; what the benchmark harness uses.
    #[default]
    BulkStr,
    /// STR bulk loading over polar keys (unit direction, then norm): boxes
    /// become angular sectors, which lines through the origin — this
    /// engine's only query shape — rarely cross. An extension beyond the
    /// paper; see `bulk_load_polar`.
    BulkPolar,
    /// One-by-one R*-tree insertion — the paper's §6 pre-processing step.
    Insert,
}

impl EngineConfig {
    /// The paper's experimental configuration (§7): window 128, `f_c = 3`
    /// (6-d index), 4 KB pages, `M = 20`, `m = 8`, `p = 6`, R*-tree.
    ///
    /// The paper does not state its window length; 128 is the conventional
    /// choice in the F-index line of work it builds on (and a power of two,
    /// so the FFT fast path applies).
    pub fn paper() -> Self {
        Self {
            window_len: 128,
            stride: 1,
            fc: Some(3),
            page_size: DEFAULT_PAGE_SIZE,
            max_entries: 20,
            min_entries: 8,
            reinsert_count: 6,
            split: SplitPolicy::RStar,
            build: BuildMethod::BulkStr,
        }
    }

    /// A small configuration for tests and examples: window `n`, `f_c = 2`.
    pub fn small(window_len: usize) -> Self {
        Self {
            window_len,
            stride: 1,
            fc: Some(2),
            page_size: DEFAULT_PAGE_SIZE,
            max_entries: 8,
            min_entries: 3,
            reinsert_count: 2,
            split: SplitPolicy::RStar,
            build: BuildMethod::BulkStr,
        }
    }

    /// Dimension of the indexed feature points.
    pub fn feature_dim(&self) -> usize {
        match self.fc {
            Some(fc) => 2 * fc,
            None => self.window_len,
        }
    }

    /// The derived R-tree configuration. `max_entries`/`min_entries`/
    /// `reinsert_count` govern internal nodes (the paper's `M`, `m`, `p`);
    /// leaves pack to page capacity with the same 40 %/30 % ratios, exactly
    /// as §7 describes ("each page stores one internal node only" with
    /// `M = 20` — the leaf capacity is the page's).
    pub fn tree_config(&self) -> TreeConfig {
        let dim = self.feature_dim();
        let leaf_max =
            tsss_index::Node::max_leaf_fanout(self.page_size, dim).min(usize::from(u16::MAX));
        TreeConfig {
            dim,
            page_size: self.page_size,
            max_entries: self.max_entries,
            min_entries: self.min_entries,
            reinsert_count: self.reinsert_count,
            leaf_max_entries: leaf_max,
            leaf_min_entries: (leaf_max * 2) / 5,
            leaf_reinsert_count: (leaf_max * 3) / 10,
            split: self.split,
        }
    }

    /// Validates the configuration without panicking — the form used on
    /// untrusted (persisted) configurations, where a bad value is data
    /// corruption, not a programming error.
    ///
    /// # Errors
    /// A descriptive message for the first violated constraint.
    pub fn try_validate(&self) -> Result<(), String> {
        if self.window_len < 2 {
            return Err("window length must be at least 2".to_string());
        }
        if self.window_len > (1 << 30) {
            return Err(format!("window length {} is implausible", self.window_len));
        }
        if self.stride < 1 {
            return Err("stride must be at least 1".to_string());
        }
        if let Some(fc) = self.fc {
            if !(fc >= 1 && 2 * fc < self.window_len) {
                return Err(format!(
                    "fc = {fc} invalid for window length {} (need 1 <= fc, 2·fc + 1 <= n)",
                    self.window_len
                ));
            }
        }
        // Guard the fanout arithmetic in `tree_config` itself: a hostile
        // page size would underflow `page_size - NODE_HEADER_BYTES` there.
        if self.page_size <= tsss_index::node::NODE_HEADER_BYTES || self.page_size > (1 << 30) {
            return Err(format!("page size {} is out of range", self.page_size));
        }
        self.tree_config().try_validate()
    }

    /// Validates the configuration (delegating tree checks to
    /// [`TreeConfig::validate`]).
    ///
    /// # Panics
    /// Panics on invalid settings with a descriptive message.
    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            // analyze::allow(panic): documented `# Panics` contract — the fallible twin is `try_validate`; this wrapper exists to panic for callers who want config errors fatal.
            panic!("{e}");
        }
    }
}

/// Limits on the transformation cost, applied in post-processing (paper §3:
/// "the ranges of a and b can be regarded as the cost of the scaling and
/// shifting transformations and the maximum cost allowed can be specified by
/// the user").
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostLimit {
    /// Accepted range for the scaling factor `a` (inclusive).
    pub a_range: Option<(f64, f64)>,
    /// Accepted range for the shifting offset `b` (inclusive).
    pub b_range: Option<(f64, f64)>,
}

impl CostLimit {
    /// No limits: every `(a, b)` is acceptable.
    pub const UNLIMITED: CostLimit = CostLimit {
        a_range: None,
        b_range: None,
    };

    /// True when the transformation satisfies the limits.
    pub fn accepts(&self, a: f64, b: f64) -> bool {
        if let Some((lo, hi)) = self.a_range {
            if a < lo || a > hi {
                return false;
            }
        }
        if let Some((lo, hi)) = self.b_range {
            if b < lo || b > hi {
                return false;
            }
        }
        true
    }
}

/// What a [`crate::Query::Range`] does when the index turns out to be
/// corrupt mid-query (a page fails its checksum, a node does not decode, an
/// entry points at data that does not exist).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradationPolicy {
    /// Degrade gracefully: answer the query with the exact sequential scan
    /// over the raw data file instead, and flag the result as degraded
    /// ([`crate::SearchStats::degraded`]). The match set is identical to a
    /// healthy index's (the scan is the engine's recall oracle); only the
    /// page cost changes. The default.
    #[default]
    SeqScanFallback,
    /// Surface the corruption to the caller as
    /// [`crate::EngineError::Corrupt`]. The failed probe still feeds the
    /// engine's circuit breaker and quarantine, so repeated corrupt probes
    /// open the breaker for `SeqScanFallback` queries and show up in
    /// [`crate::SearchEngine::health`].
    Error,
    /// Like [`DegradationPolicy::Error`], but fully isolated: the corrupt
    /// probe surfaces as [`crate::EngineError::Corrupt`] and leaves the
    /// engine's circuit breaker, seqscan counter, and quarantine untouched.
    /// For callers that manage recovery themselves and must not perturb the
    /// shared health state.
    Strict,
}

/// A per-query execution deadline: deterministic page-access and
/// verification-step budgets, checked cooperatively at each pipeline stage
/// and every k-NN frontier round. No wall clock is involved, so a deadline
/// behaves identically across machines and under test. Exhaustion is the
/// typed [`crate::EngineError::DeadlineExceeded`] — a hard error, never
/// degraded around.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    /// Maximum page accesses (index plus data) the query may spend.
    pub max_pages: u64,
    /// Maximum verification steps (candidate windows fetched and fitted)
    /// the query may spend.
    pub max_steps: u64,
}

impl Deadline {
    /// A deadline bounding both pages and steps by `n` — a coarse "about
    /// this much work" knob.
    pub fn uniform(n: u64) -> Self {
        Self {
            max_pages: n,
            max_steps: n,
        }
    }
}

/// Per-query options.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SearchOptions {
    /// Penetration-checking strategy (paper experiment set 2 vs set 3).
    pub method: PenetrationMethod,
    /// Transformation-cost limits.
    pub cost: CostLimit,
    /// Optional cap on index page accesses for this query. When the
    /// traversal would visit page `budget + 1` it aborts with
    /// [`crate::EngineError::PageBudgetExceeded`] — a hard error, never
    /// degraded around (the budget bounds total work; the sequential
    /// fallback reads the whole file). A long query spends one budget
    /// across its pieces; the k-NN frontier checks it once per round and
    /// once at the end. `None` means unlimited.
    pub page_budget: Option<u64>,
    /// What to do when index corruption is detected mid-query.
    pub degradation: DegradationPolicy,
    /// Optional execution deadline (page and step budgets). `None` means
    /// unbounded.
    pub deadline: Option<Deadline>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_valid_and_six_dimensional() {
        let c = EngineConfig::paper();
        c.validate();
        assert_eq!(c.feature_dim(), 6);
        assert_eq!(c.tree_config().max_entries, 20);
    }

    #[test]
    fn full_dim_config_for_small_windows() {
        let mut c = EngineConfig::small(8);
        c.fc = None;
        c.validate();
        assert_eq!(c.feature_dim(), 8);
    }

    #[test]
    #[should_panic(expected = "fc = 4 invalid")]
    fn oversized_fc_rejected() {
        let mut c = EngineConfig::small(8);
        c.fc = Some(4);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "stride")]
    fn zero_stride_rejected() {
        let mut c = EngineConfig::small(8);
        c.stride = 0;
        c.validate();
    }

    #[test]
    fn try_validate_reports_instead_of_panicking() {
        let mut c = EngineConfig::small(8);
        c.stride = 0;
        assert!(c.try_validate().unwrap_err().contains("stride"));
        // Hostile persisted values must not panic (underflow in the fanout
        // arithmetic, absurd window lengths, …).
        let mut c = EngineConfig::small(8);
        c.page_size = 2;
        assert!(c.try_validate().unwrap_err().contains("page size"));
        let mut c = EngineConfig::small(8);
        c.window_len = usize::MAX;
        c.fc = None;
        assert!(c.try_validate().is_err());
        assert!(EngineConfig::paper().try_validate().is_ok());
    }

    #[test]
    fn cost_limit_logic() {
        let unlimited = CostLimit::UNLIMITED;
        assert!(unlimited.accepts(1e9, -1e9));
        let limited = CostLimit {
            a_range: Some((0.5, 2.0)),
            b_range: Some((-10.0, 10.0)),
        };
        assert!(limited.accepts(1.0, 0.0));
        assert!(limited.accepts(0.5, 10.0)); // boundaries inclusive
        assert!(!limited.accepts(0.49, 0.0));
        assert!(!limited.accepts(1.0, 10.01));
        let a_only = CostLimit {
            a_range: Some((0.0, 1.0)),
            b_range: None,
        };
        assert!(a_only.accepts(0.5, 1e12));
        assert!(!a_only.accepts(1.5, 0.0));
    }
}
