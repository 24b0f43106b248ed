//! The staged query pipeline: **plan → candidates → verify**.
//!
//! Every query mode — the paper's ε-range search, its k-NN ranking, long
//! queries and z-normalised search, each named by one [`Query`] value —
//! plus the sequential-scan oracles is a thin composition over the three
//! stages in this module:
//!
//! 1. **Plan** ([`QueryPlan`]): validate the query and ε once, fix the
//!    verification model and window length, and decide the degenerate
//!    constant-query case (whose SE-line collapses to the origin) exactly
//!    once, with the same test `optimal_scale_shift` applies during
//!    verification.
//! 2. **Candidates** ([`CandidateSource`]): produce the candidate window
//!    ids. Implementations: the R-tree line/radius probe
//!    ([`IndexProbe`]), the full sequential scan ([`SeqScanSource`]), and
//!    the long-query piece intersection ([`PieceStitchSource`]). The k-NN
//!    frontier drives the pipeline iteratively, pulling candidates from one
//!    resumable best-first walk of the R-tree (see [`crate::nn`]).
//! 3. **Verify** ([`Verifier`]): fetch each candidate's raw window,
//!    compute the optimal `(a, b)` fit (or the z-distance), drop false
//!    alarms, apply the user's transformation-cost limits, sort by
//!    [`SubsequenceMatch::ordering`] and assemble [`SearchStats`].
//!
//! [`SearchEngine::execute`] is the one entry point: it binds a [`Query`]
//! to the engine as a plan and picks the source. The pipeline runner
//! ([`SearchEngine::run_pipeline`]) owns the cross-cutting concerns
//! exactly once, for the k-NN frontier too: thread-local page accounting
//! scopes, the deadline meter and page budget, wall-clock timing, and the
//! translation of storage damage into typed [`EngineError::Corrupt`]
//! values (which a [`Query::Range`] may degrade around — see
//! [`crate::DegradationPolicy`]).
//!
//! Per-stage statistics have **one meaning on every path** (asserted by
//! the differential equivalence suite):
//! `stats.candidates == stats.verified + stats.false_alarms +
//! stats.cost_rejected` — every candidate the source produced is either a
//! verified match, a false alarm of the filter, or cost-rejected.

use std::collections::BTreeSet;

use tsss_geometry::scale_shift::{is_numerically_constant, QueryFit};
use tsss_index::LineQueryStats;
use tsss_storage::StatsScope;

use crate::config::{Deadline, SearchOptions};
use crate::engine::SearchEngine;
use crate::error::EngineError;
use crate::id::SubseqId;
use crate::normalized::z_distance;
use crate::result::{SearchResult, SearchStats, SubsequenceMatch};
use crate::window::window_offsets;

// ---------------------------------------------------------------------
// Stage 1: the plan
// ---------------------------------------------------------------------

/// What to search for, independent of any one engine: the query mode and
/// its threshold. [`SearchEngine::execute`] binds it to an engine as a
/// [`QueryPlan`]; a sharded engine hands the same value to every shard,
/// since each shard's plan reads that shard's own state (the z-normalised
/// plan derives its probe radius from the shard's SE-norm bound).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Query {
    /// Every window within `epsilon` under the optimal scale-shift fit —
    /// the paper's Problem 1. The only mode that degrades around detected
    /// corruption (see [`crate::DegradationPolicy`]).
    Range {
        /// The error bound ε.
        epsilon: f64,
    },
    /// The `k` windows nearest under the paper's dissimilarity (its
    /// Corollary 1), ascending; fewer when the index holds fewer windows.
    Nearest {
        /// How many neighbours to return.
        k: usize,
    },
    /// Every window within `z_eps` under z-normalised Euclidean distance,
    /// answered with the paper's index (see [`crate::normalized`]).
    ZNormalized {
        /// The z-distance threshold.
        z_eps: f64,
    },
    /// A query of at least one window, matched at its full length by
    /// piece decomposition (see [`crate::longquery`]).
    Long {
        /// The error bound ε over the full query length.
        epsilon: f64,
    },
}

/// How the verify stage decides whether a candidate window matches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VerifyModel {
    /// The paper's model: accept when the optimal scale-shift fit lands
    /// within the plan's ε (`‖F_{a,b}(Q) − S'‖₂ ≤ ε`). Matches report the
    /// fit distance.
    ScaleShift,
    /// The modern z-normalised model: accept when the z-normalised
    /// Euclidean distance is at most `z_eps`. Matches report the
    /// z-distance; the transform is still the optimal scale-shift fit.
    ZNormalized {
        /// The z-distance acceptance threshold.
        z_eps: f64,
    },
}

/// A validated, fully-decided query: what to search for, how candidates
/// are filtered in feature space, and how survivors are verified.
///
/// Construction performs *all* input validation (query length, finite
/// query values, ε) and decides the constant-query degenerate case once,
/// so candidate sources and the verifier never re-check.
#[derive(Debug, Clone)]
pub struct QueryPlan<'q> {
    query: &'q [f64],
    /// Feature-space ε used by index probes (for the z-model this is the
    /// derived absolute bound, not `z_eps`).
    epsilon: f64,
    opts: SearchOptions,
    model: VerifyModel,
    /// Raw window length fetched for verification (`window_len` for plain
    /// queries, the full query length for long queries).
    verify_len: usize,
    degenerate: bool,
}

impl<'q> QueryPlan<'q> {
    /// Plans a plain (window-length) query under the paper's scale-shift
    /// model.
    ///
    /// # Errors
    /// [`EngineError::QueryLength`] / [`EngineError::NonFiniteQuery`] /
    /// [`EngineError::InvalidEpsilon`] on malformed input.
    pub fn exact(
        engine: &SearchEngine,
        query: &'q [f64],
        epsilon: f64,
        opts: SearchOptions,
    ) -> Result<Self, EngineError> {
        let n = engine.config().window_len;
        if query.len() != n {
            return Err(EngineError::QueryLength {
                expected: n,
                got: query.len(),
            });
        }
        Self::check_values(query)?;
        Self::check_epsilon(epsilon)?;
        Ok(Self {
            query,
            epsilon,
            opts,
            model: VerifyModel::ScaleShift,
            verify_len: n,
            degenerate: is_numerically_constant(query),
        })
    }

    /// Plans a long query (at least one window; verified at full length).
    ///
    /// # Errors
    /// [`EngineError::QueryTooShort`] / [`EngineError::NonFiniteQuery`] /
    /// [`EngineError::InvalidEpsilon`] on malformed input.
    pub fn long(
        engine: &SearchEngine,
        query: &'q [f64],
        epsilon: f64,
        opts: SearchOptions,
    ) -> Result<Self, EngineError> {
        let n = engine.config().window_len;
        if query.len() < n {
            return Err(EngineError::QueryTooShort {
                min: n,
                got: query.len(),
            });
        }
        Self::check_values(query)?;
        Self::check_epsilon(epsilon)?;
        Ok(Self {
            query,
            epsilon,
            opts,
            model: VerifyModel::ScaleShift,
            verify_len: query.len(),
            degenerate: is_numerically_constant(query),
        })
    }

    /// Plans a z-normalised query: derives the sound absolute
    /// feature-space ε from `z_eps` via the angle relation (see
    /// [`crate::normalized`]), including the degenerate constant-query
    /// case (a constant query z-normalises to the zero vector, so only
    /// windows within `z_eps` of *their own* flat profile can match).
    ///
    /// Soundness: `z_dist(q, w) ≤ z_eps` bounds the angle θ between the
    /// SE-transforms (`z_eps² = 2n(1 − cos θ)`), hence
    /// `PLD(se_w, SE-line(q)) = ‖se_w‖·sin θ ≤ sin θ_max · max_norm`,
    /// where [`SearchEngine::max_se_norm`] bounds every indexed window's
    /// SE-norm — so probing with that radius never misses a qualifying
    /// window, and the verifier checks exact z-distances.
    ///
    /// # Errors
    /// [`EngineError::QueryLength`] / [`EngineError::NonFiniteQuery`] /
    /// [`EngineError::InvalidEpsilon`] on malformed input.
    pub fn znormalized(
        engine: &SearchEngine,
        query: &'q [f64],
        z_eps: f64,
        opts: SearchOptions,
    ) -> Result<Self, EngineError> {
        let n = engine.config().window_len;
        if query.len() != n {
            return Err(EngineError::QueryLength {
                expected: n,
                got: query.len(),
            });
        }
        Self::check_values(query)?;
        Self::check_epsilon(z_eps)?;
        let degenerate = is_numerically_constant(query);
        let epsilon = if degenerate {
            // z(const) = 0, so a non-constant window w has z-distance
            // ‖z(w)‖ = √n; flat windows sit at 0. Below √n only flat
            // windows can qualify — those with sd ≤ 1e-300, whose feature
            // norm is bounded by se_norm = √n·sd — so probe a ball of that
            // radius around the origin. At or beyond √n (with a relative
            // slack keeping boundary rounding on the no-false-dismissal
            // side) every window can match, so probe out to the norm bound.
            if z_eps * z_eps >= (n as f64) * (1.0 - 1e-9) {
                engine.max_se_norm()
            } else {
                (n as f64).sqrt() * 1e-300
            }
        } else {
            // z_eps² = 2n(1 − cos θ) ⇒ cos θ = 1 − z_eps²/(2n), and
            // PLD(se_w, SE-line(q)) = ‖se_w‖·sin θ ≤ sin θ_max · max_norm.
            let cos = 1.0 - z_eps * z_eps / (2.0 * n as f64);
            let sin = if cos <= 0.0 {
                1.0 // half-space or wider; only the norm bound helps
            } else {
                (1.0 - cos * cos).max(0.0).sqrt()
            };
            sin * engine.max_se_norm()
        };
        Ok(Self {
            query,
            epsilon,
            opts,
            model: VerifyModel::ZNormalized { z_eps },
            verify_len: n,
            degenerate,
        })
    }

    /// Plans a ranking (k-NN) query: no ε filter — every candidate the
    /// frontier yields is verified exactly, and only the cost limits in
    /// `opts.cost` reject.
    ///
    /// # Errors
    /// [`EngineError::QueryLength`] / [`EngineError::NonFiniteQuery`] on a
    /// malformed query.
    pub fn ranking(
        engine: &SearchEngine,
        query: &'q [f64],
        opts: SearchOptions,
    ) -> Result<Self, EngineError> {
        let n = engine.config().window_len;
        if query.len() != n {
            return Err(EngineError::QueryLength {
                expected: n,
                got: query.len(),
            });
        }
        Self::check_values(query)?;
        Ok(Self {
            query,
            epsilon: f64::INFINITY,
            opts,
            model: VerifyModel::ScaleShift,
            verify_len: n,
            degenerate: is_numerically_constant(query),
        })
    }

    fn check_values(query: &[f64]) -> Result<(), EngineError> {
        match query.iter().position(|v| !v.is_finite()) {
            Some(index) => Err(EngineError::NonFiniteQuery { index }),
            None => Ok(()),
        }
    }

    fn check_epsilon(epsilon: f64) -> Result<(), EngineError> {
        if !epsilon.is_finite() || epsilon < 0.0 {
            return Err(EngineError::InvalidEpsilon(epsilon));
        }
        Ok(())
    }

    /// The query values.
    pub fn query(&self) -> &[f64] {
        self.query
    }

    /// The feature-space ε candidate sources filter with.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The per-query options (penetration method, cost limits, budget,
    /// degradation policy).
    pub fn options(&self) -> &SearchOptions {
        &self.opts
    }

    /// How the verify stage accepts candidates.
    pub fn model(&self) -> VerifyModel {
        self.model
    }

    /// Raw window length fetched per candidate during verification.
    pub fn verify_len(&self) -> usize {
        self.verify_len
    }

    /// True when the query is numerically constant, so its SE-line
    /// degenerates to the origin and only shift-only matches exist.
    /// Decided once at plan time with the exact test verification applies.
    pub fn degenerate(&self) -> bool {
        self.degenerate
    }
}

// ---------------------------------------------------------------------
// Deadline metering
// ---------------------------------------------------------------------

/// Tracks a query's spend against its optional [`Deadline`].
///
/// The meter is the deterministic replacement for a wall-clock timeout:
/// it counts *page accesses* and *verification steps* — both exactly
/// reproducible — and the pipeline checks it cooperatively at every stage
/// boundary, once per verified candidate, per stitched long-query piece,
/// and per k-NN frontier round. A query that overruns gets a typed
/// [`EngineError::DeadlineExceeded`] carrying its spend; it is never
/// degraded around (the sequential fallback would defeat the bound).
///
/// Without a deadline the meter still counts (so [`SearchStats`] can
/// report the spend) but never fails.
#[derive(Debug, Clone, Copy)]
pub struct DeadlineMeter {
    deadline: Option<Deadline>,
    pages: u64,
    steps: u64,
}

impl DeadlineMeter {
    /// A meter enforcing `deadline` (or only counting, when `None`).
    pub fn new(deadline: Option<Deadline>) -> Self {
        Self {
            deadline,
            pages: 0,
            steps: 0,
        }
    }

    /// Charges one verification step (one candidate examined).
    ///
    /// # Errors
    /// [`EngineError::DeadlineExceeded`] when the step budget is overrun.
    pub fn charge_step(&mut self) -> Result<(), EngineError> {
        self.steps += 1;
        self.check()
    }

    /// Raises the page spend to `pages` (callers report a running total —
    /// a scope tally or node-visit count — so the spend is monotone even
    /// when both are reported for overlapping work).
    ///
    /// # Errors
    /// [`EngineError::DeadlineExceeded`] when the page budget is overrun.
    pub fn charge_pages_to(&mut self, pages: u64) -> Result<(), EngineError> {
        self.pages = self.pages.max(pages);
        self.check()
    }

    fn check(&self) -> Result<(), EngineError> {
        if let Some(d) = self.deadline {
            if self.pages > d.max_pages || self.steps > d.max_steps {
                return Err(EngineError::DeadlineExceeded {
                    pages: self.pages,
                    steps: self.steps,
                });
            }
        }
        Ok(())
    }

    /// Page accesses charged so far.
    pub fn pages(&self) -> u64 {
        self.pages
    }

    /// Verification steps charged so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }
}

// ---------------------------------------------------------------------
// Stage 2: candidate sources
// ---------------------------------------------------------------------

/// How the verify stage reads candidates' raw windows.
#[derive(Debug)]
pub enum RawAccess {
    /// Fetch each window through the paged data file (charging data-page
    /// accesses per candidate) — the indexed paths.
    Paged,
    /// Verify against a full-file snapshot the source already read (the
    /// sequential scan charges the whole file exactly once).
    Snapshot(Vec<Vec<f64>>),
}

/// The candidate stage's output: which windows to verify, how to read
/// them, and the index-traversal statistics incurred producing them.
///
/// Sources must yield each candidate id at most once (the verifier counts
/// every id against the per-stage accounting identity).
#[derive(Debug)]
pub struct Candidates {
    /// Candidate window ids, each unique.
    pub ids: Vec<SubseqId>,
    /// Index-traversal statistics accumulated while producing them.
    pub index: LineQueryStats,
    /// How the verifier reads the raw windows.
    pub raw: RawAccess,
}

/// The candidate-generation stage: everything between a validated
/// [`QueryPlan`] and the list of window ids to verify. This is the seam
/// new retrieval backends implement (sharded probes, cached frontiers,
/// alternative indexes) without touching validation or verification.
pub trait CandidateSource {
    /// Produces the candidate set for `plan` over `engine`, charging work
    /// against `meter` at natural internal boundaries (sources doing one
    /// indivisible probe may leave the meter to the pipeline runner's
    /// stage-boundary check).
    ///
    /// # Errors
    /// [`EngineError::Corrupt`] on detected storage damage;
    /// [`EngineError::PageBudgetExceeded`] when the plan's page budget
    /// runs out mid-traversal; [`EngineError::DeadlineExceeded`] when the
    /// plan's deadline fires.
    fn candidates(
        &self,
        engine: &SearchEngine,
        plan: &QueryPlan<'_>,
        meter: &mut DeadlineMeter,
    ) -> Result<Candidates, EngineError>;
}

/// The paper's §6 searching step: probe the R-tree with the query's
/// SE-line (or, for a degenerate constant query, the feature-space ball
/// around the origin — feature norms never exceed SE-norms, so no false
/// dismissals), honouring the plan's penetration method and page budget.
#[derive(Debug, Clone, Copy, Default)]
pub struct IndexProbe;

impl CandidateSource for IndexProbe {
    fn candidates(
        &self,
        engine: &SearchEngine,
        plan: &QueryPlan<'_>,
        meter: &mut DeadlineMeter,
    ) -> Result<Candidates, EngineError> {
        let outcome = if plan.degenerate() {
            engine.tree().radius_query(
                &vec![0.0; engine.config().feature_dim()],
                plan.epsilon(),
                plan.options().page_budget,
            )?
        } else {
            let line = engine.query_line(plan.query());
            engine.tree().line_query(
                &line,
                plan.epsilon(),
                plan.options().method,
                plan.options().page_budget,
            )?
        };
        // Every visited node is one index-page read; charging the visit
        // count here fires the deadline before verification starts.
        meter.charge_pages_to(outcome.stats.internal_visited + outcome.stats.leaves_visited)?;
        Ok(Candidates {
            ids: outcome
                .matches
                .iter()
                .map(|m| SubseqId::unpack(m.id))
                .collect(),
            index: outcome.stats,
            raw: RawAccess::Paged,
        })
    }
}

/// The sequential-scan oracle: every window offset is a candidate, read in
/// one pass over the raw pages. No index, no pruning — the recall baseline
/// (paper experiment set 1), the degradation fallback, and, under a long
/// plan (verified at full query length), the brute-force long-query
/// oracle.
#[derive(Debug, Clone, Copy, Default)]
pub struct SeqScanSource;

impl CandidateSource for SeqScanSource {
    fn candidates(
        &self,
        engine: &SearchEngine,
        plan: &QueryPlan<'_>,
        _meter: &mut DeadlineMeter,
    ) -> Result<Candidates, EngineError> {
        let n = plan.verify_len();
        let all = engine.read_everything()?;
        let mut ids = Vec::new();
        for (si, values) in all.iter().enumerate() {
            for off in window_offsets(values.len(), n) {
                ids.push(SubseqId::try_new(si, off)?);
            }
        }
        Ok(Candidates {
            ids,
            index: LineQueryStats::default(),
            raw: RawAccess::Snapshot(all),
        })
    }
}

/// Long-query candidate generation (paper §7, first remark, via the
/// ST-index method): partition the query into window-length pieces,
/// probe the index with each piece's SE-line at the full ε, shift each
/// piece's hits back to the would-be start of the whole match, and
/// intersect. Squared distance decomposes over disjoint ranges, so the
/// intersection never drops a true match; the verifier removes the false
/// alarms on the full-length windows.
///
/// The plan's page budget caps the index pages of all pieces together:
/// each piece's probe gets what the earlier pieces left. The decomposition
/// relies on every window offset being indexed.
#[derive(Debug, Clone, Copy, Default)]
pub struct PieceStitchSource;

impl CandidateSource for PieceStitchSource {
    fn candidates(
        &self,
        engine: &SearchEngine,
        plan: &QueryPlan<'_>,
        meter: &mut DeadlineMeter,
    ) -> Result<Candidates, EngineError> {
        let n = engine.config().window_len;
        let budget = plan.options().page_budget;
        let total_len = plan.verify_len();
        let piece_offsets: Vec<usize> = (0..=total_len - n).step_by(n).collect();

        // Piece 0 establishes the candidate starts; later pieces prune.
        let mut index = LineQueryStats::default();
        let mut candidates: Option<BTreeSet<SubseqId>> = None;
        for (pi, &poff) in piece_offsets.iter().enumerate() {
            // analyze::allow(index): piece_offsets steps by n up to total_len - n, and the plan guarantees query().len() >= total_len.
            let piece = &plan.query()[poff..poff + n];
            let line = engine.query_line(piece);
            let spent = index.internal_visited + index.leaves_visited;
            let outcome = engine
                .tree()
                .line_query(
                    &line,
                    plan.epsilon(),
                    plan.options().method,
                    budget.map(|b| b.saturating_sub(spent)),
                )
                .map_err(|e| match (e, budget) {
                    // Report the query's budget, not this piece's remainder.
                    (tsss_index::IndexError::BudgetExhausted { .. }, Some(budget)) => {
                        EngineError::PageBudgetExceeded { budget }
                    }
                    (e, _) => e.into(),
                })?;
            index.merge(&outcome.stats);
            // Cooperative per-piece check: node visits are page reads.
            meter.charge_pages_to(index.internal_visited + index.leaves_visited)?;

            let mut starts = BTreeSet::new();
            for m in outcome.matches {
                let hit = SubseqId::unpack(m.id);
                // The whole match would start `poff` values earlier.
                if hit.offset_idx() < poff {
                    continue;
                }
                #[allow(clippy::cast_possible_truncation)]
                starts.insert(SubseqId {
                    series: hit.series,
                    // analyze::allow(cast): poff < total_len, which fits u32 because windows are indexed by u32 offsets.
                    offset: hit.offset - poff as u32,
                });
            }
            candidates = Some(match candidates {
                None => starts,
                Some(prev) => {
                    debug_assert!(pi > 0);
                    prev.intersection(&starts).copied().collect()
                }
            });
            if candidates.as_ref().map(BTreeSet::is_empty).unwrap_or(false) {
                break;
            }
        }

        // Starts whose full-length window runs off the series can never
        // verify; drop them here so the verifier only sees real windows.
        let mut ids = Vec::new();
        for id in candidates.unwrap_or_default() {
            let series_len = engine.series_len(id.series_idx())?;
            if id.offset_idx() + total_len <= series_len {
                ids.push(id);
            }
        }
        Ok(Candidates {
            ids,
            index,
            raw: RawAccess::Paged,
        })
    }
}

// ---------------------------------------------------------------------
// The pipeline runner
// ---------------------------------------------------------------------

/// One query's spend: the thread-local page-accounting scopes over the
/// index and data files, and the deadline meter the stages charge. Opened
/// and stamped into the result by [`SearchEngine::accounted`].
pub(crate) struct Spend<'s> {
    index: StatsScope<'s>,
    data: StatsScope<'s>,
    page_budget: Option<u64>,
    pub(crate) meter: DeadlineMeter,
}

impl Spend<'_> {
    /// The cooperative stage-boundary check: charges the pages this thread
    /// has read so far to the deadline, and fails a query that has read
    /// more index pages than its page budget.
    pub(crate) fn charge_pages(&mut self) -> Result<(), EngineError> {
        let index = self.index.counts().total_accesses();
        self.meter
            .charge_pages_to(index + self.data.counts().total_accesses())?;
        match self.page_budget {
            Some(budget) if index > budget => Err(EngineError::PageBudgetExceeded { budget }),
            _ => Ok(()),
        }
    }
}

impl SearchEngine {
    /// Runs the full pipeline: open the thread-local page-accounting
    /// scopes, generate candidates from `source`, verify them, and stamp
    /// the page counts and wall-clock into the result.
    ///
    /// Every [`Query`] mode is a [`QueryPlan`] constructor plus this call,
    /// except the k-NN frontier, which drives the stages itself under the
    /// same accounting code (see [`crate::nn`]). The per-query counts are
    /// exact even when queries run concurrently: the scopes tally the
    /// calling thread only, while still feeding the engine's global
    /// counters.
    ///
    /// # Errors
    /// Whatever the source or verifier surfaces —
    /// [`EngineError::Corrupt`], [`EngineError::PageBudgetExceeded`],
    /// [`EngineError::DeadlineExceeded`].
    /// Degradation policy is *not* applied here; a [`Query::Range`]
    /// through [`SearchEngine::execute`] is the one place it lives.
    pub fn run_pipeline(
        &self,
        plan: &QueryPlan<'_>,
        source: &dyn CandidateSource,
    ) -> Result<SearchResult, EngineError> {
        self.accounted(plan, |spend| {
            let cands = source.candidates(self, plan, &mut spend.meter)?;
            // Stage boundary: the candidate stage's true page spend (the
            // scope tally subsumes any node-visit estimate the source
            // charged).
            spend.charge_pages()?;
            Verifier.verify(self, plan, cands, &mut spend.meter)
        })
    }

    /// Runs `stages` under one query's accounting, the only place page
    /// accounting and timing happen: opens the thread-local page scopes
    /// and the plan's deadline meter, makes the final page check of
    /// [`Spend::charge_pages`], and stamps the page counts, retries,
    /// steps, breaker state and wall-clock into the result.
    pub(crate) fn accounted(
        &self,
        plan: &QueryPlan<'_>,
        stages: impl FnOnce(&mut Spend<'_>) -> Result<SearchResult, EngineError>,
    ) -> Result<SearchResult, EngineError> {
        let t0 = std::time::Instant::now();
        let index_stats = self.index_stats();
        let data_stats = self.data_stats();
        let mut spend = Spend {
            index: index_stats.local_scope(),
            data: data_stats.local_scope(),
            page_budget: plan.options().page_budget,
            meter: DeadlineMeter::new(plan.options().deadline),
        };
        let mut res = stages(&mut spend)?;
        spend.charge_pages()?;
        let idx = spend.index.finish();
        let dat = spend.data.finish();
        res.stats.index_pages = idx.total_accesses();
        res.stats.data_pages = dat.total_accesses();
        res.stats.retries = idx.retries + dat.retries;
        res.stats.steps_spent = spend.meter.steps();
        res.stats.breaker = self.breaker_state();
        res.stats.elapsed = t0.elapsed();
        Ok(res)
    }
}

// ---------------------------------------------------------------------
// Stage 3: the verifier
// ---------------------------------------------------------------------

/// The shared post-processing stage: raw fetch, exact fit, ε and cost
/// filtering, canonical ordering, per-stage stats. Exactly one copy of
/// this logic exists for all query paths.
#[derive(Debug, Clone, Copy, Default)]
pub struct Verifier;

impl Verifier {
    /// Verifies `cands` against the plan, producing the sorted matches
    /// and the per-stage statistics (everything except the page counters
    /// and wall-clock, which the pipeline runner owns).
    ///
    /// # Errors
    /// [`EngineError::Corrupt`] when a candidate's raw window cannot be
    /// fetched or has the wrong length (a corrupt index entry pointing at
    /// a short tail window is a typed error, never a panic);
    /// [`EngineError::DeadlineExceeded`] when the plan's step budget runs
    /// out (one step is charged to `meter` per candidate examined).
    pub fn verify(
        &self,
        engine: &SearchEngine,
        plan: &QueryPlan<'_>,
        cands: Candidates,
        meter: &mut DeadlineMeter,
    ) -> Result<SearchResult, EngineError> {
        let mut stats = SearchStats {
            // analyze::allow(cast): usize → u64 widening is lossless on every supported (≤ 64-bit) target.
            candidates: cands.ids.len() as u64,
            index: cands.index,
            ..Default::default()
        };
        let len = plan.verify_len();
        let mut matches = Vec::new();
        // The query-side moments are fixed for the whole batch: hoist them
        // once so each candidate pays only the window-side passes.
        let qfit = QueryFit::new(plan.query());
        let wrong_len = |id: SubseqId, got: usize| EngineError::Corrupt {
            detail: format!(
                "window {id} has length {got} where the query needs {}",
                plan.query().len()
            ),
            page: None,
        };
        // One fetch buffer reused across candidates on the paged path, and
        // lazily-built per-series prefix arrays for the snapshot screen.
        let mut fetch_buf = Vec::new();
        let mut prefixes = PrefixCache::default();
        for id in cands.ids {
            meter.charge_step()?;
            let window: &[f64] = match &cands.raw {
                RawAccess::Paged => {
                    engine.fetch_raw_into(id, len, &mut fetch_buf)?;
                    &fetch_buf
                }
                RawAccess::Snapshot(all) => snapshot_window(all, id, len)?,
            };
            let (fit, distance) = match plan.model() {
                VerifyModel::ScaleShift => {
                    // The screened fit rejects clear misses algebraically
                    // from fused (snapshot: prefix-differenced) moment
                    // passes; every accepted fit is bit-identical to
                    // `optimal_scale_shift`, so the ε test below is the same
                    // test as before the screen existed, and every
                    // screened-out candidate would have failed it.
                    let screened = match &cands.raw {
                        RawAccess::Snapshot(all) => {
                            let (p1, p2) =
                                prefixes.moments(all, id.series_idx(), id.offset_idx(), len);
                            qfit.fit_within_sliding(window, plan.epsilon(), p1, p2)
                        }
                        RawAccess::Paged => qfit.fit_within(window, plan.epsilon()),
                    };
                    let Some(fit) = screened.map_err(|_| wrong_len(id, window.len()))? else {
                        stats.false_alarms += 1;
                        continue;
                    };
                    if fit.distance > plan.epsilon() {
                        stats.false_alarms += 1;
                        continue;
                    }
                    let d = fit.distance;
                    (fit, d)
                }
                VerifyModel::ZNormalized { z_eps } => {
                    let fit = qfit.fit(window).map_err(|_| wrong_len(id, window.len()))?;
                    let zd = z_distance(plan.query(), window)
                        .map_err(|_| wrong_len(id, window.len()))?;
                    if zd > z_eps {
                        stats.false_alarms += 1;
                        continue;
                    }
                    (fit, zd)
                }
            };
            if !plan
                .options()
                .cost
                .accepts(fit.transform.a, fit.transform.b)
            {
                stats.cost_rejected += 1;
                continue;
            }
            stats.verified += 1;
            matches.push(SubsequenceMatch {
                id,
                transform: fit.transform,
                distance,
            });
        }
        matches.sort_by(SubsequenceMatch::ordering);
        debug_assert_eq!(
            stats.candidates,
            stats.verified + stats.false_alarms + stats.cost_rejected,
            "SearchStats accounting identity violated: every candidate must \
             be counted in exactly one of verified/false_alarms/cost_rejected"
        );
        Ok(SearchResult { matches, stats })
    }
}

/// Lazily-built per-series prefix arrays of `Σv` and `Σv²`, so the
/// snapshot-verification screen gets each stride-1 window's sum and
/// sum-of-squares in O(1) instead of re-summing the ~fully-overlapping
/// window every time. Built at most once per series per query.
#[derive(Debug, Default)]
struct PrefixCache {
    per_series: Vec<Option<(Vec<f64>, Vec<f64>)>>,
}

impl PrefixCache {
    /// Prefix-endpoint pairs `((Σ before, Σ through), (Σ² before, Σ² through))`
    /// for `series[offset .. offset + len]`. The caller has already validated
    /// the coordinates via [`snapshot_window`].
    fn moments(
        &mut self,
        all: &[Vec<f64>],
        series: usize,
        offset: usize,
        len: usize,
    ) -> ((f64, f64), (f64, f64)) {
        if self.per_series.len() < all.len() {
            self.per_series.resize(all.len(), None);
        }
        // analyze::allow(index): `series` was validated against `all.len()` by snapshot_window, and `per_series` was just resized to at least that.
        let (p1, p2) = self.per_series[series].get_or_insert_with(|| {
            // analyze::allow(index): same bound — `series < all.len()` was checked by snapshot_window.
            let values = &all[series];
            let mut p1 = Vec::with_capacity(values.len() + 1);
            let mut p2 = Vec::with_capacity(values.len() + 1);
            let (mut s1, mut s2) = (0.0f64, 0.0f64);
            p1.push(s1);
            p2.push(s2);
            for &y in values {
                s1 += y;
                s2 += y * y;
                p1.push(s1);
                p2.push(s2);
            }
            (p1, p2)
        });
        let end = offset + len;
        // analyze::allow(index): snapshot_window checked `offset + len ≤ series.len()`, and the prefix arrays hold `series.len() + 1` entries.
        ((p1[offset], p1[end]), (p2[offset], p2[end]))
    }
}

/// Slices one window out of a full-file snapshot, surfacing impossible
/// coordinates as typed corruption.
fn snapshot_window(all: &[Vec<f64>], id: SubseqId, len: usize) -> Result<&[f64], EngineError> {
    let series = all
        .get(id.series_idx())
        .ok_or(EngineError::UnknownSeries(id.series_idx()))?;
    let off = id.offset_idx();
    let end = off
        .checked_add(len)
        .filter(|&e| e <= series.len())
        .ok_or_else(|| EngineError::Corrupt {
            detail: format!(
                "window {id} of length {len} exceeds series of length {}",
                series.len()
            ),
            page: None,
        })?;
    // analyze::allow(index): `end` was just checked against series.len() and `off <= end` by construction.
    Ok(&series[off..end])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use tsss_data::{MarketConfig, MarketSimulator, Series};

    fn engine() -> (SearchEngine, Vec<Series>) {
        let data = MarketSimulator::new(MarketConfig::small(4, 60, 11)).generate();
        (
            SearchEngine::build(&data, EngineConfig::small(16)).unwrap(),
            data,
        )
    }

    #[test]
    fn plan_validates_once_for_all_paths() {
        let (e, data) = engine();
        let q = data[0].window(0, 16).unwrap().to_vec();
        assert!(matches!(
            QueryPlan::exact(&e, &[0.0; 4], 1.0, SearchOptions::default()),
            Err(EngineError::QueryLength { .. })
        ));
        assert!(matches!(
            QueryPlan::exact(&e, &q, f64::NAN, SearchOptions::default()),
            Err(EngineError::InvalidEpsilon(_))
        ));
        assert!(matches!(
            QueryPlan::long(&e, &[0.0; 10], 1.0, SearchOptions::default()),
            Err(EngineError::QueryTooShort { min: 16, got: 10 })
        ));
        assert!(matches!(
            QueryPlan::znormalized(&e, &q, -1.0, SearchOptions::default()),
            Err(EngineError::InvalidEpsilon(_))
        ));
        assert!(matches!(
            QueryPlan::ranking(&e, &[0.0; 4], SearchOptions::default()),
            Err(EngineError::QueryLength { .. })
        ));
        let plan = QueryPlan::exact(&e, &q, 2.0, SearchOptions::default()).unwrap();
        assert!(!plan.degenerate());
        assert_eq!(plan.verify_len(), 16);
        assert_eq!(plan.epsilon(), 2.0);
    }

    #[test]
    fn non_finite_query_values_are_rejected_by_every_mode() {
        let (e, data) = engine();
        let opts = SearchOptions::default();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut q = data[0].window(0, 16).unwrap().to_vec();
            q[7] = bad;
            let mut long = data[0].window(0, 40).unwrap().to_vec();
            long[23] = bad;
            let want = |index| Err(EngineError::NonFiniteQuery { index });
            for query in [
                Query::Range { epsilon: 1e9 },
                Query::Nearest { k: 3 },
                Query::ZNormalized { z_eps: 1.0 },
            ] {
                assert_eq!(e.execute(&q, query, opts), want(7), "{query:?}, {bad}");
            }
            let query = Query::Long { epsilon: 1e9 };
            assert_eq!(e.execute(&long, query, opts), want(23), "{bad}");
            assert_eq!(e.sequential_search(&q, 1e9, opts), want(7), "{bad}");
            assert_eq!(e.sequential_search_long(&long, 1e9), want(23), "{bad}");
        }
    }

    #[test]
    fn constant_query_degeneracy_is_decided_at_plan_time() {
        let (e, _) = engine();
        let flat = vec![5.0; 16];
        let plan = QueryPlan::exact(&e, &flat, 1.0, SearchOptions::default()).unwrap();
        assert!(plan.degenerate());
        // The same test optimal_scale_shift applies: a hair of noise below
        // the relative tolerance still counts as constant.
        let mut nearly = vec![50.0; 16];
        nearly[3] += 5e-12;
        assert!(QueryPlan::exact(&e, &nearly, 1.0, SearchOptions::default())
            .unwrap()
            .degenerate());
    }

    #[test]
    fn deadline_meter_passes_at_exactly_budget_and_fails_one_past_it() {
        // The boundary semantics of `DeadlineMeter::check`: spend == budget
        // passes (the comparison is strict `>`), budget + 1 fails.
        let d = Deadline {
            max_pages: 3,
            max_steps: 2,
        };
        // Steps: exactly the budget is fine …
        let mut m = DeadlineMeter::new(Some(d));
        m.charge_step().unwrap();
        m.charge_step().unwrap();
        assert_eq!(m.steps(), 2);
        // … one past it is the typed error carrying the spend.
        assert_eq!(
            m.charge_step().unwrap_err(),
            EngineError::DeadlineExceeded { pages: 0, steps: 3 }
        );
        // Pages: raising to exactly the budget is fine, past it fails.
        let mut m = DeadlineMeter::new(Some(d));
        m.charge_pages_to(3).unwrap();
        assert_eq!(m.pages(), 3);
        assert_eq!(
            m.charge_pages_to(4).unwrap_err(),
            EngineError::DeadlineExceeded { pages: 4, steps: 0 }
        );
        // charge_pages_to is monotone: a lower report never rolls back.
        let mut m = DeadlineMeter::new(Some(d));
        m.charge_pages_to(2).unwrap();
        m.charge_pages_to(1).unwrap();
        assert_eq!(m.pages(), 2);
        // Zero budgets reject the first unit of work…
        let mut m = DeadlineMeter::new(Some(Deadline {
            max_pages: 0,
            max_steps: 0,
        }));
        assert!(m.charge_step().is_err());
        // …and an unbounded meter only counts.
        let mut m = DeadlineMeter::new(None);
        for _ in 0..1000 {
            m.charge_step().unwrap();
        }
        m.charge_pages_to(1 << 40).unwrap();
        assert_eq!(m.steps(), 1000);
        assert_eq!(m.pages(), 1 << 40);
    }

    #[test]
    fn index_probe_and_seqscan_agree_through_the_pipeline() {
        let (e, data) = engine();
        let q = data[1].window(8, 16).unwrap().to_vec();
        let plan = QueryPlan::exact(&e, &q, 3.0, SearchOptions::default()).unwrap();
        let fast = e.run_pipeline(&plan, &IndexProbe).unwrap();
        let slow = e.run_pipeline(&plan, &SeqScanSource).unwrap();
        assert_eq!(fast.id_set(), slow.id_set());
        assert_eq!(fast.matches, slow.matches);
        for r in [&fast, &slow] {
            assert_eq!(
                r.stats.candidates,
                r.stats.verified + r.stats.false_alarms + r.stats.cost_rejected
            );
        }
        // The scan considered every window; the probe pruned.
        assert_eq!(slow.stats.candidates as usize, e.num_windows());
        assert!(fast.stats.candidates <= slow.stats.candidates);
    }

    #[test]
    fn verifier_reports_short_windows_as_typed_corruption() {
        let (e, data) = engine();
        let q = data[0].window(0, 16).unwrap().to_vec();
        let plan = QueryPlan::exact(&e, &q, 1.0, SearchOptions::default()).unwrap();
        // A candidate pointing past the series tail: the snapshot fetch
        // must fail typed, not panic.
        let bogus = Candidates {
            ids: vec![SubseqId {
                series: 0,
                offset: (data[0].len() - 4) as u32,
            }],
            index: LineQueryStats::default(),
            raw: RawAccess::Snapshot(data.iter().map(|s| s.values.clone()).collect()),
        };
        let err = Verifier
            .verify(&e, &plan, bogus, &mut DeadlineMeter::new(None))
            .unwrap_err();
        assert!(err.is_corruption(), "{err:?}");
        // Same through the paged path.
        let bogus = Candidates {
            ids: vec![SubseqId {
                series: 0,
                offset: (data[0].len() - 4) as u32,
            }],
            index: LineQueryStats::default(),
            raw: RawAccess::Paged,
        };
        let err = Verifier
            .verify(&e, &plan, bogus, &mut DeadlineMeter::new(None))
            .unwrap_err();
        assert!(err.is_corruption(), "{err:?}");
    }

    #[test]
    fn custom_candidate_sources_compose_with_the_pipeline() {
        // A hand-rolled source (the seam future backends implement): only
        // windows of series 0 are candidates.
        struct SeriesZeroOnly;
        impl CandidateSource for SeriesZeroOnly {
            fn candidates(
                &self,
                engine: &SearchEngine,
                _plan: &QueryPlan<'_>,
                _meter: &mut DeadlineMeter,
            ) -> Result<Candidates, EngineError> {
                let len = engine.series_len(0)?;
                let n = engine.config().window_len;
                Ok(Candidates {
                    ids: window_offsets(len, n)
                        .map(|off| SubseqId::try_new(0, off))
                        .collect::<Result<_, _>>()?,
                    index: LineQueryStats::default(),
                    raw: RawAccess::Paged,
                })
            }
        }
        let (e, data) = engine();
        let q = data[0].window(5, 16).unwrap().to_vec();
        let plan = QueryPlan::exact(&e, &q, 2.0, SearchOptions::default()).unwrap();
        let scoped = e.run_pipeline(&plan, &SeriesZeroOnly).unwrap();
        let full = e.run_pipeline(&plan, &SeqScanSource).unwrap();
        assert!(scoped.matches.iter().all(|m| m.id.series == 0));
        let full_zero: Vec<_> = full
            .matches
            .iter()
            .filter(|m| m.id.series == 0)
            .cloned()
            .collect();
        assert_eq!(scoped.matches, full_zero);
    }
}
