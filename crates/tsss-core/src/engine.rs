//! The indexed search engine — the paper's §6 algorithm end to end.

use std::collections::BTreeSet;
use std::sync::Mutex;

use tsss_data::Series;
use tsss_dft::FeatureExtractor;
use tsss_geometry::line::Line;
use tsss_geometry::se::se_transform_into;
use tsss_index::bulk::bulk_load;
use tsss_index::{DataEntry, RTree};

use crate::config::{EngineConfig, SearchOptions};
use crate::datafile::PagedSeriesStore;
use crate::error::EngineError;
use crate::id::SubseqId;
use crate::pipeline::{IndexProbe, PieceStitchSource, Query, QueryPlan};
use crate::recovery::{BreakerState, CircuitBreaker, HealthReport, RepairReport};
use crate::result::SearchResult;
use crate::window::window_offsets;

/// The scale-shift similarity search engine.
///
/// Owns two paged files — the R*-tree index and the raw-series data file —
/// so every page the algorithm touches is accounted (Figure 5's metric),
/// plus the SE + DFT feature pipeline (Theorems 2–3 machinery).
///
/// ```
/// use tsss_core::{EngineConfig, Query, SearchEngine, SearchOptions};
/// use tsss_data::Series;
///
/// let wave: Vec<f64> = (0..64).map(|i| (i as f64 * 0.4).sin() * 5.0 + 20.0).collect();
/// let data = vec![Series::new("wave", wave.clone())];
/// let engine = SearchEngine::build(&data, EngineConfig::small(16)).unwrap();
///
/// // A scaled + shifted copy of days 10..26 finds its source.
/// let query: Vec<f64> = wave[10..26].iter().map(|v| 3.0 * v - 7.0).collect();
/// let range = Query::Range { epsilon: 1e-6 };
/// let hits = engine.execute(&query, range, SearchOptions::default()).unwrap();
/// assert_eq!(hits.matches[0].id.offset, 10);
/// ```
#[derive(Debug)]
pub struct SearchEngine {
    cfg: EngineConfig,
    extractor: Option<FeatureExtractor>,
    tree: RTree,
    store: PagedSeriesStore,
    /// Upper bound on the SE-norm of any indexed window, widened by every
    /// insert that lands and recomputed by [`SearchEngine::repair`]. Used by the
    /// z-normalised search to derive a sound absolute ε; see `normalized`.
    max_se_norm: f64,
    /// The recovery circuit breaker (see [`crate::recovery`]): trips open
    /// after repeated corrupt index probes, routes fallback-policy queries
    /// straight to the sequential scan, and half-opens to re-test the index.
    breaker: CircuitBreaker,
    /// Storage pages implicated in corrupt probes, awaiting
    /// [`SearchEngine::repair`].
    quarantine: Mutex<BTreeSet<u32>>,
    /// True when a failed [`SearchEngine::append_values`] left values in the
    /// append-only data file whose windows never reached the index — queries
    /// silently miss that tail until [`SearchEngine::repair`] re-indexes it.
    /// Surfaced through [`SearchEngine::health`].
    append_tail_unindexed: bool,
    /// Tree insertions since the last bulk (re)build. One-at-a-time R*
    /// insertion degrades page locality versus the STR bulk load — the
    /// build-method ablation (results/ablation_build.txt) measures an
    /// insertion-built tree at ~7.7× the query pages of the STR one — so
    /// [`SearchEngine::str_rebuild_due`] flags when enough appends have
    /// accumulated that a background [`SearchEngine::repair`] pays for
    /// itself.
    inserts_since_rebuild: u64,
}

impl SearchEngine {
    /// Builds an engine over `data` (the paper's pre-processing step):
    /// slide, SE-transform, extract features, index.
    ///
    /// Series shorter than one window are stored (they may grow later via
    /// [`SearchEngine::append_values`]) but contribute no windows yet.
    ///
    /// # Errors
    /// [`EngineError::TooLarge`] when a series index or window offset does
    /// not fit the packed `u32` window id.
    pub fn build(data: &[Series], cfg: EngineConfig) -> Result<Self, EngineError> {
        cfg.validate();
        let extractor = cfg.fc.map(|fc| FeatureExtractor::new(cfg.window_len, fc));
        let mut store = PagedSeriesStore::new(cfg.page_size);
        for s in data {
            store.add_series_with_values(s.name.clone(), &s.values)?;
        }
        let (tree, max_se_norm) =
            index_windows(&cfg, &extractor, data.iter().map(|s| s.values.as_slice()))?;

        Ok(Self {
            cfg,
            extractor,
            tree,
            store,
            max_se_norm,
            breaker: CircuitBreaker::default(),
            quarantine: Mutex::new(BTreeSet::new()),
            append_tail_unindexed: false,
            inserts_since_rebuild: 0,
        })
    }

    /// Reassembles an engine from persisted or forked parts, with a fresh
    /// breaker, quarantine and insert count.
    pub(crate) fn from_parts(
        cfg: EngineConfig,
        tree: RTree,
        store: PagedSeriesStore,
        max_se_norm: f64,
    ) -> Self {
        let extractor = cfg.fc.map(|fc| FeatureExtractor::new(cfg.window_len, fc));
        Self {
            cfg,
            extractor,
            tree,
            store,
            max_se_norm,
            breaker: CircuitBreaker::default(),
            quarantine: Mutex::new(BTreeSet::new()),
            append_tail_unindexed: false,
            inserts_since_rebuild: 0,
        }
    }

    /// A copy-on-write twin of the engine: its index and data file fork
    /// their pages (one pointer per page, nothing serialized), so the
    /// twin answers every query exactly as a save and reload would, page
    /// counts included. Like a reload it starts with a closed breaker, an
    /// empty quarantine and fresh counters; unlike one it keeps the index
    /// state a reload cannot see — the unindexed-tail flag and
    /// [`SearchEngine::inserts_since_rebuild`], so
    /// [`SearchEngine::str_rebuild_due`] keeps counting on a twin that
    /// grows by insertion. Neither engine sees the other's later
    /// mutations or damage.
    pub fn fork(&self) -> SearchEngine {
        let mut twin = Self::from_parts(
            self.cfg.clone(),
            self.tree.fork(),
            self.store.fork(),
            self.max_se_norm,
        );
        twin.append_tail_unindexed = self.append_tail_unindexed;
        twin.inserts_since_rebuild = self.inserts_since_rebuild;
        twin
    }

    /// Upper bound on the SE-norm (fluctuation energy) of any window ever
    /// indexed.
    pub fn max_se_norm(&self) -> f64 {
        self.max_se_norm
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Number of series stored.
    pub fn num_series(&self) -> usize {
        self.store.num_series()
    }

    /// Number of indexed windows.
    pub fn num_windows(&self) -> usize {
        self.tree.len()
    }

    /// Number of data-file pages (what a sequential scan reads).
    pub fn data_page_count(&self) -> usize {
        self.store.page_count()
    }

    /// Height of the index tree.
    pub fn index_height(&self) -> usize {
        self.tree.height()
    }

    /// Index-file access counters.
    pub fn index_stats(&self) -> std::sync::Arc<tsss_storage::AccessStats> {
        self.tree.stats()
    }

    /// Data-file access counters.
    pub fn data_stats(&self) -> std::sync::Arc<tsss_storage::AccessStats> {
        self.store.stats()
    }

    /// Resets both files' access counters (between benchmark queries).
    pub fn reset_counters(&self) {
        self.tree.stats().reset();
        self.store.stats().reset();
    }

    // ------------------------------------------------------------------
    // Fault injection & corruption hooks (chaos tests, resilience drills)
    // ------------------------------------------------------------------

    /// Wraps the index's page store in a deterministic fault-injecting
    /// decorator (seeded by `cfg.seed`). Returns the shared counters
    /// recording every fault fired.
    pub fn inject_index_faults(
        &mut self,
        cfg: tsss_storage::FaultConfig,
    ) -> std::sync::Arc<tsss_storage::FaultCounters> {
        let mut counters = None;
        self.tree.wrap_store(|inner| {
            let faulty = tsss_storage::FaultyStore::new(inner, cfg);
            counters = Some(faulty.counters());
            Box::new(faulty)
        });
        // analyze::allow(panic): wrap_store invokes the closure exactly once, synchronously, so the Option is Some by construction.
        counters.expect("wrap_store runs the closure")
    }

    /// Like [`SearchEngine::inject_index_faults`], for the raw-data file.
    pub fn inject_data_faults(
        &mut self,
        cfg: tsss_storage::FaultConfig,
    ) -> std::sync::Arc<tsss_storage::FaultCounters> {
        let mut counters = None;
        self.store.wrap_store(|inner| {
            let faulty = tsss_storage::FaultyStore::new(inner, cfg);
            counters = Some(faulty.counters());
            Box::new(faulty)
        });
        // analyze::allow(panic): wrap_store invokes the closure exactly once, synchronously, so the Option is Some by construction.
        counters.expect("wrap_store runs the closure")
    }

    /// Mutates the raw bytes of index page `page` in place, beneath the
    /// checksum layer — the next read of that page fails verification.
    ///
    /// # Errors
    /// [`EngineError::Corrupt`] when the page does not exist.
    pub fn corrupt_index_page(
        &mut self,
        page: u32,
        f: &mut dyn FnMut(&mut [u8]),
    ) -> Result<(), EngineError> {
        self.tree.corrupt_page(tsss_storage::PageId(page), f)?;
        Ok(())
    }

    /// Number of pages in the index file (for picking corruption targets).
    pub fn index_extent(&self) -> usize {
        self.tree.extent()
    }

    /// Reads every stored series back through the checksummed page path —
    /// a full data-file scrub that surfaces any latent page corruption as
    /// [`EngineError::Corrupt`].
    ///
    /// # Errors
    /// [`EngineError::Corrupt`] when any data page fails verification.
    pub fn read_everything(&self) -> Result<Vec<Vec<f64>>, EngineError> {
        self.store.read_everything()
    }

    /// Read access to the underlying tree (queries, white-box tests).
    pub fn tree(&self) -> &RTree {
        &self.tree
    }

    /// Mutable access to the underlying tree (white-box tests, benches).
    pub fn tree_mut(&mut self) -> &mut RTree {
        &mut self.tree
    }

    /// Read access to the underlying data file (baselines, persistence).
    pub(crate) fn store(&self) -> &PagedSeriesStore {
        &self.store
    }

    /// Computes the feature-space query line (the SE-line of the query after
    /// dimension reduction).
    pub(crate) fn query_line(&self, query: &[f64]) -> Line {
        let mut se_buf = vec![0.0; self.cfg.window_len];
        let feat = feature_of(&self.extractor, query, &mut se_buf);
        Line::scaling(&feat)
    }

    /// Fetches a raw window for verification into a reused buffer (cleared
    /// first), charging data pages; the verifier pays one allocation per
    /// query instead of one per candidate.
    pub(crate) fn fetch_raw_into(
        &self,
        id: SubseqId,
        len: usize,
        out: &mut Vec<f64>,
    ) -> Result<(), EngineError> {
        self.store
            .fetch_window_into(id.series_idx(), id.offset_idx(), len, out)
    }

    /// The length of the series with index `s`.
    ///
    /// # Errors
    /// [`EngineError::UnknownSeries`] for a bad index.
    pub fn series_len(&self, s: usize) -> Result<usize, EngineError> {
        self.store.series_len(s)
    }

    /// The name of the series with index `s`, as stored in the data file.
    ///
    /// # Errors
    /// [`EngineError::UnknownSeries`] for a bad index.
    pub fn series_name(&self, s: usize) -> Result<&str, EngineError> {
        self.store.series_name(s)
    }

    // ------------------------------------------------------------------
    // Dynamic maintenance (paper §3, requirement 2)
    // ------------------------------------------------------------------

    /// Adds a brand-new series, indexing all of its windows. Returns the
    /// series index.
    ///
    /// # Errors
    /// [`EngineError::TooLarge`] when the data set outgrows the packed
    /// `u32` window ids.
    pub fn append_series(&mut self, series: &Series) -> Result<usize, EngineError> {
        let si = self.store.add_series(series.name.clone());
        if !series.values.is_empty() {
            self.append_values(si, &series.values)?;
        }
        Ok(si)
    }

    /// Appends freshly-collected values to an existing series and indexes
    /// every newly-completed window (including the ones spanning the old
    /// tail).
    ///
    /// The length overflow check runs **before** the data file is touched,
    /// so a rejected append leaves the engine exactly as it was. An error
    /// *after* the data landed (a failed fetch or tree insert mid-loop)
    /// leaves the appended values stored but their tail windows unindexed;
    /// the engine records that partial state and
    /// [`SearchEngine::health`] reports it (`append_tail_unindexed`) until
    /// [`SearchEngine::repair`] re-indexes everything from the data file.
    ///
    /// # Errors
    /// [`EngineError::UnknownSeries`] for a bad index;
    /// [`EngineError::TooLarge`] when the grown series length would
    /// overflow (matching the `SubseqId::try_new` overflow discipline);
    /// [`EngineError::Corrupt`] when storage fails mid-append.
    pub fn append_values(&mut self, series: usize, values: &[f64]) -> Result<(), EngineError> {
        let old_len = self.store.series_len(series)?;
        let new_len = old_len
            .checked_add(values.len())
            .ok_or(EngineError::TooLarge {
                what: "series length",
                value: old_len,
            })?;
        self.store.append(series, values)?;
        // From here on the values are in the data file: any indexing error
        // leaves an unindexed tail, which must be surfaced, not swallowed.
        let result = self.index_appended_windows(series, old_len, new_len);
        if result.is_err() {
            self.append_tail_unindexed = true;
        }
        result
    }

    /// Indexes the windows completed by an append that grew `series` from
    /// `old_len` to `new_len` values (the tail of [`SearchEngine::append_values`]):
    /// one read of the appended tail, one index batch
    /// ([`RTree::insert_batch`]).
    fn index_appended_windows(
        &mut self,
        series: usize,
        old_len: usize,
        new_len: usize,
    ) -> Result<(), EngineError> {
        let n = self.cfg.window_len;
        // The first offset whose window ends in the appended region; every
        // earlier window was indexed before.
        let first = old_len.saturating_sub(n - 1);
        let Some(span) = new_len.checked_sub(first).filter(|&span| span >= n) else {
            return Ok(()); // the append completes no window
        };
        let tail = self.store.fetch_window(series, first, span)?;
        let mut se_buf = vec![0.0; n];
        let mut entries = Vec::new();
        let mut norms = Vec::new();
        for (k, window) in tail.windows(n).enumerate() {
            let id = SubseqId::try_new(series, first + k)?;
            let feat = feature_of(&self.extractor, window, &mut se_buf);
            entries.push(DataEntry::new(feat, id.pack()));
            norms.push(tsss_geometry::se::se_norm(window));
        }
        let indexed = self.tree.len();
        let result = self.tree.insert_batch(entries);
        // Count, and widen the z-probe bound for, only the windows whose
        // insert landed: a failed insert must not loosen the bound for a
        // window that never became searchable.
        let landed = self.tree.len().saturating_sub(indexed);
        for norm in norms.into_iter().take(landed) {
            self.inserts_since_rebuild += 1;
            self.max_se_norm = self.max_se_norm.max(norm);
        }
        Ok(result?)
    }

    // ------------------------------------------------------------------
    // Search (the paper's §6 searching + post-processing steps)
    // ------------------------------------------------------------------

    /// Answers `query` over the query values — the one way to run a
    /// query. The engine-independent [`Query`] is bound to this engine as
    /// a [`QueryPlan`] (all input validation happens there) and run
    /// through the staged pipeline ([`crate::pipeline`]):
    ///
    /// * [`Query::Range`] — the paper's §6 algorithm: probe the R-tree
    ///   with the query's SE-line, then verify every survivor's optimal
    ///   `(a, b)` and exact distance;
    /// * [`Query::Nearest`] — the filter-and-refine k-NN frontier
    ///   ([`crate::nn`]);
    /// * [`Query::ZNormalized`] — the same probe at the radius the
    ///   z-normalised plan derives, verified by z-distance
    ///   ([`crate::normalized`]);
    /// * [`Query::Long`] — per-piece probes intersected, verified at full
    ///   length ([`crate::longquery`]).
    ///
    /// Matches are sorted by [`crate::SubsequenceMatch::ordering`]
    /// (ascending distance). Takes `&self`: the whole read path is
    /// thread-safe, and the per-query page counts in
    /// [`crate::result::SearchStats`] are exact even when other queries run
    /// concurrently (see [`SearchEngine::execute_batch`]).
    ///
    /// When corruption is detected mid-way through a [`Query::Range`] (a
    /// page fails its checksum, a node does not decode, an index entry
    /// points at data that does not exist), the behaviour follows
    /// `opts.degradation`: by default the query is re-answered by the exact
    /// sequential scan and the result is flagged
    /// [`crate::result::SearchStats::degraded`]; under
    /// [`crate::DegradationPolicy::Error`] the typed error surfaces instead
    /// (still feeding the breaker and quarantine), and under
    /// [`crate::DegradationPolicy::Strict`] it surfaces without touching
    /// either. The other modes always surface corruption as the typed
    /// error. A [`EngineError::PageBudgetExceeded`] or
    /// [`EngineError::DeadlineExceeded`] abort is always a hard error —
    /// both bound total work, which the full-file fallback would not.
    ///
    /// Repeated corrupt range probes trip the engine's circuit breaker
    /// (see [`crate::recovery`]): once open, fallback-policy range queries
    /// skip the doomed probe and go straight to the scan until a half-open
    /// probe or a [`SearchEngine::repair`] proves the index healthy again.
    ///
    /// # Errors
    /// [`EngineError::QueryLength`], [`EngineError::QueryTooShort`] or
    /// [`EngineError::InvalidEpsilon`] on malformed input;
    /// [`EngineError::PageBudgetExceeded`] when `opts.page_budget` runs
    /// out; [`EngineError::DeadlineExceeded`] when `opts.deadline` fires;
    /// [`EngineError::Corrupt`] on detected corruption that is not
    /// degraded around, or when the fallback scan itself hits corrupt data
    /// pages.
    pub fn execute(
        &self,
        values: &[f64],
        query: Query,
        opts: SearchOptions,
    ) -> Result<SearchResult, EngineError> {
        match query {
            Query::Range { epsilon } => self.range_search(values, epsilon, opts),
            Query::Nearest { k } => self.knn_search(values, k, opts),
            Query::ZNormalized { z_eps } => {
                let plan = QueryPlan::znormalized(self, values, z_eps, opts)?;
                self.run_pipeline(&plan, &IndexProbe)
            }
            Query::Long { epsilon } => {
                let plan = QueryPlan::long(self, values, epsilon, opts)?;
                self.run_pipeline(&plan, &PieceStitchSource)
            }
        }
    }

    /// [`SearchEngine::execute`] of a [`Query::Range`].
    ///
    /// # Errors
    /// As [`SearchEngine::execute`].
    pub fn search(
        &self,
        query: &[f64],
        epsilon: f64,
        opts: SearchOptions,
    ) -> Result<SearchResult, EngineError> {
        self.execute(query, Query::Range { epsilon }, opts)
    }

    /// [`SearchEngine::execute`] of a [`Query::Nearest`].
    ///
    /// # Errors
    /// As [`SearchEngine::execute`].
    pub fn nearest_search_opts(
        &self,
        query: &[f64],
        k: usize,
        opts: SearchOptions,
    ) -> Result<SearchResult, EngineError> {
        self.execute(query, Query::Nearest { k }, opts)
    }

    /// A [`Query::Range`]: the indexed composition (plan, R-tree probe,
    /// verify), degraded around detected corruption per `opts.degradation`.
    fn range_search(
        &self,
        query: &[f64],
        epsilon: f64,
        opts: SearchOptions,
    ) -> Result<SearchResult, EngineError> {
        use crate::config::DegradationPolicy;
        // An open breaker: fallback-policy queries skip the doomed probe.
        if opts.degradation == DegradationPolicy::SeqScanFallback && !self.breaker.allows_probe() {
            let mut res = self.sequential_search(query, epsilon, opts)?;
            res.stats.degraded = true;
            res.stats.degraded_reason =
                Some("circuit breaker open: index probes suspended".to_string());
            self.breaker.record_seqscan_served();
            res.stats.breaker = self.breaker.state();
            return Ok(res);
        }
        let indexed = QueryPlan::exact(self, query, epsilon, opts)
            .and_then(|plan| self.run_pipeline(&plan, &IndexProbe));
        match indexed {
            Ok(mut res) => {
                if opts.degradation != DegradationPolicy::Strict {
                    self.breaker.record_probe_success();
                    res.stats.breaker = self.breaker.state();
                }
                Ok(res)
            }
            Err(e) if e.is_corruption() => match opts.degradation {
                DegradationPolicy::Strict => Err(e),
                DegradationPolicy::Error => {
                    self.note_corruption(&e);
                    self.breaker.record_probe_corrupt();
                    Err(e)
                }
                DegradationPolicy::SeqScanFallback => {
                    self.note_corruption(&e);
                    self.breaker.record_probe_corrupt();
                    let mut res = self.sequential_search(query, epsilon, opts)?;
                    res.stats.degraded = true;
                    res.stats.degraded_reason = Some(e.to_string());
                    self.breaker.record_seqscan_served();
                    res.stats.breaker = self.breaker.state();
                    Ok(res)
                }
            },
            other => other,
        }
    }

    /// Quarantines the page a corruption error implicates, if it named one.
    fn note_corruption(&self, e: &EngineError) {
        if let EngineError::Corrupt { page: Some(p), .. } = e {
            // Poison recovery: the set only ever grows; a panicking holder
            // cannot leave it torn in a way that matters to an insert.
            self.quarantine
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .insert(*p);
        }
    }

    /// The circuit breaker's current position.
    pub fn breaker_state(&self) -> BreakerState {
        self.breaker.state()
    }

    /// Tree insertions accumulated since the last bulk (re)build.
    pub fn inserts_since_rebuild(&self) -> u64 {
        self.inserts_since_rebuild
    }

    /// True when enough one-at-a-time insertions have accumulated since the
    /// last bulk build that a background STR rebuild
    /// ([`SearchEngine::repair`]) pays for itself.
    ///
    /// The build-method ablation (`results/ablation_build.txt`, 500 series
    /// at ε = 0) measures 251.9 query pages for the STR-built tree against
    /// 1930.2 for the insertion-built one — a ~7.7× locality penalty — so
    /// once the insert-grown fraction of the tree is no longer marginal
    /// (an eighth of all windows, floored at 256 so tiny engines never
    /// churn) the rebuild is worth its one-off cost.
    pub fn str_rebuild_due(&self) -> bool {
        let windows = u64::try_from(self.num_windows()).unwrap_or(u64::MAX);
        self.inserts_since_rebuild >= (windows / 8).max(256)
    }

    /// A point-in-time health report: breaker position, strike and trip
    /// counts, quarantined pages, and transient-fault retry totals — what
    /// the `tsss health` subcommand prints.
    pub fn health(&self) -> HealthReport {
        HealthReport {
            breaker: self.breaker.state(),
            strikes: self.breaker.strikes(),
            seqscan_served: self.breaker.seqscan_served(),
            breaker_trips: self.breaker.trips(),
            quarantined_pages: self
                .quarantine
                .lock()
                // Poison recovery: advisory read of a grow-only set.
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .iter()
                .copied()
                .collect(),
            index_retries: self.index_stats().retries(),
            data_retries: self.data_stats().retries(),
            append_tail_unindexed: self.append_tail_unindexed,
            // A bare engine has no log; the durable wrapper overrides these.
            wal_tail_records: 0,
            wal_replayed: 0,
        }
    }

    /// Rebuilds the index online from the authoritative data file (the
    /// same bulk loader the configured [`crate::BuildMethod`] uses), then
    /// clears the quarantine and closes the circuit breaker.
    ///
    /// The data file is the source of truth: every window it holds is
    /// re-indexed, so an index lost to corruption is fully reconstructed
    /// over the same universe the sequential fallback answers from. The
    /// old index file, along with any injected fault decorator wrapping
    /// it, is discarded.
    ///
    /// # Errors
    /// [`EngineError::Corrupt`] when the data file itself is damaged —
    /// repair can rebuild the index, not the data.
    pub fn repair(&mut self) -> Result<RepairReport, EngineError> {
        let all = self.store.read_everything()?;
        let (tree, max_se_norm) =
            index_windows(&self.cfg, &self.extractor, all.iter().map(Vec::as_slice))?;
        self.tree = tree;
        let windows_reindexed = self.tree.len();
        self.max_se_norm = max_se_norm;
        self.append_tail_unindexed = false;
        self.inserts_since_rebuild = 0;
        let quarantine_cleared: Vec<u32> =
            // Poison recovery: repair replaces the whole set anyway.
            std::mem::take(
                &mut *self
                    .quarantine
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner),
            )
                .into_iter()
                .collect();
        self.breaker.reset();
        Ok(RepairReport {
            windows_reindexed,
            quarantine_cleared,
        })
    }

    /// Answers `query` for each of `queries`, fanning them over `workers`
    /// scoped threads (capped at the batch size; `0` is treated as `1`,
    /// which runs serially on the calling thread), and returns every
    /// query's own outcome in query order: one query exhausting its
    /// deadline (or hitting corruption under a surfacing policy) does not
    /// poison the rest of the batch.
    ///
    /// Each outcome is identical to calling [`SearchEngine::execute`] on
    /// that query alone — including the per-query
    /// `index_pages`/`data_pages` counts, which are tallied by thread-local
    /// scopes and therefore unaffected by interleaving. Summed over the
    /// batch they equal the global counter increase.
    pub fn execute_batch(
        &self,
        queries: &[Vec<f64>],
        query: Query,
        opts: SearchOptions,
        workers: usize,
    ) -> Vec<Result<SearchResult, EngineError>> {
        work_steal(queries, workers, |q| self.execute(q, query, opts))
    }
}

/// Maps `f` over `items` on up to `workers` scoped threads and returns the
/// outcomes in item order — the crate's one thread fan-out, shared by the
/// batch paths and the sharded scatter. Threads claim the next unclaimed
/// index off one atomic ticket until none remain. One item or one worker
/// (`0` counts as one) runs inline on the calling thread, spawning
/// nothing.
pub(crate) fn work_steal<T: Sync, R: Send>(
    items: &[T],
    workers: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let workers = workers.max(1).min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut claimed: Vec<(usize, R)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        // Relaxed: the ticket counter only needs each claim
                        // to be unique; results are published by the join
                        // below, not by this atomic.
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        local.push((i, f(item)));
                    }
                    local
                })
            })
            .collect();
        let mut claimed = Vec::with_capacity(items.len());
        for h in handles {
            // analyze::allow(panic): a worker panic is a bug, not a runtime condition — re-raising it here preserves the payload instead of silently dropping that worker's items.
            claimed.extend(h.join().expect("work-stealing worker panicked"));
        }
        claimed
    });
    // Every index in 0..len was claimed by exactly one worker.
    claimed.sort_unstable_by_key(|&(i, _)| i);
    claimed.into_iter().map(|(_, r)| r).collect()
}

/// Indexes every window of `series` (in series-index order) with the
/// configured [`crate::BuildMethod`]: the one index-build path of
/// [`SearchEngine::build`] and [`SearchEngine::repair`]. Returns the tree
/// and the exact SE-norm bound over the indexed windows.
fn index_windows<'a>(
    cfg: &EngineConfig,
    extractor: &Option<FeatureExtractor>,
    series: impl Iterator<Item = &'a [f64]>,
) -> Result<(RTree, f64), EngineError> {
    let mut entries: Vec<DataEntry> = Vec::new();
    let mut se_buf = vec![0.0; cfg.window_len];
    let mut max_se_norm = 0.0f64;
    for (si, values) in series.enumerate() {
        for off in window_offsets(values.len(), cfg.window_len) {
            // analyze::allow(index): window_offsets only yields offsets with off + window_len <= values.len().
            let window = &values[off..off + cfg.window_len];
            max_se_norm = max_se_norm.max(tsss_geometry::se::se_norm(window));
            let feat = feature_of(extractor, window, &mut se_buf);
            let id = SubseqId::try_new(si, off)?;
            entries.push(DataEntry::new(feat, id.pack()));
        }
    }
    let tree = match cfg.build {
        crate::config::BuildMethod::BulkStr => bulk_load(cfg.tree_config(), entries)?,
        crate::config::BuildMethod::Insert => {
            let mut t = RTree::new(cfg.tree_config())?;
            t.insert_batch(entries)?;
            t
        }
    };
    Ok((tree, max_se_norm))
}

/// SE-transform + optional DFT feature extraction of one window.
fn feature_of(
    extractor: &Option<FeatureExtractor>,
    window: &[f64],
    se_buf: &mut [f64],
) -> Vec<f64> {
    se_transform_into(window, se_buf);
    match extractor {
        Some(fx) => fx.extract(se_buf),
        None => se_buf.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsss_data::{MarketConfig, MarketSimulator};
    use tsss_geometry::scale_shift::{min_scale_shift_distance, ScaleShift};

    fn market(companies: usize, days: usize) -> Vec<Series> {
        MarketSimulator::new(MarketConfig::small(companies, days, 123)).generate()
    }

    fn engine() -> (SearchEngine, Vec<Series>) {
        let data = market(6, 80);
        let cfg = EngineConfig::small(16);
        (SearchEngine::build(&data, cfg).unwrap(), data)
    }

    #[test]
    fn build_indexes_every_window() {
        let (e, data) = engine();
        let expect: usize = data.iter().map(|s| s.len() - 16 + 1).sum();
        assert_eq!(e.num_windows(), expect);
        assert_eq!(e.num_series(), 6);
    }

    #[test]
    fn exact_window_is_found_at_epsilon_zero_with_identity_transform() {
        let (e, data) = engine();
        let q = data[2].window(10, 16).unwrap().to_vec();
        let res = e.search(&q, 1e-7, SearchOptions::default()).unwrap();
        let hit = res
            .matches
            .iter()
            .find(|m| m.id.series == 2 && m.id.offset == 10)
            .expect("the source window must match");
        assert!((hit.transform.a - 1.0).abs() < 1e-6);
        assert!(hit.transform.b.abs() < 1e-4);
        assert!(hit.distance < 1e-7);
    }

    #[test]
    fn scaled_and_shifted_query_finds_its_source() {
        let (e, data) = engine();
        let src = data[4].window(30, 16).unwrap();
        let f = ScaleShift { a: 2.5, b: -40.0 };
        // query = F⁻¹ disguise: we want F'(q) = src with some F'.
        let q = f.apply(src);
        let res = e.search(&q, 1e-6, SearchOptions::default()).unwrap();
        let hit = res
            .matches
            .iter()
            .find(|m| m.id.series == 4 && m.id.offset == 30)
            .expect("source window must be recovered despite the disguise");
        // F'(q) = src ⇒ a' = 1/2.5, b' = 40/2.5 = 16.
        assert!((hit.transform.a - 0.4).abs() < 1e-6);
        assert!((hit.transform.b - 16.0).abs() < 1e-3);
    }

    #[test]
    fn matches_are_sorted_and_within_epsilon() {
        let (e, data) = engine();
        let q = data[0].window(5, 16).unwrap().to_vec();
        let res = e.search(&q, 5.0, SearchOptions::default()).unwrap();
        assert!(!res.matches.is_empty());
        for w in res.matches.windows(2) {
            assert!(w[0].distance <= w[1].distance + 1e-12);
        }
        for m in &res.matches {
            assert!(m.distance <= 5.0 + 1e-9);
        }
    }

    #[test]
    fn reported_transform_achieves_reported_distance() {
        let (e, data) = engine();
        let q = data[1].window(20, 16).unwrap().to_vec();
        let res = e.search(&q, 10.0, SearchOptions::default()).unwrap();
        for m in res.matches.iter().take(20) {
            let raw = data[m.id.series as usize]
                .window(m.id.offset as usize, 16)
                .unwrap();
            let transformed = m.transform.apply(&q);
            let d = tsss_geometry::vector::dist(&transformed, raw);
            assert!((d - m.distance).abs() < 1e-9);
        }
    }

    #[test]
    fn no_false_dismissals_against_brute_force() {
        let (e, data) = engine();
        let q = data[3].window(12, 16).unwrap().to_vec();
        for eps in [0.5, 2.0, 8.0] {
            let got = e.search(&q, eps, SearchOptions::default()).unwrap();
            let got_ids = got.id_set();
            for (si, s) in data.iter().enumerate() {
                for off in 0..=s.len() - 16 {
                    let d = min_scale_shift_distance(&q, s.window(off, 16).unwrap()).unwrap();
                    let id = SubseqId {
                        series: si as u32,
                        offset: off as u32,
                    };
                    assert_eq!(
                        d <= eps,
                        got_ids.contains(&id),
                        "eps {eps}, window {id}, distance {d}"
                    );
                }
            }
        }
    }

    #[test]
    fn cost_limits_filter_transforms() {
        let (e, data) = engine();
        let src = data[0].window(8, 16).unwrap();
        let q = ScaleShift { a: 0.5, b: 3.0 }.apply(src); // recovery needs a = 2
        let permissive = e.search(&q, 1e-6, SearchOptions::default()).unwrap();
        assert!(!permissive.matches.is_empty());
        let strict = e
            .search(
                &q,
                1e-6,
                SearchOptions {
                    cost: crate::config::CostLimit {
                        a_range: Some((0.9, 1.1)),
                        b_range: None,
                    },
                    ..Default::default()
                },
            )
            .unwrap();
        assert!(
            strict.matches.len() < permissive.matches.len(),
            "cost limit should reject the a = 2 recovery"
        );
        assert!(strict.stats.cost_rejected > 0);
    }

    #[test]
    fn both_penetration_methods_agree() {
        let (e, data) = engine();
        let q = data[5].window(40, 16).unwrap().to_vec();
        for eps in [0.1, 1.0, 6.0] {
            let a = e
                .search(&q, eps, SearchOptions::default())
                .unwrap()
                .id_set();
            let b = e
                .search(
                    &q,
                    eps,
                    SearchOptions {
                        method: tsss_geometry::penetration::PenetrationMethod::BoundingSpheres,
                        ..Default::default()
                    },
                )
                .unwrap()
                .id_set();
            assert_eq!(a, b, "eps {eps}");
        }
    }

    #[test]
    fn wrong_query_length_is_an_error() {
        let (e, _) = engine();
        assert_eq!(
            e.search(&[1.0; 8], 1.0, SearchOptions::default())
                .unwrap_err(),
            EngineError::QueryLength {
                expected: 16,
                got: 8
            }
        );
    }

    #[test]
    fn bad_epsilon_is_an_error() {
        let (e, data) = engine();
        let q = data[0].window(0, 16).unwrap().to_vec();
        for eps in [-1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                e.search(&q, eps, SearchOptions::default()),
                Err(EngineError::InvalidEpsilon(_))
            ));
        }
    }

    #[test]
    fn page_accounting_is_populated() {
        let (e, data) = engine();
        let q = data[0].window(0, 16).unwrap().to_vec();
        let res = e.search(&q, 2.0, SearchOptions::default()).unwrap();
        assert!(res.stats.index_pages > 0, "index traversal reads pages");
        if res.stats.candidates > 0 {
            assert!(res.stats.data_pages > 0, "verification reads data pages");
        }
        assert_eq!(
            res.stats.verified + res.stats.false_alarms + res.stats.cost_rejected,
            res.stats.candidates
        );
    }

    #[test]
    fn all_build_methods_answer_identically() {
        let data = market(4, 60);
        let q = data[1].window(7, 16).unwrap().to_vec();
        let mut engines: Vec<SearchEngine> = [
            crate::config::BuildMethod::BulkStr,
            crate::config::BuildMethod::Insert,
        ]
        .into_iter()
        .map(|build| {
            let mut cfg = EngineConfig::small(16);
            cfg.build = build;
            let mut e = SearchEngine::build(&data, cfg).unwrap();
            e.tree_mut().check_invariants().unwrap();
            e
        })
        .collect();
        for eps in [0.5, 3.0] {
            let reference = engines[0]
                .search(&q, eps, SearchOptions::default())
                .unwrap()
                .id_set();
            for e in engines.iter_mut().skip(1) {
                assert_eq!(
                    e.search(&q, eps, SearchOptions::default())
                        .unwrap()
                        .id_set(),
                    reference,
                    "eps {eps}"
                );
            }
        }
    }

    #[test]
    fn append_series_makes_new_windows_searchable() {
        let (mut e, data) = engine();
        let novel = Series::new(
            "NEW",
            data[0].values.iter().map(|v| v * 3.0 + 7.0).collect(),
        );
        let si = e.append_series(&novel).unwrap();
        let q = novel.window(10, 16).unwrap().to_vec();
        let res = e.search(&q, 1e-6, SearchOptions::default()).unwrap();
        assert!(res
            .matches
            .iter()
            .any(|m| m.id.series as usize == si && m.id.offset == 10));
    }

    #[test]
    fn append_values_indexes_boundary_windows() {
        let data = vec![Series::new(
            "grow",
            (0..20).map(|i| (i as f64).sin()).collect(),
        )];
        let cfg = EngineConfig::small(16);
        let mut e = SearchEngine::build(&data, cfg).unwrap();
        assert_eq!(e.num_windows(), 5); // 20 − 16 + 1
        let fresh: Vec<f64> = (20..30).map(|i| (i as f64).sin()).collect();
        e.reset_counters();
        e.append_values(0, &fresh).unwrap();
        assert_eq!(e.num_windows(), 15); // 30 − 16 + 1

        // The ten new windows come from one read of the appended tail (25
        // values), plus at most the data file's read-modify-write of its
        // last page — not a fetch per window.
        assert!(e.data_stats().reads() <= 3, "{}", e.data_stats().reads());
        // A window spanning the boundary must be searchable.
        let full: Vec<f64> = (0..30).map(|i| (i as f64).sin()).collect();
        let q = full[12..28].to_vec();
        let res = e.search(&q, 1e-7, SearchOptions::default()).unwrap();
        assert!(res.matches.iter().any(|m| m.id.offset == 12));
        e.tree_mut().check_invariants().unwrap();

        // An append that completes no window (the series is still shorter
        // than one) touches no index page, and reads no data page beyond
        // the data file's own read-modify-write.
        let short = e
            .append_series(&Series::new("short", vec![0.5; 5]))
            .unwrap();
        let windows = e.num_windows();
        e.reset_counters();
        e.append_values(short, &[0.25; 10]).unwrap(); // 15 < 16 values
        assert_eq!(e.num_windows(), windows);
        assert_eq!((e.index_stats().reads(), e.index_stats().writes()), (0, 0));
        assert!(e.data_stats().reads() <= 1, "{}", e.data_stats().reads());
    }

    #[test]
    fn failed_append_indexing_surfaces_unindexed_tail_in_health() {
        let data = vec![Series::new(
            "grow",
            (0..20).map(|i| (i as f64).sin()).collect(),
        )];
        let mut e = SearchEngine::build(&data, EngineConfig::small(16)).unwrap();
        assert!(!e.health().append_tail_unindexed);
        assert!(!e.health().repair_recommended());
        // Every index read fails: the mid-append tree insert cannot land,
        // but the data-file append already did.
        e.inject_index_faults(tsss_storage::FaultConfig::read_errors(3, 1.0));
        let fresh: Vec<f64> = (20..30).map(|i| (i as f64).sin()).collect();
        let err = e.append_values(0, &fresh).unwrap_err();
        assert!(err.is_corruption(), "{err:?}");
        // The values are stored but their windows are not searchable — and
        // health says so instead of silently missing them.
        assert_eq!(e.series_len(0).unwrap(), 30);
        assert!(e.num_windows() < 15, "tail windows must be missing");
        let h = e.health();
        assert!(h.append_tail_unindexed);
        assert!(h.repair_recommended());
        // Repair re-indexes everything from the authoritative data file
        // (discarding the faulty index store) and clears the flag.
        e.repair().unwrap();
        assert_eq!(e.num_windows(), 15); // 30 − 16 + 1
        let h = e.health();
        assert!(!h.append_tail_unindexed);
        assert!(!h.repair_recommended());
        let full: Vec<f64> = (0..30).map(|i| (i as f64).sin()).collect();
        let res = e
            .search(&full[12..28], 1e-7, SearchOptions::default())
            .unwrap();
        assert!(res.matches.iter().any(|m| m.id.offset == 12));
    }

    #[test]
    fn a_mid_batch_failure_writes_back_the_landed_windows_and_repair_recovers() {
        let data = market(6, 80);
        let cfg = EngineConfig::small(16);
        let base = SearchEngine::build(&data, cfg.clone()).unwrap();
        // Forty new windows of series 0, wandering away from where they
        // start so that later ones descend through other pages.
        let fresh: Vec<f64> = (0..40)
            .map(|i| data[0].values[79] + (i * i) as f64 * 0.05)
            .collect();
        let mut flip = |bytes: &mut [u8]| bytes[7] ^= 0x40;
        // Damage, on a fork each, the first index page that a later window
        // of the append reads but an earlier one does not: the batch stops
        // after some windows landed.
        let (page, mut e) = (0..base.index_extent())
            .find_map(|p| {
                let page = u32::try_from(p).unwrap();
                let mut e = base.fork();
                e.corrupt_index_page(page, &mut flip).unwrap();
                let failed = e.append_values(0, &fresh).unwrap_err().is_corruption();
                (failed && e.inserts_since_rebuild() > 0).then_some((page, e))
            })
            .expect("some page stops the batch mid-way");
        let landed = usize::try_from(e.inserts_since_rebuild()).unwrap();
        assert!(landed < fresh.len());
        assert!(e.health().append_tail_unindexed);
        assert_eq!(e.series_len(0).unwrap(), 80 + fresh.len());
        assert_eq!(e.num_windows(), base.num_windows() + landed);

        // The nodes the landed windows changed were written back before the
        // error returned: with the damage undone, the index is page for
        // page the one an append of just those windows builds.
        e.corrupt_index_page(page, &mut flip).unwrap();
        let mut twin = base.fork();
        twin.append_values(0, &fresh[..landed]).unwrap();
        let image = |e: &SearchEngine| {
            let mut out = Vec::new();
            e.tree().save_to(&mut out).unwrap();
            out
        };
        assert!(
            image(&e) == image(&twin),
            "landed windows lost at page {page}"
        );

        // Repair answers as a fresh build over the grown data.
        e.corrupt_index_page(page, &mut flip).unwrap();
        e.repair().unwrap();
        assert!(!e.health().append_tail_unindexed);
        let mut grown = data.clone();
        grown[0].values.extend_from_slice(&fresh);
        let built = SearchEngine::build(&grown, cfg).unwrap();
        assert_eq!(e.num_windows(), built.num_windows());
        for (s, off) in [(0, 70), (0, 100), (0, 103), (3, 20)] {
            let q = grown[s].values[off..off + 16].to_vec();
            let want = built.search(&q, 0.5, SearchOptions::default()).unwrap();
            let got = e.search(&q, 0.5, SearchOptions::default()).unwrap();
            assert_eq!(got.matches, want.matches, "query ({s}, {off})");
        }
    }

    #[test]
    fn full_dimension_mode_works_without_dft() {
        let data = market(3, 50);
        let mut cfg = EngineConfig::small(8);
        cfg.fc = None; // index the 8-d SE windows directly
        let e = SearchEngine::build(&data, cfg).unwrap();
        let q = data[0].window(4, 8).unwrap().to_vec();
        let res = e.search(&q, 1e-7, SearchOptions::default()).unwrap();
        assert!(res
            .matches
            .iter()
            .any(|m| m.id.series == 0 && m.id.offset == 4));
    }

    #[test]
    fn constant_query_matches_flat_windows_only() {
        let mut data = market(2, 40);
        data.push(Series::new("flat", vec![7.0; 40]));
        let cfg = EngineConfig::small(16);
        let e = SearchEngine::build(&data, cfg).unwrap();
        let q = vec![100.0; 16]; // constant query, any level
        let res = e.search(&q, 1e-6, SearchOptions::default()).unwrap();
        assert!(!res.matches.is_empty(), "flat windows exist");
        assert!(
            res.matches.iter().all(|m| m.id.series == 2),
            "only the flat series can match a constant query at eps ~ 0"
        );
    }

    #[test]
    fn constant_query_agrees_with_sequential_scan() {
        // The degenerate shift-only plan must return exactly the windows the
        // brute-force oracle accepts — with the same canonical transforms —
        // at an eps that also admits near-flat market windows.
        let mut data = market(3, 40);
        data.push(Series::new("flat", vec![-3.25; 40]));
        let e = SearchEngine::build(&data, EngineConfig::small(16)).unwrap();
        // A near-constant query below the degeneracy threshold behaves like
        // an exactly-constant one (its SE-direction is rounding noise).
        let mut q = vec![50.0; 16];
        q[7] += 5e-12;
        for eps in [0.0, 0.5, 5.0, 50.0] {
            let idx = e.search(&q, eps, SearchOptions::default()).unwrap();
            let seq = e
                .sequential_search(&q, eps, SearchOptions::default())
                .unwrap();
            assert_eq!(idx.id_set(), seq.id_set(), "eps {eps}");
            for (a, b) in idx.matches.iter().zip(&seq.matches) {
                assert_eq!(a.id, b.id);
                assert_eq!(a.transform.a, 0.0, "constant query ⇒ shift-only");
                assert_eq!(a.transform, b.transform);
                assert!((a.distance - b.distance).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn engine_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SearchEngine>();
    }

    #[test]
    fn batch_results_are_identical_to_serial_for_any_worker_count() {
        let (e, data) = engine();
        let queries: Vec<Vec<f64>> = (0..12)
            .map(|i| data[i % 6].window((i * 5) % 40, 16).unwrap().to_vec())
            .collect();
        let serial: Vec<SearchResult> = queries
            .iter()
            .map(|q| e.search(q, 2.0, SearchOptions::default()).unwrap())
            .collect();
        for workers in [0, 1, 2, 4, 8, 64] {
            let batch = e.execute_batch(
                &queries,
                Query::Range { epsilon: 2.0 },
                SearchOptions::default(),
                workers,
            );
            assert_eq!(batch.len(), serial.len());
            for (b, s) in batch.iter().zip(&serial) {
                let b = b.as_ref().unwrap();
                assert_eq!(b.matches, s.matches, "workers {workers}");
                assert_eq!(
                    b.stats.index_pages, s.stats.index_pages,
                    "workers {workers}"
                );
                assert_eq!(b.stats.data_pages, s.stats.data_pages, "workers {workers}");
                assert_eq!(b.stats.candidates, s.stats.candidates, "workers {workers}");
            }
        }
    }

    #[test]
    fn batch_per_query_pages_sum_to_the_global_counters() {
        let (e, data) = engine();
        let queries: Vec<Vec<f64>> = (0..9)
            .map(|i| data[i % 6].window((i * 7) % 30, 16).unwrap().to_vec())
            .collect();
        e.reset_counters();
        let batch: Vec<SearchResult> = e
            .execute_batch(
                &queries,
                Query::Range { epsilon: 3.0 },
                SearchOptions::default(),
                4,
            )
            .into_iter()
            .collect::<Result<_, _>>()
            .unwrap();
        let index_sum: u64 = batch.iter().map(|r| r.stats.index_pages).sum();
        let data_sum: u64 = batch.iter().map(|r| r.stats.data_pages).sum();
        assert_eq!(index_sum, e.index_stats().total_accesses());
        assert_eq!(data_sum, e.data_stats().total_accesses());
    }

    #[test]
    fn corrupt_index_degrades_to_sequential_scan_with_flag() {
        let (mut e, data) = engine();
        let q = data[2].window(10, 16).unwrap().to_vec();
        let healthy = e.search(&q, 2.0, SearchOptions::default()).unwrap();
        assert!(!healthy.stats.degraded);
        // Smash every live index page: the traversal hits corruption at the
        // root. (Free pages reject corruption with a typed error — ignore.)
        for p in 0..e.index_extent() as u32 {
            let _ = e.corrupt_index_page(p, &mut |b| b[0] ^= 0xFF);
        }
        let degraded = e.search(&q, 2.0, SearchOptions::default()).unwrap();
        assert!(degraded.stats.degraded, "fallback must be flagged");
        assert!(degraded.stats.degraded_reason.is_some());
        assert_eq!(degraded.id_set(), healthy.id_set());
        let oracle = e
            .sequential_search(&q, 2.0, SearchOptions::default())
            .unwrap();
        assert_eq!(degraded.matches, oracle.matches);
        // Under the Error policy the same damage surfaces as a typed error.
        let err = e
            .search(
                &q,
                2.0,
                SearchOptions {
                    degradation: crate::config::DegradationPolicy::Error,
                    ..Default::default()
                },
            )
            .unwrap_err();
        assert!(err.is_corruption(), "{err:?}");
    }

    /// Damage that carries a valid checksum reaches the node checks of the
    /// in-place walk, and the fallback policy still degrades to the scan.
    #[test]
    fn a_malformed_node_with_a_valid_checksum_degrades_to_the_scan() {
        let (mut e, data) = engine();
        let q = data[2].window(10, 16).unwrap().to_vec();
        let range = crate::Query::Range { epsilon: 2.0 };
        let healthy = e.execute(&q, range, SearchOptions::default()).unwrap();
        let root = e.tree().root_page();
        assert!(e.tree().height() > 1, "the fixture's root is internal");
        let dim = e.config().feature_dim();
        // Invert the root's first MBR in the store itself, which checksums
        // the new bytes: the page verifies, the node does not.
        e.tree_mut().wrap_store(|mut store| {
            let mut page = store.read(root).unwrap();
            let low = tsss_index::node::NODE_HEADER_BYTES + 4;
            page.put_f64(low, page.get_f64(low + 8 * dim) + 1.0);
            store.write(root, page).unwrap();
            store
        });
        let degraded = e.execute(&q, range, SearchOptions::default()).unwrap();
        assert!(degraded.stats.degraded, "fallback must be flagged");
        assert_eq!(
            degraded.stats.degraded_reason,
            Some(format!(
                "corrupt stored data: corrupt node on {root}: internal entry 0 has an inverted MBR"
            ))
        );
        assert_eq!(degraded.matches, healthy.matches);
    }

    #[test]
    fn page_budget_is_a_hard_error_never_degraded() {
        let (e, data) = engine();
        let q = data[0].window(0, 16).unwrap().to_vec();
        // Zero budget rejects even the root visit — and must NOT fall back
        // to the scan, whose whole point the budget would defeat.
        let err = e
            .search(
                &q,
                2.0,
                SearchOptions {
                    page_budget: Some(0),
                    ..Default::default()
                },
            )
            .unwrap_err();
        assert_eq!(err, EngineError::PageBudgetExceeded { budget: 0 });
        // A generous budget answers identically to unlimited.
        let capped = e
            .search(
                &q,
                2.0,
                SearchOptions {
                    page_budget: Some(1_000_000),
                    ..Default::default()
                },
            )
            .unwrap();
        let free = e.search(&q, 2.0, SearchOptions::default()).unwrap();
        assert_eq!(capped.matches, free.matches);
        assert!(!capped.stats.degraded);
    }

    #[test]
    fn zero_page_budget_stops_every_query_mode() {
        let data = MarketSimulator::new(MarketConfig::small(6, 90, 123)).generate();
        let e = SearchEngine::build(&data, EngineConfig::small(16)).unwrap();
        let window = data[2].window(10, 16).unwrap();
        let long = data[2].window(10, 40).unwrap();
        let opts = SearchOptions {
            page_budget: Some(0),
            ..Default::default()
        };
        for (q, query) in [
            (window, Query::Range { epsilon: 2.0 }),
            (window, Query::Nearest { k: 5 }),
            (window, Query::ZNormalized { z_eps: 1.0 }),
            (long, Query::Long { epsilon: 2.0 }),
        ] {
            assert_eq!(
                e.execute(q, query, opts).unwrap_err(),
                EngineError::PageBudgetExceeded { budget: 0 },
                "{query:?}"
            );
        }
    }

    #[test]
    fn injected_read_faults_degrade_exactly_and_never_panic() {
        let (mut e, data) = engine();
        let q = data[1].window(6, 16).unwrap().to_vec();
        let oracle = e
            .sequential_search(&q, 2.0, SearchOptions::default())
            .unwrap();
        let counters = e.inject_index_faults(tsss_storage::FaultConfig::read_errors(7, 0.3));
        let mut degraded_seen = false;
        for _ in 0..20 {
            let res = e.search(&q, 2.0, SearchOptions::default()).unwrap();
            assert_eq!(res.id_set(), oracle.id_set());
            degraded_seen |= res.stats.degraded;
        }
        assert!(degraded_seen, "30 % read faults over 20 queries must fire");
        assert!(counters.read_errors() > 0);
    }

    #[test]
    fn batch_propagates_per_query_errors() {
        let (e, data) = engine();
        let queries = vec![
            data[0].window(0, 16).unwrap().to_vec(),
            vec![1.0; 8], // wrong length
        ];
        let range = Query::Range { epsilon: 1.0 };
        let results = e.execute_batch(&queries, range, SearchOptions::default(), 4);
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(EngineError::QueryLength { .. })));
        assert!(e
            .execute_batch(&[], range, SearchOptions::default(), 4)
            .is_empty());
    }
}
