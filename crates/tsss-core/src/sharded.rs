//! Scatter-gather search over independent engine shards
//! ([`ShardedEngine`]).
//!
//! The single [`SearchEngine`] contains faults well — breaker, quarantine,
//! repair — but it is still *one* fault domain: one corrupt page domain
//! degrades queries over **all** data. The sharded engine partitions the
//! series across N fully independent engines (each with its own store,
//! index, circuit breaker, quarantine, and [`SearchEngine::repair`]) and
//! answers every query mode by scatter-gather:
//!
//! 1. **Partition.** Series `g` lives on shard `g % N` as local series
//!    `g / N` (round-robin, so every shard sees a similar slice of the
//!    workload). The map is a bijection — `global = local·N + shard` —
//!    so shard-local match ids are remapped to the global numbering
//!    before the merge, and an N-shard engine reports the *same*
//!    [`crate::SubseqId`]s as an unsharded twin built over the same
//!    series, in the same canonical order.
//! 2. **Scatter.** Every [`Query`] mode, alone or in a batch, fans out
//!    with the same scoped-thread work-stealing helper the batch paths
//!    use, one ticket per shard. Per-query work bounds
//!    are sliced: each shard receives `ceil(budget / N)` of the caller's
//!    page budget and [`crate::Deadline`], so a sharded query's total
//!    work stays within a constant factor of the unsharded bound.
//! 3. **Gather.** Per-shard matches are merged with the canonical
//!    [`SubsequenceMatch::ordering`] comparator and per-shard
//!    [`SearchStats`] are summed field-wise — each shard satisfies
//!    `candidates == verified + false_alarms + cost_rejected`, so the sum
//!    does too. For k-NN the merged list is re-truncated to the global k
//!    (the union of per-shard top-k lists is a superset of the global
//!    top-k, never a miss).
//!
//! **Degradation is partial results, not a fallback scan.** On a shard
//! failure (corruption, exhausted deadline slice, spent page budget) the
//! sharded engine drops that shard's slice and returns the other N−1
//! shards' exact answers, stamping [`SearchStats::degraded_shards`] /
//! [`SearchStats::shards_ok`] — the blast radius of damage is one shard.
//! Shards therefore run under [`DegradationPolicy::Error`] internally
//! (feeding their own breaker and quarantine) rather than falling back
//! to a shard-local sequential scan, which would defeat the sliced work
//! bounds. The caller's policy selects what a shard failure means at the
//! top level:
//!
//! - [`DegradationPolicy::SeqScanFallback`] (default): degrade to the
//!   surviving shards' answers. Only when *no* shard survives does the
//!   query fail, with [`EngineError::ShardUnavailable`].
//! - [`DegradationPolicy::Error`]: any failed shard refuses the whole
//!   query with the typed [`EngineError::ShardUnavailable`].
//! - [`DegradationPolicy::Strict`]: the first shard error surfaces
//!   verbatim and no breaker is touched — the forensic mode.
//!
//! Caller mistakes (bad query length, bad ε) are the same on every shard
//! and surface verbatim under every policy.

use std::time::Instant;

use tsss_data::Series;

use crate::config::{Deadline, DegradationPolicy, EngineConfig, SearchOptions};
use crate::engine::{work_steal, SearchEngine};
use crate::error::EngineError;
use crate::id::SubseqId;
use crate::pipeline::Query;
use crate::recovery::{BreakerState, HealthReport, RepairReport};
use crate::result::{SearchResult, SearchStats, SubsequenceMatch};

/// N independent engine+store shards answering as one engine.
///
/// See the [module docs](self) for the partition/merge contract. Built
/// with [`ShardedEngine::build`] (from raw series) or
/// [`ShardedEngine::from_engine`] (re-partitioning an existing engine's
/// data file, e.g. when serving), then grown copy-on-write by
/// [`ShardedEngine::fork`] plus [`ShardedEngine::append_values`] /
/// [`ShardedEngine::append_series`], which touch only the shard holding
/// the series.
#[derive(Debug)]
pub struct ShardedEngine {
    cfg: EngineConfig,
    shards: Vec<SearchEngine>,
}

impl ShardedEngine {
    /// Partitions `data` round-robin across `num_shards` independent
    /// engines and builds each one. The shard count is clamped to
    /// `1..=data.len()` so no shard is built empty (a 0-series shard
    /// could answer nothing and would only dilute the fan-out).
    ///
    /// # Errors
    /// Whatever [`SearchEngine::build`] reports for a shard's slice.
    pub fn build(
        data: &[Series],
        cfg: EngineConfig,
        num_shards: usize,
    ) -> Result<Self, EngineError> {
        let n = num_shards.clamp(1, data.len().max(1));
        let mut buckets: Vec<Vec<Series>> = (0..n).map(|_| Vec::new()).collect();
        for (g, s) in data.iter().enumerate() {
            if let Some(bucket) = buckets.get_mut(g % n) {
                bucket.push(s.clone());
            }
        }
        let shards = buckets
            .iter()
            .map(|b| SearchEngine::build(b, cfg.clone()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ShardedEngine { cfg, shards })
    }

    /// Re-partitions an existing engine's authoritative data file into a
    /// sharded twin with the same configuration, STR-building every
    /// shard — how the serving layer turns the master into N fault
    /// domains at start-up, and whenever a per-shard delta cannot
    /// describe a change (a repair, a half-landed append).
    ///
    /// # Errors
    /// [`EngineError::Corrupt`] when the source data file cannot be read,
    /// or whatever [`ShardedEngine::build`] reports.
    pub fn from_engine(engine: &SearchEngine, num_shards: usize) -> Result<Self, EngineError> {
        let values = engine.read_everything()?;
        let mut series = Vec::with_capacity(values.len());
        for (i, v) in values.into_iter().enumerate() {
            series.push(Series {
                name: engine.series_name(i)?.to_string(),
                values: v,
            });
        }
        Self::build(&series, engine.config().clone(), num_shards)
    }

    /// Number of shards (fault domains).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total series across all shards.
    pub fn num_series(&self) -> usize {
        self.shards.iter().map(SearchEngine::num_series).sum()
    }

    /// Total indexed windows across all shards.
    pub fn num_windows(&self) -> usize {
        self.shards.iter().map(SearchEngine::num_windows).sum()
    }

    /// The configuration every shard was built with.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The partition function: which shard holds global series `g`.
    pub fn shard_of(&self, series: usize) -> usize {
        series % self.shards.len().max(1)
    }

    /// Shard `i`'s engine, for inspection (health, fault injection in
    /// tests).
    pub fn shard(&self, i: usize) -> Option<&SearchEngine> {
        self.shards.get(i)
    }

    /// Shard `i`'s engine, mutably (corruption injection, repair).
    pub fn shard_mut(&mut self, i: usize) -> Option<&mut SearchEngine> {
        self.shards.get_mut(i)
    }

    /// Every shard's circuit-breaker position, in shard order.
    pub fn breaker_states(&self) -> Vec<BreakerState> {
        self.shards
            .iter()
            .map(SearchEngine::breaker_state)
            .collect()
    }

    /// Every shard's point-in-time health report, in shard order.
    pub fn health(&self) -> Vec<HealthReport> {
        self.shards.iter().map(SearchEngine::health).collect()
    }

    /// Repairs one shard — rebuilding its index from its data file,
    /// clearing its quarantine, and closing its breaker — without
    /// touching the other fault domains.
    ///
    /// # Errors
    /// [`EngineError::ShardUnavailable`] for a bad shard index, else as
    /// [`SearchEngine::repair`].
    pub fn repair_shard(&mut self, shard: usize) -> Result<RepairReport, EngineError> {
        let n = self.shards.len();
        match self.shards.get_mut(shard) {
            Some(e) => e.repair(),
            None => Err(EngineError::ShardUnavailable {
                shard,
                detail: format!("no such shard (engine has {n})"),
            }),
        }
    }

    /// Repairs every shard, in shard order.
    ///
    /// # Errors
    /// The first shard's [`SearchEngine::repair`] error, if any.
    pub fn repair(&mut self) -> Result<Vec<RepairReport>, EngineError> {
        self.shards.iter_mut().map(SearchEngine::repair).collect()
    }

    // ------------------------------------------------------------------
    // Copy-on-write maintenance
    // ------------------------------------------------------------------

    /// A copy-on-write twin: every shard is [`SearchEngine::fork`]ed, so
    /// the twin shares every page frame with this engine and costs one
    /// pointer per page. Each twin shard starts with a fresh breaker,
    /// quarantine and counters.
    ///
    /// # Errors
    /// As [`SearchEngine::fork`].
    pub fn fork(&self) -> Result<Self, EngineError> {
        let shards = self
            .shards
            .iter()
            .map(SearchEngine::fork)
            .collect::<Result<_, _>>()?;
        Ok(ShardedEngine {
            cfg: self.cfg.clone(),
            shards,
        })
    }

    /// The length of global series `series`.
    ///
    /// # Errors
    /// [`EngineError::UnknownSeries`] for a bad index.
    pub fn series_len(&self, series: usize) -> Result<usize, EngineError> {
        let local = series / self.shards.len().max(1);
        self.shards
            .get(self.shard_of(series))
            .and_then(|e| e.series_len(local).ok())
            .ok_or(EngineError::UnknownSeries(series))
    }

    /// Appends `values` to global series `series` on the one shard that
    /// holds it, as its local series `series / N` — the sharded
    /// [`SearchEngine::append_values`]; no other shard is touched.
    /// Matches then equal those of a fresh partition, though a shard grown
    /// by insertion is not STR-packed, so its page counts may differ.
    /// Once that shard's own [`SearchEngine::str_rebuild_due`] fires, it
    /// alone is rebuilt.
    ///
    /// # Errors
    /// [`EngineError::UnknownSeries`] for a bad index; otherwise as
    /// [`SearchEngine::append_values`] and [`SearchEngine::repair`].
    pub fn append_values(&mut self, series: usize, values: &[f64]) -> Result<(), EngineError> {
        let local = series / self.shards.len().max(1);
        let shard = self.shard_of(series);
        let engine = self
            .shards
            .get_mut(shard)
            .ok_or(EngineError::UnknownSeries(series))?;
        engine
            .series_len(local)
            .map_err(|_| EngineError::UnknownSeries(series))?;
        engine.append_values(local, values)?;
        rebuild_if_due(engine)
    }

    /// Adds `series` as the next global series, on the shard and at the
    /// local index a fresh partition would give it, and returns its
    /// global index — the sharded [`SearchEngine::append_series`],
    /// rebuilding that one shard when its insert count is due.
    ///
    /// # Errors
    /// [`EngineError::ShardUnavailable`] when the shard's series count no
    /// longer fits the round-robin partition; otherwise as
    /// [`SearchEngine::append_series`] and [`SearchEngine::repair`].
    pub fn append_series(&mut self, series: &Series) -> Result<usize, EngineError> {
        let global = self.num_series();
        let local = global / self.shards.len().max(1);
        let shard = self.shard_of(global);
        let engine = self
            .shards
            .get_mut(shard)
            .ok_or(EngineError::UnknownSeries(global))?;
        if engine.num_series() != local {
            return Err(EngineError::ShardUnavailable {
                shard,
                detail: format!(
                    "holds {} series, but series {global} belongs at local index {local}",
                    engine.num_series()
                ),
            });
        }
        engine.append_series(series)?;
        rebuild_if_due(engine)?;
        Ok(global)
    }

    // ------------------------------------------------------------------
    // Query entry points
    // ------------------------------------------------------------------

    /// Scatter-gather [`SearchEngine::execute`]: every shard answers
    /// `query` over its own slice of the series, and the merge returns the
    /// match set an unsharded engine would.
    ///
    /// - [`Query::Nearest`]: each shard answers its local top-k; the merge
    ///   re-tightens to the *global* k-th distance by sorting the union
    ///   canonically and truncating to `k`, so the caller never sees k·N
    ///   candidates. The union of per-shard top-k lists is a superset of
    ///   the global top-k (every global winner is in its own shard's
    ///   top-k), so no neighbour can be missed.
    /// - [`Query::ZNormalized`]: each shard probes with its own (local)
    ///   SE-norm bound; verification is exact, so the merged match set is
    ///   identical to the unsharded engine's, though filter counters
    ///   (`candidates`, `false_alarms`) may differ with the shard count.
    /// - [`Query::Long`]: long matches stitch pieces *within* one series,
    ///   and a series lives wholly on one shard, so partitioning cannot
    ///   split a match.
    ///
    /// # Errors
    /// Malformed-input errors verbatim; [`EngineError::ShardUnavailable`]
    /// when a shard failure cannot be degraded around (see the
    /// [module docs](self)); the first shard error verbatim under
    /// [`DegradationPolicy::Strict`].
    pub fn execute(
        &self,
        values: &[f64],
        query: Query,
        opts: SearchOptions,
    ) -> Result<SearchResult, EngineError> {
        self.fan(true, values, query, opts)
    }

    /// [`ShardedEngine::execute`] of a [`Query::Range`].
    ///
    /// # Errors
    /// As [`ShardedEngine::execute`].
    pub fn search(
        &self,
        query: &[f64],
        epsilon: f64,
        opts: SearchOptions,
    ) -> Result<SearchResult, EngineError> {
        self.execute(query, Query::Range { epsilon }, opts)
    }

    /// [`ShardedEngine::execute`] of a [`Query::Nearest`].
    ///
    /// # Errors
    /// As [`ShardedEngine::execute`].
    pub fn nearest_search_opts(
        &self,
        query: &[f64],
        k: usize,
        opts: SearchOptions,
    ) -> Result<SearchResult, EngineError> {
        self.execute(query, Query::Nearest { k }, opts)
    }

    /// Batch of sharded queries with per-query outcomes — the sharded
    /// [`SearchEngine::execute_batch`]. Queries fan over `workers` scoped
    /// threads; each worker then visits the shards serially (the
    /// parallelism budget is spent once, on the batch, not squared). One
    /// query's shard failure degrades or fails *that query only* —
    /// per-query isolation is preserved across shard faults.
    pub fn execute_batch(
        &self,
        queries: &[Vec<f64>],
        query: Query,
        opts: SearchOptions,
        workers: usize,
    ) -> Vec<Result<SearchResult, EngineError>> {
        // A batch run inline leaves the threads to the shard scatter.
        let parallel_shards = workers <= 1 || queries.len() <= 1;
        work_steal(queries, workers, |q| {
            self.fan(parallel_shards, q, query, opts)
        })
    }

    // ------------------------------------------------------------------
    // Scatter / gather internals
    // ------------------------------------------------------------------

    /// Derives the per-shard options: work bounds sliced `ceil(x/N)`, and
    /// the degradation policy mapped to what shards run internally —
    /// `Strict` stays `Strict` (surface verbatim, touch nothing), every
    /// other policy becomes `Error` so a damaged shard feeds its own
    /// breaker/quarantine and reports a typed error for the gather stage
    /// to degrade around (see the [module docs](self)).
    fn shard_opts(&self, opts: SearchOptions) -> SearchOptions {
        let n = u64::try_from(self.shards.len().max(1)).unwrap_or(u64::MAX);
        let mut o = opts;
        o.page_budget = opts.page_budget.map(|b| b.div_ceil(n));
        o.deadline = opts.deadline.map(|d| Deadline {
            max_pages: d.max_pages.div_ceil(n),
            max_steps: d.max_steps.div_ceil(n),
        });
        o.degradation = match opts.degradation {
            DegradationPolicy::Strict => DegradationPolicy::Strict,
            DegradationPolicy::SeqScanFallback | DegradationPolicy::Error => {
                DegradationPolicy::Error
            }
        };
        o
    }

    /// Scatter + gather: runs `query` on every shard (on one scoped thread
    /// per shard when `parallel`) under the sliced [`Self::shard_opts`],
    /// and merges the outcomes under the caller's policy.
    fn fan(
        &self,
        parallel: bool,
        values: &[f64],
        query: Query,
        opts: SearchOptions,
    ) -> Result<SearchResult, EngineError> {
        let t0 = Instant::now();
        let sopts = self.shard_opts(opts);
        let workers = if parallel { self.shards.len() } else { 1 };
        let per_shard = work_steal(&self.shards, workers, |e| e.execute(values, query, sopts));
        let truncate_k = match query {
            Query::Nearest { k } => Some(k),
            _ => None,
        };
        self.gather(opts.degradation, per_shard, truncate_k, t0)
    }

    /// Merges per-shard outcomes under the caller's (top-level) policy.
    fn gather(
        &self,
        policy: DegradationPolicy,
        per_shard: Vec<Result<SearchResult, EngineError>>,
        truncate_k: Option<usize>,
        t0: Instant,
    ) -> Result<SearchResult, EngineError> {
        let mut matches: Vec<SubsequenceMatch> = Vec::new();
        let mut stats = SearchStats::default();
        let mut first_failure: Option<(usize, EngineError)> = None;
        for (i, outcome) in per_shard.into_iter().enumerate() {
            match outcome {
                Ok(res) => {
                    stats.shards_ok += 1;
                    accumulate(&mut stats, &res.stats);
                    for m in res.matches {
                        matches.push(self.remap(i, m)?);
                    }
                }
                Err(e) if slice_degradable(&e) => match policy {
                    DegradationPolicy::Strict => return Err(e),
                    DegradationPolicy::Error => {
                        return Err(EngineError::ShardUnavailable {
                            shard: i,
                            detail: e.to_string(),
                        })
                    }
                    DegradationPolicy::SeqScanFallback => {
                        stats.degraded_shards += 1;
                        if first_failure.is_none() {
                            first_failure = Some((i, e));
                        }
                    }
                },
                // Caller mistakes (query length, ε, …) are identical on
                // every shard: surface verbatim, no degradation.
                Err(e) => return Err(e),
            }
        }
        if stats.shards_ok == 0 {
            if let Some((shard, e)) = first_failure {
                // The zero-survivor path: nothing to answer from.
                return Err(EngineError::ShardUnavailable {
                    shard,
                    detail: e.to_string(),
                });
            }
        }
        if let Some((i, e)) = &first_failure {
            stats.degraded = true;
            if stats.degraded_reason.is_none() {
                stats.degraded_reason = Some(format!("shard {i}: {e}"));
            }
        }
        matches.sort_by(SubsequenceMatch::ordering);
        if let Some(k) = truncate_k {
            matches.truncate(k);
        }
        stats.breaker = self.worst_breaker();
        stats.elapsed = t0.elapsed();
        Ok(SearchResult { matches, stats })
    }

    /// Remaps a shard-local match id to the global series numbering
    /// (`global = local·N + shard` — the partition bijection inverted).
    fn remap(&self, shard: usize, m: SubsequenceMatch) -> Result<SubsequenceMatch, EngineError> {
        let local = m.id.series_idx();
        let global = local
            .checked_mul(self.shards.len())
            .and_then(|v| v.checked_add(shard))
            .ok_or(EngineError::TooLarge {
                what: "series index",
                value: local,
            })?;
        Ok(SubsequenceMatch {
            id: SubseqId::try_new(global, m.id.offset_idx())?,
            ..m
        })
    }

    /// The most degraded breaker position across shards (see
    /// [`BreakerState`]'s severity order).
    fn worst_breaker(&self) -> BreakerState {
        self.shards
            .iter()
            .map(SearchEngine::breaker_state)
            .max()
            .unwrap_or_default()
    }
}

/// Rebuilds a shard grown by insertion once its own
/// [`SearchEngine::str_rebuild_due`] fires — the per-shard twin of the
/// server's rebuild of the master.
fn rebuild_if_due(shard: &mut SearchEngine) -> Result<(), EngineError> {
    if shard.str_rebuild_due() {
        shard.repair()?;
    }
    Ok(())
}

/// True for errors that damage or exhaust *one shard's slice* of a query
/// and can therefore be degraded to partial results; everything else is a
/// caller mistake or an engine-wide condition and surfaces verbatim.
fn slice_degradable(e: &EngineError) -> bool {
    matches!(
        e,
        EngineError::Corrupt { .. }
            | EngineError::DeadlineExceeded { .. }
            | EngineError::PageBudgetExceeded { .. }
    )
}

/// Field-wise sum of one shard's stats into the merged stats. Every
/// identity counter is summed, so the merged stats satisfy
/// `candidates == verified + false_alarms + cost_rejected` whenever each
/// shard does. `breaker`, `elapsed`, and the shard counters are set by
/// the gather stage; `epoch`/`wal_tail_records` stay 0 (the serving layer
/// stamps them).
fn accumulate(into: &mut SearchStats, s: &SearchStats) {
    into.index.merge(&s.index);
    into.candidates += s.candidates;
    into.verified += s.verified;
    into.false_alarms += s.false_alarms;
    into.cost_rejected += s.cost_rejected;
    into.index_pages += s.index_pages;
    into.data_pages += s.data_pages;
    into.retries += s.retries;
    into.steps_spent += s.steps_spent;
    if s.degraded {
        into.degraded = true;
        if into.degraded_reason.is_none() {
            into.degraded_reason.clone_from(&s.degraded_reason);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsss_data::{MarketConfig, MarketSimulator};

    const WINDOW: usize = 16;

    fn market(companies: usize, seed: u64) -> Vec<Series> {
        MarketSimulator::new(MarketConfig::small(companies, 60, seed)).generate()
    }

    fn cfg() -> EngineConfig {
        EngineConfig::small(WINDOW)
    }

    fn query(data: &[Series]) -> Vec<f64> {
        data[0].values[5..5 + WINDOW].to_vec()
    }

    #[test]
    fn partition_is_round_robin_and_clamped() {
        let data = market(5, 7);
        let e = ShardedEngine::build(&data, cfg(), 3).unwrap();
        assert_eq!(e.num_shards(), 3);
        assert_eq!(e.shard_of(0), 0);
        assert_eq!(e.shard_of(4), 1);
        // Shard 0 holds series 0 and 3; shard 2 holds series 2 only.
        assert_eq!(e.shard(0).unwrap().num_series(), 2);
        assert_eq!(e.shard(2).unwrap().num_series(), 1);
        assert_eq!(e.num_series(), 5);
        // More shards than series: clamped, never an empty shard.
        let clamped = ShardedEngine::build(&data, cfg(), 64).unwrap();
        assert_eq!(clamped.num_shards(), 5);
    }

    #[test]
    fn sharded_range_search_matches_unsharded_bit_for_bit() {
        let data = market(6, 11);
        let single = SearchEngine::build(&data, cfg()).unwrap();
        let sharded = ShardedEngine::build(&data, cfg(), 3).unwrap();
        let q = query(&data);
        let a = single.search(&q, 0.8, SearchOptions::default()).unwrap();
        let b = sharded.search(&q, 0.8, SearchOptions::default()).unwrap();
        assert!(!a.matches.is_empty(), "workload must produce matches");
        assert_eq!(a.matches.len(), b.matches.len());
        for (x, y) in a.matches.iter().zip(&b.matches) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.distance.to_bits(), y.distance.to_bits());
            assert_eq!(x.transform.a.to_bits(), y.transform.a.to_bits());
            assert_eq!(x.transform.b.to_bits(), y.transform.b.to_bits());
        }
        // The identity survives the merge, and the shard counters stamp.
        assert_eq!(
            b.stats.candidates,
            b.stats.verified + b.stats.false_alarms + b.stats.cost_rejected
        );
        assert_eq!(b.stats.shards_ok, 3);
        assert_eq!(b.stats.degraded_shards, 0);
        assert!(!b.stats.degraded);
    }

    #[test]
    fn knn_merge_retightens_to_global_k() {
        let data = market(6, 13);
        let single = SearchEngine::build(&data, cfg()).unwrap();
        let sharded = ShardedEngine::build(&data, cfg(), 3).unwrap();
        let q = query(&data);
        let k = 5;
        let a = single
            .execute(&q, Query::Nearest { k }, SearchOptions::default())
            .unwrap()
            .matches;
        let b = sharded
            .execute(&q, Query::Nearest { k }, SearchOptions::default())
            .unwrap()
            .matches;
        assert_eq!(b.len(), k, "merge must truncate to the global k");
        let ids_a: Vec<_> = a.iter().map(|m| m.id).collect();
        let ids_b: Vec<_> = b.iter().map(|m| m.id).collect();
        assert_eq!(ids_a, ids_b);
    }

    #[test]
    fn smashed_shard_degrades_only_its_slice() {
        let data = market(6, 17);
        let mut sharded = ShardedEngine::build(&data, cfg(), 3).unwrap();
        let sick = 1;
        let extent = sharded.shard(sick).unwrap().index_extent();
        {
            let shard = sharded.shard_mut(sick).unwrap();
            for p in 0..u32::try_from(extent).unwrap() {
                let _ = shard.corrupt_index_page(p, &mut |b| {
                    b[12] ^= 0x42;
                });
            }
            shard.tree_mut().clear_cache().unwrap();
        }
        let q = query(&data);
        let res = sharded.search(&q, 0.8, SearchOptions::default()).unwrap();
        assert_eq!(res.stats.degraded_shards, 1);
        assert_eq!(res.stats.shards_ok, 2);
        assert!(res.stats.degraded);
        let reason = res.stats.degraded_reason.clone().unwrap();
        assert!(reason.starts_with("shard 1:"), "{reason}");
        // No surviving match maps back to the sick shard's series.
        for m in &res.matches {
            assert_ne!(sharded.shard_of(m.id.series_idx()), sick);
        }
        // Error policy refuses the whole query, typed.
        let err = sharded
            .search(
                &q,
                0.8,
                SearchOptions {
                    degradation: DegradationPolicy::Error,
                    ..SearchOptions::default()
                },
            )
            .unwrap_err();
        assert!(matches!(
            err,
            EngineError::ShardUnavailable { shard: 1, .. }
        ));
        // Strict surfaces the shard's own error verbatim.
        let err = sharded
            .search(
                &q,
                0.8,
                SearchOptions {
                    degradation: DegradationPolicy::Strict,
                    ..SearchOptions::default()
                },
            )
            .unwrap_err();
        assert!(err.is_corruption(), "{err:?}");
        // Repairing the sick shard restores full service.
        sharded.repair_shard(sick).unwrap();
        let healed = sharded.search(&q, 0.8, SearchOptions::default()).unwrap();
        assert_eq!(healed.stats.degraded_shards, 0);
        assert_eq!(healed.stats.shards_ok, 3);
    }

    #[test]
    fn caller_mistakes_surface_verbatim() {
        let data = market(4, 19);
        let sharded = ShardedEngine::build(&data, cfg(), 2).unwrap();
        let err = sharded
            .search(&[0.0; WINDOW + 1], 0.5, SearchOptions::default())
            .unwrap_err();
        assert!(matches!(err, EngineError::QueryLength { .. }));
        let err = sharded
            .search(&query(&data), -1.0, SearchOptions::default())
            .unwrap_err();
        assert!(matches!(err, EngineError::InvalidEpsilon(_)));
        let mut nan = query(&data);
        nan[2] = f64::NAN;
        let err = sharded
            .search(&nan, 0.5, SearchOptions::default())
            .unwrap_err();
        assert_eq!(err, EngineError::NonFiniteQuery { index: 2 });
    }

    #[test]
    fn repair_shard_rejects_bad_index() {
        let data = market(4, 23);
        let mut sharded = ShardedEngine::build(&data, cfg(), 2).unwrap();
        let err = sharded.repair_shard(9).unwrap_err();
        assert!(matches!(
            err,
            EngineError::ShardUnavailable { shard: 9, .. }
        ));
    }
}
