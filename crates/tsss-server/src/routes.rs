//! Request dispatch: path + method → engine call → JSON response.
//!
//! Concurrency model: **snapshot reads, serialized ingest.** Every query
//! endpoint clones an `Arc` to the current immutable engine snapshot and
//! searches it with no lock held, so `/search` latency is independent of
//! `/append` traffic. Mutations (`/append`, `/repair`, `/save`) serialize
//! on the ingest mutex guarding the durable master engine; after each
//! mutation the master is republished as one immutable `Published`
//! value — a fresh snapshot, the next epoch, and the master's ingest
//! health — swapped in for readers. Every read clones that one value, so
//! the epoch and WAL tail size stamped into a search's stats name exactly
//! the generation that answered it.
//!
//! Publication is **copy-on-write**: a snapshot is a fork of the master
//! ([`SearchEngine::fork`]), sharing every page frame, so publishing costs
//! one pointer per page rather than a serialized copy. A sharded view
//! forks the published shards and applies an acknowledged append only to
//! the shard that holds its series; it is partitioned afresh
//! ([`ShardedEngine::from_engine`]) only when such a delta cannot
//! describe the change — see `next_snapshot`.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};

use tsss_core::{
    BreakerState, DurableEngine, EngineError, HealthReport, Query, SearchEngine, SearchOptions,
    SearchResult, SearchStats, ShardedEngine,
};
use tsss_data::Series;

use crate::api::{
    self, encode_health, encode_repair, encode_result, parse_options, require_f64,
    require_f64_array, require_u64, ApiError,
};
use crate::json::Json;
use crate::metrics::Metrics;

/// What query endpoints run against: the published immutable snapshot,
/// served either by one engine or by a scatter-gather sharded view with
/// per-shard fault isolation. Chosen at startup
/// ([`AppState::new_durable_sharded`] / `ServerConfig::shards`) and carried
/// forward, copy-on-write, by every snapshot publication.
pub enum ServingSnapshot {
    /// A single engine — one fault domain, the default. Boxed so the
    /// variants stay comparably sized; the snapshot lives behind an `Arc`.
    Single(Box<SearchEngine>),
    /// N independent shards: a corrupt or budget-exhausted shard degrades
    /// only its slice of each answer (`stats.degraded_shards`).
    Sharded(ShardedEngine),
}

impl ServingSnapshot {
    /// How many fault domains serve queries (`1` for a single engine).
    pub fn num_shards(&self) -> usize {
        match self {
            ServingSnapshot::Single(_) => 1,
            ServingSnapshot::Sharded(s) => s.num_shards(),
        }
    }

    /// Total series across all fault domains.
    pub fn num_series(&self) -> usize {
        match self {
            ServingSnapshot::Single(e) => e.num_series(),
            ServingSnapshot::Sharded(s) => s.num_series(),
        }
    }

    /// Total indexed windows across all fault domains.
    pub fn num_windows(&self) -> usize {
        match self {
            ServingSnapshot::Single(e) => e.num_windows(),
            ServingSnapshot::Sharded(s) => s.num_windows(),
        }
    }

    /// Per-shard circuit-breaker positions, in shard order (one entry for
    /// a single engine).
    pub fn shard_breakers(&self) -> Vec<BreakerState> {
        match self {
            ServingSnapshot::Single(e) => vec![e.breaker_state()],
            ServingSnapshot::Sharded(s) => s.breaker_states(),
        }
    }

    /// Query-path health. A sharded snapshot folds its per-shard reports
    /// into one: worst breaker, summed lifetime counters, OR'd repair
    /// flags, and the concatenation of quarantined pages (page ids are
    /// shard-local, so the list says *whether* repair is due, not where —
    /// `shard_breakers` locates the sick domain).
    pub fn health(&self) -> HealthReport {
        match self {
            ServingSnapshot::Single(e) => e.health(),
            ServingSnapshot::Sharded(s) => {
                let mut agg = HealthReport::default();
                for r in s.health() {
                    agg.breaker = agg.breaker.max(r.breaker);
                    // Strikes count *consecutive* corrupt probes within one
                    // domain; across domains the worst one is the signal.
                    agg.strikes = agg.strikes.max(r.strikes);
                    agg.seqscan_served += r.seqscan_served;
                    agg.breaker_trips += r.breaker_trips;
                    agg.quarantined_pages.extend(r.quarantined_pages);
                    agg.index_retries += r.index_retries;
                    agg.data_retries += r.data_retries;
                    agg.append_tail_unindexed |= r.append_tail_unindexed;
                    agg.max_norm_loose |= r.max_norm_loose;
                    agg.wal_tail_records += r.wal_tail_records;
                    agg.wal_replayed += r.wal_replayed;
                }
                agg
            }
        }
    }

    /// Runs one query — [`SearchEngine::execute`] or the scatter-gather
    /// [`ShardedEngine::execute`].
    pub fn execute(
        &self,
        values: &[f64],
        query: Query,
        opts: SearchOptions,
    ) -> Result<SearchResult, EngineError> {
        match self {
            ServingSnapshot::Single(e) => e.execute(values, query, opts),
            ServingSnapshot::Sharded(s) => s.execute(values, query, opts),
        }
    }
}

/// One publication of the serving state, immutable once swapped in: the
/// snapshot queries run against, its generation, and the master's health
/// as of that publication. A read clones one `Arc<Published>` and answers,
/// stamps and reports from it, so no response pairs one generation's
/// answer with another's epoch.
struct Published {
    snapshot: Arc<ServingSnapshot>,
    /// `0` at startup, then one more per publication.
    epoch: u64,
    /// The master's [`DurableEngine::health`] at publication. Reads use
    /// only its ingest-side fields (WAL tail and replay counts, unindexed
    /// tail, loose norm bound); query-path health comes from `snapshot`.
    ingest: HealthReport,
}

impl Published {
    /// Stamps the serving-layer fields into a result's stats: which
    /// generation answered, and how deep the WAL tail was when it was
    /// published.
    fn stamp(&self, stats: &mut SearchStats) {
        stats.epoch = self.epoch;
        stats.wal_tail_records = self.ingest.wal_tail_records;
    }
}

/// State shared by every worker thread.
pub struct AppState {
    /// The current [`Published`] value all read endpoints use. The lock is
    /// held only to clone or swap the `Arc` — never across a search. The
    /// name is what `tsss-analyze`'s declared `ingest → snapshot` lock
    /// order refers to.
    snapshot: RwLock<Arc<Published>>,
    /// Fault domains the snapshot is partitioned into (`1` = serve the
    /// engine directly), before the clamp to the series count; fixed at
    /// startup.
    shards: usize,
    /// The durable master engine; appends, repairs and saves serialize here.
    ingest: Mutex<DurableEngine>,
    /// Whether appends are write-ahead logged (false for a volatile master).
    durable: bool,
    /// Server-wide counters.
    pub metrics: Metrics,
}

impl AppState {
    /// Wraps a master engine for serving, with queries answered across
    /// `shards` fault domains: `<= 1` serves a fork of the engine, more
    /// serves a scatter-gather [`ShardedEngine`] (clamped to the number of
    /// series). Ingest stays single-master: the master is partitioned once
    /// here, and each later publication applies an append only to the
    /// shard holding its series, partitioning afresh only when that delta
    /// cannot describe the change (see `next_snapshot`). A volatile
    /// master ([`DurableEngine::new_volatile`]) serves the same API, but
    /// its `/append` acknowledgements do not survive a crash and `/save`
    /// is rejected.
    pub fn new_durable_sharded(master: DurableEngine, shards: usize) -> AppState {
        // The first snapshot is made the way a fresh partition is made on
        // every later fallback, so an engine that cannot snapshot fails at
        // startup rather than on the first mutation.
        let snapshot = make_snapshot(master.engine(), shards)
            .expect("a loaded engine must snapshot for serving");
        AppState {
            snapshot: RwLock::new(Arc::new(Published {
                snapshot: Arc::new(snapshot),
                epoch: 0,
                ingest: master.health(),
            })),
            shards,
            durable: master.is_durable(),
            ingest: Mutex::new(master),
            metrics: Metrics::default(),
        }
    }
}

/// Clones the current published value — reads then run with no lock held.
fn published(state: &AppState) -> Arc<Published> {
    // Poison recovery: this lock is held only to clone or swap the Arc,
    // never across engine work, so a poisoned lock still guards a fully
    // consistent pointer.
    state
        .snapshot
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()
}

/// Clones the current snapshot `Arc` — queries then run with no lock held.
pub fn snapshot(state: &AppState) -> Arc<ServingSnapshot> {
    Arc::clone(&published(state).snapshot)
}

/// Locks the ingest master, recovering from a poisoned mutex.
///
/// This is the **only** sanctioned way to take the ingest lock — every
/// mutation path goes through it, and `tsss-analyze`'s R7 pass
/// recognizes `lock_ingest(..)` as the blessed ingest acquisition.
/// Query paths never call it: searches run on a cloned snapshot `Arc`
/// (see [`snapshot`]), so a slow ingest can never block a reader.
///
/// A worker that panicked mid-mutation may have left a half-applied
/// append on the master (values stored, windows not yet indexed). The
/// guard data is still a valid engine, so recovery is: take it, and if
/// the health report shows an unindexed tail, repair before serving the
/// next writer — otherwise every later search of a published snapshot
/// would silently miss the tail windows.
fn lock_ingest(state: &AppState) -> MutexGuard<'_, DurableEngine> {
    match state.ingest.lock() {
        Ok(guard) => guard,
        Err(poisoned) => {
            let mut master = poisoned.into_inner();
            if master.engine().health().append_tail_unindexed {
                // analyze::allow(result-discipline): best-effort tail repair on poison recovery — on failure the unindexed tail stays visible in `/health` (repair_recommended) and the next explicit `/repair` surfaces the error.
                let _ = master.engine_mut().repair();
            }
            master
        }
    }
}

/// Publishes the master's current state as an immutable snapshot at the
/// next epoch, carrying the current one forward by `change` (see
/// [`next_snapshot`]). Runs under the ingest lock; readers only ever
/// block for the pointer swap.
fn publish(state: &AppState, master: &DurableEngine, change: Change<'_>) -> Result<u64, ApiError> {
    let current = published(state);
    let fresh =
        next_snapshot(state, &current.snapshot, master.engine(), change).map_err(|e| ApiError {
            status: 500,
            message: format!("snapshot publish failed: {e}"),
            hint: Some(
                "the master engine and its WAL are intact; readers keep the previous \
                 snapshot — retry the request"
                    .to_string(),
            ),
        })?;
    let epoch = swap_published(state, master, |cur| (fresh, cur.epoch + 1));
    state.metrics.bump(&state.metrics.snapshots_published_total);
    Ok(epoch)
}

/// What changed on the master since the current publication — what a
/// sharded view must take in to serve the master's state again.
enum Change<'a> {
    /// Nothing: an append refused before it touched the master. Names the
    /// existing series it addressed, if any, for the guard.
    Unchanged(Option<usize>),
    /// `values` were appended to the existing global series.
    Values(usize, &'a [f64]),
    /// The series was added as the master's newest.
    NewSeries(&'a Series),
    /// A change no per-shard delta describes (`/repair`, a half-landed
    /// append): the master must be partitioned afresh.
    Repartition,
}

/// The snapshot the next publication serves.
///
/// A single engine is always a fork of the master. A sharded view forks
/// the published shards and applies `change` to the one shard holding
/// its series, as local series `g / N` (a refused append republishes the
/// current view as is). It falls back to a fresh partition of the master
/// when the change is [`Change::Repartition`], when the master's series
/// count raises the shard-count clamp, when applying the delta fails, or
/// when the result fails an O(1) guard: its series and window counts,
/// and the touched series' length, must equal the master's. The guard
/// also catches a master that moved without a publication, such as one
/// recovered from a poisoned lock. A shard grown by insertion is not
/// STR-packed, so its page counts can differ from a fresh partition's;
/// its matches cannot.
fn next_snapshot(
    state: &AppState,
    current: &Arc<ServingSnapshot>,
    master: &SearchEngine,
    change: Change<'_>,
) -> Result<Arc<ServingSnapshot>, EngineError> {
    if let Some(next) = shard_delta(current, master, state.shards, change) {
        return Ok(next);
    }
    if state.shards > 1 {
        state.metrics.bump(&state.metrics.snapshot_partitions_total);
    }
    make_snapshot(master, state.shards).map(Arc::new)
}

/// `current` carried forward by `change` when it is a sharded view a
/// per-shard delta can carry, or `None` when only a fresh snapshot will
/// do (see [`next_snapshot`]).
fn shard_delta(
    current: &Arc<ServingSnapshot>,
    master: &SearchEngine,
    shards: usize,
    change: Change<'_>,
) -> Option<Arc<ServingSnapshot>> {
    let ServingSnapshot::Sharded(view) = &**current else {
        return None;
    };
    if view.num_shards() != shards.min(master.num_series()).max(1) {
        return None;
    }
    let (next, series) = match change {
        Change::Repartition => return None,
        Change::Unchanged(series) => (None, series),
        Change::Values(series, values) => {
            let mut next = view.fork();
            next.append_values(series, values).ok()?;
            (Some(next), Some(series))
        }
        Change::NewSeries(new) => {
            let mut next = view.fork();
            let series = next.append_series(new).ok()?;
            (Some(next), Some(series))
        }
    };
    let served = next.as_ref().unwrap_or(view);
    let in_step = served.num_series() == master.num_series()
        && served.num_windows() == master.num_windows()
        && series.is_none_or(|g| served.series_len(g).ok() == master.series_len(g).ok());
    in_step.then(|| match next {
        Some(next) => Arc::new(ServingSnapshot::Sharded(next)),
        None => Arc::clone(current),
    })
}

/// Swaps in the next [`Published`] value: `next` maps the current one to
/// the snapshot and epoch to publish, which are paired with `master`'s
/// health as of now. Callers hold the ingest lock, so `master` is exactly
/// the state being published; returns the published epoch.
fn swap_published(
    state: &AppState,
    master: &DurableEngine,
    next: impl FnOnce(&Published) -> (Arc<ServingSnapshot>, u64),
) -> u64 {
    let ingest = master.health();
    let mut slot = state
        .snapshot
        .write()
        .unwrap_or_else(PoisonError::into_inner);
    let (snapshot, epoch) = next(&slot);
    *slot = Arc::new(Published {
        snapshot,
        epoch,
        ingest,
    });
    epoch
}

/// Builds a snapshot of the master from scratch: a fork of it, or — when
/// the server was configured with more than one fault domain — its data
/// partitioned into a fresh sharded view (a partition rebuilds every
/// shard from the data, so it needs no fork first). Start-up makes the
/// first snapshot this way, and [`next_snapshot`] falls back to it.
fn make_snapshot(engine: &SearchEngine, shards: usize) -> Result<ServingSnapshot, EngineError> {
    if shards <= 1 {
        return Ok(ServingSnapshot::Single(Box::new(engine.fork())));
    }
    ShardedEngine::from_engine(engine, shards).map(ServingSnapshot::Sharded)
}

/// Handles one parsed request; returns `(status, body)`. Also folds the
/// outcome into the shared metrics.
pub fn handle(state: &AppState, method: &str, path: &str, body: &[u8]) -> (u16, String) {
    let (status, payload) = dispatch(state, method, path, body);
    state.metrics.record_status(status);
    (status, payload)
}

fn dispatch(state: &AppState, method: &str, path: &str, body: &[u8]) -> (u16, String) {
    let outcome = match (method, path) {
        ("GET", "/health") => health(state),
        ("GET", "/metrics") => Ok(metrics_json(state)),
        ("POST", "/repair") => repair(state),
        ("POST", "/save") => save(state),
        ("POST", "/append") => with_body(body, |b| append(state, b)),
        ("POST", "/search" | "/knn" | "/znormalized" | "/long") => {
            with_body(body, |b| query(state, path, b))
        }
        ("POST", "/batch") => with_body(body, |b| batch(state, b)),
        ("GET" | "POST", _) => Err(ApiError {
            status: 404,
            message: format!("no route {path:?}"),
            hint: None,
        }),
        _ => Err(ApiError {
            status: 405,
            message: format!("method {method} not supported"),
            hint: None,
        }),
    };
    match outcome {
        Ok(json) => (200, json.encode()),
        Err(e) => (e.status, e.body()),
    }
}

fn with_body(
    body: &[u8],
    f: impl FnOnce(&Json) -> Result<Json, ApiError>,
) -> Result<Json, ApiError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ApiError::bad_request("request body is not UTF-8"))?;
    let json = Json::parse(text).map_err(|e| ApiError::bad_request(e.to_string()))?;
    if !matches!(json, Json::Obj(_)) {
        return Err(ApiError::bad_request("request body must be a JSON object"));
    }
    f(&json)
}

fn health(state: &AppState) -> Result<Json, ApiError> {
    let published = published(state);
    let engine = &published.snapshot;
    // Query-path health (breaker, quarantine, retries) comes from the
    // snapshot, which is what queries actually run against. Ingest-path
    // health comes from the master as published, not from the master
    // itself — this endpoint must answer while an append or rebuild holds
    // the ingest lock.
    let ingest = &published.ingest;
    let h = HealthReport {
        append_tail_unindexed: ingest.append_tail_unindexed,
        max_norm_loose: ingest.max_norm_loose,
        wal_tail_records: ingest.wal_tail_records,
        wal_replayed: ingest.wal_replayed,
        ..engine.health()
    };
    let mut j = encode_health(&h);
    if let Json::Obj(map) = &mut j {
        map.insert("num_series".to_string(), Json::from(engine.num_series()));
        map.insert("num_windows".to_string(), Json::from(engine.num_windows()));
        map.insert("shards".to_string(), Json::from(engine.num_shards()));
        map.insert("shard_breakers".to_string(), encode_shard_breakers(engine));
        map.insert("epoch".to_string(), Json::from(published.epoch));
        map.insert("durable".to_string(), Json::from(state.durable));
    }
    Ok(j)
}

/// Per-shard breaker positions as a JSON array of `"closed"` /
/// `"half-open"` / `"open"`, in shard order.
fn encode_shard_breakers(snapshot: &ServingSnapshot) -> Json {
    Json::Arr(
        snapshot
            .shard_breakers()
            .iter()
            .map(|b| Json::from(b.to_string().as_str()))
            .collect(),
    )
}

fn metrics_json(state: &AppState) -> Json {
    let mut j = state.metrics.to_json();
    if let Json::Obj(map) = &mut j {
        let published = published(state);
        let engine = &published.snapshot;
        map.insert("shards".to_string(), Json::from(engine.num_shards()));
        map.insert("shard_breakers".to_string(), encode_shard_breakers(engine));
        map.insert("epoch".to_string(), Json::from(published.epoch));
        map.insert(
            "wal_tail_records".to_string(),
            Json::from(published.ingest.wal_tail_records),
        );
        map.insert("durable".to_string(), Json::from(state.durable));
    }
    j
}

fn repair(state: &AppState) -> Result<Json, ApiError> {
    let mut master = lock_ingest(state);
    let report = master.engine_mut().repair()?;
    let epoch = publish(state, &master, Change::Repartition)?;
    let mut j = encode_repair(&report);
    if let Json::Obj(map) = &mut j {
        map.insert("epoch".to_string(), Json::from(epoch));
    }
    Ok(j)
}

fn save(state: &AppState) -> Result<Json, ApiError> {
    let mut master = lock_ingest(state);
    if !master.is_durable() {
        return Err(ApiError::bad_request(
            "engine is volatile (no save path); serve a saved engine file to enable /save",
        ));
    }
    master.save()?;
    state.metrics.bump(&state.metrics.saves_total);
    // The WAL is now empty; the in-memory engine did not change, so the
    // same snapshot and epoch are republished with the fresh health.
    swap_published(state, &master, |cur| (Arc::clone(&cur.snapshot), cur.epoch));
    Ok(Json::obj([
        ("saved", Json::from(true)),
        ("wal_tail_records", Json::from(master.wal_tail_records())),
    ]))
}

/// What an `/append` asks for, parsed before the ingest lock is taken so
/// malformed requests never serialize with real writers.
enum AppendTarget {
    /// Append these values to the existing series at this index.
    Existing(usize, Vec<f64>),
    /// Create this new series.
    New(Series),
}

impl AppendTarget {
    /// The master's change once the append was applied (`applied`) or
    /// refused before touching it.
    fn change(&self, applied: bool) -> Change<'_> {
        match (self, applied) {
            (AppendTarget::Existing(si, values), true) => Change::Values(*si, values),
            (AppendTarget::New(series), true) => Change::NewSeries(series),
            (AppendTarget::Existing(si, _), false) => Change::Unchanged(Some(*si)),
            (AppendTarget::New(_), false) => Change::Unchanged(None),
        }
    }
}

fn append_target(body: &Json) -> Result<AppendTarget, ApiError> {
    let values = require_f64_array(body, "values")?;
    match (body.get("series"), body.get("name")) {
        (Some(s), None) => {
            let si = s
                .as_u64()
                .ok_or_else(|| ApiError::bad_request("\"series\" must be an integer index"))?;
            let si = usize::try_from(si)
                .map_err(|_| ApiError::bad_request("\"series\" index out of range"))?;
            Ok(AppendTarget::Existing(si, values))
        }
        (None, Some(n)) => {
            let name = n
                .as_str()
                .ok_or_else(|| ApiError::bad_request("\"name\" must be a string"))?;
            Ok(AppendTarget::New(Series::new(name, values)))
        }
        _ => Err(ApiError::bad_request(
            "provide exactly one of \"series\" (append to existing) or \"name\" (new series)",
        )),
    }
}

fn append(state: &AppState, body: &Json) -> Result<Json, ApiError> {
    let target = append_target(body)?;
    let mut master = lock_ingest(state);
    state.metrics.bump(&state.metrics.appends_total);
    let applied = match &target {
        AppendTarget::Existing(si, values) => master.append_values(*si, values).map(|()| *si),
        AppendTarget::New(series) => master.append_series(series),
    };
    let mut rebuilt = false;
    if applied.is_ok() && master.engine().str_rebuild_due() {
        // Past the measured insert-degradation threshold an STR bulk
        // rebuild beats continuing to pay incremental R*-insert costs
        // (see `SearchEngine::str_rebuild_due`). Readers keep answering
        // from the previous snapshot while this runs.
        if master.engine_mut().repair().is_ok() {
            rebuilt = true;
            state.metrics.bump(&state.metrics.str_rebuilds_total);
        }
    }
    // Publish whatever state the master is now in — success or failure —
    // so readers see exactly what the master holds and its published
    // health is fresh. A failed append may still have mutated the master
    // (values stored with the tail unindexed): no delta describes that.
    let change = if master.engine().health().append_tail_unindexed {
        Change::Repartition
    } else {
        target.change(applied.is_ok())
    };
    let published = publish(state, &master, change);
    let series = match applied {
        Ok(s) => s,
        Err(e) => {
            let mut err = ApiError::from(e);
            if master.engine().health().append_tail_unindexed {
                err = err.with_hint(
                    "the append half-landed (values stored, windows unindexed); \
                     POST /repair reindexes from the data file and clears this",
                );
            }
            return Err(err);
        }
    };
    let epoch = published?;
    let len = master.engine().series_len(series)?;
    Ok(Json::obj([
        ("series", Json::from(series)),
        ("series_len", Json::from(len)),
        ("num_windows", Json::from(master.engine().num_windows())),
        // The acknowledgement contract: when true, this response was sent
        // only after the append was fsynced to the write-ahead log.
        ("durable", Json::from(master.is_durable())),
        ("epoch", Json::from(epoch)),
        ("wal_tail_records", Json::from(master.wal_tail_records())),
        ("str_rebuilt", Json::from(rebuilt)),
    ]))
}

fn opt_limit(body: &Json) -> Result<Option<usize>, ApiError> {
    match body.get("limit") {
        None | Some(Json::Null) => Ok(None),
        Some(v) => {
            let n = v
                .as_u64()
                .ok_or_else(|| ApiError::bad_request("\"limit\" must be a non-negative integer"))?;
            Ok(Some(usize::try_from(n).unwrap_or(usize::MAX)))
        }
    }
}

/// The one query handler: `/search`, `/knn`, `/znormalized` and `/long`
/// differ only in the [`Query`] their body names.
fn query(state: &AppState, path: &str, body: &Json) -> Result<Json, ApiError> {
    let mode = match path {
        "/knn" => {
            let k = require_u64(body, "k")?;
            let k = usize::try_from(k).map_err(|_| ApiError::bad_request("\"k\" out of range"))?;
            Query::Nearest { k }
        }
        "/znormalized" => Query::ZNormalized {
            z_eps: require_f64(body, "z_eps")?,
        },
        "/long" => Query::Long {
            epsilon: require_f64(body, "epsilon")?,
        },
        // "/search": the paper's range query.
        _ => Query::Range {
            epsilon: require_f64(body, "epsilon")?,
        },
    };
    let values = require_f64_array(body, "query")?;
    let opts = parse_options(body)?;
    let limit = opt_limit(body)?;
    let published = published(state);
    match published.snapshot.execute(&values, mode, opts) {
        Ok(mut res) => {
            published.stamp(&mut res.stats);
            state.metrics.record_search(
                res.stats.candidates,
                res.stats.verified,
                res.stats.total_pages(),
            );
            Ok(encode_result(&res, limit))
        }
        Err(e) => {
            if api::is_budget_exhaustion(&e) {
                state.metrics.record_deadline_exceeded();
            }
            Err(e.into())
        }
    }
}

fn batch(state: &AppState, body: &Json) -> Result<Json, ApiError> {
    let epsilon = require_f64(body, "epsilon")?;
    let opts = parse_options(body)?;
    let limit = opt_limit(body)?;
    let workers =
        match body.get("workers") {
            None | Some(Json::Null) => 1,
            Some(v) => usize::try_from(v.as_u64().ok_or_else(|| {
                ApiError::bad_request("\"workers\" must be a non-negative integer")
            })?)
            .unwrap_or(1)
            .min(64),
        };
    let queries_json = body
        .get("queries")
        .and_then(Json::as_array)
        .ok_or_else(|| ApiError::bad_request("missing array field \"queries\""))?;
    let mut queries: Vec<Vec<f64>> = Vec::with_capacity(queries_json.len());
    for (i, q) in queries_json.iter().enumerate() {
        let arr = q
            .as_array()
            .ok_or_else(|| ApiError::bad_request(format!("query {i} must be an array")))?;
        let vals: Result<Vec<f64>, ApiError> = arr
            .iter()
            .map(|v| {
                v.as_f64().ok_or_else(|| {
                    ApiError::bad_request(format!("query {i} must hold finite numbers"))
                })
            })
            .collect();
        queries.push(vals?);
    }

    let range = Query::Range { epsilon };
    let published = published(state);
    let mut results = match &*published.snapshot {
        ServingSnapshot::Single(e) => e.execute_batch(&queries, range, opts, workers),
        ServingSnapshot::Sharded(s) => s.execute_batch(&queries, range, opts, workers),
    };
    for res in results.iter_mut().flatten() {
        published.stamp(&mut res.stats);
    }
    let mut encoded = Vec::with_capacity(results.len());
    for r in &results {
        encoded.push(match r {
            Ok(res) => {
                state.metrics.record_search(
                    res.stats.candidates,
                    res.stats.verified,
                    res.stats.total_pages(),
                );
                let mut obj = encode_result(res, limit);
                if let Json::Obj(map) = &mut obj {
                    map.insert("ok".to_string(), Json::from(true));
                }
                obj
            }
            Err(e) => {
                if api::is_budget_exhaustion(e) {
                    state.metrics.record_deadline_exceeded();
                }
                Json::obj([
                    ("ok", Json::from(false)),
                    ("status", Json::from(u64::from(api::status_of(e)))),
                    ("error", Json::from(e.to_string())),
                ])
            }
        });
    }
    Ok(Json::obj([("results", Json::Arr(encoded))]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsss_core::EngineConfig;
    use tsss_data::{MarketConfig, MarketSimulator};

    const WINDOW: usize = 16;

    /// Serves `engine` from a volatile (memory-only) master across `shards`.
    fn serve(engine: SearchEngine, shards: usize) -> AppState {
        AppState::new_durable_sharded(DurableEngine::new_volatile(engine), shards)
    }

    fn state() -> (AppState, Vec<tsss_data::Series>) {
        let data = MarketSimulator::new(MarketConfig::small(4, 80, 42)).generate();
        let st = serve(
            SearchEngine::build(&data, EngineConfig::small(WINDOW)).unwrap(),
            1,
        );
        (st, data)
    }

    fn window_of(data: &[tsss_data::Series], series: usize, offset: usize, len: usize) -> Vec<f64> {
        data[series].values[offset..offset + len].to_vec()
    }

    fn encode_vals(vals: &[f64]) -> String {
        Json::Arr(vals.iter().map(|v| Json::from(*v)).collect()).encode()
    }

    fn query_body(data: &[tsss_data::Series], epsilon: f64) -> String {
        format!(
            "{{\"query\":{},\"epsilon\":{epsilon}}}",
            encode_vals(&window_of(data, 0, 3, WINDOW))
        )
    }

    #[test]
    fn search_route_answers_and_counts() {
        let (st, data) = state();
        let body = query_body(&data, 0.5);
        let (status, payload) = handle(&st, "POST", "/search", body.as_bytes());
        assert_eq!(status, 200, "{payload}");
        let j = Json::parse(&payload).unwrap();
        assert!(j.get("total_matches").and_then(Json::as_u64).unwrap() >= 1);
        let stats = j.get("stats").unwrap();
        let c = stats.get("candidates").and_then(Json::as_u64).unwrap();
        let v = stats.get("verified").and_then(Json::as_u64).unwrap();
        let fa = stats.get("false_alarms").and_then(Json::as_u64).unwrap();
        let cr = stats.get("cost_rejected").and_then(Json::as_u64).unwrap();
        assert_eq!(c, v + fa + cr, "stage identity must survive encoding");
        // No mutation yet: stats carry the initial generation.
        assert_eq!(stats.get("epoch").and_then(Json::as_u64), Some(0));
        assert_eq!(
            stats.get("wal_tail_records").and_then(Json::as_u64),
            Some(0)
        );
        let m = Json::parse(&handle(&st, "GET", "/metrics", b"").1).unwrap();
        assert_eq!(m.get("requests_ok").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn limit_truncates_but_reports_total() {
        let (st, data) = state();
        let mut body = query_body(&data, 50.0);
        body.insert_str(body.len() - 1, ",\"limit\":1");
        let (status, payload) = handle(&st, "POST", "/search", body.as_bytes());
        assert_eq!(status, 200);
        let j = Json::parse(&payload).unwrap();
        let total = j.get("total_matches").and_then(Json::as_u64).unwrap();
        let shown = j.get("matches").and_then(Json::as_array).unwrap().len();
        assert!(total > 1);
        assert_eq!(shown, 1);
    }

    #[test]
    fn tight_deadline_is_503_and_counted() {
        let (st, data) = state();
        let mut body = query_body(&data, 0.5);
        body.insert_str(
            body.len() - 1,
            ",\"opts\":{\"deadline\":{\"max_pages\":0,\"max_steps\":0}}",
        );
        let (status, _) = handle(&st, "POST", "/search", body.as_bytes());
        assert_eq!(status, 503);
        let m = Json::parse(&handle(&st, "GET", "/metrics", b"").1).unwrap();
        assert_eq!(
            m.get("deadline_exceeded_total").and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(
            m.get("requests_server_error").and_then(Json::as_u64),
            Some(1)
        );
    }

    #[test]
    fn append_then_search_finds_new_windows_and_health_stays_clean() {
        let (st, _) = state();
        let before = {
            let j = Json::parse(&handle(&st, "GET", "/health", b"").1).unwrap();
            assert_eq!(
                j.get("repair_recommended").and_then(Json::as_bool),
                Some(false)
            );
            j.get("num_windows").and_then(Json::as_u64).unwrap()
        };
        let vals: Vec<Json> = (0..40).map(|i| Json::from(f64::from(i) * 0.25)).collect();
        let body = format!(
            "{{\"name\":\"fresh\",\"values\":{}}}",
            Json::Arr(vals).encode()
        );
        let (status, payload) = handle(&st, "POST", "/append", body.as_bytes());
        assert_eq!(status, 200, "{payload}");
        let j = Json::parse(&payload).unwrap();
        assert_eq!(j.get("series_len").and_then(Json::as_u64), Some(40));
        let after = j.get("num_windows").and_then(Json::as_u64).unwrap();
        assert!(after > before);
        // The response states the acknowledgement contract: this state is
        // volatile, so the append is explicitly not durable.
        assert_eq!(j.get("durable").and_then(Json::as_bool), Some(false));
        assert_eq!(j.get("epoch").and_then(Json::as_u64), Some(1));
        // Appending to the new series by index also works.
        let more = format!(
            "{{\"series\":{},\"values\":[1,2,3]}}",
            j.get("series").and_then(Json::as_u64).unwrap()
        );
        let (status, payload) = handle(&st, "POST", "/append", more.as_bytes());
        assert_eq!(status, 200);
        let j = Json::parse(&payload).unwrap();
        assert_eq!(j.get("epoch").and_then(Json::as_u64), Some(2));
        // Searches now run against the published snapshot and are stamped
        // with its generation.
        // WINDOW == 16: the probe is the first window of the "fresh" series.
        let probe: Vec<f64> = (0u32..16).map(|i| f64::from(i) * 0.25).collect();
        let body = format!("{{\"query\":{},\"epsilon\":0.01}}", encode_vals(&probe));
        let (status, payload) = handle(&st, "POST", "/search", body.as_bytes());
        assert_eq!(status, 200, "{payload}");
        let j = Json::parse(&payload).unwrap();
        assert!(j.get("total_matches").and_then(Json::as_u64).unwrap() >= 1);
        assert_eq!(
            j.get("stats").unwrap().get("epoch").and_then(Json::as_u64),
            Some(2)
        );
    }

    #[test]
    fn append_to_unknown_series_is_404() {
        let (st, _) = state();
        let (status, _) = handle(
            &st,
            "POST",
            "/append",
            br#"{"series":999,"values":[1,2,3]}"#,
        );
        assert_eq!(status, 404);
    }

    #[test]
    fn save_on_a_volatile_engine_is_a_client_error() {
        let (st, _) = state();
        let (status, payload) = handle(&st, "POST", "/save", b"");
        assert_eq!(status, 400, "{payload}");
        let j = Json::parse(&payload).unwrap();
        assert!(j
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("volatile"));
    }

    #[test]
    fn durable_state_acknowledges_saves_and_empties_the_wal() {
        let data = MarketSimulator::new(MarketConfig::small(4, 80, 43)).generate();
        let engine = SearchEngine::build(&data, EngineConfig::small(WINDOW)).unwrap();
        let dir = std::env::temp_dir().join(format!("tsss-routes-durable-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("engine.tsss");
        engine.save_to_path(&path).unwrap();
        std::fs::remove_file(DurableEngine::wal_path_for(&path)).ok();
        let st = AppState::new_durable_sharded(DurableEngine::open(&path).unwrap(), 1);

        let (status, payload) = handle(&st, "POST", "/append", br#"{"series":0,"values":[1,2,3]}"#);
        assert_eq!(status, 200, "{payload}");
        let j = Json::parse(&payload).unwrap();
        assert_eq!(j.get("durable").and_then(Json::as_bool), Some(true));
        assert_eq!(j.get("wal_tail_records").and_then(Json::as_u64), Some(1));

        let h = Json::parse(&handle(&st, "GET", "/health", b"").1).unwrap();
        assert_eq!(h.get("wal_tail_records").and_then(Json::as_u64), Some(1));
        assert_eq!(h.get("durable").and_then(Json::as_bool), Some(true));

        let (status, payload) = handle(&st, "POST", "/save", b"");
        assert_eq!(status, 200, "{payload}");
        let j = Json::parse(&payload).unwrap();
        assert_eq!(j.get("saved").and_then(Json::as_bool), Some(true));
        assert_eq!(j.get("wal_tail_records").and_then(Json::as_u64), Some(0));
        let h = Json::parse(&handle(&st, "GET", "/health", b"").1).unwrap();
        assert_eq!(h.get("wal_tail_records").and_then(Json::as_u64), Some(0));

        std::fs::remove_file(&path).ok();
        std::fs::remove_file(DurableEngine::wal_path_for(&path)).ok();
    }

    #[test]
    fn search_is_served_from_the_snapshot_while_ingest_is_held() {
        let (st, data) = state();
        let st = Arc::new(st);
        // Simulate a long-running append: hold the ingest lock for the
        // whole test. A search that needed any part of the write path
        // would block and the receive below would time out.
        let guard = st.ingest.lock().unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let st2 = Arc::clone(&st);
        let body = query_body(&data, 0.5);
        std::thread::spawn(move || {
            let _ = tx.send(handle(&st2, "POST", "/search", body.as_bytes()));
        });
        let (status, payload) = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("search must not block on the ingest lock");
        assert_eq!(status, 200, "{payload}");
        drop(guard);
    }

    /// The full audit behind `lock_ingest`'s contract: **no** query or
    /// observability route may touch the ingest lock. Every read path is
    /// exercised while the lock is held hostage; any route that reached
    /// for it would hang and trip the timeout.
    #[test]
    fn no_query_route_takes_the_ingest_lock() {
        let (st, data) = state();
        let st = Arc::new(st);
        let guard = st.ingest.lock().unwrap();
        let q_json = encode_vals(&window_of(&data, 1, 5, WINDOW));
        let long_json = encode_vals(&window_of(&data, 1, 0, WINDOW + WINDOW / 2));
        let search = query_body(&data, 0.5);
        let requests: Vec<(&str, &str, String)> = vec![
            ("POST", "/search", search.clone()),
            ("POST", "/knn", format!("{{\"query\":{q_json},\"k\":3}}")),
            (
                "POST",
                "/znormalized",
                format!("{{\"query\":{q_json},\"z_eps\":0.5}}"),
            ),
            (
                "POST",
                "/long",
                format!("{{\"query\":{long_json},\"epsilon\":0.5}}"),
            ),
            (
                "POST",
                "/batch",
                format!("{{\"queries\":[{q_json}],\"epsilon\":0.5}}"),
            ),
            ("GET", "/health", String::new()),
            ("GET", "/metrics", String::new()),
        ];
        for (method, route, body) in requests {
            let (tx, rx) = std::sync::mpsc::channel();
            let st2 = Arc::clone(&st);
            std::thread::spawn(move || {
                let _ = tx.send(handle(&st2, method, route, body.as_bytes()));
            });
            let (status, payload) = rx
                .recv_timeout(std::time::Duration::from_secs(30))
                .unwrap_or_else(|_| panic!("{route} must not block on the ingest lock"));
            assert_eq!(status, 200, "{route}: {payload}");
        }
        drop(guard);
    }

    #[test]
    fn knn_long_znormalized_and_batch_routes_answer() {
        let (st, data) = state();
        let q_json = encode_vals(&window_of(&data, 1, 5, WINDOW));

        let (status, payload) = handle(
            &st,
            "POST",
            "/knn",
            format!("{{\"query\":{q_json},\"k\":3}}").as_bytes(),
        );
        assert_eq!(status, 200, "{payload}");
        let j = Json::parse(&payload).unwrap();
        assert_eq!(j.get("matches").and_then(Json::as_array).unwrap().len(), 3);

        let (status, payload) = handle(
            &st,
            "POST",
            "/znormalized",
            format!("{{\"query\":{q_json},\"z_eps\":0.5}}").as_bytes(),
        );
        assert_eq!(status, 200, "{payload}");

        let long_json = encode_vals(&window_of(&data, 1, 0, WINDOW + WINDOW / 2));
        let (status, payload) = handle(
            &st,
            "POST",
            "/long",
            format!("{{\"query\":{long_json},\"epsilon\":0.5}}").as_bytes(),
        );
        assert_eq!(status, 200, "{payload}");
        let j = Json::parse(&payload).unwrap();
        assert!(j.get("total_matches").and_then(Json::as_u64).unwrap() >= 1);

        let (status, payload) = handle(
            &st,
            "POST",
            "/batch",
            format!("{{\"queries\":[{q_json},[1,2]],\"epsilon\":0.5}}").as_bytes(),
        );
        assert_eq!(status, 200, "{payload}");
        let j = Json::parse(&payload).unwrap();
        let results = j.get("results").and_then(Json::as_array).unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(results[1].get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(results[1].get("status").and_then(Json::as_u64), Some(400));
    }

    #[test]
    fn repair_route_reindexes() {
        let (st, _) = state();
        let (status, payload) = handle(&st, "POST", "/repair", b"");
        assert_eq!(status, 200);
        let j = Json::parse(&payload).unwrap();
        let reindexed = j.get("windows_reindexed").and_then(Json::as_u64).unwrap();
        assert_eq!(
            usize::try_from(reindexed).unwrap(),
            snapshot(&st).num_windows()
        );
        assert_eq!(j.get("epoch").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn malformed_requests_are_client_errors() {
        let (st, _) = state();
        for (method, path, body, want) in [
            ("POST", "/search", &b"not json"[..], 400),
            ("POST", "/search", &b"[1,2,3]"[..], 400),
            ("POST", "/search", &br#"{"epsilon":1}"#[..], 400),
            (
                "POST",
                "/search",
                &br#"{"query":[1,2],"epsilon":1,"opts":{"degradation":"x"}}"#[..],
                400,
            ),
            ("POST", "/knn", &br#"{"query":[1,2]}"#[..], 400),
            ("GET", "/nope", &b""[..], 404),
            ("DELETE", "/health", &b""[..], 405),
        ] {
            let (status, payload) = handle(&st, method, path, body);
            assert_eq!(status, want, "{method} {path}: {payload}");
            assert!(Json::parse(&payload).unwrap().get("error").is_some());
        }
    }

    fn sharded_state(shards: usize) -> (AppState, Vec<tsss_data::Series>) {
        let data = MarketSimulator::new(MarketConfig::small(4, 80, 42)).generate();
        let st = serve(
            SearchEngine::build(&data, EngineConfig::small(WINDOW)).unwrap(),
            shards,
        );
        (st, data)
    }

    #[test]
    fn sharded_state_answers_bit_identically_to_single() {
        let (single, data) = state();
        let (sharded, _) = sharded_state(4);
        let q_json = encode_vals(&window_of(&data, 0, 3, WINDOW));
        let long_json = encode_vals(&window_of(&data, 1, 0, WINDOW + WINDOW / 2));
        for (route, body) in [
            ("/search", query_body(&data, 0.5)),
            ("/knn", format!("{{\"query\":{q_json},\"k\":5}}")),
            (
                "/znormalized",
                format!("{{\"query\":{q_json},\"z_eps\":1.0}}"),
            ),
            (
                "/long",
                format!("{{\"query\":{long_json},\"epsilon\":2.0}}"),
            ),
        ] {
            let (s1, p1) = handle(&single, "POST", route, body.as_bytes());
            let (s2, p2) = handle(&sharded, "POST", route, body.as_bytes());
            assert_eq!((s1, s2), (200, 200), "{route}: {p1}\n{p2}");
            let j1 = Json::parse(&p1).unwrap();
            let j2 = Json::parse(&p2).unwrap();
            // The merged scatter-gather answer is the single engine's
            // answer, match for match and bit for bit (same JSON rendering).
            let total = j1.get("total_matches").and_then(Json::as_u64);
            assert!(total.unwrap() >= 1, "{route}: the workload must match");
            assert_eq!(total, j2.get("total_matches").and_then(Json::as_u64));
            assert_eq!(
                j1.get("matches").unwrap().encode(),
                j2.get("matches").unwrap().encode(),
                "{route}"
            );
            // Shard accounting: 4 healthy domains answered, none degraded,
            // and the stage identity survived the merge and the encoding.
            let stats = j2.get("stats").unwrap();
            assert_eq!(stats.get("shards_ok").and_then(Json::as_u64), Some(4));
            assert_eq!(stats.get("degraded_shards").and_then(Json::as_u64), Some(0));
            let c = stats.get("candidates").and_then(Json::as_u64).unwrap();
            let v = stats.get("verified").and_then(Json::as_u64).unwrap();
            let fa = stats.get("false_alarms").and_then(Json::as_u64).unwrap();
            let cr = stats.get("cost_rejected").and_then(Json::as_u64).unwrap();
            assert_eq!(c, v + fa + cr, "{route}");
            // A direct single-engine answer has no shards and says so.
            let s1stats = j1.get("stats").unwrap();
            assert_eq!(s1stats.get("shards_ok").and_then(Json::as_u64), Some(0));
            assert_eq!(
                s1stats.get("degraded_shards").and_then(Json::as_u64),
                Some(0)
            );
        }
    }

    #[test]
    fn sharded_knn_and_batch_routes_answer() {
        let (st, data) = sharded_state(4);
        let q_json = encode_vals(&window_of(&data, 1, 5, WINDOW));
        // kNN: exactly k matches even though 4 shards each found up to k.
        let (status, payload) = handle(
            &st,
            "POST",
            "/knn",
            format!("{{\"query\":{q_json},\"k\":3}}").as_bytes(),
        );
        assert_eq!(status, 200, "{payload}");
        let j = Json::parse(&payload).unwrap();
        assert_eq!(j.get("matches").and_then(Json::as_array).unwrap().len(), 3);
        assert_eq!(
            j.get("stats")
                .unwrap()
                .get("shards_ok")
                .and_then(Json::as_u64),
            Some(4)
        );
        // Batch keeps per-query isolation on the sharded path too.
        let (status, payload) = handle(
            &st,
            "POST",
            "/batch",
            format!("{{\"queries\":[{q_json},[1,2]],\"epsilon\":0.5}}").as_bytes(),
        );
        assert_eq!(status, 200, "{payload}");
        let j = Json::parse(&payload).unwrap();
        let results = j.get("results").and_then(Json::as_array).unwrap();
        assert_eq!(results[0].get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(results[1].get("ok").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn sharded_deadline_503_still_bumps_the_degradation_counter() {
        // On a sharded snapshot a spent budget surfaces as
        // `ShardUnavailable` (every shard exhausted its slice), which must
        // land in the same `/metrics` counter as the single-engine 503.
        let (st, data) = sharded_state(4);
        let mut body = query_body(&data, 0.5);
        body.insert_str(
            body.len() - 1,
            ",\"opts\":{\"deadline\":{\"max_pages\":0,\"max_steps\":0}}",
        );
        let (status, _) = handle(&st, "POST", "/search", body.as_bytes());
        assert_eq!(status, 503);
        let m = Json::parse(&handle(&st, "GET", "/metrics", b"").1).unwrap();
        assert_eq!(
            m.get("deadline_exceeded_total").and_then(Json::as_u64),
            Some(1)
        );
    }

    #[test]
    fn health_and_metrics_expose_per_shard_breakers() {
        let (st, _) = sharded_state(3);
        let h = Json::parse(&handle(&st, "GET", "/health", b"").1).unwrap();
        assert_eq!(h.get("shards").and_then(Json::as_u64), Some(3));
        let breakers = h.get("shard_breakers").and_then(Json::as_array).unwrap();
        assert_eq!(breakers.len(), 3);
        assert!(breakers.iter().all(|b| b.as_str() == Some("closed")));
        assert_eq!(
            h.get("repair_recommended").and_then(Json::as_bool),
            Some(false)
        );
        let m = Json::parse(&handle(&st, "GET", "/metrics", b"").1).unwrap();
        assert_eq!(m.get("shards").and_then(Json::as_u64), Some(3));
        assert_eq!(
            m.get("shard_breakers")
                .and_then(Json::as_array)
                .unwrap()
                .len(),
            3
        );
        // A single-engine state reports one fault domain, same schema.
        let (st1, _) = state();
        let h = Json::parse(&handle(&st1, "GET", "/health", b"").1).unwrap();
        assert_eq!(h.get("shards").and_then(Json::as_u64), Some(1));
        assert_eq!(
            h.get("shard_breakers")
                .and_then(Json::as_array)
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn append_republishes_the_sharded_snapshot() {
        let (st, data) = sharded_state(2);
        let before = snapshot(&st).num_windows();
        let vals: Vec<Json> = (0..40).map(|i| Json::from(f64::from(i) * 0.25)).collect();
        let body = format!(
            "{{\"name\":\"fresh\",\"values\":{}}}",
            Json::Arr(vals).encode()
        );
        let (status, payload) = handle(&st, "POST", "/append", body.as_bytes());
        assert_eq!(status, 200, "{payload}");
        // The republished snapshot is sharded again and holds the new
        // series' windows.
        let snap = snapshot(&st);
        assert_eq!(snap.num_shards(), 2);
        assert!(snap.num_windows() > before);
        assert_eq!(snap.num_series(), data.len() + 1);
        // And the new windows are searchable through the sharded view.
        let probe: Vec<f64> = (0u32..16).map(|i| f64::from(i) * 0.25).collect();
        let body = format!("{{\"query\":{},\"epsilon\":0.01}}", encode_vals(&probe));
        let (status, payload) = handle(&st, "POST", "/search", body.as_bytes());
        assert_eq!(status, 200, "{payload}");
        let j = Json::parse(&payload).unwrap();
        assert!(j.get("total_matches").and_then(Json::as_u64).unwrap() >= 1);
        assert_eq!(
            j.get("stats")
                .unwrap()
                .get("shards_ok")
                .and_then(Json::as_u64),
            Some(2)
        );
    }

    /// One query per [`Query`] mode, cut from series 1: a window and a
    /// window and a half.
    fn every_mode(data: &[tsss_data::Series]) -> Vec<(Vec<f64>, Query)> {
        let window = window_of(data, 1, 5, WINDOW);
        let long = window_of(data, 1, 0, WINDOW + WINDOW / 2);
        vec![
            (window.clone(), Query::Range { epsilon: 0.5 }),
            (window.clone(), Query::Nearest { k: 5 }),
            (window, Query::ZNormalized { z_eps: 1.0 }),
            (long, Query::Long { epsilon: 2.0 }),
        ]
    }

    /// Every query's full result on `snap`, wall time cleared so results
    /// compare exactly: matches and every `SearchStats` counter.
    fn answers(snap: &ServingSnapshot, queries: &[(Vec<f64>, Query)]) -> Vec<SearchResult> {
        queries
            .iter()
            .map(|(values, mode)| {
                let mut res = snap
                    .execute(values, *mode, SearchOptions::default())
                    .unwrap();
                res.stats.elapsed = std::time::Duration::ZERO;
                res
            })
            .collect()
    }

    fn matches_of(results: Vec<SearchResult>) -> Vec<Vec<tsss_core::SubsequenceMatch>> {
        results.into_iter().map(|r| r.matches).collect()
    }

    /// The master saved and reloaded, as a snapshot.
    fn reloaded_master(st: &AppState) -> ServingSnapshot {
        let master = st.ingest.lock().unwrap();
        let mut buf = Vec::new();
        master.engine().save_to(&mut buf).unwrap();
        let engine = SearchEngine::load_from(&mut std::io::Cursor::new(buf)).unwrap();
        ServingSnapshot::Single(Box::new(engine))
    }

    /// The master partitioned afresh into `shards`, as a snapshot.
    fn fresh_partition(st: &AppState, shards: usize) -> ServingSnapshot {
        let master = st.ingest.lock().unwrap();
        ServingSnapshot::Sharded(ShardedEngine::from_engine(master.engine(), shards).unwrap())
    }

    /// An `/append` body for `target` (`"series":i` or `"name":"x"`) of
    /// `values` transformed by `v → 2v + 3`, so the queries that match the
    /// source also match the appended copy.
    fn append_body(target: &str, values: &[f64]) -> String {
        let scaled: Vec<f64> = values.iter().map(|v| 2.0 * v + 3.0).collect();
        format!("{{{target},\"values\":{}}}", encode_vals(&scaled))
    }

    /// 300 values: enough one-at-a-time inserts to reach
    /// `str_rebuild_due` on the test engines (floored at 256).
    fn long_append(data: &[tsss_data::Series]) -> Vec<f64> {
        data[2].values.iter().cycle().take(300).copied().collect()
    }

    #[test]
    fn a_single_engine_snapshot_answers_as_the_saved_and_reloaded_master() {
        let (st, data) = state();
        let queries = every_mode(&data);
        let copy = &data[1].values[..40];
        let steps = [
            ("/append", append_body("\"series\":0", copy)),
            ("/append", append_body("\"name\":\"fresh\"", copy)),
            ("/repair", String::new()),
            ("/append", append_body("\"series\":3", &long_append(&data))),
        ];
        for (epoch, (route, body)) in (1..).zip(&steps) {
            let ack = ok_json(&st, "POST", route, body);
            assert_eq!(field(&ack, "epoch"), epoch);
            let want = answers(&reloaded_master(&st), &queries);
            assert_eq!(answers(&snapshot(&st), &queries), want, "epoch {epoch}");
        }
        let last = ok_json(&st, "GET", "/health", "");
        assert_eq!(field(&last, "epoch"), 4);
        assert_eq!(
            st.ingest.lock().unwrap().engine().inserts_since_rebuild(),
            0,
            "the last append crossed str_rebuild_due and rebuilt the master"
        );
    }

    #[test]
    fn a_sharded_view_matches_a_fresh_partition_after_every_append() {
        let (st, data) = sharded_state(2);
        let queries = every_mode(&data);
        let copy = &data[1].values[..40];
        let steps = [
            append_body("\"series\":0", copy),
            append_body("\"series\":1", &data[0].values[..7]),
            append_body("\"name\":\"fresh\"", copy),
            append_body("\"series\":4", copy),
            append_body("\"series\":3", &long_append(&data)),
        ];
        for (epoch, body) in (1..).zip(&steps) {
            let ack = ok_json(&st, "POST", "/append", body);
            assert_eq!(field(&ack, "epoch"), epoch);
            let want = matches_of(answers(&fresh_partition(&st, 2), &queries));
            assert_eq!(
                matches_of(answers(&snapshot(&st), &queries)),
                want,
                "epoch {epoch}"
            );
        }
        let snap = snapshot(&st);
        let ServingSnapshot::Sharded(view) = &*snap else {
            panic!("a two-shard state serves a sharded view");
        };
        assert_eq!(
            view.shard(1).unwrap().inserts_since_rebuild(),
            0,
            "series 3's shard crossed its own str_rebuild_due and rebuilt"
        );
        let partitions = |st: &AppState| {
            let m = ok_json(st, "GET", "/metrics", "");
            field(&m, "snapshot_partitions_total")
        };
        assert_eq!(partitions(&st), 0, "every append took the delta path");

        // A half-landed append: the values reach the master's data file,
        // but its index root is damaged, so the windows never do.
        damage_master_root(&st);
        let (status, payload) = handle(&st, "POST", "/append", steps[0].as_bytes());
        assert_eq!(status, 500, "{payload}");
        assert!(payload.contains("half-landed"), "{payload}");
        // It and `/repair` each publish a fresh partition, page counts too.
        let fresh = answers(&fresh_partition(&st, 2), &queries);
        assert_eq!(answers(&snapshot(&st), &queries), fresh);
        assert_eq!(partitions(&st), 1);
        ok_json(&st, "POST", "/repair", "");
        let fresh = answers(&fresh_partition(&st, 2), &queries);
        assert_eq!(answers(&snapshot(&st), &queries), fresh);
        assert_eq!(partitions(&st), 2);
    }

    /// Flips a byte of the master's index root beneath its checksum.
    fn damage_master_root(st: &AppState) {
        let mut master = st.ingest.lock().unwrap();
        let root = master.engine().tree().root_page().0;
        master
            .engine_mut()
            .corrupt_index_page(root, &mut |bytes| bytes[0] ^= 0xff)
            .unwrap();
    }

    /// The published snapshot shares the master's page frames, never its
    /// damage: a page corrupted on the master stays clean in the snapshot
    /// until a publication carries the master's state over.
    #[test]
    fn damage_to_the_master_stays_out_of_the_published_snapshot() {
        let (st, data) = state();
        let body = query_body(&data, 0.5);
        let clean = ok_json(&st, "POST", "/search", &body);
        damage_master_root(&st);
        let after = ok_json(&st, "POST", "/search", &body);
        assert_eq!(after.get("matches"), clean.get("matches"));
        let stats = after.get("stats").unwrap();
        assert_eq!(stats.get("degraded").and_then(Json::as_bool), Some(false));
        // The next publication forks the damaged master; reads detect the
        // damage and degrade to the scan, and `/repair` heals it.
        let (status, _) = handle(&st, "POST", "/append", br#"{"series":0,"values":[1,2,3]}"#);
        assert_eq!(status, 500);
        let degraded = ok_json(&st, "POST", "/search", &body);
        let stats = degraded.get("stats").unwrap();
        assert_eq!(stats.get("degraded").and_then(Json::as_bool), Some(true));
        assert_eq!(degraded.get("matches"), clean.get("matches"));
        ok_json(&st, "POST", "/repair", "");
        let healed = ok_json(&st, "POST", "/search", &body);
        let stats = healed.get("stats").unwrap();
        assert_eq!(stats.get("degraded").and_then(Json::as_bool), Some(false));
    }

    /// A state over one series serves one shard, however many were asked
    /// for. A new series raises the clamp: the next publication
    /// partitions afresh into two, rather than freezing at one.
    #[test]
    fn a_new_series_raises_the_shard_count_clamp() {
        let data = MarketSimulator::new(MarketConfig::small(1, 80, 42)).generate();
        let st = serve(
            SearchEngine::build(&data, EngineConfig::small(WINDOW)).unwrap(),
            2,
        );
        assert_eq!(field(&ok_json(&st, "GET", "/health", ""), "shards"), 1);
        let body = append_body("\"name\":\"second\"", &data[0].values[..40]);
        ok_json(&st, "POST", "/append", &body);
        let health = ok_json(&st, "GET", "/health", "");
        assert_eq!(field(&health, "shards"), 2);
        assert_eq!(field(&health, "epoch"), 1);
        let queries = vec![(
            window_of(&data, 0, 5, WINDOW),
            Query::Range { epsilon: 0.5 },
        )];
        assert_eq!(
            answers(&snapshot(&st), &queries),
            answers(&fresh_partition(&st, 2), &queries)
        );
    }

    #[test]
    fn long_route_on_a_coarser_stride_is_400() {
        let data = MarketSimulator::new(MarketConfig::small(4, 80, 42)).generate();
        let mut cfg = EngineConfig::small(WINDOW);
        cfg.stride = 2;
        let st = serve(SearchEngine::build(&data, cfg).unwrap(), 1);
        let long_json = encode_vals(&window_of(&data, 1, 0, WINDOW + WINDOW / 2));
        let body = format!("{{\"query\":{long_json},\"epsilon\":0.5}}");
        let (status, payload) = handle(&st, "POST", "/long", body.as_bytes());
        assert_eq!(status, 400, "{payload}");
        assert!(payload.contains("stride 1"), "{payload}");
    }

    #[test]
    fn query_of_wrong_length_is_400() {
        let (st, _) = state();
        let (status, _) = handle(
            &st,
            "POST",
            "/search",
            br#"{"query":[1,2,3],"epsilon":0.5}"#,
        );
        assert_eq!(status, 400);
    }

    /// Every read answers, stamps and reports from one published state.
    /// One writer appends while two readers race it. At ε = 1e12 every
    /// window matches, so each `/search` and `/batch` answer's
    /// `total_matches`, and each `/health` report's `num_windows`, must
    /// equal the `num_windows` the writer was acknowledged at the epoch
    /// the response names.
    #[test]
    fn every_response_reports_the_epoch_that_answered_it() {
        for (st, data) in [state(), sharded_state(2)] {
            assert_reads_match_their_epoch(&st, &data);
        }
    }

    /// Races 200 three-value appends, round-robin over the 4 series,
    /// against two readers.
    fn assert_reads_match_their_epoch(st: &AppState, data: &[tsss_data::Series]) {
        use std::collections::BTreeMap;
        use std::sync::atomic::{AtomicBool, Ordering};

        let health = ok_json(st, "GET", "/health", "");
        assert_eq!(field(&health, "epoch"), 0);
        let mut acked = BTreeMap::from([(0, field(&health, "num_windows"))]);
        let q = encode_vals(&window_of(data, 0, 3, WINDOW));
        let search = format!("{{\"query\":{q},\"epsilon\":1e12,\"limit\":0}}");
        let batch = format!("{{\"queries\":[{q}],\"epsilon\":1e12,\"limit\":0}}");
        // Relaxed: a stop flag only; the reads travel back through join.
        let done = AtomicBool::new(false);
        let reads: Vec<_> = std::thread::scope(|s| {
            let readers: Vec<_> = (0..2)
                .map(|r| {
                    let (done, search, batch) = (&done, &search, &batch);
                    s.spawn(move || {
                        let mut reads = Vec::new();
                        for k in r.. {
                            reads.push(read_once(st, k, search, batch));
                            if done.load(Ordering::Relaxed) {
                                break;
                            }
                        }
                        reads
                    })
                })
                .collect();
            for i in 0..200 {
                let body = format!("{{\"series\":{},\"values\":[1,2,3]}}", i % 4);
                let ack = ok_json(st, "POST", "/append", &body);
                acked.insert(field(&ack, "epoch"), field(&ack, "num_windows"));
            }
            done.store(true, Ordering::Relaxed);
            readers
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(acked.len(), 201, "one publication per append");
        let bad: Vec<_> = reads
            .iter()
            .filter_map(|&(route, epoch, n)| {
                let want = acked.get(&epoch).copied();
                (want != Some(n)).then_some((route, epoch, n, want))
            })
            .collect();
        assert!(
            bad.is_empty(),
            "{} shard(s): {} of {} responses reported another epoch's answer; \
             first (route, epoch, reported, acknowledged): {:?}",
            snapshot(st).num_shards(),
            bad.len(),
            reads.len(),
            &bad[..bad.len().min(5)]
        );
    }

    /// One read of the race, cycling `/search`, `/batch`, `/health` by
    /// `k`: the route, the epoch it reported, and the count it reported.
    fn read_once(st: &AppState, k: usize, search: &str, batch: &str) -> (&'static str, u64, u64) {
        match k % 3 {
            0 => {
                let j = ok_json(st, "POST", "/search", search);
                let epoch = field(j.get("stats").unwrap(), "epoch");
                ("/search", epoch, field(&j, "total_matches"))
            }
            1 => {
                let j = ok_json(st, "POST", "/batch", batch);
                let r = &j.get("results").and_then(Json::as_array).unwrap()[0];
                let epoch = field(r.get("stats").unwrap(), "epoch");
                ("/batch", epoch, field(r, "total_matches"))
            }
            _ => {
                let j = ok_json(st, "GET", "/health", "");
                ("/health", field(&j, "epoch"), field(&j, "num_windows"))
            }
        }
    }

    /// Handles one request that must succeed and parses its body.
    fn ok_json(st: &AppState, method: &str, route: &str, body: &str) -> Json {
        let (status, payload) = handle(st, method, route, body.as_bytes());
        assert_eq!(status, 200, "{route}: {payload}");
        Json::parse(&payload).unwrap()
    }

    fn field(j: &Json, key: &str) -> u64 {
        j.get(key).and_then(Json::as_u64).unwrap()
    }
}
