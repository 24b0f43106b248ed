//! The traced run: in process, single-threaded, tracing on.
//!
//! The workload's own requests are replayed through each layer's public
//! functions, each call wrapped in a span — `http::read_request`,
//! `Json::parse` plus the `api` field extraction, `QueryPlan`,
//! `IndexProbe::candidates`, `Verifier::verify` (or the whole kNN),
//! `api::encode_result`, `http::write_response_conn` — and then once more
//! through the whole `routes::handle`, so the layers' summed self time can
//! be set against the real handler (`trace.coverage`). Every request is
//! also run through the layer its server does not use (the 2-shard
//! partition for single-engine workloads, the single engine for `fanout`),
//! and workloads without kNN requests add one kNN probe per 32 queries,
//! so every per-layer metric is measured on every workload. The write path
//! replays the workload's appends: `ingest`'s stream, each append followed
//! by two reader queries at the new snapshot, or the read-only workloads'
//! post-run appends.
//!
//! Spans (name, start, end, parent, request id) are kept in memory and
//! written to `<state-dir>/trace-<workload>.tsv` when the run ends.

use std::collections::BTreeMap;
use std::io::{self, Write as _};
use std::path::Path;
use std::time::{Duration, Instant};

use tsss_core::CandidateSource as _;
use tsss_core::{
    DeadlineMeter, DurableEngine, IndexProbe, QueryPlan, SearchEngine, SearchOptions, SearchResult,
    ShardedEngine, Verifier,
};
use tsss_server::json::Json;
use tsss_server::routes::{self, AppState, ServingSnapshot};
use tsss_server::{api, http};

use crate::stats::{mean, median, ratio};
use crate::workload::{
    append_body, pass_order, post, read_requests, AppendStream, Corpus, Digest, ReadKind, ReadReq,
    FANOUT_SHARDS,
};
use crate::{reference_answers, Metric, Outcome, RunConfig, RunDir, Tally};

/// Workloads without kNN requests probe the kNN layer once per this many
/// queries.
const KNN_PROBE_EVERY: usize = 32;
/// Requests replayed twice for `trace.overhead`.
const OVERHEAD_REQUESTS: usize = 32;
/// Reader queries after each traced `ingest` append.
const READS_PER_APPEND: usize = 2;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// The request (operation) it belongs to.
    pub request: u64,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// An in-memory span and count recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
    counts: BTreeMap<&'static str, Vec<f64>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
            counts: BTreeMap::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Starts a new request: later spans carry its id.
    pub fn begin_request(&mut self) {
        self.request += 1;
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            request: self.request,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(idx);
        idx
    }

    /// Closes the innermost span, which must be `idx`.
    pub fn exit(&mut self, idx: usize) {
        let end = self.now_ns();
        debug_assert_eq!(self.open.last(), Some(&idx), "spans close innermost first");
        self.open.pop();
        if let Some(s) = self.spans.get_mut(idx) {
            s.end_ns = end;
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let s = self.enter(name);
        let out = f();
        self.exit(s);
        out
    }

    /// A closed span's duration in microseconds.
    pub fn span_us(&self, idx: usize) -> f64 {
        self.spans
            .get(idx)
            .map_or(0.0, |s| s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3)
    }

    /// Records one sample of a count or derived measurement.
    pub fn count(&mut self, name: &'static str, value: f64) {
        self.counts.entry(name).or_default().push(value);
    }

    /// Per layer, per request: summed self time in microseconds (a span's
    /// duration minus the part its child spans cover).
    pub fn self_times(&self) -> BTreeMap<&'static str, BTreeMap<u64, f64>> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(c) = s.parent.and_then(|p| child.get_mut(p)) {
                *c += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, BTreeMap<u64, f64>> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(c);
            *out.entry(s.name).or_default().entry(s.request).or_default() += own as f64 / 1e3;
        }
        out
    }

    /// Per request: the inclusive duration of spans named `name`, in
    /// microseconds.
    pub fn inclusive_times(&self, name: &str) -> Vec<f64> {
        let mut per: BTreeMap<u64, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *per.entry(s.request).or_default() += s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3;
        }
        per.into_values().collect()
    }

    /// Samples recorded under `name`.
    pub fn samples(&self, name: &str) -> &[f64] {
        self.counts.get(name).map_or(&[], Vec::as_slice)
    }

    /// Writes every span as a tab-separated line.
    ///
    /// # Errors
    /// Propagates write failures.
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "span\trequest\tparent\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{parent}\t{}\t{}\t{}",
                s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// The engines a traced read runs against.
struct Target<'a> {
    single: &'a SearchEngine,
    partition: &'a ShardedEngine,
    /// The workload's server serves through the sharded engine.
    sharded_serving: bool,
    /// Also run the layer the server does not use.
    probe: bool,
}

/// A decoded read request.
struct ReadCall {
    query: Vec<f64>,
    kind: ReadKind,
    opts: SearchOptions,
    limit: Option<usize>,
}

/// Runs the traced workload.
///
/// # Errors
/// Set-up and I/O failures; wrong answers are counted, not raised.
pub fn run(cfg: &RunConfig, corpus: &Corpus) -> io::Result<Outcome> {
    let spec = cfg.workload.spec();
    let pool = read_requests(corpus, &spec, cfg.scale);
    let mut reads = Vec::with_capacity(pool.len() + pool.len() / KNN_PROBE_EVERY);
    for i in pass_order(pool.len(), cfg.seed, 0, 0) {
        let Some(r) = pool.get(i) else { continue };
        if spec.knn_every == 0 && reads.len() % KNN_PROBE_EVERY == KNN_PROBE_EVERY - 1 {
            reads.push(r.as_knn());
        }
        reads.push(r.clone());
    }
    let twin = SearchEngine::load_from_path(&corpus.engine_file)?;
    let mut expected: Vec<Digest> = reference_answers(&twin, &reads)?
        .iter()
        .map(|r| Digest::of_matches(&r.matches))
        .collect();
    if cfg.corrupt_digest {
        if let Some(d) = expected.first_mut() {
            d.hash ^= 1;
        }
    }
    let dir = RunDir::create(&cfg.state_dir)?;
    let mut t = Tracer::default();
    let mut tally = Tally::default();
    let budget = Duration::from_secs_f64(cfg.seconds);

    // Opening the engine file: what `tsss serve` does first.
    let mut masters = Vec::new();
    for i in 0..3 {
        let path = dir.fresh_engine(corpus, &format!("engine-{i}.tsss"))?;
        t.begin_request();
        masters.push((t.time("persist.open", || DurableEngine::open(&path))?, path));
    }
    let (served_master, _) = masters.remove(0);
    let (mut master, master_path) = masters.remove(0);
    drop(masters);
    let state = AppState::new_durable_sharded(served_master, spec.shards);
    t.begin_request();
    let partition = t
        .time("shard.partition", || {
            ShardedEngine::from_engine(&twin, FANOUT_SHARDS)
        })
        .map_err(|e| io::Error::other(e.to_string()))?;
    // The layered replay runs on the engines `routes::handle` serves from.
    let snapshot = routes::snapshot(&state);
    let target = match &*snapshot {
        ServingSnapshot::Single(e) => Target {
            single: e,
            partition: &partition,
            sharded_serving: false,
            probe: true,
        },
        ServingSnapshot::Sharded(s) => Target {
            single: &twin,
            partition: s,
            sharded_serving: true,
            probe: true,
        },
    };

    // Reads, each replayed layer by layer and through `routes::handle`,
    // alternating which goes first so neither always meets warm caches.
    let read_share = if spec.writer { 0.4 } else { 0.8 };
    let read_end = Instant::now() + budget.mul_f64(read_share);
    let mut i = 0;
    while i < reads.len().min(4) || Instant::now() < read_end {
        let k = i % reads.len();
        i += 1;
        let (Some(req), Some(want)) = (reads.get(k), expected.get(k)) else {
            continue;
        };
        t.begin_request();
        let handle = |t: &mut Tracer| {
            t.time("routes.handle", || {
                routes::handle(&state, "POST", req.path, req.body.as_bytes())
            })
        };
        let (traced, handled) = if i % 2 == 0 {
            let traced = trace_read(&mut t, req, &target);
            (traced, handle(&mut t))
        } else {
            let handled = handle(&mut t);
            (trace_read(&mut t, req, &target), handled)
        };
        tally.record(check_traced(traced, &handled, *want));
    }

    // Writes: the workload's appends.
    let wal = DurableEngine::wal_path_for(&master_path);
    let mut volatile = SearchEngine::load_from_path(&corpus.engine_file)?;
    let mut stream = AppendStream::new(&corpus.data, cfg.seed);
    let mut appended = 0;
    let mut reader = 0;
    let write_end = Instant::now() + budget.mul_f64(1.0 - read_share);
    loop {
        let more = if spec.writer {
            appended == 0 || Instant::now() < write_end
        } else {
            appended < spec.post_appends()
        };
        if !more {
            break;
        }
        appended += 1;
        let (series, values) = stream.next_append();
        let wire = post("/append", &append_body(series, &values));
        t.begin_request();
        let fresh = trace_append(&mut t, &wire, &mut master, &mut volatile, &wal, spec.shards);
        let fresh = match fresh {
            Ok(f) => {
                tally.record(Ok(()));
                f
            }
            Err(e) => {
                tally.record(Err(e));
                continue;
            }
        };
        if !spec.writer {
            continue;
        }
        let at_snapshot = Target {
            single: &fresh,
            partition: &partition,
            sharded_serving: false,
            probe: false,
        };
        for _ in 0..READS_PER_APPEND {
            let Some(req) = reads.get(reader % reads.len()) else {
                break;
            };
            reader += 1;
            t.begin_request();
            let got = trace_read(&mut t, req, &at_snapshot);
            let want = req
                .answer(&volatile)
                .map(|r| Digest::of_matches(&r.matches))
                .map_err(|e| e.to_string());
            tally.record(match (got, want) {
                (Ok(g), Ok(w)) if g == w => Ok(()),
                (Ok(_), Ok(_)) => Err("read after append differs from the twin".into()),
                (Err(e), _) | (_, Err(e)) => Err(e),
            });
        }
    }

    // Recording overhead: `routes::handle` inside a span versus bare.
    let mut bare = Vec::new();
    let mut spanned = Vec::new();
    for req in reads.iter().take(OVERHEAD_REQUESTS) {
        let t0 = Instant::now();
        let _ = routes::handle(&state, "POST", req.path, req.body.as_bytes());
        bare.push(t0.elapsed().as_secs_f64() * 1e6);
        t.begin_request();
        let s = t.enter("trace.overhead_probe");
        let _ = routes::handle(&state, "POST", req.path, req.body.as_bytes());
        t.exit(s);
        spanned.push(t.span_us(s));
    }

    let trace_path = cfg
        .state_dir
        .join(format!("trace-{}.tsv", cfg.workload.name()));
    t.write_tsv(&trace_path)?;
    let metrics = layer_metrics(&t, spec.shards > 1, median(&spanned) / median(&bare));
    eprintln!(
        "servebench {} (traced): {} read replays, {} appends, spans in {}",
        cfg.workload.name(),
        i,
        appended,
        trace_path.display()
    );
    for m in &metrics {
        eprintln!("  {:<26} {:>14.4} {}", m.name, m.value, m.unit);
    }
    Ok(tally.finish(metrics))
}

fn check_traced(
    traced: Result<Digest, String>,
    handled: &(u16, String),
    want: Digest,
) -> Result<(), String> {
    let traced = traced?;
    if handled.0 != 200 {
        return Err(format!(
            "routes::handle status {}: {}",
            handled.0, handled.1
        ));
    }
    let via_handle = crate::workload::parse_answer(handled.1.as_bytes())?.digest;
    if traced != want || via_handle != want {
        return Err(format!(
            "traced {traced:?} / routes::handle {via_handle:?}, expected {want:?}"
        ));
    }
    Ok(())
}

fn decode_read(path: &str, body: &[u8]) -> Result<ReadCall, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let json = Json::parse(text).map_err(|e| e.to_string())?;
    let api_err = |e: api::ApiError| e.message;
    let query = api::require_f64_array(&json, "query").map_err(api_err)?;
    let opts = api::parse_options(&json).map_err(api_err)?;
    let limit = json
        .get("limit")
        .and_then(Json::as_u64)
        .map(|n| usize::try_from(n).unwrap_or(usize::MAX));
    let kind = match path {
        "/search" => ReadKind::Search {
            epsilon: api::require_f64(&json, "epsilon").map_err(api_err)?,
        },
        "/knn" => ReadKind::Knn {
            k: usize::try_from(api::require_u64(&json, "k").map_err(api_err)?)
                .map_err(|_| "k out of range".to_string())?,
        },
        other => return Err(format!("no read route {other}")),
    };
    Ok(ReadCall {
        query,
        kind,
        opts,
        limit,
    })
}

fn trace_read(t: &mut Tracer, req: &ReadReq, target: &Target<'_>) -> Result<Digest, String> {
    let parsed = t
        .time("http.read", || {
            http::read_request(&mut io::Cursor::new(&req.wire[..]), &mut Vec::new())
        })
        .map_err(|e| format!("{e:?}"))?;
    let call = t.time("json.decode", || decode_read(&parsed.path, &parsed.body))?;
    let res = if target.sharded_serving {
        sharded(t, &call, target.partition)?
    } else {
        single(t, &call, target.single)?
    };
    let body = t.time("api.encode", || {
        api::encode_result(&res, call.limit).encode()
    });
    let mut out = Vec::with_capacity(body.len() + 128);
    t.time("http.write", || {
        http::write_response_conn(&mut out, 200, &body, true)
    })
    .map_err(|e| e.to_string())?;
    t.count("http.response_bytes", out.len() as f64);
    let digest = Digest::of_matches(&res.matches);
    if target.probe {
        let other = if target.sharded_serving {
            single(t, &call, target.single)?
        } else {
            sharded(t, &call, target.partition)?
        };
        if Digest::of_matches(&other.matches) != digest {
            return Err("single-engine and sharded answers differ".into());
        }
    }
    Ok(digest)
}

/// The single-engine pipeline, stage by stage (a kNN runs whole).
fn single(t: &mut Tracer, call: &ReadCall, e: &SearchEngine) -> Result<SearchResult, String> {
    let epsilon = match call.kind {
        ReadKind::Knn { k } => {
            return t
                .time("core.knn", || {
                    e.nearest_search_opts(&call.query, k, call.opts)
                })
                .map_err(|e| e.to_string());
        }
        ReadKind::Search { epsilon } => epsilon,
    };
    let err = |e: tsss_core::EngineError| e.to_string();
    let plan = t
        .time("core.plan", || {
            QueryPlan::exact(e, &call.query, epsilon, call.opts)
        })
        .map_err(err)?;
    let index_stats = e.index_stats();
    let data_stats = e.data_stats();
    let index_scope = index_stats.local_scope();
    let data_scope = data_stats.local_scope();
    let mut meter = DeadlineMeter::new(plan.options().deadline);
    let cands = t
        .time("core.probe", || IndexProbe.candidates(e, &plan, &mut meter))
        .map_err(err)?;
    let probe = cands.index.clone();
    let mut res = t
        .time("core.verify", || {
            Verifier.verify(e, &plan, cands, &mut meter)
        })
        .map_err(err)?;
    let idx = index_scope.finish();
    let dat = data_scope.finish();
    res.stats.index_pages = idx.total_accesses();
    res.stats.data_pages = dat.total_accesses();
    res.stats.retries = idx.retries + dat.retries;
    let s = &res.stats;
    t.count("storage.index_pages", s.index_pages as f64);
    t.count("storage.data_pages", s.data_pages as f64);
    t.count("storage.retries", s.retries as f64);
    t.count("core.candidates", s.candidates as f64);
    t.count("core.verified", s.verified as f64);
    t.count("core.false_alarms", s.false_alarms as f64);
    t.count(
        "index.nodes_visited",
        (probe.internal_visited + probe.leaves_visited) as f64,
    );
    t.count("index.penetration_tests", probe.penetration_tests as f64);
    t.count("index.entries_checked", probe.candidates_checked as f64);
    Ok(res)
}

/// The scatter-gather search, then each shard alone for the slowest-shard
/// and merge split.
fn sharded(t: &mut Tracer, call: &ReadCall, p: &ShardedEngine) -> Result<SearchResult, String> {
    let run = |e: &dyn Fn(&[f64]) -> Result<SearchResult, tsss_core::EngineError>| {
        e(&call.query).map_err(|e| e.to_string())
    };
    let whole = t.enter("shard.search");
    let res = match call.kind {
        ReadKind::Search { epsilon } => run(&|q| p.search(q, epsilon, call.opts)),
        ReadKind::Knn { k } => run(&|q| p.nearest_search_opts(q, k, call.opts)),
    };
    t.exit(whole);
    let res = res?;
    let mut alone = Vec::new();
    for i in 0..p.num_shards() {
        let Some(e) = p.shard(i) else { continue };
        let t0 = Instant::now();
        match call.kind {
            ReadKind::Search { epsilon } => run(&|q| e.search(q, epsilon, call.opts))?,
            ReadKind::Knn { k } => run(&|q| e.nearest_search_opts(q, k, call.opts))?,
        };
        alone.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    let slowest = alone.iter().copied().fold(0.0, f64::max);
    t.count("shard.slowest_us", slowest);
    t.count("shard.merge_us", (t.span_us(whole) - slowest).max(0.0));
    t.count("shard.imbalance", ratio(slowest, mean(&alone)));
    Ok(res)
}

/// One `/append` through the layers `routes::handle` runs for it: decode,
/// the durable append (WAL fsync, then the engine insert), and the
/// publication (serialize, reload, and re-partition when sharded). The
/// same append on a volatile twin isolates the engine insert. Returns the
/// published snapshot.
fn trace_append(
    t: &mut Tracer,
    wire: &[u8],
    master: &mut DurableEngine,
    volatile: &mut SearchEngine,
    wal: &Path,
    shards: usize,
) -> Result<SearchEngine, String> {
    let err = |e: tsss_core::EngineError| e.to_string();
    let parsed = t
        .time("http.read", || {
            http::read_request(&mut io::Cursor::new(wire), &mut Vec::new())
        })
        .map_err(|e| format!("{e:?}"))?;
    let (series, values) = t.time("json.decode", || {
        let text =
            std::str::from_utf8(&parsed.body).map_err(|_| "body is not UTF-8".to_string())?;
        let json = Json::parse(text).map_err(|e| e.to_string())?;
        let values = api::require_f64_array(&json, "values").map_err(|e| e.message)?;
        let series = json
            .get("series")
            .and_then(Json::as_u64)
            .and_then(|s| usize::try_from(s).ok())
            .ok_or("append without series")?;
        Ok::<_, String>((series, values))
    })?;
    let wal_before = std::fs::metadata(wal).map_or(0, |m| m.len());
    t.time("durable.append", || master.append_values(series, &values))
        .map_err(err)?;
    t.time("engine.insert", || volatile.append_values(series, &values))
        .map_err(err)?;
    let wal_after = std::fs::metadata(wal).map_or(0, |m| m.len());
    t.count("wal.bytes", wal_after.saturating_sub(wal_before) as f64);
    t.count("wal.values", values.len() as f64);
    if master.engine().str_rebuild_due() {
        master.engine_mut().repair().map_err(err)?;
        volatile.repair().map_err(err)?;
        t.count("engine.str_rebuilds", 1.0);
    }
    let publish = t.enter("routes.publish");
    let mut buf = Vec::new();
    t.time("persist.save", || master.engine().save_to(&mut buf))
        .map_err(|e| e.to_string())?;
    t.count("persist.snapshot_bytes", buf.len() as f64);
    let fresh = t
        .time("persist.load", || {
            SearchEngine::load_from(&mut io::Cursor::new(&buf))
        })
        .map_err(|e| e.to_string())?;
    if shards > 1 {
        t.time("shard.partition", || {
            ShardedEngine::from_engine(&fresh, shards)
        })
        .map_err(err)?;
    }
    t.exit(publish);
    let ack = t.time("api.encode", || {
        Json::obj([
            ("series", Json::from(series)),
            ("num_windows", Json::from(master.engine().num_windows())),
            ("durable", Json::from(master.is_durable())),
        ])
        .encode()
    });
    let mut out = Vec::new();
    t.time("http.write", || {
        http::write_response_conn(&mut out, 200, &ack, true)
    })
    .map_err(|e| e.to_string())?;
    Ok(fresh)
}

/// Every per-layer metric from the recorded spans and counts.
fn layer_metrics(t: &Tracer, sharded_serving: bool, overhead: f64) -> Vec<Metric> {
    let selfs = t.self_times();
    let self_median = |name: &str| {
        selfs.get(name).map_or(0.0, |per| {
            median(&per.values().copied().collect::<Vec<_>>())
        })
    };
    let sum = |name: &str| t.samples(name).iter().fold(0.0, |a, b| a + b);
    let avg = |name: &str| mean(t.samples(name));
    let med = |name: &str| median(t.samples(name));

    // Self time of the layers `routes::handle` runs, over the same
    // requests as its own span.
    let inside: &[&str] = if sharded_serving {
        &["json.decode", "shard.search", "api.encode"]
    } else {
        &[
            "json.decode",
            "core.plan",
            "core.probe",
            "core.verify",
            "core.knn",
            "api.encode",
        ]
    };
    let (mut layers, mut handle) = (0.0, 0.0);
    if let Some(handled) = selfs.get("routes.handle") {
        for (req, us) in handled {
            handle += us;
            layers += inside
                .iter()
                .filter_map(|n| selfs.get(n).and_then(|m| m.get(req)))
                .sum::<f64>();
        }
    }
    let wal_us: Vec<f64> = selfs
        .get("durable.append")
        .map(|durable| {
            durable
                .iter()
                .filter_map(|(req, d)| {
                    let insert = selfs.get("engine.insert")?.get(req)?;
                    Some(d - insert)
                })
                .collect()
        })
        .unwrap_or_default();

    let us = "us";
    let count = "count";
    let mut m = Vec::new();
    let mut push = |name: &'static str, value: f64, unit: &'static str| {
        m.push(Metric { name, value, unit });
    };
    push("http.read_us", self_median("http.read"), us);
    push("json.decode_us", self_median("json.decode"), us);
    push("api.encode_us", self_median("api.encode"), us);
    push("http.write_us", self_median("http.write"), us);
    push("http.response_bytes", avg("http.response_bytes"), "bytes");
    push("routes.handle_us", self_median("routes.handle"), us);
    push(
        "routes.publish_us",
        median(&t.inclusive_times("routes.publish")),
        us,
    );
    push("core.plan_us", self_median("core.plan"), us);
    push("core.probe_us", self_median("core.probe"), us);
    push("core.verify_us", self_median("core.verify"), us);
    push("core.knn_us", self_median("core.knn"), us);
    push("core.candidates", avg("core.candidates"), count);
    push("core.verified", avg("core.verified"), count);
    push("core.false_alarms", avg("core.false_alarms"), count);
    push(
        "core.precision",
        ratio(sum("core.verified"), sum("core.candidates")),
        "ratio",
    );
    push("index.nodes_visited", avg("index.nodes_visited"), count);
    push(
        "index.penetration_tests",
        avg("index.penetration_tests"),
        count,
    );
    push("index.entries_checked", avg("index.entries_checked"), count);
    push(
        "index.yield",
        ratio(sum("core.candidates"), sum("index.entries_checked")),
        "ratio",
    );
    push("storage.index_pages", avg("storage.index_pages"), "pages");
    push("storage.data_pages", avg("storage.data_pages"), "pages");
    push("storage.retries", sum("storage.retries"), count);
    push("shard.search_us", self_median("shard.search"), us);
    push("shard.slowest_us", med("shard.slowest_us"), us);
    push("shard.merge_us", med("shard.merge_us"), us);
    push("shard.imbalance", med("shard.imbalance"), "ratio");
    push("shard.partition_us", self_median("shard.partition"), us);
    push("durable.append_us", self_median("durable.append"), us);
    push("engine.insert_us", self_median("engine.insert"), us);
    push("wal.append_us", median(&wal_us), us);
    push(
        "wal.bytes_per_value",
        ratio(sum("wal.bytes"), sum("wal.values")),
        "bytes/value",
    );
    push("engine.str_rebuilds", sum("engine.str_rebuilds"), count);
    push("persist.open_us", self_median("persist.open"), us);
    push("persist.save_us", self_median("persist.save"), us);
    push("persist.load_us", self_median("persist.load"), us);
    push(
        "persist.snapshot_bytes",
        avg("persist.snapshot_bytes"),
        "bytes",
    );
    push("trace.coverage", ratio(layers, handle), "ratio");
    push("trace.overhead", overhead, "ratio");
    m
}
