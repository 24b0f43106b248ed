//! The corpus, the four workloads, and the seeded requests they send.
//!
//! The corpus is the paper-scale synthetic market (1000 companies × 650
//! days, `EngineConfig::paper()`), generated from the corpus seed and saved
//! once per seed and build to an engine file that every run copies. The
//! query pool is drawn from the corpus too, so every run measures the same
//! queries; the workload seed (`--seed`) sets the order each connection
//! sends them in and the appended values, so the same seed always sends
//! the same requests.

use std::io;
use std::path::{Path, PathBuf};

use tsss_core::{EngineConfig, SearchEngine, SearchOptions, SearchResult, SubsequenceMatch};
use tsss_data::{MarketConfig, MarketSimulator, QueryWorkload, Series, WorkloadConfig};
use tsss_rand::Rng;
use tsss_server::json::Json;

/// `k` of every kNN request.
pub const KNN_K: usize = 10;
/// Values per `/append`.
pub const APPEND_LEN: usize = 64;
/// Server worker threads (`tsss serve --workers`).
pub const SERVER_WORKERS: usize = 2;
/// Shards of the partition the traced run probes the shard layer with
/// (and `fanout` serves with).
pub const FANOUT_SHARDS: usize = 2;

/// Corpus size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Series in the market.
    pub companies: usize,
    /// Values per series.
    pub days: usize,
    /// Query pools are divided by this (1 at paper scale).
    pub pool_divisor: usize,
}

impl Scale {
    /// The paper's setting: 1000 × 650 = 650 k values, about 523 k windows.
    pub const PAPER: Scale = Scale {
        companies: 1000,
        days: 650,
        pool_divisor: 1,
    };
    /// A few series for the benchmark's own tests.
    pub const TINY: Scale = Scale {
        companies: 6,
        days: 400,
        pool_divisor: 16,
    };
}

/// The workloads, each a closed loop with a seeded request sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Selective `/search` over 2 connections.
    Select,
    /// Broad `/search` plus every fourth request a `/knn`, 1 connection.
    Broad,
    /// `/append` on one connection beside `select`'s queries on another.
    Ingest,
    /// `broad`'s sequence served by `--shards 2`.
    Fanout,
}

/// How a workload drives the server.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Client connections reading (each on its own thread).
    pub readers: usize,
    /// Whether one more connection sends `/append`s during the timed loop.
    pub writer: bool,
    /// `tsss serve --shards`.
    pub shards: usize,
    /// ε as a multiple of the median window fluctuation.
    pub epsilon_frac: f64,
    /// Every `knn_every`-th request is a kNN (`0`: none).
    pub knn_every: usize,
    /// Distinct read requests at paper scale.
    pub pool: usize,
    /// Nominal seconds one connection takes for one pass over the pool at
    /// paper scale: a run times `ceil(seconds / pass_secs)` whole passes,
    /// the same work on every run.
    pub pass_secs: f64,
    /// Groups of `/append`s sent after the timed loop (read-only
    /// workloads), so every workload reports acknowledgement latency and
    /// WAL growth.
    pub post_groups: usize,
    /// Acks per group: post-run appends are sent in groups of this size,
    /// and acknowledgement latency takes each group's floor.
    pub ack_group: usize,
    /// Server start-ups timed for `setup_s` before the timed loop.
    pub setups_before: usize,
    /// Server start-ups timed after it, between the post-run groups, so
    /// `setup_s` (the median of all) samples more than one moment.
    pub setups_after: usize,
    /// Tags the query pool, so workloads with the same read profile send
    /// the same queries.
    pub pool_tag: u64,
}

impl Spec {
    /// `/append`s sent after the timed loop.
    pub fn post_appends(&self) -> usize {
        self.post_groups * self.ack_group
    }

    /// Whole passes each connection times in a run of `seconds`.
    pub fn timed_passes(&self, seconds: f64) -> u64 {
        // A small positive count: the float-to-int conversion cannot wrap.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let passes = (seconds / self.pass_secs).ceil().max(1.0) as u64;
        passes
    }
}

const SELECT_TAG: u64 = 0x5E1E_C700;
const BROAD_TAG: u64 = 0xB40A_D000;

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::Select,
        Workload::Broad,
        Workload::Ingest,
        Workload::Fanout,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Select => "select",
            Workload::Broad => "broad",
            Workload::Ingest => "ingest",
            Workload::Fanout => "fanout",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's parameters.
    pub fn spec(self) -> Spec {
        let select = Spec {
            readers: 2,
            writer: false,
            shards: 1,
            epsilon_frac: 0.002,
            knn_every: 0,
            pool: 256,
            pass_secs: 0.9,
            post_groups: 4,
            ack_group: 6,
            setups_before: 5,
            setups_after: 4,
            pool_tag: SELECT_TAG,
        };
        let broad = Spec {
            readers: 1,
            epsilon_frac: 0.02,
            knn_every: 4,
            pool: 32,
            pass_secs: 1.3,
            pool_tag: BROAD_TAG,
            ..select
        };
        match self {
            Workload::Select => select,
            Workload::Broad => broad,
            Workload::Ingest => Spec {
                readers: 1,
                writer: true,
                pass_secs: 1.5,
                post_groups: 0,
                ..select
            },
            Workload::Fanout => Spec {
                shards: FANOUT_SHARDS,
                pass_secs: 0.55,
                // Every publication and start-up partitions the engine
                // (seconds at paper scale).
                post_groups: 2,
                ack_group: 1,
                setups_before: 2,
                setups_after: 1,
                ..broad
            },
        }
    }
}

/// The corpus every workload serves.
pub struct Corpus {
    /// The market the engine was built from.
    pub data: Vec<Series>,
    /// The saved engine file (a cache entry: runs serve copies of it).
    pub engine_file: PathBuf,
    /// Median SE-norm of the data windows, the unit of ε.
    pub median_fluctuation: f64,
    /// Values stored.
    pub values: u64,
    /// The corpus seed.
    pub seed: u64,
}

impl Corpus {
    /// Generates the market for `seed` and returns it with its saved engine
    /// file under `cache_dir`, building the engine only when no file from
    /// this build and seed exists yet.
    ///
    /// # Errors
    /// Propagates I/O and engine-build failures.
    pub fn prepare(cache_dir: &Path, scale: Scale, seed: u64) -> io::Result<Corpus> {
        let data = MarketSimulator::new(MarketConfig {
            companies: scale.companies,
            days: scale.days,
            seed,
            ..MarketConfig::paper()
        })
        .generate();
        let cfg = EngineConfig::paper();
        std::fs::create_dir_all(cache_dir)?;
        // The key covers this executable, which links the engine's file
        // format: a rebuilt benchmark never reads a stale engine file.
        let key = fnv1a(&std::fs::read(std::env::current_exe()?)?);
        let stem = format!("corpus-{}x{}-{seed:x}", scale.companies, scale.days);
        let engine_file = cache_dir.join(format!("{stem}-{key:016x}.tsss"));
        if !engine_file.is_file() {
            for entry in std::fs::read_dir(cache_dir)?.flatten() {
                if entry.file_name().to_string_lossy().starts_with(&stem) {
                    std::fs::remove_file(entry.path())?;
                }
            }
            let engine = SearchEngine::build(&data, cfg.clone())
                .map_err(|e| io::Error::other(format!("building the corpus engine: {e}")))?;
            let tmp = engine_file.with_extension("partial");
            engine.save_to_path(&tmp)?;
            std::fs::rename(&tmp, &engine_file)?;
        }
        let median_fluctuation = tsss_bench::median_window_fluctuation(&data, cfg.window_len);
        let values = data.iter().map(|s| s.values.len() as u64).sum();
        Ok(Corpus {
            data,
            engine_file,
            median_fluctuation,
            values,
            seed,
        })
    }
}

/// What a read request asks for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReadKind {
    /// `POST /search` at this ε.
    Search {
        /// Absolute ε.
        epsilon: f64,
    },
    /// `POST /knn` with this `k`.
    Knn {
        /// Neighbours asked for.
        k: usize,
    },
}

/// One read request, pre-encoded on the wire.
#[derive(Debug, Clone)]
pub struct ReadReq {
    /// Search or kNN.
    pub kind: ReadKind,
    /// The query values.
    pub query: Vec<f64>,
    /// Route.
    pub path: &'static str,
    /// JSON body.
    pub body: String,
    /// The whole HTTP request.
    pub wire: Vec<u8>,
}

impl ReadReq {
    fn new(kind: ReadKind, query: Vec<f64>) -> ReadReq {
        let q = Json::Arr(query.iter().map(|v| Json::from(*v)).collect());
        let (path, body) = match kind {
            ReadKind::Search { epsilon } => (
                "/search",
                Json::obj([("query", q), ("epsilon", Json::from(epsilon))]),
            ),
            ReadKind::Knn { k } => ("/knn", Json::obj([("query", q), ("k", Json::from(k))])),
        };
        let body = body.encode();
        let wire = post(path, &body);
        ReadReq {
            kind,
            query,
            path,
            body,
            wire,
        }
    }

    /// The answer an engine gives this request (the in-process reference).
    ///
    /// # Errors
    /// The engine's error.
    pub fn answer(&self, engine: &SearchEngine) -> Result<SearchResult, tsss_core::EngineError> {
        match self.kind {
            ReadKind::Search { epsilon } => {
                engine.search(&self.query, epsilon, SearchOptions::default())
            }
            ReadKind::Knn { k } => {
                engine.nearest_search_opts(&self.query, k, SearchOptions::default())
            }
        }
    }

    /// The same query as a kNN request.
    pub fn as_knn(&self) -> ReadReq {
        ReadReq::new(ReadKind::Knn { k: KNN_K }, self.query.clone())
    }
}

/// The read pool of a workload: disguised, noisy windows of the corpus
/// (as the paper's query workload), drawn from the corpus seed, every
/// `knn_every`-th one sent as a kNN.
pub fn read_requests(corpus: &Corpus, spec: &Spec, scale: Scale) -> Vec<ReadReq> {
    let window_len = EngineConfig::paper().window_len;
    let n = (spec.pool / scale.pool_divisor).max(4);
    let pool = QueryWorkload::generate(
        &corpus.data,
        WorkloadConfig {
            queries: n,
            window_len,
            noise_level: 0.005,
            seed: corpus.seed ^ spec.pool_tag,
            ..Default::default()
        },
    );
    let epsilon = spec.epsilon_frac * corpus.median_fluctuation;
    pool.queries
        .into_iter()
        .enumerate()
        .map(|(i, q)| {
            let kind = if spec.knn_every > 0 && i % spec.knn_every == spec.knn_every - 1 {
                ReadKind::Knn { k: KNN_K }
            } else {
                ReadKind::Search { epsilon }
            };
            ReadReq::new(kind, q.values)
        })
        .collect()
}

/// The order connection `conn` sends a pool of `n` requests in on its
/// `pass`-th pass: a seeded permutation.
pub fn pass_order(n: usize, seed: u64, conn: usize, pass: u64) -> Vec<usize> {
    let mut rng = Rng::seed_from_u64(
        seed ^ (conn as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ pass.wrapping_mul(0xD1B5_4A32_D192_ED03),
    );
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.usize_below(i + 1));
    }
    order
}

/// A `POST` request with a JSON body, keep-alive.
pub fn post(path: &str, body: &str) -> Vec<u8> {
    let mut wire = format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    wire.extend_from_slice(body.as_bytes());
    wire
}

/// The seeded `/append` stream: round-robin over the series, each append a
/// 64-value random walk continuing the series' last value.
pub struct AppendStream {
    rng: Rng,
    last: Vec<f64>,
    next_series: usize,
}

impl AppendStream {
    /// The stream for `seed` over `data`.
    pub fn new(data: &[Series], seed: u64) -> AppendStream {
        AppendStream {
            rng: Rng::seed_from_u64(seed ^ 0xA99E_4D00),
            last: data
                .iter()
                .map(|s| s.values.last().copied().unwrap_or(50.0))
                .collect(),
            next_series: 0,
        }
    }

    /// The next append: target series and values.
    pub fn next_append(&mut self) -> (usize, Vec<f64>) {
        let series = self.next_series;
        self.next_series = (series + 1) % self.last.len().max(1);
        let mut v = self.last.get(series).copied().unwrap_or(50.0);
        let values: Vec<f64> = (0..APPEND_LEN)
            .map(|_| {
                v *= (0.01 * self.rng.normal()).exp();
                v
            })
            .collect();
        if let Some(last) = self.last.get_mut(series) {
            *last = v;
        }
        (series, values)
    }
}

/// The JSON body of an `/append`.
pub fn append_body(series: usize, values: &[f64]) -> String {
    Json::obj([
        ("series", Json::from(series)),
        (
            "values",
            Json::Arr(values.iter().map(|v| Json::from(*v)).collect()),
        ),
    ])
    .encode()
}

/// An answer's identity: the match count and a hash of every match's
/// window id and transform bits, in answer order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    /// Matches in the answer.
    pub matches: u64,
    /// FNV-1a over `(series, offset, a bits, b bits)` of each match.
    pub hash: u64,
}

impl Digest {
    /// The digest of matches in answer order.
    pub fn of_matches(matches: &[SubsequenceMatch]) -> Digest {
        Digest::of_tuples(matches.iter().map(|m| {
            [
                u64::from(m.id.series),
                u64::from(m.id.offset),
                m.transform.a.to_bits(),
                m.transform.b.to_bits(),
            ]
        }))
    }

    fn of_tuples(tuples: impl Iterator<Item = [u64; 4]>) -> Digest {
        let mut hash = FNV_OFFSET;
        let mut matches = 0;
        for t in tuples {
            matches += 1;
            for w in t {
                hash = fnv1a_extend(hash, &w.to_le_bytes());
            }
        }
        Digest { matches, hash }
    }
}

/// What a search response says, beyond its matches.
#[derive(Debug, Clone, Copy)]
pub struct Answer {
    /// The matches' digest.
    pub digest: Digest,
    /// `stats.index_pages + stats.data_pages`.
    pub pages: u64,
    /// `stats.epoch`: the snapshot generation stamped on the answer.
    pub epoch: u64,
}

/// Decodes a search or kNN response body.
///
/// # Errors
/// A description of what is missing or malformed.
pub fn parse_answer(body: &[u8]) -> Result<Answer, String> {
    let text = std::str::from_utf8(body).map_err(|_| "response is not UTF-8".to_string())?;
    let json = Json::parse(text).map_err(|e| format!("response is not JSON: {e}"))?;
    let matches = json
        .get("matches")
        .and_then(Json::as_array)
        .ok_or("response has no matches array")?;
    let mut tuples = Vec::with_capacity(matches.len());
    for m in matches {
        let int = |k: &str| {
            m.get(k)
                .and_then(Json::as_u64)
                .ok_or(format!("match without {k}"))
        };
        let bits = |k: &str| {
            m.get(k)
                .and_then(Json::as_f64)
                .map(f64::to_bits)
                .ok_or(format!("match without {k}"))
        };
        tuples.push([int("series")?, int("offset")?, bits("a")?, bits("b")?]);
    }
    let stats = json.get("stats").ok_or("response has no stats")?;
    let stat = |k: &str| {
        stats
            .get(k)
            .and_then(Json::as_u64)
            .ok_or(format!("stats without {k}"))
    };
    Ok(Answer {
        digest: Digest::of_tuples(tuples.into_iter()),
        pages: stat("index_pages")? + stat("data_pages")?,
        epoch: stat("epoch")?,
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}
