//! `servebench`: the end-to-end benchmark of `tsss serve`.
//!
//! One invocation runs one workload (`select`, `broad`, `ingest` or
//! `fanout`, see [`workload::Workload`]) for a given seed. With tracing off
//! ([`served`]) it drives the real `tsss serve` binary as a child process
//! over loopback keep-alive HTTP and reports the end-to-end metrics; with
//! tracing on ([`traced`]) it replays the same requests in process,
//! single-threaded, through each layer's public functions and reports the
//! per-layer metrics. Either way every answer is checked against an
//! in-process twin loaded from the same engine file, and the last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`.

#![forbid(unsafe_code)]

pub mod client;
pub mod served;
pub mod stats;
pub mod traced;
pub mod workload;

use std::io;
use std::path::{Path, PathBuf};

use tsss_server::json::Json;

use workload::{Corpus, Scale, Workload};

/// Everything one run needs.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// The workload seed: request order and appended values.
    pub seed: u64,
    /// The corpus seed.
    pub corpus_seed: u64,
    /// Length of the measured loop (seconds).
    pub seconds: f64,
    /// Corpus size.
    pub scale: Scale,
    /// In-process traced run instead of the served run.
    pub trace: bool,
    /// The `tsss` binary.
    pub tsss: PathBuf,
    /// Where the corpus cache, run directories and traces live.
    pub state_dir: PathBuf,
    /// Flips the first expected digest before the run, so the
    /// benchmark's own test can show a wrong answer is counted.
    pub corrupt_digest: bool,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A run's result line.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: a wrong answer, a non-200, or a transport
    /// error.
    pub failed: u64,
    /// Reported metrics.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The result object printed as the last line of standard output.
    pub fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::obj([("value", Json::from(m.value)), ("unit", Json::from(m.unit))]),
                )
            })
            .collect();
        Json::obj([
            (
                "correct",
                Json::from(self.failed == 0 && self.attempted > 0),
            ),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
        .encode()
    }

    /// The value of a metric by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Counts operations and their failures, keeping the first few reasons
/// for the log.
#[derive(Debug, Default)]
pub struct Tally {
    attempted: u64,
    failed: u64,
    reasons: Vec<String>,
}

impl Tally {
    /// Records one operation; `Err` carries why it failed.
    pub fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            if self.reasons.len() < 8 {
                self.reasons.push(why);
            }
        }
    }

    /// Finishes into an [`Outcome`], logging failure reasons to stderr.
    pub fn finish(self, metrics: Vec<Metric>) -> Outcome {
        for r in &self.reasons {
            eprintln!("servebench: failed: {r}");
        }
        Outcome {
            attempted: self.attempted,
            failed: self.failed,
            metrics,
        }
    }
}

/// A temporary directory for one run's engine copies, removed on drop.
pub struct RunDir {
    path: PathBuf,
}

impl RunDir {
    /// Creates `<state_dir>/run-<pid>`.
    ///
    /// # Errors
    /// Propagates directory creation failures.
    pub fn create(state_dir: &Path) -> io::Result<RunDir> {
        let path = state_dir.join(format!("run-{}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(RunDir { path })
    }

    /// Copies the corpus engine file to `name` in this directory, with no
    /// write-ahead log beside it, and returns its path.
    ///
    /// # Errors
    /// Propagates copy failures.
    pub fn fresh_engine(&self, corpus: &Corpus, name: &str) -> io::Result<PathBuf> {
        let path = self.path.join(name);
        let wal = tsss_core::DurableEngine::wal_path_for(&path);
        if wal.exists() {
            std::fs::remove_file(&wal)?;
        }
        std::fs::copy(&corpus.engine_file, &path)?;
        Ok(path)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        if let Err(e) = std::fs::remove_dir_all(&self.path) {
            eprintln!("servebench: could not remove {}: {e}", self.path.display());
        }
    }
}

/// Runs one workload: prepares the corpus, then the served or the traced
/// run.
///
/// # Errors
/// Set-up failures (corpus, server start-up, I/O). Wrong answers are not
/// errors: they are counted in [`Outcome::failed`].
pub fn run(cfg: &RunConfig) -> io::Result<Outcome> {
    let corpus = Corpus::prepare(&cfg.state_dir.join("corpus"), cfg.scale, cfg.corpus_seed)?;
    if cfg.trace {
        traced::run(cfg, &corpus)
    } else {
        served::run(cfg, &corpus)
    }
}

/// The reference answer of every request on `engine`, computed on two
/// threads before any timing starts.
///
/// # Errors
/// The first engine error.
pub fn reference_answers(
    engine: &tsss_core::SearchEngine,
    reads: &[workload::ReadReq],
) -> io::Result<Vec<tsss_core::SearchResult>> {
    let half = reads.len().div_ceil(2);
    let (a, b) = reads.split_at(half);
    let answer = |part: &[workload::ReadReq]| -> Result<Vec<_>, tsss_core::EngineError> {
        part.iter().map(|r| r.answer(engine)).collect()
    };
    let (ra, rb) = std::thread::scope(|s| {
        let hb = s.spawn(|| answer(b));
        let ra = answer(a);
        (ra, hb.join())
    });
    let rb = rb.map_err(|_| io::Error::other("reference thread panicked"))?;
    let mut all = ra.map_err(|e| io::Error::other(e.to_string()))?;
    all.extend(rb.map_err(|e| io::Error::other(e.to_string()))?);
    Ok(all)
}
