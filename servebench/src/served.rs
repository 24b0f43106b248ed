//! The end-to-end run: the real `tsss serve` binary over loopback
//! keep-alive HTTP, tracing off.
//!
//! Order of events: compute every request's reference answer on the twin;
//! start the server `setups_before` times (each from a fresh copy of the
//! engine file) and keep the last; run an untimed warm-up and then the
//! timed closed loop; send the post-run append groups, with the remaining
//! timed start-ups between them, and the post-run queries; read the
//! server's peak RSS and file sizes; stop it; and only then check every
//! stored response.

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use tsss_core::{SearchEngine, SearchResult, SubseqId, SubsequenceMatch};
use tsss_server::json::Json;

use crate::client::{get, Conn, Server};
use crate::stats::{mean, median, quantile, ratio};
use crate::workload::{
    append_body, parse_answer, pass_order, post, read_requests, AppendStream, Corpus, Digest,
    ReadReq, APPEND_LEN,
};
use crate::{reference_answers, Metric, Outcome, RunConfig, RunDir, Tally};

/// Post-run queries compared with the twin after the run's appends.
const POST_QUERIES: usize = 8;
/// How many snapshot generations a reader's stamped epoch may run ahead of
/// the snapshot that answered it: the server clones the snapshot before
/// searching and reads the epoch after, so a publication in between stamps
/// the newer generation on an older answer.
const EPOCH_SLACK: u64 = 2;

/// One request/response exchange.
struct Exchange {
    req: usize,
    timed: bool,
    latency: Duration,
    /// `0` when the transport failed.
    status: u16,
    body: Vec<u8>,
}

/// One acknowledged (or failed) `/append`.
struct AppendLog {
    series: usize,
    values: Vec<f64>,
    latency: Duration,
    status: u16,
    body: Vec<u8>,
}

/// Runs the served workload.
///
/// # Errors
/// Set-up and I/O failures; wrong answers are counted, not raised.
pub fn run(cfg: &RunConfig, corpus: &Corpus) -> io::Result<Outcome> {
    let spec = cfg.workload.spec();
    let reads = read_requests(corpus, &spec, cfg.scale);
    let mut twin = SearchEngine::load_from_path(&corpus.engine_file)?;
    let base = reference_answers(&twin, &reads)?;
    let mut expected: Vec<Digest> = base
        .iter()
        .map(|r| Digest::of_matches(&r.matches))
        .collect();
    if cfg.corrupt_digest {
        if let Some(d) = expected.first_mut() {
            d.hash ^= 1;
        }
    }
    let initial_windows = twin.num_windows();
    let dir = RunDir::create(&cfg.state_dir)?;

    // Every start-up serves a fresh copy of the engine file; the last one
    // before the timed loop is the server the workload runs against.
    let mut setups = Vec::new();
    let mut start_server = |name: &str| -> io::Result<(Server, PathBuf)> {
        let path = dir.fresh_engine(corpus, name)?;
        let (server, took) = Server::spawn(&cfg.tsss, &path, spec.shards)?;
        setups.push(took.as_secs_f64());
        Ok((server, path))
    };
    for _ in 1..spec.setups_before {
        drop(start_server("setup.tsss")?);
    }
    let (server, engine_path) = start_server("engine.tsss")?;
    let addr = server.addr;

    let warm = Duration::from_secs_f64((cfg.seconds * 0.2).clamp(0.2, 2.0));
    let timed_start = Instant::now() + warm;
    let passes = spec.timed_passes(cfg.seconds);
    let readers_done = AtomicBool::new(false);
    let (reader_logs, writer_log) = std::thread::scope(|s| {
        let writer = spec
            .writer
            .then(|| s.spawn(|| write_loop(addr, corpus, cfg.seed, timed_start, &readers_done)));
        let readers: Vec<_> = (1..spec.readers)
            .map(|c| {
                let reads = &reads;
                s.spawn(move || read_loop(addr, reads, c, cfg.seed, timed_start, passes))
            })
            .collect();
        let mut logs = vec![read_loop(addr, &reads, 0, cfg.seed, timed_start, passes)];
        for h in readers {
            logs.push(
                h.join()
                    .map_err(|_| io::Error::other("reader thread panicked"))?,
            );
        }
        // Ordering::Relaxed: a plain stop flag; nothing is published
        // through it, the writer only re-checks it between appends.
        readers_done.store(true, Ordering::Relaxed);
        let writer_log = match writer {
            Some(h) => h
                .join()
                .map_err(|_| io::Error::other("writer thread panicked"))?,
            None => Vec::new(),
        };
        Ok::<_, io::Error>((logs, writer_log))
    })?;

    let mut tally = Tally::default();
    let mut appends = writer_log;
    let mut stream = AppendStream::new(&corpus.data, cfg.seed);
    for g in 0..spec.post_groups.max(spec.setups_after) {
        if g < spec.post_groups {
            // A connection per group: the start-ups in between can outlast
            // the server's idle timeout.
            let mut conn = Conn::connect(addr)?;
            for _ in 0..spec.ack_group {
                appends.push(send_append(&mut conn, &mut stream));
            }
        }
        if g < spec.setups_after {
            drop(start_server("setup.tsss")?);
        }
    }

    // Acks: 200, durable, strictly increasing epochs; replay on the twin.
    let mut epochs_by_series: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
    let mut last_epoch = 0u64;
    let mut acked = 0usize;
    for a in &appends {
        let ack = check_ack(a, last_epoch);
        if let Ok((epoch, rebuilt)) = &ack {
            last_epoch = *epoch;
            acked += 1;
            epochs_by_series.entry(a.series).or_default().push(*epoch);
            twin.append_values(a.series, &a.values)
                .map_err(|e| io::Error::other(format!("twin append: {e}")))?;
            if *rebuilt {
                twin.repair()
                    .map_err(|e| io::Error::other(format!("twin rebuild: {e}")))?;
            }
        }
        tally.record(ack.map(|_| ()));
    }

    tally.record(check_health(
        addr,
        initial_windows + APPEND_LEN * acked,
        last_epoch,
    ));
    let mut conn = Conn::connect(addr)?;
    for r in reads.iter().take(POST_QUERIES) {
        let got = conn.round_trip(&r.wire);
        tally.record(check_post_query(got, r, &twin));
    }

    let peak_rss_mb = server.peak_rss_mb()?;
    drop(conn);
    drop(server);
    let wal = tsss_core::DurableEngine::wal_path_for(&engine_path);
    let stored_bytes = std::fs::metadata(&engine_path)?.len() + std::fs::metadata(&wal)?.len();
    let stored_values = corpus.values + (APPEND_LEN * acked) as u64;

    // Every read response, warm-up included, against its reference.
    let oracle = if spec.writer {
        let final_answers = reads
            .iter()
            .map(|r| r.answer(&twin))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| io::Error::other(e.to_string()))?;
        Some(EpochOracle {
            base,
            final_answers,
            initial_len: corpus.data.iter().map(|s| s.values.len()).collect(),
            epochs_by_series,
        })
    } else {
        None
    };
    // Latency: each query's floor (its fastest timed sample), then the
    // quantiles over the pool. Throughput: the rate one pass over the pool
    // runs at when every request takes its floor, summed over connections.
    // On a shared host the share of time other tenants slow the CPU
    // changes from run to run; the floor does not (see README.md, "Noise").
    let mut per_query: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    let mut pages = Vec::new();
    let mut throughput = 0.0;
    let mut samples = 0usize;
    for log in &reader_logs {
        let mut floors: BTreeMap<usize, f64> = BTreeMap::new();
        for ex in log {
            let checked = check_read(ex, &expected, oracle.as_ref());
            if let (Ok(answer), true) = (&checked, ex.timed) {
                let ms = ex.latency.as_secs_f64() * 1e3;
                per_query.entry(ex.req).or_default().push(ms);
                let floor = floors.entry(ex.req).or_insert(ms);
                *floor = floor.min(ms);
                pages.push(answer.pages as f64);
                samples += 1;
            }
            tally.record(checked.map(|_| ()));
        }
        let pass_ms: f64 = floors.values().sum();
        throughput += ratio(floors.len() as f64 * 1e3, pass_ms);
    }
    let query_ms: Vec<f64> = per_query.values().map(|v| floor(v)).collect();

    // Acknowledgement latency: every append does the same work, so each
    // group of consecutive acks stands in for one query's repeats: the
    // group's floor, then the quantiles over the groups.
    let append_ms: Vec<f64> = appends
        .iter()
        .filter(|a| a.status == 200)
        .map(|a| a.latency.as_secs_f64() * 1e3)
        .collect();
    let group_floors: Vec<f64> = append_ms.chunks(spec.ack_group).map(floor).collect();
    let metrics = vec![
        Metric {
            name: "setup_s",
            value: median(&setups),
            unit: "s",
        },
        Metric {
            name: "p50_ms",
            value: quantile(&query_ms, 0.5),
            unit: "ms",
        },
        Metric {
            name: "p95_ms",
            value: quantile(&query_ms, 0.95),
            unit: "ms",
        },
        Metric {
            name: "throughput_rps",
            value: throughput,
            unit: "1/s",
        },
        Metric {
            name: "pages_per_query",
            value: mean(&pages),
            unit: "pages",
        },
        Metric {
            name: "append_p50_ms",
            value: quantile(&group_floors, 0.5),
            unit: "ms",
        },
        Metric {
            name: "append_p95_ms",
            value: quantile(&group_floors, 0.95),
            unit: "ms",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_mb,
            unit: "MiB",
        },
        Metric {
            name: "space_amp",
            value: ratio(stored_bytes as f64, 8.0 * stored_values as f64),
            unit: "ratio",
        },
    ];
    eprintln!(
        "servebench {}: {samples} timed queries ({} distinct, {} connection(s)), {} acks \
         ({} groups), {} set-ups",
        cfg.workload.name(),
        query_ms.len(),
        spec.readers,
        append_ms.len(),
        group_floors.len(),
        setups.len(),
    );
    for m in &metrics {
        eprintln!("  {:<16} {:>14.4} {}", m.name, m.value, m.unit);
    }
    Ok(tally.finish(metrics))
}

/// The fastest of a set of samples (`0.0` when empty).
fn floor(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Connection `conn_id`'s closed loop: passes over the pool, each in its
/// own seeded order. Requests started before `timed_start` are the untimed
/// warm-up; then `passes` whole passes are timed, so every run times each
/// query equally often.
fn read_loop(
    addr: SocketAddr,
    reads: &[ReadReq],
    conn_id: usize,
    seed: u64,
    timed_start: Instant,
    passes: u64,
) -> Vec<Exchange> {
    let mut log = Vec::new();
    let mut conn = Conn::connect(addr);
    let mut pass = 0u64;
    let mut order = pass_order(reads.len(), seed, conn_id, pass);
    let mut pos = 0;
    let mut warming = true;
    let mut timed = 0;
    loop {
        let now = Instant::now();
        let warm_over = warming && now >= timed_start;
        if warm_over || pos == order.len() {
            if !warming {
                timed += 1;
                if timed == passes {
                    break;
                }
            }
            // A new pass; the warm-up's unfinished one is dropped so the
            // timed part is made of whole passes.
            warming &= !warm_over;
            pass += 1;
            order = pass_order(reads.len(), seed, conn_id, pass);
            pos = 0;
        }
        let Some(&req) = order.get(pos) else { break };
        pos += 1;
        let t0 = Instant::now();
        let got = match &mut conn {
            Ok(c) => c.round_trip(&reads[req].wire),
            Err(e) => Err(io::Error::new(e.kind(), e.to_string())),
        };
        let now = Instant::now();
        let (status, body) = got.unwrap_or_else(|e| {
            // Counted as a failed operation; reconnect and carry on.
            conn = Conn::connect(addr);
            (0, e.to_string().into_bytes())
        });
        log.push(Exchange {
            req,
            timed: !warming,
            latency: now - t0,
            status,
            body,
        });
    }
    log
}

/// The `ingest` writer: from `timed_start` until the readers finish (at
/// least one), one `/append` at a time.
fn write_loop(
    addr: SocketAddr,
    corpus: &Corpus,
    seed: u64,
    timed_start: Instant,
    readers_done: &AtomicBool,
) -> Vec<AppendLog> {
    std::thread::sleep(timed_start.saturating_duration_since(Instant::now()));
    let mut stream = AppendStream::new(&corpus.data, seed);
    let mut log = Vec::new();
    let Ok(mut conn) = Conn::connect(addr) else {
        return log;
    };
    loop {
        log.push(send_append(&mut conn, &mut stream));
        // Ordering::Relaxed: stop flag only (see where it is set).
        if readers_done.load(Ordering::Relaxed) {
            return log;
        }
    }
}

fn send_append(conn: &mut Conn, stream: &mut AppendStream) -> AppendLog {
    let (series, values) = stream.next_append();
    let wire = post("/append", &append_body(series, &values));
    let t0 = Instant::now();
    let (status, body) = conn
        .round_trip(&wire)
        .unwrap_or_else(|e| (0, e.to_string().into_bytes()));
    AppendLog {
        series,
        values,
        latency: t0.elapsed(),
        status,
        body,
    }
}

/// An ack must be a durable `200` whose epoch exceeds the previous ack's.
/// Returns the epoch and whether the append triggered an STR rebuild.
fn check_ack(a: &AppendLog, last_epoch: u64) -> Result<(u64, bool), String> {
    if a.status != 200 {
        return Err(format!(
            "/append status {}: {}",
            a.status,
            String::from_utf8_lossy(&a.body)
        ));
    }
    let json = std::str::from_utf8(&a.body)
        .ok()
        .and_then(|t| Json::parse(t).ok())
        .ok_or("/append ack is not JSON")?;
    let epoch = json
        .get("epoch")
        .and_then(Json::as_u64)
        .ok_or("ack without epoch")?;
    if json.get("durable").and_then(Json::as_bool) != Some(true) {
        return Err("ack is not durable".into());
    }
    if epoch <= last_epoch {
        return Err(format!("ack epoch {epoch} after {last_epoch}"));
    }
    let rebuilt = json.get("str_rebuilt").and_then(Json::as_bool) == Some(true);
    Ok((epoch, rebuilt))
}

fn check_health(addr: SocketAddr, windows: usize, epoch: u64) -> Result<(), String> {
    let (status, body) = get(addr, "/health").map_err(|e| format!("/health: {e}"))?;
    let json = std::str::from_utf8(&body)
        .ok()
        .and_then(|t| Json::parse(t).ok())
        .ok_or("/health is not JSON")?;
    let got = json.get("num_windows").and_then(Json::as_u64);
    let got_epoch = json.get("epoch").and_then(Json::as_u64);
    if status != 200 || got != Some(windows as u64) || got_epoch != Some(epoch) {
        return Err(format!(
            "/health {status}: num_windows {got:?} epoch {got_epoch:?}, expected {windows} at epoch {epoch}"
        ));
    }
    Ok(())
}

fn check_post_query(
    got: io::Result<(u16, Vec<u8>)>,
    r: &ReadReq,
    twin: &SearchEngine,
) -> Result<(), String> {
    let (status, body) = got.map_err(|e| format!("post-run query: {e}"))?;
    if status != 200 {
        return Err(format!("post-run query status {status}"));
    }
    let answer = parse_answer(&body)?;
    let want = r.answer(twin).map_err(|e| e.to_string())?;
    if answer.digest != Digest::of_matches(&want.matches) {
        return Err("post-run query differs from the twin after the same appends".into());
    }
    Ok(())
}

fn check_read(
    ex: &Exchange,
    expected: &[Digest],
    oracle: Option<&EpochOracle>,
) -> Result<crate::workload::Answer, String> {
    if ex.status != 200 {
        return Err(format!(
            "read status {}: {}",
            ex.status,
            String::from_utf8_lossy(&ex.body)
        ));
    }
    let answer = parse_answer(&ex.body)?;
    let ok = match oracle {
        None => expected.get(ex.req) == Some(&answer.digest),
        Some(o) => (answer.epoch.saturating_sub(EPOCH_SLACK)..=answer.epoch)
            .any(|e| o.digest_at(ex.req, e) == Some(answer.digest)),
    };
    if ok {
        Ok(answer)
    } else {
        Err(format!(
            "request {} answered {:?} at epoch {}",
            ex.req, answer.digest, answer.epoch
        ))
    }
}

/// Reference answers for reads that run beside appends. The corpus is
/// append-only, so the answer at epoch `e` is the final answer restricted
/// to windows that existed at `e`: the base answer's windows plus every
/// appended window whose completing append was acknowledged at or before
/// `e`.
struct EpochOracle {
    base: Vec<SearchResult>,
    final_answers: Vec<SearchResult>,
    initial_len: Vec<usize>,
    epochs_by_series: BTreeMap<usize, Vec<u64>>,
}

impl EpochOracle {
    fn digest_at(&self, req: usize, epoch: u64) -> Option<Digest> {
        let base: BTreeSet<SubseqId> = self.base.get(req)?.matches.iter().map(|m| m.id).collect();
        let kept: Vec<SubsequenceMatch> = self
            .final_answers
            .get(req)?
            .matches
            .iter()
            .filter(|m| base.contains(&m.id) || self.created_at(m.id) <= epoch)
            .cloned()
            .collect();
        Some(Digest::of_matches(&kept))
    }

    /// The epoch of the append that completed window `id`.
    fn created_at(&self, id: SubseqId) -> u64 {
        let window_len = tsss_core::EngineConfig::paper().window_len;
        let series = id.series_idx();
        let need = id.offset_idx() + window_len;
        let initial = self.initial_len.get(series).copied().unwrap_or(0);
        if need <= initial {
            return 0;
        }
        let k = (need - initial).div_ceil(APPEND_LEN);
        self.epochs_by_series
            .get(&series)
            .and_then(|e| e.get(k - 1))
            .copied()
            .unwrap_or(u64::MAX)
    }
}
