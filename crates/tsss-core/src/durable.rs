//! Crash-safe ingest: a [`SearchEngine`] paired with a write-ahead append
//! log ([`tsss_storage::wal`]).
//!
//! # The acknowledgement contract
//!
//! Every mutation accepted through [`DurableEngine::append_values`] /
//! [`DurableEngine::append_series`] is framed, CRC32-checksummed and
//! **fsynced** to the `<engine>.wal` sidecar *before* the in-memory engine
//! mutates. An `Ok` return therefore means the append survives a process
//! kill or power cut at any later instant: [`DurableEngine::open`] replays
//! the log tail (re-running the incremental SE-transform/DFT/R\*-insert)
//! on top of the last atomic save. An `Err` means the append was **not**
//! acknowledged and may or may not survive — callers retry.
//!
//! [`DurableEngine::save`] persists the whole engine atomically
//! (temp + rename, see [`SearchEngine::save_to_path`]) and then truncates
//! the log, whose records are now all reflected in the saved image. A
//! crash *between* the save and the truncate leaves both — which is why
//! replay is idempotent: each record carries enough position information
//! (`prior_len` / `expected series index`) to detect that a save already
//! covers it and skip cleanly.
//!
//! Window *removals* are deliberately not logged: they are index-only
//! edits and the index is always rebuilt from the authoritative data file
//! on a tolerant load, so a crash resurrects removed windows until the
//! next full save. The streaming-ingest durability story is about
//! appends — the paper's dynamic-maintenance requirement (§3).
//!
//! # Crash-point injection
//!
//! [`DurableEngine::set_crash_point`] arms one simulated kill
//! ([`CrashPoint`]) on the next mutation; the chaos suite drives every
//! point, drops the engine ("kill"), re-opens from disk, and asserts
//! search results bit-identical to a never-crashed twin.

use std::io;
use std::path::{Path, PathBuf};

use tsss_data::Series;
use tsss_storage::codec::{
    get_f64, get_string, get_u8, get_usize, put_f64, put_string, put_u8, put_usize,
};
use tsss_storage::{CrashPoint, Wal};

use crate::engine::SearchEngine;
use crate::error::EngineError;
use crate::recovery::HealthReport;

/// Record kind tag: append values to an existing series.
const KIND_APPEND: u8 = 0;
/// Record kind tag: create a new series (optionally with initial values).
const KIND_NEW_SERIES: u8 = 1;

/// What replaying the WAL tail did at open, for operator-facing logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalReplayReport {
    /// Intact records found in the log tail.
    pub tail_records: u64,
    /// Records re-applied to the engine (the last shutdown was a crash).
    pub applied: u64,
    /// Records skipped because the last atomic save already covered them
    /// (a crash between save and log truncate).
    pub skipped: u64,
    /// True when the log ended in a torn or corrupt record — the on-disk
    /// shape of a kill mid-append; the record was never acknowledged and
    /// was dropped.
    pub damaged_tail: bool,
    /// True when the engine file's index stream was itself damaged and
    /// rebuilt from the data stream during the tolerant load.
    pub index_repaired: bool,
}

/// A [`SearchEngine`] whose appends are write-ahead logged; see the module
/// docs for the durability contract.
#[derive(Debug)]
pub struct DurableEngine {
    engine: SearchEngine,
    /// `None` for a volatile (log-less) engine — same API, no durability.
    wal: Option<Wal>,
    /// Where [`DurableEngine::save`] persists the engine; `None` when
    /// volatile.
    engine_path: Option<PathBuf>,
    replay: WalReplayReport,
    /// One-shot armed crash point for the chaos suite.
    crash: Option<CrashPoint>,
}

impl DurableEngine {
    /// Wraps an engine with no log and no save path: appends are
    /// acknowledged from memory only (`durable == false`). How an
    /// in-memory engine is handed to the server.
    pub fn new_volatile(engine: SearchEngine) -> Self {
        Self {
            engine,
            wal: None,
            engine_path: None,
            replay: WalReplayReport::default(),
            crash: None,
        }
    }

    /// Opens the engine saved at `engine_path` (tolerating a damaged index
    /// stream, as [`SearchEngine::load_repairing_from_path`]), opens or
    /// creates the `<engine_path>.wal` sidecar, and replays any intact log
    /// tail so every acknowledged append is back. The log is **not**
    /// truncated by replay — only a successful [`DurableEngine::save`]
    /// empties it.
    ///
    /// # Errors
    /// `InvalidData` when the engine file or a logged record is damaged
    /// beyond the tolerated cases (a torn log *tail* is tolerated; an
    /// inconsistent record body is not); propagates I/O errors.
    pub fn open(engine_path: &Path) -> io::Result<Self> {
        let (engine, index_repaired) = SearchEngine::load_repairing_from_path(engine_path)?;
        let (wal, scan) = Wal::open(&Self::wal_path_for(engine_path))?;
        let mut de = Self {
            engine,
            wal: Some(wal),
            engine_path: Some(engine_path.to_path_buf()),
            replay: WalReplayReport {
                tail_records: u64::try_from(scan.records.len()).unwrap_or(u64::MAX),
                applied: 0,
                skipped: 0,
                damaged_tail: scan.damaged_tail,
                index_repaired,
            },
            crash: None,
        };
        for record in &scan.records {
            if de.replay_record(record)? {
                de.replay.applied += 1;
            } else {
                de.replay.skipped += 1;
            }
        }
        Ok(de)
    }

    /// The log sidecar path for an engine file: `<engine_path>.wal`.
    pub fn wal_path_for(engine_path: &Path) -> PathBuf {
        let mut os = engine_path.as_os_str().to_os_string();
        os.push(".wal");
        PathBuf::from(os)
    }

    /// Whether appends are write-ahead logged (`true`) or memory-only.
    pub fn is_durable(&self) -> bool {
        self.wal.is_some()
    }

    /// What replay did when this engine was opened.
    pub fn replay_report(&self) -> WalReplayReport {
        self.replay
    }

    /// Acknowledged appends in the log and not yet folded into a save.
    pub fn wal_tail_records(&self) -> u64 {
        self.wal.as_ref().map_or(0, Wal::records)
    }

    /// Read access to the wrapped engine (queries, health, stats).
    pub fn engine(&self) -> &SearchEngine {
        &self.engine
    }

    /// Mutable access to the wrapped engine, for maintenance that is *not*
    /// append-shaped — [`SearchEngine::repair`] in particular, whose
    /// effect is always derivable from the data file and so needs no log
    /// record. Appends must go through [`DurableEngine::append_values`] /
    /// [`DurableEngine::append_series`] or they will not survive a crash.
    pub fn engine_mut(&mut self) -> &mut SearchEngine {
        &mut self.engine
    }

    /// The engine's health, with the WAL durability fields filled in.
    pub fn health(&self) -> HealthReport {
        let mut h = self.engine.health();
        h.wal_tail_records = self.wal_tail_records();
        h.wal_replayed = self.replay.applied;
        h
    }

    /// Arms one simulated process kill at `point` on the next mutation
    /// (chaos testing); `None` disarms.
    pub fn set_crash_point(&mut self, point: Option<CrashPoint>) {
        self.crash = point;
    }

    /// Logs then applies an append to an existing series; the log fsync is
    /// the acknowledgement point (module docs).
    ///
    /// # Errors
    /// [`EngineError::Wal`] when the record could not be made durable (the
    /// engine did not mutate); otherwise as
    /// [`SearchEngine::append_values`].
    pub fn append_values(&mut self, series: usize, values: &[f64]) -> Result<(), EngineError> {
        // Validate before logging, so a doomed request never pollutes the
        // log with a record that cannot replay.
        let prior_len = self.engine.series_len(series)?;
        prior_len
            .checked_add(values.len())
            .ok_or(EngineError::TooLarge {
                what: "series length",
                value: prior_len,
            })?;
        let payload = encode_append(series, prior_len, values).map_err(wal_error)?;
        self.log_then(&payload, |e| e.append_values(series, values))
    }

    /// Logs then applies the creation of a new series (with any initial
    /// values); returns the new series index.
    ///
    /// # Errors
    /// As [`DurableEngine::append_values`].
    pub fn append_series(&mut self, series: &Series) -> Result<usize, EngineError> {
        let expect_idx = self.engine.num_series();
        let payload =
            encode_new_series(expect_idx, &series.name, &series.values).map_err(wal_error)?;
        self.log_then(&payload, |e| e.append_series(series))
    }

    /// Persists the engine atomically and then truncates the log (whose
    /// records the saved image now covers). A kill between the two leaves
    /// both the save and the log — replay idempotence handles it.
    ///
    /// # Errors
    /// [`EngineError::Wal`] when the engine is volatile (no save path) or
    /// when the save or truncate fails.
    pub fn save(&mut self) -> Result<(), EngineError> {
        let path = self.engine_path.clone().ok_or_else(|| EngineError::Wal {
            detail: "volatile engine has no save path".to_string(),
        })?;
        self.engine
            .save_to_path(&path)
            .map_err(|e| wal_error(io::Error::new(e.kind(), format!("engine save failed: {e}"))))?;
        if self.take_crash(CrashPoint::PostSavePreTruncate) {
            return Err(crash_error(CrashPoint::PostSavePreTruncate));
        }
        if let Some(wal) = &mut self.wal {
            wal.truncate().map_err(wal_error)?;
        }
        Ok(())
    }

    /// The write-then-apply core shared by both append entry points,
    /// threading the armed crash point through its exact position on the
    /// path (see [`CrashPoint`] for the per-point on-disk contract).
    fn log_then<R>(
        &mut self,
        payload: &[u8],
        apply: impl FnOnce(&mut SearchEngine) -> Result<R, EngineError>,
    ) -> Result<R, EngineError> {
        if let Some(wal) = &mut self.wal {
            if self.crash == Some(CrashPoint::PreWalSync) {
                self.crash = None;
                // The kill lands mid-write: a torn, unsynced half-frame is
                // on disk and the append was never acknowledged.
                wal.append_torn_unsynced(payload).map_err(wal_error)?;
                return Err(crash_error(CrashPoint::PreWalSync));
            }
            wal.append(payload).map_err(wal_error)?;
        }
        if self.take_crash(CrashPoint::PostWalPreIndex) {
            return Err(crash_error(CrashPoint::PostWalPreIndex));
        }
        if self.take_crash(CrashPoint::MidIndexInsert) {
            // The in-memory mutation fully lands, then the process dies
            // before replying — on disk this is identical to
            // PostWalPreIndex, which is exactly what recovery must prove.
            // analyze::allow(result-discipline): the simulated crash discards the apply result on purpose — the caller only ever sees the injected crash error, exactly like a real kill.
            let _ = apply(&mut self.engine);
            return Err(crash_error(CrashPoint::MidIndexInsert));
        }
        apply(&mut self.engine)
    }

    /// Consumes the armed crash point if it matches `point`.
    fn take_crash(&mut self, point: CrashPoint) -> bool {
        if self.crash == Some(point) {
            self.crash = None;
            true
        } else {
            false
        }
    }

    /// Re-applies one logged record at open. Returns `true` when applied,
    /// `false` when a previous save already covered it (idempotent skip).
    ///
    /// The skip tests are sound because saves are atomic and appends are
    /// synchronous: engine positions (series count, series length) advance
    /// exactly in log order, so a position at or past a record's end means
    /// a save captured that whole record.
    fn replay_record(&mut self, payload: &[u8]) -> io::Result<bool> {
        let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        match decode_record(payload)? {
            WalRecord::Append {
                series,
                prior_len,
                values,
            } => {
                let have = self
                    .engine
                    .series_len(series)
                    .map_err(|e| invalid(format!("WAL replay: {e}")))?;
                let end = prior_len
                    .checked_add(values.len())
                    .ok_or_else(|| invalid("WAL replay: series length overflow".to_string()))?;
                if have >= end {
                    return Ok(false); // covered by the last save
                }
                if have != prior_len {
                    return Err(invalid(format!(
                        "WAL replay: series {series} is {have} values long, \
                         record expects {prior_len}"
                    )));
                }
                self.engine
                    .append_values(series, &values)
                    .map_err(|e| invalid(format!("WAL replay: {e}")))?;
                Ok(true)
            }
            WalRecord::NewSeries {
                expect_idx,
                name,
                values,
            } => {
                let have = self.engine.num_series();
                if have > expect_idx {
                    return Ok(false); // covered by the last save
                }
                if have < expect_idx {
                    return Err(invalid(format!(
                        "WAL replay: engine has {have} series, record expects {expect_idx}"
                    )));
                }
                self.engine
                    .append_series(&Series::new(name, values))
                    .map_err(|e| invalid(format!("WAL replay: {e}")))?;
                Ok(true)
            }
        }
    }
}

/// A decoded log record.
enum WalRecord {
    /// Values appended to series `series`, which held `prior_len` values
    /// when the record was logged.
    Append {
        series: usize,
        prior_len: usize,
        values: Vec<f64>,
    },
    /// A new series created at index `expect_idx`.
    NewSeries {
        expect_idx: usize,
        name: String,
        values: Vec<f64>,
    },
}

/// Maps a log I/O failure into the engine's typed error.
fn wal_error(e: io::Error) -> EngineError {
    EngineError::Wal {
        detail: e.to_string(),
    }
}

/// The typed error an armed crash point surfaces as.
fn crash_error(point: CrashPoint) -> EngineError {
    EngineError::Wal {
        detail: format!("injected crash at {}", point.name()),
    }
}

fn encode_append(series: usize, prior_len: usize, values: &[f64]) -> io::Result<Vec<u8>> {
    let mut p = Vec::with_capacity(25 + values.len() * 8);
    put_u8(&mut p, KIND_APPEND)?;
    put_usize(&mut p, series)?;
    put_usize(&mut p, prior_len)?;
    put_values(&mut p, values)?;
    Ok(p)
}

fn encode_new_series(expect_idx: usize, name: &str, values: &[f64]) -> io::Result<Vec<u8>> {
    let mut p = Vec::with_capacity(17 + name.len() + values.len() * 8);
    put_u8(&mut p, KIND_NEW_SERIES)?;
    put_usize(&mut p, expect_idx)?;
    put_string(&mut p, name)?;
    put_values(&mut p, values)?;
    Ok(p)
}

fn put_values(p: &mut Vec<u8>, values: &[f64]) -> io::Result<()> {
    put_usize(p, values.len())?;
    for v in values {
        put_f64(p, *v)?;
    }
    Ok(())
}

fn decode_record(payload: &[u8]) -> io::Result<WalRecord> {
    let r = &mut io::Cursor::new(payload);
    match get_u8(r)? {
        KIND_APPEND => {
            let series = get_usize(r)?;
            let prior_len = get_usize(r)?;
            let values = get_values(r, payload.len())?;
            Ok(WalRecord::Append {
                series,
                prior_len,
                values,
            })
        }
        KIND_NEW_SERIES => {
            let expect_idx = get_usize(r)?;
            let name = get_string(r)?;
            let values = get_values(r, payload.len())?;
            Ok(WalRecord::NewSeries {
                expect_idx,
                name,
                values,
            })
        }
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("WAL record: unknown kind tag {other}"),
        )),
    }
}

fn get_values(r: &mut io::Cursor<&[u8]>, payload_len: usize) -> io::Result<Vec<f64>> {
    let n = get_usize(r)?;
    // Each value is 8 bytes; a count beyond the record is damage, and this
    // check keeps a hostile count from driving a huge allocation.
    if n > payload_len / 8 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "WAL record: value count exceeds the record size",
        ));
    }
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        values.push(get_f64(r)?);
    }
    Ok(values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EngineConfig, SearchOptions};
    use tsss_data::{MarketConfig, MarketSimulator};
    use tsss_storage::codec::put_u64;

    fn market(seed: u64) -> Vec<Series> {
        MarketSimulator::new(MarketConfig::small(4, 60, seed)).generate()
    }

    fn temp_engine_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tsss-durable-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("engine.tsss")
    }

    fn durable(tag: &str, seed: u64) -> (DurableEngine, Vec<Series>, PathBuf) {
        let data = market(seed);
        let engine = SearchEngine::build(&data, EngineConfig::small(16)).unwrap();
        let path = temp_engine_path(tag);
        engine.save_to_path(&path).unwrap();
        std::fs::remove_file(DurableEngine::wal_path_for(&path)).ok();
        (DurableEngine::open(&path).unwrap(), data, path)
    }

    fn cleanup(path: &Path) {
        std::fs::remove_file(path).ok();
        std::fs::remove_file(DurableEngine::wal_path_for(path)).ok();
    }

    #[test]
    fn acked_appends_survive_a_kill_without_a_save() {
        let (mut de, data, path) = durable("ack", 11);
        let fresh: Vec<f64> = data[0].values.iter().map(|v| v * 1.5 + 2.0).collect();
        de.append_values(0, &fresh[..20]).unwrap();
        de.append_series(&Series::new("live", fresh.clone()))
            .unwrap();
        assert_eq!(de.wal_tail_records(), 2);
        let expect = de
            .engine()
            .search(&fresh[2..18], 1e-6, SearchOptions::default())
            .unwrap();
        drop(de); // the "kill": nothing saved since the appends
        let re = DurableEngine::open(&path).unwrap();
        assert_eq!(re.replay_report().applied, 2);
        assert_eq!(re.replay_report().skipped, 0);
        let got = re
            .engine()
            .search(&fresh[2..18], 1e-6, SearchOptions::default())
            .unwrap();
        assert_eq!(got.matches, expect.matches, "replay must be bit-identical");
        cleanup(&path);
    }

    #[test]
    fn save_truncates_the_log_and_replay_skips_covered_records() {
        let (mut de, data, path) = durable("skip", 12);
        de.append_values(1, &data[1].values[..10]).unwrap();
        de.save().unwrap();
        assert_eq!(de.wal_tail_records(), 0, "save empties the log");
        // Crash between save and truncate: both the save and the log exist.
        de.append_values(2, &[1.0, 2.0, 3.0]).unwrap();
        de.set_crash_point(Some(CrashPoint::PostSavePreTruncate));
        let err = de.save().unwrap_err();
        assert!(matches!(err, EngineError::Wal { .. }), "{err:?}");
        drop(de);
        let re = DurableEngine::open(&path).unwrap();
        let r = re.replay_report();
        assert_eq!(r.tail_records, 1);
        assert_eq!(r.applied, 0, "the save covered the record");
        assert_eq!(r.skipped, 1, "duplicate replay must skip, not double-apply");
        let expected_len = data[2].len() + 3;
        assert_eq!(re.engine().series_len(2).unwrap(), expected_len);
        cleanup(&path);
    }

    #[test]
    fn volatile_engine_accepts_appends_but_reports_not_durable() {
        let data = market(13);
        let engine = SearchEngine::build(&data, EngineConfig::small(16)).unwrap();
        let mut de = DurableEngine::new_volatile(engine);
        assert!(!de.is_durable());
        de.append_values(0, &[5.0; 4]).unwrap();
        assert_eq!(de.wal_tail_records(), 0);
        assert!(matches!(de.save(), Err(EngineError::Wal { .. })));
    }

    #[test]
    fn wal_failure_on_append_leaves_the_engine_unmutated() {
        let (mut de, _, path) = durable("unmut", 14);
        let len_before = de.engine().series_len(0).unwrap();
        let windows_before = de.engine().num_windows();
        de.set_crash_point(Some(CrashPoint::PostWalPreIndex));
        let err = de.append_values(0, &[9.0; 8]).unwrap_err();
        assert!(matches!(err, EngineError::Wal { .. }), "{err:?}");
        assert_eq!(de.engine().series_len(0).unwrap(), len_before);
        assert_eq!(de.engine().num_windows(), windows_before);
        // The record *is* durable (fsynced before the kill), so reopen
        // replays it — acknowledged-to-disk beats the lost reply.
        drop(de);
        let re = DurableEngine::open(&path).unwrap();
        assert_eq!(re.replay_report().applied, 1);
        assert_eq!(re.engine().series_len(0).unwrap(), len_before + 8);
        cleanup(&path);
    }

    #[test]
    fn invalid_appends_are_rejected_before_touching_the_log() {
        let (mut de, _, path) = durable("prevalidate", 15);
        assert!(matches!(
            de.append_values(99, &[1.0]),
            Err(EngineError::UnknownSeries(99))
        ));
        assert_eq!(de.wal_tail_records(), 0, "no record for a doomed append");
        cleanup(&path);
    }

    #[test]
    fn health_reports_the_wal_tail() {
        let (mut de, _, path) = durable("health", 16);
        assert_eq!(de.health().wal_tail_records, 0);
        de.append_values(0, &[1.0, 2.0]).unwrap();
        de.append_values(0, &[3.0]).unwrap();
        let h = de.health();
        assert_eq!(h.wal_tail_records, 2);
        assert_eq!(h.wal_replayed, 0);
        drop(de);
        let re = DurableEngine::open(&path).unwrap();
        let h = re.health();
        assert_eq!(h.wal_tail_records, 2, "replay keeps the log until a save");
        assert_eq!(h.wal_replayed, 2);
        cleanup(&path);
    }

    #[test]
    fn record_codec_rejects_hostile_shapes() {
        // Unknown kind tag.
        assert!(decode_record(&[7]).is_err());
        // Value count far beyond the record's actual size.
        let mut p = Vec::new();
        put_u8(&mut p, KIND_APPEND).unwrap();
        put_u64(&mut p, 0).unwrap();
        put_u64(&mut p, 0).unwrap();
        put_u64(&mut p, u64::MAX).unwrap();
        assert!(decode_record(&p).is_err());
        // Name length beyond the record.
        let mut p = Vec::new();
        put_u8(&mut p, KIND_NEW_SERIES).unwrap();
        put_u64(&mut p, 0).unwrap();
        put_u64(&mut p, u64::MAX).unwrap();
        assert!(decode_record(&p).is_err());
        // A good record round-trips.
        let p = encode_new_series(3, "acme", &[1.5, -2.5]).unwrap();
        match decode_record(&p).unwrap() {
            WalRecord::NewSeries {
                expect_idx,
                name,
                values,
            } => {
                assert_eq!(expect_idx, 3);
                assert_eq!(name, "acme");
                assert_eq!(values, vec![1.5, -2.5]);
            }
            WalRecord::Append { .. } => panic!("wrong kind decoded"),
        }
    }
}
