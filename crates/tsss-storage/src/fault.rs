//! Deterministic fault injection for chaos testing.
//!
//! [`FaultyStore`] decorates any [`PageStore`] and, with configurable
//! probabilities drawn from a seeded [`tsss_rand::Rng`], injects the
//! classic storage failure modes:
//!
//! * **read errors** — the medium refuses a read
//!   ([`StorageError::ReadFailed`]);
//! * **torn writes** — only a prefix of the page lands, the tail keeps its
//!   old bytes (a truncated sector write);
//! * **lost writes** — the write is acknowledged but never lands;
//! * **bit flips** — the write lands, then one random bit rots.
//!
//! Faults are injected *beneath* the checksum layer: torn writes and bit
//! flips go through [`PageStore::corrupt_raw`], which damages bytes without
//! refreshing the page's CRC, so the honest store underneath reports
//! [`StorageError::Corrupt`] on the next read — exactly how real media
//! corruption meets real checksums. Lost writes are the one silent mode
//! (detecting them needs external versioning, which the engine does not
//! model); they are exercised by storage-level tests only.
//!
//! The fault stream is a pure function of [`FaultConfig::seed`] and the
//! operation sequence, so any failure a chaos run finds is replayable from
//! its seed.

// analyze::allow-file(atomics): the fault counters are independent Relaxed event tallies read only by test assertions and reports; no ordering with other memory is implied or needed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use tsss_rand::Rng;

use crate::disk::PageId;
use crate::error::StorageError;
use crate::page::Page;
use crate::store::PageStore;

/// Named crash points on the durable append path, for deterministic
/// kill-at-every-point chaos testing.
///
/// The durable engine (`tsss-core`) checks an armed crash point at each of
/// these moments and, when it matches, simulates a process kill by leaving
/// the on-disk state exactly as a real kill would and returning an error —
/// the chaos suite then drops the engine and re-opens from disk. The
/// variants are ordered along the append path:
///
/// 1. [`CrashPoint::PreWalSync`] — the process died while the WAL frame
///    was being written, before the fsync: the log holds a torn, unsynced
///    half-frame and the append was **never acknowledged** (losing it is
///    allowed; recovery must still replay every earlier record).
/// 2. [`CrashPoint::PostWalPreIndex`] — the record is fsynced (the append
///    is acknowledged-durable) but the in-memory engine never mutated.
/// 3. [`CrashPoint::MidIndexInsert`] — the record is fsynced and the
///    in-memory mutation ran, then the process died before replying.
///    Since the engine is in-memory until the next save, the disk image
///    is identical to `PostWalPreIndex` — recovery must not care.
/// 4. [`CrashPoint::PostSavePreTruncate`] — a full atomic save landed but
///    the process died before truncating the WAL: every logged record is
///    *also* in the saved engine, so replay must be idempotent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrashPoint {
    /// Kill mid-WAL-write, before the fsync acknowledgement.
    PreWalSync,
    /// Kill after the WAL fsync, before any in-memory mutation.
    PostWalPreIndex,
    /// Kill after the WAL fsync and the in-memory index insert.
    MidIndexInsert,
    /// Kill after an atomic save, before the WAL truncate.
    PostSavePreTruncate,
}

impl CrashPoint {
    /// Every crash point, in append-path order — the chaos matrix iterates
    /// this so adding a variant automatically widens the suite.
    pub const ALL: [CrashPoint; 4] = [
        CrashPoint::PreWalSync,
        CrashPoint::PostWalPreIndex,
        CrashPoint::MidIndexInsert,
        CrashPoint::PostSavePreTruncate,
    ];

    /// Stable name used in test output and the CI matrix.
    pub fn name(self) -> &'static str {
        match self {
            CrashPoint::PreWalSync => "pre-wal-sync",
            CrashPoint::PostWalPreIndex => "post-wal-pre-index",
            CrashPoint::MidIndexInsert => "mid-index-insert",
            CrashPoint::PostSavePreTruncate => "post-save-pre-truncate",
        }
    }
}

/// Injection probabilities (each in `[0, 1]`) and the seed that makes the
/// fault stream reproducible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed of the deterministic fault stream.
    pub seed: u64,
    /// Probability a read fails with [`StorageError::ReadFailed`].
    pub read_error: f64,
    /// Probability a write applies only its first half (old tail kept,
    /// checksum stale → detected on next read).
    pub torn_write: f64,
    /// Probability a write is acknowledged but dropped.
    pub lost_write: f64,
    /// Probability a successful write is followed by one random bit
    /// rotting (checksum stale → detected on next read).
    pub bit_flip: f64,
}

impl FaultConfig {
    /// No faults at all — the decorator becomes a transparent wrapper.
    pub fn none(seed: u64) -> Self {
        Self {
            seed,
            read_error: 0.0,
            torn_write: 0.0,
            lost_write: 0.0,
            bit_flip: 0.0,
        }
    }

    /// A read-side-only profile: reads fail with probability `p`, writes
    /// are honest. The profile chaos tests use against read-only query
    /// workloads.
    pub fn read_errors(seed: u64, p: f64) -> Self {
        Self {
            read_error: p,
            ..Self::none(seed)
        }
    }
}

/// How many faults of each kind a [`FaultyStore`] has injected.
///
/// Shared (`Arc`) so tests keep a handle after the store disappears behind
/// `Box<dyn PageStore>` — chaos assertions hinge on whether any fault
/// actually fired during a query.
#[derive(Debug, Default)]
pub struct FaultCounters {
    read_errors: AtomicU64,
    torn_writes: AtomicU64,
    lost_writes: AtomicU64,
    bit_flips: AtomicU64,
}

impl FaultCounters {
    /// Injected read errors so far.
    pub fn read_errors(&self) -> u64 {
        self.read_errors.load(Ordering::Relaxed)
    }

    /// Injected torn writes so far.
    pub fn torn_writes(&self) -> u64 {
        self.torn_writes.load(Ordering::Relaxed)
    }

    /// Injected lost writes so far.
    pub fn lost_writes(&self) -> u64 {
        self.lost_writes.load(Ordering::Relaxed)
    }

    /// Injected bit flips so far.
    pub fn bit_flips(&self) -> u64 {
        self.bit_flips.load(Ordering::Relaxed)
    }

    /// Total faults injected so far.
    pub fn total(&self) -> u64 {
        self.read_errors() + self.torn_writes() + self.lost_writes() + self.bit_flips()
    }
}

/// A [`PageStore`] decorator injecting deterministic faults; see the module
/// docs.
#[derive(Debug)]
pub struct FaultyStore {
    inner: Box<dyn PageStore>,
    cfg: FaultConfig,
    rng: Mutex<Rng>,
    counters: Arc<FaultCounters>,
}

impl FaultyStore {
    /// Wraps `inner`, injecting faults per `cfg`.
    pub fn new(inner: Box<dyn PageStore>, cfg: FaultConfig) -> Self {
        Self {
            inner,
            rng: Mutex::new(Rng::seed_from_u64(cfg.seed)),
            cfg,
            counters: Arc::new(FaultCounters::default()),
        }
    }

    /// The injection configuration.
    pub fn config(&self) -> FaultConfig {
        self.cfg
    }

    /// Shared handle to the injection counters (keep it before boxing the
    /// store away).
    pub fn counters(&self) -> Arc<FaultCounters> {
        Arc::clone(&self.counters)
    }

    /// Unwraps the decorated store.
    pub fn into_inner(self) -> Box<dyn PageStore> {
        self.inner
    }

    /// One Bernoulli draw from the deterministic fault stream.
    fn roll(&self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        // analyze::allow(panic): fault injection is a test harness; a poisoned rng lock means a test already panicked, and aborting the fault stream there is the desired behaviour.
        self.rng.lock().expect("fault rng lock").f64() < p
    }
}

impl PageStore for FaultyStore {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn extent(&self) -> usize {
        self.inner.extent()
    }

    fn allocate(&mut self) -> Result<PageId, StorageError> {
        self.inner.allocate()
    }

    fn read(&self, id: PageId) -> Result<Page, StorageError> {
        if self.roll(self.cfg.read_error) {
            self.counters.read_errors.fetch_add(1, Ordering::Relaxed);
            return Err(StorageError::ReadFailed { page: id });
        }
        self.inner.read(id)
    }

    fn write(&mut self, id: PageId, page: Page) -> Result<(), StorageError> {
        // Validate the request before rolling, so invalid calls keep their
        // typed errors regardless of the fault stream.
        if page.size() != self.inner.page_size() {
            return Err(StorageError::PageSizeMismatch {
                expected: self.inner.page_size(),
                got: page.size(),
            });
        }
        if self.roll(self.cfg.lost_write) {
            self.counters.lost_writes.fetch_add(1, Ordering::Relaxed);
            // Probe the slot so bad ids still fail like an honest write.
            return self.inner.corrupt_raw(id, &mut |_| {});
        }
        if self.roll(self.cfg.torn_write) {
            self.counters.torn_writes.fetch_add(1, Ordering::Relaxed);
            let half = page.size() / 2;
            return self.inner.corrupt_raw(id, &mut |bytes| {
                // analyze::allow(index): `half` is page.size()/2 and both buffers are exactly page-sized (checked at entry).
                bytes[..half].copy_from_slice(&page.bytes()[..half]);
            });
        }
        self.inner.write(id, page)?;
        if self.roll(self.cfg.bit_flip) {
            self.counters.bit_flips.fetch_add(1, Ordering::Relaxed);
            let (byte, bit) = {
                // analyze::allow(panic): see `roll` — test-harness lock.
                let mut rng = self.rng.lock().expect("fault rng lock");
                (rng.usize_below(self.inner.page_size()), rng.usize_below(8))
            };
            self.inner
                // analyze::allow(index): `byte` was drawn from `usize_below(page_size)` and the raw buffer is page-sized.
                .corrupt_raw(id, &mut |bytes| bytes[byte] ^= 1 << bit)?;
        }
        Ok(())
    }

    fn corrupt_raw(
        &mut self,
        id: PageId,
        f: &mut dyn FnMut(&mut [u8]),
    ) -> Result<(), StorageError> {
        self.inner.corrupt_raw(id, f)
    }

    fn persist(&self, w: &mut dyn std::io::Write) -> std::io::Result<()> {
        self.inner.persist(w)
    }

    fn fork(&self) -> Box<dyn PageStore> {
        self.inner.fork()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferPool;
    use crate::disk::PageFile;

    /// Every test here returns `Result<(), String>` and threads storage
    /// errors through [`seeded`], so a failure under fault pressure reports
    /// the fault seed to reproduce with instead of a bare `unwrap` panic.
    type TestResult = Result<(), String>;

    /// Attaches the fault seed to a storage error so the failing seed is in
    /// the test output.
    fn seeded<T>(r: Result<T, StorageError>, seed: u64, what: &str) -> Result<T, String> {
        r.map_err(|e| format!("seed {seed}: {what}: {e}"))
    }

    fn faulty(cfg: FaultConfig) -> Result<(FaultyStore, Vec<PageId>), String> {
        let seed = cfg.seed;
        let mut file = seeded(PageFile::new(64), seed, "new page file")?;
        let mut ids = Vec::new();
        for i in 0..8u64 {
            let id = seeded(file.allocate(), seed, "allocate")?;
            let mut p = Page::zeroed(64);
            p.put_u64(0, 100 + i);
            seeded(file.write_page(id, p), seed, "seed page")?;
            ids.push(id);
        }
        Ok((FaultyStore::new(Box::new(file), cfg), ids))
    }

    #[test]
    fn no_faults_means_transparent_delegation() -> TestResult {
        let (mut s, ids) = faulty(FaultConfig::none(1))?;
        let mut p = Page::zeroed(64);
        p.put_u64(0, 777);
        seeded(s.write(ids[0], p), 1, "fault-free write")?;
        let got = seeded(s.read(ids[0]), 1, "fault-free read")?.get_u64(0);
        assert_eq!(got, 777);
        assert_eq!(s.counters().total(), 0);
        Ok(())
    }

    #[test]
    fn fault_stream_is_deterministic_in_the_seed() -> TestResult {
        let run = |seed: u64| -> Result<Vec<bool>, String> {
            let (s, ids) = faulty(FaultConfig::read_errors(seed, 0.3))?;
            Ok((0..100)
                .map(|i| s.read(ids[i % ids.len()]).is_err())
                .collect())
        };
        assert_eq!(run(42)?, run(42)?);
        assert_ne!(run(42)?, run(43)?, "different seeds, different streams");
        assert!(run(42)?.iter().any(|&e| e), "p = 0.3 over 100 reads fires");
        assert!(run(42)?.iter().any(|&e| !e), "and not always");
        Ok(())
    }

    #[test]
    fn read_errors_are_typed_and_counted() -> TestResult {
        let (s, ids) = faulty(FaultConfig::read_errors(7, 1.0))?;
        assert_eq!(
            s.read(ids[0]),
            Err(StorageError::ReadFailed { page: ids[0] }),
            "seed 7: p = 1.0 must fail every read"
        );
        assert_eq!(s.counters().read_errors(), 1);
        // Through a pool the failed read is still one logical access,
        // re-issued until the retry budget runs out.
        let counters = s.counters();
        let pool = BufferPool::from_store(Box::new(s));
        assert!(pool.read(ids[0]).is_err());
        assert_eq!((pool.stats().reads(), pool.stats().retries()), (1, 2));
        assert_eq!(counters.read_errors(), 4);
        Ok(())
    }

    #[test]
    fn torn_write_is_detected_by_the_checksum() -> TestResult {
        let cfg = FaultConfig {
            torn_write: 1.0,
            ..FaultConfig::none(3)
        };
        let (mut s, ids) = faulty(cfg)?;
        let mut p = Page::zeroed(64);
        p.put_u64(0, 1); // lands in the written prefix
        p.put_u64(56, 2); // would land in the lost tail
        seeded(s.write(ids[2], p), 3, "torn write is still acknowledged")?;
        assert_eq!(s.counters().torn_writes(), 1);
        assert!(
            matches!(s.read(ids[2]), Err(StorageError::Corrupt { .. })),
            "seed 3: half-written page must fail verification"
        );
        Ok(())
    }

    #[test]
    fn lost_write_keeps_the_old_consistent_content() -> TestResult {
        let cfg = FaultConfig {
            lost_write: 1.0,
            ..FaultConfig::none(9)
        };
        let (mut s, ids) = faulty(cfg)?;
        let mut p = Page::zeroed(64);
        p.put_u64(0, 999);
        seeded(s.write(ids[1], p), 9, "lost write is still acknowledged")?;
        assert_eq!(s.counters().lost_writes(), 1);
        // The old page is intact and verifies — the silent failure mode.
        let got = seeded(s.read(ids[1]), 9, "read of the surviving page")?.get_u64(0);
        assert_eq!(got, 101);
        Ok(())
    }

    #[test]
    fn bit_flip_after_write_is_detected_on_read() -> TestResult {
        let cfg = FaultConfig {
            bit_flip: 1.0,
            ..FaultConfig::none(5)
        };
        let (mut s, ids) = faulty(cfg)?;
        seeded(
            s.write(ids[4], Page::zeroed(64)),
            5,
            "write before the flip",
        )?;
        assert_eq!(s.counters().bit_flips(), 1);
        assert!(
            matches!(s.read(ids[4]), Err(StorageError::Corrupt { .. })),
            "seed 5: flipped page must fail verification"
        );
        Ok(())
    }

    #[test]
    fn invalid_requests_stay_typed_even_under_full_fault_pressure() -> TestResult {
        let cfg = FaultConfig {
            read_error: 1.0,
            torn_write: 1.0,
            lost_write: 1.0,
            bit_flip: 1.0,
            seed: 11,
        };
        let (mut s, _) = faulty(cfg)?;
        assert_eq!(
            s.write(PageId(0), Page::zeroed(32)),
            Err(StorageError::PageSizeMismatch {
                expected: 64,
                got: 32
            }),
            "seed 11: size mismatch must win over injected faults"
        );
        assert!(
            matches!(
                s.write(PageId(99), Page::zeroed(64)),
                Err(StorageError::OutOfRange { .. } | StorageError::InvalidPageId)
            ),
            "seed 11: bad id must stay typed under fault pressure"
        );
        Ok(())
    }

    #[test]
    fn write_accounting_is_exact_under_faults() -> TestResult {
        for (name, cfg) in [
            (
                "lost",
                FaultConfig {
                    lost_write: 1.0,
                    ..FaultConfig::none(2)
                },
            ),
            (
                "torn",
                FaultConfig {
                    torn_write: 1.0,
                    ..FaultConfig::none(2)
                },
            ),
            (
                "flip",
                FaultConfig {
                    bit_flip: 1.0,
                    ..FaultConfig::none(2)
                },
            ),
        ] {
            let (s, ids) = faulty(cfg)?;
            let mut pool = BufferPool::from_store(Box::new(s));
            for _ in 0..5 {
                seeded(pool.write(ids[0], Page::zeroed(64)), 2, name)?;
            }
            assert_eq!(
                pool.stats().writes(),
                5,
                "{name}: every logical write counted"
            );
        }
        Ok(())
    }

    #[test]
    fn persist_writes_the_underlying_state() -> TestResult {
        let (mut s, ids) = faulty(FaultConfig::none(1))?;
        let mut p = Page::zeroed(64);
        p.put_u64(0, 4242);
        seeded(s.write(ids[0], p), 1, "write before persist")?;
        let mut buf = Vec::new();
        s.persist(&mut buf)
            .map_err(|e| format!("seed 1: persist: {e}"))?;
        let g = PageFile::read_from(&mut std::io::Cursor::new(buf))
            .map_err(|e| format!("seed 1: reload persisted state: {e}"))?;
        let got = seeded(g.read_page(ids[0]), 1, "read persisted page")?.get_u64(0);
        assert_eq!(got, 4242);
        Ok(())
    }

    #[test]
    fn fork_reads_the_underlying_pages_with_no_faults_firing() -> TestResult {
        let cfg = FaultConfig {
            read_error: 1.0,
            torn_write: 1.0,
            bit_flip: 1.0,
            ..FaultConfig::none(5)
        };
        let (s, ids) = faulty(cfg)?;
        let counters = s.counters();
        let pool = BufferPool::from_store(Box::new(s));
        let mut forked = pool.fork();
        for (i, &id) in ids.iter().enumerate() {
            let got = seeded(forked.read(id), 5, "read through the fork")?.get_u64(0);
            assert_eq!(got, 100 + i as u64);
        }
        let mut p = Page::zeroed(64);
        p.put_u64(0, 31);
        seeded(forked.write(ids[0], p), 5, "write through the fork")?;
        assert_eq!(seeded(forked.read(ids[0]), 5, "re-read")?.get_u64(0), 31);
        assert_eq!(counters.total(), 0, "seed 5: no fault fired on the fork");
        assert_eq!(
            pool.stats().total_accesses(),
            0,
            "the fork counts on its own"
        );
        assert_eq!(forked.stats().reads(), 9);
        Ok(())
    }
}
