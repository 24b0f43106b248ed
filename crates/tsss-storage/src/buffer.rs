//! The page-access accountant in front of a [`PageStore`].
//!
//! The paper's Figure 5 counts raw (unbuffered) page accesses, and so does
//! every engine: the pool caches nothing. It owns the store, records one
//! logical access per [`BufferPool::read`] and [`BufferPool::write`] in
//! [`AccessStats`] (the Figure 5 metric), and re-issues reads that fail
//! transiently. The `ablation_buffer` bench studies what an LRU cache
//! would save by replaying the index's recorded read trace, not by
//! caching here.
//!
//! # Concurrency model
//!
//! There is no lock. [`BufferPool::read`] takes `&self` and every mutation
//! takes `&mut self`, so the borrow checker keeps the store immutable while
//! it is borrowed for reading, and any number of threads may read at once.
//! A reader that must not see later writes holds a [`BufferPool::fork`].
//!
//! # Fallibility
//!
//! Every path that touches the store propagates [`StorageError`], so
//! checksum failures and injected faults in the medium surface to the
//! R-tree and engine as typed errors instead of panics.

use std::sync::Arc;

use crate::disk::{PageFile, PageId};
use crate::error::StorageError;
use crate::page::Page;
use crate::stats::AccessStats;
use crate::store::PageStore;

/// Physical read attempts per logical read: one initial try plus up to two
/// retries for transient faults. Deterministic and wall-clock free — the
/// "backoff" is simply re-issuing the read, which under the seeded
/// [`crate::FaultyStore`] draws a fresh Bernoulli trial.
const READ_ATTEMPTS: u32 = 3;

/// A counted, retrying front end to a [`PageStore`], safe for concurrent
/// readers.
///
/// ```
/// use tsss_storage::{BufferPool, Page, PageFile};
/// let mut file = PageFile::new(64).unwrap();
/// let id = file.allocate().unwrap();
/// let mut pool = BufferPool::new(file);
/// let mut page = Page::zeroed(64);
/// page.put_u64(0, 42);
/// pool.write(id, page).unwrap();
/// assert_eq!(pool.read(id).unwrap().get_u64(0), 42);
/// assert_eq!(pool.stats().total_accesses(), 2); // one write, one read
/// ```
#[derive(Debug)]
pub struct BufferPool {
    store: Box<dyn PageStore>,
    page_size: usize,
    stats: Arc<AccessStats>,
}

impl BufferPool {
    /// Wraps `file`.
    pub fn new(file: PageFile) -> Self {
        Self::from_store(Box::new(file))
    }

    /// Wraps an arbitrary [`PageStore`] (e.g. a [`crate::FaultyStore`]),
    /// with fresh [`AccessStats`].
    pub fn from_store(store: Box<dyn PageStore>) -> Self {
        Self {
            stats: Arc::new(AccessStats::new()),
            page_size: store.page_size(),
            store,
        }
    }

    /// Replaces the backing store with `wrap(old_store)` — the hook chaos
    /// tests use to slide a [`crate::FaultyStore`] underneath a live tree.
    /// The pool keeps its counters.
    pub fn wrap_store(&mut self, wrap: impl FnOnce(Box<dyn PageStore>) -> Box<dyn PageStore>) {
        // Park an inert placeholder while `wrap` consumes the real store.
        let old = std::mem::replace(&mut self.store, Box::new(NullStore));
        self.store = wrap(old);
    }

    /// Shared handle to the pool's access counters.
    pub fn stats(&self) -> Arc<AccessStats> {
        Arc::clone(&self.stats)
    }

    /// Allocates a fresh page in the backing store.
    ///
    /// # Errors
    /// Propagates the store's typed errors.
    pub fn allocate(&mut self) -> Result<PageId, StorageError> {
        self.store.allocate()
    }

    /// Page size of the backing store.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Physical extent (pages ever allocated) of the backing store.
    pub fn extent(&self) -> usize {
        self.store.extent()
    }

    /// Reads a page, counting one logical read. A transient store failure
    /// ([`StorageError::is_transient`]) is re-issued, up to three attempts
    /// in all, each re-issue recorded in [`AccessStats::retries`];
    /// permanent errors return at once. Safe to call from many threads at
    /// once.
    ///
    /// # Errors
    /// Propagates the store's typed errors — notably
    /// [`StorageError::Corrupt`] on a checksum mismatch.
    pub fn read(&self, id: PageId) -> Result<Page, StorageError> {
        self.stats.record_read();
        let mut attempt = 1;
        loop {
            match self.store.read(id) {
                Err(e) if e.is_transient() && attempt < READ_ATTEMPTS => {
                    self.stats.record_retry();
                    attempt += 1;
                }
                other => return other,
            }
        }
    }

    /// Writes a page, counting one logical write.
    ///
    /// # Errors
    /// Propagates the store's typed errors; rejects wrong-size pages.
    pub fn write(&mut self, id: PageId, page: Page) -> Result<(), StorageError> {
        if page.size() != self.page_size {
            return Err(StorageError::PageSizeMismatch {
                expected: self.page_size,
                got: page.size(),
            });
        }
        self.stats.record_write();
        self.store.write(id, page)
    }

    /// A copy-on-write twin of the pool over a [`PageStore::fork`] of the
    /// backing store, with fresh [`AccessStats`] — what persisting and
    /// reloading the store would give, without copying a page.
    pub fn fork(&self) -> BufferPool {
        Self::from_store(self.store.fork())
    }

    /// Runs `f` against the backing store (used by persistence).
    pub fn with_store<R>(&self, f: impl FnOnce(&dyn PageStore) -> R) -> R {
        f(self.store.as_ref())
    }

    /// Damages the stored bytes of `id` via `f` without refreshing its
    /// checksum (see [`PageStore::corrupt_raw`]), so the next read of the
    /// page fails verification. Chaos test hook.
    ///
    /// # Errors
    /// Propagates the store's typed errors on bad ids.
    pub fn corrupt_page(
        &mut self,
        id: PageId,
        f: &mut dyn FnMut(&mut [u8]),
    ) -> Result<(), StorageError> {
        self.store.corrupt_raw(id, f)
    }
}

/// The inert store parked in the pool's store slot for the instant
/// [`BufferPool::wrap_store`] hands the real store to the wrapping
/// closure. Never observable through the pool's API; every operation is
/// refused with a typed error.
#[derive(Debug)]
struct NullStore;

impl PageStore for NullStore {
    fn page_size(&self) -> usize {
        0
    }
    fn extent(&self) -> usize {
        0
    }
    fn allocate(&mut self) -> Result<PageId, StorageError> {
        Err(StorageError::Full)
    }
    fn read(&self, id: PageId) -> Result<Page, StorageError> {
        Err(StorageError::OutOfRange {
            page: id,
            extent: 0,
        })
    }
    fn write(&mut self, id: PageId, _page: Page) -> Result<(), StorageError> {
        Err(StorageError::OutOfRange {
            page: id,
            extent: 0,
        })
    }
    fn corrupt_raw(
        &mut self,
        id: PageId,
        _f: &mut dyn FnMut(&mut [u8]),
    ) -> Result<(), StorageError> {
        Err(StorageError::OutOfRange {
            page: id,
            extent: 0,
        })
    }
    fn persist(&self, _w: &mut dyn std::io::Write) -> std::io::Result<()> {
        Ok(())
    }
    fn fork(&self) -> Box<dyn PageStore> {
        Box::new(NullStore)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> (BufferPool, Vec<PageId>) {
        let mut file = PageFile::new(64).unwrap();
        let ids: Vec<PageId> = (0..8).map(|_| file.allocate().unwrap()).collect();
        // Seed each page with a recognisable value.
        for (i, &id) in ids.iter().enumerate() {
            let mut p = Page::zeroed(64);
            p.put_u64(0, i as u64 + 100);
            file.write_page(id, p).unwrap();
        }
        (BufferPool::new(file), ids)
    }

    /// A store whose first `fail_reads` physical reads fail transiently,
    /// then behave honestly — the minimal deterministic transient fault.
    #[derive(Debug)]
    struct Flaky {
        inner: Box<dyn PageStore>,
        fail_reads: std::sync::atomic::AtomicU32,
    }

    impl PageStore for Flaky {
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
            use std::sync::atomic::Ordering;
            let left = self.fail_reads.load(Ordering::Relaxed);
            if left > 0 {
                self.fail_reads.store(left - 1, Ordering::Relaxed);
                return Err(StorageError::ReadFailed { page: id });
            }
            self.inner.read(id)
        }
        fn write(&mut self, id: PageId, page: Page) -> Result<(), StorageError> {
            self.inner.write(id, page)
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

    fn flaky_pool(fail_reads: u32) -> (BufferPool, Vec<PageId>) {
        let (mut pool, ids) = pool();
        pool.wrap_store(|inner| {
            Box::new(Flaky {
                inner,
                fail_reads: std::sync::atomic::AtomicU32::new(fail_reads),
            })
        });
        (pool, ids)
    }

    #[test]
    fn transient_read_failures_are_retried_to_success() {
        let (pool, ids) = flaky_pool(2);
        let p = pool
            .read(ids[0])
            .expect("two transient faults fit in the retry budget");
        assert_eq!(p.get_u64(0), 100);
        let s = pool.stats();
        assert_eq!(s.retries(), 2);
        assert_eq!(s.reads(), 1, "a retried read is still one logical read");
    }

    #[test]
    fn exhausted_retries_surface_the_transient_error() {
        let (pool, ids) = flaky_pool(10);
        assert_eq!(
            pool.read(ids[0]),
            Err(StorageError::ReadFailed { page: ids[0] })
        );
        assert_eq!(pool.stats().retries(), u64::from(READ_ATTEMPTS - 1));
    }

    #[test]
    fn permanent_errors_are_never_retried() {
        let (mut pool, ids) = pool();
        pool.corrupt_page(ids[0], &mut |b| b[0] ^= 0xFF).unwrap();
        assert!(matches!(
            pool.read(ids[0]),
            Err(StorageError::Corrupt { .. })
        ));
        assert_eq!(pool.stats().retries(), 0);
    }

    #[test]
    fn pool_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BufferPool>();
    }

    #[test]
    fn every_read_is_counted() {
        let (pool, ids) = pool();
        for _ in 0..3 {
            let p = pool.read(ids[0]).unwrap();
            assert_eq!(p.get_u64(0), 100);
        }
        let s = pool.stats();
        assert_eq!(s.reads(), 3);
        assert_eq!(s.writes(), 0);
    }

    #[test]
    fn writes_go_straight_to_the_store() {
        let (mut pool, ids) = pool();
        let mut p = Page::zeroed(64);
        p.put_u64(0, 42);
        pool.write(ids[5], p).unwrap();
        assert_eq!(pool.read(ids[5]).unwrap().get_u64(0), 42);
        let stored = pool.with_store(|store| store.read(ids[5]));
        assert_eq!(stored.unwrap().get_u64(0), 42);
    }

    #[test]
    fn bad_ids_and_sizes_are_typed_errors() {
        let (mut pool, _) = pool();
        assert_eq!(
            pool.read(PageId::INVALID).unwrap_err(),
            StorageError::InvalidPageId
        );
        assert!(matches!(
            pool.read(PageId(99)).unwrap_err(),
            StorageError::OutOfRange { .. }
        ));
        assert!(matches!(
            pool.write(PageId(0), Page::zeroed(32)).unwrap_err(),
            StorageError::PageSizeMismatch { .. }
        ));
    }

    #[test]
    fn corrupt_page_is_detected_on_the_next_read() {
        let (mut pool, ids) = pool();
        let _ = pool.read(ids[0]).unwrap();
        pool.corrupt_page(ids[0], &mut |bytes| bytes[0] ^= 0xFF)
            .unwrap();
        assert!(matches!(
            pool.read(ids[0]),
            Err(StorageError::Corrupt { .. })
        ));
    }

    #[test]
    fn wrap_store_slides_a_decorator_under_a_live_pool() {
        use crate::fault::{FaultConfig, FaultyStore};
        let (mut pool, ids) = pool();
        let _ = pool.read(ids[0]).unwrap();
        pool.wrap_store(|inner| {
            Box::new(FaultyStore::new(inner, FaultConfig::read_errors(1, 1.0)))
        });
        assert!(
            matches!(pool.read(ids[0]), Err(StorageError::ReadFailed { .. })),
            "a page read before the wrap must now go through the faulty store"
        );
        let s = pool.stats();
        assert_eq!(
            (s.reads(), s.retries()),
            (2, 2),
            "the pool keeps counting across the wrap"
        );
    }

    #[test]
    fn concurrent_reads_agree_with_the_file() {
        let (pool, ids) = pool();
        std::thread::scope(|sc| {
            for t in 0..4u64 {
                let pool = &pool;
                let ids = &ids;
                sc.spawn(move || {
                    let mut x = t + 1;
                    for _ in 0..500 {
                        x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let i = (x >> 33) as usize % ids.len();
                        assert_eq!(pool.read(ids[i]).unwrap().get_u64(0), 100 + i as u64);
                    }
                });
            }
        });
        assert_eq!(pool.stats().reads(), 2000);
    }
}
