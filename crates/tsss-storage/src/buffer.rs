//! A thread-safe LRU buffer pool in front of a [`PageStore`].
//!
//! The paper's Figure 5 counts raw (unbuffered) page accesses, so the
//! reproduction engine defaults to `capacity = 0` — every logical access is
//! also a physical one, and the pool is a pass-through that only keeps the
//! books. The `ablation_buffer` bench then turns the pool on to show how a
//! modest cache changes the sequential-vs-tree picture (an extension beyond
//! the paper).
//!
//! Accounting model:
//!
//! * [`AccessStats::reads`]/[`AccessStats::writes`] — **logical** accesses:
//!   every page the algorithm touches. This is the Figure 5 metric.
//! * [`AccessStats::hits`]/[`AccessStats::misses`] — how the pool served the
//!   logical reads. With `capacity = 0`, `misses == reads`.
//!
//! Evictions write dirty frames back to the store; those write-backs are
//! physical artefacts of caching and are *not* added to the logical
//! counters.
//!
//! # Concurrency model
//!
//! The pool has interior mutability so the whole read path can run on
//! `&self` from many threads at once:
//!
//! * The backing [`PageStore`] sits behind an `RwLock`. In the paper's
//!   unbuffered regime (`capacity = 0`) reads only ever take the shared
//!   lock, so concurrent queries proceed in parallel.
//! * Cached frames live in **shards**, each its own `Mutex`-protected LRU
//!   (pages hash to shards by id). Hit/miss accounting stays exact: the
//!   shard lock is held from lookup to frame insertion, so every logical
//!   read is classified exactly once.
//! * Lock order is always shard → store; shards are never nested, so the
//!   pool cannot deadlock against itself.
//!
//! Structural operations (allocate/deallocate/wrap-store) take `&mut self` —
//! they are build/maintenance-time operations and the exclusive borrow makes
//! the single-writer discipline explicit in the API.
//!
//! # Fallibility
//!
//! Every path that touches the store propagates [`StorageError`], so
//! checksum failures and injected faults in the medium surface to the
//! R-tree and engine as typed errors instead of panics. That includes
//! lock poisoning: if another thread panicked while holding a shard or
//! store lock, operations return [`StorageError::LockPoisoned`] instead
//! of propagating the panic.

// analyze::allow-file(index): frame indices flow only from the intrusive LRU list (head/tail/prev/next) and the id→index map, which are mutated together with the frame vector under the owning shard's lock; `shard()` reduces the hash modulo `shards.len()`.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError, RwLock};

use crate::disk::{PageFile, PageId};
use crate::error::StorageError;
use crate::page::Page;
use crate::stats::AccessStats;
use crate::store::PageStore;

const NIL: usize = usize::MAX;

/// Upper bound on frame-table shards (fewer when capacity is small, so each
/// shard still holds at least one frame).
const MAX_SHARDS: usize = 8;

/// Physical read attempts per logical read: one initial try plus up to two
/// retries for transient faults. Deterministic and wall-clock free — the
/// "backoff" is simply re-issuing the read, which under the seeded
/// [`crate::FaultyStore`] draws a fresh Bernoulli trial.
const READ_ATTEMPTS: u32 = 3;

#[derive(Debug)]
struct Frame {
    id: PageId,
    page: Page,
    dirty: bool,
    prev: usize,
    next: usize,
}

/// One independently locked slice of the frame table: a bounded LRU over the
/// pages that hash to this shard.
#[derive(Debug)]
struct Shard {
    capacity: usize,
    frames: Vec<Frame>,
    map: HashMap<PageId, usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
}

impl Shard {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            frames: Vec::new(),
            map: HashMap::new(),
            head: NIL,
            tail: NIL,
        }
    }

    fn touch(&mut self, idx: usize) {
        if self.head == idx {
            return;
        }
        self.unlink(idx);
        self.push_front(idx);
    }

    fn unlink(&mut self, idx: usize) {
        let (p, n) = (self.frames[idx].prev, self.frames[idx].next);
        if p != NIL {
            self.frames[p].next = n;
        } else {
            self.head = n;
        }
        if n != NIL {
            self.frames[n].prev = p;
        } else {
            self.tail = p;
        }
        self.frames[idx].prev = NIL;
        self.frames[idx].next = NIL;
    }

    fn push_front(&mut self, idx: usize) {
        self.frames[idx].prev = NIL;
        self.frames[idx].next = self.head;
        if self.head != NIL {
            self.frames[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Detaches the (already unlinked) frame at `idx` from the table and
    /// returns it. Uses swap-remove to keep the frame vector dense, then
    /// repairs the map entry and list pointers of the frame that moved
    /// into `idx`. Nothing in the list can still point at `idx` itself —
    /// the caller unlinked it first.
    fn detach(&mut self, idx: usize) -> Frame {
        let frame = self.frames.swap_remove(idx);
        self.map.remove(&frame.id);
        if idx < self.frames.len() {
            let moved_id = self.frames[idx].id;
            match self.map.get_mut(&moved_id) {
                Some(slot) => *slot = idx,
                // Map and frame vector are updated together under the
                // shard lock, so a cached frame is always mapped.
                None => debug_assert!(false, "LRU map out of sync with frame table"),
            }
            let (p, n) = (self.frames[idx].prev, self.frames[idx].next);
            if p != NIL {
                self.frames[p].next = idx;
            } else {
                self.head = idx;
            }
            if n != NIL {
                self.frames[n].prev = idx;
            } else {
                self.tail = idx;
            }
        }
        frame
    }

    /// Unlinks and drops any cached frame for `id` without writing it
    /// back — the freed/corrupted page's cached copy is meaningless.
    fn discard(&mut self, id: PageId) {
        if let Some(&idx) = self.map.get(&id) {
            self.unlink(idx);
            self.detach(idx);
        }
    }

    /// Inserts a frame, evicting the LRU victim first when full. A dirty
    /// victim is written back to the store (uncounted — caching artefact).
    fn insert_frame(
        &mut self,
        id: PageId,
        page: Page,
        dirty: bool,
        store: &RwLock<Box<dyn PageStore>>,
    ) -> Result<(), StorageError> {
        debug_assert!(self.capacity > 0);
        if self.map.len() >= self.capacity {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL, "evict on empty shard");
            self.unlink(victim);
            self.remove_frame(victim, store)?;
        }
        let idx = self.frames.len();
        self.frames.push(Frame {
            id,
            page,
            dirty,
            prev: NIL,
            next: NIL,
        });
        self.map.insert(id, idx);
        self.push_front(idx);
        Ok(())
    }

    /// Removes the frame at `idx` (which must already be unlinked from the
    /// LRU list), writing it back if dirty. The frame is dropped even when
    /// the write-back fails — the error is reported, but the cache stays
    /// consistent.
    fn remove_frame(
        &mut self,
        idx: usize,
        store: &RwLock<Box<dyn PageStore>>,
    ) -> Result<(), StorageError> {
        let frame = self.detach(idx);
        if frame.dirty {
            store
                .write()
                .map_err(|_| StorageError::LockPoisoned)?
                .write_uncounted(frame.id, frame.page)?;
        }
        Ok(())
    }

    fn flush(&mut self, store: &RwLock<Box<dyn PageStore>>) -> Result<(), StorageError> {
        let mut store = store.write().map_err(|_| StorageError::LockPoisoned)?;
        for f in &mut self.frames {
            if f.dirty {
                store.write_uncounted(f.id, f.page.clone())?;
                f.dirty = false;
            }
        }
        Ok(())
    }

    fn clear(&mut self) {
        self.frames.clear();
        self.map.clear();
        self.head = NIL;
        self.tail = NIL;
    }
}

/// A sharded LRU page cache with write-back semantics over a [`PageStore`],
/// safe for concurrent readers.
///
/// ```
/// use tsss_storage::{BufferPool, Page, PageFile};
/// let mut file = PageFile::new(64).unwrap();
/// let id = file.allocate().unwrap();
/// let pool = BufferPool::new(file, 4);
/// let mut page = Page::zeroed(64);
/// page.put_u64(0, 42);
/// pool.write(id, page).unwrap();
/// assert_eq!(pool.read(id).unwrap().get_u64(0), 42);
/// assert_eq!(pool.stats().hits(), 1); // served from the cached frame
/// ```
#[derive(Debug)]
pub struct BufferPool {
    store: RwLock<Box<dyn PageStore>>,
    capacity: usize,
    page_size: usize,
    shards: Vec<Mutex<Shard>>,
    stats: Arc<AccessStats>,
}

impl BufferPool {
    /// Wraps `file` in a pool holding at most `capacity` frames.
    ///
    /// `capacity = 0` disables caching entirely (the paper's measurement
    /// regime): reads and writes go straight to the store and every read is
    /// a miss.
    pub fn new(file: PageFile, capacity: usize) -> Self {
        Self::from_store(Box::new(file), capacity)
    }

    /// Wraps an arbitrary [`PageStore`] (e.g. a [`crate::FaultyStore`]) in
    /// a pool holding at most `capacity` frames.
    pub fn from_store(store: Box<dyn PageStore>, capacity: usize) -> Self {
        let stats = store.stats();
        let page_size = store.page_size();
        let n_shards = capacity.clamp(0, MAX_SHARDS);
        let shards = (0..n_shards)
            .map(|i| {
                // Distribute capacity as evenly as possible; every shard gets
                // at least one frame.
                let cap = capacity / n_shards + usize::from(i < capacity % n_shards);
                Mutex::new(Shard::new(cap))
            })
            .collect();
        Self {
            store: RwLock::new(store),
            capacity,
            page_size,
            shards,
            stats,
        }
    }

    /// Replaces the backing store with `wrap(old_store)` — the hook chaos
    /// tests use to slide a [`crate::FaultyStore`] underneath a live tree.
    /// Cached frames are dropped (without write-back) so every subsequent
    /// access goes through the new store. Poisoned locks are recovered
    /// rather than reported: every piece of the protected state is
    /// discarded or replaced here anyway.
    pub fn wrap_store(&mut self, wrap: impl FnOnce(Box<dyn PageStore>) -> Box<dyn PageStore>) {
        for shard in &mut self.shards {
            shard
                .get_mut()
                .unwrap_or_else(PoisonError::into_inner)
                .clear();
        }
        let slot = self.store.get_mut().unwrap_or_else(PoisonError::into_inner);
        // Park an inert placeholder while `wrap` consumes the real store.
        let old = std::mem::replace(slot, Box::new(NullStore) as Box<dyn PageStore>);
        *slot = wrap(old);
    }

    /// Frame capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of frames currently cached. Tolerates poisoned shards (the
    /// count is advisory; reading a length cannot observe a torn update).
    pub fn cached(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).map.len())
            .sum()
    }

    /// Shared access counters (same object the underlying store reports to).
    pub fn stats(&self) -> Arc<AccessStats> {
        Arc::clone(&self.stats)
    }

    /// Allocates a fresh page in the backing store.
    ///
    /// # Errors
    /// Propagates the store's typed errors.
    pub fn allocate(&mut self) -> Result<PageId, StorageError> {
        self.store
            .get_mut()
            .map_err(|_| StorageError::LockPoisoned)?
            .allocate()
    }

    /// Frees a page, dropping any cached frame for it (dirty or not).
    ///
    /// # Errors
    /// Propagates the store's typed errors (double free, bad ids).
    pub fn deallocate(&mut self, id: PageId) -> Result<(), StorageError> {
        if !self.shards.is_empty() {
            // Drop without write-back: the page is being freed.
            self.shard(id)
                .lock()
                .map_err(|_| StorageError::LockPoisoned)?
                .discard(id);
        }
        self.store
            .get_mut()
            .map_err(|_| StorageError::LockPoisoned)?
            .deallocate(id)
    }

    /// Page size of the backing store.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Physical extent (pages ever allocated) of the backing store.
    /// Tolerates a poisoned store lock — the extent is a monotone counter
    /// the store updates atomically with respect to this lock.
    pub fn extent(&self) -> usize {
        self.store
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .extent()
    }

    fn shard(&self, id: PageId) -> &Mutex<Shard> {
        // analyze::allow(cast): u32 page id → usize is lossless on every supported (≥32-bit) target, and the modulo bounds the index.
        &self.shards[id.0 as usize % self.shards.len()]
    }

    /// Issues a physical read, re-issuing it up to [`READ_ATTEMPTS`] times
    /// while the failure is transient ([`StorageError::is_transient`]).
    /// Each re-issue is recorded as a retry; permanent errors propagate
    /// immediately. The happy path costs nothing extra: the first success
    /// returns without touching the retry counter.
    fn read_with_retry(
        store: &dyn PageStore,
        stats: &AccessStats,
        id: PageId,
    ) -> Result<Page, StorageError> {
        let mut attempt = 1;
        loop {
            match store.read_uncounted(id) {
                Err(e) if e.is_transient() && attempt < READ_ATTEMPTS => {
                    stats.record_retry();
                    attempt += 1;
                }
                other => return other,
            }
        }
    }

    /// Reads a page through the cache. Counts one logical read, plus a hit
    /// or a miss. Transient store failures are retried a bounded number of
    /// times (recorded in [`AccessStats::retries`]) before surfacing. Safe
    /// to call from many threads at once.
    ///
    /// # Errors
    /// Propagates the store's typed errors — notably
    /// [`StorageError::Corrupt`] on a checksum mismatch.
    pub fn read(&self, id: PageId) -> Result<Page, StorageError> {
        self.stats.record_read();
        if self.capacity == 0 {
            self.stats.record_miss();
            let store = self.store.read().map_err(|_| StorageError::LockPoisoned)?;
            return Self::read_with_retry(store.as_ref(), &self.stats, id);
        }
        let mut shard = self
            .shard(id)
            .lock()
            .map_err(|_| StorageError::LockPoisoned)?;
        if let Some(&idx) = shard.map.get(&id) {
            self.stats.record_hit();
            shard.touch(idx);
            return Ok(shard.frames[idx].page.clone());
        }
        self.stats.record_miss();
        let page = {
            let store = self.store.read().map_err(|_| StorageError::LockPoisoned)?;
            Self::read_with_retry(store.as_ref(), &self.stats, id)?
        };
        shard.insert_frame(id, page.clone(), false, &self.store)?;
        Ok(page)
    }

    /// Writes a page through the cache. Counts one logical write. Safe to
    /// call concurrently with reads (writers of the *same* page serialise on
    /// its shard).
    ///
    /// # Errors
    /// Propagates the store's typed errors; rejects wrong-size pages.
    pub fn write(&self, id: PageId, page: Page) -> Result<(), StorageError> {
        if page.size() != self.page_size {
            return Err(StorageError::PageSizeMismatch {
                expected: self.page_size,
                got: page.size(),
            });
        }
        self.stats.record_write();
        if self.capacity == 0 {
            return self
                .store
                .write()
                .map_err(|_| StorageError::LockPoisoned)?
                .write_uncounted(id, page);
        }
        let mut shard = self
            .shard(id)
            .lock()
            .map_err(|_| StorageError::LockPoisoned)?;
        if let Some(&idx) = shard.map.get(&id) {
            shard.frames[idx].page = page;
            shard.frames[idx].dirty = true;
            shard.touch(idx);
            return Ok(());
        }
        shard.insert_frame(id, page, true, &self.store)
    }

    /// Writes every dirty frame back to the store (frames stay cached,
    /// now clean).
    ///
    /// # Errors
    /// Propagates write-back failures.
    pub fn flush(&self) -> Result<(), StorageError> {
        for shard in &self.shards {
            shard
                .lock()
                .map_err(|_| StorageError::LockPoisoned)?
                .flush(&self.store)?;
        }
        Ok(())
    }

    /// Flushes and returns the backing store.
    ///
    /// # Errors
    /// Propagates write-back failures (the store is lost in that case —
    /// callers needing the bytes regardless should `flush` first and
    /// inspect the error).
    pub fn into_store(self) -> Result<Box<dyn PageStore>, StorageError> {
        self.flush()?;
        self.store
            .into_inner()
            .map_err(|_| StorageError::LockPoisoned)
    }

    /// A copy-on-write twin of the pool: dirty frames are flushed, then
    /// the twin wraps a [`PageStore::fork`] of the backing store with the
    /// same capacity, an empty cache and fresh [`AccessStats`] — what
    /// persisting and reloading the store would give, without copying a
    /// page.
    ///
    /// # Errors
    /// Propagates flush failures and lock poisoning.
    pub fn fork(&self) -> Result<BufferPool, StorageError> {
        self.flush()?;
        let store = self.store.read().map_err(|_| StorageError::LockPoisoned)?;
        Ok(Self::from_store(store.fork(), self.capacity))
    }

    /// Runs `f` against the backing store's durable contents (dirty frames
    /// are flushed first so the store is current).
    ///
    /// # Errors
    /// Propagates flush failures.
    pub fn with_store<R>(&self, f: impl FnOnce(&dyn PageStore) -> R) -> Result<R, StorageError> {
        self.flush()?;
        let store = self.store.read().map_err(|_| StorageError::LockPoisoned)?;
        Ok(f(store.as_ref()))
    }

    /// Damages the stored bytes of `id` via `f` without refreshing its
    /// checksum (see [`PageStore::corrupt_raw`]); any cached frame for the
    /// page is dropped so the damage is visible to the next read. Chaos
    /// test hook.
    ///
    /// # Errors
    /// Propagates the store's typed errors on bad ids.
    pub fn corrupt_page(
        &mut self,
        id: PageId,
        f: &mut dyn FnMut(&mut [u8]),
    ) -> Result<(), StorageError> {
        if !self.shards.is_empty() {
            // Drop without write-back: the cached copy must not mask the
            // damage planted in the store.
            self.shard(id)
                .lock()
                .map_err(|_| StorageError::LockPoisoned)?
                .discard(id);
        }
        self.store
            .get_mut()
            .map_err(|_| StorageError::LockPoisoned)?
            .corrupt_raw(id, f)
    }

    /// Drops every cached frame after flushing — subsequent reads are cold.
    /// Used between benchmark queries to reproduce the paper's per-query
    /// accounting.
    ///
    /// # Errors
    /// Propagates flush failures.
    pub fn clear_cache(&self) -> Result<(), StorageError> {
        for shard in &self.shards {
            let mut shard = shard.lock().map_err(|_| StorageError::LockPoisoned)?;
            shard.flush(&self.store)?;
            shard.clear();
        }
        Ok(())
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
    fn live_pages(&self) -> usize {
        0
    }
    fn stats(&self) -> Arc<AccessStats> {
        Arc::new(AccessStats::new())
    }
    fn allocate(&mut self) -> Result<PageId, StorageError> {
        Err(StorageError::Full)
    }
    fn deallocate(&mut self, id: PageId) -> Result<(), StorageError> {
        Err(StorageError::OutOfRange {
            page: id,
            extent: 0,
        })
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
    fn read_uncounted(&self, id: PageId) -> Result<Page, StorageError> {
        Err(StorageError::OutOfRange {
            page: id,
            extent: 0,
        })
    }
    fn write_uncounted(&mut self, id: PageId, _page: Page) -> Result<(), StorageError> {
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

    fn pool(cap: usize) -> (BufferPool, Vec<PageId>) {
        let mut file = PageFile::new(64).unwrap();
        let ids: Vec<PageId> = (0..8).map(|_| file.allocate().unwrap()).collect();
        // Seed each page with a recognisable value.
        for (i, &id) in ids.iter().enumerate() {
            let mut p = Page::zeroed(64);
            p.put_u64(0, i as u64 + 100);
            file.write_page(id, p).unwrap();
        }
        file.stats().reset();
        (BufferPool::new(file, cap), ids)
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
        fn live_pages(&self) -> usize {
            self.inner.live_pages()
        }
        fn stats(&self) -> Arc<AccessStats> {
            self.inner.stats()
        }
        fn allocate(&mut self) -> Result<PageId, StorageError> {
            self.inner.allocate()
        }
        fn deallocate(&mut self, id: PageId) -> Result<(), StorageError> {
            self.inner.deallocate(id)
        }
        fn read(&self, id: PageId) -> Result<Page, StorageError> {
            self.inner.read(id)
        }
        fn write(&mut self, id: PageId, page: Page) -> Result<(), StorageError> {
            self.inner.write(id, page)
        }
        fn read_uncounted(&self, id: PageId) -> Result<Page, StorageError> {
            use std::sync::atomic::Ordering;
            let left = self.fail_reads.load(Ordering::Relaxed);
            if left > 0 {
                self.fail_reads.store(left - 1, Ordering::Relaxed);
                return Err(StorageError::ReadFailed { page: id });
            }
            self.inner.read_uncounted(id)
        }
        fn write_uncounted(&mut self, id: PageId, page: Page) -> Result<(), StorageError> {
            self.inner.write_uncounted(id, page)
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

    fn flaky_pool(cap: usize, fail_reads: u32) -> (BufferPool, Vec<PageId>) {
        let (mut pool, ids) = pool(cap);
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
        let (pool, ids) = flaky_pool(0, 2);
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
        let (pool, ids) = flaky_pool(4, 10);
        assert_eq!(
            pool.read(ids[0]),
            Err(StorageError::ReadFailed { page: ids[0] })
        );
        assert_eq!(pool.stats().retries(), u64::from(READ_ATTEMPTS - 1));
    }

    #[test]
    fn permanent_errors_are_never_retried() {
        let (mut pool, ids) = pool(4);
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
    fn unbuffered_pool_counts_every_read_as_miss() {
        let (pool, ids) = pool(0);
        for _ in 0..3 {
            let p = pool.read(ids[0]).unwrap();
            assert_eq!(p.get_u64(0), 100);
        }
        let s = pool.stats();
        assert_eq!(s.reads(), 3);
        assert_eq!(s.misses(), 3);
        assert_eq!(s.hits(), 0);
    }

    #[test]
    fn repeated_reads_hit_the_cache() {
        let (pool, ids) = pool(4);
        let _ = pool.read(ids[0]).unwrap();
        let _ = pool.read(ids[0]).unwrap();
        let _ = pool.read(ids[0]).unwrap();
        let s = pool.stats();
        assert_eq!(s.reads(), 3);
        assert_eq!(s.misses(), 1);
        assert_eq!(s.hits(), 2);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // Capacity 1 → a single shard with one frame, so LRU behaviour is
        // directly observable regardless of page→shard hashing.
        let (pool, ids) = pool(1);
        let _ = pool.read(ids[0]).unwrap(); // miss
        let _ = pool.read(ids[0]).unwrap(); // hit
        let _ = pool.read(ids[1]).unwrap(); // miss, evicts 0
        let _ = pool.read(ids[0]).unwrap(); // miss again
        let s = pool.stats();
        assert_eq!(s.misses(), 3);
        assert_eq!(s.hits(), 1);
    }

    #[test]
    fn writes_are_cached_and_flushed_back() {
        let (pool, ids) = pool(2);
        let mut p = Page::zeroed(64);
        p.put_u64(0, 777);
        pool.write(ids[3], p).unwrap();
        // Read through the pool sees the new value even before flush.
        assert_eq!(pool.read(ids[3]).unwrap().get_u64(0), 777);
        let store = pool.into_store().unwrap();
        assert_eq!(store.read_uncounted(ids[3]).unwrap().get_u64(0), 777);
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let (pool, ids) = pool(1);
        let mut p = Page::zeroed(64);
        p.put_u64(0, 555);
        pool.write(ids[0], p).unwrap(); // dirty frame for 0
        let _ = pool.read(ids[1]).unwrap(); // evicts 0, must write it back
        assert_eq!(pool.read(ids[0]).unwrap().get_u64(0), 555);
    }

    #[test]
    fn unbuffered_write_goes_straight_through() {
        let (pool, ids) = pool(0);
        let mut p = Page::zeroed(64);
        p.put_u64(0, 42);
        pool.write(ids[5], p).unwrap();
        assert_eq!(pool.read(ids[5]).unwrap().get_u64(0), 42);
        assert_eq!(pool.cached(), 0);
    }

    #[test]
    fn clear_cache_makes_reads_cold_again() {
        let (pool, ids) = pool(4);
        let _ = pool.read(ids[0]).unwrap();
        let _ = pool.read(ids[0]).unwrap();
        pool.clear_cache().unwrap();
        let _ = pool.read(ids[0]).unwrap();
        let s = pool.stats();
        assert_eq!(s.misses(), 2); // one before clear, one after
        assert_eq!(s.hits(), 1);
    }

    #[test]
    fn deallocate_drops_cached_frame() {
        let (mut pool, ids) = pool(4);
        let _ = pool.read(ids[0]).unwrap();
        assert_eq!(pool.cached(), 1);
        pool.deallocate(ids[0]).unwrap();
        assert_eq!(pool.cached(), 0);
    }

    #[test]
    fn bad_ids_and_sizes_are_typed_errors() {
        let (mut pool, _) = pool(0);
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
        assert!(matches!(
            pool.deallocate(PageId::INVALID).unwrap_err(),
            StorageError::InvalidPageId
        ));
    }

    #[test]
    fn corrupt_page_is_detected_through_the_cache() {
        for cap in [0usize, 4] {
            let (mut pool, ids) = pool(cap);
            let _ = pool.read(ids[0]).unwrap(); // maybe cache the frame
            pool.corrupt_page(ids[0], &mut |bytes| bytes[0] ^= 0xFF)
                .unwrap();
            assert!(
                matches!(pool.read(ids[0]), Err(StorageError::Corrupt { .. })),
                "capacity {cap}: corruption must not be masked by the cache"
            );
        }
    }

    #[test]
    fn wrap_store_slides_a_decorator_under_a_live_pool() {
        use crate::fault::{FaultConfig, FaultyStore};
        let (mut pool, ids) = pool(4);
        let _ = pool.read(ids[0]).unwrap();
        pool.wrap_store(|inner| {
            Box::new(FaultyStore::new(inner, FaultConfig::read_errors(1, 1.0)))
        });
        assert!(
            matches!(pool.read(ids[0]), Err(StorageError::ReadFailed { .. })),
            "previously cached page must now go through the faulty store"
        );
    }

    #[test]
    fn with_store_sees_flushed_contents() {
        let (pool, ids) = pool(4);
        let mut p = Page::zeroed(64);
        p.put_u64(0, 909);
        pool.write(ids[2], p).unwrap();
        let v = pool
            .with_store(|s| s.read_uncounted(ids[2]).unwrap().get_u64(0))
            .unwrap();
        assert_eq!(v, 909);
    }

    #[test]
    fn heavy_mixed_workload_stays_consistent() {
        // Deterministic pseudo-random access pattern; validates LRU's
        // swap-remove bookkeeping under churn by checking every read value.
        let (pool, ids) = pool(3);
        let mut x = 12345u64;
        for step in 0..2000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let i = (x >> 33) as usize % ids.len();
            if step % 5 == 0 {
                let mut p = Page::zeroed(64);
                p.put_u64(0, 1000 + step);
                p.put_u64(8, i as u64);
                pool.write(ids[i], p).unwrap();
            } else {
                let p = pool.read(ids[i]).unwrap();
                let v = p.get_u64(0);
                // Either the seed value or some later write targeted at i.
                if v >= 1000 {
                    assert_eq!(p.get_u64(8), i as u64, "frame mix-up at {step}");
                } else {
                    assert_eq!(v, 100 + i as u64);
                }
            }
            assert!(pool.cached() <= 3);
        }
    }

    #[test]
    fn concurrent_reads_agree_with_the_file() {
        for capacity in [0usize, 1, 4, 8] {
            let (pool, ids) = pool(capacity);
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
            let s = pool.stats();
            assert_eq!(s.reads(), 2000, "capacity {capacity}");
            assert_eq!(s.hits() + s.misses(), 2000, "capacity {capacity}");
        }
    }
}
