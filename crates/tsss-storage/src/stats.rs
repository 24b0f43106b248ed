//! Access counters reported by the benchmark harness.
//!
//! The paper's Figure 5 plots *average number of page accesses per query*.
//! [`AccessStats`] accumulates exactly that: every page the algorithm reads
//! or writes, unbuffered, as the paper counts them — plus the transient-fault
//! retries behind those reads.
//!
//! # Concurrency model
//!
//! The counters are `AtomicU64`s, so any number of threads may record
//! accesses through a shared [`AccessStats`] handle. Global totals stay
//! exact under concurrency (every access is one `fetch_add`).
//!
//! Per-query accounting — the number a single query contributed, which is
//! what Figure 5 actually plots — cannot be recovered from global counters
//! once queries run in parallel (start/end snapshots interleave). Instead a
//! thread opens a [`StatsScope`] around its query: every access the *same
//! thread* records while the scope is open is tallied into the scope as well
//! as into the global counters. Scopes are thread-local, so concurrent
//! queries never see each other's accesses, and the per-query deltas sum to
//! exactly the global increment.

// analyze::allow-file(atomics): every atomic here is an independent monotone event counter (reads/writes/retries, plus the id allocator); Relaxed is sufficient because no counter's value ever gates control flow or publishes other memory — readers only aggregate for reporting.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// A plain-number snapshot of access counters — either a global snapshot or
/// the per-thread delta collected by a [`StatsScope`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AccessCounts {
    /// Logical page reads.
    pub reads: u64,
    /// Logical page writes.
    pub writes: u64,
    /// Transient-fault retries (re-issued physical reads). A retried read is
    /// still *one* logical read, so retries are excluded from
    /// [`AccessCounts::total_accesses`].
    pub retries: u64,
}

impl AccessCounts {
    /// Total logical page accesses (reads + writes) — the Figure 5 metric.
    pub fn total_accesses(&self) -> u64 {
        self.reads + self.writes
    }
}

thread_local! {
    /// Stack of open scopes on this thread: `(stats instance id, tally)`.
    /// Nested scopes each receive the accesses recorded while they are open.
    static SCOPES: RefCell<Vec<(u64, AccessCounts)>> = const { RefCell::new(Vec::new()) };
}

/// Source of unique per-instance ids (so a thread-local scope tallies only
/// the [`AccessStats`] it was opened on, not every instance in the process).
static NEXT_STATS_ID: AtomicU64 = AtomicU64::new(1);

/// Monotonic page-access counters, safe to share across threads.
#[derive(Debug)]
pub struct AccessStats {
    id: u64,
    reads: AtomicU64,
    writes: AtomicU64,
    retries: AtomicU64,
}

impl Default for AccessStats {
    fn default() -> Self {
        Self::new()
    }
}

impl AccessStats {
    /// A fresh, zeroed counter set.
    pub fn new() -> Self {
        Self {
            id: NEXT_STATS_ID.fetch_add(1, Ordering::Relaxed),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            retries: AtomicU64::new(0),
        }
    }

    #[inline]
    fn tally_local(&self, f: impl Fn(&mut AccessCounts)) {
        SCOPES.with(|scopes| {
            let mut scopes = scopes.borrow_mut();
            for (id, counts) in scopes.iter_mut() {
                if *id == self.id {
                    f(counts);
                }
            }
        });
    }

    /// Records one logical page read.
    pub fn record_read(&self) {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.tally_local(|c| c.reads += 1);
    }

    /// Records one logical page write.
    pub fn record_write(&self) {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.tally_local(|c| c.writes += 1);
    }

    /// Records one transient-fault retry: a physical re-read of a page whose
    /// first attempt failed with a transient error. The logical read was
    /// already recorded, so this does not touch the read counter.
    pub fn record_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
        self.tally_local(|c| c.retries += 1);
    }

    /// Logical page reads so far.
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// Logical page writes so far.
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    /// Transient-fault retries so far (see [`AccessStats::record_retry`]).
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Total logical page accesses (reads + writes) — the Figure 5 metric.
    pub fn total_accesses(&self) -> u64 {
        self.reads() + self.writes()
    }

    /// Resets every counter to zero (called between benchmark queries).
    ///
    /// Not linearisable against concurrent recorders — callers reset only
    /// in serial sections (between queries), never mid-batch.
    pub fn reset(&self) {
        self.reads.store(0, Ordering::Relaxed);
        self.writes.store(0, Ordering::Relaxed);
        self.retries.store(0, Ordering::Relaxed);
    }

    /// Opens a per-thread tally scope: accesses this thread records on this
    /// instance while the scope is alive are counted into the scope (and, as
    /// always, into the global counters). The scope must be dropped on the
    /// thread that opened it.
    pub fn local_scope(&self) -> StatsScope<'_> {
        SCOPES.with(|scopes| {
            scopes.borrow_mut().push((self.id, AccessCounts::default()));
        });
        StatsScope { stats: self }
    }
}

/// Guard returned by [`AccessStats::local_scope`]; see there.
#[derive(Debug)]
pub struct StatsScope<'a> {
    stats: &'a AccessStats,
}

impl StatsScope<'_> {
    /// The accesses recorded by this thread on the parent [`AccessStats`]
    /// since the scope opened.
    pub fn counts(&self) -> AccessCounts {
        SCOPES.with(|scopes| {
            let scopes = scopes.borrow();
            scopes
                .iter()
                .rev()
                .find(|(id, _)| *id == self.stats.id)
                .map(|(_, c)| *c)
                // analyze::allow(panic): the guard pushed its frame at construction and only Drop removes it, so the lookup cannot miss while `self` is alive.
                .expect("scope tally present while guard is alive")
        })
    }

    /// Consumes the scope, returning its final tally.
    pub fn finish(self) -> AccessCounts {
        self.counts()
        // Drop pops the frame.
    }
}

impl Drop for StatsScope<'_> {
    fn drop(&mut self) {
        SCOPES.with(|scopes| {
            let mut scopes = scopes.borrow_mut();
            // Scopes are strictly nested per thread, so the most recent frame
            // for this instance is ours.
            let pos = scopes
                .iter()
                .rposition(|(id, _)| *id == self.stats.id)
                // analyze::allow(panic): see `counts` — the frame this guard pushed is still present when Drop runs.
                .expect("scope tally present at drop");
            scopes.remove(pos);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_start_at_zero() {
        let s = AccessStats::new();
        assert_eq!((s.reads(), s.writes(), s.retries()), (0, 0, 0));
        assert_eq!(s.total_accesses(), 0);
    }

    #[test]
    fn record_and_total() {
        let s = AccessStats::new();
        s.record_read();
        s.record_read();
        s.record_write();
        assert_eq!(s.reads(), 2);
        assert_eq!(s.writes(), 1);
        assert_eq!(s.total_accesses(), 3);
    }

    #[test]
    fn reset_clears_everything() {
        let s = AccessStats::new();
        s.record_read();
        s.record_write();
        s.record_retry();
        s.reset();
        assert_eq!((s.reads(), s.writes(), s.retries()), (0, 0, 0));
    }

    #[test]
    fn retries_are_counted_but_not_logical_accesses() {
        let s = AccessStats::new();
        let scope = s.local_scope();
        s.record_read();
        s.record_retry();
        s.record_retry();
        let c = scope.finish();
        assert_eq!(c.retries, 2);
        assert_eq!(c.total_accesses(), 1, "a retried read is one logical read");
        assert_eq!(s.retries(), 2);
        assert_eq!(s.total_accesses(), 1);
        s.reset();
        assert_eq!(s.retries(), 0);
    }

    #[test]
    fn local_scope_tallies_only_its_window() {
        let s = AccessStats::new();
        s.record_read(); // outside any scope
        let scope = s.local_scope();
        s.record_read();
        s.record_write();
        let c = scope.finish();
        assert_eq!(c.reads, 1);
        assert_eq!(c.writes, 1);
        assert_eq!(c.total_accesses(), 2);
        // Globals saw everything.
        assert_eq!(s.reads(), 2);
        assert_eq!(s.total_accesses(), 3);
    }

    #[test]
    fn scopes_are_per_instance() {
        let a = AccessStats::new();
        let b = AccessStats::new();
        let scope_a = a.local_scope();
        a.record_read();
        b.record_read();
        assert_eq!(
            scope_a.finish().reads,
            1,
            "b's read must not leak into a's scope"
        );
    }

    #[test]
    fn nested_scopes_both_tally() {
        let s = AccessStats::new();
        let outer = s.local_scope();
        s.record_read();
        {
            let inner = s.local_scope();
            s.record_read();
            assert_eq!(inner.finish().reads, 1);
        }
        assert_eq!(outer.finish().reads, 2);
    }

    #[test]
    fn scopes_do_not_cross_threads() {
        let s = std::sync::Arc::new(AccessStats::new());
        let scope = s.local_scope();
        let s2 = std::sync::Arc::clone(&s);
        std::thread::scope(|sc| {
            sc.spawn(move || {
                s2.record_read(); // different thread: global only
            });
        });
        assert_eq!(scope.finish().reads, 0);
        assert_eq!(s.reads(), 1);
    }

    #[test]
    fn concurrent_recording_is_exact() {
        let s = std::sync::Arc::new(AccessStats::new());
        std::thread::scope(|sc| {
            for _ in 0..8 {
                let s = std::sync::Arc::clone(&s);
                sc.spawn(move || {
                    let scope = s.local_scope();
                    for _ in 0..1000 {
                        s.record_read();
                    }
                    assert_eq!(scope.finish().reads, 1000);
                });
            }
        });
        assert_eq!(s.reads(), 8000);
    }
}
