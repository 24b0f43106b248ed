//! Self-healing machinery: the circuit breaker, page quarantine, and the
//! reports surfaced by [`crate::SearchEngine::repair`] and
//! [`crate::SearchEngine::health`].
//!
//! PR 2 made corruption *detected* and *degraded around*; this module makes
//! it *recoverable*. The state machine is the classic three-state circuit
//! breaker, driven entirely by deterministic probe outcomes (no wall clock):
//!
//! ```text
//!            K consecutive corrupt probes
//!   Closed ────────────────────────────────► Open
//!     ▲                                        │ H seqscan answers served
//!     │ successful probe, or repair            ▼
//!     └──────────────────────────────────── HalfOpen
//!                    (a corrupt half-open probe re-opens)
//! ```
//!
//! While **Closed**, every `SeqScanFallback` query tries the index; a
//! corrupt probe degrades that one query and counts a strike. After
//! `TRIP_THRESHOLD` consecutive strikes the breaker
//! **Opens**: queries skip the doomed probe and go straight to the
//! sequential scan (still exact, still flagged degraded). After
//! `HALF_OPEN_AFTER` scans the breaker moves to
//! **HalfOpen** and lets exactly one query probe the index again — success
//! closes the breaker, corruption re-opens it. A successful
//! [`crate::SearchEngine::repair`] closes it immediately.
//!
//! All state is atomics: the engine's read path is `&self` and runs under
//! [`crate::SearchEngine::execute_batch`]'s thread fan-out. Counts are
//! monotone or reset-on-transition; races can at worst delay a transition
//! by one query, never corrupt the state machine.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};

/// The circuit breaker's position (see the module docs for the machine).
/// Variants are declared in severity order, so `max` over several
/// breakers is the most degraded one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum BreakerState {
    /// Healthy: queries probe the index.
    #[default]
    Closed,
    /// Probation: the next query probes the index once to test recovery.
    HalfOpen,
    /// Tripped: `SeqScanFallback` queries skip the index entirely.
    Open,
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BreakerState::Closed => write!(f, "closed"),
            BreakerState::Open => write!(f, "open"),
            BreakerState::HalfOpen => write!(f, "half-open"),
        }
    }
}

const STATE_CLOSED: u8 = 0;
const STATE_OPEN: u8 = 1;
const STATE_HALF_OPEN: u8 = 2;

/// The engine-owned breaker: all-atomic so the `&self` read path can drive
/// it from any number of threads.
#[derive(Debug, Default)]
pub(crate) struct CircuitBreaker {
    state: AtomicU8,
    /// Consecutive corrupt probes while Closed.
    strikes: AtomicU32,
    /// Seqscan answers served while Open (drives the half-open probe).
    open_scans: AtomicU32,
    /// Total queries answered by the sequential scan because of corruption
    /// or an open breaker — the "seqscan counter" of the health report.
    seqscan_served: AtomicU64,
    /// Times the breaker tripped open over the engine's lifetime.
    trips: AtomicU64,
}

impl CircuitBreaker {
    /// Consecutive corrupt probes that trip the breaker open.
    pub(crate) const TRIP_THRESHOLD: u32 = 3;
    /// Seqscan answers served while open before a half-open probe is
    /// allowed.
    pub(crate) const HALF_OPEN_AFTER: u32 = 4;

    pub(crate) fn state(&self) -> BreakerState {
        // analyze::allow(atomics-mixed): the Acquire loads of `state` deliberately pair with the Release stores in trip()/reset()/record_* — the state byte is a published flag, and mixing Acquire/Release on it is the point.
        match self.state.load(Ordering::Acquire) {
            STATE_OPEN => BreakerState::Open,
            STATE_HALF_OPEN => BreakerState::HalfOpen,
            _ => BreakerState::Closed,
        }
    }

    /// Whether the next query should attempt the index probe. `false` only
    /// while Open; a HalfOpen breaker admits the probe (that is the test).
    pub(crate) fn allows_probe(&self) -> bool {
        // Acquire pairs with the Release stores that publish transitions.
        self.state.load(Ordering::Acquire) != STATE_OPEN
    }

    /// Records a successful (non-corrupt) index probe: clears the strike
    /// count and closes a half-open breaker.
    pub(crate) fn record_probe_success(&self) {
        // Relaxed: strike counting tolerates reorder — a racing strike at
        // worst delays a trip by one query (see the module docs).
        self.strikes.store(0, Ordering::Relaxed);
        // Acquire/Release pair on the state byte publishes the transition.
        if self.state.load(Ordering::Acquire) == STATE_HALF_OPEN {
            self.state.store(STATE_CLOSED, Ordering::Release); // see above
        }
    }

    /// Records a corrupt index probe: one strike while Closed (tripping
    /// open at the threshold), or an immediate re-open from HalfOpen.
    pub(crate) fn record_probe_corrupt(&self) {
        // Acquire pairs with the Release stores that publish transitions.
        match self.state.load(Ordering::Acquire) {
            STATE_HALF_OPEN => self.trip(),
            STATE_CLOSED
                // Relaxed: fetch_add keeps the count exact; ordering
                // against the state byte is not needed (worst case a trip
                // is delayed by one query).
                if self.strikes.fetch_add(1, Ordering::Relaxed) + 1 >= Self::TRIP_THRESHOLD =>
            {
                self.trip()
            }
            _ => {}
        }
    }

    fn trip(&self) {
        // Release publishes the Open state; the counter resets below are
        // Relaxed because they only gate the *next* transition and a
        // stale read merely delays it by one query.
        self.state.store(STATE_OPEN, Ordering::Release);
        self.open_scans.store(0, Ordering::Relaxed); // see above: reset gate
        self.strikes.store(0, Ordering::Relaxed); // see above: reset gate
        self.trips.fetch_add(1, Ordering::Relaxed); // monotone lifetime total
    }

    /// Records a query answered by the sequential scan because of
    /// corruption or an open breaker. While Open, enough served scans move
    /// the breaker to HalfOpen so the next query re-tests the index.
    pub(crate) fn record_seqscan_served(&self) {
        // Relaxed: monotone lifetime counter, ordered by nothing.
        self.seqscan_served.fetch_add(1, Ordering::Relaxed);
        // Acquire load pairs with the Release transition stores; the scan
        // count itself is Relaxed (an off-by-one race only shifts when the
        // half-open probe happens).
        if self.state.load(Ordering::Acquire) == STATE_OPEN
            // Relaxed: see the comment above the condition.
            && self.open_scans.fetch_add(1, Ordering::Relaxed) + 1 >= Self::HALF_OPEN_AFTER
        {
            // Release publishes the HalfOpen transition.
            self.state.store(STATE_HALF_OPEN, Ordering::Release);
        }
    }

    /// Closes the breaker and clears transient counts (a successful repair
    /// proved the index healthy). Lifetime totals (`trips`,
    /// `seqscan_served`) are preserved.
    pub(crate) fn reset(&self) {
        // Release publishes the repair; Relaxed resets only gate future
        // transitions (a stale read delays them by at most one query).
        self.state.store(STATE_CLOSED, Ordering::Release);
        self.strikes.store(0, Ordering::Relaxed); // see above
        self.open_scans.store(0, Ordering::Relaxed); // see above
    }

    pub(crate) fn seqscan_served(&self) -> u64 {
        // Relaxed: monotone counter read for reporting only.
        self.seqscan_served.load(Ordering::Relaxed)
    }

    pub(crate) fn trips(&self) -> u64 {
        // Relaxed: monotone counter read for reporting only.
        self.trips.load(Ordering::Relaxed)
    }

    pub(crate) fn strikes(&self) -> u32 {
        // Relaxed: advisory health-report read.
        self.strikes.load(Ordering::Relaxed)
    }
}

/// Point-in-time health of an engine, as reported by
/// [`crate::SearchEngine::health`] and the `tsss health` subcommand.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HealthReport {
    /// Current breaker position.
    pub breaker: BreakerState,
    /// Consecutive corrupt probes recorded while Closed.
    pub strikes: u32,
    /// Queries answered by the sequential scan because of corruption or an
    /// open breaker, over the engine's lifetime.
    pub seqscan_served: u64,
    /// Times the breaker tripped open, over the engine's lifetime.
    pub breaker_trips: u64,
    /// Storage pages implicated in corrupt probes and awaiting repair.
    pub quarantined_pages: Vec<u32>,
    /// Transient-fault read retries on the index file.
    pub index_retries: u64,
    /// Transient-fault read retries on the data file.
    pub data_retries: u64,
    /// True when a failed append left stored values whose windows never
    /// reached the index — queries silently miss that tail until
    /// [`crate::SearchEngine::repair`] re-indexes it from the data file.
    pub append_tail_unindexed: bool,
    /// Acknowledged appends sitting in the write-ahead log and not yet
    /// folded into a full engine save — what a crash right now would
    /// replay on reopen. Zero for an engine without a log.
    pub wal_tail_records: u64,
    /// Log records replayed when this engine was opened (a non-zero value
    /// means the last shutdown was a crash and recovery ran).
    pub wal_replayed: u64,
}

impl HealthReport {
    /// Whether running [`crate::SearchEngine::repair`] would improve this
    /// engine: the breaker is not closed, pages are quarantined, or an
    /// append left an unindexed tail.
    pub fn repair_recommended(&self) -> bool {
        self.breaker != BreakerState::Closed
            || !self.quarantined_pages.is_empty()
            || self.append_tail_unindexed
    }
}

impl std::fmt::Display for HealthReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "breaker:          {}", self.breaker)?;
        writeln!(f, "strikes:          {}", self.strikes)?;
        writeln!(f, "seqscan served:   {}", self.seqscan_served)?;
        writeln!(f, "breaker trips:    {}", self.breaker_trips)?;
        writeln!(
            f,
            "quarantined:      {} pages",
            self.quarantined_pages.len()
        )?;
        writeln!(f, "index retries:    {}", self.index_retries)?;
        writeln!(f, "data retries:     {}", self.data_retries)?;
        writeln!(
            f,
            "unindexed tail:   {}",
            if self.append_tail_unindexed {
                "yes (repair needed)"
            } else {
                "no"
            }
        )?;
        writeln!(f, "wal tail:         {} records", self.wal_tail_records)?;
        writeln!(f, "wal replayed:     {}", self.wal_replayed)?;
        write!(
            f,
            "repair:           {}",
            if self.repair_recommended() {
                "recommended"
            } else {
                "not needed"
            }
        )
    }
}

/// What [`crate::SearchEngine::repair`] did, for logging and the `tsss
/// repair` subcommand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairReport {
    /// Windows re-indexed from the authoritative data file.
    pub windows_reindexed: usize,
    /// Quarantined page ids cleared by the rebuild.
    pub quarantine_cleared: Vec<u32>,
}

impl std::fmt::Display for RepairReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "reindexed {} windows, cleared {} quarantined pages",
            self.windows_reindexed,
            self.quarantine_cleared.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breaker_starts_closed_and_trips_after_k_strikes() {
        let b = CircuitBreaker::default();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allows_probe());
        for _ in 0..CircuitBreaker::TRIP_THRESHOLD - 1 {
            b.record_probe_corrupt();
            assert_eq!(b.state(), BreakerState::Closed);
        }
        b.record_probe_corrupt();
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allows_probe());
        assert_eq!(b.trips(), 1);
    }

    #[test]
    fn the_worst_of_mixed_breakers_is_the_most_severe() {
        use BreakerState::{Closed, HalfOpen, Open};
        assert_eq!([Closed, HalfOpen, Closed].into_iter().max(), Some(HalfOpen));
        assert_eq!([HalfOpen, Open, Closed].into_iter().max(), Some(Open));
    }

    #[test]
    fn success_clears_strikes_so_intermittent_faults_never_trip() {
        let b = CircuitBreaker::default();
        for _ in 0..10 {
            b.record_probe_corrupt();
            b.record_probe_corrupt();
            b.record_probe_success(); // never three in a row
        }
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.trips(), 0);
    }

    #[test]
    fn open_breaker_half_opens_after_enough_scans_then_closes_on_success() {
        let b = CircuitBreaker::default();
        for _ in 0..CircuitBreaker::TRIP_THRESHOLD {
            b.record_probe_corrupt();
        }
        assert_eq!(b.state(), BreakerState::Open);
        for _ in 0..CircuitBreaker::HALF_OPEN_AFTER {
            b.record_seqscan_served();
        }
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(b.allows_probe(), "half-open admits one test probe");
        b.record_probe_success();
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn corrupt_half_open_probe_reopens() {
        let b = CircuitBreaker::default();
        for _ in 0..CircuitBreaker::TRIP_THRESHOLD {
            b.record_probe_corrupt();
        }
        for _ in 0..CircuitBreaker::HALF_OPEN_AFTER {
            b.record_seqscan_served();
        }
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record_probe_corrupt();
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 2);
    }

    #[test]
    fn reset_closes_but_preserves_lifetime_totals() {
        let b = CircuitBreaker::default();
        for _ in 0..CircuitBreaker::TRIP_THRESHOLD {
            b.record_probe_corrupt();
        }
        b.record_seqscan_served();
        b.reset();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.strikes(), 0);
        assert_eq!(b.trips(), 1);
        assert_eq!(b.seqscan_served(), 1);
    }

    #[test]
    fn breaker_state_displays_are_stable() {
        assert_eq!(BreakerState::Closed.to_string(), "closed");
        assert_eq!(BreakerState::Open.to_string(), "open");
        assert_eq!(BreakerState::HalfOpen.to_string(), "half-open");
    }
}
