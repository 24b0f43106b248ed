//! Server-wide counters, aggregated across workers and served at `/metrics`.
//!
//! Counters are monotone event tallies — the classic case where relaxed
//! atomics are correct: each increment is independent, nothing orders
//! against them, and `/metrics` only needs an eventually-consistent view.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::json::Json;

/// Cumulative counters since server start.
#[derive(Default)]
pub struct Metrics {
    /// Requests fully served (any status except shed/IO-abort).
    pub requests_total: AtomicU64,
    /// Responses with a 2xx status.
    pub requests_ok: AtomicU64,
    /// Responses with a 4xx status.
    pub requests_client_error: AtomicU64,
    /// Responses with a 5xx status.
    pub requests_server_error: AtomicU64,
    /// Connections shed with 429 by the admission queue.
    pub shed_total: AtomicU64,
    /// Requests that ended in `DeadlineExceeded` or `PageBudgetExceeded`.
    pub deadline_exceeded_total: AtomicU64,
    /// Sum of `SearchStats::candidates` over all search responses.
    pub candidates_total: AtomicU64,
    /// Sum of `SearchStats::verified` over all search responses.
    pub verified_total: AtomicU64,
    /// Sum of `SearchStats::pages_touched` over all search responses.
    pub pages_total: AtomicU64,
    /// `/append` requests that reached the engine (durable or volatile,
    /// successful or not).
    pub appends_total: AtomicU64,
    /// Snapshot publications: how many times a fresh immutable engine was
    /// swapped in for readers after a mutation.
    pub snapshots_published_total: AtomicU64,
    /// Sharded publications that partitioned the master afresh because no
    /// per-shard delta could describe the change (`/repair`, a half-landed
    /// append, a raised shard count, a failed delta or guard).
    pub snapshot_partitions_total: AtomicU64,
    /// Background STR rebuilds triggered by the insert-degradation
    /// threshold after an append.
    pub str_rebuilds_total: AtomicU64,
    /// Successful `/save` checkpoints (each truncates the WAL).
    pub saves_total: AtomicU64,
}

impl Metrics {
    /// Records a completed response with the given HTTP status.
    pub fn record_status(&self, status: u16) {
        // Ordering::Relaxed: independent monotone counters; no other memory
        // is published by these increments and readers tolerate staleness.
        self.requests_total.fetch_add(1, Ordering::Relaxed);
        let bucket = match status {
            200..=299 => &self.requests_ok,
            400..=499 => &self.requests_client_error,
            _ => &self.requests_server_error,
        };
        // Ordering::Relaxed: same monotone-counter argument as above.
        bucket.fetch_add(1, Ordering::Relaxed);
        if status == 429 {
            // Ordering::Relaxed: same monotone-counter argument as above.
            self.shed_total.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Folds one request's search statistics into the aggregate tallies.
    pub fn record_search(&self, candidates: u64, verified: u64, pages: u64) {
        self.candidates_total
            // Ordering::Relaxed: independent monotone counters (see record_status).
            .fetch_add(candidates, Ordering::Relaxed);
        // Ordering::Relaxed: independent monotone counters (see record_status).
        self.verified_total.fetch_add(verified, Ordering::Relaxed);
        // Ordering::Relaxed: independent monotone counters (see record_status).
        self.pages_total.fetch_add(pages, Ordering::Relaxed);
    }

    /// Notes a request that ran out of deadline or page budget.
    pub fn record_deadline_exceeded(&self) {
        // Ordering::Relaxed: independent monotone counter (see record_status).
        self.deadline_exceeded_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Bumps one of the ingest-path counters by one.
    pub fn bump(&self, counter: &AtomicU64) {
        // Ordering::Relaxed: independent monotone counter (see record_status).
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot as the `/metrics` JSON payload.
    pub fn to_json(&self) -> Json {
        // Ordering::Relaxed on every load: the snapshot is advisory; counters
        // may be mid-update and slight skew between fields is acceptable.
        let load = |c: &AtomicU64| Json::from(c.load(Ordering::Relaxed));
        Json::obj([
            ("requests_total", load(&self.requests_total)),
            ("requests_ok", load(&self.requests_ok)),
            ("requests_client_error", load(&self.requests_client_error)),
            ("requests_server_error", load(&self.requests_server_error)),
            ("shed_total", load(&self.shed_total)),
            (
                "deadline_exceeded_total",
                load(&self.deadline_exceeded_total),
            ),
            ("candidates_total", load(&self.candidates_total)),
            ("verified_total", load(&self.verified_total)),
            ("pages_total", load(&self.pages_total)),
            ("appends_total", load(&self.appends_total)),
            (
                "snapshots_published_total",
                load(&self.snapshots_published_total),
            ),
            (
                "snapshot_partitions_total",
                load(&self.snapshot_partitions_total),
            ),
            ("str_rebuilds_total", load(&self.str_rebuilds_total)),
            ("saves_total", load(&self.saves_total)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statuses_land_in_the_right_buckets() {
        let m = Metrics::default();
        m.record_status(200);
        m.record_status(201);
        m.record_status(400);
        m.record_status(429);
        m.record_status(500);
        m.record_status(503);
        let j = m.to_json();
        let get = |k: &str| j.get(k).and_then(Json::as_u64).unwrap();
        assert_eq!(get("requests_total"), 6);
        assert_eq!(get("requests_ok"), 2);
        assert_eq!(get("requests_client_error"), 2);
        assert_eq!(get("requests_server_error"), 2);
        assert_eq!(get("shed_total"), 1);
    }

    #[test]
    fn search_stats_accumulate() {
        let m = Metrics::default();
        m.record_search(10, 7, 3);
        m.record_search(5, 2, 1);
        m.record_deadline_exceeded();
        let j = m.to_json();
        let get = |k: &str| j.get(k).and_then(Json::as_u64).unwrap();
        assert_eq!(get("candidates_total"), 15);
        assert_eq!(get("verified_total"), 9);
        assert_eq!(get("pages_total"), 4);
        assert_eq!(get("deadline_exceeded_total"), 1);
    }
}
