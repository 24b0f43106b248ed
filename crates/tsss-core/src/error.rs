//! Engine error type.

use std::fmt;

/// Errors surfaced by the public engine API.
///
/// Internal invariants still panic (they indicate bugs, not conditions);
/// these variants cover what *callers* can get wrong.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The query's length does not match the engine's window length.
    QueryLength {
        /// Window length the engine was built with.
        expected: usize,
        /// Length of the offending query.
        got: usize,
    },
    /// A long query must be at least one full window.
    QueryTooShort {
        /// Minimum accepted length (the window length).
        min: usize,
        /// Length of the offending query.
        got: usize,
    },
    /// Every query value must be a finite number: a NaN or infinity would
    /// poison the fit and every distance computed from it.
    NonFiniteQuery {
        /// Position of the first non-finite value.
        index: usize,
    },
    /// The error bound must be non-negative and finite.
    InvalidEpsilon(f64),
    /// Referenced a series index that does not exist.
    UnknownSeries(usize),
    /// The data set is too large for the engine's compact window ids
    /// (series index and window offset are stored as `u32`).
    TooLarge {
        /// Which quantity overflowed ("series index" or "window offset").
        what: &'static str,
        /// The offending value.
        value: usize,
    },
    /// Stored data failed verification: a page checksum mismatch, an
    /// injected read fault, a node that does not decode, or an index entry
    /// referencing data that does not exist. The engine may degrade to the
    /// sequential scan when this arises mid-search (see
    /// [`crate::DegradationPolicy`]).
    Corrupt {
        /// Human-readable diagnosis of the damage.
        detail: String,
        /// The storage page implicated, when the fault named one — what the
        /// engine quarantines for [`crate::SearchEngine::repair`].
        page: Option<u32>,
    },
    /// The per-query page-access budget ([`crate::SearchOptions`]
    /// `page_budget`) ran out mid-traversal — the guard against runaway
    /// queries over a damaged or degenerate index. Never degraded around:
    /// the budget bounds total work, so the (full-file) sequential fallback
    /// must not run.
    PageBudgetExceeded {
        /// The exhausted budget, in index page accesses.
        budget: u64,
    },
    /// The write-ahead log failed: a record could not be framed, fsynced,
    /// truncated, or replayed. An append returning this was **not**
    /// acknowledged — the engine did not mutate and the caller must retry
    /// or treat the values as unwritten. Not a corruption of stored data
    /// (the engine file and its checksums are untouched), so it never
    /// degrades to the sequential scan.
    Wal {
        /// Human-readable diagnosis of the log failure.
        detail: String,
    },
    /// A scatter-gather shard failed and the whole query had to be
    /// refused — either every shard failed, or the caller asked for
    /// [`crate::DegradationPolicy::Error`], which forbids dropping the
    /// failed shard's slice. The typed fan-out failure: distinguishable
    /// from a plain [`EngineError::Corrupt`] so callers can tell "this
    /// engine's data is damaged" from "shard `i` of a sharded deployment
    /// is down" (see [`crate::ShardedEngine`]).
    ShardUnavailable {
        /// Index of the first shard that failed.
        shard: usize,
        /// The failed shard's own error, rendered.
        detail: String,
    },
    /// The query's [`crate::Deadline`] ran out mid-execution. Checked
    /// cooperatively at every pipeline stage (and each k-NN frontier
    /// round), so the query stops at a stage boundary with its partial
    /// spend reported here. Never degraded around — like the page budget,
    /// a deadline bounds work, which the full-file fallback would defeat.
    DeadlineExceeded {
        /// Page accesses spent when the deadline fired.
        pages: u64,
        /// Verification steps spent when the deadline fired.
        steps: u64,
    },
}

impl EngineError {
    /// True when the error indicates damaged stored data — the condition
    /// [`crate::DegradationPolicy::SeqScanFallback`] degrades on.
    pub fn is_corruption(&self) -> bool {
        matches!(self, EngineError::Corrupt { .. })
    }
}

impl From<tsss_storage::StorageError> for EngineError {
    fn from(e: tsss_storage::StorageError) -> Self {
        let page = match &e {
            tsss_storage::StorageError::Corrupt { page, .. }
            | tsss_storage::StorageError::ReadFailed { page } => Some(page.0),
            _ => None,
        };
        EngineError::Corrupt {
            detail: e.to_string(),
            page,
        }
    }
}

impl From<tsss_index::IndexError> for EngineError {
    fn from(e: tsss_index::IndexError) -> Self {
        match e {
            tsss_index::IndexError::BudgetExhausted { budget } => {
                EngineError::PageBudgetExceeded { budget }
            }
            other => {
                let page = match &other {
                    tsss_index::IndexError::Storage(tsss_storage::StorageError::Corrupt {
                        page,
                        ..
                    })
                    | tsss_index::IndexError::Storage(tsss_storage::StorageError::ReadFailed {
                        page,
                    })
                    | tsss_index::IndexError::CorruptNode { page, .. } => Some(page.0),
                    _ => None,
                };
                EngineError::Corrupt {
                    detail: other.to_string(),
                    page,
                }
            }
        }
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::QueryLength { expected, got } => write!(
                f,
                "query length {got} does not match the engine window length {expected}"
            ),
            EngineError::QueryTooShort { min, got } => {
                write!(f, "long query must be at least {min} values, got {got}")
            }
            EngineError::NonFiniteQuery { index } => {
                write!(f, "query value at index {index} is not a finite number")
            }
            EngineError::InvalidEpsilon(e) => {
                write!(f, "error bound must be finite and non-negative, got {e}")
            }
            EngineError::UnknownSeries(i) => write!(f, "series index {i} does not exist"),
            EngineError::TooLarge { what, value } => {
                write!(f, "{what} {value} exceeds the engine's u32 window-id range")
            }
            EngineError::Corrupt { detail, .. } => {
                write!(f, "corrupt stored data: {detail}")
            }
            EngineError::Wal { detail } => {
                write!(f, "write-ahead log failure: {detail}")
            }
            EngineError::PageBudgetExceeded { budget } => {
                write!(f, "page budget of {budget} accesses exhausted mid-query")
            }
            EngineError::ShardUnavailable { shard, detail } => {
                write!(f, "shard {shard} unavailable: {detail}")
            }
            EngineError::DeadlineExceeded { pages, steps } => {
                write!(
                    f,
                    "query deadline exceeded after {pages} page accesses and {steps} verification steps"
                )
            }
        }
    }
}

impl std::error::Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_descriptive() {
        let cases: Vec<(EngineError, &str)> = vec![
            (
                EngineError::QueryLength {
                    expected: 128,
                    got: 64,
                },
                "query length 64",
            ),
            (
                EngineError::QueryTooShort { min: 128, got: 10 },
                "at least 128",
            ),
            (
                EngineError::NonFiniteQuery { index: 3 },
                "index 3 is not a finite number",
            ),
            (EngineError::InvalidEpsilon(-1.0), "-1"),
            (EngineError::UnknownSeries(3), "index 3"),
            (
                EngineError::TooLarge {
                    what: "window offset",
                    value: 5_000_000_000,
                },
                "window offset 5000000000",
            ),
            (
                EngineError::Corrupt {
                    detail: "page 7 checksum mismatch".into(),
                    page: Some(7),
                },
                "corrupt stored data: page 7",
            ),
            (
                EngineError::Wal {
                    detail: "fsync failed on append".into(),
                },
                "write-ahead log failure: fsync failed",
            ),
            (
                EngineError::PageBudgetExceeded { budget: 64 },
                "budget of 64",
            ),
            (
                EngineError::DeadlineExceeded {
                    pages: 12,
                    steps: 3,
                },
                "deadline exceeded after 12 page accesses and 3",
            ),
            (
                EngineError::ShardUnavailable {
                    shard: 2,
                    detail: "corrupt stored data: page 7 checksum mismatch".into(),
                },
                "shard 2 unavailable: corrupt stored data",
            ),
        ];
        for (err, frag) in cases {
            assert!(
                err.to_string().contains(frag),
                "{err} missing fragment {frag:?}"
            );
        }
    }

    #[test]
    fn storage_and_index_errors_convert_to_corrupt() {
        let s = tsss_storage::StorageError::ReadFailed {
            page: tsss_storage::PageId(3),
        };
        let e: EngineError = s.into();
        assert!(e.is_corruption(), "{e:?}");
        assert_eq!(
            e,
            EngineError::Corrupt {
                detail: "read of page#3 failed".into(),
                page: Some(3)
            },
            "the implicated page must survive the conversion"
        );

        let b: EngineError = tsss_index::IndexError::BudgetExhausted { budget: 9 }.into();
        assert_eq!(b, EngineError::PageBudgetExceeded { budget: 9 });
        assert!(!b.is_corruption());
    }

    #[test]
    fn deadline_exhaustion_is_not_corruption() {
        let e = EngineError::DeadlineExceeded { pages: 5, steps: 0 };
        assert!(
            !e.is_corruption(),
            "deadlines must never trigger degradation"
        );
    }

    #[test]
    fn shard_unavailable_is_not_corruption() {
        let e = EngineError::ShardUnavailable {
            shard: 1,
            detail: "corrupt stored data: page 3".into(),
        };
        assert!(
            !e.is_corruption(),
            "a down shard is a fan-out failure, not damage in this engine's own files"
        );
    }

    #[test]
    fn wal_failure_is_not_corruption() {
        let e = EngineError::Wal {
            detail: "disk full".into(),
        };
        assert!(
            !e.is_corruption(),
            "a log failure means un-acknowledged, not damaged; no seqscan fallback"
        );
    }
}
