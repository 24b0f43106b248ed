//! Typed storage failures.
//!
//! Every way the page layer can refuse or fail an operation is enumerated
//! here, so callers (the R-tree, the engine) can distinguish *invalid
//! request* (bad id, wrong size) from *damaged medium* (checksum mismatch,
//! injected read error) and react — typically by degrading to the
//! sequential-scan baseline rather than panicking.

use crate::disk::PageId;

/// Errors surfaced by [`crate::PageFile`], [`crate::BufferPool`], and any
/// [`crate::PageStore`] implementation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A page size of zero (or otherwise unusable) was requested.
    BadPageSize {
        /// The rejected size.
        size: usize,
    },
    /// A page of the wrong size was handed to a store.
    PageSizeMismatch {
        /// The store's page size.
        expected: usize,
        /// The size of the offered page.
        got: usize,
    },
    /// The [`PageId::INVALID`] sentinel was used where a real page is
    /// required.
    InvalidPageId,
    /// A page id beyond the file's extent.
    OutOfRange {
        /// The offending id.
        page: PageId,
        /// The file's extent (pages ever allocated).
        extent: usize,
    },
    /// The page is already on the free list.
    DoubleFree {
        /// The offending id.
        page: PageId,
    },
    /// The file cannot grow further (page ids are 32-bit).
    Full,
    /// The page's content does not match its checksum — the stored bytes
    /// were damaged after the last legitimate write.
    Corrupt {
        /// The damaged page.
        page: PageId,
        /// Human-readable diagnosis.
        detail: String,
    },
    /// The medium refused to return the page at all (an injected or
    /// simulated transport error, as opposed to damaged content).
    ReadFailed {
        /// The unreadable page.
        page: PageId,
    },
}

impl StorageError {
    /// Whether the failure is *transient*: a re-read of the same page may
    /// legitimately succeed because the stored bytes themselves are fine.
    ///
    /// Only [`StorageError::ReadFailed`] (a transport-level refusal)
    /// qualifies. Checksum mismatches ([`StorageError::Corrupt`]) mean the
    /// bytes on the medium are damaged — retrying re-reads the same damage —
    /// and every other variant is an invalid request, so all of those are
    /// permanent.
    pub fn is_transient(&self) -> bool {
        matches!(self, Self::ReadFailed { .. })
    }
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadPageSize { size } => {
                write!(f, "bad page size {size}: pages must be non-empty")
            }
            Self::PageSizeMismatch { expected, got } => {
                write!(
                    f,
                    "page size mismatch: store holds {expected}-byte pages, got {got}"
                )
            }
            Self::InvalidPageId => write!(f, "invalid page id (the INVALID sentinel)"),
            Self::OutOfRange { page, extent } => {
                write!(f, "{page} out of range: file extent is {extent} pages")
            }
            Self::DoubleFree { page } => write!(f, "double free of {page}"),
            Self::Full => write!(f, "page file full: 32-bit page ids exhausted"),
            Self::Corrupt { page, detail } => {
                write!(f, "corrupt {page}: {detail}")
            }
            Self::ReadFailed { page } => write!(f, "read of {page} failed"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<StorageError> for std::io::Error {
    fn from(e: StorageError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_descriptive() {
        let cases: Vec<(StorageError, &str)> = vec![
            (StorageError::BadPageSize { size: 0 }, "bad page size 0"),
            (
                StorageError::PageSizeMismatch {
                    expected: 64,
                    got: 128,
                },
                "page size mismatch",
            ),
            (StorageError::InvalidPageId, "invalid page id"),
            (
                StorageError::OutOfRange {
                    page: PageId(9),
                    extent: 3,
                },
                "page#9 out of range",
            ),
            (StorageError::DoubleFree { page: PageId(2) }, "double free"),
            (StorageError::Full, "full"),
            (
                StorageError::Corrupt {
                    page: PageId(1),
                    detail: "checksum mismatch".into(),
                },
                "corrupt page#1",
            ),
            (
                StorageError::ReadFailed { page: PageId(4) },
                "read of page#4 failed",
            ),
        ];
        for (err, fragment) in cases {
            let msg = err.to_string();
            assert!(
                msg.contains(fragment),
                "{msg:?} should contain {fragment:?}"
            );
        }
    }

    #[test]
    fn only_read_failures_are_transient() {
        assert!(StorageError::ReadFailed { page: PageId(4) }.is_transient());
        let permanent: Vec<StorageError> = vec![
            StorageError::BadPageSize { size: 0 },
            StorageError::PageSizeMismatch {
                expected: 64,
                got: 128,
            },
            StorageError::InvalidPageId,
            StorageError::OutOfRange {
                page: PageId(9),
                extent: 3,
            },
            StorageError::DoubleFree { page: PageId(2) },
            StorageError::Full,
            StorageError::Corrupt {
                page: PageId(1),
                detail: "checksum mismatch".into(),
            },
        ];
        for err in permanent {
            assert!(!err.is_transient(), "{err} must be permanent");
        }
    }

    #[test]
    fn converts_to_io_error() {
        let io: std::io::Error = StorageError::InvalidPageId.into();
        assert_eq!(io.kind(), std::io::ErrorKind::InvalidData);
    }
}
