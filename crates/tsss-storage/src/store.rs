//! The page-store abstraction the buffer pool sits on.
//!
//! [`PageStore`] is the seam between the accounting layer and the medium
//! that actually holds the bytes. [`crate::PageFile`] is the honest
//! implementation; [`crate::FaultyStore`] decorates any store with
//! deterministic fault injection. Because the pool owns its store as
//! `Box<dyn PageStore>`, a test can swap the medium out from under a live
//! R-tree ([`crate::BufferPool::wrap_store`]) without the tree knowing.
//!
//! # Contract
//!
//! * `read`/`write` are the **counted** operations — each records one
//!   logical access in [`AccessStats`]. The `_uncounted` variants are the
//!   buffer pool's physical path (the pool does its own logical counting)
//!   and white-box test hooks.
//! * `read` must verify integrity: a store that checksums its pages
//!   returns [`StorageError::Corrupt`] when the stored bytes no longer
//!   match their checksum. Corruption is *detected at read time*, never
//!   silently decoded.
//! * `corrupt_raw` mutates stored bytes **without** updating any checksum —
//!   it models damage to the medium (bit rot, torn sectors) and is how
//!   fault injectors and chaos tests plant detectable corruption.
//! * `fork` returns a copy-on-write twin of the durable state, with fresh
//!   access counters: neither side sees the other's later writes or
//!   damage. Like `persist`, it carries data, not session state.

use std::sync::Arc;

use crate::disk::PageId;
use crate::error::StorageError;
use crate::page::Page;
use crate::stats::AccessStats;

/// A page-granular storage medium (see the module docs for the contract).
pub trait PageStore: Send + Sync + std::fmt::Debug {
    /// Page size in bytes.
    fn page_size(&self) -> usize;

    /// Total pages ever allocated (the physical extent).
    fn extent(&self) -> usize;

    /// Pages allocated and not freed.
    fn live_pages(&self) -> usize;

    /// Shared handle to the access counters.
    fn stats(&self) -> Arc<AccessStats>;

    /// Allocates a zeroed page, reusing a freed slot when available.
    ///
    /// # Errors
    /// [`StorageError::Full`] when 32-bit page ids are exhausted.
    fn allocate(&mut self) -> Result<PageId, StorageError>;

    /// Returns a page to the free list.
    ///
    /// # Errors
    /// Typed errors on the sentinel id, out-of-range ids, and double frees.
    fn deallocate(&mut self, id: PageId) -> Result<(), StorageError>;

    /// Reads a page, verifying its checksum (counted as one logical read).
    ///
    /// # Errors
    /// Typed errors on bad ids; [`StorageError::Corrupt`] when the stored
    /// bytes fail verification; [`StorageError::ReadFailed`] when the
    /// medium refuses the read outright.
    fn read(&self, id: PageId) -> Result<Page, StorageError>;

    /// Writes a page (counted as one logical write).
    ///
    /// # Errors
    /// Typed errors on bad ids or a size mismatch.
    fn write(&mut self, id: PageId, page: Page) -> Result<(), StorageError>;

    /// [`PageStore::read`] without access accounting — the buffer pool's
    /// physical read path and a white-box test hook. Integrity is still
    /// verified.
    ///
    /// # Errors
    /// As [`PageStore::read`].
    fn read_uncounted(&self, id: PageId) -> Result<Page, StorageError>;

    /// [`PageStore::write`] without access accounting — the buffer pool's
    /// physical write path (the pool does its own logical counting).
    ///
    /// # Errors
    /// As [`PageStore::write`].
    fn write_uncounted(&mut self, id: PageId, page: Page) -> Result<(), StorageError>;

    /// Damages the stored bytes of `id` in place via `f`, **without**
    /// updating the page's checksum — the next `read` of this page reports
    /// [`StorageError::Corrupt`] (unless `f` left the bytes unchanged).
    /// Not an access; never counted.
    ///
    /// # Errors
    /// Typed errors on bad ids.
    fn corrupt_raw(&mut self, id: PageId, f: &mut dyn FnMut(&mut [u8]))
        -> Result<(), StorageError>;

    /// Serialises the store's durable state (pages, free list, checksums)
    /// to `w`. Decorators persist the *underlying* state — injected fault
    /// configuration is a session property, not data.
    ///
    /// # Errors
    /// Propagates I/O errors.
    fn persist(&self, w: &mut dyn std::io::Write) -> std::io::Result<()>;

    /// A copy-on-write twin of the store's durable state (pages, free
    /// list, checksums) with fresh access counters. Decorators fork the
    /// *underlying* store, as [`PageStore::persist`] does — injected
    /// faults stay with the session that configured them.
    fn fork(&self) -> Box<dyn PageStore>;
}
