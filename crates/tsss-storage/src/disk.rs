//! The simulated disk: a growable array of fixed-size pages with exact
//! access accounting, a free list, and per-page CRC32 checksums.
//!
//! `PageFile` is the ground truth the buffer pool sits in front of. Every
//! `read_page`/`write_page` bumps the shared [`AccessStats`], so the
//! benchmark harness measures precisely what the paper's Figure 5 measures —
//! pages touched, not wall-clock I/O.
//!
//! # Integrity model
//!
//! A checksum sidecar holds the CRC32 of every page's content as of its
//! last legitimate write. Reads verify the sidecar, so any damage that
//! bypassed `write_page` — a fault injector's bit flip, a torn write, bytes
//! rotted inside a persisted file — surfaces as a typed
//! [`StorageError::Corrupt`] instead of a garbage decode downstream.
//! [`PageFile::corrupt_raw`] is the sanctioned way to model such damage.
//!
//! # Copy-on-write frames
//!
//! Page frames are held behind `Arc`, so [`PageFile::fork`] copies one
//! pointer per page rather than the bytes. Writes and allocations replace
//! a frame, and [`PageFile::corrupt_raw`] copies a shared frame before
//! damaging it, so a file and its forks never see each other's writes or
//! damage.

use std::sync::Arc;

use crate::codec::crc32;
// analyze::allow-file(index): `pages`, `crcs` and `seen` are indexed only through `slot()`-validated indices (or `extent`-checked ids during load), and `pages`/`crcs` are grown and shrunk together.

use crate::error::StorageError;
use crate::page::Page;
use crate::stats::AccessStats;
use crate::store::PageStore;

/// Identifier of a page within a [`PageFile`].
///
/// A newtype over `u32` (4 G pages × 4 KB = 16 TB of addressable store —
/// far beyond the experiments) so page ids serialise compactly inside index
/// nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u32);

impl PageId {
    /// Sentinel used in serialised nodes for "no page" (e.g. no child).
    pub const INVALID: PageId = PageId(u32::MAX);

    /// True when this id is not the sentinel.
    pub fn is_valid(self) -> bool {
        self != Self::INVALID
    }
}

impl std::fmt::Display for PageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "page#{}", self.0)
    }
}

/// A simulated page-oriented file (the "disk").
///
/// All pages share one size, fixed at construction. Deallocated pages go on
/// a free list and are reused by later allocations. The access counters are
/// shared (`Arc`) so a buffer pool and its backing file report into the same
/// [`AccessStats`].
#[derive(Debug)]
pub struct PageFile {
    page_size: usize,
    /// Page frames, shared with forks until either side replaces one.
    pages: Vec<Arc<Page>>,
    /// CRC32 of each page's content as of its last legitimate write.
    crcs: Vec<u32>,
    free: Vec<PageId>,
    stats: Arc<AccessStats>,
    /// Cached CRC of an all-zero page (every allocation starts there).
    zero_crc: u32,
}

impl PageFile {
    /// Creates an empty page file with the given page size.
    ///
    /// # Errors
    /// [`StorageError::BadPageSize`] when `page_size == 0`.
    pub fn new(page_size: usize) -> Result<Self, StorageError> {
        if page_size == 0 {
            return Err(StorageError::BadPageSize { size: page_size });
        }
        Ok(Self {
            page_size,
            pages: Vec::new(),
            crcs: Vec::new(),
            free: Vec::new(),
            stats: Arc::new(AccessStats::new()),
            zero_crc: crc32(&vec![0u8; page_size]),
        })
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of live (allocated, not freed) pages.
    pub fn live_pages(&self) -> usize {
        self.pages.len() - self.free.len()
    }

    /// Total pages ever allocated (the file's physical extent).
    pub fn extent(&self) -> usize {
        self.pages.len()
    }

    /// Shared handle to the access counters.
    pub fn stats(&self) -> Arc<AccessStats> {
        Arc::clone(&self.stats)
    }

    /// Maps an id to its slot, rejecting the sentinel and out-of-range ids.
    fn slot(&self, id: PageId) -> Result<usize, StorageError> {
        if !id.is_valid() {
            return Err(StorageError::InvalidPageId);
        }
        // analyze::allow(cast): u32 page id → usize is lossless on every supported (≥ 32-bit) target; the range check below is the point of this function.
        let idx = id.0 as usize;
        if idx >= self.pages.len() {
            return Err(StorageError::OutOfRange {
                page: id,
                extent: self.pages.len(),
            });
        }
        Ok(idx)
    }

    /// Allocates a zeroed page, reusing a freed slot when available.
    ///
    /// Allocation itself is not counted as an access; the subsequent write
    /// of real content is.
    ///
    /// # Errors
    /// [`StorageError::Full`] when 32-bit page ids are exhausted.
    pub fn allocate(&mut self) -> Result<PageId, StorageError> {
        if let Some(id) = self.free.pop() {
            // analyze::allow(cast): lossless u32 → usize; free-list ids were in range when pushed and the vectors never shrink past them.
            let idx = id.0 as usize;
            self.pages[idx] = Arc::new(Page::zeroed(self.page_size));
            self.crcs[idx] = self.zero_crc;
            return Ok(id);
        }
        let id = match u32::try_from(self.pages.len()) {
            Ok(n) if PageId(n).is_valid() => PageId(n),
            _ => return Err(StorageError::Full),
        };
        self.pages.push(Arc::new(Page::zeroed(self.page_size)));
        self.crcs.push(self.zero_crc);
        Ok(id)
    }

    /// Returns a page to the free list.
    ///
    /// # Errors
    /// Typed errors on the sentinel, an out-of-range id, or a double free.
    pub fn deallocate(&mut self, id: PageId) -> Result<(), StorageError> {
        self.slot(id)?;
        if self.free.contains(&id) {
            return Err(StorageError::DoubleFree { page: id });
        }
        self.free.push(id);
        Ok(())
    }

    /// Verifies the checksum of the page in `idx` and clones it out.
    fn verified(&self, id: PageId, idx: usize) -> Result<Page, StorageError> {
        let page = &self.pages[idx];
        let actual = crc32(page.bytes());
        let stored = self.crcs[idx];
        if actual != stored {
            return Err(StorageError::Corrupt {
                page: id,
                detail: format!(
                    "checksum mismatch: stored {stored:#010x}, computed {actual:#010x}"
                ),
            });
        }
        Ok(Page::clone(page))
    }

    /// Reads a page, verifying its checksum (counted as one logical read).
    ///
    /// # Errors
    /// Typed errors on bad ids; [`StorageError::Corrupt`] when the stored
    /// bytes no longer match the page's checksum.
    pub fn read_page(&self, id: PageId) -> Result<Page, StorageError> {
        self.stats.record_read();
        let idx = self.slot(id)?;
        self.verified(id, idx)
    }

    /// Writes a page and refreshes its checksum (counted as one logical
    /// write).
    ///
    /// # Errors
    /// Typed errors on bad ids or a page of the wrong size.
    pub fn write_page(&mut self, id: PageId, page: Page) -> Result<(), StorageError> {
        self.stats.record_write();
        self.write_page_uncounted(id, page)
    }

    /// Serialises the whole file (pages + checksums + free list) to a
    /// writer.
    ///
    /// Format: magic `TSSSPG02`, a CRC-protected header block (page size,
    /// extent, free list), then per page its CRC32 followed by the raw
    /// bytes. Access counters are *not* persisted — they describe a
    /// session, not the data.
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn write_to<W: std::io::Write + ?Sized>(&self, w: &mut W) -> std::io::Result<()> {
        use crate::codec::*;
        put_magic(w, b"TSSSPG02")?;
        let mut header = Vec::new();
        put_usize(&mut header, self.page_size)?;
        put_usize(&mut header, self.pages.len())?;
        put_usize(&mut header, self.free.len())?;
        for f in &self.free {
            put_u32(&mut header, f.0)?;
        }
        put_checked_block(w, &header)?;
        for (p, crc) in self.pages.iter().zip(&self.crcs) {
            put_u32(w, *crc)?;
            w.write_all(p.bytes())?;
        }
        Ok(())
    }

    /// Reads a file previously written by [`PageFile::write_to`], verifying
    /// the header checksum and every page checksum — a full scrub, so a
    /// damaged file is refused at open rather than discovered mid-query.
    ///
    /// # Errors
    /// `InvalidData` on a bad magic tag, an unsupported version, a
    /// checksum mismatch anywhere, or an inconsistent free list; propagates
    /// I/O errors (truncation surfaces as `UnexpectedEof`).
    pub fn read_from<R: std::io::Read + ?Sized>(r: &mut R) -> std::io::Result<Self> {
        use crate::codec::*;
        let invalid = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
        expect_versioned_magic(r, b"TSSSPG", 2)?;
        // 64 MB admits ~16 M free-list entries — far beyond any real file,
        // small enough that a hostile length prefix cannot exhaust memory.
        let header = get_checked_block(r, 1 << 26)?;
        let hr = &mut std::io::Cursor::new(header);
        let page_size = get_usize(hr)?;
        if page_size == 0 {
            return Err(invalid("zero page size".into()));
        }
        let extent = get_usize(hr)?;
        // analyze::allow(cast): lossless u32 → usize widening of the constant; the comparison rejects extents that cannot be addressed by 32-bit ids (MAX is the reserved sentinel).
        if extent >= u32::MAX as usize {
            return Err(invalid(format!("extent {extent} exceeds 32-bit page ids")));
        }
        let free_len = get_usize(hr)?;
        if free_len > extent {
            return Err(invalid(format!(
                "free list of {free_len} entries exceeds extent {extent}"
            )));
        }
        let mut free = Vec::with_capacity(free_len);
        let mut seen = vec![false; extent];
        for _ in 0..free_len {
            let id = PageId(get_u32(hr)?);
            // analyze::allow(cast): lossless u32 → usize; this comparison is the range check for the line below.
            if id.0 as usize >= extent {
                return Err(invalid("free-list entry out of range".into()));
            }
            // analyze::allow(cast): see above — just range-checked against `extent`, the length of `seen`.
            if std::mem::replace(&mut seen[id.0 as usize], true) {
                return Err(invalid(format!("duplicate free-list entry {id}")));
            }
            free.push(id);
        }
        let mut pages = Vec::new();
        let mut crcs = Vec::new();
        for i in 0..extent {
            let stored = get_u32(r)?;
            let mut page = Page::zeroed(page_size);
            r.read_exact(page.bytes_mut())?;
            let actual = crc32(page.bytes());
            if actual != stored {
                return Err(invalid(format!(
                    "corrupt page#{i}: stored checksum {stored:#010x}, computed {actual:#010x}"
                )));
            }
            pages.push(Arc::new(page));
            crcs.push(stored);
        }
        Ok(Self {
            page_size,
            pages,
            crcs,
            free,
            stats: Arc::new(AccessStats::new()),
            zero_crc: crc32(&vec![0u8; page_size]),
        })
    }

    /// Stores a page and refreshes its checksum without access accounting —
    /// the buffer pool's physical write path (logical counting already
    /// happened at the pool boundary).
    ///
    /// # Errors
    /// Typed errors on bad ids or a page of the wrong size.
    pub fn write_page_uncounted(&mut self, id: PageId, page: Page) -> Result<(), StorageError> {
        if page.size() != self.page_size {
            return Err(StorageError::PageSizeMismatch {
                expected: self.page_size,
                got: page.size(),
            });
        }
        let idx = self.slot(id)?;
        self.crcs[idx] = crc32(page.bytes());
        self.pages[idx] = Arc::new(page);
        Ok(())
    }

    /// Reads a page **without** counting an access. Integrity is still
    /// verified.
    ///
    /// For the buffer pool's physical path, white-box tests, and integrity
    /// checks — never on the query path, where every touch must be charged.
    ///
    /// # Errors
    /// As [`PageFile::read_page`].
    pub fn read_page_uncounted(&self, id: PageId) -> Result<Page, StorageError> {
        let idx = self.slot(id)?;
        self.verified(id, idx)
    }

    /// Damages the stored bytes of `id` in place via `f`, deliberately
    /// **not** refreshing the page's checksum: the next read reports
    /// [`StorageError::Corrupt`]. Models medium damage (bit rot, torn
    /// sectors) for fault injection and chaos tests.
    ///
    /// # Errors
    /// Typed errors on bad ids.
    pub fn corrupt_raw(
        &mut self,
        id: PageId,
        f: &mut dyn FnMut(&mut [u8]),
    ) -> Result<(), StorageError> {
        let idx = self.slot(id)?;
        f(Arc::make_mut(&mut self.pages[idx]).bytes_mut());
        Ok(())
    }

    /// A copy-on-write twin of this file: the same pages, checksums and
    /// free list, sharing every page frame, with fresh access counters.
    /// Costs one pointer per page; from then on neither file sees the
    /// other's writes, allocations or damage.
    pub fn fork(&self) -> PageFile {
        PageFile {
            page_size: self.page_size,
            pages: self.pages.clone(),
            crcs: self.crcs.clone(),
            free: self.free.clone(),
            stats: Arc::new(AccessStats::new()),
            zero_crc: self.zero_crc,
        }
    }
}

impl PageStore for PageFile {
    fn page_size(&self) -> usize {
        PageFile::page_size(self)
    }

    fn extent(&self) -> usize {
        PageFile::extent(self)
    }

    fn live_pages(&self) -> usize {
        PageFile::live_pages(self)
    }

    fn stats(&self) -> Arc<AccessStats> {
        PageFile::stats(self)
    }

    fn allocate(&mut self) -> Result<PageId, StorageError> {
        PageFile::allocate(self)
    }

    fn deallocate(&mut self, id: PageId) -> Result<(), StorageError> {
        PageFile::deallocate(self, id)
    }

    fn read(&self, id: PageId) -> Result<Page, StorageError> {
        self.read_page(id)
    }

    fn write(&mut self, id: PageId, page: Page) -> Result<(), StorageError> {
        self.write_page(id, page)
    }

    fn read_uncounted(&self, id: PageId) -> Result<Page, StorageError> {
        self.read_page_uncounted(id)
    }

    fn write_uncounted(&mut self, id: PageId, page: Page) -> Result<(), StorageError> {
        self.write_page_uncounted(id, page)
    }

    fn corrupt_raw(
        &mut self,
        id: PageId,
        f: &mut dyn FnMut(&mut [u8]),
    ) -> Result<(), StorageError> {
        PageFile::corrupt_raw(self, id, f)
    }

    fn persist(&self, w: &mut dyn std::io::Write) -> std::io::Result<()> {
        self.write_to(w)
    }

    fn fork(&self) -> Box<dyn PageStore> {
        Box::new(PageFile::fork(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_returns_distinct_zeroed_pages() {
        let mut f = PageFile::new(64).unwrap();
        let a = f.allocate().unwrap();
        let b = f.allocate().unwrap();
        assert_ne!(a, b);
        assert_eq!(f.live_pages(), 2);
        assert!(f
            .read_page_uncounted(a)
            .unwrap()
            .bytes()
            .iter()
            .all(|&x| x == 0));
    }

    #[test]
    fn zero_page_size_is_a_typed_error() {
        assert_eq!(
            PageFile::new(0).unwrap_err(),
            StorageError::BadPageSize { size: 0 }
        );
    }

    #[test]
    fn read_write_roundtrip_counts_accesses() {
        let mut f = PageFile::new(64).unwrap();
        let id = f.allocate().unwrap();
        let mut p = Page::zeroed(64);
        p.put_f64(0, 42.5);
        f.write_page(id, p).unwrap();
        let back = f.read_page(id).unwrap();
        assert_eq!(back.get_f64(0), 42.5);
        let stats = f.stats();
        assert_eq!(stats.writes(), 1);
        assert_eq!(stats.reads(), 1);
        assert_eq!(stats.total_accesses(), 2);
    }

    #[test]
    fn uncounted_read_does_not_touch_stats() {
        let mut f = PageFile::new(64).unwrap();
        let id = f.allocate().unwrap();
        let _ = f.read_page_uncounted(id).unwrap();
        assert_eq!(f.stats().total_accesses(), 0);
    }

    #[test]
    fn deallocate_then_allocate_reuses_slot_and_zeroes() {
        let mut f = PageFile::new(64).unwrap();
        let a = f.allocate().unwrap();
        let mut p = Page::zeroed(64);
        p.put_u64(0, 7);
        f.write_page(a, p).unwrap();
        f.deallocate(a).unwrap();
        assert_eq!(f.live_pages(), 0);
        let b = f.allocate().unwrap();
        assert_eq!(a, b, "freed slot should be reused");
        assert_eq!(
            f.read_page_uncounted(b).unwrap().get_u64(0),
            0,
            "page re-zeroed"
        );
        assert_eq!(f.extent(), 1, "no physical growth");
    }

    #[test]
    fn free_list_cycles_do_not_leak_or_resurrect_stale_content() {
        // Satellite: dealloc/realloc churn must neither grow the extent nor
        // let stale bytes survive a checksum-verified read.
        let mut f = PageFile::new(64).unwrap();
        let ids: Vec<PageId> = (0..4).map(|_| f.allocate().unwrap()).collect();
        for round in 0u64..50 {
            for (i, &id) in ids.iter().enumerate() {
                let mut p = Page::zeroed(64);
                p.put_u64(0, round * 100 + i as u64);
                f.write_page(id, p).unwrap();
            }
            // Free two, reallocate two — slots must be reused, re-zeroed,
            // and verify cleanly.
            f.deallocate(ids[1]).unwrap();
            f.deallocate(ids[3]).unwrap();
            assert_eq!(f.live_pages(), 2);
            let r1 = f.allocate().unwrap();
            let r2 = f.allocate().unwrap();
            let mut reused = [r1, r2];
            reused.sort();
            assert_eq!(reused, [ids[1], ids[3]], "round {round}: slots not reused");
            for id in reused {
                let p = f.read_page(id).expect("re-zeroed page verifies");
                assert!(p.bytes().iter().all(|&b| b == 0), "stale bytes resurrected");
            }
        }
        assert_eq!(f.extent(), 4, "free-list churn must not leak pages");
    }

    #[test]
    fn double_free_is_a_typed_error() {
        let mut f = PageFile::new(64).unwrap();
        let a = f.allocate().unwrap();
        f.deallocate(a).unwrap();
        assert_eq!(
            f.deallocate(a).unwrap_err(),
            StorageError::DoubleFree { page: a }
        );
    }

    #[test]
    fn wrong_size_write_is_a_typed_error() {
        let mut f = PageFile::new(64).unwrap();
        let a = f.allocate().unwrap();
        assert_eq!(
            f.write_page(a, Page::zeroed(128)).unwrap_err(),
            StorageError::PageSizeMismatch {
                expected: 64,
                got: 128
            }
        );
    }

    #[test]
    fn invalid_sentinel_and_out_of_range_ids_are_typed_errors() {
        let mut f = PageFile::new(64).unwrap();
        let _ = f.allocate().unwrap();
        assert_eq!(
            f.read_page(PageId::INVALID).unwrap_err(),
            StorageError::InvalidPageId
        );
        assert_eq!(
            f.read_page(PageId(9)).unwrap_err(),
            StorageError::OutOfRange {
                page: PageId(9),
                extent: 1
            }
        );
        assert!(matches!(
            f.deallocate(PageId::INVALID).unwrap_err(),
            StorageError::InvalidPageId
        ));
        assert!(matches!(
            f.write_page(PageId(5), Page::zeroed(64)).unwrap_err(),
            StorageError::OutOfRange { .. }
        ));
    }

    #[test]
    fn corrupt_raw_is_detected_on_read() {
        let mut f = PageFile::new(64).unwrap();
        let id = f.allocate().unwrap();
        let mut p = Page::zeroed(64);
        p.put_u64(0, 12345);
        f.write_page(id, p).unwrap();
        f.corrupt_raw(id, &mut |bytes| bytes[3] ^= 0x40).unwrap();
        assert!(matches!(
            f.read_page(id).unwrap_err(),
            StorageError::Corrupt { page, .. } if page == id
        ));
        // A legitimate rewrite heals the page.
        f.write_page(id, Page::zeroed(64)).unwrap();
        assert!(f.read_page(id).is_ok());
        // A page that already read clean is checked again on its next
        // read: damage after a verified read still surfaces.
        f.corrupt_raw(id, &mut |bytes| bytes[7] ^= 0x01).unwrap();
        assert!(matches!(
            f.read_page(id).unwrap_err(),
            StorageError::Corrupt { page, .. } if page == id
        ));
    }

    /// Everything a fork must keep apart: extent, free list, checksums and
    /// page bytes.
    fn image(f: &PageFile) -> (usize, Vec<PageId>, Vec<u32>, Vec<Vec<u8>>) {
        let bytes = f.pages.iter().map(|p| p.bytes().to_vec()).collect();
        (f.extent(), f.free.clone(), f.crcs.clone(), bytes)
    }

    /// Writes, allocates twice (reusing the freed slot, then growing),
    /// frees and damages pages of `this`; `other` must not move.
    fn mutate_one_side(this: &mut PageFile, other: &PageFile, ids: &[PageId]) {
        let before = image(other);
        let mut p = Page::zeroed(64);
        p.put_u64(0, 99);
        this.write_page(ids[0], p).unwrap();
        this.allocate().unwrap();
        this.allocate().unwrap();
        this.deallocate(ids[1]).unwrap();
        this.corrupt_raw(ids[0], &mut |bytes| bytes[0] ^= 0xff)
            .unwrap();
        assert_eq!(image(other), before);
        assert!(matches!(
            this.read_page(ids[0]).unwrap_err(),
            StorageError::Corrupt { .. }
        ));
        assert_eq!(other.read_page(ids[1]).unwrap().get_u64(0), 2);
    }

    #[test]
    fn a_fork_and_its_origin_never_see_each_others_changes() {
        let mut a = PageFile::new(64).unwrap();
        let ids: Vec<PageId> = (0..3).map(|_| a.allocate().unwrap()).collect();
        for (i, &id) in ids.iter().enumerate() {
            let mut p = Page::zeroed(64);
            p.put_u64(0, i as u64 + 1);
            a.write_page(id, p).unwrap();
        }
        a.deallocate(ids[2]).unwrap();
        let _ = a.read_page(ids[0]).unwrap();
        let mut b = a.fork();
        assert_eq!(image(&a), image(&b));
        assert_eq!(b.stats().total_accesses(), 0, "fresh counters");
        mutate_one_side(&mut a, &b, &ids);
        mutate_one_side(&mut b, &a, &ids);
        assert_eq!(image(&a), image(&b), "the same edits on both sides");
        assert_eq!((a.extent(), a.live_pages()), (4, 3));
    }

    #[test]
    fn stats_are_shared_with_handles() {
        let mut f = PageFile::new(64).unwrap();
        let id = f.allocate().unwrap();
        let handle = f.stats();
        let _ = f.read_page(id);
        assert_eq!(handle.reads(), 1);
    }
}

#[cfg(test)]
mod persist_tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_pages_and_free_list() {
        let mut f = PageFile::new(64).unwrap();
        let ids: Vec<PageId> = (0..5).map(|_| f.allocate().unwrap()).collect();
        for (i, &id) in ids.iter().enumerate() {
            let mut p = Page::zeroed(64);
            p.put_u64(0, i as u64 * 11);
            f.write_page(id, p).unwrap();
        }
        f.deallocate(ids[2]).unwrap();
        let mut buf = Vec::new();
        f.write_to(&mut buf).unwrap();
        let mut g = PageFile::read_from(&mut std::io::Cursor::new(buf)).unwrap();
        assert_eq!(g.page_size(), 64);
        assert_eq!(g.extent(), 5);
        assert_eq!(g.live_pages(), 4);
        for (i, &id) in ids.iter().enumerate() {
            if i == 2 {
                continue;
            }
            assert_eq!(g.read_page_uncounted(id).unwrap().get_u64(0), i as u64 * 11);
        }
        // Reallocation reuses the freed slot, as in the original.
        assert_eq!(g.allocate().unwrap(), ids[2]);
    }

    #[test]
    fn counters_are_not_persisted() {
        let mut f = PageFile::new(32).unwrap();
        let id = f.allocate().unwrap();
        let _ = f.read_page(id);
        let mut buf = Vec::new();
        f.write_to(&mut buf).unwrap();
        let g = PageFile::read_from(&mut std::io::Cursor::new(buf)).unwrap();
        assert_eq!(g.stats().total_accesses(), 0);
    }

    #[test]
    fn corrupt_magic_is_rejected() {
        let mut buf = Vec::new();
        PageFile::new(32).unwrap().write_to(&mut buf).unwrap();
        buf[0] = b'X';
        let err = PageFile::read_from(&mut std::io::Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn old_version_is_rejected_with_a_version_message() {
        let mut buf = Vec::new();
        PageFile::new(32).unwrap().write_to(&mut buf).unwrap();
        buf[6..8].copy_from_slice(b"01");
        let err = PageFile::read_from(&mut std::io::Cursor::new(buf)).unwrap_err();
        assert!(err.to_string().contains("unsupported version"), "{err}");
    }

    #[test]
    fn truncated_stream_is_rejected() {
        let mut f = PageFile::new(32).unwrap();
        let _ = f.allocate().unwrap();
        let mut buf = Vec::new();
        f.write_to(&mut buf).unwrap();
        buf.truncate(buf.len() - 5);
        assert!(PageFile::read_from(&mut std::io::Cursor::new(buf)).is_err());
    }

    #[test]
    fn every_single_bit_flip_in_the_stream_is_rejected() {
        let mut f = PageFile::new(32).unwrap();
        let ids: Vec<PageId> = (0..3).map(|_| f.allocate().unwrap()).collect();
        for (i, &id) in ids.iter().enumerate() {
            let mut p = Page::zeroed(32);
            p.put_u64(0, 0xA5A5 + i as u64);
            f.write_page(id, p).unwrap();
        }
        f.deallocate(ids[1]).unwrap();
        let mut buf = Vec::new();
        f.write_to(&mut buf).unwrap();
        for byte in 0..buf.len() {
            for bit in [0u8, 3, 7] {
                let mut damaged = buf.clone();
                damaged[byte] ^= 1 << bit;
                assert!(
                    PageFile::read_from(&mut std::io::Cursor::new(damaged)).is_err(),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn out_of_range_free_entry_is_rejected() {
        // Build a file whose (otherwise valid, correctly checksummed)
        // header claims a free-list entry beyond the extent.
        use crate::codec::*;
        let mut buf = Vec::new();
        put_magic(&mut buf, b"TSSSPG02").unwrap();
        let mut header = Vec::new();
        put_usize(&mut header, 32).unwrap(); // page size
        put_usize(&mut header, 1).unwrap(); // extent
        put_usize(&mut header, 1).unwrap(); // free_len
        put_u32(&mut header, 7).unwrap(); // free entry 7 >= extent 1
        put_checked_block(&mut buf, &header).unwrap();
        let page = vec![0u8; 32];
        put_u32(&mut buf, crc32(&page)).unwrap();
        buf.extend_from_slice(&page);
        let err = PageFile::read_from(&mut std::io::Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("free-list entry out of range"));
    }

    #[test]
    fn duplicate_free_entry_is_rejected() {
        use crate::codec::*;
        let mut buf = Vec::new();
        put_magic(&mut buf, b"TSSSPG02").unwrap();
        let mut header = Vec::new();
        put_usize(&mut header, 32).unwrap();
        put_usize(&mut header, 2).unwrap();
        put_usize(&mut header, 2).unwrap();
        put_u32(&mut header, 0).unwrap();
        put_u32(&mut header, 0).unwrap();
        put_checked_block(&mut buf, &header).unwrap();
        for _ in 0..2 {
            let page = vec![0u8; 32];
            put_u32(&mut buf, crc32(&page)).unwrap();
            buf.extend_from_slice(&page);
        }
        let err = PageFile::read_from(&mut std::io::Cursor::new(buf)).unwrap_err();
        assert!(err.to_string().contains("duplicate free-list entry"));
    }
}
