//! The paged raw-series data file.
//!
//! The paper's Figure 5 charges the sequential scan
//! `0.65 M values × 8 B / 4 KB ≈ 1300` page reads — i.e. the raw values live
//! densely packed in pages, in arrival order, regardless of series
//! boundaries. [`PagedSeriesStore`] reproduces that layout exactly: an
//! append-only log of `f64`s, 512 per 4 KB page, with per-series **extent**
//! lists mapping `(series, offset)` ranges onto global positions (so series
//! can keep growing after others were added — the paper's "data are
//! collected regularly" requirement — without disturbing the dense packing).
//!
//! All reads go through the buffer pool, so the post-processing
//! (verification) I/O of the tree search and the full-file I/O of the
//! sequential scan are both measured in real page accesses.
//!
//! Persistence uses format `TSSSDF02`: an 8-byte versioned magic, a
//! CRC-checked metadata block (catalogue, extent tables, page ids), then the
//! page file with its own per-page checksums. Loading re-validates every
//! structural invariant the read path relies on — extent contiguity, page-id
//! range, page/value arithmetic — so a corrupt file surfaces as
//! `InvalidData`, never as a panic or a wrong answer.

// analyze::allow-file(index): `names`/`lengths`/`extents` are parallel vectors mutated together, and every public entry point validates the series index against `names.len()` before touching the others; page indices come from `pos / values_per_page` arithmetic bounded by allocation in `append_globally`, and `read_from` re-validates page ids and extent coverage before the vectors are trusted.

use tsss_storage::codec::{
    expect_versioned_magic, get_checked_block, get_string, get_u32, get_usize, put_checked_block,
    put_magic, put_string, put_u32, put_usize, versioned_magic,
};
use tsss_storage::{BufferPool, Page, PageFile, PageId, ReadAhead};

use crate::error::EngineError;

/// Magic prefix of the persisted data-file format.
const MAGIC_PREFIX: &[u8; 6] = b"TSSSDF";
/// Current format version (`TSSSDF02`).
const VERSION: u8 = 2;
/// Upper bound on the metadata block (catalogue + extent tables); sized for
/// heavily fragmented multi-series data sets.
const MAX_META_BYTES: usize = 1 << 26;

/// One contiguous run of a series' values in the global log.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Extent {
    /// Offset of the run's first value within its series.
    series_offset: usize,
    /// Global position of the run's first value.
    global_start: usize,
    /// Number of values in the run.
    len: usize,
}

/// Append-only paged store of time-series values.
#[derive(Debug)]
pub struct PagedSeriesStore {
    pool: BufferPool,
    pages: Vec<PageId>,
    values_per_page: usize,
    total: usize,
    names: Vec<String>,
    extents: Vec<Vec<Extent>>,
    lengths: Vec<usize>,
}

impl PagedSeriesStore {
    /// Creates an empty store with the given page size and buffer capacity.
    ///
    /// # Panics
    /// Panics when a page cannot hold at least one value.
    pub fn new(page_size: usize, buffer_frames: usize) -> Self {
        assert!(
            page_size >= 8 && page_size.is_multiple_of(8),
            "page size must be a positive multiple of 8 bytes"
        );
        // analyze::allow(panic): the assert directly above established the documented `# Panics` precondition PageFile::new checks.
        let file = PageFile::new(page_size).expect("page size was just validated");
        Self {
            pool: BufferPool::new(file, buffer_frames),
            pages: Vec::new(),
            values_per_page: page_size / 8,
            total: 0,
            names: Vec::new(),
            extents: Vec::new(),
            lengths: Vec::new(),
        }
    }

    /// Number of series.
    pub fn num_series(&self) -> usize {
        self.names.len()
    }

    /// Length (in values) of series `s`.
    ///
    /// # Errors
    /// [`EngineError::UnknownSeries`] for an out-of-range index.
    pub fn series_len(&self, s: usize) -> Result<usize, EngineError> {
        self.lengths
            .get(s)
            .copied()
            .ok_or(EngineError::UnknownSeries(s))
    }

    /// Name of series `s`.
    ///
    /// # Errors
    /// [`EngineError::UnknownSeries`] for an out-of-range index.
    pub fn series_name(&self, s: usize) -> Result<&str, EngineError> {
        self.names
            .get(s)
            .map(String::as_str)
            .ok_or(EngineError::UnknownSeries(s))
    }

    /// Total stored values across all series.
    pub fn total_values(&self) -> usize {
        self.total
    }

    /// Number of data pages — what a sequential scan must read
    /// (`⌈total · 8 / page_size⌉`, the paper's ≈ 1300).
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Shared page-access counters of the data file.
    pub fn stats(&self) -> std::sync::Arc<tsss_storage::AccessStats> {
        self.pool.stats()
    }

    /// Drops buffered frames so the next access pattern starts cold.
    ///
    /// # Errors
    /// [`EngineError::Corrupt`] when flushing a dirty frame fails.
    pub fn clear_cache(&self) -> Result<(), EngineError> {
        self.pool.clear_cache()?;
        Ok(())
    }

    /// A copy-on-write twin of the store: the same catalogue and extent
    /// tables over a [`BufferPool::fork`] of its pages, with a cold cache
    /// and fresh access counters. Neither store sees the other's later
    /// appends or damage.
    ///
    /// # Errors
    /// [`EngineError::Corrupt`] when flushing a dirty frame fails.
    pub fn fork(&self) -> Result<Self, EngineError> {
        Ok(Self {
            pool: self.pool.fork()?,
            pages: self.pages.clone(),
            values_per_page: self.values_per_page,
            total: self.total,
            names: self.names.clone(),
            extents: self.extents.clone(),
            lengths: self.lengths.clone(),
        })
    }

    /// Wraps the underlying page store — the hook the fault-injection layer
    /// uses to interpose on data-file I/O.
    pub fn wrap_store(
        &mut self,
        wrap: impl FnOnce(Box<dyn tsss_storage::PageStore>) -> Box<dyn tsss_storage::PageStore>,
    ) {
        self.pool.wrap_store(wrap);
    }

    /// Mutates the raw bytes of the `nth` data page in place, bypassing the
    /// checksum layer — corruption-testing hook.
    ///
    /// # Errors
    /// [`EngineError::UnknownSeries`]-style range errors surface as
    /// [`EngineError::Corrupt`] via the storage layer.
    pub fn corrupt_page(
        &mut self,
        nth: usize,
        f: &mut dyn FnMut(&mut [u8]),
    ) -> Result<(), EngineError> {
        let &pid = self.pages.get(nth).ok_or(EngineError::Corrupt {
            detail: format!("data page index {nth} out of range"),
            page: None,
        })?;
        self.pool.corrupt_page(pid, f)?;
        Ok(())
    }

    /// Registers a new, empty series and returns its index.
    pub fn add_series(&mut self, name: impl Into<String>) -> usize {
        self.names.push(name.into());
        self.extents.push(Vec::new());
        self.lengths.push(0);
        self.names.len() - 1
    }

    /// Appends values to an existing series (the paper's "data sequences are
    /// collected regularly").
    ///
    /// # Errors
    /// [`EngineError::UnknownSeries`] for an out-of-range index;
    /// [`EngineError::Corrupt`] when the storage layer fails mid-append.
    pub fn append(&mut self, series: usize, values: &[f64]) -> Result<(), EngineError> {
        if series >= self.names.len() {
            return Err(EngineError::UnknownSeries(series));
        }
        if values.is_empty() {
            return Ok(());
        }
        let global_start = self.append_globally(values)?;
        let series_offset = self.lengths[series];
        // Merge with the previous extent when the run is contiguous both in
        // the series and in the log (the common build-time case).
        let extents = &mut self.extents[series];
        if let Some(last) = extents.last_mut() {
            if last.series_offset + last.len == series_offset
                && last.global_start + last.len == global_start
            {
                last.len += values.len();
                self.lengths[series] += values.len();
                return Ok(());
            }
        }
        extents.push(Extent {
            series_offset,
            global_start,
            len: values.len(),
        });
        self.lengths[series] += values.len();
        Ok(())
    }

    /// Convenience: add a named series with initial contents.
    ///
    /// # Errors
    /// [`EngineError::Corrupt`] when the storage layer fails mid-append.
    pub fn add_series_with_values(
        &mut self,
        name: impl Into<String>,
        values: &[f64],
    ) -> Result<usize, EngineError> {
        let s = self.add_series(name);
        self.append(s, values)?;
        Ok(s)
    }

    fn append_globally(&mut self, values: &[f64]) -> Result<usize, EngineError> {
        let start = self.total;
        let vpp = self.values_per_page;
        let mut pos = start;
        let mut remaining = values;
        while !remaining.is_empty() {
            let page_idx = pos / vpp;
            let slot = pos % vpp;
            if page_idx == self.pages.len() {
                self.pages.push(self.pool.allocate()?);
            }
            let page_id = self.pages[page_idx];
            let take = (vpp - slot).min(remaining.len());
            // Read-modify-write of the tail page (a fresh page is zeroed, so
            // reading it is still well-defined).
            let mut page = if slot == 0 {
                Page::zeroed(vpp * 8)
            } else {
                self.pool.read(page_id)?
            };
            page.put_f64_slice(slot * 8, &remaining[..take]);
            self.pool.write(page_id, page)?;
            pos += take;
            remaining = &remaining[take..];
        }
        self.total = pos;
        Ok(start)
    }

    /// Fetches the window `series[offset .. offset + len]`, charging one read
    /// per distinct page touched.
    ///
    /// # Errors
    /// [`EngineError::UnknownSeries`] for a bad series index;
    /// [`EngineError::Corrupt`] when the window runs past the end of the
    /// series or the extent table does not cover it (a corrupt index can
    /// request windows that were never appended), or when the storage layer
    /// detects page damage.
    pub fn fetch_window(
        &self,
        series: usize,
        offset: usize,
        len: usize,
    ) -> Result<Vec<f64>, EngineError> {
        let mut out = Vec::with_capacity(len);
        self.fetch_window_into(series, offset, len, &mut out)?;
        Ok(out)
    }

    /// Like [`PagedSeriesStore::fetch_window`], but appends into a
    /// caller-owned buffer so the verification hot loop can reuse one
    /// allocation across candidates. The buffer is cleared first; its
    /// contents are unspecified after an error.
    ///
    /// # Errors
    /// Same contract as [`PagedSeriesStore::fetch_window`].
    pub fn fetch_window_into(
        &self,
        series: usize,
        offset: usize,
        len: usize,
        out: &mut Vec<f64>,
    ) -> Result<(), EngineError> {
        out.clear();
        if series >= self.names.len() {
            return Err(EngineError::UnknownSeries(series));
        }
        let corrupt = |detail: String| EngineError::Corrupt { detail, page: None };
        let end = offset.saturating_add(len);
        if end > self.lengths[series] {
            return Err(corrupt(format!(
                "window [{offset}, {end}) exceeds series {series} of length {}",
                self.lengths[series]
            )));
        }
        if len == 0 {
            return Ok(());
        }
        out.reserve(len);
        let extents = &self.extents[series];
        // Locate the first extent containing `offset`.
        let mut idx = match extents.binary_search_by(|e| e.series_offset.cmp(&offset)) {
            Ok(i) => i,
            Err(0) => {
                return Err(corrupt(format!(
                    "no extent covers offset {offset} of series {series}"
                )))
            }
            Err(i) => i - 1, // the extent starting before `offset`
        };
        let mut want = offset;
        let mut last_page: Option<usize> = None;
        let mut cached_page: Option<Page> = None;
        while want < end {
            let e = extents.get(idx).ok_or_else(|| {
                corrupt(format!(
                    "extent table of series {series} ends before offset {want}"
                ))
            })?;
            if !(e.series_offset <= want && want < e.series_offset + e.len) {
                return Err(corrupt(format!(
                    "extent table of series {series} is not contiguous at offset {want}"
                )));
            }
            let within = want - e.series_offset;
            let run = (e.len - within).min(end - want);
            let gstart = e.global_start + within;
            let gend = gstart + run;
            // Decode the run page by page as contiguous byte slices; the
            // cached page (and the read charge) persists across extent runs,
            // exactly like the old value-at-a-time loop.
            let mut g = gstart;
            while g < gend {
                let page_idx = g / self.values_per_page;
                let slot = g % self.values_per_page;
                let take = (self.values_per_page - slot).min(gend - g);
                if last_page != Some(page_idx) {
                    let &pid = self.pages.get(page_idx).ok_or_else(|| {
                        corrupt(format!(
                            "global position {g} lies past the data file's {} pages",
                            self.pages.len()
                        ))
                    })?;
                    cached_page = Some(self.pool.read(pid)?);
                    last_page = Some(page_idx);
                }
                // analyze::allow(panic): `cached_page` is assigned whenever `last_page` changes, and `last_page` starts None, so the first iteration always fills it.
                let page = cached_page.as_ref().expect("just cached");
                page.extend_f64_slice(slot * 8, take, out);
                g += take;
            }
            want += run;
            idx += 1;
        }
        Ok(())
    }

    /// Serialises the store (catalogue + page file) to a writer.
    ///
    /// # Errors
    /// Propagates I/O errors; storage-layer failures (a dirty frame that no
    /// longer verifies) surface as `InvalidData`.
    pub fn write_to<W: std::io::Write + ?Sized>(&self, w: &mut W) -> std::io::Result<()> {
        put_magic(w, &versioned_magic(MAGIC_PREFIX, VERSION))?;
        let mut meta = Vec::new();
        put_usize(&mut meta, self.values_per_page)?;
        put_usize(&mut meta, self.total)?;
        put_usize(&mut meta, self.names.len())?;
        for i in 0..self.names.len() {
            put_string(&mut meta, &self.names[i])?;
            put_usize(&mut meta, self.lengths[i])?;
            put_usize(&mut meta, self.extents[i].len())?;
            for e in &self.extents[i] {
                put_usize(&mut meta, e.series_offset)?;
                put_usize(&mut meta, e.global_start)?;
                put_usize(&mut meta, e.len)?;
            }
        }
        put_usize(&mut meta, self.pages.len())?;
        for p in &self.pages {
            put_u32(&mut meta, p.0)?;
        }
        put_checked_block(w, &meta)?;
        // `&mut W` is itself a sized `Write`, which is what lets a
        // possibly-unsized `W` reach `persist(&mut dyn Write)`.
        let mut sink: &mut W = w;
        self.pool
            .with_store(|s| s.persist(&mut sink))
            .map_err(std::io::Error::from)?
    }

    /// Reads a store previously written by [`PagedSeriesStore::write_to`].
    ///
    /// Every structural invariant the read path relies on is re-validated:
    /// extent tables must tile each series contiguously and stay inside the
    /// global log, page ids must be distinct and in range, and the page /
    /// value arithmetic must agree with the page file.
    ///
    /// # Errors
    /// `InvalidData` on malformed or corrupt input; propagates I/O errors.
    pub fn read_from<R: std::io::Read + ?Sized>(
        r: &mut R,
        buffer_frames: usize,
    ) -> std::io::Result<Self> {
        let invalid = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
        expect_versioned_magic(r, MAGIC_PREFIX, VERSION)?;
        let meta = get_checked_block(r, MAX_META_BYTES)?;
        let m = &mut std::io::Cursor::new(meta);
        let values_per_page = get_usize(m)?;
        let total = get_usize(m)?;
        let n_series = get_usize(m)?;
        let mut names = Vec::new();
        let mut lengths = Vec::new();
        let mut extents = Vec::new();
        for _ in 0..n_series {
            names.push(get_string(m)?);
            lengths.push(get_usize(m)?);
            let n_ext = get_usize(m)?;
            let mut es = Vec::new();
            for _ in 0..n_ext {
                es.push(Extent {
                    series_offset: get_usize(m)?,
                    global_start: get_usize(m)?,
                    len: get_usize(m)?,
                });
            }
            extents.push(es);
        }
        let n_pages = get_usize(m)?;
        let mut pages = Vec::new();
        for _ in 0..n_pages {
            pages.push(PageId(get_u32(m)?));
        }
        let file = PageFile::read_from(r)?;
        if file.page_size() < 8
            || !file.page_size().is_multiple_of(8)
            || file.page_size() / 8 != values_per_page
        {
            return Err(invalid(
                "page size disagrees with values-per-page".to_string(),
            ));
        }
        if total.div_ceil(values_per_page) != pages.len() {
            return Err(invalid("page count disagrees with value count".to_string()));
        }
        let mut seen = vec![false; file.extent()];
        for &p in &pages {
            let i = p.0 as usize;
            if p == PageId::INVALID || i >= file.extent() {
                return Err(invalid(format!("data page id {} is out of range", p.0)));
            }
            if std::mem::replace(&mut seen[i], true) {
                return Err(invalid(format!("data page id {} appears twice", p.0)));
            }
        }
        for (s, (es, &len)) in extents.iter().zip(&lengths).enumerate() {
            let mut run = 0usize;
            for e in es {
                if e.len == 0 || e.series_offset != run {
                    return Err(invalid(format!(
                        "extent table of series {s} is not contiguous"
                    )));
                }
                let gend = e
                    .global_start
                    .checked_add(e.len)
                    .ok_or_else(|| invalid(format!("extent of series {s} overflows")))?;
                if gend > total {
                    return Err(invalid(format!(
                        "extent of series {s} runs past the global log"
                    )));
                }
                run = run
                    .checked_add(e.len)
                    .ok_or_else(|| invalid(format!("extent table of series {s} overflows")))?;
            }
            if run != len {
                return Err(invalid(format!(
                    "series {s} length {len} disagrees with its extent table"
                )));
            }
        }
        Ok(Self {
            pool: BufferPool::new(file, buffer_frames),
            pages,
            values_per_page,
            total,
            names,
            extents,
            lengths,
        })
    }

    /// Reads the whole file page by page — exactly once per page — and
    /// reassembles every series. This is the I/O pattern of the sequential
    /// scan baseline (paper experiment set 1).
    ///
    /// # Errors
    /// [`EngineError::Corrupt`] when the storage layer detects page damage.
    pub fn read_everything(&self) -> Result<Vec<Vec<f64>>, EngineError> {
        // One pass over the global log: read-ahead batches the page fetches
        // and each page decodes as one contiguous byte run. Each page is
        // still charged exactly once, in order, so the Figure 5 page counts
        // are untouched.
        let mut global = Vec::with_capacity(self.total);
        let mut scan = ReadAhead::new(&self.pool, &self.pages);
        let mut i = 0usize;
        while let Some(page) = scan.next_page()? {
            let in_page = (self.total - i * self.values_per_page).min(self.values_per_page);
            page.extend_f64_slice(0, in_page, &mut global);
            i += 1;
        }
        // Reassemble per series from extents.
        self.extents
            .iter()
            .zip(&self.lengths)
            .enumerate()
            .map(|(s, (extents, &len))| {
                let mut v = Vec::with_capacity(len);
                for e in extents {
                    let gend = e
                        .global_start
                        .checked_add(e.len)
                        .filter(|&gend| gend <= global.len())
                        .ok_or_else(|| EngineError::Corrupt {
                            detail: format!("extent of series {s} runs past the global log"),
                            page: None,
                        })?;
                    v.extend_from_slice(&global[e.global_start..gend]);
                }
                debug_assert_eq!(v.len(), len);
                Ok(v)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> PagedSeriesStore {
        PagedSeriesStore::new(64, 0) // 8 values per page — forces spanning
    }

    #[test]
    fn empty_store() {
        let s = store();
        assert_eq!(s.num_series(), 0);
        assert_eq!(s.total_values(), 0);
        assert_eq!(s.page_count(), 0);
    }

    #[test]
    fn add_and_fetch_within_one_page() {
        let mut s = store();
        let a = s
            .add_series_with_values("a", &[1.0, 2.0, 3.0, 4.0])
            .unwrap();
        assert_eq!(s.fetch_window(a, 1, 2).unwrap(), vec![2.0, 3.0]);
        assert_eq!(s.series_len(a).unwrap(), 4);
        assert_eq!(s.series_name(a).unwrap(), "a");
    }

    #[test]
    fn windows_spanning_pages() {
        let mut s = store();
        let vals: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let a = s.add_series_with_values("a", &vals).unwrap();
        assert_eq!(s.page_count(), 4); // 30 values / 8 per page
        for off in 0..=20 {
            assert_eq!(s.fetch_window(a, off, 10).unwrap(), vals[off..off + 10]);
        }
    }

    #[test]
    fn interleaved_appends_create_extents() {
        let mut s = store();
        let a = s.add_series("a");
        let b = s.add_series("b");
        s.append(a, &[1.0, 2.0, 3.0]).unwrap();
        s.append(b, &[10.0, 20.0]).unwrap();
        s.append(a, &[4.0, 5.0, 6.0]).unwrap(); // non-contiguous in the log
        s.append(b, &[30.0]).unwrap();
        assert_eq!(
            s.fetch_window(a, 0, 6).unwrap(),
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        );
        assert_eq!(s.fetch_window(a, 2, 3).unwrap(), vec![3.0, 4.0, 5.0]);
        assert_eq!(s.fetch_window(b, 0, 3).unwrap(), vec![10.0, 20.0, 30.0]);
    }

    #[test]
    fn contiguous_appends_merge_extents() {
        let mut s = store();
        let a = s.add_series("a");
        s.append(a, &[1.0, 2.0]).unwrap();
        s.append(a, &[3.0, 4.0]).unwrap(); // still contiguous in the log
        assert_eq!(s.extents[a].len(), 1, "extents should merge");
        assert_eq!(s.fetch_window(a, 0, 4).unwrap(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn read_everything_reassembles_and_charges_each_page_once() {
        let mut s = store();
        let a = s.add_series("a");
        let b = s.add_series("b");
        s.append(a, &(0..13).map(|i| i as f64).collect::<Vec<_>>())
            .unwrap();
        s.append(b, &(100..120).map(|i| i as f64).collect::<Vec<_>>())
            .unwrap();
        s.append(a, &(13..20).map(|i| i as f64).collect::<Vec<_>>())
            .unwrap();
        s.stats().reset();
        let all = s.read_everything().unwrap();
        assert_eq!(s.stats().reads(), s.page_count() as u64);
        assert_eq!(all[a], (0..20).map(|i| i as f64).collect::<Vec<_>>());
        assert_eq!(all[b], (100..120).map(|i| i as f64).collect::<Vec<_>>());
    }

    #[test]
    fn fetch_window_charges_distinct_pages() {
        let mut s = store();
        let vals: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let a = s.add_series_with_values("a", &vals).unwrap();
        s.stats().reset();
        // Window of 10 values starting at 6 spans pages 0 and 1 (8 values per page).
        let _ = s.fetch_window(a, 6, 10).unwrap();
        assert_eq!(s.stats().reads(), 2);
    }

    #[test]
    fn unknown_series_is_an_error() {
        let mut s = store();
        assert_eq!(
            s.fetch_window(0, 0, 1).unwrap_err(),
            EngineError::UnknownSeries(0)
        );
        assert_eq!(s.series_len(3).unwrap_err(), EngineError::UnknownSeries(3));
        assert_eq!(
            s.append(1, &[1.0]).unwrap_err(),
            EngineError::UnknownSeries(1)
        );
    }

    #[test]
    fn overlong_window_is_a_typed_error() {
        let mut s = store();
        let a = s.add_series_with_values("a", &[1.0, 2.0]).unwrap();
        let err = s.fetch_window(a, 1, 5).unwrap_err();
        assert!(err.is_corruption(), "{err:?}");
        assert!(err.to_string().contains("exceeds series"), "{err}");
    }

    #[test]
    fn corrupt_data_page_is_detected_at_read_time() {
        let mut s = store();
        let a = s
            .add_series_with_values("a", &(0..20).map(|i| i as f64).collect::<Vec<_>>())
            .unwrap();
        s.corrupt_page(1, &mut |bytes| bytes[3] ^= 0x40).unwrap();
        // Page 0 still reads fine; page 1 fails the checksum.
        assert!(s.fetch_window(a, 0, 8).is_ok());
        let err = s.fetch_window(a, 8, 8).unwrap_err();
        assert!(err.is_corruption(), "{err:?}");
        assert!(s.read_everything().unwrap_err().is_corruption());
    }

    #[test]
    fn paper_page_arithmetic() {
        // 4 KB pages hold 512 values; 650 000 values need 1270 pages —
        // the paper rounds to "≈ 1300".
        let mut s = PagedSeriesStore::new(4096, 0);
        let a = s.add_series("big");
        let chunk = vec![1.5; 10_000];
        for _ in 0..65 {
            s.append(a, &chunk).unwrap();
        }
        assert_eq!(s.total_values(), 650_000);
        assert_eq!(s.page_count(), 650_000usize.div_ceil(512));
        assert_eq!(s.page_count(), 1270);
    }

    fn sample() -> PagedSeriesStore {
        let mut s = store();
        let a = s.add_series("alpha");
        let b = s.add_series("beta");
        s.append(a, &(0..13).map(|i| i as f64).collect::<Vec<_>>())
            .unwrap();
        s.append(b, &(100..120).map(|i| i as f64).collect::<Vec<_>>())
            .unwrap();
        s.append(a, &(13..20).map(|i| i as f64).collect::<Vec<_>>())
            .unwrap();
        s
    }

    #[test]
    fn write_read_roundtrip() {
        let s = sample();
        let mut buf = Vec::new();
        s.write_to(&mut buf).unwrap();
        let back = PagedSeriesStore::read_from(&mut std::io::Cursor::new(buf), 0).unwrap();
        assert_eq!(back.num_series(), 2);
        assert_eq!(back.series_name(0).unwrap(), "alpha");
        assert_eq!(
            back.read_everything().unwrap(),
            s.read_everything().unwrap()
        );
    }

    #[test]
    fn old_version_is_rejected_with_a_version_message() {
        let s = sample();
        let mut buf = Vec::new();
        s.write_to(&mut buf).unwrap();
        buf[6] = b'0';
        buf[7] = b'1';
        let err = PagedSeriesStore::read_from(&mut std::io::Cursor::new(buf), 0).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn truncation_anywhere_is_an_error_not_a_panic() {
        let s = sample();
        let mut buf = Vec::new();
        s.write_to(&mut buf).unwrap();
        for cut in [0, 3, 8, 20, 100, buf.len() / 2, buf.len() - 1] {
            let short = buf[..cut].to_vec();
            assert!(
                PagedSeriesStore::read_from(&mut std::io::Cursor::new(short), 0).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }

    #[test]
    fn sampled_bit_flips_anywhere_in_the_stream_are_rejected() {
        let s = sample();
        let mut buf = Vec::new();
        s.write_to(&mut buf).unwrap();
        for pos in (0..buf.len()).step_by(37) {
            let mut bad = buf.clone();
            bad[pos] ^= 1 << (pos % 8);
            assert!(
                PagedSeriesStore::read_from(&mut std::io::Cursor::new(bad), 0).is_err(),
                "bit flip at byte {pos} must be detected"
            );
        }
    }

    #[test]
    fn hostile_page_table_is_rejected() {
        let s = sample();
        // Re-encode with an out-of-range page id but a valid block CRC —
        // the structural validation, not the checksum, must catch it.
        let mut buf = Vec::new();
        put_magic(&mut buf, &versioned_magic(MAGIC_PREFIX, VERSION)).unwrap();
        let mut meta = Vec::new();
        put_usize(&mut meta, s.values_per_page).unwrap();
        put_usize(&mut meta, 8).unwrap(); // one page worth of values
        put_usize(&mut meta, 1).unwrap();
        put_string(&mut meta, "alpha").unwrap();
        put_usize(&mut meta, 8).unwrap();
        put_usize(&mut meta, 1).unwrap();
        for v in [0usize, 0, 8] {
            put_usize(&mut meta, v).unwrap();
        }
        put_usize(&mut meta, 1).unwrap();
        put_u32(&mut meta, 999).unwrap(); // page id far past the file extent
        put_checked_block(&mut buf, &meta).unwrap();
        s.pool
            .with_store(|st| st.persist(&mut buf))
            .unwrap()
            .unwrap();
        let err = PagedSeriesStore::read_from(&mut std::io::Cursor::new(buf), 0).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn inconsistent_extent_table_is_rejected() {
        let s = sample();
        let mut buf = Vec::new();
        put_magic(&mut buf, &versioned_magic(MAGIC_PREFIX, VERSION)).unwrap();
        let mut meta = Vec::new();
        put_usize(&mut meta, s.values_per_page).unwrap();
        put_usize(&mut meta, 8).unwrap();
        put_usize(&mut meta, 1).unwrap();
        put_string(&mut meta, "alpha").unwrap();
        put_usize(&mut meta, 8).unwrap();
        put_usize(&mut meta, 1).unwrap();
        // Extent starts at series offset 4, so [0, 4) is uncovered.
        for v in [4usize, 0, 4] {
            put_usize(&mut meta, v).unwrap();
        }
        put_usize(&mut meta, 1).unwrap();
        put_u32(&mut meta, 0).unwrap();
        put_checked_block(&mut buf, &meta).unwrap();
        s.pool
            .with_store(|st| st.persist(&mut buf))
            .unwrap()
            .unwrap();
        let err = PagedSeriesStore::read_from(&mut std::io::Cursor::new(buf), 0).unwrap_err();
        assert!(
            err.to_string().contains("not contiguous") || err.to_string().contains("disagrees"),
            "{err}"
        );
    }
}
