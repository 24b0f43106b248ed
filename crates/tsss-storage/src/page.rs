//! Fixed-size pages with typed cursor-style encode/decode helpers.
//!
//! A [`Page`] is the unit of transfer between the simulated disk and the
//! access methods. The paper uses 4 KB pages with one R*-tree node per page
//! (§7); [`DEFAULT_PAGE_SIZE`] matches that. Index nodes and raw-series data
//! are serialised into pages with the little-endian fixed-width helpers
//! below — deliberately simple, deterministic, and alignment-free.

// analyze::allow-file(index): the typed accessors deliberately bounds-check through slice indexing — an out-of-range offset is a caller logic error with a documented `# Panics` contract, and every caller derives offsets from layout constants validated against the page size.

/// The paper's page size: 4 KBytes (§7), kept as the default.
///
/// The A5 ablation (`results/ablation_page.txt`, reproduced with
/// `cargo run --release -p tsss-bench --bin ablation_page`) sweeps 1–16 KB:
/// larger pages buy fewer page accesses roughly linearly but cost
/// proportionally more CPU per touched page, and 4 KB sits at the knee —
/// matching both the paper's setting and the common filesystem block size.
pub const DEFAULT_PAGE_SIZE: usize = 4096;

/// A fixed-size byte page.
///
/// Cloning a page is an explicit byte copy; the store hands out clones so
/// callers can never alias its frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Page {
    bytes: Box<[u8]>,
}

impl Page {
    /// A zero-filled page of `size` bytes.
    ///
    /// For hostile (user- or file-supplied) sizes use [`Page::try_zeroed`];
    /// this variant is for sizes already validated upstream.
    ///
    /// # Panics
    /// Panics when `size == 0`.
    pub fn zeroed(size: usize) -> Self {
        // analyze::allow(panic): documented `# Panics` contract; the fallible twin is `try_zeroed`.
        Self::try_zeroed(size).expect("page size must be positive")
    }

    /// A zero-filled page of `size` bytes, rejecting hostile sizes with a
    /// typed error instead of a panic.
    ///
    /// # Errors
    /// [`crate::StorageError::BadPageSize`] when `size == 0`.
    pub fn try_zeroed(size: usize) -> Result<Self, crate::error::StorageError> {
        if size == 0 {
            return Err(crate::error::StorageError::BadPageSize { size });
        }
        Ok(Self {
            bytes: vec![0u8; size].into_boxed_slice(),
        })
    }

    /// Page capacity in bytes.
    pub fn size(&self) -> usize {
        self.bytes.len()
    }

    /// Read-only view of the raw bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Mutable view of the raw bytes.
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.bytes
    }

    /// Writes an `f64` at byte offset `off` (little-endian).
    ///
    /// # Panics
    /// Panics when the value does not fit the page.
    pub fn put_f64(&mut self, off: usize, v: f64) {
        self.bytes[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Reads an `f64` from byte offset `off`.
    pub fn get_f64(&self, off: usize) -> f64 {
        let mut buf = [0u8; 8];
        buf.copy_from_slice(&self.bytes[off..off + 8]);
        f64::from_le_bytes(buf)
    }

    /// Writes a `u64` at byte offset `off`.
    pub fn put_u64(&mut self, off: usize, v: u64) {
        self.bytes[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Reads a `u64` from byte offset `off`.
    pub fn get_u64(&self, off: usize) -> u64 {
        let mut buf = [0u8; 8];
        buf.copy_from_slice(&self.bytes[off..off + 8]);
        u64::from_le_bytes(buf)
    }

    /// Writes a `u32` at byte offset `off`.
    pub fn put_u32(&mut self, off: usize, v: u32) {
        self.bytes[off..off + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Reads a `u32` from byte offset `off`.
    pub fn get_u32(&self, off: usize) -> u32 {
        let mut buf = [0u8; 4];
        buf.copy_from_slice(&self.bytes[off..off + 4]);
        u32::from_le_bytes(buf)
    }

    /// Writes a `u16` at byte offset `off`.
    pub fn put_u16(&mut self, off: usize, v: u16) {
        self.bytes[off..off + 2].copy_from_slice(&v.to_le_bytes());
    }

    /// Reads a `u16` from byte offset `off`.
    pub fn get_u16(&self, off: usize) -> u16 {
        let mut buf = [0u8; 2];
        buf.copy_from_slice(&self.bytes[off..off + 2]);
        u16::from_le_bytes(buf)
    }

    /// Writes a single byte at offset `off`.
    pub fn put_u8(&mut self, off: usize, v: u8) {
        self.bytes[off] = v;
    }

    /// Reads a single byte from offset `off`.
    pub fn get_u8(&self, off: usize) -> u8 {
        self.bytes[off]
    }

    /// Writes a contiguous run of `f64`s starting at byte offset `off`;
    /// returns the offset just past the run.
    ///
    /// One bounds check up front, then a chunked byte loop the compiler can
    /// keep in registers — the bulk encoder for slab-format leaf pages and
    /// data-file runs. Pure byte reinterpretation, so trivially bit-exact.
    pub fn put_f64_slice(&mut self, off: usize, vs: &[f64]) -> usize {
        let end = off + vs.len() * 8;
        let dst = &mut self.bytes[off..end];
        for (chunk, &v) in dst.chunks_exact_mut(8).zip(vs) {
            chunk.copy_from_slice(&v.to_le_bytes());
        }
        end
    }

    /// Reads `out.len()` consecutive `f64`s starting at byte offset `off`;
    /// returns the offset just past the run.
    ///
    /// The bulk decoder twin of [`put_f64_slice`](Self::put_f64_slice):
    /// one bounds check, then a chunked loop over the byte range.
    pub fn get_f64_slice(&self, off: usize, out: &mut [f64]) -> usize {
        let end = off + out.len() * 8;
        let src = &self.bytes[off..end];
        for (chunk, v) in src.chunks_exact(8).zip(out) {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(chunk);
            *v = f64::from_le_bytes(buf);
        }
        end
    }

    /// Appends `out.len()`-agnostic: decodes `count` consecutive `f64`s
    /// starting at byte offset `off` onto the end of `out`; returns the
    /// offset just past the run.
    ///
    /// This is the append-flavoured bulk decoder the columnar read path
    /// uses to fill window/series slabs without zero-initialising first.
    pub fn extend_f64_slice(&self, off: usize, count: usize, out: &mut Vec<f64>) -> usize {
        let end = off + count * 8;
        let src = &self.bytes[off..end];
        out.reserve(count);
        for chunk in src.chunks_exact(8) {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(chunk);
            out.push(f64::from_le_bytes(buf));
        }
        end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_page_is_all_zero() {
        let p = Page::zeroed(64);
        assert_eq!(p.size(), 64);
        assert!(p.bytes().iter().all(|&b| b == 0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_size_page_panics() {
        let _ = Page::zeroed(0);
    }

    #[test]
    fn try_zeroed_rejects_zero_size_with_typed_error() {
        assert_eq!(
            Page::try_zeroed(0).unwrap_err(),
            crate::error::StorageError::BadPageSize { size: 0 }
        );
        assert_eq!(Page::try_zeroed(16).unwrap().size(), 16);
    }

    #[test]
    fn f64_roundtrip_preserves_bits() {
        let mut p = Page::zeroed(DEFAULT_PAGE_SIZE);
        for (i, v) in [0.0, -0.0, 1.5, f64::MAX, f64::MIN_POSITIVE, -12345.6789]
            .iter()
            .enumerate()
        {
            p.put_f64(i * 8, *v);
            assert_eq!(p.get_f64(i * 8).to_bits(), v.to_bits());
        }
    }

    #[test]
    fn integer_roundtrips() {
        let mut p = Page::zeroed(32);
        p.put_u64(0, u64::MAX - 7);
        p.put_u32(8, 0xDEAD_BEEF);
        p.put_u16(12, 65533);
        p.put_u8(14, 200);
        assert_eq!(p.get_u64(0), u64::MAX - 7);
        assert_eq!(p.get_u32(8), 0xDEAD_BEEF);
        assert_eq!(p.get_u16(12), 65533);
        assert_eq!(p.get_u8(14), 200);
    }

    #[test]
    fn unaligned_offsets_work() {
        let mut p = Page::zeroed(32);
        p.put_f64(3, 2.25);
        assert_eq!(p.get_f64(3), 2.25);
    }

    #[test]
    fn slice_roundtrip_returns_advancing_offsets() {
        let mut p = Page::zeroed(128);
        let vs = [1.0, 2.0, 3.0, 4.5];
        let end = p.put_f64_slice(16, &vs);
        assert_eq!(end, 16 + 32);
        let mut out = [0.0; 4];
        let end2 = p.get_f64_slice(16, &mut out);
        assert_eq!(end2, end);
        assert_eq!(out, vs);
    }

    #[test]
    fn extend_f64_slice_appends_bit_exact() {
        let mut p = Page::zeroed(128);
        let vs = [0.0, -0.0, f64::MAX, 1.0 / 3.0, -12345.6789];
        let end = p.put_f64_slice(8, &vs);
        let mut out = vec![7.0];
        let end2 = p.extend_f64_slice(8, 5, &mut out);
        assert_eq!(end2, end);
        assert_eq!(out.len(), 6);
        assert_eq!(out[0], 7.0);
        for (got, want) in out[1..].iter().zip(&vs) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn slice_codecs_roundtrip_bits_at_odd_offsets() {
        let mut p = Page::zeroed(256);
        let vs: Vec<f64> = (0..17).map(|i| f64::from(i) * 0.1 - 0.5).collect();
        let end = p.put_f64_slice(3, &vs);
        assert_eq!(end, 3 + 17 * 8);
        let mut out = vec![0.0; 17];
        p.get_f64_slice(3, &mut out);
        for (got, want) in out.iter().zip(&vs) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_write_panics() {
        let mut p = Page::zeroed(8);
        p.put_f64(1, 1.0); // bytes 1..9 exceed the 8-byte page
    }
}
