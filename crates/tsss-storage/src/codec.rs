//! Minimal little-endian binary codec for persistence.
//!
//! The workspace persists engines to single files (see `RTree::save_to` and
//! `SearchEngine::save_to_path`). Rather than pulling in a serialisation
//! framework, the handful of primitive shapes needed — fixed-width
//! integers, floats, length-prefixed strings and byte runs — are encoded
//! with these helpers. Everything is little-endian and explicitly sized, so
//! files are portable across platforms.

// analyze::allow-file(index): every index here is a literal into a fixed-size array it provably fits — the 8-byte magic buffer, the 256-entry CRC table (index masked with `& 0xFF`), and single-byte scratch buffers just filled by `read_exact`.

use std::io::{self, Read, Write};

/// Writes a `u8`.
pub fn put_u8<W: Write + ?Sized>(w: &mut W, v: u8) -> io::Result<()> {
    w.write_all(&[v])
}

/// Reads a `u8`.
pub fn get_u8<R: Read + ?Sized>(r: &mut R) -> io::Result<u8> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

/// Writes a `u32` (little-endian).
pub fn put_u32<W: Write + ?Sized>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Reads a `u32`.
pub fn get_u32<R: Read + ?Sized>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

/// Writes a `u64` (little-endian).
pub fn put_u64<W: Write + ?Sized>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Reads a `u64`.
pub fn get_u64<R: Read + ?Sized>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Writes a `usize` as `u64`.
pub fn put_usize<W: Write + ?Sized>(w: &mut W, v: usize) -> io::Result<()> {
    put_u64(w, v as u64)
}

/// Reads a `usize` (stored as `u64`).
///
/// # Errors
/// `InvalidData` when the stored value does not fit this platform's
/// `usize`.
pub fn get_usize<R: Read + ?Sized>(r: &mut R) -> io::Result<usize> {
    let v = get_u64(r)?;
    usize::try_from(v)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "usize overflow in stream"))
}

/// Writes an `f64` (little-endian bit pattern).
pub fn put_f64<W: Write + ?Sized>(w: &mut W, v: f64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Reads an `f64`.
pub fn get_f64<R: Read + ?Sized>(r: &mut R) -> io::Result<f64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(f64::from_le_bytes(b))
}

/// Writes a length-prefixed UTF-8 string.
pub fn put_string<W: Write + ?Sized>(w: &mut W, s: &str) -> io::Result<()> {
    put_usize(w, s.len())?;
    w.write_all(s.as_bytes())
}

/// Reads a length-prefixed UTF-8 string. The buffer grows only as the
/// stream supplies bytes, so a hostile length prefix cannot reserve memory
/// the stream does not back.
///
/// # Errors
/// `InvalidData` on malformed UTF-8 or an absurd length prefix;
/// `UnexpectedEof` when the stream ends before the declared length.
pub fn get_string<R: Read + ?Sized>(r: &mut R) -> io::Result<String> {
    let len = get_u64(r)?;
    if len > (1 << 32) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "string length prefix too large",
        ));
    }
    let mut buf = Vec::new();
    let read = Read::take(&mut *r, len).read_to_end(&mut buf)?;
    if u64::try_from(read) != Ok(len) {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("string ends after {read} of {len} bytes"),
        ));
    }
    String::from_utf8(buf)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "invalid UTF-8 in stream"))
}

/// Writes an 8-byte ASCII magic tag.
pub fn put_magic<W: Write + ?Sized>(w: &mut W, magic: &[u8; 8]) -> io::Result<()> {
    w.write_all(magic)
}

/// Builds the 8-byte magic `<prefix><two ASCII decimal version digits>`,
/// e.g. `versioned_magic(b"TSSSIX", 2)` → `TSSSIX02`.
pub fn versioned_magic(prefix: &[u8; 6], version: u8) -> [u8; 8] {
    let mut m = [0u8; 8];
    m[..6].copy_from_slice(prefix);
    m[6] = b'0' + version / 10;
    m[7] = b'0' + version % 10;
    m
}

/// Reads an 8-byte magic tag whose first six bytes name the format and
/// whose last two are an ASCII version number, e.g. `TSSSIX02`.
///
/// Distinguishes *not this kind of file* (prefix mismatch) from *a future
/// or past version of this kind of file* (prefix matches, version differs),
/// so callers can give users an actionable message.
///
/// # Errors
/// `InvalidData` in both cases, with distinct messages.
pub fn expect_versioned_magic<R: Read + ?Sized>(
    r: &mut R,
    prefix: &[u8; 6],
    version: u8,
) -> io::Result<()> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    if &b[..6] != prefix {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "bad magic: expected a {:?} file, found {:?}",
                String::from_utf8_lossy(prefix),
                String::from_utf8_lossy(&b)
            ),
        ));
    }
    let want = [b'0' + version / 10, b'0' + version % 10];
    if b[6..] != want {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "unsupported version: this build reads {}{:02}, file is {:?}",
                String::from_utf8_lossy(prefix),
                version,
                String::from_utf8_lossy(&b)
            ),
        ));
    }
    Ok(())
}

/// CRC-32 (IEEE 802.3, the zlib/PNG polynomial) over `bytes`.
///
/// Table-driven, self-contained (the workspace builds with no external
/// crates). Used as the per-page and per-header checksum throughout the
/// persistence formats: any single bit flip in the covered bytes is
/// guaranteed detected, as are all burst errors up to 32 bits.
///
/// Implemented with slicing-by-8: eight derived tables let the loop fold
/// eight bytes per step instead of one, which matters because the paper's
/// unbuffered experiment setting verifies a 4 KB page checksum on *every*
/// logical page read. The result is bit-identical to the classic
/// byte-at-a-time formulation (the reference-vector test pins it).
// The table construction loop counters are 0..256, comfortably inside u32.
#[allow(clippy::cast_possible_truncation)]
pub fn crc32(bytes: &[u8]) -> u32 {
    // `static`, not `const`: a const item is an rvalue that unoptimised
    // builds re-materialise (all 8 KB of it) at every mention in the loop
    // body, which made each 4 KB checksum cost ~1 ms in debug test runs. A
    // static is one memory location; the initialiser is still evaluated at
    // compile time.
    static TABLES: [[u32; 256]; 8] = {
        let mut tables = [[0u32; 256]; 8];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            tables[0][i] = c;
            i += 1;
        }
        let mut t = 1;
        while t < 8 {
            let mut i = 0;
            while i < 256 {
                let prev = tables[t - 1][i];
                tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
                i += 1;
            }
            t += 1;
        }
        tables
    };
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        // analyze::allow(index): chunks_exact(8) guarantees exactly 8 bytes per chunk.
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ c;
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Writes a length-prefixed, CRC-protected byte block:
/// `len (u64) · crc32 (u32) · bytes`.
///
/// The standard envelope for persistence metadata — paired with
/// [`get_checked_block`], any corruption of the length, the checksum, or
/// the payload itself is detected at read time.
pub fn put_checked_block<W: Write + ?Sized>(w: &mut W, bytes: &[u8]) -> io::Result<()> {
    put_usize(w, bytes.len())?;
    put_u32(w, crc32(bytes))?;
    w.write_all(bytes)
}

/// Reads a block written by [`put_checked_block`], verifying its checksum.
///
/// # Errors
/// `InvalidData` on a length above `max_len` (guards hostile inputs from
/// causing huge allocations) or a checksum mismatch; propagates I/O errors
/// (truncation surfaces as `UnexpectedEof`).
pub fn get_checked_block<R: Read + ?Sized>(r: &mut R, max_len: usize) -> io::Result<Vec<u8>> {
    let len = get_usize(r)?;
    if len > max_len {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("metadata block length {len} exceeds limit {max_len}"),
        ));
    }
    let stored = get_u32(r)?;
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    let actual = crc32(&buf);
    if actual != stored {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("metadata checksum mismatch: stored {stored:#010x}, computed {actual:#010x}"),
        ));
    }
    Ok(buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn primitive_roundtrips() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7).unwrap();
        put_u32(&mut buf, 0xDEAD_BEEF).unwrap();
        put_u64(&mut buf, u64::MAX - 3).unwrap();
        put_usize(&mut buf, 123_456).unwrap();
        put_f64(&mut buf, -0.0).unwrap();
        put_f64(&mut buf, 1e300).unwrap();
        put_string(&mut buf, "héllo").unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(get_u8(&mut r).unwrap(), 7);
        assert_eq!(get_u32(&mut r).unwrap(), 0xDEAD_BEEF);
        assert_eq!(get_u64(&mut r).unwrap(), u64::MAX - 3);
        assert_eq!(get_usize(&mut r).unwrap(), 123_456);
        assert_eq!(get_f64(&mut r).unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(get_f64(&mut r).unwrap(), 1e300);
        assert_eq!(get_string(&mut r).unwrap(), "héllo");
    }

    #[test]
    fn truncated_stream_errors() {
        let mut r = Cursor::new(vec![1u8, 2]);
        assert!(get_u64(&mut r).is_err());
    }

    #[test]
    fn bad_utf8_is_invalid_data() {
        let mut buf = Vec::new();
        put_usize(&mut buf, 2).unwrap();
        buf.extend_from_slice(&[0xFF, 0xFE]);
        let err = get_string(&mut Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn a_string_longer_than_its_stream_is_eof_not_an_allocation() {
        // An 8-byte stream declaring a 4 GiB - 1 string: the reader must run
        // out of bytes, not reserve the declared length first.
        let mut buf = Vec::new();
        put_u64(&mut buf, 0xFFFF_FFFF).unwrap();
        let err = get_string(&mut Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn crc32_matches_reference_vectors() {
        // The standard check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn crc32_slicing_matches_byte_at_a_time_at_every_length() {
        // The classic one-byte-per-step formulation, kept here as the
        // oracle for the slicing-by-8 production kernel.
        fn crc32_naive(bytes: &[u8]) -> u32 {
            let mut c = 0xFFFF_FFFFu32;
            for &b in bytes {
                c ^= u32::from(b);
                for _ in 0..8 {
                    c = if c & 1 != 0 {
                        0xEDB8_8320 ^ (c >> 1)
                    } else {
                        c >> 1
                    };
                }
            }
            c ^ 0xFFFF_FFFF
        }
        let data: Vec<u8> = (0..4096u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for len in (0..64).chain([100, 511, 512, 4095, 4096]) {
            assert_eq!(
                crc32(&data[..len]),
                crc32_naive(&data[..len]),
                "length {len}"
            );
        }
    }

    #[test]
    fn crc32_detects_any_single_bit_flip() {
        let data = b"paged storage under test".to_vec();
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at byte {byte} bit {bit}");
            }
        }
    }

    #[test]
    fn versioned_magic_distinguishes_kind_from_version() {
        let mut buf = Vec::new();
        put_magic(&mut buf, b"TSSSIX02").unwrap();
        expect_versioned_magic(&mut Cursor::new(&buf), b"TSSSIX", 2).unwrap();

        let err = expect_versioned_magic(&mut Cursor::new(&buf), b"TSSSIX", 3).unwrap_err();
        assert!(err.to_string().contains("unsupported version"), "{err}");

        let err = expect_versioned_magic(&mut Cursor::new(&buf), b"TSSSEN", 2).unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");
    }

    #[test]
    fn checked_block_roundtrips_and_rejects_damage() {
        let payload = b"some metadata bytes".to_vec();
        let mut buf = Vec::new();
        put_checked_block(&mut buf, &payload).unwrap();
        assert_eq!(
            get_checked_block(&mut Cursor::new(&buf), 1024).unwrap(),
            payload
        );

        // Any single bit flip anywhere in the envelope is detected.
        for byte in 0..buf.len() {
            let mut damaged = buf.clone();
            damaged[byte] ^= 0x01;
            assert!(
                get_checked_block(&mut Cursor::new(&damaged), 1024).is_err(),
                "flip at byte {byte} went undetected"
            );
        }

        // Oversized length prefixes are refused before allocation.
        let mut huge = Vec::new();
        put_usize(&mut huge, usize::MAX / 2).unwrap();
        put_u32(&mut huge, 0).unwrap();
        assert!(get_checked_block(&mut Cursor::new(&huge), 1024).is_err());
    }
}
