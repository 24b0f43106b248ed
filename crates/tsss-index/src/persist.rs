//! Index persistence: serialise a whole [`RTree`] — configuration, shape
//! metadata and the underlying page file — to any `Write`, and load it back.
//!
//! Because nodes already live in pages, persistence is cheap: the node
//! serialisation *is* the on-disk format, and this module only adds a small
//! header.
//!
//! Format `TSSSIX02`: an 8-byte versioned magic, a CRC-checked metadata
//! block (configuration, root page, height, length), then the page file's
//! own checksummed stream. The configuration ends in one reserved `usize`
//! that once held a buffer-pool frame count: it is written as 0 and ignored
//! on load, so files that recorded a count still open. Any single flipped bit anywhere in the stream is
//! rejected at load time with `InvalidData`; loaded configurations are
//! re-validated before the tree is reassembled. [`RTree::save_to_path`]
//! writes atomically (temp file + rename) so a crash mid-write leaves the
//! previous file readable.

use std::io::{self, Read, Write};
use std::path::Path;

use tsss_storage::codec::*;
use tsss_storage::{atomic_write, BufferPool, PageFile, PageId};

use crate::tree::{RTree, SplitPolicy, TreeConfig};

const MAGIC_PREFIX: &[u8; 6] = b"TSSSIX";
const VERSION: u8 = 2;

/// Upper bound on the metadata block; a real header is well under 200 bytes.
const MAX_META_BYTES: usize = 1 << 16;

/// Sanity bound on the persisted height: a tree of fanout ≥ 2 with 2⁶⁴
/// entries is still under 64 levels tall.
const MAX_HEIGHT: usize = 64;

fn split_tag(s: SplitPolicy) -> u8 {
    match s {
        SplitPolicy::RStar => 0,
        SplitPolicy::GuttmanQuadratic => 1,
        SplitPolicy::GuttmanLinear => 2,
    }
}

fn split_from_tag(t: u8) -> io::Result<SplitPolicy> {
    Ok(match t {
        0 => SplitPolicy::RStar,
        1 => SplitPolicy::GuttmanQuadratic,
        2 => SplitPolicy::GuttmanLinear,
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown split policy tag {other}"),
            ))
        }
    })
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

pub(crate) fn write_config<W: Write + ?Sized>(w: &mut W, cfg: &TreeConfig) -> io::Result<()> {
    put_usize(w, cfg.dim)?;
    put_usize(w, cfg.page_size)?;
    put_usize(w, cfg.max_entries)?;
    put_usize(w, cfg.min_entries)?;
    put_usize(w, cfg.reinsert_count)?;
    put_usize(w, cfg.leaf_max_entries)?;
    put_usize(w, cfg.leaf_min_entries)?;
    put_usize(w, cfg.leaf_reinsert_count)?;
    put_u8(w, split_tag(cfg.split))?;
    put_usize(w, 0) // reserved
}

pub(crate) fn read_config<R: Read + ?Sized>(r: &mut R) -> io::Result<TreeConfig> {
    let cfg = TreeConfig {
        dim: get_usize(r)?,
        page_size: get_usize(r)?,
        max_entries: get_usize(r)?,
        min_entries: get_usize(r)?,
        reinsert_count: get_usize(r)?,
        leaf_max_entries: get_usize(r)?,
        leaf_min_entries: get_usize(r)?,
        leaf_reinsert_count: get_usize(r)?,
        split: split_from_tag(get_u8(r)?)?,
    };
    get_usize(r)?; // reserved
    Ok(cfg)
}

impl RTree {
    /// Serialises the tree.
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn save_to<W: Write + ?Sized>(&self, w: &mut W) -> io::Result<()> {
        put_magic(w, &versioned_magic(MAGIC_PREFIX, VERSION))?;
        let mut meta = Vec::new();
        write_config(&mut meta, self.config())?;
        put_u32(&mut meta, self.root_page().0)?;
        put_usize(&mut meta, self.height())?;
        put_usize(&mut meta, self.len())?;
        put_checked_block(w, &meta)?;
        // `&mut W` is itself a sized `Write`, which is what lets a
        // possibly-unsized `W` reach `persist(&mut dyn Write)`.
        let mut sink: &mut W = w;
        self.with_store(|s| s.persist(&mut sink))
    }

    /// Loads a tree previously written by [`RTree::save_to`].
    ///
    /// # Errors
    /// `InvalidData` on malformed, corrupted, truncated or wrong-version
    /// input; propagates I/O errors. Every page checksum is verified, so a
    /// bit flip anywhere in the stream is caught here rather than at query
    /// time.
    pub fn load_from<R: Read + ?Sized>(r: &mut R) -> io::Result<Self> {
        expect_versioned_magic(r, MAGIC_PREFIX, VERSION)?;
        let meta = get_checked_block(r, MAX_META_BYTES)?;
        let mr = &mut meta.as_slice();
        let cfg = read_config(mr)?;
        cfg.try_validate().map_err(invalid)?;
        let root = PageId(get_u32(mr)?);
        let height = get_usize(mr)?;
        let len = get_usize(mr)?;
        if height == 0 || height > MAX_HEIGHT {
            return Err(invalid(format!("implausible tree height {height}")));
        }
        let file = PageFile::read_from(r)?;
        if file.page_size() != cfg.page_size {
            return Err(invalid(
                "page size disagrees between header and page file".into(),
            ));
        }
        // analyze::allow(cast): u32 page id → usize is lossless on every supported (≥ 32-bit) target; the comparison is the range check.
        if root == PageId::INVALID || (root.0 as usize) >= file.extent() {
            return Err(invalid("root page out of range".into()));
        }
        Ok(RTree::from_parts(
            cfg,
            BufferPool::new(file),
            root,
            height,
            len,
        ))
    }

    /// Atomically writes the tree to `path`: the bytes go to a temporary
    /// sibling file which is fsynced and renamed over the target, so a crash
    /// mid-write leaves any previous file intact.
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn save_to_path(&self, path: &Path) -> io::Result<()> {
        atomic_write(path, |w| self.save_to(w))
    }

    /// Loads a tree from a file written by [`RTree::save_to_path`].
    ///
    /// # Errors
    /// As [`RTree::load_from`].
    pub fn load_from_path(path: &Path) -> io::Result<Self> {
        let mut r = io::BufReader::new(std::fs::File::open(path)?);
        Self::load_from(&mut r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsss_geometry::line::Line;
    use tsss_geometry::penetration::PenetrationMethod;

    fn build_tree(n: usize) -> RTree {
        let mut t = RTree::new(TreeConfig::uniform(3, 1024, 8, 3, 2, SplitPolicy::RStar)).unwrap();
        for i in 0..n as u64 {
            t.insert(
                vec![
                    ((i * 37) % 101) as f64,
                    ((i * 61) % 97) as f64,
                    ((i * 13) % 89) as f64,
                ],
                i,
            )
            .unwrap();
        }
        t
    }

    fn roundtrip(tree: &mut RTree) -> RTree {
        let mut buf = Vec::new();
        tree.save_to(&mut buf).unwrap();
        RTree::load_from(&mut std::io::Cursor::new(buf)).unwrap()
    }

    #[test]
    fn roundtrip_preserves_contents_and_invariants() {
        let mut t = build_tree(250);
        let u = roundtrip(&mut t);
        assert_eq!(u.len(), 250);
        assert_eq!(u.height(), t.height());
        u.check_invariants().unwrap();
        let mut a = t.dump().unwrap();
        let mut b = u.dump().unwrap();
        a.sort_by_key(|(_, id)| *id);
        b.sort_by_key(|(_, id)| *id);
        assert_eq!(a, b);
    }

    #[test]
    fn loaded_tree_answers_queries_identically() {
        let mut t = build_tree(300);
        let u = roundtrip(&mut t);
        let line = Line::new(vec![0.0; 3], vec![1.0, 0.9, 1.2]).unwrap();
        for eps in [0.0, 5.0, 25.0] {
            let a: Vec<u64> = {
                let mut v: Vec<u64> = t
                    .line_query(&line, eps, PenetrationMethod::EnteringExiting, None)
                    .unwrap()
                    .matches
                    .iter()
                    .map(|m| m.id)
                    .collect();
                v.sort_unstable();
                v
            };
            let b: Vec<u64> = {
                let mut v: Vec<u64> = u
                    .line_query(&line, eps, PenetrationMethod::EnteringExiting, None)
                    .unwrap()
                    .matches
                    .iter()
                    .map(|m| m.id)
                    .collect();
                v.sort_unstable();
                v
            };
            assert_eq!(a, b, "eps {eps}");
        }
    }

    #[test]
    fn loaded_tree_accepts_further_updates() {
        let mut t = build_tree(100);
        let mut u = roundtrip(&mut t);
        u.insert(vec![500.0, 500.0, 500.0], 9999).unwrap();
        u.check_invariants().unwrap();
        assert_eq!(u.len(), 101);
    }

    #[test]
    fn a_fork_answers_as_the_roundtrip_and_diverges_on_its_own() {
        let mut t = build_tree(300);
        let u = roundtrip(&mut t);
        let mut f = t.fork();
        let line = Line::new(vec![0.0; 3], vec![1.0, 0.9, 1.2]).unwrap();
        let probe = |tree: &RTree| {
            tree.stats().reset();
            let hits = tree
                .line_query(&line, 25.0, PenetrationMethod::EnteringExiting, None)
                .unwrap();
            let ids: Vec<u64> = hits.matches.iter().map(|m| m.id).collect();
            (ids, tree.stats().reads())
        };
        // Page for page: same matches in the same order, same reads.
        assert_eq!(probe(&f), probe(&u));
        let before = (probe(&t), t.dump().unwrap());
        for i in 0..200u64 {
            f.insert(vec![50.0, 50.0, (i % 89) as f64], 10_000 + i)
                .unwrap();
        }
        f.check_invariants().unwrap();
        assert_eq!(f.len(), 500);
        assert_eq!((probe(&t), t.dump().unwrap()), before);
        t.check_invariants().unwrap();
    }

    #[test]
    fn empty_tree_roundtrips() {
        let mut t = RTree::new(TreeConfig::uniform(
            2,
            512,
            4,
            2,
            1,
            SplitPolicy::GuttmanLinear,
        ))
        .unwrap();
        let u = roundtrip(&mut t);
        assert!(u.is_empty());
        assert_eq!(u.config().split, SplitPolicy::GuttmanLinear);
        u.check_invariants().unwrap();
    }

    #[test]
    fn corrupt_header_is_rejected() {
        let t = build_tree(10);
        let mut buf = Vec::new();
        t.save_to(&mut buf).unwrap();
        buf[3] = b'Z';
        assert!(RTree::load_from(&mut std::io::Cursor::new(buf)).is_err());
    }

    #[test]
    fn old_version_is_rejected_with_a_version_message() {
        let t = build_tree(10);
        let mut buf = Vec::new();
        t.save_to(&mut buf).unwrap();
        buf[6] = b'0';
        buf[7] = b'1'; // masquerade as TSSSIX01
        let err = RTree::load_from(&mut std::io::Cursor::new(buf)).unwrap_err();
        assert!(
            err.to_string().contains("unsupported version"),
            "unexpected message: {err}"
        );
    }

    #[test]
    fn truncation_anywhere_is_an_error_not_a_panic() {
        let t = build_tree(40);
        let mut buf = Vec::new();
        t.save_to(&mut buf).unwrap();
        for cut in [0, 3, 8, 20, 100, buf.len() / 2, buf.len() - 1] {
            let short = &buf[..cut];
            assert!(
                RTree::load_from(&mut std::io::Cursor::new(short)).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn sampled_bit_flips_anywhere_in_the_stream_are_rejected() {
        let t = build_tree(60);
        let mut buf = Vec::new();
        t.save_to(&mut buf).unwrap();
        // Every byte is too slow for a unit test; stride through the stream
        // and flip one bit per sampled byte.
        for pos in (0..buf.len()).step_by(37) {
            let mut dam = buf.clone();
            dam[pos] ^= 1 << (pos % 8);
            let r = RTree::load_from(&mut std::io::Cursor::new(dam));
            assert!(r.is_err(), "flip at byte {pos} must be rejected");
        }
    }

    #[test]
    fn invalid_loaded_config_is_rejected_not_panicked_on() {
        let t = build_tree(10);
        let mut good = Vec::new();
        t.save_to(&mut good).unwrap();
        // Re-encode the metadata block with a broken config (m > M/2) and a
        // fresh CRC so only the validation can reject it.
        let mut cfg = t.config().clone();
        cfg.min_entries = cfg.max_entries; // violates m <= M/2
        let mut meta = Vec::new();
        write_config(&mut meta, &cfg).unwrap();
        put_u32(&mut meta, t.root_page().0).unwrap();
        put_usize(&mut meta, t.height()).unwrap();
        put_usize(&mut meta, t.len()).unwrap();
        let mut buf = Vec::new();
        put_magic(&mut buf, &versioned_magic(MAGIC_PREFIX, VERSION)).unwrap();
        put_checked_block(&mut buf, &meta).unwrap();
        t.with_store(|s| s.persist(&mut buf)).unwrap();
        let err = RTree::load_from(&mut std::io::Cursor::new(buf)).unwrap_err();
        assert!(
            err.to_string().contains("m <= M/2"),
            "unexpected message: {err}"
        );
    }

    #[test]
    fn atomic_path_roundtrip_and_crash_safety() {
        let dir = std::env::temp_dir().join(format!("tsss_ix_persist_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tree.idx");

        let t = build_tree(80);
        t.save_to_path(&path).unwrap();
        let u = RTree::load_from_path(&path).unwrap();
        assert_eq!(u.len(), 80);
        u.check_invariants().unwrap();

        // A failed save must leave the previous file loadable.
        let big = build_tree(200);
        let res = atomic_write(&path, |w| {
            big.save_to(w)?;
            Err(io::Error::other("simulated crash mid-write"))
        });
        assert!(res.is_err());
        let still = RTree::load_from_path(&path).unwrap();
        assert_eq!(still.len(), 80, "old file must survive a failed save");

        std::fs::remove_dir_all(&dir).ok();
    }

    /// `t`'s image with `reserved` in the configuration's reserved slot,
    /// built field by field as a file recording a frame count holds it.
    fn image_with_reserved(t: &RTree, reserved: usize) -> Vec<u8> {
        let cfg = t.config();
        let mut meta = Vec::new();
        for v in [
            cfg.dim,
            cfg.page_size,
            cfg.max_entries,
            cfg.min_entries,
            cfg.reinsert_count,
            cfg.leaf_max_entries,
            cfg.leaf_min_entries,
            cfg.leaf_reinsert_count,
        ] {
            put_usize(&mut meta, v).unwrap();
        }
        put_u8(&mut meta, split_tag(cfg.split)).unwrap();
        put_usize(&mut meta, reserved).unwrap();
        put_u32(&mut meta, t.root_page().0).unwrap();
        put_usize(&mut meta, t.height()).unwrap();
        put_usize(&mut meta, t.len()).unwrap();
        let mut buf = Vec::new();
        put_magic(&mut buf, &versioned_magic(MAGIC_PREFIX, VERSION)).unwrap();
        put_checked_block(&mut buf, &meta).unwrap();
        t.with_store(|s| s.persist(&mut buf)).unwrap();
        buf
    }

    #[test]
    fn the_reserved_slot_is_ignored_on_load_and_saved_as_zero() {
        let t = build_tree(60);
        let mut saved = Vec::new();
        t.save_to(&mut saved).unwrap();
        assert_eq!(saved, image_with_reserved(&t, 0));
        let u = RTree::load_from(&mut std::io::Cursor::new(image_with_reserved(&t, 16))).unwrap();
        assert_eq!(u.config(), t.config());
        u.check_invariants().unwrap();
        assert_eq!(u.dump().unwrap(), t.dump().unwrap());
        let mut resaved = Vec::new();
        u.save_to(&mut resaved).unwrap();
        assert_eq!(resaved, saved);
    }
}
