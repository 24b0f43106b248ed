//! Engine persistence: save a built [`SearchEngine`] — configuration, raw
//! data file, series catalogue and R*-tree index — to a single file, and
//! load it back ready to query.
//!
//! Pre-processing (§6) is the expensive step at scale (slide, SE-transform,
//! FFT, index 523 000 windows); persisting the result lets a deployment
//! build once and serve many sessions, and it is what any adopter of the
//! library would expect.

use std::io::{self, Read, Write};
use std::path::Path;

use tsss_index::RTree;
use tsss_storage::codec::*;

use crate::config::{BuildMethod, EngineConfig};
use crate::datafile::PagedSeriesStore;
use crate::engine::SearchEngine;

/// Magic prefix of the persisted engine format.
const MAGIC_PREFIX: &[u8; 6] = b"TSSSEN";
/// Current format version (`TSSSEN02`): versioned magic + CRC-checked
/// configuration block, followed by the (self-checking) data file and index
/// streams.
const VERSION: u8 = 2;
/// Upper bound on the configuration block; a real one is under 200 bytes.
const MAX_META_BYTES: usize = 1 << 16;

fn build_tag(b: BuildMethod) -> u8 {
    match b {
        BuildMethod::BulkStr => 0,
        BuildMethod::Insert => 2,
    }
}

fn build_from_tag(t: u8) -> io::Result<BuildMethod> {
    Ok(match t {
        // Tag 1 was STR over polar keys. Its stored index loads as it is;
        // only a rebuild (a repair) packs with plain STR.
        0 | 1 => BuildMethod::BulkStr,
        2 => BuildMethod::Insert,
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown build method tag {other}"),
            ))
        }
    })
}

fn split_tag(s: tsss_index::SplitPolicy) -> u8 {
    match s {
        tsss_index::SplitPolicy::RStar => 0,
        tsss_index::SplitPolicy::GuttmanQuadratic => 1,
        tsss_index::SplitPolicy::GuttmanLinear => 2,
    }
}

fn split_from_tag(t: u8) -> io::Result<tsss_index::SplitPolicy> {
    Ok(match t {
        0 => tsss_index::SplitPolicy::RStar,
        1 => tsss_index::SplitPolicy::GuttmanQuadratic,
        2 => tsss_index::SplitPolicy::GuttmanLinear,
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown split policy tag {other}"),
            ))
        }
    })
}

fn write_engine_config<W: Write>(w: &mut W, cfg: &EngineConfig) -> io::Result<()> {
    put_usize(w, cfg.window_len)?;
    put_usize(w, 1)?; // the window stride: every window is indexed
    match cfg.fc {
        Some(fc) => {
            put_u8(w, 1)?;
            put_usize(w, fc)?;
        }
        None => put_u8(w, 0)?,
    }
    put_usize(w, cfg.page_size)?;
    put_usize(w, cfg.max_entries)?;
    put_usize(w, cfg.min_entries)?;
    put_usize(w, cfg.reinsert_count)?;
    put_u8(w, split_tag(cfg.split))?;
    // Two reserved slots, where the block once held the index and data
    // buffer-pool frame counts: written as 0 and ignored on load.
    put_usize(w, 0)?;
    put_usize(w, 0)?;
    put_u8(w, build_tag(cfg.build))
}

fn read_engine_config<R: Read>(r: &mut R) -> io::Result<EngineConfig> {
    let window_len = get_usize(r)?;
    match get_usize(r)? {
        1 => {}
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("window stride {other} is unsupported: every window is indexed"),
            ))
        }
    }
    let fc = if get_u8(r)? == 1 {
        Some(get_usize(r)?)
    } else {
        None
    };
    let page_size = get_usize(r)?;
    let max_entries = get_usize(r)?;
    let min_entries = get_usize(r)?;
    let reinsert_count = get_usize(r)?;
    let split = split_from_tag(get_u8(r)?)?;
    get_usize(r)?; // reserved
    get_usize(r)?; // reserved
    Ok(EngineConfig {
        window_len,
        fc,
        page_size,
        max_entries,
        min_entries,
        reinsert_count,
        split,
        build: build_from_tag(get_u8(r)?)?,
    })
}

impl SearchEngine {
    /// Serialises the engine to a writer.
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn save_to<W: Write + ?Sized>(&self, w: &mut W) -> io::Result<()> {
        put_magic(w, &versioned_magic(MAGIC_PREFIX, VERSION))?;
        let mut meta = Vec::new();
        write_engine_config(&mut meta, self.config())?;
        put_f64(&mut meta, self.max_se_norm())?;
        put_checked_block(w, &meta)?;
        self.store().write_to(w)?;
        self.tree().save_to(w)
    }

    /// Loads an engine previously written by [`SearchEngine::save_to`].
    ///
    /// The configuration block is CRC-checked and re-validated (a hostile or
    /// rotten config must not panic downstream arithmetic), and the data and
    /// index streams carry their own checksums, so any corruption anywhere
    /// in the stream surfaces here as `InvalidData`.
    ///
    /// # Errors
    /// `InvalidData` on malformed input; propagates I/O errors.
    pub fn load_from<R: Read + ?Sized>(r: &mut R) -> io::Result<Self> {
        Self::load_from_inner(r, false).map(|(e, _)| e)
    }

    /// Loads an engine, tolerating a corrupt or truncated **index stream**:
    /// the format places the index last, so when the versioned magic,
    /// configuration block and data stream all parse but the index does
    /// not, the data file is still the complete source of truth and the
    /// index is rebuilt from it (exactly [`SearchEngine::repair`]). Damage
    /// to the magic, configuration or data stream still fails — repair can
    /// reconstruct the index, never the data.
    ///
    /// Returns whether the index loaded intact or was rebuilt, so callers
    /// (the `tsss repair` subcommand) can report what happened.
    ///
    /// # Errors
    /// `InvalidData` when the configuration or data stream is damaged;
    /// propagates I/O errors.
    pub fn load_repairing<R: Read + ?Sized>(r: &mut R) -> io::Result<(Self, bool)> {
        Self::load_from_inner(r, true)
    }

    /// Loads an engine and reports whether its index was rebuilt from the
    /// data stream, which only `tolerate_index` allows.
    fn load_from_inner<R: Read + ?Sized>(
        r: &mut R,
        tolerate_index: bool,
    ) -> io::Result<(SearchEngine, bool)> {
        let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        expect_versioned_magic(r, MAGIC_PREFIX, VERSION)?;
        let meta = get_checked_block(r, MAX_META_BYTES)?;
        let m = &mut io::Cursor::new(meta);
        let cfg = read_engine_config(m)?;
        cfg.try_validate().map_err(invalid)?;
        let max_se_norm = get_f64(m)?;
        if !max_se_norm.is_finite() || max_se_norm < 0.0 {
            return Err(invalid(format!("implausible max SE-norm {max_se_norm}")));
        }
        let store = PagedSeriesStore::read_from(r)?;
        let tree_result = RTree::load_from(r).and_then(|tree| {
            if tree.config().dim != cfg.feature_dim() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "index dimension disagrees with engine configuration",
                ));
            }
            Ok(tree)
        });
        match tree_result {
            Ok(tree) => Ok((
                SearchEngine::from_parts(cfg, tree, store, max_se_norm),
                false,
            )),
            Err(e) if tolerate_index && e.kind() == io::ErrorKind::InvalidData => {
                // The data stream is intact; rebuild the index from it.
                let placeholder = RTree::new(cfg.tree_config())
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
                let mut engine = SearchEngine::from_parts(cfg, placeholder, store, max_se_norm);
                engine
                    .repair()
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
                Ok((engine, true))
            }
            Err(e) => Err(e),
        }
    }

    /// Saves the engine to a filesystem path **atomically**: the stream is
    /// written to a temporary sibling, synced, and renamed over `path` only
    /// on success — a crash or failure mid-write leaves any previous engine
    /// file intact.
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn save_to_path(&self, path: &Path) -> io::Result<()> {
        tsss_storage::atomic_write(path, |w| self.save_to(w))
    }

    /// Loads an engine from a filesystem path (buffered).
    ///
    /// # Errors
    /// Propagates I/O and format errors.
    pub fn load_from_path(path: &Path) -> io::Result<Self> {
        let mut r = io::BufReader::new(std::fs::File::open(path)?);
        Self::load_from(&mut r)
    }

    /// [`SearchEngine::load_repairing`] from a filesystem path (buffered).
    ///
    /// # Errors
    /// As [`SearchEngine::load_repairing`].
    pub fn load_repairing_from_path(path: &Path) -> io::Result<(Self, bool)> {
        let mut r = io::BufReader::new(std::fs::File::open(path)?);
        Self::load_repairing(&mut r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SearchOptions;
    use tsss_data::{MarketConfig, MarketSimulator, Series};

    fn build_engine() -> (SearchEngine, Vec<Series>) {
        let data = MarketSimulator::new(MarketConfig::small(6, 70, 88)).generate();
        (
            SearchEngine::build(&data, EngineConfig::small(16)).unwrap(),
            data,
        )
    }

    fn roundtrip(e: &SearchEngine) -> SearchEngine {
        let mut buf = Vec::new();
        e.save_to(&mut buf).unwrap();
        SearchEngine::load_from(&mut std::io::Cursor::new(buf)).unwrap()
    }

    #[test]
    fn roundtrip_preserves_metadata() {
        let (e, _) = build_engine();
        let mut l = roundtrip(&e);
        assert_eq!(l.num_series(), e.num_series());
        assert_eq!(l.num_windows(), e.num_windows());
        assert_eq!(l.data_page_count(), e.data_page_count());
        assert_eq!(l.config(), e.config());
        l.tree_mut().check_invariants().unwrap();
    }

    #[test]
    fn loaded_engine_answers_queries_identically() {
        let (e, data) = build_engine();
        let l = roundtrip(&e);
        for (series, offset) in [(0usize, 3usize), (3, 20), (5, 40)] {
            let q = data[series].window(offset, 16).unwrap().to_vec();
            for eps in [0.0, 1.0, 6.0] {
                let a = e.search(&q, eps, SearchOptions::default()).unwrap();
                let b = l.search(&q, eps, SearchOptions::default()).unwrap();
                assert_eq!(a.id_set(), b.id_set(), "eps {eps}");
                assert_eq!(a.matches, b.matches);
            }
        }
    }

    #[test]
    fn loaded_engine_supports_dynamic_updates() {
        let (e, data) = build_engine();
        let mut l = roundtrip(&e);
        let novel = Series::new("NEW", data[0].values.iter().map(|v| v * 2.0).collect());
        let si = l.append_series(&novel).unwrap();
        let q = novel.window(10, 16).unwrap().to_vec();
        let res = l.search(&q, 1e-6, SearchOptions::default()).unwrap();
        assert!(res
            .matches
            .iter()
            .any(|m| m.id.series as usize == si && m.id.offset == 10));
        l.tree_mut().check_invariants().unwrap();
    }

    #[test]
    fn save_load_via_filesystem() {
        let (e, data) = build_engine();
        let dir = std::env::temp_dir().join("tsss-engine-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("engine.tsss");
        e.save_to_path(&path).unwrap();
        let l = SearchEngine::load_from_path(&path).unwrap();
        let q = data[2].window(5, 16).unwrap().to_vec();
        assert_eq!(
            e.search(&q, 2.0, SearchOptions::default())
                .unwrap()
                .id_set(),
            l.search(&q, 2.0, SearchOptions::default())
                .unwrap()
                .id_set()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_stream_is_rejected() {
        let (e, _) = build_engine();
        let mut buf = Vec::new();
        e.save_to(&mut buf).unwrap();
        buf[5] ^= 0xFF;
        assert!(SearchEngine::load_from(&mut std::io::Cursor::new(buf)).is_err());
    }

    #[test]
    fn zero_length_and_wrong_version_inputs_are_rejected() {
        assert!(SearchEngine::load_from(&mut std::io::Cursor::new(Vec::<u8>::new())).is_err());
        let (e, _) = build_engine();
        let mut buf = Vec::new();
        e.save_to(&mut buf).unwrap();
        buf[6] = b'0';
        buf[7] = b'1';
        let err = SearchEngine::load_from(&mut std::io::Cursor::new(buf)).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn failed_save_leaves_the_previous_file_intact() {
        let (e, data) = build_engine();
        let dir = std::env::temp_dir().join(format!("tsss-engine-crash-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("engine.tsss");
        e.save_to_path(&path).unwrap();
        // A save that dies mid-stream (simulated torn write) must not
        // clobber the good file — atomic_write renames only on success.
        let mut stream = Vec::new();
        e.save_to(&mut stream).unwrap();
        let err = tsss_storage::atomic_write(&path, |w| {
            w.write_all(&stream[..stream.len() / 2])?;
            Err(std::io::Error::other("simulated crash mid-write"))
        })
        .unwrap_err();
        assert!(err.to_string().contains("simulated crash"));
        assert!(
            !dir.join("engine.tsss.tmp").exists(),
            "failed temporary must be cleaned up"
        );
        let l = SearchEngine::load_from_path(&path).unwrap();
        let q = data[1].window(4, 16).unwrap().to_vec();
        assert_eq!(
            e.search(&q, 2.0, SearchOptions::default())
                .unwrap()
                .id_set(),
            l.search(&q, 2.0, SearchOptions::default())
                .unwrap()
                .id_set()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `e`'s image with its configuration block built field by field, as a
    /// file written by an older build holds it: `slot` in the window-stride
    /// slot, `reserved` in the two slots that once held buffer-pool frame
    /// counts, and `build` as the build tag.
    fn image_with(e: &SearchEngine, slot: usize, reserved: [usize; 2], build: u8) -> Vec<u8> {
        let cfg = e.config();
        let mut meta = Vec::new();
        put_usize(&mut meta, cfg.window_len).unwrap();
        put_usize(&mut meta, slot).unwrap();
        put_u8(&mut meta, 1).unwrap();
        put_usize(&mut meta, cfg.fc.unwrap()).unwrap();
        for v in [
            cfg.page_size,
            cfg.max_entries,
            cfg.min_entries,
            cfg.reinsert_count,
        ] {
            put_usize(&mut meta, v).unwrap();
        }
        put_u8(&mut meta, split_tag(cfg.split)).unwrap();
        for v in reserved {
            put_usize(&mut meta, v).unwrap();
        }
        put_u8(&mut meta, build).unwrap();
        put_f64(&mut meta, e.max_se_norm()).unwrap();
        let mut buf = Vec::new();
        put_magic(&mut buf, &versioned_magic(MAGIC_PREFIX, VERSION)).unwrap();
        put_checked_block(&mut buf, &meta).unwrap();
        e.store().write_to(&mut buf).unwrap();
        e.tree().save_to(&mut buf).unwrap();
        buf
    }

    #[test]
    fn the_reserved_slots_are_ignored_on_load_and_saved_as_zero() {
        let (e, data) = build_engine();
        let mut saved = Vec::new();
        e.save_to(&mut saved).unwrap();
        assert_eq!(saved, image_with(&e, 1, [0, 0], 0));
        let buffered = image_with(&e, 1, [512, 8], 0);
        let l = SearchEngine::load_from(&mut std::io::Cursor::new(buffered)).unwrap();
        assert_eq!(l.config(), e.config());
        let q = data[3].window(20, 16).unwrap().to_vec();
        assert_eq!(
            l.search(&q, 2.0, SearchOptions::default()).unwrap().matches,
            e.search(&q, 2.0, SearchOptions::default()).unwrap().matches
        );
        let mut resaved = Vec::new();
        l.save_to(&mut resaved).unwrap();
        assert_eq!(resaved, saved);
    }

    #[test]
    fn a_stride_slot_other_than_one_is_refused() {
        let (e, _) = build_engine();
        for slot in [0, 2, 20, usize::MAX] {
            let image = image_with(&e, slot, [0, 0], 0);
            let err = SearchEngine::load_from(&mut std::io::Cursor::new(image)).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            assert!(err.to_string().contains("stride"), "{err}");
        }
    }

    #[test]
    fn build_tag_one_loads_as_str_and_saves_as_tag_zero() {
        let (e, data) = build_engine();
        let image = image_with(&e, 1, [0, 0], 1);
        let l = SearchEngine::load_from(&mut std::io::Cursor::new(image)).unwrap();
        assert_eq!(l.config().build, BuildMethod::BulkStr);
        let q = data[3].window(20, 16).unwrap().to_vec();
        for eps in [0.0, 2.0] {
            let (a, b) = (
                l.search(&q, eps, SearchOptions::default()).unwrap(),
                e.search(&q, eps, SearchOptions::default()).unwrap(),
            );
            assert_eq!(a.matches, b.matches, "eps {eps}");
            assert_eq!(
                (a.stats.index_pages, a.stats.data_pages),
                (b.stats.index_pages, b.stats.data_pages),
                "eps {eps}"
            );
        }
        let (mut resaved, mut saved) = (Vec::new(), Vec::new());
        l.save_to(&mut resaved).unwrap();
        e.save_to(&mut saved).unwrap();
        assert_eq!(resaved, saved);
    }

    /// Seeded hostile configuration blocks, as a crafted file whose block
    /// checksum is valid carries them. Each `usize` field keeps the paper
    /// configuration's value or, half the time, is drawn from boundary
    /// values; every tag or flag byte is drawn from 0..=3. Each block must
    /// fail with a typed error, or read as a configuration that validates
    /// (its tree configuration too) and reads back equal after a write.
    /// Nothing may panic.
    ///
    /// The default run sweeps four seeds; `TSSS_CODEC_SEED=<u64>` runs any
    /// one (the CI `codec` job drives it over its matrix).
    #[test]
    fn hostile_config_blocks_fail_typed_or_round_trip() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use tsss_rand::Rng;

        const BOUNDARY: [u64; 17] = [
            0,
            1,
            2,
            3,
            4,
            8,
            20,
            127,
            128,
            4096,
            1 << 30,
            1 << 31,
            1 << 32,
            1 << 60,
            1 << 63,
            (1 << 63) + 1,
            u64::MAX,
        ];
        fn field(rng: &mut Rng, paper: usize) -> usize {
            if rng.bool() {
                return paper;
            }
            usize::try_from(BOUNDARY[rng.usize_below(BOUNDARY.len())]).unwrap_or(usize::MAX)
        }
        fn tag(rng: &mut Rng) -> u8 {
            rng.usize_below(4) as u8
        }
        let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);

        let seeds: Vec<u64> = match std::env::var("TSSS_CODEC_SEED") {
            Ok(s) => vec![s
                .parse()
                .expect("TSSS_CODEC_SEED must be an unsigned integer")],
            Err(_) => (1..=4).map(|i| 0xC0F1_6000 + i).collect(),
        };
        let paper = EngineConfig::paper();
        let (mut loaded, mut refused) = (0, 0);
        for seed in seeds {
            let mut rng = Rng::seed_from_u64(seed);
            for case in 0..5000 {
                let mut block = Vec::new();
                put_usize(&mut block, field(&mut rng, paper.window_len)).unwrap();
                put_usize(&mut block, field(&mut rng, 1)).unwrap(); // the stride slot
                let flag = tag(&mut rng);
                put_u8(&mut block, flag).unwrap();
                if flag == 1 {
                    put_usize(&mut block, field(&mut rng, 3)).unwrap(); // f_c
                }
                for v in [
                    paper.page_size,
                    paper.max_entries,
                    paper.min_entries,
                    paper.reinsert_count,
                ] {
                    put_usize(&mut block, field(&mut rng, v)).unwrap();
                }
                put_u8(&mut block, tag(&mut rng)).unwrap(); // split
                for _ in 0..2 {
                    put_usize(&mut block, field(&mut rng, 0)).unwrap(); // reserved
                }
                put_u8(&mut block, tag(&mut rng)).unwrap(); // build
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    let cfg = read_engine_config(&mut block.as_slice())?;
                    cfg.try_validate().map_err(invalid)?;
                    cfg.tree_config().try_validate().map_err(invalid)?;
                    let mut out = Vec::new();
                    write_engine_config(&mut out, &cfg)?;
                    let back = read_engine_config(&mut out.as_slice())?;
                    Ok::<_, io::Error>((cfg, back))
                }));
                let what = format!("seed {seed} case {case}: block {block:02x?}");
                match outcome {
                    Err(_) => panic!("{what}: reading or validating panicked"),
                    Ok(Err(e)) => {
                        assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{what}: {e}");
                        refused += 1;
                    }
                    Ok(Ok((cfg, back))) => {
                        assert_eq!(back, cfg, "{what}");
                        // 2·f_c + 1 <= n holds exactly, not modulo 2^64.
                        assert!(
                            cfg.fc.is_none_or(|fc| fc
                                .checked_mul(2)
                                .is_some_and(|d| d < cfg.window_len)),
                            "{what}"
                        );
                        loaded += 1;
                    }
                }
            }
        }
        assert!(
            loaded > 0 && refused > 0,
            "{loaded} loaded, {refused} refused"
        );
    }

    #[test]
    fn truncation_anywhere_is_an_error_not_a_panic() {
        let (e, _) = build_engine();
        let mut buf = Vec::new();
        e.save_to(&mut buf).unwrap();
        for cut in [3usize, 20, 100, buf.len() / 2, buf.len() - 1] {
            let mut trunc = buf.clone();
            trunc.truncate(cut);
            assert!(
                SearchEngine::load_from(&mut std::io::Cursor::new(trunc)).is_err(),
                "cut at {cut} should error"
            );
        }
    }
}
