//! Sort-Tile-Recursive (STR) bulk loading.
//!
//! The paper's pre-processing step inserts every extracted window into the
//! R*-tree one at a time. That remains available ([`crate::RTree::insert`]),
//! but for the benchmark harness — which rebuilds a ~650 000-point index for
//! every parameter setting — we also provide the classic STR packed loader
//! (Leutenegger et al.): order the points by recursive coordinate tiling,
//! pack them into full leaves, and build each directory level the same way.
//! The result satisfies every R-tree invariant and answers queries
//! identically; only the box shapes (and hence constant factors) differ.

// analyze::allow-file(index): the STR tiling recursions index `entries[start..end]` with `end` clamped to `entries.len()`, and chunk sizes from `chunk_sizes` sum exactly to the input length, so every `split_off`/slice stays in bounds.

use tsss_geometry::Mbr;
use tsss_storage::{BufferPool, PageFile, PageId};

use crate::error::IndexError;
use crate::node::{ChildEntry, DataEntry, LeafSlab, Node};
use crate::tree::{RTree, TreeConfig};

/// Bulk loads `entries` into a fresh tree with configuration `cfg`, using
/// coordinate-space STR tiling.
///
/// # Errors
/// Any storage failure while writing the packed pages.
///
/// # Panics
/// Panics when any entry's dimension disagrees with `cfg.dim`.
pub fn bulk_load(cfg: TreeConfig, entries: Vec<DataEntry>) -> Result<RTree, IndexError> {
    let keys: Vec<Vec<f64>> = entries.iter().map(|e| e.point.to_vec()).collect();
    bulk_load_keyed(cfg, entries, keys)
}

/// Bulk loads with **polar** (direction-first) tiling: the STR key of a
/// point is its unit direction followed by its norm, so leaves become
/// angular sectors subdivided by radius.
///
/// This is an extension beyond the paper, tailored to its query shape:
/// every query is a *line through the origin* (the SE-line), and a line
/// through the origin only penetrates boxes whose angular extent covers its
/// direction — direction-aligned boxes turn the ε = 0 search from "cross
/// the whole cloud" into "walk one narrow sector", cutting node accesses by
/// an order of magnitude (see the `ablation_build` bench).
///
/// # Errors
/// Any storage failure while writing the packed pages.
///
/// # Panics
/// Panics when any entry's dimension disagrees with `cfg.dim`.
pub fn bulk_load_polar(cfg: TreeConfig, entries: Vec<DataEntry>) -> Result<RTree, IndexError> {
    let keys: Vec<Vec<f64>> = entries
        .iter()
        .map(|e| {
            let norm = e.point.iter().map(|x| x * x).sum::<f64>().sqrt();
            // Radius FIRST: tiles become norm shells subdivided by
            // direction. (Direction-first looks natural but backfires: a
            // wide angular sector spanning all radii has a bounding box
            // reaching into the origin neighbourhood, which every query
            // line penetrates.) Log-radius keeps the log-uniformly spread
            // amplitudes from crowding into one shell.
            let mut k = Vec::with_capacity(e.point.len() + 1);
            k.push(if norm > 0.0 {
                norm.ln()
            } else {
                f64::NEG_INFINITY
            });
            if norm > 0.0 {
                k.extend(e.point.iter().map(|x| x / norm));
            } else {
                k.extend(std::iter::repeat_n(0.0, e.point.len()));
            }
            k
        })
        .collect();
    bulk_load_keyed(cfg, entries, keys)
}

/// Shared loader: orders `entries` by recursive STR tiling over the given
/// per-entry `keys` (any dimensionality), then packs levels bottom-up.
fn bulk_load_keyed(
    cfg: TreeConfig,
    entries: Vec<DataEntry>,
    keys: Vec<Vec<f64>>,
) -> Result<RTree, IndexError> {
    cfg.validate();
    assert_eq!(entries.len(), keys.len(), "one key per entry");
    for e in &entries {
        assert_eq!(e.point.len(), cfg.dim, "entry dimension mismatch");
    }
    let file = PageFile::new(cfg.page_size)?;
    let mut pool = BufferPool::new(file);
    let len = entries.len();

    if entries.is_empty() {
        let root = pool.allocate()?;
        let mut page = tsss_storage::Page::zeroed(cfg.page_size);
        Node::empty_leaf(cfg.dim).encode(&mut page, cfg.dim);
        pool.write(root, page)?;
        return Ok(RTree::from_parts(cfg, pool, root, 1, 0));
    }

    // Order points by STR tiling over the keys, then pack sequentially.
    let dim = cfg.dim;
    let key_dim = keys[0].len();
    let mut keyed: Vec<(Vec<f64>, DataEntry)> = keys.into_iter().zip(entries).collect();
    str_order_keyed(&mut keyed, 0, key_dim, cfg.leaf_max_entries);
    let entries: Vec<DataEntry> = keyed.into_iter().map(|(_, e)| e).collect();
    let chunks = chunk_sizes(entries.len(), cfg.leaf_max_entries, cfg.leaf_min_entries);

    let write_node = |pool: &mut BufferPool, node: &Node| -> Result<PageId, IndexError> {
        let id = pool.allocate()?;
        let mut page = tsss_storage::Page::zeroed(cfg.page_size);
        node.encode(&mut page, cfg.dim);
        pool.write(id, page)?;
        Ok(id)
    };

    // Leaves.
    let mut level: Vec<ChildEntry> = Vec::with_capacity(chunks.len());
    let mut rest = entries;
    for size in chunks {
        let tail = rest.split_off(size);
        let node = Node::Leaf(LeafSlab::from_entries(cfg.dim, rest));
        // analyze::allow(panic): chunk_sizes never emits a zero-sized chunk, so the node has at least one entry.
        let mbr = node.mbr().expect("non-empty leaf");
        let page = write_node(&mut pool, &node)?;
        level.push(ChildEntry { mbr, page });
        rest = tail;
    }
    debug_assert!(rest.is_empty());

    // Directory levels.
    let mut height = 1;
    while level.len() > 1 {
        str_order_children(&mut level, 0, dim, cfg.max_entries);
        let chunks = chunk_sizes(level.len(), cfg.max_entries, cfg.min_entries);
        let mut next: Vec<ChildEntry> = Vec::with_capacity(chunks.len());
        let mut rest = level;
        for size in chunks {
            let tail = rest.split_off(size);
            let node = Node::Internal(rest);
            // analyze::allow(panic): chunk_sizes never emits a zero-sized chunk, so the node has at least one entry.
            let mbr = node.mbr().expect("non-empty internal node");
            let page = write_node(&mut pool, &node)?;
            next.push(ChildEntry { mbr, page });
            rest = tail;
        }
        level = next;
        height += 1;
    }

    let root = level[0].page;
    Ok(RTree::from_parts(cfg, pool, root, height, len))
}

/// Splits `n` items into chunks of at most `max` while keeping every chunk
/// at least `min` (assuming `n ≥ 1`; a single chunk may be smaller than
/// `min` only when `n < min`, which is legal because that node will be the
/// root).
fn chunk_sizes(n: usize, max: usize, min: usize) -> Vec<usize> {
    if n <= max {
        return vec![n];
    }
    let mut count = n.div_ceil(max);
    // Even spread, then fix any chunk that would dip below `min`.
    loop {
        let base = n / count;
        let extra = n % count; // the first `extra` chunks get base + 1
        if base >= min || count == 1 {
            let mut out = Vec::with_capacity(count);
            for i in 0..count {
                out.push(if i < extra { base + 1 } else { base });
            }
            return out;
        }
        count -= 1;
    }
}

/// Recursive STR ordering over per-entry keys: sort by the current key
/// axis, cut into slabs sized so each eventually holds whole leaves,
/// recurse with the next axis inside each slab.
fn str_order_keyed(
    entries: &mut [(Vec<f64>, DataEntry)],
    axis: usize,
    key_dim: usize,
    leaf_cap: usize,
) {
    let n = entries.len();
    if n <= leaf_cap || axis >= key_dim {
        return;
    }
    entries.sort_by(|a, b| {
        a.0[axis]
            .partial_cmp(&b.0[axis])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    // analyze::allow(cast): page-count estimate feeding a powf heuristic; f64 precision loss only perturbs slab sizing, never indexing.
    let pages = n.div_ceil(leaf_cap) as f64;
    let remaining_dims = (key_dim - axis) as f64;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    // analyze::allow(cast): the root of a page count ≤ n rounds to a small positive slab count; `.max(1)` below guards the degenerate 0.
    let slabs = pages.powf(1.0 / remaining_dims).ceil() as usize;
    let slab_size = n.div_ceil(slabs.max(1));
    let mut start = 0;
    while start < n {
        let end = (start + slab_size).min(n);
        str_order_keyed(&mut entries[start..end], axis + 1, key_dim, leaf_cap);
        start = end;
    }
}

/// Same tiling for directory entries, keyed by MBR centres.
fn str_order_children(entries: &mut [ChildEntry], axis: usize, dim: usize, cap: usize) {
    let n = entries.len();
    if n <= cap || axis >= dim {
        return;
    }
    entries.sort_by(|a, b| {
        center_coord(&a.mbr, axis)
            .partial_cmp(&center_coord(&b.mbr, axis))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    // analyze::allow(cast): see above — heuristic slab estimate, not an index.
    let pages = n.div_ceil(cap) as f64;
    let remaining_dims = (dim - axis) as f64;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    // analyze::allow(cast): see above.
    let slabs = pages.powf(1.0 / remaining_dims).ceil() as usize;
    let slab_size = n.div_ceil(slabs.max(1));
    let mut start = 0;
    while start < n {
        let end = (start + slab_size).min(n);
        str_order_children(&mut entries[start..end], axis + 1, dim, cap);
        start = end;
    }
}

fn center_coord(mbr: &Mbr, axis: usize) -> f64 {
    0.5 * (mbr.low()[axis] + mbr.high()[axis])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::SplitPolicy;
    use tsss_geometry::line::Line;
    use tsss_geometry::penetration::PenetrationMethod;

    fn cfg() -> TreeConfig {
        TreeConfig::uniform(2, 1024, 8, 3, 2, SplitPolicy::RStar)
    }

    fn points(n: usize) -> Vec<DataEntry> {
        (0..n)
            .map(|i| {
                DataEntry::new(
                    vec![((i * 37) % 101) as f64, ((i * 61) % 97) as f64],
                    i as u64,
                )
            })
            .collect()
    }

    #[test]
    fn chunk_sizes_respect_bounds() {
        for n in [1usize, 5, 8, 9, 16, 17, 100, 1000] {
            let chunks = chunk_sizes(n, 8, 3);
            assert_eq!(chunks.iter().sum::<usize>(), n, "n = {n}");
            for (i, &c) in chunks.iter().enumerate() {
                assert!(c <= 8, "n = {n}, chunk {i} too big: {c}");
                if n > 8 {
                    assert!(c >= 3, "n = {n}, chunk {i} too small: {c}");
                }
            }
        }
    }

    #[test]
    fn empty_bulk_load_gives_empty_tree() {
        let t = bulk_load(cfg(), vec![]).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.check_invariants().unwrap(), 0);
    }

    #[test]
    fn single_entry_bulk_load() {
        let t = bulk_load(cfg(), points(1)).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.height(), 1);
        t.check_invariants().unwrap();
    }

    #[test]
    fn bulk_load_preserves_every_entry() {
        let t = bulk_load(cfg(), points(777)).unwrap();
        assert_eq!(t.len(), 777);
        t.check_invariants().unwrap();
        let ids: std::collections::BTreeSet<u64> =
            t.dump().unwrap().into_iter().map(|(_, id)| id).collect();
        assert_eq!(ids.len(), 777);
        assert_eq!(*ids.iter().next().unwrap(), 0);
        assert_eq!(*ids.iter().last().unwrap(), 776);
    }

    #[test]
    fn bulk_loaded_tree_answers_like_incremental_tree() {
        let entries = points(400);
        let bulk = bulk_load(cfg(), entries.clone()).unwrap();
        let mut incr = RTree::new(cfg()).unwrap();
        for e in &entries {
            incr.insert(e.point.to_vec(), e.id).unwrap();
        }
        let line = Line::new(vec![0.0, 0.0], vec![1.0, 1.1]).unwrap();
        for eps in [0.0, 2.0, 10.0] {
            let a: std::collections::BTreeSet<u64> = bulk
                .line_query(&line, eps, PenetrationMethod::EnteringExiting, None)
                .unwrap()
                .matches
                .iter()
                .map(|m| m.id)
                .collect();
            let b: std::collections::BTreeSet<u64> = incr
                .line_query(&line, eps, PenetrationMethod::EnteringExiting, None)
                .unwrap()
                .matches
                .iter()
                .map(|m| m.id)
                .collect();
            assert_eq!(a, b, "eps = {eps}");
        }
    }

    #[test]
    fn bulk_load_supports_subsequent_inserts_and_deletes() {
        let mut t = bulk_load(cfg(), points(100)).unwrap();
        t.insert(vec![500.0, 500.0], 9999).unwrap();
        assert_eq!(t.len(), 101);
        t.check_invariants().unwrap();
        assert!(t.delete(&[500.0, 500.0], 9999).unwrap());
        // Delete a bulk-loaded point too.
        let victim = points(100)[42].clone();
        assert!(t.delete(&victim.point, victim.id).unwrap());
        assert_eq!(t.len(), 99);
        t.check_invariants().unwrap();
    }

    #[test]
    fn bulk_load_is_denser_than_incremental() {
        let entries = points(600);
        let bulk = bulk_load(cfg(), entries.clone()).unwrap();
        let mut incr = RTree::new(cfg()).unwrap();
        for e in &entries {
            incr.insert(e.point.to_vec(), e.id).unwrap();
        }
        // A packed tree can never be taller than the incremental one.
        assert!(bulk.height() <= incr.height());
    }

    #[test]
    fn six_dim_paper_scale_bulk_load() {
        let c = TreeConfig::paper(6);
        let entries: Vec<DataEntry> = (0..5000)
            .map(|i| {
                DataEntry::new(
                    (0..6)
                        .map(|j| (((i * 31 + j * 17) % 211) as f64).sin())
                        .collect(),
                    i as u64,
                )
            })
            .collect();
        let t = bulk_load(c, entries).unwrap();
        assert_eq!(t.len(), 5000);
        t.check_invariants().unwrap();
    }
}
