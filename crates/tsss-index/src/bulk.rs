//! Sort-Tile-Recursive (STR) bulk loading.
//!
//! The paper's pre-processing step inserts every extracted window into the
//! R*-tree one at a time. That remains available ([`crate::RTree::insert`]),
//! but the engine builds and repairs its index — and the benchmark harness
//! rebuilds a 523 000-point one for every parameter setting — with the
//! classic STR packed loader (Leutenegger et al.): order the points by
//! recursive coordinate tiling, pack them into full leaves, and build each
//! directory level the same way. The result satisfies every R-tree
//! invariant and answers queries identically; only the box shapes (and
//! hence constant factors) differ.

// analyze::allow-file(index): the STR tiling recursion indexes `entries[start..end]` with `end` clamped to `entries.len()` and reads coordinate `axis < dim` of entries whose dimension `bulk_load` checked against `dim`, and chunk sizes from `chunk_sizes` sum exactly to the input length, so every `split_off`/slice stays in bounds.

use tsss_storage::{BufferPool, PageFile, PageId};

use crate::error::IndexError;
use crate::node::{ChildEntry, DataEntry, LeafSlab, Node};
use crate::tree::{RTree, TreeConfig};

/// Bulk loads `entries` into a fresh tree with configuration `cfg`, using
/// coordinate-space STR tiling. The entries are tiled in place.
///
/// # Errors
/// Any storage failure while writing the packed pages.
///
/// # Panics
/// Panics when any entry's dimension disagrees with `cfg.dim`.
pub fn bulk_load(cfg: TreeConfig, mut entries: Vec<DataEntry>) -> Result<RTree, IndexError> {
    cfg.validate();
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

    // Order points by STR tiling, then pack sequentially.
    let dim = cfg.dim;
    str_order(
        &mut entries,
        0,
        dim,
        cfg.leaf_max_entries,
        &|e: &DataEntry, axis| e.point[axis],
    );
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

    // Directory levels, tiled by MBR centres.
    let mut height = 1;
    while level.len() > 1 {
        str_order(
            &mut level,
            0,
            dim,
            cfg.max_entries,
            &|c: &ChildEntry, axis| 0.5 * (c.mbr.low()[axis] + c.mbr.high()[axis]),
        );
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

/// Recursive STR ordering of `dim`-dimensional items, where
/// `coord(item, axis)` is an item's coordinate on an axis: sort by the
/// current axis (stably), cut into slabs sized so each eventually holds
/// whole nodes of `cap` items, recurse with the next axis inside each
/// slab.
fn str_order<T>(
    entries: &mut [T],
    axis: usize,
    dim: usize,
    cap: usize,
    coord: &impl Fn(&T, usize) -> f64,
) {
    let n = entries.len();
    if n <= cap || axis >= dim {
        return;
    }
    entries.sort_by(|a, b| {
        coord(a, axis)
            .partial_cmp(&coord(b, axis))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    // analyze::allow(cast): page-count estimate feeding a powf heuristic; f64 precision loss only perturbs slab sizing, never indexing.
    let pages = n.div_ceil(cap) as f64;
    let remaining_dims = (dim - axis) as f64;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    // analyze::allow(cast): the root of a page count ≤ n rounds to a small positive slab count; `.max(1)` below guards the degenerate 0.
    let slabs = pages.powf(1.0 / remaining_dims).ceil() as usize;
    let slab_size = n.div_ceil(slabs.max(1));
    let mut start = 0;
    while start < n {
        let end = (start + slab_size).min(n);
        str_order(&mut entries[start..end], axis + 1, dim, cap, coord);
        start = end;
    }
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
    fn bulk_load_supports_subsequent_inserts() {
        let mut t = bulk_load(cfg(), points(100)).unwrap();
        t.insert(vec![500.0, 500.0], 9999).unwrap();
        assert_eq!(t.len(), 101);
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
