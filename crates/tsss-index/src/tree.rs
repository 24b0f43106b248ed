//! The disk-resident R-tree / R*-tree.
//!
//! Structure and parameters follow the paper's §6–§7: a height-balanced tree
//! with between `m` and `M` entries per node (root exempt), one node per
//! page, `M = 20`, `m = 40 %·M = 8`, and (for the R*-tree) forced
//! reinsertion of `p = 30 %·M = 6` entries on first overflow per level
//! (Beckmann et al. \[16\]). Guttman's original linear- and quadratic-split
//! R-trees \[22\] are available through [`SplitPolicy`] for the `ablation_tree`
//! bench.
//!
//! Every node read/write goes through the buffer pool, so the paper's page
//! access metric (Figure 5) falls directly out of [`RTree::stats`].

// analyze::allow-file(index): subtree choices (`entries[chosen]`), reinsert drains (`drain(..p)` with `p < min_entries <= len`) and deletion positions all come from scans of the very vector they index, performed under the fanout bounds `caps()` maintains on every node.

// analyze::allow-file(panic): the `expect`s unwrap MBRs of nodes proven non-empty on the same path (an entry was just pushed, or the min-entries invariant held before removal), and the `unreachable!`s restate the level↔node-kind correspondence the insertion recursion maintains; structurally corrupt pages are rejected earlier, as typed errors, by the checksummed `read_node`/`Node::decode` path.

use tsss_geometry::Mbr;
use tsss_storage::{BufferPool, Page, PageFile, PageId, PageStore, DEFAULT_PAGE_SIZE};

use crate::error::IndexError;
use crate::node::{ChildEntry, DataEntry, Node, NODE_HEADER_BYTES};
use crate::split::{linear_split, quadratic_split, rstar_split, SplitGroups};

/// Which split algorithm (and hence which classic index) the tree runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SplitPolicy {
    /// R*-tree: margin-driven split axis + overlap-driven split index +
    /// forced reinsertion (the paper's experimental index).
    #[default]
    RStar,
    /// Guttman's quadratic split, no reinsertion.
    GuttmanQuadratic,
    /// Guttman's linear split, no reinsertion.
    GuttmanLinear,
}

/// Static configuration of an [`RTree`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeConfig {
    /// Dimension of the indexed points.
    pub dim: usize,
    /// Page size in bytes (one node per page).
    pub page_size: usize,
    /// Maximum entries per internal node (`M`).
    pub max_entries: usize,
    /// Minimum entries per internal node (`m`), root exempt.
    pub min_entries: usize,
    /// Entries removed on forced reinsertion of an internal node (`p`);
    /// R* policy only.
    pub reinsert_count: usize,
    /// Maximum entries per leaf node (the paper fixes `M = 20` for
    /// *internal* nodes only; leaves pack as many entries as the page
    /// holds).
    pub leaf_max_entries: usize,
    /// Minimum entries per leaf node, root exempt.
    pub leaf_min_entries: usize,
    /// Entries removed on forced reinsertion of a leaf; R* policy only.
    pub leaf_reinsert_count: usize,
    /// Split algorithm.
    pub split: SplitPolicy,
    /// Buffer-pool frames (0 = unbuffered, the paper's measurement regime).
    pub buffer_frames: usize,
}

impl TreeConfig {
    /// The paper's exact configuration for a given dimension: 4 KB pages,
    /// one node per page, internal `M = 20`, `m = 8` (40 %), `p = 6` (30 %),
    /// leaves packed to page capacity with the same 40 %/30 % ratios,
    /// R*-tree splits, no buffer.
    pub fn paper(dim: usize) -> Self {
        let leaf_max = Node::max_leaf_fanout(DEFAULT_PAGE_SIZE, dim);
        Self {
            dim,
            page_size: DEFAULT_PAGE_SIZE,
            max_entries: 20,
            min_entries: 8,
            reinsert_count: 6,
            leaf_max_entries: leaf_max,
            leaf_min_entries: (leaf_max * 2) / 5,
            leaf_reinsert_count: (leaf_max * 3) / 10,
            split: SplitPolicy::RStar,
            buffer_frames: 0,
        }
    }

    /// A configuration using the same `M`/`m`/`p` for leaves and internal
    /// nodes (convenient for tests and ablations).
    pub fn uniform(
        dim: usize,
        page_size: usize,
        max_entries: usize,
        min_entries: usize,
        reinsert_count: usize,
        split: SplitPolicy,
        buffer_frames: usize,
    ) -> Self {
        Self {
            dim,
            page_size,
            max_entries,
            min_entries,
            reinsert_count,
            leaf_max_entries: max_entries,
            leaf_min_entries: min_entries,
            leaf_reinsert_count: reinsert_count,
            split,
            buffer_frames,
        }
    }

    /// Capacity bounds `(max, min, reinsert)` for a node kind.
    pub(crate) fn caps(&self, leaf: bool) -> (usize, usize, usize) {
        if leaf {
            (
                self.leaf_max_entries,
                self.leaf_min_entries,
                self.leaf_reinsert_count,
            )
        } else {
            (self.max_entries, self.min_entries, self.reinsert_count)
        }
    }

    /// Validates internal consistency and that a full node fits a page.
    ///
    /// # Panics
    /// Panics with a descriptive message on any violation — configurations
    /// are static programmer input, not runtime data. For configurations
    /// decoded from untrusted bytes use [`TreeConfig::try_validate`].
    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("{e}");
        }
    }

    /// Non-panicking validation for configurations read back from persisted
    /// (possibly corrupted) streams.
    ///
    /// # Errors
    /// A descriptive message for the first violation found.
    pub fn try_validate(&self) -> Result<(), String> {
        if self.dim < 1 {
            return Err("dimension must be at least 1".into());
        }
        if self.page_size <= NODE_HEADER_BYTES {
            return Err(format!(
                "page size {} cannot hold a node header",
                self.page_size
            ));
        }
        for (label, max, min, p, fanout) in [
            (
                "internal",
                self.max_entries,
                self.min_entries,
                self.reinsert_count,
                Node::max_internal_fanout(self.page_size, self.dim),
            ),
            (
                "leaf",
                self.leaf_max_entries,
                self.leaf_min_entries,
                self.leaf_reinsert_count,
                Node::max_leaf_fanout(self.page_size, self.dim),
            ),
        ] {
            if max < 4 {
                return Err(format!("{label} M must be at least 4"));
            }
            if min < 2 || 2 * min > max {
                return Err(format!(
                    "need 2 <= m <= M/2 for {label} nodes (got m = {min}, M = {max})"
                ));
            }
            if p >= max {
                return Err(format!("{label} reinsert count p must be < M"));
            }
            if max > fanout {
                return Err(format!(
                    "{label} M = {max} exceeds page fanout {fanout} at dim {} / page {}",
                    self.dim, self.page_size
                ));
            }
        }
        Ok(())
    }
}

/// An item being (re)inserted, tagged by the tree level it belongs at:
/// data entries live at level 0, child entries at the level of the node
/// that should adopt them.
#[derive(Debug, Clone)]
enum InsertItem {
    Data(DataEntry),
    Child(ChildEntry),
}

impl InsertItem {
    fn mbr(&self, _dim: usize) -> Mbr {
        match self {
            InsertItem::Data(e) => Mbr::point(&e.point),
            InsertItem::Child(e) => e.mbr.clone(),
        }
    }
}

/// Result bubbling up from a recursive insertion.
enum UpResult {
    /// Child absorbed the insertion; its new MBR is attached.
    Done(Mbr),
    /// Child split; its new MBR plus the fresh sibling entry.
    Split(Mbr, ChildEntry),
}

/// A disk-resident R-tree over `dim`-dimensional points with `u64` record
/// ids.
///
/// ```
/// use tsss_index::{RTree, SplitPolicy, TreeConfig};
/// use tsss_geometry::line::Line;
/// use tsss_geometry::penetration::PenetrationMethod;
///
/// let cfg = TreeConfig::uniform(2, 1024, 8, 3, 2, SplitPolicy::RStar, 0);
/// let mut tree = RTree::new(cfg).unwrap();
/// for i in 0..100u64 {
///     tree.insert(vec![i as f64, (i % 7) as f64], i).unwrap();
/// }
/// // All points within 0.5 of the x-axis (no page budget):
/// let axis = Line::new(vec![0.0, 0.0], vec![1.0, 0.0]).unwrap();
/// let hits = tree
///     .line_query(&axis, 0.5, PenetrationMethod::EnteringExiting, None)
///     .unwrap();
/// assert!(hits.matches.iter().all(|m| m.id % 7 == 0));
/// ```
#[derive(Debug)]
pub struct RTree {
    cfg: TreeConfig,
    pub(crate) pool: BufferPool,
    root: PageId,
    /// Number of levels; 1 means the root is a leaf. Leaves are level 0.
    height: usize,
    len: usize,
}

impl RTree {
    /// Creates an empty tree with the given configuration.
    ///
    /// # Errors
    /// Any storage failure while allocating and writing the root page.
    ///
    /// # Panics
    /// Panics when the configuration is invalid (see
    /// [`TreeConfig::validate`]).
    pub fn new(cfg: TreeConfig) -> Result<Self, IndexError> {
        cfg.validate();
        let file = PageFile::new(cfg.page_size)?;
        let mut pool = BufferPool::new(file, cfg.buffer_frames);
        let root = pool.allocate()?;
        let mut tree = Self {
            cfg,
            pool,
            root,
            height: 1,
            len: 0,
        };
        tree.write_node(root, &Node::empty_leaf(tree.cfg.dim))?;
        Ok(tree)
    }

    /// The tree's configuration.
    pub fn config(&self) -> &TreeConfig {
        &self.cfg
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no points are indexed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height in levels (1 = root is a leaf).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Root page id (exposed for white-box tests).
    pub fn root_page(&self) -> PageId {
        self.root
    }

    /// Shared page-access counters (the Figure 5 metric).
    pub fn stats(&self) -> std::sync::Arc<tsss_storage::AccessStats> {
        self.pool.stats()
    }

    /// Drops cached buffer frames so the next query starts cold.
    ///
    /// # Errors
    /// Any storage failure while writing dirty frames back.
    pub fn clear_cache(&self) -> Result<(), IndexError> {
        Ok(self.pool.clear_cache()?)
    }

    /// A copy-on-write twin of the tree: same configuration, root, height
    /// and entries, over a [`BufferPool::fork`] of its pages — one pointer
    /// per page, no bytes copied — with a cold cache and fresh access
    /// counters. Neither tree sees the other's later inserts or damage.
    ///
    /// # Errors
    /// Any storage failure while writing dirty frames back.
    pub fn fork(&self) -> Result<RTree, IndexError> {
        let pool = self.pool.fork()?;
        Ok(Self::from_parts(
            self.cfg.clone(),
            pool,
            self.root,
            self.height,
            self.len,
        ))
    }

    /// Flushes cached frames and runs `f` against the backing page store
    /// (used by persistence).
    pub(crate) fn with_store<R>(
        &self,
        f: impl FnOnce(&dyn PageStore) -> R,
    ) -> Result<R, IndexError> {
        Ok(self.pool.with_store(f)?)
    }

    /// Slides a [`PageStore`] decorator (e.g. a fault injector) under the
    /// tree's buffer pool. Cached frames are dropped, not written back.
    pub fn wrap_store(&mut self, wrap: impl FnOnce(Box<dyn PageStore>) -> Box<dyn PageStore>) {
        self.pool.wrap_store(wrap);
    }

    /// Mutates the raw bytes of `page` beneath the checksum layer; the
    /// damage is detected (as a typed error) on the next read. Chaos-test
    /// hook.
    ///
    /// # Errors
    /// [`tsss_storage::StorageError`] when `page` is invalid or the store
    /// rejects the mutation.
    pub fn corrupt_page(
        &mut self,
        page: PageId,
        f: &mut dyn FnMut(&mut [u8]),
    ) -> Result<(), IndexError> {
        Ok(self.pool.corrupt_page(page, f)?)
    }

    /// Number of pages in the backing store (allocated plus freed).
    pub fn extent(&self) -> usize {
        self.pool.extent()
    }

    pub(crate) fn read_node(&self, page: PageId) -> Result<Node, IndexError> {
        let p = self.pool.read(page)?;
        Node::decode(&p, self.cfg.dim).map_err(|detail| IndexError::CorruptNode { page, detail })
    }

    pub(crate) fn write_node(&mut self, page: PageId, node: &Node) -> Result<(), IndexError> {
        let mut p = Page::zeroed(self.cfg.page_size);
        node.encode(&mut p, self.cfg.dim);
        Ok(self.pool.write(page, p)?)
    }

    // ------------------------------------------------------------------
    // Insertion
    // ------------------------------------------------------------------

    /// Inserts a point with its record id.
    ///
    /// # Errors
    /// Any storage or decoding failure met on the way down. On error the
    /// tree may have been partially updated; callers treating the index as
    /// damaged should fall back to a sequential scan.
    ///
    /// # Panics
    /// Panics when the point's dimension differs from the configuration.
    pub fn insert(&mut self, point: Vec<f64>, id: u64) -> Result<(), IndexError> {
        assert_eq!(
            point.len(),
            self.cfg.dim,
            "point dimension {} != tree dimension {}",
            point.len(),
            self.cfg.dim
        );
        self.len += 1;
        let mut pending: Vec<(InsertItem, usize)> =
            vec![(InsertItem::Data(DataEntry::new(point, id)), 0)];
        // `reinserted[l]` — whether forced reinsertion already ran at level
        // l during this logical insertion (R* runs it at most once per
        // level).
        let mut reinserted = vec![false; self.height];
        while let Some((item, level)) = pending.pop() {
            reinserted.resize(self.height, true); // levels created later never reinsert
            self.insert_from_root(item, level, &mut reinserted, &mut pending)?;
        }
        Ok(())
    }

    fn insert_from_root(
        &mut self,
        item: InsertItem,
        target_level: usize,
        reinserted: &mut [bool],
        pending: &mut Vec<(InsertItem, usize)>,
    ) -> Result<(), IndexError> {
        let root = self.root;
        let root_level = self.height - 1;
        match self.insert_at(root, root_level, item, target_level, reinserted, pending)? {
            UpResult::Done(_) => {}
            UpResult::Split(old_mbr, new_entry) => {
                // Grow a new root above the old one.
                let old_root_entry = ChildEntry {
                    mbr: old_mbr,
                    page: self.root,
                };
                let new_root = self.pool.allocate()?;
                self.write_node(new_root, &Node::Internal(vec![old_root_entry, new_entry]))?;
                self.root = new_root;
                self.height += 1;
            }
        }
        Ok(())
    }

    /// Recursive insertion of `item` (destined for `target_level`) into the
    /// node at `page` (which sits at `level`).
    fn insert_at(
        &mut self,
        page: PageId,
        level: usize,
        item: InsertItem,
        target_level: usize,
        reinserted: &mut [bool],
        pending: &mut Vec<(InsertItem, usize)>,
    ) -> Result<UpResult, IndexError> {
        let mut node = self.read_node(page)?;
        if level == target_level {
            match (&mut node, item) {
                (Node::Leaf(slab), InsertItem::Data(e)) => slab.push_entry(e),
                (Node::Internal(entries), InsertItem::Child(e)) => entries.push(e),
                _ => unreachable!("level/kind mismatch during insertion"),
            }
        } else {
            let Node::Internal(entries) = &mut node else {
                unreachable!("reached a leaf above the target level")
            };
            let item_mbr = item.mbr(self.cfg.dim);
            let chosen = Self::choose_subtree(entries, &item_mbr, level == target_level + 1);
            let child_page = entries[chosen].page;
            match self.insert_at(
                child_page,
                level - 1,
                item,
                target_level,
                reinserted,
                pending,
            )? {
                UpResult::Done(child_mbr) => {
                    // Re-read: recursion may have rewritten this very page
                    // via reinsertion passing through it? No — reinsertions
                    // are deferred to `pending`, so our in-memory copy is
                    // still current. Just refresh the child MBR.
                    node = {
                        let Node::Internal(mut entries) = node else {
                            unreachable!()
                        };
                        entries[chosen].mbr = child_mbr;
                        Node::Internal(entries)
                    };
                }
                UpResult::Split(child_mbr, new_entry) => {
                    let Node::Internal(entries) = &mut node else {
                        unreachable!()
                    };
                    entries[chosen].mbr = child_mbr;
                    entries.push(new_entry);
                }
            }
        }

        let (max, _, _) = self.cfg.caps(node.is_leaf());
        if node.len() > max {
            self.overflow(page, level, node, reinserted, pending)
        } else {
            let mbr = node.mbr().expect("non-empty node after insertion");
            self.write_node(page, &node)?;
            Ok(UpResult::Done(mbr))
        }
    }

    /// R*-tree ChooseSubtree: at the level just above the target, minimise
    /// overlap enlargement (ties: area enlargement, then area); higher up,
    /// minimise area enlargement (ties: area). Guttman trees use the area
    /// rule everywhere.
    fn choose_subtree(entries: &[ChildEntry], item: &Mbr, leaf_level: bool) -> usize {
        debug_assert!(!entries.is_empty());
        if leaf_level {
            let mut best = 0usize;
            let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
            for (i, e) in entries.iter().enumerate() {
                let enlarged = e.mbr.union(item);
                let mut overlap_delta = 0.0;
                for (j, other) in entries.iter().enumerate() {
                    if i == j {
                        continue;
                    }
                    overlap_delta += enlarged.overlap(&other.mbr) - e.mbr.overlap(&other.mbr);
                }
                let key = (overlap_delta, e.mbr.enlargement_for(item), e.mbr.volume());
                if key < best_key {
                    best_key = key;
                    best = i;
                }
            }
            best
        } else {
            let mut best = 0usize;
            let mut best_key = (f64::INFINITY, f64::INFINITY);
            for (i, e) in entries.iter().enumerate() {
                let key = (e.mbr.enlargement_for(item), e.mbr.volume());
                if key < best_key {
                    best_key = key;
                    best = i;
                }
            }
            best
        }
    }

    /// OverflowTreatment: forced reinsert (once per level per insertion,
    /// R* only, never at the root) or split.
    fn overflow(
        &mut self,
        page: PageId,
        level: usize,
        node: Node,
        reinserted: &mut [bool],
        pending: &mut Vec<(InsertItem, usize)>,
    ) -> Result<UpResult, IndexError> {
        let is_root = page == self.root;
        let (_, _, reinsert_count) = self.cfg.caps(node.is_leaf());
        let use_reinsert = self.cfg.split == SplitPolicy::RStar
            && reinsert_count > 0
            && !is_root
            && level < reinserted.len()
            && !reinserted[level];
        if use_reinsert {
            reinserted[level] = true;
            return self.force_reinsert(page, level, node, pending);
        }
        self.split_node(page, node)
    }

    /// Forced reinsertion (R* §4.3): remove the `p` entries whose centres
    /// are farthest from the node's MBR centre and queue them for
    /// reinsertion at this level.
    fn force_reinsert(
        &mut self,
        page: PageId,
        level: usize,
        node: Node,
        pending: &mut Vec<(InsertItem, usize)>,
    ) -> Result<UpResult, IndexError> {
        let (_, _, p) = self.cfg.caps(node.is_leaf());
        let center = node.mbr().expect("overflowing node is non-empty").center();
        let dist_to = |m: &Mbr| -> f64 {
            m.center()
                .iter()
                .zip(&center)
                .map(|(a, b)| (a - b) * (a - b))
                .sum()
        };
        let node = match node {
            Node::Leaf(mut slab) => {
                // Stable index sort by descending centre distance — the same
                // permutation a stable `sort_by` over row-structured entries
                // produced before the slab layout.
                let keys: Vec<f64> = slab
                    .rows()
                    .map(|(_, pt)| dist_to(&Mbr::point(pt)))
                    .collect();
                let mut order: Vec<usize> = (0..slab.len()).collect();
                order.sort_by(|&a, &b| {
                    keys[b]
                        .partial_cmp(&keys[a])
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                slab.reorder(&order);
                for e in slab.drain_front(p) {
                    pending.push((InsertItem::Data(e), level));
                }
                Node::Leaf(slab)
            }
            Node::Internal(mut entries) => {
                entries.sort_by(|a, b| {
                    dist_to(&b.mbr)
                        .partial_cmp(&dist_to(&a.mbr))
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                for e in entries.drain(..p) {
                    pending.push((InsertItem::Child(e), level));
                }
                Node::Internal(entries)
            }
        };
        let mbr = node.mbr().expect("entries remain after reinsert removal");
        self.write_node(page, &node)?;
        Ok(UpResult::Done(mbr))
    }

    /// Splits an overflowing node into two, returning the surviving node's
    /// MBR and the new sibling's entry.
    fn split_node(&mut self, page: PageId, node: Node) -> Result<UpResult, IndexError> {
        let groups = self.run_split_policy(&node);
        let (kept, sibling) = Self::partition(node, &groups);
        let kept_mbr = kept.mbr().expect("split group one non-empty");
        let sib_mbr = sibling.mbr().expect("split group two non-empty");
        let sib_page = self.pool.allocate()?;
        self.write_node(page, &kept)?;
        self.write_node(sib_page, &sibling)?;
        Ok(UpResult::Split(
            kept_mbr,
            ChildEntry {
                mbr: sib_mbr,
                page: sib_page,
            },
        ))
    }

    fn run_split_policy(&self, node: &Node) -> SplitGroups {
        let mbrs: Vec<Mbr> = match node {
            Node::Leaf(v) => v.rows().map(|(_, pt)| Mbr::point(pt)).collect(),
            Node::Internal(v) => v.iter().map(|e| e.mbr.clone()).collect(),
        };
        let (_, min, _) = self.cfg.caps(node.is_leaf());
        match self.cfg.split {
            SplitPolicy::RStar => rstar_split(&mbrs, min),
            SplitPolicy::GuttmanQuadratic => quadratic_split(&mbrs, min),
            SplitPolicy::GuttmanLinear => linear_split(&mbrs, min),
        }
    }

    fn partition(node: Node, groups: &SplitGroups) -> (Node, Node) {
        match node {
            Node::Leaf(slab) => (
                Node::Leaf(slab.select(&groups.first)),
                Node::Leaf(slab.select(&groups.second)),
            ),
            Node::Internal(entries) => {
                let pick = |idxs: &[usize]| -> Vec<ChildEntry> {
                    idxs.iter().map(|&i| entries[i].clone()).collect()
                };
                (
                    Node::Internal(pick(&groups.first)),
                    Node::Internal(pick(&groups.second)),
                )
            }
        }
    }

    // ------------------------------------------------------------------
    // Deletion
    // ------------------------------------------------------------------

    /// Removes the entry with the given point and id. Returns `true` when an
    /// entry was found and removed.
    ///
    /// Underflowing nodes are dissolved and their entries reinserted
    /// (Guttman's CondenseTree), satisfying the paper's "dynamic index"
    /// requirement for data that arrives and expires continuously.
    ///
    /// # Errors
    /// Any storage or decoding failure met on the way; the tree may have
    /// been partially updated.
    pub fn delete(&mut self, point: &[f64], id: u64) -> Result<bool, IndexError> {
        assert_eq!(point.len(), self.cfg.dim, "point dimension mismatch");
        let mut orphans: Vec<(InsertItem, usize)> = Vec::new();
        let root = self.root;
        let root_level = self.height - 1;
        let found = match self.delete_at(root, root_level, point, id, &mut orphans)? {
            DeleteOutcome::NotFound => false,
            DeleteOutcome::Removed => true,
        };
        if !found {
            return Ok(false);
        }
        self.len -= 1;

        // Shrink the root while it is an internal node with a single child.
        loop {
            let node = self.read_node(self.root)?;
            match node {
                Node::Internal(entries) if entries.len() == 1 => {
                    let old_root = self.root;
                    self.root = entries[0].page;
                    self.pool.deallocate(old_root)?;
                    self.height -= 1;
                }
                _ => break,
            }
        }

        // Reinsert orphans at their original levels (highest levels first so
        // the tree is tall enough when child entries go back in).
        orphans.sort_by_key(|(_, level)| std::cmp::Reverse(*level));
        for (item, level) in orphans {
            // The tree may have shrunk below an orphan's level; in that case
            // its entries cascade down to re-fit (only possible for child
            // entries whose subtrees are themselves consistent — we splice
            // their data back in by walking the subtree).
            if level >= self.height {
                self.reinsert_subtree(item)?;
            } else {
                let mut reinserted = vec![true; self.height]; // no forced reinsert during delete
                let mut pending = vec![(item, level)];
                while let Some((it, lv)) = pending.pop() {
                    self.insert_from_root(it, lv, &mut reinserted, &mut pending)?;
                }
            }
        }
        Ok(true)
    }

    /// Fallback for orphaned subtrees taller than the current tree: reinsert
    /// every data point individually.
    fn reinsert_subtree(&mut self, item: InsertItem) -> Result<(), IndexError> {
        match item {
            InsertItem::Data(e) => {
                self.len -= 1; // insert() will re-add it
                self.insert(e.point.into_vec(), e.id)?;
            }
            InsertItem::Child(c) => {
                let node = self.read_node(c.page)?;
                self.pool.deallocate(c.page)?;
                match node {
                    Node::Leaf(slab) => {
                        for e in slab.into_entries() {
                            self.reinsert_subtree(InsertItem::Data(e))?;
                        }
                    }
                    Node::Internal(entries) => {
                        for e in entries {
                            self.reinsert_subtree(InsertItem::Child(e))?;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn delete_at(
        &mut self,
        page: PageId,
        level: usize,
        point: &[f64],
        id: u64,
        orphans: &mut Vec<(InsertItem, usize)>,
    ) -> Result<DeleteOutcome, IndexError> {
        let mut node = self.read_node(page)?;
        match &mut node {
            Node::Leaf(slab) => {
                let Some(pos) = slab.position(point, id) else {
                    return Ok(DeleteOutcome::NotFound);
                };
                slab.remove(pos);
                self.write_node(page, &node)?;
                Ok(DeleteOutcome::Removed)
            }
            Node::Internal(entries) => {
                let mut removed_in: Option<usize> = None;
                let candidates: Vec<(usize, PageId)> = entries
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| e.mbr.contains_point(point))
                    .map(|(i, e)| (i, e.page))
                    .collect();
                for (i, child) in candidates {
                    match self.delete_at(child, level - 1, point, id, orphans)? {
                        DeleteOutcome::NotFound => continue,
                        DeleteOutcome::Removed => {
                            removed_in = Some(i);
                            break;
                        }
                    }
                }

                let Some(i) = removed_in else {
                    return Ok(DeleteOutcome::NotFound);
                };
                // delete_at read our in-memory copy before recursion; the
                // recursion only modified descendants, so `entries` is
                // still current. Refresh or condense child `i`.
                let child_page = entries[i].page;
                let child = self.read_node(child_page)?;
                let (_, child_min, _) = self.cfg.caps(child.is_leaf());
                if child.len() < child_min {
                    // Dissolve the child; orphan its entries at child level.
                    let child_level = level - 1;
                    match child {
                        Node::Leaf(slab) => {
                            for e in slab.into_entries() {
                                orphans.push((InsertItem::Data(e), child_level));
                            }
                        }
                        Node::Internal(es) => {
                            // A child entry whose subtree root sits at level
                            // `child_level − 1` is adopted by a node at
                            // `child_level` — the dissolved node's own level.
                            for e in es {
                                orphans.push((InsertItem::Child(e), child_level));
                            }
                        }
                    }
                    self.pool.deallocate(child_page)?;
                    entries.remove(i);
                } else {
                    entries[i].mbr = child.mbr().expect("non-underflowing child");
                }
                self.write_node(page, &node)?;
                Ok(DeleteOutcome::Removed)
            }
        }
    }

    // ------------------------------------------------------------------
    // Introspection / validation
    // ------------------------------------------------------------------

    /// Walks the whole tree checking every structural invariant; returns the
    /// number of data entries seen.
    ///
    /// Doubles as the CLI `scrub` verifier: every page is read (and hence
    /// checksum-verified), decoded, and checked against the R-tree shape
    /// rules.
    ///
    /// # Errors
    /// [`IndexError::CorruptNode`] describing the first violated invariant,
    /// or any storage/decoding failure met on the way. Uses counted reads
    /// (reset the stats afterwards if you care).
    pub fn check_invariants(&self) -> Result<usize, IndexError> {
        let root = self.root;
        let height = self.height;
        let count = self.check_node(root, height - 1, None)?;
        if count != self.len {
            return Err(IndexError::CorruptNode {
                page: root,
                detail: format!(
                    "len() = {} disagrees with leaf population {count}",
                    self.len
                ),
            });
        }
        Ok(count)
    }

    fn check_node(
        &self,
        page: PageId,
        level: usize,
        parent_mbr: Option<&Mbr>,
    ) -> Result<usize, IndexError> {
        let node = self.read_node(page)?;
        let is_root = page == self.root;
        let (max, min, _) = self.cfg.caps(node.is_leaf());
        let fail = |detail: String| IndexError::CorruptNode { page, detail };
        if !is_root && node.len() < min {
            return Err(fail(format!("node underflows: {} < m = {min}", node.len())));
        }
        if node.len() > max {
            return Err(fail(format!("node overflows: {} > M = {max}", node.len())));
        }
        if let (Some(pm), Some(nm)) = (parent_mbr, node.mbr().as_ref()) {
            if !pm.contains_mbr(nm) {
                return Err(fail("parent MBR does not contain node".into()));
            }
        }
        match node {
            Node::Leaf(entries) => {
                if level != 0 {
                    return Err(fail(format!("leaf found at level {level}")));
                }
                Ok(entries.len())
            }
            Node::Internal(entries) => {
                if level == 0 {
                    return Err(fail("internal node at leaf level".into()));
                }
                let mut total = 0;
                for e in entries {
                    let child = self.read_node(e.page)?;
                    let child_mbr = child.mbr().ok_or_else(|| IndexError::CorruptNode {
                        page: e.page,
                        detail: "empty non-root node".into(),
                    })?;
                    if !e.mbr.contains_mbr(&child_mbr) {
                        return Err(fail(format!(
                            "stored child MBR does not cover child {}",
                            e.page
                        )));
                    }
                    total += self.check_node(e.page, level - 1, Some(&e.mbr))?;
                }
                Ok(total)
            }
        }
    }

    /// Collects the MBR of every directory entry in the tree (all levels).
    /// Introspection facility for box-shape analyses.
    ///
    /// # Errors
    /// Any storage or decoding failure met on the walk.
    pub fn directory_mbrs(&self) -> Result<Vec<Mbr>, IndexError> {
        let mut out = Vec::new();
        let root = self.root;
        self.collect_mbrs(root, &mut out)?;
        Ok(out)
    }

    fn collect_mbrs(&self, page: PageId, out: &mut Vec<Mbr>) -> Result<(), IndexError> {
        if let Node::Internal(entries) = self.read_node(page)? {
            for e in entries {
                out.push(e.mbr.clone());
                self.collect_mbrs(e.page, out)?;
            }
        }
        Ok(())
    }

    /// Collects every `(point, id)` pair in the tree (in unspecified order).
    /// Test facility.
    ///
    /// # Errors
    /// Any storage or decoding failure met on the walk.
    pub fn dump(&self) -> Result<Vec<(Vec<f64>, u64)>, IndexError> {
        let mut out = Vec::with_capacity(self.len);
        let root = self.root;
        self.dump_node(root, &mut out)?;
        Ok(out)
    }

    fn dump_node(&self, page: PageId, out: &mut Vec<(Vec<f64>, u64)>) -> Result<(), IndexError> {
        match self.read_node(page)? {
            Node::Leaf(slab) => {
                for (id, p) in slab.rows() {
                    out.push((p.to_vec(), id));
                }
            }
            Node::Internal(entries) => {
                for e in entries {
                    self.dump_node(e.page, out)?;
                }
            }
        }
        Ok(())
    }

    /// Constructs a tree directly from pre-built levels (used by the STR
    /// bulk loader).
    pub(crate) fn from_parts(
        cfg: TreeConfig,
        pool: BufferPool,
        root: PageId,
        height: usize,
        len: usize,
    ) -> Self {
        Self {
            cfg,
            pool,
            root,
            height,
            len,
        }
    }
}

enum DeleteOutcome {
    NotFound,
    Removed,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(dim: usize, split: SplitPolicy) -> TreeConfig {
        TreeConfig::uniform(dim, 1024, 8, 3, 2, split, 0)
    }

    fn grid_points(n: usize) -> Vec<Vec<f64>> {
        // Deterministic scattered 2-d points (decorrelated via multipliers).
        (0..n)
            .map(|i| vec![((i * 37) % 101) as f64, ((i * 61) % 97) as f64])
            .collect()
    }

    #[test]
    fn empty_tree_properties() {
        let t = RTree::new(small_cfg(2, SplitPolicy::RStar)).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.height(), 1);
        assert_eq!(t.check_invariants().unwrap(), 0);
    }

    #[test]
    fn paper_config_validates() {
        TreeConfig::paper(6).validate();
    }

    #[test]
    #[should_panic(expected = "m <= M/2")]
    fn bad_min_entries_rejected() {
        let mut c = TreeConfig::paper(6);
        c.min_entries = 11;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "exceeds page fanout")]
    fn oversized_m_rejected() {
        let mut c = TreeConfig::paper(6);
        c.page_size = 512; // fanout (512-3)/100 = 5
        c.validate();
    }

    #[test]
    fn insert_and_dump_small() {
        let mut t = RTree::new(small_cfg(2, SplitPolicy::RStar)).unwrap();
        let pts = grid_points(50);
        for (i, p) in pts.iter().enumerate() {
            t.insert(p.clone(), i as u64).unwrap();
        }
        assert_eq!(t.len(), 50);
        t.check_invariants().unwrap();
        let mut dumped = t.dump().unwrap();
        dumped.sort_by_key(|(_, id)| *id);
        for (i, (p, id)) in dumped.iter().enumerate() {
            assert_eq!(*id, i as u64);
            assert_eq!(*p, pts[i]);
        }
    }

    #[test]
    fn all_split_policies_build_valid_trees() {
        for split in [
            SplitPolicy::RStar,
            SplitPolicy::GuttmanQuadratic,
            SplitPolicy::GuttmanLinear,
        ] {
            let mut t = RTree::new(small_cfg(2, split)).unwrap();
            for (i, p) in grid_points(300).iter().enumerate() {
                t.insert(p.clone(), i as u64).unwrap();
            }
            assert_eq!(t.len(), 300, "{split:?}");
            assert!(t.height() >= 3, "{split:?} should have grown");
            t.check_invariants().unwrap();
        }
    }

    #[test]
    fn duplicate_points_are_allowed() {
        let mut t = RTree::new(small_cfg(2, SplitPolicy::RStar)).unwrap();
        for i in 0..40 {
            t.insert(vec![1.0, 2.0], i).unwrap();
        }
        assert_eq!(t.len(), 40);
        t.check_invariants().unwrap();
    }

    #[test]
    fn delete_removes_exactly_the_victim() {
        let mut t = RTree::new(small_cfg(2, SplitPolicy::RStar)).unwrap();
        let pts = grid_points(60);
        for (i, p) in pts.iter().enumerate() {
            t.insert(p.clone(), i as u64).unwrap();
        }
        assert!(t.delete(&pts[17], 17).unwrap());
        assert!(!t.delete(&pts[17], 17).unwrap(), "double delete must fail");
        assert_eq!(t.len(), 59);
        t.check_invariants().unwrap();
        let ids: Vec<u64> = t.dump().unwrap().into_iter().map(|(_, id)| id).collect();
        assert!(!ids.contains(&17));
        assert_eq!(ids.len(), 59);
    }

    #[test]
    fn delete_distinguishes_ids_at_same_point() {
        let mut t = RTree::new(small_cfg(2, SplitPolicy::RStar)).unwrap();
        t.insert(vec![5.0, 5.0], 1).unwrap();
        t.insert(vec![5.0, 5.0], 2).unwrap();
        assert!(t.delete(&[5.0, 5.0], 2).unwrap());
        let dumped = t.dump().unwrap();
        assert_eq!(dumped.len(), 1);
        assert_eq!(dumped[0].1, 1);
    }

    #[test]
    fn delete_everything_shrinks_to_empty_root() {
        let mut t = RTree::new(small_cfg(2, SplitPolicy::RStar)).unwrap();
        let pts = grid_points(120);
        for (i, p) in pts.iter().enumerate() {
            t.insert(p.clone(), i as u64).unwrap();
        }
        for (i, p) in pts.iter().enumerate() {
            assert!(t.delete(p, i as u64).unwrap(), "missing id {i}");
            t.check_invariants().unwrap();
        }
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
    }

    #[test]
    fn interleaved_inserts_and_deletes_stay_consistent() {
        let mut t = RTree::new(small_cfg(2, SplitPolicy::RStar)).unwrap();
        let pts = grid_points(200);
        for (i, p) in pts.iter().enumerate() {
            t.insert(p.clone(), i as u64).unwrap();
            if i % 3 == 2 {
                // Remove the previous point again.
                assert!(t.delete(&pts[i - 1], (i - 1) as u64).unwrap());
            }
        }
        t.check_invariants().unwrap();
        let ids: std::collections::BTreeSet<u64> =
            t.dump().unwrap().into_iter().map(|(_, id)| id).collect();
        for i in 0..200u64 {
            let expect_deleted = i % 3 == 1 && i + 1 < 200;
            assert_eq!(!ids.contains(&i), expect_deleted, "id {i} presence wrong");
        }
    }

    #[test]
    fn height_grows_logarithmically() {
        let mut t = RTree::new(small_cfg(2, SplitPolicy::RStar)).unwrap();
        for (i, p) in grid_points(1000).iter().enumerate() {
            t.insert(p.clone(), i as u64).unwrap();
        }
        // With M = 8 and 1000 entries, height should be ~4 (8^4 = 4096).
        assert!(t.height() >= 3 && t.height() <= 6, "height {}", t.height());
        t.check_invariants().unwrap();
    }

    #[test]
    fn six_dimensional_paper_layout_works() {
        let mut cfg = TreeConfig::paper(6);
        cfg.buffer_frames = 0;
        let mut t = RTree::new(cfg).unwrap();
        for i in 0..500u64 {
            let p: Vec<f64> = (0..6).map(|j| ((i * 31 + j * 17) % 211) as f64).collect();
            t.insert(p, i).unwrap();
        }
        assert_eq!(t.len(), 500);
        t.check_invariants().unwrap();
    }

    #[test]
    fn page_accesses_are_recorded_during_inserts() {
        let mut t = RTree::new(small_cfg(2, SplitPolicy::RStar)).unwrap();
        t.stats().reset();
        t.insert(vec![1.0, 1.0], 0).unwrap();
        let s = t.stats();
        assert!(s.reads() >= 1, "insert must read the root");
        assert!(s.writes() >= 1, "insert must write the leaf");
    }

    #[test]
    fn try_validate_reports_instead_of_panicking() {
        let mut c = TreeConfig::paper(6);
        c.min_entries = 11;
        assert!(c.try_validate().unwrap_err().contains("m <= M/2"));
        c = TreeConfig::paper(6);
        c.page_size = 512;
        assert!(c
            .try_validate()
            .unwrap_err()
            .contains("exceeds page fanout"));
        c = TreeConfig::paper(6);
        c.page_size = 2; // cannot even hold the node header
        assert!(c.try_validate().unwrap_err().contains("node header"));
        assert!(TreeConfig::paper(6).try_validate().is_ok());
    }

    #[test]
    fn corrupt_page_surfaces_typed_errors_not_panics() {
        let mut t = RTree::new(small_cfg(2, SplitPolicy::RStar)).unwrap();
        for (i, p) in grid_points(80).iter().enumerate() {
            t.insert(p.clone(), i as u64).unwrap();
        }
        let root = t.root_page();
        t.corrupt_page(root, &mut |bytes| bytes[7] ^= 0x40).unwrap();
        let err = t.dump().unwrap_err();
        assert!(err.is_corruption(), "{err}");
        assert!(t.check_invariants().is_err());
        assert!(t.insert(vec![0.5, 0.5], 999).is_err());
    }

    #[test]
    fn decodable_but_malformed_node_is_a_corrupt_node_error() {
        let mut t = RTree::new(small_cfg(2, SplitPolicy::RStar)).unwrap();
        for (i, p) in grid_points(80).iter().enumerate() {
            t.insert(p.clone(), i as u64).unwrap();
        }
        let root = t.root_page();
        // An absurd entry count decodes as "exceeds page fanout" — but we
        // corrupt beneath the checksum, so the CRC catches it first; heal
        // the CRC by rewriting through the pool is not possible without the
        // plain bytes, so just assert the typed error shape.
        t.corrupt_page(root, &mut |bytes| bytes[1] = 0xFF).unwrap();
        match t.dump().unwrap_err() {
            IndexError::Storage(tsss_storage::StorageError::Corrupt { .. }) => {}
            other => panic!("expected storage corruption, got {other:?}"),
        }
    }
}
