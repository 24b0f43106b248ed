//! R-tree nodes and their page serialisation.
//!
//! The paper stores one node per 4 KB page (§7). We honour that literally:
//! a node lives in a [`Page`] with the fixed layout below (little-endian,
//! alignment-free):
//!
//! ```text
//! offset 0   u8   kind (0 = leaf, 1 = internal)
//! offset 1   u16  entry count
//! offset 3   entries…
//!
//! internal entry (4 + 16·d bytes): u32 child page | d×f64 low | d×f64 high
//! leaf entry     (8 +  8·d bytes): u64 record id  | d×f64 point
//! ```
//!
//! The maximum fanout `M` a page can hold follows from these sizes; the
//! tree's configuration validates against it.
//!
//! Two views read that layout, with one validator between them:
//!
//! * `NodeScan` (crate-internal) reads a page **in place**. Its constructor checks the
//!   header; each entry is checked as it is read, into caller-owned
//!   coordinate buffers. The query walks (`RTree::line_query`,
//!   `RTree::radius_query`, `RTree::nearest`) test every ε-MBR and leaf
//!   point straight from it, so a page visit allocates nothing per entry.
//! * [`Node`] (with [`LeafSlab`] for leaves) is the write path's **owned**
//!   view, which insertion, splitting, bulk loading and repair edit and
//!   [`Node::encode`] writes back. [`Node::decode`] is a `NodeScan` plus a
//!   collect, so both views accept and refuse exactly the same pages.

use tsss_geometry::Mbr;
use tsss_storage::{Page, PageId};

/// Byte size of the fixed node header.
pub const NODE_HEADER_BYTES: usize = 3;

/// An entry of an internal node: the MBR of a child and its page.
#[derive(Debug, Clone, PartialEq)]
pub struct ChildEntry {
    /// Minimum bounding rectangle of the entire subtree under `page`.
    pub mbr: Mbr,
    /// Page id of the child node.
    pub page: PageId,
}

/// An entry of a leaf node: an indexed feature point and the identifier of
/// the record (data subsequence) it came from.
#[derive(Debug, Clone, PartialEq)]
pub struct DataEntry {
    /// The indexed point (e.g. the DFT features of an SE-transformed
    /// window).
    pub point: Box<[f64]>,
    /// Caller-assigned record identifier (the paper's `ID_i`).
    pub id: u64,
}

impl DataEntry {
    /// Convenience constructor.
    pub fn new(point: Vec<f64>, id: u64) -> Self {
        Self {
            point: point.into_boxed_slice(),
            id,
        }
    }
}

/// Columnar storage for a leaf's entries: every id in one `Vec<u64>`, every
/// point packed row-major into one contiguous `f64` slab.
///
/// This is the write path's owned leaf: insertion, splitting, bulk loading
/// and repair edit it, and iterate it with [`rows`](Self::rows), one bounds
/// check per row over a single allocation. Queries do not build one; they
/// read leaf points in place from the page. The on-disk wire format
/// (interleaved `id, point` records; see the module docs) differs:
/// [`Node::encode`]/[`Node::decode`] translate between the two.
///
/// Mutating operations ([`reorder`](Self::reorder),
/// [`drain_front`](Self::drain_front), [`select`](Self::select)) mirror the
/// semantics the former `Vec<DataEntry>` representation had (stable order,
/// `Vec::drain`-style shifts), so tree shapes — and therefore the blessed
/// equivalence fixtures — are preserved exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct LeafSlab {
    dim: usize,
    ids: Vec<u64>,
    points: Vec<f64>,
}

impl LeafSlab {
    /// An empty slab for `dim`-dimensional points.
    ///
    /// # Panics
    /// Panics when `dim == 0` (the tree never indexes zero-dimensional
    /// points; row chunking requires a positive stride).
    pub fn new(dim: usize) -> Self {
        Self::with_capacity(dim, 0)
    }

    /// An empty slab with room for `entries` rows.
    ///
    /// # Panics
    /// Panics when `dim == 0`.
    pub fn with_capacity(dim: usize, entries: usize) -> Self {
        assert!(dim > 0, "leaf slab dimension must be positive");
        Self {
            dim,
            ids: Vec::with_capacity(entries),
            points: Vec::with_capacity(entries * dim),
        }
    }

    /// Builds a slab from row-structured entries (preserving order).
    ///
    /// # Panics
    /// Panics when `dim == 0` or an entry's dimension differs from `dim`.
    pub fn from_entries(dim: usize, entries: impl IntoIterator<Item = DataEntry>) -> Self {
        let it = entries.into_iter();
        let mut slab = Self::with_capacity(dim, it.size_hint().0);
        for e in it {
            slab.push(e.id, &e.point);
        }
        slab
    }

    /// Point dimensionality (row stride).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the slab holds no rows.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Iterates `(id, point)` rows in order — the hot-loop accessor; the
    /// point slices are consecutive chunks of one contiguous slab.
    pub fn rows(&self) -> impl Iterator<Item = (u64, &[f64])> {
        self.ids
            .iter()
            .copied()
            .zip(self.points.chunks_exact(self.dim))
    }

    /// The row at `i`, or `None` past the end.
    pub fn row(&self, i: usize) -> Option<(u64, &[f64])> {
        let start = i.checked_mul(self.dim)?;
        let point = self.points.get(start..start.checked_add(self.dim)?)?;
        self.ids.get(i).map(|&id| (id, point))
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics when `point.len() != dim`.
    pub fn push(&mut self, id: u64, point: &[f64]) {
        assert_eq!(point.len(), self.dim, "leaf entry dimension mismatch");
        self.ids.push(id);
        self.points.extend_from_slice(point);
    }

    /// Appends a row from a [`DataEntry`].
    ///
    /// # Panics
    /// Panics when the entry's dimension differs from the slab's.
    pub fn push_entry(&mut self, e: DataEntry) {
        self.push(e.id, &e.point);
    }

    /// Rebuilds the slab with rows picked in `order` — the slab analogue of
    /// permuting a `Vec` of entries. Rows not mentioned are dropped; an
    /// out-of-range index is skipped (debug builds assert against both).
    pub fn reorder(&mut self, order: &[usize]) {
        debug_assert!(
            order.len() == self.len() && {
                let mut seen = vec![false; self.len()];
                order.iter().all(|&i| {
                    let fresh = seen.get(i).is_some_and(|s| !*s);
                    if let Some(s) = seen.get_mut(i) {
                        *s = true;
                    }
                    fresh
                })
            },
            "reorder requires a permutation of 0..len"
        );
        *self = self.select(order);
    }

    /// A new slab holding the rows at `idxs`, in that order (out-of-range
    /// indices are skipped).
    pub fn select(&self, idxs: &[usize]) -> Self {
        let mut out = Self::with_capacity(self.dim, idxs.len());
        for &i in idxs {
            if let Some((id, point)) = self.row(i) {
                out.ids.push(id);
                out.points.extend_from_slice(point);
            } else {
                debug_assert!(false, "select index {i} out of bounds");
            }
        }
        out
    }

    /// Removes the first `n` rows (later rows shift down) and returns them
    /// as row-structured entries — the slab analogue of `drain(..n)`.
    ///
    /// # Panics
    /// Panics when `n > len()`.
    pub fn drain_front(&mut self, n: usize) -> Vec<DataEntry> {
        let ids: Vec<u64> = self.ids.drain(..n).collect();
        let mut out = Vec::with_capacity(n);
        let mut drained = self.points.drain(..n * self.dim);
        for id in ids {
            let point: Vec<f64> = drained.by_ref().take(self.dim).collect();
            out.push(DataEntry::new(point, id));
        }
        drop(drained);
        out
    }

    /// The MBR covering every row, or `None` when empty.
    pub fn mbr(&self) -> Option<Mbr> {
        Mbr::covering(self.points.chunks_exact(self.dim))
    }
}

/// A node of the R-tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// An internal (directory) node.
    Internal(Vec<ChildEntry>),
    /// A leaf node holding data entries in columnar slab form.
    Leaf(LeafSlab),
}

impl Node {
    /// An empty leaf for `dim`-dimensional points.
    ///
    /// # Panics
    /// Panics when `dim == 0`.
    pub fn empty_leaf(dim: usize) -> Self {
        Node::Leaf(LeafSlab::new(dim))
    }

    /// Number of entries in the node.
    pub fn len(&self) -> usize {
        match self {
            Node::Internal(v) => v.len(),
            Node::Leaf(v) => v.len(),
        }
    }

    /// True when the node holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True for leaf nodes.
    pub fn is_leaf(&self) -> bool {
        matches!(self, Node::Leaf(_))
    }

    /// The MBR covering every entry of the node, or `None` when empty.
    pub fn mbr(&self) -> Option<Mbr> {
        match self {
            Node::Internal(v) => {
                let mut it = v.iter();
                let mut acc = it.next()?.mbr.clone();
                for e in it {
                    acc.extend_mbr(&e.mbr);
                }
                Some(acc)
            }
            Node::Leaf(v) => v.mbr(),
        }
    }

    /// Byte size of one internal entry at dimension `dim`, saturating at
    /// `usize::MAX` (which no page holds) for a hostile `dim`.
    pub fn internal_entry_bytes(dim: usize) -> usize {
        dim.saturating_mul(16).saturating_add(4)
    }

    /// Byte size of one leaf entry at dimension `dim`, saturating like
    /// [`Node::internal_entry_bytes`].
    pub fn leaf_entry_bytes(dim: usize) -> usize {
        dim.saturating_mul(8).saturating_add(8)
    }

    /// Largest `M` such that a node with `M` entries of either kind fits a
    /// page of `page_size` bytes at dimension `dim`.
    pub fn max_fanout(page_size: usize, dim: usize) -> usize {
        let worst = Self::internal_entry_bytes(dim).max(Self::leaf_entry_bytes(dim));
        (page_size - NODE_HEADER_BYTES) / worst
    }

    /// Largest internal-node fanout fitting the page.
    pub fn max_internal_fanout(page_size: usize, dim: usize) -> usize {
        (page_size - NODE_HEADER_BYTES) / Self::internal_entry_bytes(dim)
    }

    /// Largest leaf-node fanout fitting the page.
    pub fn max_leaf_fanout(page_size: usize, dim: usize) -> usize {
        (page_size - NODE_HEADER_BYTES) / Self::leaf_entry_bytes(dim)
    }

    /// Serialises the node into `page`.
    ///
    /// # Panics
    /// Panics when the node does not fit the page (the tree's config
    /// guarantees it does) or when an entry's dimension differs from `dim`.
    pub fn encode(&self, page: &mut Page, dim: usize) {
        match self {
            Node::Leaf(slab) => {
                assert_eq!(slab.dim(), dim, "leaf entry dimension mismatch");
                page.put_u8(0, 0);
                page.put_u16(
                    1,
                    // analyze::allow(panic): fanout is capped far below u16::MAX by TreeConfig::validate; encode's documented `# Panics` contract covers hand-built oversized nodes.
                    u16::try_from(slab.len()).expect("node entry count overflows u16"),
                );
                let mut off = NODE_HEADER_BYTES;
                for (id, point) in slab.rows() {
                    page.put_u64(off, id);
                    off = page.put_f64_slice(off + 8, point);
                }
            }
            Node::Internal(entries) => {
                page.put_u8(0, 1);
                page.put_u16(
                    1,
                    // analyze::allow(panic): see the leaf arm above.
                    u16::try_from(entries.len()).expect("node entry count overflows u16"),
                );
                let mut off = NODE_HEADER_BYTES;
                for e in entries {
                    assert_eq!(e.mbr.dim(), dim, "internal entry dimension mismatch");
                    page.put_u32(off, e.page.0);
                    off = page.put_f64_slice(off + 4, e.mbr.low());
                    off = page.put_f64_slice(off, e.mbr.high());
                }
            }
        }
    }

    /// Deserialises a node of dimension `dim` from `page`: the in-place
    /// scan the query walks use, over every entry, collected.
    ///
    /// Defence in depth behind the page checksum: even bytes that verified
    /// (or arrived through an unchecked channel) are refused unless they
    /// form a well-shaped node — known kind byte, entry count within the
    /// page's fanout, finite coordinates, ordered MBRs, and no sentinel
    /// child pages.
    ///
    /// # Errors
    /// A human-readable diagnosis of the first malformation found; callers
    /// (`RTree::read_node`) wrap it with the page id.
    pub fn decode(page: &Page, dim: usize) -> Result<Node, String> {
        let scan = NodeScan::new(page, dim)?;
        if scan.is_leaf() {
            let mut slab = LeafSlab::with_capacity(dim, scan.len());
            let mut point = vec![0.0; dim];
            for i in 0..scan.len() {
                let id = scan.point(i, &mut point)?;
                slab.push(id, &point);
            }
            Ok(Node::Leaf(slab))
        } else {
            let mut entries = Vec::with_capacity(scan.len());
            let (mut low, mut high) = (vec![0.0; dim], vec![0.0; dim]);
            for i in 0..scan.len() {
                let page = scan.child(i, &mut low, &mut high)?;
                let mbr = Mbr::new(low.clone(), high.clone())
                    .map_err(|e| format!("internal entry {i}: {e}"))?;
                entries.push(ChildEntry { mbr, page });
            }
            Ok(Node::Internal(entries))
        }
    }
}

/// A node page read in place: [`new`](Self::new) checks the header, and
/// [`point`](Self::point) / [`child`](Self::child) check and decode one
/// entry at a time into coordinate buffers the caller owns and reuses.
///
/// The checks are the node layer's defence in depth behind the page
/// checksum: a known kind byte, an entry count within the page's fanout,
/// finite coordinates, ordered MBRs and no sentinel child pages. Each entry
/// is checked when it is read, so a caller that reads entries in order
/// fails on the first bad one, naming it, exactly as [`Node::decode`] does.
#[derive(Debug)]
pub(crate) struct NodeScan<'p> {
    page: &'p Page,
    dim: usize,
    leaf: bool,
    len: usize,
}

impl<'p> NodeScan<'p> {
    /// Opens the node of dimension `dim` on `page`, checking its header.
    ///
    /// # Errors
    /// A diagnosis when the page is too small for a header, the kind byte
    /// is unknown, the entry count exceeds the page's fanout, or a leaf
    /// claims dimension 0.
    pub(crate) fn new(page: &'p Page, dim: usize) -> Result<Self, String> {
        if page.size() < NODE_HEADER_BYTES {
            return Err(format!("page of {} bytes cannot hold a node", page.size()));
        }
        // analyze::allow(cast): u16 → usize widening is lossless.
        let len = page.get_u16(1) as usize;
        let leaf = match page.get_u8(0) {
            0 => {
                let max = Node::max_leaf_fanout(page.size(), dim);
                if len > max {
                    return Err(format!("leaf entry count {len} exceeds page fanout {max}"));
                }
                if dim == 0 {
                    return Err("leaf nodes require a positive dimension".to_string());
                }
                true
            }
            1 => {
                let max = Node::max_internal_fanout(page.size(), dim);
                if len > max {
                    return Err(format!(
                        "internal entry count {len} exceeds page fanout {max}"
                    ));
                }
                false
            }
            k => return Err(format!("unknown kind byte {k}")),
        };
        Ok(Self {
            page,
            dim,
            leaf,
            len,
        })
    }

    /// True for a leaf page (entries are points), false for an internal
    /// one (entries are children).
    pub(crate) fn is_leaf(&self) -> bool {
        self.leaf
    }

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Leaf entry `i`: its record id, with its point decoded into `point`.
    ///
    /// # Errors
    /// A diagnosis naming entry `i` when a coordinate is not finite.
    ///
    /// # Panics
    /// Debug-asserts a leaf page, `i < len()` and `point.len() == dim`;
    /// past the page's end the page accessors panic.
    pub(crate) fn point(&self, i: usize, point: &mut [f64]) -> Result<u64, String> {
        debug_assert!(self.leaf && i < self.len && point.len() == self.dim);
        let off = NODE_HEADER_BYTES + i * Node::leaf_entry_bytes(self.dim);
        let id = self.page.get_u64(off);
        self.page.get_f64_slice(off + 8, point);
        if point.iter().any(|v| !v.is_finite()) {
            return Err(format!("leaf entry {i} has a non-finite coordinate"));
        }
        Ok(id)
    }

    /// Internal entry `i`: its child page, with the child's MBR decoded
    /// into `low` and `high`.
    ///
    /// # Errors
    /// A diagnosis naming entry `i` when the child is the sentinel page, a
    /// coordinate is not finite, or the MBR is inverted.
    ///
    /// # Panics
    /// Debug-asserts an internal page, `i < len()` and buffers of length
    /// `dim`; past the page's end the page accessors panic.
    pub(crate) fn child(
        &self,
        i: usize,
        low: &mut [f64],
        high: &mut [f64],
    ) -> Result<PageId, String> {
        debug_assert!(!self.leaf && i < self.len);
        debug_assert!(low.len() == self.dim && high.len() == self.dim);
        let off = NODE_HEADER_BYTES + i * Node::internal_entry_bytes(self.dim);
        let child = PageId(self.page.get_u32(off));
        if !child.is_valid() {
            return Err(format!("internal entry {i} points at the sentinel page"));
        }
        let off = self.page.get_f64_slice(off + 4, low);
        self.page.get_f64_slice(off, high);
        if low.iter().chain(high.iter()).any(|v| !v.is_finite()) {
            return Err(format!("internal entry {i} has a non-finite coordinate"));
        }
        if low.iter().zip(high.iter()).any(|(l, h)| l > h) {
            return Err(format!("internal entry {i} has an inverted MBR"));
        }
        Ok(child)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsss_storage::DEFAULT_PAGE_SIZE;

    fn leaf_fixture(dim: usize, n: usize) -> Node {
        Node::Leaf(LeafSlab::from_entries(
            dim,
            (0..n).map(|i| {
                DataEntry::new(
                    (0..dim).map(|j| (i * dim + j) as f64 * 0.5).collect(),
                    i as u64 + 1000,
                )
            }),
        ))
    }

    fn internal_fixture(dim: usize, n: usize) -> Node {
        Node::Internal(
            (0..n)
                .map(|i| {
                    let low: Vec<f64> = (0..dim).map(|j| i as f64 + j as f64).collect();
                    let high: Vec<f64> = low.iter().map(|v| v + 1.5).collect();
                    ChildEntry {
                        mbr: Mbr::new(low, high).unwrap(),
                        page: PageId(i as u32 + 7),
                    }
                })
                .collect(),
        )
    }

    #[test]
    fn leaf_roundtrip() {
        let node = leaf_fixture(6, 20);
        let mut page = Page::zeroed(DEFAULT_PAGE_SIZE);
        node.encode(&mut page, 6);
        assert_eq!(Node::decode(&page, 6).unwrap(), node);
    }

    #[test]
    fn internal_roundtrip() {
        let node = internal_fixture(6, 20);
        let mut page = Page::zeroed(DEFAULT_PAGE_SIZE);
        node.encode(&mut page, 6);
        assert_eq!(Node::decode(&page, 6).unwrap(), node);
    }

    #[test]
    fn empty_nodes_roundtrip() {
        let mut page = Page::zeroed(64);
        Node::empty_leaf(3).encode(&mut page, 3);
        assert_eq!(Node::decode(&page, 3).unwrap(), Node::empty_leaf(3));
        Node::Internal(vec![]).encode(&mut page, 3);
        assert_eq!(Node::decode(&page, 3).unwrap(), Node::Internal(vec![]));
    }

    #[test]
    fn paper_configuration_fits_a_4k_page() {
        // d = 6, page 4 KB: internal entry = 100 B, leaf entry = 56 B.
        assert_eq!(Node::internal_entry_bytes(6), 100);
        assert_eq!(Node::leaf_entry_bytes(6), 56);
        // The paper's M = 20 must fit: 3 + 20·100 = 2003 ≤ 4096.
        assert!(Node::max_fanout(DEFAULT_PAGE_SIZE, 6) >= 20);
        assert_eq!(Node::max_fanout(DEFAULT_PAGE_SIZE, 6), (4096 - 3) / 100);
    }

    #[test]
    fn mbr_of_leaf_covers_all_points() {
        let node = leaf_fixture(3, 5);
        let mbr = node.mbr().unwrap();
        if let Node::Leaf(slab) = &node {
            for (_, point) in slab.rows() {
                assert!(mbr.contains_point(point));
            }
        }
    }

    #[test]
    fn mbr_of_internal_covers_all_children() {
        let node = internal_fixture(3, 4);
        let mbr = node.mbr().unwrap();
        if let Node::Internal(entries) = &node {
            for e in entries {
                assert!(mbr.contains_mbr(&e.mbr));
            }
        }
    }

    #[test]
    fn mbr_of_empty_node_is_none() {
        assert!(Node::empty_leaf(2).mbr().is_none());
        assert!(Node::Internal(vec![]).mbr().is_none());
    }

    #[test]
    fn len_and_kind_accessors() {
        let l = leaf_fixture(2, 3);
        assert_eq!(l.len(), 3);
        assert!(l.is_leaf());
        assert!(!l.is_empty());
        let i = internal_fixture(2, 4);
        assert_eq!(i.len(), 4);
        assert!(!i.is_leaf());
    }

    #[test]
    fn corrupt_kind_byte_is_a_typed_error() {
        let mut page = Page::zeroed(64);
        page.put_u8(0, 9);
        let err = Node::decode(&page, 2).unwrap_err();
        assert!(err.contains("unknown kind byte 9"), "{err}");
    }

    #[test]
    fn oversized_entry_count_is_a_typed_error() {
        let mut page = Page::zeroed(64);
        Node::empty_leaf(2).encode(&mut page, 2);
        page.put_u16(1, u16::MAX);
        let err = Node::decode(&page, 2).unwrap_err();
        assert!(err.contains("exceeds page fanout"), "{err}");
    }

    #[test]
    fn non_finite_coordinates_are_a_typed_error() {
        let node = Node::Leaf(LeafSlab::from_entries(
            2,
            [DataEntry::new(vec![1.0, 2.0], 5)],
        ));
        let mut page = Page::zeroed(64);
        node.encode(&mut page, 2);
        page.put_f64(NODE_HEADER_BYTES + 8, f64::NAN);
        let err = Node::decode(&page, 2).unwrap_err();
        assert!(err.contains("non-finite"), "{err}");
    }

    #[test]
    fn inverted_mbr_is_a_typed_error() {
        let node = internal_fixture(2, 1);
        let mut page = Page::zeroed(128);
        node.encode(&mut page, 2);
        // Swap low/high of the first dimension: low becomes 9, high stays 1.5.
        page.put_f64(NODE_HEADER_BYTES + 4, 9.0);
        let err = Node::decode(&page, 2).unwrap_err();
        assert!(err.contains("inverted MBR"), "{err}");
    }

    #[test]
    fn sentinel_child_page_is_a_typed_error() {
        let node = internal_fixture(2, 1);
        let mut page = Page::zeroed(128);
        node.encode(&mut page, 2);
        page.put_u32(NODE_HEADER_BYTES, u32::MAX);
        let err = Node::decode(&page, 2).unwrap_err();
        assert!(err.contains("sentinel"), "{err}");
    }

    #[test]
    fn negative_and_extreme_coordinates_roundtrip() {
        let node = Node::Leaf(LeafSlab::from_entries(
            3,
            [
                DataEntry::new(vec![-1e300, 1e-300, -0.0], 0),
                DataEntry::new(vec![f64::MAX, f64::MIN, 0.0], u64::MAX),
            ],
        ));
        let mut page = Page::zeroed(256);
        node.encode(&mut page, 3);
        assert_eq!(Node::decode(&page, 3).unwrap(), node);
    }

    fn slab_and_entries(n: usize) -> (LeafSlab, Vec<DataEntry>) {
        let entries: Vec<DataEntry> = (0..n)
            .map(|i| DataEntry::new(vec![i as f64, (i * 7 % 5) as f64], i as u64))
            .collect();
        (LeafSlab::from_entries(2, entries.clone()), entries)
    }

    /// Every slab mutation must mirror what the same operation did on the
    /// former `Vec<DataEntry>` representation — tree shape (and thus the
    /// blessed equivalence fixtures) depends on it.
    #[test]
    fn slab_mutations_mirror_vec_semantics() {
        // reorder + drain_front == sort permutation + drain(..p)
        let (mut slab, mut vec) = slab_and_entries(6);
        let order = [5usize, 3, 1, 0, 2, 4];
        slab.reorder(&order);
        let picked: Vec<DataEntry> = order.iter().map(|&i| vec[i].clone()).collect();
        vec = picked;
        let out = slab.drain_front(2);
        let expect: Vec<DataEntry> = vec.drain(..2).collect();
        assert_eq!(out, expect);
        assert_eq!(slab, LeafSlab::from_entries(2, vec.clone()));

        // select picks rows by index list
        let sel = slab.select(&[1, 3]);
        assert_eq!(
            sel,
            LeafSlab::from_entries(2, [vec[1].clone(), vec[3].clone()])
        );
    }

    #[test]
    fn slab_rows_and_row_agree() {
        let (slab, entries) = slab_and_entries(4);
        for (i, (id, point)) in slab.rows().enumerate() {
            assert_eq!(id, entries[i].id);
            assert_eq!(point, &*entries[i].point);
            assert_eq!(slab.row(i), Some((id, point)));
        }
        assert_eq!(slab.row(4), None);
        assert_eq!(slab.rows().count(), 4);
        assert!(slab.rows().all(|(_, point)| point.len() == 2));
    }
}

/// Hostile bytes at the node codec: seeded mutations of encoded leaf and
/// internal pages (byte flips, counts past the fanout, non-finite
/// coordinates, inverted MBRs, sentinel children, unknown kind bytes, a
/// wrong dimension). The in-place scan the query walks use and
/// [`Node::decode`] must agree on every page — both `Ok` with the same
/// entries or both `Err` with the same detail — and neither may panic.
///
/// The default run sweeps the four seeds below; `TSSS_CODEC_SEED=<u64>`
/// runs any single seed (the CI `codec` job drives this over its matrix).
#[cfg(test)]
mod hostile_bytes {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use tsss_rand::Rng;
    use tsss_storage::DEFAULT_PAGE_SIZE;

    const CASES_PER_SEED: usize = 3000;

    fn seeds() -> Vec<u64> {
        match std::env::var("TSSS_CODEC_SEED") {
            Ok(s) => vec![s
                .parse()
                .expect("TSSS_CODEC_SEED must be an unsigned integer")],
            Err(_) => (1..=4).map(|i| 0xC0DE_C000 + i).collect(),
        }
    }

    /// Every entry of the page as the query walks read it: in place, in
    /// order, into two reused buffers, stopping at the first failure.
    fn read_in_place(page: &Page, dim: usize) -> Result<Node, String> {
        let scan = NodeScan::new(page, dim)?;
        let (mut low, mut high) = (vec![0.0; dim], vec![0.0; dim]);
        if scan.is_leaf() {
            let mut slab = LeafSlab::new(dim);
            for i in 0..scan.len() {
                let id = scan.point(i, &mut low)?;
                slab.push(id, &low);
            }
            Ok(Node::Leaf(slab))
        } else {
            let mut entries = Vec::new();
            for i in 0..scan.len() {
                let page = scan.child(i, &mut low, &mut high)?;
                let mbr = Mbr::new(low.clone(), high.clone()).expect("the scan checked the MBR");
                entries.push(ChildEntry { mbr, page });
            }
            Ok(Node::Internal(entries))
        }
    }

    fn random_node(rng: &mut Rng, page_size: usize, dim: usize) -> Node {
        if rng.bool() {
            let n = rng.usize_below(Node::max_leaf_fanout(page_size, dim) + 1);
            Node::Leaf(LeafSlab::from_entries(
                dim,
                (0..n).map(|_| DataEntry::new(rng.f64_vec(dim, -1e6, 1e6), rng.next_u64())),
            ))
        } else {
            let n = rng.usize_below(Node::max_internal_fanout(page_size, dim) + 1);
            Node::Internal(
                (0..n)
                    .map(|_| {
                        let low = rng.f64_vec(dim, -1e6, 1e6);
                        let high = low.iter().map(|l| l + rng.f64_range(0.0, 1e3)).collect();
                        ChildEntry {
                            mbr: Mbr::new(low, high).unwrap(),
                            page: PageId(rng.usize_below(1 << 20) as u32),
                        }
                    })
                    .collect(),
            )
        }
    }

    /// Byte offset of coordinate `j` of entry `i`: the point of a leaf
    /// entry, or the `low` (`high` when `upper`) corner of an internal one.
    fn coord_offset(leaf: bool, dim: usize, i: usize, j: usize, upper: bool) -> usize {
        if leaf {
            NODE_HEADER_BYTES + i * Node::leaf_entry_bytes(dim) + 8 + 8 * j
        } else {
            let corner = if upper { 8 * dim } else { 0 };
            NODE_HEADER_BYTES + i * Node::internal_entry_bytes(dim) + 4 + corner + 8 * j
        }
    }

    /// Damages `page` (holding `node`) one way; returns the dimension to
    /// read it at and, where the damage determines it, the expected
    /// diagnosis.
    fn mutate(rng: &mut Rng, page: &mut Page, node: &Node, dim: usize) -> (usize, Option<String>) {
        let (leaf, len) = (node.is_leaf(), node.len());
        match rng.usize_below(8) {
            0 => (dim, None),
            1 => {
                for _ in 0..1 + rng.usize_below(8) {
                    let at = rng.usize_below(page.size());
                    let b = page.get_u8(at) ^ (1 << rng.usize_below(8));
                    page.put_u8(at, b);
                }
                (dim, None)
            }
            2 => {
                let (kind, max) = if leaf {
                    ("leaf", Node::max_leaf_fanout(page.size(), dim))
                } else {
                    ("internal", Node::max_internal_fanout(page.size(), dim))
                };
                let count = max + 1 + rng.usize_below(usize::from(u16::MAX) - max);
                page.put_u16(1, count as u16);
                let detail = format!("{kind} entry count {count} exceeds page fanout {max}");
                (dim, Some(detail))
            }
            3 if len > 0 => {
                let i = rng.usize_below(len);
                let at = coord_offset(leaf, dim, i, rng.usize_below(dim), rng.bool());
                let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.usize_below(3)];
                page.put_f64(at, bad);
                let kind = if leaf { "leaf" } else { "internal" };
                (
                    dim,
                    Some(format!("{kind} entry {i} has a non-finite coordinate")),
                )
            }
            4 if !leaf && len > 0 => {
                let (i, j) = (rng.usize_below(len), rng.usize_below(dim));
                let high = page.get_f64(coord_offset(false, dim, i, j, true));
                page.put_f64(coord_offset(false, dim, i, j, false), high + 1.0);
                (dim, Some(format!("internal entry {i} has an inverted MBR")))
            }
            5 if !leaf && len > 0 => {
                let i = rng.usize_below(len);
                page.put_u32(coord_offset(false, dim, i, 0, false) - 4, u32::MAX);
                (
                    dim,
                    Some(format!("internal entry {i} points at the sentinel page")),
                )
            }
            6 => {
                let k = 2 + rng.usize_below(254);
                page.put_u8(0, k as u8);
                (dim, Some(format!("unknown kind byte {k}")))
            }
            _ => (rng.usize_below(2 * dim + 1), None),
        }
    }

    #[test]
    fn scan_and_decode_agree_on_hostile_pages() {
        for seed in seeds() {
            let mut rng = Rng::seed_from_u64(seed);
            for case in 0..CASES_PER_SEED {
                let page_size = [64, 128, 256, 1024, DEFAULT_PAGE_SIZE][rng.usize_below(5)];
                let dim = 1 + rng.usize_below(8.min((page_size - NODE_HEADER_BYTES - 4) / 16));
                let node = random_node(&mut rng, page_size, dim);
                let mut clean = Page::zeroed(page_size);
                node.encode(&mut clean, dim);
                let mut page = clean.clone();
                let (read_dim, expected) = mutate(&mut rng, &mut page, &node, dim);
                let at = format!("seed {seed} case {case} (dim {dim} read at {read_dim})");

                let scanned = catch_unwind(AssertUnwindSafe(|| read_in_place(&page, read_dim)));
                let decoded = catch_unwind(AssertUnwindSafe(|| Node::decode(&page, read_dim)));
                let (Ok(scanned), Ok(decoded)) = (scanned, decoded) else {
                    panic!("{at}: a reader panicked on hostile bytes");
                };
                assert_eq!(scanned, decoded, "{at}: the scan and decode disagree");
                if let Some(detail) = expected {
                    assert_eq!(decoded, Err(detail), "{at}: wrong diagnosis");
                }
                if page.bytes() == clean.bytes() && read_dim == dim {
                    assert_eq!(decoded, Ok(node), "{at}: an undamaged page must roundtrip");
                }
            }
        }
    }
}
