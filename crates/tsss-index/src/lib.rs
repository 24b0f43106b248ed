//! From-scratch spatial indexes for the PODS '99 reproduction.
//!
//! The paper indexes SE-transformed (and DFT-reduced) subsequences in an
//! R*-tree and answers scale-shift similarity queries by traversing only the
//! subtrees whose **ε-enlarged MBRs are penetrated by the query's SE-line**
//! (Theorem 3). This crate provides everything that requires, built on the
//! paged storage of `tsss-storage`:
//!
//! * [`node`] — R-tree nodes with an explicit page serialisation (one node
//!   per 4 KB page, exactly the paper's layout),
//! * [`tree`] — a disk-resident R-tree supporting three split policies:
//!   Guttman's linear and quadratic splits \[22\] and the R*-tree
//!   (Beckmann–Kriegel–Schneider–Seeger) split with forced reinsertion
//!   \[16\] (the paper's choice: `M = 20`, `m = 40 %·M`, `p = 30 %·M`),
//! * [`bulk`] — Sort-Tile-Recursive bulk loading for fast index
//!   construction in the benchmarks,
//! * [`query`] — **line-penetration** search (the paper's algorithm) with
//!   pluggable penetration strategies, and its radius twin, as one
//!   budgeted traversal with exact node-access accounting,
//! * [`nn`] — resumable best-first nearest-neighbour search under
//!   point-to-line distance (the extension the paper sketches via
//!   Corollary 1).

#![forbid(unsafe_code)]
// Tests assert bit-exact determinism and build small fixtures, where exact
// float comparison and narrowing literals are the point, not a hazard.
#![cfg_attr(test, allow(clippy::float_cmp, clippy::cast_possible_truncation))]
// Belt-and-braces next to the analyzer's R1: clippy flags stray unwraps in
// non-test code too, so regressions fail CI twice.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![warn(missing_docs)]

pub mod bulk;
pub mod error;
pub mod nn;
pub mod node;
pub mod persist;
pub mod query;
pub mod split;
pub mod tree;

pub use error::IndexError;
pub use node::{ChildEntry, DataEntry, LeafSlab, Node};
pub use query::{LineQueryStats, QueryOutcome};
pub use tree::{RTree, SplitPolicy, TreeConfig};
