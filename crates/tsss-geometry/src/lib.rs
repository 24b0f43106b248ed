//! Vector geometry underlying *Fast Time-Series Searching with Scaling and
//! Shifting* (Chu & Wong, PODS '99).
//!
//! A length-`n` time series is treated as a point/position vector in ℝⁿ
//! (paper §3). This crate provides, from scratch:
//!
//! * basic dense-vector operations on `&[f64]` slices ([`vector`]),
//! * lines in ℝⁿ with the point–line and line–line shortest distances
//!   `PLD`/`LLD` of paper §4 ([`mod@line`]),
//! * the scale-shift transformation `F_{a,b}(u) = a·u + b·N` together with the
//!   closed-form optimal `(a, b)` of paper §5.2 ([`scale_shift`]),
//! * the Shift-Eliminated (SE) Transformation of paper §5.1 ([`se`]),
//! * minimum bounding hyper-rectangles ([`mbr`]),
//! * the Entering/Exiting-Points (slab) line–MBR penetration test and the
//!   inner/outer bounding-sphere heuristic of paper §6.1/§7 ([`penetration`],
//!   [`sphere`]).
//!
//! Everything operates on `f64` and plain slices so that the index and engine
//! crates can stay allocation-free on their hot paths.

#![forbid(unsafe_code)]
// Tests assert bit-exact determinism and build small fixtures, where exact
// float comparison and narrowing literals are the point, not a hazard.
#![cfg_attr(test, allow(clippy::float_cmp, clippy::cast_possible_truncation))]
// Belt-and-braces next to the analyzer's R1: clippy flags stray unwraps in
// non-test code too, so regressions fail CI twice.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![warn(missing_docs)]

pub mod line;
pub mod mbr;
pub mod penetration;
pub mod scale_shift;
pub mod se;
pub mod sphere;
pub mod vector;

pub use line::{lld, pld, Line};
pub use mbr::Mbr;
pub use penetration::{line_mbr_interval, line_penetrates_mbr, PenetrationMethod};
pub use scale_shift::{min_scale_shift_distance, optimal_scale_shift, ScaleShift};
pub use se::{se_norm, se_transform, se_transform_in_place};
pub use sphere::BoxSpheres;

/// Error type for dimension mismatches between geometric operands.
///
/// All binary operations in this crate require both operands to live in the
/// same ℝⁿ; constructing a query against data of a different window length is
/// a caller bug that we surface explicitly rather than panicking deep inside
/// a distance kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DimensionMismatch {
    /// Dimension of the left/first operand.
    pub left: usize,
    /// Dimension of the right/second operand.
    pub right: usize,
}

impl std::fmt::Display for DimensionMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "dimension mismatch: left operand has {} components, right has {}",
            self.left, self.right
        )
    }
}

impl std::error::Error for DimensionMismatch {}
