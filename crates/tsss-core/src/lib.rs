//! The scale-shift similarity search engine of *Fast Time-Series Searching
//! with Scaling and Shifting* (Chu & Wong, PODS '99).
//!
//! Given a database of time series and a query sequence `Q`, the engine
//! finds every data subsequence `S'` for which some transformation
//! `F_{a,b}(Q) = a·Q + b·N` lands within ε of `S'` (Definition 1), and
//! reports the optimal `(a, b)` per match. The pipeline is the paper's §6
//! algorithm end to end:
//!
//! 1. **Pre-processing** ([`engine::SearchEngine::build`]): slide a length-n
//!    window over every series, SE-transform each window (mean removal,
//!    §5.1), reduce to `2·f_c` DFT features (§7, \[1, 2\]), and index the
//!    feature points in a page-based R*-tree. Raw series live in a paged
//!    data file ([`datafile`]) so verification I/O is accounted exactly.
//! 2. **Searching** ([`engine::SearchEngine::execute`] of a
//!    [`Query::Range`]): map the query onto its SE-line, traverse the tree
//!    pruning by ε-MBR penetration (Theorem 3), and collect candidate
//!    subsequences.
//! 3. **Post-processing**: fetch each candidate's raw window, compute the
//!    optimal `(a, b)` and exact distance (§5.2), drop false alarms, and
//!    apply the user's transformation-cost limits.
//!
//! Every query mode is one [`Query`] value run by `execute` — on a
//! [`SearchEngine`] or a [`ShardedEngine`] alike — through the staged
//! pipeline in [`pipeline`]. Baselines and extensions:
//! * [`seqscan`] — the paper's experiment set 1: sequential scan computing
//!   `LLD` for every window,
//! * [`nn`] — exact k-nearest-subsequence search (Corollary 1, which the
//!   paper defers),
//! * [`longquery`] — queries longer than the indexed window, via the
//!   sub-query decomposition of \[2\] (§7, first remark),
//! * [`normalized`] — a z-normalisation comparator relating the paper's
//!   model to the later-standard normalised Euclidean distance,
//! * [`sharded`] — scatter-gather over N independent engine shards with
//!   per-shard fault isolation and partial-result degradation.

#![forbid(unsafe_code)]
// Tests assert bit-exact determinism and build small fixtures, where exact
// float comparison and narrowing literals are the point, not a hazard.
#![cfg_attr(test, allow(clippy::float_cmp, clippy::cast_possible_truncation))]
// Belt-and-braces next to the analyzer's R1: clippy flags stray unwraps in
// non-test code too, so regressions fail CI twice.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![warn(missing_docs)]

pub mod config;
pub mod datafile;
pub mod durable;
pub mod engine;
pub mod error;
pub mod id;
pub mod longquery;
pub mod nn;
pub mod normalized;
pub mod persist;
pub mod pipeline;
pub mod recovery;
pub mod result;
pub mod seqscan;
pub mod sharded;
pub mod window;

pub use config::{
    BuildMethod, CostLimit, Deadline, DegradationPolicy, EngineConfig, SearchOptions,
};
pub use durable::{DurableEngine, WalReplayReport};
pub use engine::SearchEngine;
pub use error::EngineError;
pub use id::SubseqId;
pub use pipeline::{
    CandidateSource, Candidates, DeadlineMeter, IndexProbe, PieceStitchSource, Query, QueryPlan,
    RawAccess, SeqScanSource, Verifier, VerifyModel,
};
pub use recovery::{BreakerState, HealthReport, RepairReport};
pub use result::{SearchResult, SearchStats, SubsequenceMatch};
pub use sharded::ShardedEngine;
