//! # tsss — Fast Time-Series Searching with Scaling and Shifting
//!
//! A from-scratch Rust reproduction of Chu & Wong's PODS '99 paper: a
//! similarity search engine for time series under scale-shift
//! transformations `F_{a,b}(u) = a·u + b·N`, indexed with a page-based
//! R*-tree over SE-transformed, DFT-reduced sliding windows.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`geometry`] — vectors, lines, `PLD`/`LLD`, the SE-transformation,
//!   MBRs, penetration tests (paper §4–§5),
//! * [`storage`] — 4 KB pages, simulated disk, exact unbuffered
//!   page-access accounting (the Figure 5 metric),
//! * [`index`] — R-tree / R*-tree with line-penetration search (paper §6),
//! * [`dft`] — FFT and the `f_c`-coefficient feature extractor (paper §7),
//! * [`core`] — the end-to-end engine: build, then `execute` a `Query`
//!   (range, k-NN, long, z-normalised), plus the sequential baseline,
//! * [`data`] — synthetic stock-market data and query workloads,
//! * [`server`] — a dependency-free HTTP/1.1 front door: JSON endpoints
//!   with bounded-queue admission control and per-request QoS (deadlines,
//!   page budgets, degradation policy).
//!
//! ## Quickstart
//!
//! ```
//! use tsss::core::{EngineConfig, Query, SearchEngine, SearchOptions};
//! use tsss::data::{MarketConfig, MarketSimulator};
//!
//! // 20 synthetic stocks, 100 observations each.
//! let market = MarketSimulator::new(MarketConfig::small(20, 100, 7)).generate();
//! let engine = SearchEngine::build(&market, EngineConfig::small(16)).unwrap();
//!
//! // Disguise a real window with a scale and a shift…
//! let secret = tsss::geometry::scale_shift::ScaleShift { a: 2.0, b: -30.0 };
//! let query = secret.apply(market[3].window(40, 16).unwrap());
//!
//! // …and the engine recovers it, reporting the transformation.
//! let range = Query::Range { epsilon: 1e-6 };
//! let hits = engine.execute(&query, range, SearchOptions::default()).unwrap();
//! let best = &hits.matches[0];
//! assert_eq!((best.id.series, best.id.offset), (3, 40));
//! assert!((best.transform.a - 0.5).abs() < 1e-6); // the inverse disguise
//! ```

#![forbid(unsafe_code)]
// Tests assert bit-exact determinism and build small fixtures, where exact
// float comparison and narrowing literals are the point, not a hazard.
#![cfg_attr(test, allow(clippy::float_cmp, clippy::cast_possible_truncation))]

pub use tsss_core as core;
pub use tsss_data as data;
pub use tsss_dft as dft;
pub use tsss_geometry as geometry;
pub use tsss_index as index;
pub use tsss_server as server;
pub use tsss_storage as storage;
