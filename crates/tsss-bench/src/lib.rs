//! Shared harness for the paper-reproduction benchmarks.
//!
//! The paper's evaluation (§7) runs three method "sets" over real Hong Kong
//! stock data (1000 companies, ~650 000 values), 100 queries per
//! experiment, reporting **average CPU time** (Figure 4) and **average page
//! accesses** (Figure 5) as functions of the error bound ε:
//!
//! * **set 1** — sequential scan, distance per Lemma 2,
//! * **set 2** — R*-tree + Entering/Exiting-Points penetration checks,
//! * **set 3** — R*-tree + inner/outer bounding spheres with E/E fallback.
//!
//! [`Harness::paper`] builds the full-scale synthetic equivalent
//! (see `DESIGN.md` §3); [`Harness::quick`] is a reduced setting for smoke
//! runs. [`Harness::run_method`] executes one (method, ε) cell and returns
//! the averaged row; binaries under `src/bin/` assemble the figures and
//! ablations from these cells and write CSVs under `results/`.

#![forbid(unsafe_code)]
// Tests assert bit-exact determinism and build small fixtures, where exact
// float comparison and narrowing literals are the point, not a hazard.
#![cfg_attr(test, allow(clippy::float_cmp, clippy::cast_possible_truncation))]
#![warn(missing_docs)]

use std::fmt;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use tsss_core::{EngineConfig, Query, SearchEngine, SearchOptions};
use tsss_data::{MarketConfig, MarketSimulator, QueryWorkload, Series, WorkloadConfig};
use tsss_geometry::penetration::PenetrationMethod;

pub mod gate;

/// The three experiment sets of the paper's §7.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Set 1: sequential scan.
    Sequential,
    /// Set 2: R*-tree with Entering/Exiting-Points checks.
    TreeEnteringExiting,
    /// Set 3: R*-tree with bounding-sphere heuristic.
    TreeBoundingSpheres,
}

impl Method {
    /// All three sets, in the paper's order.
    pub const ALL: [Method; 3] = [
        Method::Sequential,
        Method::TreeEnteringExiting,
        Method::TreeBoundingSpheres,
    ];

    /// The paper's label.
    pub fn label(self) -> &'static str {
        match self {
            Method::Sequential => "set1-sequential",
            Method::TreeEnteringExiting => "set2-ee-points",
            Method::TreeBoundingSpheres => "set3-spheres",
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One averaged measurement cell: a (method, ε) point of Figures 4/5.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// The error bound used.
    pub epsilon: f64,
    /// Mean CPU time per query, microseconds (Figure 4's axis).
    pub cpu_us: f64,
    /// Mean page accesses per query (Figure 5's axis).
    pub pages: f64,
    /// Mean index-file pages of that.
    pub index_pages: f64,
    /// Mean data-file pages of that.
    pub data_pages: f64,
    /// Mean candidates the method distance-checked.
    pub candidates: f64,
    /// Mean verified matches.
    pub matches: f64,
    /// Mean false alarms (candidates whose exact distance exceeded ε) — the
    /// pipeline's own counter, not derived from `candidates - matches`.
    pub false_alarms: f64,
    /// Mean sphere-test fallback rate (set 3 only; 0 otherwise).
    pub sphere_fallback_rate: f64,
}

/// A ready-to-measure experiment: engine + query workload.
pub struct Harness {
    /// The engine under test.
    pub engine: SearchEngine,
    /// The data set (kept for ε calibration and ablation rebuilds).
    pub data: Vec<Series>,
    /// The query batch (the paper uses 100 queries per experiment).
    pub queries: Vec<Vec<f64>>,
    /// Median SE-norm of the data windows — the natural unit for ε.
    pub median_fluctuation: f64,
}

impl Harness {
    /// Builds a harness over a synthetic market with the given shape and
    /// engine configuration.
    pub fn build(
        companies: usize,
        days: usize,
        queries: usize,
        cfg: EngineConfig,
        seed: u64,
    ) -> Self {
        let data = MarketSimulator::new(MarketConfig {
            companies,
            days,
            seed,
            ..MarketConfig::paper()
        })
        .generate();
        let window_len = cfg.window_len;
        let t0 = Instant::now();
        let engine =
            SearchEngine::build(&data, cfg).expect("synthetic market fits the u32 window ids");
        eprintln!(
            "[harness] built index: {} windows, height {}, {:.1?}",
            engine.num_windows(),
            engine.index_height(),
            t0.elapsed()
        );
        let workload = QueryWorkload::generate(
            &data,
            WorkloadConfig {
                queries,
                window_len,
                noise_level: 0.005,
                seed: seed ^ 0x51ED,
                ..Default::default()
            },
        );
        let median_fluctuation = median_window_fluctuation(&data, window_len);
        Self {
            engine,
            data,
            queries: workload.queries.into_iter().map(|q| q.values).collect(),
            median_fluctuation,
        }
    }

    /// Full paper scale: 1000 companies × 650 days (650 000 values), window
    /// 128, f_c = 3, 100 queries, paper tree parameters, STR-packed index.
    ///
    /// Build-method note: the paper's pre-processing inserts windows one by
    /// one, but on this synthetic feature geometry an insertion-built
    /// R*-tree accumulates enough directory overlap that line queries visit
    /// *more* pages than a sequential scan — the packed (STR) tree is what
    /// reproduces the paper's relative ordering. `ablation_build` quantifies
    /// the gap; `EXPERIMENTS.md` discusses it.
    pub fn paper() -> Self {
        Self::build(1000, 650, 100, EngineConfig::paper(), 0x7555_1999)
    }

    /// Reduced scale for smoke runs (~1/5 the data, 20 queries).
    pub fn quick() -> Self {
        Self::build(200, 650, 20, EngineConfig::paper(), 0x7555_1999)
    }

    /// Chooses the harness size from the environment: set `TSSS_QUICK=1`
    /// for the reduced setting.
    pub fn from_env() -> Self {
        if std::env::var("TSSS_QUICK")
            .map(|v| v == "1")
            .unwrap_or(false)
        {
            eprintln!("[harness] TSSS_QUICK=1 — reduced scale");
            Self::quick()
        } else {
            Self::paper()
        }
    }

    /// The ε grid used for Figures 4/5: fractions of the median window
    /// fluctuation, from exact search to moderately permissive.
    ///
    /// The paper plots an unspecified absolute range. Because the model's
    /// distance is measured in the *target's* amplitude, every window whose
    /// fluctuation is below ε matches trivially (with `a ≈ 0`), so
    /// selectivity collapses once ε reaches the amplitude of the quietest
    /// windows; the informative regime — where the paper's curves live — is
    /// below that. This grid spans selectivities from exact match to
    /// roughly a per-mille of the windows.
    pub fn epsilon_grid(&self) -> Vec<f64> {
        [0.0, 0.0005, 0.001, 0.002, 0.005, 0.01, 0.012]
            .iter()
            .map(|f| f * self.median_fluctuation)
            .collect()
    }

    /// Runs one (method, ε) cell over the whole query batch and averages.
    pub fn run_method(&self, method: Method, epsilon: f64) -> Cell {
        let mut cpu = 0.0f64;
        let mut pages = 0.0f64;
        let mut index_pages = 0.0f64;
        let mut data_pages = 0.0f64;
        let mut candidates = 0.0f64;
        let mut matches = 0.0f64;
        let mut false_alarms = 0.0f64;
        let mut sphere_fallbacks = 0u64;
        let mut sphere_total = 0u64;
        let n = self.queries.len() as f64;
        for q in &self.queries {
            let range = Query::Range { epsilon };
            let result = match method {
                Method::Sequential => self
                    .engine
                    .sequential_search(q, epsilon, SearchOptions::default())
                    .expect("valid query"),
                Method::TreeEnteringExiting => self
                    .engine
                    .execute(q, range, SearchOptions::default())
                    .expect("valid query"),
                Method::TreeBoundingSpheres => self
                    .engine
                    .execute(
                        q,
                        range,
                        SearchOptions {
                            method: PenetrationMethod::BoundingSpheres,
                            ..Default::default()
                        },
                    )
                    .expect("valid query"),
            };
            cpu += result.stats.elapsed.as_secs_f64() * 1e6;
            pages += result.stats.total_pages() as f64;
            index_pages += result.stats.index_pages as f64;
            data_pages += result.stats.data_pages as f64;
            candidates += result.stats.candidates as f64;
            matches += result.stats.verified as f64;
            false_alarms += result.stats.false_alarms as f64;
            sphere_fallbacks += result.stats.index.sphere.fallback;
            sphere_total += result.stats.index.sphere.total();
        }
        Cell {
            epsilon,
            cpu_us: cpu / n,
            pages: pages / n,
            index_pages: index_pages / n,
            data_pages: data_pages / n,
            candidates: candidates / n,
            matches: matches / n,
            false_alarms: false_alarms / n,
            sphere_fallback_rate: if sphere_total == 0 {
                0.0
            } else {
                sphere_fallbacks as f64 / sphere_total as f64
            },
        }
    }

    /// Runs the set-2 tree method over the whole query batch with
    /// [`SearchEngine::execute_batch`] on `workers` threads, returning the
    /// averaged cell plus the batch wall-clock time.
    ///
    /// Page counts are the same logical (unbuffered) accesses `run_method`
    /// reports — the thread-local per-query tallies make them independent
    /// of the worker count, which `ablation_parallel` asserts.
    pub fn run_tree_batch(&self, epsilon: f64, workers: usize) -> (Cell, std::time::Duration) {
        let t0 = Instant::now();
        let results: Vec<_> = self
            .engine
            .execute_batch(
                &self.queries,
                Query::Range { epsilon },
                SearchOptions::default(),
                workers,
            )
            .into_iter()
            .collect::<Result<_, _>>()
            .expect("valid queries");
        let wall = t0.elapsed();
        let n = results.len() as f64;
        let mut cell = Cell {
            epsilon,
            cpu_us: 0.0,
            pages: 0.0,
            index_pages: 0.0,
            data_pages: 0.0,
            candidates: 0.0,
            matches: 0.0,
            false_alarms: 0.0,
            sphere_fallback_rate: 0.0,
        };
        for r in &results {
            cell.cpu_us += r.stats.elapsed.as_secs_f64() * 1e6 / n;
            cell.pages += r.stats.total_pages() as f64 / n;
            cell.index_pages += r.stats.index_pages as f64 / n;
            cell.data_pages += r.stats.data_pages as f64 / n;
            cell.candidates += r.stats.candidates as f64 / n;
            cell.matches += r.stats.verified as f64 / n;
            cell.false_alarms += r.stats.false_alarms as f64 / n;
        }
        (cell, wall)
    }
}

/// Median SE-norm over a sample of the data's windows — the natural scale
/// for ε in this model (distances are measured in target-fluctuation units).
pub fn median_window_fluctuation(data: &[Series], window_len: usize) -> f64 {
    let mut norms: Vec<f64> = Vec::new();
    for s in data.iter().step_by((data.len() / 50).max(1)) {
        if s.len() < window_len {
            continue;
        }
        let step = ((s.len() - window_len) / 20).max(1);
        let mut off = 0;
        while off + window_len <= s.len() {
            norms.push(tsss_geometry::se::se_norm(&s.values[off..off + window_len]));
            off += step;
        }
    }
    assert!(!norms.is_empty(), "no windows to calibrate epsilon against");
    norms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    norms[norms.len() / 2]
}

/// Writes measurement cells as a CSV (one row per (method, cell)).
///
/// # Panics
/// Panics on I/O errors — benchmark binaries have no meaningful recovery.
pub fn write_csv(path: &Path, rows: &[(Method, Cell)]) {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("create results dir");
    }
    let mut f = std::fs::File::create(path).expect("create csv");
    writeln!(
        f,
        "method,epsilon,cpu_us,pages,index_pages,data_pages,candidates,matches,false_alarms,sphere_fallback_rate"
    )
    .unwrap();
    for (m, c) in rows {
        writeln!(
            f,
            "{},{:.6},{:.2},{:.2},{:.2},{:.2},{:.2},{:.2},{:.2},{:.4}",
            m.label(),
            c.epsilon,
            c.cpu_us,
            c.pages,
            c.index_pages,
            c.data_pages,
            c.candidates,
            c.matches,
            c.false_alarms,
            c.sphere_fallback_rate
        )
        .unwrap();
    }
    eprintln!("[harness] wrote {}", path.display());
}

/// Formats a console table of cells grouped by ε (methods as columns).
// Epsilon values are table keys copied verbatim between rows, so exact
// equality is the correct lookup.
#[allow(clippy::float_cmp)]
pub fn print_table(title: &str, metric: &str, rows: &[(Method, Cell)], pick: fn(&Cell) -> f64) {
    println!("\n== {title} ==");
    println!(
        "{:>12} | {:>16} {:>16} {:>16}",
        "epsilon", "set1-sequential", "set2-ee-points", "set3-spheres"
    );
    let mut epsilons: Vec<f64> = rows.iter().map(|(_, c)| c.epsilon).collect();
    epsilons.sort_by(|a, b| a.partial_cmp(b).unwrap());
    epsilons.dedup();
    for eps in epsilons {
        let get = |m: Method| -> String {
            rows.iter()
                .find(|(mm, c)| *mm == m && c.epsilon == eps)
                .map(|(_, c)| format!("{:.1}", pick(c)))
                .unwrap_or_else(|| "—".into())
        };
        println!(
            "{:>12.4} | {:>16} {:>16} {:>16}",
            eps,
            get(Method::Sequential),
            get(Method::TreeEnteringExiting),
            get(Method::TreeBoundingSpheres)
        );
    }
    println!("({metric})");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_labels_are_stable() {
        // The CSV schema depends on these strings.
        assert_eq!(Method::Sequential.label(), "set1-sequential");
        assert_eq!(Method::TreeEnteringExiting.label(), "set2-ee-points");
        assert_eq!(Method::TreeBoundingSpheres.label(), "set3-spheres");
        assert_eq!(Method::ALL.len(), 3);
    }

    #[test]
    fn median_fluctuation_is_positive_and_scale_covariant() {
        let data = MarketSimulator::new(MarketConfig {
            companies: 10,
            days: 120,
            seed: 9,
            ..MarketConfig::paper()
        })
        .generate();
        let med = median_window_fluctuation(&data, 32);
        assert!(med > 0.0);
        // Scaling every price by 10 scales the fluctuation by 10.
        let scaled: Vec<Series> = data
            .iter()
            .map(|s| Series::new(s.name.clone(), s.values.iter().map(|v| v * 10.0).collect()))
            .collect();
        let med10 = median_window_fluctuation(&scaled, 32);
        assert!((med10 / med - 10.0).abs() < 1e-9);
    }

    #[test]
    fn harness_epsilon_grid_is_sorted_and_starts_at_zero() {
        let mut cfg = EngineConfig::paper();
        cfg.window_len = 16;
        let h = Harness::build(4, 60, 3, cfg, 1);
        let grid = h.epsilon_grid();
        assert_eq!(grid[0], 0.0);
        assert!(grid.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn run_method_produces_consistent_cells() {
        let mut cfg = EngineConfig::paper();
        cfg.window_len = 16;
        let h = Harness::build(4, 60, 3, cfg, 1);
        let seq = h.run_method(Method::Sequential, 0.0);
        let tree = h.run_method(Method::TreeEnteringExiting, 0.0);
        assert_eq!(seq.epsilon, 0.0);
        assert_eq!(seq.index_pages, 0.0);
        assert!(seq.data_pages > 0.0);
        assert!((seq.pages - seq.index_pages - seq.data_pages).abs() < 1e-9);
        assert!((tree.pages - tree.index_pages - tree.data_pages).abs() < 1e-9);
        assert_eq!(seq.candidates as usize, h.engine.num_windows());
        // Same matches from both methods.
        assert_eq!(seq.matches, tree.matches);
        // The pipeline's stage identity holds in the averages too (no cost
        // limit in these runs, so candidates = verified + false alarms).
        assert!((seq.candidates - seq.matches - seq.false_alarms).abs() < 1e-9);
        assert!((tree.candidates - tree.matches - tree.false_alarms).abs() < 1e-9);
    }

    #[test]
    fn write_csv_roundtrips_through_the_header() {
        let cell = Cell {
            epsilon: 0.5,
            cpu_us: 1.0,
            pages: 2.0,
            index_pages: 1.5,
            data_pages: 0.5,
            candidates: 3.0,
            matches: 1.0,
            false_alarms: 2.0,
            sphere_fallback_rate: 0.25,
        };
        let dir = std::env::temp_dir().join("tsss-bench-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cells.csv");
        write_csv(&path, &[(Method::Sequential, cell)]);
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines = text.lines();
        assert!(lines.next().unwrap().starts_with("method,epsilon,cpu_us"));
        let row = lines.next().unwrap();
        assert!(row.starts_with("set1-sequential,0.5"));
        std::fs::remove_file(&path).ok();
    }
}
