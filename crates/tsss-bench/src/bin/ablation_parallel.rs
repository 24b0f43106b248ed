//! Ablation **A7**: parallel batch query execution (an extension beyond
//! the paper).
//!
//! The paper's experiments run 100 queries serially and report per-query
//! averages. `SearchEngine::execute_batch` answers the same batch on N
//! worker threads over one shared engine; this sweep measures the batch
//! wall-clock speedup from 1 worker up to the machine's parallelism and
//! asserts the invariant that makes the parallel numbers citable: the
//! per-query page counts (Figure 5's metric) are *identical* at every
//! worker count, because each query's accesses are tallied by a
//! thread-local scope rather than diffed off the global counter.
//!
//! Run: `cargo run --release -p tsss-bench --bin ablation_parallel`

#![forbid(unsafe_code)]

use tsss_bench::Harness;

fn main() {
    let h = Harness::from_env();
    let eps = 0.001 * h.median_fluctuation;
    let max_workers = std::thread::available_parallelism().map_or(4, |n| n.get());

    let mut sweep = vec![1usize, 2];
    let mut w = 4;
    while w < max_workers {
        sweep.push(w);
        w *= 2;
    }
    if *sweep.last().unwrap() != max_workers && max_workers > 2 {
        sweep.push(max_workers);
    }

    println!(
        "{:>8} {:>12} {:>10} {:>14} {:>14}",
        "workers", "wall-clock", "speedup", "pages/query", "matches/query"
    );
    let mut rows = Vec::new();
    let mut baseline = None;
    let mut serial_pages = None;
    for &workers in &sweep {
        let (cell, wall) = h.run_tree_batch(eps, workers);
        let base = *baseline.get_or_insert(wall.as_secs_f64());
        // Per-query accounting must not depend on the worker count.
        let pages = *serial_pages.get_or_insert(cell.pages);
        assert!(
            (cell.pages - pages).abs() < 1e-9,
            "page counts changed under parallelism: {} vs {}",
            cell.pages,
            pages
        );
        println!(
            "{workers:>8} {:>12.2?} {:>9.2}x {:>14.1} {:>14.2}",
            wall,
            base / wall.as_secs_f64(),
            cell.pages,
            cell.matches
        );
        rows.push((workers, wall.as_secs_f64(), cell));
    }

    let path = std::path::Path::new("results/ablation_parallel.csv");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("create results dir");
    }
    let mut out = String::from("workers,wall_s,speedup,pages_per_query,matches_per_query\n");
    let base = rows[0].1;
    for (workers, wall, cell) in &rows {
        out.push_str(&format!(
            "{workers},{wall:.6},{:.3},{:.2},{:.2}\n",
            base / wall,
            cell.pages,
            cell.matches
        ));
    }
    std::fs::write(path, out).expect("write csv");
    eprintln!("[harness] wrote {}", path.display());
    println!(
        "\n(eps = 0.001·median fluctuation; page counts asserted identical across worker counts)"
    );
}
