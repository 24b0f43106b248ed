//! `tsss` — command-line front end for the scale-shift time-series search
//! engine.
//!
//! ```text
//! tsss generate --companies 100 --days 650 --seed 7 --out market.csv
//! tsss build    --data market.csv --window 128 --fc 3 --out engine.tsss
//! tsss info     --engine engine.tsss
//! tsss query    --engine engine.tsss --query q.csv --epsilon 0.5 [--min-scale A] [--max-scale B] [--limit N]
//! tsss batch    --engine engine.tsss --queries qs.csv --epsilon 0.5 [--workers N]
//! tsss nn       --engine engine.tsss --query q.csv --k 10
//! tsss scrub    --engine engine.tsss
//! tsss repair   --engine engine.tsss
//! tsss health   --engine engine.tsss
//! tsss serve    --engine engine.tsss [--addr 127.0.0.1:7878] [--workers N] [--queue N] [--keep-alive-requests N] [--shards N]
//! tsss demo
//! ```
//!
//! Queries are CSV files in the same long format as `generate`'s output
//! (`name,index,value`); `query`/`nn` use the first series in the file,
//! `batch` runs every series as one query each, in parallel.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use tsss::core::{CostLimit, DurableEngine, EngineConfig, Query, SearchEngine, SearchOptions};
use tsss::data::csv;
use tsss::data::{MarketConfig, MarketSimulator};

mod args {
    //! Tiny `--key value` argument parser (no external dependencies).

    use std::collections::BTreeMap;

    /// Parsed command line: a subcommand plus `--key value` options.
    pub struct Args {
        pub command: String,
        options: BTreeMap<String, String>,
    }

    impl Args {
        /// Parses `argv[1..]`.
        ///
        /// # Errors
        /// Returns a message on a missing subcommand, a dangling `--key`, or
        /// a positional argument where an option was expected.
        pub fn parse(argv: &[String]) -> Result<Args, String> {
            let mut it = argv.iter();
            let command = it
                .next()
                .ok_or_else(|| "missing subcommand".to_string())?
                .clone();
            let mut options = BTreeMap::new();
            while let Some(key) = it.next() {
                let Some(name) = key.strip_prefix("--") else {
                    return Err(format!("expected --option, found {key:?}"));
                };
                let value = it
                    .next()
                    .ok_or_else(|| format!("option --{name} needs a value"))?;
                if options.insert(name.to_string(), value.clone()).is_some() {
                    return Err(format!("option --{name} given twice"));
                }
            }
            Ok(Args { command, options })
        }

        pub fn get(&self, name: &str) -> Option<&str> {
            self.options.get(name).map(String::as_str)
        }

        pub fn require(&self, name: &str) -> Result<&str, String> {
            self.get(name)
                .ok_or_else(|| format!("missing required option --{name}"))
        }

        pub fn get_parsed<T: std::str::FromStr>(
            &self,
            name: &str,
            default: T,
        ) -> Result<T, String> {
            match self.get(name) {
                None => Ok(default),
                Some(raw) => raw
                    .parse()
                    .map_err(|_| format!("option --{name}: cannot parse {raw:?}")),
            }
        }

        pub fn require_parsed<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
            let raw = self.require(name)?;
            raw.parse()
                .map_err(|_| format!("option --{name}: cannot parse {raw:?}"))
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        fn argv(s: &str) -> Vec<String> {
            s.split_whitespace().map(String::from).collect()
        }

        #[test]
        fn parses_subcommand_and_options() {
            let a = Args::parse(&argv("build --window 128 --out x.tsss")).unwrap();
            assert_eq!(a.command, "build");
            assert_eq!(a.get("window"), Some("128"));
            assert_eq!(a.require("out").unwrap(), "x.tsss");
            assert_eq!(a.get_parsed("window", 0usize).unwrap(), 128);
            assert_eq!(a.get_parsed("missing", 7usize).unwrap(), 7);
        }

        #[test]
        fn rejects_malformed_input() {
            assert!(Args::parse(&[]).is_err());
            assert!(Args::parse(&argv("q stray")).is_err());
            assert!(Args::parse(&argv("q --dangling")).is_err());
            assert!(Args::parse(&argv("q --x 1 --x 2")).is_err());
            let a = Args::parse(&argv("q --n notanumber")).unwrap();
            assert!(a.get_parsed::<usize>("n", 0).is_err());
            assert!(a.require("absent").is_err());
        }
    }
}

use args::Args;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match Args::parse(&argv) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}\n");
            usage();
            return ExitCode::FAILURE;
        }
    };
    let result = match parsed.command.as_str() {
        "generate" => cmd_generate(&parsed),
        "build" => cmd_build(&parsed),
        "info" => cmd_info(&parsed),
        "query" => cmd_query(&parsed),
        "batch" => cmd_batch(&parsed),
        "nn" => cmd_nn(&parsed),
        "scrub" => cmd_scrub(&parsed),
        "repair" => cmd_repair(&parsed),
        "health" => cmd_health(&parsed),
        "serve" => cmd_serve(&parsed),
        "demo" => cmd_demo(),
        "help" | "--help" | "-h" => {
            usage();
            Ok(())
        }
        other => Err(format!("unknown subcommand {other:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage() {
    eprintln!(
        "tsss — time-series search with scaling and shifting (PODS '99)\n\n\
         subcommands:\n  \
         generate --companies N --days D [--seed S] --out FILE.csv\n  \
         build    --data FILE.csv [--window N] [--fc K] --out ENGINE.tsss\n  \
         info     --engine ENGINE.tsss\n  \
         query    --engine ENGINE.tsss --query Q.csv --epsilon E\n           \
         [--min-scale A] [--max-scale B] [--limit N]\n  \
         batch    --engine ENGINE.tsss --queries QS.csv --epsilon E [--workers N]\n  \
         nn       --engine ENGINE.tsss --query Q.csv [--k K]\n  \
         scrub    --engine ENGINE.tsss\n  \
         repair   --engine ENGINE.tsss\n  \
         health   --engine ENGINE.tsss\n  \
         serve    --engine ENGINE.tsss [--addr HOST:PORT] [--workers N] [--queue N]\n           \
         [--keep-alive-requests N] [--shards N]\n  \
         demo"
    );
}

fn load_query(path: &str, window: usize) -> Result<Vec<f64>, String> {
    let series = csv::load(Path::new(path)).map_err(|e| format!("reading {path}: {e}"))?;
    let first = series
        .first()
        .ok_or_else(|| format!("{path} holds no series"))?;
    if first.len() < window {
        return Err(format!(
            "query series {:?} has {} values; the engine window is {window}",
            first.name,
            first.len()
        ));
    }
    Ok(first.values[..window].to_vec())
}

fn cmd_generate(a: &Args) -> Result<(), String> {
    let companies: usize = a.require_parsed("companies")?;
    let days: usize = a.require_parsed("days")?;
    let seed: u64 = a.get_parsed("seed", 0x7555_1999)?;
    let out = PathBuf::from(a.require("out")?);
    let market = MarketSimulator::new(MarketConfig {
        companies,
        days,
        seed,
        ..MarketConfig::paper()
    })
    .generate();
    csv::save(&market, &out).map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!(
        "wrote {} series × {} values to {}",
        companies,
        days,
        out.display()
    );
    Ok(())
}

fn cmd_build(a: &Args) -> Result<(), String> {
    let data_path = a.require("data")?;
    let out = PathBuf::from(a.require("out")?);
    let window: usize = a.get_parsed("window", 128)?;
    let fc: usize = a.get_parsed("fc", 3)?;
    let series =
        csv::load(Path::new(data_path)).map_err(|e| format!("reading {data_path}: {e}"))?;
    let mut cfg = EngineConfig::paper();
    cfg.window_len = window;
    cfg.fc = Some(fc);
    let t0 = std::time::Instant::now();
    let engine = SearchEngine::build(&series, cfg).expect("data set fits the u32 window ids");
    println!(
        "indexed {} windows from {} series in {:.2?} (tree height {})",
        engine.num_windows(),
        engine.num_series(),
        t0.elapsed(),
        engine.index_height()
    );
    engine
        .save_to_path(&out)
        .map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!("saved engine to {}", out.display());
    Ok(())
}

fn cmd_info(a: &Args) -> Result<(), String> {
    let path = a.require("engine")?;
    let engine = SearchEngine::load_from_path(Path::new(path))
        .map_err(|e| format!("loading {path}: {e}"))?;
    let cfg = engine.config();
    println!("engine: {path}");
    println!("  series:        {}", engine.num_series());
    println!("  windows:       {}", engine.num_windows());
    println!("  window length: {}", cfg.window_len);
    println!(
        "  features:      {} ({} DFT coefficients)",
        cfg.feature_dim(),
        cfg.fc.map(|f| f.to_string()).unwrap_or_else(|| "no".into())
    );
    println!("  index height:  {}", engine.index_height());
    println!("  data pages:    {}", engine.data_page_count());
    Ok(())
}

fn cmd_query(a: &Args) -> Result<(), String> {
    let path = a.require("engine")?;
    let engine = SearchEngine::load_from_path(Path::new(path))
        .map_err(|e| format!("loading {path}: {e}"))?;
    let query = load_query(a.require("query")?, engine.config().window_len)?;
    let epsilon: f64 = a.require_parsed("epsilon")?;
    let limit: usize = a.get_parsed("limit", 20)?;
    let min_scale: f64 = a.get_parsed("min-scale", f64::NEG_INFINITY)?;
    let max_scale: f64 = a.get_parsed("max-scale", f64::INFINITY)?;
    let opts = SearchOptions {
        cost: CostLimit {
            a_range: Some((min_scale, max_scale)),
            b_range: None,
        },
        ..Default::default()
    };
    let res = engine
        .execute(&query, Query::Range { epsilon }, opts)
        .map_err(|e| e.to_string())?;
    println!(
        "{} match(es); {} candidates ({} verified, {} false alarms, {} cost-rejected), {} pages, {:?}",
        res.matches.len(),
        res.stats.candidates,
        res.stats.verified,
        res.stats.false_alarms,
        res.stats.cost_rejected,
        res.stats.total_pages(),
        res.stats.elapsed
    );
    if res.stats.degraded {
        println!(
            "  warning: index corruption detected, answered by sequential scan ({})",
            res.stats
                .degraded_reason
                .as_deref()
                .unwrap_or("unknown cause")
        );
    }
    for m in res.matches.iter().take(limit) {
        println!(
            "  {} · a = {:.4}, b = {:+.4} · distance {:.6}",
            m.id, m.transform.a, m.transform.b, m.distance
        );
    }
    if res.matches.len() > limit {
        println!("  … and {} more (raise --limit)", res.matches.len() - limit);
    }
    Ok(())
}

fn cmd_batch(a: &Args) -> Result<(), String> {
    let path = a.require("engine")?;
    let engine = SearchEngine::load_from_path(Path::new(path))
        .map_err(|e| format!("loading {path}: {e}"))?;
    let window = engine.config().window_len;
    let queries_path = a.require("queries")?;
    let series =
        csv::load(Path::new(queries_path)).map_err(|e| format!("reading {queries_path}: {e}"))?;
    if series.is_empty() {
        return Err(format!("{queries_path} holds no series"));
    }
    let mut names = Vec::with_capacity(series.len());
    let mut queries = Vec::with_capacity(series.len());
    for s in &series {
        if s.len() < window {
            return Err(format!(
                "query series {:?} has {} values; the engine window is {window}",
                s.name,
                s.len()
            ));
        }
        names.push(s.name.clone());
        queries.push(s.values[..window].to_vec());
    }
    let epsilon: f64 = a.require_parsed("epsilon")?;
    let workers: usize = a.get_parsed(
        "workers",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    )?;
    let t0 = std::time::Instant::now();
    let results = engine
        .execute_batch(
            &queries,
            Query::Range { epsilon },
            SearchOptions::default(),
            workers,
        )
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let wall = t0.elapsed();
    let mut total_matches = 0usize;
    let mut total_pages = 0u64;
    for (name, res) in names.iter().zip(&results) {
        total_matches += res.matches.len();
        total_pages += res.stats.total_pages();
        println!(
            "{name}: {} match(es), {} candidates, {} pages",
            res.matches.len(),
            res.stats.candidates,
            res.stats.total_pages()
        );
    }
    println!(
        "\n{} queries on {} worker(s) in {wall:.2?}: {total_matches} match(es), {total_pages} pages",
        results.len(),
        workers.max(1).min(queries.len())
    );
    Ok(())
}

fn cmd_nn(a: &Args) -> Result<(), String> {
    let path = a.require("engine")?;
    let engine = SearchEngine::load_from_path(Path::new(path))
        .map_err(|e| format!("loading {path}: {e}"))?;
    let query = load_query(a.require("query")?, engine.config().window_len)?;
    let k: usize = a.get_parsed("k", 10)?;
    let res = engine
        .execute(&query, Query::Nearest { k }, SearchOptions::default())
        .map_err(|e| e.to_string())?;
    println!(
        "{} nearest subsequence(s); {} frontier candidates ({} verified), {} pages, {:?}:",
        res.matches.len(),
        res.stats.candidates,
        res.stats.verified,
        res.stats.total_pages(),
        res.stats.elapsed
    );
    for m in &res.matches {
        println!(
            "  {} · a = {:.4}, b = {:+.4} · distance {:.6}",
            m.id, m.transform.a, m.transform.b, m.distance
        );
    }
    Ok(())
}

fn cmd_scrub(a: &Args) -> Result<(), String> {
    let path = a.require("engine")?;
    let mut engine = SearchEngine::load_from_path(Path::new(path))
        .map_err(|e| format!("loading {path}: {e}"))?;
    println!("scrubbing {path} …");
    let nodes = engine
        .tree_mut()
        .check_invariants()
        .map_err(|e| format!("index scrub failed: {e}"))?;
    println!(
        "  index: {nodes} node(s) over {} page(s), all checksums and invariants OK",
        engine.index_extent()
    );
    let all = engine
        .read_everything()
        .map_err(|e| format!("data scrub failed: {e}"))?;
    let values: usize = all.iter().map(Vec::len).sum();
    println!(
        "  data:  {} series, {values} values over {} page(s), all checksums OK",
        all.len(),
        engine.data_page_count()
    );
    println!("scrub clean: every page verified");
    Ok(())
}

fn cmd_repair(a: &Args) -> Result<(), String> {
    let path = a.require("engine")?;
    // A damaged index stream is tolerated here: the data stream (which is
    // still fully checksummed) is the source of truth and the index is
    // rebuilt from it on load.
    let (mut engine, rebuilt) = SearchEngine::load_repairing_from_path(Path::new(path))
        .map_err(|e| format!("loading {path}: {e}"))?;
    if rebuilt {
        println!("index stream of {path} was damaged; rebuilt from the data file");
    } else {
        let report = engine.repair().map_err(|e| format!("repairing: {e}"))?;
        println!("index stream of {path} loaded cleanly; rebuilt anyway: {report}");
    }
    let nodes = engine
        .tree_mut()
        .check_invariants()
        .map_err(|e| format!("post-repair scrub failed: {e}"))?;
    println!(
        "  rebuilt index: {nodes} node(s) over {} window(s), invariants OK",
        engine.num_windows()
    );
    engine
        .save_to_path(Path::new(path))
        .map_err(|e| format!("writing {path}: {e}"))?;
    println!("saved repaired engine to {path}");
    Ok(())
}

fn cmd_health(a: &Args) -> Result<(), String> {
    let path = a.require("engine")?;
    let engine = SearchEngine::load_from_path(Path::new(path))
        .map_err(|e| format!("loading {path}: {e}"))?;
    println!("engine: {path}");
    println!("{}", engine.health());
    Ok(())
}

fn cmd_serve(a: &Args) -> Result<(), String> {
    let path = a.require("engine")?;
    // Parse the whole config up front so a malformed flag fails before the
    // server takes ownership of the engine file.
    let cfg = tsss::server::ServerConfig {
        addr: a.get("addr").unwrap_or("127.0.0.1:7878").to_string(),
        workers: a.get_parsed("workers", 4)?,
        queue_capacity: a.get_parsed("queue", 64)?,
        keep_alive_requests: a.get_parsed("keep-alive-requests", 32)?,
        shards: a.get_parsed("shards", 1)?,
        ..Default::default()
    };
    // The server owns the engine file from here on: appends are write-ahead
    // logged to `<engine>.wal` and fsynced before they are acknowledged, so
    // an HTTP 200 from /append survives a crash; POST /save folds the log
    // into the engine file atomically.
    let master =
        DurableEngine::open(Path::new(path)).map_err(|e| format!("loading {path}: {e}"))?;
    let replay = master.replay_report();
    if replay.tail_records > 0 || replay.damaged_tail || replay.index_repaired {
        println!(
            "recovery: {} WAL records in the tail, {} replayed, {} already saved{}{}",
            replay.tail_records,
            replay.applied,
            replay.skipped,
            if replay.damaged_tail {
                "; dropped a torn (unacknowledged) tail record"
            } else {
                ""
            },
            if replay.index_repaired {
                "; rebuilt a damaged index stream"
            } else {
                ""
            },
        );
    }
    println!(
        "serving {path}: {} series, {} windows (durable appends: WAL at {})",
        master.engine().num_series(),
        master.engine().num_windows(),
        DurableEngine::wal_path_for(Path::new(path)).display()
    );
    if cfg.shards > 1 {
        println!(
            "sharded serving: {} fault domains (scatter-gather; a failed shard \
             degrades only its slice, see /health shard_breakers)",
            cfg.shards.min(master.engine().num_series().max(1))
        );
    }
    let server = tsss::server::Server::start(master, &cfg)
        .map_err(|e| format!("binding {}: {e}", cfg.addr))?;
    println!("listening on http://{}", server.addr());
    println!(
        "endpoints: GET /health /metrics · POST /search /knn /znormalized /long /batch /append /repair /save"
    );
    server.join();
    Ok(())
}

fn cmd_demo() -> Result<(), String> {
    println!("tsss demo: generate → build → disguise → recover\n");
    let market = MarketSimulator::new(MarketConfig::small(40, 200, 1)).generate();
    let engine = SearchEngine::build(&market, EngineConfig::small(32))
        .expect("data set fits the u32 window ids");
    println!(
        "built an index over {} windows of {} synthetic stocks",
        engine.num_windows(),
        market.len()
    );
    let source = market[7].window(50, 32).expect("window exists");
    let disguise = tsss::geometry::scale_shift::ScaleShift { a: 3.0, b: -25.0 };
    let query = disguise.apply(source);
    println!("query: stock 7, days 50..82, scaled ×3 and shifted −25");
    let res = engine
        .execute(
            &query,
            Query::Range { epsilon: 1e-6 },
            SearchOptions::default(),
        )
        .map_err(|e| e.to_string())?;
    let best = res.matches.first().ok_or("demo found no match")?;
    println!(
        "recovered: {} with a = {:.4}, b = {:+.3} (inverse of the disguise)",
        best.id, best.transform.a, best.transform.b
    );
    Ok(())
}
