//! `servebench` command line; see `servebench/README.md`.
//!
//! ```text
//! servebench --workload select|broad|ingest|fanout|all --seed N --seconds S --trace 0|1
//!            --tsss PATH --state-dir DIR [--corpus-seed N]
//! ```
//!
//! Prints one JSON result object per workload on standard output (`all`
//! runs the four in turn, one line each) and exits 0; on a set-up failure
//! prints the reason to stderr and exits 1 without a result for that
//! workload.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use servebench::workload::{Scale, Workload};
use servebench::RunConfig;

/// The corpus seed of the recorded benchmark (the paper's year).
const DEFAULT_CORPUS_SEED: u64 = 0x7555_1999;

fn parse(args: &[String]) -> Result<(Vec<Workload>, RunConfig), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut tsss = None;
    let mut state_dir = None;
    let mut corpus_seed = DEFAULT_CORPUS_SEED;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {v:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(if value == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?]
                });
            }
            "--seed" => seed = Some(number(value)?),
            "--corpus-seed" => corpus_seed = number(value)?,
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("--seconds: bad number {value:?}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--tsss" => tsss = Some(PathBuf::from(value)),
            "--state-dir" => state_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workloads = workload.ok_or("--workload is required")?;
    let cfg = RunConfig {
        workload: Workload::Select,
        seed: seed.ok_or("--seed is required")?,
        corpus_seed,
        seconds: seconds.ok_or("--seconds is required")?,
        scale: Scale::PAPER,
        trace,
        tsss: tsss.ok_or("--tsss is required")?,
        state_dir: state_dir.ok_or("--state-dir is required")?,
        corrupt_digest: false,
    };
    Ok((workloads, cfg))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workloads, cfg) = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    for workload in workloads {
        let cfg = RunConfig {
            workload,
            ..cfg.clone()
        };
        match servebench::run(&cfg) {
            Ok(outcome) => println!("{}", outcome.to_json()),
            Err(e) => {
                eprintln!("servebench: {} run failed: {e}", workload.name());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
