//! The benchmark's own tests, at tiny scale (six series, one pass of a
//! few requests): every workload runs end to end in both modes and emits
//! every metric `BENCHMARK.json` names, a wrong expected answer is counted
//! as a failure, and the benchmark's sources pass the workspace analyzer.
//!
//! Run with `cargo test --release --manifest-path servebench/Cargo.toml`.

#![forbid(unsafe_code)]

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

use servebench::workload::{Scale, Workload};
use servebench::{Outcome, RunConfig};
use tsss_server::json::Json;

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Builds the repository's `tsss` binary once, into a target directory of
/// its own so the build cannot wait on the lock this test run holds.
fn tsss_binary() -> &'static Path {
    static BIN: OnceLock<PathBuf> = OnceLock::new();
    BIN.get_or_init(|| {
        let exe = std::env::current_exe().expect("test executable path");
        let target = exe
            .ancestors()
            .nth(3)
            .expect("tests run from <target>/<profile>/deps")
            .join("servebench-tsss");
        let status = Command::new(env!("CARGO"))
            .args([
                "build",
                "--release",
                "--offline",
                "--quiet",
                "--bin",
                "tsss",
            ])
            .arg("--manifest-path")
            .arg(manifest_dir().join("../Cargo.toml"))
            .arg("--target-dir")
            .arg(&target)
            .status()
            .expect("run cargo");
        assert!(status.success(), "building tsss failed");
        target.join("release/tsss")
    })
}

fn config(workload: Workload, trace: bool, tag: &str) -> RunConfig {
    let state_dir = std::env::temp_dir().join(format!(
        "servebench-test-{}-{}-{tag}",
        std::process::id(),
        workload.name()
    ));
    RunConfig {
        workload,
        seed: 7,
        corpus_seed: 11,
        seconds: 0.3,
        scale: Scale::TINY,
        trace,
        tsss: tsss_binary().to_path_buf(),
        state_dir,
        corrupt_digest: false,
    }
}

fn run(cfg: &RunConfig) -> Outcome {
    let out = servebench::run(cfg).expect("run completes");
    std::fs::remove_dir_all(&cfg.state_dir).expect("remove the test state directory");
    out
}

/// Metric names listed under `section` in `BENCHMARK.json`.
fn declared(section: &str) -> BTreeSet<String> {
    let text = std::fs::read_to_string(manifest_dir().join("../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let json = Json::parse(&text).expect("BENCHMARK.json is JSON");
    json.get(section)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

#[test]
fn every_workload_runs_and_emits_every_declared_metric() {
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let want = declared(section);
        for w in Workload::ALL {
            let out = run(&config(w, trace, section));
            assert!(out.attempted > 0, "{} attempted nothing", w.name());
            assert_eq!(out.failed, 0, "{} (trace {trace}) failed", w.name());
            let got: BTreeSet<String> = out.metrics.iter().map(|m| m.name.to_string()).collect();
            assert_eq!(got, want, "{} (trace {trace}) metric names", w.name());
            assert!(out.metrics.iter().all(|m| m.value.is_finite()));
            if trace {
                let coverage = out.metric("trace.coverage").expect("coverage");
                assert!(coverage > 0.5, "{}: coverage {coverage}", w.name());
            } else {
                assert!(
                    out.metrics.iter().all(|m| m.value > 0.0),
                    "{}: a zero metric",
                    w.name()
                );
            }
            let line = out.to_json();
            assert!(line.contains("\"correct\":true"), "{line}");
        }
    }
}

#[test]
fn a_corrupted_expected_digest_is_counted_as_a_failure() {
    for trace in [false, true] {
        let mut cfg = config(Workload::Select, trace, "corrupt");
        cfg.corrupt_digest = true;
        let out = run(&cfg);
        assert!(
            out.failed >= 1,
            "trace {trace}: the corrupted digest passed"
        );
        assert!(out.failed < out.attempted);
        assert!(out.to_json().contains("\"correct\":false"));
    }
}

#[test]
fn benchmark_sources_pass_the_workspace_analyzer() {
    let root = manifest_dir();
    let mut files = Vec::new();
    for dir in ["src", "tests"] {
        for entry in std::fs::read_dir(root.join(dir)).expect("list sources") {
            let path = entry.expect("dir entry").path();
            if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    assert!(files.len() >= 6, "too few sources found: {files:?}");
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .expect("under the package")
            .to_string_lossy();
        let source = std::fs::read_to_string(path).expect("read source");
        let (findings, _) = tsss_analyze::rules::analyze_source(&rel, &source, false);
        assert!(findings.is_empty(), "{rel}: {findings:?}");
    }
    let hygiene = tsss_analyze::hygiene::check_workspace_hygiene(root, &[String::new()]);
    assert!(hygiene.is_empty(), "{hygiene:?}");
    let main = std::fs::read_to_string(root.join("src/main.rs")).expect("main.rs");
    assert!(main.contains("#![forbid(unsafe_code)]"));
}
