//! The workspace gate: `cargo test` fails if the real tree has findings.
//!
//! This is the same sweep `cargo run -p tsss-analyze` and the CI `analyze`
//! job perform, wired into the test suite so a plain `cargo test
//! --workspace` refuses panics, bare casts, unjustified atomics, float
//! equality, lock-discipline slips and hygiene drift the moment they
//! appear. `deny` findings fail outright; `warn` findings fail only when
//! they are not covered by the checked-in baseline
//! (`results/analyze-baseline.json`) — the burn-down backlog.

use std::path::Path;

use tsss_analyze::report::Severity;
use tsss_analyze::{analyze_workspace, baseline, find_workspace_root};

#[test]
fn workspace_is_clean() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = find_workspace_root(here).expect("workspace root above tsss-analyze");
    let analysis = analyze_workspace(&root).expect("workspace scan");
    assert_eq!(
        analysis.deny_count(),
        0,
        "the invariant analyzer found deny-severity violations — run \
         `cargo run -p tsss-analyze` for the report:\n{}",
        analysis.render_text()
    );
    // Every warn finding must be in the checked-in baseline: the backlog
    // may only shrink (regenerate with `cargo run -p tsss-analyze -- \
    // --write-baseline` after fixing an entry).
    let text = std::fs::read_to_string(root.join("results/analyze-baseline.json"))
        .expect("checked-in results/analyze-baseline.json");
    let keys = baseline::parse(&text).expect("parse analyze-baseline.json");
    let fresh = baseline::diff(&analysis, &keys);
    assert!(
        fresh.is_empty(),
        "findings not covered by results/analyze-baseline.json — fix them \
         or (for accepted warn-severity debt) refresh the baseline:\n{}",
        fresh
            .iter()
            .map(|f| format!("{}:{}: [{}] {}", f.path, f.line, f.rule.id(), f.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
    // The sweep really looked at the tree (a path bug would scan nothing
    // and vacuously pass).
    assert!(
        analysis.files_scanned > 50,
        "suspiciously few files scanned: {}",
        analysis.files_scanned
    );
    assert!(
        analysis.allows_used > 0,
        "the justified-suppression count should be nonzero"
    );
}

/// The baseline gate actually bites: a finding that is not in the
/// checked-in baseline shows up in the diff, and every baselined finding
/// is `warn` severity — `deny` findings are never grandfathered.
#[test]
fn baseline_diff_catches_new_findings_and_holds_only_warns() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = find_workspace_root(here).expect("workspace root above tsss-analyze");
    let mut analysis = analyze_workspace(&root).expect("workspace scan");
    let text = std::fs::read_to_string(root.join("results/analyze-baseline.json"))
        .expect("checked-in results/analyze-baseline.json");
    let keys = baseline::parse(&text).expect("parse analyze-baseline.json");

    // Every finding at HEAD is warn severity (deny count is asserted zero
    // in `workspace_is_clean`) and covered by the baseline.
    assert!(analysis
        .findings
        .iter()
        .all(|f| f.rule.severity() == Severity::Warn));

    // Inject a synthetic new finding: the diff must surface exactly it.
    analysis.findings.push(tsss_analyze::Finding {
        rule: tsss_analyze::Rule::LockDiscipline,
        path: "crates/tsss-server/src/routes.rs".to_string(),
        line: 1,
        message: "synthetic injected finding".to_string(),
        excerpt: String::new(),
    });
    let fresh = baseline::diff(&analysis, &keys);
    assert_eq!(fresh.len(), 1, "only the injected finding is new");
    assert_eq!(fresh[0].message, "synthetic injected finding");
}

/// The columnar read path added the slab leaf pages, the chunked kernels
/// and the bulk page codecs. Every one of those files must sit inside the
/// R1/R2 hot-path scope (and exist on disk, so a rename cannot silently
/// drop one from the sweep).
#[test]
fn columnar_hot_path_files_are_in_scope() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = find_workspace_root(here).expect("workspace root above tsss-analyze");
    let new_hot_files = [
        // Slab leaf pages and their bulk/query/nn consumers.
        "crates/tsss-index/src/node.rs",
        "crates/tsss-index/src/bulk.rs",
        "crates/tsss-index/src/query.rs",
        "crates/tsss-index/src/nn.rs",
        // Chunked kernels: fused moments, lane screens, fit entry points.
        "crates/tsss-geometry/src/vector.rs",
        "crates/tsss-geometry/src/scale_shift.rs",
        // Bulk page decode and CRC.
        "crates/tsss-storage/src/page.rs",
        "crates/tsss-storage/src/codec.rs",
        // The page-segmented window fetch and the sliding-prefix verifier.
        "crates/tsss-core/src/datafile.rs",
        "crates/tsss-core/src/pipeline.rs",
    ];
    for rel in new_hot_files {
        assert!(
            tsss_analyze::is_hot_path(rel),
            "{rel} must be in the analyzer's hot-path scope"
        );
        assert!(
            root.join(rel).is_file(),
            "{rel} is pinned as hot-path but no longer exists"
        );
    }
}
