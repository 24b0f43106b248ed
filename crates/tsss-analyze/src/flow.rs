//! The flow-aware pass: lock-guard tracking (R7), `Result` discipline
//! (R8) and WAL fsync ordering (R9).
//!
//! Unlike the line-local detectors in [`crate::rules`], these rules need
//! *state across lines*: which lock guards are live at a given
//! statement, and where in a function the WAL sync happens relative to
//! the engine mutation it covers. The pass stays lexical (no `syn` — the
//! workspace is offline): statements are physical lines joined until a
//! `;`/`{`/`}` terminator, guard scopes are brace-depth intervals, and
//! receivers are recovered by walking the expression text backwards.
//! rustfmt-formatted code makes this exact in practice; the known
//! limits (a guard smuggled through a helper's return value, I/O hidden
//! behind a method call) are documented in DESIGN.md §13.
//!
//! # R7 `lock-discipline`
//!
//! A guard is born by a `let` whose initializer acquires a lock —
//! `.lock()` / `.read()` / `.write()` (empty argument lists, so
//! `io::Read::read(&mut buf)` never matches), including the poison-
//! recovering `unwrap_or_else(PoisonError::into_inner)` chains and the
//! blessed `lock_ingest(..)` helper — and dies at `drop(guard)` or when
//! its brace scope closes. While any guard is live:
//!
//! * blocking I/O tokens (`sync_all`, `sync_data`, `fsync`, `File::`,
//!   `OpenOptions::`, `TcpStream::`, `save_to_path`, `remove_file`,
//!   `set_len`) are findings — an fsync under a lock stalls every peer;
//! * a second acquisition must follow the declared lock-order table
//!   (`LOCK_ORDER`); any undeclared pair — including re-acquiring the
//!   same lock, the self-deadlock — is a finding;
//! * `publish(`/`respond(` calls are findings unless every live guard
//!   is the ingest lock (publication is *defined* to run under the
//!   ingest lock; holding the snapshot lock there deadlocks on the
//!   swap, see DESIGN.md §15).
//!
//! # R8 `result-discipline`
//!
//! `let _ = call(..);` and statement-terminated `.ok();` silently drop
//! a `Result` in crates where every error is typed and recoverable.
//! Severity `warn`: legacy discards live in the checked-in baseline and
//! burn down; new ones fail `--baseline` CI.
//!
//! # R9 `fsync-ordering`
//!
//! In `wal.rs`/`durable.rs`, a function that both syncs the log
//! (`wal.append(`, `.sync_all(`, `.sync_data(`, `.log_then(`) and
//! mutates engine state (`apply(`, `.append_values(`, `.append_series(`)
//! must sync *first*: an apply token lexically before the function's
//! first sync token is a finding. Functions that never log (replay and
//! maintenance paths — their records are synced by construction) are
//! out of the rule's scope.

use crate::lexer::ScannedLine;
use crate::report::Rule;

/// A candidate finding from the flow pass. `rules::analyze_source`
/// filters these through the `analyze::allow` markers like any other
/// detector output.
#[derive(Debug)]
pub struct FlowFinding {
    pub rule: Rule,
    /// 0-based line the finding anchors to (markers attach here).
    pub line: usize,
    pub message: String,
}

/// Workspace-relative `src` prefixes where the concurrency rules
/// (R7/R8) run: the hot-path crates plus the server, i.e. every crate
/// that holds a lock or owns a `Result` on the request path.
pub const CONCURRENCY_PREFIXES: [&str; 5] = [
    "crates/tsss-core/src",
    "crates/tsss-storage/src",
    "crates/tsss-index/src",
    "crates/tsss-geometry/src",
    "crates/tsss-server/src",
];

/// Whether a workspace-relative path is in the R7/R8 scope.
pub fn is_concurrency_scope(rel_path: &str) -> bool {
    CONCURRENCY_PREFIXES
        .iter()
        .any(|p| rel_path.strip_prefix(p).is_some_and(|r| r.starts_with('/')))
}

/// Whether a path is in the R9 scope: the WAL and the durable engine,
/// the two files that own the log-then-apply contract (DESIGN.md §15).
pub fn is_fsync_scope(rel_path: &str) -> bool {
    is_concurrency_scope(rel_path)
        && rel_path
            .rsplit('/')
            .next()
            .is_some_and(|f| matches!(f, "wal.rs" | "durable.rs"))
}

/// The workspace's declared lock-order table: `(outer, inner)` pairs
/// that may nest. Everything else — in either direction — is a finding.
///
/// * `ingest → snapshot`: `publish` swaps the snapshot `Arc` while the
///   caller holds the ingest lock; the snapshot lock is the innermost
///   lock in the server, held only for the pointer swap. Taking the
///   ingest lock while holding the snapshot lock is the forbidden
///   deadlock direction (and would stall every reader behind ingest).
const LOCK_ORDER: [(&str, &str); 1] = [("ingest", "snapshot")];

/// Guard-producing method calls. The empty argument list is the
/// disambiguator: `Mutex::lock()`, `RwLock::read()`/`write()` take no
/// arguments, while `io::Read::read(&mut buf)` and `io::Write::write(
/// &bytes)` always do.
const ACQUIRE_METHODS: [&str; 3] = [".lock()", ".read()", ".write()"];

/// Blessed acquisition helpers: call token → the lock it returns a
/// guard of. `lock_ingest` is the single sanctioned way to take the
/// server's ingest lock (poison recovery lives there, see `routes.rs`).
const ACQUIRE_HELPERS: [(&str, &str); 1] = [("lock_ingest(", "ingest")];

/// Blocking-I/O tokens for R7. Deliberately primitive-level (fsync,
/// file open, socket connect): engine-level helpers that are *designed*
/// to run under the ingest lock (e.g. `DurableEngine::save`) are not
/// listed — the rule polices the lock the design says must stay I/O
/// free, not the serialized writer.
const BLOCKING_IO: [&str; 9] = [
    ".sync_all(",
    ".sync_data(",
    "fsync(",
    "File::",
    "OpenOptions::",
    "TcpStream::",
    ".save_to_path(",
    "remove_file(",
    ".set_len(",
];

/// Calls that hand a result to readers; only the ingest guard may be
/// live across them.
const PUBLISH_CALLS: [&str; 2] = ["publish(", "respond("];

/// R9 sync tokens: the acknowledgement points of the log-then-apply
/// contract (`Wal::append` fsyncs internally; `log_then` logs before it
/// applies).
const R9_SYNC: [&str; 4] = ["wal.append(", ".sync_all(", ".sync_data(", ".log_then("];

/// R9 apply tokens: the calls that mutate engine state.
const R9_APPLY: [&str; 3] = ["apply(", ".append_values(", ".append_series("];

/// Runs every flow check that applies to `rel_path`. `mask` is the
/// test-region mask from [`crate::scope::test_mask`].
pub fn check_flow(rel_path: &str, lines: &[ScannedLine], mask: &[bool]) -> Vec<FlowFinding> {
    let mut out = Vec::new();
    if is_concurrency_scope(rel_path) {
        check_guards(lines, mask, &mut out);
    }
    if is_fsync_scope(rel_path) {
        check_fsync_order(lines, mask, &mut out);
    }
    out.sort_by_key(|f| (f.line, f.rule.id()));
    out
}

/// A live lock guard.
#[derive(Debug)]
struct Guard {
    /// Binding name (`drop(name)` kills it).
    name: String,
    /// Lock identity (the field/helper it came from).
    lock: String,
    /// Brace depth the binding lives at; the guard dies when the
    /// current depth drops below it.
    depth: i64,
    /// 0-based line of the binding, for messages.
    line: usize,
}

/// The R7/R8 statement machine: joins physical lines into statements,
/// tracks live guards by brace depth, and checks each statement against
/// the live set.
fn check_guards(lines: &[ScannedLine], mask: &[bool], out: &mut Vec<FlowFinding>) {
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth: i64 = 0;
    let mut stmt: Vec<(usize, &str)> = Vec::new();

    for (li, line) in lines.iter().enumerate() {
        let code = line.code.as_str();
        if mask[li] {
            // Test code: statements are never checked, but braces still
            // nest and close scopes.
            stmt.clear();
            depth += brace_delta(code);
            guards.retain(|g| g.depth <= depth);
            continue;
        }
        if code.trim().is_empty() {
            continue;
        }
        stmt.push((li, code));
        let t = code.trim_end();
        let terminated = t.ends_with(';') || t.ends_with('{') || t.ends_with('}');
        if !terminated && stmt.len() < 40 {
            continue;
        }
        let depth_before = depth;
        for (_, frag) in &stmt {
            depth += brace_delta(frag);
        }
        check_statement(&stmt, depth_before, depth, &mut guards, out);
        guards.retain(|g| g.depth <= depth);
        stmt.clear();
    }
}

/// Net brace delta of one line of comment-free code.
fn brace_delta(code: &str) -> i64 {
    let mut d = 0i64;
    for c in code.chars() {
        match c {
            '{' => d += 1,
            '}' => d -= 1,
            _ => {}
        }
    }
    d
}

fn check_statement(
    stmt: &[(usize, &str)],
    depth_before: i64,
    depth_after: i64,
    guards: &mut Vec<Guard>,
    out: &mut Vec<FlowFinding>,
) {
    let joined: String = stmt
        .iter()
        .map(|(_, c)| c.trim())
        .collect::<Vec<_>>()
        .join(" ");
    let trimmed = joined.trim();
    let first_li = stmt[0].0;

    // R7b: every acquisition in this statement checked against the
    // guards live *before* it (one finding per acquisition, naming the
    // first conflicting guard).
    let acquired = acquisitions(stmt);
    for acq in &acquired {
        for g in guards.iter() {
            if g.lock == acq.lock {
                out.push(FlowFinding {
                    rule: Rule::LockDiscipline,
                    line: acq.line,
                    message: format!(
                        "lock `{}` is re-acquired while guard `{}` (line {}) already \
                         holds it — self-deadlock",
                        acq.lock,
                        g.name,
                        g.line + 1
                    ),
                });
                break;
            }
            if !LOCK_ORDER.contains(&(g.lock.as_str(), acq.lock.as_str())) {
                out.push(FlowFinding {
                    rule: Rule::LockDiscipline,
                    line: acq.line,
                    message: format!(
                        "lock `{}` is acquired while guard `{}` of `{}` (line {}) is \
                         live, but `{} -> {}` is not in the declared lock-order table",
                        acq.lock,
                        g.name,
                        g.lock,
                        g.line + 1,
                        g.lock,
                        acq.lock
                    ),
                });
                break;
            }
        }
    }

    // R7a + R7c: tokens in this statement against the live guards.
    if let Some(g) = guards.first() {
        for (li, frag) in stmt {
            for tok in BLOCKING_IO {
                if find_token(frag, tok) {
                    out.push(FlowFinding {
                        rule: Rule::LockDiscipline,
                        line: *li,
                        message: format!(
                            "blocking I/O `{}` while lock guard `{}` of `{}` (line {}) \
                             is live — drop the guard before the I/O",
                            tok.trim_matches(['.', '(', ':']),
                            g.name,
                            g.lock,
                            g.line + 1
                        ),
                    });
                }
            }
        }
    }
    if let Some(g) = guards.iter().find(|g| g.lock != "ingest") {
        for (li, frag) in stmt {
            for tok in PUBLISH_CALLS {
                if find_token(frag, tok) {
                    out.push(FlowFinding {
                        rule: Rule::LockDiscipline,
                        line: *li,
                        message: format!(
                            "`{}..)` is called while guard `{}` of `{}` (line {}) is \
                             live — only the ingest lock may be held across \
                             publication",
                            tok,
                            g.name,
                            g.lock,
                            g.line + 1
                        ),
                    });
                }
            }
        }
    }

    // R8: discarded Results.
    if let Some(rest) = trimmed.strip_prefix("let _ =") {
        if rest.contains('(') && trimmed.ends_with(';') {
            out.push(FlowFinding {
                rule: Rule::ResultDiscipline,
                line: first_li,
                message: "`let _ =` discards the call's `Result` — handle the error, or \
                          justify with analyze::allow(result-discipline)"
                    .into(),
            });
        }
    } else if trimmed.ends_with(".ok();") && !trimmed.contains('=') {
        out.push(FlowFinding {
            rule: Rule::ResultDiscipline,
            line: stmt[stmt.len() - 1].0,
            message: "statement-terminated `.ok()` silently drops the error — handle it, \
                      or justify with analyze::allow(result-discipline)"
                .into(),
        });
    }

    // drop(name) ends a guard early.
    for g_idx in (0..guards.len()).rev() {
        let pat = format!("drop({})", guards[g_idx].name);
        if find_token(trimmed, &pat) {
            guards.remove(g_idx);
        }
    }

    // A `let` binding whose initializer acquires a lock births a guard.
    // `if let` / `while let` bindings live inside the block they open;
    // a plain `let` (even over a `match`) lives at the statement's own
    // depth.
    if let Some(acq) = acquired.first() {
        if let Some(name) = let_binding_name(trimmed) {
            let scoped_inside = trimmed.starts_with("if ") || trimmed.starts_with("while ");
            guards.push(Guard {
                name,
                lock: acq.lock.clone(),
                depth: if scoped_inside {
                    depth_after
                } else {
                    depth_before
                },
                line: first_li,
            });
        }
    }
}

/// One lock acquisition found in a statement.
struct Acquisition {
    /// 0-based source line of the acquiring call.
    line: usize,
    /// Lock identity (receiver field or helper mapping).
    lock: String,
}

/// Finds every acquisition in the statement, attributing each to the
/// physical line its call token sits on. The receiver is recovered from
/// the statement text *up to* the token, so split method chains
/// (`state\n.snapshot\n.write()`) resolve correctly.
fn acquisitions(stmt: &[(usize, &str)]) -> Vec<Acquisition> {
    let mut out = Vec::new();
    let mut prefix = String::new();
    for (li, frag) in stmt {
        for method in ACQUIRE_METHODS {
            let mut from = 0;
            while let Some(p) = frag[from..].find(method) {
                let pos = from + p;
                let mut receiver = prefix.clone();
                receiver.push(' ');
                receiver.push_str(&frag[..pos]);
                if let Some(lock) = lock_name(&receiver) {
                    out.push(Acquisition { line: *li, lock });
                }
                from = pos + method.len();
            }
        }
        for (helper, lock) in ACQUIRE_HELPERS {
            if find_token(frag, helper) && !frag.contains("fn ") {
                out.push(Acquisition {
                    line: *li,
                    lock: (*lock).to_string(),
                });
            }
        }
        prefix.push(' ');
        prefix.push_str(frag.trim());
    }
    out
}

/// Extracts the lock identity from the receiver text before an
/// acquisition call: the trailing identifier after stripping one
/// trailing call-argument group — `state.ingest` → `ingest`,
/// `self.shard(id)` → `shard`, `store` → `store`.
fn lock_name(receiver: &str) -> Option<String> {
    let mut s = receiver.trim_end();
    s = s.strip_suffix('.').unwrap_or(s).trim_end();
    if s.ends_with(')') {
        let mut depth = 0usize;
        let mut cut = None;
        for (i, c) in s.char_indices().rev() {
            match c {
                ')' => depth += 1,
                '(' => {
                    depth -= 1;
                    if depth == 0 {
                        cut = Some(i);
                        break;
                    }
                }
                _ => {}
            }
        }
        s = &s[..cut?];
        s = s.trim_end();
    }
    let name: String = s
        .chars()
        .rev()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .collect();
    if name.is_empty() || name.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        return None;
    }
    Some(name)
}

/// The binding name of a `let` statement, or `None` when there is no
/// binding to track (`let _`, destructuring of several names, no `let`).
/// Takes the last identifier of the pattern so `Ok(mut guard)` and
/// `mut guard` both resolve to `guard`.
fn let_binding_name(trimmed: &str) -> Option<String> {
    let let_pos = find_word(trimmed, "let")?;
    let after = &trimmed[let_pos + 3..];
    let eq = after.find('=')?;
    let pat = after[..eq].trim();
    let pat = pat.split(':').next().unwrap_or(pat); // strip a type ascription
    let mut last = None;
    for id in pat.split(|c: char| !(c.is_alphanumeric() || c == '_')) {
        if !id.is_empty() && id != "mut" && id != "ref" {
            last = Some(id);
        }
    }
    let name = last?;
    if name == "_" {
        return None;
    }
    Some(name.to_string())
}

/// R9: per-function ordering of sync vs apply tokens, with the same
/// brace-frame machinery `scope.rs` uses for test regions.
fn check_fsync_order(lines: &[ScannedLine], mask: &[bool], out: &mut Vec<FlowFinding>) {
    struct FnInfo {
        sync_lines: Vec<usize>,
        apply_lines: Vec<usize>,
    }
    // One entry per open brace frame; `Some` frames were opened by `fn`.
    let mut frames: Vec<Option<FnInfo>> = Vec::new();
    let mut pending_fn = false;

    for (li, line) in lines.iter().enumerate() {
        let code = line.code.as_str();
        if !mask[li] {
            // Attribute this line's tokens to the innermost enclosing
            // function (tokens on a `fn`'s own signature line belong to
            // the *outer* scope, which is what we want — signatures hold
            // no calls).
            if let Some(f) = frames.iter_mut().rev().find_map(|f| f.as_mut()) {
                if R9_SYNC.iter().any(|t| find_token(code, t)) {
                    f.sync_lines.push(li);
                }
                if R9_APPLY.iter().any(|t| find_token(code, t)) {
                    f.apply_lines.push(li);
                }
            }
            if find_word(code, "fn").is_some() {
                pending_fn = true;
            }
        }
        for c in code.chars() {
            match c {
                '{' => {
                    frames.push(if std::mem::take(&mut pending_fn) {
                        Some(FnInfo {
                            sync_lines: Vec::new(),
                            apply_lines: Vec::new(),
                        })
                    } else {
                        None
                    });
                }
                '}' => {
                    if let Some(Some(f)) = frames.pop() {
                        if let Some(&first_sync) = f.sync_lines.first() {
                            for &a in &f.apply_lines {
                                if a < first_sync {
                                    out.push(FlowFinding {
                                        rule: Rule::FsyncOrdering,
                                        line: a,
                                        message: format!(
                                            "state-mutating apply precedes the function's \
                                             first WAL sync (line {}) — the log-then-apply \
                                             contract requires the sync first",
                                            first_sync + 1
                                        ),
                                    });
                                }
                            }
                        }
                    }
                }
                ';' => pending_fn = false,
                _ => {}
            }
        }
    }
}

/// Whether `code` contains `tok`, requiring an identifier boundary
/// before it when the token starts with an identifier character (so
/// `republish(` never matches `publish(`).
fn find_token(code: &str, tok: &str) -> bool {
    let first_is_ident = tok
        .chars()
        .next()
        .is_some_and(|c| c.is_alphanumeric() || c == '_');
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(p) = code[from..].find(tok) {
        let start = from + p;
        if !first_is_ident
            || start == 0
            || !(bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_')
        {
            return true;
        }
        from = start + 1;
    }
    false
}

/// Byte position of `word` with identifier boundaries on both sides.
fn find_word(code: &str, word: &str) -> Option<usize> {
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(p) = code[from..].find(word) {
        let start = from + p;
        let end = start + word.len();
        let before_ok =
            start == 0 || !(bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_');
        let after_ok =
            end >= bytes.len() || !(bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_');
        if before_ok && after_ok {
            return Some(start);
        }
        from = start + 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;
    use crate::scope::test_mask;

    fn run(path: &str, src: &str) -> Vec<(String, usize, String)> {
        let lines = scan(src);
        let mask = test_mask(&lines);
        check_flow(path, &lines, &mask)
            .into_iter()
            .map(|f| (f.rule.id().to_string(), f.line + 1, f.message))
            .collect()
    }

    const SERVER: &str = "crates/tsss-server/src/x.rs";

    #[test]
    fn scope_is_hot_path_plus_server() {
        assert!(is_concurrency_scope("crates/tsss-core/src/engine.rs"));
        assert!(is_concurrency_scope("crates/tsss-server/src/routes.rs"));
        assert!(!is_concurrency_scope("crates/tsss-bench/src/lib.rs"));
        assert!(!is_concurrency_scope("crates/tsss-analyze/src/flow.rs"));
        assert!(is_fsync_scope("crates/tsss-storage/src/wal.rs"));
        assert!(is_fsync_scope("crates/tsss-core/src/durable.rs"));
        assert!(!is_fsync_scope("crates/tsss-core/src/engine.rs"));
    }

    #[test]
    fn fsync_under_a_live_guard_is_flagged_and_after_drop_is_not() {
        let src = "fn f(s: &S, file: &File) {\n\
                   \x20   let g = s.ingest.lock().unwrap_or_else(PoisonError::into_inner);\n\
                   \x20   file.sync_all()?;\n\
                   \x20   drop(g);\n\
                   \x20   file.sync_all()?;\n\
                   }\n";
        let f = run(SERVER, src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!((f[0].0.as_str(), f[0].1), ("R7", 3));
    }

    #[test]
    fn guard_scope_ends_at_the_closing_brace() {
        let src = "fn f(s: &S, file: &File) {\n\
                   \x20   {\n\
                   \x20       let g = s.ingest.lock()?;\n\
                   \x20   }\n\
                   \x20   file.sync_all()?;\n\
                   }\n";
        assert!(run(SERVER, src).is_empty());
    }

    #[test]
    fn declared_nesting_is_clean_and_undeclared_is_flagged() {
        let ok = "fn f(s: &S) {\n\
                  \x20   let master = s.ingest.lock()?;\n\
                  \x20   let slot = s.snapshot.write()?;\n\
                  }\n";
        assert!(run(SERVER, ok).is_empty(), "declared ingest -> snapshot");
        let bad = "fn f(s: &S) {\n\
                   \x20   let slot = s.snapshot.write()?;\n\
                   \x20   let master = s.ingest.lock()?;\n\
                   }\n";
        let f = run(SERVER, bad);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!((f[0].0.as_str(), f[0].1), ("R7", 3));
        assert!(f[0].2.contains("not in the declared lock-order table"));
    }

    #[test]
    fn reacquiring_the_same_lock_is_a_self_deadlock_finding() {
        let src = "fn f(s: &S) {\n\
                   \x20   let a = s.state.lock()?;\n\
                   \x20   let b = s.state.lock()?;\n\
                   }\n";
        let f = run(SERVER, src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].2.contains("self-deadlock"));
    }

    #[test]
    fn split_method_chains_resolve_their_receiver() {
        let src = "fn f(s: &S) {\n\
                   \x20   let slot = s\n\
                   \x20       .snapshot\n\
                   \x20       .write()\n\
                   \x20       .unwrap_or_else(PoisonError::into_inner);\n\
                   \x20   let master = s.ingest.lock()?;\n\
                   }\n";
        let f = run(SERVER, src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].1, 6, "acquisition line, not binding line");
        assert!(f[0].2.contains("`snapshot -> ingest`"), "{}", f[0].2);
    }

    #[test]
    fn the_retired_shard_store_nesting_is_undeclared() {
        // The shape of the buffer pool's former cache-miss fill: the store
        // read under a shard guard. No storage lock nests any more, so the
        // order is undeclared; method args never match the empty-parens
        // acquisition tokens.
        let src = "fn read(&self, id: PageId) -> Result<Page, StorageError> {\n\
                   \x20   let mut shard = self.shard(id).lock().map_err(|_| E::Poisoned)?;\n\
                   \x20   let page = {\n\
                   \x20       let store = self.store.read().map_err(|_| E::Poisoned)?;\n\
                   \x20       store.read_uncounted(id)?\n\
                   \x20   };\n\
                   \x20   shard.insert_frame(id, page.clone(), false, &self.store)\n\
                   }\n";
        let f = run("crates/tsss-storage/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!((f[0].0.as_str(), f[0].1), ("R7", 4));
        assert!(f[0].2.contains("`shard -> store`"), "{}", f[0].2);
        assert!(f[0].2.contains("not in the declared lock-order table"));
    }

    #[test]
    fn publish_is_blessed_under_ingest_and_flagged_under_other_guards() {
        let ok = "fn f(s: &S) {\n\
                  \x20   let master = lock_ingest(s);\n\
                  \x20   publish(s, &master)?;\n\
                  }\n";
        assert!(run(SERVER, ok).is_empty());
        let bad = "fn f(s: &S) {\n\
                   \x20   let slot = s.snapshot.write()?;\n\
                   \x20   publish(s, 1)?;\n\
                   }\n";
        let f = run(SERVER, bad);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].2.contains("only the ingest lock"));
    }

    #[test]
    fn result_discipline_flags_discards_but_not_bindings() {
        let src = "fn f(file: &File) {\n\
                   \x20   let _ = file.sync_all();\n\
                   \x20   std::fs::remove_file(p).ok();\n\
                   \x20   let kept = std::fs::remove_file(p).ok();\n\
                   \x20   let _ = 5;\n\
                   }\n";
        let f = run(SERVER, src);
        let r8: Vec<_> = f.iter().filter(|f| f.0 == "R8").collect();
        assert_eq!(r8.len(), 2, "{f:?}");
        assert_eq!((r8[0].1, r8[1].1), (2, 3));
    }

    #[test]
    fn test_code_is_exempt_from_flow_rules() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t(s: &S, file: &File) {\n        let g = s.a.lock().unwrap();\n        file.sync_all().unwrap();\n        let _ = file.sync_all();\n    }\n}\n";
        assert!(run(SERVER, src).is_empty());
    }

    #[test]
    fn apply_before_sync_is_flagged_and_log_then_apply_is_not() {
        let bad = "impl D {\n\
                   \x20   fn f(&mut self, p: &[u8]) -> io::Result<()> {\n\
                   \x20       self.engine.append_values(0, &[1.0])?;\n\
                   \x20       self.wal.append(p)\n\
                   \x20   }\n\
                   }\n";
        let f = run("crates/tsss-core/src/durable.rs", bad);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!((f[0].0.as_str(), f[0].1), ("R9", 3));
        let ok = "impl D {\n\
                  \x20   fn f(&mut self, p: &[u8]) -> io::Result<()> {\n\
                  \x20       self.wal.append(p)?;\n\
                  \x20       apply(&mut self.engine);\n\
                  \x20       Ok(())\n\
                  \x20   }\n\
                  }\n";
        assert!(run("crates/tsss-core/src/durable.rs", ok).is_empty());
    }

    #[test]
    fn functions_that_never_log_are_outside_r9() {
        let src = "impl D {\n\
                   \x20   fn replay(&mut self) {\n\
                   \x20       self.engine.append_values(0, &[1.0]);\n\
                   \x20   }\n\
                   }\n";
        assert!(run("crates/tsss-core/src/durable.rs", src).is_empty());
    }

    #[test]
    fn torn_append_is_not_a_sync_token() {
        // `wal.append_torn_unsynced` must not satisfy the sync
        // requirement: only the fsyncing `wal.append(` counts.
        let src = "impl D {\n\
                   \x20   fn f(&mut self, p: &[u8]) {\n\
                   \x20       self.engine.append_values(0, &[1.0]);\n\
                   \x20       self.wal.append_torn_unsynced(p);\n\
                   \x20   }\n\
                   }\n";
        assert!(run("crates/tsss-core/src/durable.rs", src).is_empty());
    }
}
