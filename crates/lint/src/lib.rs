#![forbid(unsafe_code)]
//! `coopcache-lint` — a zero-dependency conformance linter for this
//! workspace.
//!
//! The paper's EA-vs-ad-hoc comparison (Figs. 1–3, Table 1) is only
//! meaningful if the simulators are bit-deterministic and the library
//! crates cannot panic under load. Clippy cannot enforce either property
//! *for this project's definitions* — "no wall-clock reads outside the
//! clock abstraction", "no hash-order iteration where order reaches an
//! event stream" — so this crate hand-rolls a masking lexer
//! ([`mask`](mod@mask)) and a small set of textual rules ([`rules`]) over it. No
//! `syn`, no `regex`: the crate registry is unreachable in this
//! environment, and the rules are simple enough that masked substring
//! scanning is both sufficient and auditable.
//!
//! Run it with `cargo run -p coopcache-lint` (or `scripts/check.sh lint`).
//! Findings print as `file:line: [rule] message` and the process exits
//! nonzero, so the pre-PR gate fails on regressions. Suppress a finding
//! with a justified escape hatch trailing the offending line or in a
//! comment (which may wrap) directly above it:
//!
//! ```text
//! // lint:allow(panic) -- documented caller contract: doc must be tracked
//! ```

pub mod concurrency;
pub mod mask;
pub mod rules;

pub use concurrency::check_lock_order;
pub use mask::{mask, AllowDirective, Masked};
pub use rules::{
    check_event_taxonomy, check_paranoid_wiring, crate_of, lint_source, Finding, Rule,
};

use std::io;
use std::path::{Path, PathBuf};

/// Directory names never descended into: build output, VCS state,
/// test-only trees (integration tests, benches, examples, and this
/// crate's deliberately-violating fixtures), and `benchmark` — the
/// standalone `coopbench` package, a stopwatch by purpose and outside
/// this workspace's conformance rules.
const SKIP_DIRS: [&str; 8] = [
    "target",
    ".git",
    "tests",
    "benches",
    "examples",
    "fixtures",
    "results",
    "benchmark",
];

/// Collects every production `.rs` file under `root`: files living under
/// a `src` directory, skipping the build, test-only and benchmark trees
/// (`SKIP_DIRS`). Sorted for deterministic output.
///
/// # Errors
///
/// Propagates directory-read failures.
pub fn collect_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") && path.iter().any(|c| c.to_string_lossy() == "src") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Lints the whole workspace rooted at `root`: per-file rules (R1–R4,
/// R7, R9–R11) on every production source, then the cross-file checks —
/// R5 (dead event taxonomy) against `crates/obs/src/event.rs`, R6
/// (paranoid audit wiring) against `crates/core/src/cache.rs`, and R8
/// (lock-order cycles) over the workspace-wide acquisition graph.
///
/// # Errors
///
/// Propagates file-read failures.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut sources: Vec<(PathBuf, String)> = Vec::new();
    for path in collect_files(root)? {
        let src = std::fs::read_to_string(&path)?;
        let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
        sources.push((rel, src));
    }
    let mut findings = Vec::new();
    for (rel, src) in &sources {
        findings.extend(lint_source(rel, src));
    }
    let ends_with = |rel: &Path, suffix: &str| rel.to_string_lossy().replace('\\', "/") == suffix;
    if let Some((rel, src)) = sources
        .iter()
        .find(|(rel, _)| ends_with(rel, "crates/obs/src/event.rs"))
    {
        let others: Vec<(PathBuf, String)> = sources
            .iter()
            .filter(|(r, _)| crate_of(r) != Some("obs"))
            .cloned()
            .collect();
        findings.extend(check_event_taxonomy(rel, src, &others));
    }
    if let Some((rel, src)) = sources
        .iter()
        .find(|(rel, _)| ends_with(rel, "crates/core/src/cache.rs"))
    {
        findings.extend(check_paranoid_wiring(rel, src));
    }
    findings.extend(check_lock_order(&sources));
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(findings)
}

/// Number of files [`lint_workspace`] would scan (for the summary line).
///
/// # Errors
///
/// Propagates directory-read failures.
pub fn count_files(root: &Path) -> io::Result<usize> {
    Ok(collect_files(root)?.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skip_dirs_cover_test_trees() {
        for d in ["tests", "benches", "fixtures", "target"] {
            assert!(SKIP_DIRS.contains(&d));
        }
    }
}
