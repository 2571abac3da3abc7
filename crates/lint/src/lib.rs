#![forbid(unsafe_code)]
//! `coopcache-lint` — a zero-dependency conformance linter for this
//! workspace.
//!
//! The paper's EA-vs-ad-hoc comparison (Figs. 1–3, Table 1) is only
//! meaningful if the simulators are bit-deterministic and the library
//! crates cannot panic under load. Where rustc or clippy can state a rule
//! exactly, they do: wall-clock reads are clippy's `disallowed_methods`
//! (`clippy.toml`), hash types are its `disallowed_types` there too, panics
//! are `clippy::{unwrap_used, expect_used, panic, unreachable}` in the
//! panic-free crates' roots, `unsafe` is `forbid(unsafe_code)`, and a
//! guard held across `.await` is clippy's `await_holding_lock`. The
//! store's arena walk takes a closure, so its order cannot be collected,
//! and a `paranoid` test in `crates/core/src/cache.rs` shows that every
//! store mutator runs the invariant audit. This crate keeps the rules
//! whose compiler equivalent is narrower or missing — float equality
//! against any literal, dead events, and the guard-liveness rules — as a
//! masking lexer ([`mask`](mod@mask)) and textual rules ([`rules`],
//! [`concurrency`](mod@concurrency)) over it. No `syn`, no `regex`: the
//! workspace takes no third-party dependencies, and masked substring
//! scanning is both sufficient and auditable.
//!
//! The one entry point is the test `the_real_workspace_is_clean`
//! (`cargo test -p coopcache-lint`), which prints each finding as
//! `file:line: [rule] message`. Suppress a finding with a justified
//! escape hatch trailing the offending line or in a comment (which may
//! wrap) directly above it:
//!
//! ```text
//! // lint:allow(atomic-order) -- Release: pairs with the Acquire load in `now`
//! ```

pub mod concurrency;
pub mod mask;
pub mod rules;

pub use concurrency::check_lock_order;
pub use mask::{mask, AllowDirective, Masked};
pub use rules::{check_event_taxonomy, crate_of, lint_source, Finding, Rule};

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

/// Lints the whole workspace rooted at `root`: per-file rules (R4, R7,
/// R9, R10) on every production source, then the cross-file checks — R5
/// (dead event taxonomy) against `crates/obs/src/event.rs` and R8
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
    if let Some((rel, src)) = sources
        .iter()
        .find(|(rel, _)| rel.to_string_lossy().replace('\\', "/") == "crates/obs/src/event.rs")
    {
        let others: Vec<(PathBuf, String)> = sources
            .iter()
            .filter(|(r, _)| crate_of(r) != Some("obs"))
            .cloned()
            .collect();
        findings.extend(check_event_taxonomy(rel, src, &others));
    }
    findings.extend(check_lock_order(&sources));
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(findings)
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
