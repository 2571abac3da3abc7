//! Fixture-driven integration tests for the conformance rules.
//!
//! Each file under `fixtures/` is a deliberately-violating (or
//! deliberately-clean) source. It is scanned under a *pseudo* workspace
//! path — `crates/<name>/src/fixture.rs` — so crate-scoped rules apply
//! exactly as they would in the real tree. The fixtures directory itself
//! is in the linter's skip list, so the workspace scan never sees them.

use coopcache_lint::{check_event_taxonomy, check_lock_order, lint_source, Finding, Rule};
use std::path::{Path, PathBuf};

fn lint(pseudo_path: &str, src: &str) -> Vec<Finding> {
    lint_source(Path::new(pseudo_path), src)
}

fn count(findings: &[Finding], rule: Rule) -> usize {
    findings.iter().filter(|f| f.rule == rule).count()
}

/// Asserts that every finding's reported line actually contains `token`
/// in the fixture source — the diagnostics must point at the offense.
fn lines_contain(findings: &[Finding], src: &str, rule: Rule, token: &str) {
    for f in findings.iter().filter(|f| f.rule == rule) {
        let text = src.lines().nth(f.line - 1).unwrap_or("");
        assert!(
            text.contains(token),
            "{f} points at line {}, which lacks `{token}`: {text:?}",
            f.line
        );
    }
}

#[test]
fn float_eq_fixture_flags_every_literal_comparison() {
    let src = include_str!("fixtures/float_eq_bad.rs");
    let findings = lint("crates/core/src/fixture.rs", src);
    assert_eq!(count(&findings, Rule::FloatEq), 4, "{findings:?}");
    assert_eq!(findings.len(), 4);
}

#[test]
fn float_eq_clean_fixture_produces_nothing() {
    let src = include_str!("fixtures/float_eq_good.rs");
    let findings = lint("crates/core/src/fixture.rs", src);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn dead_event_fixture_flags_only_the_unconstructed_variant() {
    let taxonomy = include_str!("fixtures/event_taxonomy.rs");
    let consumer = include_str!("fixtures/event_consumer.rs");
    let others = vec![(
        PathBuf::from("crates/sim/src/driver.rs"),
        consumer.to_string(),
    )];
    let findings = check_event_taxonomy(Path::new("crates/obs/src/event.rs"), taxonomy, &others);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, Rule::DeadEvent);
    assert!(
        findings[0].message.contains("NeverBuilt"),
        "{}",
        findings[0]
    );
    let text = taxonomy.lines().nth(findings[0].line - 1).unwrap_or("");
    assert!(text.contains("NeverBuilt"), "line points at the variant");
}

#[test]
fn dead_event_passes_when_every_variant_is_built() {
    let taxonomy = include_str!("fixtures/event_taxonomy.rs");
    let full = "pub fn all() { let _ = Event::Started { at_ms: 1 }; \
                let _ = Event::Tick(2); \
                let _ = Event::NeverBuilt { reason: 3 }; }";
    let others = vec![(PathBuf::from("crates/sim/src/x.rs"), full.to_string())];
    let findings = check_event_taxonomy(Path::new("crates/obs/src/event.rs"), taxonomy, &others);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn lock_blocking_fixture_flags_join_and_sleep() {
    let src = include_str!("fixtures/lock_blocking_bad.rs");
    let findings = lint("crates/net/src/fixture.rs", src);
    assert_eq!(count(&findings, Rule::LockBlocking), 2, "{findings:?}");
    assert_eq!(findings.len(), 2, "{findings:?}");
    lines_contain(&findings, src, Rule::LockBlocking, "(");
}

#[test]
fn lock_blocking_clean_fixture_produces_nothing() {
    let src = include_str!("fixtures/lock_blocking_good.rs");
    let findings = lint("crates/net/src/fixture.rs", src);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn lock_blocking_flags_a_bounded_send_only_under_the_guard() {
    let src = include_str!("fixtures/lock_blocking_send.rs");
    let findings = lint("crates/obs/src/fixture.rs", src);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(count(&findings, Rule::LockBlocking), 1, "{findings:?}");
    lines_contain(&findings, src, Rule::LockBlocking, "waits for a consumer");
}

#[test]
fn lock_blocking_flags_body_transfer_peek_fill_and_send_to_under_a_guard() {
    let src = include_str!("fixtures/lock_blocking_transfer.rs");
    let findings = lint("crates/net/src/fixture.rs", src);
    assert_eq!(count(&findings, Rule::LockBlocking), 4, "{findings:?}");
    assert_eq!(findings.len(), 4, "{findings:?}");
    for token in ["drain_body", "fill_buf", "peek", "send_to"] {
        assert!(
            findings
                .iter()
                .any(|f| src.lines().nth(f.line - 1).unwrap_or("").contains(token)),
            "no finding at `{token}`: {findings:?}"
        );
    }
}

#[test]
fn lock_order_fixture_reports_the_cycle_and_the_reentry() {
    let src = include_str!("fixtures/lock_order_bad.rs");
    let sources = vec![(PathBuf::from("crates/net/src/fixture.rs"), src.to_string())];
    let findings = check_lock_order(&sources);
    assert_eq!(count(&findings, Rule::LockOrder), 2, "{findings:?}");
    assert!(
        findings.iter().any(|f| f.message.contains("cycle")
            && f.message.contains("health")
            && f.message.contains("series")),
        "{findings:?}"
    );
    assert!(
        findings.iter().any(|f| f.message.contains("re-acquired")),
        "{findings:?}"
    );
}

#[test]
fn lock_order_clean_fixture_produces_nothing() {
    let src = include_str!("fixtures/lock_order_good.rs");
    let sources = vec![(PathBuf::from("crates/net/src/fixture.rs"), src.to_string())];
    let findings = check_lock_order(&sources);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn lock_order_sees_cycles_spanning_files() {
    // `forward` and `backward` in different files still form one cycle:
    // the acquisition graph is workspace-wide.
    let src = include_str!("fixtures/lock_order_bad.rs");
    let (fwd, rest) = src.split_once("    fn backward").expect("fixture shape");
    let fwd = format!("{fwd}}}\n");
    let bwd = format!(
        "use std::sync::{{Mutex, MutexGuard, PoisonError}};\n\
         fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {{\n\
             m.lock().unwrap_or_else(PoisonError::into_inner)\n\
         }}\n\
         struct Planes {{ health: Mutex<u64>, series: Mutex<u64> }}\n\
         impl Planes {{\n    fn backward{}",
        rest.split_once("    fn reentrant")
            .expect("fixture shape")
            .0
    );
    let sources = vec![
        (PathBuf::from("crates/net/src/a.rs"), fwd),
        (PathBuf::from("crates/net/src/b.rs"), format!("{bwd}}}\n")),
    ];
    let findings = check_lock_order(&sources);
    assert_eq!(count(&findings, Rule::LockOrder), 1, "{findings:?}");
    assert!(findings[0].message.contains("cycle"), "{findings:?}");
    // Both files declare `health`/`series` Mutex fields, so the finding
    // must disclose that name-based lock identity may be a collision.
    assert!(
        findings[0].message.contains("naming collision"),
        "{findings:?}"
    );
}

#[test]
fn lock_order_collision_note_names_multi_declared_locks() {
    // Two structs in different files share a Mutex field name; nesting
    // their acquisitions looks like a reentrant self-deadlock to the
    // name-based graph. The finding must say the identity is by name,
    // list the declaration files, and point at the rename/allow fix.
    let a = "struct D { state: Mutex<u64> }\n\
             impl D {\n\
                 fn both(&self, other: &E) {\n\
                     let g = lock(&self.state);\n\
                     let h = lock(&other.state);\n\
                     drop(h);\n\
                     drop(g);\n\
                 }\n\
             }\n";
    let b = "struct E { state: Mutex<u64> }\n";
    let sources = vec![
        (PathBuf::from("crates/net/src/a.rs"), a.to_string()),
        (PathBuf::from("crates/net/src/b.rs"), b.to_string()),
    ];
    let findings = check_lock_order(&sources);
    assert_eq!(count(&findings, Rule::LockOrder), 1, "{findings:?}");
    let msg = &findings[0].message;
    assert!(msg.contains("re-acquired"), "{findings:?}");
    assert!(msg.contains("naming collision"), "{findings:?}");
    assert!(msg.contains("a.rs") && msg.contains("b.rs"), "{findings:?}");
    assert!(msg.contains("lint:allow(lock-order)"), "{findings:?}");
}

#[test]
fn lock_blocking_sees_a_shard_guard_from_lock_for() {
    let src = include_str!("fixtures/shard_lock_blocking_bad.rs");
    let findings = lint("crates/core/src/fixture.rs", src);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(count(&findings, Rule::LockBlocking), 1, "{findings:?}");
    lines_contain(&findings, src, Rule::LockBlocking, "write_frame");
    assert!(findings[0].message.contains("`shard`"), "{findings:?}");
}

#[test]
fn lock_order_accepts_the_window_table_below_a_shard_guard() {
    let src = include_str!("fixtures/shard_lock_order_good.rs");
    let path = "crates/core/src/fixture.rs";
    assert!(lint(path, src).is_empty());
    let sources = vec![(PathBuf::from(path), src.to_string())];
    let findings = check_lock_order(&sources);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn lock_order_flags_a_shard_taken_under_the_window_table() {
    let src = include_str!("fixtures/shard_lock_order_bad.rs");
    let sources = vec![(PathBuf::from("crates/core/src/fixture.rs"), src.to_string())];
    let findings = check_lock_order(&sources);
    assert_eq!(count(&findings, Rule::LockOrder), 1, "{findings:?}");
    let msg = &findings[0].message;
    assert!(
        msg.contains("cycle") && msg.contains("shard") && msg.contains("windows"),
        "{findings:?}"
    );
}

#[test]
fn atomic_order_fixture_flags_relaxed_flags_and_bare_seqcst() {
    let src = include_str!("fixtures/atomic_order_bad.rs");
    let findings = lint("crates/net/src/fixture.rs", src);
    assert_eq!(count(&findings, Rule::AtomicOrder), 3, "{findings:?}");
    assert_eq!(findings.len(), 3, "{findings:?}");
    lines_contain(&findings, src, Rule::AtomicOrder, "Ordering::");
}

#[test]
fn atomic_order_clean_fixture_produces_nothing() {
    let src = include_str!("fixtures/atomic_order_good.rs");
    let findings = lint("crates/net/src/fixture.rs", src);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn guard_escape_fixture_flags_the_move_capture() {
    // The fixture's guard held across `.await` is clippy's
    // `await_holding_lock`; only the `move` capture is this rule's.
    let src = include_str!("fixtures/guard_await_bad.rs");
    let findings = lint("crates/net/src/fixture.rs", src);
    assert_eq!(count(&findings, Rule::GuardEscape), 1, "{findings:?}");
    assert_eq!(findings.len(), 1, "{findings:?}");
    lines_contain(&findings, src, Rule::GuardEscape, "move ||");
}

#[test]
fn guard_escape_clean_fixture_produces_nothing() {
    let src = include_str!("fixtures/guard_await_good.rs");
    let findings = lint("crates/net/src/fixture.rs", src);
    assert!(findings.is_empty(), "{findings:?}");
}

/// The workspace root: `CARGO_MANIFEST_DIR` is crates/lint, two levels
/// down.
fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root exists")
}

#[test]
fn the_real_workspace_is_clean() {
    // The acceptance bar for this tooling: zero findings on the tree it
    // ships in.
    let findings = coopcache_lint::lint_workspace(workspace_root()).expect("scan succeeds");
    let report: String = findings.iter().map(|f| format!("\n{f}")).collect();
    assert!(findings.is_empty(), "workspace regressions:{report}");
}

/// Crates whose non-test code must be panic-free.
const PANIC_FREE_CRATES: [&str; 9] = [
    "core",
    "sim",
    "proxy",
    "types",
    "trace",
    "metrics",
    "obs",
    "net",
    "interleave",
];

#[test]
fn compiler_lint_configuration_is_in_place() {
    // Panics, wall-clock reads, hash types and `unsafe` are rustc and
    // clippy lints, and the audit wiring is a paranoid-feature test;
    // deleting their configuration must fail here as deleting a rule would.
    let read = |rel: &str| {
        std::fs::read_to_string(workspace_root().join(rel)).expect("configuration file reads")
    };
    for krate in PANIC_FREE_CRATES {
        let root = read(&format!("crates/{krate}/src/lib.rs"));
        for attr in [
            "#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]",
            "#![cfg_attr(not(test), warn(clippy::panic, clippy::unreachable))]",
        ] {
            assert!(
                root.lines().any(|l| l.trim() == attr),
                "crates/{krate}/src/lib.rs lacks `{attr}`"
            );
        }
    }
    let clippy = read("clippy.toml");
    for method in ["std::time::Instant::now", "std::time::SystemTime::now"] {
        assert!(
            clippy.contains(&format!("{{ path = \"{method}\"")),
            "clippy.toml does not disallow `{method}`"
        );
    }
    for ty in ["std::collections::HashMap", "std::collections::HashSet"] {
        assert!(
            clippy.contains(&format!("{{ path = \"{ty}\"")),
            "clippy.toml does not disallow `{ty}`"
        );
    }
    let check = read("scripts/check.sh");
    assert!(
        check
            .lines()
            .any(|l| l.starts_with("cargo clippy --workspace") && l.contains("-F unsafe_code")),
        "scripts/check.sh's clippy step does not forbid `unsafe_code`"
    );
    assert!(
        check
            .lines()
            .any(|l| l == "cargo test -q -p coopcache-core --features paranoid"),
        "scripts/check.sh does not run the paranoid tests that check the audit wiring"
    );
}
