//! Fixture-driven integration tests for the conformance rules.
//!
//! Each file under `fixtures/` is a deliberately-violating (or
//! deliberately-clean) source. It is scanned under a *pseudo* workspace
//! path — `crates/<name>/src/fixture.rs` — so crate-scoped rules apply
//! exactly as they would in the real tree. The fixtures directory itself
//! is in the linter's skip list, so the workspace scan never sees them.

use coopcache_lint::{
    check_event_taxonomy, check_lock_order, check_paranoid_wiring, lint_source, Finding, Rule,
};
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
fn wall_clock_fixture_flags_both_reads() {
    let src = include_str!("fixtures/wall_clock_bad.rs");
    let findings = lint("crates/net/src/fixture.rs", src);
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert_eq!(count(&findings, Rule::WallClock), 2);
    lines_contain(&findings, src, Rule::WallClock, "::now()");
}

#[test]
fn wall_clock_fixture_is_exempt_in_clock_file_and_benches() {
    let src = include_str!("fixtures/wall_clock_bad.rs");
    assert!(lint("crates/net/src/clock.rs", src).is_empty());
    assert!(lint("crates/net/benches/latency.rs", src).is_empty());
}

#[test]
fn wall_clock_clean_fixture_produces_nothing() {
    let src = include_str!("fixtures/wall_clock_good.rs");
    let findings = lint("crates/net/src/fixture.rs", src);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn panic_fixture_flags_all_constructs_and_bad_allows() {
    let src = include_str!("fixtures/panic_bad.rs");
    let findings = lint("crates/core/src/fixture.rs", src);
    // unwrap/expect/panic!/unreachable! + the two unsuppressed unwraps
    // under malformed allows.
    assert_eq!(count(&findings, Rule::Panic), 6, "{findings:?}");
    // One unjustified allow, one naming an unknown rule.
    assert_eq!(count(&findings, Rule::BadAllow), 2, "{findings:?}");
}

#[test]
fn panic_rule_only_applies_to_library_crates() {
    let src = include_str!("fixtures/panic_bad.rs");
    let findings = lint("crates/cli/src/fixture.rs", src);
    // Allow validation is global; the panic rule is not.
    assert_eq!(count(&findings, Rule::Panic), 0, "{findings:?}");
    assert_eq!(count(&findings, Rule::BadAllow), 2);
}

#[test]
fn panic_clean_fixture_produces_nothing() {
    let src = include_str!("fixtures/panic_good.rs");
    let findings = lint("crates/core/src/fixture.rs", src);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn map_iter_fixture_flags_values_for_loop_and_drain() {
    let src = include_str!("fixtures/map_iter_bad.rs");
    let findings = lint("crates/sim/src/fixture.rs", src);
    // Three hash-order leaks plus two unsorted `iter_unordered` escapes.
    assert_eq!(count(&findings, Rule::MapIter), 5, "{findings:?}");
    lines_contain(&findings, src, Rule::MapIter, "");
}

#[test]
fn map_iter_rule_only_applies_to_deterministic_crates() {
    let src = include_str!("fixtures/map_iter_bad.rs");
    let findings = lint("crates/trace/src/fixture.rs", src);
    assert_eq!(count(&findings, Rule::MapIter), 0, "{findings:?}");
}

#[test]
fn map_iter_clean_fixture_produces_nothing() {
    let src = include_str!("fixtures/map_iter_good.rs");
    let findings = lint("crates/proxy/src/fixture.rs", src);
    assert!(findings.is_empty(), "{findings:?}");
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
fn paranoid_wiring_flags_unaudited_mutators() {
    let src = include_str!("fixtures/paranoid_unwired.rs");
    let findings = check_paranoid_wiring(Path::new("crates/core/src/cache.rs"), src);
    assert_eq!(findings.len(), 2, "{findings:?}");
    let msgs: Vec<&str> = findings.iter().map(|f| f.message.as_str()).collect();
    assert!(msgs.iter().any(|m| m.contains("`insert`")), "{msgs:?}");
    assert!(msgs.iter().any(|m| m.contains("`remove`")), "{msgs:?}");
}

#[test]
fn paranoid_wiring_flags_a_missing_invariant_layer() {
    let src = include_str!("fixtures/paranoid_missing.rs");
    let findings = check_paranoid_wiring(Path::new("crates/core/src/cache.rs"), src);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(findings[0].message.contains("check_invariants"));
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
fn guard_await_fixture_flags_await_and_move_escape() {
    let src = include_str!("fixtures/guard_await_bad.rs");
    let findings = lint("crates/net/src/fixture.rs", src);
    assert_eq!(count(&findings, Rule::GuardAwait), 2, "{findings:?}");
    assert_eq!(findings.len(), 2, "{findings:?}");
}

#[test]
fn guard_await_clean_fixture_produces_nothing() {
    let src = include_str!("fixtures/guard_await_good.rs");
    let findings = lint("crates/net/src/fixture.rs", src);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn unsafe_fixture_requires_justification_and_forbid() {
    let src = include_str!("fixtures/unsafe_bad.rs");
    // As a non-root file: only the bare unsafe block is flagged; the
    // justified one passes.
    let findings = lint("crates/net/src/fixture.rs", src);
    assert_eq!(count(&findings, Rule::UnsafeCode), 1, "{findings:?}");
    // As a crate root: the missing forbid attribute is a second finding.
    let as_root = lint("crates/net/src/lib.rs", src);
    assert_eq!(count(&as_root, Rule::UnsafeCode), 2, "{as_root:?}");
}

#[test]
fn unsafe_clean_fixture_produces_nothing() {
    let src = include_str!("fixtures/unsafe_good.rs");
    let findings = lint("crates/net/src/lib.rs", src);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn the_real_workspace_is_clean() {
    // The acceptance bar for this tooling: zero findings on the tree it
    // ships in. CARGO_MANIFEST_DIR is crates/lint, two levels down.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root exists")
        .to_path_buf();
    let findings = coopcache_lint::lint_workspace(&root).expect("scan succeeds");
    assert!(findings.is_empty(), "workspace regressions: {findings:#?}");
}
