//! The project-specific conformance rules.
//!
//! Every rule scans the masked view of a source file (see
//! [`crate::mask()`]): string/char literal contents and comments are
//! blanked, and — for all rules — `#[cfg(test)]` / `#[test]` items are
//! excluded via the `app_code` view. Findings can be suppressed with a
//! justified allow comment — a rule name and a reason, as in
//! `// lint:allow(float-eq) -- exact sentinel compare` —
//! trailing the offending line or in the comment directly above it
//! (the comment may wrap across lines).
//!
//! | rule              | scope                         | what it catches |
//! |-------------------|-------------------------------|-----------------|
//! | `float-eq`        | everywhere                    | `==` / `!=` against a float literal |
//! | `dead-event`      | workspace-wide                | `Event` variants never constructed outside `obs` |
//! | `lock-blocking`   | everywhere                    | blocking calls (join, I/O, sleep, channel recv) under a live `MutexGuard` |
//! | `lock-order`      | workspace-wide                | cycles in the lock-acquisition graph, or re-acquiring a held lock |
//! | `atomic-order`    | everywhere                    | unjustified non-`Relaxed` orderings; `Relaxed` on cross-thread `AtomicBool` flags |
//! | `guard-escape`    | everywhere                    | a guard captured by a `move` closure |
//!
//! The concurrency rules (R7–R10) live in [`crate::concurrency`]. R1
//! (wall clock), R2 (panics), R3 (hash types), R11 (`unsafe`) and R10's
//! `.await` clause are rustc and clippy lints; R3's arena half is the
//! store's closure-only walk, and R6 (audit wiring) is a `paranoid` test
//! in `crates/core/src/cache.rs` (DESIGN.md §8).

use crate::mask::{find_word, mask, Masked};
use std::fmt;
use std::path::{Path, PathBuf};

/// A conformance rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// R4: float equality comparison.
    FloatEq,
    /// R5: `Event` variant never constructed outside `obs`.
    DeadEvent,
    /// R7: a blocking call while a `MutexGuard` is live.
    LockBlocking,
    /// R8: a cycle in the workspace lock-acquisition graph.
    LockOrder,
    /// R9: an unjustified atomic ordering (or a too-weak one on a flag).
    AtomicOrder,
    /// R10: a guard escaping into a `move` closure.
    GuardEscape,
    /// A malformed `lint:allow` directive.
    BadAllow,
}

impl Rule {
    /// The name used in diagnostics and in allow directives.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Self::FloatEq => "float-eq",
            Self::DeadEvent => "dead-event",
            Self::LockBlocking => "lock-blocking",
            Self::LockOrder => "lock-order",
            Self::AtomicOrder => "atomic-order",
            Self::GuardEscape => "guard-escape",
            Self::BadAllow => "bad-allow",
        }
    }

    /// All rule names accepted by `lint:allow`.
    pub const ALLOWABLE: [Rule; 6] = [
        Self::FloatEq,
        Self::DeadEvent,
        Self::LockBlocking,
        Self::LockOrder,
        Self::AtomicOrder,
        Self::GuardEscape,
    ];
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One diagnostic: a rule fired at a file and line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: PathBuf,
    /// 1-based line.
    pub line: usize,
    /// The rule that fired.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// The `crates/<name>` component of a workspace-relative path, if any.
#[must_use]
pub fn crate_of(rel: &Path) -> Option<&str> {
    let mut parts = rel.iter();
    loop {
        match parts.next()?.to_str()? {
            "crates" => return parts.next()?.to_str(),
            _ => continue,
        }
    }
}

/// Runs every per-file rule (R4, R7, R9, R10, plus allow validation) on
/// one source.
#[must_use]
pub fn lint_source(rel: &Path, src: &str) -> Vec<Finding> {
    let masked = mask(src);
    let mut findings = Vec::new();
    check_allows(rel, &masked, &mut findings);
    check_float_eq(rel, &masked, &mut findings);
    crate::concurrency::check_concurrency(rel, &masked, &mut findings);
    findings
}

/// Validates `lint:allow` directives: each must name a known rule and
/// carry a ` -- justification`.
fn check_allows(rel: &Path, masked: &Masked, findings: &mut Vec<Finding>) {
    for allow in &masked.allows {
        let known = Rule::ALLOWABLE.iter().any(|r| r.name() == allow.rule);
        if !known {
            findings.push(Finding {
                file: rel.to_path_buf(),
                line: allow.line,
                rule: Rule::BadAllow,
                message: format!(
                    "lint:allow names unknown rule `{}` (known: {})",
                    allow.rule,
                    Rule::ALLOWABLE.map(Rule::name).join(", ")
                ),
            });
        } else if !allow.justified {
            findings.push(Finding {
                file: rel.to_path_buf(),
                line: allow.line,
                rule: Rule::BadAllow,
                message: format!(
                    "lint:allow({}) needs a justification: `lint:allow({}) -- <why>`",
                    allow.rule, allow.rule
                ),
            });
        }
    }
}

/// R4: `==` / `!=` where either operand is a float literal.
fn check_float_eq(rel: &Path, masked: &Masked, findings: &mut Vec<Finding>) {
    let code = &masked.app_code;
    let bytes = code.as_bytes();
    let mut i = 0;
    while i + 1 < bytes.len() {
        let is_eq = bytes[i] == b'=' && bytes[i + 1] == b'=';
        let is_ne = bytes[i] == b'!' && bytes[i + 1] == b'=';
        if !(is_eq || is_ne) {
            i += 1;
            continue;
        }
        // Exclude `<=`, `>=`, `=>`, `==` seen from its second byte, etc.
        if is_eq {
            let prev = i.checked_sub(1).map(|p| bytes[p]);
            if matches!(
                prev,
                Some(
                    b'<' | b'>'
                        | b'='
                        | b'!'
                        | b'+'
                        | b'-'
                        | b'*'
                        | b'/'
                        | b'%'
                        | b'&'
                        | b'|'
                        | b'^'
                )
            ) || bytes.get(i + 2) == Some(&b'=')
            {
                i += 2;
                continue;
            }
        }
        let left = operand_left(code, i);
        let right = operand_right(code, i + 2);
        if is_float_literal(&left) || is_float_literal(&right) {
            let line = masked.line_of(i);
            if !masked.allowed(Rule::FloatEq.name(), line) {
                let op = if is_eq { "==" } else { "!=" };
                findings.push(Finding {
                    file: rel.to_path_buf(),
                    line,
                    rule: Rule::FloatEq,
                    message: format!(
                        "float `{op}` comparison ({left} {op} {right}): compare with an \
                         epsilon or restructure around integers"
                    ),
                });
            }
        }
        i += 2;
    }
}

const OPERAND_CHARS: fn(u8) -> bool = |b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.';

/// True when the byte is a sign glued to an exponent (`1e-3`, `2E+5`) —
/// part of the float token, not an operator.
fn exponent_sign(bytes: &[u8], at: usize) -> bool {
    (bytes[at] == b'+' || bytes[at] == b'-')
        && at >= 1
        && matches!(bytes[at - 1], b'e' | b'E')
        && at >= 2
        && bytes[at - 2].is_ascii_digit()
}

fn operand_left(code: &str, op_at: usize) -> String {
    let bytes = code.as_bytes();
    let mut end = op_at;
    while end > 0 && bytes[end - 1].is_ascii_whitespace() {
        end -= 1;
    }
    let mut start = end;
    while start > 0 && (OPERAND_CHARS(bytes[start - 1]) || exponent_sign(bytes, start - 1)) {
        start -= 1;
    }
    code[start..end].to_string()
}

fn operand_right(code: &str, after_op: usize) -> String {
    let bytes = code.as_bytes();
    let mut start = after_op;
    while start < bytes.len() && bytes[start].is_ascii_whitespace() {
        start += 1;
    }
    if bytes.get(start) == Some(&b'-') {
        start += 1;
    }
    let mut end = start;
    while end < bytes.len() && (OPERAND_CHARS(bytes[end]) || exponent_sign(bytes, end)) {
        end += 1;
    }
    let neg = after_op < start && code[after_op..start].contains('-');
    let mut tok = code[start..end].to_string();
    if neg {
        tok.insert(0, '-');
    }
    tok
}

/// True for tokens like `1.0`, `3.`, `1_000.25`, `2.5f64`, `1e-3`, `4f32`.
fn is_float_literal(tok: &str) -> bool {
    let t = tok.strip_prefix('-').unwrap_or(tok);
    if t.is_empty() || !t.as_bytes()[0].is_ascii_digit() {
        return false;
    }
    let (body, had_suffix) = match t.strip_suffix("f64").or_else(|| t.strip_suffix("f32")) {
        Some(b) => (b.trim_end_matches('_'), true),
        None => (t, false),
    };
    let digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit() || b == b'_');
    if let Some((a, b)) = body.split_once('.') {
        return digits(a) && (b.is_empty() || digits(b));
    }
    if let Some((a, b)) = body.split_once(['e', 'E']) {
        let b = b.strip_prefix(['+', '-']).unwrap_or(b);
        return digits(a) && digits(b);
    }
    had_suffix && digits(body)
}

/// R5: every `Event` variant must be constructed somewhere outside `obs`.
///
/// `event_src` is the taxonomy file; `others` are `(rel_path, source)` for
/// every other scanned file (the `obs` crate itself is excluded by the
/// caller). Test code counts as a construction site: an event exercised
/// only by a driver's tests is still wired, just thinly.
#[must_use]
pub fn check_event_taxonomy(
    event_rel: &Path,
    event_src: &str,
    others: &[(PathBuf, String)],
) -> Vec<Finding> {
    let masked = mask(event_src);
    let mut findings = Vec::new();
    let Some(variants) = enum_variants(&masked, "Event") else {
        return findings;
    };
    let other_masked: Vec<String> = others.iter().map(|(_, src)| mask(src).code).collect();
    for (line, variant) in variants {
        let pat = format!("Event::{variant}");
        let constructed = other_masked.iter().any(|code| {
            let mut from = 0;
            while let Some(pos) = find_word(code, &pat, from) {
                // Any `Event::X {` or `Event::X(` outside `obs` counts, a
                // match arm included: the rule catches variants named nowhere.
                let after = pos + pat.len();
                let tail = code[after..].trim_start();
                if tail.starts_with('{') || tail.starts_with('(') {
                    return true;
                }
                from = after;
            }
            false
        });
        if !constructed && !masked.allowed(Rule::DeadEvent.name(), line) {
            findings.push(Finding {
                file: event_rel.to_path_buf(),
                line,
                rule: Rule::DeadEvent,
                message: format!(
                    "Event::{variant} is never constructed outside `obs`: dead taxonomy — \
                     wire it into a driver or remove it"
                ),
            });
        }
    }
    findings
}

/// The variants of `pub enum <name>`: `(line, variant_name)` pairs.
fn enum_variants(masked: &Masked, name: &str) -> Option<Vec<(usize, String)>> {
    let pat = format!("enum {name}");
    let pos = find_word(&masked.code, &pat, 0)?;
    let bytes = masked.code.as_bytes();
    let open = masked.code[pos..].find('{')? + pos;
    let mut depth = 0usize;
    let mut variants = Vec::new();
    let mut expect_name = true;
    let mut i = open;
    while i < bytes.len() {
        match bytes[i] {
            b'{' | b'(' | b'<' => {
                depth += 1;
                i += 1;
            }
            b'}' | b')' | b'>' => {
                if depth == 1 && bytes[i] == b'}' {
                    return Some(variants);
                }
                depth = depth.saturating_sub(1);
                i += 1;
            }
            b',' if depth == 1 => {
                expect_name = true;
                i += 1;
            }
            b if depth == 1 && expect_name && b.is_ascii_uppercase() => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                variants.push((masked.line_of(start), masked.code[start..i].to_string()));
                expect_name = false;
            }
            _ => i += 1,
        }
    }
    Some(variants)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(path: &str, src: &str) -> Vec<Finding> {
        lint_source(Path::new(path), src)
    }

    fn rules(findings: &[Finding]) -> Vec<Rule> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn float_eq_flagged() {
        let src = "fn f(x: f64) -> bool { x == 1.0 }\n";
        assert_eq!(
            rules(&lint("crates/cli/src/x.rs", src)),
            vec![Rule::FloatEq]
        );
        let src = "fn f(x: f64) -> bool { 0.5 != x }\n";
        assert_eq!(
            rules(&lint("crates/cli/src/x.rs", src)),
            vec![Rule::FloatEq]
        );
    }

    #[test]
    fn integer_eq_is_fine() {
        let src = "fn f(x: u64) -> bool { x == 10 && x != 3 }\n";
        assert!(lint("crates/cli/src/x.rs", src).is_empty());
    }

    #[test]
    fn float_comparisons_lt_ge_are_fine() {
        let src = "fn f(x: f64) -> bool { x <= 1.0 || x >= 2.0 }\n";
        assert!(lint("crates/cli/src/x.rs", src).is_empty());
    }

    #[test]
    fn allow_with_justification_suppresses() {
        let src =
            "fn f(x: f64) -> bool {\n    // lint:allow(float-eq) -- sentinel\n    x == 1.0\n}\n";
        assert!(lint("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn allow_without_justification_is_its_own_finding() {
        let src = "fn f(x: f64) -> bool {\n    // lint:allow(float-eq)\n    x == 1.0\n}\n";
        let f = lint("crates/core/src/x.rs", src);
        assert_eq!(rules(&f), vec![Rule::BadAllow, Rule::FloatEq]);
    }

    #[test]
    fn allow_unknown_rule_is_flagged() {
        // Names of rules the compiler and a paranoid test now enforce are
        // unknown too, so a stale allow for them is a finding.
        for rule in ["no-such-rule", "map-iter", "paranoid-wiring"] {
            let src = format!("// lint:allow({rule}) -- whatever\nfn f() {{}}\n");
            let f = lint("crates/core/src/x.rs", &src);
            assert_eq!(rules(&f), vec![Rule::BadAllow], "{rule}");
        }
    }

    #[test]
    fn event_taxonomy_detects_dead_variant() {
        let event_src = "pub enum Event {\n    Used { a: u64 },\n    Dead { b: u64 },\n}\n";
        let user = (
            PathBuf::from("crates/sim/src/runner.rs"),
            "fn f() { let _ = Event::Used { a: 1 }; }\n".to_string(),
        );
        let f = check_event_taxonomy(Path::new("crates/obs/src/event.rs"), event_src, &[user]);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("Event::Dead"));
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn match_arm_counts_as_wiring() {
        let event_src = "pub enum Event {\n    OnlyMatched { a: u64 },\n}\n";
        let user = (
            PathBuf::from("crates/sim/src/runner.rs"),
            "fn f(e: &Event) { match e { Event::OnlyMatched { .. } => {} } }\n".to_string(),
        );
        let f = check_event_taxonomy(Path::new("crates/obs/src/event.rs"), event_src, &[user]);
        assert!(f.is_empty());
    }

    #[test]
    fn crate_classification() {
        assert_eq!(
            crate_of(Path::new("crates/core/src/cache.rs")),
            Some("core")
        );
        assert_eq!(crate_of(Path::new("src/lib.rs")), None);
    }
}
