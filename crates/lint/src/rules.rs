//! The project-specific conformance rules.
//!
//! Every rule scans the masked view of a source file (see
//! [`crate::mask()`]): string/char literal contents and comments are
//! blanked, and — for all rules — `#[cfg(test)]` / `#[test]` items are
//! excluded via the `app_code` view. Findings can be suppressed with a
//! justified allow comment — a rule name and a reason, as in
//! `// lint:allow(panic) -- reached only on bookkeeping corruption` —
//! trailing the offending line or in the comment directly above it
//! (the comment may wrap across lines).
//!
//! | rule              | scope                         | what it catches |
//! |-------------------|-------------------------------|-----------------|
//! | `wall-clock`      | everywhere but `net/src/clock.rs` | `Instant::now` / `SystemTime::now` leaking into logic |
//! | `panic`           | the eight library crates      | `.unwrap()`, `.expect(`, `panic!(`, `unreachable!(` |
//! | `map-iter`        | `core`, `sim`, `proxy`        | iterating a `HashMap`/`HashSet` (nondeterministic order), or an arena `iter_unordered()` walk that escapes unsorted |
//! | `float-eq`        | everywhere                    | `==` / `!=` against a float literal |
//! | `dead-event`      | workspace-wide                | `Event` variants never constructed outside `obs` |
//! | `paranoid-wiring` | `core/src/cache.rs`           | mutating cache methods missing the invariant audit |
//! | `lock-blocking`   | everywhere                    | blocking calls (join, I/O, sleep, channel recv) under a live `MutexGuard` |
//! | `lock-order`      | workspace-wide                | cycles in the lock-acquisition graph, or re-acquiring a held lock |
//! | `atomic-order`    | everywhere                    | unjustified non-`Relaxed` orderings; `Relaxed` on cross-thread `AtomicBool` flags |
//! | `guard-await`     | everywhere                    | a guard live across `.await` or captured by a `move` closure |
//! | `unsafe`          | everywhere                    | unjustified `unsafe`; crate roots missing `#![forbid(unsafe_code)]` |
//!
//! The concurrency rules (R7–R11) live in [`crate::concurrency`].

use crate::mask::{find_word, mask, Masked};
use std::fmt;
use std::path::{Path, PathBuf};

/// Crates whose non-test code must be panic-free (rule `panic`).
pub const PANIC_FREE_CRATES: [&str; 9] = [
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

/// Crates where hash-order iteration can reach outputs, events, or
/// eviction decisions (rule `map-iter`).
pub const MAP_ITER_CRATES: [&str; 3] = ["core", "sim", "proxy"];

/// The one file allowed to read the wall clock.
pub const CLOCK_FILE: &str = "crates/net/src/clock.rs";

/// A conformance rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// R1: wall-clock reads outside the clock abstraction.
    WallClock,
    /// R2: panicking constructs in library crates.
    Panic,
    /// R3: hash-order iteration in determinism-critical crates.
    MapIter,
    /// R4: float equality comparison.
    FloatEq,
    /// R5: `Event` variant never constructed outside `obs`.
    DeadEvent,
    /// R6: cache mutation path missing its invariant audit call.
    ParanoidWiring,
    /// R7: a blocking call while a `MutexGuard` is live.
    LockBlocking,
    /// R8: a cycle in the workspace lock-acquisition graph.
    LockOrder,
    /// R9: an unjustified atomic ordering (or a too-weak one on a flag).
    AtomicOrder,
    /// R10: a guard live across `.await` or escaping into a closure.
    GuardAwait,
    /// R11: unjustified `unsafe`, or a crate root not forbidding it.
    UnsafeCode,
    /// A malformed `lint:allow` directive.
    BadAllow,
}

impl Rule {
    /// The name used in diagnostics and in allow directives.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Self::WallClock => "wall-clock",
            Self::Panic => "panic",
            Self::MapIter => "map-iter",
            Self::FloatEq => "float-eq",
            Self::DeadEvent => "dead-event",
            Self::ParanoidWiring => "paranoid-wiring",
            Self::LockBlocking => "lock-blocking",
            Self::LockOrder => "lock-order",
            Self::AtomicOrder => "atomic-order",
            Self::GuardAwait => "guard-await",
            Self::UnsafeCode => "unsafe",
            Self::BadAllow => "bad-allow",
        }
    }

    /// All rule names accepted by `lint:allow`.
    pub const ALLOWABLE: [Rule; 11] = [
        Self::WallClock,
        Self::Panic,
        Self::MapIter,
        Self::FloatEq,
        Self::DeadEvent,
        Self::ParanoidWiring,
        Self::LockBlocking,
        Self::LockOrder,
        Self::AtomicOrder,
        Self::GuardAwait,
        Self::UnsafeCode,
    ];

    /// The concurrency-soundness subset (R7–R11), selected by the CLI's
    /// `--concurrency` flag.
    pub const CONCURRENCY: [Rule; 5] = [
        Self::LockBlocking,
        Self::LockOrder,
        Self::AtomicOrder,
        Self::GuardAwait,
        Self::UnsafeCode,
    ];

    /// True for rules in the [`Rule::CONCURRENCY`] subset.
    #[must_use]
    pub fn is_concurrency(self) -> bool {
        Self::CONCURRENCY.contains(&self)
    }
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

fn unslash(rel: &Path) -> String {
    rel.to_string_lossy().replace('\\', "/")
}

/// Runs every per-file rule (R1–R4, R7, R9–R11, plus allow validation)
/// on one source.
#[must_use]
pub fn lint_source(rel: &Path, src: &str) -> Vec<Finding> {
    let masked = mask(src);
    let mut findings = Vec::new();
    let path = unslash(rel);
    let krate = crate_of(rel);

    check_allows(rel, &masked, &mut findings);
    if !path.ends_with(CLOCK_FILE) && !path.contains("/benches/") {
        check_wall_clock(rel, &masked, &mut findings);
    }
    if krate.is_some_and(|c| PANIC_FREE_CRATES.contains(&c)) {
        check_panics(rel, &masked, &mut findings);
    }
    if krate.is_some_and(|c| MAP_ITER_CRATES.contains(&c)) {
        check_map_iter(rel, &masked, &mut findings);
    }
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

/// R1: `Instant::now` / `SystemTime::now` outside the clock abstraction.
fn check_wall_clock(rel: &Path, masked: &Masked, findings: &mut Vec<Finding>) {
    for pat in ["Instant::now", "SystemTime::now"] {
        let mut from = 0;
        while let Some(pos) = find_word(&masked.app_code, pat, from) {
            from = pos + pat.len();
            let line = masked.line_of(pos);
            if masked.allowed(Rule::WallClock.name(), line) {
                continue;
            }
            findings.push(Finding {
                file: rel.to_path_buf(),
                line,
                rule: Rule::WallClock,
                message: format!(
                    "`{pat}` outside {CLOCK_FILE}: route through the SharedClock abstraction \
                     so simulated paths stay deterministic"
                ),
            });
        }
    }
}

/// R2: panicking constructs in non-test library-crate code.
fn check_panics(rel: &Path, masked: &Masked, findings: &mut Vec<Finding>) {
    for pat in [".unwrap()", ".expect(", "panic!(", "unreachable!("] {
        let mut from = 0;
        while let Some(rel_pos) = masked.app_code.get(from..).and_then(|s| s.find(pat)) {
            let pos = from + rel_pos;
            from = pos + pat.len();
            // Word-bound the leading identifier of macro patterns so e.g.
            // a hypothetical `no_panic!(` is not flagged.
            if !pat.starts_with('.') {
                let bytes = masked.app_code.as_bytes();
                if pos > 0 && (bytes[pos - 1].is_ascii_alphanumeric() || bytes[pos - 1] == b'_') {
                    continue;
                }
            }
            let line = masked.line_of(pos);
            if masked.allowed(Rule::Panic.name(), line) {
                continue;
            }
            let shown = pat.trim_end_matches('(');
            findings.push(Finding {
                file: rel.to_path_buf(),
                line,
                rule: Rule::Panic,
                message: format!(
                    "`{shown}` in non-test library code: return a typed error, restructure, \
                     or justify with `lint:allow(panic) -- <why>`"
                ),
            });
        }
    }
}

/// Iteration methods whose visit order is the hasher's, not the data's.
const ITER_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// R3: iterating a `HashMap`/`HashSet` where order can leak out.
fn check_map_iter(rel: &Path, masked: &Masked, findings: &mut Vec<Finding>) {
    check_unordered_iter(rel, masked, findings);
    let code = &masked.app_code;
    let names = collect_hash_names(code);
    for name in &names {
        let mut from = 0;
        while let Some(pos) = find_word(code, name, from) {
            let end = pos + name.len();
            from = end;
            let flagged = iterates_right(code, end) || iterated_by_for(code, pos);
            if !flagged {
                continue;
            }
            let line = masked.line_of(pos);
            if masked.allowed(Rule::MapIter.name(), line) {
                continue;
            }
            findings.push(Finding {
                file: rel.to_path_buf(),
                line,
                rule: Rule::MapIter,
                message: format!(
                    "iteration over hash collection `{name}`: order is nondeterministic — \
                     use a BTreeMap/BTreeSet or sort before emitting"
                ),
            });
        }
    }
}

/// R3, open-addressing clause: `iter_unordered()` — the arena/table
/// iterator the sharded store exposes — visits slots in allocation
/// order, which is operation history, not a semantic order. The blessed
/// shard-walk pattern collects into a local and sorts it before the
/// result escapes:
///
/// ```text
/// let mut out: Vec<_> = self.entries.iter_unordered().map(..).collect();
/// out.sort_unstable_by_key(|e| e.doc);
/// ```
///
/// That pattern is recognised statically; any other use of
/// `iter_unordered` in a determinism-critical crate is flagged, so shard
/// walks cannot silently leak allocation order the way a blanket
/// `lint:allow` would let them.
fn check_unordered_iter(rel: &Path, masked: &Masked, findings: &mut Vec<Finding>) {
    let code = &masked.app_code;
    let mut from = 0;
    while let Some(pos) = find_word(code, "iter_unordered", from) {
        from = pos + "iter_unordered".len();
        // The declaration site (`fn iter_unordered`) defines the
        // iterator; only call sites can leak its order.
        if code[..pos].trim_end().ends_with("fn") {
            continue;
        }
        let line = masked.line_of(pos);
        if masked.allowed(Rule::MapIter.name(), line) {
            continue;
        }
        if collected_then_sorted(code, pos) {
            continue;
        }
        findings.push(Finding {
            file: rel.to_path_buf(),
            line,
            rule: Rule::MapIter,
            message: "`iter_unordered()` walks the arena in allocation order: \
                      collect into a local and sort it before the walk escapes \
                      (the ordered shard loop), or justify with \
                      `lint:allow(map-iter) -- <why>`"
                .to_owned(),
        });
    }
}

/// True when the `iter_unordered` call at `pos` is the ordered shard
/// loop: its statement binds `let [mut] <name> = …` and `<name>.sort*` is
/// called later in the same item (searched up to the next `fn`).
fn collected_then_sorted(code: &str, pos: usize) -> bool {
    let bytes = code.as_bytes();
    // Statement start: just past the previous statement/block boundary.
    let stmt_start = code[..pos].rfind([';', '{', '}']).map_or(0, |p| p + 1);
    let Some(let_at) = code[stmt_start..pos].rfind("let ") else {
        return false;
    };
    let mut name_at = stmt_start + let_at + 4;
    while code[name_at..].starts_with(char::is_whitespace) {
        name_at += 1;
    }
    if code[name_at..].starts_with("mut ") {
        name_at += 4;
        while code[name_at..].starts_with(char::is_whitespace) {
            name_at += 1;
        }
    }
    let mut name_end = name_at;
    while name_end < bytes.len()
        && (bytes[name_end].is_ascii_alphanumeric() || bytes[name_end] == b'_')
    {
        name_end += 1;
    }
    let name = &code[name_at..name_end];
    if name.is_empty() {
        return false;
    }
    // Scan from the end of the binding statement to the next `fn` item
    // for a sort call on the binding.
    let tail_start = code[pos..].find(';').map_or(code.len(), |p| pos + p + 1);
    let tail_end = find_word(code, "fn", tail_start).unwrap_or(code.len());
    let tail = &code[tail_start..tail_end];
    let mut f = 0;
    while let Some(np) = find_word(tail, name, f) {
        f = np + name.len();
        if tail[f..].starts_with(".sort") {
            return true;
        }
    }
    false
}

/// Identifiers declared as `HashMap`/`HashSet` in this file, via either a
/// type ascription (`name: HashMap<...>`) or an initializer
/// (`name = HashMap::new()` / `with_capacity`).
fn collect_hash_names(code: &str) -> Vec<String> {
    let bytes = code.as_bytes();
    let mut names: Vec<String> = Vec::new();
    for ty in ["HashMap", "HashSet"] {
        let mut from = 0;
        while let Some(pos) = find_word(code, ty, from) {
            from = pos + ty.len();
            let mut q = pos;
            while q > 0 && bytes[q - 1].is_ascii_whitespace() {
                q -= 1;
            }
            if q == 0 {
                continue;
            }
            let name = match bytes[q - 1] {
                // `name: HashMap<...>` — but not the `::` of a path.
                b':' if q < 2 || bytes[q - 2] != b':' => ident_before(bytes, q - 1),
                // `name = HashMap::new()` / `name = HashMap::with_capacity(..)`.
                b'=' if q >= 2 && bytes[q - 2] != b'=' && bytes[q - 2] != b'!' => {
                    ident_before(bytes, q - 1)
                }
                _ => None,
            };
            if let Some(name) = name {
                if !names.contains(&name) {
                    names.push(name);
                }
            }
        }
    }
    names
}

/// The identifier ending just before byte `end` (skipping whitespace).
fn ident_before(bytes: &[u8], mut end: usize) -> Option<String> {
    while end > 0 && bytes[end - 1].is_ascii_whitespace() {
        end -= 1;
    }
    let mut start = end;
    while start > 0 && (bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_') {
        start -= 1;
    }
    if start == end || bytes[start].is_ascii_digit() {
        return None;
    }
    std::str::from_utf8(&bytes[start..end])
        .ok()
        .map(str::to_owned)
}

/// True when the text after a collection name calls an order-leaking
/// iteration method: `.iter()`, `.values()`, …
fn iterates_right(code: &str, end: usize) -> bool {
    let bytes = code.as_bytes();
    if bytes.get(end) != Some(&b'.') {
        return false;
    }
    let mut m = end + 1;
    let start = m;
    while m < bytes.len() && (bytes[m].is_ascii_alphanumeric() || bytes[m] == b'_') {
        m += 1;
    }
    let method = &code[start..m];
    bytes.get(m) == Some(&b'(') && ITER_METHODS.contains(&method)
}

/// True when the collection name at `pos` is the subject of a
/// `for x in [&[mut]] [self.]name` loop.
fn iterated_by_for(code: &str, pos: usize) -> bool {
    let bytes = code.as_bytes();
    let mut q = pos;
    // Skip a `self.` qualifier.
    if code[..q].ends_with("self.") {
        q -= 5;
    }
    while q > 0 && bytes[q - 1].is_ascii_whitespace() {
        q -= 1;
    }
    if code[..q].ends_with("mut") {
        q -= 3;
        while q > 0 && bytes[q - 1].is_ascii_whitespace() {
            q -= 1;
        }
    }
    if q > 0 && bytes[q - 1] == b'&' {
        q -= 1;
        while q > 0 && bytes[q - 1].is_ascii_whitespace() {
            q -= 1;
        }
    }
    code[..q].ends_with(" in") || code[..q].ends_with("\nin")
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
                // A construction or a match arm both prove wiring; only
                // construction sites matter, so skip `Event::X { .. } =>`
                // match arms by requiring no `=>` on the same expression?
                // Keeping it simple: any appearance outside `obs` counts —
                // a variant that is only ever matched, never built, still
                // fails because builders live outside `obs` too.
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

/// R6: the cache's mutating methods must call the paranoid audit hook,
/// and `check_invariants` must exist — the static half of the dynamic
/// invariant layer.
#[must_use]
pub fn check_paranoid_wiring(rel: &Path, cache_src: &str) -> Vec<Finding> {
    let masked = mask(cache_src);
    let mut findings = Vec::new();
    if find_word(&masked.code, "fn check_invariants", 0).is_none() {
        findings.push(Finding {
            file: rel.to_path_buf(),
            line: 1,
            rule: Rule::ParanoidWiring,
            message: "Cache::check_invariants is not defined: the paranoid runtime \
                      audit layer is missing"
                .to_string(),
        });
        return findings;
    }
    for method in ["lookup", "serve_remote", "insert", "remove"] {
        let Some((line, body)) = fn_body(&masked, method) else {
            findings.push(Finding {
                file: rel.to_path_buf(),
                line: 1,
                rule: Rule::ParanoidWiring,
                message: format!("expected mutating method `fn {method}` not found"),
            });
            continue;
        };
        if !(body.contains("audit(") || body.contains("check_invariants(")) {
            if masked.allowed(Rule::ParanoidWiring.name(), line) {
                continue;
            }
            findings.push(Finding {
                file: rel.to_path_buf(),
                line,
                rule: Rule::ParanoidWiring,
                message: format!(
                    "mutating method `{method}` does not call the invariant audit \
                     (`self.audit()`): paranoid builds would not check this path"
                ),
            });
        }
    }
    findings
}

/// The body text of `fn <name>` in non-test code, with its starting line.
fn fn_body<'a>(masked: &'a Masked, name: &str) -> Option<(usize, &'a str)> {
    // find_word word-bounds the name, so `fn lookup` never matches
    // `fn lookup_inner`.
    let pat = format!("fn {name}");
    let pos = find_word(&masked.app_code, &pat, 0)?;
    let bytes = masked.app_code.as_bytes();
    let open = masked.app_code[pos..].find('{')? + pos;
    let mut depth = 0usize;
    for (k, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some((masked.line_of(pos), &masked.app_code[open..=k]));
                }
            }
            _ => {}
        }
    }
    None
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
    fn wall_clock_flagged_outside_clock_file() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        assert_eq!(
            rules(&lint("crates/net/src/daemon.rs", src)),
            vec![Rule::WallClock]
        );
        assert!(lint("crates/net/src/clock.rs", src).is_empty());
    }

    #[test]
    fn panic_rule_scopes_to_library_crates() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert_eq!(rules(&lint("crates/core/src/x.rs", src)), vec![Rule::Panic]);
        assert_eq!(rules(&lint("crates/net/src/x.rs", src)), vec![Rule::Panic]);
        assert!(lint("crates/cli/src/x.rs", src).is_empty());
    }

    #[test]
    fn unwrap_or_else_is_not_unwrap() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap_or_else(|| 0) }\n";
        assert!(lint("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn map_iter_detects_field_iteration() {
        let src = "struct C { entries: HashMap<u64, u64> }\n\
                   impl C { fn f(&self) { for v in self.entries.values() { let _ = v; } } }\n";
        assert_eq!(
            rules(&lint("crates/core/src/x.rs", src)),
            vec![Rule::MapIter]
        );
    }

    #[test]
    fn unordered_iter_escaping_unsorted_is_flagged() {
        let src = "impl Shard { fn all(&self) -> Vec<u64> {\n\
                   let out: Vec<u64> = self.entries.iter_unordered().collect();\n\
                   out } }\n";
        assert_eq!(
            rules(&lint("crates/core/src/x.rs", src)),
            vec![Rule::MapIter]
        );
    }

    #[test]
    fn unordered_iter_sorted_shard_loop_is_clean() {
        let src = "impl Shard { fn all(&self) -> Vec<u64> {\n\
                   let mut out: Vec<u64> = self.entries.iter_unordered().collect();\n\
                   out.sort_unstable();\n\
                   out } }\n";
        assert!(lint("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn unordered_iter_definition_site_is_not_flagged() {
        let src = "impl Slab { fn iter_unordered(&self) -> std::slice::Iter<'_, u64> {\n\
                   self.slots.iter() } }\n";
        assert!(lint("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn unordered_iter_sort_on_other_binding_still_flagged() {
        let src = "impl Shard { fn all(&self) -> Vec<u64> {\n\
                   let out: Vec<u64> = self.entries.iter_unordered().collect();\n\
                   let mut other: Vec<u64> = Vec::new();\n\
                   other.sort_unstable();\n\
                   out } }\n";
        assert_eq!(
            rules(&lint("crates/core/src/x.rs", src)),
            vec![Rule::MapIter]
        );
    }

    #[test]
    fn unordered_iter_only_in_deterministic_crates() {
        let src = "fn f(s: &Slab) -> Vec<u64> { s.iter_unordered().collect() }\n";
        assert_eq!(
            rules(&lint("crates/core/src/x.rs", src)),
            vec![Rule::MapIter]
        );
        assert!(lint("crates/metrics/src/x.rs", src).is_empty());
    }

    #[test]
    fn map_iter_allows_btreemap() {
        let src = "struct C { entries: BTreeMap<u64, u64> }\n\
                   impl C { fn f(&self) { for v in self.entries.values() { let _ = v; } } }\n";
        assert!(lint("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn map_get_is_fine() {
        let src = "fn f(m: HashMap<u64, u64>) -> Option<u64> { m.get(&1).copied() }\n";
        assert!(lint("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn for_loop_over_map_is_flagged() {
        let src = "fn f(m: HashMap<u64, u64>) { for (k, v) in &m { let _ = (k, v); } }\n";
        assert_eq!(
            rules(&lint("crates/sim/src/x.rs", src)),
            vec![Rule::MapIter]
        );
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
        let src = "fn f(x: Option<u8>) -> u8 {\n    // lint:allow(panic) -- contract\n    x.unwrap()\n}\n";
        assert!(lint("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn allow_without_justification_is_its_own_finding() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    // lint:allow(panic)\n    x.unwrap()\n}\n";
        let f = lint("crates/core/src/x.rs", src);
        assert_eq!(rules(&f), vec![Rule::BadAllow, Rule::Panic]);
    }

    #[test]
    fn allow_unknown_rule_is_flagged() {
        let src = "// lint:allow(no-such-rule) -- whatever\nfn f() {}\n";
        let f = lint("crates/core/src/x.rs", src);
        assert_eq!(rules(&f), vec![Rule::BadAllow]);
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
    fn match_arm_does_not_count_as_construction() {
        let event_src = "pub enum Event {\n    OnlyMatched { a: u64 },\n}\n";
        let user = (
            PathBuf::from("crates/sim/src/runner.rs"),
            "fn f(e: &Event) { match e { Event::OnlyMatched { .. } => {} } }\n".to_string(),
        );
        // `Event::OnlyMatched { .. }` in a match arm still starts with `{`,
        // so pattern-position appearances do count as wiring here; the
        // distinction we enforce is *absence anywhere*.
        let f = check_event_taxonomy(Path::new("crates/obs/src/event.rs"), event_src, &[user]);
        assert!(f.is_empty());
    }

    #[test]
    fn paranoid_wiring_requires_audit_calls() {
        let good = "impl Cache {\n\
            fn check_invariants(&self) {}\n\
            fn audit(&self) {}\n\
            pub fn lookup(&mut self) { self.audit(); }\n\
            pub fn serve_remote(&mut self) { self.audit(); }\n\
            pub fn insert(&mut self) { self.audit(); }\n\
            pub fn remove(&mut self) { self.audit(); }\n\
        }\n";
        assert!(check_paranoid_wiring(Path::new("crates/core/src/cache.rs"), good).is_empty());
        let bad = good.replace(
            "pub fn insert(&mut self) { self.audit(); }",
            "pub fn insert(&mut self) {}",
        );
        let f = check_paranoid_wiring(Path::new("crates/core/src/cache.rs"), &bad);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("insert"));
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
