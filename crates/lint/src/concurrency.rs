//! Concurrency soundness rules (R7–R10).
//!
//! These rules reason about *guard liveness*: where a `MutexGuard`
//! obtained through this workspace's locking idioms (`lock(&mutex)` /
//! `lock_tap(&tap)` helpers, the `ConcurrentCache` shard helpers
//! `lock_shard(i)` / `lock_for(doc)`, or a direct `receiver.lock()`
//! call) is still alive. The analysis is textual, like every other rule here,
//! but models the Rust drop rules that matter in practice:
//!
//! * a `let g = lock(..);` binding (optionally through poison-recovery
//!   adapters such as `.unwrap_or_else(..)`, or a `let g = match
//!   x.lock() {..}` recovery match) lives to the end of its enclosing
//!   block, or to an explicit `drop(g)`;
//! * a temporary in a plain statement lives to the statement's `;`;
//! * a temporary in an `if let` / `while let` / `match` scrutinee or a
//!   `for` iterator lives to the end of the whole construct
//!   (temporary-lifetime extension — the subtle case);
//! * a temporary in a plain `if` / `while` condition is dropped before
//!   the body runs.
//!
//! `stdout()`/`stderr()`/`stdin()` re-entrant handles also have a
//! `.lock()` method; receivers with those names are not mutexes and are
//! ignored.
//!
//! | rule            | what it catches |
//! |-----------------|-----------------|
//! | `lock-blocking` | a blocking call (`join`, socket/file I/O, `sleep`, channel `send`/`recv`, wire-frame I/O) inside a live guard span — the join-under-lock deadlock class |
//! | `lock-order`    | inconsistent acquisition order between two locks (a cycle in the workspace-wide acquisition graph), or re-acquiring a lock under its own guard |
//! | `atomic-order`  | any `Ordering` stronger than `Relaxed` without a justified `atomic-order` allow, and `Relaxed` used on an `AtomicBool` cross-thread flag |
//! | `guard-escape`  | a `move` closure capturing a let-bound guard inside its live span |
//!
//! A guard held across `.await` is clippy's `await_holding_lock`, which is
//! on by default; `unsafe` is `forbid(unsafe_code)` (DESIGN.md §8).

use crate::mask::{
    collect_decl_names, contains_word, find_word, ident_back, ident_before, mask, match_close,
    Masked,
};
use crate::rules::{Finding, Rule};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Call-style helpers in this workspace that return a `MutexGuard`.
const LOCK_HELPERS: [&str; 4] = ["lock", "lock_tap", "lock_shard", "lock_for"];

/// Helpers that lock one mutex of a family picked by their argument —
/// a `ConcurrentCache` shard. Which shard is not visible in the text, so
/// every such acquisition is one lock class, [`SHARD_LOCK`]: nesting two
/// is a re-acquisition, the discipline the shard scheme forbids.
const SHARD_HELPERS: [&str; 2] = ["lock_shard", "lock_for"];

/// The lock name of every [`SHARD_HELPERS`] acquisition.
const SHARD_LOCK: &str = "shard";

/// `.lock()` receivers that are re-entrant I/O handles, not mutexes.
const IO_LOCK_RECEIVERS: [&str; 3] = ["stdout", "stderr", "stdin"];

/// Guard-preserving adapters: `lock()` result combinators that still
/// yield the guard (poison recovery and friends).
const GUARD_ADAPTERS: [&str; 4] = ["unwrap", "expect", "unwrap_or_else", "unwrap_or_default"];

/// Methods that can block the calling thread (I/O, joins, channels —
/// a bounded `SyncSender::send` waits while its queue is full).
const BLOCKING_METHODS: [&str; 15] = [
    "join",
    "send",
    "send_to",
    "recv",
    "recv_timeout",
    "recv_from",
    "accept",
    "peek",
    "fill_buf",
    "read_exact",
    "read_to_end",
    "write_all",
    "flush",
    "wait",
    "wait_timeout",
];

/// Free or path-called functions that block: std sleeps/connects plus
/// this workspace's socket and console I/O helpers (the document port's
/// frame reader and writer, the origin exchange and body transfer, the
/// stats/series scrapes).
const BLOCKING_CALLS: [&str; 11] = [
    "sleep",
    "connect",
    "connect_timeout",
    "read_frame",
    "write_frame",
    "fetch_on_origin_conn",
    "drain_body",
    "write_body",
    "scrape_stats",
    "scrape_series",
    "write_out",
];

/// How the statement around an acquisition scopes its temporary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StmtKind {
    /// `let g = lock(..);` (or via a recovery `match`) — guard bound to
    /// the end of the enclosing block.
    Bound,
    /// Part of a larger statement — temporary to the statement's `;`.
    Statement,
    /// `if let` / `while let` / `match` scrutinee or `for` iterator —
    /// temporary extended to the end of the construct.
    Construct,
    /// Plain `if` / `while` condition — dropped before the body.
    Condition,
}

/// One acquisition and the byte span its guard is live for.
#[derive(Debug, Clone)]
struct GuardSpan {
    /// Normalized lock name (last path segment of the mutex expression).
    lock: String,
    /// Byte offset of the acquisition.
    pos: usize,
    /// 1-based acquisition line.
    line: usize,
    /// Byte offset at which the guard is dead.
    end: usize,
    /// The binding identifier, when let-bound.
    bound: Option<String>,
}

/// Runs the per-file concurrency rules (R7 lock-blocking, R9
/// atomic-order, R10 guard-escape) on one masked source.
pub fn check_concurrency(rel: &Path, masked: &Masked, findings: &mut Vec<Finding>) {
    let guards = guard_spans(masked);
    check_blocking(rel, masked, &guards, findings);
    check_guard_escape(rel, masked, &guards, findings);
    check_atomic_order(rel, masked, findings);
}

/// R8: the workspace-wide lock-acquisition graph. Every acquisition
/// inside another guard's live span adds an `outer -> inner` edge; a
/// cycle means two paths acquire the same locks in opposite orders, and
/// a self-edge means re-acquiring a non-reentrant `std::sync::Mutex`
/// under its own guard (certain deadlock).
///
/// Lock identity is by normalized name (`lock(&self.health)` and
/// `lock(&ctx.health)` are the same lock); distinct mutexes must use
/// distinct field names. That convention is the rule's known blind
/// spot: two unrelated mutexes that happen to share a field name are
/// treated as one lock and can produce a false self-edge or cycle — so
/// when a flagged name has more than one `Mutex` declaration site in
/// the workspace, the finding says so and names the fix (rename one
/// mutex, or carry a justified lock-order allow).
#[must_use]
pub fn check_lock_order(sources: &[(PathBuf, String)]) -> Vec<Finding> {
    let masked: Vec<(&PathBuf, Masked)> =
        sources.iter().map(|(rel, src)| (rel, mask(src))).collect();
    // Every `Mutex` declaration site per lock name, to tell a real
    // re-acquisition/cycle from a naming collision between distinct locks.
    let mut decl_sites: BTreeMap<String, Vec<PathBuf>> = BTreeMap::new();
    for (rel, m) in &masked {
        for name in collect_decl_names(&m.app_code, &["Mutex"], false) {
            decl_sites.entry(name).or_default().push((*rel).clone());
        }
    }
    let mut findings = Vec::new();
    // first acquisition site per ordered pair, for reporting
    let mut edges: BTreeMap<(String, String), (PathBuf, usize)> = BTreeMap::new();
    for (rel, m) in &masked {
        let guards = guard_spans(m);
        for outer in &guards {
            for inner in &guards {
                if inner.pos <= outer.pos || inner.pos >= outer.end {
                    continue;
                }
                let line = inner.line;
                if m.allowed(Rule::LockOrder.name(), line) {
                    continue;
                }
                if inner.lock == outer.lock {
                    findings.push(Finding {
                        file: (*rel).clone(),
                        line,
                        rule: Rule::LockOrder,
                        message: format!(
                            "`{}` re-acquired while its own guard (line {}) is live: \
                             std::sync::Mutex is not reentrant — this deadlocks{}",
                            inner.lock,
                            outer.line,
                            collision_note(&inner.lock, &decl_sites)
                        ),
                    });
                    continue;
                }
                edges
                    .entry((outer.lock.clone(), inner.lock.clone()))
                    .or_insert_with(|| ((*rel).clone(), line));
            }
        }
    }
    findings.extend(report_cycles(&edges, &decl_sites));
    findings
}

/// A trailer for lock-order findings whose lock name has several
/// `Mutex` declaration sites: lock identity is by name, so the finding
/// may be a naming collision rather than a real ordering bug, and the
/// message must make the fix obvious.
fn collision_note(lock: &str, decl_sites: &BTreeMap<String, Vec<PathBuf>>) -> String {
    match decl_sites.get(lock) {
        Some(sites) if sites.len() > 1 => {
            let files: BTreeSet<String> = sites.iter().map(|p| p.display().to_string()).collect();
            format!(
                " [note: lock identity is by field name and `{lock}` has {} Mutex \
                 declarations ({}) — if those are distinct locks this finding is a naming \
                 collision: rename one, or justify with `lint:allow(lock-order) -- <why>`]",
                sites.len(),
                files.into_iter().collect::<Vec<_>>().join(", ")
            )
        }
        _ => String::new(),
    }
}

/// DFS over the acquisition graph; each distinct cycle becomes one
/// finding anchored at its first edge's site.
fn report_cycles(
    edges: &BTreeMap<(String, String), (PathBuf, usize)>,
    decl_sites: &BTreeMap<String, Vec<PathBuf>>,
) -> Vec<Finding> {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (from, to) in edges.keys() {
        adj.entry(from).or_default().push(to);
    }
    let mut seen_cycles: BTreeSet<Vec<String>> = BTreeSet::new();
    let mut findings = Vec::new();
    for &start in adj.keys().collect::<Vec<_>>().iter() {
        let mut path: Vec<&str> = vec![start];
        dfs_cycles(
            start,
            &adj,
            &mut path,
            &mut seen_cycles,
            edges,
            decl_sites,
            &mut findings,
        );
    }
    findings
}

fn dfs_cycles<'a>(
    node: &str,
    adj: &BTreeMap<&'a str, Vec<&'a str>>,
    path: &mut Vec<&'a str>,
    seen: &mut BTreeSet<Vec<String>>,
    edges: &BTreeMap<(String, String), (PathBuf, usize)>,
    decl_sites: &BTreeMap<String, Vec<PathBuf>>,
    findings: &mut Vec<Finding>,
) {
    let Some(nexts) = adj.get(node) else { return };
    for &next in nexts {
        if let Some(at) = path.iter().position(|&n| n == next) {
            let cycle: Vec<&str> = path[at..].to_vec();
            // Canonical rotation: smallest name first, so each cycle is
            // reported once however it is discovered.
            let min_at = cycle
                .iter()
                .enumerate()
                .min_by_key(|(_, n)| **n)
                .map_or(0, |(i, _)| i);
            let canon: Vec<String> = (0..cycle.len())
                .map(|i| cycle[(min_at + i) % cycle.len()].to_string())
                .collect();
            if !seen.insert(canon.clone()) {
                continue;
            }
            let mut desc = String::new();
            for i in 0..canon.len() {
                let from = &canon[i];
                let to = &canon[(i + 1) % canon.len()];
                let site = edges
                    .get(&(from.clone(), to.clone()))
                    .map_or_else(String::new, |(f, l)| format!(" ({}:{l})", f.display()));
                if i == 0 {
                    desc.push_str(from);
                }
                desc.push_str(&format!(" -> {to}{site}"));
            }
            let (file, line) = edges
                .get(&(canon[0].clone(), canon[1 % canon.len()].clone()))
                .cloned()
                .unwrap_or_else(|| (PathBuf::from("<graph>"), 1));
            let notes: String = canon
                .iter()
                .map(|name| collision_note(name, decl_sites))
                .collect();
            findings.push(Finding {
                file,
                line,
                rule: Rule::LockOrder,
                message: format!(
                    "lock-order cycle: {desc} — different paths acquire these locks in \
                     opposite orders; pick one order or merge the critical sections{notes}"
                ),
            });
            continue;
        }
        path.push(next);
        dfs_cycles(next, adj, path, seen, edges, decl_sites, findings);
        path.pop();
    }
}

/// Every lock acquisition in the non-test code, with its guard span.
fn guard_spans(masked: &Masked) -> Vec<GuardSpan> {
    let code = &masked.app_code;
    let bytes = code.as_bytes();
    let mut spans = Vec::new();
    for helper in LOCK_HELPERS {
        let mut from = 0;
        while let Some(pos) = find_word(code, helper, from) {
            from = pos + helper.len();
            let after = skip_ws(bytes, pos + helper.len());
            if bytes.get(after) != Some(&b'(') {
                continue; // `fn lock<T>` declaration, not a call
            }
            if ident_before(bytes, pos).as_deref() == Some("fn") {
                continue; // `fn lock_tap(..)` declaration
            }
            let open = after;
            let Some(close) = match_close(bytes, open) else {
                continue;
            };
            let method = pos > 0 && bytes[pos - 1] == b'.';
            let lock = if SHARD_HELPERS.contains(&helper) {
                SHARD_LOCK.to_string()
            } else if method {
                // The receiver may sit on the previous line of a chain.
                let Some(recv) = ident_before(bytes, pos - 1) else {
                    continue;
                };
                if IO_LOCK_RECEIVERS.contains(&recv.as_str()) {
                    continue;
                }
                recv
            } else {
                normalize_lock_expr(&code[open + 1..close])
            };
            let (kind, bound) = classify_statement(code, pos, close);
            let end = match kind {
                StmtKind::Bound => {
                    let block_end = enclosing_block_end(bytes, close + 1);
                    bound
                        .as_deref()
                        .and_then(|name| drop_site(code, name, close + 1, block_end))
                        .unwrap_or(block_end)
                }
                StmtKind::Statement => statement_end(bytes, close + 1),
                StmtKind::Construct => construct_end(bytes, close + 1),
                StmtKind::Condition => body_open(bytes, close + 1),
            };
            spans.push(GuardSpan {
                lock,
                pos,
                line: masked.line_of(pos),
                end,
                bound,
            });
        }
    }
    spans.sort_by_key(|g| g.pos);
    spans
}

/// R7: blocking calls inside a live guard span.
fn check_blocking(rel: &Path, masked: &Masked, guards: &[GuardSpan], findings: &mut Vec<Finding>) {
    let code = &masked.app_code;
    for g in guards {
        let mut sites: Vec<(usize, String)> = Vec::new();
        for m in BLOCKING_METHODS {
            let mut from = g.pos;
            while let Some(pos) = find_word(code, m, from) {
                if pos >= g.end {
                    break;
                }
                from = pos + m.len();
                let after = pos + m.len();
                if code.as_bytes().get(pos.wrapping_sub(1)) == Some(&b'.')
                    && code.as_bytes().get(after) == Some(&b'(')
                {
                    sites.push((pos, format!(".{m}(..)")));
                }
            }
        }
        for c in BLOCKING_CALLS {
            let mut from = g.pos;
            while let Some(pos) = find_word(code, c, from) {
                if pos >= g.end {
                    break;
                }
                from = pos + c.len();
                let after = pos + c.len();
                let preceded_by_dot = pos > 0 && code.as_bytes()[pos - 1] == b'.';
                if !preceded_by_dot && code.as_bytes().get(after) == Some(&b'(') {
                    sites.push((pos, format!("{c}(..)")));
                }
            }
        }
        sites.sort();
        for (pos, what) in sites {
            let line = masked.line_of(pos);
            if masked.allowed(Rule::LockBlocking.name(), line) {
                continue;
            }
            findings.push(Finding {
                file: rel.to_path_buf(),
                line,
                rule: Rule::LockBlocking,
                message: format!(
                    "blocking call `{what}` while the `{}` guard (line {}) is live: \
                     a thread blocked here wedges every other `{}` user — drop the \
                     guard first (the PR 5 deadlock class)",
                    g.lock, g.line, g.lock
                ),
            });
        }
    }
}

/// R10: a let-bound guard named inside a `move` closure within its span
/// escapes into a callback that may outlive (or re-enter) the critical
/// section.
fn check_guard_escape(
    rel: &Path,
    masked: &Masked,
    guards: &[GuardSpan],
    findings: &mut Vec<Finding>,
) {
    let code = &masked.app_code;
    let bytes = code.as_bytes();
    for g in guards {
        let Some(name) = &g.bound else { continue };
        let mut from = g.pos;
        while let Some(mv) = find_word(code, "move", from) {
            if mv >= g.end {
                break;
            }
            from = mv + 4;
            let after = skip_ws(bytes, mv + 4);
            if bytes.get(after) != Some(&b'|') {
                continue;
            }
            let Some(used) = find_word(code, name, after) else {
                continue;
            };
            if used >= g.end {
                continue;
            }
            let line = masked.line_of(mv);
            if masked.allowed(Rule::GuardEscape.name(), line) {
                continue;
            }
            findings.push(Finding {
                file: rel.to_path_buf(),
                line,
                rule: Rule::GuardEscape,
                message: format!(
                    "guard `{name}` (lock `{}`, line {}) is captured by a `move` closure: \
                     the guard escapes its critical section",
                    g.lock, g.line
                ),
            });
        }
    }
}

/// Atomic orderings stronger than `Relaxed`.
const STRONG_ORDERINGS: [&str; 4] = ["SeqCst", "AcqRel", "Acquire", "Release"];

/// R9: the atomic-ordering audit.
///
/// Every non-`Relaxed` ordering must carry a justified `atomic-order`
/// allow — strong orderings are correctness claims
/// about pairing, and the justification is where that pairing is
/// documented. Conversely `Relaxed` on an `AtomicBool` flag is flagged:
/// flags hand control to another thread, which is exactly what `Relaxed`
/// does not order (pure `AtomicU64` counters stay `Relaxed`, unflagged).
fn check_atomic_order(rel: &Path, masked: &Masked, findings: &mut Vec<Finding>) {
    let code = &masked.app_code;
    let flags = collect_atomic_bool_names(code);
    for strong in STRONG_ORDERINGS {
        let pat = format!("Ordering::{strong}");
        let mut from = 0;
        while let Some(pos) = find_word(code, &pat, from) {
            from = pos + pat.len();
            let line = masked.line_of(pos);
            if masked.allowed(Rule::AtomicOrder.name(), line) {
                continue;
            }
            findings.push(Finding {
                file: rel.to_path_buf(),
                line,
                rule: Rule::AtomicOrder,
                message: format!(
                    "`Ordering::{strong}` is a cross-thread pairing claim: document what \
                     it synchronizes with via `lint:allow(atomic-order) -- <pairing>`"
                ),
            });
        }
    }
    let mut from = 0;
    while let Some(pos) = find_word(code, "Ordering::Relaxed", from) {
        from = pos + "Ordering::Relaxed".len();
        let Some((recv, op)) = enclosing_atomic_op(code, pos) else {
            continue;
        };
        if !flags.contains(&recv) || !matches!(op.as_str(), "load" | "store" | "swap") {
            continue;
        }
        let line = masked.line_of(pos);
        if masked.allowed(Rule::AtomicOrder.name(), line) {
            continue;
        }
        findings.push(Finding {
            file: rel.to_path_buf(),
            line,
            rule: Rule::AtomicOrder,
            message: format!(
                "`Relaxed` {op} on AtomicBool flag `{recv}`: a cross-thread handoff flag \
                 orders nothing under Relaxed — use a Release store / Acquire load pair \
                 (and justify it with lint:allow(atomic-order))"
            ),
        });
    }
}

// --------------------------------------------------------------------------
// span machinery
// --------------------------------------------------------------------------

/// Classifies the statement containing an acquisition (see [`StmtKind`])
/// and extracts the binding name for `let`-bound guards.
fn classify_statement(code: &str, acq_pos: usize, call_close: usize) -> (StmtKind, Option<String>) {
    let bytes = code.as_bytes();
    let mut start = acq_pos;
    while start > 0 && !matches!(bytes[start - 1], b';' | b'{' | b'}') {
        start -= 1;
    }
    let prefix = code[start..acq_pos].trim_start();
    if prefix.starts_with("let ") {
        let name = let_binding_name(prefix);
        // A recovery `match x.lock() { .. }` still binds the guard.
        if contains_word(prefix, "match") {
            return (StmtKind::Bound, name);
        }
        let after = after_adapters(bytes, call_close + 1);
        let next = skip_ws(bytes, after);
        if bytes.get(next) == Some(&b';') {
            return (StmtKind::Bound, name);
        }
        // `let v = lock(..).method(..)` — the binding is not the guard.
        return (StmtKind::Statement, None);
    }
    if prefix.starts_with("if let ") || prefix.starts_with("while let ") {
        return (StmtKind::Construct, None);
    }
    if prefix.starts_with("match ") || prefix.starts_with("for ") {
        return (StmtKind::Construct, None);
    }
    if prefix.starts_with("if ") || prefix.starts_with("while ") {
        return (StmtKind::Condition, None);
    }
    (StmtKind::Statement, None)
}

/// The identifier bound by a `let [mut] name ...` prefix, if simple.
fn let_binding_name(prefix: &str) -> Option<String> {
    let rest = prefix.strip_prefix("let ")?.trim_start();
    let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(rest.len());
    if end == 0 {
        return None;
    }
    Some(rest[..end].to_string())
}

/// Consumes guard-preserving adapter calls (`.unwrap_or_else(..)` …)
/// starting at `i` (just past the lock call's close paren); returns the
/// index after the last adapter.
fn after_adapters(bytes: &[u8], mut i: usize) -> usize {
    loop {
        let dot = skip_ws(bytes, i);
        if bytes.get(dot) != Some(&b'.') {
            return i;
        }
        let name_start = dot + 1;
        let mut j = name_start;
        while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
            j += 1;
        }
        let name = std::str::from_utf8(&bytes[name_start..j]).unwrap_or("");
        if !GUARD_ADAPTERS.contains(&name) {
            return i;
        }
        let open = skip_ws(bytes, j);
        if bytes.get(open) != Some(&b'(') {
            return i;
        }
        match match_close(bytes, open) {
            Some(close) => i = close + 1,
            None => return i,
        }
    }
}

/// Byte offset of the `}` closing the block enclosing position `i`.
fn enclosing_block_end(bytes: &[u8], mut i: usize) -> usize {
    let mut depth = 0i32;
    while i < bytes.len() {
        match bytes[i] {
            b'{' | b'(' => depth += 1,
            b'}' | b')' => {
                if depth == 0 {
                    return i;
                }
                depth -= 1;
            }
            _ => {}
        }
        i += 1;
    }
    i
}

/// Byte offset just past the `;` ending the current statement.
fn statement_end(bytes: &[u8], mut i: usize) -> usize {
    let mut depth = 0i32;
    while i < bytes.len() {
        match bytes[i] {
            b';' if depth == 0 => return i,
            b'{' | b'(' => depth += 1,
            b'}' | b')' => {
                if depth == 0 {
                    return i;
                }
                depth -= 1;
            }
            _ => {}
        }
        i += 1;
    }
    i
}

/// Byte offset of the first body-opening `{` at the current nesting.
fn body_open(bytes: &[u8], mut i: usize) -> usize {
    let mut depth = 0i32;
    while i < bytes.len() {
        match bytes[i] {
            b'{' if depth == 0 => return i,
            b'(' | b'[' => depth += 1,
            b')' | b']' => depth -= 1,
            _ => {}
        }
        i += 1;
    }
    i
}

/// Byte offset of the `}` closing the construct whose body opens at the
/// next top-level `{` (covers `if let`/`while let`/`match`/`for`; an
/// `else` continuation is not tracked — a conservative under-approx).
fn construct_end(bytes: &[u8], i: usize) -> usize {
    let open = body_open(bytes, i);
    match_close(bytes, open).unwrap_or(bytes.len())
}

/// The byte offset of an explicit `drop(name)` inside `[from, to)`.
fn drop_site(code: &str, name: &str, from: usize, to: usize) -> Option<usize> {
    let bytes = code.as_bytes();
    let mut at = from;
    while let Some(pos) = find_word(code, "drop", at) {
        if pos >= to {
            return None;
        }
        at = pos + 4;
        let open = skip_ws(bytes, pos + 4);
        if bytes.get(open) != Some(&b'(') {
            continue;
        }
        let close = match_close(bytes, open)?;
        if code[open + 1..close].trim() == name {
            return Some(pos);
        }
    }
    None
}

fn skip_ws(bytes: &[u8], mut i: usize) -> usize {
    while i < bytes.len() && bytes[i].is_ascii_whitespace() {
        i += 1;
    }
    i
}

/// Normalizes a lock-helper argument to a lock name: strips borrows and
/// qualifiers and keeps the last path segment (`&self.health` →
/// `health`).
fn normalize_lock_expr(arg: &str) -> String {
    let arg = arg.trim().trim_start_matches('&').trim_start();
    let arg = arg.strip_prefix("mut ").unwrap_or(arg).trim();
    let last = arg.rsplit('.').next().unwrap_or(arg);
    let name: String = last
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() {
        "<anon>".to_string()
    } else {
        name
    }
}

/// Identifiers declared (or initialized) as `AtomicBool` in this file —
/// through an `Arc<..>` wrapper or an `Arc::new(AtomicBool::new(..))`
/// initializer chain.
fn collect_atomic_bool_names(code: &str) -> Vec<String> {
    collect_decl_names(code, &["AtomicBool"], true)
}

/// For an `Ordering::..` argument, the `(receiver, method)` of the
/// enclosing atomic call: scans back to the nearest unmatched `(` and
/// reads `receiver.method` before it.
fn enclosing_atomic_op(code: &str, ord_pos: usize) -> Option<(String, String)> {
    let bytes = code.as_bytes();
    let mut depth = 0i32;
    let mut i = ord_pos;
    let open = loop {
        if i == 0 {
            return None;
        }
        i -= 1;
        match bytes[i] {
            b')' => depth += 1,
            b'(' => {
                if depth == 0 {
                    break i;
                }
                depth -= 1;
            }
            b';' | b'{' | b'}' => return None,
            _ => {}
        }
    };
    let method = ident_back(bytes, open);
    if method.is_empty() {
        return None;
    }
    let dot = open - method.len();
    if dot == 0 || bytes[dot - 1] != b'.' {
        return None;
    }
    let recv = ident_back(bytes, dot - 1);
    if recv.is_empty() {
        return None;
    }
    Some((recv, method))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spans(src: &str) -> Vec<GuardSpan> {
        guard_spans(&mask(src))
    }

    #[test]
    fn bound_guard_lives_to_block_end() {
        let src = "fn f(&self) {\n    let g = lock(&self.node);\n    g.touch();\n}\n";
        let s = spans(src);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].lock, "node");
        assert_eq!(s[0].bound.as_deref(), Some("g"));
        assert!(src[s[0].end..].starts_with('}'));
    }

    #[test]
    fn temporary_in_statement_dies_at_semicolon() {
        let src = "fn f(&self) {\n    let v = lock(&self.node).value();\n    blocking();\n}\n";
        let s = spans(src);
        assert_eq!(s.len(), 1);
        assert!(s[0].bound.is_none());
        assert!(src[..s[0].end].ends_with("value()"));
    }

    #[test]
    fn if_let_scrutinee_extends_to_construct_end() {
        let src = "fn f(&self) {\n    if let Some(s) = lock(&self.sink).as_ref() {\n        s.emit();\n    }\n    after();\n}\n";
        let s = spans(src);
        assert_eq!(s.len(), 1);
        let span = &src[s[0].pos..s[0].end];
        assert!(span.contains("s.emit"), "body is inside the span: {span:?}");
        assert!(
            !span.contains("after"),
            "span ends at the if-let close: {span:?}"
        );
    }

    #[test]
    fn plain_if_condition_drops_before_body() {
        let src =
            "fn f(&self) {\n    if lock(&self.node).ready() {\n        blocking();\n    }\n}\n";
        let s = spans(src);
        assert_eq!(s.len(), 1);
        assert!(
            src[s[0].end..].starts_with('{'),
            "span ends at the body open"
        );
    }

    #[test]
    fn drop_truncates_bound_span() {
        let src = "fn f(&self) {\n    let g = lock(&self.node);\n    g.touch();\n    drop(g);\n    blocking();\n}\n";
        let s = spans(src);
        assert!(src[s[0].end..].starts_with("drop(g)"));
    }

    #[test]
    fn stdout_lock_is_not_a_mutex() {
        let src = "fn main() {\n    let stdout = std::io::stdout();\n    let mut out = stdout.lock();\n    out.flush();\n}\n";
        assert!(spans(src).is_empty());
    }

    #[test]
    fn atomic_bool_names_are_collected() {
        let code = "struct D { stop: Arc<AtomicBool>, n: AtomicU64 }\n\
                    fn f() { let halt = Arc::new(AtomicBool::new(false)); }\n";
        let names = collect_atomic_bool_names(&mask(code).app_code);
        assert_eq!(names, vec!["stop".to_string(), "halt".to_string()]);
    }

    #[test]
    fn enclosing_op_resolves_receiver() {
        let code = "fn f(&self) { self.stop.store(true, Ordering::Relaxed); }";
        let pos = code.find("Ordering").unwrap();
        assert_eq!(
            enclosing_atomic_op(code, pos),
            Some(("stop".to_string(), "store".to_string()))
        );
    }
}
