//! A string/comment/`cfg(test)`-aware masking lexer for Rust sources.
//!
//! The linter never parses Rust properly (no `syn` — the registry is
//! unreachable from this environment); instead it *masks* everything a
//! textual rule must not look inside: string and char literal contents,
//! line and block comments, and — one level up — whole `#[cfg(test)]` /
//! `#[test]` items. Rules then scan the masked text with plain substring
//! and token-boundary checks, which keeps every rule a few lines long and
//! trivially auditable.
//!
//! Masking replaces bytes with spaces while preserving newlines, so byte
//! offsets and line numbers in the masked text match the original file
//! exactly.

/// An allow directive found in a comment: a rule name plus a `--`
/// justification, e.g. `// lint:allow(float-eq) -- exact sentinel compare`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowDirective {
    /// 1-based line the directive's comment starts on.
    pub line: usize,
    /// The line the directive suppresses: its own line for a trailing
    /// comment, otherwise the next line holding actual code (comment
    /// continuation lines in between are skipped).
    pub applies_to: usize,
    /// The rule name inside the parentheses, verbatim.
    pub rule: String,
    /// Whether a non-empty ` -- justification` followed the directive.
    pub justified: bool,
}

/// The result of masking one source file.
#[derive(Debug, Clone)]
pub struct Masked {
    /// The source with comment and literal contents blanked to spaces
    /// (newlines preserved). Same byte length as the input.
    pub code: String,
    /// Additionally blanks every `#[cfg(test)]` / `#[test]` item, so rules
    /// that exempt test code scan this instead of [`Masked::code`].
    pub app_code: String,
    /// Every `lint:allow` directive, in file order.
    pub allows: Vec<AllowDirective>,
    /// Byte offset of the start of each line (index 0 = line 1).
    line_starts: Vec<usize>,
}

impl Masked {
    /// 1-based line number containing byte `offset`.
    #[must_use]
    pub fn line_of(&self, offset: usize) -> usize {
        line_at(&self.line_starts, offset)
    }

    /// True when an allow directive for `rule` covers `line` — the
    /// directive suppresses findings on its own line (trailing comment)
    /// and on the next code line below it (comment-above style, with the
    /// comment free to span several lines). Only justified directives
    /// suppress anything.
    #[must_use]
    pub fn allowed(&self, rule: &str, line: usize) -> bool {
        self.allows
            .iter()
            .any(|a| a.justified && a.rule == rule && (a.line == line || a.applies_to == line))
    }
}

/// The 1-based line holding byte `offset`, given each line's start offset.
fn line_at(line_starts: &[usize], offset: usize) -> usize {
    match line_starts.binary_search(&offset) {
        Ok(i) => i + 1,
        Err(i) => i,
    }
}

/// Masks `src`: blanks comments and literal contents, records allow
/// directives, and blanks test-only items in the `app_code` view.
#[must_use]
pub fn mask(src: &str) -> Masked {
    let bytes = src.as_bytes();
    let mut out: Vec<u8> = Vec::with_capacity(bytes.len());
    let mut allows = Vec::new();
    let mut line_starts = vec![0usize];
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'\n' {
            line_starts.push(i + 1);
        }
    }
    let line_of = |offset: usize| line_at(&line_starts, offset);

    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                let start = i;
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                parse_allows(&src[start..i], line_of(start), &mut allows);
                blank(&mut out, i - start);
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let start = i;
                let mut depth = 1usize;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                parse_allows(&src[start..i], line_of(start), &mut allows);
                blank_keep_newlines(&mut out, &bytes[start..i]);
            }
            b'"' => {
                out.push(b'"');
                i += 1;
                i = skip_string(bytes, i, &mut out);
            }
            b'r' | b'b' if is_raw_string_start(bytes, i) => {
                let (next, consumed) = skip_raw_string(bytes, i);
                blank_keep_newlines(&mut out, &bytes[i..i + consumed]);
                i = next;
            }
            b'b' if bytes.get(i + 1) == Some(&b'"') => {
                out.push(b' ');
                out.push(b'"');
                i += 2;
                i = skip_string(bytes, i, &mut out);
            }
            b'\'' => {
                // Char literal or lifetime. `'a` followed by a non-quote is
                // a lifetime; `'a'` or `'\n'` is a char literal.
                if bytes.get(i + 1) == Some(&b'\\') {
                    let start = i;
                    i += 2; // quote + backslash
                    if i < bytes.len() {
                        i += 1; // the escaped char
                    }
                    // Consume up to the closing quote (covers \u{...}).
                    while i < bytes.len() && bytes[i] != b'\'' {
                        i += 1;
                    }
                    i += 1;
                    blank(&mut out, i.min(bytes.len()) - start);
                } else if bytes.get(i + 2) == Some(&b'\'') && bytes.get(i + 1) != Some(&b'\'') {
                    blank(&mut out, 3);
                    i += 3;
                } else {
                    out.push(b'\'');
                    i += 1;
                }
            }
            _ => {
                out.push(b);
                i += 1;
            }
        }
    }
    out.truncate(bytes.len());
    let code = String::from_utf8_lossy(&out).into_owned();
    // Resolve each directive to the line it suppresses: its own line when
    // that line still holds code after masking (trailing comment), else
    // the next line with any code (skipping comment continuation lines,
    // which mask to whitespace).
    let line_text = |n: usize| -> &str {
        let start = line_starts[n - 1];
        let end = line_starts.get(n).copied().unwrap_or(code.len());
        &code[start..end]
    };
    for a in &mut allows {
        let mut target = a.line;
        while target < line_starts.len() && line_text(target).trim().is_empty() {
            target += 1;
        }
        a.applies_to = target;
    }
    let app_code = blank_test_items(&code);
    Masked {
        code,
        app_code,
        allows,
        line_starts,
    }
}

/// Pushes `n` spaces.
fn blank(out: &mut Vec<u8>, n: usize) {
    out.extend(std::iter::repeat_n(b' ', n));
}

/// Pushes one space per byte, preserving newlines.
fn blank_keep_newlines(out: &mut Vec<u8>, span: &[u8]) {
    out.extend(span.iter().map(|&b| if b == b'\n' { b'\n' } else { b' ' }));
}

/// After an opening `"` (already emitted), blanks the string body and
/// emits the closing quote. Returns the index after the literal.
fn skip_string(bytes: &[u8], mut i: usize, out: &mut Vec<u8>) -> usize {
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => {
                // An escaped newline continues the string; keep it so line
                // numbers after the literal stay right.
                blank_keep_newlines(out, &bytes[i..bytes.len().min(i + 2)]);
                i += 2;
            }
            b'"' => {
                out.push(b'"');
                return i + 1;
            }
            b'\n' => {
                out.push(b'\n');
                i += 1;
            }
            _ => {
                out.push(b' ');
                i += 1;
            }
        }
    }
    i
}

/// True when position `i` starts a raw (byte) string: `r"`, `r#`, `br"`,
/// `br#`.
fn is_raw_string_start(bytes: &[u8], i: usize) -> bool {
    // Avoid treating identifiers ending in r/b (e.g. `var"`) as raw
    // strings: the char before must not be part of an identifier.
    if i > 0 && is_ident_byte(bytes[i - 1]) {
        return false;
    }
    let rest = &bytes[i..];
    let after_prefix = if rest.starts_with(b"br") || rest.starts_with(b"rb") {
        &rest[2..]
    } else if rest.starts_with(b"r") {
        &rest[1..]
    } else {
        return false;
    };
    let hashes = after_prefix.iter().take_while(|&&b| b == b'#').count();
    after_prefix.get(hashes) == Some(&b'"')
}

/// Skips a raw string starting at `i`; returns `(next_index, consumed)`.
fn skip_raw_string(bytes: &[u8], i: usize) -> (usize, usize) {
    let rest = &bytes[i..];
    let prefix = if rest.starts_with(b"br") || rest.starts_with(b"rb") {
        2
    } else {
        1
    };
    let hashes = rest[prefix..].iter().take_while(|&&b| b == b'#').count();
    let mut j = i + prefix + hashes + 1; // past the opening quote
    let closer: Vec<u8> = std::iter::once(b'"')
        .chain(std::iter::repeat_n(b'#', hashes))
        .collect();
    while j < bytes.len() {
        if bytes[j..].starts_with(&closer) {
            j += closer.len();
            return (j, j - i);
        }
        j += 1;
    }
    (j, j - i)
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Extracts every allow directive from one comment.
fn parse_allows(comment: &str, line: usize, allows: &mut Vec<AllowDirective>) {
    let mut rest = comment;
    while let Some(pos) = rest.find("lint:allow(") {
        let after = &rest[pos + "lint:allow(".len()..];
        let Some(close) = after.find(')') else { break };
        let rule = after[..close].trim().to_string();
        let tail = &after[close + 1..];
        let justified = tail
            .trim_start()
            .strip_prefix("--")
            .is_some_and(|j| !j.trim().is_empty());
        allows.push(AllowDirective {
            line,
            applies_to: line, // resolved after the whole file is masked
            rule,
            justified,
        });
        rest = tail;
    }
}

/// Blanks every item gated on test-only compilation: `#[cfg(test)] mod/fn
/// ... { ... }` (or `...;`) and `#[test] fn ... { ... }`.
fn blank_test_items(code: &str) -> String {
    let bytes = code.as_bytes();
    let mut out = bytes.to_vec();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] != b'#' {
            i += 1;
            continue;
        }
        let Some((attr_text, attr_end)) = read_attribute(code, i) else {
            i += 1;
            continue;
        };
        if !is_test_attr(&attr_text) {
            i = attr_end;
            continue;
        }
        let item_end = find_item_end(bytes, attr_end);
        for b in &mut out[i..item_end] {
            if *b != b'\n' {
                *b = b' ';
            }
        }
        i = item_end;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Finds the end of the item following an attribute: past any further
/// attributes, then either the terminating `;` or the matching close of
/// the item's first `{` block.
fn find_item_end(bytes: &[u8], mut i: usize) -> usize {
    // Skip whitespace and any further attributes.
    loop {
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        if bytes.get(i) == Some(&b'#') {
            let mut j = i + 1;
            while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                j += 1;
            }
            if bytes.get(j) == Some(&b'[') {
                i = match_close(bytes, j).map_or(bytes.len(), |close| close + 1);
                continue;
            }
        }
        break;
    }
    // Scan to the item boundary.
    let mut depth = 0usize;
    while i < bytes.len() {
        match bytes[i] {
            b';' if depth == 0 => return i + 1,
            b'{' => depth += 1,
            b'}' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    i
}

/// Reads an attribute `#[...]` (brackets may nest) starting at `start`.
/// Returns the attribute text without whitespace and the index just past
/// the closing bracket.
fn read_attribute(code: &str, start: usize) -> Option<(String, usize)> {
    let bytes = code.as_bytes();
    let mut j = start + 1;
    while j < bytes.len() && bytes[j].is_ascii_whitespace() {
        j += 1;
    }
    if bytes.get(j) != Some(&b'[') {
        return None;
    }
    let mut depth = 0usize;
    let mut text = String::new();
    for (k, &b) in bytes.iter().enumerate().skip(j) {
        match b {
            b'[' => depth += 1,
            b']' => {
                depth -= 1;
                if depth == 0 {
                    return Some((text, k + 1));
                }
            }
            _ => {
                if !b.is_ascii_whitespace() {
                    text.push(b as char);
                }
            }
        }
    }
    None
}

/// True for attributes that gate an item to test builds: `test`,
/// `cfg(test)`, `cfg(all(test, ...))` — but not `cfg(not(test))`.
fn is_test_attr(attr: &str) -> bool {
    if attr == "test" {
        return true;
    }
    if !attr.starts_with("cfg(") || attr.contains("not(") {
        return false;
    }
    contains_word(attr, "test")
}

/// True when `needle` occurs in `hay` with non-identifier chars (or the
/// text boundary) on both sides.
pub fn contains_word(hay: &str, needle: &str) -> bool {
    find_word(hay, needle, 0).is_some()
}

/// Finds the next word-bounded occurrence of `needle` at or after `from`.
pub fn find_word(hay: &str, needle: &str, from: usize) -> Option<usize> {
    let bytes = hay.as_bytes();
    let mut start = from;
    while let Some(rel) = hay.get(start..).and_then(|h| h.find(needle)) {
        let pos = start + rel;
        let left_ok = pos == 0 || !is_ident_byte(bytes[pos - 1]);
        let end = pos + needle.len();
        let right_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if left_ok && right_ok {
            return Some(pos);
        }
        start = pos + 1;
    }
    None
}

/// The identifier ending exactly at byte `end` (empty when none does).
pub(crate) fn ident_back(bytes: &[u8], end: usize) -> String {
    let mut start = end;
    while start > 0 && is_ident_byte(bytes[start - 1]) {
        start -= 1;
    }
    String::from_utf8_lossy(&bytes[start..end]).into_owned()
}

/// The identifier ending just before byte `end`, skipping whitespace
/// first; `None` when there is none or it starts with a digit.
pub(crate) fn ident_before(bytes: &[u8], mut end: usize) -> Option<String> {
    while end > 0 && bytes[end - 1].is_ascii_whitespace() {
        end -= 1;
    }
    let name = ident_back(bytes, end);
    if name.is_empty() || name.as_bytes()[0].is_ascii_digit() {
        None
    } else {
        Some(name)
    }
}

/// The index of the bracket closing the `(`, `[` or `{` at `open`.
pub(crate) fn match_close(bytes: &[u8], open: usize) -> Option<usize> {
    let (opener, closer) = match bytes.get(open)? {
        b'(' => (b'(', b')'),
        b'[' => (b'[', b']'),
        b'{' => (b'{', b'}'),
        _ => return None,
    };
    let mut depth = 0usize;
    for (k, &b) in bytes.iter().enumerate().skip(open) {
        if b == opener {
            depth += 1;
        } else if b == closer {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Identifiers declared (or initialized) as one of `types`: a
/// `name: Ty` ascription or a `name = Ty::new(..)` initializer, through
/// a leading path (`std::collections::HashSet`) and wrapper layers
/// (`Arc<Ty>`, `Arc::new(Ty::new(..))`). With `dedup` false every
/// declaration site is kept, so callers can count how many distinct
/// declarations share one name.
pub(crate) fn collect_decl_names(code: &str, types: &[&str], dedup: bool) -> Vec<String> {
    let bytes = code.as_bytes();
    let mut names = Vec::new();
    for ty in types {
        let mut from = 0;
        while let Some(pos) = find_word(code, ty, from) {
            from = pos + ty.len();
            let mut q = pos;
            let name = loop {
                while q > 0 && bytes[q - 1].is_ascii_whitespace() {
                    q -= 1;
                }
                if q == 0 {
                    break None;
                }
                match bytes[q - 1] {
                    // A leading `path::` segment.
                    b':' if q >= 2 && bytes[q - 2] == b':' => {
                        q -= 2;
                        while q > 0 && is_ident_byte(bytes[q - 1]) {
                            q -= 1;
                        }
                    }
                    // A wrapper layer: `Arc<Ty>` / `Arc::new(Ty..`.
                    b'<' | b'(' => {
                        q -= 1;
                        while q > 0 && (is_ident_byte(bytes[q - 1]) || bytes[q - 1] == b':') {
                            q -= 1;
                        }
                    }
                    // `name: Ty` ascription.
                    b':' => break ident_before(bytes, q - 1),
                    // `name = Ty::new(..)` initializer.
                    b'=' if q >= 2 && bytes[q - 2] != b'=' && bytes[q - 2] != b'!' => {
                        break ident_before(bytes, q - 1);
                    }
                    _ => break None,
                }
            };
            if let Some(name) = name {
                if !dedup || !names.contains(&name) {
                    names.push(name);
                }
            }
        }
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_blanked() {
        let m = mask("let a = \"Instant::now\"; // Instant::now\nlet b = 1;");
        assert!(!m.code.contains("Instant::now"));
        assert!(m.code.contains("let a ="));
        assert!(m.code.contains("let b = 1;"));
        assert_eq!(
            m.code.len(),
            "let a = \"Instant::now\"; // Instant::now\nlet b = 1;".len()
        );
    }

    #[test]
    fn raw_strings_are_blanked() {
        let m = mask(r##"let a = r#"panic!("boom")"#; let b = 2;"##);
        assert!(!m.code.contains("panic!"));
        assert!(m.code.contains("let b = 2;"));
    }

    #[test]
    fn lifetimes_survive_char_literals_do_not() {
        let m = mask("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        assert!(m.code.contains("<'a>"));
        assert!(m.code.contains("&'a str"));
        assert!(!m.code.contains("'x'"));
    }

    #[test]
    fn block_comments_nest() {
        let m = mask("/* outer /* inner */ still comment */ let x = 1;");
        assert!(m.code.contains("let x = 1;"));
        assert!(!m.code.contains("outer"));
    }

    #[test]
    fn cfg_test_mod_is_blanked_in_app_code() {
        let src = "fn real() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap() }\n}\n";
        let m = mask(src);
        assert!(m.code.contains("unwrap"), "plain mask keeps test code");
        assert!(!m.app_code.contains("unwrap"), "app view drops test code");
        assert!(m.app_code.contains("fn real()"));
    }

    #[test]
    fn cfg_not_test_is_kept() {
        let src = "#[cfg(not(test))]\nfn real() { x.unwrap() }\n";
        let m = mask(src);
        assert!(m.app_code.contains("unwrap"));
    }

    #[test]
    fn test_fn_attr_is_blanked() {
        let src = "#[test]\nfn t() { x.unwrap(); }\nfn real() {}\n";
        let m = mask(src);
        assert!(!m.app_code.contains("unwrap"));
        assert!(m.app_code.contains("fn real()"));
    }

    #[test]
    fn allow_directive_parsing() {
        let src = "// lint:allow(float-eq) -- contract\nx();\n// lint:allow(float-eq)\ny();\n";
        let m = mask(src);
        assert_eq!(m.allows.len(), 2);
        assert!(m.allows[0].justified);
        assert!(!m.allows[1].justified);
        assert!(m.allowed("float-eq", 1));
        assert!(m.allowed("float-eq", 2));
        assert!(
            !m.allowed("float-eq", 4),
            "unjustified allow never suppresses"
        );
    }

    #[test]
    fn allow_comment_may_span_lines() {
        let src = "// lint:allow(float-eq) -- a justification that\n// wraps onto a second line\nx();\ny();\n";
        let m = mask(src);
        assert!(m.allowed("float-eq", 3), "skips comment continuation lines");
        assert!(!m.allowed("float-eq", 4), "covers only the next code line");
    }

    #[test]
    fn trailing_allow_covers_its_own_line() {
        let src = "x(); // lint:allow(float-eq) -- contract\ny();\n";
        let m = mask(src);
        assert!(m.allowed("float-eq", 1));
        assert!(!m.allowed("float-eq", 2));
    }

    #[test]
    fn string_continuation_keeps_its_newline() {
        let m = mask("let s = \"a \\\n   b\";\nx();\n");
        assert_eq!(m.code.lines().count(), 3);
        assert!(m.code.lines().nth(2).is_some_and(|l| l.contains("x()")));
    }

    #[test]
    fn line_numbers_match_offsets() {
        let m = mask("a\nb\nc\n");
        assert_eq!(m.line_of(0), 1);
        assert_eq!(m.line_of(2), 2);
        assert_eq!(m.line_of(4), 3);
    }

    #[test]
    fn decl_names_skip_a_leading_path() {
        let code = "let a = std::collections::HashSet::new();\n\
                    let b: std::collections::HashSet<u64> = x;\n\
                    struct S { c: Arc<std::sync::Mutex<u64>>, d: std::sync::atomic::AtomicBool }\n\
                    use std::collections::HashSet;\n";
        assert_eq!(collect_decl_names(code, &["HashSet"], true), ["a", "b"]);
        assert_eq!(collect_decl_names(code, &["Mutex"], true), ["c"]);
        assert_eq!(collect_decl_names(code, &["AtomicBool"], true), ["d"]);
    }

    #[test]
    fn word_boundaries() {
        assert!(contains_word("cfg(test)", "test"));
        assert!(!contains_word("cfg(testing)", "test"));
        assert!(contains_word("a test b", "test"));
    }
}
