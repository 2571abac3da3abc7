//! A minimal hand-rolled JSON writer and reader.
//!
//! The workspace builds against an offline registry, so there is no serde;
//! every machine-readable document whose shape is dynamic (stats, series,
//! rollups, the experiment driver's `results/` tables) goes through this writer
//! instead. It emits compact JSON with the exact field order the caller
//! uses, which is what makes outputs byte-comparable across runs. Event
//! lines have a fixed shape and their own encoder
//! ([`Event::write_json`](crate::Event::write_json)), which shares this
//! module's escaping and integer primitives. The matching
//! [`parse_json`] reader is what the trace assembler and the `stats`
//! scraper use to get those documents back without pulling in a
//! dependency.

use std::fmt::Write as _;

/// Whether `s` is its own RFC 8259 escaping. Bytes ≥ 0x80 are UTF-8
/// continuation/lead bytes — never escaped.
pub(crate) fn is_plain(s: &str) -> bool {
    s.bytes().all(|b| b != b'"' && b != b'\\' && b >= 0x20)
}

/// Escapes `s` per RFC 8259 and appends it (without quotes) to `out`.
pub fn escape_into(out: &mut String, s: &str) {
    // Almost every string this workspace serializes (keys, event names,
    // span statuses) needs no escaping; detect that with one byte scan
    // and append with a single copy instead of char-by-char pushes.
    if is_plain(s) {
        out.push_str(s);
        return;
    }
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// A streaming writer for compact JSON objects and arrays.
///
/// # Example
///
/// ```
/// use coopcache_obs::JsonWriter;
///
/// let mut w = JsonWriter::new();
/// w.begin_object();
/// w.key("name");
/// w.string("fig1");
/// w.key("rows");
/// w.begin_array();
/// w.u64(1);
/// w.u64(2);
/// w.end_array();
/// w.end_object();
/// assert_eq!(w.finish(), r#"{"name":"fig1","rows":[1,2]}"#);
/// ```
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// One bit per open container, indexed by depth: set once the first
    /// element landed (so the next one needs a comma). A bitset instead
    /// of a `Vec<bool>` keeps the writer allocation-free apart from the
    /// output text itself.
    /// Containers nested deeper than 64 levels lose comma tracking; no
    /// document in this workspace nests past single digits.
    comma: u64,
    /// Open containers.
    depth: u32,
}

impl JsonWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The comma bit for the innermost open container (`0` at the top
    /// level, where values never need separating).
    fn level_bit(&self) -> u64 {
        match self.depth {
            0 => 0,
            d => 1u64.checked_shl(d - 1).unwrap_or(0),
        }
    }

    /// Returns the accumulated JSON text.
    #[must_use]
    pub fn finish(self) -> String {
        self.out
    }

    fn before_value(&mut self) {
        // A value inside an array needs a separating comma; object values
        // follow their key, which already handled the comma.
        let bit = self.level_bit();
        if self.comma & bit != 0 {
            self.out.push(',');
        }
        self.comma |= bit;
    }

    /// Opens an object (`{`).
    pub fn begin_object(&mut self) {
        self.before_value();
        self.out.push('{');
        self.depth += 1;
        self.comma &= !self.level_bit();
    }

    /// Closes an object (`}`).
    pub fn end_object(&mut self) {
        self.depth = self.depth.saturating_sub(1);
        self.out.push('}');
    }

    /// Opens an array (`[`).
    pub fn begin_array(&mut self) {
        self.before_value();
        self.out.push('[');
        self.depth += 1;
        self.comma &= !self.level_bit();
    }

    /// Closes an array (`]`).
    pub fn end_array(&mut self) {
        self.depth = self.depth.saturating_sub(1);
        self.out.push(']');
    }

    /// Writes an object key; the next call must write its value.
    pub fn key(&mut self, k: &str) {
        let bit = self.level_bit();
        if self.comma & bit != 0 {
            self.out.push(',');
        }
        // The key's own comma is done; the value following it must not
        // add one (its `before_value` re-arms the flag).
        self.comma &= !bit;
        self.out.push('"');
        escape_into(&mut self.out, k);
        self.out.push_str("\":");
    }

    /// Writes a string value.
    pub fn string(&mut self, v: &str) {
        self.before_value();
        self.out.push('"');
        escape_into(&mut self.out, v);
        self.out.push('"');
    }

    /// Writes an unsigned integer value.
    pub fn u64(&mut self, v: u64) {
        self.before_value();
        push_u64(&mut self.out, v);
    }

    /// Writes a signed integer value.
    pub fn i64(&mut self, v: i64) {
        self.before_value();
        if v < 0 {
            self.out.push('-');
        }
        push_u64(&mut self.out, v.unsigned_abs());
    }

    /// Writes a float value (shortest round-trip form; `null` for
    /// non-finite values, which JSON cannot represent).
    pub fn f64(&mut self, v: f64) {
        if v.is_finite() {
            self.before_value();
            let _ = write!(self.out, "{v}");
        } else {
            self.null();
        }
    }

    /// Writes a boolean value.
    pub fn bool(&mut self, v: bool) {
        self.before_value();
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// Writes a JSON `null`.
    pub fn null(&mut self) {
        self.before_value();
        self.out.push_str("null");
    }

    /// Writes `Some(ms)` as a number, `None` as `null` — the encoding
    /// used for possibly-infinite expiration ages.
    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(v) => self.u64(v),
            None => self.null(),
        }
    }
}

/// `"00"`, `"01"`, … `"99"`: two decimal digits per table lookup.
const DIGIT_PAIRS: &[u8; 200] = b"\
0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// Formats `v` in decimal into the tail of `buf` and returns the digits,
/// without going through the `core::fmt` machinery — the event encoder
/// serializes several integers per line at request rate (span ids and µs
/// timestamps run to 12+ digits), and `write!` costs several times a
/// digit loop. Two digits per division.
pub(crate) fn decimal(buf: &mut [u8; 20], mut v: u64) -> &[u8] {
    // u64::MAX has 20 digits.
    let mut i = buf.len();
    while v >= 100 {
        #[allow(clippy::cast_possible_truncation)] // v % 100 < 100
        let pair = 2 * (v % 100) as usize;
        v /= 100;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    #[allow(clippy::cast_possible_truncation)] // v < 100
    let pair = 2 * v as usize;
    i -= 2;
    buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    // A one-digit head was written as "0d": skip the zero.
    &buf[i + usize::from(v < 10)..]
}

fn push_u64(out: &mut String, v: u64) {
    let mut buf = [0u8; 20];
    // The slice is ASCII digits by construction.
    out.push_str(std::str::from_utf8(decimal(&mut buf, v)).unwrap_or("0"));
}

/// Maximum container nesting [`parse_json`] accepts; deeper input is
/// rejected rather than risking unbounded recursion.
const MAX_JSON_DEPTH: usize = 64;

/// A parsed JSON value.
///
/// Integers keep their exact width (`U64`/`I64`) instead of collapsing
/// into `f64` — trace and span ids use the full 64-bit space and must
/// round-trip losslessly. Objects preserve field order.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer.
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// Any other number (fractions, exponents, out-of-range integers).
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source field order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up `key` in an object (first occurrence); `None` for
    /// non-objects and missing keys.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            Self::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Self::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as an `f64` (coercing either integer width).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Self::F64(v) => Some(*v),
            // Stats snapshots mix counters (integers) with means
            // (floats); both sides of the JSON round-trip coerce here.
            #[allow(clippy::cast_precision_loss)]
            Self::U64(v) => Some(*v as f64),
            #[allow(clippy::cast_precision_loss)]
            Self::I64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::Str(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Self::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// The elements, if the value is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            Self::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The fields in source order, if the value is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            Self::Obj(v) => Some(v),
            _ => None,
        }
    }
}

/// Why [`parse_json`] rejected its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset of the offending input.
    pub offset: usize,
    /// What went wrong.
    pub what: &'static str,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.what)
    }
}

impl std::error::Error for JsonParseError {}

/// Parses one JSON document. Trailing non-whitespace is an error; so is
/// nesting deeper than [`MAX_JSON_DEPTH`]. Never panics.
pub fn parse_json(input: &str) -> Result<JsonValue, JsonParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: &'static str) -> JsonParseError {
        JsonParseError {
            offset: self.pos,
            what,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonParseError> {
        if depth > MAX_JSON_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') if self.eat("null") => Ok(JsonValue::Null),
            Some(b't') if self.eat("true") => Ok(JsonValue::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, JsonParseError> {
        self.pos += 1; // consume '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, JsonParseError> {
        self.pos += 1; // consume '{'
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected object key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected ':'"));
            }
            self.pos += 1;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.pos += 1; // consume opening '"'
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast-forward over the unescaped run.
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            if self.pos > start {
                match std::str::from_utf8(&self.bytes[start..self.pos]) {
                    Ok(chunk) => out.push_str(chunk),
                    Err(_) => return Err(self.err("invalid UTF-8 in string")),
                }
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(_) => return Err(self.err("raw control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), JsonParseError> {
        let c = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
        self.pos += 1;
        match c {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: expect a \uXXXX low half.
                    if !self.eat("\\u") {
                        return Err(self.err("unpaired surrogate"));
                    }
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    hi
                };
                match char::from_u32(code) {
                    Some(ch) => out.push(ch),
                    None => return Err(self.err("invalid unicode escape")),
                }
            }
            _ => return Err(self.err("unknown escape")),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let mut value = 0u32;
        for _ in 0..4 {
            let d = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let nibble = match d {
                b'0'..=b'9' => u32::from(d - b'0'),
                b'a'..=b'f' => u32::from(d - b'a') + 10,
                b'A'..=b'F' => u32::from(d - b'A') + 10,
                _ => return Err(self.err("bad hex digit in \\u escape")),
            };
            value = (value << 4) | nibble;
            self.pos += 1;
        }
        Ok(value)
    }

    fn number(&mut self) -> Result<JsonValue, JsonParseError> {
        let start = self.pos;
        let mut integral = true;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = match std::str::from_utf8(&self.bytes[start..self.pos]) {
            Ok(t) => t,
            Err(_) => return Err(self.err("invalid number")),
        };
        if integral {
            if let Some(rest) = text.strip_prefix('-') {
                if let Ok(v) = rest.parse::<i64>() {
                    return Ok(JsonValue::I64(-v));
                }
            } else if let Ok(v) = text.parse::<u64>() {
                return Ok(JsonValue::U64(v));
            }
        }
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(JsonValue::F64(v)),
            _ => Err(self.err("invalid number")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_with_mixed_values() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("a");
        w.u64(1);
        w.key("b");
        w.string("x\"y");
        w.key("c");
        w.bool(false);
        w.key("d");
        w.null();
        w.end_object();
        assert_eq!(w.finish(), r#"{"a":1,"b":"x\"y","c":false,"d":null}"#);
    }

    #[test]
    fn nested_arrays_and_objects() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("rows");
        w.begin_array();
        w.begin_array();
        w.string("p");
        w.u64(2);
        w.end_array();
        w.begin_array();
        w.end_array();
        w.end_array();
        w.key("n");
        w.i64(-3);
        w.end_object();
        assert_eq!(w.finish(), r#"{"rows":[["p",2],[]],"n":-3}"#);
    }

    #[test]
    fn escapes_control_characters() {
        let mut s = String::new();
        escape_into(&mut s, "a\nb\t\u{1}\\");
        assert_eq!(s, "a\\nb\\t\\u0001\\\\");
    }

    #[test]
    fn floats_are_shortest_roundtrip_and_nonfinite_is_null() {
        let mut w = JsonWriter::new();
        w.begin_array();
        w.f64(0.25);
        w.f64(f64::NAN);
        w.f64(3.0);
        w.end_array();
        assert_eq!(w.finish(), "[0.25,null,3]");
    }

    #[test]
    fn optional_u64() {
        let mut w = JsonWriter::new();
        w.begin_array();
        w.opt_u64(Some(7));
        w.opt_u64(None);
        w.end_array();
        assert_eq!(w.finish(), "[7,null]");
    }

    #[test]
    fn push_u64_matches_display_at_every_digit_count() {
        let mut values = vec![0, u64::MAX];
        let mut power = 1u64;
        for _ in 0..19 {
            power *= 10;
            values.extend([power - 1, power, power + 1]);
        }
        for v in values {
            let mut out = String::from("x");
            push_u64(&mut out, v);
            assert_eq!(out, format!("x{v}"));
        }
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("ev");
        w.string("span");
        w.key("trace");
        w.u64(u64::MAX);
        w.key("parent");
        w.null();
        w.key("ok");
        w.bool(true);
        w.key("mean");
        w.f64(1.5);
        w.key("rows");
        w.begin_array();
        w.i64(-3);
        w.string("a\"b\n");
        w.end_array();
        w.end_object();
        let parsed = parse_json(&w.finish()).expect("round trip");
        assert_eq!(parsed.get("ev").and_then(JsonValue::as_str), Some("span"));
        // u64::MAX must survive exactly — span ids use the full width.
        assert_eq!(
            parsed.get("trace").and_then(JsonValue::as_u64),
            Some(u64::MAX)
        );
        assert_eq!(parsed.get("parent"), Some(&JsonValue::Null));
        assert_eq!(parsed.get("ok").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(parsed.get("mean").and_then(JsonValue::as_f64), Some(1.5));
        let rows = parsed.get("rows").and_then(JsonValue::as_array).unwrap();
        assert_eq!(rows[0], JsonValue::I64(-3));
        assert_eq!(rows[1], JsonValue::Str("a\"b\n".to_owned()));
    }

    #[test]
    fn parse_handles_whitespace_and_unicode_escapes() {
        let v = parse_json(" { \"k\" : [ 1 , \"\\u00e9\\ud83d\\ude00\" ] } ").unwrap();
        let arr = v.get("k").and_then(JsonValue::as_array).unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_str(), Some("é😀"));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "nul",
            "01x",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"lone \\ud800 surrogate\"",
            "1 2",
            "{\"a\":1}extra",
            "--1",
            "1e",
        ] {
            assert!(parse_json(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parse_rejects_runaway_nesting() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse_json(&deep).is_err());
        let ok = "[".repeat(20) + &"]".repeat(20);
        assert!(parse_json(&ok).is_ok());
    }

    #[test]
    fn parse_classifies_numbers() {
        let v = parse_json("[0, -7, 1.25, 2e3, 18446744073709551615]").unwrap();
        let arr = v.as_array().unwrap();
        assert_eq!(arr[0], JsonValue::U64(0));
        assert_eq!(arr[1], JsonValue::I64(-7));
        assert_eq!(arr[2], JsonValue::F64(1.25));
        assert_eq!(arr[3], JsonValue::F64(2000.0));
        assert_eq!(arr[4], JsonValue::U64(u64::MAX));
    }
}
