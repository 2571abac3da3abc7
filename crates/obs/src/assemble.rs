//! Reconstructing trace trees from span events.
//!
//! A [`TraceAssembler`] folds [`Event::Span`] events — taken live from a
//! sink or re-read from a JSONL file, from any number of daemons — into
//! per-trace span lists, then renders each trace as an indented tree.
//! Because the daemons of a loopback cluster share one `SharedClock`,
//! the durations in one tree are mutually comparable even though its
//! spans were stamped on different daemons.
//!
//! Rendering has two modes: with timings (offset from trace start plus
//! duration, byte-identical for DES streams where time is simulated) and
//! without (`with_times = false`, structural only — byte-identical even
//! for wall-clock daemon runs with the same seed, which is what the
//! chaos determinism tests compare).

use crate::event::Event;
use crate::json::{parse_json, JsonParseError, JsonValue};
use crate::sink::EventSink;
use crate::span::{scoped_seq, Span, SpanKind};
use coopcache_types::{CacheId, DocId};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Deeper parent chains than this render as an elision marker rather
/// than recursing further (corrupt input could chain arbitrarily).
const MAX_RENDER_DEPTH: usize = 64;

/// One collected span. Identical to [`Span`] except the status is owned
/// (it may have been read back from a JSONL file).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// The trace this span belongs to.
    pub trace_id: u64,
    /// This span's id.
    pub span_id: u64,
    /// The parent span, `None` for the trace root.
    pub parent: Option<u64>,
    /// The cache that did the work.
    pub cache: CacheId,
    /// The protocol step covered.
    pub kind: SpanKind,
    /// The document involved, when there is one.
    pub doc: Option<DocId>,
    /// The remote peer involved, for fetch attempts.
    pub peer: Option<CacheId>,
    /// Start timestamp in microseconds.
    pub start_us: u64,
    /// End timestamp in microseconds.
    pub end_us: u64,
    /// Outcome label.
    pub status: String,
}

impl From<&Span> for SpanRecord {
    fn from(span: &Span) -> Self {
        Self {
            trace_id: span.trace_id,
            span_id: span.span_id,
            parent: span.parent,
            cache: span.cache,
            kind: span.kind,
            doc: span.doc,
            peer: span.peer,
            start_us: span.start_us,
            end_us: span.end_us,
            status: span.status.to_owned(),
        }
    }
}

impl SpanRecord {
    /// Decodes one span from its JSON event form; `None` if the value
    /// is not a well-formed `"ev":"span"` object.
    #[must_use]
    pub fn from_json(value: &JsonValue) -> Option<Self> {
        if value.get("ev").and_then(JsonValue::as_str) != Some("span") {
            return None;
        }
        let opt_id = |key: &str| match value.get(key) {
            Some(JsonValue::Null) | None => Some(None),
            Some(v) => v.as_u64().map(Some),
        };
        Some(Self {
            trace_id: value.get("trace")?.as_u64()?,
            span_id: value.get("span")?.as_u64()?,
            parent: opt_id("parent")?,
            cache: cache_id(value.get("cache")?.as_u64()?)?,
            kind: SpanKind::from_name(value.get("kind")?.as_str()?)?,
            doc: opt_id("doc")?.map(DocId::new),
            peer: match opt_id("peer")? {
                Some(p) => Some(cache_id(p)?),
                None => None,
            },
            start_us: value.get("start_us")?.as_u64()?,
            end_us: value.get("end_us")?.as_u64()?,
            status: value.get("status")?.as_str()?.to_owned(),
        })
    }
}

fn cache_id(raw: u64) -> Option<CacheId> {
    u16::try_from(raw).ok().map(CacheId::new)
}

/// Folds span events into per-request trace trees.
#[derive(Debug, Default)]
pub struct TraceAssembler {
    traces: BTreeMap<u64, Vec<SpanRecord>>,
}

impl TraceAssembler {
    /// Creates an empty assembler.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one event in; non-span events are ignored.
    pub fn observe(&mut self, event: &Event) {
        if let Event::Span(span) = event {
            self.push(SpanRecord::from(span));
        }
    }

    /// Adds one already-decoded span record.
    pub fn push(&mut self, record: SpanRecord) {
        self.traces.entry(record.trace_id).or_default().push(record);
    }

    /// Folds one JSONL event line in. Returns `true` if the line was a
    /// span event, `false` for any other well-formed event, and an
    /// error for lines that do not parse (or span lines with missing or
    /// mistyped fields).
    pub fn observe_json_line(&mut self, line: &str) -> Result<bool, JsonParseError> {
        let value = parse_json(line)?;
        if value.get("ev").and_then(JsonValue::as_str) != Some("span") {
            return Ok(false);
        }
        match SpanRecord::from_json(&value) {
            Some(record) => {
                self.push(record);
                Ok(true)
            }
            None => Err(JsonParseError {
                offset: 0,
                what: "malformed span event",
            }),
        }
    }

    /// Folds every line of a JSONL document in, skipping blank lines.
    /// Stops at the first malformed line.
    pub fn observe_jsonl(&mut self, text: &str) -> Result<(), JsonParseError> {
        for line in text.lines() {
            if !line.trim().is_empty() {
                self.observe_json_line(line)?;
            }
        }
        Ok(())
    }

    /// All trace ids seen, ascending.
    #[must_use]
    pub fn trace_ids(&self) -> Vec<u64> {
        self.traces.keys().copied().collect()
    }

    /// The spans of one trace, in arrival order.
    #[must_use]
    pub fn spans(&self, trace_id: u64) -> Option<&[SpanRecord]> {
        self.traces.get(&trace_id).map(Vec::as_slice)
    }

    /// Trace ids whose scoped sequence number (low 48 bits — the
    /// daemon's per-request counter, or the DES request index) is `seq`.
    #[must_use]
    pub fn trace_ids_for_seq(&self, seq: u64) -> Vec<u64> {
        self.traces
            .keys()
            .copied()
            .filter(|&id| scoped_seq(id) == seq)
            .collect()
    }

    /// Renders one trace as an indented tree, or `None` for an unknown
    /// trace id. With `with_times`, each line carries the span's offset
    /// from trace start and its duration; without, output is purely
    /// structural (identical across same-seed wall-clock runs).
    #[must_use]
    pub fn render(&self, trace_id: u64, with_times: bool) -> Option<String> {
        let mut out = String::new();
        if self.render_into(&mut out, trace_id, with_times) {
            Some(out)
        } else {
            None
        }
    }

    /// Renders every collected trace, ascending by trace id.
    #[must_use]
    pub fn render_all(&self, with_times: bool) -> String {
        let mut out = String::new();
        for &id in self.traces.keys() {
            self.render_into(&mut out, id, with_times);
        }
        out
    }

    fn render_into(&self, out: &mut String, trace_id: u64, with_times: bool) -> bool {
        let Some(spans) = self.traces.get(&trace_id) else {
            return false;
        };
        // Deterministic structural order: span ids embed (cache, alloc
        // counter), so sorting by id groups each daemon's spans in the
        // order it opened them regardless of event arrival order.
        let mut order: Vec<usize> = (0..spans.len()).collect();
        order.sort_by_key(|&i| (spans[i].span_id, i));
        let ids: BTreeSet<u64> = spans.iter().map(|s| s.span_id).collect();
        let mut children: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        let mut roots: Vec<usize> = Vec::new();
        for &i in &order {
            match spans[i].parent {
                // A parent that never showed up (lost line, crashed
                // daemon) leaves the child rendered as an extra root.
                Some(p) if p != spans[i].span_id && ids.contains(&p) => {
                    children.entry(p).or_default().push(i);
                }
                _ => roots.push(i),
            }
        }
        let start = spans.iter().map(|s| s.start_us).min().unwrap_or(0);
        let _ = writeln!(out, "trace {trace_id} ({} spans)", spans.len());
        let mut emitted = vec![false; spans.len()];
        let last = roots.len().saturating_sub(1);
        for (n, &root) in roots.iter().enumerate() {
            self.render_span(
                out,
                spans,
                &children,
                &mut emitted,
                root,
                "",
                n == last,
                start,
                with_times,
                0,
            );
        }
        true
    }

    #[allow(clippy::too_many_arguments)]
    fn render_span(
        &self,
        out: &mut String,
        spans: &[SpanRecord],
        children: &BTreeMap<u64, Vec<usize>>,
        emitted: &mut [bool],
        index: usize,
        prefix: &str,
        is_last: bool,
        trace_start: u64,
        with_times: bool,
        depth: usize,
    ) {
        if emitted.get(index).copied().unwrap_or(true) {
            return;
        }
        emitted[index] = true;
        let span = &spans[index];
        let branch = if is_last { "`-" } else { "|-" };
        let _ = write!(out, "{prefix}{branch} {}", span.kind.name());
        let _ = write!(out, " cache={}", span.cache.as_u16());
        if let Some(peer) = span.peer {
            let _ = write!(out, " peer={}", peer.as_u16());
        }
        if let Some(doc) = span.doc {
            let _ = write!(out, " doc={}", doc.as_u64());
        }
        let _ = write!(out, " status={}", span.status);
        if with_times {
            let _ = write!(
                out,
                " +{}us {}us",
                span.start_us.saturating_sub(trace_start),
                span.end_us.saturating_sub(span.start_us)
            );
        }
        out.push('\n');
        if depth >= MAX_RENDER_DEPTH {
            let _ = writeln!(out, "{prefix}   ...");
            return;
        }
        let next_prefix = format!("{prefix}{}  ", if is_last { " " } else { "|" });
        if let Some(kids) = children.get(&span.span_id) {
            let last = kids.len().saturating_sub(1);
            for (n, &kid) in kids.iter().enumerate() {
                self.render_span(
                    out,
                    spans,
                    children,
                    emitted,
                    kid,
                    &next_prefix,
                    n == last,
                    trace_start,
                    with_times,
                    depth + 1,
                );
            }
        }
    }
}

impl EventSink for TraceAssembler {
    fn emit(&mut self, event: &Event) {
        self.observe(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        trace: u64,
        id: u64,
        parent: Option<u64>,
        kind: SpanKind,
        status: &'static str,
    ) -> Span {
        Span {
            trace_id: trace,
            span_id: id,
            parent,
            cache: CacheId::new(u16::try_from(id >> 48).unwrap_or(0)),
            kind,
            doc: Some(DocId::new(7)),
            peer: None,
            start_us: id & 0xFF,
            end_us: (id & 0xFF) + 10,
            status,
        }
    }

    #[test]
    fn assembles_and_renders_a_tree() {
        let mut asm = TraceAssembler::new();
        // Out-of-order arrival: children before root.
        asm.observe(&Event::Span(span(5, 2, Some(1), SpanKind::IcpRound, "hit")));
        asm.observe(&Event::Span(span(
            5,
            3,
            Some(1),
            SpanKind::PeerFetch,
            "eof",
        )));
        asm.observe(&Event::Span(span(5, 1, None, SpanKind::Request, "miss")));
        assert_eq!(asm.trace_ids(), vec![5]);
        let tree = asm.render(5, false).expect("trace exists");
        let expected = "trace 5 (3 spans)\n\
                        `- request cache=0 doc=7 status=miss\n   \
                        |- icp-round cache=0 doc=7 status=hit\n   \
                        `- peer-fetch cache=0 doc=7 status=eof\n";
        assert_eq!(tree, expected);
        assert!(asm.render(6, false).is_none());
    }

    #[test]
    fn timed_render_offsets_from_trace_start() {
        let mut asm = TraceAssembler::new();
        let mut root = span(1, 1, None, SpanKind::Request, "local-hit");
        root.start_us = 100;
        root.end_us = 160;
        asm.observe(&Event::Span(root));
        let tree = asm.render(1, true).expect("trace exists");
        assert!(tree.contains("+0us 60us"), "got: {tree}");
    }

    #[test]
    fn orphan_and_self_parent_spans_become_roots() {
        let mut asm = TraceAssembler::new();
        asm.observe(&Event::Span(span(
            9,
            4,
            Some(99),
            SpanKind::DocServe,
            "kept",
        )));
        asm.observe(&Event::Span(span(
            9,
            5,
            Some(5),
            SpanKind::IcpHandle,
            "hit",
        )));
        let tree = asm.render(9, false).expect("trace exists");
        assert!(tree.contains("|- doc-serve"));
        assert!(tree.contains("`- icp-handle"));
    }

    #[test]
    fn round_trips_through_jsonl() {
        let mut asm = TraceAssembler::new();
        let original = Event::Span(span(3, 2, Some(1), SpanKind::OriginFetch, "stored"));
        let line = original.to_json();
        assert_eq!(asm.observe_json_line(&line), Ok(true));
        assert_eq!(
            asm.observe_json_line(r#"{"ev":"request","seq":0,"cache":0,"doc":1,"class":"miss","responder":null,"stored":true,"latency_us":null}"#),
            Ok(false)
        );
        assert!(asm.observe_json_line("{not json").is_err());
        assert!(asm.observe_json_line(r#"{"ev":"span","trace":1}"#).is_err());
        let spans = asm.spans(3).expect("trace exists");
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].kind, SpanKind::OriginFetch);
        assert_eq!(spans[0].status, "stored");
        assert_eq!(spans[0].parent, Some(1));
    }

    #[test]
    fn seq_lookup_uses_scoped_ids() {
        use crate::span::scoped_id;
        let mut asm = TraceAssembler::new();
        let t0 = scoped_id(CacheId::new(0), 4);
        let t1 = scoped_id(CacheId::new(2), 4);
        asm.observe(&Event::Span(span(t0, 1, None, SpanKind::Request, "miss")));
        asm.observe(&Event::Span(span(t1, 2, None, SpanKind::Request, "miss")));
        asm.observe(&Event::Span(span(9, 3, None, SpanKind::Request, "miss")));
        assert_eq!(asm.trace_ids_for_seq(4), vec![t0, t1]);
        assert_eq!(asm.trace_ids_for_seq(9), vec![9]);
    }

    #[test]
    fn render_all_orders_by_trace_id() {
        let mut asm = TraceAssembler::new();
        asm.observe(&Event::Span(span(8, 1, None, SpanKind::Request, "miss")));
        asm.observe(&Event::Span(span(2, 1, None, SpanKind::Request, "miss")));
        let all = asm.render_all(false);
        let first = all.find("trace 2 ").expect("trace 2 rendered");
        let second = all.find("trace 8 ").expect("trace 8 rendered");
        assert!(first < second);
    }
}
