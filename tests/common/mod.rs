//! Helpers shared by the integration test files.

use coopcache::obs::{scoped_seq, Event, EventSink, Span, SpanKind};
use std::collections::BTreeMap;

/// A sink that keeps every event, in emission order.
#[derive(Debug, Default)]
pub struct Collected(pub Vec<Event>);

impl EventSink for Collected {
    fn emit(&mut self, event: &Event) {
        self.0.push(*event);
    }
}

/// Checks the shape of every span tree in `events`, one driver's whole
/// stream, and returns how many trees it checked:
/// - each `Request` event has a trace, and each trace exactly one root,
///   a `request` span whose status is that event's class;
/// - every other span's parent is a span of the same trace;
/// - `icp-handle` hangs only under `icp-round` and `doc-serve` only
///   under `peer-fetch`; the requester's phases hang under the root.
pub fn check_span_trees(events: &[Event]) -> usize {
    let mut traces: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    let mut classes = BTreeMap::new();
    for event in events {
        match event {
            Event::Span(span) => traces.entry(span.trace_id).or_default().push(span),
            Event::Request {
                seq, cache, class, ..
            } => {
                classes.insert((*cache, *seq), class.name());
            }
            _ => {}
        }
    }
    assert_eq!(traces.len(), classes.len(), "one trace per request");
    for (&trace, spans) in &traces {
        let kinds: BTreeMap<u64, SpanKind> = spans.iter().map(|s| (s.span_id, s.kind)).collect();
        assert_eq!(kinds.len(), spans.len(), "trace {trace}: a span id repeats");
        let roots: Vec<&&Span> = spans.iter().filter(|s| s.parent.is_none()).collect();
        let [root] = roots[..] else {
            panic!("trace {trace}: {} roots", roots.len());
        };
        assert_eq!(root.kind, SpanKind::Request, "trace {trace}: root {root:?}");
        let class = classes.get(&(root.cache, scoped_seq(trace)));
        assert_eq!(class, Some(&root.status), "trace {trace}: root {root:?}");
        for span in spans.iter().filter(|s| s.parent.is_some()) {
            let under = match span.kind {
                SpanKind::IcpHandle => SpanKind::IcpRound,
                SpanKind::DocServe => SpanKind::PeerFetch,
                SpanKind::IcpRound | SpanKind::PeerFetch | SpanKind::OriginFetch => {
                    SpanKind::Request
                }
                SpanKind::Request => panic!("trace {trace}: a request span has a parent"),
            };
            let parent = span.parent.and_then(|p| kinds.get(&p));
            assert_eq!(parent, Some(&under), "trace {trace}: {span:?}");
        }
    }
    traces.len()
}
