//! A request's span tree, shaped in one place for every driver.
//!
//! A trace is one client request: the `request` root; under it the
//! requester's `icp-round`, each `peer-fetch` attempt and the
//! `origin-fetch`; under the round each peer's `icp-handle`, and under a
//! peer fetch the responder's `doc-serve`. [`SpanRecorder`] builds every
//! one of those spans. It decides the kind, the parent, the peer and the
//! status word, each from the protocol input that closed the phase: a
//! [`RequesterInput`], the responder's answer, or the request's
//! [`RequestOutcome`]. It also builds the request's `Request` event
//! beside the root. A driver supplies only a [`Stamp`] per span, in its
//! own clock:
//!
//! - the synchronous [`crate::DistributedGroup`]: trace time, every span
//!   zero-length;
//! - the discrete-event simulator: virtual time;
//! - the live daemon: its shared wall clock, plus its I/O error labels.
//!
//! The two deterministic drivers number a trace's spans with
//! [`SeqSpanIds`]; the daemon draws them from a per-daemon counter
//! scoped by cache ([`coopcache_obs::scoped_id`]).

use crate::outcome::RequestOutcome;
use crate::requester::RequesterInput;
use coopcache_obs::{Event, RequestClass, Span, SpanKind, TraceCtx};
use coopcache_types::{CacheId, DocId};

/// What a driver supplies for one span: its id, and its start and end
/// in microseconds of the driver's clock.
pub type Stamp = (u64, u64, u64);

/// Span ids of the deterministic drivers: request `seq`'s trace has id
/// `seq` and its spans `(seq << 16) | k`, the root `k = 1` and the rest
/// `k = 2, 3, …` in allocation order, so two same-seed runs assemble
/// byte-identical trees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeqSpanIds(u64);

impl SeqSpanIds {
    /// The ids of request `seq`'s trace, none allocated yet.
    #[must_use]
    pub const fn new(seq: u64) -> Self {
        Self((seq << 16) | 2)
    }

    /// Allocates the trace's next span id.
    pub fn next_id(&mut self) -> u64 {
        self.0 += 1;
        self.0 - 1
    }

    /// The recorder of this trace, for a request for `doc` entering
    /// `cache`.
    #[must_use]
    pub const fn recorder(&self, cache: CacheId, doc: DocId) -> SpanRecorder {
        SpanRecorder::new(self.0 >> 16, (self.0 & !0xFFFF) | 1, cache, doc)
    }
}

/// Builds one cache's spans of one trace, all of them under one parent:
/// the requester's phases under the request's root, a responder's span
/// under the requester's span that caused it ([`SpanRecorder::under`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecorder {
    trace_id: u64,
    parent: u64,
    cache: CacheId,
    doc: DocId,
}

impl SpanRecorder {
    /// `cache`'s recorder of spans about `doc` under span `parent` of
    /// trace `trace_id`. A requester's `parent` is its root span.
    #[must_use]
    pub const fn new(trace_id: u64, parent: u64, cache: CacheId, doc: DocId) -> Self {
        Self {
            trace_id,
            parent,
            cache,
            doc,
        }
    }

    /// The recorder of `responder`'s span under span `parent`.
    #[must_use]
    pub const fn under(&self, parent: u64, responder: CacheId) -> Self {
        Self::new(self.trace_id, parent, responder, self.doc)
    }

    /// The context a requester sends with a query or fetch, so the
    /// responder's span hangs under span `parent`.
    #[must_use]
    pub const fn ctx(&self, parent: u64) -> TraceCtx {
        TraceCtx {
            trace_id: self.trace_id,
            parent_span: parent,
        }
    }

    /// The request's completion, closed by its `outcome`: the root span
    /// (its id is the requester's parent), whose status is the outcome's
    /// class, then request `seq`'s `Request` event with the measured
    /// `latency_us` (`None`: the driver has no clock).
    #[must_use]
    #[inline]
    pub fn done(
        &self,
        seq: u64,
        outcome: &RequestOutcome,
        latency_us: Option<u64>,
        (start_us, end_us): (u64, u64),
    ) -> [Event; 2] {
        let (class, responder, stored) = match *outcome {
            RequestOutcome::LocalHit => (RequestClass::LocalHit, None, false),
            RequestOutcome::RemoteHit {
                responder,
                stored_locally,
                ..
            } => (RequestClass::RemoteHit, Some(responder), stored_locally),
            RequestOutcome::Miss { stored_locally, .. } => {
                (RequestClass::Miss, None, stored_locally)
            }
        };
        let root = (self.parent, start_us, end_us);
        [
            self.span(SpanKind::Request, None, class.name(), root),
            Event::Request {
                seq,
                cache: self.cache,
                doc: self.doc,
                class,
                responder,
                stored,
                latency_us,
            },
        ]
    }

    /// The ICP round, closed by the input that decided it: `hit` at its
    /// first positive reply, `miss` once no reply is left.
    #[must_use]
    #[inline]
    pub fn icp_round(&self, closed: RequesterInput, at: Stamp) -> Event {
        let hit = matches!(closed, RequesterInput::IcpReply { hit: true, .. });
        let status = if hit { "hit" } else { "miss" };
        self.span(SpanKind::IcpRound, None, status, at)
    }

    /// One fetch attempt from `peer`, or from the origin when `peer` is
    /// `None`, closed by the input it produced (`stored`, `declined`,
    /// `not-found`) or by a label the driver names for a failure (the
    /// daemon's I/O error labels, its admission gate's `shed`).
    #[must_use]
    #[inline]
    pub fn fetch(&self, peer: Option<CacheId>, closed: FetchResult, at: Stamp) -> Event {
        use RequesterInput::{Fetched, OriginServed};
        let status = match closed {
            Ok(Fetched { stored: true, .. } | OriginServed { stored: true }) => "stored",
            Ok(Fetched { .. } | OriginServed { .. }) => "declined",
            Ok(_) => "not-found",
            Err(label) => label,
        };
        let kind = peer.map_or(SpanKind::OriginFetch, |_| SpanKind::PeerFetch);
        self.span(kind, peer, status, at)
    }

    /// A peer's handling of `requester`'s ICP query, answered `hit`.
    #[must_use]
    #[inline]
    pub fn icp_handle(&self, requester: CacheId, hit: bool, at: Stamp) -> Event {
        let status = if hit { "hit" } else { "miss" };
        self.span(SpanKind::IcpHandle, Some(requester), status, at)
    }

    /// A responder serving `requester`'s fetch: `promoted` says whether
    /// it refreshed its copy, `None` that it held none.
    #[must_use]
    #[inline]
    pub fn doc_serve(&self, requester: CacheId, promoted: Option<bool>, at: Stamp) -> Event {
        let status = promoted.map_or("not-found", |p| if p { "promoted" } else { "kept" });
        self.span(SpanKind::DocServe, Some(requester), status, at)
    }

    /// One of this recorder's spans, with status `word`.
    #[inline]
    fn span(&self, kind: SpanKind, peer: Option<CacheId>, word: &'static str, at: Stamp) -> Event {
        let (span_id, start_us, end_us) = at;
        Event::Span(Span {
            trace_id: self.trace_id,
            span_id,
            parent: (kind != SpanKind::Request).then_some(self.parent),
            cache: self.cache,
            kind,
            doc: Some(self.doc),
            peer,
            start_us,
            end_us,
            status: word,
        })
    }
}

/// How a fetch attempt closed: the input it produced, or the driver's
/// label for its failure.
pub type FetchResult = Result<RequesterInput, &'static str>;

#[cfg(test)]
mod tests {
    use super::*;

    fn span(event: Event) -> Span {
        match event {
            Event::Span(span) => span,
            other => panic!("not a span: {other:?}"),
        }
    }

    #[test]
    fn seq_ids_put_the_root_first_and_the_rest_in_allocation_order() {
        let mut ids = SeqSpanIds::new(3);
        let spans = ids.recorder(CacheId::new(2), DocId::new(9));
        assert_eq!([ids.next_id(), ids.next_id()], [3 << 16 | 2, 3 << 16 | 3]);
        let [root, request] = spans.done(3, &RequestOutcome::LocalHit, None, (5, 7));
        let root = span(root);
        assert_eq!(
            (root.trace_id, root.span_id, root.parent),
            (3, 3 << 16 | 1, None)
        );
        assert_eq!(
            (root.start_us, root.end_us, root.status),
            (5, 7, "local-hit")
        );
        assert!(matches!(
            request,
            Event::Request {
                seq: 3,
                latency_us: None,
                ..
            }
        ));
        let handle = span(spans.under(3 << 16 | 2, CacheId::new(0)).icp_handle(
            CacheId::new(2),
            true,
            (3 << 16 | 3, 6, 6),
        ));
        assert_eq!(
            (handle.parent, handle.cache),
            (Some(3 << 16 | 2), CacheId::new(0))
        );
        assert_eq!((handle.peer, handle.status), (Some(CacheId::new(2)), "hit"));
    }

    #[test]
    fn status_words_come_from_the_closing_input() {
        use RequesterInput::{Fetched, IcpReply, NotFound, OriginServed, RoundOver};
        let spans = SpanRecorder::new(1, 1, CacheId::new(0), DocId::new(1));
        let peer = Some(CacheId::new(1));
        let fetch = |peer, closed| span(spans.fetch(peer, closed, (2, 0, 0))).status;
        let fetched = |stored| {
            Ok(Fetched {
                stored,
                promoted: true,
            })
        };
        assert_eq!(fetch(peer, fetched(true)), "stored");
        assert_eq!(fetch(peer, fetched(false)), "declined");
        assert_eq!(fetch(peer, Ok(NotFound)), "not-found");
        assert_eq!(fetch(peer, Err("reset")), "reset");
        assert_eq!(fetch(None, Ok(OriginServed { stored: false })), "declined");
        assert_eq!(fetch(None, Err("shed")), "shed");
        let round = |closed| span(spans.icp_round(closed, (2, 0, 0))).status;
        assert_eq!(
            round(IcpReply {
                peer: CacheId::new(1),
                hit: true
            }),
            "hit"
        );
        assert_eq!(round(RoundOver), "miss");
        let serve = |promoted| span(spans.doc_serve(CacheId::new(0), promoted, (3, 0, 0))).status;
        assert_eq!(
            [serve(Some(true)), serve(Some(false)), serve(None)],
            ["promoted", "kept", "not-found"]
        );
    }
}
