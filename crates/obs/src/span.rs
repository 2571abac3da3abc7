//! Causal tracing: spans, trace contexts, and the id scheme that links
//! them across daemons.
//!
//! A request entering any driver opens a *trace* — a tree of spans, one
//! per protocol step (ICP round, peer fetch, origin fetch, remote
//! handling). The requester forwards a [`TraceCtx`] on its ICP and
//! document wire frames so the remote daemon's spans attach to the same
//! tree; all daemons in a loopback cluster stamp spans from one
//! `SharedClock`, which keeps cross-daemon durations comparable.
//!
//! Span and trace ids are plain `u64`s. The socket daemons partition the
//! id space by cache (high 16 bits) so concurrently-allocated ids never
//! collide and a structural sort groups each daemon's spans together;
//! the synchronous group and the DES derive ids from the request index
//! (high bits), which makes seeded runs byte-identical. Every driver
//! builds its spans with `coopcache_proxy::SpanRecorder`, the one place
//! that decides the tree's shape.

use coopcache_types::{CacheId, DocId};

/// Number of low bits holding the per-cache sequence in a scoped id.
const SCOPE_SHIFT: u32 = 48;

/// The trace context a requester piggybacks on outbound wire frames so
/// the serving daemon can attach its spans to the requester's trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceCtx {
    /// The trace the originating client request opened.
    pub trace_id: u64,
    /// The requester-side span the remote work is caused by.
    pub parent_span: u64,
}

/// What protocol step a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SpanKind {
    /// The whole client request, arrival to completion (trace root).
    Request,
    /// The requester's ICP query fan-out and reply wait.
    IcpRound,
    /// A peer handling one inbound ICP query (remote side).
    IcpHandle,
    /// One candidate peer fetch attempt, including retries.
    PeerFetch,
    /// A responder serving a document request (remote side).
    DocServe,
    /// The requester fetching from the origin server.
    OriginFetch,
}

impl SpanKind {
    /// Stable lowercase name used in the JSON encoding.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Self::Request => "request",
            Self::IcpRound => "icp-round",
            Self::IcpHandle => "icp-handle",
            Self::PeerFetch => "peer-fetch",
            Self::DocServe => "doc-serve",
            Self::OriginFetch => "origin-fetch",
        }
    }

    /// Inverse of [`SpanKind::name`], for decoding JSONL streams.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "request" => Some(Self::Request),
            "icp-round" => Some(Self::IcpRound),
            "icp-handle" => Some(Self::IcpHandle),
            "peer-fetch" => Some(Self::PeerFetch),
            "doc-serve" => Some(Self::DocServe),
            "origin-fetch" => Some(Self::OriginFetch),
            _ => None,
        }
    }
}

/// One completed unit of request-scoped work, emitted as
/// [`Event::Span`](crate::Event::Span) once the work finishes.
///
/// The `status` label comes from a closed vocabulary: the request
/// classes (`local-hit`, `remote-hit`, `miss`), placement decisions
/// (`stored`, `declined`, `promoted`, `kept`), probe results (`hit`,
/// `miss`, `not-found`), and the chaos error labels (`refused`,
/// `reset`, `timeout`, `eof`, `silent`, `proto`, `io`). Keeping it
/// closed and `'static` is what lets seeded chaos runs compare span
/// trees byte-for-byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The trace this span belongs to.
    pub trace_id: u64,
    /// This span's id, unique within the run.
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
    /// Start timestamp in microseconds (shared wall clock for the
    /// daemons, simulated time for the DES).
    pub start_us: u64,
    /// End timestamp in microseconds, same clock as `start_us`.
    pub end_us: u64,
    /// Outcome label from the closed status vocabulary.
    pub status: &'static str,
}

impl Span {
    /// Span duration in microseconds (saturating — a skewed clock never
    /// underflows).
    #[must_use]
    pub const fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// Builds the daemon-scoped id for sequence `n` of `cache`: the high 16
/// bits carry the cache, the low 48 the per-daemon sequence.
#[must_use]
pub fn scoped_id(cache: CacheId, n: u64) -> u64 {
    (u64::from(cache.as_u16()) << SCOPE_SHIFT) | (n & ((1 << SCOPE_SHIFT) - 1))
}

/// The cache encoded in a daemon-scoped trace or span id.
#[must_use]
pub const fn scoped_cache(id: u64) -> u16 {
    // Truncation is the inverse of the 16-bit shift in `scoped_id`.
    #[allow(clippy::cast_possible_truncation)]
    {
        (id >> SCOPE_SHIFT) as u16
    }
}

/// The per-daemon sequence number encoded in a daemon-scoped id.
#[must_use]
pub const fn scoped_seq(id: u64) -> u64 {
    id & ((1 << SCOPE_SHIFT) - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoped_ids_round_trip() {
        let id = scoped_id(CacheId::new(3), 41);
        assert_eq!(scoped_cache(id), 3);
        assert_eq!(scoped_seq(id), 41);
        assert_eq!(scoped_id(CacheId::new(0), 0), 0);
    }

    #[test]
    fn scoped_seq_masks_overflow() {
        let id = scoped_id(CacheId::new(1), u64::MAX);
        assert_eq!(scoped_cache(id), 1);
        assert_eq!(scoped_seq(id), (1 << SCOPE_SHIFT) - 1);
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in [
            SpanKind::Request,
            SpanKind::IcpRound,
            SpanKind::IcpHandle,
            SpanKind::PeerFetch,
            SpanKind::DocServe,
            SpanKind::OriginFetch,
        ] {
            assert_eq!(SpanKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(SpanKind::from_name("bogus"), None);
    }

    #[test]
    fn duration_saturates() {
        let span = Span {
            trace_id: 1,
            span_id: 2,
            parent: None,
            cache: CacheId::new(0),
            kind: SpanKind::Request,
            doc: None,
            peer: None,
            start_us: 10,
            end_us: 4,
            status: "ok",
        };
        assert_eq!(span.duration_us(), 0);
    }
}
