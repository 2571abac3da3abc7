//! The structured event taxonomy shared by all three execution modes.
//!
//! The synchronous group, the discrete-event simulator and the socket
//! daemon all run the same placement logic; the events here are the
//! common trace language they emit, so a JSONL stream from any driver is
//! comparable line-by-line with a stream from any other. Every event is a
//! plain value — no timestamps of its own beyond what the caller supplies
//! — which keeps replays of the same trace byte-identical.

use crate::alert::{AlertMetric, AlertState};
use crate::json::{decimal, escape_into, is_plain};
use crate::span::Span;
use coopcache_types::{CacheId, DocId, ExpirationAge};

/// How a request was ultimately served (the three-way split behind every
/// hit-rate figure in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestClass {
    /// Served by the cache the client is attached to.
    LocalHit,
    /// Served by a peer in the group.
    RemoteHit,
    /// Fetched from the origin server.
    Miss,
}

impl RequestClass {
    /// Stable lowercase name used in the JSON encoding.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Self::LocalHit => "local-hit",
            Self::RemoteHit => "remote-hit",
            Self::Miss => "miss",
        }
    }

    /// Inverse of [`Self::name`], for offline JSONL replay.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "local-hit" => Some(Self::LocalHit),
            "remote-hit" => Some(Self::RemoteHit),
            "miss" => Some(Self::Miss),
            _ => None,
        }
    }
}

/// Which of the EA scheme's three placement rules produced a decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlacementRole {
    /// §3.4: the requester decides whether to store a remote-hit copy.
    RequesterStore,
    /// §3.5: the responder decides whether to refresh (promote) its copy.
    ResponderPromote,
    /// Hierarchy variant: a parent decides whether to keep a pass-through
    /// copy on the way down.
    ParentStore,
}

impl PlacementRole {
    /// Stable lowercase name used in the JSON encoding.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Self::RequesterStore => "requester-store",
            Self::ResponderPromote => "responder-promote",
            Self::ParentStore => "parent-store",
        }
    }
}

/// Why a document left the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EvictionCause {
    /// Displaced by the replacement policy to make room.
    Capacity,
    /// Removed explicitly (invalidation, shutdown).
    Explicit,
    /// TTL expiry.
    Expired,
}

impl EvictionCause {
    /// Stable lowercase name used in the JSON encoding.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Self::Capacity => "capacity",
            Self::Explicit => "explicit",
            Self::Expired => "expired",
        }
    }
}

/// The protocol step at which a requester observed a peer failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultOp {
    /// The peer never answered the ICP query before the deadline.
    Icp,
    /// The TCP connection to the peer's document port failed.
    Connect,
    /// The connection was established but the transfer failed
    /// (reset, premature EOF, truncated body, malformed header).
    Transfer,
}

impl FaultOp {
    /// Stable lowercase name used in the JSON encoding.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Self::Icp => "icp",
            Self::Connect => "connect",
            Self::Transfer => "transfer",
        }
    }
}

/// Which of a daemon's two server loops reported an error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServerLoop {
    /// The UDP ICP responder loop.
    Icp,
    /// The TCP document server loop.
    Doc,
}

impl ServerLoop {
    /// Stable lowercase name used in the JSON encoding.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Self::Icp => "icp",
            Self::Doc => "doc",
        }
    }
}

/// One protocol-level occurrence, emitted through an
/// [`EventSink`](crate::EventSink).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A client request completed, with its outcome.
    Request {
        /// Request sequence number within the run (trace order).
        seq: u64,
        /// The cache the client is attached to.
        cache: CacheId,
        /// The requested document.
        doc: DocId,
        /// How it was served.
        class: RequestClass,
        /// The supplying peer, for remote hits.
        responder: Option<CacheId>,
        /// Whether the requester kept a local copy.
        stored: bool,
        /// Request latency in microseconds: simulated latency under the
        /// DES, wall-clock under the socket daemon, absent in the
        /// synchronous runner (which has no notion of time-to-serve).
        latency_us: Option<u64>,
    },
    /// An ICP query was sent to a peer.
    IcpQuery {
        /// The querying cache.
        from: CacheId,
        /// The queried peer.
        to: CacheId,
        /// The document asked about.
        doc: DocId,
    },
    /// An ICP reply came back.
    IcpReply {
        /// The replying peer.
        from: CacheId,
        /// The document asked about.
        doc: DocId,
        /// Whether the peer holds the document.
        hit: bool,
    },
    /// An EA placement rule fired, with both expiration ages it compared
    /// (§3.4/§3.5) — the heart of the paper's scheme.
    Placement {
        /// The cache applying the rule.
        cache: CacheId,
        /// The document being placed.
        doc: DocId,
        /// Which rule fired.
        role: PlacementRole,
        /// This cache's own expiration age at decision time.
        self_age: ExpirationAge,
        /// The other party's piggybacked expiration age.
        peer_age: ExpirationAge,
        /// The decision: store/promote (`true`) or decline (`false`).
        /// Its JSON line adds `"tie"`, whether both ages were exactly
        /// equal — the case where §3.4's strict `>` and §3.5's `≥`
        /// diverge.
        stored: bool,
    },
    /// A document was evicted; its document expiration age (paper eq. 1)
    /// is what feeds the cache expiration age (eq. 5).
    Eviction {
        /// The evicting cache.
        cache: CacheId,
        /// The evicted document.
        doc: DocId,
        /// The document expiration age at eviction, in milliseconds.
        age_ms: u64,
        /// Why it was evicted.
        cause: EvictionCause,
    },
    /// A requester observed a peer failing at some step of the remote
    /// fetch protocol. The failure is absorbed by failover — it is never
    /// surfaced to the client.
    PeerFault {
        /// The cache that observed the failure (the requester).
        cache: CacheId,
        /// The peer that failed.
        peer: CacheId,
        /// The document being fetched.
        doc: DocId,
        /// The protocol step that failed.
        op: FaultOp,
        /// A short label from a closed vocabulary (`refused`, `reset`,
        /// `timeout`, `eof`, `silent`, `proto`, `io`) — stable across
        /// runs so chaos traces stay deterministic.
        error: &'static str,
    },
    /// A requester moved on after a peer failure: to the next positive
    /// ICP replier, or to the origin when none remain.
    Failover {
        /// The failing-over requester.
        cache: CacheId,
        /// The document being fetched.
        doc: DocId,
        /// The candidate that just failed.
        from: CacheId,
        /// The next candidate, or `None` for the origin server.
        to: Option<CacheId>,
    },
    /// A peer crossed the consecutive-failure threshold; the requester
    /// stops querying it until the backoff expires.
    PeerQuarantined {
        /// The cache applying the quarantine.
        cache: CacheId,
        /// The quarantined peer.
        peer: CacheId,
        /// Consecutive failures observed at quarantine time.
        failures: u64,
        /// How long the peer is benched, in milliseconds (doubles on
        /// each re-quarantine up to the configured cap).
        backoff_ms: u64,
    },
    /// A daemon server loop hit a non-timeout socket error and kept
    /// running (the loop only exits on shutdown).
    ServerLoopError {
        /// The daemon whose loop erred.
        cache: CacheId,
        /// Which server loop.
        server: ServerLoop,
        /// A short label from the same closed vocabulary as
        /// [`Event::PeerFault`].
        error: &'static str,
    },
    /// The synchronous runner closed one reporting window of the trace.
    WindowRollover {
        /// Zero-based window index.
        index: u64,
        /// Requests served inside this window.
        requests: u64,
        /// Local hits inside this window.
        local_hits: u64,
        /// Remote hits inside this window.
        remote_hits: u64,
        /// Mean cache expiration age across the group at rollover
        /// (`None` while every tracker is still empty/infinite).
        mean_age_ms: Option<u64>,
    },
    /// One completed unit of request-scoped work (trace tree node); the
    /// requester's trace context rides the wire so remote daemons join
    /// the same tree.
    Span(Span),
    /// A pooled connection carried one more exchange instead of a fresh
    /// `connect`. Each side counts into its own daemon: the requester
    /// when an exchange on a pooled connection succeeds, and the
    /// responder when a persistent connection serves its second (or
    /// later) document frame. Summed over a cluster, a peer fetch on a
    /// reused connection therefore counts twice and an origin fetch
    /// once.
    ConnReused {
        /// The cache observing the reuse.
        cache: CacheId,
        /// The other end when it is a cache: the responder on the
        /// requester's side, the requester on the responder's (`None` for
        /// the origin pool).
        peer: Option<CacheId>,
    },
    /// Memory-pressure admission control declined to store an
    /// origin-fetched document: the request was still served, but the
    /// cacheable-store work was shed.
    AdmissionShed {
        /// The cache shedding the store.
        cache: CacheId,
        /// The document that was served but not stored.
        doc: DocId,
    },
    /// An SLO rule crossed its burn count (or recovered): the alert
    /// plane's state transition. Carries no timestamp of its own — under
    /// a live daemon the series points already carry wall-clock time,
    /// and omitting it here keeps same-workload alert streams
    /// byte-comparable; all values are integers for the same reason.
    Alert {
        /// The node the rule evaluated on.
        cache: CacheId,
        /// The watched metric, which also fixes the side of the
        /// threshold that violates (its JSON `"op"`).
        metric: AlertMetric,
        /// The rule's threshold (permille, µs, or count).
        threshold: u64,
        /// The metric value at the transition.
        value: u64,
        /// Consecutive windows in the transition's condition: the burn
        /// count when firing, `1` when resolved (resolution is immediate).
        windows: u64,
        /// Entering (`firing`) or leaving (`resolved`) the alert state.
        state: AlertState,
    },
}

/// The discriminant of an [`Event`], for counting and filtering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// [`Event::Request`].
    Request,
    /// [`Event::IcpQuery`].
    IcpQuery,
    /// [`Event::IcpReply`].
    IcpReply,
    /// [`Event::Placement`].
    Placement,
    /// [`Event::Eviction`].
    Eviction,
    /// [`Event::PeerFault`].
    PeerFault,
    /// [`Event::Failover`].
    Failover,
    /// [`Event::PeerQuarantined`].
    PeerQuarantined,
    /// [`Event::ServerLoopError`].
    ServerLoopError,
    /// [`Event::WindowRollover`].
    WindowRollover,
    /// [`Event::Span`].
    Span,
    /// [`Event::ConnReused`].
    ConnReused,
    /// [`Event::AdmissionShed`].
    AdmissionShed,
    /// [`Event::Alert`].
    Alert,
}

/// All event kinds, in the order they appear in summaries.
///
/// Must list every [`EventKind`] exactly once, at the position
/// [`EventKind::index`] assigns it; the `event_kinds` tests enforce the
/// lockstep, and the exhaustive match in `index` makes adding a variant
/// without extending this array a compile error.
pub const EVENT_KINDS: [EventKind; 14] = [
    EventKind::Request,
    EventKind::IcpQuery,
    EventKind::IcpReply,
    EventKind::Placement,
    EventKind::Eviction,
    EventKind::PeerFault,
    EventKind::Failover,
    EventKind::PeerQuarantined,
    EventKind::ServerLoopError,
    EventKind::WindowRollover,
    EventKind::Span,
    EventKind::ConnReused,
    EventKind::AdmissionShed,
    EventKind::Alert,
];

impl EventKind {
    /// Stable lowercase name used as the JSON `"ev"` tag.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Self::Request => "request",
            Self::IcpQuery => "icp-query",
            Self::IcpReply => "icp-reply",
            Self::Placement => "placement",
            Self::Eviction => "eviction",
            Self::PeerFault => "peer-fault",
            Self::Failover => "failover",
            Self::PeerQuarantined => "quarantine",
            Self::ServerLoopError => "loop-error",
            Self::WindowRollover => "window",
            Self::Span => "span",
            Self::ConnReused => "connections-reused",
            Self::AdmissionShed => "admission-shed",
            Self::Alert => "alert",
        }
    }

    /// The inverse of [`Self::name`]: the kind carrying a JSON `"ev"`
    /// tag, `None` for unknown tags. Series replay uses this to count
    /// events straight off a JSONL stream without decoding full events.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        EVENT_KINDS.into_iter().find(|k| k.name() == name)
    }

    /// This kind's position in [`EVENT_KINDS`] — the counter slot used
    /// by summaries and the live stats registry.
    ///
    /// The match is exhaustive on purpose: adding an `EventKind` variant
    /// fails to compile here until it is given a slot, and the
    /// `event_kinds_lockstep` test then fails until [`EVENT_KINDS`] is
    /// extended to match.
    #[must_use]
    pub const fn index(self) -> usize {
        match self {
            Self::Request => 0,
            Self::IcpQuery => 1,
            Self::IcpReply => 2,
            Self::Placement => 3,
            Self::Eviction => 4,
            Self::PeerFault => 5,
            Self::Failover => 6,
            Self::PeerQuarantined => 7,
            Self::ServerLoopError => 8,
            Self::WindowRollover => 9,
            Self::Span => 10,
            Self::ConnReused => 11,
            Self::AdmissionShed => 12,
            Self::Alert => 13,
        }
    }

    /// Whether this kind is *request-scoped*: telemetry describing one
    /// request's protocol flow, emitted at request volume. These are the
    /// kinds a daemon sheds wholesale for head-sampled-out traces (see
    /// [`mute_request_scoped`](crate::mute_request_scoped)) — the rest
    /// are low-rate cluster-health signals (evictions, faults,
    /// quarantine, admission sheds, alerts) that must stay exact no
    /// matter the sampling posture.
    ///
    /// Exhaustive on purpose, like [`Self::index`]: a new variant fails
    /// to compile until it is classified.
    #[must_use]
    pub const fn is_request_scoped(self) -> bool {
        match self {
            Self::Request
            | Self::IcpQuery
            | Self::IcpReply
            | Self::Placement
            | Self::Span
            | Self::ConnReused => true,
            Self::Eviction
            | Self::PeerFault
            | Self::Failover
            | Self::PeerQuarantined
            | Self::ServerLoopError
            | Self::WindowRollover
            | Self::AdmissionShed
            | Self::Alert => false,
        }
    }
}

/// `Some(ms)` for a finite age, `None` for [`ExpirationAge::Infinite`] —
/// the encoding the JSON stream uses (`null` = infinite).
#[must_use]
pub fn age_to_ms(age: ExpirationAge) -> Option<u64> {
    age.as_finite().map(|d| d.as_millis())
}

impl Event {
    /// This event's kind.
    #[must_use]
    pub const fn kind(&self) -> EventKind {
        match self {
            Self::Request { .. } => EventKind::Request,
            Self::IcpQuery { .. } => EventKind::IcpQuery,
            Self::IcpReply { .. } => EventKind::IcpReply,
            Self::Placement { .. } => EventKind::Placement,
            Self::Eviction { .. } => EventKind::Eviction,
            Self::PeerFault { .. } => EventKind::PeerFault,
            Self::Failover { .. } => EventKind::Failover,
            Self::PeerQuarantined { .. } => EventKind::PeerQuarantined,
            Self::ServerLoopError { .. } => EventKind::ServerLoopError,
            Self::WindowRollover { .. } => EventKind::WindowRollover,
            Self::Span(..) => EventKind::Span,
            Self::ConnReused { .. } => EventKind::ConnReused,
            Self::AdmissionShed { .. } => EventKind::AdmissionShed,
            Self::Alert { .. } => EventKind::Alert,
        }
    }

    /// Encodes the event as one compact JSON object (no trailing newline).
    ///
    /// Field order is fixed, ages are milliseconds-or-`null`, so two runs
    /// over the same trace produce byte-identical lines.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = Vec::new();
        self.write_json(&mut out);
        // The encoder writes ASCII fragments and escaped `str`s only.
        String::from_utf8(out).unwrap_or_default()
    }

    /// Appends the [`Self::to_json`] encoding to `out` — the one place
    /// each variant's fields are laid out.
    ///
    /// Event lines have a fixed shape, so the encoder is a sequence of
    /// pre-escaped literal fragments interleaved with the values: a line
    /// costs what copying its bytes costs, with no per-key escape scan or
    /// comma bookkeeping. Only the caller-supplied strings (`error`, span
    /// `status`) go through [`escape_into`]; the `name()` vocabularies are
    /// this crate's own literals. [`JsonWriter`](crate::JsonWriter) is for
    /// documents whose shape is dynamic.
    pub fn write_json(&self, out: &mut Vec<u8>) {
        match self {
            Self::Request {
                seq,
                cache,
                doc,
                class,
                responder,
                stored,
                latency_us,
            } => {
                num(out, r#"{"ev":"request","seq":"#, *seq);
                num(out, r#","cache":"#, cache_u64(*cache));
                num(out, r#","doc":"#, doc.as_u64());
                name(out, r#","class":"#, class.name());
                opt(out, r#","responder":"#, responder.map(cache_u64));
                flag(out, r#","stored":"#, *stored);
                opt(out, r#","latency_us":"#, *latency_us);
            }
            Self::IcpQuery { from, to, doc } => {
                num(out, r#"{"ev":"icp-query","from":"#, cache_u64(*from));
                num(out, r#","to":"#, cache_u64(*to));
                num(out, r#","doc":"#, doc.as_u64());
            }
            Self::IcpReply { from, doc, hit } => {
                num(out, r#"{"ev":"icp-reply","from":"#, cache_u64(*from));
                num(out, r#","doc":"#, doc.as_u64());
                flag(out, r#","hit":"#, *hit);
            }
            Self::Placement {
                cache,
                doc,
                role,
                self_age,
                peer_age,
                stored,
            } => {
                num(out, r#"{"ev":"placement","cache":"#, cache_u64(*cache));
                num(out, r#","doc":"#, doc.as_u64());
                name(out, r#","role":"#, role.name());
                opt(out, r#","self_age_ms":"#, age_to_ms(*self_age));
                opt(out, r#","peer_age_ms":"#, age_to_ms(*peer_age));
                flag(out, r#","stored":"#, *stored);
                flag(out, r#","tie":"#, self_age == peer_age);
            }
            Self::Eviction {
                cache,
                doc,
                age_ms,
                cause,
            } => {
                num(out, r#"{"ev":"eviction","cache":"#, cache_u64(*cache));
                num(out, r#","doc":"#, doc.as_u64());
                num(out, r#","age_ms":"#, *age_ms);
                name(out, r#","cause":"#, cause.name());
            }
            Self::PeerFault {
                cache,
                peer,
                doc,
                op,
                error,
            } => {
                num(out, r#"{"ev":"peer-fault","cache":"#, cache_u64(*cache));
                num(out, r#","peer":"#, cache_u64(*peer));
                num(out, r#","doc":"#, doc.as_u64());
                name(out, r#","op":"#, op.name());
                text(out, r#","error":"#, error);
            }
            Self::Failover {
                cache,
                doc,
                from,
                to,
            } => {
                num(out, r#"{"ev":"failover","cache":"#, cache_u64(*cache));
                num(out, r#","doc":"#, doc.as_u64());
                num(out, r#","from":"#, cache_u64(*from));
                opt(out, r#","to":"#, to.map(cache_u64));
            }
            Self::PeerQuarantined {
                cache,
                peer,
                failures,
                backoff_ms,
            } => {
                num(out, r#"{"ev":"quarantine","cache":"#, cache_u64(*cache));
                num(out, r#","peer":"#, cache_u64(*peer));
                num(out, r#","failures":"#, *failures);
                num(out, r#","backoff_ms":"#, *backoff_ms);
            }
            Self::ServerLoopError {
                cache,
                server,
                error,
            } => {
                num(out, r#"{"ev":"loop-error","cache":"#, cache_u64(*cache));
                name(out, r#","server":"#, server.name());
                text(out, r#","error":"#, error);
            }
            Self::WindowRollover {
                index,
                requests,
                local_hits,
                remote_hits,
                mean_age_ms,
            } => {
                num(out, r#"{"ev":"window","index":"#, *index);
                num(out, r#","requests":"#, *requests);
                num(out, r#","local_hits":"#, *local_hits);
                num(out, r#","remote_hits":"#, *remote_hits);
                opt(out, r#","mean_age_ms":"#, *mean_age_ms);
            }
            Self::Span(span) => {
                num(out, r#"{"ev":"span","trace":"#, span.trace_id);
                num(out, r#","span":"#, span.span_id);
                opt(out, r#","parent":"#, span.parent);
                num(out, r#","cache":"#, cache_u64(span.cache));
                name(out, r#","kind":"#, span.kind.name());
                opt(out, r#","doc":"#, span.doc.map(DocId::as_u64));
                opt(out, r#","peer":"#, span.peer.map(cache_u64));
                num(out, r#","start_us":"#, span.start_us);
                num(out, r#","end_us":"#, span.end_us);
                text(out, r#","status":"#, span.status);
            }
            Self::ConnReused { cache, peer } => {
                num(
                    out,
                    r#"{"ev":"connections-reused","cache":"#,
                    cache_u64(*cache),
                );
                opt(out, r#","peer":"#, peer.map(cache_u64));
            }
            Self::AdmissionShed { cache, doc } => {
                num(out, r#"{"ev":"admission-shed","cache":"#, cache_u64(*cache));
                num(out, r#","doc":"#, doc.as_u64());
            }
            Self::Alert {
                cache,
                metric,
                threshold,
                value,
                windows,
                state,
            } => {
                num(out, r#"{"ev":"alert","cache":"#, cache_u64(*cache));
                name(out, r#","metric":"#, metric.name());
                name(out, r#","op":"#, metric.side());
                num(out, r#","threshold":"#, *threshold);
                num(out, r#","value":"#, *value);
                num(out, r#","windows":"#, *windows);
                name(out, r#","state":"#, state.name());
            }
        }
        out.push(b'}');
    }
}

fn cache_u64(cache: CacheId) -> u64 {
    u64::from(cache.as_u16())
}

/// The encoder's value writers: each appends the pre-escaped fragment
/// `lead` (everything up to and including the field's `:`), then the
/// value. Inlined so every fragment is copied at its constant length.
#[inline(always)]
fn num(out: &mut Vec<u8>, lead: &str, v: u64) {
    out.extend_from_slice(lead.as_bytes());
    out.extend_from_slice(decimal(&mut [0; 20], v));
}

#[inline(always)]
fn opt(out: &mut Vec<u8>, lead: &str, v: Option<u64>) {
    match v {
        Some(v) => num(out, lead, v),
        None => {
            out.extend_from_slice(lead.as_bytes());
            out.extend_from_slice(b"null");
        }
    }
}

#[inline(always)]
fn flag(out: &mut Vec<u8>, lead: &str, v: bool) {
    out.extend_from_slice(lead.as_bytes());
    out.extend_from_slice(if v { b"true" } else { b"false" });
}

/// A string from one of this crate's `name()` vocabularies: plain ASCII
/// by construction, so quoted without an escape scan.
#[inline(always)]
fn name(out: &mut Vec<u8>, lead: &str, v: &'static str) {
    out.extend_from_slice(lead.as_bytes());
    out.push(b'"');
    out.extend_from_slice(v.as_bytes());
    out.push(b'"');
}

/// A caller-supplied string, escaped.
#[inline(always)]
fn text(out: &mut Vec<u8>, lead: &str, v: &str) {
    out.extend_from_slice(lead.as_bytes());
    out.push(b'"');
    if is_plain(v) {
        out.extend_from_slice(v.as_bytes());
    } else {
        let mut escaped = String::new();
        escape_into(&mut escaped, v);
        out.extend_from_slice(escaped.as_bytes());
    }
    out.push(b'"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use coopcache_types::DurationMs;

    /// The pinned bytes of every variant: the expected line is a literal,
    /// and each line must parse back with the `"ev"` tag its kind names.
    #[test]
    fn every_variant_json_shape() {
        use crate::alert::{AlertMetric, AlertState};
        use crate::json::{parse_json, JsonValue};
        use crate::span::{Span, SpanKind};
        let big = CacheId::new(u16::MAX);
        let cases: Vec<(Event, &str)> = vec![
            (
                Event::Request {
                    seq: 3,
                    cache: CacheId::new(1),
                    doc: DocId::new(42),
                    class: RequestClass::RemoteHit,
                    responder: Some(CacheId::new(2)),
                    stored: true,
                    latency_us: None,
                },
                r#"{"ev":"request","seq":3,"cache":1,"doc":42,"class":"remote-hit","responder":2,"stored":true,"latency_us":null}"#,
            ),
            (
                Event::Request {
                    seq: u64::MAX,
                    cache: big,
                    doc: DocId::new(u64::MAX),
                    class: RequestClass::Miss,
                    responder: None,
                    stored: false,
                    latency_us: Some(u64::MAX),
                },
                r#"{"ev":"request","seq":18446744073709551615,"cache":65535,"doc":18446744073709551615,"class":"miss","responder":null,"stored":false,"latency_us":18446744073709551615}"#,
            ),
            (
                Event::IcpQuery {
                    from: CacheId::new(0),
                    to: CacheId::new(1),
                    doc: DocId::new(5),
                },
                r#"{"ev":"icp-query","from":0,"to":1,"doc":5}"#,
            ),
            (
                Event::IcpReply {
                    from: CacheId::new(1),
                    doc: DocId::new(5),
                    hit: true,
                },
                r#"{"ev":"icp-reply","from":1,"doc":5,"hit":true}"#,
            ),
            (
                Event::Placement {
                    cache: CacheId::new(0),
                    doc: DocId::new(7),
                    role: PlacementRole::RequesterStore,
                    self_age: ExpirationAge::Infinite,
                    peer_age: ExpirationAge::finite(DurationMs::from_millis(250)),
                    stored: true,
                },
                r#"{"ev":"placement","cache":0,"doc":7,"role":"requester-store","self_age_ms":null,"peer_age_ms":250,"stored":true,"tie":false}"#,
            ),
            (
                Event::Placement {
                    cache: big,
                    doc: DocId::new(u64::MAX),
                    role: PlacementRole::ParentStore,
                    self_age: ExpirationAge::Infinite,
                    peer_age: ExpirationAge::Infinite,
                    stored: false,
                },
                r#"{"ev":"placement","cache":65535,"doc":18446744073709551615,"role":"parent-store","self_age_ms":null,"peer_age_ms":null,"stored":false,"tie":true}"#,
            ),
            (
                Event::Eviction {
                    cache: CacheId::new(3),
                    doc: DocId::new(9),
                    age_ms: 1_500,
                    cause: EvictionCause::Capacity,
                },
                r#"{"ev":"eviction","cache":3,"doc":9,"age_ms":1500,"cause":"capacity"}"#,
            ),
            (
                Event::PeerFault {
                    cache: CacheId::new(0),
                    peer: CacheId::new(2),
                    doc: DocId::new(7),
                    op: FaultOp::Connect,
                    error: "refused",
                },
                r#"{"ev":"peer-fault","cache":0,"peer":2,"doc":7,"op":"connect","error":"refused"}"#,
            ),
            (
                // The one caller-supplied string: quote, backslash,
                // newline and a control byte must all come out escaped.
                Event::PeerFault {
                    cache: big,
                    peer: big,
                    doc: DocId::new(u64::MAX),
                    op: FaultOp::Transfer,
                    error: "a\"b\\c\nd\u{1}",
                },
                r#"{"ev":"peer-fault","cache":65535,"peer":65535,"doc":18446744073709551615,"op":"transfer","error":"a\"b\\c\nd\u0001"}"#,
            ),
            (
                Event::Failover {
                    cache: CacheId::new(0),
                    doc: DocId::new(7),
                    from: CacheId::new(2),
                    to: None,
                },
                r#"{"ev":"failover","cache":0,"doc":7,"from":2,"to":null}"#,
            ),
            (
                Event::Failover {
                    cache: CacheId::new(0),
                    doc: DocId::new(7),
                    from: CacheId::new(2),
                    to: Some(CacheId::new(3)),
                },
                r#"{"ev":"failover","cache":0,"doc":7,"from":2,"to":3}"#,
            ),
            (
                Event::PeerQuarantined {
                    cache: CacheId::new(0),
                    peer: CacheId::new(2),
                    failures: 3,
                    backoff_ms: 500,
                },
                r#"{"ev":"quarantine","cache":0,"peer":2,"failures":3,"backoff_ms":500}"#,
            ),
            (
                Event::ServerLoopError {
                    cache: CacheId::new(1),
                    server: ServerLoop::Doc,
                    error: "proto",
                },
                r#"{"ev":"loop-error","cache":1,"server":"doc","error":"proto"}"#,
            ),
            (
                Event::ServerLoopError {
                    cache: CacheId::new(1),
                    server: ServerLoop::Icp,
                    error: "\"\\\n\u{1f}",
                },
                r#"{"ev":"loop-error","cache":1,"server":"icp","error":"\"\\\n\u001f"}"#,
            ),
            (
                Event::WindowRollover {
                    index: 2,
                    requests: 100,
                    local_hits: 30,
                    remote_hits: 10,
                    mean_age_ms: None,
                },
                r#"{"ev":"window","index":2,"requests":100,"local_hits":30,"remote_hits":10,"mean_age_ms":null}"#,
            ),
            (
                Event::WindowRollover {
                    index: u64::MAX,
                    requests: 1,
                    local_hits: 0,
                    remote_hits: 0,
                    mean_age_ms: Some(77),
                },
                r#"{"ev":"window","index":18446744073709551615,"requests":1,"local_hits":0,"remote_hits":0,"mean_age_ms":77}"#,
            ),
            (
                Event::Span(Span {
                    trace_id: 7,
                    span_id: 9,
                    parent: Some(8),
                    cache: CacheId::new(2),
                    kind: SpanKind::PeerFetch,
                    doc: Some(DocId::new(41)),
                    peer: Some(CacheId::new(1)),
                    start_us: 1_000,
                    end_us: 1_450,
                    status: "refused",
                }),
                r#"{"ev":"span","trace":7,"span":9,"parent":8,"cache":2,"kind":"peer-fetch","doc":41,"peer":1,"start_us":1000,"end_us":1450,"status":"refused"}"#,
            ),
            (
                Event::Span(Span {
                    trace_id: u64::MAX,
                    span_id: u64::MAX,
                    parent: None,
                    cache: CacheId::new(0),
                    kind: SpanKind::Request,
                    doc: None,
                    peer: None,
                    start_us: 0,
                    end_us: u64::MAX,
                    status: "remote-hit",
                }),
                r#"{"ev":"span","trace":18446744073709551615,"span":18446744073709551615,"parent":null,"cache":0,"kind":"request","doc":null,"peer":null,"start_us":0,"end_us":18446744073709551615,"status":"remote-hit"}"#,
            ),
            (
                Event::ConnReused {
                    cache: CacheId::new(0),
                    peer: Some(CacheId::new(2)),
                },
                r#"{"ev":"connections-reused","cache":0,"peer":2}"#,
            ),
            (
                Event::ConnReused {
                    cache: CacheId::new(1),
                    peer: None,
                },
                r#"{"ev":"connections-reused","cache":1,"peer":null}"#,
            ),
            (
                Event::AdmissionShed {
                    cache: CacheId::new(3),
                    doc: DocId::new(9),
                },
                r#"{"ev":"admission-shed","cache":3,"doc":9}"#,
            ),
            (
                Event::Alert {
                    cache: CacheId::new(2),
                    metric: AlertMetric::HitRate,
                    threshold: 500,
                    value: 321,
                    windows: 3,
                    state: AlertState::Firing,
                },
                r#"{"ev":"alert","cache":2,"metric":"hit-rate","op":"below","threshold":500,"value":321,"windows":3,"state":"firing"}"#,
            ),
            (
                Event::Alert {
                    cache: CacheId::new(2),
                    metric: AlertMetric::P99Latency,
                    threshold: 1_000_000,
                    value: 750_000,
                    windows: 1,
                    state: AlertState::Resolved,
                },
                r#"{"ev":"alert","cache":2,"metric":"p99-latency","op":"above","threshold":1000000,"value":750000,"windows":1,"state":"resolved"}"#,
            ),
        ];
        let mut covered = [false; EVENT_KINDS.len()];
        for (event, want) in &cases {
            let line = event.to_json();
            assert_eq!(line, *want, "{event:?}");
            let parsed = parse_json(&line).unwrap_or_else(|e| panic!("{line}: {e:?}"));
            assert_eq!(
                parsed.get("ev").and_then(JsonValue::as_str),
                Some(event.kind().name()),
                "{line}"
            );
            // The caller-supplied text survives the round trip unescaped.
            if let Event::PeerFault { error, .. } | Event::ServerLoopError { error, .. } = event {
                assert_eq!(
                    parsed.get("error").and_then(JsonValue::as_str),
                    Some(*error)
                );
            }
            covered[event.kind().index()] = true;
        }
        assert_eq!(covered, [true; EVENT_KINDS.len()], "a variant has no case");
    }

    /// Satellite guard: `EVENT_KINDS` must stay in lockstep with the
    /// `EventKind` enum. The exhaustive match inside
    /// [`EventKind::index`] makes adding a variant a compile error until
    /// it is slotted, and this test then fails until `EVENT_KINDS` lists
    /// it at that slot.
    #[test]
    fn event_kinds_lockstep() {
        for (i, kind) in EVENT_KINDS.iter().enumerate() {
            assert_eq!(
                kind.index(),
                i,
                "EVENT_KINDS[{i}] = {kind:?} is out of lockstep with EventKind::index"
            );
        }
        // Every slot `index` can assign must exist in the array: the
        // indices above are a bijection onto 0..len, so a variant
        // slotted beyond the array would break the `index() == i` loop
        // for whichever kind it displaced — and a duplicate would too.
        let mut names: Vec<&str> = EVENT_KINDS.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EVENT_KINDS.len(), "duplicate kind names");
    }

    #[test]
    fn kinds_cover_all_events() {
        assert_eq!(EVENT_KINDS.len(), 14);
        for kind in EVENT_KINDS {
            assert!(!kind.name().is_empty());
        }
    }

    #[test]
    fn from_name_inverts_name() {
        for kind in EVENT_KINDS {
            assert_eq!(EventKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(EventKind::from_name("no-such-event"), None);
    }

    #[test]
    fn fault_name_vocabularies() {
        assert_eq!(FaultOp::Icp.name(), "icp");
        assert_eq!(FaultOp::Transfer.name(), "transfer");
        assert_eq!(ServerLoop::Icp.name(), "icp");
        assert_eq!(ServerLoop::Doc.name(), "doc");
    }

    #[test]
    fn age_conversion() {
        assert_eq!(age_to_ms(ExpirationAge::Infinite), None);
        assert_eq!(
            age_to_ms(ExpirationAge::finite(DurationMs::from_millis(9))),
            Some(9)
        );
    }
}
