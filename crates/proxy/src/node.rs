//! A single proxy node: one cache plus the protocol handlers.
//!
//! [`ProxyNode`] contains no I/O and no knowledge of how messages travel.
//! Its handlers are written once, generic over the [`Store`] they run
//! on: the synchronous [`crate::DistributedGroup`] and the discrete-event
//! simulator drive them over a single-owner [`Cache`], and the
//! real-socket runtime in `coopcache-net` drives the very same bodies
//! over a shared `ConcurrentCache` through [`crate::ConcurrentNode`] — so
//! every execution mode executes identical placement code.

use crate::message::{HttpRequest, HttpResponse, IcpQuery, IcpReply};
use crate::store::Store;
use coopcache_core::{
    Cache, CacheConfig, EvictionReason, EvictionRecord, ExpirationFlavor, InsertOutcome,
    PlacementScheme, PolicyKind,
};
use coopcache_obs::{Event, EventKind, EvictionCause, PlacementRole, SinkHandle, StatsRegistry};
use coopcache_types::{ByteSize, CacheId, DocId, ExpirationAge, Timestamp};

/// Where a node reports its placement decisions and evictions. Like
/// [`Store`], a seam in a private module: the single-owner node owns its
/// handles ([`Handles`]); [`crate::ConcurrentNode`] lends its own for one
/// call ([`Lent`]), so a handler call costs no reference counts.
pub trait Telemetry {
    /// Optional event sink; `None` costs one branch per protocol step.
    fn sink(&self) -> Option<&SinkHandle>;
    /// Optional live counters; unlike the sink these count placements
    /// and evictions even when no sink is installed (relaxed atomics,
    /// so the hot path takes no lock).
    fn stats(&self) -> Option<&StatsRegistry>;
}

/// Telemetry a node owns: an optional sink and no registry, which only
/// [`crate::ConcurrentNode`] keeps (the default, no sink, is the
/// zero-cost one).
#[derive(Debug, Clone, Default)]
pub struct Handles {
    sink: Option<SinkHandle>,
}

impl Telemetry for Handles {
    fn sink(&self) -> Option<&SinkHandle> {
        self.sink.as_ref()
    }

    fn stats(&self) -> Option<&StatsRegistry> {
        None
    }
}

/// Telemetry borrowed for the length of one handler call.
#[derive(Debug, Clone, Copy)]
pub struct Lent<'a> {
    pub(crate) sink: Option<&'a SinkHandle>,
    pub(crate) stats: &'a StatsRegistry,
}

impl Telemetry for Lent<'_> {
    fn sink(&self) -> Option<&SinkHandle> {
        self.sink
    }

    fn stats(&self) -> Option<&StatsRegistry> {
        Some(self.stats)
    }
}

/// One cooperative proxy: a cache plus the requester/responder logic of
/// the configured [`PlacementScheme`].
///
/// `S` is the store the handlers run on and `T` where they report — the
/// single-owner [`Cache`] and owned handles, unless
/// [`crate::ConcurrentNode`] is lending its shared cache and telemetry
/// for one call.
///
/// # Example
///
/// ```
/// use coopcache_proxy::{IcpQuery, ProxyNode};
/// use coopcache_core::{PlacementScheme, PolicyKind};
/// use coopcache_types::{ByteSize, CacheId, DocId, Timestamp};
///
/// let mut node = ProxyNode::new(
///     CacheId::new(0),
///     ByteSize::from_kb(64),
///     PolicyKind::Lru,
///     PlacementScheme::Ea,
/// );
/// let now = Timestamp::from_secs(1);
/// node.complete_origin_fetch(DocId::new(5), ByteSize::from_kb(4), now);
/// let reply = node.handle_icp_query(IcpQuery { from: CacheId::new(1), doc: DocId::new(5) });
/// assert!(reply.hit);
/// ```
#[derive(Debug)]
pub struct ProxyNode<S = Cache, T = Handles> {
    pub(crate) cache: S,
    pub(crate) scheme: PlacementScheme,
    pub(crate) telemetry: T,
}

impl ProxyNode {
    /// Creates a node with the default expiration-age window.
    #[must_use]
    pub fn new(
        id: CacheId,
        capacity: ByteSize,
        policy: PolicyKind,
        scheme: PlacementScheme,
    ) -> Self {
        Self::from_config(CacheConfig::new(id, capacity, policy), scheme)
    }

    /// Creates a node from a full cache configuration (window and TTL
    /// honored; exactly one shard, see [`CacheConfig::build`]).
    #[must_use]
    pub fn from_config(config: CacheConfig, scheme: PlacementScheme) -> Self {
        Self {
            cache: config.build(),
            scheme,
            telemetry: Handles::default(),
        }
    }

    /// Attaches an event sink; placement decisions and evictions from
    /// this node flow into it.
    pub fn set_sink(&mut self, sink: SinkHandle) {
        self.telemetry.sink = Some(sink);
    }

    /// Sets (or clears) the underlying cache's freshness TTL.
    pub fn set_ttl(&mut self, ttl: Option<coopcache_types::DurationMs>) {
        self.cache.set_ttl(ttl);
    }

    /// Read access to the underlying cache (stats, tracker, entries).
    #[must_use]
    pub fn cache(&self) -> &Cache {
        &self.cache
    }
}

impl<S: Store, T: Telemetry> ProxyNode<S, T> {
    fn emit_placement(
        &self,
        doc: DocId,
        role: PlacementRole,
        self_age: ExpirationAge,
        peer_age: ExpirationAge,
        stored: bool,
    ) {
        if let Some(stats) = self.telemetry.stats() {
            stats.record(EventKind::Placement);
        }
        let Some(sink) = self.telemetry.sink() else {
            return;
        };
        // A muted thread (the head sampler dropped this request's trace)
        // would have the event dropped by the sink handle anyway; bail
        // before building it. The counter above stays exact either way.
        if coopcache_obs::request_scoped_muted() {
            return;
        }
        sink.emit(&Event::Placement {
            cache: self.id(),
            doc,
            role,
            self_age,
            peer_age,
            stored,
            tie: self_age == peer_age,
        });
    }

    /// Reports the victims of a store. Called with the store operation
    /// already returned, so no shard lock is ever held across an emit.
    fn emit_evictions(&self, evictions: &[EvictionRecord]) {
        if evictions.is_empty() {
            return;
        }
        if let Some(stats) = self.telemetry.stats() {
            for _ in evictions {
                stats.record(EventKind::Eviction);
            }
        }
        let Some(sink) = self.telemetry.sink() else {
            return;
        };
        let flavor = self.cache.expiration_flavor();
        for rec in evictions {
            let age = match flavor {
                ExpirationFlavor::Lru => rec.entry.lru_expiration_age(rec.evicted_at),
                ExpirationFlavor::Lfu => rec.entry.lfu_expiration_age(rec.evicted_at),
            };
            sink.emit(&Event::Eviction {
                cache: self.id(),
                doc: rec.entry.doc,
                age_ms: age.as_millis(),
                cause: match rec.reason {
                    EvictionReason::CapacityPressure => EvictionCause::Capacity,
                    EvictionReason::Explicit => EvictionCause::Explicit,
                    EvictionReason::Expired => EvictionCause::Expired,
                },
            });
        }
    }

    /// Stores a document and reports the evictions it caused.
    fn insert_and_emit(&mut self, doc: DocId, size: ByteSize, now: Timestamp) -> InsertOutcome {
        let outcome = self.cache.insert(doc, size, now);
        self.emit_evictions(outcome.evictions());
        outcome
    }

    /// This node's cache id.
    #[must_use]
    pub fn id(&self) -> CacheId {
        self.cache.id()
    }

    /// The placement scheme in force.
    #[must_use]
    pub fn scheme(&self) -> PlacementScheme {
        self.scheme
    }

    /// This node's current cache expiration age.
    #[must_use]
    pub fn expiration_age(&self) -> ExpirationAge {
        self.cache.expiration_age()
    }

    /// Serves a local client request; `Some(size)` on a local hit.
    pub fn handle_client_lookup(&mut self, doc: DocId, now: Timestamp) -> Option<ByteSize> {
        self.cache.lookup(doc, now)
    }

    /// Answers an ICP query (read-only).
    #[must_use]
    pub fn handle_icp_query(&self, query: IcpQuery) -> IcpReply {
        IcpReply {
            from: self.id(),
            doc: query.doc,
            hit: self.cache.contains(query.doc),
        }
    }

    /// Responder side of a remote hit: serves the document and applies the
    /// scheme's promotion rule (paper §3.5) using the piggybacked requester
    /// age. Returns the response and whether the entry was promoted.
    ///
    /// Returns `None` when the document is no longer cached (it can be
    /// evicted, or go stale under a TTL, between the ICP reply and the
    /// HTTP request — the requester then tries its next candidate).
    pub fn handle_http_request(
        &mut self,
        request: HttpRequest,
        now: Timestamp,
    ) -> Option<(HttpResponse, bool)> {
        let responder_age = self.expiration_age();
        let promote = self
            .scheme
            .responder_promotes(responder_age, request.requester_age);
        let size = self.cache.serve_remote(request.doc, now, promote)?;
        self.emit_placement(
            request.doc,
            PlacementRole::ResponderPromote,
            responder_age,
            request.requester_age,
            promote,
        );
        let response = HttpResponse {
            from: self.id(),
            doc: request.doc,
            size,
            responder_age,
        };
        Some((response, promote))
    }

    /// Builds the HTTP request this node sends after a positive ICP reply,
    /// capturing the node's current expiration age.
    #[must_use]
    pub fn build_http_request(&self, doc: DocId) -> HttpRequest {
        HttpRequest {
            from: self.id(),
            doc,
            requester_age: self.expiration_age(),
        }
    }

    /// Requester side of a remote hit: applies the scheme's store rule to
    /// the received response. Returns `true` iff a local copy was stored.
    ///
    /// The store decision compares the expiration age *captured in the
    /// request we sent* against the responder's piggybacked age, exactly
    /// as the wire protocol does.
    pub fn complete_remote_fetch(
        &mut self,
        sent: HttpRequest,
        response: HttpResponse,
        now: Timestamp,
    ) -> bool {
        debug_assert_eq!(sent.doc, response.doc, "response for a different doc");
        let store = self
            .scheme
            .requester_stores(sent.requester_age, response.responder_age);
        self.emit_placement(
            sent.doc,
            PlacementRole::RequesterStore,
            sent.requester_age,
            response.responder_age,
            store,
        );
        store
            && self
                .insert_and_emit(response.doc, response.size, now)
                .is_stored()
    }

    /// Requester side of a group miss in the *distributed* architecture:
    /// the document came from the origin server and is always stored
    /// (both schemes; paper §4.1).
    pub fn complete_origin_fetch(&mut self, doc: DocId, size: ByteSize, now: Timestamp) -> bool {
        self.insert_and_emit(doc, size, now).is_stored()
    }

    /// Parent side of a hierarchical miss: the parent fetched `doc` from
    /// the origin (or above) on behalf of a child whose age was
    /// piggybacked on the request; it keeps a copy only when the scheme
    /// says so. Returns the response to send down, and whether a copy was
    /// kept here.
    pub fn resolve_miss_for_child(
        &mut self,
        request: HttpRequest,
        size: ByteSize,
        now: Timestamp,
    ) -> (HttpResponse, bool) {
        let parent_age = self.expiration_age();
        let keep = self
            .scheme
            .requester_stores(parent_age, request.requester_age);
        self.emit_placement(
            request.doc,
            PlacementRole::ParentStore,
            parent_age,
            request.requester_age,
            keep,
        );
        let stored = keep
            && matches!(
                self.insert_and_emit(request.doc, size, now),
                InsertOutcome::Stored(_) | InsertOutcome::AlreadyPresent
            );
        (
            HttpResponse {
                from: self.id(),
                doc: request.doc,
                size,
                responder_age: parent_age,
            },
            stored,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(id: u16, cap_kb: u64, scheme: PlacementScheme) -> ProxyNode {
        ProxyNode::new(
            CacheId::new(id),
            ByteSize::from_kb(cap_kb),
            PolicyKind::Lru,
            scheme,
        )
    }

    fn t(ms: u64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    fn d(i: u64) -> DocId {
        DocId::new(i)
    }

    fn kb(n: u64) -> ByteSize {
        ByteSize::from_kb(n)
    }

    /// Forces a node's expiration age down by churning tiny documents
    /// through it: lots of rapid evictions => high contention => low age.
    fn make_contended(node: &mut ProxyNode, base_ms: u64) {
        for i in 0..64 {
            node.complete_origin_fetch(d(100_000 + i), node.cache().capacity(), t(base_ms + i));
        }
    }

    #[test]
    fn icp_reflects_contents() {
        let mut n = node(0, 64, PlacementScheme::Ea);
        let q = IcpQuery {
            from: CacheId::new(1),
            doc: d(5),
        };
        assert!(!n.handle_icp_query(q).hit);
        n.complete_origin_fetch(d(5), kb(4), t(0));
        assert!(n.handle_icp_query(q).hit);
        assert_eq!(n.handle_icp_query(q).from, CacheId::new(0));
    }

    #[test]
    fn client_lookup_hits_and_misses() {
        let mut n = node(0, 64, PlacementScheme::AdHoc);
        assert_eq!(n.handle_client_lookup(d(1), t(0)), None);
        n.complete_origin_fetch(d(1), kb(4), t(1));
        assert_eq!(n.handle_client_lookup(d(1), t(2)), Some(kb(4)));
    }

    #[test]
    fn http_request_carries_current_age() {
        let n = node(0, 64, PlacementScheme::Ea);
        let req = n.build_http_request(d(1));
        assert_eq!(req.requester_age, ExpirationAge::Infinite);
        assert_eq!(req.from, CacheId::new(0));
    }

    #[test]
    fn responder_serves_and_reports_age() {
        let mut responder = node(1, 64, PlacementScheme::Ea);
        responder.complete_origin_fetch(d(7), kb(4), t(0));
        let req = HttpRequest {
            from: CacheId::new(0),
            doc: d(7),
            requester_age: ExpirationAge::Infinite,
        };
        let (resp, promoted) = responder.handle_http_request(req, t(10)).unwrap();
        assert!(promoted, "a calm responder promotes");
        assert_eq!(resp.size, kb(4));
        assert_eq!(resp.doc, d(7));
        assert_eq!(resp.responder_age, ExpirationAge::Infinite);
    }

    #[test]
    fn responder_returns_none_for_evicted_doc() {
        let mut responder = node(1, 64, PlacementScheme::Ea);
        let req = HttpRequest {
            from: CacheId::new(0),
            doc: d(7),
            requester_age: ExpirationAge::Infinite,
        };
        assert!(responder.handle_http_request(req, t(0)).is_none());
    }

    #[test]
    fn ea_requester_skips_store_when_more_contended() {
        // Responder never evicted => infinite age. Requester heavily
        // contended => finite age. EA: requester must NOT store.
        let mut requester = node(0, 4, PlacementScheme::Ea);
        make_contended(&mut requester, 0);
        assert!(requester.expiration_age() < ExpirationAge::Infinite);
        let sent = requester.build_http_request(d(1));
        let resp = HttpResponse {
            from: CacheId::new(1),
            doc: d(1),
            size: kb(1),
            responder_age: ExpirationAge::Infinite,
        };
        assert!(!requester.complete_remote_fetch(sent, resp, t(1_000)));
        assert!(!requester.cache().contains(d(1)));
    }

    #[test]
    fn ad_hoc_requester_always_stores() {
        let mut requester = node(0, 4, PlacementScheme::AdHoc);
        make_contended(&mut requester, 0);
        let sent = requester.build_http_request(d(1));
        let resp = HttpResponse {
            from: CacheId::new(1),
            doc: d(1),
            size: kb(1),
            responder_age: ExpirationAge::Infinite,
        };
        assert!(requester.complete_remote_fetch(sent, resp, t(1_000)));
        assert!(requester.cache().contains(d(1)));
    }

    #[test]
    fn ea_responder_skips_promotion_for_calmer_requester() {
        // Contended responder serving a calm (infinite-age) requester:
        // the entry must NOT be refreshed.
        let mut responder = node(1, 8, PlacementScheme::Ea);
        responder.complete_origin_fetch(d(1), kb(4), t(0));
        responder.complete_origin_fetch(d(2), kb(4), t(1));
        // Make the responder contended so its age is finite.
        responder.complete_origin_fetch(d(3), kb(8), t(2)); // evicts 1 and 2
        responder.complete_origin_fetch(d(4), kb(4), t(3)); // evicts 3
        responder.complete_origin_fetch(d(5), kb(4), t(4));
        let before = responder.cache().entry(d(4)).copied().unwrap();
        let req = HttpRequest {
            from: CacheId::new(0),
            doc: d(4),
            requester_age: ExpirationAge::Infinite,
        };
        let (resp, promoted) = responder.handle_http_request(req, t(10)).unwrap();
        assert!(!promoted);
        assert!(resp.responder_age < ExpirationAge::Infinite);
        let after = responder.cache().entry(d(4)).copied().unwrap();
        assert_eq!(before, after, "EA responder refreshed a doomed replica");
    }

    #[test]
    fn ad_hoc_responder_always_promotes() {
        let mut responder = node(1, 8, PlacementScheme::AdHoc);
        responder.complete_origin_fetch(d(4), kb(4), t(0));
        let req = HttpRequest {
            from: CacheId::new(0),
            doc: d(4),
            requester_age: ExpirationAge::Infinite,
        };
        assert!(responder.handle_http_request(req, t(10)).unwrap().1);
        let entry = responder.cache().entry(d(4)).unwrap();
        assert_eq!(entry.hit_count, 2);
        assert_eq!(entry.last_hit_at, t(10));
    }

    #[test]
    fn parent_resolution_applies_strict_rule() {
        // Calm parent, calm child: ages tie (both infinite) => strict rule
        // says the parent does NOT keep a copy.
        let mut parent = node(9, 64, PlacementScheme::Ea);
        let req = HttpRequest {
            from: CacheId::new(0),
            doc: d(1),
            requester_age: ExpirationAge::Infinite,
        };
        let (resp, stored) = parent.resolve_miss_for_child(req, kb(4), t(0));
        assert!(!stored);
        assert!(!parent.cache().contains(d(1)));
        assert_eq!(resp.size, kb(4));
        // Contended child (finite age) vs calm parent: parent stores.
        let req2 = HttpRequest {
            from: CacheId::new(0),
            doc: d(2),
            requester_age: ExpirationAge::finite(coopcache_types::DurationMs::from_secs(1)),
        };
        let (_, stored2) = parent.resolve_miss_for_child(req2, kb(4), t(1));
        assert!(stored2);
        assert!(parent.cache().contains(d(2)));
    }

    #[test]
    fn sink_receives_placement_and_eviction_events() {
        use coopcache_obs::{Event, EventKind, RingBufferSink, SinkHandle};
        use std::sync::{Arc, Mutex};

        let ring = Arc::new(Mutex::new(RingBufferSink::new(256)));
        let mut requester = node(0, 4, PlacementScheme::Ea);
        requester.set_sink(SinkHandle::from_arc(Arc::clone(&ring)));
        // Churn causes capacity evictions => Eviction events.
        make_contended(&mut requester, 0);
        // A remote fetch decision => a Placement event with both ages.
        let sent = requester.build_http_request(d(1));
        let resp = HttpResponse {
            from: CacheId::new(1),
            doc: d(1),
            size: kb(1),
            responder_age: ExpirationAge::Infinite,
        };
        requester.complete_remote_fetch(sent, resp, t(1_000));
        let guard = ring.lock().unwrap();
        let mut evictions = 0;
        let mut placements = 0;
        for ev in guard.events() {
            match ev.kind() {
                EventKind::Eviction => evictions += 1,
                EventKind::Placement => {
                    placements += 1;
                    let Event::Placement {
                        role,
                        stored,
                        peer_age,
                        ..
                    } = ev
                    else {
                        unreachable!()
                    };
                    assert_eq!(*role, PlacementRole::RequesterStore);
                    assert!(!stored, "contended EA requester must decline");
                    assert_eq!(*peer_age, ExpirationAge::Infinite);
                }
                _ => {}
            }
        }
        assert!(evictions > 0, "churn must surface eviction events");
        assert_eq!(placements, 1);
    }

    #[test]
    fn stats_registry_counts_without_a_sink() {
        use crate::ConcurrentNode;
        use coopcache_obs::EventKind;

        // The one registry slot is the shared node's: with no sink
        // installed, its counters must still move.
        let n = ConcurrentNode::from_config(
            CacheConfig::new(CacheId::new(0), kb(4), PolicyKind::Lru),
            PlacementScheme::AdHoc,
        );
        for i in 0..64 {
            n.complete_origin_fetch(d(100_000 + i), n.cache().capacity(), t(i));
        }
        let sent = n.build_http_request(d(1));
        let response = HttpResponse {
            from: CacheId::new(1),
            doc: d(1),
            size: kb(1),
            responder_age: ExpirationAge::Infinite,
        };
        n.complete_remote_fetch(sent, response, t(100));
        assert!(n.stats().count(EventKind::Placement) > 0);
        assert!(n.stats().count(EventKind::Eviction) > 0);
    }

    #[test]
    fn ad_hoc_parent_always_stores() {
        let mut parent = node(9, 64, PlacementScheme::AdHoc);
        let req = HttpRequest {
            from: CacheId::new(0),
            doc: d(1),
            requester_age: ExpirationAge::Infinite,
        };
        let (_, stored) = parent.resolve_miss_for_child(req, kb(4), t(0));
        assert!(stored);
    }
}
