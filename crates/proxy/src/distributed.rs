//! The distributed (flat) cooperative caching architecture.
//!
//! All caches are peers at the same level of the hierarchy — the
//! architecture of the paper's evaluation (§4.1). A local miss triggers an
//! ICP query to every peer; a group miss is resolved against the origin by
//! the requester itself, which always stores the document.
//!
//! [`DistributedGroup::handle_request`] is the synchronous driver of the
//! [`Requester`] machine: it carries out each action at once, answering
//! `NextReply` from an eager discovery round. With a sink attached it
//! records each request's span tree at trace time, every span
//! zero-length, and its `Request` event (no latency: the group has no
//! clock).

use crate::bloom::BloomFilter;
use crate::discovery::{Discovery, ProtocolStats};
use crate::message::IcpQuery;
use crate::node::ProxyNode;
use crate::outcome::RequestOutcome;
use crate::requester::{Requester, RequesterAction, RequesterInput};
use crate::spans::SeqSpanIds;
use coopcache_core::{CacheConfig, ExpirationWindow, PlacementScheme, PolicyKind};
use coopcache_obs::{Event, SinkHandle};
use coopcache_types::{ByteSize, CacheId, DocId, ExpirationAge, Timestamp};

/// A flat group of peer proxy caches, driven synchronously.
///
/// This is the reference implementation of the protocol: the simulator
/// replays traces through it, and the property tests compare the EA
/// scheme's outcomes against ad-hoc on identical request streams.
///
/// # Example
///
/// ```
/// use coopcache_proxy::DistributedGroup;
/// use coopcache_core::{PlacementScheme, PolicyKind};
/// use coopcache_types::{ByteSize, CacheId, DocId, Timestamp};
///
/// let mut group = DistributedGroup::new(
///     4,                         // caches in the group
///     ByteSize::from_mb(1),      // aggregate capacity (split evenly)
///     PolicyKind::Lru,
///     PlacementScheme::Ea,
/// );
/// let now = Timestamp::from_secs(1);
/// let out = group.handle_request(CacheId::new(0), DocId::new(9), ByteSize::from_kb(4), now);
/// assert!(!out.is_hit()); // first-ever request is a compulsory miss
/// ```
#[derive(Debug)]
pub struct DistributedGroup {
    nodes: Vec<ProxyNode>,
    discovery: Discovery,
    digests: Vec<DigestState>,
    protocol: ProtocolStats,
    /// The current request's untried fetch candidates, the next one last;
    /// kept between requests so a round allocates nothing.
    candidates: Vec<CacheId>,
    /// Optional event sink for ICP traffic and spans; node-level events
    /// (placement, eviction) are emitted by the nodes themselves.
    sink: Option<SinkHandle>,
    /// Requests handled so far: the next request's trace id.
    requests: u64,
    /// The span ids of the request in hand.
    ids: SeqSpanIds,
}

/// A peer's last-broadcast content digest, as held by the other caches.
#[derive(Debug)]
struct DigestState {
    filter: BloomFilter,
    built_at: Option<Timestamp>,
    /// The cache's content-change count when `filter` was built.
    stamp: u64,
}

impl DistributedGroup {
    /// Creates a group of `n` caches sharing `aggregate` bytes evenly
    /// (the paper's `X / N` rule), with the default expiration window.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn new(n: u16, aggregate: ByteSize, policy: PolicyKind, scheme: PlacementScheme) -> Self {
        assert!(n > 0, "a group needs at least one cache");
        let per_cache = aggregate.split_evenly(u64::from(n));
        Self::with_capacities(
            &vec![per_cache; usize::from(n)],
            policy,
            scheme,
            ExpirationWindow::default(),
            Discovery::Icp,
        )
    }

    /// Fully general constructor: explicit per-cache capacities (the
    /// paper assumes equal shares; heterogeneous splits are an ablation)
    /// and an explicit discovery mechanism.
    ///
    /// # Panics
    ///
    /// Panics if `capacities` is empty or longer than `u16::MAX`.
    #[must_use]
    pub fn with_capacities(
        capacities: &[ByteSize],
        policy: PolicyKind,
        scheme: PlacementScheme,
        window: ExpirationWindow,
        discovery: Discovery,
    ) -> Self {
        assert!(!capacities.is_empty(), "a group needs at least one cache");
        assert!(
            capacities.len() <= usize::from(u16::MAX),
            "too many caches for u16 ids"
        );
        let nodes: Vec<ProxyNode> = capacities
            .iter()
            .enumerate()
            .map(|(i, &cap)| {
                ProxyNode::from_config(
                    CacheConfig::new(CacheId::new(i as u16), cap, policy).window(window),
                    scheme,
                )
            })
            .collect();
        let digests = nodes
            .iter()
            .map(|_| DigestState {
                filter: BloomFilter::with_rate(1, 0.01),
                built_at: None,
                stamp: 0,
            })
            .collect();
        Self {
            nodes,
            discovery,
            digests,
            protocol: ProtocolStats::default(),
            candidates: Vec::new(),
            sink: None,
            requests: 0,
            ids: SeqSpanIds::new(0),
        }
    }

    /// Attaches an event sink to the group and every node in it: ICP
    /// query/reply events, spans and `Request` events come from the
    /// group, placement and eviction events from the nodes. Request `n`
    /// (counting from 0) is trace `n`, numbered by [`SeqSpanIds`].
    pub fn set_sink(&mut self, sink: SinkHandle) {
        for node in &mut self.nodes {
            node.set_sink(sink.clone());
        }
        self.sink = Some(sink);
    }

    /// Inter-proxy message counters accumulated so far.
    #[must_use]
    pub fn protocol_stats(&self) -> &ProtocolStats {
        &self.protocol
    }

    /// Sets (or clears) a freshness TTL on every cache in the group.
    pub fn set_ttl(&mut self, ttl: Option<coopcache_types::DurationMs>) {
        for node in &mut self.nodes {
            node.set_ttl(ttl);
        }
    }

    /// Number of caches in the group.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the group is empty (never constructible via `new`).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Read access to a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn node(&self, id: CacheId) -> &ProxyNode {
        &self.nodes[id.index()]
    }

    /// Mutable access to a node, for drivers (like the discrete-event
    /// simulator) that run the [`Requester`] machine on their own
    /// schedule instead of calling [`handle_request`](Self::handle_request).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn node_mut(&mut self, id: CacheId) -> &mut ProxyNode {
        &mut self.nodes[id.index()]
    }

    /// Iterates over the nodes in id order.
    pub fn iter(&self) -> impl Iterator<Item = &ProxyNode> {
        self.nodes.iter()
    }

    /// Mean of the caches' *lifetime-average* expiration ages, in
    /// milliseconds — the quantity the paper's Table 1 reports. `None`
    /// until at least one cache has evicted something.
    #[must_use]
    pub fn average_expiration_age_ms(&self) -> Option<f64> {
        let ages: Vec<f64> = self
            .nodes
            .iter()
            .filter_map(|n| n.cache().lifetime_average())
            .map(|d| d.as_millis() as f64)
            .collect();
        if ages.is_empty() {
            None
        } else {
            Some(ages.iter().sum::<f64>() / ages.len() as f64)
        }
    }

    /// Total number of distinct documents across the group, counting each
    /// replica separately.
    #[must_use]
    pub fn total_cached_docs(&self) -> usize {
        self.nodes.iter().map(|n| n.cache().len()).sum()
    }

    /// Number of *unique* documents cached somewhere in the group — the
    /// paper's measure of aggregate disk-space efficiency. Each document
    /// counts at the lowest-id cache holding it, so no set is built.
    #[must_use]
    pub fn unique_cached_docs(&self) -> usize {
        let mut unique = 0;
        for (i, node) in self.nodes.iter().enumerate() {
            let earlier = &self.nodes[..i];
            node.cache().for_each_resident(|e| {
                if !earlier.iter().any(|m| m.cache().contains(e.doc)) {
                    unique += 1;
                }
            });
        }
        unique
    }

    /// Handles one client request arriving at `requester`, running the
    /// [`Requester`] machine's full protocol: local lookup → ICP probe of
    /// all peers → remote fetch with piggybacked expiration ages, failing
    /// over to the next positive replier, or origin fetch.
    ///
    /// Positive repliers are tried in probe order from `requester + 1`
    /// (wrapping), modelling the first positive reply winning without
    /// biasing any fixed cache id.
    ///
    /// # Panics
    ///
    /// Panics if `requester` is out of range.
    pub fn handle_request(
        &mut self,
        requester: CacheId,
        doc: DocId,
        size: ByteSize,
        now: Timestamp,
    ) -> RequestOutcome {
        assert!(
            requester.index() < self.nodes.len(),
            "unknown requester {requester}"
        );
        self.ids = SeqSpanIds::new(self.requests);
        self.requests += 1;
        let mut machine = Requester::new();
        let mut action = machine.pending();
        loop {
            let input = match action {
                RequesterAction::Lookup => {
                    let local_hit = self.nodes[requester.index()]
                        .handle_client_lookup(doc, now)
                        .is_some();
                    if !local_hit {
                        self.discover(requester, doc, now);
                    }
                    RequesterInput::Start { local_hit }
                }
                RequesterAction::NextReply => {
                    self.candidates
                        .pop()
                        .map_or(RequesterInput::RoundOver, |peer| RequesterInput::IcpReply {
                            peer,
                            hit: true,
                        })
                }
                RequesterAction::Fetch { peer, .. } => {
                    self.protocol.doc_requests += 1;
                    let sent = self.nodes[requester.index()].build_http_request(doc);
                    match self.nodes[peer.index()].handle_http_request(sent, now) {
                        Some((response, promoted)) => RequesterInput::Fetched {
                            stored: self.nodes[requester.index()]
                                .complete_remote_fetch(sent, response, now),
                            promoted,
                        },
                        // The copy is gone: a stale digest or a Bloom false
                        // positive, or a copy that expired under a freshness
                        // TTL since the probe.
                        None => {
                            if matches!(self.discovery, Discovery::Digest { .. }) {
                                self.protocol.digest_misdirections += 1;
                            }
                            RequesterInput::NotFound
                        }
                    }
                }
                // Group miss: the requester always stores (paper §4.1).
                RequesterAction::FetchOrigin { .. } => RequesterInput::OriginServed {
                    stored: self.nodes[requester.index()].complete_origin_fetch(doc, size, now),
                },
                RequesterAction::Done(outcome) => return outcome,
            };
            let next = machine.step(input);
            if self.sink.is_some() {
                self.trace(requester, doc, now, action, input, next);
            }
            action = next;
        }
    }

    /// Records what the step from `pending` on `input` to `next` closed,
    /// at trace time (zero-length spans): a fetch with its responder's
    /// serve, the origin fetch, and once `next` is done the request's root
    /// and its `Request` event. Cold: without a sink, the request loop
    /// pays one test per step.
    #[cold]
    fn trace(
        &mut self,
        requester: CacheId,
        doc: DocId,
        now: Timestamp,
        pending: RequesterAction,
        input: RequesterInput,
        next: RequesterAction,
    ) {
        let Some(sink) = &self.sink else { return };
        let (spans, at) = (self.ids.recorder(requester, doc), now.as_micros());
        match pending {
            RequesterAction::Fetch { peer, .. } => {
                let fetch = self.ids.next_id();
                sink.emit(&spans.fetch(Some(peer), Ok(input), (fetch, at, at)));
                let promoted = match input {
                    RequesterInput::Fetched { promoted, .. } => Some(promoted),
                    _ => None,
                };
                let serve = spans.under(fetch, peer);
                sink.emit(&serve.doc_serve(requester, promoted, (self.ids.next_id(), at, at)));
            }
            RequesterAction::FetchOrigin { .. } => {
                sink.emit(&spans.fetch(None, Ok(input), (self.ids.next_id(), at, at)));
            }
            _ => {}
        }
        if let RequesterAction::Done(outcome) = next {
            for event in spans.done(self.requests - 1, &outcome, None, (at, at)) {
                sink.emit(&event);
            }
        }
    }

    /// Collects into `candidates` the peers that `requester`'s discovery
    /// mechanism says hold `doc`, the first in probe order last. An ICP
    /// round queries every peer and is emitted whole, spans included,
    /// before the first fetch; digest discovery exchanges no ICP, so it
    /// records no round.
    fn discover(&mut self, requester: CacheId, doc: DocId, now: Timestamp) {
        let n = self.nodes.len();
        let rotation = (1..n).map(|off| CacheId::new(((requester.index() + off) % n) as u16));
        self.candidates.clear();
        match self.discovery {
            Discovery::Icp => {
                let query = IcpQuery {
                    from: requester,
                    doc,
                };
                self.protocol.icp_queries += (n - 1) as u64;
                self.protocol.icp_replies += (n - 1) as u64;
                let (spans, at) = (self.ids.recorder(requester, doc), now.as_micros());
                let round = self.sink.as_ref().map(|_| self.ids.next_id());
                for peer in rotation {
                    let hit = self.nodes[peer.index()].handle_icp_query(query).hit;
                    if let (Some(sink), Some(round)) = (&self.sink, round) {
                        sink.emit(&Event::IcpQuery {
                            from: requester,
                            to: peer,
                            doc,
                        });
                        sink.emit(&Event::IcpReply {
                            from: peer,
                            doc,
                            hit,
                        });
                        let handle = (self.ids.next_id(), at, at);
                        sink.emit(&spans.under(round, peer).icp_handle(requester, hit, handle));
                    }
                    if hit {
                        self.candidates.push(peer);
                    }
                }
                if let (Some(sink), Some(round)) = (&self.sink, round) {
                    let closed = match self.candidates.first() {
                        Some(&peer) => RequesterInput::IcpReply { peer, hit: true },
                        None => RequesterInput::RoundOver,
                    };
                    sink.emit(&spans.icp_round(closed, (round, at, at)));
                }
            }
            Discovery::Digest {
                refresh_every,
                fp_rate,
            } => {
                self.refresh_digests(now, refresh_every, fp_rate);
                let digests = &self.digests;
                self.candidates
                    .extend(rotation.filter(|peer| digests[peer.index()].filter.contains(doc)));
            }
            Discovery::Isolated => {}
        }
        self.candidates.reverse();
    }

    /// "Broadcasts" every digest older than the refresh period
    /// (Summary-Cache behaviour; the broadcast cost is accounted per
    /// receiving peer). A digest is rebuilt only when its cache's contents
    /// changed since the last build: the same contents at the same sizing
    /// give the same filter, so an unchanged cache re-sends the one kept.
    fn refresh_digests(
        &mut self,
        now: Timestamp,
        refresh_every: coopcache_types::DurationMs,
        fp_rate: f64,
    ) {
        let n = self.nodes.len();
        let receivers = (n as u64).saturating_sub(1);
        for (node, digest) in self.nodes.iter().zip(&mut self.digests) {
            let due = match digest.built_at {
                None => true,
                Some(at) => now.saturating_since(at) >= refresh_every,
            };
            if !due {
                continue;
            }
            let cache = node.cache();
            // Every content change bumps at least one of these counters,
            // and none is ever reset, so an equal sum means equal contents.
            let stats = cache.stats();
            let stamp =
                stats.insertions + stats.evictions + stats.explicit_removals + stats.expirations;
            if digest.built_at.is_none() || stamp != digest.stamp {
                let mut filter = BloomFilter::with_rate(cache.len().max(16), fp_rate);
                cache.for_each_resident(|entry| filter.insert(entry.doc));
                digest.filter = filter;
                digest.stamp = stamp;
            }
            digest.built_at = Some(now);
            self.protocol.digest_refreshes += receivers;
            self.protocol.digest_bytes += digest.filter.wire_bytes() * receivers;
        }
    }

    /// The expiration ages of all caches, in id order (diagnostics).
    #[must_use]
    pub fn expiration_ages(&self) -> Vec<ExpirationAge> {
        self.nodes.iter().map(ProxyNode::expiration_age).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    fn d(i: u64) -> DocId {
        DocId::new(i)
    }

    fn kb(n: u64) -> ByteSize {
        ByteSize::from_kb(n)
    }

    fn c(i: u16) -> CacheId {
        CacheId::new(i)
    }

    fn group(scheme: PlacementScheme) -> DistributedGroup {
        DistributedGroup::new(3, kb(30), PolicyKind::Lru, scheme)
    }

    #[test]
    fn capacity_split_matches_paper_rule() {
        let g = DistributedGroup::new(
            4,
            ByteSize::from_mb(1),
            PolicyKind::Lru,
            PlacementScheme::Ea,
        );
        for n in g.iter() {
            assert_eq!(n.cache().capacity(), ByteSize::from_bytes(250_000));
        }
        assert_eq!(g.len(), 4);
    }

    #[test]
    fn first_request_is_a_stored_miss() {
        let mut g = group(PlacementScheme::AdHoc);
        let out = g.handle_request(c(0), d(1), kb(4), t(0));
        assert_eq!(
            out,
            RequestOutcome::Miss {
                stored_locally: true,
                stored_at_ancestor: false
            }
        );
        assert!(g.node(c(0)).cache().contains(d(1)));
    }

    #[test]
    fn repeat_request_is_a_local_hit() {
        let mut g = group(PlacementScheme::Ea);
        g.handle_request(c(0), d(1), kb(4), t(0));
        let out = g.handle_request(c(0), d(1), kb(4), t(1));
        assert_eq!(out, RequestOutcome::LocalHit);
    }

    #[test]
    fn peer_copy_gives_remote_hit() {
        let mut g = group(PlacementScheme::AdHoc);
        g.handle_request(c(0), d(1), kb(4), t(0));
        let out = g.handle_request(c(1), d(1), kb(4), t(1));
        match out {
            RequestOutcome::RemoteHit {
                responder,
                stored_locally,
                promoted_at_responder,
            } => {
                assert_eq!(responder, c(0));
                assert!(stored_locally, "ad-hoc always stores");
                assert!(promoted_at_responder, "ad-hoc always promotes");
            }
            other => panic!("expected remote hit, got {other:?}"),
        }
        // Ad-hoc: the document is now replicated at both caches.
        assert!(g.node(c(0)).cache().contains(d(1)));
        assert!(g.node(c(1)).cache().contains(d(1)));
    }

    #[test]
    fn ea_scenario_from_section_2() {
        // The paper's walk-through: C1 misses, fetches from origin; C2
        // requests the same doc; C3 requests it too. Under ad-hoc the doc
        // ends up replicated at all three caches.
        let mut adhoc = group(PlacementScheme::AdHoc);
        adhoc.handle_request(c(0), d(9), kb(4), t(0));
        adhoc.handle_request(c(1), d(9), kb(4), t(1));
        adhoc.handle_request(c(2), d(9), kb(4), t(2));
        let replicas = adhoc.iter().filter(|n| n.cache().contains(d(9))).count();
        assert_eq!(replicas, 3, "ad-hoc replicates everywhere");

        // Under EA with all ages tied at infinity, the strict requester
        // rule refuses the copy and the responder keeps its own hot: the
        // document stays a single-copy group resource served remotely —
        // the behaviour behind the paper's 32%-remote-hit Table 2 row.
        let mut ea = group(PlacementScheme::Ea);
        ea.handle_request(c(0), d(9), kb(4), t(0));
        let out = ea.handle_request(c(1), d(9), kb(4), t(1));
        match out {
            RequestOutcome::RemoteHit {
                stored_locally,
                promoted_at_responder,
                ..
            } => {
                assert!(!stored_locally, "tie must not replicate");
                assert!(promoted_at_responder, "sole copy must stay alive");
            }
            other => panic!("expected remote hit, got {other:?}"),
        }
        let ea_replicas = ea.iter().filter(|n| n.cache().contains(d(9))).count();
        assert_eq!(ea_replicas, 1, "EA keeps a single copy");
    }

    #[test]
    fn ea_contended_requester_does_not_replicate() {
        let mut g = DistributedGroup::new(2, kb(20), PolicyKind::Lru, PlacementScheme::Ea);
        // Cache 1 stores the target doc and stays calm (infinite age).
        g.handle_request(c(1), d(500), kb(4), t(0));
        // Cache 0 churns: every one of these is a miss stored locally,
        // forcing rapid evictions => finite (low) expiration age.
        for i in 0..40 {
            g.handle_request(c(0), d(i), kb(10), t(10 + i));
        }
        assert!(g.node(c(0)).expiration_age() < ExpirationAge::Infinite);
        // Now cache 0 asks for the doc cache 1 holds.
        let out = g.handle_request(c(0), d(500), kb(4), t(1_000));
        match out {
            RequestOutcome::RemoteHit {
                responder,
                stored_locally,
                promoted_at_responder,
            } => {
                assert_eq!(responder, c(1));
                assert!(!stored_locally, "contended requester must not store");
                assert!(promoted_at_responder, "calm responder keeps its copy hot");
            }
            other => panic!("expected remote hit, got {other:?}"),
        }
        assert!(!g.node(c(0)).cache().contains(d(500)));
        assert!(g.node(c(1)).cache().contains(d(500)));
    }

    #[test]
    fn probe_order_starts_after_requester() {
        // Both caches 0 and 2 hold the doc; requester 1 should find cache
        // 2 first (offset +1), not cache 0.
        let mut g = group(PlacementScheme::AdHoc);
        g.handle_request(c(0), d(7), kb(2), t(0));
        g.handle_request(c(2), d(7), kb(2), t(1));
        let out = g.handle_request(c(1), d(7), kb(2), t(2));
        match out {
            RequestOutcome::RemoteHit { responder, .. } => assert_eq!(responder, c(2)),
            other => panic!("expected remote hit, got {other:?}"),
        }
    }

    #[test]
    fn failover_reaches_the_second_positive_replier() {
        use coopcache_types::DurationMs;
        // Caches 1 and 2 both hold the doc; cache 1's copy is older than
        // the TTL. ICP ignores freshness, so both reply hit; the fetch from
        // cache 1 expires its copy and comes back empty, and cache 2 (next
        // in probe order from requester 0) serves.
        let mut g = group(PlacementScheme::AdHoc);
        g.set_ttl(Some(DurationMs::from_secs(10)));
        g.node_mut(c(1)).complete_origin_fetch(d(7), kb(2), t(0));
        g.node_mut(c(2))
            .complete_origin_fetch(d(7), kb(2), t(5_000));
        let out = g.handle_request(c(0), d(7), kb(2), t(12_000));
        assert_eq!(
            out,
            RequestOutcome::RemoteHit {
                responder: c(2),
                stored_locally: true,
                promoted_at_responder: true,
            }
        );
        assert_eq!(g.protocol_stats().doc_requests, 2);
        assert!(!g.node(c(1)).cache().contains(d(7)), "stale copy expired");
    }

    #[test]
    fn replica_counters() {
        let mut g = group(PlacementScheme::AdHoc);
        g.handle_request(c(0), d(1), kb(2), t(0));
        g.handle_request(c(1), d(1), kb(2), t(1));
        g.handle_request(c(2), d(2), kb(2), t(2));
        assert_eq!(g.total_cached_docs(), 3);
        assert_eq!(g.unique_cached_docs(), 2);
    }

    #[test]
    fn average_expiration_age_none_until_evictions() {
        let mut g = group(PlacementScheme::Ea);
        assert_eq!(g.average_expiration_age_ms(), None);
        // Overflow one cache so it evicts.
        for i in 0..20 {
            g.handle_request(c(0), d(i), kb(10), t(i));
        }
        assert!(g.average_expiration_age_ms().is_some());
    }

    #[test]
    fn single_cache_group_never_remote_hits() {
        let mut g = DistributedGroup::new(1, kb(10), PolicyKind::Lru, PlacementScheme::Ea);
        g.handle_request(c(0), d(1), kb(2), t(0));
        let out = g.handle_request(c(0), d(1), kb(2), t(1));
        assert_eq!(out, RequestOutcome::LocalHit);
        let out2 = g.handle_request(c(0), d(2), kb(2), t(2));
        assert!(!out2.is_hit());
    }

    #[test]
    fn oversized_doc_is_served_but_not_stored() {
        let mut g = DistributedGroup::new(2, kb(4), PolicyKind::Lru, PlacementScheme::AdHoc);
        let out = g.handle_request(c(0), d(1), kb(100), t(0));
        assert_eq!(
            out,
            RequestOutcome::Miss {
                stored_locally: false,
                stored_at_ancestor: false
            }
        );
        assert!(!g.node(c(0)).cache().contains(d(1)));
    }

    #[test]
    #[should_panic(expected = "at least one cache")]
    fn zero_caches_rejected() {
        let _ = DistributedGroup::new(0, kb(1), PolicyKind::Lru, PlacementScheme::Ea);
    }

    #[test]
    fn icp_message_accounting() {
        let mut g = group(PlacementScheme::AdHoc);
        // Miss: 2 queries + 2 replies + 0 doc requests (origin).
        g.handle_request(c(0), d(1), kb(2), t(0));
        let s = *g.protocol_stats();
        assert_eq!(s.icp_queries, 2);
        assert_eq!(s.icp_replies, 2);
        assert_eq!(s.doc_requests, 0);
        // Remote hit: 2 more queries/replies + 1 doc request.
        g.handle_request(c(1), d(1), kb(2), t(1));
        let s = *g.protocol_stats();
        assert_eq!(s.icp_queries, 4);
        assert_eq!(s.doc_requests, 1);
        // Local hit: silent.
        g.handle_request(c(1), d(1), kb(2), t(2));
        assert_eq!(g.protocol_stats().icp_queries, 4);
        assert_eq!(g.protocol_stats().messages(), 9);
    }

    /// An ad-hoc LRU group of `n` caches sharing 30 KB, under `discovery`.
    fn ad_hoc_group(n: usize, discovery: Discovery) -> DistributedGroup {
        DistributedGroup::with_capacities(
            &vec![kb(30).split_evenly(n as u64); n],
            PolicyKind::Lru,
            PlacementScheme::AdHoc,
            ExpirationWindow::default(),
            discovery,
        )
    }

    #[test]
    fn isolated_discovery_never_cooperates() {
        let mut g = ad_hoc_group(3, Discovery::Isolated);
        g.handle_request(c(0), d(1), kb(2), t(0));
        // Peer holds it, but isolated caches never ask around.
        let out = g.handle_request(c(1), d(1), kb(2), t(1));
        assert!(!out.is_hit(), "{out:?}");
        assert_eq!(g.protocol_stats().messages(), 0);
    }

    #[test]
    fn digest_discovery_finds_fresh_content() {
        use coopcache_types::DurationMs;
        let mut g = ad_hoc_group(
            3,
            Discovery::Digest {
                refresh_every: DurationMs::from_millis(10),
                fp_rate: 0.001,
            },
        );
        g.handle_request(c(0), d(1), kb(2), t(0));
        // At t=20 the digests rebuild (period 10) and include doc 1.
        let out = g.handle_request(c(1), d(1), kb(2), t(20));
        assert!(out.is_remote_hit(), "{out:?}");
        assert_eq!(g.protocol_stats().icp_queries, 0);
        assert!(g.protocol_stats().digest_refreshes > 0);
        assert!(g.protocol_stats().digest_bytes > 0);
    }

    #[test]
    fn stale_digest_misses_new_content() {
        use coopcache_types::DurationMs;
        let mut g = ad_hoc_group(
            2,
            Discovery::Digest {
                refresh_every: DurationMs::from_days(1),
                fp_rate: 0.001,
            },
        );
        // Digest snapshots are taken at the first request (both empty).
        g.handle_request(c(0), d(1), kb(2), t(0));
        // Within the refresh period the other cache still sees the stale
        // (empty) digest, so this is a miss even though cache 0 has it.
        let out = g.handle_request(c(1), d(1), kb(2), t(5));
        assert!(!out.is_hit(), "{out:?}");
    }

    #[test]
    fn a_due_refresh_of_an_unchanged_cache_rebroadcasts_its_digest() {
        use coopcache_types::DurationMs;
        let fp_rate = 0.001;
        let mut g = ad_hoc_group(
            3,
            Discovery::Digest {
                refresh_every: DurationMs::from_millis(10),
                fp_rate,
            },
        );
        let remote = |out: RequestOutcome| match out {
            RequestOutcome::RemoteHit { responder, .. } => Some(responder),
            _ => None,
        };
        g.handle_request(c(0), d(1), kb(2), t(0));
        // Cache 0 changed, so its digest is rebuilt and now holds doc 1;
        // caches 1 and 2 are unchanged and re-send what they had.
        assert_eq!(
            remote(g.handle_request(c(1), d(1), kb(2), t(20))),
            Some(c(0))
        );
        // Cache 0 has not changed since: its kept digest still answers.
        assert_eq!(
            remote(g.handle_request(c(2), d(1), kb(2), t(40))),
            Some(c(0))
        );
        // Cache 1's new document shows once the period has passed.
        g.handle_request(c(1), d(2), kb(2), t(45));
        assert_eq!(
            remote(g.handle_request(c(0), d(2), kb(2), t(60))),
            Some(c(1))
        );
        // Every digest was broadcast to both peers in each of the four
        // rounds (t = 0, 20, 40 and 60; none is due at 45), rebuilt or
        // not, and each broadcast booked the bytes of the filter it sent.
        let stats = g.protocol_stats();
        assert_eq!(stats.digest_refreshes, 4 * 3 * 2);
        let wire = BloomFilter::with_rate(16, fp_rate).wire_bytes();
        assert_eq!(stats.digest_bytes, stats.digest_refreshes * wire);
    }

    #[test]
    fn digests_and_unique_docs_ignore_insertion_order() {
        use coopcache_types::DurationMs;
        let digest = Discovery::Digest {
            refresh_every: DurationMs::from_millis(10),
            fp_rate: 0.001,
        };
        let mut forward = ad_hoc_group(2, digest);
        let mut backward = ad_hoc_group(2, digest);
        for i in 0..5u64 {
            forward.handle_request(c(0), d(1 + i), kb(1), t(i));
            backward.handle_request(c(0), d(5 - i), kb(1), t(i));
        }
        let walk = |g: &DistributedGroup| -> Vec<DocId> {
            let mut docs = Vec::new();
            g.node(c(0)).cache().for_each_resident(|e| docs.push(e.doc));
            docs
        };
        assert_ne!(walk(&forward), walk(&backward), "the arenas differ");
        // Past the period, the next request rebuilds both caches' digests.
        forward.handle_request(c(1), d(9), kb(1), t(20));
        backward.handle_request(c(1), d(9), kb(1), t(20));
        assert!(forward.digests[0].filter.contains(d(3)));
        for (a, b) in forward.digests.iter().zip(&backward.digests) {
            assert_eq!(a.filter, b.filter);
        }
        assert_eq!(forward.unique_cached_docs(), 6);
        assert_eq!(backward.unique_cached_docs(), 6);
    }

    #[test]
    fn heterogeneous_capacities_are_respected() {
        let caps = [kb(2), kb(20)];
        let g = DistributedGroup::with_capacities(
            &caps,
            PolicyKind::Lru,
            PlacementScheme::Ea,
            coopcache_core::ExpirationWindow::default(),
            Discovery::Icp,
        );
        assert_eq!(g.node(c(0)).cache().capacity(), kb(2));
        assert_eq!(g.node(c(1)).cache().capacity(), kb(20));
    }

    #[test]
    fn sink_sees_icp_traffic_matching_protocol_counters() {
        use coopcache_obs::{EventKind, SinkHandle, Tally};
        use std::sync::{Arc, Mutex};

        let hist = Arc::new(Mutex::new(Tally::new()));
        let mut g = group(PlacementScheme::AdHoc);
        g.set_sink(SinkHandle::from_arc(Arc::clone(&hist)));
        g.handle_request(c(0), d(1), kb(2), t(0)); // miss: 2 queries
        g.handle_request(c(1), d(1), kb(2), t(1)); // remote hit: 2 more
        g.handle_request(c(1), d(1), kb(2), t(2)); // local hit: silent
        let sink = hist.lock().unwrap();
        let s = g.protocol_stats();
        assert_eq!(sink.count(EventKind::IcpQuery), s.icp_queries);
        assert_eq!(sink.count(EventKind::IcpReply), s.icp_replies);
        assert!(sink.count(EventKind::Placement) > 0);
    }

    #[test]
    fn expiration_ages_vector_matches_len() {
        let g = group(PlacementScheme::Ea);
        assert_eq!(g.expiration_ages().len(), 3);
        assert!(g.expiration_ages().iter().all(|a| a.is_infinite()));
    }
}
