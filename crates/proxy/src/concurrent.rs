//! A shared-reference proxy node for the socket daemons.
//!
//! [`ConcurrentNode`] holds what sharing a node across server threads
//! actually needs — a [`ConcurrentCache`], the stats registry it is built
//! with and a set-once sink slot — and no protocol logic of its own.
//! Every handler takes `&self`, lends the shared cache, registry and sink
//! by reference to a [`ProxyNode`] that lives for the one call (no
//! reference-count traffic), and runs that type's handler: the ICP
//! responder, the document server and the client request path of a
//! `coopcache-net` daemon therefore execute the same bodies the
//! simulators do, and two requests touching different shards never
//! serialize on a node-wide lock (each store operation locks one shard
//! and releases it before the handler reports anything).

use crate::message::{HttpRequest, HttpResponse, IcpQuery, IcpReply};
use crate::node::{Lent, ProxyNode};
use coopcache_core::{CacheConfig, ConcurrentCache, PlacementScheme};
use coopcache_obs::{SinkHandle, StatsRegistry};
use coopcache_types::{ByteSize, CacheId, DocId, ExpirationAge, Timestamp};
use std::sync::{Arc, OnceLock};

/// One cooperative proxy, sharable across server threads by reference.
#[derive(Debug)]
pub struct ConcurrentNode {
    cache: ConcurrentCache,
    scheme: PlacementScheme,
    /// Placement and eviction counts, kept whether or not a sink is set.
    stats: Arc<StatsRegistry>,
    /// The event sink, installed at most once: reading it takes no lock.
    sink: OnceLock<SinkHandle>,
}

impl ConcurrentNode {
    /// Creates a node from a full cache configuration, with a fresh stats
    /// registry and no sink.
    #[must_use]
    pub fn from_config(config: CacheConfig, scheme: PlacementScheme) -> Self {
        Self {
            cache: config.build_concurrent(),
            scheme,
            stats: Arc::new(StatsRegistry::new()),
            sink: OnceLock::new(),
        }
    }

    /// Attaches an event sink; placement decisions and evictions from
    /// this node flow into it. The first sink stays: a later call leaves
    /// it in place and drops `sink`.
    pub fn set_sink(&self, sink: SinkHandle) {
        let _ = self.sink.set(sink);
    }

    /// The installed sink, if any.
    #[must_use]
    pub fn sink(&self) -> Option<&SinkHandle> {
        self.sink.get()
    }

    /// The registry this node counts placements and evictions into.
    #[must_use]
    pub fn stats(&self) -> &Arc<StatsRegistry> {
        &self.stats
    }

    /// The single-owner node one call runs on: the shared cache and this
    /// node's telemetry, all by reference.
    fn node(&self) -> ProxyNode<&ConcurrentCache, Lent<'_>> {
        ProxyNode {
            cache: &self.cache,
            scheme: self.scheme,
            telemetry: Lent {
                sink: self.sink.get(),
                stats: &self.stats,
            },
        }
    }

    /// This node's cache id.
    #[must_use]
    pub fn id(&self) -> CacheId {
        self.cache.id()
    }

    /// Read access to the underlying cache (stats, occupancy, invariants).
    #[must_use]
    pub fn cache(&self) -> &ConcurrentCache {
        &self.cache
    }

    /// This node's current cache expiration age.
    #[must_use]
    pub fn expiration_age(&self) -> ExpirationAge {
        self.cache.expiration_age()
    }

    /// See [`ProxyNode::handle_client_lookup`].
    pub fn handle_client_lookup(&self, doc: DocId, now: Timestamp) -> Option<ByteSize> {
        self.node().handle_client_lookup(doc, now)
    }

    /// See [`ProxyNode::handle_icp_query`].
    #[must_use]
    pub fn handle_icp_query(&self, query: IcpQuery) -> IcpReply {
        self.node().handle_icp_query(query)
    }

    /// See [`ProxyNode::handle_http_request`].
    pub fn handle_http_request(
        &self,
        request: HttpRequest,
        now: Timestamp,
    ) -> Option<(HttpResponse, bool)> {
        self.node().handle_http_request(request, now)
    }

    /// See [`ProxyNode::build_http_request`].
    #[must_use]
    pub fn build_http_request(&self, doc: DocId) -> HttpRequest {
        self.node().build_http_request(doc)
    }

    /// See [`ProxyNode::complete_remote_fetch`].
    pub fn complete_remote_fetch(
        &self,
        sent: HttpRequest,
        response: HttpResponse,
        now: Timestamp,
    ) -> bool {
        self.node().complete_remote_fetch(sent, response, now)
    }

    /// See [`ProxyNode::complete_origin_fetch`].
    pub fn complete_origin_fetch(&self, doc: DocId, size: ByteSize, now: Timestamp) -> bool {
        self.node().complete_origin_fetch(doc, size, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coopcache_core::PolicyKind;
    use coopcache_obs::{mute_request_scoped, splitmix64, EventKind, RingBufferSink};
    use coopcache_types::DurationMs;
    use std::sync::Mutex;

    fn d(i: u64) -> DocId {
        DocId::new(i)
    }

    fn t(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn kb(n: u64) -> ByteSize {
        ByteSize::from_kb(n)
    }

    /// A ring sink and a registry, installed by the caller on one node.
    fn probes() -> (Arc<Mutex<RingBufferSink>>, Arc<StatsRegistry>) {
        (
            Arc::new(Mutex::new(RingBufferSink::new(4096))),
            Arc::new(StatsRegistry::new()),
        )
    }

    /// Every event the ring holds, as (kind, JSON line).
    fn recorded(ring: &Mutex<RingBufferSink>) -> Vec<(EventKind, String)> {
        let ring = ring.lock().expect("ring");
        ring.events().map(|e| (e.kind(), e.to_json())).collect()
    }

    /// A peer age drawn from the stream: infinite, or below/above the
    /// ages a 16 KB cache under this churn reports.
    fn peer_age(draw: u64) -> ExpirationAge {
        match draw % 3 {
            0 => ExpirationAge::Infinite,
            1 => ExpirationAge::finite(DurationMs::from_millis(draw % 5_000)),
            _ => ExpirationAge::finite(DurationMs::from_secs(draw % 100_000)),
        }
    }

    /// The differential check behind "all three modes execute identical
    /// placement code": one seeded stream of every handler through a
    /// `ProxyNode` and a one-shard `ConcurrentNode`, under both schemes,
    /// with and without the head sampler's request-scoped mute. Return
    /// values, store counters, registry counts and the emitted events
    /// (byte for byte) must agree.
    #[test]
    fn mirrors_the_single_threaded_node() {
        for scheme in [PlacementScheme::AdHoc, PlacementScheme::Ea] {
            for muted in [false, true] {
                let case = format!("{scheme:?}, muted={muted}");
                let config = CacheConfig::new(CacheId::new(0), kb(16), PolicyKind::Lru);
                let shared = ConcurrentNode::from_config(config, scheme);
                let mut serial = ProxyNode::from_config(config, scheme);
                let (shared_ring, _) = probes();
                let (serial_ring, serial_stats) = probes();
                shared.set_sink(SinkHandle::from_arc(Arc::clone(&shared_ring)));
                let shared_stats = shared.stats();
                serial.set_sink(SinkHandle::from_arc(Arc::clone(&serial_ring)));
                serial.set_stats(Arc::clone(&serial_stats));
                let _mute = muted.then(mute_request_scoped);

                for i in 0..600u64 {
                    let draw = splitmix64(i ^ 0xC0FF_EE00);
                    let doc = d(draw % 24);
                    let size = kb(1 + (draw >> 8) % 4);
                    let now = t(i);
                    let from = CacheId::new(1);
                    match (draw >> 16) % 5 {
                        0 => assert_eq!(
                            shared.complete_origin_fetch(doc, size, now),
                            serial.complete_origin_fetch(doc, size, now),
                            "{case}: origin fetch #{i}"
                        ),
                        1 => assert_eq!(
                            shared.handle_client_lookup(doc, now),
                            serial.handle_client_lookup(doc, now),
                            "{case}: lookup #{i}"
                        ),
                        2 => assert_eq!(
                            shared.handle_icp_query(IcpQuery { from, doc }),
                            serial.handle_icp_query(IcpQuery { from, doc }),
                            "{case}: ICP query #{i}"
                        ),
                        3 => {
                            let request = HttpRequest {
                                from,
                                doc,
                                requester_age: peer_age(draw >> 24),
                            };
                            assert_eq!(
                                shared.handle_http_request(request, now),
                                serial.handle_http_request(request, now),
                                "{case}: HTTP request #{i}"
                            );
                        }
                        _ => {
                            let sent = shared.build_http_request(doc);
                            assert_eq!(sent, serial.build_http_request(doc), "{case}: #{i}");
                            let response = HttpResponse {
                                from,
                                doc,
                                size,
                                responder_age: peer_age(draw >> 24),
                            };
                            assert_eq!(
                                shared.complete_remote_fetch(sent, response, now),
                                serial.complete_remote_fetch(sent, response, now),
                                "{case}: remote fetch #{i}"
                            );
                        }
                    }
                    assert_eq!(shared.expiration_age(), serial.expiration_age());
                }

                let stats = serial.cache().stats();
                assert_eq!(shared.cache().stats(), stats, "{case}");
                assert!(
                    stats.evictions > 0 && stats.remote_serves > 0 && stats.local_hits > 0,
                    "{case}: the stream must exercise every path, got {stats:?}"
                );
                assert_eq!(shared_stats.snapshot(), serial_stats.snapshot(), "{case}");
                assert!(serial_stats.count(EventKind::Placement) > 0, "{case}");
                let events = recorded(&serial_ring);
                assert_eq!(recorded(&shared_ring), events, "{case}");
                // Evictions are health events and pass the mute; placements
                // are request-scoped and must be shed by it on both nodes.
                let emitted = |kind| events.iter().any(|(k, _)| *k == kind);
                assert!(emitted(EventKind::Eviction), "{case}");
                assert_eq!(emitted(EventKind::Placement), !muted, "{case}");
            }
        }
    }

    #[test]
    fn responder_and_requester_handlers_work_through_shared_refs() {
        // AdHoc always stores at the requester, which keeps the assertion
        // independent of the EA tie rule (both nodes start at age ∞).
        let responder = ConcurrentNode::from_config(
            CacheConfig::new(CacheId::new(0), kb(64), PolicyKind::Lru).shards(4),
            PlacementScheme::AdHoc,
        );
        let requester = ConcurrentNode::from_config(
            CacheConfig::new(CacheId::new(1), kb(64), PolicyKind::Lru).shards(4),
            PlacementScheme::AdHoc,
        );
        responder.complete_origin_fetch(d(7), kb(4), t(1));
        let reply = responder.handle_icp_query(IcpQuery {
            from: requester.id(),
            doc: d(7),
        });
        assert!(reply.hit);
        let sent = requester.build_http_request(d(7));
        let (response, promoted) = responder.handle_http_request(sent, t(2)).expect("hit");
        assert!(promoted, "ad-hoc responders always promote");
        assert!(requester.complete_remote_fetch(sent, response, t(2)));
        assert!(requester.cache().contains(d(7)));
    }

    #[test]
    fn handlers_run_from_multiple_threads() {
        let node = Arc::new(ConcurrentNode::from_config(
            CacheConfig::new(CacheId::new(0), kb(256), PolicyKind::S3Fifo).shards(8),
            PlacementScheme::Ea,
        ));
        let mut handles = Vec::new();
        for worker in 0..4u64 {
            let node = Arc::clone(&node);
            handles.push(std::thread::spawn(move || {
                for round in 0..100u64 {
                    let doc = d(worker * 1_000 + round % 40);
                    node.complete_origin_fetch(doc, kb(1), t(round));
                    node.handle_client_lookup(doc, t(round));
                    let _ = node.handle_icp_query(IcpQuery {
                        from: CacheId::new(9),
                        doc,
                    });
                }
            }));
        }
        for h in handles {
            h.join().expect("worker");
        }
        node.cache().check_invariants().expect("invariants hold");
    }
}
