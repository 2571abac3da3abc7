//! A whole cooperative cache group on loopback sockets.

use crate::clock::SharedClock;
use crate::daemon::{BoundSockets, CacheDaemon, PeerAddr};
use crate::fault::FaultPlan;
use crate::origin::OriginServer;
use coopcache_core::PlacementScheme;
use coopcache_obs::SinkHandle;
use coopcache_proxy::RequestOutcome;
use coopcache_types::{ByteSize, CacheId, DocId, Timestamp};
use std::io;
use std::time::Duration;

/// Everything needed to start a [`LoopbackCluster`], including the
/// optional chaos schedule. The plain starters cover the common cases;
/// this covers the rest. Every daemon of the cluster reads it directly.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    pub(crate) caches: u16,
    pub(crate) capacity: ByteSize,
    pub(crate) scheme: PlacementScheme,
    pub(crate) shards: usize,
    pub(crate) icp_timeout: Duration,
    pub(crate) io_timeout: Duration,
    pub(crate) quarantine_after: u32,
    pub(crate) quarantine_base: Duration,
    pub(crate) faults: FaultPlan,
    pub(crate) pool_max_idle: usize,
}

impl ClusterConfig {
    /// A fault-free cluster with the default daemon timeouts.
    #[must_use]
    pub fn new(caches: u16, per_cache_capacity: ByteSize, scheme: PlacementScheme) -> Self {
        Self {
            caches,
            capacity: per_cache_capacity,
            scheme,
            shards: 1,
            icp_timeout: Duration::from_millis(250),
            io_timeout: Duration::from_secs(5),
            quarantine_after: 2,
            quarantine_base: Duration::from_millis(250),
            faults: FaultPlan::default(),
            pool_max_idle: 8,
        }
    }

    /// Sets the shard count of every cache (builder style). With more
    /// than one shard, requests touching different shards are served
    /// concurrently instead of serializing on a node-wide lock; `1` (the
    /// default) reproduces the single-store behavior exactly.
    ///
    /// # Panics
    ///
    /// Panics (at daemon start) unless `n` is a power of two.
    #[must_use]
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n;
        self
    }

    /// Sets how long a requester waits for ICP replies before declaring
    /// a group miss (builder style).
    #[must_use]
    pub fn icp_timeout(mut self, timeout: Duration) -> Self {
        self.icp_timeout = timeout;
        self
    }

    /// Sets the per-connection I/O timeout (builder style).
    #[must_use]
    pub fn io_timeout(mut self, timeout: Duration) -> Self {
        self.io_timeout = timeout;
        self
    }

    /// Sets how many consecutive failures quarantine a peer, 0 to
    /// disable quarantine (builder style).
    #[must_use]
    pub fn quarantine_after(mut self, failures: u32) -> Self {
        self.quarantine_after = failures;
        self
    }

    /// Sets the first quarantine backoff, which doubles on each
    /// re-quarantine (builder style).
    #[must_use]
    pub fn quarantine_base(mut self, base: Duration) -> Self {
        self.quarantine_base = base;
        self
    }

    /// Installs a fault schedule (builder style).
    #[must_use]
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the per-host idle-connection cap, 0 to disable pooling
    /// (builder style).
    #[must_use]
    pub fn pool_max_idle(mut self, n: usize) -> Self {
        self.pool_max_idle = n;
        self
    }
}

/// A running group of cache daemons plus a stub origin server, all on
/// 127.0.0.1 — the live-network counterpart of
/// `coopcache_proxy::DistributedGroup`.
///
/// # Example
///
/// ```no_run
/// use coopcache_net::LoopbackCluster;
/// use coopcache_core::PlacementScheme;
/// use coopcache_types::{ByteSize, DocId};
///
/// let cluster = LoopbackCluster::start(
///     3, ByteSize::from_kb(64), PlacementScheme::Ea).unwrap();
/// let out = cluster.request(0, DocId::new(1), ByteSize::from_kb(4)).unwrap();
/// assert!(!out.is_hit()); // cold cluster: compulsory miss
/// cluster.shutdown();
/// ```
#[derive(Debug)]
pub struct LoopbackCluster {
    daemons: Vec<CacheDaemon>,
    origin: OriginServer,
    /// The daemons' shared clock; [`LoopbackCluster::request_at`] sets its
    /// cache time.
    clock: SharedClock,
}

impl LoopbackCluster {
    /// Starts `n` daemons of `per_cache_capacity` each and an origin stub.
    ///
    /// # Errors
    ///
    /// Propagates socket and thread-spawn failures.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn start(
        n: u16,
        per_cache_capacity: ByteSize,
        scheme: PlacementScheme,
    ) -> io::Result<Self> {
        Self::start_with_config(ClusterConfig::new(n, per_cache_capacity, scheme))
    }

    /// Starts a cluster from a full [`ClusterConfig`] — the only way to
    /// attach a [`FaultPlan`] or tune the protocol timeouts.
    ///
    /// # Errors
    ///
    /// Propagates socket and thread-spawn failures.
    ///
    /// # Panics
    ///
    /// Panics if `config.caches` is zero.
    pub fn start_with_config(config: ClusterConfig) -> io::Result<Self> {
        let n = config.caches;
        assert!(n > 0, "a cluster needs at least one cache");
        let origin = OriginServer::start()?;
        let clock = SharedClock::start_with_manual_time();

        // Two-phase start: bind every socket first so the full peer table
        // exists before any daemon begins serving.
        let sockets: Vec<BoundSockets> = (0..n)
            .map(|_| BoundSockets::bind_loopback())
            .collect::<io::Result<_>>()?;
        let addrs: Vec<PeerAddr> = sockets
            .iter()
            .enumerate()
            .map(|(i, s)| PeerAddr {
                id: CacheId::new(i as u16),
                icp: s.icp_addr,
                doc: s.doc_addr,
            })
            .collect();

        let mut daemons = Vec::with_capacity(usize::from(n));
        for (i, socket) in sockets.into_iter().enumerate() {
            let id = CacheId::new(i as u16);
            let peers: Vec<PeerAddr> = addrs.iter().copied().filter(|p| p.id != id).collect();
            daemons.push(CacheDaemon::start(
                id,
                &config,
                socket,
                peers,
                origin.addr(),
                clock.clone(),
            )?);
        }
        Ok(Self {
            daemons,
            origin,
            clock,
        })
    }

    /// Installs a shared event sink into every daemon: each emits
    /// `Request` events with measured wall-clock latency, plus the
    /// placement/eviction events of its inner node. A sink is installed
    /// once: a later call leaves the first sink in place.
    pub fn set_sink(&mut self, sink: SinkHandle) {
        for daemon in &mut self.daemons {
            daemon.set_sink(sink.clone());
        }
    }

    /// Number of caches in the cluster.
    #[must_use]
    pub fn len(&self) -> usize {
        self.daemons.len()
    }

    /// True when the cluster has no daemons (not constructible).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.daemons.is_empty()
    }

    /// Issues a client request at cache `idx`, end-to-end over sockets.
    ///
    /// # Errors
    ///
    /// Propagates network failures.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn request(&self, idx: usize, doc: DocId, size: ByteSize) -> io::Result<RequestOutcome> {
        self.daemons[idx].request(doc, size)
    }

    /// Like [`request`](Self::request), with every daemon's cache time
    /// set to `t` first: a serial caller replaying a trace this way
    /// stamps entries, hits and evictions with the trace's timestamps,
    /// exactly as the in-process groups do, while deadlines and latency
    /// stay on the wall clock. From the first call on, the cluster's
    /// cache time is whatever was set last.
    ///
    /// # Errors
    ///
    /// Propagates network failures.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn request_at(
        &self,
        idx: usize,
        doc: DocId,
        size: ByteSize,
        t: Timestamp,
    ) -> io::Result<RequestOutcome> {
        self.clock.set_cache_time(t);
        self.request(idx, doc, size)
    }

    /// The daemon at `idx`, for inspection.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[must_use]
    pub fn daemon(&self, idx: usize) -> &CacheDaemon {
        &self.daemons[idx]
    }

    /// The daemon at `idx`, for tests that swap one of its parts.
    #[cfg(test)]
    pub(crate) fn daemon_mut(&mut self, idx: usize) -> &mut CacheDaemon {
        &mut self.daemons[idx]
    }

    /// Every daemon's document (TCP) endpoint, in cache-id order — the
    /// addresses `scrape_stats` pulls `OP_STATS` snapshots from.
    #[must_use]
    pub fn doc_addrs(&self) -> Vec<std::net::SocketAddr> {
        self.daemons.iter().map(CacheDaemon::doc_addr).collect()
    }

    /// Kills the daemon at `idx` mid-run: its server threads stop and
    /// its sockets close, so peers see ICP silence and refused document
    /// connections. The daemon handle stays inspectable; requests to a
    /// killed daemon still work (its client side needs no listeners).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn kill(&mut self, idx: usize) {
        self.daemons[idx].halt();
    }

    /// Total documents the origin served (= group misses observed).
    #[must_use]
    pub fn origin_fetches(&self) -> u64 {
        self.origin.served()
    }

    /// Stops every daemon and the origin, waiting for their threads.
    pub fn shutdown(self) {
        for daemon in self.daemons {
            daemon.shutdown();
        }
        self.origin.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kb(n: u64) -> ByteSize {
        ByteSize::from_kb(n)
    }

    fn d(i: u64) -> DocId {
        DocId::new(i)
    }

    #[test]
    fn miss_then_local_then_remote() {
        let cluster = LoopbackCluster::start(3, kb(64), PlacementScheme::AdHoc).unwrap();
        // Cold: miss at cache 0, stored.
        let out = cluster.request(0, d(1), kb(4)).unwrap();
        assert!(
            matches!(
                out,
                RequestOutcome::Miss {
                    stored_locally: true,
                    ..
                }
            ),
            "{out:?}"
        );
        // Warm: local hit at cache 0.
        let out = cluster.request(0, d(1), kb(4)).unwrap();
        assert_eq!(out, RequestOutcome::LocalHit);
        // Cross: remote hit from cache 1, served by cache 0.
        let out = cluster.request(1, d(1), kb(4)).unwrap();
        match out {
            RequestOutcome::RemoteHit {
                responder,
                stored_locally,
                ..
            } => {
                assert_eq!(responder, CacheId::new(0));
                assert!(stored_locally, "ad-hoc replicates");
            }
            other => panic!("expected remote hit, got {other:?}"),
        }
        assert_eq!(cluster.origin_fetches(), 1);
        cluster.shutdown();
    }

    #[test]
    fn op_stats_scrape_matches_local_snapshot() {
        let cluster = LoopbackCluster::start(2, kb(64), PlacementScheme::Ea).unwrap();
        cluster.request(0, d(3), kb(4)).unwrap(); // miss, stored
        cluster.request(1, d(3), kb(4)).unwrap(); // remote hit from 0
        let addrs = cluster.doc_addrs();
        assert_eq!(addrs.len(), 2);
        let timeout = Duration::from_secs(2);
        for (idx, addr) in addrs.iter().enumerate() {
            let body = crate::scrape_stats(*addr, timeout).unwrap();
            // The scrape is the daemon's own snapshot, byte for byte.
            assert_eq!(body, cluster.daemon(idx).stats_json());
            let doc = coopcache_obs::parse_json(&body).unwrap();
            assert_eq!(
                doc.get("cache").and_then(coopcache_obs::JsonValue::as_u64),
                Some(idx as u64)
            );
            let counters = doc.get("counters").unwrap();
            assert_eq!(
                counters
                    .get("request")
                    .and_then(coopcache_obs::JsonValue::as_u64),
                Some(1),
                "each daemon served one client request"
            );
            assert!(
                counters
                    .get("span")
                    .and_then(coopcache_obs::JsonValue::as_u64)
                    .unwrap()
                    > 0,
                "spans are counted with no sink installed"
            );
        }
        // The requester's snapshot shows where its request was served.
        let body = crate::scrape_stats(addrs[1], timeout).unwrap();
        assert!(body.contains("\"peer:0\""), "{body}");
        cluster.shutdown();
    }

    #[test]
    fn ea_tie_does_not_replicate_over_the_wire() {
        let cluster = LoopbackCluster::start(2, kb(64), PlacementScheme::Ea).unwrap();
        cluster.request(0, d(7), kb(4)).unwrap();
        let out = cluster.request(1, d(7), kb(4)).unwrap();
        match out {
            RequestOutcome::RemoteHit {
                stored_locally,
                promoted_at_responder,
                ..
            } => {
                assert!(!stored_locally, "infinite-age tie must not store");
                assert!(promoted_at_responder);
            }
            other => panic!("expected remote hit, got {other:?}"),
        }
        assert!(cluster.daemon(0).with_node(|n| n.cache().contains(d(7))));
        assert!(!cluster.daemon(1).with_node(|n| n.cache().contains(d(7))));
        // And the next request from cache 1 is again a remote hit.
        let again = cluster.request(1, d(7), kb(4)).unwrap();
        assert!(again.is_remote_hit(), "{again:?}");
        assert_eq!(cluster.origin_fetches(), 1);
        cluster.shutdown();
    }

    #[test]
    fn concurrent_requests_from_all_caches() {
        let cluster =
            std::sync::Arc::new(LoopbackCluster::start(4, kb(256), PlacementScheme::Ea).unwrap());
        let mut handles = Vec::new();
        for idx in 0..4 {
            let cluster = std::sync::Arc::clone(&cluster);
            handles.push(std::thread::spawn(move || {
                for i in 0..25u64 {
                    // Overlapping doc sets force cross-cache traffic.
                    let doc = d(i % 10);
                    cluster.request(idx, doc, kb(2)).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let total_lookups: u64 = (0..4)
            .map(|i| cluster.daemon(i).with_node(|n| n.cache().stats().lookups()))
            .sum();
        assert_eq!(total_lookups, 100);
        // Every distinct doc reached the origin at least once and at most
        // a handful of times (races may duplicate a fetch, never lose one).
        assert!(cluster.origin_fetches() >= 10);
        assert!(
            cluster.origin_fetches() <= 40,
            "{}",
            cluster.origin_fetches()
        );
        match std::sync::Arc::try_unwrap(cluster) {
            Ok(cluster) => cluster.shutdown(),
            Err(_) => panic!("all threads joined, Arc must be unique"),
        }
    }

    #[test]
    fn sharded_cluster_serves_concurrent_requests() {
        let config = ClusterConfig::new(2, kb(256), PlacementScheme::Ea).shards(4);
        let cluster = std::sync::Arc::new(LoopbackCluster::start_with_config(config).unwrap());
        let mut handles = Vec::new();
        for idx in 0..2 {
            let cluster = std::sync::Arc::clone(&cluster);
            handles.push(std::thread::spawn(move || {
                for i in 0..30u64 {
                    cluster.request(idx, d(i % 12), kb(2)).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for i in 0..2 {
            cluster.daemon(i).with_node(|n| {
                assert_eq!(n.cache().shard_count(), 4);
                n.cache().check_invariants().expect("shard invariants hold");
                // The per-shard locks were exercised by the server threads.
                assert!(n.cache().contention().acquisitions > 0);
            });
        }
        let total_lookups: u64 = (0..2)
            .map(|i| cluster.daemon(i).with_node(|n| n.cache().stats().lookups()))
            .sum();
        assert_eq!(total_lookups, 60);
        match std::sync::Arc::try_unwrap(cluster) {
            Ok(cluster) => cluster.shutdown(),
            Err(_) => panic!("all threads joined, Arc must be unique"),
        }
    }

    #[test]
    fn sink_sees_wire_requests_and_latency_is_recorded() {
        use crate::daemon::ServeSource;
        use coopcache_obs::{
            EventKind, EventSink, RequestClass, RingBufferSink, SinkHandle, Tally,
        };
        use std::sync::{Arc, Mutex};
        let mut cluster = LoopbackCluster::start(2, kb(64), PlacementScheme::Ea).unwrap();
        // A daemon keeps its first sink, so one ring records the whole run.
        let ring = Arc::new(Mutex::new(RingBufferSink::new(1024)));
        cluster.set_sink(SinkHandle::from_arc(Arc::clone(&ring)));
        cluster.request(0, d(1), kb(4)).unwrap(); // miss
        cluster.request(0, d(1), kb(4)).unwrap(); // local hit
        cluster.request(1, d(1), kb(4)).unwrap(); // remote hit
        {
            let mut agg = Tally::new();
            ring.lock().unwrap().events().for_each(|e| agg.emit(e));
            assert_eq!(agg.count(EventKind::Request), 3);
            assert_eq!(agg.request_split(), (1, 1, 1));
            // Every wire request carries a measured wall-clock latency.
            assert_eq!(agg.request_latency_us.count(), 3);
        }
        // Per-source histograms on the daemons agree with the outcomes.
        let at0: Vec<ServeSource> = cluster
            .daemon(0)
            .latency_snapshots()
            .into_iter()
            .map(|(s, _)| s)
            .collect();
        assert_eq!(at0, vec![ServeSource::Local, ServeSource::Origin]);
        let at1 = cluster.daemon(1).latency_snapshots();
        assert_eq!(at1.len(), 1);
        assert!(matches!(at1[0].0, ServeSource::Peer(id) if id == CacheId::new(0)));
        assert_eq!(at1[0].1.count, 1);
        // Cache 0 is parked in a blocking read on the pooled connection
        // from cache 1; let it idle there, then fetch over it again. The
        // ring records that request's event sequence verbatim after `seen`.
        let idle = std::time::Duration::from_millis(150);
        std::thread::sleep(idle);
        let seen = ring.lock().unwrap().len();
        cluster.request(1, d(1), kb(4)).unwrap(); // remote hit again
                                                  // The responder's serve span covers serving the frame, not the
                                                  // idle wait for it. It trails the reply, so poll for it.
        let serve_us = (0..200)
            .find_map(|_| {
                std::thread::sleep(std::time::Duration::from_millis(5));
                let ring = ring.lock().unwrap();
                let serve = ring.events().skip(seen).find_map(|e| match e {
                    coopcache_obs::Event::Span(span)
                        if span.kind == coopcache_obs::SpanKind::DocServe =>
                    {
                        Some(span.end_us - span.start_us)
                    }
                    _ => None,
                });
                serve
            })
            .expect("the responder emits a DocServe span");
        assert!(
            u128::from(serve_us) < idle.as_micros(),
            "DocServe span of {serve_us} us includes the idle wait"
        );
        {
            // Server threads emit trailing spans after the client's read
            // returns, so this guard must drop before `shutdown` joins
            // them — an emit blocked on it would deadlock the join.
            let ring = ring.lock().unwrap();
            let requests: Vec<_> = ring
                .events()
                .skip(seen)
                .filter(|e| e.kind() == EventKind::Request)
                .collect();
            assert_eq!(requests.len(), 1);
            match requests[0] {
                coopcache_obs::Event::Request {
                    class, latency_us, ..
                } => {
                    assert_eq!(*class, RequestClass::RemoteHit);
                    assert!(latency_us.is_some());
                }
                other => panic!("expected request event, got {other:?}"),
            }
        }
        cluster.shutdown();
    }

    #[test]
    fn pooled_connections_are_checked_in_with_nothing_unread() {
        let cluster = LoopbackCluster::start(2, kb(64), PlacementScheme::Ea).unwrap();
        // Bodies below, just past and well past one response buffer.
        for (doc, size) in [(d(1), kb(1)), (d(2), kb(8)), (d(3), kb(40))] {
            cluster.request(0, doc, size).unwrap(); // origin fetch by cache 0
            let out = cluster.request(1, doc, size).unwrap(); // peer fetch by cache 1
            assert!(out.is_remote_hit(), "{out:?}");
            for (idx, addr) in [(0, cluster.origin.addr()), (1, cluster.doc_addrs()[0])] {
                let pool = cluster.daemon(idx).pool();
                let parked = pool.checkout(addr, &cluster.clock).unwrap();
                assert!(
                    parked.reused,
                    "daemon {idx} parked its connection to {addr}"
                );
                assert!(
                    parked.conn.buffer().is_empty(),
                    "buffered bytes left unread"
                );
                let stream = parked.conn.get_ref();
                stream.set_nonblocking(true).unwrap();
                let err = stream.peek(&mut [0u8; 1]).unwrap_err();
                assert_eq!(
                    err.kind(),
                    io::ErrorKind::WouldBlock,
                    "socket bytes left unread"
                );
                stream.set_nonblocking(false).unwrap();
                pool.checkin(addr, parked.conn, &cluster.clock);
            }
        }
        cluster.shutdown();
    }

    #[test]
    fn full_group_eviction_pressure_over_wire() {
        // Tiny caches: force evictions and check ages turn finite.
        let cluster = LoopbackCluster::start(2, kb(8), PlacementScheme::Ea).unwrap();
        for i in 0..20 {
            cluster.request(0, d(i), kb(4)).unwrap();
        }
        let age = cluster.daemon(0).with_node(|n| n.expiration_age());
        assert!(!age.is_infinite(), "churned cache should have finite age");
        cluster.shutdown();
    }
}
