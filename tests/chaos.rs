//! Chaos suite: the live cluster under injected peer failures.
//!
//! The contract under test is the daemon's fault-tolerance guarantee:
//! under every fault class — reset connections, truncated
//! bodies, dropped ICP traffic, a daemon killed mid-run — every client
//! `request()` still returns `Ok`, with failover visible in the event
//! stream and repeat offenders quarantined. Fault schedules are seeded,
//! so a fixed seed reproduces the same run.
//!
//! Every scenario runs twice: once over the pooled transport (the
//! default — fetches reuse parked peer/origin connections) and once
//! with pooling disabled (`pool_max_idle == 0`, every fetch on a fresh
//! connection), so the resilience guarantees hold under both connection
//! lifecycles. The `_pooling` tests at the bottom cover the pool's own
//! failure interactions: faults on *reused* connections and quarantine
//! discarding a peer's parked connections.

use coopcache::net::{ClusterConfig, FaultKind, FaultMode, FaultPlan, LoopbackCluster};
use coopcache::obs::{EventKind, RingBufferSink};
use coopcache::prelude::*;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The per-host idle cap used for the pooled variants (the loopback
/// daemon default).
const POOLED: usize = 8;
/// Pooling disabled: every fetch opens a fresh connection.
const UNPOOLED: usize = 0;

fn kb(n: u64) -> ByteSize {
    ByteSize::from_kb(n)
}

fn d(i: u64) -> DocId {
    DocId::new(i)
}

fn c(i: u16) -> CacheId {
    CacheId::new(i)
}

/// A cluster with short protocol timeouts so silence-heavy scenarios
/// stay fast, plus a ring sink capturing the event stream.
fn chaos_cluster(
    caches: u16,
    scheme: PlacementScheme,
    faults: FaultPlan,
    pool_max_idle: usize,
) -> (LoopbackCluster, Arc<Mutex<RingBufferSink>>) {
    let config = ClusterConfig::new(caches, kb(64), scheme)
        .icp_timeout(Duration::from_millis(80))
        .io_timeout(Duration::from_secs(2))
        .pool_max_idle(pool_max_idle)
        .faults(faults);
    let mut cluster = LoopbackCluster::start_with_config(config).unwrap();
    let ring = Arc::new(Mutex::new(RingBufferSink::new(512)));
    cluster.set_sink(SinkHandle::from_arc(Arc::clone(&ring)));
    (cluster, ring)
}

fn kind_count(ring: &Mutex<RingBufferSink>, kind: EventKind) -> usize {
    ring.lock()
        .unwrap()
        .events()
        .filter(|e| e.kind() == kind)
        .count()
}

/// One pooled and one unpooled `#[test]` per scenario, each named in
/// the table, so the eighteen tests still run in parallel.
macro_rules! scenarios {
    ($($scenario:ident: $pooled:ident, $unpooled:ident;)*) => {$(
        #[test]
        fn $pooled() {
            $scenario(POOLED);
        }

        #[test]
        fn $unpooled() {
            $scenario(UNPOOLED);
        }
    )*};
}

scenarios! {
    reset_doc_scenario:
        reset_doc_connection_falls_back_to_origin,
        reset_doc_connection_falls_back_to_origin_without_pooling;
    second_replier_scenario:
        second_positive_replier_serves_after_first_fails,
        second_positive_replier_serves_after_first_fails_without_pooling;
    killed_peer_scenario:
        killed_peer_is_absorbed_and_quarantined,
        killed_peer_is_absorbed_and_quarantined_without_pooling;
    dropped_icp_scenario:
        dropped_icp_queries_degrade_to_origin_misses,
        dropped_icp_queries_degrade_to_origin_misses_without_pooling;
    truncated_body_scenario:
        truncated_body_is_absorbed_by_origin_fallback,
        truncated_body_is_absorbed_by_origin_fallback_without_pooling;
    deterministic_seed_scenario:
        chaos_run_is_deterministic_for_a_fixed_seed,
        chaos_run_is_deterministic_for_a_fixed_seed_without_pooling;
    garbage_connection_scenario:
        garbage_connection_logs_loop_error_and_listener_survives,
        garbage_connection_logs_loop_error_and_listener_survives_without_pooling;
    quarantine_recovery_scenario:
        quarantined_peer_recovers_after_backoff,
        quarantined_peer_recovers_after_backoff_without_pooling;
    late_icp_reply_scenario:
        late_icp_reply_never_reaches_a_later_round,
        late_icp_reply_never_reaches_a_later_round_without_pooling;
}

fn reset_doc_scenario(pool_max_idle: usize) {
    // Cache 1 answers ICP but drops every document request unanswered —
    // a peer that died between the ICP reply and the fetch.
    let plan = FaultPlan::seeded(1).rule(c(1), FaultKind::ResetDoc, FaultMode::Always);
    let (cluster, ring) = chaos_cluster(2, PlacementScheme::Ea, plan, pool_max_idle);
    cluster.request(1, d(5), kb(4)).unwrap(); // warm the doc at cache 1

    let out = cluster.request(0, d(5), kb(4)).unwrap();
    assert!(
        matches!(out, RequestOutcome::Miss { .. }),
        "must fall back to the origin, got {out:?}"
    );
    assert_eq!(cluster.origin_fetches(), 2);
    assert!(kind_count(&ring, EventKind::PeerFault) >= 1);
    let failovers: Vec<(CacheId, Option<CacheId>)> = ring
        .lock()
        .unwrap()
        .events()
        .filter_map(|e| match e {
            Event::Failover { from, to, .. } => Some((*from, *to)),
            _ => None,
        })
        .collect();
    assert_eq!(failovers, vec![(c(1), None)], "one failover, to the origin");

    // Observability survives chaos: the reset-rigged daemon drops every
    // document fetch, but an OP_STATS probe on the same port is answered.
    let addr = cluster.doc_addrs()[1];
    let body = coopcache::net::scrape_stats(addr, Duration::from_secs(2)).unwrap();
    assert!(
        body.starts_with("{\"cache\":1,"),
        "stats scrape must succeed on a resetting daemon: {body}"
    );
    cluster.shutdown();
}

fn second_replier_scenario(pool_max_idle: usize) {
    // Ad-hoc replication puts the doc at caches 1 and 2. Cache 1 replies
    // to ICP first (cache 2's reply is delayed) but drops the fetch, so
    // the request must fail over to cache 2 and still be a RemoteHit.
    let plan = FaultPlan::seeded(2)
        .rule(c(1), FaultKind::ResetDoc, FaultMode::Always)
        .rule(
            c(2),
            FaultKind::DelayIcpReply(Duration::from_millis(15)),
            FaultMode::Always,
        );
    let (cluster, ring) = chaos_cluster(3, PlacementScheme::AdHoc, plan, pool_max_idle);
    cluster.request(1, d(9), kb(4)).unwrap(); // origin miss, stored at 1
    cluster.request(2, d(9), kb(4)).unwrap(); // ad-hoc replicates to 2

    let out = cluster.request(0, d(9), kb(4)).unwrap();
    match out {
        RequestOutcome::RemoteHit { responder, .. } => {
            assert_eq!(responder, c(2), "the second replier must serve");
        }
        other => panic!("expected a remote hit from cache 2, got {other:?}"),
    }
    let saw_handoff = ring.lock().unwrap().events().any(|e| {
        matches!(
            e,
            Event::Failover {
                from,
                to: Some(to),
                ..
            } if *from == c(1) && *to == c(2)
        )
    });
    assert!(
        saw_handoff,
        "failover from cache 1 to cache 2 must be logged"
    );
    cluster.shutdown();
}

fn killed_peer_scenario(pool_max_idle: usize) {
    // No fault plan: the peer genuinely dies. ICP goes silent and the
    // doc port refuses; requests keep succeeding via the origin, and
    // after repeated silence the dead peer is quarantined.
    let config = ClusterConfig::new(2, kb(64), PlacementScheme::Ea)
        .icp_timeout(Duration::from_millis(80))
        .pool_max_idle(pool_max_idle);
    let mut cluster = LoopbackCluster::start_with_config(config).unwrap();
    let ring = Arc::new(Mutex::new(RingBufferSink::new(512)));
    cluster.set_sink(SinkHandle::from_arc(Arc::clone(&ring)));
    cluster.request(1, d(3), kb(4)).unwrap(); // warm the doc at cache 1
    cluster.kill(1);

    for i in 0..4 {
        let out = cluster.request(0, d(10 + i), kb(2)).unwrap();
        assert!(
            matches!(out, RequestOutcome::Miss { .. }),
            "request {i} must be served by the origin, got {out:?}"
        );
    }
    assert!(kind_count(&ring, EventKind::PeerQuarantined) >= 1);
    assert_eq!(cluster.daemon(0).quarantined_peers(), vec![c(1)]);
    cluster.shutdown();
}

fn dropped_icp_scenario(pool_max_idle: usize) {
    let plan = FaultPlan::seeded(3).rule(c(1), FaultKind::DropIcpQuery, FaultMode::Always);
    let (cluster, ring) = chaos_cluster(2, PlacementScheme::Ea, plan, pool_max_idle);
    cluster.request(1, d(7), kb(4)).unwrap();

    let out = cluster.request(0, d(7), kb(4)).unwrap();
    assert!(matches!(out, RequestOutcome::Miss { .. }), "{out:?}");
    assert_eq!(cluster.origin_fetches(), 2);
    // Silence is a logged health probe failure.
    let saw_silent = ring
        .lock()
        .unwrap()
        .events()
        .any(|e| matches!(e, Event::PeerFault { error, .. } if *error == "silent"));
    assert!(saw_silent, "ICP silence must be recorded as a peer fault");
    cluster.shutdown();
}

fn truncated_body_scenario(pool_max_idle: usize) {
    let plan = FaultPlan::seeded(4).rule(c(1), FaultKind::TruncateDocBody, FaultMode::Always);
    let (cluster, ring) = chaos_cluster(2, PlacementScheme::Ea, plan, pool_max_idle);
    cluster.request(1, d(11), kb(8)).unwrap();

    let out = cluster.request(0, d(11), kb(8)).unwrap();
    assert!(matches!(out, RequestOutcome::Miss { .. }), "{out:?}");
    assert!(kind_count(&ring, EventKind::PeerFault) >= 1);
    assert!(kind_count(&ring, EventKind::Failover) >= 1);
    cluster.shutdown();
}

fn deterministic_seed_scenario(pool_max_idle: usize) {
    // Two identical runs under probabilistic document faults must serve
    // the same outcome classes and absorb the same number of faults.
    // The shape is chosen to be timing-free: a single faulty peer (so
    // candidate order is never an arrival-time race) and quarantine
    // disabled (its backoff expiry reads the wall clock).
    let run = |seed: u64| -> (Vec<&'static str>, usize, usize) {
        let plan = FaultPlan::seeded(seed)
            .rule(c(1), FaultKind::ResetDoc, FaultMode::Probability(40))
            .rule(c(1), FaultKind::ResetDoc, FaultMode::Probability(30));
        let config = ClusterConfig::new(2, kb(64), PlacementScheme::Ea)
            .icp_timeout(Duration::from_millis(80))
            .quarantine_after(0)
            .pool_max_idle(pool_max_idle)
            .faults(plan);
        let mut cluster = LoopbackCluster::start_with_config(config).unwrap();
        let ring = Arc::new(Mutex::new(RingBufferSink::new(1024)));
        cluster.set_sink(SinkHandle::from_arc(Arc::clone(&ring)));
        for i in 0..6 {
            cluster.request(1, d(i), kb(2)).unwrap(); // warm six docs at 1
        }
        let mut outcomes = Vec::new();
        for i in 0..30u64 {
            let out = cluster.request(0, d(i % 6), kb(2)).unwrap();
            outcomes.push(match out {
                RequestOutcome::LocalHit => "local",
                RequestOutcome::RemoteHit { .. } => "remote",
                RequestOutcome::Miss { .. } => "miss",
            });
        }
        let faults = kind_count(&ring, EventKind::PeerFault);
        let failovers = kind_count(&ring, EventKind::Failover);
        cluster.shutdown();
        (outcomes, faults, failovers)
    };
    let first = run(42);
    let second = run(42);
    assert_eq!(first, second, "same seed must reproduce the same run");
    assert!(first.1 > 0, "the schedule must actually inject faults");
}

fn garbage_connection_scenario(pool_max_idle: usize) {
    let config = ClusterConfig::new(2, kb(64), PlacementScheme::Ea)
        .icp_timeout(Duration::from_millis(80))
        .pool_max_idle(pool_max_idle);
    let mut cluster = LoopbackCluster::start_with_config(config).unwrap();
    let ring = Arc::new(Mutex::new(RingBufferSink::new(64)));
    cluster.set_sink(SinkHandle::from_arc(Arc::clone(&ring)));
    cluster.request(0, d(21), kb(4)).unwrap(); // warm the doc at cache 0

    // A client that speaks garbage: an oversized length prefix.
    {
        use std::io::Write;
        let mut stream = std::net::TcpStream::connect(cluster.daemon(0).doc_addr()).unwrap();
        stream.write_all(&u32::MAX.to_be_bytes()).unwrap();
        stream.write_all(b"not a frame").unwrap();
    }
    // The listener logs the error and keeps serving.
    let mut polls = 0;
    while kind_count(&ring, EventKind::ServerLoopError) == 0 {
        polls += 1;
        assert!(polls < 400, "server loop error was never logged");
        std::thread::sleep(Duration::from_millis(5));
    }
    let out = cluster.request(1, d(21), kb(4)).unwrap();
    assert!(
        out.is_remote_hit(),
        "listener must survive garbage: {out:?}"
    );
    cluster.shutdown();
}

fn quarantine_recovery_scenario(pool_max_idle: usize) {
    // Cache 1 drops its first four document requests (two requests'
    // worth, with one retry each), gets quarantined, and after the
    // backoff expires serves normally again.
    let plan = FaultPlan::seeded(6).rule(c(1), FaultKind::ResetDoc, FaultMode::FirstN(4));
    let config = ClusterConfig::new(2, kb(64), PlacementScheme::Ea)
        .icp_timeout(Duration::from_millis(80))
        .quarantine_after(2)
        .quarantine_base(Duration::from_millis(50))
        .pool_max_idle(pool_max_idle)
        .faults(plan);
    let mut cluster = LoopbackCluster::start_with_config(config).unwrap();
    let ring = Arc::new(Mutex::new(RingBufferSink::new(256)));
    cluster.set_sink(SinkHandle::from_arc(Arc::clone(&ring)));
    for i in 1..=4 {
        cluster.request(1, d(i), kb(4)).unwrap(); // warm four docs at cache 1
    }

    // Two failed fetch attempts (plus retries) trip the quarantine.
    assert!(!cluster.request(0, d(1), kb(4)).unwrap().is_remote_hit());
    assert!(!cluster.request(0, d(2), kb(4)).unwrap().is_remote_hit());
    assert!(kind_count(&ring, EventKind::PeerQuarantined) >= 1);
    // While benched, the peer is not even consulted.
    assert_eq!(cluster.daemon(0).quarantined_peers(), vec![c(1)]);
    assert!(!cluster.request(0, d(3), kb(4)).unwrap().is_remote_hit());

    std::thread::sleep(Duration::from_millis(80)); // past the backoff
    assert!(cluster.daemon(0).quarantined_peers().is_empty());
    let out = cluster.request(0, d(4), kb(4)).unwrap();
    assert!(
        out.is_remote_hit(),
        "recovered peer must serve again: {out:?}"
    );
    cluster.shutdown();
}

fn late_icp_reply_scenario(pool_max_idle: usize) {
    // Cache 1 answers its first ICP query after the requester's deadline.
    // That round times out, and its socket must be dropped, not parked:
    // parked, it would hand the late "miss" to the next round for the
    // same document, which would then ignore cache 1's current "hit".
    let icp_timeout = Duration::from_millis(80);
    let plan = FaultPlan::seeded(10).rule(
        c(1),
        FaultKind::DelayIcpReply(icp_timeout * 3),
        FaultMode::FirstN(1),
    );
    let (cluster, ring) = chaos_cluster(2, PlacementScheme::Ea, plan, pool_max_idle);
    let late_replies_sent = || {
        ring.lock()
            .unwrap()
            .events()
            .filter(|e| {
                matches!(e, Event::Span(s) if s.kind == coopcache::obs::SpanKind::IcpHandle && s.cache == c(1))
            })
            .count()
    };

    // Larger than a cache, so cache 0 does not keep it.
    let out = cluster.request(0, d(30), kb(128)).unwrap();
    assert_eq!(
        out,
        RequestOutcome::Miss {
            stored_locally: false,
            stored_at_ancestor: false
        },
        "cache 1's late reply must time the round out to the origin"
    );
    assert_eq!(
        cluster.daemon(0).parked_icp_sockets(),
        0,
        "the round that timed out must not park its socket"
    );

    // Cache 1's answer changes to "hit" (its ICP query to cache 0 is a
    // miss, so it fetches and stores the document from the origin).
    let out = cluster.request(1, d(30), kb(4)).unwrap();
    assert!(matches!(out, RequestOutcome::Miss { .. }), "{out:?}");
    // Its late reply to the first round has been sent by now.
    let mut polls = 0;
    while late_replies_sent() == 0 {
        polls += 1;
        assert!(polls < 400, "cache 1 never sent its late reply");
        std::thread::sleep(Duration::from_millis(5));
    }

    let out = cluster.request(0, d(30), kb(4)).unwrap();
    assert!(
        matches!(out, RequestOutcome::RemoteHit { responder, .. } if responder == c(1)),
        "the outcome must follow cache 1's current answer, got {out:?}"
    );
    assert_eq!(cluster.daemon(0).parked_icp_sockets(), 1);
    cluster.shutdown();
}

/// A fault on a *reused* pooled connection must be absorbed exactly like
/// one on a fresh connection: transparent stale-retry first, then
/// failover to the origin — never a client-visible error.
#[test]
fn reset_on_reused_connection_fails_over_not_client_error() {
    // The first frame at cache 1's listener (the fetch of d(1)) is
    // served cleanly, so the requester parks the connection; every later
    // frame on it faults — including the transparent fresh-retry frame,
    // so the failure genuinely surfaces as a peer fault and fails over.
    let plan = FaultPlan::seeded(8).rule(c(1), FaultKind::ResetDoc, FaultMode::AfterFirstN(1));
    let config = ClusterConfig::new(2, kb(64), PlacementScheme::Ea)
        .icp_timeout(Duration::from_millis(80))
        .io_timeout(Duration::from_secs(2))
        .quarantine_after(0)
        .faults(plan);
    let mut cluster = LoopbackCluster::start_with_config(config).unwrap();
    let ring = Arc::new(Mutex::new(RingBufferSink::new(256)));
    cluster.set_sink(SinkHandle::from_arc(Arc::clone(&ring)));
    cluster.request(1, d(1), kb(4)).unwrap(); // warm two docs at cache 1
    cluster.request(1, d(2), kb(4)).unwrap();

    let out = cluster.request(0, d(1), kb(4)).unwrap();
    assert!(out.is_remote_hit(), "clean first fetch: {out:?}");
    let peer_doc = cluster.doc_addrs()[1];
    assert_eq!(
        cluster.daemon(0).pooled_idle_to(peer_doc),
        1,
        "the healthy connection must be parked for reuse"
    );

    // The next fetch reuses the parked connection and hits the fault.
    let out = cluster.request(0, d(2), kb(4)).unwrap();
    assert!(
        matches!(out, RequestOutcome::Miss { .. }),
        "fault on the reused connection must fail over, got {out:?}"
    );
    assert!(
        kind_count(&ring, EventKind::PeerFault) >= 1,
        "the post-retry failure is a real peer fault"
    );
    assert!(kind_count(&ring, EventKind::Failover) >= 1);
    cluster.shutdown();
}

#[test]
fn quarantine_discards_the_peers_pooled_connections() {
    // A healthy exchange parks a connection to cache 1; when cache 1 is
    // quarantined, the parked connection must be discarded so the stale
    // socket can never be replayed after the peer recovers.
    let plan = FaultPlan::seeded(9).rule(c(1), FaultKind::ResetDoc, FaultMode::AfterFirstN(1));
    let config = ClusterConfig::new(2, kb(64), PlacementScheme::Ea)
        .icp_timeout(Duration::from_millis(80))
        .io_timeout(Duration::from_secs(2))
        .quarantine_after(1)
        .quarantine_base(Duration::from_secs(60))
        .faults(plan);
    let mut cluster = LoopbackCluster::start_with_config(config).unwrap();
    let ring = Arc::new(Mutex::new(RingBufferSink::new(256)));
    cluster.set_sink(SinkHandle::from_arc(Arc::clone(&ring)));
    cluster.request(1, d(1), kb(4)).unwrap();
    cluster.request(1, d(2), kb(4)).unwrap();

    let out = cluster.request(0, d(1), kb(4)).unwrap();
    assert!(out.is_remote_hit(), "{out:?}");
    let peer_doc = cluster.doc_addrs()[1];
    assert_eq!(cluster.daemon(0).pooled_idle_to(peer_doc), 1);

    // The reused-connection fault (and its failed retry) trips the
    // quarantine threshold of 1.
    let out = cluster.request(0, d(2), kb(4)).unwrap();
    assert!(matches!(out, RequestOutcome::Miss { .. }), "{out:?}");
    assert_eq!(cluster.daemon(0).quarantined_peers(), vec![c(1)]);
    assert!(kind_count(&ring, EventKind::PeerQuarantined) >= 1);
    assert_eq!(
        cluster.daemon(0).pooled_idle_to(peer_doc),
        0,
        "quarantine must drop every parked connection to the peer"
    );
    cluster.shutdown();
}

/// One seeded chaos run for the tracing acceptance scenario. Returns the
/// assembled structural trace trees and each daemon's scraped `OP_STATS`
/// body, so callers can assert on one run and compare two.
fn traced_failover_run() -> (String, Vec<String>) {
    use coopcache::net::scrape_stats;
    use coopcache::obs::TraceAssembler;

    // Cache 1 resets every document connection after reading the request
    // (a deterministic clean EOF at the requester), and swallows its
    // first two ICP replies so cache 2 acquires replicas via the origin.
    // Cache 2 answers ICP late, pinning the candidate order to [1, 2].
    let plan = FaultPlan::seeded(42)
        .rule(c(1), FaultKind::DropIcpReply, FaultMode::FirstN(2))
        .rule(c(1), FaultKind::ResetDoc, FaultMode::Always)
        .rule(
            c(2),
            FaultKind::DelayIcpReply(Duration::from_millis(15)),
            FaultMode::Always,
        );
    let config = ClusterConfig::new(3, kb(64), PlacementScheme::Ea)
        .icp_timeout(Duration::from_millis(80))
        .io_timeout(Duration::from_secs(2))
        .quarantine_base(Duration::from_secs(60))
        .faults(plan);
    let mut cluster = LoopbackCluster::start_with_config(config).unwrap();
    let assembler = Arc::new(Mutex::new(TraceAssembler::new()));
    cluster.set_sink(SinkHandle::from_arc(Arc::clone(&assembler)));

    cluster.request(1, d(7), kb(4)).unwrap(); // origin, stored at 1
    cluster.request(1, d(8), kb(4)).unwrap(); // origin, stored at 1
    cluster.request(2, d(7), kb(4)).unwrap(); // cache 1's reply dropped: origin, stored at 2
    cluster.request(2, d(8), kb(4)).unwrap(); // same again
                                              // Failover under trace: candidate 1 resets, candidate 2 serves.
    let out = cluster.request(0, d(7), kb(4)).unwrap();
    assert!(out.is_remote_hit(), "failover must still hit: {out:?}");
    // Second failure quarantines cache 1.
    let out = cluster.request(0, d(8), kb(4)).unwrap();
    assert!(out.is_remote_hit(), "failover must still hit: {out:?}");
    assert_eq!(cluster.daemon(0).quarantined_peers(), vec![c(1)]);

    let stats: Vec<String> = cluster
        .doc_addrs()
        .into_iter()
        .map(|addr| scrape_stats(addr, Duration::from_secs(2)).unwrap())
        .collect();
    cluster.shutdown();
    let assembler = Arc::try_unwrap(assembler)
        .expect("daemons drop their sink handles on shutdown")
        .into_inner()
        .unwrap();
    (assembler.render_all(false), stats)
}

#[test]
fn traced_failover_spans_and_stats_are_complete_and_reproducible() {
    use coopcache::obs::{parse_json, JsonValue};

    let (trees, stats) = traced_failover_run();

    // The traced failover request (daemon 0, seq 0 => trace id 0) shows
    // the ICP round, the failed attempt on cache 1, the successful hop
    // to cache 2 with the responder's serve span, and the EA placement
    // decision as the fetch span's status.
    let tree = trees
        .split_inclusive('\n')
        .skip_while(|l| !l.starts_with("trace 0 "))
        .take_while(|l| l.starts_with("trace 0 ") || !l.starts_with("trace "))
        .collect::<String>();
    assert!(!tree.is_empty(), "trace 0 missing from:\n{trees}");
    assert!(
        tree.contains("`- request cache=0 doc=7 status=remote-hit"),
        "{tree}"
    );
    assert!(
        tree.contains("|- icp-round cache=0 doc=7 status=hit"),
        "{tree}"
    );
    assert!(
        tree.contains("|- icp-handle cache=1 peer=0 doc=7 status=hit"),
        "{tree}"
    );
    assert!(
        tree.contains("`- icp-handle cache=2 peer=0 doc=7 status=hit"),
        "{tree}"
    );
    assert!(
        tree.contains("|- peer-fetch cache=0 peer=1 doc=7 status=eof"),
        "{tree}"
    );
    assert!(
        tree.contains("`- peer-fetch cache=0 peer=2 doc=7 status=stored")
            || tree.contains("`- peer-fetch cache=0 peer=2 doc=7 status=declined"),
        "{tree}"
    );
    assert!(
        tree.contains("`- doc-serve cache=2 peer=0 doc=7 status="),
        "{tree}"
    );

    // Every daemon's OP_STATS snapshot agrees with the scenario.
    let parsed: Vec<JsonValue> = stats.iter().map(|s| parse_json(s).unwrap()).collect();
    let counter = |v: &JsonValue, kind: &str| {
        v.get("counters")
            .and_then(|c| c.get(kind))
            .and_then(JsonValue::as_u64)
            .unwrap()
    };
    for (idx, v) in parsed.iter().enumerate() {
        assert_eq!(v.get("cache").and_then(JsonValue::as_u64), Some(idx as u64));
        assert!(counter(v, "span") > 0, "daemon {idx} emitted no spans");
    }
    assert_eq!(counter(&parsed[0], "request"), 2);
    assert_eq!(counter(&parsed[0], "peer-fault"), 2);
    assert_eq!(counter(&parsed[0], "failover"), 2);
    assert_eq!(counter(&parsed[0], "quarantine"), 1);
    let quarantined: Vec<u64> = parsed[0]
        .get("quarantined")
        .and_then(JsonValue::as_array)
        .unwrap()
        .iter()
        .filter_map(JsonValue::as_u64)
        .collect();
    assert_eq!(quarantined, vec![1]);
    assert_eq!(counter(&parsed[1], "request"), 2);
    assert_eq!(counter(&parsed[2], "request"), 2);
    for v in &parsed[1..] {
        let docs = v
            .get("occupancy")
            .and_then(|o| o.get("docs"))
            .and_then(JsonValue::as_u64)
            .unwrap();
        assert!(docs >= 2, "warmed daemons hold both documents");
    }

    // The whole scenario is reproducible: a second same-seed run
    // assembles byte-identical structural trace trees.
    let (again, _) = traced_failover_run();
    assert_eq!(trees, again);
}
