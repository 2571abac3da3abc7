//! Integration tests for the real-socket runtime: the same placement
//! semantics the simulators exhibit, observed over genuine UDP/TCP.

use coopcache::net::LoopbackCluster;
use coopcache::obs::{parse_json, EventKind, JsonValue, SamplerConfig};
use coopcache::prelude::*;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

mod common;
use common::{check_span_trees, Collected};

fn kb(n: u64) -> ByteSize {
    ByteSize::from_kb(n)
}

fn d(i: u64) -> DocId {
    DocId::new(i)
}

#[test]
fn adhoc_cluster_replicates_and_ea_cluster_does_not() {
    let adhoc = LoopbackCluster::start(3, kb(64), PlacementScheme::AdHoc).unwrap();
    let ea = LoopbackCluster::start(3, kb(64), PlacementScheme::Ea).unwrap();

    for cluster in [&adhoc, &ea] {
        // Cache 0 fetches the doc, then caches 1 and 2 ask for it.
        cluster.request(0, d(9), kb(4)).unwrap();
        cluster.request(1, d(9), kb(4)).unwrap();
        cluster.request(2, d(9), kb(4)).unwrap();
    }
    let copies = |cluster: &LoopbackCluster| {
        (0..3)
            .filter(|&i| cluster.daemon(i).with_node(|n| n.cache().contains(d(9))))
            .count()
    };
    assert_eq!(copies(&adhoc), 3, "ad-hoc replicates everywhere");
    assert_eq!(copies(&ea), 1, "EA keeps a single group-wide copy");
    adhoc.shutdown();
    ea.shutdown();
}

/// Each cache's placement and eviction events, in emission order, as
/// JSON lines (neither kind carries a timestamp or a latency).
#[derive(Debug, Default)]
struct Decisions(BTreeMap<CacheId, Vec<String>>);

impl EventSink for Decisions {
    fn emit(&mut self, event: &Event) {
        if let Event::Placement { cache, .. } | Event::Eviction { cache, .. } = event {
            self.0.entry(*cache).or_default().push(event.to_json());
        }
    }
}

/// Drives the first `requests` requests of the small profile through the
/// socket cluster and the in-process group, both stamping cache time
/// with the trace's timestamps (single-threaded client → no races):
/// every outcome, and each cache's sequence of placement decisions and
/// evictions, must coincide.
fn cluster_agrees_with_synchronous_group(requests: usize) {
    let trace = generate(&TraceProfile::small().with_requests(requests)).unwrap();
    let scheme = PlacementScheme::Ea;
    let mut cluster = LoopbackCluster::start(2, kb(32), scheme).unwrap();
    let mut group = DistributedGroup::new(2, kb(64), PolicyKind::Lru, scheme);
    let wire_log = Arc::new(Mutex::new(Decisions::default()));
    let sim_log = Arc::new(Mutex::new(Decisions::default()));
    cluster.set_sink(SinkHandle::from_arc(Arc::clone(&wire_log)));
    group.set_sink(SinkHandle::from_arc(Arc::clone(&sim_log)));
    let part = Partitioner::default();

    for (seq, r) in trace.iter().enumerate() {
        let requester = part.assign(r, seq, 2);
        // Keep sizes small so socket transfers stay fast.
        let size = ByteSize::from_bytes(r.size.as_bytes().clamp(100, 8_000));
        let wire = cluster
            .request_at(requester.index(), r.doc, size, r.time)
            .unwrap();
        let sim = group.handle_request(requester, r.doc, size, r.time);
        assert_eq!(wire, sim, "request {seq}: {} at {requester}", r.doc);
    }
    // Shutdown joins the responders' threads: every event is in.
    cluster.shutdown();
    let wire = wire_log.lock().unwrap();
    let sim = sim_log.lock().unwrap();
    assert_eq!(
        wire.0.keys().collect::<Vec<_>>(),
        sim.0.keys().collect::<Vec<_>>()
    );
    for (cache, expected) in &sim.0 {
        let got = &wire.0[cache];
        let first_diff = got.iter().zip(expected).position(|(g, e)| g != e);
        assert!(
            first_diff.is_none() && got.len() == expected.len(),
            "{cache}: live sequence diverges at event {} of {} (group has {}): \
             live {:?}, group {:?}",
            first_diff.unwrap_or(got.len().min(expected.len())),
            got.len(),
            expected.len(),
            first_diff.map(|i| &got[i]),
            first_diff.map(|i| &expected[i]),
        );
    }
}

#[test]
fn cluster_agrees_with_synchronous_group_on_small_workload() {
    cluster_agrees_with_synchronous_group(300);
}

#[test]
fn cluster_agrees_with_synchronous_group_on_the_whole_small_profile() {
    cluster_agrees_with_synchronous_group(TraceProfile::small().requests);
}

/// What one sampled replay of a trace left behind.
struct SampledRun {
    /// The (possibly sampled) event stream.
    events: Vec<Event>,
    /// Lines per kind in that stream.
    stream: BTreeMap<&'static str, u64>,
    /// Each daemon's `OP_STATS` counters, in cache-id order.
    counters: Vec<BTreeMap<String, u64>>,
    /// Remote hits per (requester, responder) pair.
    remote_hits: BTreeMap<(usize, CacheId), u64>,
}

/// Replays the first 300 requests of the small profile serially through
/// a 2-cache EA cluster on trace time, streaming into a sink sampled at
/// `rate` permille (`None`: no sampler).
fn sampled_run(rate: Option<u32>) -> SampledRun {
    let trace = generate(&TraceProfile::small().with_requests(300)).unwrap();
    let mut cluster = LoopbackCluster::start(2, kb(32), PlacementScheme::Ea).unwrap();
    let stream = Arc::new(Mutex::new(Collected::default()));
    cluster.set_sink(
        SinkHandle::from_arc(Arc::clone(&stream))
            .sampled(rate.map(|rate| SamplerConfig::new(0xC0FFEE, rate))),
    );
    let part = Partitioner::default();
    let mut remote_hits = BTreeMap::new();
    for (seq, r) in trace.iter().enumerate() {
        let requester = part.assign(r, seq, 2).index();
        let size = ByteSize::from_bytes(r.size.as_bytes().clamp(100, 8_000));
        let out = cluster.request_at(requester, r.doc, size, r.time).unwrap();
        if let RequestOutcome::RemoteHit { responder, .. } = out {
            *remote_hits.entry((requester, responder)).or_default() += 1;
        }
    }
    // Halting joins every server and connection thread, so the trailing
    // responder spans are in the counters and the stream.
    for idx in 0..cluster.len() {
        cluster.kill(idx);
    }
    let counters = (0..cluster.len())
        .map(|idx| {
            let doc = parse_json(&cluster.daemon(idx).stats_json()).unwrap();
            doc.get("counters")
                .and_then(JsonValue::as_object)
                .unwrap()
                .iter()
                .map(|(kind, n)| (kind.clone(), n.as_u64().unwrap()))
                .collect()
        })
        .collect();
    cluster.shutdown();
    let events = std::mem::take(&mut stream.lock().unwrap().0);
    let mut stream = BTreeMap::new();
    for event in &events {
        *stream.entry(event.kind().name()).or_default() += 1;
    }
    SampledRun {
        events,
        stream,
        counters,
        remote_hits,
    }
}

#[test]
fn sampling_sheds_request_scoped_lines_and_keeps_counters_exact() {
    let full = sampled_run(None);
    let none = sampled_run(Some(0));
    let all = sampled_run(Some(1_000));

    // Peer fetches from one requester ride a pooled connection, so the
    // responder serves later frames on an already-used connection.
    let (&(_, responder), &hits) = full
        .remote_hits
        .iter()
        .max_by_key(|(_, &hits)| hits)
        .expect("the trace produces remote hits");
    assert!(hits >= 3, "only {hits} remote hits from one requester");
    let reused = EventKind::ConnReused.name();
    for run in [&full, &none, &all] {
        assert_eq!(
            run.remote_hits, full.remote_hits,
            "same trace, same outcomes"
        );
        assert!(
            run.counters[responder.index()][reused] > 0,
            "no reuse counted"
        );
        // OP_STATS counters are recorded ahead of the sampler.
        assert_eq!(
            run.counters, full.counters,
            "counters must not depend on sampling"
        );
    }

    let scoped: Vec<_> = none
        .stream
        .keys()
        .filter(|name| EventKind::from_name(name).unwrap().is_request_scoped())
        .collect();
    assert!(scoped.is_empty(), "0 permille still streamed {scoped:?}");
    assert!(
        none.stream.contains_key(EventKind::Eviction.name()),
        "health kinds keep flowing at 0 permille"
    );
    assert!(full.stream[reused] > 0);
    assert_eq!(all.stream, full.stream, "1000 permille keeps every line");
}

/// The daemons' span trees have the one shape the span recorder gives
/// every driver (the simulators' are checked in `determinism.rs`).
#[test]
fn live_span_trees_have_the_recorders_shape() {
    let run = sampled_run(None);
    assert_eq!(check_span_trees(&run.events), 300);
}

#[test]
fn concurrent_stats_and_series_probes_do_not_disturb_serving() {
    use coopcache::net::{scrape_series, scrape_stats};
    use coopcache::obs::SeriesRing;
    use std::time::Duration;
    let cluster = LoopbackCluster::start(2, kb(64), PlacementScheme::Ea).unwrap();
    cluster.request(0, d(1), kb(2)).unwrap();
    for idx in 0..cluster.len() {
        cluster.daemon(idx).sample_now();
    }
    let addr = cluster.doc_addrs()[0];
    let timeout = Duration::from_secs(2);
    let probes: Vec<_> = (0..8)
        .map(|i| {
            std::thread::spawn(move || {
                for _ in 0..10 {
                    if i % 2 == 0 {
                        let body = scrape_stats(addr, timeout).expect("stats scrape");
                        assert!(body.starts_with("{\"cache\":0,"), "{body}");
                    } else {
                        let body = scrape_series(addr, timeout).expect("series scrape");
                        let ring = SeriesRing::from_json(&body).expect("series body decodes");
                        assert_eq!(ring.cache(), CacheId::new(0));
                        assert!(!ring.is_empty(), "sampled ring must carry points");
                    }
                }
            })
        })
        .collect();
    // Document traffic interleaves with the probe storm.
    for i in 0..20 {
        cluster
            .request((i % 2) as usize, d(i % 5 + 1), kb(1))
            .unwrap();
    }
    for p in probes {
        p.join().unwrap();
    }
    cluster.shutdown();
}

#[test]
fn origin_counts_match_miss_outcomes() {
    let cluster = LoopbackCluster::start(2, kb(64), PlacementScheme::Ea).unwrap();
    let mut misses = 0;
    for i in 0..30 {
        let out = cluster.request((i % 2) as usize, d(i % 10), kb(2)).unwrap();
        if !out.is_hit() {
            misses += 1;
        }
    }
    assert_eq!(cluster.origin_fetches(), misses);
    cluster.shutdown();
}

#[test]
fn server_loops_are_event_driven_not_polling() {
    // The transport parks its server threads in blocking accept/recv —
    // no wake-every-20ms stop-flag polling. So over a quiet interval the
    // per-daemon loop-iteration counters must stay (almost) flat; a
    // busy-poll regression would show dozens of iterations here.
    let cluster = LoopbackCluster::start(2, kb(64), PlacementScheme::Ea).unwrap();
    for i in 0..4 {
        cluster.request((i % 2) as usize, d(i), kb(2)).unwrap();
    }
    // Let any in-flight frames and ICP stragglers settle.
    std::thread::sleep(std::time::Duration::from_millis(50));
    let before: Vec<(u64, u64)> = (0..2)
        .map(|i| cluster.daemon(i).loop_iterations())
        .collect();
    std::thread::sleep(std::time::Duration::from_millis(300));
    let after: Vec<(u64, u64)> = (0..2)
        .map(|i| cluster.daemon(i).loop_iterations())
        .collect();
    for (i, (b, a)) in before.iter().zip(after.iter()).enumerate() {
        let (icp, accept) = (a.0 - b.0, a.1 - b.1);
        assert!(
            icp <= 1 && accept <= 1,
            "daemon {i} busy-polled while idle: +{icp} icp, +{accept} accept iterations"
        );
    }
    cluster.shutdown();
}
