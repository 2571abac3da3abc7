//! Randomized property tests over the core data structures and
//! invariants.
//!
//! Driven by the repo's own deterministic [`Rng`] instead of an external
//! property-testing framework: each property replays many generated
//! cases from fixed seeds, so failures are reproducible by seed and the
//! test suite needs no network-fetched dependencies.

use coopcache::cache::{Cache, PlacementScheme, PolicyKind};
use coopcache::prelude::*;
use coopcache::trace::{read_trace, write_trace, Rng, Zipf};

/// Cases per property: enough to explore the small op spaces below while
/// keeping the suite fast.
const CASES: u64 = 200;

/// An abstract cache operation over a small id/size space (small spaces
/// maximize collisions, which is where the bugs live).
#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(u8, u8),
    Lookup(u8),
    Remove(u8),
}

fn random_op(rng: &mut Rng) -> Op {
    let doc = (rng.next_below(24)) as u8;
    match rng.next_below(3) {
        0 => Op::Insert(doc, rng.next_below(16) as u8 + 1),
        1 => Op::Lookup(doc),
        _ => Op::Remove(doc),
    }
}

fn random_ops(rng: &mut Rng, max_len: u64) -> Vec<Op> {
    let len = rng.next_below(max_len) + 1;
    (0..len).map(|_| random_op(rng)).collect()
}

/// The byte accounting never drifts from the sum over entries and never
/// exceeds capacity, for any op sequence under any policy.
#[test]
fn cache_byte_accounting_is_exact() {
    let mut rng = Rng::seed_from(0xACC0);
    for case in 0..CASES {
        let ops = random_ops(&mut rng, 300);
        let policy = *rng.choose(&PolicyKind::all());
        let mut cache = Cache::new(CacheId::new(0), ByteSize::from_kb(20), policy);
        for (t, op) in ops.iter().enumerate() {
            let now = Timestamp::from_millis(t as u64);
            match *op {
                Op::Insert(d, kb) => {
                    cache.insert(
                        DocId::new(u64::from(d)),
                        ByteSize::from_kb(u64::from(kb)),
                        now,
                    );
                }
                Op::Lookup(d) => {
                    cache.lookup(DocId::new(u64::from(d)), now);
                }
                Op::Remove(d) => {
                    cache.remove(DocId::new(u64::from(d)), now);
                }
            }
            let (mut manual, mut count) = (ByteSize::ZERO, 0);
            cache.for_each_resident(|e| {
                manual += e.size;
                count += 1;
            });
            assert_eq!(cache.used(), manual, "case {case} ({policy}) after {op:?}");
            assert!(cache.used() <= cache.capacity(), "case {case} ({policy})");
            assert_eq!(cache.len(), count, "case {case}");
        }
    }
}

/// Expiration-age ordering is total and the EA decision rules are exact
/// complements for every age pair and every EA variant.
#[test]
fn ea_rules_are_complementary() {
    let mut rng = Rng::seed_from(0xEA);
    let random_age = |rng: &mut Rng| {
        if rng.next_bool(0.2) {
            ExpirationAge::Infinite
        } else {
            // Small range forces frequent exact ties.
            ExpirationAge::finite(DurationMs::from_millis(rng.next_below(50)))
        }
    };
    for _ in 0..2_000 {
        let (a, b) = (random_age(&mut rng), random_age(&mut rng));
        // Total order.
        assert!(a <= b || b <= a);
        for scheme in [PlacementScheme::Ea, PlacementScheme::EaTieStore] {
            let stores = scheme.requester_stores(a, b);
            let promotes = scheme.responder_promotes(b, a);
            assert_ne!(stores, promotes, "scheme {scheme} ages {a} {b}");
        }
        // Ad-hoc always does both.
        assert!(PlacementScheme::AdHoc.requester_stores(a, b));
        assert!(PlacementScheme::AdHoc.responder_promotes(b, a));
    }
}

/// Trace file round-trips for arbitrary record lists.
#[test]
fn trace_format_roundtrip() {
    let mut rng = Rng::seed_from(0x707);
    for case in 0..CASES {
        let len = rng.next_below(50) as usize;
        let requests: Vec<Request> = (0..len)
            .map(|_| {
                Request::new(
                    Timestamp::from_millis(rng.next_u64() >> 32),
                    ClientId::new(rng.next_u64() as u32),
                    DocId::new(rng.next_u64() >> 32),
                    ByteSize::from_bytes(rng.next_u64() >> 32),
                )
            })
            .collect();
        let trace = Trace::from_requests(requests);
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).expect("write to vec cannot fail");
        let back = read_trace(buf.as_slice()).expect("own output parses");
        assert_eq!(trace, back, "case {case}");
    }
}

/// Zipf: probabilities are positive, non-increasing in rank, sum to 1.
#[test]
fn zipf_probabilities_well_formed() {
    let mut rng = Rng::seed_from(0x21F);
    for case in 0..60 {
        let n = rng.next_below(499) + 1;
        let alpha = rng.next_f64() * 2.5;
        let z = Zipf::new(n, alpha).expect("params in domain");
        let mut sum = 0.0;
        let mut prev = f64::INFINITY;
        for k in 1..=n {
            let p = z.probability(k);
            assert!(p > 0.0, "case {case} rank {k}");
            assert!(p <= prev + 1e-12, "case {case}: p(rank) must not increase");
            prev = p;
            sum += p;
        }
        assert!((sum - 1.0).abs() < 1e-6, "case {case}: sum {sum}");
    }
}

/// Group-level invariant: outcomes are internally consistent for any
/// short random workload (remote hits never point at the requester,
/// outcome counts partition the request count, byte accounting holds at
/// every cache).
#[test]
fn group_outcomes_are_consistent() {
    let mut rng = Rng::seed_from(0x6208);
    for case in 0..CASES {
        let scheme = *rng.choose(&PlacementScheme::all());
        let len = rng.next_below(150) + 1;
        let mut group = DistributedGroup::new(3, ByteSize::from_kb(30), PolicyKind::Lru, scheme);
        let mut metrics = GroupMetrics::default();
        for t in 0..len {
            let requester = CacheId::new(rng.next_below(3) as u16);
            let doc = DocId::new(rng.next_below(40));
            let size = ByteSize::from_kb(rng.next_below(8) + 1);
            let outcome = group.handle_request(requester, doc, size, Timestamp::from_millis(t));
            if let RequestOutcome::RemoteHit { responder, .. } = outcome {
                assert_ne!(responder, requester, "case {case}: self remote hit");
            }
            metrics.record(outcome, size);
        }
        assert_eq!(metrics.requests, len, "case {case}");
        assert_eq!(
            metrics.local_hits + metrics.remote_hits + metrics.misses,
            metrics.requests,
            "case {case}"
        );
        for node in group.iter() {
            assert!(
                node.cache().used() <= node.cache().capacity(),
                "case {case}"
            );
        }
    }
}

/// For any sampler seed and rate: the sampled stream is a deterministic,
/// order-preserving subsequence of the full stream, only spans are ever
/// dropped, and rollups built from the full vs the sampled stream agree
/// on every counter that is not span-derived.
#[test]
fn sampling_is_a_deterministic_subsequence_for_any_seed_and_rate() {
    use coopcache::obs::{Event, RequestClass};
    use coopcache::obs::{
        JsonlSink, Rollup, RollupConfig, SamplerConfig, SinkHandle, Span, SpanKind,
    };
    use std::sync::{Arc, Mutex, PoisonError};

    // One synthetic event mix reused across cases: requests and spans
    // (the sampled kind) over a handful of nodes and trace ids.
    let mut gen = Rng::seed_from(0x5A3D);
    let mut events: Vec<Event> = Vec::new();
    for seq in 0..400u64 {
        let cache = CacheId::new(gen.next_below(4) as u16);
        let doc = DocId::new(gen.next_below(32));
        let class = *gen.choose(&[
            RequestClass::LocalHit,
            RequestClass::RemoteHit,
            RequestClass::Miss,
        ]);
        events.push(Event::Request {
            seq,
            cache,
            doc,
            class,
            responder: None,
            stored: seq % 2 == 0,
            latency_us: Some(100 + gen.next_below(5_000)),
        });
        let trace_id = gen.next_below(u64::MAX / 2);
        for k in 0..gen.next_below(3) {
            events.push(Event::Span(Span {
                trace_id,
                span_id: (seq << 8) | k,
                parent: (k > 0).then_some(seq << 8),
                cache,
                kind: SpanKind::Request,
                doc: Some(doc),
                peer: None,
                start_us: seq * 1_000,
                end_us: seq * 1_000 + 500,
                status: "ok",
            }));
        }
    }

    /// Emits every event through a handle sampled by `sampler` and
    /// returns the sink it fed.
    fn fed<S: EventSink + Send + 'static>(
        sink: S,
        sampler: Option<SamplerConfig>,
        events: &[Event],
    ) -> S {
        let sink = Arc::new(Mutex::new(sink));
        let handle = SinkHandle::from_arc(Arc::clone(&sink)).sampled(sampler);
        for event in events {
            handle.emit(event);
        }
        drop(handle);
        Arc::try_unwrap(sink)
            .ok()
            .expect("no other handles")
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
    let stream = |sampler: Option<SamplerConfig>| -> String {
        let bytes = fed(JsonlSink::new(Vec::new()), sampler, &events).into_inner();
        String::from_utf8(bytes).expect("jsonl is utf-8")
    };
    let is_line_subsequence = |small: &str, big: &str| -> bool {
        let mut big_lines = big.lines();
        small.lines().all(|needle| big_lines.any(|l| l == needle))
    };
    let rollup_of = |sampler: Option<SamplerConfig>| -> Rollup {
        let config = RollupConfig {
            window_ms: 50,
            max_nodes: 8,
            max_windows: 16,
        };
        fed(Rollup::new(config), sampler, &events)
    };

    let full = stream(None);
    let full_rollup = rollup_of(None);
    let mut rng = Rng::seed_from(0x5EED);
    for case in 0..CASES {
        let config = SamplerConfig::new(rng.next_below(u64::MAX), rng.next_below(1_001) as u32);
        let sampled = stream(Some(config));
        assert_eq!(
            sampled,
            stream(Some(config)),
            "case {case} ({config:?}): sampling must be deterministic"
        );
        assert!(
            is_line_subsequence(&sampled, &full),
            "case {case} ({config:?}): not a subsequence"
        );
        // Non-span lines are never sampled away.
        fn non_span(text: &str) -> Vec<&str> {
            text.lines()
                .filter(|l| !l.starts_with(r#"{"ev":"span""#))
                .collect()
        }
        assert_eq!(non_span(&sampled), non_span(&full), "case {case}");
        // Rollups from the two streams agree on request-derived counters
        // (spans only feed the rollup clock, never the counters).
        let sampled_rollup = rollup_of(Some(config));
        assert_eq!(
            sampled_rollup.totals(),
            full_rollup.totals(),
            "case {case} ({config:?})"
        );
        assert_eq!(
            sampled_rollup.node_count(),
            full_rollup.node_count(),
            "case {case}"
        );
        for node in 0..4u16 {
            assert_eq!(
                sampled_rollup.node_split(CacheId::new(node)),
                full_rollup.node_split(CacheId::new(node)),
                "case {case} node {node}"
            );
        }
        if config.rate >= 1_000 {
            assert_eq!(sampled, full, "case {case}: rate 1000 keeps all");
        }
    }
}
