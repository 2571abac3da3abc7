//! Single-layer probes: tight loops around one public call each, used by
//! traced runs for operations too short to carry a span of their own
//! (a clock read costs as much as a store lookup) and for layer costs
//! that only show in isolation (wire codec, stats counters).
//!
//! Every probe pre-generates its inputs, passes them and the results
//! through `black_box`, and reports nanoseconds per call.

use crate::workloads::Layers;
use coopcache::cache::{Cache, CacheConfig, PlacementScheme, PolicyKind};
use coopcache::net::WireMessage;
use coopcache::obs::{EventKind, StatsRegistry};
use coopcache::proxy::{HttpRequest, HttpResponse, IcpQuery, ProxyNode};
use coopcache::types::{ByteSize, CacheId, DocId, DurationMs, ExpirationAge, Timestamp};
use std::hint::black_box;
use std::sync::Barrier;
use std::time::Instant;

/// Ids no fill ever uses: probes that need a guaranteed miss or a fresh
/// insert draw from here.
const FRESH_BASE: u64 = 1 << 40;

/// Nanoseconds per call of `f` over `n` calls.
fn per_call_ns(n: u64, mut f: impl FnMut(u64)) -> f64 {
    let started = Instant::now();
    for i in 0..n {
        f(i);
    }
    started.elapsed().as_nanos() as f64 / n as f64
}

/// A fixed pseudo-random walk over `0..n` (multiplicative, so successive
/// ids land on unrelated table slots and the probe pays the memory cost
/// a real request stream pays).
fn scattered(i: u64, n: u64, seed: u64) -> u64 {
    coopcache::obs::splitmix64(i ^ seed) % n
}

/// Cost of one `Instant` read pair — what every span adds to the time it
/// measures.
pub fn clock_ns() -> f64 {
    per_call_ns(200_000, |_| {
        black_box(Instant::now());
    })
}

/// Store probes at a given table size.
pub fn core_probes(layers: &mut Layers, entries: u64, entry_bytes: u64, seed: u64) {
    let size = ByteSize::from_bytes(entry_bytes);
    let ops = entries.clamp(50_000, 400_000);
    // Room for `ops` more entries, so the plain-insert probe never evicts.
    let capacity = ByteSize::from_bytes((entries + ops) * entry_bytes);
    let mut cache = CacheConfig::new(CacheId::new(0), capacity, PolicyKind::Lru).build();

    let rss_before = crate::procfs::rss_bytes();
    let fill_ns = per_call_ns(entries, |i| {
        black_box(cache.insert(DocId::new(i), size, Timestamp::from_millis(i)));
    });
    layers.insert("core.fill_ns_per_insert", fill_ns);
    if let (Some(before), Some(after)) = (rss_before, crate::procfs::rss_bytes()) {
        layers.insert(
            "core.bytes_per_entry",
            after.saturating_sub(before) as f64 / entries as f64,
        );
    }
    let growth_after_fill = cache.growth_events();
    let mut now = entries;
    let mut tick = || {
        now += 1;
        Timestamp::from_millis(now)
    };

    layers.insert(
        "core.lookup_hit_ns",
        per_call_ns(ops, |i| {
            let doc = DocId::new(scattered(i, entries, seed));
            black_box(cache.lookup(black_box(doc), tick()));
        }),
    );
    layers.insert(
        "core.lookup_miss_ns",
        per_call_ns(ops, |i| {
            black_box(cache.lookup(black_box(DocId::new(FRESH_BASE + i)), tick()));
        }),
    );
    layers.insert(
        "core.contains_ns",
        per_call_ns(ops, |i| {
            let doc = DocId::new(scattered(i, entries, seed ^ 1));
            black_box(cache.contains(black_box(doc)));
        }),
    );
    layers.insert(
        "core.serve_remote_ns",
        per_call_ns(ops, |i| {
            let doc = DocId::new(scattered(i, entries, seed ^ 2));
            black_box(cache.serve_remote(black_box(doc), tick(), true));
        }),
    );
    layers.insert(
        "core.insert_ns",
        per_call_ns(ops, |i| {
            black_box(cache.insert(DocId::new(FRESH_BASE + i), size, tick()));
        }),
    );
    // The cache is now exactly full: every further insert evicts.
    let evictions_before = cache.stats().evictions;
    layers.insert(
        "core.insert_evict_ns",
        per_call_ns(ops, |i| {
            black_box(cache.insert(DocId::new(2 * FRESH_BASE + i), size, tick()));
        }),
    );
    layers.insert(
        "core.evictions",
        (cache.stats().evictions - evictions_before) as f64,
    );
    layers.insert(
        "core.expiration_age_ns",
        per_call_ns(ops, |_| {
            black_box(cache.expiration_age());
        }),
    );
    // Growth after the table reached its size: steady-state churn should
    // allocate nothing.
    layers.insert(
        "core.growth_events",
        (cache.growth_events() - growth_after_fill) as f64,
    );
    drop(cache);

    let mut s3 = CacheConfig::new(
        CacheId::new(0),
        ByteSize::from_bytes(entries * entry_bytes),
        PolicyKind::S3Fifo,
    )
    .build();
    fill(&mut s3, entries, size);
    layers.insert(
        "core.lookup_hit_ns.s3fifo",
        per_call_ns(ops, |i| {
            let doc = DocId::new(scattered(i, entries, seed));
            black_box(s3.lookup(black_box(doc), tick()));
        }),
    );
}

fn fill(cache: &mut Cache, entries: u64, size: ByteSize) {
    for i in 0..entries {
        cache.insert(DocId::new(i), size, Timestamp::from_millis(i));
    }
}

/// Two threads reading one 64-shard `ConcurrentCache`: per-lookup cost
/// and the lock counters the store keeps.
pub fn concurrent_lookup_probe(layers: &mut Layers, entries: u64, entry_bytes: u64, seed: u64) {
    const THREADS: u64 = 2;
    let size = ByteSize::from_bytes(entry_bytes);
    let cache = CacheConfig::new(
        CacheId::new(0),
        ByteSize::from_bytes(entries * entry_bytes),
        PolicyKind::Lru,
    )
    .shards(64)
    .build_concurrent();
    for i in 0..entries {
        cache.insert(DocId::new(i), size, Timestamp::from_millis(i));
    }
    let ops = entries.clamp(50_000, 400_000);
    let before = cache.contention();
    let barrier = Barrier::new(THREADS as usize);
    let slowest_ns = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (cache, barrier) = (&cache, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    per_call_ns(ops, |i| {
                        let doc = DocId::new(scattered(i, entries, seed ^ t));
                        let now = Timestamp::from_millis(entries + i);
                        black_box(cache.lookup(black_box(doc), now));
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe thread panicked"))
            .fold(0.0, f64::max)
    });
    let after = cache.contention();
    layers.insert("core.concurrent_lookup_ns", slowest_ns);
    layers.insert(
        "core.lock_acquisitions",
        (after.acquisitions - before.acquisitions) as f64,
    );
    layers.insert(
        "core.lock_contended",
        (after.contended - before.contended) as f64,
    );
}

/// The protocol node's two responder-side handlers, on a warm node.
pub fn proxy_node_probes(layers: &mut Layers, entries: u64, entry_bytes: u64, seed: u64) {
    let size = ByteSize::from_bytes(entry_bytes);
    let config = CacheConfig::new(
        CacheId::new(0),
        ByteSize::from_bytes(entries * entry_bytes),
        PolicyKind::Lru,
    );
    let mut node = ProxyNode::from_config(config, PlacementScheme::Ea);
    for i in 0..entries {
        node.complete_origin_fetch(DocId::new(i), size, Timestamp::from_millis(i));
    }
    let ops = entries.clamp(50_000, 400_000);
    let from = CacheId::new(1);
    layers.insert(
        "proxy.node_icp_query_ns",
        per_call_ns(ops, |i| {
            let doc = DocId::new(scattered(i, entries, seed));
            black_box(node.handle_icp_query(black_box(IcpQuery { from, doc })));
        }),
    );
    let requester_age = ExpirationAge::finite(DurationMs::from_secs(1));
    layers.insert(
        "proxy.node_http_request_ns",
        per_call_ns(ops, |i| {
            let request = HttpRequest {
                from,
                doc: DocId::new(scattered(i, entries, seed ^ 1)),
                requester_age,
            };
            let now = Timestamp::from_millis(entries + i);
            black_box(node.handle_http_request(black_box(request), now));
        }),
    );
}

/// Header codec cost for the two frames the document protocol exchanges.
pub fn wire_probes(layers: &mut Layers) {
    const OPS: u64 = 400_000;
    let request = |i: u64| WireMessage::DocRequest {
        request: HttpRequest {
            from: CacheId::new(1),
            doc: DocId::new(i),
            requester_age: ExpirationAge::finite(DurationMs::from_secs(1)),
        },
        ctx: None,
    };
    let response = WireMessage::DocResponse {
        response: HttpResponse {
            from: CacheId::new(0),
            doc: DocId::new(7),
            size: ByteSize::from_bytes(256),
            responder_age: ExpirationAge::Infinite,
        },
        found: true,
    };
    layers.insert(
        "net.wire_encode_ns",
        per_call_ns(OPS, |i| {
            black_box(black_box(request(i)).encode());
        }),
    );
    let encoded = response.encode();
    layers.insert(
        "net.wire_decode_ns",
        per_call_ns(OPS, |_| {
            black_box(WireMessage::decode(black_box(&encoded))).ok();
        }),
    );
}

/// One counter bump on the always-on stats registry.
pub fn stats_record_probe(layers: &mut Layers) {
    let registry = StatsRegistry::new();
    layers.insert(
        "obs.stats_record_ns",
        per_call_ns(2_000_000, |_| {
            registry.record(black_box(EventKind::Request));
        }),
    );
    black_box(registry.total());
}
