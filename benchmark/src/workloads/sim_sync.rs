//! `sim-sync`: the researcher's workload — the synchronous runner over
//! the Figure 1 grid (5 aggregate capacities × {ad-hoc, EA}, 4 caches,
//! LRU, no sink) on the seeded BU-94-scale trace.
//!
//! `proxy::DistributedGroup` and `core::Cache` do nearly all the work,
//! at a table size (~12k entries per cache) that fits the CPU cache;
//! `net` and `obs` do none. This is the bypass workload for both.

use super::{share, Checks, Ctx, EndToEnd, Kind, Layers, DEFAULT_SEED};
use crate::layers;
use crate::spans::{Recorder, SpanRec};
use coopcache::cache::{Cache, CacheStats, PlacementScheme, PolicyKind};
use coopcache::metrics::{pct, GroupMetrics};
use coopcache::proxy::{DistributedGroup, ProtocolStats, RequestOutcome};
use coopcache::sim::{self, SimConfig, SimReport, PAPER_CACHE_SIZES};
use coopcache::trace::Trace;
use coopcache::types::{ByteSize, CacheId};
use std::hint::black_box;
use std::time::Instant;

/// One pass of the grid takes about a second on the 2-core builder; the
/// issue's 15 passes are scaled by the common factor.
const ISSUE_PASSES: u64 = 15;

/// `BENCH_9.json` → `fig1_hit_rates` rows: (ad-hoc hit %, EA hit %) per
/// capacity, as printed.
const BENCH_9_FIG1: [(&str, &str); 5] = [
    ("53.08", "54.54"),
    ("76.03", "76.18"),
    ("83.90", "84.33"),
    ("90.20", "90.64"),
    ("91.83", "91.83"),
];

/// Index of the 10 MB capacity, whose EA cell is reported as `hit_ratio`.
const HIT_RATIO_CAPACITY: usize = 2;

/// A pair of cells per capacity: ad-hoc at `2 * i`, EA at `2 * i + 1`.
fn grid() -> Vec<SimConfig> {
    PAPER_CACHE_SIZES
        .iter()
        .flat_map(|&aggregate| {
            [PlacementScheme::AdHoc, PlacementScheme::Ea].map(|scheme| {
                SimConfig::new(aggregate)
                    .with_group_size(4)
                    .with_scheme(scheme)
            })
        })
        .collect()
}

struct Setup {
    trace: Trace,
    /// The warm-up pass's reports, one per grid cell — the reference
    /// every timed pass must reproduce exactly.
    reference: Vec<SimReport>,
}

fn setup(ctx: &Ctx, cells: &[SimConfig]) -> Result<Setup, String> {
    let trace = ctx.bu94_trace()?;
    let reference = cells.iter().map(|cfg| sim::run(cfg, &trace)).collect();
    Ok(Setup { trace, reference })
}

/// Checks on the reference pass: the paper's guarantee per capacity and,
/// at the default seed, the published Figure 1 cells.
pub fn check_reference(checks: &mut Checks, ctx: &Ctx, reference: &[SimReport]) {
    for (i, pair) in reference.chunks(2).enumerate() {
        let (adhoc, ea) = (pair[0].metrics.hit_rate(), pair[1].metrics.hit_rate());
        checks.require(ea >= adhoc - 0.005, || {
            format!(
                "EA hit rate {ea:.4} below ad-hoc {adhoc:.4} - 0.5 pp at {}",
                PAPER_CACHE_SIZES[i]
            )
        });
        if ctx.seed == DEFAULT_SEED {
            let got = (pct(adhoc), pct(ea));
            let want = BENCH_9_FIG1[i];
            checks.require((got.0.as_str(), got.1.as_str()) == want, || {
                format!(
                    "Fig. 1 cells at {} are {got:?}, BENCH_9 has {want:?}",
                    PAPER_CACHE_SIZES[i]
                )
            });
        }
    }
}

pub fn run(ctx: &Ctx) -> Result<(Checks, EndToEnd), String> {
    let cells = grid();
    let mut checks = Checks::default();
    let mut e2e = EndToEnd::new(Kind::SingleThreaded);
    let Setup { trace, reference } = e2e.timed_setup(|| setup(ctx, &cells), drop)?;
    check_reference(&mut checks, ctx, &reference);

    let passes = ctx.scaled(ISSUE_PASSES, 3);
    let requests_per_pass = (cells.len() * trace.len()) as u64;
    for _ in 0..passes {
        e2e.block(requests_per_pass, |samples| {
            for (cell, (cfg, expected)) in cells.iter().zip(&reference).enumerate() {
                let started = Instant::now();
                let report = black_box(sim::run(black_box(cfg), &trace));
                let us = started.elapsed().as_secs_f64() * 1e6;
                samples.push_repeated(cell, us / trace.len() as f64);
                // Same config, same trace: the report must repeat exactly.
                checks.op(&report == expected);
            }
        });
    }
    e2e.hit_ratio = reference[2 * HIT_RATIO_CAPACITY + 1].metrics.hit_rate();
    e2e.note("trace_requests", trace.len());
    e2e.note("grid_cells", cells.len());
    e2e.note("passes", passes);
    e2e.note(
        "latency_unit",
        "one grid cell's wall time per simulated request",
    );
    Ok((checks, e2e))
}

/// The runner's loop, rebuilt from the public calls it makes. With a
/// recorder, every [`super::SPAN_EVERY`]-th request carries spans around
/// those calls; without one it is the bare loop the spans are compared
/// against. Returns the group (for its counters) and the metrics.
fn replay(
    cfg: &SimConfig,
    trace: &Trace,
    mut rec: Option<&mut Recorder>,
) -> (DistributedGroup, GroupMetrics) {
    let mut group = DistributedGroup::with_capacities(
        &cfg.cache_capacities(),
        cfg.policy,
        cfg.scheme,
        cfg.window,
        cfg.discovery,
    );
    group.set_ttl(cfg.ttl);
    let mut metrics = GroupMetrics::default();
    let n = usize::from(cfg.group_size);
    for (seq, request) in trace.iter().enumerate() {
        match rec.as_deref_mut() {
            Some(rec) if seq % super::SPAN_EVERY == 0 => {
                let root = rec.next_id();
                let started = rec.now_ns();
                let requester = rec.span("trace.partition", root, || {
                    cfg.partitioner.assign(request, seq, n)
                });
                let outcome = rec.span("proxy.group_request", root, || {
                    group.handle_request(requester, request.doc, request.size, request.time)
                });
                rec.span("metrics.record", root, || {
                    metrics.record(outcome, request.size);
                });
                let ended = rec.now_ns();
                rec.push("sim.request", root, 0, started, ended);
            }
            _ => {
                let requester = cfg.partitioner.assign(request, seq, n);
                let outcome =
                    group.handle_request(requester, request.doc, request.size, request.time);
                metrics.record(outcome, request.size);
            }
        }
    }
    (group, metrics)
}

/// The store calls of a request's local path — lookup, and insert on a
/// miss — replayed on one cache with the trace's own documents, so the
/// probe sees the locality the simulator's caches see. Nanoseconds per
/// request.
fn local_store_path_ns(trace: &Trace, capacity: ByteSize) -> f64 {
    let mut cache = Cache::new(CacheId::new(0), capacity, PolicyKind::Lru);
    let started = Instant::now();
    for request in trace.iter() {
        if black_box(cache.lookup(request.doc, request.time)).is_none() {
            black_box(cache.insert(request.doc, request.size, request.time));
        }
    }
    started.elapsed().as_nanos() as f64 / trace.len() as f64
}

pub fn trace(ctx: &Ctx) -> Result<(Checks, Layers, Vec<SpanRec>), String> {
    let cells = grid();
    let mut checks = Checks::default();
    let mut layers = Layers::new();
    let generated = Instant::now();
    let trace = ctx.bu94_trace()?;
    let generate_ns = generated.elapsed().as_nanos() as f64 / trace.len() as f64;
    let requests = (cells.len() * trace.len()) as f64;

    // 1. The runner itself: the rate everything else is a share of, and
    //    the reports the replays must agree with.
    let started = Instant::now();
    let reference: Vec<SimReport> = cells.iter().map(|cfg| sim::run(cfg, &trace)).collect();
    let sync_per_req = started.elapsed().as_nanos() as f64 / requests;
    check_reference(&mut checks, ctx, &reference);

    // 2. The same calls without the runner around them, spans off.
    let mut store_ops = CacheStats::default();
    let mut protocol = ProtocolStats::default();
    let mut total = GroupMetrics::default();
    let started = Instant::now();
    for (cfg, expected) in cells.iter().zip(&reference) {
        let (group, metrics) = replay(cfg, &trace, None);
        checks.op(metrics == expected.metrics);
        for node in group.iter() {
            store_ops.merge(&node.cache().stats());
        }
        protocol.icp_queries += group.protocol_stats().icp_queries;
        protocol.doc_requests += group.protocol_stats().doc_requests;
        total.merge(&metrics);
    }
    let replay_per_req = started.elapsed().as_nanos() as f64 / requests;

    // 3. And with spans on every 64th request.
    let mut rec = Recorder::new(Instant::now(), 0);
    let started = Instant::now();
    for (cfg, expected) in cells.iter().zip(&reference) {
        let (_, metrics) = replay(cfg, &trace, Some(&mut rec));
        checks.op(metrics == expected.metrics);
    }
    let traced_per_req = started.elapsed().as_nanos() as f64 / requests;

    // 4. The two short calls, each in a tight loop of its own: a span
    //    around a 5 ns call measures the clock, not the call.
    let partitioner = cells[0].partitioner;
    let started = Instant::now();
    for (seq, request) in trace.iter().enumerate() {
        black_box(partitioner.assign(black_box(request), seq, 4));
    }
    let partition_ns = started.elapsed().as_nanos() as f64 / trace.len() as f64;
    let mut outcomes: Vec<RequestOutcome> = Vec::with_capacity(trace.len());
    let _ = sim::run_with_observer(&cells[0], &trace, |_, _, outcome| outcomes.push(outcome));
    let mut tally = GroupMetrics::default();
    let started = Instant::now();
    for (outcome, request) in outcomes.iter().zip(trace.iter()) {
        tally.record(black_box(*outcome), request.size);
    }
    let record_ns = started.elapsed().as_nanos() as f64 / trace.len() as f64;
    black_box(tally);
    // What is left of the bare loop is the group call.
    let group_ns = (replay_per_req - partition_ns - record_ns).max(0.0);

    // 5. The store inside the group call: the local path replayed on one
    //    cache per capacity with the trace's own locality, plus the
    //    responder-side calls (ICP `contains`, `serve_remote`) from
    //    probes at this table size, weighted by the exact message counts.
    let group_size = u64::from(cells[0].group_size);
    let local_path_ns = PAPER_CACHE_SIZES
        .iter()
        .map(|aggregate| local_store_path_ns(&trace, aggregate.split_evenly(group_size)))
        .sum::<f64>()
        / PAPER_CACHE_SIZES.len() as f64;
    let entries_per_cache = reference
        .iter()
        .map(|r| r.total_docs_cached as u64 / group_size)
        .max()
        .unwrap_or(0)
        .max(1_000);
    let mean_doc = trace.stats().mean_doc_size().as_bytes().max(1);
    layers::core_probes(
        &mut layers,
        entries_per_cache,
        mean_doc,
        ctx.derived_seed(1),
    );
    layers::proxy_node_probes(
        &mut layers,
        entries_per_cache,
        mean_doc,
        ctx.derived_seed(2),
    );
    let icp_per_req = protocol.icp_queries as f64 / requests;
    let doc_per_req = protocol.doc_requests as f64 / requests;
    let core_ns = (local_path_ns
        + icp_per_req * layers["core.contains_ns"]
        + doc_per_req * layers["core.serve_remote_ns"])
        .min(group_ns);
    layers.insert("core.evictions", store_ops.evictions as f64);

    layers.insert("trace.generate_ns_per_req", generate_ns);
    layers.insert("trace.partition_ns_per_req", partition_ns);
    layers.insert("proxy.group_request_ns", group_ns);
    layers.insert("metrics.record_ns", record_ns);
    layers.insert("sim.sync_ns_per_req", sync_per_req);
    let unattributed = share((sync_per_req - replay_per_req).max(0.0), sync_per_req);
    layers.insert("sim.runner_unattributed_share", unattributed);
    layers.insert("proxy.icp_queries_per_req", icp_per_req);
    layers.insert("proxy.doc_requests_per_req", doc_per_req);
    layers.insert("proxy.local_hit_share", total.local_hit_rate());
    layers.insert("proxy.remote_hit_share", total.remote_hit_rate());
    layers.insert("proxy.miss_share", total.miss_rate());
    layers.insert(
        "proxy.placement_stored_share",
        1.0 - share(total.stores_skipped as f64, total.remote_hits as f64),
    );
    layers.insert(
        "proxy.replica_overhead",
        reference
            .iter()
            .map(SimReport::replica_overhead)
            .sum::<usize>() as f64,
    );

    // Shares of the runner's time per request. The bare loop can run a
    // little slower than the runner it imitates; shares are of whichever
    // is larger, so they never add up to more than 1.
    let whole = sync_per_req.max(replay_per_req);
    layers.insert("core.time_share", share(core_ns, whole));
    layers.insert("proxy.time_share", share(group_ns - core_ns, whole));
    layers.insert("trace.time_share", share(partition_ns, whole));
    layers.insert("metrics.time_share", share(record_ns, whole));
    layers.insert("sim.time_share", unattributed);
    layers.insert("bench.clock_ns", layers::clock_ns());
    layers.insert(
        "bench.trace_overhead_pct",
        100.0 * (traced_per_req - replay_per_req) / replay_per_req,
    );
    Ok((checks, layers, rec.spans))
}
