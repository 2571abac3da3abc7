//! `live-coop`: the paper's path, live. A 4-daemon loopback cluster (EA,
//! 2.5 MB per cache, zero origin delay, events off) replays the
//! `ByClientModulo`-partitioned BU-94-scale trace: real UDP ICP fan-out,
//! pooled TCP peer fetches with piggybacked ages, origin fallback, real
//! body bytes. `net` dominates; the store is under 1 % of a peer request.
//!
//! Closed loop, two client threads (thread *t* drives daemons *t* and
//! *t* + 2): `CacheDaemon::request` is a blocking call whose callers each
//! wait for their reply, so a slow system receives less load. With ≥ 12
//! daemon threads on 2 cores the box is CPU-saturated — removing a
//! wakeup or a syscall can save more than its own share, and shows in
//! `cpu_us_per_req` first.

use super::{share, Checks, Ctx, EndToEnd, Kind, Layers};
use crate::live::{self, Collector};
use crate::spans::{Recorder, SpanRec};
use crate::stats;
use coopcache::cache::PlacementScheme;
use coopcache::net::{scrape_stats, ClusterConfig, LoopbackCluster};
use coopcache::obs::{scoped_id, EventKind, SinkHandle, Span, SpanKind};
use coopcache::proxy::RequestOutcome;
use coopcache::trace::Partitioner;
use coopcache::types::{ByteSize, CacheId, DocId, Request};
use std::collections::BTreeMap;
use std::net::TcpStream;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

const DAEMONS: usize = 4;
const CLIENTS: usize = 2;
const PER_CACHE: ByteSize = ByteSize::from_kb(2_560);
const ISSUE_WARMUP: u64 = 75_775;
const ISSUE_TIMED: u64 = 700_000;
/// Rounds the timed phase is split into.
const ROUNDS: usize = 10;

/// One request as a client thread replays it, packed: the lists stay
/// resident for the whole run and should not dwarf the cluster.
#[derive(Debug, Clone, Copy)]
struct Planned {
    doc: u32,
    size: u32,
    daemon: u8,
}

impl Planned {
    fn new(daemon: usize, request: &Request) -> Result<Self, String> {
        let fits = |what: &str| format!("trace {what} does not fit the packed request");
        Ok(Self {
            doc: u32::try_from(request.doc.as_u64()).map_err(|_| fits("document id"))?,
            size: u32::try_from(request.size.as_bytes()).map_err(|_| fits("document size"))?,
            daemon: u8::try_from(daemon).map_err(|_| fits("daemon index"))?,
        })
    }

    fn daemon(&self) -> usize {
        usize::from(self.daemon)
    }

    fn doc(&self) -> DocId {
        DocId::new(u64::from(self.doc))
    }

    fn size(&self) -> ByteSize {
        ByteSize::from_bytes(u64::from(self.size))
    }
}

/// Where a request was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Source {
    Local,
    Peer,
    Origin,
}

impl Source {
    fn of(outcome: RequestOutcome) -> Self {
        match outcome {
            RequestOutcome::LocalHit => Self::Local,
            RequestOutcome::RemoteHit { .. } => Self::Peer,
            RequestOutcome::Miss { .. } => Self::Origin,
        }
    }
}

/// The seeded trace, split by requester cache and then by client thread,
/// each list in trace order.
///
/// Built once per run, outside the repeated set-up: generating an 18 MB
/// trace three times leaves the allocator's heap in a different shape
/// every run (peak RSS 49–89 MB for the same binary), which would make
/// `peak_rss_mb` a measure of `malloc`'s luck. Its one timing is added to
/// every set-up repetition instead.
struct Plan {
    lists: Vec<Vec<Planned>>,
    secs: f64,
    generate_ns_per_req: f64,
    partition_ns_per_req: f64,
}

fn plan(ctx: &Ctx) -> Result<Plan, String> {
    let started = Instant::now();
    let trace = ctx.bu94_trace()?;
    let generated = started.elapsed();
    let requester =
        |seq: usize, r: &Request| Partitioner::ByClientModulo.assign(r, seq, DAEMONS).index();
    // Sized exactly first, so no list is ever reallocated.
    let mut counts = [0usize; CLIENTS];
    for (seq, request) in trace.iter().enumerate() {
        counts[requester(seq, request) % CLIENTS] += 1;
    }
    let mut lists: Vec<Vec<Planned>> = counts.iter().map(|&n| Vec::with_capacity(n)).collect();
    for (seq, request) in trace.iter().enumerate() {
        let daemon = requester(seq, request);
        lists[daemon % CLIENTS].push(Planned::new(daemon, request)?);
    }
    let total = started.elapsed();
    let per_req = |d: std::time::Duration| d.as_nanos() as f64 / trace.len() as f64;
    Ok(Plan {
        lists,
        secs: total.as_secs_f64(),
        generate_ns_per_req: per_req(generated),
        partition_ns_per_req: per_req(total - generated),
    })
}

/// What one client thread saw.
#[derive(Debug, Default)]
struct Seen {
    /// (source, latency µs) per answered request.
    latencies: Vec<(Source, f64)>,
    failed: u64,
    bytes: u64,
}

/// Replays `requests`, timing each.
fn client(cluster: &LoopbackCluster, requests: &[Planned]) -> Seen {
    let mut seen = Seen::default();
    seen.latencies.reserve(requests.len());
    for r in requests {
        let started = Instant::now();
        match cluster.request(r.daemon(), r.doc(), r.size()) {
            Ok(outcome) => {
                let us = started.elapsed().as_nanos() as f64 / 1e3;
                seen.latencies.push((Source::of(outcome), us));
                seen.bytes += u64::from(r.size);
            }
            Err(_) => seen.failed += 1,
        }
    }
    seen
}

/// Runs one slice of every client's list concurrently and returns what
/// each client saw.
fn drive(cluster: &LoopbackCluster, slices: &[&[Planned]]) -> Vec<Seen> {
    live::side_by_side(slices, |_, slice| client(cluster, slice))
}

struct Setup {
    cluster: LoopbackCluster,
    /// Requests each client sent while warming up.
    warmed: usize,
    /// Origin-served requests during warm-up.
    warm_origin: u64,
    cluster_start_ms: f64,
}

/// Starts the cluster and warms it with the head of every client's list.
fn setup(ctx: &Ctx, lists: &[Vec<Planned>]) -> Result<Setup, String> {
    let started = Instant::now();
    let cluster = LoopbackCluster::start_with_config(ClusterConfig::new(
        DAEMONS as u16,
        PER_CACHE,
        PlacementScheme::Ea,
    ))
    .map_err(|e| format!("cluster start failed: {e}"))?;
    let cluster_start_ms = started.elapsed().as_secs_f64() * 1e3;
    let warmed = ctx.scaled(ISSUE_WARMUP, 2_000) as usize / CLIENTS;
    let slices: Vec<&[Planned]> = lists.iter().map(|l| &l[..warmed.min(l.len())]).collect();
    let seen = drive(&cluster, &slices);
    let failed: u64 = seen.iter().map(|s| s.failed).sum();
    if failed > 0 {
        return Err(format!("{failed} warm-up requests failed"));
    }
    let warm_origin = seen
        .iter()
        .flat_map(|s| &s.latencies)
        .filter(|(source, _)| *source == Source::Origin)
        .count() as u64;
    Ok(Setup {
        cluster,
        warmed,
        warm_origin,
        cluster_start_ms,
    })
}

/// The timed slice of every client's list: the same count for each, so
/// the clients finish together.
fn timed_slices<'a>(ctx: &Ctx, lists: &'a [Vec<Planned>], warmed: usize) -> Vec<&'a [Planned]> {
    let want = ctx.scaled(ISSUE_TIMED, 10_000) as usize / CLIENTS;
    let have = lists.iter().map(|l| l.len().saturating_sub(warmed)).min();
    let count = want.min(have.unwrap_or(0));
    lists.iter().map(|l| &l[warmed..warmed + count]).collect()
}

/// Sorted latencies per serve source.
fn by_source(seen: &[Seen]) -> BTreeMap<Source, Vec<f64>> {
    let mut out: BTreeMap<Source, Vec<f64>> = BTreeMap::new();
    for (source, us) in seen.iter().flat_map(|s| &s.latencies) {
        out.entry(*source).or_default().push(*us);
    }
    out.values_mut().for_each(|v| stats::sort(v));
    out
}

fn check_cluster(checks: &mut Checks, cluster: &LoopbackCluster, origin_outcomes: u64) {
    checks.require(cluster.origin_fetches() == origin_outcomes, || {
        format!(
            "origin served {} fetches but {origin_outcomes} requests reported an origin outcome",
            cluster.origin_fetches()
        )
    });
    for i in 0..cluster.len() {
        let audit = cluster
            .daemon(i)
            .with_node(|node| node.cache().check_invariants());
        checks.require(audit.is_ok(), || {
            format!("daemon {i} store invariants violated: {audit:?}")
        });
    }
}

pub fn run(ctx: &Ctx) -> Result<(Checks, EndToEnd), String> {
    let mut checks = Checks::default();
    let mut e2e = EndToEnd::new(Kind::Live);
    let plan = plan(ctx)?;
    let s = e2e.timed_setup(
        || setup(ctx, &plan.lists),
        |old: Setup| old.cluster.shutdown(),
    )?;
    e2e.setup_s.iter_mut().for_each(|secs| *secs += plan.secs);
    let slices = timed_slices(ctx, &plan.lists, s.warmed);
    // The timed phase runs in rounds: in each, every client replays the
    // next part of its list; the round ends when the slower one is done.
    let per_round = slices[0].len().div_ceil(ROUNDS).max(1);
    let mut rounds: Vec<_> = slices.iter().map(|l| l.chunks(per_round)).collect();
    let mut seen = Vec::new();
    loop {
        let parts: Vec<&[Planned]> = rounds.iter_mut().filter_map(Iterator::next).collect();
        if parts.is_empty() {
            break;
        }
        let ops = parts.iter().map(|p| p.len() as u64).sum();
        seen.extend(e2e.block(ops, |remote_us| {
            let seen = drive(&s.cluster, &parts);
            // The latency a user of the group waits for: requests
            // that left their own cache. Local hits are
            // sub-microsecond store lookups and would only dilute
            // it; per-source percentiles are layer metrics.
            remote_us.extend(
                seen.iter()
                    .flat_map(|x| &x.latencies)
                    .filter(|(source, _)| *source != Source::Local)
                    .map(|(_, us)| *us),
            );
            seen
        }));
    }

    let sources = by_source(&seen);
    let count = |source| sources.get(&source).map_or(0, Vec::len) as u64;
    let answered = count(Source::Local) + count(Source::Peer) + count(Source::Origin);
    checks.attempted = slices.iter().map(|l| l.len() as u64).sum();
    checks.failed = seen.iter().map(|x| x.failed).sum();
    let (attempted, failed) = (checks.attempted, checks.failed);
    checks.require(answered + failed == attempted, || {
        format!("{answered} answered + {failed} failed != {attempted} attempted")
    });
    check_cluster(
        &mut checks,
        &s.cluster,
        s.warm_origin + count(Source::Origin),
    );

    e2e.hit_ratio = share(
        (count(Source::Local) + count(Source::Peer)) as f64,
        checks.attempted as f64,
    );
    for (source, label) in [
        (Source::Local, "local"),
        (Source::Peer, "peer"),
        (Source::Origin, "origin"),
    ] {
        let sorted = sources.get(&source).map_or(&[][..], Vec::as_slice);
        let p = |pct| stats::percentile(sorted, pct).unwrap_or(0.0);
        e2e.note(
            &format!("{label}_us"),
            format!(
                "raw n={} p50={:.1} p90={:.1} p99={:.1}",
                sorted.len(),
                p(50.0),
                p(90.0),
                p(99.0)
            ),
        );
    }
    e2e.note("clients", CLIENTS);
    e2e.note("daemons", DAEMONS);
    e2e.note("loop", "closed");
    e2e.note("link", "host loopback");
    e2e.note("latency_unit", "one peer- or origin-served request");
    s.cluster.shutdown();
    Ok((checks, e2e))
}

/// One traced request: the benchmark's root span and which daemon-side
/// trace it corresponds to.
struct Root {
    span: SpanRec,
    trace_id: u64,
    source: Source,
}

/// Like [`client`], but every request sits in a benchmark root span and
/// is matched to the daemon's own trace by its per-daemon sequence
/// number (one client drives a daemon, so the order is known).
fn traced_client(
    cluster: &LoopbackCluster,
    requests: &[Planned],
    mut next_seq: [u64; DAEMONS],
    rec: &mut Recorder,
) -> (Vec<Root>, u64) {
    let mut roots = Vec::with_capacity(requests.len());
    let mut failed = 0;
    for r in requests {
        let seq = next_seq[r.daemon()];
        next_seq[r.daemon()] += 1;
        let id = rec.next_id();
        let start_ns = rec.now_ns();
        let outcome = cluster.request(r.daemon(), r.doc(), r.size());
        let end_ns = rec.now_ns();
        match outcome {
            Ok(outcome) => roots.push(Root {
                span: SpanRec {
                    name: "bench.request",
                    id,
                    parent: 0,
                    start_ns,
                    end_ns,
                },
                trace_id: scoped_id(CacheId::new(u16::from(r.daemon)), seq),
                source: Source::of(outcome),
            }),
            Err(_) => failed += 1,
        }
    }
    (roots, failed)
}

fn span_name(kind: SpanKind) -> &'static str {
    match kind {
        SpanKind::Request => "net.request",
        SpanKind::IcpRound => "net.icp_round",
        SpanKind::IcpHandle => "net.icp_handle",
        SpanKind::PeerFetch => "net.peer_fetch",
        SpanKind::DocServe => "net.doc_serve",
        SpanKind::OriginFetch => "net.origin_fetch",
    }
}

pub fn trace(ctx: &Ctx) -> Result<(Checks, Layers, Vec<SpanRec>), String> {
    let mut checks = Checks::default();
    let mut layers = Layers::new();
    let quarter = ctx.quarter();
    let Plan {
        lists,
        generate_ns_per_req,
        partition_ns_per_req,
        ..
    } = plan(&quarter)?;
    let Setup {
        mut cluster,
        warmed,
        warm_origin,
        cluster_start_ms,
    } = setup(&quarter, &lists)?;
    layers.insert("trace.generate_ns_per_req", generate_ns_per_req);
    layers.insert("trace.partition_ns_per_req", partition_ns_per_req);
    layers.insert("net.cluster_start_ms", cluster_start_ms);
    let slices = timed_slices(&quarter, &lists, warmed);
    let half: Vec<(&[Planned], &[Planned])> =
        slices.iter().map(|l| l.split_at(l.len() / 2)).collect();

    // First half untraced: the rate spans are compared against.
    let untraced: Vec<&[Planned]> = half.iter().map(|(a, _)| *a).collect();
    let ctx_before = crate::procfs::context_switches();
    let started = Instant::now();
    let seen = drive(&cluster, &untraced);
    let untraced_s = started.elapsed().as_secs_f64();
    let ctx_after = crate::procfs::context_switches();
    let untraced_ops: u64 = untraced.iter().map(|l| l.len() as u64).sum();
    let sources = by_source(&seen);
    let mut origin_outcomes = warm_origin + sources.get(&Source::Origin).map_or(0, Vec::len) as u64;
    checks.failed += seen.iter().map(|x| x.failed).sum::<u64>();
    for (source, names) in [
        (
            Source::Peer,
            ["net.peer_p50_us", "net.peer_p90_us", "net.peer_p99_us"],
        ),
        (
            Source::Origin,
            [
                "net.origin_p50_us",
                "net.origin_p90_us",
                "net.origin_p99_us",
            ],
        ),
    ] {
        let sorted = sources.get(&source).map_or(&[][..], Vec::as_slice);
        for (name, pct) in names.into_iter().zip([50.0, 90.0, 99.0]) {
            layers.insert(name, stats::percentile(sorted, pct).unwrap_or(0.0));
        }
    }
    let mut all: Vec<f64> = sources.values().flatten().copied().collect();
    stats::sort(&mut all);
    layers.insert("net.p99_us", stats::percentile(&all, 99.0).unwrap_or(0.0));
    if let Some(local) = sources.get(&Source::Local) {
        let mean_us = local.iter().sum::<f64>() / local.len().max(1) as f64;
        layers.insert("net.local_hit_ns", mean_us * 1e3);
    }
    let bytes: u64 = seen.iter().map(|x| x.bytes).sum();
    layers.insert("net.bytes_per_s", bytes as f64 / untraced_s);
    if let (Some(before), Some(after)) = (ctx_before, ctx_after) {
        layers.insert(
            "net.ctx_switches_per_req",
            (after - before) as f64 / untraced_ops as f64,
        );
    }
    let total = untraced_ops as f64;
    let n = |source| sources.get(&source).map_or(0, Vec::len) as f64;
    layers.insert("proxy.local_hit_share", n(Source::Local) / total);
    layers.insert("proxy.remote_hit_share", n(Source::Peer) / total);
    layers.insert("proxy.miss_share", n(Source::Origin) / total);

    // Second half traced: daemon spans into a memory sink, a benchmark
    // root span around every request.
    let collector = Arc::new(Mutex::new(Collector::default()));
    cluster.set_sink(SinkHandle::from_arc(Arc::clone(&collector)));
    let traced: Vec<&[Planned]> = half.iter().map(|(_, b)| *b).collect();
    let epoch = Instant::now();
    let started = Instant::now();
    let results: Vec<(Vec<Root>, u64)> = live::side_by_side(&traced, |t, slice| {
        // Requests each daemon has already served, all from this client.
        let mut next_seq = [0u64; DAEMONS];
        for r in &lists[t][..warmed + untraced[t].len()] {
            next_seq[r.daemon()] += 1;
        }
        let mut rec = Recorder::new(epoch, t as u16);
        traced_client(&cluster, slice, next_seq, &mut rec)
    });
    let traced_s = started.elapsed().as_secs_f64();
    let traced_ops: u64 = traced.iter().map(|l| l.len() as u64).sum();
    checks.attempted = untraced_ops + traced_ops;
    checks.failed += results.iter().map(|(_, failed)| failed).sum::<u64>();
    origin_outcomes += results
        .iter()
        .flat_map(|(roots, _)| roots)
        .filter(|r| r.source == Source::Origin)
        .count() as u64;

    // Probes that need the live cluster.
    let addr = cluster.daemon(0).doc_addr();
    let started = Instant::now();
    const CONNECTS: u32 = 50;
    for _ in 0..CONNECTS {
        drop(TcpStream::connect_timeout(&addr, Duration::from_secs(5)));
    }
    layers.insert(
        "net.connect_us",
        started.elapsed().as_secs_f64() * 1e6 / f64::from(CONNECTS),
    );
    let started = Instant::now();
    const SCRAPES: u32 = 20;
    for _ in 0..SCRAPES {
        scrape_stats(addr, Duration::from_secs(5)).map_err(|e| format!("scrape failed: {e}"))?;
    }
    layers.insert(
        "net.stats_scrape_us",
        started.elapsed().as_secs_f64() * 1e6 / f64::from(SCRAPES),
    );
    let reused: u64 = (0..DAEMONS)
        .map(|i| live::counter(cluster.daemon(i), EventKind::ConnReused))
        .sum();
    check_cluster(&mut checks, &cluster, origin_outcomes);
    let started = Instant::now();
    cluster.shutdown();
    layers.insert(
        "net.cluster_shutdown_ms",
        started.elapsed().as_secs_f64() * 1e3,
    );

    // Join: daemon spans by trace id, per non-local request.
    let collector = Arc::try_unwrap(collector)
        .map_err(|_| "a daemon still holds the span sink after shutdown".to_string())?
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    let mut by_trace: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for span in &collector.spans {
        by_trace.entry(span.trace_id).or_default().push(span);
    }
    let mut out_spans: Vec<SpanRec> = Vec::new();
    let (mut root_us, mut request_us, mut net_us, mut joined) = (0.0, 0.0, 0.0, 0u64);
    let (mut serve_us, mut serves) = (0.0, 0u64);
    for root in results.iter().flat_map(|(roots, _)| roots) {
        out_spans.push(root.span);
        if root.source == Source::Local {
            continue;
        }
        let Some(spans) = by_trace.get(&root.trace_id) else {
            continue;
        };
        let Some(request) = spans.iter().find(|s| s.kind == SpanKind::Request) else {
            continue;
        };
        joined += 1;
        root_us += root.span.duration_ns() as f64 / 1e3;
        request_us += request.duration_us() as f64;
        // The requester's own steps are direct children of its Request
        // span; peers' spans hang below those.
        net_us += spans
            .iter()
            .filter(|s| s.parent == Some(request.span_id))
            .map(|s| s.duration_us() as f64)
            .sum::<f64>();
        // The cluster's clock counts from its own start: centre the
        // daemons' tree inside the root span that caused it.
        let slack_ns = root
            .span
            .duration_ns()
            .saturating_sub(request.duration_us() * 1_000);
        let shift = |us: u64| {
            root.span.start_ns + slack_ns / 2 + us.saturating_sub(request.start_us) * 1_000
        };
        for span in spans {
            // A DocServe span starts before the responder blocks on the
            // frame read; clip it to the fetch that caused it.
            let start_us = spans
                .iter()
                .find(|p| Some(p.span_id) == span.parent)
                .map_or(span.start_us, |p| span.start_us.max(p.start_us));
            if span.kind == SpanKind::DocServe {
                serve_us += span.end_us.saturating_sub(start_us) as f64;
                serves += 1;
            }
            out_spans.push(SpanRec {
                name: span_name(span.kind),
                // Daemon ids carry the cache in their top 16 bits, the
                // benchmark's carry the thread there; keep them apart.
                id: span.span_id | 1 << 63,
                parent: span.parent.map_or(root.span.id, |p| p | 1 << 63),
                start_ns: shift(start_us),
                end_ns: shift(span.end_us),
            });
        }
    }
    checks.require(joined > 0, || {
        "no traced request could be matched to a daemon trace".to_string()
    });
    let per = |x: f64| x / joined.max(1) as f64;
    let per_serve = |x: f64| x / serves.max(1) as f64;
    layers.insert("net.icp_round_us", collector.mean_us(SpanKind::IcpRound));
    layers.insert("net.icp_handle_us", collector.mean_us(SpanKind::IcpHandle));
    layers.insert("net.peer_fetch_us", collector.mean_us(SpanKind::PeerFetch));
    layers.insert("net.doc_serve_us", per_serve(serve_us));
    layers.insert(
        "net.origin_fetch_us",
        collector.mean_us(SpanKind::OriginFetch),
    );
    layers.insert("net.request_self_us", per(request_us - net_us).max(0.0));
    layers.insert(
        "net.client_unattributed_us",
        per(root_us - request_us).max(0.0),
    );
    let sent = (warmed * CLIENTS) as u64 + untraced_ops + traced_ops;
    layers.insert("net.conn_reused_per_req", reused as f64 / sent as f64);
    layers.insert("net.icp_timeouts", collector.icp_timeouts as f64);
    layers.insert("net.peer_faults", collector.peer_faults as f64);
    layers.insert("net.failovers", collector.failovers as f64);
    layers.insert("net.admission_shed", collector.admission_shed as f64);
    // Shares of a peer- or origin-served request's time, as the client
    // measures it: the requester's ICP round and fetch spans are `net`;
    // what is left of the daemon's Request span is its lookup, placement
    // decision and store (`proxy` calling `core`); what is left of the
    // benchmark's span is the call into the daemon.
    let net_share = share(net_us, root_us).min(1.0);
    let request_share = share(request_us, root_us).min(1.0);
    layers.insert("net.time_share", net_share);
    layers.insert("proxy.time_share", (request_share - net_share).max(0.0));
    layers.insert("bench.unattributed_share", 1.0 - request_share);
    crate::layers::stats_record_probe(&mut layers);
    layers.insert("bench.clock_ns", crate::layers::clock_ns());
    let untraced_rate = untraced_ops as f64 / untraced_s;
    let traced_rate = traced_ops as f64 / traced_s;
    layers.insert(
        "bench.trace_overhead_pct",
        100.0 * (untraced_rate - traced_rate) / untraced_rate,
    );
    Ok((checks, layers, out_spans))
}
