//! `live-pipelined`: one daemon, 64 pre-warmed 256-byte documents, one
//! persistent connection pipelining 64 `DocRequest` frames per batch —
//! the shape behind the 1.1M req/s headline of `BENCH_8/9`, with the
//! generator owned by the benchmark.
//!
//! Smallest message, 100 % responder-path hits: the per-frame wire codec,
//! the serve loop and `serve_remote` dominate; ICP, the pool and the
//! origin do nothing. It is the contrast that keeps `live-coop` gains
//! honest.
//!
//! The generator's shape is chosen for steadiness on the 2-core builder,
//! and differs from `BENCH_8/9`'s two connections with one batch in
//! flight each:
//!
//! * two connections put four busy threads on two cores, and the upper
//!   half of the latency distribution moves ±25 % from run to run (p90
//!   94–152 µs over ten runs of the same binary);
//! * one connection with one batch in flight is bimodal: client and
//!   server alternate, and whether the scheduler keeps them on one core
//!   (1.1M req/s, no cross-core wakeups) or two (0.2–0.5M req/s) changes
//!   from run to run;
//! * one connection with **two batches in flight** — the next batch is
//!   written before the previous one's responses are read — keeps the
//!   daemon's queue non-empty and both threads runnable, which takes most
//!   of that choice away from the scheduler: p50 within 6 % over ten runs
//!   (the README's "Steadiness" has the rest).

use super::{share, Checks, Ctx, EndToEnd, Kind, Layers};
use crate::live::{self, Collector};
use crate::spans::{Recorder, SpanRec};
use coopcache::cache::PlacementScheme;
use coopcache::net::{ClusterConfig, LoopbackCluster, WireMessage};
use coopcache::obs::{EventKind, SinkHandle, SpanKind, TraceCtx};
use coopcache::proxy::HttpRequest;
use coopcache::types::{ByteSize, CacheId, DocId, DurationMs, ExpirationAge};
use std::collections::BTreeMap;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

const DOCS: u64 = 64;
const DOC_BYTES: u64 = 256;
const CLIENTS: usize = 1;
const PIPELINE: u64 = 64;
const ISSUE_REQUESTS: u64 = 10_000_000;
/// Untimed batches each connection sends before the timed phase.
const WARMUP_BATCHES: u64 = 2_000;
/// Rounds the timed phase is split into.
const ROUNDS: u64 = 10;
/// Daemon spans written to the span file; the totals cover all of them.
const SPAN_FILE_CAP: usize = 200_000;
/// Every `LATENCY_EVERY`-th response's latency is kept: enough samples
/// for the percentiles without the sample buffer becoming the process's
/// peak memory.
const LATENCY_EVERY: u64 = 8;

/// One persistent client connection.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    from: CacheId,
    /// First document of the next batch; successive batches start one
    /// document further into the working set.
    cursor: u64,
    batch: Vec<u8>,
}

impl Conn {
    fn open(addr: SocketAddr, client: usize, cursor: u64) -> io::Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_write_timeout(Some(Duration::from_secs(30)))?;
        Ok(Self {
            reader: BufReader::with_capacity(1 << 16, stream.try_clone()?),
            stream,
            from: CacheId::new(1 + client as u16),
            cursor,
            batch: Vec::with_capacity(PIPELINE as usize * 64),
        })
    }

    /// Writes one batch of [`PIPELINE`] requests.
    fn send(&mut self, ctx: Option<TraceCtx>) -> io::Result<()> {
        // A finite requester age makes the responder's promote rule run
        // on every request — the realistic hot path, not a short-circuit.
        let requester_age = ExpirationAge::finite(DurationMs::from_secs(1));
        self.batch.clear();
        for k in 0..PIPELINE {
            let request = HttpRequest {
                from: self.from,
                doc: DocId::new((self.cursor + k) % DOCS),
                requester_age,
            };
            live::push_frame(&mut self.batch, &WireMessage::DocRequest { request, ctx });
        }
        self.cursor = (self.cursor + 1) % DOCS;
        self.stream.write_all(&self.batch)
    }

    /// Reads one batch's responses; `on_response(k, ok)` sees each in
    /// order.
    fn receive(&mut self, mut on_response: impl FnMut(u64, bool)) -> io::Result<()> {
        for k in 0..PIPELINE {
            let WireMessage::DocResponse { response, found } = live::read_frame(&mut self.reader)?
            else {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "expected a document response",
                ));
            };
            if found {
                live::drain_body(&mut self.reader, response.size.as_bytes())?;
            }
            on_response(k, found && response.size.as_bytes() == DOC_BYTES);
        }
        Ok(())
    }

    /// Sends one batch and reads its responses.
    fn batch(
        &mut self,
        ctx: Option<TraceCtx>,
        on_response: impl FnMut(u64, bool),
    ) -> io::Result<()> {
        self.send(ctx)?;
        self.receive(on_response)
    }
}

struct Setup {
    cluster: LoopbackCluster,
    conns: Vec<Conn>,
    cluster_start_ms: f64,
}

fn setup(ctx: &Ctx) -> Result<Setup, String> {
    let io = |e: io::Error| format!("live-pipelined set-up failed: {e}");
    let started = Instant::now();
    // Capacity holds the working set four times over: the workload
    // measures transport, not eviction.
    let capacity = ByteSize::from_bytes(DOC_BYTES * DOCS * 4);
    let cluster =
        LoopbackCluster::start_with_config(ClusterConfig::new(1, capacity, PlacementScheme::Ea))
            .map_err(io)?;
    let cluster_start_ms = started.elapsed().as_secs_f64() * 1e3;
    for d in 0..DOCS {
        cluster
            .request(0, DocId::new(d), ByteSize::from_bytes(DOC_BYTES))
            .map_err(io)?;
    }
    let addr = cluster.daemon(0).doc_addr();
    let mut conns = Vec::with_capacity(CLIENTS);
    for c in 0..CLIENTS {
        let cursor = ctx.derived_seed(20 + c as u64) % DOCS;
        let mut conn = Conn::open(addr, c, cursor).map_err(io)?;
        let mut bad = 0u64;
        for _ in 0..WARMUP_BATCHES {
            conn.batch(None, |_, ok| bad += u64::from(!ok))
                .map_err(io)?;
        }
        if bad > 0 {
            return Err(format!("{bad} warm-up responses were wrong"));
        }
        conns.push(conn);
    }
    Ok(Setup {
        cluster,
        conns,
        cluster_start_ms,
    })
}

fn teardown(s: Setup) {
    drop(s.conns);
    s.cluster.shutdown();
}

/// What one connection saw in one round.
#[derive(Default)]
struct Seen {
    latency_us: Vec<f64>,
    ok: u64,
    failed: u64,
}

/// Sends `batches` batches on one connection, keeping two in flight: the
/// next batch is written before the previous one's responses are read,
/// so the daemon always has work queued (see the module docs).
fn client(conn: &mut Conn, batches: u64) -> Seen {
    let mut seen = Seen::default();
    let mut exchange = || -> io::Result<()> {
        let mut started = Instant::now();
        conn.send(None)?;
        for sent in 1..=batches {
            let next_started = Instant::now();
            if sent < batches {
                conn.send(None)?;
            }
            conn.receive(|k, ok| {
                seen.ok += u64::from(ok);
                seen.failed += u64::from(!ok);
                if k % LATENCY_EVERY == LATENCY_EVERY - 1 {
                    seen.latency_us
                        .push(started.elapsed().as_nanos() as f64 / 1e3);
                }
            })?;
            started = next_started;
        }
        Ok(())
    };
    if exchange().is_err() {
        // The connection is gone; everything left counts as failed.
        seen.failed = batches * PIPELINE - seen.ok;
    }
    seen
}

/// Batches each connection sends per round.
fn batches_per_round(ctx: &Ctx) -> u64 {
    (ctx.scaled(ISSUE_REQUESTS, 0) / (CLIENTS as u64 * ROUNDS * PIPELINE)).max(1)
}

/// One round: every connection sends its batches, side by side.
fn drive(conns: &mut [Conn], batches: u64) -> Vec<Seen> {
    live::side_by_side(conns.iter_mut(), |_, conn| client(conn, batches))
}

pub fn run(ctx: &Ctx) -> Result<(Checks, EndToEnd), String> {
    let mut checks = Checks::default();
    let mut e2e = EndToEnd::new(Kind::Live);
    let mut s = e2e.timed_setup(|| setup(ctx), teardown)?;
    let batches = batches_per_round(ctx);
    let per_round = batches * PIPELINE * CLIENTS as u64;
    let (mut ok, mut failed) = (0, 0);
    for _ in 0..ROUNDS {
        e2e.block(per_round, |latency_us| {
            for seen in drive(&mut s.conns, batches) {
                ok += seen.ok;
                failed += seen.failed;
                latency_us.extend(seen.latency_us);
            }
        });
    }

    checks.attempted = per_round * ROUNDS;
    checks.failed = failed;
    let reused = live::counter(s.cluster.daemon(0), EventKind::ConnReused);
    checks.require(reused > 0, || {
        "the daemon counted no reused connection under pipelining".to_string()
    });
    e2e.hit_ratio = share(ok as f64, checks.attempted as f64);
    e2e.note("connections", CLIENTS);
    e2e.note("pipeline_depth", PIPELINE);
    e2e.note("connections_reused", reused);
    e2e.note("loop", "closed, two batches in flight");
    e2e.note("link", "host loopback");
    e2e.note(
        "latency_unit",
        "batch write to a response's arrival, every 8th response",
    );
    teardown(s);
    Ok((checks, e2e))
}

pub fn trace(ctx: &Ctx) -> Result<(Checks, Layers, Vec<SpanRec>), String> {
    let mut checks = Checks::default();
    let mut layers = Layers::new();
    let quarter = ctx.quarter();
    let mut s = setup(&quarter)?;
    layers.insert("net.cluster_start_ms", s.cluster_start_ms);
    let batches = (batches_per_round(&quarter) * ROUNDS / 2).max(1);

    // Untraced half.
    let ctx_before = crate::procfs::context_switches();
    let started = Instant::now();
    let seen = drive(&mut s.conns, batches);
    let untraced_s = started.elapsed().as_secs_f64();
    let ctx_after = crate::procfs::context_switches();
    let ops = batches * PIPELINE * CLIENTS as u64;
    checks.attempted += ops;
    checks.failed += seen.iter().map(|x| x.failed).sum::<u64>();
    let mut all: Vec<f64> = seen.into_iter().flat_map(|x| x.latency_us).collect();
    crate::stats::sort(&mut all);
    layers.insert(
        "net.p99_us",
        crate::stats::percentile(&all, 99.0).unwrap_or(0.0),
    );
    layers.insert("net.bytes_per_s", (ops * DOC_BYTES) as f64 / untraced_s);
    if let (Some(before), Some(after)) = (ctx_before, ctx_after) {
        layers.insert(
            "net.ctx_switches_per_req",
            (after - before) as f64 / ops as f64,
        );
    }

    // One frame at a time: the round trip without pipelining.
    const PINGS: u32 = 20_000;
    let addr = s.cluster.daemon(0).doc_addr();
    let mut ping = Conn::open(addr, CLIENTS, 0).map_err(|e| e.to_string())?;
    let request = HttpRequest {
        from: ping.from,
        doc: DocId::new(0),
        requester_age: ExpirationAge::finite(DurationMs::from_secs(1)),
    };
    let mut frame = Vec::new();
    live::push_frame(&mut frame, &WireMessage::DocRequest { request, ctx: None });
    let started = Instant::now();
    for _ in 0..PINGS {
        let pong = ping
            .stream
            .write_all(&frame)
            .and_then(|()| live::read_frame(&mut ping.reader))
            .and_then(|_| live::drain_body(&mut ping.reader, DOC_BYTES));
        pong.map_err(|e| format!("ping failed: {e}"))?;
    }
    layers.insert(
        "net.frame_roundtrip_ns",
        started.elapsed().as_nanos() as f64 / f64::from(PINGS),
    );
    drop(ping);

    // Traced half: each batch is a benchmark span whose id rides in the
    // frames' trace context, so the daemon's DocServe spans name it as
    // their parent.
    let collector = Arc::new(Mutex::new(Collector::default()));
    s.cluster
        .set_sink(SinkHandle::from_arc(Arc::clone(&collector)));
    let epoch = Instant::now();
    let started = Instant::now();
    let results: Vec<(Vec<SpanRec>, u64)> = live::side_by_side(s.conns.iter_mut(), |t, conn| {
        let mut rec = Recorder::new(epoch, t as u16);
        let mut failed = 0;
        for _ in 0..batches {
            let id = rec.next_id();
            let trace = TraceCtx {
                trace_id: id,
                parent_span: id,
            };
            let start_ns = rec.now_ns();
            let sent = conn.batch(Some(trace), |_, ok| failed += u64::from(!ok));
            let end_ns = rec.now_ns();
            rec.push("bench.batch", id, 0, start_ns, end_ns);
            if sent.is_err() {
                failed += PIPELINE;
                break;
            }
        }
        (rec.spans, failed)
    });
    let traced_s = started.elapsed().as_secs_f64();
    checks.attempted += ops;
    checks.failed += results.iter().map(|(_, failed)| failed).sum::<u64>();
    let reused = live::counter(s.cluster.daemon(0), EventKind::ConnReused);
    checks.require(reused > 0, || {
        "the daemon counted no reused connection under pipelining".to_string()
    });
    let started = Instant::now();
    teardown(s);
    layers.insert(
        "net.cluster_shutdown_ms",
        started.elapsed().as_secs_f64() * 1e3,
    );

    let collector = Arc::try_unwrap(collector)
        .map_err(|_| "a daemon still holds the span sink after shutdown".to_string())?
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    let mut out_spans: Vec<SpanRec> = results.into_iter().flat_map(|(spans, _)| spans).collect();
    let batch_ns: u64 = out_spans.iter().map(SpanRec::duration_ns).sum();
    let mut batch_start = BTreeMap::new();
    for b in &out_spans {
        batch_start.insert(b.id, b.start_ns);
    }
    // Daemon clocks count from their own start; place each batch's serve
    // spans from the batch's start, keeping their mutual offsets.
    let mut first_serve = BTreeMap::new();
    let mut by_batch: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for (i, span) in collector.spans.iter().enumerate() {
        let Some(parent) = span.parent else { continue };
        by_batch
            .entry(parent)
            .or_default()
            .push((span.start_us, span.end_us));
        let Some(&start_ns) = batch_start.get(&parent).filter(|_| i < SPAN_FILE_CAP) else {
            continue;
        };
        let base_us = *first_serve.entry(parent).or_insert(span.start_us);
        let at = |us: u64| start_ns + us.saturating_sub(base_us) * 1_000;
        out_spans.push(SpanRec {
            name: "net.doc_serve",
            id: span.span_id | 1 << 63,
            parent,
            start_ns: at(span.start_us),
            end_ns: at(span.end_us),
        });
    }
    let per_frame: Vec<f64> = by_batch
        .values_mut()
        .filter_map(|batch| live::pipelined_serve_us(batch))
        .collect();
    let serve_us = per_frame.iter().sum::<f64>() / per_frame.len().max(1) as f64;
    let serve = collector.by_kind[live::kind_index(SpanKind::DocServe)];
    checks.require(serve.count == ops, || {
        format!("{} DocServe spans for {ops} traced requests", serve.count)
    });
    layers.insert("net.doc_serve_us", serve_us);
    layers.insert(
        "net.conn_reused_per_req",
        collector.conn_reused as f64 / ops as f64,
    );
    layers.insert("net.peer_faults", collector.peer_faults as f64);
    layers.insert("net.failovers", collector.failovers as f64);
    layers.insert("net.admission_shed", collector.admission_shed as f64);
    // The serving threads' time inside DocServe spans (idle waits taken
    // out, see `pipelined_serve_us`) against the time the clients spent
    // waiting on their batches; the rest of a batch is the clients' own
    // socket writes and reads, outside any span.
    let net_share = share(serve_us * 1e3 * serve.count as f64, batch_ns as f64).min(1.0);
    layers.insert("net.time_share", net_share);
    layers.insert("bench.unattributed_share", 1.0 - net_share);
    layers.insert("proxy.local_hit_share", 0.0);
    layers.insert("proxy.remote_hit_share", 1.0);
    crate::layers::wire_probes(&mut layers);
    crate::layers::stats_record_probe(&mut layers);
    layers.insert("bench.clock_ns", crate::layers::clock_ns());
    layers.insert(
        "bench.trace_overhead_pct",
        100.0 * (traced_s - untraced_s) / untraced_s,
    );
    Ok((checks, layers, out_spans))
}
