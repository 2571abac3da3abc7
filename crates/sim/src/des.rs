//! A discrete-event simulation of the cooperative protocol over a
//! latency/bandwidth network model.
//!
//! The synchronous driver in [`crate::run`] processes each request
//! atomically and *estimates* latency with the paper's eq. 6. This module
//! instead simulates the protocol's phases as timed events — ICP round,
//! peer transfer, origin fetch — so requests genuinely overlap: a
//! document can be evicted between the ICP reply and the HTTP fetch
//! (the responder then misses and the requester falls back to the
//! origin), and per-request latency is *measured* rather than estimated.
//!
//! Each request carries its own [`Requester`] machine, the same one the
//! synchronous group and the live daemons drive; the machine's pending
//! action is the phase the request waits on. The DES answers the
//! machine's `NextReply` with ring-order ICP probes up to the first hit,
//! then `RoundOver`: a fetch that comes back empty goes to the origin
//! and counts as an ICP fallback.
//!
//! # The event queue
//!
//! A [`Trace`] is time-ordered, so arrivals are read straight from it by
//! a cursor (`EventQueue`); the heap holds only requests waiting on a
//! timed phase — ICP round, peer fetch, origin fetch — and each
//! entry carries its request's whole state. A run's memory is therefore
//! O(requests in flight) plus one latency per request, not O(trace).
//!
//! **Tie rule.** Each step takes the next arrival when it is due no later
//! than the heap's earliest entry, and pops the heap otherwise. So at
//! equal times an arrival goes before any queued phase, arrivals keep
//! trace order, and queued phases keep the order they were queued in.

use crate::config::SimConfig;
use coopcache_metrics::GroupMetrics;
use coopcache_obs::{
    age_to_ms, event_cache, AlertEngine, AlertRule, Event, EventSink, Rollup, RollupConfig,
    SeriesGauges, SeriesRecorder, SeriesRing, SinkHandle, SinkOffload, Span, SpanKind,
};
use coopcache_proxy::{
    DistributedGroup, HttpRequest, IcpQuery, Requester, RequesterAction, RequesterInput,
};
use coopcache_trace::{Partitioner, Trace};
use coopcache_types::{
    mix64, ByteSize, CacheId, DocId, DurationMs, ExpirationAge, Request, Timestamp,
};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread;

/// Simulated-time µs for a span timestamp.
fn sim_us(t: Timestamp) -> u64 {
    t.as_millis().saturating_mul(1_000)
}

/// One-way delays and transfer rates of the simulated network.
///
/// The defaults are calibrated so that a 4 KB document reproduces the
/// paper's measured constants: local hit ≈ 146 ms, remote hit ≈ 342 ms,
/// miss ≈ 2784 ms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetworkModel {
    /// Service time of a local hit (lookup + transfer to the client).
    pub local_service: DurationMs,
    /// Duration of one ICP round (query out, replies back).
    pub icp_round: DurationMs,
    /// Connection setup time to a peer cache.
    pub peer_rtt: DurationMs,
    /// Peer-to-peer transfer rate, bytes per millisecond.
    pub peer_bytes_per_ms: u64,
    /// Connection setup time to the origin server.
    pub origin_rtt: DurationMs,
    /// Origin transfer rate, bytes per millisecond.
    pub origin_bytes_per_ms: u64,
    /// Probability, in permille, that an ICP query/reply pair is lost
    /// (ICP rides on UDP; a lost exchange makes the peer invisible for
    /// that round and can turn a would-be remote hit into an origin
    /// fetch). Deterministic per (request, peer) via `loss_seed`.
    pub icp_loss_permille: u32,
    /// Seed for the deterministic loss process.
    pub loss_seed: u64,
}

impl NetworkModel {
    /// Calibrated to the paper's measured latencies for a 4 KB document:
    /// 146 / ~342 / ~2784 ms.
    #[must_use]
    pub const fn paper_calibrated() -> Self {
        Self {
            local_service: DurationMs::from_millis(146),
            icp_round: DurationMs::from_millis(42),
            peer_rtt: DurationMs::from_millis(100),
            peer_bytes_per_ms: 20, // 4 KB in 200 ms
            origin_rtt: DurationMs::from_millis(1_492),
            origin_bytes_per_ms: 3, // ≈4 KB in ~1333 ms
            icp_loss_permille: 0,
            loss_seed: 0x1C9_1055,
        }
    }

    /// Returns a copy with the given ICP loss rate in permille (0–1000).
    ///
    /// # Panics
    ///
    /// Panics if `permille > 1000`.
    #[must_use]
    pub fn with_icp_loss_permille(mut self, permille: u32) -> Self {
        assert!(permille <= 1000, "loss is at most 1000 permille");
        self.icp_loss_permille = permille;
        self
    }

    /// Deterministically decides whether the ICP exchange between a
    /// request and a peer was lost.
    fn icp_lost(&self, request_idx: usize, peer: CacheId) -> bool {
        if self.icp_loss_permille == 0 {
            return false;
        }
        let z = mix64(
            self.loss_seed
                .wrapping_add((request_idx as u64) << 16)
                .wrapping_add(u64::from(peer.as_u16())),
        );
        (z % 1000) < u64::from(self.icp_loss_permille)
    }

    /// Transfer time for `size` bytes at `rate` bytes/ms (ceiling).
    fn transfer(size: ByteSize, rate: u64) -> DurationMs {
        let rate = rate.max(1);
        DurationMs::from_millis(size.as_bytes().div_ceil(rate))
    }

    /// End-to-end remote-hit latency for a document of `size`.
    #[must_use]
    pub fn remote_hit_latency(&self, size: ByteSize) -> DurationMs {
        self.icp_round + self.peer_rtt + Self::transfer(size, self.peer_bytes_per_ms)
    }

    /// End-to-end miss latency for a document of `size`.
    #[must_use]
    pub fn miss_latency(&self, size: ByteSize) -> DurationMs {
        self.icp_round + self.origin_rtt + Self::transfer(size, self.origin_bytes_per_ms)
    }
}

impl Default for NetworkModel {
    fn default() -> Self {
        Self::paper_calibrated()
    }
}

/// Result of a discrete-event run.
#[derive(Debug, Clone, PartialEq)]
pub struct DesReport {
    /// The same counters the synchronous driver produces.
    pub metrics: GroupMetrics,
    /// Measured mean latency over all requests, in milliseconds.
    pub mean_latency_ms: f64,
    /// Measured median latency.
    pub p50_latency_ms: u64,
    /// Measured 95th-percentile latency.
    pub p95_latency_ms: u64,
    /// Times an ICP-located document vanished before the HTTP fetch and
    /// the requester fell back to the origin (impossible in the
    /// synchronous driver; a genuine concurrency effect).
    pub icp_fallbacks: u64,
    /// Mean lifetime-average expiration age across caches, ms.
    pub avg_expiration_age_ms: Option<f64>,
}

/// One request between its arrival and its completion.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    /// Trace index: the request's `seq` and trace id.
    idx: usize,
    requester: CacheId,
    doc: DocId,
    size: ByteSize,
    arrival: Timestamp,
    /// The request's protocol state; its pending action is the timed
    /// phase the request waits on while it is queued.
    machine: Requester,
    /// When the pending action was issued (the start of its span).
    since: Timestamp,
    /// The HTTP request of a pending peer fetch, with the requester's
    /// age when the fetch was issued.
    sent: HttpRequest,
    /// Next span-id suffix; the root span is always `k = 1`.
    span_next: u64,
}

impl InFlight {
    /// Trace request `idx` entering `requester`'s cache, pending its
    /// lookup.
    fn arriving(idx: usize, request: &Request, requester: CacheId) -> Self {
        Self {
            idx,
            requester,
            doc: request.doc,
            size: request.size,
            arrival: request.time,
            machine: Requester::new(),
            since: request.time,
            // Rebuilt when a peer fetch is issued.
            sent: HttpRequest {
                from: requester,
                doc: request.doc,
                requester_age: ExpirationAge::Infinite,
            },
            span_next: 2,
        }
    }

    /// The root span (always the first id of the request's trace).
    fn root_span(&self) -> u64 {
        ((self.idx as u64) << 16) | 1
    }

    /// Allocates the next span id of the request's trace: ids are
    /// `(idx << 16) | k` with `k` sequential, so two same-seed runs
    /// assemble byte-identical trace trees.
    fn next_span(&mut self) -> u64 {
        let k = self.span_next;
        self.span_next += 1;
        ((self.idx as u64) << 16) | k
    }
}

/// A heap entry: `req` resumes at `at`. `seq` counts pushes, so entries
/// due at the same time pop in the order they were queued.
struct Queued {
    at: Timestamp,
    seq: u64,
    req: InFlight,
}

impl Ord for Queued {
    /// Reversed, so the max-heap [`BinaryHeap`] pops the earliest entry.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Queued {}

/// The DES's event source: a cursor over the time-ordered trace merged
/// with a min-heap of the requests in flight (see the module doc for the
/// tie rule).
struct EventQueue<'t> {
    arrivals: &'t [Request],
    next: usize,
    /// Assigns each arrival its cache in a group of `caches`.
    partitioner: Partitioner,
    caches: usize,
    waiting: BinaryHeap<Queued>,
    pushed: u64,
}

impl<'t> EventQueue<'t> {
    fn new(trace: &'t Trace, partitioner: Partitioner, caches: usize) -> Self {
        Self {
            arrivals: trace.requests(),
            next: 0,
            partitioner,
            caches,
            waiting: BinaryHeap::new(),
            pushed: 0,
        }
    }

    /// Queues `req` to resume at `at` with its pending action.
    fn push(&mut self, at: Timestamp, req: InFlight) {
        self.waiting.push(Queued {
            at,
            seq: self.pushed,
            req,
        });
        self.pushed += 1;
    }

    /// The next request due and its virtual time: the next arrival if it
    /// is due no later than the earliest queued request, else that
    /// request.
    fn pop(&mut self) -> Option<(Timestamp, InFlight)> {
        match self.arrivals.get(self.next) {
            Some(r) if self.waiting.peek().is_none_or(|w| r.time <= w.at) => {
                let idx = self.next;
                self.next += 1;
                let requester = self.partitioner.assign(r, idx, self.caches);
                Some((r.time, InFlight::arriving(idx, r, requester)))
            }
            _ => self.waiting.pop().map(|q| (q.at, q.req)),
        }
    }
}

/// Counts events per cache into series recorders while forwarding them
/// to the caller's sink, if any. Installed as the run's sink whenever a
/// sink *or* a series is requested, so placement and eviction events
/// from inside the group are counted exactly once. The events the DES
/// builds itself reach it under one guard per step (see [`lock_tap`]).
///
/// The recorders, alert engines and rollup fold every event inline; the
/// caller's sink is fed through a [`SinkOffload`], which filters on this
/// thread and delivers on a worker.
struct SeriesTap {
    inner: Option<SinkOffload>,
    recorders: Vec<SeriesRecorder>,
    /// One SLO engine per recorder (empty when no rules are installed);
    /// fed each boundary point as the recorders cross it.
    engines: Vec<AlertEngine>,
    /// Alert state transitions in virtual-time order — pure function of
    /// the trace, so same-seed runs produce identical streams.
    alerts: Vec<Event>,
    /// Online aggregate replacing raw JSONL for large sweeps.
    rollup: Option<Rollup>,
}

impl EventSink for SeriesTap {
    fn emit(&mut self, event: &Event) {
        if !self.recorders.is_empty() {
            if let Some(cache) = event_cache(event) {
                if let Some(rec) = self.recorders.get_mut(cache.index()) {
                    rec.observe(event);
                }
            }
        }
        if let Some(rollup) = &mut self.rollup {
            rollup.observe(event);
        }
        if let Some(inner) = &mut self.inner {
            inner.emit(event);
        }
    }
}

/// Locks the tap, recovering from poisoning — the DES is single-threaded,
/// but the sim crate stays panic-free regardless.
///
/// The DES loop takes this guard once per step, after the step's
/// `node_mut` calls have returned: nodes emit placement and eviction
/// events through their own handle to the same (non-reentrant) mutex.
fn lock_tap(tap: &Mutex<SeriesTap>) -> MutexGuard<'_, SeriesTap> {
    tap.lock().unwrap_or_else(PoisonError::into_inner)
}

impl SeriesTap {
    /// The first virtual time at which [`Self::advance`] has a boundary
    /// to cross; the DES loop skips the tap entirely until then.
    fn next_due_ms(&self) -> u64 {
        self.recorders
            .iter()
            .map(SeriesRecorder::next_sample_ms)
            .chain(self.rollup.as_ref().map(Rollup::next_window_ms))
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Moves the rollup's window clock and every recorder to virtual
    /// time `now`, reading occupancy gauges from the group for the sample
    /// boundaries crossed. Returns [`Self::next_due_ms`].
    fn advance(&mut self, group: &DistributedGroup, now: Timestamp) -> u64 {
        let now_ms = now.as_millis();
        if let Some(rollup) = &mut self.rollup {
            rollup.advance(now_ms);
        }
        let mut fired: Vec<Event> = Vec::new();
        for (i, rec) in self.recorders.iter_mut().enumerate() {
            if now_ms < rec.next_sample_ms() {
                continue;
            }
            let node = group.node(rec.cache());
            let cache = node.cache();
            let gauges = SeriesGauges {
                docs: u64::try_from(cache.len()).unwrap_or(u64::MAX),
                used_bytes: cache.used().as_bytes(),
                capacity_bytes: cache.capacity().as_bytes(),
                expiration_age_ms: age_to_ms(node.expiration_age()),
                // The DES has no peer-health plane; quarantine is a live-
                // daemon concept.
                quarantined: 0,
            };
            match self.engines.get_mut(i) {
                Some(engine) => {
                    rec.advance_with(now_ms, gauges, |point| fired.extend(engine.observe(point)));
                }
                None => rec.advance(now_ms, gauges),
            }
        }
        // Alert events flow like any other event — counted into the firing
        // node's own series, folded into the rollup, forwarded to the
        // caller's sink — and are additionally collected for the report.
        for event in fired {
            self.emit(&event);
            self.alerts.push(event);
        }
        self.next_due_ms()
    }
}

/// Runs the discrete-event simulation of a distributed group.
///
/// Uses `config` for the group — built by [`SimConfig::build_group`],
/// exactly as the synchronous runner builds it: per-cache capacities
/// (`capacity_weights` included), policy, scheme, window and TTL — and
/// `network` for timing. The DES ignores the rest of `config`:
/// - `discovery`: every local miss runs an ICP round;
/// - `warmup_fraction`: every request is counted.
///
/// It measures latency from the event timeline instead of the eq. 6
/// estimate, and [`run_des_with_health`] samples virtual time instead of
/// the synchronous runner's request-count windows.
///
/// # Example
///
/// ```
/// use coopcache_sim::{run_des, NetworkModel, SimConfig};
/// use coopcache_trace::{generate, TraceProfile};
/// use coopcache_types::ByteSize;
///
/// let trace = generate(&TraceProfile::small().with_requests(2_000)).unwrap();
/// let report = run_des(
///     &SimConfig::new(ByteSize::from_mb(1)),
///     &NetworkModel::paper_calibrated(),
///     &trace,
/// );
/// assert_eq!(report.metrics.requests, 2_000);
/// assert!(report.mean_latency_ms > 0.0);
/// ```
#[must_use]
pub fn run_des(config: &SimConfig, network: &NetworkModel, trace: &Trace) -> DesReport {
    run_des_inner(config, network, trace, None, None).0
}

/// Health-plane configuration for a DES run: series cadence, SLO rules
/// and the optional online rollup.
#[derive(Debug, Clone)]
pub struct HealthConfig {
    /// Virtual-time sampling interval for the per-node series rings.
    pub interval_ms: u64,
    /// Points retained per node ring.
    pub capacity: usize,
    /// SLO rules evaluated on every node at each sample boundary.
    /// Each state transition becomes an [`Event::Alert`].
    pub rules: Vec<AlertRule>,
    /// When set, an online [`Rollup`] aggregates the full event stream
    /// in bounded memory alongside the rings.
    pub rollup: Option<RollupConfig>,
}

/// Everything the health plane produced during a DES run.
#[derive(Debug, Clone, Default)]
pub struct HealthReport {
    /// Per-node series rings, ascending by cache id.
    pub rings: Vec<SeriesRing>,
    /// Alert state transitions ([`Event::Alert`]) in virtual-time order.
    /// A pure function of the trace: same seed → identical stream.
    pub alerts: Vec<Event>,
    /// The rollup aggregate, when one was configured.
    pub rollup: Option<Rollup>,
}

/// Like [`run_des`], but streams events into `sink` when one is supplied.
/// Request events carry the *measured* completion latency (in µs), and
/// ICP query/reply events reflect the peers actually probed — including
/// queries whose replies were lost.
///
/// The sink is fed in batches from a worker thread ([`SinkOffload`]);
/// the handle's sampler and [`mute_request_scoped`] still apply as on
/// the calling thread. The run returns once every event is delivered and
/// its clones of `sink` are dropped, and a panic in the sink panics the
/// run.
///
/// [`mute_request_scoped`]: coopcache_obs::mute_request_scoped
#[must_use]
pub fn run_des_with_sink(
    config: &SimConfig,
    network: &NetworkModel,
    trace: &Trace,
    sink: Option<SinkHandle>,
) -> DesReport {
    run_des_inner(config, network, trace, sink, None).0
}

/// Like [`run_des_with_sink`], but additionally samples every node's
/// cumulative counters, request latency and occupancy into a per-node
/// time-series ring at `interval_ms` boundaries of *virtual* time
/// (`capacity` retained points per node, oldest evicted first),
/// evaluates the SLO rules at every sample boundary and (optionally)
/// folds the full event stream into an online [`Rollup`]. With no rules
/// and no rollup it records the rings alone.
///
/// Fully deterministic: the same trace and config produce byte-identical
/// rings ([`SeriesRing::to_json`]), alerts and rollups on every run —
/// the pinned fixture behind `coopcache status --replay` and the
/// determinism suite.
#[must_use]
pub fn run_des_with_health(
    config: &SimConfig,
    network: &NetworkModel,
    trace: &Trace,
    sink: Option<SinkHandle>,
    health: HealthConfig,
) -> (DesReport, HealthReport) {
    let spec = TapSpec {
        series: Some((health.interval_ms, health.capacity)),
        rules: health.rules,
        rollup: health.rollup,
    };
    run_des_inner(config, network, trace, sink, Some(spec))
}

/// Runs the DES with *only* an online rollup observing the event
/// stream: no per-event JSONL, no per-node rings — the whole
/// observability cost of a sweep is the rollup's fixed-size state, so a
/// 256-node × 10M-request run stays in bounded memory.
#[must_use]
pub fn run_des_with_rollups(
    config: &SimConfig,
    network: &NetworkModel,
    trace: &Trace,
    rollup: RollupConfig,
) -> (DesReport, Rollup) {
    let spec = TapSpec {
        series: None,
        rules: Vec::new(),
        rollup: Some(rollup),
    };
    let (report, health) = run_des_inner(config, network, trace, None, Some(spec));
    // The tap was configured with a rollup, so one always comes back;
    // the fallback only keeps this path panic-free.
    let rollup = health.rollup.unwrap_or_else(|| Rollup::new(rollup));
    (report, rollup)
}

/// What a run's tap should record beyond forwarding to the caller's
/// sink (internal shape behind the public entry points).
#[derive(Default)]
struct TapSpec {
    series: Option<(u64, usize)>,
    rules: Vec<AlertRule>,
    rollup: Option<RollupConfig>,
}

/// Runs the DES, delivering the caller's sink, if any, from a worker
/// thread. [`simulate`] drops the offload before returning and the scope
/// then joins the worker, so every event is delivered — and every clone
/// of the caller's handle dropped — when this returns. A sink that
/// panicked panics the caller here. Without a sink nothing is spawned.
fn run_des_inner(
    config: &SimConfig,
    network: &NetworkModel,
    trace: &Trace,
    sink: Option<SinkHandle>,
    spec: Option<TapSpec>,
) -> (DesReport, HealthReport) {
    thread::scope(|scope| {
        let sink = sink.map(|handle| SinkOffload::spawn(scope, handle));
        simulate(config, network, trace, sink, spec)
    })
}

/// The DES loop. `sink` is dropped — its last batch shipped, its
/// channel closed — before this returns.
fn simulate(
    config: &SimConfig,
    network: &NetworkModel,
    trace: &Trace,
    sink: Option<SinkOffload>,
    spec: Option<TapSpec>,
) -> (DesReport, HealthReport) {
    let mut group = config.build_group();
    let n = group.len();
    // The tap fronts the caller's sink whenever anything observes the
    // run; with neither a sink nor a series requested there is no tap
    // and the run pays nothing.
    let tap = (sink.is_some() || spec.is_some()).then(|| {
        let spec = spec.unwrap_or_default();
        let recorders: Vec<SeriesRecorder> =
            spec.series
                .map_or_else(Vec::new, |(interval_ms, capacity)| {
                    (0..n)
                        .map(|i| SeriesRecorder::new(CacheId::new(i as u16), interval_ms, capacity))
                        .collect()
                });
        let engines = if spec.rules.is_empty() {
            Vec::new()
        } else {
            recorders
                .iter()
                .map(|r| AlertEngine::new(r.cache(), spec.rules.clone()))
                .collect()
        };
        Arc::new(Mutex::new(SeriesTap {
            inner: sink,
            recorders,
            engines,
            alerts: Vec::new(),
            rollup: spec.rollup.map(Rollup::new),
        }))
    });
    if let Some(tap) = &tap {
        group.set_sink(SinkHandle::from_arc(Arc::clone(tap)));
    }
    // Nothing periodic is due before this virtual time, so a queue pop
    // short of it touches neither the tap's lock nor its recorders.
    let mut next_due_ms = tap
        .as_deref()
        .map_or(u64::MAX, |tap| lock_tap(tap).next_due_ms());

    let mut events = EventQueue::new(trace, config.partitioner, n);
    let mut metrics = GroupMetrics::default();
    let mut latencies: Vec<u64> = Vec::with_capacity(trace.len());
    let mut icp_fallbacks = 0u64;

    let mut end_time = Timestamp::from_millis(0);
    while let Some((now, mut r)) = events.pop() {
        if now.as_millis() >= next_due_ms {
            next_due_ms = tap
                .as_deref()
                .map_or(u64::MAX, |tap| lock_tap(tap).advance(&group, now));
        }
        end_time = end_time.max(now);
        // Carry out the pending action. `out` is the step's tap guard,
        // taken once the step's `node_mut` calls have returned.
        let (action, mut out) = match r.machine.pending() {
            RequesterAction::Lookup => {
                let local_hit = group
                    .node_mut(r.requester)
                    .handle_client_lookup(r.doc, now)
                    .is_some();
                (r.machine.step(RequesterInput::Start { local_hit }), None)
            }
            // The ICP round: ring-order probes up to the first hit. ICP
            // handling is read-only on the peers and emits nothing from
            // inside the group, so one guard covers the whole round.
            RequesterAction::NextReply => {
                let query = IcpQuery {
                    from: r.requester,
                    doc: r.doc,
                };
                let mut out = tap.as_deref().map(lock_tap);
                let round = out.is_some().then(|| r.next_span());
                let mut action = RequesterAction::NextReply;
                for off in 1..n {
                    let peer = CacheId::new(((r.requester.index() + off) % n) as u16);
                    if let Some(out) = &mut out {
                        out.emit(&Event::IcpQuery {
                            from: r.requester,
                            to: peer,
                            doc: r.doc,
                        });
                    }
                    if network.icp_lost(r.idx, peer) {
                        // The exchange vanished on the wire: the query
                        // event stands, but no reply ever arrives (and
                        // no icp-handle span — the peer never saw it).
                        continue;
                    }
                    let hit = group.node(peer).handle_icp_query(query).hit;
                    if let (Some(out), Some(round)) = (&mut out, round) {
                        out.emit(&Event::IcpReply {
                            from: peer,
                            doc: r.doc,
                            hit,
                        });
                        out.emit(&Event::Span(Span {
                            trace_id: r.idx as u64,
                            span_id: r.next_span(),
                            parent: Some(round),
                            cache: peer,
                            kind: SpanKind::IcpHandle,
                            doc: Some(r.doc),
                            peer: Some(r.requester),
                            start_us: sim_us(now),
                            end_us: sim_us(now),
                            status: if hit { "hit" } else { "miss" },
                        }));
                    }
                    action = r.machine.step(RequesterInput::IcpReply { peer, hit });
                    if action != RequesterAction::NextReply {
                        break;
                    }
                }
                if action == RequesterAction::NextReply {
                    action = r.machine.step(RequesterInput::RoundOver);
                }
                if let (Some(out), Some(round)) = (&mut out, round) {
                    let hit = matches!(action, RequesterAction::Fetch { .. });
                    out.emit(&Event::Span(Span {
                        trace_id: r.idx as u64,
                        span_id: round,
                        parent: Some(r.root_span()),
                        cache: r.requester,
                        kind: SpanKind::IcpRound,
                        doc: Some(r.doc),
                        peer: None,
                        start_us: sim_us(r.arrival),
                        end_us: sim_us(now),
                        status: if hit { "hit" } else { "miss" },
                    }));
                }
                (action, out)
            }
            RequesterAction::Fetch {
                peer: responder, ..
            } => {
                let (input, fetch_status, serve_status) =
                    match group.node_mut(responder).handle_http_request(r.sent, now) {
                        Some((response, promoted)) => {
                            let stored = group
                                .node_mut(r.requester)
                                .complete_remote_fetch(r.sent, response, now);
                            (
                                RequesterInput::Fetched { stored, promoted },
                                if stored { "stored" } else { "declined" },
                                if promoted { "promoted" } else { "kept" },
                            )
                        }
                        // The document vanished between ICP and HTTP.
                        None => {
                            icp_fallbacks += 1;
                            (RequesterInput::NotFound, "not-found", "not-found")
                        }
                    };
                let mut out = tap.as_deref().map(lock_tap);
                // Mirrors the live daemon: the requester's peer-fetch
                // span covers the TCP leg, the responder's doc-serve
                // span hangs under it.
                if let Some(out) = &mut out {
                    let fetch = r.next_span();
                    out.emit(&Event::Span(Span {
                        trace_id: r.idx as u64,
                        span_id: fetch,
                        parent: Some(r.root_span()),
                        cache: r.requester,
                        kind: SpanKind::PeerFetch,
                        doc: Some(r.doc),
                        peer: Some(responder),
                        start_us: sim_us(r.since),
                        end_us: sim_us(now),
                        status: fetch_status,
                    }));
                    out.emit(&Event::Span(Span {
                        trace_id: r.idx as u64,
                        span_id: r.next_span(),
                        parent: Some(fetch),
                        cache: responder,
                        kind: SpanKind::DocServe,
                        doc: Some(r.doc),
                        peer: Some(r.requester),
                        start_us: sim_us(now),
                        end_us: sim_us(now),
                        status: serve_status,
                    }));
                }
                let mut action = r.machine.step(input);
                if action == RequesterAction::NextReply {
                    // The round ended at its first hit, so no candidate
                    // is left: the requester falls back to the origin.
                    action = r.machine.step(RequesterInput::RoundOver);
                }
                (action, out)
            }
            RequesterAction::FetchOrigin { .. } => {
                let stored = group
                    .node_mut(r.requester)
                    .complete_origin_fetch(r.doc, r.size, now);
                let mut out = tap.as_deref().map(lock_tap);
                if let Some(out) = &mut out {
                    out.emit(&Event::Span(Span {
                        trace_id: r.idx as u64,
                        span_id: r.next_span(),
                        parent: Some(r.root_span()),
                        cache: r.requester,
                        kind: SpanKind::OriginFetch,
                        doc: Some(r.doc),
                        peer: None,
                        start_us: sim_us(r.since),
                        end_us: sim_us(now),
                        status: if stored { "stored" } else { "declined" },
                    }));
                }
                (r.machine.step(RequesterInput::OriginServed { stored }), out)
            }
            // A served request leaves the queue for good.
            RequesterAction::Done(_) => continue,
        };
        // Queue the request until its next action completes, or complete it.
        let delay = match action {
            RequesterAction::NextReply => network.icp_round,
            RequesterAction::Fetch { .. } => {
                r.sent = group.node(r.requester).build_http_request(r.doc);
                network.peer_rtt + NetworkModel::transfer(r.size, network.peer_bytes_per_ms)
            }
            RequesterAction::FetchOrigin { .. } => {
                network.origin_rtt + NetworkModel::transfer(r.size, network.origin_bytes_per_ms)
            }
            RequesterAction::Done(outcome) => {
                let done = if outcome.is_local_hit() {
                    now + network.local_service
                } else {
                    now
                };
                metrics.record(outcome, r.size);
                let latency_ms = done.saturating_since(r.arrival).as_millis();
                latencies.push(latency_ms);
                if out.is_none() {
                    out = tap.as_deref().map(lock_tap);
                }
                if let Some(out) = out.as_deref_mut() {
                    let (class, responder, stored) = outcome.event_parts();
                    // The root span closes when the request completes; its
                    // id is fixed (`k = 1`), so it sorts first in the
                    // assembled tree even though the child spans were
                    // emitted earlier.
                    out.emit(&Event::Span(Span {
                        trace_id: r.idx as u64,
                        span_id: r.root_span(),
                        parent: None,
                        cache: r.requester,
                        kind: SpanKind::Request,
                        doc: Some(r.doc),
                        peer: None,
                        start_us: sim_us(r.arrival),
                        end_us: sim_us(done),
                        status: class.name(),
                    }));
                    out.emit(&Event::Request {
                        seq: r.idx as u64,
                        cache: r.requester,
                        doc: r.doc,
                        class,
                        responder,
                        stored,
                        latency_us: Some(latency_ms * 1_000),
                    });
                }
                continue;
            }
            // A started machine never asks for its lookup again.
            RequesterAction::Lookup => continue,
        };
        r.since = now;
        events.push(now + delay, r);
    }

    let (mean, p50, p95) = latency_summary(&mut latencies);
    // Flush trailing sample boundaries up to the last event time, then
    // hand the health plane's output back.
    let (health, sink) = tap.map_or_else(Default::default, |tap| {
        let mut guard = lock_tap(&tap);
        let tap = &mut *guard;
        tap.advance(&group, end_time);
        let health = HealthReport {
            rings: tap
                .recorders
                .drain(..)
                .map(SeriesRecorder::into_ring)
                .collect(),
            alerts: std::mem::take(&mut tap.alerts),
            rollup: tap.rollup.take(),
        };
        (health, tap.inner.take())
    });
    // Ships the last batch and closes the worker's channel, outside the
    // tap guard: shipping blocks while the worker's queue is full.
    drop(sink);
    (
        DesReport {
            metrics,
            mean_latency_ms: mean,
            p50_latency_ms: p50,
            p95_latency_ms: p95,
            icp_fallbacks,
            avg_expiration_age_ms: group.average_expiration_age_ms(),
        },
        health,
    )
}

/// The mean, median and 95th percentile of `latencies` (zeros when
/// empty). A percentile `p` is the element at rank `round((len − 1) · p)`
/// of the sorted order, found by selection rather than a full sort.
fn latency_summary(latencies: &mut [u64]) -> (f64, u64, u64) {
    if latencies.is_empty() {
        return (0.0, 0, 0);
    }
    let mean = latencies.iter().sum::<u64>() as f64 / latencies.len() as f64;
    let rank = |p: f64| ((latencies.len() - 1) as f64 * p).round() as usize;
    let (r50, r95) = (rank(0.50), rank(0.95));
    let (below, &mut p95, _) = latencies.select_nth_unstable(r95);
    // Everything below rank r95 is no larger than p95, so the median is
    // selected among those alone.
    let p50 = if r50 < r95 {
        *below.select_nth_unstable(r50).1
    } else {
        p95
    };
    (mean, p50, p95)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run;
    use coopcache_core::PlacementScheme;
    use coopcache_trace::{generate, TraceProfile};

    fn trace() -> Trace {
        generate(&TraceProfile::small().with_requests(5_000)).unwrap()
    }

    fn cfg(kb: u64) -> SimConfig {
        SimConfig::new(ByteSize::from_kb(kb))
    }

    /// A 1 KB request for `doc` from `client` at `ms`.
    fn req(ms: u64, client: u32, doc: u64) -> Request {
        Request::new(
            Timestamp::from_millis(ms),
            coopcache_types::ClientId::new(client),
            DocId::new(doc),
            ByteSize::from_kb(1),
        )
    }

    /// The rings alone: a 500 KB group sampled with no rules and no rollup.
    fn series(t: &Trace, interval_ms: u64, capacity: usize) -> (DesReport, Vec<SeriesRing>) {
        let health = HealthConfig {
            interval_ms,
            capacity,
            rules: vec![],
            rollup: None,
        };
        let (report, health) =
            run_des_with_health(&cfg(500), &NetworkModel::default(), t, None, health);
        (report, health.rings)
    }

    #[test]
    fn network_model_matches_paper_constants_at_4kb() {
        let net = NetworkModel::paper_calibrated();
        let four_kb = ByteSize::from_kb(4);
        assert_eq!(net.local_service.as_millis(), 146);
        let remote = net.remote_hit_latency(four_kb).as_millis();
        assert!((330..=350).contains(&remote), "remote {remote}");
        let miss = net.miss_latency(four_kb).as_millis();
        assert!((2_700..=2_900).contains(&miss), "miss {miss}");
    }

    #[test]
    fn transfer_rounds_up() {
        assert_eq!(
            NetworkModel::transfer(ByteSize::from_bytes(41), 20),
            DurationMs::from_millis(3)
        );
        assert_eq!(NetworkModel::transfer(ByteSize::ZERO, 20), DurationMs::ZERO);
        // Zero rate is clamped rather than dividing by zero.
        assert_eq!(
            NetworkModel::transfer(ByteSize::from_bytes(5), 0),
            DurationMs::from_millis(5)
        );
    }

    #[test]
    fn des_processes_every_request() {
        let t = trace();
        let rep = run_des(&cfg(500), &NetworkModel::default(), &t);
        assert_eq!(rep.metrics.requests as usize, t.len());
        assert_eq!(
            rep.metrics.local_hits + rep.metrics.remote_hits + rep.metrics.misses,
            rep.metrics.requests
        );
    }

    #[test]
    fn des_is_deterministic() {
        let t = trace();
        let a = run_des(&cfg(500), &NetworkModel::default(), &t);
        let b = run_des(&cfg(500), &NetworkModel::default(), &t);
        assert_eq!(a, b);
    }

    #[test]
    fn des_series_is_byte_identical_across_runs() {
        let t = trace();
        let (_, a) = series(&t, 500, 64);
        let (_, b) = series(&t, 500, 64);
        assert_eq!(a.len(), b.len());
        assert!(!a.is_empty(), "a group run must produce rings");
        for (ra, rb) in a.iter().zip(&b) {
            assert!(!ra.points().is_empty(), "virtual time crosses boundaries");
            assert_eq!(ra.to_json(), rb.to_json(), "cache {}", ra.cache());
        }
    }

    #[test]
    fn des_series_does_not_change_the_report() {
        let t = trace();
        let plain = run_des(&cfg(500), &NetworkModel::default(), &t);
        let (sampled, rings) = series(&t, 500, 64);
        assert_eq!(plain, sampled);
        // Counters accumulate: the last point of each ring dominates the
        // first, and the per-node request counts sum to the run's total.
        let req_idx = coopcache_obs::EventKind::Request.index();
        let total: u64 = rings
            .iter()
            .filter_map(|r| r.points().last())
            .map(|p| p.counters[req_idx])
            .sum();
        assert!(
            total <= plain.metrics.requests,
            "cumulative counters cannot exceed the request total"
        );
        assert!(total > 0, "sampling must observe requests");
    }

    #[test]
    fn des_health_alerts_are_deterministic_and_fire() {
        // An impossible hit-rate floor (above 1000‰) violates on every
        // window with traffic, so the alert plane must fire somewhere.
        let t = trace();
        let health = || HealthConfig {
            interval_ms: 500,
            capacity: 64,
            rules: vec![AlertRule::hit_rate_floor(1_001, 2)],
            rollup: None,
        };
        let (_, a) = run_des_with_health(&cfg(500), &NetworkModel::default(), &t, None, health());
        let (_, b) = run_des_with_health(&cfg(500), &NetworkModel::default(), &t, None, health());
        assert!(!a.alerts.is_empty(), "floor above 100% must fire");
        assert_eq!(a.alerts, b.alerts, "same seed, same alert stream");
        assert!(
            a.alerts.iter().all(|e| matches!(e, Event::Alert { .. })),
            "only alerts in the stream"
        );
        // Alert events are counted into the firing node's own series.
        let alert_idx = coopcache_obs::EventKind::Alert.index();
        let counted: u64 = a
            .rings
            .iter()
            .filter_map(|r| r.points().last())
            .map(|p| p.counters[alert_idx])
            .sum();
        assert!(counted > 0, "alerts count into the series plane");
    }

    #[test]
    fn des_rollup_totals_match_the_report() {
        let t = trace();
        let (report, rollup) = run_des_with_rollups(
            &cfg(500),
            &NetworkModel::default(),
            &t,
            RollupConfig::default(),
        );
        let (requests, hits, _) = rollup.totals();
        assert_eq!(requests, report.metrics.requests);
        assert_eq!(hits, report.metrics.local_hits + report.metrics.remote_hits);
        // The window clock follows virtual time: the trace spans many
        // windows, and the last one is the window the run ended in — the
        // one the series rings, riding the same clock, sampled last.
        let window_ms = RollupConfig::default().window_ms;
        assert!(rollup.windows().len() as u64 + rollup.windows_dropped() > 1);
        let (_, rings) = series(&t, window_ms, 1);
        let last_sample_ms = rings[0].points().last().unwrap().t_ms;
        let mut closed = rollup.clone();
        closed.advance(u64::MAX);
        assert_eq!(
            closed.windows().last().unwrap().index,
            last_sample_ms / window_ms
        );
        // And the rollup JSON is deterministic across runs.
        let (_, again) = run_des_with_rollups(
            &cfg(500),
            &NetworkModel::default(),
            &t,
            RollupConfig::default(),
        );
        assert_eq!(rollup.to_json(), again.to_json());
    }

    #[test]
    fn des_hit_rates_track_synchronous_driver() {
        // The DES interleaves requests, so counts differ slightly from the
        // synchronous driver — but the overall rates must agree closely.
        let t = trace();
        let sync_report = run(&cfg(500), &t);
        let des_report = run_des(&cfg(500), &NetworkModel::default(), &t);
        let diff = (sync_report.metrics.hit_rate() - des_report.metrics.hit_rate()).abs();
        assert!(
            diff < 0.05,
            "sync {} vs des {}",
            sync_report.metrics.hit_rate(),
            des_report.metrics.hit_rate()
        );
    }

    #[test]
    fn des_measured_latency_is_plausible() {
        let t = trace();
        let rep = run_des(&cfg(500), &NetworkModel::default(), &t);
        assert!(rep.mean_latency_ms >= 146.0, "mean {}", rep.mean_latency_ms);
        assert!(rep.p50_latency_ms <= rep.p95_latency_ms);
        // With misses present, p95 should reflect origin fetches.
        assert!(rep.p95_latency_ms >= 342, "p95 {}", rep.p95_latency_ms);
    }

    #[test]
    fn des_ea_beats_adhoc_on_small_caches() {
        let t = trace();
        let adhoc = run_des(&cfg(100), &NetworkModel::default(), &t);
        let ea = run_des(
            &cfg(100).with_scheme(PlacementScheme::Ea),
            &NetworkModel::default(),
            &t,
        );
        assert!(
            ea.metrics.hit_rate() >= adhoc.metrics.hit_rate() - 0.01,
            "EA {} vs ad-hoc {}",
            ea.metrics.hit_rate(),
            adhoc.metrics.hit_rate()
        );
    }

    #[test]
    fn total_icp_loss_behaves_like_isolation() {
        let t = trace();
        let lossless = run_des(&cfg(500), &NetworkModel::default(), &t);
        let all_lost = run_des(
            &cfg(500),
            &NetworkModel::default().with_icp_loss_permille(1_000),
            &t,
        );
        assert_eq!(all_lost.metrics.remote_hits, 0, "no ICP, no remote hits");
        assert!(all_lost.metrics.hit_rate() < lossless.metrics.hit_rate());
    }

    #[test]
    fn moderate_icp_loss_degrades_gracefully() {
        let t = trace();
        let lossless = run_des(&cfg(500), &NetworkModel::default(), &t);
        let lossy = run_des(
            &cfg(500),
            &NetworkModel::default().with_icp_loss_permille(100), // 10%
            &t,
        );
        assert!(lossy.metrics.remote_hits < lossless.metrics.remote_hits);
        assert!(lossy.metrics.remote_hits > 0);
        assert!(
            lossy.metrics.hit_rate() > lossless.metrics.hit_rate() - 0.05,
            "10% ICP loss should not crater the hit rate"
        );
        // Determinism holds under loss.
        let again = run_des(
            &cfg(500),
            &NetworkModel::default().with_icp_loss_permille(100),
            &t,
        );
        assert_eq!(lossy, again);
    }

    #[test]
    #[should_panic(expected = "at most 1000")]
    fn overrange_loss_panics() {
        let _ = NetworkModel::default().with_icp_loss_permille(1_001);
    }

    #[test]
    fn empty_trace_yields_empty_report() {
        let rep = run_des(&cfg(100), &NetworkModel::default(), &Trace::default());
        assert_eq!(rep.metrics.requests, 0);
        assert_eq!(rep.mean_latency_ms, 0.0);
        assert_eq!(rep.p95_latency_ms, 0);
    }

    #[test]
    fn sink_measures_latency_for_every_request() {
        use coopcache_obs::{EventKind, SinkHandle, Tally};
        use std::sync::{Arc, Mutex};
        let t = trace();
        let sink = Arc::new(Mutex::new(Tally::new()));
        let handle = SinkHandle::from_arc(Arc::clone(&sink));
        let rep = run_des_with_sink(
            &cfg(100).with_scheme(PlacementScheme::Ea),
            &NetworkModel::default(),
            &t,
            Some(handle),
        );
        let agg = sink.lock().unwrap();
        assert_eq!(agg.count(EventKind::Request) as usize, t.len());
        // Every DES request carries a measured latency.
        assert_eq!(agg.request_latency_us.count() as usize, t.len());
        // The histogram's mean agrees with the report's (µs vs ms).
        let mean_ms = agg.request_latency_us.mean().unwrap() / 1_000.0;
        assert!(
            (mean_ms - rep.mean_latency_ms).abs() < 1.0,
            "histogram {mean_ms} vs report {}",
            rep.mean_latency_ms
        );
        // Contended EA runs produce placement and eviction events.
        assert!(agg.count(EventKind::Placement) > 0);
        assert!(agg.count(EventKind::Eviction) > 0);
        assert!(agg.count(EventKind::IcpQuery) >= agg.count(EventKind::IcpReply));
    }

    #[test]
    fn every_request_assembles_into_a_trace_tree() {
        use coopcache_obs::{SinkHandle, TraceAssembler};
        use std::sync::{Arc, Mutex};
        let t = generate(&TraceProfile::small().with_requests(400)).unwrap();
        let run_once = || {
            let asm = Arc::new(Mutex::new(TraceAssembler::new()));
            let handle = SinkHandle::from_arc(Arc::clone(&asm));
            let _ = run_des_with_sink(
                &cfg(100).with_scheme(PlacementScheme::Ea),
                &NetworkModel::default(),
                &t,
                Some(handle),
            );
            let asm = asm.lock().unwrap();
            (asm.trace_ids(), asm.render_all(true))
        };
        let (ids, rendered) = run_once();
        assert_eq!(ids.len(), t.len(), "one trace per request");
        assert!(rendered.contains("request"));
        assert!(rendered.contains("icp-round"));
        // Simulated timestamps make even the timed render reproducible.
        let (_, again) = run_once();
        assert_eq!(rendered, again);
    }

    #[test]
    fn latency_summary_matches_the_sorted_ranks() {
        assert_eq!(latency_summary(&mut []), (0.0, 0, 0));
        for len in 1..=40u64 {
            // A scrambled permutation of 0..len with repeats folded in.
            let mut xs: Vec<u64> = (0..len).map(|i| (i * 7919) % len / 2).collect();
            let mut sorted = xs.clone();
            sorted.sort_unstable();
            let at = |p: f64| sorted[((len - 1) as f64 * p).round() as usize];
            let mean = sorted.iter().sum::<u64>() as f64 / len as f64;
            assert_eq!(latency_summary(&mut xs), (mean, at(0.50), at(0.95)));
        }
    }

    #[test]
    fn arrivals_precede_queued_phases_at_equal_times() {
        use coopcache_obs::{RingBufferSink, SinkHandle};
        use std::sync::{Arc, Mutex};
        let net = NetworkModel::default();
        let round = net.icp_round.as_millis();
        // Request 0 leaves doc 1 at cache 1. A (doc 2) misses at cache 0,
        // and its ICP round ends in the millisecond B hits doc 1 at cache
        // 1; C and D hit doc 1 there in one shared millisecond.
        let t = Trace::from_requests(vec![
            req(0, 1, 1),
            req(10_000, 0, 2),
            req(10_000 + round, 1, 1),
            req(20_000, 1, 1),
            req(20_000, 5, 1),
        ]);
        let ring = Arc::new(Mutex::new(RingBufferSink::new(1_024)));
        let _ = run_des_with_sink(
            &cfg(100),
            &net,
            &t,
            Some(SinkHandle::from_arc(Arc::clone(&ring))),
        );
        let ring = ring.lock().unwrap();
        let events: Vec<&Event> = ring.events().collect();
        let of = |idx: u64| -> Vec<usize> {
            (0..events.len())
                .filter(|&p| match events[p] {
                    Event::Request { seq, .. } => *seq == idx,
                    Event::Span(span) => span.trace_id == idx,
                    _ => false,
                })
                .collect()
        };
        let a_query = events
            .iter()
            .position(|e| matches!(e, Event::IcpQuery { doc, .. } if *doc == DocId::new(2)))
            .expect("A queries its peers");
        let b = of(2);
        assert!(!b.is_empty(), "B completes");
        assert!(
            b.iter().all(|&p| p < a_query),
            "B's lookup events {b:?} precede A's query at {a_query}"
        );
        let (c, d) = (of(3), of(4));
        assert!(!c.is_empty() && !d.is_empty(), "C and D complete");
        assert!(
            c.iter().max() < d.iter().min(),
            "C's events {c:?} precede D's {d:?}"
        );
    }

    #[test]
    fn des_group_honours_ttl_and_capacity_weights() {
        let net = NetworkModel::default();
        // Client 0 asks cache 0 for doc 1 twice, 20 s apart.
        let t = Trace::from_requests(vec![req(0, 0, 1), req(20_000, 0, 1)]);
        let fresh = run_des(&cfg(100), &net, &t);
        assert_eq!(fresh.metrics.local_hits, 1);
        let ttl = cfg(100).with_ttl(DurationMs::from_secs(10));
        let stale = run_des(&ttl, &net, &t);
        assert_eq!(stale.metrics.local_hits, 0, "a TTL-stale copy is served");
        assert_eq!(stale.metrics.misses, 2);

        // Each node's series reports the capacity its weight gives it.
        let weighted = cfg(100).with_capacity_weights(vec![1, 3]);
        let health = HealthConfig {
            interval_ms: 1_000,
            capacity: 4,
            rules: vec![],
            rollup: None,
        };
        let (_, health) = run_des_with_health(&weighted, &net, &t, None, health);
        let capacities: Vec<ByteSize> = health
            .rings
            .iter()
            .map(|ring| ByteSize::from_bytes(ring.points().last().unwrap().capacity_bytes))
            .collect();
        assert_eq!(capacities, weighted.cache_capacities());
    }

    #[test]
    fn sink_does_not_change_des_report() {
        use coopcache_obs::{NullSink, SinkHandle};
        let t = trace();
        let plain = run_des(&cfg(500), &NetworkModel::default(), &t);
        let observed = run_des_with_sink(
            &cfg(500),
            &NetworkModel::default(),
            &t,
            Some(SinkHandle::new(NullSink)),
        );
        assert_eq!(plain, observed);
    }
}
