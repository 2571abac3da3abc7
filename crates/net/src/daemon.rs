//! A live cache daemon: one proxy node served over real sockets.
//!
//! Each daemon runs two background threads — an ICP responder on a UDP
//! socket and a document server on a TCP listener — around the same
//! I/O-free [`ProxyNode`] the simulators use. The client-facing
//! [`CacheDaemon::request`] drives the same [`Requester`] machine as the
//! simulators over the loopback network: local lookup, UDP ICP fan-out,
//! TCP fetch from the positive repliers in arrival order (with expiration
//! ages piggybacked both ways), origin fallback.
//!
//! # Fault tolerance
//!
//! The responder that answered an ICP query may be dead, slow, or lying
//! by the time the HTTP fetch arrives. The daemon absorbs every peer
//! failure instead of surfacing it to the client:
//!
//! * **Multi-candidate failover** — the machine's `NextReply` is answered
//!   by one ICP reply at a time, in arrival order (deduplicated by cache
//!   id): the fetch starts as soon as the first positive reply arrives,
//!   the next reply is read only when that fetch fails (one bounded
//!   retry each), and the origin serves once the round has no more.
//!   The rest of the round is collected after the request is served.
//! * **Peer health tracking** — consecutive failures (including ICP
//!   silence) quarantine a peer with exponential backoff, so a dead
//!   sibling stops costing an ICP timeout on every group miss.
//! * **Resilient server loops** — transient socket errors are logged as
//!   [`Event::ServerLoopError`] and the loop keeps serving; only
//!   shutdown exits.
//!
//! Chaos runs are auditable through the event stream (`PeerFault`,
//! `Failover`, `PeerQuarantined`, `ServerLoopError`) and driven by a
//! seeded [`FaultPlan`](crate::FaultPlan) whose draws are a hook in the
//! loops every daemon runs: the ICP responder and the one document frame
//! loop, so chaos tests certify the production path.
//!
//! # Transport
//!
//! Readiness is the kernel's job: every socket is fully blocking (the
//! workspace forbids `unsafe`, so there is no epoll — a parked thread
//! blocked in `recv`/`accept`/`read` *is* the readiness mechanism, and
//! it burns zero CPU at idle, unlike the 20 ms poll loops this design
//! replaced). No thread samples metrics: each `OP_SERIES` probe lands
//! one sample in the series ring before answering.
//! The document port serves each accepted connection on its own thread,
//! at most [`MAX_CONNS`] at once, and connections
//! are *persistent*: a client may pipeline any number of frames on one
//! connection. Shutdown wakes the blocked threads explicitly — a junk
//! datagram for the ICP responder, a throwaway connect for the
//! acceptor, and a `shutdown(2)` on every registered live connection.
//!
//! The client side pools its outbound peer/origin connections
//! (`pool.rs`) and sheds cacheable-store work under memory pressure
//! (`memory.rs`); both surface in the stats plane as the
//! `connections-reused` and `admission-shed` counters. It also keeps a
//! stash of ICP sockets: a round takes one and returns it only when
//! every queried peer has answered, so no late reply can reach a later
//! round.

use crate::clock::SharedClock;
use crate::cluster::ClusterConfig;
use crate::fault::{DocFault, FaultState, IcpFault};
use crate::lock;
use crate::memory::{AdmissionGate, MemoryProbe};
use crate::origin::{drain_body, fetch_on_origin_conn, write_body, ZERO_BLOCK};
use crate::pool::{Conn, ConnectionPool};
use crate::wire::{decode_frame, read_frame, write_frame, Frame, WireMessage, MAX_FRAME_LEN};
use coopcache_core::{CacheConfig, PolicyKind};
use coopcache_obs::{
    age_to_ms, scoped_id, Event, FaultOp, Histogram, HistogramSnapshot, JsonWriter, SeriesPoint,
    SeriesRing, ServerLoop, SinkHandle, TraceCtx, DEFAULT_SERIES_CAPACITY,
};
use coopcache_proxy::{
    ConcurrentNode, IcpQuery, RequestOutcome, Requester, RequesterAction, RequesterInput,
    SpanRecorder, Stamp,
};
use coopcache_types::{ByteSize, CacheId, DocId, Timestamp};
use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::io::{BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Extends the installed sink's head-sampling decision to a whole
/// request: when the sampler drops `trace`, every request-scoped event
/// emitted while the returned guard lives (request completion,
/// placement, ICP, conn-reuse and span lines) is shed before the sink
/// lock. Health kinds keep flowing and `OP_STATS` counters are recorded
/// ahead of the sink, so both stay exact at any sampling rate.
fn mute_if_unsampled(
    sink: Option<&SinkHandle>,
    trace: u64,
) -> Option<coopcache_obs::RequestMuteGuard> {
    sink.filter(|sink| !sink.keeps_trace(trace))
        .map(|_| coopcache_obs::mute_request_scoped())
}

/// True when `e` is a socket-timeout error. Which `ErrorKind` a timed
/// out read/write surfaces as is platform-dependent (`WouldBlock` on
/// most Unixes, `TimedOut` elsewhere); every timeout decision in this
/// crate goes through this predicate so a timed-out but healthy pooled
/// connection is reaped/retried uniformly, never misclassified by
/// platform.
pub(crate) fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Maps an I/O error onto the closed label vocabulary the event stream
/// uses (stable across runs, so chaos traces stay deterministic).
fn error_label(e: &io::Error) -> &'static str {
    match e.kind() {
        io::ErrorKind::ConnectionRefused => "refused",
        io::ErrorKind::ConnectionReset
        | io::ErrorKind::ConnectionAborted
        | io::ErrorKind::BrokenPipe => "reset",
        io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => "timeout",
        io::ErrorKind::UnexpectedEof => "eof",
        io::ErrorKind::InvalidData => "proto",
        _ => "io",
    }
}

/// Addresses a daemon needs to reach a peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PeerAddr {
    /// The peer's cache id.
    pub(crate) id: CacheId,
    /// Its ICP (UDP) endpoint.
    pub(crate) icp: SocketAddr,
    /// Its document (TCP) endpoint.
    pub(crate) doc: SocketAddr,
}

/// Extra fetch attempts per failed candidate (bounded retry).
const PEER_RETRIES: u32 = 1;

/// Upper bound on the quarantine backoff.
const QUARANTINE_CAP: Duration = Duration::from_secs(8);

/// Pooled connections idle longer than this are reaped instead of
/// reused.
const POOL_IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// Cap on concurrently served inbound document connections; beyond it,
/// new connections are closed at accept (peers absorb the refusal
/// through their normal failover path).
const MAX_CONNS: usize = 64;

/// The interval the `OP_SERIES` ring advertises. Points land one per
/// probe, so renderers divide by the measured gap between points; this
/// only groups live nodes' points for the dashboard.
const SERIES_INTERVAL_MS: u64 = 1_000;

/// The sockets a daemon has bound, published before peers start.
#[derive(Debug)]
pub(crate) struct BoundSockets {
    icp: UdpSocket,
    doc: TcpListener,
    pub(crate) icp_addr: SocketAddr,
    pub(crate) doc_addr: SocketAddr,
}

impl BoundSockets {
    /// Binds fresh loopback sockets on ephemeral ports.
    pub(crate) fn bind_loopback() -> io::Result<Self> {
        let icp = UdpSocket::bind("127.0.0.1:0")?;
        let doc = TcpListener::bind("127.0.0.1:0")?;
        let icp_addr = icp.local_addr()?;
        let doc_addr = doc.local_addr()?;
        Ok(Self {
            icp,
            doc,
            icp_addr,
            doc_addr,
        })
    }
}

/// Where a client request was ultimately served from — the key of the
/// daemon's wall-clock latency breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ServeSource {
    /// Served from this daemon's own cache.
    Local,
    /// Fetched from the given peer over TCP.
    Peer(CacheId),
    /// Fetched from the origin server.
    Origin,
}

impl fmt::Display for ServeSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Local => f.write_str("local"),
            Self::Peer(id) => write!(f, "peer:{}", id.as_u16()),
            Self::Origin => f.write_str("origin"),
        }
    }
}

/// Per-peer failure bookkeeping behind the quarantine policy.
#[derive(Debug, Clone, Copy, Default)]
struct PeerHealth {
    /// Failures since the last successful interaction.
    consecutive_failures: u32,
    /// Times this peer has been quarantined (the backoff exponent).
    quarantines: u32,
    /// Clock microsecond until which the peer is benched (0 = active).
    quarantined_until_us: u64,
}

/// A peer-fetch failure: which protocol step failed and how. Absorbed by
/// failover, never surfaced to the client.
#[derive(Debug)]
struct PeerFetchError(FaultOp, io::Error);

/// A peer fetch that failed after the connection was made.
fn transfer_error(error: io::Error) -> PeerFetchError {
    PeerFetchError(FaultOp::Transfer, error)
}

/// One ICP round in flight. The queries go out when it starts; replies
/// are read lazily — one per `NextReply` of the request's [`Requester`],
/// up to the first positive one or the next on failover —
/// and [`CacheDaemon::finish_icp_round`] reads the rest.
#[derive(Debug)]
struct IcpRound {
    doc: DocId,
    /// The round's socket; `None` when no peer was queried.
    socket: Option<UdpSocket>,
    /// The peers the query reached, each with whether it has answered.
    queried: Vec<(PeerAddr, bool)>,
    deadline_us: u64,
    /// The round's span id and start until the round is decided: at its
    /// first positive reply, or once no reply is left. A round whose read
    /// fails first records no span, as its request records no root.
    span: Option<(u64, u64)>,
}

impl IcpRound {
    /// A round that queried no peer: it has no reply to give.
    fn idle(doc: DocId) -> Self {
        Self {
            doc,
            socket: None,
            queried: Vec::new(),
            deadline_us: 0,
            span: None,
        }
    }

    /// True once every queried peer has answered: nothing more can
    /// arrive on the socket.
    fn complete(&self) -> bool {
        self.queried.iter().all(|&(_, answered)| answered)
    }
}

/// Registry of a server's live inbound connections, each served on its
/// own thread: the accept loop spawns through it, each connection thread
/// removes itself, and the server's `halt` shuts every stream down to
/// unblock parked reads, then joins the threads. The document port and
/// the stub origin both use it. The two locks are leaves: nothing
/// blocking runs under either guard, and neither is ever held while
/// taking the other.
#[derive(Debug, Default)]
pub(crate) struct ConnTable {
    /// `try_clone`d handles of live connections by connection sequence.
    conns: Mutex<BTreeMap<u64, TcpStream>>,
    /// Join handles of the per-connection server threads.
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl ConnTable {
    /// Number of connections currently being served.
    fn active(&self) -> usize {
        lock(&self.conns).len()
    }

    /// Serves connection `id` on a new thread named `name`, registered
    /// until `serve` returns.
    pub(crate) fn spawn(
        self: &Arc<Self>,
        id: u64,
        name: String,
        stream: TcpStream,
        serve: impl FnOnce(&TcpStream) + Send + 'static,
    ) -> io::Result<()> {
        if let Ok(clone) = stream.try_clone() {
            lock(&self.conns).insert(id, clone);
        }
        let table = Arc::clone(self);
        let spawned = std::thread::Builder::new().name(name).spawn(move || {
            serve(&stream);
            lock(&table.conns).remove(&id);
        });
        match spawned {
            Ok(handle) => {
                lock(&self.handles).push(handle);
                Ok(())
            }
            Err(e) => {
                lock(&self.conns).remove(&id);
                Err(e)
            }
        }
    }

    /// Unblocks every parked connection thread, then joins them all.
    pub(crate) fn shutdown_all(&self) {
        let drained: Vec<TcpStream> = {
            let mut conns = lock(&self.conns);
            std::mem::take(&mut *conns).into_values().collect()
        };
        // Socket teardown happens outside the guard: a connection
        // thread removing itself must never contend with a blocking op.
        for stream in &drained {
            let _ = stream.shutdown(Shutdown::Both);
        }
        drop(drained);
        let handles: Vec<JoinHandle<()>> = {
            let mut handles = lock(&self.handles);
            std::mem::take(&mut *handles)
        };
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// State shared between the daemon handle and its server threads.
#[derive(Debug, Clone)]
struct LoopCtx {
    id: CacheId,
    node: Arc<ConcurrentNode>,
    stop: Arc<AtomicBool>,
    faults: Option<Arc<FaultState>>,
    clock: SharedClock,
    /// Wall-clock latency histograms, shared with the daemon handle so
    /// the doc server can serve them over `OP_STATS`.
    latency: Arc<Mutex<BTreeMap<ServeSource, Histogram>>>,
    /// Peer health map, shared for the same reason.
    health: Arc<Mutex<BTreeMap<CacheId, PeerHealth>>>,
    /// Sampled time-series ring, shared with the daemon handle so the doc
    /// server can sample into it and serve it over `OP_SERIES`.
    series: Arc<Mutex<SeriesRing>>,
    /// Span id allocator, shared with the daemon handle so client-side
    /// and server-side spans of one daemon never collide.
    span_seq: Arc<AtomicU64>,
    /// Live inbound document connections, shared with `halt`.
    conns: Arc<ConnTable>,
    /// Server-loop iteration counters (ICP, doc accept). A quiet daemon
    /// makes no iterations — the idle-CPU regression test pins this.
    icp_iters: Arc<AtomicU64>,
    accept_iters: Arc<AtomicU64>,
}

impl LoopCtx {
    /// The shared state of daemon `id`: its node (LRU, with the default
    /// expiration-age window), the cluster's fault schedule for `id`, and
    /// empty telemetry. Starts no thread and binds no socket.
    fn new(id: CacheId, config: &ClusterConfig, clock: SharedClock) -> Self {
        let node = Arc::new(ConcurrentNode::from_config(
            CacheConfig::new(id, config.capacity, PolicyKind::Lru).shards(config.shards),
            config.scheme,
        ));
        Self {
            id,
            node,
            stop: Arc::new(AtomicBool::new(false)),
            faults: config.faults.compile(id).map(Arc::new),
            clock,
            latency: Arc::new(Mutex::new(BTreeMap::new())),
            health: Arc::new(Mutex::new(BTreeMap::new())),
            series: Arc::new(Mutex::new(SeriesRing::new(
                id,
                SERIES_INTERVAL_MS,
                DEFAULT_SERIES_CAPACITY,
            ))),
            span_seq: Arc::new(AtomicU64::new(0)),
            conns: Arc::new(ConnTable::default()),
            icp_iters: Arc::new(AtomicU64::new(0)),
            accept_iters: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Counts `event`, then hands it to the node's sink, if one is set.
    fn emit(&self, event: &Event) {
        self.node.stats().record(event.kind());
        let Some(sink) = self.node.sink() else {
            return;
        };
        // Request-scoped kinds on a muted thread would be dropped by the
        // sink handle; bail before it (the counter above stays exact
        // either way).
        if event.kind().is_request_scoped() && coopcache_obs::request_scoped_muted() {
            return;
        }
        sink.emit(event);
    }

    fn next_span(&self) -> u64 {
        scoped_id(self.id, self.span_seq.fetch_add(1, Ordering::Relaxed) + 1)
    }

    fn loop_error(&self, server: ServerLoop, e: &io::Error) {
        self.emit(&Event::ServerLoopError {
            cache: self.id,
            server,
            error: error_label(e),
        });
    }
}

/// A running cache daemon.
#[derive(Debug)]
pub struct CacheDaemon {
    /// The cluster's configuration, which every daemon shares.
    config: ClusterConfig,
    /// The node, clock, telemetry and peer health, shared with the
    /// server threads (whose loops also serve them over `OP_STATS` and
    /// `OP_SERIES`). The node holds the one sink slot, so placement and
    /// eviction events flow alongside the request events.
    ctx: LoopCtx,
    peers: Vec<PeerAddr>,
    origin: SocketAddr,
    icp_addr: SocketAddr,
    doc_addr: SocketAddr,
    threads: Vec<JoinHandle<()>>,
    /// Request sequence numbers for the event stream and trace ids.
    seq: AtomicU64,
    /// Pooled outbound peer/origin connections.
    pool: ConnectionPool,
    /// ICP sockets of finished rounds, each with no reply still owed.
    icp_sockets: Mutex<Vec<UdpSocket>>,
    /// Memory-pressure gate over cacheable-store work.
    admission: AdmissionGate,
}

impl CacheDaemon {
    /// Starts daemon `id` of a cluster on pre-bound sockets, with the
    /// cluster's fault schedule for `id` compiled into its server loops.
    ///
    /// `peers` lists every *other* cache in the group; `origin` is the
    /// stub origin server misses resolve against.
    pub(crate) fn start(
        id: CacheId,
        config: &ClusterConfig,
        sockets: BoundSockets,
        peers: Vec<PeerAddr>,
        origin: SocketAddr,
        clock: SharedClock,
    ) -> io::Result<Self> {
        let ctx = LoopCtx::new(id, config, clock);

        // ICP responder: a plain blocking `recv_from` with no timeout —
        // `halt` wakes it with a junk datagram.
        let socket = sockets.icp;
        let mut threads = vec![spawn_loop(&ctx, "icp", move |ctx| icp_loop(&socket, ctx))?];
        // Document acceptor: a plain blocking `accept` — `halt` wakes it
        // with a throwaway connect.
        let (listener, io_timeout) = (sockets.doc, config.io_timeout);
        threads.push(spawn_loop(&ctx, "doc", move |ctx| {
            doc_loop(&listener, ctx, io_timeout);
        })?);

        Ok(Self {
            pool: ConnectionPool::new(config.pool_max_idle, POOL_IDLE_TIMEOUT, config.io_timeout),
            admission: AdmissionGate::new(MemoryProbe::Meminfo),
            config: config.clone(),
            ctx,
            peers,
            origin,
            icp_addr: sockets.icp_addr,
            doc_addr: sockets.doc_addr,
            threads,
            seq: AtomicU64::new(0),
            icp_sockets: Mutex::new(Vec::new()),
        })
    }

    /// This daemon's cache id.
    #[must_use]
    pub fn id(&self) -> CacheId {
        self.ctx.id
    }

    /// The ICP (UDP) endpoint this daemon answers queries on.
    #[must_use]
    pub fn icp_addr(&self) -> SocketAddr {
        self.icp_addr
    }

    /// The TCP endpoint this daemon serves documents from.
    #[must_use]
    pub fn doc_addr(&self) -> SocketAddr {
        self.doc_addr
    }

    /// Installs an event sink: the daemon emits a `Request` event (with
    /// measured wall-clock latency) per served request plus the failover
    /// events (`PeerFault`, `Failover`, `PeerQuarantined`,
    /// `ServerLoopError`), and the inner node emits placement/eviction
    /// events through the same sink. A sink is installed once: a later
    /// call leaves the first sink in place and drops `sink`.
    pub fn set_sink(&mut self, sink: SinkHandle) {
        self.ctx.node.set_sink(sink);
    }

    /// Opens a span: its id, and its start at the current clock.
    fn open_span(&self) -> (u64, u64) {
        (self.ctx.next_span(), self.ctx.clock.now_micros())
    }

    /// Emits the span `close` builds for `opened`, ending now.
    fn close_span(&self, (id, start_us): (u64, u64), close: impl FnOnce(Stamp) -> Event) {
        self.ctx
            .emit(&close((id, start_us, self.ctx.clock.now_micros())));
    }

    /// Deterministic JSON snapshot of this daemon's live state: event
    /// counters, latency histograms, quarantined peers, cache occupancy
    /// and the current cache expiration age (paper eq. 5). This is the
    /// same document the daemon serves over `OP_STATS`.
    #[must_use]
    pub fn stats_json(&self) -> String {
        self.ctx.stats_json()
    }

    /// Takes one time-series sample immediately, as each `OP_SERIES`
    /// probe does before it answers.
    pub fn sample_now(&self) {
        self.ctx.sample();
    }

    /// Snapshot of the wall-clock latency histograms, one per serve
    /// source, in `ServeSource` order.
    #[must_use]
    pub fn latency_snapshots(&self) -> Vec<(ServeSource, HistogramSnapshot)> {
        lock(&self.ctx.latency)
            .iter()
            .map(|(source, hist)| (*source, hist.snapshot()))
            .collect()
    }

    /// Peers currently under quarantine (for inspection and tests).
    #[must_use]
    pub fn quarantined_peers(&self) -> Vec<CacheId> {
        self.ctx.quarantined()
    }

    /// Runs a closure with read access to the underlying node (for
    /// inspecting stats and cache contents).
    pub fn with_node<R>(&self, f: impl FnOnce(&ConcurrentNode) -> R) -> R {
        f(&self.ctx.node)
    }

    /// Cumulative server-loop iteration counts `(icp, doc_accept)`.
    /// Each count moves only when a datagram/connection actually
    /// arrives, so a quiet daemon holds both steady — the regression
    /// handle for the retired 20 ms poll loops.
    #[must_use]
    pub fn loop_iterations(&self) -> (u64, u64) {
        (
            self.ctx.icp_iters.load(Ordering::Relaxed),
            self.ctx.accept_iters.load(Ordering::Relaxed),
        )
    }

    /// Number of pooled outbound connections currently parked for
    /// `addr` (tests and diagnostics — e.g. asserting a quarantined
    /// peer's connections were discarded).
    #[must_use]
    pub fn pooled_idle_to(&self, addr: SocketAddr) -> usize {
        self.pool.idle_count(addr)
    }

    /// The outbound connection pool (tests inspect parked connections).
    #[cfg(test)]
    pub(crate) fn pool(&self) -> &ConnectionPool {
        &self.pool
    }

    /// Number of ICP sockets parked for reuse by later rounds. Not part
    /// of the documented API: it exists for the chaos test asserting that
    /// a round which timed out did not park its socket, and is public only
    /// because that test lives outside the crate.
    #[doc(hidden)]
    #[must_use]
    pub fn parked_icp_sockets(&self) -> usize {
        lock(&self.icp_sockets).len()
    }

    /// Serves one client request end-to-end over the real network,
    /// recording its wall-clock latency (and emitting a `Request` event
    /// when a sink is installed).
    ///
    /// # Errors
    ///
    /// Propagates only local socket failures and an unreachable origin.
    /// Peer failures — a responder that died, reset the connection, or
    /// truncated the body between ICP reply and fetch — are absorbed by
    /// failover to the remaining candidates and finally the origin,
    /// never reported as an error.
    pub fn request(&self, doc: DocId, size: ByteSize) -> io::Result<RequestOutcome> {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let trace = scoped_id(self.ctx.id, seq);
        let _mute = mute_if_unsampled(self.ctx.node.sink(), trace);
        let spans = SpanRecorder::new(trace, self.ctx.next_span(), self.ctx.id, doc);
        let started_us = self.ctx.clock.now_micros();
        let mut round = IcpRound::idle(doc);
        let served = self.serve(doc, size, &spans, &mut round);
        // The replies the fetch did not wait for: by now they are
        // normally queued already.
        self.finish_icp_round(round);
        let outcome = served?;
        let ended_us = self.ctx.clock.now_micros();
        let latency_us = ended_us.saturating_sub(started_us);
        let source = match outcome {
            RequestOutcome::LocalHit => ServeSource::Local,
            RequestOutcome::RemoteHit { responder, .. } => ServeSource::Peer(responder),
            RequestOutcome::Miss { .. } => ServeSource::Origin,
        };
        lock(&self.ctx.latency)
            .entry(source)
            .or_default()
            .record(latency_us);
        for event in spans.done(seq, &outcome, Some(latency_us), (started_us, ended_us)) {
            self.ctx.emit(&event);
        }
        Ok(outcome)
    }

    /// The protocol flow behind [`CacheDaemon::request`]: this daemon's
    /// driver of the [`Requester`] machine. `spans` records the request's
    /// trace: every protocol step is a span under its root, and remote
    /// steps carry the context on the wire so peers attach their
    /// server-side spans to the same tree. A local miss starts `round`;
    /// its replies answer `NextReply` in arrival order.
    fn serve(
        &self,
        doc: DocId,
        size: ByteSize,
        spans: &SpanRecorder,
        round: &mut IcpRound,
    ) -> io::Result<RequestOutcome> {
        let mut machine = Requester::new();
        let mut action = machine.pending();
        loop {
            if let Some((from, to)) = action.failover() {
                self.ctx.emit(&Event::Failover {
                    cache: self.ctx.id,
                    doc,
                    from,
                    to,
                });
            }
            let input = match action {
                RequesterAction::Lookup => {
                    let local_hit = self
                        .ctx
                        .node
                        .handle_client_lookup(doc, self.ctx.clock.now())
                        .is_some();
                    if !local_hit {
                        *round = self.start_icp_round(doc, spans)?;
                    }
                    RequesterInput::Start { local_hit }
                }
                RequesterAction::NextReply => {
                    let input = self
                        .next_reply(round)?
                        .map_or(RequesterInput::RoundOver, |(peer, hit)| {
                            RequesterInput::IcpReply { peer: peer.id, hit }
                        });
                    // The round is decided at its first positive reply, or
                    // once no reply is left; its span closes then.
                    if !matches!(input, RequesterInput::IcpReply { hit: false, .. }) {
                        if let Some(opened) = round.span.take() {
                            self.close_span(opened, |at| spans.icp_round(input, at));
                        }
                    }
                    input
                }
                RequesterAction::Fetch { peer, .. } => {
                    match self.peers.iter().find(|p| p.id == peer) {
                        Some(&peer) => self.fetch_candidate(peer, doc, spans),
                        None => RequesterInput::FetchFailed,
                    }
                }
                // The requester stores (distributed architecture, paper
                // §4.1) unless the admission gate sheds the store under
                // memory pressure; the client gets its bytes either way.
                RequesterAction::FetchOrigin { .. } => {
                    let opened = self.open_span();
                    self.on_pooled_conn(
                        self.origin,
                        None,
                        |e| e,
                        |conn| fetch_on_origin_conn(conn, doc.as_u64(), size.as_bytes()),
                    )?;
                    let admitted = self.admission.allow_store(&self.ctx.clock);
                    if !admitted {
                        self.ctx.emit(&Event::AdmissionShed {
                            cache: self.ctx.id,
                            doc,
                        });
                    }
                    let stored = admitted
                        && self
                            .ctx
                            .node
                            .complete_origin_fetch(doc, size, self.ctx.clock.now());
                    let input = RequesterInput::OriginServed { stored };
                    let closed = if admitted { Ok(input) } else { Err("shed") };
                    self.close_span(opened, |at| spans.fetch(None, closed, at));
                    input
                }
                RequesterAction::Done(outcome) => return Ok(outcome),
            };
            action = machine.step(input);
        }
    }

    /// Fetches `doc` from one candidate, with piggybacked expiration ages
    /// and the configured retries, and books the peer's health. A peer
    /// that lost the document is healthy and answers `NotFound`; a fault
    /// is absorbed as `FetchFailed`.
    fn fetch_candidate(&self, peer: PeerAddr, doc: DocId, spans: &SpanRecorder) -> RequesterInput {
        let opened = self.open_span();
        let ctx = spans.ctx(opened.0);
        let fetch = || {
            self.on_pooled_conn(
                peer.doc,
                Some(peer.id),
                |e| PeerFetchError(FaultOp::Connect, e),
                |conn| self.exchange_with_peer(conn, doc, ctx),
            )
        };
        let mut fetched = fetch();
        for _ in 0..PEER_RETRIES {
            if fetched.is_ok() {
                break;
            }
            fetched = fetch();
        }
        let closed = fetched
            .as_ref()
            .copied()
            .map_err(|PeerFetchError(_, e)| error_label(e));
        self.close_span(opened, |at| spans.fetch(Some(peer.id), closed, at));
        match fetched {
            Ok(input) => {
                self.note_peer_ok(peer.id);
                input
            }
            Err(PeerFetchError(op, e)) => {
                self.ctx.emit(&Event::PeerFault {
                    cache: self.ctx.id,
                    peer: peer.id,
                    doc,
                    op,
                    error: error_label(&e),
                });
                self.note_peer_failure(peer.id);
                RequesterInput::FetchFailed
            }
        }
    }

    /// Runs `exchange` on a pooled connection to `addr` (`peer` names
    /// it in the `ConnReused` event; `None` is the origin), parking the
    /// connection again after a healthy exchange.
    ///
    /// A failure on a *reused* connection gets one transparent retry on
    /// a fresh connect, with no fault booked for the stale attempt: an
    /// idle pooled socket dying (far side restarted or reaped it, timeout
    /// while parked) says nothing about the far side's present health.
    /// Everything else parked for `addr` is at least as old, so it is
    /// dropped too.
    fn on_pooled_conn<T, E>(
        &self,
        addr: SocketAddr,
        peer: Option<CacheId>,
        connect_error: fn(io::Error) -> E,
        exchange: impl Fn(&mut Conn) -> Result<T, E>,
    ) -> Result<T, E> {
        let checkout = self
            .pool
            .checkout(addr, &self.ctx.clock)
            .map_err(connect_error)?;
        let mut conn = checkout.conn;
        let value = match exchange(&mut conn) {
            Ok(value) => {
                if checkout.reused {
                    self.ctx.emit(&Event::ConnReused {
                        cache: self.ctx.id,
                        peer,
                    });
                }
                value
            }
            Err(_) if checkout.reused => {
                drop(conn);
                self.pool.discard(addr);
                conn = self
                    .pool
                    .checkout(addr, &self.ctx.clock)
                    .map_err(connect_error)?
                    .conn;
                exchange(&mut conn)?
            }
            Err(e) => return Err(e),
        };
        self.pool.checkin(addr, conn, &self.ctx.clock);
        Ok(value)
    }

    /// Starts an ICP round for `doc`: sends the query to every
    /// non-quarantined peer, from a stashed socket when one is parked.
    ///
    /// Per-peer send failures are health signals, not request errors;
    /// only local socket failures propagate.
    fn start_icp_round(&self, doc: DocId, spans: &SpanRecorder) -> io::Result<IcpRound> {
        let mut round = IcpRound::idle(doc);
        if self.peers.is_empty() {
            return Ok(round);
        }
        let opened = self.open_span();
        round.span = Some(opened);
        let benched = self.ctx.quarantined();
        let targets: Vec<PeerAddr> = self
            .peers
            .iter()
            .copied()
            .filter(|p| !benched.contains(&p.id))
            .collect();
        if targets.is_empty() {
            return Ok(round);
        }
        let parked = lock(&self.icp_sockets).pop();
        let socket = match parked {
            Some(socket) => socket,
            None => UdpSocket::bind("127.0.0.1:0")?,
        };
        let query = Frame::encode(&WireMessage::IcpQuery {
            query: IcpQuery {
                from: self.ctx.id,
                doc,
            },
            ctx: Some(spans.ctx(opened.0)),
        });
        for peer in targets {
            match socket.send_to(query.header(), peer.icp) {
                Ok(_) => round.queried.push((peer, false)),
                Err(e) => {
                    // A vanished peer must not fail the request.
                    self.ctx.emit(&Event::PeerFault {
                        cache: self.ctx.id,
                        peer: peer.id,
                        doc,
                        op: FaultOp::Icp,
                        error: error_label(&e),
                    });
                    self.note_peer_failure(peer.id);
                }
            }
        }
        let timeout_us = u64::try_from(self.config.icp_timeout.as_micros()).unwrap_or(u64::MAX);
        round.deadline_us = self.ctx.clock.now_micros().saturating_add(timeout_us);
        round.socket = Some(socket);
        Ok(round)
    }

    /// Reads the round's next reply from a queried peer that has not
    /// answered yet: that peer and whether it holds the document, or
    /// `None` once every queried peer has answered or the deadline has
    /// passed with no reply left queued.
    ///
    /// A reply already queued when the deadline passes counts as on
    /// time: it arrived while the requester was busy elsewhere (fetching
    /// from an earlier candidate), and reading the round lazily must
    /// yield the candidates and silences a full read would have.
    fn next_reply(&self, round: &mut IcpRound) -> io::Result<Option<(PeerAddr, bool)>> {
        let Some(socket) = round.socket.as_ref() else {
            return Ok(None);
        };
        let mut buf = [0u8; 64];
        // Past the deadline: only what is already queued is left.
        let mut draining = false;
        while !round.complete() {
            let received = if draining {
                // A failure to restore blocking mode propagates before the
                // round can complete, so such a socket is never parked.
                socket.set_nonblocking(true)?;
                let received = socket.recv_from(&mut buf);
                socket.set_nonblocking(false)?;
                received
            } else {
                let now_us = self.ctx.clock.now_micros();
                if now_us >= round.deadline_us {
                    draining = true;
                    continue;
                }
                // One timed recv covering exactly the remaining window
                // (the check above keeps the duration nonzero, which
                // `set_read_timeout` requires).
                socket.set_read_timeout(Some(Duration::from_micros(round.deadline_us - now_us)))?;
                socket.recv_from(&mut buf)
            };
            let (n, _) = match received {
                Ok(received) => received,
                Err(ref e) if is_timeout(e) => {
                    if draining {
                        return Ok(None); // nothing queued
                    }
                    draining = true; // deadline reached
                    continue;
                }
                // Any other transient recv error is skipped — never a
                // client error.
                Err(_) => continue,
            };
            let Ok(WireMessage::IcpReply(reply)) = WireMessage::decode(&buf[..n]) else {
                continue;
            };
            if reply.doc != round.doc {
                continue; // not a reply to this round's query
            }
            // A stray sender or a duplicate reply matches no unanswered
            // queried peer.
            if let Some((peer, answered)) = round
                .queried
                .iter_mut()
                .find(|(p, answered)| p.id == reply.from && !*answered)
            {
                *answered = true;
                return Ok(Some((*peer, reply.hit)));
            }
        }
        Ok(None)
    }

    /// Reads the rest of the round against its deadline (replies queued
    /// by then included), books every queried peer that stayed silent as
    /// a failed health probe, and
    /// parks the socket for a later round only if no reply is still owed
    /// on it — a round that timed out drops its socket, so a late reply
    /// can never be read as a later round's answer.
    fn finish_icp_round(&self, mut round: IcpRound) {
        while let Ok(Some(_)) = self.next_reply(&mut round) {}
        for (peer, answered) in &round.queried {
            if !answered {
                self.ctx.emit(&Event::PeerFault {
                    cache: self.ctx.id,
                    peer: peer.id,
                    doc: round.doc,
                    op: FaultOp::Icp,
                    error: "silent",
                });
                self.note_peer_failure(peer.id);
            }
        }
        if let Some(socket) = round.socket.take() {
            if round.complete() {
                lock(&self.icp_sockets).push(socket);
            }
        }
    }

    /// One request/response exchange with `peer` on `conn`: the request
    /// frame is one write, the response frame and body are read through
    /// the connection's buffer. `Fetched`, or `NotFound` when the peer no
    /// longer holds the document.
    fn exchange_with_peer(
        &self,
        conn: &mut Conn,
        doc: DocId,
        ctx: TraceCtx,
    ) -> Result<RequesterInput, PeerFetchError> {
        let sent = self.ctx.node.build_http_request(doc);
        write_frame(
            conn.get_mut(),
            &WireMessage::DocRequest {
                request: sent,
                ctx: Some(ctx),
            },
        )
        .map_err(transfer_error)?;
        let decoded = read_frame(conn).map_err(transfer_error)?;
        let WireMessage::DocResponse { response, found } = decoded else {
            return Err(transfer_error(io::Error::new(
                io::ErrorKind::InvalidData,
                "peer sent a non-response message",
            )));
        };
        if !found {
            return Ok(RequesterInput::NotFound);
        }
        drain_body(conn, response.size.as_bytes()).map_err(transfer_error)?;
        // The promote bit does not travel on the wire: recompute the
        // responder's rule from the two ages it decided on.
        let promoted = self
            .config
            .scheme
            .responder_promotes(response.responder_age, sent.requester_age);
        let stored = self
            .ctx
            .node
            .complete_remote_fetch(sent, response, self.ctx.clock.now());
        Ok(RequesterInput::Fetched { stored, promoted })
    }

    /// A successful interaction fully rehabilitates the peer.
    fn note_peer_ok(&self, peer: CacheId) {
        let mut health = lock(&self.ctx.health);
        if let Some(h) = health.get_mut(&peer) {
            *h = PeerHealth::default();
        }
    }

    /// Records a failure; past the threshold the peer is quarantined
    /// with exponential backoff (doubling per quarantine, capped).
    fn note_peer_failure(&self, peer: CacheId) {
        if self.config.quarantine_after == 0 {
            return;
        }
        let event = {
            let mut health = lock(&self.ctx.health);
            let h = health.entry(peer).or_default();
            h.consecutive_failures = h.consecutive_failures.saturating_add(1);
            if h.consecutive_failures < self.config.quarantine_after {
                None
            } else {
                let backoff = self
                    .config
                    .quarantine_base
                    .saturating_mul(1u32 << h.quarantines.min(16))
                    .min(QUARANTINE_CAP);
                let backoff_us = u64::try_from(backoff.as_micros()).unwrap_or(u64::MAX);
                h.quarantined_until_us = self.ctx.clock.now_micros().saturating_add(backoff_us);
                h.quarantines = h.quarantines.saturating_add(1);
                Some(Event::PeerQuarantined {
                    cache: self.ctx.id,
                    peer,
                    failures: u64::from(h.consecutive_failures),
                    backoff_ms: u64::try_from(backoff.as_millis()).unwrap_or(u64::MAX),
                })
            }
        };
        if let Some(event) = event {
            self.ctx.emit(&event);
            // A quarantined peer's parked connections are dead weight:
            // reusing one after the backoff window would mask whatever
            // got the peer benched. Discarded outside the health lock.
            if let Some(p) = self.peers.iter().find(|p| p.id == peer) {
                self.pool.discard(p.doc);
            }
        }
    }

    /// Best-effort wake-ups for the blocking server loops: a junk
    /// datagram unparks the ICP `recv_from`, a throwaway connect
    /// unparks the doc `accept`.
    /// Errors are ignored — if the sockets are already gone the loops
    /// are already dead.
    fn wake_server_loops(&self) {
        if let Ok(socket) = UdpSocket::bind("127.0.0.1:0") {
            let _ = socket.send_to(&[0u8], self.icp_addr);
        }
        drop(TcpStream::connect_timeout(
            &self.doc_addr,
            Duration::from_millis(500),
        ));
    }

    /// Stops the background server threads and waits for them to exit,
    /// leaving the handle usable for inspection. Peers see a killed
    /// daemon as a dead sibling: ICP queries go unanswered and document
    /// connections are refused.
    pub fn halt(&mut self) {
        // lint:allow(atomic-order) -- Release: pairs with the Acquire
        // loads in the server loops, so a loop that observes the flag
        // also observes everything written before shutdown began.
        self.ctx.stop.store(true, Ordering::Release);
        self.wake_server_loops();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
        // With the acceptor joined, no new connections can register:
        // shut down and join every in-flight connection thread.
        self.ctx.conns.shutdown_all();
    }

    /// Stops the background threads and waits for them to exit.
    pub fn shutdown(mut self) {
        self.halt();
    }
}

impl Drop for CacheDaemon {
    fn drop(&mut self) {
        // Non-blocking best effort; `shutdown` is the clean path. The
        // wakes matter here too: the loops block indefinitely in the
        // kernel and only re-check the flag once woken.
        // lint:allow(atomic-order) -- Release: same pairing as `halt`.
        self.ctx.stop.store(true, Ordering::Release);
        if !self.threads.is_empty() {
            self.wake_server_loops();
        }
    }
}

/// Spawns the daemon thread `coopcache-{role}-{id}`, running `body` on
/// its own handle to the shared state.
fn spawn_loop(
    ctx: &LoopCtx,
    role: &str,
    body: impl FnOnce(&LoopCtx) + Send + 'static,
) -> io::Result<JoinHandle<()>> {
    let ctx = ctx.clone();
    std::thread::Builder::new()
        .name(format!("coopcache-{role}-{}", ctx.id))
        .spawn(move || body(&ctx))
}

fn icp_loop(socket: &UdpSocket, ctx: &LoopCtx) {
    let mut buf = [0u8; 64];
    // lint:allow(atomic-order) -- Acquire: pairs with the Release store
    // in `halt`, ordering the flag read before loop teardown.
    while !ctx.stop.load(Ordering::Acquire) {
        // The recv below blocks with no timeout: an iteration happens
        // only when a datagram arrives (or `halt` sends the wake one).
        ctx.icp_iters.fetch_add(1, Ordering::Relaxed);
        match socket.recv_from(&mut buf) {
            Ok((n, from)) => {
                if let Ok(WireMessage::IcpQuery { query, ctx: trace }) =
                    WireMessage::decode(&buf[..n])
                {
                    let fault = ctx
                        .faults
                        .as_deref()
                        .map_or(IcpFault::None, FaultState::icp_fault);
                    if fault == IcpFault::DropQuery {
                        continue; // the query datagram "was lost"
                    }
                    let start_us = ctx.clock.now_micros();
                    let reply = ctx.node.handle_icp_query(query);
                    // The span id is allocated before the (possibly
                    // delayed) send, so this daemon's id sequence is
                    // ordered by protocol causality, not by emit races.
                    let span_id = trace.map(|_| ctx.next_span());
                    let datagram = Frame::encode(&WireMessage::IcpReply(reply));
                    match fault {
                        IcpFault::DropReply => {} // the reply "was lost"
                        IcpFault::DelayReply(d) => {
                            std::thread::sleep(d);
                            let _ = socket.send_to(datagram.header(), from);
                        }
                        _ => {
                            let _ = socket.send_to(datagram.header(), from);
                        }
                    }
                    if let (Some(t), Some(span_id)) = (trace, span_id) {
                        let spans = SpanRecorder::new(t.trace_id, t.parent_span, ctx.id, query.doc);
                        let handle = (span_id, start_us, ctx.clock.now_micros());
                        ctx.emit(&spans.icp_handle(query.from, reply.hit, handle));
                    }
                }
            }
            Err(ref e) if is_timeout(e) => {}
            // Transient socket errors degrade to a logged event, never a
            // silently dead responder; only shutdown exits the loop.
            Err(e) => {
                ctx.loop_error(ServerLoop::Icp, &e);
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
}

/// The document acceptor: a blocking `accept` loop that hands each
/// connection to its own server thread. Connections are persistent —
/// a client may pipeline any number of frames — and every live one is
/// registered in [`ConnTable`] so `halt` can unblock it.
fn doc_loop(listener: &TcpListener, ctx: &LoopCtx, io_timeout: Duration) {
    let mut conn_seq = 0u64;
    // lint:allow(atomic-order) -- Acquire: pairs with the Release store
    // in `halt`, ordering the flag read before loop teardown.
    while !ctx.stop.load(Ordering::Acquire) {
        // The accept below blocks: an iteration happens only when a
        // connection actually arrives (or `halt` sends the wake one).
        ctx.accept_iters.fetch_add(1, Ordering::Relaxed);
        match listener.accept() {
            Ok((stream, _)) => {
                // lint:allow(atomic-order) -- Acquire: same pairing; the
                // wake connection from `halt` must not spawn a server.
                if ctx.stop.load(Ordering::Acquire) {
                    break;
                }
                if ctx.conns.active() >= MAX_CONNS {
                    // Over the connection cap: shed by closing at
                    // accept. Peers absorb this through failover.
                    drop(stream);
                    continue;
                }
                let id = conn_seq;
                conn_seq += 1;
                let conn_ctx = ctx.clone();
                let name = format!("coopcache-doc-{}-{id}", ctx.id);
                let serve = move |stream: &TcpStream| serve_conn(stream, &conn_ctx, io_timeout);
                if let Err(e) = ctx.conns.spawn(id, name, stream, serve) {
                    ctx.loop_error(ServerLoop::Doc, &e);
                }
            }
            Err(e) => {
                ctx.loop_error(ServerLoop::Doc, &e);
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
}

/// What one inbound connection has served so far.
#[derive(Debug, Default)]
struct Served {
    /// Every frame, probes included: what the idle-timeout rule and the
    /// synthetic trace ids count.
    frames: u64,
    /// Document frames only: the second and later are connection reuse.
    docs: u64,
}

/// Serves one inbound connection to completion: frames are read and
/// answered in a loop until the client closes, errors, or shutdown.
fn serve_conn(stream: &TcpStream, ctx: &LoopCtx, io_timeout: Duration) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(io_timeout));
    let _ = stream.set_write_timeout(Some(io_timeout));
    let mut served = Served::default();
    // Base for synthetic root trace ids handed to untraced frames: one
    // scoped id per connection, spread across the 64-bit space by the
    // sampler's own mixer, plus the frame ordinal. This keeps the hot
    // per-frame path free of the shared span counter while still giving
    // every untraced frame its own head-sampling decision.
    let conn_trace_base = coopcache_obs::splitmix64(ctx.next_span());
    if let Err(e) = serve_conn_buffered(stream, stream, ctx, &mut served, conn_trace_base) {
        // Persistent-connection lifecycle is not an error: a clean EOF
        // (client closed, or `halt` shut the socket down) is always
        // silent, and a timeout after at least one served frame is just
        // an idle connection expiring. Anything else — garbage framing,
        // a connection that sent nothing until timeout — is logged and
        // the listener keeps serving.
        let benign =
            e.kind() == io::ErrorKind::UnexpectedEof || (served.frames > 0 && is_timeout(&e));
        if !benign {
            ctx.loop_error(ServerLoop::Doc, &e);
        }
    }
}

/// Read buffer of the frame loop: the most request bytes one `read`
/// delivers. It holds any legal frame whole, so a frame split across
/// reads is completed in place.
const READ_BUF: usize = 8 * 1024;
const _: () = assert!(READ_BUF > 4 + MAX_FRAME_LEN);

/// Write buffer of the frame loop, sized to hold the answers to one
/// drained read. A full [`READ_BUF`] is at most 292 of the smallest
/// (28-byte) request frames, each answered by a 36-byte header and its
/// body: eight read buffers cover a full read of documents averaging up
/// to ~190 bytes, and two 64-frame batches of 256-byte documents (37 KB).
const WRITE_BUF: usize = 8 * READ_BUF;

// A body chunk of `ZERO_BLOCK` bytes must bypass the write buffer.
const _: () = assert!(ZERO_BLOCK >= WRITE_BUF);

/// The document port's frame loop, with or without a fault plan. Reads
/// and writes are buffered, and the write side is flushed lazily — only
/// once no whole frame is left to answer. The write buffer holds the
/// answers to everything one drained read delivered, so a pipelined
/// batch is answered with one `write`; a body larger than the buffer is
/// written through, after what was buffered before it.
///
/// The work is per drained read, not per frame: the cache clock is read
/// once after each read returns, and every frame that read completed is
/// served at that time. Frames are decoded in place by
/// [`decode_frame`]; a frame split across reads keeps its head in the
/// buffer until the next read completes it.
///
/// Faults are a hook: with a plan installed, each decoded frame, probes
/// included, draws one [`DocFault`] before it is answered, and an idle
/// close draws none. Generic over the I/O halves, so the syscall pattern
/// is testable without a socket.
fn serve_conn_buffered<R: Read, W: Write>(
    mut reader: R,
    writer: W,
    ctx: &LoopCtx,
    served: &mut Served,
    conn_trace_base: u64,
) -> io::Result<()> {
    let mut buf = vec![0u8; READ_BUF];
    // The bytes read but not yet answered are `buf[start..end]`.
    let (mut start, mut end) = (0, 0);
    let mut writer = BufWriter::with_capacity(WRITE_BUF, writer);
    // The cache time of the frames in the read buffer, set after every
    // read; the buffer starts empty, so a read sets it before first use.
    let mut now = Timestamp::ZERO;
    loop {
        // lint:allow(atomic-order) -- Acquire: pairs with the Release
        // store in `halt`.
        if ctx.stop.load(Ordering::Acquire) {
            return writer.flush();
        }
        let Some((len, message)) = decode_frame(&buf[start..end])? else {
            writer.flush()?;
            buf.copy_within(start..end, 0);
            (start, end) = (0, end - start);
            match reader.read(&mut buf[end..]) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    end += n;
                    now = ctx.clock.now();
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
            continue;
        };
        start += len;
        let fault = ctx
            .faults
            .as_deref()
            .map_or(DocFault::None, FaultState::doc_fault);
        match answer_frame(
            message,
            &mut writer,
            ctx,
            fault,
            served,
            conn_trace_base,
            now,
        )? {
            FrameDisposition::KeepOpen => {}
            FrameDisposition::Close => return writer.flush(),
        }
    }
}

/// What to do with the connection after a served frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FrameDisposition {
    KeepOpen,
    Close,
}

/// Answers one decoded frame under `fault`, serving a document at cache
/// time `now`.
fn answer_frame<W: Write>(
    message: WireMessage,
    writer: &mut W,
    ctx: &LoopCtx,
    fault: DocFault,
    served: &mut Served,
    conn_trace_base: u64,
    now: Timestamp,
) -> io::Result<FrameDisposition> {
    let (request, trace) = match message {
        // A stats or series scrape shares the doc port; it is answered even
        // on a fault-injected daemon — observability must survive chaos.
        probe @ (WireMessage::StatsRequest | WireMessage::SeriesRequest) => {
            let (cache, stats) = (ctx.id, probe == WireMessage::StatsRequest);
            let body = if stats {
                ctx.stats_json()
            } else {
                ctx.sample();
                lock(&ctx.series).to_json()
            };
            let body_len = u64::try_from(body.len()).unwrap_or(u64::MAX);
            let header = if stats {
                WireMessage::StatsResponse { cache, body_len }
            } else {
                WireMessage::SeriesResponse { cache, body_len }
            };
            write_frame(writer, &header)?;
            writer.write_all(body.as_bytes())?;
            served.frames += 1;
            return Ok(FrameDisposition::KeepOpen);
        }
        WireMessage::DocRequest {
            request,
            ctx: trace,
        } => (request, trace),
        _ => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "expected a document request",
            ))
        }
    };
    if fault == DocFault::Reset {
        // Drop the connection unanswered: a responder that died between
        // the ICP reply and the fetch, or crashed mid-exchange.
        return Ok(FrameDisposition::Close);
    }
    // Stamped once the frame is in hand: on a persistent connection the
    // blocking read above is mostly idle wait for the requester's next
    // frame, which is not part of serving it. Only a traced frame emits
    // the span, so only a traced frame reads the clock for it.
    let start_us = trace.map(|_| ctx.clock.now_micros());
    // One head decision covers the whole frame: requests arriving with a
    // trace context reuse the requester's decision (pure in the trace
    // id, so both sides agree); untraced requests — raw clients hitting
    // the doc port — get a synthetic root trace, which is exactly what a
    // head sampler does for traffic entering at this hop.
    let frame_trace = trace.map_or(conn_trace_base.wrapping_add(served.frames), |t| t.trace_id);
    let _mute = mute_if_unsampled(ctx.node.sink(), frame_trace);
    if served.docs > 0 {
        // A second (or later) document frame on one inbound connection:
        // the requester is reusing a persistent connection to this daemon.
        ctx.emit(&Event::ConnReused {
            cache: ctx.id,
            peer: Some(request.from),
        });
    }
    served.frames += 1;
    served.docs += 1;
    let span_id = trace.map(|_| ctx.next_span());
    let node = &ctx.node;
    let (response, found, promoted) = match node.handle_http_request(request, now) {
        Some((response, promoted)) => (response, true, promoted),
        None => (
            coopcache_proxy::HttpResponse {
                from: node.id(),
                doc: request.doc,
                size: ByteSize::ZERO,
                responder_age: node.expiration_age(),
            },
            false,
            false,
        ),
    };
    write_frame(writer, &WireMessage::DocResponse { response, found })?;
    let mut truncated = false;
    if found {
        let full = response.size.as_bytes();
        let len = if fault == DocFault::Truncate {
            truncated = true;
            full / 2 // half the body, then the connection drops
        } else {
            full
        };
        write_body(writer, len)?;
    }
    if let (Some(t), Some(span_id), Some(start_us)) = (trace, span_id, start_us) {
        let spans = SpanRecorder::new(t.trace_id, t.parent_span, ctx.id, request.doc);
        let serve = (span_id, start_us, ctx.clock.now_micros());
        ctx.emit(&spans.doc_serve(request.from, found.then_some(promoted), serve));
    }
    Ok(if truncated {
        FrameDisposition::Close
    } else {
        FrameDisposition::KeepOpen
    })
}

impl LoopCtx {
    /// The peers under quarantine at the current clock, in id order.
    fn quarantined(&self) -> Vec<CacheId> {
        let now_us = self.clock.now_micros();
        lock(&self.health)
            .iter()
            .filter(|(_, h)| now_us < h.quarantined_until_us)
            .map(|(id, _)| *id)
            .collect()
    }

    /// Cache occupancy — documents, used and capacity bytes — and the
    /// live expiration age (paper eq. 5, `None` while infinite).
    fn occupancy(&self) -> (u64, u64, u64, Option<u64>) {
        let cache = self.node.cache();
        (
            u64::try_from(cache.len()).unwrap_or(u64::MAX),
            cache.used().as_bytes(),
            cache.capacity().as_bytes(),
            age_to_ms(self.node.expiration_age()),
        )
    }

    /// Builds the deterministic JSON document behind `OP_STATS`: per-kind
    /// event counters (zeros included, [`coopcache_obs::EVENT_KINDS`]
    /// order), wall-clock latency snapshots per serve source, currently
    /// quarantined peers, cache occupancy, and the live cache expiration
    /// age (`null` while the cache still reports an infinite age).
    fn stats_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("cache");
        w.u64(u64::from(self.id.as_u16()));
        w.key("counters");
        self.node.stats().write_counters(&mut w);
        w.key("latency");
        w.begin_object();
        for (source, hist) in lock(&self.latency).iter() {
            w.key(&source.to_string());
            hist.snapshot().write_json_us(&mut w);
        }
        w.end_object();
        w.key("quarantined");
        w.begin_array();
        for id in self.quarantined() {
            w.u64(u64::from(id.as_u16()));
        }
        w.end_array();
        let (docs, used, capacity, age_ms) = self.occupancy();
        w.key("occupancy");
        w.begin_object();
        w.key("docs");
        w.u64(docs);
        w.key("used_bytes");
        w.u64(used);
        w.key("capacity_bytes");
        w.u64(capacity);
        w.end_object();
        w.key("expiration_age_ms");
        w.opt_u64(age_ms);
        w.end_object();
        w.finish()
    }

    /// Takes one time-series sample of the daemon's live state —
    /// cumulative event counters, the merged request-latency histogram,
    /// occupancy, the expiration age and the number of quarantined peers,
    /// stamped with the daemon clock — and pushes the point into the
    /// `OP_SERIES` ring. Rules are judged by whoever scrapes the ring.
    fn sample(&self) {
        let mut counters = [0u64; coopcache_obs::EVENT_KINDS.len()];
        for (slot, (_, count)) in counters.iter_mut().zip(self.node.stats().snapshot()) {
            *slot = count;
        }
        let mut merged = Histogram::new();
        let (mut local_hits, mut remote_hits) = (0u64, 0u64);
        for (source, hist) in lock(&self.latency).iter() {
            match source {
                ServeSource::Local => local_hits = local_hits.saturating_add(hist.count()),
                ServeSource::Peer(_) => remote_hits = remote_hits.saturating_add(hist.count()),
                ServeSource::Origin => {}
            }
            merged.merge(hist);
        }
        let snapshot = merged.snapshot();
        let (docs, used_bytes, capacity_bytes, expiration_age_ms) = self.occupancy();
        let point = SeriesPoint {
            t_ms: self.clock.now().as_millis(),
            counters,
            local_hits,
            remote_hits,
            latency: (snapshot.count > 0).then_some(snapshot),
            docs,
            used_bytes,
            capacity_bytes,
            expiration_age_ms,
            quarantined: u64::try_from(self.quarantined().len()).unwrap_or(u64::MAX),
        };
        lock(&self.series).push(point);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::LoopbackCluster;
    use crate::fault::{FaultKind, FaultMode, FaultPlan};
    use crate::wire::{CountingWriter, MAX_FRAME_LEN};
    use coopcache_core::PlacementScheme;
    use coopcache_obs::{parse_json, EventKind, JsonValue, RingBufferSink, SpanKind};
    use coopcache_proxy::HttpRequest;
    use coopcache_types::{DurationMs, ExpirationAge};
    use std::collections::VecDeque;
    use std::io::BufReader;

    /// Size of the small documents the frame-loop tests serve.
    const SMALL: u64 = 256;
    /// Documents `0..SMALL_DOCS` are small; [`BIG_DOC`] outgrows the
    /// loop's write buffer.
    const SMALL_DOCS: u64 = 64;
    const BIG_DOC: u64 = 1_000;
    const BIG: u64 = 3 * WRITE_BUF as u64 + 5;

    /// A one-daemon cluster holding the small documents and the big one.
    fn warm_cluster() -> LoopbackCluster {
        warm_cluster_with_shards(1)
    }

    /// [`warm_cluster`] with its cache split over `shards` shard locks.
    fn warm_cluster_with_shards(shards: usize) -> LoopbackCluster {
        let config =
            ClusterConfig::new(1, ByteSize::from_kb(1024), PlacementScheme::Ea).shards(shards);
        let cluster = LoopbackCluster::start_with_config(config).unwrap();
        for doc in 0..SMALL_DOCS {
            cluster
                .request(0, DocId::new(doc), ByteSize::from_bytes(SMALL))
                .unwrap();
        }
        cluster
            .request(0, DocId::new(BIG_DOC), ByteSize::from_bytes(BIG))
            .unwrap();
        cluster
    }

    /// Appends one `DocRequest` frame per document, as a pipelining peer
    /// sends them.
    fn doc_requests(buf: &mut Vec<u8>, docs: impl IntoIterator<Item = u64>) {
        for doc in docs {
            let request = HttpRequest {
                from: CacheId::new(1),
                doc: DocId::new(doc),
                requester_age: ExpirationAge::finite(DurationMs::from_secs(1)),
            };
            write_frame(buf, &WireMessage::DocRequest { request, ctx: None }).unwrap();
        }
    }

    /// A reader that hands out one chunk per `read`, as a socket hands
    /// out whatever one segment brought. It ends once, like a closed
    /// socket: a loop that reads again after end of input is spinning.
    struct Chunked(VecDeque<Vec<u8>>, bool);

    impl Read for Chunked {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let Some(chunk) = self.0.front_mut() else {
                assert!(!self.1, "the loop read again after end of input");
                self.1 = true;
                return Ok(0);
            };
            let n = chunk.len().min(buf.len());
            buf[..n].copy_from_slice(&chunk[..n]);
            chunk.drain(..n);
            if chunk.is_empty() {
                self.0.pop_front();
            }
            Ok(n)
        }
    }

    /// Runs the frame loop over `chunks` until the input runs out.
    fn serve_buffered(ctx: &LoopCtx, chunks: Vec<Vec<u8>>) -> CountingWriter {
        let mut out = CountingWriter::default();
        let mut served = Served::default();
        let err = serve_conn_buffered(Chunked(chunks.into(), false), &mut out, ctx, &mut served, 0)
            .expect_err("the loop ends at end of input");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        out
    }

    /// Length of one framed `DocResponse` header.
    fn response_header_len() -> usize {
        let response = coopcache_proxy::HttpResponse {
            from: CacheId::new(0),
            doc: DocId::new(0),
            size: ByteSize::ZERO,
            responder_age: ExpirationAge::Infinite,
        };
        4 + WireMessage::DocResponse {
            response,
            found: true,
        }
        .encode()
        .len()
    }

    #[test]
    fn buffered_loop_answers_each_drained_read_with_one_write() {
        let cluster = warm_cluster();
        let ctx = &cluster.daemon(0).ctx;
        let batches: Vec<Vec<u8>> = (0..3)
            .map(|b| {
                let mut batch = Vec::new();
                doc_requests(&mut batch, (0..SMALL_DOCS).map(|k| (b + k) % SMALL_DOCS));
                batch
            })
            .collect();
        let buffered = serve_buffered(ctx, batches.clone());
        let batch_bytes = SMALL_DOCS as usize * (response_header_len() + SMALL as usize);
        assert_eq!(
            buffered.writes,
            vec![batch_bytes; 3],
            "one write per 64-frame batch"
        );
        let whole = serve_buffered(ctx, vec![batches.concat()]);
        assert_eq!(buffered.bytes, whole.bytes, "same bytes as one read");
        cluster.shutdown();
    }

    #[test]
    fn buffered_loop_writes_a_body_larger_than_its_buffer_through() {
        let cluster = warm_cluster();
        let ctx = &cluster.daemon(0).ctx;
        let mut input = Vec::new();
        doc_requests(&mut input, [1, BIG_DOC, 2]);
        let buffered = serve_buffered(ctx, vec![input.clone()]);
        let full_blocks = buffered.writes.iter().filter(|&&n| n == ZERO_BLOCK).count();
        assert_eq!(full_blocks, 3, "{:?}", buffered.writes);

        let mut reader = buffered.bytes.as_slice();
        for (doc, size) in [(1, SMALL), (BIG_DOC, BIG), (2, SMALL)] {
            let Ok(WireMessage::DocResponse { response, found }) = read_frame(&mut reader) else {
                panic!("expected the response for document {doc}");
            };
            assert!(found);
            assert_eq!(
                (response.doc, response.size.as_bytes()),
                (DocId::new(doc), size)
            );
            let (body, rest) = reader.split_at(size as usize);
            assert!(
                body.iter().all(|&b| b == 0),
                "document {doc} arrives intact"
            );
            reader = rest;
        }
        assert!(reader.is_empty());
        cluster.shutdown();
    }

    #[test]
    fn buffered_loop_answers_a_stats_probe_inside_a_batch_in_order() {
        let cluster = warm_cluster();
        let ctx = &cluster.daemon(0).ctx;
        let mut input = Vec::new();
        doc_requests(&mut input, 0..5);
        write_frame(&mut input, &WireMessage::StatsRequest).unwrap();
        doc_requests(&mut input, 5..10);
        let out = serve_buffered(ctx, vec![input]);
        assert_eq!(out.writes.len(), 1, "{:?}", out.writes);

        let mut reader = out.bytes.as_slice();
        let doc_response = |reader: &mut &[u8], doc: u64| {
            let Ok(WireMessage::DocResponse { response, found }) = read_frame(reader) else {
                panic!("expected the response for document {doc}");
            };
            assert!(found && response.doc == DocId::new(doc));
            *reader = &reader[SMALL as usize..];
        };
        for doc in 0..5 {
            doc_response(&mut reader, doc);
        }
        let Ok(WireMessage::StatsResponse { cache, body_len }) = read_frame(&mut reader) else {
            panic!("expected the stats response sixth");
        };
        assert_eq!(cache, CacheId::new(0));
        let (body, rest) = reader.split_at(body_len as usize);
        assert!(body.starts_with(b"{\"cache\":0,"));
        reader = rest;
        for doc in 5..10 {
            doc_response(&mut reader, doc);
        }
        assert!(reader.is_empty());
        cluster.shutdown();
    }

    /// One counter of the daemon's `OP_STATS` document.
    fn counter(daemon: &CacheDaemon, kind: EventKind) -> u64 {
        let doc = parse_json(&daemon.stats_json()).unwrap();
        doc.get("counters")
            .and_then(|c| c.get(kind.name()))
            .and_then(JsonValue::as_u64)
            .unwrap()
    }

    #[test]
    fn sinkless_daemon_counts_exactly_and_a_later_sink_sees_the_next_frame() {
        const FRAMES: u64 = 16;
        let mut cluster = warm_cluster();
        let daemon = cluster.daemon(0);
        let reused_before = counter(daemon, EventKind::ConnReused);
        let placed_before = counter(daemon, EventKind::Placement);

        let stream = TcpStream::connect(daemon.doc_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut exchange = |docs: std::ops::Range<u64>| {
            let mut batch = Vec::new();
            doc_requests(&mut batch, docs.clone());
            (&stream).write_all(&batch).unwrap();
            for _ in docs {
                let Ok(WireMessage::DocResponse { response, found }) = read_frame(&mut reader)
                else {
                    panic!("expected a document response");
                };
                assert!(found);
                drain_body(&mut reader, response.size.as_bytes()).unwrap();
            }
        };
        exchange(0..FRAMES);
        assert_eq!(
            counter(daemon, EventKind::ConnReused) - reused_before,
            FRAMES - 1
        );
        assert_eq!(
            counter(daemon, EventKind::Placement) - placed_before,
            FRAMES
        );

        let ring = Arc::new(Mutex::new(RingBufferSink::new(64)));
        cluster.set_sink(SinkHandle::from_arc(Arc::clone(&ring)));
        exchange(FRAMES..FRAMES + 1);
        let kinds: Vec<EventKind> = ring.lock().unwrap().events().map(Event::kind).collect();
        assert!(kinds.contains(&EventKind::ConnReused), "{kinds:?}");
        assert!(kinds.contains(&EventKind::Placement), "{kinds:?}");
        drop(stream);
        cluster.shutdown();
    }

    #[test]
    fn a_probe_before_the_first_document_frame_is_not_connection_reuse() {
        let cluster = warm_cluster();
        let daemon = cluster.daemon(0);
        let reused_before = counter(daemon, EventKind::ConnReused);
        let mut input = Vec::new();
        write_frame(&mut input, &WireMessage::StatsRequest).unwrap();
        write_frame(&mut input, &WireMessage::SeriesRequest).unwrap();
        doc_requests(&mut input, [1]);
        serve_buffered(&daemon.ctx, vec![input]);
        assert_eq!(
            counter(daemon, EventKind::ConnReused) - reused_before,
            0,
            "the first document frame opens the connection's reuse count"
        );
        let mut input = Vec::new();
        write_frame(&mut input, &WireMessage::StatsRequest).unwrap();
        doc_requests(&mut input, [1, 2]);
        serve_buffered(&daemon.ctx, vec![input]);
        assert_eq!(counter(daemon, EventKind::ConnReused) - reused_before, 1);
        cluster.shutdown();
    }

    /// The responder takes one shard lock per served document, whatever
    /// the shard count: the eq. 5 age it piggybacks is a published
    /// atomic, not a pass over the shards.
    #[test]
    fn each_served_document_takes_exactly_one_shard_lock() {
        const FRAMES: u64 = 3 * SMALL_DOCS;
        for shards in [1, 4] {
            let cluster = warm_cluster_with_shards(shards);
            let ctx = &cluster.daemon(0).ctx;
            let mut input = Vec::new();
            doc_requests(&mut input, (0..FRAMES).map(|k| k % SMALL_DOCS));
            let before = ctx.node.cache().contention();
            serve_buffered(ctx, vec![input]);
            let taken = ctx.node.cache().contention().acquisitions - before.acquisitions;
            assert_eq!(taken, FRAMES, "{shards} shard(s)");
            cluster.shutdown();
        }
    }

    /// Every frame a drained read delivers is served at one cache time:
    /// the clock is read once per read, not once per frame.
    #[test]
    fn the_buffered_loop_reads_the_clock_once_per_drained_read() {
        let cluster = warm_cluster();
        let ctx = &cluster.daemon(0).ctx;
        let batches: Vec<Vec<u8>> = (0..3)
            .map(|_| {
                let mut batch = Vec::new();
                doc_requests(&mut batch, 0..SMALL_DOCS);
                batch
            })
            .collect();
        let before = ctx.clock.reads();
        serve_buffered(ctx, batches);
        assert_eq!(ctx.clock.reads() - before, 3, "one read per 64-frame batch");

        // A frame split across reads is completed by the next read; the
        // clock is read again after it.
        let mut input = Vec::new();
        doc_requests(&mut input, 0..2);
        let (first, second) = input.split_at(input.len() / 2 + 3);
        let before = ctx.clock.reads();
        let out = serve_buffered(ctx, vec![first.to_vec(), second.to_vec()]);
        assert_eq!(ctx.clock.reads() - before, 2);
        assert_eq!(out.bytes, serve_buffered(ctx, vec![input]).bytes);
        cluster.shutdown();
    }

    #[test]
    fn each_series_probe_lands_one_sample() {
        let cluster =
            LoopbackCluster::start(1, ByteSize::from_kb(64), PlacementScheme::Ea).unwrap();
        let addr = cluster.daemon(0).doc_addr();
        for k in 1..=3 {
            let body = crate::scrape_series(addr, Duration::from_secs(5)).unwrap();
            let ring = SeriesRing::from_json(&body).unwrap();
            assert_eq!(ring.len(), k, "probe {k}");
            assert_eq!(ring.interval_ms(), SERIES_INTERVAL_MS);
        }
        cluster.shutdown();
    }

    #[test]
    fn admission_shed_serves_the_bytes_and_stores_nothing() {
        let mut cluster =
            LoopbackCluster::start(1, ByteSize::from_kb(64), PlacementScheme::Ea).unwrap();
        // 4 % of memory available: below the gate's 5 % floor.
        cluster.daemon_mut(0).admission = AdmissionGate::new(MemoryProbe::Fixed(4));
        let ring = Arc::new(Mutex::new(RingBufferSink::new(256)));
        cluster.set_sink(SinkHandle::from_arc(Arc::clone(&ring)));
        let (doc, size) = (DocId::new(9), ByteSize::from_kb(4));
        for shed in 1..=2 {
            // The client gets the bytes; the requester keeps no copy, so
            // the repeat request misses again and reaches the origin.
            let out = cluster.request(0, doc, size).unwrap();
            assert!(
                matches!(
                    out,
                    RequestOutcome::Miss {
                        stored_locally: false,
                        ..
                    }
                ),
                "{out:?}"
            );
            assert_eq!(cluster.origin_fetches(), shed);
            let body = crate::scrape_stats(cluster.doc_addrs()[0], Duration::from_secs(5)).unwrap();
            let shed_count = parse_json(&body)
                .unwrap()
                .get("counters")
                .and_then(|c| c.get(EventKind::AdmissionShed.name()))
                .and_then(JsonValue::as_u64);
            assert_eq!(shed_count, Some(shed), "{body}");
        }
        assert!(!cluster.daemon(0).with_node(|n| n.cache().contains(doc)));
        let statuses: Vec<&str> = ring
            .lock()
            .unwrap()
            .events()
            .filter_map(|e| match e {
                Event::Span(span) if span.kind == SpanKind::OriginFetch => Some(span.status),
                _ => None,
            })
            .collect();
        assert_eq!(statuses, ["shed", "shed"]);
        cluster.shutdown();
    }

    #[test]
    fn connections_past_the_cap_close_unanswered_until_one_frees() {
        // Idle connections must outlive the test, not the I/O timeout.
        let config = ClusterConfig::new(1, ByteSize::from_kb(64), PlacementScheme::Ea)
            .io_timeout(Duration::from_secs(60));
        let cluster = LoopbackCluster::start_with_config(config).unwrap();
        let daemon = cluster.daemon(0);
        let clock = SharedClock::start();
        let wait_until = |done: &dyn Fn() -> bool| {
            while !done() {
                assert!(clock.now_micros() < 10_000_000, "timed out");
                std::thread::sleep(Duration::from_millis(2));
            }
        };
        let stats_probe = |stream: &TcpStream| {
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            write_frame(&mut &*stream, &WireMessage::StatsRequest)
                .and_then(|()| read_frame(&mut BufReader::new(stream)))
        };
        let mut held: Vec<TcpStream> = (0..MAX_CONNS)
            .map(|_| TcpStream::connect(daemon.doc_addr()).unwrap())
            .collect();
        wait_until(&|| daemon.ctx.conns.active() == MAX_CONNS);

        let over = TcpStream::connect(daemon.doc_addr()).unwrap();
        match stats_probe(&over) {
            Ok(answer) => panic!("over the cap, yet answered {answer:?}"),
            Err(e) => assert!(!is_timeout(&e), "closed, not left hanging: {e}"),
        }

        drop(held.pop());
        wait_until(&|| daemon.ctx.conns.active() < MAX_CONNS);
        let next = TcpStream::connect(daemon.doc_addr()).unwrap();
        assert!(
            matches!(stats_probe(&next), Ok(WireMessage::StatsResponse { .. })),
            "a freed slot serves the next connection"
        );
        drop((held, over, next));
        cluster.shutdown();
    }

    /// A warm group connects no more: with daemon 0 the only requester,
    /// each of its peer and origin fetches is one `ConnReused` at daemon
    /// 0, and each responder counts its own side once per served fetch.
    #[test]
    fn a_warm_requester_reuses_a_connection_for_every_fetch() {
        const ROUNDS: u64 = 8;
        let mut cluster =
            LoopbackCluster::start(4, ByteSize::from_kb(256), PlacementScheme::Ea).unwrap();
        let size = ByteSize::from_kb(1);
        let held = |peer: usize, k: u64| DocId::new(100 * peer as u64 + k);
        for peer in 1..4 {
            for k in 0..=ROUNDS {
                cluster.request(peer, held(peer, k), size).unwrap();
            }
        }
        // Warm-up: daemon 0 connects once to each peer and to the origin.
        for peer in 1..4 {
            assert!(cluster
                .request(0, held(peer, 0), size)
                .unwrap()
                .is_remote_hit());
        }
        cluster.request(0, DocId::new(9_000), size).unwrap();

        let ring = Arc::new(Mutex::new(RingBufferSink::new(4096)));
        cluster.set_sink(SinkHandle::from_arc(Arc::clone(&ring)));
        for k in 1..=ROUNDS {
            for peer in 1..4 {
                assert!(cluster
                    .request(0, held(peer, k), size)
                    .unwrap()
                    .is_remote_hit());
            }
            let out = cluster.request(0, DocId::new(9_000 + k), size).unwrap();
            assert!(matches!(out, RequestOutcome::Miss { .. }), "{out:?}");
        }
        let ring = ring.lock().unwrap();
        let reused_at = |cache: u16| {
            ring.events()
                .filter(|e| matches!(e, Event::ConnReused { cache: c, .. } if c.as_u16() == cache))
                .count() as u64
        };
        let fetches = |kind: SpanKind| {
            ring.events()
                .filter(|e| matches!(e, Event::Span(s) if s.kind == kind && s.cache.as_u16() == 0))
                .count() as u64
        };
        let (peer_fetches, origin_fetches) =
            (fetches(SpanKind::PeerFetch), fetches(SpanKind::OriginFetch));
        assert_eq!((peer_fetches, origin_fetches), (3 * ROUNDS, ROUNDS));
        assert_eq!(reused_at(0), peer_fetches + origin_fetches);
        for peer in 1..4 {
            assert_eq!(reused_at(peer), ROUNDS, "responder {peer}");
        }
        drop(ring);
        cluster.shutdown();
    }

    /// A reply that arrived while the requester was busy past the round's
    /// deadline — fetching from an earlier candidate, say — is still read:
    /// it yields its candidate, and its sender is not booked silent.
    #[test]
    fn replies_queued_past_the_deadline_count_as_on_time() {
        let icp_timeout = Duration::from_millis(50);
        let config = ClusterConfig::new(3, ByteSize::from_kb(64), PlacementScheme::AdHoc)
            .icp_timeout(icp_timeout);
        let mut cluster = LoopbackCluster::start_with_config(config).unwrap();
        let doc = DocId::new(5);
        // Ad-hoc replication leaves a copy at caches 1 and 2.
        cluster.request(1, doc, ByteSize::from_kb(4)).unwrap();
        cluster.request(2, doc, ByteSize::from_kb(4)).unwrap();
        let ring = Arc::new(Mutex::new(RingBufferSink::new(256)));
        cluster.set_sink(SinkHandle::from_arc(Arc::clone(&ring)));
        let daemon = cluster.daemon(0);
        let holders = [CacheId::new(1), CacheId::new(2)];
        let spans = SpanRecorder::new(0, 0, CacheId::new(0), doc);

        // A slow fetch from the first candidate: the other reply is read
        // when the round is finished.
        let mut round = daemon.start_icp_round(doc, &spans).unwrap();
        std::thread::sleep(icp_timeout * 4);
        let first = daemon.next_reply(&mut round).unwrap();
        assert!(
            first.is_some_and(|(p, hit)| hit && holders.contains(&p.id)),
            "{first:?}"
        );
        daemon.finish_icp_round(round);
        assert_eq!(daemon.parked_icp_sockets(), 1, "every peer answered");

        // A slow failing fetch from the first candidate: the second is
        // still pulled.
        let mut round = daemon.start_icp_round(doc, &spans).unwrap();
        std::thread::sleep(icp_timeout * 4);
        let mut pulled = Vec::new();
        while let Some((peer, hit)) = daemon.next_reply(&mut round).unwrap() {
            assert!(hit, "{peer:?} holds the document");
            pulled.push(peer.id);
        }
        pulled.sort_unstable();
        assert_eq!(pulled, holders);
        daemon.finish_icp_round(round);
        assert_eq!(daemon.parked_icp_sockets(), 1, "every peer answered");

        {
            let ring = ring.lock().unwrap();
            let faults: Vec<&Event> = ring
                .events()
                .filter(|e| matches!(e, Event::PeerFault { .. }))
                .collect();
            assert!(faults.is_empty(), "{faults:?}");
        }
        assert!(daemon.quarantined_peers().is_empty());
        cluster.shutdown();
    }

    // The frame-loop harness: seeded request streams through the
    // responder loop on a socket-free daemon context — fed whole, cut at
    // every byte offset and in random chunkings, and corrupted. Every run
    // starts from the same state, so two runs compare byte for byte.

    /// The harness daemon holds documents `0..HELD` (see [`held_size`])
    /// and [`BIG_DOC`]; `100..100 + HELD` it does not.
    const HELD: u64 = 16;

    fn held_size(doc: u64) -> u64 {
        64 + 61 * doc
    }

    /// The repo's splitmix64 mixer over a counter: a seeded stream.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(1);
            coopcache_obs::splitmix64(self.0) % n
        }
    }

    /// A socket-free daemon context on a manual clock, holding the
    /// harness documents, with `plan` compiled for it.
    fn harness_ctx(plan: &FaultPlan) -> LoopCtx {
        let config = ClusterConfig::new(1, ByteSize::from_kb(1024), PlacementScheme::Ea)
            .faults(plan.clone());
        let clock = SharedClock::start_with_manual_time();
        clock.set_cache_time(Timestamp::from_millis(60_000));
        let ctx = LoopCtx::new(CacheId::new(0), &config, clock);
        let now = ctx.clock.now();
        let held = (0..HELD).map(|doc| (doc, held_size(doc)));
        for (doc, size) in held.chain([(BIG_DOC, BIG)]) {
            assert!(ctx.node.complete_origin_fetch(
                DocId::new(doc),
                ByteSize::from_bytes(size),
                now
            ));
        }
        ctx
    }

    /// A seeded stream of `frames` request frames — held and missing
    /// documents (with `big`, the big one too), traced or not, and stats
    /// and series probes — with the offset each frame starts at.
    fn request_stream(rng: &mut Rng, frames: usize, big: bool) -> (Vec<u8>, Vec<usize>) {
        let (mut stream, mut starts) = (Vec::new(), Vec::new());
        for _ in 0..frames {
            starts.push(stream.len());
            let message = match rng.below(10) {
                0 => WireMessage::StatsRequest,
                1 => WireMessage::SeriesRequest,
                k => {
                    let doc = match k {
                        2 => 100 + rng.below(HELD),
                        3 if big => BIG_DOC,
                        _ => rng.below(HELD),
                    };
                    let requester_age = match rng.below(4) {
                        0 => ExpirationAge::Infinite,
                        _ => ExpirationAge::finite(DurationMs::from_millis(rng.below(120_000))),
                    };
                    let request = HttpRequest {
                        from: CacheId::new(1),
                        doc: DocId::new(doc),
                        requester_age,
                    };
                    let ctx = (rng.below(2) == 0).then(|| TraceCtx {
                        trace_id: rng.below(u64::MAX),
                        parent_span: rng.below(u64::MAX),
                    });
                    WireMessage::DocRequest { request, ctx }
                }
            };
            write_frame(&mut stream, &message).unwrap();
        }
        (stream, starts)
    }

    /// `stream` cut into seeded chunks of 1 to 64 bytes.
    fn random_chunks(rng: &mut Rng, stream: &[u8]) -> Vec<Vec<u8>> {
        let mut chunks = Vec::new();
        let mut rest = stream;
        while !rest.is_empty() {
            let n = (1 + rng.below(64) as usize).min(rest.len());
            let (chunk, tail) = rest.split_at(n);
            chunks.push(chunk.to_vec());
            rest = tail;
        }
        chunks
    }

    /// What one run of a frame loop left behind.
    #[derive(Debug, PartialEq, Eq)]
    struct Run {
        bytes: Vec<u8>,
        /// How the loop ended; `None` for a close it chose.
        end: Option<io::ErrorKind>,
        counters: Vec<(EventKind, u64)>,
        /// [`Served`]'s `(frames, docs)`.
        served: (u64, u64),
        shard_locks: u64,
        /// Each fault rule's `(seen, fired)`.
        draws: Vec<(u64, u64)>,
    }

    impl Run {
        fn of(ctx: &LoopCtx, bytes: Vec<u8>, end: io::Result<()>, served: &Served) -> Self {
            Self {
                bytes,
                end: end.err().map(|e| e.kind()),
                counters: ctx.node.stats().snapshot().to_vec(),
                served: (served.frames, served.docs),
                shard_locks: ctx.node.cache().contention().acquisitions,
                draws: ctx
                    .faults
                    .as_deref()
                    .map(FaultState::draws)
                    .unwrap_or_default(),
            }
        }
    }

    /// Runs the responder loop over `chunks`, one per `read`, on a fresh
    /// harness context; also returns the length of every `write`.
    fn run_loop(plan: &FaultPlan, chunks: Vec<Vec<u8>>) -> (Run, Vec<usize>) {
        let ctx = harness_ctx(plan);
        let mut out = CountingWriter::default();
        let mut served = Served::default();
        let reader = Chunked(chunks.into(), false);
        let end = serve_conn_buffered(reader, &mut out, &ctx, &mut served, 0);
        (Run::of(&ctx, out.bytes, end, &served), out.writes)
    }

    /// `streams` seeded streams, each fed whole, cut at every byte offset
    /// (the first `every_offset` streams only) and in `chunkings` random
    /// chunkings: every run must leave what the whole-stream run left,
    /// fault draws included. Every other stream runs under a seeded mix
    /// of reset and truncate faults.
    fn check_chunkings(seed: u64, streams: usize, every_offset: usize, chunkings: usize) {
        let mut rng = Rng(seed);
        for s in 0..streams {
            let frames = 4 + rng.below(12) as usize;
            let (stream, _) = request_stream(&mut rng, frames, s % 4 >= 2);
            let kinds = [FaultKind::ResetDoc, FaultKind::TruncateDocBody];
            let plan = match s % 2 {
                0 => FaultPlan::default(),
                _ => kinds
                    .into_iter()
                    .fold(FaultPlan::seeded(seed), |plan, kind| {
                        plan.rule(CacheId::new(0), kind, FaultMode::Probability(10))
                    }),
            };
            let (whole, _) = run_loop(&plan, vec![stream.clone()]);
            if plan.is_empty() {
                assert_eq!(whole.end, Some(io::ErrorKind::UnexpectedEof));
                assert_eq!(whole.served.0, frames as u64);
            }
            if s < every_offset {
                for cut in 1..stream.len() {
                    let chunks = vec![stream[..cut].to_vec(), stream[cut..].to_vec()];
                    assert_eq!(
                        run_loop(&plan, chunks).0,
                        whole,
                        "seed {seed}, cut at {cut}"
                    );
                }
            }
            for _ in 0..chunkings {
                let chunks = random_chunks(&mut rng, &stream);
                assert_eq!(run_loop(&plan, chunks).0, whole, "seed {seed}, stream {s}");
            }
        }
    }

    /// One seeded corruption of a valid stream whose frames start at
    /// `starts`: a byte flip, a truncation, inserted junk, or a length
    /// prefix of 0, 41, `MAX_FRAME_LEN` or `MAX_FRAME_LEN + 1`.
    fn mutate(rng: &mut Rng, stream: &[u8], starts: &[usize]) -> Vec<u8> {
        let mut out = stream.to_vec();
        let at = rng.below(out.len() as u64) as usize;
        match rng.below(4) {
            0 => out[at] ^= 1 + rng.below(255) as u8,
            1 => out.truncate(at),
            2 => {
                let junk: Vec<u8> = (0..1 + rng.below(16))
                    .map(|_| rng.below(256) as u8)
                    .collect();
                out.splice(at..at, junk);
            }
            _ => {
                let start = starts[rng.below(starts.len() as u64) as usize];
                let lens = [0, 41, MAX_FRAME_LEN, MAX_FRAME_LEN + 1];
                let len = lens[rng.below(4) as usize] as u32;
                out[start..start + 4].copy_from_slice(&len.to_be_bytes());
            }
        }
        out
    }

    /// The reference framer, written apart from the loop's: the length of
    /// the run of answerable frames at the head of `stream`, and how a
    /// loop fed `stream` must end after answering them.
    fn answerable_prefix(stream: &[u8]) -> (usize, io::ErrorKind) {
        let mut at = 0;
        loop {
            let Some(prefix) = stream.get(at..at + 4) else {
                return (at, io::ErrorKind::UnexpectedEof);
            };
            let len = u32::from_be_bytes(prefix.try_into().unwrap()) as usize;
            if len > MAX_FRAME_LEN {
                return (at, io::ErrorKind::InvalidData);
            }
            let Some(header) = stream.get(at + 4..at + 4 + len) else {
                return (at, io::ErrorKind::UnexpectedEof);
            };
            match WireMessage::decode(header) {
                Ok(
                    WireMessage::DocRequest { .. }
                    | WireMessage::StatsRequest
                    | WireMessage::SeriesRequest,
                ) => at += 4 + len,
                _ => return (at, io::ErrorKind::InvalidData),
            }
        }
    }

    /// `streams` seeded streams, each corrupted `per_stream` ways and fed
    /// in random chunks. The loop must end with the error the reference
    /// framer predicts, answer exactly the frames before the first one it
    /// cannot decode, and write at most `ZERO_BLOCK` bytes per call.
    fn check_mutations(seed: u64, streams: usize, per_stream: usize) {
        let plan = FaultPlan::default();
        let mut rng = Rng(seed);
        for _ in 0..streams {
            let frames = 2 + rng.below(8) as usize;
            let (stream, starts) = request_stream(&mut rng, frames, true);
            for _ in 0..per_stream {
                let mutated = mutate(&mut rng, &stream, &starts);
                let (answerable, ends) = answerable_prefix(&mutated);
                let (run, writes) = run_loop(&plan, random_chunks(&mut rng, &mutated));
                let (reference, _) = run_loop(&plan, vec![mutated[..answerable].to_vec()]);
                assert_eq!(run.end, Some(ends), "seed {seed}: {mutated:?}");
                assert_eq!(run.bytes, reference.bytes, "seed {seed}: {mutated:?}");
                assert_eq!(run.served, reference.served, "seed {seed}: {mutated:?}");
                assert!(writes.iter().all(|&n| n <= ZERO_BLOCK), "{writes:?}");
            }
        }
    }

    #[test]
    fn the_loop_answers_a_stream_the_same_however_it_is_cut() {
        check_chunkings(0x41, 8, 2, 16);
    }

    #[test]
    fn the_loop_closes_on_malformed_input_after_answering_what_came_before() {
        check_mutations(0xBAD, 32, 16);
    }

    /// The deep variant of the two checks above, for release builds.
    #[test]
    #[ignore = "deep run: cargo test --release -p coopcache-net -- --ignored"]
    fn deep_frame_loop_harness() {
        for seed in 0..16 {
            check_chunkings(0xD00D + seed, 40, 4, 32);
            check_mutations(0xDEAD + seed, 200, 40);
        }
    }
}
