//! Event sinks: where emitted [`Event`]s go.
//!
//! The placement code never knows which sink it is talking to — drivers
//! hand it a [`SinkHandle`] (or none at all: an absent sink costs one
//! branch per event). The provided sinks cover the common use cases:
//!
//! * [`RingBufferSink`] — keep the last `n` events for tests and
//!   post-mortems;
//! * [`JsonlSink`] — stream each event as one compact JSON line;
//! * [`Tally`](crate::Tally) — aggregate into per-kind counts and
//!   log-bucketed latency/age histograms.
//!
//! # Inline and offloaded delivery
//!
//! [`SinkHandle::emit`] filters and delivers on the emitting thread: the
//! synchronous runner and the live daemons pay for their sink inline.
//! The DES instead feeds the caller's handle through a [`SinkOffload`]:
//! the simulation thread still applies the handle's filter, then batches
//! the surviving events for a worker thread that delivers each batch
//! under one lock of the shared sink.

use crate::event::Event;
use crate::sample::SamplerConfig;
use std::cell::Cell;
use std::collections::VecDeque;
use std::io::{self, Write};
use std::sync::mpsc::{self, Receiver, SendError, SyncSender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::Scope;

/// A consumer of [`Event`]s.
///
/// Implementations must be cheap per call — sinks run inline on the
/// request path of the synchronous runner and the live daemons (the DES
/// hands its caller's sink whole batches on a worker thread).
pub trait EventSink {
    /// Consumes one event.
    fn emit(&mut self, event: &Event);
}

/// Keeps the most recent `capacity` events in memory.
#[derive(Debug, Clone)]
pub struct RingBufferSink {
    buf: VecDeque<Event>,
    capacity: usize,
    total: u64,
}

impl RingBufferSink {
    /// Creates a ring holding at most `capacity` events (`capacity ≥ 1`).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "ring buffer needs room for one event");
        Self {
            buf: VecDeque::with_capacity(capacity),
            capacity,
            total: 0,
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.buf.iter()
    }

    /// Number of retained events (at most the capacity).
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been emitted yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events ever emitted, including those already displaced.
    #[must_use]
    pub fn total_emitted(&self) -> u64 {
        self.total
    }
}

impl EventSink for RingBufferSink {
    fn emit(&mut self, event: &Event) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back(*event);
        self.total += 1;
    }
}

/// Streams each event as one compact JSON line (JSONL).
///
/// Serialization is deterministic (fixed field order, no timestamps of its
/// own), so replaying the same trace through the same configuration
/// produces a byte-identical file. Each line is laid out by
/// [`Event::write_json`] — the one fixed-shape encoder — straight into a
/// reused buffer, newline included, and handed to the writer in one
/// `write_all`. I/O errors are sticky: the first error stops further
/// writes and is reported by [`JsonlSink::finish`].
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    writer: W,
    lines: u64,
    error: Option<io::Error>,
    /// Reused line buffer ([`Event::write_json`] plus the newline),
    /// allocated with the sink: the hot path allocates nothing, so a
    /// [`SinkOffload`] worker encoding the lines leaves no allocation of
    /// its own for the constructing thread to free.
    buf: Vec<u8>,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps a writer. Callers that write to files usually want a
    /// `BufWriter`.
    pub fn new(writer: W) -> Self {
        Self {
            writer,
            lines: 0,
            error: None,
            buf: Vec::with_capacity(JSONL_LINE),
        }
    }

    /// Lines successfully written so far.
    #[must_use]
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Consumes the sink and returns the underlying writer (without
    /// flushing) — handy for in-memory writers like `Vec<u8>`.
    #[must_use]
    pub fn into_inner(self) -> W {
        self.writer
    }

    /// Flushes and returns the first I/O error encountered, if any.
    ///
    /// # Errors
    ///
    /// Returns the sticky write error, or the flush error.
    pub fn finish(mut self) -> io::Result<u64> {
        if let Some(err) = self.error.take() {
            return Err(err);
        }
        self.writer.flush()?;
        Ok(self.lines)
    }
}

impl<W: Write> EventSink for JsonlSink<W> {
    fn emit(&mut self, event: &Event) {
        if self.error.is_some() {
            return;
        }
        self.buf.clear();
        event.write_json(&mut self.buf);
        self.buf.push(b'\n');
        match self.writer.write_all(&self.buf) {
            Ok(()) => self.lines += 1,
            Err(err) => self.error = Some(err),
        }
    }
}

/// Initial capacity of a [`JsonlSink`]'s line buffer: the longest event
/// line, a span with every field set, is under 300 bytes.
const JSONL_LINE: usize = 512;

/// A cloneable, thread-safe handle to a shared sink.
///
/// This is what gets threaded through `ProxyNode`, the simulators and the
/// daemon: cloning the handle is cheap (an `Arc` bump), and every clone
/// feeds the same underlying sink. A poisoned lock (a panic on another
/// thread mid-emit) is recovered rather than propagated — observability
/// must never take the cache down with it.
#[derive(Clone)]
pub struct SinkHandle {
    inner: Arc<Mutex<dyn EventSink + Send>>,
    /// Head-sampling filter applied *before* the lock: a dropped span
    /// never contends on the shared sink, which is what keeps the
    /// always-on sampled mode within its overhead budget.
    sampler: Option<SamplerConfig>,
}

impl std::fmt::Debug for SinkHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SinkHandle")
    }
}

impl SinkHandle {
    /// Wraps a sink in a fresh shared handle.
    pub fn new<S: EventSink + Send + 'static>(sink: S) -> Self {
        Self {
            inner: Arc::new(Mutex::new(sink)),
            sampler: None,
        }
    }

    /// Returns this handle with the sampling policy replaced (`None`
    /// emits everything). Clones share the sink but each carries its own
    /// filter, so one subsystem can sample while another stays exact.
    #[must_use]
    pub fn sampled(mut self, config: Option<SamplerConfig>) -> Self {
        self.sampler = config;
        self
    }

    /// The head decision this handle's sampler makes for `trace_id`
    /// (`true` without a sampler). Daemons consult this once per served
    /// request and, for a dropped trace, shed the *whole* request's
    /// telemetry with [`mute_request_scoped`] — not just the spans the
    /// per-event filter would catch.
    #[must_use]
    pub fn keeps_trace(&self, trace_id: u64) -> bool {
        self.sampler.is_none_or(|s| s.keeps_trace(trace_id))
    }

    /// Wraps an existing shared sink; the caller keeps its typed `Arc` to
    /// inspect the sink after the run (e.g. read a
    /// [`Tally`](crate::Tally) summary).
    ///
    /// Emitters block on the shared lock, and live-daemon threads emit
    /// even after a request's reply is on the wire — never hold the typed
    /// `Arc`'s lock across a shutdown that joins emitting threads.
    pub fn from_arc<S: EventSink + Send + 'static>(sink: Arc<Mutex<S>>) -> Self {
        Self {
            inner: sink,
            sampler: None,
        }
    }

    /// Emits one event into the shared sink. Sampled-out spans and
    /// request-scoped events inside a [`mute_request_scoped`] scope
    /// return before touching the lock.
    pub fn emit(&self, event: &Event) {
        if admits(self.sampler.as_ref(), event) {
            self.deliver(std::slice::from_ref(event));
        }
    }

    /// Hands `events`, already filtered, to the shared sink under one
    /// lock.
    fn deliver(&self, events: &[Event]) {
        let mut guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        for event in events {
            guard.emit(event);
        }
    }
}

/// A handle's filter: `false` for a span its sampler drops and for a
/// request-scoped event emitted inside a [`mute_request_scoped`] scope
/// on the current thread.
fn admits(sampler: Option<&SamplerConfig>, event: &Event) -> bool {
    sampler.is_none_or(|s| s.keep(event))
        && !(event.kind().is_request_scoped() && MUTE_REQUEST_SCOPED.with(Cell::get))
}

/// Events the emitting thread collects before handing them to the
/// worker. At 256 the worker woke four times as often and a DES run
/// cost 40 % more CPU per request for a smaller speed-up.
const OFFLOAD_BATCH: usize = 1024;

/// Full batches queued ahead of the worker. One more batch is filling
/// and one is being delivered, so `OFFLOAD_DEPTH + 2` buffers circulate
/// and at most that many batches of events are in flight.
const OFFLOAD_DEPTH: usize = 1;

/// A [`SinkHandle`] fed from a worker thread.
///
/// The emitting thread applies the handle's filter — its sampler and
/// the [`mute_request_scoped`] state, a thread-local the worker does not
/// share — and copies each surviving event into a fixed-size batch.
/// Full batches cross a bounded channel to a worker spawned on the
/// caller's [`std::thread::scope`]; the worker hands each batch to the
/// shared sink under one lock, then returns the buffer for reuse. The
/// sink sees exactly the events, in exactly the order, that
/// [`SinkHandle::emit`] would have given it.
///
/// The buffers are allocated when the worker is spawned and only
/// circulate afterwards, so the emitting thread allocates nothing per
/// event or per batch.
///
/// Dropping the offload ships the partial batch and closes the channel:
/// the worker delivers what is queued and exits, and the scope's join
/// then returns only after every event is delivered and the worker's
/// clone of the handle is gone. Shipping blocks while the queue is
/// full, so drop the offload outside any lock the sink might need. A
/// sink that panics ends the worker; the emitting side then discards
/// the rest of the stream and the scope re-raises the panic when it
/// joins.
#[derive(Debug)]
pub struct SinkOffload {
    sampler: Option<SamplerConfig>,
    batch: Vec<Event>,
    full: SyncSender<Vec<Event>>,
    spare: Receiver<Vec<Event>>,
}

impl SinkOffload {
    /// Spawns on `scope` the worker that delivers `handle`'s events, and
    /// returns the emitting side.
    pub fn spawn<'scope>(scope: &'scope Scope<'scope, '_>, handle: SinkHandle) -> Self {
        let (full, batches) = mpsc::sync_channel::<Vec<Event>>(OFFLOAD_DEPTH);
        // Room for every spare buffer, so returning one never waits.
        let (recycle, spare) = mpsc::sync_channel(OFFLOAD_DEPTH + 1);
        for _ in 0..=OFFLOAD_DEPTH {
            let _ = recycle.try_send(Vec::with_capacity(OFFLOAD_BATCH));
        }
        let sampler = handle.sampler;
        scope.spawn(move || {
            for mut batch in batches {
                handle.deliver(&batch);
                batch.clear();
                // Once the emitting side is gone the buffer is freed.
                let _ = recycle.try_send(batch);
            }
        });
        Self {
            sampler,
            batch: Vec::with_capacity(OFFLOAD_BATCH),
            full,
            spare,
        }
    }

    /// Hands the current batch to the worker, blocking while the queue
    /// is full, and starts the next one in a recycled buffer.
    fn ship(&mut self) {
        let batch = std::mem::take(&mut self.batch);
        self.batch = match self.full.send(batch) {
            // Once the send succeeds, the queue holds this batch and the
            // worker at most one more, so a spare is always waiting.
            Ok(()) => self
                .spare
                .try_recv()
                .unwrap_or_else(|_| Vec::with_capacity(OFFLOAD_BATCH)),
            // The worker panicked: keep the buffer and drop the events;
            // the scope re-raises the panic when it joins.
            Err(SendError(mut batch)) => {
                batch.clear();
                batch
            }
        };
    }
}

impl EventSink for SinkOffload {
    fn emit(&mut self, event: &Event) {
        if admits(self.sampler.as_ref(), event) {
            self.batch.push(*event);
            if self.batch.len() == OFFLOAD_BATCH {
                self.ship();
            }
        }
    }
}

impl Drop for SinkOffload {
    fn drop(&mut self) {
        if !self.batch.is_empty() {
            self.ship();
        }
    }
}

thread_local! {
    /// Whether the current thread is serving a request whose trace the
    /// head sampler dropped (see [`mute_request_scoped`]).
    static MUTE_REQUEST_SCOPED: Cell<bool> = const { Cell::new(false) };
}

/// Whether the current thread is inside a [`mute_request_scoped`] scope.
///
/// [`SinkHandle::emit`] already applies the mute; this query exists for
/// emitters whose *preparation* for a request-scoped event is the
/// expensive part (taking a sink registry lock, building the event) so
/// they can skip it entirely on muted threads. Skipping on `true` is
/// always equivalent to emitting: the handle would have dropped the
/// event anyway.
#[must_use]
pub fn request_scoped_muted() -> bool {
    MUTE_REQUEST_SCOPED.with(Cell::get)
}

/// Suppresses *request-scoped* event kinds
/// ([`EventKind::is_request_scoped`](crate::EventKind::is_request_scoped))
/// emitted through any [`SinkHandle`]
/// on the current thread until the returned guard drops.
///
/// This is how a daemon extends the head sampler's per-trace decision to
/// the full request: the spans of a dropped trace are already filtered
/// per-event, but the request-completion, connection-reuse, placement
/// and ICP lines a request produces carry no trace id of their own. The
/// daemon serves each request synchronously on one thread, so a
/// thread-scoped mute over the serve path sheds exactly that request's
/// telemetry — low-rate health kinds (evictions, faults, quarantine,
/// admission sheds, alerts) pass through untouched, and `OP_STATS`
/// counters are recorded before the sink and stay exact regardless.
///
/// Guards nest: the mute lifts only when the outermost guard drops.
/// Because the head decision is pure in `(seed, rate, trace_id)`, muting
/// by it keeps the sampled stream a deterministic subsequence of the
/// full stream.
#[must_use]
pub fn mute_request_scoped() -> RequestMuteGuard {
    let was = MUTE_REQUEST_SCOPED.with(|m| m.replace(true));
    RequestMuteGuard { was }
}

/// RAII guard returned by [`mute_request_scoped`]; restores the previous
/// mute state on drop.
#[derive(Debug)]
pub struct RequestMuteGuard {
    was: bool,
}

impl Drop for RequestMuteGuard {
    fn drop(&mut self) {
        MUTE_REQUEST_SCOPED.with(|m| m.set(self.was));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, EvictionCause, RequestClass};
    use coopcache_types::{CacheId, DocId};

    fn sample_request(seq: u64, class: RequestClass, latency_us: Option<u64>) -> Event {
        Event::Request {
            seq,
            cache: CacheId::new(0),
            doc: DocId::new(seq),
            class,
            responder: None,
            stored: true,
            latency_us,
        }
    }

    #[test]
    fn ring_buffer_keeps_most_recent() {
        let mut sink = RingBufferSink::new(2);
        for seq in 0..5 {
            sink.emit(&sample_request(seq, RequestClass::Miss, None));
        }
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.total_emitted(), 5);
        let seqs: Vec<u64> = sink
            .events()
            .map(|e| match e {
                Event::Request { seq, .. } => *seq,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(seqs, vec![3, 4]);
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.emit(&sample_request(0, RequestClass::LocalHit, None));
        sink.emit(&sample_request(1, RequestClass::Miss, Some(146_000)));
        assert_eq!(sink.lines(), 2);
        let lines = sink.finish().unwrap();
        assert_eq!(lines, 2);
    }

    #[test]
    fn jsonl_sink_output_is_parseable_lines() {
        let buf = Arc::new(Mutex::new(JsonlSink::new(Vec::new())));
        let handle = SinkHandle::from_arc(Arc::clone(&buf));
        handle.emit(&sample_request(7, RequestClass::RemoteHit, None));
        let guard = buf.lock().unwrap();
        assert_eq!(guard.lines(), 1);
    }

    #[test]
    fn sink_handle_clones_share_the_sink() {
        let ring = Arc::new(Mutex::new(RingBufferSink::new(8)));
        let a = SinkHandle::from_arc(Arc::clone(&ring));
        let b = a.clone();
        a.emit(&sample_request(0, RequestClass::Miss, None));
        b.emit(&sample_request(1, RequestClass::Miss, None));
        assert_eq!(ring.lock().unwrap().total_emitted(), 2);
    }

    #[test]
    fn mute_sheds_request_scoped_kinds_only() {
        let ring = Arc::new(Mutex::new(RingBufferSink::new(8)));
        let handle = SinkHandle::from_arc(Arc::clone(&ring));
        let eviction = Event::Eviction {
            cache: CacheId::new(0),
            doc: DocId::new(2),
            age_ms: 512,
            cause: EvictionCause::Capacity,
        };
        {
            let _mute = crate::mute_request_scoped();
            handle.emit(&sample_request(0, RequestClass::Miss, None));
            handle.emit(&eviction);
        }
        handle.emit(&sample_request(1, RequestClass::Miss, None));
        let kinds: Vec<EventKind> = ring.lock().unwrap().events().map(Event::kind).collect();
        assert_eq!(
            kinds,
            vec![EventKind::Eviction, EventKind::Request],
            "muted scope drops request-scoped kinds, keeps health kinds"
        );
    }

    #[test]
    fn offload_delivers_what_emit_would_in_order() {
        use crate::span::{Span, SpanKind};
        let span = |trace_id: u64| {
            Event::Span(Span {
                trace_id,
                span_id: 1,
                parent: None,
                cache: CacheId::new(0),
                kind: SpanKind::Request,
                doc: None,
                peer: None,
                start_us: 0,
                end_us: 1,
                status: "ok",
            })
        };
        let events: Vec<Event> = (0..2_500)
            .flat_map(|i| [sample_request(i, RequestClass::Miss, None), span(i)])
            .collect();
        let sampler = Some(SamplerConfig::new(7, 100));
        let ring = || Arc::new(Mutex::new(RingBufferSink::new(events.len())));
        let kept = |ring: &Mutex<RingBufferSink>| -> Vec<Event> {
            ring.lock().unwrap().events().copied().collect()
        };

        let inline = ring();
        let handle = SinkHandle::from_arc(Arc::clone(&inline)).sampled(sampler);
        for event in &events {
            handle.emit(event);
        }
        let offloaded = ring();
        std::thread::scope(|scope| {
            let handle = SinkHandle::from_arc(Arc::clone(&offloaded)).sampled(sampler);
            let mut offload = SinkOffload::spawn(scope, handle);
            for event in &events {
                offload.emit(event);
            }
        });
        let kept_inline = kept(&inline);
        assert!(kept_inline.len() > 2 * OFFLOAD_BATCH, "several batches");
        assert!(kept_inline.len() < events.len(), "the sampler drops spans");
        assert_eq!(kept(&offloaded), kept_inline);
        assert_eq!(
            Arc::strong_count(&offloaded),
            1,
            "the worker's handle is gone"
        );
    }

    #[test]
    fn mute_guards_nest_and_restore() {
        let ring = Arc::new(Mutex::new(RingBufferSink::new(8)));
        let handle = SinkHandle::from_arc(Arc::clone(&ring));
        {
            let _outer = crate::mute_request_scoped();
            {
                let _inner = crate::mute_request_scoped();
            }
            // The inner guard's drop must not lift the outer mute.
            handle.emit(&sample_request(0, RequestClass::Miss, None));
        }
        handle.emit(&sample_request(1, RequestClass::Miss, None));
        assert_eq!(ring.lock().unwrap().total_emitted(), 1);
    }
}
