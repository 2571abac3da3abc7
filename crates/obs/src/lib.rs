#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::panic, clippy::unreachable))]
#![warn(missing_docs)]
//! Observability for the `coopcache` workspace.
//!
//! All three execution modes — the synchronous [`DistributedGroup`],
//! the discrete-event simulator and the socket daemon — run the same
//! placement logic; this crate gives them one shared trace language:
//!
//! * [`Event`] — the protocol-level taxonomy (request outcomes, ICP
//!   traffic, EA placement decisions with both expiration ages, evictions
//!   with document expiration ages, reporting-window rollovers);
//! * [`EventSink`] — the consumer trait (an absent sink costs one
//!   `Option` branch per event), with [`RingBufferSink`] (last-n for tests), [`JsonlSink`] (deterministic
//!   JSON lines; same trace → byte-identical file) and [`Tally`]
//!   (per-kind counts plus log-bucketed latency/age histograms — the one
//!   fold of the stream, which the series and rollups below reuse);
//! * [`SinkHandle`] — the cloneable handle threaded through the drivers,
//!   and [`SinkOffload`] — the same handle fed in batches from a worker
//!   thread, which is how the DES delivers its caller's sink;
//! * [`Histogram`] — a log₂-bucketed histogram with p50/p90/p99
//!   [snapshots](Histogram::snapshot);
//! * [`JsonWriter`] — the hand-rolled compact JSON writer behind the
//!   JSONL stream and the experiment driver's `results/` tables (the workspace
//!   builds against an offline registry; there is no serde) — and its
//!   inverse, [`parse_json`], used wherever those documents are read
//!   back;
//! * [`Span`] / [`TraceCtx`] — the causal-tracing layer: every protocol
//!   step of a request opens a span, the requester forwards its trace
//!   context on the wire, and a [`TraceAssembler`] folds the resulting
//!   [`Event::Span`] stream back into per-request trace trees;
//! * [`StatsRegistry`] — relaxed atomic counters per [`EventKind`],
//!   always on in the daemons, behind the `OP_STATS` live snapshot;
//! * [`SamplerConfig`] — deterministic per-trace head sampling: the sampled
//!   stream is a reproducible, byte-identical subsequence of the full
//!   stream, cheap enough to leave on at daemon throughput;
//! * [`Rollup`] — cardinality-bounded online aggregation (per-node
//!   counters and hit split, per-window dedup sketch) that replaces raw
//!   JSONL for large sweeps;
//! * [`AlertEngine`] — declarative SLO rules ([`AlertRule`]) evaluated
//!   over series points, firing [`Event::Alert`] on threshold/burn-rate
//!   transitions under wall *or* virtual clocks;
//! * [`HealthFold`] — the per-node health fold (series rings, SLO
//!   engines, an optional rollup, one fold per node) behind both the DES
//!   health tap and the offline [`SeriesReplayer`].
//!
//! [`DistributedGroup`]: https://docs.rs/coopcache-proxy
//!
//! # Example
//!
//! ```
//! use coopcache_obs::{Event, RequestClass, SinkHandle, Tally};
//! use coopcache_types::{CacheId, DocId};
//! use std::sync::{Arc, Mutex};
//!
//! let tally = Arc::new(Mutex::new(Tally::new()));
//! let sink = SinkHandle::from_arc(Arc::clone(&tally));
//! sink.emit(&Event::Request {
//!     seq: 0,
//!     cache: CacheId::new(0),
//!     doc: DocId::new(42),
//!     class: RequestClass::LocalHit,
//!     responder: None,
//!     stored: true,
//!     latency_us: Some(146_000),
//! });
//! assert_eq!(tally.lock().unwrap().request_split(), (1, 0, 0));
//! ```

mod alert;
mod assemble;
mod event;
mod health;
mod histogram;
mod json;
mod rollup;
mod sample;
mod series;
mod sink;
mod span;
mod stats;
mod tally;

pub use alert::{AlertEngine, AlertMetric, AlertRule, AlertState};
pub use assemble::{SpanRecord, TraceAssembler};
pub use event::{
    age_to_ms, Event, EventKind, EvictionCause, FaultOp, PlacementRole, RequestClass, ServerLoop,
    EVENT_KINDS,
};
pub use health::{HealthConfig, HealthFold, HealthReport};
pub use histogram::{Histogram, HistogramSnapshot, BUCKETS};
pub use json::{escape_into, parse_json, JsonParseError, JsonValue, JsonWriter};
pub use rollup::{Rollup, RollupConfig, WindowSummary};
pub use sample::{splitmix64, SamplerConfig};
pub use series::{
    aggregate_points, render_top, SeriesGauges, SeriesPoint, SeriesReplayer, SeriesRing,
    DEFAULT_SERIES_CAPACITY,
};
pub use sink::{
    mute_request_scoped, request_scoped_muted, EventSink, JsonlSink, RequestMuteGuard,
    RingBufferSink, SinkHandle, SinkOffload,
};
pub use span::{scoped_cache, scoped_id, scoped_seq, Span, SpanKind, TraceCtx};
pub use stats::StatsRegistry;
pub use tally::Tally;
