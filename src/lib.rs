#![forbid(unsafe_code)]
//! # coopcache — expiration-age based cooperative web caching
//!
//! A faithful, from-scratch reproduction of *"A New Document Placement
//! Scheme for Cooperative Caching on the Internet"* (Lakshmish Ramaswamy
//! and Ling Liu, ICDCS 2002) as a production-grade Rust workspace.
//!
//! The paper's contribution — the **EA (Expiration-Age) document
//! placement scheme** — decides *where* a document copy should live in a
//! group of cooperating proxy caches by comparing the caches' disk-space
//! contention, measured as the average time an evicted document had
//! survived past its last hit. This facade crate re-exports the whole
//! workspace:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`types`] | `coopcache-types` | ids, simulated time, byte sizes, expiration ages |
//! | [`cache`] | `coopcache-core` | the cache engine, replacement policies, the expiration-age tracker, placement schemes |
//! | [`proxy`] | `coopcache-proxy` | ICP/HTTP messages, distributed / hierarchical / hash-routed groups |
//! | [`trace`] | `coopcache-trace` | synthetic BU-94-like workloads, trace files, partitioners |
//! | [`metrics`] | `coopcache-metrics` | hit/byte-hit counters, the eq. 6 latency estimator |
//! | [`obs`] | `coopcache-obs` | structured protocol events, pluggable sinks, log-bucketed histograms |
//! | [`sim`] | `coopcache-sim` | synchronous trace driver and discrete-event simulator |
//! | [`net`] | `coopcache-net` | live UDP/TCP daemons and the loopback cluster |
//! | [`analysis`] | `coopcache-analysis` | stack distances, Zipf fits, sharing stats, Belady-MIN bound |
//!
//! # Quickstart
//!
//! ```
//! use coopcache::prelude::*;
//!
//! // A deterministic workload and the paper's standard comparison.
//! let trace = generate(&TraceProfile::small()).unwrap();
//! let config = SimConfig::new(ByteSize::from_mb(1)).with_group_size(4);
//!
//! let adhoc = run(&config, &trace);
//! let ea = run(&config.clone().with_scheme(PlacementScheme::Ea), &trace);
//!
//! assert!(ea.metrics.hit_rate() >= adhoc.metrics.hit_rate() - 0.005);
//! println!("ad-hoc {:.1}% vs EA {:.1}%",
//!          100.0 * adhoc.metrics.hit_rate(),
//!          100.0 * ea.metrics.hit_rate());
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench` for the
//! `experiments` binary that regenerates every table and figure of the paper.

pub use coopcache_analysis as analysis;
pub use coopcache_core as cache;
pub use coopcache_metrics as metrics;
pub use coopcache_net as net;
pub use coopcache_obs as obs;
pub use coopcache_proxy as proxy;
pub use coopcache_sim as sim;
pub use coopcache_trace as trace;
pub use coopcache_types as types;

/// The most common imports, for examples and applications.
pub mod prelude {
    pub use coopcache_core::{
        Cache, ExpirationTracker, ExpirationWindow, PlacementScheme, PolicyKind,
    };
    pub use coopcache_metrics::{GroupMetrics, LatencyModel, Table};
    pub use coopcache_obs::{Event, EventSink, JsonlSink, SinkHandle, Tally};
    pub use coopcache_proxy::{DistributedGroup, HierarchicalGroup, ProxyNode, RequestOutcome};
    pub use coopcache_sim::{
        capacity_sweep, run, run_des, run_des_with_sink, run_with_sink, NetworkModel, SimConfig,
        WindowStat, PAPER_CACHE_SIZES, PAPER_GROUP_SIZES,
    };
    pub use coopcache_trace::{generate, Partitioner, Trace, TraceProfile};
    pub use coopcache_types::{
        ByteSize, CacheId, ClientId, DocId, DurationMs, ExpirationAge, Request, Timestamp,
    };
}
