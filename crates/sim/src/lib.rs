#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::panic, clippy::unreachable))]
#![warn(missing_docs)]
//! Trace-driven simulation of cooperative cache groups.
//!
//! Reproduces the paper's experimental apparatus (§4.1) in two flavors:
//!
//! * [`run`] — the fast synchronous driver: replays a trace through a
//!   [`coopcache_proxy::DistributedGroup`], producing hit rates, byte hit
//!   rates, the Table 1 expiration ages and the eq. 6 latency estimate.
//!   This is what regenerates every table and figure.
//! * [`run_des`] — a discrete-event simulation over a latency/bandwidth
//!   [`NetworkModel`], where requests overlap in time and latency is
//!   *measured* instead of estimated (the authors ran their simulator
//!   across real machines; this is the deterministic equivalent).
//!
//! [`capacity_sweep`] and the [`PAPER_CACHE_SIZES`] / [`PAPER_GROUP_SIZES`]
//! constants encode the paper's standard parameter grid.
//!
//! # Example — one line of Figure 1
//!
//! ```
//! use coopcache_sim::{capacity_sweep, SimConfig, PAPER_CACHE_SIZES};
//! use coopcache_trace::{generate, TraceProfile};
//! use coopcache_types::ByteSize;
//!
//! let trace = generate(&TraceProfile::small()).unwrap();
//! let points = capacity_sweep(
//!     &SimConfig::new(ByteSize::ZERO),
//!     &PAPER_CACHE_SIZES[..2], // 100KB and 1MB, for speed
//!     &trace,
//! );
//! for p in &points {
//!     println!("{}: ad-hoc {:.2}% vs EA {:.2}%",
//!              p.aggregate,
//!              100.0 * p.adhoc.metrics.hit_rate(),
//!              100.0 * p.ea.metrics.hit_rate());
//! }
//! ```

mod config;
mod des;
mod experiment;
mod runner;

pub use config::SimConfig;
pub use coopcache_obs::{HealthConfig, HealthReport};
pub use des::{
    run_des, run_des_with_health, run_des_with_rollups, run_des_with_sink, DesReport, NetworkModel,
};
pub use experiment::{capacity_sweep, SweepPoint, PAPER_CACHE_SIZES, PAPER_GROUP_SIZES};
pub use runner::{run, run_with_observer, run_with_sink, SimReport, WindowStat};
