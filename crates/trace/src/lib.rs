#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::panic, clippy::unreachable))]
#![warn(missing_docs)]
//! Synthetic web-proxy workload traces for cooperative-caching experiments.
//!
//! The paper's evaluation replays the Boston University 1994–95 proxy trace,
//! which cannot be redistributed. This crate synthesizes statistically
//! matching workloads instead (see `DESIGN.md` §1 for the substitution
//! argument): Zipf-skewed document popularity, lognormal-body /
//! Pareto-tail document sizes, a session-structured client population, and
//! per-client temporal locality — all driven by a seeded, in-tree PRNG so
//! every trace is bit-for-bit reproducible.
//!
//! # Quick start
//!
//! ```
//! use coopcache_trace::{generate, Partitioner, TraceProfile};
//!
//! // A small deterministic workload.
//! let trace = generate(&TraceProfile::small().with_seed(1)).unwrap();
//! println!("{} requests, {} unique docs",
//!          trace.len(), trace.stats().unique_docs);
//!
//! // Route each request to its proxy in a 4-cache group.
//! let part = Partitioner::default();
//! let first_cache = part.assign(&trace.requests()[0], 0, 4);
//! assert!(first_cache.index() < 4);
//! ```
//!
//! The full-scale profile used by the experiment harness is
//! [`TraceProfile::bu94`]. Traces round-trip through a plain-text file
//! format via [`write_trace`] / [`read_trace`].

mod adapters;
mod dist;
mod format;
mod generate;
mod partition;
mod profile;
mod rng;

pub use adapters::{parse_log, LogFormat, ParseLogError, ParsedLog};
pub use dist::{Distribution, Exponential, InvalidParamError, LogNormal, Pareto, Zipf};
pub use format::{read_trace, write_trace, ReadTraceError, HEADER};
pub use generate::{generate, Trace, TraceStats};
pub use partition::Partitioner;
pub use profile::TraceProfile;
pub use rng::Rng;
