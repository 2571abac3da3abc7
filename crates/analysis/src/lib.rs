#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Workload analytics for cooperative-caching research.
//!
//! Tools for characterizing a trace before simulating it, and an offline
//! oracle for judging how close a scheme gets to optimal:
//!
//! * [`ReuseProfile`] — LRU stack distances (Olken's Fenwick-tree
//!   algorithm) and the exact single-LRU hit-rate curve they induce;
//! * [`PopularityProfile`] — rank/frequency statistics, one-timer share,
//!   and a Zipf-α fit to compare synthetic traces against the α ≈ 0.7–1.1
//!   reported for real proxy logs;
//! * [`SharingProfile`] — same-client vs cross-client re-references, the
//!   decomposition that bounds what cooperation can possibly win
//!   (Wolman et al.);
//! * [`belady_min`] — Belady's MIN over a shared cache of the group's
//!   aggregate size: the offline upper bound the benches report against.
//!
//! # Example
//!
//! ```
//! use coopcache_analysis::{belady_min, PopularityProfile, ReuseProfile, SharingProfile};
//! use coopcache_trace::{generate, TraceProfile};
//! use coopcache_types::ByteSize;
//!
//! let trace = generate(&TraceProfile::small()).unwrap();
//! let docs = trace.iter().map(|r| r.doc);
//! let reuse = ReuseProfile::compute(docs.clone());
//! let pop = PopularityProfile::compute(docs);
//! let sharing = SharingProfile::compute(trace.iter());
//! let sized: Vec<_> = trace.iter().map(|r| (r.doc, r.size)).collect();
//! let bound = belady_min(&sized, ByteSize::from_mb(1));
//!
//! println!("LRU@100 docs: {:.1}%   alpha: {:.2}   cross-client: {:.1}%   MIN@1MB: {:.1}%",
//!          100.0 * reuse.lru_hit_rate(100),
//!          pop.zipf_alpha_fit().unwrap_or(f64::NAN),
//!          100.0 * sharing.cross_client_share(),
//!          100.0 * bound.hit_rate());
//! ```

mod belady;
mod popularity;
mod reuse;
mod sharing;

pub use belady::{belady_min, BeladyReport};
pub use popularity::PopularityProfile;
pub use reuse::ReuseProfile;
pub use sharing::SharingProfile;
