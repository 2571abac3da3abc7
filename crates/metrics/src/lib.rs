#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Evaluation metrics for cooperative caching experiments.
//!
//! Implements exactly the measurement apparatus of the paper's §4:
//!
//! * [`GroupMetrics`] — cumulative hit rate, cumulative byte hit rate and
//!   the local/remote/miss split of Table 2, plus the EA scheme's
//!   skipped-store and skipped-promotion counters;
//! * [`LatencyModel`] — the measured latency constants (146 / 342 /
//!   2784 ms) and the eq. 6 average-latency estimator;
//! * [`Table`] with [`pct`] / [`secs`] — diff-friendly plain-text and CSV
//!   rendering used by every experiment.
//!
//! # Example
//!
//! ```
//! use coopcache_metrics::{GroupMetrics, LatencyModel, Table, pct};
//! use coopcache_proxy::RequestOutcome;
//! use coopcache_types::ByteSize;
//!
//! let mut m = GroupMetrics::default();
//! m.record(RequestOutcome::LocalHit, ByteSize::from_kb(4));
//! let latency = LatencyModel::paper_2002().average_latency_ms(&m);
//!
//! let mut table = Table::new(vec!["metric", "value"]);
//! table.row(vec!["hit rate %".into(), pct(m.hit_rate())]);
//! table.row(vec!["latency ms".into(), format!("{latency:.0}")]);
//! assert!(table.to_string().contains("100.00"));
//! ```

mod counters;
mod latency;
mod report;

pub use counters::GroupMetrics;
pub use latency::LatencyModel;
pub use report::{pct, secs, Table};
