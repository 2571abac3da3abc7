//! Experiment helpers shared by the table/figure reproduction experiments.

use crate::config::SimConfig;
use crate::runner::{run, SimReport};
use coopcache_core::PlacementScheme;
use coopcache_trace::Trace;
use coopcache_types::ByteSize;

/// The aggregate cache sizes the paper sweeps in every experiment:
/// 100 KB, 1 MB, 10 MB, 100 MB and 1 GB (§4.1).
pub const PAPER_CACHE_SIZES: [ByteSize; 5] = [
    ByteSize::from_kb(100),
    ByteSize::from_mb(1),
    ByteSize::from_mb(10),
    ByteSize::from_mb(100),
    ByteSize::from_gb(1),
];

/// The group sizes the paper simulates: 2, 4 and 8 caches (§4.1).
pub const PAPER_GROUP_SIZES: [u16; 3] = [2, 4, 8];

/// One point of a capacity sweep: both schemes run at one aggregate size
/// on the identical trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Aggregate capacity of the group.
    pub aggregate: ByteSize,
    /// Report for the conventional ad-hoc scheme.
    pub adhoc: SimReport,
    /// Report for the EA scheme.
    pub ea: SimReport,
}

impl SweepPoint {
    /// EA hit rate minus ad-hoc hit rate (positive = EA wins).
    #[must_use]
    pub fn hit_rate_gain(&self) -> f64 {
        self.ea.metrics.hit_rate() - self.adhoc.metrics.hit_rate()
    }

    /// EA byte hit rate minus ad-hoc byte hit rate.
    #[must_use]
    pub fn byte_hit_rate_gain(&self) -> f64 {
        self.ea.metrics.byte_hit_rate() - self.adhoc.metrics.byte_hit_rate()
    }

    /// Ad-hoc estimated latency minus EA's (positive = EA is faster).
    #[must_use]
    pub fn latency_gain_ms(&self) -> f64 {
        self.adhoc.estimated_latency_ms - self.ea.estimated_latency_ms
    }
}

/// Runs the paper's standard two-scheme comparison over a set of
/// aggregate capacities, holding everything else in `base` fixed.
///
/// # Example
///
/// ```
/// use coopcache_sim::{capacity_sweep, SimConfig};
/// use coopcache_trace::{generate, TraceProfile};
/// use coopcache_types::ByteSize;
///
/// let trace = generate(&TraceProfile::small()).unwrap();
/// let points = capacity_sweep(
///     &SimConfig::new(ByteSize::ZERO),
///     &[ByteSize::from_kb(100), ByteSize::from_mb(1)],
///     &trace,
/// );
/// assert_eq!(points.len(), 2);
/// ```
#[must_use]
pub fn capacity_sweep(base: &SimConfig, sizes: &[ByteSize], trace: &Trace) -> Vec<SweepPoint> {
    sizes
        .iter()
        .map(|&aggregate| {
            let mut cfg = base.clone();
            cfg.aggregate_capacity = aggregate;
            let adhoc = run(&cfg.clone().with_scheme(PlacementScheme::AdHoc), trace);
            let ea = run(&cfg.with_scheme(PlacementScheme::Ea), trace);
            SweepPoint {
                aggregate,
                adhoc,
                ea,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use coopcache_trace::{generate, TraceProfile};

    #[test]
    fn paper_constants() {
        assert_eq!(PAPER_CACHE_SIZES[0], ByteSize::from_kb(100));
        assert_eq!(PAPER_CACHE_SIZES[4], ByteSize::from_gb(1));
        assert_eq!(PAPER_GROUP_SIZES, [2, 4, 8]);
    }

    #[test]
    fn sweep_covers_requested_sizes_and_preserves_shape() {
        let trace = generate(&TraceProfile::small()).unwrap();
        let sizes = [ByteSize::from_kb(50), ByteSize::from_kb(2_000)];
        let points = capacity_sweep(&SimConfig::new(ByteSize::ZERO), &sizes, &trace);
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].aggregate, sizes[0]);
        assert_eq!(points[1].aggregate, sizes[1]);
        for p in &points {
            // The paper's worst-case guarantee, at every size.
            assert!(p.hit_rate_gain() >= -1e-9, "EA lost at {}", p.aggregate);
        }
        // Hit rate grows with capacity for both schemes.
        assert!(points[1].adhoc.metrics.hit_rate() > points[0].adhoc.metrics.hit_rate());
        assert!(points[1].ea.metrics.hit_rate() > points[0].ea.metrics.hit_rate());
    }

    #[test]
    fn gains_are_consistent_with_reports() {
        let trace = generate(&TraceProfile::small()).unwrap();
        let points = capacity_sweep(
            &SimConfig::new(ByteSize::ZERO),
            &[ByteSize::from_kb(100)],
            &trace,
        );
        let p = &points[0];
        let expect = p.ea.metrics.hit_rate() - p.adhoc.metrics.hit_rate();
        assert!((p.hit_rate_gain() - expect).abs() < 1e-15);
        let expect_latency = p.adhoc.estimated_latency_ms - p.ea.estimated_latency_ms;
        assert!((p.latency_gain_ms() - expect_latency).abs() < 1e-12);
    }
}
