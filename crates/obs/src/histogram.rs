//! A log-bucketed histogram for latencies and expiration ages.
//!
//! Values are `u64` quantities (microseconds, milliseconds — the caller
//! picks the unit) spread over power-of-two buckets: recording is O(1)
//! with a fixed 65-slot table, quantiles are read by walking the buckets
//! with linear interpolation inside the landing bucket. Exact `min`/`max`
//! are tracked separately and quantiles clamp to them, so degenerate
//! shapes (single sample, every sample equal) report exact values.

/// Number of buckets: one for zero plus one per bit of a `u64`.
pub const BUCKETS: usize = 65;

/// A log₂-bucketed histogram of `u64` samples.
///
/// # Example
///
/// ```
/// use coopcache_obs::Histogram;
///
/// let mut h = Histogram::new();
/// for v in [100, 200, 400, 800] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.min(), Some(100));
/// assert_eq!(h.max(), Some(800));
/// assert!(h.quantile(0.5).unwrap() >= 100);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket a value lands in: bucket 0 holds exactly zero; bucket
    /// `i >= 1` holds values with bit length `i`, i.e. `[2^(i-1), 2^i)`.
    #[must_use]
    pub const fn bucket_index(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// The `[lower, upper)` value range of a bucket (the top bucket's
    /// upper bound saturates at `u64::MAX`).
    ///
    /// # Panics
    ///
    /// Panics if `index >= BUCKETS`.
    #[must_use]
    pub const fn bucket_bounds(index: usize) -> (u64, u64) {
        assert!(index < BUCKETS, "bucket index out of range");
        match index {
            0 => (0, 1),
            64 => (1 << 63, u64::MAX),
            i => (1 << (i - 1), 1 << i),
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum += u128::from(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    #[must_use]
    pub const fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing has been recorded.
    #[must_use]
    pub const fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded sample.
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample.
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Arithmetic mean of the recorded samples.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// The `q`-quantile (`q` clamped to `[0, 1]`), interpolated linearly
    /// inside the landing bucket and clamped to the exact `[min, max]`.
    /// `None` when the histogram is empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // 0-based rank of the sample the quantile names.
        let rank = (q * (self.count - 1) as f64).round() as u64;
        let mut before = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if rank < before + c {
                let (lo, hi) = Self::bucket_bounds(i);
                let pos = (rank - before) as f64 / (c.max(2) - 1) as f64;
                let span = (hi - 1 - lo) as f64;
                let value = lo + (span * pos).round() as u64;
                return Some(value.clamp(self.min, self.max));
            }
            before += c;
        }
        // Unreachable: ranks always land inside the recorded counts.
        Some(self.max)
    }

    /// A compact percentile snapshot for reports.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            mean: self.mean().unwrap_or(0.0),
            min: self.min().unwrap_or(0),
            p50: self.quantile(0.50).unwrap_or(0),
            p90: self.quantile(0.90).unwrap_or(0),
            p99: self.quantile(0.99).unwrap_or(0),
            max: self.max().unwrap_or(0),
        }
    }
}

/// Summary percentiles of a [`Histogram`], all zero when empty.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Exact minimum.
    pub min: u64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Exact maximum.
    pub max: u64,
}

impl HistogramSnapshot {
    /// Writes the snapshot as one JSON object with microsecond-suffixed
    /// keys (`count`, `mean_us`, `min_us`, `p50_us`, `p90_us`, `p99_us`,
    /// `max_us`) — the single latency shape shared by the `OP_STATS`
    /// latency section and every `OP_SERIES` point, so scrapers parse
    /// one format everywhere.
    pub fn write_json_us(&self, w: &mut crate::json::JsonWriter) {
        w.begin_object();
        w.key("count");
        w.u64(self.count);
        w.key("mean_us");
        w.f64(self.mean);
        w.key("min_us");
        w.u64(self.min);
        w.key("p50_us");
        w.u64(self.p50);
        w.key("p90_us");
        w.u64(self.p90);
        w.key("p99_us");
        w.u64(self.p99);
        w.key("max_us");
        w.u64(self.max);
        w.end_object();
    }

    /// Decodes a snapshot written by [`Self::write_json_us`]; `None` on
    /// missing or mistyped fields.
    #[must_use]
    pub fn from_json_us(value: &crate::json::JsonValue) -> Option<Self> {
        Some(Self {
            count: value.get("count")?.as_u64()?,
            mean: value.get("mean_us")?.as_f64()?,
            min: value.get("min_us")?.as_u64()?,
            p50: value.get("p50_us")?.as_u64()?,
            p90: value.get("p90_us")?.as_u64()?,
            p99: value.get("p99_us")?.as_u64()?,
            max: value.get("max_us")?.as_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse_json, JsonWriter};

    #[test]
    fn snapshot_json_roundtrip() {
        let mut h = Histogram::new();
        for v in [120, 240, 480] {
            h.record(v);
        }
        let snap = h.snapshot();
        let mut w = JsonWriter::new();
        snap.write_json_us(&mut w);
        let json = w.finish();
        assert!(json.starts_with(r#"{"count":3,"mean_us":"#), "got {json}");
        let value = parse_json(&json).expect("well-formed");
        let back = HistogramSnapshot::from_json_us(&value).expect("decodes");
        assert_eq!(back, snap);
        // Missing fields decode to None, never panic.
        let partial = parse_json(r#"{"count":3}"#).unwrap();
        assert!(HistogramSnapshot::from_json_us(&partial).is_none());
    }

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(7), 3);
        assert_eq!(Histogram::bucket_index(8), 4);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        assert_eq!(Histogram::bucket_bounds(0), (0, 1));
        assert_eq!(Histogram::bucket_bounds(1), (1, 2));
        assert_eq!(Histogram::bucket_bounds(4), (8, 16));
        assert_eq!(Histogram::bucket_bounds(64), (1 << 63, u64::MAX));
        // Every value lands inside its bucket's bounds.
        for v in [0u64, 1, 2, 3, 5, 100, 1 << 40, u64::MAX] {
            let (lo, hi) = Histogram::bucket_bounds(Histogram::bucket_index(v));
            assert!(v >= lo && (v < hi || v == u64::MAX), "{v} in [{lo},{hi})");
        }
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.p99, 0);
    }

    #[test]
    fn single_sample_quantiles_are_exact() {
        let mut h = Histogram::new();
        h.record(146);
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(146), "q={q}");
        }
        assert_eq!(h.mean(), Some(146.0));
    }

    #[test]
    fn all_in_one_bucket_clamps_to_exact_range() {
        // 5, 6, 7 all land in bucket [4, 8).
        let mut h = Histogram::new();
        for v in [5u64, 6, 7] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), Some(5), "p0 clamps to min");
        assert_eq!(h.quantile(1.0), Some(7), "p100 clamps to max");
        let p50 = h.quantile(0.5).unwrap();
        assert!((5..=7).contains(&p50), "p50 {p50}");
    }

    #[test]
    fn identical_samples_are_exact_at_every_quantile() {
        let mut h = Histogram::new();
        for _ in 0..1000 {
            h.record(342);
        }
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(342));
        }
    }

    #[test]
    fn quantiles_are_monotone_and_ordered() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5).unwrap();
        let p90 = h.quantile(0.9).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        assert!(p50 <= p90 && p90 <= p99);
        // Log buckets are coarse; within a factor of 2 of the truth.
        assert!((2_500..=10_000).contains(&p50), "p50 {p50}");
        assert!((4_500..=10_000).contains(&p90), "p90 {p90}");
    }

    #[test]
    fn zero_values_are_recorded() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(0);
        assert_eq!(h.quantile(0.5), Some(0));
        assert_eq!(h.max(), Some(0));
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = Histogram::new();
        a.record(10);
        let mut b = Histogram::new();
        b.record(1_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), Some(10));
        assert_eq!(a.max(), Some(1_000));
    }

    #[test]
    fn snapshot_reports_percentiles() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 4, 8, 16, 32] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 32);
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99);
        assert!(s.mean > 0.0);
    }
}
