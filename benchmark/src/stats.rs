//! Order statistics for timed blocks and latency samples.

/// Nearest-rank percentile of ascending `sorted` data: the smallest
/// sample with at least `pct` percent of the data at or below it.
/// `None` for an empty slice.
pub fn percentile(sorted: &[f64], pct: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Sorts samples ascending (NaN-free by construction: every sample is a
/// duration or a ratio of positive counts).
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(f64::total_cmp);
}

/// Minimum, median and maximum of a sample set, reported with its size
/// so a reader can judge how much the median is worth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub median: f64,
    pub max: f64,
}

impl Summary {
    /// Summarises `samples`; the median of an even count is the mean of
    /// the two middle samples. `None` for an empty set.
    pub fn of(samples: &[f64]) -> Option<Self> {
        let mut sorted = samples.to_vec();
        sort(&mut sorted);
        let n = sorted.len();
        let mid = n.checked_sub(1)? / 2;
        let median = if n % 2 == 1 {
            sorted[mid]
        } else {
            (sorted[mid] + sorted[mid + 1]) / 2.0
        };
        Some(Self {
            n,
            min: sorted[0],
            median,
            max: sorted[n - 1],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let data: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&data, 50.0), Some(50.0));
        assert_eq!(percentile(&data, 90.0), Some(90.0));
        assert_eq!(percentile(&data, 99.0), Some(99.0));
        assert_eq!(percentile(&data, 100.0), Some(100.0));
        assert_eq!(percentile(&data, 0.0), Some(1.0));
        // Ten samples: p90 is the ninth, p50 the fifth.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 90.0), Some(9.0));
        assert_eq!(percentile(&ten, 50.0), Some(5.0));
        assert_eq!(percentile(&[7.0], 50.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn summary_median_handles_odd_and_even_counts() {
        let odd = Summary::of(&[5.0, 1.0, 3.0]).unwrap();
        assert_eq!((odd.n, odd.min, odd.median, odd.max), (3, 1.0, 3.0, 5.0));
        let even = Summary::of(&[4.0, 1.0, 2.0, 3.0]).unwrap();
        assert_eq!(even.median, 2.5);
        assert_eq!(Summary::of(&[]), None);
    }

    #[test]
    fn the_median_block_rate_ignores_one_slow_block() {
        // Five blocks of 1000 ops; one was preempted for nine seconds.
        let rates: Vec<f64> = [1.0, 1.0, 10.0, 1.0, 1.0]
            .iter()
            .map(|secs| 1_000.0 / secs)
            .collect();
        let summary = Summary::of(&rates).unwrap();
        assert_eq!(summary.n, 5);
        assert_eq!(summary.median, 1_000.0);
        assert_eq!(summary.min, 100.0);
        assert_eq!(summary.max, 1_000.0);
    }
}
