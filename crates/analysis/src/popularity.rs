//! Popularity analysis: rank/frequency statistics and Zipf fitting.

use coopcache_types::DocId;
use std::collections::BTreeMap;

/// Rank/frequency statistics of a document-reference stream.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PopularityProfile {
    /// Reference counts in descending order (`counts[0]` = hottest doc).
    counts: Vec<u64>,
    /// Total references.
    pub total_references: u64,
}

impl PopularityProfile {
    /// Computes the profile of a reference stream.
    #[must_use]
    pub fn compute(stream: impl IntoIterator<Item = DocId>) -> Self {
        let mut freq: BTreeMap<DocId, u64> = BTreeMap::new();
        let mut total = 0u64;
        for doc in stream {
            *freq.entry(doc).or_default() += 1;
            total += 1;
        }
        let mut counts: Vec<u64> = freq.into_values().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        Self {
            counts,
            total_references: total,
        }
    }

    /// Number of distinct documents.
    #[must_use]
    pub fn unique_docs(&self) -> usize {
        self.counts.len()
    }

    /// Reference counts in descending rank order.
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Share of all references going to the `k` hottest documents.
    #[must_use]
    pub fn top_share(&self, k: usize) -> f64 {
        if self.total_references == 0 {
            return 0.0;
        }
        let top: u64 = self.counts.iter().take(k).sum();
        top as f64 / self.total_references as f64
    }

    /// Fraction of documents referenced exactly once ("one-timers" — the
    /// classic uncacheable tail of web workloads).
    #[must_use]
    pub fn one_timer_fraction(&self) -> f64 {
        if self.counts.is_empty() {
            return 0.0;
        }
        let ones = self.counts.iter().filter(|&&c| c == 1).count();
        ones as f64 / self.counts.len() as f64
    }

    /// Least-squares estimate of the Zipf exponent α from the
    /// log(rank)–log(frequency) regression over documents referenced more
    /// than once, or `None` when fewer than two points exist.
    ///
    /// This is the standard back-of-envelope fit used in the web-caching
    /// literature (not an MLE); its purpose is comparing synthetic traces
    /// against the α ≈ 0.7–1.1 range reported for real proxy logs.
    #[must_use]
    pub fn zipf_alpha_fit(&self) -> Option<f64> {
        let points: Vec<(f64, f64)> = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 1)
            .map(|(i, &c)| (((i + 1) as f64).ln(), (c as f64).ln()))
            .collect();
        if points.len() < 2 {
            return None;
        }
        let n = points.len() as f64;
        let sx: f64 = points.iter().map(|p| p.0).sum();
        let sy: f64 = points.iter().map(|p| p.1).sum();
        let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
        let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
        let denom = n * sxx - sx * sx;
        if denom.abs() < 1e-12 {
            return None;
        }
        let slope = (n * sxy - sx * sy) / denom;
        Some(-slope)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn docs(ids: &[u64]) -> Vec<DocId> {
        ids.iter().copied().map(DocId::new).collect()
    }

    #[test]
    fn counts_and_shares() {
        let p = PopularityProfile::compute(docs(&[1, 1, 1, 2, 2, 3]));
        assert_eq!(p.unique_docs(), 3);
        assert_eq!(p.counts(), &[3, 2, 1]);
        assert!((p.top_share(1) - 0.5).abs() < 1e-12);
        assert!((p.top_share(2) - 5.0 / 6.0).abs() < 1e-12);
        assert_eq!(p.top_share(100), 1.0);
        assert!((p.one_timer_fraction() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn zipf_fit_recovers_the_exponent() {
        use coopcache_trace::{Distribution, Rng, Zipf};
        for alpha in [0.7, 1.0] {
            let z = Zipf::new(2_000, alpha).unwrap();
            let mut rng = Rng::seed_from(42);
            let stream: Vec<DocId> = (0..300_000)
                .map(|_| DocId::new(z.sample(&mut rng)))
                .collect();
            let p = PopularityProfile::compute(stream);
            let fit = p.zipf_alpha_fit().expect("enough points");
            assert!((fit - alpha).abs() < 0.15, "alpha {alpha}: fitted {fit}");
        }
    }

    #[test]
    fn degenerate_inputs() {
        let empty = PopularityProfile::compute(Vec::<DocId>::new());
        assert_eq!(empty.unique_docs(), 0);
        assert_eq!(empty.top_share(3), 0.0);
        assert_eq!(empty.one_timer_fraction(), 0.0);
        assert_eq!(empty.zipf_alpha_fit(), None);
        // All one-timers: no regression points.
        let ones = PopularityProfile::compute(docs(&[1, 2, 3]));
        assert_eq!(ones.zipf_alpha_fit(), None);
        assert_eq!(ones.one_timer_fraction(), 1.0);
    }
}
