//! Statistical distributions used by the workload generator.
//!
//! Web-proxy request streams of the mid-1990s are well described by three
//! distributions, all implemented here from first principles:
//!
//! * [`Zipf`] — document popularity (`P(rank k) ∝ 1/k^α`, α ≈ 0.7–0.8 for
//!   proxy traces of the BU-94 era);
//! * [`LogNormal`] — the body of the document-size distribution;
//! * [`Pareto`] — the heavy tail of the document-size distribution;
//! * [`Exponential`] — inter-arrival times within a browsing session.

use crate::Rng;

/// A distribution that can produce a sample from a [`Rng`].
pub trait Distribution {
    /// The sample type.
    type Output;
    /// Draws one sample.
    fn sample(&self, rng: &mut Rng) -> Self::Output;
}

/// Zipf(α) over ranks `1..=n`, sampled by searching a precomputed CDF
/// table in O(1) expected time.
///
/// The table costs O(n) memory, which is perfectly fine for the ≤ 10⁶
/// document universes used here and gives *exact* Zipf probabilities
/// (rejection-free, no approximation). A guide table over `B = n/4`
/// equal slices of `[0, 1)` narrows each search to the few CDF entries
/// around the draw's slice (the guide-table method of inverse-transform
/// sampling), and returns exactly the rank a binary search over the whole
/// table would.
///
/// # Example
///
/// ```
/// use coopcache_trace::{Distribution, Rng, Zipf};
/// let zipf = Zipf::new(1000, 0.75).unwrap();
/// let mut rng = Rng::seed_from(1);
/// let rank = zipf.sample(&mut rng);
/// assert!((1..=1000).contains(&rank));
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    /// `guide[j]` is the first 0-based rank whose CDF is `≥ j/B`, for
    /// `j` in `0..=B` (`cdf.len()` if none is).
    guide: Vec<u32>,
    alpha: f64,
}

/// Error returned when constructing a distribution from invalid parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidParamError {
    what: &'static str,
}

impl std::fmt::Display for InvalidParamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid distribution parameter: {}", self.what)
    }
}

impl std::error::Error for InvalidParamError {}

impl InvalidParamError {
    /// Creates an error with a static description of the violated domain.
    pub(crate) fn new(what: &'static str) -> Self {
        Self { what }
    }
}

impl Zipf {
    /// Builds a Zipf distribution over `1..=n` with exponent `alpha ≥ 0`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidParamError`] if `n` is zero or above `u32::MAX`,
    /// or `alpha` is negative or non-finite.
    pub fn new(n: u64, alpha: f64) -> Result<Self, InvalidParamError> {
        if n == 0 {
            return Err(InvalidParamError {
                what: "zipf population must be positive",
            });
        }
        if n > u64::from(u32::MAX) {
            return Err(InvalidParamError {
                what: "zipf population must fit in 32 bits",
            });
        }
        if !alpha.is_finite() || alpha < 0.0 {
            return Err(InvalidParamError {
                what: "zipf alpha must be finite and non-negative",
            });
        }
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += (k as f64).powf(-alpha);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        // One merged sweep: the slice edges and the CDF both ascend.
        let buckets = (cdf.len() / 4).max(1);
        let mut guide = Vec::with_capacity(buckets + 1);
        let mut rank = 0;
        for j in 0..=buckets {
            let edge = j as f64 / buckets as f64;
            while rank < cdf.len() && cdf[rank] < edge {
                rank += 1;
            }
            guide.push(rank as u32);
        }
        Ok(Self { cdf, guide, alpha })
    }

    /// The population size `n`.
    #[must_use]
    pub fn population(&self) -> u64 {
        self.cdf.len() as u64
    }

    /// The skew exponent α.
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The probability of rank `k` (1-based).
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or exceeds the population.
    #[must_use]
    pub fn probability(&self, k: u64) -> f64 {
        assert!(k >= 1 && k <= self.population(), "rank out of range");
        let i = (k - 1) as usize;
        if i == 0 {
            self.cdf[0]
        } else {
            self.cdf[i] - self.cdf[i - 1]
        }
    }

    /// The rank drawn by the uniform `u` in `[0, 1)`: one more than the
    /// number of CDF entries below `u`, clamped to `n`.
    ///
    /// `b = ⌊u·B⌋` is computed in floating point, so `u` may lie just
    /// outside `[b/B, (b+1)/B)`, but within one rounding of it: the slice
    /// edges `(b−1)/B` and `(b+2)/B` bracket `u` for every `u`, so the
    /// answer lies in `guide[b−1] ..= guide[b+2]`, and every entry
    /// before that range is below `u`.
    #[inline]
    fn rank(&self, u: f64) -> u64 {
        let buckets = self.guide.len() - 1;
        let b = ((u * buckets as f64) as usize).min(buckets);
        let lo = self.guide[b.saturating_sub(1)] as usize;
        let hi = (self.guide[(b + 2).min(buckets)] as usize + 1).min(self.cdf.len());
        // partition_point returns the count of entries < u, i.e. the index
        // of the first cdf entry >= u, i.e. the 0-based rank.
        let idx = lo + self.cdf[lo..hi].partition_point(|&c| c < u);
        (idx.min(self.cdf.len() - 1) + 1) as u64
    }
}

impl Distribution for Zipf {
    type Output = u64;

    /// Samples a rank in `1..=n` (rank 1 is the most popular).
    fn sample(&self, rng: &mut Rng) -> u64 {
        self.rank(rng.next_f64())
    }
}

/// Log-normal distribution: `exp(N(mu, sigma))`.
///
/// Used for the body of web document sizes; classic fits for 1990s proxy
/// traces give a median of a few KB.
#[derive(Debug, Clone, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal with the given log-space mean and deviation.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidParamError`] if `sigma` is negative or either
    /// parameter is non-finite.
    pub fn new(mu: f64, sigma: f64) -> Result<Self, InvalidParamError> {
        if !mu.is_finite() || !sigma.is_finite() || sigma < 0.0 {
            return Err(InvalidParamError {
                what: "lognormal requires finite mu and sigma >= 0",
            });
        }
        Ok(Self { mu, sigma })
    }

    /// The median of the distribution, `exp(mu)`.
    #[must_use]
    pub fn median(&self) -> f64 {
        self.mu.exp()
    }

    /// Draws a standard normal via Box–Muller.
    fn standard_normal(rng: &mut Rng) -> f64 {
        let u1 = rng.next_f64_open();
        let u2 = rng.next_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

impl Distribution for LogNormal {
    type Output = f64;

    fn sample(&self, rng: &mut Rng) -> f64 {
        (self.mu + self.sigma * Self::standard_normal(rng)).exp()
    }
}

/// Pareto distribution with scale `x_min` and shape `alpha`.
///
/// Used for the heavy tail of web document sizes (shape ≈ 1.1–1.5 in the
/// era's measurements, giving the occasional multi-megabyte download).
#[derive(Debug, Clone, PartialEq)]
pub struct Pareto {
    x_min: f64,
    alpha: f64,
}

impl Pareto {
    /// Creates a Pareto distribution.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidParamError`] unless `x_min > 0` and `alpha > 0`.
    pub fn new(x_min: f64, alpha: f64) -> Result<Self, InvalidParamError> {
        // NaN parameters fail the `is_finite` checks.
        if x_min <= 0.0 || alpha <= 0.0 || !x_min.is_finite() || !alpha.is_finite() {
            return Err(InvalidParamError {
                what: "pareto requires x_min > 0 and alpha > 0",
            });
        }
        Ok(Self { x_min, alpha })
    }

    /// The scale parameter (minimum value).
    #[must_use]
    pub fn x_min(&self) -> f64 {
        self.x_min
    }
}

impl Distribution for Pareto {
    type Output = f64;

    fn sample(&self, rng: &mut Rng) -> f64 {
        // Inverse-CDF: x = x_min / U^(1/alpha), U in (0, 1].
        self.x_min / rng.next_f64_open().powf(1.0 / self.alpha)
    }
}

/// Exponential distribution with the given mean.
///
/// Used for inter-arrival times inside a browsing session (Poisson process).
#[derive(Debug, Clone, PartialEq)]
pub struct Exponential {
    mean: f64,
}

impl Exponential {
    /// Creates an exponential distribution with the given mean.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidParamError`] unless `mean > 0` and finite.
    pub fn new(mean: f64) -> Result<Self, InvalidParamError> {
        // A NaN mean fails the `is_finite` check.
        if mean <= 0.0 || !mean.is_finite() {
            return Err(InvalidParamError {
                what: "exponential mean must be positive and finite",
            });
        }
        Ok(Self { mean })
    }

    /// The mean of the distribution.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }
}

impl Distribution for Exponential {
    type Output = f64;

    fn sample(&self, rng: &mut Rng) -> f64 {
        -self.mean * rng.next_f64_open().ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_rejects_bad_params() {
        assert!(Zipf::new(0, 0.7).is_err());
        assert!(Zipf::new(10, -0.1).is_err());
        assert!(Zipf::new(10, f64::NAN).is_err());
        assert!(Zipf::new(10, 0.0).is_ok());
    }

    #[test]
    fn zipf_probabilities_sum_to_one() {
        let z = Zipf::new(100, 0.75).unwrap();
        let total: f64 = (1..=100).map(|k| z.probability(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_rank_one_is_most_popular() {
        let z = Zipf::new(1000, 0.8).unwrap();
        let mut rng = Rng::seed_from(21);
        let n = 200_000;
        let mut count_rank1 = 0u32;
        let mut count_rank500 = 0u32;
        for _ in 0..n {
            match z.sample(&mut rng) {
                1 => count_rank1 += 1,
                500 => count_rank500 += 1,
                _ => {}
            }
        }
        assert!(count_rank1 > 20 * count_rank500.max(1));
        // Empirical frequency of rank 1 tracks the analytic probability.
        let expected = z.probability(1) * n as f64;
        let got = f64::from(count_rank1);
        assert!(
            (got - expected).abs() / expected < 0.05,
            "rank-1 freq {got} vs expected {expected}"
        );
    }

    /// The rank a binary search over the whole CDF returns for `u`.
    fn full_search_rank(z: &Zipf, u: f64) -> u64 {
        let idx = z.cdf.partition_point(|&c| c < u);
        (idx.min(z.cdf.len() - 1) + 1) as u64
    }

    #[test]
    fn zipf_guided_search_equals_the_full_search() {
        for (n, alpha) in [
            (1, 0.8),
            (2, 0.0),
            (3, 1.0),
            (7, 0.75),
            (100, 0.8),
            (1000, 1.05),
            (4099, 2.5),
            (100_000, 0.7),
        ] {
            let z = Zipf::new(n, alpha).unwrap();
            let buckets = z.guide.len() - 1;
            // Every slice edge, one ulp either side of it, and every CDF
            // value and its neighbours: where a guided search would slip.
            let edges = (0..=buckets).map(|j| j as f64 / buckets as f64);
            for x in edges.chain(z.cdf.iter().copied()) {
                for u in [x.next_down(), x, x.next_up()] {
                    if (0.0..1.0).contains(&u) {
                        assert_eq!(
                            z.rank(u),
                            full_search_rank(&z, u),
                            "n={n} alpha={alpha} u={u}"
                        );
                    }
                }
            }
            let mut rng = Rng::seed_from(n ^ 0x5eed);
            for _ in 0..100_000 {
                let u = rng.next_f64();
                assert_eq!(z.rank(u), full_search_rank(&z, u), "n={n} u={u}");
            }
        }
    }

    #[test]
    fn zipf_alpha_zero_is_uniform() {
        let z = Zipf::new(4, 0.0).unwrap();
        for k in 1..=4 {
            assert!((z.probability(k) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn zipf_samples_cover_full_range() {
        let z = Zipf::new(5, 0.1).unwrap();
        let mut rng = Rng::seed_from(22);
        let mut seen = [false; 5];
        for _ in 0..10_000 {
            seen[(z.sample(&mut rng) - 1) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn lognormal_median_matches() {
        let ln = LogNormal::new(8.0, 1.0).unwrap();
        let mut rng = Rng::seed_from(23);
        let mut samples: Vec<f64> = (0..50_001).map(|_| ln.sample(&mut rng)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[25_000];
        let expected = ln.median();
        assert!(
            (median - expected).abs() / expected < 0.05,
            "median {median} vs {expected}"
        );
    }

    #[test]
    fn lognormal_rejects_bad_params() {
        assert!(LogNormal::new(f64::INFINITY, 1.0).is_err());
        assert!(LogNormal::new(0.0, -1.0).is_err());
    }

    #[test]
    fn pareto_respects_minimum() {
        let p = Pareto::new(1000.0, 1.2).unwrap();
        let mut rng = Rng::seed_from(24);
        for _ in 0..10_000 {
            assert!(p.sample(&mut rng) >= p.x_min());
        }
    }

    #[test]
    fn pareto_is_heavy_tailed() {
        let p = Pareto::new(1.0, 1.1).unwrap();
        let mut rng = Rng::seed_from(25);
        let big = (0..100_000)
            .map(|_| p.sample(&mut rng))
            .filter(|&x| x > 100.0)
            .count();
        // P(X > 100) = 100^-1.1 ≈ 0.0063 => ~630 of 100k.
        assert!((300..1200).contains(&big), "tail count {big}");
    }

    #[test]
    fn pareto_rejects_bad_params() {
        assert!(Pareto::new(0.0, 1.0).is_err());
        assert!(Pareto::new(1.0, 0.0).is_err());
        assert!(Pareto::new(-1.0, 1.0).is_err());
    }

    #[test]
    fn exponential_mean_converges() {
        let e = Exponential::new(250.0).unwrap();
        let mut rng = Rng::seed_from(26);
        let n = 100_000;
        let mean = (0..n).map(|_| e.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 250.0).abs() < 5.0, "mean {mean}");
    }

    #[test]
    fn exponential_rejects_bad_params() {
        assert!(Exponential::new(0.0).is_err());
        assert!(Exponential::new(-5.0).is_err());
        assert!(Exponential::new(f64::NAN).is_err());
    }

    #[test]
    fn invalid_param_error_displays() {
        let err = Zipf::new(0, 0.7).unwrap_err();
        assert!(err.to_string().contains("zipf"));
    }
}
