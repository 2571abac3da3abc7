//! Workload profiles: the statistical knobs of a synthetic trace.

use crate::dist::InvalidParamError;
use coopcache_types::{ByteSize, DurationMs};

/// The statistical profile of a synthetic proxy workload.
///
/// [`TraceProfile::bu94`] reproduces the aggregate statistics of the Boston
/// University proxy trace used in the paper (575,775 requests, 46,830
/// unique documents, 591 users over 4,700 sessions, ~105-day span,
/// zero-size records patched to 4 KB); [`TraceProfile::small`] is a scaled
/// profile for tests and examples.
///
/// Build a trace with [`crate::generate`]:
///
/// ```
/// use coopcache_trace::TraceProfile;
/// let trace = coopcache_trace::generate(&TraceProfile::small().with_seed(7)).unwrap();
/// assert_eq!(trace.len(), TraceProfile::small().requests);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TraceProfile {
    /// Total number of request records to produce.
    pub requests: usize,
    /// Size of the document universe (Zipf population).
    pub unique_docs: u64,
    /// Number of distinct clients.
    pub clients: u32,
    /// Number of browsing sessions spread over the horizon.
    pub sessions: u32,
    /// Length of the trace in simulated time.
    pub horizon: DurationMs,
    /// Zipf skew of document popularity (≈0.7–0.8 for 1990s proxy traces).
    pub zipf_alpha: f64,
    /// Log-space mean of the lognormal size body.
    pub size_mu: f64,
    /// Log-space deviation of the lognormal size body.
    pub size_sigma: f64,
    /// Fraction of documents whose size is drawn from the Pareto tail.
    pub tail_fraction: f64,
    /// Pareto tail scale (minimum tail size, bytes).
    pub tail_x_min: f64,
    /// Pareto tail shape.
    pub tail_alpha: f64,
    /// Fraction of documents recorded with size zero in the original log.
    pub zero_size_fraction: f64,
    /// Replacement size applied to zero-size records (the paper uses the
    /// 4 KB average document size).
    pub zero_size_patch: ByteSize,
    /// Zipf skew of *client activity*: how unevenly the session workload
    /// spreads over clients. Real proxy populations are heavily skewed (a
    /// few users dominate the request stream), which in turn skews the
    /// disk contention of the caches they are pinned to — the asymmetry
    /// the EA scheme exploits. `0.0` = uniform users.
    pub client_activity_skew: f64,
    /// Probability that a request re-references a document from the
    /// client's recent history instead of drawing fresh popularity.
    pub locality_probability: f64,
    /// Per-client history window used by the temporal-locality model.
    pub locality_window: usize,
    /// Probability that a request goes to one of the *currently flashing*
    /// documents — a small set, rotating every [`flash_epoch`], that all
    /// clients share (news-page behaviour). This cross-client temporal
    /// correlation is what makes ad-hoc replication wasteful at small
    /// caches: everyone requests the same documents in the same window.
    ///
    /// [`flash_epoch`]: TraceProfile::flash_epoch
    pub flash_probability: f64,
    /// How many documents flash simultaneously in an epoch.
    pub flash_docs: usize,
    /// How long a flash set stays hot before rotating.
    pub flash_epoch: DurationMs,
    /// Mean think time between requests inside a session.
    pub think_time_mean: DurationMs,
    /// Smallest / largest admissible document size.
    pub size_clamp: (ByteSize, ByteSize),
    /// PRNG seed; equal profiles generate bit-identical traces.
    pub seed: u64,
}

impl TraceProfile {
    /// The Boston-University-1994-like profile used by the paper's
    /// evaluation (see DESIGN.md §1 for the substitution rationale).
    #[must_use]
    pub fn bu94() -> Self {
        Self {
            requests: 575_775,
            // The universe is wider than the paper's 46,830 unique
            // documents because a Zipf(1.05) stream of 575,775 draws only
            // touches a fraction of its population: 300,000 candidates
            // yield a REALIZED unique count of ~47k, matching the BU-94
            // log's 46,830.
            unique_docs: 300_000,
            clients: 591,
            sessions: 4_700,
            horizon: DurationMs::from_days(105),
            zipf_alpha: 1.05,
            size_mu: 7.6, // median ≈ 2 KB, mean ≈ 4 KB (the BU average)
            size_sigma: 1.1,
            tail_fraction: 0.01,
            tail_x_min: 20_000.0,
            tail_alpha: 1.3,
            zero_size_fraction: 0.04,
            zero_size_patch: ByteSize::from_kb(4),
            client_activity_skew: 1.6,
            locality_probability: 0.45,
            locality_window: 32,
            flash_probability: 0.30,
            flash_docs: 16,
            flash_epoch: DurationMs::from_secs(6 * 60 * 60),
            think_time_mean: DurationMs::from_secs(10),
            size_clamp: (ByteSize::from_bytes(100), ByteSize::from_mb(10)),
            seed: 0x1CDC_5200_2EA0_0001,
        }
    }

    /// A scaled-down profile (20,000 requests over 2,000 documents) for
    /// unit tests, doc examples and quick demos.
    #[must_use]
    pub fn small() -> Self {
        Self {
            requests: 20_000,
            unique_docs: 2_000,
            clients: 48,
            sessions: 200,
            horizon: DurationMs::from_days(7),
            ..Self::bu94()
        }
    }

    /// A medium profile (~120k requests) used by the faster experiment
    /// sweeps (group-size and ablation benches).
    #[must_use]
    pub fn medium() -> Self {
        Self {
            requests: 120_000,
            unique_docs: 12_000,
            clients: 200,
            sessions: 1_000,
            horizon: DurationMs::from_days(30),
            ..Self::bu94()
        }
    }

    /// Replaces the seed (builder-style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the request count (builder-style).
    #[must_use]
    pub fn with_requests(mut self, requests: usize) -> Self {
        self.requests = requests;
        self
    }

    /// Replaces the document universe size (builder-style).
    #[must_use]
    pub fn with_unique_docs(mut self, docs: u64) -> Self {
        self.unique_docs = docs;
        self
    }

    /// Replaces the Zipf skew (builder-style).
    #[must_use]
    pub fn with_zipf_alpha(mut self, alpha: f64) -> Self {
        self.zipf_alpha = alpha;
        self
    }

    /// Replaces the client population (builder-style).
    #[must_use]
    pub fn with_clients(mut self, clients: u32) -> Self {
        self.clients = clients;
        self
    }

    /// Validates the profile's parameters.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidParamError`] when any count is zero, a probability
    /// is outside `[0, 1]`, or a distribution parameter is out of domain.
    pub fn validate(&self) -> Result<(), InvalidParamError> {
        fn bad(what: &'static str) -> InvalidParamError {
            InvalidParamError::new(what)
        }
        if self.requests == 0 {
            return Err(bad("profile requires at least one request"));
        }
        if self.unique_docs == 0 {
            return Err(bad("profile requires at least one document"));
        }
        if self.clients == 0 {
            return Err(bad("profile requires at least one client"));
        }
        if self.sessions == 0 {
            return Err(bad("profile requires at least one session"));
        }
        if self.horizon == DurationMs::ZERO {
            return Err(bad("profile horizon must be positive"));
        }
        for (p, what) in [
            (self.zipf_alpha, "zipf alpha must be in [0, inf)"),
            (
                self.client_activity_skew,
                "client activity skew must be in [0, inf)",
            ),
            (self.tail_fraction, "tail fraction must be in [0, 1]"),
            (
                self.zero_size_fraction,
                "zero-size fraction must be in [0, 1]",
            ),
            (
                self.locality_probability,
                "locality probability must be in [0, 1]",
            ),
            (
                self.flash_probability,
                "flash probability must be in [0, 1]",
            ),
        ] {
            if !p.is_finite() || p < 0.0 {
                return Err(bad(what));
            }
        }
        if self.tail_fraction > 1.0
            || self.zero_size_fraction > 1.0
            || self.locality_probability > 1.0
            || self.flash_probability > 1.0
        {
            return Err(bad("probabilities must not exceed 1"));
        }
        if self.flash_probability > 0.0
            && (self.flash_docs == 0 || self.flash_epoch == DurationMs::ZERO)
        {
            return Err(bad(
                "flash traffic requires flash_docs > 0 and a positive epoch",
            ));
        }
        if !self.size_mu.is_finite() || !self.size_sigma.is_finite() || self.size_sigma < 0.0 {
            return Err(bad("lognormal size params must be finite with sigma >= 0"));
        }
        if !self.tail_x_min.is_finite() || !self.tail_alpha.is_finite() {
            return Err(bad("pareto tail params must be finite"));
        }
        if self.size_clamp.0 > self.size_clamp.1 {
            return Err(bad("size clamp range is inverted"));
        }
        if self.size_clamp.0.is_zero() {
            return Err(bad("minimum document size must be positive"));
        }
        Ok(())
    }
}

impl Default for TraceProfile {
    /// The default profile is the paper's BU-94-like workload.
    fn default() -> Self {
        Self::bu94()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bu94_matches_published_statistics() {
        let p = TraceProfile::bu94();
        assert_eq!(p.requests, 575_775);
        // Universe sized so the REALIZED unique count matches the BU-94
        // log's 46,830 (see the field comment).
        assert_eq!(p.unique_docs, 300_000);
        assert_eq!(p.clients, 591);
        assert_eq!(p.sessions, 4_700);
        assert_eq!(p.zero_size_patch, ByteSize::from_kb(4));
        assert!(p.validate().is_ok());
    }

    #[test]
    fn small_and_medium_validate() {
        assert!(TraceProfile::small().validate().is_ok());
        assert!(TraceProfile::medium().validate().is_ok());
    }

    #[test]
    fn builder_methods_replace_fields() {
        let p = TraceProfile::small()
            .with_seed(9)
            .with_requests(5)
            .with_unique_docs(3)
            .with_clients(2)
            .with_zipf_alpha(0.5);
        assert_eq!(p.seed, 9);
        assert_eq!(p.requests, 5);
        assert_eq!(p.unique_docs, 3);
        assert_eq!(p.clients, 2);
        assert!((p.zipf_alpha - 0.5).abs() < 1e-12);
    }

    #[test]
    fn validation_rejects_degenerate_profiles() {
        assert!(TraceProfile::small().with_requests(0).validate().is_err());
        assert!(TraceProfile::small()
            .with_unique_docs(0)
            .validate()
            .is_err());
        assert!(TraceProfile::small().with_clients(0).validate().is_err());
        let mut p = TraceProfile::small();
        p.sessions = 0;
        assert!(p.validate().is_err());
        let mut p = TraceProfile::small();
        p.horizon = DurationMs::ZERO;
        assert!(p.validate().is_err());
        let mut p = TraceProfile::small();
        p.locality_probability = 1.5;
        assert!(p.validate().is_err());
        let mut p = TraceProfile::small();
        p.tail_fraction = -0.1;
        assert!(p.validate().is_err());
        let mut p = TraceProfile::small();
        p.size_clamp = (ByteSize::from_mb(1), ByteSize::from_kb(1));
        assert!(p.validate().is_err());
        let mut p = TraceProfile::small();
        p.size_clamp = (ByteSize::ZERO, ByteSize::from_kb(1));
        assert!(p.validate().is_err());
    }

    #[test]
    fn default_is_bu94() {
        assert_eq!(TraceProfile::default(), TraceProfile::bu94());
    }
}
