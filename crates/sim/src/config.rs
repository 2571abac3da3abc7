//! Simulation configuration.

use coopcache_core::{ExpirationWindow, PlacementScheme, PolicyKind};
use coopcache_proxy::{Discovery, DistributedGroup};
use coopcache_trace::Partitioner;
use coopcache_types::{ByteSize, DurationMs};
use std::fmt;

/// Configuration of one trace-driven simulation run.
///
/// Defaults mirror the paper's headline setup: a distributed group of
/// 4 caches sharing the aggregate capacity evenly, LRU replacement, the
/// and the client-to-proxy pinning partitioner. The eq. 6 estimate always
/// uses the paper's measured latency constants.
///
/// # Example
///
/// ```
/// use coopcache_sim::SimConfig;
/// use coopcache_core::PlacementScheme;
/// use coopcache_types::ByteSize;
///
/// let cfg = SimConfig::new(ByteSize::from_mb(10))
///     .with_group_size(8)
///     .with_scheme(PlacementScheme::Ea);
/// assert_eq!(cfg.group_size, 8);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Number of caches in the (distributed) group.
    pub group_size: u16,
    /// Aggregate disk space, split evenly across the group (paper §4.1).
    pub aggregate_capacity: ByteSize,
    /// Replacement policy at every cache.
    pub policy: PolicyKind,
    /// Placement scheme under test.
    pub scheme: PlacementScheme,
    /// Expiration-age window.
    pub window: ExpirationWindow,
    /// How clients map onto caches.
    pub partitioner: Partitioner,
    /// How local misses locate documents in the group (ICP, Summary-Cache
    /// digests, or no cooperation).
    pub discovery: Discovery,
    /// Optional freshness TTL enforced at every cache.
    pub ttl: Option<DurationMs>,
    /// Fraction of the trace treated as warm-up: requests are processed
    /// but excluded from the metrics (0.0 = count everything, the paper's
    /// cold-start methodology).
    pub warmup_fraction: f64,
    /// Optional per-cache capacity weights; the aggregate is split
    /// proportionally instead of evenly (the paper assumes equal shares).
    pub capacity_weights: Option<Vec<u32>>,
}

impl SimConfig {
    /// Creates a 4-cache ad-hoc configuration with the given aggregate
    /// capacity; chain `with_*` calls to customise.
    #[must_use]
    pub fn new(aggregate_capacity: ByteSize) -> Self {
        Self {
            group_size: 4,
            aggregate_capacity,
            policy: PolicyKind::Lru,
            scheme: PlacementScheme::AdHoc,
            window: ExpirationWindow::default(),
            partitioner: Partitioner::default(),
            discovery: Discovery::Icp,
            ttl: None,
            warmup_fraction: 0.0,
            capacity_weights: None,
        }
    }

    /// Sets the group size.
    #[must_use]
    pub fn with_group_size(mut self, n: u16) -> Self {
        self.group_size = n;
        self
    }

    /// Sets the placement scheme.
    #[must_use]
    pub fn with_scheme(mut self, scheme: PlacementScheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Sets the replacement policy.
    #[must_use]
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the expiration-age window.
    #[must_use]
    pub fn with_window(mut self, window: ExpirationWindow) -> Self {
        self.window = window;
        self
    }

    /// Sets the discovery mechanism.
    #[must_use]
    pub fn with_discovery(mut self, discovery: Discovery) -> Self {
        self.discovery = discovery;
        self
    }

    /// Sets a freshness TTL at every cache.
    #[must_use]
    pub fn with_ttl(mut self, ttl: DurationMs) -> Self {
        self.ttl = Some(ttl);
        self
    }

    /// Excludes the first `fraction` of requests from the metrics.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= fraction < 1.0`.
    #[must_use]
    pub fn with_warmup_fraction(mut self, fraction: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&fraction),
            "warm-up fraction must be in [0, 1)"
        );
        self.warmup_fraction = fraction;
        self
    }

    /// Splits the aggregate capacity proportionally to `weights` instead
    /// of evenly (heterogeneous deployments; an ablation of the paper's
    /// equal-share assumption).
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero; the group size is
    /// set to `weights.len()`.
    #[must_use]
    pub fn with_capacity_weights(mut self, weights: Vec<u32>) -> Self {
        assert!(!weights.is_empty(), "weights must not be empty");
        assert!(
            weights.iter().any(|&w| w > 0),
            "weights must not all be zero"
        );
        self.group_size = weights.len() as u16;
        self.capacity_weights = Some(weights);
        self
    }

    /// The capacity of every cache under the configured split.
    #[must_use]
    pub fn cache_capacities(&self) -> Vec<ByteSize> {
        match &self.capacity_weights {
            None => vec![self.per_cache_capacity(); usize::from(self.group_size)],
            Some(weights) => {
                let total: u64 = weights.iter().map(|&w| u64::from(w)).sum();
                weights
                    .iter()
                    .map(|&w| {
                        ByteSize::from_bytes(
                            self.aggregate_capacity.as_bytes() * u64::from(w) / total,
                        )
                    })
                    .collect()
            }
        }
    }

    /// The group this configuration describes: one cache per entry of
    /// [`Self::cache_capacities`], with the configured policy, scheme,
    /// window, discovery and TTL. Every runner builds its group here.
    #[must_use]
    pub fn build_group(&self) -> DistributedGroup {
        let mut group = DistributedGroup::with_capacities(
            &self.cache_capacities(),
            self.policy,
            self.scheme,
            self.window,
            self.discovery,
        );
        group.set_ttl(self.ttl);
        group
    }

    /// Per-cache capacity under the even split.
    ///
    /// # Panics
    ///
    /// Panics if the group size is zero.
    #[must_use]
    pub fn per_cache_capacity(&self) -> ByteSize {
        self.aggregate_capacity
            .split_evenly(u64::from(self.group_size))
    }
}

impl fmt::Display for SimConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} caches x {} ({} total), {} replacement, {} placement",
            self.group_size,
            self.per_cache_capacity(),
            self.aggregate_capacity,
            self.policy,
            self.scheme
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let cfg = SimConfig::new(ByteSize::from_mb(1));
        assert_eq!(cfg.group_size, 4);
        assert_eq!(cfg.policy, PolicyKind::Lru);
        assert_eq!(cfg.scheme, PlacementScheme::AdHoc);
        assert_eq!(cfg.partitioner, Partitioner::ByClientModulo);
        assert_eq!(cfg.per_cache_capacity(), ByteSize::from_bytes(250_000));
    }

    #[test]
    fn builders_chain() {
        let cfg = SimConfig::new(ByteSize::from_kb(100))
            .with_group_size(8)
            .with_scheme(PlacementScheme::Ea)
            .with_policy(PolicyKind::Lfu);
        assert_eq!(cfg.group_size, 8);
        assert_eq!(cfg.scheme, PlacementScheme::Ea);
        assert_eq!(cfg.policy, PolicyKind::Lfu);
        assert_eq!(cfg.per_cache_capacity(), ByteSize::from_bytes(12_500));
    }

    #[test]
    fn capacity_weights_split_proportionally() {
        let cfg = SimConfig::new(ByteSize::from_kb(100)).with_capacity_weights(vec![1, 3]);
        assert_eq!(cfg.group_size, 2);
        assert_eq!(
            cfg.cache_capacities(),
            vec![ByteSize::from_kb(25), ByteSize::from_kb(75)]
        );
        // Even split without weights.
        let even = SimConfig::new(ByteSize::from_kb(100));
        assert_eq!(even.cache_capacities(), vec![ByteSize::from_kb(25); 4]);
    }

    #[test]
    #[should_panic(expected = "warm-up fraction")]
    fn warmup_out_of_range_panics() {
        let _ = SimConfig::new(ByteSize::from_kb(1)).with_warmup_fraction(1.0);
    }

    #[test]
    #[should_panic(expected = "weights must not be empty")]
    fn empty_weights_panic() {
        let _ = SimConfig::new(ByteSize::from_kb(1)).with_capacity_weights(vec![]);
    }

    #[test]
    fn ttl_and_discovery_builders() {
        use coopcache_proxy::Discovery;
        let cfg = SimConfig::new(ByteSize::from_kb(1))
            .with_ttl(DurationMs::from_days(1))
            .with_discovery(Discovery::Isolated)
            .with_warmup_fraction(0.25);
        assert_eq!(cfg.ttl, Some(DurationMs::from_days(1)));
        assert_eq!(cfg.discovery, Discovery::Isolated);
        assert!((cfg.warmup_fraction - 0.25).abs() < 1e-12);
    }

    #[test]
    fn display_mentions_scheme() {
        let text = SimConfig::new(ByteSize::from_mb(1))
            .with_scheme(PlacementScheme::Ea)
            .to_string();
        assert!(text.contains("ea"), "{text}");
        assert!(text.contains("4 caches"), "{text}");
    }
}
