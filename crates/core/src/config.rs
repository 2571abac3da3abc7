//! Builder-style cache construction.
//!
//! [`CacheConfig`] replaces the positional-argument constructors that used
//! to be threaded through the simulator, the proxy layer and the daemons:
//! the required identity (id, capacity, policy) is given up front and the
//! optional knobs — expiration window, freshness TTL, shard count — are
//! chained. The same config builds either a single-owner
//! [`Cache`] (exactly one shard) or a lock-per-shard [`ConcurrentCache`]
//! (any power-of-two shard count).

use crate::cache::Cache;
use crate::concurrent::ConcurrentCache;
use crate::expiration::ExpirationWindow;
use crate::policy::PolicyKind;
use coopcache_types::{mix64, ByteSize, CacheId, DurationMs};

/// Shard-assignment seed. Any fixed value works — determinism only
/// requires that the same seed is used across a comparison run.
pub(crate) const SHARD_SEED: u64 = 0x5348_4152_4453_4545; // "SHARDSEE[D]"

/// Everything needed to build a cache.
///
/// # Example
///
/// ```
/// use coopcache_core::{CacheConfig, PolicyKind};
/// use coopcache_types::{ByteSize, CacheId};
///
/// let cache = CacheConfig::new(CacheId::new(0), ByteSize::from_mb(1), PolicyKind::S3Fifo)
///     .shards(4)
///     .build_concurrent();
/// assert_eq!(cache.shard_count(), 4);
/// assert_eq!(cache.capacity(), ByteSize::from_mb(1));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    id: CacheId,
    capacity: ByteSize,
    policy: PolicyKind,
    shards: usize,
    window: ExpirationWindow,
    ttl: Option<DurationMs>,
}

impl CacheConfig {
    /// Starts a config with the required identity; one shard, the default
    /// expiration window, no TTL.
    #[must_use]
    pub fn new(id: CacheId, capacity: ByteSize, policy: PolicyKind) -> Self {
        Self {
            id,
            capacity,
            policy,
            shards: 1,
            window: ExpirationWindow::default(),
            ttl: None,
        }
    }

    /// Splits the store over `n` independently indexed and locked shards
    /// (a [`ConcurrentCache`]; the single-owner [`Cache`] has exactly one).
    ///
    /// # Panics
    ///
    /// Panics unless `n` is a power of two (the shard mask must cover the
    /// hash range evenly, or placement would be biased).
    #[must_use]
    pub fn shards(mut self, n: usize) -> Self {
        assert!(
            n.is_power_of_two(),
            "shard count must be a power of two, got {n}"
        );
        self.shards = n;
        self
    }

    /// Sets the expiration-age window (paper eq. 5's "finite duration").
    #[must_use]
    pub fn window(mut self, window: ExpirationWindow) -> Self {
        self.window = window;
        self
    }

    /// Sets a freshness TTL (see [`Cache::set_ttl`]).
    #[must_use]
    pub fn ttl(mut self, ttl: Option<DurationMs>) -> Self {
        self.ttl = ttl;
        self
    }

    /// Builds shard `i` of the configured count: a [`Cache`] with an even
    /// share of the capacity.
    fn build_shard(&self, i: usize) -> Cache {
        let per_shard = self.capacity.split_evenly(self.shards as u64);
        // Each shard's table gets its own derived seed so probe sequences
        // decorrelate between shards.
        let table_seed = mix64(SHARD_SEED ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut cache = Cache::build(self.id, i, per_shard, self.policy, self.window, table_seed);
        cache.set_ttl(self.ttl);
        cache
    }

    /// Builds a single-owner [`Cache`].
    ///
    /// # Panics
    ///
    /// Panics if more than one shard was configured: shards exist to be
    /// locked independently, which only [`Self::build_concurrent`] does.
    #[must_use]
    pub fn build(self) -> Cache {
        assert!(
            self.shards == 1,
            "a single-owner Cache has exactly one shard, got {}; use build_concurrent()",
            self.shards
        );
        self.build_shard(0)
    }

    /// Builds a [`ConcurrentCache`] with one lock per shard.
    #[must_use]
    pub fn build_concurrent(self) -> ConcurrentCache {
        let shards = (0..self.shards).map(|i| self.build_shard(i)).collect();
        ConcurrentCache::from_parts(self.id, self.capacity, shards)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_build_a_single_shard_cache() {
        let c = CacheConfig::new(CacheId::new(3), ByteSize::from_kb(8), PolicyKind::Gdsf).build();
        assert_eq!(c.id(), CacheId::new(3));
        assert_eq!(c.capacity(), ByteSize::from_kb(8));
        assert_eq!(c.policy_kind(), PolicyKind::Gdsf);
        assert_eq!(c.ttl(), None);
    }

    #[test]
    fn ttl_and_window_carry_into_the_cache() {
        let c = CacheConfig::new(CacheId::new(0), ByteSize::from_kb(8), PolicyKind::Lru)
            .window(ExpirationWindow::LastEvictions(5))
            .ttl(Some(DurationMs::from_secs(60)))
            .build();
        assert_eq!(c.ttl(), Some(DurationMs::from_secs(60)));
    }

    #[test]
    fn capacity_splits_evenly_over_shards() {
        let c = CacheConfig::new(CacheId::new(0), ByteSize::from_mb(1), PolicyKind::Lru)
            .shards(4)
            .build_concurrent();
        assert_eq!(c.capacity(), ByteSize::from_mb(1));
        assert_eq!(c.shard_count(), 4);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_shards_rejected() {
        let _ = CacheConfig::new(CacheId::new(0), ByteSize::from_kb(8), PolicyKind::Lru).shards(6);
    }

    #[test]
    #[should_panic(expected = "exactly one shard")]
    fn single_owner_build_rejects_several_shards() {
        let _ = CacheConfig::new(CacheId::new(0), ByteSize::from_kb(8), PolicyKind::Lru)
            .shards(4)
            .build();
    }
}
