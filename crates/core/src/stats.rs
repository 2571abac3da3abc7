//! Per-cache operation counters.

use coopcache_types::ByteSize;

/// Counters maintained by a single [`crate::Cache`].
///
/// These are the cache's own view of its workload; the group-level metrics
/// of the paper (cumulative hit rate, byte hit rate, latency) are assembled
/// from the protocol layer in `coopcache-metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Local lookups served from this cache (local hits).
    pub local_hits: u64,
    /// Local lookups that missed.
    pub local_misses: u64,
    /// Documents served to sibling caches (remote serves).
    pub remote_serves: u64,
    /// Documents stored.
    pub insertions: u64,
    /// Documents evicted under capacity pressure.
    pub evictions: u64,
    /// Documents explicitly removed.
    pub explicit_removals: u64,
    /// Store attempts rejected because the document exceeds capacity.
    pub rejected_too_large: u64,
    /// Documents discarded because they outlived the freshness TTL.
    pub expirations: u64,
    /// Total bytes evicted under capacity pressure.
    pub bytes_evicted: ByteSize,
}

impl CacheStats {
    /// Folds another counter set into this one (used to aggregate
    /// per-shard counters into one cache-wide view).
    pub fn merge(&mut self, other: &Self) {
        self.local_hits += other.local_hits;
        self.local_misses += other.local_misses;
        self.remote_serves += other.remote_serves;
        self.insertions += other.insertions;
        self.evictions += other.evictions;
        self.explicit_removals += other.explicit_removals;
        self.rejected_too_large += other.rejected_too_large;
        self.expirations += other.expirations;
        self.bytes_evicted += other.bytes_evicted;
    }

    /// Local lookups observed (hits + misses).
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.local_hits + self.local_misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios() {
        let mut s = CacheStats::default();
        assert_eq!(s.lookups(), 0);
        s.local_hits = 3;
        s.local_misses = 1;
        assert_eq!(s.lookups(), 4);
    }

    #[test]
    fn default_is_zeroed() {
        let s = CacheStats::default();
        assert_eq!(s.insertions, 0);
        assert_eq!(s.bytes_evicted, ByteSize::ZERO);
    }
}
