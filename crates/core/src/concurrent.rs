//! A shared-reference cache: seeded routing over one lock per shard.
//!
//! [`ConcurrentCache`] splits its capacity over 2^k [`Cache`]s, assigns
//! each document to one by seeded hash and puts each behind its own
//! `Mutex`, so requests touching different shards never serialize: a hot
//! lookup on shard 3 proceeds while an evicting insert runs on shard 0.
//! Every operation takes `&self`. A document operation is the shard's
//! own [`Cache`] method run under that shard's lock — the timing and
//! auditing live there, once; this module adds only the routing, the
//! locks and the cross-shard aggregations.
//!
//! # Lock discipline
//!
//! * A document operation locks exactly **one** shard (the document's).
//! * Aggregations (`stats`, `len`, `used`, `expiration_age`, …) lock
//!   shards **one at a time in index order**, never holding two locks at
//!   once, so each value is a sum of per-shard-consistent parts rather
//!   than a global atomic snapshot.
//!
//! No code path ever holds more than one shard lock, so lock-order
//! deadlock is impossible by construction — the `interleave` crate's
//! `shard_locks` model checks exactly this discipline, and the
//! per-shard consistency of the aggregations, under a bounded scheduler.
//!
//! # Contention accounting
//!
//! Every acquisition first tries `try_lock`; a miss is counted before
//! falling back to a blocking lock. [`ConcurrentCache::contention`]
//! exposes the totals, which is how the `store_scale` test demonstrates
//! that disjoint-shard readers do not contend (the interesting claim on
//! any machine, and the only measurable one on a single-CPU box where
//! wall-clock scaling is physically impossible).

use crate::cache::{Cache, InvariantViolation};
use crate::config::SHARD_SEED;
use crate::expiration::pooled_expiration_age;
use crate::index::mix64;
use crate::stats::CacheStats;
use coopcache_types::{ByteSize, CacheId, DocId, ExpirationAge, Timestamp};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, TryLockError};

/// Lock-acquisition counters (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LockContention {
    /// Total shard-lock acquisitions.
    pub acquisitions: u64,
    /// Acquisitions that found the lock held and had to block.
    pub contended: u64,
}

/// A sharded cache safe to share across threads (`&self` everywhere).
///
/// Cache-line aligned: every operation from every thread writes
/// `acquisitions`, so the struct (and a `ConcurrentNode` around it) must
/// not share a line with a heap neighbour — one that differs from run to
/// run, and the live request rate with it (DESIGN.md §14).
#[derive(Debug)]
#[repr(align(64))]
pub struct ConcurrentCache {
    id: CacheId,
    capacity: ByteSize,
    shard_mask: u64,
    shards: Vec<Mutex<Cache>>,
    acquisitions: AtomicU64,
    contended: AtomicU64,
}

impl ConcurrentCache {
    /// Assembles the cache from built shards (called by
    /// [`crate::CacheConfig::build_concurrent`]).
    pub(crate) fn from_parts(id: CacheId, capacity: ByteSize, shards: Vec<Cache>) -> Self {
        debug_assert!(shards.len().is_power_of_two());
        Self {
            id,
            capacity,
            shard_mask: shards.len() as u64 - 1,
            shards: shards.into_iter().map(Mutex::new).collect(),
            acquisitions: AtomicU64::new(0),
            contended: AtomicU64::new(0),
        }
    }

    /// Which shard (and therefore which lock) serves `doc`: seeded
    /// document hash masked to 2^k shards. Stable for the life of the
    /// cache; lets callers partition work so threads never contend.
    #[inline]
    #[must_use]
    pub fn shard_of(&self, doc: DocId) -> usize {
        (mix64(doc.as_u64() ^ SHARD_SEED) & self.shard_mask) as usize
    }

    /// Locks shard `i`, counting the acquisition and whether it contended.
    ///
    /// A poisoned mutex is recovered rather than propagated: the shard's
    /// invariants are re-audited on the next paranoid pass, and refusing
    /// to serve the whole shard because one request panicked would turn a
    /// bug into an outage.
    fn lock_shard(&self, i: usize) -> MutexGuard<'_, Cache> {
        self.acquisitions.fetch_add(1, Ordering::Relaxed);
        match self.shards[i].try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::WouldBlock) => {
                self.contended.fetch_add(1, Ordering::Relaxed);
                match self.shards[i].lock() {
                    Ok(guard) => guard,
                    Err(poisoned) => poisoned.into_inner(),
                }
            }
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
        }
    }

    /// Locks the one shard that owns `doc`.
    fn lock_for(&self, doc: DocId) -> MutexGuard<'_, Cache> {
        self.lock_shard(self.shard_of(doc))
    }

    /// Every shard in index order, locked one at a time: a guard is
    /// dropped by the consumer before the next one is taken.
    fn each_shard(&self) -> impl Iterator<Item = MutexGuard<'_, Cache>> {
        (0..self.shards.len()).map(|i| self.lock_shard(i))
    }

    /// This cache's id.
    #[must_use]
    pub fn id(&self) -> CacheId {
        self.id
    }

    /// Configured capacity in bytes (split evenly over the shards).
    #[must_use]
    pub fn capacity(&self) -> ByteSize {
        self.capacity
    }

    /// Number of shards (and therefore independent locks).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The lock-acquisition counters accumulated so far.
    #[must_use]
    pub fn contention(&self) -> LockContention {
        LockContention {
            acquisitions: self.acquisitions.load(Ordering::Relaxed),
            contended: self.contended.load(Ordering::Relaxed),
        }
    }

    /// Which expiration-age flavor (eq. 5 numerator) this cache records.
    #[must_use]
    pub fn expiration_flavor(&self) -> crate::policy::ExpirationFlavor {
        self.lock_shard(0).expiration_flavor()
    }

    /// Read-only ICP probe: is the document cached here?
    #[must_use]
    pub fn contains(&self, doc: DocId) -> bool {
        self.lock_for(doc).contains(doc)
    }

    /// Serves a local client request (see [`Cache::lookup`]).
    pub fn lookup(&self, doc: DocId, now: Timestamp) -> Option<ByteSize> {
        self.lock_for(doc).lookup(doc, now)
    }

    /// Serves a sibling cache (see [`Cache::serve_remote`]).
    pub fn serve_remote(&self, doc: DocId, now: Timestamp, promote: bool) -> Option<ByteSize> {
        self.lock_for(doc).serve_remote(doc, now, promote)
    }

    /// Stores a document (see [`Cache::insert`]). The shard lock is
    /// released before this returns, so callers emit eviction events
    /// without holding it.
    pub fn insert(&self, doc: DocId, size: ByteSize, now: Timestamp) -> crate::InsertOutcome {
        self.lock_for(doc).insert(doc, size, now)
    }

    /// Bytes currently stored.
    #[must_use]
    pub fn used(&self) -> ByteSize {
        self.each_shard().map(|shard| shard.used()).sum()
    }

    /// Number of cached documents.
    #[must_use]
    pub fn len(&self) -> usize {
        self.each_shard().map(|shard| shard.len()).sum()
    }

    /// True when nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Operation counters, aggregated over the shards.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in self.each_shard() {
            total.merge(&shard.stats());
        }
        total
    }

    /// The cache expiration age piggybacked on inter-proxy messages
    /// (paper eq. 5), pooled over every shard's window: `Σ window sums /
    /// Σ window lengths`, the mean over the union of the windows.
    #[must_use]
    pub fn expiration_age(&self) -> ExpirationAge {
        pooled_expiration_age(self.each_shard().map(|shard| shard.expiration_window()))
    }

    /// Verifies every shard's bookkeeping (see
    /// [`Cache::check_invariants`]).
    pub fn check_invariants(&self) -> Result<(), InvariantViolation> {
        self.each_shard()
            .try_for_each(|shard| shard.check_invariants())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;
    use crate::policy::PolicyKind;
    use std::sync::Arc;

    fn d(i: u64) -> DocId {
        DocId::new(i)
    }

    fn t(ms: u64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    fn kb(n: u64) -> ByteSize {
        ByteSize::from_kb(n)
    }

    fn concurrent(cap_kb: u64, shards: usize) -> ConcurrentCache {
        CacheConfig::new(CacheId::new(0), kb(cap_kb), PolicyKind::Lru)
            .shards(shards)
            .build_concurrent()
    }

    /// Each shard's documents in the order its `Cache::iter` walks them.
    fn docs_by_shard(c: &ConcurrentCache) -> Vec<Vec<u64>> {
        c.each_shard()
            .map(|shard| shard.iter().map(|e| e.doc.as_u64()).collect())
            .collect()
    }

    #[test]
    fn shared_reference_roundtrip() {
        let c = concurrent(64, 4);
        assert!(c.insert(d(1), kb(4), t(0)).is_stored());
        assert_eq!(c.lookup(d(1), t(1)), Some(kb(4)));
        assert_eq!(c.lookup(d(2), t(1)), None);
        assert!(c.contains(d(1)));
        assert_eq!(c.len(), 1);
        assert_eq!(c.used(), kb(4));
        let s = c.stats();
        assert_eq!(s.local_hits, 1);
        assert_eq!(s.local_misses, 1);
        c.check_invariants().expect("invariants hold");
    }

    #[test]
    fn one_shard_matches_the_single_owner_cache() {
        let concurrent = concurrent(16, 1);
        let mut serial = CacheConfig::new(CacheId::new(0), kb(16), PolicyKind::Lru).build();
        for i in 0..200u64 {
            let doc = d(i % 50);
            let now = t(i);
            let a = concurrent.insert(doc, kb(1), now);
            let b = serial.insert(doc, kb(1), now);
            assert_eq!(a, b, "insert #{i} diverged");
            let la = concurrent.lookup(doc, now);
            let lb = serial.lookup(doc, now);
            assert_eq!(la, lb, "lookup #{i} diverged");
        }
        assert_eq!(concurrent.len(), serial.len());
        assert_eq!(concurrent.used(), serial.used());
        assert_eq!(concurrent.stats(), serial.stats());
        assert_eq!(concurrent.expiration_age(), serial.expiration_age());
        let serial_iter: Vec<u64> = serial.iter().map(|e| e.doc.as_u64()).collect();
        assert_eq!(docs_by_shard(&concurrent), vec![serial_iter]);
    }

    #[test]
    fn documents_spread_over_shards() {
        // 64 KB per shard: the seeded spread is uneven, so give every
        // shard room for all 64 docs to keep eviction out of the test.
        let c = concurrent(256, 4);
        assert_eq!(c.shard_count(), 4);
        for i in 0..64u64 {
            c.insert(d(i), kb(1), t(i));
        }
        // With 64 docs over 4 seeded shards, every shard should hold
        // something (P(an empty shard) ~ 4·(3/4)^64).
        let per_shard: Vec<usize> = c.each_shard().map(|shard| shard.len()).collect();
        assert!(
            per_shard.iter().all(|&n| n > 0),
            "starved shard: {per_shard:?}"
        );
        assert_eq!(c.len(), 64);
        assert_eq!(c.used(), kb(64));
    }

    #[test]
    fn each_shard_holds_its_own_documents_in_doc_order() {
        let c = concurrent(64, 4);
        for i in 0..48u64 {
            c.insert(d(i), kb(1), t(i));
        }
        // Reconstruct the expected layout: shard index, then DocId.
        let mut expected = vec![Vec::new(); 4];
        for i in 0..48u64 {
            expected[c.shard_of(d(i))].push(i);
        }
        assert_eq!(docs_by_shard(&c), expected, "shard-by-shard DocId order");
    }

    #[test]
    fn placement_is_reproducible() {
        let a = concurrent(64, 8);
        let b = concurrent(64, 8);
        for i in 0..32u64 {
            a.insert(d(i), kb(1), t(i));
            b.insert(d(i), kb(1), t(i));
        }
        assert_eq!(
            docs_by_shard(&a),
            docs_by_shard(&b),
            "placement is a pure function of the document id"
        );
    }

    #[test]
    fn eviction_pressure_is_per_shard() {
        let c = concurrent(8, 2); // 4 KB per shard
        let mut stored = 0u64;
        for i in 0..16u64 {
            if c.insert(d(i), kb(1), t(i)).is_stored() {
                stored += 1;
            }
        }
        assert_eq!(stored, 16);
        assert!(c.used() <= c.capacity());
        c.check_invariants().expect("shard invariants hold");
    }

    #[test]
    fn aggregate_stats_and_tracker_pool_over_shards() {
        let c = concurrent(8, 4); // 2 KB per shard -> heavy eviction
        for i in 0..40u64 {
            c.insert(d(i), kb(1), t(i));
            c.lookup(d(i), t(i));
            c.lookup(d(i + 1000), t(i));
        }
        let s = c.stats();
        assert_eq!(s.insertions, 40);
        assert_eq!(s.local_hits, 40);
        assert_eq!(s.local_misses, 40);
        let samples: u64 = c.each_shard().map(|shard| shard.eviction_count()).sum();
        assert_eq!(s.evictions, samples);
        // eq. 5 over the union of the windows: every sample, weighted once.
        let (sum, len) = c
            .each_shard()
            .map(|shard| shard.expiration_window())
            .fold((0u128, 0usize), |(s, l), (ws, wl)| (s + ws, l + wl));
        assert_eq!(len as u64, samples, "the default window holds them all");
        assert_eq!(
            c.expiration_age(),
            ExpirationAge::finite(coopcache_types::DurationMs::from_millis(
                (sum / len as u128) as u64
            ))
        );
    }

    #[test]
    fn parallel_readers_on_disjoint_shards() {
        let c = Arc::new(concurrent(256, 8));
        for i in 0..128u64 {
            c.insert(d(i), kb(1), t(i));
        }
        let mut handles = Vec::new();
        for reader in 0..4u64 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                let mut hits = 0u64;
                for round in 0..200u64 {
                    let doc = d((reader * 31 + round) % 128);
                    if c.lookup(doc, t(1_000 + round)).is_some() {
                        hits += 1;
                    }
                }
                hits
            }));
        }
        let total: u64 = handles.into_iter().map(|h| h.join().expect("reader")).sum();
        assert!(total > 0, "readers must observe the preloaded docs");
        c.check_invariants().expect("invariants hold after racing");
        let contention = c.contention();
        assert!(contention.acquisitions >= 128 + 800);
    }

    #[test]
    fn aggregations_race_with_writers_without_deadlock() {
        let c = Arc::new(concurrent(64, 4));
        let writer = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || {
                for i in 0..500u64 {
                    c.insert(d(i % 80), kb(1), t(i));
                }
            })
        };
        let reader = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || {
                for _ in 0..50 {
                    // Each shard's part is an instant of that shard's
                    // history, so no sum can exceed the capacity.
                    assert!(c.len() <= 64);
                    assert!(c.used() <= kb(64));
                    let _ = c.stats();
                }
            })
        };
        writer.join().expect("writer");
        reader.join().expect("reader");
        c.check_invariants().expect("invariants hold");
    }

    #[test]
    fn contention_counters_start_at_zero() {
        let c = concurrent(8, 2);
        assert_eq!(c.contention(), LockContention::default());
        c.insert(d(1), kb(1), t(0));
        assert!(c.contention().acquisitions >= 1);
        assert_eq!(c.contention().contended, 0, "uncontended single thread");
    }
}
