//! A shared-reference cache: seeded routing over one lock per shard.
//!
//! [`ConcurrentCache`] splits its capacity over 2^k [`Cache`]s, assigns
//! each document to one by seeded hash and puts each behind its own
//! `Mutex`, so requests touching different shards never serialize: a hot
//! lookup on shard 3 proceeds while an evicting insert runs on shard 0.
//! Every operation takes `&self`. A document operation is the shard's
//! own [`Cache`] method run under that shard's lock — the timing and
//! auditing live there, once; this module adds only the routing, the
//! locks, the published expiration age and the cross-shard aggregations.
//!
//! # Lock discipline
//!
//! * A document operation locks exactly **one** shard (the document's).
//! * The eq. 5 age is **published**, not polled: an insert that changes
//!   its shard's window writes the shard's `(sum, len)` into a small
//!   window table — a leaf mutex only ever taken under a shard guard —
//!   and stores the pooled age in one atomic, still under that table
//!   lock. [`ConcurrentCache::expiration_age`] is one `Acquire` load of
//!   it, for any shard count: an exact global snapshot, since the
//!   windows only change when a sample is recorded.
//! * Aggregations (`stats`, `len`, `used`, …) lock shards **one at a
//!   time in index order**, never holding two shard locks at once, so
//!   each value is a sum of per-shard-consistent parts rather than a
//!   global atomic snapshot.
//!
//! No code path ever holds more than one shard lock, and the window
//! table is a leaf below them, so lock-order deadlock is impossible by
//! construction — the `interleave` crate's `shard_locks` models check
//! the shard discipline and the `published_age` models the publication,
//! under a bounded scheduler.
//!
//! # Contention accounting
//!
//! Every acquisition first tries `try_lock`; a miss is counted before
//! falling back to a blocking lock. The counters are plain fields of the
//! locked shard, so counting writes no line another shard's users share;
//! [`ConcurrentCache::contention`] sums them. That is how the
//! `store_scale` test demonstrates that disjoint-shard readers do not
//! contend (the interesting claim on any machine, and the only
//! measurable one on a single-CPU box where wall-clock scaling is
//! physically impossible).

use crate::cache::{Cache, InvariantViolation};
use crate::config::SHARD_SEED;
use crate::expiration::{pooled_expiration_age, MAX_FINITE_AGE_MS};
use crate::policy::ExpirationFlavor;
use crate::stats::CacheStats;
use coopcache_types::{mix64, ByteSize, CacheId, DocId, DurationMs, ExpirationAge, Timestamp};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError, TryLockError};

/// Lock-acquisition counters (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LockContention {
    /// Total shard-lock acquisitions.
    pub acquisitions: u64,
    /// Acquisitions that found the lock held and had to block.
    pub contended: u64,
}

/// One shard: its cache plus its lock counters, all under its lock.
#[derive(Debug)]
struct Shard {
    cache: Cache,
    acquisitions: u64,
    contended: u64,
}

/// Every shard's eq. 5 window as (sum of ages in ms, number of ages),
/// with the pooled totals kept alongside.
#[derive(Debug)]
struct Windows {
    per_shard: Vec<(u128, usize)>,
    sum: u128,
    len: usize,
}

impl Windows {
    /// Replaces shard `i`'s window and adjusts the totals.
    fn set(&mut self, i: usize, (sum, len): (u128, usize)) {
        let (old_sum, old_len) = std::mem::replace(&mut self.per_shard[i], (sum, len));
        self.sum = self.sum - old_sum + sum;
        self.len = self.len - old_len + len;
    }

    /// Paper eq. 5 over the union of the windows.
    fn pooled(&self) -> ExpirationAge {
        pooled_expiration_age([(self.sum, self.len)])
    }
}

/// The published-age word for an infinite age. Pooled ages saturate
/// below it (see [`pooled_expiration_age`]), so it is distinct from
/// every finite age.
const INFINITE_AGE: u64 = u64::MAX;
const _: () = assert!(INFINITE_AGE > MAX_FINITE_AGE_MS);

fn age_word(age: ExpirationAge) -> u64 {
    age.as_finite().map_or(INFINITE_AGE, DurationMs::as_millis)
}

fn word_age(word: u64) -> ExpirationAge {
    if word == INFINITE_AGE {
        ExpirationAge::Infinite
    } else {
        ExpirationAge::finite(DurationMs::from_millis(word))
    }
}

/// A sharded cache safe to share across threads (`&self` everywhere).
#[derive(Debug)]
pub struct ConcurrentCache {
    id: CacheId,
    capacity: ByteSize,
    flavor: ExpirationFlavor,
    shard_mask: u64,
    shards: Vec<Mutex<Shard>>,
    /// The window table: a leaf lock, only ever taken under a shard guard.
    windows: Mutex<Windows>,
    /// The pooled eq. 5 age, stored under the `windows` lock.
    age: AtomicU64,
}

impl ConcurrentCache {
    /// Assembles the cache from freshly built shards, whose windows are
    /// empty (called by [`crate::CacheConfig::build_concurrent`]).
    pub(crate) fn from_parts(id: CacheId, capacity: ByteSize, shards: Vec<Cache>) -> Self {
        debug_assert!(shards.len().is_power_of_two());
        debug_assert!(shards
            .iter()
            .all(|shard| shard.expiration_window() == (0, 0)));
        let windows = Windows {
            per_shard: vec![(0, 0); shards.len()],
            sum: 0,
            len: 0,
        };
        Self {
            id,
            capacity,
            flavor: shards[0].expiration_flavor(),
            shard_mask: shards.len() as u64 - 1,
            shards: shards
                .into_iter()
                .map(|cache| {
                    Mutex::new(Shard {
                        cache,
                        acquisitions: 0,
                        contended: 0,
                    })
                })
                .collect(),
            windows: Mutex::new(windows),
            age: AtomicU64::new(INFINITE_AGE),
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

    /// Locks shard `i`, counting the acquisition (and whether it
    /// contended) under the guard.
    ///
    /// A poisoned mutex is recovered rather than propagated: the shard's
    /// invariants are re-audited on the next paranoid pass, and refusing
    /// to serve the whole shard because one request panicked would turn a
    /// bug into an outage.
    fn lock_shard(&self, i: usize) -> MutexGuard<'_, Shard> {
        let mut shard = match self.shards[i].try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::WouldBlock) => {
                let mut guard = self.shards[i]
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                guard.contended += 1;
                guard
            }
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
        };
        shard.acquisitions += 1;
        shard
    }

    /// Locks the one shard that owns `doc`.
    fn lock_for(&self, doc: DocId) -> MutexGuard<'_, Shard> {
        self.lock_shard(self.shard_of(doc))
    }

    /// Every shard in index order, locked one at a time: a guard is
    /// dropped by the consumer before the next one is taken.
    fn each_shard(&self) -> impl Iterator<Item = MutexGuard<'_, Shard>> {
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

    /// The lock-acquisition counters accumulated so far. Reading them
    /// takes each shard lock once without counting it.
    #[must_use]
    pub fn contention(&self) -> LockContention {
        let mut total = LockContention::default();
        for shard in &self.shards {
            let shard = shard.lock().unwrap_or_else(PoisonError::into_inner);
            total.acquisitions += shard.acquisitions;
            total.contended += shard.contended;
        }
        total
    }

    /// Which expiration-age flavor (eq. 5 numerator) this cache records.
    #[must_use]
    pub fn expiration_flavor(&self) -> ExpirationFlavor {
        self.flavor
    }

    /// Read-only ICP probe: is the document cached here?
    #[must_use]
    pub fn contains(&self, doc: DocId) -> bool {
        self.lock_for(doc).cache.contains(doc)
    }

    /// Serves a local client request (see [`Cache::lookup`]).
    pub fn lookup(&self, doc: DocId, now: Timestamp) -> Option<ByteSize> {
        self.lock_for(doc).cache.lookup(doc, now)
    }

    /// Serves a sibling cache (see [`Cache::serve_remote`]).
    pub fn serve_remote(&self, doc: DocId, now: Timestamp, promote: bool) -> Option<ByteSize> {
        self.lock_for(doc).cache.serve_remote(doc, now, promote)
    }

    /// Stores a document (see [`Cache::insert`]). An insert that records
    /// an eq. 5 sample — an eviction, or an S3-FIFO ghost re-admission —
    /// publishes its shard's new window and the pooled age before the
    /// shard lock is released. The lock is released before this returns,
    /// so callers emit eviction events without holding it.
    pub fn insert(&self, doc: DocId, size: ByteSize, now: Timestamp) -> crate::InsertOutcome {
        let i = self.shard_of(doc);
        let mut shard = self.lock_shard(i);
        let samples = shard.cache.eviction_count();
        let outcome = shard.cache.insert(doc, size, now);
        if shard.cache.eviction_count() != samples {
            let mut windows = self.windows.lock().unwrap_or_else(PoisonError::into_inner);
            windows.set(i, shard.cache.expiration_window());
            let word = age_word(windows.pooled());
            // Stored under the table lock, so publications land in table
            // order and an older pooled value never overwrites a newer one.
            // lint:allow(atomic-order) -- Release: pairs with the Acquire
            // load in `expiration_age`.
            self.age.store(word, Ordering::Release);
        }
        outcome
    }

    /// Bytes currently stored.
    #[must_use]
    pub fn used(&self) -> ByteSize {
        self.each_shard().map(|shard| shard.cache.used()).sum()
    }

    /// Number of cached documents.
    #[must_use]
    pub fn len(&self) -> usize {
        self.each_shard().map(|shard| shard.cache.len()).sum()
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
            total.merge(&shard.cache.stats());
        }
        total
    }

    /// The cache expiration age piggybacked on inter-proxy messages
    /// (paper eq. 5), pooled over every shard's window: `Σ window sums /
    /// Σ window lengths`, the mean over the union of the windows. One
    /// load of the age the last window change published; no lock.
    #[must_use]
    pub fn expiration_age(&self) -> ExpirationAge {
        // lint:allow(atomic-order) -- Acquire: pairs with the Release
        // store in `insert`.
        word_age(self.age.load(Ordering::Acquire))
    }

    /// Verifies every shard's bookkeeping (see
    /// [`Cache::check_invariants`]) and that the published age is the
    /// pooled age of the shards' windows.
    pub fn check_invariants(&self) -> Result<(), InvariantViolation> {
        for (i, shard) in self.each_shard().enumerate() {
            shard.cache.check_invariants()?;
            let windows = self.windows.lock().unwrap_or_else(PoisonError::into_inner);
            if windows.per_shard[i] != shard.cache.expiration_window() {
                return Err(InvariantViolation::PublishedAge { shard: Some(i) });
            }
        }
        let windows = self.windows.lock().unwrap_or_else(PoisonError::into_inner);
        let pooled = pooled_expiration_age(windows.per_shard.iter().copied());
        // lint:allow(atomic-order) -- Acquire: pairs with the Release
        // store in `insert`; the table lock held here orders it anyway.
        let published = word_age(self.age.load(Ordering::Acquire));
        if windows.pooled() != pooled || published != pooled {
            return Err(InvariantViolation::PublishedAge { shard: None });
        }
        Ok(())
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

    /// Each shard's documents, in `DocId` order.
    fn docs_by_shard(c: &ConcurrentCache) -> Vec<Vec<u64>> {
        c.each_shard()
            .map(|shard| {
                let mut docs: Vec<u64> = Vec::new();
                shard.cache.for_each_resident(|e| docs.push(e.doc.as_u64()));
                docs.sort_unstable();
                docs
            })
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
        let mut serial_docs: Vec<u64> = Vec::new();
        serial.for_each_resident(|e| serial_docs.push(e.doc.as_u64()));
        serial_docs.sort_unstable();
        assert_eq!(docs_by_shard(&concurrent), vec![serial_docs]);
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
        let per_shard: Vec<usize> = c.each_shard().map(|shard| shard.cache.len()).collect();
        assert!(
            per_shard.iter().all(|&n| n > 0),
            "starved shard: {per_shard:?}"
        );
        assert_eq!(c.len(), 64);
        assert_eq!(c.used(), kb(64));
    }

    #[test]
    fn each_shard_holds_its_own_documents() {
        let c = concurrent(64, 4);
        for i in 0..48u64 {
            c.insert(d(i), kb(1), t(i));
        }
        // Reconstruct the expected layout: shard index, then DocId.
        let mut expected = vec![Vec::new(); 4];
        for i in 0..48u64 {
            expected[c.shard_of(d(i))].push(i);
        }
        assert_eq!(docs_by_shard(&c), expected, "shard-by-shard documents");
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
        let samples: u64 = c
            .each_shard()
            .map(|shard| shard.cache.eviction_count())
            .sum();
        assert_eq!(s.evictions, samples);
        // eq. 5 over the union of the windows: every sample, weighted once.
        let (sum, len) = c
            .each_shard()
            .map(|shard| shard.cache.expiration_window())
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

    /// The published age against the pooled value recomputed from every
    /// shard's window, after every insert: shard counts 1, 4 and 64, an
    /// eviction-count and a duration window, LRU and S3-FIFO (whose ghost
    /// re-admissions record samples without an eviction).
    #[test]
    fn published_age_is_the_pooled_age_after_every_insert() {
        use crate::expiration::ExpirationWindow;
        let windows = [
            ExpirationWindow::LastEvictions(8),
            ExpirationWindow::LastDuration(DurationMs::from_millis(40)),
        ];
        for shards in [1, 4, 64] {
            for window in windows {
                for policy in [PolicyKind::Lru, PolicyKind::S3Fifo] {
                    let case = format!("{shards} shards, {window}, {policy:?}");
                    let c = CacheConfig::new(CacheId::new(0), kb(128), policy)
                        .shards(shards)
                        .window(window)
                        .build_concurrent();
                    assert_eq!(c.expiration_age(), ExpirationAge::Infinite, "{case}");
                    let mut state = 0x9E37_79B9_7F4A_7C15u64;
                    for i in 0..3_000u64 {
                        state = mix64(state ^ i);
                        // A skewed stream over 400 documents: repeats hit,
                        // returns after eviction exercise the ghost queue.
                        let doc = d(state % 400 % (1 + (state >> 32) % 400));
                        c.insert(doc, kb(1 + (state >> 16) % 3), t(i));
                        c.lookup(doc, t(i));
                        let pooled = pooled_expiration_age(
                            c.each_shard().map(|shard| shard.cache.expiration_window()),
                        );
                        assert_eq!(c.expiration_age(), pooled, "{case}: insert #{i}");
                    }
                    assert!(c.expiration_age().as_finite().is_some(), "{case}");
                    c.check_invariants().expect("the published age is exact");
                }
            }
        }
    }

    #[test]
    fn published_age_words_keep_infinite_apart_from_every_finite_age() {
        for age in [
            ExpirationAge::Infinite,
            ExpirationAge::finite(DurationMs::from_millis(0)),
            ExpirationAge::finite(DurationMs::from_millis(MAX_FINITE_AGE_MS)),
        ] {
            assert_eq!(word_age(age_word(age)), age);
        }
        assert_ne!(
            age_word(ExpirationAge::finite(DurationMs::from_millis(
                MAX_FINITE_AGE_MS
            ))),
            age_word(ExpirationAge::Infinite)
        );
        // The saturation the word relies on: no pooled mean reaches it.
        assert_eq!(
            pooled_expiration_age([(u128::from(u64::MAX) * 3, 3)]),
            ExpirationAge::finite(DurationMs::from_millis(MAX_FINITE_AGE_MS))
        );
    }

    #[test]
    fn document_operations_take_one_lock_and_the_age_takes_none() {
        let c = concurrent(16, 4);
        for i in 0..40u64 {
            c.insert(d(i), kb(1), t(i));
        }
        let before = c.contention();
        for i in 0..40u64 {
            let _ = c.lookup(d(i), t(100 + i));
            let _ = c.serve_remote(d(i), t(100 + i), true);
            let _ = c.contains(d(i));
            let _ = c.expiration_age();
            let _ = c.expiration_flavor();
        }
        assert_eq!(c.contention().acquisitions - before.acquisitions, 3 * 40);
        assert_eq!(c.contention(), c.contention(), "reading counts nothing");
    }

    #[test]
    fn check_invariants_catches_a_stale_published_age() {
        let c = concurrent(4, 2);
        for i in 0..20u64 {
            c.insert(d(i), kb(1), t(i));
        }
        c.check_invariants().expect("consistent");
        c.age
            .store(age_word(ExpirationAge::Infinite), Ordering::Relaxed);
        assert_eq!(
            c.check_invariants(),
            Err(InvariantViolation::PublishedAge { shard: None })
        );
        c.age.store(
            age_word(c.windows.lock().unwrap().pooled()),
            Ordering::Relaxed,
        );
        c.windows.lock().unwrap().set(1, (0, 0));
        assert!(matches!(
            c.check_invariants(),
            Err(InvariantViolation::PublishedAge { shard: Some(1) })
        ));
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
