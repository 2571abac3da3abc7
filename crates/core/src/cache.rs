//! A single byte-capacity-bounded proxy cache: the arena-backed document
//! store and its audited front.

use crate::config::CacheConfig;
use crate::entry::{CacheEntry, EvictionReason, EvictionRecord};
use crate::expiration::{ExpirationTracker, ExpirationWindow};
use crate::index::{DocTable, Slab};
use crate::policy::{Policy, PolicyKind};
use crate::stats::CacheStats;
use coopcache_types::{ByteSize, CacheId, DocId, DurationMs, ExpirationAge, Timestamp};
use std::fmt;

/// One proxy cache: a byte-bounded document store with a pluggable
/// replacement policy and expiration-age accounting.
///
/// The cache exposes exactly the three access paths the cooperative
/// protocol needs:
///
/// * [`lookup`](Cache::lookup) — a local client request (counts as a hit
///   and refreshes the entry);
/// * [`contains`](Cache::contains) — an ICP probe (read-only);
/// * [`serve_remote`](Cache::serve_remote) — serving a sibling, where the
///   EA scheme decides via `promote` whether the serve refreshes the
///   entry or leaves it to age out (paper §3.4).
///
/// # Storage layout
///
/// Each document lives exactly once: one slot of a dense `Slab` arena
/// holding its 40-byte [`CacheEntry`], with the slot's 8-byte policy word
/// in a second dense array beside it, found through the cache's one
/// open-addressing `DocTable`, whose 8-byte buckets hold a hash
/// fragment and the slot but not the key. The table grows at ¼ load
/// while it is at most 2^15 buckets (256 KB) and at ½ beyond, so the
/// ICP probes that find nothing, the protocol's commonest store call,
/// usually stop at their first bucket. The replacement policy orders
/// those same slots — list links or a heap position in the policy word —
/// so a hit is one table probe, one entry write and a relink that stays
/// in the word array, and an evicting insert drops its victim by slot.
/// Every hot-path operation is pointer-free O(1) (O(log n) for the
/// heap-ordered policies). Once the backing vectors reach steady-state
/// capacity, only an insert with two or more victims allocates (its
/// [`Evictions`]). The public mutators are the one place those
/// operations are audited (`paranoid` feature);
/// [`crate::ConcurrentCache`] routes documents over 2^k caches, one lock
/// each, and calls the same methods.
///
/// # Example
///
/// ```
/// use coopcache_core::{Cache, PolicyKind};
/// use coopcache_types::{ByteSize, CacheId, DocId, Timestamp};
///
/// let mut cache = Cache::new(CacheId::new(0), ByteSize::from_kb(8), PolicyKind::Lru);
/// let now = Timestamp::from_secs(1);
/// cache.insert(DocId::new(1), ByteSize::from_kb(4), now);
/// assert!(cache.lookup(DocId::new(1), now).is_some());
/// assert!(cache.lookup(DocId::new(2), now).is_none());
/// ```
#[derive(Debug)]
pub struct Cache {
    id: CacheId,
    // Position among a sharded cache's shards, read by the paranoid panic
    // message only.
    #[cfg_attr(not(feature = "paranoid"), allow(dead_code))]
    shard_index: usize,
    capacity: ByteSize,
    used: ByteSize,
    nodes: Slab<CacheEntry>,
    table: DocTable,
    policy: Policy,
    tracker: ExpirationTracker,
    stats: CacheStats,
    ttl: Option<DurationMs>,
}

/// A broken internal invariant, as reported by
/// [`Cache::check_invariants`]. Each variant names the bookkeeping
/// relation that failed and carries the observed values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvariantViolation {
    /// `used` does not equal the sum of the stored entry sizes.
    ByteAccounting {
        /// The cache's running byte counter.
        used: ByteSize,
        /// The recomputed sum over all entries.
        actual: ByteSize,
    },
    /// More bytes stored than the configured capacity.
    OverCapacity {
        /// The cache's running byte counter.
        used: ByteSize,
        /// The configured limit.
        capacity: ByteSize,
    },
    /// The doc→slot table and the entry arena disagree about occupancy.
    StoreDesync {
        /// Mappings in the open-addressing table.
        table_len: usize,
        /// Live slots in the entry arena.
        arena_len: usize,
    },
    /// A doc→slot table bucket points at a free slot, carries a hash
    /// fragment other than its document's, or is not where a probe for
    /// its document lands.
    TableBucket {
        /// The bucket's index in the table.
        bucket: usize,
        /// The arena slot it points at.
        slot: u32,
    },
    /// The replacement policy tracks a different document set than the
    /// entry store.
    PolicyDesync {
        /// Documents the policy tracks.
        policy_len: usize,
        /// Documents the entry store holds.
        entries_len: usize,
    },
    /// The policy proposed a victim slot that holds no cached document.
    VictimNotCached {
        /// The phantom victim's arena slot.
        slot: u32,
    },
    /// The cache is non-empty but the policy has no victim to offer.
    VictimUnavailable,
    /// The arena's policy-word array is not as long as the arena
    /// (`None`), or slot `Some(i)`'s word and entry disagree about whether
    /// the slot is free.
    PolicyWords {
        /// The slot whose two free marks disagree, if that is the fault.
        slot: Option<u32>,
    },
    /// The expiration-age tracker's window exceeds its configured bound
    /// or its running sum drifted from the recorded ages (paper eq. 5).
    TrackerWindow,
    /// A sharded cache's published eq. 5 age disagrees with its shards:
    /// shard `Some(i)`'s entry in the window table is not that shard's
    /// window, or (`None`) the published age is not the pooled age of
    /// the table.
    PublishedAge {
        /// The shard whose table entry is stale, if that is the fault.
        shard: Option<usize>,
    },
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ByteAccounting { used, actual } => {
                write!(
                    f,
                    "byte accounting drifted: used={used} but entries sum to {actual}"
                )
            }
            Self::OverCapacity { used, capacity } => {
                write!(f, "over capacity: used={used} > capacity={capacity}")
            }
            Self::StoreDesync {
                table_len,
                arena_len,
            } => write!(
                f,
                "doc table maps {table_len} docs but the arena holds {arena_len}"
            ),
            Self::TableBucket { bucket, slot } => write!(
                f,
                "doc table bucket {bucket} (slot {slot}) does not map its slot's document"
            ),
            Self::PolicyDesync {
                policy_len,
                entries_len,
            } => write!(
                f,
                "policy tracks {policy_len} docs but the cache holds {entries_len}"
            ),
            Self::VictimNotCached { slot } => {
                write!(f, "policy victim slot {slot} holds no cached document")
            }
            Self::VictimUnavailable => {
                f.write_str("cache is non-empty but the policy offers no victim")
            }
            Self::PolicyWords { slot: None } => {
                f.write_str("the arena's policy-word array and entries differ in length")
            }
            Self::PolicyWords { slot: Some(slot) } => write!(
                f,
                "slot {slot}'s policy word and entry disagree about whether it is free"
            ),
            Self::TrackerWindow => {
                f.write_str("expiration-age tracker window bounds or sums are inconsistent")
            }
            Self::PublishedAge { shard: Some(i) } => {
                write!(
                    f,
                    "window table entry of shard {i} is not that shard's window"
                )
            }
            Self::PublishedAge { shard: None } => {
                f.write_str("published expiration age is not the pooled age of the shard windows")
            }
        }
    }
}

/// The victims of one [`Cache::insert`], in eviction order.
///
/// Held inline: an insert that evicts nothing or one document — every
/// insert of a full cache of equal-size documents — allocates nothing;
/// only a multi-victim insert moves its records into a `Vec`. It reads
/// as a slice (it derefs to `[EvictionRecord]`), compares as one, and its
/// `Debug` form is that of `Vec<EvictionRecord>`.
#[derive(Clone, Default)]
pub struct Evictions(Victims);

#[derive(Clone, Default)]
enum Victims {
    #[default]
    None,
    One(EvictionRecord),
    Many(Vec<EvictionRecord>),
}

impl Evictions {
    fn push(&mut self, record: EvictionRecord) {
        match &mut self.0 {
            Victims::Many(records) => records.push(record),
            Victims::One(first) => {
                let first = *first;
                self.0 = Victims::Many(vec![first, record]);
            }
            Victims::None => self.0 = Victims::One(record),
        }
    }
}

impl std::ops::Deref for Evictions {
    type Target = [EvictionRecord];

    fn deref(&self) -> &[EvictionRecord] {
        match &self.0 {
            Victims::None => &[],
            Victims::One(record) => std::slice::from_ref(record),
            Victims::Many(records) => records,
        }
    }
}

impl From<Vec<EvictionRecord>> for Evictions {
    fn from(records: Vec<EvictionRecord>) -> Self {
        Self(match records.len() {
            0 => Victims::None,
            1 => Victims::One(records[0]),
            _ => Victims::Many(records),
        })
    }
}

impl PartialEq for Evictions {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Evictions {}

impl fmt::Debug for Evictions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// Outcome of a [`Cache::insert`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The document was stored; the listed victims were evicted to make
    /// room (possibly none).
    Stored(Evictions),
    /// The document was already cached; nothing changed.
    AlreadyPresent,
    /// The document is larger than the whole cache and was not stored.
    TooLarge,
}

impl InsertOutcome {
    /// True when the insert stored the document.
    #[must_use]
    pub fn is_stored(&self) -> bool {
        matches!(self, Self::Stored(_))
    }

    /// The evictions the insert caused (empty unless `Stored`).
    #[must_use]
    pub fn evictions(&self) -> &[EvictionRecord] {
        match self {
            Self::Stored(e) => e,
            _ => &[],
        }
    }
}

impl Cache {
    /// Creates a cache with the default expiration-age window.
    ///
    /// The expiration-age *flavor* (LRU formula vs LFU formula) follows the
    /// replacement policy, per the paper's eq. 1. For the window and TTL
    /// knobs use [`CacheConfig`].
    #[must_use]
    pub fn new(id: CacheId, capacity: ByteSize, policy: PolicyKind) -> Self {
        CacheConfig::new(id, capacity, policy).build()
    }

    /// Builds an empty cache (called by [`CacheConfig`]); `shard_index` is
    /// its position when it is one shard of a [`crate::ConcurrentCache`].
    pub(crate) fn build(
        id: CacheId,
        shard_index: usize,
        capacity: ByteSize,
        policy: PolicyKind,
        window: ExpirationWindow,
        table_seed: u64,
    ) -> Self {
        Self {
            id,
            shard_index,
            capacity,
            used: ByteSize::ZERO,
            nodes: Slab::new(),
            table: DocTable::new(table_seed),
            policy: policy.build(),
            tracker: ExpirationTracker::new(policy.expiration_flavor(), window),
            stats: CacheStats::default(),
            ttl: None,
        }
    }

    /// Sets (or clears) a freshness TTL: a document older than `ttl`
    /// since it entered the cache is discarded on access instead of
    /// served — the simplest form of the cache-coherence mechanisms the
    /// paper lists as orthogonal related work.
    ///
    /// Expirations do **not** feed the expiration-age tracker: that
    /// tracker measures *capacity* contention (paper eq. 5), and a
    /// freshness discard says nothing about disk pressure.
    pub fn set_ttl(&mut self, ttl: Option<DurationMs>) {
        self.ttl = ttl;
    }

    /// The configured freshness TTL, if any.
    #[must_use]
    pub fn ttl(&self) -> Option<DurationMs> {
        self.ttl
    }

    /// This cache's id.
    #[must_use]
    pub fn id(&self) -> CacheId {
        self.id
    }

    /// Configured capacity in bytes.
    #[must_use]
    pub fn capacity(&self) -> ByteSize {
        self.capacity
    }

    /// Bytes currently stored.
    #[must_use]
    pub fn used(&self) -> ByteSize {
        self.used
    }

    /// Number of cached documents.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The replacement policy in use.
    #[must_use]
    pub fn policy_kind(&self) -> PolicyKind {
        self.policy.kind()
    }

    /// Read-only ICP probe: is the document cached here?
    #[inline]
    #[must_use]
    pub fn contains(&self, doc: DocId) -> bool {
        self.table.get(doc, &self.nodes).is_some()
    }

    /// Read-only view of a cached entry.
    #[must_use]
    pub fn entry(&self, doc: DocId) -> Option<&CacheEntry> {
        self.table
            .get(doc, &self.nodes)
            .map(|slot| self.nodes.get(slot))
    }

    /// Operation counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Total capacity-contention samples (evictions plus observed ghost
    /// re-admission gaps) recorded over the cache's lifetime.
    #[must_use]
    pub fn eviction_count(&self) -> u64 {
        self.tracker.eviction_count()
    }

    /// Mean document expiration age over *all* samples so far — the
    /// quantity averaged across caches in the paper's Table 1. `None`
    /// before anything has been evicted.
    #[must_use]
    pub fn lifetime_average(&self) -> Option<DurationMs> {
        self.tracker.lifetime_average()
    }

    /// The expiration-age formula the cache's tracker applies (follows the
    /// replacement policy, paper eq. 1).
    #[must_use]
    pub fn expiration_flavor(&self) -> crate::policy::ExpirationFlavor {
        self.policy_kind().expiration_flavor()
    }

    /// The cache expiration age piggybacked on inter-proxy messages
    /// (paper eq. 5): the tracker's windowed mean.
    #[must_use]
    pub fn expiration_age(&self) -> ExpirationAge {
        self.tracker.cache_expiration_age()
    }

    /// This cache's eq. 5 window as (sum of ages in ms, number of ages),
    /// for [`crate::ConcurrentCache`] to pool across its shards.
    pub(crate) fn expiration_window(&self) -> (u128, usize) {
        (self.tracker.window_sum_ms(), self.tracker.window_len())
    }

    /// Serves a local client request. On a hit the entry is refreshed
    /// (last-hit time, hit counter, policy promotion) and its size is
    /// returned; on a miss, `None`.
    #[inline]
    pub fn lookup(&mut self, doc: DocId, now: Timestamp) -> Option<ByteSize> {
        let served = self.lookup_raw(doc, now);
        self.audit();
        served
    }

    /// Serves a sibling cache (a remote hit at this responder).
    ///
    /// With `promote == true` the serve counts as a hit exactly like a
    /// local lookup (the ad-hoc behaviour, and the EA behaviour when this
    /// responder's copy is the longer-lived one). With `promote == false`
    /// the entry is left completely untouched, so the redundant replica
    /// ages out (the EA behaviour when the requester keeps a copy).
    ///
    /// Returns the document size, or `None` if the document is not here
    /// (e.g. it was evicted between the ICP reply and the HTTP request).
    #[inline]
    pub fn serve_remote(&mut self, doc: DocId, now: Timestamp, promote: bool) -> Option<ByteSize> {
        let served = self.serve_remote_raw(doc, now, promote);
        self.audit();
        served
    }

    /// Stores a document, evicting victims as needed.
    ///
    /// Every eviction is fed to the expiration-age tracker and returned to
    /// the caller (the simulator logs them). A document wider than the
    /// cache is rejected rather than flushing everything.
    pub fn insert(&mut self, doc: DocId, size: ByteSize, now: Timestamp) -> InsertOutcome {
        let outcome = self.insert_raw(doc, size, now);
        self.audit();
        outcome
    }

    /// Explicitly removes a document (tests, tools, invalidation).
    ///
    /// The removal is recorded with [`EvictionReason::Explicit`] and fed
    /// to the expiration-age tracker like any other departure.
    pub fn remove(&mut self, doc: DocId, now: Timestamp) -> Option<EvictionRecord> {
        let rec = self
            .table
            .get(doc, &self.nodes)
            .map(|slot| self.evict(slot, now, EvictionReason::Explicit));
        if rec.is_some() {
            self.stats.explicit_removals += 1;
        }
        self.audit();
        rec
    }

    /// Calls `f` on every cached document, in arena slot order.
    ///
    /// Slot order is a pure function of the operation sequence (so a walk
    /// is reproducible) but not a semantic order: it follows which slots
    /// were freed and reused. The walk is a closure, not an `Iterator`, so
    /// it cannot be collected, zipped or sorted into something whose order
    /// escapes; fold it into an order-free value (a sum, a count, a Bloom
    /// filter). A closure that pushes into a `Vec` still compiles, so such
    /// a caller must sort what it collected.
    pub fn for_each_resident(&self, mut f: impl FnMut(&CacheEntry)) {
        for (_, entry) in self.nodes.iter_unordered() {
            f(entry);
        }
    }

    /// Verifies the cache's internal bookkeeping relations:
    ///
    /// 1. `used` equals the sum of all stored entry sizes;
    /// 2. `used <= capacity`;
    /// 3. the doc→slot table and the entry arena agree on occupancy, and
    ///    every table bucket points at a live slot, carries the hash
    ///    fragment of that slot's document and is where a probe for the
    ///    document lands; the policy-word array is as long as the arena,
    ///    and a slot's word is marked free exactly when its entry is;
    /// 4. the replacement policy orders as many slots as the arena holds,
    ///    and its proposed victim is a live slot the table maps its
    ///    document to — with a victim available whenever the cache is
    ///    non-empty;
    /// 5. the expiration-age tracker's window respects its configured
    ///    bound and its running sums match the recorded ages (the inputs
    ///    to the paper's eq. 5).
    ///
    /// This is cheap enough for tests but linear in the cache size, so
    /// production paths only run it under the `paranoid` cargo feature
    /// (after every mutation, where any bookkeeping corruption aborts
    /// immediately instead of silently skewing the EA-vs-ad-hoc
    /// comparison; that audit additionally walks the arena's freelist).
    pub fn check_invariants(&self) -> Result<(), InvariantViolation> {
        let actual: ByteSize = self.nodes.iter_unordered().map(|(_, e)| e.size).sum();
        if actual != self.used {
            return Err(InvariantViolation::ByteAccounting {
                used: self.used,
                actual,
            });
        }
        if self.used > self.capacity {
            return Err(InvariantViolation::OverCapacity {
                used: self.used,
                capacity: self.capacity,
            });
        }
        if self.table.len() != self.nodes.len() {
            return Err(InvariantViolation::StoreDesync {
                table_len: self.table.len(),
                arena_len: self.nodes.len(),
            });
        }
        if let Err((bucket, slot)) = self.table.audit(&self.nodes) {
            return Err(InvariantViolation::TableBucket { bucket, slot });
        }
        if let Err(slot) = self.nodes.audit_words() {
            return Err(InvariantViolation::PolicyWords { slot });
        }
        if self.policy.len() != self.nodes.len() {
            return Err(InvariantViolation::PolicyDesync {
                policy_len: self.policy.len(),
                entries_len: self.nodes.len(),
            });
        }
        match self.policy.victim(&self.nodes) {
            Some(slot) => {
                let mapped = self
                    .nodes
                    .live(slot)
                    .map(|entry| self.table.get(entry.doc, &self.nodes));
                if mapped != Some(Some(slot)) {
                    return Err(InvariantViolation::VictimNotCached { slot });
                }
            }
            None if !self.is_empty() => return Err(InvariantViolation::VictimUnavailable),
            None => {}
        }
        if !self.tracker.window_is_consistent() {
            return Err(InvariantViolation::TrackerWindow);
        }
        Ok(())
    }

    /// Times the store's backing vectors grew, summed over the arena, the
    /// table and the policy's own storage: 0 once the cache reaches
    /// steady-state occupancy (the `store_scale` integration test asserts
    /// exactly that).
    #[must_use]
    pub fn growth_events(&self) -> u64 {
        self.nodes.growth_events() + self.table.growth_events() + self.policy.growth_events()
    }
}

/// The raw store operations behind the public front.
impl Cache {
    fn entry_expired(&self, entry: &CacheEntry, now: Timestamp) -> bool {
        self.ttl
            .is_some_and(|ttl| now.saturating_since(entry.entered_at) > ttl)
    }

    /// Takes `slot` out of the table, the policy order and the arena,
    /// returning its entry.
    fn detach(&mut self, slot: u32) -> CacheEntry {
        let doc = self.nodes.get(slot).doc;
        self.table.remove(doc, &self.nodes);
        self.policy.on_remove(&mut self.nodes, slot);
        let entry = self.nodes.free(slot);
        self.used -= entry.size;
        entry
    }

    fn expire(&mut self, slot: u32) {
        self.detach(slot);
        self.stats.expirations += 1;
        // Intentionally NOT recorded in the expiration-age tracker, and no
        // `on_evicted` ghosting: a freshness discard says nothing about
        // capacity contention (paper eq. 5 measures disk pressure).
    }

    #[inline]
    fn lookup_raw(&mut self, doc: DocId, now: Timestamp) -> Option<ByteSize> {
        // One probe serves both the staleness check and the hit: the
        // stale branch is the rare one, so the hot path is a single
        // table probe, one node access and the policy's relink.
        let Some(slot) = self.table.get(doc, &self.nodes) else {
            self.stats.local_misses += 1;
            return None;
        };
        if self.entry_expired(self.nodes.get(slot), now) {
            self.expire(slot);
            self.stats.local_misses += 1;
            return None;
        }
        let entry = self.nodes.get_mut(slot);
        entry.record_hit(now);
        let size = entry.size;
        self.policy.on_hit(&mut self.nodes, slot);
        self.stats.local_hits += 1;
        Some(size)
    }

    fn serve_remote_raw(&mut self, doc: DocId, now: Timestamp, promote: bool) -> Option<ByteSize> {
        let slot = self.table.get(doc, &self.nodes)?;
        if self.entry_expired(self.nodes.get(slot), now) {
            self.expire(slot);
            return None;
        }
        let entry = self.nodes.get_mut(slot);
        let size = entry.size;
        if promote {
            entry.record_hit(now);
            self.policy.on_hit(&mut self.nodes, slot);
        }
        self.stats.remote_serves += 1;
        Some(size)
    }

    /// Stores a document, evicting victims as needed (the returned list
    /// allocates only when there are two or more victims to report).
    fn insert_raw(&mut self, doc: DocId, size: ByteSize, now: Timestamp) -> InsertOutcome {
        if self.table.get(doc, &self.nodes).is_some() {
            return InsertOutcome::AlreadyPresent;
        }
        if size > self.capacity {
            self.stats.rejected_too_large += 1;
            return InsertOutcome::TooLarge;
        }
        let mut evictions = Evictions::default();
        while self.used + size > self.capacity {
            #[expect(
                clippy::expect_used,
                reason = "used > 0 here, and every insert keeps the policy and entry arena in \
                          lockstep (paranoid-audited), so a missing victim is unrecoverable \
                          bookkeeping corruption"
            )]
            let victim = self
                .policy
                .victim(&self.nodes)
                .expect("used > 0 implies the policy orders a victim");
            evictions.push(self.evict(victim, now, EvictionReason::CapacityPressure));
        }
        let slot = self.nodes.alloc(CacheEntry::new(doc, size, now));
        self.table.insert(doc, slot, &self.nodes);
        if let Some(gap) = self.policy.on_insert(&mut self.nodes, slot, now) {
            // Ghost re-admission (S3-FIFO): the eviction→return gap is an
            // observed inter-reference gap, fed to the eq. 5 average.
            self.tracker.record_age(now, gap);
        }
        self.used += size;
        self.stats.insertions += 1;
        InsertOutcome::Stored(evictions)
    }

    fn evict(&mut self, slot: u32, now: Timestamp, reason: EvictionReason) -> EvictionRecord {
        let entry = self.detach(slot);
        let record = EvictionRecord {
            entry,
            evicted_at: now,
            reason,
        };
        self.tracker.record_eviction(&record);
        if reason == EvictionReason::CapacityPressure {
            self.stats.evictions += 1;
            self.stats.bytes_evicted += entry.size;
            // Capacity evictions (and only those) enter the policy's ghost
            // plane: explicit removals and TTL expirations are not
            // contention signals.
            self.policy.on_evicted(entry.doc, now);
        }
        record
    }

    /// Paranoid-mode hook: re-verifies every invariant after a mutation,
    /// including the arena freelist walk (which panics directly on
    /// corruption rather than returning a violation).
    #[inline]
    fn audit(&self) {
        #[cfg(feature = "paranoid")]
        #[expect(
            clippy::panic,
            reason = "paranoid mode exists to crash loudly on corruption; release builds \
                      compile this block out"
        )]
        {
            if let Err(violation) = self.check_invariants() {
                panic!(
                    "cache {} shard {} invariant violated: {violation}",
                    self.id, self.shard_index
                );
            }
            self.nodes.audit_freelist();
        }
    }
}

/// Views into the store for the policy modules' tests.
#[cfg(test)]
impl Cache {
    /// The document the policy would evict next.
    pub(crate) fn victim(&self) -> Option<DocId> {
        let slot = self.policy.victim(&self.nodes)?;
        Some(self.nodes.get(slot).doc)
    }

    /// A cached document's policy word.
    pub(crate) fn links(&self, doc: DocId) -> Option<crate::index::Links> {
        self.table
            .get(doc, &self.nodes)
            .map(|slot| self.nodes.links(slot))
    }

    pub(crate) fn policy(&self) -> &Policy {
        &self.policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::EvictionReason;

    fn d(i: u64) -> DocId {
        DocId::new(i)
    }

    fn t(ms: u64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    fn kb(n: u64) -> ByteSize {
        ByteSize::from_kb(n)
    }

    fn cache(cap_kb: u64) -> Cache {
        Cache::new(CacheId::new(0), kb(cap_kb), PolicyKind::Lru)
    }

    #[test]
    fn insert_lookup_roundtrip() {
        let mut c = cache(10);
        assert!(c.insert(d(1), kb(4), t(0)).is_stored());
        assert_eq!(c.lookup(d(1), t(10)), Some(kb(4)));
        assert_eq!(c.lookup(d(2), t(10)), None);
        assert_eq!(c.used(), kb(4));
        assert_eq!(c.len(), 1);
        assert!(c.contains(d(1)));
        assert!(!c.contains(d(2)));
    }

    #[test]
    fn insert_evicts_lru_victim() {
        let mut c = cache(10);
        c.insert(d(1), kb(4), t(0));
        c.insert(d(2), kb(4), t(1));
        c.lookup(d(1), t(2)); // doc 2 is now the LRU victim
        let out = c.insert(d(3), kb(4), t(3));
        let evs = out.evictions();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].entry.doc, d(2));
        assert!(!c.contains(d(2)));
        assert!(c.contains(d(1)) && c.contains(d(3)));
        assert_eq!(c.used(), kb(8));
    }

    #[test]
    fn insert_can_evict_multiple_victims() {
        let mut c = cache(10);
        c.insert(d(1), kb(3), t(0));
        c.insert(d(2), kb(3), t(1));
        c.insert(d(3), kb(3), t(2));
        let out = c.insert(d(4), kb(8), t(3));
        assert_eq!(out.evictions().len(), 3);
        assert_eq!(c.len(), 1);
        assert!(c.contains(d(4)));
    }

    #[test]
    fn stored_victims_print_and_compare_like_a_vec() {
        /// `InsertOutcome::Stored` as it was declared, with a `Vec`; only
        /// ever read through `Debug`.
        #[derive(Debug)]
        #[allow(dead_code)]
        enum VecOutcome {
            Stored(Vec<EvictionRecord>),
        }
        // An insert that fits (0 victims), a wide one evicting three, and
        // a plain eviction (1).
        let mut c = cache(10);
        let none = c.insert(d(1), kb(3), t(0));
        c.insert(d(2), kb(3), t(1));
        c.insert(d(3), kb(3), t(2));
        let three = c.insert(d(4), kb(8), t(3));
        let one = c.insert(d(5), kb(4), t(4));
        for (outcome, victims) in [(none, 0), (one, 1), (three, 3)] {
            let records = outcome.evictions().to_vec();
            assert_eq!(records.len(), victims);
            let old = VecOutcome::Stored(records.clone());
            assert_eq!(format!("{outcome:?}"), format!("{old:?}"));
            assert_eq!(format!("{outcome:#?}"), format!("{old:#?}"));
            assert_eq!(outcome, InsertOutcome::Stored(records.into()));
        }
    }

    #[test]
    fn oversized_document_is_rejected() {
        let mut c = cache(4);
        c.insert(d(1), kb(2), t(0));
        let out = c.insert(d(2), kb(5), t(1));
        assert_eq!(out, InsertOutcome::TooLarge);
        assert!(c.contains(d(1)), "rejection must not flush the cache");
        assert_eq!(c.stats().rejected_too_large, 1);
    }

    #[test]
    fn duplicate_insert_is_noop() {
        let mut c = cache(10);
        c.insert(d(1), kb(4), t(0));
        assert_eq!(c.insert(d(1), kb(4), t(5)), InsertOutcome::AlreadyPresent);
        assert_eq!(c.used(), kb(4));
        assert_eq!(c.stats().insertions, 1);
    }

    #[test]
    fn exact_fit_does_not_evict() {
        let mut c = cache(8);
        c.insert(d(1), kb(4), t(0));
        let out = c.insert(d(2), kb(4), t(1));
        assert!(out.evictions().is_empty());
        assert_eq!(c.used(), kb(8));
    }

    #[test]
    fn serve_remote_with_promotion_refreshes() {
        let mut c = cache(8);
        c.insert(d(1), kb(4), t(0));
        c.insert(d(2), kb(4), t(1));
        // Promoting remote serve makes doc 1 the most recent...
        assert_eq!(c.serve_remote(d(1), t(2), true), Some(kb(4)));
        // ...so doc 2 is the next victim.
        let out = c.insert(d(3), kb(4), t(3));
        assert_eq!(out.evictions()[0].entry.doc, d(2));
        assert_eq!(c.entry(d(1)).unwrap().hit_count, 2);
    }

    #[test]
    fn serve_remote_without_promotion_leaves_entry_cold() {
        let mut c = cache(8);
        c.insert(d(1), kb(4), t(0));
        c.insert(d(2), kb(4), t(1));
        // Non-promoting serve: doc 1 stays the LRU victim.
        assert_eq!(c.serve_remote(d(1), t(2), false), Some(kb(4)));
        assert_eq!(c.entry(d(1)).unwrap().hit_count, 1);
        assert_eq!(c.entry(d(1)).unwrap().last_hit_at, t(0));
        let out = c.insert(d(3), kb(4), t(3));
        assert_eq!(out.evictions()[0].entry.doc, d(1));
    }

    #[test]
    fn serve_remote_missing_doc() {
        let mut c = cache(8);
        assert_eq!(c.serve_remote(d(1), t(0), true), None);
        assert_eq!(c.stats().remote_serves, 0);
    }

    #[test]
    fn eviction_feeds_expiration_tracker() {
        let mut c = cache(4);
        assert_eq!(c.expiration_age(), ExpirationAge::Infinite);
        c.insert(d(1), kb(4), t(0));
        c.lookup(d(1), t(1_000));
        c.insert(d(2), kb(4), t(3_000)); // evicts doc 1, age 2000ms
        assert_eq!(
            c.expiration_age(),
            ExpirationAge::finite(coopcache_types::DurationMs::from_secs(2))
        );
        assert_eq!(c.eviction_count(), 1);
    }

    #[test]
    fn s3fifo_ghost_readmission_feeds_the_eq5_tracker() {
        // The S3-FIFO ghost queue is wired into the shard's expiration-age
        // bookkeeping: re-admitting a ghosted doc reports its
        // eviction→return gap as one extra capacity-contention sample
        // (paper eq. 5), on top of the eviction samples themselves.
        let mut c = Cache::new(CacheId::new(0), kb(4), PolicyKind::S3Fifo);
        c.insert(d(1), kb(1), t(0));
        // Fill past capacity: doc 1 washes out of the small queue into
        // the ghost queue.
        for i in 2..=6u64 {
            c.insert(d(i), kb(1), t(i * 100));
        }
        assert!(c.entry(d(1)).is_none(), "doc 1 was evicted");
        let evictions = c.stats().evictions;
        let samples = c.eviction_count();
        assert_eq!(samples, evictions, "so far every sample is an eviction");
        // Re-admission within the ghost window: one insert, one extra
        // observed-gap sample beyond the eviction it may itself cause.
        c.insert(d(1), kb(1), t(2_000));
        let new_evictions = c.stats().evictions;
        assert_eq!(
            c.eviction_count(),
            new_evictions + 1,
            "the ghost gap is an extra eq. 5 sample"
        );
    }

    #[test]
    fn explicit_remove_returns_record() {
        let mut c = cache(8);
        c.insert(d(1), kb(4), t(0));
        let rec = c.remove(d(1), t(500)).expect("doc was cached");
        assert_eq!(rec.reason, EvictionReason::Explicit);
        assert_eq!(rec.entry.doc, d(1));
        assert!(c.is_empty());
        assert_eq!(c.used(), ByteSize::ZERO);
        assert_eq!(c.remove(d(1), t(501)), None);
        assert_eq!(c.stats().explicit_removals, 1);
        // Capacity-pressure counter untouched by explicit removals.
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let mut c = cache(8);
        c.insert(d(1), kb(4), t(0));
        c.lookup(d(1), t(1));
        c.lookup(d(2), t(2));
        c.lookup(d(1), t(3));
        let s = c.stats();
        assert_eq!(s.local_hits, 2);
        assert_eq!(s.local_misses, 1);
        assert_eq!(s.insertions, 1);
    }

    #[test]
    fn bytes_accounting_is_exact_under_churn() {
        let mut c = cache(100);
        for i in 0..1000u64 {
            c.insert(d(i), kb(1 + i % 7), t(i));
        }
        let mut manual = ByteSize::ZERO;
        c.for_each_resident(|e| manual += e.size);
        assert_eq!(c.used(), manual);
        assert!(c.used() <= c.capacity());
    }

    #[test]
    fn iter_yields_all_entries() {
        let mut c = cache(10);
        c.insert(d(1), kb(2), t(0));
        c.insert(d(2), kb(2), t(1));
        let mut ids: Vec<u64> = Vec::new();
        c.for_each_resident(|e| ids.push(e.doc.as_u64()));
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2]);
    }

    #[test]
    fn iter_unordered_yields_each_resident_once_after_slot_reuse() {
        // Evictions and removals free arena slots that later inserts
        // reuse; the last removals leave some of them vacant. The arena's
        // `iter_unordered` is walked through `for_each_resident`.
        let mut c = cache(20);
        for i in 0..500u64 {
            c.insert(d(i % 97), kb(1 + i % 5), t(i));
            if i % 7 == 0 {
                c.remove(d((i * 31) % 97), t(i));
            }
        }
        for i in 0..97u64 {
            if i % 3 == 0 {
                c.remove(d(i), t(500));
            }
        }
        let mut walked: Vec<DocId> = Vec::new();
        let mut bytes = ByteSize::ZERO;
        c.for_each_resident(|e| {
            walked.push(e.doc);
            bytes += e.size;
        });
        let set: std::collections::BTreeSet<DocId> = walked.iter().copied().collect();
        let residents: std::collections::BTreeSet<DocId> =
            (0..97u64).map(d).filter(|&doc| c.contains(doc)).collect();
        assert_eq!(walked.len(), set.len(), "a slot walked twice");
        assert_eq!(set, residents);
        assert_eq!(walked.len(), c.len());
        assert_eq!(bytes, c.used());
    }

    /// Every mutator runs the invariant audit under `paranoid`: with the
    /// byte count corrupted, each one panics instead of carrying on.
    #[cfg(feature = "paranoid")]
    #[test]
    fn every_mutator_runs_the_paranoid_audit() {
        fn assert_audited(name: &str, mutate: fn(&mut Cache)) {
            let mut c = cache(8);
            c.insert(d(1), kb(2), t(0));
            c.used += kb(1);
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| mutate(&mut c)))
                .expect_err(&format!("`{name}` skipped the audit"));
            let message = payload.downcast_ref::<String>().map_or("", String::as_str);
            assert!(message.contains("invariant violated"), "{name}: {message}");
        }
        assert_audited("lookup", |c| {
            let _ = c.lookup(d(1), t(1));
        });
        assert_audited("serve_remote", |c| {
            let _ = c.serve_remote(d(1), t(1), true);
        });
        assert_audited("insert", |c| {
            let _ = c.insert(d(2), kb(1), t(1));
        });
        assert_audited("remove", |c| {
            let _ = c.remove(d(1), t(1));
        });
    }

    #[test]
    fn ttl_expires_stale_documents_on_lookup() {
        let mut c = cache(8);
        c.set_ttl(Some(coopcache_types::DurationMs::from_secs(10)));
        assert_eq!(c.ttl(), Some(coopcache_types::DurationMs::from_secs(10)));
        c.insert(d(1), kb(4), t(0));
        // Fresh: served.
        assert!(c.lookup(d(1), t(9_000)).is_some());
        // Hits do not renew freshness (entered_at governs).
        assert!(c.lookup(d(1), t(10_001)).is_none());
        assert!(!c.contains(d(1)), "stale doc must be gone");
        assert_eq!(c.stats().expirations, 1);
        assert_eq!(c.used(), ByteSize::ZERO);
        // Expirations do not pollute the contention tracker.
        assert_eq!(c.eviction_count(), 0);
    }

    #[test]
    fn ttl_expires_on_remote_serve() {
        let mut c = cache(8);
        c.set_ttl(Some(coopcache_types::DurationMs::from_secs(1)));
        c.insert(d(1), kb(4), t(0));
        assert_eq!(c.serve_remote(d(1), t(5_000), true), None);
        assert!(!c.contains(d(1)));
        assert_eq!(c.stats().expirations, 1);
    }

    #[test]
    fn no_ttl_means_documents_never_expire() {
        let mut c = cache(8);
        c.insert(d(1), kb(4), t(0));
        assert!(c.lookup(d(1), t(u64::MAX / 2)).is_some());
        assert_eq!(c.stats().expirations, 0);
    }

    #[test]
    fn exact_ttl_boundary_is_still_fresh() {
        let mut c = cache(8);
        c.set_ttl(Some(coopcache_types::DurationMs::from_secs(10)));
        c.insert(d(1), kb(4), t(0));
        assert!(c.lookup(d(1), t(10_000)).is_some(), "age == ttl is fresh");
    }

    #[test]
    fn works_with_every_policy_kind() {
        for kind in PolicyKind::all() {
            let mut c = Cache::new(CacheId::new(1), kb(4), kind);
            assert_eq!(c.policy_kind(), kind);
            for i in 0..10u64 {
                c.insert(d(i), kb(2), t(i));
                if i % 2 == 0 {
                    c.lookup(d(i), t(i) + coopcache_types::DurationMs::from_millis(1));
                }
            }
            assert!(c.used() <= c.capacity());
            assert!(c.len() <= 2);
            assert!(c.eviction_count() >= 8);
        }
    }

    #[test]
    fn steady_state_churn_stops_growing() {
        let mut c = cache(64);
        for i in 0..64u64 {
            c.insert(d(i), kb(1), t(i));
        }
        let baseline = c.growth_events();
        for i in 64..4096u64 {
            c.insert(d(i), kb(1), t(i));
            c.lookup(d(i), t(i));
        }
        assert_eq!(
            c.growth_events(),
            baseline,
            "hot path must not grow backing vectors at steady state"
        );
    }
}
