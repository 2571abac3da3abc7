//! Document replacement policies: the victim orders of a cache.
//!
//! A cache keeps each document once — an arena slot holding its
//! [`crate::CacheEntry`], with the slot's 8-byte policy word in an array
//! beside the arena — and a policy orders those slots: which one should
//! be removed next under capacity pressure. No policy keeps a table of
//! its own; S3-FIFO's ghost queue, which remembers documents that are
//! *not* resident, is the one exception.
//!
//! Seven policies are provided, all intrusive-list or arena-heap backed
//! (pointer-free O(1), O(log n) for the heap-ordered family), chosen by
//! [`PolicyKind`]:
//!
//! * LRU — least recently used (the paper's evaluation policy);
//! * LFU — least frequently used, with LRU tie-breaking;
//! * FIFO — insertion order, hits do not refresh;
//! * GDSF — GreedyDual-Size-Frequency (Cao & Irani's cost-aware family,
//!   cited by the paper as related document-replacement work);
//! * GDS — plain GreedyDual-Size (the same family, no frequency);
//! * SLRU — segmented LRU, the scan-resistant LRU variant;
//! * S3-FIFO — Small/Main/Ghost three-queue FIFO whose ghost queue
//!   reports observed inter-reference gaps to the eq. 5 tracker.

mod fifo;
mod gds;
mod gdsf;
mod lfu;
mod lru;
mod s3fifo;
mod slru;

use crate::entry::CacheEntry;
use crate::index::Slab;
use coopcache_types::{DocId, DurationMs, Timestamp};
use std::fmt;

/// A victim order over a cache's arena slots.
///
/// The cache calls these in lockstep with its own bookkeeping: a slot is
/// inserted once after its node is allocated, hit only after its entry
/// recorded the hit (so LFU and GDSF read their frequency from the
/// entry's hit counter), and removed before its node is freed. Passing a
/// slot in the wrong state is a cache bug and panics.
pub(crate) trait VictimOrder {
    /// Starts ordering a newly stored slot. Policies that keep eviction
    /// history (the S3-FIFO ghost queue) return the observed gap between
    /// the document's last capacity eviction and this re-admission — the
    /// "observed inter-reference gap" the cache feeds into the eq. 5
    /// expiration-age tracker.
    fn on_insert(
        &mut self,
        nodes: &mut Slab<CacheEntry>,
        slot: u32,
        now: Timestamp,
    ) -> Option<DurationMs>;

    /// Records a hit (LRU promotes to the tail, LFU bumps frequency, FIFO
    /// ignores).
    fn on_hit(&mut self, nodes: &mut Slab<CacheEntry>, slot: u32);

    /// Stops ordering a slot (evicted, expired or explicitly removed).
    fn on_remove(&mut self, nodes: &mut Slab<CacheEntry>, slot: u32);

    /// The slot that should be evicted next, if any.
    fn victim(&self, nodes: &Slab<CacheEntry>) -> Option<u32>;

    /// Number of ordered slots.
    fn len(&self) -> usize;

    /// Capacity-eviction notice, called after [`on_remove`](Self::on_remove)
    /// only for capacity-pressure evictions, never for explicit removals
    /// or TTL expiry. Lets history-keeping policies start a ghost clock.
    fn on_evicted(&mut self, _doc: DocId, _now: Timestamp) {}

    /// Times the policy's own backing storage reallocated (0 in steady
    /// state).
    fn growth_events(&self) -> u64 {
        0
    }
}

/// One cache's victim order, dispatched by `match` rather than through a
/// trait object.
#[derive(Debug)]
pub(crate) enum Policy {
    Lru(lru::Lru),
    Lfu(lfu::Lfu),
    Fifo(fifo::Fifo),
    Gdsf(gdsf::Gdsf),
    Gds(gds::Gds),
    Slru(slru::Slru),
    S3Fifo(s3fifo::S3Fifo),
}

/// Runs `$body` with `$order` bound to the policy inside `$policy`.
macro_rules! dispatch {
    ($policy:expr, $order:ident => $body:expr) => {
        match $policy {
            Policy::Lru($order) => $body,
            Policy::Lfu($order) => $body,
            Policy::Fifo($order) => $body,
            Policy::Gdsf($order) => $body,
            Policy::Gds($order) => $body,
            Policy::Slru($order) => $body,
            Policy::S3Fifo($order) => $body,
        }
    };
}

impl Policy {
    #[inline]
    pub(crate) fn on_insert(
        &mut self,
        nodes: &mut Slab<CacheEntry>,
        slot: u32,
        now: Timestamp,
    ) -> Option<DurationMs> {
        dispatch!(self, order => order.on_insert(nodes, slot, now))
    }

    #[inline]
    pub(crate) fn on_hit(&mut self, nodes: &mut Slab<CacheEntry>, slot: u32) {
        dispatch!(self, order => order.on_hit(nodes, slot));
    }

    #[inline]
    pub(crate) fn on_remove(&mut self, nodes: &mut Slab<CacheEntry>, slot: u32) {
        dispatch!(self, order => order.on_remove(nodes, slot));
    }

    #[inline]
    pub(crate) fn victim(&self, nodes: &Slab<CacheEntry>) -> Option<u32> {
        dispatch!(self, order => order.victim(nodes))
    }

    pub(crate) fn len(&self) -> usize {
        dispatch!(self, order => order.len())
    }

    pub(crate) fn on_evicted(&mut self, doc: DocId, now: Timestamp) {
        dispatch!(self, order => order.on_evicted(doc, now));
    }

    pub(crate) fn growth_events(&self) -> u64 {
        dispatch!(self, order => order.growth_events())
    }

    pub(crate) fn kind(&self) -> PolicyKind {
        match self {
            Self::Lru(_) => PolicyKind::Lru,
            Self::Lfu(_) => PolicyKind::Lfu,
            Self::Fifo(_) => PolicyKind::Fifo,
            Self::Gdsf(_) => PolicyKind::Gdsf,
            Self::Gds(_) => PolicyKind::Gds,
            Self::Slru(_) => PolicyKind::Slru,
            Self::S3Fifo(_) => PolicyKind::S3Fifo,
        }
    }
}

/// Identifies a replacement policy; used in configuration and to select
/// the matching document-expiration-age formula (LRU-style or LFU-style).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PolicyKind {
    /// Least recently used.
    #[default]
    Lru,
    /// Least frequently used.
    Lfu,
    /// First in, first out.
    Fifo,
    /// GreedyDual-Size-Frequency.
    Gdsf,
    /// GreedyDual-Size (no frequency term).
    Gds,
    /// Segmented LRU.
    Slru,
    /// S3-FIFO-style Small/Main/Ghost three-queue policy.
    S3Fifo,
}

impl PolicyKind {
    /// An empty victim order of this kind.
    pub(crate) fn build(self) -> Policy {
        match self {
            Self::Lru => Policy::Lru(lru::Lru::default()),
            Self::Lfu => Policy::Lfu(lfu::Lfu::default()),
            Self::Fifo => Policy::Fifo(fifo::Fifo::default()),
            Self::Gdsf => Policy::Gdsf(gdsf::Gdsf::default()),
            Self::Gds => Policy::Gds(gds::Gds::default()),
            Self::Slru => Policy::Slru(slru::Slru::default()),
            Self::S3Fifo => Policy::S3Fifo(s3fifo::S3Fifo::default()),
        }
    }

    /// Whether the policy family keeps a last-hit timestamp (LRU-like) or
    /// a hit counter (LFU-like); decides which document-expiration-age
    /// formula applies (paper eq. 1).
    #[must_use]
    pub fn expiration_flavor(self) -> ExpirationFlavor {
        match self {
            Self::Lru | Self::Fifo | Self::Gds | Self::Slru | Self::S3Fifo => ExpirationFlavor::Lru,
            Self::Lfu | Self::Gdsf => ExpirationFlavor::Lfu,
        }
    }

    /// All provided policies, for sweeps and tests.
    #[must_use]
    pub const fn all() -> [PolicyKind; 7] {
        [
            Self::Lru,
            Self::Lfu,
            Self::Fifo,
            Self::Gdsf,
            Self::Gds,
            Self::Slru,
            Self::S3Fifo,
        ]
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Self::Lru => "lru",
            Self::Lfu => "lfu",
            Self::Fifo => "fifo",
            Self::Gdsf => "gdsf",
            Self::Gds => "gds",
            Self::Slru => "slru",
            Self::S3Fifo => "s3fifo",
        };
        f.write_str(name)
    }
}

/// Which document-expiration-age formula to apply (paper eq. 1): the
/// LRU formula (time since last hit) or the LFU formula (lifetime divided
/// by hit count).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExpirationFlavor {
    /// `DocExpAge = T_evict − T_last_hit` (eq. 2).
    #[default]
    Lru,
    /// `DocExpAge = (T_evict − T_enter) / HIT_COUNTER`.
    Lfu,
}

impl fmt::Display for ExpirationFlavor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Lru => f.write_str("lru-expiration-age"),
            Self::Lfu => f.write_str("lfu-expiration-age"),
        }
    }
}

/// Helpers for the policy modules' tests, which drive a whole [`Cache`].
///
/// [`Cache`]: crate::Cache
#[cfg(test)]
pub(crate) mod testing {
    use crate::entry::CacheEntry;
    use crate::index::Slab;
    use crate::{Cache, PolicyKind};
    use coopcache_types::{ByteSize, CacheId, DocId, Timestamp};

    pub(crate) fn d(i: u64) -> DocId {
        DocId::new(i)
    }

    pub(crate) fn t(ms: u64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    pub(crate) fn kb(n: u64) -> ByteSize {
        ByteSize::from_kb(n)
    }

    /// A cache of `cap_kb` under `kind`.
    pub(crate) fn cache(kind: PolicyKind, cap_kb: u64) -> Cache {
        Cache::new(CacheId::new(0), kb(cap_kb), kind)
    }

    /// Stores 1 KB documents `ids` at t = 0 ms.
    pub(crate) fn fill(c: &mut Cache, ids: impl IntoIterator<Item = u64>) {
        for i in ids {
            assert!(c.insert(d(i), kb(1), t(0)).is_stored());
        }
    }

    /// Removes the victim until the cache is empty, returning the order.
    pub(crate) fn drain(c: &mut Cache) -> Vec<u64> {
        let mut order = Vec::new();
        while let Some(v) = c.victim() {
            order.push(v.as_u64());
            c.remove(v, t(0));
        }
        assert!(c.is_empty());
        order
    }

    /// A one-node arena, for driving an order directly with a slot it
    /// does not track.
    pub(crate) fn lone_slot() -> (Slab<CacheEntry>, u32) {
        let mut nodes = Slab::new();
        let slot = nodes.alloc(CacheEntry::new(d(1), kb(1), t(0)));
        (nodes, slot)
    }

    /// Steady-state churn through a full 64-entry cache: each step stores
    /// a fresh document (evicting one) and hits every third. Returns the
    /// growth events after the first `warm` steps and at the end.
    pub(crate) fn churn_growth(kind: PolicyKind, warm: u64, steps: u64) -> (u64, u64) {
        let mut c = cache(kind, 64);
        fill(&mut c, 0..64);
        let mut baseline = 0;
        for step in 0..steps {
            if step == warm {
                baseline = c.growth_events();
            }
            let i = 64 + step;
            assert_eq!(c.insert(d(i), kb(1), t(i)).evictions().len(), 1);
            if i % 3 == 0 {
                c.lookup(d(i), t(i));
            }
        }
        (baseline, c.growth_events())
    }
}

#[cfg(test)]
mod tests {
    use super::testing::{cache, d, drain, fill, t};
    use super::*;

    #[test]
    fn all_policies_pass_common_contract() {
        for kind in PolicyKind::all() {
            let mut c = cache(kind, 1024);
            assert_eq!(c.victim(), None);
            fill(&mut c, 1..=3);
            c.check_invariants().expect("the policy orders every slot");
            let v = c.victim().expect("non-empty policy has a victim");
            assert!([d(1), d(2), d(3)].contains(&v));
            c.remove(v, t(1));
            c.check_invariants().expect("the policy orders every slot");
            assert_ne!(c.victim(), Some(v), "victim survived removal");
            assert_eq!(drain(&mut c).len(), 2);
            c.check_invariants()
                .expect("an empty policy offers no victim");
            assert_eq!(c.policy_kind(), kind);
        }
    }

    #[test]
    fn expiration_flavors() {
        assert_eq!(PolicyKind::Lru.expiration_flavor(), ExpirationFlavor::Lru);
        assert_eq!(PolicyKind::Fifo.expiration_flavor(), ExpirationFlavor::Lru);
        assert_eq!(PolicyKind::Gds.expiration_flavor(), ExpirationFlavor::Lru);
        assert_eq!(PolicyKind::Slru.expiration_flavor(), ExpirationFlavor::Lru);
        assert_eq!(
            PolicyKind::S3Fifo.expiration_flavor(),
            ExpirationFlavor::Lru
        );
        assert_eq!(PolicyKind::Lfu.expiration_flavor(), ExpirationFlavor::Lfu);
        assert_eq!(PolicyKind::Gdsf.expiration_flavor(), ExpirationFlavor::Lfu);
    }

    #[test]
    fn display_names() {
        assert_eq!(PolicyKind::Lru.to_string(), "lru");
        assert_eq!(PolicyKind::Gdsf.to_string(), "gdsf");
        assert_eq!(ExpirationFlavor::Lru.to_string(), "lru-expiration-age");
    }

    #[test]
    fn default_kind_is_lru() {
        assert_eq!(PolicyKind::default(), PolicyKind::Lru);
    }
}
