//! Least-recently-used replacement.

use super::VictimOrder;
use crate::entry::CacheEntry;
use crate::index::{List, Slab};
use coopcache_types::{DurationMs, Timestamp};

/// LRU victim ordering: the document that has gone longest without a hit
/// is evicted first. Hits promote a document to the head of the recency
/// list; the EA scheme's responder-side rule works precisely by *skipping*
/// this promotion for redundant replicas.
///
/// The recency list is threaded through the cache's own arena slots: list
/// head is the victim, inserts and hits relink to the tail. Every
/// operation is pointer-free O(1) with zero steady-state allocation.
///
/// # Example
///
/// ```
/// use coopcache_core::{Cache, PolicyKind};
/// use coopcache_types::{ByteSize, CacheId, DocId, Timestamp};
///
/// let mut lru = Cache::new(CacheId::new(0), ByteSize::from_kb(2), PolicyKind::Lru);
/// let kb = ByteSize::from_kb(1);
/// lru.insert(DocId::new(1), kb, Timestamp::from_secs(1));
/// lru.insert(DocId::new(2), kb, Timestamp::from_secs(2));
/// lru.lookup(DocId::new(1), Timestamp::from_secs(3)); // 1 is now most recent
/// let out = lru.insert(DocId::new(3), kb, Timestamp::from_secs(4));
/// assert_eq!(out.evictions()[0].entry.doc, DocId::new(2));
/// ```
#[derive(Debug, Default)]
pub(crate) struct Lru {
    order: List,
}

impl VictimOrder for Lru {
    fn on_insert(
        &mut self,
        nodes: &mut Slab<CacheEntry>,
        slot: u32,
        _: Timestamp,
    ) -> Option<DurationMs> {
        self.order.push_tail(nodes, slot);
        None
    }

    #[inline]
    fn on_hit(&mut self, nodes: &mut Slab<CacheEntry>, slot: u32) {
        self.order.move_to_tail(nodes, slot);
    }

    fn on_remove(&mut self, nodes: &mut Slab<CacheEntry>, slot: u32) {
        self.order.unlink(nodes, slot);
    }

    fn victim(&self, _: &Slab<CacheEntry>) -> Option<u32> {
        self.order.front()
    }

    fn len(&self) -> usize {
        self.order.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::testing::{cache, churn_growth, d, drain, fill, lone_slot, t};
    use crate::PolicyKind;

    #[test]
    fn evicts_least_recent_first() {
        let mut lru = cache(PolicyKind::Lru, 1024);
        fill(&mut lru, 1..=3);
        assert_eq!(lru.victim(), Some(d(1)));
        lru.remove(d(1), t(1));
        assert_eq!(lru.victim(), Some(d(2)));
    }

    #[test]
    fn hit_promotes_to_head() {
        let mut lru = cache(PolicyKind::Lru, 1024);
        fill(&mut lru, 1..=3);
        lru.lookup(d(1), t(1));
        assert_eq!(lru.victim(), Some(d(2)));
        lru.lookup(d(2), t(2));
        assert_eq!(lru.victim(), Some(d(3)));
    }

    #[test]
    fn skipping_promotion_leaves_order_unchanged() {
        // The EA responder-side rule: serving a remote hit WITHOUT
        // promotion must leave the victim order untouched.
        let mut lru = cache(PolicyKind::Lru, 1024);
        fill(&mut lru, 1..=3);
        let before = lru.victim();
        assert!(lru.serve_remote(d(1), t(1), false).is_some());
        assert_eq!(lru.victim(), before);
        assert!(lru.serve_remote(d(1), t(2), true).is_some());
        assert_eq!(lru.victim(), Some(d(2)));
    }

    #[test]
    fn full_drain_order() {
        let mut lru = cache(PolicyKind::Lru, 1024);
        fill(&mut lru, 1..=5);
        lru.lookup(d(2), t(1));
        lru.lookup(d(4), t(2));
        assert_eq!(drain(&mut lru), vec![1, 3, 5, 2, 4]);
    }

    #[test]
    fn steady_state_churn_is_allocation_free() {
        let (baseline, end) = churn_growth(PolicyKind::Lru, 0, 4096);
        assert_eq!(end, baseline);
    }

    #[test]
    #[should_panic(expected = "inserted twice")]
    fn double_insert_panics() {
        let (mut nodes, slot) = lone_slot();
        let mut lru = Lru::default();
        lru.on_insert(&mut nodes, slot, t(0));
        lru.on_insert(&mut nodes, slot, t(0));
    }

    #[test]
    #[should_panic(expected = "untracked")]
    fn hit_on_missing_panics() {
        let (mut nodes, slot) = lone_slot();
        Lru::default().on_hit(&mut nodes, slot);
    }

    #[test]
    #[should_panic(expected = "untracked")]
    fn remove_of_missing_panics() {
        let (mut nodes, slot) = lone_slot();
        Lru::default().on_remove(&mut nodes, slot);
    }
}
