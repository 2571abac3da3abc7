//! Least-frequently-used replacement.

use super::VictimOrder;
use crate::entry::CacheEntry;
use crate::index::{KeyedMinHeap, Slab};
use coopcache_types::{DurationMs, Timestamp};

/// LFU victim ordering: the document with the fewest hits is evicted
/// first; ties break toward the least recently *inserted-or-hit* (so LFU
/// degenerates gracefully to LRU among equally popular documents instead
/// of thrashing on insertion order).
///
/// The frequency is the entry's own hit counter, which starts at 1 when
/// the document enters — the bookkeeping the paper notes every LFU proxy
/// already keeps (§3.2.2).
///
/// An arena-slot min-heap keyed by `(hit count, tie seq)`; the unique
/// monotone tie sequence makes the order total. Operations are
/// pointer-free O(log n) with zero steady-state allocation.
///
/// # Example
///
/// ```
/// use coopcache_core::{Cache, PolicyKind};
/// use coopcache_types::{ByteSize, CacheId, DocId, Timestamp};
///
/// let mut lfu = Cache::new(CacheId::new(0), ByteSize::from_kb(2), PolicyKind::Lfu);
/// let kb = ByteSize::from_kb(1);
/// lfu.insert(DocId::new(1), kb, Timestamp::from_secs(1));
/// lfu.insert(DocId::new(2), kb, Timestamp::from_secs(2));
/// lfu.lookup(DocId::new(1), Timestamp::from_secs(3));
/// let out = lfu.insert(DocId::new(3), kb, Timestamp::from_secs(4));
/// assert_eq!(out.evictions()[0].entry.doc, DocId::new(2)); // fewer hits
/// ```
#[derive(Debug, Default)]
pub(crate) struct Lfu {
    heap: KeyedMinHeap,
}

impl VictimOrder for Lfu {
    fn on_insert(
        &mut self,
        nodes: &mut Slab<CacheEntry>,
        slot: u32,
        _: Timestamp,
    ) -> Option<DurationMs> {
        let hits = nodes.get(slot).hit_count;
        self.heap.push(nodes, slot, hits);
        None
    }

    fn on_hit(&mut self, nodes: &mut Slab<CacheEntry>, slot: u32) {
        let hits = nodes.get(slot).hit_count;
        self.heap.rekey(nodes, slot, hits);
    }

    fn on_remove(&mut self, nodes: &mut Slab<CacheEntry>, slot: u32) {
        self.heap.remove(nodes, slot);
    }

    fn victim(&self, _: &Slab<CacheEntry>) -> Option<u32> {
        self.heap.peek()
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn growth_events(&self) -> u64 {
        self.heap.growth_events()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::testing::{cache, churn_growth, d, drain, fill, lone_slot, t};
    use crate::PolicyKind;

    #[test]
    fn evicts_least_frequent() {
        let mut lfu = cache(PolicyKind::Lfu, 1024);
        fill(&mut lfu, 1..=2);
        lfu.lookup(d(1), t(1));
        lfu.lookup(d(1), t(2));
        lfu.lookup(d(2), t(3));
        assert_eq!(lfu.victim(), Some(d(2)));
        assert_eq!(lfu.entry(d(1)).map(|e| e.hit_count), Some(3));
        assert_eq!(lfu.entry(d(2)).map(|e| e.hit_count), Some(2));
    }

    #[test]
    fn entry_counts_as_first_hit() {
        let mut lfu = cache(PolicyKind::Lfu, 1024);
        fill(&mut lfu, [9]);
        assert_eq!(lfu.entry(d(9)).map(|e| e.hit_count), Some(1));
    }

    #[test]
    fn ties_break_least_recently_touched() {
        let mut lfu = cache(PolicyKind::Lfu, 1024);
        fill(&mut lfu, 1..=3);
        // All frequency 1; doc 1 is the stalest.
        assert_eq!(lfu.victim(), Some(d(1)));
        lfu.lookup(d(1), t(1)); // now 2 hits, docs 2 and 3 tie at 1
        assert_eq!(lfu.victim(), Some(d(2)));
    }

    #[test]
    fn frequency_of_untracked_is_none() {
        assert_eq!(cache(PolicyKind::Lfu, 1024).entry(d(1)), None);
    }

    #[test]
    fn drain_order_respects_frequency_then_age() {
        let mut lfu = cache(PolicyKind::Lfu, 1024);
        fill(&mut lfu, 1..=4);
        lfu.lookup(d(1), t(1));
        lfu.lookup(d(1), t(2));
        lfu.lookup(d(3), t(3));
        // freq: 1->3, 3->2, 2->1 (older), 4->1 (newer)
        assert_eq!(drain(&mut lfu), vec![2, 4, 3, 1]);
    }

    #[test]
    fn steady_state_churn_is_allocation_free() {
        let (baseline, end) = churn_growth(PolicyKind::Lfu, 0, 4096);
        assert_eq!(end, baseline);
    }

    #[test]
    #[should_panic(expected = "inserted twice")]
    fn double_insert_panics() {
        let (mut nodes, slot) = lone_slot();
        let mut lfu = Lfu::default();
        lfu.on_insert(&mut nodes, slot, t(0));
        lfu.on_insert(&mut nodes, slot, t(0));
    }

    #[test]
    #[should_panic(expected = "untracked")]
    fn hit_on_missing_panics() {
        let (mut nodes, slot) = lone_slot();
        Lfu::default().on_hit(&mut nodes, slot);
    }
}
