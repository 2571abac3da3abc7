//! First-in-first-out replacement.

use super::VictimOrder;
use crate::entry::CacheEntry;
use crate::index::{List, Slab};
use coopcache_types::{DurationMs, Timestamp};

/// FIFO victim ordering: documents are evicted in insertion order and hits
/// do not refresh an entry. Included as the classic lower-bound baseline
/// for replacement-policy ablations.
///
/// A queue threaded through the cache's own arena slots (head = oldest =
/// victim, tail = newest); every operation is pointer-free O(1).
///
/// # Example
///
/// ```
/// use coopcache_core::{Cache, PolicyKind};
/// use coopcache_types::{ByteSize, CacheId, DocId, Timestamp};
///
/// let mut fifo = Cache::new(CacheId::new(0), ByteSize::from_kb(2), PolicyKind::Fifo);
/// let kb = ByteSize::from_kb(1);
/// fifo.insert(DocId::new(1), kb, Timestamp::from_secs(1));
/// fifo.insert(DocId::new(2), kb, Timestamp::from_secs(2));
/// fifo.lookup(DocId::new(1), Timestamp::from_secs(3)); // ignored by the order
/// let out = fifo.insert(DocId::new(3), kb, Timestamp::from_secs(4));
/// assert_eq!(out.evictions()[0].entry.doc, DocId::new(1));
/// ```
#[derive(Debug, Default)]
pub(crate) struct Fifo {
    queue: List,
}

impl VictimOrder for Fifo {
    fn on_insert(
        &mut self,
        nodes: &mut Slab<CacheEntry>,
        slot: u32,
        _: Timestamp,
    ) -> Option<DurationMs> {
        self.queue.push_tail(nodes, slot);
        None
    }

    fn on_hit(&mut self, nodes: &mut Slab<CacheEntry>, slot: u32) {
        // FIFO ignores hits, but an untracked hit is still a cache bug.
        assert!(
            self.queue.contains(nodes, slot),
            "hit on untracked slot {slot}"
        );
    }

    fn on_remove(&mut self, nodes: &mut Slab<CacheEntry>, slot: u32) {
        self.queue.unlink(nodes, slot);
    }

    fn victim(&self, _: &Slab<CacheEntry>) -> Option<u32> {
        self.queue.front()
    }

    fn len(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::testing::{cache, churn_growth, d, drain, fill, lone_slot, t};
    use crate::PolicyKind;

    #[test]
    fn evicts_in_insertion_order_despite_hits() {
        let mut fifo = cache(PolicyKind::Fifo, 1024);
        fill(&mut fifo, 1..=3);
        fifo.lookup(d(1), t(1));
        fifo.serve_remote(d(1), t(2), true);
        assert_eq!(drain(&mut fifo), vec![1, 2, 3]);
    }

    #[test]
    fn remove_middle_keeps_order() {
        let mut fifo = cache(PolicyKind::Fifo, 1024);
        fill(&mut fifo, 1..=3);
        fifo.remove(d(2), t(1));
        assert_eq!(fifo.victim(), Some(d(1)));
        fifo.remove(d(1), t(1));
        assert_eq!(fifo.victim(), Some(d(3)));
    }

    #[test]
    fn steady_state_churn_is_allocation_free() {
        let (baseline, end) = churn_growth(PolicyKind::Fifo, 0, 4096);
        assert_eq!(end, baseline);
    }

    #[test]
    #[should_panic(expected = "untracked")]
    fn hit_on_missing_panics() {
        let (mut nodes, slot) = lone_slot();
        Fifo::default().on_hit(&mut nodes, slot);
    }

    #[test]
    #[should_panic(expected = "inserted twice")]
    fn double_insert_panics() {
        let (mut nodes, slot) = lone_slot();
        let mut fifo = Fifo::default();
        fifo.on_insert(&mut nodes, slot, t(0));
        fifo.on_insert(&mut nodes, slot, t(0));
    }
}
