//! GreedyDual-Size replacement (Cao & Irani, USITS '97), and the
//! GreedyDual core it shares with GDSF.

use super::VictimOrder;
use crate::entry::CacheEntry;
use crate::index::{KeyedMinHeap, Slab};
use coopcache_types::{DurationMs, Timestamp};

/// Micro-units per 1.0 of priority.
const SCALE: u64 = 1_000_000;

/// GreedyDual victim ordering: each document carries a priority
/// `H = L + value / size_kb`, where `L` is the *inflation clock* — when a
/// document leaves, `L` rises to its priority, so long-unreferenced
/// documents eventually fall below fresh ones regardless of size. The
/// value is 1 for GDS and the entry's hit counter for GDSF
/// (`FREQUENCY`).
///
/// Priorities are integer micro-units, giving a total order without
/// floating-point `NaN` hazards. The order is an arena-slot min-heap
/// keyed by `(priority, seq)`; the unique seq totalizes it.
#[derive(Debug, Default)]
pub(crate) struct GreedyDual<const FREQUENCY: bool> {
    heap: KeyedMinHeap,
    /// Inflation clock `L`, in micro-priority units.
    clock: u64,
}

/// GreedyDual-Size: each document carries priority `H = L + 1/size_kb`
/// where `L` is the inflation clock; a **hit re-computes `H` with the
/// current clock**, which is how GDS folds recency in without a
/// frequency counter (contrast GDSF, which multiplies by frequency).
///
/// Cited by the paper as the canonical cost-aware replacement family
/// (\[4\]); included so the ABL-R replacement sweep covers it.
///
/// # Example
///
/// ```
/// use coopcache_core::{Cache, PolicyKind};
/// use coopcache_types::{ByteSize, CacheId, DocId, Timestamp};
///
/// let mut gds = Cache::new(CacheId::new(0), ByteSize::from_kb(101), PolicyKind::Gds);
/// gds.insert(DocId::new(1), ByteSize::from_kb(100), Timestamp::from_secs(1)); // big
/// gds.insert(DocId::new(2), ByteSize::from_kb(1), Timestamp::from_secs(2)); // small
/// let out = gds.insert(DocId::new(3), ByteSize::from_kb(1), Timestamp::from_secs(3));
/// assert_eq!(out.evictions()[0].entry.doc, DocId::new(1));
/// ```
pub(crate) type Gds = GreedyDual<false>;

impl<const FREQUENCY: bool> GreedyDual<FREQUENCY> {
    fn priority(&self, entry: &CacheEntry) -> u64 {
        // value / size_kb, with size floored to 1 byte to stay total.
        let size_kb = entry.size.as_bytes().max(1) as f64 / 1_000.0;
        let value = if FREQUENCY {
            entry.hit_count as f64 / size_kb
        } else {
            1.0 / size_kb
        };
        self.clock + (value * SCALE as f64) as u64
    }

    /// The current inflation-clock value, in priority units.
    #[cfg(test)]
    pub(super) fn clock(&self) -> f64 {
        self.clock as f64 / SCALE as f64
    }
}

impl<const FREQUENCY: bool> VictimOrder for GreedyDual<FREQUENCY> {
    fn on_insert(
        &mut self,
        nodes: &mut Slab<CacheEntry>,
        slot: u32,
        _: Timestamp,
    ) -> Option<DurationMs> {
        let priority = self.priority(nodes.get(slot));
        self.heap.push(nodes, slot, priority);
        None
    }

    fn on_hit(&mut self, nodes: &mut Slab<CacheEntry>, slot: u32) {
        // The defining GreedyDual move: restore full priority at the
        // current clock.
        let priority = self.priority(nodes.get(slot));
        self.heap.rekey(nodes, slot, priority);
    }

    fn on_remove(&mut self, nodes: &mut Slab<CacheEntry>, slot: u32) {
        let priority = self.heap.remove(nodes, slot);
        self.clock = self.clock.max(priority);
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
    use crate::policy::testing::{cache, churn_growth, d, kb, lone_slot, t};
    use crate::PolicyKind;

    #[test]
    fn big_docs_evicted_first() {
        let mut g = cache(PolicyKind::Gds, 1024);
        g.insert(d(1), kb(10), t(0));
        g.insert(d(2), kb(1), t(0));
        assert_eq!(g.victim(), Some(d(1)));
    }

    #[test]
    fn hit_restores_priority_at_current_clock() {
        let mut g = cache(PolicyKind::Gds, 1024);
        g.insert(d(1), kb(1), t(0)); // H = 1.0
        g.insert(d(2), kb(1), t(0));
        g.remove(d(2), t(1)); // clock -> 1.0
        g.insert(d(3), kb(1), t(2)); // H = 2.0
                                     // Doc 1 still has H = 1.0 and is the victim...
        assert_eq!(g.victim(), Some(d(1)));
        // ...until a hit re-inflates it to H = 2.0; the tie then breaks
        // toward doc 3, keyed earlier.
        g.lookup(d(1), t(3));
        assert_eq!(g.victim(), Some(d(3)));
    }

    #[test]
    fn frequency_does_not_accumulate() {
        // Unlike GDSF, many hits at the same clock leave H unchanged.
        let mut g = cache(PolicyKind::Gds, 1024);
        g.insert(d(1), kb(1), t(0));
        g.insert(d(2), kb(2), t(0));
        for i in 0..10 {
            g.lookup(d(2), t(i)); // clock still 0: H stays 0.5
        }
        assert_eq!(g.victim(), Some(d(2)), "hits alone must not out-rank size");
    }

    #[test]
    fn steady_state_churn_is_allocation_free() {
        let (baseline, end) = churn_growth(PolicyKind::Gds, 0, 4096);
        assert_eq!(end, baseline);
    }

    #[test]
    #[should_panic(expected = "untracked")]
    fn hit_on_missing_panics() {
        let (mut nodes, slot) = lone_slot();
        Gds::default().on_hit(&mut nodes, slot);
    }
}
