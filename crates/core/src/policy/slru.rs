//! Segmented LRU replacement.

use super::VictimOrder;
use crate::entry::CacheEntry;
use crate::index::{Links, List, Slab};
use coopcache_types::{DurationMs, Timestamp};

/// Policy-word flag: the slot sits in the protected segment.
const PROTECTED: u32 = Links::FLAG_HI;

/// Segmented LRU: a *probationary* segment for first-time documents and
/// a *protected* segment for documents hit at least twice. One-shot
/// documents wash through probation without displacing proven ones — the
/// classic scan-resistance fix for plain LRU.
///
/// The protected segment is bounded to half the tracked documents
/// (rounded up); overflowing demotes its LRU entry back to the MRU end
/// of probation. Victims come from probation first.
///
/// Both segments are lists through the cache's own arena slots, with the
/// segment in a flag bit of the slot's policy word, so promotion and
/// demotion are O(1) relinks with zero steady-state allocation.
///
/// # Example
///
/// ```
/// use coopcache_core::{Cache, PolicyKind};
/// use coopcache_types::{ByteSize, CacheId, DocId, Timestamp};
///
/// let mut slru = Cache::new(CacheId::new(0), ByteSize::from_kb(2), PolicyKind::Slru);
/// let kb = ByteSize::from_kb(1);
/// slru.insert(DocId::new(1), kb, Timestamp::from_secs(1));
/// slru.insert(DocId::new(2), kb, Timestamp::from_secs(2));
/// slru.lookup(DocId::new(1), Timestamp::from_secs(3)); // promoted to protected
/// let out = slru.insert(DocId::new(3), kb, Timestamp::from_secs(4));
/// assert_eq!(out.evictions()[0].entry.doc, DocId::new(2));
/// ```
#[derive(Debug, Default)]
pub(crate) struct Slru {
    probation: List,
    protected: List,
}

impl Slru {
    fn rebalance(&mut self, nodes: &mut Slab<CacheEntry>) {
        while self.protected.len() > self.len().div_ceil(2) {
            let head = self.protected.head();
            self.protected.unlink(nodes, head);
            nodes.links_mut(head).set_flag(PROTECTED, false);
            self.probation.push_tail(nodes, head); // demote to MRU of probation
        }
    }
}

impl VictimOrder for Slru {
    fn on_insert(
        &mut self,
        nodes: &mut Slab<CacheEntry>,
        slot: u32,
        _: Timestamp,
    ) -> Option<DurationMs> {
        self.probation.push_tail(nodes, slot);
        None
    }

    fn on_hit(&mut self, nodes: &mut Slab<CacheEntry>, slot: u32) {
        if nodes.links(slot).flag(PROTECTED) {
            self.protected.move_to_tail(nodes, slot);
        } else {
            self.probation.unlink(nodes, slot);
            nodes.links_mut(slot).set_flag(PROTECTED, true);
            self.protected.push_tail(nodes, slot);
        }
        self.rebalance(nodes);
    }

    fn on_remove(&mut self, nodes: &mut Slab<CacheEntry>, slot: u32) {
        if nodes.links(slot).flag(PROTECTED) {
            self.protected.unlink(nodes, slot);
        } else {
            self.probation.unlink(nodes, slot);
        }
    }

    fn victim(&self, _: &Slab<CacheEntry>) -> Option<u32> {
        self.probation.front().or(self.protected.front())
    }

    fn len(&self) -> usize {
        self.probation.len() + self.protected.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::testing::{cache, churn_growth, d, fill, lone_slot, t};
    use crate::{Cache, PolicyKind};
    use coopcache_types::DocId;

    fn is_protected(c: &Cache, doc: DocId) -> bool {
        c.links(doc).is_some_and(|l| l.flag(PROTECTED))
    }

    #[test]
    fn scan_does_not_displace_protected_docs() {
        let mut s = cache(PolicyKind::Slru, 1024);
        fill(&mut s, [1]);
        s.lookup(d(1), t(1)); // protected
        assert!(is_protected(&s, d(1)));
        // A scan of one-shot docs flows through probation.
        for i in 10..20 {
            fill(&mut s, [i]);
            let v = s.victim().unwrap();
            assert_ne!(v, d(1), "scan evicted the protected doc");
            s.remove(v, t(i));
        }
        assert!(is_protected(&s, d(1)));
    }

    #[test]
    fn victims_come_from_probation_first() {
        let mut s = cache(PolicyKind::Slru, 1024);
        fill(&mut s, 1..=2);
        s.lookup(d(2), t(1));
        assert_eq!(s.victim(), Some(d(1)));
        s.remove(d(1), t(2));
        // Only protected docs remain; victim falls back to protected LRU.
        assert_eq!(s.victim(), Some(d(2)));
    }

    #[test]
    fn protected_overflow_demotes_to_probation() {
        let mut s = cache(PolicyKind::Slru, 1024);
        fill(&mut s, 1..=4);
        // Protect three of four docs; the limit is ceil(4/2) = 2, so the
        // oldest protected doc gets demoted.
        s.lookup(d(1), t(1));
        s.lookup(d(2), t(2));
        s.lookup(d(3), t(3));
        let protected = (1..=4).filter(|&i| is_protected(&s, d(i))).count();
        assert_eq!(protected, 2);
        assert!(!is_protected(&s, d(1)), "oldest promotion demoted first");
        assert!(is_protected(&s, d(2)) && is_protected(&s, d(3)));
        assert_eq!(s.len(), 4);
        s.check_invariants()
            .expect("demotion keeps every slot ordered");
    }

    #[test]
    fn repeated_hits_keep_doc_protected_and_fresh() {
        let mut s = cache(PolicyKind::Slru, 1024);
        fill(&mut s, 1..=2);
        s.lookup(d(1), t(1));
        s.lookup(d(2), t(2));
        s.lookup(d(1), t(3)); // doc 1 now fresher than doc 2
        s.remove(d(2), t(4));
        assert!(is_protected(&s, d(1)));
    }

    #[test]
    fn steady_state_churn_is_allocation_free() {
        let (baseline, end) = churn_growth(PolicyKind::Slru, 0, 4096);
        assert_eq!(end, baseline);
    }

    #[test]
    #[should_panic(expected = "inserted twice")]
    fn double_insert_panics() {
        let (mut nodes, slot) = lone_slot();
        let mut s = Slru::default();
        s.on_insert(&mut nodes, slot, t(0));
        s.on_insert(&mut nodes, slot, t(0));
    }
}
