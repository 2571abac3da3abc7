//! GreedyDual-Size-Frequency replacement.

use super::gds::GreedyDual;

/// GreedyDual-Size-Frequency (GDSF) victim ordering.
///
/// Each document carries a priority `H = L + freq / size_kb`, where `L` is
/// the *inflation clock*: whenever a document is evicted, `L` rises to the
/// evictee's priority, so long-unreferenced documents eventually fall below
/// fresh ones regardless of size. Small, frequently hit documents are
/// retained longest — the behaviour that made GDSF the strongest
/// byte-hit-rate policy among the cost-aware family the paper cites
/// (Cao & Irani). `freq` is the entry's own hit counter.
///
/// # Example
///
/// ```
/// use coopcache_core::{Cache, PolicyKind};
/// use coopcache_types::{ByteSize, CacheId, DocId, Timestamp};
///
/// let mut gdsf = Cache::new(CacheId::new(0), ByteSize::from_kb(101), PolicyKind::Gdsf);
/// gdsf.insert(DocId::new(1), ByteSize::from_kb(100), Timestamp::from_secs(1)); // big
/// gdsf.insert(DocId::new(2), ByteSize::from_kb(1), Timestamp::from_secs(2)); // small
/// let out = gdsf.insert(DocId::new(3), ByteSize::from_kb(1), Timestamp::from_secs(3));
/// assert_eq!(out.evictions()[0].entry.doc, DocId::new(1)); // big goes first
/// ```
pub(crate) type Gdsf = GreedyDual<true>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::testing::{cache, churn_growth, d, kb, lone_slot, t};
    use crate::policy::{Policy, VictimOrder};
    use crate::{Cache, PolicyKind};
    use coopcache_types::ByteSize;

    fn clock(c: &Cache) -> f64 {
        match c.policy() {
            Policy::Gdsf(g) => g.clock(),
            other => panic!("not a GDSF cache: {other:?}"),
        }
    }

    #[test]
    fn larger_documents_evicted_first_at_equal_frequency() {
        let mut g = cache(PolicyKind::Gdsf, 1024);
        g.insert(d(1), kb(10), t(0));
        g.insert(d(2), kb(1), t(0));
        g.insert(d(3), kb(100), t(0));
        assert_eq!(g.victim(), Some(d(3)));
        g.remove(d(3), t(1));
        assert_eq!(g.victim(), Some(d(1)));
    }

    #[test]
    fn frequency_rescues_a_large_document() {
        let mut g = cache(PolicyKind::Gdsf, 1024);
        g.insert(d(1), kb(10), t(0));
        g.insert(d(2), kb(1), t(0));
        // 20 hits on the big doc: freq/size = 21/10 > 1/1.
        for i in 0..20 {
            g.lookup(d(1), t(i));
        }
        assert_eq!(g.victim(), Some(d(2)));
    }

    #[test]
    fn clock_inflates_on_eviction() {
        let mut g = cache(PolicyKind::Gdsf, 1024);
        assert_eq!(clock(&g), 0.0);
        g.insert(d(1), kb(1), t(0)); // priority 1.0
        g.remove(d(1), t(1));
        assert!((clock(&g) - 1.0).abs() < 1e-6, "clock {}", clock(&g));
        // A new same-shaped doc now sits above the old clock.
        g.insert(d(2), kb(1), t(2));
        g.remove(d(2), t(3));
        assert!((clock(&g) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn aging_lets_new_docs_catch_old_frequent_ones() {
        let mut g = cache(PolicyKind::Gdsf, 1024);
        g.insert(d(1), kb(1), t(0));
        g.lookup(d(1), t(1)); // freq 2, priority 2.0
        g.insert(d(2), kb(1), t(2)); // priority 1.0
        assert_eq!(g.victim(), Some(d(2)));
        g.remove(d(2), t(3)); // clock inflates to 1.0
                              // A fresh single-hit doc now ties the stale frequent one at 2.0;
                              // the tie breaks toward the older entry, so the stale frequent
                              // document has lost its immunity.
        g.insert(d(3), kb(1), t(4));
        assert_eq!(g.victim(), Some(d(1)));
    }

    #[test]
    fn zero_sized_doc_is_handled() {
        let mut g = cache(PolicyKind::Gdsf, 1024);
        g.insert(d(1), ByteSize::ZERO, t(0));
        g.insert(d(2), kb(1), t(0));
        assert_eq!(g.len(), 2);
        assert!(g.victim().is_some());
    }

    #[test]
    fn steady_state_churn_is_allocation_free() {
        let (baseline, end) = churn_growth(PolicyKind::Gdsf, 0, 4096);
        assert_eq!(end, baseline);
    }

    #[test]
    #[should_panic(expected = "untracked")]
    fn hit_on_missing_panics() {
        let (mut nodes, slot) = lone_slot();
        Gdsf::default().on_hit(&mut nodes, slot);
    }
}
