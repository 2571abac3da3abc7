//! S3-FIFO-style Small/Main/Ghost replacement (after Yang et al.,
//! "FIFO queues are all you need for cache eviction", SOSP '23).

use super::VictimOrder;
use crate::entry::CacheEntry;
use crate::index::{DocTable, Keyed, Links, List, Slab, Vacancy, NIL};
use coopcache_types::{DocId, DurationMs, Timestamp};

const GHOST_SEED: u64 = 0x5333_4649_0000_0002;

/// Policy-word flag: the slot sits in Main (else in Small).
const MAIN: u32 = Links::FLAG_HI;
/// Policy-word flag: hit since a queue last passed over the slot. The
/// original's saturating counter is only ever compared with zero, so one
/// bit carries it.
const HIT: u32 = Links::FLAG_LO;

/// Minimum ghost-queue bound, so history survives a nearly empty cache.
const GHOST_FLOOR: usize = 8;

/// A recently evicted document: not resident, so not in the cache's
/// arena.
#[derive(Debug, Clone, Copy)]
struct Ghost {
    doc: DocId,
    /// When the document was evicted; `None` marks a freed slot.
    evicted_at: Option<Timestamp>,
}

impl Vacancy for Ghost {
    fn vacate(&mut self) {
        self.evicted_at = None;
    }
    fn is_vacant(&self) -> bool {
        self.evicted_at.is_none()
    }
}

impl Keyed for Ghost {
    fn doc(&self) -> DocId {
        self.doc
    }
}

/// S3-FIFO-style victim ordering with three queues:
///
/// * **Small** — newly admitted documents enter here; one-shot documents
///   wash through without touching Main (scan resistance, like SLRU's
///   probation but FIFO-ordered so no per-hit relinking).
/// * **Main** — documents that proved themselves (hit while in Small, or
///   re-admitted from Ghost). Evicted CLOCK-style: a hit buys one second
///   chance per sweep.
/// * **Ghost** — a bounded FIFO of *recently evicted* document ids and
///   their eviction timestamps. A request for a ghost document re-admits
///   it straight into Main, and the gap between eviction and re-admission
///   is returned from `on_insert` — an *observed inter-reference gap*
///   that the cache feeds to the paper's eq. 5 expiration-age tracker.
///   Where eq. 5 normally estimates how long a document would have
///   stayed useful from eviction-time state, a ghost re-admission
///   measures it directly.
///
/// Victim selection walks Small head-first for the first never-hit
/// document (hit documents ahead of it are owed promotion to Main, which
/// `on_remove` performs lazily), falling back to Main with CLOCK second
/// chances. The walk is amortized O(1): each document is promoted or
/// second-chanced at most once per residency, paid for by the eviction
/// that skipped it.
///
/// Small and Main are lists through the cache's own arena slots, with
/// the queue and the hit in flag bits of the slot's policy word. Ghosts
/// are not resident, so they alone get an arena and doc table of their
/// own. Pointer-free, zero steady-state allocation, deterministic for a
/// given operation sequence.
///
/// # Example
///
/// ```
/// use coopcache_core::{Cache, PolicyKind};
/// use coopcache_types::{ByteSize, CacheId, DocId, Timestamp};
///
/// let mut p = Cache::new(CacheId::new(0), ByteSize::from_kb(2), PolicyKind::S3Fifo);
/// let kb = ByteSize::from_kb(1);
/// p.insert(DocId::new(1), kb, Timestamp::from_secs(1));
/// p.insert(DocId::new(2), kb, Timestamp::from_secs(2));
/// p.lookup(DocId::new(1), Timestamp::from_secs(3)); // doc 1 earns promotion
/// let out = p.insert(DocId::new(3), kb, Timestamp::from_secs(4));
/// assert_eq!(out.evictions()[0].entry.doc, DocId::new(2));
/// ```
#[derive(Debug)]
pub(crate) struct S3Fifo {
    small: List,
    main: List,
    ghosts: Slab<Ghost>,
    ghost_table: DocTable,
    ghost_queue: List,
}

impl Default for S3Fifo {
    fn default() -> Self {
        Self {
            small: List::default(),
            main: List::default(),
            ghosts: Slab::new(),
            ghost_table: DocTable::new(GHOST_SEED),
            ghost_queue: List::default(),
        }
    }
}

impl S3Fifo {
    /// Small stays at ~10% of tracked documents (min 1), the S3-FIFO
    /// design ratio; beyond it Small must give up the next victim.
    fn small_target(&self) -> usize {
        (self.len() / 10).max(1)
    }

    fn ghost_target(&self) -> usize {
        self.len().max(GHOST_FLOOR)
    }

    /// First never-hit slot in a queue, walking head→tail.
    fn scan_cold(nodes: &Slab<CacheEntry>, list: &List) -> Option<u32> {
        let mut cursor = list.head();
        while cursor != NIL {
            let links = nodes.links(cursor);
            if !links.flag(HIT) {
                return Some(cursor);
            }
            cursor = links.next();
        }
        None
    }

    /// Settles the debts the read-only victim walk skipped over: Small
    /// slots with hits ahead of the victim move to Main (promotion);
    /// Main slots with hits ahead of the victim spend them CLOCK-style
    /// (hit cleared, requeued at tail). Called only when the removed slot
    /// is the announced victim, so explicit removals stay pure unlinks.
    fn settle_before(&mut self, nodes: &mut Slab<CacheEntry>, victim: u32) {
        let in_main = nodes.links(victim).flag(MAIN);
        loop {
            let cursor = if in_main {
                self.main.head()
            } else {
                self.small.head()
            };
            if cursor == victim || cursor == NIL {
                return;
            }
            debug_assert!(nodes.links(cursor).flag(HIT));
            if in_main {
                self.main.unlink(nodes, cursor);
            } else {
                self.small.unlink(nodes, cursor);
            }
            let links = nodes.links_mut(cursor);
            links.set_flag(MAIN, true);
            links.set_flag(HIT, false);
            self.main.push_tail(nodes, cursor);
        }
    }

    /// Forgets `doc`'s ghost, returning when it was evicted.
    fn drop_ghost(&mut self, doc: DocId) -> Option<Timestamp> {
        let gidx = self.ghost_table.remove(doc, &self.ghosts)?;
        self.ghost_queue.unlink(&mut self.ghosts, gidx);
        self.ghosts.free(gidx).evicted_at
    }

    #[cfg(test)]
    pub(super) fn is_ghost(&self, doc: DocId) -> bool {
        self.ghost_table.get(doc, &self.ghosts).is_some()
    }

    #[cfg(test)]
    pub(super) fn ghost_len(&self) -> usize {
        self.ghost_queue.len()
    }
}

impl VictimOrder for S3Fifo {
    fn on_insert(
        &mut self,
        nodes: &mut Slab<CacheEntry>,
        slot: u32,
        now: Timestamp,
    ) -> Option<DurationMs> {
        let doc = nodes.get(slot).doc;
        let remembered = self.drop_ghost(doc);
        if remembered.is_some() {
            nodes.links_mut(slot).set_flag(MAIN, true);
            self.main.push_tail(nodes, slot);
        } else {
            self.small.push_tail(nodes, slot);
        }
        remembered.map(|evicted_at| now.saturating_since(evicted_at))
    }

    fn on_hit(&mut self, nodes: &mut Slab<CacheEntry>, slot: u32) {
        assert!(
            self.small.contains(nodes, slot) || self.main.contains(nodes, slot),
            "hit on untracked slot {slot}"
        );
        nodes.links_mut(slot).set_flag(HIT, true);
    }

    fn on_remove(&mut self, nodes: &mut Slab<CacheEntry>, slot: u32) {
        if self.victim(nodes) == Some(slot) {
            self.settle_before(nodes, slot);
        }
        if nodes.links(slot).flag(MAIN) {
            self.main.unlink(nodes, slot);
        } else {
            self.small.unlink(nodes, slot);
        }
    }

    fn victim(&self, nodes: &Slab<CacheEntry>) -> Option<u32> {
        let small_due = !self.small.is_empty()
            && (self.small.len() >= self.small_target() || self.main.is_empty());
        if small_due {
            if let Some(slot) = Self::scan_cold(nodes, &self.small) {
                return Some(slot);
            }
            // Every Small document was hit: all owed promotion. If Main
            // has candidates, evict there; else the oldest hot Small doc
            // goes (nowhere to promote that would change the outcome).
            if self.main.is_empty() {
                return self.small.front();
            }
        }
        Self::scan_cold(nodes, &self.main).or(self.main.front())
    }

    fn len(&self) -> usize {
        self.small.len() + self.main.len()
    }

    fn on_evicted(&mut self, doc: DocId, now: Timestamp) {
        self.drop_ghost(doc); // re-eviction refreshes the ghost clock
        let gidx = self.ghosts.alloc(Ghost {
            doc,
            evicted_at: Some(now),
        });
        self.ghost_table.insert(doc, gidx, &self.ghosts);
        self.ghost_queue.push_tail(&mut self.ghosts, gidx);
        while self.ghost_queue.len() > self.ghost_target() {
            let oldest = self.ghosts.get(self.ghost_queue.head()).doc;
            self.drop_ghost(oldest);
        }
    }

    fn growth_events(&self) -> u64 {
        self.ghosts.growth_events() + self.ghost_table.growth_events()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::testing::{cache, churn_growth, d, fill, kb, lone_slot, t};
    use crate::policy::Policy;
    use crate::{Cache, CacheConfig, ExpirationWindow, PolicyKind};
    use coopcache_types::{CacheId, ExpirationAge};

    fn is_main(c: &Cache, doc: DocId) -> bool {
        c.links(doc).is_some_and(|l| l.flag(MAIN))
    }

    fn s3(c: &Cache) -> &S3Fifo {
        match c.policy() {
            Policy::S3Fifo(p) => p,
            other => panic!("not an S3-FIFO cache: {other:?}"),
        }
    }

    /// Stores a 1 KB document at `ms`, returning what it evicted.
    fn store(c: &mut Cache, doc: u64, ms: u64) -> Vec<u64> {
        let out = c.insert(d(doc), kb(1), t(ms));
        assert!(out.is_stored());
        out.evictions()
            .iter()
            .map(|e| e.entry.doc.as_u64())
            .collect()
    }

    #[test]
    fn one_shot_docs_wash_through_small() {
        let mut p = cache(PolicyKind::S3Fifo, 2);
        store(&mut p, 1, 0);
        p.lookup(d(1), t(1));
        for i in 10..30 {
            let evicted = store(&mut p, i, i);
            assert!(!evicted.contains(&1), "hit doc evicted by a one-shot scan");
        }
    }

    #[test]
    fn small_hit_earns_main_promotion_on_next_eviction() {
        let mut p = cache(PolicyKind::S3Fifo, 12);
        fill(&mut p, 1..=12);
        p.lookup(d(1), t(1));
        assert!(!is_main(&p, d(1)), "promotion is lazy, not immediate");
        // Doc 1 sits at Small's head with a hit; the eviction walk skips
        // it, evicts doc 2, and the settle pass moves doc 1 to Main.
        assert_eq!(store(&mut p, 13, 2), vec![2]);
        assert!(
            is_main(&p, d(1)),
            "skipped-over hit doc should now be in Main"
        );
    }

    #[test]
    fn ghost_readmission_lands_in_main_and_reports_the_gap() {
        // A one-sample window: the eq. 5 age is the latest sample.
        let mut p = CacheConfig::new(CacheId::new(0), kb(3), PolicyKind::S3Fifo)
            .window(ExpirationWindow::LastEvictions(1))
            .build();
        fill(&mut p, 1..=3);
        assert_eq!(store(&mut p, 4, 10_000), vec![1]);
        assert!(s3(&p).is_ghost(d(1)));
        // Re-request the evicted doc 40 s later.
        store(&mut p, 1, 50_000);
        assert_eq!(
            p.expiration_age(),
            ExpirationAge::finite(DurationMs::from_secs(40))
        );
        assert!(is_main(&p, d(1)), "ghost re-admission skips Small");
        assert!(
            !s3(&p).is_ghost(d(1)),
            "re-admitted doc leaves the ghost queue"
        );
    }

    #[test]
    fn fresh_inserts_report_no_gap() {
        let mut p = cache(PolicyKind::S3Fifo, 8);
        store(&mut p, 7, 1);
        assert_eq!(p.eviction_count(), 0);
    }

    #[test]
    fn ghost_queue_is_bounded() {
        let mut p = cache(PolicyKind::S3Fifo, 2);
        // Keep one live doc; churn hundreds through eviction.
        store(&mut p, 1, 0);
        p.lookup(d(1), t(0));
        for i in 100..400 {
            store(&mut p, i, i);
        }
        let s3 = s3(&p);
        assert!(
            s3.ghost_len() <= p.len().max(8),
            "ghost queue grew past its bound: {}",
            s3.ghost_len()
        );
        let oldest_refused = d(100);
        assert!(
            !s3.is_ghost(oldest_refused),
            "oldest ghost should have aged out"
        );
    }

    #[test]
    fn main_eviction_gives_second_chances() {
        let mut p = cache(PolicyKind::S3Fifo, 3);
        // Build a Main population via ghost re-admission: a 3 KB document
        // evicts all three, and each re-admission pushes out what is left
        // of Small.
        fill(&mut p, 1..=3);
        assert!(p.insert(d(99), kb(3), t(1)).is_stored());
        for i in 1..=3 {
            store(&mut p, i, 2); // all re-admitted into Main
        }
        assert!(is_main(&p, d(1)) && is_main(&p, d(2)) && is_main(&p, d(3)));
        p.lookup(d(1), t(3)); // head of Main earns a second chance
        assert_eq!(store(&mut p, 4, 4), vec![2], "hit Main head skipped once");
        assert!(is_main(&p, d(1)), "second-chanced doc stays in Main");
    }

    #[test]
    fn explicit_remove_of_non_victim_is_a_pure_unlink() {
        let mut p = cache(PolicyKind::S3Fifo, 1024);
        fill(&mut p, 1..=12);
        p.lookup(d(1), t(1));
        p.remove(d(5), t(2)); // not the victim: no promotions happen
        assert!(!is_main(&p, d(1)));
        assert_eq!(p.len(), 11);
        p.check_invariants()
            .expect("the removal left a consistent order");
    }

    #[test]
    fn deterministic_under_seeded_stress() {
        // Two identical seeded runs must produce identical eviction logs;
        // the 96-doc universe against a 48-doc budget forces heavy ghost
        // re-admission traffic.
        let run = |seed: u64| -> Vec<u64> {
            let mut p = cache(PolicyKind::S3Fifo, 48);
            let mut state = seed;
            let mut log = Vec::new();
            for step in 0..4000u64 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let doc = (state >> 33) % 96;
                if p.lookup(d(doc), t(step)).is_none() {
                    log.extend(store(&mut p, doc, step));
                }
            }
            assert!(!log.is_empty());
            log
        };
        assert_eq!(run(42), run(42), "same seed, same eviction order");
        assert_ne!(run(42), run(43), "different seeds should diverge");
    }

    #[test]
    fn steady_state_churn_is_allocation_free() {
        // The ghost plane fills for a while after the live plane; take the
        // baseline once both are warm.
        let (baseline, end) = churn_growth(PolicyKind::S3Fifo, 4032, 8128);
        assert_eq!(end, baseline, "warm churn must not reallocate");
    }

    #[test]
    #[should_panic(expected = "inserted twice")]
    fn double_insert_panics() {
        let (mut nodes, slot) = lone_slot();
        let mut p = S3Fifo::default();
        p.on_insert(&mut nodes, slot, t(0));
        p.on_insert(&mut nodes, slot, t(0));
    }

    #[test]
    #[should_panic(expected = "untracked")]
    fn hit_on_missing_panics() {
        let (mut nodes, slot) = lone_slot();
        S3Fifo::default().on_hit(&mut nodes, slot);
    }
}
