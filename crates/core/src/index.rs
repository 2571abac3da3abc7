//! Index-linked storage primitives for the arena-backed cache core.
//!
//! Everything in this module works on dense `u32` slot indices instead of
//! heap pointers: a [`Slab`] arena with an intrusive freelist, an
//! open-addressing [`DocTable`] keyed by seeded document hash, an intrusive
//! doubly-linked [`List`] and a [`KeyedMinHeap`], both of which keep their
//! per-slot state in the 8-byte [`Links`] word of the arena node.
//!
//! A cache's arena node is [`Node`]: its public [`CacheEntry`] plus that
//! word, so the replacement policies order the cache's own slots and no
//! policy keeps a second index. Lookup, eviction and promotion are
//! pointer-free O(1) (O(log n) for the heap-ordered policies) with zero
//! per-operation allocation once the backing vectors reach steady-state
//! capacity. Every structure counts backing-vector growth events so the
//! `store_scale` test can assert the hot path stopped allocating.

use crate::entry::CacheEntry;
use coopcache_types::DocId;

/// Slot indices take the low 30 bits of a link.
const INDEX: u32 = (1 << 30) - 1;

/// Sentinel index meaning "no slot" (null link, empty bucket, absent pos).
pub(crate) const NIL: u32 = INDEX;

/// Top bit of `next`: the slot is on the arena's freelist.
const FREE: u32 = 1 << 31;

/// Multiplies the 64-bit key into a well-mixed hash (splitmix64 finalizer).
///
/// Used both for table bucketing and for seeded shard assignment; the seed
/// is XORed in by callers before mixing so runs stay reproducible while
/// distinct seeds decorrelate placements.
#[must_use]
pub(crate) fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// The per-slot policy word: 8 bytes beside each arena value.
///
/// List policies thread `prev`/`next` through it; heap policies keep the
/// slot's heap position in `next`. Indices take 30 bits, so the top two
/// bits of `prev` are free for two policy flags (SLRU: protected;
/// S3-FIFO: in Main, hit since the last pass), and the top bit of `next`
/// marks a free arena slot, whose `next` then links the freelist.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Links {
    prev: u32,
    next: u32,
}

impl Links {
    /// Unlinked, no flags.
    pub(crate) const NEW: Self = Self {
        prev: NIL,
        next: NIL,
    };
    /// The first policy flag bit.
    pub(crate) const FLAG_HI: u32 = 1 << 31;
    /// The second policy flag bit.
    pub(crate) const FLAG_LO: u32 = 1 << 30;

    #[inline]
    fn prev(self) -> u32 {
        self.prev & INDEX
    }

    #[inline]
    fn set_prev(&mut self, prev: u32) {
        self.prev = (self.prev & !INDEX) | prev;
    }

    #[inline]
    pub(crate) fn next(self) -> u32 {
        self.next
    }

    #[inline]
    fn set_next(&mut self, next: u32) {
        self.next = next;
    }

    #[inline]
    pub(crate) fn flag(self, flag: u32) -> bool {
        self.prev & flag != 0
    }

    #[inline]
    pub(crate) fn set_flag(&mut self, flag: u32, on: bool) {
        if on {
            self.prev |= flag;
        } else {
            self.prev &= !flag;
        }
    }

    fn is_free(self) -> bool {
        self.next & FREE != 0
    }
}

/// Values that carry a [`Links`] word can live in a [`Slab`] and sit on a
/// [`List`] or in a [`KeyedMinHeap`].
pub(crate) trait Linked: Copy {
    fn links(&self) -> &Links;
    fn links_mut(&mut self) -> &mut Links;
}

/// A cache's arena node: the entry the paper's proxy keeps anyway, plus
/// the policy word that orders it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Node {
    pub(crate) entry: CacheEntry,
    pub(crate) links: Links,
}

// LRU's and FIFO's whole per-entry footprint in the arena.
const _: () = assert!(std::mem::size_of::<Node>() == std::mem::size_of::<CacheEntry>() + 8);

impl Node {
    pub(crate) fn new(entry: CacheEntry) -> Self {
        Self {
            entry,
            links: Links::NEW,
        }
    }
}

impl Linked for Node {
    #[inline]
    fn links(&self) -> &Links {
        &self.links
    }
    #[inline]
    fn links_mut(&mut self) -> &mut Links {
        &mut self.links
    }
}

/// Flat arena of nodes addressed by `u32` index, with an intrusive
/// freelist threaded through the free slots' link words.
///
/// Freed slots are recycled LIFO, so a steady-state workload (insert/evict
/// churn at constant occupancy) never grows the backing vector.
#[derive(Debug, Clone)]
pub(crate) struct Slab<T> {
    slots: Vec<T>,
    free_head: u32,
    len: u32,
    growths: u64,
}

impl<T: Linked> Slab<T> {
    pub(crate) fn new() -> Self {
        Self {
            slots: Vec::new(),
            free_head: NIL,
            len: 0,
            growths: 0,
        }
    }

    /// Number of live nodes.
    pub(crate) fn len(&self) -> usize {
        self.len as usize
    }

    /// Times the backing vector had to reallocate (0 in steady state).
    pub(crate) fn growth_events(&self) -> u64 {
        self.growths
    }

    /// Stores `value`, recycling a freed slot when one exists.
    pub(crate) fn alloc(&mut self, value: T) -> u32 {
        self.len += 1;
        if self.free_head != NIL {
            let idx = self.free_head;
            self.free_head = self.slots[idx as usize].links().next & INDEX;
            self.slots[idx as usize] = value;
            return idx;
        }
        let idx = self.slots.len() as u32;
        assert!(idx < NIL, "slab exceeds its 2^30-slot index space");
        if self.slots.len() == self.slots.capacity() {
            self.growths += 1;
        }
        self.slots.push(value);
        idx
    }

    /// Releases slot `idx` back to the freelist, returning its value.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is not a live slot.
    pub(crate) fn free(&mut self, idx: u32) -> T {
        let slot = &mut self.slots[idx as usize];
        // A free slot here means the caller's doc table desynced from the
        // arena, and continuing would corrupt both.
        assert!(!slot.links().is_free(), "slab slot {idx} freed twice");
        let value = *slot;
        slot.links_mut().set_next(FREE | self.free_head);
        self.free_head = idx;
        self.len -= 1;
        value
    }

    /// The node in slot `idx`, or `None` if the slot is free.
    pub(crate) fn live(&self, idx: u32) -> Option<&T> {
        self.slots
            .get(idx as usize)
            .filter(|node| !node.links().is_free())
    }

    /// # Panics
    ///
    /// Panics if `idx` is not a live slot.
    #[inline]
    pub(crate) fn get(&self, idx: u32) -> &T {
        let node = &self.slots[idx as usize];
        // A stale index is bookkeeping corruption, not a recoverable miss.
        assert!(!node.links().is_free(), "slab slot {idx} is free");
        node
    }

    /// # Panics
    ///
    /// Panics if `idx` is not a live slot.
    #[inline]
    pub(crate) fn get_mut(&mut self, idx: u32) -> &mut T {
        let node = &mut self.slots[idx as usize];
        assert!(!node.links().is_free(), "slab slot {idx} is free");
        node
    }

    /// Iterates `(index, node)` over live slots in ascending index order.
    ///
    /// Index order is an artifact of allocation history, not a semantic
    /// order; callers that expose iteration externally must sort (see the
    /// `map-iter` lint's open-addressing clause).
    pub(crate) fn iter_unordered(&self) -> impl Iterator<Item = (u32, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, node)| !node.links().is_free())
            .map(|(i, node)| (i as u32, node))
    }

    /// Walks the freelist and returns the number of free slots, panicking
    /// if the list is cyclic or points at live slots (paranoid audits).
    #[cfg_attr(not(any(test, feature = "paranoid")), allow(dead_code))]
    pub(crate) fn audit_freelist(&self) -> usize {
        let mut seen = vec![false; self.slots.len()];
        let mut cursor = self.free_head;
        let mut count = 0usize;
        while cursor != NIL {
            let i = cursor as usize;
            assert!(!seen[i], "slab freelist cycles through slot {cursor}");
            seen[i] = true;
            let links = self.slots[i].links();
            assert!(
                links.is_free(),
                "slab freelist points at live slot {cursor}"
            );
            cursor = links.next & INDEX;
            count += 1;
        }
        assert_eq!(
            count + self.len(),
            self.slots.len(),
            "slab freelist disagrees with occupancy"
        );
        count
    }
}

/// One bucket of a [`DocTable`]: key and value interleaved so a probe
/// touches a single cache line, not one per parallel array. Empty iff
/// `val == NIL` (`key` is then meaningless).
#[derive(Debug, Clone, Copy)]
struct Bucket {
    key: DocId,
    val: u32,
}

impl Bucket {
    const EMPTY: Self = Self {
        key: DocId::new(0),
        val: NIL,
    };
}

/// Open-addressing hash table mapping [`DocId`] to an arena slot index.
///
/// Power-of-two capacity, linear probing, backward-shift deletion (no
/// tombstones, so probe chains never rot). The seed decorrelates bucket
/// order between shards without affecting any externally visible order —
/// every external iteration path sorts by `DocId` first.
#[derive(Debug, Clone)]
pub(crate) struct DocTable {
    buckets: Vec<Bucket>,
    len: usize,
    seed: u64,
    growths: u64,
}

impl DocTable {
    const MIN_CAP: usize = 8;

    pub(crate) fn new(seed: u64) -> Self {
        Self {
            buckets: Vec::new(),
            len: 0,
            seed,
            growths: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn growth_events(&self) -> u64 {
        self.growths
    }

    fn mask(&self) -> usize {
        self.buckets.len() - 1
    }

    fn bucket(&self, doc: DocId) -> usize {
        (mix64(doc.as_u64() ^ self.seed) as usize) & self.mask()
    }

    fn rebuild(&mut self, new_cap: usize) {
        debug_assert!(new_cap.is_power_of_two());
        let old = std::mem::replace(&mut self.buckets, vec![Bucket::EMPTY; new_cap]);
        self.growths += 1;
        self.len = 0;
        for bucket in old {
            if bucket.val != NIL {
                self.insert_inner(bucket.key, bucket.val);
            }
        }
    }

    fn insert_inner(&mut self, doc: DocId, val: u32) {
        let mask = self.mask();
        let mut i = self.bucket(doc);
        loop {
            if self.buckets[i].val == NIL {
                self.buckets[i] = Bucket { key: doc, val };
                self.len += 1;
                return;
            }
            assert!(
                self.buckets[i].key != doc,
                "doc {doc} inserted twice into table"
            );
            i = (i + 1) & mask;
        }
    }

    /// Inserts a new mapping. Grows (and rehashes) past 7/8 load.
    ///
    /// # Panics
    ///
    /// Panics if `doc` is already present.
    pub(crate) fn insert(&mut self, doc: DocId, val: u32) {
        if self.buckets.is_empty() {
            self.rebuild(Self::MIN_CAP);
        } else if (self.len + 1) * 8 > self.buckets.len() * 7 {
            self.rebuild(self.buckets.len() * 2);
        }
        self.insert_inner(doc, val);
    }

    fn probe(&self, doc: DocId) -> Option<usize> {
        if self.buckets.is_empty() {
            return None;
        }
        let mask = self.mask();
        let mut i = self.bucket(doc);
        loop {
            let b = self.buckets[i];
            if b.val == NIL {
                return None;
            }
            if b.key == doc {
                return Some(i);
            }
            i = (i + 1) & mask;
        }
    }

    pub(crate) fn get(&self, doc: DocId) -> Option<u32> {
        self.probe(doc).map(|i| self.buckets[i].val)
    }

    /// Removes the mapping for `doc`, backward-shifting the probe chain.
    pub(crate) fn remove(&mut self, doc: DocId) -> Option<u32> {
        let mut hole = self.probe(doc)?;
        let removed = self.buckets[hole].val;
        let mask = self.mask();
        self.buckets[hole].val = NIL;
        self.len -= 1;
        let mut i = (hole + 1) & mask;
        while self.buckets[i].val != NIL {
            let home = self.bucket(self.buckets[i].key);
            // Shift the entry back iff the hole lies cyclically between its
            // home bucket and its current slot.
            let between = if hole <= i {
                home <= hole || home > i
            } else {
                home <= hole && home > i
            };
            if between {
                self.buckets[hole] = self.buckets[i];
                self.buckets[i].val = NIL;
                hole = i;
            }
            i = (i + 1) & mask;
        }
        Some(removed)
    }
}

/// Intrusive doubly-linked list over a [`Slab`] of [`Linked`] nodes.
///
/// The list owns only head/tail/len; all link storage is inside the nodes,
/// so membership moves between lists (probation → protected, small → main)
/// are pointer-free O(1) relinks with zero allocation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct List {
    head: u32,
    tail: u32,
    len: u32,
}

impl Default for List {
    fn default() -> Self {
        Self {
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }
}

impl List {
    /// The head slot, or [`NIL`] when empty.
    pub(crate) fn head(&self) -> u32 {
        self.head
    }

    /// The head slot, if any.
    #[inline]
    pub(crate) fn front(&self) -> Option<u32> {
        (self.head != NIL).then_some(self.head)
    }

    pub(crate) fn len(&self) -> usize {
        self.len as usize
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when `idx` is on this list (or, having a predecessor, on some
    /// list: slots never sit on two).
    pub(crate) fn contains<T: Linked>(&self, slab: &Slab<T>, idx: u32) -> bool {
        slab.get(idx).links().prev() != NIL || self.head == idx
    }

    /// Appends node `idx` at the tail (most-recent / newest position).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is already linked here.
    #[inline]
    pub(crate) fn push_tail<T: Linked>(&mut self, slab: &mut Slab<T>, idx: u32) {
        let old_tail = self.tail;
        {
            let links = slab.get_mut(idx).links_mut();
            assert!(
                links.prev() == NIL && links.next() == NIL && self.head != idx,
                "slot {idx} inserted twice"
            );
            links.set_prev(old_tail);
        }
        if old_tail == NIL {
            self.head = idx;
        } else {
            slab.get_mut(old_tail).links_mut().set_next(idx);
        }
        self.tail = idx;
        self.len += 1;
    }

    /// Unlinks node `idx` from anywhere in the list.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is not on the list.
    #[inline]
    pub(crate) fn unlink<T: Linked>(&mut self, slab: &mut Slab<T>, idx: u32) {
        let links = *slab.get(idx).links();
        let (prev, next) = (links.prev(), links.next());
        if prev == NIL {
            assert_eq!(self.head, idx, "slot {idx} is untracked by this list");
            self.head = next;
        } else {
            slab.get_mut(prev).links_mut().set_next(next);
        }
        if next == NIL {
            debug_assert_eq!(self.tail, idx, "unlinking node not at recorded tail");
            self.tail = prev;
        } else {
            slab.get_mut(next).links_mut().set_prev(prev);
        }
        let links = slab.get_mut(idx).links_mut();
        links.set_prev(NIL);
        links.set_next(NIL);
        self.len -= 1;
    }

    /// Moves node `idx` to the tail (touch on hit).
    #[inline]
    pub(crate) fn move_to_tail<T: Linked>(&mut self, slab: &mut Slab<T>, idx: u32) {
        if self.tail == idx {
            return;
        }
        self.unlink(slab, idx);
        self.push_tail(slab, idx);
    }

    /// Walks head→tail collecting indices.
    #[cfg(test)]
    pub(crate) fn collect<T: Linked>(&self, slab: &Slab<T>) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.len());
        let mut cursor = self.head;
        while cursor != NIL {
            out.push(cursor);
            assert!(out.len() <= self.len(), "list cycles past recorded len");
            cursor = slab.get(cursor).links().next();
        }
        assert_eq!(out.len(), self.len(), "list length disagrees with walk");
        out
    }
}

/// One heap element: the slot and its `(primary, seq)` key, kept in the
/// heap array so sifting compares without touching the arena.
#[derive(Debug, Clone, Copy)]
struct HeapItem {
    key: (u64, u64),
    slot: u32,
}

/// Array-backed binary min-heap of arena slots keyed by `(primary, seq)`.
///
/// The heap stamps `seq` from its own counter on every push and rekey, so
/// the order is total and equal primaries go least-recently-keyed first.
/// Each slot's position lives in its node's link word, so re-keying and
/// arbitrary-element removal (explicit cache removals) are O(log n)
/// without searching.
#[derive(Debug, Clone, Default)]
pub(crate) struct KeyedMinHeap {
    items: Vec<HeapItem>,
    next_seq: u64,
    growths: u64,
}

impl KeyedMinHeap {
    pub(crate) fn len(&self) -> usize {
        self.items.len()
    }

    pub(crate) fn growth_events(&self) -> u64 {
        self.growths
    }

    /// Smallest-keyed slot index, if any.
    pub(crate) fn peek(&self) -> Option<u32> {
        self.items.first().map(|item| item.slot)
    }

    fn stamp(&mut self, primary: u64) -> (u64, u64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        (primary, seq)
    }

    fn pos<T: Linked>(slab: &Slab<T>, slot: u32) -> u32 {
        let pos = slab.get(slot).links().next();
        assert!(pos != NIL, "slot {slot} is untracked by the heap");
        pos
    }

    /// Adds `slot` under `primary`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is already in the heap.
    pub(crate) fn push<T: Linked>(&mut self, slab: &mut Slab<T>, slot: u32, primary: u64) {
        assert!(
            slab.get(slot).links().next() == NIL,
            "slot {slot} inserted twice"
        );
        if self.items.len() == self.items.capacity() {
            self.growths += 1;
        }
        let pos = self.items.len() as u32;
        let key = self.stamp(primary);
        self.items.push(HeapItem { key, slot });
        slab.get_mut(slot).links_mut().set_next(pos);
        self.sift_up(slab, pos);
    }

    /// Gives `slot` a new primary (and a fresh seq) where it stands.
    pub(crate) fn rekey<T: Linked>(&mut self, slab: &mut Slab<T>, slot: u32, primary: u64) {
        let pos = Self::pos(slab, slot);
        self.items[pos as usize].key = self.stamp(primary);
        self.resift(slab, pos);
    }

    /// Removes `slot` from wherever it sits, returning its primary.
    pub(crate) fn remove<T: Linked>(&mut self, slab: &mut Slab<T>, slot: u32) -> u64 {
        let pos = Self::pos(slab, slot);
        let removed = self.items.swap_remove(pos as usize);
        slab.get_mut(slot).links_mut().set_next(NIL);
        if let Some(moved) = self.items.get(pos as usize) {
            slab.get_mut(moved.slot).links_mut().set_next(pos);
            self.resift(slab, pos);
        }
        removed.key.0
    }

    fn resift<T: Linked>(&mut self, slab: &mut Slab<T>, pos: u32) {
        self.sift_down(slab, pos);
        self.sift_up(slab, pos);
    }

    fn swap<T: Linked>(&mut self, slab: &mut Slab<T>, a: u32, b: u32) {
        self.items.swap(a as usize, b as usize);
        slab.get_mut(self.items[a as usize].slot)
            .links_mut()
            .set_next(a);
        slab.get_mut(self.items[b as usize].slot)
            .links_mut()
            .set_next(b);
    }

    fn key(&self, pos: u32) -> (u64, u64) {
        self.items[pos as usize].key
    }

    fn sift_up<T: Linked>(&mut self, slab: &mut Slab<T>, mut pos: u32) {
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if self.key(pos) < self.key(parent) {
                self.swap(slab, pos, parent);
                pos = parent;
            } else {
                return;
            }
        }
    }

    fn sift_down<T: Linked>(&mut self, slab: &mut Slab<T>, mut pos: u32) {
        let n = self.items.len() as u32;
        loop {
            let left = pos * 2 + 1;
            if left >= n {
                return;
            }
            let right = left + 1;
            let mut smallest = left;
            if right < n && self.key(right) < self.key(left) {
                smallest = right;
            }
            if self.key(smallest) < self.key(pos) {
                self.swap(slab, pos, smallest);
                pos = smallest;
            } else {
                return;
            }
        }
    }

    /// Checks the heap property and backpointers (tests).
    #[cfg(test)]
    pub(crate) fn audit<T: Linked>(&self, slab: &Slab<T>) {
        for (pos, item) in self.items.iter().enumerate() {
            assert_eq!(
                slab.get(item.slot).links().next(),
                pos as u32,
                "heap backpointer desync at pos {pos}"
            );
            if pos > 0 {
                let parent = (pos - 1) / 2;
                assert!(
                    self.key(parent as u32) <= self.key(pos as u32),
                    "heap property violated at pos {pos}"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy)]
    struct TestNode {
        doc: DocId,
        links: Links,
    }

    impl TestNode {
        fn new(doc: u64) -> Self {
            Self {
                doc: DocId::new(doc),
                links: Links::NEW,
            }
        }
    }

    impl Linked for TestNode {
        fn links(&self) -> &Links {
            &self.links
        }
        fn links_mut(&mut self) -> &mut Links {
            &mut self.links
        }
    }

    #[test]
    fn slab_recycles_freed_slots() {
        let mut slab = Slab::new();
        let a = slab.alloc(TestNode::new(1));
        let b = slab.alloc(TestNode::new(2));
        assert_eq!(slab.len(), 2);
        slab.free(a);
        assert_eq!(slab.len(), 1);
        assert!(slab.live(a).is_none());
        let c = slab.alloc(TestNode::new(3));
        assert_eq!(c, a, "freed slot should be recycled before growing");
        assert_eq!(slab.get(b).doc, DocId::new(2));
        slab.audit_freelist();
    }

    #[test]
    #[should_panic(expected = "freed twice")]
    fn slab_double_free_panics() {
        let mut slab = Slab::new();
        let a = slab.alloc(TestNode::new(1));
        slab.free(a);
        slab.free(a);
    }

    #[test]
    fn slab_steady_state_stops_growing() {
        let mut slab = Slab::new();
        let mut live = Vec::new();
        for i in 0..4 {
            live.push(slab.alloc(TestNode::new(i)));
        }
        let baseline = slab.growth_events();
        for i in 0..100 {
            let victim = live.remove(0);
            slab.free(victim);
            live.push(slab.alloc(TestNode::new(100 + i)));
        }
        assert_eq!(
            slab.growth_events(),
            baseline,
            "churn at capacity must not reallocate"
        );
    }

    #[test]
    fn table_insert_get_remove_roundtrip() {
        let mut table = DocTable::new(0xabcd);
        for i in 0..200u64 {
            table.insert(DocId::new(i), i as u32);
        }
        assert_eq!(table.len(), 200);
        for i in 0..200u64 {
            assert_eq!(table.get(DocId::new(i)), Some(i as u32));
        }
        for i in (0..200u64).step_by(2) {
            assert_eq!(table.remove(DocId::new(i)), Some(i as u32));
        }
        assert_eq!(table.len(), 100);
        for i in 0..200u64 {
            let want = if i % 2 == 0 { None } else { Some(i as u32) };
            assert_eq!(
                table.get(DocId::new(i)),
                want,
                "doc {i} after interleaved removal"
            );
        }
    }

    #[test]
    fn table_backward_shift_keeps_probe_chains_intact() {
        // Same-bucket collisions: remove the middle of a probe chain and
        // confirm the tail entries remain reachable.
        let mut table = DocTable::new(7);
        let docs: Vec<DocId> = (0..6u64).map(DocId::new).collect();
        for (i, &d) in docs.iter().enumerate() {
            table.insert(d, i as u32);
        }
        table.remove(docs[2]);
        table.remove(docs[0]);
        for (i, &d) in docs.iter().enumerate() {
            let want = if i == 0 || i == 2 {
                None
            } else {
                Some(i as u32)
            };
            assert_eq!(table.get(d), want);
        }
    }

    #[test]
    fn table_presized_does_not_grow_under_churn() {
        // One pass at the peak occupancy sizes the table; after that,
        // churn at or below it must never rehash.
        let mut table = DocTable::new(9);
        let round = |table: &mut DocTable, base: u64| {
            for i in 0..32u64 {
                table.insert(DocId::new(base + i), i as u32);
            }
            for i in 0..32u64 {
                table.remove(DocId::new(base + i));
            }
        };
        round(&mut table, 0);
        let presized = table.growth_events();
        for r in 1..10u64 {
            round(&mut table, r * 1000);
        }
        assert_eq!(
            table.growth_events(),
            presized,
            "bounded occupancy must not rehash"
        );
    }

    #[test]
    fn list_push_unlink_move_preserve_order() {
        let mut slab = Slab::new();
        let mut list = List::default();
        let idx: Vec<u32> = (0..5u64).map(|i| slab.alloc(TestNode::new(i))).collect();
        for &i in &idx {
            list.push_tail(&mut slab, i);
        }
        assert_eq!(list.collect(&slab), idx);
        list.move_to_tail(&mut slab, idx[1]);
        assert_eq!(
            list.collect(&slab),
            vec![idx[0], idx[2], idx[3], idx[4], idx[1]]
        );
        list.unlink(&mut slab, idx[0]);
        assert_eq!(list.head(), idx[2]);
        list.unlink(&mut slab, idx[1]);
        assert_eq!(list.collect(&slab), vec![idx[2], idx[3], idx[4]]);
        assert_eq!(list.len(), 3);
        // Flags ride in the word without disturbing the links.
        slab.get_mut(idx[3])
            .links_mut()
            .set_flag(Links::FLAG_HI, true);
        slab.get_mut(idx[3])
            .links_mut()
            .set_flag(Links::FLAG_LO, true);
        list.move_to_tail(&mut slab, idx[3]);
        assert_eq!(list.collect(&slab), vec![idx[2], idx[4], idx[3]]);
        let links = *slab.get(idx[3]).links();
        assert!(links.flag(Links::FLAG_HI) && links.flag(Links::FLAG_LO));
    }

    #[test]
    fn heap_pops_in_total_key_order() {
        let mut slab = Slab::new();
        let mut heap = KeyedMinHeap::default();
        // Duplicate primaries broken by the heap's own seq stamps.
        let primaries = [5, 1, 5, 0, 3, 1];
        for (i, &p) in primaries.iter().enumerate() {
            let slot = slab.alloc(TestNode::new(i as u64));
            heap.push(&mut slab, slot, p);
            heap.audit(&slab);
        }
        let mut drained = Vec::new();
        while let Some(min) = heap.peek() {
            drained.push(slab.get(min).doc.as_u64());
            heap.remove(&mut slab, min);
            heap.audit(&slab);
        }
        // (0,3) (1,1) (1,5) (3,4) (5,0) (5,2)
        assert_eq!(drained, vec![3, 1, 5, 4, 0, 2]);
    }

    #[test]
    fn heap_removes_arbitrary_elements() {
        let mut slab = Slab::new();
        let mut heap = KeyedMinHeap::default();
        let idx: Vec<u32> = (0..10u64)
            .map(|i| {
                let slot = slab.alloc(TestNode::new(i));
                heap.push(&mut slab, slot, i);
                slot
            })
            .collect();
        assert_eq!(heap.remove(&mut slab, idx[4]), 4);
        heap.remove(&mut slab, idx[0]);
        heap.audit(&slab);
        assert_eq!(heap.len(), 8);
        assert_eq!(heap.peek(), Some(idx[1]));
        // Re-keying moves a slot to its new place in the order.
        heap.rekey(&mut slab, idx[1], 7);
        heap.audit(&slab);
        assert_eq!(heap.peek(), Some(idx[2]));
    }

    #[test]
    fn mix64_spreads_sequential_keys() {
        let mut buckets = [0u32; 8];
        for i in 0..1024u64 {
            buckets[(mix64(i) & 7) as usize] += 1;
        }
        for (b, &count) in buckets.iter().enumerate() {
            assert!(count > 64, "bucket {b} starved: {count}");
        }
    }
}
