//! Index-linked storage primitives for the arena-backed cache core.
//!
//! Everything in this module works on dense `u32` slot indices instead of
//! heap pointers: a [`Slab`] arena with an intrusive freelist, an
//! open-addressing [`DocTable`] keyed by seeded document hash, an intrusive
//! doubly-linked [`List`] whose links live inside arena nodes, and a
//! [`KeyedMinHeap`] whose position backpointers live inside arena nodes.
//!
//! The combination makes lookup, eviction and promotion pointer-free O(1)
//! (O(log n) for the heap-ordered policies) with zero per-operation
//! allocation once the backing vectors reach steady-state capacity. Every
//! structure counts backing-vector growth events so the `store_scale`
//! test can assert the hot path stopped allocating.

use coopcache_types::DocId;

/// Sentinel index meaning "no slot" (null link, empty bucket, absent pos).
pub(crate) const NIL: u32 = u32::MAX;

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

/// A slot in a [`Slab`]: either a live node or a freelist link.
#[derive(Debug, Clone)]
enum Slot<T> {
    Used(T),
    Free { next: u32 },
}

/// Flat arena of nodes addressed by `u32` index, with an intrusive freelist.
///
/// Freed slots are recycled LIFO, so a steady-state workload (insert/evict
/// churn at constant occupancy) never grows the backing vector.
#[derive(Debug, Clone)]
pub(crate) struct Slab<T> {
    slots: Vec<Slot<T>>,
    free_head: u32,
    len: u32,
    growths: u64,
}

impl<T> Slab<T> {
    pub(crate) fn new() -> Self {
        Self {
            slots: Vec::new(),
            free_head: NIL,
            len: 0,
            growths: 0,
        }
    }

    #[cfg_attr(not(test), allow(dead_code))] // presizing hook for callers that know their load
    pub(crate) fn with_capacity(cap: usize) -> Self {
        Self {
            slots: Vec::with_capacity(cap),
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
            match self.slots[idx as usize] {
                Slot::Free { next } => self.free_head = next,
                // lint:allow(panic) -- reached only on freelist corruption,
                // which the paranoid audit exists to catch loudly.
                Slot::Used(_) => unreachable!("freelist points at a live slot"),
            }
            self.slots[idx as usize] = Slot::Used(value);
            return idx;
        }
        // lint:allow(panic) -- a >4G-entry shard is outside the design
        // envelope (u32 indices are the point of the layout); overflow
        // here is misconfiguration, not a runtime condition to handle.
        let idx = u32::try_from(self.slots.len()).expect("slab exceeds u32 index space");
        if self.slots.len() == self.slots.capacity() {
            self.growths += 1;
        }
        self.slots.push(Slot::Used(value));
        idx
    }

    /// Releases slot `idx` back to the freelist, returning its value.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is not a live slot.
    pub(crate) fn free(&mut self, idx: u32) -> T {
        let slot = std::mem::replace(
            &mut self.slots[idx as usize],
            Slot::Free {
                next: self.free_head,
            },
        );
        match slot {
            Slot::Used(value) => {
                self.free_head = idx;
                self.len -= 1;
                value
            }
            // lint:allow(panic) -- documented caller contract: freeing a
            // dead slot means the caller's doc table desynced from the
            // arena, and continuing would corrupt both.
            Slot::Free { .. } => panic!("slab slot {idx} freed twice"),
        }
    }

    /// # Panics
    ///
    /// Panics if `idx` is not a live slot.
    pub(crate) fn get(&self, idx: u32) -> &T {
        match &self.slots[idx as usize] {
            Slot::Used(value) => value,
            // lint:allow(panic) -- documented caller contract: a stale
            // index is bookkeeping corruption, not a recoverable miss.
            Slot::Free { .. } => panic!("slab slot {idx} is free"),
        }
    }

    /// # Panics
    ///
    /// Panics if `idx` is not a live slot.
    pub(crate) fn get_mut(&mut self, idx: u32) -> &mut T {
        match &mut self.slots[idx as usize] {
            Slot::Used(value) => value,
            // lint:allow(panic) -- documented caller contract (see `get`).
            Slot::Free { .. } => panic!("slab slot {idx} is free"),
        }
    }

    /// Iterates `(index, node)` over live slots in ascending index order.
    ///
    /// Index order is an artifact of allocation history, not a semantic
    /// order; callers that expose iteration externally must sort (see the
    /// `map-iter` lint's open-addressing clause).
    pub(crate) fn iter_unordered(&self) -> impl Iterator<Item = (u32, &T)> {
        self.slots.iter().enumerate().filter_map(|(i, s)| match s {
            Slot::Used(value) => Some((i as u32, value)),
            Slot::Free { .. } => None,
        })
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
            cursor = match &self.slots[i] {
                Slot::Free { next } => *next,
                // lint:allow(panic) -- this IS the paranoid audit; its job
                // is to fail loudly on corruption.
                Slot::Used(_) => panic!("slab freelist points at live slot {cursor}"),
            };
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

    #[cfg_attr(not(test), allow(dead_code))] // presizing hook for callers that know their load
    pub(crate) fn with_capacity(seed: u64, cap: usize) -> Self {
        let mut t = Self::new(seed);
        if cap > 0 {
            t.rebuild(cap.next_power_of_two().max(Self::MIN_CAP));
            t.growths = 0;
        }
        t
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

    /// Updates the slot index stored for `doc` (node moved in the arena).
    ///
    /// # Panics
    ///
    /// Panics if `doc` is untracked.
    #[allow(dead_code)]
    pub(crate) fn set(&mut self, doc: DocId, val: u32) {
        // lint:allow(panic) -- documented caller contract: doc must be
        // tracked; an untracked doc means table/arena desync.
        let i = self.probe(doc).expect("doc untracked in table");
        self.buckets[i].val = val;
    }
}

/// Intrusive prev/next links embedded inside an arena node.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Links {
    pub(crate) prev: u32,
    pub(crate) next: u32,
}

impl Default for Links {
    fn default() -> Self {
        Self {
            prev: NIL,
            next: NIL,
        }
    }
}

/// Nodes that carry intrusive [`Links`] can be threaded onto a [`List`].
pub(crate) trait Linked {
    fn links(&self) -> &Links;
    fn links_mut(&mut self) -> &mut Links;
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

impl List {
    pub(crate) fn new() -> Self {
        Self {
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    pub(crate) fn head(&self) -> u32 {
        self.head
    }

    #[allow(dead_code)]
    pub(crate) fn tail(&self) -> u32 {
        self.tail
    }

    pub(crate) fn len(&self) -> usize {
        self.len as usize
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends node `idx` at the tail (most-recent / newest position).
    pub(crate) fn push_tail<T: Linked>(&mut self, slab: &mut Slab<T>, idx: u32) {
        let old_tail = self.tail;
        {
            let links = slab.get_mut(idx).links_mut();
            links.prev = old_tail;
            links.next = NIL;
        }
        if old_tail == NIL {
            self.head = idx;
        } else {
            slab.get_mut(old_tail).links_mut().next = idx;
        }
        self.tail = idx;
        self.len += 1;
    }

    /// Unlinks node `idx` from anywhere in the list.
    pub(crate) fn unlink<T: Linked>(&mut self, slab: &mut Slab<T>, idx: u32) {
        let Links { prev, next } = *slab.get(idx).links();
        if prev == NIL {
            debug_assert_eq!(self.head, idx, "unlinking node not at recorded head");
            self.head = next;
        } else {
            slab.get_mut(prev).links_mut().next = next;
        }
        if next == NIL {
            debug_assert_eq!(self.tail, idx, "unlinking node not at recorded tail");
            self.tail = prev;
        } else {
            slab.get_mut(next).links_mut().prev = prev;
        }
        let links = slab.get_mut(idx).links_mut();
        links.prev = NIL;
        links.next = NIL;
        self.len -= 1;
    }

    /// Moves node `idx` to the tail (touch on hit).
    pub(crate) fn move_to_tail<T: Linked>(&mut self, slab: &mut Slab<T>, idx: u32) {
        if self.tail == idx {
            return;
        }
        self.unlink(slab, idx);
        self.push_tail(slab, idx);
    }

    /// Walks head→tail collecting indices (audits and drains only).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn collect<T: Linked>(&self, slab: &Slab<T>) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.len());
        let mut cursor = self.head;
        while cursor != NIL {
            out.push(cursor);
            assert!(out.len() <= self.len(), "list cycles past recorded len");
            cursor = slab.get(cursor).links().next;
        }
        assert_eq!(out.len(), self.len(), "list length disagrees with walk");
        out
    }
}

/// Nodes orderable by a `(primary, seq)` key can sit in a [`KeyedMinHeap`].
///
/// `seq` is a unique monotone tiebreaker, so the order is total and the
/// heap reproduces exactly the order the previous `BTreeSet<(key, seq,
/// DocId)>` representations produced.
pub(crate) trait HeapKeyed {
    fn heap_key(&self) -> (u64, u64);
    fn heap_pos(&self) -> u32;
    fn set_heap_pos(&mut self, pos: u32);
}

/// Array-backed binary min-heap of arena slot indices.
///
/// Position backpointers live inside the nodes, so arbitrary-element
/// removal (explicit cache removals) is O(log n) without searching.
#[derive(Debug, Clone)]
pub(crate) struct KeyedMinHeap {
    items: Vec<u32>,
    growths: u64,
}

impl KeyedMinHeap {
    pub(crate) fn new() -> Self {
        Self {
            items: Vec::new(),
            growths: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.items.len()
    }

    pub(crate) fn growth_events(&self) -> u64 {
        self.growths
    }

    /// Smallest-keyed slot index, if any.
    pub(crate) fn peek(&self) -> Option<u32> {
        self.items.first().copied()
    }

    pub(crate) fn push<T: HeapKeyed>(&mut self, slab: &mut Slab<T>, idx: u32) {
        if self.items.len() == self.items.capacity() {
            self.growths += 1;
        }
        let pos = self.items.len() as u32;
        self.items.push(idx);
        slab.get_mut(idx).set_heap_pos(pos);
        self.sift_up(slab, pos);
    }

    /// Removes slot index `idx` from wherever it sits in the heap.
    pub(crate) fn remove<T: HeapKeyed>(&mut self, slab: &mut Slab<T>, idx: u32) {
        let pos = slab.get(idx).heap_pos();
        debug_assert_eq!(self.items[pos as usize], idx, "heap pos backpointer desync");
        let last = self.items.len() as u32 - 1;
        if pos != last {
            let moved = self.items[last as usize];
            self.items[pos as usize] = moved;
            slab.get_mut(moved).set_heap_pos(pos);
        }
        self.items.pop();
        slab.get_mut(idx).set_heap_pos(NIL);
        if pos <= last && (pos as usize) < self.items.len() {
            self.sift_down(slab, pos);
            self.sift_up(slab, pos);
        }
    }

    fn key<T: HeapKeyed>(&self, slab: &Slab<T>, pos: u32) -> (u64, u64) {
        slab.get(self.items[pos as usize]).heap_key()
    }

    fn swap<T: HeapKeyed>(&mut self, slab: &mut Slab<T>, a: u32, b: u32) {
        self.items.swap(a as usize, b as usize);
        slab.get_mut(self.items[a as usize]).set_heap_pos(a);
        slab.get_mut(self.items[b as usize]).set_heap_pos(b);
    }

    fn sift_up<T: HeapKeyed>(&mut self, slab: &mut Slab<T>, mut pos: u32) {
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if self.key(slab, pos) < self.key(slab, parent) {
                self.swap(slab, pos, parent);
                pos = parent;
            } else {
                return;
            }
        }
    }

    fn sift_down<T: HeapKeyed>(&mut self, slab: &mut Slab<T>, mut pos: u32) {
        let n = self.items.len() as u32;
        loop {
            let left = pos * 2 + 1;
            if left >= n {
                return;
            }
            let right = left + 1;
            let mut smallest = left;
            if right < n && self.key(slab, right) < self.key(slab, left) {
                smallest = right;
            }
            if self.key(slab, smallest) < self.key(slab, pos) {
                self.swap(slab, pos, smallest);
                pos = smallest;
            } else {
                return;
            }
        }
    }

    /// Checks the heap property and backpointers (paranoid audits).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn audit<T: HeapKeyed>(&self, slab: &Slab<T>) {
        for (pos, &idx) in self.items.iter().enumerate() {
            assert_eq!(
                slab.get(idx).heap_pos(),
                pos as u32,
                "heap backpointer desync at pos {pos}"
            );
            if pos > 0 {
                let parent = (pos - 1) / 2;
                assert!(
                    self.key(slab, parent as u32) <= self.key(slab, pos as u32),
                    "heap property violated at pos {pos}"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone)]
    struct TestNode {
        doc: DocId,
        key: (u64, u64),
        links: Links,
        pos: u32,
    }

    impl TestNode {
        fn new(doc: u64, key: (u64, u64)) -> Self {
            Self {
                doc: DocId::new(doc),
                key,
                links: Links::default(),
                pos: NIL,
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

    impl HeapKeyed for TestNode {
        fn heap_key(&self) -> (u64, u64) {
            self.key
        }
        fn heap_pos(&self) -> u32 {
            self.pos
        }
        fn set_heap_pos(&mut self, pos: u32) {
            self.pos = pos;
        }
    }

    #[test]
    fn slab_recycles_freed_slots() {
        let mut slab = Slab::new();
        let a = slab.alloc(TestNode::new(1, (0, 0)));
        let b = slab.alloc(TestNode::new(2, (0, 1)));
        assert_eq!(slab.len(), 2);
        slab.free(a);
        assert_eq!(slab.len(), 1);
        let c = slab.alloc(TestNode::new(3, (0, 2)));
        assert_eq!(c, a, "freed slot should be recycled before growing");
        assert_eq!(slab.get(b).doc, DocId::new(2));
        slab.audit_freelist();
    }

    #[test]
    #[should_panic(expected = "freed twice")]
    fn slab_double_free_panics() {
        let mut slab = Slab::new();
        let a = slab.alloc(TestNode::new(1, (0, 0)));
        slab.free(a);
        slab.free(a);
    }

    #[test]
    fn slab_steady_state_stops_growing() {
        let mut slab = Slab::with_capacity(4);
        let mut live = Vec::new();
        for i in 0..4 {
            live.push(slab.alloc(TestNode::new(i, (0, i))));
        }
        let baseline = slab.growth_events();
        for i in 0..100 {
            let victim = live.remove(0);
            slab.free(victim);
            live.push(slab.alloc(TestNode::new(100 + i, (0, 100 + i))));
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
        let mut table = DocTable::with_capacity(7, 8);
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
        let mut table = DocTable::with_capacity(9, 64);
        assert_eq!(table.growth_events(), 0);
        for round in 0..10u64 {
            for i in 0..32u64 {
                table.insert(DocId::new(round * 1000 + i), i as u32);
            }
            for i in 0..32u64 {
                table.remove(DocId::new(round * 1000 + i));
            }
        }
        assert_eq!(
            table.growth_events(),
            0,
            "bounded occupancy must not rehash"
        );
    }

    #[test]
    fn list_push_unlink_move_preserve_order() {
        let mut slab = Slab::new();
        let mut list = List::new();
        let idx: Vec<u32> = (0..5u64)
            .map(|i| slab.alloc(TestNode::new(i, (0, i))))
            .collect();
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
    }

    #[test]
    fn heap_pops_in_total_key_order() {
        let mut slab = Slab::new();
        let mut heap = KeyedMinHeap::new();
        // Duplicate primaries broken by unique seq — mirrors the BTreeSet
        // orders the policies used before the port.
        let keys = [(5, 0), (1, 1), (5, 2), (0, 3), (3, 4), (1, 5)];
        let idx: Vec<u32> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| slab.alloc(TestNode::new(i as u64, k)))
            .collect();
        for &i in &idx {
            heap.push(&mut slab, i);
            heap.audit(&slab);
        }
        let mut drained = Vec::new();
        while let Some(min) = heap.peek() {
            drained.push(slab.get(min).heap_key());
            heap.remove(&mut slab, min);
            heap.audit(&slab);
        }
        let mut want = keys.to_vec();
        want.sort_unstable();
        assert_eq!(drained, want);
    }

    #[test]
    fn heap_removes_arbitrary_elements() {
        let mut slab = Slab::new();
        let mut heap = KeyedMinHeap::new();
        let idx: Vec<u32> = (0..10u64)
            .map(|i| slab.alloc(TestNode::new(i, (i, i))))
            .collect();
        for &i in &idx {
            heap.push(&mut slab, i);
        }
        heap.remove(&mut slab, idx[4]);
        heap.remove(&mut slab, idx[0]);
        heap.audit(&slab);
        assert_eq!(heap.len(), 8);
        assert_eq!(heap.peek(), Some(idx[1]));
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
