//! Index-linked storage primitives for the arena-backed cache core.
//!
//! Everything in this module works on dense `u32` slot indices instead of
//! heap pointers: a [`Slab`] arena with an intrusive freelist, an
//! open-addressing [`DocTable`] keyed by seeded document hash, an intrusive
//! doubly-linked [`List`] and a [`KeyedMinHeap`], both of which keep their
//! per-slot state in the slot's 8-byte [`Links`] word.
//!
//! A cache's arena holds its public [`CacheEntry`] values, and the slab
//! keeps each slot's word in a dense array beside them, so the
//! replacement policies order the cache's own slots and no policy keeps a
//! second index. An LRU hit's relinks touch only that 8-byte-per-slot
//! array, never the neighbours' entries. The entry is also the only place
//! a document's key is stored: a table bucket holds a hash fragment and a
//! slot, and confirms a match through the arena ([`Keyed`]). Lookup,
//! eviction and promotion are pointer-free O(1) (O(log n) for the
//! heap-ordered policies), and none of these structures allocates once
//! its backing vectors reach steady-state capacity. Every structure
//! counts backing-vector growth events so the `store_scale` test can
//! assert that growth stopped.

use crate::entry::CacheEntry;
use coopcache_types::DocId;

/// Slot indices take the low 30 bits of a link.
const INDEX: u32 = (1 << 30) - 1;

/// Sentinel index meaning "no slot" (null link, empty bucket, absent pos).
pub(crate) const NIL: u32 = INDEX;

/// Top bit of `next`: the slot is on the arena's freelist.
const FREE: u32 = 1 << 31;

/// The per-slot policy word, kept in an array beside the arena's values.
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

    #[inline]
    fn is_free(self) -> bool {
        self.next & FREE != 0
    }
}

/// Values a [`Slab`] can hold: each carries its own vacancy mark, so the
/// stale-slot check in [`Slab::get`] reads the value it returns and not
/// the word array.
pub(crate) trait Vacancy: Copy {
    /// Marks a value whose slot was just freed.
    fn vacate(&mut self);
    /// True iff [`vacate`](Self::vacate) wrote this value's mark.
    fn is_vacant(&self) -> bool;
}

/// Arena values that hold their own document key, so a [`DocTable`] over
/// their slab keeps no copy of it.
pub(crate) trait Keyed: Vacancy {
    fn doc(&self) -> DocId;
}

// A cache's whole per-entry footprint in the arena is the entry plus its
// word.
const _: () = assert!(std::mem::size_of::<CacheEntry>() == 40);
const _: () = assert!(std::mem::size_of::<Links>() == 8);

/// A live entry's hit counter starts at 1 and only grows (paper §3.2.2),
/// so 0 is free to mark a vacant slot.
impl Vacancy for CacheEntry {
    #[inline]
    fn vacate(&mut self) {
        self.hit_count = 0;
    }
    #[inline]
    fn is_vacant(&self) -> bool {
        self.hit_count == 0
    }
}

impl Keyed for CacheEntry {
    #[inline]
    fn doc(&self) -> DocId {
        self.doc
    }
}

/// Flat arena of values addressed by `u32` index, with each slot's
/// [`Links`] word in a second vector kept in lockstep and an intrusive
/// freelist threaded through the free slots' words.
///
/// Freed slots are recycled LIFO, so a steady-state workload (insert/evict
/// churn at constant occupancy) never grows the backing vectors. A freed
/// slot is marked twice: the `FREE` bit of its word, which the freelist
/// and the link accessors read, and the value's own vacancy mark, which
/// [`get`](Self::get) reads; [`audit_words`](Self::audit_words) and the
/// freelist audit check that the two agree.
#[derive(Debug, Clone)]
pub(crate) struct Slab<T> {
    slots: Vec<T>,
    links: Vec<Links>,
    free_head: u32,
    len: u32,
    growths: u64,
}

impl<T: Vacancy> Slab<T> {
    pub(crate) fn new() -> Self {
        Self {
            slots: Vec::new(),
            links: Vec::new(),
            free_head: NIL,
            len: 0,
            growths: 0,
        }
    }

    /// Number of live values.
    pub(crate) fn len(&self) -> usize {
        self.len as usize
    }

    /// Times the backing vectors had to reallocate, counting the two
    /// lockstep vectors' growth as one event (0 in steady state).
    pub(crate) fn growth_events(&self) -> u64 {
        self.growths
    }

    /// Stores `value` with an unlinked word, recycling a freed slot when
    /// one exists.
    ///
    /// # Panics
    ///
    /// Panics if `value` carries the vacancy mark.
    #[inline]
    pub(crate) fn alloc(&mut self, value: T) -> u32 {
        assert!(!value.is_vacant(), "slab value carries the vacancy mark");
        self.len += 1;
        if self.free_head != NIL {
            let idx = self.free_head;
            let word = &mut self.links[idx as usize];
            self.free_head = word.next & INDEX;
            *word = Links::NEW;
            self.slots[idx as usize] = value;
            return idx;
        }
        let idx = self.slots.len() as u32;
        assert!(idx < NIL, "slab exceeds its 2^30-slot index space");
        if self.slots.len() == self.slots.capacity() {
            self.growths += 1;
        }
        self.slots.push(value);
        self.links.push(Links::NEW);
        idx
    }

    /// Releases slot `idx` back to the freelist, returning its value.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is not a live slot.
    pub(crate) fn free(&mut self, idx: u32) -> T {
        let word = &mut self.links[idx as usize];
        // A free slot here means the caller's doc table desynced from the
        // arena, and continuing would corrupt both.
        assert!(!word.is_free(), "slab slot {idx} freed twice");
        word.set_next(FREE | self.free_head);
        let slot = &mut self.slots[idx as usize];
        let value = *slot;
        slot.vacate();
        self.free_head = idx;
        self.len -= 1;
        value
    }

    /// The value in slot `idx`, or `None` if the slot is free.
    pub(crate) fn live(&self, idx: u32) -> Option<&T> {
        self.slots
            .get(idx as usize)
            .filter(|value| !value.is_vacant())
    }

    /// # Panics
    ///
    /// Panics if `idx` is not a live slot.
    #[inline]
    pub(crate) fn get(&self, idx: u32) -> &T {
        let value = &self.slots[idx as usize];
        // A stale index is bookkeeping corruption, not a recoverable miss.
        assert!(!value.is_vacant(), "slab slot {idx} is free");
        value
    }

    /// # Panics
    ///
    /// Panics if `idx` is not a live slot.
    #[inline]
    pub(crate) fn get_mut(&mut self, idx: u32) -> &mut T {
        let value = &mut self.slots[idx as usize];
        assert!(!value.is_vacant(), "slab slot {idx} is free");
        value
    }

    /// The policy word of slot `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is not a live slot.
    #[inline]
    pub(crate) fn links(&self, idx: u32) -> Links {
        let word = self.links[idx as usize];
        assert!(!word.is_free(), "slab slot {idx} is free");
        word
    }

    /// # Panics
    ///
    /// Panics if `idx` is not a live slot.
    #[inline]
    pub(crate) fn links_mut(&mut self, idx: u32) -> &mut Links {
        let word = &mut self.links[idx as usize];
        assert!(!word.is_free(), "slab slot {idx} is free");
        word
    }

    /// Iterates `(index, value)` over live slots in ascending index order.
    ///
    /// Index order is an artifact of allocation history, not a semantic
    /// order. It stays crate-private: `Cache::check_invariants` sums it,
    /// and `Cache::for_each_resident` hands it out only through a closure,
    /// so no caller outside core can collect or sort it.
    pub(crate) fn iter_unordered(&self) -> impl Iterator<Item = (u32, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, value)| !value.is_vacant())
            .map(|(i, value)| (i as u32, value))
    }

    /// Checks the word array against the values: it is as long as the
    /// arena, and each slot's word carries the `FREE` bit exactly when its
    /// value carries the vacancy mark. Returns the first slot that
    /// disagrees, or `Err(None)` for a length mismatch.
    pub(crate) fn audit_words(&self) -> Result<(), Option<u32>> {
        if self.links.len() != self.slots.len() {
            return Err(None);
        }
        match self
            .slots
            .iter()
            .zip(&self.links)
            .position(|(value, word)| value.is_vacant() != word.is_free())
        {
            Some(i) => Err(Some(i as u32)),
            None => Ok(()),
        }
    }

    /// Walks the freelist and returns the number of free slots, panicking
    /// if the list is cyclic, points at live slots, or disagrees with the
    /// values' vacancy marks (paranoid audits).
    #[cfg_attr(not(any(test, feature = "paranoid")), allow(dead_code))]
    pub(crate) fn audit_freelist(&self) -> usize {
        assert_eq!(
            self.links.len(),
            self.slots.len(),
            "slab word array and arena differ in length"
        );
        let mut listed = vec![false; self.slots.len()];
        let mut cursor = self.free_head;
        let mut count = 0usize;
        while cursor != NIL {
            let i = cursor as usize;
            assert!(!listed[i], "slab freelist cycles through slot {cursor}");
            listed[i] = true;
            let word = self.links[i];
            assert!(word.is_free(), "slab freelist points at live slot {cursor}");
            cursor = word.next & INDEX;
            count += 1;
        }
        assert_eq!(
            count + self.len(),
            self.slots.len(),
            "slab freelist disagrees with occupancy"
        );
        for (i, value) in self.slots.iter().enumerate() {
            assert_eq!(
                value.is_vacant(),
                listed[i],
                "slab slot {i}'s vacancy mark disagrees with the freelist"
            );
        }
        count
    }
}

impl<T: Keyed> Slab<T> {
    /// The key in slot `idx`, read without [`get`](Self::get)'s free-slot
    /// check so a table probe touches only the key's word of the value. A
    /// freed slot keeps its last key; [`DocTable::audit`] is what catches
    /// a bucket left pointing at one.
    #[inline]
    fn key(&self, idx: u32) -> DocId {
        self.slots[idx as usize].doc()
    }
}

/// One bucket of a [`DocTable`]: the document's hash fragment
/// ([`DocTable::fragment`]) and its arena slot — 8 bytes, eight buckets
/// to a cache line. The key itself lives only in the slot's value. Empty
/// iff `slot == NIL` (`frag` is then meaningless).
#[derive(Debug, Clone, Copy)]
struct Bucket {
    frag: u32,
    slot: u32,
}

impl Bucket {
    const EMPTY: Self = Self { frag: 0, slot: NIL };
}

/// Bucket arrays up to this many buckets (256 KB) grow at ¼ load, larger
/// ones at ½.
const SMALL_TABLE: usize = 1 << 15;

/// Whether `len` entries overload a table of `buckets` buckets, so that
/// it must double first. A small array sits in L2, where spare buckets
/// cost no misses and every one shortens the miss-heavy ICP probes, so
/// it grows at ¼ load. Beyond that the array's bytes are cache misses
/// of their own, so it grows at ½, and a 1M-entry table (the store
/// workloads') takes 2^21 buckets, 16 MB.
const fn overloaded(len: usize, buckets: usize) -> bool {
    if buckets <= SMALL_TABLE {
        len * 4 > buckets
    } else {
        len * 2 > buckets
    }
}

/// Open-addressing hash table mapping [`DocId`] to a slot of a [`Slab`]
/// of [`Keyed`] values, which hold the keys.
///
/// Power-of-two capacity, linear probing, backward-shift deletion (no
/// tombstones, so probe chains never rot), kept at low load by
/// [`overloaded`]: most probes in the cooperative protocol are ICP
/// queries for documents the sibling does not hold, and an unsuccessful
/// linear probe reads about ½(1 + 1/(1 − α)²) buckets at load α — 32 at
/// 7/8, 2.5 at ½, 1.4 at ¼. A probe compares hash fragments and confirms
/// a matching one against the key in the caller's arena, so only a true
/// hit (or a 2^-32 fragment collision) reads a value. The home bucket is
/// the fragment's top bits, so rebuilds and backward shifts never read a
/// value; but `get` and `remove` do, so every `remove` must run while its
/// slot is still live. The seed decorrelates bucket order between shards
/// without affecting any externally visible order — every external
/// iteration path sorts by `DocId` first.
#[derive(Debug, Clone)]
pub(crate) struct DocTable {
    buckets: Vec<Bucket>,
    len: usize,
    seed: u64,
    /// `32 - log2(buckets.len())`: a fragment's top bits are its home.
    shift: u32,
    growths: u64,
}

impl DocTable {
    const MIN_CAP: usize = 8;

    /// 2^64 / φ, rounded to odd.
    const FIBONACCI: u64 = 0x9e37_79b9_7f4a_7c15;

    pub(crate) fn new(seed: u64) -> Self {
        Self {
            buckets: Vec::new(),
            len: 0,
            seed,
            shift: 32,
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

    /// The high 32 bits of `doc`'s seeded Fibonacci hash: one multiply
    /// by 2^64/φ, whose high bits depend on every bit of the key. A probe
    /// computes it before its first load, and every local miss probes
    /// every sibling, so it is kept to one multiply rather than a full
    /// mixer; consecutive ids, the trace's popularity ranks, land almost
    /// evenly spaced. Slots take 30 bits, so at ½ load (the larger
    /// tables' limit) the table never has more than 2^31 buckets, fewer
    /// than a fragment can address.
    #[inline]
    fn fragment(&self, doc: DocId) -> u32 {
        ((doc.as_u64() ^ self.seed).wrapping_mul(Self::FIBONACCI) >> 32) as u32
    }

    /// The fragment's top `log2(buckets)` bits.
    #[inline]
    fn home(&self, frag: u32) -> usize {
        (frag >> self.shift) as usize
    }

    fn rebuild(&mut self, new_cap: usize) {
        debug_assert!(new_cap.is_power_of_two());
        let old = std::mem::replace(&mut self.buckets, vec![Bucket::EMPTY; new_cap]);
        self.shift = 32 - new_cap.trailing_zeros();
        self.growths += 1;
        let mask = self.mask();
        for bucket in old.into_iter().filter(|b| b.slot != NIL) {
            let mut i = self.home(bucket.frag);
            while self.buckets[i].slot != NIL {
                i = (i + 1) & mask;
            }
            self.buckets[i] = bucket;
        }
    }

    /// Maps `doc` to `slot`. Doubles (and rehashes) when the new entry
    /// would overload the table (see [`overloaded`]).
    ///
    /// # Panics
    ///
    /// Panics if `doc` is already mapped to a slot of `arena`.
    pub(crate) fn insert<T: Keyed>(&mut self, doc: DocId, slot: u32, arena: &Slab<T>) {
        if self.buckets.is_empty() {
            self.rebuild(Self::MIN_CAP);
        } else if overloaded(self.len + 1, self.buckets.len()) {
            self.rebuild(self.buckets.len() * 2);
        }
        let mask = self.mask();
        let frag = self.fragment(doc);
        let mut i = self.home(frag);
        loop {
            let b = self.buckets[i];
            if b.slot == NIL {
                self.buckets[i] = Bucket { frag, slot };
                self.len += 1;
                return;
            }
            assert!(
                b.frag != frag || arena.key(b.slot) != doc,
                "doc {doc} inserted twice into table"
            );
            i = (i + 1) & mask;
        }
    }

    /// The bucket mapping `doc` to a slot of `arena`, if any.
    #[inline]
    fn probe<T: Keyed>(&self, doc: DocId, arena: &Slab<T>) -> Option<usize> {
        if self.buckets.is_empty() {
            return None;
        }
        let mask = self.mask();
        let frag = self.fragment(doc);
        let mut i = self.home(frag);
        loop {
            let b = self.buckets[i];
            if b.slot == NIL {
                return None;
            }
            if b.frag == frag && arena.key(b.slot) == doc {
                return Some(i);
            }
            i = (i + 1) & mask;
        }
    }

    /// The slot of `arena` that holds `doc`, if any.
    #[inline]
    pub(crate) fn get<T: Keyed>(&self, doc: DocId, arena: &Slab<T>) -> Option<u32> {
        self.probe(doc, arena).map(|i| self.buckets[i].slot)
    }

    /// Removes the mapping for `doc`, backward-shifting the probe chain.
    /// Its slot must still be live in `arena`.
    pub(crate) fn remove<T: Keyed>(&mut self, doc: DocId, arena: &Slab<T>) -> Option<u32> {
        let mut hole = self.probe(doc, arena)?;
        let removed = self.buckets[hole].slot;
        let mask = self.mask();
        self.buckets[hole].slot = NIL;
        self.len -= 1;
        let mut i = (hole + 1) & mask;
        while self.buckets[i].slot != NIL {
            let home = self.home(self.buckets[i].frag);
            // Shift the entry back iff the hole lies cyclically between its
            // home bucket and its current slot.
            let between = if hole <= i {
                home <= hole || home > i
            } else {
                home <= hole && home > i
            };
            if between {
                self.buckets[hole] = self.buckets[i];
                self.buckets[i].slot = NIL;
                hole = i;
            }
            i = (i + 1) & mask;
        }
        Some(removed)
    }

    /// Checks every occupied bucket against `arena`: it points at a live
    /// slot, its fragment is that of the slot's key, and a probe for that
    /// key finds this very bucket (so no key is mapped twice). Returns the
    /// first bucket that fails, as `(bucket, slot)`.
    pub(crate) fn audit<T: Keyed>(&self, arena: &Slab<T>) -> Result<(), (usize, u32)> {
        for (i, b) in self.buckets.iter().enumerate() {
            if b.slot == NIL {
                continue;
            }
            let sound = arena.live(b.slot).is_some_and(|value| {
                let doc = value.doc();
                b.frag == self.fragment(doc) && self.probe(doc, arena) == Some(i)
            });
            if !sound {
                return Err((i, b.slot));
            }
        }
        Ok(())
    }
}

/// Intrusive doubly-linked list over the slots of a [`Slab`].
///
/// The list owns only head/tail/len; all link storage is in the slab's
/// word array,
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
    pub(crate) fn contains<T: Vacancy>(&self, slab: &Slab<T>, idx: u32) -> bool {
        slab.links(idx).prev() != NIL || self.head == idx
    }

    /// Appends slot `idx` at the tail (most-recent / newest position).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is already linked here.
    #[inline]
    pub(crate) fn push_tail<T: Vacancy>(&mut self, slab: &mut Slab<T>, idx: u32) {
        let old_tail = self.tail;
        {
            let links = slab.links_mut(idx);
            assert!(
                links.prev() == NIL && links.next() == NIL && self.head != idx,
                "slot {idx} inserted twice"
            );
            links.set_prev(old_tail);
        }
        if old_tail == NIL {
            self.head = idx;
        } else {
            slab.links_mut(old_tail).set_next(idx);
        }
        self.tail = idx;
        self.len += 1;
    }

    /// Unlinks slot `idx` from anywhere in the list.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is not on the list.
    #[inline]
    pub(crate) fn unlink<T: Vacancy>(&mut self, slab: &mut Slab<T>, idx: u32) {
        let links = slab.links(idx);
        let (prev, next) = (links.prev(), links.next());
        if prev == NIL {
            assert_eq!(self.head, idx, "slot {idx} is untracked by this list");
            self.head = next;
        } else {
            slab.links_mut(prev).set_next(next);
        }
        if next == NIL {
            debug_assert_eq!(self.tail, idx, "unlinking slot not at recorded tail");
            self.tail = prev;
        } else {
            slab.links_mut(next).set_prev(prev);
        }
        let links = slab.links_mut(idx);
        links.set_prev(NIL);
        links.set_next(NIL);
        self.len -= 1;
    }

    /// Moves slot `idx` to the tail (touch on hit).
    #[inline]
    pub(crate) fn move_to_tail<T: Vacancy>(&mut self, slab: &mut Slab<T>, idx: u32) {
        if self.tail == idx {
            return;
        }
        self.unlink(slab, idx);
        self.push_tail(slab, idx);
    }

    /// Walks head→tail collecting indices.
    #[cfg(test)]
    pub(crate) fn collect<T: Vacancy>(&self, slab: &Slab<T>) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.len());
        let mut cursor = self.head;
        while cursor != NIL {
            out.push(cursor);
            assert!(out.len() <= self.len(), "list cycles past recorded len");
            cursor = slab.links(cursor).next();
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
/// Each slot's position lives in its policy word, so re-keying and
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

    fn pos<T: Vacancy>(slab: &Slab<T>, slot: u32) -> u32 {
        let pos = slab.links(slot).next();
        assert!(pos != NIL, "slot {slot} is untracked by the heap");
        pos
    }

    /// Adds `slot` under `primary`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is already in the heap.
    pub(crate) fn push<T: Vacancy>(&mut self, slab: &mut Slab<T>, slot: u32, primary: u64) {
        assert!(slab.links(slot).next() == NIL, "slot {slot} inserted twice");
        if self.items.len() == self.items.capacity() {
            self.growths += 1;
        }
        let pos = self.items.len() as u32;
        let key = self.stamp(primary);
        self.items.push(HeapItem { key, slot });
        slab.links_mut(slot).set_next(pos);
        self.sift_up(slab, pos);
    }

    /// Gives `slot` a new primary (and a fresh seq) where it stands.
    pub(crate) fn rekey<T: Vacancy>(&mut self, slab: &mut Slab<T>, slot: u32, primary: u64) {
        let pos = Self::pos(slab, slot);
        self.items[pos as usize].key = self.stamp(primary);
        self.resift(slab, pos);
    }

    /// Removes `slot` from wherever it sits, returning its primary.
    pub(crate) fn remove<T: Vacancy>(&mut self, slab: &mut Slab<T>, slot: u32) -> u64 {
        let pos = Self::pos(slab, slot);
        let removed = self.items.swap_remove(pos as usize);
        slab.links_mut(slot).set_next(NIL);
        if let Some(moved) = self.items.get(pos as usize) {
            slab.links_mut(moved.slot).set_next(pos);
            self.resift(slab, pos);
        }
        removed.key.0
    }

    fn resift<T: Vacancy>(&mut self, slab: &mut Slab<T>, pos: u32) {
        self.sift_down(slab, pos);
        self.sift_up(slab, pos);
    }

    fn swap<T: Vacancy>(&mut self, slab: &mut Slab<T>, a: u32, b: u32) {
        self.items.swap(a as usize, b as usize);
        slab.links_mut(self.items[a as usize].slot).set_next(a);
        slab.links_mut(self.items[b as usize].slot).set_next(b);
    }

    fn key(&self, pos: u32) -> (u64, u64) {
        self.items[pos as usize].key
    }

    fn sift_up<T: Vacancy>(&mut self, slab: &mut Slab<T>, mut pos: u32) {
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

    fn sift_down<T: Vacancy>(&mut self, slab: &mut Slab<T>, mut pos: u32) {
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
    pub(crate) fn audit<T: Vacancy>(&self, slab: &Slab<T>) {
        for (pos, item) in self.items.iter().enumerate() {
            assert_eq!(
                slab.links(item.slot).next(),
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
    use coopcache_types::mix64;

    #[derive(Debug, Clone, Copy)]
    struct TestNode {
        doc: DocId,
        vacant: bool,
    }

    impl TestNode {
        fn new(doc: u64) -> Self {
            Self {
                doc: DocId::new(doc),
                vacant: false,
            }
        }
    }

    impl Vacancy for TestNode {
        fn vacate(&mut self) {
            self.vacant = true;
        }
        fn is_vacant(&self) -> bool {
            self.vacant
        }
    }

    impl Keyed for TestNode {
        fn doc(&self) -> DocId {
            self.doc
        }
    }

    /// A table over its own arena, driven the way the cache drives one:
    /// allocate then map, unmap then free.
    struct Mapped {
        table: DocTable,
        arena: Slab<TestNode>,
    }

    impl Mapped {
        fn new(seed: u64) -> Self {
            Self {
                table: DocTable::new(seed),
                arena: Slab::new(),
            }
        }

        fn insert(&mut self, doc: u64) -> u32 {
            let slot = self.arena.alloc(TestNode::new(doc));
            self.table.insert(DocId::new(doc), slot, &self.arena);
            slot
        }

        fn get(&self, doc: u64) -> Option<u32> {
            self.table.get(DocId::new(doc), &self.arena)
        }

        fn remove(&mut self, doc: u64) -> Option<u32> {
            let slot = self.table.remove(DocId::new(doc), &self.arena)?;
            self.arena.free(slot);
            Some(slot)
        }

        fn audit(&self) {
            assert_eq!(self.table.audit(&self.arena), Ok(()));
            assert_eq!(self.table.len(), self.arena.len());
        }
    }

    /// The first two docs of the SplitMix64 stream whose fragments under
    /// `seed` are equal. (Consecutive ids never collide early: their
    /// multiplicative hashes are spread almost evenly.)
    fn fragment_collision(seed: u64) -> (u64, u64) {
        let table = DocTable::new(seed);
        let mut seen = std::collections::BTreeMap::new();
        let mut docs = coopcache_types::SplitMix64::new(seed);
        std::iter::repeat_with(|| docs.next_u64())
            .find_map(|doc| {
                seen.insert(table.fragment(DocId::new(doc)), doc)
                    .map(|earlier| (earlier, doc))
            })
            .expect("a 32-bit fragment collides within 2^32 + 1 docs")
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
    #[should_panic(expected = "slab slot 1 is free")]
    fn get_on_a_freed_entry_slot_panics() {
        use coopcache_types::{ByteSize, Timestamp};
        let entry = |doc| CacheEntry::new(DocId::new(doc), ByteSize::from_kb(1), Timestamp::ZERO);
        let mut slab = Slab::new();
        slab.alloc(entry(1));
        let slot = slab.alloc(entry(2));
        assert_eq!(slab.free(slot).hit_count, 1, "free returns the live entry");
        assert!(slab.live(slot).is_none());
        slab.get(slot);
    }

    /// A slab with slots 0..4 of which slot 1 is free.
    fn slab_with_a_hole() -> Slab<TestNode> {
        let mut slab = Slab::new();
        for doc in 0..4 {
            slab.alloc(TestNode::new(doc));
        }
        slab.free(1);
        slab
    }

    #[test]
    fn slab_audit_names_a_slot_whose_marks_disagree() {
        let mut slab = slab_with_a_hole();
        assert_eq!(slab.audit_words(), Ok(()));
        assert_eq!(slab.audit_freelist(), 1);
        // A freed value whose mark was lost, and a live one marked vacant.
        slab.slots[1].vacant = false;
        assert_eq!(slab.audit_words(), Err(Some(1)));
        slab.slots[1].vacant = true;
        slab.slots[2].vacant = true;
        assert_eq!(slab.audit_words(), Err(Some(2)));
        slab.slots[2].vacant = false;
        // A word array out of step with the arena.
        slab.links.push(Links::NEW);
        assert_eq!(slab.audit_words(), Err(None));
    }

    #[test]
    #[should_panic(expected = "vacancy mark disagrees with the freelist")]
    fn slab_freelist_audit_checks_the_vacancy_marks() {
        let mut slab = slab_with_a_hole();
        slab.slots[3].vacant = true;
        slab.audit_freelist();
    }

    #[test]
    #[should_panic(expected = "word array and arena differ in length")]
    fn slab_freelist_audit_checks_the_word_array_length() {
        let mut slab = slab_with_a_hole();
        slab.links.pop();
        slab.audit_freelist();
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
        let mut m = Mapped::new(0xabcd);
        let slots: Vec<u32> = (0..200u64).map(|i| m.insert(i)).collect();
        assert_eq!(m.table.len(), 200);
        m.audit();
        for i in 0..200u64 {
            assert_eq!(m.get(i), Some(slots[i as usize]));
        }
        for i in (0..200u64).step_by(2) {
            assert_eq!(m.remove(i), Some(slots[i as usize]));
        }
        assert_eq!(m.table.len(), 100);
        m.audit();
        for i in 0..200u64 {
            let want = (i % 2 == 1).then_some(slots[i as usize]);
            assert_eq!(m.get(i), want, "doc {i} after interleaved removal");
        }
    }

    #[test]
    fn table_backward_shift_keeps_probe_chains_intact() {
        // Same-bucket collisions: remove the middle of a probe chain and
        // confirm the tail entries remain reachable.
        let mut m = Mapped::new(7);
        let slots: Vec<u32> = (0..6u64).map(|i| m.insert(i)).collect();
        m.remove(2);
        m.remove(0);
        m.audit();
        for i in 0..6u64 {
            let want = (i != 0 && i != 2).then_some(slots[i as usize]);
            assert_eq!(m.get(i), want);
        }
    }

    #[test]
    fn table_presized_does_not_grow_under_churn() {
        // One pass at the peak occupancy sizes the table; after that,
        // churn at or below it must never rehash.
        let mut m = Mapped::new(9);
        let round = |m: &mut Mapped, base: u64| {
            for i in 0..32u64 {
                m.insert(base + i);
            }
            for i in 0..32u64 {
                m.remove(base + i);
            }
        };
        round(&mut m, 0);
        let presized = m.table.growth_events();
        for r in 1..10u64 {
            round(&mut m, r * 1000);
        }
        assert_eq!(
            m.table.growth_events(),
            presized,
            "bounded occupancy must not rehash"
        );
    }

    #[test]
    #[should_panic(expected = "inserted twice")]
    fn table_double_insert_panics() {
        let mut m = Mapped::new(3);
        let slot = m.insert(5);
        m.table.insert(DocId::new(5), slot, &m.arena);
    }

    #[test]
    fn table_fragment_collisions_resolve_through_the_arena() {
        const SEED: u64 = 0x5eed;
        let (a, b) = fragment_collision(SEED);
        let table = DocTable::new(SEED);
        assert_ne!(a, b);
        assert_eq!(table.fragment(DocId::new(a)), table.fragment(DocId::new(b)));
        // Equal fragments mean one home bucket at every capacity, so the
        // second doc always sits right behind the first in its chain.
        for (first, second) in [(a, b), (b, a)] {
            let mut m = Mapped::new(SEED);
            let fillers: Vec<u64> = (0..5u64).map(|i| (1 << 40) + i).collect();
            for &f in &fillers {
                m.insert(f);
            }
            let s1 = m.insert(first);
            let s2 = m.insert(second);
            m.audit();
            assert_eq!(m.get(first), Some(s1));
            assert_eq!(m.get(second), Some(s2));
            // Removing the chain's first doc shifts the second back into
            // its bucket; the second must stay reachable there.
            assert_eq!(m.remove(first), Some(s1));
            assert_eq!(m.get(first), None);
            assert_eq!(m.get(second), Some(s2));
            m.audit();
            // Now behind it again: remove the front one, the other stays.
            let s1 = m.insert(first);
            assert_eq!(m.remove(second), Some(s2));
            assert_eq!(m.get(second), None);
            assert_eq!(m.get(first), Some(s1));
            m.audit();
            for &f in &fillers {
                assert!(m.get(f).is_some(), "filler {f} lost");
            }
        }
    }

    /// The bucket count the growth rule gives a table that `len` inserts
    /// filled, doubling as [`DocTable::insert`] does.
    fn buckets_after(len: usize) -> usize {
        let mut buckets = DocTable::MIN_CAP;
        for n in 2..=len {
            if overloaded(n, buckets) {
                buckets *= 2;
            }
            assert!(!overloaded(n, buckets), "one doubling must make room");
        }
        buckets
    }

    #[test]
    fn growth_rule_switches_regime_and_keeps_a_million_entries_in_2_pow_21_buckets() {
        assert_eq!(buckets_after(SMALL_TABLE / 4), SMALL_TABLE);
        assert_eq!(buckets_after(SMALL_TABLE / 4 + 1), 2 * SMALL_TABLE);
        assert_eq!(buckets_after(SMALL_TABLE), 2 * SMALL_TABLE);
        assert_eq!(buckets_after(SMALL_TABLE + 1), 4 * SMALL_TABLE);
        // The store workloads' 1M-entry cache: 16 MB of buckets.
        assert_eq!(buckets_after(1_000_000), 1 << 21);
    }

    /// Mean buckets read by a successful probe (over the entries) and by
    /// an unsuccessful one (over every home bucket, counting the empty
    /// bucket that ends it), counted from the table's layout.
    fn mean_probe_lengths(table: &DocTable) -> (f64, f64) {
        let mask = table.mask();
        let hits: usize = (0..table.buckets.len())
            .filter(|&i| table.buckets[i].slot != NIL)
            .map(|i| (i.wrapping_sub(table.home(table.buckets[i].frag)) & mask) + 1)
            .sum();
        let misses: usize = (0..table.buckets.len())
            .map(|home| {
                let mut read = 1;
                while table.buckets[(home + read - 1) & mask].slot != NIL {
                    read += 1;
                }
                read
            })
            .sum();
        (
            hits as f64 / table.len() as f64,
            misses as f64 / table.buckets.len() as f64,
        )
    }

    /// A table filled to the last entry before each regime's growth point
    /// keeps its probes short: at ¼ load a linear probe reads ~1.17
    /// buckets on a hit and ~1.39 on a miss, at ½ load ~1.5 and ~2.5.
    #[test]
    fn probe_lengths_stay_short_up_to_each_growth_point() {
        for (buckets, len, max_hit, max_miss) in [
            (SMALL_TABLE, SMALL_TABLE / 4, 1.25, 1.5),
            (2 * SMALL_TABLE, SMALL_TABLE, 1.6, 2.8),
        ] {
            // Random ids: consecutive ones spread almost evenly, which
            // would hide the load factor.
            let mut m = Mapped::new(0x9e37);
            let mut docs = coopcache_types::SplitMix64::new(len as u64);
            for _ in 0..len {
                m.insert(docs.next_u64());
            }
            assert_eq!(m.table.buckets.len(), buckets, "{len} entries");
            assert!(
                overloaded(len + 1, buckets),
                "{len} is the last entry before growth"
            );
            let (hit, miss) = mean_probe_lengths(&m.table);
            assert!(
                hit <= max_hit,
                "{len} entries: a hit reads {hit:.3} buckets"
            );
            assert!(
                miss <= max_miss,
                "{len} entries: a miss reads {miss:.3} buckets"
            );
        }
    }

    /// Seeded random gets, inserts and removes against a `BTreeMap` model,
    /// from empty past the regime switch to 2^17 buckets, with the
    /// fragment-colliding pair among the keys; every rebuild is audited.
    #[test]
    fn table_matches_a_btreemap_model_through_growth() {
        const SEED: u64 = 0x5eed;
        const UNIVERSE: u64 = 60_000;
        let (a, b) = fragment_collision(SEED);
        let mut m = Mapped::new(SEED);
        let mut model = std::collections::BTreeMap::new();
        let mut rng = coopcache_types::SplitMix64::new(7);
        let mut growths = m.table.growth_events();
        let mut peak_buckets = 0;
        for step in 0..240_000 {
            let r = rng.next_u64();
            let doc = match r % 100 {
                0 => a,
                1 => b,
                _ => (r >> 8) % UNIVERSE,
            };
            // Grow for the first half, shrink for the second.
            let (insert_below, remove_below) = if step < 120_000 { (6, 8) } else { (2, 7) };
            match (r >> 40) % 10 {
                op if op < insert_below => {
                    if let Some(&slot) = model.get(&doc) {
                        assert_eq!(m.get(doc), Some(slot));
                    } else {
                        model.insert(doc, m.insert(doc));
                    }
                }
                op if op < remove_below => assert_eq!(m.remove(doc), model.remove(&doc)),
                _ => assert_eq!(m.get(doc), model.get(&doc).copied()),
            }
            assert_eq!(m.table.len(), model.len());
            if m.table.growth_events() != growths {
                growths = m.table.growth_events();
                m.audit();
            }
            peak_buckets = peak_buckets.max(m.table.buckets.len());
        }
        assert_eq!(peak_buckets, 1 << 17);
        m.audit();
        for doc in (0..UNIVERSE).chain([a, b]) {
            assert_eq!(m.get(doc), model.get(&doc).copied(), "doc {doc}");
        }
    }

    #[test]
    fn table_audit_names_a_bad_bucket() {
        let mut m = Mapped::new(11);
        for i in 0..20u64 {
            m.insert(i);
        }
        m.audit();
        // A bucket whose slot was freed behind the table's back.
        let slot = m.get(4).unwrap();
        m.arena.free(slot);
        assert!(matches!(m.table.audit(&m.arena), Err((_, s)) if s == slot));
        // A live slot whose key no longer hashes to its bucket's fragment.
        let mut m = Mapped::new(11);
        let slot = m.insert(1);
        m.arena.get_mut(slot).doc = DocId::new(2);
        assert_eq!(m.table.audit(&m.arena).map_err(|(_, s)| s), Err(slot));
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
        slab.links_mut(idx[3]).set_flag(Links::FLAG_HI, true);
        slab.links_mut(idx[3]).set_flag(Links::FLAG_LO, true);
        list.move_to_tail(&mut slab, idx[3]);
        assert_eq!(list.collect(&slab), vec![idx[2], idx[4], idx[3]]);
        let links = slab.links(idx[3]);
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
    fn sequential_keys_spread_over_the_home_buckets() {
        let mut m = Mapped::new(0x5eed);
        for doc in 0..1024u64 {
            m.insert(doc);
        }
        let mut homes = vec![0u32; m.table.buckets.len()];
        for b in m.table.buckets.iter().filter(|b| b.slot != NIL) {
            homes[m.table.home(b.frag)] += 1;
        }
        assert!(
            homes.iter().all(|&n| n <= 2),
            "a home holds {:?}",
            homes.iter().max()
        );
        let (hit, miss) = mean_probe_lengths(&m.table);
        assert!(hit < 1.1 && miss < 1.5, "hit {hit:.3}, miss {miss:.3}");
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
