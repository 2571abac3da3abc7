//! `Cache` checked against a reference store that shares no code with it.
//!
//! The model below is deliberately dumb: one `Vec` of resident entries
//! and plain `Vec` queues, no arena, no hash table, no intrusive links.
//! Each of the seven victim rules is restated as a linear scan — LRU,
//! FIFO, SLRU and S3-FIFO by queue position, LFU, GDS and GDSF as the
//! minimum `(key, seq)` — and the rest of the store's contract is
//! restated beside it: byte accounting, TTL expiry on `lookup` and
//! `serve_remote`, promoting and non-promoting remote serves, explicit
//! removal, the eq. 2/3 document ages, the eq. 5 windowed
//! `expiration_age()` and S3-FIFO's ghost re-admission gaps.
//!
//! Seeded op streams drive the model and a `Cache` side by side; after
//! every op the two must agree on the op's result (eviction records in
//! order), `stats()`, `used()`, `expiration_age()`, the lifetime sample
//! count and mean, and every resident entry. One FNV-1a hash per policy
//! over the whole outcome stream pins the results themselves, so a
//! change that moved model and store together still shows.

use coopcache::cache::{
    CacheConfig, CacheEntry, CacheStats, EvictionReason, EvictionRecord, ExpirationWindow,
    InsertOutcome, PolicyKind,
};
use coopcache::trace::Rng;
use coopcache::types::{ByteSize, CacheId, DocId, DurationMs, ExpirationAge, Timestamp};

/// Seeded cases per policy.
const CASES: u64 = 200;

/// Priorities of the GreedyDual family are kept in micro-units.
const SCALE: u64 = 1_000_000;

/// Each policy's stream seed.
const SEEDS: [(PolicyKind, u64); 7] = [
    (PolicyKind::Lru, 0x14B),
    (PolicyKind::Lfu, 0x1F0),
    (PolicyKind::Fifo, 0xF1F0),
    (PolicyKind::Gdsf, 0x6D5F),
    (PolicyKind::Gds, 0x6D5),
    (PolicyKind::Slru, 0x5120),
    (PolicyKind::S3Fifo, 0x53F1),
];

/// FNV-1a over every case's outcome stream, per policy.
const PINS: [(PolicyKind, u64); 7] = [
    (PolicyKind::Lru, 0xafc3_bb07_b284_00de),
    (PolicyKind::Lfu, 0x430a_c54c_9433_0583),
    (PolicyKind::Fifo, 0xa98e_9068_442e_ee63),
    (PolicyKind::Gdsf, 0x354c_eb52_7e7b_f2d5),
    (PolicyKind::Gds, 0xbfd9_9e5b_ec0e_426b),
    (PolicyKind::Slru, 0x9d4d_c050_41c5_3dad),
    (PolicyKind::S3Fifo, 0x104b_538f_fd5a_bebb),
];

#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(DocId, ByteSize),
    Lookup(DocId),
    ServeRemote(DocId, bool),
    Remove(DocId),
    SetTtl(Option<DurationMs>),
}

/// One resident document of the model.
#[derive(Debug, Clone, Copy)]
struct Resident {
    entry: CacheEntry,
    /// LFU, GDS, GDSF: the order of its last insert or hit.
    seq: u64,
    /// GDS, GDSF: the priority `H`, in micro-units.
    priority: u64,
    /// S3-FIFO: hit since a queue last passed over it.
    hit: bool,
}

struct Model {
    kind: PolicyKind,
    capacity: ByteSize,
    used: ByteSize,
    ttl: Option<DurationMs>,
    window: ExpirationWindow,
    residents: Vec<Resident>,
    /// Queues by position, front first: LRU and FIFO use the first;
    /// SLRU holds probation and protected; S3-FIFO holds Small and Main.
    queues: [Vec<DocId>; 2],
    /// S3-FIFO's recently evicted documents, oldest first.
    ghosts: Vec<(DocId, Timestamp)>,
    next_seq: u64,
    /// The GreedyDual inflation clock `L`.
    clock: u64,
    /// Every expiration-age sample, in recording order.
    samples: Vec<(Timestamp, DurationMs)>,
    stats: CacheStats,
}

impl Model {
    fn new(kind: PolicyKind, capacity: ByteSize, window: ExpirationWindow) -> Self {
        Self {
            kind,
            capacity,
            used: ByteSize::ZERO,
            ttl: None,
            window,
            residents: Vec::new(),
            queues: [Vec::new(), Vec::new()],
            ghosts: Vec::new(),
            next_seq: 0,
            clock: 0,
            samples: Vec::new(),
            stats: CacheStats::default(),
        }
    }

    fn position(&self, doc: DocId) -> Option<usize> {
        self.residents.iter().position(|r| r.entry.doc == doc)
    }

    fn queue_of(&self, doc: DocId) -> usize {
        usize::from(!self.queues[0].contains(&doc))
    }

    fn bump_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq
    }

    /// GDS: `H = L + 1 / size_kb`; GDSF: `H = L + hits / size_kb`.
    fn priority(&self, hits: u64, size: ByteSize) -> u64 {
        let size_kb = size.as_bytes().max(1) as f64 / 1_000.0;
        let value = match self.kind {
            PolicyKind::Gdsf => hits as f64 / size_kb,
            _ => 1.0 / size_kb,
        };
        self.clock + (value * SCALE as f64) as u64
    }

    fn expired(&self, i: usize, now: Timestamp) -> bool {
        self.ttl
            .is_some_and(|ttl| now.saturating_since(self.residents[i].entry.entered_at) > ttl)
    }

    // ---- victim rules ---------------------------------------------------

    fn victim(&self) -> Option<DocId> {
        match self.kind {
            PolicyKind::Lru | PolicyKind::Fifo => self.queues[0].first().copied(),
            PolicyKind::Slru => self.queues[0].first().or(self.queues[1].first()).copied(),
            PolicyKind::Lfu => self
                .residents
                .iter()
                .min_by_key(|r| (r.entry.hit_count, r.seq))
                .map(|r| r.entry.doc),
            PolicyKind::Gds | PolicyKind::Gdsf => self
                .residents
                .iter()
                .min_by_key(|r| (r.priority, r.seq))
                .map(|r| r.entry.doc),
            PolicyKind::S3Fifo => self.s3_victim(),
        }
    }

    fn hit_flag(&self, doc: DocId) -> bool {
        self.residents[self.position(doc).unwrap()].hit
    }

    fn first_cold(&self, queue: usize) -> Option<DocId> {
        self.queues[queue]
            .iter()
            .copied()
            .find(|&d| !self.hit_flag(d))
    }

    /// Small is due when it holds at least a tenth of the residents (or
    /// Main is empty): its first never-hit document goes, else — with
    /// Main empty — its head. Otherwise Main's first never-hit document,
    /// else its head.
    fn s3_victim(&self) -> Option<DocId> {
        let [small, main] = &self.queues;
        if small.is_empty() && main.is_empty() {
            return None;
        }
        let target = (self.residents.len() / 10).max(1);
        if !small.is_empty() && (small.len() >= target || main.is_empty()) {
            if let Some(doc) = self.first_cold(0) {
                return Some(doc);
            }
            if main.is_empty() {
                return small.first().copied();
            }
        }
        self.first_cold(1).or(main.first().copied())
    }

    /// S3-FIFO's lazy debts, paid when the announced victim leaves: the
    /// hit documents ahead of it in Small move to Main's tail; those
    /// ahead of it in Main go round to the tail. Either way their hit
    /// is spent.
    fn s3_settle(&mut self, victim: DocId) {
        let q = self.queue_of(victim);
        let at = self.queues[q].iter().position(|&d| d == victim).unwrap();
        let ahead: Vec<DocId> = self.queues[q].drain(..at).collect();
        for doc in ahead {
            let i = self.position(doc).unwrap();
            self.residents[i].hit = false;
            self.queues[1].push(doc);
        }
    }

    // ---- the store -------------------------------------------------------

    fn touch(&mut self, i: usize, now: Timestamp) {
        self.residents[i].entry.last_hit_at = now;
        self.residents[i].entry.hit_count += 1;
        let doc = self.residents[i].entry.doc;
        match self.kind {
            PolicyKind::Lru => {
                self.queues[0].retain(|&d| d != doc);
                self.queues[0].push(doc);
            }
            PolicyKind::Fifo => {}
            PolicyKind::Lfu => self.residents[i].seq = self.bump_seq(),
            PolicyKind::Gds | PolicyKind::Gdsf => {
                self.residents[i].seq = self.bump_seq();
                let r = self.residents[i].entry;
                self.residents[i].priority = self.priority(r.hit_count, r.size);
            }
            PolicyKind::Slru => {
                let q = self.queue_of(doc);
                self.queues[q].retain(|&d| d != doc);
                self.queues[1].push(doc);
                // Protected holds at most half the residents, rounded up;
                // its overflow goes back to probation's tail.
                while self.queues[1].len() > self.residents.len().div_ceil(2) {
                    let demoted = self.queues[1].remove(0);
                    self.queues[0].push(demoted);
                }
            }
            PolicyKind::S3Fifo => self.residents[i].hit = true,
        }
    }

    /// Takes resident `i` out of the store, whatever the reason.
    fn take(&mut self, i: usize) -> CacheEntry {
        let doc = self.residents[i].entry.doc;
        if self.kind == PolicyKind::S3Fifo && self.victim() == Some(doc) {
            self.s3_settle(doc);
        }
        for queue in &mut self.queues {
            queue.retain(|&d| d != doc);
        }
        let gone = self.residents.remove(i);
        if matches!(self.kind, PolicyKind::Gds | PolicyKind::Gdsf) {
            self.clock = self.clock.max(gone.priority);
        }
        self.used -= gone.entry.size;
        gone.entry
    }

    fn evict(&mut self, i: usize, now: Timestamp, reason: EvictionReason) -> EvictionRecord {
        let entry = self.take(i);
        let age = match self.kind {
            // eq. 3: lifetime divided by the hit counter.
            PolicyKind::Lfu | PolicyKind::Gdsf => {
                now.saturating_since(entry.entered_at) / entry.hit_count.max(1)
            }
            // eq. 2: time since the last hit.
            _ => now.saturating_since(entry.last_hit_at),
        };
        self.samples.push((now, age));
        if reason == EvictionReason::CapacityPressure {
            self.stats.evictions += 1;
            self.stats.bytes_evicted += entry.size;
            if self.kind == PolicyKind::S3Fifo {
                self.ghosts.retain(|&(d, _)| d != entry.doc);
                self.ghosts.push((entry.doc, now));
                let bound = self.residents.len().max(8);
                while self.ghosts.len() > bound {
                    self.ghosts.remove(0);
                }
            }
        }
        EvictionRecord {
            entry,
            evicted_at: now,
            reason,
        }
    }

    fn lookup(&mut self, doc: DocId, now: Timestamp) -> Option<ByteSize> {
        let Some(i) = self.position(doc) else {
            self.stats.local_misses += 1;
            return None;
        };
        if self.expired(i, now) {
            self.take(i);
            self.stats.expirations += 1;
            self.stats.local_misses += 1;
            return None;
        }
        self.touch(i, now);
        self.stats.local_hits += 1;
        Some(self.residents[i].entry.size)
    }

    fn serve_remote(&mut self, doc: DocId, now: Timestamp, promote: bool) -> Option<ByteSize> {
        let i = self.position(doc)?;
        if self.expired(i, now) {
            self.take(i);
            self.stats.expirations += 1;
            return None;
        }
        if promote {
            self.touch(i, now);
        }
        self.stats.remote_serves += 1;
        Some(self.residents[i].entry.size)
    }

    fn insert(&mut self, doc: DocId, size: ByteSize, now: Timestamp) -> InsertOutcome {
        if self.position(doc).is_some() {
            return InsertOutcome::AlreadyPresent;
        }
        if size > self.capacity {
            self.stats.rejected_too_large += 1;
            return InsertOutcome::TooLarge;
        }
        let mut evicted = Vec::new();
        while self.used + size > self.capacity {
            let victim = self.victim().expect("a full store has a victim");
            let i = self.position(victim).unwrap();
            evicted.push(self.evict(i, now, EvictionReason::CapacityPressure));
        }
        // S3-FIFO: a remembered document skips Small, and the gap since
        // its eviction is an observed eq. 5 sample.
        let ghost = self.ghosts.iter().position(|&(d, _)| d == doc);
        let gap = ghost.map(|g| now.saturating_since(self.ghosts.remove(g).1));
        let entry = CacheEntry::new(doc, size, now);
        let seq = self.bump_seq();
        let priority = self.priority(1, size);
        self.residents.push(Resident {
            entry,
            seq,
            priority,
            hit: false,
        });
        let queue = usize::from(gap.is_some());
        self.queues[queue].push(doc);
        if let Some(gap) = gap {
            self.samples.push((now, gap));
        }
        self.used += size;
        self.stats.insertions += 1;
        InsertOutcome::Stored(evicted.into())
    }

    fn remove(&mut self, doc: DocId, now: Timestamp) -> Option<EvictionRecord> {
        let i = self.position(doc)?;
        self.stats.explicit_removals += 1;
        Some(self.evict(i, now, EvictionReason::Explicit))
    }

    // ---- eq. 5 -----------------------------------------------------------

    /// The samples inside the window: the last `n`, or those recorded no
    /// earlier than `d` before the latest one (time never runs backwards
    /// in these streams).
    fn window(&self) -> &[(Timestamp, DurationMs)] {
        let from = match self.window {
            ExpirationWindow::LastEvictions(n) => self.samples.len().saturating_sub(n),
            ExpirationWindow::LastDuration(d) => {
                let latest = self.samples.last().map_or(0, |s| s.0.as_millis());
                let cutoff = latest.saturating_sub(d.as_millis());
                self.samples
                    .iter()
                    .position(|s| s.0.as_millis() >= cutoff)
                    .unwrap_or(self.samples.len())
            }
        };
        &self.samples[from..]
    }

    fn mean(samples: &[(Timestamp, DurationMs)]) -> Option<DurationMs> {
        let sum: u128 = samples.iter().map(|s| u128::from(s.1.as_millis())).sum();
        (!samples.is_empty()).then(|| DurationMs::from_millis((sum / samples.len() as u128) as u64))
    }

    fn expiration_age(&self) -> ExpirationAge {
        Self::mean(self.window()).map_or(ExpirationAge::Infinite, ExpirationAge::finite)
    }

    fn entries(&self) -> Vec<CacheEntry> {
        let mut out: Vec<CacheEntry> = self.residents.iter().map(|r| r.entry).collect();
        out.sort_unstable_by_key(|e| e.doc);
        out
    }
}

/// A case's configuration and op stream.
fn case(rng: &mut Rng) -> (ByteSize, ExpirationWindow, Vec<(Timestamp, Op)>) {
    let capacity = ByteSize::from_bytes(8_000 + rng.next_below(72_000));
    let window = match rng.next_below(3) {
        0 => ExpirationWindow::default(),
        1 => ExpirationWindow::LastEvictions(1 + rng.next_below(6) as usize),
        _ => ExpirationWindow::LastDuration(DurationMs::from_millis(20 + rng.next_below(400))),
    };
    let universe = 8 + rng.next_below(32);
    let len = 1 + rng.next_below(300);
    let mut now = 0u64;
    let ops = (0..len)
        .map(|_| {
            // Zero steps make same-millisecond ties, and with them exact
            // eq. 5 window boundaries.
            now += rng.next_below(40);
            let doc = DocId::new(rng.next_below(universe));
            let op = match rng.next_below(100) {
                0..=39 => {
                    let size = match rng.next_below(50) {
                        0 => 0,
                        1 => 100_000,
                        _ => 1 + rng.next_below(6_000),
                    };
                    Op::Insert(doc, ByteSize::from_bytes(size))
                }
                40..=69 => Op::Lookup(doc),
                70..=84 => Op::ServeRemote(doc, rng.next_bool(0.5)),
                85..=94 => Op::Remove(doc),
                _ => Op::SetTtl(
                    rng.next_bool(0.6)
                        .then(|| DurationMs::from_millis(100 + rng.next_below(2_000))),
                ),
            };
            (Timestamp::from_millis(now), op)
        })
        .collect();
    (capacity, window, ops)
}

/// FNV-1a, 64-bit.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Replays `cases` seeded streams through a `Cache` and the model and
/// returns the hash of the outcome stream.
fn replay(kind: PolicyKind, seed: u64, cases: u64) -> u64 {
    let mut rng = Rng::seed_from(seed);
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for case_no in 0..cases {
        let (capacity, window, ops) = case(&mut rng);
        let mut cache = CacheConfig::new(CacheId::new(0), capacity, kind)
            .window(window)
            .build();
        let mut model = Model::new(kind, capacity, window);
        for (step, &(now, op)) in ops.iter().enumerate() {
            let (got, want) = match op {
                Op::Insert(doc, size) => (
                    format!("{:?}", cache.insert(doc, size, now)),
                    format!("{:?}", model.insert(doc, size, now)),
                ),
                Op::Lookup(doc) => (
                    format!("{:?}", cache.lookup(doc, now)),
                    format!("{:?}", model.lookup(doc, now)),
                ),
                Op::ServeRemote(doc, promote) => (
                    format!("{:?}", cache.serve_remote(doc, now, promote)),
                    format!("{:?}", model.serve_remote(doc, now, promote)),
                ),
                Op::Remove(doc) => (
                    format!("{:?}", cache.remove(doc, now)),
                    format!("{:?}", model.remove(doc, now)),
                ),
                Op::SetTtl(ttl) => {
                    cache.set_ttl(ttl);
                    model.ttl = ttl;
                    (String::new(), String::new())
                }
            };
            let at = || format!("{kind} case {case_no} step {step} ({now}: {op:?}, {window})");
            assert_eq!(got, want, "result diverged at {}", at());
            assert_eq!(cache.stats(), model.stats, "stats at {}", at());
            assert_eq!(cache.used(), model.used, "used() at {}", at());
            assert_eq!(
                cache.expiration_age(),
                model.expiration_age(),
                "eq. 5 age at {}",
                at()
            );
            assert_eq!(
                cache.eviction_count(),
                model.samples.len() as u64,
                "sample count at {}",
                at()
            );
            assert_eq!(
                cache.lifetime_average(),
                Model::mean(&model.samples),
                "lifetime mean at {}",
                at()
            );
            let mut resident: Vec<CacheEntry> = Vec::new();
            cache.for_each_resident(|e| resident.push(*e));
            resident.sort_unstable_by_key(|e| e.doc);
            assert_eq!(resident, model.entries(), "residents at {}", at());
            assert!(cache.check_invariants().is_ok(), "invariants at {}", at());
            let line = format!(
                "{got}|{:?}|{}|{:?}\n",
                model.stats,
                model.used,
                model.expiration_age()
            );
            fnv1a(&mut hash, line.as_bytes());
        }
    }
    hash
}

fn seed(kind: PolicyKind) -> u64 {
    SEEDS.iter().find(|(k, _)| *k == kind).unwrap().1
}

fn check(kind: PolicyKind) {
    let hash = replay(kind, seed(kind), CASES);
    let pinned = PINS.iter().find(|(k, _)| *k == kind).unwrap().1;
    assert_eq!(
        hash, pinned,
        "{kind}: outcome stream hash {hash:#018x} moved from the pinned {pinned:#018x}"
    );
}

#[test]
fn lru_matches_the_reference_store() {
    check(PolicyKind::Lru);
}

#[test]
fn lfu_matches_the_reference_store() {
    check(PolicyKind::Lfu);
}

#[test]
fn fifo_matches_the_reference_store() {
    check(PolicyKind::Fifo);
}

#[test]
fn gdsf_matches_the_reference_store() {
    check(PolicyKind::Gdsf);
}

#[test]
fn gds_matches_the_reference_store() {
    check(PolicyKind::Gds);
}

#[test]
fn slru_matches_the_reference_store() {
    check(PolicyKind::Slru);
}

#[test]
fn s3fifo_matches_the_reference_store() {
    check(PolicyKind::S3Fifo);
}

/// Each policy's seeded stream run on to ten times the cases above (the
/// first `CASES` are theirs). No hash is pinned past `CASES`: agreement
/// with the model at every step is the check. `scripts/check.sh` runs it
/// in release.
#[test]
#[ignore = "deep run, ten times the seeded cases; run in release"]
fn every_policy_matches_the_reference_store_deep() {
    for (kind, seed) in SEEDS {
        replay(kind, seed, 10 * CASES);
    }
}
