//! Randomized stress test for the `paranoid` invariant audits.
//!
//! Only built with `cargo test -p coopcache-core --features paranoid`.
//! Every mutation re-runs `Cache::check_invariants` internally (the
//! `audit` hook), so the test's job is simply to drive a long, varied,
//! *reproducible* operation mix through every replacement policy: any
//! bookkeeping drift panics with the precise violated relation.

#![cfg(feature = "paranoid")]

use coopcache_core::{CacheConfig, ExpirationWindow, PolicyKind};
use coopcache_types::{ByteSize, CacheId, DocId, DurationMs, Timestamp};

/// Xorshift64*: tiny, deterministic, no dependencies. Seed must be
/// non-zero.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// One step of the seeded operation mix.
enum Op {
    Insert(DocId, ByteSize),
    Lookup(DocId),
    ServeRemote(DocId, bool),
    Remove(DocId),
    /// Occasionally toggle a freshness TTL so the expiration path (which
    /// bypasses the eviction tracker) is stressed alongside capacity
    /// evictions.
    SetTtl(Option<DurationMs>),
}

/// The reproducible mix every stress row replays: 40% inserts, 30%
/// lookups, 15% remote serves, 10% removals, 5% TTL toggles, on a clock
/// that advances 0–49 ms per step.
fn op_stream(seed: u64, ops: u64) -> impl Iterator<Item = (Timestamp, Op)> {
    let mut rng = Rng(seed);
    let mut now_ms = 0u64;
    (0..ops).map(move |_| {
        now_ms += rng.below(50);
        let doc = DocId::new(1 + rng.below(200));
        let op = match rng.below(100) {
            0..=39 => Op::Insert(doc, ByteSize::from_bytes(1 + rng.below(8 * 1024))),
            40..=69 => Op::Lookup(doc),
            70..=84 => Op::ServeRemote(doc, rng.below(2) == 0),
            85..=94 => Op::Remove(doc),
            _ => Op::SetTtl(match rng.below(3) {
                0 => None,
                _ => Some(DurationMs::from_millis(1 + rng.below(2_000))),
            }),
        };
        (Timestamp::from_millis(now_ms), op)
    })
}

fn stress(kind: PolicyKind, window: ExpirationWindow, seed: u64, ops: u64) {
    let mut cache = CacheConfig::new(CacheId::new(0), ByteSize::from_kb(64), kind)
        .window(window)
        .build();
    for (step, (now, op)) in op_stream(seed, ops).enumerate() {
        match op {
            Op::Insert(doc, size) => {
                cache.insert(doc, size, now);
            }
            Op::Lookup(doc) => {
                cache.lookup(doc, now);
            }
            Op::ServeRemote(doc, promote) => {
                cache.serve_remote(doc, now, promote);
            }
            Op::Remove(doc) => {
                cache.remove(doc, now);
            }
            Op::SetTtl(ttl) => cache.set_ttl(ttl),
        }
        if step % 512 == 0 {
            cache
                .check_invariants()
                .unwrap_or_else(|v| panic!("{kind} after {step} ops: {v}"));
        }
    }
    cache
        .check_invariants()
        .unwrap_or_else(|v| panic!("{kind} final state: {v}"));
    assert!(cache.used() <= cache.capacity());
}

/// The same mix through a 4-shard `ConcurrentCache`: every document op
/// runs the owning shard's audited `Cache` method under its lock. The
/// shared cache has no removal or TTL toggle, so those steps are skipped
/// and a fixed TTL keeps the expiration path in play.
fn stress_sharded(kind: PolicyKind, seed: u64, ops: u64) {
    let cache = CacheConfig::new(CacheId::new(0), ByteSize::from_kb(64), kind)
        .ttl(Some(DurationMs::from_millis(1_500)))
        .shards(4)
        .build_concurrent();
    for (now, op) in op_stream(seed, ops) {
        match op {
            Op::Insert(doc, size) => {
                cache.insert(doc, size, now);
            }
            Op::Lookup(doc) => {
                cache.lookup(doc, now);
            }
            Op::ServeRemote(doc, promote) => {
                cache.serve_remote(doc, now, promote);
            }
            Op::Remove(_) | Op::SetTtl(_) => {}
        }
    }
    cache
        .check_invariants()
        .unwrap_or_else(|v| panic!("{kind} final state: {v}"));
    assert!(cache.used() <= cache.capacity());
    assert!(cache.stats().expirations > 0, "{kind}: the TTL never fired");
}

#[test]
fn every_policy_survives_a_seeded_random_workout() {
    for (i, kind) in PolicyKind::all().into_iter().enumerate() {
        stress(
            kind,
            ExpirationWindow::default(),
            0x9E37_79B9_7F4A_7C15 ^ (i as u64 + 1),
            20_000,
        );
    }
}

#[test]
fn duration_windows_are_audited_too() {
    for (i, kind) in PolicyKind::all().into_iter().enumerate() {
        stress(
            kind,
            ExpirationWindow::LastDuration(DurationMs::from_millis(500)),
            0xDEAD_BEEF_CAFE_F00D ^ (i as u64 + 1),
            10_000,
        );
    }
}

#[test]
fn sharded_stores_are_audited_per_shard() {
    for (i, kind) in PolicyKind::all().into_iter().enumerate() {
        stress_sharded(kind, 0x5EED_5EED_5EED_5EED ^ (i as u64 + 1), 10_000);
    }
}

#[test]
fn tiny_eviction_windows_stay_bounded() {
    stress(
        PolicyKind::Lru,
        ExpirationWindow::LastEvictions(1),
        42,
        10_000,
    );
    stress(
        PolicyKind::Slru,
        ExpirationWindow::LastEvictions(2),
        43,
        10_000,
    );
}
