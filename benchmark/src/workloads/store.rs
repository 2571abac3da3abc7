//! `store-read` and `store-churn`: one LRU `Cache` holding a million 1 KB
//! entries — a working set far larger than the CPU cache, where the
//! store's per-op cost is several times that at the simulators' 12k-entry
//! tables.
//!
//! The issue describes one `store-scale` workload with a read phase and a
//! write phase reported as two metrics. The driver's contract wants every
//! end-to-end metric from every workload, so the phases are two workloads
//! sharing this file: a read-path gain that taxes churn still shows, as a
//! regression of `store-churn`.
//!
//! * read — Zipf(0.8) lookups over 1.25M ids (0.8 of them resident);
//!   nothing is inserted, so every block — one pass over the same 2M
//!   lookups — must hit exactly as often as the ids say.
//! * churn — inserts of fresh ids, each forcing an eviction and the
//!   eq. 5 expiration-age accounting that goes with it.
//!
//! Id sequences are generated as `u32` outside the timed loops, which
//! contain only store calls.

use super::{share, Checks, Ctx, EndToEnd, Kind, Layers, SPAN_EVERY};
use crate::layers;
use crate::spans::{Recorder, SpanRec};
use coopcache::cache::{Cache, CacheConfig, PolicyKind};
use coopcache::trace::{Distribution, Rng, Zipf};
use coopcache::types::{ByteSize, CacheId, DocId, Timestamp};
use std::hint::black_box;
use std::time::Instant;

const ENTRIES: u64 = 1_000_000;
const ENTRY_BYTES: u64 = 1024;
/// Lookups draw from a universe a quarter larger than the cache.
const UNIVERSE: u64 = 1_250_000;
const ZIPF_ALPHA: f64 = 0.8;
/// Operations per timed block; for reads, also the length of the
/// pre-generated lookup sequence, which every block replays.
const BLOCK_OPS: usize = 2_000_000;
/// First id of the churn phase: beyond anything the fill or the lookups
/// ever name.
const FRESH_BASE: u32 = 2_000_000;

/// Operation counts sized, like every workload's, for about twenty
/// seconds at scale 1 on the 2-core builder.
const ISSUE_READ_OPS: u64 = 100_000_000;
const ISSUE_CHURN_OPS: u64 = 30_000_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Read,
    Churn,
}

impl Phase {
    /// Whole blocks in the timed phase.
    fn blocks(self, ctx: &Ctx) -> usize {
        let ops = match self {
            Self::Read => ctx.scaled(ISSUE_READ_OPS, 0),
            Self::Churn => ctx.scaled(ISSUE_CHURN_OPS, 0),
        };
        (ops as usize / BLOCK_OPS).max(3)
    }
}

/// The cache under test and the benchmark's logical clock.
struct Store {
    cache: Cache,
    /// One tick per store call.
    now: u64,
}

/// The operations' inputs, kept apart from the store so a block can
/// borrow ids while the store is mutated.
struct Inputs {
    phase: Phase,
    /// Read: the lookup sequence. Churn: the current block's fresh ids.
    ids: Vec<u32>,
    /// Read: lookups of the sequence that name a resident id.
    resident: u64,
    /// Churn: next unused id.
    next_fresh: u32,
}

fn doc(id: u32) -> DocId {
    DocId::new(u64::from(id))
}

impl Inputs {
    /// The ids of the next timed block (generated outside the timed loop).
    fn next_block(&mut self) -> &[u32] {
        if self.phase == Phase::Churn {
            self.ids.clear();
            self.ids
                .extend((0..BLOCK_OPS as u32).map(|i| self.next_fresh + i));
            self.next_fresh += BLOCK_OPS as u32;
        }
        &self.ids
    }

    /// Operations of a block that must come out "good": hits for reads
    /// (nothing is inserted, so every block hits like the first),
    /// stored-and-evicted inserts for churn.
    fn expected_good(&self) -> u64 {
        match self.phase {
            Phase::Read => self.resident,
            Phase::Churn => BLOCK_OPS as u64,
        }
    }
}

impl Store {
    fn tick(&mut self) -> Timestamp {
        self.now += 1;
        Timestamp::from_millis(self.now)
    }

    /// One timed block: nothing but store calls. Returns the "good"
    /// outcomes — lookups that hit, or inserts that were stored and
    /// evicted exactly one entry (a full cache of equal-size entries:
    /// one in, one out).
    fn block(&mut self, phase: Phase, ids: &[u32]) -> u64 {
        let size = ByteSize::from_bytes(ENTRY_BYTES);
        let mut good = 0;
        for &id in ids {
            let now = self.tick();
            good += u64::from(match phase {
                Phase::Read => self.cache.lookup(doc(id), now).is_some(),
                Phase::Churn => {
                    let outcome = self.cache.insert(doc(id), size, now);
                    outcome.is_stored() && outcome.evictions().len() == 1
                }
            });
        }
        good
    }

    /// The same loop with the store call taken out: what the benchmark
    /// itself costs per operation.
    fn empty_block(&mut self, ids: &[u32]) {
        for &id in ids {
            let now = self.tick();
            black_box((doc(id), now));
        }
    }

    /// The same loop with every [`SPAN_EVERY`]-th call inside a span
    /// named by its outcome.
    fn traced_block(&mut self, phase: Phase, ids: &[u32], rec: &mut Recorder) {
        let size = ByteSize::from_bytes(ENTRY_BYTES);
        for (i, &id) in ids.iter().enumerate() {
            let now = self.tick();
            let timer = (i % SPAN_EVERY == 0).then(|| (rec.next_id(), rec.now_ns()));
            let name = match phase {
                Phase::Read => match black_box(self.cache.lookup(doc(id), now)) {
                    Some(_) => "core.lookup_hit",
                    None => "core.lookup_miss",
                },
                Phase::Churn => {
                    match black_box(self.cache.insert(doc(id), size, now)).evictions() {
                        [] => "core.insert",
                        _ => "core.insert_evict",
                    }
                }
            };
            if let Some((span, started)) = timer {
                let ended = rec.now_ns();
                rec.push(name, span, 0, started, ended);
            }
        }
    }
}

/// Fill, id generation and one untimed warm-up block.
fn setup(ctx: &Ctx, phase: Phase) -> Result<(Store, Inputs), String> {
    let capacity = ByteSize::from_bytes(ENTRIES * ENTRY_BYTES);
    let mut cache = CacheConfig::new(CacheId::new(0), capacity, PolicyKind::Lru).build();
    let size = ByteSize::from_bytes(ENTRY_BYTES);
    for i in 0..ENTRIES {
        cache.insert(DocId::new(i), size, Timestamp::from_millis(i));
    }
    let mut store = Store {
        cache,
        now: ENTRIES,
    };
    let mut inputs = Inputs {
        phase,
        ids: Vec::new(),
        resident: 0,
        next_fresh: FRESH_BASE,
    };
    if phase == Phase::Read {
        let zipf = Zipf::new(UNIVERSE, ZIPF_ALPHA).map_err(|e| e.to_string())?;
        let mut rng = Rng::seed_from(ctx.derived_seed(11));
        // Popularity rank → id by a seeded bijection on the universe, so
        // hot documents are scattered over the table, not packed into
        // the first-filled slots.
        let offset = ctx.derived_seed(12) % UNIVERSE;
        const STRIDE: u64 = 1_000_003; // prime, coprime to UNIVERSE
        inputs.ids = (0..BLOCK_OPS)
            .map(|_| ((zipf.sample(&mut rng) * STRIDE + offset) % UNIVERSE) as u32)
            .collect();
        // Ids below ENTRIES were filled and nothing evicts them.
        inputs.resident = inputs
            .ids
            .iter()
            .filter(|&&id| u64::from(id) < ENTRIES)
            .count() as u64;
    }
    black_box(store.block(phase, inputs.next_block()));
    Ok((store, inputs))
}

fn check_store(checks: &mut Checks, cache: &Cache) {
    checks.require(cache.check_invariants().is_ok(), || {
        format!("store invariants violated: {:?}", cache.check_invariants())
    });
    checks.require(cache.used() <= cache.capacity(), || {
        format!(
            "used {} exceeds capacity {}",
            cache.used(),
            cache.capacity()
        )
    });
}

pub fn run(ctx: &Ctx, phase: Phase) -> Result<(Checks, EndToEnd), String> {
    let mut checks = Checks::default();
    let mut e2e = EndToEnd::new(Kind::SingleThreaded);
    let (mut store, mut inputs) = e2e.timed_setup(|| setup(ctx, phase), drop)?;
    let blocks = phase.blocks(ctx);
    let mut good = 0u64;
    let growth_before = store.cache.growth_events();
    for _ in 0..blocks {
        let expected = inputs.expected_good();
        let ids = inputs.next_block();
        let got = e2e.block(BLOCK_OPS as u64, |samples| {
            let started = Instant::now();
            let got = black_box(store.block(phase, ids));
            let us = started.elapsed().as_secs_f64() * 1e6;
            // Every block does the same thing: one repeated unit.
            samples.push_repeated(0, us / BLOCK_OPS as f64);
            got
        });
        good += got;
        checks.attempted += BLOCK_OPS as u64;
        checks.failed += got.abs_diff(expected);
    }
    check_store(&mut checks, &store.cache);
    e2e.hit_ratio = good as f64 / e2e.requests() as f64;
    e2e.note("entries", store.cache.len());
    e2e.note("blocks", blocks);
    e2e.note("block_ops", BLOCK_OPS);
    e2e.note(
        "growth_events_while_timed",
        store.cache.growth_events() - growth_before,
    );
    e2e.note(
        "hit_ratio_meaning",
        match phase {
            Phase::Read => "lookups that hit",
            Phase::Churn => "inserts stored at the cost of exactly one eviction",
        },
    );
    e2e.note(
        "latency_unit",
        "a block's wall time per store call; blocks are all alike, so p90 = p50",
    );
    Ok((checks, e2e))
}

pub fn trace(ctx: &Ctx, phase: Phase) -> Result<(Checks, Layers, Vec<SpanRec>), String> {
    let mut checks = Checks::default();
    let mut layers = Layers::new();
    let (mut store, mut inputs) = setup(ctx, phase)?;
    let blocks = (phase.blocks(&ctx.quarter()) / 2).max(1);

    // The same number of blocks three ways: as timed end to end, with
    // spans, and with the store call removed.
    let mut rec = Recorder::new(Instant::now(), 0);
    let (mut untraced_s, mut traced_s, mut empty_s) = (0.0, 0.0, 0.0);
    for _ in 0..blocks {
        let expected = inputs.expected_good();
        let ids = inputs.next_block();
        let started = Instant::now();
        let got = black_box(store.block(phase, ids));
        untraced_s += started.elapsed().as_secs_f64();
        checks.attempted += BLOCK_OPS as u64;
        checks.failed += got.abs_diff(expected);
    }
    for _ in 0..blocks {
        let ids = inputs.next_block();
        let started = Instant::now();
        store.traced_block(phase, ids, &mut rec);
        traced_s += started.elapsed().as_secs_f64();
        checks.attempted += BLOCK_OPS as u64;
        let started = Instant::now();
        store.empty_block(ids);
        empty_s += started.elapsed().as_secs_f64();
    }
    check_store(&mut checks, &store.cache);
    drop(store);

    // The store's share is taken by difference. Spans cannot give it: a
    // clock read pair around a 200 ns call serialises the pipeline and
    // roughly doubles what it measures. For the same reason per-op costs
    // come from tight-loop probes at this table size; the spans, named
    // by outcome, go to the span file.
    let core_share = 1.0 - share(empty_s, untraced_s).min(1.0);
    layers.insert("core.time_share", core_share);
    layers.insert("bench.unattributed_share", 1.0 - core_share);
    layers.insert("bench.clock_ns", layers::clock_ns());
    layers.insert(
        "bench.trace_overhead_pct",
        100.0 * (traced_s - untraced_s) / untraced_s,
    );
    layers::core_probes(&mut layers, ENTRIES, ENTRY_BYTES, ctx.derived_seed(1));
    layers::concurrent_lookup_probe(&mut layers, ENTRIES, ENTRY_BYTES, ctx.derived_seed(2));
    Ok((checks, layers, rec.spans))
}
