//! Deterministic head sampling over the event stream.
//!
//! At daemon throughput (~1M req/s, coopbench `live-pipelined`) a full
//! per-event JSONL stream is unaffordable, but switching tracing off
//! entirely blinds the cluster exactly when it is under the most load.
//! A [`SamplerConfig`] is the middle ground: a seeded, per-trace *head*
//! decision — made once from the trace id, before any span of the trace
//! is emitted — that keeps a fixed fraction of traces and drops the rest.
//!
//! # Determinism contract
//!
//! The keep decision is a pure function of `(seed, rate, trace_id)`:
//! no RNG state, no wall clock, no per-process salt. Two consequences
//! the property tests pin down:
//!
//! * **Subsequence** — the sampled stream of a run is exactly the full
//!   stream of the same run with the dropped traces' span lines deleted;
//!   every surviving line is byte-identical to its unsampled twin.
//! * **Reproducibility** — two same-seed runs sample the *same* traces,
//!   so the sampled streams are byte-identical across runs too.
//!
//! At the *sink* level only [`Event::Span`] is subject to the per-event
//! filter: spans carry a trace id of their own, every other kind does
//! not. Live daemons extend the same head decision to the rest of a
//! dropped request's telemetry with
//! [`mute_request_scoped`](crate::mute_request_scoped): request-scoped
//! kinds ([`crate::EventKind::is_request_scoped`] — request completions,
//! ICP traffic, placement decisions, connection reuse) are shed for the
//! whole serve path of a dropped trace, while health kinds (evictions,
//! faults, quarantine, admission sheds, alerts) and the `OP_STATS`
//! counters stay exact at any rate. Because the mute follows the same
//! pure head decision, the sampled stream remains a deterministic
//! subsequence of the full stream; simulator streams, which are emitted
//! without muting, keep the stronger guarantee that rollups from a
//! sampled stream agree *exactly* with rollups from the full stream on
//! all non-span counters.

use crate::event::Event;

/// Turns `seed ^ trace_id` into an unbiased keep decision without carrying
/// RNG state. Re-exported so emitters can spread synthetic trace-id bases
/// across the 64-bit space with the mixer the sampler itself uses.
pub use coopcache_types::splitmix64;

/// Head-sampling policy: which fraction of traces to keep, under which
/// seed.
///
/// Stateless and `Copy`: the decision for a trace never changes, so the
/// policy can sit in front of the sink lock and drop spans without
/// contending (the whole point of sampling at emission).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplerConfig {
    /// Seed mixed into every per-trace decision. Different seeds select
    /// different (but equally sized) trace subsets.
    pub seed: u64,
    /// Keep rate in permille: `0` drops every span, `1000` keeps all.
    /// Values above 1000 are treated as 1000.
    pub rate: u32,
}

impl SamplerConfig {
    /// A sampler keeping roughly `rate`/1000 of all traces.
    #[must_use]
    pub const fn new(seed: u64, rate: u32) -> Self {
        Self { seed, rate }
    }

    /// The head decision for one trace: `true` keeps every span of the
    /// trace, `false` drops them all. Pure in `(seed, rate, trace_id)`.
    #[must_use]
    pub const fn keeps_trace(&self, trace_id: u64) -> bool {
        // A rate of 1000 must keep even traces whose hash lands on 999,
        // and 0 must drop everything — both fall out of the comparison.
        splitmix64(self.seed ^ trace_id) % 1_000 < self.rate as u64
    }

    /// The per-event decision: spans follow their trace's head decision,
    /// everything else is always kept (counter carriers stay exact).
    #[must_use]
    pub fn keep(&self, event: &Event) -> bool {
        match event {
            Event::Span(span) => self.keeps_trace(span.trace_id),
            _ => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Span, SpanKind};
    use coopcache_types::{CacheId, DocId};

    fn span_event(trace_id: u64) -> Event {
        Event::Span(Span {
            trace_id,
            span_id: 1,
            parent: None,
            cache: CacheId::new(0),
            kind: SpanKind::Request,
            doc: None,
            peer: None,
            start_us: 0,
            end_us: 10,
            status: "miss",
        })
    }

    #[test]
    fn extreme_rates_keep_all_or_none() {
        let all = SamplerConfig::new(0, 1_000);
        let none = SamplerConfig::new(7, 0);
        for trace in 0..1_000u64 {
            assert!(all.keeps_trace(trace));
            assert!(!none.keeps_trace(trace));
        }
        // Rates above 1000 clamp to keep-all behaviour.
        let over = SamplerConfig::new(7, 5_000);
        assert!((0..1_000u64).all(|t| over.keeps_trace(t)));
    }

    #[test]
    fn keep_fraction_tracks_the_rate() {
        let sampler = SamplerConfig::new(0xDEAD_BEEF, 100);
        let kept = (0..100_000u64).filter(|t| sampler.keeps_trace(*t)).count();
        // 10% ± 1pp over 100k traces.
        assert!((9_000..=11_000).contains(&kept), "kept {kept}");
    }

    #[test]
    fn decisions_are_stable_and_seed_dependent() {
        let a = SamplerConfig::new(1, 500);
        let b = SamplerConfig::new(2, 500);
        let decisions =
            |s: &SamplerConfig| (0..256u64).map(|t| s.keeps_trace(t)).collect::<Vec<_>>();
        assert_eq!(decisions(&a), decisions(&a), "same seed, same subset");
        assert_ne!(decisions(&a), decisions(&b), "seeds select subsets");
    }

    #[test]
    fn only_spans_are_sampled() {
        // A rate-0 sampler still keeps every non-span event.
        let sampler = SamplerConfig::new(3, 0);
        let request = Event::Request {
            seq: 0,
            cache: CacheId::new(0),
            doc: DocId::new(1),
            class: crate::event::RequestClass::Miss,
            responder: None,
            stored: false,
            latency_us: None,
        };
        assert!(sampler.keep(&request));
        assert!(!sampler.keep(&span_event(42)));
    }

    #[test]
    fn span_decision_follows_trace_head() {
        let sampler = SamplerConfig::new(9, 500);
        for trace in 0..64u64 {
            assert_eq!(sampler.keep(&span_event(trace)), sampler.keeps_trace(trace));
        }
    }
}
