//! The one fold of the event stream.
//!
//! A [`Tally`] counts what the paper's evaluation (§4) reads off a run:
//! events per kind, the local / remote / miss split, the EA placement
//! decisions (stored, declined, ties) and the request-latency and
//! eviction-age histograms. Every aggregate in this crate is built from
//! it: a `Tally` is itself the in-process run summary (it is an
//! [`EventSink`]), each node of a [`HealthFold`](crate::HealthFold)
//! samples one into its series ring, and a [`Rollup`](crate::Rollup)
//! keeps one per node. Beside a fold's nodes the rollup's are the
//! nodes' own, adopted when the fold finishes, so each event is folded
//! once per node. A decoded JSONL line folds like its event
//! ([`Tally::observe_line`]), which is how a replay rebuilds the same
//! series.

use crate::event::{Event, EventKind, RequestClass, EVENT_KINDS};
use crate::histogram::{Histogram, HistogramSnapshot};
use crate::json::JsonValue;
use crate::sink::EventSink;
use std::fmt::Write as _;

/// Per-kind counts, the request and placement splits, and log-bucketed
/// latency and age histograms over one event stream.
///
/// Misses and declined placements are not stored: each is the remainder
/// of its kind's count.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    counts: [u64; EVENT_KINDS.len()],
    local_hits: u64,
    remote_hits: u64,
    placement_stores: u64,
    placement_ties: u64,
    /// Request latency in microseconds (only requests that carried one).
    pub request_latency_us: Histogram,
    /// Document expiration age at eviction, in milliseconds.
    pub eviction_age_ms: Histogram,
}

impl Tally {
    /// Creates an empty tally.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one event in. Inlined because every per-event aggregate in
    /// the crate calls it, each from its own module.
    #[inline]
    pub fn observe(&mut self, event: &Event) {
        self.counts[event.kind().index()] += 1;
        match *event {
            Event::Request {
                class, latency_us, ..
            } => self.request(Some(class), latency_us),
            Event::Placement {
                stored,
                self_age,
                peer_age,
                ..
            } => self.placement(stored, self_age == peer_age),
            Event::Eviction { age_ms, .. } => self.eviction_age_ms.record(age_ms),
            _ => {}
        }
    }

    /// Folds one event read back from a JSONL line, already tagged with
    /// its kind: the same fold as [`Self::observe`], over the fields the
    /// line's encoding carries.
    pub(crate) fn observe_line(&mut self, kind: EventKind, line: &JsonValue) {
        self.counts[kind.index()] += 1;
        let u64_of = |key| line.get(key).and_then(JsonValue::as_u64);
        let flag = |key| line.get(key).and_then(JsonValue::as_bool) == Some(true);
        match kind {
            EventKind::Request => self.request(
                line.get("class")
                    .and_then(JsonValue::as_str)
                    .and_then(RequestClass::from_name),
                u64_of("latency_us"),
            ),
            EventKind::Placement => self.placement(flag("stored"), flag("tie")),
            EventKind::Eviction => {
                if let Some(age_ms) = u64_of("age_ms") {
                    self.eviction_age_ms.record(age_ms);
                }
            }
            _ => {}
        }
    }

    fn request(&mut self, class: Option<RequestClass>, latency_us: Option<u64>) {
        match class {
            Some(RequestClass::LocalHit) => self.local_hits += 1,
            Some(RequestClass::RemoteHit) => self.remote_hits += 1,
            Some(RequestClass::Miss) | None => {}
        }
        if let Some(us) = latency_us {
            self.request_latency_us.record(us);
        }
    }

    fn placement(&mut self, stored: bool, tie: bool) {
        self.placement_stores += u64::from(stored);
        self.placement_ties += u64::from(tie);
    }

    /// Events seen of the given kind.
    #[must_use]
    pub fn count(&self, kind: EventKind) -> u64 {
        self.counts[kind.index()]
    }

    /// Events seen per kind, in [`EVENT_KINDS`] order.
    #[must_use]
    pub(crate) const fn counts(&self) -> &[u64; EVENT_KINDS.len()] {
        &self.counts
    }

    /// `(local hits, remote hits, misses)` among request events.
    #[must_use]
    pub fn request_split(&self) -> (u64, u64, u64) {
        let hits = self.local_hits + self.remote_hits;
        let misses = self.count(EventKind::Request) - hits;
        (self.local_hits, self.remote_hits, misses)
    }

    /// `(stored, declined)` among placement decisions.
    #[must_use]
    pub fn placement_split(&self) -> (u64, u64) {
        let declined = self.count(EventKind::Placement) - self.placement_stores;
        (self.placement_stores, declined)
    }

    /// Placement decisions where both expiration ages were exactly equal
    /// (the §3.4 vs §3.5 tie case).
    #[must_use]
    pub const fn placement_ties(&self) -> u64 {
        self.placement_ties
    }

    /// The request-latency snapshot, `None` before any measured request.
    #[must_use]
    pub(crate) fn latency_snapshot(&self) -> Option<HistogramSnapshot> {
        snapshot(&self.request_latency_us)
    }

    /// Renders a human-readable multi-line summary.
    #[must_use]
    pub fn render_summary(&self) -> String {
        let mut out = String::new();
        out.push_str("event summary:\n");
        for kind in EVENT_KINDS {
            let n = self.count(kind);
            if n > 0 {
                let _ = writeln!(out, "  {:<12} {n}", kind.name());
            }
        }
        if self.count(EventKind::Request) > 0 {
            let (local, remote, misses) = self.request_split();
            let _ = writeln!(
                out,
                "  requests: {local} local / {remote} remote / {misses} miss"
            );
        }
        if self.count(EventKind::Placement) > 0 {
            let (stored, declined) = self.placement_split();
            let _ = writeln!(
                out,
                "  placements: {stored} stored / {declined} declined / {} ties",
                self.placement_ties
            );
        }
        for (label, hist) in [
            ("latency_us", &self.request_latency_us),
            ("evict_age_ms", &self.eviction_age_ms),
        ] {
            if let Some(s) = snapshot(hist) {
                let _ = writeln!(
                    out,
                    "  {label}: p50={} p90={} p99={} max={} (n={})",
                    s.p50, s.p90, s.p99, s.max, s.count
                );
            }
        }
        out
    }
}

fn snapshot(hist: &Histogram) -> Option<HistogramSnapshot> {
    (!hist.is_empty()).then(|| hist.snapshot())
}

impl EventSink for Tally {
    fn emit(&mut self, event: &Event) {
        self.observe(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EvictionCause, PlacementRole};
    use crate::json::parse_json;
    use coopcache_types::{CacheId, DocId, ExpirationAge};

    fn events() -> Vec<Event> {
        let request = |seq: u64, class, latency_us| Event::Request {
            seq,
            cache: CacheId::new(0),
            doc: DocId::new(seq),
            class,
            responder: None,
            stored: true,
            latency_us,
        };
        vec![
            request(0, RequestClass::LocalHit, Some(100)),
            request(1, RequestClass::RemoteHit, Some(300)),
            request(2, RequestClass::Miss, None),
            Event::Placement {
                cache: CacheId::new(0),
                doc: DocId::new(1),
                role: PlacementRole::RequesterStore,
                self_age: ExpirationAge::Infinite,
                peer_age: ExpirationAge::Infinite,
                stored: false,
            },
            Event::Eviction {
                cache: CacheId::new(0),
                doc: DocId::new(2),
                age_ms: 512,
                cause: EvictionCause::Capacity,
            },
        ]
    }

    #[test]
    fn tally_aggregates() {
        let mut tally = Tally::new();
        for event in &events() {
            tally.emit(event);
        }
        assert_eq!(tally.count(EventKind::Request), 3);
        assert_eq!(tally.request_split(), (1, 1, 1));
        assert_eq!(tally.placement_split(), (0, 1));
        assert_eq!(tally.placement_ties(), 1);
        assert_eq!(tally.request_latency_us.count(), 2);
        assert_eq!(tally.eviction_age_ms.count(), 1);
        let summary = tally.render_summary();
        assert!(summary.contains("request"));
        assert!(summary.contains("1 ties"));
    }

    #[test]
    fn jsonl_lines_tally_like_the_events() {
        let mut direct = Tally::new();
        let mut replayed = Tally::new();
        for event in &events() {
            direct.observe(event);
            replayed.observe_line(event.kind(), &parse_json(&event.to_json()).unwrap());
        }
        assert_eq!(direct, replayed);
    }
}
