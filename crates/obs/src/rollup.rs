//! Cardinality-bounded online rollups — the always-on aggregate for
//! sweeps too large to trace.
//!
//! A 256-node × 10M-request DES sweep emits tens of millions of events;
//! a per-event JSONL file is gigabytes, but the questions such a sweep
//! answers are aggregate ones: per-node hit rates and latency digests,
//! per-window request/store volume, and how duplicated the group's
//! contents are. A [`Rollup`] folds the event stream into exactly those
//! aggregates in **bounded memory**, whatever the run length:
//!
//! * a per-node table of [`Tally`]s capped at [`RollupConfig::max_nodes`]
//!   entries (counters, hit split, log-bucketed latency digest), indexed
//!   by node id and admitted first-seen; events for nodes beyond the
//!   cap are tallied in one overflow counter instead of growing the table;
//! * a ring of the last [`RollupConfig::max_windows`] non-empty window
//!   summaries (requests, hits, stores, distinct-document estimate and
//!   the derived duplication ratio); older summaries are dropped and
//!   counted, never accumulated;
//! * per window, distinct stored documents are estimated with a fixed
//!   1024-bit linear-counting sketch — constant space, deterministic,
//!   and accurate to a few percent at window cardinalities up to ~1000.
//!
//! Everything is integer or fixed-bucket state driven only by the
//! observed events and the advancing clock, so same-seed runs produce
//! byte-identical [`Rollup::to_json`] documents.
//!
//! The node table is a rollup's own fold ([`Rollup::observe`]) unless it
//! rides in a [`HealthFold`](crate::HealthFold) beside the fold's own
//! per-node tallies: then it does only its group-level work per event
//! and adopts those tallies when the fold finishes, so each event is
//! folded once per node.

use crate::event::{Event, EventKind, RequestClass, EVENT_KINDS};
use crate::json::JsonWriter;
use crate::sample::splitmix64;
use crate::sink::EventSink;
use crate::tally::Tally;
use coopcache_types::CacheId;

/// Bits in the per-window distinct-document sketch.
const SKETCH_BITS: u64 = 1_024;

/// Bounds and cadence of a [`Rollup`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RollupConfig {
    /// Width of one rollup window in milliseconds (virtual time under
    /// the DES, span time in offline replay). Clamped to ≥ 1.
    pub window_ms: u64,
    /// Cardinality bound on the per-node table.
    pub max_nodes: usize,
    /// Number of completed window summaries retained.
    pub max_windows: usize,
}

impl Default for RollupConfig {
    fn default() -> Self {
        Self {
            window_ms: 1_000,
            max_nodes: 256,
            max_windows: 64,
        }
    }
}

/// One completed (non-empty) window's group-level summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSummary {
    /// Window index: the window covers `[index·w, (index+1)·w)` ms.
    pub index: u64,
    /// Requests completed inside the window (whole group).
    pub requests: u64,
    /// Local + remote hits inside the window.
    pub hits: u64,
    /// Requests that stored a local copy inside the window.
    pub stores: u64,
    /// Linear-counting estimate of distinct documents stored.
    pub distinct_docs: u64,
    /// `stores·1000 / distinct_docs` — the group duplication estimate
    /// (1000 = every stored document unique; higher = more duplicated).
    pub duplication_permille: u64,
}

/// The window currently being accumulated.
#[derive(Debug, Clone)]
struct OpenWindow {
    index: u64,
    requests: u64,
    hits: u64,
    stores: u64,
    sketch: [u64; (SKETCH_BITS / 64) as usize],
}

impl OpenWindow {
    fn new(index: u64) -> Self {
        Self {
            index,
            requests: 0,
            hits: 0,
            stores: 0,
            sketch: [0; (SKETCH_BITS / 64) as usize],
        }
    }

    fn is_empty(&self) -> bool {
        self.requests == 0 && self.stores == 0
    }

    fn observe_store(&mut self, doc: u64) {
        self.stores += 1;
        let bit = splitmix64(doc) % SKETCH_BITS;
        self.sketch[(bit / 64) as usize] |= 1 << (bit % 64);
    }

    /// Linear counting: with `z` of `m` bits still zero, the distinct
    /// count estimate is `m·ln(m/z)`. A saturated sketch (z = 0) clamps
    /// to the observed store count — the estimate is a lower bound then.
    fn distinct_estimate(&self) -> u64 {
        let zeros: u64 = self.sketch.iter().map(|w| u64::from(w.count_zeros())).sum();
        if zeros == 0 {
            return self.stores;
        }
        if zeros == SKETCH_BITS {
            return 0;
        }
        let m = SKETCH_BITS as f64;
        let est = (m * (m / zeros as f64).ln()).round();
        // Clamp into [1, stores]: at least one distinct doc once any
        // store happened, never more distinct docs than stores.
        (est as u64).clamp(u64::from(self.stores > 0), self.stores.max(1))
    }

    fn close(&self) -> WindowSummary {
        let distinct = self.distinct_estimate();
        let duplication_permille = self
            .stores
            .saturating_mul(1_000)
            .checked_div(distinct)
            .unwrap_or(0);
        WindowSummary {
            index: self.index,
            requests: self.requests,
            hits: self.hits,
            stores: self.stores,
            distinct_docs: distinct,
            duplication_permille,
        }
    }
}

/// The bounded-memory aggregator itself.
///
/// Drive it either explicitly — [`Rollup::observe`] per event plus
/// [`Rollup::advance`] as the clock moves — or as an [`EventSink`],
/// where spans self-clock the windows from their `end_us`.
#[derive(Debug, Clone)]
pub struct Rollup {
    config: RollupConfig,
    /// Per-node tallies indexed by node id, `None` until admitted; only
    /// as long as the largest admitted id.
    nodes: Vec<Option<Box<Tally>>>,
    /// Nodes admitted so far (≤ `max_nodes`).
    admitted: usize,
    /// Events billed to nodes beyond the `max_nodes` cap.
    overflow_events: u64,
    current: OpenWindow,
    windows: Vec<WindowSummary>,
    windows_dropped: u64,
    /// Cumulative `(requests, hits, stores)` — kept apart from the
    /// window ring so summaries it drops do not take their counts along.
    totals: (u64, u64, u64),
}

impl Rollup {
    /// Creates an empty rollup.
    #[must_use]
    pub fn new(config: RollupConfig) -> Self {
        let config = RollupConfig {
            window_ms: config.window_ms.max(1),
            max_nodes: config.max_nodes.max(1),
            max_windows: config.max_windows.max(1),
        };
        Self {
            config,
            nodes: Vec::new(),
            admitted: 0,
            overflow_events: 0,
            current: OpenWindow::new(0),
            windows: Vec::new(),
            windows_dropped: 0,
            totals: (0, 0, 0),
        }
    }

    /// The bounds this rollup was created with.
    #[must_use]
    pub const fn config(&self) -> RollupConfig {
        self.config
    }

    /// Nodes currently tracked (≤ `max_nodes`).
    #[must_use]
    pub const fn node_count(&self) -> usize {
        self.admitted
    }

    /// Events billed to nodes beyond the cardinality cap.
    #[must_use]
    pub const fn overflow_events(&self) -> u64 {
        self.overflow_events
    }

    /// Completed non-empty window summaries, oldest first.
    #[must_use]
    pub fn windows(&self) -> &[WindowSummary] {
        &self.windows
    }

    /// Window summaries dropped after the ring filled.
    #[must_use]
    pub const fn windows_dropped(&self) -> u64 {
        self.windows_dropped
    }

    /// Cumulative `(requests, local_hits, remote_hits)` for one node,
    /// all zero for untracked nodes.
    #[must_use]
    pub fn node_split(&self, cache: CacheId) -> (u64, u64, u64) {
        let node = self.nodes.get(cache.index()).and_then(Option::as_deref);
        node.map_or((0, 0, 0), |node| {
            let (local, remote, _) = node.request_split();
            (node.count(EventKind::Request), local, remote)
        })
    }

    /// Group totals `(requests, hits, stores)` over every window ever
    /// observed — open, retained, or already dropped from the ring.
    #[must_use]
    pub const fn totals(&self) -> (u64, u64, u64) {
        self.totals
    }

    /// Advances the window clock to `now_ms`, closing the open window
    /// when a boundary was crossed. Non-empty windows are summarised
    /// into the bounded ring; runs of empty windows are skipped in O(1),
    /// and a clock that steps back crosses nothing.
    pub fn advance(&mut self, now_ms: u64) {
        let target = now_ms / self.config.window_ms;
        if target > self.current.index {
            if !self.current.is_empty() {
                if self.windows.len() >= self.config.max_windows {
                    self.windows.remove(0);
                    self.windows_dropped += 1;
                }
                self.windows.push(self.current.close());
            }
            self.current = OpenWindow::new(target);
        }
    }

    /// The virtual time at which the open window closes: the first
    /// `now_ms` for which [`Self::advance`] has a boundary to cross.
    /// Drivers that own the clock can skip `advance` until then.
    #[must_use]
    pub const fn next_window_ms(&self) -> u64 {
        (self.current.index.saturating_add(1)).saturating_mul(self.config.window_ms)
    }

    /// Folds one event in (at the current window clock): bills it to its
    /// node (one indexed lookup) and, for a completed request, to the
    /// open window.
    pub fn observe(&mut self, event: &Event) {
        if let Some(node) = self.admit(event) {
            node.observe(event);
        }
        self.observe_window(event);
    }

    /// The group-level half of [`Self::observe`]: node admission, the
    /// overflow count and the window, but no per-node fold. For a caller
    /// that folds each node's events elsewhere and hands the tallies over
    /// with [`Self::adopt_tally`]; until then admitted nodes read zero.
    #[inline]
    pub(crate) fn observe_group(&mut self, event: &Event) {
        let _ = self.admit(event);
        self.observe_window(event);
    }

    /// Makes `tally` the node's entry in the table, when the node was
    /// admitted; the cap's overflow nodes are left out. `tally` must have
    /// folded exactly the events billed to `cache`, as a health fold's
    /// node beside an [`Self::observe_group`] fold has.
    pub(crate) fn adopt_tally(&mut self, cache: CacheId, tally: &Tally) {
        if let Some(Some(node)) = self.nodes.get_mut(cache.index()) {
            (**node).clone_from(tally);
        }
    }

    /// The tally of the node `event` is billed to, admitting the node on
    /// first sight while the table has room. `None` for group-wide
    /// events and for nodes beyond the cap, whose events count into
    /// `overflow_events` instead.
    #[inline]
    fn admit(&mut self, event: &Event) -> Option<&mut Tally> {
        // Group-wide events carry no node to bill.
        let id = crate::health::event_cache(event)?.index();
        if self.nodes.get(id).is_none_or(Option::is_none) {
            if self.admitted >= self.config.max_nodes {
                self.overflow_events += 1;
                return None;
            }
            if id >= self.nodes.len() {
                self.nodes.resize_with(id + 1, || None);
            }
            self.nodes[id] = Some(Box::default());
            self.admitted += 1;
        }
        self.nodes[id].as_deref_mut()
    }

    /// Bills a completed request to the open window and the totals.
    /// Window accounting is group-level and unaffected by the node cap —
    /// a capped table must not bias the duplication estimate.
    #[inline]
    fn observe_window(&mut self, event: &Event) {
        if let Event::Request {
            doc, class, stored, ..
        } = event
        {
            self.current.requests += 1;
            self.totals.0 += 1;
            if *class != RequestClass::Miss {
                self.current.hits += 1;
                self.totals.1 += 1;
            }
            if *stored {
                self.current.observe_store(doc.as_u64());
                self.totals.2 += 1;
            }
        }
    }

    /// Closes the open window (if non-empty) and encodes the rollup as
    /// one deterministic JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut snapshot = self.clone();
        // Force the open window closed so the document is complete.
        snapshot.advance((snapshot.current.index + 1).saturating_mul(snapshot.config.window_ms));
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("window_ms");
        w.u64(snapshot.config.window_ms);
        w.key("max_nodes");
        w.u64(snapshot.config.max_nodes as u64);
        w.key("max_windows");
        w.u64(snapshot.config.max_windows as u64);
        w.key("nodes");
        w.begin_array();
        // Ascending cache order: the table is indexed by node id.
        for (cache, node) in snapshot.nodes.iter().enumerate() {
            let Some(node) = node else { continue };
            w.begin_object();
            w.key("cache");
            w.u64(cache as u64);
            w.key("counters");
            w.begin_object();
            for kind in EVENT_KINDS {
                w.key(kind.name());
                w.u64(node.count(kind));
            }
            w.end_object();
            let (local_hits, remote_hits, _) = node.request_split();
            w.key("local_hits");
            w.u64(local_hits);
            w.key("remote_hits");
            w.u64(remote_hits);
            w.key("hit_permille");
            w.opt_u64(
                (local_hits + remote_hits)
                    .saturating_mul(1_000)
                    .checked_div(node.count(EventKind::Request)),
            );
            w.key("latency");
            match node.latency_snapshot() {
                Some(snapshot) => snapshot.write_json_us(&mut w),
                None => w.null(),
            }
            w.end_object();
        }
        w.end_array();
        w.key("overflow_events");
        w.u64(snapshot.overflow_events);
        w.key("windows");
        w.begin_array();
        for win in &snapshot.windows {
            w.begin_object();
            w.key("index");
            w.u64(win.index);
            w.key("requests");
            w.u64(win.requests);
            w.key("hits");
            w.u64(win.hits);
            w.key("stores");
            w.u64(win.stores);
            w.key("distinct_docs");
            w.u64(win.distinct_docs);
            w.key("duplication_permille");
            w.u64(win.duplication_permille);
            w.end_object();
        }
        w.end_array();
        w.key("windows_dropped");
        w.u64(snapshot.windows_dropped);
        w.end_object();
        w.finish()
    }
}

impl EventSink for Rollup {
    fn emit(&mut self, event: &Event) {
        if let Event::Span(span) = event {
            self.advance(span.end_us / 1_000);
        }
        self.observe(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coopcache_types::DocId;

    fn request(cache: u16, doc: u64, class: RequestClass, stored: bool) -> Event {
        Event::Request {
            seq: 0,
            cache: CacheId::new(cache),
            doc: DocId::new(doc),
            class,
            responder: None,
            stored,
            latency_us: Some(1_000),
        }
    }

    #[test]
    fn node_table_is_cardinality_bounded() {
        let mut rollup = Rollup::new(RollupConfig {
            window_ms: 1_000,
            max_nodes: 4,
            max_windows: 8,
        });
        for cache in 0..10u16 {
            rollup.observe(&request(cache, 1, RequestClass::Miss, true));
        }
        assert_eq!(rollup.node_count(), 4);
        assert_eq!(rollup.overflow_events(), 6);
        // Overflowed nodes still count into the group window.
        assert_eq!(rollup.totals().0, 10);
    }

    /// The shared fold: group-level work here, node tallies kept apart
    /// and adopted at the end, gives the same document as the full fold,
    /// first-seen admission and overflow included.
    #[test]
    fn adopted_tallies_equal_the_full_fold() {
        let config = RollupConfig {
            window_ms: 100,
            max_nodes: 2,
            max_windows: 8,
        };
        let mut full = Rollup::new(config);
        let mut group = Rollup::new(config);
        let mut tallies = vec![Tally::new(); 8];
        for (i, cache) in [5u16, 2, 5, 7, 0, 2, 7, 5].into_iter().enumerate() {
            let class = [RequestClass::Miss, RequestClass::LocalHit][i % 2];
            let event = request(cache, i as u64 % 3, class, i % 3 == 0);
            full.observe(&event);
            group.observe_group(&event);
            tallies[usize::from(cache)].observe(&event);
            full.advance(i as u64 * 60);
            group.advance(i as u64 * 60);
        }
        for (cache, tally) in tallies.iter().enumerate() {
            group.adopt_tally(CacheId::new(cache as u16), tally);
        }
        assert_eq!((group.node_count(), group.overflow_events()), (2, 3));
        assert_eq!(group.node_split(CacheId::new(7)), (0, 0, 0));
        assert_eq!(group.to_json(), full.to_json());
    }

    #[test]
    fn window_ring_is_bounded_and_skips_empty_windows() {
        let mut rollup = Rollup::new(RollupConfig {
            window_ms: 100,
            max_nodes: 8,
            max_windows: 2,
        });
        for i in 0..5u64 {
            rollup.observe(&request(0, i, RequestClass::Miss, true));
            // A long idle gap: empty windows must not emit summaries.
            rollup.advance((i + 1) * 10_000);
        }
        assert_eq!(rollup.windows().len(), 2);
        assert_eq!(rollup.windows_dropped(), 3);
        // Each retained summary covers exactly one store.
        for w in rollup.windows() {
            assert_eq!(w.stores, 1);
            assert_eq!(w.distinct_docs, 1);
            assert_eq!(w.duplication_permille, 1_000);
        }
    }

    #[test]
    fn duplication_estimate_tracks_repeated_stores() {
        let mut rollup = Rollup::new(RollupConfig::default());
        // 100 stores of only 10 distinct documents → ~10x duplication.
        for i in 0..100u64 {
            rollup.observe(&request(0, i % 10, RequestClass::Miss, true));
        }
        rollup.advance(1_000);
        let w = rollup.windows()[0];
        assert_eq!(w.stores, 100);
        assert!(
            (9..=11).contains(&w.distinct_docs),
            "estimate {} off",
            w.distinct_docs
        );
        assert!(
            w.duplication_permille >= 9_000,
            "{}",
            w.duplication_permille
        );
    }

    #[test]
    fn hit_split_and_totals() {
        let mut rollup = Rollup::new(RollupConfig::default());
        rollup.observe(&request(1, 1, RequestClass::LocalHit, false));
        rollup.observe(&request(1, 2, RequestClass::RemoteHit, true));
        rollup.observe(&request(1, 3, RequestClass::Miss, true));
        assert_eq!(rollup.node_split(CacheId::new(1)), (3, 1, 1));
        assert_eq!(rollup.node_split(CacheId::new(9)), (0, 0, 0));
        assert_eq!(rollup.totals(), (3, 2, 2));
    }

    #[test]
    fn json_is_deterministic_and_closes_the_open_window() {
        let mut rollup = Rollup::new(RollupConfig {
            window_ms: 100,
            max_nodes: 8,
            max_windows: 8,
        });
        rollup.observe(&request(0, 7, RequestClass::Miss, true));
        let a = rollup.to_json();
        let b = rollup.to_json();
        assert_eq!(a, b);
        assert!(a.starts_with(r#"{"window_ms":100,"max_nodes":8,"#), "{a}");
        assert!(a.contains(r#""stores":1"#), "{a}");
        // to_json must not mutate the rollup itself.
        assert!(rollup.windows().is_empty());
    }
}
