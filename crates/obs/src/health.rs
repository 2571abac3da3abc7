//! The per-node health fold: one node table that the DES health tap and
//! the offline [`SeriesReplayer`](crate::SeriesReplayer) share.
//!
//! A [`HealthFold`] keeps, per node, a [`Tally`] sampled into a
//! [`SeriesRing`] at interval boundaries, with an optional
//! [`AlertEngine`] judging each point, and beside the nodes an optional group
//! [`Rollup`]. It owns the routing (an event bills to
//! [`event_cache`]'s node), the boundary clock ([`HealthFold::advance`],
//! with gauges the caller supplies) and the one-fold-per-node rule: each
//! event is folded into its node's tally once, the rollup does only its
//! group-level work beside it and adopts the nodes' tallies when the
//! fold finishes. Without nodes, the rollup folds the events itself.
//!
//! The two front ends differ only in what they feed it: the DES tap
//! feeds [`Event`]s and reads gauges from its group in virtual time; the
//! replayer feeds decoded JSONL lines, clocks the fold from span end
//! times and supplies zero gauges. Both are pure functions of their
//! input, so the same seed gives the same rings, alerts and rollup.

use crate::alert::{AlertEngine, AlertRule};
use crate::event::{Event, EventKind};
use crate::json::JsonValue;
use crate::rollup::{Rollup, RollupConfig};
use crate::series::{SeriesGauges, SeriesPoint, SeriesRing};
use crate::tally::Tally;
use coopcache_types::CacheId;

/// Health-plane configuration: series cadence, SLO rules and the
/// optional online rollup.
#[derive(Debug, Clone)]
pub struct HealthConfig {
    /// Sampling interval for the per-node series rings (virtual time
    /// under the DES, span time in a replay).
    pub interval_ms: u64,
    /// Points retained per node ring.
    pub capacity: usize,
    /// SLO rules evaluated on every node at each sample boundary.
    /// Each state transition becomes an [`Event::Alert`].
    pub rules: Vec<AlertRule>,
    /// When set, an online [`Rollup`] aggregates the full event stream
    /// in bounded memory alongside the rings. Beside a fold's nodes it
    /// keeps no per-node tally of its own: it adopts each node's tally
    /// when the fold finishes, so an event is folded once per node.
    pub rollup: Option<RollupConfig>,
}

/// Everything a [`HealthFold`] produced.
#[derive(Debug, Clone, Default)]
pub struct HealthReport {
    /// Per-node series rings, ascending by cache id.
    pub rings: Vec<SeriesRing>,
    /// Alert state transitions ([`Event::Alert`]) in clock order. A pure
    /// function of the input: same seed → identical stream.
    pub alerts: Vec<Event>,
    /// The rollup aggregate, when one was configured.
    pub rollup: Option<Rollup>,
}

/// One node of the table: its tally, sampled into its ring at each
/// boundary, and with rules its SLO engine, which judges every point.
#[derive(Debug)]
struct Node {
    tally: Tally,
    /// The time of the next sample boundary, in milliseconds.
    next_t_ms: u64,
    ring: SeriesRing,
    engine: Option<AlertEngine>,
}

impl Node {
    /// Emits one point per boundary crossed up to `now_ms`, with the
    /// supplied gauges, feeding each to the engine and collecting its
    /// transitions in `alerts`. The points one call crosses differ only
    /// in `t_ms`: the engine steps over all but the first in closed form
    /// ([`AlertEngine::observe_repeats`]) and only the last `capacity`,
    /// the ones the ring keeps, are built, so a call across a long idle
    /// span costs O(capacity + rules), not O(span / interval).
    fn sample(&mut self, now_ms: u64, gauges: SeriesGauges, alerts: &mut Vec<Event>) {
        let Some(gap) = now_ms.checked_sub(self.next_t_ms) else {
            return;
        };
        let interval = self.ring.interval_ms();
        let crossed = gap / interval + 1;
        let mut point = self.point(gauges);
        if let Some(engine) = &mut self.engine {
            alerts.extend(engine.observe(&point));
            alerts.extend(engine.observe_repeats(&point, crossed - 1));
        }
        let kept = crossed.min(self.ring.capacity() as u64);
        for i in crossed - kept..crossed {
            point.t_ms = self.next_t_ms.saturating_add(i.saturating_mul(interval));
            self.ring.push(point);
        }
        self.next_t_ms = self
            .next_t_ms
            .saturating_add(crossed.saturating_mul(interval));
    }

    /// The point of the next boundary: the tally so far and `gauges`.
    fn point(&self, gauges: SeriesGauges) -> SeriesPoint {
        let (local_hits, remote_hits, _) = self.tally.request_split();
        SeriesPoint {
            t_ms: self.next_t_ms,
            counters: *self.tally.counts(),
            local_hits,
            remote_hits,
            latency: self.tally.latency_snapshot(),
            docs: gauges.docs,
            used_bytes: gauges.used_bytes,
            capacity_bytes: gauges.capacity_bytes,
            expiration_age_ms: gauges.expiration_age_ms,
            quarantined: gauges.quarantined,
        }
    }
}

/// The per-node health fold (see the module doc).
#[derive(Debug, Default)]
pub struct HealthFold {
    interval_ms: u64,
    capacity: usize,
    rules: Vec<AlertRule>,
    /// The node table, indexed by cache id; `None` for ids never added.
    /// Boxed, so a sparse id costs one pointer.
    nodes: Vec<Option<Box<Node>>>,
    rollup: Option<Rollup>,
    /// Every alert transition so far, in clock order.
    alerts: Vec<Event>,
    /// The latest time the fold was advanced to, in milliseconds.
    now_ms: u64,
}

impl HealthFold {
    /// Creates a fold with no nodes yet (see [`Self::add_node`]). With no
    /// node ever added it records no ring, and its rollup, if any, folds
    /// every event itself.
    #[must_use]
    pub fn new(config: HealthConfig) -> Self {
        Self {
            interval_ms: config.interval_ms,
            capacity: config.capacity,
            rules: config.rules,
            rollup: config.rollup.map(Rollup::new),
            ..Self::default()
        }
    }

    /// Adds `cache` to the node table, backfilled with zero-gauge samples
    /// up to the fold's clock so that every ring of one fold aligns on
    /// `t_ms`. Adding a node twice changes nothing.
    pub fn add_node(&mut self, cache: CacheId) {
        if self.nodes.len() <= cache.index() {
            self.nodes.resize_with(cache.index() + 1, || None);
        }
        if self.nodes[cache.index()].is_some() {
            return;
        }
        let ring = SeriesRing::new(cache, self.interval_ms, self.capacity);
        self.nodes[cache.index()] = Some(Box::new(Node {
            tally: Tally::new(),
            next_t_ms: ring.interval_ms(),
            ring,
            engine: (!self.rules.is_empty()).then(|| AlertEngine::new(cache, self.rules.clone())),
        }));
        let _ = self.advance(self.now_ms, |_| SeriesGauges::default());
    }

    /// Folds one event in: into its node's tally, and into the rollup's
    /// group-level state beside it, or into the rollup alone for an
    /// event with no node. Inlined: the DES tap, in another crate, calls
    /// it once per event.
    #[inline]
    pub fn observe(&mut self, event: &Event) {
        let node = event_cache(event)
            .and_then(|cache| self.nodes.get_mut(cache.index()))
            .and_then(Option::as_deref_mut);
        match (node, &mut self.rollup) {
            (Some(node), Some(rollup)) => {
                node.tally.observe(event);
                rollup.observe_group(event);
            }
            (Some(node), None) => node.tally.observe(event),
            (None, Some(rollup)) => rollup.observe(event),
            (None, None) => {}
        }
    }

    /// Folds one decoded JSONL line of the given kind into `cache`'s
    /// tally, adding the node on first sight: the same fold as
    /// [`Self::observe`] over the fields the line carries. Lines reach
    /// the nodes only; a rollup reads events.
    pub(crate) fn observe_line(&mut self, kind: EventKind, cache: CacheId, line: &JsonValue) {
        self.add_node(cache);
        if let Some(Some(node)) = self.nodes.get_mut(cache.index()) {
            node.tally.observe_line(kind, line);
        }
    }

    /// The first time at which [`Self::advance`] has a boundary to cross;
    /// a driver that owns the clock can skip it until then.
    #[must_use]
    pub fn next_due_ms(&self) -> u64 {
        self.nodes
            .iter()
            .flatten()
            .map(|n| n.next_t_ms)
            .chain(self.rollup.as_ref().map(Rollup::next_window_ms))
            .min()
            .unwrap_or(u64::MAX)
    }

    /// The latest time the fold was advanced to, in milliseconds.
    pub(crate) const fn now_ms(&self) -> u64 {
        self.now_ms
    }

    /// Moves the rollup's window clock and every node to `now_ms`,
    /// reading `gauges` for each node that crosses a sample boundary and
    /// feeding each new point to the node's engine. The alert transitions
    /// this fires are folded back in like any other event (into the
    /// firing node's series and the rollup) and returned, in node order.
    pub fn advance(
        &mut self,
        now_ms: u64,
        mut gauges: impl FnMut(CacheId) -> SeriesGauges,
    ) -> &[Event] {
        self.now_ms = self.now_ms.max(now_ms);
        if let Some(rollup) = &mut self.rollup {
            rollup.advance(now_ms);
        }
        let fired_from = self.alerts.len();
        for node in self.nodes.iter_mut().flatten() {
            if node.next_t_ms <= now_ms {
                node.sample(now_ms, gauges(node.ring.cache()), &mut self.alerts);
            }
        }
        for i in fired_from..self.alerts.len() {
            let event = self.alerts[i];
            self.observe(&event);
        }
        &self.alerts[fired_from..]
    }

    /// Hands the fold's output back: the rings, ascending by cache id,
    /// every alert transition, and the rollup with its node table adopted
    /// from the nodes' tallies. Flushes no boundary: advance to the end
    /// time first.
    #[must_use]
    pub fn finish(self) -> HealthReport {
        let nodes = self.nodes.into_iter().flatten();
        let mut rollup = self.rollup;
        let rings = nodes
            .map(|node| {
                if let Some(rollup) = &mut rollup {
                    rollup.adopt_tally(node.ring.cache(), &node.tally);
                }
                node.ring
            })
            .collect();
        HealthReport {
            rings,
            alerts: self.alerts,
            rollup,
        }
    }
}

/// The node an event is billed to: the acting cache for most kinds, the
/// querier for ICP traffic, `None` for the synchronous runner's
/// group-wide window rollovers. A JSONL line routes by the same rule
/// through its `cache` or `from` key.
#[inline]
pub(crate) fn event_cache(event: &Event) -> Option<CacheId> {
    match event {
        Event::Request { cache, .. }
        | Event::Placement { cache, .. }
        | Event::Eviction { cache, .. }
        | Event::PeerFault { cache, .. }
        | Event::Failover { cache, .. }
        | Event::PeerQuarantined { cache, .. }
        | Event::ServerLoopError { cache, .. }
        | Event::ConnReused { cache, .. }
        | Event::AdmissionShed { cache, .. }
        | Event::Alert { cache, .. } => Some(*cache),
        Event::IcpQuery { from, .. } | Event::IcpReply { from, .. } => Some(*from),
        Event::Span(span) => Some(span.cache),
        Event::WindowRollover { .. } => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alert::AlertState;
    use crate::event::RequestClass;
    use coopcache_types::DocId;

    fn request(cache: u16) -> Event {
        Event::Request {
            seq: 0,
            cache: CacheId::new(cache),
            doc: DocId::new(1),
            class: RequestClass::Miss,
            responder: None,
            stored: true,
            latency_us: Some(1_000),
        }
    }

    /// Nodes added out of order and late come out ascending and aligned:
    /// a late node is backfilled up to the fold's clock.
    #[test]
    fn late_nodes_are_backfilled_and_rings_come_out_ascending() {
        let mut fold = HealthFold::new(HealthConfig {
            interval_ms: 100,
            capacity: 8,
            rules: vec![],
            rollup: None,
        });
        fold.add_node(CacheId::new(7));
        fold.observe(&request(7));
        let _ = fold.advance(250, |_| SeriesGauges::default());
        fold.add_node(CacheId::new(2));
        fold.add_node(CacheId::new(2));
        fold.observe(&request(2));
        let _ = fold.advance(300, |_| SeriesGauges::default());
        let rings = fold.finish().rings;
        let times = |r: &SeriesRing| r.points().iter().map(|p| p.t_ms).collect::<Vec<_>>();
        assert_eq!(rings.len(), 2);
        assert_eq!(rings[0].cache(), CacheId::new(2));
        assert_eq!(times(&rings[0]), times(&rings[1]));
        assert_eq!(times(&rings[0]), vec![100, 200, 300]);
        let requests = |r: &SeriesRing| -> Vec<u64> {
            let at = EventKind::Request.index();
            r.points().iter().map(|p| p.counters[at]).collect()
        };
        assert_eq!(requests(&rings[0]), vec![0, 0, 1]);
        assert_eq!(requests(&rings[1]), vec![1, 1, 1]);
    }

    /// Without an engine one call builds only the points its ring keeps:
    /// a jump across 100,000 boundaries leaves the ring a stepwise walk
    /// leaves, with the gauges of the last step.
    #[test]
    fn one_long_advance_equals_stepwise_advances() {
        let fold = || {
            let mut fold = HealthFold::new(HealthConfig {
                interval_ms: 10,
                capacity: 8,
                rules: vec![],
                rollup: None,
            });
            fold.add_node(CacheId::new(0));
            fold.observe(&request(0));
            let _ = fold.advance(35, |_| SeriesGauges::default());
            fold.observe(&request(0));
            fold
        };
        let gauges = |_| SeriesGauges {
            docs: 3,
            ..SeriesGauges::default()
        };
        let end = 1_000_005;
        let mut jump = fold();
        let _ = jump.advance(end, gauges);
        let mut steps = fold();
        for t in (40..=end).step_by(10) {
            let _ = steps.advance(t, gauges);
        }
        let (jump, steps) = (jump.finish().rings, steps.finish().rings);
        assert_eq!(jump[0].points().len(), 8);
        assert_eq!(jump[0].points()[0].t_ms, 999_930);
        assert_eq!(jump, steps);
    }

    /// What the fold did before the closed form: build every crossed
    /// point and feed each to the node's engine, then fold the alerts
    /// back as [`HealthFold::advance`] does.
    fn advance_point_by_point(fold: &mut HealthFold, now_ms: u64, gauges: SeriesGauges) {
        fold.now_ms = fold.now_ms.max(now_ms);
        let fired_from = fold.alerts.len();
        for node in fold.nodes.iter_mut().flatten() {
            while node.next_t_ms <= now_ms {
                let point = node.point(gauges);
                if let Some(engine) = &mut node.engine {
                    fold.alerts.extend(engine.observe(&point));
                }
                node.ring.push(point);
                node.next_t_ms += node.ring.interval_ms();
            }
        }
        for i in fired_from..fold.alerts.len() {
            let event = fold.alerts[i];
            fold.observe(&event);
        }
    }

    fn event(cache: u16, class: RequestClass, latency_us: u64) -> Event {
        Event::Request {
            seq: 0,
            cache: CacheId::new(cache),
            doc: DocId::new(1),
            class,
            responder: None,
            stored: true,
            latency_us: Some(latency_us),
        }
    }

    /// One phase of a script: events to fold in, then an advance to
    /// `until_ms` with `quarantined` peers on every node.
    struct Phase {
        events: Vec<Event>,
        until_ms: u64,
        quarantined: u64,
    }

    /// For each metric, and for all four rules on one engine, the closed
    /// form over long idle spans gives the rings and alerts of stepping
    /// the engine point by point, and the alerts of advancing one
    /// boundary per call (whose rings differ only in when fired alerts
    /// are counted). Each script fires and resolves its rules.
    #[test]
    fn one_long_advance_with_rules_equals_stepping_every_point() {
        const INTERVAL: u64 = 10;
        let miss = |n| vec![event(0, RequestClass::Miss, 2_000); n];
        let mut hits = vec![event(0, RequestClass::LocalHit, 1); 1_000];
        hits.push(Event::AdmissionShed {
            cache: CacheId::new(0),
            doc: DocId::new(2),
        });
        let shed = vec![
            event(0, RequestClass::Miss, 2_000),
            Event::AdmissionShed {
                cache: CacheId::new(0),
                doc: DocId::new(3),
            },
        ];
        let phase = |events, until_ms, quarantined| Phase {
            events,
            until_ms,
            quarantined,
        };
        // Three violating calls (a rate rule sees one evaluable window
        // per call, a gauge rule one per point), a healthy span that
        // resolves every rule, and a violating one again.
        let script = |violate: Vec<Event>, heal: Vec<Event>, q: u64| {
            vec![
                phase(violate.clone(), 2_005, q),
                phase(violate.clone(), 2_500, q),
                phase(violate.clone(), 5_005, q),
                phase(heal, 9_000, 0),
                phase(violate, 19_995, q),
                phase(vec![], 20_000, 0),
            ]
        };
        let cases = [
            (
                vec![AlertRule::hit_rate_floor(500, 3)],
                script(miss(4), hits.clone(), 0),
            ),
            (
                vec![AlertRule::shed_rate_ceiling(100, 2)],
                script(shed.clone(), hits.clone(), 0),
            ),
            (
                vec![AlertRule::p99_ceiling(1_000, 7)],
                script(miss(1), hits.clone(), 0),
            ),
            (
                vec![AlertRule::quarantine_ceiling(1, 4)],
                script(vec![], vec![], 2),
            ),
            // The first advance crosses 200 boundaries: this burn count
            // is reached at its last point.
            (
                vec![AlertRule::quarantine_ceiling(1, 200)],
                script(vec![], vec![], 2),
            ),
            (
                vec![
                    AlertRule::p99_ceiling(1_000, 9),
                    AlertRule::quarantine_ceiling(1, 2),
                    AlertRule::hit_rate_floor(500, 1),
                    AlertRule::shed_rate_ceiling(100, 1),
                ],
                script([miss(2), shed].concat(), hits, 3),
            ),
        ];
        for (rules, script) in cases {
            let fold = || {
                let mut fold = HealthFold::new(HealthConfig {
                    interval_ms: INTERVAL,
                    capacity: 8,
                    rules: rules.clone(),
                    rollup: Some(RollupConfig::default()),
                });
                fold.add_node(CacheId::new(0));
                fold
            };
            let (mut jump, mut every, mut steps) = (fold(), fold(), fold());
            for p in &script {
                let gauges = SeriesGauges {
                    quarantined: p.quarantined,
                    ..SeriesGauges::default()
                };
                for e in &p.events {
                    jump.observe(e);
                    every.observe(e);
                    steps.observe(e);
                }
                let _ = jump.advance(p.until_ms, |_| gauges);
                advance_point_by_point(&mut every, p.until_ms, gauges);
                let first = steps.next_due_ms();
                for t in (first..=p.until_ms).step_by(INTERVAL as usize) {
                    let _ = steps.advance(t, |_| gauges);
                }
            }
            let (jump, every, steps) = (jump.finish(), every.finish(), steps.finish());
            let states = |alerts: &[Event]| {
                alerts
                    .iter()
                    .map(|e| match e {
                        Event::Alert { state, .. } => *state,
                        _ => unreachable!("only alerts"),
                    })
                    .collect::<Vec<_>>()
            };
            let fired = states(&jump.alerts);
            assert!(fired.contains(&AlertState::Firing), "{rules:?}: {fired:?}");
            assert!(
                fired.contains(&AlertState::Resolved),
                "{rules:?}: {fired:?}"
            );
            assert_eq!(jump.alerts, every.alerts, "{rules:?}");
            assert_eq!(jump.rings, every.rings, "{rules:?}");
            assert_eq!(jump.alerts, steps.alerts, "{rules:?}");
        }
    }

    /// Fired alerts count into the firing node's series and come back
    /// from `advance`; the rollup adopts the nodes' tallies.
    #[test]
    fn alerts_fold_back_and_the_rollup_adopts_the_tallies() {
        let mut fold = HealthFold::new(HealthConfig {
            interval_ms: 100,
            capacity: 8,
            rules: vec![AlertRule::hit_rate_floor(1_001, 1)],
            rollup: Some(RollupConfig::default()),
        });
        fold.add_node(CacheId::new(0));
        fold.observe(&request(0));
        let fired = fold.advance(100, |_| SeriesGauges::default()).to_vec();
        assert_eq!(fired.len(), 1, "{fired:?}");
        let _ = fold.advance(200, |_| SeriesGauges::default());
        let report = fold.finish();
        assert_eq!(report.alerts, fired);
        let last = report.rings[0].points().last().unwrap();
        assert_eq!(last.counters[EventKind::Alert.index()], 1);
        let rollup = report.rollup.unwrap();
        assert_eq!(rollup.node_split(CacheId::new(0)), (1, 0, 0));
        assert_eq!(rollup.totals(), (1, 0, 1));
    }
}
