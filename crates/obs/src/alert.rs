//! Declarative SLO rules over the sampled series — the alert plane.
//!
//! An [`AlertRule`] names a metric derived from [`SeriesPoint`]s, a
//! threshold, and a burn count: the rule fires only after the threshold
//! has been violated for `for_windows` *consecutive* sampling windows,
//! so one noisy window never pages. An [`AlertEngine`] holds the rules
//! for one node and is fed every new series point; it returns its
//! transitions (firing ↔ resolved) as [`Event::Alert`]s, which the
//! drivers emit like any other event.
//!
//! # Virtual vs wall clock
//!
//! The engine itself never reads a clock — it sees only the points it
//! is given, in order. Under the DES the points carry virtual time and
//! the firings are byte-reproducible across same-seed runs; under a
//! live daemon the points carry wall-clock time but the emitted
//! `Event::Alert` carries *no* timestamp of its own, so the alert
//! *stream* of a deterministic workload is still comparable line by
//! line. All metric values are integers (permille for rates,
//! microseconds for latency, a count for quarantine) for the same
//! reason: no float formatting in the stream.
//!
//! # Metric semantics
//!
//! Rates are **per-window deltas** of the cumulative counters (hit rate
//! = hits delta / requests delta); a window that served zero requests is
//! *not evaluated* for rate rules — the burn streak holds rather than
//! resetting, so an idle node neither fires nor spuriously resolves.
//! The p99 ceiling reads the point's cumulative latency snapshot (the
//! only latency the series carries); quarantine reads the instantaneous
//! gauge.

use crate::event::{Event, EventKind};
use crate::series::SeriesPoint;
use coopcache_types::CacheId;

/// Which series-derived quantity a rule watches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlertMetric {
    /// Group-visible hit rate (local + remote) per window, in permille.
    HitRate,
    /// p99 request latency from the cumulative snapshot, in µs.
    P99Latency,
    /// Quarantined peer count (instantaneous gauge).
    Quarantined,
    /// Admission-shed rate per window, in permille of requests.
    ShedRate,
}

impl AlertMetric {
    /// Stable lowercase name used in the JSON encoding.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Self::HitRate => "hit-rate",
            Self::P99Latency => "p99-latency",
            Self::Quarantined => "quarantined",
            Self::ShedRate => "shed-rate",
        }
    }

    /// The inverse of [`Self::name`], for rule parsing in the CLI.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        [
            Self::HitRate,
            Self::P99Latency,
            Self::Quarantined,
            Self::ShedRate,
        ]
        .into_iter()
        .find(|m| m.name() == name)
    }

    /// The side of the threshold that violates, as the JSON `op` word:
    /// the hit rate is a floor (`"below"`), the other three metrics are
    /// ceilings (`"above"`).
    #[must_use]
    pub const fn side(self) -> &'static str {
        match self {
            Self::HitRate => "below",
            Self::P99Latency | Self::Quarantined | Self::ShedRate => "above",
        }
    }
}

/// Whether a transition enters or leaves the alerting state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlertState {
    /// The rule just crossed its burn count and is now firing.
    Firing,
    /// A previously firing rule just saw a healthy window.
    Resolved,
}

impl AlertState {
    /// Stable lowercase name used in the JSON encoding.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Self::Firing => "firing",
            Self::Resolved => "resolved",
        }
    }
}

/// One declarative SLO rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlertRule {
    /// The watched metric, which fixes the side of the threshold that
    /// violates ([`AlertMetric::side`]).
    pub metric: AlertMetric,
    /// Threshold in the metric's unit (permille, µs, or count).
    pub threshold: u64,
    /// Consecutive violating windows required before firing (burn
    /// count; clamped to at least 1).
    pub for_windows: u32,
}

impl AlertRule {
    /// Fires when the per-window hit rate stays below `permille`.
    #[must_use]
    pub const fn hit_rate_floor(permille: u64, for_windows: u32) -> Self {
        Self {
            metric: AlertMetric::HitRate,
            threshold: permille,
            for_windows,
        }
    }

    /// Fires when cumulative p99 latency stays above `us` microseconds.
    #[must_use]
    pub const fn p99_ceiling(us: u64, for_windows: u32) -> Self {
        Self {
            metric: AlertMetric::P99Latency,
            threshold: us,
            for_windows,
        }
    }

    /// Fires when more than `count` peers stay quarantined.
    #[must_use]
    pub const fn quarantine_ceiling(count: u64, for_windows: u32) -> Self {
        Self {
            metric: AlertMetric::Quarantined,
            threshold: count,
            for_windows,
        }
    }

    /// Fires when the admission-shed rate stays above `permille` of
    /// requests.
    #[must_use]
    pub const fn shed_rate_ceiling(permille: u64, for_windows: u32) -> Self {
        Self {
            metric: AlertMetric::ShedRate,
            threshold: permille,
            for_windows,
        }
    }

    fn violates(&self, value: u64) -> bool {
        match self.metric.side() {
            "below" => value < self.threshold,
            _ => value > self.threshold,
        }
    }
}

/// Per-rule burn bookkeeping.
#[derive(Debug, Clone, Copy, Default)]
struct RuleState {
    /// Violating windows seen since the last healthy one.
    streak: u32,
    /// Whether the rule is currently firing.
    firing: bool,
}

/// The cumulative-counter context a rate metric needs from the previous
/// point.
#[derive(Debug, Clone, Copy, Default)]
struct PrevCounters {
    requests: u64,
    hits: u64,
    shed: u64,
}

impl PrevCounters {
    fn of(point: &SeriesPoint) -> Self {
        Self {
            requests: point.counters[EventKind::Request.index()],
            hits: point.local_hits.saturating_add(point.remote_hits),
            shed: point.counters[EventKind::AdmissionShed.index()],
        }
    }
}

/// Evaluates a rule set against one node's series, point by point.
///
/// Pure in its inputs: the same rules fed the same point sequence emit
/// the same transitions — the determinism handle check.sh pins for both
/// the DES (virtual time) and same-seed daemon workloads.
#[derive(Debug, Clone)]
pub struct AlertEngine {
    cache: CacheId,
    rules: Vec<AlertRule>,
    states: Vec<RuleState>,
    prev: Option<PrevCounters>,
}

impl AlertEngine {
    /// Creates an engine for one node.
    #[must_use]
    pub fn new(cache: CacheId, rules: Vec<AlertRule>) -> Self {
        let states = vec![RuleState::default(); rules.len()];
        Self {
            cache,
            rules,
            states,
            prev: None,
        }
    }

    /// Rules currently in the firing state.
    #[must_use]
    pub fn firing(&self) -> Vec<AlertRule> {
        self.rules
            .iter()
            .zip(&self.states)
            .filter(|(_, s)| s.firing)
            .map(|(r, _)| *r)
            .collect()
    }

    /// Feeds one new series point; returns the transitions it caused as
    /// [`Event::Alert`]s, in rule order. The first point's deltas are its
    /// absolute counters, which is the right reading for a fresh series.
    pub fn observe(&mut self, point: &SeriesPoint) -> Vec<Event> {
        self.step(self.prev, point, 1)
    }

    /// Feeds `repeats` more copies of `point`, the point just fed to
    /// [`Self::observe`], differing from it only in `t_ms`, in O(rules)
    /// rather than O(repeats): what a span of idle sample boundaries
    /// looks like. Their windows hold no new requests, so a rate rule
    /// holds its streak, and a gauge rule re-reads one value at every
    /// repeat.
    pub(crate) fn observe_repeats(&mut self, point: &SeriesPoint, repeats: u64) -> Vec<Event> {
        if repeats == 0 {
            return Vec::new(); // else a healthy firing rule would resolve
        }
        self.step(Some(PrevCounters::of(point)), point, repeats)
    }

    /// Steps every rule over `repeats` windows that each read `point`
    /// against `prev`. While a rule violates, the windows add to its
    /// streak and it fires at most once, with the `windows` one-by-one
    /// stepping would report; once healthy, the streak resets and a
    /// firing rule resolves at the first window. Transitions come in
    /// (window, rule) order, as stepping emits them.
    fn step(
        &mut self,
        prev: Option<PrevCounters>,
        point: &SeriesPoint,
        repeats: u64,
    ) -> Vec<Event> {
        let mut out = Vec::new();
        for (rule, state) in self.rules.iter().zip(self.states.iter_mut()) {
            let Some(value) = Self::metric_value(prev, rule, point) else {
                continue; // window not evaluable: hold the streak
            };
            let (at, windows, transition) = if rule.violates(value) {
                // A rule that is not firing has a streak below its burn
                // count, so the window that reaches the count fires, and
                // the count is the streak it reports.
                let burn = rule.for_windows.max(1);
                let at = u64::from(burn.saturating_sub(state.streak));
                let fires = !state.firing && at <= repeats;
                let streak = u64::from(state.streak).saturating_add(repeats);
                state.streak = u32::try_from(streak).unwrap_or(u32::MAX);
                if !fires {
                    continue;
                }
                (at, u64::from(burn), AlertState::Firing)
            } else {
                state.streak = 0;
                if !state.firing {
                    continue;
                }
                (1, 1, AlertState::Resolved)
            };
            state.firing = transition == AlertState::Firing;
            out.push((
                at,
                Event::Alert {
                    cache: self.cache,
                    metric: rule.metric,
                    threshold: rule.threshold,
                    value,
                    windows,
                    state: transition,
                },
            ));
        }
        // Stable: rules firing in one window stay in rule order.
        out.sort_by_key(|&(at, _)| at);
        self.prev = Some(PrevCounters::of(point));
        out.into_iter().map(|(_, event)| event).collect()
    }

    /// The metric value a rule sees at `point`, or `None` when the
    /// window is not evaluable (no requests for a rate, no latency yet).
    fn metric_value(
        prev: Option<PrevCounters>,
        rule: &AlertRule,
        point: &SeriesPoint,
    ) -> Option<u64> {
        let prev = prev.unwrap_or_default();
        match rule.metric {
            AlertMetric::HitRate => {
                let requests =
                    point.counters[EventKind::Request.index()].saturating_sub(prev.requests);
                let hits = point
                    .local_hits
                    .saturating_add(point.remote_hits)
                    .saturating_sub(prev.hits);
                (requests > 0).then(|| hits.saturating_mul(1_000) / requests)
            }
            AlertMetric::P99Latency => point.latency.map(|l| l.p99),
            AlertMetric::Quarantined => Some(point.quarantined),
            AlertMetric::ShedRate => {
                let requests =
                    point.counters[EventKind::Request.index()].saturating_sub(prev.requests);
                let shed =
                    point.counters[EventKind::AdmissionShed.index()].saturating_sub(prev.shed);
                (requests > 0).then(|| shed.saturating_mul(1_000) / requests)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EVENT_KINDS;
    use crate::histogram::HistogramSnapshot;

    /// A point with `requests` cumulative requests, `hits` of them
    /// local, and the given quarantine gauge.
    fn point(t_ms: u64, requests: u64, hits: u64, quarantined: u64) -> SeriesPoint {
        let mut counters = [0u64; EVENT_KINDS.len()];
        counters[EventKind::Request.index()] = requests;
        SeriesPoint {
            t_ms,
            counters,
            latency: None,
            local_hits: hits,
            remote_hits: 0,
            docs: 0,
            used_bytes: 0,
            capacity_bytes: 0,
            expiration_age_ms: None,
            quarantined,
        }
    }

    /// `(metric, value, windows, state)` of one alert transition.
    fn parts(event: &Event) -> (AlertMetric, u64, u64, AlertState) {
        match *event {
            Event::Alert {
                metric,
                value,
                windows,
                state,
                ..
            } => (metric, value, windows, state),
            _ => panic!("not an alert: {event:?}"),
        }
    }

    #[test]
    fn hit_rate_floor_fires_after_burn_count() {
        let rule = AlertRule::hit_rate_floor(500, 2);
        let mut engine = AlertEngine::new(CacheId::new(3), vec![rule]);
        // Window 1: 10 req, 2 hits (200‰ < 500‰) — violating, streak 1.
        assert!(engine.observe(&point(100, 10, 2, 0)).is_empty());
        // Window 2: 10 more req, 2 more hits — streak 2 → fires.
        let fired = engine.observe(&point(200, 20, 4, 0));
        assert_eq!(fired.len(), 1);
        assert_eq!(
            parts(&fired[0]),
            (AlertMetric::HitRate, 200, 2, AlertState::Firing)
        );
        assert_eq!(engine.firing(), vec![rule]);
        // Still violating: no duplicate emission.
        assert!(engine.observe(&point(300, 30, 6, 0)).is_empty());
        // Healthy window (10 req, 8 hits = 800‰) resolves immediately.
        let resolved = engine.observe(&point(400, 40, 14, 0));
        assert_eq!(resolved.len(), 1);
        assert_eq!(
            parts(&resolved[0]),
            (AlertMetric::HitRate, 800, 1, AlertState::Resolved)
        );
        assert!(engine.firing().is_empty());
    }

    #[test]
    fn idle_windows_hold_the_burn_streak() {
        let mut engine = AlertEngine::new(CacheId::new(0), vec![AlertRule::hit_rate_floor(500, 2)]);
        assert!(engine.observe(&point(100, 10, 0, 0)).is_empty()); // streak 1
                                                                   // Zero new requests: not evaluable, streak must hold (not reset).
        assert!(engine.observe(&point(200, 10, 0, 0)).is_empty());
        // Next violating window completes the burn.
        let fired = engine.observe(&point(300, 20, 0, 0));
        assert_eq!(fired.len(), 1);
        assert_eq!(parts(&fired[0]).3, AlertState::Firing);
    }

    #[test]
    fn quarantine_gauge_and_shed_rate_rules() {
        let rules = vec![
            AlertRule::quarantine_ceiling(0, 1),
            AlertRule::shed_rate_ceiling(100, 1),
        ];
        let mut engine = AlertEngine::new(CacheId::new(1), rules);
        let mut p = point(100, 10, 10, 2);
        p.counters[EventKind::AdmissionShed.index()] = 5; // 500‰ shed
        let fired = engine.observe(&p);
        assert_eq!(fired.len(), 2);
        assert_eq!(
            parts(&fired[0]),
            (AlertMetric::Quarantined, 2, 1, AlertState::Firing)
        );
        assert_eq!(
            parts(&fired[1]),
            (AlertMetric::ShedRate, 500, 1, AlertState::Firing)
        );
    }

    #[test]
    fn p99_rule_reads_the_latency_snapshot() {
        let mut engine = AlertEngine::new(CacheId::new(0), vec![AlertRule::p99_ceiling(1_000, 1)]);
        // No latency yet: not evaluable.
        assert!(engine.observe(&point(100, 1, 1, 0)).is_empty());
        let mut p = point(200, 2, 2, 0);
        p.latency = Some(HistogramSnapshot {
            count: 2,
            mean: 900.0,
            min: 800,
            p50: 900,
            p90: 1_500,
            p99: 2_000,
            max: 2_000,
        });
        let fired = engine.observe(&p);
        assert_eq!(fired.len(), 1);
        assert_eq!(parts(&fired[0]).1, 2_000);
    }

    #[test]
    fn alert_side_follows_the_metric() {
        // Of a value below, at and above the threshold, a floor is
        // violated only below it and a ceiling only above it.
        for (rule, floor) in [
            (AlertRule::hit_rate_floor(500, 1), true),
            (AlertRule::p99_ceiling(500, 1), false),
            (AlertRule::quarantine_ceiling(500, 1), false),
            (AlertRule::shed_rate_ceiling(500, 1), false),
        ] {
            let side = if floor { "below" } else { "above" };
            assert_eq!(rule.metric.side(), side, "{:?}", rule.metric);
            let violates = [499, 500, 501].map(|value| rule.violates(value));
            assert_eq!(violates, [floor, false, !floor], "{:?}", rule.metric);
        }
    }

    #[test]
    fn name_vocabularies_roundtrip() {
        for metric in [
            AlertMetric::HitRate,
            AlertMetric::P99Latency,
            AlertMetric::Quarantined,
            AlertMetric::ShedRate,
        ] {
            assert_eq!(AlertMetric::from_name(metric.name()), Some(metric));
        }
        assert_eq!(AlertMetric::from_name("cpu"), None);
        assert_eq!(AlertState::Resolved.name(), "resolved");
    }
}
