//! Fixed-capacity time series over the live stats plane.
//!
//! The [`StatsRegistry`](crate::StatsRegistry) answers "what are the
//! counters *now*"; this module records how they *evolve*: a
//! [`SeriesPoint`] per elapsed sampling interval, held in a
//! [`SeriesRing`] — a bounded ring buffer whose JSON form is the
//! `OP_SERIES` wire body. Points carry cumulative counters (rates are
//! derived from deltas at render time), the hit split, the cumulative
//! latency snapshot, cache occupancy, the live expiration age (paper
//! eq. 5) and the quarantine count.
//!
//! The rings are filled by a [`HealthFold`](crate::HealthFold), which
//! samples each node's [`Tally`](crate::Tally) at interval boundaries.
//! The DES drives it with simulated time and the [`SeriesReplayer`] —
//! this module's JSONL front end over the fold — with span timestamps
//! read back from a file: the fold is a pure function of the
//! `(time, event)` stream it observes, so both give byte-identical
//! series for the same seed. A live daemon lands one point per
//! `OP_SERIES` probe at wall-clock time, in the same point format.

use crate::event::{EventKind, EVENT_KINDS};
use crate::health::{HealthConfig, HealthFold};
use crate::histogram::HistogramSnapshot;
use crate::json::{parse_json, JsonParseError, JsonValue, JsonWriter};
use coopcache_types::CacheId;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Default number of points a series ring retains.
pub const DEFAULT_SERIES_CAPACITY: usize = 120;

/// Largest ring capacity accepted when decoding a series body — a
/// corrupt or hostile `capacity` field cannot force a huge allocation.
const MAX_SERIES_CAPACITY: usize = 4_096;

/// Instantaneous gauge values attached to a sample: everything in a
/// point that is *not* derived from the event stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SeriesGauges {
    /// Documents resident in the cache.
    pub docs: u64,
    /// Bytes used.
    pub used_bytes: u64,
    /// Configured capacity in bytes.
    pub capacity_bytes: u64,
    /// Live cache expiration age (paper eq. 5), `None` while infinite.
    pub expiration_age_ms: Option<u64>,
    /// Peers currently quarantined by this node.
    pub quarantined: u64,
}

/// One periodic sample of a node's live state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesPoint {
    /// Sample time in milliseconds (virtual under the DES and replay,
    /// clock-relative on a live daemon).
    pub t_ms: u64,
    /// Cumulative per-kind event counts, [`EVENT_KINDS`] order.
    pub counters: [u64; EVENT_KINDS.len()],
    /// Cumulative requests served from this node's own cache — with
    /// [`Self::remote_hits`], the hit split behind the alert plane's
    /// hit-rate metric (the counters array only carries totals).
    pub local_hits: u64,
    /// Cumulative requests served by a peer in the group.
    pub remote_hits: u64,
    /// Cumulative request-latency snapshot, `None` before any request.
    pub latency: Option<HistogramSnapshot>,
    /// Documents resident at sample time.
    pub docs: u64,
    /// Bytes used at sample time.
    pub used_bytes: u64,
    /// Configured capacity in bytes.
    pub capacity_bytes: u64,
    /// Live expiration age, `None` while infinite.
    pub expiration_age_ms: Option<u64>,
    /// Quarantined peer count at sample time.
    pub quarantined: u64,
}

impl SeriesPoint {
    fn zero(t_ms: u64) -> Self {
        Self {
            t_ms,
            counters: [0; EVENT_KINDS.len()],
            local_hits: 0,
            remote_hits: 0,
            latency: None,
            docs: 0,
            used_bytes: 0,
            capacity_bytes: 0,
            expiration_age_ms: None,
            quarantined: 0,
        }
    }

    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("t_ms");
        w.u64(self.t_ms);
        w.key("counters");
        w.begin_object();
        for kind in EVENT_KINDS {
            w.key(kind.name());
            w.u64(self.counters[kind.index()]);
        }
        w.end_object();
        w.key("hits");
        w.begin_object();
        w.key("local");
        w.u64(self.local_hits);
        w.key("remote");
        w.u64(self.remote_hits);
        w.end_object();
        w.key("latency");
        match &self.latency {
            Some(snapshot) => snapshot.write_json_us(w),
            None => w.null(),
        }
        w.key("occupancy");
        w.begin_object();
        w.key("docs");
        w.u64(self.docs);
        w.key("used_bytes");
        w.u64(self.used_bytes);
        w.key("capacity_bytes");
        w.u64(self.capacity_bytes);
        w.end_object();
        w.key("expiration_age_ms");
        w.opt_u64(self.expiration_age_ms);
        w.key("quarantined");
        w.u64(self.quarantined);
        w.end_object();
    }

    fn from_json(value: &JsonValue) -> Option<Self> {
        let counters_obj = value.get("counters")?;
        let mut counters = [0u64; EVENT_KINDS.len()];
        for kind in EVENT_KINDS {
            counters[kind.index()] = counters_obj.get(kind.name())?.as_u64()?;
        }
        let hits = value.get("hits")?;
        let latency = match value.get("latency")? {
            JsonValue::Null => None,
            v => Some(HistogramSnapshot::from_json_us(v)?),
        };
        let occupancy = value.get("occupancy")?;
        let expiration_age_ms = match value.get("expiration_age_ms")? {
            JsonValue::Null => None,
            v => Some(v.as_u64()?),
        };
        Some(Self {
            t_ms: value.get("t_ms")?.as_u64()?,
            counters,
            local_hits: hits.get("local")?.as_u64()?,
            remote_hits: hits.get("remote")?.as_u64()?,
            latency,
            docs: occupancy.get("docs")?.as_u64()?,
            used_bytes: occupancy.get("used_bytes")?.as_u64()?,
            capacity_bytes: occupancy.get("capacity_bytes")?.as_u64()?,
            expiration_age_ms,
            quarantined: value.get("quarantined")?.as_u64()?,
        })
    }
}

/// A bounded ring of [`SeriesPoint`]s for one node; pushing past
/// capacity drops the oldest point.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesRing {
    cache: CacheId,
    interval_ms: u64,
    capacity: usize,
    points: Vec<SeriesPoint>,
}

impl SeriesRing {
    /// Creates an empty ring. The interval is clamped to at least 1 ms
    /// and the capacity to `1..=4096`.
    #[must_use]
    pub fn new(cache: CacheId, interval_ms: u64, capacity: usize) -> Self {
        Self {
            cache,
            interval_ms: interval_ms.max(1),
            capacity: capacity.clamp(1, MAX_SERIES_CAPACITY),
            points: Vec::new(),
        }
    }

    /// The node this series belongs to.
    #[must_use]
    pub const fn cache(&self) -> CacheId {
        self.cache
    }

    /// The sampling interval in milliseconds.
    #[must_use]
    pub const fn interval_ms(&self) -> u64 {
        self.interval_ms
    }

    /// Maximum number of retained points.
    #[must_use]
    pub const fn capacity(&self) -> usize {
        self.capacity
    }

    /// The retained points, oldest first.
    #[must_use]
    pub fn points(&self) -> &[SeriesPoint] {
        &self.points
    }

    /// Number of retained points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no point has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Appends a point, evicting the oldest once at capacity.
    pub fn push(&mut self, point: SeriesPoint) {
        if self.points.len() >= self.capacity {
            self.points.remove(0);
        }
        self.points.push(point);
    }

    /// Encodes the ring as one deterministic JSON document — the
    /// `OP_SERIES` response body.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_json(&mut w);
        w.finish()
    }

    /// Writes the [`Self::to_json`] document into `w`, so a caller can
    /// embed the ring as one value of a larger document.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("cache");
        w.u64(u64::from(self.cache.as_u16()));
        w.key("interval_ms");
        w.u64(self.interval_ms);
        w.key("capacity");
        w.u64(self.capacity as u64);
        w.key("points");
        w.begin_array();
        for point in &self.points {
            point.write_json(w);
        }
        w.end_array();
        w.end_object();
    }

    /// Decodes a document written by [`Self::to_json`]. Structural
    /// problems (missing or mistyped fields) are reported as parse
    /// errors; excess points beyond the declared capacity keep only the
    /// newest.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonParseError`] for malformed JSON or a well-formed
    /// document that is not a series body.
    pub fn from_json(text: &str) -> Result<Self, JsonParseError> {
        const MALFORMED: JsonParseError = JsonParseError {
            offset: 0,
            what: "malformed series body",
        };
        let value = parse_json(text)?;
        let decode = || -> Option<SeriesRing> {
            let cache = u16::try_from(value.get("cache")?.as_u64()?).ok()?;
            let mut ring = SeriesRing::new(
                CacheId::new(cache),
                value.get("interval_ms")?.as_u64()?,
                usize::try_from(value.get("capacity")?.as_u64()?).ok()?,
            );
            for raw in value.get("points")?.as_array()? {
                ring.push(SeriesPoint::from_json(raw)?);
            }
            Some(ring)
        };
        decode().ok_or(MALFORMED)
    }
}

/// Rebuilds per-node series offline from a JSONL event stream: a JSONL
/// front end over a [`HealthFold`](crate::HealthFold).
///
/// The replay clock is driven by span timestamps (`end_us`), the only
/// absolute times an event stream carries; a stream without spans never
/// crosses a boundary. Every node advances in lockstep whenever the
/// clock moves and a node first seen late is backfilled, so rings from
/// one file always align on `t_ms`. Gauges are not reconstructable from
/// events and stay zero. Replaying the same bytes always yields the same
/// rings.
#[derive(Debug)]
pub struct SeriesReplayer {
    fold: HealthFold,
}

impl SeriesReplayer {
    /// Creates a replayer sampling every `interval_ms` (clamped ≥ 1).
    #[must_use]
    pub fn new(interval_ms: u64, capacity: usize) -> Self {
        Self {
            fold: HealthFold::new(HealthConfig {
                interval_ms,
                capacity,
                rules: Vec::new(),
                rollup: None,
            }),
        }
    }

    /// The replay clock: the latest span end seen, in milliseconds (0
    /// before any span).
    #[must_use]
    pub const fn clock_ms(&self) -> u64 {
        self.fold.now_ms()
    }

    /// Folds one JSONL event line in.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonParseError`] for lines that do not parse or are
    /// not tagged with a known `"ev"` kind.
    pub fn observe_json_line(&mut self, line: &str) -> Result<(), JsonParseError> {
        let value = parse_json(line)?;
        let kind = value
            .get("ev")
            .and_then(JsonValue::as_str)
            .and_then(EventKind::from_name)
            .ok_or(JsonParseError {
                offset: 0,
                what: "not a coopcache event line",
            })?;
        let end_us = value.get("end_us").and_then(JsonValue::as_u64);
        if let (EventKind::Span, Some(end_us)) = (kind, end_us) {
            let _ = self
                .fold
                .advance(end_us / 1_000, |_| SeriesGauges::default());
        }
        let cache = ["cache", "from"]
            .iter()
            .find_map(|k| value.get(k).and_then(JsonValue::as_u64))
            .and_then(|c| u16::try_from(c).ok());
        // Group-wide events carry no node to bill.
        if let Some(cache) = cache {
            self.fold.observe_line(kind, CacheId::new(cache), &value);
        }
        Ok(())
    }

    /// Folds every line of a JSONL document in, skipping blanks and
    /// stopping at the first malformed line.
    ///
    /// # Errors
    ///
    /// Propagates the first [`JsonParseError`].
    pub fn observe_jsonl(&mut self, text: &str) -> Result<(), JsonParseError> {
        for line in text.lines() {
            if !line.trim().is_empty() {
                self.observe_json_line(line)?;
            }
        }
        Ok(())
    }

    /// Finishes the replay, returning one ring per node, ascending by
    /// cache id.
    #[must_use]
    pub fn finish(self) -> Vec<SeriesRing> {
        self.fold.finish().rings
    }
}

/// Sums per-node rings into one group-wide point list, one point per
/// sampling interval. Each node stamps its own samples (a live daemon
/// with its own sampler thread, a few ms apart from its peers), so
/// points are bucketed by `t_ms / interval_ms` over the widest ring
/// interval, keeping each ring's latest point per bucket; the group
/// point carries the bucket's start time. Counters, occupancy and
/// quarantine counts add; the expiration age becomes the mean of the
/// finite per-node ages; latency snapshots do not merge (quantiles are
/// not additive) so the aggregate carries `None`.
#[must_use]
pub fn aggregate_points(rings: &[SeriesRing]) -> Vec<SeriesPoint> {
    let interval_ms = rings.iter().map(SeriesRing::interval_ms).max().unwrap_or(1);
    let mut by_bucket: BTreeMap<u64, (SeriesPoint, u64, u64)> = BTreeMap::new();
    for ring in rings {
        let mut latest: BTreeMap<u64, &SeriesPoint> = BTreeMap::new();
        for p in ring.points() {
            latest.insert(p.t_ms / interval_ms, p);
        }
        for (bucket, p) in latest {
            let (acc, finite, age_sum) = by_bucket
                .entry(bucket)
                .or_insert_with(|| (SeriesPoint::zero(bucket * interval_ms), 0, 0));
            for (slot, add) in acc.counters.iter_mut().zip(p.counters.iter()) {
                *slot = slot.saturating_add(*add);
            }
            acc.local_hits = acc.local_hits.saturating_add(p.local_hits);
            acc.remote_hits = acc.remote_hits.saturating_add(p.remote_hits);
            acc.docs = acc.docs.saturating_add(p.docs);
            acc.used_bytes = acc.used_bytes.saturating_add(p.used_bytes);
            acc.capacity_bytes = acc.capacity_bytes.saturating_add(p.capacity_bytes);
            acc.quarantined = acc.quarantined.saturating_add(p.quarantined);
            if let Some(age) = p.expiration_age_ms {
                *finite += 1;
                *age_sum = age_sum.saturating_add(age);
            }
        }
    }
    by_bucket
        .into_values()
        .map(|(mut p, finite, age_sum)| {
            if let Some(mean) = age_sum.checked_div(finite) {
                p.expiration_age_ms = Some(mean);
            }
            p
        })
        .collect()
}

/// Events-per-second over the window ending at `cur`: the cumulative
/// counter delta against `prev` over the time between the two points. A
/// first point counts from zero over one `interval_ms`. On-demand
/// samples land at any spacing, so the window is measured, not assumed.
fn rate(cur: &SeriesPoint, prev: Option<&SeriesPoint>, kind: EventKind, interval_ms: u64) -> f64 {
    let (before, window_ms) = prev.map_or((0, interval_ms), |p| {
        (p.counters[kind.index()], cur.t_ms.saturating_sub(p.t_ms))
    });
    let delta = cur.counters[kind.index()].saturating_sub(before);
    delta as f64 * 1_000.0 / window_ms.max(1) as f64
}

fn push_cells(out: &mut String, label: &str, cells: &[String]) {
    let _ = write!(out, "{label:<6}");
    for cell in cells {
        let _ = write!(out, "  {cell:>8}");
    }
    out.push('\n');
}

fn row_cells(points: &[SeriesPoint], interval_ms: u64, with_gauges: bool) -> Vec<String> {
    let Some(cur) = points.last() else {
        let n = if with_gauges { 11 } else { 6 };
        return vec!["-".to_owned(); n];
    };
    let prev = points.len().checked_sub(2).and_then(|i| points.get(i));
    let mut cells = vec![
        format!("{:.1}", rate(cur, prev, EventKind::Request, interval_ms)),
        format!("{:.1}", rate(cur, prev, EventKind::IcpQuery, interval_ms)),
        format!("{:.1}", rate(cur, prev, EventKind::Placement, interval_ms)),
        format!("{:.1}", rate(cur, prev, EventKind::Eviction, interval_ms)),
        format!("{:.1}", rate(cur, prev, EventKind::PeerFault, interval_ms)),
        cur.latency
            .map_or_else(|| "-".to_owned(), |l| (l.p50 / 1_000).to_string()),
    ];
    if with_gauges {
        cells.push(cur.docs.to_string());
        cells.push((cur.used_bytes / 1_024).to_string());
        cells.push((cur.capacity_bytes / 1_024).to_string());
        cells.push(
            cur.expiration_age_ms
                .map_or_else(|| "-".to_owned(), |a| a.to_string()),
        );
        cells.push(cur.quarantined.to_string());
    }
    cells
}

/// How many trailing aggregate points the history section shows.
const HISTORY_POINTS: usize = 12;

/// Renders the `coopcache status` dashboard: one row per node (latest
/// sample; rates over the last interval) plus a `group` row, then a
/// short group-wide history. A pure function of the rings — identical
/// input renders byte-identical output. `with_gauges` adds the
/// occupancy/age/quarantine columns, which replayed series cannot
/// reconstruct and therefore omit.
#[must_use]
pub fn render_top(rings: &[SeriesRing], with_gauges: bool) -> String {
    let mut out = String::new();
    let interval_ms = rings.iter().map(SeriesRing::interval_ms).max().unwrap_or(1);
    let samples: usize = rings.iter().map(SeriesRing::len).sum();
    let _ = writeln!(
        out,
        "series: {} node(s), interval {} ms, {} sample(s)",
        rings.len(),
        interval_ms,
        samples
    );
    let mut headers = vec!["req/s", "icp/s", "plc/s", "evt/s", "flt/s", "p50_ms"];
    if with_gauges {
        headers.extend(["docs", "used_kb", "cap_kb", "ea_ms", "quar"]);
    }
    push_cells(
        &mut out,
        "cache",
        &headers.iter().map(|h| (*h).to_owned()).collect::<Vec<_>>(),
    );
    for ring in rings {
        push_cells(
            &mut out,
            &ring.cache().as_u16().to_string(),
            &row_cells(ring.points(), ring.interval_ms(), with_gauges),
        );
    }
    let group = aggregate_points(rings);
    push_cells(
        &mut out,
        "group",
        &row_cells(&group, interval_ms, with_gauges),
    );
    if group.len() > 1 {
        let _ = writeln!(out, "\ngroup history (req/s, evt/s per window):");
        let start = group.len().saturating_sub(HISTORY_POINTS);
        for (i, point) in group.iter().enumerate().skip(start) {
            let prev = i.checked_sub(1).and_then(|j| group.get(j));
            let _ = writeln!(
                out,
                "{:>8}  {:>8.1}  {:>8.1}",
                point.t_ms,
                rate(point, prev, EventKind::Request, interval_ms),
                rate(point, prev, EventKind::Eviction, interval_ms),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, RequestClass};
    use coopcache_types::DocId;

    fn request_event(cache: u16, latency_us: Option<u64>) -> Event {
        Event::Request {
            seq: 0,
            cache: CacheId::new(cache),
            doc: DocId::new(1),
            class: RequestClass::LocalHit,
            responder: None,
            stored: false,
            latency_us,
        }
    }

    #[test]
    fn ring_evicts_oldest_at_capacity() {
        let mut ring = SeriesRing::new(CacheId::new(0), 100, 3);
        for t in 1..=5u64 {
            ring.push(SeriesPoint::zero(t * 100));
        }
        assert_eq!(ring.len(), 3);
        let times: Vec<u64> = ring.points().iter().map(|p| p.t_ms).collect();
        assert_eq!(times, vec![300, 400, 500]);
    }

    /// A fold over the one node `cache`, sampled every `interval_ms`.
    fn one_node(cache: u16, interval_ms: u64, capacity: usize) -> HealthFold {
        let mut fold = HealthFold::new(HealthConfig {
            interval_ms,
            capacity,
            rules: vec![],
            rollup: None,
        });
        fold.add_node(CacheId::new(cache));
        fold
    }

    #[test]
    fn ring_json_roundtrip_is_byte_stable() {
        let mut fold = one_node(2, 250, 8);
        fold.observe(&request_event(2, Some(1_500)));
        fold.observe(&Event::Eviction {
            cache: CacheId::new(2),
            doc: DocId::new(1),
            age_ms: 40,
            cause: crate::event::EvictionCause::Capacity,
        });
        let _ = fold.advance(500, |_| SeriesGauges {
            docs: 3,
            used_bytes: 9_216,
            capacity_bytes: 131_072,
            expiration_age_ms: Some(42),
            quarantined: 1,
        });
        let ring = fold.finish().rings.remove(0);
        assert_eq!(ring.len(), 2);
        let json = ring.to_json();
        assert!(json.starts_with(r#"{"cache":2,"interval_ms":250,"capacity":8,"points":["#));
        let back = SeriesRing::from_json(&json).expect("roundtrip");
        assert_eq!(back, ring);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(SeriesRing::from_json("{not json").is_err());
        assert!(SeriesRing::from_json(r#"{"cache":0}"#).is_err());
        assert!(SeriesRing::from_json(
            r#"{"cache":"zero","interval_ms":1,"capacity":1,"points":[]}"#
        )
        .is_err());
    }

    #[test]
    fn recorder_emits_one_point_per_boundary() {
        let mut fold = one_node(0, 100, 16);
        fold.observe(&request_event(0, None));
        assert_eq!(fold.advance(350, |_| SeriesGauges::default()), []);
        // No boundary crossed → no new point.
        let _ = fold.advance(399, |_| SeriesGauges::default());
        let ring = fold.finish().rings.remove(0);
        let times: Vec<u64> = ring.points().iter().map(|p| p.t_ms).collect();
        assert_eq!(times, vec![100, 200, 300]);
        // Counters are cumulative: every emitted point sees the count.
        assert!(ring
            .points()
            .iter()
            .all(|p| p.counters[EventKind::Request.index()] == 1));
    }

    #[test]
    fn replayer_builds_aligned_rings_from_jsonl() {
        use crate::span::{Span, SpanKind};
        let span = |cache: u16, end_us: u64| {
            Event::Span(Span {
                trace_id: 1,
                span_id: u64::from(cache) + 1,
                parent: None,
                cache: CacheId::new(cache),
                kind: SpanKind::Request,
                doc: None,
                peer: None,
                start_us: 0,
                end_us,
                status: "miss",
            })
        };
        let lines = [
            request_event(0, Some(2_000)).to_json(),
            span(0, 150_000).to_json(),
            request_event(1, None).to_json(),
            span(1, 410_000).to_json(),
        ];
        let text = lines.join("\n");
        let replay = |txt: &str| {
            let mut r = SeriesReplayer::new(100, 32);
            r.observe_jsonl(txt).expect("well-formed");
            r.finish()
        };
        let rings = replay(&text);
        assert_eq!(rings.len(), 2);
        assert_eq!(rings[0].cache(), CacheId::new(0));
        assert_eq!(rings[1].cache(), CacheId::new(1));
        // Clock reached 410 ms → both rings sample boundaries 100..=400.
        assert_eq!(rings[0].len(), 4);
        assert_eq!(rings[1].len(), 4);
        // Cache 0 saw its request before t=100; cache 1's request+span
        // arrive after the 100 ms boundary backfill.
        assert_eq!(rings[0].points()[0].counters[EventKind::Request.index()], 1);
        // Same bytes → byte-identical rings.
        let again = replay(&text);
        let json = |rs: &[SeriesRing]| rs.iter().map(SeriesRing::to_json).collect::<Vec<_>>();
        assert_eq!(json(&rings), json(&again));
        // Malformed lines are typed errors, never panics.
        let mut bad = SeriesReplayer::new(100, 32);
        assert!(bad.observe_json_line("{oops").is_err());
        assert!(bad.observe_json_line(r#"{"ev":"martian"}"#).is_err());
    }

    #[test]
    fn aggregate_sums_counters_and_averages_ages() {
        let mut a = SeriesRing::new(CacheId::new(0), 100, 4);
        let mut b = SeriesRing::new(CacheId::new(1), 100, 4);
        let mut pa = SeriesPoint::zero(100);
        pa.counters[EventKind::Request.index()] = 4;
        pa.docs = 2;
        pa.expiration_age_ms = Some(100);
        let mut pb = SeriesPoint::zero(100);
        pb.counters[EventKind::Request.index()] = 6;
        pb.docs = 3;
        pb.expiration_age_ms = Some(300);
        a.push(pa);
        b.push(pb);
        let group = aggregate_points(&[a, b]);
        assert_eq!(group.len(), 1);
        assert_eq!(group[0].counters[EventKind::Request.index()], 10);
        assert_eq!(group[0].docs, 5);
        assert_eq!(group[0].expiration_age_ms, Some(200));
        assert_eq!(group[0].latency, None);
    }

    #[test]
    fn aggregate_aligns_nodes_sampled_a_few_ms_apart() {
        // Two live daemons, each stamping samples with its own sampler
        // thread's wake-up time: the same intervals, 3-7 ms apart.
        let ring = |cache: u16, stamps: &[(u64, u64)]| {
            let mut ring = SeriesRing::new(CacheId::new(cache), 1_000, 8);
            for &(t_ms, requests) in stamps {
                let mut p = SeriesPoint::zero(t_ms);
                p.counters[EventKind::Request.index()] = requests;
                ring.push(p);
            }
            ring
        };
        let rings = [
            ring(0, &[(1_003, 10), (2_004, 30)]),
            ring(1, &[(1_007, 20), (2_010, 60)]),
        ];
        let group = aggregate_points(&rings);
        let requests = |p: &SeriesPoint| p.counters[EventKind::Request.index()];
        assert_eq!(group.len(), 2, "one group point per interval");
        assert_eq!(
            group
                .iter()
                .map(|p| (p.t_ms, requests(p)))
                .collect::<Vec<_>>(),
            vec![(1_000, 30), (2_000, 90)]
        );
        // The group row's rate is over both nodes: (90 − 30) per second.
        let top = render_top(&rings, false);
        let group_row = top.lines().find(|l| l.starts_with("group")).unwrap();
        assert!(group_row.contains("60.0"), "{top}");
    }

    #[test]
    fn rates_use_the_measured_gap_between_points() {
        // On-demand samples land at any spacing: 5 requests over 250 ms
        // is 20/s on a ring whose nominal interval is 1 s.
        let mut ring = SeriesRing::new(CacheId::new(0), 1_000, 4);
        for (t_ms, requests) in [(1_000, 10), (1_250, 15)] {
            let mut p = SeriesPoint::zero(t_ms);
            p.counters[EventKind::Request.index()] = requests;
            ring.push(p);
        }
        let top = render_top(&[ring], false);
        let row = top.lines().find(|l| l.starts_with("0 ")).unwrap();
        assert!(row.contains(" 20.0 "), "{top}");
    }

    #[test]
    fn render_top_is_deterministic_and_labels_rows() {
        let mut fold = one_node(0, 100, 8);
        fold.observe(&request_event(0, Some(3_000)));
        let _ = fold.advance(200, |_| SeriesGauges::default());
        let rings = fold.finish().rings;
        let a = render_top(&rings, true);
        let b = render_top(&rings, true);
        assert_eq!(a, b);
        assert!(a.contains("cache"), "{a}");
        assert!(a.contains("group"), "{a}");
        assert!(a.contains("req/s"), "{a}");
        // Gauge columns only when asked for.
        let lean = render_top(&rings, false);
        assert!(!lean.contains("used_kb"), "{lean}");
        // Empty rings render placeholder rows, never panic.
        let empty = render_top(&[SeriesRing::new(CacheId::new(7), 50, 4)], true);
        assert!(empty.contains('7'), "{empty}");
    }
}
