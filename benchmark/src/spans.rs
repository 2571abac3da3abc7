//! Benchmark-side span recording for traced runs.
//!
//! Spans are recorded from the benchmark's own files, around the public
//! calls into each layer; nothing inside the program is instrumented.
//! Each thread appends to its own [`Recorder`] (no sharing, no locks on
//! the measured path); the recorders are merged and written out once the
//! workload has ended.

use coopcache::obs::JsonWriter;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded span. `parent == 0` marks a root; ids are never 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRec {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span buffer. All recorders of one run share `epoch`, so
/// their timestamps are comparable.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    next_id: u64,
    pub spans: Vec<SpanRec>,
}

impl Recorder {
    /// A recorder for thread `thread` (ids carry the thread in their top
    /// bits so they stay unique after merging).
    pub fn new(epoch: Instant, thread: u16) -> Self {
        Self {
            epoch,
            next_id: (u64::from(thread) << 48) | 1,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the run's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Reserves a span id (needed before the span ends, so children can
    /// name it as their parent).
    pub fn next_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Records a completed span under a previously reserved id.
    pub fn push(&mut self, name: &'static str, id: u64, parent: u64, start_ns: u64, end_ns: u64) {
        self.spans.push(SpanRec {
            name,
            id,
            parent,
            start_ns,
            end_ns,
        });
    }

    /// Times `f` as a span named `name` under `parent`.
    pub fn span<R>(&mut self, name: &'static str, parent: u64, f: impl FnOnce() -> R) -> R {
        let id = self.next_id();
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.push(name, id, parent, start_ns, end_ns);
        out
    }
}

/// Aggregate of every span sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of self times: each span's duration minus the part of its
    /// interval that its child spans cover.
    pub self_ns: u64,
}

impl NameTotals {
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    pub fn mean_self_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64
        }
    }
}

/// Per-name totals with self time. A child's interval is clipped to its
/// parent's, and overlapping children (parallel work, e.g. three peers
/// handling one ICP round) are counted once: self time is what no child
/// covers.
pub fn totals_by_name(spans: &[SpanRec]) -> BTreeMap<&'static str, NameTotals> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |kids| covered_ns(kids, s.start_ns, s.end_ns));
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += s.duration_ns().saturating_sub(covered);
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Writes one JSON object per span, in the order given.
pub fn write_jsonl(path: &Path, spans: &[SpanRec]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("name");
        w.string(s.name);
        w.key("id");
        w.u64(s.id);
        w.key("parent");
        if s.parent == 0 {
            w.null();
        } else {
            w.u64(s.parent);
        }
        w.key("start_ns");
        w.u64(s.start_ns);
        w.key("end_ns");
        w.u64(s.end_ns);
        w.end_object();
        out.write_all(w.finish().as_bytes())?;
        out.write_all(b"\n")?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, parent: u64, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            name,
            id,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn nested_spans_subtract_only_their_direct_children() {
        // root [0,100] > mid [10,60] > leaf [20,30]
        let spans = [
            span("root", 1, 0, 0, 100),
            span("mid", 2, 1, 10, 60),
            span("leaf", 3, 2, 20, 30),
        ];
        let t = totals_by_name(&spans);
        assert_eq!(t["root"].self_ns, 50, "100 minus mid's 50");
        assert_eq!(t["mid"].self_ns, 40, "50 minus leaf's 10");
        assert_eq!(t["leaf"].self_ns, 10);
        assert_eq!(t["root"].total_ns, 100);
        // Self times of a tree add up to the root's duration.
        let sum: u64 = t.values().map(|n| n.self_ns).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn sibling_spans_add_up_and_overlap_counts_once() {
        // Disjoint siblings [10,20] and [30,50] cover 30.
        let disjoint = [
            span("root", 1, 0, 0, 100),
            span("kid", 2, 1, 10, 20),
            span("kid", 3, 1, 30, 50),
        ];
        let t = totals_by_name(&disjoint);
        assert_eq!(t["root"].self_ns, 70);
        assert_eq!(t["kid"].count, 2);
        assert_eq!(t["kid"].total_ns, 30);
        // Overlapping siblings [10,40] and [30,50] cover 40, not 50; a
        // child running past its parent is clipped at the parent's end.
        let overlapping = [
            span("root", 1, 0, 0, 100),
            span("kid", 2, 1, 10, 40),
            span("kid", 3, 1, 30, 50),
            span("kid", 4, 1, 90, 130),
        ];
        let t = totals_by_name(&overlapping);
        assert_eq!(t["root"].self_ns, 100 - 40 - 10);
    }

    #[test]
    fn recorder_ids_are_unique_across_threads() {
        let epoch = Instant::now();
        let mut a = Recorder::new(epoch, 0);
        let mut b = Recorder::new(epoch, 1);
        let parent = a.next_id();
        let got = a.span("work", parent, || 7);
        assert_eq!(got, 7);
        b.span("work", 0, || ());
        assert_ne!(a.spans[0].id, b.spans[0].id);
        assert_eq!(a.spans[0].parent, parent);
        assert!(a.spans[0].end_ns >= a.spans[0].start_ns);
    }
}
