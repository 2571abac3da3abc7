//! Opt-in hot-path profiling for the cache's mutating operations.
//!
//! The `profile` cargo feature compiles per-operation wall-time
//! accounting into [`Cache::lookup`](crate::Cache::lookup),
//! `serve_remote`, `insert` and the internal eviction path, surfaced
//! through [`Cache::profile`](crate::Cache::profile) and the daemons'
//! `OP_STATS` body. With the feature off (the default) [`Timer`] is a
//! zero-sized value and every recording call compiles away, so the
//! deterministic simulators and the benchmarks pay nothing — the same
//! contract as the `paranoid` invariant audits.
//!
//! Readings never feed events, placement decisions, or any
//! deterministic output; they exist to give rewrites of the cache hot
//! paths a before/after baseline.

/// The profiled operation classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileOp {
    /// [`Cache::lookup`](crate::Cache::lookup) — local client serve.
    Lookup,
    /// [`Cache::serve_remote`](crate::Cache::serve_remote) — responder
    /// side of a peer fetch.
    ServeRemote,
    /// [`Cache::insert`](crate::Cache::insert) — store including any
    /// capacity evictions it triggers.
    Insert,
    /// The internal eviction of one victim (also counted inside its
    /// triggering `insert`/`remove`).
    Evict,
}

impl ProfileOp {
    /// All ops, in the order reports list them.
    pub const ALL: [ProfileOp; 4] = [
        ProfileOp::Lookup,
        ProfileOp::ServeRemote,
        ProfileOp::Insert,
        ProfileOp::Evict,
    ];

    /// Stable lowercase name used in the JSON encoding.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Self::Lookup => "lookup",
            Self::ServeRemote => "serve_remote",
            Self::Insert => "insert",
            Self::Evict => "evict",
        }
    }
}

/// Accumulated cost of one operation class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpProfile {
    /// Number of calls.
    pub calls: u64,
    /// Total wall time across calls, in nanoseconds.
    pub total_ns: u64,
}

impl OpProfile {
    /// Mean nanoseconds per call, 0 before the first call.
    #[must_use]
    pub const fn mean_ns(&self) -> u64 {
        match self.total_ns.checked_div(self.calls) {
            Some(mean) => mean,
            None => 0,
        }
    }
}

/// Per-operation profile of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProfileSnapshot {
    /// Local lookups.
    pub lookup: OpProfile,
    /// Responder-side serves.
    pub serve_remote: OpProfile,
    /// Stores (inclusive of triggered evictions).
    pub insert: OpProfile,
    /// Individual evictions.
    pub evict: OpProfile,
    /// Backing-vector growth events across the cache's arenas, tables,
    /// heaps and ghost queues at snapshot time. Zero once the store
    /// reaches steady state — the `store_scale` test asserts the hot
    /// path stopped allocating by watching this stay flat.
    pub growth_events: u64,
}

impl ProfileSnapshot {
    /// The accumulator for `op`.
    #[must_use]
    pub const fn op(&self, op: ProfileOp) -> OpProfile {
        match op {
            ProfileOp::Lookup => self.lookup,
            ProfileOp::ServeRemote => self.serve_remote,
            ProfileOp::Insert => self.insert,
            ProfileOp::Evict => self.evict,
        }
    }

    /// Folds another snapshot into this one (per-shard → cache-wide).
    pub fn merge(&mut self, other: &Self) {
        for (mine, theirs) in [
            (&mut self.lookup, &other.lookup),
            (&mut self.serve_remote, &other.serve_remote),
            (&mut self.insert, &other.insert),
            (&mut self.evict, &other.evict),
        ] {
            mine.calls = mine.calls.saturating_add(theirs.calls);
            mine.total_ns = mine.total_ns.saturating_add(theirs.total_ns);
        }
        self.growth_events = self.growth_events.saturating_add(other.growth_events);
    }

    /// Folds one timed call into the accumulator for `op`.
    pub fn record(&mut self, op: ProfileOp, elapsed_ns: u64) {
        let slot = match op {
            ProfileOp::Lookup => &mut self.lookup,
            ProfileOp::ServeRemote => &mut self.serve_remote,
            ProfileOp::Insert => &mut self.insert,
            ProfileOp::Evict => &mut self.evict,
        };
        slot.calls = slot.calls.saturating_add(1);
        slot.total_ns = slot.total_ns.saturating_add(elapsed_ns);
    }
}

/// A start-of-operation marker: a real monotonic reading under the
/// `profile` feature, a zero-sized no-op otherwise.
#[derive(Debug, Clone, Copy)]
pub struct Timer {
    #[cfg(feature = "profile")]
    start: std::time::Instant,
}

impl Timer {
    /// Marks the start of an operation.
    #[inline]
    #[must_use]
    pub fn start() -> Self {
        Self {
            #[cfg(feature = "profile")]
            // lint:allow(wall-clock) -- opt-in profiling accumulator only:
            // readings never reach events, placement decisions, or any
            // deterministic output, and the feature is off by default.
            start: std::time::Instant::now(),
        }
    }

    /// Nanoseconds since [`Self::start`]; always 0 with the feature off.
    #[inline]
    #[must_use]
    pub fn elapsed_ns(self) -> u64 {
        #[cfg(feature = "profile")]
        {
            u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
        }
        #[cfg(not(feature = "profile"))]
        {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_names_and_order() {
        let names: Vec<&str> = ProfileOp::ALL.iter().map(|op| op.name()).collect();
        assert_eq!(names, ["lookup", "serve_remote", "insert", "evict"]);
    }

    #[test]
    fn snapshot_accumulates_per_op() {
        let mut snap = ProfileSnapshot::default();
        snap.record(ProfileOp::Lookup, 100);
        snap.record(ProfileOp::Lookup, 300);
        snap.record(ProfileOp::Evict, 40);
        assert_eq!(snap.op(ProfileOp::Lookup).calls, 2);
        assert_eq!(snap.op(ProfileOp::Lookup).total_ns, 400);
        assert_eq!(snap.op(ProfileOp::Lookup).mean_ns(), 200);
        assert_eq!(snap.op(ProfileOp::Evict).calls, 1);
        assert_eq!(snap.op(ProfileOp::Insert), OpProfile::default());
        assert_eq!(OpProfile::default().mean_ns(), 0);
    }

    #[test]
    fn saturates_instead_of_overflowing() {
        let mut snap = ProfileSnapshot::default();
        snap.record(ProfileOp::Insert, u64::MAX);
        snap.record(ProfileOp::Insert, u64::MAX);
        assert_eq!(snap.op(ProfileOp::Insert).total_ns, u64::MAX);
        assert_eq!(snap.op(ProfileOp::Insert).calls, 2);
    }

    #[test]
    fn timer_is_monotone() {
        let timer = Timer::start();
        let a = timer.elapsed_ns();
        let b = timer.elapsed_ns();
        assert!(b >= a);
        #[cfg(not(feature = "profile"))]
        assert_eq!(b, 0, "disabled timer must read zero");
    }
}
