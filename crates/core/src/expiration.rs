//! Cache expiration-age accounting (paper §3.1–§3.3).
//!
//! The expiration age of a cache over a finite period is the mean of the
//! document expiration ages of everything evicted in that period (eq. 5).
//! The paper leaves the period open ("a finite time duration"); the tracker
//! supports both natural readings — the last `N` evictions or the last
//! `Δt` of simulated time — and the window choice is swept by the ABL-W
//! experiment.

use crate::entry::EvictionRecord;
use crate::policy::ExpirationFlavor;
use coopcache_types::{DurationMs, ExpirationAge, Timestamp};
use std::collections::VecDeque;

/// The finite period over which eq. 5 averages document expiration ages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExpirationWindow {
    /// Average over the most recent `n` evictions (`n ≥ 1`).
    LastEvictions(usize),
    /// Average over evictions that happened within the trailing duration.
    ///
    /// The window advances **when evictions are recorded**: a cache that
    /// stops evicting keeps reporting the age computed at its last
    /// eviction rather than draining to `Infinite`. This matches the
    /// eviction-count window's behaviour (the value always reflects the
    /// most recent contention actually observed) and keeps
    /// [`ExpirationTracker::cache_expiration_age`] callable without a
    /// clock; callers that want idle caches to decay to "no contention"
    /// should prefer [`ExpirationWindow::LastEvictions`].
    LastDuration(DurationMs),
}

impl Default for ExpirationWindow {
    /// 256 evictions: long enough to smooth single outliers, short enough
    /// to track contention shifts within a trace day.
    fn default() -> Self {
        Self::LastEvictions(256)
    }
}

impl std::fmt::Display for ExpirationWindow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::LastEvictions(n) => write!(f, "last-{n}-evictions"),
            Self::LastDuration(d) => write!(f, "last-{d}"),
        }
    }
}

/// Tracks the expiration age of one cache.
///
/// Feed it every [`EvictionRecord`] the cache produces; read the current
/// windowed age with [`ExpirationTracker::cache_expiration_age`] (this is
/// the value piggybacked on inter-proxy messages) and whole-run statistics
/// with [`ExpirationTracker::lifetime_average`] (this is what the paper's
/// Table 1 reports).
///
/// # Example
///
/// ```
/// use coopcache_core::{ExpirationFlavor, ExpirationTracker, ExpirationWindow};
/// use coopcache_types::ExpirationAge;
///
/// let tracker = ExpirationTracker::new(
///     ExpirationFlavor::Lru,
///     ExpirationWindow::LastEvictions(100),
/// );
/// // No evictions yet: no contention observed, age is infinite.
/// assert_eq!(tracker.cache_expiration_age(), ExpirationAge::Infinite);
/// ```
#[derive(Debug, Clone)]
pub struct ExpirationTracker {
    flavor: ExpirationFlavor,
    window: ExpirationWindow,
    /// (evicted_at, doc expiration age) for evictions inside the window.
    recent: VecDeque<(Timestamp, DurationMs)>,
    recent_sum_ms: u128,
    lifetime_sum_ms: u128,
    lifetime_count: u64,
}

impl ExpirationTracker {
    /// Creates a tracker with the given expiration-age formula and window.
    #[must_use]
    pub fn new(flavor: ExpirationFlavor, window: ExpirationWindow) -> Self {
        if let ExpirationWindow::LastEvictions(n) = window {
            assert!(n >= 1, "eviction window must hold at least one record");
        }
        Self {
            flavor,
            window,
            recent: VecDeque::new(),
            recent_sum_ms: 0,
            lifetime_sum_ms: 0,
            lifetime_count: 0,
        }
    }

    /// The expiration-age formula in use.
    #[must_use]
    pub fn flavor(&self) -> ExpirationFlavor {
        self.flavor
    }

    /// The configured window.
    #[must_use]
    pub fn window(&self) -> ExpirationWindow {
        self.window
    }

    /// Records an eviction, computing the document expiration age with the
    /// configured formula (paper eq. 1).
    pub fn record_eviction(&mut self, record: &EvictionRecord) {
        let age = match self.flavor {
            ExpirationFlavor::Lru => record.entry.lru_expiration_age(record.evicted_at),
            ExpirationFlavor::Lfu => record.entry.lfu_expiration_age(record.evicted_at),
        };
        self.record_age(record.evicted_at, age);
    }

    /// Records a directly observed expiration-age sample that did not come
    /// from an eviction record.
    ///
    /// The S3-FIFO policy's ghost queue produces these: when a document is
    /// re-admitted after a ghost hit, the gap between its eviction and its
    /// return is an *observed* inter-reference gap — exactly the quantity
    /// eq. 5 estimates from bookkeeping timestamps for the other policies —
    /// so the gap is fed to the same windowed average.
    pub fn record_age(&mut self, at: Timestamp, age: DurationMs) {
        self.lifetime_sum_ms += u128::from(age.as_millis());
        self.lifetime_count += 1;
        self.recent.push_back((at, age));
        self.recent_sum_ms += u128::from(age.as_millis());
        if let ExpirationWindow::LastEvictions(n) = self.window {
            while self.recent.len() > n {
                let Some((_, old)) = self.recent.pop_front() else {
                    break;
                };
                self.recent_sum_ms -= u128::from(old.as_millis());
            }
        }
        if let ExpirationWindow::LastDuration(d) = self.window {
            self.expire_older_than(at, d);
        }
    }

    fn expire_older_than(&mut self, now: Timestamp, horizon: DurationMs) {
        let cutoff = now.as_millis().saturating_sub(horizon.as_millis());
        while let Some(&(t, age)) = self.recent.front() {
            if t.as_millis() >= cutoff {
                break;
            }
            self.recent.pop_front();
            self.recent_sum_ms -= u128::from(age.as_millis());
        }
    }

    /// The cache expiration age over the configured window (paper eq. 5):
    /// the value a proxy piggybacks on its requests and responses.
    ///
    /// Returns [`ExpirationAge::Infinite`] while no eviction has ever been
    /// observed in the window — the cache has shown no disk contention.
    #[must_use]
    pub fn cache_expiration_age(&self) -> ExpirationAge {
        pooled_expiration_age([(self.recent_sum_ms, self.recent.len())])
    }

    /// Mean document expiration age over *all* evictions so far — the
    /// quantity averaged across caches in the paper's Table 1.
    ///
    /// Returns `None` when nothing has been evicted yet.
    #[must_use]
    pub fn lifetime_average(&self) -> Option<DurationMs> {
        if self.lifetime_count == 0 {
            None
        } else {
            Some(DurationMs::from_millis(
                (self.lifetime_sum_ms / u128::from(self.lifetime_count)) as u64,
            ))
        }
    }

    /// Total evictions observed over the tracker's lifetime.
    #[must_use]
    pub fn eviction_count(&self) -> u64 {
        self.lifetime_count
    }

    /// Number of evictions currently inside the window.
    #[must_use]
    pub fn window_len(&self) -> usize {
        self.recent.len()
    }

    /// Sum of the ages inside the window, in milliseconds.
    ///
    /// Exposed so a sharded cache can pool per-shard windows into one
    /// eq. 5 mean without flattening the per-shard deques.
    #[must_use]
    pub fn window_sum_ms(&self) -> u128 {
        self.recent_sum_ms
    }

    /// Verifies the tracker's windowed bookkeeping (used by the cache's
    /// paranoid audits):
    ///
    /// * the running window sum equals the sum of the recorded ages;
    /// * an eviction-count window never holds more than `n` records;
    /// * the window never holds more records than the lifetime count.
    #[must_use]
    pub fn window_is_consistent(&self) -> bool {
        let sum: u128 = self
            .recent
            .iter()
            .map(|&(_, age)| u128::from(age.as_millis()))
            .sum();
        if sum != self.recent_sum_ms {
            return false;
        }
        if let ExpirationWindow::LastEvictions(n) = self.window {
            if self.recent.len() > n {
                return false;
            }
        }
        self.recent.len() as u64 <= self.lifetime_count
    }
}

/// Paper eq. 5 over the union of `windows`, each given as (sum of its
/// ages in ms, number of ages): `Σ window sums / Σ window lengths`.
///
/// One window is a tracker's own age; a sharded cache passes one window
/// per shard. [`ExpirationAge::Infinite`] while every window is empty —
/// no eviction observed, so no disk contention shown.
///
/// A finite mean saturates at [`MAX_FINITE_AGE_MS`], so a sharded cache
/// can publish the age in one `u64` with `u64::MAX` reserved for
/// infinite; only a window of ages that are all `u64::MAX` ms (half a
/// billion years) would reach it.
pub(crate) fn pooled_expiration_age(
    windows: impl IntoIterator<Item = (u128, usize)>,
) -> ExpirationAge {
    let (sum, len) = windows
        .into_iter()
        .fold((0u128, 0usize), |(s, l), (ws, wl)| (s + ws, l + wl));
    if len == 0 {
        return ExpirationAge::Infinite;
    }
    let mean = (sum / len as u128).min(u128::from(MAX_FINITE_AGE_MS));
    ExpirationAge::finite(DurationMs::from_millis(mean as u64))
}

/// The largest finite eq. 5 age, one millisecond short of `u64::MAX`.
pub(crate) const MAX_FINITE_AGE_MS: u64 = u64::MAX - 1;

impl Default for ExpirationTracker {
    fn default() -> Self {
        Self::new(ExpirationFlavor::default(), ExpirationWindow::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{CacheEntry, EvictionReason};
    use coopcache_types::{ByteSize, DocId};

    fn evict(last_hit_ms: u64, evicted_ms: u64) -> EvictionRecord {
        let mut entry = CacheEntry::new(
            DocId::new(1),
            ByteSize::from_kb(1),
            Timestamp::from_millis(0),
        );
        if last_hit_ms > 0 {
            entry.record_hit(Timestamp::from_millis(last_hit_ms));
        }
        EvictionRecord {
            entry,
            evicted_at: Timestamp::from_millis(evicted_ms),
            reason: EvictionReason::CapacityPressure,
        }
    }

    #[test]
    fn empty_tracker_reports_infinite() {
        let t = ExpirationTracker::default();
        assert_eq!(t.cache_expiration_age(), ExpirationAge::Infinite);
        assert_eq!(t.lifetime_average(), None);
        assert_eq!(t.eviction_count(), 0);
    }

    #[test]
    fn mean_of_recorded_ages() {
        let mut t =
            ExpirationTracker::new(ExpirationFlavor::Lru, ExpirationWindow::LastEvictions(10));
        t.record_eviction(&evict(100, 300)); // age 200
        t.record_eviction(&evict(100, 500)); // age 400
        assert_eq!(
            t.cache_expiration_age(),
            ExpirationAge::finite(DurationMs::from_millis(300))
        );
        assert_eq!(t.lifetime_average(), Some(DurationMs::from_millis(300)));
        assert_eq!(t.eviction_count(), 2);
    }

    #[test]
    fn eviction_window_slides() {
        let mut t =
            ExpirationTracker::new(ExpirationFlavor::Lru, ExpirationWindow::LastEvictions(2));
        t.record_eviction(&evict(0, 1_000)); // age 1000
        t.record_eviction(&evict(0, 100)); // age 100
        t.record_eviction(&evict(0, 100)); // age 100 — pushes out the 1000
        assert_eq!(t.window_len(), 2);
        assert_eq!(
            t.cache_expiration_age(),
            ExpirationAge::finite(DurationMs::from_millis(100))
        );
        // Lifetime average still covers everything.
        assert_eq!(t.lifetime_average(), Some(DurationMs::from_millis(400)));
    }

    #[test]
    fn duration_window_expires_old_entries() {
        let mut t = ExpirationTracker::new(
            ExpirationFlavor::Lru,
            ExpirationWindow::LastDuration(DurationMs::from_millis(1_000)),
        );
        t.record_eviction(&evict(0, 100)); // at t=100, age 100
        t.record_eviction(&evict(0, 200)); // at t=200, age 200
        assert_eq!(t.window_len(), 2);
        // An eviction far in the future pushes both out of the window.
        t.record_eviction(&evict(4_000, 5_000)); // at t=5000, age 1000
        assert_eq!(t.window_len(), 1);
        assert_eq!(
            t.cache_expiration_age(),
            ExpirationAge::finite(DurationMs::from_millis(1_000))
        );
    }

    #[test]
    fn lfu_flavor_uses_lifetime_over_hits() {
        let mut t =
            ExpirationTracker::new(ExpirationFlavor::Lfu, ExpirationWindow::LastEvictions(10));
        // Entry at t=0, one extra hit => hit_count 2, evicted at 1000:
        // LFU age = 1000 / 2 = 500.
        t.record_eviction(&evict(500, 1_000));
        assert_eq!(
            t.cache_expiration_age(),
            ExpirationAge::finite(DurationMs::from_millis(500))
        );
    }

    #[test]
    fn flavors_differ_on_same_record() {
        let rec = evict(900, 1_000);
        let mut lru =
            ExpirationTracker::new(ExpirationFlavor::Lru, ExpirationWindow::LastEvictions(1));
        let mut lfu =
            ExpirationTracker::new(ExpirationFlavor::Lfu, ExpirationWindow::LastEvictions(1));
        lru.record_eviction(&rec);
        lfu.record_eviction(&rec);
        // LRU: 1000-900 = 100. LFU: 1000/2 = 500.
        assert_eq!(
            lru.cache_expiration_age(),
            ExpirationAge::finite(DurationMs::from_millis(100))
        );
        assert_eq!(
            lfu.cache_expiration_age(),
            ExpirationAge::finite(DurationMs::from_millis(500))
        );
    }

    #[test]
    fn high_contention_means_low_age() {
        // The paper's central observation: rapid evictions after recent
        // hits => low expiration age; leisurely evictions => high age.
        let mut contended =
            ExpirationTracker::new(ExpirationFlavor::Lru, ExpirationWindow::LastEvictions(8));
        let mut relaxed =
            ExpirationTracker::new(ExpirationFlavor::Lru, ExpirationWindow::LastEvictions(8));
        for i in 0..8 {
            contended.record_eviction(&evict(i * 100, i * 100 + 50)); // age 50
            relaxed.record_eviction(&evict(i * 100, i * 100 + 5_000)); // age 5000
        }
        assert!(contended.cache_expiration_age() < relaxed.cache_expiration_age());
    }

    #[test]
    #[should_panic(expected = "at least one record")]
    fn zero_eviction_window_rejected() {
        let _ = ExpirationTracker::new(ExpirationFlavor::Lru, ExpirationWindow::LastEvictions(0));
    }

    #[test]
    fn window_display() {
        assert_eq!(
            ExpirationWindow::LastEvictions(5).to_string(),
            "last-5-evictions"
        );
        assert_eq!(
            ExpirationWindow::LastDuration(DurationMs::from_secs(60)).to_string(),
            "last-60s"
        );
    }
}
