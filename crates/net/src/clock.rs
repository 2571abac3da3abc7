//! Wall-clock to simulated-timestamp mapping for live daemons.

use coopcache_types::Timestamp;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Manual cache time not set yet: read the wall clock.
const UNSET: u64 = u64::MAX;

/// A shared epoch: all daemons in a cluster stamp cache events with
/// milliseconds elapsed since the cluster started, so expiration ages are
/// comparable across nodes (the paper assumes loosely synchronized proxy
/// clocks; a shared process epoch is the loopback equivalent).
///
/// A clock may also carry a manual cache-time source that its owner sets
/// (see [`SharedClock::set_cache_time`]), so a live cluster can replay a
/// trace on the trace's own timestamps. It drives [`SharedClock::now`]
/// only: [`SharedClock::now_micros`] stays wall-clock, because it times
/// ICP deadlines, latency and pool reaping, and a frozen deadline clock
/// would hang every ICP round.
#[derive(Debug, Clone)]
pub(crate) struct SharedClock {
    epoch: Arc<Instant>,
    /// Manually set cache time in milliseconds, [`UNSET`] until first set.
    manual_ms: Option<Arc<AtomicU64>>,
    /// Calls to [`now`](Self::now) over every clone, for tests that pin
    /// how often a loop reads the cache time.
    #[cfg(test)]
    reads: Arc<AtomicU64>,
}

impl SharedClock {
    /// Starts a new clock at "now".
    #[must_use]
    #[expect(
        clippy::disallowed_methods,
        reason = "the one sanctioned wall-clock read: every other read goes through this epoch"
    )]
    pub(crate) fn start() -> Self {
        Self {
            epoch: Arc::new(Instant::now()),
            manual_ms: None,
            #[cfg(test)]
            reads: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Starts a clock whose cache time its owner can set. Until the first
    /// [`set_cache_time`](Self::set_cache_time) it reads exactly like
    /// [`start`](Self::start)'s.
    #[must_use]
    pub(crate) fn start_with_manual_time() -> Self {
        Self {
            manual_ms: Some(Arc::new(AtomicU64::new(UNSET))),
            ..Self::start()
        }
    }

    /// Sets the cache time every clone of this clock reports from
    /// [`now`](Self::now).
    ///
    /// # Panics
    ///
    /// Panics if the clock has no manual source (it was not built with
    /// [`start_with_manual_time`](Self::start_with_manual_time)).
    pub(crate) fn set_cache_time(&self, t: Timestamp) {
        #[expect(
            clippy::panic,
            reason = "documented contract: setting the time of a wall-clock-only clock would be \
                      silently ignored otherwise"
        )]
        let Some(manual_ms) = &self.manual_ms
        else {
            panic!("set_cache_time on a clock without a manual source");
        };
        // lint:allow(atomic-order) -- Release: pairs with the Acquire load
        // in `now`, so a peer's server thread that sees a request sent
        // after this store also sees the time.
        manual_ms.store(t.as_millis(), Ordering::Release);
    }

    /// The cache time: the manually set time if there is one, else
    /// milliseconds since the epoch.
    #[must_use]
    pub(crate) fn now(&self) -> Timestamp {
        #[cfg(test)]
        self.reads.fetch_add(1, Ordering::Relaxed);
        if let Some(manual_ms) = &self.manual_ms {
            // lint:allow(atomic-order) -- Acquire: pairs with the Release
            // store in `set_cache_time`.
            let ms = manual_ms.load(Ordering::Acquire);
            if ms != UNSET {
                return Timestamp::from_millis(ms);
            }
        }
        Timestamp::from_millis(self.epoch.elapsed().as_millis() as u64)
    }

    /// Calls to [`now`](Self::now) so far, over every clone.
    #[cfg(test)]
    pub(crate) fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// Microseconds since the epoch — the daemon's latency and deadline
    /// unit. All wall-clock reads in the workspace funnel through this
    /// type (enforced by clippy's `disallowed_methods`, configured in
    /// `clippy.toml`), so the simulators can never accidentally observe
    /// real time.
    #[must_use]
    pub(crate) fn now_micros(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
    }
}

impl Default for SharedClock {
    fn default() -> Self {
        Self::start()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn clock_is_monotonic_and_shared() {
        let clock = SharedClock::start();
        let twin = clock.clone();
        let a = clock.now();
        std::thread::sleep(Duration::from_millis(5));
        let b = twin.now();
        assert!(b > a, "{b} should be after {a}");
    }

    #[test]
    fn fresh_clock_starts_near_zero() {
        let clock = SharedClock::default();
        assert!(clock.now().as_millis() < 1_000);
    }

    #[test]
    fn manual_time_drives_now_but_not_micros() {
        let clock = SharedClock::start_with_manual_time();
        let twin = clock.clone();
        assert!(
            clock.now().as_millis() < 1_000,
            "unset reads the wall clock"
        );
        clock.set_cache_time(Timestamp::from_secs(3_600));
        assert_eq!(twin.now(), Timestamp::from_secs(3_600));
        let micros = twin.now_micros();
        std::thread::sleep(Duration::from_millis(2));
        assert!(twin.now_micros() > micros, "deadlines keep wall time");
        assert_eq!(twin.now(), Timestamp::from_secs(3_600));
    }

    #[test]
    #[should_panic(expected = "without a manual source")]
    fn setting_a_wall_clock_panics() {
        SharedClock::start().set_cache_time(Timestamp::ZERO);
    }
}
