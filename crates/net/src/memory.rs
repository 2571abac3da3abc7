//! Memory-pressure admission control for cacheable-store work.
//!
//! A daemon under memory pressure keeps *serving* — the protocol path
//! never blocks on admission — but sheds the optional work of storing an
//! origin-fetched copy, the same load-shedding posture production caches
//! take when the host is short on memory. Pressure is read from
//! `/proc/meminfo` (`MemAvailable` over `MemTotal`); below a fixed 5 %
//! floor the store is shed. Tests swap the probe for a fixed reading, so
//! the shed path is exercisable without actually exhausting the host.

use crate::clock::SharedClock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// How the admission gate measures available memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MemoryProbe {
    /// Read `MemAvailable` / `MemTotal` from `/proc/meminfo`. On any
    /// read or parse failure the gate fails open (stores are admitted):
    /// a broken probe must never turn the cache off.
    Meminfo,
    /// A fixed available-memory percentage — the test hook.
    #[cfg(test)]
    Fixed(u8),
}

impl MemoryProbe {
    /// The current available-memory percentage (0–100), `None` when the
    /// probe cannot produce a reading.
    fn available_pct(self) -> Option<u64> {
        match self {
            Self::Meminfo => {
                let text = std::fs::read_to_string("/proc/meminfo").ok()?;
                parse_meminfo_pct(&text)
            }
            #[cfg(test)]
            Self::Fixed(pct) => Some(u64::from(pct)),
        }
    }
}

/// Parses `/proc/meminfo` text into an available-memory percentage.
fn parse_meminfo_pct(text: &str) -> Option<u64> {
    let mut total_kb: Option<u64> = None;
    let mut available_kb: Option<u64> = None;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("MemTotal:") {
            total_kb = parse_kb(rest);
        } else if let Some(rest) = line.strip_prefix("MemAvailable:") {
            available_kb = parse_kb(rest);
        }
        if total_kb.is_some() && available_kb.is_some() {
            break;
        }
    }
    let total = total_kb?;
    if total == 0 {
        return None;
    }
    Some(available_kb?.saturating_mul(100) / total)
}

/// Parses the numeric field of a meminfo line (`"  131072000 kB"`).
fn parse_kb(rest: &str) -> Option<u64> {
    rest.split_whitespace().next()?.parse().ok()
}

/// Available-memory floor (percent): below it a daemon sheds
/// cacheable-store work after origin fetches (it still serves the bytes).
const MIN_AVAILABLE_PCT: u64 = 5;

/// The admission gate: sheds cacheable-store work while available
/// memory sits below [`MIN_AVAILABLE_PCT`].
///
/// The probe reading is cached and refreshed at most once per
/// [`REFRESH_INTERVAL`] of daemon-clock time, so the request hot path
/// pays one relaxed atomic load per decision, not a `/proc` read.
#[derive(Debug)]
pub(crate) struct AdmissionGate {
    probe: MemoryProbe,
    /// Cached probe reading (percent); 100 until the first refresh.
    cached_pct: AtomicU64,
    /// Daemon-clock microsecond of the next allowed refresh.
    next_refresh_us: AtomicU64,
}

/// How long a probe reading is trusted before re-reading `/proc`.
const REFRESH_INTERVAL: Duration = Duration::from_millis(250);

impl AdmissionGate {
    pub(crate) fn new(probe: MemoryProbe) -> Self {
        Self {
            probe,
            cached_pct: AtomicU64::new(100),
            next_refresh_us: AtomicU64::new(0),
        }
    }

    /// Whether a cacheable store should be admitted right now.
    ///
    /// The gate is on in every daemon, so a replay is deterministic only
    /// while the host keeps at least the floor free and every store is
    /// admitted.
    pub(crate) fn allow_store(&self, clock: &SharedClock) -> bool {
        let now_us = clock.now_micros();
        if now_us >= self.next_refresh_us.load(Ordering::Relaxed) {
            let interval_us = u64::try_from(REFRESH_INTERVAL.as_micros()).unwrap_or(u64::MAX);
            self.next_refresh_us
                .store(now_us.saturating_add(interval_us), Ordering::Relaxed);
            // Fail open on a broken probe: admission control protects
            // the host, it must never silently disable the cache.
            let pct = self.probe.available_pct().unwrap_or(100);
            self.cached_pct.store(pct, Ordering::Relaxed);
        }
        self.cached_pct.load(Ordering::Relaxed) >= MIN_AVAILABLE_PCT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meminfo_parse_computes_available_percent() {
        let text = "MemTotal:       1000 kB\nMemFree:   100 kB\nMemAvailable:    250 kB\n";
        assert_eq!(parse_meminfo_pct(text), Some(25));
    }

    #[test]
    fn meminfo_parse_rejects_incomplete_or_zero_input() {
        assert_eq!(parse_meminfo_pct(""), None);
        assert_eq!(parse_meminfo_pct("MemTotal: 1000 kB\n"), None);
        assert_eq!(
            parse_meminfo_pct("MemTotal: x kB\nMemAvailable: 1 kB\n"),
            None
        );
        assert_eq!(
            parse_meminfo_pct("MemTotal: 0 kB\nMemAvailable: 0 kB\n"),
            None
        );
    }

    #[test]
    fn real_meminfo_probe_reads_a_sane_percentage() {
        // The test host runs Linux; the probe must produce a reading
        // inside [0, 100].
        let pct = MemoryProbe::Meminfo.available_pct();
        let pct = pct.expect("probe reads /proc/meminfo");
        assert!(pct <= 100, "available {pct}% out of range");
    }

    #[test]
    fn fixed_probe_gates_stores_at_the_floor() {
        let clock = SharedClock::start();
        let pressured = AdmissionGate::new(MemoryProbe::Fixed(4));
        assert!(!pressured.allow_store(&clock), "4% available < 5% floor");
        let at_floor = AdmissionGate::new(MemoryProbe::Fixed(5));
        assert!(at_floor.allow_store(&clock), "the floor itself is admitted");
        let healthy = AdmissionGate::new(MemoryProbe::Fixed(80));
        assert!(healthy.allow_store(&clock));
    }

    #[test]
    fn gate_caches_readings_between_refreshes() {
        let clock = SharedClock::start();
        let gate = AdmissionGate::new(MemoryProbe::Fixed(50));
        assert!(gate.allow_store(&clock));
        // The cached percentage is now 50 and stays trusted for the
        // refresh interval regardless of repeated calls.
        for _ in 0..100 {
            assert!(gate.allow_store(&clock));
        }
        assert_eq!(gate.cached_pct.load(Ordering::Relaxed), 50);
    }
}
