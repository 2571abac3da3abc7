//! Simulated time: absolute [`Timestamp`]s and [`DurationMs`] spans.
//!
//! The simulator and the expiration-age bookkeeping both operate on a
//! millisecond-resolution virtual clock anchored at the start of the trace.
//! Millisecond resolution comfortably covers the paper's latency constants
//! (146 ms / 342 ms / 2784 ms) and the multi-month trace horizon
//! (`u64` milliseconds ≈ 584 million years).

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A span of simulated time in milliseconds.
///
/// # Example
///
/// ```
/// use coopcache_types::DurationMs;
/// let d = DurationMs::from_secs(2) + DurationMs::from_millis(500);
/// assert_eq!(d.as_millis(), 2_500);
/// assert_eq!(d.as_secs_f64(), 2.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DurationMs(u64);

impl DurationMs {
    /// The zero-length span.
    pub const ZERO: Self = Self(0);

    /// Creates a span from whole milliseconds.
    #[must_use]
    pub const fn from_millis(ms: u64) -> Self {
        Self(ms)
    }

    /// Creates a span from whole seconds.
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        Self(secs * 1_000)
    }

    /// Creates a span from whole days (useful for trace horizons).
    #[must_use]
    pub const fn from_days(days: u64) -> Self {
        Self(days * 24 * 60 * 60 * 1_000)
    }

    /// Returns the span in whole milliseconds.
    #[must_use]
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Returns the span in seconds as a float (used by reports).
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Saturating subtraction; clamps at [`DurationMs::ZERO`].
    #[must_use]
    pub const fn saturating_sub(self, rhs: Self) -> Self {
        Self(self.0.saturating_sub(rhs.0))
    }

    /// Multiplies the span by an integer factor, saturating on overflow.
    #[must_use]
    pub const fn saturating_mul(self, factor: u64) -> Self {
        Self(self.0.saturating_mul(factor))
    }
}

impl Add for DurationMs {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl AddAssign for DurationMs {
    fn add_assign(&mut self, rhs: Self) {
        self.0 += rhs.0;
    }
}

impl Sub for DurationMs {
    type Output = Self;
    /// # Panics
    ///
    /// Panics in debug builds if `rhs > self`; use
    /// [`DurationMs::saturating_sub`] when underflow is possible.
    fn sub(self, rhs: Self) -> Self {
        Self(self.0 - rhs.0)
    }
}

impl Mul<u64> for DurationMs {
    type Output = Self;
    fn mul(self, rhs: u64) -> Self {
        Self(self.0 * rhs)
    }
}

impl Div<u64> for DurationMs {
    type Output = Self;
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    fn div(self, rhs: u64) -> Self {
        Self(self.0 / rhs)
    }
}

impl fmt::Display for DurationMs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000 && self.0.is_multiple_of(100) {
            write!(f, "{}s", self.0 as f64 / 1_000.0)
        } else {
            write!(f, "{}ms", self.0)
        }
    }
}

/// An absolute point on the simulated clock, in milliseconds since the
/// start of the trace.
///
/// # Example
///
/// ```
/// use coopcache_types::{DurationMs, Timestamp};
/// let t0 = Timestamp::ZERO;
/// let t1 = t0 + DurationMs::from_secs(10);
/// assert_eq!(t1 - t0, DurationMs::from_secs(10));
/// assert!(t1 > t0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(u64);

impl Timestamp {
    /// The trace epoch.
    pub const ZERO: Self = Self(0);

    /// Creates a timestamp from milliseconds since the trace epoch.
    #[must_use]
    pub const fn from_millis(ms: u64) -> Self {
        Self(ms)
    }

    /// Creates a timestamp from seconds since the trace epoch.
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        Self(secs * 1_000)
    }

    /// Returns milliseconds since the trace epoch.
    #[must_use]
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Returns microseconds since the trace epoch (saturating): the span
    /// clock of the simulators.
    #[must_use]
    pub const fn as_micros(self) -> u64 {
        self.0.saturating_mul(1_000)
    }

    /// Duration elapsed since an earlier timestamp, clamped at zero.
    ///
    /// Out-of-order trace records can make `earlier` exceed `self`; clamping
    /// keeps expiration-age arithmetic total.
    #[must_use]
    pub const fn saturating_since(self, earlier: Self) -> DurationMs {
        DurationMs::from_millis(self.0.saturating_sub(earlier.0))
    }
}

impl Add<DurationMs> for Timestamp {
    type Output = Self;
    fn add(self, rhs: DurationMs) -> Self {
        Self(self.0 + rhs.as_millis())
    }
}

impl AddAssign<DurationMs> for Timestamp {
    fn add_assign(&mut self, rhs: DurationMs) {
        self.0 += rhs.as_millis();
    }
}

impl Sub for Timestamp {
    type Output = DurationMs;
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`; use
    /// [`Timestamp::saturating_since`] for possibly out-of-order inputs.
    fn sub(self, rhs: Self) -> DurationMs {
        DurationMs::from_millis(self.0 - rhs.0)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}ms", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(DurationMs::from_secs(3).as_millis(), 3_000);
        assert_eq!(DurationMs::from_days(1).as_millis(), 86_400_000);
        assert_eq!(DurationMs::ZERO.as_millis(), 0);
    }

    #[test]
    fn duration_arithmetic() {
        let a = DurationMs::from_millis(1500);
        let b = DurationMs::from_millis(500);
        assert_eq!((a + b).as_millis(), 2000);
        assert_eq!((a - b).as_millis(), 1000);
        assert_eq!((a * 2).as_millis(), 3000);
        assert_eq!((a / 3).as_millis(), 500);
        assert_eq!(b.saturating_sub(a), DurationMs::ZERO);
        let mut c = a;
        c += b;
        assert_eq!(c.as_millis(), 2000);
    }

    #[test]
    fn duration_saturating_mul_caps() {
        let d = DurationMs::from_millis(u64::MAX / 2 + 1);
        assert_eq!(d.saturating_mul(3).as_millis(), u64::MAX);
    }

    #[test]
    fn timestamp_arithmetic() {
        let t0 = Timestamp::from_secs(1);
        let t1 = t0 + DurationMs::from_millis(250);
        assert_eq!(t1.as_millis(), 1250);
        assert_eq!(t1 - t0, DurationMs::from_millis(250));
        assert_eq!(t0.saturating_since(t1), DurationMs::ZERO);
        assert_eq!(t1.saturating_since(t0), DurationMs::from_millis(250));
        let mut t2 = t0;
        t2 += DurationMs::from_secs(1);
        assert_eq!(t2.as_millis(), 2000);
    }

    #[test]
    fn display_formats() {
        assert_eq!(DurationMs::from_millis(42).to_string(), "42ms");
        assert_eq!(DurationMs::from_millis(2500).to_string(), "2.5s");
        assert_eq!(Timestamp::from_millis(9).to_string(), "t+9ms");
    }

    #[test]
    fn ordering_is_chronological() {
        assert!(Timestamp::from_millis(5) < Timestamp::from_millis(6));
        assert!(DurationMs::from_millis(5) < DurationMs::from_secs(1));
    }
}
