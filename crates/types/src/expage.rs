//! The cache expiration age — the paper's measure of disk-space contention.

use crate::DurationMs;
use std::cmp::Ordering;
use std::fmt;

/// The expiration age of a cache: the average time a document is expected to
/// survive in the cache after its last hit (paper, §3.3, eq. 5).
///
/// A *high* expiration age means *low* disk-space contention. A cache that
/// has never evicted anything has observed **no contention at all**, which
/// this type models as [`ExpirationAge::Infinite`]; `Infinite` compares
/// greater than every finite age. This makes the EA placement rule total:
///
/// * a requester that has never evicted beats every contended supplier, and
/// * two never-evicting caches tie.
///
/// The placement rules themselves live in `coopcache-core`'s
/// `PlacementScheme::requester_stores` and `responder_promotes`.
///
/// # Example
///
/// ```
/// use coopcache_types::{DurationMs, ExpirationAge};
///
/// let young = ExpirationAge::finite(DurationMs::from_secs(10));
/// let old = ExpirationAge::finite(DurationMs::from_secs(500));
/// assert!(old > young);
/// assert!(ExpirationAge::Infinite > old);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExpirationAge {
    /// An observed average post-last-hit survival time.
    Finite(DurationMs),
    /// No eviction observed yet: zero contention, maximal age.
    #[default]
    Infinite,
}

impl ExpirationAge {
    /// Convenience constructor for a finite age.
    #[must_use]
    pub const fn finite(age: DurationMs) -> Self {
        Self::Finite(age)
    }

    /// Returns the finite age, or `None` when infinite.
    #[must_use]
    pub const fn as_finite(self) -> Option<DurationMs> {
        match self {
            Self::Finite(d) => Some(d),
            Self::Infinite => None,
        }
    }

    /// Returns `true` when no eviction has been observed yet.
    #[must_use]
    pub const fn is_infinite(self) -> bool {
        matches!(self, Self::Infinite)
    }
}

impl PartialOrd for ExpirationAge {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ExpirationAge {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Self::Infinite, Self::Infinite) => Ordering::Equal,
            (Self::Infinite, Self::Finite(_)) => Ordering::Greater,
            (Self::Finite(_), Self::Infinite) => Ordering::Less,
            (Self::Finite(a), Self::Finite(b)) => a.cmp(b),
        }
    }
}

impl From<DurationMs> for ExpirationAge {
    fn from(age: DurationMs) -> Self {
        Self::Finite(age)
    }
}

impl fmt::Display for ExpirationAge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Finite(d) => write!(f, "{d}"),
            Self::Infinite => write!(f, "inf"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fin(ms: u64) -> ExpirationAge {
        ExpirationAge::finite(DurationMs::from_millis(ms))
    }

    #[test]
    fn ordering_infinite_dominates() {
        assert!(ExpirationAge::Infinite > fin(u64::MAX));
        assert_eq!(ExpirationAge::Infinite, ExpirationAge::Infinite);
        assert!(fin(10) < fin(20));
        assert_eq!(fin(7), fin(7));
    }

    #[test]
    fn conversions_and_display() {
        let d = DurationMs::from_secs(3);
        let e: ExpirationAge = d.into();
        assert_eq!(e.as_finite(), Some(d));
        assert!(ExpirationAge::Infinite.as_finite().is_none());
        assert!(ExpirationAge::Infinite.is_infinite());
        assert_eq!(ExpirationAge::Infinite.to_string(), "inf");
        assert_eq!(fin(2500).to_string(), "2.5s");
    }

    #[test]
    fn default_is_infinite() {
        assert_eq!(ExpirationAge::default(), ExpirationAge::Infinite);
    }
}
