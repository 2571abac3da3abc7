//! The classification of a served request.

use coopcache_types::CacheId;
use std::fmt;

/// How a client request was ultimately served by the group.
///
/// The three-way split drives every metric in the paper: cumulative hit
/// rate counts local + remote hits, Table 2 separates the two, and the
/// latency estimate (eq. 6) weighs each class by its measured latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestOutcome {
    /// Served from the cache the client is attached to.
    LocalHit,
    /// Served by another cache in the group.
    RemoteHit {
        /// The cache that supplied the document.
        responder: CacheId,
        /// Whether the requester kept a local copy (always `true` under
        /// ad-hoc; an EA decision otherwise).
        stored_locally: bool,
        /// Whether the responder refreshed its own copy (always `true`
        /// under ad-hoc; an EA decision otherwise).
        promoted_at_responder: bool,
    },
    /// Fetched from the origin server.
    Miss {
        /// Whether the requester kept a copy (always `true` in the
        /// distributed architecture; in a hierarchy, EA may decline).
        stored_locally: bool,
        /// Whether some ancestor kept a copy on the way down (hierarchy
        /// only; `false` in the distributed architecture).
        stored_at_ancestor: bool,
    },
}

impl RequestOutcome {
    /// True for local and remote hits.
    #[must_use]
    pub fn is_hit(&self) -> bool {
        !matches!(self, Self::Miss { .. })
    }

    /// True only for local hits.
    #[must_use]
    pub fn is_local_hit(&self) -> bool {
        matches!(self, Self::LocalHit)
    }

    /// True only for remote hits.
    #[must_use]
    pub fn is_remote_hit(&self) -> bool {
        matches!(self, Self::RemoteHit { .. })
    }
}

impl fmt::Display for RequestOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::LocalHit => f.write_str("local-hit"),
            Self::RemoteHit { responder, .. } => write!(f, "remote-hit({responder})"),
            Self::Miss { .. } => f.write_str("miss"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_helpers() {
        let local = RequestOutcome::LocalHit;
        let remote = RequestOutcome::RemoteHit {
            responder: CacheId::new(2),
            stored_locally: true,
            promoted_at_responder: false,
        };
        let miss = RequestOutcome::Miss {
            stored_locally: true,
            stored_at_ancestor: false,
        };
        assert!(local.is_hit() && local.is_local_hit() && !local.is_remote_hit());
        assert!(remote.is_hit() && remote.is_remote_hit() && !remote.is_local_hit());
        assert!(!miss.is_hit() && !miss.is_local_hit() && !miss.is_remote_hit());
    }

    #[test]
    fn display() {
        assert_eq!(RequestOutcome::LocalHit.to_string(), "local-hit");
        let remote = RequestOutcome::RemoteHit {
            responder: CacheId::new(2),
            stored_locally: false,
            promoted_at_responder: true,
        };
        assert_eq!(remote.to_string(), "remote-hit(cache:2)");
    }
}
