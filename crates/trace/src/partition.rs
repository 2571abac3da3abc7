//! Mapping clients onto the caches of a cooperation group.
//!
//! Each proxy cache serves a fixed client population (in the paper's setup,
//! the browsers configured to use that proxy). A [`Partitioner`] decides,
//! per request, which cache acts as the *requester*.

use coopcache_types::{CacheId, Request};

/// Strategy for assigning trace requests to the caches of a group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Partitioner {
    /// Each client is pinned to `client_id mod group_size` — the standard
    /// model of browsers statically configured against one proxy, and the
    /// one used for all paper experiments (§4.1).
    ByClientModulo,
}

impl Partitioner {
    /// Returns the requester cache for the `seq`-th request of a trace.
    ///
    /// `seq` is the zero-based position of the request in the trace; the
    /// client pinning does not read it.
    ///
    /// # Panics
    ///
    /// Panics if `group_size` is zero.
    #[must_use]
    pub fn assign(self, request: &Request, _seq: usize, group_size: usize) -> CacheId {
        assert!(group_size > 0, "group must contain at least one cache");
        let idx = match self {
            Self::ByClientModulo => request.client.as_u32() as usize % group_size,
        };
        CacheId::new(idx as u16)
    }
}

impl Default for Partitioner {
    /// The paper's client-to-proxy pinning.
    fn default() -> Self {
        Self::ByClientModulo
    }
}

impl std::fmt::Display for Partitioner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Self::ByClientModulo => "by-client-modulo",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coopcache_types::{ByteSize, ClientId, DocId, Timestamp};

    fn req(client: u32) -> Request {
        Request::new(
            Timestamp::ZERO,
            ClientId::new(client),
            DocId::new(1),
            ByteSize::from_bytes(1),
        )
    }

    #[test]
    fn modulo_pins_clients() {
        let p = Partitioner::ByClientModulo;
        assert_eq!(p.assign(&req(0), 0, 4), CacheId::new(0));
        assert_eq!(p.assign(&req(5), 99, 4), CacheId::new(1));
        // Same client, different seq: same cache.
        assert_eq!(p.assign(&req(7), 0, 4), p.assign(&req(7), 1000, 4));
    }

    #[test]
    fn single_cache_group_gets_everything() {
        assert_eq!(
            Partitioner::ByClientModulo.assign(&req(123), 456, 1),
            CacheId::new(0)
        );
    }

    #[test]
    #[should_panic(expected = "at least one cache")]
    fn zero_group_panics() {
        let _ = Partitioner::default().assign(&req(0), 0, 0);
    }

    #[test]
    fn display_names() {
        assert_eq!(Partitioner::ByClientModulo.to_string(), "by-client-modulo");
    }

    #[test]
    fn default_is_modulo() {
        assert_eq!(Partitioner::default(), Partitioner::ByClientModulo);
    }
}
