//! Identifier newtypes for documents, caches and clients.

use std::fmt;

/// Identifier of a unique web document (a URL interned to an integer).
///
/// Trace generators and parsers intern URLs into dense `DocId`s; the cache
/// layers never see URL strings, which keeps the hot path allocation-free.
///
/// # Example
///
/// ```
/// use coopcache_types::DocId;
/// let d = DocId::new(17);
/// assert_eq!(d.as_u64(), 17);
/// assert_eq!(d.to_string(), "doc:17");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DocId(u64);

impl DocId {
    /// Creates a document id from its raw integer value.
    #[must_use]
    pub const fn new(raw: u64) -> Self {
        Self(raw)
    }

    /// Returns the raw integer value.
    #[must_use]
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for DocId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "doc:{}", self.0)
    }
}

impl From<u64> for DocId {
    fn from(raw: u64) -> Self {
        Self::new(raw)
    }
}

/// Identifier of a proxy cache within a cooperation group.
///
/// Cache ids are dense indices (`0..group_size`) so they can double as
/// indices into per-cache vectors.
///
/// # Example
///
/// ```
/// use coopcache_types::CacheId;
/// let c = CacheId::new(2);
/// assert_eq!(c.index(), 2);
/// assert_eq!(c.to_string(), "cache:2");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CacheId(u16);

impl CacheId {
    /// Creates a cache id from a dense group index.
    #[must_use]
    pub const fn new(index: u16) -> Self {
        Self(index)
    }

    /// Returns the dense index as a `usize`, suitable for vector indexing.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw `u16` value.
    #[must_use]
    pub const fn as_u16(self) -> u16 {
        self.0
    }
}

impl fmt::Display for CacheId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cache:{}", self.0)
    }
}

impl From<u16> for CacheId {
    fn from(raw: u16) -> Self {
        Self::new(raw)
    }
}

/// Identifier of a client (an end user's browser) issuing requests.
///
/// The trace substrate models the Boston University trace population of 591
/// users; clients are mapped onto caches by a
/// partitioning strategy (see `coopcache-trace`).
///
/// # Example
///
/// ```
/// use coopcache_types::ClientId;
/// let u = ClientId::new(590);
/// assert_eq!(u.as_u32(), 590);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ClientId(u32);

impl ClientId {
    /// Creates a client id from its raw integer value.
    #[must_use]
    pub const fn new(raw: u32) -> Self {
        Self(raw)
    }

    /// Returns the raw integer value.
    #[must_use]
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "client:{}", self.0)
    }
}

impl From<u32> for ClientId {
    fn from(raw: u32) -> Self {
        Self::new(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn doc_id_roundtrip_and_display() {
        let d = DocId::new(123);
        assert_eq!(d.as_u64(), 123);
        assert_eq!(format!("{d}"), "doc:123");
        assert_eq!(DocId::from(123u64), d);
    }

    #[test]
    fn cache_id_indexing() {
        let c = CacheId::new(3);
        assert_eq!(c.index(), 3);
        assert_eq!(c.as_u16(), 3);
        let v = [10, 20, 30, 40];
        assert_eq!(v[c.index()], 40);
    }

    #[test]
    fn client_id_roundtrip() {
        let u = ClientId::from(9u32);
        assert_eq!(u.as_u32(), 9);
        assert_eq!(format!("{u}"), "client:9");
    }

    #[test]
    fn ids_are_hashable_and_ordered() {
        fn hashable<T: std::hash::Hash>() {}
        hashable::<(DocId, CacheId, ClientId)>();
        let mut set = BTreeSet::new();
        set.insert(DocId::new(1));
        set.insert(DocId::new(1));
        set.insert(DocId::new(2));
        assert_eq!(set.len(), 2);
        assert!(DocId::new(1) < DocId::new(2));
        assert!(CacheId::new(0) < CacheId::new(1));
        assert!(ClientId::new(5) > ClientId::new(4));
    }

    #[test]
    fn default_ids_are_zero() {
        assert_eq!(DocId::default().as_u64(), 0);
        assert_eq!(CacheId::default().index(), 0);
        assert_eq!(ClientId::default().as_u32(), 0);
    }
}
