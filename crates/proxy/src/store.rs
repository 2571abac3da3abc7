//! The store operations the protocol handlers need, and nothing else.
//!
//! [`crate::ProxyNode`] is generic over [`Store`] so the handlers are
//! written once: the simulators instantiate them over a single-owner
//! [`Cache`] (monomorphised — no lock, no indirection), and
//! [`crate::ConcurrentNode`] over `&ConcurrentCache`, where every
//! operation locks exactly the document's shard and releases it before
//! returning. The trait lives in a private module: it is an
//! implementation seam, not an extension point.

use coopcache_core::{Cache, ConcurrentCache, ExpirationFlavor, InsertOutcome};
use coopcache_types::{ByteSize, CacheId, DocId, ExpirationAge, Timestamp};

/// What a protocol handler may ask of the cache it runs over.
pub trait Store {
    /// The owning cache's id.
    fn id(&self) -> CacheId;
    /// The cache expiration age to piggyback (paper eq. 5).
    fn expiration_age(&self) -> ExpirationAge;
    /// Which eq. 1 formula ages an evicted document.
    fn expiration_flavor(&self) -> ExpirationFlavor;
    /// Read-only ICP probe.
    fn contains(&self, doc: DocId) -> bool;
    /// Local client lookup (refreshes on a hit).
    fn lookup(&mut self, doc: DocId, now: Timestamp) -> Option<ByteSize>;
    /// Serve to a sibling, refreshing only when `promote`.
    fn serve_remote(&mut self, doc: DocId, now: Timestamp, promote: bool) -> Option<ByteSize>;
    /// Store a document, returning the evictions it caused.
    fn insert(&mut self, doc: DocId, size: ByteSize, now: Timestamp) -> InsertOutcome;
}

/// Implements [`Store`] for `$handle` by forwarding to `$cache`'s
/// inherent methods of the same names — one forwarding table for both
/// stores, so they cannot drift apart.
macro_rules! forward_store {
    ($handle:ty => $cache:ident) => {
        impl Store for $handle {
            fn id(&self) -> CacheId {
                $cache::id(self)
            }
            fn expiration_age(&self) -> ExpirationAge {
                $cache::expiration_age(self)
            }
            fn expiration_flavor(&self) -> ExpirationFlavor {
                $cache::expiration_flavor(self)
            }
            fn contains(&self, doc: DocId) -> bool {
                $cache::contains(self, doc)
            }
            fn lookup(&mut self, doc: DocId, now: Timestamp) -> Option<ByteSize> {
                $cache::lookup(self, doc, now)
            }
            fn serve_remote(
                &mut self,
                doc: DocId,
                now: Timestamp,
                promote: bool,
            ) -> Option<ByteSize> {
                $cache::serve_remote(self, doc, now, promote)
            }
            fn insert(&mut self, doc: DocId, size: ByteSize, now: Timestamp) -> InsertOutcome {
                $cache::insert(self, doc, size, now)
            }
        }
    };
}

forward_store!(Cache => Cache);
forward_store!(&ConcurrentCache => ConcurrentCache);
