#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::panic, clippy::unreachable))]
#![warn(missing_docs)]
//! Core cache engine for expiration-age based cooperative web caching.
//!
//! This crate implements the primary contribution of *"A New Document
//! Placement Scheme for Cooperative Caching on the Internet"* (Ramaswamy &
//! Liu, ICDCS 2002) as a reusable library:
//!
//! * [`Cache`] — a byte-capacity-bounded document store with seven
//!   replacement policies ([`PolicyKind`]: LRU, LFU, FIFO, GDSF, GDS,
//!   SLRU, S3-FIFO);
//! * [`ExpirationTracker`] — the paper's *cache expiration age* (eq. 5),
//!   the windowed average of document expiration ages at eviction, used as
//!   a disk-contention signal;
//! * [`PlacementScheme`] — the conventional ad-hoc placement rule and the
//!   paper's EA rule, which consults expiration ages to decide where a
//!   document copy should live.
//!
//! The cooperative protocol that carries expiration ages between proxies
//! lives in `coopcache-proxy`; this crate is strictly single-cache.
//!
//! # Example: the EA decision in five lines
//!
//! ```
//! use coopcache_core::{Cache, PlacementScheme, PolicyKind};
//! use coopcache_types::{ByteSize, CacheId, DocId, Timestamp};
//!
//! let mut requester = Cache::new(CacheId::new(0), ByteSize::from_kb(64), PolicyKind::Lru);
//! let mut responder = Cache::new(CacheId::new(1), ByteSize::from_kb(64), PolicyKind::Lru);
//! let now = Timestamp::from_secs(1);
//! responder.insert(DocId::new(7), ByteSize::from_kb(4), now);
//!
//! let scheme = PlacementScheme::Ea;
//! let store = scheme.requester_stores(requester.expiration_age(),
//!                                     responder.expiration_age());
//! let promote = scheme.responder_promotes(responder.expiration_age(),
//!                                         requester.expiration_age());
//! responder.serve_remote(DocId::new(7), now, promote);
//! if store {
//!     requester.insert(DocId::new(7), ByteSize::from_kb(4), now);
//! }
//! ```

mod cache;
mod concurrent;
mod config;
mod entry;
mod expiration;
mod index;
mod placement;
mod policy;
mod stats;

pub use cache::{Cache, Evictions, InsertOutcome, InvariantViolation};
pub use concurrent::{ConcurrentCache, LockContention};
pub use config::CacheConfig;
pub use entry::{CacheEntry, EvictionReason, EvictionRecord};
pub use expiration::{ExpirationTracker, ExpirationWindow};
pub use placement::PlacementScheme;
pub use policy::{ExpirationFlavor, PolicyKind};
pub use stats::CacheStats;
