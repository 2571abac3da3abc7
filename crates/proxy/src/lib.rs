#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::panic, clippy::unreachable))]
#![warn(missing_docs)]
//! The cooperative caching protocol layer.
//!
//! This crate turns the single-cache engine of `coopcache-core` into a
//! *cooperating group*: ICP query/reply for document location, HTTP
//! request/response with the EA scheme's piggybacked cache expiration ages
//! (the protocol's only addition — no extra messages, no extra
//! connections), and the two architectures the paper discusses:
//!
//! * [`DistributedGroup`] — flat peers, the configuration of all the
//!   paper's experiments;
//! * [`HierarchicalGroup`] — a parent/child tree where misses resolve
//!   upward and each parent applies the EA parent rule on the way down.
//!
//! Everything here is I/O-free: [`ProxyNode`] exposes pure protocol
//! handlers, [`Requester`] is the request lifecycle around them (lookup,
//! ICP round, fetch, failover, origin), and [`SpanRecorder`] builds that
//! lifecycle's span tree. The synchronous driver, the discrete-event
//! simulator (`coopcache-sim`) and the real-socket runtime
//! (`coopcache-net`) all share the three, so every execution mode runs
//! identical placement logic and the same protocol sequence, and traces
//! it in one shape.
//!
//! # Example
//!
//! ```
//! use coopcache_proxy::{DistributedGroup, RequestOutcome};
//! use coopcache_core::{PlacementScheme, PolicyKind};
//! use coopcache_types::{ByteSize, CacheId, DocId, Timestamp};
//!
//! let mut group = DistributedGroup::new(
//!     4, ByteSize::from_mb(1), PolicyKind::Lru, PlacementScheme::Ea);
//!
//! // Cache 0 misses and fetches from the origin...
//! let doc = DocId::new(42);
//! let size = ByteSize::from_kb(8);
//! group.handle_request(CacheId::new(0), doc, size, Timestamp::from_secs(1));
//! // ...then cache 1 finds it at cache 0 via ICP.
//! let out = group.handle_request(CacheId::new(1), doc, size, Timestamp::from_secs(2));
//! assert!(matches!(out, RequestOutcome::RemoteHit { .. }));
//! ```

mod bloom;
mod concurrent;
mod discovery;
mod distributed;
mod hashring;
mod hierarchy;
mod message;
mod node;
mod outcome;
mod requester;
mod spans;
mod store;

pub use bloom::BloomFilter;
pub use concurrent::ConcurrentNode;
pub use discovery::{Discovery, ProtocolStats};
pub use distributed::DistributedGroup;
pub use hashring::{HashRing, HashRoutedGroup};
pub use hierarchy::{HierarchicalGroup, TopologyError};
pub use message::{HttpRequest, HttpResponse, IcpQuery, IcpReply};
pub use node::ProxyNode;
pub use outcome::RequestOutcome;
pub use requester::{Requester, RequesterAction, RequesterInput};
pub use spans::{FetchResult, SeqSpanIds, SpanRecorder, Stamp};
