#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::large_stack_arrays)]
#![warn(unreachable_pub)]
//! Live cooperative caching over real sockets.
//!
//! The paper ran its simulator instances on several department machines,
//! "communicating via UDP and TCP for ICP and HTTP connections
//! respectively" (§4.1). This crate is that runtime, self-contained on
//! loopback: each [`CacheDaemon`] wraps the same I/O-free
//! [`coopcache_proxy::ProxyNode`] the simulators use, serving ICP over a
//! UDP socket and documents over TCP with the EA scheme's expiration ages
//! piggybacked in the binary wire format ([`WireMessage`]).
//!
//! [`LoopbackCluster`] assembles a whole group plus a stub origin
//! server, so the full protocol — local lookup, ICP fan-out, peer fetch,
//! origin fallback — runs over genuine sockets with genuine concurrency
//! (including the doc-vanished-between-ICP-and-fetch race). One
//! [`ClusterConfig`] configures every daemon; it carries only what some
//! caller varies (cache size, group size, scheme, shards, timeouts,
//! quarantine, faults, pooling), and the rest — LRU, the inbound
//! connection cap, the pool's idle deadline, the 5 % memory floor, one
//! series sample per `OP_SERIES` probe — is fixed in the daemon.
//!
//! Peer failures never surface to clients: the fetch starts at the first
//! positive ICP replier and fails over through the later ones, pulled
//! from the round in arrival order (with bounded retries), to the
//! origin, and repeatedly failing peers are quarantined
//! with exponential backoff. A seeded [`FaultPlan`] injects dropped ICP
//! traffic, refused/reset connections and truncated bodies
//! deterministically for chaos testing (see `ClusterConfig::faults`).
//!
//! ```no_run
//! use coopcache_net::LoopbackCluster;
//! use coopcache_core::PlacementScheme;
//! use coopcache_types::{ByteSize, DocId};
//!
//! let cluster = LoopbackCluster::start(4, ByteSize::from_kb(64), PlacementScheme::Ea)?;
//! cluster.request(0, DocId::new(1), ByteSize::from_kb(4))?; // miss
//! let out = cluster.request(1, DocId::new(1), ByteSize::from_kb(4))?; // remote hit
//! assert!(out.is_remote_hit());
//! cluster.shutdown();
//! # Ok::<(), std::io::Error>(())
//! ```

mod clock;
mod cluster;
mod daemon;
mod fault;
mod memory;
mod origin;
mod pool;
mod stats;
mod wire;

pub use cluster::{ClusterConfig, LoopbackCluster};
pub use daemon::{CacheDaemon, ServeSource};
pub use fault::{FaultKind, FaultMode, FaultPlan, FaultRule};
pub use stats::{scrape_series, scrape_stats, MAX_STATS_BODY};
pub use wire::{DecodeError, WireMessage, FRAME_V2, MAGIC, MAX_FRAME_LEN};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks a mutex, recovering the data from a poisoned lock: every state
/// behind this crate's locks stays valid, so a panicked thread should
/// degrade a daemon, not wedge it or its shutdown.
fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}
