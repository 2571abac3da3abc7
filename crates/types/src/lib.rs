#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::panic, clippy::unreachable))]
#![warn(missing_docs)]
//! Shared vocabulary types for the `coopcache` workspace.
//!
//! Every crate in the workspace speaks in terms of the newtypes defined here:
//! document and node identifiers ([`DocId`], [`CacheId`], [`ClientId`]),
//! simulated wall-clock time ([`Timestamp`], [`DurationMs`]), byte quantities
//! ([`ByteSize`]), trace records ([`Request`]) and the paper's central
//! quantity, the [`ExpirationAge`] of a cache.
//!
//! The types are deliberately small `Copy` newtypes (Rust API guideline
//! C-NEWTYPE): they make it impossible to, say, pass a client id where a
//! cache id is expected, or to confuse a point in time with a duration.
//!
//! # Example
//!
//! ```
//! use coopcache_types::{ByteSize, DocId, Request, ClientId, Timestamp};
//!
//! let req = Request::new(
//!     Timestamp::from_millis(1_000),
//!     ClientId::new(7),
//!     DocId::new(42),
//!     ByteSize::from_bytes(4096),
//! );
//! assert_eq!(req.size.as_bytes(), 4096);
//! ```

mod expage;
mod id;
mod mix;
mod request;
mod size;
mod time;

pub use expage::ExpirationAge;
pub use id::{CacheId, ClientId, DocId};
pub use mix::{mix64, splitmix64, SplitMix64};
pub use request::Request;
pub use size::ByteSize;
pub use time::{DurationMs, Timestamp};
