#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::panic, clippy::unreachable))]
//! Bounded model checking for the workspace's concurrency planes.
//!
//! This crate is a zero-dependency, in-tree cousin of CMC/loom-style
//! systematic concurrency testing. A model is a small, deterministic
//! re-statement of a real concurrent component: shared state is a plain
//! `Clone` struct built from [`MockAtomicU64`]/[`MockMutex`] shims, each
//! thread is a finite list of atomic steps ([`MockThread`]), and
//! [`explore`] enumerates *every* interleaving of those steps up to a
//! bounded depth, checking a user invariant after each one.
//!
//! What it can prove: for the modelled step granularity, no interleaving
//! of the given programs violates the invariant or deadlocks. What it
//! cannot prove: anything about code paths, step granularities, or weak
//! memory reorderings that the model does not express — models here are
//! sequentially consistent by construction, which matches the acquire/
//! release-or-stronger discipline enforced by `coopcache-lint`'s
//! `atomic-order` rule on the real code.
//!
//! Exploration is a seeded DFS with sleep-set pruning: commutative step
//! pairs (disjoint read/write footprints) are explored in one order only,
//! which keeps the full search exhaustive while skipping redundant
//! schedules. The invariant itself declares a read footprint to
//! [`explore`]; steps writing those variables are *visible* and never
//! commuted with each other, so the invariant observes every
//! intermediate state it could distinguish — provided its declared
//! footprint is honest, which is part of the model contract just like
//! step footprints. Everything is deterministic for a fixed seed;
//! changing the seed permutes visit order but never the verdict.

mod sched;
mod shim;

pub use sched::{explore, Config, MockThread, Outcome, Step, VarId, CONFLICTS_ALL};
pub use shim::{MockAtomicU64, MockMutex};
