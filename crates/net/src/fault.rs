//! Deterministic fault injection for the live cluster.
//!
//! A [`FaultPlan`] is a seeded, cluster-wide schedule of per-daemon
//! misbehaviour: which daemon drops ICP traffic, delays replies, resets
//! document connections, or truncates bodies mid-transfer.
//! The plan is compiled per daemon into a [`FaultState`] that the server
//! loops consult at each injection point — the same loops a fault-free
//! daemon runs. A daemon without rules carries no state at all, so with
//! chaos off each datagram or frame pays one `Option` check.
//!
//! Determinism: probabilistic rules draw from a per-rule splitmix64
//! stream seeded from `(plan seed, daemon id, rule index)`. With a
//! single-threaded client driving the cluster, every daemon consults its
//! rules in the same order on every run, so a fixed seed reproduces the
//! same fault schedule exactly.

use crate::lock;
use coopcache_types::{CacheId, SplitMix64};
use std::sync::Mutex;
use std::time::Duration;

/// What a fault does when it fires at the daemon it is attached to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Ignore an incoming ICP query (a lost request datagram).
    DropIcpQuery,
    /// Handle the query but never send the reply (a lost reply datagram).
    DropIcpReply,
    /// Delay the ICP reply by the given duration (a slow peer).
    DelayIcpReply(Duration),
    /// Read the document request, then drop the connection without
    /// replying — a peer that died between ICP and fetch, or crashed
    /// mid-transfer.
    ResetDoc,
    /// Send the response header but only half the body, then close.
    TruncateDocBody,
}

impl FaultKind {
    /// True for the kinds consulted on the ICP (UDP) path.
    #[must_use]
    const fn is_icp(self) -> bool {
        matches!(
            self,
            Self::DropIcpQuery | Self::DropIcpReply | Self::DelayIcpReply(_)
        )
    }
}

/// How often a rule fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Every opportunity.
    Always,
    /// Only the first `n` opportunities.
    FirstN(u64),
    /// Every opportunity after the first `n`. Lets chaos target a
    /// *reused* connection: the first exchanges succeed (so the client
    /// parks the connection in its pool), later frames on it fault.
    AfterFirstN(u64),
    /// Each opportunity fires with `pct`% probability, drawn from the
    /// plan's seeded PRNG (deterministic for a fixed seed).
    Probability(u8),
}

/// One rule: daemon `at` misbehaves in the given way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRule {
    /// The daemon the fault is injected at.
    pub at: CacheId,
    /// What happens.
    pub kind: FaultKind,
    /// How often.
    pub mode: FaultMode,
}

/// A seeded, cluster-wide fault schedule. An empty plan (the default)
/// injects nothing anywhere.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan with the given PRNG seed.
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            rules: Vec::new(),
        }
    }

    /// Adds a rule (builder style).
    #[must_use]
    pub fn rule(mut self, at: CacheId, kind: FaultKind, mode: FaultMode) -> Self {
        self.rules.push(FaultRule { at, kind, mode });
        self
    }

    /// True when the plan injects nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Compiles the rules targeting daemon `at`, or `None` when the
    /// daemon is fault-free (so its frame loop skips the draw: one
    /// `Option` check per frame).
    #[must_use]
    pub(crate) fn compile(&self, at: CacheId) -> Option<FaultState> {
        let armed: Vec<ArmedRule> = self
            .rules
            .iter()
            .enumerate()
            .filter(|(_, r)| r.at == at)
            .map(|(index, r)| ArmedRule {
                kind: r.kind,
                mode: r.mode,
                fired: 0,
                seen: 0,
                rng: SplitMix64::new(
                    self.seed
                        ^ (u64::from(at.as_u16()) << 32)
                        ^ (index as u64).wrapping_mul(0x9E37),
                ),
            })
            .collect();
        if armed.is_empty() {
            None
        } else {
            Some(FaultState {
                rules: Mutex::new(armed),
            })
        }
    }
}

/// The decision for one incoming ICP query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum IcpFault {
    /// Behave normally.
    None,
    /// Drop the query unprocessed.
    DropQuery,
    /// Process the query but drop the reply.
    DropReply,
    /// Sleep before sending the reply.
    DelayReply(Duration),
}

/// The decision for one accepted document connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DocFault {
    /// Behave normally.
    None,
    /// Read the request, then close without replying.
    Reset,
    /// Reply, but send only half the body.
    Truncate,
}

/// One compiled rule plus its firing state.
#[derive(Debug)]
struct ArmedRule {
    kind: FaultKind,
    mode: FaultMode,
    fired: u64,
    seen: u64,
    rng: SplitMix64,
}

impl ArmedRule {
    /// Consults the mode (advancing counters/PRNG) and reports firing.
    fn fires(&mut self) -> bool {
        let past = self.seen;
        self.seen += 1;
        let fire = match self.mode {
            FaultMode::Always => true,
            FaultMode::FirstN(n) => self.fired < n,
            FaultMode::AfterFirstN(n) => past >= n,
            FaultMode::Probability(pct) => self.rng.next_u64() % 100 < u64::from(pct.min(100)),
        };
        if fire {
            self.fired += 1;
        }
        fire
    }
}

/// The per-daemon compiled view of a [`FaultPlan`], shared with the
/// daemon's server threads.
#[derive(Debug)]
pub(crate) struct FaultState {
    rules: Mutex<Vec<ArmedRule>>,
}

impl FaultState {
    /// The fault (if any) to apply to the next incoming ICP query. The
    /// first firing ICP rule wins.
    pub(crate) fn icp_fault(&self) -> IcpFault {
        for rule in lock(&self.rules).iter_mut().filter(|r| r.kind.is_icp()) {
            if rule.fires() {
                return match rule.kind {
                    FaultKind::DropIcpQuery => IcpFault::DropQuery,
                    FaultKind::DropIcpReply => IcpFault::DropReply,
                    FaultKind::DelayIcpReply(d) => IcpFault::DelayReply(d),
                    _ => IcpFault::None,
                };
            }
        }
        IcpFault::None
    }

    /// The fault (if any) to apply to the next accepted document
    /// connection. The first firing document rule wins.
    pub(crate) fn doc_fault(&self) -> DocFault {
        for rule in lock(&self.rules).iter_mut().filter(|r| !r.kind.is_icp()) {
            if rule.fires() {
                return match rule.kind {
                    FaultKind::ResetDoc => DocFault::Reset,
                    FaultKind::TruncateDocBody => DocFault::Truncate,
                    _ => DocFault::None,
                };
            }
        }
        DocFault::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl FaultState {
        /// Every rule's `(seen, fired)` counts, in plan order: equal
        /// counts mean the same draws were taken.
        pub(crate) fn draws(&self) -> Vec<(u64, u64)> {
            lock(&self.rules)
                .iter()
                .map(|r| (r.seen, r.fired))
                .collect()
        }
    }

    fn c(i: u16) -> CacheId {
        CacheId::new(i)
    }

    #[test]
    fn empty_plan_compiles_to_nothing() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        assert!(plan.compile(c(0)).is_none());
    }

    #[test]
    fn rules_only_arm_their_target_daemon() {
        let plan = FaultPlan::seeded(1).rule(c(1), FaultKind::ResetDoc, FaultMode::Always);
        assert!(plan.compile(c(0)).is_none());
        let state = plan.compile(c(1)).unwrap();
        assert_eq!(state.doc_fault(), DocFault::Reset);
        assert_eq!(state.icp_fault(), IcpFault::None);
    }

    #[test]
    fn first_n_fires_exactly_n_times() {
        let plan = FaultPlan::seeded(1).rule(c(0), FaultKind::DropIcpQuery, FaultMode::FirstN(2));
        let state = plan.compile(c(0)).unwrap();
        assert_eq!(state.icp_fault(), IcpFault::DropQuery);
        assert_eq!(state.icp_fault(), IcpFault::DropQuery);
        assert_eq!(state.icp_fault(), IcpFault::None);
    }

    #[test]
    fn after_first_n_skips_then_always_fires() {
        let plan = FaultPlan::seeded(1).rule(c(0), FaultKind::ResetDoc, FaultMode::AfterFirstN(2));
        let state = plan.compile(c(0)).unwrap();
        assert_eq!(state.doc_fault(), DocFault::None);
        assert_eq!(state.doc_fault(), DocFault::None);
        assert_eq!(state.doc_fault(), DocFault::Reset);
        assert_eq!(state.doc_fault(), DocFault::Reset);
    }

    #[test]
    fn probability_is_deterministic_per_seed() {
        let draw = |seed: u64| -> Vec<bool> {
            let plan =
                FaultPlan::seeded(seed).rule(c(0), FaultKind::ResetDoc, FaultMode::Probability(50));
            let state = plan.compile(c(0)).unwrap();
            (0..64)
                .map(|_| state.doc_fault() == DocFault::Reset)
                .collect()
        };
        assert_eq!(draw(7), draw(7), "same seed, same schedule");
        assert_ne!(draw(7), draw(8), "different seed, different schedule");
        let fires = draw(7).iter().filter(|&&b| b).count();
        assert!((10..=54).contains(&fires), "~50% of 64, got {fires}");
    }

    #[test]
    fn icp_and_doc_rules_do_not_cross_paths() {
        let plan = FaultPlan::seeded(3)
            .rule(
                c(0),
                FaultKind::DelayIcpReply(Duration::from_millis(5)),
                FaultMode::Always,
            )
            .rule(c(0), FaultKind::TruncateDocBody, FaultMode::Always);
        let state = plan.compile(c(0)).unwrap();
        assert_eq!(
            state.icp_fault(),
            IcpFault::DelayReply(Duration::from_millis(5))
        );
        assert_eq!(state.doc_fault(), DocFault::Truncate);
    }

    #[test]
    fn probability_pct_is_capped_at_100() {
        let plan =
            FaultPlan::seeded(9).rule(c(0), FaultKind::ResetDoc, FaultMode::Probability(255));
        let state = plan.compile(c(0)).unwrap();
        for _ in 0..16 {
            assert_eq!(state.doc_fault(), DocFault::Reset);
        }
    }
}
