//! The requester's side of the protocol, written once as a state machine
//! with no I/O.
//!
//! Every execution mode runs one sequence (paper §3): a local lookup; on a
//! miss, an ICP query to every peer; a fetch from a positive replier with
//! both expiration ages piggybacked, failing over to the next one when the
//! fetch comes back empty or fails; an origin fetch once no candidate is
//! left. [`Requester`] is that sequence and nothing else: it owns no
//! cache, performs no I/O and never allocates. A driver — the synchronous
//! [`crate::DistributedGroup`], the discrete-event simulator, the live
//! daemon — feeds it [`RequesterInput`]s and carries out the
//! [`RequesterAction`] each one returns. Candidate order is not the
//! machine's: whatever answers [`RequesterAction::NextReply`] decides it.
//!
//! # Transitions
//!
//! The state is the action the machine waits on:
//!
//! | pending \ input | `Start` | `IcpReply` | `RoundOver` | `Fetched` | `NotFound` | `FetchFailed` | `OriginServed` |
//! |---|---|---|---|---|---|---|---|
//! | `Lookup` | hit: `Done(LocalHit)`; miss: `NextReply` | — | — | — | — | — | — |
//! | `NextReply` | — | hit: `Fetch`; miss: `NextReply` | `FetchOrigin` | — | — | — | — |
//! | `Fetch` | — | — | — | `Done(RemoteHit)` | `NextReply` | `NextReply` (failover) | — |
//! | `FetchOrigin` | — | — | — | — | — | — | `Done(Miss)` |
//! | `Done` | — | — | — | — | — | — | — |
//!
//! "—" is a misplaced input: the state is unchanged and the pending action
//! is issued again. After `FetchFailed`, the next `Fetch` or `FetchOrigin`
//! carries the failed candidate as `failover_from`; an empty fetch
//! (`NotFound`) is an honest answer, not a failover.

use crate::outcome::RequestOutcome;
use coopcache_types::CacheId;

/// What a driver tells the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequesterInput {
    /// The result of the local lookup.
    Start {
        /// The requester's own cache held the document.
        local_hit: bool,
    },
    /// One peer's ICP reply.
    IcpReply {
        /// The peer that answered.
        peer: CacheId,
        /// Whether it holds the document.
        hit: bool,
    },
    /// The ICP round has no reply left to give.
    RoundOver,
    /// The candidate served the document.
    Fetched {
        /// The requester kept a copy (its store rule, paper §3.4).
        stored: bool,
        /// The responder refreshed its copy (its promote rule, §3.5).
        promoted: bool,
    },
    /// The candidate answered but no longer holds the document.
    NotFound,
    /// The fetch from the candidate failed.
    FetchFailed,
    /// The origin served the document.
    OriginServed {
        /// The requester kept a copy.
        stored: bool,
    },
}

/// What the machine asks its driver to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RequesterAction {
    /// Look the document up locally, then feed [`RequesterInput::Start`].
    #[default]
    Lookup,
    /// Feed the round's next reply, or [`RequesterInput::RoundOver`].
    NextReply,
    /// Fetch the document from `peer`.
    Fetch {
        /// The candidate to fetch from.
        peer: CacheId,
        /// The candidate whose fetch failed just before, if any.
        failover_from: Option<CacheId>,
    },
    /// Fetch the document from the origin.
    FetchOrigin {
        /// The candidate whose fetch failed just before, if any.
        failover_from: Option<CacheId>,
    },
    /// The request is served.
    Done(RequestOutcome),
}

impl RequesterAction {
    /// The failed candidate this action fails over from, and where to:
    /// the next candidate, or `None` for the origin.
    #[must_use]
    pub fn failover(&self) -> Option<(CacheId, Option<CacheId>)> {
        match *self {
            Self::Fetch {
                peer,
                failover_from: Some(from),
            } => Some((from, Some(peer))),
            Self::FetchOrigin {
                failover_from: Some(from),
            } => Some((from, None)),
            _ => None,
        }
    }
}

/// One request's protocol state (see the module doc for the table): the
/// action it waits on, plus the candidate whose fetch failed while it
/// waits for the next reply.
///
/// # Example
///
/// ```
/// use coopcache_proxy::{Requester, RequesterAction as A, RequesterInput as In};
///
/// // A group miss: no peer holds the document.
/// let mut m = Requester::new();
/// assert_eq!(m.step(In::Start { local_hit: false }), A::NextReply);
/// assert_eq!(m.step(In::RoundOver), A::FetchOrigin { failover_from: None });
/// let done = m.step(In::OriginServed { stored: true });
/// assert!(matches!(done, A::Done(outcome) if !outcome.is_hit()));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Requester {
    pending: RequesterAction,
    failed: Option<CacheId>,
}

impl Requester {
    /// A request that has not been looked up yet.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            pending: RequesterAction::Lookup,
            failed: None,
        }
    }

    /// The action the machine is waiting on.
    #[must_use]
    pub fn pending(&self) -> RequesterAction {
        self.pending
    }

    /// Feeds one input and returns the next action. A misplaced input
    /// leaves the state unchanged and returns the pending action again.
    #[inline]
    pub fn step(&mut self, input: RequesterInput) -> RequesterAction {
        use RequesterAction as A;
        use RequesterInput as In;
        let failover_from = self.failed;
        (self.pending, self.failed) = match (self.pending, input) {
            (A::Lookup, In::Start { local_hit: true }) => (A::Done(RequestOutcome::LocalHit), None),
            (A::Lookup, In::Start { local_hit: false }) => (A::NextReply, None),
            (A::NextReply, In::IcpReply { peer, hit: true }) => (
                A::Fetch {
                    peer,
                    failover_from,
                },
                None,
            ),
            (A::NextReply, In::RoundOver) => (A::FetchOrigin { failover_from }, None),
            (A::Fetch { peer, .. }, In::Fetched { stored, promoted }) => {
                let outcome = RequestOutcome::RemoteHit {
                    responder: peer,
                    stored_locally: stored,
                    promoted_at_responder: promoted,
                };
                (A::Done(outcome), None)
            }
            (A::Fetch { .. }, In::NotFound) => (A::NextReply, None),
            (A::Fetch { peer, .. }, In::FetchFailed) => (A::NextReply, Some(peer)),
            (A::FetchOrigin { .. }, In::OriginServed { stored }) => {
                let outcome = RequestOutcome::Miss {
                    stored_locally: stored,
                    stored_at_ancestor: false,
                };
                (A::Done(outcome), None)
            }
            // A negative reply, or a misplaced input.
            _ => (self.pending, self.failed),
        };
        self.pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use RequesterAction as A;
    use RequesterInput as In;

    const P: CacheId = CacheId::new(1);
    const Q: CacheId = CacheId::new(2);
    const MISSED: In = In::Start { local_hit: false };
    const HIT_P: In = In::IcpReply { peer: P, hit: true };
    const NO: Option<A> = None;

    /// Every input, in the column order of [`TABLE`].
    #[rustfmt::skip]
    const INPUTS: [In; 9] = [
        In::Start { local_hit: true }, MISSED,
        In::IcpReply { peer: Q, hit: true }, In::IcpReply { peer: Q, hit: false },
        In::RoundOver, In::Fetched { stored: true, promoted: false },
        In::NotFound, In::FetchFailed, In::OriginServed { stored: false },
    ];

    const fn fetch_q(failover_from: Option<CacheId>) -> Option<A> {
        Some(A::Fetch {
            peer: Q,
            failover_from,
        })
    }

    const fn origin(failover_from: Option<CacheId>) -> Option<A> {
        Some(A::FetchOrigin { failover_from })
    }

    const fn remote_hit(responder: CacheId) -> Option<A> {
        Some(A::Done(RequestOutcome::RemoteHit {
            responder,
            stored_locally: true,
            promoted_at_responder: false,
        }))
    }

    const MISS: Option<A> = Some(A::Done(RequestOutcome::Miss {
        stored_locally: false,
        stored_at_ancestor: false,
    }));

    /// A state's name, the inputs that reach it from a fresh machine, and
    /// the action each of [`INPUTS`] returns there.
    type Row = (&'static str, &'static [In], [Option<A>; 9]);

    /// One row per state, reached by feeding its path to a fresh machine.
    /// Each cell is the action an input returns, or `NO` where the input
    /// is misplaced: then the state must stay unchanged and the pending
    /// action be returned again.
    #[rustfmt::skip]
    static TABLE: [Row; 10] = [
        ("lookup", &[], [Some(A::Done(RequestOutcome::LocalHit)), Some(A::NextReply), NO, NO, NO, NO, NO, NO, NO]),
        ("polling", &[MISSED], [NO, NO, fetch_q(None), Some(A::NextReply), origin(None), NO, NO, NO, NO]),
        ("polling after a failure", &[MISSED, HIT_P, In::FetchFailed], [NO, NO, fetch_q(Some(P)), Some(A::NextReply), origin(Some(P)), NO, NO, NO, NO]),
        ("polling after not-found", &[MISSED, HIT_P, In::NotFound], [NO, NO, fetch_q(None), Some(A::NextReply), origin(None), NO, NO, NO, NO]),
        ("fetching", &[MISSED, HIT_P], [NO, NO, NO, NO, NO, remote_hit(P), Some(A::NextReply), Some(A::NextReply), NO]),
        ("fetching after a failure", &[MISSED, HIT_P, In::FetchFailed, In::IcpReply { peer: Q, hit: true }], [NO, NO, NO, NO, NO, remote_hit(Q), Some(A::NextReply), Some(A::NextReply), NO]),
        ("origin", &[MISSED, In::RoundOver], [NO, NO, NO, NO, NO, NO, NO, NO, MISS]),
        ("origin after a failure", &[MISSED, HIT_P, In::FetchFailed, In::RoundOver], [NO, NO, NO, NO, NO, NO, NO, NO, MISS]),
        ("done locally", &[In::Start { local_hit: true }], [NO; 9]),
        ("done remotely", &[MISSED, HIT_P, In::Fetched { stored: true, promoted: false }], [NO; 9]),
    ];

    fn reach(path: &[In]) -> Requester {
        let mut m = Requester::new();
        for &input in path {
            m.step(input);
        }
        m
    }

    #[test]
    fn every_input_in_every_state() {
        for &(state, path, row) in &TABLE {
            for (input, expected) in INPUTS.into_iter().zip(row) {
                let before = reach(path);
                let mut m = before;
                let action = m.step(input);
                let case = format!("{state}, {input:?}");
                match expected {
                    Some(expected) => assert_eq!(action, expected, "{case}"),
                    None => assert_eq!(m, before, "{case}: a misplaced input moved the state"),
                }
                assert_eq!(action, m.pending(), "{case}: returns the pending action");
            }
        }
    }

    #[test]
    fn failover_pairs_the_failed_candidate_with_what_comes_next() {
        let after_p = A::Fetch {
            peer: Q,
            failover_from: Some(P),
        };
        assert_eq!(after_p.failover(), Some((P, Some(Q))));
        assert_eq!(origin(Some(P)).and_then(|a| a.failover()), Some((P, None)));
        assert_eq!(fetch_q(None).and_then(|a| a.failover()), None);
    }
}
