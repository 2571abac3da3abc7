//! Document placement schemes: the conventional ad-hoc rule and the
//! paper's expiration-age (EA) rule.

use coopcache_types::ExpirationAge;
use std::cmp::Ordering;
use std::fmt;

/// What the EA requester rule does when both expiration ages are exactly
/// equal — the point where the paper's two statements of the rule diverge
/// (§3.4 strict ">", §3.5 "≥").
///
/// Whatever the choice, the responder rule is its exact complement, so a
/// tie never leads to both sides (or neither side) refreshing the
/// document's lease on life.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TieBreak {
    /// §3.4: on a tie the requester does **not** store; the responder
    /// keeps (promotes) its copy. This is the default, being the reading
    /// consistent with the paper's Table 2.
    #[default]
    ResponderKeeps,
    /// §3.5: on a tie the requester stores and the responder lets its
    /// copy age out. Ablation variant (ABL-T).
    RequesterStores,
}

impl fmt::Display for TieBreak {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ResponderKeeps => f.write_str("responder-keeps"),
            Self::RequesterStores => f.write_str("requester-stores"),
        }
    }
}

/// A document placement scheme for cooperative caching.
///
/// The scheme answers the three decisions that arise when a miss is served
/// through the group (paper §3.4):
///
/// 1. should the **requester** store the copy it just received?
/// 2. should the **responder** refresh (promote) its own copy after
///    serving a remote hit?
/// 3. in a hierarchy, should a **parent** that resolved a miss keep a
///    copy on the way down? The parent decides with the requester rule,
///    its own age in the requester's place (paper §3.4: "If the Cache
///    Expiration Age of the parent cache is greater than that of the
///    Requester, it stores a copy").
///
/// [`PlacementScheme::AdHoc`] answers yes / yes / yes — the behaviour of
/// every pre-existing cooperative proxy, which the paper shows causes
/// uncontrolled replication. [`PlacementScheme::Ea`] decides each question
/// by comparing cache expiration ages so a replica is only created (or
/// kept alive) where it is expected to survive longest.
///
/// The paper states the requester rule twice with different tie handling
/// (§3.4 strict ">", §3.5 "≥"). The choice is the explicit [`TieBreak`]
/// config: [`PlacementScheme::Ea`] is `ea(TieBreak::ResponderKeeps)` (the
/// strict form, consistent with the paper's Table 2);
/// [`PlacementScheme::EaTieStore`] is `ea(TieBreak::RequesterStores)`
/// (the §3.5 reading, compared in the ABL-T ablation bench).
///
/// # Example
///
/// ```
/// use coopcache_core::PlacementScheme;
/// use coopcache_types::{DurationMs, ExpirationAge};
///
/// let busy = ExpirationAge::finite(DurationMs::from_secs(5));
/// let idle = ExpirationAge::finite(DurationMs::from_secs(500));
///
/// // A contended requester does not replicate a doc a roomier peer holds.
/// assert!(!PlacementScheme::Ea.requester_stores(busy, idle));
/// // The ad-hoc scheme always replicates.
/// assert!(PlacementScheme::AdHoc.requester_stores(busy, idle));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PlacementScheme {
    /// Always store at the requester, always refresh at the responder —
    /// the conventional scheme (paper §2).
    #[default]
    AdHoc,
    /// The expiration-age based scheme (paper §3), strict-">" requester
    /// rule (ties do not replicate).
    Ea,
    /// The §3.5 "greater than or equal" reading of the EA requester rule
    /// (ties replicate at the requester, and the responder lets its copy
    /// age out). Ablation variant.
    EaTieStore,
}

impl PlacementScheme {
    /// The EA scheme with an explicit tie rule.
    #[must_use]
    pub const fn ea(tie: TieBreak) -> Self {
        match tie {
            TieBreak::ResponderKeeps => Self::Ea,
            TieBreak::RequesterStores => Self::EaTieStore,
        }
    }

    /// The tie rule in force (`None` for ad-hoc, which never compares
    /// ages).
    #[must_use]
    pub const fn tie_break(self) -> Option<TieBreak> {
        match self {
            Self::AdHoc => None,
            Self::Ea => Some(TieBreak::ResponderKeeps),
            Self::EaTieStore => Some(TieBreak::RequesterStores),
        }
    }

    /// Decisions 1 and 3: does the requester (or a parent, for its
    /// child) store the document it received from a supplier (sibling
    /// responder, parent, or — degenerately — the origin server)?
    ///
    /// EA stores when strictly older than the supplier; an exact tie is
    /// resolved by the [`TieBreak`] config.
    #[must_use]
    pub fn requester_stores(self, requester: ExpirationAge, supplier: ExpirationAge) -> bool {
        match self.tie_break() {
            None => true,
            Some(tie) => match requester.cmp(&supplier) {
                Ordering::Greater => true,
                Ordering::Equal => tie == TieBreak::RequesterStores,
                Ordering::Less => false,
            },
        }
    }

    /// Decision 2: does the responder promote its copy to the head of its
    /// replacement order after serving a remote hit?
    ///
    /// Always the exact complement of the requester rule — on a tie the
    /// copy is refreshed at whichever side [`TieBreak`] keeps it — so for
    /// every age pair exactly one side keeps the document's lease on life:
    /// the paper's worst-case guarantee (§3.5) without double-refreshing.
    #[must_use]
    pub fn responder_promotes(self, responder: ExpirationAge, requester: ExpirationAge) -> bool {
        match self.tie_break() {
            None => true,
            Some(tie) => match responder.cmp(&requester) {
                Ordering::Greater => true,
                Ordering::Equal => tie == TieBreak::ResponderKeeps,
                Ordering::Less => false,
            },
        }
    }

    /// All schemes, for sweeps.
    #[must_use]
    pub const fn all() -> [PlacementScheme; 3] {
        [Self::AdHoc, Self::Ea, Self::EaTieStore]
    }
}

impl fmt::Display for PlacementScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::AdHoc => f.write_str("ad-hoc"),
            Self::Ea => f.write_str("ea"),
            Self::EaTieStore => f.write_str("ea-tie-store"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coopcache_types::DurationMs;

    fn fin(ms: u64) -> ExpirationAge {
        ExpirationAge::finite(DurationMs::from_millis(ms))
    }

    const INF: ExpirationAge = ExpirationAge::Infinite;

    #[test]
    fn ad_hoc_always_says_yes() {
        for a in [fin(0), fin(100), INF] {
            for b in [fin(0), fin(100), INF] {
                assert!(PlacementScheme::AdHoc.requester_stores(a, b));
                assert!(PlacementScheme::AdHoc.responder_promotes(a, b));
            }
        }
    }

    #[test]
    fn ea_requester_rule_is_strict() {
        let ea = PlacementScheme::Ea;
        assert!(ea.requester_stores(fin(200), fin(100)));
        assert!(
            !ea.requester_stores(fin(100), fin(100)),
            "ties do not store"
        );
        assert!(!ea.requester_stores(fin(50), fin(100)));
        assert!(ea.requester_stores(INF, fin(100)));
        assert!(!ea.requester_stores(fin(50), INF));
        assert!(!ea.requester_stores(INF, INF), "infinite ties do not store");
    }

    #[test]
    fn ea_responder_rule_promotes_on_tie() {
        let ea = PlacementScheme::Ea;
        assert!(ea.responder_promotes(fin(200), fin(100)));
        assert!(ea.responder_promotes(fin(100), fin(100)), "ties promote");
        assert!(!ea.responder_promotes(fin(50), fin(100)));
        assert!(ea.responder_promotes(INF, fin(100)));
        assert!(ea.responder_promotes(INF, INF));
    }

    #[test]
    fn ea_tie_store_variant_mirrors() {
        let v = PlacementScheme::EaTieStore;
        assert!(v.requester_stores(fin(100), fin(100)), "ties store");
        assert!(v.requester_stores(INF, INF));
        assert!(!v.requester_stores(fin(50), fin(100)));
        assert!(
            !v.responder_promotes(fin(100), fin(100)),
            "ties do not promote"
        );
        assert!(v.responder_promotes(fin(200), fin(100)));
    }

    #[test]
    fn ea_decisions_are_complementary() {
        // Exactly one of {requester stores, responder promotes} holds for
        // every age pair, under both EA variants: the paper's guarantee
        // that a surviving copy always retains a lease on life, without
        // double-refreshing.
        for scheme in [PlacementScheme::Ea, PlacementScheme::EaTieStore] {
            for a in [fin(0), fin(10), fin(999), INF] {
                for b in [fin(0), fin(10), fin(999), INF] {
                    let stores = scheme.requester_stores(a, b);
                    let promotes = scheme.responder_promotes(b, a);
                    assert_ne!(
                        stores, promotes,
                        "{scheme}: requester {a} / responder {b}: stores={stores} promotes={promotes}"
                    );
                }
            }
        }
    }

    #[test]
    fn tie_break_default_is_responder_keeps() {
        // Pins the chosen default: the §3.4 strict-">" reading.
        assert_eq!(TieBreak::default(), TieBreak::ResponderKeeps);
        assert_eq!(
            PlacementScheme::ea(TieBreak::default()),
            PlacementScheme::Ea
        );
        assert_eq!(
            PlacementScheme::Ea.tie_break(),
            Some(TieBreak::ResponderKeeps)
        );
        assert_eq!(
            PlacementScheme::EaTieStore.tie_break(),
            Some(TieBreak::RequesterStores)
        );
        assert_eq!(PlacementScheme::AdHoc.tie_break(), None);
        // Under the default, a tie does not store at the requester and
        // does promote at the responder.
        let ea = PlacementScheme::ea(TieBreak::default());
        assert!(!ea.requester_stores(fin(100), fin(100)));
        assert!(ea.responder_promotes(fin(100), fin(100)));
    }

    #[test]
    fn tie_break_display() {
        assert_eq!(TieBreak::ResponderKeeps.to_string(), "responder-keeps");
        assert_eq!(TieBreak::RequesterStores.to_string(), "requester-stores");
    }

    #[test]
    fn display_and_all() {
        assert_eq!(PlacementScheme::AdHoc.to_string(), "ad-hoc");
        assert_eq!(PlacementScheme::Ea.to_string(), "ea");
        assert_eq!(PlacementScheme::EaTieStore.to_string(), "ea-tie-store");
        assert_eq!(PlacementScheme::all().len(), 3);
        assert_eq!(PlacementScheme::default(), PlacementScheme::AdHoc);
    }
}
