//! Document placement schemes: the conventional ad-hoc rule and the
//! paper's expiration-age (EA) rule.

use coopcache_types::ExpirationAge;
use std::fmt;

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
/// (§3.4 strict ">", §3.5 "≥"). [`PlacementScheme::Ea`] is the strict
/// form, consistent with the paper's Table 2: on a tie the requester does
/// not store and the responder keeps its copy.
/// [`PlacementScheme::EaTieStore`] is the §3.5 reading, compared in the
/// ABL-T ablation bench: on a tie the requester stores and the responder
/// lets its copy age out.
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
    /// Decisions 1 and 3: does the requester (or a parent, for its
    /// child) store the document it received from a supplier (sibling
    /// responder, parent, or — degenerately — the origin server)?
    ///
    /// EA stores when strictly older than the supplier; on an exact tie
    /// only [`PlacementScheme::EaTieStore`] stores.
    #[must_use]
    pub fn requester_stores(self, requester: ExpirationAge, supplier: ExpirationAge) -> bool {
        match self {
            Self::AdHoc => true,
            Self::Ea => requester > supplier,
            Self::EaTieStore => requester >= supplier,
        }
    }

    /// Decision 2: does the responder promote its copy to the head of its
    /// replacement order after serving a remote hit?
    ///
    /// Always the exact complement of the requester rule — on a tie the
    /// copy is refreshed at whichever side the scheme keeps it — so for
    /// every age pair exactly one side keeps the document's lease on life:
    /// the paper's worst-case guarantee (§3.5) without double-refreshing.
    #[must_use]
    pub fn responder_promotes(self, responder: ExpirationAge, requester: ExpirationAge) -> bool {
        match self {
            Self::AdHoc => true,
            Self::Ea => responder >= requester,
            Self::EaTieStore => responder > requester,
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
    fn rule_table_covers_every_scheme_and_age_order() {
        // (requester, supplier) age pairs, finite and infinite, with the
        // requester below, equal to and above the supplier.
        let rows = [
            [(fin(50), fin(100)), (fin(100), INF)],
            [(fin(100), fin(100)), (INF, INF)],
            [(fin(200), fin(100)), (INF, fin(100))],
        ];
        for scheme in PlacementScheme::all() {
            // Per row: (requester stores, responder promotes).
            let expected = match scheme {
                PlacementScheme::AdHoc => [(true, true); 3],
                PlacementScheme::Ea => [(false, true), (false, true), (true, false)],
                PlacementScheme::EaTieStore => [(false, true), (true, false), (true, false)],
            };
            for (pairs, (stores, promotes)) in rows.into_iter().zip(expected) {
                for (requester, supplier) in pairs {
                    let got = (
                        scheme.requester_stores(requester, supplier),
                        scheme.responder_promotes(supplier, requester),
                    );
                    assert_eq!(
                        got,
                        (stores, promotes),
                        "{scheme}: {requester} from {supplier}"
                    );
                }
            }
        }
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
