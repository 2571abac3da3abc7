//! Hash-routed cooperative caching — the CARP / consistent-hashing
//! alternative the paper's related-work section cites (Karger et al. [8],
//! Wu & Yu [16]).
//!
//! Instead of searching the group (ICP) or deciding replication per
//! document (ad-hoc/EA), every document has a *home cache* determined by
//! a consistent-hash ring; requests that miss locally go straight to the
//! home. Exactly one copy exists per document, with zero discovery
//! traffic — but every shared document costs a remote hop, and home
//! assignment ignores popularity.

use crate::node::ProxyNode;
use crate::outcome::RequestOutcome;
use coopcache_core::{PlacementScheme, PolicyKind};
use coopcache_types::{splitmix64, ByteSize, CacheId, DocId, Timestamp};

/// A consistent-hash ring over cache ids with virtual nodes.
///
/// # Example
///
/// ```
/// use coopcache_proxy::HashRing;
/// use coopcache_types::{CacheId, DocId};
///
/// let ring = HashRing::new(4, 64);
/// let home = ring.home(DocId::new(42));
/// assert!(home.index() < 4);
/// assert_eq!(home, ring.home(DocId::new(42))); // stable
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashRing {
    /// (ring position, owner), sorted by position.
    points: Vec<(u64, CacheId)>,
}

impl HashRing {
    /// Builds a ring for `n` caches with `vnodes` virtual nodes each
    /// (more virtual nodes = smoother load split; 64–128 is typical).
    ///
    /// # Panics
    ///
    /// Panics if `n` or `vnodes` is zero.
    #[must_use]
    pub fn new(n: u16, vnodes: u16) -> Self {
        assert!(n > 0, "a ring needs at least one cache");
        assert!(vnodes > 0, "a ring needs at least one virtual node");
        let mut points = Vec::with_capacity(usize::from(n) * usize::from(vnodes));
        for cache in 0..n {
            for v in 0..vnodes {
                let key = (u64::from(cache) << 32) | u64::from(v);
                points.push((splitmix64(key), CacheId::new(cache)));
            }
        }
        points.sort_unstable();
        points.dedup_by_key(|(pos, _)| *pos);
        Self { points }
    }

    /// The cache responsible for a document: the first ring point at or
    /// after the document's hash, wrapping.
    #[must_use]
    pub fn home(&self, doc: DocId) -> CacheId {
        let h = splitmix64(doc.as_u64() ^ 0xD6E8_FEB8_6659_FD93);
        let idx = self.points.partition_point(|&(pos, _)| pos < h);
        self.points[idx % self.points.len()].1
    }

    /// Number of distinct ring points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the ring is empty (never constructible via `new`).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// A cache group where documents live only at their hash-assigned home.
///
/// Serves as the third placement baseline next to ad-hoc and EA: zero
/// replication and zero discovery messages by construction, at the price
/// of a remote hop for every locally requested shared document.
///
/// # Example
///
/// ```
/// use coopcache_proxy::HashRoutedGroup;
/// use coopcache_core::PolicyKind;
/// use coopcache_types::{ByteSize, CacheId, DocId, Timestamp};
///
/// let mut group = HashRoutedGroup::new(4, ByteSize::from_mb(1), PolicyKind::Lru);
/// let out = group.handle_request(
///     CacheId::new(0), DocId::new(9), ByteSize::from_kb(4), Timestamp::ZERO);
/// assert!(!out.is_hit());
/// ```
#[derive(Debug)]
pub struct HashRoutedGroup {
    nodes: Vec<ProxyNode>,
    ring: HashRing,
}

impl HashRoutedGroup {
    /// Creates a hash-routed group of `n` caches sharing `aggregate`
    /// bytes evenly, with 64 virtual nodes per cache.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn new(n: u16, aggregate: ByteSize, policy: PolicyKind) -> Self {
        assert!(n > 0, "a group needs at least one cache");
        let per_cache = aggregate.split_evenly(u64::from(n));
        let nodes = (0..n)
            .map(|i| {
                ProxyNode::new(
                    CacheId::new(i),
                    per_cache,
                    policy,
                    // The placement scheme is irrelevant: hash routing
                    // never replicates, so no EA decision ever fires.
                    PlacementScheme::AdHoc,
                )
            })
            .collect();
        Self {
            nodes,
            ring: HashRing::new(n, 64),
        }
    }

    /// Number of caches.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the group is empty (never constructible via `new`).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Read access to a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn node(&self, id: CacheId) -> &ProxyNode {
        &self.nodes[id.index()]
    }

    /// The ring (for inspecting home assignments).
    #[must_use]
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// Handles one client request at `requester`: a hit at the home
    /// cache is local (if the requester *is* the home) or remote; a miss
    /// is fetched from the origin and stored **only at the home**.
    ///
    /// # Panics
    ///
    /// Panics if `requester` is out of range.
    pub fn handle_request(
        &mut self,
        requester: CacheId,
        doc: DocId,
        size: ByteSize,
        now: Timestamp,
    ) -> RequestOutcome {
        assert!(requester.index() < self.nodes.len(), "unknown requester");
        let home = self.ring.home(doc);
        if home == requester {
            if self.nodes[home.index()]
                .handle_client_lookup(doc, now)
                .is_some()
            {
                return RequestOutcome::LocalHit;
            }
            let stored = self.nodes[home.index()].complete_origin_fetch(doc, size, now);
            return RequestOutcome::Miss {
                stored_locally: stored,
                stored_at_ancestor: false,
            };
        }
        // Remote home: serve from it (counts as a promoted remote hit) or
        // have it fetch and store on our behalf.
        if self.nodes[home.index()].cache().contains(doc) {
            self.nodes[home.index()].handle_client_lookup(doc, now);
            RequestOutcome::RemoteHit {
                responder: home,
                stored_locally: false,
                promoted_at_responder: true,
            }
        } else {
            let stored = self.nodes[home.index()].complete_origin_fetch(doc, size, now);
            RequestOutcome::Miss {
                stored_locally: false,
                stored_at_ancestor: stored,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    fn d(i: u64) -> DocId {
        DocId::new(i)
    }

    fn kb(n: u64) -> ByteSize {
        ByteSize::from_kb(n)
    }

    #[test]
    fn ring_assigns_every_cache_some_share() {
        let ring = HashRing::new(8, 64);
        let mut counts = [0usize; 8];
        for i in 0..80_000 {
            counts[ring.home(d(i)).index()] += 1;
        }
        for (i, &count) in counts.iter().enumerate() {
            // Perfect balance would be 10_000; allow generous skew.
            assert!(
                (5_000..17_000).contains(&count),
                "cache {i} got {count} of 80k docs"
            );
        }
    }

    #[test]
    fn ring_is_stable_and_deterministic() {
        let a = HashRing::new(4, 32);
        let b = HashRing::new(4, 32);
        assert_eq!(a, b);
        for i in 0..1_000 {
            assert_eq!(a.home(d(i)), b.home(d(i)));
        }
    }

    #[test]
    fn growing_the_ring_moves_few_documents() {
        // The consistent-hashing property: adding a cache relocates only
        // ~1/(n+1) of the documents.
        let before = HashRing::new(4, 64);
        let after = HashRing::new(5, 64);
        let moved = (0..50_000)
            .filter(|&i| {
                let b = before.home(d(i));
                let a = after.home(d(i));
                // Documents may only move TO the new cache.
                if b != a {
                    assert_eq!(a, CacheId::new(4), "doc {i} moved between old caches");
                    true
                } else {
                    false
                }
            })
            .count();
        let fraction = moved as f64 / 50_000.0;
        assert!(
            (0.10..0.35).contains(&fraction),
            "moved fraction {fraction}"
        );
    }

    #[test]
    fn exactly_one_copy_ever_exists() {
        let mut g = HashRoutedGroup::new(4, kb(400), PolicyKind::Lru);
        for i in 0..200u64 {
            g.handle_request(CacheId::new((i % 4) as u16), d(i % 50), kb(2), t(i));
        }
        let mut copies: std::collections::BTreeMap<DocId, usize> = Default::default();
        for idx in 0..4u16 {
            g.node(CacheId::new(idx))
                .cache()
                .for_each_resident(|e| *copies.entry(e.doc).or_default() += 1);
        }
        assert!(copies.values().all(|&c| c == 1), "found a replica");
        assert!(!copies.is_empty());
    }

    #[test]
    fn docs_live_at_their_home() {
        let mut g = HashRoutedGroup::new(3, kb(300), PolicyKind::Lru);
        for i in 0..60u64 {
            g.handle_request(CacheId::new(0), d(i), kb(1), t(i));
        }
        for idx in 0..3u16 {
            let id = CacheId::new(idx);
            g.node(id).cache().for_each_resident(|e| {
                assert_eq!(g.ring().home(e.doc), id, "doc {} strayed", e.doc);
            });
        }
    }

    #[test]
    fn request_outcomes_are_classified_correctly() {
        let mut g = HashRoutedGroup::new(2, kb(100), PolicyKind::Lru);
        // Find a doc homed at cache 1.
        let doc = (0..100)
            .map(d)
            .find(|&doc| g.ring().home(doc) == CacheId::new(1))
            .expect("some doc homes at cache 1");
        // Requested at cache 0: miss fetched+stored at the home.
        let out = g.handle_request(CacheId::new(0), doc, kb(2), t(0));
        assert_eq!(
            out,
            RequestOutcome::Miss {
                stored_locally: false,
                stored_at_ancestor: true
            }
        );
        // Again from cache 0: remote hit at the home.
        let out = g.handle_request(CacheId::new(0), doc, kb(2), t(1));
        assert!(out.is_remote_hit());
        // From cache 1 itself: local hit.
        let out = g.handle_request(CacheId::new(1), doc, kb(2), t(2));
        assert_eq!(out, RequestOutcome::LocalHit);
    }

    #[test]
    #[should_panic(expected = "at least one cache")]
    fn zero_ring_panics() {
        let _ = HashRing::new(0, 8);
    }
}
