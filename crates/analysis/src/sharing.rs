//! Cross-client sharing analysis.
//!
//! Cooperative caching only pays when clients of *different* proxies
//! request the same documents (Wolman et al., SOSP '99 — the paper's
//! reference [15]). This module splits every re-reference into
//! *same-client* (served by any private cache) vs *cross-client-first*
//! (only a shared or cooperative cache can catch it).

use coopcache_types::{ClientId, DocId, Request};
use std::collections::BTreeMap;

/// How a request stream decomposes by who touched each document before.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SharingProfile {
    /// First-ever references (cold).
    pub cold: u64,
    /// Re-references by a client that saw the document before.
    pub same_client: u64,
    /// First touch by this client of a document some *other* client saw
    /// first — the cooperative-caching opportunity.
    pub cross_client: u64,
}

impl SharingProfile {
    /// Computes the decomposition of a request stream.
    #[must_use]
    pub fn compute<'a>(stream: impl IntoIterator<Item = &'a Request>) -> Self {
        let mut seen_by: BTreeMap<DocId, Vec<ClientId>> = BTreeMap::new();
        let mut profile = Self::default();
        for r in stream {
            let clients = seen_by.entry(r.doc).or_default();
            if clients.is_empty() {
                profile.cold += 1;
            } else if clients.contains(&r.client) {
                profile.same_client += 1;
            } else {
                profile.cross_client += 1;
            }
            if !clients.contains(&r.client) {
                clients.push(r.client);
            }
        }
        profile
    }

    /// Total requests analysed.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.cold + self.same_client + self.cross_client
    }

    /// Fraction of re-references that cross client boundaries — the share
    /// of cache-able traffic only cooperation can serve.
    #[must_use]
    pub fn cross_client_share(&self) -> f64 {
        let rereferences = self.same_client + self.cross_client;
        if rereferences == 0 {
            0.0
        } else {
            self.cross_client as f64 / rereferences as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coopcache_types::{ByteSize, Timestamp};

    fn req(client: u32, doc: u64) -> Request {
        Request::new(
            Timestamp::ZERO,
            ClientId::new(client),
            DocId::new(doc),
            ByteSize::from_kb(1),
        )
    }

    #[test]
    fn decomposition() {
        let stream = [
            req(0, 1), // cold
            req(0, 1), // same client
            req(1, 1), // cross client (first touch by client 1)
            req(1, 1), // same client (client 1 has seen it now)
            req(2, 2), // cold
        ];
        let p = SharingProfile::compute(stream.iter());
        assert_eq!(p.cold, 2);
        assert_eq!(p.same_client, 2);
        assert_eq!(p.cross_client, 1);
        assert_eq!(p.total(), 5);
        assert!((p.cross_client_share() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stream() {
        let p = SharingProfile::compute(std::iter::empty());
        assert_eq!(p.total(), 0);
        assert_eq!(p.cross_client_share(), 0.0);
    }

    #[test]
    fn all_private_traffic_has_zero_cross_share() {
        let stream = [req(0, 1), req(0, 1), req(1, 2), req(1, 2)];
        let p = SharingProfile::compute(stream.iter());
        assert_eq!(p.cross_client, 0);
        assert_eq!(p.cross_client_share(), 0.0);
    }
}
