//! The Belady-MIN offline replacement bound.
//!
//! MIN evicts the document whose next use is furthest in the future; for
//! unit-size documents it is the provably optimal replacement policy, so
//! its hit rate on a *single shared cache holding the group's aggregate
//! capacity* upper-bounds what any placement + replacement combination in
//! a cooperative group of the same total size could achieve. The benches
//! report how much of the ad-hoc→MIN gap the EA scheme closes.

use coopcache_types::{ByteSize, DocId};
use std::collections::BTreeSet;

/// Result of an offline MIN pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BeladyReport {
    /// References served from the cache.
    pub hits: u64,
    /// References that missed.
    pub misses: u64,
    /// Bytes served from the cache.
    pub bytes_hit: ByteSize,
    /// Total bytes requested.
    pub bytes_requested: ByteSize,
}

impl BeladyReport {
    /// Document hit rate.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Byte hit rate.
    #[must_use]
    pub fn byte_hit_rate(&self) -> f64 {
        if self.bytes_requested.is_zero() {
            0.0
        } else {
            self.bytes_hit.as_bytes() as f64 / self.bytes_requested.as_bytes() as f64
        }
    }
}

/// Runs Belady's MIN over a `(doc, size)` reference stream with a byte
/// capacity.
///
/// For variable-size documents the furthest-next-use rule is a greedy
/// heuristic rather than provably optimal, but it remains the standard
/// offline yardstick. Documents wider than the whole capacity are served
/// without being cached.
///
/// # Example
///
/// ```
/// use coopcache_analysis::belady_min;
/// use coopcache_types::{ByteSize, DocId};
///
/// let unit = ByteSize::from_kb(1);
/// let stream: Vec<(DocId, ByteSize)> =
///     [1u64, 2, 3, 1, 2, 3].iter().map(|&d| (DocId::new(d), unit)).collect();
/// let report = belady_min(&stream, ByteSize::from_kb(3));
/// assert_eq!(report.hits, 3); // everything fits: 3 compulsory misses only
/// ```
#[must_use]
#[expect(
    clippy::disallowed_types,
    reason = "both maps are only probed, never iterated, and BTreeMaps made this pass \
              more than twice as slow on the full-scale trace"
)]
pub fn belady_min(stream: &[(DocId, ByteSize)], capacity: ByteSize) -> BeladyReport {
    use std::collections::HashMap;
    let n = stream.len();
    // next_use[i] = position of the next reference to stream[i].0, or n.
    let mut next_use = vec![n; n];
    let mut last_seen: HashMap<DocId, usize> = HashMap::new();
    for (i, &(doc, _)) in stream.iter().enumerate().rev() {
        if let Some(&later) = last_seen.get(&doc) {
            next_use[i] = later;
        }
        last_seen.insert(doc, i);
    }

    // Cache state: docs keyed by their *next use* position so the
    // furthest-next-use victim is the max element.
    let mut by_next_use: BTreeSet<(usize, DocId)> = BTreeSet::new();
    let mut resident: HashMap<DocId, (usize, ByteSize)> = HashMap::new();
    let mut used = ByteSize::ZERO;
    let mut report = BeladyReport::default();

    for (i, &(doc, size)) in stream.iter().enumerate() {
        report.bytes_requested += size;
        if let Some(&(old_next, _)) = resident.get(&doc) {
            // Hit: re-key to the new next-use position.
            report.hits += 1;
            report.bytes_hit += size;
            by_next_use.remove(&(old_next, doc));
            by_next_use.insert((next_use[i], doc));
            resident.insert(doc, (next_use[i], size));
            continue;
        }
        report.misses += 1;
        if size > capacity {
            continue; // served, never cached
        }
        if next_use[i] == n {
            // Never used again: caching it can only displace useful bytes.
            continue;
        }
        while used + size > capacity {
            let &(victim_next, victim) = by_next_use.iter().next_back().expect("cache non-empty");
            // Inserting a doc used sooner than the victim is the MIN rule;
            // if even our next use is later than every resident's, skip.
            if victim_next <= next_use[i] {
                break;
            }
            by_next_use.remove(&(victim_next, victim));
            let (_, victim_size) = resident.remove(&victim).expect("resident");
            used -= victim_size;
        }
        if used + size <= capacity {
            by_next_use.insert((next_use[i], doc));
            resident.insert(doc, (next_use[i], size));
            used += size;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_stream(ids: &[u64]) -> Vec<(DocId, ByteSize)> {
        ids.iter()
            .map(|&d| (DocId::new(d), ByteSize::from_kb(1)))
            .collect()
    }

    #[test]
    fn classic_belady_example() {
        // Reference string 1..5 with cache of 3 unit docs — a staple
        // textbook example where MIN beats LRU.
        let stream = unit_stream(&[1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5]);
        let report = belady_min(&stream, ByteSize::from_kb(3));
        // MIN achieves 5 hits on this string with 3 frames (7 faults).
        assert_eq!(report.misses, 7, "hits {}", report.hits);
        assert_eq!(report.hits, 5);
    }

    #[test]
    fn everything_fits_leaves_only_compulsory_misses() {
        let stream = unit_stream(&[1, 2, 3, 1, 2, 3, 1, 2, 3]);
        let report = belady_min(&stream, ByteSize::from_kb(10));
        assert_eq!(report.misses, 3);
        assert_eq!(report.hits, 6);
        assert!((report.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn min_dominates_lru_on_random_streams() {
        use crate::reuse::ReuseProfile;
        let mut stream = Vec::new();
        let mut x = 99u64;
        for _ in 0..3_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            stream.push(DocId::new((x >> 33) % 64));
        }
        let sized: Vec<(DocId, ByteSize)> =
            stream.iter().map(|&d| (d, ByteSize::from_kb(1))).collect();
        let profile = ReuseProfile::compute(stream);
        for slots in [4usize, 16, 32] {
            let min = belady_min(&sized, ByteSize::from_kb(slots as u64));
            let lru = profile.lru_hit_rate(slots);
            assert!(
                min.hit_rate() >= lru - 1e-12,
                "slots {slots}: MIN {} < LRU {lru}",
                min.hit_rate()
            );
        }
    }

    #[test]
    fn oversized_documents_are_never_cached() {
        let stream = vec![
            (DocId::new(1), ByteSize::from_kb(100)),
            (DocId::new(1), ByteSize::from_kb(100)),
        ];
        let report = belady_min(&stream, ByteSize::from_kb(10));
        assert_eq!(report.hits, 0);
        assert_eq!(report.misses, 2);
    }

    #[test]
    fn never_reused_documents_do_not_pollute() {
        // One hot doc re-referenced among one-shot documents: MIN keeps
        // the hot doc resident throughout.
        let mut ids = Vec::new();
        for i in 0..50u64 {
            ids.push(0);
            ids.push(1_000 + i);
        }
        let stream = unit_stream(&ids);
        let report = belady_min(&stream, ByteSize::from_kb(1));
        assert_eq!(report.hits, 49, "hot doc must always hit");
    }

    #[test]
    fn byte_hit_rate_weighs_sizes() {
        let stream = vec![
            (DocId::new(1), ByteSize::from_kb(9)),
            (DocId::new(1), ByteSize::from_kb(9)),
            (DocId::new(2), ByteSize::from_kb(1)),
        ];
        let report = belady_min(&stream, ByteSize::from_kb(9));
        assert_eq!(report.hits, 1);
        assert!((report.byte_hit_rate() - 9.0 / 19.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stream_reports_zero() {
        let report = belady_min(&[], ByteSize::from_kb(1));
        assert_eq!(report.hit_rate(), 0.0);
        assert_eq!(report.byte_hit_rate(), 0.0);
    }
}
