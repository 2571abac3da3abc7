//! LRU stack-distance (reuse-distance) analysis.
//!
//! The stack distance of a reference is the number of *distinct*
//! documents touched since the previous reference to the same document.
//! Its distribution fully determines the hit-rate-vs-size curve of a
//! single LRU cache (Mattson et al.), which makes it the standard lens
//! for judging whether a synthetic trace has realistic temporal locality.
//!
//! Computed in `O(n log n)` with a Fenwick (binary-indexed) tree over
//! reference positions — Olken's classic algorithm.

use coopcache_types::DocId;
use std::collections::BTreeMap;

/// A Fenwick tree over reference positions: marks live positions and
/// counts how many fall in a suffix.
#[derive(Debug)]
struct Fenwick {
    tree: Vec<u32>,
}

impl Fenwick {
    fn new(n: usize) -> Self {
        Self {
            tree: vec![0; n + 1],
        }
    }

    /// Adds `delta` at 1-based index `i`.
    fn add(&mut self, mut i: usize, delta: i32) {
        while i < self.tree.len() {
            self.tree[i] = (self.tree[i] as i64 + i64::from(delta)) as u32;
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of the prefix `[1, i]`.
    fn prefix(&self, mut i: usize) -> u32 {
        let mut sum = 0;
        while i > 0 {
            sum += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        sum
    }
}

/// The outcome of a stack-distance pass over a reference stream.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReuseProfile {
    /// `histogram[d]` = number of references at stack distance `d`
    /// (0 = immediate re-reference with nothing in between).
    histogram: Vec<u64>,
    /// References to never-before-seen documents (infinite distance).
    pub cold_references: u64,
    /// Total references analysed.
    pub total_references: u64,
}

impl ReuseProfile {
    /// Computes the profile of a document-reference stream.
    #[must_use]
    pub fn compute(stream: impl IntoIterator<Item = DocId>) -> Self {
        let refs: Vec<DocId> = stream.into_iter().collect();
        let n = refs.len();
        let mut fenwick = Fenwick::new(n);
        let mut last_pos: BTreeMap<DocId, usize> = BTreeMap::new();
        let mut histogram: Vec<u64> = Vec::new();
        let mut cold = 0u64;
        for (pos, &doc) in refs.iter().enumerate() {
            match last_pos.get(&doc) {
                None => cold += 1,
                Some(&prev) => {
                    // Distinct docs referenced strictly between prev and pos:
                    // live markers in (prev+1 ..= pos) minus none (the doc's
                    // own marker at prev+1 was cleared below before insert).
                    let distance = (fenwick.prefix(pos) - fenwick.prefix(prev + 1)) as usize;
                    if histogram.len() <= distance {
                        histogram.resize(distance + 1, 0);
                    }
                    histogram[distance] += 1;
                    fenwick.add(prev + 1, -1);
                }
            }
            fenwick.add(pos + 1, 1);
            last_pos.insert(doc, pos);
        }
        Self {
            histogram,
            cold_references: cold,
            total_references: n as u64,
        }
    }

    /// The raw histogram (`[d] -> count`).
    #[must_use]
    pub fn histogram(&self) -> &[u64] {
        &self.histogram
    }

    /// Predicted hit rate of a single LRU cache holding `slots` whole
    /// documents: the fraction of references with stack distance
    /// `< slots` (Mattson's inclusion property).
    #[must_use]
    pub fn lru_hit_rate(&self, slots: usize) -> f64 {
        if self.total_references == 0 {
            return 0.0;
        }
        let hits: u64 = self.histogram.iter().take(slots).sum();
        hits as f64 / self.total_references as f64
    }

    /// Mean finite stack distance, or `None` if no re-references exist.
    #[must_use]
    pub fn mean_distance(&self) -> Option<f64> {
        let count: u64 = self.histogram.iter().sum();
        if count == 0 {
            return None;
        }
        let weighted: u64 = self
            .histogram
            .iter()
            .enumerate()
            .map(|(d, &c)| d as u64 * c)
            .sum();
        Some(weighted as f64 / count as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn docs(ids: &[u64]) -> Vec<DocId> {
        ids.iter().copied().map(DocId::new).collect()
    }

    #[test]
    fn textbook_example() {
        // Stream: a b c a — the re-reference to `a` skips over {b, c}.
        let p = ReuseProfile::compute(docs(&[1, 2, 3, 1]));
        assert_eq!(p.cold_references, 3);
        assert_eq!(p.total_references, 4);
        assert_eq!(p.histogram(), &[0, 0, 1]);
    }

    #[test]
    fn immediate_rereference_is_distance_zero() {
        let p = ReuseProfile::compute(docs(&[7, 7, 7]));
        assert_eq!(p.cold_references, 1);
        assert_eq!(p.histogram(), &[2]);
        assert_eq!(p.mean_distance(), Some(0.0));
    }

    #[test]
    fn distance_counts_distinct_not_total() {
        // a b b b a: between the two a's only ONE distinct doc appears.
        let p = ReuseProfile::compute(docs(&[1, 2, 2, 2, 1]));
        // b->b twice at distance 0; a->a once at distance 1.
        assert_eq!(p.histogram(), &[2, 1]);
    }

    #[test]
    fn lru_curve_is_monotone_and_correct() {
        // Cyclic stream over 3 docs: every re-reference at distance 2.
        let p = ReuseProfile::compute(docs(&[1, 2, 3, 1, 2, 3, 1, 2, 3]));
        assert_eq!(p.lru_hit_rate(1), 0.0);
        assert_eq!(p.lru_hit_rate(2), 0.0);
        // 6 of 9 references hit with >= 3 slots.
        assert!((p.lru_hit_rate(3) - 6.0 / 9.0).abs() < 1e-12);
        assert_eq!(p.lru_hit_rate(3), p.lru_hit_rate(100));
        // Monotone in slots.
        for s in 1..5 {
            assert!(p.lru_hit_rate(s + 1) >= p.lru_hit_rate(s));
        }
    }

    #[test]
    fn empty_stream() {
        let p = ReuseProfile::compute(Vec::<DocId>::new());
        assert_eq!(p.total_references, 0);
        assert_eq!(p.lru_hit_rate(10), 0.0);
        assert_eq!(p.mean_distance(), None);
    }

    #[test]
    fn predicted_curve_matches_direct_lru_simulation() {
        // Cross-check Olken's algorithm against a brute-force LRU stack
        // on a pseudo-random stream.
        let mut stream = Vec::new();
        let mut x = 7u64;
        for _ in 0..2_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            stream.push(DocId::new((x >> 33) % 50));
        }
        let p = ReuseProfile::compute(stream.clone());
        for slots in [1usize, 4, 16, 50] {
            // Brute-force LRU of unit-size docs.
            let mut stack: Vec<DocId> = Vec::new();
            let mut hits = 0u64;
            for &doc in &stream {
                if let Some(pos) = stack.iter().position(|&d| d == doc) {
                    stack.remove(pos);
                    stack.insert(0, doc);
                    hits += 1;
                } else {
                    stack.insert(0, doc);
                    if stack.len() > slots {
                        stack.pop();
                    }
                }
            }
            let direct = hits as f64 / stream.len() as f64;
            let predicted = p.lru_hit_rate(slots);
            assert!(
                (direct - predicted).abs() < 1e-12,
                "slots {slots}: direct {direct} vs predicted {predicted}"
            );
        }
    }
}
