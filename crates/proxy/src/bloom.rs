//! A Bloom filter, built from scratch for cache-content digests.
//!
//! Summary Cache (Fan et al., SIGCOMM '98 — the paper's reference [6])
//! replaces per-miss ICP queries with periodically exchanged Bloom-filter
//! digests of each cache's contents. [`BloomFilter`] is the underlying
//! structure: k-fold double hashing over a fixed bit array, sized from a
//! capacity hint and a target false-positive rate.

use coopcache_types::{splitmix64, DocId};

/// A fixed-size Bloom filter over document ids.
///
/// # Example
///
/// ```
/// use coopcache_proxy::BloomFilter;
/// use coopcache_types::DocId;
///
/// let mut filter = BloomFilter::with_rate(1_000, 0.01);
/// filter.insert(DocId::new(7));
/// assert!(filter.contains(DocId::new(7)));       // no false negatives
/// // false positives are possible but rare at the configured rate
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    bits: Vec<u64>,
    n_bits: u64,
    n_hashes: u32,
    inserted: usize,
}

impl BloomFilter {
    /// Sizes a filter for `expected_items` at the given false-positive
    /// rate, using the standard optimum `m = -n·ln(p)/ln(2)²`,
    /// `k = (m/n)·ln(2)`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < fp_rate < 1`.
    #[must_use]
    pub fn with_rate(expected_items: usize, fp_rate: f64) -> Self {
        assert!(
            fp_rate > 0.0 && fp_rate < 1.0,
            "false-positive rate must be in (0, 1)"
        );
        let n = expected_items.max(1) as f64;
        let ln2 = std::f64::consts::LN_2;
        let m = (-n * fp_rate.ln() / (ln2 * ln2)).ceil().max(64.0) as u64;
        let k = ((m as f64 / n) * ln2).round().clamp(1.0, 16.0) as u32;
        Self {
            bits: vec![0u64; m.div_ceil(64) as usize],
            n_bits: m,
            n_hashes: k,
            inserted: 0,
        }
    }

    /// Number of bits in the filter.
    #[must_use]
    pub fn n_bits(&self) -> u64 {
        self.n_bits
    }

    /// Number of hash probes per operation.
    #[must_use]
    pub fn n_hashes(&self) -> u32 {
        self.n_hashes
    }

    /// Number of items inserted since construction.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inserted
    }

    /// True when nothing has been inserted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inserted == 0
    }

    /// Size of the digest on the wire, in bytes (what a Summary-Cache
    /// style broadcast would transmit).
    #[must_use]
    pub fn wire_bytes(&self) -> u64 {
        self.bits.len() as u64 * 8
    }

    fn hashes(&self, doc: DocId) -> (u64, u64) {
        // Two independent 64-bit mixes (SplitMix64, and a finalizer with
        // murmur3's fmix64 constants) drive k-fold double hashing.
        let h1 = splitmix64(doc.as_u64());
        let mut h2 = doc.as_u64().wrapping_add(0xC2B2_AE3D_27D4_EB4F);
        h2 = (h2 ^ (h2 >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h2 = (h2 ^ (h2 >> 33)).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        h2 ^= h2 >> 33;
        (h1, h2 | 1) // odd step ensures full-period probing
    }

    fn bit_index(&self, h1: u64, h2: u64, i: u32) -> usize {
        (h1.wrapping_add(h2.wrapping_mul(u64::from(i))) % self.n_bits) as usize
    }

    /// Sets the document's bits.
    pub fn insert(&mut self, doc: DocId) {
        let (h1, h2) = self.hashes(doc);
        for i in 0..self.n_hashes {
            let idx = self.bit_index(h1, h2, i);
            self.bits[idx / 64] |= 1u64 << (idx % 64);
        }
        self.inserted += 1;
    }

    /// Tests the document's bits. Never a false negative for inserted
    /// documents; false positives occur at roughly the configured rate.
    #[must_use]
    pub fn contains(&self, doc: DocId) -> bool {
        let (h1, h2) = self.hashes(doc);
        (0..self.n_hashes).all(|i| {
            let idx = self.bit_index(h1, h2, i);
            self.bits[idx / 64] & (1u64 << (idx % 64)) != 0
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::with_rate(500, 0.01);
        for i in 0..500 {
            f.insert(DocId::new(i * 31 + 7));
        }
        for i in 0..500 {
            assert!(f.contains(DocId::new(i * 31 + 7)), "lost doc {i}");
        }
        assert_eq!(f.len(), 500);
    }

    #[test]
    fn false_positive_rate_near_target() {
        let mut f = BloomFilter::with_rate(1_000, 0.01);
        for i in 0..1_000u64 {
            f.insert(DocId::new(i));
        }
        let probes = 100_000u64;
        let fps = (1_000..1_000 + probes)
            .filter(|&i| f.contains(DocId::new(i)))
            .count() as f64;
        let rate = fps / probes as f64;
        assert!(rate < 0.03, "false-positive rate {rate} too high");
        assert!(rate > 0.001, "rate {rate} suspiciously low — sizing bug?");
    }

    #[test]
    fn empty_filter_matches_nothing() {
        let f = BloomFilter::with_rate(100, 0.01);
        assert!(f.is_empty());
        assert!((0..1_000).all(|i| !f.contains(DocId::new(i))));
    }

    #[test]
    fn sizing_follows_the_standard_formulas() {
        let f = BloomFilter::with_rate(1_000, 0.01);
        // m ≈ 9585 bits, k ≈ 7 for n=1000, p=0.01.
        assert!((9_000..10_500).contains(&f.n_bits()), "{}", f.n_bits());
        assert_eq!(f.n_hashes(), 7);
        assert_eq!(f.wire_bytes(), f.n_bits().div_ceil(64) * 8);
    }

    #[test]
    fn tiny_filters_are_clamped() {
        let f = BloomFilter::with_rate(0, 0.5);
        assert!(f.n_bits() >= 64);
        assert!(f.n_hashes() >= 1);
    }

    #[test]
    #[should_panic(expected = "false-positive rate")]
    fn bad_rate_panics() {
        let _ = BloomFilter::with_rate(10, 1.5);
    }
}
