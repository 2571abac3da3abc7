//! SplitMix64 (Steele, Lea & Flood; Vigna's constants): the workspace's one
//! 64-bit mixer and seed stream.
//!
//! Shard assignment, hash-ring positions, the first Bloom probe, ICP loss,
//! head sampling, fault schedules and the trace generator's seeding all go
//! through these functions, so changing a constant here moves every pinned
//! output at once. Three hashes stay apart: the store's doc table (one
//! multiply on its probe path; its layout reaches no output), the Bloom
//! filter's second hash (murmur3's `fmix64` constants) and the
//! interleaving checker, which has no dependencies by design.

/// The golden-ratio increment between SplitMix64 states.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 finalizer: a bijective 64-bit mixer.
///
/// Callers XOR a seed into `x` first when they need a seeded hash.
///
/// ```
/// use coopcache_types::mix64;
/// assert_eq!(mix64(0), 0);
/// assert_ne!(mix64(1), mix64(2));
/// ```
#[inline]
#[must_use]
pub const fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One SplitMix64 step from state `x`: the finalizer of `x + GAMMA`.
///
/// A pure function, so a keep decision or a hash needs no generator state.
///
/// ```
/// use coopcache_types::{splitmix64, SplitMix64};
/// assert_eq!(splitmix64(7), SplitMix64::new(7).next_u64());
/// ```
#[inline]
#[must_use]
pub const fn splitmix64(x: u64) -> u64 {
    mix64(x.wrapping_add(GAMMA))
}

/// A seeded SplitMix64 stream: output `i` is `splitmix64(seed + i·GAMMA)`.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A stream starting at `seed`.
    #[must_use]
    pub const fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The next output of the stream.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        mix64(self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_the_reference_stream() {
        // Vigna's splitmix64.c seeded with 1234567: its first three outputs.
        let mut s = SplitMix64::new(1_234_567);
        assert_eq!(s.next_u64(), 6_457_827_717_110_365_317);
        assert_eq!(s.next_u64(), 3_203_168_211_198_807_973);
        assert_eq!(s.next_u64(), 9_817_491_932_198_370_423);
        assert_eq!(splitmix64(1_234_567), 6_457_827_717_110_365_317);
    }
}
