//! A small, seeded, splittable pseudo-random number generator.
//!
//! Workload generation must be bit-for-bit reproducible across runs and
//! platforms, so the workspace carries its own PRNG rather than depending on
//! an external crate whose stream might change between versions. The
//! generator is xoshiro256** (Blackman & Vigna), seeded through SplitMix64 —
//! the standard recommendation for seeding xoshiro from a single `u64`.

use coopcache_types::SplitMix64;

/// A seeded xoshiro256** generator.
///
/// Not cryptographically secure; statistically excellent and extremely fast,
/// which is all a workload generator needs.
///
/// # Example
///
/// ```
/// use coopcache_trace::Rng;
/// let mut a = Rng::seed_from(42);
/// let mut b = Rng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // deterministic
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    state: [u64; 4],
}

impl Rng {
    /// Creates a generator from a single seed value via SplitMix64.
    #[must_use]
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let state = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        Self { state }
    }

    /// Derives an independent child generator; useful for giving each
    /// trace component (sizes, popularity, timing) its own stream so that
    /// changing one component does not perturb the others.
    #[must_use]
    pub fn split(&mut self) -> Self {
        Self::seed_from(self.next_u64())
    }

    /// Returns the next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Returns a uniform float in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform float in `(0, 1]`, safe as a `ln()` argument.
    pub fn next_f64_open(&mut self) -> f64 {
        1.0 - self.next_f64()
    }

    /// Returns a uniform integer in `[0, bound)` using Lemire's unbiased
    /// multiply-shift rejection method.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let low = m as u64;
            if low >= bound {
                return (m >> 64) as u64;
            }
            // Rejection zone: only u64::MAX % bound + 1 values rejected.
            let threshold = bound.wrapping_neg() % bound;
            if low >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Returns a uniform integer in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn next_in_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range");
        if lo == u64::MIN && hi == u64::MAX {
            return self.next_u64();
        }
        lo + self.next_below(hi - lo + 1)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn next_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Picks a uniformly random element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if the slice is empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> &'a T {
        assert!(!slice.is_empty(), "cannot choose from an empty slice");
        &slice[self.next_below(slice.len() as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = Rng::seed_from(1);
        let mut b = Rng::seed_from(1);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::seed_from(1);
        let mut b = Rng::seed_from(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::seed_from(3);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
            let y = r.next_f64_open();
            assert!(y > 0.0 && y <= 1.0);
        }
    }

    #[test]
    fn f64_mean_is_centered() {
        let mut r = Rng::seed_from(4);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }

    #[test]
    fn next_below_is_in_bounds_and_roughly_uniform() {
        let mut r = Rng::seed_from(5);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[r.next_below(10) as usize] += 1;
        }
        for c in counts {
            // Expected 10_000 per bucket; allow 10% slack.
            assert!((9_000..11_000).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn next_in_range_inclusive_endpoints() {
        let mut r = Rng::seed_from(6);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..10_000 {
            let x = r.next_in_range(3, 5);
            assert!((3..=5).contains(&x));
            seen_lo |= x == 3;
            seen_hi |= x == 5;
        }
        assert!(seen_lo && seen_hi);
        assert_eq!(r.next_in_range(7, 7), 7);
    }

    #[test]
    fn full_u64_range_does_not_hang() {
        let mut r = Rng::seed_from(11);
        let _ = r.next_in_range(u64::MIN, u64::MAX);
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_panics() {
        Rng::seed_from(0).next_below(0);
    }

    #[test]
    fn bool_probability() {
        let mut r = Rng::seed_from(7);
        let hits = (0..100_000).filter(|_| r.next_bool(0.25)).count();
        assert!((23_000..27_000).contains(&hits), "hits {hits}");
        assert!(!Rng::seed_from(8).next_bool(0.0));
        assert!(Rng::seed_from(8).next_bool(1.0 + f64::EPSILON));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Rng::seed_from(9);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle left the slice sorted");
    }

    #[test]
    fn split_streams_are_independent_of_parent_consumption() {
        let mut parent1 = Rng::seed_from(10);
        let child1 = parent1.split();
        let mut parent2 = Rng::seed_from(10);
        let child2 = parent2.split();
        assert_eq!(child1, child2);
        assert_ne!(child1, parent1);
    }

    #[test]
    fn choose_returns_member() {
        let mut r = Rng::seed_from(12);
        let v = [1, 2, 3];
        for _ in 0..100 {
            assert!(v.contains(r.choose(&v)));
        }
    }
}
