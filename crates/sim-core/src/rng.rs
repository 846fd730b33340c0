//! A small deterministic PRNG.
//!
//! The simulation must be reproducible run-to-run for a fixed seed, so all
//! stochastic model components (timer jitter, workload generators) draw from
//! this SplitMix64 generator rather than from a global or entropy-seeded
//! source. SplitMix64 passes BigCrush, is trivially seedable, and every
//! stream is independent when seeded from distinct values.

/// The state increment per draw (the 64-bit golden ratio).
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 pseudo-random number generator.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Distinct seeds yield independent
    /// streams.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Derives an independent child generator (useful for giving each host
    /// its own stream from one run seed).
    pub fn fork(&mut self, salt: u64) -> Self {
        let s = self.next_u64() ^ salt.wrapping_mul(GAMMA);
        Self::new(s)
    }

    /// Next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Discards the next `n` draws in constant time: the state is a
    /// counter, advanced by a fixed increment per draw.
    #[inline]
    pub fn skip(&mut self, n: u64) {
        self.state = self.state.wrapping_add(GAMMA.wrapping_mul(n));
    }

    /// Uniform value in `0..bound`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn next_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_range bound must be positive");
        // Multiply-shift bounded sampling (Lemire). The slight modulo bias
        // of the simple approach would be irrelevant for simulation, but
        // this is just as cheap.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `usize` in `0..bound`.
    #[inline]
    pub fn next_usize(&mut self, bound: usize) -> usize {
        self.next_range(bound as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = SplitMix64::new(123);
        let mut b = SplitMix64::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn skip_is_that_many_discarded_draws() {
        // The counter wraps about every other draw (γ ≈ 0.62 · 2^64).
        for seed in [0, 123, u64::MAX] {
            for n in [0u64, 1, 7, 1000] {
                let mut skipped = SplitMix64::new(seed);
                skipped.skip(n);
                let mut drawn = SplitMix64::new(seed);
                for _ in 0..n {
                    drawn.next_u64();
                }
                assert_eq!(skipped.next_u64(), drawn.next_u64(), "seed {seed}, n = {n}");
            }
        }
        // n·γ itself wraps: a skip of 2^63 twice is a skip of 2^64 ≡ 0.
        let mut r = SplitMix64::new(9);
        r.skip(1 << 63);
        r.skip(1 << 63);
        assert_eq!(r.next_u64(), SplitMix64::new(9).next_u64());
    }

    #[test]
    fn next_range_stays_in_bounds() {
        let mut r = SplitMix64::new(9);
        for _ in 0..10_000 {
            assert!(r.next_range(7) < 7);
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_range_zero_bound_panics() {
        SplitMix64::new(1).next_range(0);
    }

    #[test]
    fn next_f64_in_unit_interval_and_roughly_uniform() {
        let mut r = SplitMix64::new(77);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean = {mean}");
    }

    #[test]
    fn fork_produces_independent_stream() {
        let mut parent = SplitMix64::new(5);
        let mut child = parent.fork(1);
        let a = parent.next_u64();
        let b = child.next_u64();
        assert_ne!(a, b);
    }
}
