//! Deterministic pseudo-random number generation.
//!
//! The simulator studies non-determinism as an *effect*, so its own randomness
//! must be a *controlled input*: every stochastic component (weight synthesis,
//! tactic-timing noise, dataset generation) draws from a [`Pcg32`] stream that
//! is fully determined by a seed. Two runs with the same seeds are
//! bit-identical on every platform.

/// SplitMix64 generator, used to expand a single `u64` seed into the state of
/// larger generators and to derive independent sub-seeds.
///
/// # Examples
///
/// ```
/// use trtsim_util::rng::SplitMix64;
/// let mut sm = SplitMix64::new(99);
/// let (a, b) = (sm.next_u64(), sm.next_u64());
/// assert_ne!(a, b);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a raw seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Derives the seed of one independent random stream from a base seed and a
/// stream index, with a SplitMix64-style finalizer.
///
/// Unlike drawing sub-seeds from a shared generator, the derivation is a pure
/// function of `(seed, stream)`: stream `i`'s seed does not depend on how many
/// other streams exist or in what order they are created. The parallel
/// autotuner relies on this to give every graph node its own noise stream —
/// measuring layers concurrently then yields bit-identical results to the
/// sequential path.
///
/// # Examples
///
/// ```
/// use trtsim_util::rng::stream_seed;
/// assert_eq!(stream_seed(7, 3), stream_seed(7, 3));
/// assert_ne!(stream_seed(7, 3), stream_seed(7, 4));
/// assert_ne!(stream_seed(7, 3), stream_seed(8, 3));
/// ```
pub fn stream_seed(seed: u64, stream: u64) -> u64 {
    // Scramble the (typically tiny) stream index across the 64-bit space with
    // the golden-ratio multiplier, then run the SplitMix64 finalizer so that
    // nearby (seed, stream) pairs decorrelate.
    let mut x = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// PCG32 (XSH-RR 64/32): small, fast, statistically solid generator with an
/// explicit stream id, used for all simulator randomness.
///
/// # Examples
///
/// ```
/// use trtsim_util::rng::Pcg32;
/// let mut rng = Pcg32::seed_from_u64(42);
/// let x = rng.range_u64(10);
/// assert!(x < 10);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Pcg32 {
    state: u64,
    inc: u64,
}

impl Pcg32 {
    /// Creates a generator from a 64-bit state seed and a stream selector.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Self {
            state: 0,
            inc: (stream << 1) | 1,
        };
        rng.next_u32();
        rng.state = rng.state.wrapping_add(seed);
        rng.next_u32();
        rng
    }

    /// Creates a generator from a single seed; the stream id is derived with
    /// SplitMix64 so that nearby seeds still produce unrelated sequences.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let state = sm.next_u64();
        let stream = sm.next_u64();
        Self::new(state, stream)
    }

    /// Returns the next 32-bit output.
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// Returns the next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        (u64::from(self.next_u32()) << 32) | u64::from(self.next_u32())
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 random bits scaled into the unit interval.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform `f32` in `[0, 1)`.
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// Returns a uniform integer in `[0, bound)` without modulo bias.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn range_u64(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "range_u64 bound must be positive");
        // Lemire-style rejection on the widening multiply.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Returns a uniform `usize` in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn range_usize(&mut self, bound: usize) -> usize {
        self.range_u64(bound as u64) as usize
    }

    /// Returns a uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or either bound is non-finite.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo.is_finite() && hi.is_finite() && lo < hi, "invalid range");
        lo + (hi - lo) * self.next_f64()
    }

    /// Returns a sample from the standard normal distribution (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        // Avoid ln(0) by sampling the open interval.
        let u1 = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let u1 = u1.max(f64::MIN_POSITIVE);
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range_usize(i + 1);
            items.swap(i, j);
        }
    }

    /// Picks a uniformly random element.
    ///
    /// Returns `None` if `items` is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[self.range_usize(items.len())])
        }
    }

    /// Forks an independent generator, advancing `self`.
    pub fn fork(&mut self) -> Pcg32 {
        Pcg32::new(self.next_u64(), self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn pcg_is_reproducible() {
        let mut a = Pcg32::seed_from_u64(123);
        let mut b = Pcg32::seed_from_u64(123);
        for _ in 0..1000 {
            assert_eq!(a.next_u32(), b.next_u32());
        }
    }

    #[test]
    fn pcg_seeds_differ() {
        let mut a = Pcg32::seed_from_u64(123);
        let mut b = Pcg32::seed_from_u64(124);
        let same = (0..64).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(
            same < 4,
            "adjacent seeds should decorrelate, got {same} collisions"
        );
    }

    #[test]
    fn range_is_in_bounds_and_covers() {
        let mut rng = Pcg32::seed_from_u64(5);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let x = rng.range_usize(7);
            assert!(x < 7);
            seen[x] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn unit_floats_in_range() {
        let mut rng = Pcg32::seed_from_u64(9);
        for _ in 0..1000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
            let y = rng.next_f32();
            assert!((0.0..1.0).contains(&y));
        }
    }

    #[test]
    fn normal_moments_are_sane() {
        let mut rng = Pcg32::seed_from_u64(77);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Pcg32::seed_from_u64(3);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn fork_decorrelates() {
        let mut parent = Pcg32::seed_from_u64(11);
        let mut c1 = parent.fork();
        let mut c2 = parent.fork();
        let same = (0..64).filter(|_| c1.next_u32() == c2.next_u32()).count();
        assert!(same < 4);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Pcg32::seed_from_u64(1);
        assert!(!(0..100).any(|_| rng.chance(0.0)));
        assert!((0..100).all(|_| rng.chance(1.0)));
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn zero_bound_panics() {
        Pcg32::seed_from_u64(0).range_u64(0);
    }

    #[test]
    fn stream_seeds_are_unique_and_order_free() {
        let mut seen = HashSet::new();
        for seed in 0..8u64 {
            for stream in 0..64u64 {
                assert!(seen.insert(stream_seed(seed, stream)));
            }
        }
    }

    #[test]
    fn stream_seeded_generators_decorrelate() {
        let mut a = Pcg32::seed_from_u64(stream_seed(5, 0));
        let mut b = Pcg32::seed_from_u64(stream_seed(5, 1));
        let same = (0..64).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(same < 4, "adjacent streams collide {same} times");
    }
}
