//! Weight storage: dense blobs or deterministic seeded generators.
//!
//! The paper's 13 networks range from 1.9 MB (MTCNN) to 527 MB (VGG-16) of
//! FP32 weights. The performance experiments only need weight *shapes and
//! sizes*, while the accuracy experiments need real numbers on (smaller)
//! numeric models. [`Weights`] supports both: a `Dense` variant holding real
//! values and a `Seeded` variant that can stream deterministic pseudo-weights
//! of any length without storing them.

use std::borrow::Cow;

use trtsim_util::rng::Pcg32;

/// Threshold above which [`Weights::materialize`] refuses to allocate for
/// seeded weights (prevents a stray numeric run from allocating gigabytes).
pub const MATERIALIZE_LIMIT: usize = 64 << 20; // 64M elements = 256 MB

/// A layer's learned parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum Weights {
    /// Real values, fully in memory.
    Dense(Vec<f32>),
    /// Deterministic virtual weights: `len` values drawn from a seeded
    /// Gaussian stream scaled by `scale`. Two `Seeded` weights with the same
    /// seed and length stream identical values.
    Seeded {
        /// Stream seed.
        seed: u64,
        /// Number of weight elements.
        len: usize,
        /// Standard deviation of generated values (He/Xavier-style scale).
        scale: f32,
    },
}

impl Weights {
    /// Creates seeded weights with a typical He-initialization scale for the
    /// given fan-in.
    pub fn seeded_he(seed: u64, len: usize, fan_in: usize) -> Self {
        let scale = (2.0 / fan_in.max(1) as f64).sqrt() as f32;
        Weights::Seeded { seed, len, scale }
    }

    /// Number of weight elements.
    pub fn len(&self) -> usize {
        match self {
            Weights::Dense(v) => v.len(),
            Weights::Seeded { len, .. } => *len,
        }
    }

    /// Whether there are no weights.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Streams the weight values without necessarily materializing them.
    pub fn iter(&self) -> WeightsIter<'_> {
        match self {
            Weights::Dense(v) => WeightsIter::Dense(v.iter()),
            Weights::Seeded { seed, len, scale } => WeightsIter::Seeded {
                rng: Pcg32::seed_from_u64(*seed),
                remaining: *len,
                scale: *scale,
            },
        }
    }

    /// Returns the values as a slice, generating seeded weights if needed.
    ///
    /// # Panics
    ///
    /// Panics if seeded weights exceed [`MATERIALIZE_LIMIT`] elements — the
    /// full-size model descriptors are not meant to be executed numerically.
    pub fn materialize(&self) -> Cow<'_, [f32]> {
        match self {
            Weights::Dense(v) => Cow::Borrowed(v),
            Weights::Seeded { len, .. } => {
                assert!(
                    *len <= MATERIALIZE_LIMIT,
                    "refusing to materialize {len} seeded weights; \
                     use a numeric-scale model for execution"
                );
                Cow::Owned(self.iter().collect())
            }
        }
    }

    /// Maximum absolute value, streamed (no allocation for seeded weights).
    pub fn amax(&self) -> f32 {
        self.iter().fold(0.0f32, |acc, x| acc.max(x.abs()))
    }

    /// Applies `f` element-wise, producing dense weights.
    ///
    /// For seeded weights this materializes first (subject to
    /// [`MATERIALIZE_LIMIT`]); transformations on full-size descriptors should
    /// instead be recorded as metadata by the engine builder.
    ///
    /// # Panics
    ///
    /// See [`Weights::materialize`].
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Weights {
        Weights::Dense(self.iter().map(f).collect())
    }

    /// Uniformly samples up to `n` weight values (deterministic in `seed`),
    /// used for calibration-style statistics on large blobs.
    pub fn sample(&self, n: usize, seed: u64) -> Vec<f32> {
        let len = self.len();
        if len == 0 {
            return Vec::new();
        }
        if len <= n {
            return self.iter().collect();
        }
        // Sorted reservoir-free sampling: pick n sorted random indices and
        // stream past them.
        let mut rng = Pcg32::seed_from_u64(seed);
        let mut indices: Vec<usize> = (0..n).map(|_| rng.range_usize(len)).collect();
        indices.sort_unstable();
        indices.dedup();
        let mut out = Vec::with_capacity(indices.len());
        let mut want = indices.iter().copied().peekable();
        for (i, v) in self.iter().enumerate() {
            match want.peek() {
                Some(&idx) if idx == i => {
                    out.push(v);
                    want.next();
                }
                None => break,
                _ => {}
            }
        }
        out
    }
}

impl From<Vec<f32>> for Weights {
    fn from(v: Vec<f32>) -> Self {
        Weights::Dense(v)
    }
}

/// Iterator over weight values; see [`Weights::iter`].
#[derive(Debug, Clone)]
pub enum WeightsIter<'a> {
    /// Iterating a dense blob.
    Dense(std::slice::Iter<'a, f32>),
    /// Streaming from the seeded generator.
    Seeded {
        /// Generator state.
        rng: Pcg32,
        /// Values left to produce.
        remaining: usize,
        /// Output scale.
        scale: f32,
    },
}

impl Iterator for WeightsIter<'_> {
    type Item = f32;

    fn next(&mut self) -> Option<f32> {
        match self {
            WeightsIter::Dense(it) => it.next().copied(),
            WeightsIter::Seeded {
                rng,
                remaining,
                scale,
            } => {
                if *remaining == 0 {
                    return None;
                }
                *remaining -= 1;
                Some(rng.normal() as f32 * *scale)
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = match self {
            WeightsIter::Dense(it) => it.len(),
            WeightsIter::Seeded { remaining, .. } => *remaining,
        };
        (n, Some(n))
    }
}

impl ExactSizeIterator for WeightsIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_weights_are_reproducible() {
        let w = Weights::Seeded {
            seed: 9,
            len: 100,
            scale: 0.1,
        };
        let a: Vec<f32> = w.iter().collect();
        let b: Vec<f32> = w.iter().collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 100);
    }

    #[test]
    fn seeded_scale_controls_magnitude() {
        let small = Weights::Seeded {
            seed: 1,
            len: 1000,
            scale: 0.01,
        };
        let large = Weights::Seeded {
            seed: 1,
            len: 1000,
            scale: 1.0,
        };
        assert!(small.amax() < large.amax());
        assert!((small.amax() - large.amax() * 0.01).abs() < 1e-5);
    }

    #[test]
    fn dense_round_trips() {
        let w: Weights = vec![1.0, -2.0, 3.0].into();
        assert_eq!(w.len(), 3);
        assert_eq!(w.amax(), 3.0);
        assert_eq!(w.materialize().as_ref(), &[1.0, -2.0, 3.0]);
    }

    #[test]
    fn map_produces_dense() {
        let w = Weights::Seeded {
            seed: 2,
            len: 10,
            scale: 1.0,
        };
        let doubled = w.map(|x| 2.0 * x);
        let orig: Vec<f32> = w.iter().collect();
        let got = doubled.materialize();
        for (o, g) in orig.iter().zip(got.iter()) {
            assert_eq!(*g, 2.0 * o);
        }
    }

    #[test]
    fn sample_is_subset_and_deterministic() {
        let w = Weights::Seeded {
            seed: 3,
            len: 10_000,
            scale: 1.0,
        };
        let s1 = w.sample(64, 7);
        let s2 = w.sample(64, 7);
        assert_eq!(s1, s2);
        assert!(!s1.is_empty() && s1.len() <= 64);
        let all: Vec<f32> = w.iter().collect();
        assert!(s1.iter().all(|v| all.contains(v)));
    }

    #[test]
    fn sample_of_small_blob_is_everything() {
        let w: Weights = vec![1.0, 2.0].into();
        assert_eq!(w.sample(10, 0), vec![1.0, 2.0]);
    }

    #[test]
    fn he_scale_shrinks_with_fan_in() {
        let a = Weights::seeded_he(0, 10, 9);
        let b = Weights::seeded_he(0, 10, 900);
        match (a, b) {
            (Weights::Seeded { scale: sa, .. }, Weights::Seeded { scale: sb, .. }) => {
                assert!(sa > sb);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    #[should_panic(expected = "refusing to materialize")]
    fn oversized_materialize_panics() {
        Weights::Seeded {
            seed: 0,
            len: MATERIALIZE_LIMIT + 1,
            scale: 1.0,
        }
        .materialize();
    }

    #[test]
    fn iterator_len_is_exact() {
        let w = Weights::Seeded {
            seed: 5,
            len: 17,
            scale: 1.0,
        };
        assert_eq!(w.iter().len(), 17);
        assert_eq!(w.iter().count(), 17);
    }
}
