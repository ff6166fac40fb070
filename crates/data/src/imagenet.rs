//! Class-prototype synthetic image generator (the "benign" dataset).

use std::sync::OnceLock;

use trtsim_ir::tensor::Tensor;
use trtsim_util::derive_seed;
use trtsim_util::rng::Pcg32;

/// One image with its ground-truth class.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledImage {
    /// The image, CHW.
    pub image: Tensor,
    /// Ground-truth class index.
    pub label: usize,
}

/// A deterministic generative dataset of `classes` classes.
///
/// Each class has a smooth prototype (a seeded mixture of 2-D sinusoids per
/// channel). A sample is `signal · prototype + noise`, with per-sample noise
/// drawn from a seed derived from `(class, index)` so every consumer sees the
/// same images.
///
/// Each prototype is rendered on first use and kept in the value (clones
/// carry what was rendered so far), so a sample costs its noise draw only.
///
/// # Examples
///
/// ```
/// use trtsim_data::SyntheticImageNet;
/// let data = SyntheticImageNet::new(10, [3, 16, 16], 42);
/// let a = data.sample(3, 0);
/// let b = data.sample(3, 0);
/// assert_eq!(a.image, b.image);
/// assert_eq!(a.label, 3);
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticImageNet {
    classes: usize,
    shape: [usize; 3],
    seed: u64,
    /// Prototype amplitude multiplier.
    signal: f32,
    /// Pixel-noise standard deviation.
    noise: f32,
    /// Class `c`'s rendered prototype, once something asked for it.
    prototypes: Vec<OnceLock<Tensor>>,
}

impl SyntheticImageNet {
    /// Creates a dataset. Default difficulty: `signal = 1.0`, `noise = 1.0`.
    pub fn new(classes: usize, shape: [usize; 3], seed: u64) -> Self {
        assert!(classes > 0, "need at least one class");
        Self {
            classes,
            shape,
            seed,
            signal: 1.0,
            noise: 1.0,
            prototypes: (0..classes).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Sets the signal-to-noise ratio (difficulty dial).
    pub fn with_snr(mut self, signal: f32, noise: f32) -> Self {
        self.signal = signal;
        self.noise = noise;
        self
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Image shape.
    pub fn shape(&self) -> [usize; 3] {
        self.shape
    }

    /// The class prototype: what a noiseless class member looks like.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    pub fn prototype(&self, class: usize) -> Tensor {
        self.cached_prototype(class).clone()
    }

    /// Class `class`'s prototype, rendered on first use.
    fn cached_prototype(&self, class: usize) -> &Tensor {
        assert!(class < self.classes, "class out of range");
        self.prototypes[class].get_or_init(|| self.render_prototype(class))
    }

    /// Renders class `class`'s prototype from its seed.
    fn render_prototype(&self, class: usize) -> Tensor {
        let mut rng = Pcg32::seed_from_u64(derive_seed(self.seed, "prototype", class as u64));
        let [c, h, w] = self.shape;
        // A few random 2-D sinusoid components per channel: smooth, distinct,
        // zero-mean patterns (natural-image-like low-frequency structure).
        let mut out = Tensor::zeros(self.shape);
        for ch in 0..c {
            let components: Vec<(f64, f64, f64, f64)> = (0..4)
                .map(|_| {
                    (
                        rng.uniform(0.5, 3.0),                   // fy
                        rng.uniform(0.5, 3.0),                   // fx
                        rng.uniform(0.0, std::f64::consts::TAU), // phase
                        rng.uniform(0.4, 1.0),                   // amplitude
                    )
                })
                .collect();
            for y in 0..h {
                for x in 0..w {
                    let mut v = 0.0;
                    for &(fy, fx, phase, amp) in &components {
                        let arg = std::f64::consts::TAU
                            * (fy * y as f64 / h as f64 + fx * x as f64 / w as f64)
                            + phase;
                        v += amp * arg.sin();
                    }
                    *out.at_mut(ch, y, x) = v as f32;
                }
            }
        }
        out
    }

    /// Deterministic sample `index` of `class`.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    pub fn sample(&self, class: usize, index: usize) -> LabeledImage {
        self.sample_from(self.cached_prototype(class).clone(), class, index)
    }

    /// Sample `index` of `class`, drawn around `prototype` (that class's).
    fn sample_from(&self, mut image: Tensor, class: usize, index: usize) -> LabeledImage {
        let mut rng = Pcg32::seed_from_u64(derive_seed(
            self.seed,
            "sample",
            (class as u64) << 32 | index as u64,
        ));
        let signal = self.signal;
        let noise = self.noise;
        image.map_inplace(|v| v * signal);
        for v in image.as_mut_slice() {
            *v += noise * rng.normal() as f32;
        }
        LabeledImage {
            image,
            label: class,
        }
    }

    /// The full evaluation set: `per_class` samples of every class.
    pub fn evaluation_set(&self, per_class: usize) -> Vec<LabeledImage> {
        let mut out = Vec::with_capacity(self.classes * per_class);
        for class in 0..self.classes {
            for index in 0..per_class {
                out.push(self.sample(class, index));
            }
        }
        out
    }

    /// A calibration batch (one image of each of the first `n` classes).
    pub fn calibration_batch(&self, n: usize) -> Vec<Tensor> {
        (0..n.min(self.classes))
            .map(|c| self.sample(c, usize::MAX / 2).image)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> SyntheticImageNet {
        SyntheticImageNet::new(8, [3, 16, 16], 7)
    }

    #[test]
    fn prototypes_are_deterministic_and_distinct() {
        let d = data();
        assert_eq!(d.prototype(0), d.prototype(0));
        let a = d.prototype(0);
        let b = d.prototype(1);
        let diff: f32 = a
            .as_slice()
            .iter()
            .zip(b.as_slice())
            .map(|(x, y)| (x - y).abs())
            .sum();
        assert!(diff > 1.0, "prototypes too similar");
    }

    #[test]
    fn samples_vary_within_class() {
        let d = data();
        let a = d.sample(2, 0);
        let b = d.sample(2, 1);
        assert_ne!(a.image, b.image);
        assert_eq!(a.label, b.label);
    }

    #[test]
    fn samples_correlate_with_their_prototype() {
        let d = data().with_snr(2.0, 0.5);
        let proto = d.prototype(4);
        let img = d.sample(4, 0).image;
        let corr_own = correlation(&img, &proto);
        let corr_other = correlation(&img, &d.prototype(5));
        assert!(corr_own > corr_other, "{corr_own} vs {corr_other}");
    }

    fn correlation(a: &Tensor, b: &Tensor) -> f32 {
        a.as_slice()
            .iter()
            .zip(b.as_slice())
            .map(|(x, y)| x * y)
            .sum()
    }

    #[test]
    fn evaluation_set_is_balanced() {
        let set = data().evaluation_set(5);
        assert_eq!(set.len(), 40);
        for c in 0..8 {
            assert_eq!(set.iter().filter(|s| s.label == c).count(), 5);
        }
    }

    #[test]
    fn snr_controls_noise_level() {
        let clean = data().with_snr(1.0, 0.01).sample(0, 0).image;
        let noisy = data().with_snr(1.0, 2.0).sample(0, 0).image;
        let proto = data().prototype(0);
        let dev = |img: &Tensor| -> f32 {
            img.as_slice()
                .iter()
                .zip(proto.as_slice())
                .map(|(x, y)| (x - y).abs())
                .sum()
        };
        assert!(dev(&noisy) > 10.0 * dev(&clean));
    }

    #[test]
    fn calibration_batch_sized() {
        assert_eq!(data().calibration_batch(4).len(), 4);
        assert_eq!(data().calibration_batch(100).len(), 8);
    }

    /// Asserts every class's prototype and a few samples equal a fresh,
    /// uncached render.
    fn assert_matches_uncached(d: &SyntheticImageNet) {
        for class in 0..d.classes() {
            let fresh = d.render_prototype(class);
            assert_eq!(d.prototype(class), fresh, "prototype {class}");
            for index in [0, 1, 1000, usize::MAX / 2] {
                let expected = d.sample_from(fresh.clone(), class, index);
                assert_eq!(
                    d.sample(class, index),
                    expected,
                    "sample ({class}, {index})"
                );
            }
        }
    }

    #[test]
    fn memoized_prototypes_and_samples_equal_uncached_renders() {
        let d = data().with_snr(1.0, 0.7);
        let partly_warm = {
            let _ = d.sample(3, 0);
            d.clone()
        };
        assert_matches_uncached(&d);
        // Twice: the second pass reads only memoized prototypes.
        assert_matches_uncached(&d);
        assert_matches_uncached(&d.clone());
        assert_matches_uncached(&partly_warm);
        assert_matches_uncached(&data().clone());
    }

    #[test]
    fn classes_first_touched_from_several_threads_match_uncached_renders() {
        let d = data();
        let classes = d.classes();
        std::thread::scope(|s| {
            for t in 0..4 {
                let d = &d;
                s.spawn(move || {
                    for k in 0..classes {
                        let class = (k + 3 * t) % classes;
                        assert_eq!(d.prototype(class), d.render_prototype(class));
                    }
                });
            }
        });
        assert_matches_uncached(&d);
    }

    #[test]
    #[should_panic(expected = "class out of range")]
    fn class_bounds_checked() {
        data().prototype(8);
    }
}
