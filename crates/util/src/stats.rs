//! Streaming and batch statistics used by the experiment harnesses.
//!
//! The paper reports every latency as "average of the 10 runs along with
//! standard deviation across these 10 runs"; [`RunningStats`] (Welford's
//! algorithm) provides exactly that, and [`Summary`] adds order statistics for
//! the concurrency experiments.

/// Numerically stable mean/variance accumulator (Welford).
///
/// # Examples
///
/// ```
/// use trtsim_util::stats::RunningStats;
/// let mut s = RunningStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample standard deviation (n−1 denominator; 0 for fewer than two points).
    pub fn std_dev(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / (self.count - 1) as f64).sqrt()
        }
    }

    /// Smallest observation (∞ when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (−∞ when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Extend<f64> for RunningStats {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for RunningStats {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = Self::new();
        s.extend(iter);
        s
    }
}

/// Batch summary with order statistics.
///
/// # Examples
///
/// ```
/// use trtsim_util::stats::Summary;
/// let s = Summary::from_samples(&[1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(s.median, 2.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Median (linear interpolation).
    pub median: f64,
    /// 95th percentile (linear interpolation).
    pub p95: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Computes a summary from raw samples. NaN samples are dropped rather
    /// than poisoning the order statistics; when nothing (finite) remains,
    /// the result is [`Summary::empty`] instead of a panic, so harnesses
    /// that summarize zero completed requests stay total.
    pub fn from_samples(samples: &[f64]) -> Self {
        let mut sorted: Vec<f64> = samples.iter().copied().filter(|v| !v.is_nan()).collect();
        if sorted.is_empty() {
            return Self::empty();
        }
        sorted.sort_by(f64::total_cmp);
        let running: RunningStats = sorted.iter().copied().collect();
        Self {
            count: sorted.len(),
            mean: running.mean(),
            std_dev: running.std_dev(),
            min: sorted[0],
            median: percentile_sorted(&sorted, 50.0).unwrap_or(f64::NAN),
            p95: percentile_sorted(&sorted, 95.0).unwrap_or(f64::NAN),
            max: sorted[sorted.len() - 1],
        }
    }

    /// The summary of zero samples: `count == 0`, NaN order statistics.
    pub fn empty() -> Self {
        Self {
            count: 0,
            mean: f64::NAN,
            std_dev: f64::NAN,
            min: f64::NAN,
            median: f64::NAN,
            p95: f64::NAN,
            max: f64::NAN,
        }
    }

    /// Whether the summary holds any samples.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "mean {:.3} ± {:.3} (n={}, min {:.3}, p50 {:.3}, p95 {:.3}, max {:.3})",
            self.mean, self.std_dev, self.count, self.min, self.median, self.p95, self.max
        )
    }
}

/// Percentile with linear interpolation over a pre-sorted slice.
///
/// Returns `None` when `sorted` is empty or `p` is outside `[0, 100]`
/// (including NaN), so empty-stats paths — a drained server with zero
/// completed requests, an aborted run — cannot panic here.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() || !(0.0..=100.0).contains(&p) {
        return None;
    }
    if sorted.len() == 1 {
        return Some(sorted[0]);
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Mean of a slice (0 when empty).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Sample standard deviation of a slice (0 for fewer than two points).
pub fn std_dev(samples: &[f64]) -> f64 {
    samples.iter().copied().collect::<RunningStats>().std_dev()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive() {
        let data = [3.1, 4.1, 5.9, 2.6, 5.3, 5.8, 9.7, 9.3];
        let s: RunningStats = data.iter().copied().collect();
        let naive_mean = data.iter().sum::<f64>() / data.len() as f64;
        let naive_var =
            data.iter().map(|x| (x - naive_mean).powi(2)).sum::<f64>() / (data.len() - 1) as f64;
        assert!((s.mean() - naive_mean).abs() < 1e-12);
        assert!((s.std_dev() - naive_var.sqrt()).abs() < 1e-12);
        assert_eq!(s.min(), 2.6);
        assert_eq!(s.max(), 9.7);
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let full: RunningStats = data.iter().copied().collect();
        let mut a: RunningStats = data[..37].iter().copied().collect();
        let b: RunningStats = data[37..].iter().copied().collect();
        a.merge(&b);
        assert!((a.mean() - full.mean()).abs() < 1e-10);
        assert!((a.std_dev() - full.std_dev()).abs() < 1e-10);
        assert_eq!(a.count(), full.count());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s: RunningStats = [1.0, 2.0].iter().copied().collect();
        s.merge(&RunningStats::new());
        assert_eq!(s.count(), 2);
        let mut e = RunningStats::new();
        e.merge(&s);
        assert_eq!(e.count(), 2);
        assert!((e.mean() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn percentiles_interpolate() {
        let sorted = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile_sorted(&sorted, 0.0), Some(10.0));
        assert_eq!(percentile_sorted(&sorted, 100.0), Some(40.0));
        assert_eq!(percentile_sorted(&sorted, 50.0), Some(25.0));
    }

    #[test]
    fn percentile_degenerate_inputs_are_none() {
        assert_eq!(percentile_sorted(&[], 50.0), None);
        let sorted = [1.0, 2.0];
        assert_eq!(percentile_sorted(&sorted, -0.1), None);
        assert_eq!(percentile_sorted(&sorted, 100.1), None);
        assert_eq!(percentile_sorted(&sorted, f64::NAN), None);
    }

    #[test]
    fn summary_of_constant_data() {
        let s = Summary::from_samples(&[5.0; 10]);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.median, 5.0);
        assert_eq!(s.p95, 5.0);
    }

    #[test]
    fn single_sample_stats() {
        let mut s = RunningStats::new();
        s.push(42.0);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(Summary::from_samples(&[42.0]).p95, 42.0);
    }

    #[test]
    fn empty_summary_is_total_not_a_panic() {
        let s = Summary::from_samples(&[]);
        assert!(s.is_empty());
        assert_eq!(s.count, 0);
        assert!(s.median.is_nan() && s.p95.is_nan());
        // All-NaN input degenerates to the same empty summary.
        let all_nan = Summary::from_samples(&[f64::NAN, f64::NAN]);
        assert!(all_nan.is_empty());
        // Display stays renderable.
        assert!(format!("{s}").contains("n=0"));
    }

    #[test]
    fn nan_samples_are_filtered_not_poisonous() {
        let s = Summary::from_samples(&[f64::NAN, 1.0, 3.0]);
        assert_eq!(s.count, 2);
        assert_eq!(s.median, 2.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
    }
}
