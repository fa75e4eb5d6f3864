//! [`Summary`] — streaming moments of a sample, one observation at a
//! time.

use crate::{ConfidenceInterval, ConfidenceLevel};

/// Streaming summary statistics of a sample: count, mean, variance
/// (via Welford's online algorithm), minimum and maximum.
///
/// Observations are folded one at a time with [`Summary::push`]; no
/// sample vector is retained, so a `Summary` costs the same for 3
/// replicates as for 3 million trace windows. Welford's update is
/// numerically stable (it never subtracts two large squared sums) and —
/// crucial for the workspace's bit-determinism contract — a **pure
/// function of the observation order**: folding the same values in the
/// same order always produces bit-identical state, regardless of which
/// thread ran the simulations that produced them.
///
/// # Example
///
/// ```
/// use stats::Summary;
///
/// let mut s = Summary::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert_eq!(s.n(), 8);
/// assert_eq!(s.mean(), 5.0);
/// assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
/// assert_eq!(s.min(), 2.0);
/// assert_eq!(s.max(), 9.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    n: u64,
    mean: f64,
    /// Sum of squared deviations from the running mean (Welford's M2).
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// An empty summary: no observations yet.
    #[must_use]
    pub fn new() -> Self {
        Summary {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Folds one observation into the summary.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// A summary of every value in the iterator, in iteration order.
    #[must_use]
    pub fn of(values: impl IntoIterator<Item = f64>) -> Self {
        let mut s = Summary::new();
        for v in values {
            s.push(v);
        }
        s
    }

    /// Number of observations folded so far.
    #[must_use]
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 for an empty summary).
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (Bessel-corrected, `m2 / (n - 1)`);
    /// 0 for fewer than two observations.
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean, `s / sqrt(n)`; 0 for fewer than two
    /// observations.
    #[must_use]
    pub fn std_error(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.std_dev() / (self.n as f64).sqrt()
        }
    }

    /// Smallest observation (+∞ for an empty summary).
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (−∞ for an empty summary).
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Half-width of the two-sided Student-t confidence interval on the
    /// mean at `level`: `t(level, n-1) * std_error`. 0 for fewer than
    /// two observations — a single seed carries no variance information.
    #[must_use]
    pub fn half_width(&self, level: ConfidenceLevel) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            level.t_critical(self.n - 1) * self.std_error()
        }
    }

    /// The two-sided confidence interval on the mean at `level`.
    #[must_use]
    pub fn ci(&self, level: ConfidenceLevel) -> ConfidenceInterval {
        ConfidenceInterval {
            mean: self.mean(),
            half_width: self.half_width(level),
            level,
            n: self.n,
        }
    }
}

impl Default for Summary {
    fn default() -> Self {
        Summary::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_benign() {
        let s = Summary::new();
        assert_eq!(s.n(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.std_error(), 0.0);
        assert_eq!(s.half_width(ConfidenceLevel::P95), 0.0);
    }

    #[test]
    fn single_observation_has_zero_spread() {
        let s = Summary::of([3.5]);
        assert_eq!(s.n(), 1);
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.min(), 3.5);
        assert_eq!(s.max(), 3.5);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.half_width(ConfidenceLevel::P99), 0.0);
    }

    #[test]
    fn welford_matches_two_pass_variance() {
        let values: Vec<f64> = (0..100)
            .map(|k| (k as f64 * 0.37).sin() * 5.0 + 10.0)
            .collect();
        let s = Summary::of(values.iter().copied());
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let var =
            values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (values.len() - 1) as f64;
        assert!((s.mean() - mean).abs() < 1e-12, "{} vs {mean}", s.mean());
        assert!(
            (s.variance() - var).abs() < 1e-12,
            "{} vs {var}",
            s.variance()
        );
    }

    #[test]
    fn fold_is_bit_deterministic_for_fixed_order() {
        let values: Vec<f64> = (0..50).map(|k| (k as f64).sqrt() * 1.1).collect();
        let a = Summary::of(values.iter().copied());
        let b = Summary::of(values.iter().copied());
        assert_eq!(a.mean().to_bits(), b.mean().to_bits());
        assert_eq!(a.variance().to_bits(), b.variance().to_bits());
        assert_eq!(
            a.half_width(ConfidenceLevel::P95).to_bits(),
            b.half_width(ConfidenceLevel::P95).to_bits()
        );
    }

    #[test]
    fn known_ci_half_width() {
        // n = 8, s.e. = s / sqrt(8), df = 7 -> t(95%) = 2.365.
        let s = Summary::of([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        let expected = 2.365 * (32.0f64 / 7.0).sqrt() / 8.0f64.sqrt();
        assert!((s.half_width(ConfidenceLevel::P95) - expected).abs() < 1e-12);
        let ci = s.ci(ConfidenceLevel::P95);
        assert_eq!(ci.mean, 5.0);
        assert_eq!(ci.n, 8);
        assert!(ci.contains(5.0));
    }

    #[test]
    fn constant_sample_has_zero_width() {
        let s = Summary::of([1.25; 10]);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.half_width(ConfidenceLevel::P90), 0.0);
        assert_eq!(s.min(), s.max());
    }
}
