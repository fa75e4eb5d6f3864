//! Welch's t-test between two summarised samples — the significance
//! layer over the replication batches.
//!
//! A replicated comparison reports each policy's metrics as per-seed
//! folds ([`Summary`]); whether a policy's saving over the noDVS
//! baseline is *real* or replication noise is exactly Welch's unequal
//! variances t-test over those two folds. The test needs only the
//! moments a [`Summary`] retains (n, mean, variance), so it runs over
//! folds that long since discarded their samples.
//!
//! Significance is judged against the same compiled-in two-sided
//! Student-t table the confidence intervals use, with the
//! Welch–Satterthwaite degrees of freedom rounded **down** — like the
//! table's step-down rows, this over-covers: a difference reported
//! significant at a level really is at least that significant.

use crate::{ConfidenceLevel, Summary};

/// The outcome of Welch's t-test between two sample means.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WelchT {
    /// The t statistic `(mean_a - mean_b) / sqrt(se_a² + se_b²)`.
    /// Positive when sample *a*'s mean is larger. Infinite when both
    /// samples are noise-free but their means differ.
    pub t: f64,
    /// Welch–Satterthwaite degrees of freedom, rounded down (≥ 1).
    pub df: u64,
}

impl WelchT {
    /// `true` when the two means differ significantly at `level`
    /// (two-sided): `|t|` exceeds the critical value at `df`.
    #[must_use]
    pub fn significant(&self, level: ConfidenceLevel) -> bool {
        self.t.abs() > level.t_critical(self.df)
    }
}

/// Welch's two-sample t-test on the means of `a` and `b`.
///
/// Returns `None` when either side has fewer than two observations — a
/// single seed carries no variance information, so no test is possible.
/// When both sides have zero variance the statistic degenerates: equal
/// means give `t = 0` (clearly not significant), distinct means give an
/// infinite `t` (the samples are noise-free and genuinely different, as
/// a seed-insensitive CBR workload produces).
#[must_use]
pub fn welch_t(a: &Summary, b: &Summary) -> Option<WelchT> {
    if a.n() < 2 || b.n() < 2 {
        return None;
    }
    // Per-sample squared standard errors.
    let sea2 = a.variance() / a.n() as f64;
    let seb2 = b.variance() / b.n() as f64;
    let denom2 = sea2 + seb2;
    let delta = a.mean() - b.mean();
    if denom2 <= 0.0 {
        return Some(WelchT {
            t: if delta == 0.0 {
                0.0
            } else {
                delta.signum() * f64::INFINITY
            },
            // Both samples are exact: any df gives the same verdict.
            df: 1,
        });
    }
    // Welch–Satterthwaite: df = (sea² + seb²)² / (sea⁴/(na-1) + seb⁴/(nb-1)).
    let df =
        denom2 * denom2 / (sea2 * sea2 / (a.n() - 1) as f64 + seb2 * seb2 / (b.n() - 1) as f64);
    Some(WelchT {
        t: delta / denom2.sqrt(),
        // Round down: a conservative df never overstates significance.
        df: (df.floor() as u64).max(1),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clearly_separated_samples_are_significant() {
        let a = Summary::of([10.1, 10.2, 9.9, 10.0, 10.1, 9.8, 10.0, 10.2]);
        let b = Summary::of([12.0, 12.2, 11.9, 12.1, 12.0, 12.3, 11.8, 12.1]);
        let w = welch_t(&a, &b).unwrap();
        assert!(w.t < 0.0, "a below b must give a negative t: {}", w.t);
        assert!(w.t.abs() > 10.0, "t = {}", w.t);
        for level in ConfidenceLevel::ALL {
            assert!(w.significant(level), "{level}");
        }
    }

    #[test]
    fn identical_folds_are_not_significant() {
        let a = Summary::of([5.0, 5.2, 4.9, 5.1]);
        let w = welch_t(&a, &a.clone()).unwrap();
        assert_eq!(w.t, 0.0);
        assert!(!w.significant(ConfidenceLevel::P90));
    }

    #[test]
    fn overlapping_noise_is_not_significant() {
        let a = Summary::of([1.0, 2.0, 3.0, 4.0, 5.0]);
        let b = Summary::of([1.5, 2.5, 3.5, 4.5, 5.5]); // shifted by 0.5 ≪ spread
        let w = welch_t(&a, &b).unwrap();
        assert!(w.t.abs() < 1.0, "t = {}", w.t);
        assert!(!w.significant(ConfidenceLevel::P95));
    }

    #[test]
    fn welch_satterthwaite_matches_a_hand_computation() {
        // Classic textbook shape: unequal variances and sizes.
        let a = Summary::of([
            27.5, 21.0, 19.0, 23.6, 17.0, 17.9, 16.9, 20.1, 21.9, 22.6, 23.1, 19.6, 19.0, 21.7,
            21.4,
        ]);
        let b = Summary::of([
            27.1, 22.0, 20.8, 23.4, 23.4, 23.5, 25.8, 22.0, 24.8, 20.2, 21.9, 22.1, 22.9, 30.0,
            23.9,
        ]);
        let w = welch_t(&a, &b).unwrap();
        // Independently computed reference for this data:
        // t ≈ -2.8353, Welch–Satterthwaite df ≈ 27.71 → floor 27.
        assert!((w.t - (-2.8353)).abs() < 0.001, "t = {}", w.t);
        assert_eq!(w.df, 27);
        assert!(w.significant(ConfidenceLevel::P95));
        // df 27 at 99%: critical 2.771 < |t| 2.835 — just significant.
        assert!(w.significant(ConfidenceLevel::P99));
    }

    #[test]
    fn degenerate_folds_are_handled() {
        // One-seed folds carry no variance: no test.
        assert!(welch_t(&Summary::of([1.0]), &Summary::of([1.0, 2.0])).is_none());
        // Noise-free equal folds: t = 0.
        let exact = Summary::of([2.0, 2.0, 2.0]);
        let w = welch_t(&exact, &exact.clone()).unwrap();
        assert_eq!(w.t, 0.0);
        assert!(!w.significant(ConfidenceLevel::P90));
        // Noise-free distinct folds: infinitely significant, sign of a - b.
        let other = Summary::of([3.0, 3.0, 3.0]);
        let w = welch_t(&exact, &other).unwrap();
        assert_eq!(w.t, f64::NEG_INFINITY);
        assert!(w.significant(ConfidenceLevel::P99));
    }

    #[test]
    fn symmetric_in_sign() {
        let a = Summary::of([1.0, 1.1, 0.9, 1.05]);
        let b = Summary::of([2.0, 2.1, 1.9, 2.05]);
        let ab = welch_t(&a, &b).unwrap();
        let ba = welch_t(&b, &a).unwrap();
        assert_eq!(ab.t, -ba.t);
        assert_eq!(ab.df, ba.df);
    }
}
