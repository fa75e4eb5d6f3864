//! Streaming statistics used by the simulator and the analysis layers.
//!
//! Everything here is single-pass and allocation-light so it can run inside
//! the simulation hot loop.

use crate::SimTime;

/// Online mean/variance/min/max accumulator (Welford's algorithm).
///
/// # Example
///
/// ```
/// use desim::stats::OnlineStats;
/// let mut s = OnlineStats::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     s.push(x);
/// }
/// assert_eq!(s.count(), 4);
/// assert!((s.mean() - 2.5).abs() < 1e-12);
/// assert!((s.variance() - 5.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Number of samples pushed so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean; `0.0` when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance; `0.0` with fewer than two samples.
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample seen; `None` when empty.
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample seen; `None` when empty.
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one (parallel Welford merge).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
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

/// A fixed-bin histogram over `[lo, hi)` with `bins` equal-width bins plus
/// explicit underflow/overflow counters.
///
/// # Example
///
/// ```
/// use desim::stats::Histogram;
/// let mut h = Histogram::new(0.0, 10.0, 10);
/// h.record(0.5);
/// h.record(9.99);
/// h.record(-1.0);  // underflow
/// h.record(10.0);  // overflow (hi is exclusive)
/// assert_eq!(h.bin_count(0), 1);
/// assert_eq!(h.bin_count(9), 1);
/// assert_eq!(h.underflow(), 1);
/// assert_eq!(h.overflow(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `bins` bins.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `lo >= hi` or either bound is non-finite.
    #[must_use]
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(lo.is_finite() && hi.is_finite(), "bounds must be finite");
        assert!(lo < hi, "lo must be below hi");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
            total: 0,
        }
    }

    /// Records one sample. `NaN` samples count as underflow so they can
    /// never silently inflate a bin.
    pub fn record(&mut self, x: f64) {
        self.total += 1;
        if x.is_nan() || x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let w = (self.hi - self.lo) / self.counts.len() as f64;
            let idx = ((x - self.lo) / w) as usize;
            let idx = idx.min(self.counts.len() - 1); // guards FP edge at hi
            self.counts[idx] += 1;
        }
    }

    /// Count in bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn bin_count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// Number of bins.
    #[must_use]
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Samples below `lo`.
    #[must_use]
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples at or above `hi`.
    #[must_use]
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total samples recorded, including under/overflow.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The `(low, high)` edges of bin `i`.
    #[must_use]
    pub fn bin_edges(&self, i: usize) -> (f64, f64) {
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        (self.lo + w * i as f64, self.lo + w * (i + 1) as f64)
    }

    /// Fraction of all samples that fall at or below `x` (empirical CDF,
    /// resolved at bin granularity).
    #[must_use]
    pub fn cdf(&self, x: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let mut acc = self.underflow;
        for i in 0..self.counts.len() {
            let (_, hi) = self.bin_edges(i);
            if hi <= x {
                acc += self.counts[i];
            }
        }
        if x >= self.hi {
            acc += self.overflow;
        }
        acc as f64 / self.total as f64
    }
}

/// Integrates a piecewise-constant signal over simulated time and reports
/// its time-weighted average — used e.g. for average power and utilisation.
///
/// # Example
///
/// ```
/// use desim::stats::TimeWeighted;
/// use desim::SimTime;
/// let mut tw = TimeWeighted::new(SimTime::ZERO, 0.0);
/// tw.update(SimTime::from_us(10), 1.0); // value was 0.0 for 10us
/// tw.update(SimTime::from_us(20), 0.0); // value was 1.0 for 10us
/// assert!((tw.average(SimTime::from_us(20)) - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct TimeWeighted {
    last_time: SimTime,
    value: f64,
    weighted_sum: f64,
    start: SimTime,
}

impl TimeWeighted {
    /// Starts integrating `initial` from time `start`.
    #[must_use]
    pub fn new(start: SimTime, initial: f64) -> Self {
        TimeWeighted {
            last_time: start,
            value: initial,
            weighted_sum: 0.0,
            start,
        }
    }

    /// Records that the signal changed to `value` at time `now`.
    ///
    /// # Panics
    ///
    /// Panics if `now` is before the previous update.
    pub fn update(&mut self, now: SimTime, value: f64) {
        assert!(now >= self.last_time, "time must be monotone");
        self.weighted_sum += self.value * (now - self.last_time).as_secs();
        self.last_time = now;
        self.value = value;
    }

    /// Current value of the signal.
    #[must_use]
    pub fn current(&self) -> f64 {
        self.value
    }

    /// Time-weighted average over `[start, now]`.
    #[must_use]
    pub fn average(&self, now: SimTime) -> f64 {
        let span = (now - self.start).as_secs();
        if span <= 0.0 {
            return self.value;
        }
        let tail = self.value * (now - self.last_time).as_secs();
        (self.weighted_sum + tail) / span
    }
}

/// Streaming quantile estimation with the P² algorithm (Jain & Chlamtac,
/// CACM 1985): tracks one quantile in O(1) memory, no sample storage.
///
/// The exact-percentile path in the LOC analyzer stores every instance
/// value; this estimator is the bounded-memory alternative for runs whose
/// traces are too long to keep (days of simulated traffic).
///
/// # Example
///
/// ```
/// use desim::stats::P2Quantile;
/// let mut q = P2Quantile::new(0.8);
/// for k in 1..=1000 {
///     q.push(f64::from(k));
/// }
/// let est = q.estimate().expect("has samples");
/// assert!((est - 800.0).abs() < 20.0, "estimate {est}");
/// ```
#[derive(Debug, Clone)]
pub struct P2Quantile {
    p: f64,
    /// Marker heights (the 5 running estimates).
    q: [f64; 5],
    /// Marker positions (1-based sample ranks).
    n: [f64; 5],
    /// Desired marker positions.
    np: [f64; 5],
    /// Position increments per observation.
    dn: [f64; 5],
    count: usize,
    /// First five samples, collected before the markers initialise.
    warmup: Vec<f64>,
}

impl P2Quantile {
    /// Creates an estimator for the `p`-quantile.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < p < 1`.
    #[must_use]
    pub fn new(p: f64) -> Self {
        assert!(
            p > 0.0 && p < 1.0,
            "quantile must be strictly inside (0, 1)"
        );
        P2Quantile {
            p,
            q: [0.0; 5],
            n: [1.0, 2.0, 3.0, 4.0, 5.0],
            np: [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0],
            dn: [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0],
            count: 0,
            warmup: Vec::with_capacity(5),
        }
    }

    /// Adds one sample. Non-finite samples are ignored.
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.count += 1;
        if self.warmup.len() < 5 {
            self.warmup.push(x);
            if self.warmup.len() == 5 {
                self.warmup
                    .sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
                for (slot, &v) in self.q.iter_mut().zip(self.warmup.iter()) {
                    *slot = v;
                }
            }
            return;
        }

        // Find the cell k with q[k] <= x < q[k+1]; clamp extremes.
        let k = if x < self.q[0] {
            self.q[0] = x;
            0
        } else if x >= self.q[4] {
            self.q[4] = x;
            3
        } else {
            let mut cell = 0;
            for i in 0..4 {
                if self.q[i] <= x && x < self.q[i + 1] {
                    cell = i;
                    break;
                }
            }
            cell
        };

        for i in (k + 1)..5 {
            self.n[i] += 1.0;
        }
        for i in 0..5 {
            self.np[i] += self.dn[i];
        }

        // Adjust interior markers with parabolic (or linear) interpolation.
        for i in 1..4 {
            let d = self.np[i] - self.n[i];
            let right = self.n[i + 1] - self.n[i];
            let left = self.n[i - 1] - self.n[i];
            if (d >= 1.0 && right > 1.0) || (d <= -1.0 && left < -1.0) {
                let d = d.signum();
                let parabolic = self.q[i]
                    + d / (self.n[i + 1] - self.n[i - 1])
                        * ((self.n[i] - self.n[i - 1] + d) * (self.q[i + 1] - self.q[i])
                            / (self.n[i + 1] - self.n[i])
                            + (self.n[i + 1] - self.n[i] - d) * (self.q[i] - self.q[i - 1])
                                / (self.n[i] - self.n[i - 1]));
                self.q[i] = if self.q[i - 1] < parabolic && parabolic < self.q[i + 1] {
                    parabolic
                } else {
                    // Linear fallback when the parabola escapes the cell.
                    let j = if d > 0.0 { i + 1 } else { i - 1 };
                    self.q[i] + d * (self.q[j] - self.q[i]) / (self.n[j] - self.n[i])
                };
                self.n[i] += d;
            }
        }
    }

    /// Number of (finite) samples pushed.
    #[must_use]
    pub fn count(&self) -> usize {
        self.count
    }

    /// The current estimate; `None` before any sample arrives. With fewer
    /// than five samples this is the exact sample quantile.
    #[must_use]
    pub fn estimate(&self) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        if self.warmup.len() < 5 {
            let mut sorted = self.warmup.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
            let rank = ((self.p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            return Some(sorted[rank - 1]);
        }
        Some(self.q[2])
    }
}

/// A monotonically increasing named counter.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    value: u64,
}

impl Counter {
    /// Creates a counter at zero.
    #[must_use]
    pub fn new() -> Self {
        Counter { value: 0 }
    }

    /// Adds one.
    pub fn incr(&mut self) {
        self.value += 1;
    }

    /// Adds `n`.
    pub fn add(&mut self, n: u64) {
        self.value += n;
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basic() {
        let mut s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.min(), None);
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // population variance 4 -> sample variance 32/7
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn online_stats_merge_matches_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = OnlineStats::new();
        for &x in &data {
            all.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &data[..37] {
            a.push(x);
        }
        for &x in &data[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(1.0);
        a.push(3.0);
        let before = (a.count(), a.mean(), a.variance());
        a.merge(&OnlineStats::new());
        assert_eq!(before, (a.count(), a.mean(), a.variance()));

        let mut empty = OnlineStats::new();
        let mut b = OnlineStats::new();
        b.push(5.0);
        empty.merge(&b);
        assert_eq!(empty.count(), 1);
        assert_eq!(empty.mean(), 5.0);
    }

    #[test]
    fn histogram_binning_and_cdf() {
        let mut h = Histogram::new(0.0, 100.0, 10);
        for x in 0..100 {
            h.record(x as f64);
        }
        for i in 0..10 {
            assert_eq!(h.bin_count(i), 10, "bin {i}");
        }
        assert_eq!(h.total(), 100);
        assert!((h.cdf(50.0) - 0.5).abs() < 1e-12);
        assert!((h.cdf(100.0) - 1.0).abs() < 1e-12);
        assert_eq!(h.bin_edges(0), (0.0, 10.0));
    }

    #[test]
    fn histogram_edge_values() {
        let mut h = Histogram::new(1.0, 2.0, 4);
        h.record(1.0); // inclusive low edge
        h.record(2.0); // exclusive high edge -> overflow
        h.record(f64::NAN); // NaN counts as underflow
        assert_eq!(h.bin_count(0), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.total(), 3);
    }

    #[test]
    #[should_panic(expected = "lo must be below hi")]
    fn histogram_rejects_inverted_bounds() {
        let _ = Histogram::new(2.0, 1.0, 4);
    }

    #[test]
    fn time_weighted_average() {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 2.0);
        tw.update(SimTime::from_us(5), 4.0);
        // 2.0 for 5us, then 4.0 for 5us -> average 3.0
        assert!((tw.average(SimTime::from_us(10)) - 3.0).abs() < 1e-12);
        assert_eq!(tw.current(), 4.0);
    }

    #[test]
    fn time_weighted_zero_span_returns_current() {
        let tw = TimeWeighted::new(SimTime::from_us(3), 7.5);
        assert_eq!(tw.average(SimTime::from_us(3)), 7.5);
    }

    #[test]
    fn counter_ops() {
        let mut c = Counter::new();
        c.incr();
        c.add(10);
        assert_eq!(c.get(), 11);
    }

    #[test]
    fn p2_tracks_uniform_median() {
        let mut q = P2Quantile::new(0.5);
        // Deterministic pseudo-shuffle of 1..=10_000.
        let mut x: u64 = 1;
        for _ in 0..10_000 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            q.push((x % 10_000) as f64);
        }
        let est = q.estimate().unwrap();
        assert!((est - 5_000.0).abs() < 200.0, "median estimate {est}");
        assert_eq!(q.count(), 10_000);
    }

    #[test]
    fn p2_exact_below_five_samples() {
        let mut q = P2Quantile::new(0.8);
        assert_eq!(q.estimate(), None);
        q.push(3.0);
        assert_eq!(q.estimate(), Some(3.0));
        q.push(1.0);
        q.push(2.0);
        // 80th percentile of {1,2,3} -> rank ceil(0.8*3)=3 -> 3.0.
        assert_eq!(q.estimate(), Some(3.0));
    }

    #[test]
    fn p2_ignores_non_finite() {
        let mut q = P2Quantile::new(0.5);
        q.push(f64::NAN);
        q.push(f64::INFINITY);
        assert_eq!(q.count(), 0);
        assert_eq!(q.estimate(), None);
    }

    #[test]
    fn p2_monotone_data() {
        let mut q = P2Quantile::new(0.9);
        for k in 0..5_000 {
            q.push(f64::from(k));
        }
        let est = q.estimate().unwrap();
        assert!((est - 4_500.0).abs() < 150.0, "p90 estimate {est}");
    }

    #[test]
    #[should_panic(expected = "strictly inside")]
    fn p2_rejects_degenerate_quantile() {
        let _ = P2Quantile::new(1.0);
    }
}
