//! Day-long arrival-rate profile (paper Fig. 2).

use desim::rng::derive_stream;
use rand::Rng;

use crate::{ArrivalConfig, PacketSource, TrafficLevel, TrafficModel};

/// One sample of the diurnal profile: the max/median/min envelope of the
/// arrival rate at a time of day — the three curves of paper Fig. 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiurnalSample {
    /// Seconds since midnight.
    pub time_of_day_s: f64,
    /// Maximum observed rate in bits/s.
    pub max_bps: f64,
    /// Median rate in bits/s.
    pub med_bps: f64,
    /// Minimum rate in bits/s.
    pub min_bps: f64,
}

/// A synthetic stand-in for the NLANR edge-router day trace.
///
/// The profile is a smooth diurnal curve — a night-time trough around
/// 04:00 and a broad daytime plateau — with multiplicative jitter, scaled
/// to a configurable peak. Fig. 2's y-axis tops out around 2.5×10⁸ bits/s
/// for a single measured link; [`DiurnalModel::nlanr_like`] uses that peak.
///
/// # Example
///
/// ```
/// use traffic::DiurnalModel;
/// let model = DiurnalModel::nlanr_like(1);
/// let noon = model.sample(12.0 * 3600.0);
/// let night = model.sample(4.0 * 3600.0);
/// assert!(noon.med_bps > night.med_bps);
/// ```
#[derive(Debug, Clone)]
pub struct DiurnalModel {
    peak_bps: f64,
    seed: u64,
}

impl DiurnalModel {
    /// A profile shaped like paper Fig. 2 (peak ~2.5×10⁸ bits/s).
    #[must_use]
    pub fn nlanr_like(seed: u64) -> Self {
        DiurnalModel {
            peak_bps: 2.5e8,
            seed,
        }
    }

    /// A profile with a custom peak rate.
    ///
    /// # Panics
    ///
    /// Panics if `peak_bps` is not positive and finite.
    #[must_use]
    pub fn with_peak(peak_bps: f64, seed: u64) -> Self {
        assert!(
            peak_bps.is_finite() && peak_bps > 0.0,
            "peak rate must be positive"
        );
        DiurnalModel { peak_bps, seed }
    }

    /// The deterministic diurnal shape in `[0.12, 1.0]`: a raised cosine
    /// with its trough at 04:00 and peak at 16:00.
    #[must_use]
    pub fn shape(&self, time_of_day_s: f64) -> f64 {
        let day = 24.0 * 3600.0;
        let t = time_of_day_s.rem_euclid(day);
        let phase = (t - 4.0 * 3600.0) / day * std::f64::consts::TAU;
        0.56 - 0.44 * phase.cos()
    }

    /// Samples the max/median/min envelope at a time of day, including
    /// reproducible jitter.
    #[must_use]
    pub fn sample(&self, time_of_day_s: f64) -> DiurnalSample {
        let shape = self.shape(time_of_day_s);
        // Jitter derived from (seed, time bucket) so repeated queries agree.
        let bucket = (time_of_day_s / 60.0) as u64;
        let mut rng = derive_stream(self.seed ^ bucket.wrapping_mul(0x9E37), "diurnal");
        let jitter = 1.0 + rng.gen_range(-0.08..0.08);
        let med = self.peak_bps * shape * 0.55 * jitter;
        DiurnalSample {
            time_of_day_s,
            max_bps: self.peak_bps * shape * jitter,
            med_bps: med,
            min_bps: self.peak_bps * shape * 0.14 * jitter,
        }
    }

    /// Samples the whole day at `step_s` resolution — the series plotted in
    /// Fig. 2.
    ///
    /// # Panics
    ///
    /// Panics if `step_s` is not positive.
    #[must_use]
    pub fn day_series(&self, step_s: f64) -> Vec<DiurnalSample> {
        assert!(step_s > 0.0, "step must be positive");
        let day = 24.0 * 3600.0;
        let n = (day / step_s) as usize;
        (0..n).map(|k| self.sample(k as f64 * step_s)).collect()
    }

    /// The time of day (seconds) the paper's three sampling periods are
    /// taken from: low ≈ 04:00, medium ≈ 09:00, high ≈ 16:00.
    #[must_use]
    pub fn sampling_time_for(level: TrafficLevel) -> f64 {
        match level {
            TrafficLevel::Low => 4.0 * 3600.0,
            TrafficLevel::Medium => 9.0 * 3600.0,
            TrafficLevel::High => 16.0 * 3600.0,
        }
    }
}

/// The `diurnal` traffic model: sample the day profile at a time of day
/// and drive the MMPP generator at the sampled median rate — the
/// paper's "sample a few seconds of real traffic" flow (§3.2) as a
/// [`TrafficModel`].
///
/// The profile jitter is derived from `profile_seed` (not the stream
/// seed), so the *offered rate* of a spec is a fixed, self-describable
/// number while each stream seed still gets an independent arrival
/// process.
#[derive(Debug, Clone, PartialEq)]
pub struct DiurnalConfig {
    /// Time of day to sample, in hours `[0, 24)`.
    pub hour: f64,
    /// Ratio of NPU aggregate traffic to the profiled link's median
    /// (see [`ArrivalConfig::from_diurnal`]).
    pub aggregate_scale: f64,
    /// Peak rate of the day profile, bits/s.
    pub peak_bps: f64,
    /// Seed of the profile jitter (fixed per spec, independent of the
    /// stream seed).
    pub profile_seed: u64,
}

impl Default for DiurnalConfig {
    /// The paper's high sampling period: 16:00 on a Fig. 2-scale link,
    /// aggregated ~5× onto the NPU.
    fn default() -> Self {
        DiurnalConfig {
            hour: 16.0,
            aggregate_scale: 5.0,
            peak_bps: 2.5e8,
            profile_seed: 0,
        }
    }
}

impl DiurnalConfig {
    /// The MMPP configuration this diurnal sample resolves to.
    ///
    /// # Panics
    ///
    /// Panics if the peak rate or aggregate scale is not positive.
    #[must_use]
    pub fn arrival_config(&self) -> ArrivalConfig {
        let model = DiurnalModel::with_peak(self.peak_bps, self.profile_seed);
        let sample = model.sample(self.hour * 3600.0);
        ArrivalConfig::from_diurnal(&sample, self.aggregate_scale)
    }
}

impl TrafficModel for DiurnalConfig {
    fn mean_rate_mbps(&self) -> f64 {
        TrafficModel::mean_rate_mbps(&self.arrival_config())
    }

    fn stream(&self, seed: u64) -> PacketSource {
        self.arrival_config().stream(seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_peaks_in_afternoon_and_troughs_at_night() {
        let m = DiurnalModel::nlanr_like(0);
        let peak = m.shape(16.0 * 3600.0);
        let trough = m.shape(4.0 * 3600.0);
        assert!(peak > 0.95);
        assert!(trough < 0.2);
        assert!(peak <= 1.0 && trough >= 0.1);
    }

    #[test]
    fn shape_is_periodic() {
        let m = DiurnalModel::nlanr_like(0);
        let a = m.shape(10.0 * 3600.0);
        let b = m.shape(10.0 * 3600.0 + 24.0 * 3600.0);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn envelope_ordering_holds_everywhere() {
        let m = DiurnalModel::nlanr_like(7);
        for s in m.day_series(600.0) {
            assert!(s.max_bps >= s.med_bps);
            assert!(s.med_bps >= s.min_bps);
            assert!(s.min_bps > 0.0);
        }
    }

    #[test]
    fn sampling_is_deterministic() {
        let m = DiurnalModel::nlanr_like(7);
        let a = m.sample(12.0 * 3600.0);
        let b = m.sample(12.0 * 3600.0);
        assert_eq!(a, b);
    }

    #[test]
    fn peak_matches_fig2_scale() {
        let m = DiurnalModel::nlanr_like(3);
        let max_of_day = m
            .day_series(300.0)
            .iter()
            .map(|s| s.max_bps)
            .fold(0.0f64, f64::max);
        assert!(max_of_day > 2.0e8, "daytime max {max_of_day:.2e}");
        assert!(max_of_day < 3.0e8);
    }

    #[test]
    fn sampling_times_are_ordered_by_rate() {
        let m = DiurnalModel::nlanr_like(5);
        let low = m.sample(DiurnalModel::sampling_time_for(TrafficLevel::Low));
        let med = m.sample(DiurnalModel::sampling_time_for(TrafficLevel::Medium));
        let high = m.sample(DiurnalModel::sampling_time_for(TrafficLevel::High));
        assert!(low.med_bps < med.med_bps);
        assert!(med.med_bps < high.med_bps);
    }

    #[test]
    #[should_panic(expected = "peak rate must be positive")]
    fn rejects_bad_peak() {
        let _ = DiurnalModel::with_peak(-1.0, 0);
    }

    #[test]
    fn diurnal_model_rate_follows_the_profile() {
        let night = DiurnalConfig {
            hour: 4.0,
            ..DiurnalConfig::default()
        };
        let noon = DiurnalConfig {
            hour: 16.0,
            ..DiurnalConfig::default()
        };
        assert!(TrafficModel::mean_rate_mbps(&noon) > 2.0 * TrafficModel::mean_rate_mbps(&night));
        // The self-described rate is fixed per spec: independent of the
        // stream seed by construction.
        let a: Vec<_> = noon.stream(1).take(50).collect();
        let b: Vec<_> = noon.stream(1).take(50).collect();
        assert_eq!(a, b);
        assert_ne!(a, noon.stream(2).take(50).collect::<Vec<_>>());
    }
}
