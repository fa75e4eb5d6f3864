//! Traffic-based dynamic voltage scaling (paper §4.1).

use crate::{ScalingDecision, VfLadder, VfPoint};

/// Tunable parameters of a TDVS policy: the two axes explored in the
/// paper's Figures 6–9.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TdvsConfig {
    /// The traffic threshold (Mbps) that applies at the *top* VF level.
    /// Thresholds at lower levels are scaled with frequency (Fig. 5):
    /// `threshold(level) = top_threshold * f(level) / f(top)`.
    pub top_threshold_mbps: f64,
    /// The monitor window, in cycles at the normal (top) frequency.
    pub window_cycles: u64,
}

impl TdvsConfig {
    /// Attaches a hysteresis band (see [`Tdvs::with_hysteresis`]) — an
    /// ablation of the paper's plain-threshold rule, which §4.1 observes
    /// oscillates and burns switch penalties at small window sizes.
    #[must_use]
    pub fn with_hysteresis(self, hysteresis: f64) -> HysteresisTdvsConfig {
        HysteresisTdvsConfig {
            base: self,
            hysteresis,
        }
    }
}

impl Default for TdvsConfig {
    /// The paper's reference configuration for `ipfwdr`: 1000 Mbps top
    /// threshold, 40 k-cycle window.
    fn default() -> Self {
        TdvsConfig {
            top_threshold_mbps: 1000.0,
            window_cycles: 40_000,
        }
    }
}

/// A [`TdvsConfig`] plus a hysteresis band.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HysteresisTdvsConfig {
    /// The underlying threshold/window configuration.
    pub base: TdvsConfig,
    /// Relative dead band: scale down only below `threshold * (1 - h)`,
    /// up only above `threshold * (1 + h)`.
    pub hysteresis: f64,
}

/// The TDVS policy state machine.
///
/// At every monitor-window boundary the platform reports the average
/// traffic volume observed during the window; the policy compares it with
/// the threshold for the *current* level and steps the processor-wide VF
/// down (traffic below threshold) or up (traffic above threshold) by one
/// step, clamped at the ladder bounds (paper §4.1).
///
/// # Example
///
/// ```
/// use dvs::{ScalingDecision, Tdvs, TdvsConfig, VfLadder};
/// let mut p = Tdvs::new(TdvsConfig::default(), VfLadder::xscale_npu());
/// // Heavy traffic at the top level: nothing above 600MHz to scale to.
/// assert_eq!(p.on_window(1400.0), ScalingDecision::Hold);
/// // Light traffic scales down step by step.
/// assert_eq!(p.on_window(100.0), ScalingDecision::Down);
/// assert_eq!(p.level().freq_mhz, 550);
/// ```
#[derive(Debug, Clone)]
pub struct Tdvs {
    config: TdvsConfig,
    ladder: VfLadder,
    level: usize,
    switches: u64,
    hysteresis: f64,
}

impl Tdvs {
    /// Creates the policy at the top VF level.
    ///
    /// # Panics
    ///
    /// Panics if the threshold is not positive/finite or the window is zero.
    #[must_use]
    pub fn new(config: TdvsConfig, ladder: VfLadder) -> Self {
        assert!(
            config.top_threshold_mbps.is_finite() && config.top_threshold_mbps > 0.0,
            "top threshold must be positive"
        );
        assert!(config.window_cycles > 0, "window must be non-empty");
        let level = ladder.top_index();
        Tdvs {
            config,
            ladder,
            level,
            switches: 0,
            hysteresis: 0.0,
        }
    }

    /// Creates the policy with a hysteresis dead band around each
    /// threshold: scale down only below `threshold * (1 - h)`, up only
    /// above `threshold * (1 + h)`.
    ///
    /// The paper's rule is the `h = 0` case; §4.1 observes that it
    /// oscillates and burns 6000-cycle penalties at small window sizes.
    /// This variant is the natural fix and is exercised by the
    /// `abl_tdvs_hysteresis` ablation.
    ///
    /// # Panics
    ///
    /// Panics on an invalid base configuration or `h` outside `[0, 1)`.
    #[must_use]
    pub fn with_hysteresis(config: HysteresisTdvsConfig, ladder: VfLadder) -> Self {
        assert!(
            (0.0..1.0).contains(&config.hysteresis),
            "hysteresis must be in [0, 1)"
        );
        let mut policy = Tdvs::new(config.base, ladder);
        policy.hysteresis = config.hysteresis;
        policy
    }

    /// The policy's configuration.
    #[must_use]
    pub fn config(&self) -> &TdvsConfig {
        &self.config
    }

    /// The current operating point.
    #[must_use]
    pub fn level(&self) -> VfPoint {
        self.ladder.point(self.level)
    }

    /// Index of the current level in the ladder.
    #[must_use]
    pub fn level_index(&self) -> usize {
        self.level
    }

    /// Number of VF switches performed so far.
    #[must_use]
    pub fn switch_count(&self) -> u64 {
        self.switches
    }

    /// The traffic threshold (Mbps) that applies while operating at ladder
    /// `index` — the scaled values of paper Fig. 5.
    #[must_use]
    pub fn threshold_at(&self, index: usize) -> f64 {
        let f = f64::from(self.ladder.point(index).freq_mhz);
        let f_top = f64::from(self.ladder.top().freq_mhz);
        self.config.top_threshold_mbps * f / f_top
    }

    /// The threshold in force at the current level.
    #[must_use]
    pub fn current_threshold(&self) -> f64 {
        self.threshold_at(self.level)
    }

    /// Reports the traffic volume (Mbps) observed over the last monitor
    /// window and returns the scaling decision. The policy's level is
    /// already updated when this returns.
    pub fn on_window(&mut self, observed_mbps: f64) -> ScalingDecision {
        let threshold = self.current_threshold();
        let down_at = threshold * (1.0 - self.hysteresis);
        let up_at = threshold * (1.0 + self.hysteresis);
        if observed_mbps < down_at && self.level > 0 {
            self.level -= 1;
            self.switches += 1;
            ScalingDecision::Down
        } else if observed_mbps > up_at && self.level < self.ladder.top_index() {
            self.level += 1;
            self.switches += 1;
            ScalingDecision::Up
        } else {
            ScalingDecision::Hold
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(top: f64) -> Tdvs {
        Tdvs::new(
            TdvsConfig {
                top_threshold_mbps: top,
                window_cycles: 20_000,
            },
            VfLadder::xscale_npu(),
        )
    }

    #[test]
    fn thresholds_match_fig5() {
        // Fig. 5: 600->1000, 550->916, 500->833, 450->750, 400->666 Mbps.
        let p = policy(1000.0);
        let expected = [666.0, 750.0, 833.0, 916.0, 1000.0];
        for (idx, want) in expected.iter().enumerate() {
            let got = p.threshold_at(idx);
            assert!(
                (got - want).abs() < 1.0,
                "level {idx}: got {got}, fig5 says {want}"
            );
        }
    }

    #[test]
    fn scales_down_to_bottom_and_clamps() {
        let mut p = policy(1000.0);
        for _ in 0..4 {
            assert_eq!(p.on_window(100.0), ScalingDecision::Down);
        }
        assert_eq!(p.level().freq_mhz, 400);
        assert_eq!(p.on_window(100.0), ScalingDecision::Hold);
        assert_eq!(p.level().freq_mhz, 400);
        assert_eq!(p.switch_count(), 4);
    }

    #[test]
    fn scales_back_up_under_load() {
        let mut p = policy(1000.0);
        for _ in 0..4 {
            p.on_window(0.0);
        }
        assert_eq!(p.level().freq_mhz, 400);
        // 700 Mbps exceeds the 666 Mbps threshold at 400MHz: scale up.
        assert_eq!(p.on_window(700.0), ScalingDecision::Up);
        assert_eq!(p.level().freq_mhz, 450);
        // ...but 700 < 750 at 450MHz: scale back down (the oscillation the
        // paper attributes small-window throughput loss to).
        assert_eq!(p.on_window(700.0), ScalingDecision::Down);
    }

    #[test]
    fn at_top_high_traffic_holds() {
        let mut p = policy(800.0);
        assert_eq!(p.on_window(1200.0), ScalingDecision::Hold);
        assert_eq!(p.level().freq_mhz, 600);
    }

    #[test]
    fn exact_threshold_holds() {
        let mut p = policy(1000.0);
        assert_eq!(p.on_window(1000.0), ScalingDecision::Hold);
    }

    #[test]
    fn equilibrium_tracks_offered_load() {
        // Offered load 700 Mbps with top threshold 1000: levels with
        // threshold <= 700 are 400MHz (666); the policy should oscillate
        // between 400 and 450 MHz once settled.
        let mut p = policy(1000.0);
        for _ in 0..10 {
            p.on_window(700.0);
        }
        assert!(p.level().freq_mhz <= 450, "settled at {}", p.level());
    }

    #[test]
    fn hysteresis_suppresses_oscillation() {
        // Offered load exactly between two per-level thresholds (916 at
        // 550MHz and 1000 at 600MHz): the plain rule flip-flops...
        let mut plain = policy(1000.0);
        let mut flips = 0;
        for _ in 0..20 {
            if plain.on_window(950.0) != ScalingDecision::Hold {
                flips += 1;
            }
        }
        assert!(flips >= 19, "plain rule should oscillate, saw {flips}");

        // ...while a 10% dead band settles after the first step.
        let cfg = TdvsConfig {
            top_threshold_mbps: 1000.0,
            window_cycles: 20_000,
        }
        .with_hysteresis(0.10);
        let mut damped = Tdvs::with_hysteresis(cfg, VfLadder::xscale_npu());
        for _ in 0..20 {
            let _ = damped.on_window(950.0);
        }
        assert!(
            damped.switch_count() <= 2,
            "hysteresis policy switched {} times",
            damped.switch_count()
        );
    }

    #[test]
    fn zero_hysteresis_matches_plain_policy() {
        let cfg = TdvsConfig::default().with_hysteresis(0.0);
        let mut a = Tdvs::with_hysteresis(cfg, VfLadder::xscale_npu());
        // The window size plays no role in the decision rule.
        let mut b = policy(1000.0);
        for obs in [500.0, 1200.0, 700.0, 900.0, 1100.0, 300.0] {
            assert_eq!(a.on_window(obs), b.on_window(obs));
            assert_eq!(a.level_index(), b.level_index());
        }
    }

    #[test]
    #[should_panic(expected = "hysteresis must be in [0, 1)")]
    fn rejects_bad_hysteresis() {
        let cfg = TdvsConfig::default().with_hysteresis(1.0);
        let _ = Tdvs::with_hysteresis(cfg, VfLadder::xscale_npu());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_non_positive_threshold() {
        let _ = policy(0.0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn rejects_zero_window() {
        let _ = Tdvs::new(
            TdvsConfig {
                top_threshold_mbps: 1000.0,
                window_cycles: 0,
            },
            VfLadder::xscale_npu(),
        );
    }
}
