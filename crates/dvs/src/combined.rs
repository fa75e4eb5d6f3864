//! A combined traffic + execution policy (TEDVS) — the extension the
//! paper explicitly declines to build: "We do not combine the two
//! policies because monitoring both traffic load and processor idle time
//! on a chip is expensive in terms of area and power" (§4). We build it
//! anyway so the cost/benefit can be measured rather than assumed: the
//! platform charges *both* monitor overheads when this policy runs.
//!
//! Decision rule (per ME, conservative composition):
//!
//! * scale **down** only when both signals agree the ME is
//!   over-provisioned — traffic below the TDVS threshold *and* idle time
//!   above the EDVS threshold;
//! * scale **up** when either signal demands speed — traffic above the
//!   threshold *or* idle below the threshold;
//! * hold otherwise.

use crate::{EdvsConfig, ScalingDecision, TdvsConfig, VfLadder, VfPoint};

/// Configuration of the combined policy.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CombinedConfig {
    /// Traffic half of the rule (threshold scaling follows Fig. 5).
    pub tdvs: TdvsConfig,
    /// Idle half of the rule. Its `window_cycles` must equal the traffic
    /// window — the platform drives both from one monitor window.
    pub edvs: EdvsConfig,
}

/// Per-ME combined policy automaton.
///
/// # Example
///
/// ```
/// use dvs::{Combined, CombinedConfig, ScalingDecision, VfLadder};
/// let mut p = Combined::new(CombinedConfig::default(), VfLadder::xscale_npu());
/// // Light traffic but a busy ME: signals disagree -> hold.
/// assert_eq!(p.on_window(400.0, 0.02), ScalingDecision::Hold);
/// // Light traffic and an idle ME: both agree -> scale down.
/// assert_eq!(p.on_window(400.0, 0.30), ScalingDecision::Down);
/// ```
#[derive(Debug, Clone)]
pub struct Combined {
    config: CombinedConfig,
    ladder: VfLadder,
    level: usize,
    switches: u64,
}

impl Combined {
    /// Creates the policy at the top VF level.
    ///
    /// # Panics
    ///
    /// Panics on invalid sub-configurations or mismatched windows.
    #[must_use]
    pub fn new(config: CombinedConfig, ladder: VfLadder) -> Self {
        assert!(
            config.tdvs.top_threshold_mbps.is_finite() && config.tdvs.top_threshold_mbps > 0.0,
            "top threshold must be positive"
        );
        assert!(
            config.edvs.idle_threshold > 0.0 && config.edvs.idle_threshold < 1.0,
            "idle threshold must be a fraction in (0, 1)"
        );
        assert_eq!(
            config.tdvs.window_cycles, config.edvs.window_cycles,
            "combined policy drives both signals from one window"
        );
        let level = ladder.top_index();
        Combined {
            config,
            ladder,
            level,
            switches: 0,
        }
    }

    /// The policy's configuration.
    #[must_use]
    pub fn config(&self) -> &CombinedConfig {
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

    /// The traffic threshold in force at the current level (Fig. 5
    /// scaling).
    #[must_use]
    pub fn current_threshold(&self) -> f64 {
        let f = f64::from(self.ladder.point(self.level).freq_mhz);
        let f_top = f64::from(self.ladder.top().freq_mhz);
        self.config.tdvs.top_threshold_mbps * f / f_top
    }

    /// Reports one window's traffic volume (Mbps) and this ME's idle
    /// fraction; applies the conservative composition rule.
    ///
    /// # Panics
    ///
    /// Panics if `idle_fraction` is outside `[0, 1]`.
    pub fn on_window(&mut self, observed_mbps: f64, idle_fraction: f64) -> ScalingDecision {
        assert!(
            (0.0..=1.0).contains(&idle_fraction),
            "idle fraction must be in [0, 1], got {idle_fraction}"
        );
        let threshold = self.current_threshold();
        let traffic_low = observed_mbps < threshold;
        let traffic_high = observed_mbps > threshold;
        let idle_high = idle_fraction > self.config.edvs.idle_threshold;
        let idle_low = idle_fraction < self.config.edvs.idle_threshold;

        if traffic_low && idle_high && self.level > 0 {
            self.level -= 1;
            self.switches += 1;
            ScalingDecision::Down
        } else if (traffic_high || idle_low) && self.level < self.ladder.top_index() {
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

    fn policy() -> Combined {
        Combined::new(CombinedConfig::default(), VfLadder::xscale_npu())
    }

    #[test]
    fn down_requires_both_signals() {
        let mut p = policy();
        assert_eq!(p.on_window(400.0, 0.02), ScalingDecision::Hold, "idle low");
        // At the top, an up-demand holds (already at max).
        assert_eq!(
            p.on_window(1400.0, 0.30),
            ScalingDecision::Hold,
            "traffic high"
        );
        assert_eq!(
            p.on_window(400.0, 0.30),
            ScalingDecision::Down,
            "both agree"
        );
        assert_eq!(p.level().freq_mhz, 550);
    }

    #[test]
    fn up_on_either_signal() {
        let mut p = policy();
        // Walk down twice.
        p.on_window(100.0, 0.5);
        p.on_window(100.0, 0.5);
        assert_eq!(p.level().freq_mhz, 500);
        // Busy ME alone forces up even with light traffic.
        assert_eq!(p.on_window(100.0, 0.01), ScalingDecision::Up);
        // Heavy traffic alone forces up even with idle ME.
        assert_eq!(p.on_window(2000.0, 0.5), ScalingDecision::Up);
        assert_eq!(p.level().freq_mhz, 600);
    }

    #[test]
    fn clamps_at_ladder_bounds() {
        let mut p = policy();
        for _ in 0..10 {
            p.on_window(0.0, 1.0);
        }
        assert_eq!(p.level().freq_mhz, 400);
        for _ in 0..10 {
            p.on_window(5000.0, 0.0);
        }
        assert_eq!(p.level().freq_mhz, 600);
        assert_eq!(p.switch_count(), 8);
    }

    #[test]
    fn threshold_scales_with_level() {
        let mut p = policy();
        let top = p.current_threshold();
        p.on_window(100.0, 0.5);
        assert!(p.current_threshold() < top);
    }

    #[test]
    #[should_panic(expected = "one window")]
    fn rejects_mismatched_windows() {
        let cfg = CombinedConfig {
            tdvs: TdvsConfig {
                top_threshold_mbps: 1000.0,
                window_cycles: 20_000,
            },
            edvs: EdvsConfig {
                idle_threshold: 0.1,
                window_cycles: 40_000,
            },
        };
        let _ = Combined::new(cfg, VfLadder::xscale_npu());
    }

    #[test]
    #[should_panic(expected = "idle fraction")]
    fn rejects_bad_idle_input() {
        let mut p = policy();
        let _ = p.on_window(500.0, 2.0);
    }
}
