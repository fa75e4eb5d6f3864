//! Execution-based dynamic voltage scaling (paper §4.2).

use crate::{ScalingDecision, VfLadder, VfPoint};

/// Tunable parameters of an EDVS policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdvsConfig {
    /// Idle-time threshold as a fraction of the observed window. The paper
    /// picks 10 % after observing the bimodal idle distribution of the
    /// receiving microengines.
    pub idle_threshold: f64,
    /// The monitor window, in cycles at the normal (top) frequency.
    pub window_cycles: u64,
}

impl Default for EdvsConfig {
    /// The paper's configuration: 10 % idle threshold, 40 k-cycle window.
    fn default() -> Self {
        EdvsConfig {
            idle_threshold: 0.10,
            window_cycles: 40_000,
        }
    }
}

/// The EDVS policy state machine for **one microengine**.
///
/// Each ME owns an independent `Edvs` instance (paper: "in EDVS, each ME
/// changes its VF independently"). At every window boundary the platform
/// reports the fraction of the window the ME spent idle (all threads
/// blocked on memory); idle time above the threshold scales the ME down,
/// idle time below scales it up.
///
/// # Example
///
/// ```
/// use dvs::{Edvs, EdvsConfig, ScalingDecision, VfLadder};
/// let mut me0 = Edvs::new(EdvsConfig::default(), VfLadder::xscale_npu());
/// // A memory-bound window (35% idle) scales this ME down...
/// assert_eq!(me0.on_window(0.35), ScalingDecision::Down);
/// // ...while a busy window scales it back up.
/// assert_eq!(me0.on_window(0.01), ScalingDecision::Up);
/// ```
#[derive(Debug, Clone)]
pub struct Edvs {
    config: EdvsConfig,
    ladder: VfLadder,
    level: usize,
    switches: u64,
}

impl Edvs {
    /// Creates the policy at the top VF level.
    ///
    /// # Panics
    ///
    /// Panics if `idle_threshold` is outside `(0, 1)` or the window is zero.
    #[must_use]
    pub fn new(config: EdvsConfig, ladder: VfLadder) -> Self {
        assert!(
            config.idle_threshold > 0.0 && config.idle_threshold < 1.0,
            "idle threshold must be a fraction in (0, 1)"
        );
        assert!(config.window_cycles > 0, "window must be non-empty");
        let level = ladder.top_index();
        Edvs {
            config,
            ladder,
            level,
            switches: 0,
        }
    }

    /// The policy's configuration.
    #[must_use]
    pub fn config(&self) -> &EdvsConfig {
        &self.config
    }

    /// The current operating point of this microengine.
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

    /// Reports the idle fraction of the last window and returns the
    /// scaling decision for this microengine.
    ///
    /// # Panics
    ///
    /// Panics if `idle_fraction` is not within `[0, 1]`.
    pub fn on_window(&mut self, idle_fraction: f64) -> ScalingDecision {
        assert!(
            (0.0..=1.0).contains(&idle_fraction),
            "idle fraction must be in [0, 1], got {idle_fraction}"
        );
        if idle_fraction > self.config.idle_threshold && self.level > 0 {
            self.level -= 1;
            self.switches += 1;
            ScalingDecision::Down
        } else if idle_fraction < self.config.idle_threshold && self.level < self.ladder.top_index()
        {
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

    fn policy() -> Edvs {
        Edvs::new(EdvsConfig::default(), VfLadder::xscale_npu())
    }

    #[test]
    fn busy_me_never_scales_down() {
        // The paper's transmitting MEs: idle almost always under 5%.
        let mut p = policy();
        for _ in 0..100 {
            let d = p.on_window(0.03);
            assert!(matches!(d, ScalingDecision::Hold | ScalingDecision::Up));
        }
        assert_eq!(p.level().freq_mhz, 600);
        assert_eq!(p.switch_count(), 0);
    }

    #[test]
    fn memory_bound_me_walks_to_bottom() {
        // The paper's receiving MEs in the 30-40% idle mode.
        let mut p = policy();
        for _ in 0..4 {
            assert_eq!(p.on_window(0.35), ScalingDecision::Down);
        }
        assert_eq!(p.level().freq_mhz, 400);
        assert_eq!(p.on_window(0.35), ScalingDecision::Hold);
    }

    #[test]
    fn recovery_when_load_returns() {
        let mut p = policy();
        for _ in 0..4 {
            p.on_window(0.5);
        }
        for _ in 0..4 {
            assert_eq!(p.on_window(0.0), ScalingDecision::Up);
        }
        assert_eq!(p.level().freq_mhz, 600);
        assert_eq!(p.on_window(0.0), ScalingDecision::Hold);
        assert_eq!(p.switch_count(), 8);
    }

    #[test]
    fn exact_threshold_holds() {
        let mut p = policy();
        assert_eq!(p.on_window(0.10), ScalingDecision::Hold);
    }

    #[test]
    #[should_panic(expected = "idle fraction must be in [0, 1]")]
    fn rejects_out_of_range_idle() {
        let mut p = policy();
        let _ = p.on_window(1.5);
    }

    #[test]
    #[should_panic(expected = "fraction in (0, 1)")]
    fn rejects_bad_threshold() {
        let _ = Edvs::new(
            EdvsConfig {
                idle_threshold: 1.0,
                window_cycles: 1,
            },
            VfLadder::xscale_npu(),
        );
    }
}
