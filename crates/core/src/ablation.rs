//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! * the **EDVS idle threshold** (the paper picks 10 % after inspecting
//!   the idle-time distribution — §4.2),
//! * **TDVS hysteresis** (the paper's plain-threshold rule oscillates and
//!   burns 6000-cycle penalties at small windows — §4.1).
//!
//! An ablation is a policy list: its policies run as a
//! [`SweepAxis::Policies`](crate::SweepAxis::Policies), and the varied
//! parameter is read back from each cell's policy config.

use dvs::{EdvsConfig, TdvsConfig};
use nepsim::PolicySpec;

use crate::experiment::ExperimentResult;

/// One EDVS policy per idle threshold, in list order: how sensitive are
/// savings and throughput to the paper's 10 % choice?
///
/// # Example
///
/// ```
/// use abdex::ablation::{ablation_parameter, edvs_idle_threshold_policies};
/// use abdex::experiment::expect_cells;
/// use abdex::nepsim::Benchmark;
/// use abdex::traffic::TrafficLevel;
/// use abdex::{run_experiments, Runner, SweepAxis};
///
/// let axis = SweepAxis::Policies {
///     traffic: TrafficLevel::High.into(),
///     policies: edvs_idle_threshold_policies(&[0.05, 0.10], 40_000),
/// };
/// let results = expect_cells(run_experiments(
///     &Runner::new(),
///     axis.experiments(Benchmark::Ipfwdr, 200_000, 1),
/// ));
/// assert_eq!(results.len(), 2);
/// assert_eq!(ablation_parameter(&results[1].experiment.policy), 0.10);
/// ```
#[must_use]
pub fn edvs_idle_threshold_policies(thresholds: &[f64], window_cycles: u64) -> Vec<PolicySpec> {
    thresholds
        .iter()
        .map(|&idle_threshold| {
            PolicySpec::Edvs(EdvsConfig {
                idle_threshold,
                window_cycles,
            })
        })
        .collect()
}

/// One TDVS policy per hysteresis band at a fixed threshold/window, in
/// list order: quantifies how much of the small-window throughput cliff
/// is oscillation-induced. Band 0 is the paper's plain rule.
#[must_use]
pub fn tdvs_hysteresis_policies(base: TdvsConfig, bands: &[f64]) -> Vec<PolicySpec> {
    bands
        .iter()
        .map(|&hysteresis| {
            if hysteresis == 0.0 {
                PolicySpec::Tdvs(base)
            } else {
                PolicySpec::TdvsHysteresis(base.with_hysteresis(hysteresis))
            }
        })
        .collect()
}

/// The varied parameter of an ablation cell, read back from the policy
/// it ran: the EDVS idle threshold, or the TDVS hysteresis band (0 for
/// the plain rule). NaN for a policy no ablation varies.
#[must_use]
pub fn ablation_parameter(policy: &PolicySpec) -> f64 {
    match policy {
        PolicySpec::Edvs(c) => c.idle_threshold,
        PolicySpec::Tdvs(_) => 0.0,
        PolicySpec::TdvsHysteresis(c) => c.hysteresis,
        _ => f64::NAN,
    }
}

/// Renders ablation results as a table keyed by the varied parameter
/// (see [`ablation_parameter`]).
#[must_use]
pub fn render_ablation(results: &[ExperimentResult], parameter_label: &str) -> String {
    let mut out = format!(
        "{parameter_label:>14} {:>12} {:>14} {:>9} {:>9}\n",
        "mean_power_w", "tput_mbps", "switches", "rx_idle"
    );
    for r in results {
        out.push_str(&format!(
            "{:>14.3} {:>12.3} {:>14.1} {:>9} {:>9.3}\n",
            ablation_parameter(&r.experiment.policy),
            r.sim.mean_power_w(),
            r.sim.throughput_mbps(),
            r.sim.total_switches,
            r.sim.rx_idle_fraction(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{expect_cells, run_experiments};
    use crate::SweepAxis;
    use nepsim::Benchmark;
    use traffic::TrafficLevel;
    use xrun::Runner;

    const CYCLES: u64 = 1_200_000;

    fn run(
        benchmark: Benchmark,
        traffic: TrafficLevel,
        policies: Vec<PolicySpec>,
        cycles: u64,
        seed: u64,
    ) -> Vec<ExperimentResult> {
        let axis = SweepAxis::Policies {
            traffic: traffic.into(),
            policies,
        };
        expect_cells(run_experiments(
            &Runner::new(),
            axis.experiments(benchmark, cycles, seed),
        ))
    }

    #[test]
    fn edvs_threshold_sweep_monotone_in_aggressiveness() {
        // A lower idle threshold scales down more eagerly => less power.
        let results = run(
            Benchmark::Ipfwdr,
            TrafficLevel::High,
            edvs_idle_threshold_policies(&[0.05, 0.40], 40_000),
            CYCLES,
            42,
        );
        assert_eq!(results.len(), 2);
        let eager = results[0].sim.mean_power_w();
        let lazy = results[1].sim.mean_power_w();
        assert!(eager < lazy, "eager {eager:.3} !< lazy {lazy:.3}");
    }

    #[test]
    fn hysteresis_reduces_switching() {
        let base = TdvsConfig {
            top_threshold_mbps: 1000.0,
            window_cycles: 20_000,
        };
        let results = run(
            Benchmark::Ipfwdr,
            TrafficLevel::High,
            tdvs_hysteresis_policies(base, &[0.0, 0.15]),
            CYCLES,
            42,
        );
        assert_eq!(ablation_parameter(&results[0].experiment.policy), 0.0);
        assert_eq!(ablation_parameter(&results[1].experiment.policy), 0.15);
        let plain = results[0].sim.total_switches;
        let damped = results[1].sim.total_switches;
        assert!(
            damped < plain,
            "hysteresis did not reduce switching: {damped} !< {plain}"
        );
    }

    #[test]
    fn render_lists_all_cells() {
        let results = run(
            Benchmark::Nat,
            TrafficLevel::Low,
            edvs_idle_threshold_policies(&[0.10], 40_000),
            200_000,
            1,
        );
        let text = render_ablation(&results, "idle_threshold");
        assert!(text.contains("0.100"));
        assert_eq!(text.lines().count(), 2);
    }
}
