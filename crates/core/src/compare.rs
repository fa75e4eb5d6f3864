//! Policy comparison across benchmarks and traffic specs (paper §4.3,
//! Fig. 11), extended with every other registered policy family — and,
//! through [`TrafficSpec`], with any registered traffic model on the
//! traffic axis.

use dvs::{
    CombinedConfig, EdvsConfig, PolicyKind, ProportionalConfig, QueueAwareConfig, TdvsConfig,
};
use nepsim::{Benchmark, PolicySpec};
use traffic::TrafficSpec;
use xrun::{JobError, Runner};

use crate::experiment::{run_experiments, Experiment, ExperimentResult};

/// One row of the Fig. 11 grid: a benchmark × traffic level × policy
/// combination with its measured result.
#[derive(Debug, Clone)]
pub struct ComparisonRow {
    /// Benchmark application.
    pub benchmark: Benchmark,
    /// Traffic-model spec.
    pub traffic: TrafficSpec,
    /// Policy family that ran.
    pub policy: PolicyKind,
    /// The evaluated experiment.
    pub result: ExperimentResult,
}

/// The full comparison grid: every benchmark × traffic level, each run
/// under every compared policy family.
#[derive(Debug, Clone)]
pub struct PolicyComparison {
    /// All rows, ordered benchmark-major, then traffic, then policy in
    /// [`ComparisonConfig::policies`] order.
    pub rows: Vec<ComparisonRow>,
}

/// The fixed policy parameters of the §4.3 comparison: the optima found
/// by the §4.1/§4.2 sweeps for the paper's policies, defaults for the
/// extension policies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComparisonConfig {
    /// TDVS parameters (the paper's power-priority pick: 1400 Mbps, 40 k).
    pub tdvs: TdvsConfig,
    /// EDVS parameters (10 % idle threshold, 40 k window).
    pub edvs: EdvsConfig,
    /// TEDVS parameters (the conservative composition of the above).
    pub combined: CombinedConfig,
    /// Queue-aware parameters (FIFO watermarks).
    pub queue: QueueAwareConfig,
    /// Proportional-controller parameters (PI gains).
    pub proportional: ProportionalConfig,
    /// Run length per cell, base-clock cycles.
    pub cycles: u64,
    /// Experiment seed.
    pub seed: u64,
}

impl Default for ComparisonConfig {
    fn default() -> Self {
        let tdvs = TdvsConfig {
            top_threshold_mbps: 1400.0,
            window_cycles: 40_000,
        };
        let edvs = EdvsConfig::default();
        ComparisonConfig {
            tdvs,
            edvs,
            combined: CombinedConfig { tdvs, edvs },
            queue: QueueAwareConfig::default(),
            proportional: ProportionalConfig::default(),
            cycles: crate::experiment::PAPER_RUN_CYCLES,
            seed: 42,
        }
    }
}

impl ComparisonConfig {
    /// The specs every grid cell is run under, in row order: the paper's
    /// three (noDVS, TDVS, EDVS) followed by the extension policies
    /// (TEDVS, QDVS, PDVS).
    #[must_use]
    pub fn policies(&self) -> Vec<PolicySpec> {
        vec![
            PolicySpec::NoDvs,
            PolicySpec::Tdvs(self.tdvs),
            PolicySpec::Edvs(self.edvs),
            PolicySpec::Combined(self.combined),
            PolicySpec::QueueAware(self.queue),
            PolicySpec::Proportional(self.proportional),
        ]
    }
}

/// Runs the comparison grid: `benchmarks × levels ×` every policy of
/// [`ComparisonConfig::policies`].
///
/// # Example
///
/// ```
/// use abdex::compare::{compare_policies, ComparisonConfig};
/// use abdex::nepsim::Benchmark;
/// use abdex::traffic::TrafficLevel;
///
/// let cfg = ComparisonConfig { cycles: 150_000, ..ComparisonConfig::default() };
/// let cmp = compare_policies(&[Benchmark::Nat], &[TrafficLevel::Low.into()], &cfg);
/// assert_eq!(cmp.rows.len(), 6); // one per policy family
/// ```
#[must_use]
pub fn compare_policies(
    benchmarks: &[Benchmark],
    traffics: &[TrafficSpec],
    config: &ComparisonConfig,
) -> PolicyComparison {
    let (cmp, errors) = try_compare_policies(&Runner::new(), benchmarks, traffics, config);
    crate::experiment::assert_no_failures(&errors);
    cmp
}

/// Runs the comparison grid on the given [`Runner`]: the fallible form
/// of [`compare_policies`].
///
/// Returns the comparison built from every cell that completed plus one
/// [`JobError`] per cell that panicked — the batch always runs to the
/// end, so a failing policy costs only its own rows.
#[must_use]
pub fn try_compare_policies(
    runner: &Runner,
    benchmarks: &[Benchmark],
    traffics: &[TrafficSpec],
    config: &ComparisonConfig,
) -> (PolicyComparison, Vec<JobError>) {
    let (keys, experiments) = comparison_experiments(benchmarks, traffics, config);
    let mut rows = Vec::with_capacity(keys.len());
    let mut errors = Vec::new();
    for (outcome, (benchmark, traffic, kind)) in
        run_experiments(runner, experiments).into_iter().zip(keys)
    {
        match outcome {
            Ok(result) => rows.push(ComparisonRow {
                benchmark,
                traffic,
                policy: kind,
                result,
            }),
            Err(e) => errors.push(e),
        }
    }
    (PolicyComparison { rows }, errors)
}

/// The comparison grid in row order — `(benchmark, traffic, policy
/// kind)` keys and the experiment each key runs. Shared by the plain
/// and the replicated comparison so their grids can never drift apart.
pub(crate) type ComparisonKey = (Benchmark, TrafficSpec, PolicyKind);

pub(crate) fn comparison_experiments(
    benchmarks: &[Benchmark],
    traffics: &[TrafficSpec],
    config: &ComparisonConfig,
) -> (Vec<ComparisonKey>, Vec<Experiment>) {
    let mut keys = Vec::new();
    let mut experiments = Vec::new();
    for &benchmark in benchmarks {
        for traffic in traffics {
            for policy in config.policies() {
                keys.push((benchmark, traffic.clone(), policy.kind()));
                experiments.push(Experiment {
                    benchmark,
                    traffic: traffic.clone(),
                    policy,
                    cycles: config.cycles,
                    seed: config.seed,
                });
            }
        }
    }
    (keys, experiments)
}

impl PolicyComparison {
    /// Finds the row for an exact combination.
    #[must_use]
    pub fn row(
        &self,
        benchmark: Benchmark,
        traffic: &TrafficSpec,
        policy: PolicyKind,
    ) -> Option<&ComparisonRow> {
        self.rows
            .iter()
            .find(|r| r.benchmark == benchmark && &r.traffic == traffic && r.policy == policy)
    }

    /// Power saving of `policy` relative to the noDVS baseline for a
    /// combination, as a fraction of baseline mean power. `None` when
    /// either row is missing.
    #[must_use]
    pub fn power_saving(
        &self,
        benchmark: Benchmark,
        traffic: &TrafficSpec,
        policy: PolicyKind,
    ) -> Option<f64> {
        let base = self.row(benchmark, traffic, PolicyKind::NoDvs)?;
        let with = self.row(benchmark, traffic, policy)?;
        let b = base.result.sim.mean_power_w();
        let w = with.result.sim.mean_power_w();
        (b > 0.0).then(|| (b - w) / b)
    }

    /// Throughput loss of `policy` relative to noDVS, as a fraction of the
    /// baseline throughput. `None` when either row is missing.
    #[must_use]
    pub fn throughput_loss(
        &self,
        benchmark: Benchmark,
        traffic: &TrafficSpec,
        policy: PolicyKind,
    ) -> Option<f64> {
        let base = self.row(benchmark, traffic, PolicyKind::NoDvs)?;
        let with = self.row(benchmark, traffic, policy)?;
        let b = base.result.sim.throughput_mbps();
        let w = with.result.sim.throughput_mbps();
        (b > 0.0).then(|| (b - w) / b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traffic::TrafficLevel;

    fn spec(level: TrafficLevel) -> TrafficSpec {
        TrafficSpec::Level(level)
    }

    fn quick_cmp(benchmarks: &[Benchmark], levels: &[TrafficLevel]) -> PolicyComparison {
        let cfg = ComparisonConfig {
            cycles: 1_200_000,
            ..ComparisonConfig::default()
        };
        let traffics: Vec<TrafficSpec> = levels.iter().copied().map(spec).collect();
        compare_policies(benchmarks, &traffics, &cfg)
    }

    #[test]
    fn grid_has_all_rows() {
        let cmp = quick_cmp(
            &[Benchmark::Ipfwdr, Benchmark::Nat],
            &[TrafficLevel::Low, TrafficLevel::High],
        );
        assert_eq!(cmp.rows.len(), 2 * 2 * 6);
        for kind in [
            PolicyKind::NoDvs,
            PolicyKind::Tdvs,
            PolicyKind::Edvs,
            PolicyKind::Combined,
            PolicyKind::QueueAware,
            PolicyKind::Proportional,
        ] {
            assert!(
                cmp.row(Benchmark::Nat, &spec(TrafficLevel::Low), kind)
                    .is_some(),
                "missing {kind} row"
            );
        }
    }

    #[test]
    fn extension_policies_behave_sanely_at_low_traffic() {
        let cmp = quick_cmp(&[Benchmark::Ipfwdr], &[TrafficLevel::Low]);
        // The queue-aware policy sees a near-empty FIFO under light load
        // and must save power against the baseline.
        let qdvs = cmp
            .power_saving(
                Benchmark::Ipfwdr,
                &spec(TrafficLevel::Low),
                PolicyKind::QueueAware,
            )
            .unwrap();
        assert!(qdvs > 0.05, "QDVS saving only {qdvs:.3}");
        // The PI controller may not beat the baseline everywhere, but it
        // must never *cost* power: its floor is the pinned top level.
        let pdvs = cmp
            .power_saving(
                Benchmark::Ipfwdr,
                &spec(TrafficLevel::Low),
                PolicyKind::Proportional,
            )
            .unwrap();
        assert!(pdvs > -0.01, "PDVS made things worse: {pdvs:.3}");
    }

    #[test]
    fn nat_gets_no_edvs_savings() {
        // Paper §4.3: "nat shows no power savings from EDVS under every
        // traffic pattern".
        let cmp = quick_cmp(&[Benchmark::Nat], &[TrafficLevel::High]);
        let saving = cmp
            .power_saving(Benchmark::Nat, &spec(TrafficLevel::High), PolicyKind::Edvs)
            .unwrap();
        assert!(saving < 0.03, "nat EDVS saving {saving:.3}");
    }

    #[test]
    fn ipfwdr_gets_edvs_savings_at_high_traffic() {
        let cmp = quick_cmp(&[Benchmark::Ipfwdr], &[TrafficLevel::High]);
        let saving = cmp
            .power_saving(
                Benchmark::Ipfwdr,
                &spec(TrafficLevel::High),
                PolicyKind::Edvs,
            )
            .unwrap();
        assert!(saving > 0.05, "ipfwdr EDVS saving only {saving:.3}");
    }

    #[test]
    fn tdvs_saves_more_at_low_traffic() {
        // Paper §4.3: TDVS's savings shrink as traffic rises.
        let cmp = quick_cmp(
            &[Benchmark::Ipfwdr],
            &[TrafficLevel::Low, TrafficLevel::High],
        );
        let low = cmp
            .power_saving(
                Benchmark::Ipfwdr,
                &spec(TrafficLevel::Low),
                PolicyKind::Tdvs,
            )
            .unwrap();
        let high = cmp
            .power_saving(
                Benchmark::Ipfwdr,
                &spec(TrafficLevel::High),
                PolicyKind::Tdvs,
            )
            .unwrap();
        assert!(low > high, "low-traffic saving {low:.3} !> high {high:.3}");
    }

    #[test]
    fn missing_rows_return_none() {
        let cmp = quick_cmp(&[Benchmark::Nat], &[TrafficLevel::Low]);
        assert!(cmp
            .row(Benchmark::Md4, &spec(TrafficLevel::Low), PolicyKind::NoDvs)
            .is_none());
        assert!(cmp
            .power_saving(Benchmark::Md4, &spec(TrafficLevel::Low), PolicyKind::Tdvs)
            .is_none());
    }
}
