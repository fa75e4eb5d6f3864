//! Replication batches: every experiment axis — single runs, every
//! [`crate::SweepAxis`] and the policy comparison — re-run over k
//! seed-derived replicates and folded into per-metric confidence
//! intervals.
//!
//! A replicated batch is the same grid the plain batch runs,
//! fanned out `k ×` through [`stats::Replication`]: cell `c`'s
//! replicate `i` runs with seed `derive_seed(base_seed, i)`, so the
//! whole batch is a pure function of the base seed. Execution reuses
//! the ordinary [`xrun::Runner`] — k × cells jobs, panic-isolated per
//! replicate, results folded **in replicate order** — which keeps the
//! workspace's bit-determinism contract: means and half-widths are
//! bit-identical for any worker count
//! (`crates/core/tests/determinism.rs` guards this).
//!
//! Error semantics follow the plain batches: a panicking replicate
//! fails its *cell* (reported as the first failing replicate's
//! [`JobError`]) while every other cell completes — a partial fold
//! would silently report a narrower interval than the batch earned, so
//! cells are all-or-nothing.

use dvs::PolicyKind;
use nepsim::Benchmark;
use stats::{ReplicatedMetrics, Replication, RunMetrics};
use traffic::TrafficSpec;
use xrun::{JobError, Runner};

use crate::compare::{comparison_experiments, ComparisonConfig};
use crate::experiment::{partition_cells, run_experiments, Experiment};

/// One replicated cell: the base experiment (whose seed names the
/// replicate family) and the per-metric summaries over its k runs.
#[derive(Debug, Clone)]
pub struct ReplicatedResult {
    /// The base experiment; replicate `i` ran it with
    /// `derive_seed(experiment.seed, i)`.
    pub experiment: Experiment,
    /// One [`stats::Summary`] per metric field, folded in replicate
    /// order.
    pub metrics: ReplicatedMetrics,
}

impl ReplicatedResult {
    /// Number of replicates behind every summary.
    #[must_use]
    pub fn replicates(&self) -> u64 {
        self.metrics.replicates()
    }
}

/// Runs every experiment `seeds` times on the runner and folds each
/// cell's replicates — the single execution path every replicated
/// sweep, ablation and comparison funnels through, exactly as
/// [`run_experiments`] is for the plain batches.
///
/// The k × cells jobs are submitted cell-major (cell 0's replicates,
/// then cell 1's, ...), so submission order — and therefore every fold
/// — is a pure function of the batch description.
///
/// # Panics
///
/// Panics when `seeds` is 0 (see [`stats::Replication::new`]).
pub fn run_replicated_experiments(
    runner: &Runner,
    experiments: Vec<Experiment>,
    seeds: u64,
) -> Vec<Result<ReplicatedResult, JobError>> {
    let replications: Vec<Replication> = experiments
        .iter()
        .map(|e| Replication::new(e.job_spec(), seeds))
        .collect();
    let jobs: Vec<Experiment> = replications
        .iter()
        .flat_map(|r| r.specs().into_iter().map(Experiment::from))
        .collect();
    let mut outcomes = run_experiments(runner, jobs).into_iter();
    let _prof = obs::prof::span("fold");
    experiments
        .into_iter()
        .zip(&replications)
        .map(|(experiment, replication)| {
            // Consume exactly this cell's k outcomes, folding in
            // replicate order; the first failing replicate fails the
            // cell (the rest of its chunk is still consumed so the
            // next cell stays aligned).
            let mut metrics: Vec<RunMetrics> = Vec::with_capacity(seeds as usize);
            let mut failure: Option<JobError> = None;
            for outcome in outcomes.by_ref().take(seeds as usize) {
                match outcome {
                    Ok(result) => metrics.push(result.metrics()),
                    Err(e) => failure = failure.or(Some(e)),
                }
            }
            match failure {
                Some(e) => Err(e),
                None => Ok(ReplicatedResult {
                    metrics: replication.fold(&metrics),
                    experiment,
                }),
            }
        })
        .collect()
}

/// Replicates a single experiment `seeds` times on the given runner:
/// the replicated counterpart of [`Experiment::run`].
///
/// # Errors
///
/// Returns the first failing replicate's [`JobError`] when any
/// replicate panics.
pub fn try_replicated_run(
    runner: &Runner,
    experiment: &Experiment,
    seeds: u64,
) -> Result<ReplicatedResult, JobError> {
    run_replicated_experiments(runner, vec![experiment.clone()], seeds)
        .pop()
        .expect("one experiment yields one outcome")
}

/// One row of the replicated comparison grid.
#[derive(Debug, Clone)]
pub struct ReplicatedComparisonRow {
    /// Benchmark application.
    pub benchmark: Benchmark,
    /// Traffic-model spec.
    pub traffic: TrafficSpec,
    /// Policy family that ran.
    pub policy: PolicyKind,
    /// The replicated cell result.
    pub result: ReplicatedResult,
}

/// The replicated policy comparison: the Fig. 11 grid with every cell
/// run over k seeds, so savings become interval estimates instead of
/// single-seed point estimates.
#[derive(Debug, Clone)]
pub struct ReplicatedComparison {
    /// All completed rows, benchmark-major like
    /// [`crate::compare::PolicyComparison`].
    pub rows: Vec<ReplicatedComparisonRow>,
    /// Replicates per cell.
    pub seeds: u64,
}

impl ReplicatedComparison {
    /// Finds the row for an exact combination.
    #[must_use]
    pub fn row(
        &self,
        benchmark: Benchmark,
        traffic: &TrafficSpec,
        policy: PolicyKind,
    ) -> Option<&ReplicatedComparisonRow> {
        self.rows
            .iter()
            .find(|r| r.benchmark == benchmark && &r.traffic == traffic && r.policy == policy)
    }

    /// Power saving of `policy` vs. the noDVS baseline, from the
    /// replicate-mean powers. `None` when either row is missing.
    #[must_use]
    pub fn power_saving(
        &self,
        benchmark: Benchmark,
        traffic: &TrafficSpec,
        policy: PolicyKind,
    ) -> Option<f64> {
        let base = self.row(benchmark, traffic, PolicyKind::NoDvs)?;
        let with = self.row(benchmark, traffic, policy)?;
        let b = base.result.metrics.mean_power_w.mean();
        let w = with.result.metrics.mean_power_w.mean();
        (b > 0.0).then(|| (b - w) / b)
    }

    /// Throughput loss of `policy` vs. noDVS, from the replicate-mean
    /// throughputs. `None` when either row is missing.
    #[must_use]
    pub fn throughput_loss(
        &self,
        benchmark: Benchmark,
        traffic: &TrafficSpec,
        policy: PolicyKind,
    ) -> Option<f64> {
        let base = self.row(benchmark, traffic, PolicyKind::NoDvs)?;
        let with = self.row(benchmark, traffic, policy)?;
        let b = base.result.metrics.throughput_mbps.mean();
        let w = with.result.metrics.throughput_mbps.mean();
        (b > 0.0).then(|| (b - w) / b)
    }
}

/// Runs the comparison grid of [`crate::compare::try_compare_policies`]
/// with `seeds` replicates per cell.
///
/// Returns the comparison built from every cell whose replicates all
/// completed, plus one [`JobError`] per failed cell.
#[must_use]
pub fn try_replicated_compare(
    runner: &Runner,
    benchmarks: &[Benchmark],
    traffics: &[TrafficSpec],
    config: &ComparisonConfig,
    seeds: u64,
) -> (ReplicatedComparison, Vec<JobError>) {
    let (keys, experiments) = comparison_experiments(benchmarks, traffics, config);
    let outcomes = run_replicated_experiments(runner, experiments, seeds)
        .into_iter()
        .zip(keys)
        .map(|(outcome, (benchmark, traffic, policy))| {
            outcome.map(|result| ReplicatedComparisonRow {
                benchmark,
                traffic,
                policy,
                result,
            })
        })
        .collect();
    let (rows, errors) = partition_cells(outcomes);
    (ReplicatedComparison { rows, seeds }, errors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::expect_cells;
    use crate::sweep::{tdvs_coordinates, SweepAxis, TdvsGrid};
    use nepsim::PolicySpec;
    use stats::ConfidenceLevel;
    use traffic::TrafficLevel;
    use xrun::derive_seed;

    const CYCLES: u64 = 300_000;

    fn experiment() -> Experiment {
        Experiment {
            benchmark: Benchmark::Ipfwdr,
            traffic: TrafficLevel::High.into(),
            policy: PolicySpec::NoDvs,
            cycles: CYCLES,
            seed: 42,
        }
    }

    fn replicated_sweep(axis: &SweepAxis, seed: u64, seeds: u64) -> Vec<ReplicatedResult> {
        expect_cells(run_replicated_experiments(
            &Runner::new(),
            axis.experiments(Benchmark::Ipfwdr, CYCLES, seed),
            seeds,
        ))
    }

    #[test]
    fn replicated_run_folds_exactly_the_derived_seeds() {
        let seeds = 3;
        let replicated = try_replicated_run(&Runner::new(), &experiment(), seeds).unwrap();
        assert_eq!(replicated.replicates(), seeds);
        // The fold must equal running each derived seed by hand, in
        // replicate order.
        let manual: Vec<stats::RunMetrics> = (0..seeds)
            .map(|i| {
                let mut e = experiment();
                e.seed = derive_seed(experiment().seed, i);
                e.run().metrics()
            })
            .collect();
        let expected = ReplicatedMetrics::of(&manual);
        assert_eq!(
            replicated.metrics.mean_power_w.mean().to_bits(),
            expected.mean_power_w.mean().to_bits()
        );
        assert_eq!(
            replicated
                .metrics
                .p80_power_w
                .half_width(ConfidenceLevel::P95)
                .to_bits(),
            expected
                .p80_power_w
                .half_width(ConfidenceLevel::P95)
                .to_bits()
        );
        // Distinct seeds genuinely vary the measurement: the interval
        // is non-degenerate.
        assert!(replicated.metrics.forwarded_packets.std_dev() > 0.0);
        // The base experiment (not a derived seed) names the family.
        assert_eq!(replicated.experiment, experiment());
    }

    #[test]
    fn replicated_tdvs_sweep_covers_the_grid() {
        let axis = SweepAxis::Tdvs {
            traffic: TrafficLevel::Medium.into(),
            grid: TdvsGrid {
                thresholds_mbps: vec![1000.0, 1400.0],
                windows_cycles: vec![40_000],
            },
        };
        let cells = replicated_sweep(&axis, 7, 2);
        assert_eq!(cells.len(), 2);
        for cell in &cells {
            assert_eq!(cell.replicates(), 2);
            assert!(cell.metrics.mean_power_w.mean() > 0.2);
        }
        assert_eq!(tdvs_coordinates(&cells[0].experiment), (1000.0, 40_000));
        assert_eq!(tdvs_coordinates(&cells[1].experiment), (1400.0, 40_000));
    }

    #[test]
    fn replicated_spec_and_traffic_sweeps_keep_list_order() {
        let specs: Vec<PolicySpec> = ["nodvs", "queue"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let axis = SweepAxis::Policies {
            traffic: TrafficLevel::Low.into(),
            policies: specs.clone(),
        };
        let cells = replicated_sweep(&axis, 7, 2);
        assert_eq!(cells.len(), 2);
        for (cell, spec) in cells.iter().zip(&specs) {
            assert_eq!(cell.experiment.policy, *spec);
        }

        let traffics: Vec<TrafficSpec> = ["low", "constant:rate=500"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let axis = SweepAxis::Traffics {
            traffics: traffics.clone(),
            policy: PolicySpec::NoDvs,
        };
        let cells = replicated_sweep(&axis, 7, 2);
        assert_eq!(cells.len(), 2);
        for (cell, spec) in cells.iter().zip(&traffics) {
            assert_eq!(cell.experiment.traffic, *spec);
        }
        // The CBR source is seed-free, so its replicates agree exactly.
        assert_eq!(cells[1].metrics.offered_mbps.std_dev(), 0.0);
    }

    #[test]
    fn replicated_comparison_carries_interval_savings() {
        let cfg = ComparisonConfig {
            cycles: 1_200_000,
            ..ComparisonConfig::default()
        };
        let (cmp, errors) = try_replicated_compare(
            &Runner::new(),
            &[Benchmark::Ipfwdr],
            &[TrafficLevel::Low.into()],
            &cfg,
            2,
        );
        assert!(errors.is_empty(), "{errors:?}");
        assert_eq!(cmp.rows.len(), 6);
        assert_eq!(cmp.seeds, 2);
        let saving = cmp
            .power_saving(
                Benchmark::Ipfwdr,
                &TrafficLevel::Low.into(),
                PolicyKind::Tdvs,
            )
            .unwrap();
        assert!(saving > 0.0, "TDVS saving {saving:.3}");
        assert!(cmp
            .row(Benchmark::Nat, &TrafficLevel::Low.into(), PolicyKind::Tdvs)
            .is_none());
    }

    #[test]
    fn failing_replicate_fails_only_its_cell() {
        // A trace spec pointing nowhere panics when the cell builds its
        // model mid-batch; the healthy cell must still complete.
        let axis = SweepAxis::Traffics {
            traffics: vec![
                "low".parse().unwrap(),
                "trace:path=/no/such/replicated-trace.txt".parse().unwrap(),
            ],
            policy: PolicySpec::NoDvs,
        };
        let outcomes = run_replicated_experiments(
            &Runner::serial(),
            axis.experiments(Benchmark::Ipfwdr, 150_000, 7),
            2,
        );
        assert_eq!(outcomes.len(), 2);
        assert!(outcomes[0].is_ok());
        let err = outcomes[1].as_ref().unwrap_err();
        assert!(err.message.contains("cannot build"), "{err}");
    }
}
