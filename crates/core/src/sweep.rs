//! Design-space sweeps: the paper's TDVS threshold × window grid
//! (§4.1, Figures 6–9) plus the two open axes — arbitrary
//! [`PolicySpec`] sweeps and arbitrary [`TrafficSpec`] sweeps — as one
//! [`SweepAxis`] that lowers to experiments. Any list of spec strings
//! becomes a sweep table.

use dvs::TdvsConfig;
use nepsim::{Benchmark, PolicySpec};
use traffic::TrafficSpec;
use xrun::{JobError, Runner};

use crate::experiment::{expect_cells, run_experiments, Experiment, ExperimentResult};

/// The grid of TDVS parameters to explore.
#[derive(Debug, Clone, PartialEq)]
pub struct TdvsGrid {
    /// Top traffic thresholds (Mbps) — the paper compares 800, 1000,
    /// 1200 and 1400 for `ipfwdr`.
    pub thresholds_mbps: Vec<f64>,
    /// Monitor window sizes in base-clock cycles — the paper compares
    /// 20 k to 80 k.
    pub windows_cycles: Vec<u64>,
}

impl Default for TdvsGrid {
    /// The exact grid of paper Figures 6–9.
    fn default() -> Self {
        TdvsGrid {
            thresholds_mbps: vec![800.0, 1000.0, 1200.0, 1400.0],
            windows_cycles: vec![20_000, 40_000, 60_000, 80_000],
        }
    }
}

impl TdvsGrid {
    /// Number of grid cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.thresholds_mbps.len() * self.windows_cycles.len()
    }

    /// `true` when either axis is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.thresholds_mbps.is_empty() || self.windows_cycles.is_empty()
    }
}

/// What a sweep varies, plus the coordinates that axis holds fixed.
///
/// Every sweep — the paper's TDVS grid, a policy list or a traffic
/// list, plain or replicated — is one `SweepAxis`.
/// [`SweepAxis::experiments`] lowers it, and [`run_experiments`] or
/// [`crate::run_replicated_experiments`] runs it.
///
/// The swept coordinate of every cell stays readable from its
/// [`Experiment`]: the TDVS threshold and window from `policy` (see
/// [`tdvs_coordinates`]), the swept spec from `policy` or `traffic`.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepAxis {
    /// The paper's TDVS threshold × window grid (§4.1, Figs 6–9) at one
    /// traffic spec.
    Tdvs {
        /// The traffic every cell runs.
        traffic: TrafficSpec,
        /// The swept thresholds and windows.
        grid: TdvsGrid,
    },
    /// One cell per policy spec — every registered policy, and every
    /// parameter combination expressible as a spec — at one traffic
    /// spec.
    ///
    /// # Example
    ///
    /// ```
    /// use abdex::{run_experiments, Runner, SweepAxis};
    /// use abdex::experiment::expect_cells;
    /// use abdex::nepsim::Benchmark;
    /// use abdex::traffic::TrafficLevel;
    ///
    /// let axis = SweepAxis::Policies {
    ///     traffic: TrafficLevel::High.into(),
    ///     policies: ["nodvs", "queue:high=0.9", "proportional"]
    ///         .iter()
    ///         .map(|s| s.parse().unwrap())
    ///         .collect(),
    /// };
    /// let results = expect_cells(run_experiments(
    ///     &Runner::new(),
    ///     axis.experiments(Benchmark::Ipfwdr, 200_000, 1),
    /// ));
    /// assert_eq!(results.len(), 3);
    /// assert!(results[1].experiment.policy.spec_string().starts_with("queue:high=0.9"));
    /// ```
    Policies {
        /// The traffic every cell runs.
        traffic: TrafficSpec,
        /// The swept policies, in cell order.
        policies: Vec<PolicySpec>,
    },
    /// One cell per traffic spec under one policy: the traffic axis,
    /// open to every registered model.
    ///
    /// # Example
    ///
    /// ```
    /// use abdex::{PolicySpec, SweepAxis};
    /// use abdex::nepsim::Benchmark;
    /// use abdex::traffic::TrafficSpec;
    ///
    /// let axis = SweepAxis::Traffics {
    ///     traffics: ["low", "burst:period_s=0.001", "flash"]
    ///         .iter()
    ///         .map(|s| s.parse().unwrap())
    ///         .collect(),
    ///     policy: PolicySpec::NoDvs,
    /// };
    /// let experiments = axis.experiments(Benchmark::Ipfwdr, 200_000, 1);
    /// assert_eq!(experiments[2].traffic, "flash".parse::<TrafficSpec>().unwrap());
    /// ```
    Traffics {
        /// The swept traffic specs, in cell order.
        traffics: Vec<TrafficSpec>,
        /// The policy every cell runs.
        policy: PolicySpec,
    },
}

impl SweepAxis {
    /// The axis name replicated documents carry as `"axis"`: `tdvs`,
    /// `policies` or `traffics`.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            SweepAxis::Tdvs { .. } => "tdvs",
            SweepAxis::Policies { .. } => "policies",
            SweepAxis::Traffics { .. } => "traffics",
        }
    }

    /// Lowers the axis to one experiment per cell, in sweep order (the
    /// TDVS grid threshold-major), all with the same benchmark, run
    /// length and seed.
    #[must_use]
    pub fn experiments(&self, benchmark: Benchmark, cycles: u64, seed: u64) -> Vec<Experiment> {
        let cell = |traffic: &TrafficSpec, policy: PolicySpec| Experiment {
            benchmark,
            traffic: traffic.clone(),
            policy,
            cycles,
            seed,
        };
        match self {
            SweepAxis::Tdvs { traffic, grid } => grid
                .thresholds_mbps
                .iter()
                .flat_map(|&t| grid.windows_cycles.iter().map(move |&w| (t, w)))
                .map(|(threshold, window)| {
                    cell(
                        traffic,
                        PolicySpec::Tdvs(TdvsConfig {
                            top_threshold_mbps: threshold,
                            window_cycles: window,
                        }),
                    )
                })
                .collect(),
            SweepAxis::Policies { traffic, policies } => {
                policies.iter().map(|p| cell(traffic, p.clone())).collect()
            }
            SweepAxis::Traffics { traffics, policy } => {
                traffics.iter().map(|t| cell(t, policy.clone())).collect()
            }
        }
    }
}

/// The `(threshold, window)` coordinates of a TDVS-grid cell, read back
/// from the policy the cell ran.
///
/// # Panics
///
/// Panics when the experiment's policy is not plain TDVS, i.e. the cell
/// was not lowered from a [`SweepAxis::Tdvs`].
#[must_use]
pub fn tdvs_coordinates(experiment: &Experiment) -> (f64, u64) {
    match &experiment.policy {
        PolicySpec::Tdvs(c) => (c.top_threshold_mbps, c.window_cycles),
        other => panic!("not a TDVS grid cell: {}", other.spec_string()),
    }
}

/// One evaluated cell of a TDVS sweep.
#[derive(Debug, Clone)]
pub struct GridCell {
    /// The top threshold of this cell, Mbps.
    pub threshold_mbps: f64,
    /// The window size of this cell, cycles.
    pub window_cycles: u64,
    /// The evaluated experiment.
    pub result: ExperimentResult,
}

impl From<ExperimentResult> for GridCell {
    /// Keys a TDVS-grid result by the coordinates its policy ran (see
    /// [`tdvs_coordinates`]).
    fn from(result: ExperimentResult) -> Self {
        let (threshold_mbps, window_cycles) = tdvs_coordinates(&result.experiment);
        GridCell {
            threshold_mbps,
            window_cycles,
            result,
        }
    }
}

/// Runs a full TDVS sweep: one simulation per `(threshold, window)` cell,
/// all with the same benchmark, traffic, run length and seed.
///
/// The paper runs this for `ipfwdr` at 8×10⁶ cycles per cell; pass a
/// smaller `cycles` for quick exploration.
///
/// # Example
///
/// ```
/// use abdex::{sweep_tdvs, TdvsGrid};
/// use abdex::nepsim::Benchmark;
/// use abdex::traffic::TrafficLevel;
///
/// let grid = TdvsGrid {
///     thresholds_mbps: vec![1000.0],
///     windows_cycles: vec![40_000],
/// };
/// let cells = sweep_tdvs(Benchmark::Ipfwdr, &TrafficLevel::High.into(), &grid, 200_000, 1);
/// assert_eq!(cells.len(), 1);
/// ```
#[must_use]
pub fn sweep_tdvs(
    benchmark: Benchmark,
    traffic: &TrafficSpec,
    grid: &TdvsGrid,
    cycles: u64,
    seed: u64,
) -> Vec<GridCell> {
    expect_cells(try_sweep_tdvs(
        &Runner::new(),
        benchmark,
        traffic,
        grid,
        cycles,
        seed,
    ))
}

/// Runs a TDVS sweep on the given [`Runner`], one outcome per cell in
/// grid order: the fallible form of [`sweep_tdvs`], where a panicking
/// cell yields its own error while the rest of the grid completes.
#[must_use]
pub fn try_sweep_tdvs(
    runner: &Runner,
    benchmark: Benchmark,
    traffic: &TrafficSpec,
    grid: &TdvsGrid,
    cycles: u64,
    seed: u64,
) -> Vec<Result<GridCell, JobError>> {
    let axis = SweepAxis::Tdvs {
        traffic: traffic.clone(),
        grid: grid.clone(),
    };
    let outcomes = run_experiments(runner, axis.experiments(benchmark, cycles, seed));
    let _prof = obs::prof::span("fold");
    outcomes
        .into_iter()
        .map(|outcome| outcome.map(GridCell::from))
        .collect()
}

/// The Fig. 8 surface: for each cell, the power value below which 80 % of
/// formula-(2) instances fall. Returned as `(threshold, window, power)`
/// triples in sweep order.
#[must_use]
pub fn power_surface(cells: &[GridCell]) -> Vec<(f64, u64, f64)> {
    cells
        .iter()
        .map(|c| (c.threshold_mbps, c.window_cycles, c.result.p80_power_w()))
        .collect()
}

/// The Fig. 9 surface: for each cell, the throughput above which 80 % of
/// formula-(3) instances fall, as `(threshold, window, mbps)` triples.
#[must_use]
pub fn throughput_surface(cells: &[GridCell]) -> Vec<(f64, u64, f64)> {
    cells
        .iter()
        .map(|c| {
            (
                c.threshold_mbps,
                c.window_cycles,
                c.result.p80_throughput_mbps(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use traffic::TrafficLevel;

    fn run(axis: &SweepAxis, cycles: u64, seed: u64) -> Vec<ExperimentResult> {
        expect_cells(run_experiments(
            &Runner::new(),
            axis.experiments(Benchmark::Ipfwdr, cycles, seed),
        ))
    }

    #[test]
    fn default_grid_matches_paper() {
        let g = TdvsGrid::default();
        assert_eq!(g.thresholds_mbps, vec![800.0, 1000.0, 1200.0, 1400.0]);
        assert_eq!(g.windows_cycles, vec![20_000, 40_000, 60_000, 80_000]);
        assert_eq!(g.len(), 16);
        assert!(!g.is_empty());
    }

    #[test]
    fn sweep_covers_every_cell() {
        let grid = TdvsGrid {
            thresholds_mbps: vec![1000.0, 1400.0],
            windows_cycles: vec![20_000, 80_000],
        };
        let cells = sweep_tdvs(
            Benchmark::Ipfwdr,
            &TrafficLevel::Medium.into(),
            &grid,
            400_000,
            3,
        );
        assert_eq!(cells.len(), 4);
        let combos: Vec<(f64, u64)> = cells
            .iter()
            .map(|c| (c.threshold_mbps, c.window_cycles))
            .collect();
        assert!(combos.contains(&(1000.0, 20_000)));
        assert!(combos.contains(&(1400.0, 80_000)));
        // Every cell's key is the one its policy ran.
        for c in &cells {
            assert_eq!(
                tdvs_coordinates(&c.result.experiment),
                (c.threshold_mbps, c.window_cycles)
            );
        }
    }

    #[test]
    fn spec_sweep_covers_every_spec_in_order() {
        let specs: Vec<PolicySpec> = ["nodvs", "tdvs:threshold=1400", "queue", "proportional"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let axis = SweepAxis::Policies {
            traffic: TrafficLevel::Low.into(),
            policies: specs.clone(),
        };
        let results = run(&axis, 400_000, 7);
        assert_eq!(results.len(), 4);
        for (result, spec) in results.iter().zip(&specs) {
            assert_eq!(result.experiment.policy, *spec);
            assert!(result.sim.mean_power_w() > 0.2);
        }
    }

    #[test]
    fn try_sweep_keeps_grid_order_on_any_runner() {
        let grid = TdvsGrid {
            thresholds_mbps: vec![1000.0, 1400.0],
            windows_cycles: vec![20_000, 80_000],
        };
        let outcomes = try_sweep_tdvs(
            &Runner::serial(),
            Benchmark::Ipfwdr,
            &TrafficLevel::Medium.into(),
            &grid,
            300_000,
            3,
        );
        let expected: Vec<(f64, u64)> = vec![
            (1000.0, 20_000),
            (1000.0, 80_000),
            (1400.0, 20_000),
            (1400.0, 80_000),
        ];
        let got: Vec<(f64, u64)> = outcomes
            .iter()
            .map(|o| {
                let c = o.as_ref().expect("no cell failed");
                (c.threshold_mbps, c.window_cycles)
            })
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn traffic_sweep_covers_every_spec_in_order() {
        let traffics: Vec<TrafficSpec> = ["low", "constant:rate=500", "burst:period_s=0.001"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let axis = SweepAxis::Traffics {
            traffics: traffics.clone(),
            policy: PolicySpec::NoDvs,
        };
        let results = run(&axis, 400_000, 7);
        assert_eq!(results.len(), 3);
        for (result, spec) in results.iter().zip(&traffics) {
            assert_eq!(result.experiment.traffic, *spec);
            assert!(result.sim.forwarded_packets > 0);
        }
        // The constant source's offered load is exact by construction.
        let offered = results[1].sim.offered_mbps();
        assert!(
            (offered - 500.0).abs() / 500.0 < 0.02,
            "offered {offered:.1}"
        );
    }

    #[test]
    fn surfaces_have_one_point_per_cell() {
        let grid = TdvsGrid {
            thresholds_mbps: vec![1200.0],
            windows_cycles: vec![40_000, 60_000],
        };
        let cells = sweep_tdvs(
            Benchmark::Ipfwdr,
            &TrafficLevel::High.into(),
            &grid,
            400_000,
            3,
        );
        let power = power_surface(&cells);
        let tput = throughput_surface(&cells);
        assert_eq!(power.len(), 2);
        assert_eq!(tput.len(), 2);
        for &(_, _, w) in &power {
            assert!(w > 0.2 && w < 3.0, "implausible power {w}");
        }
        for &(_, _, t) in &tput {
            assert!(t > 0.0, "implausible throughput {t}");
        }
    }
}
