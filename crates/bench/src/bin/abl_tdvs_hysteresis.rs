//! Ablation: a hysteresis dead band on the TDVS rule. §4.1 attributes the
//! 20k-window throughput cliff to VF oscillation burning 6000-cycle
//! penalties; this quantifies how much a dead band recovers.

use abdex::ablation::{render_ablation, tdvs_hysteresis_policies};
use abdex::dvs::TdvsConfig;
use abdex::experiment::expect_cells;
use abdex::nepsim::Benchmark;
use abdex::traffic::TrafficLevel;
use abdex::{run_experiments, Runner, SweepAxis};
use abdex_bench::{cycles_from_args, FIG_SEED};

fn main() {
    let cycles = cycles_from_args();
    let bands = [0.0, 0.05, 0.10, 0.15, 0.25];
    let base = TdvsConfig {
        top_threshold_mbps: 1000.0,
        window_cycles: 20_000, // the paper's worst case
    };
    eprintln!(
        "abl_tdvs_hysteresis: {} bands on ipfwdr/high, 20k windows, {cycles} cycles each...",
        bands.len()
    );
    let axis = SweepAxis::Policies {
        traffic: TrafficLevel::High.into(),
        policies: tdvs_hysteresis_policies(base, &bands),
    };
    let results = expect_cells(run_experiments(
        &Runner::new(),
        axis.experiments(Benchmark::Ipfwdr, cycles, FIG_SEED),
    ));
    println!("TDVS hysteresis ablation (ipfwdr, high traffic, 20k windows):\n");
    println!("{}", render_ablation(&results, "hysteresis"));
    println!(
        "band 0.0 is the paper's rule; larger bands trade responsiveness \
         for fewer 10us switch penalties."
    );
}
