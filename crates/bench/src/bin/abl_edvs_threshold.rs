//! Ablation: the EDVS idle threshold. The paper picks 10 % from the idle
//! distribution (§4.2); this sweep shows what 5–40 % would have done.

use abdex::ablation::{edvs_idle_threshold_policies, render_ablation};
use abdex::experiment::expect_cells;
use abdex::nepsim::Benchmark;
use abdex::traffic::TrafficLevel;
use abdex::{run_experiments, Runner, SweepAxis};
use abdex_bench::{cycles_from_args, FIG_SEED};

fn main() {
    let cycles = cycles_from_args();
    let thresholds = [0.05, 0.10, 0.20, 0.30, 0.40];
    eprintln!(
        "abl_edvs_threshold: {} EDVS thresholds on ipfwdr/high at {cycles} cycles each...",
        thresholds.len()
    );
    let axis = SweepAxis::Policies {
        traffic: TrafficLevel::High.into(),
        policies: edvs_idle_threshold_policies(&thresholds, 40_000),
    };
    let results = expect_cells(run_experiments(
        &Runner::new(),
        axis.experiments(Benchmark::Ipfwdr, cycles, FIG_SEED),
    ));
    println!("EDVS idle-threshold ablation (ipfwdr, high traffic):\n");
    println!("{}", render_ablation(&results, "idle_threshold"));
    println!(
        "paper's 10% choice sits where savings have saturated but the busy \
         windows still scale the MEs back up."
    );
}
