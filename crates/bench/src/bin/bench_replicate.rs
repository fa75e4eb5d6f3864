//! Machine-readable baseline for replication batches: wall-time of a
//! k-seed replicated TDVS grid plus the widest relative confidence
//! interval observed across its cells, written as
//! `BENCH_replicate.json`.
//!
//! ```text
//! cargo run --release -p abdex-bench --bin bench_replicate -- [CYCLES] [SEEDS] [OUT]
//! ```
//!
//! Defaults: 4×10⁵ cycles per job, 8 replicates per cell,
//! `BENCH_replicate.json` in the current directory. The batch is a 2×2
//! TDVS threshold × window grid on `ipfwdr` at high traffic — 4 cells
//! × k seeds jobs on the `xrun` pool. The "widest CI" figure is the
//! point of the file: it is the noisiest number in the grid at the 95 %
//! level, so future PRs that grow k (or lengthen runs, or de-noise the
//! simulator) can watch the variance shrink release over release.

use std::time::Instant;

use abdex::experiment::expect_cells;
use abdex::nepsim::Benchmark;
use abdex::stats::ConfidenceLevel;
use abdex::sweep::tdvs_coordinates;
use abdex::traffic::TrafficLevel;
use abdex::{run_replicated_experiments, Runner, SweepAxis, TdvsGrid};

fn main() {
    let mut args = std::env::args().skip(1);
    let cycles: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(400_000);
    let seeds: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(8);
    let out = args
        .next()
        .unwrap_or_else(|| "BENCH_replicate.json".to_owned());

    let grid = TdvsGrid {
        thresholds_mbps: vec![1000.0, 1400.0],
        windows_cycles: vec![20_000, 40_000],
    };
    let cell_count = grid.len();
    let axis = SweepAxis::Tdvs {
        traffic: TrafficLevel::High.into(),
        grid,
    };
    let runner = Runner::new();
    let level = ConfidenceLevel::P95;

    eprintln!(
        "bench_replicate: {} cells x {seeds} seeds x {cycles} cycles on {} workers",
        cell_count,
        runner.workers()
    );

    let start = Instant::now();
    let cells = expect_cells(run_replicated_experiments(
        &runner,
        axis.experiments(Benchmark::Ipfwdr, cycles, 42),
        seeds,
    ));
    let wall_s = start.elapsed().as_secs_f64();

    // The noisiest interval anywhere in the grid, by relative width.
    let (cell, metric, ci) = cells
        .iter()
        .filter_map(|c| {
            c.metrics
                .widest_relative_ci(level)
                .map(|(metric, ci)| (c, metric, ci))
        })
        .max_by(|(_, _, a), (_, _, b)| {
            a.relative_half_width()
                .partial_cmp(&b.relative_half_width())
                .expect("relative widths are finite")
        })
        .expect("grid is non-empty");
    let (threshold, window) = tdvs_coordinates(&cell.experiment);

    let doc = format!(
        "{{\"bench\":\"replicate\",\"cells\":{},\"seeds\":{seeds},\"cycles_per_job\":{cycles},\
         \"jobs\":{},\"available_parallelism\":{},\"workers\":{},\"wall_s\":{wall_s:.4},\
         \"ci_level\":{},\
         \"widest_ci\":{{\"cell\":\"threshold={} window={}\",\"metric\":\"{metric}\",\
         \"mean\":{},\"half_width\":{},\"relative\":{:.6}}}}}\n",
        cells.len(),
        cells.len() as u64 * seeds,
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        runner.workers(),
        level.percent(),
        threshold,
        window,
        ci.mean,
        ci.half_width,
        ci.relative_half_width(),
    );
    std::fs::write(&out, &doc).expect("write baseline JSON");
    eprintln!(
        "{} jobs in {wall_s:.2}s; widest {level} CI: {metric} at threshold={} window={} \
         ({ci:.4}, relative {:.3}) -> {out}",
        cells.len() as u64 * seeds,
        threshold,
        window,
        ci.relative_half_width(),
    );
}
