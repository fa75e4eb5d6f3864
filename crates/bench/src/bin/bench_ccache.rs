//! Machine-readable baseline for the content-addressed result cache:
//! the same replicated TDVS grid is run twice against a scratch cache —
//! once cold (every cell simulates and is published) and once warm
//! (every cell is served from disk) — and the wall-times of both passes
//! are written as `BENCH_ccache.json`.
//!
//! ```text
//! cargo run --release -p abdex-bench --bin bench_ccache -- [CYCLES] [SEEDS] [OUT]
//! ```
//!
//! Defaults: 4×10⁵ cycles per job, 8 replicates per cell,
//! `BENCH_ccache.json` in the current directory. The binary asserts the
//! cache contract rather than merely reporting it: the warm pass must
//! perform **zero** simulations (its miss counter does not move) and
//! must be at least 5× faster than the cold pass — a warm "hit" that
//! quietly re-simulated would fail both gates. The scratch cache lives
//! in a process-scoped temp directory and is removed on exit, so the
//! numbers are never polluted by a previous run's store.

use std::time::Instant;

use abdex::nepsim::Benchmark;
use abdex::traffic::TrafficLevel;
use abdex::{run_replicated_experiments, Runner, SweepAxis, TdvsGrid};

fn main() {
    let mut args = std::env::args().skip(1);
    let cycles: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(400_000);
    let seeds: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(8);
    let out = args
        .next()
        .unwrap_or_else(|| "BENCH_ccache.json".to_owned());

    let dir = std::env::temp_dir().join(format!("abdex-bench-ccache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = abdex::Cache::open(&dir).expect("open scratch cache");
    let runner = Runner::new().with_cache(cache);

    let grid = TdvsGrid {
        thresholds_mbps: vec![1000.0, 1400.0],
        windows_cycles: vec![20_000, 40_000],
    };
    let jobs = grid.len() as u64 * seeds;

    eprintln!(
        "bench_ccache: {} cells x {seeds} seeds x {cycles} cycles on {} workers, cache at {}",
        grid.len(),
        runner.workers(),
        dir.display()
    );
    let axis = SweepAxis::Tdvs {
        traffic: TrafficLevel::High.into(),
        grid: grid.clone(),
    };

    let pass = || {
        let start = Instant::now();
        let cells = run_replicated_experiments(
            &runner,
            axis.experiments(Benchmark::Ipfwdr, cycles, 42),
            seeds,
        );
        for cell in &cells {
            cell.as_ref().expect("no cell failed");
        }
        start.elapsed().as_secs_f64()
    };

    let cold_s = pass();
    let after_cold = runner.cache().expect("runner is cached").counters();
    assert_eq!(after_cold.misses, jobs, "cold pass must miss every job");
    assert_eq!(after_cold.stores, jobs, "cold pass must publish every job");

    let warm_s = pass();
    let after_warm = runner.cache().expect("runner is cached").counters();
    let warm_simulations = after_warm.misses - after_cold.misses;
    assert_eq!(warm_simulations, 0, "warm pass must not simulate");
    assert_eq!(after_warm.hits, jobs, "warm pass must hit every job");

    let speedup = cold_s / warm_s;
    assert!(
        speedup >= 5.0,
        "warm pass must be at least 5x faster than cold (got {speedup:.2}x: \
         cold {cold_s:.4}s, warm {warm_s:.4}s)"
    );

    let doc = format!(
        "{{\"bench\":\"ccache\",\"cells\":{},\"seeds\":{seeds},\"cycles_per_job\":{cycles},\
         \"jobs\":{jobs},\"available_parallelism\":{},\"workers\":{},\
         \"cold_s\":{cold_s:.4},\"warm_s\":{warm_s:.4},\"speedup\":{speedup:.3},\
         \"warm_simulations\":{warm_simulations},\"warm_hits\":{},\"entries\":{}}}\n",
        grid.len(),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        runner.workers(),
        after_warm.hits,
        runner.cache().expect("runner is cached").stats().entries,
    );
    std::fs::write(&out, &doc).expect("write baseline JSON");
    eprintln!(
        "cold {cold_s:.2}s, warm {warm_s:.4}s ({speedup:.1}x, {} warm simulations) -> {out}",
        warm_simulations
    );

    let _ = std::fs::remove_dir_all(&dir);
}
