//! Text rendering of figures and tables — the workspace's stand-in for
//! the paper's gnuplot output.

use dvs::PolicyKind;
use loc::DistributionReport;
use scenario::ScenarioRun;
use stats::{welch_t, ConfidenceLevel, Summary};

use crate::compare::PolicyComparison;
use crate::experiment::ExperimentResult;
use crate::replicate::{ReplicatedComparison, ReplicatedResult};
use crate::sweep::{tdvs_coordinates, GridCell, SweepAxis};
use crate::traceio::{StreamStats, TraceAnalysis};
use dist::fit::FitCandidate;

/// Renders a cumulative "fraction of instances ≤ x" curve (Fig. 6 style)
/// sampled at `points` evenly spaced x values over `[lo, hi]`.
///
/// # Panics
///
/// Panics if `points < 2` or `lo >= hi`.
#[must_use]
pub fn render_cdf(report: &DistributionReport, lo: f64, hi: f64, points: usize) -> String {
    assert!(points >= 2, "need at least two sample points");
    assert!(lo < hi, "lo must be below hi");
    let mut out = String::from("x fraction_le\n");
    for k in 0..points {
        let x = lo + (hi - lo) * k as f64 / (points - 1) as f64;
        out.push_str(&format!("{x:.4} {:.4}\n", report.fraction_le(x)));
    }
    out
}

/// Renders a complementary "fraction of instances ≥ x" curve (Fig. 7
/// style).
///
/// # Panics
///
/// Panics if `points < 2` or `lo >= hi`.
#[must_use]
pub fn render_ccdf(report: &DistributionReport, lo: f64, hi: f64, points: usize) -> String {
    assert!(points >= 2, "need at least two sample points");
    assert!(lo < hi, "lo must be below hi");
    let mut out = String::from("x fraction_ge\n");
    for k in 0..points {
        let x = lo + (hi - lo) * k as f64 / (points - 1) as f64;
        out.push_str(&format!("{x:.4} {:.4}\n", report.fraction_ge(x)));
    }
    out
}

/// Renders a Fig. 8/9-style surface as a table: one row per threshold, one
/// column per window size.
///
/// `surface` is `(threshold, window, value)` triples as produced by
/// [`crate::sweep::power_surface`] / [`crate::sweep::throughput_surface`].
#[must_use]
pub fn render_surface(surface: &[(f64, u64, f64)], value_label: &str) -> String {
    let mut thresholds: Vec<f64> = surface.iter().map(|s| s.0).collect();
    thresholds.dedup();
    let mut windows: Vec<u64> = surface.iter().map(|s| s.1).collect();
    windows.sort_unstable();
    windows.dedup();

    let mut out = format!("{value_label} by threshold (rows) x window (cols)\n");
    out.push_str("threshold\\window");
    for w in &windows {
        out.push_str(&format!(" {w:>9}"));
    }
    out.push('\n');
    for &t in &thresholds {
        out.push_str(&format!("{t:>16.0}"));
        for &w in &windows {
            let v = surface
                .iter()
                .find(|s| s.0 == t && s.1 == w)
                .map_or(f64::NAN, |s| s.2);
            out.push_str(&format!(" {v:>9.3}"));
        }
        out.push('\n');
    }
    out
}

/// Renders the Fig. 11 comparison as a table of mean power (W) per
/// benchmark × traffic × policy, with savings vs. noDVS.
#[must_use]
pub fn render_comparison(cmp: &PolicyComparison) -> String {
    let mut out =
        String::from("benchmark traffic policy mean_power_w saving_vs_nodvs throughput_mbps\n");
    for row in &cmp.rows {
        let saving = cmp
            .power_saving(row.benchmark, &row.traffic, row.policy)
            .unwrap_or(0.0);
        out.push_str(&format!(
            "{:>9} {:>7} {:>6} {:>12.3} {:>15.1}% {:>15.1}\n",
            row.benchmark.to_string(),
            row.traffic.to_string(),
            row.policy.to_string(),
            row.result.sim.mean_power_w(),
            saving * 100.0,
            row.result.sim.throughput_mbps(),
        ));
    }
    out
}

/// Renders a sweep's per-cell summary (thresholds, windows, p80 power and
/// throughput, switch counts).
#[must_use]
pub fn render_sweep(cells: &[GridCell]) -> String {
    tdvs_table(
        cells
            .iter()
            .map(|c| (c.threshold_mbps, c.window_cycles, &c.result)),
    )
}

/// Renders a plain sweep in its axis's column layout: the TDVS grid as
/// [`render_sweep`], a policy list one row per spec, a traffic list one
/// row per spec with the offered load next to what the chip achieved.
/// Row keys are read from each result's experiment.
#[must_use]
pub fn render_axis_sweep(axis: &SweepAxis, results: &[ExperimentResult]) -> String {
    match axis {
        SweepAxis::Tdvs { .. } => tdvs_table(results.iter().map(|r| {
            let (threshold, window) = tdvs_coordinates(&r.experiment);
            (threshold, window, r)
        })),
        SweepAxis::Policies { .. } => spec_table(results),
        SweepAxis::Traffics { .. } => traffic_table(results),
    }
}

fn tdvs_table<'a>(cells: impl Iterator<Item = (f64, u64, &'a ExperimentResult)>) -> String {
    let mut out = String::from("threshold_mbps window_cycles p80_power_w p80_tput_mbps switches\n");
    for (threshold, window, r) in cells {
        out.push_str(&format!(
            "{:>14.0} {:>13} {:>11.3} {:>13.1} {:>8}\n",
            threshold,
            window,
            r.p80_power_w(),
            r.p80_throughput_mbps(),
            r.sim.total_switches,
        ));
    }
    out
}

fn spec_table(results: &[ExperimentResult]) -> String {
    let label_width = results
        .iter()
        .map(|r| r.experiment.policy.spec_string().len())
        .max()
        .unwrap_or(0)
        .max("policy_spec".len());
    let mut out = format!(
        "{:<label_width$} {:>6} {:>12} {:>11} {:>13} {:>8}\n",
        "policy_spec", "kind", "mean_power_w", "p80_power_w", "p80_tput_mbps", "switches"
    );
    for r in results {
        out.push_str(&format!(
            "{:<label_width$} {:>6} {:>12.3} {:>11.3} {:>13.1} {:>8}\n",
            r.experiment.policy.spec_string(),
            r.experiment.policy.kind().to_string(),
            r.sim.mean_power_w(),
            r.p80_power_w(),
            r.p80_throughput_mbps(),
            r.sim.total_switches,
        ));
    }
    out
}

fn traffic_table(results: &[ExperimentResult]) -> String {
    let label_width = results
        .iter()
        .map(|r| r.experiment.traffic.spec_string().len())
        .max()
        .unwrap_or(0)
        .max("traffic_spec".len());
    let mut out = format!(
        "{:<label_width$} {:>12} {:>12} {:>12} {:>10} {:>8}\n",
        "traffic_spec", "offered_mbps", "tput_mbps", "mean_power_w", "loss_ratio", "switches"
    );
    for r in results {
        out.push_str(&format!(
            "{:<label_width$} {:>12.1} {:>12.1} {:>12.3} {:>10.4} {:>8}\n",
            r.experiment.traffic.spec_string(),
            r.sim.offered_mbps(),
            r.sim.throughput_mbps(),
            r.sim.mean_power_w(),
            r.sim.loss_ratio(),
            r.sim.total_switches,
        ));
    }
    out
}

/// One `mean±half-width` table cell at the given precision — the
/// format every replicated table shares.
fn pm(summary: &Summary, level: ConfidenceLevel, precision: usize) -> String {
    format!(
        "{:.precision$}±{:.precision$}",
        summary.mean(),
        summary.half_width(level)
    )
}

/// Renders one replicated result as a metric-per-row table: mean,
/// confidence half-width, standard deviation and the observed range of
/// every metric over the k replicates.
#[must_use]
pub fn render_replicated_run(r: &ReplicatedResult, level: ConfidenceLevel) -> String {
    let mut out = format!(
        "{:<28} {:>12} {:>12} {:>10} {:>12} {:>12}\n",
        format!("metric ({} seeds, {} CI)", r.replicates(), level),
        "mean",
        "half_width",
        "std_dev",
        "min",
        "max"
    );
    for (name, summary) in r.metrics.fields() {
        out.push_str(&format!(
            "{name:<28} {:>12.4} {:>12.4} {:>10.4} {:>12.4} {:>12.4}\n",
            summary.mean(),
            summary.half_width(level),
            summary.std_dev(),
            summary.min(),
            summary.max(),
        ));
    }
    out
}

/// Renders a replicated sweep in its axis's column layout, the key
/// quantities as `mean±half-width` over the replicates: the TDVS grid
/// one row per cell, a policy list one row per spec, a traffic list one
/// row per spec with offered load, achieved throughput, power and loss.
/// Row keys are read from each result's base experiment.
#[must_use]
pub fn render_replicated_sweep(
    axis: &SweepAxis,
    results: &[ReplicatedResult],
    level: ConfidenceLevel,
) -> String {
    match axis {
        SweepAxis::Tdvs { .. } => replicated_tdvs_table(results, level),
        SweepAxis::Policies { .. } => replicated_spec_table(results, level),
        SweepAxis::Traffics { .. } => replicated_traffic_table(results, level),
    }
}

fn replicated_tdvs_table(results: &[ReplicatedResult], level: ConfidenceLevel) -> String {
    let mut out = format!(
        "threshold_mbps window_cycles {:>15} {:>15} {:>17} {:>13}\n",
        "mean_power_w", "p80_power_w", "p80_tput_mbps", "switches"
    );
    for r in results {
        let (threshold, window) = tdvs_coordinates(&r.experiment);
        let m = &r.metrics;
        out.push_str(&format!(
            "{:>14.0} {:>13} {:>15} {:>15} {:>17} {:>13}\n",
            threshold,
            window,
            pm(&m.mean_power_w, level, 3),
            pm(&m.p80_power_w, level, 3),
            pm(&m.p80_throughput_mbps, level, 1),
            pm(&m.total_switches, level, 1),
        ));
    }
    out
}

fn replicated_spec_table(results: &[ReplicatedResult], level: ConfidenceLevel) -> String {
    let label_width = results
        .iter()
        .map(|r| r.experiment.policy.spec_string().len())
        .max()
        .unwrap_or(0)
        .max("policy_spec".len());
    let mut out = format!(
        "{:<label_width$} {:>15} {:>15} {:>17} {:>13}\n",
        "policy_spec", "mean_power_w", "p80_power_w", "p80_tput_mbps", "switches"
    );
    for r in results {
        let m = &r.metrics;
        out.push_str(&format!(
            "{:<label_width$} {:>15} {:>15} {:>17} {:>13}\n",
            r.experiment.policy.spec_string(),
            pm(&m.mean_power_w, level, 3),
            pm(&m.p80_power_w, level, 3),
            pm(&m.p80_throughput_mbps, level, 1),
            pm(&m.total_switches, level, 1),
        ));
    }
    out
}

fn replicated_traffic_table(results: &[ReplicatedResult], level: ConfidenceLevel) -> String {
    let label_width = results
        .iter()
        .map(|r| r.experiment.traffic.spec_string().len())
        .max()
        .unwrap_or(0)
        .max("traffic_spec".len());
    let mut out = format!(
        "{:<label_width$} {:>15} {:>15} {:>15} {:>15}\n",
        "traffic_spec", "offered_mbps", "tput_mbps", "mean_power_w", "loss_ratio"
    );
    for r in results {
        let m = &r.metrics;
        out.push_str(&format!(
            "{:<label_width$} {:>15} {:>15} {:>15} {:>15}\n",
            r.experiment.traffic.spec_string(),
            pm(&m.offered_mbps, level, 1),
            pm(&m.throughput_mbps, level, 1),
            pm(&m.mean_power_w, level, 3),
            pm(&m.loss_ratio, level, 4),
        ));
    }
    out
}

/// Renders the replicated Fig. 11 comparison: mean power and
/// throughput as `mean±half-width`, savings computed from the
/// replicate means. A saving marked `*` is significant vs the noDVS
/// baseline at the table's confidence level (Welch's t-test over the
/// two per-seed mean-power folds); an unmarked saving is
/// indistinguishable from replication noise at that level.
#[must_use]
pub fn render_replicated_comparison(cmp: &ReplicatedComparison, level: ConfidenceLevel) -> String {
    let mut out = format!(
        "benchmark traffic policy {:>15} saving_vs_nodvs {:>17}\n",
        "mean_power_w", "tput_mbps"
    );
    let mut any_tested = false;
    for row in &cmp.rows {
        let saving = cmp
            .power_saving(row.benchmark, &row.traffic, row.policy)
            .unwrap_or(0.0);
        let m = &row.result.metrics;
        let welch = cmp
            .row(row.benchmark, &row.traffic, PolicyKind::NoDvs)
            .filter(|base| base.policy != row.policy)
            .and_then(|base| welch_t(&m.mean_power_w, &base.result.metrics.mean_power_w));
        any_tested |= welch.is_some();
        let marker = match welch {
            Some(w) if w.significant(level) => '*',
            _ => ' ',
        };
        out.push_str(&format!(
            "{:>9} {:>7} {:>6} {:>15} {:>13.1}%{} {:>17}\n",
            row.benchmark.to_string(),
            row.traffic.to_string(),
            row.policy.to_string(),
            pm(&m.mean_power_w, level, 3),
            saving * 100.0,
            marker,
            pm(&m.throughput_mbps, level, 1),
        ));
    }
    if any_tested {
        out.push_str(&format!(
            "(* = power differs from noDVS at the {level} level, Welch's t)\n"
        ));
    }
    out
}

/// Renders a completed scenario run: one block per policy with the
/// per-segment breakdown rows and a closing `whole-run` row, every
/// metric as `mean±half-width` over the replicates.
#[must_use]
pub fn render_scenario(run: &ScenarioRun, level: ConfidenceLevel) -> String {
    let s = &run.scenario;
    let mut out = format!(
        "scenario {}: {} @ {} for {} cycles ({} seed(s), {} CI)\n",
        s.name,
        s.benchmark,
        s.traffic.spec_string(),
        s.cycles,
        s.seeds,
        level,
    );
    if !s.summary.is_empty() {
        out.push_str(&format!("  {}\n", s.summary));
    }
    let label_width = run
        .plan
        .iter()
        .map(|p| p.label.len())
        .max()
        .unwrap_or(0)
        .max("whole-run".len())
        .max("segment".len());
    let row = |out: &mut String, label: &str, cycles: String, m: &scenario::SegmentDist| {
        out.push_str(&format!(
            "{label:<label_width$} {cycles:>17} {:>15} {:>15} {:>14} {:>16} {:>13} {:>11}\n",
            pm(&m.offered_mbps, level, 1),
            pm(&m.throughput_mbps, level, 1),
            pm(&m.mean_power_w, level, 3),
            pm(&m.total_energy_uj, level, 0),
            pm(&m.rx_idle_fraction, level, 3),
            pm(&m.dropped_packets, level, 1),
        ));
    };
    for outcome in &run.policies {
        out.push_str(&format!("\npolicy {}\n", outcome.policy.spec_string()));
        out.push_str(&format!(
            "{:<label_width$} {:>17} {:>15} {:>15} {:>14} {:>16} {:>13} {:>11}\n",
            "segment",
            "cycles",
            "offered_mbps",
            "tput_mbps",
            "mean_power_w",
            "energy_uj",
            "rx_idle",
            "drops"
        ));
        for seg in &outcome.segments {
            row(
                &mut out,
                &seg.segment.label,
                format!("{}..{}", seg.segment.start_cycles, seg.segment.end_cycles),
                &seg.metrics,
            );
        }
        row(
            &mut out,
            "whole-run",
            format!("0..{}", s.cycles),
            &outcome.whole,
        );
    }
    out
}

/// Renders a completed fleet run: a title line naming every axis, a
/// fleet-wide metric-per-row summary table, and a per-chip table with
/// the dispatcher's share next to the key chip metrics as
/// `mean±half-width` over the replicates.
#[must_use]
pub fn render_fleet(report: &fleet::FleetReport, level: ConfidenceLevel) -> String {
    let mut out = format!(
        "{} ({} seed(s), {} CI)\n",
        report.config.label(),
        report.seeds,
        level,
    );
    out.push_str(&format!(
        "{:<20} {:>12} {:>12} {:>10} {:>12} {:>12}\n",
        "fleet metric", "mean", "half_width", "std_dev", "min", "max"
    ));
    for (name, summary) in report.fleet.fields() {
        out.push_str(&format!(
            "{name:<20} {:>12.4} {:>12.4} {:>10.4} {:>12.4} {:>12.4}\n",
            summary.mean(),
            summary.half_width(level),
            summary.std_dev(),
            summary.min(),
            summary.max(),
        ));
    }
    out.push_str(&format!(
        "\n{:>4} {:>7} {:>15} {:>15} {:>14} {:>16} {:>13} {:>12} {:>12} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}\n",
        "chip",
        "share",
        "offered_mbps",
        "tput_mbps",
        "mean_power_w",
        "energy_uj",
        "loss_ratio",
        "drops",
        "switches",
        "q_p50",
        "q_p95",
        "q_p99",
        "w_p50",
        "w_p95",
        "w_p99"
    ));
    for (index, chip) in report.chips.iter().enumerate() {
        // Queue-depth (q_*, packets) and queue-wait (w_*, µs)
        // percentiles come from the recorder's epoch sketches, not a
        // replicate fold — `-` when nothing was recorded (e.g. every
        // replicate of the chip failed).
        let quantile = |q: Option<f64>| q.map_or_else(|| "-".to_owned(), |v| format!("{v:.1}"));
        let (p50, p95, p99) = match chip.queue_percentiles() {
            Some((p50, p95, p99)) => (Some(p50), Some(p95), Some(p99)),
            None => (None, None, None),
        };
        let (w50, w95, w99) = match chip.wait_percentiles() {
            Some((w50, w95, w99)) => (Some(w50), Some(w95), Some(w99)),
            None => (None, None, None),
        };
        out.push_str(&format!(
            "{index:>4} {:>7.4} {:>15} {:>15} {:>14} {:>16} {:>13} {:>12} {:>12} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}\n",
            chip.share,
            pm(&chip.offered_mbps, level, 1),
            pm(&chip.throughput_mbps, level, 1),
            pm(&chip.mean_power_w, level, 3),
            pm(&chip.total_energy_uj, level, 0),
            pm(&chip.loss_ratio, level, 4),
            pm(&chip.dropped_packets, level, 1),
            pm(&chip.total_switches, level, 1),
            quantile(p50),
            quantile(p95),
            quantile(p99),
            quantile(w50),
            quantile(w95),
            quantile(w99),
        ));
    }
    out
}

/// Renders one trace characterisation: header line, one row per
/// stream (inter-arrival gaps and sizes), then the burstiness proxy.
#[must_use]
pub fn render_trace_analysis(path: &str, a: &TraceAnalysis) -> String {
    let mut out = format!(
        "trace {path}: {} packets, {:.1} us span, {} bytes, {:.1} Mbps mean rate\n",
        a.packets, a.duration_us, a.total_bytes, a.mean_rate_mbps
    );
    if let Some(p) = &a.provenance {
        out.push_str(&format!(
            "generated by: --traffic {} --seed {} --cycles {}\n",
            p.traffic, p.seed, p.cycles
        ));
    }
    out.push_str(&format!(
        "{:<12} {:>12} {:>8} {:>12} {:>12} {:>12}  {:<40} {:>8}\n",
        "stream", "mean", "cv", "p50", "p95", "p99", "best fit", "fit err"
    ));
    let row = |out: &mut String, name: &str, s: &Option<StreamStats>, fits: &[FitCandidate]| {
        let Some(s) = s else {
            out.push_str(&format!("{name:<12} {:>12}\n", "(empty)"));
            return;
        };
        let fit = match fits.first() {
            Some(best) => format!("  {:<40} {:>8.4}", best.spec.spec_string(), best.error),
            None => format!("  {:<40}", "(no fit)"),
        };
        out.push_str(&format!(
            "{name:<12} {:>12.4} {:>8.3} {:>12.4} {:>12.4} {:>12.4}{}\n",
            s.mean,
            s.cv,
            s.p50,
            s.p95,
            s.p99,
            fit.trim_end()
        ));
    };
    row(&mut out, "gap_us", &a.gap_us, &a.gap_fits);
    row(&mut out, "size_bytes", &a.size_bytes, &a.size_fits);
    match a.hurst {
        Some(h) => out.push_str(&format!(
            "hurst estimate {h:.3} (aggregated-variance proxy; 0.5 ~ Poisson, -> 1 long-range dependent)\n"
        )),
        None => out.push_str("hurst estimate n/a (trace too short)\n"),
    }
    out
}

/// Renders a distribution's cumulative curve as CSV (`x,fraction`), ready
/// for gnuplot/matplotlib — the workspace's equivalent of the paper's
/// plotted series.
///
/// # Panics
///
/// Panics if `points < 2` or `lo >= hi`.
#[must_use]
pub fn render_cdf_csv(report: &DistributionReport, lo: f64, hi: f64, points: usize) -> String {
    assert!(points >= 2, "need at least two sample points");
    assert!(lo < hi, "lo must be below hi");
    let mut out = String::from("x,fraction_le\n");
    for k in 0..points {
        let x = lo + (hi - lo) * k as f64 / (points - 1) as f64;
        out.push_str(&format!("{x},{}\n", report.fraction_le(x)));
    }
    out
}

/// Renders a Fig. 8/9-style surface as CSV (`threshold,window,value`).
#[must_use]
pub fn render_surface_csv(surface: &[(f64, u64, f64)], value_label: &str) -> String {
    let mut out = format!("threshold_mbps,window_cycles,{value_label}\n");
    for &(t, w, v) in surface {
        out.push_str(&format!("{t},{w},{v}\n"));
    }
    out
}

/// Renders the Fig. 11 comparison as CSV.
#[must_use]
pub fn render_comparison_csv(cmp: &PolicyComparison) -> String {
    let mut out =
        String::from("benchmark,traffic,policy,mean_power_w,saving_vs_nodvs,throughput_mbps\n");
    for row in &cmp.rows {
        let saving = cmp
            .power_saving(row.benchmark, &row.traffic, row.policy)
            .unwrap_or(0.0);
        out.push_str(&format!(
            "{},{},{},{},{},{}\n",
            row.benchmark,
            row.traffic,
            row.policy,
            row.result.sim.mean_power_w(),
            saving,
            row.result.sim.throughput_mbps(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::{compare_policies, ComparisonConfig};
    use crate::experiment::{expect_cells, run_experiments};
    use crate::formulas::power_distribution;
    use crate::replicate::{
        run_replicated_experiments, try_replicated_compare, try_replicated_run,
    };
    use crate::Runner;
    use loc::{Analyzer, Annotations, TraceRecord};
    use nepsim::Benchmark;
    use traffic::TrafficLevel;

    fn sweep(axis: &SweepAxis) -> Vec<ExperimentResult> {
        expect_cells(run_experiments(
            &Runner::new(),
            axis.experiments(Benchmark::Nat, 150_000, 1),
        ))
    }

    fn replicated_sweep(axis: &SweepAxis, benchmark: Benchmark) -> Vec<ReplicatedResult> {
        expect_cells(run_replicated_experiments(
            &Runner::new(),
            axis.experiments(benchmark, 150_000, 1),
            2,
        ))
    }

    fn tiny_report() -> DistributionReport {
        let mut a = Analyzer::from_formula(&power_distribution(1)).unwrap();
        for k in 0..50u64 {
            let annots = Annotations {
                time: k as f64,
                energy: k as f64 * 1.2, // constant 1.2 W
                ..Annotations::default()
            };
            a.push(&TraceRecord::new("forward", annots));
        }
        a.finish()
    }

    #[test]
    fn cdf_rendering_is_monotone() {
        let text = render_cdf(&tiny_report(), 0.5, 2.25, 10);
        let fracs: Vec<f64> = text
            .lines()
            .skip(1)
            .map(|l| l.split_whitespace().nth(1).unwrap().parse().unwrap())
            .collect();
        assert_eq!(fracs.len(), 10);
        assert!(fracs.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn ccdf_rendering_is_antitone() {
        let text = render_ccdf(&tiny_report(), 0.5, 2.25, 10);
        let fracs: Vec<f64> = text
            .lines()
            .skip(1)
            .map(|l| l.split_whitespace().nth(1).unwrap().parse().unwrap())
            .collect();
        assert!(fracs.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn surface_table_lists_all_cells() {
        let surface = vec![
            (800.0, 20_000, 1.0),
            (800.0, 40_000, 1.1),
            (1000.0, 20_000, 1.2),
            (1000.0, 40_000, 1.3),
        ];
        let text = render_surface(&surface, "power");
        assert!(text.contains("800"));
        assert!(text.contains("1000"));
        assert!(text.contains("1.300"));
        assert_eq!(text.lines().count(), 2 + 2);
    }

    #[test]
    fn comparison_table_renders() {
        let cfg = ComparisonConfig {
            cycles: 150_000,
            ..ComparisonConfig::default()
        };
        let cmp = compare_policies(&[Benchmark::Nat], &[TrafficLevel::Low.into()], &cfg);
        let text = render_comparison(&cmp);
        assert!(text.contains("nat"));
        assert!(text.contains("noDVS"));
        assert!(text.contains("TDVS"));
        assert!(text.contains("EDVS"));
        assert!(text.contains("TEDVS"));
        assert!(text.contains("QDVS"));
        assert!(text.contains("PDVS"));
    }

    #[test]
    fn spec_sweep_table_labels_rows_with_spec_strings() {
        let axis = SweepAxis::Policies {
            traffic: TrafficLevel::Low.into(),
            policies: ["nodvs", "queue:high=0.9,low=0.1"]
                .iter()
                .map(|s| s.parse().unwrap())
                .collect(),
        };
        let text = render_axis_sweep(&axis, &sweep(&axis));
        assert!(text.starts_with("policy_spec"));
        assert!(text.contains("nodvs"));
        assert!(text.contains("queue:high=0.9,low=0.1,window=40000"));
        assert!(text.contains("QDVS"));
        assert_eq!(text.lines().count(), 3);
    }

    #[test]
    fn traffic_sweep_table_labels_rows_with_spec_strings() {
        let axis = SweepAxis::Traffics {
            traffics: ["low", "constant:rate=500"]
                .iter()
                .map(|s| s.parse().unwrap())
                .collect(),
            policy: crate::PolicySpec::NoDvs,
        };
        let text = render_axis_sweep(&axis, &sweep(&axis));
        assert!(text.starts_with("traffic_spec"));
        assert!(text.contains("low"));
        assert!(text.contains("constant:rate=500,size=576,ports=16"));
        assert_eq!(text.lines().count(), 3);
    }

    #[test]
    #[should_panic(expected = "at least two sample points")]
    fn cdf_rejects_single_point() {
        let _ = render_cdf(&tiny_report(), 0.0, 1.0, 1);
    }

    #[test]
    fn replicated_tables_render_mean_plus_minus_half_width() {
        use crate::Experiment;

        let r = try_replicated_run(
            &Runner::new(),
            &Experiment {
                benchmark: Benchmark::Nat,
                traffic: TrafficLevel::Low.into(),
                policy: crate::PolicySpec::NoDvs,
                cycles: 150_000,
                seed: 3,
            },
            3,
        )
        .unwrap();
        let text = render_replicated_run(&r, ConfidenceLevel::P95);
        assert!(text.contains("3 seeds, 95% CI"), "{text}");
        assert!(text.contains("mean_power_w"), "{text}");
        assert!(text.contains("p80_throughput_mbps"), "{text}");
        // Header + one row per metric field.
        assert_eq!(text.lines().count(), 1 + r.metrics.fields().len());

        let axis = SweepAxis::Tdvs {
            traffic: TrafficLevel::Medium.into(),
            grid: crate::TdvsGrid {
                thresholds_mbps: vec![1000.0],
                windows_cycles: vec![40_000],
            },
        };
        let cells = replicated_sweep(&axis, Benchmark::Ipfwdr);
        let text = render_replicated_sweep(&axis, &cells, ConfidenceLevel::P95);
        assert!(text.starts_with("threshold_mbps"), "{text}");
        // Every metric cell is a mean±half-width pair.
        assert!(
            text.lines().nth(1).unwrap().matches('±').count() >= 4,
            "{text}"
        );
    }

    #[test]
    fn replicated_comparison_table_reports_savings_from_means() {
        let cfg = ComparisonConfig {
            cycles: 150_000,
            ..ComparisonConfig::default()
        };
        let (cmp, errors) = try_replicated_compare(
            &Runner::new(),
            &[Benchmark::Nat],
            &[TrafficLevel::Low.into()],
            &cfg,
            2,
        );
        assert!(errors.is_empty(), "{errors:?}");
        let text = render_replicated_comparison(&cmp, ConfidenceLevel::P95);
        assert!(text.contains("saving_vs_nodvs"), "{text}");
        assert!(text.contains("noDVS"), "{text}");
        assert!(text.contains("PDVS"), "{text}");
        // Header + 6 policy rows + the Welch significance legend.
        assert_eq!(text.lines().count(), 1 + 6 + 1);
        assert!(text.contains('±'), "{text}");
        assert!(text.contains("Welch's t"), "{text}");
    }

    #[test]
    fn scenario_table_renders_segment_and_whole_run_rows() {
        let scenario = scenario::Scenario {
            name: "table-test".to_owned(),
            summary: "two windows".to_owned(),
            benchmark: Benchmark::Ipfwdr,
            traffic: "schedule:segments=[low@0..150000; constant:rate=900@150000..]"
                .parse()
                .unwrap(),
            policies: vec![crate::PolicySpec::NoDvs],
            cycles: 300_000,
            seed: 5,
            seeds: 2,
        };
        let (run, errors) = scenario::try_run_scenario(&Runner::new(), &scenario);
        assert!(errors.is_empty());
        let text = render_scenario(&run, ConfidenceLevel::P95);
        assert!(text.starts_with("scenario table-test:"), "{text}");
        assert!(text.contains("policy nodvs"), "{text}");
        assert!(text.contains("whole-run"), "{text}");
        assert!(text.contains("0..150000"), "{text}");
        assert!(text.contains("150000..300000"), "{text}");
        assert!(text.contains('±'), "{text}");
        // Title + summary + (policy line + header + 2 segments + whole).
        assert_eq!(text.lines().count(), 2 + 1 + 1 + 1 + 2 + 1);
    }

    #[test]
    fn replicated_spec_and_traffic_tables_label_rows_with_specs() {
        let axis = SweepAxis::Policies {
            traffic: TrafficLevel::Low.into(),
            policies: ["nodvs", "queue"]
                .iter()
                .map(|s| s.parse().unwrap())
                .collect(),
        };
        let cells = replicated_sweep(&axis, Benchmark::Nat);
        let text = render_replicated_sweep(&axis, &cells, ConfidenceLevel::P95);
        assert!(text.starts_with("policy_spec"), "{text}");
        assert!(text.contains("queue:high="), "{text}");

        let axis = SweepAxis::Traffics {
            traffics: ["low", "constant:rate=500"]
                .iter()
                .map(|s| s.parse().unwrap())
                .collect(),
            policy: crate::PolicySpec::NoDvs,
        };
        let cells = replicated_sweep(&axis, Benchmark::Nat);
        let text = render_replicated_sweep(&axis, &cells, ConfidenceLevel::P95);
        assert!(text.starts_with("traffic_spec"), "{text}");
        assert!(text.contains("constant:rate=500"), "{text}");
        assert_eq!(text.lines().count(), 3);
    }

    #[test]
    fn fleet_table_renders_fleet_and_per_chip_rows() {
        let mut config = fleet::FleetConfig::new(3);
        config.cycles = 150_000;
        config.dispatch = "hash:flows=64".parse().unwrap();
        let outcome = fleet::run_fleet(&config, 2, &Runner::new());
        assert!(outcome.errors.is_empty());
        let text = render_fleet(&outcome.report, ConfidenceLevel::P95);
        assert!(
            text.starts_with("fleet chips=3 dispatch=hash:flows=64"),
            "{text}"
        );
        assert!(text.contains("2 seed(s), 95% CI"), "{text}");
        assert!(text.contains("imbalance"), "{text}");
        assert!(text.contains('±'), "{text}");
        // Title + fleet header + 9 fleet metrics + blank + chip header
        // + 3 chip rows.
        assert_eq!(text.lines().count(), 1 + 1 + 9 + 1 + 1 + 3);
        // Shares sum to 1 across the chip rows, and every chip row ends
        // with its three recorder-sketch queue-depth percentiles.
        assert!(text.contains("q_p50"), "{text}");
        let mut shares = 0.0;
        for line in text.lines().skip(1 + 1 + 9 + 1 + 1) {
            let cols: Vec<&str> = line.split_whitespace().collect();
            shares += cols[1].parse::<f64>().unwrap();
            let p50: f64 = cols[cols.len() - 3].parse().unwrap();
            let p99: f64 = cols[cols.len() - 1].parse().unwrap();
            assert!(p50 >= 0.0 && p99 >= p50, "{line}");
        }
        assert!((shares - 1.0).abs() < 1e-6, "{text}");
    }

    #[test]
    fn csv_renderers_produce_parsable_rows() {
        let csv = render_cdf_csv(&tiny_report(), 0.5, 2.25, 5);
        assert_eq!(csv.lines().count(), 6);
        for line in csv.lines().skip(1) {
            let cols: Vec<&str> = line.split(',').collect();
            assert_eq!(cols.len(), 2);
            let _: f64 = cols[0].parse().unwrap();
            let _: f64 = cols[1].parse().unwrap();
        }

        let surface = vec![(800.0, 20_000u64, 1.1), (1000.0, 40_000, 1.2)];
        let csv = render_surface_csv(&surface, "p80_power_w");
        assert!(csv.starts_with("threshold_mbps,window_cycles,p80_power_w\n"));
        assert!(csv.contains("800,20000,1.1"));

        let cfg = ComparisonConfig {
            cycles: 150_000,
            ..ComparisonConfig::default()
        };
        let cmp = compare_policies(&[Benchmark::Nat], &[TrafficLevel::Low.into()], &cfg);
        let csv = render_comparison_csv(&cmp);
        assert_eq!(csv.lines().count(), 7); // header + 6 policy families
        assert!(csv.contains("nat,low,noDVS,"));
        assert!(csv.contains("nat,low,QDVS,"));
        assert!(csv.contains("nat,low,PDVS,"));
    }
}
