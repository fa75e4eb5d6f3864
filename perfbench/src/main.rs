//! `perftrace` — the traced run of one abdex benchmark workload.
//!
//! ```text
//! perftrace <sweep_paper|compare_paper|cache_warm> --seed S --out DIR
//! ```
//!
//! Walks the workload's cells serially, in the order the `abdex` CLI
//! submits them, through the public API that `Experiment::finish` and
//! `cachefmt::run_cached` use, and records a span around every call into
//! a layer: `nepsim.simulate`, `loc.analyze`, `ccache.publish`,
//! `ccache.lookup`, `ccache.decode`, `stats.fold` and `core.render`.
//! Spans stay in memory until the end, when three files land in `DIR`:
//!
//! * `spans.jsonl` — one span per line: id, name, parent, cell, start
//!   and end in nanoseconds since the run began;
//! * `counts.json` — the layers' exact work counts and the two probes
//!   (traffic drain rate, isolated event-queue cost);
//! * `doc.json` — the `--json` document the walk rendered, which must
//!   equal the CLI's stdout byte for byte.
//!
//! `run.py` derives the per-layer metrics from these files. Nothing here
//! uses the program's own profiler (`obs::prof`): the spans sit around
//! the calls, in this file only.
//!
//! ```text
//! perftrace launch --out DIR -- PROGRAM ARGS...
//! ```
//!
//! is the launcher `run.py` times each `abdex` invocation with: it runs
//! the program with stdout and stderr in `DIR/stdout` and `DIR/stderr`
//! and writes one JSON line with its exit status, wall time, CPU time
//! and peak RSS to `DIR/usage`. A child's peak RSS counts the memory of
//! the process it was spawned from, so the launcher — a few MiB —
//! spawns it rather than `run.py`.

use std::fmt::Write as _;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use abdex::cachefmt::{decode_result, encode_result, experiment_key};
use abdex::compare::{ComparisonConfig, ComparisonRow, PolicyComparison};
use abdex::desim::{EventQueue, SimTime};
use abdex::dvs::{PolicyKind, TdvsConfig};
use abdex::formulas::{power_distribution, throughput_distribution, PACKET_WINDOW};
use abdex::json::{comparison_json, replicated_compare_json, tdvs_sweep_json};
use abdex::loc::AnalyzerBank;
use abdex::nepsim::{Benchmark, NpuConfig, Simulator};
use abdex::stats::RunMetrics;
use abdex::sweep::{power_surface, throughput_surface};
use abdex::tables::{
    render_comparison, render_replicated_comparison, render_surface, render_sweep,
};
use abdex::traffic::{Packet, TrafficLevel};
use abdex::{
    optimal_tdvs, Cache, ConfidenceLevel, DesignPriority, Experiment, ExperimentResult, GridCell,
    PolicySpec, ReplicatedComparison, ReplicatedComparisonRow, ReplicatedResult, Replication,
    TdvsGrid, TrafficSpec, PAPER_RUN_CYCLES,
};

/// `cache_warm` runs `abdex compare --seeds REPLICATES`: 72 × 4 = 288
/// store entries.
const REPLICATES: u64 = 4;

/// One timed call into a layer (or a structural span around several).
struct Span {
    name: &'static str,
    parent: Option<usize>,
    cell: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder: spans nest through the closure passed to
/// [`Tracer::span`], so a span's parent is the span open around it.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }

    /// Runs `f` inside a span named `name`. `cell` tags the span with a
    /// cell id; without one it inherits its parent's.
    fn span<T>(
        &mut self,
        name: &'static str,
        cell: Option<usize>,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let cell = cell.or_else(|| parent.and_then(|p| self.spans[p].cell));
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            cell,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    fn jsonl(&self) -> String {
        let opt = |v: Option<usize>| v.map_or("null".to_owned(), |v| v.to_string());
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{},\"cell\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                opt(s.parent),
                opt(s.cell),
                s.start_ns,
                s.end_ns
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}

/// Exact work counts of the simulated cells.
#[derive(Default)]
struct Counts {
    sim_cycles: u64,
    events: u64,
    heap_ops: u64,
    peak_heap_len: u64,
    records: u64,
    packets: u64,
}

/// Simulates and analyzes one cell exactly as `Experiment::finish`
/// does, with a span around each layer call.
fn simulate_cell(tr: &mut Tracer, counts: &mut Counts, e: &Experiment) -> ExperimentResult {
    let (sim, report) = tr.span("nepsim.simulate", None, |_| {
        let mut sim = Simulator::new(e.npu_config());
        let report = sim.run_cycles(e.cycles);
        (sim, report)
    });
    counts.sim_cycles += e.cycles;
    counts.events += report.kernel.events_processed;
    counts.heap_ops += report.kernel.heap_ops();
    counts.peak_heap_len = counts.peak_heap_len.max(report.kernel.peak_heap_len);
    counts.records += sim.trace().len() as u64;
    counts.packets += report.arrived_packets;
    tr.span("loc.analyze", None, move |_| {
        let mut bank = AnalyzerBank::new();
        bank.add_analyzer(&power_distribution(PACKET_WINDOW))
            .expect("paper formula (2) is a valid distribution formula");
        bank.add_analyzer(&throughput_distribution(PACKET_WINDOW))
            .expect("paper formula (3) is a valid distribution formula");
        let mut results = bank.analyze(sim.trace());
        let throughput = results.distributions.pop().expect("two analyzers ran");
        let power = results.distributions.pop().expect("two analyzers ran");
        ExperimentResult {
            experiment: e.clone(),
            sim: report,
            power,
            throughput,
        }
    })
}

/// Simulates every experiment in order, one `cell` span each.
fn simulate_all(
    tr: &mut Tracer,
    counts: &mut Counts,
    experiments: &[Experiment],
) -> Vec<ExperimentResult> {
    experiments
        .iter()
        .enumerate()
        .map(|(i, e)| tr.span("cell", Some(i), |tr| simulate_cell(tr, counts, e)))
        .collect()
}

/// `abdex sweep` with its defaults: the paper's TDVS grid on
/// ipfwdr/high, in grid order.
fn sweep_paper(tr: &mut Tracer, counts: &mut Counts, seed: u64) -> (String, Vec<ExperimentResult>) {
    let grid = TdvsGrid::default();
    let params: Vec<(f64, u64)> = grid
        .thresholds_mbps
        .iter()
        .flat_map(|&t| grid.windows_cycles.iter().map(move |&w| (t, w)))
        .collect();
    let experiments: Vec<Experiment> = params
        .iter()
        .map(|&(threshold, window)| Experiment {
            benchmark: Benchmark::Ipfwdr,
            traffic: TrafficLevel::High.into(),
            policy: PolicySpec::Tdvs(TdvsConfig {
                top_threshold_mbps: threshold,
                window_cycles: window,
            }),
            cycles: PAPER_RUN_CYCLES,
            seed,
        })
        .collect();
    tr.span("walk", None, |tr| {
        let results = simulate_all(tr, counts, &experiments);
        let cells: Vec<GridCell> = tr.span("stats.fold", None, |_| {
            results
                .into_iter()
                .zip(params)
                .map(|(result, (threshold_mbps, window_cycles))| GridCell {
                    threshold_mbps,
                    window_cycles,
                    result,
                })
                .collect()
        });
        let doc = tr.span("core.render", None, |_| {
            black_box(render_sweep(&cells));
            black_box(render_surface(&power_surface(&cells), "p80 power (W)"));
            black_box(render_surface(
                &throughput_surface(&cells),
                "p80 throughput (Mbps)",
            ));
            for p in [DesignPriority::Performance, DesignPriority::Power] {
                black_box(optimal_tdvs(&cells, p).map(|b| (b.threshold_mbps, b.window_cycles)));
            }
            tdvs_sweep_json(&cells, &[])
        });
        (doc, cells.into_iter().map(|c| c.result).collect())
    })
}

/// The `abdex compare` grid in row order: benchmark-major, then
/// traffic, then policy.
fn compare_grid(seed: u64) -> (Vec<(Benchmark, TrafficSpec, PolicyKind)>, Vec<Experiment>) {
    let cfg = ComparisonConfig {
        seed,
        ..ComparisonConfig::default()
    };
    let mut keys = Vec::new();
    let mut experiments = Vec::new();
    for benchmark in Benchmark::ALL {
        for traffic in TrafficSpec::paper_levels() {
            for policy in cfg.policies() {
                keys.push((benchmark, traffic.clone(), policy.kind()));
                experiments.push(Experiment {
                    benchmark,
                    traffic: traffic.clone(),
                    policy,
                    cycles: cfg.cycles,
                    seed,
                });
            }
        }
    }
    (keys, experiments)
}

/// `abdex compare` with its defaults: 6 policies × 4 benchmarks × 3
/// paper traffic levels.
fn compare_paper(
    tr: &mut Tracer,
    counts: &mut Counts,
    seed: u64,
) -> (String, Vec<ExperimentResult>) {
    let (keys, experiments) = compare_grid(seed);
    tr.span("walk", None, |tr| {
        let results = simulate_all(tr, counts, &experiments);
        let cmp = tr.span("stats.fold", None, |_| PolicyComparison {
            rows: results
                .into_iter()
                .zip(keys)
                .map(|(result, (benchmark, traffic, policy))| ComparisonRow {
                    benchmark,
                    traffic,
                    policy,
                    result,
                })
                .collect(),
        });
        let doc = tr.span("core.render", None, |_| {
            black_box(render_comparison(&cmp));
            comparison_json(&cmp, &[])
        });
        (doc, cmp.rows.into_iter().map(|r| r.result).collect())
    })
}

/// `abdex compare --seeds REPLICATES` against a store: a cold walk
/// simulates and publishes every replicate (the store's write path), then
/// the timed warm walk looks up and decodes every replicate, folds and
/// renders.
fn cache_warm(
    tr: &mut Tracer,
    counts: &mut Counts,
    seed: u64,
    store: &Path,
) -> Result<(String, Cache), String> {
    let (keys, experiments) = compare_grid(seed);
    let replications: Vec<Replication> = experiments
        .iter()
        .map(|e| Replication::new(e.job_spec(), REPLICATES))
        .collect();
    let jobs: Vec<Experiment> = replications
        .iter()
        .flat_map(|r| r.specs().into_iter().map(Experiment::from))
        .collect();

    let cold = Cache::open(store)?;
    tr.span("walk.cold", None, |tr| {
        for (i, e) in jobs.iter().enumerate() {
            tr.span("cell", Some(i), |tr| {
                let result = simulate_cell(tr, counts, e);
                tr.span("ccache.publish", None, |_| {
                    cold.publish(&experiment_key(e), &encode_result(&result));
                });
            });
        }
    });
    if cold.counters().stores != jobs.len() as u64 {
        return Err(format!(
            "cold walk stored {} of {} entries",
            cold.counters().stores,
            jobs.len()
        ));
    }

    // A fresh handle, so its counters see only the warm walk.
    let warm = Cache::open(store)?;
    let level = ConfidenceLevel::default();
    let doc = tr.span("walk", None, |tr| {
        let mut results = Vec::with_capacity(jobs.len());
        for (i, e) in jobs.iter().enumerate() {
            let result = tr.span("cell", Some(i), |tr| {
                let payload = tr.span("ccache.lookup", None, |_| warm.lookup(&experiment_key(e)));
                payload.and_then(|p| tr.span("ccache.decode", None, |_| decode_result(e, &p)))
            });
            results.push(result.ok_or_else(|| format!("warm walk missed {}", e.label()))?);
        }
        let cmp = tr.span("stats.fold", None, |_| {
            let mut outcomes = results.iter();
            let rows = experiments
                .into_iter()
                .zip(&replications)
                .zip(keys)
                .map(
                    |((experiment, replication), (benchmark, traffic, policy))| {
                        let metrics: Vec<RunMetrics> = outcomes
                            .by_ref()
                            .take(REPLICATES as usize)
                            .map(ExperimentResult::metrics)
                            .collect();
                        ReplicatedComparisonRow {
                            benchmark,
                            traffic,
                            policy,
                            result: ReplicatedResult {
                                metrics: replication.fold(&metrics),
                                experiment,
                            },
                        }
                    },
                )
                .collect();
            ReplicatedComparison {
                rows,
                seeds: REPLICATES,
            }
        });
        Ok::<_, String>(tr.span("core.render", None, |_| {
            black_box(render_replicated_comparison(&cmp, level));
            replicated_compare_json(&cmp, level, &[])
        }))
    })?;
    Ok((doc, warm))
}

/// The cache round trip on a workload that runs without a store: every
/// cell's result is published to a scratch store, looked up and decoded
/// back, and must come back equal.
fn ccache_probe(
    tr: &mut Tracer,
    results: &[ExperimentResult],
    store: &Path,
) -> Result<Cache, String> {
    let cache = Cache::open(store)?;
    tr.span("probe.ccache", None, |tr| {
        for (i, r) in results.iter().enumerate() {
            tr.span("cell", Some(i), |tr| {
                let key = experiment_key(&r.experiment);
                tr.span("ccache.publish", None, |_| {
                    cache.publish(&key, &encode_result(r))
                });
                let payload = tr.span("ccache.lookup", None, |_| cache.lookup(&key));
                let back = payload
                    .and_then(|p| {
                        tr.span("ccache.decode", None, |_| decode_result(&r.experiment, &p))
                    })
                    .ok_or_else(|| format!("cache round trip lost {}", r.experiment.label()))?;
                if back.sim == r.sim && back.power == r.power && back.throughput == r.throughput {
                    Ok(())
                } else {
                    Err(format!("cache round trip changed {}", r.experiment.label()))
                }
            })?;
        }
        Ok(cache)
    })
}

/// Packets per second of draining each paper traffic level's stream
/// over one cell horizon (at least 3 drains and 50 ms per level).
fn traffic_probe(seed: u64, cycles: u64) -> Vec<(&'static str, f64)> {
    TrafficSpec::paper_levels()
        .into_iter()
        .map(|spec| {
            let horizon = NpuConfig::builder()
                .build()
                .base_freq()
                .cycles_to_time(cycles);
            let model = spec.model().expect("paper levels always build");
            let start = Instant::now();
            let (mut packets, mut drains) = (0usize, 0u32);
            while drains < 3 || start.elapsed() < Duration::from_millis(50) {
                packets += black_box(
                    model
                        .stream(seed)
                        .take_while(|p| p.arrival < horizon)
                        .count(),
                );
                drains += 1;
            }
            (spec.name(), packets as f64 / start.elapsed().as_secs_f64())
        })
        .collect()
}

/// Nanoseconds per heap operation of an isolated `EventQueue` held at
/// `len` pending events: each step pops the earliest event and schedules
/// one at a pseudo-random later time (at least 200 ms of steps).
fn desim_probe(len: u64) -> f64 {
    let mut queue: EventQueue<Packet> = EventQueue::new();
    let mut state = 0x9E37_79B9_7F4A_7C15_u64;
    let mut delay = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        SimTime::from_ns(1 + state % 2_000)
    };
    let packet = Packet {
        arrival: SimTime::ZERO,
        size_bytes: 64,
        port: 0,
    };
    for _ in 0..len.max(1) {
        queue.schedule(delay(), packet);
    }
    const STEPS: u64 = 100_000;
    let start = Instant::now();
    let mut steps = 0u64;
    while steps == 0 || start.elapsed() < Duration::from_millis(200) {
        for _ in 0..STEPS {
            let (at, p) = queue.pop().expect("the queue never drains");
            queue.schedule(at + delay(), black_box(p));
        }
        steps += STEPS;
    }
    start.elapsed().as_nanos() as f64 / (2 * steps) as f64
}

struct Args {
    workload: String,
    seed: u64,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let workload = it
        .next()
        .ok_or("usage: perftrace <workload> --seed S --out DIR")?;
    let (mut seed, mut out) = (None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: bad value '{value}'"))
        };
        match flag.as_str() {
            "--seed" => seed = Some(number()?),
            "--out" => out = Some(PathBuf::from(&value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed S is required")?,
        out: out.ok_or("--out DIR is required")?,
    })
}

fn run(args: &Args) -> Result<(), String> {
    let mut tr = Tracer::new();
    let mut counts = Counts::default();
    let store = args.out.join("store");
    let (doc, cache) = match args.workload.as_str() {
        "sweep_paper" => {
            let (doc, results) = sweep_paper(&mut tr, &mut counts, args.seed);
            (doc, ccache_probe(&mut tr, &results, &store)?)
        }
        "compare_paper" => {
            let (doc, results) = compare_paper(&mut tr, &mut counts, args.seed);
            (doc, ccache_probe(&mut tr, &results, &store)?)
        }
        "cache_warm" => cache_warm(&mut tr, &mut counts, args.seed, &store)?,
        other => return Err(format!("unknown workload '{other}'")),
    };
    let traffic = traffic_probe(args.seed, PAPER_RUN_CYCLES);
    let ns_per_op = desim_probe(counts.peak_heap_len);

    let cache_counters = cache.counters();
    let store_stats = cache.stats();
    let rates: Vec<String> = traffic
        .iter()
        .map(|(name, rate)| format!("\"{name}\":{rate}"))
        .collect();
    let counts_json = format!(
        "{{\"sim_cycles\":{},\"events\":{},\"heap_ops\":{},\"peak_heap_len\":{},\
         \"records\":{},\"packets\":{},\"pkts_per_s\":{{{}}},\"desim_ns_per_op\":{ns_per_op},\
         \"lookups\":{},\"hits\":{},\"entries\":{},\"entry_bytes\":{},\"doc_bytes\":{},\
         \"available_parallelism\":{}}}\n",
        counts.sim_cycles,
        counts.events,
        counts.heap_ops,
        counts.peak_heap_len,
        counts.records,
        counts.packets,
        rates.join(","),
        cache_counters.hits + cache_counters.misses,
        cache_counters.hits,
        store_stats.entries,
        store_stats.bytes,
        doc.len() + 1,
        std::thread::available_parallelism().map_or(1, usize::from),
    );
    let write = |name: &str, text: &str| {
        let path = args.out.join(name);
        std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
    };
    write("spans.jsonl", &tr.jsonl())?;
    write("counts.json", &counts_json)?;
    write("doc.json", &format!("{doc}\n"))
}

/// `struct rusage` of 64-bit Linux: two `timeval`s, then 14 `long`s of
/// which the first is the peak RSS in KiB.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    longs: [i64; 14],
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// CPU seconds and peak RSS (KiB) of this process's waited-for children.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn children_usage() -> Result<(f64, i64), String> {
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        longs: [0; 14],
    };
    // SAFETY: `usage` is a live, writable value with the layout of
    // `struct rusage` on 64-bit Linux, which is all getrusage writes.
    if unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) } != 0 {
        return Err("getrusage failed".to_owned());
    }
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
    Ok((secs(usage.utime) + secs(usage.stime), usage.longs[0]))
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn children_usage() -> Result<(f64, i64), String> {
    Err("child CPU time and peak RSS are read on 64-bit Linux only".to_owned())
}

/// `perftrace launch --out DIR -- PROGRAM ARGS...`: runs one program and
/// writes `{"status", "wall_s", "cpu_s", "maxrss_kib"}` to `DIR/usage`.
fn launch(args: &[String]) -> Result<(), String> {
    let (out, command) = match args {
        [flag, out, dashes, program, rest @ ..] if flag == "--out" && dashes == "--" => {
            (PathBuf::from(out), (program, rest))
        }
        _ => return Err("usage: perftrace launch --out DIR -- PROGRAM ARGS...".to_owned()),
    };
    let file = |name: &str| {
        std::fs::File::create(out.join(name)).map_err(|e| format!("cannot create {name}: {e}"))
    };
    let (stdout, stderr) = (file("stdout")?, file("stderr")?);
    let start = Instant::now();
    let status = std::process::Command::new(command.0)
        .args(command.1)
        .stdout(stdout)
        .stderr(stderr)
        .status()
        .map_err(|e| format!("cannot run {}: {e}", command.0))?;
    let wall_s = start.elapsed().as_secs_f64();
    let (cpu_s, maxrss_kib) = children_usage()?;
    let usage = format!(
        "{{\"status\":{},\"wall_s\":{wall_s},\"cpu_s\":{cpu_s},\"maxrss_kib\":{maxrss_kib}}}\n",
        status.code().unwrap_or(-1)
    );
    std::fs::write(out.join("usage"), usage).map_err(|e| format!("cannot write usage: {e}"))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.split_first() {
        Some((mode, rest)) if mode == "launch" => launch(rest),
        _ => parse_args().and_then(|args| run(&args)),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perftrace: {e}");
            ExitCode::FAILURE
        }
    }
}
