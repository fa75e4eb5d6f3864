#!/usr/bin/env python3
"""The abdex benchmark: the paper's own workloads through the CLI, end to
end, plus a traced in-process run that splits them into layers.

    python3 perfbench/run.py --workload sweep_paper --seed 42 --seconds 20 --trace 0

Run it from the root of an abdex checkout. It builds the release `abdex`
binary and the `perftrace` harness (`perfbench/src/main.rs`) into
`$CARGO_TARGET_DIR` (default `.bench_build`), then:

* `--trace 0` times whole `abdex` invocations — a closed loop, one
  invocation at a time — for `--seconds` and prints the end-to-end
  metrics (medians);
* `--trace 1` times a few untraced invocations, then runs `perftrace`,
  which walks the same cells serially with a span around every call
  into a layer, and prints the per-layer metrics.

Every invocation's output is checked (see `check_doc`); a run that fails
a check is counted in `failed` and its time is left out. The last line
of stdout is one JSON object: `correct`, `attempted`, `failed`,
`metrics`. Progress and a `perfbench-context` line (seed, stats digest,
sample counts, worker count, cache epoch) go to stderr. README.md in
this directory defines every metric and what each should move.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import signal
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep_paper", "compare_paper", "cache_warm")
# Expected document kind and cell count of each workload's `--json -`.
EXPECTED = {
    "sweep_paper": ("tdvs_sweep", "cells", "grid", 16),
    "compare_paper": ("policy_comparison", "rows", "table", 72),
    "cache_warm": ("replicated_compare", "rows", "table", 72),
}
REPLICATES = 4  # cache_warm: --seeds K, so 72 x 4 = 288 store entries
SEEDS_PER_ROUND = 4  # sweep_paper, compare_paper: CLI seeds one round runs
SETUP_REPS = 3  # cache_warm: cold passes per end-to-end run; setup_s is their median
MIN_SAMPLES = 5  # timed invocations per run, however short --seconds is
INVOKE_TIMEOUT_S = 120
RUN_BUDGET_S = 150  # stop starting invocations past this, to end within 180 s
# Digested per cell: energy, forwarded packets, loss (dropped packets),
# throughput, and the two LOC distributions through their p80 quantiles.
DIGEST_FIELDS = (
    "total_energy_uj",
    "forwarded_packets",
    "loss_ratio",
    "throughput_mbps",
    "p80_power_w",
    "p80_throughput_mbps",
)
LAYER_PREFIXES = ("nepsim.", "loc.", "ccache.", "stats.", "core.")
MASK64 = (1 << 64) - 1


class BenchError(Exception):
    """A failure that leaves no result to print."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def wait_group(child, timeout=None):
    """Waits for a child started with `start_new_session=True`; on a
    timeout or an interruption kills it with everything it started."""
    try:
        child.communicate(timeout=timeout)
    except BaseException:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise
    return child.returncode


def build():
    """Builds `abdex` and `perftrace` in release mode; returns both paths."""
    manifest = ROOT / "Cargo.toml"
    if not manifest.is_file():
        raise BenchError(f"no abdex workspace at {ROOT}")
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--manifest-path", str(manifest),
         "-p", "abdex", "--bin", "abdex"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         str(ROOT / "perfbench" / "Cargo.toml")],
    ):
        child = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
                                 start_new_session=True)
        if wait_group(child) != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    return target / "release" / "abdex", target / "release" / "perftrace"


@dataclass
class Invocation:
    """One finished child process: status, host costs and output."""

    status: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: bytes
    stderr: str


def invoke(perftrace, cmd, workdir):
    """Runs `cmd` to completion through `perftrace launch`, which times
    it: wall time from spawn to reap, CPU time and peak RSS from the
    child's rusage. (A child's peak RSS includes the memory of the process
    that spawned it, so this Python process must not be that parent.)"""
    (workdir / "usage").unlink(missing_ok=True)
    launcher = subprocess.Popen(
        [str(perftrace), "launch", "--out", str(workdir), "--"] + cmd,
        cwd=workdir, stdout=sys.stderr, stderr=sys.stderr, start_new_session=True)
    try:
        wait_group(launcher, INVOKE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return Invocation(-9, 0, 0, 0, b"", f"killed after {INVOKE_TIMEOUT_S} s")
    report = (workdir / "usage").read_text() if launcher.returncode == 0 else ""
    if not report:
        raise BenchError(f"launcher exited {launcher.returncode}")
    usage = json.loads(report)
    return Invocation(
        usage["status"],
        usage["wall_s"],
        usage["cpu_s"],
        usage["maxrss_kib"] / 1024.0,
        (workdir / "stdout").read_bytes(),
        (workdir / "stderr").read_text(errors="replace"),
    )


def cells_of(doc, workload):
    return doc[EXPECTED[workload][2]]


def stats_digest(doc, workload):
    """Digest of the simulated statistics of every cell, in order."""
    rows = []
    for cell in cells_of(doc, workload):
        metrics = cell["metrics"]
        rows.append([cell["benchmark"], cell["traffic"], cell["policy"], cell["seed"]]
                    + [metrics[f] for f in DIGEST_FIELDS])
    blob = json.dumps(rows, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def check_doc(inv, workload):
    """Returns the parsed document and cache epoch of a good invocation;
    raises ValueError naming the first failed check."""
    if inv.status != 0:
        raise ValueError(f"exit status {inv.status}: {inv.stderr.strip()[-300:]}")
    try:
        doc = json.loads(inv.stdout)
    except ValueError as e:
        raise ValueError(f"--json document does not parse: {e}") from None
    if not isinstance(doc, dict):
        raise ValueError("--json document is not an object")
    kind, count_key, cells_key, count = EXPECTED[workload]
    if doc.get("kind") != kind or doc.get(count_key) != count or len(doc.get(cells_key, [])) != count:
        raise ValueError(f"expected {kind} with {count} {count_key}, got {doc.get('kind')} "
                         f"with {doc.get(count_key)}")
    if doc.get("failed") != 0 or doc.get("failures") != []:
        raise ValueError(f"document lists failures: {doc.get('failures')}")
    if workload == "cache_warm":
        if doc.get("seeds") != REPLICATES:
            raise ValueError(f"expected --seeds {REPLICATES}, got {doc.get('seeds')}")
        for cell in cells_of(doc, workload):
            if any(m["n"] != REPLICATES for m in cell["metrics"].values()):
                raise ValueError(f"a cell of {cell['policy']} folds fewer than {REPLICATES} runs")
    return doc, doc.get("cache_epoch")


def cache_line(inv):
    lines = [l for l in inv.stderr.splitlines() if l.startswith("cache: ")]
    if len(lines) != 1:
        raise ValueError("no single `cache:` line on stderr")
    return lines[0]


def invocation_seed(seed, i):
    """The i-th CLI seed of a round: the run's own seed first, then
    32-bit SplitMix64 derivations of (seed, i), so runs of different
    seeds share no traffic realisation."""
    if i == 0:
        return seed
    z = (seed + i * 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) >> 32


class Run:
    """State of one benchmark run: the checked invocations and the
    reference output of every CLI seed they used.

    Invocations go in rounds, one per CLI seed in `seeds`, and a run
    stops only between rounds. So every run times the same seeds equally
    often, however fast the program or the host is, and a change is
    compared with its parent on the same traffic realisations."""

    def __init__(self, args, abdex, perftrace, workdir):
        self.args = args
        self.abdex = abdex
        self.perftrace = perftrace
        self.workdir = workdir
        self.workload = args.workload
        self.workers = 1 if args.workload == "sweep_paper" else len(os.sched_getaffinity(0))
        # A store holds one seed's entries, so cache_warm stays on --seed,
        # and so does the traced run, whose document must match the CLI's.
        if args.workload == "cache_warm" or args.trace:
            self.seeds = [args.seed]
        else:
            self.seeds = [invocation_seed(args.seed, i) for i in range(SEEDS_PER_ROUND)]
        self.store = workdir / "store"
        self.attempted = 0
        self.failed = 0
        self.references = {}  # CLI seed -> (stats digest, stdout) of its first pass
        self.cache_epoch = None
        self.started = time.perf_counter()

    def cli_args(self, seed):
        seed = str(seed)
        if self.workload == "sweep_paper":
            return ["sweep", "--seed", seed, "--jobs", "1", "--no-cache", "--json", "-"]
        if self.workload == "compare_paper":
            return ["compare", "--seed", seed, "--jobs", str(self.workers), "--no-cache",
                    "--json", "-"]
        return ["compare", "--seed", seed, "--seeds", str(REPLICATES), "--jobs",
                str(self.workers), "--cache-dir", str(self.store), "--json", "-"]

    def invoke_cli(self, seed, phase):
        """Runs and checks one invocation on CLI seed `seed`; returns it
        when it passes every check, None (counted as failed) otherwise."""
        inv = invoke(self.perftrace, [str(self.abdex)] + self.cli_args(seed), self.workdir)
        self.attempted += 1
        try:
            self.check(inv, seed, phase)
            return inv
        except (ValueError, KeyError, TypeError) as e:  # a malformed document too
            self.failed += 1
            log(f"{self.workload} {phase} invocation (seed {seed}) failed a check: {e}")
            return None

    def check(self, inv, seed, phase):
        doc, self.cache_epoch = check_doc(inv, self.workload)
        if seed not in self.references:
            self.references[seed] = (stats_digest(doc, self.workload), inv.stdout)
        elif inv.stdout != self.references[seed][1]:
            raise ValueError(f"document differs from the first pass of seed {seed}")
        if self.workload == "cache_warm":
            line = cache_line(inv)
            cells = EXPECTED["cache_warm"][3] * REPLICATES
            if phase == "cold" and f"0 hits, {cells} misses, {cells} stores" not in line:
                raise ValueError(f"cold pass did not populate a fresh store: {line}")
            if phase == "warm":
                if f"{cells} hits, 0 misses, 0 stores" not in line:
                    raise ValueError(f"warm pass was not all hits: {line}")

    def over_budget(self):
        return time.perf_counter() - self.started > RUN_BUDGET_S

    def setup(self, rounds):
        """The passes before timing, `rounds` rounds of them. cache_warm:
        a cold pass into a fresh store, each time (the last store stays
        for the warm passes). The other workloads keep no state, so their
        set-up is a warm-up round, which also records each seed's
        reference document."""
        times = []
        for _ in range(rounds):
            for seed in self.seeds:
                if self.workload == "cache_warm":
                    shutil.rmtree(self.store, ignore_errors=True)
                inv = self.invoke_cli(seed, "cold" if self.workload == "cache_warm" else "warm-up")
                if inv is not None:
                    times.append(inv.wall_s)
        if self.failed or len(self.references) != len(self.seeds):
            raise BenchError("set-up failed; nothing to time")
        return times

    def timed(self, seconds, min_samples):
        """Closed loop: one invocation at a time, in whole rounds, until
        `seconds` passed and at least `min_samples` were attempted. Every
        invocation must repeat its seed's set-up document byte for byte."""
        samples = []
        phase = "warm" if self.workload == "cache_warm" else "timed"
        deadline = time.perf_counter() + seconds
        attempted = 0
        while ((attempted < min_samples or time.perf_counter() < deadline)
               and not self.over_budget()):
            for seed in self.seeds:
                inv = self.invoke_cli(seed, phase)
                if inv is not None:
                    samples.append(inv)
            attempted += len(self.seeds)
        if not samples:
            raise BenchError("no timed invocation passed its checks")
        return samples


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def layer_metrics(run, perftrace_dir, untraced):
    """Per-layer metrics from the traced walk's spans and counts."""
    spans = [json.loads(l) for l in (perftrace_dir / "spans.jsonl").read_text().splitlines()]
    counts = json.loads((perftrace_dir / "counts.json").read_text())

    def dur(s):
        return (s["end_ns"] - s["start_ns"]) / 1e9

    covered = defaultdict(float)  # time each span's children cover
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += dur(s)
    self_time = {s["id"]: dur(s) - covered[s["id"]] for s in spans}
    total = defaultdict(float)
    calls = defaultdict(int)
    for s in spans:
        total[s["name"]] += self_time[s["id"]]
        calls[s["name"]] += 1

    walk = next(s for s in spans if s["name"] == "walk")
    parents = {s["id"]: s["parent"] for s in spans}

    def in_walk(s):
        p = s["parent"]
        while p is not None:
            if p == walk["id"]:
                return True
            p = parents[p]
        return False

    layer_in_walk = sum(dur(s) for s in spans if s["name"].startswith(LAYER_PREFIXES) and in_walk(s))
    cell_ms = [dur(s) * 1e3 for s in spans if s["name"] == "cell" and s["parent"] == walk["id"]]
    wall = statistics.median(i.wall_s for i in untraced)
    cpu = statistics.median(i.cpu_s for i in untraced)
    # Walk time no layer span covers, plus the CLI's CPU the walk does not
    # reproduce at all: a trace that misses work reads as worse.
    unaccounted = dur(walk) - layer_in_walk + max(0.0, cpu - dur(walk))
    sim_s = total["nepsim.simulate"]
    analyze_s = total["loc.analyze"]

    def per_entry_ms(name):
        return total[name] / calls[name] * 1e3

    values = {
        "nepsim.simulate_s": (sim_s, "s"),
        "nepsim.events": (counts["events"], "count"),
        "nepsim.ns_per_event": (sim_s * 1e9 / counts["events"], "ns"),
        "nepsim.sim_cycles_per_s": (counts["sim_cycles"] / sim_s, "1/s"),
        "desim.heap_ops": (counts["heap_ops"], "count"),
        "desim.peak_heap_len": (counts["peak_heap_len"], "count"),
        "desim.ns_per_op": (counts["desim_ns_per_op"], "ns"),
        "traffic.pkts_per_s.low": (counts["pkts_per_s"]["low"], "1/s"),
        "traffic.pkts_per_s.medium": (counts["pkts_per_s"]["medium"], "1/s"),
        "traffic.pkts_per_s.high": (counts["pkts_per_s"]["high"], "1/s"),
        "traffic.packets": (counts["packets"], "count"),
        "loc.analyze_s": (analyze_s, "s"),
        "loc.records": (counts["records"], "count"),
        "loc.records_per_s": (counts["records"] / analyze_s, "1/s"),
        "ccache.lookup_ms": (per_entry_ms("ccache.lookup"), "ms"),
        "ccache.decode_ms": (per_entry_ms("ccache.decode"), "ms"),
        "ccache.publish_ms": (per_entry_ms("ccache.publish"), "ms"),
        "ccache.entry_kb": (counts["entry_bytes"] / counts["entries"] / 1024, "KiB"),
        "ccache.hit_ratio": (counts["hits"] / counts["lookups"], "ratio"),
        "stats.fold_ms": (total["stats.fold"] * 1e3, "ms"),
        "core.render_ms": (total["core.render"] * 1e3, "ms"),
        "core.doc_kb": (counts["doc_bytes"] / 1024, "KiB"),
        "xrun.cell_ms.p50": (nearest_rank(cell_ms, 50), "ms"),
        "xrun.cell_ms.p85": (nearest_rank(cell_ms, 85), "ms"),
        "xrun.parallel_efficiency": (sum(cell_ms) / 1e3 / (wall * run.workers), "ratio"),
        "trace.overhead_frac": (abs(dur(walk) / cpu - 1), "ratio"),
        "trace.unaccounted_frac": (unaccounted / max(dur(walk), cpu), "ratio"),
    }
    context = {"traced_walk_s": dur(walk), "walk_cells": len(cell_ms),
               "available_parallelism": counts["available_parallelism"]}
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, context


def traced(run, seconds):
    """`--trace 1`: untraced invocations for the two ratios that need
    them, then the traced walk, whose document must equal the CLI's."""
    run.setup(1)
    untraced = run.timed(seconds / 4, 3)
    out = run.workdir / "trace"
    out.mkdir()
    cmd = [str(run.perftrace), run.workload, "--seed", str(run.args.seed), "--out", str(out)]
    inv = invoke(run.perftrace, cmd, run.workdir)
    run.attempted += 1
    try:
        if inv.status != 0:
            raise ValueError(f"perftrace exited {inv.status}: {inv.stderr.strip()[-300:]}")
        doc = (out / "doc.json").read_bytes()
        parsed, _ = check_doc(Invocation(0, 0, 0, 0, doc, ""), run.workload)
        digest = stats_digest(parsed, run.workload)
        cli_digest, cli_doc = run.references[run.args.seed]
        if doc != cli_doc:
            raise ValueError(f"traced document (digest {digest}) differs from the CLI's "
                             f"(digest {cli_digest})")
    except (ValueError, KeyError, TypeError, OSError) as e:
        run.failed += 1
        raise BenchError(f"traced run failed a check: {e}") from None
    metrics, context = layer_metrics(run, out, untraced)
    context["untraced_samples"] = len(untraced)
    context["traced_stats_digest"] = digest
    return metrics, context


def end_to_end(run, seconds):
    setup = run.setup(SETUP_REPS if run.workload == "cache_warm" else 1)
    samples = run.timed(seconds, MIN_SAMPLES)

    def median(field):
        return statistics.median(getattr(i, field) for i in samples)

    metrics = {
        "wall_s": {"value": median("wall_s"), "unit": "s"},
        "cpu_s": {"value": median("cpu_s"), "unit": "s"},
        "peak_rss_mb": {"value": median("rss_mb"), "unit": "MiB"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
    }
    walls = [i.wall_s for i in samples]
    # The highest 5 % step of percentile with at least ten samples beyond it.
    tail = 5 * int((100 - 1000 / len(walls)) // 5) if len(walls) >= 20 else None
    context = {"samples": len(samples), "setup_samples": len(setup),
               "wall_s_tail": {"percentile": tail, "value": nearest_rank(walls, tail)}
               if tail else None,
               "wall_s_samples": [round(w, 4) for w in walls],
               "cpu_s_samples": [round(i.cpu_s, 4) for i in samples],
               "setup_s_samples": [round(t, 4) for t in setup]}
    return metrics, context


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SIGTERM unwinds like Ctrl-C, so children are killed and scratch removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    try:
        abdex, perftrace = build()
        scratch_root = ROOT / ".bench_tmp"
        scratch_root.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_root))
        try:
            run = Run(args, abdex, perftrace, workdir)
            if args.trace:
                metrics, context = traced(run, args.seconds)
            else:
                metrics, context = end_to_end(run, args.seconds)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            try:
                scratch_root.rmdir()
            except OSError:
                pass  # another run still uses it
    except BenchError as e:
        log(f"error: {e}")
        return 2

    context.update({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        # CLI seed -> stats digest of its document, for every seed run
        "stats_digests": {str(s): d for s, (d, _) in sorted(run.references.items())},
        "cache_epoch": run.cache_epoch,
        "workers": run.workers,
        "attempted": run.attempted,
        "failed": run.failed,
        "failed_frac": run.failed / run.attempted,
    })
    log("context " + json.dumps(context, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
