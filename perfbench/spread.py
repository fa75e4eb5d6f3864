#!/usr/bin/env python3
"""Runs the benchmark once per seed on each workload and reports, per
end-to-end metric, the median, the quartiles and the spread (the
distance between the first and third quartile as a share of the median)
next to the metric's bound in BENCHMARK.json.

    python3 perfbench/spread.py --seeds 1-10
    python3 perfbench/spread.py --workloads sweep_paper --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10 --results perfbench/results_e2e.json

Run from the root of an abdex checkout. `--results` writes every run's
metrics and context, the spreads, and the build context (git rev,
rustc version, available parallelism) to a JSON file. A spread is
`steady` below a third of its bound (the margin the benchmark is tuned
for), `within` below the bound, and `WIDE` otherwise. Exits 1 when a
run fails or any spread is WIDE.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    context = None
    for line in done.stderr.splitlines():
        if line.startswith("perfbench: context "):
            context = json.loads(line[len("perfbench: context "):])
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    return json.loads(lines[-1]), context


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "n": len(values)}


def tool_version(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True).stdout.strip() or None
    except OSError:
        return None


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,11")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", help="write every run and the spreads here")
    args = parser.parse_args()

    seeds = parse_seeds(args.seeds)
    metrics = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    runs, summary, ok = {}, {}, True
    for workload in args.workloads.split(","):
        runs[workload] = []
        for seed in seeds:
            result, context = run_once(spec, workload, seed, args.trace)
            ok &= result["correct"] and result["failed"] == 0
            runs[workload].append({"seed": seed, "result": result, "context": context})
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} {values}", flush=True)
        summary[workload] = {}
        for name in bounds:
            values = [r["result"]["metrics"][name]["value"] for r in runs[workload]]
            s = spread(values) if len(values) >= 2 else {"median": values[0], "n": 1}
            summary[workload][name] = s
            bound = bounds[name]
            if bound is None or "spread" not in s:
                continue
            verdict = ("steady" if s["spread"] < bound / 3
                       else "within" if s["spread"] < bound else "WIDE")
            ok &= verdict != "WIDE"
            print(f"  {workload:14s} {name:12s} median {s['median']:.4f} "
                  f"spread {s['spread']:.4f} bound {bound} {verdict}")

    if args.results:
        doc = {
            "seeds": seeds,
            "trace": args.trace,
            "run_seconds": spec["run_seconds"],
            "git_rev": tool_version(["git", "rev-parse", "HEAD"]),
            "rustc": tool_version(["rustc", "--version"]),
            "build_profile": "release, lto = thin (workspace Cargo.toml)",
            "available_parallelism": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "summary": summary,
            "runs": runs,
        }
        Path(args.results).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
