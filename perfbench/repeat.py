#!/usr/bin/env python3
"""Repeat perfbench runs over several seeds and report each end-to-end
metric's median, quartiles and spread (interquartile distance over the
median) against its bound in BENCHMARK.json.

    python3 perfbench/repeat.py --workload suite_serial --seeds 1-10

Use it to check that the benchmark is steady (every spread but setup_s
within its bound) and, on two commits, to compare medians: a change is
no worse on a metric when its median is within the bound of the
parent's.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import benchstats

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()

    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {name: [] for name in bounds}
    for seed in parse_seeds(args.seeds):
        out = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(bench["run_seconds"]), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if out.returncode or not result.get("correct"):
            print("seed %d: run failed (status %d)" % (seed, out.returncode))
            return 1
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (name, m["value"])
            for name, m in result["metrics"].items())), flush=True)
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])

    print("\n%-14s %12s %12s %12s %8s %6s" % (
        "metric", "median", "q1", "q3", "spread", "bound"))
    summary = {}
    for name, vals in values.items():
        q1, q3 = benchstats.quartiles(vals)
        spread = benchstats.spread(vals)
        summary[name] = {"median": statistics.median(vals), "q1": q1,
                         "q3": q3, "spread": spread}
        print("%-14s %12.6g %12.6g %12.6g %8.4f %6.2f" % (
            name, statistics.median(vals), q1, q3, spread, bounds[name]))
    print(json.dumps({"workload": args.workload, "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
