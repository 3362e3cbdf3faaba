#!/usr/bin/env python3
"""perfbench: the end-to-end host benchmark of the LBA simulator.

    python3 perfbench/run.py --workload suite_serial --seed 1 \\
        --seconds 20 --trace 0

Run from the repository root. Builds the perfbench program (perfbench.cc)
against the repository's library under .bench_build/, runs one
workload for --seconds, checks every operation's output and prints
the metrics. With --trace 0 it prints the end-to-end metrics; with
--trace 1 it runs the traced decomposition instead, prints the
per-layer metrics and the self time of every span, and writes the
spans to .bench_build/perfbench-traces/. The last line of standard
output is one JSON object: {"correct", "attempted", "failed",
"metrics"}. Exit status: 0 when every operation passed its checks,
1 otherwise (or when the build fails, in which case no JSON is
printed).

manifest.json records the workloads, the seeds, the layer-metric map
and the trajectory; test_benchstats.py tests the statistics and checks.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import benchstats

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
TRACE_DIR = ROOT / ".bench_build" / "perfbench-traces"
PROGRAM = BUILD_DIR / "perfbench"
WORKLOADS = ("suite_serial", "threaded_fused", "server_pool")
# Slack beyond --seconds for the last pass and the references.
RUN_SLACK_S = 100


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the program; output goes to stderr."""
    if not (ROOT / "CMakeLists.txt").exists() or not (ROOT / "src").is_dir():
        log("perfbench: no repository sources next to %s" % BENCH_DIR)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                  "--target", "perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build step failed: %s" % " ".join(cmd))
            return False
    return PROGRAM.exists()


def run_program(args, trace_path):
    """Run the program; returns (begun op ids, ops, layers, refs, end)."""
    cmd = [str(PROGRAM), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds)]
    if trace_path:
        cmd += ["--trace-out", str(trace_path)]
    begun, ops, layers, refs, end = [], {}, {}, {}, None
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    deadline = time.monotonic() + args.seconds + RUN_SLACK_S
    try:
        for line in proc.stdout:
            tag, _, body = line.partition(" ")
            if tag == "BEGIN":
                begun.append(json.loads(body)["op"])
            elif tag == "OP":
                record = json.loads(body)
                ops[record["op"]] = record
            elif tag == "LAYER":
                record = json.loads(body)
                layers[record["op"]] = record
            elif tag == "REF":
                refs = json.loads(body)
            elif tag == "END":
                end = json.loads(body)
            if time.monotonic() > deadline:
                log("perfbench: the program overran its time; stopping it")
                proc.kill()
                break
    finally:
        proc.stdout.close()
        status = proc.wait()
    if status != 0:
        log("perfbench: the program exited with status %d" % status)
    return begun, ops, layers, refs, end, status


def load_manifest():
    with open(BENCH_DIR / "manifest.json") as f:
        return json.load(f)


def print_ops(begun, ops, failures):
    for op_id in begun:
        op = ops.get(op_id, {})
        status = "FAIL " + failures[op_id] if op_id in failures else "ok"
        if "run_ns" in op:
            print("op %4d %-18s run %8.2f ms  setup %7.3f ms  %s  [%s]" % (
                op_id, op["key"], op["run_ns"] / 1e6, op["setup_ns"] / 1e6,
                op["digest"], status))
        else:
            print("op %4d %-18s [%s]" % (op_id, op.get("key", "?"), status))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")

    manifest = load_manifest()
    if not build():
        return 1

    trace_path = None
    if args.trace:
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        trace_path = TRACE_DIR / ("%s-seed%d.json" % (args.workload,
                                                      args.seed))
    begun, ops, layers, refs, end, status = run_program(args, trace_path)
    if not begun:
        log("perfbench: the program ran no operation")
        return 1

    failures = benchstats.check_ops(args.workload, begun, ops, refs)
    if args.trace:
        for op_id, layer in layers.items():
            if not layer["encoder_identity"] and op_id not in failures:
                failures[op_id] = ("standalone encoder disagrees with the "
                                   "platform's encoded stream")
    attempted = len(begun)
    failed = len(failures)
    if end is None or status != 0:
        failed = max(failed, 1)
    print_ops(begun, ops, failures)

    good = [ops[i] for i in begun if i not in failures]
    desc = manifest["workloads"][args.workload]
    print("\n%s, seed %d: %d operations attempted, %d failed, "
          "failed_frac %.4f ratio; closed loop, one caller, %s; "
          "caches start empty in every operation" % (
              args.workload, args.seed, attempted, failed,
              benchstats.failed_frac(attempted, failed), desc["shape"]))
    metrics = {}
    units = {}
    if args.trace:
        units = {m: d["unit"] for m, d in manifest["layer_metrics"].items()}
        values = {}
        if good and trace_path.exists():
            with open(trace_path) as f:
                spans = json.load(f)
            traced = [op for op in good if op["op"] in layers]
            ids = {op["op"] for op in traced}
            values = benchstats.per_layer(
                args.workload, traced, [layers[op["op"]] for op in traced],
                [span for span in spans if span["op"] in ids])
            print("\nself time by span (host):")
            selfs = benchstats.self_times(spans)
            root_ns = sum(ns for ns in selfs.values()) or 1
            for name, ns in sorted(selfs.items(), key=lambda kv: -kv[1]):
                print("  %-24s %10.1f ms  %5.1f%%" % (
                    name, ns / 1e6, 100.0 * ns / root_ns))
        print("\nper-layer metrics (traced run):")
        for name, info in manifest["layer_metrics"].items():
            value = values.get(name, 0.0)
            metrics[name] = value
            note = ""
            if args.workload not in info["measured_on"]:
                note = "  [layer bypassed on this workload]"
            print("  %-38s %14.6g %-9s %-9s -> %s%s" % (
                name, value, info["unit"], info["kind"], info["moves"],
                note))
    else:
        units = {m: d["unit"] for m, d in manifest["end_to_end"].items()}
        values, extra = (benchstats.end_to_end(good, end["rss_kb"])
                         if good and end else ({}, {}))
        print("\nend-to-end metrics (host):")
        for name, info in manifest["end_to_end"].items():
            value = values.get(name, 0.0)
            metrics[name] = value
            note = ""
            if name == "run_ms_tail" and extra:
                note = "  (p%.1f, %d samples above, of %d)" % (
                    extra["tail_percentile"], extra["tail_samples_above"],
                    extra["samples"])
            print("  %-14s %14.6g %s%s" % (name, value, info["unit"], note))
        print("printed, not in the result line (see manifest.json):")
        values["failed_frac"] = benchstats.failed_frac(attempted, failed)
        for name, info in manifest["printed_only"].items():
            print("  %-14s %14.6g %s" % (name, values.get(name, 0.0),
                                         info["unit"]))

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
