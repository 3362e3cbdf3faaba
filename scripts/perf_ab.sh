#!/usr/bin/env sh
# Paired A/B of the end-to-end host benchmark (perfbench/run.py): a base
# commit against the working tree, run at the same time so both sides
# see the same host state.
#
# Usage: scripts/perf_ab.sh <base-ref> [rounds] [seconds]
#   rounds  (default 3): rounds per (workload, seed); one pair each
#   seconds (default 20): --seconds of every run.py invocation
#
# Hosts with drifting speed make a sequential A/B unreadable: on a
# 4-vCPU KVM guest on a shared host, speed swings ~1.6x over a few
# seconds, and sequential pairs of one change ranged from 0.99 to 1.51.
# Here each pair runs the base and
# the working tree concurrently, each taskset-pinned to its own vCPU
# (0 and 1), with the pinning swapped every round, over the
# suite_serial and server_pool workloads and seeds 1 and 7919.
#
# The base is the committed tree of <base-ref>, exported with git
# archive into a temporary directory (nothing is added to .git); the
# working tree is run as it is on disk. Each side builds its own
# perfbench program under its own .bench_build/ in a warm-up run before
# the first timed pair. Prints, per pair, change/base for every
# end-to-end metric (above 1 is better for minstr_per_s, below 1 for
# the others) and whether the per-operation digests are equal; the
# summary gives each metric's median ratio and wins. Exit status is 1
# when a run fails its own checks or a digest differs.
set -eu

if [ $# -lt 1 ]; then
    echo "usage: $0 <base-ref> [rounds] [seconds]" >&2
    exit 2
fi
base_ref=$1
rounds=${2:-3}
seconds=${3:-20}

root=$(git rev-parse --show-toplevel)
if ! command -v taskset >/dev/null; then
    echo "error: taskset not found" >&2
    exit 1
fi
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM
mkdir "$tmp/base"
git -C "$root" archive "$base_ref" | tar -x -C "$tmp/base"
base="$tmp/base"

run() { # <tree> <cpu> <workload> <seed> <seconds> <out>
    (cd "$1" && taskset -c "$2" python3 perfbench/run.py --workload "$3" \
        --seed "$4" --seconds "$5" >"$6" 2>"$6.err")
}

status=0
echo "warm-up: building and checking both trees" >&2
for tree in "$base" "$root"; do
    if ! run "$tree" 0 suite_serial 1 1 "$tmp/warm.out"; then
        echo "error: warm-up run failed in $tree:" >&2
        tail -n 20 "$tmp/warm.out.err" >&2
        exit 1
    fi
done

pair=0
for round in $(seq 1 "$rounds"); do
    for workload in suite_serial server_pool; do
        for seed in 1 7919; do
            pair=$((pair + 1))
            if [ $((round % 2)) -eq 1 ]; then cb=0; cc=1; else cb=1; cc=0; fi
            run "$base" "$cb" "$workload" "$seed" "$seconds" \
                "$tmp/p$pair.base" &
            pid=$!
            run "$root" "$cc" "$workload" "$seed" "$seconds" \
                "$tmp/p$pair.change" || status=1
            wait "$pid" || status=1
            echo "$pair $workload $seed $cb $cc" >>"$tmp/pairs"
        done
    done
done

python3 - "$tmp" <<'EOF' || status=1
import json, re, statistics, sys
from pathlib import Path

tmp = Path(sys.argv[1])
HIGHER = {"minstr_per_s"}
OP = re.compile(r"^op\s+\d+\s+(\S+)\s+run\s+\S+ ms\s+setup\s+\S+ ms\s+"
                r"(.*?)\s+\[(.*)\]$")

def load(path):
    lines = path.read_text().splitlines()
    digests, result = {}, {}
    for line in lines:
        m = OP.match(line)
        if m:
            digests.setdefault(m.group(1), set()).add(m.group(2))
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return digests, result

ok = True
ratios = {}
print("%-4s %-12s %5s %4s  %-40s %s" % ("pair", "workload", "seed", "cpus",
                                      "change/base per metric", "digests"))
for line in (tmp / "pairs").read_text().splitlines():
    pair, workload, seed, cb, cc = line.split()
    d_base, r_base = load(tmp / ("p%s.base" % pair))
    d_change, r_change = load(tmp / ("p%s.change" % pair))
    # Every operation kind both runs reached has one digest, the same
    # on both sides (a slower side may finish fewer passes).
    common = d_base.keys() & d_change.keys()
    same = bool(common) and all(
        len(d_base[k]) == 1 and d_base[k] == d_change[k] for k in common)
    runs_ok = r_base.get("correct") is True and r_change.get("correct") is True
    ok = ok and same and runs_ok
    cells = []
    for name, base_metric in r_base.get("metrics", {}).items():
        b = base_metric["value"]
        c = r_change.get("metrics", {}).get(name, {}).get("value", 0.0)
        ratio = c / b if b else float("nan")
        ratios.setdefault((workload, name), []).append(ratio)
        cells.append("%s %.3f" % (name, ratio))
    print("%-4s %-12s %5s %s/%s  %s  %s%s" % (
        pair, workload, seed, cb, cc, ", ".join(cells),
        "equal" if same else "DIFFER",
        "" if runs_ok else "  (a run FAILED its checks)"))

print("\nsummary (median change/base, pairs won by the change):")
for (workload, name), values in sorted(ratios.items()):
    better = [v > 1 if name in HIGHER else v < 1 for v in values]
    print("  %-12s %-14s median %.3f  won %d/%d" % (
        workload, name, statistics.median(values), sum(better),
        len(values)))
sys.exit(0 if ok else 1)
EOF
exit "$status"
