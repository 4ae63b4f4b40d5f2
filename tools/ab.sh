#!/usr/bin/env bash
# Interleaved A/B of two flowbench builds on one workload.
#
#   tools/ab.sh <parent-flowbench> <change-flowbench> <workload> <pairs> [first-seed]
#
# Runs <pairs> pairs of `flowbench run --trace 0`, one fresh seed per pair
# (first-seed, first-seed + 1, …; default 101), alternating which side goes
# first so that drift cancels, and prints for every end-to-end metric of
# BENCHMARK.json both medians, both inter-quartile ranges, the change's wins
# out of all pairs, the tied pairs (which count for neither side, as at the
# merge gate) and the metric's bound.
# Run from the repository root: it reads ./BENCHMARK.json and writes nothing.
set -euo pipefail

if [ $# -lt 4 ]; then
    sed -n '2,12p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
parent=$1 change=$2 workload=$3 pairs=$4 first_seed=${5:-101}
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')

runs=$(mktemp)
trap 'rm -f "$runs"' EXIT
for ((i = 0; i < pairs; i++)); do
    seed=$((first_seed + i))
    if ((i % 2 == 0)); then order="parent change"; else order="change parent"; fi
    for side in $order; do
        if [ "$side" = parent ]; then bin=$parent; else bin=$change; fi
        # The report is the last line flowbench prints.
        report=$("$bin" run --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)
        printf '%s\t%s\t%s\n' "$side" "$seed" "$report" >>"$runs"
        echo "pair $((i + 1))/$pairs seed $seed $side done" >&2
    done
done

python3 - "$runs" "$workload" <<'PY'
import json, statistics, sys

runs, workload = sys.argv[1], sys.argv[2]
spec = json.load(open("BENCHMARK.json"))["end_to_end"]
sides = {"parent": {}, "change": {}}
failed = {"parent": 0, "change": 0}
for line in open(runs):
    side, seed, report = line.rstrip("\n").split("\t")
    report = json.loads(report)
    failed[side] += report["failed"] + (0 if report["correct"] else 1)
    sides[side][int(seed)] = {k: v["value"] for k, v in report["metrics"].items()}

def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q2, q3 - q1

seeds = sorted(sides["parent"])
print(f"{workload}: {len(seeds)} interleaved pairs, seeds {seeds[0]}..{seeds[-1]}; "
      f"failed or incorrect runs: parent {failed['parent']}, change {failed['change']}")
print(f"{'metric':<22}{'parent median':>16}{'IQR':>12}{'change median':>16}{'IQR':>12}"
      f"{'ratio':>8}{'wins':>7}{'ties':>6}{'bound':>7}")
for m in spec:
    name, higher = m["name"], m["better"] == "higher"
    p = [sides["parent"][s][name] for s in seeds]
    c = [sides["change"][s][name] for s in seeds]
    (pm, pi), (cm, ci) = quartiles(p), quartiles(c)
    wins = sum((y > x) if higher else (y < x) for x, y in zip(p, c))
    ties = sum(x == y for x, y in zip(p, c))
    ratio = cm / pm if pm else float("nan")
    print(f"{name:<22}{pm:>16.6g}{pi:>12.4g}{cm:>16.6g}{ci:>12.4g}{ratio:>8.2f}"
          f"{f'{wins}/{len(seeds)}':>7}{ties:>6}{m['bound']:>7.0%}")
PY
