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
# merge gate) and the metric's bound. Two rows follow with the same figures
# for each run's CPU milliseconds and minor faults per attempted job
# (tools/rusage.py; lower is better, no bound): a wall-clock win whose CPU
# per job stays flat is ambient, not a saving.
# Run from the repository root: it reads ./BENCHMARK.json and writes nothing.
set -euo pipefail

if [ $# -lt 4 ]; then
    sed -n '2,15p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi

PYTHONPATH="$(dirname "$0")" PYTHONDONTWRITEBYTECODE=1 python3 - "$@" <<'PY'
import json, statistics, sys
from rusage import per_job, run

parent, change, workload, pairs = sys.argv[1:5]
pairs, first_seed = int(pairs), int(sys.argv[5]) if len(sys.argv) > 5 else 101
bench = json.load(open("BENCHMARK.json"))
seconds, spec = str(bench["run_seconds"]), bench["end_to_end"]
bins = {"parent": parent, "change": change}
sides = {"parent": {}, "change": {}}
failed = {"parent": 0, "change": 0}
for i in range(pairs):
    seed = first_seed + i
    for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
        report, usage = run(bins[side], workload, seed, "--seconds", seconds)
        failed[side] += report["failed"] + (0 if report["correct"] else 1)
        metrics = {k: v["value"] for k, v in report["metrics"].items()}
        sides[side][seed] = metrics | per_job(report, usage)
        print(f"pair {i + 1}/{pairs} seed {seed} {side} done", file=sys.stderr)

def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q2, q3 - q1

seeds = sorted(sides["parent"])
print(f"{workload}: {len(seeds)} interleaved pairs, seeds {seeds[0]}..{seeds[-1]}; "
      f"failed or incorrect runs: parent {failed['parent']}, change {failed['change']}")
print(f"{'metric':<22}{'parent median':>16}{'IQR':>12}{'change median':>16}{'IQR':>12}"
      f"{'ratio':>8}{'wins':>7}{'ties':>6}{'bound':>7}")
rows = [(m["name"], m["better"] == "higher", f"{m['bound']:.0%}") for m in spec]
rows += [("cpu_ms_per_job", False, "-"), ("faults_per_job", False, "-")]
for name, higher, bound in rows:
    p = [sides["parent"][s][name] for s in seeds]
    c = [sides["change"][s][name] for s in seeds]
    (pm, pi), (cm, ci) = quartiles(p), quartiles(c)
    wins = sum((y > x) if higher else (y < x) for x, y in zip(p, c))
    ties = sum(x == y for x, y in zip(p, c))
    ratio = cm / pm if pm else float("nan")
    print(f"{name:<22}{pm:>16.6g}{pi:>12.4g}{cm:>16.6g}{ci:>12.4g}{ratio:>8.2f}"
          f"{f'{wins}/{len(seeds)}':>7}{ties:>6}{bound:>7}")
PY
