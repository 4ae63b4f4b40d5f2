#!/usr/bin/env bash
# Interleaved A/B of two flowbench builds on every workload of BENCHMARK.json.
#
#   tools/ab_all.sh <parent-flowbench> <change-flowbench> <pairs> [claimed-workload claimed-metric]
#
# Runs tools/ab.sh once per workload (its table is printed as it completes)
# and ends with the verdict the merge gate reaches from the same numbers:
# for the claimed cell, the change's wins, both medians and the parent's
# inter-quartile range (a claim holds when the change wins at least 9 in 10
# of *all* pairs, a tie counting for neither side, and its median is better
# than the parent's by more than that range); and every (workload, metric)
# whose change median is worse than the parent's by more than the metric's
# bound. ~20 s a pair and workload; run nothing else meanwhile. Run from the
# repository root.
set -euo pipefail

if [ $# -ne 3 ] && [ $# -ne 5 ]; then
    sed -n '2,14p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
parent=$1 change=$2 pairs=$3 claim_workload=${4:-} claim_metric=${5:-}

tables=$(mktemp)
trap 'rm -f "$tables"' EXIT
for workload in $(python3 -c 'import json; print(*[w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]])'); do
    "$(dirname "$0")/ab.sh" "$parent" "$change" "$workload" "$pairs" | tee -a "$tables"
done

python3 - "$tables" "$claim_workload" "$claim_metric" <<'PY'
import json, sys

tables, claim_workload, claim_metric = sys.argv[1:4]
spec = {m["name"]: m for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
rows, failed, workload = [], [], None
for line in open(tables):
    cells = line.split()
    if cells and cells[0].endswith(":") and "interleaved" in line:
        workload = cells[0][:-1]
        counts = line.rsplit("parent", 1)[1].replace(",", " ").split()
        if int(counts[0]) or int(counts[2]):
            failed.append(line.strip())
    elif cells and cells[0] in spec:
        pm, pi, cm, ci = map(float, cells[1:5])
        rows.append((workload, cells[0], pm, pi, cm, ci, cells[6], cells[7]))

print("\nverdict")
for line in failed:
    print(f"  FAILED RUNS  {line}")
for w, name, pm, pi, cm, ci, wins, ties in rows:
    if (w, name) == (claim_workload, claim_metric):
        won, pairs = map(int, wins.split("/"))
        gain = cm - pm if spec[name]["better"] == "higher" else pm - cm
        holds = pairs > 0 and won * 10 >= pairs * 9 and gain > pi
        print(f"  claim        {w} {name}: wins {wins}, ties {ties}, parent {pm:.6g} (IQR {pi:.4g}), "
              f"change {cm:.6g} (IQR {ci:.4g}), ratio {cm / pm:.2f} -> "
              f"{'holds' if holds else 'NOT MET'}")
worse = []
for w, name, pm, pi, cm, ci, wins, ties in rows:
    bound, higher = spec[name]["bound"], spec[name]["better"] == "higher"
    if (cm < pm * (1 - bound)) if higher else (cm > pm * (1 + bound)):
        worse.append(f"  REGRESSION   {w} {name}: parent {pm:.6g}, change {cm:.6g}, "
                     f"ratio {cm / pm:.2f}, bound {bound:.0%}, wins {wins}")
print("\n".join(worse) if worse else
      f"  no (workload, metric) of {len(rows)} is worse than its bound")
PY
