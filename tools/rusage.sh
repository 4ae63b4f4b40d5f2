#!/usr/bin/env bash
# Wall time, CPU time and minor faults of one untraced flowbench run.
#
#   tools/rusage.sh <flowbench> <workload> [seed]
#
# Runs `<flowbench> run --workload <workload> --seed <seed> --trace 0` (seed
# default 9) and reads resource.getrusage(RUSAGE_CHILDREN) once it exits, so
# the figures cover every measuring process it spawned. Prints wall seconds,
# user+sys CPU seconds and minor faults, then the jobs the run attempted and
# CPU milliseconds and minor faults per job. A run is time-boxed, so a faster
# build finishes more jobs in the same wall time: compare the per-job
# figures. A wall-clock gain with flat CPU per job is ambient, not a saving.
# Writes nothing.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    sed -n '2,13p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi

python3 - "$1" "$2" "${3:-9}" <<'PY'
import json, resource, subprocess, sys, time

flowbench, workload, seed = sys.argv[1:4]
start = time.monotonic()
out = subprocess.run(
    [flowbench, "run", "--workload", workload, "--seed", seed, "--trace", "0"],
    check=True, stdout=subprocess.PIPE, text=True,
).stdout
wall = time.monotonic() - start
usage = resource.getrusage(resource.RUSAGE_CHILDREN)
cpu = usage.ru_utime + usage.ru_stime
jobs = json.loads(out.strip().splitlines()[-1])["attempted"]
print(f"{workload} seed {seed}")
print(f"  wall_s          {wall:10.3f}")
print(f"  cpu_s           {cpu:10.3f}   (user {usage.ru_utime:.3f} + sys {usage.ru_stime:.3f})")
print(f"  minor_faults    {usage.ru_minflt:10d}")
print(f"  jobs            {jobs:10d}")
if jobs:
    print(f"  cpu_ms_per_job  {cpu * 1e3 / jobs:10.2f}")
    print(f"  faults_per_job  {usage.ru_minflt / jobs:10.1f}")
PY
