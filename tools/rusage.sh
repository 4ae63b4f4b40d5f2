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
# Writes nothing. The accounting lives in tools/rusage.py.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    sed -n '2,13p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi

PYTHONPATH="$(dirname "$0")" PYTHONDONTWRITEBYTECODE=1 python3 - "$1" "$2" "${3:-9}" <<'PY'
import sys
from rusage import per_job, run

flowbench, workload, seed = sys.argv[1:4]
report, usage = run(flowbench, workload, seed)
cpu = usage["user_s"] + usage["sys_s"]
jobs = report["attempted"]
print(f"{workload} seed {seed}")
print(f"  wall_s          {usage['wall_s']:10.3f}")
print(f"  cpu_s           {cpu:10.3f}   (user {usage['user_s']:.3f} + sys {usage['sys_s']:.3f})")
print(f"  minor_faults    {usage['minor_faults']:10d}")
print(f"  jobs            {jobs:10d}")
if jobs:
    job = per_job(report, usage)
    print(f"  cpu_ms_per_job  {job['cpu_ms_per_job']:10.2f}")
    print(f"  faults_per_job  {job['faults_per_job']:10.1f}")
PY
