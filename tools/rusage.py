"""Wall time, CPU time and minor faults of one untraced flowbench run.

The one copy of the getrusage(RUSAGE_CHILDREN) accounting: tools/rusage.sh
prints one run's figures, tools/ab.sh adds the per-job figures to every run
of an A/B. Both put this directory on PYTHONPATH and import it.
"""
import json
import resource
import subprocess
import time


def run(flowbench, workload, seed, *extra):
    """Runs `<flowbench> run --workload <workload> --seed <seed> --trace 0`
    plus `extra` arguments and returns its report (the last line it prints,
    parsed) and its usage: wall seconds, user and sys CPU seconds and minor
    faults of the run and every process it spawned. The usage is the
    difference of RUSAGE_CHILDREN across the run, so one caller can measure
    many runs."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.monotonic()
    out = subprocess.run(
        [flowbench, "run", "--workload", workload, "--seed", str(seed), "--trace", "0", *extra],
        check=True, stdout=subprocess.PIPE, text=True,
    ).stdout
    wall = time.monotonic() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    usage = {
        "wall_s": wall,
        "user_s": after.ru_utime - before.ru_utime,
        "sys_s": after.ru_stime - before.ru_stime,
        "minor_faults": after.ru_minflt - before.ru_minflt,
    }
    return json.loads(out.strip().splitlines()[-1]), usage


def per_job(report, usage):
    """CPU milliseconds and minor faults per job the run attempted. A run is
    time-boxed, so a faster build finishes more jobs in the same wall time:
    these, not the run totals, are what two builds compare on. NaN for a run
    that attempted no job."""
    jobs = report["attempted"] or float("nan")
    return {
        "cpu_ms_per_job": (usage["user_s"] + usage["sys_s"]) * 1e3 / jobs,
        "faults_per_job": usage["minor_faults"] / jobs,
    }
