"""Wall time, CPU time, minor page faults and peak memory of `svjoint detect`.

    python3 scripts/fit_faults.py [--genes 20] [--grid 48x48] [--seed 1] [--out DIR]

Simulates a dataset shaped like the benchmark's screen-sparse workload (2
samples, triplet counts, half of the genes spatially variable with a
linear-focal pattern) and runs `svjoint detect --degree auto` on it in a
fresh Python process, once with --workers 1 and once with --workers 2, with
BLAS pinned to one thread.  It prints one JSON object with each run's wall
time, CPU time, fitting processes, minor page faults and peak memory.  The
faults are `getrusage(RUSAGE_CHILDREN)` differences around the run, so they
include those of the pool's workers, which detect waits for.  The rest is
read inside the detect process once `cli.main` returns.  `cpu_s` is the
user plus system time of detect and its reaped pool workers
(`getrusage` SELF plus CHILDREN), so `cpu_s / wall_s` near 2 shows a run
that kept two CPUs busy.  `processes` is the number of processes that fit
genes: detect itself and each pool worker that returned a fit (a pool is
started only when the genes make more than one block).  `detect_vmhwm_mb`
is detect's VmHWM from /proc/self/status, and `worker_maxrss_mb` the
largest pool worker's `ru_maxrss` from `getrusage(RUSAGE_CHILDREN)` (null
when no worker ran).  Both peaks are null where /proc/self/status is
absent.  Without --out the files go to a temporary directory that is
removed afterwards.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

from svjoint import dataio, simulate  # noqa: E402

BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKERS = (1, 2)
# Runs detect in this process and prints, in one JSON line, its CPU time
# with that of its reaped workers, the number of processes that fit genes
# (each fit is tagged with its process id on the way out of the task), its
# VmHWM and the largest reaped worker's ru_maxrss (both KiB on Linux) in MB.
PEAKS = """
import functools, json, os, resource, sys
from svjoint import cli, selection
task, report, pids = cli._fit_gene_task, selection.build_report, set()
@functools.wraps(task)
def tagged_task(gene_index):
    result = task(gene_index)
    result.pid = os.getpid()
    return result
def build_report(gene_ids, results, *args, **kwargs):
    pids.update(getattr(r, "pid", None) for r in results)
    return report(gene_ids, results, *args, **kwargs)
cli._fit_gene_task, selection.build_report = tagged_task, build_report
code = cli.main(sys.argv[1:])
usage = [resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
peaks = {"cpu_s": sum(u.ru_utime + u.ru_stime for u in usage), "processes": len(pids),
         "detect_vmhwm_mb": None, "worker_maxrss_mb": None}
if os.path.exists("/proc/self/status"):
    with open("/proc/self/status") as fh:
        kib = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    worker = usage[1].ru_maxrss
    peaks.update(detect_vmhwm_mb=kib / 1024, worker_maxrss_mb=worker / 1024 if worker else None)
print(json.dumps(peaks))
sys.exit(code)
"""


def detect(manifest, out, workers, seed):
    """Wall and CPU time, fitting processes, minor page faults and peak memory
    of one detect process and its workers."""
    cmd = [sys.executable, "-c", PEAKS, "detect", "--manifest", manifest,
           "--out", out, "--degree", "auto", "--workers", str(workers), "--seed", str(seed),
           "--min-spots-per-gene", "100", "--min-genes-per-spot", "1"]
    env = dict(os.environ, **BLAS_PIN)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, check=True, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    wall = time.perf_counter() - t0
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    return {"workers": workers, "wall_s": wall, "minor_faults": faults,
            **json.loads(proc.stdout.splitlines()[-1])}


def run(genes, grid, seed, out_dir):
    cfg = simulate.SimConfig(M=2, grid=grid, G=genes, n_sv=genes // 2, pattern="linear_focal",
                             beta0_override=1.0, seed=seed)
    ds, _ = simulate.generate(cfg)
    manifest = dataio.write_dataset(ds, os.path.join(out_dir, "data"), counts_format="triplet")
    report = {"samples": cfg.M, "grid": "x".join(map(str, grid)), "genes": genes, "seed": seed}
    report["runs"] = [
        detect(manifest, os.path.join(out_dir, f"report-w{w}.tsv"), w, seed) for w in WORKERS
    ]
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--genes", type=int, default=20)
    parser.add_argument("--grid", default="48x48")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", help="directory for the dataset and reports (default: temporary)")
    args = parser.parse_args(argv)
    grid = tuple(int(v) for v in args.grid.lower().split("x"))
    if args.out:
        report = run(args.genes, grid, args.seed, args.out)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            report = run(args.genes, grid, args.seed, tmp)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
