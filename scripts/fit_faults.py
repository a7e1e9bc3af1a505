"""Wall time and minor page faults of `svjoint detect` on a small simulated dataset.

    python3 scripts/fit_faults.py [--genes 20] [--grid 48x48] [--seed 1] [--out DIR]

Simulates a dataset shaped like the benchmark's screen-sparse workload (2
samples, triplet counts, half of the genes spatially variable with a
linear-focal pattern) and runs `svjoint detect --degree auto` on it in a
fresh Python process, once with --workers 1 and once with --workers 2, with
BLAS pinned to one thread.  It prints one JSON object with each run's wall
time and minor page faults.  The faults are `getrusage(RUSAGE_CHILDREN)`
differences around the run, so they include those of the pool's workers,
which detect waits for.  Without --out the files go to a temporary
directory that is removed afterwards.
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


def detect(manifest, out, workers, seed):
    """Wall time and minor page faults of one detect process and its workers."""
    cmd = [sys.executable, "-m", "svjoint.cli", "detect", "--manifest", manifest,
           "--out", out, "--degree", "auto", "--workers", str(workers), "--seed", str(seed),
           "--min-spots-per-gene", "100", "--min-genes-per-spot", "1"]
    env = dict(os.environ, **BLAS_PIN)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, env=env, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL)
    wall = time.perf_counter() - t0
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    return {"workers": workers, "wall_s": wall, "minor_faults": faults}


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
