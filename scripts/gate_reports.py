"""Detect reports on the benchmark's datasets, for comparing two checkouts.

    python3 scripts/gate_reports.py OUT_DIR [--smoke]

Builds the pool-small and screen-sparse datasets for seeds 1 and 7 with
``perfbench/workloads.py`` (cached under OUT_DIR/data, as the benchmark
caches them) and runs `svjoint detect` on each with the workload's
arguments, one fresh process at a time with BLAS pinned to one thread:
pool-small at --workers 1 and at --workers 2, screen-sparse at its own
worker count.  That gives six reports under OUT_DIR/reports.  Last it
writes OUT_DIR/sha256sums, one line per dataset file and report, so two
checkouts' runs compare with one `diff` of their sha256sums files.
--smoke uses the workloads' smoke gene counts.
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402

SEEDS = (1, 7)
# (workload, --workers): screen-sparse runs at its own count of 1.
RUNS = (("pool-small", 1), ("pool-small", 2), ("screen-sparse", 1))
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out_dir", metavar="OUT_DIR")
    parser.add_argument("--smoke", action="store_true", help="use the smoke gene counts")
    args = parser.parse_args(argv)
    out_dir = os.path.abspath(args.out_dir)
    reports_dir = os.path.join(out_dir, "reports")
    os.makedirs(reports_dir, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=SRC, **BLAS_PIN)
    hashed = []
    for name, workers in RUNS:
        workload = workloads.WORKLOADS[name]
        genes = workload.smoke_genes if args.smoke else workload.genes
        for seed in SEEDS:
            ds = workloads.prepare(workload, seed, genes, out_dir, SRC)
            data_files = sorted(f for f in os.listdir(ds.directory) if f != "dataset.json")
            hashed += [os.path.join(ds.directory, f) for f in data_files]
            report = os.path.join(reports_dir, f"{name}-g{genes}-s{seed}-w{workers}.tsv")
            subprocess.run(
                [sys.executable, "-m", "svjoint.cli", "detect", "--manifest", ds.manifest,
                 "--out", report, *workload.detect_args(genes, seed),
                 # argparse keeps the last --workers.
                 "--workers", str(workers)],
                check=True, env=env,
            )
            hashed.append(report)
    lines = [f"{_sha256(p)}  {os.path.relpath(p, out_dir)}\n" for p in sorted(set(hashed))]
    with open(os.path.join(out_dir, "sha256sums"), "w") as fh:
        fh.writelines(lines)
    print(os.path.join(out_dir, "sha256sums"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
