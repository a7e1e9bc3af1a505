"""Detect reports on the benchmark's datasets, for comparing two checkouts.

    python3 scripts/gate_reports.py OUT_DIR [--smoke] [--against DIR]

Builds the pool-small and screen-sparse datasets for seeds 1 and 7 with
``perfbench/workloads.py`` (cached under OUT_DIR/data, as the benchmark
caches them) and runs `svjoint detect` on each with the workload's
arguments, one fresh process at a time with BLAS pinned to one thread:
pool-small at --workers 1 and at --workers 2, screen-sparse at its own
worker count.  That gives six reports under OUT_DIR/reports.  Last it
writes OUT_DIR/sha256sums, one line per dataset file and report, so two
checkouts' runs compare with one `diff` of their sha256sums files.
--smoke uses the workloads' smoke gene counts.

--against DIR then compares each report, cell by cell, with the report of
the same name under DIR/reports (another checkout's OUT_DIR) and prints
every value that changed with its relative difference.  It exits 1 when
the header lines' integers, the columns or the gene order differ, when a
gene's ``selected``, ``iterations`` or ``converged`` differs, or when any
other value differs by more than 1e-8 relative: values printed with %.10g
may move in their last digits, and no more.
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
# Report cells that must match exactly; every other cell is a float.
EXACT_META = ("degree", "seed", "max_iter", "n_genes", "n_converged", "n_failed")
EXACT_COLUMNS = ("gene_id", "selected", "iterations", "converged")
REL_TOL = 1e-8


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _table(path):
    """(header-line tokens, column names, rows as dicts) of a detect report."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    meta = dict(token.split("=", 1) for token in lines[0][1:].split())
    header = lines[1].split("\t")
    return meta, header, [dict(zip(header, ln.split("\t"))) for ln in lines[2:]]


def compare_reports(path, ref_path):
    """Print each cell of ``path`` that differs from ``ref_path``; return the number of violations."""
    name = os.path.basename(path)
    meta, header, rows = _table(path)
    ref_meta, ref_header, ref_rows = _table(ref_path)
    if header != ref_header or meta.keys() != ref_meta.keys():
        print(f"{name}: columns or header keys differ")
        return 1
    if [r["gene_id"] for r in rows] != [r["gene_id"] for r in ref_rows]:
        print(f"{name}: gene order differs")
        return 1
    cells = [("header", key, meta[key], ref_meta[key], key in EXACT_META) for key in meta]
    cells += [(row["gene_id"], col, row[col], ref[col], col in EXACT_COLUMNS)
              for row, ref in zip(rows, ref_rows) for col in header]
    violations = 0
    for where, col, got, want, exact in cells:
        if got == want:
            continue
        if exact:
            violations += 1
            print(f"{name}: {where} {col}: {want} -> {got} (must match)")
            continue
        rel = abs(float(got) - float(want)) / max(abs(float(want)), 1e-300)
        bad = rel > REL_TOL
        violations += bad
        print(f"{name}: {where} {col}: {want} -> {got} (rel {rel:.2e}{', over 1e-8' if bad else ''})")
    return violations


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out_dir", metavar="OUT_DIR")
    parser.add_argument("--smoke", action="store_true", help="use the smoke gene counts")
    parser.add_argument("--against", metavar="DIR",
                        help="compare the reports with those of an earlier OUT_DIR")
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
    if args.against is None:
        return 0
    reports = sorted(p for p in hashed if p.startswith(reports_dir))
    violations = sum(
        compare_reports(p, os.path.join(args.against, "reports", os.path.basename(p)))
        for p in reports
    )
    print(f"{len(reports)} reports compared with {args.against}: {violations} violations")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
