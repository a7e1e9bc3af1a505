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

--against DIR then compares this run with another checkout's OUT_DIR.
First the dataset files: every data line of the two sha256sums files must
match, and each dataset file whose hash differs, or that only one side
has, is printed and counts as a violation.  Then each report, cell by
cell, with the report of the same name under DIR/reports; every value
that changed is printed with its relative difference.  A report's header
lines' integers, columns and gene order, and each gene's ``selected``,
``iterations`` and ``converged`` must match, and any other value may
differ by up to 1e-8 relative: values printed with %.10g may move in
their last digits, and no more.  It exits 1 on any violation.  Its last
line counts the cells that moved in each report and in all (every cell of
a report whose columns or gene order differ), so it reads 0 when no cell
moved.
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


def _data_sums(path):
    """{dataset file: sha256} from the data lines of a sha256sums file."""
    with open(path) as fh:
        pairs = [ln.rstrip("\n").split("  ", 1) for ln in fh]
    return {name: digest for digest, name in pairs if name.startswith("data" + os.sep)}


def compare_data(sums_path, ref_sums_path):
    """Print each dataset file whose sha256 differs between the two files; returns their count."""
    sums, ref = _data_sums(sums_path), _data_sums(ref_sums_path)
    moved = sorted(name for name in sums.keys() | ref.keys() if sums.get(name) != ref.get(name))
    for name in moved:
        print(f"{name}: sha256 {ref.get(name, 'missing')} -> {sums.get(name, 'missing')}")
    print(f"{len(sums.keys() | ref.keys())} dataset files compared: {len(moved)} differ")
    return len(moved)


def compare_reports(path, ref_path):
    """Print each cell of ``path`` that differs from ``ref_path``.

    Returns (violations, cells moved); a report whose columns or gene order
    differ is one violation with every cell moved.
    """
    name = os.path.basename(path)
    meta, header, rows = _table(path)
    ref_meta, ref_header, ref_rows = _table(ref_path)
    n_cells = len(meta) + len(header) * len(rows)
    if header != ref_header or meta.keys() != ref_meta.keys():
        print(f"{name}: columns or header keys differ")
        return 1, n_cells
    if [r["gene_id"] for r in rows] != [r["gene_id"] for r in ref_rows]:
        print(f"{name}: gene order differs")
        return 1, n_cells
    cells = [("header", key, meta[key], ref_meta[key], key in EXACT_META) for key in meta]
    cells += [(row["gene_id"], col, row[col], ref[col], col in EXACT_COLUMNS)
              for row, ref in zip(rows, ref_rows) for col in header]
    violations = moved = 0
    for where, col, got, want, exact in cells:
        if got == want:
            continue
        moved += 1
        if exact:
            violations += 1
            print(f"{name}: {where} {col}: {want} -> {got} (must match)")
            continue
        rel = abs(float(got) - float(want)) / max(abs(float(want)), 1e-300)
        bad = rel > REL_TOL
        violations += bad
        print(f"{name}: {where} {col}: {want} -> {got} (rel {rel:.2e}{', over 1e-8' if bad else ''})")
    return violations, moved


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
    data_moved = compare_data(os.path.join(out_dir, "sha256sums"),
                              os.path.join(args.against, "sha256sums"))
    reports = sorted(p for p in hashed if p.startswith(reports_dir))
    counts = [compare_reports(p, os.path.join(args.against, "reports", os.path.basename(p)))
              for p in reports]
    violations = data_moved + sum(v for v, _ in counts)
    print(f"dataset files and {len(reports)} reports compared with {args.against}: "
          f"{violations} violations")
    moved = ", ".join(f"{os.path.basename(p)} {m}" for p, (_, m) in zip(reports, counts))
    print(f"cells moved: {moved}; {sum(m for _, m in counts)} in all")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
