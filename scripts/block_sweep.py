"""Fit time per gene and peak memory of `engine.fit_genes` at several block sizes B.

    python3 scripts/block_sweep.py --shape screen-sparse [--blocks 5 8 10 15]
                                   [--genes N] [--seed 1] [--repeats 3] [--out DIR]
    python3 scripts/block_sweep.py --measure MANIFEST --block B --degree D
                                   --min-genes-per-spot K [--repeats 3]

The first form writes one simulated dataset of the named shape and, for
each B, fits its genes in a fresh Python process with BLAS pinned to one
thread.  It prints one JSON object: the shape, its spot count, the genes
fit, the B that ``engine.block_size`` gives it, and one row per B.
Shapes:

- ``screen-sparse`` and ``pool-small``: the benchmark's workloads
  (``perfbench/workloads.py``) at their gene counts and filters, fit at
  the degree `detect` selects on them at seeds 1 and 7 (4) and at the
  workload's degree (2);
- ``scale``: 4 sections of 64 x 64 spots with 32 genes, half of them with
  a ``focal`` effect and 6 covariates, at degree 3 (d = 13).

The second form is that fresh process.  It loads and filters MANIFEST as
`detect` does (at --min-spots-per-gene 100), builds the designs, then fits
every gene in consecutive blocks of B, --repeats times over.  Its JSON row
holds the fit's wall time per gene (best and median of the repeats), the
iterations of all genes, and the process's VmHWM (peak resident set, from
/proc/self/status, so Linux only) after filtering and after the fits.
Without --out the files go to a temporary directory that is removed
afterwards.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from svjoint import dataio, engine, simulate  # noqa: E402
from svjoint.splines import BasisSpec, build_design, normalize_coords  # noqa: E402

import workloads  # noqa: E402

BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_SPOTS_PER_GENE = workloads.MIN_SPOTS_PER_GENE


def _scale(seed, genes):
    return simulate.generate(simulate.SimConfig(
        M=4, grid=(64, 64), G=genes, n_sv=genes // 2, pattern="focal", seed=seed))


def _workload(name, degree):
    w = workloads.WORKLOADS[name]
    return w.generate, w.genes, w.counts_format, degree, w.min_genes_per_spot


# shape -> (generate(seed, genes), genes, counts format, degree, min genes per spot(genes)).
SHAPES = {
    "screen-sparse": _workload("screen-sparse", 4),
    "pool-small": _workload("pool-small", 2),
    "scale": (_scale, 32, "triplet", 3, lambda genes: 1),
}
DEFAULT_BLOCKS = {"screen-sparse": (5, 8, 10, 15), "pool-small": (16, 32), "scale": (1, 2, 4, 8)}


def _vmhwm_mb():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def measure(manifest, block, degree, min_genes_per_spot, repeats):
    ds = dataio.filter_dataset(dataio.load_dataset(dataio.Manifest.read(manifest)),
                               MIN_SPOTS_PER_GENE, min_genes_per_spot)
    designs = [build_design(normalize_coords(s.coords), s.covariates, BasisSpec(degree))
               for s in ds.samples]
    hp = engine.Hyperparameters.default(ds.n_samples, degree)
    row = {"block": block, "genes": ds.n_genes, "load_vmhwm_mb": _vmhwm_mb()}
    times = []
    for _ in range(repeats):
        results = []
        start_s = time.perf_counter()
        for start in range(0, ds.n_genes, block):
            results += engine.fit_genes([s.counts[start:start + block] for s in ds.samples],
                                        designs, hp)
        times.append(time.perf_counter() - start_s)
    per_gene = [1e3 * t / ds.n_genes for t in times]
    row.update(fit_ms_per_gene_min=min(per_gene), fit_ms_per_gene_median=statistics.median(per_gene),
               iterations=sum(r.iterations for r in results), vmhwm_mb=_vmhwm_mb())
    return row


def run(shape, blocks, genes, seed, repeats, out_dir):
    generate, default_genes, counts_format, degree, min_genes = SHAPES[shape]
    genes = genes or default_genes
    ds, _ = generate(seed, genes)
    manifest = dataio.write_dataset(ds, out_dir, counts_format=counts_format)
    n_spots = sum(s.n_spots for s in ds.samples)
    report = {"shape": shape, "seed": seed, "spots": n_spots, "degree": degree,
              "rule_block": engine.block_size(n_spots), "repeats": repeats, "runs": []}
    for block in blocks:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--measure", manifest,
             "--block", str(block), "--degree", str(degree),
             "--min-genes-per-spot", str(min_genes(genes)), "--repeats", str(repeats)],
            check=True, stdout=subprocess.PIPE, text=True, env=dict(os.environ, **BLAS_PIN),
        )
        report["runs"].append(json.loads(proc.stdout))
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--shape", choices=sorted(SHAPES), default="screen-sparse")
    parser.add_argument("--blocks", type=int, nargs="+", help="block sizes (default: by shape)")
    parser.add_argument("--genes", type=int, help="simulated genes (default: by shape)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", help="directory for the dataset files (default: temporary)")
    parser.add_argument("--measure", metavar="MANIFEST",
                        help="fit MANIFEST's genes in this process and print the result")
    parser.add_argument("--block", type=int)
    parser.add_argument("--degree", type=int)
    parser.add_argument("--min-genes-per-spot", type=int)
    args = parser.parse_args(argv)
    if args.measure:
        report = measure(args.measure, args.block, args.degree, args.min_genes_per_spot,
                         args.repeats)
    else:
        blocks = args.blocks or DEFAULT_BLOCKS[args.shape]
        if args.out:
            report = run(args.shape, blocks, args.genes, args.seed, args.repeats, args.out)
        else:
            with tempfile.TemporaryDirectory() as tmp:
                report = run(args.shape, blocks, args.genes, args.seed, args.repeats, tmp)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
