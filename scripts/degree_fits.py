"""Cold and warm-started ZINB degree fits of `svjoint detect --degree auto`, side by side.

    python3 scripts/degree_fits.py [--genes 20] [--grid 48x48] [--seed 1]
    python3 scripts/degree_fits.py --manifest M.ini [--min-spots-per-gene 100]
                                   [--min-genes-per-spot 1] [--seed 1]

Without --manifest it simulates a small triplet dataset shaped like the
benchmark's screen-sparse workload (2 samples, half of the genes spatially
variable with a linear-focal pattern) in a temporary directory.  The dataset
is loaded and filtered as detect does, and detect's degree-selection gene
subset is drawn from --seed.  `splines.select_degree` then fits degrees
1-4 per sample as detect does, each degree above the lowest starting from
the degree below (the warm chain), and every one of those fits is repeated
from the documented cold start (the cold chain).

It prints one JSON object: per (sample, degree), each chain's row
evaluations (genes passed to `_ZinbBlock.evaluate`, summed over calls),
summed logL and count of failed (None) fits, and the largest relative logL
difference |warm - cold| / max(1, |cold|) over the genes; then the totals
and the selected degree.
"""

import argparse
import json
import os
import sys
import tempfile
from unittest import mock

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from svjoint import cli, dataio, simulate, splines  # noqa: E402

CANDIDATES = (1, 2, 3, 4)


def _chain_summary(fits, evaluations):
    logl = [f[0] for f in fits if f is not None]
    return {"evaluations": evaluations, "logl_sum": float(np.sum(logl)),
            "failed": len(fits) - len(logl)}


def _max_rel_diff(warm, cold):
    """Largest |warm - cold| / max(1, |cold|) over genes; inf where only one failed."""
    worst = 0.0
    for w, c in zip(warm, cold):
        if (w is None) != (c is None):
            return float("inf")
        if w is not None:
            worst = max(worst, abs(w[0] - c[0]) / max(1.0, abs(c[0])))
    return worst


def compare(ds, subset):
    """Per (sample, degree) warm- and cold-chain fits of ``subset``, and the selected degree."""
    evaluations = [0]
    evaluate = splines._ZinbBlock.evaluate

    def counting(block, rows, params):
        evaluations[0] += len(rows)
        return evaluate(block, rows, params)

    zinb_mle = splines.zinb_mle
    warm = []

    def recording(counts, design, **kwargs):
        before = evaluations[0]
        fits = zinb_mle(counts, design, **kwargs)
        warm.append((counts, design, fits, evaluations[0] - before))
        return fits

    rows = []
    with mock.patch.object(splines._ZinbBlock, "evaluate", counting):
        with mock.patch.object(splines, "zinb_mle", recording):
            degree = splines.select_degree(ds, CANDIDATES, subset)
        for i, (counts, design, fits, n_warm) in enumerate(warm):
            before = evaluations[0]
            cold = zinb_mle(counts, design)
            rows.append({
                "sample": ds.samples[i // len(CANDIDATES)].sample_id,
                "degree": design.n_basis,
                "cold": _chain_summary(cold, evaluations[0] - before),
                "warm": _chain_summary(fits, n_warm),
                "max_rel_logl_diff": _max_rel_diff(fits, cold),
            })
    return rows, degree


def run(manifest, min_spots, min_genes, seed):
    ds = dataio.filter_dataset(dataio.load_dataset(dataio.Manifest.read(manifest)),
                               min_spots, min_genes)
    # detect's degree-selection subset for this seed.
    rng = np.random.default_rng(seed)
    subset = rng.choice(ds.n_genes, size=min(cli._DEGREE_SUBSET_SIZE, ds.n_genes),
                        replace=False).tolist()
    rows, degree = compare(ds, subset)
    return {
        "samples": ds.n_samples, "genes": ds.n_genes, "subset": len(subset), "seed": seed,
        "fits": rows,
        "cold_evaluations": sum(r["cold"]["evaluations"] for r in rows),
        "warm_evaluations": sum(r["warm"]["evaluations"] for r in rows),
        "max_rel_logl_diff": max(r["max_rel_logl_diff"] for r in rows),
        "selected_degree": degree,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--manifest", help="dataset to read (default: simulate one)")
    parser.add_argument("--genes", type=int, default=20, help="simulated genes")
    parser.add_argument("--grid", default="48x48", help="simulated grid")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--min-spots-per-gene", type=int, default=100)
    parser.add_argument("--min-genes-per-spot", type=int, default=1)
    args = parser.parse_args(argv)
    filters = args.min_spots_per_gene, args.min_genes_per_spot, args.seed
    if args.manifest:
        report = run(args.manifest, *filters)
    else:
        grid = tuple(int(v) for v in args.grid.lower().split("x"))
        cfg = simulate.SimConfig(M=2, grid=grid, G=args.genes, n_sv=args.genes // 2,
                                 pattern="linear_focal", beta0_override=1.0, seed=args.seed)
        ds, _ = simulate.generate(cfg)
        with tempfile.TemporaryDirectory() as tmp:
            report = run(dataio.write_dataset(ds, tmp, counts_format="triplet"), *filters)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
