"""Cold and warm-started ZINB degree fits of `svjoint detect --degree auto`, side by side.

    python3 scripts/degree_fits.py [--genes 20] [--grid 48x48] [--seed 1] [--against JSON]
    python3 scripts/degree_fits.py --manifest M.ini [--min-spots-per-gene 100]
                                   [--min-genes-per-spot 1] [--seed 1] [--against JSON]

Without --manifest it simulates a small triplet dataset shaped like the
benchmark's screen-sparse workload (2 samples, half of the genes spatially
variable with a linear-focal pattern) in a temporary directory.  The dataset
is loaded and filtered as detect does, and detect's degree-selection gene
subset is taken for --seed (`cli.degree_subset`).  `splines.select_degree`
then fits degrees 1-4 per sample as detect does, each degree above the
lowest starting from the degree below (the warm chain), and stops after the
first sample that votes degree 4; every one of those fits is repeated from
the documented cold start (the cold chain).

It prints one JSON object: per fitted (sample, degree), each chain's row
evaluations (genes passed to `_ZinbBlock.evaluate`, summed over calls),
summed logL and count of failed (None) fits, and the largest relative logL
difference |warm - cold| / max(1, |cold|) over the genes; then the totals,
the number of samples that were fit (`samples_fitted`, below `samples`
when selection stopped early) and the selected degree.

--against JSON then compares that object with one printed by another
checkout on the same arguments.  Every (sample, degree) chain whose
`evaluations`, `logl_sum` or `failed` moved is printed.  It exits 1 if the
dataset's counts, `selected_degree`, `samples_fitted` or any `failed` count
differ, or if any `logl_sum` moves by more than 1e-8 relative.  Its last
line counts the chains compared, those that moved and the violations.
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
# Report keys that must match the reference's, and the largest relative
# move of a chain's summed logL.
EXACT_KEYS = ("samples", "genes", "subset", "seed", "samples_fitted", "selected_degree")
LOGL_REL_TOL = 1e-8


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
    subset = cli.degree_subset(ds.n_genes, seed)
    rows, degree = compare(ds, subset)
    return {
        "samples": ds.n_samples, "samples_fitted": len({r["sample"] for r in rows}),
        "genes": ds.n_genes, "subset": len(subset), "seed": seed,
        "fits": rows,
        "cold_evaluations": sum(r["cold"]["evaluations"] for r in rows),
        "warm_evaluations": sum(r["warm"]["evaluations"] for r in rows),
        "max_rel_logl_diff": max(r["max_rel_logl_diff"] for r in rows),
        "selected_degree": degree,
    }


def _chains(report):
    return {(f["sample"], f["degree"], chain): f[chain]
            for f in report["fits"] for chain in ("warm", "cold")}


def compare_reports(report, ref):
    """Print each key and chain of ``report`` that moved from ``ref``; returns
    the number of violations."""
    violations = 0
    for key in EXACT_KEYS:
        if report[key] != ref[key]:
            print(f"{key}: {ref[key]} -> {report[key]} (must match)")
            violations += 1
    chains, ref_chains = _chains(report), _chains(ref)
    keys = chains.keys() | ref_chains.keys()
    moved = sorted(k for k in keys if chains.get(k) != ref_chains.get(k))
    for key in moved:
        where = "{} degree {} {}".format(*key)
        got, want = chains.get(key), ref_chains.get(key)
        if got is None or want is None:
            print(f"{where}: fit on one side only")
            violations += 1
            continue
        rel = abs(got["logl_sum"] - want["logl_sum"]) / max(1.0, abs(want["logl_sum"]))
        bad = got["failed"] != want["failed"] or rel > LOGL_REL_TOL
        violations += bad
        print(f"{where}: evaluations {want['evaluations']} -> {got['evaluations']}, "
              f"logl_sum {want['logl_sum']!r} -> {got['logl_sum']!r} (rel {rel:.2e}), "
              f"failed {want['failed']} -> {got['failed']}{' (violation)' if bad else ''}")
    print(f"{len(keys)} chains compared: {len(moved)} moved, {violations} violations")
    return violations


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--manifest", help="dataset to read (default: simulate one)")
    parser.add_argument("--genes", type=int, default=20, help="simulated genes")
    parser.add_argument("--grid", default="48x48", help="simulated grid")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--min-spots-per-gene", type=int, default=100)
    parser.add_argument("--min-genes-per-spot", type=int, default=1)
    parser.add_argument("--against", metavar="JSON",
                        help="compare with the output of another checkout's run")
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
    if args.against is None:
        return 0
    with open(args.against) as fh:
        return 1 if compare_reports(report, json.load(fh)) else 0


if __name__ == "__main__":
    sys.exit(main())
