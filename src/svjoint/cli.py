"""Command-line interface: detect, simulate, evaluate, stability."""

from __future__ import annotations

import argparse
import ctypes
import logging
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager, nullcontext
from dataclasses import replace

import numpy as np

from . import dataio, metrics, selection, simulate
# detect fits genes block by block; fit_gene stays importable from here
# because the benchmark's tracer wraps cli.fit_gene.
from .engine import FitOptions, Hyperparameters, block_size, fit_gene, fit_genes  # noqa: F401
from .splines import BasisSpec, build_design, normalize_coords, select_degree

log = logging.getLogger("svjoint")

_DEGREE_SUBSET_SIZE = 50
_FAILURE_BUDGET = 0.01


def degree_subset(n_genes, seed):
    """The genes that ``detect --degree auto`` fits to select the degree.

    Every gene in index order when there are at most ``_DEGREE_SUBSET_SIZE``
    (so ``numpy.random`` is not imported for a draw that would only permute
    them), else that many drawn without replacement from ``seed``.
    """
    if n_genes <= _DEGREE_SUBSET_SIZE:
        return list(range(n_genes))
    rng = np.random.default_rng(seed)
    return rng.choice(n_genes, size=_DEGREE_SUBSET_SIZE, replace=False).tolist()


# Per-process state for the gene-fit worker pool.
_CTX = {}

# glibc's mallopt parameters and the values detect gives them.  A block's
# per-spot temporaries are (B, sum N) float arrays, 180-280 KB on the
# benchmark shapes and about 1 MB at B = 8 and 16k spots, above glibc's
# default 128 KB mmap threshold: each one was a fresh mmap whose pages
# faulted in on first touch, and frees trimmed the heap only for it to
# regrow.  With 16 MB and 32 MB such blocks stay on the heap; the pair keeps
# glibc's own dynamic rule (trim threshold twice the mmap threshold, which
# rises with freed chunks up to 32 MB on 64-bit) and lies inside its range.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MALLOPT_SETTINGS = ((_M_MMAP_THRESHOLD, 16 << 20), (_M_TRIM_THRESHOLD, 32 << 20))


def _libc(name, *argtypes):
    """The C library's int-valued function ``name``, or None where it has none:
    glibc has ``mallopt`` and ``malloc_trim``, macOS neither."""
    try:
        func = getattr(ctypes.CDLL(None), name)
    except (AttributeError, OSError, TypeError):
        return None
    func.argtypes, func.restype = argtypes, ctypes.c_int
    return func


def _keep_temporaries_on_heap():
    """Raise malloc's mmap and trim thresholds for this process (see above)."""
    mallopt = _libc("mallopt", ctypes.c_int, ctypes.c_int)
    if mallopt is not None:
        for param, value in _MALLOPT_SETTINGS:
            mallopt(param, value)


def _cpu_ids(n):
    """One CPU id per fitting process: the allowed CPUs in turn, wrapping
    round (None where the platform has no affinity calls, as on macOS)."""
    allowed = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else [None]
    return [allowed[k % len(allowed)] for k in range(n)]


def _place(cpu):
    """Move this process onto ``cpu``, then allow it every CPU it had.

    A forked process starts on its parent's CPU, and where the kernel does
    not balance load (a cpuset with ``sched_load_balance`` 0) it stays there.
    Restoring the mask leaves the kernel free to move it where it balances.
    Where the call is refused (OSError), nothing is placed; no result moves.
    """
    if cpu is None:
        return
    try:
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {cpu})
        os.sched_setaffinity(0, allowed)
    except OSError:
        pass


def _init_worker(counts, designs, hp, opts, block, cpus=None):
    # detect runs this for itself and in each pool worker.  ``counts`` holds
    # one CsrCounts per sample: a spawn or forkserver worker unpickles only
    # the nonzeros, and each block densifies its genes' rows.  Genes are fit
    # in blocks of ``block`` consecutive indices, a size that depends only on
    # the spot count, so each gene's result is the same in any process and
    # for any worker count.  Finished blocks wait in ``results`` until their
    # genes are asked for.  A pool worker takes its CPU id from the ``cpus``
    # queue; a spawn or forkserver worker does not inherit the parent's
    # malloc settings.
    if cpus is not None:
        _place(cpus.get())
    _keep_temporaries_on_heap()
    for design in designs:
        design.pairs  # built once per process (before a fork, once in all)
    _CTX.clear()
    _CTX.update(counts=counts, designs=designs, hp=hp, opts=opts, results={}, block=block)


def _fit_gene_task(gene_index: int):
    """The fit of one gene; the first request for a gene fits its whole block."""
    results = _CTX["results"]
    if gene_index not in results:
        block = _CTX["block"]
        start = gene_index - gene_index % block
        genes = range(start, min(start + block, _CTX["counts"][0].shape[0]))
        dense = [c[genes.start:genes.stop] for c in _CTX["counts"]]
        results.update(zip(genes, fit_genes(dense, _CTX["designs"], _CTX["hp"], _CTX["opts"])))
    return results.pop(gene_index)


def _start_pool(n, initargs):
    """A pool of ``n - 1`` workers, with each of the ``n`` fitting processes
    (detect first) started on its own CPU."""
    cpus = multiprocessing.SimpleQueue()
    first, *rest = _cpu_ids(n)
    for cpu in rest:
        cpus.put(cpu)
    _place(first)
    # The raised trim threshold keeps freed heap pages resident; return
    # them before the workers fork, so that none starts with them.
    malloc_trim = _libc("malloc_trim", ctypes.c_size_t)
    if malloc_trim is not None:
        malloc_trim(0)
    return ProcessPoolExecutor(
        max_workers=n - 1, initializer=_init_worker, initargs=(*initargs, cpus)
    )


@contextmanager
def _option(flag):
    """Re-raise a ValueError from the block with ``flag`` in front of its message."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _check_out(path):
    """Fail with ``--out`` named unless ``path`` can be written as a file: its
    directory exists and it is not a directory itself.  Creates no file."""
    with _option("--out"):
        if os.path.isdir(path):
            raise ValueError(f"{path} is a directory")
        if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise ValueError(f"the directory of {path} does not exist")


def run_detect(args) -> int:
    _keep_temporaries_on_heap()
    # Option values are checked before any data is read.
    with _option("--max-iter"):
        opts = FitOptions(max_iter=args.max_iter)
    with _option("--tol"):
        opts = replace(opts, elbo_tol=args.tol)
    gamma2 = None
    with _option("--gamma2"):
        if args.gamma2 != "auto":
            gamma2 = Hyperparameters(gamma2=float(args.gamma2)).gamma2
    with _option("--bfdr-level"):
        if args.bfdr_level is not None:
            selection.check_level(args.bfdr_level)
    with _option("--seed"):
        if args.seed < 0:
            raise ValueError(f"must be a non-negative integer, got {args.seed}")
    with _option("--workers"):
        if args.workers < 1:
            raise ValueError(f"must be at least 1, got {args.workers}")
    for flag, value in (("--min-spots-per-gene", args.min_spots_per_gene),
                        ("--min-genes-per-spot", args.min_genes_per_spot)):
        with _option(flag):
            if value < 0:
                raise ValueError(f"must be non-negative, got {value}")
    _check_out(args.out)

    manifest = dataio.Manifest.read(args.manifest)
    ds = dataio.load_dataset(manifest)
    log.info(
        "loaded %d samples, %d shared genes", ds.n_samples, ds.n_genes
    )
    ds = dataio.filter_dataset(ds, args.min_spots_per_gene, args.min_genes_per_spot)
    log.info("after filtering: %d genes", ds.n_genes)

    if args.degree == "auto":
        degree = select_degree(ds, (1, 2, 3, 4), degree_subset(ds.n_genes, args.seed))
        log.info("selected spline degree %d by AIC", degree)
    else:
        degree = int(args.degree)

    hp = Hyperparameters.default(ds.n_samples, degree, gamma2=gamma2)
    spec = BasisSpec(degree)
    designs = [
        build_design(normalize_coords(s.coords), s.covariates, spec) for s in ds.samples
    ]
    counts = [s.counts for s in ds.samples]

    # Every process cuts the genes into blocks of this size.
    block = block_size(sum(d.matrix.shape[0] for d in designs))
    # n processes fit, and never more than there are blocks: detect fits
    # blocks 0, n, 2n, ... itself while a pool of n - 1 workers fits the
    # others, one pool task per block.  Only the last block can be short, so
    # chunks of ``block`` pooled genes are whole blocks.
    n = min(args.workers, -(-ds.n_genes // block))
    own = [i for i in range(ds.n_genes) if i // block % n == 0]
    pooled = [i for i in range(ds.n_genes) if i // block % n]
    initargs = (counts, designs, hp, opts, block)
    _init_worker(*initargs)
    try:
        with _start_pool(n, initargs) if n > 1 else nullcontext() as pool:
            # The pool's tasks are all submitted before detect fits its own.
            pending = pool.map(_fit_gene_task, pooled, chunksize=block) if pool else ()
            fits = {i: _fit_gene_task(i) for i in own}
            fits.update(zip(pooled, pending))
    except BrokenProcessPool as exc:
        log.error("a gene-fit worker process died; no report written: %s", exc)
        return 1
    results = [fits[i] for i in range(ds.n_genes)]

    n_failed = 0
    for gid, res in zip(ds.gene_ids, results):
        if res.failure is not None:
            n_failed += 1
            log.warning("gene %s failed: %s", gid, res.failure)
    meta = {
        "degree": degree,
        "gamma2": hp.gamma2,
        "seed": args.seed,
        "max_iter": args.max_iter,
        "tol": args.tol,
    }
    report = selection.build_report(ds.gene_ids, results, bfdr_level=args.bfdr_level, meta=meta)
    dataio.write_report(report, args.out)
    n_sel = len(report.selected_ids)
    log.info(
        "wrote %s: %d/%d genes selected (u0=%.6g), %d failed",
        args.out, n_sel, ds.n_genes, report.threshold_u0, n_failed,
    )
    if n_failed > _FAILURE_BUDGET * ds.n_genes:
        log.error("more than %.0f%% of genes failed", 100 * _FAILURE_BUDGET)
        return 1
    return 0


def run_simulate(args) -> int:
    # Each flag meets SimConfig's rules before generating, --genes and
    # --pattern before --sv-genes.
    cfg = simulate.SimConfig(n_sv=0)
    with _option("--grid"):
        cfg = replace(cfg, grid=tuple(int(v) for v in args.grid.lower().split("x")))
    for flag, name, value in (
        ("--samples", "M", args.samples), ("--genes", "G", args.genes),
        ("--pattern", "pattern", args.pattern), ("--sv-genes", "n_sv", args.sv_genes),
        ("--setting", "signal_setting", args.setting), ("--dropout", "dropout_pi", args.dropout),
        ("--seed", "seed", args.seed), ("--beta0", "beta0_override", args.beta0),
    ):
        with _option(flag):
            cfg = replace(cfg, **{name: value})
    # Every other field was checked above: generate's only ValueError is its
    # check that the spatial effects of beta0 are finite.
    with _option("--beta0"):
        dataset, truth = simulate.generate(cfg)
    manifest_path = dataio.write_dataset(dataset, args.out, counts_format=args.counts_format)
    truth_path = os.path.join(args.out, "truth.tsv")
    dataio.write_truth(truth, truth_path)
    log.info("wrote dataset under %s (manifest %s)", args.out, manifest_path)
    return 0


def run_evaluate(args) -> int:
    _check_out(args.out)
    meta, rows = dataio.read_report(args.report)
    truth_meta, gene_ids, sv_flags = dataio.read_truth(args.truth)
    report_genes = {r["gene_id"] for r in rows}
    if report_genes - set(gene_ids):
        raise dataio.DataError("report contains genes absent from the ground truth")
    selected = {r["gene_id"] for r in rows if r["selected"]}
    # Genes filtered out before fitting count as unselected.
    conf = metrics.confusion(selected, gene_ids, sv_flags)
    tpr, fpr, f1 = metrics.metrics(conf)
    dataio.write_table(
        args.out, ("seed", "setting", "pattern", "dropout", "tpr", "fpr", "f1"),
        [[str(truth_meta.get(k, "NA")) for k in ("seed", "setting", "pattern", "dropout")]
         + ["%.10g" % v for v in (tpr, fpr, f1)]],
    )
    log.info("tpr=%.4f fpr=%.4f f1=%.4f -> %s", tpr, fpr, f1, args.out)
    return 0


def run_stability(args) -> int:
    _check_out(args.out)
    _, rows_a = dataio.read_report(args.report)
    _, rows_b = dataio.read_report(args.report2)
    sel_a = {r["gene_id"] for r in rows_a if r["selected"]}
    sel_b = {r["gene_id"] for r in rows_b if r["selected"]}
    value = metrics.jaccard(sel_a, sel_b)
    dataio.write_table(
        args.out, ("n_selected_a", "n_selected_b", "jaccard"),
        [(str(len(sel_a)), str(len(sel_b)), "%.10g" % value)],
    )
    log.info("jaccard=%.4f -> %s", value, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svjoint",
        description="Joint multi-sample detection of spatially variable genes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_det = sub.add_parser("detect", help="fit all genes and write a detection report")
    p_det.add_argument("--manifest", required=True)
    p_det.add_argument("--out", required=True)
    p_det.add_argument("--degree", default="auto", choices=["auto", "1", "2", "3", "4"])
    p_det.add_argument("--gamma2", default="auto")
    p_det.add_argument("--bfdr-level", type=float, default=None, dest="bfdr_level")
    p_det.add_argument("--max-iter", type=int, default=500, dest="max_iter")
    p_det.add_argument("--tol", type=float, default=1e-2)
    p_det.add_argument("--workers", type=int, default=1)
    p_det.add_argument("--seed", type=int, default=0)
    p_det.add_argument(
        "--min-spots-per-gene", type=int, default=100, dest="min_spots_per_gene"
    )
    p_det.add_argument(
        "--min-genes-per-spot", type=int, default=100, dest="min_genes_per_spot"
    )
    p_det.set_defaults(func=run_detect)

    p_sim = sub.add_parser("simulate", help="generate a synthetic dataset")
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--setting", type=int, default=1, choices=[1, 2, 3, 4])
    p_sim.add_argument("--pattern", default="linear", choices=list(simulate.PATTERN_KINDS))
    p_sim.add_argument("--dropout", type=float, default=0.3)
    p_sim.add_argument("--grid", default="32x32")
    p_sim.add_argument("--genes", type=int, default=5000)
    p_sim.add_argument("--sv-genes", type=int, default=500, dest="sv_genes")
    p_sim.add_argument("--samples", type=int, default=4)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--beta0", type=float, default=None)
    p_sim.add_argument(
        "--counts-format", default="dense", choices=["dense", "triplet"],
        dest="counts_format",
    )
    p_sim.set_defaults(func=run_simulate)

    p_eval = sub.add_parser("evaluate", help="score a report against ground truth")
    p_eval.add_argument("--report", required=True)
    p_eval.add_argument("--truth", required=True)
    p_eval.add_argument("--out", required=True)
    p_eval.set_defaults(func=run_evaluate)

    p_stab = sub.add_parser("stability", help="Jaccard overlap of two reports")
    p_stab.add_argument("--report", required=True)
    p_stab.add_argument("--report2", required=True)
    p_stab.add_argument("--out", required=True)
    p_stab.set_defaults(func=run_stability)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (dataio.DataError, ValueError, OSError) as exc:
        log.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
