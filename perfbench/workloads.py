"""The benchmark's workloads and their seeded, cached datasets.

Every dataset is made by `svjoint.simulate.generate` and written by
`svjoint.dataio.write_dataset` from the workload seed alone.  Datasets are
cached per (workload, gene count, seed) under ``.perfbench/data`` and their
content hash is verified before each run uses them.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass, replace

import numpy as np

from svjoint import dataio, simulate

# In screen-sparse one gene in this many is expressed; the rest is a
# low-expression background that the count filters remove.
_SCREEN_GENES_PER_EXPRESSED = 20
# detect's default --min-spots-per-gene, passed explicitly on every workload.
MIN_SPOTS_PER_GENE = 100


def _screen_sparse(seed, genes):
    """Expressed genes (half of them SV) followed by a low-expression background.

    Both parts come from one `generate` call each with the same seed and
    shape, so they share coordinates and covariates; only eta differs.  The
    background's narrow eta spread keeps the survivor count the same on
    every seed, so the fit and degree-selection work does not vary by seed.
    """
    expressed = max(genes // _SCREEN_GENES_PER_EXPRESSED, 5)
    shape = dict(M=2, grid=(48, 48), G=genes, pattern="linear_focal", seed=seed)
    # beta0 = 1 (tiers give 0.8 and 0.5) so that every SV gene is called on
    # every seed and F1 does not step with the seed.
    ds, truth = simulate.generate(
        simulate.SimConfig(n_sv=expressed // 2, beta0_override=1.0, **shape)
    )
    low, low_truth = simulate.generate(
        simulate.SimConfig(n_sv=0, eta_dist=(-4.2, 0.5), **shape)
    )
    samples = []
    for s, b in zip(ds.samples, low.samples):
        if not np.array_equal(s.covariates, b.covariates):
            raise RuntimeError("screen-sparse parts drew different covariates")
        samples.append(replace(s, counts=np.vstack([s.counts[:expressed], b.counts[expressed:]])))
    merged = dataio.MultiSampleDataset(samples=samples, gene_ids=ds.gene_ids)
    truth = replace(
        truth,
        sv_flags=np.concatenate([truth.sv_flags[:expressed], low_truth.sv_flags[expressed:]]),
        pattern=truth.pattern[:expressed] + low_truth.pattern[expressed:],
        beta0=np.vstack([truth.beta0[:expressed], low_truth.beta0[expressed:]]),
        eta=np.vstack([truth.eta[:expressed], low_truth.eta[expressed:]]),
        psi=np.vstack([truth.psi[:expressed], low_truth.psi[expressed:]]),
    )
    return merged, truth


def _pool_small(seed, genes):
    # beta0 = 5 puts the focal signal well above what 256 spots can detect;
    # the tier values leave every gene unselected at this size.
    return simulate.generate(simulate.SimConfig(
        M=3, grid=(16, 16), G=genes, n_sv=genes // 5, pattern="focal",
        signal_setting=1, dropout_pi=0.3, seed=seed, beta0_override=5.0,
    ))


@dataclass(frozen=True)
class Workload:
    name: str
    genes: int
    smoke_genes: int
    generate: object
    counts_format: str
    degree: str
    workers: int
    # Spots must express at least genes // spot_divisor genes.
    spot_divisor: int

    def min_genes_per_spot(self, genes):
        return max(genes // self.spot_divisor, 1)

    def detect_args(self, genes, seed):
        return [
            "--degree", self.degree,
            "--workers", str(self.workers),
            "--min-spots-per-gene", str(MIN_SPOTS_PER_GENE),
            "--min-genes-per-spot", str(self.min_genes_per_spot(genes)),
            "--seed", str(seed),
        ]


WORKLOADS = {
    w.name: w
    for w in (
        # Visium-scale triplet input where load, filtering and AIC degree
        # selection (the ZINB fits) do most of the work; 95% of genes go.
        Workload("screen-sparse", genes=300, smoke_genes=120, generate=_screen_sparse,
                 counts_format="triplet", degree="auto", workers=1, spot_divisor=60),
        # Small N: per-iteration constant costs dominate, M = 3 takes the other
        # gamma2 branch, and this is the only workload on the process pool.
        # At 200 genes the spot filter is detect's default of 100.
        Workload("pool-small", genes=200, smoke_genes=20, generate=_pool_small,
                 counts_format="dense", degree="2", workers=2, spot_divisor=2),
    )
}


@dataclass(frozen=True)
class Dataset:
    directory: str
    manifest: str
    truth_ids: tuple
    truth_flags: np.ndarray
    survivors: tuple
    n_bytes: int
    generate_s: float
    cached: bool


def survivors(ds, min_spots_per_gene, min_genes_per_spot):
    """Genes left by detect's filter rule, recomputed here to check its reports.

    Spots expressing fewer than ``min_genes_per_spot`` genes go first; a gene
    then stays when it is expressed in at least ``min_spots_per_gene`` of the
    remaining spots of every sample.
    """
    keep = np.ones(len(ds.gene_ids), dtype=bool)
    for s in ds.samples:
        nonzero = s.counts > 0
        spots = nonzero.sum(axis=0) >= min_genes_per_spot
        keep &= nonzero[:, spots].sum(axis=1) >= min_spots_per_gene
    return tuple(g for g, k in zip(ds.gene_ids, keep) if k)


def _content_hash(directory, files):
    digest = hashlib.sha256()
    for name in sorted(files):
        digest.update(name.encode())
        with open(os.path.join(directory, name), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def _generator_fingerprint(src_dir):
    """Hash of the code that shapes a dataset, so edits invalidate the cache."""
    digest = hashlib.sha256()
    for path in (__file__, os.path.join(src_dir, "svjoint", "simulate.py"),
                 os.path.join(src_dir, "svjoint", "dataio.py")):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def prepare(workload, seed, genes, work_dir, src_dir):
    """Return the workload's dataset for ``seed``, generating it unless cached."""
    directory = os.path.join(work_dir, "data", f"{workload.name}-g{genes}-s{seed}")
    meta_path = os.path.join(directory, "dataset.json")
    spec = {"workload": workload.name, "genes": genes, "seed": seed,
            "code": _generator_fingerprint(src_dir)}
    meta = None
    t0 = time.perf_counter()
    try:
        with open(meta_path) as fh:
            meta = json.load(fh)
        if meta["spec"] != spec or _content_hash(directory, meta["files"]) != meta["sha256"]:
            meta = None
    except (OSError, ValueError, KeyError):
        meta = None
    cached = meta is not None
    if meta is None:
        shutil.rmtree(directory, ignore_errors=True)
        ds, truth = workload.generate(seed, genes)
        dataio.write_dataset(ds, directory, counts_format=workload.counts_format)
        dataio.write_truth(truth, os.path.join(directory, "truth.tsv"))
        files = sorted(os.listdir(directory))
        meta = {
            "spec": spec,
            "files": files,
            "sha256": _content_hash(directory, files),
            "survivors": survivors(ds, MIN_SPOTS_PER_GENE, workload.min_genes_per_spot(genes)),
        }
        with open(meta_path, "w") as fh:
            json.dump(meta, fh)
    n_bytes = sum(
        os.path.getsize(os.path.join(directory, f))
        for f in meta["files"] if f.startswith(("counts_", "coords_", "covariates_", "genes_"))
    )
    _, truth_ids, truth_flags = dataio.read_truth(os.path.join(directory, "truth.tsv"))
    return Dataset(
        directory=directory,
        manifest=os.path.join(directory, "manifest.ini"),
        truth_ids=truth_ids,
        truth_flags=truth_flags,
        survivors=tuple(meta["survivors"]),
        n_bytes=n_bytes,
        generate_s=time.perf_counter() - t0,
        cached=cached,
    )
