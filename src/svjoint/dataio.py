"""Load, validate, filter, and persist multi-sample spatial expression data.

A dataset is described by a manifest: an INI-style text file with one
section per sample naming the counts, coordinates, and covariates files.
Counts come either as dense TSV (genes as rows, header = spot ids) or as a
1-based sparse triplet file ("gene_index spot_index value" lines under a
"G N" dimension header, with gene ids in a sidecar file and spot indices
referring to coordinate-file row order).

Counts are held from file to fit as compressed sparse rows (`CsrCounts`),
validated once when a sample is built from files or from a dense array;
gene and spot selection work on the sparse arrays.
"""

from __future__ import annotations

import configparser
import contextlib
import itertools
import math
import os
import warnings
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "DataError",
    "CsrCounts",
    "SpatialSample",
    "MultiSampleDataset",
    "ManifestEntry",
    "Manifest",
    "load_dataset",
    "filter_dataset",
    "write_dataset",
    "write_report",
    "read_report",
    "read_truth",
    "write_truth",
]

_FLOAT_FMT = "%.17g"
# Rows of a TSV table parsed at a time, and of a dense counts TSV written at a time.
_BLOCK_ROWS = 256


class DataError(ValueError):
    """Raised for malformed or inconsistent dataset files."""


@dataclass(frozen=True, eq=False)
class CsrCounts:
    """Non-negative integer counts of G genes at N spots, as compressed sparse rows.

    Gene g's positive counts are ``data[indptr[g]:indptr[g + 1]]``, at the
    ascending spots ``indices[indptr[g]:indptr[g + 1]]``; zeros are not
    stored.  The constructor trusts its arrays: samples get them from
    `SpatialSample`'s validation, from selections of validated counts, or
    from `simulate.generate`, which builds them canonical gene by gene.

    Indexing by gene (an int, a slice, an index list or a boolean mask)
    returns dense int64 rows, as indexing a (G, N) array would, so
    ``counts[g]`` is gene g's dense count vector.  ``np.asarray(counts)``
    densifies the whole matrix.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    n_spots: int

    def __post_init__(self):
        for name, dtype in (("indptr", np.int64), ("indices", np.int32), ("data", np.int64)):
            arr = np.asarray(getattr(self, name), dtype=dtype)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def shape(self) -> tuple:
        return (len(self.indptr) - 1, self.n_spots)

    def take_genes(self, rows) -> "CsrCounts":
        """The counts of the genes ``rows`` (an index array), in that order."""
        rows = np.asarray(rows, dtype=np.intp)
        lengths = np.diff(self.indptr)[rows]
        indptr = np.concatenate(([0], np.cumsum(lengths)))
        entries = np.repeat(self.indptr[rows] - indptr[:-1], lengths) + np.arange(indptr[-1])
        return CsrCounts(indptr, self.indices[entries], self.data[entries], self.n_spots)

    def take_spots(self, keep) -> "CsrCounts":
        """The counts at the spots where the boolean mask ``keep`` is set."""
        kept = keep[self.indices]
        position = np.cumsum(keep) - 1
        indptr = np.concatenate(([0], np.cumsum(kept)))[self.indptr]
        return CsrCounts(indptr, position[self.indices[kept]], self.data[kept], int(keep.sum()))

    def __getitem__(self, genes):
        rows = np.arange(self.shape[0])[genes]
        block = self.take_genes(rows.reshape(-1))
        dense = np.zeros((len(block.indptr) - 1, self.n_spots), dtype=np.int64)
        dense[np.repeat(np.arange(len(dense)), np.diff(block.indptr)), block.indices] = block.data
        return dense.reshape(rows.shape + (self.n_spots,))

    def __array__(self, dtype=None, copy=None):
        dense = self[:]
        return dense if dtype is None else dense.astype(dtype, copy=False)

    def __gt__(self, other):
        """Elementwise on the dense matrix, for array code that tests ``counts > 0``."""
        return np.asarray(self) > other


def _csr_counts(sample_id, gene_ids, spot_ids, keys, values) -> CsrCounts:
    """Validated counts from ``values`` at the ascending, distinct keys gene * N + spot.

    A value that is not a non-negative integer is a DataError naming its
    sample, gene and spot; zero values are dropped.
    """
    n = len(spot_ids)
    # A NaN, infinite or fractional value does not survive the cast intact.
    with np.errstate(invalid="ignore"):
        data = values.astype(np.int64)
    bad = (data < 0) | (data != values)
    if bad.any():
        k = int(np.argmax(bad))
        g, s = divmod(int(keys[k]), n)
        raise DataError(
            f"sample {sample_id}: count {values[k]} of gene "
            f"{gene_ids[g]} at spot {spot_ids[s]} is not a non-negative integer"
        )
    positive = data > 0
    gene, spot = np.divmod(keys[positive], n)
    indptr = np.searchsorted(gene, np.arange(len(gene_ids) + 1))
    return CsrCounts(indptr, spot, data[positive], n)


@dataclass
class SpatialSample:
    """One tissue section: counts (genes x spots), coordinates, covariates.

    ``counts`` may be given as a dense (genes x spots) array, which is
    validated and stored as `CsrCounts`, or as `CsrCounts`, which is taken
    as already validated.
    """

    sample_id: str
    counts: CsrCounts
    coords: np.ndarray
    covariates: np.ndarray
    spot_ids: tuple
    gene_ids: tuple
    covariate_names: tuple = ()

    def __post_init__(self):
        dense = None if isinstance(self.counts, CsrCounts) else np.asarray(self.counts)
        shape = self.counts.shape if dense is None else dense.shape
        self.coords = np.asarray(self.coords, dtype=float)
        self.covariates = np.asarray(self.covariates, dtype=float)
        self.spot_ids = tuple(self.spot_ids)
        self.gene_ids = tuple(self.gene_ids)
        self.covariate_names = tuple(self.covariate_names)
        n = len(self.spot_ids)
        if len(set(self.spot_ids)) != n:
            raise DataError(f"sample {self.sample_id}: duplicate spot ids")
        if len(set(self.gene_ids)) != len(self.gene_ids):
            raise DataError(f"sample {self.sample_id}: duplicate gene ids")
        if shape != (len(self.gene_ids), n):
            raise DataError(
                f"sample {self.sample_id}: counts shape {shape} does not "
                f"match {len(self.gene_ids)} genes x {n} spots"
            )
        if self.coords.shape != (n, 2):
            raise DataError(f"sample {self.sample_id}: coords must be {n} x 2")
        if self.covariates.ndim != 2 or self.covariates.shape[0] != n:
            raise DataError(f"sample {self.sample_id}: covariates must have {n} rows")
        if not self.covariate_names:
            self.covariate_names = tuple(
                f"x{j + 1}" for j in range(self.covariates.shape[1])
            )
        if len(self.covariate_names) != self.covariates.shape[1]:
            raise DataError(f"sample {self.sample_id}: covariate name count mismatch")
        if dense is not None:
            keys = np.flatnonzero(dense)
            self.counts = _csr_counts(
                self.sample_id, self.gene_ids, self.spot_ids, keys, dense.reshape(-1)[keys]
            )
        if not np.all(np.isfinite(self.coords)):
            raise DataError(f"sample {self.sample_id}: non-finite coordinate")
        if not np.all(np.isfinite(self.covariates)):
            raise DataError(f"sample {self.sample_id}: non-finite covariate")
        for arr in (self.coords, self.covariates):
            arr.setflags(write=False)

    @property
    def n_spots(self) -> int:
        return len(self.spot_ids)


@dataclass
class MultiSampleDataset:
    """Samples aligned to a shared gene list (every counts row order matches)."""

    samples: list
    gene_ids: tuple

    def __post_init__(self):
        self.gene_ids = tuple(self.gene_ids)
        if not self.samples:
            raise DataError("dataset needs at least one sample")
        if not self.gene_ids:
            raise DataError("dataset needs at least one gene")
        for s in self.samples:
            if s.gene_ids != self.gene_ids:
                raise DataError(f"sample {s.sample_id} gene axis not aligned")

    @property
    def n_samples(self) -> int:
        return len(self.samples)

    @property
    def n_genes(self) -> int:
        return len(self.gene_ids)


@dataclass(frozen=True)
class ManifestEntry:
    sample_id: str
    counts: str
    coords: str
    covariates: str
    genes: str | None = None
    counts_format: str = "auto"


@dataclass(frozen=True)
class Manifest:
    entries: tuple
    base_dir: str = "."

    def __post_init__(self):
        if not self.entries:
            raise DataError("manifest lists no samples")
        ids = [e.sample_id for e in self.entries]
        if len(set(ids)) != len(ids):
            raise DataError("manifest sample ids must be unique")
        for e in self.entries:
            for path in (e.counts, e.coords, e.covariates):
                if not path:
                    raise DataError(f"sample {e.sample_id}: empty path in manifest")

    @classmethod
    def read(cls, path) -> "Manifest":
        # No interpolation: '%' is a legal filename character.
        parser = configparser.ConfigParser(interpolation=None)
        try:
            with _open_text(path) as fh:
                parser.read_file(fh)
        except OSError:
            raise DataError(f"manifest not found or unreadable: {path}") from None
        except configparser.Error as exc:
            raise DataError(f"manifest {path}: {exc}") from exc
        entries = []
        for section in parser.sections():
            sec = parser[section]
            for key in ("counts", "coords", "covariates"):
                if key not in sec:
                    raise DataError(f"manifest section [{section}] missing '{key}'")
            entries.append(
                ManifestEntry(
                    sample_id=section,
                    counts=sec["counts"],
                    coords=sec["coords"],
                    covariates=sec["covariates"],
                    genes=sec.get("genes"),
                    counts_format=sec.get("counts_format", "auto"),
                )
            )
        return cls(entries=tuple(entries), base_dir=os.path.dirname(os.path.abspath(path)))

    def write(self, path):
        parser = configparser.ConfigParser(interpolation=None)
        for e in self.entries:
            parser[e.sample_id] = {
                "counts": e.counts,
                "coords": e.coords,
                "covariates": e.covariates,
            }
            if e.genes:
                parser[e.sample_id]["genes"] = e.genes
            if e.counts_format != "auto":
                parser[e.sample_id]["counts_format"] = e.counts_format
        with open(path, "w") as fh:
            parser.write(fh)


@contextlib.contextmanager
def _open_text(path):
    """Open a text file to read; undecodable text is a DataError naming the file."""
    try:
        with open(path) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not valid {exc.encoding} text ({exc.reason})") from exc


def _resolve(base_dir, path):
    full = path if os.path.isabs(path) else os.path.join(base_dir, path)
    if not os.path.exists(full):
        raise DataError(f"file not found: {full}")
    return full


def _table_blocks(path, n_values=None):
    """The header tokens, then (row ids, values) blocks of a TSV table.

    The table is a header row, then rows of an id and numbers; blank lines
    are skipped.  It is parsed ``_BLOCK_ROWS`` rows at a time, into float
    arrays of each row's first ``n_values`` numbers (all of them by
    default).  A row whose field count differs from the header's, or a
    number that does not parse, is a DataError naming the file.
    """
    with _open_text(path) as fh:
        lines = (ln.rstrip("\n") for ln in fh if ln.strip())
        header = next(lines, None)
        if header is None:
            raise DataError(f"empty file: {path}")
        header = header.split("\t")
        yield header
        n = len(header) - 1
        usecols = range(1, 1 + (n if n_values is None else n_values))
        while block := list(itertools.islice(lines, _BLOCK_ROWS)):
            if any(ln.count("\t") != n for ln in block):
                raise DataError(f"ragged row in {path}")
            try:
                values = np.loadtxt(block, delimiter="\t", usecols=usecols, comments=None, ndmin=2)
            except ValueError as exc:
                raise DataError(f"{path}: cannot parse number ({exc})") from exc
            yield [ln.split("\t", 1)[0] for ln in block], values


def _read_table(path, first, n_values):
    """Header, row ids and values of a whole table (see ``_table_blocks``) headed by ``first``."""
    blocks = _table_blocks(path, n_values)
    header = next(blocks)
    if header[: len(first)] != list(first):
        raise DataError(f"{path}: expected columns starting {first}, got {header[:3]}")
    ids, values = [], [np.zeros((0, len(header) - 1 if n_values is None else n_values))]
    for block_ids, block_values in blocks:
        ids += block_ids
        values.append(block_values)
    return header, ids, np.concatenate(values)


def _sniff_counts_format(path):
    """The counts format: triplet when the first non-blank line is a 'G N' header."""
    with _open_text(path) as fh:
        tokens = next((ln.split() for ln in fh if ln.strip()), [])
    if len(tokens) == 2 and all(t.isdigit() for t in tokens):
        return "triplet"
    return "dense"


def _load_counts_dense(path):
    """Gene ids, spot ids and nonzero (gene, column, value) entries of a dense counts TSV."""
    blocks = _table_blocks(path)
    spot_ids = next(blocks)[1:]
    if not spot_ids:
        raise DataError(f"{path}: dense counts file lists no spots")
    gene_ids = []
    genes, cols, values = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)], [np.zeros(0)]
    for ids, table in blocks:
        gene, col = np.nonzero(table)
        genes.append(gene + len(gene_ids))
        cols.append(col)
        values.append(table[gene, col])
        gene_ids += ids
    return gene_ids, spot_ids, np.concatenate(genes), np.concatenate(cols), np.concatenate(values)


def _load_counts_triplet(path, gene_ids, n_spots):
    """0-based (gene, spot, value) entries of a triplet counts file, in file order."""
    with _open_text(path) as fh:
        skip, dims = next(((i, ln.split()) for i, ln in enumerate(fh, 1) if ln.strip()), (0, []))
        if len(dims) != 2 or not all(d.isdigit() for d in dims):
            raise DataError(f"{path}: triplet file needs a 'G N' dimension header")
        n_genes, n = int(dims[0]), int(dims[1])
        if n_genes != len(gene_ids):
            raise DataError(f"{path}: header says {n_genes} genes, sidecar lists {len(gene_ids)}")
        if n != n_spots:
            raise DataError(f"{path}: header says {n} spots, coords file lists {n_spots}")
        try:
            # Given the path, not the open file, loadtxt reads in chunks
            # instead of line by line.
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                table = np.loadtxt(path, comments=None, ndmin=2, skiprows=skip)
        except ValueError as exc:
            raise DataError(f"{path}: malformed triplet line ({exc})") from exc
    if not table.size:
        table = np.zeros((0, 3))
    if table.shape[1] != 3:
        raise DataError(f"{path}: triplet lines have {table.shape[1]} fields, need 3")
    gene, spot, value = table.T
    ok = (gene == np.rint(gene)) & (spot == np.rint(spot))
    ok &= (gene >= 1) & (gene <= n_genes) & (spot >= 1) & (spot <= n)
    if not ok.all():
        # Line 0 of the non-blank lines is the header.
        line = _nonblank_lines(path)[1 + int(np.argmin(ok))][1].strip()
        raise DataError(f"{path}: triplet index out of range in {line!r}")
    return gene.astype(np.int64) - 1, spot.astype(np.int64) - 1, value


def _load_sample(entry: ManifestEntry, base_dir) -> SpatialSample:
    coords_path = _resolve(base_dir, entry.coords)
    covs_path = _resolve(base_dir, entry.covariates)
    counts_path = _resolve(base_dir, entry.counts)
    _, spot_ids, coords = _read_table(coords_path, ("spot_id", "s1", "s2"), 2)
    cov_header, cov_spots, covariates = _read_table(covs_path, ("spot_id",), None)

    fmt = entry.counts_format
    if fmt == "auto":
        fmt = _sniff_counts_format(counts_path)
    if fmt == "triplet":
        if not entry.genes:
            raise DataError(
                f"sample {entry.sample_id}: triplet counts need a 'genes' sidecar"
            )
        genes_path = _resolve(base_dir, entry.genes)
        with _open_text(genes_path) as fh:
            gene_ids = [ln.strip() for ln in fh if ln.strip()]
        gene, col, value = _load_counts_triplet(counts_path, gene_ids, len(spot_ids))
        count_spots = list(spot_ids)
    elif fmt == "dense":
        gene_ids, count_spots, gene, col, value = _load_counts_dense(counts_path)
    else:
        raise DataError(f"unknown counts_format {fmt!r}")

    # Canonical spot order: the coordinates file row order.
    perms = []
    for ids in (count_spots, cov_spots):
        row = {s: i for i, s in enumerate(ids)}
        if len(row) != len(ids) or row.keys() != set(spot_ids):
            raise DataError(
                f"sample {entry.sample_id}: spot ids disagree across files "
                f"(offending ids: {sorted(row.keys() ^ set(spot_ids))[:5]})"
            )
        perms.append([row[s] for s in spot_ids])
    count_perm, cov_perm = perms
    n = len(spot_ids)
    spot_of_col = np.empty(n, dtype=np.int64)
    spot_of_col[count_perm] = np.arange(n)
    keys = gene * n + spot_of_col[col]
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    if np.any(keys[1:] == keys[:-1]):
        raise DataError(f"{counts_path}: a (gene, spot) pair is listed twice")
    return SpatialSample(
        sample_id=entry.sample_id,
        counts=_csr_counts(entry.sample_id, gene_ids, spot_ids, keys, value[order]),
        coords=coords,
        covariates=covariates[cov_perm],
        spot_ids=spot_ids,
        gene_ids=gene_ids,
        covariate_names=cov_header[1:],
    )


def load_dataset(manifest: Manifest) -> MultiSampleDataset:
    """Load every sample and align all of them to the shared gene list.

    The shared list is the intersection of the samples' gene lists, in the
    order they appear in the first sample.
    """
    samples = [_load_sample(e, manifest.base_dir) for e in manifest.entries]
    common = set(samples[0].gene_ids)
    for s in samples[1:]:
        common &= set(s.gene_ids)
    gene_ids = tuple(g for g in samples[0].gene_ids if g in common)
    if not gene_ids:
        raise DataError("no genes shared by all samples")
    aligned = []
    for s in samples:
        index = {g: i for i, g in enumerate(s.gene_ids)}
        rows = [index[g] for g in gene_ids]
        aligned.append(replace(s, counts=s.counts.take_genes(rows), gene_ids=gene_ids))
    return MultiSampleDataset(samples=aligned, gene_ids=gene_ids)


def filter_dataset(
    ds: MultiSampleDataset, min_spots_per_gene: int, min_genes_per_spot: int
) -> MultiSampleDataset:
    """One filtering pass: drop sparse spots, then genes sparse in any sample.

    A spot is kept when it expresses at least ``min_genes_per_spot`` genes;
    afterwards a gene is kept when it is expressed (count > 0) in at least
    ``min_spots_per_gene`` spots in every sample.
    """
    if min_spots_per_gene < 0 or min_genes_per_spot < 0:
        raise ValueError("filter thresholds must be non-negative")
    trimmed = []
    for s in ds.samples:
        # Only positive counts are stored, so an entry is an expressing spot.
        genes_per_spot = np.bincount(s.counts.indices, minlength=s.n_spots)
        keep = genes_per_spot >= min_genes_per_spot
        if not keep.any():
            raise DataError(f"sample {s.sample_id}: all spots removed by filtering")
        trimmed.append(
            replace(
                s,
                counts=s.counts.take_spots(keep),
                coords=s.coords[keep],
                covariates=s.covariates[keep],
                spot_ids=tuple(s.spot_ids[i] for i in np.flatnonzero(keep)),
            )
        )
    keep_gene = np.ones(len(ds.gene_ids), dtype=bool)
    for s in trimmed:
        keep_gene &= np.diff(s.counts.indptr) >= min_spots_per_gene
    if not keep_gene.any():
        raise DataError("all genes removed by filtering")
    rows = np.flatnonzero(keep_gene)
    gene_ids = tuple(ds.gene_ids[i] for i in rows)
    final = [replace(s, counts=s.counts.take_genes(rows), gene_ids=gene_ids) for s in trimmed]
    return MultiSampleDataset(samples=final, gene_ids=gene_ids)


# ---------------------------------------------------------------------------
# Writers (datasets, detection reports, simulation ground truth)
# ---------------------------------------------------------------------------


def write_dataset(ds: MultiSampleDataset, out_dir, counts_format: str = "dense") -> str:
    """Write every sample in the manifest formats; returns the manifest path."""
    if counts_format not in ("dense", "triplet"):
        raise ValueError(f"unknown counts_format {counts_format!r}")
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    for s in ds.samples:
        counts_name = f"counts_{s.sample_id}.tsv"
        coords_name = f"coords_{s.sample_id}.tsv"
        covs_name = f"covariates_{s.sample_id}.tsv"
        genes_name = None
        with open(os.path.join(out_dir, coords_name), "w") as fh:
            fh.write("spot_id\ts1\ts2\n")
            for sid, (s1, s2) in zip(s.spot_ids, s.coords):
                fh.write(f"{sid}\t{_FLOAT_FMT % s1}\t{_FLOAT_FMT % s2}\n")
        with open(os.path.join(out_dir, covs_name), "w") as fh:
            fh.write("spot_id\t" + "\t".join(s.covariate_names) + "\n")
            for sid, row in zip(s.spot_ids, s.covariates):
                fh.write(sid + "\t" + "\t".join(_FLOAT_FMT % v for v in row) + "\n")
        counts_path = os.path.join(out_dir, counts_name)
        counts = s.counts
        if counts_format == "dense":
            with open(counts_path, "w") as fh:
                fh.write("gene_id\t" + "\t".join(s.spot_ids) + "\n")
                for start in range(0, len(s.gene_ids), _BLOCK_ROWS):
                    stop = start + _BLOCK_ROWS
                    for gid, row in zip(s.gene_ids[start:stop], counts[start:stop].tolist()):
                        fh.write(gid + "\t" + "\t".join(map(str, row)) + "\n")
        else:
            genes_name = f"genes_{s.sample_id}.txt"
            with open(os.path.join(out_dir, genes_name), "w") as fh:
                fh.write("\n".join(s.gene_ids) + "\n")
            gene = np.repeat(np.arange(1, len(s.gene_ids) + 1), np.diff(counts.indptr))
            with open(counts_path, "w") as fh:
                fh.write(f"{len(s.gene_ids)} {s.n_spots}\n")
                fh.writelines(map(
                    "{} {} {}\n".format, gene.tolist(), (counts.indices + 1).tolist(),
                    counts.data.tolist(),
                ))
        entries.append(
            ManifestEntry(
                sample_id=s.sample_id,
                counts=counts_name,
                coords=coords_name,
                covariates=covs_name,
                genes=genes_name,
                counts_format=counts_format,
            )
        )
    manifest = Manifest(entries=tuple(entries), base_dir=str(out_dir))
    manifest_path = os.path.join(out_dir, "manifest.ini")
    manifest.write(manifest_path)
    return manifest_path


def write_report(report, path):
    """Write a detection report as TSV with a '#'-prefixed metadata header."""
    decisions = report.decisions
    n_samples = report.alpha.shape[1] if report.alpha.size else 0
    meta = dict(report.meta)
    meta.setdefault("bfdr_level", report.bfdr_level)
    meta.setdefault("u0", report.threshold_u0)
    meta_str = " ".join(f"{k}={_fmt_value(v)}" for k, v in meta.items())
    alpha_cols = [f"alpha_m{m + 1}_k{k + 1}" for m in range(n_samples) for k in (0, 1)]
    columns = (
        ["gene_id", "e_u1", "e_u2", "u_tilde", "selected"]
        + alpha_cols
        + ["iterations", "converged", "final_elbo"]
    )
    with open(path, "w") as fh:
        fh.write(f"# {meta_str}\n")
        fh.write("\t".join(columns) + "\n")
        for i, dec in enumerate(decisions):
            if not (
                math.isfinite(dec.u_tilde)
                and math.isfinite(dec.e_u1)
                and math.isfinite(dec.e_u2)
            ):
                raise ValueError(f"non-finite value in report row for {dec.gene_id}")
            row = [
                dec.gene_id,
                _fmt_value(dec.e_u1),
                _fmt_value(dec.e_u2),
                _fmt_value(dec.u_tilde),
                "1" if dec.selected else "0",
            ]
            row += [_fmt_value(v) for v in report.alpha[i].reshape(-1)]
            row += [
                str(int(report.iterations[i])),
                "1" if report.converged[i] else "0",
                _fmt_value(report.final_elbo[i]),
            ]
            fh.write("\t".join(row) + "\n")


def _fmt_value(v):
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, float):
        return "%.10g" % v
    return str(v)


def read_report(path):
    """Read back a report written by :func:`write_report`.

    Returns (meta dict, list of row dicts with gene_id, u_tilde, selected).
    """
    rows = []
    lines = _nonblank_lines(path)
    if len(lines) < 2 or not lines[0][1].startswith("#"):
        raise DataError(f"{path}: missing report metadata or column header")
    meta = _parse_meta(lines[0][1])
    header = lines[1][1].split("\t")
    for column in ("gene_id", "e_u1", "e_u2", "u_tilde", "selected"):
        if column not in header:
            raise DataError(f"{path}: report header lacks column {column!r}")
    for lineno, ln in lines[2:]:
        parts = ln.split("\t")
        if len(parts) != len(header):
            raise DataError(
                f"{path}: line {lineno} has {len(parts)} fields, header has {len(header)}"
            )
        row = dict(zip(header, parts))
        parsed = {"gene_id": row["gene_id"]}
        for column in ("e_u1", "e_u2", "u_tilde"):
            try:
                parsed[column] = float(row[column])
            except ValueError:
                raise DataError(
                    f"{path}: line {lineno}: {column} value {row[column]!r} is not a number"
                ) from None
        parsed["selected"] = row["selected"] == "1"
        parsed["converged"] = row.get("converged") == "1"
        rows.append(parsed)
    return meta, rows


def _nonblank_lines(path):
    """(1-based line number, text) of each non-blank line of a text file."""
    with _open_text(path) as fh:
        return [(i, ln.rstrip("\n")) for i, ln in enumerate(fh, 1) if ln.strip()]


def _parse_meta(line):
    """key=value tokens of a '#'-prefixed metadata line."""
    meta = {}
    for token in line[1:].split():
        if "=" in token:
            key, val = token.split("=", 1)
            meta[key] = val
    return meta


def write_truth(truth, path):
    """Ground-truth TSV: gene_id, is_sv, pattern, per-sample beta0."""
    n_samples = truth.beta0.shape[1]
    meta = " ".join(f"{k}={v}" for k, v in truth.meta.items())
    with open(path, "w") as fh:
        fh.write(f"# {meta}\n")
        cols = ["gene_id", "is_sv", "pattern"] + [
            f"beta0_m{m + 1}" for m in range(n_samples)
        ]
        fh.write("\t".join(cols) + "\n")
        for i, gid in enumerate(truth.gene_ids):
            row = [gid, "1" if truth.sv_flags[i] else "0", truth.pattern[i]]
            row += [_fmt_value(float(v)) for v in truth.beta0[i]]
            fh.write("\t".join(row) + "\n")


def read_truth(path):
    """Read a ground-truth TSV; returns (meta dict, gene_ids, sv_flags)."""
    lines = _nonblank_lines(path)
    if not lines or not lines[0][1].startswith("#"):
        raise DataError(f"{path}: missing truth metadata header")
    meta = _parse_meta(lines[0][1])
    gene_ids, flags = [], []
    for lineno, ln in lines[2:]:
        parts = ln.split("\t")
        if len(parts) < 2:
            raise DataError(f"{path}: line {lineno} has no is_sv field")
        gene_ids.append(parts[0])
        flags.append(parts[1] == "1")
    return meta, tuple(gene_ids), np.array(flags, dtype=bool)
