"""Load, validate, filter, and persist multi-sample spatial expression data.

A dataset is described by a manifest: an INI-style text file with one
section per sample naming the counts, coordinates, and covariates files.
Counts come either as dense TSV (genes as rows, header = spot ids) or as a
1-based sparse triplet file ("gene_index spot_index value" lines under a
"G N" dimension header, with gene ids in a sidecar file and spot indices
referring to coordinate-file row order).
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "DataError",
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


class DataError(ValueError):
    """Raised for malformed or inconsistent dataset files."""


@dataclass
class SpatialSample:
    """One tissue section: counts (genes x spots), coordinates, covariates."""

    sample_id: str
    counts: np.ndarray
    coords: np.ndarray
    covariates: np.ndarray
    spot_ids: tuple
    gene_ids: tuple
    covariate_names: tuple = ()

    def __post_init__(self):
        self.counts = np.asarray(self.counts)
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
        if self.counts.shape != (len(self.gene_ids), n):
            raise DataError(
                f"sample {self.sample_id}: counts shape {self.counts.shape} does not "
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
        counts = self.counts
        # A NaN, infinite or fractional value does not survive the cast intact.
        with np.errstate(invalid="ignore"):
            self.counts = counts.astype(np.int64)
        bad = (self.counts < 0) | (self.counts != counts)
        if bad.any():
            g, s = np.argwhere(bad)[0]
            raise DataError(
                f"sample {self.sample_id}: count {counts[g, s]} of gene "
                f"{self.gene_ids[g]} at spot {self.spot_ids[s]} is not a non-negative integer"
            )
        if not np.all(np.isfinite(self.coords)):
            raise DataError(f"sample {self.sample_id}: non-finite coordinate")
        if not np.all(np.isfinite(self.covariates)):
            raise DataError(f"sample {self.sample_id}: non-finite covariate")
        for arr in (self.counts, self.coords, self.covariates):
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
        parser = configparser.ConfigParser()
        read_ok = parser.read(path)
        if not read_ok:
            raise DataError(f"manifest not found or unreadable: {path}")
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
        parser = configparser.ConfigParser()
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


def _resolve(base_dir, path):
    full = path if os.path.isabs(path) else os.path.join(base_dir, path)
    if not os.path.exists(full):
        raise DataError(f"file not found: {full}")
    return full


def _read_tsv_table(path, expected_cols=None):
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines:
        raise DataError(f"empty file: {path}")
    header = lines[0].split("\t")
    rows = [ln.split("\t") for ln in lines[1:]]
    for row in rows:
        if len(row) != len(header):
            raise DataError(f"ragged row in {path}")
    if expected_cols is not None and header[: len(expected_cols)] != list(expected_cols):
        raise DataError(f"{path}: expected columns starting {expected_cols}, got {header[:3]}")
    return header, rows


def _parse_numbers(rows, path):
    """Float array of a table of number tokens; SpatialSample checks the values."""
    try:
        return np.array(rows, dtype=float)
    except ValueError as exc:
        raise DataError(f"{path}: cannot parse number ({exc})") from exc


def _load_coords(path):
    header, rows = _read_tsv_table(path, expected_cols=("spot_id", "s1", "s2"))
    spot_ids = [r[0] for r in rows]
    return spot_ids, _parse_numbers([r[1:3] for r in rows], path).reshape(len(rows), 2)


def _load_covariates(path):
    header, rows = _read_tsv_table(path)
    if header[0] != "spot_id":
        raise DataError(f"{path}: first covariate column must be spot_id")
    names = tuple(header[1:])
    spot_ids = [r[0] for r in rows]
    values = _parse_numbers([r[1:] for r in rows], path).reshape(len(rows), len(names))
    return spot_ids, names, values


def _sniff_counts_format(path):
    with open(path) as fh:
        first = fh.readline()
    tokens = first.strip().split()
    if len(tokens) == 2 and all(t.isdigit() for t in tokens):
        return "triplet"
    return "dense"


def _load_counts_dense(path):
    header, rows = _read_tsv_table(path)
    spot_ids = header[1:]
    if not spot_ids:
        raise DataError(f"{path}: dense counts file lists no spots")
    gene_ids = [r[0] for r in rows]
    counts = _parse_numbers([r[1:] for r in rows], path).reshape(len(rows), len(spot_ids))
    return gene_ids, spot_ids, counts


def _load_counts_triplet(path, gene_ids, n_spots):
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    dims = lines[0].split() if lines else []
    if len(dims) != 2 or not all(d.isdigit() for d in dims):
        raise DataError(f"{path}: triplet file needs a 'G N' dimension header")
    n_genes, n = int(dims[0]), int(dims[1])
    if n_genes != len(gene_ids):
        raise DataError(f"{path}: header says {n_genes} genes, sidecar lists {len(gene_ids)}")
    if n != n_spots:
        raise DataError(f"{path}: header says {n} spots, coords file lists {n_spots}")
    body = lines[1:]
    try:
        table = np.loadtxt(body, comments=None, ndmin=2) if body else np.zeros((0, 3))
    except ValueError as exc:
        raise DataError(f"{path}: malformed triplet line ({exc})") from exc
    if table.shape[1] != 3:
        raise DataError(f"{path}: triplet lines have {table.shape[1]} fields, need 3")
    gene, spot, value = table.T
    ok = (gene == np.rint(gene)) & (spot == np.rint(spot))
    ok &= (gene >= 1) & (gene <= n_genes) & (spot >= 1) & (spot <= n)
    if not ok.all():
        raise DataError(f"{path}: triplet index out of range in {body[np.argmin(ok)]!r}")
    flat = (gene.astype(np.int64) - 1) * n + (spot.astype(np.int64) - 1)
    # Fancy assignment leaves the winner of a repeated index unspecified.
    if np.unique(flat).size != flat.size:
        raise DataError(f"{path}: a (gene, spot) pair is listed twice")
    counts = np.zeros(n_genes * n)
    counts[flat] = value
    return counts.reshape(n_genes, n)


def _load_sample(entry: ManifestEntry, base_dir) -> SpatialSample:
    coords_path = _resolve(base_dir, entry.coords)
    covs_path = _resolve(base_dir, entry.covariates)
    counts_path = _resolve(base_dir, entry.counts)
    spot_ids, coords = _load_coords(coords_path)
    cov_spots, cov_names, covariates = _load_covariates(covs_path)

    fmt = entry.counts_format
    if fmt == "auto":
        fmt = _sniff_counts_format(counts_path)
    if fmt == "triplet":
        if not entry.genes:
            raise DataError(
                f"sample {entry.sample_id}: triplet counts need a 'genes' sidecar"
            )
        genes_path = _resolve(base_dir, entry.genes)
        with open(genes_path) as fh:
            gene_ids = [ln.strip() for ln in fh if ln.strip()]
        counts = _load_counts_triplet(counts_path, gene_ids, len(spot_ids))
        count_spots = list(spot_ids)
    elif fmt == "dense":
        gene_ids, count_spots, counts = _load_counts_dense(counts_path)
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
    return SpatialSample(
        sample_id=entry.sample_id,
        counts=counts[:, count_perm],
        coords=coords,
        covariates=covariates[cov_perm],
        spot_ids=spot_ids,
        gene_ids=gene_ids,
        covariate_names=cov_names,
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
        aligned.append(replace(s, counts=s.counts[rows], gene_ids=gene_ids))
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
        genes_per_spot = np.count_nonzero(s.counts, axis=0)
        keep = genes_per_spot >= min_genes_per_spot
        if not keep.any():
            raise DataError(f"sample {s.sample_id}: all spots removed by filtering")
        trimmed.append(
            replace(
                s,
                counts=s.counts[:, keep],
                coords=s.coords[keep],
                covariates=s.covariates[keep],
                spot_ids=tuple(np.asarray(s.spot_ids)[keep]),
            )
        )
    keep_gene = np.ones(len(ds.gene_ids), dtype=bool)
    for s in trimmed:
        spots_per_gene = np.count_nonzero(s.counts, axis=1)
        keep_gene &= spots_per_gene >= min_spots_per_gene
    if not keep_gene.any():
        raise DataError("all genes removed by filtering")
    gene_ids = tuple(np.asarray(ds.gene_ids)[keep_gene])
    final = [replace(s, counts=s.counts[keep_gene], gene_ids=gene_ids) for s in trimmed]
    return MultiSampleDataset(samples=final, gene_ids=gene_ids)


# ---------------------------------------------------------------------------
# Writers (datasets, detection reports, simulation ground truth)
# ---------------------------------------------------------------------------


def write_dataset(ds: MultiSampleDataset, out_dir, counts_format: str = "dense") -> str:
    """Write every sample in the manifest formats; returns the manifest path."""
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
        if counts_format == "dense":
            with open(counts_path, "w") as fh:
                fh.write("gene_id\t" + "\t".join(s.spot_ids) + "\n")
                for gid, row in zip(s.gene_ids, s.counts):
                    fh.write(gid + "\t" + "\t".join(str(int(v)) for v in row) + "\n")
        elif counts_format == "triplet":
            genes_name = f"genes_{s.sample_id}.txt"
            with open(os.path.join(out_dir, genes_name), "w") as fh:
                fh.write("\n".join(s.gene_ids) + "\n")
            gi, si = np.nonzero(s.counts)
            with open(counts_path, "w") as fh:
                fh.write(f"{len(s.gene_ids)} {s.n_spots}\n")
                for g, sp in zip(gi, si):
                    fh.write(f"{g + 1} {sp + 1} {int(s.counts[g, sp])}\n")
        else:
            raise ValueError(f"unknown counts_format {counts_format!r}")
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
    with open(path) as fh:
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
