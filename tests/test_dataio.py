"""Dataset loading, validation, filtering, and persistence round-trips."""

import os
import tempfile
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from svjoint.dataio import (
    DataError,
    Manifest,
    ManifestEntry,
    MultiSampleDataset,
    SpatialSample,
    filter_dataset,
    load_dataset,
    read_report,
    read_truth,
    write_dataset,
    write_report,
    write_table,
)
from svjoint.selection import build_report
from svjoint.engine import GeneFitResult


def write_sample_files(tmp_path, sample_id, gene_ids, spot_ids, counts, coords, covs):
    counts_p = tmp_path / f"counts_{sample_id}.tsv"
    coords_p = tmp_path / f"coords_{sample_id}.tsv"
    covs_p = tmp_path / f"covs_{sample_id}.tsv"
    with open(counts_p, "w") as fh:
        fh.write("gene_id\t" + "\t".join(spot_ids) + "\n")
        for g, row in zip(gene_ids, counts):
            fh.write(g + "\t" + "\t".join(str(v) for v in row) + "\n")
    with open(coords_p, "w") as fh:
        fh.write("spot_id\ts1\ts2\n")
        for s, (a, b) in zip(spot_ids, coords):
            fh.write(f"{s}\t{a}\t{b}\n")
    with open(covs_p, "w") as fh:
        fh.write("spot_id\t" + "\t".join(f"x{j+1}" for j in range(len(covs[0]))) + "\n")
        for s, row in zip(spot_ids, covs):
            fh.write(s + "\t" + "\t".join(str(v) for v in row) + "\n")
    return ManifestEntry(
        sample_id=sample_id,
        counts=counts_p.name,
        coords=coords_p.name,
        covariates=covs_p.name,
    )


def simple_manifest(tmp_path, **overrides):
    gene_ids = overrides.get("gene_ids", ["gA", "gB"])
    spot_ids = overrides.get("spot_ids", ["s1", "s2", "s3"])
    counts = overrides.get("counts", [[1, 0, 2], [0, 3, 1]])
    coords = overrides.get("coords", [[0.0, 0.0], [1.0, 0.5], [2.0, 1.0]])
    covs = overrides.get("covs", [[0.1], [0.2], [0.3]])
    entry = write_sample_files(tmp_path, "A", gene_ids, spot_ids, counts, coords, covs)
    return Manifest(entries=(entry,), base_dir=str(tmp_path))


class TestLoadDataset:
    def test_dimension_passthrough(self, tmp_path):
        ds = load_dataset(simple_manifest(tmp_path))
        assert ds.n_samples == 1
        assert ds.n_genes == 2
        assert ds.samples[0].n_spots == 3

    def test_gene_intersection_order(self, tmp_path):
        e1 = write_sample_files(
            tmp_path, "A", ["gA", "gB", "gC"], ["s1", "s2"],
            [[1, 2], [3, 4], [5, 6]], [[0, 0], [1, 1]], [[0.5], [0.5]],
        )
        e2 = write_sample_files(
            tmp_path, "B", ["gB", "gC", "gD"], ["t1", "t2"],
            [[7, 8], [9, 10], [11, 12]], [[0, 0], [1, 1]], [[0.5], [0.5]],
        )
        ds = load_dataset(Manifest(entries=(e1, e2), base_dir=str(tmp_path)))
        assert ds.gene_ids == ("gB", "gC")
        np.testing.assert_array_equal(ds.samples[0].counts, [[3, 4], [5, 6]])
        np.testing.assert_array_equal(ds.samples[1].counts, [[7, 8], [9, 10]])

    def test_spot_mismatch(self, tmp_path):
        entry = write_sample_files(
            tmp_path, "A", ["gA"], ["s1", "s2"], [[1, 2]], [[0, 0], [1, 1]], [[0.5], [0.5]]
        )
        # Rewrite coords with a different spot id.
        with open(tmp_path / entry.coords, "w") as fh:
            fh.write("spot_id\ts1\ts2\ns1\t0\t0\ns7\t1\t1\n")
        with pytest.raises(DataError, match="spot ids disagree"):
            load_dataset(Manifest(entries=(entry,), base_dir=str(tmp_path)))

    def test_negative_count(self, tmp_path):
        with pytest.raises(DataError, match="non-negative"):
            load_dataset(simple_manifest(tmp_path, counts=[[1, -1, 2], [0, 3, 1]]))

    def test_fractional_count(self, tmp_path):
        with pytest.raises(DataError, match="non-negative integer"):
            load_dataset(simple_manifest(tmp_path, counts=[[1, 0.5, 2], [0, 3, 1]]))

    def test_missing_file(self, tmp_path):
        man = simple_manifest(tmp_path)
        (tmp_path / man.entries[0].counts).unlink()
        with pytest.raises(DataError, match="not found"):
            load_dataset(man)

    def test_empty_intersection(self, tmp_path):
        e1 = write_sample_files(
            tmp_path, "A", ["gA"], ["s1"], [[1]], [[0, 0]], [[0.5]]
        )
        e2 = write_sample_files(
            tmp_path, "B", ["gB"], ["t1"], [[1]], [[0, 0]], [[0.5]]
        )
        with pytest.raises(DataError, match="no genes shared"):
            load_dataset(Manifest(entries=(e1, e2), base_dir=str(tmp_path)))

    def test_spot_order_follows_coords_file(self, tmp_path):
        entry = write_sample_files(
            tmp_path, "A", ["gA"], ["s1", "s2"], [[5, 9]], [[0, 0], [1, 1]], [[0.1], [0.2]]
        )
        with open(tmp_path / entry.coords, "w") as fh:
            fh.write("spot_id\ts1\ts2\ns2\t1\t1\ns1\t0\t0\n")
        ds = load_dataset(Manifest(entries=(entry,), base_dir=str(tmp_path)))
        assert ds.samples[0].spot_ids == ("s2", "s1")
        np.testing.assert_array_equal(ds.samples[0].counts, [[9, 5]])


def triplet_manifest(tmp_path, body):
    """simple_manifest's 2 genes x 3 spots sample with triplet counts ``body``."""
    entry = simple_manifest(tmp_path).entries[0]
    (tmp_path / entry.counts).write_text("2 3\n" + body)
    (tmp_path / "genes_A.txt").write_text("gA\ngB\n")
    entry = replace(entry, genes="genes_A.txt", counts_format="triplet")
    return Manifest(entries=(entry,), base_dir=str(tmp_path))


class TestCountParseErrors:
    def test_triplet_loads(self, tmp_path):
        ds = load_dataset(triplet_manifest(tmp_path, "1 1 4\n2 3 7\n"))
        np.testing.assert_array_equal(ds.samples[0].counts, [[4, 0, 0], [0, 0, 7]])

    def test_non_numeric_dense_token(self, tmp_path):
        with pytest.raises(DataError, match="counts_A.tsv"):
            load_dataset(simple_manifest(tmp_path, counts=[[1, "x", 2], [0, 3, 1]]))

    def test_triplet_line_with_two_fields(self, tmp_path):
        with pytest.raises(DataError, match="counts_A.tsv"):
            load_dataset(triplet_manifest(tmp_path, "1 1 4\n2 3\n"))

    @pytest.mark.parametrize("line", ["0 1 4", "3 1 4", "1 0 4", "1 4 4"])
    def test_triplet_index_out_of_range(self, tmp_path, line):
        with pytest.raises(DataError, match="counts_A.tsv"):
            load_dataset(triplet_manifest(tmp_path, "1 1 4\n" + line + "\n"))

    def test_non_numeric_triplet_index(self, tmp_path):
        with pytest.raises(DataError, match="counts_A.tsv"):
            load_dataset(triplet_manifest(tmp_path, "1 1 4\nx 3 7\n"))

    @pytest.mark.parametrize("body, line", [
        ("1 1 4\n\n2 3 7\nx 3 7\n", "line 5: malformed triplet line 'x 3 7'"),
        ("1 1 4\n\n2 3 7 1\n", "line 4: malformed triplet line '2 3 7 1'"),
    ], ids=["non-numeric", "four-fields"])
    def test_malformed_triplet_after_blank_line_names_its_line(self, tmp_path, body, line):
        with pytest.raises(DataError, match=f"counts_A.tsv: {line}"):
            load_dataset(triplet_manifest(tmp_path, body))

    def test_triplet_pair_listed_twice(self, tmp_path):
        with pytest.raises(DataError, match="listed twice"):
            load_dataset(triplet_manifest(tmp_path, "1 1 4\n2 3 7\n1 1 5\n"))

    def test_fractional_triplet_value(self, tmp_path):
        with pytest.raises(DataError, match="non-negative integer"):
            load_dataset(triplet_manifest(tmp_path, "1 1 4\n2 3 0.5\n"))

    def test_triplet_after_blank_line_is_sniffed(self, tmp_path):
        # The readers skip blank lines, so the format sniff must too.
        manifest = triplet_manifest(tmp_path, "1 1 4\n2 3 7\n")
        entry = replace(manifest.entries[0], counts_format="auto")
        path = tmp_path / entry.counts
        path.write_text("\n" + path.read_text())
        ds = load_dataset(replace(manifest, entries=(entry,)))
        np.testing.assert_array_equal(ds.samples[0].counts, [[4, 0, 0], [0, 0, 7]])

    def test_empty_triplet_file(self, tmp_path):
        manifest = triplet_manifest(tmp_path, "")
        (tmp_path / manifest.entries[0].counts).write_text("")
        with pytest.raises(DataError, match="counts_A.tsv"):
            load_dataset(manifest)


class TestTableReader:
    """Coordinates, covariates and dense counts are parsed by one reader."""

    @pytest.mark.parametrize("field", ["coords", "covariates", "counts"])
    @pytest.mark.parametrize("edit, kind", [
        (lambda row: row + "\t1", "ragged row"),
        (lambda row: row.rsplit("\t", 1)[0] + "\tx", "cannot parse number"),
    ], ids=["ragged", "non-numeric"])
    def test_bad_row_names_the_file(self, tmp_path, field, edit, kind):
        manifest = simple_manifest(tmp_path)
        name = getattr(manifest.entries[0], field)
        lines = (tmp_path / name).read_text().splitlines()
        lines[2] = edit(lines[2])
        (tmp_path / name).write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError) as exc:
            load_dataset(manifest)
        assert kind in str(exc.value) and name in str(exc.value)

    @pytest.mark.parametrize("field", ["coords", "covariates", "counts"])
    @pytest.mark.parametrize("edit, kind", [
        (lambda row: row + "\t1", "ragged row"),
        (lambda row: row.rsplit("\t", 1)[0] + "\tx", "cannot parse number"),
    ], ids=["ragged", "non-numeric"])
    def test_bad_row_past_first_block_names_its_line(self, tmp_path, field, edit, kind):
        # 300 rows, so the bad one is in the reader's second 256-row block,
        # and a blank line above it, so its line is not its row number + 1.
        n = 300
        manifest = simple_manifest(
            tmp_path, gene_ids=[f"g{i}" for i in range(n)], spot_ids=[f"s{i}" for i in range(n)],
            counts=np.eye(n, dtype=int).tolist(), coords=[[i, 0.5 * i] for i in range(n)],
            covs=[[0.1 * i] for i in range(n)],
        )
        name = getattr(manifest.entries[0], field)
        lines = (tmp_path / name).read_text().splitlines()
        lines.insert(1, "")
        lines[289] = edit(lines[289])
        (tmp_path / name).write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError) as exc:
            load_dataset(manifest)
        assert kind in str(exc.value) and name in str(exc.value)
        assert "line 290" in str(exc.value)

    def test_covariates_with_only_spot_ids(self, tmp_path):
        manifest = simple_manifest(tmp_path)
        (tmp_path / manifest.entries[0].covariates).write_text("spot_id\ns3\ns1\ns2\n")
        sample = load_dataset(manifest).samples[0]
        assert sample.covariates.shape == (3, 0)
        assert sample.covariate_names == ()

    def test_coords_extra_text_column_is_ignored(self, tmp_path):
        manifest = simple_manifest(tmp_path)
        (tmp_path / manifest.entries[0].coords).write_text(
            "spot_id\ts1\ts2\tlabel\ns1\t0\t0\tedge\ns2\t1\t0.5\tcore\ns3\t2\t1\tedge\n"
        )
        sample = load_dataset(manifest).samples[0]
        np.testing.assert_array_equal(sample.coords, [[0.0, 0.0], [1.0, 0.5], [2.0, 1.0]])

    def test_table_longer_than_one_block(self, tmp_path):
        n = 600
        spot_ids = [f"s{i}" for i in range(n)]
        coords = [[float(i), float(i % 7)] for i in range(n)]
        covs = [[i / n, 1.0 - i / n] for i in range(n)]
        counts = [[i % 3 for i in range(n)], [(i * 5) % 4 for i in range(n)]]
        manifest = simple_manifest(tmp_path, spot_ids=spot_ids, coords=coords, covs=covs,
                                   counts=counts)
        sample = load_dataset(manifest).samples[0]
        np.testing.assert_array_equal(sample.coords, coords)
        np.testing.assert_array_equal(sample.covariates, covs)
        np.testing.assert_array_equal(sample.counts, counts)


class TestManifestRead:
    SECTION = "[A]\ncounts = c.tsv\ncoords = x.tsv\ncovariates = v.tsv\n"

    def test_percent_in_path(self, tmp_path):
        entry = simple_manifest(tmp_path).entries[0]
        counts = tmp_path / "counts_50%.tsv"
        (tmp_path / entry.counts).rename(counts)
        path = tmp_path / "manifest.ini"
        path.write_text(
            f"[A]\ncounts = {counts.name}\ncoords = {entry.coords}\n"
            f"covariates = {entry.covariates}\n"
        )
        manifest = Manifest.read(str(path))
        assert manifest.entries[0].counts == "counts_50%.tsv"
        assert load_dataset(manifest).n_genes == 2
        manifest.write(str(path))
        assert Manifest.read(str(path)).entries == manifest.entries

    def test_key_before_first_section(self, tmp_path):
        path = tmp_path / "manifest.ini"
        path.write_text("counts = c.tsv\n" + self.SECTION)
        with pytest.raises(DataError, match="manifest.ini"):
            Manifest.read(str(path))

    def test_repeated_section(self, tmp_path):
        path = tmp_path / "manifest.ini"
        path.write_text(self.SECTION + self.SECTION)
        with pytest.raises(DataError, match="manifest.ini"):
            Manifest.read(str(path))


class TestUndecodableInput:
    """A byte that does not decode, in any file detect or evaluate reads,
    is a DataError that names the file."""

    @staticmethod
    def append_bad_byte(path):
        with open(path, "ab") as fh:
            fh.write(b"\xff")

    def test_manifest(self, tmp_path):
        entry = simple_manifest(tmp_path).entries[0]
        path = tmp_path / "manifest.ini"
        Manifest(entries=(entry,), base_dir=str(tmp_path)).write(str(path))
        self.append_bad_byte(path)
        with pytest.raises(DataError, match="manifest.ini"):
            Manifest.read(str(path))

    @pytest.mark.parametrize("field", ["coords", "covariates", "counts"])
    def test_sample_tsv(self, tmp_path, field):
        manifest = simple_manifest(tmp_path)
        name = getattr(manifest.entries[0], field)
        self.append_bad_byte(tmp_path / name)
        with pytest.raises(DataError, match=name):
            load_dataset(manifest)

    @pytest.mark.parametrize("field", ["counts", "genes"])
    def test_triplet_files(self, tmp_path, field):
        manifest = triplet_manifest(tmp_path, "1 1 4\n2 3 7\n")
        name = getattr(manifest.entries[0], field)
        self.append_bad_byte(tmp_path / name)
        with pytest.raises(DataError, match=name):
            load_dataset(manifest)

    def test_report(self, tmp_path):
        path = tmp_path / "r.tsv"
        write_report(build_report(["g1"], [_result(0.9, 0.2)]), path)
        self.append_bad_byte(path)
        with pytest.raises(DataError, match="r.tsv"):
            read_report(path)

    def test_truth(self, tmp_path):
        path = tmp_path / "truth.tsv"
        path.write_text("# seed=1\ngene_id\tis_sv\tpattern\ng1\t1\tlinear\n")
        self.append_bad_byte(path)
        with pytest.raises(DataError, match="truth.tsv"):
            read_truth(path)


class TestFilterDataset:
    def make_ds(self, counts):
        counts = np.asarray(counts)
        n = counts.shape[1]
        sample = SpatialSample(
            sample_id="A",
            counts=counts,
            coords=np.column_stack([np.arange(n), np.arange(n)]).astype(float),
            covariates=np.ones((n, 1)),
            spot_ids=[f"s{i}" for i in range(n)],
            gene_ids=[f"g{i}" for i in range(counts.shape[0])],
        )
        return MultiSampleDataset(samples=[sample], gene_ids=sample.gene_ids)

    def test_identity_thresholds(self):
        ds = self.make_ds([[1, 0, 2], [0, 3, 1]])
        out = filter_dataset(ds, 0, 0)
        np.testing.assert_array_equal(out.samples[0].counts, ds.samples[0].counts)
        assert out.gene_ids == ds.gene_ids

    def test_gene_boundary(self):
        counts = np.zeros((2, 120), dtype=int)
        counts[0, :99] = 1   # expressed in 99 spots: below threshold 100
        counts[1, :] = 1
        ds = self.make_ds(counts)
        out = filter_dataset(ds, 100, 0)
        assert out.gene_ids == ("g1",)

    def test_spot_removal(self):
        ds = self.make_ds([[1, 0, 2], [2, 0, 1]])
        out = filter_dataset(ds, 0, 1)
        assert out.samples[0].n_spots == 2
        assert out.samples[0].spot_ids == ("s0", "s2")

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        counts = rng.poisson(0.7, size=(20, 30))
        ds = self.make_ds(counts)
        once = filter_dataset(ds, 5, 3)
        twice = filter_dataset(once, 5, 3)
        assert once.gene_ids == twice.gene_ids
        np.testing.assert_array_equal(once.samples[0].counts, twice.samples[0].counts)

    def test_ids_stay_plain_str(self):
        ds = self.make_ds([[1, 0, 2, 1], [0, 0, 1, 3], [2, 0, 0, 0]])
        out = filter_dataset(ds, 2, 1)
        assert out.gene_ids == ("g0", "g1")
        assert out.samples[0].spot_ids == ("s0", "s2", "s3")
        ids = out.gene_ids + out.samples[0].gene_ids + out.samples[0].spot_ids
        assert all(type(x) is str for x in ids)

    def test_all_removed(self):
        ds = self.make_ds([[1, 0], [0, 1]])
        with pytest.raises(DataError, match="all genes removed"):
            filter_dataset(ds, 3, 0)


class TestLoadMemory:
    """Load and filter keep counts sparse: about 2 x 2,304 spots x 2,000 genes
    at 5% nonzero peak below the size of one dense int64 (genes x spots) copy."""

    GENES, SPOTS, DENSITY = 2000, 2304, 0.05

    @pytest.fixture(scope="class")
    def manifests(self, tmp_path_factory):
        rng = np.random.default_rng(8)
        size = self.GENES * self.SPOTS
        samples = []
        for m in range(2):
            counts = np.zeros((self.GENES, self.SPOTS), dtype=np.int64)
            keys = rng.choice(size, size=round(self.DENSITY * size), replace=False)
            counts.flat[keys] = 1 + rng.poisson(2.0, size=keys.size)
            samples.append(SpatialSample(
                sample_id=f"s{m + 1}",
                counts=counts,
                coords=rng.normal(size=(self.SPOTS, 2)),
                covariates=rng.normal(size=(self.SPOTS, 1)),
                spot_ids=[f"spot{i}" for i in range(self.SPOTS)],
                gene_ids=[f"g{i}" for i in range(self.GENES)],
            ))
        ds = MultiSampleDataset(samples=samples, gene_ids=samples[0].gene_ids)
        out = tmp_path_factory.mktemp("memory")
        return {fmt: write_dataset(ds, out / fmt, fmt) for fmt in ("triplet", "dense")}

    @pytest.mark.parametrize("fmt", ["triplet", "dense"])
    def test_peak_below_one_dense_copy(self, manifests, fmt):
        manifest = Manifest.read(manifests[fmt])
        tracemalloc.start()
        try:
            ds = filter_dataset(load_dataset(manifest), 80, 95)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0 < ds.n_genes < self.GENES
        assert peak < self.GENES * self.SPOTS * np.dtype(np.int64).itemsize


@st.composite
def count_samples(draw):
    """Two samples of random counts over partly shared genes.

    Whole genes and spots are zeroed and whole genes made nonzero; the
    second sample lists the shared genes in another order plus one of its
    own.  Each sample is (sample_id, gene_ids, spot_ids, counts), with
    counts in spot-id order.
    """
    n_genes = draw(st.integers(1, 6))
    shared = [f"g{i}" for i in range(n_genes)]
    samples = []
    for m, gene_ids in enumerate([shared, draw(st.permutations(shared)) + ["own"]]):
        n = draw(st.integers(1, 7))
        counts = draw(hnp.arrays(np.int64, (len(gene_ids), n), elements=st.integers(0, 9)))
        rows = st.lists(st.booleans(), min_size=len(gene_ids), max_size=len(gene_ids))
        counts[:, draw(st.lists(st.booleans(), min_size=n, max_size=n))] = 0
        dense_rows = draw(rows)
        counts[dense_rows] = np.maximum(counts[dense_rows], 1)
        counts[draw(rows)] = 0
        samples.append((f"m{m}", list(gene_ids), [f"m{m}s{i}" for i in range(n)], counts))
    return samples


def write_counts_sample(directory, sample, fmt, order):
    """Files of one sample; ``order`` permutes the dense columns or the triplet lines."""
    sample_id, gene_ids, spot_ids, counts = sample
    n = len(spot_ids)
    coords = np.column_stack([np.arange(n) * 0.5, np.arange(n) ** 2.0])
    with open(os.path.join(directory, f"coords_{sample_id}.tsv"), "w") as fh:
        fh.write("spot_id\ts1\ts2\n")
        fh.writelines(f"{s}\t{a}\t{b}\n" for s, (a, b) in zip(spot_ids, coords))
    with open(os.path.join(directory, f"covs_{sample_id}.tsv"), "w") as fh:
        fh.write("spot_id\tx1\n")
        fh.writelines(f"{s}\t{i / 7}\n" for i, s in enumerate(spot_ids))
    counts_name = f"counts_{sample_id}.tsv"
    genes_name = None
    with open(os.path.join(directory, counts_name), "w") as fh:
        if fmt == "dense":
            cols = order(n)
            fh.write("gene_id\t" + "\t".join(spot_ids[c] for c in cols) + "\n")
            for gid, row in zip(gene_ids, counts):
                fh.write(gid + "\t" + "\t".join(str(row[c]) for c in cols) + "\n")
        else:
            genes_name = f"genes_{sample_id}.txt"
            with open(os.path.join(directory, genes_name), "w") as gh:
                gh.write("\n".join(gene_ids) + "\n")
            gi, si = np.nonzero(counts)
            fh.write(f"{len(gene_ids)} {n}\n")
            for k in order(len(gi)):
                fh.write(f"{gi[k] + 1} {si[k] + 1} {counts[gi[k], si[k]]}\n")
    return ManifestEntry(
        sample_id=sample_id, counts=counts_name, coords=f"coords_{sample_id}.tsv",
        covariates=f"covs_{sample_id}.tsv", genes=genes_name, counts_format=fmt,
    ), coords


def reference_load_filter(samples, min_spots_per_gene, min_genes_per_spot):
    """The dense rule: shared genes in the first sample's order; drop spots, then genes.

    Returns (gene ids, per sample (kept spot mask, dense counts)), or the
    DataError message pattern that load and filter must raise.
    """
    gene_ids = [g for g in samples[0][1] if all(g in s[1] for s in samples)]
    kept = []
    for _, ids, _, counts in samples:
        aligned = counts[[ids.index(g) for g in gene_ids]]
        spots = np.count_nonzero(aligned, axis=0) >= min_genes_per_spot
        if not spots.any():
            return "all spots removed"
        kept.append((spots, aligned[:, spots]))
    genes = np.all([np.count_nonzero(c, axis=1) >= min_spots_per_gene for _, c in kept], axis=0)
    if not genes.any():
        return "all genes removed"
    return [g for g, k in zip(gene_ids, genes) if k], [(s, c[genes]) for s, c in kept]


class TestSparseCountsProperty:
    """Load and filter on the sparse arrays against the dense reference."""

    @pytest.mark.parametrize("fmt", ["dense", "triplet"])
    @settings(max_examples=60, deadline=None)
    @given(
        samples=count_samples(),
        min_spots_per_gene=st.integers(0, 4),
        min_genes_per_spot=st.integers(0, 4),
        data=st.data(),
    )
    def test_matches_dense_reference(
        self, fmt, samples, min_spots_per_gene, min_genes_per_spot, data
    ):
        def order(n):
            return data.draw(st.permutations(range(n)))

        expected = reference_load_filter(samples, min_spots_per_gene, min_genes_per_spot)
        with tempfile.TemporaryDirectory() as tmp:
            written = [write_counts_sample(tmp, s, fmt, order) for s in samples]
            manifest = Manifest(entries=tuple(e for e, _ in written), base_dir=tmp)
            if isinstance(expected, str):
                with pytest.raises(DataError, match=expected):
                    filter_dataset(load_dataset(manifest), min_spots_per_gene, min_genes_per_spot)
                return
            ds = filter_dataset(load_dataset(manifest), min_spots_per_gene, min_genes_per_spot)
        gene_ids, kept = expected
        assert ds.gene_ids == tuple(gene_ids)
        for out, sample, (_, coords), (spots, counts) in zip(ds.samples, samples, written, kept):
            assert out.spot_ids == tuple(np.asarray(sample[2])[spots])
            np.testing.assert_array_equal(out.coords, coords[spots])
            np.testing.assert_array_equal(out.covariates[:, 0], np.flatnonzero(spots) / 7)
            for g in range(len(gene_ids)):
                np.testing.assert_array_equal(out.counts[g], counts[g])
            csr = out.counts
            assert (csr.data > 0).all()
            starts = np.isin(np.arange(len(csr.indices)), csr.indptr)
            assert (starts[1:] | (np.diff(csr.indices) > 0)).all()


class TestRoundTrip:
    @pytest.mark.parametrize("fmt", ["dense", "triplet"])
    def test_write_load_bit_exact(self, tmp_path, fmt):
        rng = np.random.default_rng(1)
        n, g = 12, 5
        samples = []
        for m in range(2):
            samples.append(
                SpatialSample(
                    sample_id=f"s{m+1}",
                    counts=rng.poisson(2.0, size=(g, n)),
                    coords=rng.normal(size=(n, 2)) * 17.3,
                    covariates=rng.normal(size=(n, 3)),
                    spot_ids=[f"spot{i}" for i in range(n)],
                    gene_ids=[f"g{i}" for i in range(g)],
                )
            )
        ds = MultiSampleDataset(samples=samples, gene_ids=samples[0].gene_ids)
        man_path = write_dataset(ds, tmp_path / "out", counts_format=fmt)
        back = load_dataset(Manifest.read(man_path))
        assert back.gene_ids == ds.gene_ids
        for a, b in zip(ds.samples, back.samples):
            np.testing.assert_array_equal(a.counts, b.counts)
            np.testing.assert_array_equal(a.coords, b.coords)  # %.17g is exact
            np.testing.assert_array_equal(a.covariates, b.covariates)
            assert a.spot_ids == b.spot_ids

    def test_unknown_format_writes_nothing(self, tmp_path):
        ds = load_dataset(simple_manifest(tmp_path))
        out = tmp_path / "out"
        out.mkdir()
        with pytest.raises(ValueError, match="counts_format"):
            write_dataset(ds, out, counts_format="csv")
        assert os.listdir(out) == []

    def test_sample_without_covariates(self, tmp_path):
        # The covariates file is then a spot_id column alone, with no empty field.
        rng = np.random.default_rng(4)
        sample = SpatialSample(
            sample_id="s1", counts=rng.poisson(2.0, size=(3, 16)),
            coords=rng.normal(size=(16, 2)), covariates=np.zeros((16, 0)),
            spot_ids=[f"p{i}" for i in range(16)], gene_ids=["g0", "g1", "g2"],
        )
        ds = MultiSampleDataset(samples=[sample], gene_ids=sample.gene_ids)
        back = load_dataset(Manifest.read(write_dataset(ds, tmp_path / "out")))
        assert (tmp_path / "out" / "covariates_s1.tsv").read_text().startswith("spot_id\np0\n")
        (b,) = back.samples
        assert b.covariates.shape == (16, 0) and b.covariate_names == ()
        np.testing.assert_array_equal(b.counts, sample.counts)
        np.testing.assert_array_equal(b.coords, sample.coords)

    def test_gene_order_deterministic(self, tmp_path):
        man = simple_manifest(tmp_path)
        a = load_dataset(man)
        b = load_dataset(man)
        assert a.gene_ids == b.gene_ids
        np.testing.assert_array_equal(a.samples[0].counts, b.samples[0].counts)


def _result(e1, e2):
    return GeneFitResult(
        e_u=(e1, e2), alpha=np.full((2, 2), 0.5), elbo_trace=[-10.0, -9.5],
        iterations=2, converged=True,
    )


class TestWriteReport:
    def test_row_count(self, tmp_path):
        report = build_report(["g1", "g2"], [_result(0.99, 0.2), _result(0.1, 0.2)])
        path = tmp_path / "r.tsv"
        write_report(report, path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 2 + 2  # meta + columns + 2 rows

    def test_selected_flag_passthrough(self, tmp_path):
        report = build_report(
            ["g1", "g2"], [_result(0.97, 0.2), _result(0.1, 0.2)], bfdr_level=0.05
        )
        path = tmp_path / "r.tsv"
        write_report(report, path)
        meta, rows = read_report(path)
        flags = {r["gene_id"]: r["selected"] for r in rows}
        assert flags["g1"] is True
        assert flags["g2"] is False

    @pytest.mark.parametrize(
        "header, rows, match",
        [
            ("gene_id\te_u1\te_u2\tselected", ["g1\t0.9\t0.1\t1"], "u_tilde"),
            ("gene_id\te_u1\te_u2\tu_tilde\tselected", ["g1\t0.9\t0.1\t0.9"], "has 4 fields"),
        ],
        ids=["missing-column", "short-row"],
    )
    def test_read_rejects_malformed_report(self, tmp_path, header, rows, match):
        path = tmp_path / "r.tsv"
        path.write_text("\n".join(["# degree=3", header] + rows) + "\n")
        with pytest.raises(DataError, match=match):
            read_report(path)

    def test_read_rejects_non_numeric_value(self, tmp_path):
        path = tmp_path / "r.tsv"
        path.write_text(
            "# degree=3\n\ngene_id\te_u1\te_u2\tu_tilde\tselected\n"
            "g1\t0.9\t0.1\t0.9\t1\ng2\t0.2\t0.1\tabc\t0\n"
        )
        with pytest.raises(DataError, match=r"r\.tsv: line 5: u_tilde value 'abc'"):
            read_report(path)

    def test_non_finite_report_leaves_no_file(self, tmp_path):
        report = build_report(["g1", "g2"], [_result(0.99, 0.2), _result(0.1, 0.2)])
        report.decisions[1] = replace(report.decisions[1], u_tilde=float("nan"))
        path = tmp_path / "r.tsv"
        with pytest.raises(ValueError, match="non-finite value in report row for g2"):
            write_report(report, path)
        assert not path.exists()

    def test_empty_report(self, tmp_path):
        report = build_report([], [], bfdr_level=0.05)
        path = tmp_path / "r.tsv"
        write_report(report, path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 2  # header only, no data rows


class TestWriteTable:
    def test_meta_header_rows(self, tmp_path):
        path = tmp_path / "t.tsv"
        write_table(path, ("a", "b"), [("1", "x"), ["2", "y"]], {"seed": 3, "k": "v"})
        assert path.read_text() == "# seed=3 k=v\na\tb\n1\tx\n2\ty\n"
        write_table(path, ["a"], iter([["1"]]))
        assert path.read_text() == "a\n1\n"


class TestReadTruth:
    def test_rejects_row_without_flag(self, tmp_path):
        path = tmp_path / "truth.tsv"
        path.write_text("# seed=1\ngene_id\tis_sv\tpattern\ng1\t1\tlinear\ng2\n")
        with pytest.raises(DataError, match=r"truth\.tsv: line 4 has no is_sv field"):
            read_truth(path)
