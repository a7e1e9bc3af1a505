"""End-to-end command-line runs on small datasets."""

import multiprocessing
import os
import platform
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from svjoint import cli, dataio
from svjoint.cli import main
from svjoint.dataio import read_report


def run(argv):
    return main(argv)


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    code = run([
        "simulate", "--out", str(out), "--grid", "12x12", "--genes", "14",
        "--sv-genes", "4", "--dropout", "0.2", "--setting", "1", "--seed", "5",
    ])
    assert code == 0
    return out


@pytest.fixture
def pooled(monkeypatch):
    """Genes whose fits came back from detect's worker pool.

    Blocks of 4 cut sim_dir's 14 genes into four blocks, so that a detect
    with two or more workers starts a pool.  Every fit that the real pool's
    map returns was made in a pool process.
    """
    genes = []

    class RecordingPool(ProcessPoolExecutor):
        def map(self, fn, items, chunksize=1):
            items = list(items)
            fits = super().map(fn, items, chunksize=chunksize)

            def returned():
                for gene, fit in zip(items, fits):
                    genes.append(gene)
                    yield fit
            return returned()

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli, "block_size", lambda n_spots: 4)
    return genes


# With blocks of 4 and two workers, detect fits blocks 0 and 2, the pool 1 and 3.
POOLED_W2 = [4, 5, 6, 7, 12, 13]


@pytest.fixture
def start_method():
    """Set multiprocessing's start method for one test, then restore it."""
    old = multiprocessing.get_start_method(allow_none=True)
    yield lambda method: multiprocessing.set_start_method(method, force=True)
    multiprocessing.set_start_method(old, force=True)


class TestDetect:
    def test_worker_count_invariance(self, sim_dir, tmp_path, pooled):
        out1 = tmp_path / "r1.tsv"
        out2 = tmp_path / "r2.tsv"
        common = [
            "detect", "--manifest", str(sim_dir / "manifest.ini"),
            "--degree", "2", "--seed", "3",
            "--min-spots-per-gene", "0", "--min-genes-per-spot", "0",
        ]
        assert run(common + ["--out", str(out1), "--workers", "1"]) == 0
        assert run(common + ["--out", str(out2), "--workers", "2"]) == 0
        assert pooled == POOLED_W2
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_pool_start_method_invariance(self, sim_dir, tmp_path, pooled, start_method, method):
        # Under spawn and forkserver, workers unpickle the counts and the
        # queue of CPU ids from initargs.
        out1 = tmp_path / "r1.tsv"
        out2 = tmp_path / "r2.tsv"
        common = [
            "detect", "--manifest", str(sim_dir / "manifest.ini"),
            "--degree", "2", "--seed", "3",
            "--min-spots-per-gene", "0", "--min-genes-per-spot", "0",
        ]
        assert run(common + ["--out", str(out1), "--workers", "1"]) == 0
        start_method(method)
        assert run(common + ["--out", str(out2), "--workers", "2"]) == 0
        assert pooled == POOLED_W2
        assert out1.read_bytes() == out2.read_bytes()

    def test_same_report_without_mallopt(self, sim_dir, tmp_path, monkeypatch, pooled):
        # The malloc thresholds detect sets for itself and each worker move
        # no result: where the C library has no mallopt, detect runs as
        # before and writes the same report.
        calls = []
        real = cli._libc

        def recording(name, *argtypes):
            func = real(name, *argtypes)
            if func is None:
                return None

            def call(*args):
                calls.append((name, *args))
                return func(*args)
            return call

        out1 = tmp_path / "r1.tsv"
        out2 = tmp_path / "r2.tsv"
        common = [
            "detect", "--manifest", str(sim_dir / "manifest.ini"),
            "--degree", "2", "--seed", "3",
            "--min-spots-per-gene", "0", "--min-genes-per-spot", "0",
        ]
        monkeypatch.setattr(cli, "_libc", recording)
        assert run(common + ["--out", str(out1), "--workers", "1"]) == 0
        if platform.libc_ver()[0] == "glibc":
            # Once in detect and once in its worker set-up.
            assert calls == 2 * [("mallopt", *setting) for setting in cli._MALLOPT_SETTINGS]
        # Forked workers see the stand-in too.
        monkeypatch.setattr(cli, "_libc", lambda name, *argtypes: None)
        for workers in ("1", "2"):
            assert run(common + ["--out", str(out2), "--workers", workers]) == 0
            assert out1.read_bytes() == out2.read_bytes()
        assert pooled == POOLED_W2

    def test_pool_no_larger_than_block_count(self, sim_dir, tmp_path, monkeypatch):
        # detect is one of the n fitting processes, and n is no larger than
        # the block count.  sim_dir's 14 genes make one block, so --workers
        # 64 starts no pool; in blocks of 4 they make four, so it asks for 3
        # pool workers and detect fits block 0.  The stand-in records each
        # request and maps in this process.
        asked, mapped = [], []

        class InProcessPool:
            def __init__(self, max_workers, initializer, initargs):
                asked.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                mapped.append((list(items), chunksize))
                return map(fn, mapped[-1][0])

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
        argv = [
            "detect", "--manifest", str(sim_dir / "manifest.ini"), "--out", str(tmp_path / "r.tsv"),
            "--degree", "2", "--workers", "64",
            "--min-spots-per-gene", "0", "--min-genes-per-spot", "0",
        ]
        assert run(argv) == 0
        assert asked == [] and mapped == []
        monkeypatch.setattr(cli, "block_size", lambda n_spots: 4)
        assert run(argv) == 0
        assert asked == [3]
        assert mapped == [(list(range(4, 14)), 4)]

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity calls")
    def test_each_fitting_process_placed(self, sim_dir, tmp_path, monkeypatch):
        # With blocks of 4, --workers 3 makes three fitting processes: detect
        # and two pool workers.  Each pins itself to its own CPU id from the
        # allowed set (wrapping round past the CPU count), then restores the
        # mask it had.  Forked workers inherit the recording stand-in.
        record = tmp_path / "affinity"
        real = os.sched_setaffinity

        def recording(pid, mask):
            with open(record, "a") as fh:
                fh.write(" ".join(map(str, [os.getpid(), *sorted(mask)])) + "\n")
            real(pid, mask)

        before = os.sched_getaffinity(0)
        monkeypatch.setattr(os, "sched_setaffinity", recording)
        monkeypatch.setattr(cli, "block_size", lambda n_spots: 4)
        assert run([
            "detect", "--manifest", str(sim_dir / "manifest.ini"), "--out", str(tmp_path / "r.tsv"),
            "--degree", "2", "--workers", "3",
            "--min-spots-per-gene", "0", "--min-genes-per-spot", "0",
        ]) == 0
        masks = {}
        for line in record.read_text().splitlines():
            pid, *cpus = map(int, line.split())
            masks.setdefault(pid, []).append(set(cpus))
        assert len(masks) == 3 and os.getpid() in masks
        allowed = sorted(before)
        assert sorted(cpu for (cpu,), _ in masks.values()) == sorted(
            allowed[k % len(allowed)] for k in range(3)
        )
        assert all(restored == before for _, restored in masks.values())
        assert os.sched_getaffinity(0) == before

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity calls")
    def test_cpu_ids_wrap_and_place_restores_the_mask(self):
        before = os.sched_getaffinity(0)
        ids = cli._cpu_ids(len(before) + 1)
        assert ids[:-1] == sorted(before) and ids[-1] == ids[0]
        for cpu in ids:
            cli._place(cpu)
            assert os.sched_getaffinity(0) == before

    def test_same_report_when_placement_refused(self, sim_dir, tmp_path, monkeypatch, pooled):
        # A container may refuse sched_setaffinity; detect then places
        # nothing and writes the same report.
        def refused(pid, mask):
            raise OSError(1, "Operation not permitted")

        monkeypatch.setattr(os, "sched_setaffinity", refused, raising=False)
        out1 = tmp_path / "r1.tsv"
        out2 = tmp_path / "r2.tsv"
        common = [
            "detect", "--manifest", str(sim_dir / "manifest.ini"),
            "--degree", "2", "--seed", "3",
            "--min-spots-per-gene", "0", "--min-genes-per-spot", "0",
        ]
        assert run(common + ["--out", str(out1), "--workers", "1"]) == 0
        assert run(common + ["--out", str(out2), "--workers", "2"]) == 0
        assert pooled == POOLED_W2
        assert out1.read_bytes() == out2.read_bytes()

    def test_rerun_byte_identical(self, sim_dir, tmp_path):
        out1 = tmp_path / "a.tsv"
        out2 = tmp_path / "b.tsv"
        common = [
            "detect", "--manifest", str(sim_dir / "manifest.ini"),
            "--degree", "2", "--seed", "9",
            "--min-spots-per-gene", "0", "--min-genes-per-spot", "0",
        ]
        assert run(common + ["--out", str(out1)]) == 0
        assert run(common + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_all_zero_gene_row(self, tmp_path):
        # Inject an all-zero gene by rewriting one counts row.
        out = tmp_path / "sim0"
        assert run([
            "simulate", "--out", str(out), "--grid", "10x10", "--genes", "6",
            "--sv-genes", "0", "--dropout", "0.1", "--seed", "2",
        ]) == 0
        for m in range(1, 5):
            path = out / f"counts_s{m}.tsv"
            lines = path.read_text().strip().split("\n")
            head, rows = lines[0], lines[1:]
            parts = rows[0].split("\t")
            rows[0] = "\t".join([parts[0]] + ["0"] * (len(parts) - 1))
            path.write_text(head + "\n" + "\n".join(rows) + "\n")
        report = tmp_path / "rep.tsv"
        assert run([
            "detect", "--manifest", str(out / "manifest.ini"), "--out", str(report),
            "--degree", "1", "--min-spots-per-gene", "0", "--min-genes-per-spot", "0",
        ]) == 0
        _, rows = read_report(report)
        first = rows[0]
        assert first["converged"] is True
        assert first["selected"] is False

    def test_init_failure_writes_report(self, tmp_path, caplog):
        # A library-size covariate near 2000 in one sample makes every gene's
        # initial state fail; each becomes a converged=0 row with a logged
        # reason, and the run exits 1 under the failure budget.
        out = tmp_path / "sim"
        assert run([
            "simulate", "--out", str(out), "--grid", "10x10", "--genes", "10",
            "--sv-genes", "2", "--dropout", "0.2", "--seed", "3",
        ]) == 0
        path = out / "covariates_s1.tsv"
        lines = path.read_text().strip().split("\n")
        lines = [lines[0] + "\tlibsize"] + [
            f"{ln}\t{2000 + i}" for i, ln in enumerate(lines[1:])
        ]
        path.write_text("\n".join(lines) + "\n")
        report = tmp_path / "rep.tsv"
        with pytest.warns(RuntimeWarning, match="overflow"):
            code = run([
                "detect", "--manifest", str(out / "manifest.ini"), "--out", str(report),
                "--degree", "1", "--min-spots-per-gene", "0", "--min-genes-per-spot", "0",
            ])
        assert code == 1
        _, rows = read_report(report)
        assert len(rows) == 10
        assert all(not r["converged"] and not r["selected"] for r in rows)
        assert "failed: init: non-finite exp(-C theta) moment" in caplog.text

    def test_missing_coords_file_fails_without_report(self, sim_dir, tmp_path):
        bad_manifest = tmp_path / "manifest.ini"
        text = (sim_dir / "manifest.ini").read_text()
        bad_manifest.write_text(text.replace("coords_s1.tsv", "missing.tsv"))
        # Point the relative paths back at the simulated data directory.
        content = bad_manifest.read_text().replace(
            "counts_", str(sim_dir) + "/counts_"
        ).replace("coords_", str(sim_dir) + "/coords_").replace(
            "covariates_", str(sim_dir) + "/covariates_"
        )
        bad_manifest.write_text(content)
        report = tmp_path / "never.tsv"
        code = run(["detect", "--manifest", str(bad_manifest), "--out", str(report)])
        assert code != 0
        assert not report.exists()

    def test_dead_worker_exits_cleanly(self, sim_dir, tmp_path):
        # Every pool worker exits without a result: detect must log the
        # crash and return 1, not escape with a traceback.  Blocks of 4 make
        # four blocks, so that --workers 2 starts a pool; detect itself fits
        # its own blocks.
        report = tmp_path / "never.tsv"
        code = (
            "import os, sys\n"
            "from svjoint import cli\n"
            "fit, detect_pid = cli._fit_gene_task, os.getpid()\n"
            "def exit_now(gene_index):\n"
            "    if os.getpid() != detect_pid:\n"
            "        os._exit(3)\n"
            "    return fit(gene_index)\n"
            "cli._fit_gene_task = exit_now\n"
            "cli.block_size = lambda n_spots: 4\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        argv = [
            "detect", "--manifest", str(sim_dir / "manifest.ini"), "--out", str(report),
            "--degree", "2", "--workers", "2",
            "--min-spots-per-gene", "0", "--min-genes-per-spot", "0",
        ]
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 1
        assert "worker process died" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not report.exists()


GOLDEN = os.path.join(os.path.dirname(__file__), "data", "detect_golden.tsv")


class TestGoldenReport:
    """detect on a fixed 3-sample simulation against a stored report.

    ``tests/data/detect_golden.tsv`` was written by an earlier version of
    detect with the arguments below.  The spot filter leaves a different
    spot count in each section.  Gene order, iterations, convergence and
    selection must match exactly; every float within 1e-8 relative, enough
    for values printed with %.10g.
    """

    SIMULATE = ["--samples", "3", "--grid", "12x12", "--genes", "30", "--sv-genes", "8",
                "--dropout", "0.3", "--seed", "21"]
    DETECT = ["--degree", "2", "--seed", "4", "--workers", "1",
              "--min-spots-per-gene", "20", "--min-genes-per-spot", "18"]
    EXACT = ("gene_id", "selected", "iterations", "converged")

    @staticmethod
    def table(path):
        with open(path) as fh:
            lines = fh.read().splitlines()
        meta = dict(token.split("=", 1) for token in lines[0][1:].split())
        header = lines[1].split("\t")
        return meta, header, [dict(zip(header, ln.split("\t"))) for ln in lines[2:]]

    def test_detect_matches_stored_report(self, tmp_path):
        sim = tmp_path / "sim"
        assert run(["simulate", "--out", str(sim)] + self.SIMULATE) == 0
        manifest = str(sim / "manifest.ini")
        ds = dataio.filter_dataset(dataio.load_dataset(dataio.Manifest.read(manifest)), 20, 18)
        assert [s.n_spots for s in ds.samples] == [117, 129, 132]
        out = tmp_path / "report.tsv"
        assert run(["detect", "--manifest", manifest, "--out", str(out)] + self.DETECT) == 0

        meta, header, rows = self.table(out)
        want_meta, want_header, want_rows = self.table(GOLDEN)
        assert header == want_header
        assert meta.keys() == want_meta.keys()
        for key, value in meta.items():
            if key in ("degree", "seed", "max_iter", "n_genes", "n_converged", "n_failed"):
                assert value == want_meta[key], key
            else:
                assert float(value) == pytest.approx(float(want_meta[key]), rel=1e-8), key
        assert [r["gene_id"] for r in rows] == [r["gene_id"] for r in want_rows]
        for got, want in zip(rows, want_rows):
            for column in header:
                if column in self.EXACT:
                    assert got[column] == want[column], (got["gene_id"], column)
                else:
                    assert float(got[column]) == pytest.approx(
                        float(want[column]), rel=1e-8), (got["gene_id"], column)


@pytest.fixture(scope="module")
def strong_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("strong")
    assert run([
        "simulate", "--out", str(out / "d"), "--grid", "16x16", "--genes", "12",
        "--sv-genes", "3", "--dropout", "0.2", "--setting", "1", "--seed", "21",
    ]) == 0
    report = out / "rep.tsv"
    assert run([
        "detect", "--manifest", str(out / "d" / "manifest.ini"),
        "--out", str(report), "--degree", "3", "--bfdr-level", "0.0021",
        "--min-spots-per-gene", "0", "--min-genes-per-spot", "0",
    ]) == 0
    return out, report


class TestEvaluate:
    def test_perfect_detection_scores_one(self, strong_run, tmp_path):
        out, report = strong_run
        metrics_path = tmp_path / "m.tsv"
        assert run([
            "evaluate", "--report", str(report), "--truth", str(out / "d" / "truth.tsv"),
            "--out", str(metrics_path),
        ]) == 0
        header, row = metrics_path.read_text().strip().split("\n")
        vals = dict(zip(header.split("\t"), row.split("\t")))
        assert float(vals["f1"]) == 1.0
        assert vals["pattern"] == "linear"

    def test_stability_identical_reports(self, strong_run, tmp_path):
        _, report = strong_run
        out = tmp_path / "j.tsv"
        assert run([
            "stability", "--report", str(report), "--report2", str(report),
            "--out", str(out),
        ]) == 0
        assert out.read_text().strip().split("\n")[1].split("\t")[2] == "1"

    def test_missing_truth_file(self, strong_run, tmp_path):
        _, report = strong_run
        code = run([
            "evaluate", "--report", str(report), "--truth", str(tmp_path / "no.tsv"),
            "--out", str(tmp_path / "m.tsv"),
        ])
        assert code != 0


class TestConfig:
    def test_workers_only_from_the_flag(self, monkeypatch):
        # No environment variable sets the worker count.
        monkeypatch.setenv("SVJOINT_WORKERS", "6")
        args = cli.build_parser().parse_args(["detect", "--manifest", "m.ini", "--out", "r.tsv"])
        assert args.workers == 1

    @pytest.mark.parametrize("flag, value", [
        ("--bfdr-level", "2"), ("--gamma2", "0.7"), ("--gamma2", "abc"), ("--tol", "0"),
        ("--max-iter", "0"), ("--seed", "-1"), ("--workers", "0"),
        ("--min-spots-per-gene", "-1"), ("--min-genes-per-spot", "-1"),
    ])
    def test_bad_option_fails_before_loading(
            self, sim_dir, tmp_path, monkeypatch, caplog, flag, value):
        def no_load(manifest):
            raise AssertionError("data loaded before the options were checked")

        monkeypatch.setattr(dataio.Manifest, "read", no_load)
        monkeypatch.setattr(dataio, "load_dataset", no_load)
        report = tmp_path / "never.tsv"
        code = run([
            "detect", "--manifest", str(sim_dir / "manifest.ini"), "--out", str(report),
            flag, value,
        ])
        assert code == 1
        assert f"{flag}: " in caplog.text
        assert not report.exists()

    @pytest.mark.parametrize("options, flag", [
        (["--grid", "10"], "--grid"), (["--grid", "0x5"], "--grid"),
        (["--grid", "4x-4"], "--grid"), (["--grid", "axb"], "--grid"),
        (["--beta0", "inf"], "--beta0"), (["--dropout", "1.5"], "--dropout"),
        (["--genes", "0", "--sv-genes", "0"], "--genes"),
        (["--genes", "3", "--sv-genes", "5"], "--sv-genes"),
        (["--seed", "-1"], "--seed"), (["--samples", "0"], "--samples"),
        (["--pattern", "none", "--sv-genes", "2"], "--sv-genes"),
    ])
    def test_bad_simulate_option_fails_before_generating(
            self, tmp_path, monkeypatch, caplog, options, flag):
        def no_generate(cfg):
            raise AssertionError("data generated before the options were checked")

        monkeypatch.setattr(cli.simulate, "generate", no_generate)
        out = tmp_path / "sim"
        code = run([
            "simulate", "--out", str(out), "--grid", "4x4", "--genes", "4", "--sv-genes", "1",
            *options,
        ])
        assert code == 1
        assert f"{flag}: " in caplog.text
        assert not (out / "manifest.ini").exists()

    def test_pattern_none_takes_no_sv_genes(self, tmp_path, caplog):
        # With --pattern none, SV genes are refused under their flag, not by
        # a KeyError from the signal tiers, and --sv-genes 0 simulates.
        out = tmp_path / "sim"
        assert run(["simulate", "--out", str(out), "--grid", "4x4", "--genes", "2",
                    "--pattern", "none", "--sv-genes", "2"]) == 1
        assert ("--sv-genes: pattern 'none' gives no gene a spatial effect, so n_sv must be 0, "
                "got 2") in caplog.text
        assert not (out / "manifest.ini").exists()
        assert run(["simulate", "--out", str(out), "--grid", "4x4", "--genes", "2",
                    "--pattern", "none", "--sv-genes", "0"]) == 0
        assert (out / "manifest.ini").exists()

    def test_overflowing_beta0_fails_under_its_flag(self, tmp_path, caplog):
        # A finite --beta0 whose spatial effect overflows is refused before
        # any draw, under its flag, not by numpy's Poisson draw.
        out = tmp_path / "sim"
        code = run([
            "simulate", "--out", str(out), "--grid", "4x4", "--genes", "2", "--sv-genes", "1",
            "--samples", "1", "--beta0", "1e308",
        ])
        assert code == 1
        assert "--beta0: beta0 = 1e+308 gives a non-finite linear spatial effect" in caplog.text
        assert not (out / "manifest.ini").exists()

    def test_auto_degree_and_gamma2_override(self, sim_dir, tmp_path):
        out = tmp_path / "auto.tsv"
        code = run([
            "detect", "--manifest", str(sim_dir / "manifest.ini"), "--out", str(out),
            "--degree", "auto", "--gamma2", "0.005", "--seed", "4",
            "--min-spots-per-gene", "0", "--min-genes-per-spot", "0",
        ])
        assert code == 0
        meta, _ = read_report(out)
        assert meta["degree"] in {"1", "2", "3", "4"}
        assert float(meta["gamma2"]) == 0.005


class TestBlocks:
    """Genes are fit in fixed blocks cut by gene index."""

    def test_one_block_fit_per_block(self, sim_dir, monkeypatch):
        ds = dataio.load_dataset(dataio.Manifest.read(str(sim_dir / "manifest.ini")))
        designs = [
            cli.build_design(cli.normalize_coords(s.coords), s.covariates, cli.BasisSpec(2))
            for s in ds.samples
        ]
        hp = cli.Hyperparameters.default(ds.n_samples, 2)
        calls = []
        real = cli.fit_genes

        def counting(counts, *args):
            calls.append(len(counts[0]))
            return real(counts, *args)

        monkeypatch.setattr(cli, "fit_genes", counting)
        # Blocks of 5 cut the 14 genes into 5, 5 and 4.
        cli._init_worker([s.counts for s in ds.samples], designs, hp, cli.FitOptions(), 5)
        results = [cli._fit_gene_task(i) for i in reversed(range(ds.n_genes))]
        assert calls == [4, 5, 5]
        assert not cli._CTX["results"]
        for i, res in zip(reversed(range(ds.n_genes)), results):
            want = cli.fit_gene([s.counts[i] for s in ds.samples], designs, hp)
            assert (res.iterations, res.converged) == (want.iterations, want.converged)
            assert res.e_u == pytest.approx(want.e_u, rel=1e-10)

    def test_block_densifies_each_sample_once(self, sim_dir, monkeypatch):
        # Blocks of 5 cut the 14 genes into 5, 5 and 4: each sample's counts
        # are indexed once per block, by the block's gene slice.
        ds = dataio.load_dataset(dataio.Manifest.read(str(sim_dir / "manifest.ini")))
        designs = [
            cli.build_design(cli.normalize_coords(s.coords), s.covariates, cli.BasisSpec(2))
            for s in ds.samples
        ]
        hp = cli.Hyperparameters.default(ds.n_samples, 2)
        keys = []
        real = dataio.CsrCounts.__getitem__

        def counting(counts, genes):
            keys.append(genes)
            return real(counts, genes)

        monkeypatch.setattr(dataio.CsrCounts, "__getitem__", counting)
        cli._init_worker([s.counts for s in ds.samples], designs, hp, cli.FitOptions(), 5)
        results = [cli._fit_gene_task(i) for i in range(ds.n_genes)]
        assert keys == [slice(start, min(start + 5, 14))
                        for start in (0, 5, 10) for _ in ds.samples]
        for i, res in enumerate(results):
            want = cli.fit_gene([real(s.counts, i) for s in ds.samples], designs, hp)
            assert (res.iterations, res.converged) == (want.iterations, want.converged)
            assert res.e_u == pytest.approx(want.e_u, rel=1e-10)

    def test_in_process_runs_on_different_datasets(self, sim_dir, tmp_path):
        # Every run starts from an empty block cache: a stale block from an
        # earlier run would answer for the wrong genes or indices.
        other = tmp_path / "other"
        assert run([
            "simulate", "--out", str(other), "--grid", "10x10", "--genes", "30",
            "--sv-genes", "3", "--dropout", "0.2", "--seed", "8", "--samples", "2",
        ]) == 0
        args = ["--degree", "2", "--workers", "1", "--min-spots-per-gene", "0",
                "--min-genes-per-spot", "0"]
        reports = []
        for data, name in ((sim_dir, "a1"), (other, "b"), (sim_dir, "a2")):
            out = tmp_path / f"{name}.tsv"
            assert run(["detect", "--manifest", str(data / "manifest.ini"),
                        "--out", str(out)] + args) == 0
            reports.append(out)
        assert reports[0].read_bytes() == reports[2].read_bytes()
        _, rows = read_report(reports[1])
        assert [r["gene_id"] for r in rows] == [f"g{i:05d}" for i in range(30)]
        assert all(r["converged"] for r in rows)


class TestDegreeSubset:
    """``detect --degree auto`` fits every gene when there are at most 50."""

    def test_small_dataset_leaves_numpy_random_unloaded(self, sim_dir, tmp_path):
        # sim_dir's 14 genes are all fit in index order, so no draw is made
        # and numpy.random (with the OpenSSL it imports) is never loaded.
        code = (
            "import sys\n"
            "from svjoint import cli\n"
            "data, out = sys.argv[1:]\n"
            "assert cli.main(['detect', '--manifest', data + '/manifest.ini',\n"
            "                 '--out', out, '--degree', 'auto', '--min-spots-per-gene', '0',\n"
            "                 '--min-genes-per-spot', '0']) == 0\n"
            "print('numpy.random' in sys.modules)"
        )
        src = os.path.dirname(os.path.dirname(cli.__file__))
        out = subprocess.run(
            [sys.executable, "-c", code, str(sim_dir), str(tmp_path / "report.tsv")],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            check=True, timeout=120,
        )
        assert out.stdout.strip() == "False"
        assert cli.degree_subset(14, seed=5) == list(range(14))

    def test_large_dataset_draws_from_seed(self, tmp_path, monkeypatch):
        data = tmp_path / "data"
        assert run([
            "simulate", "--out", str(data), "--grid", "8x8", "--genes", "60",
            "--sv-genes", "6", "--samples", "1", "--seed", "4",
        ]) == 0
        subsets = []

        def recording(ds, candidates, gene_subset):
            subsets.append(gene_subset)
            return 2

        monkeypatch.setattr(cli, "select_degree", recording)
        assert run(["detect", "--manifest", str(data / "manifest.ini"),
                    "--out", str(tmp_path / "report.tsv"), "--degree", "auto", "--seed", "3",
                    "--min-spots-per-gene", "0", "--min-genes-per-spot", "0"]) == 0
        assert subsets == [np.random.default_rng(3).choice(60, 50, replace=False).tolist()]
