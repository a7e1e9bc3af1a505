"""End-to-end command-line runs on small datasets."""

import pytest

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


class TestDetect:
    def test_worker_count_invariance(self, sim_dir, tmp_path):
        out1 = tmp_path / "r1.tsv"
        out2 = tmp_path / "r2.tsv"
        common = [
            "detect", "--manifest", str(sim_dir / "manifest.ini"),
            "--degree", "2", "--seed", "3",
            "--min-spots-per-gene", "0", "--min-genes-per-spot", "0",
        ]
        assert run(common + ["--out", str(out1), "--workers", "1"]) == 0
        assert run(common + ["--out", str(out2), "--workers", "2"]) == 0
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
    def test_worker_env_default(self, monkeypatch):
        from svjoint.cli import _default_workers

        monkeypatch.setenv("SVJOINT_WORKERS", "6")
        assert _default_workers() == 6
        monkeypatch.setenv("SVJOINT_WORKERS", "bogus")
        assert _default_workers() == 1
        monkeypatch.delenv("SVJOINT_WORKERS")
        assert _default_workers() == 1

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
