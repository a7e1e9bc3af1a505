"""Tests of the benchmark's own arithmetic and checks.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import check  # noqa: E402
import layers  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_self_times_on_fake_call_tree():
    # Process 1: a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 8].
    # Process 2: e [2, 5] is a root of its own, overlapping a in time.
    p1, p2 = 1 << 32, 2 << 32
    sid = np.array([p1 + 3, p1 + 1, p1 + 0, p1 + 2, p2 + 0])  # d, b, a, c, e
    parent = np.array([p1 + 2, p1 + 0, -1, p1 + 0, -1])
    start = np.array([6.0, 1.0, 0.0, 5.0, 2.0])
    end = np.array([8.0, 4.0, 10.0, 9.0, 5.0])
    own = tracer.self_times(sid, parent, start, end)
    np.testing.assert_allclose(own, [2.0, 3.0, 3.0, 2.0, 3.0])
    np.testing.assert_array_equal(tracer.parent_index(sid, parent), [3, 2, -1, 2, -1])
    # Within one process the self times add up to the root's duration.
    assert own[:4].sum() == pytest.approx(10.0)


def test_tracer_records_parents_errors_and_notes():
    t = tracer.Tracer()

    def leaf(x):
        if x < 0:
            raise ValueError("negative")
        return x

    traced_leaf = t.wrap("leaf", leaf, note_result=lambda r: float(r))

    def outer(xs):
        total = 0
        for x in xs:
            try:
                total += traced_leaf(x)
            except ValueError:
                pass
        return total

    t.gene = 7
    assert t.wrap("outer", outer)([2, -1, 3]) == 5
    spans = t.spans
    assert [s[tracer.NAME] for s in spans] == ["leaf", "leaf", "leaf", "outer"]
    root = spans[-1]
    assert all(s[tracer.PARENT] == root[tracer.SID] for s in spans[:3])
    assert root[tracer.PARENT] == -1
    assert [s[tracer.ERR] for s in spans] == [False, True, False, False]
    assert [s[tracer.NOTE] for s in spans[:3]] == [2.0, 0.0, 3.0]
    assert {s[tracer.GENE] for s in spans} == {7}
    arrays = tracer.to_arrays(spans)
    own = tracer.self_times(arrays["sid"], arrays["parent"], arrays["start"], arrays["end"])
    assert own.sum() == pytest.approx(root[tracer.END] - root[tracer.START])


def _write_report(path, rows):
    lines = ["# degree=3 gamma2=0.01 n_failed=0",
             "gene_id\te_u1\te_u2\tu_tilde\tselected\tconverged"]
    lines += ["\t".join(r) for r in rows]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


TRUTH_IDS = ("g1", "g2", "g3", "g4")
TRUTH_FLAGS = np.array([True, False, False, True])
GOOD_ROWS = [
    ("g1", "0.999", "0.2", "0.999", "1", "1"),
    ("g2", "0.01", "0.02", "0.02", "0", "1"),
    ("g3", "0.5", "0.999", "0.999", "1", "1"),
]


def test_check_accepts_valid_report(tmp_path):
    path = tmp_path / "report.tsv"
    _write_report(path, GOOD_ROWS)
    meta, f1, fpr = check.check_report(path, ("g1", "g2", "g3"), TRUTH_IDS, TRUTH_FLAGS)
    assert meta["degree"] == "3"
    # g4 was filtered out and counts as unselected: tp=1, fp=1, fn=1, tn=1.
    assert f1 == pytest.approx(0.5)
    assert fpr == pytest.approx(0.5)


def test_check_rejects_missing_gene(tmp_path):
    path = tmp_path / "report.tsv"
    _write_report(path, GOOD_ROWS[:2])
    with pytest.raises(check.CheckError, match="missing"):
        check.check_report(path, ("g1", "g2", "g3"), TRUTH_IDS, TRUTH_FLAGS)


def test_check_rejects_non_finite_value(tmp_path):
    path = tmp_path / "report.tsv"
    _write_report(path, GOOD_ROWS[:2] + [("g3", "0.5", "nan", "nan", "0", "1")])
    with pytest.raises(check.CheckError, match="not finite"):
        check.check_report(path, ("g1", "g2", "g3"), TRUTH_IDS, TRUTH_FLAGS)


def test_check_rejects_disagreeing_headers():
    metas = [{"degree": "2", "gamma2": "0.005"}, {"degree": "3", "gamma2": "0.005"}]
    with pytest.raises(check.CheckError, match="differ"):
        check.check_header_agreement(metas, "auto")
    with pytest.raises(check.CheckError, match="requested"):
        check.check_header_agreement(metas[:1], "3")


def test_summarize_rescales_times_by_reference_speed():
    record = {"ok": True, "trace": False, "genes": 10, "n_failed": 0,
              "meta": {"degree": "2", "gamma2": "0.005"}, "report_sha256": "x",
              "detect_s": 8.0, "setup_wall_s": 2.0,
              "peak_rss_mb": 100.0, "f1": 1.0, "specificity": 1.0, "fit_ok_frac": 1.0}
    # The machine ran the kernel at twice its nominal time on average: times halve.
    refs = [2.2 * reference.NOMINAL_S, 2.3 * reference.NOMINAL_S, 1.5 * reference.NOMINAL_S]
    records = [dict(record), dict(record, detect_s=10.0, setup_wall_s=2.4),
               dict(record, setup_wall_s=1.0)]
    correct, attempted, failed, metrics = run.summarize(
        workloads.WORKLOADS["pool-small"], records, [], refs, False)
    assert (correct, attempted, failed) == (True, 30, 0)
    # Mean detect time (8 + 10 + 8) / 3 = 26 / 3 s; median set-up time 2 s.
    assert metrics["detect_norm_s"]["value"] == pytest.approx(13.0 / 3.0)
    assert metrics["genes_per_norm_s"]["value"] == pytest.approx(30.0 / 13.0)
    assert metrics["setup_s"]["value"] == pytest.approx(1.0)
    assert metrics["peak_rss_mb"]["value"] == 100.0


def test_smoke_mode_runs_every_workload_shape():
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("correct=True") == len(workloads.WORKLOADS)


def test_benchmark_json_lists_the_metrics_the_code_prints():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layers.METRICS
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
