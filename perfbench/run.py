"""Benchmark of `svjoint detect` on seeded simulated datasets.

    python3 perfbench/run.py --workload pool-small --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --smoke

A run builds (or reuses) the workload's dataset for the seed, runs one
discarded warm-up detect on the workload's smoke-sized dataset, then runs
`svjoint detect` as a fresh process, one at a time (a closed loop of one
client), until --seconds have passed.  Every run's report is checked (see
check.py).  The last stdout line is one JSON object with ``correct``,
``attempted`` and ``failed`` (genes) and the metrics: with --trace 0 the
end-to-end metrics over the run's detect processes (see summarize), with
--trace 1 the per-layer metrics of traced processes, which alternate with
untraced ones to measure the tracing overhead.

This machine's speed drifts by up to a third over minutes, so a fixed
reference kernel (reference.py, numpy and scipy only) runs before every
detect process and once after the last, and the end-to-end times are
reported rescaled to the speed at which that kernel takes
reference.NOMINAL_S.  The raw wall times stay in the results file.

Everything the benchmark writes goes under ``.perfbench/`` in the checkout:
cached datasets, per-run logs, sidecars and span files, and one results
file per (workload, seed, trace) that also records the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

# BLAS and OpenMP run single-threaded in every detect process, so that the
# pool workers and the serial fit are not split across hidden threads.  The
# pin is set before numpy loads so that the reference kernel runs the same way.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

STARTED = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, SRC)

import check  # noqa: E402
import layers  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

# No detect starts that could not end this long after the benchmark started
# (a run must end within 180 s).
RUN_BUDGET_S = 150.0

# The times are wall times rescaled to a machine on which the reference
# kernel takes reference.NOMINAL_S (see reference.py and summarize).
# setup_s keeps the name the benchmark contract gives it.  The rest are
# medians over the run's detect processes.
END_TO_END = {
    "detect_norm_s": "s",
    "genes_per_norm_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "f1": "frac",
    "specificity": "frac",
    "fit_ok_frac": "frac",
}


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment():
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_pin": BLAS_PIN,
        "git_commit": _git_commit(),
    }


def run_detect(workload, ds, genes, seed, trace, run_dir, tag, timeout):
    """Run one detect process and return its record (timings and check outcome)."""
    out = os.path.join(run_dir, f"{tag}.tsv")
    sidecar = os.path.join(run_dir, f"{tag}.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), sidecar, "1" if trace else "0",
           "detect", "--manifest", ds.manifest, "--out", out]
    cmd += workload.detect_args(genes, seed)
    env = dict(os.environ, **BLAS_PIN)
    env.pop("SVJOINT_WORKERS", None)
    with open(os.path.join(run_dir, f"{tag}.log"), "w") as log:
        t_popen = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=log, env=env, cwd=ROOT,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            code = proc.wait()
        t_exit = time.perf_counter()
    rec = {"tag": tag, "trace": trace, "exit": code, "detect_s": t_exit - t_popen,
           "genes": len(ds.survivors), "ok": False}
    try:
        if code != 0:
            raise check.CheckError(f"detect exited with {code}; see {tag}.log")
        with open(sidecar) as fh:
            side = json.load(fh)
        meta, f1, fpr = check.check_report(out, ds.survivors, ds.truth_ids, ds.truth_flags)
        with open(out, "rb") as fh:
            rec["report_sha256"] = hashlib.sha256(fh.read()).hexdigest()
    except (check.CheckError, OSError, ValueError, KeyError) as exc:
        rec["error"] = str(exc)
        return rec, None
    marks = side["marks"]
    n_failed = int(meta["n_failed"])
    rec.update(
        ok=True,
        meta=meta,
        n_failed=n_failed,
        setup_wall_s=marks["design_end"] - t_popen,
        fit_phase_s=marks["fit_end"] - marks["design_end"],
        peak_rss_mb=side["parent_rss_mb"] + sum(side["worker_rss_mb"].values()),
        f1=f1,
        specificity=1.0 - fpr,
        fit_ok_frac=1.0 - n_failed / len(ds.survivors),
        start_method=side["start_method"],
    )
    if not trace:
        return rec, None
    with np.load(sidecar[: -len(".json")] + ".npz") as npz:
        spans = {k: npz[k] for k in npz.files}
    metrics, breakdown = layers.layer_metrics(
        spans, side, t_popen, t_exit, workload.workers, ds.n_bytes
    )
    rec["breakdown"] = breakdown
    return rec, metrics


def measure(workload, ds, seed, seconds, trace, run_dir):
    """Closed loop: detect processes back to back until ``seconds`` have passed.

    The reference kernel runs before every detect process and once after the
    last; its times are returned with the records.  An untraced run keeps at least two processes (set-up is a median over
    several); a traced run alternates untraced and traced processes and keeps
    at least one of each.  No process starts that the remaining time cannot
    hold, judged by the slowest one so far.
    """
    t0 = time.perf_counter()
    deadline = t0 + seconds
    records, layer_runs, refs = [], [], []
    slowest = 0.0
    while True:
        n = len(records)
        now = time.perf_counter()
        if n >= 2 and now + slowest > deadline:
            break
        if n >= 1 and now - STARTED + slowest > RUN_BUDGET_S:
            break
        traced = trace and n % 2 == 1
        refs.append(reference.run())
        timeout = max(RUN_BUDGET_S + 20.0 - (time.perf_counter() - STARTED), 10.0)
        rec, metrics = run_detect(workload, ds, workload.genes, seed, traced, run_dir,
                                  f"rep{n:02d}", timeout)
        records.append(rec)
        if metrics is not None:
            layer_runs.append(metrics)
        slowest = max(slowest, refs[-1] + rec["detect_s"])
    refs.append(reference.run())
    return records, layer_runs, refs


def summarize(workload, records, layer_runs, refs, trace):
    """Correctness verdict, gene counts and the metrics to print for one run.

    Detect and set-up times are rescaled by NOMINAL_S / (mean reference
    time of the run): the machine's speed drifts by up to a third over
    minutes, and the kernel, which no program change can move, slows with it.
    Detect time is the mean over the run's processes, so that it and the
    reference are both time averages over the same stretch of the machine's
    speed; genes_per_norm_s is genes fit over that time.  Set-up time is the
    median over processes.
    """
    ok = [r for r in records if r["ok"]]
    try:
        check.check_header_agreement([r["meta"] for r in ok], workload.degree)
        if len({r["report_sha256"] for r in ok}) > 1:
            raise check.CheckError("reports differ between detect processes")
    except check.CheckError as exc:
        for r in ok:
            r.update(ok=False, error=str(exc))
        ok = []
    correct = len(ok) == len(records)
    attempted = sum(r["genes"] for r in records)
    failed = sum(r["n_failed"] if r["ok"] else r["genes"] for r in records)
    ref_s = statistics.mean(refs)
    speed = reference.NOMINAL_S / ref_s
    metrics = {}
    if trace:
        plain = [r["detect_s"] for r in ok if not r["trace"]]
        traced = [r["detect_s"] for r in ok if r["trace"]]
        for name, unit in layers.METRICS.items():
            if name == "trace.overhead_frac":
                value = (statistics.median(traced) / statistics.median(plain) - 1.0
                         if plain and traced else 0.0)
            elif name == "bench.detect_wall_s":
                value = statistics.mean(plain) if plain else 0.0
            elif name == "bench.reference_s":
                value = ref_s
            else:
                value = statistics.median(m[name] for m in layer_runs) if layer_runs else 0.0
            metrics[name] = {"value": value, "unit": unit}
    elif ok:
        detect_s = statistics.mean(r["detect_s"] for r in ok) * speed
        values = {
            "detect_norm_s": detect_s,
            "genes_per_norm_s": statistics.mean(r["genes"] for r in ok) / detect_s,
            "setup_s": statistics.median(r["setup_wall_s"] for r in ok) * speed,
        }
        for name, unit in END_TO_END.items():
            value = values[name] if name in values else statistics.median(r[name] for r in ok)
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {name: {"value": 0.0, "unit": unit} for name, unit in END_TO_END.items()}
    return correct, attempted, failed, metrics


def run(workload_name, seed, seconds, trace):
    workload = workloads.WORKLOADS[workload_name]
    run_dir = os.path.join(WORK, "runs", f"{workload_name}-s{seed}-trace{int(trace)}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    ds = workloads.prepare(workload, seed, workload.genes, WORK, SRC)
    warm_ds = workloads.prepare(workload, 0, workload.smoke_genes, WORK, SRC)
    warm, _ = run_detect(workload, warm_ds, workload.smoke_genes, 0, False, run_dir,
                         "warmup", 60.0)
    records, layer_runs, refs = measure(workload, ds, seed, seconds, trace, run_dir)
    correct, attempted, failed, metrics = summarize(workload, records, layer_runs, refs,
                                                    trace)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    results_dir = os.path.join(WORK, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{workload_name}-s{seed}-trace{int(trace)}.json"),
              "w") as fh:
        json.dump({
            "workload": workload_name, "seed": seed, "seconds": seconds, "trace": trace,
            "environment": environment(),
            "dataset": {"directory": ds.directory, "genes_fit": len(ds.survivors),
                        "bytes": ds.n_bytes, "cached": ds.cached,
                        "generate_s": ds.generate_s},
            "warmup_discarded": {k: warm.get(k) for k in ("detect_s", "ok", "error")},
            "reference_s": refs,
            "runs": records,
            "result": result,
        }, fh, indent=1, default=str)
    print(
        f"{workload_name} seed={seed}: {len(records)} detect runs, correct={correct}, "
        f"dataset {'cached' if ds.cached else 'generated'} in {ds.generate_s:.2f} s "
        f"(not in any metric), warm-up {warm['detect_s']:.2f} s discarded",
        file=sys.stderr,
    )
    for r in records:
        if not r["ok"]:
            print(f"  {r['tag']}: {r.get('error')}", file=sys.stderr)
    return result


def smoke(seed):
    """Each workload shape on its smoke-sized dataset: one untraced, one traced run."""
    all_ok = True
    for workload in workloads.WORKLOADS.values():
        run_dir = os.path.join(WORK, "runs", f"smoke-{workload.name}")
        shutil.rmtree(run_dir, ignore_errors=True)
        os.makedirs(run_dir)
        ds = workloads.prepare(workload, seed, workload.smoke_genes, WORK, SRC)
        records, layer_runs, refs = [], [], [reference.run()]
        for traced in (False, True):
            rec, metrics = run_detect(workload, ds, workload.smoke_genes, seed, traced,
                                      run_dir, f"smoke{int(traced)}", 120.0)
            records.append(rec)
            if metrics is not None:
                layer_runs.append(metrics)
        correct = summarize(workload, records, layer_runs, refs, True)[0]
        all_ok &= correct and len(layer_runs) == 1
        print(f"{workload.name}: genes={len(ds.survivors)} correct={correct} "
              f"detect_s={[round(r['detect_s'], 2) for r in records]}"
              + "".join(f" error={r['error']}" for r in records if "error" in r))
    return all_ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload shape on a few genes and exit")
    args = parser.parse_args(argv)
    if args.smoke:
        return 0 if smoke(args.seed) else 1
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
