"""Run `svjoint detect` in this process, with phase marks and optional tracing.

    python3 perfbench/child.py SIDECAR TRACE detect --manifest ... --out ...

Calls `svjoint.cli.main` on the arguments after TRACE and exits with its
code.  Always marks two phase boundaries on the system-wide monotonic clock
(the parent-side `build_design` return and the `build_report` entry) and
collects each gene's fit outcome and each pool worker's peak RSS.  With
TRACE=1 it also installs the span tracer; worker spans come back attached
to each gene's result.  SIDECAR (JSON) and, when tracing, SIDECAR with an
``.npz`` suffix are written when detect returns.  The report is the same
with or without these hooks.
"""

import functools
import json
import multiprocessing
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402
import tracer as tracing  # noqa: E402
from svjoint import cli, selection  # noqa: E402


def _peak_rss_mb():
    """High-water RSS of this process's own address space.

    `getrusage` is not used: its ru_maxrss also counts the address space
    the process had before exec, which is the benchmark's own.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(argv):
    sidecar, trace, detect_argv = argv[0], argv[1] == "1", argv[2:]
    marks = {}
    genes = []
    worker_rss = {}
    worker_spans = []
    parent_pid = os.getpid()
    tracer = tracing.Tracer()
    if trace:
        tracing.install(tracer)

    design = cli.build_design

    @functools.wraps(design)
    def build_design(*args, **kwargs):
        out = design(*args, **kwargs)
        marks["design_end"] = time.perf_counter()
        return out

    report = selection.build_report

    @functools.wraps(report)
    def build_report(gene_ids, results, *args, **kwargs):
        marks["fit_end"] = time.perf_counter()
        for r in results:
            genes.append([r.iterations, r.converged, r.failure is not None])
            pid, rss, spans = r.bench
            if pid != parent_pid:
                worker_rss[pid] = max(worker_rss.get(pid, 0.0), rss)
            worker_spans.extend(spans)
        return report(gene_ids, results, *args, **kwargs)

    task = cli._fit_gene_task
    traced_task = tracer.wrap("cli.fit_task", task) if trace else task

    @functools.wraps(task)
    def fit_task(gene_index):
        pid = os.getpid()
        if pid != tracer.pid:
            tracer.reset()
        tracer.gene = gene_index
        result = traced_task(gene_index)
        tracer.gene = -1
        spans = []
        if pid != parent_pid:
            spans, tracer.spans = tracer.spans, []
        result.bench = (pid, _peak_rss_mb(), spans)
        return result

    cli.build_design = build_design
    selection.build_report = build_report
    cli._fit_gene_task = fit_task

    try:
        return cli.main(detect_argv)
    finally:
        if trace:
            np.savez(sidecar[: -len(".json")] + ".npz",
                     **tracing.to_arrays(tracer.spans + worker_spans))
        with open(sidecar, "w") as fh:
            json.dump({
                "pid": parent_pid,
                "marks": marks,
                "genes": genes,
                "parent_rss_mb": _peak_rss_mb(),
                "worker_rss_mb": {str(k): v for k, v in worker_rss.items()},
                "start_method": multiprocessing.get_start_method(),
            }, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
