"""Outside-in span tracer for `svjoint detect`, and the per-layer arithmetic.

The tracer replaces public names that the svjoint modules look up at call
time (module globals and one class attribute) with wrappers that record a
span per call: (id, parent id, name, gene index, start, end, raised, note).
Nothing inside `src/` is changed.  Spans stay in memory and are written out
once, when the detect process ends.

Self time is derived afterwards from the nesting: a span's duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import itertools
import os
import time

import numpy as np

# Span tuple layout.
SID, PARENT, NAME, GENE, START, END, ERR, NOTE = range(8)


def _mvn_flops(mu, sigma, c):
    """Floating-point operations of one E[exp(-C theta)] evaluation.

    Computed from the argument shapes, not measured: C @ Sigma (2 n d^2),
    the row-wise dot with C (2 n d), C @ mu (2 n d) and the exponential (n).
    """
    if getattr(c, "ndim", 1) != 2:
        return 0.0
    n, d = c.shape
    return float(2 * n * d * d + 4 * n * d + n)


def _none_result(result):
    return 1.0 if result is None else 0.0


class Tracer:
    """Collects spans for one process; a forked worker re-bases on first use."""

    def __init__(self):
        self.gene = -1
        self.reset()

    def reset(self):
        """Start an empty span list with ids unique to the calling process."""
        self.pid = os.getpid()
        self.spans = []
        self._stack = []
        self._ids = itertools.count(self.pid << 32)

    def wrap(self, name, fn, note_args=None, note_result=None):
        """Return ``fn`` wrapped so that each call records one span.

        ``note_args(*args, **kwargs)`` or ``note_result(result)`` may attach
        one number to the span (a computed FLOP count, a failure flag).
        """
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(self._ids)
            stack = self._stack
            parent = stack[-1] if stack else -1
            stack.append(sid)
            note = note_args(*args, **kwargs) if note_args is not None else 0.0
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = clock()
                stack.pop()
                if note_result is not None and not raised:
                    note = note_result(result)
                self.spans.append((sid, parent, name, self.gene, start, end, raised, note))
            return result

        return traced


def install(tracer):
    """Replace every traced name with its span-recording wrapper."""
    from svjoint import cli, dataio, engine, numerics, selection, splines

    targets = [
        (cli, "select_degree", "splines.select_degree", {}),
        (cli, "build_design", "splines.build_design", {}),
        (cli, "fit_gene", "engine.fit_gene", {}),
        (dataio, "load_dataset", "dataio.load_dataset", {}),
        (dataio, "filter_dataset", "dataio.filter_dataset", {}),
        (dataio, "write_report", "dataio.write_report", {}),
        (selection, "build_report", "selection.build_report", {}),
        (splines, "build_design", "splines.build_design", {}),
        (splines, "zinb_mle", "splines.zinb_mle", {"note_result": _none_result}),
        (engine, "init_state", "engine.init_state", {}),
        (engine, "compute_elbo", "engine.compute_elbo", {}),
        (engine, "mvn_exp_neg_linear", "numerics.mvn_exp_neg_linear",
         {"note_args": _mvn_flops}),
        (engine, "phi_factor", "numerics.phi_factor", {}),
        (numerics.PhiQuadCache, "refresh", "numerics.phi_refresh", {}),
    ]
    for update in ("theta", "phi", "g", "r", "sigma", "a", "alpha", "u", "p", "q"):
        attr = f"update_{update}"
        targets.append((engine, attr, f"engine.{attr}", {}))
    for owner, attr, name, notes in targets:
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), **notes))


def to_arrays(spans):
    """Columnar form of span tuples; a span's process id is ``sid >> 32``."""
    names = sorted({s[NAME] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    return {
        "sid": np.array([s[SID] for s in spans], dtype=np.int64),
        "parent": np.array([s[PARENT] for s in spans], dtype=np.int64),
        "name": np.array([index[s[NAME]] for s in spans], dtype=np.int32),
        "names": np.array(names, dtype=str),
        "gene": np.array([s[GENE] for s in spans], dtype=np.int64),
        "start": np.array([s[START] for s in spans], dtype=float),
        "end": np.array([s[END] for s in spans], dtype=float),
        "err": np.array([s[ERR] for s in spans], dtype=bool),
        "note": np.array([s[NOTE] for s in spans], dtype=float),
    }


def parent_index(sid, parent):
    """Row index of each span's parent, or -1 for a root span."""
    if sid.size == 0:
        return np.zeros(0, dtype=np.int64)
    order = np.argsort(sid)
    pos = np.minimum(np.searchsorted(sid[order], parent), sid.size - 1)
    return np.where(sid[order][pos] == parent, order[pos], -1)


def self_times(sid, parent, start, end):
    """Duration minus the summed durations of direct children, per span."""
    dur = end - start
    pidx = parent_index(sid, parent)
    child = np.bincount(pidx[pidx >= 0], weights=dur[pidx >= 0], minlength=sid.size)
    return dur - child
