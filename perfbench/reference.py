"""A fixed CPU kernel that measures how fast this machine runs right now.

The benchmark runs it in its own process before every detect process and
once after the last.  It uses only numpy and scipy, never `svjoint`, so no
change to the program under test can change its time: what moves it is the
machine (CPU speed, cores shared with other tenants).  Its work mirrors the
kinds detect does -- an L-BFGS likelihood fit like the ZINB degree
selection, and an elementwise exp / small dense solve loop like the CAVI
updates -- so that a slow period slows both alike.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import minimize

# End-to-end times are reported as if the kernel had taken this long: about
# its time (0.9-1.1 s) on the 2-vCPU Xeon guest of perfbench/baseline.json.
NOMINAL_S = 1.0

_rng = np.random.default_rng(20250413)
_X = np.column_stack([np.ones(2304), _rng.standard_normal((2304, 5)) * 0.3])
_Y = _rng.poisson(np.exp(_X @ np.array([1.0, 0.4, -0.3, 0.2, 0.1, -0.2])))
_A = _rng.standard_normal((12, 12))
_A = _A @ _A.T + 12.0 * np.eye(12)
_T = np.linspace(0.0, 1.0, 4096)


def _poisson_nll_grad(beta):
    eta = _X @ beta
    mu = np.exp(eta)
    return float(mu.sum() - _Y @ eta), _X.T @ (mu - _Y)


def _kernel():
    acc = 0.0
    for _ in range(300):
        fit = minimize(_poisson_nll_grad, np.zeros(_X.shape[1]), jac=True,
                       method="L-BFGS-B", options={"maxiter": 200})
        acc += float(fit.fun)
    for i in range(18000):
        v = np.exp(-_T * (i % 9) * 0.25)
        acc += float(v.sum()) + float(np.linalg.solve(_A, v[:12]).sum())
    return acc


def run():
    """Run the kernel once; return its wall time in seconds."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0
