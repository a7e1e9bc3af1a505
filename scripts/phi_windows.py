"""q(phi) quadrature windows over a fixed (N_pi, c1) grid, as JSON.

    python3 scripts/phi_windows.py
    python3 scripts/phi_windows.py --n-pi 10 136 1000 --ratio 1.04 2.37

For each grid point (N_pi, c1 = N_pi * ratio + 0.01) the script prints the
window search the point takes (``curvature`` for the cut from the mode's
curvature, ``ladder`` for the ladder-and-lattice search; see
``svjoint.numerics._h_windows``), the window's width in u = log phi, its
node count and the error of ``phi_factor``'s log_h0 and e_phi against the
same factor on 384 nodes.  It then times one cold refit of 96 rows with
N_pi and c1 / N_pi drawn around what the pool-small benchmark's fits reach
(N_pi 110-230, c1 / N_pi 1.03-2.6): the best of ``--repeats`` refits of
an empty window, each with its own mode search.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from svjoint import numerics  # noqa: E402
from svjoint.numerics import PhiQuadCache, phi_factor  # noqa: E402

N_PI = (0.0, 1.0, 10.0, 19.0, 20.0, 136.0, 500.0, 1000.0, 2000.0, 5000.0)
RATIOS = (1.001, 1.04, 1.2, 2.37, 10.0)


def grid_point(a_phi, s, t):
    got = phi_factor(a_phi, s, t)
    want = phi_factor(a_phi, s, t, node_count=384)
    u_lo, _, u_hi, curved, _ = numerics._h_windows(a_phi - 1.0, 0, 1.0, np.array([s]),
                                                   np.array([t]))
    return {
        "n_pi": s, "c1": t, "path": "curvature" if curved[0] else "ladder",
        "width": float(u_hi[0] - u_lo[0]), "nodes": int(got.window.n),
        "log_h0_err": abs(float(got.log_h0 - want.log_h0)) / max(1.0, abs(float(want.log_h0))),
        "e_phi_err": abs(float(got.e_phi - want.e_phi)) / abs(float(want.e_phi)),
    }


def cold_refit_s(a_phi, rows, repeats):
    rng = np.random.default_rng(0)
    s = rng.uniform(110.0, 230.0, rows)
    t = s * rng.uniform(1.03, 2.6, rows)
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        _, lost = PhiQuadCache.empty(rows).refresh(a_phi, s, t, 96, np.ones(rows, dtype=bool))
        best = min(best, time.perf_counter() - t0)
        if lost:
            raise RuntimeError(f"refit failed: {lost}")
    return best


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--a-phi", type=float, default=0.001, help="prior shape a_phi")
    parser.add_argument("--n-pi", type=float, nargs="+", default=N_PI, help="N_pi values")
    parser.add_argument("--ratio", type=float, nargs="+", default=RATIOS,
                        help="c1 / N_pi values (c1 = N_pi * ratio + 0.01)")
    parser.add_argument("--rows", type=int, default=96, help="rows of the timed cold refit")
    parser.add_argument("--repeats", type=int, default=20, help="timed refits; the best is kept")
    args = parser.parse_args(argv)
    # At N_pi = 0 every ratio gives the same c1.
    grid = sorted({(s, s * ratio + 0.01) for s in args.n_pi for ratio in args.ratio})
    points = [grid_point(args.a_phi, s, t) for s, t in grid]
    paths = [p["path"] for p in points]
    print(json.dumps({
        "a_phi": args.a_phi,
        "points": points,
        "paths": {name: paths.count(name) for name in ("curvature", "ladder")},
        "worst_log_h0_err": max(p["log_h0_err"] for p in points),
        "worst_e_phi_err": max(p["e_phi_err"] for p in points),
        "cold_refit_rows": args.rows,
        "cold_refit_s": cold_refit_s(args.a_phi, args.rows, args.repeats),
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
