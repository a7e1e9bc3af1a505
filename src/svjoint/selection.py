"""SV-gene calls from fitted gate posteriors via Bayesian FDR.

Each gene's composite statistic is u_tilde = max(E[u_1], E[u_2]); the
decision threshold u0 is the largest candidate for which

    BFDR(u0) = sum (1 - u_tilde_g) I(1 - u_tilde_g < u0)
               / sum I(1 - u_tilde_g < u0)

stays at or below the target level (default 0.05 / (2G)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GeneDecision",
    "DetectionReport",
    "compute_u_tilde",
    "bfdr",
    "bfdr_threshold",
    "check_level",
    "default_bfdr_level",
    "build_report",
]


@dataclass(frozen=True)
class GeneDecision:
    gene_id: str
    u_tilde: float
    e_u1: float
    e_u2: float
    selected: bool


@dataclass
class DetectionReport:
    decisions: list
    threshold_u0: float
    bfdr_level: float
    alpha: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    final_elbo: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def selected_ids(self):
        return {d.gene_id for d in self.decisions if d.selected}


def compute_u_tilde(result) -> float:
    """Composite statistic: the larger of the two axis-gate expectations."""
    e1, e2 = result.e_u
    if not (0.0 <= e1 <= 1.0 and 0.0 <= e2 <= 1.0):
        raise ValueError(f"gate expectations outside [0, 1]: {result.e_u}")
    return max(e1, e2)


def bfdr(u_tilde_all, u0: float) -> float:
    """Bayesian FDR at threshold u0; 0 when nothing is selected."""
    u = np.asarray(u_tilde_all, dtype=float)
    if np.any(u < 0.0) or np.any(u > 1.0):
        raise ValueError("u_tilde values must lie in [0, 1]")
    if not 0.0 < u0 <= 1.0:
        raise ValueError(f"u0 must lie in (0, 1], got {u0}")
    one_minus = 1.0 - u
    picked = one_minus < u0
    if not picked.any():
        return 0.0
    return float(np.sum(one_minus[picked]) / np.count_nonzero(picked))


def bfdr_threshold(u_tilde_all, level: float) -> float:
    """Largest threshold on the candidate grid meeting the BFDR level.

    Candidates are the observed (1 - u_tilde) values plus the level itself;
    BFDR is a step function of u0 so this grid search is exact.  Returns 0
    (select nothing) when no candidate selects a non-empty set within the
    level.

    One sort gives every candidate's selected set as a prefix of the sorted
    (1 - u_tilde), and a cumulative sum gives its BFDR, so the search is
    O(G log G).  The prefix means differ from ``bfdr`` (which sums in input
    order) by at most about k rounding errors for a k-gene set, so the few
    candidates whose prefix mean lies within that band of the level are
    decided by ``bfdr`` itself: the result is the threshold ``bfdr`` picks.
    """
    u = np.asarray(u_tilde_all, dtype=float)
    if np.any(u < 0.0) or np.any(u > 1.0):
        raise ValueError("u_tilde values must lie in [0, 1]")
    check_level(level)
    one_minus = np.sort(1.0 - u)
    candidates = np.unique(np.append(one_minus, level))
    candidates = candidates[(candidates > 0.0) & (candidates <= 1.0)]
    k = np.searchsorted(one_minus, candidates, side="left")
    candidates, k = candidates[k > 0], k[k > 0]
    means = np.cumsum(one_minus)[k - 1] / k
    band = (k + 2) * np.finfo(float).eps * np.maximum(means, level)
    sure = means <= level - band
    best = float(candidates[sure].max()) if sure.any() else 0.0
    near = (means <= level + band) & ~sure & (candidates > best)
    for u0 in candidates[near][::-1]:
        if bfdr(u, float(u0)) <= level:
            return float(u0)
    return best


def check_level(level: float):
    """Raise ValueError unless the BFDR level lies in (0, 1)."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level}")


def default_bfdr_level(n_genes: int) -> float:
    return 0.05 / (2.0 * n_genes)


def build_report(gene_ids, results, bfdr_level: float | None = None, meta=None):
    """Assemble per-gene decisions into a detection report, in input gene order."""
    gene_ids = list(gene_ids)
    if len(gene_ids) != len(results):
        raise ValueError("one fit result required per gene")
    level = default_bfdr_level(len(gene_ids)) if bfdr_level is None else float(bfdr_level)
    u_tilde = np.array([compute_u_tilde(r) for r in results])
    u0 = bfdr_threshold(u_tilde, level)
    selected = (1.0 - u_tilde) < u0 if u0 > 0.0 else np.zeros(len(gene_ids), dtype=bool)
    decisions = [
        GeneDecision(
            gene_id=g,
            u_tilde=float(u_tilde[i]),
            e_u1=float(results[i].e_u[0]),
            e_u2=float(results[i].e_u[1]),
            selected=bool(selected[i]),
        )
        for i, g in enumerate(gene_ids)
    ]
    alpha = np.array([r.alpha for r in results])
    iterations = np.array([r.iterations for r in results], dtype=int)
    converged = np.array([r.converged for r in results], dtype=bool)
    final_elbo = np.array(
        [r.elbo_trace[-1] if r.elbo_trace else np.nan for r in results], dtype=float
    )
    n_failed = sum(1 for r in results if r.failure is not None)
    report_meta = {} if meta is None else dict(meta)
    report_meta.setdefault("n_genes", len(gene_ids))
    report_meta.setdefault("n_converged", int(converged.sum()))
    report_meta.setdefault("n_failed", n_failed)
    return DetectionReport(
        decisions=decisions,
        threshold_u0=float(u0),
        bfdr_level=level,
        alpha=alpha,
        iterations=iterations,
        converged=converged,
        final_elbo=final_elbo,
        meta=report_meta,
    )
