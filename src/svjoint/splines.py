"""Coordinate normalization, Bernstein spline basis, and design matrices.

The spatial effect along each axis is expanded in B-spline basis functions
with boundary-only knots on [0, 1] and degrees of freedom equal to the
spline degree, which makes the basis exactly the Bernstein polynomials
xi_l(t) = C(d, l) t^l (1-t)^(d-l) for l = 1..d (the l = 0 term is dropped
because the model carries a separate intercept).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import digamma as _sp_digamma
from scipy.special import expit, gammaln

__all__ = [
    "BasisSpec",
    "DesignMatrix",
    "normalize_coords",
    "eval_basis",
    "build_design",
    "select_degree",
    "zinb_mle",
]

_ALLOWED_DEGREES = (1, 2, 3, 4)
_T_TOL = 1e-9
DEFAULT_DEGREE = 3


@dataclass(frozen=True)
class BasisSpec:
    """Bernstein basis of the given degree; dimension L equals the degree."""

    degree: int

    def __post_init__(self):
        if self.degree not in _ALLOWED_DEGREES:
            raise ValueError(f"degree must be one of {_ALLOWED_DEGREES}, got {self.degree}")

    @property
    def n_basis(self) -> int:
        return self.degree


@dataclass(frozen=True)
class DesignMatrix:
    """Per-sample regression design: [1, xi(s1) block, xi(s2) block, covariates].

    ``matrix`` has one row per spot and 1 + 2L + J columns.  Block slices
    index into the coefficient vector theta = (eta, beta_1, beta_2, psi).
    """

    matrix: np.ndarray
    n_basis: int
    n_covariates: int

    @property
    def dim(self) -> int:
        return 1 + 2 * self.n_basis + self.n_covariates

    def beta_slice(self, k: int) -> slice:
        """Columns of the spatial-effect block for axis k (0-based)."""
        if k not in (0, 1):
            raise ValueError(f"axis index must be 0 or 1, got {k}")
        start = 1 + k * self.n_basis
        return slice(start, start + self.n_basis)

    @property
    def psi_slice(self) -> slice:
        return slice(1 + 2 * self.n_basis, self.dim)


def normalize_coords(coords):
    """Affinely map each coordinate axis onto [0, 1].

    A degenerate axis (all values equal) maps to the constant 0.5.
    """
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 2 or coords.shape[1] != 2:
        raise ValueError(f"coords must be n x 2, got shape {coords.shape}")
    if not np.all(np.isfinite(coords)):
        raise ValueError("coords contain non-finite values")
    out = np.empty_like(coords)
    for j in range(2):
        lo = coords[:, j].min()
        hi = coords[:, j].max()
        if hi > lo:
            out[:, j] = (coords[:, j] - lo) / (hi - lo)
        else:
            out[:, j] = 0.5
    return out


def eval_basis(spec: BasisSpec, t):
    """Bernstein basis values (xi_1(t), ..., xi_d(t)) at t in [0, 1].

    Accepts a scalar or a 1-d array of evaluation points; returns shape
    (d,) or (n, d) correspondingly.
    """
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    t_arr = np.atleast_1d(t_arr)
    if np.any(t_arr < -_T_TOL) or np.any(t_arr > 1.0 + _T_TOL):
        raise ValueError("basis evaluation points must lie in [0, 1]")
    t_arr = np.clip(t_arr, 0.0, 1.0)
    d = spec.degree
    ls = np.arange(1, d + 1)
    binom = np.array([math.comb(d, int(l)) for l in ls], dtype=float)
    tt = t_arr[:, None]
    vals = binom * tt**ls * (1.0 - tt) ** (d - ls)
    return vals[0] if scalar else vals


def build_design(coords, covariates, spec: BasisSpec) -> DesignMatrix:
    """Assemble the design matrix for one sample from normalized coordinates."""
    coords = np.asarray(coords, dtype=float)
    if np.any(coords < -_T_TOL) or np.any(coords > 1.0 + _T_TOL):
        raise ValueError("build_design expects coordinates normalized to [0, 1]")
    covs = np.asarray(covariates, dtype=float)
    if covs.ndim != 2:
        raise ValueError(f"covariates must be 2-d, got shape {covs.shape}")
    n = coords.shape[0]
    cols = [np.ones((n, 1)), eval_basis(spec, coords[:, 0]), eval_basis(spec, coords[:, 1])]
    if covs.shape[1]:
        cols.append(covs)
    return DesignMatrix(matrix=np.hstack(cols), n_basis=spec.degree, n_covariates=covs.shape[1])


# ---------------------------------------------------------------------------
# Degree selection by AIC on a per-sample zero-inflated NB maximum likelihood
# ---------------------------------------------------------------------------


def _zinb_nll_grad(params, x, n_nz, y_nz, u, n_u, log_y_fact):
    """Negative log-likelihood and gradient of the ZINB regression.

    Parameter layout: (logit pi, log phi, coefficient vector c) with
    log mean = x @ c.  NB parameterized by mean lambda and dispersion phi,
    Var = lambda + lambda^2/phi.  The rows of ``x`` hold the ``n_nz`` spots
    with a nonzero count ``y_nz`` first and the zero-count spots after them;
    ``u`` are the distinct values of ``y_nz`` with multiplicities ``n_u``,
    and ``log_y_fact`` is the constant sum of log y!.
    """
    zeta, rho = params[0], params[1]
    coef = params[2:]
    pi = expit(zeta)
    phi = math.exp(rho)
    eta = np.clip(x @ coef, -30.0, 30.0)
    lam = np.exp(eta)
    log_phi_lam = np.log(phi + lam)
    log_ratio = math.log(phi) - log_phi_lam  # log(phi/(phi+lam))
    inv_phi_lam = 1.0 / (phi + lam)
    log_ratio_nz, log_ratio_z = log_ratio[:n_nz], log_ratio[n_nz:]

    ll = (
        float(n_u @ gammaln(u + phi))
        - n_nz * float(gammaln(phi))
        - log_y_fact
        + phi * float(log_ratio_nz.sum())
        + float(y_nz @ (eta[:n_nz] - log_phi_lam[:n_nz]))
        + n_nz * math.log1p(-pi)
    )

    # P(0) = pi + (1-pi) * (phi/(phi+lam))^phi
    a = np.exp(phi * log_ratio_z)
    p0 = pi + (1.0 - pi) * a
    ll += float(np.log(p0).sum())

    grad = np.empty_like(params)
    # dropout probability, via zeta
    grad[0] = pi * (1.0 - pi) * float(((1.0 - a) / p0).sum()) - n_nz * pi
    # dispersion, via rho
    phi_y_inv = (phi + y_nz) * inv_phi_lam[:n_nz]
    dll_dphi_nz = (
        float(n_u @ _sp_digamma(u + phi))
        - n_nz * float(_sp_digamma(phi))
        + float(log_ratio_nz.sum())
        + n_nz
        - float(phi_y_inv.sum())
    )
    phi_inv_z = phi * inv_phi_lam[n_nz:]
    a_p0 = (1.0 - pi) * a / p0
    dll_dphi_z = float(a_p0 @ (log_ratio_z + 1.0 - phi_inv_z))
    grad[1] = phi * (dll_dphi_nz + dll_dphi_z)
    # regression coefficients, via lambda = exp(x @ c): dll/deta
    dll_deta = np.concatenate((y_nz - phi_y_inv * lam[:n_nz], -a_p0 * phi_inv_z * lam[n_nz:]))
    grad[2:] = x.T @ dll_deta
    return -ll, -grad


def _zinb_stats(y, matrix):
    """The per-fit statistics of counts y (see ``zinb_mle``), in the order
    ``_zinb_nll_grad`` takes them after ``params``."""
    nz = y != 0
    y_nz = y[nz]
    u, n_u = np.unique(y_nz, return_counts=True)
    n_u = n_u.astype(float)
    x = np.concatenate((matrix[nz], matrix[~nz]))
    return x, y_nz.size, y_nz, u, n_u, float(n_u @ gammaln(u + 1.0))


def zinb_mle(y, design: DesignMatrix, max_iter: int = 200):
    """Fit the zero-inflated NB regression by quasi-Newton maximum likelihood.

    The objective is evaluated on statistics built once per fit: the design
    rows reordered so that the spots with a nonzero count come first (both
    parts are then basic slices of one matrix), the distinct nonzero counts
    u with their multiplicities n_u, and the constant sum of log y!.  The
    count terms of the nonzero part are sums over u, n_u gammaln(u + phi)
    and n_u digamma(u + phi), instead of sums over spots.  The returned
    log-likelihood includes the log y! term.

    Returns (log_likelihood, n_params) or None when the optimizer fails to
    converge.
    """
    # Imported here so that a fixed --degree never loads scipy.optimize
    # (and the scipy.linalg and scipy.sparse it pulls in).
    from scipy.optimize import minimize

    y = np.asarray(y, dtype=float)
    zero_frac = float(np.mean(y == 0))
    mean_pos = float(np.mean(y)) + 0.01
    start = np.zeros(2 + design.dim)
    start[0] = math.log((zero_frac * 0.5 + 0.01) / (1.0 - zero_frac * 0.5 - 0.01))
    start[1] = math.log(10.0)
    start[2] = math.log(mean_pos)
    bounds = [(-15.0, 15.0), (math.log(1e-3), math.log(1e5))] + [(-30.0, 30.0)] * design.dim
    res = minimize(
        _zinb_nll_grad,
        start,
        args=_zinb_stats(y, design.matrix),
        jac=True,
        method="L-BFGS-B",
        bounds=bounds,
        options={"maxiter": max_iter},
    )
    if not np.isfinite(res.fun):
        return None
    if not res.success and np.linalg.norm(res.jac, ord=np.inf) > 1e-1 * max(1.0, abs(res.fun)):
        return None
    return -float(res.fun), 2 + design.dim


def select_degree(dataset, candidates, gene_subset, max_iter: int = 200) -> int:
    """Pick the spline degree by per-sample AIC, maximized across samples.

    For each sample and candidate degree, the ZINB regression is fit by
    maximum likelihood on every gene in ``gene_subset`` and the AICs
    (2k - 2 logL with k = 3 + 2L + J) are averaged; the per-sample optimum
    is the AIC-minimizing degree and the returned degree is the maximum of
    the per-sample optima.  A sample on which no gene fit converges votes
    for the default degree and a warning is recorded.
    """
    candidates = sorted(set(int(c) for c in candidates))
    if not candidates or any(c not in _ALLOWED_DEGREES for c in candidates):
        raise ValueError(f"candidates must be a non-empty subset of {_ALLOWED_DEGREES}")
    gene_subset = list(gene_subset)
    if not gene_subset:
        raise ValueError("gene_subset must be non-empty")
    if len(candidates) == 1:
        return candidates[0]

    votes = []
    for sample in dataset.samples:
        coords = normalize_coords(sample.coords)
        mean_aic = {}
        for degree in candidates:
            design = build_design(coords, sample.covariates, BasisSpec(degree))
            aics = []
            for g in gene_subset:
                fit = zinb_mle(sample.counts[g], design, max_iter=max_iter)
                if fit is not None:
                    logl, k = fit
                    aics.append(2.0 * k - 2.0 * logl)
            if aics:
                mean_aic[degree] = float(np.mean(aics))
        if mean_aic:
            votes.append(min(mean_aic, key=mean_aic.get))
        else:
            warnings.warn(
                f"degree selection: no ZINB fit converged for sample "
                f"{sample.sample_id}; sample votes for degree {DEFAULT_DEGREE}",
                RuntimeWarning,
                stacklevel=2,
            )
            votes.append(DEFAULT_DEGREE)
    return max(votes)
