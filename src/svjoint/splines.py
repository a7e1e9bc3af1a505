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
from scipy.optimize import minimize
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


def _zinb_nll_grad(params, y, x, is_zero):
    """Negative log-likelihood and gradient of the ZINB regression.

    Parameter layout: (logit pi, log phi, coefficient vector c) with
    log mean = x @ c.  NB parameterized by mean lambda and dispersion phi,
    Var = lambda + lambda^2/phi.
    """
    zeta, rho = params[0], params[1]
    coef = params[2:]
    pi = expit(zeta)
    phi = math.exp(rho)
    eta = x @ coef
    eta = np.clip(eta, -30.0, 30.0)
    lam = np.exp(eta)
    log_ratio = np.log(phi) - np.log(phi + lam)  # log(phi/(phi+lam))

    nz = ~is_zero
    y_nz = y[nz]
    lam_nz = lam[nz]
    ll = np.sum(
        gammaln(y_nz + phi)
        - gammaln(phi)
        - gammaln(y_nz + 1.0)
        + phi * log_ratio[nz]
        + y_nz * (np.log(lam_nz) - np.log(phi + lam_nz))
    ) + np.count_nonzero(nz) * math.log1p(-pi)

    # P(0) = pi + (1-pi) * (phi/(phi+lam))^phi
    log_a = phi * log_ratio[is_zero]
    a = np.exp(log_a)
    p0 = pi + (1.0 - pi) * a
    ll += np.sum(np.log(p0))

    grad = np.zeros_like(params)
    # dropout probability, via zeta
    grad[0] = np.sum(pi * (1.0 - pi) * (1.0 - a) / p0) - np.count_nonzero(nz) * pi
    # dispersion, via rho
    dll_dphi_nz = np.sum(
        _sp_digamma(y_nz + phi)
        - _sp_digamma(phi)
        + log_ratio[nz]
        + 1.0
        - (phi + y_nz) / (phi + lam_nz)
    )
    da_dphi = a * (log_ratio[is_zero] + 1.0 - phi / (phi + lam[is_zero]))
    dll_dphi_z = np.sum((1.0 - pi) * da_dphi / p0)
    grad[1] = phi * (dll_dphi_nz + dll_dphi_z)
    # regression coefficients, via lambda = exp(x @ c)
    dll_dlam = np.zeros_like(lam)
    dll_dlam[nz] = y_nz / lam_nz - (phi + y_nz) / (phi + lam_nz)
    dll_dlam[is_zero] = (1.0 - pi) * a * (-phi / (phi + lam[is_zero])) / p0
    grad[2:] = x.T @ (dll_dlam * lam)
    return -ll, -grad


def zinb_mle(y, design: DesignMatrix, max_iter: int = 200):
    """Fit the zero-inflated NB regression by quasi-Newton maximum likelihood.

    Returns (log_likelihood, n_params) or None when the optimizer fails to
    converge.
    """
    y = np.asarray(y, dtype=float)
    x = design.matrix
    is_zero = y == 0
    zero_frac = float(np.mean(is_zero))
    mean_pos = float(np.mean(y)) + 0.01
    start = np.zeros(2 + design.dim)
    start[0] = math.log((zero_frac * 0.5 + 0.01) / (1.0 - zero_frac * 0.5 - 0.01))
    start[1] = math.log(10.0)
    start[2] = math.log(mean_pos)
    bounds = [(-15.0, 15.0), (math.log(1e-3), math.log(1e5))] + [(-30.0, 30.0)] * design.dim
    res = minimize(
        _zinb_nll_grad,
        start,
        args=(y, x, is_zero),
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
