"""Coordinate normalization, Bernstein spline basis, and design matrices.

The spatial effect along each axis is expanded in B-spline basis functions
with boundary-only knots on [0, 1] and degrees of freedom equal to the
spline degree, which makes the basis exactly the Bernstein polynomials
xi_l(t) = C(d, l) t^l (1-t)^(d-l) for l = 1..d (the l = 0 term is dropped
because the model carries a separate intercept).

Degree selection fits a zero-inflated NB regression per (sample, degree) to
a block of genes at once, by damped Newton steps on closed-form derivatives
(see ``zinb_mle``); no numerical optimizer library is loaded.  Bernstein
spaces are nested, so each degree's fit starts from the optimum of the
degree below, written exactly in the higher basis (``_elevate``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numerics import upper_pairs
from .special import expit, gammaln, gammaln_digamma_trigamma

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

    @cached_property
    def pairs(self) -> np.ndarray:
        """Products of the column pairs i <= j of ``matrix``, one row per pair
        in ``numerics.upper_pairs`` order; built on first use and kept.

        For the (N, d) matrix X this is a C-contiguous (d(d+1)/2, N) array, so
        the upper triangles of X' diag(w) X for a stack of weight rows W are
        the one GEMM ``W @ pairs.T``, and the row-wise quadratic forms x_i' S x_i
        of a stack of symmetric S are one GEMM of their upper triangles, with
        the off-diagonal entries doubled, against ``pairs``.
        """
        x_t = np.ascontiguousarray(self.matrix.T)
        return np.vstack([x_t[i] * x_t[i:] for i in range(x_t.shape[0])])


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


# Box bounds of (logit pi, log phi, coefficients) and the clip of the log mean.
_LOGIT_PI_BOUND = 15.0
_LOG_PHI_BOUNDS = (math.log(1e-3), math.log(1e5))
_COEF_BOUND = 30.0
_ETA_CLIP = 30.0
# Newton step control: the largest change of one parameter in a step, the
# floor of the modified Hessian's |eigenvalues| relative to the largest, the
# Armijo constant, and the step halvings after which a gene is frozen.
_MAX_STEP = 5.0
_EIG_FLOOR = 1e-10
_ARMIJO = 1e-4
_MAX_HALVINGS = 30
# A fit has converged when the infinity norm of its projected gradient is at
# most _GRAD_TOL * max(1, |logL|), and fails when it is still above
# _FAIL_TOL * max(1, |logL|) after the last step.
_GRAD_TOL = 1e-8
_FAIL_TOL = 1e-1


class _ZinbCounts:
    """The count-only, degree-independent parts of a ZINB block's likelihood.

    ``y`` is the (B, N) block as floats and ``zero`` its zero mask as a
    float to multiply by.  The count-only terms of the nonzero spots are
    sums over each gene's distinct nonzero counts u with multiplicities
    n_u, found by one sort of the (gene, count) keys and summed per gene
    with ``np.bincount``; ``log_y_fact`` is the constant sum of log y! per
    gene.  ``select_degree`` builds one per sample and passes it to
    ``zinb_mle`` for every candidate degree.  ``len`` and indexing read the
    count rows.
    """

    def __init__(self, counts):
        counts = np.asarray(counts, dtype=float)
        if counts.ndim != 2:
            raise ValueError(f"counts must be a (genes, spots) block, got shape {counts.shape}")
        self.y = counts
        self.zero = (counts == 0).astype(float)
        self.n_nz = counts.shape[1] - self.zero.sum(axis=1)
        gene, spot = np.nonzero(counts)
        values = counts[gene, spot]
        span = float(values.max()) + 1.0 if values.size else 1.0
        keys = np.sort(gene * span + values)
        first = np.ones(keys.size, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        first = np.flatnonzero(first)
        self.n_u = np.diff(first, append=keys.size).astype(float)
        keys = keys[first]
        self.u_gene = (keys // span).astype(np.intp)
        self.u = keys - self.u_gene * span
        self.log_y_fact = np.bincount(
            self.u_gene, self.n_u * gammaln(self.u + 1.0), minlength=counts.shape[0]
        )

    def __len__(self):
        return len(self.y)

    def __getitem__(self, rows):
        return self.y[rows]


class _ZinbBlock:
    """The ZINB negative log-likelihood of B count vectors against one design.

    Parameter layout per gene: (logit pi, log phi, coefficient vector c) with
    log mean eta = clip(x @ c); NB with mean lambda and dispersion phi,
    Var = lambda + lambda^2/phi.  ``counts`` is a (B, N) block or its
    ``_ZinbCounts``, whose count-only terms the block reads.
    """

    def __init__(self, counts, design):
        if not isinstance(counts, _ZinbCounts):
            counts = _ZinbCounts(counts)
        self.counts = counts
        # X' diag(h) X of every gene is one GEMM of the (B, N) weights h
        # against the design's column-pair products; (i, j) are the Hessian
        # cells of each pair.
        self.x, self.xx_t = design.matrix, design.pairs
        i, j, _ = upper_pairs(design.dim)
        self.pairs = i + 2, j + 2

    def evaluate(self, rows, params):
        """Objective, gradient and Hessian of the genes ``rows`` at ``params``.

        ``params`` is (R, 2 + P), one row per entry of ``rows``; returns
        arrays of shape (R,), (R, 2 + P) and (R, 2 + P, 2 + P).  Derivatives
        in eta are taken as if the clip were not there.  The (R, N) arrays
        are updated in place where they can be, since every new one costs
        about as much as the arithmetic on it.
        """
        r, p = params.shape
        c = self.counts
        y, zero = c.y[rows], c.zero[rows]
        owner = np.full(c.y.shape[0], -1)
        owner[rows] = np.arange(r)
        owner = owner[c.u_gene]
        keep = owner >= 0
        u_gene, u, n_u = owner[keep], c.u[keep], c.n_u[keep]
        n_nz = c.n_nz[rows]

        rho = params[:, 1:2]
        pi, phi = expit(params[:, :1]), np.exp(rho)
        eta = params[:, 2:] @ self.x.T
        np.clip(eta, -_ETA_CLIP, _ETA_CLIP, out=eta)
        lam = np.exp(eta)
        inv_s = lam + phi
        log_r = np.log(inv_s)
        np.subtract(rho, log_r, out=log_r)  # log(phi / (phi + lam))
        np.reciprocal(inv_s, out=inv_s)
        # The NB log-probability without its count-only terms,
        # phi log_r + y (eta - log(phi + lam)); at a zero count it is log a
        # with a = P_NB(0).
        nb = eta
        nb -= rho
        nb += log_r
        nb *= y
        nb += phi * log_r
        # P(0) = pi + (1 - pi) a.  w is the posterior weight of the NB part
        # of a zero count, 1 - pi / P(0), and 1 at a nonzero count.
        p0 = np.exp(nb)
        p0 *= 1.0 - pi
        p0 += pi
        w = pi / p0
        w *= zero
        np.subtract(1.0, w, out=w)
        v = w * (1.0 - w)
        np.log(p0, out=p0)
        p0 -= nb
        p0 *= zero
        nb += p0  # per-spot log-likelihood (log(1 - pi) aside)
        # NB derivatives, with q = (y - lam)/s and t = lam/s for s = phi + lam:
        # d/deta = phi q, d/dphi = log_r - q, d2/deta2 = -phi (phi + y) t / s,
        # d2/dphi2 = t^2/phi + y/s^2 and d2/dphi deta = q t.  Those of the
        # mixture are w d2 + v d d' (v = 0 at a nonzero count).
        q = y - lam
        q *= inv_s
        t = lam
        t *= inv_s
        l_phi = log_r
        l_phi -= q
        v_l_phi = v * l_phi
        h_eta = y + phi
        h_eta *= inv_s
        h_eta *= t
        h_eta *= -phi * w
        l_phi_phi = t * t
        l_phi_phi /= phi
        inv_s *= inv_s
        l_phi_phi += y * inv_s
        q *= phi  # now d/deta
        # Per-spot terms that map to the coefficients through x: the eta
        # gradient, and the Hessian's cross terms of eta with logit pi and
        # with log phi (the chain rule's factor phi included).
        per_spot = np.empty((3,) + y.shape)
        g_eta, h_pi_eta, h_phi_eta = per_spot
        np.multiply(w, q, out=g_eta)
        np.multiply(v, q, out=h_pi_eta)
        h_eta += h_pi_eta * q
        h_pi_eta *= -1.0
        np.multiply(phi, v_l_phi, out=h_phi_eta)
        h_phi_eta += w * t
        h_phi_eta *= q
        coef = (per_spot.reshape(3 * r, y.shape[1]) @ self.x).reshape(3, r, p - 2)

        phi_g, phi_u, pi_g = phi[:, 0], phi[u_gene, 0], pi[:, 0]
        n_spots = y.shape[1]
        lg_u, psi_u, psi1_u = gammaln_digamma_trigamma(u + phi_u)
        lg_g, psi_g, psi1_g = gammaln_digamma_trigamma(phi_g)
        ll = (
            nb.sum(axis=1)
            + n_nz * np.log1p(-pi_g)
            + np.bincount(u_gene, n_u * lg_u, minlength=r)
            - n_nz * lg_g
            - c.log_y_fact[rows]
        )
        d_phi = (
            np.einsum("ij,ij->i", w, l_phi)
            + np.bincount(u_gene, n_u * psi_u, minlength=r)
            - n_nz * psi_g
        )
        d2_phi = (
            np.einsum("ij,ij->i", w, l_phi_phi)
            + np.einsum("ij,ij->i", v_l_phi, l_phi)
            + np.bincount(u_gene, n_u * psi1_u, minlength=r)
            - n_nz * psi1_g
        )

        grad = np.empty((r, p))
        grad[:, 0] = n_spots * (1.0 - pi_g) - w.sum(axis=1)
        grad[:, 1] = phi_g * d_phi
        grad[:, 2:] = coef[0]
        hess = np.empty((r, p, p))
        h_cc = h_eta @ self.xx_t.T
        i, j = self.pairs
        hess[:, i, j] = h_cc
        hess[:, j, i] = h_cc
        hess[:, 0, 0] = v.sum(axis=1) - n_spots * pi_g * (1.0 - pi_g)
        hess[:, 1, 1] = phi_g * phi_g * d2_phi + phi_g * d_phi
        hess[:, 0, 1] = hess[:, 1, 0] = -phi_g * v_l_phi.sum(axis=1)
        hess[:, :2, 2:] = coef[1:].transpose(1, 0, 2)
        hess[:, 2:, :2] = coef[1:].transpose(1, 2, 0)
        return -ll, -grad, -hess


def _relative_gradient(params, grad, nll, lo, hi):
    """Infinity norm of the projected gradient over max(1, |logL|), per gene.

    The projected gradient is the step from params to the projection of
    params - grad onto the box; the ratio is NaN where logL is not finite.
    """
    pg = np.abs(np.clip(params - grad, lo, hi) - params).max(axis=1)
    return np.where(np.isfinite(nll), pg / np.maximum(1.0, np.abs(nll)), np.nan)


def _newton_step(params, grad, hess, lo, hi):
    """Damped Newton directions for a stack of genes, one row each.

    A parameter on a bound whose gradient points out of the box is held
    fixed.  The Hessian of the free parameters is made positive definite by
    replacing its eigenvalues with their absolute values, floored at
    _EIG_FLOOR times the largest, and each step is scaled so that no
    parameter moves by more than _MAX_STEP.
    """
    free = ~(((params <= lo) & (grad > 0.0)) | ((params >= hi) & (grad < 0.0)))
    h = np.where(free[:, :, None] & free[:, None, :], hess, 0.0)
    diag = np.arange(params.shape[1])
    h[:, diag, diag] += ~free
    eig, vec = np.linalg.eigh(h)
    eig = np.abs(eig)
    eig = np.maximum(eig, _EIG_FLOOR * eig.max(axis=1, keepdims=True))
    g = np.where(free, grad, 0.0)
    step = -(vec @ ((vec.transpose(0, 2, 1) @ g[:, :, None]) / eig[:, :, None]))[:, :, 0]
    longest = np.abs(step).max(axis=1, keepdims=True)
    return step * np.minimum(1.0, _MAX_STEP / np.maximum(longest, _MAX_STEP))


def zinb_mle(counts, design: DesignMatrix, max_iter: int = 200, params=None):
    """Fit the zero-inflated NB regression to each row of a count block.

    ``counts`` is (B, N): B genes on the N spots of ``design``, or a
    ``_ZinbCounts`` of such a block, whose count work is then reused.  All genes
    are fit at once by damped Newton maximum likelihood over (logit pi,
    log phi, coefficients) within the box |logit pi| <= 15,
    1e-3 <= phi <= 1e5 and |c_j| <= 30.  The documented start is pi = zero
    fraction / 2 + 0.01, phi = 10, intercept = log(mean + 0.01).  Each step
    solves with the stacked, eigenvalue-modified Hessian (``_newton_step``),
    projects onto the box and halves the step until the Armijo condition
    holds or the trial point passes the convergence test; only genes still
    active are evaluated.  A gene is frozen once it has converged, that is,
    once the infinity norm of its projected gradient is at most
    1e-8 * max(1, |logL|), or when 30 halvings give no decrease.

    ``params``, when given, is a (B, 2 + P) array of start points, one row
    per gene and a row of NaN for the documented start; the fit overwrites
    each row with that gene's last point, its optimum where it converged.
    ``select_degree`` passes each degree above the lowest the optimum of
    the degree below, elevated exactly into this basis (``_elevate``).

    Returns one (log_likelihood, n_params) per gene, log y! term included,
    or None for a gene whose logL is not finite or whose projected gradient
    norm is still above 0.1 * max(1, |logL|) after at most ``max_iter``
    steps.
    """
    block = _ZinbBlock(counts, design)
    y = block.counts.y
    n_params = 2 + design.dim
    lo = np.array([-_LOGIT_PI_BOUND, _LOG_PHI_BOUNDS[0]] + [-_COEF_BOUND] * design.dim)
    hi = np.array([_LOGIT_PI_BOUND, _LOG_PHI_BOUNDS[1]] + [_COEF_BOUND] * design.dim)
    zero_frac = block.counts.zero.mean(axis=1)
    start = np.zeros((y.shape[0], n_params))
    start[:, 0] = np.log((zero_frac * 0.5 + 0.01) / (1.0 - zero_frac * 0.5 - 0.01))
    start[:, 1] = math.log(10.0)
    start[:, 2] = np.log(y.mean(axis=1) + 0.01)
    if params is not None:
        if params.shape != start.shape:
            raise ValueError(f"params must have shape {start.shape}, got {params.shape}")
        warm = ~np.isnan(params).any(axis=1)
        start[warm] = params[warm]
    out = params
    params = np.clip(start, lo, hi)

    nll, grad, hess = block.evaluate(np.arange(y.shape[0]), params)
    rel_grad = _relative_gradient(params, grad, nll, lo, hi)
    active = rel_grad > _GRAD_TOL
    for _ in range(max_iter):
        rows = np.flatnonzero(active)
        if not rows.size:
            break
        step = _newton_step(params[rows], grad[rows], hess[rows], lo, hi)
        pending, t = rows, 1.0
        for _ in range(_MAX_HALVINGS):
            trial = np.clip(params[pending] + t * step, lo, hi)
            f, g, h = block.evaluate(pending, trial)
            decrease = np.einsum("ij,ij->i", grad[pending], trial - params[pending])
            # Near the optimum the decrease can be below the rounding of the
            # objective, so a trial that passes the convergence test is taken.
            ok = (f <= nll[pending] + _ARMIJO * decrease) | (
                _relative_gradient(trial, g, f, lo, hi) <= _GRAD_TOL
            )
            done = pending[ok]
            params[done], nll[done], grad[done], hess[done] = trial[ok], f[ok], g[ok], h[ok]
            pending, step, t = pending[~ok], step[~ok], 0.5 * t
            if not pending.size:
                break
        rel_grad[rows] = _relative_gradient(params[rows], grad[rows], nll[rows], lo, hi)
        active[rows] = rel_grad[rows] > _GRAD_TOL
        active[pending] = False  # no decrease found: frozen where it is

    if out is not None:
        out[...] = params
    ok = rel_grad <= _FAIL_TOL  # False where logL is not finite
    return [(-float(f), n_params) if good else None for f, good in zip(nll, ok)]


def _elevate(params, degree, new_degree):
    """Rows of ``zinb_mle`` parameters at ``degree`` written exactly at ``new_degree``.

    logit pi, log phi, the intercept and the covariate coefficients carry
    over.  Each axis's coefficients b_1..b_d (b_0 = 0 is the dropped basis
    function) are raised one degree at a time by Bernstein degree elevation,
    b'_k = k/(d+1) b_(k-1) + (d+1-k)/(d+1) b_k for k = 1..d+1 with
    b_(d+1) = 0, which leaves every spot's log mean unchanged but for
    rounding.  A row of NaN stays NaN.
    """
    for d in range(degree, new_degree):
        k = np.arange(1, d + 2) / (d + 1)
        axes = []
        for a in (0, 1):
            b = np.pad(params[:, 3 + a * d:3 + (a + 1) * d], ((0, 0), (1, 1)))
            axes.append(k * b[:, :-1] + (1.0 - k) * b[:, 1:])
        params = np.hstack([params[:, :3], *axes, params[:, 3 + 2 * d:]])
    return params


def select_degree(dataset, candidates, gene_subset) -> int:
    """Pick the spline degree by per-sample AIC, maximized across samples.

    For each sample and candidate degree, the ZINB regression is fit by
    maximum likelihood to every gene in ``gene_subset`` (detect passes
    every gene, in index order, when there are at most 50, and otherwise 50
    drawn from its seed; see ``cli.degree_subset``), as one
    ``zinb_mle`` block, and the AICs (2k - 2 logL with k = 3 + 2L + J) of
    the fits that are not None are averaged; the per-sample optimum
    is the AIC-minimizing degree and the returned degree is the maximum of
    the per-sample optima.  A sample on which no gene fit converges votes
    for the default degree and a warning is recorded.

    Samples are visited in order, and selection stops once the running
    maximum of the votes is the highest candidate: no later vote can change
    it, so the samples after that one are never fit.  The returned degree is
    the same as with every sample fit; the only difference is that a later
    sample on which no fit would converge raises no warning.

    A sample's degrees are fit in increasing order.  The lowest starts from
    ``zinb_mle``'s documented start; each one above it starts from the
    optimum of the degree below, elevated exactly into the higher Bernstein
    basis (``_elevate``), except a gene whose lower-degree fit was None,
    which starts cold again.
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
        counts = _ZinbCounts(sample.counts[gene_subset])
        mean_aic = {}
        for i, degree in enumerate(candidates):
            design = build_design(coords, sample.covariates, BasisSpec(degree))
            if i == 0:
                params = np.full((len(gene_subset), 2 + design.dim), np.nan)
            else:
                params = _elevate(params, candidates[i - 1], degree)
            fits = zinb_mle(counts, design, params=params)
            params[[fit is None for fit in fits]] = np.nan
            aics = [2.0 * k - 2.0 * logl for logl, k in filter(None, fits)]
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
        if max(votes) == candidates[-1]:
            break
    return max(votes)
