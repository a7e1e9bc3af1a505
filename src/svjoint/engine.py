"""Per-gene coordinate-ascent variational inference.

One gene is fit at a time against M samples.  The model is a zero-inflated
negative binomial regression with the NB written as a Poisson-Gamma
mixture; the variational family factorizes over per-spot Poisson rates g_i
and dropout indicators r_i, the regression block theta = (eta, beta_1,
beta_2, psi), the dispersion phi, the spike-and-slab block (slab variances
sigma^2_mk, their Half-Cauchy auxiliaries a_mk and the slab indicators
alpha_mk for every sample m and spatial axis k), and the cross-sample gate
(u_k, p_k, q_k) that ties the indicators together.

A ``GeneState`` owns the gene's data, q(g), q(r), q(theta), q(phi) and
caches for all M samples at once: every per-spot array is the samples'
sections concatenated, split by ``offsets``; per-sample sums (N_pi, the
ELBO's spot terms) are one reduction over those offsets; the per-sample
scalars u_phi, N_pi and c1 are (M,) arrays.  So the q(g) and q(r) updates,
the spot parts of the theta and phi steps and the per-spot ELBO terms run
once per iteration for all samples.  The d x d work of the theta step (the
weighted Gram matrix, its Cholesky factor and inverse, E[exp(-C theta)]),
the q(phi) quadrature and the theta terms of the ELBO stay a loop over
samples, so samples may differ in spot and covariate counts.  The
``SharedState`` owns the (M, 2) spike-and-slab block and the per-axis gate.
Updates assign new arrays and never write into existing ones, so a
snapshot is a shallow copy of each state plus a copy of the list of q(phi)
node caches and of each cache in it, the only objects mutated in place.

All factor updates are conjugate closed forms except theta, which takes a
fixed-point Gaussian step (non-conjugate variational message passing), and
phi, whose factor is normalized by quadrature.  Convergence is declared on
the absolute ELBO change.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import digamma as psi
from scipy.special import expit, gammaln, xlogy

from .numerics import (
    NumericalError,
    PhiFactor,
    PhiQuadCache,
    log_beta,
    mvn_exp_neg_linear,
    phi_factor,
)
from .splines import DesignMatrix

__all__ = [
    "A_BY_DEGREE",
    "EngineError",
    "Hyperparameters",
    "GeneState",
    "SharedState",
    "FitOptions",
    "GeneFitResult",
    "gamma2_for_samples",
    "init_state",
    "gamma_moments",
    "beta_prior_precision",
    "m_prior_diag",
    "slab_statistics",
    "alpha_logit",
    "u_logit",
    "theta_expected_logp",
    "theta_derivatives",
    "update_theta",
    "update_phi",
    "update_g",
    "update_r",
    "update_sigma",
    "update_a",
    "update_alpha",
    "update_u",
    "update_p",
    "update_q",
    "compute_elbo",
    "fit_gene",
]

# Half-Cauchy scale of the slab standard deviation, keyed by spline degree.
A_BY_DEGREE = {1: 0.08, 2: 0.05, 3: 0.04, 4: 0.03}

_KAPPA_FLOOR = 1e-8  # keeps q(g) a proper Gamma at fully dropped-out spots
_U_PHI_BOUNDS = (1e-4, 1e4)
_MIN_DAMPING = 1.0 / 16.0
_JITTER = 1e-8

LOG_2PI = math.log(2.0 * math.pi)
_LGAMMA_HALF = float(gammaln(0.5))


class EngineError(RuntimeError):
    """Raised when a variational update cannot be completed."""


# Numerical failures that end one gene's fit rather than the run.
_FIT_ERRORS = (EngineError, NumericalError, np.linalg.LinAlgError)


@lru_cache(maxsize=256)
def _log_beta_c(a: float, b: float) -> float:
    return float(log_beta(a, b))


def gamma2_for_samples(m: int) -> float:
    """Spike probability of the indicator mixture, keyed by sample count."""
    if m >= 4:
        return 0.01
    if m == 3:
        return 0.005
    return 0.001


@dataclass(frozen=True)
class Hyperparameters:
    """Fixed prior constants of the hierarchical model."""

    a_pi: float = 1.0
    b_pi: float = 1.0
    a_phi: float = 0.001
    b_phi: float = 0.001
    sigma2_eta: float = 1.0
    sigma2_psi: float = 1.0
    gamma1_sq: float = 0.01
    gamma2: float = 0.01
    a_slab: tuple = (0.04, 0.04)
    c_p: float = 0.2
    d_p: float = 1.8
    c_q: float = 1.0
    d_q: float = 1.0

    def __post_init__(self):
        positives = dict(
            a_pi=self.a_pi, b_pi=self.b_pi, a_phi=self.a_phi, b_phi=self.b_phi,
            sigma2_eta=self.sigma2_eta, sigma2_psi=self.sigma2_psi,
            gamma1_sq=self.gamma1_sq, c_p=self.c_p, d_p=self.d_p,
            c_q=self.c_q, d_q=self.d_q,
        )
        for name, value in positives.items():
            if not value > 0.0:
                raise ValueError(f"{name} must be positive, got {value}")
        if not 0.0 < self.gamma2 < 0.5:
            raise ValueError(f"gamma2 must lie in (0, 0.5), got {self.gamma2}")
        if len(self.a_slab) != 2 or any(a <= 0 for a in self.a_slab):
            raise ValueError(f"a_slab must be a positive pair, got {self.a_slab}")

    @classmethod
    def default(cls, n_samples: int, degree: int, gamma2: float | None = None):
        """Defaults with gamma2 chosen by sample count and the slab scale by degree."""
        a = A_BY_DEGREE[degree]
        return cls(
            gamma2=gamma2 if gamma2 is not None else gamma2_for_samples(n_samples),
            a_slab=(a, a),
        )


@dataclass
class GeneState:
    """One gene's data, q(g), q(r), q(theta), q(phi) and caches, for all M samples.

    Layout: the samples' spots are concatenated in sample order, and sample m
    owns spots ``offsets[m]:offsets[m + 1]`` (``sections[m]``) of every
    per-spot array: the counts ``y``, ``log_y_fact`` = log(y_i!), ``u_r`` =
    E[r_i] (exactly 0 wherever y_i > 0), ``a_g``/``b_g`` parametrizing q(g)
    and its moments ``e_g``/``e_log_g`` (set by ``update_g``), and ``w_exp``
    and ``c_mu``, E[exp(-C_i theta)] and C_i mu.  ``owner`` maps each spot
    to its sample.  Per-sample sums are one reduction over the offsets.

    ``u_phi``, ``n_pi`` and ``c1`` are (M,) arrays; ``update_phi`` sets
    ``n_pi``, ``c1`` and ``phi_cache``, the M q(phi) normalizers and
    moments at (n_pi[m], c1[m]); ``phi_quad`` holds the M node caches.  The
    regression blocks differ in size between samples, so ``mu`` and
    ``sigma`` are tuples of M arrays, one theta block per sample with its
    own ``designs[m]``; the (M, 2) ``beta_sq`` is E[beta_mk' beta_mk].
    ``w_exp``, ``c_mu`` and ``beta_sq`` are functions of (mu, Sigma),
    refreshed together by ``refresh_theta_cache``.

    The sample's slab factors are its row of ``SharedState``'s (M, 2) block.
    Updates assign new arrays and tuples and never write into existing ones;
    the q(phi) node caches in ``phi_quad`` are the only objects refreshed in
    place.  So a snapshot of the state (``_snapshot``) is a shallow copy
    with a new ``phi_quad`` list holding a copy of each cache: a retried
    iteration then starts from exactly the pre-attempt nodes.
    """

    y: np.ndarray
    designs: tuple
    offsets: np.ndarray
    log_y_fact: np.ndarray
    u_r: np.ndarray
    u_phi: np.ndarray
    mu: tuple
    sigma: tuple
    phi_quad: list
    n_pi: np.ndarray = None
    c1: np.ndarray = None
    a_g: np.ndarray = None
    b_g: np.ndarray = None
    e_g: np.ndarray = None
    e_log_g: np.ndarray = None
    w_exp: np.ndarray = None
    c_mu: np.ndarray = None
    beta_sq: np.ndarray = None
    phi_cache: tuple[PhiFactor, ...] | None = None
    sections: tuple = field(init=False)
    owner: np.ndarray = field(init=False)

    def __post_init__(self):
        bounds = self.offsets.tolist()
        self.sections = tuple(slice(a, b) for a, b in zip(bounds[:-1], bounds[1:]))
        self.owner = np.repeat(np.arange(len(self.designs)), np.diff(self.offsets))

    def per_sample_sum(self, x):
        """(M,) sums of a per-spot array over each sample's spots."""
        return np.add.reduceat(x, self.offsets[:-1])

    def per_spot(self, v):
        """A per-sample (M,) array repeated over each sample's spots."""
        return v.take(self.owner)

    def locate(self, spot):
        """'sample m spot i' for an index into the concatenated spots."""
        m = int(self.owner[spot])
        return f"sample {m} spot {spot - self.sections[m].start}"

    def refresh_g_moments(self):
        self.e_g, self.e_log_g = gamma_moments(self.a_g, self.b_g)

    def refresh_theta_cache(self):
        """Recompute every cached function of (mu, Sigma); call after changing either."""
        w, c_mu, beta_sq = [], [], []
        for design, mu, sigma in zip(self.designs, self.mu, self.sigma):
            w.append(mvn_exp_neg_linear(mu, sigma, design.matrix))
            c_mu.append(design.matrix @ mu)
            # E[beta_k' beta_k] = |mu_k|^2 + tr(Sigma_k block) for k = 0, 1.
            var = sigma.diagonal()
            blocks = (design.beta_slice(0), design.beta_slice(1))
            beta_sq.append([float(mu[b] @ mu[b] + var[b].sum()) for b in blocks])
        w = np.concatenate(w)
        bad = ~np.isfinite(w)
        if bad.any():
            spot = self.locate(int(np.argmax(bad)))
            raise EngineError(f"non-finite exp(-C theta) moment at {spot}")
        self.w_exp = w
        self.c_mu = np.concatenate(c_mu)
        self.beta_sq = np.array(beta_sq)


def gamma_moments(a, b):
    """(E[x], E[log x]) under Gamma(a, b) with rate b, elementwise."""
    return a / b, psi(a) - np.log(b)


def _beta_e_logs(a, b):
    """(E[log x], E[log(1 - x)]) under Beta(a, b), elementwise."""
    total = psi(a + b)
    return psi(a) - total, psi(b) - total


@dataclass
class SharedState:
    """The (M, 2) spike-and-slab block and the per-axis cross-sample gate.

    Row m, column k of ``a_sig``/``b_sig`` (q(1/sigma^2_mk)), ``u_inv_a``
    (E[1/a_mk]) and ``u_alpha`` (E[alpha_mk]) belong to sample m and axis k;
    the gate factors ``u_u``, ``a_p``/``b_p`` and ``a_q``/``b_q`` are indexed
    by k.  Updates assign new arrays.  The digamma moments of the Beta
    factors are cached; call ``refresh_moments`` after changing any Beta
    parameter by hand.
    """

    a_sig: np.ndarray
    b_sig: np.ndarray
    u_inv_a: np.ndarray
    u_alpha: np.ndarray
    u_u: np.ndarray
    a_p: np.ndarray
    b_p: np.ndarray
    a_q: np.ndarray
    b_q: np.ndarray
    e_log_p: np.ndarray = field(init=False)
    e_log_1mp: np.ndarray = field(init=False)
    e_log_q: np.ndarray = field(init=False)
    e_log_1mq: np.ndarray = field(init=False)

    def __post_init__(self):
        self.refresh_moments()

    def refresh_moments(self):
        self.e_log_p, self.e_log_1mp = _beta_e_logs(self.a_p, self.b_p)
        self.e_log_q, self.e_log_1mq = _beta_e_logs(self.a_q, self.b_q)


@dataclass(frozen=True)
class FitOptions:
    max_iter: int = 500
    elbo_tol: float = 1e-2

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not self.elbo_tol > 0:
            raise ValueError("elbo_tol must be positive")


@dataclass
class GeneFitResult:
    e_u: tuple
    alpha: np.ndarray
    elbo_trace: list
    iterations: int
    converged: bool
    failure: str | None = None


def init_state(ys, designs, hp: Hyperparameters):
    """Initial variational state for one gene across samples: (GeneState, SharedState).

    The regression mean starts at the log count mean (intercept only) with
    an isotropic 0.01 covariance; indicators start symmetric at 0.5; the
    q(g) factor is seeded from its own update at those values.
    """
    ys = [np.asarray(y) for y in ys]
    for y in ys:
        if np.any(y < 0) or not np.issubdtype(y.dtype, np.integer):
            raise ValueError("counts must be non-negative integers")
        if y.size == 0:
            raise ValueError("every sample needs at least one spot")
    ys = [y.astype(np.int64) for y in ys]
    y = np.concatenate(ys)
    n_samples = len(ys)
    offsets = np.cumsum([0] + [y_m.size for y_m in ys])
    state = GeneState(
        y=y,
        designs=tuple(designs),
        offsets=offsets,
        log_y_fact=gammaln(y + 1.0),
        u_r=np.where(y == 0, 0.5, 0.0),
        u_phi=np.full(n_samples, max(hp.a_phi / hp.b_phi, 1.0)),
        mu=tuple(
            np.concatenate(([math.log(float(np.mean(y_m)) + 0.01)], np.zeros(design.dim - 1)))
            for y_m, design in zip(ys, designs)
        ),
        sigma=tuple(0.01 * np.eye(design.dim) for design in designs),
        phi_quad=[PhiQuadCache() for _ in ys],
    )
    state.refresh_theta_cache()
    update_g(state)
    block = (n_samples, 2)
    shared = SharedState(
        a_sig=np.full(block, 0.5),
        b_sig=np.full(block, 1.0),
        u_inv_a=np.tile(1.0 / (1.0 + 1.0 / np.square(hp.a_slab)), (n_samples, 1)),
        u_alpha=np.full(block, 0.5),
        u_u=np.full(2, 0.5),
        a_p=np.full(2, hp.c_p),
        b_p=np.full(2, hp.d_p),
        a_q=np.full(2, hp.c_q),
        b_q=np.full(2, hp.d_q),
    )
    return state, shared


# ---------------------------------------------------------------------------
# Factor updates (one coordinate-ascent step each)
# ---------------------------------------------------------------------------


def beta_prior_precision(shared: SharedState, hp: Hyperparameters):
    """(M, 2) prior precision of each beta_mk under current q(sigma), q(alpha)."""
    e_inv_s2 = shared.a_sig / shared.b_sig
    return shared.u_alpha * e_inv_s2 + (1.0 - shared.u_alpha) / hp.gamma1_sq


def m_prior_diag(design: DesignMatrix, beta_prec, hp: Hyperparameters):
    """Diagonal of theta's prior precision, given one sample's (2,) beta precisions."""
    return np.repeat(
        [1.0 / hp.sigma2_eta, beta_prec[0], beta_prec[1], 1.0 / hp.sigma2_psi],
        [1, design.n_basis, design.n_basis, design.n_covariates],
    )


def slab_statistics(state: GeneState):
    """(M, 2) E[beta_mk' beta_mk] and (M, 1) block lengths L_m: the data the slab block reads."""
    length = np.array([[design.n_basis] for design in state.designs], dtype=float)
    return state.beta_sq, length


def theta_expected_logp(mu, sigma, design, u_phi, one_minus_ur, e_g, m_prior):
    """E_theta[log p] as a function of the Gaussian factor's (mu, Sigma).

    Only terms involving theta are included; this is the objective whose
    derivatives drive the fixed-point step.
    """
    c = design.matrix
    w_exp = mvn_exp_neg_linear(mu, sigma, c)
    lin = -u_phi * float(one_minus_ur @ (c @ mu))
    quad = -0.5 * (mu @ (m_prior * mu) + float(np.sum(m_prior * np.diag(sigma))))
    curv = -u_phi * float((one_minus_ur * e_g) @ w_exp)
    return lin + quad + curv


def theta_derivatives(mu, w_exp, design, u_phi, one_minus_ur, e_g, m_prior):
    """Gradient in mu and derivative matrix in Sigma of ``theta_expected_logp``.

    ``w_exp`` is E[exp(-C theta)] at the factor's current (mu, Sigma), the
    only way Sigma enters the derivatives.
    """
    c = design.matrix
    w = one_minus_ur * e_g * w_exp
    grad_mu = u_phi * (c.T @ (w - one_minus_ur)) - m_prior * mu
    d_sigma = -0.5 * (u_phi * (c.T * w) @ c + np.diag(m_prior))
    return grad_mu, d_sigma


def update_theta(state: GeneState, beta_prec, hp: Hyperparameters, damping: float = 1.0):
    """One fixed-point Gaussian step for every sample's regression block.

    ``beta_prec`` is the (M, 2) ``beta_prior_precision``; sample m reads
    its row.  The new covariance is the inverse of P = u_phi C' diag[w] C +
    M_prior evaluated at the old moments; the mean moves damped along
    Sigma_new times the gradient.
    """
    one_minus_ur = 1.0 - state.u_r
    mus, sigmas = [], []
    for m, (design, spots) in enumerate(zip(state.designs, state.sections)):
        m_prior = m_prior_diag(design, beta_prec[m], hp)
        grad_mu, d_sigma = theta_derivatives(
            state.mu[m], state.w_exp[spots], design, state.u_phi[m], one_minus_ur[spots],
            state.e_g[spots], m_prior,
        )
        prec = -2.0 * d_sigma
        prec = 0.5 * (prec + prec.T)
        if not np.isfinite(prec).all():
            raise EngineError(f"non-finite precision in theta update of sample {m}")
        # One Cholesky factorization P = L L'; a factorization that fails is
        # retried once with a diagonal jitter.  Sigma = L^-T L^-1.  numpy's
        # LAPACK is used: scipy's would load a second BLAS into every worker.
        try:
            chol = np.linalg.cholesky(prec)
        except np.linalg.LinAlgError:
            try:
                chol = np.linalg.cholesky(prec + _JITTER * np.eye(design.dim))
            except np.linalg.LinAlgError as exc:
                raise EngineError(
                    f"theta precision of sample {m} not invertible after jitter") from exc
        inv_chol = np.linalg.inv(chol)
        sigma_new = inv_chol.T @ inv_chol
        sigma_new = 0.5 * (sigma_new + sigma_new.T)
        mus.append(state.mu[m] + damping * (sigma_new @ grad_mu))
        sigmas.append(sigma_new)
    state.mu, state.sigma = tuple(mus), tuple(sigmas)
    state.refresh_theta_cache()


def update_phi(state: GeneState, hp: Hyperparameters):
    """Refresh each sample's dispersion factor: its (N_pi, c1) and mean u_phi.

    b_phi enters c1 once, outside the spot sum.  The mean is the ratio of
    shifted-power normalizers, exp(logH(a_phi, ...) - logH(a_phi-1, ...)),
    clamped to a wide stability interval.
    """
    kappa = 1.0 - state.u_r
    n_pi = state.per_sample_sum(kappa)
    spot_terms = state.c_mu - state.e_log_g + state.e_g * state.w_exp
    # c1 stays one dot product per sample, not a segment sum: the fit is
    # sensitive to its rounding, and a segment sum's summation order changes
    # printed digits of reports written by earlier versions.
    c1 = hp.b_phi + np.array([kappa[s] @ spot_terms[s] for s in state.sections])
    bad = ~(c1 > 0.0)
    if bad.any():
        m = int(np.argmax(bad))
        raise EngineError(f"non-positive c1 = {c1[m]} in phi update of sample {m}")
    state.n_pi, state.c1 = n_pi, c1
    state.phi_cache = tuple(
        phi_factor(hp.a_phi, s, t, cache=cache)
        for s, t, cache in zip(n_pi.tolist(), c1.tolist(), state.phi_quad)
    )
    state.u_phi = np.clip([fac.e_phi for fac in state.phi_cache], *_U_PHI_BOUNDS)


def update_g(state: GeneState):
    """Conjugate Gamma update of the per-spot Poisson rates."""
    kappa = np.maximum(1.0 - state.u_r, _KAPPA_FLOOR)
    u_phi = state.per_spot(state.u_phi)
    state.a_g = (state.y + u_phi - 1.0) * kappa + 1.0
    state.b_g = kappa * (u_phi * state.w_exp + 1.0)
    ok = np.isfinite(state.b_g) & (state.b_g > 0.0)
    if not ok.all():
        raise EngineError(f"invalid q(g) rate at {state.locate(int(np.argmin(ok)))}")
    state.refresh_g_moments()


def update_r(state: GeneState, hp: Hyperparameters):
    """Bernoulli update of the dropout indicators; structural 0 at y > 0.

    The probability is capped at 1 - 1e-8: letting it reach 1 exactly makes
    the gated g factor improper (its fixed point sends E[g] to infinity),
    whereas the cap keeps every later update the exact coordinate optimum
    of a proper state.
    """
    log_num = _log_beta_c(hp.a_pi + 1.0, hp.b_pi)
    log_alt = _log_beta_c(hp.a_pi, hp.b_pi + 1.0)
    prob = np.minimum(expit(log_num - (log_alt - state.e_g)), 1.0 - _KAPPA_FLOOR)
    state.u_r = np.where(state.y == 0, prob, 0.0)


def update_sigma(shared: SharedState, beta_sq, length):
    """Gamma update of every q(1/sigma_mk^2); the shape uses the block length L_m."""
    shared.a_sig = 0.5 * (length * shared.u_alpha + 1.0)
    shared.b_sig = 0.5 * shared.u_alpha * beta_sq + shared.u_inv_a


def update_a(shared: SharedState, hp: Hyperparameters):
    """Half-Cauchy auxiliaries: E[1/a_mk] = 1 / (E[1/sigma_mk^2] + 1/A_k^2)."""
    e_inv_s2 = shared.a_sig / shared.b_sig
    shared.u_inv_a = 1.0 / (e_inv_s2 + 1.0 / np.square(hp.a_slab))


def alpha_logit(bsq, e_inv_s2, e_log_inv_s2, u_u, e_log_q, e_log_1mq, length, hp):
    """Log-odds of the slab indicator given the surrounding factor moments.

    The slab side pays the adaptive-variance quadratic penalty plus the
    gate-weighted mixture terms; the spike side the fixed Gamma1^2 penalty.
    Arguments broadcast elementwise.
    """
    lp_slab = (
        -0.5 * bsq * e_inv_s2
        + u_u * e_log_q
        + 0.5 * length * e_log_inv_s2
        + (1.0 - u_u) * math.log(hp.gamma2)
    )
    lp_spike = (
        -bsq / (2.0 * hp.gamma1_sq)
        + u_u * e_log_1mq
        + (1.0 - u_u) * math.log1p(-hp.gamma2)
        - 0.5 * length * math.log(hp.gamma1_sq)
    )
    return lp_slab - lp_spike


def update_alpha(shared: SharedState, beta_sq, length, hp: Hyperparameters):
    """Bernoulli update of every slab indicator alpha_mk, in log space."""
    e_inv_s2, e_log_inv_s2 = gamma_moments(shared.a_sig, shared.b_sig)
    logit = alpha_logit(
        beta_sq, e_inv_s2, e_log_inv_s2, shared.u_u, shared.e_log_q, shared.e_log_1mq,
        length, hp,
    )
    shared.u_alpha = expit(logit)


def u_logit(u_alphas, e_log_q, e_log_1mq, e_log_p, e_log_1mp, hp):
    """Log-odds of the shared gate from the per-sample indicator expectations, in sample order."""
    u_alphas = np.asarray(u_alphas)
    lp_on = e_log_p
    lp_off = e_log_1mp
    for on, off in zip(
        u_alphas * e_log_q + (1.0 - u_alphas) * e_log_1mq,
        u_alphas * math.log(hp.gamma2) + (1.0 - u_alphas) * math.log1p(-hp.gamma2),
    ):
        lp_on = lp_on + on
        lp_off = lp_off + off
    return lp_on - lp_off


def update_u(shared: SharedState, hp: Hyperparameters):
    """Bernoulli update of the shared gate from all samples' indicators."""
    logit = u_logit(
        shared.u_alpha, shared.e_log_q, shared.e_log_1mq, shared.e_log_p, shared.e_log_1mp, hp
    )
    shared.u_u = expit(logit)


def update_p(shared: SharedState, hp: Hyperparameters):
    shared.a_p = shared.u_u + hp.c_p
    shared.b_p = hp.d_p - shared.u_u + 1.0
    shared.e_log_p, shared.e_log_1mp = _beta_e_logs(shared.a_p, shared.b_p)


def update_q(shared: SharedState, hp: Hyperparameters):
    # Rows are added in sample order.
    sum_alpha = shared.u_alpha.sum(axis=0)
    u_u = shared.u_u
    shared.a_q = u_u * sum_alpha + hp.c_q
    shared.b_q = shared.u_alpha.shape[0] * u_u + hp.d_q - u_u * sum_alpha
    shared.e_log_q, shared.e_log_1mq = _beta_e_logs(shared.a_q, shared.b_q)


# ---------------------------------------------------------------------------
# ELBO
# ---------------------------------------------------------------------------


def _binary_entropy(p):
    """Entropy of Bernoulli(p) factors, elementwise, with 0 log 0 = 0."""
    q = 1.0 - p
    return -(xlogy(p, p) + xlogy(q, q))


def _slab_elbo(shared: SharedState, beta_sq, length, hp: Hyperparameters):
    """(M, 2) ELBO terms of the spike-and-slab block, one per (sample, axis)."""
    u_alpha = shared.u_alpha
    e_inv_s2, e_log_inv_s2 = gamma_moments(shared.a_sig, shared.b_sig)
    # beta | sigma^2, alpha spike-and-slab cross-entropy.
    beta_term = u_alpha * (
        -0.5 * length * LOG_2PI + 0.5 * length * e_log_inv_s2 - 0.5 * beta_sq * e_inv_s2
    ) + (1.0 - u_alpha) * (
        -0.5 * length * (LOG_2PI + math.log(hp.gamma1_sq)) - beta_sq / (2.0 * hp.gamma1_sq)
    )
    # sigma^2 | a and a | A Half-Cauchy hierarchy; q(a) is InverseGamma(1, scale_a),
    # so 1/a is Gamma(1, scale_a).
    scale_a = 1.0 / shared.u_inv_a
    e_inv_a, e_log_inv_a = gamma_moments(1.0, scale_a)
    e_log_a = -e_log_inv_a
    sig_prior = -0.5 * e_log_a - _LGAMMA_HALF + 1.5 * e_log_inv_s2 - e_inv_a * e_inv_s2
    a_sq = np.square(hp.a_slab)
    a_prior = -0.5 * np.log(a_sq) - _LGAMMA_HALF - 1.5 * e_log_a - e_inv_a / a_sq
    # entropies of q(sigma^2) (inverse gamma) and q(a).
    sa, sb = shared.a_sig, shared.b_sig
    e_log_q_sig = sa * np.log(sb) - gammaln(sa) + (sa + 1.0) * e_log_inv_s2 - sa
    e_log_q_a = np.log(scale_a) - 2.0 * e_log_a - scale_a * e_inv_a
    # alpha | u, q mixture cross-entropy and q(alpha) entropy.
    u_u = shared.u_u
    alpha_prior = u_u * (
        u_alpha * shared.e_log_q + (1.0 - u_alpha) * shared.e_log_1mq
    ) + (1.0 - u_u) * (
        u_alpha * math.log(hp.gamma2) + (1.0 - u_alpha) * math.log1p(-hp.gamma2)
    )
    return (
        beta_term + sig_prior + a_prior - e_log_q_sig - e_log_q_a
        + alpha_prior + _binary_entropy(u_alpha)
    )


def _e_log_beta_pdf(log_norm, a, b, e_log_x, e_log_1mx):
    """E[log Beta(x; a, b)] from log B(a, b), E[log x] and E[log(1 - x)], elementwise."""
    return -log_norm + (a - 1.0) * e_log_x + (b - 1.0) * e_log_1mx


def _gate_elbo(shared: SharedState, hp: Hyperparameters):
    """(2,) ELBO terms of the cross-sample gate (u_k, p_k, q_k), one per axis."""
    u_u = shared.u_u
    logs_p = shared.e_log_p, shared.e_log_1mp
    logs_q = shared.e_log_q, shared.e_log_1mq
    a_p, b_p, a_q, b_q = shared.a_p, shared.b_p, shared.a_q, shared.b_q
    return (
        u_u * logs_p[0] + (1.0 - u_u) * logs_p[1]
        + _e_log_beta_pdf(_log_beta_c(hp.c_p, hp.d_p), hp.c_p, hp.d_p, *logs_p)
        + _e_log_beta_pdf(_log_beta_c(hp.c_q, hp.d_q), hp.c_q, hp.d_q, *logs_q)
        + _binary_entropy(u_u)
        - _e_log_beta_pdf(log_beta(a_p, b_p), a_p, b_p, *logs_p)
        - _e_log_beta_pdf(log_beta(a_q, b_q), a_q, b_q, *logs_q)
    )


_ELBO_TERMS = (
    "poisson-likelihood", "g-prior", "r-prior", "g-entropy", "r-entropy", "eta-prior",
    "psi-prior", "theta-entropy", "phi-prior", "phi-entropy", "spike-slab block k=0",
    "spike-slab block k=1",
)


def compute_elbo(state: GeneState, shared: SharedState, hp: Hyperparameters) -> float:
    """Evidence lower bound at the current variational state.

    The joint follows the factor derivations: the Poisson likelihood and
    the Gamma prior of g are both gated by (1 - r_i), the r_i prior is the
    per-spot Beta-Bernoulli marginal, and q(phi)'s entropy uses the cached
    quadrature normalizer.  C mu, E[beta_k' beta_k] and log(y!) come from
    the state's caches.  The per-spot terms are summed per sample, and the
    total adds each sample's terms in turn, then the gate's.  Raises
    EngineError on a non-finite term.
    """
    if state.phi_cache is None:
        raise EngineError("phi factor cache missing; run update_phi first")
    slab = _slab_elbo(shared, *slab_statistics(state), hp)
    gate = _gate_elbo(shared, hp)
    lb_pi = _log_beta_c(hp.a_pi, hp.b_pi)
    lb_pi_r1 = _log_beta_c(hp.a_pi + 1.0, hp.b_pi)
    lb_pi_r0 = _log_beta_c(hp.a_pi, hp.b_pi + 1.0)
    eta_const = -0.5 * (LOG_2PI + math.log(hp.sigma2_eta))
    psi_const = -0.5 * (LOG_2PI + math.log(hp.sigma2_psi))
    phi_prior_const = hp.a_phi * math.log(hp.b_phi) - float(gammaln(hp.a_phi))

    e_phi, e_log_phi, e_self, log_h0 = np.array(
        [(fac.e_phi, fac.e_log_phi, fac.e_self, fac.log_h0) for fac in state.phi_cache]
    ).T
    y, u_r, a_g, e_g, e_log_g = state.y, state.u_r, state.a_g, state.e_g, state.e_log_g
    kappa = 1.0 - u_r
    spot_e_phi = state.per_spot(e_phi)

    # E log p(y | g, r): the Dirac branch contributes 0 at y = 0.
    data_term = state.per_sample_sum(kappa * (y * e_log_g - e_g - state.log_y_fact))
    # E log p(g | theta, phi), gated by (1 - r).
    g_prior = state.per_sample_sum(
        kappa
        * (
            state.per_spot(e_self)
            - spot_e_phi * state.c_mu
            + (spot_e_phi - 1.0) * e_log_g
            - spot_e_phi * e_g * state.w_exp
        )
    )
    # E log p(r) under the marginalized Beta-Bernoulli prior.
    r_prior = (
        lb_pi_r1 * state.per_sample_sum(u_r) + lb_pi_r0 * state.per_sample_sum(kappa)
        - np.diff(state.offsets) * lb_pi
    )
    # Entropies of q(g) and q(r); digamma(a_g) - log(b_g) is the cached
    # E[log g].
    e_log_q_g = a_g * np.log(state.b_g) - gammaln(a_g) + (a_g - 1.0) * e_log_g - a_g
    ent_g = -state.per_sample_sum(e_log_q_g)
    ent_r = -state.per_sample_sum(xlogy(u_r, u_r) + xlogy(kappa, kappa))

    # theta prior cross-entropies and Gaussian entropy, one block per sample.
    theta_terms = []
    for design, mu, sigma in zip(state.designs, state.mu, state.sigma):
        eta_term = eta_const - (mu[0] ** 2 + sigma[0, 0]) / (2.0 * hp.sigma2_eta)
        psl = design.psi_slice
        n_cov = design.n_covariates
        psi_term = 0.0
        if n_cov:
            psi_sq = float(mu[psl] @ mu[psl] + np.trace(sigma[psl, psl]))
            psi_term = n_cov * psi_const - psi_sq / (2.0 * hp.sigma2_psi)
        sign, logdet = np.linalg.slogdet(sigma)
        if sign <= 0:
            raise EngineError("theta covariance not positive definite in ELBO")
        ent_theta = 0.5 * logdet + 0.5 * design.dim * (LOG_2PI + 1.0)
        theta_terms.append((eta_term, psi_term, ent_theta))

    # phi prior cross-entropy and q(phi) entropy via the cached normalizer.
    phi_prior = phi_prior_const + (hp.a_phi - 1.0) * e_log_phi - hp.b_phi * e_phi
    ent_phi = -(
        state.n_pi * e_self + (hp.a_phi - 1.0) * e_log_phi - state.c1 * e_phi - log_h0
    )

    # (M, 12) terms in the order of _ELBO_TERMS.
    terms = np.column_stack(
        (data_term, g_prior, r_prior, ent_g, ent_r, theta_terms, phi_prior, ent_phi, slab)
    )
    bad = ~np.isfinite(terms)
    if bad.any():
        m, j = np.argwhere(bad)[0]
        raise EngineError(f"non-finite ELBO term {_ELBO_TERMS[j]!r} of sample {m}")
    total = 0.0
    for term in terms.ravel().tolist():
        total += term

    for k, term in enumerate(gate):
        if not math.isfinite(term):
            raise EngineError(f"non-finite ELBO term 'shared gate k={k}'")
        total += term

    if not math.isfinite(total):
        raise EngineError("non-finite ELBO")
    return float(total)


# ---------------------------------------------------------------------------
# Fit loop
# ---------------------------------------------------------------------------


def _one_iteration(state, shared, hp, damping):
    # A sample's theta/phi/g/r steps read only its own spots, theta block
    # and slab row, and the slab block reads only the samples' beta moments
    # and the gate.
    update_theta(state, beta_prior_precision(shared, hp), hp, damping)
    update_phi(state, hp)
    update_g(state)
    update_r(state, hp)
    beta_sq, length = slab_statistics(state)
    update_sigma(shared, beta_sq, length)
    update_a(shared, hp)
    update_alpha(shared, beta_sq, length, hp)
    update_q(shared, hp)
    update_p(shared, hp)
    update_u(shared, hp)


def _snapshot(state, shared):
    """Copies of a fit's states that no later update can change.

    Updates assign new arrays and tuples, so shallow copies suffice, except
    for the q(phi) node caches, which a refresh rebinds in place: the list
    is copied and so is each cache in it.
    """
    copied = copy.copy(state)
    copied.phi_quad = [copy.copy(cache) for cache in state.phi_quad]
    return copied, copy.copy(shared)


def fit_gene(ys, designs, hp: Hyperparameters, opts: FitOptions = FitOptions()):
    """Coordinate-ascent fit of one gene across samples.

    Iterates the factor updates in a fixed order until the absolute ELBO
    change drops below ``opts.elbo_tol`` or ``opts.max_iter`` is reached.
    A numerically failed iteration is retried once from the pre-iteration
    state with halved damping (floor 1/16); a second failure aborts the
    gene with the last valid state's expectations.  A gene whose initial
    state cannot be built returns zero gate expectations, no iterations
    and an ``init:`` failure.
    """
    ys = [np.asarray(y) for y in ys]
    if len(ys) != len(designs) or not ys:
        raise ValueError("need one design per sample and at least one sample")
    for y, design in zip(ys, designs):
        if y.shape[0] != design.matrix.shape[0]:
            raise ValueError("count vector and design row counts disagree")

    try:
        state, shared = init_state(ys, designs, hp)
    except _FIT_ERRORS as exc:
        return GeneFitResult(
            e_u=(0.0, 0.0),
            alpha=np.zeros((len(ys), 2)),
            elbo_trace=[],
            iterations=0,
            converged=False,
            failure=f"init: {exc}",
        )
    trace = []
    damping = 1.0
    converged = False
    failure = None
    prev_elbo = None
    iteration = 0
    while iteration < opts.max_iter:
        snapshot = _snapshot(state, shared)
        retried = False
        while True:
            try:
                _one_iteration(state, shared, hp, damping)
                elbo = compute_elbo(state, shared, hp)
                break
            except _FIT_ERRORS as exc:
                if retried:
                    failure = f"iteration {iteration + 1}: {exc}"
                    state, shared = snapshot
                    break
                retried = True
                damping = max(damping / 2.0, _MIN_DAMPING)
                state, shared = _snapshot(*snapshot)
        if failure is not None:
            break
        iteration += 1
        trace.append(elbo)
        if prev_elbo is not None and abs(elbo - prev_elbo) < opts.elbo_tol:
            converged = True
            break
        prev_elbo = elbo

    return GeneFitResult(
        e_u=(float(shared.u_u[0]), float(shared.u_u[1])),
        alpha=shared.u_alpha,
        elbo_trace=trace,
        iterations=iteration,
        converged=converged,
        failure=failure,
    )
