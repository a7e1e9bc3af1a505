"""Per-gene coordinate-ascent variational inference.

One gene is fit at a time against M samples.  The model is a zero-inflated
negative binomial regression with the NB written as a Poisson-Gamma
mixture; the variational family factorizes over per-spot Poisson rates g_i
and dropout indicators r_i, the regression block theta = (eta, beta_1,
beta_2, psi), the dispersion phi, the slab variances and their Half-Cauchy
auxiliaries, per-sample spike-and-slab indicators alpha_k, and the shared
cross-sample gate (u_k, p_k, q_k).

All factor updates are conjugate closed forms except theta, which takes a
fixed-point Gaussian step (non-conjugate variational message passing), and
phi, whose factor is normalized by quadrature.  Convergence is declared on
the absolute ELBO change.
"""

from __future__ import annotations

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

__all__ = [
    "A_BY_DEGREE",
    "EngineError",
    "Hyperparameters",
    "SampleState",
    "SharedState",
    "FitOptions",
    "GeneFitResult",
    "gamma2_for_samples",
    "init_state",
    "m_prior_diag",
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
    return log_beta(a, b)


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
class SampleState:
    """Variational factor parameters and caches for one sample.

    Conventions: ``e_g``/``e_log_g`` are moments of q(g); ``u_r`` is
    E[r_i], exactly 0 wherever y_i > 0; ``w_exp``, ``c_mu`` and
    ``beta_sq`` cache E[exp(-C_i theta)], C mu and E[beta_k' beta_k] for
    the current (mu, Sigma) and are refreshed together by
    ``refresh_theta_cache``; ``log_y_fact`` is log(y_i!); ``phi_cache``
    carries the quadrature normalizer and moments of q(phi) at (n_pi, c1).
    """

    y: np.ndarray
    log_y_fact: np.ndarray
    a_g: np.ndarray
    b_g: np.ndarray
    e_g: np.ndarray = field(init=False)
    e_log_g: np.ndarray = field(init=False)
    u_r: np.ndarray = None
    u_phi: float = 1.0
    n_pi: float = 0.0
    c1: float = 0.0
    phi_cache: PhiFactor | None = None
    phi_quad: PhiQuadCache = field(default_factory=PhiQuadCache)
    mu: np.ndarray = None
    sigma: np.ndarray = None
    w_exp: np.ndarray = None
    c_mu: np.ndarray = None
    beta_sq: tuple = None
    a_sig: np.ndarray = None
    b_sig: np.ndarray = None
    u_inv_a: np.ndarray = None
    u_alpha: np.ndarray = None

    def __post_init__(self):
        self.refresh_g_moments()

    def refresh_g_moments(self):
        self.e_g = self.a_g / self.b_g
        self.e_log_g = psi(self.a_g) - np.log(self.b_g)

    def refresh_theta_cache(self, design):
        """Recompute every cached function of (mu, Sigma); call after changing either."""
        w = mvn_exp_neg_linear(self.mu, self.sigma, design.matrix)
        bad = ~np.isfinite(w)
        if bad.any():
            idx = int(np.nonzero(bad)[0][0])
            raise EngineError(f"non-finite exp(-C theta) moment at spot {idx}")
        self.w_exp = w
        self.c_mu = design.matrix @ self.mu
        self.beta_sq = tuple(_beta_sq_norm(self, design, k) for k in (0, 1))

    def e_inv_sigma2(self, k: int) -> float:
        return float(self.a_sig[k] / self.b_sig[k])

    def e_log_inv_sigma2(self, k: int) -> float:
        return float(psi(self.a_sig[k]) - math.log(self.b_sig[k]))

    def clone(self) -> "SampleState":
        """Value copy for iteration snapshots; data and node caches are shared."""
        new = SampleState.__new__(SampleState)
        new.y = self.y
        new.log_y_fact = self.log_y_fact
        new.a_g = self.a_g.copy()
        new.b_g = self.b_g.copy()
        new.e_g = self.e_g.copy()
        new.e_log_g = self.e_log_g.copy()
        new.u_r = self.u_r.copy()
        new.u_phi = self.u_phi
        new.n_pi = self.n_pi
        new.c1 = self.c1
        new.phi_cache = self.phi_cache
        new.phi_quad = self.phi_quad
        new.mu = self.mu.copy()
        new.sigma = self.sigma.copy()
        new.w_exp = self.w_exp.copy()
        new.c_mu = self.c_mu.copy()
        new.beta_sq = self.beta_sq
        new.a_sig = self.a_sig.copy()
        new.b_sig = self.b_sig.copy()
        new.u_inv_a = self.u_inv_a.copy()
        new.u_alpha = self.u_alpha.copy()
        return new


@dataclass
class SharedState:
    """Cross-sample gate factors, indexed by spatial axis k in {0, 1}.

    The digamma moments of the Beta factors are cached; call
    ``refresh_moments`` after changing any Beta parameter by hand.
    """

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
        tp = psi(self.a_p + self.b_p)
        tq = psi(self.a_q + self.b_q)
        self.e_log_p = psi(self.a_p) - tp
        self.e_log_1mp = psi(self.b_p) - tp
        self.e_log_q = psi(self.a_q) - tq
        self.e_log_1mq = psi(self.b_q) - tq

    def clone(self) -> "SharedState":
        new = SharedState.__new__(SharedState)
        for name in ("u_u", "a_p", "b_p", "a_q", "b_q",
                     "e_log_p", "e_log_1mp", "e_log_q", "e_log_1mq"):
            setattr(new, name, getattr(self, name).copy())
        return new


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
    """Initial variational state for one gene across samples.

    The regression mean starts at the log count mean (intercept only) with
    an isotropic 0.01 covariance; indicators start symmetric at 0.5; the
    q(g) factor is seeded from its own update at those values.
    """
    states = []
    for y, design in zip(ys, designs):
        y = np.asarray(y)
        if np.any(y < 0) or not np.issubdtype(y.dtype, np.integer):
            raise ValueError("counts must be non-negative integers")
        y = y.astype(np.int64)
        d = design.dim
        mu = np.zeros(d)
        mu[0] = math.log(float(np.mean(y)) + 0.01)
        sigma = 0.01 * np.eye(d)
        u_r = np.where(y == 0, 0.5, 0.0)
        u_phi = max(hp.a_phi / hp.b_phi, 1.0)
        ss = SampleState(
            y=y,
            log_y_fact=gammaln(y + 1.0),
            a_g=np.ones_like(y, dtype=float),
            b_g=np.ones_like(y, dtype=float),
            u_r=u_r,
            u_phi=u_phi,
            n_pi=float(np.sum(1.0 - u_r)),
            c1=hp.b_phi + float(np.sum(1.0 - u_r)),
            mu=mu,
            sigma=sigma,
            a_sig=np.full(2, 0.5),
            b_sig=np.full(2, 1.0),
            u_inv_a=np.array([1.0 / (1.0 + 1.0 / a**2) for a in hp.a_slab]),
            u_alpha=np.full(2, 0.5),
        )
        ss.refresh_theta_cache(design)
        update_g(ss, y)
        states.append(ss)
    shared = SharedState(
        u_u=np.full(2, 0.5),
        a_p=np.full(2, hp.c_p),
        b_p=np.full(2, hp.d_p),
        a_q=np.full(2, hp.c_q),
        b_q=np.full(2, hp.d_q),
    )
    return states, shared


# ---------------------------------------------------------------------------
# Factor updates (one coordinate-ascent step each)
# ---------------------------------------------------------------------------


def m_prior_diag(ss: SampleState, design, hp: Hyperparameters):
    """Diagonal of the prior precision of theta under current q(sigma), q(alpha)."""
    d = design.dim
    diag = np.empty(d)
    diag[0] = 1.0 / hp.sigma2_eta
    for k in (0, 1):
        prec = ss.u_alpha[k] * ss.e_inv_sigma2(k) + (1.0 - ss.u_alpha[k]) / hp.gamma1_sq
        diag[design.beta_slice(k)] = prec
    diag[design.psi_slice] = 1.0 / hp.sigma2_psi
    return diag


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


def update_theta(ss: SampleState, design, hp: Hyperparameters, damping: float = 1.0):
    """One fixed-point Gaussian step for the regression block.

    The new covariance is the inverse of P = u_phi C' diag[w] C + M_prior
    evaluated at the old moments; the mean moves damped along Sigma_new
    times the gradient.
    """
    m_prior = m_prior_diag(ss, design, hp)
    one_minus_ur = 1.0 - ss.u_r
    grad_mu, d_sigma = theta_derivatives(
        ss.mu, ss.w_exp, design, ss.u_phi, one_minus_ur, ss.e_g, m_prior
    )
    prec = -2.0 * d_sigma
    prec = 0.5 * (prec + prec.T)
    if not np.isfinite(prec).all():
        raise EngineError("non-finite precision in theta update")
    # One Cholesky factorization P = L L'; a factorization that fails is
    # retried once with a diagonal jitter.  Sigma = L^-T L^-1.  numpy's
    # LAPACK is used: scipy's would load a second BLAS into every worker.
    try:
        chol = np.linalg.cholesky(prec)
    except np.linalg.LinAlgError:
        try:
            chol = np.linalg.cholesky(prec + _JITTER * np.eye(design.dim))
        except np.linalg.LinAlgError as exc:
            raise EngineError("theta precision not invertible after jitter") from exc
    inv_chol = np.linalg.inv(chol)
    sigma_new = inv_chol.T @ inv_chol
    sigma_new = 0.5 * (sigma_new + sigma_new.T)
    ss.mu = ss.mu + damping * (sigma_new @ grad_mu)
    ss.sigma = sigma_new
    ss.refresh_theta_cache(design)


def update_phi(ss: SampleState, design, hp: Hyperparameters):
    """Refresh the dispersion factor's (N_pi, c1) and its mean u_phi.

    b_phi enters c1 once, outside the spot sum.  The mean is the ratio of
    shifted-power normalizers, exp(logH(a_phi, ...) - logH(a_phi-1, ...)),
    clamped to a wide stability interval.
    """
    kappa = 1.0 - ss.u_r
    ss.n_pi = float(np.sum(kappa))
    spot_terms = ss.c_mu - ss.e_log_g + ss.e_g * ss.w_exp
    c1 = hp.b_phi + float(kappa @ spot_terms)
    if not c1 > 0.0:
        raise EngineError(f"non-positive c1 = {c1} in phi update")
    ss.c1 = c1
    fac = phi_factor(hp.a_phi, ss.n_pi, c1, cache=ss.phi_quad)
    ss.phi_cache = fac
    ss.u_phi = float(np.clip(fac.e_phi, *_U_PHI_BOUNDS))


def update_g(ss: SampleState, y):
    """Conjugate Gamma update of the per-spot Poisson rates."""
    kappa = np.maximum(1.0 - ss.u_r, _KAPPA_FLOOR)
    ss.a_g = (y + ss.u_phi - 1.0) * kappa + 1.0
    ss.b_g = kappa * (ss.u_phi * ss.w_exp + 1.0)
    ok = np.isfinite(ss.b_g) & (ss.b_g > 0.0)
    if not ok.all():
        raise EngineError(f"invalid q(g) rate at spot {int(np.argmin(ok))}")
    ss.refresh_g_moments()


def update_r(ss: SampleState, y, hp: Hyperparameters):
    """Bernoulli update of the dropout indicators; structural 0 at y > 0.

    The probability is capped at 1 - 1e-8: letting it reach 1 exactly makes
    the gated g factor improper (its fixed point sends E[g] to infinity),
    whereas the cap keeps every later update the exact coordinate optimum
    of a proper state.
    """
    log_num = _log_beta_c(hp.a_pi + 1.0, hp.b_pi)
    log_alt = _log_beta_c(hp.a_pi, hp.b_pi + 1.0)
    zero = y == 0
    prob = np.minimum(expit(log_num - (log_alt - ss.e_g)), 1.0 - _KAPPA_FLOOR)
    ss.u_r = np.where(zero, prob, 0.0)


def _beta_sq_norm(ss: SampleState, design, k: int) -> float:
    """E[beta_k' beta_k] = |mu_k|^2 + tr(Sigma_k block)."""
    blk = design.beta_slice(k)
    mu_b = ss.mu[blk]
    return float(mu_b @ mu_b + np.trace(ss.sigma[blk, blk]))


def update_sigma(ss: SampleState, design, k: int):
    """Gamma update of q(1/sigma_k^2); the shape uses the block length L."""
    ss.a_sig[k] = 0.5 * (design.n_basis * ss.u_alpha[k] + 1.0)
    ss.b_sig[k] = 0.5 * ss.u_alpha[k] * ss.beta_sq[k] + ss.u_inv_a[k]


def update_a(ss: SampleState, k: int, hp: Hyperparameters):
    """Half-Cauchy auxiliary: E[1/a_k] = 1 / (E[1/sigma_k^2] + 1/A_k^2)."""
    ss.u_inv_a[k] = 1.0 / (ss.e_inv_sigma2(k) + 1.0 / hp.a_slab[k] ** 2)


def alpha_logit(bsq, e_inv_s2, e_log_inv_s2, u_u, e_log_q, e_log_1mq, length, hp):
    """Log-odds of the slab indicator given the surrounding factor moments.

    The slab side pays the adaptive-variance quadratic penalty plus the
    gate-weighted mixture terms; the spike side the fixed Gamma1^2 penalty.
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


def update_alpha(ss: SampleState, shared: SharedState, design, k: int, hp: Hyperparameters):
    """Bernoulli update of the per-sample slab indicator, in log space."""
    logit = alpha_logit(
        ss.beta_sq[k],
        ss.e_inv_sigma2(k),
        ss.e_log_inv_sigma2(k),
        float(shared.u_u[k]),
        float(shared.e_log_q[k]),
        float(shared.e_log_1mq[k]),
        design.n_basis,
        hp,
    )
    ss.u_alpha[k] = float(expit(logit))


def u_logit(u_alphas, e_log_q, e_log_1mq, e_log_p, e_log_1mp, hp):
    """Log-odds of the shared gate from the per-sample indicator expectations."""
    log_g2 = math.log(hp.gamma2)
    log_1mg2 = math.log1p(-hp.gamma2)
    lp_on = e_log_p
    lp_off = e_log_1mp
    for ua in u_alphas:
        lp_on += ua * e_log_q + (1.0 - ua) * e_log_1mq
        lp_off += ua * log_g2 + (1.0 - ua) * log_1mg2
    return lp_on - lp_off


def update_u(shared: SharedState, states, k: int, hp: Hyperparameters):
    """Bernoulli update of the shared gate from all samples' indicators."""
    logit = u_logit(
        [float(ss.u_alpha[k]) for ss in states],
        float(shared.e_log_q[k]),
        float(shared.e_log_1mq[k]),
        float(shared.e_log_p[k]),
        float(shared.e_log_1mp[k]),
        hp,
    )
    shared.u_u[k] = float(expit(logit))


def update_p(shared: SharedState, k: int, hp: Hyperparameters):
    shared.a_p[k] = shared.u_u[k] + hp.c_p
    shared.b_p[k] = hp.d_p - shared.u_u[k] + 1.0
    shared.refresh_moments()


def update_q(shared: SharedState, states, k: int, hp: Hyperparameters):
    sum_alpha = float(sum(ss.u_alpha[k] for ss in states))
    u_u = shared.u_u[k]
    shared.a_q[k] = u_u * sum_alpha + hp.c_q
    shared.b_q[k] = len(states) * u_u + hp.d_q - u_u * sum_alpha
    shared.refresh_moments()


# ---------------------------------------------------------------------------
# ELBO
# ---------------------------------------------------------------------------


def _inv_gamma_e_log(shape: float, scale: float):
    """(E[log x], E[1/x]) under InverseGamma(shape, scale)."""
    return math.log(scale) - float(psi(shape)), shape / scale


def _binary_entropy(p: float) -> float:
    """Entropy of a Bernoulli(p) factor, with 0 log 0 = 0."""
    q = 1.0 - p
    return -float(xlogy(p, p) + xlogy(q, q))


def compute_elbo(states, shared, ys, designs, hp: Hyperparameters) -> float:
    """Evidence lower bound at the current variational state.

    The joint follows the factor derivations: the Poisson likelihood and
    the Gamma prior of g are both gated by (1 - r_i), the r_i prior is the
    per-spot Beta-Bernoulli marginal, and q(phi)'s entropy uses the cached
    quadrature normalizer.  C mu, E[beta_k' beta_k] and log(y!) come from
    the sample state's caches.  Raises EngineError on a non-finite term.
    """
    total = 0.0
    lb_pi = _log_beta_c(hp.a_pi, hp.b_pi)
    lb_pi_r1 = _log_beta_c(hp.a_pi + 1.0, hp.b_pi)
    lb_pi_r0 = _log_beta_c(hp.a_pi, hp.b_pi + 1.0)
    log_g2 = math.log(hp.gamma2)
    log_1mg2 = math.log1p(-hp.gamma2)
    log_gamma1_sq = math.log(hp.gamma1_sq)
    eta_const = -0.5 * (LOG_2PI + math.log(hp.sigma2_eta))
    psi_const = -0.5 * (LOG_2PI + math.log(hp.sigma2_psi))
    phi_prior_const = hp.a_phi * math.log(hp.b_phi) - float(gammaln(hp.a_phi))

    for ss, y, design in zip(states, ys, designs):
        if ss.phi_cache is None:
            raise EngineError("phi factor cache missing; run update_phi first")
        fac = ss.phi_cache
        e_phi = fac.e_phi
        kappa = 1.0 - ss.u_r
        length = design.n_basis

        # E log p(y | g, r): the Dirac branch contributes 0 at y = 0.
        data_term = float(kappa @ (y * ss.e_log_g - ss.e_g - ss.log_y_fact))
        # E log p(g | theta, phi), gated by (1 - r).
        g_prior = float(
            kappa
            @ (
                fac.e_self
                - e_phi * ss.c_mu
                + (e_phi - 1.0) * ss.e_log_g
                - e_phi * ss.e_g * ss.w_exp
            )
        )
        # E log p(r) under the marginalized Beta-Bernoulli prior.
        r_prior = (
            lb_pi_r1 * float(ss.u_r.sum()) + lb_pi_r0 * float(kappa.sum()) - y.size * lb_pi
        )
        # Entropies of q(g) and q(r); digamma(a_g) - log(b_g) is the cached
        # E[log g].
        e_log_q_g = (
            ss.a_g * np.log(ss.b_g)
            - gammaln(ss.a_g)
            + (ss.a_g - 1.0) * ss.e_log_g
            - ss.a_g
        )
        ent_g = -float(e_log_q_g.sum())
        ent_r = -float((xlogy(ss.u_r, ss.u_r) + xlogy(kappa, kappa)).sum())

        # theta prior cross-entropies and Gaussian entropy.
        eta_term = eta_const - (ss.mu[0] ** 2 + ss.sigma[0, 0]) / (2.0 * hp.sigma2_eta)
        psl = design.psi_slice
        n_cov = design.n_covariates
        psi_term = 0.0
        if n_cov:
            psi_sq = float(ss.mu[psl] @ ss.mu[psl] + np.trace(ss.sigma[psl, psl]))
            psi_term = n_cov * psi_const - psi_sq / (2.0 * hp.sigma2_psi)
        sign, logdet = np.linalg.slogdet(ss.sigma)
        if sign <= 0:
            raise EngineError("theta covariance not positive definite in ELBO")
        ent_theta = 0.5 * logdet + 0.5 * design.dim * (LOG_2PI + 1.0)

        # phi prior cross-entropy and q(phi) entropy via the cached normalizer.
        phi_prior = phi_prior_const + (hp.a_phi - 1.0) * fac.e_log_phi - hp.b_phi * e_phi
        ent_phi = -(
            ss.n_pi * fac.e_self
            + (hp.a_phi - 1.0) * fac.e_log_phi
            - ss.c1 * e_phi
            - fac.log_h0
        )

        for name, term in (
            ("poisson-likelihood", data_term),
            ("g-prior", g_prior),
            ("r-prior", r_prior),
            ("g-entropy", ent_g),
            ("r-entropy", ent_r),
            ("eta-prior", eta_term),
            ("psi-prior", psi_term),
            ("theta-entropy", ent_theta),
            ("phi-prior", phi_prior),
            ("phi-entropy", ent_phi),
        ):
            if not math.isfinite(term):
                raise EngineError(f"non-finite ELBO term {name!r}")
            total += term

        for k in (0, 1):
            bsq = ss.beta_sq[k]
            u_alpha = float(ss.u_alpha[k])
            e_inv_s2 = ss.e_inv_sigma2(k)
            e_log_inv_s2 = ss.e_log_inv_sigma2(k)
            # beta | sigma^2, alpha spike-and-slab cross-entropy.
            beta_term = u_alpha * (
                -0.5 * length * LOG_2PI + 0.5 * length * e_log_inv_s2 - 0.5 * bsq * e_inv_s2
            ) + (1.0 - u_alpha) * (
                -0.5 * length * (LOG_2PI + log_gamma1_sq) - bsq / (2.0 * hp.gamma1_sq)
            )
            # sigma^2 | a and a | A Half-Cauchy hierarchy.
            scale_a = 1.0 / float(ss.u_inv_a[k])
            e_log_a, e_inv_a = _inv_gamma_e_log(1.0, scale_a)
            sig_prior = -0.5 * e_log_a - _LGAMMA_HALF + 1.5 * e_log_inv_s2 - e_inv_a * e_inv_s2
            a_sq = hp.a_slab[k] ** 2
            a_prior = -0.5 * math.log(a_sq) - _LGAMMA_HALF - 1.5 * e_log_a - e_inv_a / a_sq
            # entropies of q(sigma^2) (inverse gamma) and q(a).
            sa, sb = float(ss.a_sig[k]), float(ss.b_sig[k])
            e_log_q_sig = sa * math.log(sb) - float(gammaln(sa)) + (sa + 1.0) * e_log_inv_s2 - sa
            e_log_q_a = math.log(scale_a) - 2.0 * e_log_a - scale_a * e_inv_a
            # alpha | u, q mixture cross-entropy and q(alpha) entropy.
            u_u = float(shared.u_u[k])
            alpha_prior = u_u * (
                u_alpha * shared.e_log_q[k] + (1.0 - u_alpha) * shared.e_log_1mq[k]
            ) + (1.0 - u_u) * (u_alpha * log_g2 + (1.0 - u_alpha) * log_1mg2)
            block = (
                beta_term + sig_prior + a_prior - e_log_q_sig - e_log_q_a
                + alpha_prior + _binary_entropy(u_alpha)
            )
            if not math.isfinite(block):
                raise EngineError(f"non-finite ELBO term 'spike-slab block k={k}'")
            total += block

    for k in (0, 1):
        u_u = float(shared.u_u[k])
        e_log_p, e_log_1mp = float(shared.e_log_p[k]), float(shared.e_log_1mp[k])
        e_log_q, e_log_1mq = float(shared.e_log_q[k]), float(shared.e_log_1mq[k])
        a_p, b_p = float(shared.a_p[k]), float(shared.b_p[k])
        a_q, b_q = float(shared.a_q[k]), float(shared.b_q[k])
        u_prior = u_u * e_log_p + (1.0 - u_u) * e_log_1mp
        p_prior = (
            -_log_beta_c(hp.c_p, hp.d_p)
            + (hp.c_p - 1.0) * e_log_p
            + (hp.d_p - 1.0) * e_log_1mp
        )
        q_prior = (
            -_log_beta_c(hp.c_q, hp.d_q)
            + (hp.c_q - 1.0) * e_log_q
            + (hp.d_q - 1.0) * e_log_1mq
        )
        e_log_q_p = -log_beta(a_p, b_p) + (a_p - 1.0) * e_log_p + (b_p - 1.0) * e_log_1mp
        e_log_q_q = -log_beta(a_q, b_q) + (a_q - 1.0) * e_log_q + (b_q - 1.0) * e_log_1mq
        block = u_prior + p_prior + q_prior + _binary_entropy(u_u) - e_log_q_p - e_log_q_q
        if not math.isfinite(block):
            raise EngineError(f"non-finite ELBO term 'shared gate k={k}'")
        total += block

    if not math.isfinite(total):
        raise EngineError("non-finite ELBO")
    return float(total)


# ---------------------------------------------------------------------------
# Fit loop
# ---------------------------------------------------------------------------


def _one_iteration(states, shared, ys, designs, hp, damping):
    for ss, y, design in zip(states, ys, designs):
        update_theta(ss, design, hp, damping)
        update_phi(ss, design, hp)
        update_g(ss, y)
        update_r(ss, y, hp)
        for k in (0, 1):
            update_sigma(ss, design, k)
            update_a(ss, k, hp)
            update_alpha(ss, shared, design, k, hp)
    for k in (0, 1):
        update_q(shared, states, k, hp)
        update_p(shared, k, hp)
    for k in (0, 1):
        update_u(shared, states, k, hp)


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
        states, shared = init_state(ys, designs, hp)
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
        snapshot = ([ss.clone() for ss in states], shared.clone())
        retried = False
        while True:
            try:
                _one_iteration(states, shared, ys, designs, hp, damping)
                elbo = compute_elbo(states, shared, ys, designs, hp)
                break
            except _FIT_ERRORS as exc:
                if retried:
                    failure = f"iteration {iteration + 1}: {exc}"
                    states, shared = snapshot
                    break
                retried = True
                damping = max(damping / 2.0, _MIN_DAMPING)
                states = [ss.clone() for ss in snapshot[0]]
                shared = snapshot[1].clone()
        if failure is not None:
            break
        iteration += 1
        trace.append(elbo)
        if prev_elbo is not None and abs(elbo - prev_elbo) < opts.elbo_tol:
            converged = True
            break
        prev_elbo = elbo

    alpha = np.array([[float(ss.u_alpha[k]) for k in (0, 1)] for ss in states])
    return GeneFitResult(
        e_u=(float(shared.u_u[0]), float(shared.u_u[1])),
        alpha=alpha,
        elbo_trace=trace,
        iterations=iteration,
        converged=converged,
        failure=failure,
    )
