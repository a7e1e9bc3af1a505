"""Coordinate-ascent variational inference for a block of genes.

A block of B genes is fit against the same M samples.  The model is a
zero-inflated negative binomial regression with the NB written as a
Poisson-Gamma mixture; the variational family factorizes over per-spot
Poisson rates g_i and dropout indicators r_i, the regression block theta =
(eta, beta_1, beta_2, psi), the dispersion phi, the spike-and-slab block
(slab variances sigma^2_mk, their Half-Cauchy auxiliaries a_mk and the slab
indicators alpha_mk for every sample m and spatial axis k), and the
cross-sample gate (u_k, p_k, q_k) that ties the indicators together.  Every
gene has its own factors; genes share only the designs.

A ``BlockState`` holds one row per gene.  Its six per-spot arrays are (B,
sum N_m): each row is the gene's M sections concatenated in sample order,
split by ``offsets``, so per-sample sums are one reduction along the spots.
The per-sample u_phi, N_pi, c1 and log y! sums are (B, M), and sample m's
theta block is ``mu[m]`` (B, d_m) and ``sigma[m]`` (B, d_m, d_m), so
samples may differ in spot and covariate counts.  The d x d work loops over
the M samples, each stacked over the block: with the design's column-pair
products P (``DesignMatrix.pairs``), every gene's weighted Gram matrix is
one GEMM ``W @ P.T`` and its row-wise quadratic forms one GEMM against P;
the Cholesky factors and inverses are stacked.  q(phi) is one quadrature
per (gene, sample), and the B*M of them are one array program.
``SharedState`` holds the (B, M, 2) spike-and-slab block and the (B, 2)
gate.  Every field is set once at init or replaced whole by an update, so
a retry snapshot is a shallow copy of each state.

All factor updates are conjugate closed forms except theta, which takes a
fixed-point Gaussian step (non-conjugate variational message passing), and
phi, whose factor is normalized by quadrature.  Convergence is declared per
gene on the absolute ELBO change.

Failures are per gene.  An update that cannot complete some genes raises
EngineError naming their rows before any later update reads them; the fit
loop reruns that iteration from its pre-iteration rows, with each gene that
failed for the first time at its own halved damping and without each gene
that failed twice.  Genes that converge, fail twice or reach the iteration
cap leave the block; no row ever joins one.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .numerics import (
    EULER_GAMMA,
    NumericalError,
    PhiFactor,
    log_beta,
    mvn_exp_neg_linear,
    phi_factor,
    upper_pairs,
)
from .special import digamma, expit, gammaln, gammaln_digamma
from .splines import DesignMatrix

__all__ = [
    "A_BY_DEGREE",
    "EngineError",
    "Hyperparameters",
    "BlockState",
    "SharedState",
    "FitOptions",
    "GeneFitResult",
    "block_size",
    "gamma2_for_samples",
    "init_state",
    "gamma_moments",
    "beta_prior_precision",
    "m_prior_diag",
    "alpha_logit",
    "u_logit",
    "theta_derivatives",
    "update_theta",
    "update_phi",
    "g_factor",
    "update_g",
    "update_r",
    "update_sigma",
    "update_a",
    "update_alpha",
    "update_u",
    "update_p",
    "update_q",
    "compute_elbo",
    "fit_genes",
    "fit_gene",
]

# Half-Cauchy scale of the slab standard deviation, keyed by spline degree.
A_BY_DEGREE = {1: 0.08, 2: 0.05, 3: 0.04, 4: 0.03}

_KAPPA_FLOOR = 1e-8  # keeps q(g) a proper Gamma at fully dropped-out spots
_U_PHI_BOUNDS = (1e-4, 1e4)
_MIN_DAMPING = 1.0 / 16.0
_JITTER = 1e-8
# Genes per block: at most _MAX_BLOCK, and at most _BLOCK_SPOT_GENES
# gene-spot entries per per-spot array, so a data set above that many spots
# fits one gene at a time.  A larger block pays each iteration's fixed costs
# for more genes but holds more per-spot arrays: the cap is the largest that
# keeps the pool-small benchmark's (3 x 256 spots, 2 workers) peak RSS
# within 10% of that with 16-gene blocks (BENCH_16.json).
_MAX_BLOCK = 32
_BLOCK_SPOT_GENES = 24_576

LOG_2PI = math.log(2.0 * math.pi)
_LGAMMA_HALF = float(gammaln(0.5))


class EngineError(RuntimeError):
    """Raised when a variational update cannot be completed.

    ``failures`` maps each block row that failed to its message; an error
    without it fails every row of the block.
    """

    def __init__(self, message, failures=None):
        super().__init__(message)
        self.failures = failures


# Numerical failures that end one gene's fit rather than the run.
_FIT_ERRORS = (EngineError, NumericalError, np.linalg.LinAlgError)


def _fail(failures):
    """Raise EngineError for ``failures`` (row -> message), led by the first row's message."""
    raise EngineError(next(iter(failures.values())), failures)


def _first_flags(bad):
    """{row: first flagged column} for each row of a 2-D mask that has a flag."""
    return {int(b): int(np.argmax(bad[b])) for b in np.flatnonzero(bad.any(axis=1))}


def _row_failures(exc, n_rows):
    """The rows an exception from a block update fails, with their messages."""
    if isinstance(exc, EngineError) and exc.failures:
        return exc.failures
    return dict.fromkeys(range(n_rows), str(exc))


def block_size(n_spots: int) -> int:
    """Genes per block for samples with ``n_spots`` spots in all."""
    return min(_MAX_BLOCK, max(1, _BLOCK_SPOT_GENES // n_spots))


@lru_cache(maxsize=256)
def _log_beta_c(a: float, b: float) -> float:
    return float(log_beta(a, b))


@lru_cache(maxsize=256)
def _gammaln_c(a: float) -> float:
    return float(gammaln(a))


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
class BlockState:
    """The data, q(g), q(r), q(theta), q(phi) and caches of B genes, one row each.

    Layout: a gene's spots are its samples' sections concatenated in sample
    order, and sample m owns columns ``offsets[m]:offsets[m + 1]``
    (``sections[m]``) of each of the six (B, sum N_m) per-spot arrays: the
    counts ``y``, ``u_r`` = E[r_i] (exactly 0 wherever y_i > 0), q(g)'s
    moments ``e_g``/``e_log_g`` (set by ``update_g``), and ``w_exp`` and
    ``c_mu``, E[exp(-C_i theta)] and C_i mu.  ``owner`` maps each column to
    its sample.  Per-sample sums are one reduction over the offsets.

    ``u_phi``, ``n_pi``, ``c1``, q(g)'s entropy ``ent_g`` and each sample's
    log(y_i!) sum ``log_y_fact`` are (B, M); ``update_g`` sets ``ent_g`` and
    ``update_phi`` sets ``n_pi``, ``c1`` and ``phi_cache``, the q(phi)
    normalizers and moments at (n_pi, c1) as a ``PhiFactor`` of (B, M)
    arrays, with the quadrature windows they were evaluated on, (B, M,
    nodes).  The regression blocks differ in size between samples, so ``mu``
    and ``sigma`` are tuples of M arrays, (B, d_m) and (B, d_m, d_m), with
    their own ``designs[m]``; the (B, M, 2) ``beta_sq`` is E[beta_mk'
    beta_mk] and the (M, 1) ``length`` the slab block lengths L_m.
    ``w_exp``, ``c_mu`` and ``beta_sq`` are functions of (mu, Sigma),
    refreshed together by ``refresh_theta_cache``.  A gene's slab factors
    are its row of ``SharedState``'s (B, M, 2) block.
    """

    # The fields that hold one row per gene: arrays, or tuples of them.
    ROWS = ("y", "log_y_fact", "u_r", "u_phi", "mu", "sigma", "n_pi", "c1", "e_g",
            "e_log_g", "ent_g", "w_exp", "c_mu", "beta_sq", "phi_cache")

    y: np.ndarray
    designs: tuple
    offsets: np.ndarray
    log_y_fact: np.ndarray
    u_r: np.ndarray
    u_phi: np.ndarray
    mu: tuple
    sigma: tuple
    n_pi: np.ndarray = None
    c1: np.ndarray = None
    e_g: np.ndarray = None
    e_log_g: np.ndarray = None
    ent_g: np.ndarray = None
    w_exp: np.ndarray = None
    c_mu: np.ndarray = None
    beta_sq: np.ndarray = None
    phi_cache: PhiFactor | None = None
    sections: tuple = field(init=False)
    owner: np.ndarray = field(init=False)
    length: np.ndarray = field(init=False)

    def __post_init__(self):
        bounds = self.offsets.tolist()
        self.sections = tuple(slice(a, b) for a, b in zip(bounds[:-1], bounds[1:]))
        self.owner = np.repeat(np.arange(len(self.designs)), np.diff(self.offsets))
        self.length = np.array([[design.n_basis] for design in self.designs], dtype=float)

    def per_sample_sum(self, x):
        """(B, M) sums of a per-spot array over each sample's spots."""
        return np.add.reduceat(x, self.offsets[:-1], axis=1)

    def per_spot(self, v):
        """A per-sample (B, M) array repeated over each sample's spots."""
        return v.take(self.owner, axis=1)

    def locate(self, spot):
        """'sample m spot i' for an index into the concatenated spots."""
        m = int(self.owner[spot])
        return f"sample {m} spot {spot - self.sections[m].start}"

    def set_g(self, a, b):
        """Set q(g) = Gamma(a, rate b): E[g], E[log g] and per-sample entropy, in one pass."""
        log_b = np.log(b)
        lgamma_a, e_log_g = gammaln_digamma(a)
        e_log_g -= log_b
        self.e_g = a / b
        self.e_log_g = e_log_g
        self.ent_g = -self.per_sample_sum(a * log_b - lgamma_a + (a - 1.0) * e_log_g - a)

    def refresh_theta_cache(self):
        """Recompute every cached function of (mu, Sigma); call after changing either.

        ``w_exp`` and ``c_mu`` are the two results of one ``mvn_exp_neg_linear``
        call per sample.
        """
        moments, beta_sq = [], []
        for design, mu, sigma in zip(self.designs, self.mu, self.sigma):
            moments.append(mvn_exp_neg_linear(mu, sigma, design))
            # E[beta_k' beta_k] = |mu_k|^2 + tr(Sigma_k block) for k = 0, 1.
            var = np.diagonal(sigma, axis1=1, axis2=2)
            blocks = (design.beta_slice(0), design.beta_slice(1))
            beta_sq.append([np.square(mu[:, b]).sum(axis=1) + var[:, b].sum(axis=1)
                            for b in blocks])
        w, c_mu = (np.concatenate(parts, axis=1) for parts in zip(*moments))
        bad = ~np.isfinite(w)
        if bad.any():
            _fail({b: f"non-finite exp(-C theta) moment at {self.locate(spot)}"
                   for b, spot in _first_flags(bad).items()})
        self.w_exp = w
        self.c_mu = c_mu
        self.beta_sq = np.array(beta_sq).transpose(2, 0, 1)


def gamma_moments(a, b):
    """(E[x], E[log x]) under Gamma(a, b) with rate b, elementwise."""
    return a / b, digamma(a) - np.log(b)


def _beta_e_logs(a, b):
    """(E[log x], E[log(1 - x)]) under Beta(a, b), elementwise."""
    psi_a, psi_b, total = digamma(np.array((a, b, a + b)))
    return psi_a - total, psi_b - total


@dataclass
class SharedState:
    """The (B, M, 2) spike-and-slab block and the (B, 2) cross-sample gate.

    Entry [b, m, k] of ``a_sig``/``b_sig`` (q(1/sigma^2_mk)), ``u_inv_a``
    (E[1/a_mk]) and ``u_alpha`` (E[alpha_mk]) belongs to gene b, sample m
    and axis k; the gate factors ``u_u``, ``a_p``/``b_p`` and ``a_q``/``b_q``
    are indexed by [b, k].  Updates assign new arrays.  The digamma moments
    of the Beta factors are cached; call ``refresh_moments`` after changing
    any Beta parameter by hand.
    """

    ROWS = ("a_sig", "b_sig", "u_inv_a", "u_alpha", "u_u", "a_p", "b_p", "a_q", "b_q",
            "e_log_p", "e_log_1mp", "e_log_q", "e_log_1mq")

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


def _rowwise(fn, value):
    """``fn`` applied to each array of a row field, through (named) tuples of them."""
    if not isinstance(value, tuple):
        return fn(value)
    parts = [_rowwise(fn, item) for item in value]
    return value._make(parts) if hasattr(value, "_make") else tuple(parts)


def _take(state, rows):
    """A copy of a block state (``BlockState`` or ``SharedState``) with only ``rows``, in order."""
    new = copy.copy(state)
    for name in state.ROWS:
        value = getattr(state, name)
        if value is not None:
            setattr(new, name, _rowwise(lambda v: v[rows], value))
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


def init_state(counts, designs, hp: Hyperparameters):
    """Initial variational state of a block of genes: (BlockState, SharedState).

    ``counts`` holds one (B, N_m) integer block per sample, row b being gene
    b, as ``CsrCounts[start:stop]`` returns them; blocks that differ in B,
    do not fit their designs, or are not non-negative integers raise
    ValueError.  The regression mean starts at the log count mean (intercept
    only) with an isotropic 0.01 covariance; indicators start symmetric at
    0.5; the q(g) factor is seeded from its own update at those values.
    """
    counts = [np.asarray(c) for c in counts]
    if not counts or len(counts) != len(designs) or counts[0].ndim != 2 or not len(counts[0]):
        raise ValueError("need one (genes, spots) count block per design, with at least one gene")
    for c, design in zip(counts, designs):
        if c.ndim != 2 or c.shape[0] != counts[0].shape[0]:
            raise ValueError("every sample's count block needs the same number of genes")
        if not 0 < c.shape[1] == design.matrix.shape[0]:
            raise ValueError("a count block needs at least one spot and one per design row")
        if not np.issubdtype(c.dtype, np.integer) or (c < 0).any():
            raise ValueError("counts must be non-negative integers")
    y = np.concatenate(counts, axis=1).astype(np.int64, copy=False)
    n_genes, n_samples = y.shape[0], len(designs)
    offsets = np.cumsum([0] + [design.matrix.shape[0] for design in designs])
    means = np.add.reduceat(y, offsets[:-1], axis=1) / np.diff(offsets)
    mu = []
    for m, design in enumerate(designs):
        mu_m = np.zeros((n_genes, design.dim))
        mu_m[:, 0] = [math.log(mean + 0.01) for mean in means[:, m].tolist()]
        mu.append(mu_m)
    state = BlockState(
        y=y,
        designs=tuple(designs),
        offsets=offsets,
        log_y_fact=np.add.reduceat(gammaln(y + 1.0), offsets[:-1], axis=1),
        u_r=np.where(y == 0, 0.5, 0.0),
        u_phi=np.full((n_genes, n_samples), max(hp.a_phi / hp.b_phi, 1.0)),
        mu=tuple(mu),
        sigma=tuple(np.tile(0.01 * np.eye(design.dim), (n_genes, 1, 1)) for design in designs),
    )
    state.refresh_theta_cache()
    update_g(state)
    block = (n_genes, n_samples, 2)
    gate = (n_genes, 2)
    shared = SharedState(
        a_sig=np.full(block, 0.5),
        b_sig=np.full(block, 1.0),
        u_inv_a=np.tile(1.0 / (1.0 + 1.0 / np.square(hp.a_slab)), (n_genes, n_samples, 1)),
        u_alpha=np.full(block, 0.5),
        u_u=np.full(gate, 0.5),
        a_p=np.full(gate, hp.c_p),
        b_p=np.full(gate, hp.d_p),
        a_q=np.full(gate, hp.c_q),
        b_q=np.full(gate, hp.d_q),
    )
    return state, shared


# ---------------------------------------------------------------------------
# Factor updates (one coordinate-ascent step each, for every gene of a block)
# ---------------------------------------------------------------------------


def beta_prior_precision(shared: SharedState, hp: Hyperparameters):
    """(B, M, 2) prior precision of each beta_mk under current q(sigma), q(alpha)."""
    e_inv_s2 = shared.a_sig / shared.b_sig
    return shared.u_alpha * e_inv_s2 + (1.0 - shared.u_alpha) / hp.gamma1_sq


def m_prior_diag(design: DesignMatrix, beta_prec, hp: Hyperparameters):
    """Diagonal of theta's prior precision from one sample's (..., 2) beta precisions: (..., d)."""
    beta_prec = np.asarray(beta_prec, dtype=float)
    lead = beta_prec.shape[:-1] + (1,)
    values = np.concatenate(
        (np.full(lead, 1.0 / hp.sigma2_eta), beta_prec, np.full(lead, 1.0 / hp.sigma2_psi)),
        axis=-1,
    )
    return np.repeat(values, [1, design.n_basis, design.n_basis, design.n_covariates], axis=-1)


def _symmetric(upper, d):
    """(..., d, d) symmetric matrices from their (..., D) upper triangles."""
    i, j, _ = upper_pairs(d)
    out = np.empty(upper.shape[:-1] + (d, d))
    out[..., i, j] = upper
    out[..., j, i] = upper
    return out


def theta_derivatives(mu, w_exp, design, u_phi, one_minus_ur, e_g, m_prior):
    """Gradient in mu and derivative matrix in Sigma of E_theta[log p].

    E_theta[log p] is one gene's expected log joint as a function of its
    Gaussian factor's (mu, Sigma), the terms involving theta only; its
    derivatives drive the fixed-point step.

    ``w_exp`` is E[exp(-C theta)] at the factor's current (mu, Sigma), the
    only way Sigma enters the derivatives.  For a stack of genes every
    argument gains a leading gene axis (``u_phi`` is then (B,)); the
    weighted Gram matrices C' diag(w) C are one GEMM against the design's
    column-pair products.
    """
    c = design.matrix
    u_phi = np.asarray(u_phi, dtype=float)[..., None]
    w = one_minus_ur * e_g * w_exp
    grad_mu = u_phi * ((w - one_minus_ur) @ c) - m_prior * mu
    gram = _symmetric(w @ design.pairs.T, design.dim)
    d_sigma = -0.5 * (u_phi[..., None] * gram + m_prior[..., None] * np.eye(design.dim))
    return grad_mu, d_sigma


def _cholesky(prec):
    """Cholesky factors of a (B, d, d) stack and the rows that could not be factored.

    When the stacked factorization fails, each gene is factored on its own,
    and a gene whose factorization fails is retried once with a diagonal
    jitter.  numpy's LAPACK is used: scipy's would load a second BLAS into
    every worker.
    """
    try:
        return np.linalg.cholesky(prec), []
    except np.linalg.LinAlgError:
        pass
    if len(prec) > 1:
        parts = [_cholesky(prec[b:b + 1]) for b in range(len(prec))]
        failed = [b for b, (_, bad) in enumerate(parts) if bad]
        return (None if failed else np.concatenate([chol for chol, _ in parts])), failed
    try:
        return np.linalg.cholesky(prec + _JITTER * np.eye(prec.shape[-1])), []
    except np.linalg.LinAlgError:
        return None, [0]


def update_theta(state: BlockState, beta_prec, hp: Hyperparameters, damping=1.0):
    """One fixed-point Gaussian step for every sample's regression block.

    ``beta_prec`` is the (B, M, 2) ``beta_prior_precision``; sample m reads
    its column.  ``damping`` is one value or one per gene.  The new
    covariance is the inverse of P = u_phi C' diag[w] C + M_prior evaluated
    at the old moments; the mean moves damped along Sigma_new times the
    gradient.
    """
    one_minus_ur = 1.0 - state.u_r
    damping = np.reshape(damping, (-1, 1))
    mus, sigmas = [], []
    for m, (design, spots) in enumerate(zip(state.designs, state.sections)):
        m_prior = m_prior_diag(design, beta_prec[:, m], hp)
        grad_mu, d_sigma = theta_derivatives(
            state.mu[m], state.w_exp[:, spots], design, state.u_phi[:, m],
            one_minus_ur[:, spots], state.e_g[:, spots], m_prior,
        )
        prec = -2.0 * d_sigma
        bad = ~np.isfinite(prec).all(axis=(1, 2))
        if bad.any():
            _fail(dict.fromkeys(np.flatnonzero(bad).tolist(),
                                f"non-finite precision in theta update of sample {m}"))
        # One Cholesky factorization P = L L' per gene; Sigma = L^-T L^-1.
        chol, failed = _cholesky(prec)
        if failed:
            _fail(dict.fromkeys(failed, f"theta precision of sample {m} not invertible after jitter"))
        inv_chol = np.linalg.inv(chol)
        sigma_new = inv_chol.transpose(0, 2, 1) @ inv_chol
        sigma_new = 0.5 * (sigma_new + sigma_new.transpose(0, 2, 1))
        mus.append(state.mu[m] + damping * (sigma_new @ grad_mu[:, :, None])[:, :, 0])
        sigmas.append(sigma_new)
    state.mu, state.sigma = tuple(mus), tuple(sigmas)
    state.refresh_theta_cache()


def update_phi(state: BlockState, hp: Hyperparameters):
    """Refresh each (gene, sample) dispersion factor: its (N_pi, c1) and mean u_phi.

    b_phi enters c1 once, outside the spot sum.  The mean is the ratio of
    shifted-power normalizers, exp(logH(a_phi, ...) - logH(a_phi-1, ...)),
    clamped to a wide stability interval.  The B*M factors are one
    ``phi_factor`` call; a gene with a factor that cannot be evaluated
    fails with its first such sample's message.
    """
    kappa = 1.0 - state.u_r
    n_pi = state.per_sample_sum(kappa)
    spot_terms = state.c_mu - state.e_log_g + state.e_g * state.w_exp
    # c1 is one dot product per (gene, sample), not a segment sum: the fit
    # is sensitive to its rounding.
    c1 = hp.b_phi + np.stack(
        [np.einsum("bi,bi->b", kappa[:, s], spot_terms[:, s]) for s in state.sections], axis=1)
    bad = ~(c1 > 0.0)
    if bad.any():
        _fail({b: f"non-positive c1 = {c1[b, m]} in phi update of sample {m}"
               for b, m in _first_flags(bad).items()})
    try:
        phi = phi_factor(hp.a_phi, n_pi, c1, prev=state.phi_cache)
    except NumericalError as exc:
        failures = {}
        for row, message in exc.failures.items():
            failures.setdefault(row // c1.shape[1], message)
        _fail(failures)
    state.n_pi, state.c1, state.phi_cache = n_pi, c1, phi
    state.u_phi = np.clip(phi.e_phi, *_U_PHI_BOUNDS)


def g_factor(state: BlockState):
    """q(g)'s (shape, rate) as ``update_g`` sets them, while u_r, u_phi and w_exp stay unchanged."""
    kappa = np.maximum(1.0 - state.u_r, _KAPPA_FLOOR)
    u_phi = state.per_spot(state.u_phi)
    return (state.y + u_phi - 1.0) * kappa + 1.0, kappa * (u_phi * state.w_exp + 1.0)


def update_g(state: BlockState):
    """Conjugate Gamma update of the per-spot Poisson rates; the state keeps q(g)'s moments."""
    shape, rate = g_factor(state)
    ok = np.isfinite(rate) & (rate > 0.0)
    if not ok.all():
        _fail({b: f"invalid q(g) rate at {state.locate(spot)}"
               for b, spot in _first_flags(~ok).items()})
    state.set_g(shape, rate)


def update_r(state: BlockState, hp: Hyperparameters):
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
        beta_sq, e_inv_s2, e_log_inv_s2, shared.u_u[:, None], shared.e_log_q[:, None],
        shared.e_log_1mq[:, None], length, hp,
    )
    shared.u_alpha = expit(logit)


def u_logit(u_alphas, e_log_q, e_log_1mq, e_log_p, e_log_1mp, hp):
    """Log-odds of the shared gate from the per-sample indicator expectations.

    The first axis of ``u_alphas`` is the samples', whose terms are added in
    sample order; the rest broadcast with the Beta moments.
    """
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
        shared.u_alpha.transpose(1, 0, 2), shared.e_log_q, shared.e_log_1mq, shared.e_log_p,
        shared.e_log_1mp, hp,
    )
    shared.u_u = expit(logit)


def update_p(shared: SharedState, hp: Hyperparameters):
    shared.a_p = shared.u_u + hp.c_p
    shared.b_p = hp.d_p - shared.u_u + 1.0
    shared.e_log_p, shared.e_log_1mp = _beta_e_logs(shared.a_p, shared.b_p)


def update_q(shared: SharedState, hp: Hyperparameters):
    # Samples are added in sample order.
    sum_alpha = shared.u_alpha.sum(axis=1)
    u_u = shared.u_u
    shared.a_q = u_u * sum_alpha + hp.c_q
    shared.b_q = shared.u_alpha.shape[1] * u_u + hp.d_q - u_u * sum_alpha
    shared.e_log_q, shared.e_log_1mq = _beta_e_logs(shared.a_q, shared.b_q)


# ---------------------------------------------------------------------------
# ELBO
# ---------------------------------------------------------------------------


def _xlogx(p):
    """p log p for p in [0, 1], 0 at p = 0; the log is taken at positive
    arguments only (numpy's log is several times slower at 0)."""
    return p * np.log(p + (p == 0.0))


def _binary_entropy(p):
    """Entropy of Bernoulli(p) factors, elementwise, with 0 log 0 = 0."""
    return -(_xlogx(p) + _xlogx(1.0 - p))


def _slab_elbo(shared: SharedState, beta_sq, length, hp: Hyperparameters):
    """(B, M, 2) ELBO terms of the spike-and-slab block, one per (gene, sample, axis)."""
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
    # Gamma(1, b) moments: psi(1) = -Euler's constant.
    e_inv_a, e_log_inv_a = 1.0 / scale_a, -EULER_GAMMA - np.log(scale_a)
    e_log_a = -e_log_inv_a
    sig_prior = -0.5 * e_log_a - _LGAMMA_HALF + 1.5 * e_log_inv_s2 - e_inv_a * e_inv_s2
    a_sq = np.square(hp.a_slab)
    a_prior = -0.5 * np.log(a_sq) - _LGAMMA_HALF - 1.5 * e_log_a - e_inv_a / a_sq
    # entropies of q(sigma^2) (inverse gamma) and q(a).
    sa, sb = shared.a_sig, shared.b_sig
    e_log_q_sig = sa * np.log(sb) - gammaln(sa) + (sa + 1.0) * e_log_inv_s2 - sa
    e_log_q_a = np.log(scale_a) - 2.0 * e_log_a - scale_a * e_inv_a
    # alpha | u, q mixture cross-entropy and q(alpha) entropy.
    u_u = shared.u_u[:, None]
    alpha_prior = u_u * (
        u_alpha * shared.e_log_q[:, None] + (1.0 - u_alpha) * shared.e_log_1mq[:, None]
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
    """(B, 2) ELBO terms of the cross-sample gate (u_k, p_k, q_k), one per (gene, axis)."""
    u_u = shared.u_u
    logs_p = shared.e_log_p, shared.e_log_1mp
    logs_q = shared.e_log_q, shared.e_log_1mq
    a_p, b_p, a_q, b_q = shared.a_p, shared.b_p, shared.a_q, shared.b_q
    log_norm_p, log_norm_q = log_beta(np.array((a_p, a_q)), np.array((b_p, b_q)))
    return (
        u_u * logs_p[0] + (1.0 - u_u) * logs_p[1]
        + _e_log_beta_pdf(_log_beta_c(hp.c_p, hp.d_p), hp.c_p, hp.d_p, *logs_p)
        + _e_log_beta_pdf(_log_beta_c(hp.c_q, hp.d_q), hp.c_q, hp.d_q, *logs_q)
        + _binary_entropy(u_u)
        - _e_log_beta_pdf(log_norm_p, a_p, b_p, *logs_p)
        - _e_log_beta_pdf(log_norm_q, a_q, b_q, *logs_q)
    )


_ELBO_TERMS = (
    "poisson-likelihood", "g-prior", "r-prior", "g-entropy", "r-entropy", "eta-prior",
    "psi-prior", "theta-entropy", "phi-prior", "phi-entropy", "spike-slab block k=0",
    "spike-slab block k=1",
)


def compute_elbo(state: BlockState, shared: SharedState, hp: Hyperparameters):
    """Evidence lower bound of every gene at the current variational state, (B,).

    The joint follows the factor derivations: the Poisson likelihood and
    the Gamma prior of g are both gated by (1 - r_i), the r_i prior is the
    per-spot Beta-Bernoulli marginal, and q(phi)'s entropy uses the cached
    quadrature normalizer.  C mu, E[beta_k' beta_k] and log(y!) come from
    the state's caches.  The per-spot terms are summed per sample, and a
    gene's total adds each sample's terms in turn, then the gate's.  Raises
    EngineError for the genes with a non-finite term.
    """
    if state.phi_cache is None:
        raise EngineError("phi factor cache missing; run update_phi first")
    slab = _slab_elbo(shared, state.beta_sq, state.length, hp)
    gate = _gate_elbo(shared, hp)
    lb_pi = _log_beta_c(hp.a_pi, hp.b_pi)
    lb_pi_r1 = _log_beta_c(hp.a_pi + 1.0, hp.b_pi)
    lb_pi_r0 = _log_beta_c(hp.a_pi, hp.b_pi + 1.0)
    eta_const = -0.5 * (LOG_2PI + math.log(hp.sigma2_eta))
    psi_const = -0.5 * (LOG_2PI + math.log(hp.sigma2_psi))
    phi_prior_const = hp.a_phi * math.log(hp.b_phi) - _gammaln_c(hp.a_phi)

    phi = state.phi_cache
    e_phi, e_log_phi, e_self, log_h0 = phi.e_phi, phi.e_log_phi, phi.e_self, phi.log_h0
    y, u_r, e_g, e_log_g = state.y, state.u_r, state.e_g, state.e_log_g
    kappa = 1.0 - u_r
    spot_e_phi = state.per_spot(e_phi)

    # E log p(y | g, r), 0 on the Dirac branch; kappa = 1 wherever log y! > 0.
    data_term = state.per_sample_sum(kappa * (y * e_log_g - e_g)) - state.log_y_fact
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
    # Entropies of q(g), summed by update_g, and of q(r).
    ent_g = state.ent_g
    ent_r = state.per_sample_sum(_binary_entropy(u_r))

    # theta prior cross-entropies and Gaussian entropy, one block per sample.
    theta_terms = []
    for m, (design, mu, sigma) in enumerate(zip(state.designs, state.mu, state.sigma)):
        eta_term = eta_const - (mu[:, 0] ** 2 + sigma[:, 0, 0]) / (2.0 * hp.sigma2_eta)
        psl = design.psi_slice
        n_cov = design.n_covariates
        psi_term = np.zeros(len(mu))
        if n_cov:
            psi_sq = np.square(mu[:, psl]).sum(axis=1) + np.trace(
                sigma[:, psl, psl], axis1=1, axis2=2)
            psi_term = n_cov * psi_const - psi_sq / (2.0 * hp.sigma2_psi)
        sign, logdet = np.linalg.slogdet(sigma)
        if (sign <= 0).any():
            _fail(dict.fromkeys(np.flatnonzero(sign <= 0).tolist(),
                                "theta covariance not positive definite in ELBO"))
        ent_theta = 0.5 * logdet + 0.5 * design.dim * (LOG_2PI + 1.0)
        theta_terms.append(np.stack((eta_term, psi_term, ent_theta), axis=1))

    # phi prior cross-entropy and q(phi) entropy via the cached normalizer.
    phi_prior = phi_prior_const + (hp.a_phi - 1.0) * e_log_phi - hp.b_phi * e_phi
    ent_phi = -(
        state.n_pi * e_self + (hp.a_phi - 1.0) * e_log_phi - state.c1 * e_phi - log_h0
    )

    # (B, M, 12) terms in the order of _ELBO_TERMS.
    per_sample = np.stack((data_term, g_prior, r_prior, ent_g, ent_r), axis=2)
    terms = np.concatenate(
        (per_sample, np.stack(theta_terms, axis=1), np.stack((phi_prior, ent_phi), axis=2),
         slab),
        axis=2,
    )
    n_terms = len(_ELBO_TERMS)
    terms = np.concatenate((terms.reshape(len(terms), -1), gate), axis=1)
    bad = ~np.isfinite(terms)
    if bad.any():
        messages = {}
        for b, col in _first_flags(bad).items():
            if col < terms.shape[1] - 2:
                m, j = divmod(col, n_terms)
                messages[b] = f"non-finite ELBO term {_ELBO_TERMS[j]!r} of sample {m}"
            else:
                messages[b] = f"non-finite ELBO term 'shared gate k={col - terms.shape[1] + 2}'"
        _fail(messages)
    # A running sum adds each gene's terms one at a time, in order.
    total = np.cumsum(terms, axis=1)[:, -1]
    bad = ~np.isfinite(total)
    if bad.any():
        _fail(dict.fromkeys(np.flatnonzero(bad).tolist(), "non-finite ELBO"))
    return total


# ---------------------------------------------------------------------------
# Fit loop
# ---------------------------------------------------------------------------


def _one_iteration(state, shared, hp, damping):
    # A gene's theta/phi/g/r steps read only its own spots, theta blocks and
    # slab rows, and the slab block reads only its beta moments and gate.
    update_theta(state, beta_prior_precision(shared, hp), hp, damping)
    update_phi(state, hp)
    update_g(state)
    update_r(state, hp)
    update_sigma(shared, state.beta_sq, state.length)
    update_a(shared, hp)
    update_alpha(shared, state.beta_sq, state.length, hp)
    update_q(shared, hp)
    update_p(shared, hp)
    update_u(shared, hp)


def _attempt(state, shared, hp, damping):
    """One iteration of a block on copies of its states, with one retry per row.

    When an update fails some rows, the iteration is rerun from the input:
    a row that failed for the first time stays, with its damping halved in
    place (floor 1/16), and a row that failed twice is dropped, so no
    update reads it.  Returns the new (state, shared) and ELBO of the rows
    that completed (None if none did), those rows, and {row: message} of
    the rows that failed twice.
    """
    rows = np.arange(len(damping))
    retried, failures = set(), {}
    while rows.size:
        if rows.size == len(damping):
            # Updates replace fields whole, so shallow copies leave the input intact.
            trial = copy.copy(state), copy.copy(shared)
        else:
            trial = _take(state, rows), _take(shared, rows)
        try:
            _one_iteration(*trial, hp, damping[rows])
            return (*trial, compute_elbo(*trial, hp), rows, failures)
        except _FIT_ERRORS as exc:
            lost = _row_failures(exc, rows.size)
        for r, message in lost.items():
            row = int(rows[r])
            if row in retried:
                failures[row] = message
            else:
                retried.add(row)
                damping[row] = max(damping[row] / 2.0, _MIN_DAMPING)
        rows = rows[~np.isin(rows, list(failures))]
    return None, None, None, rows, failures


def _result(shared, row, trace, iterations, converged, failure=None):
    return GeneFitResult(
        e_u=(float(shared.u_u[row, 0]), float(shared.u_u[row, 1])),
        alpha=shared.u_alpha[row].copy(),
        elbo_trace=trace,
        iterations=iterations,
        converged=bool(converged),
        failure=failure,
    )


def fit_genes(counts, designs, hp: Hyperparameters, opts: FitOptions = FitOptions()):
    """Coordinate-ascent fits of a block of genes across samples, one result per gene.

    ``counts`` holds one (B, N_m) integer block per sample, as for
    ``init_state``, which checks them before any fit starts.  Each gene
    iterates the factor updates in a fixed order until its absolute
    ELBO change drops below ``opts.elbo_tol`` or ``opts.max_iter`` is
    reached.  When an iteration fails some genes numerically, the block
    reruns it from its pre-iteration state, and each of them is retried
    once in that rerun with its damping halved (floor 1/16); a second
    failure ends the gene with the last valid state's expectations.  A
    gene whose initial state cannot be built returns zero gate
    expectations, no iterations and an ``init:`` failure.  A gene's result does not depend
    on the other genes of the block beyond the rounding of the stacked
    matrix products.
    """
    results = [None] * len(counts[0]) if counts else []
    genes, block = np.arange(len(results)), counts  # block row b holds gene genes[b]
    while True:
        try:
            state, shared = init_state(block, designs, hp)
            break
        except _FIT_ERRORS as exc:
            failures = _row_failures(exc, genes.size)
            for row, message in failures.items():
                results[genes[row]] = GeneFitResult(
                    e_u=(0.0, 0.0), alpha=np.zeros((len(designs), 2)), elbo_trace=[],
                    iterations=0, converged=False, failure=f"init: {message}",
                )
            genes = np.delete(genes, list(failures))
            if not genes.size:
                return results
            block = [np.asarray(c)[genes] for c in counts]
    traces = [[] for _ in results]
    damping = np.ones(genes.size)
    prev_elbo = np.full(genes.size, np.nan)
    iteration = 0
    while genes.size:
        before = state, shared
        state, shared, elbo, rows, failed = _attempt(*before, hp, damping)
        for b, message in failed.items():
            results[genes[b]] = _result(before[1], b, traces[genes[b]], iteration, False,
                                        f"iteration {iteration + 1}: {message}")
        if state is None:
            break
        genes, damping, prev_elbo = genes[rows], damping[rows], prev_elbo[rows]
        iteration += 1
        for g, value in zip(genes.tolist(), elbo.tolist()):
            traces[g].append(value)
        converged = np.abs(elbo - prev_elbo) < opts.elbo_tol
        finished = converged | (iteration >= opts.max_iter)
        for b in np.flatnonzero(finished):
            results[genes[b]] = _result(shared, b, traces[genes[b]], iteration, converged[b])
        if finished.any():
            keep = np.flatnonzero(~finished)
            state, shared = _take(state, keep), _take(shared, keep)
            genes, damping, elbo = genes[keep], damping[keep], elbo[keep]
        prev_elbo = elbo
    return results


def fit_gene(ys, designs, hp: Hyperparameters, opts: FitOptions = FitOptions()):
    """The fit of one gene from its count vector in each sample: ``fit_genes`` on one row."""
    return fit_genes([np.asarray(y)[None] for y in ys], designs, hp, opts)[0]
