"""Special functions and quadrature shared by the variational engine.

The one nonstandard object is the normalizing integral of the dispersion
factor,

    H(p, q, r, s, t) = int_0^inf x^p * log(1+r*x)^q * {x^x / Gamma(x)}^s
                       * exp(-t*x) dx,

which has no closed form for s > 0 and is evaluated here by fixed-node
Gauss-Legendre quadrature after the substitution x = exp(u).  All values
are carried as logs; ratios of H values are formed as exp(logH1 - logH2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import gammaln

__all__ = [
    "NumericalError",
    "PhiFactor",
    "QuadratureSpec",
    "log_beta",
    "h_integral",
    "phi_factor",
    "mvn_exp_neg_linear",
]

EULER_GAMMA = 0.5772156649015328606

# Integrand values this far (in log units) below the peak are treated as zero
# when sizing the quadrature window.
_LOG_DROP = 60.0


class NumericalError(RuntimeError):
    """Raised when a quadrature or special-function evaluation cannot succeed."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Evaluation scheme for the H integral.

    ``node_count`` Gauss-Legendre nodes are spread over a window found from
    the integrand's peak after the log substitution.  With ``self_check``
    set, every evaluation is repeated at twice the node count and a mismatch
    beyond ``target_rel_tol`` raises :class:`NumericalError`.
    """

    node_count: int = 96
    target_rel_tol: float = 1e-8
    self_check: bool = False

    def __post_init__(self):
        if self.node_count < 16:
            raise ValueError(f"node_count must be >= 16, got {self.node_count}")


DEFAULT_QUADRATURE = QuadratureSpec()


def log_beta(a, b):
    """log B(a, b) = log Gamma(a) + log Gamma(b) - log Gamma(a+b), a, b > 0."""
    a_arr = np.asarray(a, dtype=float)
    b_arr = np.asarray(b, dtype=float)
    if np.any(a_arr <= 0.0) or np.any(b_arr <= 0.0):
        raise ValueError("log_beta requires positive arguments")
    out = gammaln(a_arr) + gammaln(b_arr) - gammaln(a_arr + b_arr)
    if np.ndim(a) == 0 and np.ndim(b) == 0:
        return float(out)
    return out


def _xlogx_minus_lgamma_u(u):
    """x*log(x) - log Gamma(x) at x = exp(u), the log of x^x / Gamma(x).

    For u below -30 the direct formula loses to underflow (exp(u) -> 0,
    Gamma -> inf), so the small-x expansion
    x log x - log Gamma(x) = u + x*(u + gamma) + O(x^2) is used instead.
    """
    u = np.asarray(u, dtype=float)
    out = np.empty_like(u)
    small = u < -30.0
    us = u[small]
    out[small] = us + np.exp(us) * (us + EULER_GAMMA)
    ub = u[~small]
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.exp(ub)
        out[~small] = x * ub - gammaln(x)
    return out


def _log_loglog1p_u(r, u):
    """log( log(1 + r*exp(u)) ), with the small-argument asymptote log(r) + u."""
    u = np.asarray(u, dtype=float)
    out = np.empty_like(u)
    log_r = math.log(r)
    tiny = log_r + u < -18.0
    # log1p(rx) = rx*(1 - rx/2 + ...) so log(log1p(rx)) ~ log(r) + u.
    out[tiny] = log_r + u[tiny]
    with np.errstate(over="ignore", invalid="ignore"):
        rx = r * np.exp(u[~tiny])
        out[~tiny] = np.log(np.log1p(rx))
    return out


def _h_log_integrand(u, p, q, r, s, t):
    """Log of the H integrand at x = exp(u), including the Jacobian du."""
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.exp(u)
        val = (p + 1.0) * u - t * x
        if s != 0.0:
            val = val + s * _xlogx_minus_lgamma_u(u)
        if q != 0:
            val = val + q * _log_loglog1p_u(r, u)
    # x overflowing to inf makes inf - inf = nan; the true integrand is 0
    # there because t > s forces the exp(-t*x) factor to win.
    return np.where(np.isnan(val), -np.inf, val)


def _h_window(p, q, r, s, t):
    """Locate the integrand peak in u-space and the window where it matters."""
    # The mode satisfies roughly (p+1+s) - (t-s)*x = 0 for large x, so it
    # cannot sit far beyond (p+1+s+2) / (t-s).
    x_hi = max((p + 2.0 + s + 2.0) / (t - s), 1e-6)
    u_hi0 = math.log(x_hi) + 5.0
    grid = np.linspace(min(-60.0, u_hi0 - 1.0), u_hi0, 513)
    vals = _h_log_integrand(grid, p, q, r, s, t)
    j = int(np.argmax(vals))
    lo_b = grid[max(j - 1, 0)]
    hi_b = grid[min(j + 1, grid.size - 1)]
    # Two vectorized zoom rounds sharpen the peak location well below the
    # accuracy the window needs.
    for _ in range(2):
        zoom = np.linspace(lo_b, hi_b, 65)
        zv = _h_log_integrand(zoom, p, q, r, s, t)
        jz = int(np.argmax(zv))
        lo_b = zoom[max(jz - 1, 0)]
        hi_b = zoom[min(jz + 1, zoom.size - 1)]
    u_mode = 0.5 * (lo_b + hi_b)
    f_mode = float(_h_log_integrand(np.array([u_mode]), p, q, r, s, t)[0])

    def _cut(direction):
        # Geometric ladder away from the mode: the first rung where the
        # integrand has dropped _LOG_DROP below the peak brackets the cut,
        # then a short bisection tightens it so tail panels stay narrow.
        with np.errstate(over="ignore"):
            steps = u_mode + direction * 0.5 * 2.0 ** np.arange(44, dtype=float)
            f = _h_log_integrand(steps, p, q, r, s, t)
        below = np.nonzero(~(f >= f_mode - _LOG_DROP))[0]
        if below.size == 0:
            raise NumericalError(
                f"H integrand tail does not decay: p={p} q={q} r={r} s={s} t={t}"
            )
        k = int(below[0])
        inner = u_mode if k == 0 else float(steps[k - 1])
        outer = float(steps[k])
        for _ in range(10):
            mid = 0.5 * (inner + outer)
            with np.errstate(over="ignore"):
                fm = float(_h_log_integrand(np.array([mid]), p, q, r, s, t)[0])
            if fm >= f_mode - _LOG_DROP:
                inner = mid
            else:
                outer = mid
        return outer

    return _cut(-1.0), u_mode, _cut(+1.0), f_mode


def _h_quadrature(p, q, r, s, t, node_count):
    u, log_w = _h_nodes(p, q, r, s, t, node_count)
    all_terms = _h_log_integrand(u, p, q, r, s, t) + log_w
    m = float(np.max(all_terms))
    if not math.isfinite(m):
        raise NumericalError(
            f"H integrand overflowed in log space: p={p} q={q} r={r} s={s} t={t}"
        )
    return m + math.log(float(np.sum(np.exp(all_terms - m))))


def _h_nodes(p, q, r, s, t, node_count):
    """Composite Gauss-Legendre nodes and log-weights over the integrand window.

    The peak region is split off into its own panel so a long thin tail
    (rates as small as p+1 ~ 1e-3) cannot starve it of nodes.
    """
    u_lo, u_mode, u_hi, _ = _h_window(p, q, r, s, t)
    # Panel edges at mode-30/mode-8 resolve the boundary layer where the
    # exp(-t*x) ramp turns on inside an otherwise pure-exponential tail.
    breaks = [u_lo]
    for b in (u_mode - 30.0, u_mode - 8.0, u_mode + 8.0):
        if breaks[-1] < b < u_hi:
            breaks.append(b)
    breaks.append(u_hi)
    per_panel = max(node_count // (len(breaks) - 1), 48)
    z, log_w = _leggauss_cached(per_panel)
    us, lws = [], []
    for a, b in zip(breaks[:-1], breaks[1:]):
        half = 0.5 * (b - a)
        us.append(0.5 * (a + b) + half * z)
        lws.append(log_w + math.log(half))
    return np.concatenate(us), np.concatenate(lws)


@lru_cache(maxsize=32)
def _leggauss_cached(n):
    z, w = leggauss(n)
    return z, np.log(w)


def _validate_h_args(p, q, r, s, t):
    if q not in (0, 1):
        raise ValueError(f"q must be 0 or 1, got {q}")
    if r <= 0.0:
        raise ValueError(f"r must be positive, got {r}")
    if t <= 0.0:
        raise ValueError(f"t must be positive, got {t}")
    if s < 0.0:
        raise ValueError(f"s must be non-negative, got {s}")
    if s == 0.0 and p <= -1.0:
        raise ValueError(f"p must exceed -1 when s = 0, got {p}")
    if p + s + q <= -1.0:
        raise ValueError(f"integrand not integrable at 0: p={p} q={q} s={s}")
    if s >= t:
        # {x^x/Gamma(x)}^s grows like exp(s*x), so the tail diverges.
        raise NumericalError(
            f"H(p={p}, q={q}, r={r}, s={s}, t={t}) diverges: requires t > s"
        )


def h_integral(p, q, r, s, t, spec: QuadratureSpec = DEFAULT_QUADRATURE):
    """Log of H(p, q, r, s, t); see the module docstring for the integral.

    For s = 0, q = 0 the integral is a Gamma integral and is returned
    exactly as log Gamma(p+1) - (p+1) log t.
    """
    _validate_h_args(p, q, r, s, t)
    if s == 0.0 and q == 0:
        return float(gammaln(p + 1.0) - (p + 1.0) * math.log(t))
    value = _h_quadrature(p, q, r, s, t, spec.node_count)
    if spec.self_check:
        check = _h_quadrature(p, q, r, s, t, 2 * spec.node_count)
        if abs(check - value) > spec.target_rel_tol * max(1.0, abs(value)):
            raise NumericalError(
                f"H quadrature self-check failed: {value} vs {check} "
                f"(p={p} q={q} r={r} s={s} t={t})"
            )
    return value


@dataclass(frozen=True)
class PhiFactor:
    """Normalizer and moments of the dispersion factor q(phi).

    The factor density is proportional to
    {phi^phi/Gamma(phi)}^s * phi^(a_phi-1) * exp(-t*phi); ``log_h0`` is the
    log normalizer logH(a_phi-1, 0, 1, s, t), ``log_h1`` the shifted-power
    logH(a_phi, 0, 1, s, t), ``e_phi`` = exp(log_h1 - log_h0), and
    ``e_self`` = E[phi*log(phi) - log Gamma(phi)].
    """

    log_h0: float
    log_h1: float
    e_phi: float
    e_log_phi: float
    e_self: float


class PhiQuadCache:
    """Node-set reuse between successive q(phi) evaluations of one gene fit.

    CAVI moves (N_pi, c1) slowly, so the previous window usually still
    covers the mass; staleness is detected by the integrand failing to
    decay at the window edges, which forces a fresh window.
    """

    __slots__ = ("s", "t", "u", "log_w", "x", "self_term")

    def __init__(self):
        self.s = self.t = self.u = self.log_w = self.x = self.self_term = None

    def refresh(self, a_phi, s, t, node_count):
        self.u, self.log_w = _h_nodes(a_phi - 1.0, 0, 1.0, s, t, node_count)
        self.x = np.exp(self.u)
        self.self_term = _xlogx_minus_lgamma_u(self.u)
        self.s, self.t = s, t

    def usable_for(self, s, t) -> bool:
        if self.u is None:
            return False
        return abs(math.log(t / self.t)) <= 0.35 and abs(s - self.s) <= 0.1 * (self.s + 1.0)


def phi_factor(a_phi, s, t, spec: QuadratureSpec = DEFAULT_QUADRATURE,
               cache: PhiQuadCache | None = None):
    """Evaluate the dispersion factor's normalizer and moments in one pass.

    A single quadrature window (sized for the density) serves both H values
    and all moments; the x-weighted integrand's peak shifts by at most
    log((a_phi+s+1)/(a_phi+s)) and stays inside the peak panel.
    """
    if t <= 0.0 or s < 0.0:
        raise ValueError("phi_factor requires t > 0 and s >= 0")
    if a_phi + s <= 0.0:
        raise ValueError("q(phi) not normalizable at 0")
    if s >= t:
        raise NumericalError(f"q(phi) not normalizable: s={s} >= t={t}")
    own = cache if cache is not None else PhiQuadCache()
    fresh = not own.usable_for(s, t)
    if fresh:
        own.refresh(a_phi, s, t, spec.node_count)
    while True:
        f = a_phi * own.u - t * own.x  # (p+1)*u with p = a_phi - 1
        if s != 0.0:
            f = f + s * own.self_term
        base = f + own.log_w
        m = float(np.max(base))
        if not math.isfinite(m):
            raise NumericalError(f"q(phi) quadrature overflowed: a={a_phi} s={s} t={t}")
        edges_ok = base[0] < m - 40.0 and base[-1] < m - 40.0
        if edges_ok or fresh:
            break
        own.refresh(a_phi, s, t, spec.node_count)
        fresh = True
    wts = np.exp(base - m)
    total = float(np.sum(wts))
    log_h0 = m + math.log(total)
    log_h1 = m + math.log(float(np.sum(wts * own.x)))
    e_phi = math.exp(log_h1 - log_h0)
    e_log_phi = float(np.sum(wts * own.u) / total)
    e_self = float(np.sum(wts * own.self_term) / total)
    return PhiFactor(log_h0, log_h1, e_phi, e_log_phi, e_self)


def mvn_exp_neg_linear(mu, sigma, c):
    """E[exp(-c @ theta)] for theta ~ N(mu, sigma): exp(-c@mu + c@sigma@c/2).

    ``c`` may be a single row vector or a matrix of rows; rows are handled
    independently (the lognormal mean formula).
    """
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    c = np.asarray(c, dtype=float)
    d = mu.shape[0]
    if sigma.shape != (d, d):
        raise ValueError(f"sigma must be {d}x{d}, got {sigma.shape}")
    if c.shape[-1] != d and not (c.size == 0 and d == 0):
        raise ValueError(f"c has incompatible trailing dimension {c.shape}")
    if c.ndim == 1:
        return float(np.exp(-c @ mu + 0.5 * c @ sigma @ c))
    quad = np.einsum("ij,jk,ik->i", c, sigma, c)
    return np.exp(-c @ mu + 0.5 * quad)
