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
from scipy.special import gammaln, zeta
from scipy.special import digamma as psi

__all__ = [
    "NumericalError",
    "PhiFactor",
    "log_beta",
    "h_integral",
    "phi_factor",
    "mvn_exp_neg_linear",
]

EULER_GAMMA = 0.5772156649015328606

# Integrand values this far (in log units) below the peak are treated as zero
# when sizing the quadrature window.
_LOG_DROP = 60.0
# Rungs of the ladder that brackets each window cut (up to 2^43 / 2 away
# from the mode, for rates as small as p+1 ~ 1e-3), and the even lattice
# inside a bracket on which the cut is placed.
_LADDER = 0.5 * 2.0 ** np.arange(44, dtype=float)
_LATTICE = np.linspace(0.0, 1.0, 129)[1:]
# Newton search for the mode: iteration cap, largest step in u, and the
# relative step size at which it stops.
_NEWTON_ITERATIONS = 100
_NEWTON_MAX_STEP = 4.0
_MODE_TOL = 1e-10


class NumericalError(RuntimeError):
    """Raised when a quadrature or special-function evaluation cannot succeed."""


def _check_node_count(node_count):
    if node_count < 16:
        raise ValueError(f"node_count must be >= 16, got {node_count}")


def log_beta(a: float, b: float) -> float:
    """log B(a, b) = log Gamma(a) + log Gamma(b) - log Gamma(a+b), a, b > 0."""
    if not (a > 0.0 and b > 0.0):
        raise ValueError("log_beta requires positive arguments")
    return float(gammaln(a) + gammaln(b) - gammaln(a + b))


def _xlogx_minus_lgamma_u(u, x):
    """x*log(x) - log Gamma(x) at x = exp(u), the log of x^x / Gamma(x).

    For u below -30 the direct formula loses to underflow (exp(u) -> 0,
    Gamma -> inf), so the small-x expansion
    x log x - log Gamma(x) = u + x*(u + gamma) + O(x^2) is used instead.
    Call under ``np.errstate`` that ignores over/invalid/divide: both
    branches are evaluated everywhere.
    """
    return np.where(u < -30.0, u + x * (u + EULER_GAMMA), x * u - gammaln(x))


def _log_loglog1p_u(r, u, x):
    """log( log(1 + r*x) ) at x = exp(u), with the small-argument asymptote log(r) + u."""
    log_r = math.log(r)
    # log1p(rx) = rx*(1 - rx/2 + ...) so log(log1p(rx)) ~ log(r) + u.
    return np.where(log_r + u < -18.0, log_r + u, np.log(np.log1p(r * x)))


def _h_log_integrand(u, p, q, r, s, t):
    """Log of the H integrand at x = exp(u), including the Jacobian du."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x = np.exp(u)
        val = (p + 1.0) * u - t * x
        if s != 0.0:
            val = val + s * _xlogx_minus_lgamma_u(u, x)
        if q != 0:
            val = val + q * _log_loglog1p_u(r, u, x)
    # x overflowing to inf makes inf - inf = nan; the true integrand is 0
    # there because t > s forces the exp(-t*x) factor to win.
    return np.where(np.isnan(val), -np.inf, val)


def _h_log_integrand_du(u, p, q, r, s, t):
    """First and second u-derivatives of ``_h_log_integrand`` at a scalar u.

    Each term's derivative follows the branch its value takes: the small-x
    expansion below u = -30 and the log(r) + u asymptote for tiny r*x.
    """
    x = math.exp(min(u, 700.0))  # math.exp raises on overflow
    d1 = p + 1.0 - t * x
    d2 = -t * x
    if s != 0.0:
        if u < -30.0:
            d1 += s * (1.0 + x * (u + EULER_GAMMA + 1.0))
            d2 += s * x * (u + EULER_GAMMA + 2.0)
        else:
            # d/du (x u - log Gamma(x)) = x (u + 1 - psi(x)), psi'(x) = zeta(2, x).
            g1 = x * (u + 1.0 - float(psi(x)))
            d1 += s * g1
            d2 += s * (g1 + x * (1.0 - x * float(zeta(2.0, x))))
    if q != 0:
        if math.log(r) + u < -18.0:
            d1 += q
        else:
            rx = r * x
            lg = math.log1p(rx)
            g = rx / (1.0 + rx)
            d1 += q * g / lg
            d2 += q * g * ((1.0 - g) * lg - g) / (lg * lg)
    return d1, d2


def _h_mode(p, q, r, s, t, u_start=None):
    """Peak of the log integrand in u-space.

    The u-derivative is (p+1) + s*x*(log x - psi(x)) + (s-t)*x plus, for
    q = 1, y/((1+y) log(1+y)) at y = r*x.  x*(log x - psi(x)) falls from 1
    to 1/2, the last term from 1 to 0, and t > s, so the derivative falls
    monotonically and has one root.  Newton steps start from ``u_start`` (a
    nearby earlier mode) or from x = (p+1+q+s)/(t-s), are capped at
    _NEWTON_MAX_STEP, and bisect whenever they would leave the bracket of
    points already seen on either side of the root.
    """
    u = u_start if u_start is not None else math.log((p + 1.0 + q + s) / (t - s))
    lo, hi = -math.inf, math.inf
    for _ in range(_NEWTON_ITERATIONS):
        d1, d2 = _h_log_integrand_du(u, p, q, r, s, t)
        if d1 == 0.0:
            return u
        if d1 > 0.0:
            lo = u
        else:
            hi = u
        step = -d1 / d2 if d2 < 0.0 else math.copysign(_NEWTON_MAX_STEP, d1)
        tol = _MODE_TOL * (1.0 + abs(u))
        if abs(step) <= tol:
            return u + step
        u += max(-_NEWTON_MAX_STEP, min(_NEWTON_MAX_STEP, step))
        if not lo < u < hi:
            u = 0.5 * (lo + hi)
            if hi - lo <= tol:
                return u
    raise NumericalError(f"H integrand mode not found: p={p} q={q} r={r} s={s} t={t}")


def _h_window(p, q, r, s, t, u_start=None):
    """The integrand peak in u-space and the window where it matters.

    Returns (u_lo, u_mode, u_hi): the integrand is below its peak by
    _LOG_DROP at both cuts.  A geometric ladder away from the mode on both
    sides brackets each cut in one evaluation; a second evaluation on an
    even lattice inside both brackets places each cut at the first lattice
    point past the drop, so tail panels stay narrow.
    """
    u_mode = _h_mode(p, q, r, s, t, u_start)
    rungs = u_mode + np.array([[-1.0], [1.0]]) * _LADDER
    f = _h_log_integrand(np.append(rungs, u_mode), p, q, r, s, t)
    floor = f[-1] - _LOG_DROP
    brackets = []
    for side, side_f in zip(rungs, f[:-1].reshape(2, -1)):
        below = np.flatnonzero(~(side_f >= floor))
        if below.size == 0:
            raise NumericalError(
                f"H integrand tail does not decay: p={p} q={q} r={r} s={s} t={t}"
            )
        k = int(below[0])
        inner = u_mode if k == 0 else side[k - 1]
        brackets.append(inner + (side[k] - inner) * _LATTICE)
    pts = np.array(brackets)
    past = ~(_h_log_integrand(pts, p, q, r, s, t) >= floor)
    # Each bracket ends at its outer rung, already seen past the drop.
    past[:, -1] = True
    first = past.argmax(axis=1)
    return float(pts[0, first[0]]), u_mode, float(pts[1, first[1]])


def _h_nodes(u_lo, u_mode, u_hi, node_count):
    """Composite Gauss-Legendre nodes and log-weights over the integrand window.

    The peak region is split off into its own panel so a long thin tail
    (rates as small as p+1 ~ 1e-3) cannot starve it of nodes.
    """
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


def _h_quadrature(p, q, r, s, t, node_count):
    u, log_w = _h_nodes(*_h_window(p, q, r, s, t), node_count)
    all_terms = _h_log_integrand(u, p, q, r, s, t) + log_w
    m = float(np.max(all_terms))
    if not math.isfinite(m):
        raise NumericalError(
            f"H integrand overflowed in log space: p={p} q={q} r={r} s={s} t={t}"
        )
    return m + math.log(float(np.sum(np.exp(all_terms - m))))


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


def h_integral(p, q, r, s, t, node_count: int = 96):
    """Log of H(p, q, r, s, t); see the module docstring for the integral.

    ``node_count`` (at least 16) Gauss-Legendre nodes are spread over a
    window found from the integrand's peak after the log substitution.  For
    s = 0, q = 0 the integral is a Gamma integral and is returned exactly as
    log Gamma(p+1) - (p+1) log t.
    """
    _check_node_count(node_count)
    _validate_h_args(p, q, r, s, t)
    if s == 0.0 and q == 0:
        return float(gammaln(p + 1.0) - (p + 1.0) * math.log(t))
    return _h_quadrature(p, q, r, s, t, node_count)


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
    decay at the window edges, which forces a fresh window.  The last mode
    starts the next window's mode search.
    """

    __slots__ = ("s", "t", "u", "log_w", "x", "self_term", "u_mode")

    def __init__(self):
        self.s = self.t = self.u = self.log_w = self.x = self.self_term = None
        self.u_mode = None

    def refresh(self, a_phi, s, t, node_count):
        u_lo, self.u_mode, u_hi = _h_window(a_phi - 1.0, 0, 1.0, s, t, self.u_mode)
        self.u, self.log_w = _h_nodes(u_lo, self.u_mode, u_hi, node_count)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            self.x = np.exp(self.u)
            self.self_term = _xlogx_minus_lgamma_u(self.u, self.x)
        self.s, self.t = s, t

    def usable_for(self, s, t) -> bool:
        if self.u is None:
            return False
        return abs(math.log(t / self.t)) <= 0.35 and abs(s - self.s) <= 0.1 * (self.s + 1.0)


def phi_factor(a_phi, s, t, node_count: int = 96, cache: PhiQuadCache | None = None):
    """Evaluate the dispersion factor's normalizer and moments in one pass.

    A single ``node_count``-node quadrature window (sized for the density,
    as in ``h_integral``) serves both H values and all moments; the
    x-weighted integrand's peak shifts by at most log((a_phi+s+1)/(a_phi+s))
    and stays inside the peak panel.
    """
    _check_node_count(node_count)
    if t <= 0.0 or s < 0.0:
        raise ValueError("phi_factor requires t > 0 and s >= 0")
    if a_phi + s <= 0.0:
        raise ValueError("q(phi) not normalizable at 0")
    if s >= t:
        raise NumericalError(f"q(phi) not normalizable: s={s} >= t={t}")
    own = cache if cache is not None else PhiQuadCache()
    fresh = not own.usable_for(s, t)
    if fresh:
        own.refresh(a_phi, s, t, node_count)
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
        own.refresh(a_phi, s, t, node_count)
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
    quad = ((c @ sigma) * c).sum(axis=1)
    return np.exp(-c @ mu + 0.5 * quad)
