"""Special functions and quadrature shared by the variational engine.

The one nonstandard object is the normalizing integral of the dispersion
factor,

    H(p, q, r, s, t) = int_0^inf x^p * log(1+r*x)^q * {x^x / Gamma(x)}^s
                       * exp(-t*x) dx,

which has no closed form for s > 0 and is evaluated here by fixed-node
Gauss-Legendre quadrature after the substitution x = exp(u).  All values
are carried as logs; ratios of H values are formed as exp(logH1 - logH2).

The quadrature is one array program over K rows of (s, t) that share
(p, q, r).  The engine's q(phi) factors are K = B*M rows of one
``phi_factor`` call (the B genes of a block times their M samples), and
``h_integral`` runs the same code at K = 1.  Rows are independent: a row's
mode search, window, nodes and sums are those of its own K = 1
evaluation, bit for bit, and a row that cannot be evaluated fails alone.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from .special import digamma_trigamma, gammaln

__all__ = [
    "NumericalError",
    "PhiFactor",
    "PhiQuadCache",
    "log_beta",
    "h_integral",
    "phi_factor",
    "mvn_exp_neg_linear",
    "upper_pairs",
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
# Panel edges relative to the mode (see _h_nodes).
_PANEL_CUTS = np.array([-30.0, -8.0, 8.0])


class NumericalError(RuntimeError):
    """Raised when a quadrature or special-function evaluation cannot succeed.

    ``failures`` maps each row of a many-row evaluation that failed to its
    message; the error's own message is the first row's.
    """

    def __init__(self, message, failures=None):
        super().__init__(message)
        self.failures = failures


def _check_node_count(node_count):
    if node_count < 16:
        raise ValueError(f"node_count must be >= 16, got {node_count}")


def _each(fn, a):
    """A ``math`` function applied to each element of ``a``.

    Per-row scalars go through libm, as a scalar evaluation would: numpy's
    SIMD exp and log may differ from it in the last bit.
    """
    return np.array([fn(v) for v in np.ravel(a).tolist()], dtype=float).reshape(np.shape(a))


def log_beta(a, b):
    """log B(a, b) = log Gamma(a) + log Gamma(b) - log Gamma(a+b), elementwise over
    ``a`` and ``b`` of one shape, all positive."""
    if not (np.greater(a, 0.0).all() and np.greater(b, 0.0).all()):
        raise ValueError("log_beta requires positive arguments")
    lg_a, lg_b, lg_ab = gammaln(np.array((a, b, a + b)))
    return lg_a + lg_b - lg_ab


def _xlogx_minus_lgamma_u(u, x):
    """x*log(x) - log Gamma(x) at x = exp(u), the log of x^x / Gamma(x).

    For u below -30 the direct formula loses to underflow (exp(u) -> 0,
    Gamma -> inf), so the small-x expansion
    x log x - log Gamma(x) = u + x*(u + gamma) + O(x^2) is used instead.
    Where x overflows to inf the direct formula is inf - inf, and those
    entries are NaN without a gammaln call.  Call under ``np.errstate``
    that ignores over/invalid/divide.
    """
    tiny = u < -30.0
    direct = ~tiny & (x < np.inf)
    if direct.all():
        return x * u - gammaln(x)
    out = np.where(tiny, u + x * (u + EULER_GAMMA), np.nan)
    xd = x[direct]
    out[direct] = xd * u[direct] - gammaln(xd)
    return out


def _log_loglog1p_u(r, u, x):
    """log( log(1 + r*x) ) at x = exp(u), with the small-argument asymptote log(r) + u."""
    log_r = math.log(r)
    # log1p(rx) = rx*(1 - rx/2 + ...) so log(log1p(rx)) ~ log(r) + u.
    return np.where(log_r + u < -18.0, log_r + u, np.log(np.log1p(r * x)))


def _h_log_integrand(u, p, q, r, s, t):
    """Log of the H integrand at x = exp(u), including the Jacobian du.

    ``s`` and ``t`` broadcast against ``u``; where s = 0 the x^x/Gamma(x)
    term is left out, as it is absent from the integrand.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x = np.exp(u)
        val = (p + 1.0) * u - t * x
        with_s = val + s * _xlogx_minus_lgamma_u(u, x)
        val = with_s if np.all(s != 0.0) else np.where(s != 0.0, with_s, val)
        if q != 0:
            val = val + q * _log_loglog1p_u(r, u, x)
    # x overflowing to inf makes inf - inf = nan; the true integrand is 0
    # there because t > s forces the exp(-t*x) factor to win.
    return np.where(np.isnan(val), -np.inf, val)


def _h_log_integrand_du(u, p, q, r, s, t):
    """First and second u-derivatives of ``_h_log_integrand``, elementwise over (u, s, t).

    Each term's derivative follows the branch its value takes: the small-x
    expansion below u = -30 and the log(r) + u asymptote for tiny r*x.
    """
    x = _each(math.exp, np.minimum(u, 700.0))  # math.exp raises on overflow
    d1 = p + 1.0 - t * x
    d2 = -t * x
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # d/du (x u - log Gamma(x)) = x (u + 1 - psi(x)), with psi' the trigamma.
        # The branch taken is finite, so a row with s = 0 adds an exact 0.
        psi, psi1 = digamma_trigamma(x)
        g1 = x * (u + 1.0 - psi)
        inc1 = s * g1
        inc2 = s * (g1 + x * (1.0 - x * psi1))
        tiny = u < -30.0
        if tiny.any():
            inc1 = np.where(tiny, s * (1.0 + x * (u + EULER_GAMMA + 1.0)), inc1)
            inc2 = np.where(tiny, s * x * (u + EULER_GAMMA + 2.0), inc2)
        d1 = d1 + inc1
        d2 = d2 + inc2
        if q != 0:
            asymptote = math.log(r) + u < -18.0
            rx = r * x
            lg = _each(math.log1p, rx)
            g = rx / (1.0 + rx)
            d1 = np.where(asymptote, d1 + q, d1 + q * g / lg)
            d2 = np.where(asymptote, d2, d2 + q * g * ((1.0 - g) * lg - g) / (lg * lg))
    return d1, d2


def _h_modes(p, q, r, s, t, u_start):
    """Peak of the log integrand in u-space for each row of (s, t); NaN where none is found.

    The u-derivative is (p+1) + s*x*(log x - psi(x)) + (s-t)*x plus, for
    q = 1, y/((1+y) log(1+y)) at y = r*x.  x*(log x - psi(x)) falls from 1
    to 1/2, the last term from 1 to 0, and t > s, so the derivative falls
    monotonically and has one root.  Newton steps start from ``u_start`` (a
    nearby earlier mode, NaN for none) or from x = (p+1+q+s)/(t-s), are
    capped at _NEWTON_MAX_STEP, and bisect whenever they would leave the
    bracket of points already seen on either side of the root.  Each row
    stops on its own test; the rows still searching step on together.
    """
    u = np.array(u_start, dtype=float)
    cold = np.isnan(u)
    u[cold] = _each(math.log, (p + 1.0 + q + s[cold]) / (t[cold] - s[cold]))
    modes = np.full(u.shape, np.nan)
    rows = np.arange(u.size)
    lo, hi = np.full(u.shape, -np.inf), np.full(u.shape, np.inf)
    for _ in range(_NEWTON_ITERATIONS):
        d1, d2 = _h_log_integrand_du(u, p, q, r, s, t)
        rising = d1 > 0.0
        lo = np.where(rising, u, lo)
        hi = np.where(rising, hi, u)
        step = np.divide(-d1, d2, out=np.copysign(_NEWTON_MAX_STEP, d1), where=d2 < 0.0)
        nxt = u + np.minimum(np.maximum(step, -_NEWTON_MAX_STEP), _NEWTON_MAX_STEP)
        outside = ~((lo < nxt) & (nxt < hi))
        nxt = np.where(outside, 0.5 * (lo + hi), nxt)
        tol = _MODE_TOL * (1.0 + np.abs(u))
        at_root = d1 == 0.0
        small = np.abs(step) <= tol
        done = at_root | small | (outside & (hi - lo <= tol))
        if done.any():
            modes[rows[done]] = np.where(at_root, u, np.where(small, u + step, nxt))[done]
            going = ~done
            rows, nxt, lo, hi, s, t = (a[going] for a in (rows, nxt, lo, hi, s, t))
            if not rows.size:
                break
        u = nxt
    return modes


def _h_windows(p, q, r, s, t, u_start):
    """Each row's integrand peak in u-space and the window where it matters.

    Returns (u_lo, u_mode, u_hi, failures): the integrand is below its peak
    by _LOG_DROP at both cuts, and ``failures`` maps each row without a
    window to its message (its entries are NaN).  A geometric ladder away
    from the mode on both sides brackets each cut in one (K, 89)
    evaluation; a second, (K, 256) evaluation on an even lattice inside both
    brackets places each cut at the first lattice point past the drop, so
    tail panels stay narrow.
    """
    u_mode = _h_modes(p, q, r, s, t, u_start)

    def args(k):
        return f"p={p} q={q} r={r} s={s[k]} t={t[k]}"

    failures = {}
    for k in np.flatnonzero(np.isnan(u_mode)).tolist():
        failures[k] = f"H integrand mode not found: {args(k)}"
    ok = np.flatnonzero(~np.isnan(u_mode))
    mode, s_ok, t_ok = u_mode[ok], s[ok, None], t[ok, None]
    rungs = mode[:, None, None] + np.array([[-1.0], [1.0]]) * _LADDER
    f = _h_log_integrand(
        np.concatenate((rungs.reshape(ok.size, 2 * _LADDER.size), mode[:, None]), axis=1),
        p, q, r, s_ok, t_ok)
    floor = f[:, -1:, None] - _LOG_DROP
    below = ~(f[:, :-1].reshape(rungs.shape) >= floor)
    for k in ok[~below.any(axis=2).all(axis=1)].tolist():
        failures[k] = f"H integrand tail does not decay: {args(k)}"
    first = below.argmax(axis=2)[..., None]
    outer = np.take_along_axis(rungs, first, axis=2)
    inner = np.where(first == 0, mode[:, None, None],
                     np.take_along_axis(rungs, np.maximum(first - 1, 0), axis=2))
    pts = inner + (outer - inner) * _LATTICE
    past = ~(_h_log_integrand(pts.reshape(ok.size, 2 * _LATTICE.size), p, q, r, s_ok, t_ok)
             .reshape(pts.shape) >= floor)
    # Each bracket ends at its outer rung, already seen past the drop.
    past[..., -1] = True
    cuts = np.take_along_axis(pts, past.argmax(axis=2)[..., None], axis=2)[..., 0]
    u_lo, u_hi = np.full(u_mode.shape, np.nan), np.full(u_mode.shape, np.nan)
    u_lo[ok], u_hi[ok] = cuts[:, 0], cuts[:, 1]
    for k in failures:
        u_lo[k] = u_mode[k] = u_hi[k] = np.nan
    return u_lo, u_mode, u_hi, dict(sorted(failures.items()))


def _h_nodes(u_lo, u_mode, u_hi, node_count):
    """Composite Gauss-Legendre nodes and log-weights over each row's window.

    The peak region is split off into its own panel so a long thin tail
    (rates as small as p+1 ~ 1e-3) cannot starve it of nodes.  Rows are
    grouped by panel count; yields (rows, u, log_w) per group, with the
    group's (len(rows), n) nodes and log-weights.
    """
    # Panel edges at mode-30/mode-8 resolve the boundary layer where the
    # exp(-t*x) ramp turns on inside an otherwise pure-exponential tail.
    inner = u_mode[:, None] + _PANEL_CUTS
    inside = (u_lo[:, None] < inner) & (inner < u_hi[:, None])
    panels = inside.sum(axis=1) + 1
    for count in np.unique(panels).tolist():
        rows = np.flatnonzero(panels == count)
        breaks = np.column_stack(
            (u_lo[rows], inner[rows][inside[rows]].reshape(rows.size, count - 1), u_hi[rows]))
        a, b = breaks[:, :-1, None], breaks[:, 1:, None]
        z, log_w = _leggauss_cached(max(node_count // count, 48))
        half = 0.5 * (b - a)
        u = 0.5 * (a + b) + half * z
        lw = log_w + _each(math.log, half)
        yield rows, u.reshape(rows.size, -1), lw.reshape(rows.size, -1)


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
    *window, failures = _h_windows(p, q, r, np.array([s]), np.array([t]), np.array([np.nan]))
    if failures:
        raise NumericalError(failures[0])
    ((_, u, log_w),) = _h_nodes(*window, node_count)
    all_terms = _h_log_integrand(u[0], p, q, r, s, t) + log_w[0]
    m = float(np.max(all_terms))
    if not math.isfinite(m):
        raise NumericalError(
            f"H integrand overflowed in log space: p={p} q={q} r={r} s={s} t={t}"
        )
    return m + math.log(float(np.sum(np.exp(all_terms - m))))


_NODE_ARRAYS = ("u", "log_w", "x", "self_term")


def _resized(a, width):
    """A copy of the (K, n) array ``a`` with ``width`` columns: cut, or padded with NaN."""
    out = np.full((a.shape[0], width), np.nan)
    keep = min(width, a.shape[1])
    out[:, :keep] = a[:, :keep]
    return out


def _lead(fields, ndim, shape):
    """A named tuple of arrays with its ``ndim`` leading axes reshaped to ``shape``."""
    return fields._make([v.reshape(shape + v.shape[ndim:]) for v in fields])


class PhiQuadCache(NamedTuple):
    """q(phi) quadrature windows, one row per (s, t): a value, never changed once built.

    Row k holds the (s, t) and mode it was fitted at, its node count ``n``
    (0 for an empty row) and its nodes ``u`` with log-weights ``log_w``,
    x = exp(u) and the self-terms x log x - log Gamma(x), in the first n
    columns of the node arrays.  Those are as wide as the widest row; the
    rest of a row is NaN and is never read.  CAVI moves (N_pi, c1) slowly,
    so a window usually still covers the mass at the next (s, t); staleness
    is detected by the integrand failing to decay at the window edges.
    ``refresh`` returns new windows whose mode searches start from these
    rows' modes.
    """

    s: np.ndarray
    t: np.ndarray
    u_mode: np.ndarray
    n: np.ndarray
    u: np.ndarray
    log_w: np.ndarray
    x: np.ndarray
    self_term: np.ndarray

    @classmethod
    def empty(cls, rows):
        """``rows`` empty windows."""
        nan, nodes = np.full(rows, np.nan), np.zeros((rows, 0))
        return cls(nan, nan, nan, np.zeros(rows, dtype=np.int64), nodes, nodes, nodes, nodes)

    def refresh(self, a_phi, s, t, node_count, rows):
        """New windows with the ``rows`` (a mask) fitted to q(phi) at (a_phi, s, t).

        Returns the windows and {row: message} of the rows that could not be
        fitted, which keep their old window.
        """
        stale = np.flatnonzero(rows)
        start = np.where(self.n[stale] > 0, self.u_mode[stale], np.nan)
        u_lo, u_mode, u_hi, lost = _h_windows(a_phi - 1.0, 0, 1.0, s[stale], t[stale], start)
        ok = ~np.isnan(u_mode)
        fitted = stale[ok]
        fields = {"s": self.s.copy(), "t": self.t.copy(), "u_mode": self.u_mode.copy(),
                  "n": self.n.copy()}
        fields["s"][fitted], fields["t"][fitted] = s[fitted], t[fitted]
        fields["u_mode"][fitted] = u_mode[ok]
        groups = list(_h_nodes(u_lo[ok], u_mode[ok], u_hi[ok], node_count))
        for group, u, _ in groups:
            fields["n"][fitted[group]] = u.shape[1]
        width = int(fields["n"].max(initial=0))
        new = {name: _resized(getattr(self, name), width) for name in _NODE_ARRAYS}
        for group, u, log_w in groups:
            k, n = fitted[group], u.shape[1]
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                x = np.exp(u)
                self_term = _xlogx_minus_lgamma_u(u, x)
            for name, value in zip(_NODE_ARRAYS, (u, log_w, x, self_term)):
                new[name][k, :n] = value
                new[name][k, n:] = np.nan
        return PhiQuadCache(**fields, **new), {int(stale[k]): msg for k, msg in lost.items()}

    def usable_for(self, s, t):
        """Mask of the rows whose window may serve (s, t): not empty, and fitted nearby."""
        usable = self.n > 0
        k = np.flatnonzero(usable)
        usable[k] = ((np.abs(_each(math.log, t[k] / self.t[k])) <= 0.35)
                     & (np.abs(s[k] - self.s[k]) <= 0.1 * (self.s[k] + 1.0)))
        return usable


class PhiFactor(NamedTuple):
    """Normalizers and moments of dispersion factors q(phi), elementwise over (s, t).

    A factor's density is proportional to
    {phi^phi/Gamma(phi)}^s * phi^(a_phi-1) * exp(-t*phi); ``log_h0`` is the
    log normalizer logH(a_phi-1, 0, 1, s, t), ``log_h1`` the shifted-power
    logH(a_phi, 0, 1, s, t), ``e_phi`` = exp(log_h1 - log_h0), and
    ``e_self`` = E[phi*log(phi) - log Gamma(phi)].  ``window`` holds the
    quadrature windows they were evaluated on, with the same leading axes.
    """

    log_h0: np.ndarray
    log_h1: np.ndarray
    e_phi: np.ndarray
    e_log_phi: np.ndarray
    e_self: np.ndarray
    window: PhiQuadCache


def _phi_sums(a_phi, s, t, window, rows, out):
    """Fill ``out[rows]`` with each row's peak, edge test and q(phi) quadrature sums.

    The columns are the peak m of the log terms, whether both edge nodes lie
    40 below it, and the sums of the weights exp(log term - m) times 1, x,
    u and the self-term.  Rows are grouped by node count, so that each
    row's sums are numpy's sums over its own nodes alone.
    """
    n = window.n[rows]
    for count in np.unique(n).tolist():
        k = rows[n == count]
        # One group of all rows reads views; fancy indexing copies.
        at = (slice(None) if k.size == n.size == window.n.size else k, slice(count))
        u, log_w, x, self_term = (window.u[at], window.log_w[at], window.x[at],
                                  window.self_term[at])
        # (p+1)*u with p = a_phi - 1; the self-terms at the nodes are finite,
        # so a row with s = 0 adds an exact 0.
        base = a_phi * u - t[k, None] * x + s[k, None] * self_term + log_w
        m = base.max(axis=1)
        with np.errstate(invalid="ignore"):
            wts = np.exp(base - m[:, None])
        out[k, 0] = m
        out[k, 1] = (base[:, 0] < m - 40.0) & (base[:, -1] < m - 40.0)
        out[k, 2] = wts.sum(axis=1)
        out[k, 3] = (wts * x).sum(axis=1)
        out[k, 4] = (wts * u).sum(axis=1)
        out[k, 5] = (wts * self_term).sum(axis=1)


def phi_factor(a_phi, s, t, node_count: int = 96, prev: PhiFactor | None = None):
    """Evaluate dispersion factors' normalizers and moments, elementwise over (s, t).

    ``s`` and ``t`` broadcast to one shape, which leads every field of the
    result and of its window; row k below is entry k of that shape,
    flattened.  A single ``node_count``-node quadrature window per row
    (sized for the density, as in ``h_integral``) serves both H values and
    all moments; the x-weighted integrand's peak shifts by at most
    log((a_phi+s+1)/(a_phi+s)) and stays inside the peak panel.  A row of
    ``prev``'s window, fitted at a nearby (s, t), is reused while it passes
    ``usable_for`` and the edge test; the other rows are refitted in one
    ``PhiQuadCache.refresh``, and reused rows whose edges fail in one more.
    Raises NumericalError whose ``failures`` maps every row that cannot be
    evaluated to its message.
    """
    _check_node_count(node_count)
    s, t = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(t, dtype=float))
    shape = s.shape
    s, t = s.ravel(), t.ravel()
    if np.any(t <= 0.0) or np.any(s < 0.0):
        raise ValueError("phi_factor requires t > 0 and s >= 0")
    if np.any(a_phi + s <= 0.0):
        raise ValueError("q(phi) not normalizable at 0")
    s_t = list(zip(s.tolist(), t.tolist()))  # for messages
    failures = {}
    live = ~(s >= t)
    for k in np.flatnonzero(~live).tolist():
        failures[k] = f"q(phi) not normalizable: s={s_t[k][0]} >= t={s_t[k][1]}"
    if prev is None:
        window = PhiQuadCache.empty(s.size)
    else:
        window = _lead(prev.window, len(shape), (s.size,))
    sums = np.full((s.size, 6), np.nan)

    def refit(rows):
        nonlocal window
        window, lost = window.refresh(a_phi, s, t, node_count, rows)
        failures.update(lost)
        live[list(lost)] = False

    def add_sums(rows):
        rows = np.flatnonzero(rows & live)
        _phi_sums(a_phi, s, t, window, rows, sums)
        for k in rows[~np.isfinite(sums[rows, 0])].tolist():
            failures[k] = f"q(phi) quadrature overflowed: a={a_phi} s={s_t[k][0]} t={s_t[k][1]}"
            live[k] = False

    fresh = live & ~window.usable_for(s, t)
    if fresh.any():
        refit(fresh)
    add_sums(live)
    # A reused window whose edges carry mass is refitted once.
    stale = live & ~fresh & (sums[:, 1] == 0.0)
    if stale.any():
        refit(stale)
        add_sums(stale)
    if failures:
        failures = dict(sorted(failures.items()))
        raise NumericalError(next(iter(failures.values())), failures)
    m, _, total, sum_x, sum_u, sum_self = sums.T
    log_h0 = m + _each(math.log, total)
    log_h1 = m + _each(math.log, sum_x)
    return PhiFactor(
        log_h0.reshape(shape), log_h1.reshape(shape),
        _each(math.exp, log_h1 - log_h0).reshape(shape),
        (sum_u / total).reshape(shape), (sum_self / total).reshape(shape),
        _lead(window, 1, shape),
    )


def mvn_exp_neg_linear(mu, sigma, design):
    """E[exp(-C theta)] and C mu for a stack of B Gaussians theta ~ N(mu, sigma).

    ``mu`` is (B, d), ``sigma`` (B, d, d) and ``design`` a ``DesignMatrix``
    whose (N, d) rows ``matrix`` are the C_i.  Each row is the lognormal
    mean exp(-C_i mu + C_i sigma C_i' / 2).  Returns both (B, N) arrays: C mu
    is one GEMM, and so are the quadratic forms, from each sigma's upper
    triangle with the off-diagonal entries doubled against ``design.pairs``.
    """
    n_rows, d = mu.shape
    if sigma.shape != (n_rows, d, d):
        raise ValueError(f"sigma must be {n_rows}x{d}x{d}, got {sigma.shape}")
    i, j, scale = upper_pairs(d)
    quad = (sigma[:, i, j] * scale) @ design.pairs
    c_mu = mu @ design.matrix.T
    return np.exp(0.5 * quad - c_mu), c_mu


@lru_cache(maxsize=16)
def upper_pairs(d):
    """(i, j, scale) of the pairs i <= j of a d x d matrix, in ``np.triu_indices`` order.

    ``scale`` is 1 on the diagonal and 2 off it, the weight of each pair in
    a quadratic form of a symmetric matrix.
    """
    i, j = np.triu_indices(d)
    return i, j, np.where(i == j, 1.0, 2.0)
