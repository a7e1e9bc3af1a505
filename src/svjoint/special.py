"""The four special functions the model uses, in numpy alone.

``gammaln``, ``digamma`` and ``trigamma`` take the asymptotic (Stirling)
series in 1/z at z >= 8.  An entry x below 8 is carried up to z = x + 8 by
the recurrence f(x) = f(x + 8) -/+ its terms at x + k, k = 0..7, which only
those entries pay for.  ``gammaln_digamma``, ``digamma_trigamma`` and
``gammaln_digamma_trigamma`` give two or all three of them from one carry.
For x from 1e-13 to 1e7 the error against mpmath is below
1e-14 * max(1, |f|), also near the zeros of log Gamma at 1 and 2 and of
digamma at 1.46.  ``expit`` is the logistic function.

The domain is x >= 0; at 0, inf and nan each function returns what
``scipy.special`` does, and no floating-point warning escapes.  An array
argument gives an array of its shape, a scalar a numpy scalar.  Each entry's
value depends on that entry alone, bit for bit, not on the array it came in:
the functions use elementwise arithmetic only, because numpy's sums over an
axis take their order from the array's shape.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["gammaln", "digamma", "trigamma", "gammaln_digamma", "digamma_trigamma",
           "gammaln_digamma_trigamma", "expit"]

_SHIFT = 8.0


def _constants(*values):
    # As 0-d arrays, which numpy takes in arithmetic faster than Python floats.
    return tuple(np.array(v) for v in values)


# Series coefficients in powers of 1/z^2, through the last term above 1e-16
# relative at z = 8 (B_2k are the Bernoulli numbers):
# log Gamma, B_2k / (2k (2k - 1)) z^(1 - 2k), k = 1..7;
_LGAMMA = _constants(1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)
# digamma, which subtracts B_2k / (2k) z^(-2k), k = 1..8;
_DIGAMMA = _constants(1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12,
                      -3617 / 8160)
# trigamma, B_2k z^(-2k - 1), k = 1..10.
_TRIGAMMA = _constants(1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
                       -3617 / 510, 43867 / 798, -174611 / 330)
_LGAMMA_CONST = np.array(0.5 * math.log(2.0 * math.pi) - 0.5)
_HALF, _ONE, _SEVEN, _NINE, _8_HALF, _FACTORIAL_8 = _constants(0.5, 1.0, 7.0, 9.0, 8.5, 40320.0)
# The recurrence's terms at x + k pair up as (x + k, x + 7 - k), whose
# products are w + c for w = x (x + 7) and c in (0,) + _PAIR_PRODUCTS, and
# whose squares sum to 2w + 49 - 2c, the entries of _PAIR_SQUARES.
_PAIR_PRODUCTS = _constants(6.0, 10.0, 12.0)
_PAIR_SQUARES = _constants(49.0, 37.0, 29.0, 25.0)


def _poly(t, coefs):
    """sum_i coefs[i] t^i by Horner's rule, as a new array."""
    p = t * coefs[-1]
    for c in coefs[-2:0:-1]:
        p += c
        p *= t
    p += coefs[0]
    return p


def _carry(x):
    """(x, z, small, shape): ``x`` as a flat float array, z = x carried to at
    least _SHIFT, the carried entries (an index: a slice when they are all of
    x, None when there are none) and x's shape."""
    x = np.asarray(x, dtype=float)
    shape = x.shape
    x = x.reshape(-1)
    below = x < _SHIFT
    count = np.count_nonzero(below)
    if count == x.size:
        return x, x + _SHIFT, slice(None), shape
    z = x.copy()
    if not count:
        return x, z, None, shape
    small = below.nonzero()[0]
    z[small] += _SHIFT
    return x, z, small, shape


def _pair_products(xs):
    """The products w, w + 6, w + 10 and w + 12 of the pairs of terms at ``xs``."""
    w = xs * (xs + _SEVEN)
    return [w] + [w + c for c in _PAIR_PRODUCTS]


def _lgamma_series(r, r2):
    """log Gamma(z) - (z - 1/2) log z + z - log(2 pi)/2 at r = 1/z, r2 = r^2, z >= 8."""
    series = _poly(r2, _LGAMMA)
    series *= r
    return series


# The series at z = 9, evaluated as gammaln evaluates it.
_R9 = np.reciprocal(np.array([9.0]))
_LGAMMA_SERIES_9 = _lgamma_series(_R9, _R9 * _R9)[0]


def _gammaln(lg, log_z1, r, r2, carry):
    """log Gamma from z - 1/2 and log z - 1, which it overwrites, 1/z, 1/z^2
    and the carried entries' (index, x, pair products)."""
    # (z - 1/2) (log z - 1) - 1/2, so that z = inf gives inf, not nan.
    lg *= log_z1
    lg += _LGAMMA_CONST
    series = _lgamma_series(r, r2)
    lg += series
    if carry is not None:
        # log Gamma(x) = log Gamma(x + 8) - log(x (x + 1) ... (x + 7)),
        # taken as [log Gamma(x + 8) - log Gamma(9)] - log(x (x + 1) ...
        # (x + 7) / 8!); with d = x - 1 the first part is d (log z - 1) +
        # 8.5 log(1 + d/9) + series(z) - series(9).  Near the zeros at 1
        # and 2 no term is much larger than the result, and x = 1 gives 0.
        small, xs, products = carry
        d = xs - _ONE
        carried = d * log_z1[small]
        carried += _8_HALF * np.log1p(d / _NINE)
        carried += series[small] - _LGAMMA_SERIES_9
        w = products[0] * products[1]
        for p in products[2:]:
            w *= p
        w /= _FACTORIAL_8
        carried -= np.log(w)
        lg[small] = carried
    return lg


def _digamma(log_z, r, r2, carry):
    """psi from log z, which it overwrites, 1/z, 1/z^2 and the carry."""
    psi = log_z
    psi -= _HALF * r
    series = _poly(r2, _DIGAMMA)
    series *= r2
    psi -= series
    if carry is not None:
        # psi(x) = psi(x + 8) - sum_k 1 / (x + k), where a pair's two terms
        # add to (2x + 7) / (their product).
        small, xs, products = carry
        total, *rest = (np.reciprocal(p) for p in products)
        for p in rest:
            total += p
        total *= xs + xs + _SEVEN
        psi[small] -= total
    return psi


def _trigamma(r, r2, carry):
    """psi' from 1/z, 1/z^2 and the carry."""
    # r + r^2 (1/2 + r sum_k B_2k r^(2k - 2)).
    psi1 = _poly(r2, _TRIGAMMA)
    psi1 *= r
    psi1 += _HALF
    psi1 *= r2
    psi1 += r
    if carry is not None:
        # psi'(x) = psi'(x + 8) + sum_k 1 / (x + k)^2, where a pair's two
        # terms add to (the sum of their squares) / (their product)^2.
        small, xs, products = carry
        w2 = products[0] + products[0]
        terms = []
        for p, c in zip(products, _PAIR_SQUARES):
            term = w2 + c
            term /= p * p
            terms.append(term)
        total, *rest = terms
        for term in rest:
            total += term
        psi1[small] += total
    return psi1


def _special(x, want_gammaln, want_digamma, want_trigamma):
    """The requested ones of (gammaln(x), digamma(x), trigamma(x)), which share
    x's carry, log z, the reciprocal of z and the pair products of the
    carried entries.  Each function's own temporaries are freed before the
    next one starts."""
    x, z, small, shape = _carry(x)
    out = []
    with np.errstate(divide="ignore", over="ignore"):
        log_z = np.log(z) if want_gammaln or want_digamma else None
        lg = z - _HALF if want_gammaln else None
        r = np.reciprocal(z, out=z)
        r2 = r * r
        carry = None
        if small is not None:
            xs = x[small]
            carry = small, xs, _pair_products(xs)
        if want_gammaln:
            # log z - 1, in place when digamma does not need log z.
            log_z1 = np.subtract(log_z, _ONE, out=None if want_digamma else log_z)
            out.append(_gammaln(lg, log_z1, r, r2, carry))
            del log_z1
        if want_digamma:
            out.append(_digamma(log_z, r, r2, carry))
        if want_trigamma:
            out.append(_trigamma(r, r2, carry))
    return [f.reshape(shape)[()] for f in out]


def gammaln(x):
    """log Gamma(x), elementwise, for x >= 0."""
    return _special(x, True, False, False)[0]


def digamma(x):
    """psi(x) = d/dx log Gamma(x), elementwise, for x >= 0."""
    return _special(x, False, True, False)[0]


def trigamma(x):
    """psi'(x) = sum_k 1 / (x + k)^2, elementwise, for x >= 0: scipy's zeta(2, x)."""
    return _special(x, False, False, True)[0]


def gammaln_digamma(x):
    """(gammaln(x), digamma(x)), the same bit for bit, from one carry of x."""
    return tuple(_special(x, True, True, False))


def digamma_trigamma(x):
    """(digamma(x), trigamma(x)), the same bit for bit, from one carry of x."""
    return tuple(_special(x, False, True, True))


def gammaln_digamma_trigamma(x):
    """(gammaln(x), digamma(x), trigamma(x)), the same bit for bit, from one carry of x."""
    return tuple(_special(x, True, True, True))


def expit(x):
    """The logistic function 1 / (1 + exp(-x)), elementwise."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))
