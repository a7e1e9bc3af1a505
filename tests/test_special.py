"""svjoint.special against mpmath and scipy.special.

The contract: for x from 1e-13 to 1e7 the error against mpmath is at most
1e-14 * max(1, |f|); at 0, inf and nan each function returns what scipy
does; no floating-point warning escapes; and an entry's value does not
depend on the array it came in.
"""

import warnings

import mpmath
import numpy as np
import pytest
import scipy.special as sps

from svjoint import special

_RNG = np.random.default_rng(20)
# Log-spaced over the contract's range, dense near the zeros of log Gamma at
# 1 and 2 and of digamma at 1.4616, and on both sides of the carry at 8.
CONTRACT_X = np.concatenate([
    np.geomspace(1e-13, 1e7, 241),
    1.0 + _RNG.uniform(-1e-3, 1e-3, 40), 2.0 + _RNG.uniform(-1e-3, 1e-3, 40),
    1.0 + _RNG.uniform(-0.5, 0.5, 40), 2.0 + _RNG.uniform(-0.5, 0.5, 40),
    1.4616321449683622 + _RNG.uniform(-1e-3, 1e-3, 40),
    np.nextafter(8.0, 0.0) - _RNG.uniform(0.0, 1e-3, 10), 8.0 + _RNG.uniform(0.0, 1e-3, 10),
    _RNG.uniform(0.0, 30.0, 200),
    [1.0, 2.0, 3.0, 8.0, 1e-13, 1e7],
])

MPMATH = {
    "gammaln": mpmath.loggamma,
    "digamma": mpmath.digamma,
    "trigamma": lambda v: mpmath.zeta(2, v),
}
SCIPY = {
    "gammaln": sps.gammaln,
    "digamma": sps.digamma,
    "trigamma": lambda x: sps.zeta(2.0, x),
}
GAMMA_FAMILY = sorted(MPMATH)
EDGES = np.array([0.0, -0.0, np.inf, np.nan])
# Far outside the contract's range: the smallest subnormal, and values whose
# log Gamma overflows.
EXTREMES = np.array([5e-324, 1e-300, 1e300, 1e306, 1.7e308])


def _oracle(name, xs):
    with mpmath.workdps(40):
        return np.array([float(MPMATH[name](mpmath.mpf(float(v)))) for v in xs])


@pytest.mark.parametrize("name", GAMMA_FAMILY)
def test_matches_mpmath_over_the_contract_range(name):
    want = _oracle(name, CONTRACT_X)
    got = getattr(special, name)(CONTRACT_X)
    err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
    assert err.max() <= 1e-14, CONTRACT_X[err.argmax()]


def test_trigamma_is_relatively_accurate():
    # The q(phi) mode search forms 1 - x psi'(x) ~ -1/(2x), which needs
    # psi' to relative accuracy where it is far below 1.
    want = _oracle("trigamma", CONTRACT_X)
    rel = np.abs(special.trigamma(CONTRACT_X) - want) / want
    assert rel.max() <= 1e-14, CONTRACT_X[rel.argmax()]


@pytest.mark.parametrize("name", GAMMA_FAMILY)
def test_matches_scipy_over_the_contract_range(name):
    want = SCIPY[name](CONTRACT_X)
    got = getattr(special, name)(CONTRACT_X)
    assert (np.abs(got - want) <= 2e-14 * np.maximum(1.0, np.abs(want))).all()


def test_gammaln_is_zero_at_one_and_two():
    assert special.gammaln(1.0) == 0.0
    assert special.gammaln(2.0) == 0.0


@pytest.mark.parametrize("name", GAMMA_FAMILY)
def test_edge_values_match_scipy(name):
    f = getattr(special, name)
    np.testing.assert_array_equal(f(EDGES), SCIPY[name](EDGES))
    np.testing.assert_allclose(f(EXTREMES), SCIPY[name](EXTREMES), rtol=1e-14, atol=0.0)


def test_expit_matches_mpmath_and_scipy():
    x = np.concatenate([np.linspace(-700.0, 40.0, 741), _RNG.normal(0.0, 5.0, 200)])
    with mpmath.workdps(40):
        want = np.array([float(1 / (1 + mpmath.exp(-mpmath.mpf(float(v))))) for v in x])
    got = special.expit(x)
    # Relative accuracy also at large negative x, where the report's e_u of
    # a gene that is not SV lives.
    assert (np.abs(got - want) <= 1e-15 * want).all()
    np.testing.assert_allclose(got, sps.expit(x), rtol=1e-15, atol=0.0)
    edges = np.array([-np.inf, np.inf, np.nan, 0.0, -0.0, -745.0, 800.0])
    np.testing.assert_array_equal(special.expit(edges), sps.expit(edges))


@pytest.mark.parametrize("name", ["gammaln", "digamma", "trigamma", "expit"])
def test_no_floating_point_warning_escapes(name):
    x = np.concatenate([EDGES, EXTREMES, CONTRACT_X])
    with warnings.catch_warnings(), np.errstate(all="warn", under="ignore"):
        warnings.simplefilter("error")
        getattr(special, name)(x)
        getattr(special, name)(0.0)


@pytest.mark.parametrize("name", ["gammaln", "digamma", "trigamma", "expit"])
def test_an_entry_does_not_depend_on_its_array(name):
    # Carried (x < 8) and uncarried entries mixed: each entry's value is its
    # value evaluated alone, bit for bit, in any slice of the array.
    f = getattr(special, name)
    x = np.concatenate([_RNG.uniform(0.0, 16.0, 97), np.geomspace(1e-13, 1e7, 31)])
    kept = x.copy()
    whole = f(x)
    np.testing.assert_array_equal(x, kept)
    assert all(f(v) == whole[k] for k, v in enumerate(x))
    for step in (1, 2, 5, 33):
        parts = np.concatenate([f(x[k:k + step]) for k in range(0, x.size, step)])
        np.testing.assert_array_equal(parts, whole)
    np.testing.assert_array_equal(f(x.reshape(8, 16)).ravel(), whole)
    np.testing.assert_array_equal(f(x.reshape(16, 8).T).T.ravel(), whole)


@pytest.mark.parametrize("name", ["gammaln", "digamma", "trigamma", "expit"])
def test_shapes(name):
    f = getattr(special, name)
    assert isinstance(f(3.5), np.float64)
    assert isinstance(f(np.float64(9.5)), np.float64)
    assert f(np.ones((2, 3, 4))).shape == (2, 3, 4)
    assert f(np.array([])).shape == (0,)


def test_digamma_trigamma_is_both_functions_bit_for_bit():
    # Shared carry, reciprocal and pair products change no bit of either
    # value: over the contract grid (both sides of the carry at 8), at the
    # edges and extremes, on an all-carried, a never-carried and a 0-d input.
    x = np.concatenate([CONTRACT_X, EDGES, EXTREMES])
    for arg in (x, x[x < 8.0], x[x >= 8.0], x.reshape(-1, 1)[:6], 7.5, 8.0, 0.0, np.inf):
        psi, psi1 = special.digamma_trigamma(arg)
        want_psi, want_psi1 = special.digamma(arg), special.trigamma(arg)
        np.testing.assert_array_equal(psi, want_psi)
        np.testing.assert_array_equal(psi1, want_psi1)
        assert type(psi) is type(want_psi) and np.shape(psi1) == np.shape(want_psi1)
    with warnings.catch_warnings(), np.errstate(all="warn", under="ignore"):
        warnings.simplefilter("error")
        special.digamma_trigamma(x)


def test_gammaln_digamma_is_both_functions_bit_for_bit():
    # As for digamma_trigamma: the shared carry, log z, reciprocal and pair
    # products change no bit of either value, compared as integers.
    x = np.concatenate([CONTRACT_X, EDGES, EXTREMES])
    for arg in (x, x[x < 8.0], x[x >= 8.0], x.reshape(-1, 1)[:6], 7.5, 8.0, 0.0, np.inf):
        lg, psi = special.gammaln_digamma(arg)
        want_lg, want_psi = special.gammaln(arg), special.digamma(arg)
        for got, want in ((lg, want_lg), (psi, want_psi)):
            assert type(got) is type(want) and np.shape(got) == np.shape(want)
            np.testing.assert_array_equal(np.asarray(got).view(np.int64),
                                          np.asarray(want).view(np.int64))
    with warnings.catch_warnings(), np.errstate(all="warn", under="ignore"):
        warnings.simplefilter("error")
        special.gammaln_digamma(x)


def test_gammaln_digamma_trigamma_is_three_functions_bit_for_bit():
    # All three parts from one pass: no part changes a bit of another's
    # shared carry, log z, reciprocal or pair products.
    x = np.concatenate([CONTRACT_X, EDGES, EXTREMES])
    for arg in (x, x[x < 8.0], x[x >= 8.0], x.reshape(-1, 1)[:6], 7.5, 8.0, 0.0, np.inf):
        got = special.gammaln_digamma_trigamma(arg)
        want = special.gammaln(arg), special.digamma(arg), special.trigamma(arg)
        for g, w in zip(got, want):
            assert type(g) is type(w) and np.shape(g) == np.shape(w)
            np.testing.assert_array_equal(np.asarray(g).view(np.int64),
                                          np.asarray(w).view(np.int64))
    with warnings.catch_warnings(), np.errstate(all="warn", under="ignore"):
        warnings.simplefilter("error")
        special.gammaln_digamma_trigamma(x)
