"""Special-function and quadrature checks against independent oracles."""

import math

import numpy as np
import pytest
import scipy.special as sps
from scipy.integrate import quad

from svjoint import numerics
from svjoint.numerics import (
    EULER_GAMMA,
    NumericalError,
    PhiFactor,
    PhiQuadCache,
    h_integral,
    log_beta,
    mvn_exp_neg_linear,
    phi_factor,
)
from svjoint.splines import DesignMatrix


def adaptive_log_h(p, q, r, s, t):
    """Adaptive-quadrature oracle for log H, doubling the window until stable.

    Integrates in u = log x space so the near-zero algebraic singularity
    becomes a smooth exponential tail.
    """

    def f(u):
        x = math.exp(u)
        v = (p + 1.0) * u - t * x
        if s:
            v += s * (x * u - sps.gammaln(x)) if x > 1e-290 else s * u
        if q:
            v += math.log(math.log1p(r * x)) if r * x > 1e-290 else math.log(r) + u
        return v

    us = np.linspace(-300.0, 60.0, 10001)
    vs = np.array([f(u) for u in us])
    m = float(vs.max())
    um = float(us[np.argmax(vs)])
    prev = None
    half = 4.0
    while True:
        lo, hi = um - half, um + half
        while f(lo) > m - 80.0:
            lo -= half
        while f(hi) > m - 80.0:
            hi += half
        val, _ = quad(lambda u: math.exp(f(u) - m), lo, hi, limit=800,
                      epsabs=1e-14, epsrel=1e-12)
        result = m + math.log(val)
        if prev is not None and abs(result - prev) < 1e-9:
            return result
        prev = result
        half *= 2.0


class TestLogBeta:
    def test_known_values(self):
        assert log_beta(1.0, 1.0) == pytest.approx(0.0, abs=1e-15)
        assert log_beta(2.0, 1.0) == pytest.approx(math.log(0.5), rel=1e-12)
        assert log_beta(1.0, 2.0) == pytest.approx(math.log(0.5), rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            log_beta(0.0, 1.0)


class TestHIntegral:
    def test_unit_gamma_integral(self):
        # int exp(-x) dx = 1
        assert h_integral(0.0, 0, 1.0, 0.0, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_gamma_integral(self):
        # int x^2 exp(-3x) dx = Gamma(3)/27
        assert h_integral(2.0, 0, 1.0, 0.0, 3.0) == pytest.approx(
            math.log(2.0 / 27.0), rel=1e-12
        )

    def test_spec_point_is_divergent(self):
        # (p, q, r, s, t) = (-0.5, 0, 1, 2, 1.5) has s >= t: the integrand
        # grows like exp((s-t)x) at infinity, so the integral diverges and
        # the evaluation must refuse rather than return a number.
        with pytest.raises(NumericalError):
            h_integral(-0.5, 0, 1.0, 2.0, 1.5)

    def test_against_adaptive_oracle(self):
        # Convergent neighbor of the divergent documented point, plus a
        # spread of hard shapes.
        cases = [
            (-0.5, 0, 1.0, 2.0, 3.5),
            (-0.999, 0, 1.0, 0.3, 1.2),
            (0.5, 1, 1.0, 1.0, 2.0),
            (2.0, 0, 1.0, 10.0, 20.0),
        ]
        for p, q, r, s, t in cases:
            got = h_integral(p, q, r, s, t)
            want = adaptive_log_h(p, q, r, s, t)
            assert got == pytest.approx(want, abs=1e-6), (p, q, r, s, t)

    def test_decreasing_in_t(self):
        for p, q, s in [(0.5, 0, 1.0), (-0.5, 1, 2.0), (0.001, 0, 5.0)]:
            ts = np.linspace(s + 1.0, s + 6.0, 9)
            vals = [h_integral(p, q, 1.0, s, float(t)) for t in ts]
            assert np.all(np.diff(vals) < 0.0)

    def test_s_zero_closed_form_grid(self):
        for p in (0.0, 0.5, 2.0):
            for t in (0.5, 1.0, 5.0):
                want = sps.gammaln(p + 1.0) - (p + 1.0) * math.log(t)
                assert h_integral(p, 0, 1.0, 0.0, t) == pytest.approx(want, abs=1e-8)

    def test_self_term_on_an_overflowing_ladder(self):
        # Ladder rows that run from the small-x expansion (u < -30) past
        # exp(u) = inf (u > 709.78): the entries at x = inf skip gammaln but
        # keep the NaN of inf - inf, and every other entry is the formula's,
        # bit for bit.
        u = np.linspace(-45.0, 760.0, 89) + np.linspace(0.0, 20.0, 5)[:, None]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            x = np.exp(u)
            tiny = u < -30.0
            formula = x * u - numerics.gammaln(np.where(tiny, 8.0, x))
            formula = np.where(tiny, u + x * (u + EULER_GAMMA), formula)
            got = numerics._xlogx_minus_lgamma_u(u, x)
        assert np.isinf(x).any() and tiny.any()
        np.testing.assert_array_equal(got, formula)
        assert np.isnan(got[np.isinf(x)]).all()
        log_f = numerics._h_log_integrand(u, 0.5, 0, 1.0, 2.0, 3.0)
        assert (log_f[np.isinf(x)] == -np.inf).all()

    def test_input_validation(self):
        with pytest.raises(ValueError):
            h_integral(-1.5, 0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            h_integral(0.0, 2, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            h_integral(0.0, 0, 1.0, 0.0, -1.0)
        with pytest.raises(ValueError):
            h_integral(0.0, 0, -1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            h_integral(0.5, 0, 1.0, 3.0, 7.0, node_count=8)


class TestPhiFactor:
    def test_ratio_matches_h_integrals(self):
        fac = phi_factor(0.5, 2.0, 3.0)
        want = math.exp(h_integral(0.5, 0, 1.0, 2.0, 3.0) - h_integral(-0.5, 0, 1.0, 2.0, 3.0))
        assert fac.e_phi == pytest.approx(want, rel=1e-10)

    def test_ratio_against_adaptive_oracle(self):
        # a_phi = 0.5, N_pi = 2, c1 = 3 (the dispersion-update ratio).
        fac = phi_factor(0.5, 2.0, 3.0)
        want = math.exp(adaptive_log_h(0.5, 0, 1.0, 2.0, 3.0) - adaptive_log_h(-0.5, 0, 1.0, 2.0, 3.0))
        assert fac.e_phi == pytest.approx(want, rel=1e-5)

    def test_gamma_reduction_moments(self):
        # s = 0 reduces q(phi) to Gamma(a_phi, t).
        fac = phi_factor(2.5, 0.0, 3.0)
        assert fac.e_phi == pytest.approx(2.5 / 3.0, rel=1e-9)
        want = sps.digamma(2.5) - math.log(3.0)
        assert fac.e_log_phi == pytest.approx(want, rel=1e-9)

    def test_all_dropout_default_mean_is_one(self):
        fac = phi_factor(0.001, 0.0, 0.001)
        assert fac.e_phi == pytest.approx(1.0, rel=1e-9)

    def test_cache_reuse_matches_fresh(self):
        a = None
        t = 50.0
        for _ in range(12):
            t *= 1.05
            a = phi_factor(0.001, 40.0, t, prev=a)
            b = phi_factor(0.001, 40.0, t)
            assert a.log_h0 == pytest.approx(b.log_h0, abs=1e-10)
            assert a.e_phi == pytest.approx(b.e_phi, rel=1e-10)

    def test_window_is_a_value(self):
        # A stale window is replaced, never refreshed in place; a usable one
        # is handed on, not copied.
        first = phi_factor(0.001, 40.0, 50.0)
        nodes = first.window.u.copy()
        second = phi_factor(0.001, 40.0, 100.0, prev=first)
        assert not np.shares_memory(second.window.u, first.window.u)
        np.testing.assert_array_equal(first.window.u, nodes)
        assert (first.window.s, first.window.t) == (40.0, 50.0)
        assert (second.window.s, second.window.t) == (40.0, 100.0)
        reused = phi_factor(0.001, 40.0, 51.0, prev=first)
        for got, want in zip(reused.window, first.window):
            assert np.shares_memory(got, want)

    def test_not_normalizable(self):
        with pytest.raises(NumericalError):
            phi_factor(0.001, 5.0, 4.0)

    @pytest.mark.parametrize("s", [0.0, 100.0, 136.0, 180.0, 227.0, 300.0])
    def test_against_high_node_quadrature(self, s):
        # (N_pi, c1) around what the benchmark fits reach (N_pi 136-227,
        # c1 / N_pi 1.04-2.37) and the all-dropout N_pi = 0, fresh and
        # through windows handed on along the grid.
        walked = None
        for ratio in (1.02, 1.04, 1.2, 1.6, 2.37, 3.0):
            t = s * ratio + 0.01
            want = phi_factor(0.001, s, t, node_count=384)
            walked = phi_factor(0.001, s, t, prev=walked)
            for got in (phi_factor(0.001, s, t), walked):
                for name in ("log_h0", "log_h1", "e_phi", "e_log_phi", "e_self"):
                    w = getattr(want, name)
                    assert abs(getattr(got, name) - w) <= 1e-10 * max(1.0, abs(w)), (name, s, t)


def _rows(factors):
    """One many-row factor from factors of a single (s, t) each."""
    width = max(f.window.u.size for f in factors)
    windows = [f.window._make(np.append(v, np.full(width - v.size, np.nan)) if v.ndim else v
                              for v in f.window) for f in factors]
    return PhiFactor(*(np.stack(parts) for parts in zip(*(f[:5] for f in factors))),
                     PhiQuadCache._make(np.stack(parts) for parts in zip(*windows)))


def _empty_window_factor():
    window = PhiQuadCache._make(v[0] for v in PhiQuadCache.empty(1))
    return PhiFactor(*(np.float64(np.nan),) * 5, window)


class TestPhiFactorRows:
    A_PHI = 0.001
    # (s, t) of each row's previous window (None: an empty row) and its (s, t) now.
    CASES = [
        (None, (40.0, 50.0)),  # empty, 96 nodes
        ((40.0, 50.0), (40.0, 51.0)),  # usable
        ((40.0, 50.0), (40.0, 100.0)),  # stale: fails usable_for
        ((5.0, 10.0), (4.4, 7.05)),  # usable, but its edges fail
        ((0.0, 0.5), (0.0, 0.51)),  # s = 0, 192 nodes
        (None, (2.0, 3.0)),  # 144 nodes
        ((0.0, 0.5), (0.075, 0.3524)),  # 144 nodes, usable, but its edges fail
        (None, (0.0, 5.0)),  # s = 0, 192 nodes
    ]

    def test_each_row_is_its_own_evaluation(self):
        # Every row of one many-row call equals the row evaluated alone, bit
        # for bit: its window, its node count and every sum.
        prevs = [_empty_window_factor() if old is None else phi_factor(self.A_PHI, *old)
                 for old, _ in self.CASES]
        s, t = np.array([new for _, new in self.CASES]).T
        prev = _rows(prevs)
        usable = [False, True, False, True, True, False, True, False]
        assert prev.window.usable_for(s, t).tolist() == usable
        got = phi_factor(self.A_PHI, s, t, prev=prev)
        for k, (old, new) in enumerate(self.CASES):
            want = phi_factor(self.A_PHI, *new, prev=None if old is None else prevs[k])
            for name, got_v, want_v in zip(PhiFactor._fields, got, want):
                if name != "window":
                    assert got_v[k] == want_v, (k, name)
            n = int(want.window.n)
            for name, got_v, want_v in zip(PhiQuadCache._fields, got.window, want.window):
                np.testing.assert_array_equal(got_v[k, ..., :n] if want_v.ndim else got_v[k],
                                              want_v, err_msg=f"row {k} {name}")
        assert set(got.window.n.tolist()) == {96, 144, 192}
        # Only the usable rows whose edges hold keep their windows.
        refitted = got.window.t != np.array([old[1] if old else np.nan for old, _ in self.CASES])
        assert refitted.tolist() == [True, False, True, True, False, True, True, True]

    def test_failing_rows_fail_alone(self):
        # a_phi = 1e-12 with s = 0 leaves the left tail of x^(a_phi - 1)
        # undecayed past the ladder; s >= t diverges.  Each failing row is
        # reported with its own message, the one it raises alone.
        a_phi, s, t = 1e-12, [0.0, 5.0, 7.0, 2.0], [1.0, 10.0, 6.0, 3.0]
        with pytest.raises(NumericalError) as caught:
            phi_factor(a_phi, s, t)
        want = {}
        for k in (0, 2):
            with pytest.raises(NumericalError) as alone:
                phi_factor(a_phi, s[k], t[k])
            want[k] = str(alone.value)
        assert caught.value.failures == want
        assert str(caught.value) == want[0]
        assert "tail does not decay" in want[0] and "not normalizable" in want[2]
        good = phi_factor(a_phi, [s[1], s[3]], [t[1], t[3]])
        for k, row in ((1, 0), (3, 1)):
            alone = phi_factor(a_phi, s[k], t[k])
            for name in ("log_h0", "log_h1", "e_phi", "e_log_phi", "e_self"):
                assert getattr(good, name)[row] == getattr(alone, name)


def rows_design(c):
    """A design whose rows are ``c``, for E[exp(-C theta)] alone."""
    c = np.atleast_2d(np.asarray(c, dtype=float))
    return DesignMatrix(c, n_basis=0, n_covariates=c.shape[1] - 1)


class TestMvnExpNegLinear:
    def test_lognormal_mean(self):
        w, _ = mvn_exp_neg_linear(np.zeros((1, 3)), np.eye(3)[None], rows_design([1.0, 0.0, 0.0]))
        assert w.shape == (1, 1)
        assert w[0, 0] == pytest.approx(math.exp(0.5), rel=1e-12)

    def test_deterministic_limit(self):
        mu = np.array([0.3, -1.2])
        c = np.array([2.0, 1.0])
        want = math.exp(-float(c @ mu))
        w, _ = mvn_exp_neg_linear(mu[None], np.zeros((1, 2, 2)), rows_design(c))
        assert w[0, 0] == pytest.approx(want, rel=1e-12)

    def test_zero_projection(self):
        mu = np.array([[5.0, -2.0]])
        w, _ = mvn_exp_neg_linear(mu, np.eye(2)[None], rows_design(np.zeros(2)))
        assert w[0, 0] == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mvn_exp_neg_linear(np.zeros((1, 3)), np.eye(2)[None], rows_design(np.zeros(3)))

    def test_rows_against_per_row_quadratic_form(self):
        # The stacked form may reassociate sums; the exponent -c.mu + c'Sc/2
        # of each row may move by a few rounding errors of its d-term sums.
        rng = np.random.default_rng(3)
        n, d, b = 1024, 13, 3
        mu = rng.normal(scale=0.3, size=(b, d))
        a = rng.normal(size=(b, d, d))
        sigma = 0.05 * a @ a.transpose(0, 2, 1) / d
        c = rng.uniform(size=(n, d))
        got, _ = mvn_exp_neg_linear(mu, sigma, rows_design(c))
        assert got.shape == (b, n)
        for g in range(b):
            want = np.array([math.exp(-row @ mu[g] + 0.5 * (row @ sigma[g] @ row)) for row in c])
            scale = np.abs(c) @ np.abs(mu[g]) + 0.5 * np.einsum(
                "ij,jk,ik->i", np.abs(c), np.abs(sigma[g]), np.abs(c))
            tol = 4 * d * np.finfo(float).eps * scale
            assert np.all(np.abs(np.log(got[g]) - np.log(want)) <= tol)

    def test_matrix_rows(self):
        # Each (Gaussian, row) entry is that Gaussian's value on that row alone.
        rng = np.random.default_rng(0)
        mu = rng.normal(size=(2, 4))
        a = rng.normal(size=(2, 4, 4))
        sigma = a @ a.transpose(0, 2, 1)
        c = rng.normal(size=(6, 4))
        got, _ = mvn_exp_neg_linear(mu, sigma, rows_design(c))
        want = [[mvn_exp_neg_linear(mu[g:g + 1], sigma[g:g + 1], rows_design(row))[0][0, 0]
                 for row in c] for g in range(2)]
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_returns_c_mu(self):
        rng = np.random.default_rng(1)
        mu = rng.normal(size=(3, 5))
        design = rows_design(rng.normal(size=(7, 5)))
        _, c_mu = mvn_exp_neg_linear(mu, np.broadcast_to(np.eye(5), (3, 5, 5)), design)
        np.testing.assert_array_equal(c_mu, mu @ design.matrix.T)
