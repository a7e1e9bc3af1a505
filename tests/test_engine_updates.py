"""Single-update checks against hand-derived values and closed forms."""

import copy
import math

import numpy as np
import pytest
from scipy.special import digamma as psi
from scipy.special import expit, gammaln, xlogy

from svjoint import engine, special
from svjoint.engine import (
    EngineError,
    FitOptions,
    Hyperparameters,
    _one_iteration,
    alpha_logit,
    beta_prior_precision,
    compute_elbo,
    gamma_moments,
    init_state,
    m_prior_diag,
    u_logit,
    update_a,
    update_alpha,
    update_g,
    update_p,
    update_phi,
    update_q,
    update_r,
    update_sigma,
    update_theta,
    update_u,
)

from conftest import GeneRow, make_design
from test_engine_fit import sim_inputs


def single_state(y, degree=1, j_cov=1, hp=None, n=None):
    y = np.asarray(y, dtype=np.int64)
    n = y.size if n is None else n
    rng = np.random.default_rng(0)
    coords = np.column_stack([np.linspace(0, 1, n), np.linspace(0, 1, n)])
    covs = rng.uniform(size=(n, j_cov))
    design = make_design(coords, covs, degree)
    hp = hp or Hyperparameters.default(1, degree)
    state, shared = init_state([y[None]], [design], hp)
    return GeneRow(state), GeneRow(shared), design, hp


def first_beta_prec(shared, hp):
    """The first sample's beta prior precisions, the row ``update_theta`` reads for it."""
    return beta_prior_precision(shared.block, hp)[0, 0]


class TestInitState:
    def test_all_zero_gene_intercept(self):
        ss, _, _, _ = single_state([0, 0, 0])
        assert ss.mu[0][0] == pytest.approx(math.log(0.01))

    def test_unit_mean_intercept(self):
        ss, _, _, _ = single_state([1, 1, 1])
        assert ss.mu[0][0] == pytest.approx(math.log(1.01))

    def test_structural_zero_indicator(self):
        ss, _, _, _ = single_state([0, 4, 0])
        np.testing.assert_array_equal(ss.u_r, [0.5, 0.0, 0.5])

    def test_symmetric_gates(self):
        ss, shared, _, _ = single_state([1, 2, 3])
        assert np.all(shared.u_alpha == 0.5)
        assert np.all(shared.u_u == 0.5)
        np.testing.assert_allclose(shared.a_sig, 0.5)
        np.testing.assert_allclose(shared.b_sig, 1.0)

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            single_state([-1, 0, 2])


class TestUpdateG:
    def test_hand_substitution(self):
        ss, _, design, _ = single_state([3])
        ss.u_phi = np.array([2.0])
        ss.u_r = np.array([0.0])
        ss.mu = (np.zeros(design.dim),)
        ss.sigma = (np.zeros((design.dim, design.dim)),)
        ss.refresh_theta_cache()
        update_g(ss.block)
        assert ss.a_g[0] == pytest.approx(5.0)
        assert ss.b_g[0] == pytest.approx(3.0)
        assert ss.e_g[0] == pytest.approx(5.0 / 3.0)

    def test_dropout_decoupling(self):
        ss, _, design, _ = single_state([0])
        ss.u_phi = np.array([2.0])
        ss.u_r = np.array([1.0])
        ss.mu = (np.zeros(design.dim),)
        ss.sigma = (np.zeros((design.dim, design.dim)),)
        ss.refresh_theta_cache()
        update_g(ss.block)
        assert abs(ss.a_g[0] - 1.0) < 1e-7
        assert ss.b_g[0] > 0.0

    def test_zero_count_unit_phi(self):
        ss, _, design, _ = single_state([0])
        ss.u_phi = np.array([1.0])
        ss.u_r = np.array([0.0])
        ss.mu = (np.zeros(design.dim),)
        ss.sigma = (np.zeros((design.dim, design.dim)),)
        ss.refresh_theta_cache()
        update_g(ss.block)
        assert ss.a_g[0] == pytest.approx(1.0)
        assert ss.b_g[0] == pytest.approx(2.0)

    def test_entropy_of_q_g_bit_for_bit(self, eight_spot_fixture):
        # q(g)'s entropy, summed per sample by update_g from the pass that
        # gives E[log g], equals the separate functions' value exactly.
        ys, designs, hp = eight_spot_fixture
        state, shared = init_state([np.stack([y, y + 2]) for y in ys], designs, hp)
        _one_iteration(state, shared, hp, 1.0)
        a_g, log_b_g = state.a_g, np.log(state.b_g)
        e_log_g = special.digamma(a_g) - log_b_g
        np.testing.assert_array_equal(state.e_log_g, e_log_g)
        want = -state.per_sample_sum(
            a_g * log_b_g - special.gammaln(a_g) + (a_g - 1.0) * e_log_g - a_g)
        np.testing.assert_array_equal(state.ent_g, want)


class TestUpdateR:
    def test_symmetric_at_zero_rate(self):
        ss, _, design, hp = single_state([0])
        ss.e_g = np.array([0.0])
        update_r(ss.block, hp)
        assert ss.u_r[0] == pytest.approx(0.5)

    def test_positive_count_structural(self):
        ss, _, design, hp = single_state([4])
        update_r(ss.block, hp)
        assert ss.u_r[0] == 0.0

    def test_log_two_rate(self):
        ss, _, design, hp = single_state([0])
        ss.e_g = np.array([math.log(2.0)])
        update_r(ss.block, hp)
        assert ss.u_r[0] == pytest.approx(2.0 / 3.0, rel=1e-12)


class TestUpdatePhi:
    def test_all_dropout_reduces_to_prior_mean(self):
        ss, _, design, hp = single_state([0, 0])
        ss.u_r = np.array([1.0, 1.0])
        update_phi(ss.block, hp)
        assert ss.n_pi[0] == 0.0
        assert ss.c1[0] == pytest.approx(hp.b_phi)
        assert ss.u_phi[0] == pytest.approx(hp.a_phi / hp.b_phi, rel=1e-8)

    def test_c1_two_spot_toy(self):
        ss, _, design, hp = single_state([1, 1])
        ss.u_r = np.zeros(2)
        ss.e_log_g = np.zeros(2)
        ss.a_g = np.ones(2)
        ss.b_g = np.ones(2)
        ss.e_g = np.ones(2)
        ss.mu = (np.zeros(design.dim),)
        ss.sigma = (np.zeros((design.dim, design.dim)),)
        ss.refresh_theta_cache()
        update_phi(ss.block, hp)
        assert ss.c1[0] == pytest.approx(0.001 + 2.0, rel=1e-12)

    def test_negative_c1_rejected(self):
        ss, _, design, hp = single_state([1, 1])
        # Impossible moments (E log g far above log E g) force c1 <= 0.
        ss.u_r = np.zeros(2)
        ss.e_log_g = np.full(2, 50.0)
        ss.e_g = np.full(2, 1e-8)
        ss.mu = (np.zeros(design.dim),)
        ss.sigma = (np.zeros((design.dim, design.dim)),)
        ss.refresh_theta_cache()
        with pytest.raises(EngineError, match="c1"):
            update_phi(ss.block, hp)


class TestUpdateSigma:
    def test_spike_drops_beta_term(self):
        ss, shared, design, hp = single_state([1, 2, 3])
        shared.u_alpha[0, 0] = 0.0
        shared.u_inv_a[0, 0] = 0.7
        update_sigma(shared.block, ss.beta_sq, ss.length)
        assert shared.a_sig[0, 0] == pytest.approx(0.5)
        assert shared.b_sig[0, 0] == pytest.approx(0.7)

    def test_slab_substitution(self):
        ss, shared, design, hp = single_state([1, 2, 3], degree=2)
        blk = design.beta_slice(0)
        mu = np.zeros(design.dim)
        mu[blk] = [2.0, 0.0]  # |mu|^2 = 4
        ss.mu = (mu,)
        ss.sigma = (np.zeros((design.dim, design.dim)),)
        ss.refresh_theta_cache()
        shared.u_alpha[0, 0] = 1.0
        shared.u_inv_a[0, 0] = 1.0
        update_sigma(shared.block, ss.beta_sq, ss.length)
        assert shared.a_sig[0, 0] == pytest.approx(1.5)
        assert shared.b_sig[0, 0] == pytest.approx(3.0)
        e_inv_s2, _ = gamma_moments(shared.a_sig, shared.b_sig)
        assert e_inv_s2[0, 0] == pytest.approx(0.5)

    def test_slab_zero_beta(self):
        ss, shared, design, hp = single_state([1, 2, 3], degree=2)
        ss.mu = (np.zeros(design.dim),)
        ss.sigma = (np.zeros((design.dim, design.dim)),)
        ss.refresh_theta_cache()
        shared.u_alpha[0, 0] = 1.0
        shared.u_inv_a[0, 0] = 2.0
        update_sigma(shared.block, ss.beta_sq, ss.length)
        assert shared.a_sig[0, 0] == pytest.approx(1.5)
        assert shared.b_sig[0, 0] == pytest.approx(2.0)


class TestUpdateA:
    def test_substitution(self):
        hp = Hyperparameters.default(1, 1, gamma2=0.01)
        hp = Hyperparameters(**{**hp.__dict__, "a_slab": (0.5, 0.5)})
        ss, shared, design, _ = single_state([1, 2], hp=hp)
        shared.a_sig[0, 0], shared.b_sig[0, 0] = 9.0, 1.0
        update_a(shared.block, hp)
        assert shared.u_inv_a[0, 0] == pytest.approx(1.0 / 13.0)

    def test_vanishing_precision_limit(self):
        hp = Hyperparameters(a_slab=(1.0, 1.0))
        ss, shared, design, _ = single_state([1, 2], hp=hp)
        shared.a_sig[0, 0], shared.b_sig[0, 0] = 1e-14, 1.0
        update_a(shared.block, hp)
        assert shared.u_inv_a[0, 0] == pytest.approx(1.0, rel=1e-10)

    def test_wide_slab_limit(self):
        hp = Hyperparameters(a_slab=(1e9, 1e9))
        ss, shared, design, _ = single_state([1, 2], hp=hp)
        shared.a_sig[0, 0], shared.b_sig[0, 0] = 2.0, 1.0
        update_a(shared.block, hp)
        assert shared.u_inv_a[0, 0] == pytest.approx(0.5, rel=1e-10)


class TestAlphaLogit:
    def test_matched_spike_slab(self):
        hp = Hyperparameters(gamma2=0.01, gamma1_sq=0.01)
        logit = alpha_logit(
            bsq=0.02, e_inv_s2=100.0, e_log_inv_s2=math.log(100.0), u_u=1.0,
            e_log_q=-1.0, e_log_1mq=-1.0, length=2, hp=hp,
        )
        assert expit(logit) == pytest.approx(0.5, abs=1e-12)

    def test_weak_precision_favors_spike(self):
        hp = Hyperparameters(gamma2=0.01, gamma1_sq=0.01)
        logit = alpha_logit(
            bsq=0.02, e_inv_s2=1.0, e_log_inv_s2=0.0, u_u=1.0,
            e_log_q=-1.0, e_log_1mq=-1.0, length=2, hp=hp,
        )
        assert expit(logit) == pytest.approx(0.026, abs=0.002)

    def test_large_beta_favors_slab(self):
        hp = Hyperparameters(gamma2=0.01, gamma1_sq=0.01)
        logit = alpha_logit(
            bsq=50.0, e_inv_s2=1.0, e_log_inv_s2=0.0, u_u=1.0,
            e_log_q=-1.0, e_log_1mq=-1.0, length=2, hp=hp,
        )
        assert expit(logit) == pytest.approx(1.0, abs=1e-6)


class TestULogit:
    def test_hand_computation(self):
        hp = Hyperparameters(gamma2=0.01)
        e_log_q = psi(1.0) - psi(2.0)  # Beta(1, 1)
        e_log_1mq = psi(1.0) - psi(2.0)
        e_log_p = psi(1.2) - psi(3.0)  # Beta(1.2, 1.8)
        e_log_1mp = psi(1.8) - psi(3.0)
        val = expit(u_logit([1.0], e_log_q, e_log_1mq, e_log_p, e_log_1mp, hp))
        assert val == pytest.approx(0.954, abs=0.01)

    def test_symmetric_construction(self):
        hp = Hyperparameters(gamma2=0.01)
        val = expit(
            u_logit(
                [0.3, 0.8],
                e_log_q=math.log(hp.gamma2),
                e_log_1mq=math.log1p(-hp.gamma2),
                e_log_p=math.log(0.5),
                e_log_1mp=math.log(0.5),
                hp=hp,
            )
        )
        assert val == pytest.approx(0.5, abs=1e-12)

    def test_all_indicators_on(self):
        hp = Hyperparameters(gamma2=0.001)
        val = expit(u_logit([1.0] * 4, -0.2, -2.0, -1.0, -1.0, hp))
        assert val == pytest.approx(1.0, abs=1e-8)


class TestUpdatePQ:
    def test_p_substitution(self):
        hp = Hyperparameters()
        ss, shared, design, _ = single_state([1, 2], hp=hp)
        shared.u_u[0] = 1.0
        update_p(shared.block, hp)
        assert shared.a_p[0] == pytest.approx(1.2)
        assert shared.b_p[0] == pytest.approx(1.8)
        assert shared.a_p[0] / (shared.a_p[0] + shared.b_p[0]) == pytest.approx(0.4)

    def test_p_gate_closed(self):
        hp = Hyperparameters()
        _, shared, _, _ = single_state([1, 2], hp=hp)
        shared.u_u[0] = 0.0
        update_p(shared.block, hp)
        assert shared.a_p[0] == pytest.approx(0.2)
        assert shared.b_p[0] == pytest.approx(2.8)
        assert shared.a_p[0] / (shared.a_p[0] + shared.b_p[0]) == pytest.approx(1.0 / 15.0)

    def test_p_symmetric(self):
        hp = Hyperparameters(c_p=1.0, d_p=1.0)
        _, shared, _, _ = single_state([1, 2], hp=hp)
        shared.u_u[0] = 0.5
        update_p(shared.block, hp)
        assert shared.a_p[0] == pytest.approx(1.5)
        assert shared.b_p[0] == pytest.approx(1.5)

    def test_q_gate_closed_returns_prior(self):
        hp = Hyperparameters()
        ss, shared, design, _ = single_state([1, 2], hp=hp)
        shared.u_u[0] = 0.0
        shared.u_alpha[0, 0] = 0.9
        update_q(shared.block, hp)
        assert shared.a_q[0] == pytest.approx(hp.c_q)
        assert shared.b_q[0] == pytest.approx(hp.d_q)

    def test_q_substitution_four_samples(self):
        hp = Hyperparameters(c_q=1.0, d_q=1.0)
        _, shared, _, _ = single_state([1, 2], hp=hp)
        # Four samples' indicators on axis 0.
        shared.u_alpha = np.array([[ua, 0.5] for ua in (1.0, 1.0, 1.0, 0.0)])
        shared.u_u[0] = 1.0
        update_q(shared.block, hp)
        assert shared.a_q[0] == pytest.approx(4.0)
        assert shared.b_q[0] == pytest.approx(2.0)

    def test_q_all_off(self):
        hp = Hyperparameters(c_q=1.0, d_q=1.0)
        _, shared, _, _ = single_state([1, 2], hp=hp)
        # Three samples' indicators on axis 0.
        shared.u_alpha = np.array([[0.0, 0.5]] * 3)
        shared.u_u[0] = 1.0
        update_q(shared.block, hp)
        assert shared.a_q[0] == pytest.approx(hp.c_q)
        assert shared.b_q[0] == pytest.approx(3.0 + hp.d_q)

    def test_moments_fresh_after_every_update(self):
        # update_p/update_q refresh the moments of the factor they change;
        # all four arrays must equal a full refresh exactly.
        hp = Hyperparameters.default(3, 1)
        rng = np.random.default_rng(4)
        _, shared, _, _ = single_state([1, 2, 0], hp=hp)
        names = ("e_log_p", "e_log_1mp", "e_log_q", "e_log_1mq")
        for _ in range(5):
            shared.u_u = rng.uniform(size=2)
            shared.u_alpha = rng.uniform(size=(3, 2))  # three samples
            for update in (lambda: update_q(shared.block, hp), lambda: update_p(shared.block, hp)):
                update()
                fresh = copy.copy(shared)
                fresh.refresh_moments()
                for name in names:
                    np.testing.assert_array_equal(getattr(shared, name), getattr(fresh, name))


class TestSlabBlockAgainstScalarLoop:
    """The (M, 2) slab block and gate against one (m, k) entry at a time.

    The reference applies the same formulas to Python floats with
    ``math.log``; numpy's vectorized log may differ from it in the last
    bit, hence the 1e-12 relative tolerance.
    """

    @staticmethod
    def fitted(m=3):
        ds, _, designs = sim_inputs(14, m=m, grid=(8, 8))
        hp = Hyperparameters.default(m, 3)
        state, shared = init_state([s.counts[0:1] for s in ds.samples], designs, hp)
        for _ in range(3):
            _one_iteration(state, shared, hp, 1.0)
        return GeneRow(state), GeneRow(shared), hp

    def test_slab_and_gate_updates(self):
        state, shared, hp = self.fitted()
        beta_sq, length = state.beta_sq, state.length
        old = copy.copy(shared)
        want = {name: np.empty_like(getattr(old, name))
                for name in ("a_sig", "b_sig", "u_inv_a", "u_alpha")}
        for m in range(len(state.designs)):
            for k in (0, 1):
                ua, bsq, n_basis = float(old.u_alpha[m, k]), float(beta_sq[m, k]), int(length[m, 0])
                a_sig = 0.5 * (n_basis * ua + 1.0)
                b_sig = 0.5 * ua * bsq + float(old.u_inv_a[m, k])
                e_inv = a_sig / b_sig
                want["a_sig"][m, k], want["b_sig"][m, k] = a_sig, b_sig
                want["u_inv_a"][m, k] = 1.0 / (e_inv + 1.0 / hp.a_slab[k] ** 2)
                want["u_alpha"][m, k] = expit(alpha_logit(
                    bsq, e_inv, float(psi(a_sig)) - math.log(b_sig), float(old.u_u[k]),
                    float(old.e_log_q[k]), float(old.e_log_1mq[k]), n_basis, hp))
        want_u = []
        for k in (0, 1):
            sum_alpha, u_u = sum(want["u_alpha"][:, k]), float(old.u_u[k])
            a_q, b_q = u_u * sum_alpha + hp.c_q, len(state.designs) * u_u + hp.d_q - u_u * sum_alpha
            a_p, b_p = u_u + hp.c_p, hp.d_p - u_u + 1.0
            e_q = (psi(a_q) - psi(a_q + b_q), psi(b_q) - psi(a_q + b_q))
            e_p = (psi(a_p) - psi(a_p + b_p), psi(b_p) - psi(a_p + b_p))
            want_u.append(expit(u_logit(want["u_alpha"][:, k], *e_q, *e_p, hp)))

        update_sigma(shared.block, beta_sq, length)
        update_a(shared.block, hp)
        update_alpha(shared.block, beta_sq, length, hp)
        update_q(shared.block, hp)
        update_p(shared.block, hp)
        update_u(shared.block, hp)
        for name, arr in want.items():
            np.testing.assert_allclose(getattr(shared, name), arr, rtol=1e-12, err_msg=name)
        np.testing.assert_allclose(shared.u_u, want_u, rtol=1e-12)

    def test_slab_elbo_terms(self):
        state, shared, hp = self.fitted()
        beta_sq, length = state.beta_sq, state.length
        want = np.empty_like(shared.u_alpha)
        for m in range(len(state.designs)):
            for k in (0, 1):
                ua, bsq, n_basis = float(shared.u_alpha[m, k]), float(beta_sq[m, k]), int(length[m, 0])
                sa, sb = float(shared.a_sig[m, k]), float(shared.b_sig[m, k])
                e_inv_s2, e_log_inv_s2 = sa / sb, float(psi(sa)) - math.log(sb)
                beta_term = ua * (
                    -0.5 * n_basis * math.log(2 * math.pi) + 0.5 * n_basis * e_log_inv_s2
                    - 0.5 * bsq * e_inv_s2
                ) + (1.0 - ua) * (
                    -0.5 * n_basis * math.log(2 * math.pi * hp.gamma1_sq) - bsq / (2.0 * hp.gamma1_sq)
                )
                scale_a = 1.0 / float(shared.u_inv_a[m, k])
                e_log_a, e_inv_a = math.log(scale_a) - float(psi(1.0)), 1.0 / scale_a
                lg_half = float(gammaln(0.5))
                sig_prior = -0.5 * e_log_a - lg_half + 1.5 * e_log_inv_s2 - e_inv_a * e_inv_s2
                a_sq = hp.a_slab[k] ** 2
                a_prior = -0.5 * math.log(a_sq) - lg_half - 1.5 * e_log_a - e_inv_a / a_sq
                e_log_q_sig = sa * math.log(sb) - float(gammaln(sa)) + (sa + 1.0) * e_log_inv_s2 - sa
                e_log_q_a = math.log(scale_a) - 2.0 * e_log_a - scale_a * e_inv_a
                u_u = float(shared.u_u[k])
                alpha_prior = u_u * (
                    ua * shared.e_log_q[k] + (1.0 - ua) * shared.e_log_1mq[k]
                ) + (1.0 - u_u) * (ua * math.log(hp.gamma2) + (1.0 - ua) * math.log1p(-hp.gamma2))
                entropy = -float(xlogy(ua, ua) + xlogy(1.0 - ua, 1.0 - ua))
                want[m, k] = (beta_term + sig_prior + a_prior - e_log_q_sig - e_log_q_a
                              + alpha_prior + entropy)
        got = engine._slab_elbo(shared.block, beta_sq, length, hp)[0]
        np.testing.assert_allclose(got, want, rtol=1e-12)


class TestStackedAgainstPerSample:
    """The concatenated-spot updates and ELBO against one sample at a time.

    The references below are the single-sample formulas, applied to each
    sample's own spots, theta block and (N_pi, c1, u_phi).  The gene's three
    sections differ in spot count (5, 8, 13) and covariate count (0, 1, 2),
    so a spot attributed to the wrong sample changes some sample's result.
    """

    SPOTS = (5, 8, 13)

    @classmethod
    def fitted(cls):
        rng = np.random.default_rng(21)
        ys, designs = [], []
        for m, n in enumerate(cls.SPOTS):
            coords = rng.uniform(size=(n, 2))
            designs.append(make_design(coords, rng.uniform(size=(n, m)), degree=2))
            ys.append(rng.poisson(3.0 + 4.0 * coords[:, 0]) * (rng.random(n) > 0.3))
        hp = Hyperparameters.default(len(ys), 2)
        state, shared = init_state([y[None] for y in ys], designs, hp)
        for _ in range(3):
            _one_iteration(state, shared, hp, 1.0)
        return GeneRow(state), GeneRow(shared), ys, hp

    @staticmethod
    def per_sample(state):
        """(spots, mu, sigma, u_phi, n_pi, c1) of each sample, copied."""
        return [
            (spots, state.mu[m].copy(), state.sigma[m].copy(), float(state.u_phi[m]),
             float(state.n_pi[m]), float(state.c1[m]))
            for m, spots in enumerate(state.sections)
        ]

    def test_sections_follow_the_samples(self):
        state, _, ys, _ = self.fitted()
        np.testing.assert_array_equal(state.offsets, [0, 5, 13, 26])
        for spots, y in zip(state.sections, ys):
            np.testing.assert_array_equal(state.y[spots], y)
        assert [d.dim for d in state.designs] == [5, 6, 7]

    def test_theta(self):
        state, shared, _, hp = self.fitted()
        old = copy.copy(state)
        beta_prec = beta_prior_precision(shared.block, hp)[0]
        update_theta(state.block, beta_prec[None], hp, damping=0.7)
        for m, (spots, mu, sigma, u_phi, _, _) in enumerate(self.per_sample(old)):
            design = old.designs[m]
            c = design.matrix
            kappa = 1.0 - old.u_r[spots]
            w = kappa * old.e_g[spots] * old.w_exp[spots]
            m_prior = np.concatenate((
                [1.0 / hp.sigma2_eta], np.repeat(beta_prec[m], design.n_basis),
                np.full(design.n_covariates, 1.0 / hp.sigma2_psi)))
            grad = u_phi * (c.T @ (w - kappa)) - m_prior * mu
            inv_chol = np.linalg.inv(np.linalg.cholesky(u_phi * (c.T * w) @ c + np.diag(m_prior)))
            want_sigma = inv_chol.T @ inv_chol
            want_mu = mu + 0.7 * (want_sigma @ grad)
            np.testing.assert_allclose(state.sigma[m], want_sigma, rtol=1e-12, atol=0)
            np.testing.assert_allclose(state.mu[m], want_mu, rtol=1e-12, atol=1e-15)
            quad = np.array([row @ want_sigma @ row for row in c])
            np.testing.assert_allclose(
                state.w_exp[spots], np.exp(-c @ want_mu + 0.5 * quad), rtol=1e-12)
            np.testing.assert_allclose(state.c_mu[spots], c @ want_mu, rtol=1e-12, atol=1e-14)
            for k in (0, 1):
                blk = design.beta_slice(k)
                want = want_mu[blk] @ want_mu[blk] + np.trace(want_sigma[blk, blk])
                assert state.beta_sq[m, k] == pytest.approx(want, rel=1e-12)

    def test_phi(self):
        state, _, _, hp = self.fitted()
        old = copy.copy(state)
        update_phi(state.block, hp)
        n_pi, c1 = [], []
        for spots, _, _, _, _, _ in self.per_sample(old):
            kappa = 1.0 - old.u_r[spots]
            n_pi.append(float(np.sum(kappa)))
            spot_terms = old.c_mu[spots] - old.e_log_g[spots] + old.e_g[spots] * old.w_exp[spots]
            c1.append(hp.b_phi + float(kappa @ spot_terms))
        fac = engine.phi_factor(hp.a_phi, n_pi, c1, prev=old.phi_cache)
        for m in range(len(self.SPOTS)):
            assert state.n_pi[m] == pytest.approx(n_pi[m], rel=1e-12)
            assert state.c1[m] == pytest.approx(c1[m], rel=1e-12)
            assert state.u_phi[m] == pytest.approx(
                float(np.clip(fac.e_phi[m], *engine._U_PHI_BOUNDS)), rel=1e-12)
            for name in ("log_h0", "e_log_phi", "e_self"):
                assert getattr(state.phi_cache, name)[m] == pytest.approx(
                    getattr(fac, name)[m], rel=1e-12), name

    def test_g_and_r(self):
        state, _, ys, hp = self.fitted()
        old = copy.copy(state)
        update_g(state.block)
        update_r(state.block, hp)
        log_num = math.log(0.5)  # log B(a_pi + 1, b_pi) at a_pi = b_pi = 1
        for m, (spots, _, _, u_phi, _, _) in enumerate(self.per_sample(old)):
            kappa = np.maximum(1.0 - old.u_r[spots], 1e-8)
            a_g = (ys[m] + u_phi - 1.0) * kappa + 1.0
            b_g = kappa * (u_phi * old.w_exp[spots] + 1.0)
            np.testing.assert_allclose(state.a_g[spots], a_g, rtol=1e-12)
            np.testing.assert_allclose(state.b_g[spots], b_g, rtol=1e-12)
            np.testing.assert_allclose(state.e_g[spots], a_g / b_g, rtol=1e-12)
            np.testing.assert_allclose(
                state.e_log_g[spots], psi(a_g) - np.log(b_g), rtol=1e-12, atol=1e-14)
            prob = np.minimum(expit(log_num - (log_num - a_g / b_g)), 1.0 - 1e-8)
            np.testing.assert_allclose(
                state.u_r[spots], np.where(ys[m] == 0, prob, 0.0), rtol=1e-12)

    def test_elbo(self):
        state, shared, ys, hp = self.fitted()
        lb = lambda a, b: float(gammaln(a) + gammaln(b) - gammaln(a + b))
        want = 0.0
        for m, (spots, mu, sigma, _, n_pi, c1) in enumerate(self.per_sample(state)):
            design, fac = state.designs[m], engine._rowwise(lambda v: v[m], state.phi_cache)
            y = ys[m]
            kappa = 1.0 - state.u_r[spots]
            a_g, b_g = state.a_g[spots], state.b_g[spots]
            e_g, e_log_g = state.e_g[spots], state.e_log_g[spots]
            c_mu, w_exp = design.matrix @ mu, state.w_exp[spots]
            want += float(kappa @ (y * e_log_g - e_g - gammaln(y + 1.0)))
            want += float(kappa @ (fac.e_self - fac.e_phi * c_mu + (fac.e_phi - 1.0) * e_log_g
                                   - fac.e_phi * e_g * w_exp))
            want += (lb(hp.a_pi + 1.0, hp.b_pi) * state.u_r[spots].sum()
                     + lb(hp.a_pi, hp.b_pi + 1.0) * kappa.sum() - y.size * lb(hp.a_pi, hp.b_pi))
            want -= float((a_g * np.log(b_g) - gammaln(a_g) + (a_g - 1.0) * e_log_g - a_g).sum())
            want -= float((xlogy(state.u_r[spots], state.u_r[spots]) + xlogy(kappa, kappa)).sum())
            want += -0.5 * math.log(2 * math.pi * hp.sigma2_eta) - (
                mu[0] ** 2 + sigma[0, 0]) / (2.0 * hp.sigma2_eta)
            psl, n_cov = design.psi_slice, design.n_covariates
            want += n_cov * -0.5 * math.log(2 * math.pi * hp.sigma2_psi) - float(
                mu[psl] @ mu[psl] + np.trace(sigma[psl, psl])) / (2.0 * hp.sigma2_psi)
            want += 0.5 * np.linalg.slogdet(sigma)[1] + 0.5 * design.dim * (
                math.log(2 * math.pi) + 1.0)
            want += (hp.a_phi * math.log(hp.b_phi) - float(gammaln(hp.a_phi))
                     + (hp.a_phi - 1.0) * fac.e_log_phi - hp.b_phi * fac.e_phi)
            want -= (n_pi * fac.e_self + (hp.a_phi - 1.0) * fac.e_log_phi - c1 * fac.e_phi
                     - fac.log_h0)
        want += engine._slab_elbo(shared.block, state.beta_sq, state.length, hp).sum()
        want += engine._gate_elbo(shared.block, hp).sum()
        assert compute_elbo(state.block, shared.block, hp) == pytest.approx(want, rel=1e-12)


class TestUpdateTheta:
    def test_no_data_collapses_to_prior(self):
        ss, shared, design, hp = single_state([0, 0, 0, 0])
        ss.u_r = np.ones(4)
        ss.mu = (np.array([0.5, -0.3, 0.2, 0.1]),)
        update_theta(ss.block, beta_prior_precision(shared.block, hp), hp, damping=1.0)
        m_prior = m_prior_diag(design, first_beta_prec(shared, hp), hp)
        np.testing.assert_allclose(ss.mu[0], 0.0, atol=1e-12)
        np.testing.assert_allclose(ss.sigma[0], np.diag(1.0 / m_prior), atol=1e-12)

    def test_dimensions(self):
        ss, shared, design, hp = single_state([1] * 10, degree=3, j_cov=2, n=10)
        update_theta(ss.block, beta_prior_precision(shared.block, hp), hp)
        assert ss.sigma[0].shape == (9, 9)

    def test_covariance_positive_definite(self, five_spot_state):
        ss, shared, ys, designs, hp = five_spot_state
        update_theta(ss.block, beta_prior_precision(shared.block, hp), hp)
        assert np.linalg.eigvalsh(ss.sigma[0]).min() > 0.0

    @staticmethod
    def expected_precision(ss, shared, design, hp):
        # P = u_phi C' diag[(1 - u_r) E[g] E[exp(-C theta)]] C + M_prior.
        c = design.matrix
        w = (1.0 - ss.u_r) * ss.e_g * ss.w_exp
        m_prior = m_prior_diag(design, first_beta_prec(shared, hp), hp)
        return ss.u_phi[0] * (c.T @ np.diag(w) @ c) + np.diag(m_prior)

    def test_sigma_is_inverse_precision(self, five_spot_state):
        ss, shared, ys, designs, hp = five_spot_state
        design = designs[0]
        want = np.linalg.inv(self.expected_precision(ss, shared, design, hp))
        update_theta(ss.block, beta_prior_precision(shared.block, hp), hp)
        np.testing.assert_allclose(ss.sigma[0], want, rtol=0, atol=1e-12 * np.abs(want).max())

    def test_rejected_factorization_retried_once_with_jitter(self, five_spot_state,
                                                              monkeypatch):
        ss, shared, ys, designs, hp = five_spot_state
        design = designs[0]
        prec = self.expected_precision(ss, shared, design, hp)
        real = np.linalg.cholesky
        calls = []

        def reject_first(a):
            calls.append(np.array(a))
            if len(calls) == 1:
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            return real(a)

        monkeypatch.setattr(np.linalg, "cholesky", reject_first)
        update_theta(ss.block, beta_prior_precision(shared.block, hp), hp)
        assert len(calls) == 2
        np.testing.assert_array_equal(calls[1], calls[0] + engine._JITTER * np.eye(design.dim))
        want = np.linalg.inv(prec + engine._JITTER * np.eye(design.dim))
        np.testing.assert_allclose(ss.sigma[0], want, rtol=0, atol=1e-12 * np.abs(want).max())

    def test_indefinite_precision_raises_after_one_retry(self, five_spot_state,
                                                         monkeypatch):
        ss, shared, ys, designs, hp = five_spot_state
        ss.u_phi = np.array([-1e3])  # makes u_phi C' diag[w] C + M_prior indefinite
        real = np.linalg.cholesky
        calls = []

        def counting(a):
            calls.append(a)
            return real(a)

        monkeypatch.setattr(np.linalg, "cholesky", counting)
        with pytest.raises(EngineError, match="not invertible after jitter"):
            update_theta(ss.block, beta_prior_precision(shared.block, hp), hp)
        assert len(calls) == 2

    def test_stacked_factorization_falls_back_to_each_gene(self, monkeypatch):
        # A two-gene block whose second gene has an indefinite precision:
        # the stacked factorization fails, each gene is factored alone, and
        # only the second gene fails, after its one jittered retry.
        y = np.array([0, 2, 0, 5, 3], dtype=np.int64)
        design = make_design(np.column_stack([np.linspace(0, 1, 5)] * 2),
                             np.linspace(0.2, 0.8, 5)[:, None], degree=1)
        hp = Hyperparameters.default(1, 1)
        block, shared = init_state([np.stack([y, y + 1])], [design], hp)
        block.u_phi = np.array([[1.0], [-1e3]])
        real = np.linalg.cholesky
        calls = []

        def counting(a):
            calls.append(a.shape)
            return real(a)

        monkeypatch.setattr(np.linalg, "cholesky", counting)
        with pytest.raises(EngineError) as info:
            update_theta(block, beta_prior_precision(shared, hp), hp)
        assert info.value.failures == {1: "theta precision of sample 0 not invertible after jitter"}
        assert calls == [(2, 4, 4), (1, 4, 4), (1, 4, 4), (1, 4, 4)]

    def test_non_finite_precision_raises(self, five_spot_state):
        ss, shared, ys, designs, hp = five_spot_state
        ss.w_exp = np.full_like(ss.w_exp, np.inf)
        with np.errstate(invalid="ignore"), pytest.raises(EngineError, match="non-finite precision"):
            update_theta(ss.block, beta_prior_precision(shared.block, hp), hp)

    def test_one_moment_evaluation_per_sample(self, five_spot_state, monkeypatch):
        # The step reads the cached E[exp(-C theta)]; only the refresh at the
        # new (mu, Sigma) evaluates it.
        ss, shared, ys, designs, hp = five_spot_state
        real = engine.mvn_exp_neg_linear
        calls = []

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(engine, "mvn_exp_neg_linear", counting)
        _one_iteration(ss.block, shared.block, hp, 1.0)
        assert len(calls) == len(ys)


class TestElbo:
    def test_binary_entropy_is_the_xlogy_form_bit_for_bit(self):
        # The log is taken at positive arguments only; every value equals
        # -(xlogy(p, p) + xlogy(q, q)) with 0 log 0 = 0, compared as integers.
        def xlogx(p):
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.where(p == 0.0, 0.0, p * np.log(p))

        rng = np.random.default_rng(3)
        random = rng.uniform(size=(32, 768))
        random[rng.uniform(size=random.shape) < 0.7] = 0.0
        for p in (np.array([0.0, 1e-300, 0.5, 1.0 - 1e-8, 1.0]), random,
                  rng.uniform(size=1000), np.exp(-rng.uniform(0, 700, 1000))):
            want = -(xlogx(p) + xlogx(1.0 - p))
            np.testing.assert_array_equal(
                engine._binary_entropy(p).view(np.int64), want.view(np.int64))

    def test_finite_on_fixture(self, five_spot_state):
        ss, shared, ys, designs, hp = five_spot_state
        val = compute_elbo(ss.block, shared.block, hp)[0]
        assert math.isfinite(val)

    def test_requires_phi_cache(self):
        ss, shared, design, hp = single_state([1, 2])
        ss.phi_cache = None
        with pytest.raises(EngineError, match="phi factor cache"):
            compute_elbo(ss.block, shared.block, hp)


class TestThetaCaches:
    @staticmethod
    def assert_caches_match(ss, design):
        # Every cached function of (mu, Sigma), recomputed from first principles.
        c = design.matrix
        mu, sigma = ss.mu[0], ss.sigma[0]
        quad = np.array([row @ sigma @ row for row in c])
        np.testing.assert_allclose(ss.w_exp, np.exp(-c @ mu + 0.5 * quad), rtol=1e-12)
        np.testing.assert_allclose(ss.c_mu, c @ mu, rtol=1e-12, atol=1e-14)
        for k in (0, 1):
            blk = design.beta_slice(k)
            want = np.sum(mu[blk] ** 2) + np.sum(np.diag(sigma)[blk])
            assert ss.beta_sq[0, k] == pytest.approx(want, rel=1e-12)

    def test_c_mu_comes_from_the_moment_call(self, eight_spot_fixture):
        # C mu is formed once per sample, by mvn_exp_neg_linear, and stored as is.
        ys, designs, hp = eight_spot_fixture
        state, shared = init_state([np.stack([y, y + 2]) for y in ys], designs, hp)
        _one_iteration(state, shared, hp, 1.0)
        for design, mu, sigma, spots in zip(designs, state.mu, state.sigma, state.sections):
            w_exp, c_mu = engine.mvn_exp_neg_linear(mu, sigma, design)
            np.testing.assert_array_equal(c_mu, mu @ design.matrix.T)
            np.testing.assert_array_equal(state.c_mu[:, spots], c_mu)
            np.testing.assert_array_equal(state.w_exp[:, spots], w_exp)

    def test_fresh_after_every_update(self, five_spot_state):
        ss, shared, ys, designs, hp = five_spot_state
        for _ in range(3):
            _one_iteration(ss.block, shared.block, hp, 1.0)
            self.assert_caches_match(ss, designs[0])

    def test_elbo_after_perturbation_matches_from_scratch(self, five_spot_state):
        ss, shared, ys, designs, hp = five_spot_state
        design = designs[0]
        before = compute_elbo(ss.block, shared.block, hp)
        ss.mu = (ss.mu[0] + 0.05 * np.arange(1, design.dim + 1),)
        ss.sigma = (1.3 * ss.sigma[0],)
        ss.refresh_theta_cache()
        self.assert_caches_match(ss, design)
        got = compute_elbo(ss.block, shared.block, hp)
        # From scratch: a state built only from the perturbed (mu, Sigma),
        # whose caches are filled without reading the old ones.
        fresh = copy.copy(ss)
        fresh.w_exp = fresh.c_mu = fresh.beta_sq = None
        fresh.refresh_theta_cache()
        want = compute_elbo(fresh.block, shared.block, hp)
        assert got == want
        assert got != before


class TestHyperparameters:
    def test_gamma2_tiers(self):
        assert Hyperparameters.default(5, 3).gamma2 == 0.01
        assert Hyperparameters.default(4, 3).gamma2 == 0.01
        assert Hyperparameters.default(3, 3).gamma2 == 0.005
        assert Hyperparameters.default(2, 3).gamma2 == 0.001
        assert Hyperparameters.default(1, 3).gamma2 == 0.001

    def test_slab_scale_by_degree(self):
        assert Hyperparameters.default(4, 1).a_slab == (0.08, 0.08)
        assert Hyperparameters.default(4, 2).a_slab == (0.05, 0.05)
        assert Hyperparameters.default(4, 3).a_slab == (0.04, 0.04)
        assert Hyperparameters.default(4, 4).a_slab == (0.03, 0.03)

    def test_validation(self):
        with pytest.raises(ValueError):
            Hyperparameters(gamma2=0.7)
        with pytest.raises(ValueError):
            Hyperparameters(a_phi=-1.0)
        with pytest.raises(ValueError):
            FitOptions(max_iter=0)
