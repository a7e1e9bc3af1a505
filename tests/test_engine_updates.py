"""Single-update checks against hand-derived values and closed forms."""

import math

import numpy as np
import pytest
from scipy.special import digamma as psi
from scipy.special import expit

from svjoint import engine
from svjoint.engine import (
    EngineError,
    FitOptions,
    Hyperparameters,
    _one_iteration,
    alpha_logit,
    compute_elbo,
    init_state,
    m_prior_diag,
    u_logit,
    update_a,
    update_g,
    update_p,
    update_phi,
    update_q,
    update_r,
    update_sigma,
    update_theta,
)

from conftest import make_design


def single_state(y, degree=1, j_cov=1, hp=None, n=None):
    y = np.asarray(y, dtype=np.int64)
    n = y.size if n is None else n
    rng = np.random.default_rng(0)
    coords = np.column_stack([np.linspace(0, 1, n), np.linspace(0, 1, n)])
    covs = rng.uniform(size=(n, j_cov))
    design = make_design(coords, covs, degree)
    hp = hp or Hyperparameters.default(1, degree)
    states, shared = init_state([y], [design], hp)
    return states[0], shared, design, hp


class TestInitState:
    def test_all_zero_gene_intercept(self):
        ss, _, _, _ = single_state([0, 0, 0])
        assert ss.mu[0] == pytest.approx(math.log(0.01))

    def test_unit_mean_intercept(self):
        ss, _, _, _ = single_state([1, 1, 1])
        assert ss.mu[0] == pytest.approx(math.log(1.01))

    def test_structural_zero_indicator(self):
        ss, _, _, _ = single_state([0, 4, 0])
        np.testing.assert_array_equal(ss.u_r, [0.5, 0.0, 0.5])

    def test_symmetric_gates(self):
        ss, shared, _, _ = single_state([1, 2, 3])
        assert np.all(ss.u_alpha == 0.5)
        assert np.all(shared.u_u == 0.5)
        np.testing.assert_allclose(ss.a_sig, 0.5)
        np.testing.assert_allclose(ss.b_sig, 1.0)

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            single_state([-1, 0, 2])


class TestUpdateG:
    def test_hand_substitution(self):
        ss, _, design, _ = single_state([3])
        ss.u_phi = 2.0
        ss.u_r = np.array([0.0])
        ss.mu = np.zeros(design.dim)
        ss.sigma = np.zeros((design.dim, design.dim))
        ss.refresh_theta_cache()
        update_g(ss)
        assert ss.a_g[0] == pytest.approx(5.0)
        assert ss.b_g[0] == pytest.approx(3.0)
        assert ss.e_g[0] == pytest.approx(5.0 / 3.0)

    def test_dropout_decoupling(self):
        ss, _, design, _ = single_state([0])
        ss.u_phi = 2.0
        ss.u_r = np.array([1.0])
        ss.mu = np.zeros(design.dim)
        ss.sigma = np.zeros((design.dim, design.dim))
        ss.refresh_theta_cache()
        update_g(ss)
        assert abs(ss.a_g[0] - 1.0) < 1e-7
        assert ss.b_g[0] > 0.0

    def test_zero_count_unit_phi(self):
        ss, _, design, _ = single_state([0])
        ss.u_phi = 1.0
        ss.u_r = np.array([0.0])
        ss.mu = np.zeros(design.dim)
        ss.sigma = np.zeros((design.dim, design.dim))
        ss.refresh_theta_cache()
        update_g(ss)
        assert ss.a_g[0] == pytest.approx(1.0)
        assert ss.b_g[0] == pytest.approx(2.0)


class TestUpdateR:
    def test_symmetric_at_zero_rate(self):
        ss, _, design, hp = single_state([0])
        ss.e_g = np.array([0.0])
        update_r(ss, hp)
        assert ss.u_r[0] == pytest.approx(0.5)

    def test_positive_count_structural(self):
        ss, _, design, hp = single_state([4])
        update_r(ss, hp)
        assert ss.u_r[0] == 0.0

    def test_log_two_rate(self):
        ss, _, design, hp = single_state([0])
        ss.e_g = np.array([math.log(2.0)])
        update_r(ss, hp)
        assert ss.u_r[0] == pytest.approx(2.0 / 3.0, rel=1e-12)


class TestUpdatePhi:
    def test_all_dropout_reduces_to_prior_mean(self):
        ss, _, design, hp = single_state([0, 0])
        ss.u_r = np.array([1.0, 1.0])
        update_phi(ss, hp)
        assert ss.n_pi == 0.0
        assert ss.c1 == pytest.approx(hp.b_phi)
        assert ss.u_phi == pytest.approx(hp.a_phi / hp.b_phi, rel=1e-8)

    def test_c1_two_spot_toy(self):
        ss, _, design, hp = single_state([1, 1])
        ss.u_r = np.zeros(2)
        ss.e_log_g = np.zeros(2)
        ss.a_g = np.ones(2)
        ss.b_g = np.ones(2)
        ss.e_g = np.ones(2)
        ss.mu = np.zeros(design.dim)
        ss.sigma = np.zeros((design.dim, design.dim))
        ss.refresh_theta_cache()
        update_phi(ss, hp)
        assert ss.c1 == pytest.approx(0.001 + 2.0, rel=1e-12)

    def test_negative_c1_rejected(self):
        ss, _, design, hp = single_state([1, 1])
        # Impossible moments (E log g far above log E g) force c1 <= 0.
        ss.u_r = np.zeros(2)
        ss.e_log_g = np.full(2, 50.0)
        ss.e_g = np.full(2, 1e-8)
        ss.mu = np.zeros(design.dim)
        ss.sigma = np.zeros((design.dim, design.dim))
        ss.refresh_theta_cache()
        with pytest.raises(EngineError, match="c1"):
            update_phi(ss, hp)


class TestUpdateSigma:
    def test_spike_drops_beta_term(self):
        ss, _, design, hp = single_state([1, 2, 3])
        ss.u_alpha[0] = 0.0
        ss.u_inv_a[0] = 0.7
        update_sigma(ss, 0)
        assert ss.a_sig[0] == pytest.approx(0.5)
        assert ss.b_sig[0] == pytest.approx(0.7)

    def test_slab_substitution(self):
        ss, _, design, hp = single_state([1, 2, 3], degree=2)
        blk = design.beta_slice(0)
        ss.mu = np.zeros(design.dim)
        ss.mu[blk] = [2.0, 0.0]  # |mu|^2 = 4
        ss.sigma = np.zeros((design.dim, design.dim))
        ss.refresh_theta_cache()
        ss.u_alpha[0] = 1.0
        ss.u_inv_a[0] = 1.0
        update_sigma(ss, 0)
        assert ss.a_sig[0] == pytest.approx(1.5)
        assert ss.b_sig[0] == pytest.approx(3.0)
        assert ss.e_inv_sigma2(0) == pytest.approx(0.5)

    def test_slab_zero_beta(self):
        ss, _, design, hp = single_state([1, 2, 3], degree=2)
        ss.mu = np.zeros(design.dim)
        ss.sigma = np.zeros((design.dim, design.dim))
        ss.refresh_theta_cache()
        ss.u_alpha[0] = 1.0
        ss.u_inv_a[0] = 2.0
        update_sigma(ss, 0)
        assert ss.a_sig[0] == pytest.approx(1.5)
        assert ss.b_sig[0] == pytest.approx(2.0)


class TestUpdateA:
    def test_substitution(self):
        hp = Hyperparameters.default(1, 1, gamma2=0.01)
        hp = Hyperparameters(**{**hp.__dict__, "a_slab": (0.5, 0.5)})
        ss, _, design, _ = single_state([1, 2], hp=hp)
        ss.a_sig[0], ss.b_sig[0] = 9.0, 1.0
        update_a(ss, 0, hp)
        assert ss.u_inv_a[0] == pytest.approx(1.0 / 13.0)

    def test_vanishing_precision_limit(self):
        hp = Hyperparameters(a_slab=(1.0, 1.0))
        ss, _, design, _ = single_state([1, 2], hp=hp)
        ss.a_sig[0], ss.b_sig[0] = 1e-14, 1.0
        update_a(ss, 0, hp)
        assert ss.u_inv_a[0] == pytest.approx(1.0, rel=1e-10)

    def test_wide_slab_limit(self):
        hp = Hyperparameters(a_slab=(1e9, 1e9))
        ss, _, design, _ = single_state([1, 2], hp=hp)
        ss.a_sig[0], ss.b_sig[0] = 2.0, 1.0
        update_a(ss, 0, hp)
        assert ss.u_inv_a[0] == pytest.approx(0.5, rel=1e-10)


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
        update_p(shared, 0, hp)
        assert shared.a_p[0] == pytest.approx(1.2)
        assert shared.b_p[0] == pytest.approx(1.8)
        assert shared.a_p[0] / (shared.a_p[0] + shared.b_p[0]) == pytest.approx(0.4)

    def test_p_gate_closed(self):
        hp = Hyperparameters()
        _, shared, _, _ = single_state([1, 2], hp=hp)
        shared.u_u[0] = 0.0
        update_p(shared, 0, hp)
        assert shared.a_p[0] == pytest.approx(0.2)
        assert shared.b_p[0] == pytest.approx(2.8)
        assert shared.a_p[0] / (shared.a_p[0] + shared.b_p[0]) == pytest.approx(1.0 / 15.0)

    def test_p_symmetric(self):
        hp = Hyperparameters(c_p=1.0, d_p=1.0)
        _, shared, _, _ = single_state([1, 2], hp=hp)
        shared.u_u[0] = 0.5
        update_p(shared, 0, hp)
        assert shared.a_p[0] == pytest.approx(1.5)
        assert shared.b_p[0] == pytest.approx(1.5)

    def test_q_gate_closed_returns_prior(self):
        hp = Hyperparameters()
        ss, shared, design, _ = single_state([1, 2], hp=hp)
        shared.u_u[0] = 0.0
        ss.u_alpha[0] = 0.9
        update_q(shared, [ss], 0, hp)
        assert shared.a_q[0] == pytest.approx(hp.c_q)
        assert shared.b_q[0] == pytest.approx(hp.d_q)

    def test_q_substitution_four_samples(self):
        hp = Hyperparameters(c_q=1.0, d_q=1.0)
        states = []
        for ua in (1.0, 1.0, 1.0, 0.0):
            ss, shared, design, _ = single_state([1, 2], hp=hp)
            ss.u_alpha[0] = ua
            states.append(ss)
        shared.u_u[0] = 1.0
        update_q(shared, states, 0, hp)
        assert shared.a_q[0] == pytest.approx(4.0)
        assert shared.b_q[0] == pytest.approx(2.0)

    def test_q_all_off(self):
        hp = Hyperparameters(c_q=1.0, d_q=1.0)
        states = []
        for _ in range(3):
            ss, shared, design, _ = single_state([1, 2], hp=hp)
            ss.u_alpha[0] = 0.0
            states.append(ss)
        shared.u_u[0] = 1.0
        update_q(shared, states, 0, hp)
        assert shared.a_q[0] == pytest.approx(hp.c_q)
        assert shared.b_q[0] == pytest.approx(3.0 + hp.d_q)

    def test_moments_fresh_after_every_update(self):
        # update_p/update_q refresh only the axis-k moments of the factor
        # they change; all four arrays must equal a full refresh exactly.
        hp = Hyperparameters.default(3, 1)
        rng = np.random.default_rng(4)
        states = []
        for _ in range(3):
            ss, shared, _, _ = single_state([1, 2, 0], hp=hp)
            states.append(ss)
        names = ("e_log_p", "e_log_1mp", "e_log_q", "e_log_1mq")
        for _ in range(5):
            shared.u_u[:] = rng.uniform(size=2)
            for ss in states:
                ss.u_alpha[:] = rng.uniform(size=2)
            for k in (0, 1):
                for update in (lambda: update_q(shared, states, k, hp),
                               lambda: update_p(shared, k, hp)):
                    update()
                    fresh = shared.clone()
                    fresh.refresh_moments()
                    for name in names:
                        np.testing.assert_array_equal(getattr(shared, name), getattr(fresh, name))


class TestUpdateTheta:
    def test_no_data_collapses_to_prior(self):
        ss, shared, design, hp = single_state([0, 0, 0, 0])
        ss.u_r = np.ones(4)
        ss.mu = np.array([0.5, -0.3, 0.2, 0.1])
        update_theta(ss, hp, damping=1.0)
        m_prior = m_prior_diag(ss, hp)
        np.testing.assert_allclose(ss.mu, 0.0, atol=1e-12)
        np.testing.assert_allclose(ss.sigma, np.diag(1.0 / m_prior), atol=1e-12)

    def test_dimensions(self):
        ss, _, design, hp = single_state([1] * 10, degree=3, j_cov=2, n=10)
        update_theta(ss, hp)
        assert ss.sigma.shape == (9, 9)

    def test_covariance_positive_definite(self, five_spot_state):
        states, shared, ys, designs, hp = five_spot_state
        update_theta(states[0], hp)
        assert np.linalg.eigvalsh(states[0].sigma).min() > 0.0

    @staticmethod
    def expected_precision(ss, design, hp):
        # P = u_phi C' diag[(1 - u_r) E[g] E[exp(-C theta)]] C + M_prior.
        c = design.matrix
        w = (1.0 - ss.u_r) * ss.e_g * ss.w_exp
        return ss.u_phi * (c.T @ np.diag(w) @ c) + np.diag(m_prior_diag(ss, hp))

    def test_sigma_is_inverse_precision(self, five_spot_state):
        states, shared, ys, designs, hp = five_spot_state
        ss, design = states[0], designs[0]
        want = np.linalg.inv(self.expected_precision(ss, design, hp))
        update_theta(ss, hp)
        np.testing.assert_allclose(ss.sigma, want, rtol=0, atol=1e-12 * np.abs(want).max())

    def test_rejected_factorization_retried_once_with_jitter(self, five_spot_state,
                                                              monkeypatch):
        states, shared, ys, designs, hp = five_spot_state
        ss, design = states[0], designs[0]
        prec = self.expected_precision(ss, design, hp)
        real = np.linalg.cholesky
        calls = []

        def reject_first(a):
            calls.append(np.array(a))
            if len(calls) == 1:
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            return real(a)

        monkeypatch.setattr(np.linalg, "cholesky", reject_first)
        update_theta(ss, hp)
        assert len(calls) == 2
        np.testing.assert_array_equal(calls[1], calls[0] + engine._JITTER * np.eye(design.dim))
        want = np.linalg.inv(prec + engine._JITTER * np.eye(design.dim))
        np.testing.assert_allclose(ss.sigma, want, rtol=0, atol=1e-12 * np.abs(want).max())

    def test_indefinite_precision_raises_after_one_retry(self, five_spot_state,
                                                         monkeypatch):
        states, shared, ys, designs, hp = five_spot_state
        ss, design = states[0], designs[0]
        ss.u_phi = -1e3  # makes u_phi C' diag[w] C + M_prior indefinite
        real = np.linalg.cholesky
        calls = []

        def counting(a):
            calls.append(a)
            return real(a)

        monkeypatch.setattr(np.linalg, "cholesky", counting)
        with pytest.raises(EngineError, match="not invertible after jitter"):
            update_theta(ss, hp)
        assert len(calls) == 2

    def test_non_finite_precision_raises(self, five_spot_state):
        states, shared, ys, designs, hp = five_spot_state
        states[0].w_exp = np.full_like(states[0].w_exp, np.inf)
        with np.errstate(invalid="ignore"), pytest.raises(EngineError, match="non-finite precision"):
            update_theta(states[0], hp)

    def test_one_moment_evaluation_per_sample(self, five_spot_state, monkeypatch):
        # The step reads the cached E[exp(-C theta)]; only the refresh at the
        # new (mu, Sigma) evaluates it.
        states, shared, ys, designs, hp = five_spot_state
        real = engine.mvn_exp_neg_linear
        calls = []

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(engine, "mvn_exp_neg_linear", counting)
        _one_iteration(states, shared, hp, 1.0)
        assert len(calls) == len(states)


class TestElbo:
    def test_finite_on_fixture(self, five_spot_state):
        states, shared, ys, designs, hp = five_spot_state
        val = compute_elbo(states, shared, hp)
        assert math.isfinite(val)

    def test_requires_phi_cache(self):
        ss, shared, design, hp = single_state([1, 2])
        ss.phi_cache = None
        with pytest.raises(EngineError, match="phi factor cache"):
            compute_elbo([ss], shared, hp)


class TestThetaCaches:
    @staticmethod
    def assert_caches_match(ss, design):
        # Every cached function of (mu, Sigma), recomputed from first principles.
        c = design.matrix
        quad = np.array([row @ ss.sigma @ row for row in c])
        np.testing.assert_allclose(ss.w_exp, np.exp(-c @ ss.mu + 0.5 * quad), rtol=1e-12)
        np.testing.assert_allclose(ss.c_mu, c @ ss.mu, rtol=1e-12, atol=1e-14)
        for k in (0, 1):
            blk = design.beta_slice(k)
            want = np.sum(ss.mu[blk] ** 2) + np.sum(np.diag(ss.sigma)[blk])
            assert ss.beta_sq[k] == pytest.approx(want, rel=1e-12)

    def test_fresh_after_every_update(self, five_spot_state):
        states, shared, ys, designs, hp = five_spot_state
        for _ in range(3):
            _one_iteration(states, shared, hp, 1.0)
            self.assert_caches_match(states[0], designs[0])

    def test_elbo_after_perturbation_matches_from_scratch(self, five_spot_state):
        states, shared, ys, designs, hp = five_spot_state
        ss, design = states[0], designs[0]
        before = compute_elbo(states, shared, hp)
        ss.mu = ss.mu + 0.05 * np.arange(1, design.dim + 1)
        ss.sigma = 1.3 * ss.sigma
        ss.refresh_theta_cache()
        self.assert_caches_match(ss, design)
        got = compute_elbo(states, shared, hp)
        # From scratch: a state built only from the perturbed (mu, Sigma),
        # whose caches are filled without reading the old ones.
        fresh = ss.clone()
        fresh.w_exp = fresh.c_mu = fresh.beta_sq = None
        fresh.refresh_theta_cache()
        want = compute_elbo([fresh], shared, hp)
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
