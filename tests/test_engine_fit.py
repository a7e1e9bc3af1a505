"""Whole-fit behavior: convergence, determinism, invariances."""

import copy

import numpy as np
import pytest

from svjoint import engine
from svjoint.engine import (
    EngineError,
    FitOptions,
    Hyperparameters,
    _one_iteration,
    compute_elbo,
    fit_gene,
    init_state,
)
from svjoint.simulate import SimConfig, generate
from svjoint.splines import normalize_coords

from conftest import make_design


def sim_inputs(seed, n_sv=1, g=2, m=4, grid=(16, 16), dropout=0.3, pattern="linear",
               beta0=None, setting=1):
    cfg = SimConfig(
        M=m, grid=grid, G=g, n_sv=n_sv, pattern=pattern, signal_setting=setting,
        dropout_pi=dropout, seed=seed, beta0_override=beta0,
    )
    ds, truth = generate(cfg)
    designs = []
    for s in ds.samples:
        coords = normalize_coords(s.coords)
        designs.append(make_design(coords, s.covariates, 3))
    return ds, truth, designs


def check_state_invariants(states, shared, ys):
    for ss, y in zip(states, ys):
        assert np.all(ss.a_g > 0) and np.all(ss.b_g > 0)
        assert np.all(ss.a_sig > 0) and np.all(ss.b_sig > 0)
        assert np.all(ss.u_inv_a > 0)
        assert ss.u_phi > 0
        assert np.all((ss.u_r >= 0) & (ss.u_r <= 1))
        assert np.all((ss.u_alpha >= 0) & (ss.u_alpha <= 1))
        assert np.all(ss.u_r[y > 0] == 0.0)
        assert np.all(np.isfinite(ss.mu))
        sym_err = np.abs(ss.sigma - ss.sigma.T).max()
        assert sym_err < 1e-12
        assert np.linalg.eigvalsh(ss.sigma).min() > 0.0
    assert np.all((shared.u_u >= 0) & (shared.u_u <= 1))
    assert np.all(shared.a_p > 0) and np.all(shared.b_p > 0)
    assert np.all(shared.a_q > 0) and np.all(shared.b_q > 0)


class TestFitGene:
    def test_all_zero_gene(self):
        _, _, designs = sim_inputs(0, g=1, n_sv=0, grid=(8, 8))
        ys = [np.zeros(64, dtype=np.int64) for _ in range(4)]
        hp = Hyperparameters.default(4, 3)
        res = fit_gene(ys, designs, hp, FitOptions())
        assert res.converged
        assert res.failure is None
        assert max(res.e_u) < 0.5

    def test_strong_signal_detected(self):
        ds, truth, designs = sim_inputs(3, g=2, n_sv=1)
        hp = Hyperparameters.default(4, 3)
        sv = fit_gene([s.counts[0] for s in ds.samples], designs, hp, FitOptions())
        null = fit_gene([s.counts[1] for s in ds.samples], designs, hp, FitOptions())
        assert max(sv.e_u) > 0.9
        assert max(null.e_u) < 0.5

    def test_deterministic_trace(self):
        ds, _, designs = sim_inputs(5)
        hp = Hyperparameters.default(4, 3)
        ys = [s.counts[0] for s in ds.samples]
        a = fit_gene(ys, designs, hp, FitOptions())
        b = fit_gene(ys, designs, hp, FitOptions())
        assert a.elbo_trace == b.elbo_trace
        assert a.e_u == b.e_u

    def test_elbo_trace_finite_and_converges(self):
        ds, _, designs = sim_inputs(6)
        hp = Hyperparameters.default(4, 3)
        res = fit_gene([s.counts[0] for s in ds.samples], designs, hp, FitOptions())
        assert res.converged
        assert np.all(np.isfinite(res.elbo_trace))
        assert abs(res.elbo_trace[-1] - res.elbo_trace[-2]) < 1e-2

    def test_longer_run_does_not_lose_elbo(self):
        ds, _, designs = sim_inputs(7)
        hp = Hyperparameters.default(4, 3)
        ys = [s.counts[0] for s in ds.samples]
        short = fit_gene(ys, designs, hp, FitOptions(max_iter=5, elbo_tol=1e-12))
        long = fit_gene(ys, designs, hp, FitOptions(max_iter=50, elbo_tol=1e-12))
        assert long.elbo_trace[-1] >= short.elbo_trace[-1] - 1e-3

    def test_alpha_shape_and_range(self):
        ds, _, designs = sim_inputs(8, m=3)
        hp = Hyperparameters.default(3, 3)
        res = fit_gene([s.counts[0] for s in ds.samples], designs, hp, FitOptions())
        assert res.alpha.shape == (3, 2)
        assert np.all((res.alpha >= 0) & (res.alpha <= 1))

    def test_dimension_mismatch(self):
        ds, _, designs = sim_inputs(9)
        hp = Hyperparameters.default(4, 3)
        with pytest.raises(ValueError):
            fit_gene([s.counts[0][:-1] for s in ds.samples], designs, hp, FitOptions())

    def test_init_failure_is_a_failed_gene(self):
        # A covariate near 2000 (a library size) overflows E[exp(-C theta)]
        # at the initial state; the gene fails on its own, unselectable.
        ds, _, _ = sim_inputs(13, g=1, m=2, grid=(8, 8))
        designs = []
        for m, s in enumerate(ds.samples):
            covs = s.covariates
            if m == 0:
                covs = np.column_stack([covs, np.full(covs.shape[0], 2000.0)])
            designs.append(make_design(normalize_coords(s.coords), covs, 3))
        hp = Hyperparameters.default(2, 3)
        with np.errstate(over="ignore"):
            res = fit_gene([s.counts[0] for s in ds.samples], designs, hp, FitOptions())
        assert res.failure.startswith("init: ")
        assert not res.converged
        assert res.iterations == 0 and res.elbo_trace == []
        assert res.e_u == (0.0, 0.0)
        assert res.alpha.shape == (2, 2)

    def test_bad_counts_still_raise(self):
        ds, _, designs = sim_inputs(9)
        hp = Hyperparameters.default(4, 3)
        ys = [s.counts[0].astype(float) + 0.5 for s in ds.samples]
        with pytest.raises(ValueError, match="non-negative integers"):
            fit_gene(ys, designs, hp, FitOptions())


def assert_same_values(a, b):
    """Every field of two states is equal, array by array.

    The q(phi) node cache is shared by a state and its retry snapshot and
    only decides where the quadrature nodes sit, so it is not compared.
    """
    assert vars(a).keys() == vars(b).keys()
    for name in vars(a):
        if name == "phi_quad":
            continue
        got, want = getattr(a, name), getattr(b, name)
        if name == "design":
            got, want = got.matrix, want.matrix
        np.testing.assert_array_equal(got, want, err_msg=name)


class TestRetry:
    K = 3  # the iteration made to fail

    @staticmethod
    def inputs():
        ds, _, designs = sim_inputs(5, m=2, grid=(8, 8))
        return [s.counts[0] for s in ds.samples], designs, Hyperparameters.default(2, 3)

    def test_second_failure_returns_last_completed_iteration(self, monkeypatch):
        ys, designs, hp = self.inputs()
        clean = fit_gene(ys, designs, hp, FitOptions(max_iter=self.K - 1, elbo_tol=1e-12))
        assert clean.iterations == self.K - 1
        real = engine._one_iteration
        dampings = []

        def failing(states, shared, hp, damping):
            # Iteration K and its retry run every update, writing into the
            # state, and then fail.
            real(states, shared, hp, damping)
            dampings.append(damping)
            if len(dampings) in (self.K, self.K + 1):
                raise EngineError("injected")

        monkeypatch.setattr(engine, "_one_iteration", failing)
        res = fit_gene(ys, designs, hp, FitOptions(elbo_tol=1e-12))
        assert dampings == [1.0] * self.K + [0.5]
        assert res.failure == f"iteration {self.K}: injected"
        assert not res.converged
        assert res.iterations == self.K - 1
        assert res.elbo_trace == clean.elbo_trace
        assert res.e_u == clean.e_u
        np.testing.assert_array_equal(res.alpha, clean.alpha)

    def test_retry_starts_from_pre_attempt_state(self, monkeypatch):
        ys, designs, hp = self.inputs()
        real_iteration, real_theta, real_elbo = (
            engine._one_iteration, engine.update_theta, engine.compute_elbo)
        entries, thetas, elbo_calls = [], [], []

        def spy_iteration(states, shared, hp, damping):
            entries.append(copy.deepcopy((states, shared)))
            real_iteration(states, shared, hp, damping)

        def spy_theta(ss, hp, damping):
            thetas.append((damping, copy.deepcopy(ss)))
            real_theta(ss, hp, damping)

        def flaky_elbo(states, shared, hp):
            # Fails once, after every update of iteration K has run.
            elbo_calls.append(None)
            if len(elbo_calls) == self.K:
                raise EngineError("injected")
            return real_elbo(states, shared, hp)

        monkeypatch.setattr(engine, "_one_iteration", spy_iteration)
        monkeypatch.setattr(engine, "update_theta", spy_theta)
        monkeypatch.setattr(engine, "compute_elbo", flaky_elbo)
        res = fit_gene(ys, designs, hp, FitOptions(max_iter=self.K + 1, elbo_tol=1e-12))
        assert res.failure is None and res.iterations == self.K + 1
        # Attempt K (index K - 1) failed; attempt K + 1 is its retry.
        (before_states, before_shared), (retry_states, retry_shared) = entries[self.K - 1:self.K + 1]
        m = len(ys)
        failed_damping, _ = thetas[(self.K - 1) * m]
        retry_damping, retry_first = thetas[self.K * m]
        assert (failed_damping, retry_damping) == (1.0, 0.5)
        assert_same_values(retry_first, before_states[0])
        for got, want in zip(retry_states, before_states):
            assert_same_values(got, want)
        assert_same_values(retry_shared, before_shared)


class TestInvariantsEveryIteration:
    def test_invariants_hold_throughout(self):
        ds, _, designs = sim_inputs(10, g=2, n_sv=1, grid=(8, 8))
        hp = Hyperparameters.default(4, 3)
        for g in range(2):
            ys = [s.counts[g] for s in ds.samples]
            states, shared = init_state(ys, designs, hp)
            for _ in range(25):
                _one_iteration(states, shared, hp, 1.0)
                check_state_invariants(states, shared, ys)


class TestPermutationInvariance:
    def test_two_sample_swap(self):
        ds, _, designs = sim_inputs(11, m=2, grid=(8, 8))
        hp = Hyperparameters.default(2, 3)
        ys = [s.counts[0] for s in ds.samples]
        opts = FitOptions(max_iter=400, elbo_tol=1e-9)
        fwd = fit_gene(ys, designs, hp, opts)
        rev = fit_gene(ys[::-1], designs[::-1], hp, opts)
        assert abs(fwd.e_u[0] - rev.e_u[0]) < 1e-10
        assert abs(fwd.e_u[1] - rev.e_u[1]) < 1e-10
        np.testing.assert_allclose(fwd.alpha, rev.alpha[::-1], atol=1e-10)


class TestElboAgainstIterations:
    def test_elbo_recomputable_after_iterations(self):
        ds, _, designs = sim_inputs(12, grid=(8, 8))
        hp = Hyperparameters.default(4, 3)
        ys = [s.counts[0] for s in ds.samples]
        states, shared = init_state(ys, designs, hp)
        vals = []
        for _ in range(10):
            _one_iteration(states, shared, hp, 1.0)
            vals.append(compute_elbo(states, shared, hp))
        assert np.all(np.isfinite(vals))
        # After the first few moves the objective should improve overall.
        assert vals[-1] > vals[0]
