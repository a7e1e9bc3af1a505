"""Whole-fit behavior: convergence, determinism, invariances."""

import copy
import warnings
from dataclasses import replace

import numpy as np
import pytest

from svjoint import engine
from svjoint.engine import (
    CountIndex,
    EngineError,
    FitOptions,
    Hyperparameters,
    _attempt,
    _one_iteration,
    _take,
    compute_elbo,
    fit_gene,
    g_factor,
    init_state,
    update_g,
    update_r,
)
from svjoint.numerics import NumericalError, phi_factor
from svjoint.simulate import SimConfig, generate
from svjoint.special import expit, gammaln, gammaln_digamma
from svjoint.splines import normalize_coords

from conftest import GeneRow, make_design


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


def check_state_invariants(state, shared, ys):
    assert np.all(shared.a_sig > 0) and np.all(shared.b_sig > 0)
    assert np.all(shared.u_inv_a > 0)
    assert np.all((shared.u_alpha >= 0) & (shared.u_alpha <= 1))
    # q(g)'s parameters at the state's current u_r, u_phi and w_exp.
    a_g, b_g = (v[0] for v in g_factor(state.block))
    for m, (spots, y) in enumerate(zip(state.sections, ys)):
        assert np.all(a_g[spots] > 0) and np.all(b_g[spots] > 0)
        assert state.u_phi[m] > 0
        u_r = state.u_r[spots]
        assert np.all((u_r >= 0) & (u_r <= 1))
        assert np.all(u_r[y > 0] == 0.0)
        mu, sigma = state.mu[m], state.sigma[m]
        assert np.all(np.isfinite(mu))
        sym_err = np.abs(sigma - sigma.T).max()
        assert sym_err < 1e-12
        assert np.linalg.eigvalsh(sigma).min() > 0.0
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


class TestCountBlocks:
    """``fit_genes`` checks its per-sample (genes, spots) blocks before any fit starts."""

    @pytest.mark.parametrize("edit, match", [
        (lambda c: c[:2], "same number of genes"),
        (lambda c: c[:, :-1], "one per design row"),
        (lambda c: c.astype(float), "non-negative integers"),
        (lambda c: c - 1, "non-negative integers"),
    ], ids=["genes", "spots", "float", "negative"])
    def test_bad_block_raises_before_fitting(self, monkeypatch, edit, match):
        ds, _, designs = sim_inputs(9, g=3, m=2, grid=(8, 8))
        hp = Hyperparameters.default(2, 3)
        counts = [s.counts[:3] for s in ds.samples]
        counts[1] = edit(counts[1])
        iterations = []
        monkeypatch.setattr(engine, "_one_iteration", lambda *args: iterations.append(args))
        with pytest.raises(ValueError, match=match):
            engine.fit_genes(counts, designs, hp)
        with pytest.raises(ValueError, match=match):
            init_state(counts, designs, hp)
        assert not iterations


class TestExpOverflow:
    def test_overflowing_moment_fails_genes_without_warning(self):
        # A covariate in the thousands overflows E[exp(-C theta)] at init: each
        # gene fails there, and numpy's overflow warning is not raised.
        ds, _ = generate(SimConfig(M=2, grid=(12, 12), G=12, n_sv=2, seed=3))
        designs = [
            make_design(normalize_coords(s.coords),
                        np.column_stack([s.covariates, np.linspace(1501.0, 1645.0, s.n_spots)]), 2)
            for s in ds.samples
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            results = engine.fit_genes(
                [s.counts[:] for s in ds.samples], designs, Hyperparameters.default(2, 2))
        assert len(results) == 12
        for res in results:
            assert res.failure.startswith("init: non-finite exp(-C theta) moment at sample 0")


class TestStateLayout:
    def test_six_per_spot_arrays_and_per_sample_log_y_fact(self):
        # Three genes over two samples of 5 and 9 spots, with zero counts.
        rng = np.random.default_rng(3)
        designs, counts = [], []
        for n in (5, 9):
            coords = np.column_stack([np.linspace(0, 1, n), rng.uniform(size=n)])
            designs.append(make_design(coords, rng.uniform(size=(n, 1)), degree=2))
            counts.append(rng.poisson(3.0, size=(3, n)) * (rng.random((3, n)) > 0.3))
        assert all((c == 0).any() and (c > 1).any() for c in counts)
        hp = Hyperparameters.default(2, 2)
        state, shared = init_state(counts, designs, hp)
        _one_iteration(state, shared, hp, 1.0)
        per_spot = {name for name, value in vars(state).items()
                    if isinstance(value, np.ndarray) and value.shape == (3, 14)}
        assert per_spot == {"y", "u_r", "e_g", "e_log_g", "w_exp", "c_mu"}
        assert state.log_y_fact.shape == (3, 2)
        np.testing.assert_array_equal(
            state.log_y_fact, state.per_sample_sum(gammaln(state.y + 1.0)))
        np.testing.assert_array_equal(_take(state, [2, 0]).log_y_fact, state.log_y_fact[[2, 0]])


class TestCountIndex:
    """q(g) and q(r) taken at the zero spots and one spot per distinct (gene,
    sample, count) equal the full-width formulas bit for bit."""

    @staticmethod
    def state():
        # Five genes over two samples, with zeros and counts repeated on both
        # sides of the special functions' carry at 8.
        rng = np.random.default_rng(12)
        designs, counts = [], []
        for n in (40, 55):
            coords = np.column_stack([rng.uniform(size=n), rng.uniform(size=n)])
            designs.append(make_design(coords, rng.uniform(size=(n, 1)), degree=2))
            counts.append(rng.integers(0, 14, size=(5, n)) * (rng.random((5, n)) > 0.3))
        hp = Hyperparameters.default(2, 2)
        state, shared = init_state(counts, designs, hp)
        for _ in range(2):
            _one_iteration(state, shared, hp, 1.0)
        return state, shared, hp

    @staticmethod
    def check(state, shared, hp):
        """Every compressed quantity against its full-width formula."""
        y = state.y
        ones = (y > 0).sum()
        assert 0 < ones < y.size and np.unique(y[y > 0]).size < ones
        index = state.index
        assert all(v.dtype == np.int32 and v.ndim == 1 for v in index)
        # Each spot's entry of ``first`` is a spot of the same gene, sample
        # and count, and the zero spots are their own.
        source = index.first[index.spread]
        row, col = np.divmod(np.arange(y.size), y.shape[1])
        assert np.array_equal(source // y.shape[1], row)
        assert np.array_equal(state.owner[source % y.shape[1]], state.owner[col])
        assert np.array_equal(y.take(source), y.reshape(-1))
        assert np.array_equal(np.sort(index.zeros), np.flatnonzero(y == 0))
        np.testing.assert_array_equal(state.log_y_fact, state.per_sample_sum(gammaln(y + 1.0)))

        update_g(state)
        a, b = g_factor(state)
        assert (a[y > 0] < 8.0).any() and (a[y > 0] > 8.0).any()
        log_b = np.log(b)
        lgamma_a, psi_a = gammaln_digamma(a)
        e_log_g = psi_a - log_b
        np.testing.assert_array_equal(state.e_log_g, e_log_g)
        np.testing.assert_array_equal(
            state.ent_g,
            -state.per_sample_sum(a * log_b - lgamma_a + (a - 1.0) * e_log_g - a))

        update_r(state, hp)
        log_num = engine._log_beta_c(hp.a_pi + 1.0, hp.b_pi)
        log_alt = engine._log_beta_c(hp.a_pi, hp.b_pi + 1.0)
        prob = np.minimum(expit(log_num - (log_alt - state.e_g)), 1.0 - engine._KAPPA_FLOOR)
        u_r = np.where(y == 0, prob, 0.0)
        np.testing.assert_array_equal(state.u_r, u_r)

        # The ELBO with q(r)'s entropy taken at every spot.
        every = np.arange(y.size, dtype=np.int32)
        full = copy.copy(state)
        full.index = CountIndex(every, every, every)
        np.testing.assert_array_equal(compute_elbo(state, shared, hp),
                                      compute_elbo(full, shared, hp))

    def test_compressed_updates_match_full_width(self):
        state, shared, hp = self.state()
        self.check(state, shared, hp)

    def test_rows_dropped_by_take(self):
        state, shared, hp = self.state()
        rows = [3, 0, 4]
        kept, kept_shared = _take(state, rows), _take(shared, rows)
        np.testing.assert_array_equal(kept.y, state.y[rows])
        self.check(kept, kept_shared, hp)
        _one_iteration(kept, kept_shared, hp, 1.0)
        self.check(_take(kept, [2, 1]), _take(kept_shared, [2, 1]), hp)


def assert_same_values(a, b):
    """Every field of two states is equal, array by array.

    Per-sample tuples and lists are compared item by item, designs by their
    matrices, and the q(phi) factor field by field, its window's (B, M, nodes)
    arrays included.
    """
    assert vars(a).keys() == vars(b).keys()
    for name in vars(a):
        got, want = getattr(a, name), getattr(b, name)
        if name == "sections":
            assert got == want
            continue
        if name == "designs":
            got, want = [d.matrix for d in got], [d.matrix for d in want]
        _assert_same(got, want, name)


def _assert_same(got, want, where):
    if isinstance(want, (tuple, list)):
        assert type(got) is type(want) and len(got) == len(want), where
        for key, got_k, want_k in zip(getattr(want, "_fields", range(len(want))), got, want):
            _assert_same(got_k, want_k, f"{where}.{key}")
    else:
        np.testing.assert_array_equal(got, want, err_msg=where)


class TestRetry:
    K = 3  # the iteration made to fail

    @staticmethod
    def inputs():
        ds, _, designs = sim_inputs(5, m=2, grid=(8, 8))
        return [s.counts[0] for s in ds.samples], designs, Hyperparameters.default(2, 3)

    def test_shallow_copy_is_a_snapshot(self):
        # The retry snapshot is a shallow copy of each state: no update may
        # write into an object that the live state shares with the copy,
        # q(phi) windows included.
        ys, designs, hp = self.inputs()
        state, shared = init_state([y[None] for y in ys], designs, hp)
        shallow = copy.copy(state), copy.copy(shared)
        deep = copy.deepcopy(shallow)
        _one_iteration(state, shared, hp, 1.0)
        compute_elbo(state, shared, hp)
        assert state.phi_cache is not None
        for got, want in zip(shallow, deep):
            assert_same_values(got, want)

    def test_second_failure_returns_last_completed_iteration(self, monkeypatch):
        ys, designs, hp = self.inputs()
        clean = fit_gene(ys, designs, hp, FitOptions(max_iter=self.K - 1, elbo_tol=1e-12))
        assert clean.iterations == self.K - 1
        real = engine._one_iteration
        dampings = []

        def failing(state, shared, hp, damping):
            # Iteration K and its retry run every update, writing into the
            # state, and then fail.
            real(state, shared, hp, damping)
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

        def spy_iteration(state, shared, hp, damping):
            entries.append(copy.deepcopy((state, shared)))
            real_iteration(state, shared, hp, damping)

        def spy_theta(state, beta_prec, hp, damping):
            thetas.append((damping, copy.deepcopy(state)))
            real_theta(state, beta_prec, hp, damping)

        def flaky_elbo(state, shared, hp):
            # Fails once, after every update of iteration K has run.
            elbo_calls.append(None)
            if len(elbo_calls) == self.K:
                raise EngineError("injected")
            return real_elbo(state, shared, hp)

        monkeypatch.setattr(engine, "_one_iteration", spy_iteration)
        monkeypatch.setattr(engine, "update_theta", spy_theta)
        monkeypatch.setattr(engine, "compute_elbo", flaky_elbo)
        res = fit_gene(ys, designs, hp, FitOptions(max_iter=self.K + 1, elbo_tol=1e-12))
        assert res.failure is None and res.iterations == self.K + 1
        # Attempt K (index K - 1) failed; attempt K + 1 is its retry.
        (before_state, before_shared), (retry_state, retry_shared) = entries[self.K - 1:self.K + 1]
        failed_damping, _ = thetas[self.K - 1]
        retry_damping, retry_first = thetas[self.K]
        assert (failed_damping, retry_damping) == (1.0, 0.5)
        assert_same_values(retry_first, before_state)
        assert_same_values(retry_state, before_state)
        assert_same_values(retry_shared, before_shared)


class TestInvariantsEveryIteration:
    def test_invariants_hold_throughout(self):
        ds, _, designs = sim_inputs(10, g=2, n_sv=1, grid=(8, 8))
        hp = Hyperparameters.default(4, 3)
        for g in range(2):
            ys = [s.counts[g] for s in ds.samples]
            state, shared = init_state([y[None] for y in ys], designs, hp)
            for _ in range(25):
                _one_iteration(state, shared, hp, 1.0)
                check_state_invariants(GeneRow(state), GeneRow(shared), ys)


class TestPermutationInvariance:
    @staticmethod
    def check_permutation(perm, unequal=False):
        # Sample m of the permuted fit is sample perm[m] of the original one.
        # With ``unequal``, sample i keeps only its first 64 - 9 i spots.
        m = len(perm)
        ds, _, designs = sim_inputs(11, m=m, grid=(8, 8))
        hp = Hyperparameters.default(m, 3)
        ys = [s.counts[0] for s in ds.samples]
        if unequal:
            keep = [slice(0, 64 - 9 * i) for i in range(m)]
            ys = [y[k] for y, k in zip(ys, keep)]
            designs = [replace(d, matrix=d.matrix[k]) for d, k in zip(designs, keep)]
        opts = FitOptions(max_iter=400, elbo_tol=1e-9)
        fwd = fit_gene(ys, designs, hp, opts)
        rev = fit_gene([ys[i] for i in perm], [designs[i] for i in perm], hp, opts)
        assert abs(fwd.e_u[0] - rev.e_u[0]) < 1e-10
        assert abs(fwd.e_u[1] - rev.e_u[1]) < 1e-10
        np.testing.assert_allclose(fwd.alpha[list(perm)], rev.alpha, atol=1e-10)

    def test_two_sample_swap(self):
        self.check_permutation((1, 0))

    def test_four_sample_cycle(self):
        self.check_permutation((1, 2, 3, 0))

    def test_two_sample_swap_unequal_spots(self):
        self.check_permutation((1, 0), unequal=True)

    def test_four_sample_cycle_unequal_spots(self):
        self.check_permutation((1, 2, 3, 0), unequal=True)


class TestElboAgainstIterations:
    def test_elbo_recomputable_after_iterations(self):
        ds, _, designs = sim_inputs(12, grid=(8, 8))
        hp = Hyperparameters.default(4, 3)
        ys = [s.counts[0] for s in ds.samples]
        state, shared = init_state([y[None] for y in ys], designs, hp)
        vals = []
        for _ in range(10):
            _one_iteration(state, shared, hp, 1.0)
            vals.append(compute_elbo(state, shared, hp))
        assert np.all(np.isfinite(vals))
        # After the first few moves the objective should improve overall.
        assert vals[-1] > vals[0]


def assert_results_agree(got, want, rtol=1e-10):
    """Same iterations, convergence and failure; floats within ``rtol`` relative."""
    assert (got.iterations, got.converged, got.failure) == (
        want.iterations, want.converged, want.failure)
    np.testing.assert_allclose(got.e_u, want.e_u, rtol=rtol, atol=0)
    np.testing.assert_allclose(got.alpha, want.alpha, rtol=rtol, atol=0)
    np.testing.assert_allclose(got.elbo_trace, want.elbo_trace, rtol=rtol, atol=0)


class TestFitGenes:
    """A block fit against one fit per gene."""

    @staticmethod
    def inputs():
        # Seven genes, three of them SV; three sections that differ in spot
        # count (144, 130, 116) and covariate count (1, 0, 2).
        ds, truth, designs = sim_inputs(17, g=7, n_sv=3, m=3, grid=(12, 12))
        rng = np.random.default_rng(3)
        keep = [slice(0, 144 - 14 * m) for m in range(3)]
        cut = []
        for m, (n_cov, k) in enumerate(zip((1, 0, 2), keep)):
            covs = rng.uniform(size=(144, n_cov))
            coords = normalize_coords(ds.samples[m].coords)
            cut.append(make_design(coords[k], covs[k], 3))
        gene_ys = [[s.counts[g][k] for s, k in zip(ds.samples, keep)] for g in range(7)]
        return gene_ys, cut, Hyperparameters.default(3, 3)

    def test_block_matches_one_gene_fits(self):
        gene_ys, designs, hp = self.inputs()
        assert [d.dim for d in designs] == [8, 7, 9]
        solo = [fit_gene(ys, designs, hp) for ys in gene_ys]
        assert len({r.iterations for r in solo}) > 1  # genes leave the block at different times
        assert max(max(r.e_u) for r in solo) > 0.9 and min(max(r.e_u) for r in solo) < 0.5
        # Blocks of 3 leave a last block of one gene.
        block = []
        for start in range(0, len(gene_ys), 3):
            counts = [np.stack(c) for c in zip(*gene_ys[start:start + 3])]
            block += engine.fit_genes(counts, designs, hp)
        for got, want in zip(block, solo, strict=True):
            assert_results_agree(got, want)

    @pytest.mark.parametrize("n_spots, block", [
        (100, 32), (768, 32), (4_607, 8), (4_608, 8), (5_121, 7), (12_288, 3), (20_480, 2),
        (20_481, 1), (24_576, 1), (24_577, 1),
    ])
    def test_block_size(self, n_spots, block):
        assert engine.block_size(n_spots) == block

    def test_block_above_sixteen_genes_matches_one_gene_fits(self):
        # Twenty genes, four of them SV, in one block of the largest size
        # detect cuts.
        ds, _, designs = sim_inputs(11, g=20, n_sv=4, m=3, grid=(10, 10))
        hp = Hyperparameters.default(3, 3)
        gene_ys = [[s.counts[g] for s in ds.samples] for g in range(20)]
        assert engine.block_size(sum(s.n_spots for s in ds.samples)) >= 20
        block = engine.fit_genes([np.stack(c) for c in zip(*gene_ys)], designs, hp)
        for ys, got in zip(gene_ys, block, strict=True):
            assert_results_agree(got, fit_gene(ys, designs, hp))

    @staticmethod
    def fail_gene_at(monkeypatch, gene_ys, failing):
        """Make ``update_theta`` fail genes on given attempts: ``failing`` is {gene: attempts}.

        Attempts count each gene's own theta steps.  Returns {gene: the
        damping of each of its theta steps, in order}.
        """
        real = engine.update_theta
        targets = {g: np.concatenate(gene_ys[g]) for g in failing}
        dampings = {g: [] for g in failing}

        def flaky(state, beta_prec, hp, damping=1.0):
            real(state, beta_prec, hp, damping)
            damping = np.broadcast_to(damping, (len(state.y),))
            injected = {}
            for g, target in targets.items():
                rows = np.flatnonzero((state.y == target).all(axis=1))
                if rows.size:
                    row = int(rows[0])
                    dampings[g].append(float(damping[row]))
                    if len(dampings[g]) in failing[g]:
                        injected[row] = "injected"
            if injected:
                raise EngineError("injected", injected)

        monkeypatch.setattr(engine, "update_theta", flaky)
        return dampings

    @pytest.mark.parametrize("failing", [{2: (3,)}, {2: (3, 4)}, {2: (3,), 4: (3, 4)}],
                             ids=["retried", "failed", "retried-and-failed"])
    def test_one_gene_fails_inside_a_block(self, monkeypatch, failing):
        # In the third case two genes of the block fail in the same
        # iteration, and one of them fails its retry too.
        gene_ys, designs, hp = self.inputs()
        opts = FitOptions(elbo_tol=1e-6)
        clean = [fit_gene(ys, designs, hp, opts) for ys in gene_ys]
        dampings = self.fail_gene_at(monkeypatch, gene_ys, failing)
        solo, solo_dampings = {}, {}
        for target in failing:
            solo[target] = fit_gene(gene_ys[target], designs, hp, opts)
            solo_dampings[target] = dampings[target][:]
            dampings[target].clear()
        block = engine.fit_genes([np.stack(c) for c in zip(*gene_ys)], designs, hp, opts)
        for target, attempts in failing.items():
            assert solo_dampings[target][:4] == [1.0, 1.0, 1.0, 0.5]
            assert_results_agree(block[target], solo[target])
            if len(attempts) == 2:
                assert solo[target].failure == "iteration 3: injected"
                assert solo[target].iterations == 2
            else:
                assert solo[target].failure is None
                assert solo[target].iterations != clean[target].iterations
        if len(failing) == 1:
            # A block that drops no other gene runs the target's steps as its solo fit.
            assert dampings == solo_dampings
        for g, (got, want) in enumerate(zip(block, clean)):
            if g not in failing:
                assert_results_agree(got, want)

    def test_one_q_phi_row_fails_its_gene_alone(self):
        # Shift E[log g] on gene 1's sample-1 spots so that its c1 falls to
        # about N_pi / 2: that q(phi) diverges, at full and at half damping.
        # The iteration and its rerun fail gene 1 alone, with the message its
        # factor raises on its own after the half-damped theta step, and the
        # other genes get the state of a block that never held it.
        gene_ys, designs, hp = self.inputs()
        state, shared = init_state([np.stack(c) for c in zip(*gene_ys[:3])], designs, hp)
        for _ in range(2):
            _one_iteration(state, shared, hp, 1.0)
        spots = state.sections[1]
        kappa = 1.0 - state.u_r[1, spots]
        terms = state.c_mu - state.e_log_g + state.e_g * state.w_exp
        n_pi, c1 = kappa.sum(), hp.b_phi + kappa @ terms[1, spots]
        e_log_g = state.e_log_g.copy()
        e_log_g[1, spots] += (c1 - 0.5 * n_pi) / n_pi
        state.e_log_g = e_log_g
        for damping in (1.0, 0.5):
            # The (N_pi, c1) that update_phi sees, after the theta step.
            probe = copy.copy(state)
            engine.update_theta(probe, engine.beta_prior_precision(shared, hp), hp, damping)
            kappa = 1.0 - probe.u_r
            n_pi = probe.per_sample_sum(kappa)[1, 1]
            terms = probe.c_mu - probe.e_log_g + probe.e_g * probe.w_exp
            c1 = hp.b_phi + np.einsum("bi,bi->b", kappa[:, spots], terms[:, spots])[1]
            assert c1 < n_pi
            with pytest.raises(NumericalError) as alone:
                phi_factor(hp.a_phi, n_pi, c1)
            assert str(alone.value).startswith("q(phi) not normalizable")

        dampings = np.ones(3)
        new_state, new_shared, elbo, rows, failures = _attempt(state, shared, hp, dampings)
        assert failures == {1: str(alone.value)}
        assert dampings.tolist() == [1.0, 0.5, 1.0]
        assert rows.tolist() == [0, 2]
        without = _attempt(_take(state, [0, 2]), _take(shared, [0, 2]), hp, np.ones(2))
        assert without[3].tolist() == [0, 1] and not without[4]
        assert_same_values(new_state, without[0])
        assert_same_values(new_shared, without[1])
        np.testing.assert_array_equal(elbo, without[2])
