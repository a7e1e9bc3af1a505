"""Basis, design-matrix, and degree-selection tests."""

import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import digamma, expit, gammaln

from svjoint import splines
from svjoint.numerics import upper_pairs
from svjoint.simulate import SimConfig, generate
from svjoint.special import gammaln as svjoint_gammaln
from svjoint.splines import (
    BasisSpec,
    eval_basis,
    normalize_coords,
    select_degree,
    zinb_mle,
)

from conftest import make_design


class TestNormalizeCoords:
    def test_affine_endpoints(self):
        coords = np.array([[0.0, 0.0], [16.0, 1.0], [32.0, 2.0]])
        out = normalize_coords(coords)
        np.testing.assert_allclose(out[:, 0], [0.0, 0.5, 1.0])

    def test_degenerate_axis(self):
        coords = np.array([[5.0, 0.0], [5.0, 1.0], [5.0, 2.0]])
        out = normalize_coords(coords)
        np.testing.assert_allclose(out[:, 0], 0.5)

    def test_unit_interval_unchanged(self):
        coords = np.array([[0.0, 0.25], [0.4, 0.5], [1.0, 1.0], [0.2, 0.0]])
        np.testing.assert_allclose(normalize_coords(coords), coords)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            normalize_coords(np.array([[0.0, np.inf], [1.0, 2.0]]))


class TestEvalBasis:
    def test_degree_two_midpoint(self):
        np.testing.assert_allclose(eval_basis(BasisSpec(2), 0.5), [0.5, 0.25])

    def test_zero_boundary(self):
        for d in (1, 2, 3, 4):
            np.testing.assert_allclose(eval_basis(BasisSpec(d), 0.0), np.zeros(d))

    def test_one_boundary_degree_three(self):
        np.testing.assert_allclose(eval_basis(BasisSpec(3), 1.0), [0.0, 0.0, 1.0])

    def test_partition_of_unity(self):
        t = np.linspace(0.0, 1.0, 1001)
        for d in (1, 2, 3, 4):
            vals = eval_basis(BasisSpec(d), t)
            total = vals.sum(axis=1) + (1.0 - t) ** d
            np.testing.assert_allclose(total, 1.0, atol=1e-12)

    def test_range_and_continuity(self):
        step = 1e-3
        t = np.arange(0.0, 1.0 + step / 2, step)
        for d in (1, 2, 3, 4):
            vals = eval_basis(BasisSpec(d), t)
            assert vals.min() >= 0.0 and vals.max() <= 1.0
            jumps = np.abs(np.diff(vals, axis=0)).max()
            assert jumps < 10.0 * step * d

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            eval_basis(BasisSpec(2), 1.1)

    def test_bad_degree(self):
        with pytest.raises(ValueError):
            BasisSpec(5)


class TestBuildDesign:
    def test_dimensions(self):
        rng = np.random.default_rng(0)
        design = make_design(rng.uniform(size=(3, 2)), rng.uniform(size=(3, 1)), degree=2)
        assert design.matrix.shape == (3, 6)
        assert design.dim == 6

    def test_boundary_row(self):
        design = make_design([[0.0, 0.0]], [[7.0]], degree=2)
        np.testing.assert_allclose(design.matrix[0], [1.0, 0.0, 0.0, 0.0, 0.0, 7.0])

    def test_identical_spots_identical_rows(self):
        design = make_design([[0.3, 0.7], [0.3, 0.7]], [[1.0], [1.0]], degree=3)
        np.testing.assert_array_equal(design.matrix[0], design.matrix[1])

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(3)
        coords = rng.uniform(size=(10, 2))
        covs = rng.uniform(size=(10, 2))
        perm = rng.permutation(10)
        a = make_design(coords, covs, degree=3).matrix
        b = make_design(coords[perm], covs[perm], degree=3).matrix
        np.testing.assert_array_equal(a[perm], b)

    def test_block_slices(self):
        design = make_design([[0.1, 0.9]], [[2.0, 3.0]], degree=2)
        assert design.beta_slice(0) == slice(1, 3)
        assert design.beta_slice(1) == slice(3, 5)
        assert design.psi_slice == slice(5, 7)

    def test_requires_normalized(self):
        with pytest.raises(ValueError):
            make_design([[1.5, 0.2]], [[0.0]], degree=1)

    @pytest.mark.parametrize("degree, n_covariates", [(1, 0), (2, 1), (4, 6)])
    def test_pairs_rows_are_column_products(self, degree, n_covariates):
        rng = np.random.default_rng(degree)
        design = make_design(rng.uniform(size=(7, 2)), rng.normal(size=(7, n_covariates)), degree)
        i, j, _ = upper_pairs(design.dim)
        assert design.pairs.shape == (len(i), 7) and design.pairs.flags.c_contiguous
        for k in range(len(i)):
            np.testing.assert_array_equal(
                design.pairs[k], design.matrix[:, i[k]] * design.matrix[:, j[k]])


def _flat_sample(pattern, degree_true, seed, n_side=14, dropout=0.0):
    cfg = SimConfig(
        M=1,
        grid=(n_side, n_side),
        G=10,
        n_sv=10,
        pattern=pattern,
        signal_setting=1,
        dropout_pi=dropout,
        seed=seed,
        n_celltypes=3,
        region_dirichlets=tuple((1.0,) * 3 for _ in range(4)),
    )
    ds, _ = generate(cfg)
    return ds


def _reference_nll_grad(params, y, x, is_zero):
    """Reference for ``splines._ZinbBlock.evaluate``: the same objective and
    parameter layout, with every term evaluated once per spot in the spots'
    input order."""
    zeta, rho = params[0], params[1]
    coef = params[2:]
    pi = expit(zeta)
    phi = math.exp(rho)
    eta = x @ coef
    eta = np.clip(eta, -30.0, 30.0)
    lam = np.exp(eta)
    log_ratio = np.log(phi) - np.log(phi + lam)

    nz = ~is_zero
    y_nz = y[nz]
    lam_nz = lam[nz]
    ll = np.sum(
        gammaln(y_nz + phi)
        - gammaln(phi)
        - gammaln(y_nz + 1.0)
        + phi * log_ratio[nz]
        + y_nz * (np.log(lam_nz) - np.log(phi + lam_nz))
    ) + np.count_nonzero(nz) * math.log1p(-pi)

    log_a = phi * log_ratio[is_zero]
    a = np.exp(log_a)
    p0 = pi + (1.0 - pi) * a
    ll += np.sum(np.log(p0))

    grad = np.zeros_like(params)
    grad[0] = np.sum(pi * (1.0 - pi) * (1.0 - a) / p0) - np.count_nonzero(nz) * pi
    dll_dphi_nz = np.sum(
        digamma(y_nz + phi)
        - digamma(phi)
        + log_ratio[nz]
        + 1.0
        - (phi + y_nz) / (phi + lam_nz)
    )
    da_dphi = a * (log_ratio[is_zero] + 1.0 - phi / (phi + lam[is_zero]))
    dll_dphi_z = np.sum((1.0 - pi) * da_dphi / p0)
    grad[1] = phi * (dll_dphi_nz + dll_dphi_z)
    dll_dlam = np.zeros_like(lam)
    dll_dlam[nz] = y_nz / lam_nz - (phi + y_nz) / (phi + lam_nz)
    dll_dlam[is_zero] = (1.0 - pi) * a * (-phi / (phi + lam[is_zero])) / p0
    grad[2:] = x.T @ (dll_dlam * lam)
    return -ll, -grad


def _reference_mle(y, design, max_iter=200):
    """The per-gene L-BFGS-B fit ``zinb_mle`` replaced, on the reference
    objective: same start, bounds and failure rule.  Its stopping tolerances
    are tighter than scipy's defaults, which stop an all-zero fit (optimum on
    a bound, logL near 0) about 6e-6 short of the optimum."""
    y = np.asarray(y, dtype=float)
    is_zero = y == 0
    zero_frac = float(np.mean(is_zero))
    start = np.zeros(2 + design.dim)
    start[0] = math.log((zero_frac * 0.5 + 0.01) / (1.0 - zero_frac * 0.5 - 0.01))
    start[1] = math.log(10.0)
    start[2] = math.log(float(np.mean(y)) + 0.01)
    bounds = [(-15.0, 15.0), (math.log(1e-3), math.log(1e5))] + [(-30.0, 30.0)] * design.dim
    res = minimize(
        _reference_nll_grad,
        start,
        args=(y, design.matrix, is_zero),
        jac=True,
        method="L-BFGS-B",
        bounds=bounds,
        options={"maxiter": max_iter, "ftol": 1e-12, "gtol": 1e-8},
    )
    if not np.isfinite(res.fun):
        return None
    if not res.success and np.linalg.norm(res.jac, ord=np.inf) > 1e-1 * max(1.0, abs(res.fun)):
        return None
    return -float(res.fun), 2 + design.dim


def _reference_block(counts, design, params=None):
    """``_reference_mle`` of every row of a count block."""
    return [_reference_mle(y, design) for y in counts]


def _block_objective(params, y, design):
    """Objective and gradient of one gene as a block of one."""
    nll, grad, _ = splines._ZinbBlock(y[None], design).evaluate(np.arange(1), params[None])
    return nll[0], grad[0]


def _count_vectors(rng, n):
    """Mixed, all-zero, no-zero and heavy-tailed count vectors of length n."""
    mixed = rng.poisson(3.0, n)
    mixed[rng.random(n) < 0.4] = 0
    heavy = rng.negative_binomial(0.3, 0.3 / (0.3 + 200.0), n)
    return {
        "mixed": mixed.astype(float),
        "all-zero": np.zeros(n),
        "no-zero": (rng.poisson(5.0, n) + 1).astype(float),
        "heavy-tailed": heavy.astype(float),
    }


class TestSelectDegree:
    def test_singleton(self):
        ds = _flat_sample("linear", 1, seed=0)
        assert select_degree(ds, {3}, [0, 1]) == 3

    def test_max_rule_across_samples(self):
        # Sample 1 carries a linear pattern (prefers degree 1), sample 2 a
        # cubic one (prefers degree 3); the vote must be the maximum.
        lin = _flat_sample("linear", 1, seed=11)
        cub = _flat_sample("poly2", 3, seed=12)
        from svjoint.dataio import MultiSampleDataset
        from dataclasses import replace

        merged = MultiSampleDataset(
            samples=[lin.samples[0], replace(cub.samples[0], sample_id="s2")],
            gene_ids=lin.gene_ids,
        )
        got = select_degree(merged, {1, 3}, list(range(8)))
        single = select_degree(cub, {1, 3}, list(range(8)))
        assert single == 3
        assert got == 3

    def test_cubic_signal_prefers_three(self):
        # Polynomial2 spatial effect, strong signal, no dropout: degree 3
        # must win the AIC vote in at least 9 of 10 seeds.
        wins = 0
        for seed in range(10):
            ds = _flat_sample("poly2", 3, seed=100 + seed)
            if select_degree(ds, {1, 3}, list(range(10))) == 3:
                wins += 1
        assert wins >= 9

    def test_input_validation(self):
        ds = _flat_sample("linear", 1, seed=0)
        with pytest.raises(ValueError):
            select_degree(ds, set(), [0])
        with pytest.raises(ValueError):
            select_degree(ds, {5}, [0])
        with pytest.raises(ValueError):
            select_degree(ds, {1, 2}, [])

    def test_fallback_vote_on_total_failure(self, monkeypatch):
        ds = _flat_sample("linear", 1, seed=0)
        monkeypatch.setattr(
            splines, "zinb_mle", lambda counts, design, params=None: [None] * len(counts)
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = select_degree(ds, {1, 2}, [0, 1])
        assert got == splines.DEFAULT_DEGREE
        assert any("votes for degree" in str(w.message) for w in caught)

    def test_top_vote_ends_selection(self, monkeypatch):
        # The first sample votes the highest candidate, so the second is
        # never fit, and the answer is the maximum of the samples' own votes.
        cub = _flat_sample("poly2", 3, seed=12)
        lin = _flat_sample("linear", 1, seed=11)
        own = [select_degree(d, {1, 3}, list(range(8))) for d in (cub, lin)]
        assert own == [3, 1]
        calls = _record_zinb_mle(monkeypatch)
        got = select_degree(_merged(cub, lin), {1, 3}, list(range(8)))
        assert got == max(own)
        assert [design.n_basis for _, design, _, _ in calls] == [1, 3]
        first = np.asarray(cub.samples[0].counts[list(range(8))], dtype=float)
        for counts, _, _, _ in calls:
            np.testing.assert_array_equal(counts[:], first)

    def test_lower_first_vote_fits_every_sample(self, monkeypatch):
        # The linear sample first votes below the top, so the cubic sample
        # after it is fit too and its vote decides.
        lin = _flat_sample("linear", 1, seed=11)
        cub = _flat_sample("poly2", 3, seed=12)
        calls = _record_zinb_mle(monkeypatch)
        assert select_degree(_merged(lin, cub), {1, 3}, list(range(8))) == 3
        assert [design.n_basis for _, design, _, _ in calls] == [1, 3, 1, 3]
        for (counts, _, _, _), ds in zip(calls[::2], (lin, cub)):
            np.testing.assert_array_equal(
                counts[:], np.asarray(ds.samples[0].counts[list(range(8))], dtype=float))

    def test_sample_after_top_vote_is_not_fit(self, monkeypatch):
        # Every fit of the 12 x 12 sample returns None, which alone makes it
        # vote the default degree with a warning; after a top vote it is
        # never fit and nothing is warned.
        cub = _flat_sample("poly2", 3, seed=12)
        failing = _flat_sample("linear", 1, seed=11, n_side=12)
        real = splines.zinb_mle
        fitted = []

        def none_on_failing(counts, design, params=None):
            fitted.append(design.matrix.shape[0])
            if design.matrix.shape[0] == failing.samples[0].n_spots:
                return [None] * len(counts)
            return real(counts, design, params=params)

        monkeypatch.setattr(splines, "zinb_mle", none_on_failing)
        with pytest.warns(RuntimeWarning, match="votes for degree"):
            select_degree(failing, {1, 3}, list(range(8)))
        fitted.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert select_degree(_merged(cub, failing), {1, 3}, list(range(8))) == 3
        assert fitted == [cub.samples[0].n_spots] * 2


def _merged(*datasets):
    """The first sample of each one-sample dataset, as one dataset in that order."""
    from dataclasses import replace

    from svjoint.dataio import MultiSampleDataset

    return MultiSampleDataset(
        samples=[replace(ds.samples[0], sample_id=f"s{i}") for i, ds in enumerate(datasets)],
        gene_ids=datasets[0].gene_ids,
    )


def _with_count_vectors(ds, seed):
    """``ds`` (one sample) with the four ``_count_vectors`` kinds appended as genes."""
    from dataclasses import replace

    from svjoint.dataio import MultiSampleDataset

    sample = ds.samples[0]
    extra = _count_vectors(np.random.default_rng(seed), sample.counts.shape[1])
    gene_ids = ds.gene_ids + tuple(extra)
    counts = np.vstack([sample.counts[:], np.stack(list(extra.values())).astype(np.int64)])
    return MultiSampleDataset(
        samples=[replace(sample, counts=counts, gene_ids=gene_ids)], gene_ids=gene_ids
    )


def _record_zinb_mle(monkeypatch, fail_first_gene_at=None):
    """Patch ``splines.zinb_mle`` to record (counts, design, start, fits) per call.

    At degree ``fail_first_gene_at`` the first gene's fit is reported as None.
    """
    calls = []
    real = splines.zinb_mle

    def recording(counts, design, params=None):
        start = params.copy()
        fits = real(counts, design, params=params)
        if design.n_basis == fail_first_gene_at:
            fits[0] = None
        calls.append((counts, design, start, fits))
        return fits

    monkeypatch.setattr(splines, "zinb_mle", recording)
    return calls


class TestWarmStart:
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_elevation_is_exact(self, degree):
        # Random parameter rows at one degree and their elevation by one and
        # (up to degree 4) two degrees give the same log mean at every spot, and the same
        # objective, but for rounding.
        rng = np.random.default_rng(40 + degree)
        n = 120
        coords, covs = rng.uniform(size=(n, 2)), rng.uniform(size=(n, 2))
        y = np.stack(list(_count_vectors(rng, n).values()))
        design = make_design(coords, covs, degree=degree)
        params = np.column_stack([
            rng.uniform(-2.0, 2.0, len(y)),
            rng.uniform(math.log(0.5), math.log(50.0), len(y)),
            rng.normal(0.0, 1.0, (len(y), design.dim)),
        ])
        params[1] = np.nan
        eta = params[:, 2:] @ design.matrix.T
        rows = np.array([0, 2, 3])
        nll = splines._ZinbBlock(y, design).evaluate(rows, params[rows])[0]
        for new in range(degree + 1, min(degree + 2, 4) + 1):
            high = make_design(coords, covs, degree=new)
            elevated = splines._elevate(params, degree, new)
            assert elevated.shape == (len(y), 2 + high.dim)
            assert np.isnan(elevated[1]).all()
            np.testing.assert_array_equal(elevated[:, :3], params[:, :3])
            np.testing.assert_array_equal(elevated[:, high.psi_slice.start + 2:],
                                          params[:, design.psi_slice.start + 2:])
            got = elevated[:, 2:] @ high.matrix.T
            assert np.all(np.abs(got - eta)[rows] <= 1e-13 * np.maximum(1.0, np.abs(eta[rows])))
            high_nll = splines._ZinbBlock(y, high).evaluate(rows, elevated[rows])[0]
            assert np.all(np.abs(high_nll - nll) <= 1e-12 * np.maximum(1.0, np.abs(nll)))

    @pytest.mark.parametrize("candidates", [(1, 2, 3, 4), (1, 3)])
    def test_warm_fits_equal_cold_fits(self, monkeypatch, candidates):
        # Every degree above the lowest starts from the degree below, and
        # every fit equals the cold fit from the documented start.
        ds = _with_count_vectors(_flat_sample("poly2", 3, seed=104, dropout=0.3), seed=7)
        calls = _record_zinb_mle(monkeypatch)
        select_degree(ds, candidates, list(range(ds.n_genes)))
        assert [design.n_basis for _, design, _, _ in calls] == list(candidates)
        assert np.isnan(calls[0][2]).all()
        for counts, design, start, fits in calls[1:]:
            assert np.isfinite(start).all()
            for fit, cold in zip(fits, zinb_mle(counts, design)):
                assert fit is not None and cold is not None
                assert fit[1] == cold[1]
                assert abs(fit[0] - cold[0]) <= 1e-10 * max(1.0, abs(cold[0])), design.n_basis

    def test_count_work_built_once_per_sample(self, monkeypatch):
        # A sample's degree-independent count work is built once and read by
        # the fit of every candidate degree, each fit equal to the one from
        # the plain count block.
        ds = _flat_sample("poly2", 3, seed=104, dropout=0.3)
        built = []
        real = splines._ZinbCounts.__init__

        def counting(self, counts):
            built.append(np.shape(counts))
            real(self, counts)

        monkeypatch.setattr(splines._ZinbCounts, "__init__", counting)
        calls = _record_zinb_mle(monkeypatch)
        select_degree(ds, (1, 2, 3), list(range(ds.n_genes)))
        assert built == [(ds.n_genes, ds.samples[0].n_spots)]
        assert len(calls) == 3 and all(c[0] is calls[0][0] for c in calls)
        for counts, design, start, fits in calls:
            assert zinb_mle(counts[:], design, params=start) == fits

    def test_failed_lower_fit_restarts_cold(self, monkeypatch):
        ds = _flat_sample("poly2", 3, seed=104, dropout=0.3)
        calls = _record_zinb_mle(monkeypatch, fail_first_gene_at=1)
        select_degree(ds, (1, 2), list(range(ds.n_genes)))
        counts, design, start, fits = calls[1]
        assert np.isnan(start[0]).all() and np.isfinite(start[1:]).all()
        cold = zinb_mle(counts[:1], design)[0]
        assert abs(fits[0][0] - cold[0]) <= 1e-10 * max(1.0, abs(cold[0]))


class TestZinbCounts:
    def test_distinct_counts_match_per_gene_unique(self):
        # An all-zero row, a row with one nonzero count, and a count of 1e9.
        y = np.array([
            [0, 0, 0, 0, 0, 0],
            [0, 0, 7, 0, 0, 0],
            [1e9, 3, 3, 0, 1, 1e9],
            [2, 1, 2, 5, 0, 1],
        ])
        counts = splines._ZinbCounts(y)
        u, u_gene, n_u, log_y_fact = [], [], [], []
        for g, row in enumerate(y):
            values, mult = np.unique(row[row > 0], return_counts=True)
            u += values.tolist()
            u_gene += [g] * len(values)
            n_u += mult.tolist()
            total = 0.0
            for value, n in zip(values, mult):
                total += n * float(svjoint_gammaln(value + 1.0))
            log_y_fact.append(total)
        np.testing.assert_array_equal(counts.u, u)
        np.testing.assert_array_equal(counts.u_gene, u_gene)
        np.testing.assert_array_equal(counts.n_u, n_u)
        np.testing.assert_array_equal(counts.log_y_fact, log_y_fact)


class TestZinbMle:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        coords = rng.uniform(size=(40, 2))
        covs = rng.uniform(size=(40, 1))
        design = make_design(coords, covs, degree=2)
        lam = np.exp(1.0 + design.matrix[:, 1])
        y = rng.poisson(lam)
        y[rng.random(40) < 0.3] = 0
        params = np.concatenate([[0.2, math.log(8.0)], rng.normal(0, 0.3, design.dim)])
        nll, grad = _block_objective(params, y.astype(float), design)
        eps = 1e-6
        for j in range(params.size):
            up = params.copy()
            up[j] += eps
            dn = params.copy()
            dn[j] -= eps
            fd = (
                _block_objective(up, y.astype(float), design)[0]
                - _block_objective(dn, y.astype(float), design)[0]
            ) / (2 * eps)
            assert grad[j] == pytest.approx(fd, rel=2e-4, abs=1e-5)

    def test_recovers_dispersion_scale(self):
        rng = np.random.default_rng(9)
        coords = rng.uniform(size=(400, 2))
        design = make_design(coords, np.zeros((400, 0)), degree=1)
        lam = np.exp(2.0 + 1.0 * design.matrix[:, 1])
        phi_true = 5.0
        y = rng.poisson(rng.gamma(phi_true, lam / phi_true))
        fit = zinb_mle(y[None], design)[0]
        assert fit is not None
        logl, k = fit
        assert k == 2 + design.dim
        assert math.isfinite(logl)

    @pytest.mark.parametrize("case", ["mixed", "all-zero", "no-zero", "heavy-tailed"])
    def test_objective_matches_reference(self, case):
        # Sums run over distinct counts and in another order than the
        # reference's, so agreement is to rounding: 1e-12 of the larger of
        # 1, |value| and the largest gradient component.
        rng = np.random.default_rng(21)
        n = 300
        design = make_design(rng.uniform(size=(n, 2)), rng.uniform(size=(n, 1)), degree=3)
        for _ in range(25):
            y = _count_vectors(rng, n)[case]
            params = np.concatenate(
                [
                    [rng.uniform(-4.0, 4.0), rng.uniform(math.log(0.05), math.log(200.0))],
                    rng.normal(0.0, 0.5, design.dim),
                ]
            )
            params[2] += math.log(y.mean() + 0.5)
            ref_nll, ref_grad = _reference_nll_grad(params, y, design.matrix, y == 0)
            nll, grad = _block_objective(params, y, design)
            tol = 1e-12 * max(1.0, abs(ref_nll), float(np.abs(ref_grad).max()))
            assert abs(nll - ref_nll) <= tol
            np.testing.assert_allclose(grad, ref_grad, rtol=0.0, atol=tol)

    def test_fit_matches_reference_fit(self):
        rng = np.random.default_rng(33)
        n = 300
        design = make_design(rng.uniform(size=(n, 2)), rng.uniform(size=(n, 1)), degree=2)
        for case, y in _count_vectors(rng, n).items():
            fit = zinb_mle(y[None], design)[0]
            ref = _reference_mle(y, design)
            assert fit is not None and ref is not None, case
            assert fit[1] == ref[1]
            # The all-zero fit has logL near 0, hence the floor of 1.
            assert abs(fit[0] - ref[0]) <= 1e-8 * max(1.0, abs(ref[0])), case

    def test_select_degree_matches_reference(self, monkeypatch):
        ds = _flat_sample("poly2", 3, seed=104, dropout=0.3)
        got = select_degree(ds, {1, 2, 3, 4}, list(range(10)))
        monkeypatch.setattr(splines, "zinb_mle", _reference_block)
        assert got == select_degree(ds, {1, 2, 3, 4}, list(range(10)))

    def test_hessian_matches_finite_differences(self):
        # One block of the four count-vector kinds, each gene at its own
        # parameters: every Hessian column against central differences of
        # the block gradient.
        rng = np.random.default_rng(8)
        n = 80
        design = make_design(rng.uniform(size=(n, 2)), rng.uniform(size=(n, 1)), degree=2)
        y = np.stack(list(_count_vectors(rng, n).values()))
        params = np.column_stack(
            [
                rng.uniform(-2.0, 2.0, len(y)),
                rng.uniform(math.log(0.5), math.log(50.0), len(y)),
                rng.normal(0.0, 0.3, (len(y), design.dim)),
            ]
        )
        params[:, 2] += np.log(y.mean(axis=1) + 0.5)
        block = splines._ZinbBlock(y, design)
        rows = np.arange(len(y))
        _, _, hess = block.evaluate(rows, params)
        np.testing.assert_allclose(hess, hess.transpose(0, 2, 1), rtol=1e-12, atol=0.0)
        eps = 1e-5
        for j in range(params.shape[1]):
            up, dn = params.copy(), params.copy()
            up[:, j] += eps
            dn[:, j] -= eps
            fd = (block.evaluate(rows, up)[1] - block.evaluate(rows, dn)[1]) / (2 * eps)
            scale = np.maximum(1.0, np.abs(hess).max(axis=(1, 2)))[:, None]
            assert np.all(np.abs(hess[:, :, j] - fd) <= 1e-6 * scale), j

    def test_block_fit_equals_single_gene_fits(self):
        # Ten simulated genes and the four count-vector kinds plus one more
        # mixed vector: each gene's fit in the 15-gene block equals its fit
        # as a block of one.
        ds = _flat_sample("poly2", 3, seed=104, dropout=0.3)
        sample = ds.samples[0]
        rng = np.random.default_rng(2)
        n = sample.counts.shape[1]
        extra = list(_count_vectors(rng, n).values()) + [_count_vectors(rng, n)["mixed"]]
        counts = np.vstack([np.asarray(sample.counts, dtype=float), np.stack(extra)])
        assert counts.shape[0] == 15
        design = splines.build_design(
            normalize_coords(sample.coords), sample.covariates, BasisSpec(3)
        )
        block = zinb_mle(counts, design)
        for y, fit in zip(counts, block):
            single = zinb_mle(y[None], design)[0]
            assert fit is not None and single is not None
            assert fit[1] == single[1]
            assert abs(fit[0] - single[0]) <= 1e-10 * max(1.0, abs(single[0]))

    def test_block_fit_not_below_reference(self):
        # Newton stops at the tighter test, so no fit may end below the
        # L-BFGS-B reference by more than 1e-8 of max(1, |logL|).
        ds = _flat_sample("poly2", 3, seed=104, dropout=0.3)
        sample = ds.samples[0]
        coords = normalize_coords(sample.coords)
        for degree in (1, 2, 3, 4):
            design = splines.build_design(coords, sample.covariates, BasisSpec(degree))
            fits = zinb_mle(sample.counts, design)
            for y, fit in zip(np.asarray(sample.counts, dtype=float), fits):
                ref = _reference_mle(y, design)
                assert fit is not None and ref is not None
                assert fit[0] >= ref[0] - 1e-8 * max(1.0, abs(ref[0])), degree

    def test_all_zero_gene_converges_on_bound(self):
        # All-zero counts: the likelihood grows towards pi -> 1 and a mean
        # -> 0, so the optimum lies on the box; the fit must still count as
        # converged and match the reference.
        rng = np.random.default_rng(34)
        n = 200
        design = make_design(rng.uniform(size=(n, 2)), rng.uniform(size=(n, 1)), degree=3)
        y = np.zeros(n)
        fit = zinb_mle(y[None], design)[0]
        ref = _reference_mle(y, design)
        assert fit is not None and ref is not None
        assert math.isfinite(fit[0]) and fit[0] <= 0.0
        assert abs(fit[0] - ref[0]) <= 1e-8 * max(1.0, abs(ref[0]))

    def test_unconverged_fit_is_none(self):
        rng = np.random.default_rng(33)
        n = 300
        design = make_design(rng.uniform(size=(n, 2)), rng.uniform(size=(n, 1)), degree=2)
        vectors = _count_vectors(rng, n)
        # The all-zero gene has logL near 0, so one step leaves its projected
        # gradient far above 0.1 * max(1, |logL|); more steps converge.
        zero = vectors["all-zero"][None]
        assert zinb_mle(zero, design, max_iter=1)[0] is None
        assert zinb_mle(zero, design)[0] is not None
        # With no step the fit stays at the documented start: None exactly
        # when the reference's projected gradient there breaks the rule.
        lo = np.array([-15.0, math.log(1e-3)] + [-30.0] * design.dim)
        hi = np.array([15.0, math.log(1e5)] + [30.0] * design.dim)
        for case, y in vectors.items():
            zero_frac = float(np.mean(y == 0))
            start = np.zeros(2 + design.dim)
            start[0] = math.log((zero_frac * 0.5 + 0.01) / (1.0 - zero_frac * 0.5 - 0.01))
            start[1] = math.log(10.0)
            start[2] = math.log(float(np.mean(y)) + 0.01)
            nll, grad = _reference_nll_grad(start, y, design.matrix, y == 0)
            pg = np.abs(np.clip(start - grad, lo, hi) - start).max()
            fit = zinb_mle(y[None], design, max_iter=0)[0]
            assert (fit is None) == (pg > 0.1 * max(1.0, abs(nll))), case
            if fit is not None:
                assert fit[0] == pytest.approx(-nll, rel=1e-12)

    def test_detect_leaves_numpy_ma_unloaded(self, tmp_path):
        # np.unique loads numpy.ma on first use; detect (degree selection,
        # the fit and the report) uses none of it.
        from svjoint import cli

        assert cli.main(["simulate", "--out", str(tmp_path), "--grid", "10x10", "--genes", "6",
                         "--sv-genes", "2", "--samples", "2", "--seed", "5"]) == 0
        code = (
            "import sys\n"
            "from svjoint import cli\n"
            "out = sys.argv[1]\n"
            "assert cli.main(['detect', '--manifest', out + '/manifest.ini',\n"
            "                 '--out', out + '/report.tsv', '--degree', 'auto',\n"
            "                 '--min-spots-per-gene', '0', '--min-genes-per-spot', '0']) == 0\n"
            "print('numpy.ma' in sys.modules)"
        )
        src = os.path.dirname(os.path.dirname(splines.__file__))
        out = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path)], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, check=True, timeout=120,
        )
        assert out.stdout.strip() == "False"

    def test_cli_import_leaves_optimizer_unloaded(self, tmp_path):
        # scipy is a test dependency only: simulate, degree selection and
        # detect (one worker and a pool) run with every scipy import refused,
        # and leave no scipy module loaded.  Blocks of 3 cut the 6 genes in
        # two, so that --workers 2 starts a pool, and the program checks
        # that fits came back from it.
        src = os.path.dirname(os.path.dirname(splines.__file__))
        code = (
            "import sys\n"
            "class NoScipy:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.split('.')[0] == 'scipy':\n"
            "            raise ImportError('scipy import refused: ' + name)\n"
            "sys.meta_path.insert(0, NoScipy())\n"
            "from concurrent.futures import ProcessPoolExecutor\n"
            "from svjoint import cli\n"
            "from svjoint.simulate import SimConfig, generate\n"
            "from svjoint.splines import select_degree\n"
            "out = sys.argv[1]\n"
            "assert cli.main(['simulate', '--out', out, '--grid', '10x10', '--genes', '6',\n"
            "                 '--sv-genes', '2', '--samples', '2', '--seed', '5']) == 0\n"
            "ds, _ = generate(SimConfig(M=2, grid=(8, 8), G=4, n_sv=2, seed=5))\n"
            "assert select_degree(ds, (1, 2), [0, 1, 2, 3]) in (1, 2)\n"
            "pooled = []\n"
            "class RecordingPool(ProcessPoolExecutor):\n"
            "    def map(self, fn, items, chunksize=1):\n"
            "        items = list(items)\n"
            "        fits = list(super().map(fn, items, chunksize=chunksize))\n"
            "        pooled.extend(items)\n"
            "        return fits\n"
            "cli.ProcessPoolExecutor = RecordingPool\n"
            "cli.block_size = lambda n_spots: 3\n"
            "for workers in ('1', '2'):\n"
            "    assert cli.main(['detect', '--manifest', out + '/manifest.ini',\n"
            "                     '--out', out + '/report.tsv', '--degree', 'auto',\n"
            "                     '--workers', workers, '--min-spots-per-gene', '0',\n"
            "                     '--min-genes-per-spot', '0']) == 0\n"
            "assert pooled == [3, 4, 5], pooled\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path)], env=env, capture_output=True,
            text=True, check=True, timeout=120,
        )
        assert out.stdout.strip() == "[]"
