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
from svjoint.simulate import SimConfig, generate
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
    """Reference for ``splines._zinb_nll_grad``: the same objective and
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
    """``zinb_mle`` with the reference objective: same start, bounds and rule."""
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
        options={"maxiter": max_iter},
    )
    if not np.isfinite(res.fun):
        return None
    if not res.success and np.linalg.norm(res.jac, ord=np.inf) > 1e-1 * max(1.0, abs(res.fun)):
        return None
    return -float(res.fun), 2 + design.dim


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
        monkeypatch.setattr(splines, "zinb_mle", lambda *a, **k: None)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = select_degree(ds, {1, 2}, [0, 1])
        assert got == splines.DEFAULT_DEGREE
        assert any("votes for degree" in str(w.message) for w in caught)


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
        stats = splines._zinb_stats(y.astype(float), design.matrix)
        nll, grad = splines._zinb_nll_grad(params, *stats)
        eps = 1e-6
        for j in range(params.size):
            up = params.copy()
            up[j] += eps
            dn = params.copy()
            dn[j] -= eps
            fd = (
                splines._zinb_nll_grad(up, *stats)[0]
                - splines._zinb_nll_grad(dn, *stats)[0]
            ) / (2 * eps)
            assert grad[j] == pytest.approx(fd, rel=2e-4, abs=1e-5)

    def test_recovers_dispersion_scale(self):
        rng = np.random.default_rng(9)
        coords = rng.uniform(size=(400, 2))
        design = make_design(coords, np.zeros((400, 0)), degree=1)
        lam = np.exp(2.0 + 1.0 * design.matrix[:, 1])
        phi_true = 5.0
        y = rng.poisson(rng.gamma(phi_true, lam / phi_true))
        fit = zinb_mle(y, design)
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
            nll, grad = splines._zinb_nll_grad(params, *splines._zinb_stats(y, design.matrix))
            tol = 1e-12 * max(1.0, abs(ref_nll), float(np.abs(ref_grad).max()))
            assert abs(nll - ref_nll) <= tol
            np.testing.assert_allclose(grad, ref_grad, rtol=0.0, atol=tol)

    def test_fit_matches_reference_fit(self):
        rng = np.random.default_rng(33)
        n = 300
        design = make_design(rng.uniform(size=(n, 2)), rng.uniform(size=(n, 1)), degree=2)
        for case, y in _count_vectors(rng, n).items():
            fit = zinb_mle(y, design)
            ref = _reference_mle(y, design)
            assert fit is not None and ref is not None, case
            assert fit[1] == ref[1]
            # The all-zero fit has logL near 0, hence the floor of 1.
            assert abs(fit[0] - ref[0]) <= 1e-8 * max(1.0, abs(ref[0])), case

    def test_select_degree_matches_reference(self, monkeypatch):
        ds = _flat_sample("poly2", 3, seed=104, dropout=0.3)
        got = select_degree(ds, {1, 2, 3, 4}, list(range(10)))
        monkeypatch.setattr(splines, "zinb_mle", _reference_mle)
        assert got == select_degree(ds, {1, 2, 3, 4}, list(range(10)))

    def test_cli_import_leaves_optimizer_unloaded(self):
        src = os.path.dirname(os.path.dirname(splines.__file__))
        code = "import sys, svjoint.cli; print('scipy.optimize' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            check=True, timeout=60,
        )
        assert out.stdout.strip() == "False"
