"""Simulation generator: pattern forms, covariates, dropout, reproducibility."""

from dataclasses import replace

import numpy as np
import pytest

from svjoint.simulate import (
    PATTERN_KINDS,
    SETTING_TIERS,
    SIGNAL_TIERS,
    SimConfig,
    generate,
    spatial_effect,
)


class TestSpatialEffect:
    def test_linear_high_tier(self):
        assert spatial_effect("linear", 0.8, 1.0) == pytest.approx(0.8)

    def test_periodic_half(self):
        assert spatial_effect("periodic", 1.0, 0.5) == pytest.approx(-1.0)

    def test_poly1_root(self):
        assert spatial_effect("poly1", 1.0, 0.8) == pytest.approx(0.0, abs=1e-15)

    def test_focal_center(self):
        assert spatial_effect("focal", 0.6, 0.0) == pytest.approx(0.3)

    def test_sigmoid(self):
        assert spatial_effect("sigmoid", 2.0, 0.0) == pytest.approx(1.0)

    def test_hybrid_axis_split(self):
        s = 0.7
        assert spatial_effect("linear_focal", 1.0, s, axis=1) == pytest.approx(
            spatial_effect("linear", 1.0, s)
        )
        assert spatial_effect("linear_focal", 1.0, s, axis=2) == pytest.approx(
            spatial_effect("focal", 1.0, s)
        )

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            spatial_effect("swirl", 1.0, 0.0)

    def test_nngp_has_no_pointwise_form(self):
        with pytest.raises(ValueError):
            spatial_effect("nngp", 1.0, 0.0)


class TestGenerate:
    def test_shapes_and_tiers(self):
        cfg = SimConfig(M=4, grid=(8, 8), G=10, n_sv=3, pattern="linear",
                        signal_setting=2, dropout_pi=0.1, seed=0)
        ds, truth = generate(cfg)
        assert ds.n_samples == 4 and ds.n_genes == 10
        assert ds.samples[0].counts.shape == (10, 64)
        assert truth.sv_flags.sum() == 3
        tiers = SETTING_TIERS[2]
        expect = [SIGNAL_TIERS["linear"][t] for t in tiers]
        np.testing.assert_allclose(truth.beta0[0], expect)
        np.testing.assert_allclose(truth.beta0[5], 0.0)

    def test_dirichlet_rows_sum_to_one(self):
        cfg = SimConfig(M=2, grid=(8, 8), G=2, n_sv=0, dropout_pi=0.0, seed=1)
        ds, _ = generate(cfg)
        for s in ds.samples:
            np.testing.assert_allclose(s.covariates.sum(axis=1), 1.0, atol=1e-12)

    def test_zero_rate_dominated_by_dropout(self):
        # Low baseline expression makes the NB zero mass large, so the
        # empirical zero fraction clears the dropout probability comfortably.
        cfg = SimConfig(M=2, grid=(16, 16), G=40, n_sv=0, dropout_pi=0.9,
                        eta_dist=(0.0, 0.5), seed=3)
        ds, _ = generate(cfg)
        combined = np.concatenate([s.counts for s in ds.samples], axis=1)
        zero_frac = (combined == 0).mean(axis=1)
        assert np.all(zero_frac >= 0.9)

    def test_mean_zero_rate_exceeds_pi_at_default_expression(self):
        cfg = SimConfig(M=2, grid=(16, 16), G=30, n_sv=0, dropout_pi=0.5, seed=4)
        ds, _ = generate(cfg)
        combined = np.concatenate([s.counts for s in ds.samples], axis=1)
        assert (combined == 0).mean() >= 0.5

    def test_seed_reproducibility(self):
        cfg = SimConfig(M=2, grid=(8, 8), G=6, n_sv=2, dropout_pi=0.3, seed=11)
        a, _ = generate(cfg)
        b, _ = generate(cfg)
        for sa, sb in zip(a.samples, b.samples):
            np.testing.assert_array_equal(sa.counts, sb.counts)
            np.testing.assert_array_equal(sa.covariates, sb.covariates)

    def test_different_seeds_differ(self):
        cfg1 = SimConfig(M=1, grid=(8, 8), G=4, n_sv=0, dropout_pi=0.0, seed=1)
        cfg2 = SimConfig(M=1, grid=(8, 8), G=4, n_sv=0, dropout_pi=0.0, seed=2)
        a, _ = generate(cfg1)
        b, _ = generate(cfg2)
        assert not np.array_equal(a.samples[0].counts, b.samples[0].counts)

    def test_null_genes_have_no_spatial_structure(self):
        # Brute-force check: per-gene R^2 of log counts against a cubic
        # spatial basis stays near zero when no spatial effect was added.
        # Uniform compositions keep the covariate term spatially flat, so
        # any spatial R^2 would have to come from the (absent) b_k effects.
        from svjoint.splines import normalize_coords
        from conftest import make_design

        cfg = SimConfig(M=1, grid=(16, 16), G=60, n_sv=0, dropout_pi=0.0, seed=5,
                        region_dirichlets=tuple((1.0,) * 6 for _ in range(4)))
        ds, _ = generate(cfg)
        s = ds.samples[0]
        design = make_design(normalize_coords(s.coords), np.zeros((256, 0)), 3)
        x = design.matrix
        hat = x @ np.linalg.solve(x.T @ x, x.T)
        r2 = []
        for g in range(60):
            ylog = np.log1p(s.counts[g].astype(float))
            resid = ylog - hat @ ylog
            tot = ylog - ylog.mean()
            r2.append(1.0 - resid @ resid / max(tot @ tot, 1e-12))
        assert np.median(r2) < 0.05

    def test_beta0_override(self):
        cfg = SimConfig(M=3, grid=(8, 8), G=3, n_sv=2, dropout_pi=0.0,
                        beta0_override=0.2, seed=6)
        _, truth = generate(cfg)
        np.testing.assert_allclose(truth.beta0[:2], 0.2)

    def test_periodic_spans_one_period(self):
        # One cosine period across the lattice: ends high, middle low.
        from svjoint.simulate import _axis_range, PERIODIC_RANGE, PATTERN_RANGE

        assert _axis_range("periodic", 1) == PERIODIC_RANGE
        assert _axis_range("linear_periodic", 1) == PATTERN_RANGE
        assert _axis_range("linear_periodic", 2) == PERIODIC_RANGE
        cfg = SimConfig(M=1, grid=(1, 33), G=1, n_sv=1, pattern="periodic",
                        dropout_pi=0.0, seed=8,
                        region_dirichlets=tuple((1.0,) * 6 for _ in range(4)))
        _, truth = generate(cfg)
        lo, hi = PERIODIC_RANGE
        s = np.linspace(lo, hi, 33)
        b = spatial_effect("periodic", truth.beta0[0, 0], s)
        assert b[0] == pytest.approx(b[-1]) == pytest.approx(-truth.beta0[0, 0])
        assert b[16] == pytest.approx(truth.beta0[0, 0])

    def test_nngp_kind_runs(self):
        cfg = SimConfig(M=1, grid=(6, 6), G=3, n_sv=1, pattern="nngp",
                        dropout_pi=0.0, seed=7)
        ds, truth = generate(cfg)
        assert ds.samples[0].counts.shape == (3, 36)
        assert truth.pattern[0] == "nngp"

    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    @pytest.mark.parametrize("kind", PATTERN_KINDS)
    def test_counts_are_canonical_csr(self, kind, dropout):
        # The generator builds each sample's CSR rows itself, unvalidated; they
        # must be the arrays that validating its dense counts builds.  Low
        # expression leaves some rows empty and some spots unexpressed.
        cfg = SimConfig(M=2, grid=(6, 5), G=8, n_sv=0 if kind == "none" else 4,
                        pattern=kind, dropout_pi=dropout, eta_dist=(-1.0, 1.5), seed=2)
        ds, _ = generate(cfg)
        for s in ds.samples:
            ref = replace(s, counts=np.asarray(s.counts)).counts
            for name in ("indptr", "indices", "data"):
                got, want = getattr(s.counts, name), getattr(ref, name)
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(n_sv=10, G=5)
        with pytest.raises(ValueError):
            SimConfig(dropout_pi=1.0)
        with pytest.raises(ValueError):
            SimConfig(pattern="swirl")
        with pytest.raises(ValueError, match="n_sv must be 0"):
            SimConfig(pattern="none", G=5, n_sv=2)
        with pytest.raises(ValueError):
            SimConfig(signal_setting=9)
