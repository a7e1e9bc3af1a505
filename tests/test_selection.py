"""Composite statistic and Bayesian FDR selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svjoint.engine import GeneFitResult
from svjoint.selection import (
    bfdr,
    bfdr_threshold,
    build_report,
    compute_u_tilde,
    default_bfdr_level,
)


def result(e1, e2):
    return GeneFitResult(
        e_u=(e1, e2), alpha=np.zeros((1, 2)), elbo_trace=[0.0],
        iterations=1, converged=True,
    )


class TestUTilde:
    def test_max(self):
        assert compute_u_tilde(result(0.97, 0.20)) == 0.97

    def test_zero(self):
        assert compute_u_tilde(result(0.0, 0.0)) == 0.0

    def test_tie(self):
        assert compute_u_tilde(result(0.5, 0.5)) == 0.5

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            compute_u_tilde(result(1.2, 0.0))


class TestBfdr:
    def test_direct_evaluation(self):
        assert bfdr([0.99, 0.97, 0.6], 0.05) == pytest.approx(0.02)

    def test_perfect_scores(self):
        assert bfdr([1.0, 1.0, 1.0], 0.5) == 0.0

    def test_empty_selection_convention(self):
        assert bfdr([0.5], 0.1) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            bfdr([0.5], 0.0)
        with pytest.raises(ValueError):
            bfdr([1.5], 0.1)


class TestBfdrThreshold:
    def test_enumerated_case(self):
        u = np.array([0.999, 0.998, 0.5])
        level = 0.05 / 6.0
        u0 = bfdr_threshold(u, level)
        selected = (1.0 - u) < u0
        np.testing.assert_array_equal(selected, [True, True, False])
        assert bfdr(u, u0) == pytest.approx(0.0015)

    def test_all_zero_scores(self):
        assert bfdr_threshold([0.0, 0.0], 0.01) == 0.0

    def test_single_perfect_gene(self):
        u0 = bfdr_threshold([1.0], 0.025)
        assert u0 > 0.0
        assert (1.0 - 1.0) < u0

    def test_monotone_selection_in_threshold(self):
        rng = np.random.default_rng(0)
        u = rng.uniform(size=60)
        grid = np.unique(1.0 - u)
        prev = -1.0
        for u0 in grid:
            val = bfdr(u, float(u0))
            assert val >= prev - 1e-12
            prev = val

    def test_nested_selection_sets(self):
        rng = np.random.default_rng(1)
        u = rng.uniform(size=40)
        lo, hi = 0.2, 0.6
        set_lo = {i for i in range(40) if 1.0 - u[i] < lo}
        set_hi = {i for i in range(40) if 1.0 - u[i] < hi}
        assert set_lo <= set_hi

    def test_default_level(self):
        assert default_bfdr_level(100) == pytest.approx(0.05 / 200.0)


def brute_force_threshold(u_tilde_all, level):
    """The original O(G^2) search: each candidate's BFDR summed in input order."""
    one_minus = 1.0 - np.asarray(u_tilde_all, dtype=float)
    candidates = np.unique(np.concatenate([one_minus, [level]]))
    candidates = candidates[(candidates > 0.0) & (candidates <= 1.0)]
    best = 0.0
    for u0 in candidates:
        picked = one_minus < u0
        if not picked.any():
            continue
        if np.sum(one_minus[picked]) / np.count_nonzero(picked) <= level:
            best = max(best, float(u0))
    return best


# Scores mix arbitrary values with repeats, exact 0/1 and near-1 values, as
# fitted gates produce; levels span the default 0.05 / (2G) up to 0.5.
scores = st.lists(
    st.one_of(
        st.floats(0.0, 1.0),
        st.sampled_from([0.0, 0.5, 0.9, 0.99, 0.999, 1.0]),
        st.floats(0.999, 1.0),
    ),
    max_size=60,
)
levels = st.one_of(st.floats(1e-6, 0.5, exclude_min=True), st.sampled_from([0.01, 0.1]))


class TestBfdrSearchProperty:
    @settings(max_examples=300, deadline=None)
    @given(scores, levels)
    def test_matches_brute_force(self, u, level):
        assert bfdr_threshold(u, level) == brute_force_threshold(u, level)

    @settings(max_examples=300, deadline=None)
    @given(scores.filter(len), st.data())
    def test_matches_brute_force_at_level_ties(self, u, data):
        # The level is one candidate's BFDR as the original search computes
        # it, so the decision rests on the last bit of that sum.
        one_minus = 1.0 - np.asarray(u, dtype=float)
        u0 = data.draw(st.sampled_from(sorted(set(one_minus.tolist()) | {1.0})))
        picked = one_minus < u0
        level = float(np.sum(one_minus[picked]) / max(1, np.count_nonzero(picked)))
        if not 0.0 < level < 1.0:
            return
        assert bfdr_threshold(u, level) == brute_force_threshold(u, level)


class TestBuildReport:
    def test_order_and_reorder_invariance(self):
        results = [result(0.99, 0.1), result(0.2, 0.3), result(0.98, 0.97)]
        ids = ["a", "b", "c"]
        rep = build_report(ids, results, bfdr_level=0.05)
        assert [d.gene_id for d in rep.decisions] == ids
        perm = [2, 0, 1]
        rep2 = build_report(
            [ids[i] for i in perm], [results[i] for i in perm], bfdr_level=0.05
        )
        assert rep.selected_ids == rep2.selected_ids

    def test_invariant_u_tilde_is_max(self):
        rep = build_report(["a"], [result(0.3, 0.7)], bfdr_level=0.05)
        assert rep.decisions[0].u_tilde == pytest.approx(0.7)

    def test_meta_counts(self):
        rep = build_report(["a", "b"], [result(0.9, 0.1), result(0.2, 0.1)],
                           bfdr_level=0.05)
        assert rep.meta["n_genes"] == 2
        assert rep.meta["n_converged"] == 2
        assert rep.meta["n_failed"] == 0
