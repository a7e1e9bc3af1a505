"""Shared fixtures: small deterministic datasets and engine states."""

import numpy as np
import pytest

from svjoint.engine import Hyperparameters, init_state, _one_iteration
from svjoint.splines import BasisSpec, build_design


def make_design(coords, covariates, degree):
    return build_design(
        np.asarray(coords, float), np.asarray(covariates, float), BasisSpec(degree)
    )


@pytest.fixture
def eight_spot_fixture():
    """Two samples, 8 spots each, L=1, J=1, all counts positive.

    Positive counts make every dropout indicator structurally zero, so each
    listed conjugate update is an exact coordinate maximizer of the ELBO.
    """
    rng = np.random.default_rng(42)
    coords = np.column_stack([np.linspace(0, 1, 8), np.linspace(1, 0, 8)])
    designs, ys = [], []
    for m in range(2):
        covs = rng.uniform(0.2, 0.8, size=(8, 1))
        designs.append(make_design(coords, covs, degree=1))
        lam = np.exp(1.0 + 1.5 * coords[:, 0] + 0.3 * covs[:, 0])
        y = rng.poisson(lam) + 1  # strictly positive
        ys.append(y.astype(np.int64))
    hp = Hyperparameters.default(2, 1)
    return ys, designs, hp


@pytest.fixture
def five_spot_state():
    """One 5-spot sample with zeros, L=1, J=1, after a few CAVI iterations."""
    rng = np.random.default_rng(7)
    coords = np.column_stack([np.linspace(0, 1, 5), np.linspace(0, 1, 5) ** 2])
    covs = rng.uniform(0, 1, size=(5, 1))
    design = make_design(coords, covs, degree=1)
    y = np.array([0, 2, 0, 5, 3], dtype=np.int64)
    hp = Hyperparameters.default(1, 1)
    states, shared = init_state([y], [design], hp)
    for _ in range(4):
        _one_iteration(states, shared, [y], [design], hp, 1.0)
    return states, shared, [y], [design], hp
