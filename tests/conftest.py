"""Shared fixtures: small deterministic datasets and engine states."""

import copy

import numpy as np
import pytest

from svjoint.engine import Hyperparameters, init_state, _one_iteration, _rowwise
from svjoint.splines import BasisSpec, build_design


class GeneRow:
    """One gene of a block state (``BlockState`` or ``SharedState``), without the gene axis.

    Reading a per-gene field gives that gene's part: its arrays, per-sample
    tuples of its theta blocks, or its q(phi) factor with (M,) fields; other
    fields and methods read through to ``block``.  Setting a per-gene field on the view
    of a one-gene block sets the block's field to that one gene's value, and
    a copy of the view is a view of a shallow copy of the block.
    """

    def __init__(self, block, row=0):
        object.__setattr__(self, "block", block)
        object.__setattr__(self, "_row", row)

    def __copy__(self):
        # A snapshot: updates replace a block's fields whole.
        return GeneRow(copy.copy(self.block), self._row)

    def __getattr__(self, name):
        if name.startswith("__") or name in ("block", "_row"):
            raise AttributeError(name)
        value = getattr(self.block, name)
        if name not in type(self.block).ROWS or value is None:
            return value
        return _rowwise(lambda v: v[self._row], value)

    def __setattr__(self, name, value):
        if name in type(self.block).ROWS and value is not None:
            rows = getattr(self.block, type(self.block).ROWS[0])
            assert self._row == 0 and len(rows) == 1, "set fields on a one-gene block only"
            value = _rowwise(lambda v: np.asarray(v)[None], value)
        setattr(self.block, name, value)


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
    """One 5-spot sample with zeros, L=1, J=1, after a few CAVI iterations.

    The states are ``GeneRow`` views of the one-gene block; updates take
    their ``block``.
    """
    rng = np.random.default_rng(7)
    coords = np.column_stack([np.linspace(0, 1, 5), np.linspace(0, 1, 5) ** 2])
    covs = rng.uniform(0, 1, size=(5, 1))
    design = make_design(coords, covs, degree=1)
    y = np.array([0, 2, 0, 5, 3], dtype=np.int64)
    hp = Hyperparameters.default(1, 1)
    state, shared = init_state([y[None]], [design], hp)
    for _ in range(4):
        _one_iteration(state, shared, hp, 1.0)
    return GeneRow(state), GeneRow(shared), [y], [design], hp
