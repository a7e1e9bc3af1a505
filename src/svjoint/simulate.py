"""Synthetic multi-sample spatial expression data with known ground truth.

Spots sit on a rectangular lattice split into four quadrant regions; each
spot's cell-type composition is drawn from its region's Dirichlet and used
as covariates.  SV genes receive an axis-wise spatial effect evaluated on
lattice coordinates affinely mapped to [-2, 2]; counts come from the
NB(lambda, phi) mixture (Poisson-Gamma) with Bernoulli dropout zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataio import CsrCounts, MultiSampleDataset, SpatialSample

__all__ = [
    "PATTERN_KINDS",
    "SIGNAL_TIERS",
    "SETTING_TIERS",
    "SimConfig",
    "GroundTruth",
    "spatial_effect",
    "generate",
]

PATTERN_KINDS = (
    "linear",
    "focal",
    "periodic",
    "sigmoid",
    "poly1",
    "poly2",
    "poly3",
    "poly4",
    "linear_focal",
    "linear_periodic",
    "focal_periodic",
    "nngp",
    "none",
)

_HYBRID_PARTS = {
    "linear_focal": ("linear", "focal"),
    "linear_periodic": ("linear", "periodic"),
    "focal_periodic": ("focal", "periodic"),
}

# beta0 per (pattern family, tier). Tiers: high / middle / low / extremely low.
SIGNAL_TIERS = {
    "linear": (0.8, 0.5, 0.2, 0.05),
    "focal": (0.6, 0.4, 0.2, 0.05),
    "periodic": (0.8, 0.6, 0.4, 0.2),
}

# Per-sample tier index (0=high, 1=middle, 2=low, 3=extremely low) for the
# four cross-sample signal configurations.
SETTING_TIERS = {
    1: (0, 1, 1, 1),
    2: (0, 1, 2, 2),
    3: (1, 1, 2, 2),
    4: (1, 2, 3, 3),
}

DEFAULT_DIRICHLETS = (
    (1.0, 1.0, 1.0, 1.0, 1.0, 1.0),
    (1.0, 3.0, 5.0, 7.0, 9.0, 11.0),
    (14.0, 12.0, 10.0, 8.0, 6.0, 4.0),
    (1.0, 4.0, 4.0, 4.0, 4.0, 1.0),
)

# Lattice axes are mapped affinely onto this range before evaluating the
# closed-form effects: the polynomial roots (-1, 0.8, 1.6) and the focal /
# sigmoid shapes need a span crossing negatives.
PATTERN_RANGE = (-2.0, 2.0)
# The periodic form gets one full cosine period across the tissue: over the
# wide range it would oscillate several times and be exactly orthogonal to
# every low-degree polynomial basis, so no boundary-knot spline detector
# (this one included) could ever see it.
PERIODIC_RANGE = (-0.5, 0.5)
# Mean and sd of each covariate coefficient psi.
PSI_DIST = (0.0, 1.0)
# The nngp pattern's exponential covariance: variance, length scale, nugget.
NNGP_PARAMS = (1.0, 1.0, 0.1)


def _axis_form(kind: str, axis: int) -> str:
    if kind in _HYBRID_PARTS:
        return _HYBRID_PARTS[kind][axis - 1]
    return kind


def _axis_range(kind: str, axis: int):
    return PERIODIC_RANGE if _axis_form(kind, axis) == "periodic" else PATTERN_RANGE


def _base_effect(kind: str, beta0: float, s):
    s = np.asarray(s, dtype=float)
    if kind == "linear":
        return beta0 * s
    if kind == "focal":
        return beta0 * np.exp(-(s**2)) / 2.0
    if kind == "periodic":
        return beta0 * np.cos(2.0 * math.pi * s)
    if kind == "sigmoid":
        return beta0 / (1.0 + np.exp(-s))
    if kind == "poly1":
        return 0.5 * beta0 * (s + 1.0) * (s - 0.8) * (s - 1.6)
    if kind == "poly2":
        return beta0 * (-0.5 * s**3 + 0.3 * s)
    if kind == "poly3":
        return beta0 * (0.15 * s**4 - 0.1 * s**2 + 0.7)
    if kind == "poly4":
        return beta0 * (0.25 * s**3 + 0.1 * s**2 - 0.15 * s + 0.3)
    if kind == "none":
        return np.zeros_like(s)
    raise ValueError(f"kind {kind!r} has no closed-form axis effect")


def spatial_effect(kind: str, beta0: float, s, axis: int = 1):
    """Axis spatial effect b_k(s) for coordinates in the pattern range.

    Hybrid kinds apply their first named form on axis 1 and the second on
    axis 2; plain kinds use the same form on both axes.
    """
    if kind == "nngp":
        raise ValueError("nngp has no pointwise axis effect; see generate()")
    if kind not in PATTERN_KINDS:
        raise ValueError(f"unknown pattern kind {kind!r}")
    if axis not in (1, 2):
        raise ValueError(f"axis must be 1 or 2, got {axis}")
    return _base_effect(_axis_form(kind, axis), beta0, s)


@dataclass(frozen=True)
class SimConfig:
    M: int = 4
    grid: tuple = (32, 32)
    G: int = 5000
    n_sv: int = 500
    pattern: str = "linear"
    signal_setting: int = 1
    dropout_pi: float = 0.3
    phi: float = 15.0
    eta_dist: tuple = (2.0, 0.5)
    n_celltypes: int = 6
    region_dirichlets: tuple = DEFAULT_DIRICHLETS
    seed: int = 0
    beta0_override: float | None = None

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("M must be >= 1")
        if len(self.grid) != 2 or any(not isinstance(v, int) or v < 1 for v in self.grid):
            raise ValueError(f"grid must be two positive integers, got {self.grid}")
        if not 0 <= self.n_sv <= self.G or self.G < 1:
            raise ValueError("need G >= 1 and 0 <= n_sv <= G")
        if not 0.0 <= self.dropout_pi < 1.0:
            raise ValueError("dropout_pi must lie in [0, 1)")
        if self.pattern not in PATTERN_KINDS:
            raise ValueError(f"unknown pattern {self.pattern!r}")
        if self.signal_setting not in SETTING_TIERS:
            raise ValueError("signal_setting must be 1..4")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        if self.beta0_override is not None and not math.isfinite(self.beta0_override):
            raise ValueError(f"beta0_override must be finite, got {self.beta0_override}")
        if len(self.region_dirichlets) != 4 or any(
            len(v) != self.n_celltypes or any(p <= 0 for p in v)
            for v in self.region_dirichlets
        ):
            raise ValueError("region_dirichlets must be 4 positive vectors of length n_celltypes")


@dataclass
class GroundTruth:
    gene_ids: tuple
    sv_flags: np.ndarray
    pattern: list
    beta0: np.ndarray  # (G, M)
    eta: np.ndarray  # (G, M)
    psi: np.ndarray  # (G, M, J)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if int(self.sv_flags.sum()) != sum(1 for p in self.pattern if p != "none"):
            raise ValueError("sv_flags inconsistent with per-gene patterns")


def _tier_beta0(pattern: str, tier_idx: int) -> float:
    family = pattern
    if pattern in _HYBRID_PARTS or pattern in ("sigmoid", "poly1", "poly2", "poly3", "poly4"):
        family = "linear"
    return SIGNAL_TIERS[family][tier_idx]


def _sample_tiers(setting: int, m: int):
    base = SETTING_TIERS[setting]
    if m <= len(base):
        return base[:m]
    return base + (base[-1],) * (m - len(base))


def generate(cfg: SimConfig):
    """Generate a dataset and its ground truth; deterministic given the seed."""
    rng = np.random.default_rng(cfg.seed)
    rows, cols = cfg.grid
    n = rows * cols
    jj, ii = np.meshgrid(np.arange(cols), np.arange(rows))
    coords = np.column_stack([jj.ravel().astype(float), ii.ravel().astype(float)])

    def _affine(vals, bounds):
        lo, hi = bounds
        vmax = vals.max()
        if vmax > 0:
            return lo + (hi - lo) * vals / vmax
        return np.full_like(vals, 0.5 * (lo + hi))

    pattern_coords = np.column_stack(
        [_affine(coords[:, axis], _axis_range(cfg.pattern, axis + 1)) for axis in (0, 1)]
    )
    mid1 = 0.5 * (coords[:, 0].max())
    mid2 = 0.5 * (coords[:, 1].max())
    region = (coords[:, 0] >= mid1).astype(int) + 2 * (coords[:, 1] >= mid2).astype(int)

    gene_ids = tuple(f"g{i:05d}" for i in range(cfg.G))
    sv_flags = np.zeros(cfg.G, dtype=bool)
    sv_flags[: cfg.n_sv] = True
    patterns = [cfg.pattern if sv_flags[i] else "none" for i in range(cfg.G)]
    tiers = _sample_tiers(cfg.signal_setting, cfg.M)

    beta0 = np.zeros((cfg.G, cfg.M))
    if cfg.n_sv and cfg.pattern != "nngp":
        beta0[: cfg.n_sv] = (
            cfg.beta0_override if cfg.beta0_override is not None
            else [_tier_beta0(cfg.pattern, t) for t in tiers]
        )

    # Each distinct beta0's two axis effects, checked before any draw: an
    # effect that overflows would give the Poisson draw a nan rate.  Finite
    # effects keep every rate finite and at most exp(30) (the clip below), far
    # under numpy's Poisson limit (~9.2e18).
    effects = {}
    if cfg.pattern != "nngp":
        for b in np.unique(beta0[: cfg.n_sv]):
            with np.errstate(over="ignore", invalid="ignore"):
                e1, e2 = (spatial_effect(cfg.pattern, b, pattern_coords[:, axis], axis=axis + 1)
                          for axis in (0, 1))
                finite = np.isfinite(e1 + e2).all()
            if not finite:
                raise ValueError(f"beta0 = {b:g} gives a non-finite {cfg.pattern} spatial effect")
            effects[b] = e1, e2

    eta = rng.normal(cfg.eta_dist[0], cfg.eta_dist[1], size=(cfg.G, cfg.M))
    psi = rng.normal(PSI_DIST[0], PSI_DIST[1], size=(cfg.G, cfg.M, cfg.n_celltypes))

    covariates = []
    for m in range(cfg.M):
        x = np.empty((n, cfg.n_celltypes))
        for r in range(4):
            mask = region == r
            if mask.any():
                x[mask] = rng.dirichlet(cfg.region_dirichlets[r], size=int(mask.sum()))
        covariates.append(x)

    sig2, length, tau2 = NNGP_PARAMS
    if cfg.pattern == "nngp" and cfg.n_sv > 0:
        dists = np.sqrt(
            np.sum((pattern_coords[:, None, :] - pattern_coords[None, :, :]) ** 2, axis=2)
        )
        cov = sig2 * np.exp(-dists / length)
        chol = np.linalg.cholesky(cov + 1e-10 * np.eye(n))

    # Each sample's counts as CSR rows, gene by gene: positive spots and counts.
    entries = [([], []) for _ in range(cfg.M)]
    for g in range(cfg.G):
        for m in range(cfg.M):
            log_lam = eta[g, m] + covariates[m] @ psi[g, m]
            if sv_flags[g] and cfg.pattern == "nngp":
                f = chol @ rng.standard_normal(n)
                log_lam = log_lam + (f + math.sqrt(tau2) * rng.standard_normal(n))
            elif sv_flags[g]:
                e1, e2 = effects[beta0[g, m]]
                log_lam = log_lam + e1 + e2
            lam = np.exp(np.clip(log_lam, -30.0, 30.0))
            gam = rng.gamma(shape=cfg.phi, scale=lam / cfg.phi)
            y = rng.poisson(gam)
            if cfg.dropout_pi > 0.0:
                y = np.where(rng.random(n) < cfg.dropout_pi, 0, y)
            spots = np.flatnonzero(y)
            entries[m][0].append(spots)
            entries[m][1].append(y[spots])

    spot_ids = tuple(f"spot{i:04d}" for i in range(n))
    cov_names = tuple(f"ct{j + 1}" for j in range(cfg.n_celltypes))
    samples = []
    for m, (spots, values) in enumerate(entries):
        indptr = np.concatenate(([0], np.cumsum([len(v) for v in spots])))
        samples.append(
            SpatialSample(
                sample_id=f"s{m + 1}",
                counts=CsrCounts(indptr, np.concatenate(spots), np.concatenate(values), n),
                coords=coords,
                covariates=covariates[m],
                spot_ids=spot_ids,
                gene_ids=gene_ids,
                covariate_names=cov_names,
            )
        )
    dataset = MultiSampleDataset(samples=samples, gene_ids=gene_ids)
    truth = GroundTruth(
        gene_ids=gene_ids,
        sv_flags=sv_flags,
        pattern=patterns,
        beta0=beta0,
        eta=eta,
        psi=psi,
        meta={
            "seed": cfg.seed,
            "setting": cfg.signal_setting,
            "pattern": cfg.pattern,
            "dropout": cfg.dropout_pi,
            "grid": f"{rows}x{cols}",
            "M": cfg.M,
        },
    )
    return dataset, truth
