"""Joint multi-sample detection of spatially variable genes.

Fits a zero-inflated negative binomial model with B-spline spatial
effects and a bi-level spike-and-slab prior to several tissue sections
at once, using coordinate-ascent variational inference, and calls SV
genes by Bayesian FDR on the shared-indicator posteriors.
"""

__version__ = "0.1.0"

from .dataio import (  # noqa: F401
    DataError,
    Manifest,
    MultiSampleDataset,
    SpatialSample,
    filter_dataset,
    load_dataset,
    write_report,
)
from .engine import (  # noqa: F401
    FitOptions,
    GeneFitResult,
    Hyperparameters,
    fit_gene,
    fit_genes,
)
from .selection import DetectionReport, GeneDecision, bfdr, bfdr_threshold  # noqa: F401
from .simulate import SimConfig, generate  # noqa: F401
from .splines import BasisSpec, build_design, eval_basis, normalize_coords  # noqa: F401
