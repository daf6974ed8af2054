"""homoglab: a numerical laboratory for homogenization on periodic lattice boxes.

Computes correctors, flux correctors and homogenized coefficients for
divergence-form elliptic operators with random or periodic coefficients,
measures two-scale-expansion errors, and runs the quantitative statistics
(corrector growth, spectral-gap checks, semigroup and Green's-function
decay) as reproducible seeded experiments.
"""

__version__ = "0.9.1"

from .lattice import (  # noqa: F401
    BoxSpec,
    CoefficientField,
    ScalarField,
    SkewField,
    VectorField,
    apply_elliptic,
    div_star,
    grad,
    inner,
)
from .ensembles import EnsembleSpec, SampleId, sample  # noqa: F401
from .elliptic import SolverConfig, SolveReport, SolverError  # noqa: F401
