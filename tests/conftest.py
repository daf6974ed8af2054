import numpy as np
import pytest

from homoglab.elliptic import SolveReport
from homoglab.lattice import BoxSpec, CoefficientField, ScalarField


def operator_matrix(apply_fn, box: BoxSpec) -> np.ndarray:
    """Assemble a lattice operator densely, column by column, through its action.

    Independent of any solver: used as the oracle side of dual-route checks.
    """
    n = box.n_sites
    A = np.zeros((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        A[:, j] = apply_fn(ScalarField(box, e)).values
    return A


def random_coefficients(box: BoxSpec, rng: np.random.Generator,
                        lam: float = 0.2, lo: float = 0.25, hi: float = 0.75) -> CoefficientField:
    diag = rng.uniform(lo, hi, size=(box.n_sites, box.d))
    return CoefficientField(box, diag, lam=lam)


def constant_green(a: CoefficientField, y: int = 0, cfg=None):
    """Stand-in for ``elliptic.green`` whose field, and so its quenched profile, is 0."""
    return ScalarField(a.box, np.zeros(a.box.n_sites)), SolveReport(0, 0.0, True)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
