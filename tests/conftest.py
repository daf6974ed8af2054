import numpy as np
import pytest

from homoglab.elliptic import SolveReport
from homoglab.lattice import BoxSpec, CoefficientField, ScalarField
from homoglab.spectral import symbol


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


def apply_constant(A: np.ndarray, u: ScalarField) -> ScalarField:
    """div*(A grad u) for a constant (possibly non-diagonal) d x d matrix A,
    by periodic shifts of the grid: the stencil oracle of the spectral inverse."""
    d = u.box.d
    A = np.asarray(A, dtype=np.float64)
    g = u.grid()
    grads = [np.roll(g, -1, axis=j) - g for j in range(d)]
    out = np.zeros(g.shape)
    for i in range(d):
        flux = sum(A[i, j] * grads[j] for j in range(d))
        out += np.roll(flux, 1, axis=i) - flux
    return ScalarField.from_grid(u.box, out)


def heat_kernel_diagonal(t: float, box: BoxSpec) -> float:
    """p(t, 0) of the lattice heat kernel, as the mean of exp(-t symbol) over the dual box."""
    return float(np.mean(np.exp(-t * symbol(box))))


def reference_csv_text(header: list[str], columns: list) -> str:
    """The per-value CSV writer that ``lattice._CsvText`` replaced, kept as its
    oracle: ``format(v, ".16e")`` for each float, ``str`` for anything else."""
    def column_text(column):
        values = np.asarray(column)
        fmt = "{:.16e}".format if values.dtype.kind == "f" else str
        return map(fmt, values.tolist())

    rows = zip(*map(column_text, columns))
    return "\n".join([",".join(header), *map(",".join, rows)]) + "\n"


def random_coefficients(box: BoxSpec, rng: np.random.Generator,
                        lam: float = 0.2, lo: float = 0.25, hi: float = 0.75) -> CoefficientField:
    diag = rng.uniform(lo, hi, size=(box.n_sites, box.d))
    return CoefficientField(box, diag, lam=lam)


def ill_conditioned_op(box: BoxSpec):
    """A grid operator CG cannot converge on at any accepted tol: diagonal, with
    entries spread over twelve decades, so no iteration is a breakdown."""
    w = np.logspace(-12, 0, box.n_sites).reshape(box.shape, order="F")
    return lambda u: w * u


def constant_green(a: CoefficientField, y: int = 0, cfg=None):
    """Stand-in for ``elliptic.green`` whose field, and so its quenched profile, is 0."""
    return ScalarField(a.box, np.zeros(a.box.n_sites)), SolveReport(0, 0.0, True)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
