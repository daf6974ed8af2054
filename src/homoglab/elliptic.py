"""Matrix-free solvers on the periodic box.

Conjugate gradient for the SPD lattice operators, massive-term solves,
periodic Green's functions and the exact spectral heat kernel.  All solves
are deterministic: CG with a fixed iteration schedule, the true
residual refreshed every 50 steps to keep rounding drift in check.

The CG kernel applies div*(a grad .) as ``diag(D) - W - W^T`` from
``lattice.stencil``, a CSR matrix that shares the coefficient table,
updates its vectors in place in the right-hand side's memory order, and
takes every norm and inner product from ``lattice._dot``, one ``einsum``
pass with no temporary.  No step calls BLAS, so a solve gives the same
bits at any BLAS thread count.  ``apply_elliptic`` (differences on the
grid) and ``elliptic_matrix`` (dense assembly) stay independent of the
stencil, as the oracles the tests check it against.

The elliptic operator div*(a grad .) has the constants as kernel, so
singular problems are solved on the mean-zero subspace (the right-hand
side's mean is subtracted and reported).  Strictly positive operators
(massive term ``shift > 0``) need no projection.

Everything on the Fourier side comes from ``spectral``: the default CG
preconditioner (``spectral.inverse`` of ``shift + mean(a) * div* grad``),
which changes iteration counts, never results beyond the residual
tolerance, and the heat kernel (``spectral.smooth`` of a Dirac).  The
preconditioner runs its FFTs in float32: CG only needs an approximate
inverse there, and every residual and the convergence test stay float64.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from .lattice import (
    BoxSpec,
    CoefficientField,
    ScalarField,
    _dot,
    _norm,
    neighbours,
    stencil,
)
from .spectral import inverse, smooth

__all__ = [
    "SolverConfig",
    "SolveReport",
    "SolverError",
    "cg_solve",
    "solve_elliptic",
    "solve_shifted",
    "green",
    "heat_kernel",
    "elliptic_matrix",
]


class SolverError(RuntimeError):
    """CG failed to converge, or the iteration produced non-finite values."""

    def __init__(self, message: str, report: "SolveReport | None" = None):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-10          # relative residual target
    max_iter: int | None = None  # default 50 * n_sites
    anchor: str = "mean-zero"    # or "site-zero"
    preconditioner: str = "spectral"  # or "none": plain CG

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.anchor not in ("mean-zero", "site-zero"):
            raise ValueError(f"unknown anchor {self.anchor!r}")
        if self.preconditioner not in ("none", "spectral"):
            raise ValueError(f"unknown preconditioner {self.preconditioner!r}")


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    final_relative_residual: float
    converged: bool
    rhs_mean_subtracted: float = 0.0


class ReportCollector:
    """Thread-safe aggregation of solve reports for run manifests.

    Only order-independent aggregates are kept, so manifests do not depend
    on worker scheduling.  ``dense_solves`` counts inverted dense matrices,
    which ``summary`` (the CG solves) leaves out.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.n_solves = 0
        self.total_iterations = 0
        self.max_iterations = 0
        self.max_residual = 0.0
        self.all_converged = True
        self.dense_solves = 0

    def add(self, rep: "SolveReport") -> None:
        with self._lock:
            self.n_solves += 1
            self.total_iterations += rep.iterations
            self.max_iterations = max(self.max_iterations, rep.iterations)
            self.max_residual = max(self.max_residual, rep.final_relative_residual)
            self.all_converged = self.all_converged and rep.converged

    def add_dense(self, count: int) -> None:
        with self._lock:
            self.dense_solves += count

    def summary(self) -> dict:
        return {
            "n_solves": self.n_solves,
            "total_iterations": self.total_iterations,
            "max_iterations": self.max_iterations,
            "max_final_relative_residual": self.max_residual,
            "all_converged": self.all_converged,
        }


_scopes = ContextVar("report_scopes", default=())  # collectors of the enclosing scopes


@contextmanager
def collecting_reports():
    """Route every cg_solve report and dense inverse of this context into a
    fresh collector.

    Scopes nest: a report reaches the collector of every enclosing scope.
    The scope is context-local, so concurrent runs in separate threads keep
    separate counts; ``ensembles.per_block`` carries it into pool workers.
    """
    collector = ReportCollector()
    token = _scopes.set(_scopes.get() + (collector,))
    try:
        yield collector
    finally:
        _scopes.reset(token)


def _report(rep: SolveReport) -> SolveReport:
    for collector in _scopes.get():
        collector.add(rep)
    return rep


def _report_dense(count: int) -> None:
    """Count ``count`` inverted dense matrices in every enclosing report scope."""
    for collector in _scopes.get():
        collector.add_dense(count)


def cg_solve(operator, rhs: ScalarField, cfg: SolverConfig = SolverConfig(),
             *, singular: bool = True, precond=None) -> tuple[ScalarField, SolveReport]:
    """Conjugate gradient for an SPD lattice operator.

    ``operator`` maps grid arrays to grid arrays.  With ``singular=True`` the
    operator is assumed to have the constants as kernel: the rhs mean is
    subtracted (and reported) and the solution returned mean-zero; with
    ``anchor='site-zero'`` the constant is fixed by u(site 0) = 0 instead.
    """
    box = rhs.box
    b = rhs.grid().astype(np.float64, copy=True)
    removed = 0.0
    if singular:
        removed = float(b.mean())
        b -= removed
    bnorm = _norm(b)
    if bnorm == 0.0:
        return ScalarField.zeros(box), _report(SolveReport(0, 0.0, True, removed))

    # every vector keeps b's memory order, so no update transposes
    x = np.zeros_like(b)
    r = b.copy(order="K")
    z = precond(r) if precond is not None else r
    p = z.copy(order="K")
    step = np.empty_like(b)
    rz = _dot(r, z)
    max_iter = cfg.max_iter if cfg.max_iter is not None else 50 * box.n_sites
    it = 0
    rel = 1.0
    while it < max_iter:
        Ap = operator(p)
        alpha = rz / _dot(p, Ap)
        x += np.multiply(p, alpha, out=step)
        it += 1
        if it % 50 == 0:
            np.subtract(b, operator(x), out=r)  # refresh true residual
        else:
            r -= np.multiply(Ap, alpha, out=step)
        rel = _norm(r) / bnorm
        if not np.isfinite(rel):
            raise SolverError("CG produced non-finite residual",
                              SolveReport(it, rel, False, removed))
        if rel <= cfg.tol:
            break
        z = precond(r) if precond is not None else r
        rz_new = _dot(r, z)
        p *= rz_new / rz
        p += z
        rz = rz_new

    # exact true residual for the report
    rel = _norm(b - operator(x)) / bnorm
    converged = rel <= cfg.tol
    if singular:
        _fix_gauge(x, cfg)
    return ScalarField.from_grid(box, x), _report(SolveReport(it, rel, converged, removed))


def _fix_gauge(x: np.ndarray, cfg: SolverConfig) -> None:
    """Pick the representative of a solution defined up to a constant, in place."""
    x -= x.mean()
    if cfg.anchor == "site-zero":
        x -= x.ravel(order="F")[0]


def _checked(result: tuple[ScalarField, SolveReport], what: str) -> tuple[ScalarField, SolveReport]:
    u, rep = result
    if not rep.converged:
        raise SolverError(
            f"{what}: not converged after {rep.iterations} iterations "
            f"(residual {rep.final_relative_residual:.3e})",
            rep,
        )
    return u, rep


def _elliptic_op(a: CoefficientField, shift: float = 0.0):
    """Grid callable u -> (shift + div*(a grad .)) u from the half stencil."""
    D, W = stencil(a)
    if shift:
        D = D + shift
    Wt = W.T

    def op(u: np.ndarray) -> np.ndarray:
        v = u.ravel(order="F")
        out = D * v
        out -= W @ v
        out -= Wt @ v
        return out.reshape(u.shape, order="F")

    return op


def _solve(a: CoefficientField, shift: float, rhs: ScalarField, cfg: SolverConfig,
           what: str) -> tuple[ScalarField, SolveReport]:
    """CG for shift * u + div*(a grad u) = rhs, on the mean-zero subspace when
    shift is 0, preconditioned by the spectral inverse of shift + mean(a) div* grad
    unless ``cfg`` asks for plain CG; a ``SolverError`` naming ``what`` unless
    it converges."""
    precond = None
    if cfg.preconditioner == "spectral":
        precond = inverse(a.box, shift, float(a.diag.mean()) * np.eye(a.box.d), np.float32)
    return _checked(cg_solve(_elliptic_op(a, shift), rhs, cfg, singular=shift == 0,
                             precond=precond), what)


def solve_elliptic(a: CoefficientField, rhs: ScalarField,
                   cfg: SolverConfig = SolverConfig()) -> tuple[ScalarField, SolveReport]:
    """Solve div*(a grad u) = rhs on the mean-zero subspace."""
    return _solve(a, 0.0, rhs, cfg, "solve_elliptic")


def solve_shifted(a: CoefficientField, shift: float, rhs: ScalarField,
                  cfg: SolverConfig = SolverConfig()) -> tuple[ScalarField, SolveReport]:
    """Solve shift * u + div*(a grad u) = rhs for shift > 0 (strictly positive)."""
    if shift <= 0:
        raise ValueError("shift must be positive")
    return _solve(a, shift, rhs, cfg, "solve_shifted")


def green(a: CoefficientField, y: int = 0,
          cfg: SolverConfig = SolverConfig()) -> tuple[ScalarField, SolveReport]:
    """Mean-zero periodic Green's function: div*(a grad G) = delta_y - 1/N.

    The plain Dirac is incompatible with the kernel of the operator on a
    torus, hence the subtracted uniform charge.
    """
    box = a.box
    rhs = np.full(box.n_sites, -1.0 / box.n_sites)
    rhs[y] += 1.0
    return solve_elliptic(a, ScalarField(box, rhs), cfg)


def heat_kernel(t: float, box: BoxSpec) -> ScalarField:
    """p(t, .) solving dp/dt + div* grad p = 0, p(0, .) = delta_0.

    Computed exactly through the spectral representation on the torus;
    nonnegative, total mass 1, and sum_x p(t,x)^2 = p(2t, 0).
    Valid as a stand-in for the infinite lattice only while t << L^2
    (experiments keep t <= (L/8)^2).
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    p = smooth(ScalarField.delta(box).grid(), t)
    np.clip(p, 0.0, None, out=p)  # wrap sum of nonnegatives; clip FFT rounding dust
    return ScalarField.from_grid(box, p)


def elliptic_matrix(a: CoefficientField) -> np.ndarray:
    """Dense matrix of div*(a grad .) in site-index order.

    Intended for small boxes (direct solves, eigenvalue checks); the stencil
    is assembled from the coefficient table without going through the
    operator, so it doubles as an independent cross-check of apply_elliptic.
    """
    return _elliptic_matrices(a.box, a.diag[None])[0]


def _elliptic_matrices(box: BoxSpec, diag: np.ndarray) -> np.ndarray:
    """:func:`elliptic_matrix` of each field of a (B, N, d) stack of diagonals, (B, N, N)."""
    n = box.n_sites
    fwd, _ = neighbours(box)
    A = np.zeros((diag.shape[0], n, n))
    idx = np.arange(n)
    every = slice(None)
    for i in range(box.d):
        j = fwd[:, i]
        ai = diag[:, :, i]
        # edge x -> x+e_i with conductance a_i(x) contributes the usual
        # graph-Laplacian pattern
        np.add.at(A, (every, idx, idx), ai)
        np.add.at(A, (every, j, j), ai)
        np.add.at(A, (every, idx, j), -ai)
        np.add.at(A, (every, j, idx), -ai)
    return A
