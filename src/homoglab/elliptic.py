"""Matrix-free solvers on the periodic box.

Conjugate gradient for the SPD lattice operators, massive-term solves,
periodic Green's functions and the exact spectral heat kernel.  All solves
are deterministic: CG with a fixed iteration schedule, the true
residual refreshed every 50 steps to keep rounding drift in check, and
a fixed cap of 50 iterations per site.

The CG kernel applies div*(a grad .) in flux form, sum_i f_i(x) - f_i(x - e_i)
with f_i = a_i (u - u(. + e_i)), by contiguous slices of the flat field in
slabs that stay in cache (``_elliptic_op``).  It updates its vectors in
place in the right-hand side's memory order, and takes every norm and
inner product from ``lattice._dot``, one ``einsum`` pass with no
temporary.  No step calls BLAS, so a solve gives the same bits at any
BLAS thread count.  ``apply_elliptic`` (``np.roll`` differences on the
grid) and ``elliptic_matrix`` (dense assembly by ``np.add.at``) stay
independent of the stencil, as the oracles the tests check it against.

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
    ParameterError,
    ScalarField,
    _dot,
    _norm,
    neighbours,
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


# the smallest tol: solves at 1e-13 converge at d = 2 and 3 with either preconditioner,
# while a tol near rounding (a capped solve ends at 1e-15 to 6e-14) runs to the cap
MIN_TOL = 1e-13


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-10          # relative residual target
    preconditioner: str = "spectral"  # or "none": plain CG

    def __post_init__(self):
        if isinstance(self.tol, bool) or not MIN_TOL <= self.tol < np.inf:
            raise ParameterError(f"tol must be a number in [{MIN_TOL}, inf), got {self.tol!r}")
        if self.preconditioner not in ("none", "spectral"):
            raise ParameterError(f"unknown preconditioner {self.preconditioner!r}")


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    final_relative_residual: float
    converged: bool
    rhs_mean_subtracted: float = 0.0


class ReportCollector:
    """Thread-safe record of a scope's solve reports for run manifests.

    ``reports`` holds every CG solve report in completion order; ``summary``
    reduces it with order-independent aggregates only, so manifests do not
    depend on worker scheduling.  ``dense_solves`` counts inverted dense
    matrices, which ``summary`` (the CG solves) leaves out.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.reports: list[SolveReport] = []
        self.dense_solves = 0

    def add(self, rep: "SolveReport") -> None:
        with self._lock:
            self.reports.append(rep)

    def add_dense(self, count: int) -> None:
        with self._lock:
            self.dense_solves += count

    def summary(self) -> dict:
        reps = self.reports
        return {
            "n_solves": len(reps),
            "total_iterations": sum(r.iterations for r in reps),
            "max_iterations": max((r.iterations for r in reps), default=0),
            "max_final_relative_residual": max((r.final_relative_residual for r in reps),
                                               default=0.0),
            "all_converged": all(r.converged for r in reps),
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
    subtracted (and reported) and the solution returned mean-zero.
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
    max_iter = 50 * box.n_sites
    it = 0
    rel = 1.0
    while it < max_iter:
        Ap = operator(p)
        pAp = _dot(p, Ap)
        if not pAp > 0:  # p = 0 (a preconditioner that rounds r to 0) or non-finite
            raise SolverError(f"CG breakdown: p^T A p = {pAp} at iteration {it}",
                              SolveReport(it, rel, False, removed))
        alpha = rz / pAp
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
        x -= x.mean()
    return ScalarField.from_grid(box, x), _report(SolveReport(it, rel, converged, removed))


def _checked(rep: SolveReport, what: str) -> SolveReport:
    if not rep.converged:
        raise SolverError(
            f"{what}: not converged after {rep.iterations} iterations "
            f"(residual {rep.final_relative_residual:.3e})",
            rep,
        )
    return rep


# sites per slab of the flux stencil: its flux buffer and the slab's slices of u,
# of the output and of each a_i, 0.5 MB each, stay in cache between its passes.  On a
# 2-core Xeon (4 MB L2), 2^15 tied at d=3, L=64 and was slower at d=2, L=512 (0.92
# against 0.88 ms per apply) and d=3, L=48 (0.63 against 0.52 ms); 2^14 and 2^18
# were slower at d=3, L=64 (1.7 and 2.2 ms against 1.4 ms)
_SLAB_SITES = 2**16


def _elliptic_op(a: CoefficientField, shift: float = 0.0):
    """Grid callable u -> (shift + div*(a grad .)) u from the flux stencil.

    div*(a grad u)(x) = sum_i f_i(x) - f_i(x - e_i), with the flux
    f_i = a_i (u - u(. + e_i)).  On the F-ordered flat vector, x + e_i is
    the site ``L**i`` further on, except on the face x_i = L - 1, where it
    wraps; each difference is one contiguous slice, and the wrap faces are
    fixed up after it.  Along the slowest axis the wrap is the flat vector's
    own, so that axis needs no fix-up.  The sites run in slabs of whole
    planes of about ``_SLAB_SITES``, so every pass over a slab reads from
    cache.  The flux buffer is the operator's own: no two solves share it.
    """
    box = a.box
    L, d, n = box.L, box.d, box.n_sites
    plane = L ** (d - 1)
    step = max(1, _SLAB_SITES // plane) * plane
    cols = [a.diag[:, i] for i in range(d)]  # contiguous: diag is column-major
    flux = np.empty(min(step, n) + plane)

    def op(u: np.ndarray) -> np.ndarray:
        v = u.ravel(order="F")
        out = np.empty(n)
        for lo in range(0, n, step):
            hi = min(lo + step, n)
            m = hi - lo
            us, o = v[lo:hi], out[lo:hi]
            # slowest axis: f on the plane before the slab (the last plane when the
            # slab is the first), then on the slab, whose last plane steps to hi mod n
            f, prev, nxt, c = flux[:m + plane], (lo or n) - plane, hi % n, cols[-1]
            np.subtract(v[prev:prev + plane], us[:plane], out=f[:plane])
            np.subtract(us[:m - plane], us[plane:], out=f[plane:m])
            np.subtract(us[m - plane:], v[nxt:nxt + plane], out=f[m:])
            f[:plane] *= c[prev:prev + plane]
            f[plane:] *= c[lo:hi]
            np.subtract(f[plane:], f[:m], out=o)
            if shift:
                o += shift * us
            # faster axes: blocks of L * s sites, whose faces x_i = L - 1 and x_i = 0
            # are [:, -1] and [:, 0] of the (blocks, L, s) views
            for i in range(d - 1):
                s = L**i
                f = flux[:m]
                fv, uv, ov = (w.reshape(-1, L, s) for w in (f, us, o))
                np.subtract(us[:m - s], us[s:], out=f[:m - s])
                np.subtract(uv[:, -1], uv[:, 0], out=fv[:, -1])
                f *= cols[i][lo:hi]
                o += f
                # the shifted slice gives the face x_i = 0 the flux of the block before;
                # it takes its own block's face x_i = L - 1, kept aside and put back
                face = ov[:, 0] - fv[:, -1]
                o[s:] -= f[:m - s]
                ov[:, 0] = face
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
    u, rep = cg_solve(_elliptic_op(a, shift), rhs, cfg, singular=shift == 0, precond=precond)
    return u, _checked(rep, what)


def solve_elliptic(a: CoefficientField, rhs: ScalarField,
                   cfg: SolverConfig = SolverConfig()) -> tuple[ScalarField, SolveReport]:
    """Solve div*(a grad u) = rhs on the mean-zero subspace."""
    return _solve(a, 0.0, rhs, cfg, "solve_elliptic")


def solve_shifted(a: CoefficientField, shift: float, rhs: ScalarField,
                  cfg: SolverConfig = SolverConfig()) -> tuple[ScalarField, SolveReport]:
    """Solve shift * u + div*(a grad u) = rhs for shift > 0 (strictly positive)."""
    if not 0 < shift < np.inf:
        raise ParameterError(f"shift must be positive and finite, got {shift}")
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
        raise ParameterError("t must be >= 0")
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
