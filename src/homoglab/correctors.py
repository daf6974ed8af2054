"""Correctors, flux correctors and homogenized coefficient extraction.

Per coefficient sample on a periodic box:

* corrector        phi_xi, mean zero, with div*(a (grad phi + xi)) = 0;
* flux             q = a (grad phi + xi) minus its box average, so q has
                   exactly zero mean and div* q = 0 to solver tolerance;
* flux corrector   sigma_{jk}, skew symmetric, solving the Poisson equation
                   div* grad sigma_{jk} = grad_k q_j - grad_j q_k exactly
                   by FFT, with div* sigma = q to the corrector's tolerance;
* homogenized row  the box average of a (grad phi_i + e_i), which is the
                   column a_hom e_i of the cell-problem matrix.

On a finite torus the ensemble-level homogenized matrix in the definition
of q is replaced by the per-sample box average of the flux; the
substitution is what makes q exactly mean free (and the sigma equation
solvable) and vanishes in the large-box limit.

Variational facts of every solve: the box mean of grad phi is zero
exactly, mean|grad phi + xi|^2 <= |xi|^2 / lam^2 and
mean|grad phi|^2 <= (1 - lam^2)/lam^2 * |xi|^2; a solve that breaks either
bound raises SolverError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ensembles import EnsembleSpec, _mean_stderr, _sample_count, per_sample
from .lattice import (
    BoxSpec,
    CoefficientField,
    ScalarField,
    SkewField,
    VectorField,
    _div_star_arr,
    _grad_arr,
    _norm,
    div_star,
    grad,
)
from .elliptic import (
    SolveReport,
    SolverConfig,
    SolverError,
    solve_elliptic,
    solve_shifted,
    _checked,
    _fix_gauge,
)
from .spectral import inverse

__all__ = [
    "CorrectorSet",
    "HomogenizedTensor",
    "solve_corrector",
    "flux",
    "solve_flux_corrector",
    "solve_modified_corrector",
    "corrector_set",
    "ahom_cell",
    "ahom_rve",
    "verify_ahom_properties",
    "unit_direction_grid",
]


@dataclass(frozen=True)
class CorrectorSet:
    """Extended corrector for one coordinate direction."""

    direction: int
    phi: ScalarField
    q: VectorField
    sigma: SkewField
    ahom_row: np.ndarray  # box average of a(grad phi + e_i), i.e. a_hom e_i
    reports: tuple[SolveReport, ...] = ()


@dataclass(frozen=True)
class HomogenizedTensor:
    matrix: np.ndarray          # (d, d)
    stderr: np.ndarray          # (d, d); zero for deterministic cell problems
    n_samples: int


def _energy_checks(a: CoefficientField, phi: ScalarField, xi: np.ndarray) -> None:
    g = grad(phi).values
    xi_norm2 = float(xi @ xi)
    lam = a.lam
    m_shifted = float(np.mean(np.sum((g + xi) ** 2, axis=1)))
    m_grad = float(np.mean(np.sum(g**2, axis=1)))
    slack = 1e-9 * max(xi_norm2, 1.0)
    if not m_shifted <= xi_norm2 / lam**2 + slack:
        raise SolverError(
            f"corrector energy bound violated: mean|grad phi + xi|^2 = {m_shifted} "
            f"> |xi|^2/lam^2 = {xi_norm2 / lam**2}")
    if not m_grad <= (1.0 - lam**2) / lam**2 * xi_norm2 + slack:
        raise SolverError(
            f"corrector energy bound violated: mean|grad phi|^2 = {m_grad} "
            f"> (1-lam^2)/lam^2 |xi|^2 = {(1.0 - lam**2) / lam**2 * xi_norm2}")


def solve_corrector(a: CoefficientField, xi, cfg: SolverConfig = SolverConfig()
                    ) -> tuple[ScalarField, SolveReport]:
    """Mean-zero phi with div*(a (grad phi + xi)) = 0 to tolerance.

    Linear in xi to solver tolerance.  The right-hand side -div*(a xi) has
    exactly zero sum, so the singular solve is well posed.
    """
    xi = np.asarray(xi, dtype=np.float64)
    if xi.shape != (a.box.d,) or not np.any(xi):
        raise ValueError(f"direction must be a nonzero vector of length {a.box.d}")
    rhs = div_star(VectorField(a.box, -a.diag * xi))
    phi, rep = solve_elliptic(a, rhs, cfg)
    _energy_checks(a, phi, xi)
    return phi, rep


def flux(a: CoefficientField, phi: ScalarField, xi) -> VectorField:
    """Centered flux q = a (grad phi + xi) - box average; exactly mean zero."""
    xi = np.asarray(xi, dtype=np.float64)
    raw = a.diag * (grad(phi).values + xi)
    return VectorField(a.box, raw - raw.mean(axis=0))


def flux_average(a: CoefficientField, phi: ScalarField, xi) -> np.ndarray:
    """Box average of the uncentered flux a (grad phi + xi): the a_hom column."""
    xi = np.asarray(xi, dtype=np.float64)
    return (a.diag * (grad(phi).values + xi)).mean(axis=0)


def solve_flux_corrector(q: VectorField, cfg: SolverConfig = SolverConfig()
                         ) -> tuple[SkewField, list[SolveReport]]:
    """Skew-symmetric sigma with div* grad sigma_{jk} = grad_k q_j - grad_j q_k.

    Solves the Poisson problem of each pair j < k exactly by FFT and mirrors
    with the sign flip; in d=1 there are no pairs and sigma = 0.  Requires
    mean-zero q (raises otherwise); div* sigma = q then holds to the
    tolerance of the solve that produced q.  A pair's report has 0
    iterations and the measured residual; it is no CG solve, so it is not
    added to the active report collector.
    """
    box = q.box
    means = q.values.mean(axis=0)
    if np.max(np.abs(means)) > 1e-12 * (1.0 + np.abs(q.values).max()):
        raise ValueError(f"flux must have zero mean per component; got {means}")
    d = box.d
    sigma = np.zeros((box.n_sites, d, d))
    reports: list[SolveReport] = []
    poisson = inverse(box, 0.0)
    for j in range(d):
        for k in range(j + 1, d):
            rhs = _grad_arr(q.grid(j), k) - _grad_arr(q.grid(k), j)
            s = poisson(rhs)
            _fix_gauge(s, cfg)
            residual = rhs - _div_star_arr([_grad_arr(s, i) for i in range(d)])
            bnorm = _norm(rhs)
            rel = _norm(residual) / bnorm if bnorm else 0.0
            s, rep = _checked((ScalarField.from_grid(box, s), SolveReport(0, rel, rel <= cfg.tol)),
                              f"flux corrector ({j},{k})")
            reports.append(rep)
            sigma[:, j, k] = s.values
            sigma[:, k, j] = -s.values
    return SkewField(box, sigma), reports


def div_star_skew(sigma: SkewField) -> VectorField:
    """(div* sigma)_j = sum_k grad*_k sigma_{jk}."""
    box = sigma.box
    out = np.zeros((box.n_sites, box.d))
    for j in range(box.d):
        comps = [sigma.values[:, j, k].reshape(box.shape, order="F") for k in range(box.d)]
        out[:, j] = _div_star_arr(comps).ravel(order="F")
    return VectorField(box, out)


def solve_modified_corrector(a: CoefficientField, xi, T: float,
                             cfg: SolverConfig = SolverConfig()
                             ) -> tuple[ScalarField, SolveReport]:
    """Massive corrector: (1/T) phi_T + div*(a (grad phi_T + xi)) = 0.

    Strictly positive operator, no mean constraint.  Satisfies the energy
    identity (1/T)||phi_T||^2 + <grad phi_T, a (grad phi_T + xi)> = 0 and
    the a priori bound mean((1/T) phi_T^2 + |grad phi_T|^2)
    <= (2/lam + 4/lam^2) |xi|^2.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    xi = np.asarray(xi, dtype=np.float64)
    rhs = div_star(VectorField(a.box, -a.diag * xi))
    phi_T, rep = solve_shifted(a, 1.0 / T, rhs, cfg)
    lam = a.lam
    xi_norm2 = float(xi @ xi)
    g = grad(phi_T).values
    energy = float(np.mean(phi_T.values**2 / T + np.sum(g**2, axis=1)))
    bound = (2.0 / lam + 4.0 / lam**2) * xi_norm2
    if not energy <= bound + 1e-9 * max(1.0, xi_norm2):
        raise SolverError(f"massive corrector energy {energy} exceeds a priori bound {bound}")
    return phi_T, rep


def corrector_set(a: CoefficientField, direction: int,
                  cfg: SolverConfig = SolverConfig()) -> CorrectorSet:
    """Solve the full (phi, q, sigma, a_hom row) chain for one direction."""
    d = a.box.d
    xi = np.zeros(d)
    xi[direction] = 1.0
    phi, rep_phi = solve_corrector(a, xi, cfg)
    row = flux_average(a, phi, xi)
    q = flux(a, phi, xi)
    sigma, reps_sigma = solve_flux_corrector(q, cfg)
    return CorrectorSet(direction, phi, q, sigma, row, (rep_phi, *reps_sigma))


def ahom_cell(a: CoefficientField, cfg: SolverConfig = SolverConfig()) -> HomogenizedTensor:
    """Homogenized matrix of the periodic cell problem (whole box = period).

    Column i is the box average of a (grad phi_i + e_i); stderr is zero.
    """
    d = a.box.d
    A = np.zeros((d, d))
    for i in range(d):
        xi = np.zeros(d)
        xi[i] = 1.0
        phi, _ = solve_corrector(a, xi, cfg)
        A[:, i] = flux_average(a, phi, xi)
    return HomogenizedTensor(A, np.zeros((d, d)), 1)


def ahom_rve(spec: EnsembleSpec, box: BoxSpec, n_samples: int,
             cfg: SolverConfig = SolverConfig(),
             map_fn: Callable = map) -> HomogenizedTensor:
    """Monte Carlo mean of per-sample periodized cell matrices.

    stderr is the entrywise sample standard deviation divided by sqrt(n).
    Deterministic in (spec.master_seed, box, n_samples); ``map_fn`` may be a
    parallel map, the aggregation below runs in fixed sample order either way.
    """
    _sample_count(n_samples, 2)
    mats = np.stack(per_sample(spec, box, n_samples,
                               lambda a, i: ahom_cell(a, cfg).matrix, map_fn))
    return HomogenizedTensor(*_mean_stderr(mats), n_samples)


def unit_direction_grid(d: int) -> np.ndarray:
    """Deterministic grid of 64 unit vectors used for ellipticity checks."""
    count = 64
    if d == 1:
        return np.array([[1.0], [-1.0]])
    if d == 2:
        th = 2.0 * np.pi * np.arange(count) / count
        return np.stack([np.cos(th), np.sin(th)], axis=1)
    # Fibonacci sphere
    i = np.arange(count) + 0.5
    z = 1.0 - 2.0 * i / count
    r = np.sqrt(np.maximum(0.0, 1.0 - z**2))
    th = np.pi * (1.0 + np.sqrt(5.0)) * i
    return np.stack([r * np.cos(th), r * np.sin(th), z], axis=1)


@dataclass(frozen=True)
class AhomPropertyReport:
    ellipticity_pass: bool
    min_quadratic_form: float
    symmetry_pass: bool
    symmetry_gap: float
    symmetry_tolerance: float

    @property
    def all_pass(self) -> bool:
        return self.ellipticity_pass and self.symmetry_pass


def verify_ahom_properties(A: HomogenizedTensor, lam: float) -> AhomPropertyReport:
    """Check ellipticity and symmetry of a homogenized tensor.

    Ellipticity: xi . A xi >= lam |xi|^2 over a grid of unit directions.
    Symmetry: for symmetric (here: diagonal) coefficient ensembles the
    tensor must be symmetric within 3x the statistical scale; on that class
    the transposition identity degenerates to this symmetry check.
    """
    M = A.matrix
    xis = unit_direction_grid(M.shape[0])
    qf = np.einsum("ki,ij,kj->k", xis, M, xis)
    min_qf = float(qf.min())
    gap = float(np.max(np.abs(M - M.T)))
    # statistical scale: combined stderr of the antisymmetric part, with a
    # floor at solver-tolerance scale for deterministic cell problems
    scale = float(np.max(A.stderr + A.stderr.T)) if A.stderr.any() else 0.0
    tol = 3.0 * scale + 1e-8 * max(1.0, float(np.abs(M).max()))
    return AhomPropertyReport(
        ellipticity_pass=bool(min_qf >= lam - 1e-12),
        min_quadratic_form=min_qf,
        symmetry_pass=bool(gap <= tol),
        symmetry_gap=gap,
        symmetry_tolerance=tol,
    )
