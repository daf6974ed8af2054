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

from .ensembles import EnsembleSpec, _mean_stderr, per_sample
from .lattice import (
    BoxSpec,
    CoefficientField,
    ParameterError,
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
    # / lam / lam: lam**2 underflows to 0 below lam ~ 1e-162, and the bound is then inf
    if not m_shifted <= xi_norm2 / lam / lam + slack:
        raise SolverError(
            f"corrector energy bound violated: mean|grad phi + xi|^2 = {m_shifted} "
            f"> |xi|^2/lam^2 = {xi_norm2 / lam / lam}")
    if not m_grad <= (1.0 - lam * lam) / lam / lam * xi_norm2 + slack:
        raise SolverError(
            f"corrector energy bound violated: mean|grad phi|^2 = {m_grad} "
            f"> (1-lam^2)/lam^2 |xi|^2 = {(1.0 - lam * lam) / lam / lam * xi_norm2}")


def _direction(a: CoefficientField, xi) -> tuple[np.ndarray, ScalarField]:
    """``xi`` as an array and the right-hand side -div*(a xi) of both corrector
    solves; ``ParameterError`` unless xi is a nonzero vector of length d."""
    xi = np.asarray(xi, dtype=np.float64)
    if xi.shape != (a.box.d,) or not np.any(xi):
        raise ParameterError(f"direction must be a nonzero vector of length {a.box.d}")
    return xi, div_star(VectorField(a.box, -a.diag * xi))


def solve_corrector(a: CoefficientField, xi, cfg: SolverConfig = SolverConfig()
                    ) -> tuple[ScalarField, SolveReport]:
    """Mean-zero phi with div*(a (grad phi + xi)) = 0 to tolerance.

    Linear in xi to solver tolerance.  The right-hand side -div*(a xi) has
    exactly zero sum, so the singular solve is well posed.
    """
    xi, rhs = _direction(a, xi)
    phi, rep = solve_elliptic(a, rhs, cfg)
    _energy_checks(a, phi, xi)
    return phi, rep


def flux(a: CoefficientField, phi: ScalarField, xi) -> tuple[VectorField, np.ndarray]:
    """``(q, row)``: ``row`` is the box average of a (grad phi + xi), the a_hom
    column, and q = a (grad phi + xi) - row the centered flux, exactly mean zero."""
    xi = np.asarray(xi, dtype=np.float64)
    raw = a.diag * (grad(phi).values + xi)
    row = raw.mean(axis=0)
    return VectorField(a.box, raw - row), row


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
        raise ParameterError(f"flux must have zero mean per component; got {means}")
    d = box.d
    sigma = np.zeros((box.n_sites, d, d))
    reports: list[SolveReport] = []
    poisson = inverse(box, 0.0)
    for j in range(d):
        for k in range(j + 1, d):
            rhs = _grad_arr(q.grid(j), k) - _grad_arr(q.grid(k), j)
            s = poisson(rhs)
            s -= s.mean()
            residual = rhs - _div_star_arr([_grad_arr(s, i) for i in range(d)])
            bnorm = _norm(rhs)
            rel = _norm(residual) / bnorm if bnorm else 0.0
            reports.append(_checked(SolveReport(0, rel, rel <= cfg.tol),
                                    f"flux corrector ({j},{k})"))
            sigma[:, j, k] = s.ravel(order="F")
            sigma[:, k, j] = -sigma[:, j, k]
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
        raise ParameterError("T must be positive")
    xi, rhs = _direction(a, xi)
    phi_T, rep = solve_shifted(a, 1.0 / T, rhs, cfg)
    lam = a.lam
    xi_norm2 = float(xi @ xi)
    g = grad(phi_T).values
    energy = float(np.mean(phi_T.values**2 / T + np.sum(g**2, axis=1)))
    bound = (2.0 / lam + 4.0 / lam / lam) * xi_norm2  # inf, not 1/0, for a tiny lam
    if not energy <= bound + 1e-9 * max(1.0, xi_norm2):
        raise SolverError(f"massive corrector energy {energy} exceeds a priori bound {bound}")
    return phi_T, rep


def corrector_set(a: CoefficientField, direction: int,
                  cfg: SolverConfig = SolverConfig()) -> CorrectorSet:
    """Solve the full (phi, q, sigma, a_hom row) chain for one direction."""
    d = a.box.d
    if direction not in range(d):
        raise ParameterError(f"direction must be one of 0..{d - 1}, got {direction}")
    xi = np.eye(d)[direction]
    phi, rep_phi = solve_corrector(a, xi, cfg)
    q, row = flux(a, phi, xi)
    sigma, reps_sigma = solve_flux_corrector(q, cfg)
    return CorrectorSet(direction, phi, q, sigma, row, (rep_phi, *reps_sigma))


def ahom_cell(a: CoefficientField, cfg: SolverConfig = SolverConfig()) -> HomogenizedTensor:
    """Homogenized matrix of the periodic cell problem (whole box = period).

    Column i is the box average of a (grad phi_i + e_i); stderr is zero.
    """
    d = a.box.d
    A = np.zeros((d, d))
    for i, xi in enumerate(np.eye(d)):
        phi, _ = solve_corrector(a, xi, cfg)
        A[:, i] = flux(a, phi, xi)[1]
    return HomogenizedTensor(A, np.zeros((d, d)), 1)


def ahom_rve(spec: EnsembleSpec, box: BoxSpec, n_samples: int,
             cfg: SolverConfig = SolverConfig(),
             map_fn: Callable = map) -> HomogenizedTensor:
    """Monte Carlo mean of per-sample periodized cell matrices.

    stderr is the entrywise sample standard deviation divided by sqrt(n).
    Deterministic in (spec.master_seed, box, n_samples); ``map_fn`` may be a
    parallel map, the aggregation below runs in fixed sample order either way.
    """
    mats = per_sample(spec, box, n_samples, lambda a, i: ahom_cell(a, cfg).matrix, map_fn,
                      least=2)
    return HomogenizedTensor(*_mean_stderr(mats), n_samples)


@dataclass(frozen=True)
class AhomPropertyReport:
    ellipticity_pass: bool
    min_quadratic_form: float
    symmetry_pass: bool
    symmetry_gap: float
    symmetry_tolerance: float


def verify_ahom_properties(A: HomogenizedTensor, lam: float) -> AhomPropertyReport:
    """Check ellipticity and symmetry of a homogenized tensor.

    Ellipticity: ``min_quadratic_form``, the smallest eigenvalue of the
    symmetric part (the minimum of xi.A xi over unit xi), is at least lam.
    Symmetry: for symmetric (here: diagonal) coefficient ensembles the
    tensor must be symmetric within 3x the statistical scale; on that class
    the transposition identity degenerates to this symmetry check.
    """
    M = A.matrix
    min_qf = float(np.linalg.eigvalsh(0.5 * (M + M.T))[0])
    gap = float(np.max(np.abs(M - M.T)))
    # statistical scale: combined stderr of the antisymmetric part, with a
    # floor at solver-tolerance scale for deterministic cell problems
    scale = float(np.max(A.stderr + A.stderr.T)) if A.stderr.any() else 0.0
    tol = 3.0 * scale + 1e-8 * max(1.0, float(np.abs(M).max()))
    return AhomPropertyReport(
        ellipticity_pass=min_qf >= lam - 1e-12,
        min_quadratic_form=min_qf,
        symmetry_pass=bool(gap <= tol),
        symmetry_gap=gap,
        symmetry_tolerance=tol,
    )
