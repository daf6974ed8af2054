"""Discrete d-dimensional two-scale expansion and its error bound.

For a coefficient sample a and mass parameter alpha > 0, the pair

    alpha u   + div*(a    grad u)   = f
    alpha u_0 + div*(a_hom grad u_0) = f

is compared through the remainder of the first-order expansion

    Z = u - (u_0 + sum_i phi_i grad_i u_0),

whose weighted energy sum alpha |Z|^2 + lam |grad Z|^2 is bounded by a
dimensional constant times

    alpha sum |phi|^2 |grad u_0|^2
    + sum (|sigma|^2 + |a|^2 |phi|^2) |grad grad u_0|^2.

The experiment reports both sides and their ratio per sample; the constant
is not pinned by theory, so the artifact only tracks the ratio's stability
across box sizes.  The homogenized matrix entering u_0 and the flux is the
per-sample cell value on the experiment's own box, which keeps every
sample self-contained and exactly reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .correctors import corrector_set
from .elliptic import SolverConfig, solve_shifted
from .ensembles import EnsembleSpec, per_block
from .lattice import (BoxSpec, CoefficientField, ParameterError, ScalarField, _grad_arr,
                      _grad_energy, grad)
from .spectral import inverse

__all__ = [
    "TwoScaleReport",
    "solve_homogenized",
    "remainder",
    "two_scale_experiment",
    "growth_weight",
    "default_forcing",
]


@dataclass(frozen=True)
class TwoScaleReport:
    sample: int
    box: BoxSpec
    alpha: float
    lhs: float        # sum alpha |Z|^2 + lam |grad Z|^2
    rhs_phi: float    # alpha sum |phi|^2 |grad u_0|^2
    rhs_sigma: float  # sum (|sigma|^2 + |a|^2 |phi|^2) |grad grad u_0|^2
    ratio: float


def solve_homogenized(A: np.ndarray, alpha: float, f: ScalarField) -> ScalarField:
    """alpha u_0 + div*(A grad u_0) = f, solved exactly in Fourier space.

    A must be symmetric positive definite (it is symmetrized here to guard
    against solver-tolerance asymmetry in per-sample cell matrices).
    """
    if not 0 < alpha < np.inf:
        raise ParameterError(f"alpha must be positive and finite, got {alpha}")
    A = np.asarray(A, dtype=np.float64)
    A = 0.5 * (A + A.T)
    if np.any(np.linalg.eigvalsh(A) <= 0):
        raise ParameterError("homogenized matrix must be positive definite")
    return ScalarField.from_grid(f.box, inverse(f.box, alpha, A)(f.grid()))


def remainder(u: ScalarField, u0: ScalarField, phis: list[ScalarField]) -> ScalarField:
    """Z = u - (u_0 + sum_i phi_i grad_i u_0), pointwise."""
    box = u.box
    if len(phis) != box.d:
        raise ParameterError(f"need one corrector per direction, got {len(phis)}")
    g0 = grad(u0).values
    z = u.values - u0.values
    for i, phi in enumerate(phis):
        z = z - phi.values * g0[:, i]
    return ScalarField(box, z)


def default_forcing(box: BoxSpec, wavelength: int | None = None) -> ScalarField:
    """Smooth low-frequency forcing: product of single-mode cosines.

    ``wavelength`` defaults to the box side.  Box-size comparisons must pass
    the coarsest box's side explicitly so every run sees the same f (the
    wavelength has to divide L for periodicity).
    """
    w = box.L if wavelength is None else int(wavelength)
    if box.L % w != 0:
        raise ParameterError(f"wavelength {w} does not divide the box side {box.L}")
    c = box.coordinate_arrays()
    vals = np.ones(box.n_sites)
    for i in range(box.d):
        vals *= np.cos(2.0 * np.pi * c[:, i] / w)
    return ScalarField(box, vals)


def growth_weight(x, d: int) -> float:
    """Dimension-dependent corrector growth weight: log(|x|+2) in d=2, else 1."""
    if d == 2:
        return float(np.log(np.linalg.norm(np.asarray(x, dtype=np.float64)) + 2.0))
    return 1.0


def two_scale_report(a: CoefficientField, alpha: float, f: ScalarField,
                     sample_index: int = 0,
                     cfg: SolverConfig = SolverConfig()) -> TwoScaleReport:
    """Assemble the two-scale error report for one coefficient sample.

    With phi_i and sigma_i the corrector and flux corrector in direction i,
    the remainder Z = u - u_0 - sum_i phi_i grad_i u_0 solves, exactly,

        alpha Z + div*(a grad Z) = -alpha sum_i phi_i grad_i u_0 - sum_i div*(H_i + T_i),
        (H_i)_j(x) = sum_k sigma_i,jk(x - e_k) grad_k grad_i u_0(x - e_k),
        (T_i)_j(x) = a_j(x) phi_i(x + e_j) grad_j grad_i u_0(x).

    The shifts come from the discrete product rule; div* sigma_i = q_i and the
    skew symmetry of sigma_i put the flux error in divergence form.  ``rhs_phi``
    and ``rhs_sigma`` weigh the two parts with unshifted phi and sigma; the
    constant that turns ``ratio`` into a bound is not derived here.
    """
    box = a.box
    d = box.d
    sets = [corrector_set(a, i, cfg) for i in range(d)]
    A = np.stack([s.ahom_row for s in sets], axis=1)  # column i = a_hom e_i

    u, _ = solve_shifted(a, alpha, f, cfg)
    u0 = solve_homogenized(A, alpha, f)
    phis = [s.phi for s in sets]
    Z = remainder(u, u0, phis)

    gZ = grad(Z).values
    lhs = float(alpha * np.sum(Z.values**2) + a.lam * np.sum(gZ**2))

    g0 = grad(u0).values
    phi_sq = sum(s.phi.values**2 for s in sets)
    rhs_phi = float(alpha * np.sum(phi_sq * np.sum(g0**2, axis=1)))

    sigma_sq = sum(np.sum(s.sigma.values**2, axis=(1, 2)) for s in sets)
    a_frob = np.sum(a.diag**2, axis=1)
    hess = _grad_energy(_grad_arr(u0.grid(), j) for j in range(d))  # |grad grad u_0|^2
    rhs_sigma = float(np.sum((sigma_sq + a_frob * phi_sq) * hess))

    rhs = rhs_phi + rhs_sigma
    ratio = lhs / rhs if rhs > 0 else float("inf") if lhs > 0 else 0.0
    return TwoScaleReport(sample_index, box, alpha, lhs, rhs_phi, rhs_sigma, ratio)


def two_scale_experiment(spec: EnsembleSpec, box: BoxSpec, alpha: float,
                         n_samples: int,
                         f: ScalarField | None = None,
                         cfg: SolverConfig = SolverConfig(),
                         map_fn: Callable = map) -> list[TwoScaleReport]:
    """Per-sample two-scale error reports; deterministic in the master seed."""
    if not 0 < alpha < np.inf:  # before the first sample's corrector solves
        raise ParameterError(f"alpha must be positive and finite, got {alpha}")
    if f is None:
        f = default_forcing(box)

    return per_block(spec, box, n_samples, lambda fields, ids: [
        two_scale_report(fields[0], alpha, f, sample_index=ids[0], cfg=cfg)], map_fn, 1)
