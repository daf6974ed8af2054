"""One-dimensional homogenization pipeline with explicit formulas.

Everything here is quadrature on aligned grids: the heterogeneous two-point
boundary value problem

    -d/dx ( a(x/eps) du/dx ) = f   on (0, 1),  u(0) = u(1) = 0

has the closed-form solution

    u_eps(x) = int_0^x a_eps^{-1}(x') (c_eps - int_0^{x'} f) dx',

with the flux constant c_eps fixed by u(1) = 0, so "solving" means
evaluating nested cumulative trapezoid integrals.  The homogenized problem
replaces a_eps by the harmonic mean a_0 of the unit-period profile, and
the first-order two-scale approximation is

    v_eps(x) = u_0(x) + eps * phi(x/eps) * u_0'(x),

with the periodic corrector phi(y) = int_0^y (a_0/a - 1).

Grids resolve the microstructure: ``points_per_period`` nodes per length
eps, aligned with both the period breakpoints and the macro grid, so the
quadrature error stays far below the homogenization error being measured.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "Profile1D",
    "Solution1D",
    "TwoScaleError1D",
    "harmonic_mean",
    "solve_explicit",
    "solve_homogenized_1d",
    "corrector_1d",
    "two_scale_check_1d",
    "oscillatory_average_check",
    "sup_error_check",
]

MIN_POINTS_PER_PERIOD = 8
RECOMMENDED_POINTS_PER_PERIOD = 32


def trapezoid(y: np.ndarray, x: np.ndarray) -> np.float64:
    """Composite trapezoid rule of y over the 1-d grid x (scipy's formula)."""
    return np.add.reduce(np.diff(x) * (y[1:] + y[:-1]) / 2.0)


def cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of y over the 1-d grid x, starting at 0.

    scipy's formula with ``initial=0``; numpy alone, so importing the CLI
    does not load ``scipy.integrate``.
    """
    return np.concatenate(([0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)))


@dataclass(frozen=True)
class Profile1D:
    """1-periodic conductivity + right-hand side + scale parameters.

    ``a_unit`` and ``f`` are callables evaluated on the grid; ``a_unit`` is
    interpreted as the unit-period profile (the operator coefficient is
    a_unit(x / eps)).  1/eps must be an integer so that the domain holds a
    whole number of periods.
    """

    a_unit: callable
    f: callable
    eps: float
    points_per_period: int = 64

    def __post_init__(self):
        inv = 1.0 / self.eps
        if abs(inv - round(inv)) > 1e-9:
            raise ValueError(f"1/eps must be an integer; got eps={self.eps}")
        if self.points_per_period < MIN_POINTS_PER_PERIOD:
            raise ValueError(
                f"grid must resolve the microstructure: need at least "
                f"{MIN_POINTS_PER_PERIOD} points per period, got {self.points_per_period}"
            )
        if self.points_per_period < RECOMMENDED_POINTS_PER_PERIOD:
            warnings.warn(
                f"fewer than {RECOMMENDED_POINTS_PER_PERIOD} points per period; "
                "quadrature error may pollute homogenization-error measurements",
                stacklevel=2,
            )

    def grid(self) -> np.ndarray:
        n = round(1.0 / self.eps) * self.points_per_period
        return np.linspace(0.0, 1.0, n + 1)

    def a_eps(self, x: np.ndarray) -> np.ndarray:
        a = np.asarray(self.a_unit(x / self.eps), dtype=np.float64)
        if np.any(a <= 0):
            raise ValueError("conductivity must be positive")
        return a

    def ellipticity(self) -> float:
        """min of the sampled unit profile (the lambda of the error bounds)."""
        y = np.linspace(0.0, 1.0, 4096)
        return float(np.min(self.a_unit(y)))


@dataclass(frozen=True)
class Solution1D:
    x: np.ndarray
    u: np.ndarray
    du: np.ndarray
    flux_constant: float


def harmonic_mean(a_unit, M: int = 4096) -> float:
    """(int_0^1 1/a)^{-1} by composite trapezoid on M intervals."""
    y = np.linspace(0.0, 1.0, M + 1)
    a = np.asarray(a_unit(y), dtype=np.float64)
    if np.any(a <= 0):
        raise ValueError("conductivity must be positive for the harmonic mean")
    return float(1.0 / trapezoid(1.0 / a, y))


def _explicit_solution(x: np.ndarray, a_vals: np.ndarray, f_vals: np.ndarray) -> Solution1D:
    inv_a = 1.0 / a_vals
    P = cumulative_trapezoid(f_vals, x)          # int_0^x f
    A = cumulative_trapezoid(inv_a, x)           # int_0^x 1/a
    B = cumulative_trapezoid(inv_a * P, x)       # int_0^x P/a
    c = B[-1] / A[-1]
    u = c * A - B
    u[-1] = 0.0  # exact by construction of c; kill rounding residue
    du = inv_a * (c - P)
    return Solution1D(x, u, du, float(c))


def solve_explicit(profile: Profile1D) -> Solution1D:
    """Quadrature realization of the closed-form heterogeneous solution."""
    x = profile.grid()
    return _explicit_solution(x, profile.a_eps(x), np.asarray(profile.f(x), dtype=np.float64))


def solve_homogenized_1d(profile: Profile1D) -> Solution1D:
    """Same pipeline with the constant harmonic-mean coefficient."""
    x = profile.grid()
    a0 = harmonic_mean(profile.a_unit, M=max(4096, profile.points_per_period))
    a_vals = np.full_like(x, a0)
    return _explicit_solution(x, a_vals, np.asarray(profile.f(x), dtype=np.float64))


def corrector_1d(a_unit, M: int = 4096) -> tuple[np.ndarray, np.ndarray]:
    """Periodic corrector phi on the unit period, phi(0) = phi(1) = 0.

    Returns (y, phi) with phi(y) = int_0^y (a_0/a - 1); the flux identity
    a(y) (phi'(y) + 1) = a_0 holds pointwise.  phi(1) = 0 exactly because
    a_0 is computed with the same quadrature rule.
    """
    y = np.linspace(0.0, 1.0, M + 1)
    a = np.asarray(a_unit(y), dtype=np.float64)
    a0 = 1.0 / trapezoid(1.0 / a, y)
    phi = cumulative_trapezoid(a0 / a - 1.0, y)
    return y, phi


@dataclass(frozen=True)
class TwoScaleError1D:
    eps: float
    error: float            # int |u_eps - v_eps|^2 + |u_eps' - v_eps'|^2
    bound_statement: float  # (4/lam)   max|phi|^2 eps^2 int |u_0''|^2
    bound_proof: float      # (4/lam^2) max|phi|^2 eps^2 int |u_0''|^2
    ratio_statement: float
    ratio_proof: float


def two_scale_check_1d(profile: Profile1D) -> TwoScaleError1D:
    """H1-type error of the first-order two-scale approximation.

    Reports the error against both candidate constants (4/lam and 4/lam^2
    times max|phi|^2); the empirical ratio is left to the caller, no
    adjudication between the two.
    """
    x = profile.grid()
    het = solve_explicit(profile)
    hom = solve_homogenized_1d(profile)
    a0 = harmonic_mean(profile.a_unit, M=max(4096, profile.points_per_period))
    f_vals = np.asarray(profile.f(x), dtype=np.float64)

    y = (x / profile.eps) % 1.0
    _, phi_tab = corrector_1d(profile.a_unit, M=8192)
    ytab = np.linspace(0.0, 1.0, phi_tab.size)
    phi = np.interp(y, ytab, phi_tab)
    a_vals = profile.a_eps(x)
    dphi = a0 / a_vals - 1.0          # phi'(x/eps), exact identity
    d2u0 = -f_vals / a0               # u_0'' from the equation

    v = hom.u + profile.eps * phi * hom.du
    dv = (1.0 + dphi) * hom.du + profile.eps * phi * d2u0

    err = float(trapezoid((het.u - v) ** 2 + (het.du - dv) ** 2, x))
    lam = profile.ellipticity()
    max_phi2 = float(np.max(np.abs(phi_tab)) ** 2)
    i2 = float(trapezoid(d2u0**2, x))
    b_stmt = (4.0 / lam) * max_phi2 * profile.eps**2 * i2
    b_proof = (4.0 / lam**2) * max_phi2 * profile.eps**2 * i2
    return TwoScaleError1D(
        profile.eps, err, b_stmt, b_proof,
        err / b_stmt if b_stmt > 0 else 0.0,
        err / b_proof if b_proof > 0 else 0.0,
    )


@dataclass(frozen=True)
class OscillatoryAverageReport:
    eps: np.ndarray
    errors: np.ndarray
    fitted_constant: float   # max over eps of err / (2 eps)

    @property
    def error_over_eps(self) -> np.ndarray:
        return self.errors / self.eps


def _period_average(F, yq: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Fbar(x) = int_0^1 F(y, x) dy at every node of x, by the trapezoid rule on yq.

    F is evaluated on blocks of nodes times the whole yq grid, and each
    block is reduced along y at once with ``trapezoid``'s formula, so every
    value is bitwise the one ``trapezoid(F(yq, xv), yq)`` gives.
    """
    rows = max(16, 2**16 // yq.size)  # blocks of ~2**16 values stay in cache
    dy = np.diff(yq)
    out = np.empty(x.size)
    for lo in range(0, x.size, rows):
        xs = x[lo:lo + rows, None]
        shape = (xs.shape[0], yq.size)
        vals = F(np.broadcast_to(yq, shape), np.broadcast_to(xs, shape))
        out[lo:lo + rows] = np.add.reduce(dy * (vals[:, 1:] + vals[:, :-1]) / 2.0, axis=1)
    return out


def oscillatory_average_check(F, eps_list, points_per_period: int = 256,
                              y_points: int = 256) -> OscillatoryAverageReport:
    """Error of int_0^1 F(x/eps, x) dx against the period-averaged integrand.

    F(y, x) must be 1-periodic and smooth in y and act elementwise on
    arrays of equal shape; the report carries
    |int F(x/eps, x) - Fbar(x) dx| per eps and the fitted constant of the
    first-order bound C * (|b - a| + 1) * eps = 2 C eps on (a, b) = (0, 1).
    Fbar takes the trapezoid rule on ``y_points`` intervals, which converges
    geometrically there.
    """
    eps_arr = np.asarray(sorted(eps_list, reverse=True), dtype=np.float64)
    grids = [np.linspace(0.0, 1.0, max(1024, int(np.ceil(1.0 / eps)) * points_per_period) + 1)
             for eps in eps_arr]
    # Fbar does not depend on eps: average once per distinct node of all grids
    nodes = np.unique(np.concatenate(grids))
    fbar_nodes = _period_average(F, np.linspace(0.0, 1.0, y_points + 1), nodes)
    errors = []
    for eps, x in zip(eps_arr, grids):
        osc = trapezoid(F(x / eps, x), x)
        fbar = trapezoid(fbar_nodes[np.searchsorted(nodes, x)], x)
        errors.append(abs(osc - fbar))
    errors = np.asarray(errors)
    C = float(np.max(errors / (2.0 * eps_arr)))
    return OscillatoryAverageReport(eps_arr, errors, C)


@dataclass(frozen=True)
class SupErrorReport:
    eps: np.ndarray
    sup_errors: np.ndarray
    rate: float                    # log-log slope of sup error vs eps
    fitted_constant: float         # max of sup_error / eps
    grad_l2_errors: np.ndarray     # int |u_eps' - u_0'|^2 per eps
    weak_gradient_pairings: np.ndarray  # (n_eps, n_tests) of int (u_eps'-u_0') phi_test


# smooth test functions on (0, 1) for the weak-convergence pairings
_TEST_FUNCTIONS = (
    lambda x: np.ones_like(x),
    lambda x: x,
    lambda x: np.sin(np.pi * x),
    lambda x: np.cos(2 * np.pi * x),
    lambda x: x * (1.0 - x),
)


def sup_error_check(profile: Profile1D, eps_list) -> SupErrorReport:
    """Max-norm error u_eps vs u_0 across an eps list, plus gradient diagnostics.

    The gradient columns document weak-but-not-strong convergence: the L2
    gradient error stays bounded away from zero for oscillatory a, while
    the pairings against smooth test functions vanish with eps.
    """
    eps_arr = np.asarray(sorted(eps_list, reverse=True), dtype=np.float64)
    sups, grads, weaks = [], [], []
    for eps in eps_arr:
        p = replace(profile, eps=eps)
        x = p.grid()
        het = solve_explicit(p)
        hom = solve_homogenized_1d(p)
        sups.append(float(np.max(np.abs(het.u - hom.u))))
        diff = het.du - hom.du
        grads.append(float(trapezoid(diff**2, x)))
        weaks.append([float(trapezoid(diff * tf(x), x)) for tf in _TEST_FUNCTIONS])
    sups = np.asarray(sups)
    if np.all(sups > 0):
        slope = float(np.polyfit(np.log(eps_arr), np.log(sups), 1)[0])
    else:
        slope = float("nan")  # homogeneous profile: no error to rate-fit
    return SupErrorReport(
        eps_arr, sups, slope, float(np.max(sups / eps_arr)),
        np.asarray(grads), np.asarray(weaks),
    )
