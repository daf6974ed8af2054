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
quadrature error stays far below the homogenization error being measured;
no grid has more than ``MAX_GRID_INTERVALS`` intervals.
"""

from __future__ import annotations

import math
import warnings
from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np

from .lattice import ParameterError, _abscissae, _as_float, _exact_int, _only
from .quant import _loglog_fit

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
    "read_profiles",
]

MIN_POINTS_PER_PERIOD = 8
RECOMMENDED_POINTS_PER_PERIOD = 32
# the most intervals of one grid: two_scale_check_1d on 2**20 of them peaks near 0.2 GB
MAX_GRID_INTERVALS = 2**20


def cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of y over the 1-d grid x, starting at 0.

    scipy's formula with ``initial=0``; numpy alone, so importing the CLI
    does not load ``scipy.integrate``.
    """
    return np.concatenate(([0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)))


def _conductivity(a_unit, y: np.ndarray) -> np.ndarray:
    """a_unit(y) as floats; ``ParameterError`` unless every value is positive and finite."""
    a = np.asarray(a_unit(y), dtype=np.float64)
    if not np.all(np.isfinite(a) & (a > 0)):
        raise ParameterError("conductivity must be positive and finite")
    return a


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
        if not 0 < self.eps <= 1:
            raise ParameterError(f"eps must lie in (0, 1]; got eps={self.eps}")
        inv = 1.0 / self.eps
        if abs(inv - round(inv)) > 1e-9:
            raise ParameterError(f"1/eps must be an integer; got eps={self.eps}")
        if self.points_per_period < MIN_POINTS_PER_PERIOD:
            raise ParameterError(
                f"grid must resolve the microstructure: need at least "
                f"{MIN_POINTS_PER_PERIOD} points per period, got {self.points_per_period}"
            )
        if round(inv) * self.points_per_period > MAX_GRID_INTERVALS:
            raise ParameterError(f"eps={self.eps} at {self.points_per_period} points per period "
                                 f"needs more than {MAX_GRID_INTERVALS} grid intervals")
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
        return _conductivity(self.a_unit, x / self.eps)


@dataclass(frozen=True)
class Solution1D:
    x: np.ndarray
    u: np.ndarray
    du: np.ndarray
    flux_constant: float


def harmonic_mean(a_unit, M: int = 4096) -> float:
    """(int_0^1 1/a)^{-1} by composite trapezoid on M intervals."""
    y = np.linspace(0.0, 1.0, M + 1)
    return float(1.0 / np.trapezoid(1.0 / _conductivity(a_unit, y), y))


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
    return _explicit_solution(x, np.full_like(x, a0), np.asarray(profile.f(x), dtype=np.float64))


def corrector_1d(a_unit, M: int = 4096) -> tuple[np.ndarray, np.ndarray]:
    """Periodic corrector phi on the unit period, phi(0) = phi(1) = 0.

    Returns (y, phi) with phi(y) = int_0^y (a_0/a - 1); the flux identity
    a(y) (phi'(y) + 1) = a_0 holds pointwise.  phi(1) = 0 exactly because
    a_0 is computed with the same quadrature rule.
    """
    y = np.linspace(0.0, 1.0, M + 1)
    phi = cumulative_trapezoid(harmonic_mean(a_unit, M) / _conductivity(a_unit, y) - 1.0, y)
    return y, phi


def _coarsest_first(eps_list) -> np.ndarray:
    """``eps_list`` coarsest first; ``ParameterError`` unless distinct numbers in (0, 1]."""
    if not isinstance(eps_list, (list, tuple, np.ndarray)):
        raise ParameterError(f"eps_list must be a list, got {eps_list!r}")
    eps = np.array([_number(eps, "eps_list value") for eps in eps_list], dtype=np.float64)
    return _abscissae(eps, "eps_list", 1.0, "(0, 1]", fit=False)[::-1]


@dataclass(frozen=True)
class TwoScaleError1D:
    eps: float
    sup_error: float        # max |u_eps - u_0|
    error: float            # int |u_eps - v_eps|^2 + |u_eps' - v_eps'|^2
    bound_statement: float  # (4/lam)   max|phi|^2 eps^2 int |u_0''|^2
    bound_proof: float      # (4/lam^2) max|phi|^2 eps^2 int |u_0''|^2
    ratio_statement: float
    ratio_proof: float


def two_scale_check_1d(profile: Profile1D) -> TwoScaleError1D:
    """Sup error and H1-type error of the first-order two-scale approximation.

    Reports the error against both candidate constants (4/lam and 4/lam^2
    times max|phi|^2); the empirical ratio is left to the caller, no
    adjudication between the two.
    """
    x = profile.grid()
    het = solve_explicit(profile)
    a0 = harmonic_mean(profile.a_unit, M=max(4096, profile.points_per_period))
    f_vals = np.asarray(profile.f(x), dtype=np.float64)
    hom = _explicit_solution(x, np.full_like(x, a0), f_vals)  # = solve_homogenized_1d(profile)

    y = (x / profile.eps) % 1.0
    ytab, phi_tab = corrector_1d(profile.a_unit, M=8192)
    phi = np.interp(y, ytab, phi_tab)
    dphi = a0 / profile.a_eps(x) - 1.0  # phi'(x/eps), exact identity
    d2u0 = -f_vals / a0                 # u_0'' from the equation

    v = hom.u + profile.eps * phi * hom.du
    dv = (1.0 + dphi) * hom.du + profile.eps * phi * d2u0

    err = float(np.trapezoid((het.u - v) ** 2 + (het.du - dv) ** 2, x))
    lam = float(np.min(profile.a_unit(np.linspace(0.0, 1.0, 4096))))  # sampled ellipticity
    max_phi2 = float(np.max(np.abs(phi_tab)) ** 2)
    i2 = float(np.trapezoid(d2u0**2, x))
    b_stmt = (4.0 / lam) * max_phi2 * profile.eps**2 * i2
    b_proof = b_stmt / lam  # not lam**2, which overflows where the bound does not
    return TwoScaleError1D(
        profile.eps, float(np.max(np.abs(het.u - hom.u))), err, b_stmt, b_proof,
        err / b_stmt if b_stmt > 0 else 0.0,
        err / b_proof if b_proof > 0 else 0.0,
    )


@dataclass(frozen=True)
class OscillatoryAverageReport:
    eps: np.ndarray
    errors: np.ndarray
    fitted_constant: float   # max over eps of err / (2 eps)


def _period_average(F, yq: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Fbar(x) = int_0^1 F(y, x) dy at every node of x, by the trapezoid rule on yq.

    F is evaluated on blocks of nodes times the whole yq grid, and each
    block is reduced along y at once by ``np.trapezoid``, so every value is
    bitwise the one ``np.trapezoid(F(yq, xv), yq)`` gives.
    """
    rows = max(16, 2**16 // yq.size)  # blocks of ~2**16 values stay in cache
    out = np.empty(x.size)
    for lo in range(0, x.size, rows):
        ys, xs = np.broadcast_arrays(yq, x[lo:lo + rows, None])
        out[lo:lo + rows] = np.trapezoid(F(ys, xs), yq)
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
    eps_arr = _coarsest_first(eps_list)
    sizes = [max(1024, int(np.ceil(1.0 / eps)) * points_per_period) for eps in eps_arr]
    if (most := max(*sizes, y_points)) > MAX_GRID_INTERVALS:
        raise ParameterError(f"a grid of {most} intervals is more than {MAX_GRID_INTERVALS}")
    yq = np.linspace(0.0, 1.0, y_points + 1)
    grids = [np.linspace(0.0, 1.0, n + 1) for n in sizes]
    errors = np.array([abs(np.trapezoid(F(x / eps, x), x)
                           - np.trapezoid(_period_average(F, yq, x), x))
                       for eps, x in zip(eps_arr, grids)])
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
    eps_arr = _coarsest_first(eps_list)
    sups, grads, weaks = [], [], []
    for eps in eps_arr:
        p = replace(profile, eps=eps)
        x = p.grid()
        het = solve_explicit(p)
        hom = solve_homogenized_1d(p)
        sups.append(float(np.max(np.abs(het.u - hom.u))))
        diff = het.du - hom.du
        grads.append(float(np.trapezoid(diff**2, x)))
        weaks.append([float(np.trapezoid(diff * tf(x), x)) for tf in _TEST_FUNCTIONS])
    sups = np.asarray(sups)
    return SupErrorReport(  # a homogeneous profile or one eps has no rate: nan
        eps_arr, sups, _loglog_fit(eps_arr, sups).slope, float(np.max(sups / eps_arr)),
        np.asarray(grads), np.asarray(weaks),
    )


# A 1d conductivity or forcing kind of the ``oned`` config: its parameters' defaults (None:
# required; an int: an integer), its formula on a float array and its parameters' rule.
Kind = namedtuple("Kind", "defaults formula rule", defaults=[lambda **values: True])


def _layered(y, alpha, beta, fraction):
    # a node on a jump carries the harmonic midpoint: the trapezoid rule on 1/a stays exact
    y = y % 1.0
    at_jump = np.isclose(y, fraction) | np.isclose(y, 0.0) | np.isclose(y, 1.0)
    return np.where(at_jump, 2.0 / (1.0 / alpha + 1.0 / beta), np.where(y < fraction, alpha, beta))


CONDUCTIVITY_KINDS = {
    "constant": Kind({"value": None}, lambda y, value: np.full_like(y, value)),
    "shifted-sine": Kind({"offset": 2.0, "amplitude": 1.0},
                         lambda y, offset, amplitude: offset + amplitude * np.sin(2.0 * np.pi * y),
                         lambda offset, amplitude: offset > abs(amplitude)),
    "layered": Kind({"alpha": None, "beta": None, "fraction": 0.5}, _layered,
                    lambda alpha, beta, fraction: alpha > 0 and beta > 0 and 0 < fraction < 1),
}
FORCING_KINDS = {
    "constant": CONDUCTIVITY_KINDS["constant"],
    "linear-odd": Kind({"scale": 3.0}, lambda x, scale: -scale * (2.0 * x - 1.0)),
    "sine": Kind({"k": 1}, lambda x, k: np.sin(2.0 * np.pi * k * x)),
}


def _number(value, name: str, read: callable = _as_float):
    """``read(value, name)``; ``ParameterError`` unless it is finite, as a float too."""
    if math.isfinite(_as_float(number := read(value, name), name)):
        return number
    raise ParameterError(f"oned: {name} must be finite, got {value!r}")


def _read_kind(params: dict, key: str, kinds: dict[str, Kind], default: str) -> callable:
    """The profile of ``params[key]`` = {"kind": a key of ``kinds``, its parameters}."""
    cfg = params.get(key, {"kind": default})
    if not (isinstance(cfg, dict) and isinstance(cfg.get("kind"), str) and cfg["kind"] in kinds):
        raise ParameterError(f"oned: {key} must be an object with a kind in {sorted(kinds)}")
    kind = kinds[cfg["kind"]]
    _only(cfg, ("kind", *kind.defaults), f"oned: {cfg['kind']} {key}")
    values = {k: _number(cfg.get(k, d), f"{key} {k}", _exact_int if isinstance(d, int) else _as_float)
              for k, d in kind.defaults.items()}
    if not kind.rule(**values):
        raise ParameterError(f"oned: the {cfg['kind']} {key} cannot take {values}")
    return lambda t: kind.formula(np.asarray(t, dtype=np.float64), **values)


def read_profiles(params: dict) -> list[Profile1D]:
    """The ``oned`` config's profiles, coarsest eps first; ``ParameterError`` on a bad value
    or on a key it does not read ("samples", which oned once recorded unread, aside)."""
    _only(params, ("a", "f", "points_per_period", "eps_list", "samples"), "oned params")
    a_unit = _read_kind(params, "a", CONDUCTIVITY_KINDS, "shifted-sine")
    f = _read_kind(params, "f", FORCING_KINDS, "linear-odd")
    ppp = _number(params.get("points_per_period", Profile1D.points_per_period),
                  "points_per_period", _exact_int)
    eps_list = _coarsest_first(params.get("eps_list", (1 / 8, 1 / 16, 1 / 32, 1 / 64, 1 / 128)))
    return [Profile1D(a_unit, f, eps, ppp) for eps in eps_list.tolist()]
