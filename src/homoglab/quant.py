"""Quantitative homogenization statistics.

Monte Carlo estimators for the concentration and decay properties of the
random-coefficient model: spectral-gap ratios at rho = 1 for i.i.d. fields,
Var f <= sum_x E[(d_x f)^2] with the vertical derivative d_x f of
Gloria & Otto (Ann. Probab. 39, 2011), evaluated exactly over the site
variants (for the cell entry of a_hom, resampling one site is a rank-d
update of the cell matrix, so one dense inverse per sample serves every
site and variant through Sherman-Morrison-Woodbury),
corrector moment growth in |x| (logarithmic in d=2, plateau in d>=3),
heat-semigroup decay of averaged observables, quenched and annealed
Green's-function decay, a weighted-norm stability probe for the elliptic
operator, and spatial ergodic averaging rates.

All estimators draw their samples through the ensemble stream contract
(master seed + sample index), aggregate in fixed sample order, and report
standard errors next to every point estimate.  Each takes its sample count
and experiment parameters as arguments: their defaults live only in
``cli.EXPERIMENTS``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .ensembles import (EnsembleSpec, SampleId, _mean_stderr, _rng_for, _sub_box_sites,
                        per_block, per_sample, site_assignments, site_variants,
                        spatial_average_observable)
from .lattice import (
    BoxSpec,
    CoefficientField,
    ParameterError,
    ScalarField,
    _abscissae,
    _dot,
    _grad_energy,
    div_star,
    grad,
    neighbours,
    torus_radii,
)
from .elliptic import (
    SolverConfig,
    SolverError,
    _elliptic_matrices,
    _report_dense,
    green,
    heat_kernel,
    solve_elliptic,
)
from .spectral import smooth
from .correctors import solve_corrector

__all__ = [
    "MomentEstimate",
    "GrowthFit",
    "SGReport",
    "DecayFit",
    "vertical_derivative",
    "lipschitz_derivative",
    "sg_check",
    "SingleSiteEntry",
    "BoxAverageEntry",
    "CellAhomEntry",
    "corrector_growth",
    "semigroup_decay",
    "green_decay",
    "meyers_ratio",
    "meyers_probe",
    "birkhoff_rate",
]


@dataclass(frozen=True)
class MomentEstimate:
    value: float
    stderr: float
    p: int
    n: int


@dataclass(frozen=True)
class DecayFit:
    """Least-squares power-law fit log(values) ~ slope * log(abscissae) + c."""

    abscissae: np.ndarray
    values: np.ndarray
    slope: float
    intercept: float
    r_squared: float


def _linear_fit(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float, float]:
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


def _loglog_fit(xs: np.ndarray, ys: np.ndarray, deterministic: bool = False) -> DecayFit:
    """The fit, or nan in every number (null in JSON) where there is no rate: fewer than two
    points, a value <= 0 or a ``deterministic`` ensemble, whose moments are rounding residue."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if deterministic or ys.size < 2 or np.any(ys <= 0):
        return DecayFit(xs, ys, float("nan"), float("nan"), float("nan"))
    return DecayFit(xs, ys, *_linear_fit(np.log(xs), np.log(ys)))


def _median(values: np.ndarray):
    """numpy's median along axis 0, summed from 0.0 as its mean is (so -0.0 gives 0.0), but
    without the NaN check that imports the masked arrays: every value here is finite."""
    s = np.sort(values, axis=0)
    m = len(s) // 2
    return 0.0 + s[m] if len(s) % 2 else (0.0 + s[m - 1] + s[m]) / 2


# ---------------------------------------------------------------------------
# vertical / Lipschitz derivatives
# ---------------------------------------------------------------------------


def vertical_derivative(func, a: CoefficientField, site: int, spec: EnsembleSpec) -> float:
    """f(a) - E[f | everything except site]: sensitivity to resampling one site.

    Exact for two-point laws: the equal-weight average over the site variants.
    Other kinds raise ``ParameterError`` (see :func:`site_assignments`).
    """
    fa = float(func(a))
    variants = site_variants(spec, a, site)
    return fa - float(np.mean([func(v) for v in variants]))


def lipschitz_derivative(func, a: CoefficientField, site: int, spec: EnsembleSpec) -> float:
    """sup |f(a') - f(a'')| over fields agreeing with ``a`` off the site.

    Exact for two-point laws (finite variant set); always dominates the
    absolute vertical derivative.
    """
    variants = site_variants(spec, a, site)
    vals = [float(func(v)) for v in variants]
    return max(vals) - min(vals)


# ---------------------------------------------------------------------------
# functional family for the spectral-gap check
# ---------------------------------------------------------------------------


class SingleSiteEntry:
    """f(a) = a_1(0), the first diagonal entry at site 0: the equality case of
    the spectral gap."""

    name = "single-site"

    def __call__(self, a: CoefficientField) -> float:
        return float(a.diag[0, 0])

    def block_values(self, box: BoxSpec, diag: np.ndarray,
                     values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """f and f at every variant of the one site it reads, (B,) and (B, 1, V),
        for a (B, N, d) stack of diagonals and the (V, d) site values."""
        table = np.broadcast_to(values[:, 0], (diag.shape[0], 1, len(values)))
        return diag[:, 0, 0], table.copy()


class BoxAverageEntry:
    """f(a) = average of a_1 over the centered R-sub-box."""

    name = "box-average"

    def __init__(self, R: int):
        self.R = R

    def __call__(self, a: CoefficientField) -> float:
        return spatial_average_observable(a, self.R)

    def block_values(self, box: BoxSpec, diag: np.ndarray,
                     values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """f and f at every variant of each sub-box site, (B,) and (B, R**d, V)."""
        held = diag[:, _sub_box_sites(box, self.R), 0]
        fa = held.mean(axis=1)
        table = (values[None, None, :, 0] - held[:, :, None]) / held.shape[1]
        return fa, fa[:, None, None] + table


class CellAhomEntry:
    """f(a) = entry (1, 1) of the periodic cell homogenized matrix.

    A genuinely nonlinear functional of the whole box.  Small boxes only:
    the cell problem is solved directly through the dense pinned inverse
    (site 0 pinned; the extracted entry is gauge independent), which also
    gives every single-site variant in closed form (:meth:`block_values`).
    """

    name = "ahom-entry"

    def _solve(self, box: BoxSpec, diag: np.ndarray):
        """Pinned inverses G and the edge differences t of phi_1, for a
        (B, N, d) stack of diagonals.

        G inverts each cell matrix div*(a grad .) with site 0 pinned (row and
        column 0 are zero).  One ``np.linalg.inv`` inverts the whole stack: it
        runs LAPACK on each matrix in turn without the GIL, so the runs of a
        thread pool invert in parallel, and each matrix gets the bits of its
        own call.  phi_1 = G (-div*(a e_1)) is the cell corrector in direction
        1; t holds b_{x,i}^T phi_1 = phi_1(x+e_i) - phi_1(x), (B, N, d).
        """
        fwd, bwd = neighbours(box)
        n = box.n_sites
        G = np.zeros((len(diag), n, n))
        G[:, 1:, 1:] = np.linalg.inv(_elliptic_matrices(box, diag)[:, 1:, 1:])
        _report_dense(len(diag))
        a1 = diag[:, :, 0]
        phi = (G @ (a1 - a1[:, bwd[:, 0]])[:, :, None])[:, :, 0]  # -div*(a e_1)
        return G, phi[:, fwd] - phi[:, :, None]

    def _entry(self, diag: np.ndarray, t: np.ndarray) -> np.ndarray:
        a1 = diag[:, :, 0]
        return np.mean(a1 * t[:, :, 0], axis=1) + np.mean(a1, axis=1)

    def __call__(self, a: CoefficientField) -> float:
        diag = a.diag[None]
        _, t = self._solve(a.box, diag)
        return float(self._entry(diag, t)[0])

    def block_values(self, box: BoxSpec, diag: np.ndarray,
                     values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """f and f at every site variant, (B,) and (B, N, V), for a (B, N, d)
        stack of diagonals and the (V, d) site values.

        Setting the diagonal at site x to ``values[v]`` moves a_i(x) by
        delta_i and the cell matrix by the rank-d update U D U^T, with
        U = [b_{x,1} .. b_{x,d}], b_{x,i} = e_{x+e_i} - e_x, D = diag(delta);
        the right-hand side -div*(a e_1) moves by -delta_1 b_{x,1}.
        Sherman-Morrison-Woodbury on the pinned inverse G gives

            phi' = G r' - G U (I + D U^T G U)^{-1} D U^T G r',

        and only the projections of phi' on c = sum_x a_1(x) b_{x,1} and
        on U enter the entry, so each variant costs one d x d solve.
        """
        n, d = box.n_sites, box.d
        fwd, _ = neighbours(box)
        G, t = self._solve(box, diag)
        x = np.arange(n)[:, None]
        M = (G[:, fwd[:, :, None], fwd[:, None, :]] - G[:, fwd, x][..., None]
             - G[:, x, fwd][:, :, None, :] + G[:, x, x][..., None])  # U^T G U per site
        delta = values[None, None] - diag[:, :, None, :]           # (B, N, V, d)
        s = t[:, :, None, :] - delta[..., 0, None] * M[:, :, None, :, 0]  # U^T G r'
        w = _small_solve(np.eye(d) + delta[..., :, None] * M[:, :, None], delta * s)
        u = s[..., 0] - (M[:, :, None, 0] * w).sum(axis=-1)            # e_1^T U^T phi'
        # c^T phi' - c^T G r, with c^T G b_{x,i} = -t[x, i] since G c = -phi_1
        dc = delta[..., 0] * t[:, :, None, 0] + (t[:, :, None] * w).sum(axis=-1)
        fa = self._entry(diag, t)  # mean(a_1 t_1) + mean(a_1): the last moves by delta_1 / n
        return fa, fa[:, None, None] + (dc + delta[..., 0] * u) / n + delta[..., 0] / n


def _small_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with A x = b for a stack of small (d, d) systems, by Gaussian
    elimination without pivoting, each step one numpy operation on the stack.

    For the Woodbury systems I + D U^T G U of :meth:`CellAhomEntry.block_values`
    the k-th leading principal minor is det(A_k) / det(A) > 0, with A_k the
    pinned cell matrix after the first k edges of the site are updated (matrix
    determinant lemma), so no pivot vanishes.  ``np.linalg.solve`` would make
    one LAPACK call per system: the thousands of 2 x 2 calls of a run cost
    more than their arithmetic, and run slower in two threads than in one.
    """
    A = A.copy()
    x = b.copy()
    d = A.shape[-1]
    for k in range(d):
        for i in range(k + 1, d):
            m = A[..., i, k] / A[..., k, k]
            A[..., i, k + 1:] -= m[..., None] * A[..., k, k + 1:]
            x[..., i] -= m * x[..., k]
    for k in reversed(range(d)):
        for j in range(k + 1, d):
            x[..., k] -= A[..., k, j] * x[..., j]
        x[..., k] /= A[..., k, k]
    return x


# the most sites of an sg_check box: a run of samples holds a few (_SG_BLOCK, N, N)
# float64 stacks of dense cell matrices, 64 MB each at N = 1024
MAX_DENSE_SITES = 2**10

# consecutive samples per sg_check task, whatever the thread count: 16 and 32
# measured no faster than 8, which keeps two workers evenly loaded on small
# sample counts and a run's arrays near 1 MB at d=2, L=8
_SG_BLOCK = 8


@dataclass(frozen=True)
class SGReport:
    functional: str
    variance: MomentEstimate
    derivative_sum: MomentEstimate
    ratio: float
    ratio_stderr: float
    rho_assumed: float = field(default=1.0, init=False)
    within_gap: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "within_gap", self.ratio <= 1.0 + 3.0 * self.ratio_stderr)


def sg_check(spec: EnsembleSpec, box: BoxSpec, n: int,
             map_fn: Callable = map) -> list[SGReport]:
    """Monte Carlo spectral-gap ratios Var(f) / sum_x E[(d_x f)^2], one report each for
    SingleSiteEntry(), BoxAverageEntry(max(2, L // 2)) and CellAhomEntry(), in order.

    Requires an i.i.d. two-point spec: the vertical derivative
    d_x f = f - E[f | a off x] (Gloria & Otto, Ann. Probab. 39, 2011) is
    then the exact centering over the 2**d site variants.  A functional's
    ``block_values(box, diag, values)`` returns f and f at every variant of
    each site it reads (elsewhere d_x f = 0), for a (B, N, d) stack of
    diagonals at once; for the cell entry, resampling one site is a rank-d
    update of the cell matrix, so one dense inverse per sample serves f(a)
    and all of the variants.  The samples go in runs of ``_SG_BLOCK``, each
    one ``map_fn`` task with one stacked inverse.  Violations are report
    entries, never exceptions; alpha == beta, where every ratio is 0/0, and a box
    of more than ``MAX_DENSE_SITES`` sites are a ``ParameterError``.
    """
    values = site_assignments(spec, box.d)  # a ParameterError for any other kind
    if spec.is_deterministic:
        raise ParameterError("sg_check needs alpha < beta: with alpha == beta every "
                             "functional is constant and its ratio is 0/0")
    if box.n_sites > MAX_DENSE_SITES:
        raise ParameterError(f"sg_check inverts a dense cell matrix per sample: {box.n_sites} "
                             f"sites is more than {MAX_DENSE_SITES}; lower --L")
    functionals = (SingleSiteEntry(), BoxAverageEntry(max(2, box.L // 2)), CellAhomEntry())

    def block(fields: list[CoefficientField], ids: range) -> np.ndarray:
        """(B, functionals, 2): f and the sum of its squared derivatives per sample."""
        diag = np.stack([a.diag for a in fields])
        out = np.empty((len(fields), len(functionals), 2))
        for j, func in enumerate(functionals):
            fa, table = func.block_values(box, diag, values)
            # in C order each sample's sums add in the order of a one-sample run
            derivs = fa[:, None] - np.ascontiguousarray(table).mean(axis=2)
            out[:, j, 0] = fa
            out[:, j, 1] = np.sum(derivs ** 2, axis=1)
        return out

    # (functionals, 2, n): each functional's values and sums contiguous in sample order
    table = np.stack(per_block(spec, box, n, block, map_fn, _SG_BLOCK, least=2), axis=-1)
    reports = []
    for func, (vals, dsums) in zip(functionals, table):
        var = float(vals.var(ddof=1))
        var_se = float(_mean_stderr((vals - vals.mean()) ** 2)[1])
        den, den_se = map(float, _mean_stderr(dsums))
        ratio = var / den if den > 0 else float("inf")
        ratio_se = ratio * float(np.hypot(var_se / var if var > 0 else 0.0,
                                          den_se / den if den > 0 else 0.0))
        reports.append(SGReport(
            functional=func.name,
            variance=MomentEstimate(var, var_se, 1, n),
            derivative_sum=MomentEstimate(den, den_se, 1, n),
            ratio=ratio,
            ratio_stderr=ratio_se,
        ))
    return reports


# ---------------------------------------------------------------------------
# corrector growth
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GrowthFit:
    radii: np.ndarray
    moments: list[MomentEstimate]   # E[|phi(x) - phi(0)|^{2p}]^{1/(2p)} per radius
    model: str                      # "log-fit" (d=2) or "constant-fit" (d>=3)
    slope: float
    intercept: float
    residual: float                 # 1 - R^2 for log-fit; rms/mean for constant-fit


def corrector_growth(spec: EnsembleSpec, box: BoxSpec, radii: Sequence[int], p: int, n: int,
                     cfg: SolverConfig = SolverConfig(),
                     map_fn: Callable = map) -> GrowthFit:
    """Corrector increment moments E[|phi(x) - phi(0)|^{2p}]^{1/(2p)} vs |x|.

    Growth is measured on differences, which are invariant under the
    anchoring convention.  Each sample contributes the average of
    |phi(y + r e_j) - phi(y)|^{2p} over all base sites y and axes j
    (stationarity), which keeps the per-sample noise small.  The squared
    moments are then fitted against log(|x| + 2) in d = 2 and against a
    constant in d >= 3.
    """
    radii = _abscissae(np.asarray(radii, dtype=np.int64), "radii", box.L // 4,
                       "the periodization window L/4", fit=box.d == 2)
    if p < 1:
        raise ParameterError(f"the moment order p must be at least 1, got {p}")
    d = box.d
    xi = np.eye(d)[0]

    def one(a: CoefficientField, i: int) -> np.ndarray:
        phi, _ = solve_corrector(a, xi, cfg)
        g = phi.grid()
        out = np.empty(len(radii))
        with np.errstate(over="ignore"):  # a large p overflows: checked after the draws
            for k, r in enumerate(radii):
                acc = 0.0
                for axis in range(d):
                    diff = np.roll(g, -int(r), axis=axis) - g
                    acc += float(np.mean(np.abs(diff) ** (2 * p)))
                out[k] = acc / d
        return out

    with np.errstate(over="ignore", invalid="ignore"):
        means, ses = _mean_stderr(per_sample(spec, box, n, one, map_fn, least=2))
        moments = [MomentEstimate(
            float(raw ** (1.0 / (2 * p))),
            float(se / (2 * p) * raw ** (1.0 / (2 * p) - 1.0) if raw > 0 else 0.0), p, n)
            for raw, se in zip(means, ses)]
    if not np.isfinite([(m.value, m.stderr) for m in moments]).all():
        raise ParameterError(f"the moments E|phi(x) - phi(0)|^(2p) overflow the float range "
                             f"at p={p}; lower --p")

    sq = means ** (1.0 / p)
    model = "log-fit" if d == 2 else "constant-fit"
    if spec.is_deterministic:  # its moments are rounding residue: no fit, as in _loglog_fit
        return GrowthFit(radii, moments, model, float("nan"), float("nan"), float("nan"))
    if d == 2:
        slope, intercept, r2 = _linear_fit(np.log(radii + 2.0), sq)
        return GrowthFit(radii, moments, model, slope, intercept, 1.0 - r2)
    level = float(sq.mean())
    resid = float(np.sqrt(np.mean((sq - level) ** 2)) / level) if level > 0 else 0.0
    return GrowthFit(radii, moments, model, 0.0, level, resid)


# ---------------------------------------------------------------------------
# semigroup decay
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SemigroupDecayReport:
    t_grid: np.ndarray
    second_moments: np.ndarray
    stderrs: np.ndarray
    fit: DecayFit
    variance_zeta: float
    contraction_ok: bool  # Var(P(t) zeta) <= Var(zeta) on every t


def semigroup_decay(spec: EnsembleSpec, box: BoxSpec, t_grid: Sequence[float],
                    n: int, map_fn: Callable = map) -> SemigroupDecayReport:
    """Decay of E|P(t) zeta - E zeta|^2 for the single-site observable.

    P(t) zeta(a) = sum_x p(t, x) zeta(shift_x a) with the exact torus heat
    kernel; for zeta(a) = a_1(0) the shifted values are just the first
    coefficient column, so each sample contributes one dot product per t.
    Times outside the wrap-validity window t <= (L/8)^2 are rejected.  A
    deterministic ensemble has no decay rate, and its fit is nan.
    """
    t_grid = _abscissae(np.asarray(t_grid, dtype=np.float64), "t_grid", (box.L / 8.0) ** 2,
                        "the torus validity window t <= (L/8)^2")
    kernels = []
    for t in t_grid:
        p = heat_kernel(float(t), box)
        mass = float(p.values.sum())
        if not abs(mass - 1.0) <= 1e-12:
            raise SolverError(f"heat kernel mass {mass} != 1")
        kernels.append(p.values)
    mean_zeta = spec.marginal_mean()

    def one(a: CoefficientField, i: int) -> np.ndarray:
        col = a.diag[:, 0]
        out = np.empty(len(t_grid) + 1)
        out[0] = col[0]  # zeta itself (t = 0 reference for the contraction check)
        for k, pk in enumerate(kernels):
            out[k + 1] = _dot(pk, col)
        return out

    rows = per_sample(spec, box, n, one, map_fn, least=2)
    zeta_var = float(rows[:, 0].var(ddof=1))
    dev = (rows[:, 1:] - mean_zeta) ** 2
    m2, se = _mean_stderr(dev)
    pt_var = rows[:, 1:].var(axis=0, ddof=1)
    # 3 stderr headroom on the Monte Carlo contraction comparison
    contraction = bool(np.all(pt_var <= zeta_var * (1.0 + 3.0 / np.sqrt(n))))
    fit = _loglog_fit(t_grid, m2, spec.is_deterministic)
    return SemigroupDecayReport(t_grid, m2, se, fit, zeta_var, contraction)


# ---------------------------------------------------------------------------
# Green's function decay
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GreenDecayReport:
    radii: np.ndarray
    quenched_profile: np.ndarray      # median over samples/shells of G - G_far
    quenched_fit: DecayFit | None     # power fit (d = 3)
    quenched_log_ratios: np.ndarray | None  # (G(0)-G(x)) / log(|x|+2) (d = 2)
    annealed_profile: np.ndarray      # E[|grad grad G|^2]^{1/2} per shell
    annealed_fit: DecayFit


def green_decay(spec: EnsembleSpec, box: BoxSpec, n: int,
                radii: Sequence[int] | None = None,
                cfg: SolverConfig = SolverConfig(),
                map_fn: Callable = map) -> GreenDecayReport:
    """Quenched and annealed decay statistics of the periodic Green's function.

    Quenched: radial medians of G(a; ., 0) with the far-field level (mean of
    G over the antipodal region) subtracted to remove the torus offset; in
    d = 3 the profile is power-fitted (expected exponent 2 - d), in d = 2 it
    is reported as ratios against log(|x| + 2), taken in the anchored
    difference form G(0) - G(x).

    Annealed: E[|grad_x grad_y G(x, 0)|^2]^{1/2} per shell, from d + 1
    solves per sample (sources at 0 and at each e_j), power-fitted with
    expected exponent -d.
    """
    d = box.d
    if d not in (2, 3):
        raise ParameterError("green_decay supports d in {2, 3}")
    if radii is None:
        radii = [r for r in (2, 3, 4, 5, 6, 8, 12, 16) if r <= box.L // 8]
        if not radii:
            raise ParameterError(f"no radii: the default radii r <= L/8 need L >= 16, got "
                                 f"L={box.L}; give them with --radii")
    radii = _abscissae(np.asarray(radii, dtype=np.int64), "radii", box.L // 4,
                       "the periodization window L/4")
    r = torus_radii(box)
    shells = [np.flatnonzero(np.abs(r - rad) <= 0.5) for rad in radii]  # within 1/2 of rad
    far = r >= 3.0 * box.L / 8.0  # the antipodal region, as a mask
    del r  # a float per site that the solves need not hold
    unit_sites = [box.index_of(tuple(int(k == j) for k in range(d))) for j in range(d)]

    def one(a: CoefficientField, i: int) -> np.ndarray:
        G0, _ = green(a, 0, cfg)
        g0 = G0.values
        far_level = float(g0[far].mean())
        quenched = [_median(g0[s]) - far_level for s in shells]
        # mixed second derivative via the extra sources, one solve at a time
        hess_sq = _grad_energy((green(a, y, cfg)[0].values - g0).reshape(box.shape, order="F")
                               for y in unit_sites)
        return np.array([*quenched, g0[0] - far_level, *(hess_sq[s].mean() for s in shells)])

    rows = per_sample(spec, box, n, one, map_fn)  # quenched (k), center, annealed (k)
    k = len(radii)
    quenched = _median(rows[:, :k])
    center = float(_median(rows[:, k]))
    annealed = np.sqrt(rows[:, k + 1:].mean(axis=0))

    # power-law exponents are fitted against r itself; the +1 shift in the
    # bounds only regularizes the origin and would bias the slope at the
    # small radii a torus can afford
    annealed_fit = _loglog_fit(radii, annealed)
    if d == 3:
        if np.any(quenched <= 0):
            raise ParameterError(
                f"quenched Green profile not positive at radii {radii.tolist()} on "
                f"L={box.L}: the box is too small for these radii; raise --L or "
                f"lower --radii")
        quenched_fit = _loglog_fit(radii, quenched)
        log_ratios = None
    else:
        quenched_fit = None
        log_ratios = (center - quenched) / np.log(radii + 2.0)
    return GreenDecayReport(radii, quenched, quenched_fit, log_ratios, annealed, annealed_fit)


# ---------------------------------------------------------------------------
# weighted-norm stability probe
# ---------------------------------------------------------------------------


def meyers_ratio(a: CoefficientField, h: ScalarField, q: float, alpha_w: float,
                 cfg: SolverConfig = SolverConfig()) -> float:
    """Weighted-norm ratio of grad v against grad h for div*(a grad v) = div* grad h.

    With weight (|x| + 1)^alpha_w on torus radii; q in [1, 1.25] is the
    half-exponent of the norm.  At q = 1, alpha_w = 0 the plain energy
    estimate bounds the ratio by 1/lam^2.
    """
    w = _meyers_weight(a.box, q, alpha_w)
    grad_h = grad(h)
    v, _ = solve_elliptic(a, div_star(grad_h), cfg)
    gv = np.sum(grad(v).values**2, axis=1)
    gh = np.sum(grad_h.values**2, axis=1)
    with np.errstate(over="ignore"):  # an overflow is the error below, not a warning
        num = float(np.sum(gv**q * w))
        den = float(np.sum(gh**q * w))
    if den == 0:
        raise ParameterError("h must be non-constant")
    if not np.isfinite([num, den]).all():
        raise ParameterError(f"weighted sums overflow at alpha_w={alpha_w}; lower --alpha-w")
    return num / den


def _meyers_weight(box: BoxSpec, q: float, alpha_w: float) -> np.ndarray:
    """The weight (|x| + 1)^alpha_w on the torus radii; ``ParameterError`` for a q
    outside [1, 1.25] or an alpha_w at which the largest weight is not finite."""
    if not (1.0 <= q <= 1.25):
        raise ParameterError("q must lie in [1, 1.25]")
    if not 0 <= alpha_w < np.inf:
        raise ParameterError(f"alpha_w must be >= 0 and finite, got {alpha_w}")
    with np.errstate(over="ignore"):  # an overflow is the error below, not a warning
        w = (torus_radii(box) + 1.0) ** alpha_w
    if not np.isfinite(w).all():
        raise ParameterError(f"the weight (|x| + 1)^alpha_w overflows on L={box.L} at "
                             f"alpha_w={alpha_w}; lower --alpha-w")
    return w


@dataclass(frozen=True)
class MeyersProbeReport:
    q: float
    alpha_w: float
    ratios: np.ndarray
    median: float
    blowup_flag: bool   # any ratio exceeding 10x the median


def smooth_random_field(box: BoxSpec, rng: np.random.Generator) -> ScalarField:
    """Mean-zero white noise, heat-smoothed to time 2; the stock right-hand side h."""
    out = smooth(rng.normal(size=box.shape), 2.0)
    out -= out.mean()
    return ScalarField.from_grid(box, out)


def meyers_probe(spec: EnsembleSpec, box: BoxSpec, n: int, q: float, alpha_w: float,
                 cfg: SolverConfig = SolverConfig(),
                 map_fn: Callable = map) -> MeyersProbeReport:
    """Ratio stability across random (a, h) pairs; flags a blow-up of the constant."""
    _meyers_weight(box, q, alpha_w)  # its checks, before the first sample

    def one(a: CoefficientField, i: int) -> float:
        h = smooth_random_field(box, _rng_for(spec, SampleId(i), 1))
        return meyers_ratio(a, h, q, alpha_w, cfg)

    ratios = per_sample(spec, box, n, one, map_fn)
    med = float(_median(ratios))
    return MeyersProbeReport(q, alpha_w, ratios, med, bool(np.any(ratios > 10.0 * med)))


# ---------------------------------------------------------------------------
# ergodic averaging rate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BirkhoffReport:
    R_values: np.ndarray
    rms: np.ndarray
    fit: DecayFit


def birkhoff_rate(spec: EnsembleSpec, box: BoxSpec, R_list: Sequence[int], n: int,
                  map_fn: Callable = map) -> BirkhoffReport:
    """RMS deviation of R-box spatial averages from the ensemble mean vs R.

    For i.i.d. entries the exact rate is sd * R^{-d/2}; the log-log slope of
    the fitted profile is the reported quantity; a deterministic ensemble's is nan.
    """
    R_arr = _abscissae(np.asarray(R_list, dtype=np.int64), "R_list", box.L, "the box side L")
    mean_val = spec.marginal_mean()

    devs = per_sample(spec, box, n, lambda a, i: np.array(
        [spatial_average_observable(a, int(R)) - mean_val for R in R_arr]), map_fn)
    rms = np.sqrt((devs**2).mean(axis=0))
    fit = _loglog_fit(R_arr, rms, spec.is_deterministic)
    return BirkhoffReport(R_arr, rms, fit)
