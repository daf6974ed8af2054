"""Seeded generators for stationary random coefficient fields.

Reproducibility contract: the stream for sample ``i`` of a given spec is
``_rng_for``'s generator of ``SeedSequence(entropy=master_seed, spawn_key=(i,))``.
Streams are independent of evaluation order and of how many samples other
workers draw, so Monte Carlo loops parallelize without coordination.  Draws
of a sample that are not coefficients take ``spawn_key=(i, k)`` with k >= 1.

Supported kinds, whose params ``EnsembleSpec._read`` reads once, into the law
(``marginal`` and ``structure``) that ``sample`` draws from:

``constant``              all entries equal to ``value``
``iid-two-point``         each diagonal entry independently alpha or beta (p=1/2)
``iid-uniform``           each entry independently uniform on (low, high)
``correlated-two-point``  normalized kernel smoothing of an iid two-point base
                          field (periodic convolution with weights exp(-decay
                          * |k|) on |k|_inf <= radius, kept as (radius, decay));
                          a zero-radius kernel reproduces the iid field bitwise
``periodic-tile``         deterministic tiling of a read-only copy of a unit cell
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import numpy.random  # numpy loads it lazily, and a run imports nothing

from .lattice import (BoxSpec, CoefficientField, ParameterError, _as_float, _converted,
                      _exact_int, _only)

__all__ = [
    "EnsembleSpec",
    "SampleId",
    "sample",
    "per_sample",
    "per_block",
    "site_assignments",
    "site_variants",
    "spatial_average_observable",
    "two_point",
    "uniform",
    "constant",
]

# each kind and the params that EnsembleSpec._read takes for it
KIND_PARAMS = {"constant": ("value",), "iid-two-point": ("alpha", "beta"),
               "iid-uniform": ("low", "high"),
               "correlated-two-point": ("alpha", "beta", "radius", "decay"),
               "periodic-tile": ("unit_cell",)}
KINDS = tuple(KIND_PARAMS)


@dataclass(frozen=True)
class SampleId:
    index: int

    def __post_init__(self):
        object.__setattr__(self, "index", _exact_int(self.index, "sample index"))
        if self.index < 0:
            raise ParameterError("sample index must be non-negative")


@dataclass(frozen=True, eq=False)
class EnsembleSpec:
    kind: str
    params: dict
    lam: float = 0.2
    master_seed: int = 0
    # the law, read from params by _read: (low, high) of one diagonal entry, None for a
    # tile; and the tile's read-only (tile sites, d) table or the kernel's (radius, decay)
    marginal: tuple[float, float] | None = field(init=False, repr=False)
    structure: np.ndarray | tuple | None = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "lam", _as_float(self.lam, "lambda"))
        object.__setattr__(self, "master_seed", _exact_int(self.master_seed, "master_seed"))
        marginal, structure = self._read()
        object.__setattr__(self, "marginal", marginal)
        object.__setattr__(self, "structure", structure)

    def _read(self) -> tuple:
        """The params, checked, as (marginal, structure): the one place that reads them."""
        if self.kind not in KINDS:
            raise ParameterError(f"unknown ensemble kind {self.kind!r}")
        if not (0.0 < self.lam < 1.0):
            raise ParameterError(f"lambda={self.lam} must be in (0,1)")
        if self.master_seed < 0:
            raise ParameterError(f"master_seed must be a non-negative integer, "
                                 f"got {self.master_seed}")
        p = _only(self.params, KIND_PARAMS[self.kind], f"{self.kind} ensemble params")
        if self.kind == "constant":
            v = _as_float(p.get("value"), "value")
            if not (self.lam < v < 1.0):
                raise ParameterError(f"constant value {v} outside ({self.lam}, 1)")
            return (v, v), None
        if self.kind == "iid-uniform":
            lo, hi = _as_float(p.get("low"), "low"), _as_float(p.get("high"), "high")
            if not (self.lam < lo < hi < 1.0):
                raise ParameterError(
                    f"uniform bounds must satisfy {self.lam} < low < high < 1; "
                    f"got low={lo}, high={hi}"
                )
            return (lo, hi), None
        if self.kind == "periodic-tile":  # cell is a copy, never the caller's table
            cell = _converted(np.array, p.get("unit_cell"), "unit_cell")
            if cell.ndim != 2 or cell.dtype.kind not in "iuf":  # a string or None: "U", "O"
                raise ParameterError("unit_cell must be a (tile sites, d) table of numbers")
            cell = cell.astype(np.float64)
            if cell.size == 0 or not np.all((cell > self.lam) & (cell < 1.0)):
                raise ParameterError(f"unit_cell entries must lie in ({self.lam}, 1)")
            cell.flags.writeable = False
            return None, cell
        a, b = _as_float(p.get("alpha"), "alpha"), _as_float(p.get("beta"), "beta")
        if not (self.lam < a <= b < 1.0):
            raise ParameterError(
                f"two-point values must satisfy {self.lam} < alpha <= beta < 1; "
                f"got alpha={a}, beta={b}"
            )
        if self.kind == "correlated-two-point":
            r = _exact_int(p.get("radius", 1), "radius")
            decay = _as_float(p.get("decay", 1.0), "decay")
            if r < 0 or not (0.0 <= decay < np.inf):
                raise ParameterError(f"kernel radius must be >= 0 and decay finite and "
                                     f">= 0; got radius={r}, decay={decay}")
            return (a, b), (r, decay)
        return (a, b), None

    def __eq__(self, other):  # the law and seed that to_json writes, not params as given
        return isinstance(other, EnsembleSpec) and self.to_json() == other.to_json()

    def __hash__(self):
        return hash(json.dumps(self.to_json()))

    # -- helpers ----------------------------------------------------------

    @property
    def is_two_point(self) -> bool:
        return self.kind == "iid-two-point"

    @property
    def is_deterministic(self) -> bool:
        """Every sample is the same field: a constant, a tiling, or two equal values."""
        return self.marginal is None or self.marginal[0] == self.marginal[1]

    def marginal_mean(self) -> float:
        """Expectation of a single diagonal entry; for a tile, the mean of the
        unit cell's first column."""
        if self.marginal is None:
            return float(np.mean(self.structure[:, 0]))
        low, high = self.marginal
        return 0.5 * (low + high)

    def to_json(self) -> dict:
        """The spec, with its params read back from the law that it draws from."""
        law = ((self.structure.tolist(),) if self.marginal is None  # a tile
               else self.marginal[:len(KIND_PARAMS[self.kind])] + (self.structure or ()))
        return {
            "kind": self.kind,
            "params": dict(zip(KIND_PARAMS[self.kind], law)),
            "lambda": self.lam,
            "master_seed": self.master_seed,
        }

    @staticmethod
    def from_json(obj: dict) -> "EnsembleSpec":
        _only(obj, ("kind", "params", "lambda", "master_seed"), "ensemble")
        return EnsembleSpec(obj.get("kind"), obj.get("params"), obj.get("lambda", 0.2),
                            obj.get("master_seed"))

    @staticmethod
    def load(path) -> "EnsembleSpec":
        with open(path) as fh:
            return EnsembleSpec.from_json(json.load(fh))


def constant(value: float, lam: float = 0.2, master_seed: int = 0) -> EnsembleSpec:
    return EnsembleSpec("constant", {"value": value}, lam, master_seed)


def two_point(alpha: float = 0.25, beta: float = 0.75, lam: float = 0.2, master_seed: int = 0) -> EnsembleSpec:
    return EnsembleSpec("iid-two-point", {"alpha": alpha, "beta": beta}, lam, master_seed)


def uniform(low: float = 0.25, high: float = 0.75, lam: float = 0.2, master_seed: int = 0) -> EnsembleSpec:
    return EnsembleSpec("iid-uniform", {"low": low, "high": high}, lam, master_seed)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def _rng_for(spec: EnsembleSpec, sid: SampleId, *key: int) -> np.random.Generator:
    """Sample ``sid``'s stream; an extra ``key`` names another, independent one."""
    ss = np.random.SeedSequence(entropy=spec.master_seed, spawn_key=(sid.index, *key))
    return np.random.default_rng(ss)


# a draw rolls the field once per kernel offset: radius <= 2047, 31, 7 at d = 1, 2, 3
MAX_KERNEL_OFFSETS = 2**12


def _kernel_weights(spec: EnsembleSpec, d: int) -> dict[tuple[int, ...], float]:
    """Normalized nonnegative kernel on offsets with |k|_inf <= radius.

    The dict is keyed by offset tuple so the convolution below is an
    explicit roll-and-add (bitwise identity with the iid field when the
    kernel is the point mass at 0).  A kernel of more than
    ``MAX_KERNEL_OFFSETS`` offsets is a ``ParameterError``.
    """
    r, decay = spec.structure
    if (2 * r + 1) ** d > MAX_KERNEL_OFFSETS:
        raise ParameterError(f"kernel radius {r} at d={d} has more than {MAX_KERNEL_OFFSETS} "
                             f"offsets (2r+1)^d")
    offsets = list(itertools.product(range(-r, r + 1), repeat=d))
    w = {k: float(np.exp(-decay * np.linalg.norm(k))) for k in offsets}
    total = sum(w.values())  # >= 1, the weight at offset 0
    return {k: v / total for k, v in w.items()}


def sample(spec: EnsembleSpec, box: BoxSpec, sid: SampleId) -> CoefficientField:
    """Draw the coefficient field for (spec, box, sample id); deterministic."""
    n, d = box.n_sites, box.d
    if spec.kind == "constant":
        diag = np.full((n, d), spec.marginal[0])
    elif spec.kind == "iid-uniform":
        diag = _rng_for(spec, sid).uniform(*spec.marginal, size=(n, d))
    elif spec.kind in ("iid-two-point", "correlated-two-point"):  # low or high, p = 1/2
        diag = np.where(_rng_for(spec, sid).integers(0, 2, size=(n, d)) == 0, *spec.marginal)
        if spec.kind == "correlated-two-point":  # all d components at once, on the last axis
            g = diag.reshape((*box.shape, d), order="F")
            acc = np.zeros(g.shape, order="F")
            for off, weight in sorted(_kernel_weights(spec, d).items()):
                acc += weight * np.roll(g, shift=tuple(-o for o in off), axis=tuple(range(d)))
            diag = acc.reshape((n, d), order="F")  # a view, in CoefficientField's column order
    else:  # periodic-tile
        tile_n, cell_d = spec.structure.shape
        tile_L = round(tile_n ** (1.0 / box.d))
        if tile_L**box.d != tile_n or cell_d != d:
            raise ParameterError(
                f"unit_cell with {tile_n} sites x {cell_d} components does not fit a "
                f"d={d} cubic tile"
            )
        if box.L % tile_L != 0:
            raise ParameterError(f"box L={box.L} not divisible by tile L={tile_L}")
        diag = spec.structure[(box.coordinate_arrays() % tile_L) @ tile_L ** np.arange(d)]
    return CoefficientField(box, diag, lam=spec.lam)


def _mean_stderr(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sample mean over axis 0 and its standard error, std(ddof=1)/sqrt(n).

    A column whose largest magnitude is below 1/2 is scaled up by an exact power
    of two before its squares are taken, so they do not underflow; that is exact
    where the column holds no subnormal.  No column is scaled down, so a standard
    error that overflows stays inf.
    """
    shift = np.maximum(-np.frexp(np.max(np.abs(rows), axis=0))[1], 0)
    se = np.ldexp(np.ldexp(rows, shift).std(axis=0, ddof=1), -shift)
    return rows.mean(axis=0), se / np.sqrt(len(rows))


# the most runs one map_fn call of per_block gets: a pool's map submits every task
# before it yields a result, so one call over all runs would hold a future for each
RUNS_PER_MAP = 4096  # 64 runs for each of cli.MAX_THREADS workers


def per_block(spec: EnsembleSpec, box: BoxSpec, n: int, fn: Callable,
              map_fn: Callable, size: int, least: int = 1) -> list:
    """The Monte Carlo loop on runs of ``size`` consecutive sample ids, once
    ``n`` is at least ``least`` (2 for a statistic with a ``ddof=1`` standard
    error; below it, a ``ParameterError`` before the first sample).

    ``fn(fields, ids)`` gets the fields of ``ids``, drawn by :func:`sample` in
    id order, and returns one result per id; the results come back flattened
    in sample order.  ``map_fn`` may be a thread pool's ``map``, whose tasks
    are then the runs, at most ``RUNS_PER_MAP`` to a call.  A pool does not
    pass contexts on, so each run goes in a copy of the caller's: the report
    scope of ``elliptic.collecting_reports`` reaches the workers.
    """
    if n < least:
        raise ParameterError(f"the number of samples must be at least {least}, got {n}")
    ctx = contextvars.copy_context()

    def run(start: int) -> list:
        ids = range(start, min(start + size, n))
        fields = [sample(spec, box, SampleId(i)) for i in ids]
        return ctx.copy().run(fn, fields, ids)

    starts = range(0, n, size)
    return [r for i in range(0, len(starts), RUNS_PER_MAP)
            for results in map_fn(run, starts[i:i + RUNS_PER_MAP]) for r in results]


def per_sample(spec: EnsembleSpec, box: BoxSpec, n: int, fn: Callable,
               map_fn: Callable = map, least: int = 1) -> np.ndarray:
    """``np.stack([fn(sample(spec, box, SampleId(i)), i) for i < n])``, once
    ``n`` is at least ``least``: :func:`per_block` with runs of one sample, one
    ``map_fn`` task each."""
    return np.stack(per_block(spec, box, n, lambda f, ids: [fn(f[0], ids[0])], map_fn, 1, least))


def site_assignments(spec: EnsembleSpec, d: int) -> np.ndarray:
    """(2**d, d) array of the diagonal values one site can take.

    Rows enumerate the (alpha, beta) combinations in ``itertools.product``
    order, the order of :func:`site_variants`.  Two-point kinds only.
    """
    if not spec.is_two_point:
        raise ParameterError(
            f"site variants require a two-point kind, got {spec.kind!r}"
        )
    return np.array(list(itertools.product(spec.marginal, repeat=d)))


def site_variants(spec: EnsembleSpec, a: CoefficientField, site: int) -> list[CoefficientField]:
    """All coefficient fields agreeing with ``a`` off ``site``.

    Enumerates the 2**d diagonal assignments at the site; other kinds than
    ``iid-two-point`` raise ``ParameterError`` (see :func:`site_assignments`).
    """
    out = []
    for combo in site_assignments(spec, a.box.d):
        diag = a.diag.copy(order="F")
        diag[site] = combo
        out.append(CoefficientField(a.box, diag, lam=a.lam))
    return out


@functools.lru_cache(maxsize=16)
def _sub_box_sites(box: BoxSpec, R: int) -> np.ndarray:
    """Site indices of the centered R-sub-box, cached per (box, R) and read-only."""
    if not (1 <= R <= box.L):
        raise ParameterError(f"sub-box size R={R} must satisfy 1 <= R <= L={box.L}")
    lo = (box.L - R) // 2
    coords = box.coordinate_arrays()
    sites = np.flatnonzero(np.all((coords >= lo) & (coords < lo + R), axis=1))
    sites.flags.writeable = False
    return sites


def spatial_average_observable(a: CoefficientField, R: int) -> float:
    """Average of a_1, the first diagonal entry, over the centered R-sub-box."""
    return float(a.diag[_sub_box_sites(a.box, R), 0].mean())
