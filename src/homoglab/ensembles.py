"""Seeded generators for stationary random coefficient fields.

Reproducibility contract: the stream for sample ``i`` of a given spec is
``np.random.default_rng(SeedSequence(entropy=master_seed, spawn_key=(i,)))``.
Streams are independent of evaluation order and of how many samples other
workers draw, so Monte Carlo loops parallelize without coordination.  Draws
of a sample that are not coefficients take ``spawn_key=(i, k)`` with k >= 1.

Supported kinds:

``constant``              all entries equal to ``value``
``iid-two-point``         each diagonal entry independently alpha or beta (p=1/2)
``iid-uniform``           each entry independently uniform on (low, high)
``correlated-two-point``  normalized kernel smoothing of an iid two-point base
                          field (periodic convolution, kernel radius ``radius``
                          with weights exp(-decay * |k|), truncated and
                          normalized); a zero-radius kernel reproduces the iid
                          field bitwise
``periodic-tile``         deterministic tiling of a given unit-cell table
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .lattice import BoxSpec, CoefficientField, _exact_int

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

KINDS = ("constant", "iid-two-point", "iid-uniform", "correlated-two-point", "periodic-tile")


class EnsembleError(ValueError):
    """Invalid ensemble parameters."""


@dataclass(frozen=True)
class SampleId:
    index: int

    def __post_init__(self):
        if self.index < 0:
            raise ValueError("sample index must be non-negative")


@dataclass(frozen=True)
class EnsembleSpec:
    kind: str
    params: dict
    lam: float = 0.2
    master_seed: int = 0

    def __post_init__(self):
        try:
            self._check()
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, EnsembleError):
                raise
            raise EnsembleError(f"{self.kind!r} ensemble: bad parameter {exc!r}") from exc

    def _check(self):
        if self.kind not in KINDS:
            raise EnsembleError(f"unknown ensemble kind {self.kind!r}")
        if not (0.0 < self.lam < 1.0):
            raise EnsembleError(f"lambda={self.lam} must be in (0,1)")
        p = self.params
        if self.kind == "constant":
            v = float(p["value"])
            if not (self.lam < v < 1.0):
                raise EnsembleError(f"constant value {v} outside ({self.lam}, 1)")
        elif self.kind in ("iid-two-point", "correlated-two-point"):
            a, b = float(p["alpha"]), float(p["beta"])
            if not (self.lam < a <= b < 1.0):
                raise EnsembleError(
                    f"two-point values must satisfy {self.lam} < alpha <= beta < 1; "
                    f"got alpha={a}, beta={b}"
                )
            if self.kind == "correlated-two-point":
                r = int(p.get("radius", 1))
                if r < 0:
                    raise EnsembleError("kernel radius must be >= 0")
        elif self.kind == "iid-uniform":
            lo, hi = float(p["low"]), float(p["high"])
            if not (self.lam < lo < hi < 1.0):
                raise EnsembleError(
                    f"uniform bounds must satisfy {self.lam} < low < high < 1; "
                    f"got low={lo}, high={hi}"
                )
        elif self.kind == "periodic-tile":
            cell = np.asarray(p["unit_cell"], dtype=np.float64)
            if cell.ndim != 2:
                raise EnsembleError("unit_cell must be a (tile sites, d) table")
            if cell.size == 0 or not np.all((cell > self.lam) & (cell < 1.0)):
                raise EnsembleError(f"unit_cell entries must lie in ({self.lam}, 1)")

    # -- helpers ----------------------------------------------------------

    @property
    def is_two_point(self) -> bool:
        return self.kind == "iid-two-point"

    def marginal_mean(self) -> float:
        """Expectation of a single diagonal entry, where it is known in closed form."""
        p = self.params
        if self.kind == "constant":
            return float(p["value"])
        if self.kind in ("iid-two-point", "correlated-two-point"):
            return 0.5 * (float(p["alpha"]) + float(p["beta"]))
        if self.kind == "iid-uniform":
            return 0.5 * (float(p["low"]) + float(p["high"]))
        if self.kind == "periodic-tile":
            return float(np.mean(np.asarray(p["unit_cell"], dtype=np.float64)[:, 0]))
        raise EnsembleError(f"no closed-form mean for kind {self.kind!r}")

    def marginal_sd(self, d: int | None = None) -> float:
        p = self.params
        if self.kind == "constant" or self.kind == "periodic-tile":
            return 0.0
        if self.kind == "iid-two-point":
            return 0.5 * (float(p["beta"]) - float(p["alpha"]))
        if self.kind == "iid-uniform":
            return (float(p["high"]) - float(p["low"])) / np.sqrt(12.0)
        if self.kind == "correlated-two-point":
            if d is None:
                raise EnsembleError("correlated marginal sd depends on the dimension d")
            w = _kernel_weights(self, d)
            return 0.5 * (float(p["beta"]) - float(p["alpha"])) * float(
                np.sqrt(sum(v**2 for v in w.values()))
            )
        raise EnsembleError(f"no closed-form sd for kind {self.kind!r}")

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "params": self.params,
            "lambda": self.lam,
            "master_seed": self.master_seed,
        }

    @staticmethod
    def from_json(obj: dict) -> "EnsembleSpec":
        try:
            kind, params = obj["kind"], dict(obj["params"])
            lam, seed = float(obj.get("lambda", 0.2)), _exact_int(obj["master_seed"])
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise EnsembleError(f"ensemble needs kind, params and master_seed: {exc!r}") from exc
        return EnsembleSpec(kind, params, lam, seed)

    @staticmethod
    def load(path) -> "EnsembleSpec":
        with open(path) as fh:
            return EnsembleSpec.from_json(json.load(fh))

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")


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


def _kernel_weights(spec: EnsembleSpec, d: int) -> dict[tuple[int, ...], float]:
    """Normalized nonnegative kernel on offsets with |k|_inf <= radius.

    The dict is keyed by offset tuple so the convolution below is an
    explicit roll-and-add (bitwise identity with the iid field when the
    kernel is the point mass at 0).
    """
    r = int(spec.params.get("radius", 1))
    decay = float(spec.params.get("decay", 1.0))
    offsets = list(itertools.product(range(-r, r + 1), repeat=d))
    w = {k: float(np.exp(-decay * np.linalg.norm(k))) for k in offsets}
    total = sum(w.values())
    if total <= 0:
        raise EnsembleError("empty kernel")
    return {k: v / total for k, v in w.items()}


def sample(spec: EnsembleSpec, box: BoxSpec, sid: SampleId) -> CoefficientField:
    """Draw the coefficient field for (spec, box, sample id); deterministic."""
    n, d = box.n_sites, box.d
    p = spec.params
    if spec.kind == "constant":
        diag = np.full((n, d), float(p["value"]))
    elif spec.kind == "iid-two-point":
        rng = _rng_for(spec, sid)
        a, b = float(p["alpha"]), float(p["beta"])
        diag = np.where(rng.integers(0, 2, size=(n, d)) == 0, a, b)
    elif spec.kind == "iid-uniform":
        rng = _rng_for(spec, sid)
        diag = rng.uniform(float(p["low"]), float(p["high"]), size=(n, d))
    elif spec.kind == "correlated-two-point":
        rng = _rng_for(spec, sid)
        a, b = float(p["alpha"]), float(p["beta"])
        base = np.where(rng.integers(0, 2, size=(n, d)) == 0, a, b)
        w = _kernel_weights(spec, d)
        diag = np.zeros((n, d))
        for comp in range(d):
            g = base[:, comp].reshape(box.shape, order="F")
            acc = np.zeros_like(g)
            for off, weight in sorted(w.items()):
                acc += weight * np.roll(g, shift=tuple(-o for o in off), axis=tuple(range(d)))
            diag[:, comp] = acc.ravel(order="F")
    elif spec.kind == "periodic-tile":
        cell = np.asarray(p["unit_cell"], dtype=np.float64)
        tile_n, cell_d = cell.shape
        tile_L = round(tile_n ** (1.0 / box.d))
        if tile_L**box.d != tile_n or cell_d != d:
            raise EnsembleError(
                f"unit_cell with {tile_n} sites x {cell_d} components does not fit a "
                f"d={d} cubic tile"
            )
        if box.L % tile_L != 0:
            raise EnsembleError(f"box L={box.L} not divisible by tile L={tile_L}")
        diag = cell[(box.coordinate_arrays() % tile_L) @ tile_L ** np.arange(d)]
    else:  # pragma: no cover - guarded by EnsembleSpec validation
        raise EnsembleError(spec.kind)
    return CoefficientField(box, diag, lam=spec.lam)


def _sample_count(n: int, least: int = 1) -> None:
    """Check a sample count before the first sample: ``ValueError`` below
    ``least``, which is 2 for a statistic with a ``ddof=1`` standard error."""
    if n < least:
        raise ValueError(f"the number of samples must be at least {least}, got {n}")


def _mean_stderr(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sample mean over axis 0 and its standard error, std(ddof=1)/sqrt(n)."""
    return rows.mean(axis=0), rows.std(axis=0, ddof=1) / np.sqrt(len(rows))


def per_block(spec: EnsembleSpec, box: BoxSpec, n: int, fn: Callable,
              map_fn: Callable, size: int) -> list:
    """The Monte Carlo loop on runs of ``size`` consecutive sample ids.

    ``fn(fields, ids)`` gets the fields of ``ids``, drawn by :func:`sample` in
    id order, and returns one result per id; the results come back flattened
    in sample order.  ``map_fn`` may be a thread pool's ``map``, whose tasks
    are then the runs.  A pool does not pass contexts on, so each run goes in
    a copy of the caller's: the report scope of
    ``elliptic.collecting_reports`` reaches the workers.
    """
    _sample_count(n)
    ctx = contextvars.copy_context()

    def run(start: int) -> list:
        ids = range(start, min(start + size, n))
        fields = [sample(spec, box, SampleId(i)) for i in ids]
        return ctx.copy().run(fn, fields, ids)

    return [r for results in map_fn(run, range(0, n, size)) for r in results]


def per_sample(spec: EnsembleSpec, box: BoxSpec, n: int, fn: Callable,
               map_fn: Callable = map) -> list:
    """``[fn(sample(spec, box, SampleId(i)), i) for i < n]``: :func:`per_block`
    with runs of one sample, one ``map_fn`` task each."""
    return per_block(spec, box, n, lambda fields, ids: [fn(fields[0], ids[0])], map_fn, 1)


def site_assignments(spec: EnsembleSpec, d: int) -> np.ndarray:
    """(2**d, d) array of the diagonal values one site can take.

    Rows enumerate the (alpha, beta) combinations in ``itertools.product``
    order, the order of :func:`site_variants`.  Two-point kinds only.
    """
    if not spec.is_two_point:
        raise EnsembleError(
            f"site variants require a two-point kind, got {spec.kind!r}"
        )
    alpha, beta = float(spec.params["alpha"]), float(spec.params["beta"])
    return np.array(list(itertools.product((alpha, beta), repeat=d)))


def site_variants(spec: EnsembleSpec, a: CoefficientField, site: int) -> list[CoefficientField]:
    """All coefficient fields agreeing with ``a`` off ``site``.

    Only meaningful for finite-support marginals; enumerates the 2**d
    diagonal assignments at the site for the two-point kinds.  Continuous
    laws raise, signalling the caller to fall back to inner Monte Carlo.
    """
    out = []
    for combo in site_assignments(spec, a.box.d):
        diag = a.diag.copy()
        diag[site] = combo
        out.append(CoefficientField(a.box, diag, lam=a.lam))
    return out


@functools.lru_cache(maxsize=16)
def _sub_box_sites(box: BoxSpec, R: int) -> np.ndarray:
    """Site indices of the centered R-sub-box, cached per (box, R) and read-only."""
    if not (1 <= R <= box.L):
        raise ValueError(f"sub-box size R={R} must satisfy 1 <= R <= L={box.L}")
    lo = (box.L - R) // 2
    coords = box.coordinate_arrays()
    sites = np.flatnonzero(np.all((coords >= lo) & (coords < lo + R), axis=1))
    sites.flags.writeable = False
    return sites


def spatial_average_observable(a: CoefficientField, R: int, component: int = 0) -> float:
    """Average of a chosen diagonal entry over the centered R-sub-box."""
    return float(a.diag[_sub_box_sites(a.box, R), component].mean())
