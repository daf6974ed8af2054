"""Discrete calculus on periodic lattice boxes.

Fields live on the sites of a d-dimensional torus (Z/LZ)^d.  Site indexing
is the documented bijection

    index(x) = sum_k x_k * L**(k-1),   x = (x_1, ..., x_d), 0 <= x_k < L,

i.e. x_1 is the fastest-varying coordinate.  A flat value array of length
N = L**d reshaped with Fortran order therefore has axis k-1 <-> coordinate
x_k, which is how all operators below are implemented (``np.roll`` on the
grid view realizes the periodic shifts exactly).

Difference operators:

    (grad u)_i(x)  = u(x + e_i) - u(x)
    (div_star F)(x) = sum_i F_i(x - e_i) - F_i(x)

``div_star`` is the adjoint of ``grad`` for the plain Euclidean inner
product, which is the summation-by-parts identity the solvers rely on.
"""

from __future__ import annotations

import functools
import numbers
import operator
from dataclasses import dataclass
from typing import Iterator

import numpy as np

__all__ = [
    "ParameterError",
    "BoxSpec",
    "ScalarField",
    "VectorField",
    "SkewField",
    "CoefficientField",
    "grad",
    "div_star",
    "apply_elliptic",
    "inner",
    "neighbours",
    "shift",
    "torus_coordinates",
    "torus_radii",
]


class ParameterError(ValueError):
    """Rejected input: a parameter, config or file the library cannot use."""


# the most sites of one box: L <= 4194304, 2048, 161 at d = 1, 2, 3; one float64
# field on it takes 32 MB, and a CG solve holds about ten
MAX_SITES = 2**22


@dataclass(frozen=True)
class BoxSpec:
    """Periodic box (Z/LZ)^d with row-major site indexing."""

    d: int
    L: int

    def __post_init__(self):
        object.__setattr__(self, "d", _exact_int(self.d, "d"))
        object.__setattr__(self, "L", _exact_int(self.L, "L"))
        if self.d not in (1, 2, 3):
            raise ParameterError(f"dimension d={self.d} not supported (d in {{1,2,3}})")
        if self.L < 2:
            raise ParameterError(f"side length L={self.L} must be >= 2")
        if self.L**self.d > MAX_SITES:
            raise ParameterError(f"a box of L={self.L} at d={self.d} has more than "
                                 f"{MAX_SITES} sites L^d")

    @property
    def n_sites(self) -> int:
        return self.L**self.d

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.L,) * self.d

    def index_of(self, x) -> int:
        """Flat index of coordinate tuple x (components taken mod L)."""
        idx = 0
        for k in reversed(range(self.d)):
            idx = idx * self.L + (int(x[k]) % self.L)
        return idx

    def coordinate_arrays(self) -> np.ndarray:
        """(N, d) integer array of site coordinates in index order."""
        grids = np.meshgrid(*[np.arange(self.L)] * self.d, indexing="ij")
        return np.stack([g.ravel(order="F") for g in grids], axis=1)

    def to_json(self) -> dict:
        return {"d": self.d, "L": self.L}

    @staticmethod
    def from_json(obj: dict) -> "BoxSpec":
        _only(obj, ("d", "L"), "box")
        return BoxSpec(d=obj.get("d"), L=obj.get("L"))


def _converted(read, value, name: str):
    """``read(value)``, where a boolean (Python's 0 or 1) or the conversion's ``TypeError``,
    ``ValueError`` or ``OverflowError`` is ``ParameterError("bad <name> <value>: <reason>")``."""
    try:
        if isinstance(value, bool):
            raise TypeError("a boolean is not a number")
        return read(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(f"bad {name} {value!r}: {exc}") from exc


def _exact_int(value, name: str) -> int:
    """A JSON integer as int.  Where ``int()`` truncates 4.9 and parses "4",
    this rejects every float, string and boolean."""
    return _converted(operator.index, value, name)


def _real(value) -> float:
    """``float(value)`` of a real number, where ``float()`` would also parse "0.25"."""
    if not isinstance(value, numbers.Real):
        raise TypeError(f"a {type(value).__name__} is not a real number")
    return float(value)


def _as_float(value, name: str) -> float:
    """A JSON number as float: a string or a boolean is a ``ParameterError``."""
    return _converted(_real, value, name)


def _only(obj, keys, what: str):
    """``obj``; ``ParameterError`` unless it is a dict whose every key is in ``keys``,
    so that a key no reader takes, such as a misspelt one, is not silently ignored."""
    if not isinstance(obj, dict):
        raise ParameterError(f"{what} must be an object, got {obj!r}")
    if extra := [key for key in obj if key not in keys]:
        raise ParameterError(f"{what}: unknown key {', '.join(map(repr, extra))} "
                             f"(known: {', '.join(keys)})")
    return obj


def _abscissae(values: np.ndarray, name: str, limit: float, window: str,
               fit: bool = True) -> np.ndarray:
    """``values`` sorted; ``ParameterError`` unless each is positive (the fit is in
    log-log), distinct (the fit would count a repeat twice) and at most ``limit``,
    the edge of ``window``, with two of them where a line is ``fit``."""
    xs = np.sort(values)
    if xs.size == 0:
        raise ParameterError(f"{name} must be a non-empty list of positive values")
    if not np.all(xs > 0):
        raise ParameterError(f"{name} must be positive, got {xs.tolist()}")
    if np.any(xs[1:] == xs[:-1]):
        raise ParameterError(f"{name} must be distinct, got {xs.tolist()}: the fit would "
                             f"count a repeated point twice")
    if fit and xs.size < 2:
        raise ParameterError(f"{name} needs at least two distinct values for the fit, "
                             f"got {xs.tolist()}")
    if xs[-1] > limit:
        raise ParameterError(f"{name} value {xs[-1]} outside {window} = {limit}")
    return xs


def _check_values(values: np.ndarray, expected_shape: tuple[int, ...], what: str):
    if values.shape != expected_shape:
        raise ParameterError(f"{what}: expected shape {expected_shape}, got {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ParameterError(f"{what}: values must be finite")


@dataclass(frozen=True)
class ScalarField:
    """Real-valued lattice function, one value per site."""

    box: BoxSpec
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        _check_values(self.values, (self.box.n_sites,), "ScalarField")

    def grid(self) -> np.ndarray:
        """d-dimensional view, axis k <-> coordinate x_{k+1}."""
        return self.values.reshape(self.box.shape, order="F")

    @staticmethod
    def from_grid(box: BoxSpec, grid: np.ndarray) -> "ScalarField":
        return ScalarField(box, np.ravel(grid, order="F"))

    @staticmethod
    def zeros(box: BoxSpec) -> "ScalarField":
        return ScalarField(box, np.zeros(box.n_sites))

    @staticmethod
    def delta(box: BoxSpec) -> "ScalarField":
        """The Dirac at site 0."""
        v = np.zeros(box.n_sites)
        v[0] = 1.0
        return ScalarField(box, v)


@dataclass(frozen=True)
class VectorField:
    """d-component field; component i lives on the edge x -> x + e_i."""

    box: BoxSpec
    values: np.ndarray  # (N, d)

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        _check_values(self.values, (self.box.n_sites, self.box.d), "VectorField")

    def grid(self, i: int) -> np.ndarray:
        return self.values[:, i].reshape(self.box.shape, order="F")


@dataclass(frozen=True)
class SkewField:
    """Matrix field antisymmetric in its two component indices.

    values[:, j, k] holds sigma_{jk}; the derivative index of
    ``(div_star sigma)_j = sum_k grad*_k sigma_{jk}`` is the last one.
    """

    box: BoxSpec
    values: np.ndarray  # (N, d, d)

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        d = self.box.d
        _check_values(self.values, (self.box.n_sites, d, d), "SkewField")
        if not np.array_equal(self.values, -np.swapaxes(self.values, 1, 2)):
            raise ParameterError("SkewField: values must be exactly antisymmetric in (j,k)")


@dataclass(frozen=True)
class CoefficientField:
    """Per-site diagonal coefficient matrix a(x) = diag(a_1..a_d).

    Entries must lie strictly inside (lam, 1); ``lam`` is the global
    ellipticity constant attached to the field.  ``diag`` is kept
    column-major, so each component a_i is one contiguous vector, the
    layout the solvers' stencil reads without a copy per solve.
    """

    box: BoxSpec
    diag: np.ndarray  # (N, d), column-major
    lam: float = 0.2

    def __post_init__(self):
        object.__setattr__(self, "diag", np.asarray(self.diag, dtype=np.float64, order="F"))
        _check_values(self.diag, (self.box.n_sites, self.box.d), "CoefficientField")
        if not (0.0 < self.lam < 1.0):
            raise ParameterError(f"ellipticity constant lam={self.lam} must be in (0,1)")
        lo, hi = self.diag.min(), self.diag.max()
        if lo <= self.lam or hi >= 1.0:
            raise ParameterError(
                f"coefficient entries must lie in ({self.lam}, 1); got [{lo}, {hi}]"
            )

    def grid(self, i: int) -> np.ndarray:
        return self.diag[:, i].reshape(self.box.shape, order="F")

    @staticmethod
    def constant(box: BoxSpec, value: float, lam: float = 0.2) -> "CoefficientField":
        return CoefficientField(box, np.full((box.n_sites, box.d), float(value)), lam)


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


def _require_same_box(a, b):
    if a.box != b.box:
        raise ParameterError(f"box mismatch: {a.box} vs {b.box}")


@functools.lru_cache(maxsize=16)
def neighbours(box: BoxSpec) -> tuple[np.ndarray, np.ndarray]:
    """Site-index tables ``(fwd, bwd)``, each (N, d) int32: x + e_i and x - e_i.

    Cached per box and read-only, so every caller and thread shares them;
    ``int32`` holds every index up to ``MAX_SITES`` in half the memory of int64.
    """
    g = np.arange(box.n_sites, dtype=np.int32).reshape(box.shape, order="F")
    tables = []
    for step in (-1, 1):
        t = np.stack([np.roll(g, step, axis=i).ravel(order="F") for i in range(box.d)], axis=1)
        t.flags.writeable = False
        tables.append(t)
    return tables[0], tables[1]


def shift(u: ScalarField, offset) -> ScalarField:
    """u(. + offset) with periodic wrap; offset is a d-tuple of integers."""
    g = u.grid()
    for axis, off in enumerate(offset):
        if off:
            g = np.roll(g, -int(off), axis=axis)
    return ScalarField.from_grid(u.box, g)


def _grad_arr(g: np.ndarray, axis: int) -> np.ndarray:
    return np.roll(g, -1, axis=axis) - g


def _grad_energy(grids) -> np.ndarray:
    """sum_g sum_i (grad_i g)^2 per site, in index order, over an iterable of
    grids, consumed one at a time and summed in their order."""
    total = 0.0
    for g in grids:
        for i in range(g.ndim):
            total += _grad_arr(g, i).ravel(order="F") ** 2
        del g  # so the next grid is made without this one alive
    return total


def _div_star_arr(comps: list[np.ndarray]) -> np.ndarray:
    out = np.zeros(comps[0].shape)
    for i, g in enumerate(comps):
        out += np.roll(g, 1, axis=i) - g
    return out


def grad(u: ScalarField) -> VectorField:
    """Forward difference gradient, (grad u)_i(x) = u(x+e_i) - u(x)."""
    g = u.grid()
    comps = [_grad_arr(g, i).ravel(order="F") for i in range(u.box.d)]
    return VectorField(u.box, np.stack(comps, axis=1))


def div_star(F: VectorField) -> ScalarField:
    """Adjoint divergence, (div* F)(x) = sum_i F_i(x-e_i) - F_i(x)."""
    return ScalarField.from_grid(F.box, _div_star_arr([F.grid(i) for i in range(F.box.d)]))


def apply_elliptic(a: CoefficientField, u: ScalarField) -> ScalarField:
    """Elliptic finite-difference operator div*(a grad u).

    Linear in u, self-adjoint, positive semidefinite with the constants as
    kernel; the quadratic form is <grad u, a grad u>.  Built from ``grad``
    and ``div_star`` on the grid, independently of the flux stencil that
    the solvers apply (``elliptic._elliptic_op``).
    """
    _require_same_box(a, u)
    g = u.grid()
    comps = [a.grid(i) * _grad_arr(g, i) for i in range(a.box.d)]
    return ScalarField.from_grid(a.box, _div_star_arr(comps))


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    """sum(x * y) by ``np.einsum`` over both arrays in x's memory order.

    One pass with no product array.  No BLAS call, so the bits do not
    depend on the BLAS thread count (BLAS ``dot`` splits long vectors
    across its threads).
    """
    if x.strides != y.strides:  # lay y out like x, so both ravels pair up
        y_like = np.empty_like(x)
        y_like[...] = y
        y = y_like
    return float(np.einsum("i,i->", x.ravel(order="K"), y.ravel(order="K")))


def inner(u: ScalarField, v: ScalarField) -> float:
    _require_same_box(u, v)
    return _dot(u.values, v.values)


def _norm(x: np.ndarray) -> float:
    return float(np.sqrt(_dot(x, x)))


def torus_coordinates(box: BoxSpec) -> np.ndarray:
    """(N, d) signed coordinates wrapped to [-L/2, L/2)."""
    c = box.coordinate_arrays().astype(np.float64)
    c[c >= box.L / 2] -= box.L
    return c


def torus_radii(box: BoxSpec) -> np.ndarray:
    """Euclidean distance of every site from the origin, with wrap."""
    return np.linalg.norm(torus_coordinates(box), axis=1)


# ---------------------------------------------------------------------------
# serialization (binary-free: CSV text)
# ---------------------------------------------------------------------------


# Whole columns become text at once, in numpy.  A float cell is exactly what
# ``format(v, ".16e")`` writes: the sign, 17 correctly rounded significant
# digits as ``d.dddddddddddddddd``, ``e``, the exponent's sign and at least two
# exponent digits, so every cell has one layout and reads back to the same bits.
# The digits come from a double-double product of |v| with a power of ten,
# after Grisu (Loitsch, PLDI 2010): the product certifies its rounding or hands
# the value to ``format`` itself.  Cells are NUL-padded byte rows; the NULs are
# dropped when a block of rows is joined, and each block is yielded as ASCII
# bytes, so a caller streams the table to a file and no more than one block is
# held as text.

_K_MIN, _K_MAX = -324, 308  # floor(log10 |v|) over the finite nonzero float64
_TIE_GUARD = 2.0**-20  # far wider than the product's error, under 2**-45 of a unit
# rows per block: bounds the scratch arrays and the text held at once.  Peak RSS
# of `corrector --d 2 --L 256` (a 7.0 MB table; 2-core VM, a fresh process per
# run, 3 runs each) was 49.2 MB at 1 << 11 and 1 << 12, 51.6 MB at 1 << 13 and
# 58.0 MB at 1 << 14; its 0.17-0.30 s in `cli.main` did not tell the sizes apart.
_BLOCK_ROWS = 1 << 12
_NUL, _MINUS, _PLUS = 0, ord("-"), ord("+")


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split: x = hi + lo with 26-bit halves, so products of halves are exact."""
    c = 134217729.0 * x  # 2**27 + 1
    hi = c - (c - x)
    return hi, x - hi


def _power_table() -> tuple[np.ndarray, ...]:
    """Per p = 16 - k: ``(hi, hi_hi, hi_lo, lo, b)`` with hi + lo = 10**p * 2**-b in
    [1, 2) to within 2**-104, from Python ints only; (hi_hi, hi_lo) splits hi."""
    hi, lo, b = [], [], []
    for p in range(16 - _K_MAX, 16 - _K_MIN + 1):
        n = 10 ** abs(p)
        shift = n.bit_length() - 1 if p >= 0 else -n.bit_length()
        t = (n << 120) >> shift if p >= 0 else (1 << (120 - shift)) // n  # floor(2**(120 - b) * 10**p)
        top = t >> 68  # the leading 53 bits
        hi.append(top / 2**52)
        lo.append((t - (top << 68)) / 2**120)
        b.append(shift)
    hi = np.array(hi)
    return (hi, *_split(hi), np.array(lo), np.array(b, dtype=np.int32))


_POW_HI, _POW_HI_HI, _POW_HI_LO, _POW_LO, _POW_EXP = _power_table()
# per 4-digit group 0..9999, its ASCII digits as one 32-bit word
_DIGITS4 = (np.arange(10000, dtype=np.int16)[:, None] // np.array([1000, 100, 10, 1], np.int16)
            % 10 + ord("0")).astype(np.uint8).view(np.uint32).ravel()
_POW10_U64 = np.array([10**j for j in range(1, 20)], dtype=np.uint64)


def _float_cells(x: np.ndarray) -> np.ndarray:
    """(m, 24) NUL-padded ASCII rows, each ``format(v, ".16e")`` of a float64 v."""
    m = len(x)
    a = np.abs(x)
    zero, finite = a == 0, np.isfinite(a)
    a[zero | ~finite] = 1.0
    k = np.floor(np.log10(a)).astype(np.intp)  # may be one off; then D is out of range
    i = _K_MAX - k
    f, e = np.frexp(a)  # exact, subnormals too: f in [0.5, 1)
    f_hi, f_lo = _split(f)
    hh, hl = _POW_HI_HI[i], _POW_HI_LO[i]
    head = f * _POW_HI[i]
    tail = ((f_hi * hh - head) + f_hi * hl + f_lo * hh) + f_lo * hl + f * _POW_LO[i]
    s = e + _POW_EXP[i]
    head, tail = np.ldexp(head, s), np.ldexp(tail, s)  # head + tail = |v| * 10**(16 - k)
    rounded = np.rint(tail)
    D = head.astype(np.int64) + rounded.astype(np.int64)  # head >= 2**53 is an integer
    # 10**16 < D < 10**17 - 1 proves k right and that rounding carries into no new decade
    certified = (np.abs(tail - rounded) < 0.5 - _TIE_GUARD) & (D > 10**16) & (D < 10**17 - 1)
    fallback = np.flatnonzero(~(certified & finite | zero))
    D[zero] = 0
    k[zero] = 0
    high, low = np.divmod(D, 10**8)
    groups = [high // 10**8, high // 10**4 % 10**4, high % 10**4, low // 10**4, low % 10**4]
    src = np.empty((m, 6), np.uint32)  # "000d", the 16 digits after it, then "0kkk"
    for j, g in enumerate(groups):
        src[:, j] = _DIGITS4[g]
    src[:, 5] = _DIGITS4[np.abs(k)]
    src = src.view(np.uint8)
    cells = np.empty((m, 24), np.uint8)
    cells[:, 0] = np.where(np.signbit(x), _MINUS, _NUL)
    cells[:, 1] = src[:, 3]
    cells[:, 2] = ord(".")
    cells[:, 3:19] = src[:, 4:20]
    cells[:, 19] = ord("e")
    cells[:, 20] = np.where(k < 0, _MINUS, _PLUS)
    cells[:, 21] = np.where(np.abs(k) < 100, _NUL, src[:, 21])
    cells[:, 22:] = src[:, 22:]
    if len(fallback):
        text = [format(v, ".16e") for v in x[fallback].tolist()]
        cells[fallback] = np.array(text, dtype="S24").view(np.uint8).reshape(-1, 24)
    return cells


def _int_cells(v: np.ndarray) -> np.ndarray:
    """(m, width) NUL-padded ASCII rows, each the decimal ``str`` of an integer."""
    u = v.astype(np.uint64)
    negative = v < 0
    magnitude = np.where(negative, ~u + np.uint64(1), u)  # |v|, int64 minimum included
    n_digits = np.searchsorted(_POW10_U64, magnitude, side="right") + 1
    width = int(n_digits.max(initial=1))
    groups = []
    for _ in range(-(-width // 4)):
        magnitude, g = np.divmod(magnitude, np.uint64(10000))
        groups.append(_DIGITS4[g])
    digits = np.stack(groups[::-1], axis=1).view(np.uint8)[:, -width:]
    digits[np.arange(width) < width - n_digits[:, None]] = _NUL
    cells = np.empty((len(v), width + 1), np.uint8)
    cells[:, 0] = np.where(negative, _MINUS, _NUL)
    cells[:, 1:] = digits
    return cells


def _cells(column: np.ndarray) -> np.ndarray:
    if column.dtype.kind == "f":
        return _float_cells(column.astype(np.float64, copy=False))
    if column.dtype.kind in "iu":
        return _int_cells(column)
    raise TypeError(f"CSV columns hold integers or floats, not {column.dtype}")


def _csv_rows(columns: list[np.ndarray]) -> bytes:
    """The CSV rows of equal-length columns, as ASCII."""
    cells = [_cells(c) for c in columns]
    ends = np.full((len(cells[0]), len(cells)), ord(","), np.uint8)
    ends[:, -1] = ord("\n")
    rows = np.concatenate([b for j, c in enumerate(cells) for b in (c, ends[:, j:j + 1])],
                          axis=1)
    return rows.tobytes().translate(None, b"\0")


class _CsvText:
    """CSV of equal-length columns, floats as ``format(v, ".16e")`` and integers in
    decimal, as ASCII byte blocks: the header line, then ``_BLOCK_ROWS`` rows at a time.
    Each pass formats the blocks as it reads them, so only one block's scratch arrays
    are live, and a second pass formats them again."""

    def __init__(self, header: list[str], columns: list):
        self.header, self.columns = header, [np.asarray(c) for c in columns]

    def __iter__(self) -> Iterator[bytes]:
        yield (",".join(self.header) + "\n").encode()
        n = len(self.columns[0]) if self.columns else 0
        for start in range(0, n, _BLOCK_ROWS):
            yield _csv_rows([c[start:start + _BLOCK_ROWS] for c in self.columns])
