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
import json
import operator
from dataclasses import dataclass

import numpy as np
import scipy.sparse

__all__ = [
    "BoxSpec",
    "ScalarField",
    "VectorField",
    "SkewField",
    "CoefficientField",
    "grad",
    "div_star",
    "apply_elliptic",
    "stencil",
    "inner",
    "neighbours",
    "shift",
    "torus_coordinates",
    "torus_radii",
    "write_field_csv",
    "read_field_csv",
]


class BoxMismatchError(ValueError):
    """Two fields that must share a box do not."""


@dataclass(frozen=True)
class BoxSpec:
    """Periodic box (Z/LZ)^d with row-major site indexing."""

    d: int
    L: int

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise ValueError(f"dimension d={self.d} not supported (d in {{1,2,3}})")
        if self.L < 2:
            raise ValueError(f"side length L={self.L} must be >= 2")

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
        return BoxSpec(d=_exact_int(obj["d"]), L=_exact_int(obj["L"]))


def _exact_int(value) -> int:
    """A JSON integer as int.  Where ``int()`` truncates 4.9 and parses "4",
    this raises ``TypeError`` on every float, string and boolean."""
    if isinstance(value, bool):  # operator.index(True) is 1
        raise TypeError(f"{value!r} is not an integer")
    return operator.index(value)


def _check_values(values: np.ndarray, expected_shape: tuple[int, ...], what: str):
    if values.shape != expected_shape:
        raise ValueError(f"{what}: expected shape {expected_shape}, got {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what}: values must be finite")


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
    def delta(box: BoxSpec, site: int = 0) -> "ScalarField":
        v = np.zeros(box.n_sites)
        v[site] = 1.0
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
            raise ValueError("SkewField: values must be exactly antisymmetric in (j,k)")


@dataclass(frozen=True)
class CoefficientField:
    """Per-site diagonal coefficient matrix a(x) = diag(a_1..a_d).

    Entries must lie strictly inside (lam, 1); ``lam`` is the global
    ellipticity constant attached to the field.
    """

    box: BoxSpec
    diag: np.ndarray  # (N, d)
    lam: float = 0.2

    def __post_init__(self):
        object.__setattr__(self, "diag", np.asarray(self.diag, dtype=np.float64))
        _check_values(self.diag, (self.box.n_sites, self.box.d), "CoefficientField")
        if not (0.0 < self.lam < 1.0):
            raise ValueError(f"ellipticity constant lam={self.lam} must be in (0,1)")
        lo, hi = self.diag.min(), self.diag.max()
        if lo <= self.lam or hi >= 1.0:
            raise ValueError(
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
        raise BoxMismatchError(f"box mismatch: {a.box} vs {b.box}")


@functools.lru_cache(maxsize=16)
def neighbours(box: BoxSpec) -> tuple[np.ndarray, np.ndarray]:
    """Site-index tables ``(fwd, bwd)``, each (N, d) int32: x + e_i and x - e_i.

    Cached per box and read-only, so every caller and thread shares them.
    ``int32`` is scipy's sparse index type, so :func:`stencil` uses ``fwd``
    as its column indices without a copy.
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
    and ``div_star`` on the grid, independently of :func:`stencil`, which
    the solvers apply.
    """
    _require_same_box(a, u)
    g = u.grid()
    comps = [a.grid(i) * _grad_arr(g, i) for i in range(a.box.d)]
    return ScalarField.from_grid(a.box, _div_star_arr(comps))


def stencil(a: CoefficientField) -> tuple[np.ndarray, scipy.sparse.csr_array]:
    """Half-stencil form ``(D, W)`` of div*(a grad .) = diag(D) - W - W^T.

    ``W[x, x + e_i] = a_i(x)`` is one conductance per edge, a CSR matrix
    whose ``data`` is ``a.diag`` itself and whose ``indices`` are the cached
    ``neighbours`` forward table, so it holds no copy of either;
    ``D(x) = sum_i a_i(x) + a_i(x - e_i)`` is the conductance at x, summed
    in the order of the dense assembly of ``elliptic_matrix``.
    """
    box = a.box
    n, d = box.n_sites, box.d
    fwd, bwd = neighbours(box)
    indptr = np.arange(0, n * d + 1, d, dtype=np.int32)
    W = scipy.sparse.csr_array((a.diag.ravel(), fwd.ravel(), indptr), shape=(n, n))
    D = np.zeros(n)
    for i in range(d):
        D += a.diag[:, i]
        D += a.diag[bwd[:, i], i]
    return D, W


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
# serialization (binary-free: CSV body, JSON header line)
# ---------------------------------------------------------------------------


# Whole columns become text at once, in numpy.  A float cell is exactly what
# ``format(v, ".17g")`` writes: 17 correctly rounded significant digits, laid
# out by the ``%g`` rules.  The digits come from a double-double product of |v|
# with a power of ten, after Grisu (Loitsch, PLDI 2010): the product certifies
# its rounding or hands the value to ``format`` itself.  Cells are NUL-padded
# byte rows; the NULs are dropped when a block of rows is joined.

_K_MIN, _K_MAX = -324, 308  # floor(log10 |v|) over the finite nonzero float64
_TIE_GUARD = 2.0**-20  # far wider than the product's error, under 2**-45 of a unit
_BLOCK_ROWS = 1 << 14  # rows per pass: bounds the scratch arrays, not the output
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


def _group_tables() -> tuple[np.ndarray, np.ndarray]:
    """Per 4-digit group 0..9999: its ASCII digits as one 32-bit word, and its
    trailing zeros (4 for 0000)."""
    g = np.arange(10000, dtype=np.int16)
    digits = (g[:, None] // np.array([1000, 100, 10, 1], np.int16) % 10 + ord("0")).astype(np.uint8)
    zeros = sum((g % 10**j == 0).astype(np.uint8) for j in range(1, 5))
    return digits.view(np.uint32).ravel(), zeros


_POW_HI, _POW_HI_HI, _POW_HI_LO, _POW_LO, _POW_EXP = _power_table()
_DIGITS4, _TRAILING_ZEROS4 = _group_tables()
_POW10_U64 = np.array([10**j for j in range(1, 20)], dtype=np.uint64)

# Byte columns of the per-value source row: 17 digits, the 3 exponent digits,
# the signs and the constant bytes a layout may copy.
_SRC_DIGITS, _SRC_EXP, _SRC_SIGN, _SRC_EXP_SIGN, _SRC_DOT, _SRC_ZERO, _SRC_E, _SRC_NUL = (
    3, 21, 24, 25, 26, 27, 28, 29)
_SRC_CONSTANTS = np.frombuffer(b".0e\0\0\0", np.uint8)  # bytes 26..31


def _layout_table() -> np.ndarray:
    """(23 * 18, 24) source byte of each output byte, for layout ``c * 18 + nz``:
    nz significant digits, c = k + 4 for the fixed notation of -4 <= k <= 16,
    and c = 21, 22 for a 2- and 3-digit exponent; NUL padded."""
    table = np.full((23 * 18, 24), _SRC_NUL, np.intp)
    d = list(range(_SRC_DIGITS, _SRC_DIGITS + 17))
    for c in range(23):
        k = c - 4
        for nz in range(1, 18):
            if c > 20:
                src = d[:1] + ([_SRC_DOT, *d[1:nz]] if nz > 1 else []) + [_SRC_E, _SRC_EXP_SIGN]
                src += [_SRC_EXP + j for j in range(22 - c, 3)]
            elif k >= 0:
                src = d[:k + 1] + ([_SRC_DOT, *d[k + 1:nz]] if nz > k + 1 else [])
            else:
                src = [_SRC_ZERO, _SRC_DOT] + [_SRC_ZERO] * (-k - 1) + d[:nz]
            table[c * 18 + nz, :len(src) + 1] = [_SRC_SIGN, *src]
    return table


_LAYOUT = _layout_table()


def _float_cells(x: np.ndarray) -> np.ndarray:
    """(m, 24) NUL-padded ASCII rows, each ``format(v, ".17g")`` of a float64 v."""
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
    src = np.empty((m, 8), np.uint32)
    for j, g in enumerate(groups):  # the leading digit group reads "000d"
        src[:, j] = _DIGITS4[g]
    src[:, 5] = _DIGITS4[np.abs(k)]
    src = src.view(np.uint8)
    src[:, _SRC_SIGN] = np.where(np.signbit(x), _MINUS, _NUL)
    src[:, _SRC_EXP_SIGN] = np.where(k < 0, _MINUS, _PLUS)
    src[:, _SRC_DOT:] = _SRC_CONSTANTS
    tz = _TRAILING_ZEROS4[groups[4]]
    for j in (3, 2, 1):
        tz = np.where(tz == 16 - 4 * j, 16 - 4 * j + _TRAILING_ZEROS4[groups[j]], tz)
    c = np.where((k < -4) | (k > 16), np.where(np.abs(k) < 100, 21, 22), k + 4)
    index = np.take(_LAYOUT, c * 18 + 17 - tz, axis=0)
    index += np.arange(0, src.size, src.shape[1])[:, None]
    cells = np.take(src.ravel(), index)
    if len(fallback):
        text = [format(v, ".17g") for v in x[fallback].tolist()]
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


def _csv_text(header: list[str], columns: list) -> str:
    """CSV of equal-length columns: floats as ``format(v, ".17g")``, integers in decimal."""
    columns = [np.asarray(c) for c in columns]
    n = len(columns[0]) if columns else 0
    text = [",".join(header) + "\n"]
    for start in range(0, n, _BLOCK_ROWS):
        cells = [_cells(c[start:start + _BLOCK_ROWS]) for c in columns]
        ends = np.full((len(cells[0]), len(cells)), ord(","), np.uint8)
        ends[:, -1] = ord("\n")
        rows = np.concatenate([b for j, c in enumerate(cells) for b in (c, ends[:, j:j + 1])],
                              axis=1).ravel()
        text.append(rows[rows != _NUL].tobytes().decode("ascii"))
    return "".join(text)


def _field_table(f) -> tuple[str, np.ndarray, list[str]]:
    """A field's kind, its (N, columns) value table and the column names."""
    r = range(f.box.d)
    if isinstance(f, ScalarField):
        return "scalar", f.values.reshape(-1, 1), ["value"]
    if isinstance(f, VectorField):
        return "vector", f.values, [f"value_{i+1}" for i in r]
    if isinstance(f, CoefficientField):
        return "coefficient", f.diag, [f"a_{i+1}" for i in r]
    if isinstance(f, SkewField):
        return ("skew", f.values.reshape(f.box.n_sites, -1),
                [f"sigma_{j+1}{k+1}" for j in r for k in r])
    raise TypeError(f"not a lattice field: {type(f)}")


def write_field_csv(f, path) -> None:
    """Write a field as CSV: header comment with box JSON, then one row per site.

    Values are formatted with 17 significant digits so the decimal text
    round-trips to the exact same float64.
    """
    kind, table, names = _field_table(f)
    box = f.box
    header = {"kind": kind, **box.to_json()}
    if isinstance(f, CoefficientField):
        header["lambda"] = f.lam
    body = _csv_text(["site", *(f"x{k+1}" for k in range(box.d)), *names],
                     [np.arange(box.n_sites), *box.coordinate_arrays().T, *table.T])
    with open(path, "w") as fh:
        fh.write("# " + json.dumps(header, sort_keys=True) + "\n" + body)


def read_field_csv(path):
    """Exact inverse of :func:`write_field_csv`; rejects missing or misplaced rows and columns."""
    with open(path) as fh:
        first = fh.readline()
        if not first.startswith("#"):
            raise ValueError(f"{path}: missing JSON header line")
        header = json.loads(first[1:])
        try:
            box, kind = BoxSpec.from_json(header), header["kind"]
            lam = float(header["lambda"]) if kind == "coefficient" else None
        except (KeyError, TypeError) as exc:
            raise ValueError(f"{path}: header needs d, L, kind (lambda for a coefficient)") from exc
        rows = np.loadtxt(fh, delimiter=",", skiprows=1, ndmin=2)
    n, d = box.n_sites, box.d
    if not np.array_equal(rows[:, 0], np.arange(n)):
        raise ValueError(f"{path}: expected one row for each site 0..{n - 1}, in order")
    table = rows[:, 1 + d:]
    if kind == "scalar":
        f = ScalarField(box, table[:, 0])
    elif kind == "vector":
        f = VectorField(box, table)
    elif kind == "coefficient":
        f = CoefficientField(box, table, lam=lam)
    elif kind == "skew":
        f = SkewField(box, table.reshape(n, d, d))
    else:
        raise ValueError(f"unknown field kind {kind!r}")
    if _field_table(f)[1].shape != table.shape:
        raise ValueError(f"{path}: {table.shape[1]} value columns do not fit a {kind} field")
    return f
