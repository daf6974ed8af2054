"""Property tests of the lattice calculus over random boxes, d <= 3.

Summation by parts and self-adjointness hold up to the rounding of one
inner product; translation covariance and the field CSV round trip are
exact, because shifting only relabels sites and the CSV writes 17
significant digits.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from homoglab.lattice import (
    BoxSpec,
    CoefficientField,
    ScalarField,
    SkewField,
    VectorField,
    apply_elliptic,
    div_star,
    grad,
    inner,
    read_field_csv,
    shift,
    write_field_csv,
)

from conftest import random_coefficients

MAX_L = {1: 12, 2: 7, 3: 5}
SETTINGS = settings(max_examples=40, deadline=None, database=None)
EPS = np.finfo(np.float64).eps


@st.composite
def boxes(draw):
    d = draw(st.integers(1, 3))
    return BoxSpec(d, draw(st.integers(2, MAX_L[d])))


@st.composite
def boxes_and_rngs(draw):
    return draw(boxes()), np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


def rounding_bound(*products) -> float:
    """Bound on the rounding error of sums of the given elementwise products."""
    n = sum(p.size for p in products)
    return 4.0 * n * EPS * sum(float(np.abs(p).sum()) for p in products) + 1e-300


@SETTINGS
@given(boxes_and_rngs())
def test_summation_by_parts(case):
    box, rng = case
    u = ScalarField(box, rng.normal(size=box.n_sites))
    F = VectorField(box, rng.normal(size=(box.n_sites, box.d)))
    gF = grad(u).values * F.values
    u_div = u.values * div_star(F).values
    lhs, rhs = float(gF.sum()), inner(u, div_star(F))
    assert abs(lhs - rhs) <= rounding_bound(gF, u_div)


@SETTINGS
@given(boxes_and_rngs())
def test_apply_elliptic_is_self_adjoint(case):
    box, rng = case
    a = random_coefficients(box, rng)
    u = ScalarField(box, rng.normal(size=box.n_sites))
    v = ScalarField(box, rng.normal(size=box.n_sites))
    vAu = v.values * apply_elliptic(a, u).values
    Avu = apply_elliptic(a, v).values * u.values
    assert abs(float(vAu.sum()) - float(Avu.sum())) <= rounding_bound(vAu, Avu)


@SETTINGS
@given(boxes_and_rngs(), st.data())
def test_apply_elliptic_commutes_with_translation(case, data):
    box, rng = case
    offset = tuple(data.draw(st.integers(-box.L, box.L)) for _ in range(box.d))
    a = random_coefficients(box, rng)
    u = ScalarField(box, rng.normal(size=box.n_sites))
    shifted_diag = np.stack(
        [shift(ScalarField(box, a.diag[:, i]), offset).values for i in range(box.d)], axis=1)
    shifted_a = CoefficientField(box, shifted_diag, lam=a.lam)
    lhs = apply_elliptic(shifted_a, shift(u, offset))
    rhs = shift(apply_elliptic(a, u), offset)
    assert np.array_equal(lhs.values, rhs.values)


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def fields(draw):
    box = draw(boxes())
    n, d = box.n_sites, box.d
    kind = draw(st.sampled_from(["scalar", "vector", "coefficient", "skew"]))
    if kind == "scalar":
        return ScalarField(box, np.array(draw(st.lists(finite, min_size=n, max_size=n))))
    if kind == "vector":
        vals = draw(st.lists(finite, min_size=n * d, max_size=n * d))
        return VectorField(box, np.array(vals).reshape(n, d))
    if kind == "coefficient":
        lam = draw(st.floats(0.01, 0.5))
        inside = st.floats(lam, 1.0, exclude_min=True, exclude_max=True)
        vals = draw(st.lists(inside, min_size=n * d, max_size=n * d))
        return CoefficientField(box, np.array(vals).reshape(n, d), lam=lam)
    upper = np.triu_indices(d, k=1)
    vals = np.zeros((n, d, d))
    m = len(upper[0])
    vals[:, upper[0], upper[1]] = np.array(
        draw(st.lists(finite, min_size=n * m, max_size=n * m))).reshape(n, m)
    vals[:, upper[1], upper[0]] = -vals[:, upper[0], upper[1]]
    return SkewField(box, vals)


def table(f) -> np.ndarray:
    return f.diag if isinstance(f, CoefficientField) else f.values


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fields") / "field.csv"


@SETTINGS
@given(f=fields())
def test_field_csv_round_trip_is_exact(f, csv_path):
    write_field_csv(f, csv_path)
    g = read_field_csv(csv_path)
    assert type(g) is type(f) and g.box == f.box
    assert table(g).tobytes() == table(f).tobytes()
    if isinstance(f, CoefficientField):
        assert g.lam == f.lam
