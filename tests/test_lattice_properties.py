"""Property tests of the lattice calculus over random boxes, d <= 3.

Summation by parts and self-adjointness hold up to the rounding of one
inner product; translation covariance is exact, because shifting only
relabels sites.  The solvers' half stencil agrees with the grid form
``apply_elliptic`` up to the rounding of one site's sum and with the dense
assembly ``elliptic_matrix`` exactly; the real-FFT solves give the same
bits for C- and F-ordered grids.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from homoglab.elliptic import _elliptic_op, elliptic_matrix
from homoglab.lattice import (
    BoxSpec,
    CoefficientField,
    ScalarField,
    VectorField,
    apply_elliptic,
    div_star,
    grad,
    inner,
    shift,
    stencil,
)
from homoglab.spectral import inverse, smooth, symbol

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


# L = 2, where x + e_i and x - e_i are one site, for every d
SMALLEST = [(BoxSpec(d, 2), np.random.default_rng(d)) for d in (1, 2, 3)]


def with_smallest_boxes(test):
    for case in SMALLEST:
        test = example(case)(test)
    return test


@SETTINGS
@with_smallest_boxes
@given(boxes_and_rngs())
def test_stencil_operator_matches_apply_elliptic(case):
    box, rng = case
    a = random_coefficients(box, rng)
    u = ScalarField(box, rng.normal(size=box.n_sites))
    got = ScalarField.from_grid(box, _elliptic_op(a)(u.grid())).values
    want = apply_elliptic(a, u).values
    D, W = stencil(a)
    au = np.abs(u.values)
    scale = D * au + W @ au + W.T @ au  # |terms| summed per site
    assert np.all(np.abs(got - want) <= 4 * (2 * box.d + 1) * EPS * scale)


@SETTINGS
@with_smallest_boxes
@given(boxes_and_rngs())
def test_dense_stencil_is_elliptic_matrix(case):
    box, rng = case
    a = random_coefficients(box, rng)
    D, W = stencil(a)
    dense = np.diag(D) - W.toarray() - W.T.toarray()
    assert dense.tobytes() == elliptic_matrix(a).tobytes()


def fft_reference(g: np.ndarray, sym: np.ndarray) -> np.ndarray:
    """Multiply the modes of g by sym with the complex ``np.fft`` pair."""
    return np.fft.ifftn(np.fft.fftn(g) * sym).real


@SETTINGS
@with_smallest_boxes
@given(boxes_and_rngs())
def test_spectral_solves_agree_on_c_and_f_ordered_grids(case):
    box, rng = case
    B = rng.uniform(-0.3, 0.3, size=(box.d, box.d))
    A = np.eye(box.d) + 0.5 * (B + B.T) / box.d  # symmetric, diagonally dominant
    g = rng.normal(size=box.shape)
    c_grid, f_grid = np.ascontiguousarray(g), np.asfortranarray(g)
    sym_singular = symbol(box, A)
    sym_singular[(0,) * box.d] = np.inf
    cases = [
        (inverse(box, 0.0, A), 1.0 / sym_singular),
        (inverse(box, 0.3, A), 1.0 / (0.3 + symbol(box, A))),
        (lambda r: smooth(r, 1.5), np.exp(-1.5 * symbol(box))),
    ]
    for apply, sym in cases:
        out = apply(c_grid)
        assert out.tobytes() == apply(f_grid).tobytes()
        ref = fft_reference(g, sym)
        scale = np.max(np.abs(g)) + np.max(np.abs(ref))
        assert np.max(np.abs(out - ref)) <= 64 * EPS * box.n_sites * scale
