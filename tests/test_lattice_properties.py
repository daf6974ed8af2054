"""Property tests of the lattice calculus over random boxes, d <= 3.

Summation by parts and self-adjointness hold up to the rounding of one
inner product; translation covariance is exact, because shifting only
relabels sites.  The solvers' flux stencil agrees with the grid form
``apply_elliptic`` and with the dense assembly ``elliptic_matrix`` up to
the rounding of one site's sum, on every slab layout; the real-FFT solves
give the same bits for C- and F-ordered grids.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from homoglab.elliptic import _SLAB_SITES, _elliptic_op, elliptic_matrix
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


def stencil_scale(a: CoefficientField, u: np.ndarray, shift: float) -> np.ndarray:
    """Per site, the sum of the absolute terms of (shift + div*(a grad .)) u: shift |u|
    plus t_i(x) + t_i(x - e_i) over i, t_i = a_i (|u| + |u(. + e_i)|)."""
    au = np.abs(u)
    scale = shift * au
    for i in range(a.box.d):
        t = a.grid(i) * (au + np.roll(au, -1, axis=i))
        scale = scale + t + np.roll(t, 1, axis=i)
    return scale


# boxes around the stencil's slabs of _SLAB_SITES sites in whole planes: three slabs,
# the last of 3 sites (d=1); one full slab (d=2, L=256); two, the last partial
# (d=2, L=300: 218 planes, then 82; d=3, L=48: 28 planes, then 20); four full (d=3, L=64)
SLAB_BOXES = [BoxSpec(1, 2 * _SLAB_SITES + 3), BoxSpec(2, 256), BoxSpec(2, 300),
              BoxSpec(3, 48), BoxSpec(3, 64)]


@SETTINGS
@with_smallest_boxes
@given(boxes_and_rngs())
def test_flux_stencil_matches_apply_elliptic(case):
    box, rng = case
    check_flux_stencil(box, rng)


@pytest.mark.parametrize("box", SLAB_BOXES, ids=lambda box: f"d{box.d}-L{box.L}")
def test_flux_stencil_matches_apply_elliptic_across_slabs(box):
    check_flux_stencil(box, np.random.default_rng(box.L))


def check_flux_stencil(box: BoxSpec, rng: np.random.Generator):
    a = random_coefficients(box, rng)
    u = ScalarField(box, rng.normal(size=box.n_sites))
    for shift in (0.0, 0.5):
        got = _elliptic_op(a, shift)(u.grid())
        want = apply_elliptic(a, u).grid() + shift * u.grid()
        bound = 4 * (2 * box.d + 1) * EPS * stencil_scale(a, u.grid(), shift)
        assert np.all(np.abs(got - want) <= bound)


@SETTINGS
@with_smallest_boxes
@given(boxes_and_rngs())
def test_flux_stencil_is_elliptic_matrix(case):
    # the operator on each unit vector is a column of the dense assembly, up to the
    # rounding of the diagonal's sum; off the diagonal each entry is one -a_i, exactly
    box, rng = case
    a = random_coefficients(box, rng)
    n = box.n_sites
    for shift in (0.0, 0.5):
        op = _elliptic_op(a, shift)
        columns = [op(e.reshape(box.shape, order="F")).ravel(order="F") for e in np.eye(n)]
        want = elliptic_matrix(a) + shift * np.eye(n)
        bound = 4 * (2 * box.d + 1) * EPS * np.diag(want)
        assert np.all(np.abs(np.stack(columns, axis=1) - want) <= bound[:, None])


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
