import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from homoglab import lattice

from homoglab.lattice import (
    BoxSpec,
    CoefficientField,
    ParameterError,
    ScalarField,
    SkewField,
    VectorField,
    _CsvText,
    _dot,
    _grad_energy,
    apply_elliptic,
    div_star,
    grad,
    inner,
    shift,
)

from conftest import operator_matrix, random_coefficients, reference_csv_text


def brute_force_grad(u: ScalarField) -> np.ndarray:
    """Index-arithmetic oracle: walk every site and every direction explicitly."""
    box = u.box
    out = np.zeros((box.n_sites, box.d))
    for idx, x in enumerate(box.coordinate_arrays().tolist()):
        for i in range(box.d):
            xp = x.copy()
            xp[i] = (xp[i] + 1) % box.L
            out[idx, i] = u.values[box.index_of(xp)] - u.values[idx]
    return out


class TestBoxSpec:
    def test_index_bijection(self):
        box = BoxSpec(3, 4)
        seen = set()
        for idx, x in enumerate(map(tuple, box.coordinate_arrays().tolist())):
            assert box.index_of(x) == idx
            seen.add(x)
        assert len(seen) == box.n_sites

    def test_wraparound_is_modular(self):
        box = BoxSpec(2, 5)
        assert box.index_of((5, -1)) == box.index_of((0, 4))

    @pytest.mark.parametrize("d,L", [(0, 4), (4, 4), (2, 1)])
    def test_rejects_bad_dimensions(self, d, L):
        with pytest.raises(ValueError):
            BoxSpec(d, L)

    @pytest.mark.parametrize("d,L", [(1, 2**22), (2, 2**11), (3, 161)])
    def test_the_largest_box_has_max_sites(self, d, L):
        # building a box allocates nothing; one more side step passes the bound
        assert BoxSpec(d, L).n_sites <= lattice.MAX_SITES == 2**22 < (L + 1) ** d
        with pytest.raises(lattice.ParameterError, match=f"more than {2**22} sites"):
            BoxSpec(d, L + 1)


class TestGrad:
    def test_constant_field_has_zero_gradient(self):
        box = BoxSpec(2, 6)
        g = grad(ScalarField(box, np.full(box.n_sites, 3.7)))
        assert np.all(g.values == 0.0)

    def test_d1_explicit_values(self):
        box = BoxSpec(1, 3)
        g = grad(ScalarField(box, np.array([0.0, 1.0, 0.0])))
        assert np.array_equal(g.values[:, 0], [1.0, -1.0, 0.0])

    def test_matches_brute_force_oracle_on_4cubed(self, rng):
        box = BoxSpec(3, 4)
        u = ScalarField(box, rng.normal(size=box.n_sites))
        assert np.array_equal(grad(u).values, brute_force_grad(u))

    def test_grad_energy_sums_squared_gradients_over_fields(self, rng):
        box = BoxSpec(3, 4)
        fields = [ScalarField(box, rng.normal(size=box.n_sites)) for _ in range(3)]
        expected = sum(np.sum(brute_force_grad(u) ** 2, axis=1) for u in fields)
        np.testing.assert_allclose(_grad_energy(u.grid() for u in fields), expected,
                                   rtol=1e-14, atol=0)

    def test_gradient_components_have_zero_mean(self, rng):
        box = BoxSpec(2, 8)
        u = ScalarField(box, rng.normal(size=box.n_sites))
        m = grad(u).values.mean(axis=0)
        assert np.max(np.abs(m)) < 1e-13 * np.max(np.abs(u.values))


class TestDivStar:
    def test_zero_field(self):
        box = BoxSpec(2, 4)
        assert np.all(div_star(VectorField(box, np.zeros((box.n_sites, box.d)))).values == 0.0)

    def test_d1_explicit_values(self):
        box = BoxSpec(1, 3)
        out = div_star(VectorField(box, np.array([[1.0], [0.0], [0.0]])))
        assert np.array_equal(out.values, [-1.0, 1.0, 0.0])

    def test_summation_by_parts_50_random_pairs(self, rng):
        box = BoxSpec(3, 4)
        for _ in range(50):
            u = ScalarField(box, rng.normal(size=box.n_sites))
            F = VectorField(box, rng.normal(size=(box.n_sites, box.d)))
            lhs = inner(u, div_star(F))
            rhs = float(np.sum(grad(u).values * F.values))
            assert abs(lhs - rhs) < 1e-13 * (abs(lhs) + abs(rhs) + 1.0)


class TestApplyElliptic:
    def test_constants_in_kernel(self, rng):
        box = BoxSpec(2, 5)
        a = random_coefficients(box, rng)
        out = apply_elliptic(a, ScalarField(box, np.full(box.n_sites, 2.0)))
        assert np.all(out.values == 0.0)

    def test_power_of_two_constant_scales_laplacian_exactly(self, rng):
        # the coefficient type keeps entries below 1, so the identity-matrix
        # case is realized at the exactly-representable scale 0.5
        box = BoxSpec(2, 6)
        a = CoefficientField.constant(box, 0.5, lam=0.25)
        u = ScalarField(box, rng.normal(size=box.n_sites))
        expected = 0.5 * div_star(grad(u)).values
        assert np.array_equal(apply_elliptic(a, u).values, expected)

    def test_spectrum_within_elliptic_envelope(self, rng):
        # dense eigendecomposition oracle on a 3x3 box
        box = BoxSpec(2, 3)
        lam = 0.2
        a = random_coefficients(box, rng, lam=lam)
        A = operator_matrix(lambda u: apply_elliptic(a, u), box)
        assert np.max(np.abs(A - A.T)) < 1e-14
        lap = operator_matrix(lambda u: div_star(grad(u)), box)
        mu = np.sort(np.linalg.eigvalsh(lap))
        ev = np.sort(np.linalg.eigvalsh(A))
        # both operators share the constant kernel; compare on its complement
        assert abs(ev[0]) < 1e-12 and abs(mu[0]) < 1e-12
        assert ev[1] >= lam * mu[1] - 1e-12
        assert ev[-1] <= mu[-1] + 1e-12

    def test_self_adjoint(self, rng):
        box = BoxSpec(3, 3)
        a = random_coefficients(box, rng)
        for _ in range(10):
            u = ScalarField(box, rng.normal(size=box.n_sites))
            v = ScalarField(box, rng.normal(size=box.n_sites))
            uv = inner(v, apply_elliptic(a, u))
            vu = inner(apply_elliptic(a, v), u)
            assert abs(uv - vu) <= 1e-12 * (abs(uv) + abs(vu) + 1.0)

    def test_quadratic_form_bounds(self, rng):
        box = BoxSpec(2, 6)
        lam = 0.2
        a = random_coefficients(box, rng, lam=lam)
        for _ in range(10):
            u = ScalarField(box, rng.normal(size=box.n_sites))
            form = inner(u, apply_elliptic(a, u))
            gnorm2 = float(np.sum(grad(u).values ** 2))
            assert lam * gnorm2 - 1e-10 <= form <= gnorm2 + 1e-10

    def test_box_mismatch_rejected(self, rng):
        a = random_coefficients(BoxSpec(2, 4), rng)
        u = ScalarField.zeros(BoxSpec(2, 5))
        with pytest.raises(ValueError):
            apply_elliptic(a, u)


class TestReductions:
    def test_inner_is_squared_norm(self, rng):
        box = BoxSpec(2, 4)
        u = ScalarField(box, rng.normal(size=box.n_sites))
        assert np.isclose(inner(u, u), np.linalg.norm(u.values) ** 2, rtol=1e-14)

    def test_dot_pairs_elements_in_any_memory_order(self, rng):
        x = np.asfortranarray(rng.normal(size=(5, 6, 7)))
        y = rng.normal(size=(5, 6, 7))  # C order
        exact = math.fsum((x * y).ravel())
        assert abs(_dot(x, y) - exact) <= 1e-13 * math.fsum(np.abs(x * y).ravel())
        assert _dot(x, y) == _dot(x, np.asfortranarray(y))
        assert _dot(x, x) == _dot(x, np.ascontiguousarray(x))


class TestShift:
    def test_shift_round_trip(self, rng):
        box = BoxSpec(2, 5)
        u = ScalarField(box, rng.normal(size=box.n_sites))
        v = shift(shift(u, (1, 2)), (-1, -2))
        assert np.array_equal(u.values, v.values)

    def test_shift_matches_index_arithmetic(self, rng):
        box = BoxSpec(2, 4)
        u = ScalarField(box, rng.normal(size=box.n_sites))
        s = shift(u, (1, 0))
        for idx, x in enumerate(box.coordinate_arrays().tolist()):
            x[0] = (x[0] + 1) % box.L
            assert s.values[idx] == u.values[box.index_of(x)]


class TestSkewField:
    def test_rejects_non_antisymmetric(self):
        box = BoxSpec(2, 3)
        vals = np.zeros((box.n_sites, 2, 2))
        vals[:, 0, 1] = 1.0
        vals[:, 1, 0] = -1.0
        SkewField(box, vals)  # fine
        vals[0, 1, 0] = 1.0
        with pytest.raises(ValueError):
            SkewField(box, vals)


@pytest.mark.parametrize("make,message", [
    (lambda box: ScalarField(box, np.zeros(3)), "ScalarField: expected shape (16,), got (3,)"),
    (lambda box: ScalarField(box, np.full(16, np.nan)), "ScalarField: values must be finite"),
    (lambda box: CoefficientField(box, np.full((16, 2), 0.5), lam=1.0),
     "ellipticity constant lam=1.0 must be in (0,1)"),
    (lambda box: CoefficientField(box, np.full((16, 2), 0.1)),
     "coefficient entries must lie in (0.2, 1); got [0.1, 0.1]"),
], ids=["shape", "finite", "lam", "range"])
def test_bad_field_is_a_parameter_error(make, message):
    with pytest.raises(ParameterError, match=re.escape(message)):
        make(BoxSpec(2, 4))


def _hard_floats() -> np.ndarray:
    """Values next to the kernel's edges: decades, the %g switch points, 2**53..2**63."""
    values = [float(f"1e{p}") for p in range(-320, 309)]
    values += [1e-5, 1e-4, 1e16, 1e17, 0.0, 5e-324, 2.2250738585072014e-308]
    values += [float(2**j) for j in range(53, 64)]
    values += [float(v) for v in np.random.default_rng(5).integers(2**53, 2**63, 200)]
    values = np.array(values)
    values = np.concatenate([values, np.nextafter(values, 0), np.nextafter(values, np.inf)])
    return np.concatenate([values, -values])


def _decade_carries(v: float) -> bool:
    """True when the 17-digit rounding of v is a power of ten above v."""
    digits, exponent = format(abs(v), ".16e").split("e")
    return digits == "1.0000000000000000" and Fraction(abs(v)) < Fraction(10) ** int(exponent)


def _csv(header, columns) -> bytes:
    return b"".join(_CsvText(header, columns))


def _reference_csv(header, columns) -> bytes:
    return reference_csv_text(header, columns).encode()


class TestCsvText:
    """``_CsvText`` writes the bytes of the per-value reference writer."""

    @settings(max_examples=300, deadline=None, database=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    @example([0x7FF8000000000000, 0xFFF0000000000000, 0x7FF0000000000000, 1, 0x8000000000000000,
              0x000FFFFFFFFFFFFF, 0x7FEFFFFFFFFFFFFF, 0x0010000000000000, 0xFFEFFFFFFFFFFFFF])
    def test_float_bit_patterns(self, bits):
        # raw patterns reach subnormals, +-0, +-inf, NaN and both extremes
        x = np.array(bits, dtype=np.uint64).view(np.float64)
        assert _csv(["v"], [x]) == _reference_csv(["v"], [x])

    def test_hard_cases(self):
        x = _hard_floats()
        assert any(map(_decade_carries, x.tolist()))
        assert _csv(["v"], [x]) == _reference_csv(["v"], [x])

    def test_uncertified_value_falls_back_to_format(self, monkeypatch):
        calls = []

        def spy(v, spec):
            calls.append(v)
            return format(v, spec)

        monkeypatch.setattr(lattice, "format", spy, raising=False)
        # 1000000000000000.25 is exact: a tie at 17 digits, rounded half to even
        x = np.array([0.1, 1000000000000000.25, -2.5e-300])
        text = _csv(["v"], [x])
        assert calls == [1000000000000000.25]
        assert text == _reference_csv(["v"], [x])
        assert text.split(b"\n")[2] == b"1000000000000000.2"

    @pytest.mark.parametrize("n", [0, 1, lattice._BLOCK_ROWS + 3])
    def test_columns_of_every_dtype(self, n):
        rng = np.random.default_rng(n)
        columns = [
            rng.integers(-2**63, 2**63 - 1, n, dtype=np.int64, endpoint=True),
            rng.integers(0, 2**64 - 1, n, dtype=np.uint64, endpoint=True),
            np.arange(n, dtype=np.uint8),
            rng.normal(size=n).astype(np.float32),
            rng.normal(size=n) * 10.0 ** rng.integers(-30, 30, n),
        ]
        header = ["i64", "u64", "u8", "f32", "f64"]
        assert _csv(header, columns) == _reference_csv(header, columns)

    def test_a_column_of_strings_is_rejected(self):
        with pytest.raises(TypeError, match="CSV columns hold integers or floats, not <U1"):
            _csv(["s"], [np.array(["x"])])

    def test_tuple_columns(self):
        # ``oned`` passes ``list(zip(*rows))``: tuples of Python floats
        rows = [[0.125, 3e-3, 1e-17, 2.0, 0.5], [0.0625, 7.5e-4, 2e-18, 1.0, 0.25]]
        columns = list(zip(*rows))
        header = ["eps", "sup_error", "h1_twoscale_error", "bound_rhs", "ratio"]
        assert _csv(header, columns) == _reference_csv(header, columns)
