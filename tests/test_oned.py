import re

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize

import homoglab.oned
from homoglab.lattice import ParameterError
from homoglab.oned import (
    Profile1D,
    corrector_1d,
    cumulative_trapezoid,
    harmonic_mean,
    oscillatory_average_check,
    read_profiles,
    solve_explicit,
    solve_homogenized_1d,
    sup_error_check,
    trapezoid,
    two_scale_check_1d,
)

SINE_A = lambda y: 2.0 + np.sin(2.0 * np.pi * np.asarray(y, dtype=np.float64))
ODD_F = lambda x: -3.0 * (2.0 * np.asarray(x, dtype=np.float64) - 1.0)
ONES = lambda x: np.ones_like(np.asarray(x, dtype=np.float64))
EPS_LIST = [1 / 8, 1 / 16, 1 / 32, 1 / 64, 1 / 128]


def sine_profile(eps=1 / 16, f=ODD_F, ppp=64):
    return Profile1D(a_unit=SINE_A, f=f, eps=eps, points_per_period=ppp)


def shooting_oracle(profile: Profile1D, x_eval: np.ndarray) -> np.ndarray:
    """Independent route: integrate the ODE as an IVP with an adaptive RK
    scheme and shoot on the initial slope to satisfy u(1) = 0."""
    eps = profile.eps

    def rhs(x, y):
        # y = (u, a_eps u'); conservation form avoids differentiating a
        a = float(profile.a_unit(np.array([x / eps]))[0])
        return [y[1] / a, -float(profile.f(np.array([x]))[0])]

    def end_value(s):
        sol = scipy.integrate.solve_ivp(
            rhs, (0.0, 1.0), [0.0, s], rtol=1e-11, atol=1e-12, max_step=eps / 8,
            dense_output=True,
        )
        return sol

    def end_residual(s):
        return end_value(s).y[0, -1]

    s_star = scipy.optimize.brentq(end_residual, -10.0, 10.0, xtol=1e-13)
    return end_value(s_star).sol(x_eval)[0]


class TestReadProfiles:
    def test_defaults_one_profile_per_eps_coarsest_first(self):
        profiles = read_profiles({"eps_list": [0.0625, 0.25, 0.125]})
        assert [p.eps for p in profiles] == [0.25, 0.125, 0.0625]
        assert {p.points_per_period for p in profiles} == {Profile1D.points_per_period}
        y = np.linspace(0.0, 1.0, 9)
        assert np.array_equal(profiles[0].a_unit(y), SINE_A(y))
        assert np.array_equal(profiles[0].f(y), ODD_F(y))
        assert [p.eps for p in read_profiles({})] == EPS_LIST

    @pytest.mark.parametrize("params,message", [
        ({"f": {"kind": "constant", "value": float("nan")}}, "f value must be finite"),
        ({"f": {"kind": "linear-odd", "scale": float("inf")}}, "f scale must be finite"),
        ({"a": {"kind": "constant"}}, "bad a value None"),
        ({"f": {"kind": "sine", "k": 1.5}}, "bad f k 1.5"),
        ({"a": {"kind": "shifted-sine", "offset": 1.0, "amplitude": -1.0}}, "cannot take"),
        ({"a": {"kind": "layered", "alpha": 0.2, "beta": 0.5, "fraction": 1.0}}, "cannot take"),
        ({"a": {"kind": "layered", "alpha": 0.0, "beta": 0.5}}, "cannot take"),
        ({"a": {"kind": ["constant"]}}, "a must be an object with a kind"),
        ({"f": "sine"}, "f must be an object with a kind"),
        ({"eps_list": 0.125}, "eps_list must be a list"),
        ({"eps_list": [0.125, None]}, "bad eps_list value None"),
        ({"points_per_period": 64.0}, "bad points_per_period 64.0"),
        ({"a": {"kind": "shifted-sine", "amplitude": True}}, "bad a amplitude True"),
        ({"eps_lst": [0.5]}, "oned params: unknown key 'eps_lst'"),
        ({"a": {"kind": "shifted-sine", "amplitud": 0.5}},
         "oned: shifted-sine a: unknown key 'amplitud'"),
    ], ids=["nan-value", "inf-scale", "missing-value", "float-k", "sine-touches-0",
            "fraction-1", "alpha-0", "list-kind", "string-f", "scalar-eps-list",
            "null-eps", "float-points", "bool-amplitude", "misspelt-key", "misspelt-kind-key"])
    def test_bad_value_is_a_parameter_error_that_names_it(self, params, message):
        with pytest.raises(ParameterError, match=re.escape(message)):
            read_profiles(params)


class TestQuadrature:
    @pytest.mark.parametrize("n", [2, 3, 17, 1025])
    def test_bitwise_equal_to_scipy(self, n, rng):
        x = np.sort(rng.uniform(0.0, 2.0, size=n))
        y = rng.normal(size=n)
        assert trapezoid(y, x) == scipy.integrate.trapezoid(y, x)
        assert np.array_equal(cumulative_trapezoid(y, x),
                              scipy.integrate.cumulative_trapezoid(y, x, initial=0.0))


class TestHarmonicMean:
    def test_constant(self):
        assert harmonic_mean(lambda y: np.full_like(np.asarray(y), 1.4)) == pytest.approx(1.4)

    def test_shifted_sine_is_sqrt3(self):
        # int_0^1 dy/(2 + sin 2 pi y) = 1/sqrt(3); cross-check with adaptive
        # quadrature rather than trusting the closed form alone
        hm = harmonic_mean(SINE_A, M=4096)
        assert abs(hm - np.sqrt(3.0)) < 1e-6
        quad, _ = scipy.integrate.quad(lambda y: 1.0 / (2.0 + np.sin(2 * np.pi * y)), 0, 1,
                                       epsabs=1e-12)
        assert abs(hm - 1.0 / quad) < 1e-9

    def test_two_point_layered(self):
        # the quadrature integrates 1/a, so nodes sitting on a jump carry the
        # harmonic midpoint; with that convention the trapezoid rule is exact
        mid = 2.0 / (1.0 / 0.25 + 1.0 / 0.75)

        def layered(y):
            yy = np.asarray(y, dtype=np.float64) % 1.0
            out = np.where(yy < 0.5, 0.25, 0.75)
            at_jump = np.isclose(yy, 0.5) | np.isclose(yy, 0.0) | np.isclose(yy, 1.0)
            return np.where(at_jump, mid, out)

        # closed form 2 a b / (a + b) = 0.375
        assert harmonic_mean(layered, M=4096) == pytest.approx(0.375, abs=1e-12)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            harmonic_mean(lambda y: np.sin(2 * np.pi * np.asarray(y)))


class TestSolveExplicit:
    def test_zero_forcing_gives_zero(self):
        p = sine_profile(f=lambda x: np.zeros_like(np.asarray(x)))
        s = solve_explicit(p)
        assert np.max(np.abs(s.u)) < 1e-14

    def test_constant_coefficient_parabola(self):
        p = Profile1D(a_unit=ONES, f=ONES, eps=1 / 8)
        s = solve_explicit(p)
        assert np.max(np.abs(s.u - s.x * (1 - s.x) / 2)) <= 1e-8

    def test_boundary_values_exact(self):
        s = solve_explicit(sine_profile())
        assert s.u[0] == 0.0 and s.u[-1] == 0.0

    def test_flux_is_affine_in_cumulative_forcing(self):
        p = sine_profile()
        s = solve_explicit(p)
        f_cum = scipy.integrate.cumulative_trapezoid(p.f(s.x), s.x, initial=0.0)
        flux = p.a_eps(s.x) * s.du
        assert np.max(np.abs(flux - (s.flux_constant - f_cum))) < 1e-12

    def test_matches_shooting_oracle(self):
        p = sine_profile(eps=1 / 16, ppp=128)
        s = solve_explicit(p)
        probe = np.linspace(0.05, 0.95, 7)
        oracle = shooting_oracle(p, probe)
        ours = np.interp(probe, s.x, s.u)
        assert np.max(np.abs(ours - oracle)) < 1e-6

    def test_underresolved_grid_rejected(self):
        with pytest.raises(ValueError):
            Profile1D(a_unit=SINE_A, f=ODD_F, eps=1 / 8, points_per_period=4)

    def test_marginal_grid_warns(self):
        with pytest.warns(UserWarning):
            Profile1D(a_unit=SINE_A, f=ODD_F, eps=1 / 8, points_per_period=16)

    def test_eps_outside_the_unit_interval_rejected(self):
        with pytest.raises(ParameterError, match=re.escape("eps must lie in (0, 1]; got eps=2.0")):
            Profile1D(a_unit=SINE_A, f=ODD_F, eps=2.0)

    def test_non_integer_period_count_rejected(self):
        with pytest.raises(ValueError):
            Profile1D(a_unit=SINE_A, f=ODD_F, eps=0.3)

    @pytest.mark.parametrize("eps,ppp", [(1e-7, 64), (0.5, 10**12), (1 / 128, 2**13 + 1)],
                             ids=["eps-1e-7", "ppp-1e12", "one-above-the-bound"])
    def test_oversized_grid_rejected(self, eps, ppp):
        # 640,000,001 and 2e12 nodes: refused when the profile is built, before any grid
        with pytest.raises(ParameterError, match=f"needs more than {2**20} grid intervals"):
            Profile1D(a_unit=SINE_A, f=ODD_F, eps=eps, points_per_period=ppp)

    def test_grid_at_the_bound_accepted(self):
        assert sine_profile(eps=1 / 128, ppp=2**13).grid().size == 2**20 + 1


class TestHomogenized:
    def test_unit_forcing_maximum(self):
        # max u_0 = 1/(8 a_0) for f = 1 on (0,1)
        p = sine_profile(f=ONES)
        hom = solve_homogenized_1d(p)
        a0 = harmonic_mean(SINE_A)
        assert np.max(hom.u) == pytest.approx(1.0 / (8.0 * a0), abs=1e-8)

    def test_constant_a_heterogeneous_equals_homogenized(self):
        p = Profile1D(a_unit=lambda y: np.full_like(np.asarray(y), 0.5), f=ODD_F, eps=1 / 8)
        het = solve_explicit(p)
        hom = solve_homogenized_1d(p)
        assert np.max(np.abs(het.u - hom.u)) < 1e-12

    def test_odd_forcing_gives_antisymmetric_solution(self):
        hom = solve_homogenized_1d(sine_profile(f=ODD_F))
        assert np.max(np.abs(hom.u + hom.u[::-1])) < 1e-10


class TestCorrector1D:
    def test_constant_profile_gives_zero(self):
        y, phi = corrector_1d(lambda t: np.full_like(np.asarray(t), 0.7))
        assert np.max(np.abs(phi)) < 1e-15

    def test_periodicity_for_any_profile(self):
        for a in (SINE_A, lambda t: 1.0 + 0.8 * np.cos(2 * np.pi * np.asarray(t)) ** 2):
            _, phi = corrector_1d(a)
            assert abs(phi[-1]) < 1e-12

    def test_flux_identity_pointwise(self):
        y, phi = corrector_1d(SINE_A, M=4096)
        a0 = harmonic_mean(SINE_A, M=4096)
        dphi = a0 / SINE_A(y) - 1.0
        assert np.max(np.abs(SINE_A(y) * (dphi + 1.0) - a0)) < 1e-12

    def test_amplitude_against_adaptive_quadrature_oracle(self):
        y, phi = corrector_1d(SINE_A, M=8192)
        a0 = harmonic_mean(SINE_A, M=8192)
        k = int(np.argmax(np.abs(phi)))
        oracle, _ = scipy.integrate.quad(
            lambda t: a0 / (2.0 + np.sin(2 * np.pi * t)) - 1.0, 0.0, y[k], epsabs=1e-12)
        assert abs(phi[k] - oracle) < 1e-7


class TestTwoScale1D:
    def test_constant_profile_error_is_quadrature_noise(self):
        p = Profile1D(a_unit=lambda y: np.full_like(np.asarray(y), 0.5), f=ODD_F, eps=1 / 16)
        r = two_scale_check_1d(p)
        assert r.error < 1e-20

    def test_eps_squared_scaling(self):
        errors = {eps: two_scale_check_1d(sine_profile(eps=eps)).error for eps in EPS_LIST}
        for eps, eps_half in zip(EPS_LIST[:-1], EPS_LIST[1:]):
            assert 3.0 <= errors[eps] / errors[eps_half] <= 5.0

    def test_error_below_both_bounds(self):
        for eps in EPS_LIST:
            r = two_scale_check_1d(sine_profile(eps=eps))
            assert r.ratio_statement <= 1.0
            assert r.ratio_proof <= 1.0

    def test_harmonic_mean_is_taken_once_per_use(self, monkeypatch):
        # once for a_0 and u_0, once inside corrector_1d; u_0 is solve_homogenized_1d's
        calls, mean = [], harmonic_mean
        monkeypatch.setattr(homoglab.oned, "harmonic_mean",
                            lambda *args, **kw: calls.append(args) or mean(*args, **kw))
        p = sine_profile()
        r = two_scale_check_1d(p)
        assert len(calls) == 2
        het, hom = solve_explicit(p), solve_homogenized_1d(p)
        assert r.sup_error == float(np.max(np.abs(het.u - hom.u)))


def per_node_errors(F, eps_list, points_per_period, y_points, a=0.0, b=1.0):
    """The period average as one ``trapezoid`` per grid node, in eps order."""
    yq = np.linspace(0.0, 1.0, y_points + 1)
    errors = []
    for eps in sorted(eps_list, reverse=True):
        n = max(1024, int(np.ceil((b - a) / eps)) * points_per_period)
        x = np.linspace(a, b, n + 1)
        osc = trapezoid(F(x / eps, x), x)
        fbar = trapezoid(
            np.array([trapezoid(F(yq, np.full_like(yq, xv)), yq) for xv in x]), x)
        errors.append(abs(osc - fbar))
    return np.array(errors)


class TestOscillatoryAverage:
    @pytest.mark.parametrize("F", [
        lambda y, x: np.sin(2 * np.pi * y) * x,
        lambda y, x: np.exp(np.cos(2 * np.pi * y)) * (1.0 + x**2),
    ], ids=["modulated-sine", "exp-cosine"])
    def test_errors_equal_the_per_node_loop(self, F):
        eps_list = [1 / 4, 1 / 16, 1 / 48, 1 / 64]  # 1/48: a grid the others do not nest in
        rep = oscillatory_average_check(F, eps_list, points_per_period=32, y_points=300)
        np.testing.assert_array_equal(rep.errors, per_node_errors(F, eps_list, 32, 300))

    def test_default_y_points_match_4096(self):
        # the trapezoid rule converges geometrically on smooth periodic
        # integrands; this one is not a trigonometric polynomial in y
        def F(y, x):
            return np.exp(x) / (1.0 + 0.5 * np.sin(2 * np.pi * y))

        rep = oscillatory_average_check(F, [1 / 4, 1 / 8])
        fine = oscillatory_average_check(F, [1 / 4, 1 / 8], y_points=4096)
        np.testing.assert_allclose(rep.errors, fine.errors, rtol=0, atol=1e-15)
        assert abs(rep.fitted_constant - fine.fitted_constant) <= 1e-15

    def test_y_independent_integrand(self):
        rep = oscillatory_average_check(lambda y, x: np.cos(np.pi * x), [1 / 4, 1 / 16])
        assert np.max(rep.errors) < 1e-12

    def test_pure_oscillation_cancels_on_full_periods(self):
        rep = oscillatory_average_check(lambda y, x: np.sin(2 * np.pi * y), [1 / 4, 1 / 16])
        assert np.max(rep.errors) < 1e-12

    def test_modulated_oscillation_error_linear_in_eps(self):
        rep = oscillatory_average_check(lambda y, x: np.sin(2 * np.pi * y) * x,
                                        [1 / 4, 1 / 16, 1 / 64, 1 / 256])
        ratios = rep.errors / rep.eps
        assert np.max(ratios) < 2.0 * np.min(ratios) + 1e-12
        assert np.isfinite(rep.fitted_constant)

    @pytest.mark.parametrize("eps_list,message", [
        ([], "a non-empty"), ([1 / 4, 1 / 4], "distinct")], ids=["empty", "repeated"])
    def test_bad_eps_list_rejected(self, eps_list, message):
        with pytest.raises(ParameterError, match=f"eps_list must be {message}"):
            oscillatory_average_check(lambda y, x: np.sin(2 * np.pi * y) * x, eps_list)

    @pytest.mark.parametrize("grid", [{"points_per_period": 2**19 + 1}, {"y_points": 2**20 + 1}],
                             ids=["x", "y"])
    def test_oversized_grid_rejected(self, grid):
        with pytest.raises(ParameterError, match=f"intervals is more than {2**20}"):
            oscillatory_average_check(lambda y, x: np.sin(2 * np.pi * y), [1 / 2], **grid)


class TestSupError:
    def test_constant_profile_error_tiny(self):
        p = Profile1D(a_unit=lambda y: np.full_like(np.asarray(y), 0.5), f=ODD_F, eps=1 / 8)
        rep = sup_error_check(p, [1 / 8, 1 / 16])
        assert np.max(rep.sup_errors) < 1e-12

    @pytest.mark.parametrize("eps_list,message", [
        ([], "a non-empty"), ([1 / 8, 1 / 8], "distinct")], ids=["empty", "repeated"])
    def test_bad_eps_list_rejected(self, eps_list, message):
        # the same reader as the rate statistics' abscissae
        with pytest.raises(ParameterError, match=f"eps_list must be {message}"):
            sup_error_check(sine_profile(), eps_list)

    def test_one_eps_has_no_rate(self):
        assert np.isnan(sup_error_check(sine_profile(), [1 / 8]).rate)

    def test_first_order_rate(self):
        rep = sup_error_check(sine_profile(), EPS_LIST)
        assert 0.8 <= rep.rate <= 1.2

    def test_maximum_tracks_homogenized_prediction(self):
        # |max u_eps - 1/(8 a_0)| <= C eps with the fitted C bounded across
        # eps (here the maximum sits where u_0' vanishes, so the first-order
        # term drops out and the error is even better than O(eps))
        a0 = harmonic_mean(SINE_A)
        cs = []
        for eps in EPS_LIST:
            s = solve_explicit(sine_profile(eps=eps, f=ONES))
            cs.append(abs(np.max(s.u) - 1.0 / (8.0 * a0)) / eps)
        cs = np.array(cs)
        assert np.all(cs <= cs[0] * 1.05 + 1e-12)  # no blow-up of the constant
        assert cs[0] < 1.0

    def test_weak_but_not_strong_gradient_convergence(self):
        rep = sup_error_check(sine_profile(), EPS_LIST)
        # L2 gradient error bounded below along the sequence
        assert np.min(rep.grad_l2_errors) > 0.5 * np.max(rep.grad_l2_errors)
        assert np.min(rep.grad_l2_errors) > 1e-3
        # pairings against 5 smooth test functions decay with eps
        worst = np.max(np.abs(rep.weak_gradient_pairings), axis=1)
        assert worst[-1] < 0.2 * worst[0]
