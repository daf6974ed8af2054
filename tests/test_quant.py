import inspect

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from homoglab import ensembles, quant
from homoglab.correctors import ahom_rve
from homoglab.lattice import BoxSpec, CoefficientField, ParameterError, ScalarField
from homoglab.elliptic import SolverConfig
from homoglab.ensembles import (EnsembleSpec, SampleId, _kernel_weights, constant, sample,
                                two_point, uniform)
from homoglab.quant import (
    CellAhomEntry,
    SingleSiteEntry,
    birkhoff_rate,
    corrector_growth,
    green_decay,
    lipschitz_derivative,
    meyers_probe,
    meyers_ratio,
    semigroup_decay,
    sg_check,
    smooth_random_field,
    vertical_derivative,
)

from conftest import constant_green, heat_kernel_diagonal, random_coefficients

SPEC = two_point(alpha=0.25, beta=0.75, master_seed=2026)


class TestDerivatives:
    def test_constant_functional_has_zero_derivatives(self):
        a = sample(SPEC, BoxSpec(2, 4), SampleId(0))
        const = lambda field: 1.0
        assert vertical_derivative(const, a, 3, SPEC) == 0.0
        assert lipschitz_derivative(const, a, 3, SPEC) == 0.0

    def test_single_site_functional_closed_form(self):
        box = BoxSpec(2, 4)
        f = SingleSiteEntry()
        devs = []
        for i in range(400):
            a = sample(SPEC, box, SampleId(i))
            d = vertical_derivative(f, a, 0, SPEC)
            assert d == pytest.approx(a.diag[0, 0] - 0.5)
            devs.append(d)
        second_moment = float(np.mean(np.square(devs)))
        # Var(a_1) = (beta - alpha)^2 / 4 = 1/16
        assert second_moment == pytest.approx(0.0625, rel=0.2)

    def test_disjoint_site_gives_zero(self):
        box = BoxSpec(2, 4)
        f = SingleSiteEntry()
        a = sample(SPEC, box, SampleId(1))
        assert vertical_derivative(f, a, 7, SPEC) == 0.0

    def test_lipschitz_of_single_site_is_the_gap(self):
        a = sample(SPEC, BoxSpec(2, 4), SampleId(2))
        assert lipschitz_derivative(SingleSiteEntry(), a, 0, SPEC) == pytest.approx(0.5)

    def test_lipschitz_dominates_vertical_on_random_functionals(self):
        # sup of |f(a') - f(a'')| dominates the centered conditional average
        box = BoxSpec(2, 4)
        rng = np.random.default_rng(5)
        for trial in range(100):
            w = rng.normal(size=(box.n_sites, box.d))

            def f(field, w=w):
                return float(np.sum(w * np.log(field.diag)))

            site = int(rng.integers(box.n_sites))
            a = sample(SPEC, box, SampleId(trial))
            assert (lipschitz_derivative(f, a, site, SPEC)
                    >= abs(vertical_derivative(f, a, site, SPEC)) - 1e-12)

    @pytest.mark.parametrize("spec", [
        uniform(master_seed=4),
        constant(0.5),
        EnsembleSpec("correlated-two-point", {"alpha": 0.25, "beta": 0.75}, 0.2, 4),
        EnsembleSpec("periodic-tile", {"unit_cell": [[0.3, 0.7], [0.7, 0.3]] * 2}, 0.2, 4),
    ], ids=lambda spec: spec.kind)
    def test_only_two_point_laws_have_a_vertical_derivative(self, spec):
        # the exact two-point average is the only evaluation; no inner Monte Carlo
        a = sample(spec, BoxSpec(2, 4), SampleId(0))
        with pytest.raises(ParameterError,
                           match=f"site variants require a two-point kind, got '{spec.kind}'"):
            vertical_derivative(SingleSiteEntry(), a, 0, spec)


class TestSpectralGap:
    # sg_check's reports, in order: SingleSiteEntry(), BoxAverageEntry(max(2, L // 2)),
    # CellAhomEntry(); each functional's values do not depend on the others
    def test_single_site_is_the_equality_case(self):
        r = sg_check(SPEC, BoxSpec(2, 6), 600)[0]
        assert abs(r.ratio - 1.0) <= 2.0 * r.ratio_stderr

    def test_box_average_within_gap(self):
        assert sg_check(SPEC, BoxSpec(2, 6), 400)[1].within_gap

    def test_ahom_entry_within_gap(self):
        assert sg_check(SPEC, BoxSpec(2, 6), 200)[2].within_gap

    def test_the_functionals_are_fixed(self):
        # no family to pass: the three stock functionals, in the order the CLI writes
        assert list(inspect.signature(sg_check).parameters) == ["spec", "box", "n", "map_fn"]
        assert not hasattr(quant, "default_functional_family")
        reports = sg_check(SPEC, BoxSpec(2, 4), 4)
        assert [r.functional for r in reports] == ["single-site", "box-average", "ahom-entry"]
        assert all(r.rho_assumed == 1.0 for r in reports)

    def test_rho_assumed_is_not_an_argument(self):
        r = sg_check(SPEC, BoxSpec(2, 4), 4)[0]
        with pytest.raises(TypeError):
            quant.SGReport(r.functional, r.variance, r.derivative_sum, r.ratio,
                           r.ratio_stderr, 2.0)
        with pytest.raises(TypeError):
            quant.SGReport(r.functional, r.variance, r.derivative_sum, r.ratio,
                           r.ratio_stderr, rho_assumed=2.0)

    def test_non_iid_spec_rejected(self):
        with pytest.raises(ValueError):
            sg_check(uniform(master_seed=1), BoxSpec(2, 4), 10)

    def test_cell_functional_matches_reference_cell_solver(self):
        from homoglab.correctors import ahom_cell

        box = BoxSpec(2, 6)
        a = sample(SPEC, box, SampleId(9))
        dense = CellAhomEntry()(a)
        reference = ahom_cell(a, SolverConfig(tol=1e-12)).matrix[0, 0]
        assert dense == pytest.approx(reference, abs=1e-9)


class TestCorrectorGrowth:
    def test_constant_ensemble_gives_zero_moments(self):
        fit = corrector_growth(constant(0.5, master_seed=1), BoxSpec(2, 16),
                               [2, 4], p=1, n=3)
        assert all(m.value == 0.0 for m in fit.moments)

    @pytest.mark.parametrize("p,radii", [(4000, [2, 3, 4]), (1000, [2, 4])],
                             ids=["moments", "stderr"])
    def test_moment_overflow_is_a_config_error(self, p, radii):
        # the seed of configs/ensemble_2pt.json, where at p = 1000 the r = 4
        # moment is finite but its standard error is not
        spec = two_point(master_seed=20260810)
        with pytest.raises(ParameterError, match="--p"):
            corrector_growth(spec, BoxSpec(2, 16), radii, p=p, n=2)

    def test_stderr_of_a_high_moment_does_not_underflow(self):
        # at p = 200 the per-sample raw moments are so small that their squared
        # deviations fall below the float range unless they are scaled first
        fit = corrector_growth(two_point(alpha=0.45, beta=0.55, master_seed=3),
                               BoxSpec(2, 16), [2, 4], p=200, n=2)
        assert all(0 < m.stderr < m.value for m in fit.moments)

    def test_radius_beyond_window_rejected(self):
        with pytest.raises(ValueError):
            corrector_growth(SPEC, BoxSpec(2, 16), [8], p=1, n=2)

    def test_d2_moments_grow_with_radius(self):
        fit = corrector_growth(SPEC, BoxSpec(2, 64), [4, 8, 16], p=1, n=25)
        sq = np.array([m.value ** 2 for m in fit.moments])
        ses = np.array([m.stderr for m in fit.moments])
        for k in range(len(sq) - 1):
            assert sq[k + 1] >= sq[k] - 3.0 * (ses[k] + ses[k + 1])
        assert fit.model == "log-fit" and fit.slope > 0

    def test_d3_plateau(self):
        fit = corrector_growth(SPEC, BoxSpec(3, 32), [4, 6, 8], p=1, n=8)
        assert fit.model == "constant-fit"
        sq = np.array([m.value ** 2 for m in fit.moments])
        assert sq.max() / sq.min() <= 1.5


class TestSemigroup:
    def test_time_window_enforced(self):
        with pytest.raises(ValueError):
            semigroup_decay(SPEC, BoxSpec(2, 16), [10.0], n=4)

    def test_constant_ensemble_has_zero_moments(self):
        rep = semigroup_decay(constant(0.5, master_seed=2), BoxSpec(2, 32),
                              [1.0, 4.0], n=4)
        assert np.max(rep.second_moments) < 1e-28

    def test_monte_carlo_matches_independent_product_formula(self):
        # for iid single-site observables E|P(t)zeta - E zeta|^2 equals
        # Var(zeta) * sum_x p(t,x)^2 = Var(zeta) * p(2t, 0)
        box = BoxSpec(2, 64)
        t_grid = [1.0, 4.0, 16.0]
        rep = semigroup_decay(SPEC, box, t_grid, n=600)
        for k, t in enumerate(t_grid):
            exact = 0.0625 * heat_kernel_diagonal(2.0 * t, box)
            assert rep.second_moments[k] == pytest.approx(exact, rel=0.25)

    def test_variance_contraction(self):
        rep = semigroup_decay(SPEC, BoxSpec(2, 64), [1.0, 4.0, 16.0], n=300)
        assert rep.contraction_ok

    def test_slope_near_minus_d_over_2(self):
        rep = semigroup_decay(SPEC, BoxSpec(2, 128), [1.0, 4.0, 16.0, 64.0], n=400)
        assert abs(rep.fit.slope - (-1.0)) <= 0.3


class TestGreenDecay:
    def test_d3_quenched_exponent(self):
        rep = green_decay(SPEC, BoxSpec(3, 32), n=6, radii=[2, 3, 4])
        assert abs(rep.quenched_fit.slope - (-1.0)) <= 0.35  # small-box window
        assert rep.quenched_log_ratios is None

    def test_d2_log_ratios_bounded(self):
        rep = green_decay(SPEC, BoxSpec(2, 64), n=6)
        ratios = rep.quenched_log_ratios
        assert np.all(np.isfinite(ratios)) and np.all(ratios > 0)
        assert np.max(ratios) <= 1.5 * np.median(ratios)

    def test_d2_annealed_exponent(self):
        rep = green_decay(SPEC, BoxSpec(2, 64), n=10)
        assert abs(rep.annealed_fit.slope - (-2.0)) <= 0.3

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            green_decay(SPEC, BoxSpec(1, 16), n=2)

    def test_non_positive_quenched_profile_is_a_config_error(self, monkeypatch):
        monkeypatch.setattr(quant, "green", constant_green)
        with pytest.raises(ValueError, match="--radii") as exc:
            green_decay(SPEC, BoxSpec(3, 16), n=2, radii=[2, 3])
        assert "--L" in str(exc.value)


class TestMeyers:
    def test_constant_coefficients_collapse(self, rng):
        # a = c id makes v = h/c up to a constant: the ratio is (1/c)^(2q)
        box = BoxSpec(2, 16)
        c, q = 0.5, 1.1
        a = CoefficientField.constant(box, c, lam=0.25)
        h = smooth_random_field(box, rng)
        r = meyers_ratio(a, h, q=q, alpha_w=0.1, cfg=SolverConfig(tol=1e-12))
        assert r == pytest.approx((1.0 / c) ** (2 * q), rel=1e-6)

    def test_unweighted_energy_bound(self, rng):
        # q = 1, alpha = 0: ratio <= 1/lam^2 by the plain energy estimate
        box = BoxSpec(2, 16)
        lam = 0.2
        for k in range(5):
            a = random_coefficients(box, rng, lam=lam)
            h = smooth_random_field(box, rng)
            r = meyers_ratio(a, h, q=1.0, alpha_w=0.0, cfg=SolverConfig(tol=1e-12))
            assert r <= 1.0 / lam**2 + 1e-9

    def test_probe_stable_at_default_parameters(self):
        rep = meyers_probe(SPEC, BoxSpec(2, 16), n=20, q=1.1, alpha_w=0.1)
        assert not rep.blowup_flag
        assert np.all(np.isfinite(rep.ratios))

    def test_weight_overflow_is_a_config_error_before_the_first_sample(self, monkeypatch):
        # at L=8 the largest weight (4 sqrt 2 + 1)^alpha_w leaves the float
        # range above alpha_w = log(max float) / log(4 sqrt 2 + 1) = 374.4
        rep = meyers_probe(SPEC, BoxSpec(2, 8), n=2, q=1.1, alpha_w=370.0)
        assert np.all(np.isfinite(rep.ratios))
        monkeypatch.setattr(ensembles, "sample", _no_draw)
        with pytest.raises(ParameterError, match="--alpha-w"):
            meyers_probe(SPEC, BoxSpec(2, 8), n=2, q=1.1, alpha_w=400.0)

    def test_weighted_sum_overflow_is_a_config_error(self, rng):
        # a finite weight times a large right-hand side still overflows the sums
        box = BoxSpec(2, 8)
        h = smooth_random_field(box, rng)
        big = ScalarField(box, h.values * 1e10)
        with pytest.raises(ParameterError, match="weighted sums overflow"):
            meyers_ratio(random_coefficients(box, rng), big, q=1.1, alpha_w=370.0)

    def test_constant_h_rejected(self, rng):
        box = BoxSpec(2, 8)
        with pytest.raises(ParameterError, match="h must be non-constant"):
            meyers_ratio(random_coefficients(box, rng), ScalarField.zeros(box), 1.1, 0.1)

    def test_q_out_of_range_rejected(self, rng):
        box = BoxSpec(2, 8)
        a = random_coefficients(box, rng)
        h = smooth_random_field(box, rng)
        with pytest.raises(ValueError):
            meyers_ratio(a, h, q=1.5, alpha_w=0.1)


class TestBirkhoff:
    def test_constant_ensemble_has_zero_deviation(self):
        rep = birkhoff_rate(constant(0.5, master_seed=3), BoxSpec(2, 16), [4, 8], n=5)
        assert np.max(rep.rms) == 0.0

    def test_periodic_tile_has_deviations_but_no_fit(self):
        tile = EnsembleSpec("periodic-tile", {"unit_cell": [[0.3, 0.3], [0.7, 0.7]] * 2},
                            0.2, 0)
        rep = birkhoff_rate(tile, BoxSpec(2, 8), [1, 3], n=2)
        assert np.all(rep.rms > 0)
        assert np.isnan([rep.fit.slope, rep.fit.intercept, rep.fit.r_squared]).all()

    def test_iid_slope_matches_clt(self):
        rep = birkhoff_rate(SPEC, BoxSpec(2, 32), [4, 8, 16, 32], n=300)
        assert abs(rep.fit.slope - (-1.0)) <= 0.15

    def test_correlated_averages_decay_slower_than_iid(self):
        # compare normalized by each field's marginal sd: smoothing shrinks
        # the marginal but inflates the relative variance of block averages
        box = BoxSpec(2, 32)
        iid = two_point(master_seed=12)
        corr = EnsembleSpec("correlated-two-point",
                            {"alpha": 0.25, "beta": 0.75, "radius": 1}, 0.2, 12)
        r_iid = birkhoff_rate(iid, box, [4, 8, 16], n=150)
        r_corr = birkhoff_rate(corr, box, [4, 8, 16], n=150)
        half_gap = (0.75 - 0.25) / 2
        weights = np.array(list(_kernel_weights(corr, box.d).values()))
        normalized_iid = r_iid.rms / half_gap
        normalized_corr = r_corr.rms / (half_gap * np.linalg.norm(weights))
        assert np.all(normalized_corr > normalized_iid)


@pytest.mark.parametrize("xs,message", [
    ([], "non-empty"), ([2.0], "two distinct values"), ([3.0, 3.0], "must be distinct")])
def test_abscissae_needs_two_distinct_values(xs, message):
    with pytest.raises(ValueError, match=message):
        quant._abscissae(np.array(xs), "xs", 10.0, "the window")


def test_d3_growth_takes_a_single_radius_but_not_none():
    rep = corrector_growth(constant(0.5), BoxSpec(3, 8), [2], p=1, n=2)
    assert rep.model == "constant-fit" and len(rep.moments) == 1
    with pytest.raises(ValueError, match="non-empty"):
        corrector_growth(constant(0.5), BoxSpec(3, 8), [], p=1, n=2)


def test_loglog_fit_of_one_point_has_no_rate():
    fit = quant._loglog_fit(np.array([2]), np.array([3.0]))
    assert np.isnan([fit.slope, fit.intercept, fit.r_squared]).all()


def _no_draw(*args):
    raise AssertionError("a sample was drawn")


@pytest.mark.parametrize("run", [
    lambda box: ahom_rve(SPEC, box, 1),
    lambda box: corrector_growth(SPEC, box, [2, 4], p=1, n=1),
    lambda box: semigroup_decay(SPEC, box, [1, 4], n=1),
    lambda box: green_decay(SPEC, box, 0, radii=[2, 4]),
    lambda box: meyers_probe(SPEC, box, n=0, q=1.1, alpha_w=0.1),
    lambda box: birkhoff_rate(SPEC, box, [2, 4], n=0),
], ids=["ahom_rve", "corrector_growth", "semigroup_decay", "green_decay", "meyers_probe",
        "birkhoff_rate"])
def test_too_few_samples_raise_before_the_first_draw(run, monkeypatch):
    # a ddof=1 standard error needs two samples, the other statistics one
    monkeypatch.setattr(ensembles, "sample", _no_draw)
    with pytest.raises(ParameterError, match="number of samples must be at least"):
        run(BoxSpec(2, 16))


# 1-D arrays and (n, k) stacks, odd and even n, mixed signs up to 1e308: where the
# middle values are larger than about 9e307, (m + m) / 2 overflows
@settings(max_examples=500, deadline=None, database=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=9),
                  elements=st.floats(-1e308, 1e308)))
@example(np.array([-1.0, 1e308, 1e308]))
@example(np.array([[3.0, -1e308], [1.0, 1e308], [2.0, 1e308], [4.0, 0.5]]))
def test_median_is_numpys_bit_for_bit(values):
    # quant's medians skip the NaN check of np.median, which imports numpy.ma
    with np.errstate(over="ignore"):  # two middle values of 1e308 sum to inf in both
        ours, numpys = quant._median(values), np.median(values, axis=0)
    assert np.asarray(ours).tobytes() == np.asarray(numpys).tobytes()
