import numpy as np
import pytest

from homoglab.lattice import (
    BoxSpec,
    CoefficientField,
    ScalarField,
    VectorField,
    div_star,
    grad,
)
from homoglab.elliptic import SolverConfig, SolverError
from homoglab.ensembles import SampleId, constant, sample, two_point
from homoglab.correctors import (
    _energy_checks,
    ahom_cell,
    ahom_rve,
    corrector_set,
    div_star_skew,
    flux,
    flux_average,
    solve_corrector,
    solve_flux_corrector,
    solve_modified_corrector,
    verify_ahom_properties,
)

from conftest import apply_constant, operator_matrix, random_coefficients

CFG = SolverConfig(tol=1e-11)


def two_point_field_1d(L: int, rng: np.random.Generator) -> CoefficientField:
    vals = np.where(rng.integers(0, 2, size=(L, 1)) == 0, 0.25, 0.75)
    return CoefficientField(BoxSpec(1, L), vals, lam=0.2)


class TestCorrector:
    def test_constant_coefficients_give_zero(self):
        box = BoxSpec(2, 8)
        a = CoefficientField.constant(box, 0.5, lam=0.25)
        phi, rep = solve_corrector(a, [1.0, 0.0], CFG)
        assert np.all(phi.values == 0.0) and rep.iterations == 0

    def test_1d_circle_explicit_increments(self, rng):
        # closed form on the discrete circle: grad phi = a0/a - 1 with a0 the
        # harmonic mean of the edge conductances
        a = two_point_field_1d(16, rng)
        phi, _ = solve_corrector(a, [1.0], SolverConfig(tol=1e-12))
        a0 = 1.0 / np.mean(1.0 / a.diag[:, 0])
        expected_inc = a0 / a.diag[:, 0] - 1.0
        assert np.max(np.abs(grad(phi).values[:, 0] - expected_inc)) < 1e-9

    def test_mean_zero_and_residual(self, rng):
        box = BoxSpec(2, 8)
        a = random_coefficients(box, rng)
        phi, rep = solve_corrector(a, [1.0, 0.0], CFG)
        assert abs(np.mean(phi.values)) < 1e-12
        assert rep.converged

    def test_energy_bound_on_random_fields(self):
        # per-sample variational bounds at lam = 0.2 on 100 draws
        spec = two_point(master_seed=88)
        box = BoxSpec(2, 8)
        lam = 0.2
        for i in range(100):
            a = sample(spec, box, SampleId(i))
            phi, _ = solve_corrector(a, [1.0, 0.0], CFG)
            g = grad(phi).values
            m_grad = float(np.mean(np.sum(g**2, axis=1)))
            assert m_grad <= (1 - lam**2) / lam**2 + 1e-9

    def test_energy_bound_violation_raises(self, rng):
        # an explicit exception, not an assert that python -O would strip
        box = BoxSpec(2, 8)
        a = random_coefficients(box, rng)
        phi = ScalarField(box, 100.0 * rng.normal(size=box.n_sites))
        with pytest.raises(SolverError, match="energy bound violated"):
            _energy_checks(a, phi, np.array([1.0, 0.0]))

    def test_linear_in_direction(self, rng):
        box = BoxSpec(2, 8)
        a = random_coefficients(box, rng)
        cfg = SolverConfig(tol=1e-12)
        xi = np.array([1.0, 0.0])
        eta = np.array([0.0, 1.0])
        p_xi, _ = solve_corrector(a, xi, cfg)
        p_eta, _ = solve_corrector(a, eta, cfg)
        p_sum, _ = solve_corrector(a, xi + eta, cfg)
        gap = np.linalg.norm(p_sum.values - p_xi.values - p_eta.values)
        scale = np.linalg.norm(p_sum.values) + 1.0
        # residual tolerance amplifies through the inverse by 1/mu_min
        assert gap <= 1e3 * cfg.tol * scale

    def test_zero_direction_rejected(self, rng):
        a = random_coefficients(BoxSpec(2, 4), rng)
        with pytest.raises(ValueError):
            solve_corrector(a, [0.0, 0.0])


class TestFlux:
    def test_constant_coefficients_give_zero_flux(self):
        box = BoxSpec(2, 8)
        a = CoefficientField.constant(box, 0.5, lam=0.25)
        phi, _ = solve_corrector(a, [1.0, 0.0], CFG)
        q = flux(a, phi, [1.0, 0.0])
        assert np.max(np.abs(q.values)) < 1e-14

    def test_mean_exactly_zero(self, rng):
        box = BoxSpec(2, 8)
        a = random_coefficients(box, rng)
        phi, _ = solve_corrector(a, [1.0, 0.0], CFG)
        q = flux(a, phi, [1.0, 0.0])
        assert np.max(np.abs(q.values.mean(axis=0))) < 1e-15

    def test_divergence_free_to_tolerance(self, rng):
        box = BoxSpec(2, 8)
        a = random_coefficients(box, rng)
        xi = [1.0, 0.0]
        phi, _ = solve_corrector(a, xi, CFG)
        q = flux(a, phi, xi)
        raw = a.diag * (grad(phi).values + np.asarray(xi))
        resid = np.linalg.norm(div_star(q).values)
        assert resid <= 10 * CFG.tol * np.linalg.norm(raw)


class TestFluxCorrector:
    def test_zero_flux_gives_zero(self):
        box = BoxSpec(2, 8)
        sigma, _ = solve_flux_corrector(VectorField(box, np.zeros((box.n_sites, box.d))), CFG)
        assert np.all(sigma.values == 0.0)

    def test_d1_has_no_offdiagonal_pairs(self, rng):
        a = two_point_field_1d(8, rng)
        cs = corrector_set(a, 0, CFG)
        assert np.all(cs.sigma.values == 0.0)

    def test_antisymmetry_exact_and_divergence_identity(self):
        spec = two_point(master_seed=55)
        box = BoxSpec(2, 32)
        a = sample(spec, box, SampleId(0))
        cs = corrector_set(a, 0, CFG)
        s = cs.sigma.values
        assert np.array_equal(s, -np.swapaxes(s, 1, 2))
        rel = (np.linalg.norm(div_star_skew(cs.sigma).values - cs.q.values)
               / np.linalg.norm(cs.q.values))
        assert rel <= 1e-7

    def test_matches_dense_poisson_oracle_on_6squared(self, rng):
        # independent dense route: assemble the lattice Laplacian from its
        # action, pin the gauge, solve for sigma_{12} directly
        box = BoxSpec(2, 6)
        a = random_coefficients(box, rng)
        xi = [1.0, 0.0]
        phi, _ = solve_corrector(a, xi, SolverConfig(tol=1e-12))
        q = flux(a, phi, xi)
        sigma, _ = solve_flux_corrector(q, SolverConfig(tol=1e-12))

        lap = operator_matrix(lambda u: apply_constant(np.eye(2), u), box)
        g1 = q.grid(0)
        g2 = q.grid(1)
        rhs = ((np.roll(g1, -1, axis=1) - g1) - (np.roll(g2, -1, axis=0) - g2)).ravel(order="F")
        dense = np.zeros(box.n_sites)
        dense[1:] = np.linalg.solve(lap[1:, 1:], rhs[1:])
        dense -= dense.mean()
        assert np.max(np.abs(sigma.values[:, 0, 1] - dense)) < 1e-9

    def test_nonzero_mean_flux_rejected(self, rng):
        box = BoxSpec(2, 4)
        F = VectorField(box, np.ones((box.n_sites, 2)))
        with pytest.raises(ValueError):
            solve_flux_corrector(F)


class TestModifiedCorrector:
    def test_constant_coefficients_give_zero(self):
        box = BoxSpec(2, 8)
        a = CoefficientField.constant(box, 0.5, lam=0.25)
        phi_T, _ = solve_modified_corrector(a, [1.0, 0.0], 100.0, CFG)
        assert np.all(phi_T.values == 0.0)

    def test_gradient_converges_to_unmassive_corrector(self, rng):
        box = BoxSpec(2, 8)
        a = random_coefficients(box, rng)
        xi = [1.0, 0.0]
        cfg = SolverConfig(tol=1e-12)
        phi, _ = solve_corrector(a, xi, cfg)
        gaps = []
        for T in (1e2, 1e4):
            phi_T, _ = solve_modified_corrector(a, xi, T, cfg)
            gaps.append(np.linalg.norm(grad(phi_T).values - grad(phi).values))
        assert gaps[1] < gaps[0]

    def test_energy_identity(self, rng):
        box = BoxSpec(2, 8)
        a = random_coefficients(box, rng)
        xi = np.array([1.0, 0.0])
        T = 10.0
        phi_T, _ = solve_modified_corrector(a, xi, T, SolverConfig(tol=1e-12))
        g = grad(phi_T).values
        lhs = float(np.sum(phi_T.values**2)) / T + float(np.sum(g * (a.diag * (g + xi))))
        scale = float(np.sum(phi_T.values**2)) / T + float(np.sum(np.abs(g * (a.diag * (g + xi))))) + 1.0
        assert abs(lhs) < 1e-9 * scale


class TestAhomCell:
    def test_constant_coefficients(self):
        box = BoxSpec(2, 4)
        a = CoefficientField.constant(box, 0.5, lam=0.25)
        t = ahom_cell(a, CFG)
        assert np.allclose(t.matrix, 0.5 * np.eye(2), atol=1e-12)
        assert np.all(t.stderr == 0.0)

    def test_1d_harmonic_mean_exact(self, rng):
        a = two_point_field_1d(12, rng)
        t = ahom_cell(a, SolverConfig(tol=1e-12))
        harm = 1.0 / np.mean(1.0 / a.diag[:, 0])
        assert t.matrix[0, 0] == pytest.approx(harm, abs=1e-10)

    def test_2d_laminate_closed_form(self, rng):
        # laminate: both diagonal entries equal g(x_1); effective tensor is
        # diag(harmonic mean, arithmetic mean) of g
        L = 8
        box = BoxSpec(2, L)
        g_line = np.where(rng.integers(0, 2, size=L) == 0, 0.25, 0.75)
        coords = box.coordinate_arrays()
        diag = np.stack([g_line[coords[:, 0]], g_line[coords[:, 0]]], axis=1)
        a = CoefficientField(box, diag, lam=0.2)
        t = ahom_cell(a, SolverConfig(tol=1e-12))
        harm = 1.0 / np.mean(1.0 / g_line)
        arith = float(np.mean(g_line))
        assert abs(t.matrix[0, 0] - harm) < 1e-8
        assert abs(t.matrix[1, 1] - arith) < 1e-8
        assert abs(t.matrix[0, 1]) < 1e-8 and abs(t.matrix[1, 0]) < 1e-8

    def test_voigt_upper_bound(self, rng):
        box = BoxSpec(2, 8)
        a = random_coefficients(box, rng)
        t = ahom_cell(a, CFG)
        for xi in (np.array([1.0, 0.0]), np.array([0.6, -0.8]), np.array([1.0, 1.0]) / np.sqrt(2)):
            quad = float(xi @ t.matrix @ xi)
            voigt = float(np.mean(a.diag @ (xi**2)))
            assert quad <= voigt + 1e-9


class TestAhomRve:
    def test_constant_ensemble_exact(self):
        t = ahom_rve(constant(0.5, master_seed=1), BoxSpec(2, 4), 3, CFG)
        assert np.allclose(t.matrix, 0.5 * np.eye(2), atol=1e-12)
        assert np.all(t.stderr == 0.0)

    def test_degenerate_two_point_is_deterministic(self):
        spec = two_point(alpha=0.4, beta=0.4, master_seed=9)
        t = ahom_rve(spec, BoxSpec(2, 4), 3, CFG)
        assert np.allclose(t.matrix, 0.4 * np.eye(2), atol=1e-10)

    def test_deterministic_in_seed(self):
        spec = two_point(master_seed=77)
        box = BoxSpec(2, 8)
        t1 = ahom_rve(spec, box, 4, CFG)
        t2 = ahom_rve(spec, box, 4, CFG)
        assert np.array_equal(t1.matrix, t2.matrix)

    def test_consistency_across_box_sizes(self):
        # RVE consistency oracle: estimates at L=8 and L=16 agree within
        # 3x the combined standard errors
        spec = two_point(master_seed=13)
        t8 = ahom_rve(spec, BoxSpec(2, 8), 24, CFG)
        t16 = ahom_rve(spec, BoxSpec(2, 16), 24, CFG)
        gap = np.abs(t8.matrix - t16.matrix)
        tol = 3.0 * (t8.stderr + t16.stderr) + 1e-9
        assert np.all(gap <= tol)

    def test_stderr_scales_like_inverse_sqrt_n(self):
        # doubling n should shrink stderr by ~sqrt(2); averaged over 3 seeds
        box = BoxSpec(2, 6)
        ratios = []
        for seed in (101, 202, 303):
            spec = two_point(master_seed=seed)
            s_n = ahom_rve(spec, box, 24, CFG).stderr[0, 0]
            s_2n = ahom_rve(spec, box, 48, CFG).stderr[0, 0]
            ratios.append(s_n / s_2n)
        avg = float(np.mean(ratios))
        assert 1.2 <= avg <= 1.9

    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            ahom_rve(two_point(master_seed=1), BoxSpec(2, 4), 1, CFG)


class TestAhomProperties:
    def test_constant_tensor_passes(self):
        t = ahom_rve(constant(0.5, master_seed=1), BoxSpec(2, 4), 2, CFG)
        rep = verify_ahom_properties(t, lam=0.2)
        assert rep.all_pass

    def test_ellipticity_margin_from_random_ensembles(self):
        # lam = 0.2 floor over a direction grid; modest Monte Carlo here,
        # the acceptance suite runs the full 20-ensemble sweep
        for seed in (1, 2, 3, 4, 5):
            spec = two_point(master_seed=seed)
            t = ahom_rve(spec, BoxSpec(2, 8), 4, CFG)
            rep = verify_ahom_properties(t, lam=0.2)
            assert rep.ellipticity_pass and rep.min_quadratic_form >= 0.2

    def test_diagonal_ensemble_symmetry_is_the_transposition_check(self):
        spec = two_point(master_seed=21)
        t = ahom_rve(spec, BoxSpec(2, 8), 8, CFG)
        rep = verify_ahom_properties(t, lam=0.2)
        assert rep.symmetry_pass
        assert rep.symmetry_gap <= rep.symmetry_tolerance


class TestCorrectorSetBundle:
    def test_reports_attached_and_invariants(self):
        spec = two_point(master_seed=500)
        box = BoxSpec(2, 16)
        a = sample(spec, box, SampleId(0))
        cs = corrector_set(a, 1, CFG)
        assert cs.direction == 1
        assert abs(np.mean(cs.phi.values)) < 1e-12
        assert all(r.converged for r in cs.reports)
        xi = np.array([0.0, 1.0])
        assert np.allclose(cs.ahom_row, flux_average(a, cs.phi, xi))
