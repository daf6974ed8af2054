import numpy as np
import pytest

from homoglab.lattice import BoxSpec, CoefficientField, ScalarField, grad, inner
from homoglab.elliptic import SolverConfig, solve_shifted
from homoglab.ensembles import SampleId, constant, sample, two_point
from homoglab.correctors import corrector_set
from homoglab.twoscale import (
    default_forcing,
    growth_weight,
    remainder,
    solve_homogenized,
    two_scale_experiment,
    two_scale_report,
)

from conftest import apply_constant, random_coefficients

CFG = SolverConfig(tol=1e-11)


class TestSolveHeterogeneous:
    def test_zero_forcing(self, rng):
        box = BoxSpec(2, 8)
        a = random_coefficients(box, rng)
        u, _ = solve_shifted(a, 0.5, ScalarField.zeros(box))
        assert np.all(u.values == 0.0)

    def test_eigenmode_identity_for_constant_coefficients(self):
        # spectral oracle: a = c id maps the cosine mode to itself scaled by
        # 1/(alpha + c mu) with mu the lattice symbol at that mode
        box = BoxSpec(2, 16)
        c, alpha = 0.5, 0.3
        a = CoefficientField.constant(box, c, lam=0.25)
        coords = box.coordinate_arrays()
        mode = ScalarField(box, np.cos(2 * np.pi * coords[:, 0] / box.L))
        mu = c * 4.0 * np.sin(np.pi / box.L) ** 2
        u, _ = solve_shifted(a, alpha, mode, SolverConfig(tol=1e-12))
        assert np.max(np.abs(u.values - mode.values / (alpha + mu))) < 1e-9

    def test_energy_identity(self, rng):
        box = BoxSpec(2, 8)
        a = random_coefficients(box, rng)
        f = ScalarField(box, rng.normal(size=box.n_sites))
        alpha = 0.2
        u, _ = solve_shifted(a, alpha, f, SolverConfig(tol=1e-12))
        g = grad(u).values
        lhs = alpha * float(np.sum(u.values**2)) + float(np.sum(g * (a.diag * g)))
        rhs = inner(f, u)
        assert abs(lhs - rhs) <= 1e-9 * (abs(lhs) + abs(rhs) + 1.0)

    def test_alpha_must_be_positive(self, rng):
        box = BoxSpec(2, 4)
        a = random_coefficients(box, rng)
        with pytest.raises(ValueError):
            solve_shifted(a, 0.0, ScalarField.zeros(box))


class TestSolveHomogenized:
    def test_eigenmode_exact(self):
        box = BoxSpec(2, 16)
        A = np.array([[0.5, 0.05], [0.05, 0.4]])
        coords = box.coordinate_arrays()
        mode_k = (2, 3)
        phase = 2 * np.pi * (coords @ np.array(mode_k)) / box.L
        f = ScalarField(box, np.cos(phase))
        alpha = 0.1
        u = solve_homogenized(A, alpha, f)
        # oracle: symbol value from the definition, complex edge factors
        m = np.exp(2j * np.pi * np.array(mode_k) / box.L) - 1.0
        s = float((np.conj(m) @ A @ m).real)
        assert np.max(np.abs(u.values - f.values / (alpha + s))) < 1e-12

    def test_residual_of_operator_form(self, rng):
        box = BoxSpec(2, 8)
        A = np.array([[0.6, 0.1], [0.1, 0.5]])
        f = ScalarField(box, rng.normal(size=box.n_sites))
        alpha = 0.25
        u = solve_homogenized(A, alpha, f)
        resid = alpha * u.values + apply_constant(A, u).values - f.values
        assert np.max(np.abs(resid)) < 1e-10

    def test_indefinite_matrix_rejected(self):
        box = BoxSpec(2, 4)
        with pytest.raises(ValueError):
            solve_homogenized(np.array([[1.0, 0.0], [0.0, -0.1]]), 0.1,
                              ScalarField.zeros(box))


class TestRemainder:
    def test_zero_when_expansion_is_exact(self, rng):
        box = BoxSpec(2, 8)
        u0 = ScalarField(box, rng.normal(size=box.n_sites))
        phis = [ScalarField(box, rng.normal(size=box.n_sites)) for _ in range(2)]
        g0 = grad(u0).values
        u_vals = u0.values + sum(phis[i].values * g0[:, i] for i in range(2))
        Z = remainder(ScalarField(box, u_vals), u0, phis)
        assert np.max(np.abs(Z.values)) < 1e-13

    def test_matches_naive_loop_oracle(self, rng):
        box = BoxSpec(2, 5)
        u = ScalarField(box, rng.normal(size=box.n_sites))
        u0 = ScalarField(box, rng.normal(size=box.n_sites))
        phis = [ScalarField(box, rng.normal(size=box.n_sites)) for _ in range(2)]
        Z = remainder(u, u0, phis)
        for idx, x in enumerate(box.coordinate_arrays().tolist()):
            acc = u.values[idx] - u0.values[idx]
            for i in range(2):
                xp = x.copy()
                xp[i] = (xp[i] + 1) % box.L
                du0 = u0.values[box.index_of(xp)] - u0.values[idx]
                acc -= phis[i].values[idx] * du0
            assert Z.values[idx] == pytest.approx(acc, abs=1e-14)

    def test_wrong_corrector_count_rejected(self, rng):
        box = BoxSpec(2, 4)
        u = ScalarField.zeros(box)
        with pytest.raises(ValueError):
            remainder(u, u, [u])


class TestGrowthWeight:
    def test_d3_is_one(self):
        assert growth_weight([5, 2, 7], 3) == 1.0

    def test_d2_at_origin(self):
        assert growth_weight([0, 0], 2) == pytest.approx(np.log(2.0))

    def test_d2_monotone_in_radius(self):
        vals = [growth_weight([r, 0], 2) for r in range(6)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestExperiment:
    def test_constant_ensemble_gives_zero_lhs(self):
        reports = two_scale_experiment(constant(0.5, master_seed=3), BoxSpec(2, 8),
                                       0.1, 2, cfg=CFG)
        for r in reports:
            assert r.lhs < 1e-18

    def test_deterministic_in_seed(self):
        spec = two_point(master_seed=42)
        r1 = two_scale_experiment(spec, BoxSpec(2, 8), 0.1, 3, cfg=CFG)
        r2 = two_scale_experiment(spec, BoxSpec(2, 8), 0.1, 3, cfg=CFG)
        assert [a.lhs for a in r1] == [a.lhs for a in r2]
        assert [a.ratio for a in r1] == [a.ratio for a in r2]

    def test_ratios_finite_and_positive(self):
        spec = two_point(master_seed=8)
        reports = two_scale_experiment(spec, BoxSpec(2, 16), 0.1, 5, cfg=CFG)
        for r in reports:
            assert np.isfinite(r.ratio) and r.ratio > 0.0
            assert r.lhs > 0 and r.rhs_phi > 0 and r.rhs_sigma > 0

    def test_small_alpha_suppresses_the_phi_term(self):
        spec = two_point(master_seed=8)
        box = BoxSpec(2, 16)
        a = sample(spec, box, SampleId(0))
        sets = [corrector_set(a, i, CFG) for i in range(2)]
        big = two_scale_report(a, 1.0, default_forcing(box), cfg=CFG, sets=sets)
        tiny = two_scale_report(a, 1e-6, default_forcing(box), cfg=CFG, sets=sets)
        assert tiny.rhs_phi / tiny.rhs_sigma < 1e-4
        assert big.rhs_phi / big.rhs_sigma > tiny.rhs_phi / tiny.rhs_sigma
