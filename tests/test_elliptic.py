import dataclasses

import numpy as np
import pytest
import scipy.special

from homoglab.lattice import (
    BoxSpec,
    CoefficientField,
    ParameterError,
    ScalarField,
    VectorField,
    apply_elliptic,
    div_star,
    grad,
    torus_coordinates,
)
from homoglab import elliptic
from homoglab.elliptic import (
    MIN_TOL,
    ReportCollector,
    SolveReport,
    SolverConfig,
    SolverError,
    _elliptic_op,
    cg_solve,
    elliptic_matrix,
    green,
    heat_kernel,
    solve_elliptic,
    solve_shifted,
)
from homoglab.spectral import inverse, symbol

from conftest import (apply_constant, heat_kernel_diagonal, ill_conditioned_op, operator_matrix,
                      random_coefficients)


def green_fft_oracle(box: BoxSpec, scale: float = 1.0) -> np.ndarray:
    """Spectral-sum oracle for the mean-zero periodic Green's function of
    scale * div* grad; exact up to FFT rounding, independent of CG."""
    sym = scale * symbol(box)
    zero = (0,) * box.d
    rhs = -np.ones(box.shape) / box.n_sites
    rhs[zero] += 1.0
    rh = np.fft.fftn(rhs)
    sym = sym.copy()
    sym[zero] = 1.0
    gh = rh / sym
    gh[zero] = 0.0
    g = np.fft.ifftn(gh).real
    return (g - g.mean()).ravel(order="F")


def laplacian_grid_op(box: BoxSpec):
    """div* grad on grid arrays, through the constant-matrix stencil."""
    eye = np.eye(box.d)
    return lambda u: apply_constant(eye, ScalarField.from_grid(box, u)).grid()


class TestCG:
    def test_zero_rhs_returns_zero_in_zero_iterations(self):
        box = BoxSpec(2, 4)
        u, rep = cg_solve(laplacian_grid_op(box), ScalarField.zeros(box))
        assert np.all(u.values == 0.0)
        assert rep.iterations == 0 and rep.converged

    def test_matches_dense_lu_oracle_d1(self, rng):
        # 8-site chain with random coefficients against a pinned dense solve
        box = BoxSpec(1, 8)
        a = random_coefficients(box, rng)
        rhs_vals = rng.normal(size=box.n_sites)
        rhs_vals -= rhs_vals.mean()
        rhs = ScalarField(box, rhs_vals)
        u, rep = solve_elliptic(a, rhs)
        assert rep.converged
        A = operator_matrix(lambda v: apply_elliptic(a, v), box)
        dense = np.zeros(box.n_sites)
        dense[1:] = np.linalg.solve(A[1:, 1:], rhs_vals[1:])
        dense -= dense.mean()
        assert np.max(np.abs(u.values - dense)) < 1e-8

    def test_laplacian_point_source_16squared(self):
        box = BoxSpec(2, 16)
        rhs = np.full(box.n_sites, -1.0 / box.n_sites)
        rhs[0] += 1.0
        u, rep = cg_solve(laplacian_grid_op(box), ScalarField(box, rhs))
        assert rep.converged and rep.final_relative_residual <= 1e-10

    def test_nonconvergence_flagged_not_raised(self, rng, monkeypatch):
        box = BoxSpec(2, 16)
        a = random_coefficients(box, rng)
        rhs = ScalarField(box, rng.normal(size=box.n_sites))
        # CG runs to its cap of 50 iterations per site
        u, rep = cg_solve(ill_conditioned_op(box), rhs)
        assert not rep.converged and rep.iterations == 50 * box.n_sites
        monkeypatch.setattr(elliptic, "_elliptic_op", lambda a, shift: ill_conditioned_op(a.box))
        with pytest.raises(SolverError, match="solve_elliptic: not converged after 12800"):
            solve_elliptic(a, rhs)

    def test_tol_below_the_floor_or_a_bool_is_rejected(self):
        assert SolverConfig(tol=MIN_TOL).tol == 1e-13
        for tol in (1e-14, 1e-300, True, False):
            with pytest.raises(ParameterError, match=r"tol must be a number in \[1e-13, inf\)"):
                SolverConfig(tol=tol)

    def test_the_solver_settings_are_tol_and_preconditioner(self):
        # the iteration cap is a constant, not a setting
        assert [f.name for f in dataclasses.fields(SolverConfig)] == ["tol", "preconditioner"]
        with pytest.raises(TypeError):
            SolverConfig(max_iter=2)

    @pytest.mark.parametrize("shift", [1e40, 1e100])
    def test_breakdown_is_a_solver_error(self, shift, rng):
        # the float32 preconditioner rounds 1/(shift + symbol) to 0, so p^T A p = 0;
        # plain CG converges at once on this nearly diagonal operator
        box = BoxSpec(2, 8)
        a = random_coefficients(box, rng)
        rhs = ScalarField(box, rng.normal(size=box.n_sites))
        with pytest.raises(SolverError, match="CG breakdown") as info:
            solve_shifted(a, shift, rhs)
        assert not info.value.report.converged
        _, rep = solve_shifted(a, shift, rhs, SolverConfig(preconditioner="none"))
        assert rep.converged

    def test_spectral_preconditioner_changes_nothing_beyond_tol(self, rng):
        box = BoxSpec(2, 12)
        a = random_coefficients(box, rng)
        rhs = ScalarField(box, rng.normal(size=box.n_sites))
        plain, _ = solve_elliptic(a, rhs, SolverConfig(tol=1e-12, preconditioner="none"))
        pre, rep = solve_elliptic(a, rhs, SolverConfig(tol=1e-12, preconditioner="spectral"))
        assert np.max(np.abs(plain.values - pre.values)) < 1e-9
        assert rep.iterations < 60

    @pytest.mark.parametrize("tol", [1e-10, 1e-12])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("box", [BoxSpec(2, 16), BoxSpec(3, 8)], ids=lambda b: f"d{b.d}")
    def test_float32_preconditioner_keeps_iteration_counts(self, box, seed, tol):
        a = random_coefficients(box, np.random.default_rng(seed))
        rhs = ScalarField(box, np.random.default_rng(100 + seed).normal(size=box.n_sites))
        A = float(a.diag.mean()) * np.eye(box.d)
        cfg = SolverConfig(tol=tol)
        op = _elliptic_op(a)
        u64, rep64 = cg_solve(op, rhs, cfg, precond=inverse(box, 0.0, A))
        u32, rep32 = cg_solve(op, rhs, cfg, precond=inverse(box, 0.0, A, np.float32))
        assert rep32.converged and rep64.converged
        assert rep32.iterations == rep64.iterations
        assert np.max(np.abs(u32.values - u64.values)) < 1e3 * tol * np.max(np.abs(u64.values))

    def test_dense_assembly_matches_operator_action(self, rng):
        box = BoxSpec(2, 4)
        a = random_coefficients(box, rng)
        direct = elliptic_matrix(a)
        via_action = operator_matrix(lambda v: apply_elliptic(a, v), box)
        assert np.max(np.abs(direct - via_action)) < 1e-13


def solve_massive(a, T, F, cfg=SolverConfig()):
    """Solve (1/T) u + div*(a grad u) = div* F."""
    return solve_shifted(a, 1.0 / T, div_star(F), cfg)


class TestReportCollector:
    REPORTS = [SolveReport(3, 1e-11, True), SolveReport(7, 5e-12, True),
               SolveReport(0, 0.0, True, 0.5), SolveReport(2, 0.25, False)]

    @pytest.mark.parametrize("order", [1, -1], ids=["in-order", "reversed"])
    def test_summary_reduces_the_kept_reports(self, order):
        collector = ReportCollector()
        for rep in self.REPORTS[::order]:
            collector.add(rep)
        assert collector.reports == self.REPORTS[::order]
        assert collector.summary() == {"n_solves": 4, "total_iterations": 12,
                                       "max_iterations": 7,
                                       "max_final_relative_residual": 0.25,
                                       "all_converged": False}

    def test_empty_summary(self):
        summary = ReportCollector().summary()
        assert list(summary.values()) == [0, 0, 0, 0.0, True]
        assert type(summary["max_final_relative_residual"]) is float


class TestMassive:
    def test_zero_forcing(self, rng):
        box = BoxSpec(2, 8)
        a = random_coefficients(box, rng)
        u, rep = solve_massive(a, 10.0, VectorField(box, np.zeros((box.n_sites, box.d))))
        assert np.all(u.values == 0.0)

    def test_constant_vector_field_has_zero_divergence(self, rng):
        box = BoxSpec(2, 8)
        a = CoefficientField.constant(box, 0.5, lam=0.25)
        F = VectorField(box, np.tile([1.5, -0.25], (box.n_sites, 1)))
        u, _ = solve_massive(a, 5.0, F)
        assert np.all(u.values == 0.0)

    def test_energy_identity_and_apriori_bound(self, rng):
        # tests the equation with its own solution on 10 random instances
        box = BoxSpec(2, 8)
        lam = 0.2
        for k in range(10):
            a = random_coefficients(box, rng, lam=lam)
            T = float(rng.uniform(0.5, 50.0))
            F = VectorField(box, rng.normal(size=(box.n_sites, box.d)))
            u, _ = solve_massive(a, T, F, SolverConfig(tol=1e-12))
            g = grad(u).values
            kinetic = float(np.sum(u.values**2)) / T
            elastic = float(np.sum(g * (a.diag * g)))
            pairing = float(np.sum(F.values * g))
            scale = abs(kinetic) + abs(elastic) + abs(pairing) + 1.0
            assert abs(kinetic + elastic - pairing) < 1e-9 * scale
            f_norm2 = float(np.sum(F.values**2))
            assert kinetic + 0.5 * lam * float(np.sum(g**2)) <= (2.0 / lam) * f_norm2


class TestGreen:
    def test_1d_closed_form_piecewise_quadratic(self):
        # exact periodic Green's function of c * (second difference) on a circle
        L, c = 16, 0.5
        box = BoxSpec(1, L)
        a = CoefficientField.constant(box, c, lam=0.25)
        G, rep = green(a, 0, SolverConfig(tol=1e-12))
        x = torus_coordinates(box)[:, 0]
        oracle = (x**2 / (2 * L) - np.abs(x) / 2) / c
        oracle -= oracle.mean()
        assert np.max(np.abs(G.values - oracle)) < 1e-9

    def test_translation_covariance_for_constant_coefficients(self):
        box = BoxSpec(2, 8)
        a = CoefficientField.constant(box, 0.5, lam=0.25)
        y = box.index_of((3, 5))
        G0, _ = green(a, 0)
        Gy, _ = green(a, y)
        for idx, xx in enumerate(box.coordinate_arrays().tolist()):
            shifted = box.index_of(((xx[0] + 3) % 8, (xx[1] + 5) % 8))
            assert Gy.values[shifted] == pytest.approx(G0.values[idx], abs=1e-8)

    def test_symmetry_in_source_and_observation(self, rng):
        box = BoxSpec(2, 6)
        a = random_coefficients(box, rng)
        y = box.index_of((2, 4))
        G0, _ = green(a, 0, SolverConfig(tol=1e-12))
        Gy, _ = green(a, y, SolverConfig(tol=1e-12))
        assert G0.values[y] == pytest.approx(Gy.values[0], abs=1e-10)

    def test_d3_center_value_against_spectral_sum_oracle(self):
        # lattice Green's function of Z^3 at the origin is ~0.2527; the
        # periodized version reproduces it as G(0) minus the far-field level
        box = BoxSpec(3, 64)
        c = 0.5
        a = CoefficientField.constant(box, c, lam=0.25)
        cfg = SolverConfig(tol=1e-9)
        G, _ = green(a, 0, cfg)
        oracle = green_fft_oracle(box, scale=c)
        assert np.max(np.abs(G.values - oracle)) < 1e-5
        corner = box.index_of((32, 32, 32))
        centered = c * (G.values[0] - G.values[corner])  # rescale to unit coefficients
        assert abs(centered - 0.2527) < 2e-2


class TestHeatKernel:
    def test_t_zero_is_delta(self):
        box = BoxSpec(2, 8)
        p = heat_kernel(0.0, box)
        expected = np.zeros(box.n_sites)
        expected[0] = 1.0
        assert np.max(np.abs(p.values - expected)) < 1e-14

    def test_negative_t_rejected(self):
        with pytest.raises(ParameterError, match="t must be >= 0"):
            heat_kernel(-0.5, BoxSpec(2, 8))

    def test_d1_value_matches_bessel_series_oracle(self):
        # continuous-time walk on Z: p(t, x) = exp(-2t) I_x(2t)
        box = BoxSpec(1, 64)
        p = heat_kernel(1.0, box)
        oracle = np.exp(-2.0) * scipy.special.iv(0, 2.0)
        assert abs(p.values[0] - oracle) < 1e-6
        assert abs(p.values[3] - np.exp(-2.0) * scipy.special.iv(3, 2.0)) < 1e-6

    def test_nonnegative_unit_mass(self):
        for box in (BoxSpec(1, 32), BoxSpec(2, 16), BoxSpec(3, 8)):
            for t in (0.5, 2.0, 7.0):
                p = heat_kernel(t, box)
                assert p.values.min() >= 0.0
                assert abs(p.values.sum() - 1.0) < 1e-12

    def test_semigroup_identity(self):
        box = BoxSpec(2, 32)
        for t in (0.5, 1.0, 4.0):
            p = heat_kernel(t, box)
            lhs = float(np.sum(p.values**2))
            rhs = heat_kernel(2 * t, box).values[0]
            assert abs(lhs - rhs) < 1e-12

    def test_on_diagonal_decay_uniformly_bounded(self):
        # p(2t,0) (t+1)^{d/2} bounded over the wrap-valid t range
        for d, L, tmax in ((1, 512, 1000.0), (2, 256, 1000.0), (3, 64, 64.0)):
            box = BoxSpec(d, L)
            ts = np.geomspace(1.0, tmax, 12)
            vals = [heat_kernel_diagonal(2 * t, box) * (t + 1) ** (d / 2) for t in ts]
            assert max(vals) < 1.0  # comfortably uniform for the discrete walk
