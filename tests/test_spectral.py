import re

import numpy as np
import pytest

from homoglab.correctors import corrector_set
from homoglab.elliptic import SolverConfig, collecting_reports, heat_kernel
from homoglab.ensembles import SampleId, sample, two_point
from homoglab.lattice import BoxSpec, ParameterError, ScalarField
from homoglab.spectral import inverse, smooth, symbol

from conftest import apply_constant

MATRICES = {
    1: np.array([[0.7]]),
    2: np.array([[0.6, 0.2], [0.2, 0.4]]),
    3: np.array([[0.8, 0.1, -0.2], [0.1, 0.5, 0.15], [-0.2, 0.15, 0.7]]),
}
BOXES = [BoxSpec(1, 16), BoxSpec(2, 8), BoxSpec(3, 6)]


def symbol_by_definition(box: BoxSpec, A: np.ndarray) -> np.ndarray:
    """conj(m)^T A m with m_i(k) = exp(2 pi i k_i / L) - 1, mode by mode."""
    out = np.zeros(box.shape)
    for k in np.ndindex(*box.shape):
        m = np.exp(2j * np.pi * np.array(k) / box.L) - 1.0
        out[k] = (np.conj(m) @ A @ m).real
    return out


def test_symbol_rejects_a_matrix_of_another_dimension():
    with pytest.raises(ParameterError, match=re.escape("matrix shape (3, 3) does not match "
                                                       "dimension 2")):
        symbol(BoxSpec(2, 4), np.eye(3))


@pytest.mark.parametrize("box", BOXES, ids=lambda b: f"d{b.d}")
class TestSpectral:
    def test_symbol_matches_definition(self, box):
        A = MATRICES[box.d]
        assert np.max(np.abs(symbol(box, A) - symbol_by_definition(box, A))) < 1e-13
        assert np.max(np.abs(symbol(box) - symbol_by_definition(box, np.eye(box.d)))) < 1e-13

    @pytest.mark.parametrize("shift", [0.0, 0.3])
    def test_inverse_residual(self, box, shift, rng):
        A = MATRICES[box.d]
        f = rng.normal(size=box.n_sites)
        if shift == 0.0:
            f -= f.mean()
        u = ScalarField.from_grid(box, inverse(box, shift, A)(ScalarField(box, f).grid()))
        residual = shift * u.values + apply_constant(A, u).values - f
        assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(f)
        if shift == 0.0:
            assert abs(u.values.mean()) < 1e-14

    def test_float32_inverse_returns_float64_grid_at_single_precision(self, box, rng):
        A = MATRICES[box.d]
        g = ScalarField(box, rng.normal(size=box.n_sites)).grid()
        exact = inverse(box, 0.3, A)(g)
        approx = inverse(box, 0.3, A, np.float32)(g)
        assert approx.dtype == np.float64 and approx.flags.f_contiguous
        err = np.max(np.abs(approx - exact)) / np.max(np.abs(exact))
        assert 0.0 < err < 1e-5

    def test_smooth_of_delta_is_heat_kernel(self, box):
        delta = ScalarField.delta(box).grid()
        for t in (0.0, 0.5, 3.0):
            assert np.max(np.abs(smooth(delta, t) - heat_kernel(t, box).grid())) < 1e-15


def test_flux_corrector_reports_are_direct_solves():
    cfg = SolverConfig(tol=1e-10)
    for box in (BoxSpec(2, 16), BoxSpec(3, 6)):
        a = sample(two_point(master_seed=8), box, SampleId(0))
        with collecting_reports() as collector:
            cs = corrector_set(a, 0, cfg)
        assert len(collector.reports) == 1  # the CG corrector solve only
        flux_reports = cs.reports[1:]
        assert len(flux_reports) == box.d * (box.d - 1) // 2
        for rep in flux_reports:
            assert rep.iterations == 0 and rep.converged
            assert rep.final_relative_residual <= cfg.tol
