import functools
import json
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from homoglab.elliptic import _report_dense, cg_solve, collecting_reports
from homoglab.lattice import BoxSpec, ScalarField
from homoglab.quant import BoxAverageEntry
from homoglab.ensembles import (
    EnsembleError,
    EnsembleSpec,
    SampleId,
    constant,
    per_block,
    per_sample,
    sample,
    site_variants,
    spatial_average_observable,
    two_point,
    uniform,
)


class TestValidation:
    def test_alpha_at_or_below_lambda_rejected(self):
        with pytest.raises(EnsembleError):
            two_point(alpha=0.2, beta=0.75, lam=0.2)

    def test_beta_at_or_above_one_rejected(self):
        with pytest.raises(EnsembleError):
            two_point(alpha=0.25, beta=1.0)

    def test_alpha_above_beta_rejected(self):
        with pytest.raises(EnsembleError):
            two_point(alpha=0.7, beta=0.3)

    def test_unknown_kind_rejected(self):
        with pytest.raises(EnsembleError):
            EnsembleSpec("gaussian", {}, 0.2, 0)

    def test_negative_kernel_radius_rejected(self):
        with pytest.raises(EnsembleError):
            EnsembleSpec("correlated-two-point",
                         {"alpha": 0.25, "beta": 0.75, "radius": -1}, 0.2, 0)

    def test_uniform_bounds_validated(self):
        with pytest.raises(EnsembleError):
            uniform(low=0.1, high=0.75, lam=0.2)


class TestSampling:
    def test_constant_kind(self):
        spec = constant(0.5)
        a = sample(spec, BoxSpec(2, 4), SampleId(0))
        assert np.all(a.diag == 0.5)

    def test_deterministic_given_seed_and_index(self):
        spec = two_point(master_seed=123)
        box = BoxSpec(2, 8)
        a1 = sample(spec, box, SampleId(3))
        a2 = sample(spec, box, SampleId(3))
        assert np.array_equal(a1.diag, a2.diag)

    def test_distinct_indices_give_distinct_fields(self):
        spec = two_point(master_seed=123)
        box = BoxSpec(2, 8)
        a1 = sample(spec, box, SampleId(0))
        a2 = sample(spec, box, SampleId(1))
        assert not np.array_equal(a1.diag, a2.diag)

    def test_two_point_mean_matches_law_of_large_numbers(self):
        # one-sample LLN oracle: 10^6 iid sites, mean within 3 standard errors
        spec = two_point(alpha=0.25, beta=0.75, master_seed=7)
        box = BoxSpec(3, 100)
        a = sample(spec, box, SampleId(0))
        m = a.diag[:, 0].mean()
        stderr = 0.25 / np.sqrt(box.n_sites)
        assert abs(m - 0.5) < 3 * stderr

    def test_entries_strictly_inside_bounds(self):
        for spec in (two_point(master_seed=1), uniform(master_seed=1),
                     EnsembleSpec("correlated-two-point",
                                  {"alpha": 0.25, "beta": 0.75, "radius": 1}, 0.2, 1)):
            a = sample(spec, BoxSpec(2, 16), SampleId(0))
            assert a.diag.min() > 0.2 and a.diag.max() < 1.0

    def test_correlated_point_mass_reproduces_iid_bitwise(self):
        box = BoxSpec(2, 16)
        iid = two_point(master_seed=99)
        corr = EnsembleSpec("correlated-two-point",
                            {"alpha": 0.25, "beta": 0.75, "radius": 0}, 0.2, 99)
        a = sample(iid, box, SampleId(5))
        b = sample(corr, box, SampleId(5))
        assert np.array_equal(a.diag, b.diag)

    def test_correlated_smoothing_reduces_marginal_variance(self):
        box = BoxSpec(2, 32)
        corr = EnsembleSpec("correlated-two-point",
                            {"alpha": 0.25, "beta": 0.75, "radius": 1}, 0.2, 4)
        a = sample(corr, box, SampleId(0))
        iid_sd = 0.25
        assert a.diag[:, 0].std() < 0.8 * iid_sd

    def test_periodic_tile_reproduces_unit_cell(self):
        # oracle: the tile site of every box site, one index_of call per site
        cases = [(2, 2, 4), (1, 4, 8), (3, 2, 6), (2, 1, 4), (3, 1, 2), (1, 2, 2)]
        rng = np.random.default_rng(0)
        for d, tile_L, L in cases:
            cell_box = BoxSpec(d, max(tile_L, 2))
            cell = rng.uniform(0.25, 0.95, size=(tile_L**d, d))
            spec = EnsembleSpec("periodic-tile", {"unit_cell": cell.tolist()}, 0.2, 0)
            box = BoxSpec(d, L)
            a = sample(spec, box, SampleId(0))
            expected = np.array([cell[cell_box.index_of(np.array(x) % tile_L)]
                                 for x in box.coordinate_arrays()])
            assert np.array_equal(a.diag, expected), (d, tile_L, L)


class TestStationarity:
    def test_shift_then_statistics_equals_statistics_then_shift(self):
        # per-site mean over 500 samples compared between a site and its shift
        spec = two_point(master_seed=31)
        box = BoxSpec(2, 6)
        vals_origin, vals_shifted = [], []
        target = box.index_of((2, 3))
        for i in range(500):
            a = sample(spec, box, SampleId(i))
            vals_origin.append(a.diag[0, 0])
            vals_shifted.append(a.diag[target, 0])
        vals_origin, vals_shifted = np.array(vals_origin), np.array(vals_shifted)
        se = np.hypot(vals_origin.std(ddof=1), vals_shifted.std(ddof=1)) / np.sqrt(500)
        assert abs(vals_origin.mean() - vals_shifted.mean()) < 3 * se


class TestSiteVariants:
    def test_variant_count_is_two_to_the_d(self):
        spec = two_point(master_seed=0)
        a = sample(spec, BoxSpec(2, 4), SampleId(0))
        assert len(site_variants(spec, a, 5)) == 4

    def test_variants_differ_only_at_site(self):
        spec = two_point(master_seed=0)
        a = sample(spec, BoxSpec(2, 4), SampleId(0))
        for v in site_variants(spec, a, 5):
            mask = np.ones(a.box.n_sites, dtype=bool)
            mask[5] = False
            assert np.array_equal(v.diag[mask], a.diag[mask])

    def test_observable_range_over_variants(self):
        spec = two_point(alpha=0.25, beta=0.75, master_seed=0)
        a = sample(spec, BoxSpec(2, 4), SampleId(0))
        vals = [v.diag[5, 0] for v in site_variants(spec, a, 5)]
        assert max(vals) - min(vals) == pytest.approx(0.5)

    def test_continuous_law_rejected(self):
        spec = uniform(master_seed=0)
        a = sample(spec, BoxSpec(2, 4), SampleId(0))
        with pytest.raises(EnsembleError):
            site_variants(spec, a, 0)


class TestSpatialAverage:
    def test_constant_field_any_R(self):
        a = sample(constant(0.5), BoxSpec(2, 8), SampleId(0))
        for R in (1, 3, 8):
            assert spatial_average_observable(a, R) == pytest.approx(0.5)

    def test_full_box_equals_global_mean(self):
        spec = two_point(master_seed=2)
        a = sample(spec, BoxSpec(2, 8), SampleId(0))
        assert spatial_average_observable(a, 8) == pytest.approx(a.diag[:, 0].mean())

    @pytest.mark.parametrize("d,L", [(1, 9), (2, 8), (2, 7), (3, 5)])
    def test_matches_centered_grid_slice(self, d, L):
        # the grid-slice form is the reference: rows and columns lo..lo+R-1
        # of every axis, lo = (L - R) // 2, averaged in the grid's memory order
        box = BoxSpec(d, L)
        a = sample(uniform(master_seed=6), box, SampleId(0))
        for R in range(1, L + 1):
            lo = (L - R) // 2
            for comp in range(d):
                window = a.grid(comp)[(slice(lo, lo + R),) * d]
                assert spatial_average_observable(a, R, comp) == float(np.mean(window))
                assert BoxAverageEntry(R, comp)(a) == float(np.mean(window))

    def test_R_larger_than_box_rejected(self):
        a = sample(constant(0.5), BoxSpec(2, 8), SampleId(0))
        with pytest.raises(ValueError):
            spatial_average_observable(a, 9)

    def test_clt_rate_of_sub_box_averages(self):
        # CLT oracle: RMS error of R-box averages decays like R^{-d/2}
        spec = two_point(master_seed=17)
        box = BoxSpec(2, 32)
        R_list = [4, 8, 16, 32]
        sq = np.zeros(len(R_list))
        n = 200
        for i in range(n):
            a = sample(spec, box, SampleId(i))
            for k, R in enumerate(R_list):
                sq[k] += (spatial_average_observable(a, R) - 0.5) ** 2
        rms = np.sqrt(sq / n)
        slope = np.polyfit(np.log(R_list), np.log(rms), 1)[0]
        assert abs(slope - (-1.0)) < 0.15


class TestJsonRoundTrip:
    def test_spec_serializes(self, tmp_path):
        spec = two_point(alpha=0.3, beta=0.6, lam=0.25, master_seed=11)
        path = tmp_path / "spec.json"
        spec.save(path)
        loaded = EnsembleSpec.load(path)
        assert loaded == spec

    def test_json_schema_fields(self):
        obj = two_point(master_seed=5).to_json()
        assert set(obj) == {"kind", "params", "lambda", "master_seed"}
        json.dumps(obj)  # serializable


class TestPerSample:
    def test_results_in_sample_order(self):
        spec, box = two_point(master_seed=4), BoxSpec(2, 4)
        with ThreadPoolExecutor(3) as pool:
            got = per_sample(spec, box, 9, lambda a, i: (i, a.diag.copy()), pool.map)
        assert [i for i, _ in got] == list(range(9))
        for i, diag in got:
            assert np.array_equal(diag, sample(spec, box, SampleId(i)).diag)

    def test_runs_are_consecutive_ids_and_results_come_back_in_order(self):
        spec, box = two_point(master_seed=4), BoxSpec(2, 4)

        def fn(fields, ids):
            assert all(np.array_equal(a.diag, sample(spec, box, SampleId(i)).diag)
                       for a, i in zip(fields, ids))
            return [(ids.start, i) for i in ids]

        with ThreadPoolExecutor(3) as pool:
            got = per_block(spec, box, 10, fn, pool.map, 4)
        assert got == [(0, 0), (0, 1), (0, 2), (0, 3), (4, 4), (4, 5), (4, 6), (4, 7),
                       (8, 8), (8, 9)]

    def test_report_scope_counts_every_solve_under_contention(self):
        # more workers than cores and a short switch interval: a lost update
        # in the collector or a worker outside the scope shows as a short count
        box = BoxSpec(1, 4)
        zero = ScalarField.zeros(box)

        def solves(a, i):
            for _ in range(5):
                cg_solve(lambda u: u, zero)
                _report_dense(3)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with collecting_reports() as outer, ThreadPoolExecutor(8) as pool:
                with collecting_reports() as inner:
                    per_sample(two_point(), box, 400, solves,
                               functools.partial(pool.map, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert inner.n_solves == outer.n_solves == 2000
        assert inner.dense_solves == outer.dense_solves == 6000
