import functools
import hashlib
import itertools
import json
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from homoglab import ensembles
from homoglab.elliptic import _report_dense, cg_solve, collecting_reports
from homoglab.lattice import BoxSpec, ParameterError, ScalarField
from homoglab.quant import BoxAverageEntry
from homoglab.ensembles import (
    EnsembleSpec,
    SampleId,
    _mean_stderr,
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
        with pytest.raises(ParameterError, match=re.escape(
                "two-point values must satisfy 0.2 < alpha <= beta < 1; "
                "got alpha=0.2, beta=0.75")):
            two_point(alpha=0.2, beta=0.75, lam=0.2)

    def test_beta_at_or_above_one_rejected(self):
        with pytest.raises(ParameterError, match=re.escape(
                "two-point values must satisfy 0.2 < alpha <= beta < 1; "
                "got alpha=0.25, beta=1.0")):
            two_point(alpha=0.25, beta=1.0)

    def test_alpha_above_beta_rejected(self):
        with pytest.raises(ParameterError, match=re.escape(
                "two-point values must satisfy 0.2 < alpha <= beta < 1; "
                "got alpha=0.7, beta=0.3")):
            two_point(alpha=0.7, beta=0.3)

    @pytest.mark.parametrize("make", [
        lambda: two_point(master_seed=-1), lambda: constant(0.5, master_seed=-1),
        lambda: EnsembleSpec("iid-uniform", {"low": 0.3, "high": 0.9}, 0.2, -5),
    ], ids=["two-point", "constant", "uniform"])
    def test_negative_master_seed_rejected(self, make):
        with pytest.raises(ParameterError, match="master_seed must be a non-negative integer"):
            make()

    @pytest.mark.parametrize("make,message", [
        (lambda: two_point(lam=1.0), "lambda=1.0 must be in (0,1)"),
        (lambda: EnsembleSpec("periodic-tile", {"unit_cell": [0.5, 0.5]}, 0.2, 0),
         "unit_cell must be a (tile sites, d) table"),
        (lambda: sample(EnsembleSpec("periodic-tile", {"unit_cell": [[0.5, 0.5]] * 4}, 0.2, 0),
                        BoxSpec(2, 5), SampleId(0)), "box L=5 not divisible by tile L=2"),
        # a param the kind does not read, such as a kernel radius on the iid kind, was ignored
        (lambda: EnsembleSpec("iid-two-point", {"alpha": 0.25, "beta": 0.75, "radius": 3},
                              0.2, 0), "unknown key 'radius'"),
        (lambda: EnsembleSpec("constant", {"value": 0.5, "low": 0.3}, 0.2, 0),
         "unknown key 'low'"),
        (lambda: EnsembleSpec("iid-uniform", {"low": 0.3, "high": 0.9, "hgih": 0.8}, 0.2, 0),
         "unknown key 'hgih'"),
        (lambda: EnsembleSpec("periodic-tile", {"unit_cell": [[0.5]], "alpha": 0.3}, 0.2, 0),
         "unknown key 'alpha'"),
    ], ids=["lambda", "unit-cell-row", "tile-does-not-divide-L", "two-point-radius",
            "constant-low", "uniform-typo", "tile-alpha"])
    def test_bad_law_or_box_rejected(self, make, message):
        with pytest.raises(ParameterError, match=re.escape(message)):
            make()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError, match="unknown ensemble kind 'gaussian'"):
            EnsembleSpec("gaussian", {}, 0.2, 0)

    def test_negative_kernel_radius_rejected(self):
        with pytest.raises(ParameterError, match="kernel radius must be >= 0"):
            EnsembleSpec("correlated-two-point",
                         {"alpha": 0.25, "beta": 0.75, "radius": -1}, 0.2, 0)

    @pytest.mark.parametrize("kernel", [
        {"radius": 1.7}, {"radius": "1"}, {"radius": True},
        {"decay": -50}, {"decay": float("inf")}, {"decay": float("nan")}, {"decay": True},
    ], ids=["radius-float", "radius-string", "radius-bool", "decay-negative", "decay-inf",
            "decay-nan", "decay-bool"])
    def test_bad_kernel_rejected(self, kernel):
        # a fractional radius used to truncate, and a negative decay grew with distance
        with pytest.raises(ParameterError):
            EnsembleSpec("correlated-two-point",
                         {"alpha": 0.25, "beta": 0.75, **kernel}, 0.2, 0)

    @pytest.mark.parametrize("kernel", [{"radius": 0}, {"decay": 0}, {"decay": 0.0, "radius": 2}],
                             ids=["point-mass", "flat", "flat-radius-2"])
    def test_kernel_edges_accepted(self, kernel):
        spec = EnsembleSpec("correlated-two-point",
                            {"alpha": 0.25, "beta": 0.75, **kernel}, 0.2, 0)
        a = sample(spec, BoxSpec(2, 6), SampleId(0))
        assert np.all((a.diag >= 0.25) & (a.diag <= 0.75))

    @pytest.mark.parametrize("d,radius", [(1, 2047), (2, 31), (3, 7)])
    def test_kernel_offsets_are_bounded(self, d, radius):
        # a draw rolls the field once per offset; radius + 1 has more than 2**12
        def spec(r):
            return EnsembleSpec("correlated-two-point",
                                {"alpha": 0.25, "beta": 0.75, "radius": r}, 0.2, 0)

        assert (2 * radius + 1) ** d <= ensembles.MAX_KERNEL_OFFSETS < (2 * radius + 3) ** d
        a = sample(spec(radius), BoxSpec(d, 2), SampleId(0))
        assert np.all((a.diag >= 0.25) & (a.diag <= 0.75))
        with pytest.raises(ParameterError, match=f"kernel radius {radius + 1} at d={d} has more"):
            sample(spec(radius + 1), BoxSpec(d, 2), SampleId(0))

    def test_uniform_bounds_validated(self):
        with pytest.raises(ParameterError, match=re.escape(
                "uniform bounds must satisfy 0.2 < low < high < 1; got low=0.1, high=0.75")):
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
        with pytest.raises(ParameterError,
                           match="site variants require a two-point kind, got 'iid-uniform'"):
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
            window = a.grid(0)[(slice(lo, lo + R),) * d]
            assert spatial_average_observable(a, R) == float(np.mean(window))
            assert BoxAverageEntry(R)(a) == float(np.mean(window))

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


@pytest.mark.parametrize("spec,deterministic", [
    (constant(0.5), True),
    (EnsembleSpec("periodic-tile", {"unit_cell": [[0.3, 0.7], [0.7, 0.3]] * 2}, 0.2, 0), True),
    (two_point(alpha=0.4, beta=0.4), True),
    (EnsembleSpec("correlated-two-point", {"alpha": 0.4, "beta": 0.4}, 0.2, 0), True),
    (two_point(), False),
    (EnsembleSpec("correlated-two-point", {"alpha": 0.25, "beta": 0.75}, 0.2, 0), False),
    (uniform(), False),
], ids=["constant", "periodic-tile", "two-point-equal", "correlated-equal", "two-point",
        "correlated", "uniform"])
def test_is_deterministic(spec, deterministic):
    assert spec.is_deterministic == deterministic
    draws = [sample(spec, BoxSpec(2, 4), SampleId(i)).diag for i in range(3)]
    assert all(np.array_equal(draws[0], d) for d in draws) == deterministic


@pytest.mark.parametrize("spec,marginal", [
    (constant(0.5), (0.5, 0.5)),
    (two_point(alpha=0.3, beta=0.6), (0.3, 0.6)),
    (EnsembleSpec("correlated-two-point", {"alpha": np.float64(0.25), "beta": 0.75, "radius": 2}, 0.2, 0),
     (0.25, 0.75)),
    (uniform(low=0.3, high=0.9), (0.3, 0.9)),
    (EnsembleSpec("periodic-tile", {"unit_cell": [[0.3, 0.7]] * 4}, 0.2, 0), None),
], ids=["constant", "two-point", "correlated", "uniform", "periodic-tile"])
def test_marginal_is_read_at_construction(spec, marginal):
    assert spec.marginal == marginal
    assert all(type(v) is float for v in spec.marginal or ())
    # a derived field: not an argument, not in the repr, equality or JSON
    assert spec == EnsembleSpec(spec.kind, spec.params, spec.lam, spec.master_seed)
    assert "marginal" not in repr(spec) and "marginal" not in spec.to_json()


def _correlated(radius, decay=0.7, master_seed=5):
    return EnsembleSpec("correlated-two-point",
                        {"alpha": 0.25, "beta": 0.75, "radius": radius, "decay": decay},
                        0.2, master_seed)


TILE_2D = [[0.3, 0.5], [0.7, 0.4], [0.6, 0.9], [0.25, 0.8]]


class TestLawIsReadAtConstruction:
    """The kernel and the tile table are read once, by ``_read``: a later edit of
    ``params`` or of the caller's table reaches no draw and no mean."""

    @pytest.mark.parametrize("spec,edit", [
        (_correlated(2, decay=0.5), {"radius": -1}),
        (_correlated(2, decay=0.5), {"decay": 50.0}),
        (EnsembleSpec("periodic-tile", {"unit_cell": TILE_2D}, 0.2, 0),
         {"unit_cell": [[5.0, 5.0]] * 4}),
    ], ids=["radius", "decay", "unit_cell"])
    def test_a_later_params_edit_changes_nothing(self, spec, edit):
        box = BoxSpec(2, 6)
        before = sample(spec, box, SampleId(1)).diag
        mean = spec.marginal_mean()
        spec.params.update(edit)
        assert np.array_equal(sample(spec, box, SampleId(1)).diag, before)
        assert spec.marginal_mean() == mean

    def test_the_spec_keeps_a_copy_of_the_callers_params(self):
        # to_json, which the manifest records, keeps naming the law the spec draws from
        params, cell = {"alpha": 0.25, "beta": 0.75}, [list(row) for row in TILE_2D]
        specs = [EnsembleSpec("iid-two-point", params, 0.2, 0),
                 EnsembleSpec("periodic-tile", {"unit_cell": cell}, 0.2, 0)]
        before = [(json.dumps(spec.to_json()), spec.marginal_mean()) for spec in specs]
        params["alpha"] = 0.5
        cell[0][0] = 0.9
        assert [(json.dumps(spec.to_json()), spec.marginal_mean()) for spec in specs] == before

    def test_to_json_records_the_law_it_draws_from(self):
        # params stays the caller's dict; the manifest records what every sample draws
        spec = two_point()
        spec.params["alpha"] = 0.5
        assert spec.to_json()["params"] == {"alpha": 0.25, "beta": 0.75}
        kernel = EnsembleSpec("correlated-two-point", {"alpha": 0.25, "beta": 0.75}, 0.2, 0)
        assert kernel.to_json()["params"] == {"alpha": 0.25, "beta": 0.75, "radius": 1,
                                              "decay": 1.0}

    def test_a_numpy_unit_cell_stays_the_callers(self):
        cell = np.array(TILE_2D)
        spec = EnsembleSpec("periodic-tile", {"unit_cell": cell}, 0.2, 0)
        before, mean = sample(spec, BoxSpec(2, 4), SampleId(0)).diag, spec.marginal_mean()
        assert cell.flags.writeable and not np.shares_memory(cell, spec.structure)
        assert not spec.structure.flags.writeable
        cell[:] = 0.9
        assert np.array_equal(sample(spec, BoxSpec(2, 4), SampleId(0)).diag, before)
        assert spec.marginal_mean() == mean

    def test_structure_is_a_derived_field(self):
        kernel, iid = _correlated(3, decay=0.25), two_point()
        assert (kernel.structure, iid.structure, constant(0.5).structure) == ((3, 0.25), None, None)
        assert "structure" not in repr(kernel) and "structure" not in kernel.to_json()
        assert kernel == EnsembleSpec(kernel.kind, kernel.params, kernel.lam, kernel.master_seed)


def test_draws_keep_their_bits():
    # recorded before the d components were convolved in one pass: correlated at
    # d = 1, 2, 3 and radius 0-3, and two tiles with their marginal_mean
    draws = [(_correlated(r), BoxSpec(d, L))
             for (d, L), r in itertools.product([(1, 9), (2, 8), (3, 5)], range(4))]
    draws += [(EnsembleSpec("periodic-tile", {"unit_cell": TILE_2D}, 0.2, 0), BoxSpec(2, 6)),
              (EnsembleSpec("periodic-tile", {"unit_cell": [[0.3], [0.45], [0.9]]}, 0.2, 0),
               BoxSpec(1, 9))]
    h = hashlib.sha256()
    for spec, box in draws:
        for i in range(2):
            diag = sample(spec, box, SampleId(i)).diag
            assert diag.flags.f_contiguous  # the layout the solvers' stencil reads
            h.update(diag.tobytes())
        if spec.kind == "periodic-tile":
            h.update(np.float64(spec.marginal_mean()).tobytes())
    assert h.hexdigest() == "d9a4c7cd0c3f9ed480b81438fec9f766d19e8723bd3a4c6dd6d770128da6489d"


class TestJsonRoundTrip:
    def test_spec_serializes(self, tmp_path):
        spec = two_point(alpha=0.3, beta=0.6, lam=0.25, master_seed=11)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_json()))
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
            got = per_sample(spec, box, 9, lambda a, i: np.append(a.diag, i), pool.map)
        assert got[:, -1].tolist() == list(range(9))
        for i, row in enumerate(got):
            assert np.array_equal(row[:-1], sample(spec, box, SampleId(i)).diag.ravel())

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

    def test_a_map_call_gets_at_most_runs_per_map_runs(self):
        # a pool's map submits every task before it yields; one call over 10**12 runs
        # would build 10**12 futures before the first sample
        spec, box, n = two_point(master_seed=4), BoxSpec(1, 2), ensembles.RUNS_PER_MAP + 3
        calls = []

        def spy(fn, starts):
            calls.append(len(starts))
            return map(fn, starts)

        got = per_block(spec, box, n, lambda fields, ids: [a.diag.tolist() for a in fields],
                        spy, 1)
        assert calls == [ensembles.RUNS_PER_MAP, 3]
        assert got == [sample(spec, box, SampleId(i)).diag.tolist() for i in range(n)]

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
        assert len(inner.reports) == len(outer.reports) == 2000
        assert inner.dense_solves == outer.dense_solves == 6000


class TestMeanStderr:
    def test_bitwise_the_textbook_formula_on_normal_columns(self, rng):
        rows = rng.normal(size=(7, 4)) * np.array([1e3, 1.0, 1e-3, 1e-150])
        mean, se = _mean_stderr(rows)
        assert np.array_equal(mean, rows.mean(axis=0))
        assert np.array_equal(se, rows.std(axis=0, ddof=1) / np.sqrt(7))

    def test_squares_of_a_tiny_column_do_not_underflow(self):
        # the deviations' squares, 1e-400, are below the float range
        se = _mean_stderr(np.array([[1e-200], [3e-200]]))[1][0]
        assert se == pytest.approx(1e-200, rel=1e-12, abs=0)

    def test_a_subnormal_column_keeps_a_finite_scale(self):
        _, se = _mean_stderr(np.array([[5e-324, 0.0], [1.5e-323, 0.0]]))
        assert se.tolist() == [5e-324, 0.0]
