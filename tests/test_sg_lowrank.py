"""Batched site-variant values of the spectral-gap functionals.

``variant_values`` returns f(a) and the functional at every (site, variant)
pair of a sample at once: in closed form for the single-site and
box-average entries, by a rank-d Sherman-Morrison-Woodbury update of one
pinned cell inverse for the cell entry.  The oracle is the definition:
build each variant field with ``site_variants`` and call the functional on
it.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from homoglab.elliptic import elliptic_matrix
from homoglab.ensembles import SampleId, sample, site_assignments, site_variants, two_point
from homoglab.lattice import BoxSpec
from homoglab.quant import (
    BoxAverageEntry,
    CellAhomEntry,
    SingleSiteEntry,
    default_functional_family,
    sg_check,
)

MAX_L = {1: 9, 2: 5, 3: 3}
SETTINGS = settings(max_examples=25, deadline=None, database=None)


@st.composite
def sampled_fields(draw):
    d = draw(st.integers(1, 3))
    box = BoxSpec(d, draw(st.integers(2, MAX_L[d])))
    spec = two_point(alpha=0.25, beta=0.75, master_seed=draw(st.integers(0, 2**32 - 1)))
    return spec, sample(spec, box, SampleId(draw(st.integers(0, 999))))


def brute_force_values(func, a, spec) -> np.ndarray:
    return np.array([[func(v) for v in site_variants(spec, a, site)]
                     for site in func.support(a.box)])


@SETTINGS
@given(field=sampled_fields(), data=st.data())
def test_batched_values_match_each_variant(field, data):
    spec, a = field
    box, d = a.box, a.box.d
    component = data.draw(st.integers(0, d - 1))
    funcs = [
        CellAhomEntry(data.draw(st.integers(0, d - 1)), data.draw(st.integers(0, d - 1))),
        BoxAverageEntry(data.draw(st.integers(1, box.L)), component),
        SingleSiteEntry(data.draw(st.integers(0, box.n_sites - 1)), component),
    ]
    for func in funcs:
        fa, got = func.variant_values(a, site_assignments(spec, d))
        assert fa == func(a)
        assert got.shape == (len(func.support(box)), 2**d)
        np.testing.assert_allclose(got, brute_force_values(func, a, spec), rtol=0, atol=1e-12)


@SETTINGS
@given(field=sampled_fields())
def test_unchanged_variant_reproduces_the_functional(field):
    spec, a = field
    for func in default_functional_family(a.box):
        fa, values = func.variant_values(a, site_assignments(spec, a.box.d))
        assert fa == func(a)
        for k, site in enumerate(func.support(a.box)):
            same = [v for v, var in enumerate(site_variants(spec, a, site))
                    if np.array_equal(var.diag[site], a.diag[site])]
            assert values[k, same[0]] == fa


def brute_force_sg(spec, box, n, functionals):
    """The per-variant loop sg_check ran before the batched values."""
    per_sample = []
    for i in range(n):
        a = sample(spec, box, SampleId(i))
        out = []
        for func in functionals:
            fa = float(func(a))
            dsum = 0.0
            for site in func.support(box):
                current = tuple(a.diag[site])
                vals = []
                for variant in site_variants(spec, a, site):
                    if tuple(variant.diag[site]) == current:
                        vals.append(fa)
                    else:
                        vals.append(float(func(variant)))
                dsum += (fa - float(np.mean(vals))) ** 2
            out.append((fa, dsum))
        per_sample.append(out)
    results = []
    for j in range(len(functionals)):
        vals = np.array([s[j][0] for s in per_sample])
        dsums = np.array([s[j][1] for s in per_sample])
        var, den = float(vals.var(ddof=1)), float(dsums.mean())
        results.append((var, den, var / den, float(dsums.std(ddof=1) / np.sqrt(n))))
    return results


@settings(max_examples=8, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6),
       row=st.integers(0, 1), col=st.integers(0, 1))
def test_sg_check_matches_brute_force_loop(seed, n, row, col):
    spec = two_point(alpha=0.25, beta=0.75, master_seed=seed)
    box = BoxSpec(2, 4)
    functionals = [SingleSiteEntry(5, row), BoxAverageEntry(2, col), CellAhomEntry(row, col)]
    reports = sg_check(spec, box, n, functionals=functionals)
    for r, (var, den, ratio, den_se) in zip(reports, brute_force_sg(spec, box, n, functionals)):
        assert r.variance.value == pytest.approx(var, rel=1e-12)
        assert r.derivative_sum.value == pytest.approx(den, rel=1e-12)
        assert r.ratio == pytest.approx(ratio, rel=1e-12)
        assert r.derivative_sum.stderr == pytest.approx(den_se, rel=1e-12, abs=1e-15)


@SETTINGS
@given(field=sampled_fields())
def test_pinned_inverse_matches_cholesky_solve(field):
    _, a = field
    n = a.box.n_sites
    G, _, _ = CellAhomEntry()._solve(a)
    expected = scipy.linalg.cho_solve(
        scipy.linalg.cho_factor(elliptic_matrix(a)[1:, 1:]), np.eye(n - 1))
    assert not G[0].any() and not G[:, 0].any()
    np.testing.assert_allclose(G[1:, 1:], expected, rtol=0, atol=1e-12)


def test_sg_check_inverts_once_per_sample(monkeypatch):
    inverted = []
    inv = np.linalg.inv

    def counted(m):
        inverted.append(m.shape)
        return inv(m)

    monkeypatch.setattr(np.linalg, "inv", counted)
    box = BoxSpec(2, 4)
    sg_check(two_point(master_seed=7), box, 5)
    assert inverted == [(box.n_sites - 1, box.n_sites - 1)] * 5
