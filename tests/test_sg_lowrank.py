"""Batched site-variant values of the spectral-gap functionals.

``block_values`` returns f and the functional at every (site, variant)
pair for a stack of samples at once: in closed form for the single-site and
box-average entries, by a rank-d Sherman-Morrison-Woodbury update of one
pinned cell inverse per sample for the cell entry.  The oracle is the
definition: build each variant field with ``site_variants`` and call the
functional on it, at the sites it reads, listed here independently.
"""

import numpy as np
import pytest
import scipy.linalg
from concurrent.futures import ThreadPoolExecutor
from hypothesis import example, given, settings, strategies as st

import homoglab.ensembles
from homoglab.elliptic import collecting_reports, elliptic_matrix
from homoglab.ensembles import SampleId, sample, site_assignments, site_variants, two_point
from homoglab.lattice import BoxSpec
from homoglab.quant import (
    _SG_BLOCK,
    _small_solve,
    BoxAverageEntry,
    CellAhomEntry,
    SingleSiteEntry,
    default_functional_family,
    sg_check,
)

# a sample count that fills two runs of the sg loop and leaves a short third
STRADDLING = 2 * _SG_BLOCK + 3

MAX_L = {1: 9, 2: 5, 3: 3}
SETTINGS = settings(max_examples=25, deadline=None, database=None)


@st.composite
def sampled_fields(draw):
    d = draw(st.integers(1, 3))
    box = BoxSpec(d, draw(st.integers(2, MAX_L[d])))
    spec = two_point(alpha=0.25, beta=0.75, master_seed=draw(st.integers(0, 2**32 - 1)))
    return spec, sample(spec, box, SampleId(draw(st.integers(0, 999))))


def sites_read(func, box: BoxSpec) -> list[int]:
    """The sites a functional depends on, in the order of its ``block_values`` rows."""
    if isinstance(func, SingleSiteEntry):
        return [func.site]
    if isinstance(func, BoxAverageEntry):
        lo = (box.L - func.R) // 2
        coords = box.coordinate_arrays()
        return np.flatnonzero(np.all((coords >= lo) & (coords < lo + func.R), axis=1)).tolist()
    return list(range(box.n_sites))


def one_field_values(func, a, values) -> tuple[float, np.ndarray]:
    """f(a) and its (sites, variants) table from a one-field ``block_values`` call."""
    fa, table = func.block_values(a.box, a.diag[None], values)
    return float(fa[0]), table[0]


def brute_force_values(func, a, spec) -> np.ndarray:
    return np.array([[func(v) for v in site_variants(spec, a, site)]
                     for site in sites_read(func, a.box)])


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
        fa, got = one_field_values(func, a, site_assignments(spec, d))
        assert fa == func(a)
        assert got.shape == (len(sites_read(func, box)), 2**d)
        np.testing.assert_allclose(got, brute_force_values(func, a, spec), rtol=0, atol=1e-12)


@SETTINGS
@given(field=sampled_fields())
def test_unchanged_variant_reproduces_the_functional(field):
    spec, a = field
    for func in default_functional_family(a.box):
        fa, values = one_field_values(func, a, site_assignments(spec, a.box.d))
        assert fa == func(a)
        for k, site in enumerate(sites_read(func, a.box)):
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
            for site in sites_read(func, box):
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
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, STRADDLING),
       row=st.integers(0, 1), col=st.integers(0, 1))
@example(seed=11, n=STRADDLING, row=0, col=1)
@example(seed=12, n=_SG_BLOCK + 1, row=1, col=1)
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
    G, _, _ = CellAhomEntry()._solve(a.box, a.diag[None])
    expected = scipy.linalg.cho_solve(
        scipy.linalg.cho_factor(elliptic_matrix(a)[1:, 1:]), np.eye(n - 1))
    assert G.shape == (1, n, n)
    assert not G[0, 0].any() and not G[0, :, 0].any()
    np.testing.assert_allclose(G[0, 1:, 1:], expected, rtol=0, atol=1e-12)


@settings(max_examples=10, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3), data=st.data())
def test_block_values_equal_each_samples_own_bits(seed, d, data):
    # what makes sg bytes independent of the run length: sample b of a stack
    # gets exactly the values of its own one-field call
    box = BoxSpec(d, data.draw(st.integers(2, MAX_L[d])))
    spec = two_point(master_seed=seed)
    fields = [sample(spec, box, SampleId(i)) for i in range(data.draw(st.integers(2, 9)))]
    diag = np.stack([a.diag for a in fields])
    values = site_assignments(spec, d)
    for func in (CellAhomEntry(d - 1, 0), BoxAverageEntry(max(1, box.L // 2)), SingleSiteEntry(1)):
        fa, table = func.block_values(box, diag, values)
        for b, a in enumerate(fields):
            one_fa, one_table = one_field_values(func, a, values)
            assert fa[b] == one_fa
            assert np.array_equal(table[b], one_table)


@settings(max_examples=25, deadline=None, database=None)
@given(d=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_small_solve_matches_lapack(d, seed):
    # elimination without pivoting, on systems whose leading minors stay
    # away from 0 as the Woodbury systems' do (diagonally dominant here)
    rng = np.random.default_rng(seed)
    A = rng.uniform(-1, 1, (64, 4, d, d))
    A[..., range(d), range(d)] = (np.abs(A).sum(axis=-1) + rng.uniform(0.1, 1, (64, 4, d)))
    A[..., range(d), range(d)] *= rng.choice([-1.0, 1.0], (64, 4, d))
    b = rng.uniform(-1, 1, (64, 4, d))
    np.testing.assert_allclose(_small_solve(A, b), np.linalg.solve(A, b[..., None])[..., 0],
                               rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("n", [5, STRADDLING])
def test_sg_check_inverts_once_per_sample(n, monkeypatch):
    # one np.linalg.inv per run of samples; its stack holds one matrix per sample
    stacks = []
    inv = np.linalg.inv

    def counted(m):
        stacks.append(m.shape)
        return inv(m)

    monkeypatch.setattr(np.linalg, "inv", counted)
    box = BoxSpec(2, 4)
    with collecting_reports() as scope:
        sg_check(two_point(master_seed=7), box, n)
    assert all(shape[1:] == (box.n_sites - 1, box.n_sites - 1) for shape in stacks)
    assert [shape[0] for shape in stacks] == [min(_SG_BLOCK, n - k)
                                             for k in range(0, n, _SG_BLOCK)]
    assert sum(shape[0] for shape in stacks) == scope.dense_solves == n


@pytest.mark.parametrize("threads", [1, 2])
def test_sg_check_draws_each_sample_once_through_the_module_global(threads, monkeypatch):
    drawn = []

    def recorded(spec, box, sid):
        drawn.append(sid.index)
        return sample(spec, box, sid)

    monkeypatch.setattr(homoglab.ensembles, "sample", recorded)
    with ThreadPoolExecutor(threads) as pool:
        sg_check(two_point(master_seed=3), BoxSpec(2, 4), STRADDLING, map_fn=pool.map)
    if threads == 1:
        assert drawn == list(range(STRADDLING))
    else:  # runs interleave across workers; each run draws its own ids in order
        assert sorted(drawn) == list(range(STRADDLING))
        for start in range(0, STRADDLING, _SG_BLOCK):
            run = [i for i in drawn if start <= i < start + _SG_BLOCK]
            assert run == sorted(run)
