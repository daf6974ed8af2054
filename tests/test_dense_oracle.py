"""Every experiment that calls CG, checked against a dense direct solve.

Each case runs through ``cli._execute`` twice: once as shipped, and once with
``elliptic._solve`` replaced by a dense solve of ``elliptic_matrix`` (plus the
shift), projected to mean zero when the problem is singular.  Every number in
every output must agree to 1e-9 (absolute, or relative where |value| > 1), at
the spectral preconditioner and at plain CG.  Unlike the golden hashes, the
check holds whatever bits a correct solver writes.

Left out are the fields that describe the solve rather than its result: the
per-solve ``iterations`` and ``final_relative_residual``, and the solve count,
iteration counts and largest residual of the ``solver_reports`` summary.
"""

import csv
import io
import json

import numpy as np
import pytest

import homoglab.elliptic as elliptic
from homoglab.cli import ExperimentConfig, _execute
from homoglab.elliptic import SolveReport, elliptic_matrix
from homoglab.lattice import ScalarField

TOL = 1e-9
SOLVE_FIELDS = {"iterations", "final_relative_residual", "n_solves", "total_iterations",
                "max_iterations", "max_final_relative_residual"}

TWO_POINT = {"kind": "iid-two-point", "params": {"alpha": 0.25, "beta": 0.75},
             "lambda": 0.2, "master_seed": 321}
TILE = {"kind": "periodic-tile", "params": {
    "unit_cell": [[0.3, 0.5], [0.7, 0.4], [0.6, 0.9], [0.25, 0.8]]},
        "lambda": 0.2, "master_seed": 321}

# every EXPERIMENTS row that calls CG, on boxes of at most 512 sites
CASES = {
    "cell": ("cell", {"sample": 1}, 2, 8, TWO_POINT),
    "cell-tile": ("cell", {"sample": 1}, 2, 8, TILE),
    "ahom": ("ahom", {"samples": 2}, 2, 8, TWO_POINT),
    "corrector": ("corrector", {"dir": 1, "sample": 2}, 2, 16, TWO_POINT),
    "corrector-d3": ("corrector", {"dir": 2}, 3, 6, TWO_POINT),
    "twoscale": ("twoscale", {"samples": 2, "alpha": 0.2}, 2, 8, TWO_POINT),
    "growth": ("growth", {"samples": 2, "radii": [2, 4]}, 2, 16, TWO_POINT),
    "green": ("green", {"samples": 2, "radii": [2, 4]}, 2, 16, TWO_POINT),
    "green-d3": ("green", {"samples": 2, "radii": [1, 2]}, 3, 8, TWO_POINT),
    "meyers": ("meyers", {"samples": 2}, 2, 8, TWO_POINT),
}


def _dense_solve(a, shift, rhs, cfg, what):
    """shift * u + div*(a grad u) = rhs by LU; when shift is 0, the rhs mean is
    subtracted and (A + 1 1^T / N) u = b picks the mean-zero solution."""
    n = a.box.n_sites
    A = elliptic_matrix(a)
    if shift:
        A += shift * np.eye(n)
        removed = 0.0
    else:
        A += 1.0 / n
        removed = float(rhs.values.mean())
    u = np.linalg.solve(A, rhs.values - removed)
    if not shift:
        u -= u.mean()
    return ScalarField(a.box, u), SolveReport(0, 0.0, True, removed)


def _outputs(case, precond):
    experiment, params, d, L, ensemble = CASES[case]
    cfg = ExperimentConfig.from_json({
        "experiment": experiment, "params": params, "ensemble": ensemble,
        "box": {"d": d, "L": L}, "solver": {"preconditioner": precond}, "out": experiment})
    return {name: b"".join(chunks).decode() for name, chunks in _execute(cfg, 1)[0].items()}


def _values(text):
    """A JSON output as parsed, a CSV one as its header and numeric rows."""
    if text.startswith("{"):
        return json.loads(text)
    header, *rows = csv.reader(io.StringIO(text))
    return {"header": header, "rows": [[float(v) for v in row] for row in rows]}


def _deviations(cg, dense, path=""):
    """(path, |cg - dense|, tolerance) of every number, through matching structure."""
    if isinstance(dense, dict):
        assert set(cg) == set(dense), path
        for key in sorted(set(dense) - SOLVE_FIELDS):
            yield from _deviations(cg[key], dense[key], f"{path}.{key}")
    elif isinstance(dense, list):
        assert len(cg) == len(dense), path
        for k, (x, y) in enumerate(zip(cg, dense)):
            yield from _deviations(x, y, f"{path}[{k}]")
    elif isinstance(dense, float):
        yield path, abs(cg - dense), TOL * max(1.0, abs(dense))
    else:
        assert cg == dense, path


@pytest.mark.parametrize("precond", ["spectral", "none"])
@pytest.mark.parametrize("case", list(CASES))
def test_outputs_match_a_dense_solve(case, precond, monkeypatch):
    cg = _outputs(case, precond)
    solved = []
    monkeypatch.setattr(elliptic, "_solve", lambda *args: solved.append(args) or _dense_solve(*args))
    dense = _outputs(case, precond)
    assert solved, "the experiment made no solve"
    assert sorted(cg) == sorted(dense)
    worst = [(path, dev) for name in sorted(dense)
             for path, dev, tol in _deviations(_values(cg[name]), _values(dense[name]), name)
             if not dev <= tol]
    assert worst == []
