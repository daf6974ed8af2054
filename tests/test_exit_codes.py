"""The exit-code contract of ``homoglab.cli.main`` over every experiment.

Whatever the flags, ``main`` returns 0, 2 (solver failure) or 3 (config
error), lets no exception escape, and on a failure leaves the output
directory empty.  A usage error's ``SystemExit`` carries its code.

A case is ``argv`` and ``files``: each ``files[name]`` is written to an
input directory, and an argument ``@name`` stands for its path; every
experiment reads ``configs/ensemble_2pt.json`` unless ``files`` gives an
``ensemble``, which a drawn case often does, of any of the five
kinds and with degenerate parameters among the rest.  An ``oned`` case
draws its conductivity and forcing kinds the same way.  A pinned example
also gives the ``expected`` code.
"""

import json
import math
import os
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from homoglab.cli import (EXIT_CONFIG_ERROR, EXIT_OK, EXIT_SOLVER_FAILURE, EXPERIMENTS,
                          main)
from homoglab.ensembles import KINDS
from homoglab.oned import CONDUCTIVITY_KINDS, FORCING_KINDS

ENSEMBLE = (Path(__file__).parents[1] / "configs" / "ensemble_2pt.json").read_bytes()
INTS = [-1, 0, 1, 2, 3, 5]
FLOATS = [-1.0, 0.0, 0.05, 1.0, 1.1, math.nan, math.inf]
# coefficient values: inside (lambda, 1) = (0.2, 1), on its edges, and nan
VALUES = [0.3, 0.5, 0.9, 0.2, 1.0, math.nan]


def _oned(**params) -> dict:
    return {"config": json.dumps({"experiment": "oned", "params": params}).encode()}


def _config(experiment, **keys) -> dict:
    return {"config": json.dumps({"experiment": experiment, **keys}).encode()}


def _ensemble(kind: str, master_seed: int = 7, lam: float = 0.2, **params) -> dict:
    return {"ensemble": json.dumps({"kind": kind, "params": params, "lambda": lam,
                                    "master_seed": master_seed}).encode()}


@st.composite
def ensembles(draw) -> dict:
    """An ensemble file of any kind; equal two-point values, a one-site tile or
    a tile that fits no box are degenerate cases among the drawn ones."""
    kind = draw(st.sampled_from(KINDS))
    value = st.sampled_from(VALUES)
    if kind == "constant":
        return _ensemble(kind, value=draw(value))
    if kind == "iid-uniform":
        return _ensemble(kind, low=draw(value), high=draw(value))
    if kind == "periodic-tile":
        d = draw(st.integers(1, 3))
        rows = st.lists(value, min_size=d, max_size=d)
        return _ensemble(kind, unit_cell=draw(st.lists(rows, min_size=1, max_size=8)))
    params = {"alpha": draw(value), "beta": draw(value)}
    if kind == "correlated-two-point":
        params.update(radius=draw(st.sampled_from(INTS)), decay=draw(st.sampled_from(FLOATS)))
    return _ensemble(kind, **params)


@st.composite
def profiles(draw, kinds: dict) -> dict:
    """A 1d conductivity or forcing of any kind in ``kinds`` with a random subset
    of its parameters, each a coefficient value, a float or, for an integer, an int."""
    name = draw(st.sampled_from(sorted(kinds)))
    drawn = {key: draw(st.none() | st.sampled_from(INTS if isinstance(default, int)
                                                   else VALUES + FLOATS))
             for key, default in kinds[name].defaults.items()}
    return {"kind": name, **{key: value for key, value in drawn.items() if value is not None}}


def _values(name: str, kind: type, nargs: str | None):
    one = (st.integers(0, 3) if name == "samples"
           else st.sampled_from(INTS if kind is int else FLOATS))
    return st.lists(one, max_size=3) if nargs else one.map(lambda v: [v])


@st.composite
def cases(draw) -> tuple[list[str], dict]:
    """A command with d in {1, 2, 3}, L in 1..8 and a random subset of its
    parameters, solver flags and ``--seed``; ``oned`` takes its parameters by
    ``--config``."""
    command = draw(st.sampled_from(sorted(EXPERIMENTS)))
    argv = [command, "--d", str(draw(st.sampled_from([1, 2, 3]))),
            "--L", str(draw(st.integers(1, 8)))]
    flags = {"tol": ("tol", float, None), "seed": ("seed", int, None)}
    flags.update({name.replace("_", "-"): (name, param.type, param.nargs)
                  for name, param in EXPERIMENTS[command].params.items()})
    for flag, spec in flags.items():
        values = draw(st.none() | _values(*spec))
        if values is not None:
            argv += ["--" + flag, *map(str, values)]
    files = draw(st.just({}) | ensembles())
    if command == "oned":
        params = {"eps_list": draw(st.none() | st.lists(st.sampled_from(FLOATS), max_size=3)),
                  "points_per_period": draw(st.none() | st.sampled_from(INTS)),
                  "a": draw(st.none() | profiles(CONDUCTIVITY_KINDS)),
                  "f": draw(st.none() | profiles(FORCING_KINDS))}
        files = _oned(**{k: v for k, v in params.items() if v is not None})
        argv += ["--config", "@config"]
    return argv, files


@settings(max_examples=200, deadline=None, database=None)
@given(case=cases(), expected=st.none())
# the faults these guard against: a traceback, a run that ignores its
# parameter (exit 0), or a parameter error reported as a solver failure (exit 2)
@example(case=(["corrector", "--d", "2", "--L", "8", "--dir", "2"], {}), expected=3)
@example(case=(["corrector", "--d", "2", "--L", "8", "--dir", "-1"], {}), expected=3)
@example(case=(["oned", "--config", "@config"], _oned(eps_list=[0])), expected=3)
@example(case=(["corrector", "--L", "8", "--tol", "inf"], {}), expected=3)
@example(case=(["corrector", "--L", "8", "--tol", "nan"], {}), expected=3)
@example(case=(["corrector", "--L", "8", "--max-iter", "-1"], {}), expected=3)
@example(case=(["corrector", "--L", "8", "--max-iter", "0"], {}), expected=3)
# CG's cap of 50 iterations per site is not a flag, and a tol below CG's reach, which
# would run to that cap, is a config error
@example(case=(["corrector", "--L", "8", "--max-iter", "2"], {}), expected=3)
@example(case=(["corrector", "--L", "8", "--tol", "1e-300"], {}), expected=3)
@example(case=(["corrector", "--L", "8", "--tol", "1e-13"], {}), expected=0)
@example(case=(["twoscale", "--L", "8", "--samples", "2", "--alpha", "nan"], {}), expected=3)
@example(case=(["twoscale", "--L", "8", "--samples", "2", "--alpha", "inf"], {}), expected=3)
@example(case=(["meyers", "--L", "8", "--samples", "2", "--alpha-w", "nan"], {}), expected=3)
@example(case=(["meyers", "--L", "8", "--samples", "2", "--alpha-w", "inf"], {}), expected=3)
@example(case=(["growth", "--L", "8", "--radii", "1", "2", "--samples", "2", "--p", "0"], {}),
         expected=3)
@example(case=(["oned", "--config", "@config"], _oned(a={"kind": "constant", "value": math.nan})),
         expected=3)
@example(case=(["oned", "--config", "@config"], _oned(a={"kind": "constant", "value": math.inf})),
         expected=3)
@example(case=(["oned", "--config", "@config"], _oned(a=5)), expected=3)
# unreadable or unparsable input files
@example(case=(["ahom", "--config", "@config", "--L", "4"], {"config": b"\xff{}"}), expected=3)
@example(case=(["ahom", "--L", "4"], {"ensemble": b"\xff{}"}), expected=3)
@example(case=(["ahom", "--config", "@config", "--L", "4"], {"config": b"{"}), expected=3)
@example(case=(["replay", "@manifest"], {"manifest": b"not json"}), expected=3)
@example(case=(["oned", "--config", "@config"], _oned(eps_list=[])), expected=3)
@example(case=(["oned", "--config", "@config"], _oned(eps_list=[0.0625, 0.25, 0.125, 0.125])),
         expected=3)
@example(case=(["cell", "--d", "2", "--L", "8"],
               _ensemble("periodic-tile", unit_cell=[[0.5, 0.5]] * 3)), expected=3)
@example(case=(["semigroup", "--d", "2", "--L", "16", "--samples", "2", "--t-grid", "1", "4"],
               _ensemble("constant", value=0.5)), expected=0)
@example(case=(["oned", "--config", "@config"],
               _oned(a={"kind": "constant", "value": "abc"})), expected=3)
@example(case=(["cell", "--L", "4", "--seed", "-1"], {}), expected=3)
@example(case=(["cell", "--L", "4"], _ensemble("iid-two-point", master_seed=-1, alpha=0.25,
                                               beta=0.75)), expected=3)
@example(case=(["twoscale", "--L", "8", "--samples", "2", "--alpha", "1e100"], {}), expected=2)
@example(case=(["meyers", "--L", "8", "--samples", "2", "--alpha-w", "400"], {}), expected=3)
@example(case=(["meyers", "--L", "8", "--samples", "2", "--alpha-w", "370"], {}), expected=0)
@example(case=(["growth", "--L", "16", "--radii", "2", "3", "4", "--samples", "2",
                "--p", "4000"], {}), expected=3)
# a 1d profile whose table leaves the float range, or whose parameter is not finite
@example(case=(["oned", "--config", "@config"], _oned(f={"kind": "constant", "value": math.nan})),
         expected=3)
@example(case=(["oned", "--config", "@config"], _oned(f={"kind": "linear-odd", "scale": math.inf})),
         expected=3)
@example(case=(["oned", "--config", "@config"], _oned(a={"kind": "constant", "value": 1e-300})),
         expected=3)
@example(case=(["oned", "--config", "@config"], _oned(a={"kind": "constant", "value": 1e200})),
         expected=0)
@example(case=(["oned", "--config", "@config"],
               _oned(a={"kind": "shifted-sine", "offset": 1e200})), expected=0)
# a 1d grid of more than 2**20 intervals
@example(case=(["oned", "--config", "@config"], _oned(eps_list=[1e-7])), expected=3)
@example(case=(["oned", "--config", "@config"], _oned(points_per_period=10**12)), expected=3)
# a lambda whose square underflows to 0: the energy bounds are inf, not a 1/0
@example(case=(["ahom", "--L", "8", "--samples", "2"],
               _ensemble("iid-two-point", lam=1e-301, alpha=1e-12, beta=0.75)), expected=0)
@example(case=(["ahom", "--L", "8", "--samples", "2"],
               _ensemble("iid-two-point", lam=1e-301, alpha=1e-100, beta=0.75)), expected=0)
@example(case=(["ahom", "--L", "8", "--samples", "2"],
               _ensemble("iid-two-point", lam=1e-301, alpha=1e-300, beta=0.75)), expected=0)
# a kernel of more than 2**12 offsets, which would never finish a draw
@example(case=(["cell", "--L", "4"], _ensemble("correlated-two-point", alpha=0.25, beta=0.75,
                                               radius=10**4)), expected=3)
# an experiment integer outside int64, where numpy holds it
@example(case=(["growth", "--L", "16", "--radii", "2", "100000000000000000000"], {}),
         expected=3)
@example(case=(["green", "--L", "16", "--radii", "2", "100000000000000000000"], {}),
         expected=3)
@example(case=(["birkhoff", "--L", "8", "--R-list", "2", "100000000000000000000"], {}),
         expected=3)
@example(case=(["sg", "--L", "8", "--samples", "9223372036854775808"], {}), expected=3)
# an ensemble number too large for a float
@example(case=(["cell", "--L", "4"], _ensemble("iid-two-point", alpha=10**400, beta=0.75)),
         expected=3)
@example(case=(["cell", "--L", "4"], _ensemble("iid-two-point", lam=10**400, alpha=0.25,
                                               beta=0.75)), expected=3)
# a config value of the wrong type: each of the last three once ran as if not given
@example(case=(["birkhoff", "--config", "@config", "--L", "8"], _config(["birkhoff"])),
         expected=3)
@example(case=(["birkhoff", "--config", "@config", "--L", "8", "--R-list", "2", "4",
                "--samples", "2"], _config("birkhoff", params=0)), expected=3)
@example(case=(["cell", "--config", "@config", "--L", "4"], _config("cell", solver=[])),
         expected=3)
@example(case=(["cell", "--config", "@config", "--L", "4"], _config("cell", box=False)),
         expected=3)
# an ensemble value that does not convert
@example(case=(["cell", "--L", "4"], _ensemble("periodic-tile", unit_cell=[[0.5], [0.5, 0.5]])),
         expected=3)
@example(case=(["cell", "--L", "4"], _ensemble("iid-two-point", alpha=0.25)), expected=3)
def test_exit_code_is_0_2_or_3_and_a_failure_writes_nothing(case, expected):
    argv, files = case
    with tempfile.TemporaryDirectory() as tmp:
        inputs, out = Path(tmp, "in"), Path(tmp, "out")
        inputs.mkdir()
        out.mkdir()
        for name, data in {"ensemble": ENSEMBLE, **files}.items():
            (inputs / name).write_bytes(data)
        argv = [str(inputs / a[1:]) if a.startswith("@") else a for a in argv]
        if argv[0] != "replay":
            argv += ["--ensemble", str(inputs / "ensemble"), "--out", str(out / "result")]
        try:
            code = main(argv)
        except SystemExit as exc:  # usage errors
            code = exc.code
        assert code in (EXIT_OK, EXIT_SOLVER_FAILURE, EXIT_CONFIG_ERROR)
        if expected is not None:
            assert code == expected
        if code != EXIT_OK:
            assert os.listdir(out) == []
