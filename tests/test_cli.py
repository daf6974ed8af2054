import errno
import json
import os
import stat
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import homoglab
import homoglab.cli
import homoglab.correctors
import homoglab.elliptic
import homoglab.ensembles
import homoglab.oned
import homoglab.quant
import homoglab.twoscale
from conftest import constant_green, ill_conditioned_op, reference_csv_text
from homoglab.cli import (
    EXIT_CONFIG_ERROR,
    EXIT_OK,
    EXIT_REPLAY_MISMATCH,
    EXIT_SOLVER_FAILURE,
    EXPERIMENTS,
    MAX_THREADS,
    ExperimentConfig,
    _execute,
    _json_text,
    build_parser,
    config_from_args,
    main,
    replay,
)
from homoglab.correctors import ahom_rve
from homoglab.elliptic import SolverConfig, collecting_reports
from homoglab.ensembles import EnsembleSpec, SampleId, sample
from homoglab.lattice import BoxSpec, _CsvText


def _python(args, cwd, **env):
    """A fresh interpreter on this checkout's homoglab, with ``env`` added."""
    src = os.path.dirname(os.path.dirname(homoglab.__file__))
    return subprocess.run([sys.executable, *args],
                          env={**os.environ, "PYTHONPATH": src, **env}, cwd=cwd,
                          capture_output=True, text=True, timeout=600)


# Each experiment at its smallest config, for the startup probes; ``oned`` reads
# the ``oned_config`` fixture, the others the ``ensemble_file`` one.
SMALLEST = {
    "oned": ["oned"],
    "cell": ["cell", "--L", "4"],
    "ahom": ["ahom", "--L", "4", "--samples", "2"],
    "corrector": ["corrector", "--L", "4"],
    "twoscale": ["twoscale", "--L", "4", "--samples", "2"],
    "growth": ["growth", "--L", "8", "--radii", "1", "2", "--samples", "2"],
    "sg": ["sg", "--L", "4", "--samples", "2"],
    "semigroup": ["semigroup", "--L", "16", "--t-grid", "1", "4", "--samples", "2"],
    "green": ["green", "--L", "8", "--radii", "1", "2", "--samples", "2"],
    "meyers": ["meyers", "--L", "4", "--samples", "2"],
    "birkhoff": ["birkhoff", "--L", "8", "--R-list", "2", "4", "--samples", "2"],
}

# Builds the config from argv, runs it, and prints the modules the run added and
# the scipy modules loaded at the end.
RUN_PROBE = """
import json, sys
from homoglab import cli
args = cli.build_parser().parse_args(sys.argv[1:])
cfg = cli.config_from_args(args)
loaded = set(sys.modules)
cli.run(cfg, threads=args.threads)
print(json.dumps({"added": sorted(set(sys.modules) - loaded),
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


# The config of ``ahom --L 8 --samples 2`` as homoglab 0.7.0 wrote it, when the
# default solver was plain CG ("preconditioner": "none"), and the hash of its output
# as 0.11.0 writes it: 0.10.0 moved ``min_quadratic_form``, now the eigenvalue, and
# 0.11.0 the last digits, as its flux stencil rounds other than the CSR one did.
MANIFEST_0_7_0 = {
    "artifact_version": "0.7.0",
    "config": {
        "box": {"L": 8, "d": 2},
        "ensemble": {"kind": "iid-two-point", "lambda": 0.2, "master_seed": 321,
                     "params": {"alpha": 0.25, "beta": 0.75}},
        "experiment": "ahom", "out": "ahom.json", "params": {"samples": 2},
        "solver": {"anchor": "mean-zero", "max_iter": None, "preconditioner": "none",
                   "tol": 1e-10},
    },
    "outputs": {"ahom.json": "97eb782590fd85490a1fd74ac3ca19b6decfafb2c9081defb67e6dfd3fa15607"},
}


@pytest.fixture
def ensemble_file(tmp_path):
    path = tmp_path / "ens.json"
    path.write_text(json.dumps({
        "kind": "iid-two-point",
        "params": {"alpha": 0.25, "beta": 0.75},
        "lambda": 0.2,
        "master_seed": 321,
    }))
    return str(path)


@pytest.fixture
def oned_config(tmp_path):
    path = tmp_path / "fig1.json"
    path.write_text(json.dumps({
        "experiment": "oned",
        "params": {
            "a": {"kind": "shifted-sine", "offset": 2.0, "amplitude": 1.0},
            "f": {"kind": "linear-odd", "scale": 3.0},
            "eps_list": [0.125, 0.0625, 0.03125],
            "points_per_period": 64,
        },
        "out": "table.csv",
    }))
    return str(path)


class TestOned:
    def test_runs_and_writes_table(self, oned_config, tmp_path, capsys):
        out = str(tmp_path / "table.csv")
        code = main(["oned", "--config", oned_config, "--out", out])
        assert code == EXIT_OK
        lines = open(out).read().strip().splitlines()
        assert lines[0] == "eps,sup_error,h1_twoscale_error,bound_rhs,ratio"
        assert len(lines) == 4
        assert os.path.exists(out + ".manifest.json")

    @pytest.mark.parametrize("params", [
        {"points_per_period": 64.5},
        {"f": {"kind": "sine", "k": 1.9}},
        {"a": {"kind": "constant"}},
        {"a": {"kind": "layered", "alpha": 0.5}},
        {"f": {"kind": "one"}},
        {"eps_list": [0.0625, 0.25, 0.125, 0.125]},
    ], ids=["points-per-period-float", "sine-k-float", "constant-without-value",
            "layered-without-beta", "forcing-one", "eps-list-repeated"])
    def test_bad_profile_exits_3_and_writes_nothing(self, params, tmp_path, capsys):
        path = tmp_path / "oned.json"
        path.write_text(json.dumps({"experiment": "oned",
                                    "params": {"eps_list": [0.125, 0.0625], **params}}))
        code = main(["oned", "--config", str(path), "--out", str(tmp_path / "table.csv")])
        assert code == EXIT_CONFIG_ERROR
        assert "config error" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["oned.json"]

    def test_each_eps_is_solved_once(self, oned_config, tmp_path, monkeypatch):
        solved, solve = [], homoglab.oned.solve_explicit
        monkeypatch.setattr(homoglab.oned, "solve_explicit",
                            lambda profile: solved.append(profile.eps) or solve(profile))
        assert main(["oned", "--config", oned_config,
                     "--out", str(tmp_path / "table.csv")]) == EXIT_OK
        assert solved == [0.125, 0.0625, 0.03125]  # coarsest first

    def test_gnuplot_script_flag_is_a_usage_error(self, oned_config, tmp_path):
        # the flag and its script are gone; config errors write no files
        with pytest.raises(SystemExit) as exc:
            main(["oned", "--config", oned_config, "--out", str(tmp_path / "table.csv"),
                  "--gnuplot-script"])
        assert exc.value.code == EXIT_CONFIG_ERROR
        assert os.listdir(tmp_path) == ["fig1.json"]


class TestDispatchAndErrors:
    def test_growth_dispatch(self, ensemble_file, tmp_path):
        out = str(tmp_path / "growth.json")
        code = main(["growth", "--ensemble", ensemble_file, "--L", "16", "--d", "2",
                     "--radii", "2", "4", "--samples", "3",
                     "--out", out])
        assert code == EXIT_OK
        rep = json.loads(open(out).read())
        assert rep["model"] == "log-fit" and len(rep["moments"]) == 2

    def test_invalid_ensemble_exits_3_and_writes_nothing(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "kind": "iid-two-point",
            "params": {"alpha": 0.25, "beta": 1.0},
            "lambda": 0.2,
            "master_seed": 1,
        }))
        out = str(tmp_path / "never.json")
        code = main(["ahom", "--ensemble", str(bad), "--L", "8", "--out", out])
        assert code == EXIT_CONFIG_ERROR
        assert not os.path.exists(out)

    @pytest.mark.parametrize("ensemble", [
        {"kind": "iid-two-point", "params": {"alpha": 0.25, "beta": 0.75}},
        {"kind": "iid-two-point", "params": {"alpha": 0.25}, "master_seed": 1},
        {"kind": "iid-two-point", "params": {"alpha": 0.25, "beta": None}, "master_seed": 1},
        {"kind": "iid-uniform", "params": [0.3, 0.9], "master_seed": 1},
        {"kind": "iid-two-point", "params": {"alpha": 0.25, "beta": 0.75}, "master_seed": "x"},
        {"kind": "iid-two-point", "params": {"alpha": 0.25, "beta": 0.75}, "master_seed": 1.9},
        {"kind": "iid-two-point", "params": {"alpha": 0.25, "beta": 0.75}, "master_seed": True},
        {"kind": "iid-two-point", "params": {"alpha": 0.25, "beta": 0.75}, "master_seed": -1},
        [1, 2],
    ], ids=["no-master-seed", "no-beta", "null-beta", "params-list", "seed-string",
            "seed-float", "seed-bool", "seed-negative", "not-an-object"])
    @pytest.mark.parametrize("experiment", ["ahom", "sg"])
    def test_incomplete_ensemble_file_exits_3_and_writes_nothing(
            self, ensemble, experiment, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(ensemble))
        code = main([experiment, "--ensemble", str(bad), "--L", "4",
                     "--out", str(tmp_path / "never.json")])
        assert code == EXIT_CONFIG_ERROR
        assert "config error" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["bad.json"]

    @pytest.mark.parametrize("argv,ensemble", [
        (["cell", "--L", "4", "--seed", "-1"], None),
        (["cell", "--L", "4"], {"kind": "constant", "master_seed": -1, "params": {"value": 0.5}}),
    ], ids=["seed-flag", "constant-file"])
    def test_negative_seed_exits_3_and_writes_nothing(self, argv, ensemble, ensemble_file,
                                                      tmp_path, capsys):
        if ensemble is not None:
            ensemble_file = str(tmp_path / "negative.json")
            with open(ensemble_file, "w") as fh:
                json.dump(ensemble, fh)
        out = tmp_path / "out"
        out.mkdir()
        assert main([*argv, "--ensemble", ensemble_file,
                     "--out", str(out / "never.json")]) == EXIT_CONFIG_ERROR
        assert "master_seed must be a non-negative integer" in capsys.readouterr().err
        assert os.listdir(out) == []

    @pytest.mark.parametrize("argv", [
        ["sg", "--L", "4", "--samples", "1"],
        ["growth", "--L", "16", "--radii", "2", "4", "--samples", "1"],
        ["semigroup", "--L", "16", "--t-grid", "1", "4", "--samples", "1"],
        ["ahom", "--L", "4", "--samples", "1"],
        ["sg", "--L", "4", "--samples", "0"],
        ["green", "--L", "16", "--radii", "2", "3", "--samples", "0"],
        ["meyers", "--L", "8", "--samples", "0"],
        ["twoscale", "--L", "8", "--samples", "0"],
        ["birkhoff", "--L", "8", "--R-list", "2", "4", "--samples", "-1"],
    ], ids=["sg-1", "growth-1", "semigroup-1", "ahom-1", "sg-0", "green-0", "meyers-0",
            "twoscale-0", "birkhoff-negative"])
    def test_too_few_samples_exit_3_and_write_nothing(self, argv, ensemble_file, tmp_path,
                                                      capsys):
        # a ddof=1 standard error needs two samples (one gives NaN), every statistic one
        code = main([*argv, "--ensemble", ensemble_file, "--out", str(tmp_path / "never")])
        assert code == EXIT_CONFIG_ERROR
        assert "number of samples must be at least" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["ens.json"]

    @pytest.mark.parametrize("argv", [
        ["green", "--L", "16", "--radii", "2", "3"],
        ["meyers", "--L", "8"],
        ["birkhoff", "--L", "8", "--R-list", "2", "4"],
    ], ids=lambda argv: argv[0])
    def test_one_sample_suffices_without_a_standard_error(self, argv, ensemble_file, tmp_path):
        out = tmp_path / "one.json"
        assert main([*argv, "--samples", "1", "--ensemble", ensemble_file,
                     "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["n"] == 1

    @staticmethod
    def _birkhoff(tmp_path, monkeypatch, *flags, **edit) -> int:
        """Exit code of a ``birkhoff --config`` run in tmp_path, with ``edit``
        replacing top-level keys of a small valid config and ``flags`` added."""
        config = {"experiment": "birkhoff", "params": {"samples": 4, "R_list": [2, 4]},
                  "ensemble": {"kind": "iid-two-point", "params": {"alpha": 0.25, "beta": 0.75},
                               "lambda": 0.2, "master_seed": 5},
                  "box": {"d": 2, "L": 8}, "out": "birkhoff.json", **edit}
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        monkeypatch.chdir(tmp_path)
        return main(["birkhoff", "--config", "cfg.json", *flags])

    def test_integral_birkhoff_config_runs(self, tmp_path, monkeypatch):
        assert self._birkhoff(tmp_path, monkeypatch) == EXIT_OK
        rep = json.loads((tmp_path / "birkhoff.json").read_text())
        assert (rep["n"], rep["R_values"], rep["box"]) == (4, [2, 4], {"d": 2, "L": 8})

    @pytest.mark.parametrize("edit", [
        {"box": {"d": 2, "L": 8.9}},
        {"box": {"d": 2, "L": "8"}},
        {"box": {"d": 2.5, "L": 8}},
        {"params": {"samples": 5.7, "R_list": [2, 4]}},
        {"params": {"samples": 4, "R_list": [2.9, 4.2]}},
        {"params": {"samples": "4", "R_list": [2, 4]}},
        {"solver": {"max_iter": 5.7}},
        {"solver": {"max_iter": "500"}},
        {"box": {"d": True, "L": 8}},
        {"params": {"samples": True, "R_list": [2, 4]}},
        {"solver": {"max_iter": False}},
        {"params": {"samples": None, "R_list": [2, 4]}},
        {"params": {"samples": 4, "R_list": None}},
    ], ids=["L-float", "L-string", "d-float", "samples-float", "R-list-float",
            "samples-string", "max-iter-float", "max-iter-string", "d-bool", "samples-bool",
            "max-iter-bool", "samples-null", "R-list-null"])
    def test_non_integral_config_field_exits_3_and_writes_nothing(self, edit, tmp_path,
                                                                  monkeypatch, capsys):
        assert self._birkhoff(tmp_path, monkeypatch, **edit) == EXIT_CONFIG_ERROR
        assert "config error" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["cfg.json"]

    @pytest.mark.parametrize("out", [5, None, "a\0b.json"], ids=["int", "null", "nul-byte"])
    def test_non_string_out_exits_3_and_writes_nothing(self, out, tmp_path, monkeypatch,
                                                       capsys):
        assert self._birkhoff(tmp_path, monkeypatch, out=out) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert "config error: out must be a path string" in err and "Traceback" not in err
        assert os.listdir(tmp_path) == ["cfg.json"]

    @pytest.mark.parametrize("edit", [
        {"ensemble": {"kind": "iid-two-point", "params": {"alpha": 0.25, "beta": 0.75},
                      "lambda": "0.1", "master_seed": 5}},
        {"ensemble": {"kind": "iid-two-point", "params": {"alpha": "0.25", "beta": 0.75},
                      "lambda": 0.2, "master_seed": 5}},
        {"ensemble": {"kind": "periodic-tile", "params": {"unit_cell": [["0.5", "0.5"]]},
                      "lambda": 0.2, "master_seed": 5}},
        {"solver": {"tol": "1e-8"}},
    ], ids=["lambda", "alpha", "unit-cell", "tol"])
    def test_a_float_given_as_a_string_exits_3_and_writes_nothing(self, edit, tmp_path,
                                                                  monkeypatch, capsys):
        # float() parses "0.1", as int() parses "5"; JSON spells a number without quotes
        assert self._birkhoff(tmp_path, monkeypatch, **edit) == EXIT_CONFIG_ERROR
        assert "config error" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["cfg.json"]

    @pytest.mark.parametrize("out,flags", [
        ("", []), ("newdir/", []), (".", []), ("..", []),
        ("out", ["--out", "newdir/"]), ("out", ["--out", ""]), ("out", ["--out", "sub/.."]),
    ], ids=["config-empty", "config-dir", "config-dot", "config-dotdot", "flag-dir",
            "flag-empty", "flag-dotdot"])
    def test_an_out_that_names_no_file_exits_3_and_makes_nothing(self, out, flags, tmp_path,
                                                                 monkeypatch, capsys):
        # "" once made its temp file in the parent directory, "newdir/" left newdir
        # behind, and --out "" wrote to "out"
        work = tmp_path / "work"
        work.mkdir()
        assert self._birkhoff(work, monkeypatch, *flags, out=out) == EXIT_CONFIG_ERROR
        assert "out must be a path string that names a file" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == [work, work / "cfg.json"]  # cwd and its parent

    @pytest.mark.parametrize("edit,key", [
        ({"params": {"sampels": 3, "R_list": [2, 4]}}, "sampels"),
        ({"Box": {"d": 2, "L": 8}}, "Box"),
        ({"box": {"d": 2, "L": 8, "dim": 3}}, "dim"),
        ({"ensemble": {"kind": "iid-two-point", "params": {"alpha": 0.25, "beta": 0.75},
                       "lamda": 0.3, "master_seed": 5}}, "lamda"),
    ], ids=["param", "top-level", "box", "ensemble"])
    def test_a_key_no_reader_takes_exits_3_and_writes_nothing(self, edit, key, tmp_path,
                                                              monkeypatch, capsys):
        # a misspelt key once ran the default in its place
        assert self._birkhoff(tmp_path, monkeypatch, **edit) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert f"unknown key {key!r}" in err and "Traceback" not in err
        assert os.listdir(tmp_path) == ["cfg.json"]

    @pytest.mark.parametrize("experiment,edit,flags,key", [
        ("birkhoff", {"params": [["R_list", [2, 4]]]}, [], "params"),
        ("birkhoff", {"params": 0}, ["--R-list", "2", "4"], "params"),
        ("ahom", {"solver": [["tol", 1e-6]]}, [], "solver"),
        ("ahom", {"solver": False}, [], "solver"),
        ("ahom", {"box": 0}, ["--L", "8"], "box"),
        ("ahom", {"ensemble": []}, ["--ensemble", "ens.json"], "ensemble"),
        ("ahom", {"ensemble": None}, ["--ensemble", "pairs.json"],
         "iid-two-point ensemble params"),
    ], ids=["params-pairs", "params-0", "solver-pairs", "solver-false", "box-0",
            "ensemble-empty", "ensemble-file-params-pairs"])
    def test_a_value_that_is_not_an_object_exits_3_and_writes_nothing(
            self, experiment, edit, flags, key, tmp_path, monkeypatch, capsys):
        # each once ran: a falsy value read as not given, a list of pairs as an object
        ensemble = {"kind": "iid-two-point", "params": {"alpha": 0.25, "beta": 0.75},
                    "master_seed": 5}
        config = {"experiment": experiment, "params": {"samples": 2}, "ensemble": ensemble,
                  "box": {"d": 2, "L": 4}, **edit}
        pairs = {**ensemble, "params": [["alpha", 0.25], ["beta", 0.75]]}
        for name, obj in [("cfg.json", config), ("ens.json", ensemble), ("pairs.json", pairs)]:
            (tmp_path / name).write_text(json.dumps(obj))
        monkeypatch.chdir(tmp_path)
        code = main([experiment, "--config", "cfg.json", *flags, "--out", "out/result"])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG_ERROR
        assert f"config error: {key} must be an object" in err and "Traceback" not in err
        assert sorted(os.listdir(tmp_path)) == ["cfg.json", "ens.json", "pairs.json"]

    @pytest.mark.parametrize("ensemble,message", [
        ({"kind": "iid-two-point", "params": {"alpha": 0.25}, "master_seed": 1}, "bad beta None"),
        ({"kind": "iid-two-point", "params": {"alpha": 0.25, "beta": 0.75}},
         "bad master_seed None"),
        ({"kind": "correlated-two-point",
          "params": {"alpha": 0.25, "beta": 0.75, "radius": 1.5}, "master_seed": 1},
         "bad radius 1.5: 'float' object cannot be interpreted as an integer"),
    ], ids=["no-beta", "no-master-seed", "float-radius"])
    def test_a_conversion_error_names_its_field(self, ensemble, message, tmp_path, capsys):
        path = tmp_path / "ens.json"
        path.write_text(json.dumps(ensemble))
        code = main(["ahom", "--ensemble", str(path), "--L", "4", "--samples", "2",
                     "--out", str(tmp_path / "never.json")])
        assert code == EXIT_CONFIG_ERROR
        assert f"config error: {message}" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["ens.json"]

    @pytest.mark.parametrize("experiment", ["cell", "corrector"])
    def test_a_misspelt_sample_exits_3_and_writes_nothing(self, experiment, ensemble_file,
                                                          tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": experiment, "params": {"smaple": 3}}))
        code = main([experiment, "--config", str(path), "--ensemble", ensemble_file,
                     "--L", "4", "--out", str(tmp_path / "out.json")])
        assert code == EXIT_CONFIG_ERROR
        assert "unknown key 'smaple'" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["cfg.json", "ens.json"]

    def test_a_misspelt_ensemble_file_key_exits_3_and_writes_nothing(self, tmp_path, capsys):
        path = tmp_path / "ens.json"
        path.write_text(json.dumps({"kind": "iid-two-point",
                                    "params": {"alpha": 0.25, "beta": 0.75},
                                    "lamda": 0.3, "master_seed": 1}))
        code = main(["ahom", "--ensemble", str(path), "--L", "4", "--samples", "2",
                     "--out", str(tmp_path / "ahom.json")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG_ERROR
        # the message is the reader's own, not wrapped in a second ParameterError
        assert "config error: ensemble: unknown key 'lamda'" in err and "ParameterError" not in err
        assert os.listdir(tmp_path) == ["ens.json"]

    @pytest.mark.parametrize("kernel,message", [
        ({"radius": 1.7}, "cannot be interpreted as an integer"),
        ({"decay": -50}, "decay=-50.0"),
        ({"decay": float("inf")}, "decay=inf"),
    ], ids=["radius-float", "decay-negative", "decay-inf"])
    def test_bad_kernel_exits_3_before_sampling(self, kernel, message, tmp_path, capsys,
                                                monkeypatch):
        def no_sample(*args):
            raise AssertionError("sampled before checking the kernel")

        monkeypatch.setattr(homoglab.ensembles, "sample", no_sample)
        ens = tmp_path / "ens.json"
        ens.write_text(json.dumps({
            "kind": "correlated-two-point",
            "params": {"alpha": 0.25, "beta": 0.75, **kernel},
            "lambda": 0.2,
            "master_seed": 1,
        }))
        code = main(["ahom", "--ensemble", str(ens), "--L", "4", "--samples", "2",
                     "--out", str(tmp_path / "never.json")])
        assert code == EXIT_CONFIG_ERROR
        assert message in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["ens.json"]

    @pytest.mark.parametrize("alpha", ["0", "-1", "nan", "inf"])
    def test_bad_alpha_exits_3_before_the_first_solve(self, alpha, ensemble_file, tmp_path,
                                                      capsys, monkeypatch):
        def no_solve(*args):
            raise AssertionError("solved a corrector before checking alpha")

        monkeypatch.setattr(homoglab.twoscale, "corrector_set", no_solve)
        code = main(["twoscale", "--ensemble", ensemble_file, "--L", "8", "--samples", "2",
                     "--alpha", alpha, "--out", str(tmp_path / "never.json")])
        assert code == EXIT_CONFIG_ERROR
        assert "alpha must be positive and finite" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["ens.json"]

    def test_missing_box_is_config_error(self, ensemble_file, tmp_path):
        code = main(["ahom", "--ensemble", ensemble_file,
                     "--out", str(tmp_path / "x.json")])
        assert code == EXIT_CONFIG_ERROR

    @pytest.mark.parametrize("argv,message", [
        (["ahom", "--L", "4"], "ahom: --ensemble is required"),
        (["ahom", "--L", "4", "--seed", "3"], "--seed needs an ensemble"),
    ], ids=["no-ensemble", "seed-without-ensemble"])
    def test_missing_ensemble_exits_3_and_writes_nothing(self, argv, message, tmp_path,
                                                        capsys):
        assert main([*argv, "--out", str(tmp_path / "ahom.json")]) == EXIT_CONFIG_ERROR
        assert message in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_config_for_another_experiment_exits_3_and_writes_nothing(
            self, ensemble_file, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "ahom", "params": {"samples": 2}}))
        code = main(["birkhoff", "--config", str(path), "--ensemble", ensemble_file,
                     "--L", "4", "--out", str(tmp_path / "out.json")])
        assert code == EXIT_CONFIG_ERROR
        assert "config is for 'ahom', invoked as 'birkhoff'" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["cfg.json", "ens.json"]

    @pytest.mark.parametrize("tol", ["1e-300", "9e-14"])
    def test_unreachable_tol_exits_3_before_any_solve(self, tol, ensemble_file, tmp_path,
                                                     capsys, monkeypatch):
        # below CG's reach, a solve would run to its cap of 50 iterations per site
        def no_solve(*args, **kwargs):
            raise AssertionError("solved with a tol below the floor")

        monkeypatch.setattr(homoglab.elliptic, "cg_solve", no_solve)
        code = main(["corrector", "--L", "8", "--tol", tol, "--ensemble", ensemble_file,
                     "--out", str(tmp_path / "never.csv")])
        assert code == EXIT_CONFIG_ERROR
        assert "tol must be a number in [1e-13, inf)" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["ens.json"]

    def test_cell_runs_with_tile_ensemble(self, tmp_path):
        ens = tmp_path / "tile.json"
        cell = [[0.3, 0.3], [0.7, 0.7], [0.5, 0.5], [0.4, 0.4]]
        ens.write_text(json.dumps({
            "kind": "periodic-tile",
            "params": {"unit_cell": cell},
            "lambda": 0.2,
            "master_seed": 0,
        }))
        out = str(tmp_path / "cell.json")
        code = main(["cell", "--ensemble", str(ens), "--L", "4", "--out", out])
        assert code == EXIT_OK
        rep = json.loads(open(out).read())
        assert rep["properties"]["ellipticity_pass"]

    def test_ahom_solver_failure_exits_2(self, ensemble_file, tmp_path, monkeypatch):
        # an operator CG cannot converge on: it stops at its cap of 50 iterations per site
        monkeypatch.setattr(homoglab.elliptic, "_elliptic_op",
                            lambda a, shift: ill_conditioned_op(a.box))
        out = str(tmp_path / "ahom.json")
        code = main(["ahom", "--ensemble", ensemble_file, "--L", "8", "--samples", "2",
                     "--out", out])
        assert code == EXIT_SOLVER_FAILURE
        assert not os.path.exists(out)

    @pytest.mark.parametrize("d,L", [(2, 100000), (3, 162)])
    def test_box_beyond_max_sites_exits_3_and_writes_nothing(self, d, L, ensemble_file,
                                                             tmp_path, capsys, monkeypatch):
        # at L=100000, d=2 a draw alone would ask for 149 GiB
        def no_sample(*args):
            raise AssertionError("drew a box of more than MAX_SITES sites")

        monkeypatch.setattr(homoglab.cli, "sample", no_sample)
        monkeypatch.setattr(homoglab.ensembles, "sample", no_sample)
        out = tmp_path / "out"
        out.mkdir()
        code = main(["corrector", "--ensemble", ensemble_file, "--d", str(d), "--L", str(L),
                     "--out", str(out / "set.csv")])
        assert code == EXIT_CONFIG_ERROR
        assert f"more than {2**22} sites" in capsys.readouterr().err
        assert os.listdir(out) == []

    @pytest.mark.parametrize("d,L", [(2, 33), (3, 11)])
    def test_sg_box_beyond_max_dense_sites_exits_3_and_writes_nothing(
            self, d, L, ensemble_file, tmp_path, capsys, monkeypatch):
        # each sample inverts a dense N x N cell matrix: 1089 and 1331 sites are too many
        def no_inverse(*args):
            raise AssertionError("inverted a cell matrix of more than MAX_DENSE_SITES sites")

        monkeypatch.setattr(np.linalg, "inv", no_inverse)
        out = tmp_path / "out"
        out.mkdir()
        code = main(["sg", "--ensemble", ensemble_file, "--d", str(d), "--L", str(L),
                     "--samples", "2", "--out", str(out / "sg.json")])
        assert code == EXIT_CONFIG_ERROR
        assert f"{L**d} sites is more than 1024" in capsys.readouterr().err
        assert os.listdir(out) == []

    def test_green_box_too_small_for_default_radii_exits_3(self, ensemble_file, tmp_path,
                                                              capsys):
        out = str(tmp_path / "green.json")
        code = main(["green", "--ensemble", ensemble_file, "--L", "8", "--samples", "2",
                     "--out", out])
        assert code == EXIT_CONFIG_ERROR
        assert "--radii" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["ens.json"]

    def test_green_non_positive_profile_exits_3_and_writes_nothing(
            self, ensemble_file, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(homoglab.quant, "green", constant_green)
        out = str(tmp_path / "green.json")
        code = main(["green", "--ensemble", ensemble_file, "--d", "3", "--L", "16",
                     "--radii", "2", "3", "--samples", "2", "--out", out])
        assert code == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert "--radii" in err and "--L" in err
        assert os.listdir(tmp_path) == ["ens.json"]

    @pytest.mark.parametrize("argv,message", [
        (["green", "--d", "3", "--L", "16", "--radii", "2"], "two distinct values"),
        (["semigroup", "--L", "32", "--t-grid", "4"], "two distinct values"),
        (["birkhoff", "--L", "16", "--R-list", "8"], "two distinct values"),
        (["growth", "--d", "2", "--L", "16", "--radii", "4"], "two distinct values"),
        (["green", "--d", "3", "--L", "16", "--radii", "0", "2"], "must be positive"),
        (["semigroup", "--L", "32", "--t-grid", "0", "4"], "must be positive"),
        (["birkhoff", "--L", "16", "--R-list", "0", "4"], "must be positive"),
        (["green", "--d", "3", "--L", "16", "--radii", "2", "2", "4"], "must be distinct"),
        (["growth", "--L", "16", "--radii", "2", "8"],
         "radii value 8 outside the periodization window L/4 = 4"),
    ], ids=["green", "semigroup", "birkhoff", "growth", "green-zero", "semigroup-zero",
            "birkhoff-zero", "green-repeated", "growth-beyond-window"])
    def test_single_point_fit_exits_3_before_sampling(self, argv, message, ensemble_file,
                                                      tmp_path, capfd, monkeypatch):
        def no_sample(*args):
            raise AssertionError("sampled before checking the fit grid")

        monkeypatch.setattr(homoglab.ensembles, "sample", no_sample)
        code = main([*argv, "--ensemble", ensemble_file, "--samples", "2",
                     "--out", str(tmp_path / "out.json")])
        assert code == EXIT_CONFIG_ERROR
        err = capfd.readouterr().err  # at the file descriptor, where LAPACK prints
        assert message in err and "DLASCL" not in err
        assert os.listdir(tmp_path) == ["ens.json"]

    @pytest.mark.parametrize("argv", [
        ["growth", "--p", "notanint"],
        ["growth", "--no-such-flag", "1"],
        ["teleport"],
        [],
    ])
    def test_usage_error_exits_3(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_CONFIG_ERROR

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["sg", "--help"]])
    def test_help_and_version_exit_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_OK

    @pytest.mark.parametrize("out", ["existing-dir", "regular-file/x.json"])
    def test_unwritable_out_exits_3_and_writes_nothing(self, out, ensemble_file, tmp_path,
                                                       capsys):
        (tmp_path / "existing-dir").mkdir()
        (tmp_path / "regular-file").write_text("")
        before = sorted(tmp_path.rglob("*"))
        code = main(["sg", "--ensemble", ensemble_file, "--d", "2", "--L", "4",
                     "--samples", "2", "--out", str(tmp_path / out)])
        assert code == EXIT_CONFIG_ERROR
        assert "config error" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("failing_call", [2, 3], ids=["meta-json", "manifest"])
    def test_outputs_commit_together(self, failing_call, ensemble_file, tmp_path, monkeypatch,
                                     capsys):
        # every output and the manifest are complete before the first rename, so a
        # failure on the way leaves no output, no manifest and no temp file
        calls = []

        def failing_open(path, mode="r", *args, **kwargs):
            if mode == "xb":  # a temp file of _atomic_write
                calls.append(path)
                if len(calls) == failing_call:
                    raise OSError(errno.ENOSPC, "No space left on device")
            return open(path, mode, *args, **kwargs)

        monkeypatch.setattr(homoglab.cli, "open", failing_open, raising=False)
        out = tmp_path / "run" / "corrector.csv"
        code = main(["corrector", "--ensemble", ensemble_file, "--L", "8", "--out", str(out)])
        assert code == EXIT_CONFIG_ERROR
        assert "No space left on device" in capsys.readouterr().err
        assert len(calls) == failing_call and os.listdir(out.parent) == []

    def test_a_directory_at_an_output_path_exits_3_and_changes_no_path(self, ensemble_file,
                                                                       tmp_path, capsys):
        # every path is checked before the first rename, so the CSV, renamed before
        # its meta file, is not left behind without it or a manifest
        out = tmp_path / "c.csv"
        (tmp_path / "c.csv.meta.json").mkdir()
        code = main(["corrector", "--ensemble", ensemble_file, "--L", "8", "--out", str(out)])
        assert code == EXIT_CONFIG_ERROR
        assert "directory" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["c.csv.meta.json", "ens.json"]

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)],
                             ids=["umask-022", "umask-027"])
    def test_outputs_get_the_mode_open_gives(self, umask, mode, ensemble_file, tmp_path):
        # 0o666 less the umask, as open(path, "w") creates a file, not mkstemp's 0o600
        probe = ("import os, sys\n"
                 f"os.umask({umask})\n"
                 "from homoglab import cli\n"
                 "sys.exit(cli.main(sys.argv[1:]))\n")
        done = _python(["-c", probe, *SMALLEST["corrector"], "--ensemble", ensemble_file,
                        "--out", "c.csv"], tmp_path)
        assert done.returncode == EXIT_OK, done.stderr
        written = ["c.csv", "c.csv.meta.json", "c.csv.manifest.json"]
        assert [stat.S_IMODE(os.stat(tmp_path / name).st_mode) for name in written] == [mode] * 3

    def test_corrector_writes_csv_and_meta(self, ensemble_file, tmp_path):
        out = str(tmp_path / "set.csv")
        code = main(["corrector", "--ensemble", ensemble_file, "--L", "8",
                     "--dir", "0", "--out", out])
        assert code == EXIT_OK
        head = open(out).readline().strip()
        assert head.startswith("site,x1,x2,phi,q_1,q_2,sigma_12")
        meta = json.loads(open(out + ".meta.json").read())
        assert len(meta["ahom_row"]) == 2
        assert all(r["converged"] for r in meta["solver_reports"])

    @pytest.mark.parametrize("d, L", [(2, 16), (3, 6)])
    def test_the_corrector_table_reads_back_to_the_fields(self, d, L, ensemble_file, tmp_path,
                                                          monkeypatch):
        # np.loadtxt reads phi, q and the upper triangle of sigma back bit for bit
        solved = []
        solve = homoglab.cli.corrector_set
        monkeypatch.setattr(homoglab.cli, "corrector_set",
                            lambda *args: solved.append(solve(*args)) or solved[-1])
        out = tmp_path / "set.csv"
        assert main(["corrector", "--ensemble", ensemble_file, "--d", str(d), "--L", str(L),
                     "--out", str(out)]) == EXIT_OK
        (cs,) = solved
        pairs = [(j, k) for j in range(d) for k in range(j + 1, d)]
        fields = np.column_stack([cs.phi.values, cs.q.values,
                                  *(cs.sigma.values[:, j, k] for j, k in pairs)])
        table = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.array_equal(table[:, :1 + d], np.column_stack(
            [np.arange(L**d), cs.phi.box.coordinate_arrays()]))
        assert np.array_equal(table[:, 1 + d:].view(np.uint64), fields.view(np.uint64))

    def test_the_corrector_table_streams_to_disk(self, ensemble_file, tmp_path, monkeypatch):
        # from the end of the solve, formatting and writing hold a block of rows
        # at a time, never the whole table
        execute = homoglab.cli._execute

        def execute_then_trace(cfg, threads):
            done = execute(cfg, threads)
            tracemalloc.start()
            return done

        monkeypatch.setattr(homoglab.cli, "_execute", execute_then_trace)
        out = tmp_path / "corrector.csv"
        try:
            assert main(["corrector", "--ensemble", ensemble_file, "--d", "2", "--L", "256",
                         "--out", str(out)]) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.stat().st_size / 2


class TestDeterminismAndReplay:
    def test_identical_config_gives_identical_bytes(self, ensemble_file, tmp_path):
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        for out in (out1, out2):
            code = main(["twoscale", "--ensemble", ensemble_file, "--L", "8",
                         "--samples", "3", "--alpha", "0.1",
                         "--out", out])
            assert code == EXIT_OK
        assert open(out1, "rb").read() == open(out2, "rb").read()

    @pytest.mark.parametrize("argv", [
        ["ahom", "--L", "8", "--samples", "4"],
        ["twoscale", "--L", "8", "--samples", "4"],
        ["growth", "--L", "16", "--radii", "2", "4", "--samples", "4"],
        ["sg", "--d", "2", "--L", "4", "--samples", "6"],
        ["semigroup", "--L", "16", "--t-grid", "1", "4", "--samples", "8"],
        ["green", "--L", "16", "--radii", "2", "3", "4", "--samples", "2"],
        ["meyers", "--L", "8", "--samples", "4"],
        ["birkhoff", "--L", "8", "--R-list", "2", "4", "--samples", "8"],
    ], ids=lambda argv: argv[0])
    def test_thread_count_does_not_change_bytes(self, argv, ensemble_file, tmp_path,
                                                monkeypatch):
        # one relative --out name in two directories: JSON results record it
        for threads in ("1", "4"):
            (tmp_path / threads).mkdir()
            monkeypatch.chdir(tmp_path / threads)
            code = main([*argv, "--ensemble", ensemble_file, "--threads", threads,
                         "--out", "result"])
            assert code == EXIT_OK
        assert (tmp_path / "1" / "result").read_bytes() == (tmp_path / "4" / "result").read_bytes()
        summaries = [json.loads((tmp_path / t / "result.manifest.json").read_text())
                     ["solver_summary"] for t in ("1", "4")]
        assert summaries[0] == summaries[1]

    @pytest.mark.parametrize("d,L", [(2, 4), (3, 3)])
    def test_sg_bytes_equal_at_one_two_and_three_threads(self, d, L, ensemble_file, tmp_path,
                                                         monkeypatch):
        # two full runs of samples and a short third, split over the workers
        n = 2 * homoglab.quant._SG_BLOCK + 3
        written = []
        for threads in ("1", "2", "3"):
            (tmp_path / threads).mkdir()
            monkeypatch.chdir(tmp_path / threads)
            assert main(["sg", "--d", str(d), "--L", str(L), "--samples", str(n),
                         "--ensemble", ensemble_file, "--threads", threads,
                         "--out", "sg.json"]) == EXIT_OK
            written.append((tmp_path / threads / "sg.json").read_bytes())
        assert written[0] == written[1] == written[2]

    def test_every_row_carries_its_sample_id(self, ensemble_file, tmp_path):
        out = str(tmp_path / "ts.csv")
        main(["twoscale", "--ensemble", ensemble_file, "--L", "8",
              "--samples", "3", "--out", out])
        rows = open(out).read().strip().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["0", "1", "2"]

    @pytest.mark.parametrize("argv", [
        ["corrector", "--d", "2", "--L", "32"],
        ["corrector", "--d", "2", "--L", "128"],  # 16384 rows: four blocks
        ["corrector", "--d", "3", "--L", "6"],
        ["twoscale", "--L", "8", "--samples", "3"],
        ["oned"],
    ], ids=["corrector", "corrector-4-blocks", "corrector-d3", "twoscale", "oned"])
    def test_csv_bytes_equal_the_per_value_writer(self, argv, ensemble_file, oned_config,
                                                  tmp_path, monkeypatch):
        def reference_writer(header, columns):
            yield reference_csv_text(header, columns).encode()

        inputs = ["--config", oned_config] if argv[0] == "oned" else ["--ensemble", ensemble_file]
        written = []
        for writer in (_CsvText, reference_writer):
            monkeypatch.setattr(homoglab.cli, "_CsvText", writer)
            out = tmp_path / f"{writer.__name__}.csv"
            assert main([*argv, *inputs, "--out", str(out)]) == EXIT_OK
            written.append(out.read_bytes())
        assert written[0] == written[1]

    def test_replay_holds_no_more_than_the_run(self, ensemble_file, tmp_path, monkeypatch):
        # replay hashes each output as it is formatted, as run writes it, and keeps
        # no whole copy of it
        monkeypatch.chdir(tmp_path)
        argv = ["corrector", "--ensemble", ensemble_file, "--d", "2", "--L", "256",
                "--out", "c.csv"]
        assert main(argv) == EXIT_OK  # loads every module, so neither traced call imports
        peaks = []
        for call in (argv, ["replay", "c.csv.manifest.json"]):
            tracemalloc.start()
            try:
                assert main(call) == EXIT_OK
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + 2**20

    def test_replay_immediately_after_run(self, ensemble_file, tmp_path):
        out = str(tmp_path / "ahom.json")
        main(["ahom", "--ensemble", ensemble_file, "--L", "8", "--samples", "3",
              "--out", out])
        code = main(["replay", out + ".manifest.json"])
        assert code == EXIT_OK

    def test_precond_none_manifest_replays(self, ensemble_file, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for precond, out in ((["--precond", "none"], "none.json"), ([], "default.json")):
            assert main(["ahom", "--ensemble", ensemble_file, "--L", "8", "--samples", "2",
                         *precond, "--out", out]) == EXIT_OK
        none, default = (json.loads((tmp_path / (out + ".manifest.json")).read_text())
                         for out in ("none.json", "default.json"))
        assert none["config"]["solver"]["preconditioner"] == "none"
        assert default["config"]["solver"]["preconditioner"] == "spectral"
        # plain CG needs more iterations, so the replay below reruns plain CG
        assert (none["solver_summary"]["total_iterations"]
                > default["solver_summary"]["total_iterations"])
        assert main(["replay", "none.json.manifest.json"]) == EXIT_OK

    @pytest.mark.parametrize("experiment,out", [("cell", "cell.json"),
                                                ("corrector", "set.csv")])
    def test_manifest_with_an_unread_samples_param_replays(self, experiment, out,
                                                           ensemble_file, tmp_path,
                                                           monkeypatch):
        # cell and corrector once took --samples and ignored it; manifests
        # that recorded it must still replay
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps(
            {"experiment": experiment, "params": {"samples": 5}, "out": out}))
        assert main([experiment, "--config", "cfg.json", "--ensemble", ensemble_file,
                     "--L", "4"]) == EXIT_OK
        manifest = json.loads((tmp_path / (out + ".manifest.json")).read_text())
        assert manifest["config"]["params"] == {"samples": 5}
        assert main(["replay", out + ".manifest.json"]) == EXIT_OK

    def test_manifest_of_0_7_0_replays_exactly(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "m.json").write_text(json.dumps(MANIFEST_0_7_0))
        ok, report = replay("m.json")
        assert ok, report

    def test_replay_with_different_thread_count(self, ensemble_file, tmp_path):
        out = str(tmp_path / "ahom.json")
        main(["ahom", "--ensemble", ensemble_file, "--L", "8", "--samples", "4",
              "--out", out])
        ok, report = replay(out + ".manifest.json", threads=4)
        assert ok and report["max_abs_deviation"] == 0.0

    @pytest.mark.parametrize("argv,written_at,replayed_at", [
        (["corrector", "--d", "2", "--L", "128", "--out", "corrector.csv"], "1", "2"),
        (["green", "--d", "3", "--L", "16", "--radii", "2", "3", "4", "--samples", "2",
          "--out", "green.json"], "1", "2"),
        # README: a run holds numpy's OpenBLAS at one thread, so sg's dense inverse
        # has the same bits at any OPENBLAS_NUM_THREADS, at every box size
        (["sg", "--d", "2", "--L", "8", "--samples", "19", "--out", "sg.json"], "1", "2"),
        (["sg", "--d", "2", "--L", "12", "--samples", "19", "--out", "sg.json"], "1", "2"),
        (["sg", "--d", "2", "--L", "16", "--samples", "19", "--out", "sg.json"], "2", "1"),
    ], ids=["corrector", "green-spectral", "sg-d2-L8", "sg-d2-L12", "sg-d2-L16-written-at-2"])
    def test_replay_is_exact_across_blas_thread_counts(self, argv, written_at, replayed_at,
                                                       ensemble_file, tmp_path):
        written = _python(["-m", "homoglab.cli", *argv, "--ensemble", ensemble_file],
                          tmp_path, OPENBLAS_NUM_THREADS=written_at)
        assert written.returncode == EXIT_OK, written.stderr
        replayed = _python(["-m", "homoglab.cli", "replay", argv[-1] + ".manifest.json"],
                           tmp_path, OPENBLAS_NUM_THREADS=replayed_at)
        assert replayed.returncode == EXIT_OK, replayed.stdout + replayed.stderr

    def test_cli_import_loads_no_scipy_integrate_or_optimize(self, tmp_path):
        probe = ("import sys, homoglab.cli; "
                 "print([m for m in ('scipy.integrate', 'scipy.optimize', 'scipy.linalg', "
                 "'fractions', 'decimal') if m in sys.modules])")
        done = _python(["-c", probe], tmp_path)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_import_loads_no_scipy(self, tmp_path):
        probe = ("import sys, homoglab, homoglab.cli; "
                 "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
        done = _python(["-c", probe], tmp_path)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    @pytest.mark.parametrize("experiment, threads", [*((name, 1) for name in EXPERIMENTS),
                                                     ("ahom", 2)])
    def test_a_run_imports_nothing(self, experiment, threads, ensemble_file, oned_config,
                                   tmp_path):
        # the config step loads every module the run needs, so no worker imports and
        # wall_time_s times the experiment alone; no experiment needs scipy
        inputs = ["--config", oned_config] if experiment == "oned" else [
            "--ensemble", ensemble_file]
        done = _python(["-c", RUN_PROBE, *SMALLEST[experiment], *inputs,
                        "--threads", str(threads)], tmp_path)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert result["added"] == []
        assert result["scipy"] == []

    @pytest.mark.parametrize("argv", [["green", "--d", "3", "--L", "16", "--radii", "2", "3",
                                       "--samples", "1"],
                                      ["corrector", "--d", "2", "--L", "32"]],
                             ids=lambda argv: argv[0])
    def test_runs_without_scipy(self, argv, ensemble_file, tmp_path):
        # a None entry in sys.modules makes every import of scipy raise ImportError
        probe = ("import sys\n"
                 "sys.modules['scipy'] = None\n"
                 "from homoglab import cli\n"
                 "sys.exit(cli.main(sys.argv[1:]))\n")
        done = _python(["-c", probe, *argv, "--ensemble", ensemble_file, "--out", "out"],
                       tmp_path)
        assert done.returncode == EXIT_OK, done.stderr

    def test_replay_loads_numpy_fft_before_the_run(self, ensemble_file, tmp_path):
        out = str(tmp_path / "green.json")
        assert main([*SMALLEST["green"], "--ensemble", ensemble_file, "--out", out]) == EXIT_OK
        probe = ("import sys\n"
                 "from homoglab import cli\n"
                 "execute = cli._execute\n"
                 "def recording(cfg, threads):\n"
                 "    print('numpy.fft' in sys.modules)\n"
                 "    return execute(cfg, threads)\n"
                 "cli._execute = recording\n"
                 "sys.exit(cli.main(['replay', sys.argv[1]]))\n")
        done = _python(["-c", probe, out + ".manifest.json"], tmp_path)
        assert done.returncode == EXIT_OK, done.stdout + done.stderr
        assert done.stdout.splitlines()[0] == "True"

    def test_replay_solver_failure_exits_2(self, ensemble_file, tmp_path, capsys):
        out = str(tmp_path / "twoscale.csv")
        assert main(["twoscale", "--ensemble", ensemble_file, "--L", "8", "--samples", "2",
                     "--out", out]) == EXIT_OK
        mpath = out + ".manifest.json"
        manifest = json.loads(open(mpath).read())
        manifest["config"]["params"]["alpha"] = 1e100  # CG breaks down (see the test below)
        open(mpath, "w").write(json.dumps(manifest))
        capsys.readouterr()
        assert main(["replay", mpath]) == EXIT_SOLVER_FAILURE
        assert "solver failure" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", ["1e40", "1e100"])
    def test_cg_breakdown_exits_2_and_writes_nothing(self, alpha, ensemble_file, tmp_path,
                                                     capsys):
        # the float32 preconditioner rounds 1/(alpha + symbol) to 0, so p^T A p = 0
        out = tmp_path / "out"
        out.mkdir()
        assert main(["twoscale", "--L", "8", "--samples", "2", "--alpha", alpha,
                     "--ensemble", ensemble_file,
                     "--out", str(out / "never.csv")]) == EXIT_SOLVER_FAILURE
        assert "CG breakdown" in capsys.readouterr().err
        assert os.listdir(out) == []

    @pytest.mark.parametrize("edit", [
        lambda m: m.pop("outputs"),
        lambda m: m.pop("config"),
        lambda m: m.update(outputs=["ahom.json"]),
        lambda m: m.update(config=None),
        lambda m: m["outputs"].update(dict.fromkeys(m["outputs"], 5)),
        lambda m: m["outputs"].update(dict.fromkeys(m["outputs"], None)),
    ], ids=["no-outputs", "no-config", "outputs-list", "config-null", "hash-int", "hash-null"])
    def test_malformed_manifest_exits_3(self, edit, ensemble_file, tmp_path, capsys):
        out = str(tmp_path / "ahom.json")
        assert main(["ahom", "--ensemble", ensemble_file, "--L", "4", "--samples", "2",
                     "--out", out]) == EXIT_OK
        mpath = out + ".manifest.json"
        manifest = json.loads(open(mpath).read())
        edit(manifest)
        open(mpath, "w").write(json.dumps(manifest))
        capsys.readouterr()
        assert main(["replay", mpath]) == EXIT_CONFIG_ERROR
        assert "malformed manifest" in capsys.readouterr().err

    @pytest.mark.parametrize("bad_out", [5, "a\0b.json", "", "newdir/", ".."],
                             ids=["int", "nul-byte", "empty", "directory", "dotdot"])
    def test_manifest_with_a_bad_out_exits_3(self, bad_out, ensemble_file, tmp_path, capsys):
        out = str(tmp_path / "ahom.json")
        assert main(["ahom", "--ensemble", ensemble_file, "--L", "4", "--samples", "2",
                     "--out", out]) == EXIT_OK
        mpath = out + ".manifest.json"
        manifest = json.loads(open(mpath).read())
        manifest["config"]["out"] = bad_out
        open(mpath, "w").write(json.dumps(manifest))
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        capsys.readouterr()
        assert main(["replay", mpath]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert "replay error: out must be a path string" in err and "Traceback" not in err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_manifest_with_site_zero_anchor_exits_3(self, ensemble_file, tmp_path, capsys):
        out = str(tmp_path / "ahom.json")
        assert main(["ahom", "--ensemble", ensemble_file, "--L", "4", "--samples", "2",
                     "--out", out]) == EXIT_OK
        mpath = out + ".manifest.json"
        manifest = json.loads(open(mpath).read())
        assert manifest["config"]["solver"]["anchor"] == "mean-zero"
        manifest["config"]["solver"]["anchor"] = "site-zero"
        open(mpath, "w").write(json.dumps(manifest))
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        capsys.readouterr()
        assert main(["replay", mpath]) == EXIT_CONFIG_ERROR
        assert "replay error: the solver's anchor" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_manifest_with_max_iter_exits_3(self, ensemble_file, tmp_path, capsys):
        out = str(tmp_path / "ahom.json")
        assert main(["ahom", "--ensemble", ensemble_file, "--L", "4", "--samples", "2",
                     "--out", out]) == EXIT_OK
        mpath = out + ".manifest.json"
        manifest = json.loads(open(mpath).read())
        assert manifest["config"]["solver"]["max_iter"] is None
        manifest["config"]["solver"]["max_iter"] = 2
        open(mpath, "w").write(json.dumps(manifest))
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        capsys.readouterr()
        assert main(["replay", mpath]) == EXIT_CONFIG_ERROR
        assert "replay error: the solver's max_iter must be null" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_replay_detects_tampered_seed(self, ensemble_file, tmp_path):
        out = str(tmp_path / "ahom.json")
        main(["ahom", "--ensemble", ensemble_file, "--L", "8", "--samples", "3",
              "--out", out])
        mpath = out + ".manifest.json"
        manifest = json.loads(open(mpath).read())
        manifest["config"]["ensemble"]["master_seed"] = 999
        open(mpath, "w").write(json.dumps(manifest))
        code = main(["replay", mpath])
        assert code == EXIT_REPLAY_MISMATCH

    def test_replay_reports_each_file_and_matches_only_if_all_are_identical(
            self, ensemble_file, tmp_path):
        out = str(tmp_path / "ahom.json")
        assert main(["ahom", "--ensemble", ensemble_file, "--L", "4", "--samples", "2",
                     "--out", out]) == EXIT_OK
        mpath = out + ".manifest.json"
        manifest = json.loads(open(mpath).read())
        sha = manifest["outputs"][out]
        for outputs, statuses in (
                ({out: sha, "extra.json": sha}, {out: "identical", "extra.json": "missing"}),
                ({out: "0" * 64}, {out: "differs"}),
                ({out: sha}, {out: "identical"}),
                ({}, {out: "unrecorded"})):
            manifest["outputs"] = outputs
            open(mpath, "w").write(json.dumps(manifest))
            ok, report = replay(mpath)
            assert {name: e["status"] for name, e in report["files"].items()} == statuses
            assert ok is report["match"] is (set(statuses.values()) == {"identical"})
            assert report["files"][out]["recomputed_sha256"] == sha

    def test_replay_reports_numeric_deviation(self, ensemble_file, tmp_path):
        out = str(tmp_path / "ahom.json")
        main(["ahom", "--ensemble", ensemble_file, "--L", "8", "--samples", "3",
              "--out", out])
        mpath = out + ".manifest.json"
        manifest = json.loads(open(mpath).read())
        manifest["config"]["ensemble"]["master_seed"] = 999
        open(mpath, "w").write(json.dumps(manifest))
        ok, report = replay(mpath)
        assert not ok
        assert report["max_abs_deviation"] > 0.0

    def test_a_file_with_another_count_of_numbers_deviates_by_infinity(self, ensemble_file,
                                                                       tmp_path, capsys):
        out = str(tmp_path / "birkhoff.json")
        assert main(["birkhoff", "--ensemble", ensemble_file, "--L", "8", "--samples", "2",
                     "--R-list", "2", "4", "--out", out]) == EXIT_OK
        mpath = out + ".manifest.json"
        manifest = json.loads(open(mpath).read())
        manifest["config"]["params"]["R_list"] = [2, 4, 8]  # one more rms, fit value, R
        open(mpath, "w").write(json.dumps(manifest))
        capsys.readouterr()
        assert main(["replay", mpath]) == EXIT_REPLAY_MISMATCH
        report = json.loads(capsys.readouterr().out)
        assert report["files"][out]["max_abs_deviation"] == report["max_abs_deviation"] == np.inf

    def test_deviation_is_measured_only_against_the_recorded_file(self, ensemble_file,
                                                                  tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["ahom", "--ensemble", ensemble_file, "--L", "8", "--out", "a.json"]
        assert main([*argv, "--samples", "4"]) == EXIT_OK
        manifest = json.loads((tmp_path / "a.json.manifest.json").read_text())
        assert main([*argv, "--samples", "6", "--seed", "9"]) == EXIT_OK  # over the same path
        manifest["outputs"]["a.json"] = "0" * 64  # as an older version would have recorded it
        (tmp_path / "old.manifest.json").write_text(json.dumps(manifest))
        ok, report = replay("old.manifest.json")
        assert not ok and report["files"]["a.json"]["status"] == "differs"
        assert "max_abs_deviation" not in report["files"]["a.json"]
        assert report["max_abs_deviation"] == 0.0


def _strict_json(text: str):
    """``json.loads`` that rejects the bare NaN, Infinity and -Infinity tokens."""
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


class TestStrictJson:
    """Outputs are strict JSON: a value with no finite estimate is written as null."""

    @pytest.mark.parametrize("argv,constant", [
        (["birkhoff", "--L", "8", "--R-list", "2", "4", "--samples", "3"], 0.3),
        (["semigroup", "--L", "16", "--t-grid", "1", "4", "--samples", "3"], 0.3),
        (["birkhoff", "--L", "8", "--R-list", "2", "4", "--samples", "1"], None),
        (["semigroup", "--L", "16", "--t-grid", "1", "4", "--samples", "3"], 0.5),
    ], ids=["birkhoff-constant", "semigroup-constant", "birkhoff-one-sample",
            "semigroup-constant-0.5"])
    def test_a_rate_with_no_fit_is_written_as_null(self, argv, constant, ensemble_file,
                                                   tmp_path):
        # the constant ensemble at 0.3 leaves a moment of exactly 0 at one abscissa or
        # more; at master seed 321 the one sample's R=4 box average equals the mean;
        # at 0.5 the semigroup moments are rounding residue (about 1e-31), and a
        # deterministic ensemble has no rate to fit
        if constant is not None:
            ensemble_file = str(tmp_path / "constant.json")
            with open(ensemble_file, "w") as fh:
                json.dump({"kind": "constant", "params": {"value": constant},
                           "master_seed": 0}, fh)
        out = tmp_path / "rate.json"
        assert main([*argv, "--ensemble", ensemble_file, "--out", str(out)]) == EXIT_OK
        report = _strict_json(out.read_text())
        assert report["fit"]["slope"] is None
        assert report["fit"]["intercept"] is None and report["fit"]["r_squared"] is None
        assert _strict_json((tmp_path / "rate.json.manifest.json").read_text())
        assert main(["replay", str(out) + ".manifest.json"]) == EXIT_OK

    @pytest.mark.parametrize("d,L,radii", [(2, 16, ["2", "4"]), (3, 8, ["1", "2"])])
    def test_growth_on_a_deterministic_ensemble_has_a_null_fit(self, d, L, radii, tmp_path):
        ensemble = tmp_path / "constant.json"
        ensemble.write_text(json.dumps({"kind": "constant", "params": {"value": 0.5},
                                        "master_seed": 3}))
        out = tmp_path / "growth.json"
        assert main(["growth", "--d", str(d), "--L", str(L), "--radii", *radii,
                     "--samples", "2", "--ensemble", str(ensemble), "--out", str(out)]) == EXIT_OK
        report = _strict_json(out.read_text())
        assert [m["value"] for m in report["moments"]] == [0.0, 0.0]
        assert report["slope"] is report["intercept"] is report["residual"] is None

    def test_sg_with_alpha_equal_beta_exits_3_and_writes_nothing(self, tmp_path, capsys):
        # every functional is then constant: Var f and sum_x E[(d_x f)^2] are both 0
        ensemble = tmp_path / "flat.json"
        ensemble.write_text(json.dumps({"kind": "iid-two-point", "master_seed": 0,
                                        "params": {"alpha": 0.5, "beta": 0.5}}))
        assert main(["sg", "--L", "4", "--samples", "6", "--ensemble", str(ensemble),
                     "--out", str(tmp_path / "sg.json")]) == EXIT_CONFIG_ERROR
        assert "alpha < beta" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["flat.json"]

    def test_encoder_writes_every_non_finite_float_as_null(self):
        text = _json_text({"array": np.array([1.5, np.nan]), "scalar": np.float64(-np.inf),
                           "nested": [{"x": float("inf")}, (2, float("nan"))]})
        assert _strict_json(text) == {"array": [1.5, None], "scalar": None,
                                      "nested": [{"x": None}, [2, None]]}


class TestReportScope:
    """The solver summary of a run counts that run's solves and no others."""

    def _ahom(self, ensemble_file, samples):
        args = build_parser().parse_args(["ahom", "--ensemble", ensemble_file, "--L", "8",
                                          "--samples", str(samples)])
        return config_from_args(args)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_concurrent_runs_keep_separate_counts(self, threads, ensemble_file, monkeypatch):
        alone = [_execute(self._ahom(ensemble_file, n), threads)[1]["solver_summary"]
                 for n in (4, 12)]
        assert [s["n_solves"] for s in alone] == [8, 24]
        # each run waits in its sample 0 until the other run has opened its scope
        barrier = threading.Barrier(2, timeout=60)
        cell = homoglab.correctors.ahom_cell
        first = sample(EnsembleSpec.load(ensemble_file), BoxSpec(2, 8), SampleId(0)).diag

        def ahom_cell(a, cfg):
            if np.array_equal(a.diag, first):
                barrier.wait()
            return cell(a, cfg)

        monkeypatch.setattr(homoglab.correctors, "ahom_cell", ahom_cell)
        together = [None, None]

        def go(k, n):
            together[k] = _execute(self._ahom(ensemble_file, n), threads)[1]["solver_summary"]

        workers = [threading.Thread(target=go, args=(k, n)) for k, n in enumerate((4, 12))]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=120)
            assert not t.is_alive()
        assert together == alone

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_manifest_counts_dense_inverses_outside_the_solver_summary(
            self, threads, ensemble_file, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for argv in (["sg", "--L", "4", "--samples", "6"], ["ahom", "--L", "4", "--samples", "2"]):
            assert main([*argv, "--ensemble", ensemble_file, "--threads", threads,
                         "--out", argv[0]]) == EXIT_OK
        sg, ahom = (json.loads((tmp_path / f"{name}.manifest.json").read_text())
                    for name in ("sg", "ahom"))
        assert (sg["dense_solves"], sg["solver_summary"]["n_solves"]) == (6, 0)
        assert (ahom["dense_solves"], ahom["solver_summary"]["n_solves"]) == (0, 4)
        assert main(["replay", "sg.manifest.json"]) == EXIT_OK

    @pytest.mark.parametrize("threads", [0, 1, 2])
    def test_run_leaves_no_worker_thread_and_one_thread_starts_none(
            self, threads, ensemble_file, monkeypatch):
        cell, ran_in = homoglab.correctors.ahom_cell, set()

        def ahom_cell(a, cfg):
            ran_in.add(threading.current_thread())
            return cell(a, cfg)

        monkeypatch.setattr(homoglab.correctors, "ahom_cell", ahom_cell)
        before = set(threading.enumerate())
        _execute(self._ahom(ensemble_file, 4), threads)
        assert set(threading.enumerate()) == before
        assert (ran_in == {threading.current_thread()}) is (threads <= 1)

    def test_scope_reaches_a_callers_own_pool(self, ensemble_file):
        spec = EnsembleSpec.load(ensemble_file)
        with collecting_reports() as outer, ThreadPoolExecutor(2) as pool:
            with collecting_reports() as inner:
                ahom_rve(spec, BoxSpec(2, 8), 6, map_fn=pool.map)
        assert len(inner.reports) == len(outer.reports) == 12


class TestBlasPin:
    """A CLI run holds numpy's OpenBLAS at one thread and gives the count back."""

    @pytest.fixture
    def blas(self):
        calls = homoglab.cli._openblas_threads()
        if calls is None:
            pytest.skip("numpy's BLAS is not its bundled OpenBLAS")
        get, set_count = calls
        found = get()
        set_count(2)
        try:
            yield get, get()  # the count is 1 on a single-core host, which caps it
        finally:
            set_count(found)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_a_run_holds_blas_at_one_thread_and_restores_the_count(
            self, threads, blas, ensemble_file, monkeypatch):
        get, count = blas
        cell, seen = homoglab.correctors.ahom_cell, []

        def ahom_cell(a, cfg):
            seen.append(get())
            return cell(a, cfg)

        monkeypatch.setattr(homoglab.correctors, "ahom_cell", ahom_cell)
        cfg = config_from_args(build_parser().parse_args(
            ["ahom", "--ensemble", ensemble_file, "--L", "8", "--samples", "4"]))
        with homoglab.cli._one_blas_thread() as pinned:
            assert pinned and get() == 1
            # a run that enters and leaves inside this one keeps the hold
            assert _execute(cfg, threads)[1]["blas_pinned"]
            assert get() == 1
        assert get() == count
        _execute(cfg, threads)
        assert get() == count and seen == [1] * 8

    def test_overlapping_holds_give_the_count_back_once(self, blas):
        get, count = blas
        inside = []

        def enter_and_leave():
            for _ in range(1000):
                with homoglab.cli._one_blas_thread():
                    inside.append(get())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=enter_and_leave) for _ in range(8)]
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert inside == [1] * 8000
        assert get() == count and homoglab.cli._blas_pin["runs"] == 0


class TestConfigRoundTrip:
    def test_experiment_config_json_round_trip(self, ensemble_file):
        from homoglab.ensembles import EnsembleSpec
        from homoglab.lattice import BoxSpec

        cfg = ExperimentConfig(
            experiment="sg",
            params={"samples": 10},
            ensemble=EnsembleSpec.load(ensemble_file),
            box=BoxSpec(2, 8),
            out="sg.json",
        )
        again = ExperimentConfig.from_json(cfg.to_json())
        assert again.to_json() == cfg.to_json()

    def test_unknown_experiment_rejected(self):
        with pytest.raises(Exception):
            ExperimentConfig.from_json({"experiment": "teleport", "params": {}})


COMMON_OPTIONS = {
    "-h": (None, 0), "--help": (None, 0), "--config": (None, None),
    "--ensemble": (None, None), "--L": (int, None), "--d": (int, None),
    "--seed": (int, None), "--threads": (int, None),
    "--tol": (float, None), "--precond": (None, None),
    "--out": (None, None),
}
SAMPLES = {"--samples": (int, None)}
EXPERIMENT_OPTIONS = {
    "oned": {},
    "cell": {"--sample": (int, None)},
    "ahom": SAMPLES,
    "corrector": {"--dir": (int, None), "--sample": (int, None)},
    "twoscale": {**SAMPLES, "--alpha": (float, None)},
    "growth": {**SAMPLES, "--radii": (int, "+"), "--p": (int, None)},
    "sg": SAMPLES,
    "semigroup": {**SAMPLES, "--t-grid": (float, "+")},
    "green": {**SAMPLES, "--radii": (int, "+")},
    "meyers": {**SAMPLES, "--q": (float, None), "--alpha-w": (float, None)},
    "birkhoff": {**SAMPLES, "--R-list": (int, "+")},
}


class TestExperimentTable:
    def test_every_subcommand_keeps_its_options(self):
        import argparse

        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == [*EXPERIMENT_OPTIONS, "replay"]
        for name, extra in EXPERIMENT_OPTIONS.items():
            options = {opt: (action.type, action.nargs)
                       for action in sub.choices[name]._actions
                       for opt in action.option_strings}
            assert options == {**COMMON_OPTIONS, **extra}, name

    def test_readme_names_the_global_flags(self):
        # the options every experiment shares are the README's "Global flags:" list,
        # so adding or removing one leaves no stale docs
        import argparse
        import re
        from pathlib import Path

        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        shared = set.intersection(*({opt for action in sub.choices[name]._actions
                                     for opt in action.option_strings}
                                    for name in homoglab.cli.EXPERIMENTS))
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        listed = re.search(r"Global flags:(.*?)\.\s", readme, re.S).group(1)
        flags = re.findall(r"`(--[\w-]+)`", listed)
        assert len(flags) == len(set(flags))
        assert set(flags) == shared - {"-h", "--help"}

    @pytest.mark.parametrize("experiment,params", [
        ("growth", {"p": 2}),
        ("meyers", {"q": 1.2, "alpha_w": 0.0}),
        ("twoscale", {"alpha": 0.3}),
        ("corrector", {"dir": 1, "sample": 3}),
        ("cell", {"sample": 2}),
    ])
    def test_config_params_survive_omitted_flags(self, experiment, params,
                                                 ensemble_file, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": experiment, "params": params}))
        args = build_parser().parse_args([experiment, "--config", str(path),
                                          "--ensemble", ensemble_file, "--L", "8"])
        assert config_from_args(args).params == params

    @pytest.mark.parametrize("flags,box", [
        (["--L", "6"], {"d": 3, "L": 6}),
        (["--d", "2"], {"d": 2, "L": 4}),
        ([], {"d": 3, "L": 4}),
    ])
    def test_box_flags_override_only_what_they_name(self, flags, box, ensemble_file,
                                                    tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "sg", "params": {},
                                    "box": {"d": 3, "L": 4}}))
        args = build_parser().parse_args(["sg", "--config", str(path),
                                          "--ensemble", ensemble_file, *flags])
        assert config_from_args(args).box.to_json() == box

    def test_d_defaults_to_2_without_a_config_box(self, ensemble_file):
        args = build_parser().parse_args(["sg", "--ensemble", ensemble_file, "--L", "6"])
        assert config_from_args(args).box.to_json() == {"d": 2, "L": 6}

    def test_given_flag_overrides_config_param(self, ensemble_file, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "meyers",
                                    "params": {"q": 1.2, "alpha_w": 0.0}}))
        out = str(tmp_path / "meyers.json")
        code = main(["meyers", "--config", str(path), "--ensemble", ensemble_file,
                     "--L", "8", "--samples", "2", "--alpha-w", "0.05", "--out", out])
        assert code == EXIT_OK
        rep = json.loads(open(out).read())
        assert (rep["q"], rep["alpha_w"]) == (1.2, 0.05)
        assert rep["config"]["params"] == {"q": 1.2, "alpha_w": 0.05, "samples": 2}

    def test_each_default_is_written_as_typed(self):
        # defaults reach the run as written, so each must be what the reader would make
        for name, exp in EXPERIMENTS.items():
            for key, param in exp.params.items():
                if param.default is not None:
                    values = param.default if param.nargs else [param.default]
                    assert all(type(v) is param.type for v in values), (name, key)
                    assert param.typed(param.default, key) == param.default, (name, key)

    @pytest.mark.parametrize("experiment,params", [
        ("ahom", {"samples": None}),
        ("cell", {"sample": None}),
        ("twoscale", {"alpha": None}),
        ("meyers", {"q": None}),
        ("green", {"radii": None}),
        ("green", {"radii": []}),
        ("twoscale", {"alpha": True, "samples": 2}),
        ("twoscale", {"alpha": 10**400, "samples": 2}),
    ], ids=["ahom-samples-null", "cell-sample-null", "twoscale-alpha-null", "meyers-q-null",
            "green-radii-null", "green-radii-empty", "twoscale-alpha-bool",
            "twoscale-alpha-beyond-float"])
    def test_null_bool_or_empty_param_exits_3_and_writes_nothing(
            self, experiment, params, ensemble_file, tmp_path, capsys):
        # a null is not a default: a parameter left out gets the table's
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": experiment, "params": params}))
        code = main([experiment, "--config", str(path), "--ensemble", ensemble_file,
                     "--L", "32", "--out", str(tmp_path / "out.json")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG_ERROR
        assert "config error" in err and "Traceback" not in err
        assert sorted(os.listdir(tmp_path)) == ["cfg.json", "ens.json"]

    def test_bad_config_param_is_config_error(self, ensemble_file, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "growth", "params": {"p": "two"}}))
        out = str(tmp_path / "growth.json")
        code = main(["growth", "--config", str(path), "--ensemble", ensemble_file,
                     "--L", "16", "--out", out])
        assert code == EXIT_CONFIG_ERROR
        assert not os.path.exists(out)

    @pytest.mark.parametrize("flags,solver", [
        ([], SolverConfig(tol=1e-8, preconditioner="none")),
        (["--precond", "spectral"], SolverConfig(tol=1e-8, preconditioner="spectral")),
        (["--tol", "1e-6"], SolverConfig(tol=1e-6, preconditioner="none")),
    ])
    def test_solver_flags_override_only_what_they_name(self, flags, solver, ensemble_file,
                                                       tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "experiment": "ahom", "params": {},
            "solver": {"tol": 1e-8, "max_iter": None, "anchor": "mean-zero",
                       "preconditioner": "none"}}))
        args = build_parser().parse_args(["ahom", "--config", str(path),
                                          "--ensemble", ensemble_file, "--L", "4", *flags])
        assert config_from_args(args).solver == solver

    def test_config_without_solver_block_takes_the_default(self, ensemble_file, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "ahom", "params": {}}))
        args = build_parser().parse_args(["ahom", "--config", str(path),
                                          "--ensemble", ensemble_file, "--L", "4"])
        solver = config_from_args(args).solver
        assert solver == SolverConfig() and solver.preconditioner == "spectral"

    def test_site_zero_anchor_is_config_error(self, ensemble_file, tmp_path, capsys):
        # the gauge is mean zero; a config names it only as the recorded constant
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "ahom", "params": {},
                                    "solver": {"anchor": "site-zero"}}))
        out = str(tmp_path / "ahom.json")
        code = main(["ahom", "--config", str(path), "--ensemble", ensemble_file,
                     "--L", "4", "--out", out])
        assert code == EXIT_CONFIG_ERROR
        assert "anchor" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["cfg.json", "ens.json"]

    @pytest.mark.parametrize("max_iter", [2, 0, False], ids=["2", "0", "false"])
    def test_max_iter_is_config_error(self, max_iter, ensemble_file, tmp_path, capsys):
        # CG stops at 50 iterations per site; a config names max_iter only as null
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "ahom", "params": {},
                                    "solver": {"max_iter": max_iter}}))
        code = main(["ahom", "--config", str(path), "--ensemble", ensemble_file,
                     "--L", "4", "--out", str(tmp_path / "ahom.json")])
        assert code == EXIT_CONFIG_ERROR
        assert "the solver's max_iter must be null" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["cfg.json", "ens.json"]

    @pytest.mark.parametrize("solver,message", [
        ({"tol": True}, "bad tol True: a boolean is not a number"),
        ({"tol": 1e-300}, "tol must be a number in [1e-13, inf), got 1e-300"),
        ({"preconditioner": "jacobi"}, "unknown preconditioner 'jacobi'"),
        ({"tol": 10**400}, "int too large to convert to float"),
    ], ids=["tol-bool", "tol-below-floor", "unknown-preconditioner", "tol-beyond-float"])
    def test_bad_solver_value_is_config_error(self, solver, message, ensemble_file, tmp_path,
                                              capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "ahom", "params": {}, "solver": solver}))
        code = main(["ahom", "--config", str(path), "--ensemble", ensemble_file,
                     "--L", "4", "--out", str(tmp_path / "ahom.json")])
        assert code == EXIT_CONFIG_ERROR
        assert message in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["cfg.json", "ens.json"]

    def test_unknown_solver_key_is_config_error(self, ensemble_file, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "ahom", "params": {},
                                    "solver": {"tol": 1e-8, "precondtioner": "spectral"}}))
        out = str(tmp_path / "ahom.json")
        code = main(["ahom", "--config", str(path), "--ensemble", ensemble_file,
                     "--L", "4", "--out", out])
        assert code == EXIT_CONFIG_ERROR
        assert not os.path.exists(out)


class TestThreadSettings:
    @pytest.mark.parametrize("flags", [["--threads", "0"], ["--threads", "-1"]],
                             ids=["zero", "negative"])
    def test_bad_thread_count_exits_3_and_writes_nothing(self, flags, ensemble_file, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["sg", "--ensemble", ensemble_file, "--L", "3", "--samples", "2",
                  *flags, "--out", str(tmp_path / "sg.json")])
        assert exc.value.code == EXIT_CONFIG_ERROR
        assert os.listdir(tmp_path) == ["ens.json"]

    def test_replay_rejects_bad_thread_count(self, ensemble_file, tmp_path):
        out = str(tmp_path / "sg.json")
        assert main(["sg", "--ensemble", ensemble_file, "--L", "3", "--samples", "2",
                     "--out", out]) == EXIT_OK
        with pytest.raises(SystemExit) as exc:
            main(["replay", out + ".manifest.json", "--threads", "0"])
        assert exc.value.code == EXIT_CONFIG_ERROR

    @pytest.mark.parametrize("command", ["run", "replay"])
    def test_more_than_max_threads_exits_3_before_a_pool_starts(self, command, ensemble_file,
                                                                tmp_path, capsys):
        out = str(tmp_path / "sg.json")
        argv = ["sg", "--ensemble", ensemble_file, "--L", "3", "--samples", "2", "--out", out]
        if command == "replay":
            assert main(argv) == EXIT_OK
            argv = ["replay", out + ".manifest.json"]
        written = sorted(os.listdir(tmp_path))
        capsys.readouterr()
        threads = threading.active_count()
        assert main([*argv, "--threads", str(MAX_THREADS + 1)]) == EXIT_CONFIG_ERROR
        assert threading.active_count() == threads
        assert f"--threads {MAX_THREADS + 1} is more than {MAX_THREADS}" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == written

    def test_max_threads_runs(self, ensemble_file, tmp_path):
        # two samples are one task, so the pool starts one worker
        assert MAX_THREADS == 64
        assert main(["sg", "--ensemble", ensemble_file, "--L", "3", "--samples", "2",
                     "--threads", "64", "--out", str(tmp_path / "sg.json")]) == EXIT_OK

    def test_the_environment_does_not_set_the_default(self, monkeypatch):
        # only --threads sets the worker count, so argv alone fixes a run
        monkeypatch.setenv("HOMOGLAB_THREADS", "3")
        parser = build_parser()
        assert parser.parse_args(["sg"]).threads == 1
        assert parser.parse_args(["replay", "m.json"]).threads == 1
        assert parser.parse_args(["sg", "--threads", "2"]).threads == 2


def schema(obj):
    """Nested keys of a JSON value; a list by its (uniform) items, a leaf by its type."""
    if isinstance(obj, dict):
        return {k: schema(v) for k, v in obj.items()}
    if isinstance(obj, list):
        items = [schema(v) for v in obj]
        assert all(item == items[0] for item in items)
        return items[:1]
    return None if obj is None else type(obj)


BOX = {"d": int, "L": int}
MOMENT = {"value": float, "stderr": float, "p": int, "n": int}
FIT = {"abscissae": [float], "values": [float], "slope": float, "intercept": float,
       "r_squared": float}
TENSOR = {"matrix": [[float]], "stderr": [[float]], "n_samples": int}
PROPERTIES = {"ellipticity_pass": bool, "min_quadratic_form": float, "symmetry_pass": bool,
              "symmetry_gap": float, "symmetry_tolerance": float}
STATISTIC = {"seed": int, "box": BOX, "n": int}
GREEN = {**STATISTIC, "radii": [int], "quenched_profile": [float], "annealed_profile": [float],
         "annealed_fit": FIT}
CONFIG_KEYS = {"experiment", "params", "ensemble", "box", "solver", "out"}
SOLVER_KEYS = {"tol", "max_iter", "anchor", "preconditioner"}


class TestArtifactSchemas:
    """Every JSON artifact, field by field, at tiny sizes."""

    @pytest.mark.parametrize("argv,expected", [
        (["cell", "--L", "4"],
         {**TENSOR, "seed": int, "sample": int, "properties": PROPERTIES}),
        (["ahom", "--L", "4", "--samples", "2"],
         {**TENSOR, "seed": int, "properties": PROPERTIES,
          "solver_reports": {"n_solves": int, "total_iterations": int, "max_iterations": int,
                             "max_final_relative_residual": float, "all_converged": bool}}),
        (["growth", "--L", "8", "--radii", "1", "2", "--samples", "2"],
         {**STATISTIC, "radii": [int], "moments": [MOMENT], "model": str, "slope": float,
          "intercept": float, "residual": float}),
        (["sg", "--L", "3", "--samples", "4"],
         {**STATISTIC, "reports": [{"functional": str, "variance": MOMENT,
                                    "derivative_sum": MOMENT, "ratio": float,
                                    "ratio_stderr": float, "rho_assumed": float,
                                    "within_gap": bool}]}),
        (["semigroup", "--L", "8", "--t-grid", "0.5", "1", "--samples", "4"],
         {**STATISTIC, "t_grid": [float], "second_moments": [float], "stderrs": [float],
          "fit": FIT, "variance_zeta": float, "contraction_ok": bool}),
        (["green", "--L", "16", "--radii", "2", "3", "--samples", "2"],
         {**GREEN, "quenched_fit": None, "quenched_log_ratios": [float]}),
        (["green", "--d", "3", "--L", "16", "--radii", "2", "3", "--samples", "2"],
         {**GREEN, "quenched_fit": FIT, "quenched_log_ratios": None}),
        (["meyers", "--L", "8", "--samples", "2"],
         {**STATISTIC, "q": float, "alpha_w": float, "ratios": [float], "median": float,
          "blowup_flag": bool}),
        (["birkhoff", "--L", "8", "--R-list", "2", "4", "--samples", "4"],
         {**STATISTIC, "R_values": [int], "rms": [float], "fit": FIT}),
    ], ids=["cell", "ahom", "growth", "sg", "semigroup", "green-d2", "green-d3", "meyers",
            "birkhoff"])
    def test_result_json(self, argv, expected, ensemble_file, tmp_path):
        out = str(tmp_path / "out.json")
        assert main([*argv, "--ensemble", ensemble_file, "--out", out]) == EXIT_OK
        rep = json.loads(open(out).read())
        config = rep.pop("config")
        assert schema(rep) == expected
        assert set(config) == CONFIG_KEYS and set(config["solver"]) == SOLVER_KEYS

    @pytest.mark.parametrize("argv", [
        ["cell", "--d", "1", "--L", "4"], ["cell", "--d", "3", "--L", "4"],
        ["ahom", "--L", "4", "--samples", "2"],
    ], ids=["cell-d1", "cell-d3", "ahom"])
    def test_min_quadratic_form_is_the_eigenvalue_the_flag_tests(self, argv, ensemble_file,
                                                                 tmp_path):
        out = str(tmp_path / "out.json")
        assert main([*argv, "--ensemble", ensemble_file, "--out", out]) == EXIT_OK
        rep = json.loads(open(out).read())
        M, props = np.array(rep["matrix"]), rep["properties"]
        assert props["min_quadratic_form"] == np.linalg.eigvalsh(0.5 * (M + M.T))[0]
        assert props["ellipticity_pass"] == (props["min_quadratic_form"] >= 0.2 - 1e-12)

    def test_corrector_meta_json(self, ensemble_file, tmp_path):
        out = str(tmp_path / "set.csv")
        assert main(["corrector", "--ensemble", ensemble_file, "--L", "4",
                     "--out", out]) == EXIT_OK
        meta = json.loads(open(out + ".meta.json").read())
        assert schema(meta) == {
            "direction": int, "sample": int, "seed": int, "ahom_row": [float],
            "solver_reports": [{"iterations": int, "final_relative_residual": float,
                                "converged": bool, "rhs_mean_subtracted": float}]}

    def test_manifest_json(self, ensemble_file, tmp_path):
        out = str(tmp_path / "sg.json")
        assert main(["sg", "--L", "3", "--samples", "2", "--ensemble", ensemble_file,
                     "--out", out]) == EXIT_OK
        manifest = json.loads(open(out + ".manifest.json").read())
        manifest.pop("config")
        assert schema(manifest) == {
            "artifact_version": str, "experiment": str, "config_sha256": str, "seed": int,
            "outputs": {out: str}, "wall_time_s": float, "dense_solves": int, "blas_pinned": bool,
            "solver_summary": {"n_solves": int, "total_iterations": int, "max_iterations": int,
                               "max_final_relative_residual": float, "all_converged": bool}}

    def test_encoder_rejects_other_types(self):
        with pytest.raises(TypeError):
            _json_text({"x": object()})
