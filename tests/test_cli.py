import json
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import homoglab
import homoglab.cli
import homoglab.correctors
import homoglab.ensembles
import homoglab.quant
from conftest import constant_green, reference_csv_text
from homoglab.cli import (
    EXIT_CONFIG_ERROR,
    EXIT_OK,
    EXIT_REPLAY_MISMATCH,
    EXIT_SOLVER_FAILURE,
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
from homoglab.lattice import BoxSpec, _csv_text


def _python(args, cwd, **env):
    """A fresh interpreter on this checkout's homoglab, with ``env`` added."""
    src = os.path.dirname(os.path.dirname(homoglab.__file__))
    return subprocess.run([sys.executable, *args],
                          env={**os.environ, "PYTHONPATH": src, **env}, cwd=cwd,
                          capture_output=True, text=True, timeout=600)


# The config and output hash of ``ahom --L 8 --samples 2`` as homoglab 0.7.0
# wrote them, when the default solver was plain CG ("preconditioner": "none").
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
    "outputs": {"ahom.json": "1b4ec07a462aefade7e6f2bb5eae39060d8fa158da2f2d89904e5030b451e27f"},
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
    ], ids=["points-per-period-float", "sine-k-float", "constant-without-value",
            "layered-without-beta"])
    def test_bad_profile_exits_3_and_writes_nothing(self, params, tmp_path, capsys):
        path = tmp_path / "oned.json"
        path.write_text(json.dumps({"experiment": "oned",
                                    "params": {"eps_list": [0.125, 0.0625], **params}}))
        code = main(["oned", "--config", str(path), "--out", str(tmp_path / "table.csv")])
        assert code == EXIT_CONFIG_ERROR
        assert "config error" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["oned.json"]

    def test_gnuplot_script_flag(self, oned_config, tmp_path):
        out = str(tmp_path / "table.csv")
        code = main(["oned", "--config", oned_config, "--out", out, "--gnuplot-script"])
        assert code == EXIT_OK
        assert os.path.exists(out + ".gp")

    def test_unwritable_gnuplot_script_exits_3(self, oned_config, tmp_path, capsys):
        out = str(tmp_path / "table.csv")
        os.mkdir(out + ".gp")
        code = main(["oned", "--config", oned_config, "--out", out, "--gnuplot-script"])
        assert code == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        # the script is written after the table and its manifest
        assert sorted(os.listdir(tmp_path)) == ["fig1.json", "table.csv", "table.csv.gp",
                                                "table.csv.manifest.json"]


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
        [1, 2],
    ], ids=["no-master-seed", "no-beta", "null-beta", "params-list", "seed-string",
            "seed-float", "seed-bool", "not-an-object"])
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
    def _birkhoff(tmp_path, monkeypatch, **edit) -> int:
        """Exit code of a ``birkhoff --config`` run in tmp_path, with ``edit``
        replacing top-level keys of a small valid config."""
        config = {"experiment": "birkhoff", "params": {"samples": 4, "R_list": [2, 4]},
                  "ensemble": {"kind": "iid-two-point", "params": {"alpha": 0.25, "beta": 0.75},
                               "lambda": 0.2, "master_seed": 5},
                  "box": {"d": 2, "L": 8}, "out": "birkhoff.json", **edit}
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        monkeypatch.chdir(tmp_path)
        return main(["birkhoff", "--config", "cfg.json"])

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
    ], ids=["L-float", "L-string", "d-float", "samples-float", "R-list-float",
            "samples-string", "max-iter-float", "max-iter-string", "d-bool", "samples-bool",
            "max-iter-bool"])
    def test_non_integral_config_field_exits_3_and_writes_nothing(self, edit, tmp_path,
                                                                  monkeypatch, capsys):
        assert self._birkhoff(tmp_path, monkeypatch, **edit) == EXIT_CONFIG_ERROR
        assert "config error" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["cfg.json"]

    def test_missing_box_is_config_error(self, ensemble_file, tmp_path):
        code = main(["ahom", "--ensemble", ensemble_file,
                     "--out", str(tmp_path / "x.json")])
        assert code == EXIT_CONFIG_ERROR

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

    def test_ahom_solver_failure_exits_2(self, ensemble_file, tmp_path):
        out = str(tmp_path / "ahom.json")
        code = main(["ahom", "--ensemble", ensemble_file, "--L", "8", "--samples", "2",
                     "--max-iter", "2", "--out", out])
        assert code == EXIT_SOLVER_FAILURE
        assert not os.path.exists(out)

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
    ], ids=["green", "semigroup", "birkhoff", "growth", "green-zero", "semigroup-zero",
            "birkhoff-zero", "green-repeated"])
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
        ["twoscale", "--L", "8", "--samples", "3"],
        ["oned"],
    ], ids=lambda argv: argv[0])
    def test_csv_bytes_equal_the_per_value_writer(self, argv, ensemble_file, oned_config,
                                                  tmp_path, monkeypatch):
        inputs = ["--config", oned_config] if argv[0] == "oned" else ["--ensemble", ensemble_file]
        written = []
        for writer in (_csv_text, reference_csv_text):
            monkeypatch.setattr(homoglab.cli, "_csv_text", writer)
            out = tmp_path / f"{writer.__name__}.csv"
            assert main([*argv, *inputs, "--out", str(out)]) == EXIT_OK
            written.append(out.read_bytes())
        assert written[0] == written[1]

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

    @pytest.mark.parametrize("argv", [
        ["corrector", "--d", "2", "--L", "128", "--out", "corrector.csv"],
        ["green", "--d", "3", "--L", "16", "--radii", "2", "3", "4", "--samples", "2",
         "--out", "green.json"],
        # README: sg is exact across BLAS thread counts at L=8 in d=2
        ["sg", "--d", "2", "--L", "8", "--samples", "19", "--out", "sg.json"],
    ], ids=["corrector", "green-spectral", "sg-d2-L8"])
    def test_replay_is_exact_across_blas_thread_counts(self, argv, ensemble_file, tmp_path):
        written = _python(["-m", "homoglab.cli", *argv, "--ensemble", ensemble_file],
                          tmp_path, OPENBLAS_NUM_THREADS="1")
        assert written.returncode == EXIT_OK, written.stderr
        replayed = _python(["-m", "homoglab.cli", "replay", argv[-1] + ".manifest.json"],
                           tmp_path, OPENBLAS_NUM_THREADS="2")
        assert replayed.returncode == EXIT_OK, replayed.stdout + replayed.stderr

    def test_cli_import_loads_no_scipy_integrate_or_optimize(self, tmp_path):
        probe = ("import sys, homoglab.cli; "
                 "print([m for m in ('scipy.integrate', 'scipy.optimize', 'scipy.linalg', "
                 "'fractions', 'decimal') if m in sys.modules])")
        done = _python(["-c", probe], tmp_path)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_replay_solver_failure_exits_2(self, ensemble_file, tmp_path, capsys):
        out = str(tmp_path / "ahom.json")
        assert main(["ahom", "--ensemble", ensemble_file, "--L", "8", "--samples", "2",
                     "--out", out]) == EXIT_OK
        mpath = out + ".manifest.json"
        manifest = json.loads(open(mpath).read())
        manifest["config"]["solver"]["max_iter"] = 2
        open(mpath, "w").write(json.dumps(manifest))
        capsys.readouterr()
        assert main(["replay", mpath]) == EXIT_SOLVER_FAILURE
        assert "solver failure" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        lambda m: m.pop("outputs"),
        lambda m: m.pop("config"),
        lambda m: m.update(outputs=["ahom.json"]),
        lambda m: m.update(config=None),
    ], ids=["no-outputs", "no-config", "outputs-list", "config-null"])
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


def _strict_json(text: str):
    """``json.loads`` that rejects the bare NaN, Infinity and -Infinity tokens."""
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


class TestStrictJson:
    """Outputs are strict JSON: a value with no finite estimate is written as null."""

    @pytest.mark.parametrize("argv,ensemble", [
        (["birkhoff", "--L", "8", "--R-list", "2", "4", "--samples", "3"], "constant"),
        (["semigroup", "--L", "16", "--t-grid", "1", "4", "--samples", "3"], "constant"),
        (["birkhoff", "--L", "8", "--R-list", "2", "4", "--samples", "1"], "two-point"),
    ], ids=["birkhoff-constant", "semigroup-constant", "birkhoff-one-sample"])
    def test_a_rate_with_no_fit_is_written_as_null(self, argv, ensemble, ensemble_file,
                                                   tmp_path):
        # the constant ensemble at 0.3 leaves a moment of exactly 0 at one abscissa or
        # more; at master seed 321 the one sample's R=4 box average equals the mean
        if ensemble == "constant":
            ensemble_file = str(tmp_path / "constant.json")
            with open(ensemble_file, "w") as fh:
                json.dump({"kind": "constant", "params": {"value": 0.3}, "master_seed": 0}, fh)
        out = tmp_path / "rate.json"
        assert main([*argv, "--ensemble", ensemble_file, "--out", str(out)]) == EXIT_OK
        report = _strict_json(out.read_text())
        assert report["fit"]["slope"] is None
        assert report["fit"]["intercept"] is None and report["fit"]["r_squared"] is None
        assert _strict_json((tmp_path / "rate.json.manifest.json").read_text())
        assert main(["replay", str(out) + ".manifest.json"]) == EXIT_OK

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

    def test_scope_reaches_a_callers_own_pool(self, ensemble_file):
        spec = EnsembleSpec.load(ensemble_file)
        with collecting_reports() as outer, ThreadPoolExecutor(2) as pool:
            with collecting_reports() as inner:
                ahom_rve(spec, BoxSpec(2, 8), 6, map_fn=pool.map)
        assert inner.n_solves == outer.n_solves == 12


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
    "--tol": (float, None), "--max-iter": (int, None), "--precond": (None, None),
    "--out": (None, None), "--gnuplot-script": (None, 0),
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

    def test_bad_config_param_is_config_error(self, ensemble_file, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "growth", "params": {"p": "two"}}))
        out = str(tmp_path / "growth.json")
        code = main(["growth", "--config", str(path), "--ensemble", ensemble_file,
                     "--L", "16", "--out", out])
        assert code == EXIT_CONFIG_ERROR
        assert not os.path.exists(out)

    @pytest.mark.parametrize("flags,solver", [
        ([], SolverConfig(1e-8, 500, "site-zero", "none")),
        (["--precond", "spectral"], SolverConfig(1e-8, 500, "site-zero", "spectral")),
        (["--tol", "1e-6", "--max-iter", "9"], SolverConfig(1e-6, 9, "site-zero", "none")),
    ])
    def test_solver_flags_override_only_what_they_name(self, flags, solver, ensemble_file,
                                                       tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "experiment": "ahom", "params": {},
            "solver": {"tol": "1e-8", "max_iter": 500, "anchor": "site-zero",
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
    @pytest.mark.parametrize("env,flags", [
        ("two", []), ("", []), ("0", []), ("1", ["--threads", "0"]), ("2", ["--threads", "-1"]),
    ])
    def test_bad_thread_count_exits_3_and_writes_nothing(self, env, flags, ensemble_file,
                                                         tmp_path, monkeypatch):
        monkeypatch.setenv("HOMOGLAB_THREADS", env)
        with pytest.raises(SystemExit) as exc:
            main(["sg", "--ensemble", ensemble_file, "--L", "3", "--samples", "2",
                  *flags, "--out", str(tmp_path / "sg.json")])
        assert exc.value.code == EXIT_CONFIG_ERROR
        assert os.listdir(tmp_path) == ["ens.json"]

    def test_replay_rejects_bad_thread_count(self, ensemble_file, tmp_path, monkeypatch):
        out = str(tmp_path / "sg.json")
        assert main(["sg", "--ensemble", ensemble_file, "--L", "3", "--samples", "2",
                     "--out", out]) == EXIT_OK
        monkeypatch.setenv("HOMOGLAB_THREADS", "two")
        with pytest.raises(SystemExit) as exc:
            main(["replay", out + ".manifest.json"])
        assert exc.value.code == EXIT_CONFIG_ERROR

    def test_environment_sets_the_default(self, monkeypatch):
        monkeypatch.setenv("HOMOGLAB_THREADS", "3")
        parser = build_parser()
        assert parser.parse_args(["sg"]).threads == 3
        assert parser.parse_args(["replay", "m.json"]).threads == 3
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
            "outputs": {out: str}, "wall_time_s": float, "dense_solves": int,
            "solver_summary": {"n_solves": int, "total_iterations": int, "max_iterations": int,
                               "max_final_relative_residual": float, "all_converged": bool}}

    def test_encoder_rejects_other_types(self):
        with pytest.raises(TypeError):
            _json_text({"x": object()})
