"""Experiment driver.

Parses a config (flags or JSON file), dispatches to the library, and writes
reproducible CSV/JSON artifacts plus a run manifest.  Outputs are written
atomically (temp file + rename), numeric CSV cells carry 17 significant
digits, and aggregation runs in fixed sample order, so an identical config
produces byte-identical files at any thread count.

Exit codes: 0 success, 1 replay mismatch, 2 solver failure, 3 config error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Callable

import numpy as np

from . import __version__
from .lattice import BoxSpec, _csv_text, _exact_int
from .ensembles import EnsembleSpec, SampleId, sample
from .elliptic import SolverConfig, SolverError, collecting_reports
from .correctors import ahom_cell, ahom_rve, corrector_set, verify_ahom_properties
from .twoscale import two_scale_experiment
from .quant import (
    birkhoff_rate,
    corrector_growth,
    green_decay,
    meyers_probe,
    semigroup_decay,
    sg_check,
)
from . import oned as oned_mod

EXIT_OK = 0
EXIT_REPLAY_MISMATCH = 1
EXIT_SOLVER_FAILURE = 2
EXIT_CONFIG_ERROR = 3

class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    experiment: str
    params: dict
    ensemble: EnsembleSpec | None = None
    box: BoxSpec | None = None
    solver: SolverConfig = field(default_factory=SolverConfig)
    out: str = "out"

    def to_json(self) -> dict:
        return {
            "experiment": self.experiment,
            "params": self.params,
            "ensemble": self.ensemble.to_json() if self.ensemble else None,
            "box": self.box.to_json() if self.box else None,
            "solver": _record(self.solver),
            "out": self.out,
        }

    @staticmethod
    def from_json(obj: dict) -> "ExperimentConfig":
        try:
            experiment = obj["experiment"]
            if experiment not in EXPERIMENTS:
                raise ConfigError(f"unknown experiment {experiment!r}")
            ens = obj.get("ensemble")
            box = obj.get("box")
            solver = dict(obj.get("solver") or {})
            if "tol" in solver:
                solver["tol"] = float(solver["tol"])
            if solver.get("max_iter") is not None:
                solver["max_iter"] = _exact_int(solver["max_iter"])
            return ExperimentConfig(
                experiment=experiment,
                params=dict(obj.get("params") or {}),
                ensemble=EnsembleSpec.from_json(ens) if ens else None,
                box=BoxSpec.from_json(box) if box else None,
                solver=SolverConfig(**solver),
                out=obj.get("out", "out"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc


def _sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _record(obj) -> dict:
    """A result dataclass as the dict of its fields; a dict passes through."""
    if isinstance(obj, dict):
        return obj
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _json_value(obj):
    """``obj`` in the types ``json`` encodes: result dataclasses become the dict
    of their fields, arrays and numpy scalars plain lists and numbers, and a
    non-finite float, which strict JSON has no token for, becomes null."""
    if is_dataclass(obj) and not isinstance(obj, type):
        obj = _record(obj)
    elif isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {key: _json_value(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_value(value) for value in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _json_text(obj) -> str:
    return json.dumps(_json_value(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _map_fn(threads: int):
    if threads <= 1:
        return map, None
    pool = ThreadPoolExecutor(max_workers=threads)
    return pool.map, pool


# ---------------------------------------------------------------------------
# 1d profile / forcing catalog (declarative so configs stay data-only)
# ---------------------------------------------------------------------------


def profile_from_config(p: dict) -> "oned_mod.Profile1D":
    a_cfg = p.get("a", {"kind": "shifted-sine", "offset": 2.0, "amplitude": 1.0})
    f_cfg = p.get("f", {"kind": "linear-odd", "scale": 3.0})

    kind = a_cfg.get("kind")
    if kind == "constant":
        val = float(a_cfg["value"])
        a_unit = lambda y: np.full_like(np.asarray(y, dtype=np.float64), val)
    elif kind == "shifted-sine":
        off, amp = float(a_cfg.get("offset", 2.0)), float(a_cfg.get("amplitude", 1.0))
        if off - abs(amp) <= 0:
            raise ConfigError("shifted-sine profile must stay positive")
        a_unit = lambda y: off + amp * np.sin(2.0 * np.pi * np.asarray(y, dtype=np.float64))
    elif kind == "layered":
        lo, hi = float(a_cfg["alpha"]), float(a_cfg["beta"])
        frac = float(a_cfg.get("fraction", 0.5))
        if not (0 < lo and 0 < hi and 0 < frac < 1):
            raise ConfigError("layered profile needs positive values and 0 < fraction < 1")
        # nodes on a jump carry the harmonic midpoint: the pipeline
        # integrates 1/a, and this convention keeps the trapezoid rule exact
        mid = 2.0 / (1.0 / lo + 1.0 / hi)

        def a_unit(y):
            yy = np.asarray(y, dtype=np.float64) % 1.0
            out = np.where(yy < frac, lo, hi)
            at_jump = np.isclose(yy, frac) | np.isclose(yy, 0.0) | np.isclose(yy, 1.0)
            return np.where(at_jump, mid, out)
    else:
        raise ConfigError(f"unknown 1d conductivity kind {kind!r}")

    fkind = f_cfg.get("kind")
    if fkind == "one":
        f = lambda x: np.ones_like(np.asarray(x, dtype=np.float64))
    elif fkind == "constant":
        fv = float(f_cfg["value"])
        f = lambda x: np.full_like(np.asarray(x, dtype=np.float64), fv)
    elif fkind == "linear-odd":
        sc = float(f_cfg.get("scale", 3.0))
        f = lambda x: -sc * (2.0 * np.asarray(x, dtype=np.float64) - 1.0)
    elif fkind == "sine":
        k = _exact_int(f_cfg.get("k", 1))
        f = lambda x: np.sin(2.0 * np.pi * k * np.asarray(x, dtype=np.float64))
    else:
        raise ConfigError(f"unknown 1d forcing kind {fkind!r}")

    eps_list = p.get("eps_list", [1 / 8, 1 / 16, 1 / 32, 1 / 64, 1 / 128])
    ppp = _exact_int(p.get("points_per_period", 64))
    return oned_mod.Profile1D(a_unit=a_unit, f=f, eps=float(max(eps_list)),
                              points_per_period=ppp), [float(e) for e in eps_list]


# ---------------------------------------------------------------------------
# experiment table: one row per experiment, its parameters and its runner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Param:
    """One experiment parameter: ``--name`` (``_`` -> ``-``) on the command
    line, ``name`` in the config's params, typed and defaulted only here."""

    type: type
    default: object = None
    nargs: str | None = None

    def typed(self, value):
        if value is None:
            return None
        read = _exact_int if self.type is int else self.type  # 5.7 is an error, not 5
        return [read(v) for v in value] if self.nargs else read(value)


@dataclass(frozen=True)
class Experiment:
    """``run(cfg, params, map_fn)`` returns {filename: text}; ``params`` holds
    every parameter of the row, typed, with defaults filled in."""

    run: Callable
    params: dict[str, Param]
    needs_ensemble: bool = True


def _json_out(cfg: ExperimentConfig, result, **extra) -> dict[str, str]:
    """The JSON envelope: the result's fields, the seed, any extra fields, the config."""
    return {cfg.out: _json_text({**_record(result), "seed": cfg.ensemble.master_seed,
                                 **extra, "config": cfg.to_json()})}


def _statistic(compute: Callable) -> Callable:
    """Runner for a statistics experiment: ``compute(cfg, params, map_fn)``
    returns the report, enveloped with seed, box, n and config."""

    def run_statistic(cfg: ExperimentConfig, p: dict, map_fn) -> dict[str, str]:
        return _json_out(cfg, compute(cfg, p, map_fn), box=cfg.box.to_json(), n=p["samples"])

    return run_statistic


def _run_oned(cfg: ExperimentConfig, p: dict, map_fn) -> dict[str, str]:
    try:
        profile, eps_list = profile_from_config(cfg.params)
    except (KeyError, TypeError) as exc:  # a missing or mistyped key; bad values raise ValueError
        raise ConfigError(f"oned: bad profile parameter: {exc!r}") from exc
    sup = oned_mod.sup_error_check(profile, eps_list)
    rows = []
    for eps in sorted(eps_list, reverse=True):
        ts = oned_mod.two_scale_check_1d(replace(profile, eps=eps))
        k = int(np.argmin(np.abs(sup.eps - eps)))
        rows.append([eps, sup.sup_errors[k], ts.error, ts.bound_statement, ts.ratio_statement])
    return {cfg.out: _csv_text(
        ["eps", "sup_error", "h1_twoscale_error", "bound_rhs", "ratio"], list(zip(*rows)))}


def _run_cell(cfg: ExperimentConfig, p: dict, map_fn) -> dict[str, str]:
    t = ahom_cell(sample(cfg.ensemble, cfg.box, SampleId(p["sample"])), cfg.solver)
    return _json_out(cfg, t, sample=p["sample"],
                     properties=verify_ahom_properties(t, lam=cfg.ensemble.lam))


def _run_ahom(cfg: ExperimentConfig, p: dict, map_fn) -> dict[str, str]:
    with collecting_reports() as collector:
        t = ahom_rve(cfg.ensemble, cfg.box, p["samples"], cfg.solver, map_fn=map_fn)
    return _json_out(cfg, t, solver_reports=collector.summary(),
                     properties=verify_ahom_properties(t, lam=cfg.ensemble.lam))


def _run_corrector(cfg: ExperimentConfig, p: dict, map_fn) -> dict[str, str]:
    a = sample(cfg.ensemble, cfg.box, SampleId(p["sample"]))
    cs = corrector_set(a, p["dir"], cfg.solver)
    box = cs.phi.box
    pairs = [(j, k) for j in range(box.d) for k in range(j + 1, box.d)]
    header = (["site"] + [f"x{k+1}" for k in range(box.d)] + ["phi"]
              + [f"q_{j+1}" for j in range(box.d)]
              + [f"sigma_{j+1}{k+1}" for j, k in pairs])
    columns = [np.arange(box.n_sites), *box.coordinate_arrays().T, cs.phi.values,
               *cs.q.values.T, *(cs.sigma.values[:, j, k] for j, k in pairs)]
    meta = {
        "direction": p["dir"],
        "sample": p["sample"],
        "seed": cfg.ensemble.master_seed,
        "ahom_row": cs.ahom_row,
        "solver_reports": cs.reports,
    }
    return {cfg.out: _csv_text(header, columns),
            cfg.out + ".meta.json": _json_text(meta)}


def _run_twoscale(cfg: ExperimentConfig, p: dict, map_fn) -> dict[str, str]:
    reports = two_scale_experiment(cfg.ensemble, cfg.box, p["alpha"], p["samples"],
                                   cfg=cfg.solver, map_fn=map_fn)
    header = ["sample", "lhs", "rhs_phi", "rhs_sigma", "ratio"]
    return {cfg.out: _csv_text(header, [[getattr(r, k) for r in reports] for k in header])}


# Rows call the library through this module's globals at call time, so code
# that rebinds a name such as ``cli.corrector_set`` reaches the runner.
EXPERIMENTS: dict[str, Experiment] = {
    "oned": Experiment(_run_oned, {}, needs_ensemble=False),
    "cell": Experiment(_run_cell, {"sample": Param(int, 0)}),
    "ahom": Experiment(_run_ahom, {"samples": Param(int, 16)}),
    "corrector": Experiment(_run_corrector, {"dir": Param(int, 0), "sample": Param(int, 0)}),
    "twoscale": Experiment(
        _run_twoscale, {"samples": Param(int, 50), "alpha": Param(float, 0.1)}),
    "growth": Experiment(
        _statistic(lambda cfg, p, map_fn: corrector_growth(
            cfg.ensemble, cfg.box, p["radii"], p=p["p"], n=p["samples"],
            cfg=cfg.solver, map_fn=map_fn)),
        {"samples": Param(int, 100), "radii": Param(int, [4, 8, 16, 32], "+"),
         "p": Param(int, 1)}),
    "sg": Experiment(
        _statistic(lambda cfg, p, map_fn: {"reports": sg_check(
            cfg.ensemble, cfg.box, p["samples"], map_fn=map_fn)}),
        {"samples": Param(int, 500)}),
    "semigroup": Experiment(
        _statistic(lambda cfg, p, map_fn: semigroup_decay(
            cfg.ensemble, cfg.box, p["t_grid"], n=p["samples"], map_fn=map_fn)),
        {"samples": Param(int, 500), "t_grid": Param(float, [1, 4, 16, 64], "+")}),
    "green": Experiment(
        _statistic(lambda cfg, p, map_fn: green_decay(
            cfg.ensemble, cfg.box, p["samples"], radii=p["radii"] or None,
            cfg=cfg.solver, map_fn=map_fn)),
        {"samples": Param(int, 20), "radii": Param(int, None, "+")}),
    "meyers": Experiment(
        _statistic(lambda cfg, p, map_fn: meyers_probe(
            cfg.ensemble, cfg.box, n=p["samples"], q=p["q"], alpha_w=p["alpha_w"],
            cfg=cfg.solver, map_fn=map_fn)),
        {"samples": Param(int, 50), "q": Param(float, 1.1), "alpha_w": Param(float, 0.1)}),
    "birkhoff": Experiment(
        _statistic(lambda cfg, p, map_fn: birkhoff_rate(
            cfg.ensemble, cfg.box, p["R_list"], n=p["samples"], map_fn=map_fn)),
        {"samples": Param(int, 200), "R_list": Param(int, [4, 8, 16, 32], "+")}),
}


def _typed_params(cfg: ExperimentConfig) -> dict:
    """The experiment's parameters, typed, with defaults for the unset ones.

    Runs before any computation, so a bad parameter is a config error.
    """
    exp = EXPERIMENTS[cfg.experiment]
    if exp.needs_ensemble and cfg.ensemble is None:
        raise ConfigError(f"{cfg.experiment}: --ensemble is required")
    if exp.needs_ensemble and cfg.box is None:
        raise ConfigError(f"{cfg.experiment}: --L (and --d) are required")
    try:
        return {name: param.typed(cfg.params.get(name, param.default))
                for name, param in exp.params.items()}
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{cfg.experiment}: bad parameter: {exc}") from exc


def _execute(cfg: ExperimentConfig, threads: int) -> tuple[dict[str, str], dict]:
    """Run an experiment config in memory: its outputs {filename: text} and
    its manifest, which records their hashes."""
    config_json = cfg.to_json()
    config_blob = json.dumps(config_json, sort_keys=True).encode()
    params = _typed_params(cfg)
    map_fn, pool = _map_fn(threads)
    t0 = time.monotonic()
    try:
        with collecting_reports() as collector:
            outputs = EXPERIMENTS[cfg.experiment].run(cfg, params, map_fn)
    finally:
        if pool is not None:
            pool.shutdown()
    wall = time.monotonic() - t0
    manifest = {
        "artifact_version": __version__,
        "experiment": cfg.experiment,
        "config": config_json,
        "config_sha256": _sha256_hex(config_blob),
        "seed": cfg.ensemble.master_seed if cfg.ensemble else None,
        "outputs": {name: _sha256_hex(text.encode()) for name, text in sorted(outputs.items())},
        "wall_time_s": wall,
        "solver_summary": collector.summary(),
        "dense_solves": collector.dense_solves,
    }
    return outputs, manifest


def run(cfg: ExperimentConfig, threads: int = 1) -> dict:
    """Execute an experiment config and return its manifest.

    The output files and ``<out>.manifest.json`` are written atomically next
    to the configured paths.
    """
    outputs, manifest = _execute(cfg, threads)
    for name, text in sorted(outputs.items()):
        _atomic_write(name, text)
    _atomic_write(cfg.out + ".manifest.json", _json_text(manifest))
    return manifest


def replay(manifest_path: str, threads: int = 1) -> tuple[bool, dict]:
    """Re-run a manifest's config and diff against the recorded outputs.

    Returns (match, report).  Under fixed-order aggregation the diff must be
    empty at any thread count; numeric deviation is reported for diagnosis.
    A manifest without its ``config`` and ``outputs`` objects is a
    ``ConfigError``, raised before anything runs.
    """
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    if not (isinstance(manifest, dict) and isinstance(manifest.get("config"), dict)
            and isinstance(manifest.get("outputs"), dict)):
        raise ConfigError(f"malformed manifest {manifest_path}: needs 'config' and "
                          f"'outputs' objects")
    outputs, _ = _execute(ExperimentConfig.from_json(manifest["config"]), threads)
    report = {"files": {}, "max_abs_deviation": 0.0, "match": True}
    for name, sha in manifest["outputs"].items():
        new_text = outputs.get(name)
        entry = {"recorded_sha256": sha}
        if new_text is None:
            entry["status"] = "missing"
            report["match"] = False
        else:
            new_sha = _sha256_hex(new_text.encode())
            entry["recomputed_sha256"] = new_sha
            entry["status"] = "identical" if new_sha == sha else "differs"
            if new_sha != sha:
                report["match"] = False
                if os.path.exists(name):
                    with open(name) as fh:
                        old_text = fh.read()
                    dev = _numeric_deviation(old_text, new_text)
                    entry["max_abs_deviation"] = dev
                    report["max_abs_deviation"] = max(report["max_abs_deviation"], dev)
        report["files"][name] = entry
    return report["match"], report


def _numeric_deviation(old: str, new: str) -> float:
    def numbers(text: str) -> list[float]:
        out = []
        for tok in text.replace(",", " ").replace(":", " ").split():
            try:
                out.append(float(tok.strip('"[]{}')))
            except ValueError:
                pass
        return out

    a, b = numbers(old), numbers(new)
    if len(a) != len(b):
        return float("inf")
    return float(max((abs(x - y) for x, y in zip(a, b)), default=0.0))


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with the config-error code, not argparse's 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG_ERROR, f"{self.prog}: error: {message}\n")


def _add_threads(p: argparse.ArgumentParser, default: str) -> None:
    # argparse converts a string default with ``type`` when the flag is absent,
    # so a bad HOMOGLAB_THREADS is a usage error like a bad --threads value
    p.add_argument("--threads", type=int, default=default,
                   help="worker threads, at least 1 (default: $HOMOGLAB_THREADS, else 1)")


def _add_common(p: argparse.ArgumentParser, threads: str) -> None:
    p.add_argument("--config", help="full experiment config JSON (given flags override)")
    p.add_argument("--ensemble", help="ensemble spec JSON file")
    p.add_argument("--L", type=int, help="box side length")
    p.add_argument("--d", type=int, help="box dimension (default: the config's, else 2)")
    p.add_argument("--seed", type=int, help="override the ensemble master seed")
    _add_threads(p, threads)
    p.add_argument("--tol", type=float, help="CG relative residual target")
    p.add_argument("--max-iter", type=int, dest="max_iter")
    p.add_argument("--precond", choices=["none", "spectral"],
                   help="CG preconditioner: spectral (default) or none (plain CG)")
    p.add_argument("--out", help="output file path")
    p.add_argument("--gnuplot-script", action="store_true",
                   help="also emit a gnuplot script next to CSV outputs")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="homoglab",
        description="homogenization laboratory on periodic lattice boxes",
    )
    ap.add_argument("--version", action="version", version=f"homoglab {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    threads = os.environ.get("HOMOGLAB_THREADS", "1")
    for name, exp in EXPERIMENTS.items():
        p = sub.add_parser(name)
        _add_common(p, threads)
        for key, param in exp.params.items():
            p.add_argument("--" + key.replace("_", "-"), type=param.type, nargs=param.nargs)
    rp = sub.add_parser("replay")
    rp.add_argument("manifest", help="manifest JSON produced by a previous run")
    _add_threads(rp, threads)
    return ap


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    if args.config:
        with open(args.config) as fh:
            cfg = ExperimentConfig.from_json(json.load(fh))
        if cfg.experiment != args.command:
            raise ConfigError(
                f"config is for {cfg.experiment!r}, invoked as {args.command!r}")
    else:
        cfg = ExperimentConfig(experiment=args.command, params={})
    if args.ensemble:
        cfg.ensemble = EnsembleSpec.load(args.ensemble)
    if args.seed is not None:
        if cfg.ensemble is None:
            raise ConfigError("--seed needs an ensemble")
        cfg.ensemble = EnsembleSpec(cfg.ensemble.kind, cfg.ensemble.params,
                                    cfg.ensemble.lam, args.seed)
    d = args.d if args.d is not None else (cfg.box.d if cfg.box else 2)
    L = args.L if args.L is not None else (cfg.box.L if cfg.box else None)
    if L is not None:
        cfg.box = BoxSpec(d=d, L=L)
    flags = {"tol": args.tol, "max_iter": args.max_iter, "preconditioner": args.precond}
    cfg.solver = replace(cfg.solver, **{k: v for k, v in flags.items() if v is not None})
    for key in EXPERIMENTS[args.command].params:
        if getattr(args, key) is not None:
            cfg.params[key] = getattr(args, key)
    if args.out:
        cfg.out = args.out
    return cfg


_GNUPLOT = """set datafile separator ','
set logscale xy
set key autotitle columnhead
plot '{csv}' using 1:2 with linespoints
"""


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error(f"--threads (or HOMOGLAB_THREADS) must be at least 1, got {args.threads}")
    try:
        if args.command == "replay":
            ok, report = replay(args.manifest, threads=args.threads)
            message = json.dumps(report, indent=2, sort_keys=True)
            code = EXIT_OK if ok else EXIT_REPLAY_MISMATCH
        else:
            cfg = config_from_args(args)
            manifest = run(cfg, threads=args.threads)
            if args.gnuplot_script and cfg.out.endswith(".csv"):
                _atomic_write(cfg.out + ".gp", _GNUPLOT.format(csv=cfg.out))
            message = (f"wrote {', '.join(sorted(manifest['outputs']))} "
                       f"(manifest {cfg.out}.manifest.json)")
            code = EXIT_OK
    # ValueError: ConfigError, EnsembleError, JSONDecodeError. OSError: a file that
    # cannot be read or a path that cannot be written, such as a directory; <out>
    # is written first, so then nothing is, unless it is the gnuplot script's, last
    except (OSError, ValueError) as exc:
        prefix = "replay error" if args.command == "replay" else "config error"
        print(f"{prefix}: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER_FAILURE
    print(message)
    return code


if __name__ == "__main__":
    sys.exit(main())
