"""Experiment driver.

Parses a config (flags or JSON file), dispatches to the library, and writes
reproducible CSV/JSON artifacts plus a run manifest.  Outputs stream in byte
chunks into temp files that are renamed together once all are complete,
numeric CSV cells carry 17 significant digits, and aggregation runs in fixed
sample order, so an identical config produces byte-identical files at any
thread count.

Exit codes: 0 success, 1 replay mismatch, 2 solver failure, 3 config error.
"""

from __future__ import annotations

import argparse
import ctypes
import errno
import hashlib
import json
import math
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Callable, Iterable

import numpy as np

from . import __version__
from .lattice import BoxSpec, ParameterError, _CsvText, _as_float, _exact_int, _only
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
            "solver": {**_record(self.solver), "anchor": "mean-zero", "max_iter": None},
            "out": self.out,
        }

    @staticmethod
    def from_json(obj: dict) -> "ExperimentConfig":
        _only(obj, ("experiment", "params", "ensemble", "box", "solver", "out"), "config")
        experiment = obj.get("experiment")
        if not (isinstance(experiment, str) and experiment in EXPERIMENTS):
            raise ParameterError(f"unknown experiment {experiment!r}")
        given = {key: obj[key] for key in ("params", "ensemble", "box", "solver")
                 if obj.get(key) is not None}  # absent or null: not given
        for key, value in given.items():
            if not isinstance(value, dict):
                raise ParameterError(f"{key} must be an object, got {value!r}")
        solver = dict(_only(given.get("solver", {}),
                            ("tol", "preconditioner", "anchor", "max_iter"), "solver"))
        for key, value in (("anchor", "mean-zero"), ("max_iter", None)):  # recorded constants
            if solver.pop(key, value) != value:
                raise ParameterError(f"the solver's {key} must be {json.dumps(value)}")
        return ExperimentConfig(
            experiment=experiment,
            params=given.get("params", {}),
            ensemble=EnsembleSpec.from_json(given["ensemble"]) if "ensemble" in given else None,
            box=BoxSpec.from_json(given["box"]) if "box" in given else None,
            solver=SolverConfig(**solver),
            out=obj.get("out", "out"),
        )


def _sha256_hex(chunks: Iterable[bytes]) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


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


@contextmanager
def _atomic_write():
    """Yield ``write(path, chunks)``, which streams the byte chunks into a temp file
    beside ``path`` and returns their SHA-256.  On a clean exit every temp file is
    renamed into place, after the last one is complete and every path is checked;
    on a failure they are all removed, and no path has changed.  A new file gets
    the mode ``open(path, "w")`` gives it, 0o666 less the umask."""
    temps = {}

    def write(path: str, chunks: Iterable[bytes]) -> str:
        directory = os.path.dirname(os.path.abspath(path)) or "."
        os.makedirs(directory, exist_ok=True)
        tmp = os.path.join(directory, f"tmp{os.urandom(8).hex()}.tmp")
        digest = hashlib.sha256()
        with open(tmp, "xb") as fh:
            temps[path] = tmp
            for chunk in chunks:
                digest.update(chunk)
                fh.write(chunk)
        return digest.hexdigest()

    try:
        yield write
        for path in temps:  # os.replace would fail on a directory after earlier renames
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, "cannot write over a directory", path)
        for path, tmp in temps.items():
            os.replace(tmp, path)
    except BaseException:
        for tmp in temps.values():
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# experiment table: one row per experiment, its parameters and its runner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Param:
    """One experiment parameter: ``--name`` (``_`` -> ``-``) on the command
    line, ``name`` in the config's params, typed and defaulted only here."""

    type: type
    default: object
    nargs: str | None = None

    def typed(self, value, name: str):
        read = _int64 if self.type is int else _as_float  # 5.7 and true are errors
        if self.nargs and not isinstance(value, list):
            raise ParameterError(f"{name} must be a list, got {value!r}")
        return [read(v, f"{name} value") for v in value] if self.nargs else read(value, name)


def _int64(value, name: str) -> int:
    """An experiment integer, which numpy holds as int64."""
    if not -2**63 <= (number := _exact_int(value, name)) < 2**63:
        raise ParameterError(f"bad {name} {value!r}: it does not fit in int64")
    return number


@dataclass(frozen=True)
class Experiment:
    """``run(cfg, params, map_fn)`` returns {filename: iterable of byte chunks}, each
    of which formats its chunks anew on every pass over it (``replay`` takes a second
    pass only for an output whose hash differs); ``params`` holds every parameter of
    the row, typed, with defaults filled in."""

    run: Callable
    params: dict[str, Param]
    needs_ensemble: bool = True


def _json_out(cfg: ExperimentConfig, result, **extra) -> dict[str, list[bytes]]:
    """The JSON envelope, one chunk: the result's fields, seed, extra fields, config."""
    return {cfg.out: [_json_text({**_record(result), "seed": cfg.ensemble.master_seed,
                                  **extra, "config": cfg.to_json()}).encode()]}


def _statistic(compute: Callable) -> Callable:
    """Runner for a statistics experiment: ``compute(cfg, params, map_fn)``
    returns the report, enveloped with seed, box, n and config."""

    def run_statistic(cfg: ExperimentConfig, p: dict, map_fn) -> dict[str, Iterable[bytes]]:
        return _json_out(cfg, compute(cfg, p, map_fn), box=cfg.box.to_json(), n=p["samples"])

    return run_statistic


def _run_oned(cfg: ExperimentConfig, p: dict, map_fn) -> dict[str, Iterable[bytes]]:
    profiles = oned_mod.read_profiles(cfg.params)
    with np.errstate(all="ignore"):  # a profile that leaves the float range: checked below
        rows = [oned_mod.two_scale_check_1d(profile) for profile in profiles]
    columns = [[getattr(r, k) for r in rows]
               for k in ("eps", "sup_error", "error", "bound_statement", "ratio_statement")]
    if not np.isfinite(columns).all():
        raise ParameterError("oned: the table leaves the float range; scale a or f")
    return {cfg.out: _CsvText(
        ["eps", "sup_error", "h1_twoscale_error", "bound_rhs", "ratio"], columns)}


def _run_cell(cfg: ExperimentConfig, p: dict, map_fn) -> dict[str, Iterable[bytes]]:
    t = ahom_cell(sample(cfg.ensemble, cfg.box, SampleId(p["sample"])), cfg.solver)
    return _json_out(cfg, t, sample=p["sample"],
                     properties=verify_ahom_properties(t, lam=cfg.ensemble.lam))


def _run_ahom(cfg: ExperimentConfig, p: dict, map_fn) -> dict[str, Iterable[bytes]]:
    with collecting_reports() as collector:
        t = ahom_rve(cfg.ensemble, cfg.box, p["samples"], cfg.solver, map_fn=map_fn)
    return _json_out(cfg, t, solver_reports=collector.summary(),
                     properties=verify_ahom_properties(t, lam=cfg.ensemble.lam))


def _run_corrector(cfg: ExperimentConfig, p: dict, map_fn) -> dict[str, Iterable[bytes]]:
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
    return {cfg.out: _CsvText(header, columns),
            cfg.out + ".meta.json": [_json_text(meta).encode()]}


def _run_twoscale(cfg: ExperimentConfig, p: dict, map_fn) -> dict[str, Iterable[bytes]]:
    reports = two_scale_experiment(cfg.ensemble, cfg.box, p["alpha"], p["samples"],
                                   cfg=cfg.solver, map_fn=map_fn)
    header = ["sample", "lhs", "rhs_phi", "rhs_sigma", "ratio"]
    return {cfg.out: _CsvText(header, [[getattr(r, k) for r in reports] for k in header])}


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
        {"samples": Param(int, 500), "t_grid": Param(float, [1.0, 4.0, 16.0, 64.0], "+")}),
    "green": Experiment(
        _statistic(lambda cfg, p, map_fn: green_decay(
            cfg.ensemble, cfg.box, p["samples"], radii=p["radii"],
            cfg=cfg.solver, map_fn=map_fn)),
        {"samples": Param(int, 20), "radii": Param(int, None, "+")}),  # None: the L/8 rule
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
    """The parameters the config gives, typed, and the table's default for the rest.

    Runs before any computation, so a bad parameter is a config error.
    """
    exp = EXPERIMENTS[cfg.experiment]
    if exp.needs_ensemble and cfg.ensemble is None:
        raise ParameterError(f"{cfg.experiment}: --ensemble is required")
    if exp.needs_ensemble and cfg.box is None:
        raise ParameterError(f"{cfg.experiment}: --L (and --d) are required")
    # oned's reader, read_profiles, checks its own keys; cell and corrector once
    # recorded a "samples" they did not read, and those configs still run
    if cfg.experiment != "oned":
        _only(cfg.params, {**exp.params, "samples": None}, f"{cfg.experiment} params")
    return {name: param.typed(cfg.params[name], name) if name in cfg.params else param.default
            for name, param in exp.params.items()}


def _openblas_threads():
    """numpy's bundled OpenBLAS (get, set) thread-count functions, or None."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for name in os.listdir(libs) if os.path.isdir(libs) else ():
        lib = ctypes.CDLL(os.path.join(libs, name))
        if hasattr(lib, "scipy_openblas_set_num_threads64_"):
            get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


_blas_lock = threading.Lock()
_blas_pin = {"runs": 0, "found": 1}  # runs inside the pin; the count the first one found


@contextmanager
def _one_blas_thread():
    """Hold numpy's OpenBLAS at one thread, for the same bits at any OPENBLAS_NUM_THREADS,
    and yield whether it could; the last overlapping run restores the first's count."""
    get, put = _openblas_threads() or (None, None)
    with _blas_lock:
        if put is not None and not _blas_pin["runs"]:
            _blas_pin["found"] = get()
            put(1)
        _blas_pin["runs"] += 1
    try:
        yield put is not None
    finally:
        with _blas_lock:
            _blas_pin["runs"] -= 1
            if put is not None and not _blas_pin["runs"]:
                put(_blas_pin["found"])


# the most worker threads of a run: a pool gets up to ensembles.RUNS_PER_MAP tasks at
# once, so it may start min(threads, those tasks) OS threads
MAX_THREADS = 64


def _execute(cfg: ExperimentConfig, threads: int) -> tuple[dict[str, Iterable[bytes]], dict]:
    """Run an experiment config: its outputs {filename: byte chunks}, which may be formatted
    as they are read, and its manifest, without the outputs' hashes.  More than ``MAX_THREADS``
    threads, or an ``out`` naming no file, is a ``ParameterError`` raised before all else."""
    if threads > MAX_THREADS:
        raise ParameterError(f"--threads {threads} is more than {MAX_THREADS}")
    out = cfg.out  # a path holds no NUL byte, and "", "d/", "." or ".." names a directory
    if not isinstance(out, str) or "\0" in out or os.path.basename(out) in ("", ".", ".."):
        raise ParameterError(f"out must be a path string that names a file, got {out!r}")
    config_json = cfg.to_json()
    config_blob = json.dumps(config_json, sort_keys=True).encode()
    params = _typed_params(cfg)
    # glibc maps each block above its mmap threshold afresh and trims the heap above twice
    # that threshold, which starts at 128 KiB and rises when a mapped block is freed
    # (mallopt(3)): freeing a 1 MiB block keeps a run's temporaries on the heap
    np.empty(1 << 17)
    t0 = time.monotonic()
    # no worker starts before the first task, and one thread maps serially
    with (ThreadPoolExecutor(max_workers=max(threads, 1)) as pool,
          collecting_reports() as collector, _one_blas_thread() as blas_pinned):
        outputs = EXPERIMENTS[cfg.experiment].run(cfg, params, pool.map if threads > 1 else map)
    wall = time.monotonic() - t0
    manifest = {
        "artifact_version": __version__,
        "experiment": cfg.experiment,
        "config": config_json,
        "config_sha256": _sha256_hex([config_blob]),
        "seed": cfg.ensemble.master_seed if cfg.ensemble else None,
        "wall_time_s": wall,
        "solver_summary": collector.summary(),
        "dense_solves": collector.dense_solves,
        "blas_pinned": blas_pinned,
    }
    return outputs, manifest


def run(cfg: ExperimentConfig, threads: int = 1) -> dict:
    """Execute an experiment config and return its manifest.

    Each output streams, chunk by chunk, into a temp file next to its path and
    into the SHA-256 the manifest records; the outputs and ``<out>.manifest.json``
    replace their paths together once all are complete.
    """
    outputs, manifest = _execute(cfg, threads)
    with _atomic_write() as write:
        manifest["outputs"] = {name: write(name, chunks)
                               for name, chunks in sorted(outputs.items())}
        write(cfg.out + ".manifest.json", [_json_text(manifest).encode()])
    return manifest


def replay(manifest_path: str, threads: int = 1) -> tuple[bool, dict]:
    """Re-run a manifest's config and diff against the recorded outputs.

    Returns (match, report).  Under fixed-order aggregation the diff must be
    empty at any thread count; numeric deviation is reported for diagnosis.
    A manifest without its ``config`` object and its ``outputs`` object of hash
    strings is a ``ParameterError``, raised before anything runs.
    """
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    if not (isinstance(manifest, dict) and isinstance(manifest.get("config"), dict)
            and isinstance(manifest.get("outputs"), dict)
            and all(isinstance(sha, str) for sha in manifest["outputs"].values())):
        raise ParameterError(f"malformed manifest {manifest_path}: needs a 'config' object "
                             f"and an 'outputs' object of hash strings")
    cfg = ExperimentConfig.from_json(manifest["config"])
    outputs, _ = _execute(cfg, threads)
    report = {"files": {}, "max_abs_deviation": 0.0}
    for name, sha in manifest["outputs"].items():
        entry = {"recorded_sha256": sha, "status": "missing"}
        report["files"][name] = entry
        if name not in outputs:
            continue
        chunks = outputs.pop(name)
        new_sha = _sha256_hex(chunks)  # streamed: no whole copy of the output is kept
        entry["recomputed_sha256"] = new_sha
        entry["status"] = "identical" if new_sha == sha else "differs"
        if new_sha != sha and os.path.exists(name):
            with open(name, "rb") as fh:
                old = fh.read()
            if _sha256_hex([old]) == sha:  # only the recorded file measures a deviation
                dev = _numeric_deviation(old.decode(), b"".join(chunks).decode())
                entry["max_abs_deviation"] = dev
                report["max_abs_deviation"] = max(report["max_abs_deviation"], dev)
    for name in sorted(outputs):  # what is left, the manifest does not list
        report["files"][name] = {"recomputed_sha256": _sha256_hex(outputs[name]),
                                 "status": "unrecorded"}
    report["match"] = all(e["status"] == "identical" for e in report["files"].values())
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


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="full experiment config JSON (given flags override)")
    p.add_argument("--ensemble", help="ensemble spec JSON file")
    p.add_argument("--L", type=int, help="box side length")
    p.add_argument("--d", type=int, help="box dimension (default: the config's, else 2)")
    p.add_argument("--seed", type=int, help="override the ensemble master seed")
    p.add_argument("--threads", type=int, default=1, help="worker threads, at least 1")
    p.add_argument("--tol", type=float, help="CG relative residual target")
    p.add_argument("--precond", choices=["none", "spectral"],
                   help="CG preconditioner: spectral (default) or none (plain CG)")
    p.add_argument("--out", help="output file path")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="homoglab",
        description="homogenization laboratory on periodic lattice boxes",
    )
    ap.add_argument("--version", action="version", version=f"homoglab {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, exp in EXPERIMENTS.items():
        p = sub.add_parser(name)
        _add_common(p)
        for key, param in exp.params.items():
            p.add_argument("--" + key.replace("_", "-"), type=param.type, nargs=param.nargs)
    rp = sub.add_parser("replay")
    rp.add_argument("manifest", help="manifest JSON produced by a previous run")
    rp.add_argument("--threads", type=int, default=1, help="worker threads, at least 1")
    return ap


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    if args.config:
        with open(args.config) as fh:
            cfg = ExperimentConfig.from_json(json.load(fh))
        if cfg.experiment != args.command:
            raise ParameterError(
                f"config is for {cfg.experiment!r}, invoked as {args.command!r}")
    else:
        cfg = ExperimentConfig(experiment=args.command, params={})
    if args.ensemble:
        cfg.ensemble = EnsembleSpec.load(args.ensemble)
    if args.seed is not None:
        if cfg.ensemble is None:
            raise ParameterError("--seed needs an ensemble")
        cfg.ensemble = replace(cfg.ensemble, master_seed=args.seed)
    d = args.d if args.d is not None else (cfg.box.d if cfg.box else 2)
    L = args.L if args.L is not None else (cfg.box.L if cfg.box else None)
    if L is not None:
        cfg.box = BoxSpec(d=d, L=L)
    flags = {"tol": args.tol, "preconditioner": args.precond}
    cfg.solver = replace(cfg.solver, **{k: v for k, v in flags.items() if v is not None})
    for key in EXPERIMENTS[args.command].params:
        if getattr(args, key) is not None:
            cfg.params[key] = getattr(args, key)
    if args.out is not None:
        cfg.out = args.out
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error(f"--threads must be at least 1, got {args.threads}")
    try:
        if args.command == "replay":
            ok, report = replay(args.manifest, threads=args.threads)
            message = json.dumps(report, indent=2, sort_keys=True)
            code = EXIT_OK if ok else EXIT_REPLAY_MISMATCH
        else:
            cfg = config_from_args(args)
            manifest = run(cfg, threads=args.threads)
            message = (f"wrote {', '.join(sorted(manifest['outputs']))} "
                       f"(manifest {cfg.out}.manifest.json)")
            code = EXIT_OK
    # bad input: a rejected parameter, a file that cannot be read or parsed, or a
    # path that cannot be written (the files are renamed only once all are written,
    # so then nothing is); anything else is a bug
    except (ParameterError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
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
