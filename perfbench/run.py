"""homoglab benchmark: CLI experiments timed end to end, traced per layer.

Run from the checkout root:

    python3 perfbench/run.py --workload green3d --seed 1 --seconds 20 --trace 0

Each experiment invocation runs in a fresh interpreter (``child.py``) the
way ``homoglab <experiment>`` does: import ``homoglab.cli``, build the
config with the CLI parser, call ``homoglab.cli.run``, which writes the
outputs and the manifest.  Invocations repeat for about ``--seconds``;
every invocation's outputs are checked after its timed region.

``--trace 0`` reports the end-to-end metrics:
  samples_per_s  samples processed / seconds spent in ``cli.run``, writes included
  setup_s        median time from a fresh interpreter to ready-to-compute
                 (imports + config)
  peak_rss_mb    median peak resident memory of an invocation's process
``--trace 1`` alternates untraced and traced invocations of the same
config and reports the per-layer metrics of ``PER_LAYER``, per sample.

The last stdout line is the JSON result; a failed invocation (raised,
exited non-zero, unconverged solve, or failed check) counts in ``failed``.
The full record, with the environment, goes to
``.perfbench_out/results/<workload>-seed<seed>-trace<trace>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

DEFAULT_SEED = 1     # reference values in reference.json are for this seed
HELDOUT_SEED = 2     # kept out of tuning; a claimed gain must also hold here
# Relative to each key's largest entry.  A change of preconditioner moves
# these numbers by about 1e-11; a wrong sample or operator moves them by 1e-3.
REFERENCE_RTOL = 1e-7

ENSEMBLE = {"kind": "iid-two-point", "params": {"alpha": 0.25, "beta": 0.75},
            "lambda": 0.2}

# argv after the experiment's own sample flags; "samples" is the number of
# coefficient samples one invocation processes.
WORKLOADS = {
    "green3d": {"argv": ["green", "--d", "3", "--L", "64", "--radii", "2", "3", "4", "5", "6",
                         "--precond", "spectral"],
                "samples": 1, "threads": 1, "out": "green.json"},
    "sg2d": {"argv": ["sg", "--d", "2", "--L", "8"],
             "samples": 80, "threads": 1, "twin_threads": 2, "out": "sg.json"},
    "sg2d-t2": {"argv": ["sg", "--d", "2", "--L", "8"],
                "samples": 80, "threads": 2, "twin_threads": 1, "out": "sg.json"},
    "corrector2d": {"argv": ["corrector", "--d", "2", "--L", "256"],
                    "samples": 1, "threads": 1, "out": "corrector.csv"},
}

# BLAS / OpenMP pools pinned to one thread, so only --threads adds threads.
PINNED_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

MIN_INVOCATIONS = 3
INVOCATION_TIMEOUT_S = 45.0


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


# name, unit, value from (summed raw totals t, samples n); all "lower is better"
PER_LAYER = (
    ("elliptic.solves", "count/sample", lambda t, n: t["elliptic.solves"] / n),
    ("elliptic.solves_failed", "count/sample", lambda t, n: t["elliptic.solves_failed"] / n),
    ("elliptic.iterations", "count/sample", lambda t, n: t["elliptic.iterations"] / n),
    ("elliptic.iterations_per_solve", "count/solve",
     lambda t, n: _ratio(t["elliptic.iterations"], t["elliptic.solves"])),
    ("elliptic.cg_solve_s", "s/sample", lambda t, n: t["elliptic.cg_s"] / n),
    ("elliptic.cg_self_ms_per_iter", "ms/iter",
     lambda t, n: _ratio(t["elliptic.cg_self_s"], t["elliptic.iterations"], 1e3)),
    ("elliptic.operator_calls", "count/sample", lambda t, n: t["elliptic.operator_calls"] / n),
    ("elliptic.operator_ms_per_call", "ms/call",
     lambda t, n: _ratio(t["elliptic.operator_s"], t["elliptic.operator_calls"], 1e3)),
    ("elliptic.precond_calls", "count/sample", lambda t, n: t["elliptic.precond_calls"] / n),
    ("elliptic.precond_ms_per_call", "ms/call",
     lambda t, n: _ratio(t["elliptic.precond_s"], t["elliptic.precond_calls"], 1e3)),
    ("correctors.corrector_set_s", "s/sample", lambda t, n: t["correctors.corrector_set_s"] / n),
    ("correctors.solve_flux_corrector_s", "s/sample",
     lambda t, n: t["correctors.solve_flux_corrector_s"] / n),
    ("correctors.flux_corrector_iterations", "count/sample",
     lambda t, n: t["correctors.flux_corrector_iterations"] / n),
    ("quant.functional_calls", "count/sample", lambda t, n: t["quant.functional_calls"] / n),
    ("quant.functional_s", "s/sample", lambda t, n: t["quant.functional_s"] / n),
    ("quant.cell_ahom_entry_ms_per_call", "ms/call",
     lambda t, n: _ratio(t["quant.cell_ahom_entry_s"], t["quant.cell_ahom_entry_calls"], 1e3)),
    ("quant.experiment_self_s", "s/sample", lambda t, n: t["quant.experiment_self_s"] / n),
    ("ensembles.site_variants_calls", "count/sample",
     lambda t, n: t["ensembles.site_variants_calls"] / n),
    ("ensembles.site_variants_s", "s/sample", lambda t, n: t["ensembles.site_variants_s"] / n),
    ("ensembles.sample_calls", "count/sample", lambda t, n: t["ensembles.sample_calls"] / n),
    ("ensembles.sample_s", "s/sample", lambda t, n: t["ensembles.sample_s"] / n),
    ("cli.self_s", "s/sample", lambda t, n: t["cli.self_s"] / n),
    ("cli.bytes_written", "B/sample", lambda t, n: t["cli.bytes_written"] / n),
)


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# one invocation
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in PINNED_ENV})
    env.pop("HOMOGLAB_THREADS", None)
    return env


def invocation(workload: str, seed: int, k: int, mode: str, threads: int | None = None) -> dict:
    """Run invocation ``k`` of a workload in a fresh interpreter; ``mode`` is
    ``plain``, ``traced`` or ``twin`` (plain at the other thread count)."""
    w = WORKLOADS[workload]
    threads = w["threads"] if threads is None else threads
    per_sample_index = w["argv"][0] == "corrector"
    # corrector: consecutive --sample indices of the seed's ensemble;
    # the others always draw samples 0..n-1, so each invocation gets its own
    # master seed.
    master_seed = seed if per_sample_index else seed * 1000 + k
    count = ["--sample", str(k)] if per_sample_index else ["--samples", str(w["samples"])]
    work = OUT / "work" / f"{workload}-{k}-{mode}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (work / "ensemble.json").write_text(json.dumps({**ENSEMBLE, "master_seed": master_seed}))
    spans_path = OUT / "spans" / f"{workload}-seed{seed}-{k}.json"
    job = {
        "root": str(ROOT),
        "argv": [*w["argv"], *count, "--ensemble", "ensemble.json",
                 "--threads", str(threads), "--out", w["out"]],
        "trace": mode == "traced",
        "spans_path": str(spans_path),
    }
    (work / "job.json").write_text(json.dumps(job))
    if job["trace"]:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
    record = {"k": k, "mode": mode, "threads": threads, "master_seed": master_seed,
              "samples": w["samples"], "argv": job["argv"], "ok": False}
    with open(work / "stderr.txt", "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), "job.json"],
                                cwd=work, env=child_env(), stdout=subprocess.PIPE,
                                stderr=err, text=True)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            first = proc.stdout.readline()
            record["setup_s"] = time.perf_counter() - t0
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    lines = rest.strip().splitlines()
    if first.strip() != "ready" or not lines:
        record["error"] = f"no result (exit {code}): {(work / 'stderr.txt').read_text()[-2000:]}"
    else:
        record.update(json.loads(lines[-1]))
        if code != 0:
            record["ok"] = False
            record.setdefault("error", f"exit {code}")
    record["exit_code"] = code
    shutil.rmtree(work, ignore_errors=True)
    if not record["ok"]:
        log(f"invocation {k} ({mode}) failed: {record.get('error') or record.get('problems')}")
    return record


def warm_up() -> None:
    """Import homoglab once so bytecode caches exist before set-up is timed."""
    subprocess.run([sys.executable, "-c",
                    "import sys; sys.path[:0] = ['src', 'perfbench']; "
                    "import homoglab.cli, checks, spans"],
                   cwd=ROOT, env=child_env(), check=True, timeout=INVOCATION_TIMEOUT_S,
                   stdout=subprocess.DEVNULL)


# ---------------------------------------------------------------------------
# checks across invocations
# ---------------------------------------------------------------------------


def cross_checks(workload: str, seed: int, records: list[dict], trace: bool,
                 record_reference: bool) -> tuple[list[str], list[dict]]:
    """Thread-count byte identity, traced == untraced bytes, stored references."""
    problems, extra = [], []
    plain = {r["k"]: r for r in records if r["mode"] == "plain" and r["ok"]}
    w = WORKLOADS[workload]
    if "twin_threads" in w and 0 in plain:
        twin = invocation(workload, seed, 0, "twin", threads=w["twin_threads"])
        extra.append(twin)
        if twin["ok"] and twin["outputs"] != plain[0]["outputs"]:
            problems.append(f"outputs differ between --threads {w['threads']} "
                            f"and --threads {w['twin_threads']}")
    if trace:
        for r in records:
            if r["mode"] == "traced" and r["ok"] and r["k"] in plain \
                    and r["outputs"] != plain[r["k"]]["outputs"]:
                problems.append(f"invocation {r['k']}: traced output bytes differ from untraced")
    if seed == DEFAULT_SEED and 0 in plain:
        ref_path = HERE / "reference.json"
        refs = json.loads(ref_path.read_text()) if ref_path.exists() else {}
        got = plain[0]["key_values"]
        if record_reference:
            refs[workload] = {"argv": plain[0]["argv"], "master_seed": plain[0]["master_seed"],
                              "values": got}
            ref_path.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")
        elif refs.get(workload, {}).get("argv") != plain[0]["argv"]:
            problems.append(f"no reference values for {workload} as invoked now")
        else:
            problems += compare_reference(refs[workload], got)
    return problems, extra


def compare_reference(ref: dict, got: dict) -> list[str]:
    """Each key's numbers must match within REFERENCE_RTOL of the key's largest entry."""
    problems = []
    for key, want in ref["values"].items():
        want_l = want if isinstance(want, list) else [want]
        have = got.get(key)
        have_l = have if isinstance(have, list) else [have]
        scale = max(abs(v) for v in want_l)
        if len(have_l) != len(want_l) or any(
                h is None or abs(h - v) > REFERENCE_RTOL * scale for h, v in zip(have_l, want_l)):
            problems.append(f"reference mismatch on {key}: {have} vs stored {want}")
    return problems


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end(records: list[dict]) -> dict:
    ok = [r for r in records if r["mode"] == "plain" and "compute_s" in r]
    # Throughput over the whole timed run, not a median of per-invocation
    # rates: host contention here comes in phases of several seconds, and a
    # median jumps between the fast and the slow phase.
    return {
        "samples_per_s": {"value": sum(r["samples"] for r in ok) / sum(r["compute_s"] for r in ok),
                          "unit": "1/s"},
        "setup_s": {"value": statistics.median(r["setup_s"] for r in ok), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(r["rss_mb"] for r in ok), "unit": "MB"},
    }


def per_layer(records: list[dict]) -> dict:
    traced = [r for r in records if r["mode"] == "traced" and "layers" in r]
    plain = {r["k"]: r for r in records if r["mode"] == "plain" and "compute_s" in r}
    totals: dict = {}
    for r in traced:
        for key, v in r["layers"].items():
            totals[key] = totals.get(key, 0) + v
    n = sum(r["samples"] for r in traced)
    metrics = {name: {"value": fn(totals, n), "unit": unit} for name, unit, fn in PER_LAYER}
    pairs = [r["compute_s"] / plain[r["k"]]["compute_s"] for r in traced if r["k"] in plain]
    metrics["trace.overhead_fraction"] = {"value": statistics.median(pairs) - 1.0,
                                          "unit": "fraction"}
    return metrics


def environment(workload: str, seed: int, trace: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
            if git.returncode == 0:
                commit = git.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    version = re.search(r'__version__ = "([^"]+)"',
                        (ROOT / "src" / "homoglab" / "__init__.py").read_text())
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "default_seed": DEFAULT_SEED, "heldout_seed": HELDOUT_SEED,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "homoglab": version.group(1) if version else "unknown",
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "cpu_model": cpu, "git_commit": commit,
        "pinned_env": {var: "1" for var in PINNED_ENV},
        "benchmark_sha256": hashlib.sha256(
            b"".join(p.read_bytes() for p in sorted(HERE.glob("*.py")))).hexdigest(),
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help=f"store invocation 0's key values as the reference "
                         f"(needs --seed {DEFAULT_SEED})")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "homoglab" / "cli.py").is_file():
        log(f"no homoglab sources under {ROOT / 'src'}; run from a full checkout")
        return 2
    if args.record_reference and args.seed != DEFAULT_SEED:
        log(f"--record-reference needs --seed {DEFAULT_SEED}")
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    env = environment(args.workload, args.seed, args.trace)
    for old in (OUT / "spans").glob(f"{args.workload}-seed*.json"):
        old.unlink()
    warm_up()
    records: list[dict] = []
    durations: list[float] = []
    start = time.perf_counter()
    k = 0
    # Start another invocation while it would end, on the median so far, no
    # more than half an invocation past --seconds.
    while k < MIN_INVOCATIONS or (time.perf_counter() - start
                                  + statistics.median(durations) / 2 < args.seconds):
        t0 = time.perf_counter()
        modes = ("plain",)
        if args.trace:  # alternate which side of the pair runs first
            modes = ("plain", "traced") if k % 2 == 0 else ("traced", "plain")
        for mode in modes:
            records.append(invocation(args.workload, args.seed, k, mode))
        durations.append(time.perf_counter() - t0)
        k += 1
    problems, extra = cross_checks(args.workload, args.seed, records, bool(args.trace),
                                   args.record_reference)
    records += extra
    for p in problems:
        log(f"check failed: {p}")
    failed = sum(not r["ok"] for r in records)
    try:
        metrics = per_layer(records) if args.trace else end_to_end(records)
    except (statistics.StatisticsError, ZeroDivisionError, KeyError):
        log("no invocation ran to completion")
        return 1
    result = {"correct": failed == 0 and not problems, "attempted": len(records),
              "failed": failed, "metrics": metrics}
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "environment": env, "problems": problems,
                    "invocations": records}, indent=1) + "\n")
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
