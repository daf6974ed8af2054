"""One experiment invocation in a fresh interpreter.

Usage: python3 child.py JOB_JSON

The job file names the checkout root, the CLI argv, whether to trace, and
where to write spans.  The child imports ``homoglab.cli`` from
``<root>/src``, builds the config through the CLI's own parser, prints
``ready`` on stdout (the parent times set-up up to that line), times one
``homoglab.cli.run`` call, and then -- outside the timed region -- checks
the outputs and prints one JSON result line.  It exits 1 if the run raises.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback


def main() -> int:
    with open(sys.argv[1]) as fh:
        job = json.load(fh)
    sys.path.insert(0, os.path.join(job["root"], "src"))
    from homoglab import cli

    args = cli.build_parser().parse_args(job["argv"])
    cfg = cli.config_from_args(args)

    tracer = None
    if job["trace"]:
        import spans

        tracer = spans.Tracer()
        tracer.install()

    # Keep the CorrectorSet the CLI computes, so the check sees the full
    # skew field; the CSV holds only its upper triangle.
    captured = {}
    if cfg.experiment == "corrector":
        inner = cli.corrector_set

        def keep(*a, **kw):
            captured["set"] = inner(*a, **kw)
            return captured["set"]

        cli.corrector_set = keep

    print("ready", flush=True)
    t0 = time.perf_counter()
    try:
        manifest = cli.run(cfg, threads=args.threads)
    except Exception as exc:  # any failure of the run is a failed invocation
        print(json.dumps({"ok": False, "error": f"{type(exc).__name__}: {exc}",
                          "traceback": traceback.format_exc()}), flush=True)
        return 1
    compute_s = time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "ok": True,
        "compute_s": compute_s,
        "rss_mb": rss_mb,
        "outputs": manifest["outputs"],
        "solver_summary": manifest["solver_summary"],
        "bytes_written": sum(os.path.getsize(p) for p in
                             [*manifest["outputs"], cfg.out + ".manifest.json"]),
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_totals(result["bytes_written"])
        result["bindings"] = tracer.bindings
        tracer.write(job["spans_path"])

    import checks

    problems, key_values = checks.check(cfg, manifest, captured.get("set"))
    if tracer is not None:
        problems += checks.check_trace(result["layers"], manifest["solver_summary"])
    result["problems"] = problems
    result["key_values"] = key_values
    result["ok"] = not problems
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
