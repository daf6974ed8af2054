"""Outside-in tracing of homoglab's public calls.

The tracer replaces each traced function with one timing wrapper in every
``homoglab`` module namespace that bound it (``from .ensembles import
sample`` makes ``quant.sample``, ``cli.sample``, ... separate bindings of
one function).  Wrappers are keyed by the identity of the original, so a
binding is never wrapped twice and a call is never counted twice.  The
``operator`` and ``precond`` callables that ``cg_solve`` receives are timed
per call.  Functional classes of ``quant`` are traced through their
``__call__``.

Spans (id, name, start, end, parent, sample) stay in memory and are written
once at the end.  A span opened in a worker thread with no open span of its
own is parented to the innermost open span of the installing thread, which
is the experiment call that submitted the work.
"""

from __future__ import annotations

import inspect
import itertools
import json
import sys
import threading
from time import perf_counter

# (module, attribute) of every traced public function, and the span name.
FUNCTIONS = (
    ("homoglab.cli", "run", "cli.run"),
    ("homoglab.elliptic", "cg_solve", "elliptic.cg_solve"),
    ("homoglab.correctors", "corrector_set", "correctors.corrector_set"),
    ("homoglab.correctors", "solve_flux_corrector", "correctors.solve_flux_corrector"),
    ("homoglab.quant", "green_decay", "quant.experiment"),
    ("homoglab.quant", "sg_check", "quant.experiment"),
    ("homoglab.ensembles", "sample", "ensembles.sample"),
    ("homoglab.ensembles", "site_variants", "ensembles.site_variants"),
)
FUNCTIONALS = ("SingleSiteEntry", "BoxAverageEntry", "CellAhomEntry")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [id, name, start, end, parent, sample, attrs]
        self.bindings: dict[str, list[str]] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _open(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        sid = next(self._ids)
        stack.append(sid)
        return stack, sid, parent

    def _close(self, stack, sid, parent, name, t0, attrs=None):
        t1 = perf_counter()
        stack.pop()
        sample = getattr(self._local, "sample", None)
        self.spans.append([sid, name, t0, t1, parent, sample, attrs])

    def _timed(self, name, fn, attrs_of=None, failed_attrs=None):
        """Wrap ``fn`` in a span; ``attrs_of(result)`` adds attributes to it."""
        def wrapper(*args, **kwargs):
            stack, sid, parent = self._open()
            t0 = perf_counter()
            attrs = failed_attrs
            try:
                result = fn(*args, **kwargs)
                if attrs_of is not None:
                    attrs = attrs_of(result)
                return result
            finally:
                self._close(stack, sid, parent, name, t0, attrs)

        return wrapper

    # -- special wrappers -----------------------------------------------------

    def _sample_wrapper(self, fn):
        timed = self._timed("ensembles.sample", fn)

        def sample(spec, box, sid, *rest, **kw):
            self._local.sample = sid.index  # later spans of this thread belong to it
            return timed(spec, box, sid, *rest, **kw)

        return sample

    def _cg_wrapper(self, fn):
        sig = inspect.signature(fn)
        timed = self._timed("elliptic.cg_solve", fn, failed_attrs={"failed": True},
                            attrs_of=lambda r: {"iterations": r[1].iterations,
                                                "failed": not r[1].converged})

        def cg_solve(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.arguments["operator"] = self._timed("elliptic.operator",
                                                      bound.arguments["operator"])
            if bound.arguments.get("precond") is not None:
                bound.arguments["precond"] = self._timed("elliptic.precond",
                                                         bound.arguments["precond"])
            return timed(*bound.args, **bound.kwargs)

        return cg_solve

    # -- install / uninstall --------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function in every homoglab namespace that binds it."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and (name == "homoglab" or name.startswith("homoglab."))}
        wrappers: dict[int, object] = {}
        for mod_name, attr, span in FUNCTIONS:
            orig = getattr(modules[mod_name], attr)
            if id(orig) in wrappers:
                continue
            if attr == "cg_solve":
                wrapper = self._cg_wrapper(orig)
            elif attr == "sample":
                wrapper = self._sample_wrapper(orig)
            elif attr == "solve_flux_corrector":
                wrapper = self._timed(span, orig, attrs_of=lambda r: {
                    "iterations": sum(rep.iterations for rep in r[1])})
            else:
                wrapper = self._timed(span, orig)
            wrappers[id(orig)] = wrapper
            bound_in = []
            for name, mod in sorted(modules.items()):
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, wrapper)
                        bound_in.append(f"{name}.{key}")
            self.bindings[f"{mod_name}.{attr}"] = bound_in
        quant = modules["homoglab.quant"]
        for cls_name in FUNCTIONALS:
            cls = getattr(quant, cls_name)
            self._restore.append((cls, "__call__", cls.__call__))
            cls.__call__ = self._timed(f"quant.{cls_name}", cls.__call__)
            self.bindings[f"homoglab.quant.{cls_name}.__call__"] = [
                f"homoglab.quant.{cls_name}.__call__"]

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "sample", "attrs"],
                       "spans": self.spans}, fh)

    # -- aggregation ----------------------------------------------------------

    def layer_totals(self, bytes_written: int) -> dict:
        """Raw per-invocation totals (counts and seconds) for each layer."""
        children: dict[int, list] = {}
        for s in self.spans:
            if s[4] is not None:
                children.setdefault(s[4], []).append(s)

        def self_time(s) -> float:
            return (s[3] - s[2]) - _covered(s[2], s[3], children.get(s[0], ()))

        t = {k: 0 for k in (
            "elliptic.solves", "elliptic.iterations", "elliptic.solves_failed",
            "elliptic.operator_calls", "elliptic.precond_calls",
            "correctors.flux_corrector_iterations",
            "quant.functional_calls", "quant.cell_ahom_entry_calls",
            "ensembles.site_variants_calls", "ensembles.sample_calls")}
        t.update({k: 0.0 for k in (
            "elliptic.cg_s", "elliptic.cg_self_s", "elliptic.operator_s", "elliptic.precond_s",
            "correctors.corrector_set_s", "correctors.solve_flux_corrector_s",
            "quant.functional_s", "quant.cell_ahom_entry_s", "quant.experiment_self_s",
            "ensembles.site_variants_s", "ensembles.sample_s",
            "cli.run_s", "cli.self_s")})
        t["cli.bytes_written"] = bytes_written
        for s in self.spans:
            name, dur, attrs = s[1], s[3] - s[2], s[6] or {}
            if name == "elliptic.cg_solve":
                if attrs.get("failed"):
                    t["elliptic.solves_failed"] += 1
                else:
                    t["elliptic.solves"] += 1
                t["elliptic.iterations"] += attrs.get("iterations", 0)
                t["elliptic.cg_s"] += dur
                t["elliptic.cg_self_s"] += self_time(s)
            elif name == "elliptic.operator":
                t["elliptic.operator_calls"] += 1
                t["elliptic.operator_s"] += dur
            elif name == "elliptic.precond":
                t["elliptic.precond_calls"] += 1
                t["elliptic.precond_s"] += dur
            elif name == "correctors.corrector_set":
                t["correctors.corrector_set_s"] += dur
            elif name == "correctors.solve_flux_corrector":
                t["correctors.solve_flux_corrector_s"] += dur
                t["correctors.flux_corrector_iterations"] += attrs.get("iterations", 0)
            elif name == "quant.experiment":
                t["quant.experiment_self_s"] += self_time(s)
            elif name.startswith("quant."):  # one of the sg functionals
                t["quant.functional_calls"] += 1
                t["quant.functional_s"] += dur
                if name == "quant.CellAhomEntry":
                    t["quant.cell_ahom_entry_calls"] += 1
                    t["quant.cell_ahom_entry_s"] += dur
            elif name == "ensembles.site_variants":
                t["ensembles.site_variants_calls"] += 1
                t["ensembles.site_variants_s"] += dur
            elif name == "ensembles.sample":
                t["ensembles.sample_calls"] += 1
                t["ensembles.sample_s"] += dur
            elif name == "cli.run":
                t["cli.run_s"] += dur
                t["cli.self_s"] += self_time(s)
        t["spans"] = len(self.spans)
        return t


def _covered(start: float, end: float, spans) -> float:
    """Length of [start, end] covered by the union of the spans' intervals."""
    total, reach = 0.0, start
    for s in sorted(spans, key=lambda s: s[2]):
        lo, hi = max(s[2], reach), min(s[3], end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total
