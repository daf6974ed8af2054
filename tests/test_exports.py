"""Every name a module exports resolves, so no deleted name stays exported,
and every public solver entry point shares one solver default."""

import importlib
import inspect
import pkgutil

import pytest

import homoglab
from homoglab.elliptic import SolverConfig

MODULES = sorted(m.name for m in pkgutil.iter_modules(homoglab.__path__))


def test_package_init_imports():
    importlib.reload(homoglab)  # re-runs the package's re-exports
    assert homoglab.__version__


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"homoglab.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("name", ["elliptic", "correctors", "twoscale", "quant"])
def test_every_cfg_parameter_defaults_to_solver_config(name):
    module = importlib.import_module(f"homoglab.{name}")
    defaults = {fn_name: inspect.signature(fn).parameters["cfg"].default
                for fn_name, fn in inspect.getmembers(module, inspect.isfunction)
                if fn.__module__ == module.__name__ and not fn_name.startswith("_")
                and "cfg" in inspect.signature(fn).parameters}
    assert defaults, f"{name} has no public function with a cfg parameter"
    assert {f: d for f, d in defaults.items() if d != SolverConfig()} == {}
