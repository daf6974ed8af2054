"""Every name a module exports resolves, so no deleted name stays exported."""

import importlib
import pkgutil

import pytest

import homoglab

MODULES = sorted(m.name for m in pkgutil.iter_modules(homoglab.__path__))


def test_package_init_imports():
    importlib.reload(homoglab)  # re-runs the package's re-exports
    assert homoglab.__version__


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"homoglab.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
