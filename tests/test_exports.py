"""Every name a module exports resolves, so no deleted name stays exported,
every public solver entry point shares one solver default, no statistic
restates an experiment default, a result type is exactly its fields, no
module relies on ``assert`` or reads the environment, rejected input has one
exception type, which ``main`` catches without catching every
``ValueError``, one converter turns a failed conversion into it, an
ensemble's params are read in one place, one function opens files for
writing, in binary mode, and no module imports scipy."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import homoglab
import homoglab.cli
import homoglab.ensembles
import homoglab.quant
from homoglab.elliptic import SolverConfig

MODULES = sorted(m.name for m in pkgutil.iter_modules(homoglab.__path__))
SOURCES = sorted(Path(homoglab.__file__).parent.glob("*.py"))


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


def test_statistics_restate_no_experiment_default():
    # an experiment's defaults live only in cli.EXPERIMENTS, where a library
    # default could only restate one or disagree with it; green_decay's radii
    # default is the library's own rule, which depends on L
    functions = [getattr(homoglab.quant, name) for name in homoglab.quant.__all__]
    defaults = {f"{fn.__name__}.{p.name}" for fn in functions if inspect.isfunction(fn)
                for p in inspect.signature(fn).parameters.values()
                if p.default is not p.empty and p.name not in ("cfg", "map_fn")}
    assert defaults == {"green_decay.radii"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_assert_statements(path):
    # python -O strips asserts, so an invariant must raise an explicit exception
    tree = ast.parse(path.read_text(), filename=str(path))
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)] == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_environment_reads(path):
    # a run's bytes depend only on its argv and the files it names
    tree = ast.parse(path.read_text(), filename=str(path))
    reads = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
             or isinstance(node, ast.Name) and node.id in ("environ", "getenv")]
    assert reads == []


@pytest.mark.parametrize("name", ["quant", "correctors", "oned", "twoscale", "elliptic"])
def test_result_types_are_their_fields(name):
    # a derived view is not written to JSON, so a check must not read one
    module = importlib.import_module(f"homoglab.{name}")
    views = [f"{cls.__name__}.{attr}" for cls in vars(module).values()
             if dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__
             for attr, value in vars(cls).items() if isinstance(value, property)]
    assert views == []


def test_only_read_touches_an_ensembles_params():
    # sample, marginal_mean, the kernel and to_json read the law _read stored on the spec
    tree = ast.parse(inspect.getsource(homoglab.ensembles))
    readers = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn) if isinstance(node, ast.Attribute) and node.attr == "params"}
    assert readers == {"_read"}


def test_one_exception_type_for_rejected_input():
    # ParameterError for bad input, SolverError for a failed solve, and no other
    defined = {node.name for path in SOURCES for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ClassDef)
               and any(getattr(base, "id", "").endswith(("Error", "Exception"))
                       for base in node.bases)}
    assert defined == {"ParameterError", "SolverError"}
    assert issubclass(homoglab.ParameterError, ValueError)


def test_one_place_turns_a_conversion_error_into_a_parameter_error():
    # which exceptions of a conversion are bad input is decided once, by the converter
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    handlers = [node for tree in trees.values() for node in ast.walk(tree)
                if isinstance(node, ast.ExceptHandler)
                and any(isinstance(raised, ast.Raise) and raised.exc is not None
                        and "ParameterError" in ast.unparse(raised.exc)
                        for raised in ast.walk(node))]
    owners = {(name, fn.name) for name, tree in trees.items() for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and any(h in handlers for h in ast.walk(fn))}
    assert len(handlers) == 1 and owners == {("lattice", "_converted")}


def test_main_catches_no_broad_exception():
    # a bug raised mid-run must keep its traceback, not pass for a config error
    main = next(node for node in ast.walk(ast.parse(inspect.getsource(homoglab.cli)))
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    caught = {ast.unparse(handler.type) for node in ast.walk(main)
              if isinstance(node, ast.Try) for handler in node.handlers}
    assert caught == {"(ParameterError, OSError, json.JSONDecodeError, UnicodeDecodeError)",
                      "SolverError"}


# calls that create or write a file whatever their arguments
WRITERS = {"mkstemp", "mkdtemp", "NamedTemporaryFile", "TemporaryFile", "write_text",
           "write_bytes", "tofile", "save", "savez", "savez_compressed", "savetxt"}


def _mode(call: ast.Call) -> str | None:
    """How a call opens a file: the mode of an ``open`` or ``fdopen`` as written
    (``'r'`` when not given), "writes" for a call in ``WRITERS``, else None."""
    name = getattr(call.func, "attr", getattr(call.func, "id", None))
    if name in ("open", "fdopen"):
        mode = [*call.args[1:2], *(k.value for k in call.keywords if k.arg == "mode")]
        return ast.unparse(mode[0]) if mode else "'r'"
    return "writes" if name in WRITERS else None


def test_one_function_opens_files_for_writing_and_in_binary():
    # run's outputs and manifest commit together, and their hashes are over the bytes
    # written, only while every write goes through cli._atomic_write
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    atomic_write = next(fn for fn in ast.walk(trees["cli"])
                        if isinstance(fn, ast.FunctionDef) and fn.name == "_atomic_write")
    inside = {id(node) for node in ast.walk(atomic_write)}
    writes = [(f"{name}:{call.lineno}", id(call), mode)
              for name, tree in trees.items() for call in ast.walk(tree)
              if isinstance(call, ast.Call) and (mode := _mode(call)) is not None
              and mode not in ("'r'", "'rb'", "'rt'")]
    assert [where for where, node, _ in writes if node not in inside] == []
    assert [mode for _, _, mode in writes if mode != "writes"] == ["'xb'"]


def _names_scipy(node: ast.AST) -> bool:
    """Whether ``node`` imports scipy or is a string naming a scipy module."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        names = [node.module or ""]
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        names = [node.value]
    else:
        names = []
    return any(name.split(".")[0] == "scipy" for name in names)


def test_no_module_imports_scipy():
    # numpy alone runs the library: no import statement, and no string such as a
    # module name for importlib, names scipy
    found = [f"{path.stem}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text())) if _names_scipy(node)]
    assert found == []
