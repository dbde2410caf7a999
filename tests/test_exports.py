"""The package's exports: every listed name exists, and so does every name
that the benchmark's tracer wraps from outside."""

import importlib
import importlib.util
import pathlib
import pkgutil

import pytest

import pconvex

MODULES = ["pconvex"] + [f"pconvex.{info.name}"
                         for info in pkgutil.iter_modules(pconvex.__path__)]


def test_every_submodule_is_checked():
    assert len(MODULES) > 1


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a name left in an __all__ after its definition went would break
    # `from pconvex import *` and mislead a reader of the module's surface
    mod = importlib.import_module(name)
    missing = [attr for attr in getattr(mod, "__all__", ())
               if not hasattr(mod, attr)]
    assert missing == []


def _bench_spans():
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_names_wrapped_by_the_benchmark_tracer_resolve():
    # bench/spans.py replaces these names by timing wrappers: a module
    # function by its name, a method through its class's own vars (where
    # one inherited from a base class is missing), and scipy's solvers on
    # solver.spla; a rename here breaks the tracer
    spans = _bench_spans()
    assert spans.SPAN_FUNCTIONS and spans.POINT_FUNCTIONS
    missing = [f"{mod}.{fn}" for mod, fn in spans.SPAN_FUNCTIONS
               if not callable(getattr(
                   importlib.import_module(f"pconvex.{mod}"), fn, None))]
    for owner, attr, _ in spans.POINT_FUNCTIONS:
        mod, _, cls = owner.partition(".")
        owner_obj = importlib.import_module(f"pconvex.{mod}")
        if cls:
            found = attr in vars(getattr(owner_obj, cls, object))
        else:
            found = callable(getattr(owner_obj, attr, None))
        if not found:
            missing.append(f"{owner}.{attr}")
    spla = importlib.import_module("pconvex.solver").spla
    missing += [f"solver.spla.{name}" for name in spans.SOLVER_SCIPY
                if not hasattr(spla, name)]
    assert missing == []
