"""The package's exports: every listed name exists."""

import importlib
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
