import importlib
import pkgutil

import pytest

import pairpulse

MODULES = ["pairpulse", *(f"pairpulse.{m.name}" for m in pkgutil.iter_modules(pairpulse.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_public_names_resolve(name):
    # a deleted function must not stay behind in an export list
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []
