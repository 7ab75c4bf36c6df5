"""Every name a module of the package lists in ``__all__`` resolves, and its star-import works."""

import importlib
import pkgutil

import pytest

import diagmc

MODULES = sorted(info.name for info in pkgutil.iter_modules(diagmc.__path__))


def test_every_module_is_listed():
    assert MODULES == ["bounds", "cli", "estimators", "harness", "matrixmarket",
                       "operators", "probes", "special"]


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves_and_star_import_works(name):
    module = importlib.import_module(f"diagmc.{name}")
    assert [entry for entry in module.__all__ if not hasattr(module, entry)] == []
    namespace = {}
    exec(f"from diagmc.{name} import *", namespace)  # a stale entry raises AttributeError here
    assert set(module.__all__) <= set(namespace)
