"""Every name a module exports exists on it."""

import importlib
import pkgutil

import pytest

import fractalis

MODULES = ["fractalis"] + [
    f"fractalis.{info.name}" for info in pkgutil.iter_modules(fractalis.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    missing = [entry for entry in getattr(module, "__all__", ())
               if not hasattr(module, entry)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
