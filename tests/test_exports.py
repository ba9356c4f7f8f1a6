"""Every name a module exports exists on it, and every name the package
exports is used: called or read by the package's own code, or documented
in README."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import fractalis

MODULES = ["fractalis"] + [
    f"fractalis.{info.name}" for info in pkgutil.iter_modules(fractalis.__path__)
]
SRC = Path(fractalis.__file__).resolve().parent
README = (SRC.parent.parent / "README.md").read_text()


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    missing = [entry for entry in getattr(module, "__all__", ())
               if not hasattr(module, entry)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def _used_names():
    """Names the package's code reads: bare names and attribute names. A
    definition, an import and an ``__all__`` string read none."""
    used = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_export_has_a_caller_or_is_documented():
    used = _used_names()
    unused = [name for name in fractalis.__all__
              if name not in used and not re.search(rf"\b{name}\b", README)]
    assert not unused, f"exported, uncalled in src/fractalis and not in README: {unused}"
