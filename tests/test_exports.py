"""Every public module imports cleanly with `*`, and the package re-exports
only names its modules list in `__all__`."""

import ast
import importlib
from pathlib import Path

import pytest

import bettiq

MODULES = ["complexes", "homology", "pipeline", "extraction", "cli"]


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    namespace = {}
    exec(f"from bettiq.{module} import *", namespace)
    exported = getattr(importlib.import_module(f"bettiq.{module}"), "__all__", None)
    if exported is not None:
        assert set(exported) <= set(namespace)


def test_package_imports_are_listed_in_module_all():
    tree = ast.parse(Path(bettiq.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert {node.module for node in imports} == set(MODULES) - {"cli"}
    for node in imports:
        listed = set(importlib.import_module(f"bettiq.{node.module}").__all__)
        names = {alias.name for alias in node.names}
        assert names <= listed, f"bettiq.{node.module} does not list {sorted(names - listed)}"
