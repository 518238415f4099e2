"""Every library name that the benchmark's traced run wraps still exists.

`perfbench/layers.py` lists its layer boundaries as "module:qualname"
strings; a renamed or removed one silently drops its per-layer metric, so
each must resolve in this source tree.
"""

import importlib
import sys
from pathlib import Path

import pytest

import bettiq

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _locations() -> list[str]:
    sys.path.insert(0, str(PERFBENCH))
    try:
        layers = importlib.import_module("layers")
    finally:
        sys.path.remove(str(PERFBENCH))
    return [location for target in layers.TARGETS for location in target.locations]


@pytest.mark.parametrize("location", _locations())
def test_wrapped_name_resolves(location):
    module_name, _, qualname = location.partition(":")
    module = importlib.import_module(module_name)
    assert Path(module.__file__).resolve().parent == Path(bettiq.__file__).resolve().parent
    owner = module
    for part in qualname.split("."):
        assert hasattr(owner, part), f"{location}: {part!r} is missing"
        owner = getattr(owner, part)
    assert callable(owner)
