"""Every library name that the benchmark's traced run wraps still exists, and
the arrays its byte counters read are still where it looks for them.

`perfbench/layers.py` lists its layer boundaries as "module:qualname"
strings; a renamed or removed one silently drops its per-layer metric, so
each must resolve in this source tree.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

import bettiq

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _layers():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("layers")
    finally:
        sys.path.remove(str(PERFBENCH))


def _locations() -> list[str]:
    return [location for target in _layers().TARGETS for location in target.locations]


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


def test_held_bytes_count_the_encoding_factors():
    """The per-layer byte counters read the arrays an encoding holds; its
    factors must stay flat tuples of arrays for them to be counted."""
    held = _layers()._held_bytes
    enc = bettiq.tensor_block_encoding([bettiq.block_encode_projector(2, 5),
                                        bettiq.block_encode_hermitian(np.eye(2))])
    assert held(enc) >= sum(f.nbytes for f in enc.factors)
    mixture = bettiq.block_encode_state_mixture(np.eye(3))
    assert held(mixture) >= sum(a.nbytes for a in mixture.reflections)
