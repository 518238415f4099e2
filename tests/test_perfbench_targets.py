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


def _perfbench(name: str):
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))


def _layers():
    return _perfbench("layers")


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


# The attributes through which `encoding_verify`'s op reaches block-encoding
# verification; perfbench's per-layer spans wrap all of them but the projector builder.
VERIFICATION_SPANS = (
    "bettiq.extraction:pipeline_context",
    "bettiq.extraction:reduced_density",
    "bettiq.extraction:block_encode_projector",
    "bettiq.extraction:PipelineContext.observable_encoding",
    "bettiq.pipeline:block_encode_density",
    "bettiq.pipeline:BlockEncoding.unitarity_deviation",
    "bettiq.pipeline:BlockEncoding.block_deviation",
)


def test_encoding_verify_reaches_every_verification_span(monkeypatch, tmp_path):
    """A criterion-4 op, run as the `encoding_verify` workload runs it, calls
    each verification layer through the attribute that a counter replaces."""
    calls = dict.fromkeys(VERIFICATION_SPANS, 0)

    def counting(location, fn):
        def run(*args, **kwargs):
            calls[location] += 1
            return fn(*args, **kwargs)
        return run

    for location in VERIFICATION_SPANS:
        module_name, _, qualname = location.partition(":")
        owner = importlib.import_module(module_name)
        *path, name = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        monkeypatch.setattr(owner, name, counting(location, getattr(owner, name)))
    op = _perfbench("workloads").encoding_verify(1, str(tmp_path)).warmup
    assert all(op.summarize(op.call())["ok"])
    assert [location for location, count in calls.items() if count == 0] == []
