"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest perfbench
"""

import json
import math
import statistics
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from layers import PER_LAYER, TARGETS  # noqa: E402
from metrics import END_TO_END, percentile, percentile_allowed, samples_beyond  # noqa: E402
from spans import Target, Tracer, covered_length, self_times  # noqa: E402

from bettiq import hoeffding_sample_count  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


# --- the percentile rule -----------------------------------------------------

def test_percentile_needs_ten_samples_beyond():
    assert samples_beyond(99, 1000) == 10 and percentile_allowed(99, 1000)
    assert samples_beyond(99, 999) == 9 and not percentile_allowed(99, 999)
    assert percentile_allowed(50, 20) and not percentile_allowed(50, 19)
    assert percentile_allowed(90, 100) and not percentile_allowed(90, 99)


def test_percentile_interpolates_like_numpy():
    values = [0.3, 5.0, 1.0, 2.5, 9.0, 4.0, 0.1]
    for p in (0, 10, 50, 90, 99, 100):
        assert percentile(values, p) == pytest.approx(float(np.percentile(values, p)))
    assert percentile(values, 50) == statistics.median(values)


# --- self time -----------------------------------------------------------------

def test_self_time_of_nested_spans():
    spans = [
        ["a", 0.0, 10.0, None, 0],
        ["b", 1.0, 4.0, 0, 0],
        ["c", 2.0, 3.0, 1, 0],
        ["d", 3.0, 6.0, 0, 0],   # overlaps its sibling b on [3, 4]
        ["e", 9.0, 12.0, 0, 0],  # runs past its parent's end
        ["f", 20.0, 21.0, None, 1],
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 1, 3 - 1, 1, 3, 3, 1])
    assert covered_length([(1, 4), (3, 6), (9, 12)], 0, 10) == pytest.approx(6)
    assert covered_length([], 0, 10) == 0


def _toy_module():
    mod = types.ModuleType("perfbench_toy")
    code = (
        "import time\n"
        "def inner():\n"
        "    time.sleep(0.02)\n"
        "    return 3\n"
        "def outer():\n"
        "    time.sleep(0.01)\n"
        "    return inner() + 1\n"
    )
    exec(code, mod.__dict__)
    sys.modules[mod.__name__] = mod
    return mod


def test_tracer_wraps_where_callers_look_names_up():
    mod = _toy_module()
    original = mod.inner
    tracer = Tracer()
    tracer.install([
        Target("toy.outer", ("perfbench_toy:outer",)),
        Target("toy.inner", ("perfbench_toy:inner",),
               after=lambda counters, args, result, state: counters.__setitem__("toy.result", result)),
        Target("toy.gone", ("perfbench_toy:no_such_name", "no_such_module:f")),
    ])
    tracer.op = 7
    try:
        assert mod.outer() == 4
    finally:
        tracer.uninstall()
    assert mod.inner is original
    assert tracer.missing == {"toy.gone"}
    (o_name, *_, o_parent, o_op), (i_name, *_, i_parent, i_op) = tracer.spans
    assert (o_name, o_parent, o_op) == ("toy.outer", None, 7)
    assert (i_name, i_parent, i_op) == ("toy.inner", 0, 7)
    own = tracer.layer_self_times()
    assert own["toy.inner"] >= 0.02 and 0.01 <= own["toy.outer"] < 0.02
    assert tracer.counters["toy.result"] == 3


def test_every_layer_name_exists_in_the_library():
    tracer = Tracer()
    tracer.install(TARGETS)
    tracer.uninstall()
    assert tracer.missing == set()


# --- reference ops ---------------------------------------------------------------

def test_each_op_gets_the_mean_of_the_probes_around_its_segment():
    probes = [10.0, 1.0, 2.0, 4.0]
    # ops in segment s ran between probes[s] and probes[s + 1]
    assert reference.scales(probes, [0, 0, 1, 2]) == [5.5, 5.5, 1.5, 3.0]


def test_reference_ops_run_a_frozen_copy_not_the_library():
    assert list(reference.REFERENCES) == list(workloads.WORKLOADS)
    frozen = Path(reference.extraction.__file__).resolve()
    assert frozen.parent == HERE / "bettiq_ref"
    for name in reference.REFERENCES:
        assert reference.probe(reference.REFERENCES[name]()) > 0


# --- correctness gate ------------------------------------------------------------

def test_hoeffding_floor_matches_the_contract():
    for accuracy, confidence in [(0.1, 0.975), (0.00625, 0.975), (0.05, 0.95)]:
        assert workloads.hoeffding_floor(accuracy, confidence) == \
            hoeffding_sample_count(accuracy, confidence)


def test_checks_reject_wrong_or_malformed_results():
    ref = {"betti": [2], "s_count": [10]}
    assert workloads._check_exact({"beta_rounded": [2]}, ref)[0]
    assert not workloads._check_exact({"beta_rounded": [3]}, ref)[0]
    floor = workloads.hoeffding_floor(0.1, 0.975)
    sampled = {"normalized": False, "values": [2.2, 5.0], "accuracy": 0.1, "confidence": 0.95}
    ok, info = workloads._check_sampled({**sampled, "samples": floor}, ref)
    assert ok and info["distance_to_oracle"] == pytest.approx(0.2)
    assert not workloads._check_sampled({**sampled, "samples": floor - 1}, ref)[0]
    assert not workloads._check_sampled({**sampled, "samples": floor, "values": [math.nan, 1.0]}, ref)[0]
    assert not workloads._check_verified({"ok": [True, False], "unitarity": [0, 0], "block": [0, 0]}, ref)[0]


# --- inputs from the seed --------------------------------------------------------

def _fingerprint(plan):
    ops = [op for rnd in plan.rounds for op in rnd]
    return [(op.label, op.ks, op.graph.adjacency.tobytes(), json.dumps(op.meta)) for op in ops]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_determines_inputs(name, tmp_path):
    build = workloads.WORKLOADS[name]
    dirs = [tmp_path / d for d in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    first, again, other = (build(seed, str(d)) for seed, d in zip((1, 1, 2), dirs))
    assert _fingerprint(first) == _fingerprint(again)
    assert _fingerprint(first) != _fingerprint(other)
    files = [sorted((p.name, p.read_bytes()) for p in d.iterdir()) for d in dirs]
    assert files[0] == files[1]


# --- names match BENCHMARK.json --------------------------------------------------

def test_declared_names_match_the_code():
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in DECLARED["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in DECLARED["per_layer"]} == \
        {name: spec[:2] for name, spec in PER_LAYER.items()}


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, key):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "census6", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in DECLARED[key]}
