"""In-memory span recorder for the traced benchmark run.

The tracer wraps library functions from outside, at the place where callers
look them up (a module global or a class attribute), so the library itself
carries no instrumentation. Each call records one span: name, start, end,
parent span and the id of the benchmark op it belongs to. Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One traced layer boundary.

    `locations` are "module:attr" or "module:Class.attr" strings; each one
    that exists is wrapped under the same span name. `before(args)` runs
    before the call and its return value reaches `after(counters, args,
    result, state)`, which adds to the layer's counters. `peak_counter`
    names a counter that receives the peak bytes the call allocated, as
    traced by tracemalloc.
    """

    span: str
    locations: tuple[str, ...]
    after: Callable | None = None
    before: Callable | None = None
    peak_counter: str | None = None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None, op id]
        self.op = None
        self.counters: dict[str, float] = defaultdict(float)
        self.missing: set[str] = set()  # spans none of whose locations exist
        self.broken: set[str] = set()  # spans whose counter hook failed
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object, bool]] = []

    def install(self, targets) -> None:
        for target in targets:
            wrapped = 0
            for location in target.locations:
                owner, attr = _resolve(location)
                if owner is None or not hasattr(owner, attr):
                    continue
                original = getattr(owner, attr)
                own = attr in vars(owner)
                setattr(owner, attr, self._wrap(target, original))
                self._restore.append((owner, attr, original, own))
                wrapped += 1
            if not wrapped:
                self.missing.add(target.span)

    def uninstall(self) -> None:
        for owner, attr, original, own in reversed(self._restore):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._restore.clear()

    def _wrap(self, target: Target, original):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            state = tracer._hook(target, target.before, args) if target.before else None
            peak = _PeakMemory() if target.peak_counter else None
            index = len(tracer.spans)
            span = [target.span, 0.0, 0.0, tracer._stack[-1] if tracer._stack else None, tracer.op]
            tracer.spans.append(span)
            tracer._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
                if peak is not None:
                    tracer.counters[target.peak_counter] += peak.stop()
            if target.after:
                tracer._hook(target, target.after, tracer.counters, args, result, state)
            return result

        return traced

    def _hook(self, target: Target, hook, *args):
        # A hook reads attributes of library objects; if a later version of
        # the library renames them, the layer's counters go absent instead of
        # failing the run.
        try:
            return hook(*args)
        except (AttributeError, TypeError, ValueError, IndexError):
            self.broken.add(target.span)
            return None

    def layer_self_times(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self_times(self.spans)):
            totals[span[0]] += own
        return dict(totals)


class _PeakMemory:
    """Peak traced allocation between construction and stop()."""

    def __init__(self):
        self._started = not tracemalloc.is_tracing()
        if self._started:
            tracemalloc.start()
        self._base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()

    def stop(self) -> int:
        peak = tracemalloc.get_traced_memory()[1] - self._base
        if self._started:
            tracemalloc.stop()
        return max(peak, 0)


def _resolve(location: str):
    module_name, _, path = location.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, ""
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None, ""
    return owner, attr


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[3] is not None:
            children[span[3]].append((span[1], span[2]))
    return [
        (span[2] - span[1]) - covered_length(children.get(i, ()), span[1], span[2])
        for i, span in enumerate(spans)
    ]
