"""End-to-end metric names and the percentile rule."""

from __future__ import annotations

import math

# name -> (unit, better); every workload reports each of these with --trace 0.
# A "ref" is the time the workload's reference op takes on the same machine at
# the same moment (see reference.py).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_ref": ("ops/ref", "higher"),
    "op_p50_ref": ("ref", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

TAIL_PERCENTILE = 99.0
MIN_BEYOND = 10  # a percentile is reported only with at least this many samples above it


def samples_beyond(p: float, n: int) -> int:
    """How many of n samples lie above the p-th percentile."""
    return math.floor(n * (100.0 - p) / 100.0 + 1e-9)


def percentile_allowed(p: float, n: int) -> bool:
    return samples_beyond(p, n) >= MIN_BEYOND


def percentile(values, p: float) -> float:
    """The p-th percentile by linear interpolation between closest ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = (len(ordered) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
