"""Reference ops: how fast the machine runs bettiq-like work at the moment.

A shared host's speed swings by a quarter or more, in regimes that last from
seconds to minutes, so two runs of the same code can differ by as much. The
timed phase therefore runs its workload's reference op every PROBE_EVERY_S
seconds, between ops, and the end-to-end time metrics divide each op's wall
time by the reference time measured around it. They are in units of `ref`:
the time the workload's reference op takes on the same machine at the same
moment.

A reference op is a small fixed op of the workload's own kind, run through
`bettiq_ref`, a frozen copy of the library modules as they were when the
benchmark was defined. It therefore spends its time in the same interpreter
paths and numpy kernels as the workload, and slows with them when the
machine does. It never calls `bettiq`, so a change to bettiq moves the
metrics in full. Its inputs are fixed; they do not depend on --seed.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from bettiq_ref import complexes, extraction, pipeline

PROBE_EVERY_S = 0.25  # the least wall time between two probes in the timed phase
PROBE_REPEATS = 3  # a probe is the fastest of at most this many runs of the reference op
PROBE_BUDGET_S = 0.1  # stopping once the runs have taken this long


def _census6() -> Callable[[], object]:
    """Exact estimates at k = 0 and 1 on four fixed labeled 6-vertex graphs."""
    graphs = []
    for index in (0b011011011011011, 0b110101110010111, 0b101010101010101, 0b111111000111111):
        adj = np.zeros((6, 6), dtype=bool)
        for bit, (u, v) in enumerate((u, v) for u in range(6) for v in range(u + 1, 6)):
            if index >> bit & 1:
                adj[u, v] = adj[v, u] = True
        graphs.append(complexes.VertexGraph(6, adj))
    return lambda: [extraction.estimate_betti(g, k) for g in graphs for k in (0, 1)]


def _er(n: int, p: float, seed: int):
    spec = complexes.InstanceSpec("erdos-renyi", {"n": n, "p": p}, seed)
    return complexes.generate_instance(spec)


def _er_exact() -> Callable[[], object]:
    """An exact estimate at k = 2 on ER(17, 0.4) (C = 680): mostly `eigh`."""
    graph = _er(17, 0.4, 1)
    return lambda: extraction.estimate_betti(graph, 2)


def _er_sampled() -> Callable[[], object]:
    """A sampled multiplicative estimate at k = 2 on ER(7, 0.5) (C = 35)."""
    graph = _er(7, 0.5, 1)
    return lambda: extraction.estimate_betti(graph, 2, 0.25, mode="sampled", seed=1)


def _encoding_verify() -> Callable[[], object]:
    """Build and verify the density and observable encodings of the 4-cycle
    at k = 0 (dense, dimension 1,024) and of the 5-cycle at k = 1 (whose
    density encoding is structured, dimension 16,000): dense products and
    the structured einsum path, as in the workload."""
    cases = [(complexes.generate_instance(complexes.InstanceSpec("cycle", {"n": n})), k)
             for n, k in ((4, 0), (5, 1))]
    pair = extraction.ObservablePair.default()

    def work():
        reports = []
        for graph, k in cases:
            ctx = extraction.pipeline_context(complexes.build_clique_complex(graph, k + 1), k)
            encodings = [pipeline.block_encode_density(ctx.rho())]
            encodings += [ctx.observable_encoding(m) for m in (pair.m1, pair.m2)]
            reports += [enc.verify(unitarity_tol=1e-10, block_tol=1e-9) for enc in encodings]
        return reports

    return work


REFERENCES = {
    "census6": _census6,
    "er_exact": _er_exact,
    "er_sampled": _er_sampled,
    "encoding_verify": _encoding_verify,
}


def probe(work: Callable[[], object]) -> float:
    """Seconds the reference op takes now: the fastest of a few runs."""
    times: list[float] = []
    while len(times) < PROBE_REPEATS and sum(times) < PROBE_BUDGET_S:
        start = time.perf_counter()
        work()
        times.append(time.perf_counter() - start)
    return min(times)


def scales(probes: list[float], segments: list[int]) -> list[float]:
    """The reference time for each op. `probes[j]` was measured before the ops
    of segment j, and the last probe after every op; `segments[i]` is the
    segment op i ran in. Op i gets the mean of the probes taken just before
    and just after its segment. (Tried on the same runs, wider windows and
    one median over the whole run tracked the machine less well.)"""
    return [(probes[seg] + probes[seg + 1]) / 2.0 for seg in segments]
