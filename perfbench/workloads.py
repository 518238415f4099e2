"""The benchmark's workloads: inputs drawn from the seed, the timed ops, and
the checks that make a wrong answer count as a failure.

The seed stays here; the library only receives the generated graphs (and,
for sampled ops, the per-op sampling seed that the estimator's API takes).
Every op calls the library through module attributes (`extraction.x(...)`)
so that the traced run, which replaces those attributes, sees the call.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from bettiq import cli, complexes, extraction, homology, pipeline

SAMPLED_EPS = 0.25
NORMALIZED_DELTA = 0.05
UNITARITY_TOL, BLOCK_TOL = 1e-10, 1e-9  # acceptance criterion 4

CENSUS_N = 6
CENSUS_PAIRS = tuple(itertools.combinations(range(CENSUS_N), 2))
CENSUS_SAMPLE = 4096  # distinct labeled graphs per seed, out of 2**15
CENSUS_ROUND = 256

ER_EXACT_P, ER_EXACT_K = 0.4, 2
ER_EXACT_LADDER = {20: 2, 24: 2, 28: 1}  # n -> instances (seeds) per rung
ER_SAMPLED_P, ER_SAMPLED_K = 0.5, 2
# 14 ops a round: six cheap ones (n = 10, 11), six mid-cost ones (the two bits
# ops and n = 12) and two at n = 13. The median op time is then the mean of
# the two cheapest mid-cost ops, inside one band of costs, whatever the seed.
# One instance at n = 11 and 13 keeps a traced run (two rounds) well inside
# the benchmark's time limit.
ER_SAMPLED_LADDER = {10: 2, 11: 1, 12: 2, 13: 1}
BITS_T = 2


@dataclass(eq=False)
class Op:
    """One timed unit of work.

    `call` is what the timed phase runs; `summarize` turns its result into
    the few fields the check needs and runs right after, untimed; `check`
    compares that summary against the op's exact references (see
    `references`) and returns whether it passed, with details to record.
    """

    label: str
    graph: object
    ks: tuple[int, ...]
    meta: dict
    call: Callable[[], object]
    summarize: Callable[[object], dict]
    check: Callable[[dict, dict], tuple[bool, dict]]


@dataclass
class Plan:
    """A workload's inputs for one seed. The timed phase runs `rounds`
    round-robin; every round has the same mix of op sizes."""

    rounds: list[list[Op]]
    warmup: Op  # runs once, untimed, before the timed phase


def _octahedron():
    """The smallest instance the k=2 workloads warm up on (C = 20)."""
    return complexes.generate_instance(complexes.InstanceSpec("octahedron"))


def hoeffding_floor(accuracy: float, confidence: float) -> int:
    """Smallest sample count at which the mean of +/-1 outcomes is within
    `accuracy` of its expectation with probability `confidence`."""
    count = 4.0 * math.log(2.0 / (1.0 - confidence)) / (2.0 * accuracy**2)
    return math.ceil(count * (1.0 - 1e-12))  # the slack absorbs rounding at exact integers


def phase_register_size(pe) -> int:
    return 2 if pe is None or pe.mode == "ideal" else 2**pe.t


def _meta(n: int, ks, convention: str, mode: str, pe=None) -> dict:
    return {"n": n, "k": list(ks), "C": [math.comb(n, k + 1) for k in ks],
            "P": phase_register_size(pe), "convention": convention, "mode": mode}


def _int_seed(*words: int) -> int:
    return int(np.random.SeedSequence([int(w) for w in words]).generate_state(1)[0])


def _triangles(adj: np.ndarray) -> int:
    a = adj.astype(np.int64)
    return int(np.trace(a @ a @ a)) // 6


def er_graph(n: int, p: float, *seed_words: int):
    """A seeded G(n, p) graph whose 2-simplex count lies within a factor
    4/3 of its expectation, so that every seed gives a rung about the same
    work (the sample count of a normalized estimate grows as (C/|S_2|)^2).

    Draws are repeated with the next sub-seed until one qualifies.
    """
    expected = math.comb(n, 3) * p**3
    for attempt in itertools.count():
        rng = np.random.default_rng(np.random.SeedSequence([*map(int, seed_words), n, attempt]))
        upper = np.triu(rng.random((n, n)) < p, 1)
        adj = upper | upper.T
        if 0.75 * expected <= _triangles(adj) <= 1.33 * expected:
            return complexes.VertexGraph(len(adj), adj)


def census_graph(index: int):
    """The labeled 6-vertex graph whose edge set is the bit pattern `index`."""
    adj = np.zeros((CENSUS_N, CENSUS_N), dtype=bool)
    for bit, (u, v) in enumerate(CENSUS_PAIRS):
        if index >> bit & 1:
            adj[u, v] = adj[v, u] = True
    return complexes.VertexGraph(len(adj), adj)


def relabel(graph, rng: np.random.Generator):
    perm = rng.permutation(graph.n)
    return complexes.VertexGraph(graph.n, graph.adjacency[np.ix_(perm, perm)])


# ---------------------------------------------------------------------------
# checks


def _check_exact(summary: dict, ref: dict) -> tuple[bool, dict]:
    return summary["beta_rounded"] == ref["betti"], {}


def _check_sampled(summary: dict, ref: dict) -> tuple[bool, dict]:
    (beta,), (s_count,) = ref["betti"], ref["s_count"]
    per_observable = 1.0 - (1.0 - summary["confidence"]) / 2.0  # split over the two traces
    floor = hoeffding_floor(summary["accuracy"], per_observable)
    finite = all(math.isfinite(v) for v in summary["values"])
    truth = beta / s_count if summary["normalized"] else beta
    distance = abs(summary["values"][0] - truth) if finite else None
    ok = finite and summary["samples"] >= floor
    return ok, {"distance_to_oracle": distance, "samples": summary["samples"],
                "hoeffding_floor": floor}


def _check_verified(summary: dict, ref: dict) -> tuple[bool, dict]:
    return all(summary["ok"]), {"worst_unitarity": max(summary["unitarity"]),
                                "worst_block": max(summary["block"])}


# ---------------------------------------------------------------------------
# workloads


def census6(seed: int, workdir: str) -> Plan:
    """Exact mode on labeled 6-vertex graphs, k in {0, 1}; one op is one graph."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 6]))
    indices = rng.choice(2 ** len(CENSUS_PAIRS), size=CENSUS_SAMPLE, replace=False)

    def op(index: int) -> Op:
        graph = census_graph(index)
        ks = (0, 1) if index else (0,)  # the edgeless graph has no 1-simplices
        return Op(
            label=f"census6 graph={index}",
            graph=graph,
            ks=ks,
            meta=_meta(CENSUS_N, ks, "restricted", "exact"),
            call=lambda: [extraction.estimate_betti(graph, k) for k in ks],
            summarize=lambda res: {"beta_rounded": [est.beta_rounded for est in res]},
            check=_check_exact,
        )

    ops = [op(int(i)) for i in indices]
    rounds = [ops[i:i + CENSUS_ROUND] for i in range(0, len(ops), CENSUS_ROUND)]
    return Plan(rounds, warmup=op(int(indices[0])))


def er_exact(seed: int, workdir: str) -> Plan:
    """Exact mode through `bettiq estimate` (in process), both conventions."""
    k = ER_EXACT_K

    def op(graph, path: str, convention: str, tag: str) -> Op:
        out = os.path.join(workdir, f"out-{tag.replace(' ', '-')}.json")
        argv = ["estimate", "--instance", path, "--k", str(k), "--convention", convention,
                "--out", out]

        def summarize(code):
            if code != 0:
                return {"exit_code": code, "beta_rounded": None}
            with open(out) as fh:
                results = json.load(fh)["results"]
            os.remove(out)  # so that a later failing run of this op cannot pass on stale output
            return {"exit_code": code, "beta_rounded": [results["beta_rounded"]]}

        def check(summary, ref):
            ok, info = _check_exact(summary, ref)
            return ok and summary["exit_code"] == 0, info

        return Op(f"er_exact {tag}", graph, (k,), _meta(graph.n, (k,), convention, "exact"),
                  call=lambda: cli.main(argv), summarize=summarize, check=check)

    ops = []
    for n, count in ER_EXACT_LADDER.items():
        for j in range(count):
            graph = er_graph(n, ER_EXACT_P, seed, j)
            path = os.path.join(workdir, f"er-{n}-{j}.json")
            complexes.dump_instance(graph, path)
            for convention in ("restricted", "dual"):
                ops.append(op(graph, path, convention, f"n{n} j{j} {convention}"))
    warm = _octahedron()
    path = os.path.join(workdir, "octahedron.json")
    complexes.dump_instance(warm, path)
    return Plan([ops], warmup=op(warm, path, "restricted", "warmup"))


def er_sampled(seed: int, workdir: str) -> Plan:
    """Sampled mode: one multiplicative and one normalized estimate per
    instance, plus one multiplicative estimate with a t-bit phase register on
    each n=10 instance."""
    k = ER_SAMPLED_K

    def op(graph, j: int, kind: str, pe, tag: str) -> Op:
        sample_seed = _int_seed(seed, graph.n, j, kind == "normalized", pe is not None)
        normalized = kind == "normalized"
        if normalized:
            def call():
                return extraction.estimate_normalized_betti(
                    graph, k, NORMALIZED_DELTA, mode="sampled", pe=pe, seed=sample_seed)

            def summarize(est):
                return {"normalized": True, "values": [est.value, est.raw_value],
                        "accuracy": est.eps_measurement, "samples": est.samples_per_observable,
                        "confidence": est.confidence}
        else:
            def call():
                return extraction.estimate_betti(
                    graph, k, SAMPLED_EPS, mode="sampled", pe=pe, seed=sample_seed)

            def summarize(est):
                return {"normalized": False, "values": [est.beta_estimate, est.p1_estimate],
                        "accuracy": est.delta, "samples": est.samples_per_observable,
                        "confidence": est.confidence}

        return Op(f"er_sampled {tag}", graph, (k,), _meta(graph.n, (k,), "restricted", kind, pe),
                  call=call, summarize=summarize, check=_check_sampled)

    bits = pipeline.PEConfig.bits(t=BITS_T)
    ops = []
    for n, count in ER_SAMPLED_LADDER.items():
        for j in range(count):
            graph = er_graph(n, ER_SAMPLED_P, seed, j)
            ops.append(op(graph, j, "multiplicative", None, f"n={n} j={j} multiplicative"))
            ops.append(op(graph, j, "normalized", None, f"n={n} j={j} normalized"))
            if n == min(ER_SAMPLED_LADDER):
                ops.append(op(graph, j, "multiplicative", bits,
                              f"n={n} j={j} multiplicative bits t={BITS_T}"))
    return Plan([ops], warmup=op(_octahedron(), 0, "normalized", None, "warmup"))


def _criterion4_cases():
    """The acceptance-criterion-4 cases as (name, graph, k, phase estimation),
    without ER(8, 0.3, 5), which alone takes longer than all the others, and
    without "two edges k=1", whose dense encodings have the same shape as
    those of "C4 k=1" (C = 6, P = 2, dimension 3,456); both are dropped to fit
    the benchmark's run-time budget."""
    ideal = pipeline.PEConfig.ideal()
    cycle4 = complexes.generate_instance(complexes.InstanceSpec("cycle", {"n": 4}))

    def er(n, p, s):
        return complexes.generate_instance(
            complexes.InstanceSpec("erdos-renyi", {"n": n, "p": p}, s))

    return [
        ("K3 k=1", complexes.generate_instance(complexes.InstanceSpec("complete", {"n": 3})), 1, ideal),
        ("C4 k=0", cycle4, 0, ideal),
        ("C4 k=1", cycle4, 1, ideal),
        ("C4 k=1 bits t=2", cycle4, 1, pipeline.PEConfig.bits(t=2)),
        ("octahedron k=2", _octahedron(), 2, ideal),
        ("ER(7,0.4,3) k=1", er(7, 0.4, 3), 1, ideal),
    ]


def encoding_verify(seed: int, workdir: str) -> Plan:
    """Build and verify the density encoding and both observable encodings of
    each criterion-4 case, under a seed-drawn relabeling of its vertices."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 4]))
    pair = extraction.ObservablePair.default()

    def op(name: str, graph, k: int, pe) -> Op:
        def call():
            complex_ = complexes.build_clique_complex(graph, k + 1)
            ctx = extraction.pipeline_context(complex_, k, pe=pe)
            reports = [pipeline.block_encode_density(ctx.rho()).verify(
                unitarity_tol=UNITARITY_TOL, block_tol=BLOCK_TOL)]
            for m in (pair.m1, pair.m2):
                reports.append(ctx.observable_encoding(m).verify(
                    unitarity_tol=UNITARITY_TOL, block_tol=BLOCK_TOL))
            return reports

        def summarize(reports):
            return {"ok": [r["ok"] for r in reports],
                    "unitarity": [r["unitarity_deviation"] for r in reports],
                    "block": [r["block_deviation"] for r in reports]}

        return Op(f"encoding_verify {name}", graph, (k,),
                  _meta(graph.n, (k,), "restricted", "verify", pe),
                  call=call, summarize=summarize, check=_check_verified)

    ops = [op(name, relabel(graph, rng), k, pe) for name, graph, k, pe in _criterion4_cases()]
    return Plan([ops], warmup=op(*_criterion4_cases()[0]))


WORKLOADS = {
    "census6": census6,
    "er_exact": er_exact,
    "er_sampled": er_sampled,
    "encoding_verify": encoding_verify,
}


def references(ops) -> dict[int, dict]:
    """Exact Betti numbers and |S_k|, in the order of `op.ks`, for each
    distinct op (keyed by id), computed by calling the oracle directly."""
    out = {}
    for op in ops:
        if id(op) not in out:
            complex_ = complexes.build_clique_complex(op.graph, max(op.ks) + 1)
            out[id(op)] = {"betti": [homology.betti_exact(complex_, k) for k in op.ks],
                           "s_count": [complex_.simplex_count(k) for k in op.ks]}
    return out
