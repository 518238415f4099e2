"""The library's layer boundaries that the traced run wraps, and the
per-layer metrics computed from its spans and counters.

Every `.s` metric is a self time: the layer's busy time minus the time of
the traced calls it made. Byte metrics labelled `bytes_computed` are the
sizes of the arrays a call returns or keeps alive, read from the returned
object without triggering any further work.
"""

from __future__ import annotations

import numpy as np

from spans import Target, Tracer


def _owner(arr: np.ndarray) -> np.ndarray:
    """The array that owns the memory a view reads."""
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def _held_bytes(obj) -> int:
    """Bytes of the arrays an object holds in its instance attributes; a view
    counts as the whole array it keeps alive."""
    owners = {}
    for value in vars(obj).values():
        for arr in value if isinstance(value, (tuple, list)) else (value,):
            if isinstance(arr, np.ndarray):
                arr = _owner(arr)
                owners[id(arr)] = arr.nbytes
    return sum(owners.values())


def _count_complex(counters, args, result, state):
    counters["complexes.build_clique_complex.calls"] += 1
    counters["complexes.simplices"] += sum(len(level) for level in result.simplices)


def _count_betti(counters, args, result, state):
    counters["homology.betti_exact.calls"] += 1


def _count_hodge(counters, args, result, state):
    counters["homology.hodge_laplacian.bytes"] += _held_bytes(result)


def _eig_pending(args):
    return getattr(args[0], "_eig", None) is None


def _count_eig(counters, args, result, state):
    if state:  # the call decomposed rather than returning its cache
        counters["homology.eig.dim_sum"] += args[0].dim


def _count_density(counters, args, result, state):
    counters["pipeline.reduced_density.bytes"] += _held_bytes(result)
    vectors = result.vectors  # the columns of the phase-estimation unitary that are read
    counters["_pe_columns_read"] += vectors.shape[1]
    counters["_pe_columns_built"] += _owner(vectors).size // vectors.shape[0]


def _count_samples(counters, args, result, state):
    counters["pipeline.trace_estimate.samples"] += result.samples_used


def _count_observable(counters, args, result, state):
    counters["pipeline.observable_encoding.bytes"] += _held_bytes(result)
    counters["pipeline.dense_encodings"] += result.dense is not None


def _count_dense(counters, args, result, state):
    counters["pipeline.dense_encodings"] += result.dense is not None


def _count_cli_output(counters, args, result, state):
    argv = list(args[0])
    with open(argv[argv.index("--out") + 1], "rb") as fh:
        counters["cli.out_bytes"] += len(fh.read())


TARGETS = (
    Target("complexes.build_clique_complex",
           ("bettiq.extraction:build_clique_complex", "bettiq.complexes:build_clique_complex"),
           after=_count_complex),
    Target("homology.betti_exact", ("bettiq.extraction:betti_exact",), after=_count_betti),
    Target("homology.hodge_laplacian", ("bettiq.extraction:hodge_laplacian",), after=_count_hodge),
    Target("homology.eig", ("bettiq.homology:HodgeOperator.eig",),
           before=_eig_pending, after=_count_eig),
    Target("homology.spectral_summary", ("bettiq.extraction:spectral_summary",)),
    Target("extraction.pipeline_context", ("bettiq.extraction:pipeline_context",)),
    Target("extraction.solve", ("bettiq.extraction:solve_system",)),
    Target("extraction.estimate",
           ("bettiq.extraction:estimate_betti", "bettiq.extraction:estimate_normalized_betti",
            "bettiq.cli:estimate_betti", "bettiq.cli:estimate_normalized_betti")),
    Target("pipeline.zero_phase_weights", ("bettiq.extraction:zero_phase_weights",)),
    Target("pipeline.reduced_density", ("bettiq.extraction:reduced_density",),
           after=_count_density),
    Target("pipeline.expectation", ("bettiq.pipeline:DensityOperator.expectation",)),
    Target("pipeline.trace_estimate", ("bettiq.extraction:trace_estimate",),
           after=_count_samples, peak_counter="pipeline.trace_estimate.draw_bytes"),
    Target("pipeline.observable_encoding", ("bettiq.extraction:PipelineContext.observable_encoding",),
           after=_count_observable),
    Target("pipeline.block_encode_density", ("bettiq.pipeline:block_encode_density",),
           after=_count_dense),
    Target("pipeline.unitarity_deviation", ("bettiq.pipeline:BlockEncoding.unitarity_deviation",)),
    Target("pipeline.block_deviation", ("bettiq.pipeline:BlockEncoding.block_deviation",)),
    Target("cli", ("bettiq.cli:main",), after=_count_cli_output),
)

# name -> (unit, better, span whose wrapping produces it, kind)
# kind "self": summed self time of the span; "count": a counter; otherwise special.
PER_LAYER = {
    "homology.eig.s": ("s", "lower", "homology.eig", "self"),
    "homology.eig.dim_sum": ("count", "lower", "homology.eig", "count"),
    "homology.hodge_laplacian.s": ("s", "lower", "homology.hodge_laplacian", "self"),
    "homology.hodge_laplacian.bytes": ("bytes_computed", "lower", "homology.hodge_laplacian", "count"),
    "complexes.build_clique_complex.s": ("s", "lower", "complexes.build_clique_complex", "self"),
    "complexes.build_clique_complex.calls": ("count", "lower", "complexes.build_clique_complex", "count"),
    "complexes.simplices": ("count", "lower", "complexes.build_clique_complex", "count"),
    "homology.betti_exact.s": ("s", "lower", "homology.betti_exact", "self"),
    "homology.betti_exact.calls": ("count", "lower", "homology.betti_exact", "count"),
    "homology.spectral_summary.s": ("s", "lower", "homology.spectral_summary", "self"),
    "extraction.pipeline_context.s": ("s", "lower", "extraction.pipeline_context", "self"),
    "extraction.solve.s": ("s", "lower", "extraction.solve", "self"),
    "extraction.estimate.self_s": ("s", "lower", "extraction.estimate", "self"),
    "pipeline.expectation.s": ("s", "lower", "pipeline.expectation", "self"),
    "pipeline.trace_estimate.s": ("s", "lower", "pipeline.trace_estimate", "self"),
    "pipeline.trace_estimate.samples": ("count", "lower", "pipeline.trace_estimate", "count"),
    "pipeline.trace_estimate.draw_bytes": ("bytes_traced", "lower", "pipeline.trace_estimate", "count"),
    "pipeline.observable_encoding.s": ("s", "lower", "pipeline.observable_encoding", "self"),
    "pipeline.observable_encoding.bytes": ("bytes_computed", "lower", "pipeline.observable_encoding", "count"),
    "pipeline.reduced_density.s": ("s", "lower", "pipeline.reduced_density", "self"),
    "pipeline.reduced_density.bytes": ("bytes_computed", "lower", "pipeline.reduced_density", "count"),
    "pipeline.pe_columns_read_ratio": ("ratio", "higher", "pipeline.reduced_density", "columns"),
    "pipeline.block_encode_density.s": ("s", "lower", "pipeline.block_encode_density", "self"),
    "pipeline.unitarity_deviation.s": ("s", "lower", "pipeline.unitarity_deviation", "self"),
    "pipeline.block_deviation.s": ("s", "lower", "pipeline.block_deviation", "self"),
    "pipeline.dense_encodings": ("count", "lower", "pipeline.block_encode_density", "count"),
    "pipeline.zero_phase_weights.s": ("s", "lower", "pipeline.zero_phase_weights", "self"),
    "cli.self_s": ("s", "lower", "cli", "self"),
    "cli.out_bytes": ("bytes", "lower", "cli", "count"),
    "trace.coverage": ("ratio", "higher", None, "coverage"),
    "trace.overhead": ("ratio", "lower", None, "overhead"),
}


def layer_metrics(tracer: Tracer, traced_op_wall: float, untraced_wall: float,
                  traced_wall: float) -> dict[str, dict]:
    """Every per-layer metric the trace can give. A metric whose library
    name no longer exists, or whose counter hook failed, is left out; a layer
    the workload never reaches reads 0."""
    self_time = tracer.layer_self_times()
    out = {}
    for name, (unit, _, span, kind) in PER_LAYER.items():
        if span in tracer.missing or (kind in ("count", "columns") and span in tracer.broken):
            continue
        if kind == "self":
            value = self_time.get(span, 0.0)
        elif kind == "count":
            value = tracer.counters.get(name, 0)
        elif kind == "columns":
            built = tracer.counters.get("_pe_columns_built", 0)
            value = tracer.counters.get("_pe_columns_read", 0) / built if built else 0.0
        elif kind == "coverage":
            value = sum(self_time.values()) / traced_op_wall if traced_op_wall else 0.0
        else:
            value = traced_wall / untraced_wall - 1.0
        out[name] = {"value": value, "unit": unit}
    return out
