"""bettiq: Betti numbers of clique complexes, two ways.

An exact integer-arithmetic homology oracle next to a classically simulated
measurement pipeline (phase estimation over Hodge Laplacians, block-encoded
observables, seeded trace sampling) that recovers Betti numbers and
normalized Betti numbers from a 2x2 linear system, with a resource-model
comparator for the associated cost formulas.
"""

from .complexes import (
    CliqueComplex,
    InstanceSpec,
    PointCloud,
    VertexGraph,
    build_clique_complex,
    complement_complex,
    dump_instance,
    generate_instance,
    induced_graph,
    instance_to_dict,
    load_instance,
    slot_rank,
)
from .homology import (
    HodgeOperator,
    SpectralSummary,
    betti_exact,
    hodge_laplacian,
    integer_rank,
    spectral_summary,
)
from .pipeline import (
    BlockEncoding,
    BlockEncodingError,
    DensityOperator,
    PEConfig,
    TraceEstimate,
    block_encode_density,
    block_encode_hermitian,
    block_encode_projector,
    block_encode_state_mixture,
    grover_prep_cost,
    hoeffding_sample_count,
    phase_zero_probability,
    reduced_density,
    tensor_block_encoding,
    trace_estimate,
    zero_phase_weights,
)
from .extraction import (
    BettiEstimate,
    ExtractionSystem,
    NormalizedBettiEstimate,
    ObservablePair,
    PipelineContext,
    ResourceReport,
    SingularSystemError,
    assemble_system,
    complement_report,
    estimate_betti,
    estimate_normalized_betti,
    inv_norm,
    pipeline_context,
    plan_delta,
    resource_estimate,
    solve_system,
)

__version__ = "0.1.0"
