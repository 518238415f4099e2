"""Recovering Betti numbers from two observable traces.

Two flag-qubit observables turn the pipeline's mixed state into a 2x2 linear
system whose solution is (beta_k, p1), where p1 is the zero-outcome weight
summed over off-complex slots.  Because the system matrix is known exactly,
the only error source is the right-hand side; the solution error is bounded
by ||A^-1|| times the measurement error, which drives the per-measurement
accuracy planner.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from math import comb, floor, hypot, inf, sqrt

import numpy as np

from .complexes import CliqueComplex, _check_dimension, build_clique_complex
from .homology import (
    HodgeOperator,
    SpectralSummary,
    _summary,
    betti_exact,
    complement_complex,
    hodge_laplacian,
    spectral_summary,
)
from .pipeline import (
    DensityOperator,
    PEConfig,
    TraceEstimate,
    _check_accuracy,
    _check_confidence,
    _check_contraction,
    as_seed_sequence,
    block_encode_hermitian,
    block_encode_projector,
    grover_prep_cost,
    hoeffding_sample_count,
    reduced_density,
    seed_descriptor,
    tensor_block_encoding,
    trace_estimate,
    zero_phase_weights,
)

__all__ = [
    "SingularSystemError",
    "ObservablePair",
    "PipelineContext",
    "ExtractionSystem",
    "BettiEstimate",
    "NormalizedBettiEstimate",
    "ResourceReport",
    "pipeline_context",
    "assemble_system",
    "solve_system",
    "inv_norm",
    "plan_delta",
    "estimate_betti",
    "estimate_normalized_betti",
    "complement_report",
    "resource_estimate",
]

CONDITION_WARN_THRESHOLD = 1e8

# A raw estimate this close to a half-integer is that half-integer, so the
# rounded Betti number does not follow the last-bit rounding of the solve.
_HALF_INTEGER_SNAP = 1e-9


class SingularSystemError(RuntimeError):
    """The 2x2 extraction system cannot be solved reliably."""


def _check_flag_observable(mat) -> np.ndarray:
    """A read-only copy of `mat`, once it is checked to be a 2x2 Hermitian contraction."""
    m = np.array(mat, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError("flag observables are 2x2")
    _check_contraction(m, "flag observable")
    m.setflags(write=False)
    return m


def _singular_values(a) -> tuple[float, float]:
    """(smax, smin) of a real 2x2 matrix in closed form: with h1 = hypot(a11+a22,
    a21-a12) and h2 = hypot(a11-a22, a21+a12), smax = (h1+h2)/2 and smin =
    |h1-h2|/2 (not |det|/smax, which drifts from LAPACK by an ulp)."""
    (a11, a12), (a21, a22) = np.asarray(a, dtype=float).tolist()
    h1, h2 = hypot(a11 + a22, a21 - a12), hypot(a11 - a22, a21 + a12)
    return (h1 + h2) / 2.0, abs(h1 - h2) / 2.0


@dataclass(frozen=True)
class ObservablePair:
    """Two flag-qubit observables, checked and frozen here and read unchecked by
    the estimators; their diagonal traces form the system matrix."""

    m1: np.ndarray
    m2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "m1", _check_flag_observable(self.m1))
        object.__setattr__(self, "m2", _check_flag_observable(self.m2))
        # each observable's diagonal weights (M[1,1], M[0,0]), a row of the raw matrix
        object.__setattr__(self, "_weights", tuple((float(m[1, 1].real), float(m[0, 0].real))
                                                   for m in (self.m1, self.m2)))
        smax, smin = _singular_values(self.raw_matrix())
        if not smax * smin >= 1e-12:  # |det|
            raise ValueError("observable pair induces a singular system; choose distinct diagonals")

    @classmethod
    def default(cls) -> "ObservablePair":
        """Flag projectors |1><1|, |0><0|: the identity system up to 1/C, the
        best-conditioned choice (||A^-1|| is then exactly the slot count); one
        instance per process."""
        return _DEFAULT_PAIR

    def raw_matrix(self) -> np.ndarray:
        """System matrix without the 1/C factor: rows (Tr M|1><1|, Tr M|0><0|)."""
        return np.array(self._weights)


_DEFAULT_PAIR = ObservablePair(np.diag([0.0, 1.0]), np.diag([1.0, 0.0]))
_IDEAL = PEConfig.ideal()


def assemble_system(pair: ObservablePair, slot_count: int) -> np.ndarray:
    """The 2x2 matrix mapping (beta_k, p1) to the observable traces; nonsingular,
    since `ObservablePair` rejects a pair whose raw matrix has |det| < 1e-12."""
    if slot_count < 1:
        raise ValueError("slot count must be positive")
    return pair.raw_matrix() / slot_count


def inv_norm(a: np.ndarray) -> float:
    """Spectral norm of A^-1, one over the closed-form smallest singular value."""
    smin = _singular_values(a)[1]
    if not smin > 0.0:
        raise SingularSystemError("matrix is singular")
    return 1.0 / smin


def solve_system(a: np.ndarray, y) -> tuple[float, float]:
    """Exact 2x2 solve of A.(beta, p1) = Y by Cramer's rule on Python floats, forward stable
    at this size; warns when the closed-form condition number smax / smin is large."""
    (a11, a12), (a21, a22) = np.asarray(a, dtype=float).tolist()
    y1, y2 = map(float, y)
    det = a11 * a22 - a12 * a21
    if det == 0.0:
        raise SingularSystemError("matrix is singular")
    smax, smin = _singular_values(a)
    cond = smax / smin if smin > 0.0 else inf
    if cond > CONDITION_WARN_THRESHOLD:
        warnings.warn(f"extraction system condition number {cond:.3g} is large", RuntimeWarning)
    return (a22 * y1 - a12 * y2) / det, (a11 * y2 - a21 * y1) / det


def plan_delta(eps: float, beta_lower: float, a: np.ndarray) -> float:
    """Per-measurement additive accuracy achieving multiplicative accuracy eps,
    assuming the true Betti number is at least beta_lower."""
    _check_accuracy(eps, "eps")
    _check_accuracy(beta_lower, "beta_lower")
    return eps * beta_lower / (sqrt(2.0) * inv_norm(a))


# ---------------------------------------------------------------------------
# pipeline context


def _as_complex(source, k: int) -> CliqueComplex:
    """The complex the pipeline reads at dimension k: a complex built at least
    that far is reused; an under-built complex is rebuilt from its graph, and a
    graph or point cloud built, to level k."""
    if isinstance(source, CliqueComplex):
        if source.max_dim >= k:
            _check_dimension(k, source.n)
            return source
        source = source.graph
    return build_clique_complex(source, k)


@dataclass(eq=False)
class PipelineContext:
    """One instance/dimension/convention binding of the pipeline, with the
    spectral pieces cached; the complex, k and slot count are the operator's."""

    op: HodgeOperator
    cfg: PEConfig

    def __post_init__(self):
        self._sums = None
        self._rho = None

    @property
    def complex(self) -> CliqueComplex:
        return self.op.complex

    @property
    def k(self) -> int:
        return self.op.k

    @property
    def slot_count(self) -> int:
        return self.op.dim

    @property
    def s_count(self) -> int:
        return self.op.block_sizes[0]

    def summary(self) -> SpectralSummary:
        """The spectrum digest the estimate reads and reports: under ideal phase
        estimation the complex's block's alone, the restricted operator's, whose
        kappa is the paper's, as no kernel count needs a spectrum; for a t-bit
        register, which reads every eigenvalue, the whole operator's."""
        return _summary(self.op, 1) if self.cfg.mode == "ideal" else spectral_summary(self.op)

    def _block_sums(self) -> tuple[float, ...]:
        """Zero-outcome probability summed over each block's eigenvalues: in ideal
        mode the kernel projector's trace, the block's rank kernel count, so no
        block is decomposed and the complement's is never assembled; for a t-bit
        register, the summed `zero_phase_weights`."""
        if self._sums is None:
            if self.cfg.mode == "ideal":
                self._sums = tuple(map(float, self.op.kernel_dims))
            else:
                self._sums = tuple(float(w.sum()) for w in zero_phase_weights(self.op, self.cfg))
        return self._sums

    def beta_pe(self) -> float:
        """Zero-outcome weight summed over the complex's simplices (the Betti
        number under ideal phase estimation)."""
        return self._block_sums()[0]

    def p1_trace(self) -> float:
        """Zero-outcome weight over the other slots (1 per slot in no block)."""
        return float(self.slot_count - sum(self.op.block_sizes) + sum(self._block_sums()[1:]))

    def rho(self) -> DensityOperator:
        """The reduced mixed state, for block-encoding verification only: the
        estimators read the block sums and never build it."""
        if self._rho is None:
            self._rho = reduced_density(self.op, self.cfg)
        return self._rho

    @cached_property
    def _zero_phase_projector(self):
        """The encoding of |0><0|_phase x I_slot, built on first read from the
        register sizes (the spectrum only for an automatic t), read-only."""
        enc = block_encode_projector(2 ** self.cfg.resolve(self.op), self.slot_count)
        enc.dense.flags.writeable = enc.target.flags.writeable = False
        return enc

    def observable_encoding(self, m: np.ndarray):
        """Block encoding of |0><0|_phase x I_slot x M by the tensor construction;
        every observable of the context shares its zero-phase projector."""
        return tensor_block_encoding([self._zero_phase_projector, block_encode_hermitian(m)])


def pipeline_context(source, k: int, convention: str = "restricted",
                     pe: PEConfig | None = None) -> PipelineContext:
    return PipelineContext(hodge_laplacian(_as_complex(source, k), k, convention),
                           pe or _IDEAL)


def _flag_traces(ctx: PipelineContext, weights) -> tuple[float, ...]:
    """The scalars b = Tr[(|0><0| x I x M) rho] of flag observables M, each given
    by its weights (M[1,1], M[0,0]), summed from the zero-phase block sums.
    Sampled estimation draws the Hadamard-test statistic for these same b."""
    beta, p1, c = ctx.beta_pe(), ctx.p1_trace(), ctx.slot_count
    return tuple((beta * w1 + p1 * w0) / c for w1, w0 in weights)


# ---------------------------------------------------------------------------
# estimators


@dataclass(frozen=True)
class ExtractionSystem:
    """The assembled system, its data, solution, and conditioning."""

    a: np.ndarray
    y: tuple[float, float]
    x: tuple[float, float]
    inv_norm: float
    kappa_a: float


@dataclass(frozen=True)
class _EstimateRun:
    """The run record both estimates carry: what was asked, on which instance
    and dimension, and the samples and seed the measurement used."""

    samples_per_observable: int
    confidence: float
    mode: str
    convention: str
    pe_mode: str
    n: int
    k: int
    s_count: int
    slot_count: int
    seed: dict | None

    def _run_dict(self, instance) -> dict:
        return {
            "instance": instance,
            "k": self.k,
            "convention": self.convention,
            "mode": self.mode,
            "pe": self.pe_mode,
            "samples": self.samples_per_observable,
            "confidence": self.confidence,
            "n": self.n,
            "s_count": self.s_count,
            "slot_count": self.slot_count,
            "seed": self.seed,
        }


def _run_fields(ctx: PipelineContext, mode: str, confidence: float, samples: int, ss) -> dict:
    """The `_EstimateRun` fields of a run on this context."""
    return dict(samples_per_observable=samples, confidence=confidence, mode=mode,
                convention=ctx.op.convention, pe_mode=ctx.cfg.mode, n=ctx.complex.n, k=ctx.k,
                s_count=ctx.s_count, slot_count=ctx.slot_count,
                seed=seed_descriptor(ss) if ss is not None else None)


@dataclass(frozen=True)
class BettiEstimate(_EstimateRun):
    """Betti-number estimate with its error budget and diagnostics.

    `kappa_laplacian` (and the resource report's kappa) is that of the
    spectrum the estimate read (`PipelineContext.summary`): under ideal phase
    estimation the complex's own block, the paper's kappa, under either
    convention; under a t-bit register the whole operator, which under `dual`
    includes the complement block."""

    beta_estimate: float
    beta_rounded: int
    p1_estimate: float
    eps: float | None
    delta: float | None
    system: ExtractionSystem
    kappa_laplacian: float | None
    beta_oracle: int | None
    resource: "ResourceReport | None"

    def to_dict(self, instance=None) -> dict:
        return {
            **self._run_dict(instance),
            "epsilon": self.eps,
            "delta": self.delta,
            "beta_estimate": self.beta_estimate,
            "beta_rounded": self.beta_rounded,
            "p1": self.p1_estimate,
            "inv_norm": self.system.inv_norm,
            "kappa_system": self.system.kappa_a,
            "kappa_laplacian": self.kappa_laplacian,
            "beta_oracle": self.beta_oracle,
            "resource_report": self.resource.to_dict() if self.resource else None,
        }


def _round_beta(beta_raw: float) -> int:
    x = max(beta_raw, 0.0)
    half = floor(x) + 0.5
    return floor((half if abs(x - half) < _HALF_INTEGER_SNAP else x) + 0.5)


def _enter(source, k: int, convention: str, pe: PEConfig | None, mode: str, confidence: float,
           pair: ObservablePair | None, seed) -> tuple:
    """The estimators' shared entry: check mode, confidence and (sampled mode) the seed,
    then build the context, reject an empty level, and supply the default pair and the
    seed sequence."""
    if mode not in ("exact", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    _check_confidence(confidence)
    ss = as_seed_sequence(seed) if mode == "sampled" else None
    ctx = pipeline_context(source, k, convention, pe)
    if ctx.s_count == 0:
        raise ValueError("no k-simplices; the estimate is undefined")
    return ctx, pair or ObservablePair.default(), ss


def _measure_and_solve(ctx: PipelineContext, pair: ObservablePair, a: np.ndarray,
                       accuracy: float | None, confidence: float, seed) -> tuple:
    """Measure both traces, exactly with accuracy None and otherwise as seeded
    estimates to +/- accuracy, and solve A.x = y; also returns the samples drawn."""
    y, samples = _flag_traces(ctx, pair._weights), 0
    if accuracy is not None:
        # split the confidence budget evenly so the joint guarantee holds by union bound
        conf_each = 1.0 - (1.0 - confidence) / 2.0
        est1, est2 = (trace_estimate(b, accuracy, conf_each, child)
                      for b, child in zip(y, seed.spawn(2)))
        y, samples = (est1.value, est2.value), est1.samples_used
    x = solve_system(a, y)
    smax, smin = _singular_values(a)
    return ExtractionSystem(a=a, y=y, x=x, inv_norm=1.0 / smin, kappa_a=smax / smin), samples


def estimate_betti(source, k: int, eps: float | None = None, *, pair: ObservablePair | None = None,
                   convention: str = "restricted", pe: PEConfig | None = None,
                   mode: str = "exact", confidence: float = 0.95, seed=None,
                   beta_lower: float = 1.0) -> BettiEstimate:
    """Full pipeline: complex -> Hodge operator -> mixed state -> two traces ->
    2x2 solve -> Betti estimate.

    Sampled mode plans the per-measurement accuracy from eps and beta_lower.
    Deterministic per master seed.
    """
    if eps is not None:
        _check_accuracy(eps, "eps")
    if mode == "sampled":
        if eps is None:
            raise ValueError("sampled mode needs a target multiplicative accuracy eps")
        _check_accuracy(beta_lower, "beta_lower")
    ctx, pair, ss = _enter(source, k, convention, pe, mode, confidence, pair, seed)
    a = assemble_system(pair, ctx.slot_count)
    delta = plan_delta(eps, beta_lower, a) if mode == "sampled" else None
    system, samples = _measure_and_solve(ctx, pair, a, delta, confidence, ss)

    beta_raw, p1 = system.x
    beta_rounded = _round_beta(beta_raw)
    summary = ctx.summary()

    resource = None
    if eps is not None and beta_rounded > 0 and summary.kappa is not None:
        resource = resource_estimate(ctx.complex.n, k, summary.kappa, beta_rounded,
                                     ctx.s_count, eps=eps, confidence=confidence)

    return BettiEstimate(
        **_run_fields(ctx, mode, confidence, samples, ss),
        beta_estimate=beta_raw,
        beta_rounded=beta_rounded,
        p1_estimate=p1,
        eps=eps,
        delta=delta,
        system=system,
        kappa_laplacian=summary.kappa,
        beta_oracle=ctx.op.kernel_dims[0],
        resource=resource,
    )


@dataclass(frozen=True)
class NormalizedBettiEstimate(_EstimateRun):
    """Estimate of beta_k / |S_k| with an additive accuracy target."""

    value: float
    raw_value: float
    delta: float
    eps_measurement: float
    oracle_value: float | None

    def to_dict(self, instance=None) -> dict:
        return {
            **self._run_dict(instance),
            "delta": self.delta,
            "eps_measurement": self.eps_measurement,
            "normalized_betti": self.value,
            "normalized_betti_raw": self.raw_value,
            "oracle_value": self.oracle_value,
        }


def estimate_normalized_betti(source, k: int, delta: float, *,
                              pair: ObservablePair | None = None,
                              convention: str = "restricted", pe: PEConfig | None = None,
                              mode: str = "exact", confidence: float = 0.95,
                              seed=None) -> NormalizedBettiEstimate:
    """Estimate beta_k/|S_k| to additive accuracy delta.

    Works on the rescaled system whose unknowns are (beta_k/C, p1/C): each
    trace is measured to eps = delta * |S_k| / C, the solution is scaled by
    C/|S_k|, and the result is clamped to [0, 1].
    """
    _check_accuracy(delta, "delta")
    ctx, pair, ss = _enter(source, k, convention, pe, mode, confidence, pair, seed)
    eps_measurement = delta * ctx.s_count / ctx.slot_count
    accuracy = eps_measurement if mode == "sampled" else None
    # raw_matrix() is the system in the (beta/C, p1/C) variables
    system, samples = _measure_and_solve(ctx, pair, pair.raw_matrix(), accuracy, confidence, ss)
    raw = system.x[0] * ctx.slot_count / ctx.s_count
    value = min(max(raw, 0.0), 1.0)
    oracle = ctx.op.kernel_dims[0] / ctx.s_count

    return NormalizedBettiEstimate(
        **_run_fields(ctx, mode, confidence, samples, ss),
        value=value,
        raw_value=raw,
        delta=delta,
        eps_measurement=eps_measurement,
        oracle_value=oracle,
    )


def complement_report(source, k: int, pe: PEConfig | None = None) -> dict:
    """Three-way comparison of what p1 measures under each convention against
    the complement complex's true Betti number.

    Draws no conclusion: it documents whether p1 can be read as complement
    homology.  Under the restricted convention p1 is identically C - |S_k|;
    under the dual convention it equals the kernel dimension of the
    off-complex block (complement homology plus one per slot lying in neither
    complex), reported from the one integer-rank pass on the operator's
    complement complex.  Under ideal phase estimation p1_dual is read from that
    same pass, so `dual_matches_block_kernel` holds by construction; only under
    a t-bit register, where p1_dual sums the block's zero-phase weights, is it
    an independent spectral-vs-rank check.
    """
    ctx = pipeline_context(source, k, "dual", pe)
    graph = ctx.complex.graph
    c_total, s_count = ctx.slot_count, ctx.s_count
    comp_slots = c_total - s_count
    # the restricted operator is the dual one's first block alone: every other slot is a zero row
    p1_restricted = float(comp_slots)
    p1_dual = ctx.p1_trace()

    if k >= 1:
        # the dual operator's off-complex kernel by the Hodge theorem: complement
        # homology plus one zero row per slot in neither complex
        beta_comp = ctx.op.kernel_dims[1]
        neither = comp_slots - ctx.op.block_sizes[1]
        kernel_dim_block = beta_comp + neither
    else:  # no off-complex slots, so the operator holds no complement complex
        beta_comp = betti_exact(complement_complex(graph, 0), 0)
        neither = kernel_dim_block = 0

    return {
        "n": graph.n,
        "k": k,
        "slot_count": c_total,
        "s_count": s_count,
        "complement_slot_count": comp_slots,
        "p1_restricted": p1_restricted,
        "p1_restricted_per_slot": p1_restricted / comp_slots if comp_slots else None,
        "p1_dual": p1_dual,
        "p1_dual_per_slot": p1_dual / comp_slots if comp_slots else None,
        "betti_complement_exact": beta_comp,
        "kernel_dim_complement_block": kernel_dim_block,
        "neither_complex_slot_count": int(neither),
        "dual_matches_block_kernel": bool(abs(p1_dual - kernel_dim_block) <= 1e-9),
    }


# ---------------------------------------------------------------------------
# resource model


@dataclass(frozen=True)
class ResourceReport:
    """Pure arithmetic on the cost formulas; nothing is executed.

    `sample_cost` is the Hoeffding count for one trace at
    `planned_measurement_delta`, at the given beta (an estimate's beta_hat) and
    the undivided `confidence`, not the count an estimate draws from beta_lower
    with the confidence split over its two traces.  It is the 1/delta^2
    statistical realization of the 1/delta query model, reported separately so
    the two scalings are never conflated.
    """

    n: int
    k: int
    kappa: float
    beta: float
    s_count: int
    slot_count: int
    eps: float | None
    delta: float | None
    this_method_cost: float | None
    prior_quantum_cost: float | None
    classical_cost: float
    depth_this_method: float
    depth_prior_quantum: float
    normalized_this_method_cost: float | None
    normalized_prior_cost: float | None
    grover_preparation_cost: float
    planned_measurement_delta: float | None
    sample_cost: int | None

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def resource_estimate(n: int, k: int, kappa: float, beta: float, s_count: int,
                      eps: float | None = None, delta: float | None = None,
                      confidence: float = 0.95) -> ResourceReport:
    """Evaluate the cost formulas at one parameter point.

    kappa must be positive and finite; multiplicative-accuracy costs need eps and
    a positive finite beta, normalized-mode costs delta.  Deterministic, pure arithmetic.
    """
    _check_dimension(k, n)
    _check_accuracy(kappa, "kappa")
    if s_count < 1:
        raise ValueError(f"|S_k| must be positive, got {s_count}")
    c_total = comb(n, k + 1)
    if s_count > c_total:
        raise ValueError(f"|S_k| = {s_count} exceeds the slot count C = {c_total}")
    if eps is not None:  # multiplicative accuracy, undefined at beta = 0
        _check_accuracy(eps, "eps")
        _check_accuracy(beta, "beta")
    if delta is not None:
        _check_accuracy(delta, "delta")

    this_cost = prior_cost = norm_this = norm_prior = None
    planned_delta = sample_cost = None
    if eps is not None:
        this_cost = (n * k + kappa * n) * c_total / (eps * beta)
        prior_cost = (n**2 * sqrt(c_total / beta) + n * kappa * sqrt(s_count / beta)) / eps
        planned_delta = eps * beta / (sqrt(2.0) * c_total)
        sample_cost = hoeffding_sample_count(planned_delta, confidence)
    if delta is not None:
        norm_this = (n * k + kappa * n) * c_total / (delta * s_count)
        norm_prior = (n**2 * sqrt(c_total / s_count) + n * kappa) / delta

    return ResourceReport(
        n=n,
        k=k,
        kappa=kappa,
        beta=beta,
        s_count=s_count,
        slot_count=c_total,
        eps=eps,
        delta=delta,
        this_method_cost=this_cost,
        prior_quantum_cost=prior_cost,
        classical_cost=float(c_total),
        depth_this_method=n * k + n * kappa,
        depth_prior_quantum=n**2 * sqrt(c_total / s_count) + n * kappa,
        normalized_this_method_cost=norm_this,
        normalized_prior_cost=norm_prior,
        grover_preparation_cost=grover_prep_cost(n, k, s_count),
        planned_measurement_delta=planned_delta,
        sample_cost=sample_cost,
    )
