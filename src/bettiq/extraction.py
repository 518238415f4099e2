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

from .complexes import CliqueComplex, _check_dimension, _integer, build_clique_complex
from .homology import (
    HodgeOperator,
    _check_convention,
    _digest,
    betti_exact,
    complement_complex,
    hodge_laplacian,
    spectral_summary,  # the name the benchmark's traced run wraps
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
    """(smax, smin) of a real 2x2 matrix, by `_closed_form` on its entries."""
    (a11, a12), (a21, a22) = np.asarray(a, dtype=float).tolist()
    return _closed_form(a11, a12, a21, a22)


def _closed_form(a11: float, a12: float, a21: float, a22: float) -> tuple[float, float]:
    """(smax, smin) of [[a11, a12], [a21, a22]]: with h1 = hypot(a11+a22, a21-a12)
    and h2 = hypot(a11-a22, a21+a12), smax = (h1+h2)/2 and smin = |h1-h2|/2 (not
    |det|/smax, which drifts from LAPACK by an ulp)."""
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
        raw = np.array(self._weights)
        raw.setflags(write=False)
        object.__setattr__(self, "_raw", raw)
        smax, smin = _singular_values(raw)
        if not smax * smin >= 1e-12:  # |det|
            raise ValueError("observable pair induces a singular system; choose distinct diagonals")

    @classmethod
    def default(cls) -> "ObservablePair":
        """Flag projectors |1><1|, |0><0|: the identity system up to 1/C, the
        best-conditioned choice (||A^-1|| is then exactly the slot count); one
        instance per process."""
        return _DEFAULT_PAIR

    def raw_matrix(self) -> np.ndarray:
        """System matrix without the 1/C factor, read-only: rows (Tr M|1><1|, Tr M|0><0|)."""
        return self._raw


_DEFAULT_PAIR = ObservablePair(np.diag([0.0, 1.0]), np.diag([1.0, 0.0]))
_IDEAL = PEConfig.ideal()


def assemble_system(pair: ObservablePair, slot_count: int) -> np.ndarray:
    """The 2x2 matrix mapping (beta_k, p1) to the observable traces; nonsingular,
    since `ObservablePair` rejects a pair whose raw matrix has |det| < 1e-12."""
    if slot_count < 1:
        raise ValueError("slot count must be positive")
    return pair._raw / slot_count


def inv_norm(a: np.ndarray) -> float:
    """Spectral norm of A^-1, one over the closed-form smallest singular value."""
    smin = _singular_values(a)[1]
    if not smin > 0.0:
        raise SingularSystemError("matrix is singular")
    return 1.0 / smin


def solve_system(a: np.ndarray, y) -> tuple[float, float]:
    """Exact 2x2 solve of A.(beta, p1) = Y by Cramer's rule on Python floats, forward stable
    at this size; warns when the closed-form condition number smax / smin is large."""
    return _solve(np.asarray(a, dtype=float).tolist(), tuple(map(float, y)))[0]


def _solve(rows, y) -> tuple[tuple[float, float], float, float]:
    """`solve_system`'s solution and A's closed-form (smax, smin), from A's rows
    and Y as Python floats."""
    (a11, a12), (a21, a22) = rows
    y1, y2 = y
    det = a11 * a22 - a12 * a21
    if det == 0.0:
        raise SingularSystemError("matrix is singular")
    smax, smin = _closed_form(a11, a12, a21, a22)
    cond = smax / smin if smin > 0.0 else inf
    if cond > CONDITION_WARN_THRESHOLD:
        warnings.warn(f"extraction system condition number {cond:.3g} is large", RuntimeWarning)
    return ((a22 * y1 - a12 * y2) / det, (a11 * y2 - a21 * y1) / det), smax, smin


def plan_delta(eps: float, beta_lower: float, a: np.ndarray) -> float:
    """Per-measurement additive accuracy achieving multiplicative accuracy eps,
    assuming the true Betti number is at least beta_lower."""
    _check_accuracy(eps, "eps")
    _check_accuracy(beta_lower, "beta_lower")
    return eps * beta_lower / (sqrt(2.0) * inv_norm(a))


# ---------------------------------------------------------------------------
# the operator and what the estimators read from it


def _given(value, cls: type, default, name: str):
    """`value`, or `default` for None; anything but a `cls` is a ValueError naming it."""
    if value is not None and not isinstance(value, cls):
        raise ValueError(f"{name} must be None or of type {cls.__name__}, got {value!r}")
    return default if value is None else value


def _operator(source, k: int, convention: str) -> HodgeOperator:
    """The Hodge operator every entry point reads, its convention checked first and k
    as the range rule's int: a complex built at least to level k is reused; an under-built
    complex is rebuilt from its graph, and a graph or point cloud built, to level k."""
    _check_convention(convention)
    if isinstance(source, CliqueComplex):
        k = _check_dimension(k, source.n)
        if source.max_dim >= k:
            return hodge_laplacian(source, k, convention)
        source = source.graph
    complex_ = build_clique_complex(source, k)
    return hodge_laplacian(complex_, complex_.max_dim, convention)


def _flag_sums(op: HodgeOperator, cfg: PEConfig) -> tuple[float, float]:
    """The zero-outcome weight summed over the complex's simplices (flag 1; the
    Betti number under ideal phase estimation) and over the other slots (flag 0;
    1 per slot in no block).  A block's sum is, in ideal mode, its rank kernel
    count, so no block is decomposed; for a t-bit register, its summed
    `zero_phase_weights`."""
    sums = ([b.kernel_dim for b in op.blocks] if cfg.mode == "ideal"
            else [float(w.sum()) for w in zero_phase_weights(op, cfg)])
    free = op.dim - sum([b.size for b in op.blocks])
    return float(sums[0]), float(free + sum(sums[1:]))


def _kappa(op: HodgeOperator, cfg: PEConfig) -> float | None:
    """The kappa an estimate reports, from the spectrum digest's check of the
    blocks it read: under ideal phase estimation the complex's block's alone (the
    restricted operator's, the paper's kappa); for a t-bit register, which reads
    every eigenvalue, the whole operator's."""
    return _digest(op.blocks[:1] if cfg.mode == "ideal" else op.blocks, op.dim)[4]


@dataclass(eq=False)
class PipelineContext:
    """One operator and phase estimation bound for block-encoding verification:
    the reduced state and the observable encodings with their shared projector.
    No estimator builds one; they read the operator through `_flag_sums` and `_kappa`."""

    op: HodgeOperator
    cfg: PEConfig

    def rho(self) -> DensityOperator:
        """The reduced mixed state, built on first read."""
        return self._rho

    @cached_property
    def _rho(self) -> DensityOperator:
        return reduced_density(self.op, self.cfg)

    @cached_property
    def _zero_phase_projector(self):
        """The encoding of |0><0|_phase x I_slot, built on first read from the
        register sizes (the spectrum only for an automatic t), read-only."""
        enc = block_encode_projector(2 ** self.cfg.resolve(self.op), self.op.dim)
        enc.diagonal.flags.writeable = enc._target.flags.writeable = False
        return enc

    def observable_encoding(self, m: np.ndarray):
        """Block encoding of |0><0|_phase x I_slot x M by the tensor construction;
        every observable of the context shares its zero-phase projector."""
        return tensor_block_encoding([self._zero_phase_projector, block_encode_hermitian(m)])


def pipeline_context(source, k: int, convention: str = "restricted",
                     pe: PEConfig | None = None) -> PipelineContext:
    cfg = _given(pe, PEConfig, _IDEAL, "pe")
    return PipelineContext(_operator(source, k, convention), cfg)


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


def _frozen(cls, fields: dict):
    """An instance of the frozen dataclass `cls` whose attributes are `fields`, a
    fresh dict holding every field by name: it becomes the instance's dict in one
    step, rather than one `object.__setattr__` per field."""
    record = object.__new__(cls)
    object.__setattr__(record, "__dict__", fields)
    return record


def _run(op: HodgeOperator, cfg: PEConfig, mode: str, confidence: float, samples: int, ss,
         **fields) -> dict:
    """An estimate's fields by name, in a fresh dict: those of its `_EstimateRun` on
    this operator, then its own `fields`."""
    run = {"samples_per_observable": samples, "confidence": confidence, "mode": mode,
           "convention": op.convention, "pe_mode": cfg.mode, "n": op.n, "k": op.k,
           "s_count": op.blocks[0].size, "slot_count": op.dim,
           "seed": seed_descriptor(ss) if ss is not None else None}
    run.update(fields)
    return run


@dataclass(frozen=True)
class BettiEstimate(_EstimateRun):
    """Betti-number estimate with its error budget and diagnostics.

    `kappa_laplacian` (and the resource report's kappa) is that of the
    spectrum the estimate read (`_kappa`): under ideal phase
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
    """The estimators' shared entry: check mode, confidence, phase estimation, pair
    and (sampled mode) the seed, supplying the defaults, then build the operator
    and reject an empty level."""
    if mode not in ("exact", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    _check_confidence(confidence)
    cfg = _given(pe, PEConfig, _IDEAL, "pe")
    pair = _given(pair, ObservablePair, _DEFAULT_PAIR, "pair")
    ss = as_seed_sequence(seed) if mode == "sampled" else None
    op = _operator(source, k, convention)
    if op.blocks[0].size == 0:
        raise ValueError("no k-simplices; the estimate is undefined")
    return op, cfg, pair, ss


def _measure_and_solve(op: HodgeOperator, cfg: PEConfig, pair: ObservablePair, a: np.ndarray,
                       scale: int, accuracy: float | None, confidence: float, seed) -> tuple:
    """Measure both flag traces b = Tr[(|0><0| x I x M) rho], M's weights (M[1,1], M[0,0])
    on the two `_flag_sums`: exactly with accuracy None, else as seeded estimates to
    +/- accuracy.  Returns the solved system A.x = y and the samples drawn; the system
    matrix a, pair.raw_matrix() / scale, is solved on the pair's weights / scale, the
    same floats."""
    (beta, p1), c = _flag_sums(op, cfg), op.dim
    (w11, w10), (w21, w20) = pair._weights
    y, samples = ((beta * w11 + p1 * w10) / c, (beta * w21 + p1 * w20) / c), 0
    if accuracy is not None:
        # split the confidence budget evenly so the joint guarantee holds by union bound
        conf_each = 1.0 - (1.0 - confidence) / 2.0
        # the children `seed.spawn(2)` gives a fresh seed, without advancing the caller's
        children = (np.random.SeedSequence(seed.entropy, spawn_key=(*seed.spawn_key, i),
                                           pool_size=seed.pool_size) for i in (0, 1))
        est1, est2 = (trace_estimate(b, accuracy, conf_each, child)
                      for b, child in zip(y, children))
        y, samples = (est1.value, est2.value), est1.samples_used
    x, smax, smin = _solve(((w11 / scale, w10 / scale), (w21 / scale, w20 / scale)), y)
    return _frozen(ExtractionSystem, {"a": a, "y": y, "x": x, "inv_norm": 1.0 / smin,
                                      "kappa_a": smax / smin}), samples


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
    op, cfg, pair, ss = _enter(source, k, convention, pe, mode, confidence, pair, seed)
    a = assemble_system(pair, op.dim)
    delta = plan_delta(eps, beta_lower, a) if mode == "sampled" else None
    system, samples = _measure_and_solve(op, cfg, pair, a, op.dim, delta, confidence, ss)

    beta_raw, p1 = system.x
    beta_rounded = _round_beta(beta_raw)
    kappa, first = _kappa(op, cfg), op.blocks[0]

    resource = None
    if eps is not None and beta_rounded > 0 and kappa is not None:
        resource = resource_estimate(op.n, op.k, kappa, beta_rounded, first.size, eps=eps,
                                     confidence=confidence)

    return _frozen(BettiEstimate, _run(
        op, cfg, mode, confidence, samples, ss,
        beta_estimate=beta_raw,
        beta_rounded=beta_rounded,
        p1_estimate=p1,
        eps=eps,
        delta=delta,
        system=system,
        kappa_laplacian=kappa,
        beta_oracle=first.kernel_dim,
        resource=resource,
    ))


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
    op, cfg, pair, ss = _enter(source, k, convention, pe, mode, confidence, pair, seed)
    c, first = op.dim, op.blocks[0]
    eps_measurement = delta * first.size / c
    accuracy = eps_measurement if mode == "sampled" else None
    # the raw matrix is the system in the (beta/C, p1/C) variables
    system, samples = _measure_and_solve(op, cfg, pair, pair._raw, 1, accuracy, confidence, ss)
    raw = system.x[0] * c / first.size
    value = min(max(raw, 0.0), 1.0)
    oracle = first.kernel_dim / first.size

    return _frozen(NormalizedBettiEstimate, _run(
        op, cfg, mode, confidence, samples, ss,
        value=value,
        raw_value=raw,
        delta=delta,
        eps_measurement=eps_measurement,
        oracle_value=oracle,
    ))


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
    cfg = _given(pe, PEConfig, _IDEAL, "pe")
    op = _operator(source, k, "dual")
    graph, k = op.complex.graph, op.k
    c_total, s_count = op.dim, op.blocks[0].size
    comp_slots = c_total - s_count
    # the restricted operator is the dual one's first block alone: every other slot is a zero row
    p1_restricted = float(comp_slots)
    p1_dual = _flag_sums(op, cfg)[1]

    if k >= 1:
        # the dual operator's off-complex kernel by the Hodge theorem: complement
        # homology plus one zero row per slot in neither complex
        comp = op.blocks[1]
        beta_comp, neither = comp.kernel_dim, comp_slots - comp.size
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
    a positive finite beta, normalized-mode costs delta; n, k and s_count are read by
    `_integer`'s rule.  Deterministic, pure arithmetic.
    """
    n = _integer(n, "vertex count n")
    k = _check_dimension(k, n)
    _check_accuracy(kappa, "kappa")
    s_count = _integer(s_count, "s_count")
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
