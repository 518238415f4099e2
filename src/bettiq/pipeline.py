"""Desk-scale simulation of the measurement pipeline.

Everything a hardware run would produce is reproduced exactly from small
dense matrices: phase estimation for the Hodge operator (a t-bit register or
an idealized kernel-flag bit), the reduced mixed state over (phase, slot,
flag), block encodings with verifiable unitarity and block equality, and
additive-error trace estimation as seeded sampling of the Hadamard-test
statistic.

Phase estimation starts from the phase register's |0>, so only those C
columns of its unitary are built, from the operator's eigenpairs.  The mixed
state is kept as a uniform mixture of one pure state per slot.  Every block
encoding is held as its circuit's factors (one-ancilla matrices, reflections).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from math import ceil, comb, inf, isfinite, log, prod, sqrt

import numpy as np

from .complexes import _integer
from .homology import HodgeOperator, spectral_summary

__all__ = [
    "PEConfig",
    "DensityOperator",
    "BlockEncoding",
    "BlockEncodingError",
    "TraceEstimate",
    "phase_zero_probability",
    "zero_phase_weights",
    "reduced_density",
    "block_encode_state_mixture",
    "block_encode_density",
    "block_encode_projector",
    "block_encode_hermitian",
    "tensor_block_encoding",
    "hoeffding_sample_count",
    "trace_estimate",
    "grover_prep_cost",
    "as_seed_sequence",
    "seed_descriptor",
]

# Largest dimension of a tensor-product encoding (held as its factors).
DENSE_DIM_CAP = 4608

# Range of the +/-1-valued Hadamard-test statistic that trace estimation samples.
_OUTCOME_RANGE = 2.0

# Largest sample count one Generator.binomial draw takes (its n is an int64).
_MAX_SAMPLES = int(np.iinfo(np.int64).max)

# A log2 of the automatic register bound this close to an integer is that
# integer, so the register size does not follow the eigensolver's last bit.
_LOG2_SNAP = 1e-9


# ---------------------------------------------------------------------------
# phase estimation configuration


@dataclass(frozen=True)
class PEConfig:
    """Phase-estimation settings, and the one place the phase register's size
    is decided (`resolve`).

    mode "ideal": a single flag bit marks kernel vs non-kernel components
    exactly (t = 1, P = 2).  mode "bits": a t-bit register with the standard
    readout statistics on the eigenphases tau * lambda, tau = pi / lambda_max.
    An unset t is the smallest with 2^t >= 2 sqrt(m) / sin(pi / (2 kappa)), m
    the largest block's slot count, which holds the zero outcome's leakage, a
    bias on each block's sum, to at most 1/4.
    """

    mode: str = "ideal"
    t: int | None = None

    def __post_init__(self):
        if self.mode not in ("ideal", "bits"):
            raise ValueError(f"unknown phase-estimation mode {self.mode!r}")
        if self.t is not None:
            if self.mode == "ideal":
                raise ValueError(f"ideal phase estimation has no phase register size t, got {self.t!r}")
            object.__setattr__(self, "t", _integer(self.t, "phase register size t"))
            if self.t < 1:
                raise ValueError("phase register needs t >= 1 bits")

    @classmethod
    def ideal(cls) -> "PEConfig":
        return cls(mode="ideal")

    @classmethod
    def bits(cls, t: int | None = None) -> "PEConfig":
        return cls(mode="bits", t=t)

    def resolve(self, op: HodgeOperator) -> int:
        """The register's bit count t (P = 2^t): 1 for the ideal flag bit, a
        fixed t as given; only an automatic t reads the spectrum."""
        if self.mode == "ideal":
            return 1
        if self.t is not None:
            return self.t
        summary = spectral_summary(op)
        if summary.kappa is None:
            return 1
        # each nonzero eigenphase phi lies in [pi/kappa, pi] and leaks at most
        # 1/(P^2 sin^2(phi/2)) into the zero outcome; a block's m of them add up
        largest = max(1, *(b.size for b in op.blocks))
        bound = 2.0 * sqrt(largest) / np.sin(np.pi / (2.0 * summary.kappa))
        return max(1, ceil(np.log2(bound) - _LOG2_SNAP))


def _eigenphases(blocks, block_evals) -> tuple[np.ndarray, ...]:
    """Per block, the eigenphases tau * lambda of its ascending eigenvalues, tau = pi /
    lambda_max (1 if all is kernel), its first kernel_dim (the kernel) pinned to 0."""
    tops = [float(e[-1]) for b, e in zip(blocks, block_evals) if b.kernel_dim < b.size]
    tau = np.pi / max(tops) if tops else 1.0
    return tuple(np.where(np.arange(b.size) < b.kernel_dim, 0.0, tau * e)
                 for b, e in zip(blocks, block_evals))


def phase_zero_probability(phi, t: int):
    """Probability that t-bit phase estimation of eigenphase phi reads all zeros."""
    if t < 1:
        raise ValueError("need t >= 1")
    phi_arr = np.asarray(phi, dtype=float)
    big = float(2**t)
    half = phi_arr / 2.0
    sin_half = np.sin(half)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(sin_half == 0.0, 1.0, np.sin(big * half) / (big * sin_half))
    out = ratio**2
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# the reduced mixed state


@dataclass(eq=False)
class DensityOperator:
    """Mixed state on (phase x slot x flag), stored analytically as a uniform
    mixture of one phase-estimated pure state per slot."""

    phase_dim: int
    slot_dim: int
    vectors: np.ndarray  # (slot_dim, phase_dim*slot_dim*2); row s = U_PE |0>|s> x |flag(s)>

    @property
    def dim(self) -> int:
        return self.phase_dim * self.slot_dim * 2

    def matrix(self) -> np.ndarray:
        return (self.vectors.T @ self.vectors.conj()) / self.slot_dim

    def expectation(self, observable: np.ndarray) -> float:
        """Tr(observable . rho), evaluated on the mixture."""
        v = self.vectors
        vals = np.einsum("sd,de,se->s", v.conj(), np.asarray(observable, dtype=complex), v)
        total = vals.sum() / self.slot_dim
        if abs(total.imag) > 1e-10:
            raise ValueError(f"expectation has imaginary part {total.imag:.3g}")
        return float(total.real)


def reduced_density(op: HodgeOperator, cfg: PEConfig) -> DensityOperator:
    """The mixed state left on (phase, slot, flag) after discarding the copy
    register, as its C pure states: row s is sum_j r[:, j] x v_j v_j[s] x |flag>
    over the eigenpairs (lambda_j, v_j) of the slot's block, flag 1 on the
    complex's block and 0 on any other, and |0>|s>|0> for a slot in no block (a
    kernel state).  The phase amplitudes r[:, j] are the kernel indicator and
    its complement in ideal mode, and QFT^dagger e^{i m phi_j} / sqrt(P) for a
    t-bit register, P = 2^cfg.resolve (the Hadamard layer maps |0> to the
    uniform state).  Each block runs `eigh` once, and the phases read its
    eigenvalues with the block's rank kernel count."""
    pairs = [np.linalg.eigh(b.matrix) for b in op.blocks]
    big, c_total = 2 ** cfg.resolve(op), op.dim
    m = np.arange(big)
    if cfg.mode == "ideal":
        amplitudes = (np.stack([w, 1.0 - w]) for w in zero_phase_weights(op, cfg))
    else:
        qft_dag = np.exp(-2j * np.pi * np.outer(m, m) / big) / sqrt(big)
        amplitudes = (qft_dag @ np.exp(1j * np.outer(m, phases)) / sqrt(big)
                      for phases in _eigenphases(op.blocks, [evals for evals, _ in pairs]))
    states = np.zeros((c_total, big, c_total, 2), dtype=complex)
    free = np.ones(c_total, dtype=bool)  # slots in no block
    for i, (block, (_, evecs), r) in enumerate(zip(op.blocks, pairs, amplitudes)):
        idx = np.array(block.slots, dtype=np.intp)
        if not free[idx].all():
            raise AssertionError("complement-complex simplices collide with the complex")
        free[idx] = False
        # [a, c, s] = sum_j r[a, j] v_j[c] v_j[s], written at [s, a, c, flag]
        states[idx[:, None, None], m[:, None], idx, int(i == 0)] = (
            (r[:, None, :] * evecs) @ evecs.T).transpose(2, 0, 1)
    states[free, 0, free, 0] = 1.0
    return DensityOperator(big, c_total, vectors=states.reshape(c_total, -1))


# ---------------------------------------------------------------------------
# zero-phase statistics


def zero_phase_weights(op: HodgeOperator, cfg: PEConfig) -> tuple[np.ndarray, ...]:
    """Per block, the all-zeros phase outcome's probability on each eigenvector:
    in ideal mode the indicator of its first `kernel_dim`, which reads no
    eigenvalue, otherwise the t-bit readout of `cfg.resolve(op)` bits.  The
    eigenvectors are orthonormal, so these sum to the outcome over the block's
    slots.  A slot in no block reads it surely."""
    if cfg.mode == "ideal":
        return tuple((np.arange(b.size) < b.kernel_dim).astype(float) for b in op.blocks)
    t = cfg.resolve(op)
    phases = _eigenphases(op.blocks, [b.evals for b in op.blocks])
    return tuple(phase_zero_probability(p, t) for p in phases)


# ---------------------------------------------------------------------------
# block encodings


class BlockEncodingError(RuntimeError):
    """A block-encoding construction failed its verification contract."""


def _row_norms(v: np.ndarray) -> np.ndarray:
    """The 2-norm of each row of a complex (rows, d) array, or of one vector, as
    `np.linalg.norm` takes it from one row: the real and imaginary parts' BLAS dots,
    summed, then sqrt."""
    re, im = v.real, v.imag
    if v.ndim == 1:
        return np.sqrt(re @ re + im @ im)
    return np.sqrt((re[:, None, :] @ re[:, :, None])[:, 0, 0] + (im[:, None, :] @ im[:, :, None])[:, 0, 0])


def _reflections(targets) -> tuple[np.ndarray, np.ndarray]:
    """(phases, vecs) with phi_i (I - 2 w_i w_i^dagger) e_0 row i of the given
    (rows, d) array of unit vectors, normalized by `_row_norms` after its check."""
    v = np.asarray(targets, dtype=complex)
    norms = _row_norms(v)
    if not np.abs(norms - 1.0).max() <= 1e-10:  # NaN or inf fails too
        raise ValueError(f"target norm {norms[~(np.abs(norms - 1.0) <= 1e-10)][0]} is not 1")
    phases, vecs = _householder(v / norms[:, None])
    return phases[:, 0], vecs


def _householder(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(phases, vecs) with phi (I - 2 w w^dagger) e_0 = v for each unit row of v, or for
    the one unit vector v, a phase keeping its axis of length 1: a Householder
    reflection times a phase (w = 0 when it is phi I).  Each row gets the operations
    one vector alone would: the norms are `_row_norms` and |v_0| is `hypot`, as scalar
    `abs` takes it (the complex `np.abs` kernel can differ from it in the last bit)."""
    v0 = v[..., :1]
    mod = np.hypot(v0.real, v0.imag)
    phases = np.divide(v0, mod, out=np.ones_like(v0), where=mod > 1e-14)
    w = v / phases
    w[..., 0] -= 1.0
    wn = _row_norms(w)[..., None]
    return phases, np.divide(w, wn, out=np.zeros_like(w), where=wn >= 1e-14)


def _first_columns(phases: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Row i: column 0 of phi_i (I - 2 w_i w_i^dagger), phi_i (e_0 - 2 w_i conj(w_i[0]))."""
    e0 = np.eye(1, vecs.shape[1], dtype=complex)[0]
    return phases[:, None] * (e0 - 2.0 * (vecs * vecs[:, :1].conj()))


def _reflection_deviations(phases: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """max|R^dagger R - I| per reflection R = phi (I - 2 w w^dagger), in O(d):
    R^dagger R - I = (|phi|^2 - 1) I + c w w^dagger, c = 4 |phi|^2 (|w|^2 - 1),
    peaks on the diagonal or at the two largest |w_i|."""
    mod = np.abs(vecs)
    phi2 = np.abs(phases) ** 2
    c = 4.0 * phi2 * ((mod * mod).sum(axis=1) - 1.0)
    dev = np.abs((phi2 - 1.0)[:, None] + c[:, None] * mod * mod).max(axis=1)
    if vecs.shape[1] > 1:
        dev = np.maximum(dev, np.abs(c) * np.partition(mod, -2, axis=1)[:, -2:].prod(axis=1))
    return dev


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The Kronecker product of two vectors or two matrices, as one broadcast
    product and a reshape."""
    if a.ndim == 1:
        return (a[:, None] * b).reshape(-1)
    return (a[:, None, :, None] * b[:, None]).reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def _gram_stats(u: np.ndarray) -> tuple:
    """(full, off, diag) of the Gram matrix G = U^dagger U of a dense unitary: the
    largest modulus of G, its largest modulus off the diagonal, and its diagonal."""
    g = (u.conj().T if np.iscomplexobj(u) else u.T) @ u
    mod = np.abs(g)
    full = mod.max()
    np.fill_diagonal(mod, 0.0)
    return full, mod.max(), np.diag(g).copy()  # a copy: a kept diagonal holds no Gram matrix


def _product_deviation(stats) -> float:
    """max|U^dagger U - I| for U the kron of unitaries with the given `_gram_stats`:
    off the diagonal it peaks at max_i off_i prod_{j != i} full_j; the diagonal is
    their diagonals' kron."""
    full = [f for f, _, _ in stats]
    worst = [o * prod(full[:i] + full[i + 1:]) for i, (_, o, _) in enumerate(stats)]
    diag = reduce(_kron, [d for _, _, d in stats])
    return float(np.max([*worst, np.abs(diag - 1.0).max()]))


@dataclass(eq=False)
class BlockEncoding:
    """Unitary whose all-zeros-ancilla block equals `target` (subnormalization 1),
    held as the factors of its circuit and never multiplied out.  A one-ancilla
    construction is its own one factor (`dense`).  A tensor product holds its
    factors' matrices and system dimensions; regrouping its ancillas in front
    permutes rows and columns alike, so its block and Gram matrix are the
    krons of theirs.  The Gram statistics of its first factors may be handed in
    (`_given_grams`) by the owner of those read-only matrices, which takes them
    once; every other factor's are computed at each check.  The mixture holds its
    reflections R = phi (I - 2 w w^dagger): the mixture-index rotation's (phase,
    vector), then the state preparations' (phases, vectors), one row each.
    """

    ancilla_dim: int
    system_dim: int
    target: np.ndarray
    dense: np.ndarray | None = None
    factors: tuple[np.ndarray, ...] = ()
    factor_system_dims: tuple[int, ...] = ()
    reflections: tuple[np.ndarray, ...] = ()
    description: str = ""
    _given_grams: tuple = field(default=(), init=False, repr=False)

    def __post_init__(self):
        if self.dense is not None:
            self.factors, self.factor_system_dims = (self.dense,), (self.system_dim,)

    @property
    def dim(self) -> int:
        return self.ancilla_dim * self.system_dim

    def encoded_block(self) -> np.ndarray:
        """(<0|_anc x I) U (|0>_anc x I), computed through the construction.  For
        the mixture U = V^dagger W^dagger S W V (V and W on the ancilla only), the
        input side is r = W V |0>_anc, an (m, d) array; the swap S and the
        zero-ancilla output read it back: block[s, c] = sum_i r[i, s] conj(r[i, c])."""
        if self.reflections:
            v_phase, v_vec, w_phases, w_vecs = self.reflections
            r = _first_columns(v_phase, v_vec)[0][:, None] * _first_columns(w_phases, w_vecs)
            return r.T @ r.conj()
        return reduce(_kron, [u[:d, :d] for u, d in zip(self.factors, self.factor_system_dims)])

    def unitarity_deviation(self) -> float:
        """max|U^dagger U - I|, NaN if any factor has a NaN; for the mixture,
        the worst over its reflections - the swap is an exact permutation."""
        if self.reflections:
            pairs = (self.reflections[:2], self.reflections[2:])
            return float(np.max([_reflection_deviations(*pair).max() for pair in pairs]))
        rest = self.factors[len(self._given_grams):]
        return _product_deviation([*self._given_grams, *map(_gram_stats, rest)])

    def block_deviation(self) -> float:
        return float(np.abs(self.encoded_block() - self.target).max())

    def verify(self, unitarity_tol: float = 1e-10, block_tol: float = 1e-9) -> dict:
        u_dev, b_dev = self.unitarity_deviation(), self.block_deviation()
        if not (u_dev <= unitarity_tol and b_dev <= block_tol):
            raise BlockEncodingError(
                f"verification failed for {self.description or 'block encoding'}: "
                f"unitarity {u_dev:.3e} (tol {unitarity_tol:.1e}), "
                f"block {b_dev:.3e} (tol {block_tol:.1e})"
            )
        return {"unitarity_deviation": u_dev, "block_deviation": b_dev,
                "ancilla_dim": self.ancilla_dim, "system_dim": self.system_dim, "ok": True}


def block_encode_state_mixture(states: np.ndarray, description: str = "") -> BlockEncoding:
    """Block-encode the uniform mixture of the given pure states (rows) by the
    purification route: prepare sum_s |s>|psi_s>/sqrt(m) with a mixture-index
    rotation and per-index state preparations, each one reflection, swap the
    system against a fresh register and undo the preparation."""
    states = np.asarray(states, dtype=complex)
    m, d = states.shape
    index = np.full(m, 1.0 / sqrt(m), dtype=complex)  # the mixture-index rotation's vector
    phase, vec = _householder(index / _row_norms(index))
    return BlockEncoding(m * d, d, (states.T @ states.conj()) / m,
                         reflections=(phase, vec[None], *_reflections(states)),
                         description=description or f"density encoding ({m} states, dim {d})")


def block_encode_density(rho: DensityOperator) -> BlockEncoding:
    """Exact block encoding of the pipeline's mixed state from its purification."""
    return block_encode_state_mixture(
        rho.vectors, description=f"pipeline density (P={rho.phase_dim}, C={rho.slot_dim})")


def block_encode_projector(phase_dim: int, slot_dim: int) -> BlockEncoding:
    """Exact encoding of Pi = |0><0|_phase x I_slot with one ancilla qubit: the
    real permutation [[Pi, I - Pi], [I - Pi, Pi]], one 1 per row.  The target is
    Pi built again from the sizes, so the block check compares two arrays."""
    phase_dim, slot_dim = _integer(phase_dim, "phase_dim"), _integer(slot_dim, "slot_dim")
    if phase_dim < 1 or slot_dim < 1:
        raise ValueError("dimensions must be >= 1")
    d = phase_dim * slot_dim
    rows = np.arange(2 * d)
    dense = np.zeros((2 * d, 2 * d))
    dense[rows, np.where(rows % d < slot_dim, rows, (rows + d) % (2 * d))] = 1.0
    return BlockEncoding(2, d, np.diag((rows[:d] < slot_dim).astype(float)), dense=dense,
                         description=f"zero-phase projector ({phase_dim}x{slot_dim})")


def _check_contraction(m: np.ndarray, what: str, vectors: bool = False) -> tuple:
    """Reject a matrix that is not a finite Hermitian contraction: entries
    finite, Hermitian to 1e-12, operator norm at most 1 + 1e-12.  Returns the one
    decomposition the norm check reads: (`eigvalsh`,), or with `vectors` the `eigh`
    (eigenvalues, eigenvectors) a dilation is built from."""
    if not np.isfinite(m).all():
        raise ValueError(f"{what} has non-finite entries {m[~np.isfinite(m)].tolist()}")
    # each check is written so that NaN fails it
    if not np.abs(m - m.conj().T).max() <= 1e-12:
        raise ValueError(f"{what} must be Hermitian")
    eig = np.linalg.eigh(m) if vectors else (np.linalg.eigvalsh(m),)
    if not np.abs(eig[0]).max() <= 1.0 + 1e-12:
        raise ValueError(f"{what} must have operator norm <= 1")
    return eig


def block_encode_hermitian(mat: np.ndarray) -> BlockEncoding:
    """Exact one-ancilla encoding of a Hermitian contraction via its dilation, built
    from the decomposition `_check_contraction` takes; that check rejects any other
    matrix, NaN and inf included, so the dilation passes `verify()`."""
    m = np.asarray(mat, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    evals, evecs = _check_contraction(m, "matrix", vectors=True)
    comp = evecs @ np.diag(np.sqrt(np.clip(1.0 - evals**2, 0.0, None))) @ evecs.conj().T
    d = m.shape[0]
    dense = np.empty((2 * d, 2 * d), dtype=complex)
    dense[:d, :d], dense[:d, d:], dense[d:, :d], dense[d:, d:] = m, comp, comp, -m
    return BlockEncoding(2, d, m, dense=dense, description=f"hermitian dilation (dim {d})")


def tensor_block_encoding(encodings) -> BlockEncoding:
    """Block encoding of a x b for the two dense encodings [a, b], the observable
    encodings' projector and dilation: the unitaries tensored with both ancilla
    registers permuted in front, held as the two factors."""
    encodings = list(encodings)
    if len(encodings) != 2:
        raise ValueError(f"need two encodings, got {len(encodings)}")
    a, b = encodings
    for e in (a, b):
        if e.dense is None:
            raise BlockEncodingError(f"tensor input {e.description or '?'} is not held densely")
    total = a.dim * b.dim
    if total > DENSE_DIM_CAP:
        raise BlockEncodingError(f"tensor construction of dimension {total} exceeds the dense cap")
    return BlockEncoding(a.ancilla_dim * b.ancilla_dim, a.system_dim * b.system_dim,
                         _kron(a.target, b.target), factors=(a.dense, b.dense),
                         factor_system_dims=(a.system_dim, b.system_dim),
                         description=f"tensor of {a.description or '?'}, {b.description or '?'}")


# ---------------------------------------------------------------------------
# trace estimation by seeded sampling


def _check_accuracy(value: float, name: str) -> None:
    """Reject an accuracy (or other scale) parameter that is not a positive finite
    number (NaN, None and non-numbers too), naming it."""
    try:
        ok = value > 0 and isfinite(value)
    except TypeError:
        ok = False
    if not ok:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _check_confidence(confidence: float) -> None:
    """Reject a confidence outside (0, 1) (NaN, None and non-numbers too)."""
    try:
        ok = 0 < confidence < 1
    except TypeError:
        ok = False
    if not ok:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")


def hoeffding_sample_count(delta: float, confidence: float) -> int:
    """Samples guaranteeing |mean - truth| <= delta with the given confidence
    for the +/-1 Hadamard statistic, whose outcomes span _OUTCOME_RANGE."""
    _check_accuracy(delta, "delta")
    _check_confidence(confidence)
    try:
        count = _OUTCOME_RANGE**2 * log(2.0 / (1.0 - confidence)) / (2.0 * delta**2)
    except ZeroDivisionError:  # delta**2 underflows to 0
        count = inf
    except OverflowError:  # delta**2 overflows: one sample meets so loose an accuracy
        count = 1.0
    if not count <= _MAX_SAMPLES:  # inf and NaN fail too
        raise ValueError(f"delta {delta:.3g} needs {count:.3g} samples per measurement, more than "
                         f"the {_MAX_SAMPLES} one binomial draw takes")
    return ceil(count)


def as_seed_sequence(seed) -> np.random.SeedSequence:
    """The seed as a SeedSequence; a seed of the wrong type is a ValueError that
    names it (a negative integer keeps numpy's own ValueError)."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    try:
        return np.random.SeedSequence(seed)
    except TypeError as exc:
        raise ValueError(f"seed must be None, a non-negative integer or a sequence of them, "
                         f"got {seed!r}") from exc


def seed_descriptor(seed) -> dict:
    ss = as_seed_sequence(seed)
    return {"entropy": ss.entropy, "spawn_key": list(ss.spawn_key)}


@dataclass(frozen=True)
class TraceEstimate:
    """Additive-error estimate of Tr(A rho) from a seeded count of +1 outcomes."""

    value: float
    additive_err: float
    confidence: float
    samples_used: int
    seed: dict

    def __post_init__(self):
        floor = hoeffding_sample_count(self.additive_err, self.confidence)
        if self.samples_used < floor:
            raise ValueError(f"samples_used {self.samples_used} below the Hoeffding floor {floor}")


def trace_estimate(truth: float, delta: float, confidence: float = 0.95,
                   seed=None) -> TraceEstimate:
    """Estimate a trace Tr(A rho) whose exact value is `truth` to +/- delta at
    the given confidence.

    Draws the exact Hadamard-test statistic: the number of successes among N
    outcomes with success probability (1 + truth)/2, as one Binomial(N, p)
    draw in O(1) memory, N sized so the +/-1-valued average meets the
    additive-error contract.  Deterministic per seed (counter-based Philox)."""
    try:
        inside = abs(truth) <= 1.0 + 1e-9  # NaN fails too
    except TypeError:
        raise ValueError(f"trace must be a number, got {truth!r}") from None
    if not inside:
        raise ValueError(f"trace {truth:.6g} lies outside [-1, 1]: observable norm exceeds 1")
    p_success = min(max((1.0 + truth) / 2.0, 0.0), 1.0)
    n_samples = hoeffding_sample_count(delta, confidence)
    ss = as_seed_sequence(seed)
    rng = np.random.Generator(np.random.Philox(ss))
    hits = int(rng.binomial(n_samples, p_success))
    value = 2.0 * hits / n_samples - 1.0
    return TraceEstimate(value=value, additive_err=delta, confidence=confidence,
                         samples_used=n_samples, seed=seed_descriptor(ss))


def grover_prep_cost(n: int, k: int, s_k: int) -> float:
    """Oracle-call count n*k*sqrt(C/|S_k|) for amplitude-amplified state
    preparation; a comparison unit, no circuit is built."""
    if s_k < 1:
        raise ValueError("need at least one k-simplex")
    return n * k * sqrt(comb(n, k + 1) / s_k)
