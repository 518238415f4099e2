"""Boundary operators, combinatorial Hodge Laplacians, and exact Betti numbers.

The Laplacian at dimension k acts on the full slot space of binom(n, k+1)
potential simplices, but it is block-diagonal and is held as its blocks.  Two
conventions fill the slots outside the complex:

* ``restricted`` - off-complex slots are zero rows/columns, so every one of
  them is a kernel state;
* ``dual`` - slots holding simplices of the complement graph's clique complex
  carry that complex's own Laplacian block (slots in neither complex stay
  zero).  At k=0 there are no off-complex slots and both conventions agree.

Betti numbers are computed by exact integer rank (fraction-free elimination),
independent of any floating-point spectral path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from .complexes import CliqueComplex, complement_complex, slot_rank, vertices_of_word

__all__ = [
    "HodgeOperator",
    "SpectralSummary",
    "boundary_matrix",
    "integer_rank",
    "hodge_laplacian",
    "betti_exact",
    "spectral_summary",
    "euler_check",
    "DEFAULT_ZERO_TOL",
]

# Relative kernel threshold, applied by spectral_summary.  Integer Laplacians
# at desk scale have smallest nonzero eigenvalues well above any accumulated
# floating error.
DEFAULT_ZERO_TOL = 1e-8

# Bareiss intermediate entries are minors of the input; fall back to Python
# ints before int64 products can overflow.
_BAREISS_INT64_LIMIT = 2_000_000_000


def boundary_matrix(complex_: CliqueComplex, k: int) -> np.ndarray:
    """Signed int64 incidence matrix from the k-simplices (columns, in
    `complex_.words(k)` order) to their faces (rows, in `complex_.words(k-1)`
    order); the face dropping the i-th smallest vertex carries sign (-1)^i.
    k=0 yields the empty-row zero map."""
    if not 0 <= k <= complex_.max_dim:
        raise ValueError(f"k={k} out of range (max_dim={complex_.max_dim})")
    cols = complex_.words(k)
    if k == 0:
        return np.zeros((0, len(cols)), dtype=np.int64)
    rows = complex_.words(k - 1)
    row_index = {w: i for i, w in enumerate(rows)}
    mat = np.zeros((len(rows), len(cols)), dtype=np.int64)
    for j, word in enumerate(cols):
        sign = 1
        for v in vertices_of_word(word):
            face = word & ~(1 << v)
            mat[row_index[face], j] = sign
            sign = -sign
    return mat


def _rank_pyint(rows: list[list[int]]) -> int:
    m = len(rows)
    n = len(rows[0]) if m else 0
    rank = 0
    prev = 1
    for c in range(n):
        pivot_row = next((i for i in range(rank, m) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        piv = rows[rank][c]
        for i in range(rank + 1, m):
            fac = rows[i][c]
            if fac == 0 and prev == 1:
                continue
            ri, rr = rows[i], rows[rank]
            rows[i] = [(piv * ri[j] - fac * rr[j]) // prev for j in range(n)]
        prev = piv
        rank += 1
        if rank == m:
            break
    return rank


def integer_rank(matrix) -> int:
    """Exact rank of an integer matrix over the rationals.

    Fraction-free (Bareiss) elimination on int64, with an automatic pure
    Python big-int fallback if intermediate minors grow too large.
    """
    a = np.array(matrix, dtype=np.int64, copy=True)
    if a.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    m, n = a.shape
    if m == 0 or n == 0:
        return 0
    rank = 0
    prev = np.int64(1)
    for c in range(n):
        col = a[rank:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        pr = rank + int(nz[0])
        if pr != rank:
            a[[rank, pr]] = a[[pr, rank]]
        piv = a[rank, c]
        if rank + 1 < m:
            block = a[rank + 1 :]
            if max(abs(int(piv)), int(np.abs(block).max(initial=0)),
                   int(np.abs(a[rank]).max())) > _BAREISS_INT64_LIMIT:
                return _rank_pyint([[int(x) for x in row] for row in matrix])
            a[rank + 1 :] = (piv * block - np.outer(block[:, c], a[rank])) // prev
        prev = piv
        rank += 1
        if rank == m:
            break
    return rank


@dataclass(eq=False)
class HodgeOperator:
    """Symmetric PSD operator on the binom(n, k+1) slots at dimension k, held
    as its diagonal blocks: blocks[i] acts on the slots block_slots[i].  The
    complex's block comes first, then (dual, k >= 1) the complement complex's;
    a slot in no block is a zero row."""

    k: int
    n: int
    convention: str
    blocks: tuple[np.ndarray, ...]
    block_slots: tuple[tuple[int, ...], ...]
    _eig: tuple | None = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return comb(self.n, self.k + 1)

    def eig(self):
        """Cached eigendecomposition of each block (ascending eigenvalues)."""
        if self._eig is None:
            self._eig = tuple(np.linalg.eigh(block) for block in self.blocks)
        return self._eig


def _needed_dim(n: int, k: int) -> int:
    """Top level that dimension k's Laplacian and Betti number read: k+1, except
    at k = n-1, where level n is empty on every graph and is never built."""
    return min(k + 1, n - 1)


def _check_built(complex_: CliqueComplex, k: int, what: str) -> None:
    need = _needed_dim(complex_.n, k)
    if need > complex_.max_dim:
        raise ValueError(f"{what} needs dimension {need} built (max_dim={complex_.max_dim})")


def _boundary_pair(complex_: CliqueComplex, k: int) -> tuple[np.ndarray, np.ndarray]:
    """d_k and d_{k+1}; at the top dimension k = n-1, d_n is the zero map
    out of the empty level n."""
    low = boundary_matrix(complex_, k)
    if k + 1 == complex_.n:
        return low, np.zeros((low.shape[1], 0), dtype=np.int64)
    return low, boundary_matrix(complex_, k + 1)


def _laplacian_block(complex_: CliqueComplex, k: int) -> np.ndarray:
    # float64 products run through BLAS; every entry is a small integer, so the
    # result equals the integer product exactly
    low, up = (d.astype(float) for d in _boundary_pair(complex_, k))
    return low.T @ low + up @ up.T


def hodge_laplacian(complex_: CliqueComplex, k: int, convention: str = "restricted") -> HodgeOperator:
    """d_k^T d_k + d_{k+1} d_{k+1}^T on the slot space, as its blocks: the
    complex's own and, under `dual` at k >= 1, the complement complex's."""
    if convention not in ("restricted", "dual"):
        raise ValueError(f"unknown convention {convention!r}")
    _check_built(complex_, k, f"the dimension-{k} Laplacian")
    blocks = [_laplacian_block(complex_, k)]
    slots = [tuple(slot_rank(w) for w in complex_.words(k))]
    if convention == "dual" and k >= 1:
        comp = complement_complex(complex_.graph, _needed_dim(complex_.n, k))
        comp_slots = tuple(slot_rank(w) for w in comp.words(k))
        if set(comp_slots) & set(slots[0]):
            raise AssertionError("complement-complex simplices collide with the complex")
        blocks.append(_laplacian_block(comp, k))
        slots.append(comp_slots)
    return HodgeOperator(k=k, n=complex_.n, convention=convention,
                         blocks=tuple(blocks), block_slots=tuple(slots))


def betti_exact(complex_: CliqueComplex, k: int) -> int:
    """k-th Betti number by exact integer ranks: |S_k| - rank d_k - rank d_{k+1}."""
    _check_built(complex_, k, f"betti_exact({k})")
    s_k = complex_.simplex_count(k)
    low, up = _boundary_pair(complex_, k)
    r_low = integer_rank(low)
    r_up = integer_rank(up)
    beta = s_k - r_low - r_up
    assert beta >= 0, "rank computation produced a negative Betti number"
    return beta


@dataclass(frozen=True)
class SpectralSummary:
    """Spectrum digest over all slots (ascending `eigenvalues`, one zero per
    slot in no block); kappa = lambda_max / lambda_min_nonzero over the
    nonzero spectrum (an interpretation - the source ratio is not pinned to a
    norm), None when the spectrum is all zero.  `threshold` is the zero cut
    kernel_dim was counted at; block_kernel_dims[i] is the kernel of block i,
    the first that many of its eigenpairs."""

    eigenvalues: np.ndarray
    kernel_dim: int
    block_kernel_dims: tuple[int, ...]
    threshold: float
    lambda_min_nonzero: float | None
    lambda_max: float
    kappa: float | None


def spectral_summary(op: HodgeOperator) -> SpectralSummary:
    """The pipeline's one kernel decision: eigenvalues below
    DEFAULT_ZERO_TOL * max(lambda_max, 1) count as zero.  eigh sorts each
    block's eigenvalues ascending, so a block's kernel is a prefix of them."""
    block_evals = [evals for evals, _ in op.eig()]
    uncovered = op.dim - sum(e.size for e in block_evals)
    evals = np.sort(np.concatenate([np.zeros(uncovered), *block_evals]))
    lam_max = float(evals[-1])
    thresh = DEFAULT_ZERO_TOL * max(lam_max, 1.0)
    block_kernel_dims = tuple(int((e < thresh).sum()) for e in block_evals)
    kernel_dim = uncovered + sum(block_kernel_dims)
    lam_min = float(evals[kernel_dim]) if kernel_dim < evals.size else None
    kappa = None if lam_min is None else lam_max / lam_min
    return SpectralSummary(evals, kernel_dim, block_kernel_dims, thresh, lam_min, lam_max, kappa)


def euler_check(complex_: CliqueComplex) -> tuple[bool, dict]:
    """Verify the alternating simplex-count sum equals the alternating Betti sum.

    Betti numbers here are those of the stored skeleton: the boundary above
    max_dim is treated as zero.
    """
    counts = complex_.counts
    ranks = [0] * (complex_.max_dim + 2)
    for k in range(1, complex_.max_dim + 1):
        ranks[k] = integer_rank(boundary_matrix(complex_, k))
    bettis = [counts[k] - ranks[k] - ranks[k + 1] for k in range(complex_.max_dim + 1)]
    chi_counts = sum((-1) ** k * c for k, c in enumerate(counts))
    chi_betti = sum((-1) ** k * b for k, b in enumerate(bettis))
    report = {
        "counts": list(counts),
        "bettis": bettis,
        "chi_from_counts": chi_counts,
        "chi_from_bettis": chi_betti,
    }
    return chi_counts == chi_betti, report
