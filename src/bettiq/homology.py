"""Combinatorial Hodge Laplacians, and exact Betti numbers by coboundary reduction.

The Laplacian at dimension k acts on the full slot space of binom(n, k+1)
potential simplices, but it is block-diagonal and is held as its blocks.  Two
conventions fill the slots outside the complex:

* ``restricted`` - off-complex slots are zero rows/columns, so every one of
  them is a kernel state;
* ``dual`` - slots holding simplices of the complement graph's clique complex
  carry that complex's own Laplacian block (slots in neither complex stay
  zero).  At k=0 there are no off-complex slots and both conventions agree.

Betti numbers, and so every block's kernel count, come from exact ranks over the
rationals: one coboundary pass with clearing, from the vertices up.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import comb, gcd, inf

import numpy as np

from .complexes import CliqueComplex, complement_complex, slot_rank

__all__ = [
    "HodgeBlock",
    "HodgeOperator",
    "SpectralSummary",
    "hodge_laplacian",
    "betti_exact",
    "spectral_summary",
    "DEFAULT_ZERO_TOL",
]

# Relative kernel threshold, the witness spectral_summary checks the rank's
# kernel counts against.  Integer Laplacians at desk scale have smallest
# nonzero eigenvalues well above any accumulated floating error.
DEFAULT_ZERO_TOL = 1e-8


def _coboundary(word: int, common: int) -> dict[int, int]:
    """{coface: sign} of a simplex word sigma with common-neighbour mask `common`:
    sigma+v for each set bit v, signed (-1)^(sigma's vertices below v)."""
    cofaces = {}
    while common:
        low = common & -common
        common ^= low
        cofaces[word | low] = -1 if (word & (low - 1)).bit_count() & 1 else 1
    return cofaces


def _reduce_level(words, masks, cleared) -> dict:
    """Column reduction over Q of the coboundaries of one level's simplices
    (`words` ascending, `masks` their common masks), returning {pivot row: its
    column}, one pivot per unit of rank.  A simplex in `cleared` or with no coface
    is skipped.  A column's largest row, its word plus the top bit of its mask, is
    read before the column is built: a column whose largest row is new takes it
    unbuilt (an emergent pair), held as its mask alone (its word is the row less
    the mask's top bit) and built only if a later column reduces against it.  Any
    other column is built and reduced on its largest row, against the earlier
    column p whose largest row it is, by c <- (a/g) c - (b/g) p (a = p[row],
    b = c[row], g = gcd(a, b)) and divided by the gcd of its entries, until it is
    zero or that row is new."""
    pivots: dict = {}  # pivot row -> its column, or an unbuilt column's int mask
    for w, m in zip(words, masks):
        if not m or w in cleared:
            continue
        low = w | 1 << m.bit_length() - 1
        piv = pivots.get(low)
        if piv is None:
            pivots[low] = m
            continue
        col = _coboundary(w, m)
        while True:
            if type(piv) is int:  # an emergent column, built on its first use
                piv = pivots[low] = _coboundary(low ^ 1 << piv.bit_length() - 1, piv)
            a, b = piv[low], col[low]
            g = gcd(a, b) if a > 0 else -gcd(a, b)
            a, b = a // g, b // g
            if a != 1:
                col = {r: a * v for r, v in col.items()}
            for r, v in piv.items():
                x = col.get(r, 0) - b * v
                if x:
                    col[r] = x
                else:
                    del col[r]
            if not col:
                break
            g = gcd(*col.values())
            if g > 1:
                col = {r: v // g for r, v in col.items()}
            low = max(col)
            piv = pivots.get(low)
            if piv is None:
                pivots[low] = col
                break
    return pivots


def _boundary_ranks(complex_: CliqueComplex, top: int) -> list[int]:
    """[rank d_0, ..., rank d_top] over Q, top >= 1, reducing the coboundaries
    delta_j = d_{j+1}^T from the vertices up, j < top, so no level from top up
    is read.  Level 0 keeps the maximum-word spanning forest (Kruskal,
    largest edge first, the edges read from the adjacency masks): each of its
    edges is the largest leaving the component it joins, so leads that cut's
    coboundary.  Level j >= 1 reduces, in ascending order, only the j-simplices tau
    leading no reduced coboundary delta x of level j-1 (delta delta x = 0 puts
    delta tau in the span of earlier columns: clearing), so only beta_j columns
    reduce to zero.  A column's largest row, tau + the top bit of its common
    mask, is read before the column is built."""
    n, masks = complex_.n, complex_.masks
    root, pivots = list(range(n)), set()  # union-find over the vertices
    for v in range(n - 1, 0, -1):  # edge u < v, descending by word: by v, then by u
        lower = masks[v] & ((1 << v) - 1)
        while lower and len(pivots) < n - 1:  # n-1 edges: one tree spans every vertex
            u = lower.bit_length() - 1
            lower ^= 1 << u
            a, b = u, v  # the roots of their components
            while root[a] != a:
                a = root[a]
            while root[b] != b:
                b = root[b]
            if a != b:
                root[a] = b
                pivots.add(1 << u | 1 << v)
    ranks = [0, len(pivots)]
    for j in range(1, top):
        pivots = _reduce_level(complex_.words(j), complex_.common_masks[j], pivots)
        ranks.append(len(pivots))
    return ranks


class _OnFirstRead:
    """A HodgeBlock attribute that `fill` sets on the block at its first read; the
    block's own attribute then shadows this descriptor, so later reads are plain."""

    def __init__(self, fill):
        self.fill = fill

    def __set_name__(self, owner, name: str):
        self.name = name

    def __get__(self, block, owner=None):
        if block is None:
            return self
        self.fill(block)
        return vars(block)[self.name]


class HodgeBlock:
    """One diagonal block of a Hodge operator: the k-simplex Laplacian of one
    complex, size rows (its k-simplex count) with kernel_dim zero eigenvalues,
    the complex's beta_k by integer rank (the Hodge theorem).  Its slot indices,
    matrix and ascending eigenvalues are filled read-only on their first read.
    The eigenvalues come with, as floats, the ends the spectrum digest reads:
    lambda_max, the largest (None for an empty block); lambda_min_nonzero, the
    first above the kernel (None if all is kernel); and kernel_top, the kernel's
    largest (-inf for no kernel, inf if the block has fewer than kernel_dim)."""

    def __init__(self, complex_: CliqueComplex, k: int, kernel_dim: int):
        self.complex, self.k, self.kernel_dim = complex_, k, kernel_dim
        self.size = complex_.simplex_count(k)

    def _fill_slots(self):
        self.slots = tuple(map(slot_rank, self.complex.words(self.k)))

    def _fill_matrix(self):
        self.matrix = matrix = _laplacian_block(self.complex, self.k)
        matrix.setflags(write=False)

    def _fill_spectrum(self):
        self.evals = evals = np.linalg.eigvalsh(self.matrix)
        evals.setflags(write=False)
        values, kd = evals.tolist(), self.kernel_dim
        self.lambda_max = values[-1] if values else None
        self.lambda_min_nonzero = values[kd] if kd < len(values) else None
        self.kernel_top = -inf if kd == 0 else values[kd - 1] if kd <= len(values) else inf

    slots, matrix = _OnFirstRead(_fill_slots), _OnFirstRead(_fill_matrix)
    evals, lambda_max, lambda_min_nonzero, kernel_top = map(_OnFirstRead, [_fill_spectrum] * 4)


class HodgeOperator:
    """Symmetric PSD operator on the binom(n, k+1) slots at dimension k, held
    as its diagonal blocks, one per complex: the complex's first, then (dual,
    k >= 1) the complement complex's, built to level k.  A slot in no block
    is a zero row."""

    def __init__(self, convention: str, blocks: tuple[HodgeBlock, ...]):
        self.convention, self.blocks = convention, tuple(blocks)
        self.complex, self.k = self.blocks[0].complex, self.blocks[0].k
        self.n = self.complex.n
        self.dim = comb(self.n, self.k + 1)

    def eig(self, i: int) -> np.ndarray:
        """Block i's eigenvalues, ascending and read-only, decomposed on the first read."""
        return self.blocks[i].evals


def _laplacian_block(complex_: CliqueComplex, k: int) -> np.ndarray:
    """d_k^T d_k + d_{k+1} d_{k+1}^T from the common-neighbour masks: D - A at
    k = 0.  At k >= 1 a diagonal entry is k+1 plus the simplex's coface count,
    and sigma = f+u and tau = f+v sharing the face f meet with s(sigma, f)
    s(tau, f) (1 - [u ~ v]), down through f and up through f+u+v.  So each
    (k-1)-simplex f visits only the pairs u < v of its common neighbours with
    u !~ v; every other pair cancels."""
    words = complex_.words(k)
    masks = complex_.masks
    if k == 0:
        block = np.where(complex_.graph.adjacency, -1.0, 0.0)
        block.flat[::len(words) + 1] = [m.bit_count() for m in masks]
        return block
    block = np.zeros((len(words), len(words)))
    block.flat[::len(words) + 1] = [k + 1 + m.bit_count() for m in complex_.common_masks[k]]
    index = {word: i for i, word in enumerate(words)}
    rows, cols, vals = [], [], []
    for face, rest in zip(complex_.words(k - 1), complex_.common_masks[k - 1]):
        while rest:  # sigma = f+u for each common neighbour u, ascending
            low = rest & -rest
            rest ^= low
            apart = rest & ~masks[low.bit_length() - 1]  # each v > u with u !~ v
            if not apart:
                continue
            i, su = index[face | low], (face & (low - 1)).bit_count()
            while apart:
                high = apart & -apart
                apart ^= high
                rows.append(i)
                cols.append(index[face | high])
                vals.append(-1 if (su + (face & (high - 1)).bit_count()) & 1 else 1)
    rows, cols = np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp)
    block[rows, cols] = block[cols, rows] = vals
    return block


def _check_convention(convention: str) -> None:
    if convention not in ("restricted", "dual"):
        raise ValueError(f"unknown convention {convention!r}")


def hodge_laplacian(complex_: CliqueComplex, k: int, convention: str = "restricted") -> HodgeOperator:
    """d_k^T d_k + d_{k+1} d_{k+1}^T on the slot space, as its blocks with their
    kernel counts by integer rank: the complex's own and, under `dual` at k >= 1,
    the complement complex's (built and ranked here); each block is assembled
    on its first read."""
    _check_convention(convention)
    blocks = [HodgeBlock(complex_, k, 0)]
    if convention == "dual" and k >= 1:
        blocks.append(HodgeBlock(complement_complex(complex_.graph, k), k, 0))
    for b in blocks:  # each block's size is its |S_k|, counted once
        b.kernel_dim = _betti(b.complex, k, b.size)
    return HodgeOperator(convention, blocks)


def betti_exact(complex_: CliqueComplex, k: int) -> int:
    """k-th Betti number by exact ranks over Q: |S_k| - rank d_k - rank d_{k+1}."""
    return _betti(complex_, k, complex_.simplex_count(k))


def _betti(complex_: CliqueComplex, k: int, count: int) -> int:
    """betti_exact at a level k the complex holds, its |S_k| = count."""
    ranks = _boundary_ranks(complex_, k + 1)
    beta = count - ranks[k] - ranks[k + 1]
    assert beta >= 0, "rank computation produced a negative Betti number"
    return beta


@dataclass(frozen=True)
class SpectralSummary:
    """Spectrum digest over all slots (a slot in no block is one zero
    eigenvalue); kappa = lambda_max / lambda_min_nonzero over the nonzero
    spectrum (an interpretation - the source ratio is not pinned to a norm),
    None when the spectrum is all zero.  threshold_agrees says whether each
    block counts its kernel_dim eigenvalues below the zero cut `threshold`."""

    kernel_dim: int
    threshold: float
    lambda_min_nonzero: float | None
    lambda_max: float
    kappa: float | None
    threshold_agrees: bool


def spectral_summary(op: HodgeOperator) -> SpectralSummary:
    """The spectrum around the rank's kernel split: a block's first kernel_dim
    ascending eigenvalues are its kernel, the next its smallest nonzero one.
    The count below DEFAULT_ZERO_TOL * max(lambda_max, 1) only checks that
    split; a block where it differs is named in a RuntimeWarning."""
    return _summary(op.blocks, op.dim)


def _summary(blocks, dim: int) -> SpectralSummary:
    """spectral_summary over `blocks`, every other of the dim slots a zero row:
    over block 0 alone the restricted operator's digest, which reads no other block.
    It reads each block's spectral ends; a block agrees with the cut when its
    kernel lies below it and its first nonzero eigenvalue does not."""
    covered = kernel_dim = 0
    lam_max = lam_min = None
    for b in blocks:
        covered += b.size
        kernel_dim += b.kernel_dim
        top, low = b.lambda_max, b.lambda_min_nonzero
        if top is not None and (lam_max is None or top > lam_max):
            lam_max = top
        if low is not None and (lam_min is None or low < lam_min):
            lam_min = low
    uncovered = dim - covered
    if uncovered and (lam_max is None or 0.0 > lam_max):  # an uncovered slot's zero eigenvalue
        lam_max = 0.0
    thresh = DEFAULT_ZERO_TOL * max(lam_max, 1.0)
    agrees = True
    for i, b in enumerate(blocks):
        if not (b.kernel_top < thresh and (b.lambda_min_nonzero is None
                                           or thresh <= b.lambda_min_nonzero)):
            agrees = False
            warnings.warn(f"block {i}: kernel count {b.kernel_dim} by integer rank, "
                          f"{int(b.evals.searchsorted(thresh))} eigenvalues below the threshold "
                          f"{thresh:.3g}", RuntimeWarning)
    kappa = None if lam_min is None else lam_max / lam_min
    return SpectralSummary(uncovered + kernel_dim, thresh, lam_min, lam_max, kappa, agrees)
