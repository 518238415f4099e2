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
from math import comb, gcd

import numpy as np

from .complexes import CliqueComplex, complement_complex, slot_rank

__all__ = [
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


def _reduce(columns, build) -> set:
    """Column reduction over Q of sparse integer columns ({row: nonzero int}),
    returning the pivot rows, one per unit of rank.  `columns` yields each nonzero
    column's largest row and a key, build(key) the column itself.  A column whose
    largest row is new takes it unbuilt (an emergent pair), and is built only if
    a later column reduces against it.  Any other column is built and reduced on
    its largest row, against the earlier column p whose largest row it is, by
    c <- (a/g) c - (b/g) p (a = p[row], b = c[row], g = gcd(a, b)) and divided
    by the gcd of its entries, until it is zero or that row is new."""
    pivots: dict = {}  # pivot row -> its column, or an emergent column's key
    unbuilt = set()  # the pivot rows of emergent columns not yet built
    for low, key in columns:
        if low not in pivots:
            pivots[low] = key
            unbuilt.add(low)
            continue
        col = build(key)
        while col:
            piv = pivots.get(low)
            if piv is None:
                pivots[low] = col
                break
            if low in unbuilt:
                unbuilt.remove(low)
                piv = pivots[low] = build(piv)
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
            g = gcd(*col.values())
            if g > 1:
                col = {r: v // g for r, v in col.items()}
            low = max(col, default=None)
    return set(pivots)


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
        columns = zip(complex_.words(j), complex_.common_masks[j])
        pivots = _reduce(((w | 1 << m.bit_length() - 1, (w, m)) for w, m in columns
                          if m and w not in pivots), lambda key: _coboundary(*key))
        ranks.append(len(pivots))
    return ranks


class HodgeOperator:
    """Symmetric PSD operator on the binom(n, k+1) slots at dimension k, held
    as its diagonal blocks, one per complex: the complex's first, then (dual,
    k >= 1) the complement complex's, built to level k.  blocks[i] has
    block_sizes[i] rows, its complex's k-simplex count, and kernel_dims[i] zero
    eigenvalues, the first that many of eig()[i]; it acts on the slots
    block_slots[i].  A slot in no block is a zero row.

    The sizes are read from the complexes once, here; the slots are ranked
    from their words only on the first read of `block_slots`, which only placing
    the states makes.  Each block is assembled, and the complement's kernel
    counted, only on the first read of `blocks` or `kernel_dims`, so ideal phase
    estimation, which reads only sizes and kernel counts, assembles no block."""

    def __init__(self, k: int, convention: str, blocks, kernel_dims, complex_: CliqueComplex,
                 complement: CliqueComplex | None = None):
        self.k, self.n, self.convention = k, complex_.n, convention
        self.complex, self.complement = complex_, complement
        self._sources = (complex_,) if complement is None else (complex_, complement)
        self.dim = comb(self.n, k + 1)
        self.block_sizes = tuple(c.simplex_count(k) for c in self._sources)  # no slot is ranked
        self._block_slots = None
        self._blocks = tuple(blocks)
        self._kernel_dims: tuple[int, ...] = tuple(kernel_dims)
        self._eig: tuple | None = None
        self._restricted: HodgeOperator | None = None

    @property
    def block_slots(self) -> tuple[tuple[int, ...], ...]:
        """Each block's slot indices, ranked from its complex's words on the first read."""
        if self._block_slots is None:
            self._block_slots = tuple(tuple(map(slot_rank, c.words(self.k))) for c in self._sources)
            if len(self._block_slots) > 1 and set(self._block_slots[0]) & set(self._block_slots[1]):
                raise AssertionError("complement-complex simplices collide with the complex")
        return self._block_slots

    @property
    def blocks(self) -> tuple[np.ndarray, ...]:
        """Each block's matrix, those not yet held assembled on the first read."""
        if len(self._blocks) < len(self._sources):
            self._blocks += tuple(_laplacian_block(c, self.k) for c in self._sources[len(self._blocks):])
        return self._blocks

    @property
    def kernel_dims(self) -> tuple[int, ...]:
        """Each block's kernel count, its complex's beta_k by integer rank (the
        Hodge theorem), the complement complex's ranked on the first read."""
        if self.complement is not None and len(self._kernel_dims) == 1:
            self._kernel_dims += (betti_exact(self.complement, self.k),)
        return self._kernel_dims

    def eig(self) -> tuple[np.ndarray, ...]:
        """Each block's eigenvalues, ascending (cached)."""
        if self._eig is None:
            self._eig = tuple(np.linalg.eigvalsh(block) for block in self.blocks)
        return self._eig

    def restricted(self) -> HodgeOperator:
        """The complex's block alone, the restricted operator at this k: the
        operator itself when that is all it holds, otherwise a cached view that
        shares the block, assembled here once if it is not yet held, and never
        assembles or ranks the complement's."""
        if self.complement is None:
            return self
        if self._restricted is None:
            self._blocks = self._blocks or (_laplacian_block(self.complex, self.k),)
            self._restricted = HodgeOperator(self.k, "restricted", self._blocks[:1],
                                             self._kernel_dims[:1], self.complex)
        return self._restricted


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


def hodge_laplacian(complex_: CliqueComplex, k: int, convention: str = "restricted") -> HodgeOperator:
    """d_k^T d_k + d_{k+1} d_{k+1}^T on the slot space, as its blocks with their
    kernel counts by integer rank: the complex's own and, under `dual` at k >= 1,
    the complement complex's (built here, its rank on first read); each block
    is assembled on its first read."""
    if convention not in ("restricted", "dual"):
        raise ValueError(f"unknown convention {convention!r}")
    comp = None
    if convention == "dual" and k >= 1:
        comp = complement_complex(complex_.graph, k)
    return HodgeOperator(k, convention, (), (betti_exact(complex_, k),), complex_, comp)


def betti_exact(complex_: CliqueComplex, k: int) -> int:
    """k-th Betti number by exact ranks over Q: |S_k| - rank d_k - rank d_{k+1}."""
    count = complex_.simplex_count(k)
    ranks = _boundary_ranks(complex_, k + 1)
    beta = count - ranks[k] - ranks[k + 1]
    assert beta >= 0, "rank computation produced a negative Betti number"
    return beta


@dataclass(frozen=True)
class SpectralSummary:
    """Spectrum digest over all slots (a slot in no block is one zero
    eigenvalue); kappa = lambda_max / lambda_min_nonzero over the nonzero
    spectrum (an interpretation - the source ratio is not pinned to a norm),
    None when the spectrum is all zero.  block_kernel_dims is the operator's
    kernel_dims; threshold_agrees says whether each block counts that many
    eigenvalues below the zero cut `threshold`."""

    kernel_dim: int
    block_kernel_dims: tuple[int, ...]
    threshold: float
    lambda_min_nonzero: float | None
    lambda_max: float
    kappa: float | None
    threshold_agrees: bool


def spectral_summary(op: HodgeOperator) -> SpectralSummary:
    """The spectrum around the rank's kernel split: block i's first
    kernel_dims[i] ascending eigenvalues are its kernel, the next its smallest
    nonzero one.  The count below DEFAULT_ZERO_TOL * max(lambda_max, 1) only
    checks that split; a block where it differs is named in a RuntimeWarning."""
    block_evals, kernel_dims = op.eig(), op.kernel_dims
    uncovered = op.dim - sum(op.block_sizes)
    lam_max = max([float(e[-1]) for e in block_evals if e.size] + ([0.0] if uncovered else []))
    thresh = DEFAULT_ZERO_TOL * max(lam_max, 1.0)
    below = tuple(int(e.searchsorted(thresh)) for e in block_evals)
    for i, (rank_count, count) in enumerate(zip(kernel_dims, below)):
        if rank_count != count:
            warnings.warn(f"block {i}: kernel count {rank_count} by integer rank, {count} "
                          f"eigenvalues below the threshold {thresh:.3g}", RuntimeWarning)
    lam_min = min((float(e[d]) for e, d in zip(block_evals, kernel_dims) if d < e.size),
                  default=None)
    kappa = None if lam_min is None else lam_max / lam_min
    return SpectralSummary(uncovered + sum(kernel_dims), kernel_dims, thresh, lam_min, lam_max,
                           kappa, below == kernel_dims)
