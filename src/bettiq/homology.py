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
    "integer_rank",
    "hodge_laplacian",
    "betti_exact",
    "spectral_summary",
    "euler_check",
    "DEFAULT_ZERO_TOL",
]

# Relative kernel threshold, the witness spectral_summary checks the rank's
# kernel counts against.  Integer Laplacians at desk scale have smallest
# nonzero eigenvalues well above any accumulated floating error.
DEFAULT_ZERO_TOL = 1e-8


def _coboundary(word: int, masks) -> dict[int, int]:
    """{coface: sign} of a simplex word sigma from the adjacency masks: sigma+v for
    each common neighbour v of its vertices, signed (-1)^(sigma's vertices below v)."""
    common, rest = -1, word
    while rest:
        low = rest & -rest
        common &= masks[low.bit_length() - 1]
        rest ^= low
    cofaces = {}
    while common:
        low = common & -common
        common ^= low
        cofaces[word | low] = -1 if (word & (low - 1)).bit_count() & 1 else 1
    return cofaces


def _reduce(columns) -> dict:
    """Column reduction over Q of sparse integer columns ({row: nonzero int}),
    returning {pivot row: reduced column}, one per unit of rank.  A column is
    reduced on its largest row, against the earlier column p whose largest row
    it is, by c <- (a/g) c - (b/g) p (a = p[row], b = c[row], g = gcd(a, b)) and
    divided by the gcd of its entries, until it is zero or that row is new."""
    pivots: dict = {}
    for col in columns:
        while col:
            low = max(col)
            piv = pivots.get(low)
            if piv is None:
                pivots[low] = col
                break
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
    return pivots


def integer_rank(matrix) -> int:
    """Exact rank over the rationals of a 2-d matrix of integer-valued entries
    (Python ints of any size or a numpy integer array), by sparse column
    reduction; a non-integral entry raises ValueError."""
    a = np.asarray(matrix, dtype=object)  # ints beyond int64 are not cast to float
    if a.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    if any(x % 1 for x in a.flat):
        raise ValueError("matrix has a non-integral entry")
    return len(_reduce({i: int(x) for i, x in enumerate(col) if x} for col in a.T))


def _boundary_ranks(complex_: CliqueComplex, top: int) -> list[int]:
    """[rank d_0, ..., rank d_top, 0] over Q (d_{top+1} taken as zero), reducing the
    coboundaries delta_j = d_{j+1}^T from the vertices up, j < top, so no level
    from top up is read.  Level 0 keeps the maximum-word spanning forest (Kruskal,
    largest edge first, the edges read from the adjacency masks): each of its
    edges is the largest leaving the component it joins, so leads that cut's
    coboundary.  Level j >= 1 reduces, in ascending order, only the j-simplices tau
    leading no reduced coboundary delta x of level j-1 (delta delta x = 0 puts
    delta tau in the span of earlier columns: clearing), so only beta_j columns
    reduce to zero."""
    if top < 1:
        return [0, 0]
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
        pivots = set(_reduce(_coboundary(w, masks) for w in complex_.words(j) if w not in pivots))
        ranks.append(len(pivots))
    return ranks + [0]


class HodgeOperator:
    """Symmetric PSD operator on the binom(n, k+1) slots at dimension k, held
    as its diagonal blocks: blocks[i] acts on the slots block_slots[i] and has
    kernel_dims[i] zero eigenvalues, the first that many of eig()[i].  The
    complex's block comes first, then (dual, k >= 1) the complement complex's;
    a slot in no block is a zero row.

    The complement complex (`complement`, built to level k) comes with the
    operator, but its slots, block and kernel count are each made only on the
    first read of `block_slots`, `blocks` or `kernel_dims`: ideal phase
    estimation needs only its simplex count and kernel count."""

    def __init__(self, k: int, n: int, convention: str, blocks, block_slots, kernel_dims,
                 complement: CliqueComplex | None = None):
        self.k, self.n, self.convention = k, n, convention
        self.complement = complement
        self._block_slots: tuple[tuple[int, ...], ...] = tuple(block_slots)
        self._blocks = tuple(blocks)
        self._kernel_dims: tuple[int, ...] = tuple(kernel_dims)
        self._eig: tuple | None = None
        self._restricted: HodgeOperator | None = None

    @property
    def dim(self) -> int:
        return comb(self.n, self.k + 1)

    @property
    def block_slots(self) -> tuple[tuple[int, ...], ...]:
        """Each block's slot indices, the complement complex's ranked on the first read."""
        if self.complement is not None and len(self._block_slots) == 1:
            comp_slots = tuple(slot_rank(w) for w in self.complement.words(self.k))
            if set(comp_slots) & set(self._block_slots[0]):
                raise AssertionError("complement-complex simplices collide with the complex")
            self._block_slots += (comp_slots,)
        return self._block_slots

    @property
    def blocks(self) -> tuple[np.ndarray, ...]:
        """Each block's matrix, the complement complex's assembled on the first read."""
        if len(self._blocks) < len(self.block_slots):
            self._blocks += (_laplacian_block(self.complement, self.k),)
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
        shares the block and never assembles or ranks the complement's."""
        if self.complement is None and len(self._block_slots) == 1:
            return self
        if self._restricted is None:
            self._restricted = HodgeOperator(self.k, self.n, "restricted", self._blocks[:1],
                                             self._block_slots[:1], self._kernel_dims[:1])
        return self._restricted


def _laplacian_block(complex_: CliqueComplex, k: int) -> np.ndarray:
    """d_k^T d_k + d_{k+1} d_{k+1}^T from the words: a diagonal entry is k+1 (0 at
    k = 0) plus the simplex's coface count; sigma = f+u and tau = f+v sharing
    the face f (the empty face, sign +1, at k = 0) meet with s(sigma, f)
    s(tau, f) ([k >= 1] - [u ~ v]), down through f and up through f+u+v.  Each
    entry is emitted as the later simplex joins the face's star."""
    words = complex_.words(k)
    masks = complex_.masks
    down = int(k >= 1)
    block = np.zeros((len(words), len(words)))
    stars: dict[int, list] = {}  # face f -> [(simplex index, s(sigma, f), vertex u)]
    diagonal, rows, cols, vals = [], [], [], []
    for i, word in enumerate(words):
        common = -1  # vertices adjacent to every vertex of the simplex
        sign, rest = 1, word
        while rest:  # the faces, dropping the vertex u = each set bit in turn
            low = rest & -rest
            rest ^= low
            u = low.bit_length() - 1
            common &= masks[u]
            star = stars.setdefault(word ^ low, [])
            for j, sj, v in star:
                if x := sign * sj * (down - (masks[u] >> v & 1)):
                    rows.append(j)
                    cols.append(i)
                    vals.append(x)
            star.append((i, sign, u))
            sign = -sign
        diagonal.append((k + 1) * down + common.bit_count())
    block.flat[::len(words) + 1] = diagonal
    rows, cols = np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp)
    block[rows, cols] = block[cols, rows] = vals
    return block


def hodge_laplacian(complex_: CliqueComplex, k: int, convention: str = "restricted") -> HodgeOperator:
    """d_k^T d_k + d_{k+1} d_{k+1}^T on the slot space, as its blocks with their
    kernel counts by integer rank: the complex's own and, under `dual` at k >= 1,
    the complement complex's (built here, its slots, block and rank on first read)."""
    if convention not in ("restricted", "dual"):
        raise ValueError(f"unknown convention {convention!r}")
    slots = (tuple(slot_rank(w) for w in complex_.words(k)),)
    comp = None
    if convention == "dual" and k >= 1:
        comp = complement_complex(complex_.graph, k)
    return HodgeOperator(k, complex_.n, convention, (_laplacian_block(complex_, k),), slots,
                         (betti_exact(complex_, k),), comp)


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
    uncovered = op.dim - sum(e.size for e in block_evals)
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


def euler_check(complex_: CliqueComplex) -> tuple[bool, dict]:
    """Verify the alternating simplex-count sum equals the alternating Betti sum.

    Betti numbers here are those of the stored skeleton: the boundary above
    max_dim is treated as zero.
    """
    counts = complex_.counts
    ranks = _boundary_ranks(complex_, complex_.max_dim)
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
