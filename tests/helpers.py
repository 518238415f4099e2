"""Independent oracles and named instances shared by the test suite.

The oracles here deliberately avoid the library's own code paths: cliques, and
each level's words and common masks in order, are found by exhaustive subset
enumeration, ranks by Gaussian elimination over
exact fractions or by dense fraction-free (Bareiss) elimination, on dense
boundary matrices; Betti numbers also by a sparse column reduction of its own,
`column_pivots`, run on the boundary side from the top level down, where the
library reduces coboundaries from the vertices up; `integer_rank` runs that
reduction on any integer matrix.  The small-size pipeline oracles below
build what the library only ever reads in part: the dense C x C Hodge
operator, the per-slot zero-phase weights, the whole phase-estimation
unitary, the flag-tagged state with its copy register, the explicit density
matrix, dense state-preparation reflections and tensor-product unitaries, and
a block encoding's whole unitary applied to any input.  The slot
enumeration `slot_words`, the flag trace `observable_b` and the bound
`perturbation_bound` are kept here too: no library code reads them.
`summary_oracle` computes the spectrum digest from each block's eigenvalue
array, where the library reads the spectral ends each block records.
"""

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd, sqrt

import numpy as np
from hypothesis import strategies as st

from bettiq import (
    BlockEncoding,
    CliqueComplex,
    HodgeBlock,
    HodgeOperator,
    PEConfig,
    SpectralSummary,
    VertexGraph,
    build_clique_complex,
    inv_norm,
    phase_zero_probability,
    spectral_summary,
)
from bettiq.complexes import slot_rank
from bettiq.extraction import PipelineContext, _check_flag_observable, _flag_sums
from bettiq.homology import DEFAULT_ZERO_TOL


def cycle_graph(n: int) -> VertexGraph:
    return VertexGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> VertexGraph:
    return VertexGraph(n, ~np.eye(n, dtype=bool))


def empty_graph(n: int) -> VertexGraph:
    return VertexGraph(n, np.zeros((n, n), dtype=bool))


def path_graph(n: int) -> VertexGraph:
    return VertexGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def two_disjoint_edges() -> VertexGraph:
    return VertexGraph.from_edges(4, [(0, 1), (2, 3)])


def two_disjoint_cycles(m: int = 4) -> VertexGraph:
    edges = [(i, (i + 1) % m) for i in range(m)]
    edges += [(m + i, m + (i + 1) % m) for i in range(m)]
    return VertexGraph.from_edges(2 * m, edges)


def cocktail_party_graph(m: int) -> VertexGraph:
    """K_{2xm}: every vertex pair adjacent but the m pairs (i, i+m).  Its flag
    complex is the boundary of the m-dimensional cross-polytope, the sphere
    S^{m-1}, so beta_{m-1} = 1."""
    adj = ~np.eye(2 * m, dtype=bool)
    for i in range(m):
        adj[i, i + m] = adj[i + m, i] = False
    return VertexGraph(2 * m, adj)


def octahedron_graph() -> VertexGraph:
    return cocktail_party_graph(3)


def graph_join(g: VertexGraph, h: VertexGraph) -> VertexGraph:
    """G*H, h's vertices after g's, each adjacent to each of g's.  Its flag
    complex is the join of theirs, with reduced homology over Q the sum over
    i + j = r - 1 of H_i(G) x H_j(H) (Milnor 1956): the join of S^a and S^b is
    S^{a+b+1}."""
    adj = np.ones((g.n + h.n, g.n + h.n), dtype=bool)
    adj[:g.n, :g.n], adj[g.n:, g.n:] = g.adjacency, h.adjacency
    return VertexGraph(g.n + h.n, adj)


def disjoint_union(g: VertexGraph, h: VertexGraph) -> VertexGraph:
    """G + H, h's vertices after g's, no edge between them: Betti numbers add."""
    adj = np.zeros((g.n + h.n, g.n + h.n), dtype=bool)
    adj[:g.n, :g.n], adj[g.n:, g.n:] = g.adjacency, h.adjacency
    return VertexGraph(g.n + h.n, adj)


@st.composite
def small_graphs(draw, max_n: int = 8):
    """Graphs on 3 to `max_n` vertices, drawn from booleans only, so the examples
    do not depend on the literals hypothesis harvests from local source files."""
    n = 3 + sum(draw(st.booleans()) for _ in range(max_n - 3))
    pairs = itertools.combinations(range(n), 2)
    return VertexGraph.from_edges(n, [p for p in pairs if draw(st.booleans())])


def random_graph(n: int, p: float, seed: int) -> VertexGraph:
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < p, 1)
    return VertexGraph(n, upper | upper.T)


def census_graph(index: int, n: int = 6) -> VertexGraph:
    """The labeled n-vertex graph whose edge set is the bit pattern `index` over
    the vertex pairs in lexicographic order."""
    pairs = itertools.combinations(range(n), 2)
    return VertexGraph.from_edges(n, [p for bit, p in enumerate(pairs) if index >> bit & 1])


def rp2_subdivision() -> VertexGraph:
    """The comparability graph of the face poset of the 6-vertex real projective
    plane, whose flag complex is its barycentric subdivision: 31 vertices (the
    6 + 15 + 10 faces) and simplex counts (31, 90, 60).  Over Q its Betti
    numbers are (1, 0, 0), over GF(2) (1, 1, 1)."""
    triangles = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
                 (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3)]
    faces = sorted({frozenset(face) for t in triangles for size in (1, 2, 3)
                    for face in itertools.combinations(t, size)}, key=lambda f: (len(f), sorted(f)))
    return VertexGraph.from_edges(len(faces), [
        (i, j) for (i, a), (j, b) in itertools.combinations(enumerate(faces), 2) if a < b or b < a])


def brute_force_cliques(graph: VertexGraph, size: int) -> set[frozenset]:
    """All vertex subsets of the given size whose pairs are all adjacent."""
    adj = graph.adjacency
    found = set()
    for combo in itertools.combinations(range(graph.n), size):
        if all(adj[u, v] for u, v in itertools.combinations(combo, 2)):
            found.add(frozenset(combo))
    return found


def brute_force_levels(graph: VertexGraph, max_dim: int) -> tuple[list, list]:
    """Levels 0..max_dim of the clique complex as ascending word lists and their
    common masks, by subset enumeration: each (k+1)-subset of the vertices whose
    pairs are all adjacent, its mask the AND of its vertices' neighbourhood masks,
    read from the adjacency matrix's rows."""
    adj = graph.adjacency
    nbrs = [sum(1 << int(u) for u in np.flatnonzero(row)) for row in adj]
    words, masks = [], []
    for size in range(1, max_dim + 2):
        level = sorted((sum(1 << v for v in combo), reduce(int.__and__, (nbrs[v] for v in combo)))
                       for combo in itertools.combinations(range(graph.n), size)
                       if all(adj[u, v] for u, v in itertools.combinations(combo, 2)))
        words.append([w for w, _ in level])
        masks.append([m for _, m in level])
    return words, masks


def fraction_rank(matrix) -> int:
    """Rank over the rationals by Gauss-Jordan elimination on Fractions."""
    rows = [[Fraction(int(x)) for x in row] for row in np.asarray(matrix, dtype=object)]
    m = len(rows)
    n = len(rows[0]) if m else 0
    rank = 0
    for c in range(n):
        pivot = next((r for r in range(rank, m) if rows[r][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][c]
        rows[rank] = [x / pv for x in rows[rank]]
        for r in range(m):
            if r != rank and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == m:
            break
    return rank


def bareiss_rank(matrix) -> int:
    """Rank over the rationals by fraction-free (Bareiss) elimination on
    Python ints, whose intermediate entries are minors of the input."""
    rows = [[int(x) for x in row] for row in np.asarray(matrix, dtype=object)]
    m = len(rows)
    n = len(rows[0]) if m else 0
    rank = 0
    prev = 1
    for c in range(n):
        pivot = next((r for r in range(rank, m) if rows[r][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        piv = rows[rank][c]
        for r in range(rank + 1, m):
            f = rows[r][c]
            rows[r] = [(piv * a - f * b) // prev for a, b in zip(rows[r], rows[rank])]
        prev = piv
        rank += 1
        if rank == m:
            break
    return rank


def gf2_rank(matrix) -> int:
    """Rank over GF(2), by elimination on each row's bits: a deliberately
    different field, under which torsion shows up in homology."""
    rows = [sum(1 << i for i, x in enumerate(row) if x % 2) for row in np.asarray(matrix, dtype=object)]
    rank = 0
    while rows:
        pivot = rows.pop()
        if pivot:
            rank += 1
            lead = 1 << (pivot.bit_length() - 1)
            rows = [r ^ pivot if r & lead else r for r in rows]
    return rank


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
    row_index = {w: i for i, w in enumerate(complex_.words(k - 1))}
    mat = np.zeros((len(row_index), len(cols)), dtype=np.int64)
    for j, word in enumerate(cols):
        vertices = [v for v in range(complex_.n) if word >> v & 1]
        for i, v in enumerate(vertices):
            mat[row_index[word ^ (1 << v)], j] = (-1) ** i
    return mat


def laplacian_by_products(complex_, k: int) -> np.ndarray:
    """d_k^T d_k + d_{k+1} d_{k+1}^T from the dense boundary matrices, in float64
    (every entry a small integer, so exact); d_n out of the empty level n is zero."""
    low = boundary_matrix(complex_, k).astype(float)
    up = (boundary_matrix(complex_, k + 1).astype(float) if k + 1 < complex_.n
          else np.zeros((low.shape[1], 0)))
    return low.T @ low + up @ up.T


def betti_by_ranks(complex_, k: int, rank=fraction_rank) -> int:
    """Betti number from the dense boundary matrices under a rank oracle; at the
    top dimension k = n-1, d_n is the zero map out of the empty level n."""
    up = rank(boundary_matrix(complex_, k + 1)) if k + 1 < complex_.n else 0
    return complex_.simplex_count(k) - rank(boundary_matrix(complex_, k)) - up


def _boundary_faces(word: int) -> dict[int, int]:
    """{face: sign} over the faces of a simplex word: the face dropping the
    i-th smallest vertex carries sign (-1)^i."""
    faces = {}
    sign = 1
    rest = word
    while rest:
        low = rest & -rest
        faces[word ^ low] = sign
        sign = -sign
        rest ^= low
    return faces


def column_pivots(columns) -> set:
    """The pivot rows of sparse integer columns ({row: nonzero int}) reduced over
    Q in the given order, one per unit of rank: each column is reduced on its
    largest row against the earlier column whose largest row it is, by
    c <- (a/g) c - (b/g) p (a = p[row], b = c[row], g = gcd(a, b)) and divided by
    the gcd of its entries, until it is zero or its largest row is new.  Every
    column is built; there is no clearing or emergent shortcut, and no code is
    shared with the library's reduction."""
    pivots: dict[int, dict[int, int]] = {}
    for col in columns:
        while col:
            low = max(col)
            piv = pivots.get(low)
            if piv is None:
                pivots[low] = col
                break
            g = gcd(piv[low], col[low])
            a, b = piv[low] // g, col[low] // g
            col = {r: x for r in col.keys() | piv.keys()
                   if (x := a * col.get(r, 0) - b * piv.get(r, 0))}
            g = gcd(*col.values())  # divided by its content, so entries stay small
            if g > 1:
                col = {r: x // g for r, x in col.items()}
    return set(pivots)


def boundary_pivots(complex_: CliqueComplex, k: int, cleared=()) -> set:
    """The pivot rows of d_k by `column_pivots`, its columns the faces of the
    k-simplex words in ascending order; d_0 and d_n are zero maps.  A k-simplex
    in `cleared`, a pivot row of d_{k+1}, is skipped: its column reduces to zero
    (clearing from the top down)."""
    if k == 0 or k == complex_.n:
        return set()
    columns = (_boundary_faces(w) for w in complex_.words(k) if w not in cleared)
    return column_pivots(columns)


def integer_rank(matrix) -> int:
    """Exact rank over the rationals of a 2-d matrix of integer-valued entries
    (Python ints of any size or a numpy integer array), by `column_pivots`; a
    non-integral entry raises ValueError."""
    a = np.asarray(matrix, dtype=object)  # ints beyond int64 are not cast to float
    if a.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    if any(x % 1 for x in a.flat):
        raise ValueError("matrix has a non-integral entry")
    columns = ({i: int(x) for i, x in enumerate(col) if x} for col in a.T)
    return len(column_pivots(columns))


def betti_by_boundary_reduction(complex_: CliqueComplex, k: int) -> int:
    """|S_k| - rank d_k - rank d_{k+1} by boundary-side reduction, d_{k+1}
    first and its pivots clearing d_k: the oracle the coboundary pass replaced."""
    up = boundary_pivots(complex_, k + 1)
    return complex_.simplex_count(k) - len(boundary_pivots(complex_, k, up)) - len(up)


# ---------------------------------------------------------------------------
# simplex words


def slot_words(n: int, k: int) -> list[int]:
    """All n-bit words of Hamming weight k+1, ascending by numeric value."""
    if not 0 <= k <= n - 1:
        raise ValueError(f"dimension k={k} out of range for n={n}")
    w = (1 << (k + 1)) - 1
    limit = 1 << n
    out = []
    while w < limit:
        out.append(w)
        c = w & -w
        r = w + c
        w = (((r ^ w) >> 2) // c) | r
    return out


def word_from_vertices(vertices) -> int:
    word = 0
    for v in vertices:
        bit = 1 << int(v)
        if word & bit:
            raise ValueError(f"repeated vertex {v}")
        word |= bit
    return word


@dataclass(frozen=True, order=True)
class SimplexWord:
    """A k-simplex on n vertices, encoded as an n-bit word of weight k+1."""

    bits: int
    n: int
    k: int

    def __post_init__(self):
        if not 0 <= self.bits < (1 << self.n):
            raise ValueError(f"word {self.bits:#b} does not fit in {self.n} bits")
        if self.bits.bit_count() != self.k + 1:
            raise ValueError(
                f"word {self.bits:#b} has weight {self.bits.bit_count()}, expected k+1={self.k + 1}"
            )

    @classmethod
    def from_vertices(cls, vertices, n: int) -> "SimplexWord":
        word = word_from_vertices(vertices)
        return cls(word, n, word.bit_count() - 1)

    def vertices(self) -> list[int]:
        return [v for v in range(self.n) if self.bits >> v & 1]

    def slot_index(self) -> int:
        return slot_rank(self.bits)


def enumerate_slots(n: int, k: int) -> list[SimplexWord]:
    """Every potential k-simplex on n vertices, in ascending word order."""
    return [SimplexWord(w, n, k) for w in slot_words(n, k)]


def membership(complex_: CliqueComplex, s: SimplexWord) -> int:
    """1 if the simplex belongs to the complex, else 0 (binary search)."""
    if s.n != complex_.n:
        raise ValueError(f"simplex on {s.n} vertices, complex on {complex_.n}")
    return int(contains_word(complex_, s.k, s.bits))


def contains_word(complex_: CliqueComplex, k: int, word: int) -> bool:
    """Whether the word is one of the complex's k-simplices (binary search)."""
    level = complex_.words(k)
    i = bisect_left(level, word)
    return i < len(level) and level[i] == word


# ---------------------------------------------------------------------------
# spectral and phase-estimation oracles


def record_decompositions(monkeypatch) -> list:
    """Patch np.linalg.eigvalsh and eigh to log each call as (name, matrix)."""
    calls = []

    def recording(name):
        solver = getattr(np.linalg, name)

        def run(a, *args, **kwargs):
            calls.append((name, a))
            return solver(a, *args, **kwargs)
        return run

    for name in ("eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, recording(name))
    return calls


def matrix_operator(matrix, kernel_dim: int) -> HodgeOperator:
    """A vertex-level (k=0) operator whose one block covers every slot, the
    block's matrix preset to `matrix` and its kernel count to `kernel_dim`."""
    matrix = np.asarray(matrix, dtype=float)
    block = HodgeBlock(build_clique_complex(empty_graph(len(matrix)), 0), 0, kernel_dim)
    block.matrix = matrix
    return HodgeOperator("restricted", (block,))


def summary_oracle(blocks, dim: int) -> SpectralSummary:
    """The spectrum digest over `blocks`, every other of the dim slots one zero
    eigenvalue, computed directly: lists and min/max over each block's
    np.linalg.eigvalsh(block.matrix), not the block's recorded spectral ends."""
    spectra = [np.linalg.eigvalsh(b.matrix) for b in blocks]
    uncovered = dim - sum(b.size for b in blocks)
    lam_max = max([float(e[-1]) for e in spectra if e.size] + ([0.0] if uncovered else []))
    thresh = DEFAULT_ZERO_TOL * max(lam_max, 1.0)
    agrees = all(int(e.searchsorted(thresh)) == b.kernel_dim for b, e in zip(blocks, spectra))
    lam_min = min((float(e[b.kernel_dim]) for b, e in zip(blocks, spectra)
                   if b.kernel_dim < b.size), default=None)
    kappa = None if lam_min is None else lam_max / lam_min
    return SpectralSummary(uncovered + sum(b.kernel_dim for b in blocks), thresh, lam_min,
                           lam_max, kappa, agrees)


def dense_operator(op: HodgeOperator) -> np.ndarray:
    """The operator as a dense C x C matrix: its blocks embedded at their slots."""
    full = np.zeros((op.dim, op.dim))
    for block in op.blocks:
        if block.slots:
            full[np.ix_(block.slots, block.slots)] = block.matrix
    return full


def dense_spectrum(op: HodgeOperator):
    """Eigenpairs of the dense operator, its kernel mask at the library's
    threshold, and the eigenphases pi * lambda / lambda_max (kernel at 0)."""
    summary = spectral_summary(op)
    evals, evecs = np.linalg.eigh(dense_operator(op))
    kernel = evals < summary.threshold
    tau = 1.0 if summary.kappa is None else np.pi / summary.lambda_max
    return evals, evecs, kernel, np.where(kernel, 0.0, tau * evals)


def kernel_projector(op: HodgeOperator) -> np.ndarray:
    """Orthogonal projector onto the near-zero eigenspace."""
    _, evecs, kernel, _ = dense_spectrum(op)
    return evecs[:, kernel] @ evecs[:, kernel].T


def dense_zero_phase_weights(op: HodgeOperator, cfg: PEConfig) -> np.ndarray:
    """Per-slot zero-phase weights from the dense operator's eigenpairs."""
    _, evecs, kernel, phases = dense_spectrum(op)
    if cfg.mode == "ideal":
        return (evecs * evecs) @ kernel.astype(float)
    return (evecs * evecs) @ phase_zero_probability(phases, cfg.resolve(op))


def slot_zero_phase_weights(op: HodgeOperator, cfg: PEConfig) -> np.ndarray:
    """Per-slot probability of the all-zeros phase outcome on input |s>, from
    each block's eigenpairs: (evecs * evecs) @ f(lambda); a slot in no block is
    a kernel state and reads it with certainty."""
    summary, t = spectral_summary(op), cfg.resolve(op)
    tau = 1.0 if summary.kappa is None else np.pi / summary.lambda_max
    weights = np.ones(op.dim)
    for block in op.blocks:
        evals = block.evals
        kernel = np.arange(evals.size) < block.kernel_dim
        if cfg.mode == "ideal":
            outcome = kernel.astype(float)
        else:
            outcome = phase_zero_probability(np.where(kernel, 0.0, tau * evals), t)
        evecs = np.linalg.eigh(block.matrix)[1]
        weights[list(block.slots)] = (evecs * evecs) @ outcome
    return weights


def phase_estimation_unitary(op: HodgeOperator, cfg: PEConfig) -> np.ndarray:
    """Explicit phase-estimation unitary on (phase register) x (slot space).

    bits mode composes (inverse QFT x I) . controlled-powers . (H^t x I) in the
    dense operator's eigenbasis; ideal mode writes the kernel indicator to one
    bit.
    """
    _, evecs, kernel, phases = dense_spectrum(op)
    dim = op.dim
    if cfg.mode == "ideal":
        proj = evecs[:, kernel] @ evecs[:, kernel].T
        rest = np.eye(dim) - proj
        return np.block([[proj, rest], [rest, proj]]).astype(complex)

    t = cfg.resolve(op)
    big = 2**t
    m = np.arange(big)
    expo = np.exp(1j * np.outer(m, phases))  # (P, J): controlled powers in eigenbasis
    qft_dag = np.exp(-2j * np.pi * np.outer(m, m) / big) / sqrt(big)
    had = _hadamard_power(t)
    # R_j = QFT^dagger . diag(e^{i m phi_j}) . H^{x t}, assembled per eigenvalue
    r_all = np.einsum("am,mj,ml->jal", qft_dag, expo, had)
    u = np.einsum("jal,cj,dj->acld", r_all, evecs.astype(complex), evecs.conj().astype(complex))
    return u.reshape(big * dim, big * dim)


def _hadamard_power(t: int) -> np.ndarray:
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / sqrt(2.0)
    out = np.array([[1.0]])
    for _ in range(t):
        out = np.kron(out, h)
    return out


def zero_phase_weight(op: HodgeOperator, cfg: PEConfig, s) -> float:
    """One slot's zero-phase weight, addressed by its word."""
    word = s.bits if isinstance(s, SimplexWord) else int(s)
    if word.bit_count() != op.k + 1:
        raise ValueError(f"word {word:#b} is not a dimension-{op.k} slot")
    if word >= (1 << op.n):
        raise ValueError(f"word {word:#b} does not fit in {op.n} bits")
    return float(slot_zero_phase_weights(op, cfg)[slot_rank(word)])


def observable_b(m, ctx: PipelineContext) -> float:
    """The scalar b = Tr[(|0><0| x I x M) rho] for a flag observable M, checked
    first: M's weights (M[1,1], M[0,0]) on the context's zero-outcome sums over
    the complex's slots and the others, over the slot count."""
    m = _check_flag_observable(m)
    w1, w0 = float(m[1, 1].real), float(m[0, 0].real)
    beta, p1 = _flag_sums(ctx.op, ctx.cfg)
    return (beta * w1 + p1 * w0) / ctx.op.dim


def perturbation_bound(a: np.ndarray, delta_y_norm: float) -> float:
    """Bound ||X2 - X1|| <= ||A^-1|| ||Y2 - Y1|| for a right-hand-side-only
    perturbation (the system matrix is known exactly)."""
    if delta_y_norm < 0:
        raise ValueError("perturbation norm must be nonnegative")
    return inv_norm(a) * delta_y_norm


# ---------------------------------------------------------------------------
# tagged states and the explicit density matrix


@dataclass(frozen=True)
class TaggedState:
    """Uniform superposition over all slots with the membership flag on an
    ancilla qubit; after copying, the slot word is mirrored to a third register."""

    amplitudes: np.ndarray
    n: int
    k: int
    copied: bool

    def __post_init__(self):
        norm = np.linalg.norm(self.amplitudes)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state norm {norm} is not 1")

    @property
    def slot_dim(self) -> int:
        return self.amplitudes.shape[0]

    def vector(self) -> np.ndarray:
        return self.amplitudes.reshape(-1)


def prepare_phi(complex_: CliqueComplex, k: int) -> TaggedState:
    """The flag-tagged uniform state: amplitude 1/sqrt(C) on (s, member(s))."""
    n = complex_.n
    words = slot_words(n, k)
    c_total = len(words)
    if c_total == 0:
        raise ValueError("empty slot space")
    amp = np.zeros((c_total, 2))
    root = 1.0 / sqrt(c_total)
    for i, w in enumerate(words):
        amp[i, int(contains_word(complex_, k, w))] = root
    return TaggedState(amp, n, k, copied=False)


def copy_register(state: TaggedState) -> TaggedState:
    """Mirror the slot register onto a fresh register of the same size."""
    if state.copied:
        raise ValueError("state already carries a copy register")
    c_total = state.slot_dim
    amp = np.zeros((c_total, 2, c_total))
    idx = np.arange(c_total)
    amp[idx, :, idx] = state.amplitudes
    return TaggedState(amp, state.n, state.k, copied=True)


def partial_trace(rho: np.ndarray, dims, keep) -> np.ndarray:
    """Trace out every subsystem not listed in `keep` (dims in tensor order)."""
    dims = tuple(int(d) for d in dims)
    keep = sorted(keep)
    arr = np.asarray(rho).reshape(dims + dims)
    current = list(range(len(dims)))
    for sys in reversed([i for i in range(len(dims)) if i not in keep]):
        ax = current.index(sys)
        arr = np.trace(arr, axis1=ax, axis2=ax + len(current))
        current.pop(ax)
    kept = int(np.prod([dims[i] for i in keep])) if keep else 1
    return arr.reshape(kept, kept)


def validate_density(rho, atol_trace: float = 1e-10, atol_psd: float = 1e-10) -> dict:
    """Hermiticity, unit trace and positivity of a DensityOperator's explicit matrix."""
    mat = rho.matrix()
    herm = float(np.abs(mat - mat.conj().T).max())
    fv = rho.vectors
    tr = float((np.abs(fv) ** 2).sum() / rho.slot_dim)
    min_eig = float(np.linalg.eigvalsh(mat).min())
    ok = herm <= 1e-12 and abs(tr - 1.0) <= atol_trace and min_eig >= -atol_psd
    return {"hermiticity": herm, "trace": tr, "min_eigenvalue": min_eig, "ok": ok}


def householder_unitary(target) -> np.ndarray:
    """Dense unitary sending e_0 to the given unit vector (reflection times a phase)."""
    v = np.asarray(target, dtype=complex).reshape(-1)
    if not np.isfinite(v).all():
        raise ValueError("target has a non-finite entry")
    norm = np.linalg.norm(v)
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"target norm {norm} is not 1")
    v = v / norm
    v0 = v[0]
    phase = v0 / abs(v0) if abs(v0) > 1e-14 else 1.0
    w = v / phase
    w[0] -= 1.0
    wn = np.linalg.norm(w)
    if wn < 1e-14:
        return phase * np.eye(v.size, dtype=complex)
    return reflection_matrix(phase, w / wn)


def reflection_matrix(phase, w) -> np.ndarray:
    """phase (I - 2 w w^dagger) as a dense matrix."""
    return phase * (np.eye(w.size, dtype=complex) - 2.0 * np.outer(w, w.conj()))


def tensor_unitary(unitaries, system_dims) -> np.ndarray:
    """The whole unitary of a tensor-product encoding: the kron of the factors'
    matrices with every ancilla register permuted in front of every system
    register."""
    u_kron = reduce(np.kron, unitaries)
    interleaved = []
    for u, d in zip(unitaries, system_dims):
        interleaved.extend([u.shape[0] // d, d])
    n = len(unitaries)
    order = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    idx = np.arange(u_kron.shape[0]).reshape(interleaved).transpose(order).reshape(-1)
    return u_kron[np.ix_(idx, idx)]


def apply_encoding(enc: BlockEncoding, x: np.ndarray) -> np.ndarray:
    """The encoding's whole unitary applied to a vector or to columns: its dense
    matrix, the tensor product's permuted kron, or, for the mixture, its
    circuit V^dagger W^dagger S W V factor by factor, each reflection built
    densely from its phase and vector: the mixture-index rotation V, the
    per-index preparations W, the swap S of the purified system against the
    input register, and the inverse preparation."""
    mat = x if x.ndim == 2 else x.reshape(-1, 1)
    if mat.shape[0] != enc.dim:
        raise ValueError(f"expected leading dimension {enc.dim}")
    if enc.dense is not None:
        out = enc.dense @ mat
    elif enc.factors:
        out = tensor_unitary(enc.factors, enc.factor_system_dims) @ mat
    else:
        v_phase, v_vec, w_phases, w_vecs = enc.reflections
        v_anc = reflection_matrix(v_phase[0], v_vec[0])
        w_blocks = np.stack([reflection_matrix(p, w) for p, w in zip(w_phases, w_vecs)])
        m, d = v_anc.shape[0], enc.system_dim
        t = (v_anc @ mat.reshape(m, -1)).reshape(m, d, -1)
        t = np.matmul(w_blocks, t).reshape(m, d, d, -1)
        t = np.ascontiguousarray(t.transpose(0, 2, 1, 3)).reshape(m, d, -1)
        t = np.matmul(w_blocks.conj().transpose(0, 2, 1), t)
        out = (v_anc.conj().T @ t.reshape(m, -1)).reshape(m * d * d, -1)
    return out if x.ndim == 2 else out.reshape(-1)
