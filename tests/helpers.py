"""Independent oracles and named instances shared by the test suite.

The oracles here deliberately avoid the library's own code paths: cliques are
found by exhaustive subset enumeration, ranks by Gaussian elimination over
exact fractions.
"""

import itertools
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from bettiq import VertexGraph


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


def octahedron_graph() -> VertexGraph:
    adj = ~np.eye(6, dtype=bool)
    for i in range(3):
        adj[i, i + 3] = adj[i + 3, i] = False
    return VertexGraph(6, adj)


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


def brute_force_cliques(graph: VertexGraph, size: int) -> set[frozenset]:
    """All vertex subsets of the given size whose pairs are all adjacent."""
    adj = graph.adjacency
    found = set()
    for combo in itertools.combinations(range(graph.n), size):
        if all(adj[u, v] for u, v in itertools.combinations(combo, 2)):
            found.add(frozenset(combo))
    return found


def fraction_rank(matrix) -> int:
    """Rank over the rationals by Gauss-Jordan elimination on Fractions."""
    arr = np.asarray(matrix)
    rows = [[Fraction(int(x)) for x in row] for row in arr]
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


def betti_by_fraction_ranks(complex_, k: int) -> int:
    """Betti number from the boundary matrices via the Fraction-rank oracle."""
    from bettiq import boundary_matrix

    low = boundary_matrix(complex_, k).matrix
    up = boundary_matrix(complex_, k + 1).matrix
    return complex_.simplex_count(k) - fraction_rank(low) - fraction_rank(up)
