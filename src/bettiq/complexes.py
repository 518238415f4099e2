"""Point clouds, graphs, and clique complexes with a bit-word simplex encoding.

A k-simplex on n vertices is stored as an n-bit integer whose set bits are the
member vertices (Hamming weight k+1, ascending bit index = ascending vertex).
The full "slot space" at dimension k is the set of all binom(n, k+1) such
words, ordered by numeric value.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from math import comb
from pathlib import Path

import numpy as np

__all__ = [
    "PointCloud",
    "VertexGraph",
    "CliqueComplex",
    "InstanceSpec",
    "slot_rank",
    "build_clique_complex",
    "induced_graph",
    "complement_complex",
    "generate_instance",
    "load_instance",
    "dump_instance",
    "instance_to_dict",
]

GENERATOR_MODELS = ("erdos-renyi", "cycle", "complete", "octahedron", "annulus-cloud")


def _integral(x) -> bool:
    """Whether x's value is an integer (3 or 3.0; not 4.9 or "3"), the rule _integer reads by."""
    return type(x) is int or isinstance(x, numbers.Integral) or isinstance(x, float) and x.is_integer()


def _integer(x, what: str) -> int:
    """x as an int when its value is an integer (3 or 3.0); 4.9 or "3" raise ValueError."""
    if _integral(x):
        return int(x)
    raise ValueError(f"{what} must be an integer, got {x!r}")


def _check_dimension(k: int, n: int) -> int:
    """The one range rule for a dimension on n vertices: k, as the int its
    integer value is (1 or 1.0), with 0 <= k <= n-1."""
    k = _integer(k, "dimension k")
    if not 0 <= k <= n - 1:
        raise ValueError(f"dimension k={k} out of range for n={n}")
    return k


def slot_rank(word: int) -> int:
    """Index of `word` among all equal-weight words in ascending numeric order."""
    rank = 0
    i = 0
    while word:  # the i-th smallest vertex v (i from 1) adds binom(v, i)
        low = word & -word
        word ^= low
        i += 1
        rank += comb(low.bit_length() - 1, i)
    return rank


@dataclass(frozen=True)
class PointCloud:
    """Euclidean point cloud with the length scale that induces its graph."""

    points: np.ndarray
    length_scale: float

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise ValueError("points must be a rectangular array of coordinate vectors")
        if not self.length_scale > 0:
            raise ValueError("length_scale must be positive")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class VertexGraph:
    """Simple undirected graph as a symmetric boolean adjacency matrix."""

    n: int
    adjacency: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n, "vertex count n"))
        adj = np.asarray(self.adjacency, dtype=bool)
        if adj.shape != (self.n, self.n):
            raise ValueError(f"adjacency must be {self.n}x{self.n}")
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency must be symmetric")
        if adj.diagonal().any():
            raise ValueError("self-loops are not allowed")
        adj = adj.copy()
        adj.setflags(write=False)
        object.__setattr__(self, "adjacency", adj)

    @classmethod
    def from_edges(cls, n: int, edges) -> "VertexGraph":
        """An integer array of pairs is checked as arrays, any other input pair by
        pair, each id by _integer's rule (a non-integer one as -1).  Anything but a
        list of pairs raises first; then the first bad edge does, by its first fault
        of: a non-integer id, a self-loop, an id outside 0..n-1."""
        n = _integer(n, "vertex count n")
        try:
            pairs = ids = np.asarray(edges)
        except (TypeError, ValueError):  # a ragged list, or input numpy cannot read
            ids = None
        if ids is None or ids.dtype.kind not in "iu" or ids.shape[1:] != (2,):
            try:
                pairs = [tuple(edge) for edge in edges]
            except TypeError:
                pairs = None
            if pairs is None or any(len(pair) != 2 for pair in pairs):
                raise ValueError(f"edges must be a list of vertex pairs, got {edges!r}")
            ids = np.array([[int(x) if _integral(x) and 0 <= x < n else -1 for x in pair]
                            for pair in pairs], dtype=np.int64).reshape(-1, 2)
        u, v = ids.T
        bad = (u == v) | (u < 0) | (u >= n) | (v < 0) | (v >= n)
        if bad.any():
            a, b = pairs[bad.argmax()]
            a, b = _integer(a, "vertex id"), _integer(b, "vertex id")
            if a == b:
                raise ValueError(f"self-loop at vertex {a}")
            raise ValueError(f"edge ({a},{b}) names a vertex outside 0..{n - 1}")
        adj = np.zeros((n, n), dtype=bool)
        adj[u, v] = adj[v, u] = True
        adj.setflags(write=False)  # symmetric with a zero diagonal: no second check or copy
        graph = object.__new__(cls)
        vars(graph).update(n=n, adjacency=adj)
        return graph

    def edges(self) -> list[tuple[int, int]]:
        return list(map(tuple, self._edge_rows()))

    def _edge_rows(self) -> list[list[int]]:
        """Each edge as [u, v], u < v, in row-major order: the form the JSON holds."""
        return np.argwhere(np.triu(self.adjacency, 1)).tolist()

    def complement(self) -> "VertexGraph":
        adj = ~self.adjacency
        np.fill_diagonal(adj, False)
        return VertexGraph(self.n, adj)

    def adjacency_masks(self) -> list[int]:
        """Neighbourhood of each vertex as a bit mask: a fresh list, packed once per graph."""
        return list(self._masks)

    @cached_property
    def _masks(self) -> tuple[int, ...]:
        rows = np.packbits(self.adjacency, axis=1, bitorder="little")  # frozen and read-only
        buf, width = rows.tobytes(), rows.shape[1]
        return tuple(int.from_bytes(buf[i * width:(i + 1) * width], "little") for i in range(self.n))


@dataclass(frozen=True)
class CliqueComplex:
    """Clique complex of a graph, truncated at max_dim.

    simplices[k] holds the k-simplices (the (k+1)-cliques) as sorted words and
    common_masks[k], in the same order, each one's common-neighbour mask: the
    vertices adjacent to all of its vertices, so one coface per set bit.  The
    complex is downward closed by construction.
    """

    n: int
    max_dim: int
    simplices: tuple[tuple[int, ...], ...]
    graph: VertexGraph
    common_masks: tuple[tuple[int, ...], ...]

    @property
    def masks(self) -> tuple[int, ...]:
        """Each vertex's neighbourhood as a bit mask (level 0's common masks)."""
        return self.common_masks[0]

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.simplices)

    def simplex_count(self, k: int) -> int:
        self._check_dim(k)
        return len(self.simplices[k])

    def words(self, k: int) -> tuple[int, ...]:
        self._check_dim(k)
        return self.simplices[k]

    def _check_dim(self, k: int):
        if not 0 <= k <= self.max_dim:
            raise ValueError(f"dimension {k} not built (max_dim={self.max_dim})")


def induced_graph(cloud: PointCloud) -> VertexGraph:
    """Graph connecting points at pairwise distance <= length_scale (closed ball)."""
    diff = cloud.points[:, None, :] - cloud.points[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    adj = dist <= cloud.length_scale
    np.fill_diagonal(adj, False)
    return VertexGraph(cloud.n, adj)


def build_clique_complex(source, max_dim: int) -> CliqueComplex:
    """Enumerate the (k+1)-cliques of the (induced) graph for every k <= max_dim."""
    graph = induced_graph(source) if isinstance(source, PointCloud) else source
    if not isinstance(graph, VertexGraph):
        raise ValueError(f"cannot build a complex from {type(source).__name__}")
    n = graph.n
    max_dim = _check_dimension(max_dim, n)
    masks = graph.adjacency_masks()
    # a clique grows only by a common neighbour v above its top vertex, so each is
    # enumerated once; it goes to the bucket of its new top vertex v, and the buckets
    # joined in v order are in word order, as each bucket is filled in frontier order
    words, common = [tuple(1 << v for v in range(n))], [tuple(masks)]
    for _ in range(max_dim):
        new_words, new_common = [[] for _ in range(n)], [[] for _ in range(n)]
        for word, mask in zip(words[-1], common[-1]):
            top = word.bit_length()
            m = mask >> top << top
            while m:
                bit = m & -m
                m ^= bit
                v = bit.bit_length() - 1
                new_words[v].append(word | bit)
                new_common[v].append(mask & masks[v])
        words.append(tuple(chain.from_iterable(new_words)))
        common.append(tuple(chain.from_iterable(new_common)))
    return CliqueComplex(n=n, max_dim=max_dim, graph=graph, simplices=tuple(words),
                         common_masks=tuple(common))


def complement_complex(g: VertexGraph, max_dim: int) -> CliqueComplex:
    """Clique complex of the edge-complement graph."""
    return build_clique_complex(g.complement(), max_dim)


@dataclass(frozen=True)
class InstanceSpec:
    """Seeded generator description; the seed fully determines the instance."""

    model: str
    params: dict = field(default_factory=dict)
    seed: int | None = None


def _octahedron_graph() -> VertexGraph:
    # 6 vertices, all pairs adjacent except the antipodal pairs (i, i+3)
    adj = ~np.eye(6, dtype=bool)
    for i in range(3):
        adj[i, i + 3] = adj[i + 3, i] = False
    return VertexGraph(6, adj)


def generate_instance(spec: InstanceSpec):
    """Materialize a VertexGraph or PointCloud from a generator spec."""
    model, params = spec.model, dict(spec.params)
    if model == "cycle":
        n = _integer(params["n"], "n")
        if n < 3:
            raise ValueError("cycle needs n >= 3")
        return VertexGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
    if model == "complete":
        n = _integer(params["n"], "n")
        adj = ~np.eye(n, dtype=bool)
        return VertexGraph(n, adj)
    if model == "erdos-renyi":
        n, p = _integer(params["n"], "n"), float(params["p"])
        if not 0 <= p <= 1:
            raise ValueError("edge probability must be in [0, 1]")
        rng = np.random.default_rng(spec.seed)
        upper = np.triu(rng.random((n, n)) < p, 1)
        return VertexGraph(n, upper | upper.T)
    if model == "octahedron":
        return _octahedron_graph()
    if model == "annulus-cloud":
        n = _integer(params["n"], "n")
        inner = float(params.get("inner", 1.0))
        outer = float(params.get("outer", 1.5))
        length_scale = float(params["length_scale"])
        if not 0 < inner <= outer:
            raise ValueError("need 0 < inner <= outer")
        rng = np.random.default_rng(spec.seed)
        radius = np.sqrt(rng.uniform(inner**2, outer**2, size=n))
        angle = rng.uniform(0.0, 2 * np.pi, size=n)
        pts = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1)
        return PointCloud(pts, length_scale)
    raise ValueError(f"unknown generator model {model!r} (known: {', '.join(GENERATOR_MODELS)})")


def instance_to_dict(instance, spec: InstanceSpec | None = None) -> dict:
    """Canonical JSON form of an instance, optionally echoing its generator spec."""
    if isinstance(instance, VertexGraph):
        out = {"n": instance.n, "edges": instance._edge_rows()}
    elif isinstance(instance, PointCloud):
        out = {
            "points": [[float(x) for x in row] for row in instance.points],
            "length_scale": float(instance.length_scale),
        }
    else:
        raise ValueError(f"not an instance: {type(instance).__name__}")
    if spec is not None:
        out["generator"] = {"model": spec.model, "params": spec.params, "seed": spec.seed}
    return out


def load_instance(source):
    """Load a VertexGraph or PointCloud from a JSON file, path, or parsed dict."""
    if isinstance(source, (str, Path)):
        with open(source) as fh:
            data = json.load(fh)
    else:
        data = source
    if not isinstance(data, dict):
        raise ValueError(f"instance JSON must be an object, got {type(data).__name__}")
    if "edges" in data:
        return VertexGraph.from_edges(data["n"], data["edges"])
    if "points" in data:
        return PointCloud(np.asarray(data["points"], dtype=float), float(data["length_scale"]))
    if "model" in data:
        spec = InstanceSpec(data["model"], dict(data.get("params", {})), data.get("seed"))
        return generate_instance(spec)
    raise ValueError("instance JSON needs 'edges', 'points', or 'model'")


def dump_instance(instance, path, spec: InstanceSpec | None = None) -> None:
    payload = instance_to_dict(instance, spec)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
