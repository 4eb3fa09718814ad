"""Weighted-graph substrate: masked subgraph views, Dijkstra, balls, components.

Everything downstream (separators, carving, verification) measures distances
through this module. A graph is immutable once built; "deleting" vertices is
expressed by running an operation under a VertexMask, which induces the
residual subgraph on the still-alive vertices.

Every residual operation lives here, once:

- A VertexMask is the graph size and a frozenset of alive ids, nothing else.
- `components`, `ball`, `farthest` and `sssp` touch only alive vertices and
  their edges, so a separator-recursion node costs O(residual + its edges),
  not O(n). Their only O(n) work is allocating the distance lists.
- `induced` is the one place that slices the CSR by a vertex set. scipy runs
  on induced subgraphs where one call serves a whole residual: the
  separator's double sweep and the BallIndex build.
- Single-source residual queries use the heap Dijkstra below. Most recursion
  nodes have 1-10 vertices, where slicing a CSR and calling scipy costs over
  ten times the heap search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.csgraph import dijkstra as csgraph_dijkstra

INF = math.inf


class GraphError(ValueError):
    """Malformed graph input: bad ids, negative weights, self-loops, disconnected."""


class MaskError(ValueError):
    """Operation anchored at a vertex that is not alive in the given mask."""


class WeightedGraph:
    """Immutable undirected graph with non-negative edge weights.

    Vertices are the integers 0..n-1. The graph must be connected as loaded;
    residual subgraphs obtained by masking may of course fall apart, and all
    operations below handle that.
    """

    __slots__ = ("n", "edges", "adj", "_csr", "_cache")

    def __init__(self, n: int, edges):
        if n <= 0:
            raise GraphError("graph needs at least one vertex")
        edges = [(int(u), int(v), float(w)) for u, v, w in edges]
        adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        for u, v, w in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) has a vertex id outside [0,{n})")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not (w >= 0.0) or math.isinf(w):
                raise GraphError(f"edge ({u},{v}) has invalid weight {w}")
            adj[u].append((v, w))
            adj[v].append((u, w))
        self.n = n
        self.edges = tuple(edges)
        self.adj = adj
        self._csr = None
        self._cache: dict = {}
        if n > 1 and connected_components(self.csr(), directed=False, return_labels=False) != 1:
            raise GraphError("graph is disconnected; only connected inputs are accepted")

    def edge_weight(self, u: int, v: int) -> float:
        """Smallest weight among (u,v) edges; raises if u and v are not adjacent."""
        best = None
        for x, w in self.adj[u]:
            if x == v and (best is None or w < best):
                best = w
        if best is None:
            raise GraphError(f"vertices {u} and {v} are not adjacent")
        return best

    def csr(self) -> sp.csr_matrix:
        """Symmetric CSR adjacency (parallel edges coalesced to the min weight)."""
        if self._csr is None:
            e = np.array(self.edges, dtype=np.float64).reshape(-1, 3)
            lo = np.minimum(e[:, 0], e[:, 1]).astype(np.int64)
            hi = np.maximum(e[:, 0], e[:, 1]).astype(np.int64)
            # per vertex pair, the lightest parallel edge sorts first and is kept
            order = np.lexsort((e[:, 2], hi, lo))
            lo, hi, w = lo[order], hi[order], e[order, 2]
            first = np.ones(len(w), dtype=bool)
            first[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
            lo, hi, w = lo[first], hi[first], w[first]
            self._csr = sp.csr_matrix(
                (np.concatenate([w, w]), (np.concatenate([lo, hi]), np.concatenate([hi, lo]))),
                shape=(self.n, self.n),
            )
        return self._csr

    def __repr__(self):
        return f"WeightedGraph(n={self.n}, m={len(self.edges)})"


class VertexMask:
    """Set of still-alive vertices; induces the residual subgraph."""

    __slots__ = ("n", "alive")

    def __init__(self, n: int, alive):
        alive = frozenset(map(int, alive))
        if alive and (min(alive) < 0 or max(alive) >= n):
            bad = min(alive) if min(alive) < 0 else max(alive)
            raise GraphError(f"mask vertex {bad} outside [0,{n})")
        self.n = n
        self.alive = alive

    @classmethod
    def full(cls, n: int) -> "VertexMask":
        return cls(n, range(n))

    def without(self, vertices) -> "VertexMask":
        return VertexMask(self.n, self.alive.difference(vertices))

    def __contains__(self, v) -> bool:
        return v in self.alive

    def __len__(self) -> int:
        return len(self.alive)

    def __iter__(self):
        return iter(sorted(self.alive))

    def __eq__(self, other):
        return isinstance(other, VertexMask) and self.n == other.n and self.alive == other.alive

    def __hash__(self):
        return hash((self.n, self.alive))

    def __repr__(self):
        return f"VertexMask({len(self.alive)}/{self.n} alive)"


@dataclass(frozen=True)
class Path:
    """A walk along graph edges; length is the sum of traversed edge weights."""

    vertices: tuple[int, ...]
    length: float

    @classmethod
    def from_vertices(cls, g: WeightedGraph, vertices) -> "Path":
        vertices = tuple(int(v) for v in vertices)
        if not vertices:
            raise GraphError("a path needs at least one vertex")
        total = 0.0
        for a, b in zip(vertices, vertices[1:]):
            total += g.edge_weight(a, b)
        return cls(vertices, total)

    def __len__(self):
        return len(self.vertices)


@dataclass(frozen=True)
class ShortestPaths:
    """Single-source distances and one shortest-path tree over a residual graph."""

    source: int
    dist: tuple[float, ...]   # math.inf for dead or unreachable vertices
    parent: tuple[int, ...]   # -1 at the source and wherever dist is inf

    def path_to(self, v: int, g: WeightedGraph) -> Path:
        if self.dist[v] == INF:
            raise GraphError(f"vertex {v} is unreachable from {self.source}")
        chain = [v]
        while chain[-1] != self.source:
            chain.append(self.parent[chain[-1]])
        chain.reverse()
        return Path.from_vertices(g, chain)


def _dijkstra(g: WeightedGraph, mask: VertexMask, src: int, cutoff: float | None = None):
    """Masked Dijkstra engine. Returns (dist, parent) lists over all n vertices.

    Relaxation is strict (<), so the parent tree is determined by adjacency
    order alone; ties never rewrite a parent.
    """
    n = g.n
    dist = [INF] * n
    parent = [-1] * n
    dist[src] = 0.0
    heap = [(0.0, src)]
    adj = g.adj
    alive = mask.alive
    while heap:
        d, u = heappop(heap)
        if d > dist[u]:
            continue
        for v, w in adj[u]:
            if v not in alive:
                continue
            nd = d + w
            if cutoff is not None and nd > cutoff:
                continue
            if nd < dist[v]:
                dist[v] = nd
                parent[v] = u
                heappush(heap, (nd, v))
    return dist, parent


def sssp(g: WeightedGraph, mask: VertexMask, src: int) -> ShortestPaths:
    """Shortest-path distances from src within the residual graph.

    Unreachable (or masked-out) vertices get distance inf; the parent map
    reconstructs one shortest path per reachable vertex.
    """
    if src not in mask:
        raise MaskError(f"source {src} is not alive in the mask")
    dist, parent = _dijkstra(g, mask, src)
    return ShortestPaths(src, tuple(dist), tuple(parent))


def ball(g: WeightedGraph, mask: VertexMask, center: int, radius: float) -> frozenset:
    """Closed ball {v alive : d_residual(center, v) <= radius}."""
    if center not in mask:
        raise MaskError(f"center {center} is not alive in the mask")
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    dist, _ = _dijkstra(g, mask, center, cutoff=radius)
    # dist[v] == INF marks unreachable vertices; they are never in the ball,
    # even at radius == INF (where the ball is the whole component)
    return frozenset(v for v in mask.alive if dist[v] <= radius and dist[v] != INF)


def components(g: WeightedGraph, mask: VertexMask) -> list[VertexMask]:
    """Connected components of the residual graph, ordered by smallest member id."""
    alive = mask.alive
    seen = set()
    out = []
    for s in sorted(alive):
        if s in seen:
            continue
        comp = [s]
        seen.add(s)
        stack = [s]
        while stack:
            u = stack.pop()
            for v, _ in g.adj[u]:
                if v in alive and v not in seen:
                    seen.add(v)
                    comp.append(v)
                    stack.append(v)
        out.append(VertexMask(g.n, comp))
    return out


def induced(g: WeightedGraph, mask: VertexMask) -> tuple[sp.csr_matrix, np.ndarray]:
    """CSR adjacency of the residual graph and the sorted ids of its vertices:
    local index i of the matrix is vertex sorted_ids[i]."""
    verts = np.fromiter(sorted(mask.alive), dtype=np.int64, count=len(mask))
    return g.csr()[verts][:, verts], verts


def farthest(g: WeightedGraph, mask: VertexMask, src: int) -> tuple[int, float]:
    """Reachable vertex maximizing residual distance from src; ties -> smallest id."""
    if src not in mask:
        raise MaskError(f"source {src} is not alive in the mask")
    dist, _ = _dijkstra(g, mask, src)
    best_v, best_d = -1, -INF
    for v in mask.alive:
        d = dist[v]
        if d != INF and (d > best_d or (d == best_d and v < best_v)):
            best_v, best_d = v, d
    return best_v, best_d


def weighted_diameter(g: WeightedGraph) -> float:
    """Weighted diameter: exact all-pairs for n <= 512, double-sweep bound above."""
    full = VertexMask.full(g.n)
    if g.n <= 512:
        dmat = csgraph_dijkstra(g.csr(), directed=False)
        return float(dmat.max())
    u, _ = farthest(g, full, 0)
    _, d = farthest(g, full, u)
    return d


def load_graph(path) -> WeightedGraph:
    """Read the edge-list format: header `n m`, then m lines `u v w`; `#` comments."""
    header = None
    edges = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if header is None:
                if len(parts) != 2:
                    raise GraphError(f"{path}:{lineno}: expected header 'n m'")
                header = (int(parts[0]), int(parts[1]))
                continue
            if len(parts) != 3:
                raise GraphError(f"{path}:{lineno}: expected 'u v w'")
            edges.append((int(parts[0]), int(parts[1]), float(parts[2])))
    if header is None:
        raise GraphError(f"{path}: empty graph file")
    n, m = header
    if len(edges) != m:
        raise GraphError(f"{path}: header promises {m} edges, found {len(edges)}")
    return WeightedGraph(n, edges)


def dump_graph(g: WeightedGraph, path) -> None:
    """Write the edge-list format accepted by load_graph."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{g.n} {len(g.edges)}\n")
        for u, v, w in g.edges:
            fh.write(f"{u} {v} {w!r}\n")
