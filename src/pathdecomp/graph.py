"""Weighted-graph substrate: masked subgraph views, Dijkstra, balls, components.

Everything downstream (separators, carving, verification) measures distances
through this module. A graph is immutable once built; "deleting" vertices is
expressed by running an operation under a VertexMask, which induces the
residual subgraph on the still-alive vertices.

Every residual operation lives here, once:

- A VertexMask is the graph size and a frozenset of alive ids, nothing else.
- `induced` slices the CSR by a vertex set (numpy gathers, not scipy's fancy
  indexing); a full mask gets the graph's own CSR. `_slice_without` cuts a
  slice down to a smaller set without going back to the graph: the separator
  validator derives each group's slice from the previous group's. Both run
  one formula, `_principal`, and give the same arrays for the same set.
- A level union is a list of pairwise disjoint masks that no edge joins, such
  as the nodes of one recursion level. `_level_union` alone builds one (one
  slice, each vertex's mask) and raises ValueError otherwise: no sweep leaves its mask.
  `level_components`, `level_balls` and `double_sweep` each build one per
  call and hand it to their core (`_component_labels`, `_level_balls_on`,
  `_double_sweep_on`), as `balls` hands its residual's slice to `_balls_on`.
  The greedy separator finder calls the cores itself: it builds one union
  per level and one per round, of the residuals of the nodes still
  unbalanced, and that union serves the round's components call, the next
  round's double sweep and that round's center index (decomposer). Only
  after a round that balances some of its nodes but not all is a second
  union built, of the others.
- scipy's Dijkstra runs every sweep and every multi-source query, directed on
  the symmetric CSR, so no call copies a transpose (on an 8x8 grid a call
  takes about 35 µs, against 107 µs undirected):
  - `balls`: the one multi-source distance query, cut at a radius, as sparse
    (row, vertex, distance) entries, SOURCE_BLOCK sources at a time. A
    call of fewer sources makes one dense call on the residual. In a call
    of more, every block runs its dense call on the union of its balls,
    found by a min_only sweep, so its cost follows its output. On unit
    gen_ktree(16384, 2) at W/8 the baseline index, all singleton balls,
    went from 1.5 s and a 20.7 MB tracemalloc peak to 75 ms and 2.3 MB; on
    a 64x64 grid at W/8, from 135 to 78 ms, and the 256 padding balls from
    5.7 to 1.4 ms. Every multi-source ball is read through it: a BallIndex
    key held by one subgraph, the baseline index, the threatener counts,
    the padding balls and both passes of the cluster-diameter check. Each
    dense block is read in one flat scan of its finite entries, which cost
    as much as the block's Dijkstra when read as a 2-D nonzero and a gather.
  - `_distance_on`: the separator validator's path check on a residual
    above its heap cut, one dense one-source call on the group's slice, as
    `balls` makes for one source.
  - `level_balls`: per round, one sweep over a level union cut at a radius,
    from at most one source per mask (through its core, the BallIndex's
    level sweeps).
  - `double_sweep`: one path per mask of a level union (through its core,
    the separator finder's targets of one round), from two sweeps of one source
    per mask, rebuilt from the second sweep's predecessors, its length the
    second sweep's distance (the edge-weight sum, bit for bit). The paths equal
    one-mask calls, which the tests pin on many tied blocks in any source
    order. One mask serves `farthest` (its first sweep) and
    `weighted_diameter` (exact all-pairs at n <= 512).
- `level_components` is `components` for each mask of a level union, from
  one scipy `connected_components` call (through its core, the separator
  finder's rounds, and the validator's flaps above its heap cut).
  `components` itself, and the heap Dijkstra below behind `sssp`, `ball` and
  the validator's path check on small residuals, touch only alive vertices
  and their edges, and the heap keeps only the vertices it reaches:
  on the 1-10 vertex residuals of most recursion nodes that is over ten
  times faster than slicing a CSR for scipy (measured, see the README).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.csgraph import dijkstra as csgraph_dijkstra

INF = math.inf

# Every scipy call here passes directed=True. csr() stores each edge in both
# directions and _slice keeps a principal submatrix, so every matrix handed to
# scipy is symmetric: its directed distances and strong components are the
# undirected ones, and scipy skips the transposed copy that an undirected
# Dijkstra, or a weak-components call, makes each time.

# Sources per scipy Dijkstra call in balls: a dense block holds this many rows
# of the size of the block's balls' union (or of the residual, in a call of
# fewer sources), and one block is alive at a time. On a 64x64 grid run, 128
# instead of 256 cut peak RSS by 10 MB at equal speed, when every block was
# of the residual's size. With the union, the baseline index of unit
# gen_ktree(16384, 2) at W/8 peaks at 2.3 MB under tracemalloc, against the
# 16.8 MB of one block of the whole graph (2-vCPU machine).
SOURCE_BLOCK = 128


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
        # derived structures, each kept for its latest (delta, finder) only and
        # written only by decomposer._graph_cached: "centers" holds (delta,
        # finder, CenterSequence) from choose_centers, and "baseline_index"
        # (delta, None, BallIndex) from the baseline carving
        self._cache: dict = {}
        if n > 1 and connected_components(self.csr(), directed=True, connection="strong",
                                          return_labels=False) != 1:
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
        return cls._of_valid(n, frozenset(range(n)))  # a range's ids are valid

    @classmethod
    def _of_valid(cls, n: int, alive: frozenset) -> "VertexMask":
        """A mask of ids already known to be Python ints in [0, n), unchecked."""
        mask = object.__new__(cls)
        mask.n, mask.alive = n, alive
        return mask

    def without(self, vertices) -> "VertexMask":
        return VertexMask._of_valid(self.n, self.alive.difference(vertices))

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
        return cls(vertices, _walk_length(g, vertices))

    def __len__(self):
        return len(self.vertices)


def _walk_length(g: WeightedGraph, vertices) -> float:
    """The left-to-right float sum from 0.0 of the lightest edge weight of
    each consecutive pair of vertices; GraphError at the first pair that is
    not adjacent."""
    total = 0.0
    for a, b in zip(vertices, vertices[1:]):
        total += g.edge_weight(a, b)
    return total


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


def _dijkstra(g: WeightedGraph, mask: VertexMask, src: int, cutoff: float = INF):
    """Masked Dijkstra engine. Returns (dist, parent) dicts over the vertices it
    reaches, so a search costs what it reaches, not n.

    Relaxation is strict (<), so the parent tree is determined by adjacency
    order alone; ties never rewrite a parent.
    """
    dist = {src: 0.0}
    parent = {src: -1}
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
            if nd > cutoff:
                continue
            if nd < dist.get(v, INF):
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
    reached, tree = _dijkstra(g, mask, src)
    dist = [INF] * g.n
    parent = [-1] * g.n
    for v, d in reached.items():
        dist[v] = d
        parent[v] = tree[v]
    return ShortestPaths(src, tuple(dist), tuple(parent))


def _require_radius(radius: float) -> None:
    if not radius >= 0:  # nan fails too
        raise ValueError(f"radius must be non-negative, got {radius}")


def ball(g: WeightedGraph, mask: VertexMask, center: int, radius: float) -> frozenset:
    """Closed ball {v alive : d_residual(center, v) <= radius}."""
    if center not in mask:
        raise MaskError(f"center {center} is not alive in the mask")
    _require_radius(radius)
    dist, _ = _dijkstra(g, mask, center, cutoff=radius)
    # only reached vertices have a (finite) distance; unreachable ones are
    # never in the ball, even at radius == INF (where it is the whole component)
    return frozenset(v for v, d in dist.items() if d <= radius)


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
        # the ids come from the adjacency lists, so they are valid
        out.append(VertexMask._of_valid(g.n, frozenset(comp)))
    return out


def induced(g: WeightedGraph, mask: VertexMask) -> tuple[sp.csr_matrix, np.ndarray]:
    """CSR adjacency of the residual graph and the sorted ids of its vertices:
    local index i of the matrix is vertex sorted_ids[i]."""
    if len(mask) == g.n:
        verts = np.arange(g.n, dtype=np.int64)
    else:
        verts = np.fromiter(sorted(mask.alive), dtype=np.int64, count=len(mask))
    return _slice(g, verts)


def _slice(g: WeightedGraph, verts: np.ndarray) -> tuple[sp.csr_matrix, np.ndarray]:
    """induced for sorted, distinct ids verts; all n of them get the graph's own CSR."""
    csr = g.csr()
    return (csr if len(verts) == g.n else _principal(csr, verts)), verts


def _slice_without(sub: sp.csr_matrix, verts: np.ndarray,
                   gone) -> tuple[sp.csr_matrix, np.ndarray]:
    """A slice (sub, verts) from induced without the vertices gone, each of
    them in verts: the slice induced gives for the smaller set, array for
    array, cut from sub rather than from the graph's CSR."""
    keep = np.ones(len(verts), dtype=bool)
    keep[np.searchsorted(verts, gone)] = False
    kept = np.flatnonzero(keep)
    return _principal(sub, kept), verts[kept]


def _principal(csr: sp.csr_matrix, keep: np.ndarray) -> sp.csr_matrix:
    """The principal submatrix of csr on its sorted, distinct indices keep,
    each row's entries in stored order: the one slicing formula. Applied to
    a principal submatrix of the graph's CSR it gives the submatrix of the
    graph's CSR on the same vertices, array for array."""
    first, count = csr.indptr[keep], csr.indptr[keep + 1] - csr.indptr[keep]
    # the rows' entries in stored order, kept where their column is kept; an
    # id map over csr's rows, as scipy's indexing uses, beat binary search on
    # big masks
    at = concat_ranges(first, count)
    local = np.full(csr.shape[0], -1, dtype=csr.indices.dtype)
    local[keep] = np.arange(len(keep))
    local = local[csr.indices[at]]
    alive = local >= 0
    indptr = np.concatenate(([0], np.cumsum(alive)))[np.concatenate(([0], np.cumsum(count)))]
    return sp.csr_matrix((csr.data[at[alive]], local[alive], indptr.astype(csr.indptr.dtype)),
                         shape=(len(keep),) * 2)


def _level_union(g: WeightedGraph, masks) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
    """induced for the union of masks, plus owner: owner[i] is the position in
    masks of the mask holding local vertex i. Raises ValueError unless the
    masks are pairwise disjoint and no edge joins two of them."""
    if len(masks) == 1:
        sub, verts = induced(g, masks[0])
        return sub, verts, np.zeros(len(verts), dtype=np.int64)
    sizes = [len(m) for m in masks]
    flat = np.fromiter(itertools.chain.from_iterable(m.alive for m in masks), dtype=np.int64,
                       count=sum(sizes))
    order = np.argsort(flat)
    verts = flat[order]
    if np.any(verts[1:] == verts[:-1]):
        raise ValueError("the masks of one level overlap")
    owner = np.repeat(np.arange(len(masks)), sizes)[order]
    sub, _ = _slice(g, verts)
    if np.any(owner[sub.indices] != np.repeat(owner, np.diff(sub.indptr))):
        raise ValueError("an edge joins two masks of one level")
    return sub, verts, owner


def concat_ranges(first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The integer ranges [first[i], first[i] + count[i]), concatenated."""
    return np.arange(int(count.sum())) + np.repeat(first - np.cumsum(count) + count, count)


def _reach(sub: sp.csr_matrix, sources: np.ndarray, radius: float):
    """One min_only scipy sweep from sources, cut at radius: the local indices
    within radius of some source, sorted, and their least distance."""
    # scipy's limit is inclusive: a vertex farther than radius gets inf
    dist = csgraph_dijkstra(sub, directed=True, indices=sources, limit=radius, min_only=True)
    hit = np.flatnonzero(np.isfinite(dist))
    return hit, dist[hit]


def _distance_on(sub: sp.csr_matrix, a: int, b: int, limit: float) -> float:
    """The distance from local index a to local index b of a slice if it is
    at most limit, else inf: one dense one-source scipy call, the one balls
    makes for a single source."""
    return float(csgraph_dijkstra(sub, directed=True, indices=[a], limit=limit)[0, b])


def balls(g: WeightedGraph, mask: VertexMask, sources, radius: float):
    """The residual balls of many sources, sparse: (row, vert, dist), one entry
    per source position row and alive vertex vert at distance dist <= radius
    from sources[row], sorted by (row, vert).

    The sources go SOURCE_BLOCK at a time, and one dense block of distances
    is alive at a time. A call of fewer than SOURCE_BLOCK sources makes one
    dense call on the residual. A call of more sweeps every block first, the
    last one too: one min_only sweep from all its sources gives the union U
    of its balls, and the block's dense call runs on the slice of U, so it
    holds |block| x |U| floats and not |block| x the residual. U is small when
    a block's sources are near each other: on graphs whose near ids are near
    vertices, as grids, sources in id order make cheap blocks."""
    _require_radius(radius)
    sub, verts = induced(g, mask)
    local = np.searchsorted(verts, sources)
    if not np.array_equal(verts.take(local, mode="clip"), sources):
        raise MaskError("every source must be alive in the mask")
    return _balls_on(g, sub, verts, local, radius)


def _balls_on(g: WeightedGraph, sub: sp.csr_matrix, verts: np.ndarray, local: np.ndarray,
              radius: float):
    """balls on a prebuilt slice sub of the ids verts, from its local indices
    local. The slice may hold vertices that no source reaches: they add no
    entry."""
    sweep = len(local) >= SOURCE_BLOCK
    parts = [(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0))]
    for first in range(0, len(local), SOURCE_BLOCK):
        block, block_sub, ids = local[first:first + SOURCE_BLOCK], sub, verts
        if sweep:
            # Slicing to U changes no entry, bit for bit. Each engine returns
            # the least left-to-right float sum over walks from the source (see
            # separators.validate_separator). Every prefix sum of a least walk
            # of sum at most radius is at most radius too, so every vertex on
            # it is within radius of the block, that is in U, and the walk
            # survives the slice. The slice only removes walks, so no sum gets
            # smaller. U keeps the residual's id order, so the (row, vert)
            # order is kept.
            union, _ = _reach(sub, block, radius)
            block_sub, ids = _slice(g, verts[union])
            block = np.searchsorted(union, block)
        dist = csgraph_dijkstra(block_sub, directed=True, indices=block, limit=radius)
        # one flat scan of the block, row-major as (row, vert) is sorted; no
        # distance is nan, so < INF keeps exactly the finite ones
        width = dist.shape[1]
        flat = np.flatnonzero(dist < INF)
        row = flat // width
        parts.append((first + row, ids[flat - row * width], dist.ravel().take(flat)))
        del dist  # freed before the next block is computed
    return tuple(np.concatenate(a) for a in zip(*parts))


def level_balls(g: WeightedGraph, masks, rounds, radius: float):
    """Balls over a level union, one scipy sweep per round: rounds[t][k] is
    masks[k]'s t-th source, or None. Yields (owner, verts, dist) per round:
    the reached vertices, the position in masks of each one's mask, and its
    residual distance to that mask's source, at most radius."""
    for sources in rounds:
        for mask, src in zip(masks, sources, strict=True):
            if src is not None and src not in mask:
                raise MaskError(f"source {src} is not alive in the mask")
    union = _level_union(g, masks)
    local = [np.searchsorted(union[1], [src for src in sources if src is not None])
             for sources in rounds]
    yield from _level_balls_on(union, local, radius)


def _level_balls_on(union, rounds, radius: float):
    """level_balls on a prebuilt level union (sub, verts, owner), rounds[t]
    being round t's sources as local indices."""
    sub, verts, owner = union
    for local in rounds:
        hit, dist = _reach(sub, local, radius)
        yield owner[hit], verts[hit], dist


def _sweep(sub: sp.csr_matrix, owner: np.ndarray, sources: np.ndarray):
    """One scipy sweep over a level union from one local source per mask:
    each mask's farthest reached local index (ties: the smallest), the
    distances and the predecessors."""
    dist, pred, _ = csgraph_dijkstra(sub, directed=True, indices=sources, min_only=True,
                                     return_predecessors=True)
    key = np.where(np.isinf(dist), -INF, dist)
    best = np.full(len(sources), -INF)
    np.maximum.at(best, owner, key)
    tied = np.flatnonzero(key == best[owner])
    far = np.full(len(sources), len(key))
    np.minimum.at(far, owner[tied], tied)
    return far, dist, pred


def farthest(g: WeightedGraph, mask: VertexMask, src: int) -> tuple[int, float]:
    """Reachable vertex maximizing residual distance from src; ties -> smallest id."""
    if src not in mask:
        raise MaskError(f"source {src} is not alive in the mask")
    sub, verts, owner = _level_union(g, [mask])
    far, dist, _ = _sweep(sub, owner, np.searchsorted(verts, [src]))
    return int(verts[far[0]]), float(dist[far[0]])


def double_sweep(g: WeightedGraph, masks, sources) -> list[Path]:
    """Per mask, the residual shortest path from u, farthest from its source,
    to v, farthest from u; smallest-id ties. The masks must be pairwise
    disjoint and non-adjacent: each of the two sweeps is one scipy call over
    their union, from one vertex in each, and the paths are rebuilt from the
    second sweep's predecessors, with the second sweep's distance to v as
    their length."""
    for mask, src in zip(masks, sources, strict=True):
        if src not in mask:
            raise MaskError(f"source {src} is not alive in the mask")
    if all(len(mask) == 1 for mask in masks):
        return [Path((int(src),), 0.0) for src in sources]
    union = _level_union(g, masks)
    return _double_sweep_on(union, np.searchsorted(union[1], sources))


def _double_sweep_on(union, sources: np.ndarray) -> list[Path]:
    """double_sweep on a prebuilt level union (sub, verts, owner) from one
    local source per mask. A mask may hold vertices that its source does not
    reach, such as the other components of a residual: no edge joins them to
    what it reaches, so the sweeps never see them, and the paths, their float
    sums and their smallest-id ties are those of a union without them."""
    sub, verts, owner = union
    u, _, _ = _sweep(sub, owner, sources)
    v, dist, pred = _sweep(sub, owner, u)
    # dist[v] is Path.from_vertices' length, bit for bit: scipy sets dist[x] =
    # dist[pred[x]] + w(pred[x], x) with dist[u] = 0.0, w the CSR weight, which
    # is the lightest parallel edge, as in edge_weight. So dist[v] is the same
    # left-to-right float sum over the same edges, starting from 0.0.
    paths = []
    for a, b in zip(u.tolist(), v.tolist()):
        walk = [b]
        while walk[-1] != a:
            walk.append(int(pred[walk[-1]]))
        paths.append(Path(tuple(verts[walk[::-1]].tolist()), float(dist[b])))
    return paths


def level_components(g: WeightedGraph, masks) -> list[list[VertexMask]]:
    """components(g, mask) for each of pairwise disjoint, non-adjacent masks,
    from one scipy call over their union."""
    if not any(len(mask) for mask in masks):
        return [[] for _ in masks]
    union = _level_union(g, masks)
    return _component_masks(g, masks, union, *_component_labels(union[0]))


def _component_labels(sub: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """The components of a level union's slice, numbered by their smallest
    vertex: label[i] is local vertex i's component, first[c] the smallest
    local index in component c."""
    count, label = connected_components(sub, directed=True, connection="strong")
    first = np.full(count, sub.shape[0])
    np.minimum.at(first, label, np.arange(sub.shape[0]))
    order = np.argsort(first)
    rank = np.empty(count, dtype=np.int64)
    rank[order] = np.arange(count)
    return rank[label], first[order]


def _component_masks(g: WeightedGraph, masks, union, label: np.ndarray,
                     first: np.ndarray) -> list[list[VertexMask]]:
    """level_components from a union of masks and its _component_labels."""
    _, verts, owner = union
    out: list[list[VertexMask]] = [[] for _ in masks]
    ids = verts[np.argsort(label, kind="stable")].tolist()
    ends = np.cumsum(np.bincount(label, minlength=len(first))).tolist()
    owners = owner[first].tolist()
    connected = np.bincount(owners, minlength=len(masks)) == 1
    for k, a, b in zip(owners, [0] + ends, ends):
        # a connected mask is its own single component
        out[k].append(masks[k] if connected[k] else VertexMask._of_valid(g.n, frozenset(ids[a:b])))
    return out


def weighted_diameter(g: WeightedGraph) -> float:
    """Weighted diameter: exact all-pairs for n <= 512, double-sweep bound above."""
    if g.n <= 512:
        return float(csgraph_dijkstra(g.csr(), directed=True).max())
    return double_sweep(g, [VertexMask.full(g.n)], [0])[0].length


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
