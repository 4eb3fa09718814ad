"""Weighted-graph substrate: masked subgraph views, Dijkstra, balls, components.

Everything downstream (separators, carving, verification) measures distances
through this module. A graph is immutable once built; "deleting" vertices is
expressed by running an operation under a VertexMask, which induces the
residual subgraph on the still-alive vertices.

A graph has one adjacency, its symmetric CSR, which keeps the lightest edge
of each vertex pair: the shortest-path metric sees no other. `adj` is the
same rows as tuples of (neighbour, weight) pairs, built from the CSR, for
the Python-level searches below and `edge_weight`; a tuple row is read
faster than a slice of the CSR's arrays (the README gives the numbers).

Every residual operation lives here, once:

- A VertexMask is the graph size and a frozenset of alive ids. A mask made
  by `without` takes its set difference on its first read and until then
  holds its parent and the removed ids instead (_DeferredMask), so a
  residual that nothing reads, such as a greedy run's record subgraph past
  group 0, never holds a set.
- `induced` slices the CSR by a vertex set (numpy gathers, not scipy's fancy
  indexing) through the one slicing formula, `_principal`; a full mask gets
  the graph's own CSR, which nothing writes.
- A slice can also lose vertices by weight, in place: `_delete_in_place`
  gives every edge into them weight inf, on a slice that owns its weights.
  The invariant that makes this a deletion: every scipy Dijkstra call on
  such a slice passes a finite limit, and scipy relaxes an edge only when
  the sum it gives is at most the limit, so no inf edge is ever taken and
  distances and predecessors are those of `induced` on the smaller set.
  The separator validator keeps one slice per recursion node this way and
  deletes each checked group from it.
- A level union is a list of pairwise disjoint masks that no edge joins, such
  as the nodes of one recursion level. `_level_union` alone builds one (one
  slice, each vertex's mask) and raises ValueError otherwise: no sweep leaves its mask.
  `double_sweep` builds one per call and hands it to its core,
  `_double_sweep_on`, as `balls` hands its residual's slice to `_balls_on`.
  The greedy separator finder calls the cores itself: it builds one union
  per level and one per round, of the residuals of the nodes still
  unbalanced, and that union serves the round's components call, the next
  round's double sweep and that round's center index (decomposer). Only
  after a round that balances some of its nodes but not all is a second
  union built, of the others.
- scipy's Dijkstra runs every sweep and every multi-source query, directed on
  the symmetric CSR, so no call copies a transpose:
  - `balls`: the one multi-source distance query, cut at a radius, as sparse
    (row, vertex, distance) entries, SOURCE_BLOCK sources at a time. A
    call of fewer sources makes one dense call on the residual. In a call
    of more, every block runs its dense call on the union of its balls,
    found by a min_only sweep, so its cost follows its output. Every
    multi-source ball is read through it: a BallIndex key held by one
    subgraph, the baseline index, the threatener counts, the padding balls
    and both passes of the cluster-diameter check. Each dense block is read
    in one flat scan of its finite entries.
  - `_reach`: one min_only sweep cut at a radius, from many sources: the
    union of a `balls` block, and one round of a level's center index (one
    source per mask of a level union, each reached vertex in its own
    mask's ball).
  - `_distance_on`: the separator validator's path check on a node above
    its heap cut, one dense one-source call on the node's slice with the
    earlier groups deleted by weight, cut at the path's length, as `balls`
    makes for one source.
  - `double_sweep`: one path per mask of a level union (through its core,
    the separator finder's targets of one round), from two sweeps of one source
    per mask, rebuilt from the second sweep's predecessors, its length the
    second sweep's distance (the edge-weight sum, bit for bit). The paths equal
    one-mask calls, which the tests pin on many tied blocks in any source
    order. One mask serves `farthest` (its first sweep) and
    `weighted_diameter` (exact all-pairs at n <= 512).
- `_component_labels` numbers the components of a level union's slice from
  one scipy `connected_components` call, and `_component_masks` turns them
  into each mask's `components` (the separator finder's rounds, and the
  validator's flaps on a node above its heap cut).
  `components` itself, and the heap Dijkstra below behind `sssp`, `ball` and
  the validator's path check on small nodes, touch only alive vertices
  and their rows of `adj`, and the heap keeps only the vertices it reaches: most
  recursion nodes hold 1-10 vertices, where a search costs less than
  slicing a CSR for scipy (the README gives the numbers).

Every module checks its arguments through the rules here, one per kind:
`_integer` for counts, sizes, ids and seeds, `_real` for scales and radii
(each caller adds its own range test), and `_require_mask` for a mask handed
to a graph operation. Vertex-id collections keep the constructor's rule
(`_vertex_ids`), under which an integral float is an id.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
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
# Dijkstra, or a weak-components call, makes each time. A slice with vertices
# deleted by weight (_delete_in_place) is not symmetric, as only the edges
# into them weigh inf, but a finite-limit Dijkstra on it walks only the
# symmetric part between the vertices still alive.

# Sources per scipy Dijkstra call in balls: a dense block holds this many rows
# of the size of the block's balls' union (or of the residual, in a call of
# fewer sources), and one block is alive at a time, so peak memory follows
# the block size and the balls' size, not the graph's.
SOURCE_BLOCK = 128


class GraphError(ValueError):
    """Malformed graph input: bad ids, negative weights, self-loops, disconnected."""


class MaskError(ValueError):
    """Operation anchored at a vertex that is not alive in the given mask."""


def _integer(name: str, value, least: int | None = None) -> int:
    """value as a Python int (operator.index): an integer, numpy's too, never
    a bool, a float or a string, which would run as 0 or 1, as its floor or
    parsed. TypeError naming `name` otherwise; ValueError below least."""
    if type(value) is not int:  # a Python int passes at once; a bool is no int
        # here, though it has __index__ (numpy's bool has none)
        if isinstance(value, bool) or not hasattr(type(value), "__index__"):
            raise TypeError(f"{name} must be an integer, got {value!r}")
        value = operator.index(value)
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


def _real(name: str, value) -> float:
    """value as a Python float: a real number, numpy's too, never a bool or a
    string; TypeError naming `name` otherwise. The caller tests the range."""
    # float and int first: a test against the abstract class alone is slower
    if isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real)):
        raise TypeError(f"{name} must be a number, got {value!r}")
    return float(value)


def _require_mask(g: WeightedGraph, mask: VertexMask, anchor=None, what="source") -> None:
    """Refuse a mask over another vertex count than the graph's (ValueError),
    and an anchor vertex, unless None, that is not alive in it (MaskError)."""
    if mask.n != g.n:
        raise ValueError(f"mask is over {mask.n} vertices but the graph has {g.n}")
    if anchor is not None and anchor not in mask:
        raise MaskError(f"{what} {anchor} is not alive in the mask")


def _require_radius(radius, name: str = "radius") -> float:
    """radius as a Python float, at least 0 (nan fails too)."""
    radius = _real(name, radius)
    if not radius >= 0:
        raise ValueError(f"{name} must be non-negative, got {radius}")
    return radius


class WeightedGraph:
    """Immutable undirected graph with non-negative edge weights.

    Vertices are the integers 0..n-1. The graph must be connected as loaded;
    residual subgraphs obtained by masking may of course fall apart, and all
    operations below handle that.

    edges is an iterable of (u, v, w) triples or an (m, 3) numpy array, as the
    generators give. Ids must be integers (an integral float is one) and
    weights real numbers; a bool is neither, nor is a string. One vectorised
    pass checks the edges and builds the CSR, which keeps each vertex pair's
    lightest edge (the first given of equal weights). adj[u] is row u of the
    CSR as a tuple of (neighbour, weight) pairs, sorted by neighbour: the
    shortest-path metric sees only the lightest edge of a pair, so no
    operation depends on the order or the heavier copies of the edges given.
    The edges tuple is built on first use, in input order with every parallel
    edge; m counts the edges without building it.
    """

    __slots__ = ("n", "m", "adj", "_edges", "_edge_source", "_csr", "_cache")

    def __init__(self, n: int, edges):
        try:
            n = _integer("the vertex count", n, least=1)
        except (TypeError, ValueError) as exc:  # graph input raises GraphError
            raise GraphError(str(exc)) from None
        u, v, w = _edge_columns(n, edges)
        self.n, self.m = n, len(w)
        self._edges = None
        self._edge_source = (u, v, w)
        self._csr = _symmetric_csr(n, u, v, w)
        # derived structures, each kept for its latest (key, finder) only and
        # written only by decomposer._graph_cached, whose docstring lists the slots
        self._cache: dict = {}
        if connected_components(self._csr, directed=True, connection="strong",
                                return_labels=False) != 1:
            raise GraphError("graph is disconnected; only connected inputs are accepted")
        self.adj = _csr_rows(self._csr)

    @property
    def edges(self) -> tuple:
        """The edges in input order, each (u, v, w) as a Python int, int and
        float."""
        if self._edges is None:
            u, v, w = self._edge_source
            self._edges = tuple(zip(u.tolist(), v.tolist(), w.tolist()))
            self._edge_source = None
        return self._edges

    def edge_weight(self, u: int, v: int) -> float:
        """The weight of the (u,v) edge, the lightest of parallel ones; raises
        if u and v are not adjacent."""
        for x, w in self.adj[u]:
            if x == v:
                return w
        raise GraphError(f"vertices {u} and {v} are not adjacent")

    def csr(self) -> sp.csr_matrix:
        """Symmetric CSR adjacency (parallel edges coalesced to the min weight)."""
        return self._csr

    def __repr__(self):
        return f"WeightedGraph(n={self.n}, m={self.m})"


def _csr_rows(csr: sp.csr_matrix) -> list[tuple]:
    """adj from the CSR of a connected graph: row u as the tuple of its
    (neighbour, weight) pairs, sorted by neighbour. The pairs of a neighbour x
    that carry, bit for bit, the least weight of x's own row are one object,
    so with unit weights a vertex is one pair in every row it is in; any other
    pair is its own object."""
    n, nbr, w = csr.shape[0], csr.indices, csr.data
    if n == 1:
        return [()]
    # reduceat needs every row non-empty, as it is in a connected graph
    light = np.minimum.reduceat(w, csr.indptr[:-1])
    pairs = np.fromiter(zip(range(n), light.tolist()), dtype=object, count=n)[nbr]
    other = np.flatnonzero(w.view(np.int64) != light.view(np.int64)[nbr])
    pairs[other] = np.fromiter(zip(nbr[other].tolist(), w[other].tolist()),
                               dtype=object, count=len(other))
    pairs = tuple(pairs.tolist())
    cuts = csr.indptr.tolist()
    return [pairs[a:b] for a, b in zip(cuts, cuts[1:])]


def _symmetric_csr(n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> sp.csr_matrix:
    """The CSR of the edges (u, v, w), each stored in both directions."""
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    # in (lo, hi) order; per vertex pair the lightest parallel edge sorts
    # first and is kept, the first given of equal weights (lexsort is stable)
    order = np.lexsort((w, lo * n + hi))
    lo, hi, w = lo[order], hi[order], w[order]
    first = np.ones(len(w), dtype=bool)
    first[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    lo, hi, w = lo[first], hi[first], w[first]
    return sp.csr_matrix(
        (np.concatenate([w, w]), (np.concatenate([lo, hi]), np.concatenate([hi, lo]))),
        shape=(n, n),
    )


def _numbers(values) -> np.ndarray:
    """values (a 1-D array or an iterable) as an integer or float array, nan
    where an entry is not a real number: a bool, a string, or what float()
    refuses. A numeric array is returned as it is."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iuf":
        return values
    return np.array([_number(x) for x in values], dtype=np.float64)


def _number(x) -> float:
    """One entry of _numbers: x by _real's rule, nan where it refuses x."""
    try:
        return _real("", x)
    except TypeError:
        return math.nan
    except OverflowError:  # an int too large for a float
        return math.inf if x > 0 else -math.inf


def _not_integer(ids: np.ndarray) -> np.ndarray:
    """Where an array from _numbers holds no integer: nan, or a finite
    non-integral float (never in an integer array). An infinite id is an
    integer out of any range."""
    return np.isnan(ids) | (np.isfinite(ids) & (ids != np.trunc(ids)))


def _vertex_ids(values, n: int, what: str | None = None) -> np.ndarray:
    """values as int64 vertex ids of a graph of n vertices, by the
    constructor's rule for edge ids: ValueError at the first entry that is
    not an integer or lies outside [0, n), naming the entry as given; a
    GraphError whose message opens with `what`, unless what is None."""
    values = values if isinstance(values, np.ndarray) else list(values)
    ids = _numbers(values)
    not_integer = _not_integer(ids)
    # the range is checked before the ids become int64, which would wrap
    # or saturate an inf or an id of 2**63 or more
    bad = np.flatnonzero(not_integer | ~((ids >= 0) & (ids < n)))
    if len(bad):
        i = bad[0]
        fault = "is not an integer" if not_integer[i] else f"is outside 0..{n - 1}"
        fault = f"vertex {_shown(values[i])!r} {fault}"
        raise ValueError(fault) if what is None else GraphError(f"{what} {fault}")
    return ids.astype(np.int64)


def _shown(x):
    """x for a message: a numpy scalar as its Python value, an integral float
    as an int."""
    x = x.item() if isinstance(x, np.generic) else x
    return int(x) if isinstance(x, float) and x.is_integer() else x


def _edge_columns(n: int, edges) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The checked ids (int64) and weights (float64) of edges. GraphError at
    the first bad edge in edge order, and in it at the first of: an id that
    is not an integer or lies outside [0, n), a self-loop, a weight that is
    not a number or is negative, nan or inf."""
    if isinstance(edges, np.ndarray):
        rows = edges.reshape(0, 3) if edges.size == 0 else edges
        if rows.ndim != 2 or rows.shape[1] != 3:
            raise GraphError(f"an edge array must have shape (m, 3), got {edges.shape}")
        cols = rows.T
    else:
        rows = [tuple(r) for r in edges]
        if set(map(len, rows)) - {3}:
            bad = next(r for r in rows if len(r) != 3)
            raise GraphError(f"edge {bad!r} is not a (u, v, w) triple")
        cols = list(zip(*rows)) or [(), (), ()]
    u, v, w = map(_numbers, cols)
    not_integer = _not_integer(u) | _not_integer(v)
    outside = ~((u >= 0) & (u < n) & (v >= 0) & (v < n))
    bad = not_integer | outside | (u == v) | ~(w >= 0) | np.isinf(w)
    if bad.any():
        i = int(np.argmax(bad))
        a, b, x = rows[i]
        a, b = _shown(a), _shown(b)
        if not_integer[i]:
            raise GraphError(f"edge ({a!r},{b!r}) has a vertex id that is not an integer")
        if outside[i]:
            raise GraphError(f"edge ({a},{b}) has a vertex id outside [0,{n})")
        if a == b:
            raise GraphError(f"self-loop at vertex {a}")
        x = x.item() if isinstance(x, np.generic) else x
        x = float(x) if isinstance(x, int) and not isinstance(x, bool) else x
        raise GraphError(f"edge ({a},{b}) has invalid weight {x!r}")
    return u.astype(np.int64), v.astype(np.int64), w.astype(np.float64)


class VertexMask:
    """Set of still-alive vertices; induces the residual subgraph.

    A mask from `without` is a _DeferredMask until its set is first read
    (alive, len, in, iter, ==, hash): a residual that nothing reads, such as
    a greedy run's record subgraph past group 0, never builds its set."""

    __slots__ = ("n", "alive", "_parent", "_gone", "__weakref__")

    def __init__(self, n: int, alive):
        self.n = n = _integer("n", n, least=1)
        self.alive = frozenset(_vertex_ids(alive, n, "mask").tolist())

    @classmethod
    def full(cls, n: int) -> "VertexMask":
        n = _integer("n", n, least=1)
        return cls._of_valid(n, frozenset(range(n)))  # a range's ids are valid

    @classmethod
    def _of_valid(cls, n: int, alive: frozenset) -> "VertexMask":
        """A mask of ids already known to be Python ints in [0, n), unchecked."""
        mask = object.__new__(cls)
        mask.n, mask.alive = n, alive
        return mask

    def without(self, vertices) -> "VertexMask":
        """This mask minus vertices, which are read now (a generator, or a
        list changed later, gives the ids it held at the call); the set
        difference is taken on the first read."""
        mask = object.__new__(_DeferredMask)
        mask.n, mask._parent, mask._gone = self.n, self, tuple(vertices)
        return mask

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


_ALIVE = VertexMask.alive  # the slot itself, past _DeferredMask's property


class _DeferredMask(VertexMask):
    """A mask from `without` before its first read: it holds its parent and
    the removed ids (_parent, _gone) instead of a set. Reading alive builds
    the set from the nearest built ancestor, without building the masks in
    between, stores it in VertexMask's slot, drops the parent and the ids,
    and makes the object a plain VertexMask. So a built mask reads alive
    from its slot, as fast as a mask that was never deferred."""

    __slots__ = ()

    @property
    def alive(self) -> frozenset:
        gone, base = self._gone, self._parent
        while type(base) is _DeferredMask:
            gone, base = gone + base._gone, base._parent
        alive = base.alive.difference(gone)
        _ALIVE.__set__(self, alive)
        self._parent = self._gone = None
        self.__class__ = VertexMask
        return alive


@dataclass(frozen=True)
class Path:
    """A walk along graph edges; length is the sum of traversed edge weights."""

    vertices: tuple[int, ...]
    length: float

    @classmethod
    def from_vertices(cls, g: WeightedGraph, vertices) -> "Path":
        vertices = tuple(_vertex_ids(vertices, g.n, "path").tolist())
        if not vertices:
            raise GraphError("a path needs at least one vertex")
        return cls(vertices, _walk_sums(g, vertices)[-1])

    def __len__(self):
        return len(self.vertices)


def _walk_sums(g: WeightedGraph, vertices) -> list[float]:
    """The left-to-right float prefix sums, from 0.0, of the lightest edge
    weight of each consecutive pair of vertices: a walk's length is the last.
    GraphError at the first pair that is not adjacent."""
    sums = [0.0]
    for a, b in zip(vertices, vertices[1:]):
        sums.append(sums[-1] + g.edge_weight(a, b))
    return sums


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

    Relaxation is strict (<), so ties never rewrite a parent: a vertex's
    parent is the first vertex, in the (distance, id) pop order, whose edge
    gives its distance. The tree follows that order, not the adjacency order.
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
    _require_mask(g, mask, src)
    reached, tree = _dijkstra(g, mask, src)
    dist = [INF] * g.n
    parent = [-1] * g.n
    for v, d in reached.items():
        dist[v] = d
        parent[v] = tree[v]
    return ShortestPaths(src, tuple(dist), tuple(parent))


def ball(g: WeightedGraph, mask: VertexMask, center: int, radius: float) -> frozenset:
    """Closed ball {v alive : d_residual(center, v) <= radius}."""
    _require_mask(g, mask, center, "center")
    radius = _require_radius(radius)
    dist, _ = _dijkstra(g, mask, center, cutoff=radius)
    # only reached vertices have a (finite) distance; unreachable ones are
    # never in the ball, even at radius == INF (where it is the whole component)
    return frozenset(v for v, d in dist.items() if d <= radius)


def components(g: WeightedGraph, mask: VertexMask) -> list[VertexMask]:
    """Connected components of the residual graph, ordered by smallest member id."""
    _require_mask(g, mask)
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


def _delete_in_place(sub: sp.csr_matrix, gone: np.ndarray) -> None:
    """Delete from the slice sub, by weight, the local vertices where the
    boolean array gone is true: every edge into one of them gets weight inf,
    written into sub.data, so sub must own its weights (a full mask's slice
    is the graph's own CSR). Under a finite limit, scipy's Dijkstra then
    gives the distances and predecessors of the slice without them (see
    _distance_on). One scan of every entry."""
    sub.data[gone[sub.indices]] = INF


def _principal(csr: sp.csr_matrix, keep: np.ndarray) -> sp.csr_matrix:
    """The principal submatrix of csr on its sorted, distinct indices keep,
    each row's entries in stored order: the one slicing formula. Applied to
    a principal submatrix of the graph's CSR it gives the submatrix of the
    graph's CSR on the same vertices, array for array, also after vertices
    outside keep were deleted by weight (their edges are dropped)."""
    first, count = csr.indptr[keep], csr.indptr[keep + 1] - csr.indptr[keep]
    # the rows' entries in stored order, kept where their column is kept,
    # through an id map over csr's rows, as scipy's indexing uses
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
    makes for a single source. Vertices deleted by _delete_in_place are
    absent: scipy relaxes an edge only when the sum it gives is at most the
    limit, and a sum over an inf edge is inf, above any finite limit (even
    at limit inf a vertex keeps inf, as d + inf < inf never holds)."""
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
    _require_mask(g, mask)
    radius = _require_radius(radius)
    sub, verts = induced(g, mask)
    local = np.searchsorted(verts, sources)
    if not np.array_equal(verts.take(local, mode="clip"), sources):
        raise MaskError("every source must be alive in the mask")
    parts = [(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0))]
    parts.extend(_balls_on(g, sub, verts, local, radius))
    return tuple(np.concatenate(a) for a in zip(*parts))


def _balls_on(g: WeightedGraph, sub: sp.csr_matrix, verts: np.ndarray, local: np.ndarray,
              radius: float):
    """balls on a prebuilt slice sub of the ids verts, from its local indices
    local, one block at a time: yields (row, vert, dist) per SOURCE_BLOCK
    sources, each sorted by (row, vert), the blocks in row order. The slice
    may hold vertices that no source reaches: they add no entry."""
    sweep = len(local) >= SOURCE_BLOCK
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
        out = (first + row, ids[flat - row * width], dist.ravel().take(flat))
        del dist  # freed before the next block is computed
        yield out


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
    _require_mask(g, mask, src)
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
        _require_mask(g, mask, src)
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
    # edge_weight reads from adj, the CSR's rows. So dist[v] is the same
    # left-to-right float sum over the same edges, starting from 0.0.
    paths = []
    for a, b in zip(u.tolist(), v.tolist()):
        walk = [b]
        while walk[-1] != a:
            walk.append(int(pred[walk[-1]]))
        paths.append(Path(tuple(verts[walk[::-1]].tolist()), float(dist[b])))
    return paths


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


def _component_masks(g: WeightedGraph, count: int, union, label: np.ndarray,
                     first: np.ndarray) -> list[list[VertexMask]]:
    """components(g, mask) for each of the count masks of a level union, from
    the union and its _component_labels."""
    _, verts, owner = union
    out: list[list[VertexMask]] = [[] for _ in range(count)]
    ids = verts[np.argsort(label, kind="stable")].tolist()
    ends = np.cumsum(np.bincount(label, minlength=len(first))).tolist()
    for k, a, b in zip(owner[first].tolist(), [0] + ends, ends):
        out[k].append(VertexMask._of_valid(g.n, frozenset(ids[a:b])))
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
            place, parts = f"{path}:{lineno}", line.split()
            if header is None:
                if len(parts) != 2:
                    raise GraphError(f"{place}: expected header 'n m'")
                header = _fields(place, parts, (("vertex count", int), ("edge count", int)))
                continue
            if len(parts) != 3:
                raise GraphError(f"{place}: expected 'u v w'")
            edges.append(_fields(place, parts,
                                 (("vertex id", int), ("vertex id", int), ("weight", float))))
    if header is None:
        raise GraphError(f"{path}: empty graph file")
    n, m = header
    if len(edges) != m:
        raise GraphError(f"{path}: header promises {m} edges, found {len(edges)}")
    return WeightedGraph(n, edges)


def _fields(place: str, parts: list[str], kinds) -> tuple:
    """The tokens of one load_graph line, each parsed by its (name, int or
    float) in kinds; GraphError at place, naming the first token that does
    not parse."""
    out = []
    for token, (name, parse) in zip(parts, kinds):
        try:
            out.append(parse(token))
        except ValueError:
            kind = "an integer" if parse is int else "a number"
            raise GraphError(f"{place}: {name} {token!r} is not {kind}") from None
    return tuple(out)


def dump_graph(g: WeightedGraph, path) -> None:
    """Write the edge-list format accepted by load_graph."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{g.n} {len(g.edges)}\n")
        for u, v, w in g.edges:
            fh.write(f"{u} {v} {w!r}\n")
