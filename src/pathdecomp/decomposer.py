"""Low-diameter random partitions by carving balls around separator-path centers.

Phase one walks the separator recursion. It finds the separators level by
level: the nodes of one depth are pairwise disjoint and non-adjacent, so the
greedy finder runs over a whole level at once (other finders once per node).
It then visits the nodes depth-first, as a per-node recursion would, places
net points (spacing delta/4) on every separator path, and pairs each net
point with the residual subgraph its path lived in. It also builds the
sequence's BallIndex: every center's maximal ball (radius 2*delta/5),
computed in the center's own subgraph, not the full graph, stored
vertex-major as (record, distance) incidences. Under the greedy finder each
finder round indexes the balls of its own paths' net points, on the slice of
the residuals that the round already holds: one graph.balls query for one
node, one sweep per net-point rank for several. Other finders' records are
indexed after the walk, batched by (depth, group) key (BallIndex.of_records).

Phase two draws one truncated-exponential radius per center, in sequence
order. The first claim wins: a vertex joins the first center in that order
whose ball of the drawn radius reaches it. Over the index that is one numpy
reduction per trial, with no loop over centers: a vertex's label is the
smallest rank among its incidences that lie within their record's radius.
A padding trial (verifier.estimate_padding) reads the labels of the ball
members only, so it runs that reduction over BallIndex.restrict(members).
That is exact when the smallest radius the law can draw is at least the
index's reach, the largest nearest-incidence distance of any vertex: every
vertex is then claimed. Otherwise the call's trials label the whole graph,
which raises the CoverageError of carving.

A comparison baseline carves balls in the full graph around all vertices in
random order; there a center's rank is its position in the seed's
permutation.

Arguments follow graph.py's rules: n, p_eff and seeds are graph._integer
integers, and delta is a graph._real number that _require_valid_delta
then requires positive and finite.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .graph import (
    Path,
    VertexMask,
    WeightedGraph,
    _balls_on,
    _integer,
    _level_union,
    _reach,
    _real,
    _require_mask,
    concat_ranges,
)
from .nets import PathMetricView, greedy_net
from .sampler import RngStream, TexpParams, texp_sample_many
from .separators import _greedy_find_level, greedy_find


class CoverageError(RuntimeError):
    """A vertex was claimed by no ball; impossible for a valid center sequence."""


def ceil_log2(n: int) -> int:
    """Ceiling of log2 for positive integers, computed without float rounding."""
    return (_integer("n", n, least=1) - 1).bit_length()


def _paper_k(p_eff: int, n: int) -> int:
    """K = max(2, 9 * p_eff * ceil(log2 n)), the paper's bound on the number of
    centers that can threaten one vertex, up to constants."""
    return max(2, 9 * _integer("p_eff", p_eff, least=1) * ceil_log2(n))


def _beta_of_k(k: int) -> float:
    return 40.0 * math.log(k) / math.log(2.0)


def _require_valid_delta(delta: float) -> float:
    """delta as a Python float (graph._real), positive and finite."""
    delta = _real("delta", delta)
    if not 0 < delta < math.inf:  # nan fails too
        raise ValueError(f"delta must be positive and finite, got {delta}")
    return delta


def min_radius(delta: float) -> float:
    """delta/4: the smallest carving radius and the net spacing; coverage needs both equal."""
    return delta / 4.0


def max_radius(delta: float) -> float:
    """2*delta/5: the largest carving radius, and the radius of every indexed ball."""
    return 0.4 * delta


def beta_bound(p_eff: int, n: int) -> float:
    """Padding exponent 40*ln(K)/ln(2) with K = max(2, 9 * p_eff * ceil(log2 n))."""
    return _beta_of_k(_paper_k(p_eff, n))


@dataclass(frozen=True, eq=False)
class CenterRecord:
    """One carving center: the vertex, the subgraph its ball lives in, its
    position in the global sequence, and its index batch key (depth, group)."""

    center: int
    subgraph: VertexMask
    order: int
    depth: int
    path_id: int
    group: int = 0  # position of its separator group in its recursion node


@dataclass(frozen=True, eq=False)
class BallIndex:
    """The maximal balls (radius 2*delta/5) of a list of records, vertex-major.

    Vertex v's incidences are positions starts[v]:starts[v + 1] of `record`
    and `distance`, sorted by record: record i's center lies at that distance
    from v in record i's own subgraph, at most 2*delta/5. Records are numbered
    0..n_records-1 by their position in the list the index was built from.
    The arrays are read-only.
    """

    n: int
    n_records: int
    delta: float
    record: np.ndarray
    distance: np.ndarray
    starts: np.ndarray

    def __post_init__(self):
        for arr in (self.record, self.distance, self.starts):
            arr.flags.writeable = False

    @classmethod
    def of_records(cls, g: WeightedGraph, records, delta: float) -> "BallIndex":
        """Index of each record's ball in its subgraph. Records sharing a
        subgraph, or a batch key, are solved together. Raises ValueError when
        subgraphs sharing a key overlap or are adjacent or a subgraph is over
        another vertex count than g's, and MaskError when a center lies
        outside its subgraph (graph._require_mask)."""
        batches: dict[tuple[int, int], dict[int, tuple[VertexMask, list[int]]]] = {}
        for i, rec in enumerate(records):
            _require_mask(g, rec.subgraph, rec.center, "center")
            batch = batches.setdefault((rec.depth, rec.group), {})
            batch.setdefault(id(rec.subgraph), (rec.subgraph, []))[1].append(i)
        centers = np.array([rec.center for rec in records], dtype=np.int64)
        parts = []
        for batch in batches.values():
            ids = [np.array(k_ids) for _, k_ids in batch.values()]
            union = _level_union(g, [mask for mask, _ in batch.values()])
            parts.extend(_incidences(g, union, ids, [centers[k_ids] for k_ids in ids],
                                     max_radius(delta)))
        return cls._assemble(g.n, len(records), delta, *(np.concatenate(a) for a in zip(*parts)))

    @classmethod
    def of_all_vertices(cls, g: WeightedGraph, delta: float) -> "BallIndex":
        """Index of every vertex's ball in the full graph; record v is vertex v.

        The balls come from graph._balls_on block by block, in source order,
        and no row-major concatenation of them is built: each block keeps its
        vertices, distances and per-row counts, and is scattered into the
        vertex-major arrays once every vertex's count is known, then freed.
        A vertex's entries arrive in record order, block after block and, by
        a stable sort on the vertex, row after row within a block: the
        (vertex, record) order of _assemble."""
        n, sources = g.n, np.arange(g.n)
        blocks, starts = [], np.zeros(n + 1, dtype=np.int64)
        for row, vert, dist in _balls_on(g, g.csr(), sources, sources, max_radius(delta)):
            # a block is never empty: each source lies in its own ball
            blocks.append((row[0], np.bincount(row - row[0]), vert, dist))
            starts[1:] += np.bincount(vert, minlength=n)
        np.cumsum(starts, out=starts)
        record, distance = np.empty(starts[-1], dtype=np.int64), np.empty(starts[-1])
        fill = starts[:-1].copy()  # each vertex's next free position
        blocks.reverse()
        while blocks:
            first, counts, vert, dist = blocks.pop()
            by_vert = np.argsort(vert, kind="stable")
            vert = vert[by_vert]
            head = np.flatnonzero(np.diff(vert, prepend=-1))  # each vertex's first entry
            size = np.diff(head, append=len(vert))
            at = np.repeat(fill[vert[head]] - head, size) + np.arange(len(vert))
            record[at] = (first + np.repeat(np.arange(len(counts)), counts))[by_vert]
            distance[at] = dist[by_vert]
            fill[vert[head]] += size
        return cls(n, n, float(delta), record, distance, starts)

    @classmethod
    def _assemble(cls, n: int, count: int, delta: float, rec, vert, dist) -> "BallIndex":
        """Index from (record, vertex, distance) incidence arrays."""
        order = np.lexsort((rec, vert))
        starts = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(vert, minlength=n), out=starts[1:])
        return cls(n, count, float(delta), rec[order], dist[order], starts)

    @cached_property
    def _segments(self) -> tuple:
        """The reduceat layout of labels and reach: the first incidence of each
        vertex that has one, and which vertices have one (None when all do)."""
        seg = self.starts[:-1]
        nonempty = seg < self.starts[1:]
        if nonempty.all():
            return seg, None
        return seg[nonempty], nonempty

    @cached_property
    def reach(self) -> float:
        """The largest, over all vertices, of a vertex's nearest incidence
        distance; inf if some vertex has none. When every radius is at least
        reach, labels claims every vertex."""
        seg, nonempty = self._segments
        if nonempty is not None:
            return math.inf
        return float(np.minimum.reduceat(self.distance, seg).max(initial=0.0))

    def restrict(self, vertices: np.ndarray) -> "BallIndex":
        """The index of the given vertices only: its vertex i is vertices[i],
        with all of that vertex's incidences and the same records. Its labels
        are labels()[vertices] whenever labels() claims every vertex."""
        lo = self.starts[vertices]
        sizes = self.starts[vertices + 1] - lo
        take = concat_ranges(lo, sizes)
        starts = np.zeros(len(vertices) + 1, dtype=np.int64)
        np.cumsum(sizes, out=starts[1:])
        return BallIndex(len(vertices), self.n_records, self.delta,
                         self.record[take], self.distance[take], starts)

    def labels(self, radius: np.ndarray, rank: np.ndarray) -> np.ndarray:
        """First claim per vertex: the smallest rank[r] over the records r whose
        ball of radius radius[r] reaches the vertex. Ranks are a permutation of
        range(n_records). Raises CoverageError naming the smallest vertex that
        no ball reaches."""
        hit = np.where(self.distance <= radius[self.record], rank[self.record], self.n_records)
        seg, nonempty = self._segments
        if nonempty is None:
            out = np.minimum.reduceat(hit, seg)
        else:
            out = np.full(self.n, self.n_records, dtype=np.int64)
            out[nonempty] = np.minimum.reduceat(hit, seg)
        missing = np.flatnonzero(out == self.n_records)
        if missing.size:
            raise CoverageError(f"vertex {int(missing[0])} was claimed by no ball")
        return out


def _incidences(g: WeightedGraph, union, ids, centers, radius: float):
    """(record, vertex, distance) arrays of the balls in a prebuilt level
    union (graph._level_union): mask k holds the records ids[k], centered at
    centers[k]. One mask is one graph.balls query. Round t of several is one
    sweep of their union (graph._reach) from the t-th center of each that
    has one; a reached vertex lies in the ball of its own mask's center."""
    sub, verts, owner = union
    if len(ids) == 1:
        for row, vert, dist in _balls_on(g, sub, verts, np.searchsorted(verts, centers[0]),
                                         radius):
            yield ids[0][row], vert, dist
        return
    for t in range(max(map(len, ids))):
        hit, dist = _reach(sub, np.searchsorted(verts, [c[t] for c in centers if t < len(c)]),
                           radius)
        record = np.array([k_ids[t] if t < len(k_ids) else -1 for k_ids in ids])
        yield record[owner[hit]], verts[hit], dist


@dataclass(frozen=True)
class CenterSequence:
    """Output of the center-selection phase, plus audit metadata.

    records are in emission order; paths[path_id] is the separator path a
    record came from; separators holds (node mask, separator) per recursion
    node, in visit order. p_eff is the largest number of separator paths any
    single recursion node needed. delta is the scale the nets were built
    for, and graph_digest is the graph's (_graph_digest, a SHA-256 of its
    CSR arrays); carve and the threatener report refuse params or a graph
    the sequence was not built for. index holds the records' maximal balls
    at that scale.
    """

    records: tuple[CenterRecord, ...]
    paths: tuple[Path, ...]
    separators: tuple
    p_eff: int
    max_depth: int
    n: int
    delta: float
    graph_digest: str
    index: BallIndex = field(repr=False)


@dataclass(frozen=True)
class DecompositionParams:
    """Derived carving parameters for one (delta, seed) run."""

    delta: float
    seed: int
    p_eff: int
    n: int
    K: int
    lam: float

    @classmethod
    def for_graph(cls, delta: float, seed: int, p_eff: int, n: int) -> "DecompositionParams":
        return cls._with_k(delta, seed, p_eff, n, _paper_k(p_eff, n))

    @classmethod
    def for_baseline(cls, delta: float, seed: int, n: int) -> "DecompositionParams":
        """The all-centers baseline: every vertex is a center, so K = max(2, n);
        it has no separators and records p_eff as 0."""
        return cls._with_k(delta, seed, 0, n, max(2, _integer("n", n, least=1)))

    @classmethod
    def _with_k(cls, delta: float, seed: int, p_eff: int, n: int,
                K: int) -> "DecompositionParams":
        _require_valid_delta(delta)
        return cls(delta, _integer("seed", seed), p_eff, n, K,
                   delta / (10.0 * math.log(K)))

    def beta(self) -> float:
        """Padding exponent 40*ln(K)/ln(2) of this scheme."""
        return _beta_of_k(self.K)

    def texp(self) -> TexpParams:
        return TexpParams(self.lam, min_radius(self.delta), max_radius(self.delta))


@dataclass
class Cluster:
    vertices: np.ndarray          # sorted vertex ids
    record: CenterRecord | None   # None for hand-built partitions
    radius: float


@dataclass
class Partition:
    """Cluster assignment per vertex plus per-cluster center metadata."""

    cluster_of: np.ndarray        # cluster id per vertex
    clusters: list[Cluster]

    @classmethod
    def from_sets(cls, n: int, vertex_sets) -> "Partition":
        cluster_of = np.full(n, -1, dtype=np.int64)
        clusters = []
        for cid, vs in enumerate(vertex_sets):
            arr = np.array(sorted(vs), dtype=np.int64)
            cluster_of[arr] = cid
            clusters.append(Cluster(arr, None, 0.0))
        return cls(cluster_of, clusters)

    def __len__(self):
        return len(self.clusters)


def _graph_cached(g: WeightedGraph, slot: str, key, finder, build):
    """The value g keeps in `slot`, if it was built for an equal key and
    this very finder (`is`); else build(), kept in the slot in its place.

    Every cache of derived structures on a graph goes through here, and
    this is the one list of its slots (g._cache):

    - "centers": key delta, the CenterSequence of choose_centers;
    - "digest": key None, finder None, the graph's _graph_digest;
    - "baseline_index": key delta, finder None, the BallIndex of the
      baseline carving;
    - "sample": key the integer seed, finder None, the read-only vertex
      sample of verifier.sample_vertices;
    - "sample_balls": key (float(radius), vertices.tobytes()) of int64
      vertices, finder None, the read-only full-graph balls and their
      layout (verifier._SampleBalls) that verifier.threatener_report and
      verifier.estimate_padding read.

    A slot holds (key, finder, value) of the latest build only. The old
    value leaves the slot before the build, so a build that raises leaves
    the slot empty. The finder object itself is kept, so its id cannot be
    reused while it is compared. Sharing the value is safe: the graph is
    immutable and the values frozen.
    """
    kept = g._cache.get(slot)
    if kept is not None and kept[0] == key and kept[1] is finder:
        return kept[2]
    g._cache.pop(slot, None)
    kept = None  # let the old value go before the build
    value = build()
    g._cache[slot] = (key, finder, value)
    return value


def _graph_digest(g: WeightedGraph) -> str:
    """The SHA-256, in hex, of g's CSR arrays (indptr, indices, data, each its
    dtype and bytes), which fix the graph's metric; kept on the graph."""
    def build():
        h = hashlib.sha256()
        for a in (g.csr().indptr, g.csr().indices, g.csr().data):
            h.update(a.dtype.str.encode())
            h.update(a)  # the CSR's arrays are contiguous
        return h.hexdigest()

    return _graph_cached(g, "digest", None, None, build)


def choose_centers(g: WeightedGraph, delta: float, finder=greedy_find) -> CenterSequence:
    """Deterministic center/subgraph sequence for carving at scale delta.

    The sequence depends on (g, delta, finder) only, so the graph keeps the
    latest one: a call with an equal delta and the same finder object
    returns that sequence, and any other call builds a new one in its place.

    The separators are found level by level: the nodes of one depth are
    pairwise disjoint and non-adjacent, so greedy_find runs over each level
    at once (separators._greedy_find_level); any other finder is called once
    per node.
    The records are then emitted depth-first over the recursion: each node
    emits net points for its groups in order (paths in finder order, net
    points in path order), then recurses into its flaps in smallest-id order.
    """
    _require_valid_delta(delta)
    return _graph_cached(g, "centers", delta, finder,
                         lambda: _build_centers(g, delta, finder))


def _build_centers(g: WeightedGraph, delta: float, finder) -> CenterSequence:
    r = min_radius(delta)
    greedy = finder is greedy_find
    # Under greedy_find, each round of the level search indexes its own balls
    # on the union it already holds: the residuals of its nodes, which are the
    # subgraphs of batch key (depth, round). nets[depth, node, round] is the
    # net of the node's path of that round and its first provisional record
    # id; parts holds the incidences under those ids, which are mapped to
    # emission order once the walk below has numbered the records.
    nets: dict[tuple[int, int, int], tuple[int, list[int]]] = {}
    parts = []
    provisional = 0

    def index_round(depth, t, todo, paths, union):
        nonlocal provisional
        ids, centers = [], []
        for i, path in zip(todo, paths):
            net = greedy_net(PathMetricView.from_path(g, path), r)
            nets[depth, i, t] = (provisional, net)
            ids.append(np.arange(provisional, provisional + len(net)))
            centers.append(np.array(net, dtype=np.int64))
            provisional += len(net)
        parts.extend(_incidences(g, union, ids, centers, max_radius(delta)))

    # levels[d]: (mask, separator) per node of depth d; the children of node i
    # are the next level's nodes first_child[d][i] onwards, one per flap
    levels, first_child = [], []
    masks = [VertexMask.full(g.n)]
    while masks:
        if greedy:
            seps = _greedy_find_level(g, masks, partial(index_round, len(levels)))
        else:
            seps = [finder(g, mask) for mask in masks]
        levels.append(list(zip(masks, seps)))
        first_child.append(list(itertools.accumulate((len(sep.flaps) for sep in seps), initial=0)))
        masks = [flap for sep in seps for flap in sep.flaps]

    records: list[CenterRecord] = []
    emitted = []  # each record's provisional id, under greedy_find
    paths: list[Path] = []
    separators = []
    stack = [(0, 0)]
    while stack:
        depth, i = stack.pop()
        mask, sep = levels[depth][i]
        separators.append((mask, sep))
        # group gi's residual, one object for all its records (BallIndex
        # batches by subgraph identity); zip never asks for mask - S. Past
        # group 0 it is a deferred mask: under greedy_find nothing reads it,
        # so it never builds its set
        for gi, (group, residual) in enumerate(zip(sep.groups, sep.residuals(mask))):
            for path in group:
                pid = len(paths)
                paths.append(path)
                if greedy:
                    start, net = nets[depth, i, gi]
                    emitted.extend(range(start, start + len(net)))
                else:
                    net = greedy_net(PathMetricView.from_path(g, path), r)
                for c in net:
                    records.append(CenterRecord(c, residual, len(records), depth, pid, gi))
        # LIFO stack: push children reversed so they are visited in smallest-id order
        first = first_child[depth][i]
        stack.extend((depth + 1, j) for j in reversed(range(first, first + len(sep.flaps))))

    if greedy:
        order = np.empty(len(records), dtype=np.int64)
        order[emitted] = np.arange(len(records))
        rec, vert, dist = (np.concatenate(a) for a in zip(*parts))
        parts.clear()  # the rounds' arrays, freed before the index is sorted
        # to emission order in place (clip: unbuffered, every id is valid)
        np.take(order, rec, out=rec, mode="clip")
        index = BallIndex._assemble(g.n, len(records), delta, rec, vert, dist)
    else:
        index = BallIndex.of_records(g, records, delta)
    # p_eff: the most paths of one node (at least 1); every level has a node
    p_eff = max(1, *(sep.total_paths for _, sep in separators))
    return CenterSequence(tuple(records), tuple(paths), tuple(separators), p_eff,
                          len(levels) - 1, g.n, delta, _graph_digest(g), index)


def _require_matching(g: WeightedGraph, seq: CenterSequence, params: DecompositionParams) -> None:
    """Refuse params whose delta, p_eff or n, or a graph whose n or digest,
    is not the sequence's."""
    for name, got, want in (("delta", params.delta, seq.delta), ("graph n", g.n, seq.n),
                            ("graph digest", _graph_digest(g), seq.graph_digest),
                            ("p_eff", params.p_eff, seq.p_eff), ("n", params.n, seq.n)):
        if got != want:
            raise ValueError(f"{name}={got!r} differs from the {name}={want!r} "
                             f"the centers were chosen for")


def _partition(labels: np.ndarray, radii: np.ndarray,
               record_of: Callable[[int], CenterRecord]) -> Partition:
    """Partition from first-claim labels: one cluster per label in use, in
    rank order, with its vertices sorted. radii and record_of map a rank to
    the radius and the record of the center that holds it."""
    ranks, cluster_of = np.unique(labels, return_inverse=True)
    by_cluster = np.argsort(cluster_of, kind="stable")
    # cluster c's vertices are by_cluster[bounds[c]:bounds[c + 1]]
    bounds = [0, *np.cumsum(np.bincount(cluster_of)).tolist()]
    clusters = [
        Cluster(by_cluster[lo:hi], record_of(r), float(radii[r]))
        for r, lo, hi in zip(ranks.tolist(), bounds, bounds[1:])
    ]
    return Partition(cluster_of, clusters)


def _paper_draw(centers: CenterSequence, texp: TexpParams, rng: RngStream) -> np.ndarray:
    """The radius of each record in one paper-scheme trial, drawn from rng in
    sequence order. A record's rank is its position, in every trial."""
    return texp_sample_many(texp, rng, len(centers.records))


def carve(g: WeightedGraph, centers: CenterSequence, params: DecompositionParams) -> Partition:
    """Random-radius ball carving over the centers chosen for g and params' delta, p_eff and n."""
    _require_matching(g, centers, params)
    radii = _paper_draw(centers, params.texp(), RngStream(params.seed))
    labels = centers.index.labels(radii, np.arange(len(radii)))
    return _partition(labels, radii, centers.records.__getitem__)


def decompose(g: WeightedGraph, delta: float, seed: int, finder=greedy_find) -> Partition:
    """Full pipeline: choose centers, measure p_eff, carve. Deterministic in
    (graph, delta, seed). Calls for several seeds at one delta build the
    centers once: choose_centers reuses the sequence the graph keeps."""
    seq = choose_centers(g, delta, finder)
    params = DecompositionParams.for_graph(delta, seed, seq.p_eff, g.n)
    return carve(g, seq, params)


def _baseline_index(g: WeightedGraph, delta: float) -> BallIndex:
    """All-vertices index at scale delta. The graph keeps the latest one
    only, so at most one baseline index per graph stays in memory."""
    return _graph_cached(g, "baseline_index", delta, None,
                         lambda: BallIndex.of_all_vertices(g, delta))


def _baseline_draw(n: int, texp: TexpParams, rng: RngStream) -> tuple:
    """The carving order of one baseline trial, and the radius and the rank of
    each record (vertex): rng gives the permutation first, then one radius
    per position. A vertex's rank is its position in the permutation."""
    order = rng.permutation(n)
    radii = texp_sample_many(texp, rng, n)
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    return order, radii[rank], rank


def baseline_decompose(g: WeightedGraph, delta: float, seed: int) -> Partition:
    """Ball carving in the full graph with all vertices as centers, in an order
    shuffled by the seed; the classical all-centers comparison scheme."""
    params = DecompositionParams.for_baseline(delta, seed, g.n)
    order, radius, rank = _baseline_draw(g.n, params.texp(), RngStream(params.seed))
    labels = _baseline_index(g, delta).labels(radius, rank)
    full = VertexMask.full(g.n)

    def record_of(rank: int) -> CenterRecord:
        v = int(order[rank])
        return CenterRecord(v, full, v, 0, -1)

    return _partition(labels, radius[order], record_of)


def format_partition(part: Partition, header: dict) -> str:
    """Partition dump: a `key=value` header line, then one `cluster_id vertex_id`
    line per vertex in (cluster, vertex) order."""
    head = " ".join(f"{k}={v}" for k, v in header.items())
    lines = [head]
    for cid, cl in enumerate(part.clusters):
        for v in cl.vertices:
            lines.append(f"{cid} {v}")
    return "\n".join(lines) + "\n"


def dump_partition(part: Partition, params: DecompositionParams, path) -> None:
    header = {
        "delta": repr(params.delta),
        "seed": params.seed,
        "p_eff": params.p_eff,
        "K": params.K,
        "lambda": repr(params.lam),
        "beta": repr(params.beta()),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_partition(part, header))
