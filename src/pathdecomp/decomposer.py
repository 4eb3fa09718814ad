"""Low-diameter random partitions by carving balls around separator-path centers.

Phase one walks the separator recursion. It finds the separators level by
level: the nodes of one depth are pairwise disjoint and non-adjacent, so the
greedy finder runs over a whole level at once (other finders once per node).
It then visits the nodes depth-first, as a per-node recursion would, places
net points (spacing delta/4) on every separator path, and pairs each net
point with the residual subgraph its path lived in. It also builds the
sequence's BallIndex: every center's maximal ball (radius 2*delta/5),
computed in the center's own subgraph, not the full graph, stored
vertex-major as (record, distance) incidences, with one sweep per level.

Phase two draws one truncated-exponential radius per center, in sequence
order. The first claim wins: a vertex joins the first center in that order
whose ball of the drawn radius reaches it. Over the index that is one numpy
reduction per trial, with no loop over centers: a vertex's label is the
smallest rank among its incidences that lie within their record's radius.

A comparison baseline carves balls in the full graph around all vertices in
random order; there a center's rank is its position in the seed's
permutation.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .graph import Path, VertexMask, WeightedGraph, balls, level_balls
from .nets import PathMetricView, greedy_net
from .sampler import RngStream, TexpParams, texp_sample_many
from .separators import greedy_find, greedy_find_level


class CoverageError(RuntimeError):
    """A vertex was claimed by no ball; impossible for a valid center sequence."""


def ceil_log2(n: int) -> int:
    """Ceiling of log2 for positive integers, computed without float rounding."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return (n - 1).bit_length()


def _paper_k(p_eff: int, n: int) -> int:
    """K = max(2, 9 * p_eff * ceil(log2 n)), the paper's bound on the number of
    centers that can threaten one vertex, up to constants."""
    return max(2, 9 * p_eff * ceil_log2(n))


def _beta_of_k(k: int) -> float:
    return 40.0 * math.log(k) / math.log(2.0)


def _require_valid_delta(delta: float) -> None:
    if not 0 < delta < math.inf:  # nan fails too
        raise ValueError(f"delta must be positive and finite, got {delta}")


def min_radius(delta: float) -> float:
    """delta/4: the smallest carving radius and the net spacing; coverage needs both equal."""
    return delta / 4.0


def max_radius(delta: float) -> float:
    """2*delta/5: the largest carving radius, and the radius of every indexed ball."""
    return 0.4 * delta


def beta_bound(p_eff: int, n: int) -> float:
    """Padding exponent 40*ln(K)/ln(2) with K = max(2, 9 * p_eff * ceil(log2 n))."""
    if p_eff < 1:
        raise ValueError(f"p_eff must be >= 1, got {p_eff}")
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
        subgraphs sharing a key overlap or are adjacent."""
        batches: dict[tuple[int, int], dict[int, tuple[VertexMask, list[int]]]] = {}
        for i, rec in enumerate(records):
            batch = batches.setdefault((rec.depth, rec.group), {})
            batch.setdefault(id(rec.subgraph), (rec.subgraph, []))[1].append(i)
        centers = np.array([rec.center for rec in records], dtype=np.int64)
        parts = (part for batch in batches.values()
                 for part in _incidences(g, list(batch.values()), centers, max_radius(delta)))
        return cls._assemble(g.n, len(records), delta, *(np.concatenate(a) for a in zip(*parts)))

    @classmethod
    def of_all_vertices(cls, g: WeightedGraph, delta: float) -> "BallIndex":
        """Index of every vertex's ball in the full graph; record v is vertex v."""
        full = VertexMask.full(g.n)
        return cls._assemble(g.n, g.n, delta, *balls(g, full, np.arange(g.n), max_radius(delta)))

    @classmethod
    def _assemble(cls, n: int, count: int, delta: float, rec, vert, dist) -> "BallIndex":
        """Index from (record, vertex, distance) incidence arrays."""
        order = np.lexsort((rec, vert))
        starts = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(vert, minlength=n), out=starts[1:])
        return cls(n, count, float(delta), rec[order], dist[order], starts)

    def labels(self, radius: np.ndarray, rank: np.ndarray) -> np.ndarray:
        """First claim per vertex: the smallest rank[r] over the records r whose
        ball of radius radius[r] reaches the vertex. Ranks are a permutation of
        range(n_records). Raises CoverageError naming the smallest vertex that
        no ball reaches."""
        hit = np.where(self.distance <= radius[self.record], rank[self.record], self.n_records)
        out = np.full(self.n, self.n_records, dtype=np.int64)
        seg = self.starts[:-1]
        nonempty = seg < self.starts[1:]
        out[nonempty] = np.minimum.reduceat(hit, seg[nonempty])
        missing = np.flatnonzero(out == self.n_records)
        if missing.size:
            raise CoverageError(f"vertex {int(missing[0])} was claimed by no ball")
        return out


def _incidences(g: WeightedGraph, batch, centers: np.ndarray, radius: float):
    """(record, vertex, distance) arrays of the balls of a batch [(subgraph,
    record ids)], centers[r] being record r's center. One subgraph is one
    graph.balls query. Several must be disjoint and non-adjacent: round t
    sweeps their union from the t-th center of each that has one
    (graph.level_balls)."""
    if len(batch) == 1:
        (mask, ids), = batch
        row, vert, dist = balls(g, mask, centers[ids], radius)
        yield np.asarray(ids)[row], vert, dist
        return
    rounds = range(max(len(ids) for _, ids in batch))
    sources = [[centers[ids[t]] if t < len(ids) else None for _, ids in batch] for t in rounds]
    swept = level_balls(g, [mask for mask, _ in batch], sources, radius)
    for t, (owner, verts, dist) in zip(rounds, swept):
        record = np.array([ids[t] if t < len(ids) else -1 for _, ids in batch])
        yield record[owner], verts, dist


@dataclass(frozen=True)
class CenterSequence:
    """Output of the center-selection phase, plus audit metadata.

    records are in emission order; paths[path_id] is the separator path a
    record came from; separators holds (node mask, separator) per recursion
    node, in visit order. p_eff is the largest number of separator paths any
    single recursion node needed. delta is the scale the nets were built
    for; carve refuses params or a graph the sequence was not built for.
    index holds the records' maximal balls at that scale.
    """

    records: tuple[CenterRecord, ...]
    paths: tuple[Path, ...]
    separators: tuple
    p_eff: int
    max_depth: int
    n: int
    delta: float
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
        return cls._with_k(delta, seed, 0, n, max(2, n))

    @classmethod
    def _with_k(cls, delta: float, seed: int, p_eff: int, n: int,
                K: int) -> "DecompositionParams":
        _require_valid_delta(delta)
        return cls(delta, int(seed), p_eff, n, K, delta / (10.0 * math.log(K)))

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


def _graph_cached(g: WeightedGraph, slot: str, delta: float, finder, build):
    """The value g keeps in `slot`, if it was built for an equal delta and
    this very finder (`is`); else build(), kept in the slot in its place.

    Every cache of derived structures on a graph goes through here (the
    slots are listed at WeightedGraph._cache). A slot holds (delta, finder,
    value) of the latest build only. The old value leaves the slot before
    the build, so a build that raises leaves the slot empty. The finder
    object itself is kept, so its id cannot be reused while it is compared.
    Sharing the value is safe: the graph is immutable and the values frozen.
    """
    kept = g._cache.get(slot)
    if kept is not None and kept[0] == delta and kept[1] is finder:
        return kept[2]
    g._cache.pop(slot, None)
    kept = None  # let the old value go before the build
    value = build()
    g._cache[slot] = (delta, finder, value)
    return value


def choose_centers(g: WeightedGraph, delta: float, finder=greedy_find) -> CenterSequence:
    """Deterministic center/subgraph sequence for carving at scale delta.

    The sequence depends on (g, delta, finder) only, so the graph keeps the
    latest one: a call with an equal delta and the same finder object
    returns that sequence, and any other call builds a new one in its place.

    The separators are found level by level: the nodes of one depth are
    pairwise disjoint and non-adjacent, so greedy_find runs over each level
    at once (greedy_find_level); any other finder is called once per node.
    The records are then emitted depth-first over the recursion: each node
    emits net points for its groups in order (paths in finder order, net
    points in path order), then recurses into its flaps in smallest-id order.
    """
    _require_valid_delta(delta)
    return _graph_cached(g, "centers", delta, finder,
                         lambda: _build_centers(g, delta, finder))


def _build_centers(g: WeightedGraph, delta: float, finder) -> CenterSequence:
    if finder is greedy_find:
        find_level = greedy_find_level
    else:
        def find_level(g, masks):
            return [finder(g, mask) for mask in masks]

    # levels[d]: (mask, separator) per node of depth d; the children of node i
    # are the next level's nodes first_child[d][i] onwards, one per flap
    levels, first_child = [], []
    masks = [VertexMask.full(g.n)]
    while masks:
        seps = find_level(g, masks)
        levels.append(list(zip(masks, seps)))
        first_child.append(list(itertools.accumulate((len(sep.flaps) for sep in seps), initial=0)))
        masks = [flap for sep in seps for flap in sep.flaps]

    records: list[CenterRecord] = []
    paths: list[Path] = []
    separators = []
    r = min_radius(delta)
    p_eff = 1
    max_depth = 0
    stack = [(0, 0)]
    while stack:
        depth, i = stack.pop()
        mask, sep = levels[depth][i]
        separators.append((mask, sep))
        p_eff = max(p_eff, sep.total_paths)
        max_depth = max(max_depth, depth)
        for gi, group in enumerate(sep.groups):
            for path in group.paths:
                pid = len(paths)
                paths.append(path)
                view = PathMetricView.from_path(g, path)
                for c in greedy_net(view, r):
                    records.append(
                        CenterRecord(c, group.residual_before, len(records), depth, pid, gi)
                    )
        # LIFO stack: push children reversed so they are visited in smallest-id order
        first = first_child[depth][i]
        stack.extend((depth + 1, j) for j in reversed(range(first, first + len(sep.flaps))))

    return CenterSequence(
        tuple(records), tuple(paths), tuple(separators), p_eff, max_depth, g.n, delta,
        BallIndex.of_records(g, records, delta),
    )


def _require_matching(g: WeightedGraph, seq: CenterSequence, params: DecompositionParams) -> None:
    """Refuse params whose delta, p_eff or n, or a graph whose n, is not the sequence's."""
    for name, got, want in (("delta", params.delta, seq.delta), ("graph n", g.n, seq.n),
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
    cuts = np.cumsum(np.bincount(cluster_of))[:-1]
    clusters = [
        Cluster(verts, record_of(r), float(radii[r]))
        for r, verts in zip(ranks.tolist(), np.split(by_cluster, cuts))
    ]
    return Partition(cluster_of, clusters)


def _carve_labels(centers: CenterSequence, params: DecompositionParams) -> tuple:
    """First-claim labels of one paper-scheme trial (rank = record position),
    and the radii drawn for it, one per record in sequence order."""
    radii = texp_sample_many(params.texp(), RngStream(params.seed), len(centers.records))
    return centers.index.labels(radii, np.arange(len(radii))), radii


def carve(g: WeightedGraph, centers: CenterSequence, params: DecompositionParams) -> Partition:
    """Random-radius ball carving over the centers chosen for g and params' delta, p_eff and n."""
    _require_matching(g, centers, params)
    labels, radii = _carve_labels(centers, params)
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


def _baseline_labels(g: WeightedGraph, delta: float, seed: int) -> tuple:
    """First-claim labels of one baseline trial, the carving order, and the
    radii: the seed's stream gives the permutation first, then one radius per
    position. A vertex's rank is its position in the permutation."""
    params = DecompositionParams.for_baseline(delta, seed, g.n)
    rng = RngStream(seed)
    order = rng.permutation(g.n)
    radii = texp_sample_many(params.texp(), rng, g.n)
    rank = np.empty(g.n, dtype=np.int64)
    rank[order] = np.arange(g.n)
    return _baseline_index(g, delta).labels(radii[rank], rank), order, radii


def baseline_decompose(g: WeightedGraph, delta: float, seed: int) -> Partition:
    """Ball carving in the full graph with all vertices as centers, in an order
    shuffled by the seed; the classical all-centers comparison scheme."""
    labels, order, radii = _baseline_labels(g, delta, seed)
    full = VertexMask.full(g.n)

    def record_of(rank: int) -> CenterRecord:
        v = int(order[rank])
        return CenterRecord(v, full, v, 0, -1)

    return _partition(labels, radii, record_of)


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
