"""Low-diameter random partitions by carving balls around separator-path centers.

Phase one walks the separator recursion: at every node it asks a finder for a
path separator, places net points (spacing delta/4) on every separator path,
and pairs each net point with the residual subgraph its path lived in. Phase
two draws one truncated-exponential radius per center, in sequence order, and
lets each center claim the not-yet-claimed part of its ball, which is computed
in the center's own subgraph, not the full graph.

A comparison baseline carves balls in the full graph around all vertices in
random order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.csgraph import dijkstra as csgraph_dijkstra

from .graph import VertexMask, WeightedGraph, Path, induced
from .nets import PathMetricView, greedy_net
from .sampler import RngStream, TexpParams, texp_sample_many
from .separators import greedy_find


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


def beta_bound(p_eff: int, n: int) -> float:
    """Padding exponent 40*ln(K)/ln(2) with K = max(2, 9 * p_eff * ceil(log2 n))."""
    if p_eff < 1:
        raise ValueError(f"p_eff must be >= 1, got {p_eff}")
    return _beta_of_k(_paper_k(p_eff, n))


@dataclass(eq=False)
class CenterRecord:
    """One carving center: the vertex, the subgraph its ball lives in, and its
    position in the global sequence."""

    center: int
    subgraph: VertexMask
    order: int
    depth: int
    path_id: int
    _profile: tuple | None = field(default=None, repr=False)


@dataclass(frozen=True)
class CenterSequence:
    """Output of the center-selection phase, plus audit metadata.

    records are in emission order; paths[path_id] is the separator path a
    record came from; separators holds (node mask, separator) per recursion
    node, in visit order. p_eff is the largest number of separator paths any
    single recursion node needed. delta is the scale the nets were built
    for; carving at another scale is refused.
    """

    records: tuple[CenterRecord, ...]
    paths: tuple[Path, ...]
    separators: tuple
    p_eff: int
    max_depth: int
    n: int
    delta: float


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
        if delta <= 0:
            raise ValueError(f"delta must be positive, got {delta}")
        return cls(delta, int(seed), p_eff, n, K, delta / (10.0 * math.log(K)))

    def beta(self) -> float:
        """Padding exponent 40*ln(K)/ln(2) of this scheme."""
        return _beta_of_k(self.K)

    def texp(self) -> TexpParams:
        return TexpParams(self.lam, self.delta / 4.0, 0.4 * self.delta)


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


def choose_centers(g: WeightedGraph, delta: float, finder=greedy_find) -> CenterSequence:
    """Deterministic center/subgraph sequence for carving at scale delta.

    Depth-first over the separator recursion: each node emits net points for
    its groups in order (paths in finder order, net points in path order),
    then recurses into its flaps in smallest-id order.
    """
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    records: list[CenterRecord] = []
    paths: list[Path] = []
    separators = []
    r = delta / 4.0
    p_eff = 1
    max_depth = 0

    stack = [(VertexMask.full(g.n), 0)]
    while stack:
        mask, depth = stack.pop()
        sep = finder(g, mask)
        separators.append((mask, sep))
        p_eff = max(p_eff, sep.total_paths)
        max_depth = max(max_depth, depth)
        for group in sep.groups:
            for path in group.paths:
                pid = len(paths)
                paths.append(path)
                view = PathMetricView.from_path(g, path)
                for c in greedy_net(view, r):
                    records.append(
                        CenterRecord(c, group.residual_before, len(records), depth, pid)
                    )
        # LIFO stack: push flaps reversed so they are visited in smallest-id order
        for flap in reversed(sep.flaps):
            stack.append((flap, depth + 1))

    return CenterSequence(
        tuple(records), tuple(paths), tuple(separators), p_eff, max_depth, g.n, delta
    )


def _ensure_profiles(g: WeightedGraph, records, delta: float) -> None:
    """Attach to each record the sorted (distance, vertex) arrays of its maximal
    ball (radius 2*delta/5 in its own subgraph). Records sharing a subgraph are
    solved in one multi-source Dijkstra."""
    cutoff = 0.4 * delta
    pending: dict[int, tuple[VertexMask, list[CenterRecord]]] = {}
    for rec in records:
        if rec._profile is not None and rec._profile[0] == cutoff:
            continue
        key = id(rec.subgraph)
        pending.setdefault(key, (rec.subgraph, []))[1].append(rec)
    for mask, recs in pending.values():
        sub, verts = induced(g, mask)
        centers_local = np.searchsorted(verts, [rec.center for rec in recs])
        dmat = csgraph_dijkstra(
            sub, directed=False, indices=centers_local,
            limit=float(np.nextafter(cutoff, np.inf)),
        )
        dmat = np.atleast_2d(dmat)
        for rec, row in zip(recs, dmat):
            sel = np.nonzero(row <= cutoff)[0]
            order = np.lexsort((verts[sel], row[sel]))
            rec._profile = (cutoff, row[sel][order], verts[sel][order])


def _carve_records(g: WeightedGraph, records, params: DecompositionParams,
                   rng: RngStream) -> Partition:
    """Shared carving loop: one radius per record, in order, first claim wins."""
    _ensure_profiles(g, records, params.delta)
    radii = texp_sample_many(params.texp(), rng, len(records))
    cluster_of = np.full(g.n, -1, dtype=np.int64)
    clusters: list[Cluster] = []
    for rec, radius in zip(records, radii):
        _, dists, verts = rec._profile
        k = int(np.searchsorted(dists, radius, side="right"))
        sel = verts[:k]
        fresh = sel[cluster_of[sel] < 0]
        if fresh.size == 0:
            continue  # empty clusters are dropped
        cluster_of[fresh] = len(clusters)
        clusters.append(Cluster(np.sort(fresh), rec, float(radius)))
    if (cluster_of < 0).any():
        missing = int(np.nonzero(cluster_of < 0)[0][0])
        raise CoverageError(f"vertex {missing} was claimed by no ball")
    return Partition(cluster_of, clusters)


def carve(g: WeightedGraph, centers: CenterSequence, params: DecompositionParams) -> Partition:
    """Random-radius ball carving over a center sequence built at the same delta."""
    if params.delta != centers.delta:
        raise ValueError(
            f"params.delta={params.delta!r} differs from the delta={centers.delta!r} "
            f"the centers were chosen for"
        )
    return _carve_records(g, centers.records, params, RngStream(params.seed))


def decompose(g: WeightedGraph, delta: float, seed: int, finder=greedy_find) -> Partition:
    """Full pipeline: choose centers, measure p_eff, carve. Deterministic in
    (graph, delta, seed)."""
    seq = choose_centers(g, delta, finder)
    params = DecompositionParams.for_graph(delta, seed, seq.p_eff, g.n)
    return carve(g, seq, params)


def _baseline_records(g: WeightedGraph) -> list[CenterRecord]:
    if "baseline_records" not in g._cache:
        full = VertexMask.full(g.n)
        g._cache["baseline_records"] = [
            CenterRecord(v, full, v, 0, -1) for v in range(g.n)
        ]
    return g._cache["baseline_records"]


def baseline_decompose(g: WeightedGraph, delta: float, seed: int) -> Partition:
    """Ball carving in the full graph with all vertices as centers, in an order
    shuffled by the seed; the classical all-centers comparison scheme."""
    params = DecompositionParams.for_baseline(delta, seed, g.n)
    records = _baseline_records(g)
    rng = RngStream(seed)
    order = rng.permutation(g.n)
    return _carve_records(g, [records[i] for i in order], params, rng)


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
