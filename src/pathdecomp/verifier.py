"""Empirical certification of decomposition guarantees.

Exact checks: partition validity, cluster diameters (at most 4*delta/5 in the
full-graph metric), every separator certificate of a center sequence,
recursion depth, and the deterministic threatener bound.
The diameter check clears most clusters from one ball around a center, as in
the paper's proof, and searches all pairs only in the clusters it cannot clear;
both passes ask one question, which members lie outside a hub's ball, through
one graph.balls query per call.
Statistical check: Monte-Carlo estimation of the padding probability
Pr[B(x, gamma*delta) stays in one cluster], accepted when the one-sided
Wilson 99% lower confidence bound clears the floor 2^(-beta*gamma).
The graph keeps the vertex sample for its latest seed, and the sampled
vertices' balls, with the layout both padding schemes read, for its latest
(radius, vertices): the threatener report and both padding schemes share
one draw and one graph.balls query.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import repeat
from typing import NamedTuple

import numpy as np
from scipy.special import ndtri

from .decomposer import (
    CenterSequence,
    DecompositionParams,
    Partition,
    _baseline_draw,
    _baseline_index,
    _graph_cached,
    _paper_draw,
    _require_matching,
    _require_valid_delta,
    ceil_log2,
    choose_centers,
    max_radius,
)
from .graph import (
    SOURCE_BLOCK,
    VertexMask,
    WeightedGraph,
    _distance_on,
    _integer,
    _real,
    _vertex_ids,
    balls,
    concat_ranges,
)
from .sampler import RngStream, derive_seed
from .separators import greedy_find, validate_separator

GAMMA_MAX = 1.0 / 100.0
DEFAULT_GAMMAS = (0.0, 1.0 / 400.0, 1.0 / 200.0, 1.0 / 100.0)
WILSON_CONFIDENCE = 0.99
MAX_EXHAUSTIVE_VERTICES = 256


@dataclass(frozen=True)
class Violation:
    kind: str
    message: str

    def __str__(self):
        return f"[{self.kind}] {self.message}"


def _vertex_id_violation(cid: int, v: int, n: int) -> Violation:
    return Violation("vertex-id", f"cluster {cid} holds vertex {v}, outside 0..{n - 1}")


def _cluster_layout(part: Partition) -> tuple:
    """(sizes, starts, members) of every cluster: cluster c's members are
    members[starts[c]:starts[c] + sizes[c]], in cluster-list order."""
    sizes = np.array([len(cl.vertices) for cl in part.clusters], dtype=np.int64)
    members = np.concatenate([np.empty(0, dtype=np.int64), *(cl.vertices for cl in part.clusters)])
    return sizes, np.cumsum(sizes) - sizes, members.astype(np.int64, copy=False)


def check_partition(g: WeightedGraph, part: Partition):
    """Vertex ids in [0, n), disjointness, coverage, no empty cluster, and a
    cluster_of of n entries that agrees with the clusters; first Violation or
    None. "First" is in (cluster, position) order: a cluster's emptiness, or
    a member's id or repeat, is reported at its place in the cluster lists."""
    sizes, _, members = _cluster_layout(part)
    owner_of = np.repeat(np.arange(len(sizes)), sizes)  # the cluster of each position
    # a position is bad if its id is outside [0, n) or came at an earlier position
    first = np.zeros(len(members), dtype=bool)
    first[np.unique(members, return_index=True)[1]] = True
    faulty = np.flatnonzero(~first | (members < 0) | (members >= g.n))
    empty = np.flatnonzero(sizes == 0)
    if empty.size and (not faulty.size or empty[0] < owner_of[faulty[0]]):
        return Violation("empty-cluster", f"cluster {int(empty[0])} is empty")
    if faulty.size:
        cid, v = int(owner_of[faulty[0]]), int(members[faulty[0]])
        if not 0 <= v < g.n:
            return _vertex_id_violation(cid, v, g.n)
        earlier = int(owner_of[np.argmax(members == v)])
        return Violation("disjointness", f"vertex {v} appears in clusters {earlier} and {cid}")
    owner = np.full(g.n, -1, dtype=np.int64)
    owner[members] = owner_of
    uncovered = np.nonzero(owner < 0)[0]
    if uncovered.size:
        return Violation("coverage", f"vertex {int(uncovered[0])} belongs to no cluster")
    if np.shape(part.cluster_of) != owner.shape:
        return Violation("index", f"cluster_of has shape {np.shape(part.cluster_of)}, "
                         f"expected {owner.shape}")
    if not np.array_equal(owner, part.cluster_of):
        bad = int(np.nonzero(owner != part.cluster_of)[0][0])
        return Violation("index", f"cluster_of[{bad}] disagrees with the cluster lists")
    return None


def check_cluster_diameters(g: WeightedGraph, part: Partition, delta: float):
    """Every cluster's full-graph diameter must be at most 4*delta/5; the first
    Violation (first row in cluster order, then first column) or None. A vertex
    id outside [0, n) is reported before either pass, as check_partition does.

    Both passes ask _misses which members lie outside a hub's full-graph ball.
    The center check asks it once, from one hub per cluster of two or more
    vertices at half the bound: a cluster inside B(t, 2*delta/5) has diameter
    at most 4*delta/5, as in the paper's argument. The clusters it does not
    clear, and only those, go to the exact pass (_all_pairs_violation), in
    cluster order. A cleared cluster holds no violation, so the first
    violation of the clusters left is the first of all.
    """
    _require_valid_delta(delta)
    # the layout of every cluster, shared by the id scan and both passes
    sizes, starts, members = _cluster_layout(part)
    outside = np.flatnonzero((members < 0) | (members >= g.n))
    if outside.size:
        cid = int(np.searchsorted(starts + sizes, outside[0], side="right"))
        return _vertex_id_violation(cid, int(members[outside[0]]), g.n)
    # a cluster of each member id, for _misses' counts
    cluster_of = np.full(g.n, -1, dtype=np.int64)
    cluster_of[members] = np.repeat(np.arange(len(sizes)), sizes)
    layout = (sizes, starts, members, cluster_of)
    bound = 2 * max_radius(delta)
    cids = np.flatnonzero(sizes > 1)
    # a cluster's hub is its record's center, or its smallest vertex for a
    # hand-built cluster; it need not be a member
    hubs = np.array([int(np.min(cl.vertices)) if cl.record is None else cl.record.center
                     for cl in (part.clusters[cid] for cid in cids)], dtype=np.int64)
    # hubs go to balls in id order, which makes its blocks cheap where near
    # ids are near vertices (see balls); in cluster order, the baseline's
    # hubs are scattered over the graph
    by_id = np.argsort(hubs, kind="stable")
    # Members u, v with d(h, u), d(h, v) <= r = bound/2 * (1 - 1e-9) are
    # within 2r < bound of each other. The margin covers rounding, so the pair
    # also passes the exact pass's float test, scipy's d(u, v) <= bound.
    # scipy's distance from s to x is the float sum, left to right, of the
    # weights on its tree path from s. Rounded addition is monotone and
    # weights are nonnegative, so it is also at most the float sum along any
    # other s-x walk (the limit drops only walks whose running sum already
    # exceeds it). A float sum of k nonnegative terms is within a factor
    # (1 +- eps)^(k-1) of the exact sum, eps = 2^-53. The hub's tree paths to
    # u and v have at most n - 1 edges each, so d(u, v) is at most the float
    # sum along the walk u -> h -> v:
    # (1 + eps)^(2n) / (1 - eps)^n * (1 - 1e-9) * bound
    # <= (1 + 3.1 n eps) * (1 - 1e-9) * bound <= bound for n <= 2.9e6,
    # far past any graph whose exact pass could run at all.
    row, _ = _misses(g, hubs[by_id], cids[by_id], layout, bound / 2 * (1 - 1e-9))
    left = cids[np.unique(by_id[row])]
    return _all_pairs_violation(g, left, layout, bound)


def _misses(g: WeightedGraph, hubs, owner: np.ndarray, layout, radius: float):
    """(row, vertex) for each member vertex of cluster owner[row] that lies
    outside the full-graph ball B(hubs[row], radius), in hub order, then in
    cluster-list order: one graph.balls query.

    Each row first counts its ball's members through cluster_of, which maps
    a vertex to one cluster that holds it: a count reaches the cluster's size
    only when every member, none repeated, lies in the ball, and such a row
    has no miss. Only the other rows look their members up in the balls."""
    sizes, starts, members, cluster_of = layout
    ball_row, ball_vert, _ = balls(g, VertexMask.full(g.n), hubs, radius)
    inside = np.bincount(ball_row[cluster_of[ball_vert] == owner[ball_row]],
                         minlength=len(hubs))
    short = np.flatnonzero(inside < sizes[owner])
    row = np.repeat(short, sizes[owner[short]])
    vert = members[concat_ranges(starts[owner[short]], sizes[owner[short]])]
    # (row, vertex) as one key, sorted in `reached` as balls sorts by (row,
    # vert); the caller has checked that every id lies in [0, n)
    key = row * g.n + vert
    reached = ball_row * g.n + ball_vert
    miss = reached.take(np.searchsorted(reached, key), mode="clip") != key
    return row[miss], vert[miss]


def _all_pairs_violation(g: WeightedGraph, cids: np.ndarray, layout, bound: float):
    """The first pair farther apart than bound in clusters cids, by an exact
    search: every member is a hub of its own cluster at radius bound. The
    hubs go SOURCE_BLOCK at a time, so one block's balls are alive at a
    time (all at once would be the members squared), and the search stops
    at the first block with a miss. The message gives the pair's distance,
    from one unbounded one-source query made only then."""
    sizes, starts, members, _ = layout
    hubs = members[concat_ranges(starts[cids], sizes[cids])]
    owner = np.repeat(cids, sizes[cids])
    for first in range(0, len(hubs), SOURCE_BLOCK):
        block = slice(first, first + SOURCE_BLOCK)
        row, vert = _misses(g, hubs[block], owner[block], layout, bound)
        if len(row):
            i = first + row[0]
            far = _distance_on(g.csr(), hubs[i], vert[0], math.inf)
            return Violation("diameter", f"cluster {owner[i]}: d({hubs[i]},{vert[0]}) "
                             f"= {far} exceeds 4*delta/5 = {bound}")
    return None


def check_recursion_depth(centers: CenterSequence):
    """Separator recursion must not exceed ceil(log2 n) levels."""
    limit = ceil_log2(centers.n)
    if centers.max_depth > limit:
        return Violation(
            "recursion-depth", f"depth {centers.max_depth} exceeds ceil(log2 {centers.n}) = {limit}"
        )
    return None


def check_separators(g: WeightedGraph, centers: CenterSequence):
    """Every recursion node's separator certificate (validate_separator); the
    first Violation, naming the node by its visit index and depth, or None.
    The nodes are visited depth-first, each followed by its flaps' nodes, so
    a stack of the pending children's depths gives each node's depth."""
    pending = [0]
    for i, (mask, sep) in enumerate(centers.separators):
        depth = pending.pop()
        pending.extend([depth + 1] * len(sep.flaps))
        fault = validate_separator(g, mask, sep)
        if fault is not None:
            return Violation("separators", f"node {i} at depth {depth}: {fault}")
    return None


def threatener_bound(p_eff: int, n: int) -> int:
    return 4 * _integer("p_eff", p_eff, least=1) * max(1, ceil_log2(n))


@dataclass(frozen=True)
class ThreatenerReport:
    """Per-vertex counts of centers whose maximal ball can reach B(x, gamma*delta)."""

    gamma: float
    vertices: tuple[int, ...]
    counts: tuple[int, ...]
    bound: int

    def all_ok(self) -> bool:
        return all(c <= self.bound for c in self.counts)

    def worst(self) -> int:
        return max(self.counts)


def _require_gamma_in_range(gamma: float) -> float:
    """gamma as a Python float (graph._real) in [0, GAMMA_MAX]."""
    gamma = _real("gamma", gamma)
    if not 0.0 <= gamma <= GAMMA_MAX:
        raise ValueError(f"gamma must lie in [0, 1/100], got {gamma}")
    return gamma


def threatener_report(g: WeightedGraph, centers: CenterSequence,
                      params: DecompositionParams, gamma: float,
                      vertices=None) -> ThreatenerReport:
    """Per vertex x (default: all), count the centers t with B_{G_t}(t, 2*delta/5)
    intersecting B_G(x, gamma*delta): the distinct records among the
    ball-index incidences of B_G(x, gamma*delta).

    This is the support condition for t's ball ever touching x's ball, since
    radii range over [delta/4, 2*delta/5] with full support. The count is a
    property of the center sequence alone, independent of the radii. Like
    carve, it refuses a graph or params the centers were not chosen for; it
    refuses an id that is not an integer (graph._vertex_ids' rule, the
    graph constructor's: a bool is none, an integral float is one), lies
    outside [0, n) or is given twice with a ValueError naming it.
    The balls come from the query the graph keeps (_sample_balls), which
    estimate_padding reads too.
    """
    _require_gamma_in_range(gamma)
    _require_matching(g, centers, params)
    vertices = np.arange(g.n) if vertices is None else np.sort(_vertex_ids(vertices, g.n))
    if not len(vertices):
        raise ValueError("need at least one vertex")
    repeated = vertices[1:][vertices[1:] == vertices[:-1]]
    if len(repeated):
        raise ValueError(f"vertex {repeated[0]} is given twice")
    index = centers.index
    sample = _sample_balls(g, vertices, gamma * params.delta)
    row, members = sample.row, sample.members
    # every incidence of every ball member, tagged with the row of its ball
    lo = index.starts[members]
    sizes = index.starts[members + 1] - lo
    pairs = np.unique(np.repeat(row, sizes) * index.n_records
                      + index.record[concat_ranges(lo, sizes)])
    counts = np.bincount(pairs // index.n_records, minlength=len(vertices))
    return ThreatenerReport(
        gamma, tuple(int(v) for v in vertices), tuple(int(c) for c in counts),
        threatener_bound(params.p_eff, params.n),
    )


def wilson_lower_bound(successes, trials: int):
    """One-sided Wilson score lower bound, at confidence WILSON_CONFIDENCE,
    for a binomial proportion. successes is an int, giving a float, or an
    array of ints, giving the bound of each entry."""
    trials = _integer("trials", trials, least=1)
    z = float(ndtri(WILSON_CONFIDENCE))
    p = np.asarray(successes) / trials
    denom = 1.0 + z * z / trials
    centre = p + z * z / (2.0 * trials)
    rad = z * np.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))
    lb = np.maximum(0.0, (centre - rad) / denom)
    return float(lb) if lb.ndim == 0 else lb


class PaddingRecord(NamedTuple):
    """One (vertex, gamma) padding estimate, every field a plain Python value.

    vertex: the sampled vertex x; gamma: the ball's radius over delta;
    trials: the decompositions run; successes: the trials in which
    B(x, gamma*delta) stayed inside x's cluster; empirical = successes /
    trials; wilson_lb: the one-sided Wilson 99% lower bound on the padding
    probability; floor = 2^(-beta*gamma); passed: the acceptance rule,
    successes == trials at gamma = 0 and wilson_lb >= floor otherwise,
    written `pass` in JSON.
    """

    vertex: int
    gamma: float
    trials: int
    successes: int
    empirical: float
    wilson_lb: float
    floor: float
    passed: bool


# a record's `passed` is written as `pass`
_RECORD_JSON_KEYS = tuple("pass" if name == "passed" else name
                          for name in PaddingRecord._fields)


@dataclass(frozen=True)
class PaddingReport:
    """Monte-Carlo padding estimates for sampled vertices over a gamma grid."""

    scheme: str
    delta: float
    gammas: tuple[float, ...]
    trials: int
    seed: int
    n: int
    p_eff: int | None
    beta: float
    vertices: tuple[int, ...]
    records: tuple[PaddingRecord, ...]

    def all_pass(self) -> bool:
        return all(r.passed for r in self.records)

    def failures(self) -> list[PaddingRecord]:
        return [r for r in self.records if not r.passed]

    def fitted_beta(self) -> float | None:
        """Smallest beta' with every measured probability >= 2^(-beta'*gamma);
        None when some probability is zero (no finite exponent works)."""
        need = 0.0
        for r in self.records:
            if r.gamma <= 0.0:
                continue
            if r.successes == 0:
                return None
            need = max(need, -math.log2(r.empirical) / r.gamma)
        return need

    def to_json_obj(self) -> dict:
        return {**{f.name: getattr(self, f.name) for f in fields(self)},
                "records": tuple(dict(zip(_RECORD_JSON_KEYS, r)) for r in self.records),
                "all_pass": self.all_pass(), "fitted_beta": self.fitted_beta()}


def sample_vertices(g: WeightedGraph, seed: int) -> np.ndarray:
    """All vertices when n <= 256; otherwise 256 drawn deterministically from
    the master seed (stream index -1, reserved; trials use indices >= 0).
    The seed must be an integer (graph._integer), even when n <= 256. A
    writable copy of the sample the graph keeps (_sample)."""
    return _sample(g, _integer("seed", seed)).copy()


def _sample(g: WeightedGraph, seed: int) -> np.ndarray:
    """sample_vertices(g, seed) for a checked integer seed, as a read-only
    array the graph keeps for its latest seed (slot "sample"), so
    threatener_report's caller and both padding schemes draw it once."""
    def build():
        if g.n <= MAX_EXHAUSTIVE_VERTICES:
            out = np.arange(g.n, dtype=np.int64)
        else:
            rng = RngStream(derive_seed(seed, -1))
            picked = rng.sample_without_replacement(g.n, MAX_EXHAUSTIVE_VERTICES)
            out = np.sort(picked.astype(np.int64))
        out.flags.writeable = False
        return out

    return _graph_cached(g, "sample", seed, None, build)


class _SampleBalls(NamedTuple):
    """The full-graph balls of sampled vertices, and their layout, as
    read-only arrays. Ball i holds members[starts[i]:starts[i + 1]] (row i),
    at distances dist, in graph.balls order; held lists the distinct
    members, and local and anchors give each entry's member and ball vertex
    as positions in held."""

    row: np.ndarray
    members: np.ndarray
    dist: np.ndarray
    starts: np.ndarray
    held: np.ndarray
    local: np.ndarray
    anchors: np.ndarray


def _sample_balls(g: WeightedGraph, vertices: np.ndarray, radius: float) -> _SampleBalls:
    """graph.balls(g, full graph, vertices, radius) with its layout, as a
    read-only _SampleBalls. The graph keeps the latest answer (slot
    "sample_balls"), so threatener_report and both padding schemes, which
    ask it of one sample at one radius under the default gammas, share one
    query and one layout. The key holds the ids as int64 bytes, so equal
    bytes mean equal ids."""
    vertices = np.asarray(vertices, dtype=np.int64)

    def build():
        row, members, dist = balls(g, VertexMask.full(g.n), vertices, radius)
        held = np.unique(members)
        out = _SampleBalls(
            row, members, dist,
            np.searchsorted(row, np.arange(len(vertices))),  # no ball is empty: x is in B(x, r)
            held, np.searchsorted(held, members), np.searchsorted(held, vertices)[row],
        )
        for arr in out:
            arr.flags.writeable = False
        return out

    return _graph_cached(g, "sample_balls", (float(radius), vertices.tobytes()), None, build)


def estimate_padding(g: WeightedGraph, delta: float, finder=greedy_find,
                     gammas=DEFAULT_GAMMAS, trials: int = 1000, seed: int = 0,
                     scheme: str = "paper") -> PaddingReport:
    """Monte-Carlo padding probabilities against the 2^(-beta*gamma) floor.

    Runs `trials` independent decompositions with per-trial seeds derived from
    the master seed, and counts, per sampled vertex x and per gamma, the
    trials in which B_G(x, gamma*delta) stayed inside x's cluster. Each ball
    is read once, at the largest gamma, through the query the graph keeps
    (_sample_balls): a call after threatener_report or the other scheme on
    the same sample at the same radius makes none. In a trial, the closed
    ball at gamma is padded iff x's nearest member in another cluster lies
    farther than gamma*delta. Acceptance per (x, gamma): Wilson 99% lower
    bound >= floor for gamma > 0; for gamma = 0 the event holds surely, so
    the check is successes == trials. The records, one PaddingRecord per
    (x, gamma) in that order, are named tuples built in one pass from the
    (vertex x gamma) count matrices: one plain-Python column per field,
    zipped into tuples.

    A trial labels the vertices with the radii and ranks carve or
    baseline_decompose would draw at its seed. When the radius law's lower
    end texp.lo is at least the index's reach, every vertex is claimed in
    every trial, so the trials label only the ball members, through the
    index restricted to them (BallIndex.restrict); otherwise every trial
    labels the whole graph, and raises the CoverageError that carving at
    its seed raises.

    The paper scheme carves choose_centers(g, delta, finder), the sequence
    the graph keeps for an equal delta and the same finder; the baseline,
    the all-vertices index the graph keeps for this delta.
    """
    gammas = tuple(map(_require_gamma_in_range, gammas))
    if not gammas:
        raise ValueError("need at least one gamma")
    trials = _integer("trials", trials, least=1)
    seed = _integer("seed", seed)
    if scheme not in ("paper", "baseline"):
        raise ValueError(f"unknown scheme {scheme!r}")

    # one stream for the call, re-keyed to each trial's seed: it yields what
    # RngStream(derive_seed(seed, t)) would
    rng = RngStream(seed)
    if scheme == "paper":
        seq = choose_centers(g, delta, finder)
        params = DecompositionParams.for_graph(delta, seed, seq.p_eff, g.n)
        texp = params.texp()  # the radius law depends on delta and K, not the seed
        p_eff = seq.p_eff
        index = seq.index
        rank = np.arange(len(seq.records))  # the same in every trial

        def draw():
            return _paper_draw(seq, texp, rng), rank
    else:
        params = DecompositionParams.for_baseline(delta, seed, g.n)
        texp = params.texp()
        p_eff = None
        index = _baseline_index(g, delta)

        def draw():
            _, radius, rank = _baseline_draw(g.n, texp, rng)
            return radius, rank
    beta = params.beta()
    # delta is checked by now, by choose_centers or the params
    vertices = _sample(g, seed)
    radii = np.asarray(gammas) * delta
    sample = _sample_balls(g, vertices, radii.max())

    # every radius is at least texp.lo: when that clears the index's reach,
    # every vertex is claimed, and the trials label the ball members
    # (`held`) only; otherwise they label the whole graph, which raises the
    # CoverageError of carving
    _, _, dist, starts, held, local, anchors = sample
    index, pick = (index.restrict(held), slice(None)) if texp.lo >= index.reach else (index, held)
    # first-claim labels are cluster ranks: equal labels, same cluster
    successes = np.zeros((len(vertices), len(radii)), dtype=np.int64)
    for t in range(trials):
        rng.rekey(derive_seed(seed, t))
        labels = index.labels(*draw())[pick]
        split = np.where(labels[local] != labels[anchors], dist, np.inf)
        successes += np.minimum.reduceat(split, starts)[:, None] > radii

    floors = tuple(2.0 ** (-beta * gamma) for gamma in gammas)
    wilson = wilson_lower_bound(successes, trials)
    passed = np.where(np.asarray(gammas) == 0.0, successes == trials, wilson >= floors)
    # one record per (vertex, gamma) cell, in row-major order, from one
    # column per field; tuple.__new__ is what PaddingRecord._make calls,
    # without a Python-level call per record
    columns = (
        np.repeat(vertices, len(gammas)).tolist(), gammas * len(vertices), repeat(trials),
        successes.ravel().tolist(), (successes / trials).ravel().tolist(),
        wilson.ravel().tolist(), floors * len(vertices), passed.ravel().tolist(),
    )
    records_out = tuple(map(tuple.__new__, repeat(PaddingRecord), zip(*columns)))

    return PaddingReport(
        scheme, delta, gammas, trials, seed, g.n, p_eff, beta,
        tuple(vertices.tolist()), records_out,
    )
