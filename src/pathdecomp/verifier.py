"""Empirical certification of decomposition guarantees.

Exact checks: partition validity, cluster diameters (at most 4*delta/5 in the
full-graph metric), recursion depth, and the deterministic threatener bound.
Statistical check: Monte-Carlo estimation of the padding probability
Pr[B(x, gamma*delta) stays in one cluster], accepted when the one-sided
Wilson 99% lower confidence bound clears the floor 2^(-beta*gamma).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np
from scipy.special import ndtri

from .decomposer import (
    CenterSequence,
    DecompositionParams,
    Partition,
    _baseline_labels,
    _carve_labels,
    _require_matching,
    ceil_log2,
    choose_centers,
    max_radius,
)
from .graph import VertexMask, WeightedGraph, balls, concat_ranges, distance_blocks
from .sampler import RngStream, derive_seed
from .separators import greedy_find

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


def check_partition(g: WeightedGraph, part: Partition):
    """Disjointness, coverage, no empty cluster; first Violation or None."""
    owner = np.full(g.n, -1, dtype=np.int64)
    for cid, cl in enumerate(part.clusters):
        if len(cl.vertices) == 0:
            return Violation("empty-cluster", f"cluster {cid} is empty")
        for v in cl.vertices:
            v = int(v)
            if owner[v] >= 0:
                return Violation(
                    "disjointness", f"vertex {v} appears in clusters {owner[v]} and {cid}"
                )
            owner[v] = cid
    uncovered = np.nonzero(owner < 0)[0]
    if uncovered.size:
        return Violation("coverage", f"vertex {int(uncovered[0])} belongs to no cluster")
    if not np.array_equal(owner, part.cluster_of):
        bad = int(np.nonzero(owner != part.cluster_of)[0][0])
        return Violation("index", f"cluster_of[{bad}] disagrees with the cluster lists")
    return None


def check_cluster_diameters(g: WeightedGraph, part: Partition, delta: float):
    """Every cluster's full-graph diameter must be at most 4*delta/5. One distance_blocks query
    runs from all non-singleton clusters' vertices; each row is read at its cluster's columns."""
    bound = 2 * max_radius(delta)
    cids = [cid for cid, cl in enumerate(part.clusters) if len(cl.vertices) > 1]
    if not cids:
        return None
    sizes = np.array([len(part.clusters[cid].vertices) for cid in cids])
    sources = np.concatenate([part.clusters[cid].vertices for cid in cids])
    starts, cluster_of_row = np.cumsum(sizes) - sizes, np.repeat(np.arange(len(cids)), sizes)
    for first, dist, _ in distance_blocks(g, VertexMask.full(g.n), sources, bound):
        # a full mask's column j is vertex j; a row's columns are its cluster's vertices
        k = cluster_of_row[first:first + len(dist)]
        row = np.repeat(np.arange(len(dist)), sizes[k])
        cols = sources[concat_ranges(starts[k], sizes[k])]
        inside = dist[row, cols]
        if np.isinf(inside).any():
            t = int(np.argmax(inside))
            i, j = row[t], int(cols[t])
            return Violation("diameter", f"cluster {cids[k[i]]}: d({int(sources[first + i])},{j}) "
                             f"= {inside[t]} exceeds 4*delta/5 = {bound}")
        del dist  # one block alive at a time
    return None


def check_recursion_depth(centers: CenterSequence):
    """Separator recursion must not exceed ceil(log2 n) levels."""
    limit = ceil_log2(centers.n)
    if centers.max_depth > limit:
        return Violation(
            "recursion-depth", f"depth {centers.max_depth} exceeds ceil(log2 {centers.n}) = {limit}"
        )
    return None


def threatener_bound(p_eff: int, n: int) -> int:
    return 4 * p_eff * max(1, ceil_log2(n))


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


def _require_gamma_in_range(gamma: float) -> None:
    if not 0.0 <= gamma <= GAMMA_MAX:
        raise ValueError(f"gamma must lie in [0, 1/100], got {gamma}")


def threatener_report(g: WeightedGraph, centers: CenterSequence,
                      params: DecompositionParams, gamma: float,
                      vertices=None) -> ThreatenerReport:
    """Per vertex x (default: all), count the centers t with B_{G_t}(t, 2*delta/5)
    intersecting B_G(x, gamma*delta): the distinct records among the
    ball-index incidences of B_G(x, gamma*delta).

    This is the support condition for t's ball ever touching x's ball, since
    radii range over [delta/4, 2*delta/5] with full support. The count is a
    property of the center sequence alone, independent of the radii. Like
    carve, it refuses a graph or params the centers were not chosen for.
    """
    _require_gamma_in_range(gamma)
    _require_matching(g, centers, params)
    vertices = np.arange(g.n) if vertices is None else np.asarray(sorted(vertices), dtype=np.int64)
    index = centers.index
    row, members, _ = balls(g, VertexMask.full(g.n), vertices, gamma * params.delta)
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


def _require_trials(trials: int) -> None:
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")


def wilson_lower_bound(successes: int, trials: int) -> float:
    """One-sided Wilson score lower bound, at confidence WILSON_CONFIDENCE,
    for a binomial proportion."""
    _require_trials(trials)
    z = float(ndtri(WILSON_CONFIDENCE))
    p = successes / trials
    denom = 1.0 + z * z / trials
    centre = p + z * z / (2.0 * trials)
    rad = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))
    return max(0.0, (centre - rad) / denom)


def _json_fields(items) -> dict:
    """asdict's dict_factory for the padding report: a record's `passed` is
    written as `pass`."""
    return {("pass" if key == "passed" else key): value for key, value in items}


@dataclass(frozen=True)
class PaddingRecord:
    vertex: int
    gamma: float
    trials: int
    successes: int
    empirical: float
    wilson_lb: float
    floor: float
    passed: bool


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
        return {**asdict(self, dict_factory=_json_fields),
                "all_pass": self.all_pass(), "fitted_beta": self.fitted_beta()}


def sample_vertices(g: WeightedGraph, seed: int) -> np.ndarray:
    """All vertices when n <= 256; otherwise 256 drawn deterministically from
    the master seed (stream index -1, reserved; trials use indices >= 0)."""
    if g.n <= MAX_EXHAUSTIVE_VERTICES:
        return np.arange(g.n, dtype=np.int64)
    rng = RngStream(derive_seed(seed, -1))
    picked = rng.sample_without_replacement(g.n, MAX_EXHAUSTIVE_VERTICES)
    return np.sort(picked.astype(np.int64))


def estimate_padding(g: WeightedGraph, delta: float, finder=greedy_find,
                     gammas=DEFAULT_GAMMAS, trials: int = 1000, seed: int = 0,
                     scheme: str = "paper") -> PaddingReport:
    """Monte-Carlo padding probabilities against the 2^(-beta*gamma) floor.

    Runs `trials` independent decompositions with per-trial seeds derived from
    the master seed, and counts, per sampled vertex x and per gamma, the
    trials in which B_G(x, gamma*delta) stayed inside x's cluster. Each ball
    is read once, at the largest gamma (graph.balls); in a trial, the closed
    ball at gamma is padded iff x's nearest member in another cluster lies
    farther than gamma*delta. Acceptance per (x, gamma): Wilson 99% lower
    bound >= floor for gamma > 0; for gamma = 0 the event holds surely, so
    the check is successes == trials.

    The paper scheme carves choose_centers(g, delta, finder), the sequence
    the graph keeps for an equal delta and the same finder; the baseline,
    the all-vertices index the graph keeps for this delta.
    """
    gammas = tuple(float(gamma) for gamma in gammas)
    if not gammas:
        raise ValueError("need at least one gamma")
    for gamma in gammas:
        _require_gamma_in_range(gamma)
    _require_trials(trials)
    if scheme not in ("paper", "baseline"):
        raise ValueError(f"unknown scheme {scheme!r}")

    vertices = sample_vertices(g, seed)
    radii = np.asarray(gammas) * delta
    row, members, dist = balls(g, VertexMask.full(g.n), vertices, radii.max())
    anchors = vertices[row]
    starts = np.searchsorted(row, np.arange(len(vertices)))  # no ball is empty: x is in B(x, r)

    if scheme == "paper":
        seq = choose_centers(g, delta, finder)
        params = DecompositionParams.for_graph(delta, seed, seq.p_eff, g.n)
        p_eff = seq.p_eff

        def trial_labels(t):
            return _carve_labels(seq, replace(params, seed=derive_seed(seed, t)))[0]
    else:
        params = DecompositionParams.for_baseline(delta, seed, g.n)
        p_eff = None

        def trial_labels(t):
            return _baseline_labels(g, delta, derive_seed(seed, t))[0]
    beta = params.beta()

    # first-claim labels are cluster ranks: equal labels, same cluster
    successes = np.zeros((len(vertices), len(radii)), dtype=np.int64)
    for t in range(trials):
        labels = trial_labels(t)
        split = np.where(labels[members] != labels[anchors], dist, np.inf)
        successes += np.minimum.reduceat(split, starts)[:, None] > radii

    records_out = []
    for i, x in enumerate(vertices):
        for k, gamma in enumerate(gammas):
            s = int(successes[i, k])
            emp = s / trials
            lb = wilson_lower_bound(s, trials)
            floor = 2.0 ** (-beta * gamma)
            passed = (s == trials) if gamma == 0.0 else (lb >= floor)
            records_out.append(
                PaddingRecord(int(x), gamma, trials, s, emp, lb, floor, passed)
            )

    return PaddingReport(
        scheme, delta, gammas, trials, int(seed), g.n, p_eff, beta,
        tuple(int(v) for v in vertices), tuple(records_out),
    )
