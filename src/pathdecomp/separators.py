"""Balanced shortest-path separators: certificates, a validator, and two finders.

A separator is an ordered list of groups; group j consists of paths that are
shortest paths of the residual graph left after deleting all earlier groups.
Deleting the whole separator must leave only components of at most half the
original alive count (the flaps).

The greedy finder repeatedly removes an approximate-diameter shortest path
from the largest oversized component. The centroid finder is the exact
one-path witness for trees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.csgraph import dijkstra as csgraph_dijkstra

from .graph import Path, VertexMask, WeightedGraph, components, induced, sssp


class NotATreeError(ValueError):
    """tree_centroid_find was handed a residual graph that is not a tree."""


@dataclass(frozen=True)
class SeparatorGroup:
    """One group: paths that are shortest paths in the residual graph
    `residual_before` (the graph left after deleting all earlier groups)."""

    paths: tuple[Path, ...]
    residual_before: VertexMask


@dataclass(frozen=True)
class PathSeparator:
    """Separator certificate: ordered groups, their union S, and the flaps of S."""

    groups: tuple[SeparatorGroup, ...]
    separator_vertices: frozenset
    flaps: tuple[VertexMask, ...]
    total_paths: int


@dataclass(frozen=True)
class SeparatorViolation:
    kind: str                # "structure" | "mask-chain" | "not-shortest" | "flaps" | "balance"
    group: int | None
    path: int | None
    message: str

    def __str__(self):
        return f"[{self.kind}] {self.message}"


def validate_separator(g: WeightedGraph, mask: VertexMask, sep: PathSeparator):
    """Check a separator certificate; returns the first SeparatorViolation or None.

    Verified: every path is a shortest path of its group's residual graph
    (its length equals the Dijkstra distance between its endpoints, exactly),
    residual masks chain by deleting each group in turn, the stored flaps are
    the components of residual-minus-S, and every flap has at most
    floor(|alive|/2) vertices.
    """
    expected = mask
    claimed = set()
    for gi, group in enumerate(sep.groups):
        if group.residual_before != expected:
            return SeparatorViolation(
                "mask-chain", gi, None,
                f"group {gi} residual mask is not the original mask with all "
                f"earlier groups deleted",
            )
        alive = group.residual_before
        for pi, path in enumerate(group.paths):
            verts = path.vertices
            if not verts:
                return SeparatorViolation("structure", gi, pi, "empty path")
            if len(set(verts)) != len(verts):
                return SeparatorViolation("structure", gi, pi, "path repeats a vertex")
            for v in verts:
                if v not in alive:
                    return SeparatorViolation(
                        "structure", gi, pi, f"path vertex {v} is not alive in its residual"
                    )
            total = 0.0
            for a, b in zip(verts, verts[1:]):
                try:
                    total += g.edge_weight(a, b)
                except Exception:
                    return SeparatorViolation(
                        "structure", gi, pi, f"consecutive vertices {a},{b} are not adjacent"
                    )
            if total != path.length:
                return SeparatorViolation(
                    "structure", gi, pi,
                    f"stored length {path.length} != sum of edge weights {total}",
                )
            dist = sssp(g, alive, verts[0]).dist[verts[-1]]
            if dist != path.length:
                return SeparatorViolation(
                    "not-shortest", gi, pi,
                    f"path of length {path.length} between {verts[0]} and {verts[-1]} "
                    f"but residual distance is {dist}",
                )
            claimed.update(verts)
        expected = expected.without(v for p in group.paths for v in p.vertices)
    if frozenset(claimed) != sep.separator_vertices:
        return SeparatorViolation(
            "structure", None, None, "separator_vertices is not the union of the group paths"
        )
    actual_flaps = components(g, mask.without(sep.separator_vertices))
    if list(sep.flaps) != actual_flaps:
        return SeparatorViolation(
            "flaps", None, None, "stored flaps differ from the components of residual minus S"
        )
    limit = len(mask) // 2
    for fi, flap in enumerate(sep.flaps):
        if len(flap) > limit:
            return SeparatorViolation(
                "balance", None, None,
                f"flap {fi} has {len(flap)} vertices, exceeding floor({len(mask)}/2)={limit}",
            )
    if sep.total_paths != sum(len(grp.paths) for grp in sep.groups):
        return SeparatorViolation("structure", None, None, "total_paths miscounts the paths")
    return None


def _approx_diameter_path(g: WeightedGraph, comp: VertexMask) -> Path:
    """Shortest path between double-sweep endpoints of one component.

    Anchor is the smallest alive id; u maximizes distance from it, v maximizes
    distance from u (argmax ties resolve to the smallest id because vertices
    are scanned in sorted order).
    """
    if len(comp) == 1:
        return Path(tuple(comp.alive), 0.0)
    sub, verts = induced(g, comp)
    d0 = csgraph_dijkstra(sub, directed=False, indices=0)
    u_local = int(np.argmax(d0))
    d1, pred = csgraph_dijkstra(sub, directed=False, indices=u_local, return_predecessors=True)
    v_local = int(np.argmax(d1))
    chain = [v_local]
    while chain[-1] != u_local:
        chain.append(int(pred[chain[-1]]))
    chain.reverse()
    return Path.from_vertices(g, (int(verts[i]) for i in chain))


def greedy_find(g: WeightedGraph, mask: VertexMask) -> PathSeparator:
    """Carve approximate-diameter shortest paths until every component is balanced.

    Each iteration picks the largest component still exceeding half the
    original alive count, deletes the shortest path between its double-sweep
    endpoints, and records it as a single-path group. The number of paths is
    whatever the process needed; it is measured, never assumed.
    """
    if len(mask) == 0:
        raise ValueError("cannot separate an empty residual graph")
    comps = components(g, mask)
    if len(comps) != 1:
        raise ValueError("greedy_find requires a connected residual graph")
    limit = len(mask) // 2
    residual = mask
    groups = []
    while True:
        big = [c for c in comps if len(c) > limit]
        if not big:
            break
        target = max(big, key=len)  # ties: first in smallest-id order
        path = _approx_diameter_path(g, target)
        groups.append(SeparatorGroup((path,), residual))
        residual = residual.without(path.vertices)
        comps = components(g, residual)
    separator = frozenset(mask.alive - residual.alive)
    return PathSeparator(tuple(groups), separator, tuple(comps), len(groups))


def tree_centroid_find(g: WeightedGraph, mask: VertexMask) -> PathSeparator:
    """Exact single-vertex separator for tree residuals (the centroid)."""
    n_alive = len(mask)
    if n_alive == 0:
        raise ValueError("cannot separate an empty residual graph")
    alive = mask.alive
    # each edge, parallel ones included, appears once in each endpoint's list
    edge_count = sum(1 for u in alive for v, _ in g.adj[u] if v in alive) // 2
    if edge_count != n_alive - 1 or len(components(g, mask)) != 1:
        raise NotATreeError("residual graph is not a tree")

    root = min(alive)
    order = []
    parent = {root: -1}
    stack = [root]
    while stack:
        u = stack.pop()
        order.append(u)
        for v, _ in g.adj[u]:
            if v in alive and v not in parent:
                parent[v] = u
                stack.append(v)
    size = {u: 1 for u in order}
    worst = {u: 0 for u in order}
    for u in reversed(order):
        p = parent[u]
        if p != -1:
            size[p] += size[u]
            worst[p] = max(worst[p], size[u])
    for u in order:
        worst[u] = max(worst[u], n_alive - size[u])
    centroid = min(sorted(worst), key=lambda u: worst[u])

    group = SeparatorGroup((Path((centroid,), 0.0),), mask)
    flaps = tuple(components(g, mask.without((centroid,))))
    return PathSeparator((group,), frozenset((centroid,)), flaps, 1)


def separator_lines(sep: PathSeparator) -> list[str]:
    """Audit dump: one line `group j: v_a v_b ... v_z` per group."""
    lines = []
    for j, group in enumerate(sep.groups):
        verts = " ".join(str(v) for p in group.paths for v in p.vertices)
        lines.append(f"group {j}: {verts}")
    return lines
