"""Balanced shortest-path separators: certificates, a validator, and two finders.

A separator is an ordered list of groups; group j consists of paths that are
shortest paths of the residual graph left after deleting all earlier groups.
Deleting the whole separator must leave only components of at most half the
original alive count (the flaps).

The greedy finder repeatedly removes an approximate-diameter shortest path
from the largest oversized component. It runs over a whole recursion level
at once (greedy_find_level), one double sweep per round over the level's
targets; greedy_find is its one-node call. The centroid finder is the exact
one-path witness for trees.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import (
    GraphError,
    Path,
    VertexMask,
    WeightedGraph,
    _dijkstra,
    components,
    double_sweep,
    level_components,
)


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
    """Separator certificate: ordered groups and the flaps of their union S."""

    groups: tuple[SeparatorGroup, ...]
    flaps: tuple[VertexMask, ...]

    @property
    def separator_vertices(self) -> frozenset:
        """S, the vertices of every group's paths."""
        return frozenset(v for grp in self.groups for p in grp.paths for v in p.vertices)

    @property
    def total_paths(self) -> int:
        return sum(len(grp.paths) for grp in self.groups)


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
            try:
                total = Path.from_vertices(g, verts).length
            except GraphError as exc:
                return SeparatorViolation("structure", gi, pi, str(exc))
            if total != path.length:
                return SeparatorViolation(
                    "structure", gi, pi,
                    f"stored length {path.length} != sum of edge weights {total}",
                )
            # one vertex is at distance 0; monotone rounding keeps a longer path's
            # far end within a search cut at the path's own float sum
            dist = 0.0 if len(verts) == 1 else (
                _dijkstra(g, alive, verts[0], cutoff=path.length)[0][verts[-1]])
            if dist != path.length:
                return SeparatorViolation(
                    "not-shortest", gi, pi,
                    f"path of length {path.length} between {verts[0]} and {verts[-1]} "
                    f"but residual distance is {dist}",
                )
        expected = expected.without(v for p in group.paths for v in p.vertices)
    # expected is now the mask with S deleted
    if list(sep.flaps) != components(g, expected):
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
    return None


def greedy_find(g: WeightedGraph, mask: VertexMask) -> PathSeparator:
    """Carve approximate-diameter shortest paths until every component is balanced.

    Each iteration picks the largest component still exceeding half the
    original alive count, deletes the shortest path between its double-sweep
    endpoints, and records it as a single-path group. The number of paths is
    whatever the process needed; it is measured, never assumed.
    """
    return greedy_find_level(g, [mask])[0]


def greedy_find_level(g: WeightedGraph, masks) -> list[PathSeparator]:
    """greedy_find for each of pairwise disjoint, non-adjacent masks, such as
    the nodes of one recursion level. Round t deletes the t-th path of every
    node still unbalanced: one double sweep over the union of their targets,
    then one components call over the union of their residuals."""
    if any(len(mask) == 0 for mask in masks):
        raise ValueError("cannot separate an empty residual graph")
    comps = level_components(g, masks)
    if any(len(c) != 1 for c in comps):
        raise ValueError("greedy_find requires a connected residual graph")
    residual = list(masks)
    groups: list[list[SeparatorGroup]] = [[] for _ in masks]
    todo = list(range(len(masks)))  # nodes with a component over half their alive count
    while todo:
        targets = [max(comps[i], key=len) for i in todo]  # ties: first in smallest-id order
        paths = double_sweep(g, targets, [min(target.alive) for target in targets])
        for i, path in zip(todo, paths):
            groups[i].append(SeparatorGroup((path,), residual[i]))
            residual[i] = residual[i].without(path.vertices)
        for i, c in zip(todo, level_components(g, [residual[i] for i in todo])):
            comps[i] = c
        todo = [i for i in todo if max(map(len, comps[i]), default=0) > len(masks[i]) // 2]
    return [PathSeparator(tuple(grp), tuple(c)) for grp, c in zip(groups, comps)]


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
    return PathSeparator((group,), flaps)


def separator_lines(sep: PathSeparator) -> list[str]:
    """Audit dump: one line `group j: v_a v_b ... v_z` per group."""
    lines = []
    for j, group in enumerate(sep.groups):
        verts = " ".join(str(v) for p in group.paths for v in p.vertices)
        lines.append(f"group {j}: {verts}")
    return lines
