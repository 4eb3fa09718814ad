"""Balanced shortest-path separators: certificates, a validator, and two finders.

A separator is an ordered list of groups; group j consists of paths that are
shortest paths of the residual graph left after deleting all earlier groups.
Deleting the whole separator must leave only components of at most half the
original alive count (the flaps). A certificate holds only paths and flaps:
group j's residual is the node mask minus groups 0..j-1, derived where it is read.

The validator checks a small residual with the heap and components, and a
residual above PATH_CHECK_HEAP_MAX on its CSR slice: one induced call per
node, then each group's slice, and the flaps', derived from the previous one
by dropping that group's vertices, one scipy call per multi-vertex path.

The greedy finder repeatedly removes an approximate-diameter shortest path
from the largest oversized component. It runs over a whole recursion level
at once (greedy_find_level): each round is one double sweep and one
components call, both on one slice of the residuals of the nodes still
unbalanced (graph's level union). greedy_find is its one-node call. The
centroid finder is the exact one-path witness for trees.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .graph import (
    INF,
    GraphError,
    Path,
    VertexMask,
    WeightedGraph,
    _component_labels,
    _component_masks,
    _dijkstra,
    _distance_on,
    _double_sweep_on,
    _level_union,
    _slice_without,
    _walk_length,
    components,
    induced,
)

# Alive vertices up to which the validator checks a group's paths with the
# heap, which touches only what it reaches; above it, with one scipy call per
# path on the group's CSR slice, which pays a slice per group and a call per
# path however small the residual (about 0.14 ms together on a tiny one). Any
# cut from 64 to 512 timed within noise on a 64x64 unit grid and on
# gen_ktree(2048, 2).
PATH_CHECK_HEAP_MAX = 128


class NotATreeError(ValueError):
    """tree_centroid_find was handed a residual graph that is not a tree."""


@dataclass(frozen=True)
class PathSeparator:
    """Separator certificate: ordered groups of paths, each a shortest path of
    the residual with all earlier groups deleted, and the flaps of their union S."""

    groups: tuple[tuple[Path, ...], ...]
    flaps: tuple[VertexMask, ...]

    @property
    def separator_vertices(self) -> frozenset:
        """S, the vertices of every group's paths."""
        return frozenset(v for grp in self.groups for p in grp for v in p.vertices)

    @property
    def total_paths(self) -> int:
        return sum(map(len, self.groups))


@dataclass(frozen=True)
class SeparatorViolation:
    kind: str                # "structure" | "not-shortest" | "flaps" | "balance"
    group: int | None
    path: int | None
    message: str

    def __str__(self):
        return f"[{self.kind}] {self.message}"


def validate_separator(g: WeightedGraph, mask: VertexMask, sep: PathSeparator):
    """Check a separator certificate; returns the first SeparatorViolation or None.

    Verified: every path is a shortest path of its group's residual graph,
    the mask with all earlier groups deleted (its stored length equals both
    its edge-weight sum and the Dijkstra distance between its endpoints,
    exactly), the stored flaps are the components of the mask minus S, and
    every flap has at most floor(|alive|/2) vertices. A mask over another
    vertex count than the graph's raises ValueError.

    A multi-vertex path is searched from its first vertex, cut at its
    length. A residual of at most PATH_CHECK_HEAP_MAX alive vertices runs the
    heap; a larger one runs one scipy call per path on the group's CSR
    slice. The node's first such slice is one induced call, and each later
    group's, and the final residual's for the flaps, is the previous one
    without the previous group's vertices.
    """
    # The two engines return the same float, bit for bit. Each relaxes
    # d(v) = d(u) + w, so each returns the least left-to-right float sum over
    # residual walks from the first vertex: fl(x + w) is monotone in x and at
    # least x for w >= 0, so the sums along a walk never decrease and the least
    # ones settle in pop order, in floats as in reals. By the same monotonicity
    # only a pair's lightest edge, the one the CSR keeps, can give a least sum.
    # The cut hides no walk that reaches the far end at or below path.length,
    # since every prefix of such a walk is at or below it too; past the cut
    # both report inf (the heap sets no distance above it, scipy's limit is
    # inclusive).
    if mask.n != g.n:
        raise ValueError(f"mask is over {mask.n} vertices but the graph has {g.n}")
    alive, sliced, gone = mask, None, ()
    for gi, group in enumerate(sep.groups):
        sliced = _next_slice(g, alive, sliced, gone)
        for pi, path in enumerate(group):
            fault = _path_fault(g, alive, sliced, path)
            if fault is not None:
                return SeparatorViolation(fault[0], gi, pi, fault[1])
        gone = [v for p in group for v in p.vertices]
        alive = alive.without(gone)
    # alive is now the mask with S deleted
    sliced = _next_slice(g, alive, sliced, gone)
    if sliced is None:
        flaps = components(g, alive)
    else:
        sub, verts = sliced
        union = (sub, verts, np.zeros(len(verts), dtype=np.int64))
        flaps = _component_masks(g, [alive], union, *_component_labels(sub))[0]
    if list(sep.flaps) != flaps:
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


def _next_slice(g: WeightedGraph, alive: VertexMask, sliced, gone):
    """The induced slice (sub, verts) of the residual alive if it holds more
    than PATH_CHECK_HEAP_MAX vertices, else None. sliced is the previous
    residual's, or None, and gone the vertices deleted since."""
    if len(alive) <= PATH_CHECK_HEAP_MAX:
        return None
    return induced(g, alive) if sliced is None else _slice_without(*sliced, gone)


def _path_fault(g: WeightedGraph, alive: VertexMask, sliced, path: Path):
    """(kind, message) for the first fault of a path of the group whose
    residual is alive, or None. sliced is that residual's induced slice
    (sub, verts), or None to search with the heap."""
    verts = path.vertices
    if not verts:
        return "structure", "empty path"
    if len(set(verts)) != len(verts):
        return "structure", "path repeats a vertex"
    if not alive.alive.issuperset(verts):
        dead = next(v for v in verts if v not in alive)
        return "structure", f"path vertex {dead} is not alive in its residual"
    try:
        total = _walk_length(g, verts)
    except GraphError as exc:
        return "structure", str(exc)
    if total != path.length:
        return "structure", f"stored length {path.length} != sum of edge weights {total}"
    if len(verts) == 1:
        return None  # its residual distance is 0.0, its length's sum
    a, b = verts[0], verts[-1]
    if sliced is None:
        dist = _dijkstra(g, alive, a, cutoff=path.length)[0].get(b, INF)
    else:
        sub, ids = sliced
        dist = _distance_on(sub, *np.searchsorted(ids, (a, b)).tolist(), path.length)
    if dist != path.length:
        return "not-shortest", (f"path of length {path.length} between {a} and {b} "
                                f"but residual distance is {dist}")
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
    node still unbalanced: one double sweep from their targets and one
    components call, over one union of their residuals."""
    return _greedy_find_level(g, masks, None)


def _greedy_find_level(g: WeightedGraph, masks, on_round) -> list[PathSeparator]:
    """greedy_find_level. Each round runs on one level union (graph._level_union)
    of the residuals of the nodes still unbalanced: the previous round's
    components call built it, and the round's double sweep starts from each
    node's target, its largest component, at the target's smallest vertex.
    The node's other components share no edge with the target, so the sweep
    never reaches them. After the round deletes its paths, one union of the
    same nodes' residuals serves its components call; when some of these
    nodes are then balanced, the others get a union of their own.

    Unless on_round is None, round t calls on_round(t, todo, paths, union)
    after its sweep and before it deletes its paths: node todo[k]'s t-th path
    is paths[k], and mask k of union is that node's residual."""
    if any(len(mask) == 0 for mask in masks):
        raise ValueError("cannot separate an empty residual graph")
    union = _level_union(g, masks)
    label, first = _component_labels(union[0])
    if np.any(np.bincount(union[2][first], minlength=len(masks)) != 1):
        raise ValueError("greedy_find requires a connected residual graph")
    residual = list(masks)
    groups: list[list[tuple[Path]]] = [[] for _ in masks]
    flaps: list[tuple[VertexMask, ...]] = [()] * len(masks)
    half = np.array([len(mask) // 2 for mask in masks])
    todo = list(range(len(masks)))  # the nodes of the union
    for t in itertools.count():
        # a node is unbalanced when one of its components, its target, holds
        # over half its alive count; two such would hold more than all of it
        node = union[2][first]
        big = np.flatnonzero(np.bincount(label) > half[todo][node])
        still = np.zeros(len(todo), dtype=bool)
        still[node[big]] = True
        if not still.all():
            for k, comps in enumerate(_component_masks(g, [residual[i] for i in todo], union,
                                                       label, first)):
                if not still[k]:
                    flaps[todo[k]] = tuple(comps)
            if not still.any():
                break
            # the others get a union of their own: renumber their components
            # and first vertices into it, keeping the order
            keep, kept = still[union[2]], still[node]
            label, big = (np.cumsum(kept) - 1)[label[keep]], (np.cumsum(kept) - 1)[big]
            first = (np.cumsum(keep) - 1)[first[kept]]
            todo = [i for i, s in zip(todo, still.tolist()) if s]
            union = _level_union(g, [residual[i] for i in todo])
        _, verts, owner = union
        target = big[np.argsort(owner[first[big]])]
        if len(verts) == len(todo):  # single vertices, each its own path
            paths = [Path((v,), 0.0) for v in verts[first[target]].tolist()]
        else:
            paths = _double_sweep_on(union, first[target])
        if on_round is not None:
            on_round(t, todo, paths, union)
        for i, path in zip(todo, paths):
            groups[i].append((path,))
            residual[i] = residual[i].without(path.vertices)
        if not any(residual[i] for i in todo):
            break  # no flaps
        union = _level_union(g, [residual[i] for i in todo])
        label, first = _component_labels(union[0])
    return [PathSeparator(tuple(grp), c) for grp, c in zip(groups, flaps)]


def tree_centroid_find(g: WeightedGraph, mask: VertexMask) -> PathSeparator:
    """Exact single-vertex separator for tree residuals (the centroid)."""
    n_alive = len(mask)
    if n_alive == 0:
        raise ValueError("cannot separate an empty residual graph")
    alive = mask.alive
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
    # a tree is connected (the walk reached every vertex) with n - 1 edges;
    # each edge, parallel ones included, appears once in each endpoint's list
    edge_count = sum(1 for u in alive for v, _ in g.adj[u] if v in alive) // 2
    if len(order) != n_alive or edge_count != n_alive - 1:
        raise NotATreeError("residual graph is not a tree")

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

    flaps = tuple(components(g, mask.without((centroid,))))
    return PathSeparator(((Path((centroid,), 0.0),),), flaps)


def separator_lines(sep: PathSeparator) -> list[str]:
    """Audit dump: one line `group j: v_a v_b ... v_z` per group."""
    lines = []
    for j, group in enumerate(sep.groups):
        verts = " ".join(str(v) for p in group for v in p.vertices)
        lines.append(f"group {j}: {verts}")
    return lines
