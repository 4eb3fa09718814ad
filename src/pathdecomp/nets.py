"""Greedy r-nets on the internal metric of a path.

A net must satisfy packing (pairwise distances > r) and covering (every path
vertex within r of a net point). Along a path both follow from a single
left-to-right scan, because the nearest previously-added net point is always
the last one added. The net radius follows graph._require_radius: a
non-negative real number, never a bool or a string.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import GraphError, Path, WeightedGraph, _require_radius, _walk_sums


@dataclass(frozen=True)
class PathMetricView:
    """A path together with cumulative edge-weight coordinates.

    distance(i, j) = |cumulative[i] - cumulative[j]| is the metric internal to
    the path; for a shortest path of a residual graph it coincides with the
    residual shortest-path metric restricted to the path's vertices.
    """

    path: Path
    cumulative: tuple[float, ...]

    @classmethod
    def from_path(cls, g: WeightedGraph, path: Path) -> "PathMetricView":
        return cls(path, tuple(_walk_sums(g, path.vertices)))

    def distance(self, i: int, j: int) -> float:
        return abs(self.cumulative[i] - self.cumulative[j])


def greedy_net(view: PathMetricView, r: float) -> list[int]:
    """Net points of the path, in path order from the first endpoint.

    A vertex joins the net iff its distance to every previously added net
    point exceeds r; on a path that reduces to checking the last added point.
    Returns vertex ids.
    """
    r = _require_radius(r, "net radius")
    verts = view.path.vertices
    if not verts:
        raise GraphError("cannot build a net on an empty path")
    cum = view.cumulative
    chosen = [0]
    for i in range(1, len(verts)):
        if cum[i] - cum[chosen[-1]] > r:
            chosen.append(i)
    return [verts[i] for i in chosen]
