"""Deterministic graph generators for experiments: grids and random k-trees.

Grids give a planar family; k-trees give a bounded-treewidth family: every
vertex is simplicial at creation, so eliminating the vertices newest-first
witnesses treewidth <= k.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .graph import WeightedGraph
from .sampler import RngStream

WEIGHT_MODES = ("unit", "uniform")


def _weights(mode: str, count: int, rng: RngStream):
    if mode == "unit":
        return [1.0] * count
    if mode == "uniform":
        return [1.0 + u for u in rng.uniforms(count)]
    raise ValueError(f"unknown weight mode {mode!r}; expected one of {WEIGHT_MODES}")


def gen_grid(rows: int, cols: int, weight_mode: str = "unit", seed: int = 0) -> WeightedGraph:
    """rows x cols grid, vertices numbered row-major; weights all 1 or
    uniform in [1, 2] depending on the mode."""
    if rows < 1 or cols < 1:
        raise ValueError(f"grid dimensions must be >= 1, got {rows}x{cols}")
    pairs = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                pairs.append((v, v + 1))
            if r + 1 < rows:
                pairs.append((v, v + cols))
    w = _weights(weight_mode, len(pairs), RngStream(seed))
    return WeightedGraph(rows * cols, [(u, v, wi) for (u, v), wi in zip(pairs, w)])


@dataclass(frozen=True)
class KTreeSample:
    """A generated k-tree and its k. Vertex v is created after vertices
    0..v-1 (the first k + 1 form a clique), so eliminating n-1, ..., 0 meets
    only cliques of size <= k."""

    graph: WeightedGraph
    k: int


def gen_ktree(n: int, k: int, weight_mode: str = "unit", seed: int = 0) -> KTreeSample:
    """Random k-tree: a (k+1)-clique, then each new vertex adopts a random
    existing k-clique."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n <= k:
        raise ValueError(f"need n > k, got n={n}, k={k}")
    rng = RngStream(seed)
    pairs = [(i, j) for i in range(k + 1) for j in range(i + 1, k + 1)]
    cliques = [tuple(sorted(set(range(k + 1)) - {i})) for i in range(k + 1)]
    for v in range(k + 1, n):
        base = cliques[rng.integer(len(cliques))]
        for u in base:
            pairs.append((u, v))
            cliques.append(tuple(sorted((set(base) - {u}) | {v})))
    w = _weights(weight_mode, len(pairs), rng)
    return KTreeSample(WeightedGraph(n, [(u, v, wi) for (u, v), wi in zip(pairs, w)]), k)


def expected_grid_edges(rows: int, cols: int) -> int:
    return 2 * rows * cols - rows - cols


def expected_ktree_edges(n: int, k: int) -> int:
    return comb(k + 1, 2) + k * (n - k - 1)
