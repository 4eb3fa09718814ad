"""Deterministic graph generators for experiments: grids and random k-trees.

Grids give a planar family; k-trees give a bounded-treewidth family: every
vertex is simplicial at creation, so eliminating the vertices newest-first
witnesses treewidth <= k.

Sizes and seeds go through graph._integer: a bool, a float or a string
raises TypeError naming the argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .graph import WeightedGraph, _integer
from .sampler import RngStream

WEIGHT_MODES = ("unit", "uniform")


def _weights(mode: str, count: int, rng: RngStream) -> np.ndarray:
    if mode == "unit":
        return np.ones(count)
    if mode == "uniform":
        return 1.0 + rng.uniforms(count)
    raise ValueError(f"unknown weight mode {mode!r}; expected one of {WEIGHT_MODES}")


def _edge_array(u, v, weight_mode: str, rng: RngStream) -> np.ndarray:
    """The (m, 3) edge array of the pairs (u[i], v[i]), weighted in pair order."""
    return np.column_stack((u, v, _weights(weight_mode, len(u), rng)))


def gen_grid(rows: int, cols: int, weight_mode: str = "unit", seed: int = 0) -> WeightedGraph:
    """rows x cols grid, vertices numbered row-major; weights all 1 or
    uniform in [1, 2] depending on the mode. Each vertex in id order gives
    its edge to the right, then its edge down."""
    rows, cols = _integer("rows", rows), _integer("cols", cols)
    if rows < 1 or cols < 1:
        raise ValueError(f"grid dimensions must be >= 1, got {rows}x{cols}")
    ids = np.arange(rows * cols)
    heads = np.column_stack((ids + 1, ids + cols))
    keep = np.column_stack((ids % cols + 1 < cols, ids + cols < rows * cols))
    # nonzero walks keep row-major: the tails in id order, right before down
    tails = np.nonzero(keep)[0]
    return WeightedGraph(rows * cols, _edge_array(tails, heads[keep], weight_mode, RngStream(seed)))


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
    n, k = _integer("n", n), _integer("k", k, least=1)
    if n <= k:
        raise ValueError(f"need n > k, got n={n}, k={k}")
    rng = RngStream(seed)
    # the cliques, k ids each, sorted, one after another in one flat list: the
    # clique drawn for vertex v has k + 1 + k * (v - k - 1) to choose from,
    # and v's new cliques are it without one member, then v (the newest)
    flat = [j for i in range(k + 1) for j in range(k + 1) if j != i]
    starts = rng.integers(k + 1 + k * np.arange(n - k - 1)) * k
    for v, b in zip(range(k + 1, n), starts.tolist()):
        base = flat[b:b + k]
        for i in range(k):
            flat += base[:i]
            flat += base[i + 1:]
            flat.append(v)
    # the first clique's edges in (i, j) order, then v to each member of its
    # clique, in clique order
    first_u, first_v = np.triu_indices(k + 1, 1)
    u = np.concatenate((first_u, np.array(flat)[starts[:, None] + np.arange(k)].ravel()))
    v = np.concatenate((first_v, np.repeat(np.arange(k + 1, n), k)))
    return KTreeSample(WeightedGraph(n, _edge_array(u, v, weight_mode, rng)), k)


def expected_grid_edges(rows: int, cols: int) -> int:
    return 2 * rows * cols - rows - cols


def expected_ktree_edges(n: int, k: int) -> int:
    return comb(k + 1, 2) + k * (n - k - 1)
