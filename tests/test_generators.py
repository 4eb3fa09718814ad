import math
from itertools import combinations

import pytest

from pathdecomp import (
    WeightedGraph,
    gen_grid,
    gen_ktree,
    weighted_diameter,
)
from pathdecomp.generators import expected_grid_edges, expected_ktree_edges


class TestGrid:
    def test_1x1(self):
        g = gen_grid(1, 1)
        assert g.n == 1 and len(g.edges) == 0

    def test_2x2(self):
        g = gen_grid(2, 2)
        assert g.n == 4 and len(g.edges) == 4

    def test_8x8_edge_count(self):
        g = gen_grid(8, 8)
        assert len(g.edges) == expected_grid_edges(8, 8) == 112

    def test_unit_weights(self):
        g = gen_grid(3, 4)
        assert all(w == 1.0 for _, _, w in g.edges)

    def test_uniform_weights_in_range(self):
        g = gen_grid(5, 5, "uniform", seed=2)
        assert all(1.0 <= w <= 2.0 for _, _, w in g.edges)

    def test_deterministic_under_seed(self):
        a = gen_grid(4, 6, "uniform", seed=3)
        b = gen_grid(4, 6, "uniform", seed=3)
        assert a.edges == b.edges
        c = gen_grid(4, 6, "uniform", seed=4)
        assert a.edges != c.edges

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError):
            gen_grid(0, 3)

    def test_bad_weight_mode_rejected(self):
        with pytest.raises(ValueError):
            gen_grid(2, 2, "gaussian")

    def test_diameter_of_unit_grid(self):
        assert weighted_diameter(gen_grid(8, 8)) == 14.0


def is_clique(g: WeightedGraph, verts) -> bool:
    have = {(min(u, v), max(u, v)) for u, v, _ in g.edges}
    return all((min(a, b), max(a, b)) in have for a, b in combinations(verts, 2))


class TestKTree:
    def test_smallest_is_clique(self):
        s = gen_ktree(4, 3)
        assert s.graph.n == 4
        assert len(s.graph.edges) == math.comb(4, 2)
        assert is_clique(s.graph, range(4))

    def test_k1_is_tree(self):
        s = gen_ktree(50, 1, seed=5)
        assert len(s.graph.edges) == 49

    def test_edge_count_formula(self):
        s = gen_ktree(100, 3, seed=1)
        assert len(s.graph.edges) == expected_ktree_edges(100, 3)

    def test_connected_by_construction(self):
        # WeightedGraph raises on disconnected input, so building it is the check
        for seed in range(5):
            gen_ktree(64, 2, "uniform", seed=seed)

    def test_elimination_order_is_simplicial(self):
        # newest-first: each vertex, once the later ones are gone, has k
        # remaining neighbours, and they form a clique (treewidth <= k)
        s = gen_ktree(40, 3, seed=9)
        g = s.graph
        neighbors = {v: set() for v in range(g.n)}
        for u, v, _ in g.edges:
            neighbors[u].add(v)
            neighbors[v].add(u)
        remaining = set(range(g.n))
        for v in range(g.n - 1, -1, -1):
            if len(remaining) <= s.k + 1:
                break
            back = neighbors[v] & remaining - {v}
            assert len(back) == s.k
            assert is_clique(g, back)
            remaining.discard(v)

    def test_deterministic_under_seed(self):
        a = gen_ktree(60, 2, "uniform", seed=7)
        b = gen_ktree(60, 2, "uniform", seed=7)
        assert a.graph.edges == b.graph.edges

    def test_n_not_above_k_rejected(self):
        with pytest.raises(ValueError):
            gen_ktree(3, 3)
