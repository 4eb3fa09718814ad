import pytest

import pathdecomp as pd
from pathdecomp import (
    NotATreeError,
    Path,
    PathSeparator,
    SeparatorGroup,
    VertexMask,
    WeightedGraph,
    components,
    gen_grid,
    gen_ktree,
    greedy_find,
    separator_lines,
    tree_centroid_find,
    validate_separator,
)
from pathdecomp.separators import greedy_find_level

from test_acceptance import DELTA_FRACTIONS, corpus_specs


def star(leaves=5):
    return WeightedGraph(leaves + 1, [(0, i, 1.0) for i in range(1, leaves + 1)])


def unit_path(n):
    return WeightedGraph(n, [(i, i + 1, 1.0) for i in range(n - 1)])


def hand_separator(g, mask, path_vertices):
    """Single-group separator from explicit path vertices."""
    path = Path.from_vertices(g, path_vertices)
    residual = mask.without(path.vertices)
    return PathSeparator((SeparatorGroup((path,), mask),), tuple(components(g, residual)))


class TestValidator:
    def test_star_center_ok(self):
        g = star()
        sep = hand_separator(g, VertexMask.full(g.n), (0,))
        assert validate_separator(g, VertexMask.full(g.n), sep) is None

    def test_path_endpoint_unbalanced(self):
        g = unit_path(5)
        sep = hand_separator(g, VertexMask.full(5), (4,))
        v = validate_separator(g, VertexMask.full(5), sep)
        assert v is not None and v.kind == "balance"

    def test_grid_middle_column_ok(self):
        g = gen_grid(4, 4)
        sep = hand_separator(g, VertexMask.full(16), (1, 5, 9, 13))
        assert validate_separator(g, VertexMask.full(16), sep) is None
        assert sorted(len(f) for f in sep.flaps) == [4, 8]

    def test_non_shortest_path_flagged(self):
        g = gen_grid(3, 3)
        # 0..2 the long way around: length 4 vs distance 2
        sep = hand_separator(g, VertexMask.full(9), (0, 3, 4, 5, 2))
        v = validate_separator(g, VertexMask.full(9), sep)
        assert v is not None and v.kind == "not-shortest"
        assert v.message == "path of length 4.0 between 0 and 2 but residual distance is 2.0"

    def test_non_shortest_edge_flagged(self):
        # the shortest multi-vertex path: one heavy edge, with a lighter detour
        g = WeightedGraph(3, [(0, 1, 3.0), (0, 2, 1.0), (2, 1, 1.0)])
        v = validate_separator(g, VertexMask.full(3), hand_separator(g, VertexMask.full(3), (0, 1)))
        assert v is not None and v.kind == "not-shortest"
        assert v.message == "path of length 3.0 between 0 and 1 but residual distance is 2.0"

    def test_broken_mask_chain_flagged(self):
        g = unit_path(6)
        full = VertexMask.full(6)
        p1 = Path.from_vertices(g, (2, 3))
        p2 = Path.from_vertices(g, (0,))
        sep = PathSeparator(
            (SeparatorGroup((p1,), full), SeparatorGroup((p2,), full)),  # second mask wrong
            tuple(components(g, full.without((0, 2, 3)))),
        )
        v = validate_separator(g, full, sep)
        assert v is not None and v.kind == "mask-chain"

    def test_wrong_length_flagged(self):
        g = unit_path(4)
        full = VertexMask.full(4)
        bad = Path((1, 2), 99.0)
        sep = PathSeparator(
            (SeparatorGroup((bad,), full),),
            tuple(components(g, full.without((1, 2)))),
        )
        v = validate_separator(g, full, sep)
        assert v is not None and v.kind == "structure"

    def test_non_adjacent_consecutive_vertices_flagged(self):
        g = unit_path(5)
        full = VertexMask.full(5)
        gap = Path((1, 3), 2.0)  # 1 and 3 are two hops apart, not neighbours
        sep = PathSeparator(
            (SeparatorGroup((gap,), full),),
            tuple(components(g, full.without((1, 3)))),
        )
        v = validate_separator(g, full, sep)
        assert v is not None and (v.kind, v.group, v.path) == ("structure", 0, 0)
        assert "1 and 3 are not adjacent" in v.message

    def test_wrong_flaps_flagged(self):
        g = unit_path(5)
        full = VertexMask.full(5)
        path = Path.from_vertices(g, (2,))
        sep = PathSeparator(
            (SeparatorGroup((path,), full),),
            (VertexMask(5, [0, 1, 3, 4]),),  # not the true components
        )
        v = validate_separator(g, full, sep)
        assert v is not None and v.kind == "flaps"


class TestGreedyFinder:
    def test_single_vertex(self):
        g = WeightedGraph(1, [])
        sep = greedy_find(g, VertexMask.full(1))
        assert sep.total_paths == 1
        assert sep.separator_vertices == {0}
        assert sep.flaps == ()

    def test_unit_path_takes_whole_path(self):
        g = unit_path(5)
        sep = greedy_find(g, VertexMask.full(5))
        assert sep.total_paths == 1
        path = sep.groups[0].paths[0]
        assert set(path.vertices) == set(range(5))
        assert {path.vertices[0], path.vertices[-1]} == {0, 4}
        assert sep.flaps == ()

    def test_grid8_valid_and_balanced(self):
        g = gen_grid(8, 8)
        mask = VertexMask.full(64)
        sep = greedy_find(g, mask)
        assert sep.total_paths >= 1
        assert all(len(f) <= 32 for f in sep.flaps)
        assert validate_separator(g, mask, sep) is None

    def test_round_trip_on_random_graphs(self):
        cases = []
        for i in range(20):
            cases.append(gen_ktree(10 + 7 * i, 1 + i % 3, "uniform", seed=i).graph)
        for i in range(10):
            cases.append(gen_grid(2 + i, 3 + (i * 2) % 5, "uniform", seed=i))
        for g in cases:
            mask = VertexMask.full(g.n)
            sep = greedy_find(g, mask)
            assert validate_separator(g, mask, sep) is None

    def test_works_on_masked_subgraph(self):
        g = gen_grid(6, 6)
        mask = VertexMask(36, range(12))  # top two rows
        sep = greedy_find(g, mask)
        assert validate_separator(g, mask, sep) is None

    def test_empty_mask_rejected(self):
        g = unit_path(3)
        with pytest.raises(ValueError, match="^cannot separate an empty residual graph$"):
            greedy_find(g, VertexMask(3, []))

    def test_disconnected_residual_rejected(self):
        g = unit_path(3)
        with pytest.raises(ValueError, match="^greedy_find requires a connected residual graph$"):
            greedy_find(g, VertexMask(3, [0, 2]))

    @pytest.mark.parametrize("bad,match", [
        ([], "^cannot separate an empty residual graph$"),
        ([5, 7], "^greedy_find requires a connected residual graph$"),
    ], ids=["empty", "disconnected"])
    def test_bad_node_in_a_level_rejected(self, bad, match):
        g = unit_path(9)
        with pytest.raises(ValueError, match=match):
            greedy_find_level(g, [VertexMask(9, [0, 1, 2]), VertexMask(9, bad)])

    def test_level_of_adjacent_nodes_rejected(self):
        g = unit_path(6)
        with pytest.raises(ValueError, match="edge joins"):
            greedy_find_level(g, [VertexMask(6, [0, 1, 2]), VertexMask(6, [3, 4, 5])])

    def test_level_equals_one_node_calls(self):
        # the flaps of a k-tree's greedy separator: one level of a recursion
        g = gen_ktree(300, 2, "uniform", seed=1).graph
        flaps = list(greedy_find(g, VertexMask.full(g.n)).flaps)
        assert len(flaps) > 1
        assert greedy_find_level(g, flaps) == [greedy_find(g, flap) for flap in flaps]


def test_choose_centers_separators_equal_per_node_finder_calls():
    # every 8th acceptance-corpus instance: the recursion of the old per-node
    # loop (depth-first, flaps in smallest-id order, one finder call per node)
    checked = 0
    for i, (label, g, finder, seed) in enumerate(corpus_specs()):
        if i % 8:
            continue
        w = pd.weighted_diameter(g)
        delta = max(w, 1.0) * DELTA_FRACTIONS[seed % 3] if w > 0 else 1.0
        seq = pd.choose_centers(g, delta, finder)
        walk, stack = [], [VertexMask.full(g.n)]
        while stack:
            mask = stack.pop()
            sep = finder(g, mask)
            walk.append((mask, sep))
            stack.extend(reversed(sep.flaps))
        assert list(seq.separators) == walk, label
        checked += finder is greedy_find
    assert checked > 50


class TestCentroidFinder:
    def test_single_vertex(self):
        g = WeightedGraph(1, [])
        sep = tree_centroid_find(g, VertexMask.full(1))
        assert sep.separator_vertices == {0}
        assert sep.total_paths == 1

    def test_unit_path_centroid(self):
        g = unit_path(5)
        sep = tree_centroid_find(g, VertexMask.full(5))
        assert sep.separator_vertices == {2}
        assert [sorted(f) for f in sep.flaps] == [[0, 1], [3, 4]]

    def test_cycle_rejected(self):
        g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
        with pytest.raises(NotATreeError):
            tree_centroid_find(g, VertexMask.full(3))

    def test_disconnected_rejected(self):
        g = unit_path(4)
        with pytest.raises(NotATreeError):
            tree_centroid_find(g, VertexMask(4, [0, 1, 3]))

    def test_random_trees_validate(self):
        for seed in range(15):
            g = gen_ktree(63, 1, "uniform", seed=seed).graph
            mask = VertexMask.full(63)
            sep = tree_centroid_find(g, mask)
            assert sep.total_paths == 1
            assert validate_separator(g, mask, sep) is None

    def test_subtree_of_masked_forest_component(self):
        g = unit_path(9)
        mask = VertexMask(9, [4, 5, 6, 7, 8])
        sep = tree_centroid_find(g, mask)
        assert sep.separator_vertices == {6}
        assert validate_separator(g, mask, sep) is None

    def test_tie_breaks_to_smallest_id(self):
        g = unit_path(2)  # both vertices are centroids
        sep = tree_centroid_find(g, VertexMask.full(2))
        assert sep.separator_vertices == {0}


class TestDumpFormat:
    def test_lines(self):
        g = unit_path(5)
        sep = greedy_find(g, VertexMask.full(5))
        lines = separator_lines(sep)
        assert len(lines) == 1
        assert lines[0].startswith("group 0: ")
        assert set(lines[0].split(":")[1].split()) == {"0", "1", "2", "3", "4"}
