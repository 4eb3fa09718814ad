import itertools

import numpy as np
import pytest

import pathdecomp as pd
from pathdecomp import graph, separators
from pathdecomp import (
    NotATreeError,
    Path,
    PathSeparator,
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
from pathdecomp.graph import (
    _dijkstra,
    _distance_on,
    _slice_without,
    balls,
    double_sweep,
    induced,
)
from pathdecomp.separators import PATH_CHECK_HEAP_MAX, greedy_find_level

from test_acceptance import DELTA_FRACTIONS, corpus_specs
from test_carving_reference import spread_weights
from test_golden import GRAPHS, WEIGHTS, _graph
from test_graph import grid_with_zero_edges


def star(leaves=5):
    return WeightedGraph(leaves + 1, [(0, i, 1.0) for i in range(1, leaves + 1)])


def unit_path(n):
    return WeightedGraph(n, [(i, i + 1, 1.0) for i in range(n - 1)])


def hand_separator(g, mask, path_vertices):
    """Single-group separator from explicit path vertices."""
    path = Path.from_vertices(g, path_vertices)
    residual = mask.without(path.vertices)
    return PathSeparator(((path,),), tuple(components(g, residual)))


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

    def test_path_through_an_earlier_group_flagged(self):
        # group 1's residual is derived from group 0: vertex 3 is deleted there
        g = unit_path(6)
        full = VertexMask.full(6)
        sep = PathSeparator(
            ((Path.from_vertices(g, (2, 3)),), (Path.from_vertices(g, (3, 4)),)),
            tuple(components(g, full.without((2, 3, 4)))),
        )
        v = validate_separator(g, full, sep)
        assert (v.kind, v.group, v.path) == ("structure", 1, 0)
        assert v.message == "path vertex 3 is not alive in its residual"

    def test_wrong_length_flagged(self):
        g = unit_path(4)
        full = VertexMask.full(4)
        bad = Path((1, 2), 99.0)
        sep = PathSeparator(
            ((bad,),),
            tuple(components(g, full.without((1, 2)))),
        )
        v = validate_separator(g, full, sep)
        assert v is not None and v.kind == "structure"

    def test_non_adjacent_consecutive_vertices_flagged(self):
        g = unit_path(5)
        full = VertexMask.full(5)
        gap = Path((1, 3), 2.0)  # 1 and 3 are two hops apart, not neighbours
        sep = PathSeparator(
            ((gap,),),
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
            ((path,),),
            (VertexMask(5, [0, 1, 3, 4]),),  # not the true components
        )
        v = validate_separator(g, full, sep)
        assert v is not None and v.kind == "flaps"

    def test_mask_of_another_size_refused(self):
        g = gen_grid(4, 4)
        sep = hand_separator(g, VertexMask.full(16), (1, 5, 9, 13))
        with pytest.raises(ValueError, match="mask is over 20 vertices but the graph has 16"):
            validate_separator(g, VertexMask.full(20), sep)


def residual_paths(g, seq):
    """(residual, slice, path) for every multi-vertex path of a center
    sequence's separators: the residual is the node mask minus the earlier
    groups, and the slice its CSR slice, cut from the previous group's as
    the validator cuts it."""
    out = []
    for mask, sep in seq.separators:
        alive, sliced = mask, induced(g, mask)
        for group in sep.groups:
            out.extend((alive, sliced, p) for p in group if len(p) > 1)
            gone = [v for p in group for v in p.vertices]
            alive, sliced = alive.without(gone), _slice_without(*sliced, gone)
    return out


PATH_CHECK_GRAPHS = [(f"{kind}:{a},{b}:{w}", lambda kind=kind, a=a, b=b, w=w: _graph(kind, a, b, w))
                     for kind, a, b in GRAPHS for w in WEIGHTS] + [
    ("grid:24,24:loguniform", lambda: spread_weights(gen_grid(24, 24), 3)),
    ("ktree:600,2:loguniform", lambda: spread_weights(gen_ktree(600, 2).graph, 4)),
    ("grid:24,24:zero-edges", lambda: grid_with_zero_edges(24)),
]


def broken_certificates(g):
    """(name, mask, certificate) for hand-broken copies of greedy_find's
    certificate of the whole graph, each with one fault: the faults of the
    path check first, then those of the flaps."""
    full = VertexMask.full(g.n)
    sep = greedy_find(g, full)
    assert len(sep.groups) > 2 and len(sep.flaps) > 2
    later = full.without(sep.groups[0][0].vertices)

    def detour(residual):
        # the first two-edge walk that is longer than its ends' distance
        for u in sorted(residual.alive):
            dist = _dijkstra(g, residual, u)[0]
            for x in sorted(x for x, _ in g.adj[u] if x in residual):
                for v in sorted(v for v, _ in g.adj[x] if v in residual and v != u):
                    path = Path.from_vertices(g, (u, x, v))
                    if dist[v] < path.length:
                        return path
        raise AssertionError("no detour")

    def swap_group(k, path):
        groups = list(sep.groups)
        groups[k] = (path,)
        return PathSeparator(tuple(groups), sep.flaps)

    def with_flaps(flaps):
        return PathSeparator(sep.groups, tuple(flaps))

    f = list(sep.flaps)
    dead = sep.groups[0][0].vertices[0]
    return [
        ("group 0 not shortest", swap_group(0, detour(full))),
        ("later group not shortest", swap_group(1, detour(later))),
        ("through an earlier group", swap_group(1, Path.from_vertices(
            g, (dead, next(v for v, _ in g.adj[dead] if v in later))))),
        ("flaps out of order", with_flaps([f[1], f[0], *f[2:]])),
        ("flap missing a vertex", with_flaps([f[0].without([max(f[0].alive)]), *f[1:]])),
        ("two flaps merged", with_flaps([VertexMask(g.n, f[0].alive | f[1].alive), *f[2:]])),
        ("stray flap", with_flaps([*f, VertexMask(g.n, [dead])])),
    ]


class TestPathCheck:
    """The validator's path check: the heap at most PATH_CHECK_HEAP_MAX alive
    vertices, one scipy call on the group's derived slice above."""

    @pytest.mark.parametrize("make", [m for _, m in PATH_CHECK_GRAPHS],
                             ids=[name for name, _ in PATH_CHECK_GRAPHS])
    def test_heap_and_balls_agree_on_every_separator_path(self, make):
        # the heap, the slice engine, balls' one-source call and the stored
        # length are one float
        g = make()
        sides = set()
        seq = pd.choose_centers(g, pd.weighted_diameter(g) / 8)
        for alive, (sub, verts), p in residual_paths(g, seq):
            a, b = p.vertices[0], p.vertices[-1]
            heap = _dijkstra(g, alive, a, cutoff=p.length)[0][b]
            sliced = _distance_on(sub, *np.searchsorted(verts, (a, b)).tolist(), p.length)
            _, vert, dist = balls(g, alive, [a], p.length)
            assert heap == sliced == dist[vert == b][0] == p.length
            sides.add(len(alive) > PATH_CHECK_HEAP_MAX)
        assert sides == ({False, True} if g.n > PATH_CHECK_HEAP_MAX else {False})

    @pytest.mark.parametrize("weights", ["unit", "loguniform"])
    def test_non_shortest_path_above_the_cut_reads_as_the_heap(self, monkeypatch, weights):
        g = gen_grid(16, 16) if weights == "unit" else spread_weights(gen_grid(16, 16), 5)
        full = VertexMask.full(g.n)
        assert g.n > PATH_CHECK_HEAP_MAX
        # 0 to 1 round one unit square, 0 to 16 round two: 3 and 5 edges for a distance of 1
        mutants = [hand_separator(g, full, verts) for verts in [(0, 16, 17, 1), (0, 1, 2, 18, 17, 16)]]
        above = [validate_separator(g, full, sep) for sep in mutants]
        for cut in (0, g.n):
            monkeypatch.setattr(separators, "PATH_CHECK_HEAP_MAX", cut)
            assert [validate_separator(g, full, sep) for sep in mutants] == above
        if weights == "unit":
            assert [(v.kind, v.group, v.path, v.message) for v in above] == [
                ("not-shortest", 0, 0, "path of length 3.0 between 0 and 1 but residual distance is 1.0"),
                ("not-shortest", 0, 0, "path of length 5.0 between 0 and 16 but residual distance is 1.0"),
            ]

    @pytest.mark.parametrize("make", [lambda: gen_ktree(400, 3).graph,
                                      lambda: spread_weights(gen_grid(16, 16), 4)],
                             ids=["ktree400-unit", "grid16-loguniform"])
    def test_mutants_read_the_same_at_every_cut(self, monkeypatch, make):
        # a cut of 0 checks every group and the flaps on slices, a cut of n
        # with the heap and components
        g = make()
        full = VertexMask.full(g.n)
        cases = broken_certificates(g)
        found = {}
        for cut in (0, g.n):
            monkeypatch.setattr(separators, "PATH_CHECK_HEAP_MAX", cut)
            found[cut] = [validate_separator(g, full, sep) for _, sep in cases]
        assert found[0] == found[g.n]
        kinds = [(name, v.kind, v.group, v.path) for (name, _), v in zip(cases, found[0])]
        assert kinds == [
            ("group 0 not shortest", "not-shortest", 0, 0),
            ("later group not shortest", "not-shortest", 1, 0),
            ("through an earlier group", "structure", 1, 0),
            *[(name, "flaps", None, None) for name, _ in cases[3:]],
        ]
        dead = cases[-1][1].flaps[-1]
        assert found[0][2].message == f"path vertex {min(dead.alive)} is not alive in its residual"

    def test_large_residuals_derive_one_slice_per_group(self, monkeypatch):
        # above the cut a node pays one induced call, each later group and
        # the flaps one slice cut from the previous one, and each
        # multi-vertex path one scipy call on it; nothing asks balls
        g = gen_grid(32, 32)
        seq = pd.choose_centers(g, pd.weighted_diameter(g) / 8)
        calls = {"induced": [], "derived": [], "distance": 0}

        def spy_induced(g, mask):
            calls["induced"].append(len(mask))
            return induced(g, mask)

        def spy_derived(sub, verts, gone):
            calls["derived"].append(len(verts) - len(set(gone)))
            return _slice_without(sub, verts, gone)

        def spy_distance(*args):
            calls["distance"] += 1
            return _distance_on(*args)

        def refuse(*args, **kwargs):
            raise AssertionError("the validator asked balls")

        monkeypatch.setattr(separators, "induced", spy_induced)
        monkeypatch.setattr(separators, "_slice_without", spy_derived)
        monkeypatch.setattr(separators, "_distance_on", spy_distance)
        monkeypatch.setattr(graph, "balls", refuse)
        assert all(validate_separator(g, mask, sep) is None for mask, sep in seq.separators)

        big = lambda size: size > PATH_CHECK_HEAP_MAX  # noqa: E731
        induced_sizes, derived_sizes, paths = [], [], 0
        for mask, sep in seq.separators:
            sizes, alive = [], mask
            for group in sep.groups:
                if big(len(alive)):
                    paths += sum(len(p) > 1 for p in group)
                sizes.append(len(alive))
                alive = alive.without(v for p in group for v in p.vertices)
            sizes = [size for size in sizes + [len(alive)] if big(size)]
            induced_sizes += sizes[:1]
            derived_sizes += sizes[1:]
        assert calls["induced"] == induced_sizes and len(induced_sizes) > 1
        assert calls["derived"] == derived_sizes and len(derived_sizes) > len(induced_sizes)
        assert calls["distance"] == paths > 0

    def test_small_residuals_make_no_scipy_call(self, monkeypatch):
        g = gen_ktree(2048, 2).graph
        seq = pd.choose_centers(g, pd.weighted_diameter(g) / 4)
        small = [(mask, sep) for mask, sep in seq.separators if len(mask) <= PATH_CHECK_HEAP_MAX]

        def refuse(*args, **kwargs):
            raise AssertionError("scipy called on a small residual")

        monkeypatch.setattr(graph, "csgraph_dijkstra", refuse)
        monkeypatch.setattr(graph, "connected_components", refuse)
        monkeypatch.setattr(graph, "balls", refuse)
        assert sum(len(p) > 1 for _, sep in small for grp in sep.groups for p in grp) > 100
        assert all(validate_separator(g, mask, sep) is None for mask, sep in small)


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
        (path,), = sep.groups
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


def reference_greedy_find(g, mask):
    """The greedy finder from one-mask calls only: each round sweeps the
    largest component alone, from its smallest vertex, then lists the
    components of the residual left once its path is deleted."""
    comps = components(g, mask)
    if len(comps) != 1:
        raise ValueError("greedy_find requires a connected residual graph")
    groups, residual = [], mask
    while max(map(len, comps), default=0) > len(mask) // 2:
        target = max(comps, key=len)  # ties: first in smallest-id order
        path, = double_sweep(g, [target], [min(target.alive)])
        groups.append((path,))
        residual = residual.without(path.vertices)
        comps = components(g, residual)
    return PathSeparator(tuple(groups), tuple(comps))


def assert_levels_match_reference(g, masks):
    """Run the recursion level by level from masks; every level's
    greedy_find_level must equal the reference finder on each node."""
    shared = 0  # levels of more than one node
    while masks:
        seps = greedy_find_level(g, masks)
        assert seps == [reference_greedy_find(g, mask) for mask in masks]
        shared += len(masks) > 1
        masks = [flap for sep in seps for flap in sep.flaps]
    return shared


def test_greedy_find_level_equals_reference_finder_on_corpus():
    # the acceptance-corpus instances the per-node test above samples
    checked = shared = 0
    for i, (_, g, finder, _) in enumerate(corpus_specs()):
        if i % 8 == 0 and finder is greedy_find:
            shared += assert_levels_match_reference(g, [VertexMask.full(g.n)])
            checked += 1
    assert checked > 50 and shared > 50


def clique_broom(start, path_len, clique):
    """Edges of a unit path start..start+path_len, a clique of `clique`
    vertices next, its first vertex joined to the path's middle, and one
    pendant vertex, last, joined to the path's third vertex. Deleting the
    path, the broom's double-sweep diameter, leaves two components."""
    ids = range(start + path_len + 1, start + path_len + 1 + clique)
    edges = [(start + i, start + i + 1, 1.0) for i in range(path_len)]
    edges += [(a, b, 1.0) for a, b in itertools.combinations(ids, 2)]
    pendant = ids[-1] + 1
    edges += [(start + path_len // 2, ids[0], 1.0), (start + 2, pendant, 1.0)]
    return edges, list(range(start, pendant + 1))


@pytest.mark.parametrize("swap", [False, True], ids=["big-first", "big-last"])
def test_greedy_find_level_round_keeps_a_non_target_component(swap):
    # Node `big` needs a second round, after its first path leaves the clique
    # (over half its alive count) and the pendant vertex: round 1 sweeps a
    # union holding the pendant too. Node `small` is balanced after one path,
    # so round 1 also rebuilds the union for `big` alone. A bridge vertex,
    # outside both nodes, keeps the graph connected.
    big_edges, big = clique_broom(0, 10, 14)
    small_edges, small = clique_broom(len(big), 10, 10)
    bridge = len(big) + len(small)
    g = WeightedGraph(bridge + 1, big_edges + small_edges
                      + [(big[0], bridge, 1.0), (bridge, small[0], 1.0)])
    masks = [VertexMask(g.n, big), VertexMask(g.n, small)]
    if swap:
        masks.reverse()
    ref = [reference_greedy_find(g, mask) for mask in masks]
    by_size = sorted(ref, key=lambda sep: -sum(len(f) for f in sep.flaps))
    assert [sep.total_paths for sep in by_size] == [2, 1]
    first_path = by_size[0].groups[0][0].vertices
    assert len(components(g, VertexMask(g.n, big).without(first_path))) == 2
    assert greedy_find_level(g, masks) == ref
    assert_levels_match_reference(g, masks)


def test_choose_centers_slices_once_per_level_and_round(monkeypatch):
    # The greedy finder slices the CSR once per level; once per round whose
    # deletions leave some vertex, for the round's components and the next
    # round's sweep; and once more per round after which some but not all
    # of its nodes are balanced, for the nodes left. The index slices
    # nothing: each round indexes its balls on the round's union.
    g = gen_grid(32, 32)
    delta = pd.weighted_diameter(g) / 8
    sliced = []
    real = graph._slice
    monkeypatch.setattr(graph, "_slice", lambda g, verts: sliced.append(len(verts)) or
                        real(g, verts))
    seq = pd.choose_centers(g, delta)
    monkeypatch.undo()

    node = dict(seq.separators)
    level, expect = [VertexMask.full(g.n)], 0
    while level:
        expect += 1
        residual = list(level)
        for t in range(max(node[mask].total_paths for mask in level)):
            todo = [k for k, mask in enumerate(level) if len(node[mask].groups) > t]
            for k in todo:
                residual[k] = residual[k].without(node[level[k]].groups[t][0].vertices)
            expect += any(len(residual[k]) for k in todo)
            left = sum(len(node[level[k]].groups) > t + 1 for k in todo)
            expect += 0 < left < len(todo)
        level = [flap for mask in level for flap in node[mask].flaps]
    assert len(sliced) == expect == 39  # 102 when every set was sliced about three times


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

    def test_disconnected_with_tree_edge_count_rejected(self):
        # a triangle 0-1-2 with the pendant path 2-3-4-5, vertex 4 masked out:
        # five vertices and four edges, as in a tree, but 5 is cut off
        g = WeightedGraph(6, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0),
                              (2, 3, 1.0), (3, 4, 1.0), (4, 5, 1.0)])
        with pytest.raises(NotATreeError):
            tree_centroid_find(g, VertexMask(6, [0, 1, 2, 3, 5]))

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
