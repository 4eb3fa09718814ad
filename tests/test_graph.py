import ast
import math
import pathlib
import re
import tracemalloc
import weakref
from collections import deque

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import dijkstra as csgraph_dijkstra

import pathdecomp
from pathdecomp import (
    BallIndex,
    GraphError,
    MaskError,
    Path,
    RngStream,
    VertexMask,
    WeightedGraph,
    ball,
    components,
    dump_graph,
    farthest,
    gen_grid,
    gen_ktree,
    load_graph,
    sssp,
    weighted_diameter,
)
from pathdecomp.graph import (
    SOURCE_BLOCK,
    _DeferredMask,
    _component_labels,
    _component_masks,
    _delete_in_place,
    _dijkstra,
    _level_union,
    _reach,
    balls,
    double_sweep,
    induced,
)
from pathdecomp.separators import PATH_CHECK_HEAP_MAX

from test_carving_reference import spread_weights

INF = math.inf


def bfs_hops(g, src, alive=None):
    """Oracle: hop counts by breadth-first search; equals weighted distance on
    unit-weight graphs."""
    if alive is None:
        alive = [True] * g.n
    dist = {src: 0}
    q = deque([src])
    while q:
        u = q.popleft()
        for v, _ in g.adj[u]:
            if alive[v] and v not in dist:
                dist[v] = dist[u] + 1
                q.append(v)
    return dist


def flood_fill(g, alive_set):
    """Oracle: components by naive flood fill over an explicit vertex set."""
    remaining = set(alive_set)
    out = []
    while remaining:
        seed = min(remaining)
        comp = {seed}
        frontier = [seed]
        while frontier:
            u = frontier.pop()
            for v, _ in g.adj[u]:
                if v in remaining and v not in comp:
                    comp.add(v)
                    frontier.append(v)
        remaining -= comp
        out.append(comp)
    return out


@pytest.fixture(scope="module")
def chain():
    # a--b--c with weights 1 and 2
    return WeightedGraph(3, [(0, 1, 1.0), (1, 2, 2.0)])


@pytest.fixture(scope="module")
def grid8():
    return gen_grid(8, 8)


class TestConstruction:
    def test_rejects_disconnected(self):
        with pytest.raises(GraphError):
            WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])

    @pytest.mark.parametrize("n,edges", [
        (3, [(1, 2, 1.0)]),
        (3, [(0, 2, 1.0)]),
        (3, [(0, 1, 1.0)]),
        (2, []),
        (5, [(1, 2, 1.0), (2, 3, 1.0), (3, 1, 2.0), (1, 2, 0.5)]),
    ], ids=["first", "middle", "last", "no-edges", "both-ends"])
    def test_isolated_vertex_rejected_as_disconnected(self, n, edges):
        # an isolated vertex has an empty CSR row; the connectivity check
        # comes before anything that reads the rows
        for given in (edges, np.array(edges, dtype=np.float64).reshape(-1, 3)):
            with pytest.raises(GraphError, match="graph is disconnected"):
                WeightedGraph(n, given)

    def test_rejects_negative_weight(self):
        with pytest.raises(GraphError):
            WeightedGraph(2, [(0, 1, -0.5)])

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            WeightedGraph(2, [(0, 0, 1.0), (0, 1, 1.0)])

    def test_rejects_bad_id(self):
        with pytest.raises(GraphError):
            WeightedGraph(2, [(0, 2, 1.0)])

    def test_rejects_empty(self):
        with pytest.raises(GraphError):
            WeightedGraph(0, [])

    def test_single_vertex_ok(self):
        g = WeightedGraph(1, [])
        assert g.n == 1

    def test_zero_weight_allowed(self):
        g = WeightedGraph(2, [(0, 1, 0.0)])
        assert sssp(g, VertexMask.full(2), 0).dist[1] == 0.0


class TestSssp:
    def test_chain(self, chain):
        sp = sssp(chain, VertexMask.full(3), 0)
        assert sp.dist == (0.0, 1.0, 3.0)

    def test_chain_masked(self, chain):
        sp = sssp(chain, VertexMask(3, [0, 2]), 0)
        assert sp.dist[2] == INF

    def test_dead_source_raises(self, chain):
        with pytest.raises(MaskError):
            sssp(chain, VertexMask(3, [0, 1]), 2)

    def test_grid_corner_to_corner(self, grid8):
        sp = sssp(grid8, VertexMask.full(64), 0)
        assert sp.dist[63] == 14.0
        oracle = bfs_hops(grid8, 0)
        assert all(sp.dist[v] == oracle[v] for v in range(64))

    def test_parent_map_reconstructs_shortest_path(self, grid8):
        sp = sssp(grid8, VertexMask.full(64), 0)
        p = sp.path_to(63, grid8)
        assert p.vertices[0] == 0 and p.vertices[-1] == 63
        assert p.length == sp.dist[63]

    def test_path_to_a_numpy_id_holds_python_ints(self, grid8):
        sp = sssp(grid8, VertexMask.full(64), 0)
        p = sp.path_to(np.int64(63), grid8)
        assert p == sp.path_to(63, grid8)
        assert all(type(v) is int for v in p.vertices)

    def test_path_to_refuses_a_bool_id(self, grid8):
        sp = sssp(grid8, VertexMask.full(64), 0)
        with pytest.raises(GraphError, match="path vertex True is not an integer"):
            sp.path_to(True, grid8)

    def test_matches_scipy_on_random_weights(self):
        g = gen_ktree(40, 3, "uniform", seed=11).graph
        full = VertexMask.full(g.n)
        dmat = csgraph_dijkstra(g.csr(), directed=False, indices=[0, 7, 25])
        for row, src in zip(dmat, (0, 7, 25)):
            assert tuple(row) == sssp(g, full, src).dist

    def test_heap_search_allocates_what_it_reaches(self):
        # a 3-vertex residual of a 16,384-vertex grid: no n-length list, which
        # alone would take n x 8 bytes
        g = gen_grid(128, 128)
        mask = VertexMask(g.n, [0, 1, 2])
        _dijkstra(g, mask, 0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            dist, parent = _dijkstra(g, mask, 0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert dist == {0: 0.0, 1: 1.0, 2: 2.0} and parent == {0: -1, 1: 0, 2: 1}
        assert peak < g.n * 8 / 16


class TestBall:
    def test_radius_zero(self, grid8):
        assert ball(grid8, VertexMask.full(64), 17, 0.0) == {17}

    def test_chain_radius_one(self, chain):
        assert ball(chain, VertexMask.full(3), 0, 1.0) == {0, 1}

    def test_grid_corner_radius_three(self, grid8):
        got = ball(grid8, VertexMask.full(64), 0, 3.0)
        oracle = {v for v, d in bfs_hops(grid8, 0).items() if d <= 3}
        assert got == oracle
        assert len(got) == 10

    def test_monotone_in_radius(self, grid8):
        full = VertexMask.full(64)
        prev = set()
        for r in (0.0, 1.0, 2.5, 5.0, math.inf):
            cur = ball(grid8, full, 9, r)
            assert prev <= cur
            prev = cur
        assert prev == set(range(64))  # infinite radius is the whole component

    def test_infinite_radius_is_component(self, chain):
        mask = VertexMask(3, [0, 2])
        assert ball(chain, mask, 0, math.inf) == {0}

    def test_negative_radius_raises(self, chain):
        with pytest.raises(ValueError, match="radius must be non-negative, got -1.0"):
            ball(chain, VertexMask.full(3), 0, -1.0)

    def test_nan_radius_raises(self, chain):
        # a nan radius would otherwise give the empty set, without the center
        with pytest.raises(ValueError, match="radius must be non-negative, got nan"):
            ball(chain, VertexMask.full(3), 0, math.nan)


class TestComponents:
    def test_connected_full(self, grid8):
        comps = components(grid8, VertexMask.full(64))
        assert len(comps) == 1 and len(comps[0]) == 64

    def test_chain_without_middle(self, chain):
        comps = components(chain, VertexMask(3, [0, 2]))
        assert [sorted(c) for c in comps] == [[0], [2]]

    def test_grid4_minus_middle_column(self):
        g = gen_grid(4, 4)
        mask = VertexMask.full(16).without([1, 5, 9, 13])
        comps = components(g, mask)
        assert sorted(len(c) for c in comps) == [4, 8]
        oracle = flood_fill(g, mask.alive)
        assert [set(c.alive) for c in comps] == oracle

    def test_empty_mask(self, chain):
        assert components(chain, VertexMask(3, [])) == []

    def test_order_by_smallest_member(self):
        g = gen_grid(3, 3)
        comps = components(g, VertexMask(9, [8, 0, 4]).without([4]))
        assert [min(c) for c in comps] == [0, 8]


class TestFarthest:
    def test_single_alive(self, chain):
        assert farthest(chain, VertexMask(3, [1]), 1) == (1, 0.0)

    def test_chain_from_middle(self, chain):
        assert farthest(chain, VertexMask.full(3), 1) == (2, 2.0)

    def test_grid_corner(self, grid8):
        assert farthest(grid8, VertexMask.full(64), 0) == (63, 14.0)

    def test_tie_breaks_to_smallest_id(self):
        g = gen_grid(1, 3)  # 0-1-2 unit: from 1, both ends at distance 1
        assert farthest(g, VertexMask.full(3), 1) == (0, 1.0)

    def test_zero_weight_tie_prefers_smallest_id_over_source(self):
        g = WeightedGraph(2, [(0, 1, 0.0)])
        assert farthest(g, VertexMask.full(2), 1) == (0, 0.0)


class TestMetricProperties:
    def test_axioms_exact_on_unit_grid(self):
        g = gen_grid(5, 5)
        full = VertexMask.full(25)
        d = [sssp(g, full, u).dist for u in range(25)]
        for u in range(25):
            assert d[u][u] == 0.0
            for v in range(25):
                assert d[u][v] == d[v][u]
                for w in range(25):
                    assert d[u][v] <= d[u][w] + d[w][v]

    def test_axioms_on_random_weights(self):
        g = gen_ktree(30, 2, "uniform", seed=4).graph
        full = VertexMask.full(g.n)
        d = [sssp(g, full, u).dist for u in range(g.n)]
        for u in range(g.n):
            for v in range(g.n):
                assert abs(d[u][v] - d[v][u]) < 1e-9
                for w in range(g.n):
                    assert d[u][v] <= d[u][w] + d[w][v] + 1e-9

    def test_masking_only_grows_distances(self):
        g = gen_grid(5, 5)
        full = VertexMask.full(25)
        sub = full.without([6, 12, 18])
        for src in (0, 4, 20):
            before = sssp(g, full, src).dist
            after = sssp(g, sub, src).dist
            for v in sub.alive:
                assert after[v] >= before[v]


class TestPath:
    def test_from_vertices_sums_weights(self, chain):
        p = Path.from_vertices(chain, (0, 1, 2))
        assert p.length == 3.0

    def test_nonadjacent_rejected(self, chain):
        with pytest.raises(GraphError):
            Path.from_vertices(chain, (0, 2))

    def test_empty_rejected(self, chain):
        with pytest.raises(GraphError):
            Path.from_vertices(chain, ())

    @pytest.mark.parametrize("vertices, message", [
        ([0.9, True], "path vertex 0.9 is not an integer"),
        ([0, True], "path vertex True is not an integer"),
        (["1"], "path vertex '1' is not an integer"),
        ([4], "path vertex 4 is outside 0..3"),
    ])
    def test_ids_follow_the_constructor_rule(self, vertices, message):
        # the ids are refused as given, not truncated by int()
        g = gen_grid(2, 2)
        with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
            Path.from_vertices(g, vertices)
        assert Path.from_vertices(g, [0.0, np.int64(1)]) == Path((0, 1), 1.0)


class TestVertexMaskIds:
    @pytest.mark.parametrize("alive, message", [
        ([True, 2.7], "mask vertex True is not an integer"),
        ([1, 2.7], "mask vertex 2.7 is not an integer"),
        (["1"], "mask vertex '1' is not an integer"),
        ([0, 4], "mask vertex 4 is outside 0..3"),
        ([-1], "mask vertex -1 is outside 0..3"),
    ])
    def test_ids_follow_the_constructor_rule(self, alive, message):
        with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
            VertexMask(4, alive)

    def test_integers_of_any_kind_are_kept_as_python_ints(self):
        mask = VertexMask(4, [np.int64(3), 1.0, 2])
        assert mask.alive == {1, 2, 3}
        assert all(type(v) is int for v in mask.alive)
        assert VertexMask(4, np.array([0, 3])).alive == {0, 3}
        assert VertexMask(4, []).alive == frozenset()


def is_deferred(mask):
    """Whether mask is a `without` mask whose set is not built yet."""
    return type(mask) is _DeferredMask


class TestDeferredMask:
    def test_argument_is_read_at_the_call(self):
        full = VertexMask.full(10)
        drawn = []

        def draw():
            # a generator that draws as it is read, as an rng would
            for v in (1, 2, 3):
                drawn.append(v)
                yield v

        gone = [4, 5]
        a, b = full.without(draw()), full.without(gone)
        assert drawn == [1, 2, 3] and is_deferred(a) and is_deferred(b)
        gone.append(6)
        gone[0] = 9
        assert a.alive == frozenset(range(10)) - {1, 2, 3}
        assert b.alive == frozenset(range(10)) - {4, 5}

    def test_built_mask_drops_its_parent(self):
        parent = VertexMask.full(8).without([0])
        child = parent.without([1, 2])
        ref = weakref.ref(parent)
        del parent
        assert ref() is not None  # the deferred child holds it
        assert len(child) == 5 and not is_deferred(child)
        assert ref() is None
        assert child.alive == frozenset(range(3, 8))

    def test_a_chain_builds_only_the_mask_read(self):
        masks = [VertexMask.full(6)]
        for v in range(4):
            masks.append(masks[-1].without([v]))
        assert list(masks[3]) == [3, 4, 5]
        assert [is_deferred(m) for m in masks] == [False, True, True, False, True]
        assert list(masks[4]) == [4, 5] and not is_deferred(masks[4])
        assert list(masks[2]) == [2, 3, 4, 5]

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_deferred_and_eager_masks_agree(self, data):
        g = gen_grid(5, 5)
        ids = st.lists(st.integers(0, g.n - 1), max_size=12)
        base = VertexMask(g.n, data.draw(ids))
        steps = data.draw(st.lists(ids, min_size=1, max_size=4))
        alive = set(base.alive)
        for gone in steps:
            alive -= set(gone)
        eager = VertexMask(g.n, sorted(alive))

        def deferred():
            # a fresh chain per question, so that each reads an unbuilt mask
            mask = base
            for gone in steps:
                mask = mask.without(gone)
            assert is_deferred(mask)
            return mask

        probe = data.draw(st.integers(0, g.n - 1))
        assert (probe in deferred()) == (probe in eager)
        assert len(deferred()) == len(eager)
        assert list(deferred()) == list(eager)
        assert deferred() == eager and eager == deferred()
        assert hash(deferred()) == hash(eager)
        assert deferred().alive == eager.alive
        assert components(g, deferred()) == components(g, eager)
        (a, va), (b, vb) = induced(g, deferred()), induced(g, eager)
        assert np.array_equal(va, vb)
        for x, y in ((a.indptr, b.indptr), (a.indices, b.indices), (a.data, b.data)):
            assert np.array_equal(x, y)


class TestDiameter:
    def test_chain(self, chain):
        assert weighted_diameter(chain) == 3.0

    def test_grid(self, grid8):
        assert weighted_diameter(grid8) == 14.0

    def test_double_sweep_exact_on_trees(self):
        g = gen_ktree(600, 1, "uniform", seed=9).graph  # large enough for the sweep path
        sweep = weighted_diameter(g)
        exact = csgraph_dijkstra(g.csr(), directed=False).max()
        assert sweep == exact

    @pytest.mark.parametrize("make", [
        lambda: gen_grid(30, 30, "uniform", 3),
        lambda: gen_ktree(700, 2, "uniform", seed=5).graph,
        lambda: gen_ktree(1024, 3, "uniform", seed=1).graph,
    ], ids=["grid30", "ktree700-k2", "ktree1024-k3"])
    def test_double_sweep_matches_heap_sweep(self, make, monkeypatch):
        # above 512 vertices: two scipy sweeps, equal to two heap sweeps from 0
        import pathdecomp.graph as graph_module

        g = make()
        assert g.n > 512
        full = VertexMask.full(g.n)

        def heap_farthest(src):
            dist = sssp(g, full, src).dist
            return max(range(g.n), key=lambda v: (dist[v], -v)), dist

        u, _ = heap_farthest(0)
        v, dist = heap_farthest(u)
        calls = []
        real = graph_module.csgraph_dijkstra
        monkeypatch.setattr(graph_module, "csgraph_dijkstra",
                            lambda *a, **kw: calls.append(1) or real(*a, **kw))
        assert weighted_diameter(g) == dist[v]
        assert len(calls) == 2


def grid_with_zero_edges(side):
    """A unit grid whose every seventh edge weighs 0."""
    g = gen_grid(side, side)
    return WeightedGraph(g.n, [(u, v, 0.0 if i % 7 == 0 else w)
                               for i, (u, v, w) in enumerate(g.edges)])


def edge_orders(g, seed):
    """g's edges given three other ways: shuffled, with each edge's ends
    swapped at random; reversed, each edge's ends swapped; and with a heavier
    parallel copy of every edge, given before or after it at random."""
    edges = list(g.edges)
    rng = np.random.default_rng(seed)
    flips = rng.integers(0, 2, len(edges)).tolist()
    shuffled = [(v, u, w) if flip else (u, v, w)
                for (u, v, w), flip in zip([edges[i] for i in rng.permutation(len(edges))], flips)]
    heavier = []
    for (u, v, w), before in zip(edges, rng.integers(0, 2, len(edges)).tolist()):
        copy = (v, u, 2.0 * w + 1.0)
        heavier += [copy, (u, v, w)] if before else [(u, v, w), copy]
    return {"shuffled": shuffled, "reversed": [(v, u, w) for u, v, w in reversed(edges)],
            "heavier-copies": heavier}


EDGE_ORDER_GRAPHS = {
    "unit-grid": lambda: gen_grid(12, 12),
    "uniform-grid": lambda: gen_grid(12, 12, "uniform", 2),
    "zero-edges": lambda: grid_with_zero_edges(12),
    "log-uniform-ktree": lambda: spread_weights(gen_ktree(200, 2, "unit", 3).graph, 4),
}


class TestEdgeOrder:
    """The shortest-path metric sees only each pair's lightest edge, and the
    heap pops by (distance, id): no result depends on the order the edges are
    given in, on which end of an edge comes first, or on heavier copies."""

    @staticmethod
    def results(g, centers):
        full = VertexMask.full(g.n)
        part = full.without(range(0, g.n, 5))
        radius = weighted_diameter(g) / 4
        out = []
        for mask in (full, part):
            for src in sorted(mask.alive)[::7]:
                paths = sssp(g, mask, src)
                out.append((paths.dist, paths.parent, ball(g, mask, src, radius)))
            out.append([m.alive for m in components(g, mask)])
        # every recursion node, by the heap and by scipy, and one violation
        out.append([pathdecomp.validate_separator(g, m, sep) for m, sep in centers.separators])
        out.append(pathdecomp.validate_separator(g, part, centers.separators[0][1]))
        return out

    @pytest.mark.parametrize("name", sorted(EDGE_ORDER_GRAPHS))
    def test_results_do_not_depend_on_the_edge_order(self, name):
        g = EDGE_ORDER_GRAPHS[name]()
        centers = pathdecomp.choose_centers(g, weighted_diameter(g) / 4)
        want = self.results(g, centers)
        assert want[-1] is not None and set(want[-2]) == {None}
        assert len(centers.separators[0][0]) > PATH_CHECK_HEAP_MAX
        for order, edges in edge_orders(g, 7).items():
            h = WeightedGraph(g.n, edges)
            assert h.adj == g.adj, order
            assert self.results(h, centers) == want, order


class TestDistanceBlocks:
    """The multi-source distance query, graph.balls."""

    @pytest.mark.parametrize("make,radius", [
        # column 10 deleted: two components, and unit distances equal to the radius
        (lambda: gen_grid(30, 30), 7.0),
        (lambda: gen_ktree(700, 2, "uniform", seed=5).graph, 2.5),
        # radius 0 reaches along zero-weight edges only; 3.5 falls between distances
        (lambda: grid_with_zero_edges(30), 0.0),
        (lambda: grid_with_zero_edges(30), 3.5),
    ], ids=["grid30", "ktree700-uniform", "grid30-zero-edges-r0", "grid30-zero-edges-r3.5"])
    def test_masked_residual_matches_heap_search(self, make, radius):
        g = make()
        mask = VertexMask.full(g.n).without(range(10, g.n, 30))
        sources = np.random.default_rng(0).permutation(sorted(mask.alive))
        assert len(sources) > 2 * SOURCE_BLOCK
        row, _, _ = assert_balls_match_heap_search(g, mask, sources, radius)
        if radius == 0.0:
            assert len(row) > len(sources)  # zero-weight edges put neighbours in some ball

    @pytest.mark.parametrize("make,sources,radius,blocks", [
        # a full block of the first rows: its balls' union is a strict subset
        (lambda: gen_grid(40, 40), range(128), 2.0, ["slice"]),
        # the same block at a radius whose union is the whole residual
        (lambda: gen_grid(40, 40), range(128), 60.0, ["slice-all"]),
        # a full block and a partial one, unsorted and with repeats: both swept
        (lambda: gen_grid(40, 40), [700, 3, 3, *range(900, 1025), 41, 41, 5, 1300, 12],
         2.5, ["slice", "slice"]),
        (lambda: gen_grid(40, 40), [*range(500, 628), 9], 3.0, ["slice", "slice"]),
        # calls of fewer sources than a block: one dense call on the residual
        (lambda: gen_grid(40, 40), [77], 4.0, ["dense"]),
        (lambda: gen_grid(40, 40), [700, 3, 3, 41, 5, 1300, 12], 2.5, ["dense"]),
        # zero-weight edges at radius 0, and a radius between two distances
        (lambda: grid_with_zero_edges(40), range(128), 0.0, ["slice"]),
        (lambda: gen_grid(40, 40, "uniform", 3), range(128), 3.3, ["slice"]),
    ], ids=["slice", "slice-all", "unsorted-repeated", "block-then-one", "one",
            "partial-unsorted-repeated", "zero-edges-r0", "uniform-between-distances"])
    def test_every_block_rule_matches_heap_search(self, make, sources, radius, blocks,
                                                  monkeypatch):
        # column 7 deleted: the residual is a strict subset of the graph
        g = make()
        mask = VertexMask.full(g.n).without(range(7, g.n, 40))
        sources = np.array(sorted(mask.alive))[list(sources)]  # positions among the alive
        calls = spy_on_scipy(monkeypatch)
        row, _, _ = assert_balls_match_heap_search(g, mask, sources, radius)
        assert block_rules(calls, len(mask)) == blocks
        if radius == 0.0:
            assert len(row) > len(sources)

    def test_call_under_one_block_makes_one_dense_call(self, monkeypatch):
        g = gen_grid(40, 40)
        calls = spy_on_scipy(monkeypatch)
        balls(g, VertexMask.full(g.n), np.arange(SOURCE_BLOCK - 1), 2.0)
        assert calls == [(g.n, SOURCE_BLOCK - 1, False)]

    @pytest.mark.parametrize("radius", [-1.0, math.nan])
    def test_bad_radius_raises(self, chain, radius):
        with pytest.raises(ValueError, match=f"radius must be non-negative, got {radius}"):
            balls(chain, VertexMask.full(3), [0, 1], radius)

    def test_bool_radius_and_foreign_mask_raise(self, chain):
        # True would run as radius 1.0; a mask over 4 vertices answered on 3
        with pytest.raises(TypeError, match="^radius must be a number, got True$"):
            balls(chain, VertexMask.full(3), [0, 1], True)
        with pytest.raises(ValueError, match="^mask is over 4 vertices but the graph has 3$"):
            balls(chain, VertexMask(4, [0, 1, 2]), [0, 1], 1.0)

    def test_dead_source_raises(self, chain):
        mask = VertexMask(3, [0, 1])
        with pytest.raises(MaskError):
            balls(chain, mask, [0, 2], 1.0)

    def test_balls_of_no_sources_are_empty(self, chain):
        out = balls(chain, VertexMask.full(3), [], 1.0)
        assert len(out) == 3 and all(a.size == 0 for a in out)

    def test_consuming_loop_holds_one_block(self):
        # every source of a 32x32 grid, 8 full blocks; at radius 0.5 every
        # ball is its source alone, so the output is small, and the peak stays
        # below one dense block of SOURCE_BLOCK x 1024 floats
        g = gen_grid(32, 32)
        full = VertexMask.full(g.n)
        g.csr()
        block = SOURCE_BLOCK * g.n * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            row, vert, _ = balls(g, full, np.arange(g.n), 0.5)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert row.tolist() == vert.tolist() == list(range(g.n))
        assert peak < 1.5 * block

    def test_singleton_balls_allocate_no_block_of_the_graph(self):
        # the baseline index of a unit 16k k-tree at W/8: every ball is its
        # center, so each block's dense call runs on its own sources, not n;
        # 16383 = 127 full blocks and a last block of 127 sources
        g = gen_ktree(16383, 2).graph
        delta = weighted_diameter(g) / 8
        g.csr()
        block = SOURCE_BLOCK * g.n * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            index = BallIndex.of_all_vertices(g, delta)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert index.record.tolist() == list(range(g.n))
        assert peak < block

    def test_full_mask_is_not_sliced(self, grid8):
        sub, verts = induced(grid8, VertexMask.full(64))
        assert sub is grid8.csr() and verts.tolist() == list(range(64))

    @pytest.mark.parametrize("sources", [40, 2 * SOURCE_BLOCK + 17], ids=["dense", "blocks"])
    @pytest.mark.parametrize("radius", [0.0, 0.05, 0.4, INF])
    @pytest.mark.parametrize("zero_edges", [False, True], ids=["loguniform", "zero-edges"])
    def test_flat_scan_equals_two_dimensional_extraction(self, sources, radius, zero_edges):
        # reference: one dense call on the residual from every source, read
        # with a 2-D nonzero over the finite entries and a (row, col) gather
        g = random_graph(400, 6, zero_edges, seed=sources)
        mask = VertexMask.full(g.n).without(range(3, g.n, 11))
        rng = np.random.default_rng(sources)
        sources = rng.choice(np.array(sorted(mask.alive)), size=sources)  # repeats too
        sub, verts = induced(g, mask)
        dist = csgraph_dijkstra(sub, directed=True, indices=np.searchsorted(verts, sources),
                                limit=radius)
        row, col = np.nonzero(np.isfinite(dist))
        expect = (row, verts[col], dist[row, col])
        got = balls(g, mask, sources, radius)
        for a, b in zip(got, expect):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        if radius == 0.0 and not zero_edges:
            assert got[0].tolist() == list(range(len(sources)))  # each row its source alone
            assert got[1].tolist() == sources.tolist() and not got[2].any()
        elif radius == 0.0:
            assert len(got[0]) > len(sources)


class TestAllVerticesIndex:
    @pytest.mark.parametrize("make, div", [
        (lambda: gen_grid(24, 24), 8),
        (lambda: gen_grid(24, 24, "uniform", 2), 4),
        (lambda: grid_with_zero_edges(20), 4),
        (lambda: spread_weights(gen_ktree(600, 2).graph, 3), 8),
        (lambda: spread_weights(gen_ktree(600, 2).graph, 3), 0.5),
    ], ids=["unit-grid", "uniform-grid", "zero-edge-grid", "loguniform-ktree",
            "loguniform-ktree-whole-graph"])
    def test_equals_a_lexsort_build(self, make, div):
        # the blockwise scatter against one (vertex, record) lexsort of the
        # concatenated balls, array for array and dtype for dtype
        g = make()
        delta = weighted_diameter(g) / div
        row, vert, dist = balls(g, VertexMask.full(g.n), np.arange(g.n), 0.4 * delta)
        order = np.lexsort((row, vert))
        starts = np.concatenate(([0], np.cumsum(np.bincount(vert, minlength=g.n))))
        index = BallIndex.of_all_vertices(g, delta)
        assert g.n > SOURCE_BLOCK
        for got, want in ((index.record, row[order]), (index.distance, dist[order]),
                          (index.starts, starts)):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_build_peak_stays_near_the_arrays_it_keeps(self):
        # unit grid 64x64 at W/8: the build holds each block's vertices and
        # distances, then the two kept arrays, never a concatenation of all
        # the balls beside them (a lexsort build peaks near 3x)
        g = gen_grid(64, 64)
        delta = weighted_diameter(g) / 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            index = BallIndex.of_all_vertices(g, delta)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        kept = index.record.nbytes + index.distance.nbytes + index.starts.nbytes
        assert peak < 2.5 * kept


def random_graph(n, extra, zero_edges, seed):
    """A connected random graph: a random tree plus extra * n random edges,
    log-uniform weights in [1e-3, 1], every fifth one 0 with zero_edges."""
    rng = np.random.default_rng(seed)
    tree = [(int(rng.integers(v)), v) for v in range(1, n)]
    more = [(int(a), int(b)) for a, b in rng.integers(n, size=(extra * n, 2)) if a != b]
    weights = 10.0 ** (-3.0 * rng.random(len(tree) + len(more)))
    if zero_edges:
        weights[::5] = 0.0
    return WeightedGraph(n, [(a, b, float(w)) for (a, b), w in zip(tree + more, weights)])


def assert_balls_match_heap_search(g, mask, sources, radius):
    """balls(g, mask, sources, radius) is the heap ball of every source, with
    its distances, in (row, vert) order; returns it."""
    heap = {src: sssp(g, mask, src).dist for src in sources.tolist()}
    row, vert, dist = balls(g, mask, sources, radius)
    assert np.all(np.diff(row) >= 0)
    cuts = np.searchsorted(row, np.arange(1, len(sources)))
    for src, members, d in zip(sources.tolist(), np.split(vert, cuts), np.split(dist, cuts)):
        assert members.tolist() == sorted(ball(g, mask, src, radius))
        assert d.tolist() == [heap[src][v] for v in members.tolist()]
    return row, vert, dist


def spy_on_scipy(monkeypatch):
    """Record (matrix rows, sources, min_only) of each scipy Dijkstra call in graph.py."""
    import pathdecomp.graph as graph_module
    calls = []

    def spy(csgraph, indices, min_only=False, **kw):
        calls.append((csgraph.shape[0], len(indices), min_only))
        return csgraph_dijkstra(csgraph, indices=indices, min_only=min_only, **kw)

    monkeypatch.setattr(graph_module, "csgraph_dijkstra", spy)
    return calls


def block_rules(calls, residual):
    """The rule balls took for each block of sources, read from its scipy
    calls: a dense call on the residual, or a sweep of the residual then a
    dense call on a slice of it, strict or all of it."""
    rules, calls = [], list(calls)
    while calls:
        rows, sources, min_only = calls.pop(0)
        assert rows == residual
        if min_only:
            dense_rows, dense_sources, dense_min_only = calls.pop(0)
            assert dense_sources == sources and not dense_min_only
            rules.append("slice" if dense_rows < residual else "slice-all")
        else:
            rules.append("dense")
    return rules


def scipy_double_sweep(g, mask, src):
    """Reference: the one-component double sweep as two single-source scipy
    calls on the mask's own induced CSR, ties to the smallest id."""
    sub, verts = induced(g, mask)
    far = np.searchsorted(verts, src)
    for _ in range(2):
        start = far
        dist, pred = csgraph_dijkstra(sub, directed=False, indices=start, return_predecessors=True)
        far = int(np.argmax(np.where(np.isinf(dist), -INF, dist)))
    walk = [far]
    while walk[-1] != start:
        walk.append(int(pred[walk[-1]]))
    return Path.from_vertices(g, [int(verts[i]) for i in reversed(walk)])


def grid_blocks(side, cut, weights, seed):
    """A side x side grid and the blocks left by deleting the rows and columns
    in cut: pairwise disjoint, non-adjacent masks, many of the same shape."""
    g = gen_grid(side, side, weights, seed)
    keep = [i for i in range(side) if i not in cut]
    bounds = [i for i in range(1, len(keep)) if keep[i] != keep[i - 1] + 1]
    runs = np.split(keep, bounds)
    masks = [VertexMask(g.n, [r * side + c for r in rows for c in cols])
             for rows in runs for cols in runs]
    return g, masks


class TestDoubleSweep:
    @pytest.mark.parametrize("side,cut,weights", [
        (64, set(range(8, 64, 8)), "unit"),            # 64 tied 8x8 / 7x7 blocks
        (72, set(range(4, 72, 5)), "unit"),            # 225 tied 4x4 blocks
        (64, {3, 4, 11, 20, 22, 30, 40, 41, 50}, "unit"),  # mixed shapes
        (64, set(range(8, 64, 8)), "uniform"),
    ], ids=["unit-8x8", "unit-4x4", "unit-mixed", "uniform-8x8"])
    @pytest.mark.parametrize("shuffle", [False, True], ids=["given", "shuffled"])
    def test_level_sweep_equals_one_mask_sweeps(self, side, cut, weights, shuffle):
        g, masks = grid_blocks(side, cut, weights, 3)
        rng = np.random.default_rng(side + len(cut))
        sources = [int(rng.choice(sorted(m.alive))) for m in masks]
        if shuffle:
            order = rng.permutation(len(masks))
            masks, sources = [masks[i] for i in order], [sources[i] for i in order]
        assert len(masks) >= 64
        level = double_sweep(g, masks, sources)
        one = [double_sweep(g, [m], [s])[0] for m, s in zip(masks, sources)]
        assert level == one
        assert one == [scipy_double_sweep(g, m, s) for m, s in zip(masks, sources)]

    @pytest.mark.parametrize("make", [
        lambda: gen_grid(24, 24),
        lambda: gen_grid(24, 24, "uniform", 1),
        lambda: spread_weights(gen_grid(24, 24), 1),
        lambda: gen_ktree(600, 2).graph,
        lambda: gen_ktree(600, 2, "uniform", seed=2).graph,
        lambda: spread_weights(gen_ktree(600, 2).graph, 2),
        lambda: grid_with_zero_edges(24),
    ], ids=["grid24-unit", "grid24-uniform", "grid24-loguniform", "ktree600-unit",
            "ktree600-uniform", "ktree600-loguniform", "grid24-zero-edges"])
    def test_lengths_are_edge_weight_sums_at_every_level(self, make):
        # a path's length is the second sweep's distance to its far end; it must
        # be Path.from_vertices' sum bit for bit, on every path of the greedy
        # recursion (one double sweep per level and round)
        g = make()
        seq = pathdecomp.choose_centers(g, weighted_diameter(g))
        assert seq.max_depth > 1 and any(len(p) > 1 for p in seq.paths[1:])
        for path in seq.paths:
            assert path.length == Path.from_vertices(g, path.vertices).length
        assert weighted_diameter(g) == seq.paths[0].length  # n > 512: the root sweep

    def test_one_vertex_masks_give_one_vertex_paths(self, grid8):
        masks = [VertexMask(64, [v]) for v in (0, 9, 63)]
        assert double_sweep(grid8, masks, [0, 9, 63]) == [Path((v,), 0.0) for v in (0, 9, 63)]

    def test_overlapping_masks_raise(self, grid8):
        masks = [VertexMask(64, [0, 1, 2]), VertexMask(64, [2, 3])]
        with pytest.raises(ValueError, match="overlap"):
            double_sweep(grid8, masks, [0, 3])

    def test_adjacent_masks_raise(self, grid8):
        # the edge 1-2 joins the masks
        masks = [VertexMask(64, [0, 1]), VertexMask(64, [2, 3])]
        with pytest.raises(ValueError, match="edge joins"):
            double_sweep(grid8, masks, [0, 3])

    def test_dead_source_raises(self, grid8):
        masks = [VertexMask(64, [0, 1]), VertexMask(64, [3, 4])]
        with pytest.raises(MaskError, match="source 2 "):
            double_sweep(grid8, masks, [0, 2])


class TestWholeGraphTies:
    """The library's directed sweeps against plain directed=False scipy calls
    on whole graphs with many ties, from 16 fixed sources."""

    @pytest.mark.parametrize("make", [
        lambda: gen_grid(64, 64),
        lambda: gen_ktree(2048, 2).graph,
        lambda: gen_ktree(1000, 3, "uniform").graph,
    ], ids=["unit-grid64", "unit-ktree2048-k2", "uniform-ktree1000-k3"])
    def test_sweeps_match_undirected_scipy(self, make):
        g = make()
        full = VertexMask.full(g.n)
        for src in np.linspace(0, g.n - 1, 16).astype(int).tolist():
            dist = csgraph_dijkstra(g.csr(), directed=False, indices=src)
            far = int(np.argmax(dist))
            assert farthest(g, full, src) == (far, dist[far])
            assert double_sweep(g, [full], [src]) == [scipy_double_sweep(g, full, src)]

    def test_level_components_on_grid_blocks(self):
        g, blocks = grid_blocks(64, set(range(8, 64, 8)), "unit", 0)
        rng = np.random.default_rng(11)
        masks = [b.without(v for v in b.alive if rng.random() < 0.3) for b in blocks]
        assert level_components(g, blocks) == [components(g, b) for b in blocks]
        assert level_components(g, masks) == [components(g, m) for m in masks]


def level_components(g, masks):
    """components for each mask of a level union, through the cores that the
    separator finder's rounds and the validator's flaps run."""
    union = _level_union(g, masks)
    return _component_masks(g, len(masks), union, *_component_labels(union[0]))


class TestLevelComponents:
    def test_equals_components_of_each_mask(self):
        # blocks of a grid, each with random holes, so most fall apart
        g, blocks = grid_blocks(48, set(range(6, 48, 7)), "unit", 0)
        rng = np.random.default_rng(5)
        masks = [b.without(v for v in b.alive if rng.random() < 0.4) for b in blocks]
        masks.append(VertexMask(g.n, []))
        assert level_components(g, masks) == [components(g, m) for m in masks]

    def test_connected_mask_is_its_own_component(self, grid8):
        mask = VertexMask(64, range(16))
        (only,), = level_components(grid8, [mask])
        assert only == mask

    def test_empty_masks_have_no_components(self, grid8):
        assert level_components(grid8, [VertexMask(64, [])]) == [[]]
        assert level_components(grid8, [VertexMask(64, []), VertexMask(64, [])]) == [[], []]

    def test_adjacent_masks_raise(self, grid8):
        with pytest.raises(ValueError, match="edge joins"):
            _level_union(grid8, [VertexMask(64, [0, 1]), VertexMask(64, [2, 3])])


class TestInduced:
    @pytest.mark.parametrize("kind,a,b", [("grid", 8, 8), ("grid", 16, 16), ("grid", 33, 33),
                                          ("ktree", 200, 1), ("ktree", 600, 2),
                                          ("ktree", 1024, 3)])
    @pytest.mark.parametrize("weights", ["unit", "uniform"])
    def test_matches_scipy_fancy_indexing(self, kind, a, b, weights):
        # the golden graphs, sliced by every residual of their separator recursion
        # and by random vertex sets
        g = gen_grid(a, b, weights, 0) if kind == "grid" else gen_ktree(a, b, weights, 0).graph
        seq = pathdecomp.choose_centers(g, weighted_diameter(g) / 4)
        masks = [mask for mask, _ in seq.separators]
        masks += {id(rec.subgraph): rec.subgraph for rec in seq.records}.values()
        rng = np.random.default_rng(a + b)
        masks += [VertexMask(g.n, rng.choice(g.n, size=k, replace=False))
                  for k in rng.integers(0, g.n, size=20)]
        for mask in masks:
            sub, verts = induced(g, mask)
            assert verts.tolist() == sorted(mask.alive)
            expect = g.csr()[verts][:, verts]
            for name in ("indptr", "indices", "data"):
                got, want = getattr(sub, name), getattr(expect, name)
                assert got.dtype == want.dtype and np.array_equal(got, want), name

    @pytest.mark.parametrize("side", [16, 24, 33])
    def test_weight_deleted_slice_equals_induced(self, side):
        # scipy relaxes no inf edge under a finite limit, so one-source
        # distances and predecessors on a slice with vertices deleted by
        # weight are induced's on the smaller set, ties included. The slices:
        # each recursion node's, with its groups deleted one by one, as the
        # separator validator deletes them, and the whole grid with random
        # holes; the limits: past every distance, and a third of the side
        g = gen_grid(side, side)
        rng = np.random.default_rng(side)
        seq = pathdecomp.choose_centers(g, weighted_diameter(g) / 8)
        full = VertexMask.full(g.n)
        holes = [[v for v in range(g.n) if rng.random() < frac] for frac in (0.1, 0.3)]
        nodes = [(mask, [[v for p in grp for v in p.vertices] for grp in sep.groups])
                 for mask, sep in seq.separators if len(mask) > 8] + [(full, holes)]
        compared = 0
        for mask, deletions in nodes:
            sub, verts = induced(g, mask)
            sub, dead = sub.copy(), np.zeros(len(verts), dtype=bool)
            alive = mask
            for gone in deletions:
                alive = alive.without(gone)
                dead[np.searchsorted(verts, gone)] = True
                _delete_in_place(sub, dead)
                if not alive:
                    continue
                want_sub, want_verts = induced(g, alive)
                on_node = np.searchsorted(verts, want_verts)
                for src in rng.choice(want_verts, size=min(3, len(alive)), replace=False):
                    for limit in (float(g.n), side / 3):
                        dist, pred = csgraph_dijkstra(
                            sub, directed=True, indices=[np.searchsorted(verts, src)],
                            limit=limit, return_predecessors=True)
                        want, want_pred = csgraph_dijkstra(
                            want_sub, directed=True, indices=[np.searchsorted(want_verts, src)],
                            limit=limit, return_predecessors=True)
                        assert np.array_equal(dist[0, on_node], want[0])
                        got_pred = pred[0, on_node]
                        assert np.array_equal(got_pred < 0, want_pred[0] < 0)
                        reached = got_pred >= 0
                        assert np.array_equal(verts[got_pred[reached]],
                                              want_verts[want_pred[0, reached]])
                        assert np.all(np.isinf(dist[0, dead])) and np.all(pred[0, dead] < 0)
                        compared += 1
        assert compared > 50

    def test_parallel_edges_keep_the_lightest(self):
        g = WeightedGraph(4, [(0, 1, 2.0), (1, 0, 1.0), (1, 2, 3.0), (2, 3, 1.0)])
        sub, verts = induced(g, VertexMask(4, [0, 1, 3]))
        assert verts.tolist() == [0, 1, 3]
        assert sub.toarray().tolist() == [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]


def heap_level_balls(g, masks, rounds, radius):
    """Oracle: per round, (owner, verts, dist) of every vertex within radius of
    its own mask's source, by the heap sssp, in vertex order."""
    out = []
    for sources in rounds:
        reached = sorted((v, k, d) for k, (mask, src) in enumerate(zip(masks, sources))
                         if src is not None
                         for v, d in enumerate(sssp(g, mask, src).dist) if d <= radius)
        out.append(tuple(list(col) for col in zip(*reached)))
    return out


def level_balls(g, masks, rounds, radius):
    """Per round, (owner, verts, dist) of one _reach sweep over the level
    union from that round's sources, as the center index runs it."""
    sub, verts, owner = _level_union(g, masks)
    for sources in rounds:
        local = np.searchsorted(verts, [src for src in sources if src is not None])
        hit, dist = _reach(sub, local, radius)
        yield owner[hit], verts[hit], dist


class TestLevelBalls:
    @pytest.mark.parametrize("shuffle", [False, True], ids=["given", "shuffled"])
    def test_one_mask_matches_heap_search(self, shuffle):
        # column 10 deleted: the mask falls apart, and unit distances equal the radius
        g = gen_grid(30, 30)
        mask = VertexMask.full(g.n).without(range(10, g.n, 30))
        rng = np.random.default_rng(1)
        rounds = [[int(v)] for v in rng.choice(sorted(mask.alive), size=12, replace=False)]
        if shuffle:
            rounds = [rounds[i] for i in rng.permutation(len(rounds))]
        got = [(o.tolist(), v.tolist(), d.tolist())
               for o, v, d in level_balls(g, [mask], rounds, 4.0)]
        assert got == [(o, v, d) for v, o, d in heap_level_balls(g, [mask], rounds, 4.0)]

    @pytest.mark.parametrize("weights,radius", [("unit", 3.0), ("uniform", 1.5)])
    @pytest.mark.parametrize("shuffle", [False, True], ids=["given", "shuffled"])
    def test_holed_blocks_match_heap_search(self, weights, radius, shuffle):
        # blocks of a grid with random holes; each block has 0 to 3 sources, so
        # later rounds sweep from some blocks only
        g, blocks = grid_blocks(48, set(range(6, 48, 7)), weights, 0)
        rng = np.random.default_rng(7)
        masks = [b.without(v for v in b.alive if rng.random() < 0.3) for b in blocks]
        picks = [[int(v) for v in rng.permutation(sorted(m.alive))[:rng.integers(0, 4)]]
                 for m in masks]
        if shuffle:
            order = rng.permutation(len(masks))
            masks, picks = [masks[i] for i in order], [picks[i] for i in order]
        rounds = [[p[t] if t < len(p) else None for p in picks] for t in range(3)]
        assert any(None in sources for sources in rounds) and len(masks) >= 49
        got = [(o.tolist(), v.tolist(), d.tolist())
               for o, v, d in level_balls(g, masks, rounds, radius)]
        assert got == [(o, v, d) for v, o, d in heap_level_balls(g, masks, rounds, radius)]


def test_scipy_dijkstra_is_imported_only_by_graph():
    # every sweep and every multi-source distance query goes through graph.py
    package = pathlib.Path(pathdecomp.__file__).parent
    users = set()
    for source in package.glob("*.py"):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            imported = isinstance(node, ast.ImportFrom) and any(
                alias.name == "dijkstra" for alias in node.names)
            if imported or (isinstance(node, ast.Attribute) and node.attr == "dijkstra"):
                users.add(source.name)
    assert users == {"graph.py"}


def test_graph_calls_scipy_directed():
    # every CSR handed to scipy is symmetric, so the directed calls and strong
    # components give the undirected answers without scipy's transposed copy
    source = pathlib.Path(pathdecomp.__file__).with_name("graph.py").read_text(encoding="utf-8")
    assert "directed=False" not in source
    seen = set()
    for node in ast.walk(ast.parse(source)):
        name = getattr(getattr(node, "func", None), "id", None)
        if isinstance(node, ast.Call) and name in ("csgraph_dijkstra", "connected_components"):
            seen.add(name)
            kw = {k.arg: ast.literal_eval(k.value) for k in node.keywords
                  if k.arg in ("directed", "connection")}
            assert kw.get("directed") is True, f"{name} at line {node.lineno}"
            if name == "connected_components":
                assert kw.get("connection") == "strong", f"{name} at line {node.lineno}"
    assert seen == {"csgraph_dijkstra", "connected_components"}


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        g = gen_ktree(20, 2, "uniform", seed=1).graph
        f = tmp_path / "g.txt"
        dump_graph(g, f)
        h = load_graph(f)
        assert h.n == g.n
        assert h.edges == g.edges

    def test_comments_and_blanks(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("# a graph\n3 2\n\n0 1 1.0  # edge one\n1 2 2.5\n")
        g = load_graph(f)
        assert g.n == 3
        assert g.edge_weight(1, 2) == 2.5

    def test_edge_count_mismatch(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("3 9\n0 1 1.0\n1 2 2.5\n")
        with pytest.raises(GraphError):
            load_graph(f)

    def test_disconnected_file_rejected(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("4 2\n0 1 1.0\n2 3 1.0\n")
        with pytest.raises(GraphError):
            load_graph(f)

    @pytest.mark.parametrize("text,message", [
        ("3 x\n0 1 1.0\n", r":1: edge count 'x' is not an integer$"),
        ("2.0 1\n0 1 1.0\n", r":1: vertex count '2.0' is not an integer$"),
        ("# ids\n3 2\n0 1 1.0\n\n1 two 1.0\n", r":5: vertex id 'two' is not an integer$"),
        ("3 2\n0 1.5 1.0\n1 2 1.0\n", r":2: vertex id '1.5' is not an integer$"),
        ("3 2\n0 1 1.0\n1 2 abc\n", r":3: weight 'abc' is not a number$"),
    ], ids=["header-m", "header-n", "id", "fractional-id", "weight"])
    def test_bad_token_named_with_its_place(self, tmp_path, text, message):
        f = tmp_path / "g.txt"
        f.write_text(text)
        with pytest.raises(GraphError, match=re.escape(str(f)) + message):
            load_graph(f)


def per_edge_graph(n, edges):
    """Oracle: a per-edge loop over the input. Returns its (edges, adj, csr):
    edges as given, adj[u] the sorted (neighbour, weight) pairs of u with
    each neighbour's lightest weight, the first given of equal weights (so
    -0.0 before 0.0 stays -0.0), and the CSR of those rows. GraphError at
    the first bad edge, with the messages the library keeps for these
    faults."""
    edges = [(int(u), int(v), float(w)) for u, v, w in edges]
    lightest = [{} for _ in range(n)]
    for u, v, w in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u},{v}) has a vertex id outside [0,{n})")
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        if not (w >= 0.0) or math.isinf(w):
            raise GraphError(f"edge ({u},{v}) has invalid weight {w}")
        for a, b in ((u, v), (v, u)):
            if b not in lightest[a] or w < lightest[a][b]:
                lightest[a][b] = w
    adj = [sorted(row.items()) for row in lightest]
    indptr = np.cumsum([0] + [len(row) for row in adj]).astype(np.int32)
    indices = np.array([x for row in adj for x, _ in row], dtype=np.int32)
    data = np.array([w for row in adj for _, w in row], dtype=np.float64)
    return tuple(edges), adj, sp.csr_matrix((data, indices, indptr), shape=(n, n))


def per_edge_grid(rows, cols, weight_mode="unit", seed=0):
    """Oracle: the grid generator's per-vertex loop, as (n, edges)."""
    pairs = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                pairs.append((v, v + 1))
            if r + 1 < rows:
                pairs.append((v, v + cols))
    rng = RngStream(seed)
    w = [1.0] * len(pairs) if weight_mode == "unit" else [1.0 + u for u in rng.uniforms(len(pairs))]
    return rows * cols, [(u, v, wi) for (u, v), wi in zip(pairs, w)]


def per_edge_ktree(n, k, weight_mode="unit", seed=0):
    """Oracle: the k-tree generator's loop over clique sets, as (n, edges)."""
    rng = RngStream(seed)
    pairs = [(i, j) for i in range(k + 1) for j in range(i + 1, k + 1)]
    cliques = [tuple(sorted(set(range(k + 1)) - {i})) for i in range(k + 1)]
    for v in range(k + 1, n):
        base = cliques[rng.integer(len(cliques))]
        for u in base:
            pairs.append((u, v))
            cliques.append(tuple(sorted((set(base) - {u}) | {v})))
    w = [1.0] * len(pairs) if weight_mode == "unit" else [1.0 + u for u in rng.uniforms(len(pairs))]
    return n, [(u, v, wi) for (u, v), wi in zip(pairs, w)]


MULTIGRAPH = (4, [(0, 1, 2.0), (1, 0, 1.0), (1, 2, 0.0), (2, 3, 5.0), (3, 2, 5.0), (0, 1, 1.0),
                  (3, 0, 0.0), (2, 1, 3.5), (0, 2, -0.0), (2, 0, 0.0)])

ORACLE_CASES = {
    "grid-1x1": (lambda: gen_grid(1, 1), lambda: per_edge_grid(1, 1)),
    "grid-1x6": (lambda: gen_grid(1, 6), lambda: per_edge_grid(1, 6)),
    "grid-5x1": (lambda: gen_grid(5, 1), lambda: per_edge_grid(5, 1)),
    "grid-8x8": (lambda: gen_grid(8, 8), lambda: per_edge_grid(8, 8)),
    "grid-64x64": (lambda: gen_grid(64, 64), lambda: per_edge_grid(64, 64)),
    "uniform-7x9": (lambda: gen_grid(7, 9, "uniform", 3), lambda: per_edge_grid(7, 9, "uniform", 3)),
    "uniform-32x32": (lambda: gen_grid(32, 32, "uniform", 1),
                      lambda: per_edge_grid(32, 32, "uniform", 1)),
    **{f"ktree-{n}-{k}-{mode}": (lambda n=n, k=k, mode=mode: gen_ktree(n, k, mode, 5).graph,
                                 lambda n=n, k=k, mode=mode: per_edge_ktree(n, k, mode, 5))
       for n, k, mode in [(2, 1, "unit"), (4, 3, "uniform"), (300, 1, "unit"), (300, 1, "uniform"),
                          (2048, 2, "unit"), (500, 2, "uniform"), (700, 3, "unit"),
                          (700, 3, "uniform")]},
    "multigraph": (lambda: WeightedGraph(*MULTIGRAPH), lambda: MULTIGRAPH),
    "multigraph-array": (lambda: WeightedGraph(MULTIGRAPH[0], np.array(MULTIGRAPH[1])),
                         lambda: MULTIGRAPH),
}


def assert_equals_oracle(g, n, edges):
    want_edges, want_adj, want_csr = per_edge_graph(n, edges)
    assert g.n == n and g.m == len(want_edges)
    assert g.edges == want_edges
    assert [list(a) for a in g.adj] == want_adj
    # the same floats, bit for bit (0.0 and -0.0 compare equal)
    assert [math.copysign(1, w) for _, _, w in g.edges] == [math.copysign(1, w)
                                                             for _, _, w in want_edges]
    assert [math.copysign(1, w) for a in g.adj for _, w in a] == [
        math.copysign(1, w) for a in want_adj for _, w in a]
    for got, want in ((g.csr().indptr, want_csr.indptr), (g.csr().indices, want_csr.indices),
                      (g.csr().data, want_csr.data)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestArrayBuild:
    """The graph built from arrays equals the per-edge loop's, structure for
    structure: edges (input order, parallel edges kept), adj (each pair's
    lightest edge, sorted by neighbour) and the CSR arrays."""

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_equals_per_edge_loop(self, case):
        make, oracle = ORACLE_CASES[case]
        assert_equals_oracle(make(), *oracle())

    def test_load_graph_round_trip(self, tmp_path):
        for name in ("uniform-7x9", "ktree-500-2-uniform", "multigraph"):
            g = ORACLE_CASES[name][0]()
            dump_graph(g, tmp_path / "g.txt")
            assert_equals_oracle(load_graph(tmp_path / "g.txt"), g.n, g.edges)

    def test_pairs_with_a_neighbours_lightest_weight_are_one_object(self):
        g = gen_grid(6, 6)
        assert len({id(p) for a in g.adj for p in a}) == g.n
        g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 2.0), (0, 1, 1.0)])
        assert g.adj == [((1, 1.0), (2, 2.0)), ((0, 1.0), (2, 1.0)), ((0, 2.0), (1, 1.0))]
        # 1.0 is the least weight of every row: a pair (x, 1.0) is x's shared
        # pair, and (2, 2.0) and (0, 2.0) are their own objects
        assert g.adj[0][0] is g.adj[2][1]
        assert len({id(p) for a in g.adj for p in a}) == 5
        # equal weights of other bits are not one weight: row 0 holds -0.0
        # and 0.0, and only the pair carrying its least weight's bits is shared
        g = WeightedGraph(*MULTIGRAPH)
        assert g.adj[2][0] == g.adj[3][0] == (0, 0.0) and g.adj[2][0] is not g.adj[3][0]

    def test_m_without_edges(self):
        g = gen_ktree(50, 2).graph
        assert g._edges is None and g.m == 97 and repr(g) == "WeightedGraph(n=50, m=97)"
        assert g._edges is None and len(g.edges) == g.m

    @pytest.mark.parametrize("edges", [
        [(0, 1, 1.0), (1, 2, 2.0)],
        [(np.int64(0), np.int32(1), np.float32(1.0)), (1.0, 2.0, 2)],
        np.array([[0, 1, 1], [1, 2, 2]]),
        np.array([[0.0, 1.0, 1.0], [1.0, 2.0, 2.0]], dtype=np.float32),
        np.array([(0, 1, 1.0), (1, 2, 2.0)], dtype=object),
        [np.array([0, 1, 1.0]), [1, 2, 2.0]],
        (e for e in [(0, 1, 1.0), (1, 2, 2.0)]),
        [iter((0, 1, 1.0)), (x for x in (1, 2, 2.0))],
    ], ids=["python", "numpy-scalars", "int-array", "float32-array", "object-array",
            "array-rows", "generator", "rows-without-len"])
    def test_integer_ids_and_real_weights_accepted(self, edges):
        g = WeightedGraph(np.int64(3), edges)
        assert type(g.n) is int
        assert g.edges == ((0, 1, 1.0), (1, 2, 2.0))
        assert all(type(x) is int for u, v, _ in g.edges for x in (u, v))
        assert all(type(w) is float for _, _, w in g.edges)

    @pytest.mark.parametrize("n,edges,message", [
        (3, [(0, 1.5, 1.0), (1, 2, 1.0)], r"edge \(0,1.5\) has a vertex id that is not an integer"),
        (2, [(True, 0, 1.0)], r"edge \(True,0\) has a vertex id that is not an integer"),
        (2, [(0, np.True_, 1.0)], r"edge \(0,True\) has a vertex id that is not an integer"),
        (2, [("0", 1, 1.0)], r"edge \('0',1\) has a vertex id that is not an integer"),
        (2, [(0, math.nan, 1.0)], r"edge \(0,nan\) has a vertex id that is not an integer"),
        (2, [(0, 1, True)], r"edge \(0,1\) has invalid weight True"),
        (2, [(0, 1, np.False_)], r"edge \(0,1\) has invalid weight False"),
        (2, [(0, 1, "2.5")], r"edge \(0,1\) has invalid weight '2.5'"),
        (2, [(0, 1, None)], r"edge \(0,1\) has invalid weight None"),
        (2, [(0, math.inf, 1.0)], r"edge \(0,inf\) has a vertex id outside \[0,2\)"),
        (2, [(0, 10**30, 1.0)], rf"edge \(0,{10**30}\) has a vertex id outside \[0,2\)"),
        (2, [(0, 1, -1)], r"edge \(0,1\) has invalid weight -1.0"),
        (2, np.array([[0, 1, 1], [1, 0, 1]], dtype=bool), r"edge \(False,True\) has a vertex id"),
        (3, np.array([[0.0, 1.0, 1.0], [1.0, 2.5, 1.0]]), r"edge \(1,2.5\) has a vertex id"),
        (3, np.array([[0.0, 1.0, 1.0], [2.0, 2.0, 1.0]]), r"self-loop at vertex 2$"),
        # the first bad edge in edge order wins, whatever its fault
        (3, [(0, 1, -1.0), (0, 1.5, 1.0)], r"edge \(0,1\) has invalid weight -1.0"),
        (3, [(0, 1, 1.0), (2, 2, True), (True, 1, 1.0)], r"self-loop at vertex 2$"),
        (3, [(0, 1, 1.0), (2, 7, 1.0), (1, 1, 1.0)], r"edge \(2,7\) has a vertex id outside"),
        # within one edge: id, then self-loop, then weight
        (3, [(1.5, 1.5, True)], r"edge \(1.5,1.5\) has a vertex id that is not an integer"),
        (3, [(4, 4, True)], r"edge \(4,4\) has a vertex id outside"),
        (3, [(2, 2, "x")], r"self-loop at vertex 2$"),
    ])
    def test_first_bad_edge_refused(self, n, edges, message):
        with pytest.raises(GraphError, match=message):
            WeightedGraph(n, edges)

    @pytest.mark.parametrize("edges", [
        [(0, 1, 1.0), (0, 5, 1.0), (1, 1, 1.0)],
        [(0, 1, 1.0), (2, 2, 1.0), (0, 1, -0.5)],
        [(0, 1, math.nan), (-1, 0, 1.0)],
        [(0, 1, 1.0), (1, 2, math.inf)],
        [(0, 1, 1.0), (1, 2, -0.5), (3, 3, 1.0)],
    ])
    def test_value_faults_keep_the_per_edge_message(self, edges):
        with pytest.raises(GraphError) as want:
            per_edge_graph(3, edges)
        for given in (edges, np.array(edges, dtype=np.float64)):
            with pytest.raises(GraphError) as got:
                WeightedGraph(3, given)
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("n", [True, np.True_, False, 2.0, "3", None])
    def test_vertex_count_must_be_an_integer(self, n):
        with pytest.raises(GraphError, match="the vertex count must be an integer"):
            WeightedGraph(n, [])

    @pytest.mark.parametrize("edges", [[(0, 1)], [(0, 1, 1.0, 2.0)], np.zeros((2, 2)),
                                       np.zeros(3)])
    def test_edges_must_be_triples(self, edges):
        with pytest.raises(GraphError):
            WeightedGraph(2, edges)
