import ast
import math
import pathlib
import tracemalloc
from collections import deque

import numpy as np
import pytest
from scipy.sparse.csgraph import dijkstra as csgraph_dijkstra

import pathdecomp
from pathdecomp import (
    BallIndex,
    GraphError,
    MaskError,
    Path,
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
    _dijkstra,
    _slice_without,
    balls,
    double_sweep,
    induced,
    level_balls,
    level_components,
)

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

    def test_one_vertex_masks_make_no_scipy_call(self, grid8, monkeypatch):
        import pathdecomp.graph as graph_module

        monkeypatch.setattr(graph_module, "csgraph_dijkstra", None)
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
        assert only is mask

    def test_adjacent_masks_raise(self, grid8):
        with pytest.raises(ValueError, match="edge joins"):
            level_components(grid8, [VertexMask(64, [0, 1]), VertexMask(64, [2, 3])])


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

    @pytest.mark.parametrize("make", [lambda: gen_grid(24, 24),
                                      lambda: spread_weights(gen_ktree(600, 2).graph, 4)],
                             ids=["grid24", "ktree600-loguniform"])
    def test_slice_without_equals_induced(self, make):
        # every group's residual of the separator recursion, each cut from
        # the previous group's slice as the validator cuts it, then the
        # residual minus S
        g = make()
        seq = pathdecomp.choose_centers(g, weighted_diameter(g) / 8)
        derived = 0
        for mask, sep in seq.separators:
            alive, sliced = mask, induced(g, mask)
            for group in sep.groups:
                gone = [v for p in group for v in p.vertices]
                alive = alive.without(gone)
                sliced = _slice_without(*sliced, gone)
                sub, verts = sliced
                want, want_verts = induced(g, alive)
                assert np.array_equal(verts, want_verts)
                for name in ("indptr", "indices", "data"):
                    got, expect = getattr(sub, name), getattr(want, name)
                    assert got.dtype == expect.dtype and np.array_equal(got, expect), name
                derived += 1
        assert derived == sum(len(sep.groups) for _, sep in seq.separators) > 20

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

    def test_source_outside_its_own_mask_raises(self, grid8):
        # source 2 lies in the other mask, which the edge 1-2 also joins: the
        # source is checked first
        masks = [VertexMask(64, [0, 1]), VertexMask(64, [2, 3])]
        with pytest.raises(MaskError, match="source 2 "):
            next(level_balls(grid8, masks, [[2, 3]], 1.0))

    def test_adjacent_masks_raise(self, grid8):
        masks = [VertexMask(64, [0, 1]), VertexMask(64, [2, 3])]
        with pytest.raises(ValueError, match="edge joins"):
            next(level_balls(grid8, masks, [[0, None]], 1.0))


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
