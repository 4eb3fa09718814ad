import hashlib
import math
import re

import numpy as np
import pytest

from pathdecomp import (
    BallIndex,
    DecompositionParams,
    Partition,
    VertexMask,
    WeightedGraph,
    baseline_decompose,
    beta_bound,
    carve,
    ceil_log2,
    check_cluster_diameters,
    check_partition,
    choose_centers,
    decompose,
    estimate_padding,
    format_partition,
    gen_grid,
    gen_ktree,
    greedy_find,
    sssp,
    threatener_report,
    tree_centroid_find,
    weighted_diameter,
)
from pathdecomp.decomposer import _baseline_index, _graph_digest
from pathdecomp.graph import _DeferredMask

from test_golden import GRAPHS, WEIGHTS
from test_golden import _graph as golden_graph


def unit_path(n):
    return WeightedGraph(n, [(i, i + 1, 1.0) for i in range(n - 1)])


class TestCeilLog2:
    @pytest.mark.parametrize("n,expect", [(1, 0), (2, 1), (3, 2), (4, 2), (5, 3),
                                          (1024, 10), (1025, 11)])
    def test_values(self, n, expect):
        assert ceil_log2(n) == expect


class TestBetaBound:
    def test_smallest_case(self):
        # p_eff=1, n=2: K = max(2, 9*1*1) = 9
        assert beta_bound(1, 2) == 40.0 * math.log(9) / math.log(2)

    def test_direct_evaluation(self):
        # p_eff=2, n=1024: K = 9*2*10 = 180
        val = beta_bound(2, 1024)
        assert val == 40.0 * math.log(180) / math.log(2)
        assert abs(val - 299.674) < 0.001

    def test_degenerate_clamp(self):
        # n=1 makes ceil(log2 n) = 0; K clamps to 2
        assert beta_bound(1, 1) == 40.0

    def test_monotone(self):
        for p in range(1, 6):
            for n in (2, 4, 32, 500):
                assert beta_bound(p, n) <= beta_bound(p + 1, n)
                assert beta_bound(p, n) <= beta_bound(p, n + 1)


class TestChooseCenters:
    def test_single_vertex(self):
        g = WeightedGraph(1, [])
        seq = choose_centers(g, 1.0)
        assert len(seq.records) == 1
        rec = seq.records[0]
        assert rec.center == 0 and rec.depth == 0
        assert rec.subgraph.alive == {0}
        assert seq.max_depth == 0 and seq.p_eff == 1

    def test_unit_path_with_centroid_finder(self):
        g = unit_path(5)
        seq = choose_centers(g, 4.0, tree_centroid_find)
        got = [(r.center, r.depth, sorted(r.subgraph.alive)) for r in seq.records]
        assert got == [
            (2, 0, [0, 1, 2, 3, 4]),
            (0, 1, [0, 1]),
            (1, 2, [1]),
            (3, 1, [3, 4]),
            (4, 2, [4]),
        ]

    def test_orders_strictly_increase(self):
        g = gen_grid(6, 7)
        seq = choose_centers(g, 5.0)
        assert [r.order for r in seq.records] == list(range(len(seq.records)))

    def test_grid_depth_and_path_partition(self):
        g = gen_grid(8, 8)
        seq = choose_centers(g, 8.0)
        assert seq.max_depth <= 6  # ceil(log2 64)
        seen = []
        for p in seq.paths:
            seen.extend(p.vertices)
        assert sorted(seen) == list(range(64))  # each vertex in exactly one path

    def test_p_eff_is_max_over_nodes(self):
        g = gen_grid(8, 8)
        seq = choose_centers(g, 8.0)
        assert seq.p_eff == max(sep.total_paths for _, sep in seq.separators)

    def test_centers_alive_in_their_subgraph(self):
        g = gen_ktree(60, 2, "uniform", seed=3).graph
        seq = choose_centers(g, 3.0)
        for rec in seq.records:
            assert rec.center in rec.subgraph

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            choose_centers(unit_path(3), 0.0)

    @pytest.mark.parametrize("delta", [math.inf, math.nan])
    def test_rejects_non_finite_delta(self, delta):
        with pytest.raises(ValueError, match=r"^delta must be positive and finite"):
            choose_centers(unit_path(3), delta)

    @pytest.mark.parametrize("delta", [True, False, np.True_])
    def test_rejects_bool_delta(self, delta):
        # True would run as delta 1.0
        message = rf"^delta must be a number, got {re.escape(repr(delta))}$"
        with pytest.raises(TypeError, match=message):
            choose_centers(unit_path(3), delta)

    def test_index_build_makes_few_scipy_calls(self, monkeypatch):
        # one sweep per recursion level and round, not one call per subgraph
        import pathdecomp.graph as graph_module

        g = gen_ktree(2048, 2).graph
        delta = weighted_diameter(g) / 4
        seq = choose_centers(g, delta)
        calls = []
        real = graph_module.csgraph_dijkstra
        monkeypatch.setattr(graph_module, "csgraph_dijkstra",
                            lambda *a, **kw: calls.append(1) or real(*a, **kw))
        index = BallIndex.of_records(g, seq.records, delta)
        assert index.n_records == len(seq.records) == 2048
        assert len(calls) <= 120

    def test_finder_and_index_make_few_scipy_calls(self, monkeypatch):
        # the greedy finder runs level by level too: two sweeps per round of a
        # level, not two per component (899 calls with one sweep per component)
        import pathdecomp.graph as graph_module

        g = gen_ktree(2048, 2).graph
        delta = weighted_diameter(g) / 4
        calls = []
        real = graph_module.csgraph_dijkstra
        monkeypatch.setattr(graph_module, "csgraph_dijkstra",
                            lambda *a, **kw: calls.append(1) or real(*a, **kw))
        seq = choose_centers(g, delta)
        assert len(seq.records) == 2048
        assert len(calls) <= 120


def _record_subgraph_cases():
    for kind, a, b in GRAPHS:
        for weights in WEIGHTS:
            yield pytest.param(kind, a, b, weights, greedy_find,
                               id=f"{kind}{a},{b}-{weights}-greedy")
            if kind == "ktree" and b == 1:
                yield pytest.param(kind, a, b, weights, tree_centroid_find,
                                   id=f"{kind}{a},{b}-{weights}-centroid")


@pytest.mark.parametrize("kind,a,b,weights,finder", list(_record_subgraph_cases()))
def test_record_subgraphs_are_the_derived_residuals(kind, a, b, weights, finder):
    # the golden graphs: every record of group j of a node lives in the node's
    # mask minus groups 0..j-1, one mask object per group, the node's own at j = 0;
    # sep.residuals(mask) gives the same masks, then mask - S
    g = golden_graph(kind, a, b, weights)
    seq = choose_centers(g, weighted_diameter(g) / 4, finder)
    records_of = {}
    for rec in seq.records:
        records_of.setdefault(rec.path_id, []).append(rec)
    pid = 0
    for mask, sep in seq.separators:
        residual = mask
        derived = list(sep.residuals(mask))
        assert len(derived) == len(sep.groups) + 1 and derived[0] is mask
        for j, group in enumerate(sep.groups):
            assert derived[j] == residual
            recs = []
            for path in group:
                assert seq.paths[pid] is path
                recs += records_of[pid]
                pid += 1
            assert recs and all(rec.group == j for rec in recs)
            assert recs[0].subgraph == residual
            assert all(rec.subgraph is recs[0].subgraph for rec in recs)
            assert j or recs[0].subgraph is mask
            residual = residual.without(v for p in group for v in p.vertices)
        assert derived[-1] == residual == mask.without(sep.separator_vertices)
    assert pid == len(seq.paths)


def test_greedy_run_builds_no_later_group_residual():
    # a greedy run indexes its balls on the finder's own unions, so nothing
    # reads a record's residual past group 0: each stays a deferred mask,
    # and reading one gives the derived residual
    g = gen_grid(32, 32)
    seq = choose_centers(g, weighted_diameter(g) / 8)
    later = [rec for rec in seq.records if rec.group >= 1]
    assert len({id(rec.subgraph) for rec in later}) >= 10
    assert all(type(rec.subgraph) is _DeferredMask for rec in later)
    assert all(type(rec.subgraph) is VertexMask for rec in seq.records if rec.group == 0)
    node_of = {}
    for mask, sep in seq.separators:
        for path in (p for grp in sep.groups for p in grp):
            node_of[id(path)] = (mask, sep)
    rec = later[-1]
    mask, sep = node_of[id(seq.paths[rec.path_id])]
    derived = list(sep.residuals(mask))[rec.group]
    assert rec.subgraph == derived and rec.subgraph.alive == derived.alive
    assert type(rec.subgraph) is VertexMask


def _count_calls(monkeypatch, module, name):
    """Count the calls of module.name, which still runs."""
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **kw: calls.append(1) or real(*a, **kw))
    return calls


def _index_arrays(seq):
    return [seq.index.record, seq.index.distance, seq.index.starts]


class TestCenterCache:
    def test_repeat_returns_the_kept_sequence_without_scipy(self, monkeypatch):
        import pathdecomp.graph as graph_module

        g = gen_grid(8, 8)
        seq = choose_centers(g, 3.0)
        calls = _count_calls(monkeypatch, graph_module, "csgraph_dijkstra")
        assert choose_centers(g, 3.0) is seq
        assert choose_centers(g, 3, greedy_find) is seq  # an equal delta
        assert calls == []
        assert choose_centers(gen_grid(8, 8), 3.0) is not seq
        assert calls  # the counter sees a build

    def test_other_delta_or_finder_rebuilds(self):
        g = gen_ktree(80, 1, "uniform", seed=2).graph
        first = choose_centers(g, 3.0)
        other = choose_centers(g, 5.0)
        centroid = choose_centers(g, 5.0, tree_centroid_find)
        assert other is not first and centroid is not other
        assert centroid.separators != other.separators
        assert centroid.separators == choose_centers(gen_ktree(80, 1, "uniform", seed=2).graph,
                                                     5.0, tree_centroid_find).separators
        again = choose_centers(g, 3.0)
        assert again is not first
        assert all(np.array_equal(a, b) for a, b in zip(_index_arrays(again),
                                                       _index_arrays(first)))
        assert [r.center for r in again.records] == [r.center for r in first.records]

    def test_estimate_padding_reuses_the_sequence(self, monkeypatch):
        import pathdecomp.decomposer as decomposer_module

        g = gen_grid(8, 8)
        choose_centers(g, 3.0)
        calls = _count_calls(monkeypatch, decomposer_module, "_greedy_find_level")
        estimate_padding(g, 3.0, greedy_find, gammas=(0.0,), trials=5)
        assert calls == []
        estimate_padding(gen_grid(8, 8), 3.0, greedy_find, gammas=(0.0,), trials=5)
        assert calls  # the counter sees a build

    def test_raising_finder_leaves_no_slot(self):
        g = gen_grid(4, 4)
        seq = choose_centers(g, 2.0)

        def broken(g, mask):
            raise RuntimeError("finder failed")

        with pytest.raises(RuntimeError, match="finder failed"):
            choose_centers(g, 2.0, broken)
        assert "centers" not in g._cache
        assert choose_centers(g, 2.0) is not seq

    def test_baseline_index_kept_per_delta(self):
        g = gen_grid(6, 6)
        index = _baseline_index(g, 3.0)
        assert _baseline_index(g, 3.0) is index
        assert _baseline_index(g, 4.0) is not index
        assert _baseline_index(g, 4.0).delta == 4.0


class TestDecompositionParams:
    @pytest.mark.parametrize("delta", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_delta(self, delta):
        with pytest.raises(ValueError, match=r"^delta must be positive and finite"):
            DecompositionParams.for_graph(delta, 0, 1, 16)
        with pytest.raises(ValueError, match=r"^delta must be positive and finite"):
            DecompositionParams.for_baseline(delta, 0, 16)

    @pytest.mark.parametrize("delta", [True, False])
    def test_rejects_bool_delta(self, delta):
        # the params threatener_report and carve take
        for make in (lambda: DecompositionParams.for_graph(delta, 0, 1, 16),
                     lambda: DecompositionParams.for_baseline(delta, 0, 16)):
            with pytest.raises(TypeError, match=rf"^delta must be a number, got {delta!r}$"):
                make()

    @pytest.mark.parametrize("seed", [2.5, True])
    def test_seed_must_be_an_integer(self, seed):
        for make in (lambda: DecompositionParams.for_graph(4.0, seed, 1, 16),
                     lambda: DecompositionParams.for_baseline(4.0, seed, 16)):
            with pytest.raises(TypeError, match="seed must be an integer"):
                make()

    def test_numpy_seed_stored_as_int(self):
        params = DecompositionParams.for_graph(4.0, np.int64(2), 1, 16)
        assert type(params.seed) is int and params == DecompositionParams.for_graph(4.0, 2, 1, 16)


class TestCarve:
    def test_single_vertex(self):
        g = WeightedGraph(1, [])
        part = decompose(g, 1.0, seed=0)
        assert len(part) == 1
        assert list(part.clusters[0].vertices) == [0]

    def test_heavy_edge_splits(self):
        g = WeightedGraph(2, [(0, 1, 10.0)])
        part = decompose(g, 1.0, seed=5)
        assert len(part) == 2
        assert all(len(c.vertices) == 1 for c in part.clusters)

    def test_unit_path_huge_delta_single_cluster(self):
        g = unit_path(5)
        for seed in range(5):
            part = decompose(g, 100.0, seed=seed, finder=tree_centroid_find)
            assert len(part) == 1
            assert part.clusters[0].record.center == 2  # the depth-0 centroid

    def test_star_with_delta_past_diameter(self):
        g = WeightedGraph(9, [(8, i, 1.0) for i in range(8)])  # star, center last id
        for seed in (0, 1, 2):
            part = decompose(g, 4 * 2.0, seed=seed)
            assert len(part) == 1

    def test_deterministic(self):
        # two graphs, so the second call builds its centers instead of reusing them
        a = decompose(gen_grid(8, 8), 6.0, seed=42)
        b = decompose(gen_grid(8, 8), 6.0, seed=42)
        assert np.array_equal(a.cluster_of, b.cluster_of)

    def test_grid_diameter_bound(self):
        g = gen_grid(8, 8)
        part = decompose(g, 6.0, seed=42)
        assert check_partition(g, part) is None
        assert check_cluster_diameters(g, part, 6.0) is None

    def test_radii_in_range_and_clusters_inside_balls(self):
        g = gen_grid(6, 6)
        delta = 5.0
        seq = choose_centers(g, delta)
        params = DecompositionParams.for_graph(delta, 17, seq.p_eff, g.n)
        part = carve(g, seq, params)
        for cl in part.clusters:
            assert delta / 4.0 <= cl.radius <= 0.4 * delta
            dist = sssp(g, cl.record.subgraph, cl.record.center).dist
            for v in cl.vertices:
                assert dist[v] <= cl.radius

    def test_first_claim_semantics(self):
        g = gen_grid(6, 6)
        delta = 5.0
        seq = choose_centers(g, delta)
        params = DecompositionParams.for_graph(delta, 23, seq.p_eff, g.n)
        part = carve(g, seq, params)
        # map each record order to its cluster (if it kept one)
        order_of_cluster = [cl.record.order for cl in part.clusters]
        for cid, cl in enumerate(part.clusters):
            for earlier in part.clusters[:cid]:
                dist = sssp(g, earlier.record.subgraph, earlier.record.center).dist
                for v in cl.vertices:
                    assert not dist[v] <= earlier.radius or earlier.record.order > cl.record.order
        assert order_of_cluster == sorted(order_of_cluster)

    def test_every_seed_gives_valid_partition(self):
        g = gen_ktree(80, 3, "uniform", seed=8).graph
        delta = 4.0
        for seed in range(10):
            part = decompose(g, delta, seed=seed)
            assert check_partition(g, part) is None
            assert check_cluster_diameters(g, part, delta) is None

    def test_carve_matches_naive_reference(self):
        # oracle: re-run the carving loop literally, one full Dijkstra per
        # center in its own subgraph, no profiles, no vectorization
        from pathdecomp import RngStream, TexpParams, ball, texp_sample_many

        for gname, g in [("grid", gen_grid(5, 6, "uniform", seed=2)),
                         ("ktree", gen_ktree(40, 2, "uniform", seed=3).graph)]:
            delta = 3.0
            seq = choose_centers(g, delta)
            params = DecompositionParams.for_graph(delta, 11, seq.p_eff, g.n)
            part = carve(g, seq, params)

            radii = texp_sample_many(params.texp(), RngStream(params.seed),
                                     len(seq.records))
            claimed: set = set()
            naive = []
            for rec, radius in zip(seq.records, radii):
                members = ball(g, rec.subgraph, rec.center, float(radius)) - claimed
                if members:
                    claimed |= members
                    naive.append(members)
            assert len(naive) == len(part.clusters), gname
            for cl, ref in zip(part.clusters, naive):
                assert set(int(v) for v in cl.vertices) == ref, gname

    def test_coverage_certificate(self):
        # every vertex sits on exactly one separator path, within delta/4 of a
        # net center along that path; that center's minimum radius claims it
        from pathdecomp import PathMetricView

        g = gen_grid(9, 7)
        delta = 5.0
        seq = choose_centers(g, delta)
        centers_of_path = {}
        for rec in seq.records:
            centers_of_path.setdefault(rec.path_id, set()).add(rec.center)
        seen = set()
        for pid, path in enumerate(seq.paths):
            view = PathMetricView.from_path(g, path)
            pos = {v: i for i, v in enumerate(path.vertices)}
            for v in path.vertices:
                assert v not in seen
                seen.add(v)
                best = min(view.distance(pos[v], pos[c]) for c in centers_of_path[pid])
                assert best <= delta / 4.0
        assert seen == set(range(g.n))

    @pytest.mark.parametrize("use,carve_delta", [
        pytest.param(carve, 16.0, id="16.0"),
        pytest.param(carve, 2.0, id="2.0"),
        pytest.param(lambda g, seq, params: threatener_report(g, seq, params, 0.0), 2.0,
                     id="threatener_report-2.0"),
    ])
    def test_rejects_mismatched_delta(self, use, carve_delta):
        # centers netted at delta=8: a larger delta used to carve silently and
        # a smaller one to fail deep in the loop with a CoverageError
        g = gen_grid(16, 16)
        seq = choose_centers(g, 8.0)
        assert seq.delta == 8.0
        params = DecompositionParams.for_graph(carve_delta, 0, seq.p_eff, g.n)
        message = f"delta={carve_delta!r} differs from the delta=8.0 the centers were chosen for"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            use(g, seq, params)

    @pytest.mark.parametrize("use", [
        pytest.param(carve, id="carve"),
        pytest.param(lambda g, seq, params: threatener_report(g, seq, params, 0.0),
                     id="threatener_report"),
    ])
    @pytest.mark.parametrize("name,got,want", [
        ("p_eff", 1, 5),
        ("n", 1024, 256),
        ("graph n", 64, 256),
    ])
    def test_rejects_another_p_eff_n_or_graph(self, use, name, got, want):
        # centers netted on grid 16x16 (p_eff 5); another p_eff or n used to
        # change lambda and the threatener bound silently, and an 8x8 graph
        # to get a partition of the sequence's 256 vertices
        seq = choose_centers(gen_grid(16, 16), 8.0)
        assert (seq.p_eff, seq.n) == (5, 256)
        p_eff = got if name == "p_eff" else seq.p_eff
        n = got if name == "n" else seq.n
        g = gen_grid(8, 8) if name == "graph n" else gen_grid(16, 16)
        params = DecompositionParams.for_graph(8.0, 0, p_eff, n)
        message = f"{name}={got} differs from the {name}={want} the centers were chosen for"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            use(g, seq, params)

    @pytest.mark.parametrize("use", [
        pytest.param(carve, id="carve"),
        pytest.param(lambda g, seq, params: threatener_report(g, seq, params, 0.0),
                     id="threatener_report"),
    ])
    def test_rejects_another_graph_of_the_same_size(self, use):
        # centers chosen on the unit 8x8 grid, used on the uniform one: same
        # n, another metric, which used to carve without a word
        unit, uniform = gen_grid(8, 8), gen_grid(8, 8, "uniform", 1)
        seq = choose_centers(unit, 3.0)
        params = DecompositionParams.for_graph(3.0, 1, seq.p_eff, unit.n)
        got, want = _graph_digest(uniform), _graph_digest(unit)
        assert seq.graph_digest == want != got and len(want) == 64
        message = (f"graph digest={got!r} differs from the graph digest={want!r} "
                   f"the centers were chosen for")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            use(uniform, seq, params)
        use(gen_grid(8, 8), seq, params)  # an equal graph, another object

    def test_graph_digest_is_of_the_csr_and_kept_on_the_graph(self):
        g = gen_grid(6, 6)
        csr = g.csr()
        h = hashlib.sha256()
        for a in (csr.indptr, csr.indices, csr.data):
            h.update(a.dtype.str.encode() + a.tobytes())
        assert _graph_digest(g) == h.hexdigest()
        assert g._cache["digest"][2] is _graph_digest(g)
        # the same edges in another order and with a heavier parallel copy
        same = WeightedGraph(g.n, [*reversed(g.edges), (0, 1, 5.0)])
        assert _graph_digest(same) == _graph_digest(g)


class TestBaseline:
    def test_single_vertex(self):
        g = WeightedGraph(1, [])
        part = baseline_decompose(g, 1.0, seed=0)
        assert len(part) == 1

    def test_deterministic(self):
        g = gen_grid(8, 8)
        a = baseline_decompose(g, 6.0, seed=9)
        b = baseline_decompose(g, 6.0, seed=9)
        assert np.array_equal(a.cluster_of, b.cluster_of)

    def test_seed_must_be_an_integer(self):
        g = gen_grid(8, 8)
        for seed in (2.5, True):
            with pytest.raises(TypeError, match="seed must be an integer"):
                baseline_decompose(g, 6.0, seed)
        a, b = baseline_decompose(g, 6.0, np.int64(2)), baseline_decompose(g, 6.0, 2)
        assert np.array_equal(a.cluster_of, b.cluster_of)

    def test_valid_partition_with_diameter_bound(self):
        g = gen_grid(8, 8)
        part = baseline_decompose(g, 6.0, seed=3)
        assert check_partition(g, part) is None
        assert check_cluster_diameters(g, part, 6.0) is None


class TestDumpFormat:
    def test_header_then_pairs(self):
        g = unit_path(4)
        part = decompose(g, 2.0, seed=1)
        params = DecompositionParams.for_graph(2.0, 1, 1, 4)
        text = format_partition(part, {"delta": 2.0, "seed": 1})
        lines = text.strip().split("\n")
        assert lines[0] == "delta=2.0 seed=1"
        pairs = [tuple(map(int, ln.split())) for ln in lines[1:]]
        assert sorted(v for _, v in pairs) == [0, 1, 2, 3]
        assert params.K == max(2, 9 * 1 * 2)


class TestPartitionFromSets:
    def test_round_trip(self):
        part = Partition.from_sets(4, [{0, 2}, {1}, {3}])
        assert list(part.cluster_of) == [0, 1, 0, 2]
        assert len(part) == 3
