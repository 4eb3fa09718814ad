import dataclasses
import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathdecomp import (
    CenterRecord,
    Cluster,
    DecompositionParams,
    PaddingRecord,
    Partition,
    PathSeparator,
    VertexMask,
    WeightedGraph,
    baseline_decompose,
    ball,
    check_cluster_diameters,
    check_partition,
    check_recursion_depth,
    check_separators,
    choose_centers,
    decompose,
    estimate_padding,
    gen_grid,
    gen_ktree,
    greedy_find,
    sample_vertices,
    sssp,
    threatener_report,
    tree_centroid_find,
    wilson_lower_bound,
)
from pathdecomp import verifier
from pathdecomp.graph import SOURCE_BLOCK, balls, weighted_diameter
from test_carving_reference import spread_weights


def unit_path(n, order=None):
    """Unit-weight path visiting the vertices in `order` (default: by id)."""
    order = list(range(n)) if order is None else order
    return WeightedGraph(n, [(order[i], order[i + 1], 1.0) for i in range(n - 1)])


def first_far_pair(g, part, delta, search):
    """The diameter message of a per-pair search: the first cluster in id order,
    then its first vertex u in list order, then the first v in list order with
    v not in search(u, bound), the set of vertices within bound of u, and
    their distance by the heap Dijkstra."""
    bound = 0.8 * delta
    for cid, cl in enumerate(part.clusters):
        for u in cl.vertices:
            near = search(int(u), bound)
            far = [v for v in cl.vertices if v not in near]
            if far:
                d = sssp(g, VertexMask.full(g.n), int(u)).dist[far[0]]
                return f"cluster {cid}: d({u},{far[0]}) = {d} exceeds 4*delta/5 = {bound}"
    return None


def spy_on_all_pairs(monkeypatch):
    """Sources of every all-pairs pass (verifier._all_pairs_violation call
    with a cluster to search), the members of its clusters in cluster order,
    that check_cluster_diameters makes from now on; the center check is not
    watched."""
    calls = []
    real = verifier._all_pairs_violation

    def spy(g, cids, layout, bound):
        sizes, starts, members = layout[:3]
        if len(cids):
            calls.append([int(v) for cid in cids
                          for v in members[starts[cid]:starts[cid] + sizes[cid]]])
        return real(g, cids, layout, bound)

    monkeypatch.setattr(verifier, "_all_pairs_violation", spy)
    return calls


class TestCheckPartition:
    def test_all_singletons_ok(self):
        g = gen_grid(3, 3)
        part = Partition.from_sets(9, [{v} for v in range(9)])
        assert check_partition(g, part) is None

    def test_duplicate_vertex_named(self):
        g = gen_grid(2, 2)
        part = Partition.from_sets(4, [{0, 1}, {1, 2}, {3}])
        v = check_partition(g, part)
        assert v is not None and v.kind == "disjointness" and "vertex 1" in v.message

    def test_missing_vertex_flagged(self):
        g = gen_grid(2, 2)
        part = Partition.from_sets(4, [{0, 1}, {3}])
        v = check_partition(g, part)
        assert v is not None and v.kind == "coverage" and "2" in v.message

    def test_empty_cluster_flagged(self):
        g = gen_grid(2, 2)
        part = Partition.from_sets(4, [{0, 1, 2, 3}, set()])
        v = check_partition(g, part)
        assert v is not None and v.kind == "empty-cluster"

    def test_inconsistent_index_flagged(self):
        g = gen_grid(2, 2)
        part = Partition.from_sets(4, [{0, 1}, {2, 3}])
        part.cluster_of[0] = 1
        v = check_partition(g, part)
        assert v is not None and v.kind == "index"

    def test_negative_vertex_id_flagged(self):
        # -1 would alias to vertex 8 and hide that vertex 8 is in no cluster
        g = gen_grid(3, 3)
        part = Partition.from_sets(9, [{0, 1, 2, 3}, {4, 5, 6, 7, -1}])
        assert str(check_partition(g, part)) == "[vertex-id] cluster 1 holds vertex -1, outside 0..8"

    def test_vertex_id_past_n_flagged(self):
        g = gen_grid(3, 3)
        part = Partition(np.array([0, 0, 0, 0, 1, 1, 1, 1, 1]),
                         [Cluster(np.arange(4), None, 0.0),
                          Cluster(np.array([4, 5, 6, 7, 9]), None, 0.0)])
        assert str(check_partition(g, part)) == "[vertex-id] cluster 1 holds vertex 9, outside 0..8"

    @pytest.mark.parametrize("size", [8, 10], ids=["short", "long"])
    def test_cluster_of_of_wrong_length_flagged(self, size):
        g = gen_grid(3, 3)
        clusters = Partition.from_sets(9, [range(9)]).clusters
        part = Partition(np.zeros(size, dtype=np.int64), clusters)
        assert str(check_partition(g, part)) == (
            f"[index] cluster_of has shape ({size},), expected (9,)")

    @pytest.mark.parametrize("lists,expected", [
        # the repeat comes first in cluster order, the larger-id one too
        ([[2, 7], [7, 2], [0, 1, 3, 4, 5, 6, 8]], "[disjointness] vertex 7 appears in clusters 0 and 1"),
        # a bad id before a repeat in the same cluster, and after it
        ([[0, 1, 2, 3], [4, 9, 1, 5, 6, 7, 8]], "[vertex-id] cluster 1 holds vertex 9, outside 0..8"),
        ([[0, 1, 2, 3], [4, 1, 9, 5, 6, 7, 8]], "[disjointness] vertex 1 appears in clusters 0 and 1"),
        # an empty cluster before and after a cluster with a repeat
        ([[0, 1, 2, 3], [], [4, 4, 5, 6, 7, 8]], "[empty-cluster] cluster 1 is empty"),
        ([[0, 1, 2, 3], [4, 4, 5, 6, 7, 8], []], "[disjointness] vertex 4 appears in clusters 1 and 1"),
        # two repeats: the first by position, not the one first held earlier
        ([[5], [0, 1, 2], [3, 4, 6, 1, 7, 8, 5]], "[disjointness] vertex 1 appears in clusters 1 and 2"),
    ], ids=["repeat-order", "id-then-repeat", "repeat-then-id", "empty-first", "empty-last",
            "two-repeats"])
    def test_first_of_two_violations_reported(self, lists, expected):
        g = gen_grid(3, 3)
        part = Partition(np.zeros(9, dtype=np.int64),
                         [Cluster(np.array(vs, dtype=np.int64), None, 0.0) for vs in lists])
        assert str(check_partition(g, part)) == expected

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_per_vertex_scan(self, data):
        # the per-vertex loop the check replaces, as the reference
        def reference(n, part):
            owner = np.full(n, -1, dtype=np.int64)
            for cid, cl in enumerate(part.clusters):
                if len(cl.vertices) == 0:
                    return f"[empty-cluster] cluster {cid} is empty"
                for v in cl.vertices.tolist():
                    if not 0 <= v < n:
                        return f"[vertex-id] cluster {cid} holds vertex {v}, outside 0..{n - 1}"
                    if owner[v] >= 0:
                        return f"[disjointness] vertex {v} appears in clusters {owner[v]} and {cid}"
                    owner[v] = cid
            uncovered = np.flatnonzero(owner < 0)
            if uncovered.size:
                return f"[coverage] vertex {uncovered[0]} belongs to no cluster"
            if not np.array_equal(owner, part.cluster_of):
                return f"[index] cluster_of[{np.flatnonzero(owner != part.cluster_of)[0]}] " \
                       "disagrees with the cluster lists"
            return None

        n = data.draw(st.integers(1, 12))
        lists = data.draw(st.lists(st.lists(st.integers(-2, n + 1), max_size=5), max_size=6))
        cluster_of = np.array(data.draw(st.lists(st.integers(-1, 5), min_size=n, max_size=n)),
                              dtype=np.int64)
        part = Partition(cluster_of, [Cluster(np.array(vs, dtype=np.int64), None, 0.0)
                                      for vs in lists])
        got = check_partition(unit_path(n), part)
        assert (None if got is None else str(got)) == reference(n, part)


class TestCheckDiameters:
    def test_singletons_have_zero_diameter(self):
        g = gen_grid(3, 3)
        part = Partition.from_sets(9, [{v} for v in range(9)])
        assert check_cluster_diameters(g, part, 0.001) is None

    @pytest.mark.parametrize("delta", [-1.0, 0.0, math.nan, math.inf])
    @pytest.mark.parametrize("sets", [[{v} for v in range(16)], [range(16)]],
                             ids=["singletons", "one-cluster"])
    def test_invalid_delta_refused(self, delta, sets):
        g = gen_grid(4, 4)
        with pytest.raises(ValueError, match="delta must be positive and finite"):
            check_cluster_diameters(g, Partition.from_sets(16, sets), delta)

    @pytest.mark.parametrize("bad", [-1, 9])
    def test_vertex_id_outside_range_flagged_before_either_pass(self, monkeypatch, bad):
        calls = spy_on_all_pairs(monkeypatch)
        g = gen_grid(3, 3)
        part = Partition(np.zeros(9, dtype=np.int64),
                         [Cluster(np.array([0, 1, 2, 3, 4, 5, 6, 7, bad]), None, 0.0)])
        assert str(check_cluster_diameters(g, part, 10.0)) == (
            f"[vertex-id] cluster 0 holds vertex {bad}, outside 0..8")
        assert str(check_cluster_diameters(g, part, 10.0)) == str(check_partition(g, part))
        assert calls == []

    def test_planted_far_pair(self):
        g = unit_path(10)
        part = Partition.from_sets(10, [{0, 9}, set(range(1, 9))])
        v = check_cluster_diameters(g, part, 2.0)
        assert v is not None and v.kind == "diameter"

    def test_detects_pair_connected_only_outside_bound(self):
        g = unit_path(4)
        part = Partition.from_sets(4, [{0, 3}, {1, 2}])
        v = check_cluster_diameters(g, part, 1.0)  # d(0,3)=3 > 0.8
        assert v is not None

    def test_honest_decomposition_passes(self):
        g = gen_ktree(100, 2, "uniform", seed=6).graph
        part = decompose(g, 5.0, seed=2)
        assert check_cluster_diameters(g, part, 5.0) is None

    def test_message_names_cluster_pair_and_bound(self):
        g = unit_path(10)
        part = Partition.from_sets(10, [{0, 9}, set(range(1, 9))])
        v = check_cluster_diameters(g, part, 2.0)
        assert str(v) == "[diameter] cluster 0: d(0,9) = 9.0 exceeds 4*delta/5 = 1.6"
        part = Partition.from_sets(10, [{0}, {1, 2, 3}, set(range(4, 10))])
        v = check_cluster_diameters(g, part, 5.0)
        assert v.message == "cluster 2: d(4,9) = 5.0 exceeds 4*delta/5 = 4.0"

    def test_cluster_larger_than_a_source_block_passes(self):
        g = gen_grid(20, 20)  # diameter 38
        part = Partition.from_sets(400, [range(400)])
        assert len(part.clusters[0].vertices) > SOURCE_BLOCK
        assert check_cluster_diameters(g, part, 47.5) is None  # 4*delta/5 = 38
        v = check_cluster_diameters(g, part, 47.4)
        assert v.message == "cluster 0: d(0,399) = 38.0 exceeds 4*delta/5 = 37.92"

    def test_cluster_larger_than_a_source_block_fails(self):
        g = unit_path(300)
        part = Partition.from_sets(300, [range(300)])
        v = check_cluster_diameters(g, part, 300.0)
        assert v.message == "cluster 0: d(0,241) = 241.0 exceeds 4*delta/5 = 240.0"
        assert check_cluster_diameters(g, part, 373.75) is None  # 4*delta/5 = 299

    def test_far_pair_only_in_second_source_block(self):
        # with b = SOURCE_BLOCK the path runs b..b+21, 0..b-1, b+22..b+43: every
        # vertex of the first block of sources (ids 0..b-1) lies within b+21 of
        # all others, so only the second block sees a pair farther apart than b+24
        b = SOURCE_BLOCK
        g = unit_path(b + 44, [*range(b, b + 22), *range(b), *range(b + 22, b + 44)])
        part = Partition.from_sets(b + 44, [range(b + 44)])
        v = check_cluster_diameters(g, part, 1.25 * (b + 24))
        assert v.message == f"cluster 0: d({b},{b + 25}) = {b + 25.0} exceeds 4*delta/5 = {b + 24.0}"

    @pytest.mark.parametrize("delta", [13.7, 16.7, 18.3])
    def test_many_clusters_across_source_blocks_match_per_cluster_search(self, delta):
        # id-range clusters of 1-8 vertices on a 600-vertex k-tree: at 13.7 the
        # first violation is in the cluster of source rows 249..256, at 16.7 it
        # lies past row 512, and 18.3 passes. The first violation is the first
        # row in cluster order, then the first column in id order.
        g = gen_ktree(600, 2, "uniform", seed=1).graph
        cuts = np.cumsum(np.random.default_rng(0).integers(1, 9, size=200))
        part = Partition.from_sets(600, np.split(np.arange(600), cuts[cuts < 600]))
        bound, full = 0.8 * delta, VertexMask.full(600)
        expect = None
        for cid, cl in enumerate(part.clusters):
            for u in cl.vertices:
                dist = sssp(g, full, int(u)).dist
                far = [v for v in cl.vertices if dist[v] > bound]
                if far and expect is None:
                    expect = (f"cluster {cid}: d({u},{far[0]}) = {dist[far[0]]} "
                              f"exceeds 4*delta/5 = {bound}")
        v = check_cluster_diameters(g, part, delta)
        assert (v and v.message) == expect

    def test_hub_missing_a_member_goes_to_all_pairs(self, monkeypatch):
        # unit path 0..4 at bound 4: the hub, vertex 0, misses 2..4, but the
        # diameter is exactly the bound, which the all-pairs pass accepts
        calls = spy_on_all_pairs(monkeypatch)
        part = Partition.from_sets(5, [range(5)])
        assert check_cluster_diameters(unit_path(5), part, 5.0) is None
        assert calls == [[0, 1, 2, 3, 4]]

    @pytest.mark.parametrize("members", [[0, 1, 2, 3, 4], [0, 4]])
    def test_members_exactly_half_the_bound_from_the_hub(self, monkeypatch, members):
        # the hub, vertex 2 (a member or not), lies exactly bound/2 from 0 and
        # 4; the center check's margin sends the cluster to the all-pairs pass,
        # which accepts d(0,4) = 4 at bound 4 and refuses it just below
        calls = spy_on_all_pairs(monkeypatch)
        g = unit_path(5)
        hub = CenterRecord(2, VertexMask.full(5), 0, 0, 0)
        rest = [Cluster(np.array([v]), None, 0.0) for v in range(5) if v not in members]
        part = Partition(np.zeros(5, dtype=np.int64), [Cluster(np.array(members), hub, 2.0), *rest])
        assert check_cluster_diameters(g, part, 5.0) is None
        v = check_cluster_diameters(g, part, 4.99)
        assert v.message == f"cluster 0: d(0,4) = 4.0 exceeds 4*delta/5 = {0.8 * 4.99}"
        assert calls == [members, members]

    @pytest.mark.parametrize("graph, div", [
        (gen_grid(32, 32), 8), (gen_ktree(1000, 2, "uniform", seed=1).graph, 4),
    ], ids=["grid32-W/8", "uniform-ktree1000-W/4"])
    def test_honest_partitions_never_reach_all_pairs(self, monkeypatch, graph, div):
        def refuse(g, cids, *args):
            assert not len(cids), "an honest cluster reached the all-pairs pass"

        monkeypatch.setattr(verifier, "_all_pairs_violation", refuse)
        delta = weighted_diameter(graph) / div
        for seed in range(3):
            for part in (decompose(graph, delta, seed), baseline_decompose(graph, delta, seed)):
                assert check_cluster_diameters(graph, part, delta) is None

    @pytest.mark.parametrize("scheme", [decompose, baseline_decompose])
    def test_merged_cluster_mutants_match_per_cluster_search(self, monkeypatch, scheme):
        # clusters 0..7 stay as carved and clear the center check; from 8 on,
        # clusters 2i and 2i + 1 merge under the first one's record, so its hub
        # misses the second half. The first violation lies past cluster 8 in
        # the paper scheme and at it in the baseline, whose merged clusters lie
        # far apart. The search is the heap Dijkstra cut at the bound.
        calls = spy_on_all_pairs(monkeypatch)
        g = gen_grid(64, 64)
        delta = weighted_diameter(g) / 8
        cl = scheme(g, delta, 1).clusters
        merged = cl[:8] + [Cluster(np.union1d(a.vertices, b.vertices), a.record, a.radius)
                           for a, b in zip(cl[8::2], cl[9::2])]
        part = Partition(np.zeros(g.n, dtype=np.int64), merged)
        full = VertexMask.full(g.n)
        expect = first_far_pair(g, part, delta, lambda u, bound: ball(g, full, u, bound))
        assert expect is not None
        assert check_cluster_diameters(g, part, delta).message == expect
        assert not set(calls[0]) & set(np.concatenate([c.vertices for c in cl[:8]]).tolist())

    def test_exact_pass_holds_one_block_of_hubs(self):
        # one valid cluster of all 4,096 vertices: the hub, vertex 0, misses
        # the far corner at half the bound, so every vertex is a hub of the
        # exact pass. All hubs at once would hold n^2 ball entries (over 400
        # MB); SOURCE_BLOCK hubs at a time stay near 11 blocks of n floats.
        g = gen_grid(64, 64)
        part = Partition.from_sets(g.n, [range(g.n)])
        delta = weighted_diameter(g) / 0.8
        block = SOURCE_BLOCK * g.n * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert check_cluster_diameters(g, part, delta) is None
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 16 * block

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_partitions_match_per_pair_search(self, data):
        # small connected graphs with integer weights (exact sums) or float
        # ones, including zero; clusters hand-built with no record, with a
        # record whose center is any vertex (a member or not), or carved
        n = data.draw(st.integers(2, 12))
        weight = st.one_of(st.integers(0, 3).map(float), st.floats(0.0, 3.0))
        edges = [(data.draw(st.integers(0, v - 1)), v, data.draw(weight)) for v in range(1, n)]
        edges += data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), weight)
                                    .filter(lambda e: e[0] != e[1]), max_size=n))
        g = WeightedGraph(n, edges)
        delta = data.draw(st.integers(1, 40)) / 4
        kind = data.draw(st.sampled_from(["no record", "any center", "paper", "baseline"]))
        if kind in ("paper", "baseline"):
            carve = decompose if kind == "paper" else baseline_decompose
            part = carve(g, delta, data.draw(st.integers(0, 3)))
        else:
            labels = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
            sets = [np.flatnonzero(labels == k) for k in np.unique(labels)]
            records = [None if kind == "no record" else
                       CenterRecord(data.draw(st.integers(0, n - 1)), VertexMask.full(n), k, 0, 0)
                       for k in range(len(sets))]
            part = Partition(np.unique(labels, return_inverse=True)[1],
                             [Cluster(vs, rec, 0.0) for vs, rec in zip(sets, records)])
        full = VertexMask.full(n)
        expect = first_far_pair(
            g, part, delta, lambda u, bound: {x for x, d in enumerate(sssp(g, full, u).dist) if d <= bound})
        v = check_cluster_diameters(g, part, delta)
        assert (v and v.message) == expect

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_shared_and_repeated_members_match_per_pair_search(self, data):
        # hand-built clusters that share vertices or list one twice, members
        # in any order: each vertex counts in one of its clusters only, so a
        # row of such a cluster is looked up member by member, and the first
        # miss is still the per-pair search's
        n = data.draw(st.integers(2, 10))
        edges = [(data.draw(st.integers(0, v - 1)), v, 1.0) for v in range(1, n)]
        g = WeightedGraph(n, edges)
        delta = data.draw(st.integers(1, 12)) / 2
        clusters = data.draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n),
                                      min_size=1, max_size=4))
        part = Partition(np.zeros(n, dtype=np.int64),
                         [Cluster(np.array(c), None, 0.0) for c in clusters])
        full = VertexMask.full(n)
        expect = first_far_pair(
            g, part, delta, lambda u, bound: {x for x, d in enumerate(sssp(g, full, u).dist) if d <= bound})
        v = check_cluster_diameters(g, part, delta)
        assert (v and v.message) == expect


class TestRecursionDepth:
    def test_single_vertex(self):
        g = WeightedGraph(1, [])
        seq = choose_centers(g, 1.0)
        assert check_recursion_depth(seq) is None

    def test_unit_path_with_centroid(self):
        g = unit_path(5)
        seq = choose_centers(g, 4.0, tree_centroid_find)
        assert seq.max_depth <= 3
        assert check_recursion_depth(seq) is None

    def test_violation_reported_against_smaller_n(self):
        g = gen_grid(4, 4)
        seq = choose_centers(g, 3.0)
        v = check_recursion_depth(dataclasses.replace(seq, n=2))
        if seq.max_depth > 1:
            assert v is not None and v.kind == "recursion-depth"


class TestCheckSeparators:
    @pytest.mark.parametrize("make,finder", [
        (lambda: gen_ktree(60, 2, "uniform", 3).graph, greedy_find),
        (lambda: unit_path(9), tree_centroid_find),
    ])
    def test_library_sequences_pass(self, make, finder):
        g = make()
        assert check_separators(g, choose_centers(g, 3.0, finder)) is None

    def test_failure_names_the_node_and_its_depth(self):
        g = gen_ktree(60, 2, "uniform", 3).graph
        seq = choose_centers(g, 3.0)
        # each node's depth from its records: node i's paths follow the paths
        # of nodes 0..i-1, and a record carries its path's node depth
        first = list(itertools.accumulate((s.total_paths for _, s in seq.separators),
                                          initial=0))
        depth_of_path = {r.path_id: r.depth for r in seq.records}
        for i in (0, 1, 10, 13, 15):  # nodes with flaps, at depths 0, 1, 2, 2 and 1
            mask, sep = seq.separators[i]
            broken = list(seq.separators)
            broken[i] = (mask, PathSeparator(sep.groups, sep.flaps[:-1]))
            v = check_separators(g, dataclasses.replace(seq, separators=tuple(broken)))
            assert str(v) == (f"[separators] node {i} at depth {depth_of_path[first[i]]}: "
                              "[flaps] stored flaps differ from the components of "
                              "residual minus S")


class TestThreateners:
    def test_single_vertex_graph(self):
        g = WeightedGraph(1, [])
        seq = choose_centers(g, 1.0)
        params = DecompositionParams.for_graph(1.0, 0, seq.p_eff, 1)
        rep = threatener_report(g, seq, params, 0.01, [0])
        assert rep.counts == (1,)
        assert rep.bound >= 4
        assert rep.all_ok()

    def test_count_nondecreasing_in_gamma(self):
        g = gen_grid(8, 8)
        seq = choose_centers(g, 8.0)
        params = DecompositionParams.for_graph(8.0, 0, seq.p_eff, 64)
        prev = 0
        for gamma in (0.0, 0.0025, 0.005, 0.01):
            (c,) = threatener_report(g, seq, params, gamma, [27]).counts
            assert c >= prev
            prev = c

    def test_grid_within_bound_everywhere(self):
        g = gen_grid(8, 8)
        seq = choose_centers(g, 8.0)
        params = DecompositionParams.for_graph(8.0, 0, seq.p_eff, 64)
        rep = threatener_report(g, seq, params, 0.01)
        assert rep.all_ok()
        assert rep.bound == 4 * seq.p_eff * 6

    def test_bulk_matches_single(self):
        g = gen_ktree(50, 2, seed=2).graph
        seq = choose_centers(g, 3.0)
        params = DecompositionParams.for_graph(3.0, 0, seq.p_eff, 50)
        rep = threatener_report(g, seq, params, 0.01)
        for x in (0, 13, 49):
            assert threatener_report(g, seq, params, 0.01, [x]).counts == (rep.counts[x],)

    def test_all_vertices_across_source_blocks(self):
        g = gen_ktree(600, 2, seed=1).graph
        assert g.n > SOURCE_BLOCK
        seq = choose_centers(g, 4.0)
        params = DecompositionParams.for_graph(4.0, 0, seq.p_eff, g.n)
        rep = threatener_report(g, seq, params, 0.01)
        assert rep.vertices == tuple(range(g.n))
        for x in (0, 255, 256, g.n - 1):
            assert (rep.counts[x],) == threatener_report(g, seq, params, 0.01, [x]).counts
        assert len(set(rep.counts)) > 1

    def test_gamma_out_of_range(self):
        g = gen_grid(2, 2)
        seq = choose_centers(g, 1.0)
        params = DecompositionParams.for_graph(1.0, 0, seq.p_eff, 4)
        with pytest.raises(ValueError):
            threatener_report(g, seq, params, 0.02, [0])

    @pytest.mark.parametrize("gamma", [True, False, np.False_])
    def test_bool_gamma_refused(self, gamma):
        # False would run, and be reported, as gamma 0.0
        g = gen_grid(2, 2)
        seq = choose_centers(g, 1.0)
        params = DecompositionParams.for_graph(1.0, 0, seq.p_eff, 4)
        message = rf"^gamma must be a number, got {re.escape(repr(gamma))}$"
        with pytest.raises(TypeError, match=message):
            threatener_report(g, seq, params, gamma, [0])

    def test_no_vertices_refused(self):
        g = gen_grid(2, 2)
        seq = choose_centers(g, 1.0)
        params = DecompositionParams.for_graph(1.0, 0, seq.p_eff, 4)
        with pytest.raises(ValueError, match="need at least one vertex"):
            threatener_report(g, seq, params, 0.01, [])

    @pytest.mark.parametrize("vertices,message", [
        ([7], "vertex 7 is outside 0..3"),
        ([-1], "vertex -1 is outside 0..3"),
        ([2, 0, 0], "vertex 0 is given twice"),
        ([True, 2.7], "vertex True is not an integer"),
        ([1, 2.7], "vertex 2.7 is not an integer"),
        ([np.False_, 1], "vertex False is not an integer"),
        (np.array([True, False]), "vertex True is not an integer"),
        (["1"], "vertex '1' is not an integer"),
        ([1, math.nan], "vertex nan is not an integer"),
        # the range is checked on the ids as given, not after they become int64
        ([math.inf], "vertex inf is outside 0..3"),
        ([-math.inf], "vertex -inf is outside 0..3"),
        ([2**63], f"vertex {2**63} is outside 0..3"),
        (np.array([2**64 - 1], dtype=np.uint64), f"vertex {2**64 - 1} is outside 0..3"),
        # the first bad id in the given order, whatever its fault
        ([7, 2.7], "vertex 7 is outside 0..3"),
        ([2.7, -1], "vertex 2.7 is not an integer"),
    ])
    def test_bad_vertex_ids_refused(self, vertices, message):
        g = gen_grid(2, 2)
        seq = choose_centers(g, 1.0)
        params = DecompositionParams.for_graph(1.0, 0, seq.p_eff, 4)
        with pytest.raises(ValueError, match=message):
            threatener_report(g, seq, params, 0.01, vertices)

    @pytest.mark.parametrize("vertices", [[3, 1], [3.0, 1.0], np.array([3.0, 1.0]),
                                          [np.int32(3), np.int64(1)], (v for v in (3, 1))])
    def test_integral_ids_of_any_type_accepted(self, vertices):
        g = gen_grid(2, 2)
        seq = choose_centers(g, 1.0)
        params = DecompositionParams.for_graph(1.0, 0, seq.p_eff, 4)
        report = threatener_report(g, seq, params, 0.01, vertices)
        assert report == threatener_report(g, seq, params, 0.01, [1, 3])
        assert all(type(v) is int for v in report.vertices)


SAMPLE_BALL_GRAPHS = {
    # n > 256, so the padding sample is drawn; the log-uniform grid's balls
    # hold more than their anchor
    "unit-grid": lambda: gen_grid(20, 20),
    "unit-ktree": lambda: gen_ktree(400, 2, seed=3).graph,
    "spread-grid": lambda: spread_weights(gen_grid(20, 20), 1),
}


def questions(seed, gamma=verifier.GAMMA_MAX, gammas=verifier.DEFAULT_GAMMAS, vertices=None):
    """The threatener report and both padding reports at W/8, in the order a
    run asks them, each a function of the graph."""
    def report(g):
        delta = weighted_diameter(g) / 8
        seq = choose_centers(g, delta)
        params = DecompositionParams.for_graph(delta, seed, seq.p_eff, g.n)
        return threatener_report(g, seq, params, gamma,
                                 sample_vertices(g, seed) if vertices is None else vertices)

    def padding(scheme):
        return lambda g: estimate_padding(g, weighted_diameter(g) / 8, gammas=gammas, trials=6,
                                          seed=seed, scheme=scheme)

    return [report, padding("paper"), padding("baseline")]


def certify(g, seed, **kwargs):
    """The three answers on one graph, which shares its ball query."""
    return tuple(ask(g) for ask in questions(seed, **kwargs))


def cold(make, seed, **kwargs):
    """The three answers, each on a graph of its own."""
    return tuple(ask(make()) for ask in questions(seed, **kwargs))


class TestSampleBalls:
    def test_one_query_for_the_three_and_none_for_a_repeat(self, monkeypatch):
        calls = []
        monkeypatch.setattr(verifier, "balls", lambda *a: calls.append(1) or balls(*a))
        g = gen_grid(20, 20)
        warm = certify(g, 7)
        assert len(calls) == 1
        assert certify(g, 7) == warm and len(calls) == 1

    @pytest.mark.parametrize("make", SAMPLE_BALL_GRAPHS.values(), ids=SAMPLE_BALL_GRAPHS)
    def test_warm_graph_equals_a_fresh_one_per_question(self, make):
        warm = certify(make(), 7)
        assert cold(make, 7) == warm
        g = make()  # padding asks first, the report reads its answer
        assert questions(7)[1](g) == warm[1] and certify(g, 7) == warm

    def test_spread_grid_balls_hold_more_than_their_anchor(self):
        g = SAMPLE_BALL_GRAPHS["spread-grid"]()
        certify(g, 7)
        sizes = np.bincount(g._cache["sample_balls"][2][0])
        assert len(sizes) == 256 and (sizes > 1).sum() > 10

    @pytest.mark.parametrize("change, queries", [
        ({"seed": 8}, 1), ({"gamma": 0.005, "gammas": (0.0, 0.005)}, 1),
        # the report asks of its own vertices, then padding of the sample again
        ({"vertices": [0, 5, 399]}, 2),
    ], ids=["seed", "max-gamma", "vertices"])
    def test_another_question_replaces_the_slot(self, monkeypatch, change, queries):
        make = SAMPLE_BALL_GRAPHS["spread-grid"]
        g = make()
        certify(g, 7)
        calls = []
        monkeypatch.setattr(verifier, "balls", lambda *a: calls.append(1) or balls(*a))
        change = {"seed": 7, **change}
        got = certify(g, **change)
        assert len(calls) == queries
        assert got == cold(make, **change)
        assert certify(g, 7) == cold(make, 7)

    def test_cached_arrays_are_read_only(self):
        g = SAMPLE_BALL_GRAPHS["spread-grid"]()
        estimate_padding(g, weighted_diameter(g) / 8, trials=2, seed=7)
        kept = g._cache["sample_balls"][2]
        assert type(kept) is verifier._SampleBalls
        assert kept._fields == ("row", "members", "dist", "starts", "held", "local", "anchors")
        for name in kept._fields:
            arr = getattr(kept, name)
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0
        # the layout is what the padding schemes derived from the arrays
        vertices = sample_vertices(g, 7)
        assert np.array_equal(kept.starts, np.searchsorted(kept.row, np.arange(len(vertices))))
        assert np.array_equal(kept.held, np.unique(kept.members))
        assert np.array_equal(kept.held[kept.local], kept.members)
        assert np.array_equal(kept.held[kept.anchors], vertices[kept.row])


class TestKeptSample:
    @staticmethod
    def count_draws(monkeypatch):
        draws = []
        draw = verifier.RngStream.sample_without_replacement

        def counted(self, *args):
            draws.append(args)
            return draw(self, *args)

        monkeypatch.setattr(verifier.RngStream, "sample_without_replacement", counted)
        return draws

    def test_one_draw_per_graph_and_seed(self, monkeypatch):
        make = SAMPLE_BALL_GRAPHS["unit-ktree"]  # n = 400: the sample is drawn
        draws = self.count_draws(monkeypatch)
        g = make()
        warm = certify(g, 7)
        assert len(draws) == 1
        assert certify(g, 7) == warm and len(draws) == 1
        certify(g, 8)
        assert len(draws) == 2
        assert certify(make(), 7) == warm and len(draws) == 3
        monkeypatch.undo()
        assert cold(make, 7) == warm

    def test_returned_array_is_a_copy(self):
        g = gen_ktree(300, 1, seed=0).graph
        first = sample_vertices(g, 42)
        want = first.copy()
        assert first.flags.writeable
        first[:] = 0
        assert np.array_equal(sample_vertices(g, 42), want)
        assert np.array_equal(g._cache["sample"][2], want)

    @pytest.mark.parametrize("seed, bad", [(1, True), (2, 2.0)])
    def test_bool_or_float_seed_refused_after_a_kept_sample(self, seed, bad):
        g = gen_ktree(300, 1, seed=0).graph
        sample_vertices(g, seed)  # the kept key equals the bad seed
        with pytest.raises(TypeError, match="seed must be an integer"):
            sample_vertices(g, bad)
        with pytest.raises(TypeError, match="seed must be an integer"):
            estimate_padding(g, 4.0, trials=2, seed=bad)


class TestWilson:
    def test_bounds_and_monotonicity(self):
        prev = -1.0
        for s in range(0, 101, 10):
            lb = wilson_lower_bound(s, 100)
            assert 0.0 <= lb <= s / 100
            assert lb > prev
            prev = lb

    def test_zero_successes(self):
        assert wilson_lower_bound(0, 50) == 0.0

    def test_all_successes_below_one(self):
        assert 0.9 < wilson_lower_bound(1000, 1000) < 1.0

    @pytest.mark.parametrize("trials", [1, 2, 3, 7, 16, 60, 300, 1000, 10007])
    def test_array_form_matches_scalar_formula(self, trials):
        # the formula in Python floats, one success count at a time
        z = float(verifier.ndtri(verifier.WILSON_CONFIDENCE))
        denom = 1.0 + z * z / trials
        expect = []
        for s in range(trials + 1):
            p = s / trials
            rad = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))
            expect.append(max(0.0, (p + z * z / (2.0 * trials) - rad) / denom))
        got = wilson_lower_bound(np.arange(trials + 1).reshape(1, -1), trials)
        assert got.shape == (1, trials + 1)
        assert got.ravel().tolist() == expect
        assert [wilson_lower_bound(s, trials) for s in (0, trials)] == [expect[0], expect[-1]]
        assert type(wilson_lower_bound(trials, trials)) is float

    @pytest.mark.parametrize("floor", [0.01, 0.5, 0.870551, 0.99, 0.999999])
    def test_trials_to_clear_is_the_least_all_success_count(self, floor):
        need = verifier.trials_to_clear(floor)
        assert wilson_lower_bound(need, need) >= floor
        assert need == 1 or wilson_lower_bound(need - 1, need - 1) < floor

    def test_trials_validated_as_integers(self):
        for trials in (2.5, 10.0, True):
            with pytest.raises(TypeError, match="trials must be an integer"):
                wilson_lower_bound(1, trials)
        with pytest.raises(ValueError, match="trials must be >= 1"):
            wilson_lower_bound(0, 0)
        assert wilson_lower_bound(3, np.int64(10)) == wilson_lower_bound(3, 10)


class TestEstimatePadding:
    def test_gamma_zero_always_passes(self):
        g = gen_grid(4, 4)
        rep = estimate_padding(g, 3.0, gammas=(0.0,), trials=20, seed=1)
        assert rep.all_pass()
        assert all(r.empirical == 1.0 and r.floor == 1.0 for r in rep.records)

    def test_single_vertex_graph(self):
        g = WeightedGraph(1, [])
        rep = estimate_padding(g, 1.0, gammas=(0.0, 0.01), trials=200, seed=0)
        assert all(r.empirical == 1.0 for r in rep.records)
        # 200 trials give the Wilson bound enough evidence to clear the floor
        assert rep.all_pass()

    def test_reproducible(self):
        # two graphs, so the second call builds its centers instead of reusing them
        a = estimate_padding(gen_grid(5, 5), 4.0, trials=50, seed=7)
        b = estimate_padding(gen_grid(5, 5), 4.0, trials=50, seed=7)
        assert a == b

    @pytest.mark.parametrize("scheme", ["paper", "baseline"])
    def test_calls_in_a_row_are_equal(self, scheme):
        # the trials re-key one stream per call: no stream state may carry
        # over from a call, with the graph's centers or index kept or not
        # weights from 1 down to 1e-3, so that some padding balls get split
        edges = [(a, b, 10.0 ** (-0.75 * ((7 * a + b) % 5))) for a, b, _ in gen_grid(6, 6).edges]
        first = estimate_padding(WeightedGraph(36, edges), 0.6, trials=40, seed=4, scheme=scheme)
        g = WeightedGraph(36, edges)
        reports = [estimate_padding(g, 0.6, trials=40, seed=4, scheme=scheme) for _ in range(2)]
        other = "baseline" if scheme == "paper" else "paper"
        estimate_padding(g, 0.6, trials=7, seed=5, scheme=other)
        reports.append(estimate_padding(g, 0.6, trials=40, seed=4, scheme=scheme))
        assert all(rep == first for rep in reports)
        assert any(0 < r.successes < r.trials for r in first.records)

    def test_trials_are_independent_decompositions(self):
        # trial t must see exactly the partition decompose would produce
        # under the derived seed; verified by reconstructing trial successes
        import numpy as np
        from pathdecomp import decompose, derive_seed, ball, VertexMask

        g = gen_grid(2, 40)
        delta, seed, gamma = 60.0, 21, 0.01
        rep = estimate_padding(g, delta, gammas=(gamma,), trials=25, seed=seed)
        full = VertexMask.full(g.n)
        balls = {x: ball(g, full, x, gamma * delta) for x in range(g.n)}
        expected = {x: 0 for x in range(g.n)}
        for t in range(25):
            labels = decompose(g, delta, derive_seed(seed, t)).cluster_of
            for x in range(g.n):
                if all(labels[v] == labels[x] for v in balls[x]):
                    expected[x] += 1
        for r in rep.records:
            assert r.successes == expected[r.vertex]

    def test_monotone_in_gamma_per_vertex(self):
        g = gen_grid(2, 60, "unit")
        rep = estimate_padding(g, 100.0, gammas=(0.0025, 0.005, 0.01), trials=200, seed=3)
        by_vertex = {}
        for r in rep.records:
            by_vertex.setdefault(r.vertex, []).append((r.gamma, r.successes))
        for rows in by_vertex.values():
            rows.sort()
            succ = [s for _, s in rows]
            assert succ == sorted(succ, reverse=True)

    def test_nontrivial_regime_clears_floor(self):
        # long strip: delta large enough that gamma*delta reaches past one hop,
        # small enough that many clusters are needed
        g = gen_grid(2, 120)
        rep = estimate_padding(g, 100.0, gammas=(0.0025, 0.01), trials=1500, seed=11)
        assert any(r.successes < r.trials for r in rep.records)  # genuinely random
        assert rep.all_pass()

    def test_baseline_scheme(self):
        g = gen_grid(5, 5)
        rep = estimate_padding(g, 4.0, trials=50, seed=7, scheme="baseline")
        assert rep.scheme == "baseline"
        assert rep.p_eff is None
        assert rep.all_pass()

    def test_fitted_beta_zero_when_balls_never_cut(self):
        g = gen_grid(4, 4)
        rep = estimate_padding(g, 2.0, trials=30, seed=5)  # gamma*delta < 1: singleton balls
        assert rep.fitted_beta() == 0.0

    def test_validates_inputs(self):
        g = gen_grid(2, 2)
        with pytest.raises(ValueError):
            estimate_padding(g, 1.0, gammas=(0.5,), trials=10)
        with pytest.raises(ValueError):
            estimate_padding(g, 1.0, trials=0)
        with pytest.raises(ValueError):
            estimate_padding(g, 1.0, trials=5, scheme="nope")

    @pytest.mark.parametrize("trials", [2.5, 10.0, True, False, "5", None])
    def test_refuses_trials_that_are_not_integers(self, trials):
        with pytest.raises(TypeError, match="trials must be an integer"):
            estimate_padding(gen_grid(2, 2), 1.0, trials=trials)

    @pytest.mark.parametrize("seed", [2.5, True])
    @pytest.mark.parametrize("scheme", ["paper", "baseline"])
    def test_refuses_seeds_that_are_not_integers(self, seed, scheme):
        # a float seed would run as its floor
        with pytest.raises(TypeError, match="seed must be an integer"):
            estimate_padding(gen_grid(2, 2), 1.0, trials=5, seed=seed, scheme=scheme)

    def test_numpy_seed_equals_the_int(self):
        g = gen_ktree(300, 1, seed=0).graph
        rep = estimate_padding(g, 4.0, trials=5, seed=np.int64(2))
        assert type(rep.seed) is int and rep == estimate_padding(g, 4.0, trials=5, seed=2)

    @pytest.mark.parametrize("trials", [0, -3, np.int64(0)])
    def test_refuses_trials_below_one(self, trials):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            estimate_padding(gen_grid(2, 2), 1.0, trials=trials)

    def test_numpy_trials_give_python_ints(self):
        g = gen_grid(3, 3)
        rep = estimate_padding(g, 2.0, trials=np.int64(5), seed=0)
        assert type(rep.trials) is int
        assert all(type(r.trials) is int for r in rep.records)
        assert rep == estimate_padding(g, 2.0, trials=5, seed=0)
        json.dumps(rep.to_json_obj())

    @pytest.mark.parametrize("delta", [-1.0, 0.0, math.nan, math.inf])
    @pytest.mark.parametrize("scheme", ["paper", "baseline"])
    def test_invalid_delta_refused(self, delta, scheme):
        with pytest.raises(ValueError, match="delta must be positive and finite"):
            estimate_padding(gen_grid(2, 2), delta, trials=5, scheme=scheme)

    @pytest.mark.parametrize("value", [True, False])
    @pytest.mark.parametrize("scheme", ["paper", "baseline"])
    def test_bool_delta_and_gamma_refused(self, value, scheme):
        g = gen_grid(2, 2)
        with pytest.raises(TypeError, match=rf"^delta must be a number, got {value!r}$"):
            estimate_padding(g, value, trials=5, scheme=scheme)
        with pytest.raises(TypeError, match=rf"^gamma must be a number, got {value!r}$"):
            estimate_padding(g, 1.0, gammas=(0.0, value), trials=5, scheme=scheme)

    def test_numpy_gammas_reported_as_floats(self):
        g = gen_grid(3, 3)
        rep = estimate_padding(g, 2.0, gammas=(np.float64(0.0), 0), trials=5, seed=0)
        assert rep.gammas == (0.0, 0.0) and all(type(x) is float for x in rep.gammas)
        assert all(type(r.gamma) is float for r in rep.records)

    def test_json_shape(self):
        g = gen_grid(3, 3)
        rep = estimate_padding(g, 2.0, trials=10, seed=0)
        obj = rep.to_json_obj()
        assert set(obj["records"][0]) == {
            "vertex", "gamma", "trials", "successes", "empirical",
            "wilson_lb", "floor", "pass",
        }


@dataclasses.dataclass(frozen=True, slots=True)
class DataclassRecord:
    """The padding record as it was built before it became a named tuple."""

    vertex: int
    gamma: float
    trials: int
    successes: int
    empirical: float
    wilson_lb: float
    floor: float
    passed: bool


def reference_records(rep):
    """The per-(vertex, gamma) construction loop the column build replaced,
    run on the report's own success counts."""
    successes = np.array([r.successes for r in rep.records], dtype=np.int64)
    successes = successes.reshape(len(rep.vertices), len(rep.gammas))
    floors = [2.0 ** (-rep.beta * gamma) for gamma in rep.gammas]
    wilson = wilson_lower_bound(successes, rep.trials)
    passed = np.where(np.asarray(rep.gammas) == 0.0, successes == rep.trials, wilson >= floors)
    rows = zip(list(rep.vertices), *(a.tolist() for a in
                                     (successes, successes / rep.trials, wilson, passed)))
    return tuple(
        DataclassRecord(x, gamma, rep.trials, s, emp, lb, floor, ok)
        for x, *per_gamma in rows
        for gamma, floor, s, emp, lb, ok in zip(rep.gammas, floors, *per_gamma)
    )


def reference_json_obj(rep, records):
    """The report's JSON object as asdict wrote it from dataclass records."""
    def json_fields(items):
        return {("pass" if key == "passed" else key): value for key, value in items}

    need = 0.0
    for r in records:
        if r.gamma > 0.0:
            need = None if need is None or r.successes == 0 else max(
                need, -math.log2(r.empirical) / r.gamma)
    return {**dataclasses.asdict(dataclasses.replace(rep, records=records),
                                 dict_factory=json_fields),
            "all_pass": all(r.passed for r in records), "fitted_beta": need}


class TestPaddingRecords:
    FIELDS = ("vertex", "gamma", "trials", "successes", "empirical",
              "wilson_lb", "floor", "passed")

    @pytest.fixture(scope="class")
    def split_graph(self):
        g = spread_weights(gen_grid(12, 12), 1)  # log-uniform weights: split balls
        return g, weighted_diameter(g) / 4

    @pytest.mark.parametrize("trials", [3, 40])
    @pytest.mark.parametrize("scheme", ["paper", "baseline"])
    def test_columns_match_the_record_loop(self, split_graph, scheme, trials):
        g, delta = split_graph
        rep = estimate_padding(g, delta, trials=trials, seed=1, scheme=scheme)
        assert rep.gammas[0] == 0.0
        assert any(0 < r.successes < r.trials for r in rep.records)
        # 3 trials leave some records below their floor; 40 clear every floor
        assert any(not r.passed for r in rep.records) == (trials == 3)
        ref = reference_records(rep)
        assert len(rep.records) == len(ref) == len(rep.vertices) * len(rep.gammas)
        for got, want in zip(rep.records, ref):
            assert type(got) is PaddingRecord
            assert got == dataclasses.astuple(want)
            for name in self.FIELDS:
                value = getattr(got, name)
                assert type(value) is type(getattr(want, name)), name
                assert type(value) in (int, float, bool), name
        obj, want_obj = rep.to_json_obj(), reference_json_obj(rep, ref)
        assert obj == want_obj
        assert json.dumps(obj, sort_keys=True) == json.dumps(want_obj, sort_keys=True)

    @pytest.mark.parametrize("scheme", ["paper", "baseline"])
    def test_records_equal_make_on_the_same_rows(self, split_graph, scheme):
        g, delta = split_graph
        rep = estimate_padding(g, delta, trials=5, seed=2, scheme=scheme)
        rows = [dataclasses.astuple(r) for r in reference_records(rep)]
        assert len(rep.records) == len(rows)
        for got, want in zip(rep.records, map(PaddingRecord._make, rows)):
            assert type(got) is PaddingRecord
            assert got == want and got._asdict() == want._asdict()
            for name in self.FIELDS:
                assert getattr(got, name) == getattr(want, name), name
                assert type(getattr(got, name)) is type(getattr(want, name)), name

    def test_record_contract(self):
        values = (3, 0.0025, 40, 39, 0.975, 0.88, 0.59, True)
        r = PaddingRecord(*values)
        assert PaddingRecord._fields == self.FIELDS
        assert r == PaddingRecord(**dict(zip(self.FIELDS, values))) == values
        assert hash(r) == hash(values)
        assert r._replace(passed=False) == values[:-1] + (False,)
        assert not dataclasses.is_dataclass(r)
        with pytest.raises(AttributeError):
            r.passed = False
        with pytest.raises(AttributeError):
            r.extra = 1


class TestSampleVertices:
    def test_small_graph_takes_all(self):
        g = gen_grid(10, 10)
        assert list(sample_vertices(g, 0)) == list(range(100))

    def test_large_graph_samples_256_deterministically(self):
        g = gen_ktree(300, 1, seed=0).graph
        a = sample_vertices(g, 42)
        b = sample_vertices(g, 42)
        assert np.array_equal(a, b)
        assert len(a) == 256
        assert len(set(a.tolist())) == 256
        assert not np.array_equal(a, sample_vertices(g, 43))

    @pytest.mark.parametrize("n", [10, 300])
    def test_seed_must_be_an_integer(self, n):
        g = gen_ktree(n, 1, seed=0).graph
        for seed in (2.5, True):
            with pytest.raises(TypeError, match="seed must be an integer"):
                sample_vertices(g, seed)
        assert np.array_equal(sample_vertices(g, np.int64(2)), sample_vertices(g, 2))
