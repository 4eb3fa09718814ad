import dataclasses

import numpy as np
import pytest

from pathdecomp import (
    DecompositionParams,
    Partition,
    VertexMask,
    WeightedGraph,
    check_cluster_diameters,
    check_partition,
    check_recursion_depth,
    choose_centers,
    decompose,
    estimate_padding,
    gen_grid,
    gen_ktree,
    sample_vertices,
    sssp,
    threatener_report,
    tree_centroid_find,
    wilson_lower_bound,
)
from pathdecomp.graph import SOURCE_BLOCK


def unit_path(n, order=None):
    """Unit-weight path visiting the vertices in `order` (default: by id)."""
    order = list(range(n)) if order is None else order
    return WeightedGraph(n, [(order[i], order[i + 1], 1.0) for i in range(n - 1)])


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


class TestCheckDiameters:
    def test_singletons_have_zero_diameter(self):
        g = gen_grid(3, 3)
        part = Partition.from_sets(9, [{v} for v in range(9)])
        assert check_cluster_diameters(g, part, 0.001) is None

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
        assert str(v) == "[diameter] cluster 0: d(0,9) = inf exceeds 4*delta/5 = 1.6"
        part = Partition.from_sets(10, [{0}, {1, 2, 3}, set(range(4, 10))])
        v = check_cluster_diameters(g, part, 5.0)
        assert v.message == "cluster 2: d(4,9) = inf exceeds 4*delta/5 = 4.0"

    def test_cluster_larger_than_a_source_block_passes(self):
        g = gen_grid(20, 20)  # diameter 38
        part = Partition.from_sets(400, [range(400)])
        assert len(part.clusters[0].vertices) > SOURCE_BLOCK
        assert check_cluster_diameters(g, part, 47.5) is None  # 4*delta/5 = 38
        v = check_cluster_diameters(g, part, 47.4)
        assert v.message == "cluster 0: d(0,399) = inf exceeds 4*delta/5 = 37.92"

    def test_cluster_larger_than_a_source_block_fails(self):
        g = unit_path(300)
        part = Partition.from_sets(300, [range(300)])
        v = check_cluster_diameters(g, part, 300.0)
        assert v.message == "cluster 0: d(0,241) = inf exceeds 4*delta/5 = 240.0"
        assert check_cluster_diameters(g, part, 373.75) is None  # 4*delta/5 = 299

    def test_far_pair_only_in_second_source_block(self):
        # with b = SOURCE_BLOCK the path runs b..b+21, 0..b-1, b+22..b+43: every
        # vertex of the first block of sources (ids 0..b-1) lies within b+21 of
        # all others, so only the second block sees a pair farther apart than b+24
        b = SOURCE_BLOCK
        g = unit_path(b + 44, [*range(b, b + 22), *range(b), *range(b + 22, b + 44)])
        part = Partition.from_sets(b + 44, [range(b + 44)])
        v = check_cluster_diameters(g, part, 1.25 * (b + 24))
        assert v.message == f"cluster 0: d({b},{b + 25}) = inf exceeds 4*delta/5 = {b + 24.0}"

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
                    expect = f"cluster {cid}: d({u},{far[0]}) = inf exceeds 4*delta/5 = {bound}"
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

    def test_json_shape(self):
        g = gen_grid(3, 3)
        rep = estimate_padding(g, 2.0, trials=10, seed=0)
        obj = rep.to_json_obj()
        assert set(obj["records"][0]) == {
            "vertex", "gamma", "trials", "successes", "empirical",
            "wilson_lb", "floor", "pass",
        }


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
