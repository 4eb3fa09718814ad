import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathdecomp import (
    GraphError,
    Path,
    PathMetricView,
    RngStream,
    WeightedGraph,
    greedy_net,
)


def view_from_weights(weights):
    """Path metric view straight from a weight list (no graph needed)."""
    cum = [0.0]
    for w in weights:
        cum.append(cum[-1] + w)
    verts = tuple(range(len(weights) + 1))
    return PathMetricView(Path(verts, cum[-1]), tuple(cum))


def check_net(view, r, net):
    """Oracle: packing and covering verified against every pair, not just the
    scan's shortcut."""
    verts = list(view.path.vertices)
    pos = {v: i for i, v in enumerate(verts)}
    for a in net:
        for b in net:
            if a != b:
                assert view.distance(pos[a], pos[b]) > r, (a, b)
    for v in verts:
        assert any(view.distance(pos[v], pos[u]) <= r for u in net), v


class TestExamples:
    def test_single_vertex_path(self):
        g = WeightedGraph(1, [])
        view = PathMetricView.from_path(g, Path((0,), 0.0))
        assert greedy_net(view, 5.0) == [0]

    def test_unit_path_radius_two(self):
        view = view_from_weights([1.0] * 5)  # v0..v5
        assert greedy_net(view, 2.0) == [0, 3]

    def test_radius_zero_takes_all_with_positive_weights(self):
        view = view_from_weights([1.0, 0.5, 2.0])
        assert greedy_net(view, 0.0) == [0, 1, 2, 3]

    def test_zero_weight_edges_collapse_under_radius_zero(self):
        view = view_from_weights([0.0, 1.0, 0.0])
        # vertices at distance 0 from a net point are covered, not added
        assert greedy_net(view, 0.0) == [0, 2]

    def test_empty_path_rejected(self):
        view = PathMetricView(Path((), 0.0), (0.0,))
        with pytest.raises(GraphError):
            greedy_net(view, 1.0)

    def test_negative_radius_rejected(self):
        view = view_from_weights([1.0])
        with pytest.raises(ValueError):
            greedy_net(view, -0.1)

    def test_nan_radius_rejected(self):
        # every comparison with nan is false, so a scan would keep vertex 0 alone
        view = view_from_weights([1.0] * 9)
        with pytest.raises(ValueError, match=r"^net radius must be non-negative, got nan$"):
            greedy_net(view, float("nan"))

    @pytest.mark.parametrize("r", [True, "1"])
    def test_radius_must_be_a_number(self, r):
        # True would run as radius 1.0
        with pytest.raises(TypeError, match=rf"^net radius must be a number, got {r!r}$"):
            greedy_net(view_from_weights([1.0] * 3), r)

    def test_from_path_uses_graph_weights(self):
        g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 2.0)])
        view = PathMetricView.from_path(g, Path.from_vertices(g, (0, 1, 2)))
        assert view.cumulative == (0.0, 1.0, 3.0)
        assert view.distance(0, 2) == 3.0


class TestProperties:
    def test_random_paths_pack_cover_and_respect_size_bound(self):
        rng = RngStream(314)
        for _ in range(300):
            k = 1 + rng.integer(40)
            weights = [0.05 + 3.0 * u for u in rng.uniforms(k)]
            r = 0.01 + 5.0 * rng.uniform()
            view = view_from_weights(weights)
            net = greedy_net(view, r)
            check_net(view, r, net)
            total = view.cumulative[-1]
            assert len(net) <= int(total / r) + 1

    def test_net_order_is_path_order(self):
        rng = RngStream(7)
        for _ in range(50):
            weights = [0.1 + u for u in rng.uniforms(1 + rng.integer(20))]
            view = view_from_weights(weights)
            net = greedy_net(view, 0.8)
            assert net == sorted(net)

    @given(st.lists(st.floats(0.01, 10.0), min_size=1, max_size=30),
           st.floats(0.001, 20.0))
    @settings(max_examples=300, deadline=None)
    def test_hypothesis_pack_and_cover(self, weights, r):
        view = view_from_weights(weights)
        net = greedy_net(view, r)
        check_net(view, r, net)
        assert len(net) <= int(view.cumulative[-1] / r) + 1
