"""The vectorized first-claim kernel against the sequential carving loop.

The reference below is the loop the library used before its BallIndex: every
record, in carving order, draws a radius and claims the not-yet-claimed
vertices of its ball, the ball coming from its own single-source scipy
Dijkstra in its own subgraph. `carve`, `baseline_decompose` and
`estimate_padding` must reproduce it exactly: the same clusters, in the same
order, with the same records and radii, and the same padding successes, the
padding balls coming from the heap `ball`.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy.sparse.csgraph import dijkstra as csgraph_dijkstra

import pathdecomp as pd
from pathdecomp import (
    BallIndex,
    CenterRecord,
    Cluster,
    CoverageError,
    DecompositionParams,
    MaskError,
    Partition,
    RngStream,
    VertexMask,
    WeightedGraph,
    derive_seed,
    texp_sample_many,
)
from pathdecomp.decomposer import carving
from pathdecomp.graph import induced

from test_acceptance import DELTA_FRACTIONS, corpus_specs
from test_decomposer import unit_path

SEEDS = range(20)
# every CORPUS_STRIDE-th acceptance-corpus instance: grids, trees and k-trees
CORPUS_STRIDE = 8
GAMMAS = (0.0, 1 / 400, 1 / 200, 1 / 100)


# ---------------------------------------------------------------------------
# reference implementation
# ---------------------------------------------------------------------------

def reference_profiles(g, records, delta):
    """Per record, its maximal ball (radius 2*delta/5 in its own subgraph) as
    (distances, vertices) sorted by distance, then vertex."""
    cutoff = 0.4 * delta
    limit = float(np.nextafter(cutoff, np.inf))
    cut = {}
    out = []
    for rec in records:
        if id(rec.subgraph) not in cut:
            cut[id(rec.subgraph)] = induced(g, rec.subgraph)
        sub, verts = cut[id(rec.subgraph)]
        row = csgraph_dijkstra(sub, directed=False, limit=limit,
                               indices=int(np.searchsorted(verts, rec.center)))
        sel = np.nonzero(row <= cutoff)[0]
        order = np.lexsort((verts[sel], row[sel]))
        out.append((row[sel][order], verts[sel][order]))
    return out


def reference_carve(n, records, profiles, radii):
    """One radius per record, in order; first claim wins; empty clusters dropped."""
    cluster_of = np.full(n, -1, dtype=np.int64)
    clusters = []
    for rec, (dists, verts), radius in zip(records, profiles, radii):
        k = int(np.searchsorted(dists, radius, side="right"))
        sel = verts[:k]
        fresh = sel[cluster_of[sel] < 0]
        if fresh.size == 0:
            continue
        cluster_of[fresh] = len(clusters)
        clusters.append(Cluster(np.sort(fresh), rec, float(radius)))
    if (cluster_of < 0).any():
        missing = int(np.nonzero(cluster_of < 0)[0][0])
        raise CoverageError(f"vertex {missing} was claimed by no ball")
    return Partition(cluster_of, clusters)


class Reference:
    """Reference carvings of one graph at one delta, both schemes."""

    def __init__(self, g, delta, seq):
        self.g, self.delta, self.seq = g, delta, seq
        self.profiles = reference_profiles(g, seq.records, delta)
        full = VertexMask.full(g.n)
        self.base_records = [CenterRecord(v, full, v, 0, -1) for v in range(g.n)]
        self.base_profiles = reference_profiles(g, self.base_records, delta)

    def paper(self, seed):
        params = DecompositionParams.for_graph(self.delta, seed, self.seq.p_eff, self.g.n)
        radii = texp_sample_many(params.texp(), RngStream(seed), len(self.seq.records))
        return reference_carve(self.g.n, self.seq.records, self.profiles, radii)

    def baseline(self, seed):
        params = DecompositionParams.for_baseline(self.delta, seed, self.g.n)
        rng = RngStream(seed)
        order = rng.permutation(self.g.n)
        radii = texp_sample_many(params.texp(), rng, self.g.n)
        return reference_carve(self.g.n, [self.base_records[i] for i in order],
                               [self.base_profiles[i] for i in order], radii)


def assert_same_partition(got, ref, label):
    assert np.array_equal(got.cluster_of, ref.cluster_of), label
    assert len(got.clusters) == len(ref.clusters), label
    for a, b in zip(got.clusters, ref.clusters):
        assert np.array_equal(a.vertices, b.vertices), label
        assert a.radius == b.radius, label
        assert (a.record.center, a.record.order, a.record.path_id) == \
            (b.record.center, b.record.order, b.record.path_id), label


# ---------------------------------------------------------------------------
# partitions on the acceptance corpus
# ---------------------------------------------------------------------------

def sampled_corpus():
    for i, (label, g, finder, seed) in enumerate(corpus_specs()):
        if i % CORPUS_STRIDE == 0:
            w = pd.weighted_diameter(g)
            delta = max(w, 1.0) * DELTA_FRACTIONS[seed % 3] if w > 0 else 1.0
            yield label, g, delta, pd.choose_centers(g, delta, finder)


@pytest.fixture(scope="module")
def corpus():
    return list(sampled_corpus())


@pytest.fixture(scope="module")
def both_finders(corpus):
    """The sampled corpus, plus its trees again with the centroid finder."""
    trees = [(f"{label} centroid", g, delta, pd.choose_centers(g, delta, pd.tree_centroid_find))
             for label, g, delta, _ in corpus if label.startswith("tree")]
    return corpus + trees


def assert_partitions_match_reference(ref, scheme, seeds, label):
    """carve (paper) or baseline_decompose against the reference carving."""
    params = DecompositionParams.for_graph(ref.delta, 0, ref.seq.p_eff, ref.g.n)
    for seed in seeds:
        if scheme == "paper":
            got, expect = pd.carve(ref.g, ref.seq, replace(params, seed=seed)), ref.paper(seed)
        else:
            got, expect = pd.baseline_decompose(ref.g, ref.delta, seed), ref.baseline(seed)
        assert_same_partition(got, expect, f"{label} {scheme} seed {seed}")


def test_carve_and_baseline_match_reference_on_corpus(corpus):
    labels = []
    for label, g, delta, seq in corpus:
        labels.append(label)
        ref = Reference(g, delta, seq)
        for scheme in ("paper", "baseline"):
            assert_partitions_match_reference(ref, scheme, SEEDS, label)
    assert len(labels) >= 60
    for family in ("grid", "tree", "ktree"):
        assert any(label.startswith(family) for label in labels), family


def test_index_holds_the_reference_balls():
    g = pd.gen_ktree(300, 3, "uniform", seed=4).graph
    delta = pd.weighted_diameter(g) / 4
    seq = pd.choose_centers(g, delta)
    index = seq.index
    assert index.n_records == len(seq.records) and index.delta == delta
    pairs = set()
    for v in range(g.n):
        recs = index.record[index.starts[v]:index.starts[v + 1]]
        assert np.all(np.diff(recs) > 0)
        pairs.update((int(r), v, float(d)) for r, d in
                     zip(recs, index.distance[index.starts[v]:index.starts[v + 1]]))
    expect = {(r, int(v), float(d))
              for r, (dists, verts) in enumerate(reference_profiles(g, seq.records, delta))
              for d, v in zip(dists, verts)}
    assert pairs == expect


def reference_index(g, records, delta):
    """(record, distance, starts) of the reference balls, vertex-major, sorted
    by record within a vertex."""
    profiles = reference_profiles(g, records, delta)
    rec = np.concatenate([np.full(len(verts), r) for r, (_, verts) in enumerate(profiles)])
    vert = np.concatenate([verts for _, verts in profiles])
    dist = np.concatenate([dists for dists, _ in profiles])
    order = np.lexsort((rec, vert))
    starts = np.concatenate(([0], np.cumsum(np.bincount(vert, minlength=g.n))))
    return rec[order], dist[order], starts


def assert_reference_index(g, records, index, label):
    rec, dist, starts = reference_index(g, records, index.delta)
    assert np.array_equal(index.record, rec), label
    assert np.array_equal(index.distance, dist), label
    assert np.array_equal(index.starts, starts), label


def test_index_matches_reference_on_corpus(both_finders):
    # unit and uniform weights; greedy finder everywhere, centroid on the trees
    assert any(label.endswith("centroid") for label, *_ in both_finders)
    for label, g, delta, seq in both_finders:
        assert_reference_index(g, seq.records, seq.index, label)


def test_batch_keys_hold_disjoint_non_adjacent_subgraphs(both_finders):
    shared = 0
    for label, g, _, seq in both_finders:
        batches = {}
        for rec in seq.records:
            batches.setdefault((rec.depth, rec.group), {})[id(rec.subgraph)] = rec.subgraph
        for key, subgraphs in batches.items():
            owner = {}
            for k, mask in enumerate(subgraphs.values()):
                for v in mask.alive:
                    assert owner.setdefault(v, k) == k, (label, key, v)
            for v, k in owner.items():
                assert all(owner.get(u, k) == k for u, _ in g.adj[v]), (label, key, v)
            shared += len(subgraphs) > 1
    assert shared > 0  # the batched sweep is exercised


def records_on(n, placed, groups=None):
    """Hand-built records: placed is [(subgraph vertices, centers)], one
    VertexMask per entry; every record gets batch key (0, groups[k])."""
    records = []
    for k, (verts, centers) in enumerate(placed):
        mask = VertexMask(n, verts)
        for c in centers:
            records.append(CenterRecord(c, mask, len(records), 0, k,
                                        0 if groups is None else groups[k]))
    return records


@pytest.mark.parametrize("placed,delta,match", [
    # vertex 5 lies in both subgraphs
    ([(range(0, 6), [0]), (range(5, 10), [9])], 2.0, "overlap"),
    # edge 4-5 joins the subgraphs, and center 4's ball would cross it
    ([(range(0, 5), [4]), (range(5, 10), [7])], 10.0, "edge joins"),
    # in the second round only center 4 sweeps, and its ball would cross into 5..9
    ([(range(0, 5), [0, 4]), (range(5, 10), [9])], 10.0, "edge joins"),
    # edge 4-5 joins the subgraphs, though no ball of radius 2 would cross it
    ([(range(0, 5), [0, 2]), (range(5, 10), [9])], 5.0, "edge joins"),
], ids=["overlapping", "adjacent", "adjacent-later-round", "adjacent-out-of-reach"])
def test_shared_batch_key_misuse_raises(placed, delta, match):
    g = unit_path(10)
    with pytest.raises(ValueError, match=match):
        BallIndex.of_records(g, records_on(g.n, placed), delta)
    # as separate batches the same records are fine
    records = records_on(g.n, placed, groups=range(len(placed)))
    assert_reference_index(g, records, BallIndex.of_records(g, records, delta), match)


def test_center_outside_its_subgraph_raises():
    # center 7 lies in the other subgraph of the same batch key
    g = unit_path(10)
    records = records_on(g.n, [(range(0, 5), [7]), (range(5, 10), [9])])
    with pytest.raises(MaskError):
        BallIndex.of_records(g, records, 10.0)


# ---------------------------------------------------------------------------
# padding successes
# ---------------------------------------------------------------------------

def spread_weights(g, seed):
    """The same graph with log-uniform weights in [1e-3, 1], so that balls of
    radius gamma*delta hold more than their anchor."""
    u = RngStream(seed).uniforms(len(g.edges))
    return WeightedGraph(g.n, [(a, b, float(10.0 ** (-3.0 * x)))
                               for (a, b, _), x in zip(g.edges, u)])


def reference_balls(g, delta, vertices):
    """Every (vertex, gamma) padding ball from the heap `ball`, in (vertex,
    gamma) order, flattened: members, their anchors and segment starts."""
    full = VertexMask.full(g.n)
    balls = [sorted(pd.ball(g, full, int(x), gamma * delta)) for x in vertices for gamma in GAMMAS]
    sizes = np.array([len(b) for b in balls])
    anchors = np.repeat(np.repeat(vertices, len(GAMMAS)), sizes)
    return np.concatenate(balls), anchors, np.cumsum(sizes) - sizes


def reference_successes(ref, scheme, trials, seed, vertices):
    flat, anchors, starts = reference_balls(ref.g, ref.delta, vertices)
    successes = np.zeros(len(starts), dtype=np.int64)
    for t in range(trials):
        carve = ref.paper if scheme == "paper" else ref.baseline
        labels = carve(derive_seed(seed, t)).cluster_of
        successes += np.logical_and.reduceat(labels[flat] == labels[anchors], starts)
    return successes


def assert_padding_matches_reference(ref, scheme, trials, seed, label):
    """estimate_padding's successes against the reference carvings; returns
    the number of records with a failed trial."""
    rep = pd.estimate_padding(ref.g, ref.delta, gammas=GAMMAS, trials=trials, seed=seed,
                              scheme=scheme)
    expect = reference_successes(ref, scheme, trials, seed, np.array(rep.vertices))
    assert [r.successes for r in rep.records] == expect.tolist(), (label, scheme)
    return int((expect < trials).sum())


@pytest.mark.parametrize("name,make", [
    ("grid16x16", lambda: pd.gen_grid(16, 16)),
    ("grid16x16 spread", lambda: spread_weights(pd.gen_grid(16, 16), 1)),
    ("ktree k=2 n=512", lambda: pd.gen_ktree(512, 2, seed=10).graph),
    ("ktree k=2 n=512 spread", lambda: spread_weights(pd.gen_ktree(512, 2, seed=10).graph, 2)),
    # W = 400, so at gamma = 1/100 the radius is 1.0: the ball is closed, and
    # the unit edges at exactly that distance are in it
    ("path401 closed", lambda: pd.gen_grid(1, 401)),
])
def test_padding_successes_match_reference(name, make):
    g = make()
    delta = pd.weighted_diameter(g) / 4
    ref = Reference(g, delta, pd.choose_centers(g, delta))
    nontrivial = sum(assert_padding_matches_reference(ref, scheme, 60, 97, name)
                     for scheme in ("paper", "baseline"))
    if "spread" in name or "closed" in name:
        assert nontrivial > 0, name  # some ball was split, so the check has teeth


@pytest.mark.parametrize("scheme", ["paper", "baseline"])
def test_padding_records_match_one_gamma_calls(scheme):
    # each ball is read once, at the largest gamma: unsorted gammas with a
    # duplicate must still give every (x, gamma) record of a one-gamma call
    g = spread_weights(pd.gen_grid(16, 16), 1)
    delta = pd.weighted_diameter(g) / 4
    gammas = (1 / 200, 0.0, 1 / 100, 1 / 400, 1 / 200)
    trials, seed = 40, 13
    rep = pd.estimate_padding(g, delta, gammas=gammas, trials=trials, seed=seed, scheme=scheme)
    single = {gamma: pd.estimate_padding(g, delta, gammas=(gamma,), trials=trials, seed=seed,
                                         scheme=scheme).records
              for gamma in set(gammas)}
    assert rep.records == tuple(single[gamma][i] for i in range(len(rep.vertices))
                                for gamma in gammas)
    full = VertexMask.full(g.n)
    assert any(len(pd.ball(g, full, x, max(gammas) * delta)) > 1 for x in rep.vertices)
    assert any(0 < r.successes < trials for r in rep.records)


# ---------------------------------------------------------------------------
# coverage failures
# ---------------------------------------------------------------------------

def without_records(g, seq, *drop):
    records = tuple(rec for i, rec in enumerate(seq.records) if i not in drop)
    return replace(seq, records=records, index=BallIndex.of_records(g, records, seq.delta))


def test_dropped_records_name_smallest_uncovered_vertex():
    # heavy edges: every vertex is its own center, and no other ball reaches it
    g = WeightedGraph(5, [(i, i + 1, 10.0) for i in range(4)])
    seq = pd.choose_centers(g, 1.0)
    assert sorted(rec.center for rec in seq.records) == list(range(5))
    params = DecompositionParams.for_graph(1.0, 0, seq.p_eff, g.n)
    for i, j in [(0, 1), (1, 3), (2, 4), (3, 4)]:
        smallest = min(seq.records[i].center, seq.records[j].center)
        with pytest.raises(CoverageError, match=rf"^vertex {smallest} was claimed by no ball$"):
            pd.carve(g, without_records(g, seq, i, j), params)


def test_dropped_record_error_matches_reference():
    g = pd.gen_grid(12, 12)
    delta = pd.weighted_diameter(g) / 8
    seq = pd.choose_centers(g, delta)
    raised = 0
    for i in range(0, len(seq.records), 3):
        cut = without_records(g, seq, i)
        profiles = reference_profiles(g, cut.records, delta)
        for seed in range(3):
            params = DecompositionParams.for_graph(delta, seed, seq.p_eff, g.n)
            radii = texp_sample_many(params.texp(), RngStream(seed), len(cut.records))
            try:
                expect = reference_carve(g.n, cut.records, profiles, radii)
            except CoverageError as exc:
                with pytest.raises(CoverageError, match=rf"^{exc}$"):
                    pd.carve(g, cut, params)
                raised += 1
            else:
                assert_same_partition(pd.carve(g, cut, params), expect, (i, seed))
    assert raised > 0


# ---------------------------------------------------------------------------
# padding trials on the ball members only
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,make", [
    ("grid16x16", lambda: pd.gen_grid(16, 16)),
    ("grid16x16 spread", lambda: spread_weights(pd.gen_grid(16, 16), 1)),
    ("ktree k=2 n=512", lambda: pd.gen_ktree(512, 2, seed=10).graph),
])
def test_restricted_labels_match_full_labels(name, make):
    g = make()
    delta = pd.weighted_diameter(g) / 4
    rng = np.random.default_rng(5)
    below = 0
    for scheme in ("paper", "baseline"):
        index = carving(g, delta, scheme, 0).index
        vertices = np.sort(rng.choice(g.n, size=g.n // 3, replace=False))
        held_index = index.restrict(vertices)
        for trial in range(40):
            # every fourth trial may draw radii below reach, down to reach/2
            low = index.reach / 2 if trial % 4 == 0 else delta / 4
            radius = rng.uniform(low, 0.4 * delta, index.n_records)
            rank = rng.permutation(index.n_records)
            below += bool(radius.min() < index.reach)
            try:
                full = index.labels(radius, rank)
            except CoverageError:
                continue
            assert np.array_equal(held_index.labels(radius, rank), full[vertices]), (name, trial)
    # the k-tree's vertices are all centers (reach 0); the grids' are not
    assert (below > 0) == name.startswith("grid"), name


def test_padding_coverage_error_matches_carve():
    g = pd.gen_grid(12, 12)
    delta = pd.weighted_diameter(g) / 6
    seq = pd.choose_centers(g, delta)
    seed, trials = 4, 30

    def carve_error(cut):
        """Message and trial of the first trial seed at which carve raises."""
        for t in range(trials):
            params = DecompositionParams.for_graph(delta, derive_seed(seed, t), seq.p_eff, g.n)
            try:
                pd.carve(g, cut, params)
            except CoverageError as exc:
                return str(exc), t
        return None, None

    # the first cut whose failing trial comes after trials that pass
    for i in range(len(seq.records)):
        cut = without_records(g, seq, i)
        message, first = carve_error(cut)
        if message is not None and first > 0:
            break
    else:
        pytest.fail("no cut sequence fails a later trial")
    g._cache["centers"] = (delta, pd.greedy_find, cut)
    assert pd.choose_centers(g, delta) is cut
    with pytest.raises(CoverageError, match=rf"^{message}$"):
        pd.estimate_padding(g, delta, trials=trials, seed=seed)


def test_padding_trials_never_label_the_whole_graph(monkeypatch):
    g = pd.gen_grid(32, 32)
    delta = pd.weighted_diameter(g) / 8
    sizes = []
    labels = BallIndex.labels

    def spy(index, radius, rank):
        sizes.append(index.n)
        return labels(index, radius, rank)

    monkeypatch.setattr(BallIndex, "labels", spy)
    for scheme in ("paper", "baseline"):
        sizes.clear()
        rep = pd.estimate_padding(g, delta, trials=20, seed=1, scheme=scheme)
        # unit weights and gamma*delta < 1: each ball is its anchor alone
        assert sizes == [len(rep.vertices)] * 20, scheme
        assert len(rep.vertices) < g.n


# ---------------------------------------------------------------------------
# threateners
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("gamma", [0.0, 1 / 200, 1 / 100])
def test_threatener_counts_match_reference(gamma):
    g = spread_weights(pd.gen_ktree(200, 2, seed=3).graph, 4)
    delta = pd.weighted_diameter(g) / 4
    seq = pd.choose_centers(g, delta)
    params = DecompositionParams.for_graph(delta, 0, seq.p_eff, g.n)
    rep = pd.threatener_report(g, seq, params, gamma)
    balls = [set(verts.tolist()) for _, verts in reference_profiles(g, seq.records, delta)]
    expect = [sum(1 for b in balls if b & pd.ball(g, VertexMask.full(g.n), x, gamma * delta))
              for x in range(g.n)]
    assert list(rep.counts) == expect
    assert max(expect) > 1
