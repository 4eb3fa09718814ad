"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with:  pytest tests/test_acceptance.py -v -s

The fuzz corpus (>= 500 instances spanning grids up to 32x32, random trees and
k-trees up to n = 1024 with k in {1,2,3,5}) is built once per session; the
exact criteria read precomputed per-instance results from it. The statistical
criteria (padding floors, sampler fidelity) run their own heavier loops.
"""

import itertools
import math
import re
from dataclasses import dataclass

import numpy as np
import pytest

import pathdecomp as pd
from pathdecomp import (
    DecompositionParams,
    ExperimentConfig,
    RngStream,
    TexpParams,
    VertexMask,
    ceil_log2,
    run_experiment,
    texp_cdf,
    texp_icdf,
    texp_pdf,
    texp_sample_many,
    validate_separator,
)


def report_line(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:2d} {name}: {status}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# fuzz corpus
# ---------------------------------------------------------------------------

GRID_SIZES = [
    (2, 2), (2, 3), (3, 3), (2, 8), (4, 4), (3, 7), (5, 5), (4, 8), (6, 6),
    (5, 10), (8, 8), (6, 12), (10, 10), (9, 14), (12, 12), (16, 16), (14, 20),
    (24, 24), (32, 32),
]
TREE_SIZES = [2, 3, 5, 9, 17, 33, 65, 129, 257, 513, 1024]
KTREE_SHAPES = [(k, n) for k in (2, 3, 5)
                for n in (8, 16, 33, 64, 120, 256, 400, 1024)]
DELTA_FRACTIONS = (1 / 8, 1 / 4, 1 / 2)


def corpus_specs():
    """(label, graph, finder, seed) for every corpus instance."""
    idx = 0
    for rows, cols in GRID_SIZES:
        for mode in ("unit", "uniform"):
            for gseed in range(5):
                g = pd.gen_grid(rows, cols, mode, seed=gseed)
                yield f"grid{rows}x{cols}:{mode}:{gseed}", g, pd.greedy_find, idx
                idx += 1
    for n in TREE_SIZES:
        for mode in ("unit", "uniform"):
            for gseed in range(7):
                g = pd.gen_ktree(n, 1, mode, seed=gseed).graph
                finder = pd.tree_centroid_find if idx % 2 else pd.greedy_find
                yield f"tree{n}:{mode}:{gseed}", g, finder, idx
                idx += 1
    for k, n in KTREE_SHAPES:
        for mode in ("unit", "uniform"):
            for gseed in range(4):
                g = pd.gen_ktree(n, k, mode, seed=gseed).graph
                yield f"ktree{k}-{n}:{mode}:{gseed}", g, pd.greedy_find, idx
                idx += 1


@dataclass
class InstanceResult:
    label: str
    n: int
    delta: float
    p_eff: int
    max_depth: int
    partition_ok: bool
    diameter_ok: bool
    separators_ok: bool
    depth_ok: bool
    threat_ok: bool
    threat_worst: int
    threat_bound: int
    net_fault: str | None


def net_fault(g, seq, delta):
    """The first way a sequence's nets miss the paper's requirement, or None.
    Per separator path, along its prefix sums of edge weights, its records'
    centers must come in path order, lie more than delta/4 apart, and have
    every path vertex within delta/4 of one of them."""
    r = delta / 4
    centers = {}
    for rec in seq.records:
        centers.setdefault(rec.path_id, []).append(rec.center)
    if sorted(centers) != list(range(len(seq.paths))):
        return "a separator path has no center"
    for pid, path in enumerate(seq.paths):
        verts = path.vertices
        cum = list(itertools.accumulate(
            (g.edge_weight(a, b) for a, b in zip(verts, verts[1:])), initial=0.0))
        at = [verts.index(c) for c in centers[pid]]
        if any(b <= a for a, b in zip(at, at[1:])):
            return f"path {pid}: centers {centers[pid]} out of path order"
        if any(cum[b] - cum[a] <= r for a, b in zip(at, at[1:])):
            return f"path {pid}: two consecutive centers within delta/4"
        if any(min(abs(x - cum[a]) for a in at) > r for x in cum):
            return f"path {pid}: a vertex farther than delta/4 from every center"
    return None


@pytest.fixture(scope="session")
def corpus():
    results = []
    for label, g, finder, seed in corpus_specs():
        w = pd.weighted_diameter(g)
        delta = max(w, 1.0) * DELTA_FRACTIONS[seed % 3] if w > 0 else 1.0

        seq = pd.choose_centers(g, delta, finder)
        params = DecompositionParams.for_graph(delta, seed, seq.p_eff, g.n)
        part = pd.carve(g, seq, params)
        base = pd.baseline_decompose(g, delta, seed)

        partition_ok = (pd.check_partition(g, part) is None
                        and pd.check_partition(g, base) is None)
        diameter_ok = (pd.check_cluster_diameters(g, part, delta) is None
                       and pd.check_cluster_diameters(g, base, delta) is None)
        separators_ok = all(
            validate_separator(g, mask, sep) is None for mask, sep in seq.separators
        )
        depth_ok = seq.max_depth <= ceil_log2(g.n)

        rep = pd.threatener_report(g, seq, params, 1 / 100)
        threat_bound = 4 * seq.p_eff * ceil_log2(g.n)
        threat_ok = rep.bound == threat_bound and all(c <= threat_bound for c in rep.counts)
        threat_worst = rep.worst()

        results.append(InstanceResult(
            label, g.n, delta, seq.p_eff, seq.max_depth,
            partition_ok, diameter_ok, separators_ok, depth_ok,
            threat_ok, threat_worst, threat_bound, net_fault(g, seq, delta),
        ))
    assert len(results) >= 500
    return results


# ---------------------------------------------------------------------------
# criteria 1..6 and 11: exact checks over the corpus
# ---------------------------------------------------------------------------

def test_criterion_1_partition_validity(corpus):
    bad = [r.label for r in corpus if not r.partition_ok]
    report_line(1, "partition validity", not bad,
                f"{len(corpus)} instances, paper+baseline; failures: {bad[:3]}")


def test_criterion_2_diameter_bound(corpus):
    bad = [r.label for r in corpus if not r.diameter_ok]
    report_line(2, "cluster diameter <= 4*delta/5", not bad,
                f"{len(corpus)} instances; failures: {bad[:3]}")


def test_criterion_4_threatener_bound(corpus):
    bad = [r.label for r in corpus if not r.threat_ok]
    worst = max((r.threat_worst, r.threat_bound, r.label) for r in corpus)
    report_line(4, "threatener count <= 4*p_eff*ceil(log2 n)", not bad,
                f"{len(corpus)} instances; worst {worst[0]}/{worst[1]}")


def test_criterion_5_recursion_depth(corpus):
    bad = [r.label for r in corpus if not r.depth_ok]
    deepest = max((r.max_depth, ceil_log2(r.n)) for r in corpus)
    report_line(5, "recursion depth <= ceil(log2 n)", not bad,
                f"deepest {deepest[0]} vs limit {deepest[1]}")


def test_criterion_6_separator_certificates(corpus):
    bad = [r.label for r in corpus if not r.separators_ok]
    report_line(6, "separator certificates validate", not bad,
                f"every recursion node of {len(corpus)} instances; failures: {bad[:3]}")


def test_criterion_11_nets_on_separator_paths(corpus):
    bad = [(r.label, r.net_fault) for r in corpus if r.net_fault is not None]
    report_line(11, "nets on every separator path: in order, > delta/4 apart, covering",
                not bad, f"{len(corpus)} instances; failures: {bad[:3]}")


# ---------------------------------------------------------------------------
# criterion 3: Monte-Carlo padding floors at 1e4 trials
# ---------------------------------------------------------------------------

PADDING_GAMMAS = (1 / 400, 1 / 200, 1 / 100)


def test_criterion_3_padding_floor():
    cases = [
        ("grid16x16", pd.gen_grid(16, 16)),
        ("ktree k=2 n=512", pd.gen_ktree(512, 2, seed=10).graph),
        ("ktree k=3 n=512", pd.gen_ktree(512, 3, seed=11).graph),
    ]
    failures = []
    details = []
    for name, g in cases:
        w = pd.weighted_diameter(g)
        for frac in (8, 4):
            rep = pd.estimate_padding(
                g, w / frac, gammas=PADDING_GAMMAS, trials=10_000, seed=97,
            )
            if not rep.all_pass():
                failures.append((name, frac, rep.failures()[:2]))
            details.append(
                f"{name} delta=W/{frac}: min wilson "
                f"{min(r.wilson_lb for r in rep.records):.4f} vs max floor "
                f"{max(r.floor for r in rep.records):.4f}"
            )
    report_line(3, "padding floor (Wilson 99% >= 2^(-beta*gamma))", not failures,
                "; ".join(details[:2]) + (f"; FAILURES {failures}" if failures else ""))


# ---------------------------------------------------------------------------
# criterion 7: sampler fidelity at 1e6 samples
# ---------------------------------------------------------------------------

def test_criterion_7_sampler_fidelity():
    # representative carving parameters: delta=8, p_eff=2, n=256. The law is
    # rebuilt from the documented formula, not read back from params:
    # K = max(2, 9 * p_eff * ceil(log2 n)) = 144, lam = delta / (10 ln K) on
    # [delta/4, 2*delta/5]
    delta, K = 8.0, max(2, 9 * 2 * 8)
    lam, lo, hi = delta / (10.0 * math.log(K)), delta / 4, 2 * delta / 5
    params = DecompositionParams.for_graph(delta, 0, 2, 256)
    assert (K, params.K, params.lam) == (144, K, lam)
    p = params.texp()
    assert (p.lam, p.lo, p.hi) == (lam, lo, hi)

    xs = np.sort(texp_sample_many(p, RngStream(123), 1_000_000))
    cdf = np.expm1(-(xs - lo) / lam) / math.expm1(-(hi - lo) / lam)
    n = len(xs)
    i = np.arange(1, n + 1)
    ks = max(np.max(np.abs(cdf - i / n)), np.max(np.abs(cdf - (i - 1) / n)))

    from scipy.integrate import quad
    integral, _ = quad(lambda x: texp_pdf(p, x), lo, hi)

    endpoints_exact = texp_icdf(p, 0.0) == lo and texp_icdf(p, 1.0) == hi
    ok = ks < 0.002 and abs(integral - 1.0) < 1e-9 and endpoints_exact
    report_line(7, "sampler fidelity", ok,
                f"KS={ks:.5f} (<0.002), integral err={abs(integral - 1):.2e}, "
                f"endpoints exact={endpoints_exact}")


# ---------------------------------------------------------------------------
# criterion 8: net properties on 1e4 random weighted paths
# ---------------------------------------------------------------------------

def test_criterion_8_net_properties():
    rng = RngStream(2718)
    checked = 0
    for _ in range(10_000):
        k = 1 + rng.integer(28)
        weights = 0.05 + 2.5 * rng.uniforms(k)
        r = 0.02 + 4.0 * rng.uniform()
        cum = [0.0]
        for w in weights:
            cum.append(cum[-1] + float(w))
        view = pd.PathMetricView(pd.Path(tuple(range(k + 1)), cum[-1]), tuple(cum))
        net = pd.greedy_net(view, r)
        pos = {v: i for i, v in enumerate(view.path.vertices)}
        for a_i, a in enumerate(net):
            for b in net[a_i + 1:]:
                assert view.distance(pos[a], pos[b]) > r
        for v in view.path.vertices:
            assert min(view.distance(pos[v], pos[u]) for u in net) <= r
        assert len(net) <= int(cum[-1] / r) + 1
        checked += 1
    report_line(8, "net packing/covering/size bound", checked == 10_000,
                f"{checked} random weighted paths")


# ---------------------------------------------------------------------------
# criterion 9: run_experiment determinism
# ---------------------------------------------------------------------------

def test_criterion_9_determinism(tmp_path):
    args = dict(gen="grid:8,8", deltas=(3.5,), trials=300, seed=31, scheme="both")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_experiment(ExperimentConfig(out=str(a), **args))
    run_experiment(ExperimentConfig(out=str(b), **args))
    mask_ts = lambda s: re.sub(r'"timestamp": "[^"]*"', '"timestamp": "X"', s)
    ok = mask_ts(a.read_text()) == mask_ts(b.read_text())
    report_line(9, "byte-identical reports (timestamp masked)", ok,
                f"{len(a.read_text())} bytes compared")


# ---------------------------------------------------------------------------
# criterion 10: comparative padding exponent, paper vs baseline
# ---------------------------------------------------------------------------

def test_criterion_10_comparative_fit():
    rows = []
    ok = True
    for n in (256, 1024, 4096):
        g = pd.gen_ktree(n, 2, seed=500 + n).graph
        delta = pd.weighted_diameter(g) / 4
        paper = pd.estimate_padding(g, delta, gammas=PADDING_GAMMAS, trials=400, seed=3)
        base = pd.estimate_padding(g, delta, gammas=PADDING_GAMMAS, trials=400, seed=3,
                                   scheme="baseline")
        fp, fb = paper.fitted_beta(), base.fitted_beta()
        ok = ok and fp is not None and fb is not None
        rows.append(f"n={n}: fitted beta paper={fp} baseline={fb}")
    report_line(10, "comparative padding fit reported for both schemes", ok,
                " | ".join(rows))
