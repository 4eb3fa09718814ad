"""The pathdecomp benchmark: workloads, the certified pipeline, and the trace.

One repetition of a workload runs the public calls `decomp run` makes for one
delta: generate the graph, build it, pick delta from its weighted diameter,
choose centers, carve, certify every partition (plus `validate_separator` at
every recursion node), and estimate padding by Monte Carlo for the paper
scheme and the all-centers baseline. Only names exported from `pathdecomp`
are used, so the benchmark survives changes to the library's internals.

Every library call sits inside `Recorder.span`. An untraced recorder only
adds the call's duration to the end-to-end stages it belongs to; a traced one
also keeps the span (name, start, end, parent, workload, run id) in memory.
Span names are `<layer>.<call>`, where the layer is the pathdecomp module the
call goes to; `bench.*` spans are the benchmark's own grouping. Reported times
are in reference seconds: wall seconds scaled by the speed `SpeedProbe`
measures between repetitions.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import math
import os
import platform
import resource
import statistics
import time
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra as csgraph_dijkstra

import pathdecomp as pd

GAMMAS = (1.0 / 400.0, 1.0 / 200.0, 1.0 / 100.0)
MIN_REPS = 3      # pipeline repetitions per recorder kind, however short --seconds is
SETUP_REPS = 10   # extra set-ups per untraced run, for the setup_s median
REFERENCE_KERNEL_S = 0.02  # SpeedProbe time that defines one reference second
# pathdecomp modules the pipeline calls directly; nets and sampler run inside
# decomposer and verifier calls, so only the probes time them
LAYERS = ("generators", "graph", "separators", "decomposer", "verifier")

END_TO_END_UNITS = {
    "setup_s": "s",
    "decompose_s": "s",
    "certify_s": "s",
    "padding_trials_per_s": "trials/s",
    "baseline_trials_per_s": "trials/s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "beta": "none",
}

PER_LAYER_UNITS = {
    "generators.gen_s": "s",
    "graph.csr_s": "s",
    "graph.weighted_diameter_s": "s",
    "decomposer.choose_centers_s": "s",
    "decomposer.carve_first_s": "s",
    "decomposer.carve_s": "s",
    "decomposer.carve_p90_s": "s",
    "decomposer.baseline_first_s": "s",
    "decomposer.baseline_s": "s",
    "decomposer.baseline_p90_s": "s",
    "separators.greedy_find_root_s": "s",
    "separators.validate_s": "s",
    "nets.net_s": "s",
    "sampler.radii_s": "s",
    "verifier.check_partition_s": "s",
    "verifier.check_cluster_diameters_s": "s",
    "verifier.threatener_report_s": "s",
    "verifier.padding_s": "s",
    "verifier.padding_baseline_s": "s",
    "verifier.padding_self_s": "s",
    "generators.self_s": "s",
    "graph.self_s": "s",
    "separators.self_s": "s",
    "decomposer.self_s": "s",
    "verifier.self_s": "s",
    "separators.nodes": "count",
    "separators.paths": "count",
    "separators.p_eff": "count",
    "separators.max_depth": "count",
    "nets.centers": "count",
    "decomposer.clusters": "count",
    "decomposer.claim_ratio": "ratio",
    "verifier.padding_balls": "count",
    "verifier.nontrivial_ball_ratio": "ratio",
    "verifier.threatener_worst": "count",
    "verifier.threatener_bound": "count",
    "verifier.checks": "count",
    "verifier.checks_failed": "count",
    "verifier.check_fail_ratio": "ratio",
    "trace.run_s": "s",
    "trace.untraced_run_s": "s",
    "trace.overhead_s": "s",
    "trace.gap_s": "s",
    "trace.spans": "count",
}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

# The graphs are fixed; the workload seed drives the library's own seed
# argument (radii, padding trials, sampled vertices, baseline order). Graphs
# drawn from the seed moved check_cluster_diameters and choose_centers cost by
# up to a quarter between seeds, on top of the machine's own drift.
GRAPH_SEED = 0


def ktree_graph(n: int):
    def make() -> pd.WeightedGraph:
        return pd.gen_ktree(n, 2, "unit", GRAPH_SEED).graph
    return make


def unit_grid(side: int):
    def make() -> pd.WeightedGraph:
        return pd.gen_grid(side, side)
    return make


@dataclass(frozen=True)
class Workload:
    """One benchmark input family. delta = weighted diameter / delta_div.

    carve_probes and baseline_probes size the standalone per-trial samples the
    traced run takes after the pipeline.
    """

    name: str
    make_graph: Callable[[], pd.WeightedGraph]
    delta_div: float
    trials: int
    baseline_trials: int
    carve_probes: int
    baseline_probes: int


# Why each workload exists, and their measured numbers: perfbench/README.md.
WORKLOADS = {
    w.name: w for w in (
        Workload(
            "ktree-recursion", ktree_graph(2048), 4.0, trials=16, baseline_trials=16,
            carve_probes=100, baseline_probes=20,
        ),
        Workload(
            "grid-padding", unit_grid(64), 8.0, trials=300, baseline_trials=16,
            carve_probes=100, baseline_probes=20,
        ),
    )
}

# Same shapes at toy sizes: the import warm-up and the smoke self-test.
TINY = {
    "ktree-recursion": replace(WORKLOADS["ktree-recursion"], make_graph=ktree_graph(96),
                               trials=16, baseline_trials=16, carve_probes=4, baseline_probes=2),
    "grid-padding": replace(WORKLOADS["grid-padding"], make_graph=unit_grid(10),
                            trials=16, baseline_trials=16, carve_probes=4, baseline_probes=2),
}


# ---------------------------------------------------------------------------
# recorder: stage totals always, spans only when tracing
# ---------------------------------------------------------------------------

class Recorder:
    """Times library calls for one repetition.

    `span(name, *stages)` adds the call's wall time to each named end-to-end
    stage. With `trace` on it also keeps the span; spans stay in memory and
    are written out by the caller when the benchmark ends.
    """

    def __init__(self, workload: str, run_id: str, trace: bool):
        self.workload = workload
        self.run_id = run_id
        self.trace = trace
        self.stages: dict[str, float] = {}
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, *stages: str):
        if self.trace:
            idx = len(self.spans)
            self.spans.append({
                "name": name, "start": 0.0, "end": 0.0,
                "parent": self._open[-1] if self._open else None,
                "workload": self.workload, "run_id": self.run_id,
            })
            self._open.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            for stage in stages:
                self.stages[stage] = self.stages.get(stage, 0.0) + (end - start)
            if self.trace:
                self._open.pop()
                self.spans[idx]["start"] = start
                self.spans[idx]["end"] = end


# ---------------------------------------------------------------------------
# machine speed
# ---------------------------------------------------------------------------

class SpeedProbe:
    """Times a fixed kernel to follow the machine's speed during a run.

    On a shared virtual machine the same work can take 25% longer for minutes
    at a time. Timed between repetitions, this kernel slows and speeds up with
    the pipeline, so reported times are scaled by REFERENCE_KERNEL_S over the
    run's median kernel time. The kernel mixes what the library spends its
    time on (a pure-Python heap Dijkstra, frozenset differences, scipy
    Dijkstra with a limit, a numpy sort) and calls no pathdecomp code, so no
    library change can move it.
    """

    def __init__(self):
        rng = np.random.default_rng(12345)
        n = 3000
        self.adj = [[] for _ in range(n)]
        for u in range(n):
            for v in rng.integers(0, n, 3):
                w = float(rng.random())
                self.adj[u].append((int(v), w))
                self.adj[int(v)].append((u, w))
        self.alive = frozenset(range(4 * n))
        side = 48
        ids = np.arange(side * side).reshape(side, side)
        u = np.concatenate([ids[:, :-1].ravel(), ids[:-1, :].ravel()])
        v = np.concatenate([ids[:, 1:].ravel(), ids[1:, :].ravel()])
        self.csr = sp.csr_matrix((np.ones(len(u)), (u, v)), shape=(side * side,) * 2)
        self.sources = np.arange(0, side * side, 25)
        self.values = rng.random(200_000)

    def _kernel(self) -> None:
        dist = [math.inf] * len(self.adj)
        dist[0] = 0.0
        heap = [(0.0, 0)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in self.adj[u]:
                if d + w < dist[v]:
                    dist[v] = d + w
                    heapq.heappush(heap, (d + w, v))
        for k in range(0, len(self.alive), 400):
            self.alive.difference(range(k, k + 400))
        csgraph_dijkstra(self.csr, directed=False, indices=self.sources, limit=6.0)
        np.sort(self.values)

    def sample(self) -> float:
        """Seconds for one kernel run: the median of three back-to-back runs."""
        times = []
        for _ in range(3):
            start = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - start)
        return statistics.median(times)


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------

@dataclass
class Checks:
    attempted: int = 0
    failed: int = 0

    def add(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


def partition_digest(part, delta: float, seed: int) -> str:
    text = pd.format_partition(part, {"delta": repr(delta), "seed": seed})
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def setup(wl: Workload, rec: Recorder):
    """Build the input graph and its CSR, and pick delta."""
    with rec.span("bench.setup", "setup_s"):
        with rec.span("generators.gen"):
            g = wl.make_graph()
        with rec.span("graph.csr"):
            g.csr()
        with rec.span("graph.weighted_diameter"):
            delta = pd.weighted_diameter(g) / wl.delta_div
    return g, delta


def run_pipeline(wl: Workload, seed: int, rec: Recorder) -> dict:
    """One certified run of the workload. Returns the objects the probes need
    and the counts; timings are in `rec`."""
    checks = Checks()
    with rec.span("bench.run", "run_s"):
        g, delta = setup(wl, rec)

        with rec.span("bench.paper"):
            with rec.span("decomposer.choose_centers", "decompose_s"):
                seq = pd.choose_centers(g, delta)
            params = pd.DecompositionParams.for_graph(delta, seed, seq.p_eff, g.n)
            with rec.span("decomposer.carve_first", "decompose_s"):
                part = pd.carve(g, seq, params)
            with rec.span("verifier.check_recursion_depth", "certify_s"):
                checks.add(pd.check_recursion_depth(seq) is None)
            for mask, sep in seq.separators:
                with rec.span("separators.validate", "certify_s"):
                    checks.add(pd.validate_separator(g, mask, sep) is None)
            with rec.span("verifier.threatener_report", "certify_s"):
                threat = pd.threatener_report(
                    g, seq, params, 1.0 / 100.0, pd.sample_vertices(g, seed)
                )
            for count in threat.counts:
                checks.add(count <= threat.bound)
            with rec.span("verifier.check_partition", "certify_s"):
                checks.add(pd.check_partition(g, part) is None)
            with rec.span("verifier.check_cluster_diameters", "certify_s"):
                checks.add(pd.check_cluster_diameters(g, part, delta) is None)
            with rec.span("verifier.padding", "padding_s"):
                padding = pd.estimate_padding(
                    g, delta, pd.greedy_find, GAMMAS, wl.trials, seed, "paper"
                )
            for r in padding.records:
                checks.add(r.passed)

        with rec.span("bench.baseline"):
            with rec.span("decomposer.baseline_first"):
                bpart = pd.baseline_decompose(g, delta, seed)
            with rec.span("verifier.check_partition", "certify_s"):
                checks.add(pd.check_partition(g, bpart) is None)
            with rec.span("verifier.check_cluster_diameters", "certify_s"):
                checks.add(pd.check_cluster_diameters(g, bpart, delta) is None)
            with rec.span("verifier.padding_baseline", "padding_baseline_s"):
                bpadding = pd.estimate_padding(
                    g, delta, pd.greedy_find, GAMMAS, wl.baseline_trials, seed, "baseline"
                )
            for r in bpadding.records:
                checks.add(r.passed)

    return {
        "objects": (g, seq, params),
        "n": g.n, "delta": delta,
        "checks": checks,
        "beta": pd.beta_bound(seq.p_eff, g.n),
        "paper_digest": partition_digest(part, delta, seed),
        "baseline_digest": partition_digest(bpart, delta, seed),
        "counts": {
            "separators.nodes": len(seq.separators),
            "separators.paths": len(seq.paths),
            "separators.p_eff": seq.p_eff,
            "separators.max_depth": seq.max_depth,
            "nets.centers": len(seq.records),
            "decomposer.clusters": len(part.clusters),
            "decomposer.claim_ratio": len(part.clusters) / len(seq.records),
            "verifier.padding_balls": len(padding.records),
            "verifier.threatener_worst": threat.worst(),
            "verifier.threatener_bound": threat.bound,
        },
    }


def nontrivial_balls(g, delta: float, seed: int) -> int:
    """How many (vertex, gamma) padding balls hold more than their anchor."""
    vertices = pd.sample_vertices(g, seed)
    radius = max(GAMMAS) * delta
    dmat = np.atleast_2d(csgraph_dijkstra(
        g.csr(), directed=False, indices=vertices,
        limit=float(np.nextafter(radius, np.inf)),
    ))
    return int(sum(int(((dmat <= gamma * delta).sum(axis=1) > 1).sum()) for gamma in GAMMAS))


# ---------------------------------------------------------------------------
# measurement loops
# ---------------------------------------------------------------------------

def _quantile(values, q: float) -> float:
    """Linear-interpolation quantile of a non-empty sample."""
    return float(np.quantile(np.asarray(values, dtype=float), q))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def repeat(wl: Workload, seed: int, seconds: float, trace_pattern,
           speed: SpeedProbe) -> tuple[list, list[float]]:
    """Run repetitions, cycling through `trace_pattern` (untraced/traced),
    until `seconds` have passed and each kind has MIN_REPS samples. The speed
    kernel runs before every repetition and after the last. Returns the
    (recorder, result) pairs and the kernel times."""
    out = []
    kernel = []
    deadline = time.perf_counter() + seconds
    i = 0
    while i < MIN_REPS * len(trace_pattern) or time.perf_counter() < deadline:
        trace = trace_pattern[i % len(trace_pattern)]
        gc.collect()
        kernel.append(speed.sample())
        rec = Recorder(wl.name, f"{wl.name}/seed{seed}/rep{i}", trace)
        res = run_pipeline(wl, seed, rec)
        # keep the graph and centers of the latest traced repetition only, so
        # memory does not grow with the repetition count
        if trace:
            for _, kept in out:
                kept.pop("objects", None)
        else:
            res.pop("objects")
        out.append((rec, res))
        i += 1
    kernel.append(speed.sample())
    return out, kernel


def setup_times(wl: Workload) -> list[float]:
    """Extra set-ups on their own, so the setup_s median has enough samples."""
    times = []
    for _ in range(SETUP_REPS):
        gc.collect()
        rec = Recorder(wl.name, "setup", False)
        setup(wl, rec)
        times.append(rec.stages["setup_s"])
    return times


def consistency(results) -> tuple[Checks, bool]:
    """Sum the checks and require every repetition to agree on its outputs."""
    total = Checks()
    for res in results:
        total.attempted += res["checks"].attempted
        total.failed += res["checks"].failed
    first = results[0]
    same = all(
        r["beta"] == first["beta"]
        and r["paper_digest"] == first["paper_digest"]
        and r["baseline_digest"] == first["baseline_digest"]
        and r["counts"] == first["counts"]
        for r in results
    )
    return total, same


def end_to_end(wl: Workload, runs, scale: float) -> tuple[dict, dict]:
    """End-to-end metrics in reference seconds, and the raw wall-clock
    medians they were scaled from."""
    recs = [rec for rec, _ in runs]

    def med(stage):
        return statistics.median(rec.stages[stage] for rec in recs)

    raw = {
        "setup_s": statistics.median(setup_times(wl) + [rec.stages["setup_s"] for rec in recs]),
        "decompose_s": med("decompose_s"),
        "certify_s": med("certify_s"),
        "padding_s": med("padding_s"),
        "padding_baseline_s": med("padding_baseline_s"),
        "run_s": med("run_s"),
    }
    values = {
        "setup_s": raw["setup_s"] * scale,
        "decompose_s": raw["decompose_s"] * scale,
        "certify_s": raw["certify_s"] * scale,
        "padding_trials_per_s": wl.trials / (raw["padding_s"] * scale),
        "baseline_trials_per_s": wl.baseline_trials / (raw["padding_baseline_s"] * scale),
        "run_s": raw["run_s"] * scale,
        "peak_rss_mb": peak_rss_mb(),
        "beta": runs[0][1]["beta"],
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return metrics, raw


def span_metrics(spans: list[dict]) -> dict:
    """Per-call totals and per-layer self times of one traced repetition."""
    children_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            children_time[s["parent"]] += s["end"] - s["start"]
    totals: dict[str, float] = {}
    self_time = {layer: 0.0 for layer in LAYERS}
    gap = 0.0
    for s, covered in zip(spans, children_time):
        dur = s["end"] - s["start"]
        totals[s["name"]] = totals.get(s["name"], 0.0) + dur
        layer = s["name"].split(".", 1)[0]
        if layer == "bench":
            gap += dur - covered
        else:
            self_time[layer] += dur - covered
    return {"totals": totals, "self": self_time, "gap": gap}


def probe(wl: Workload, seed: int, res: dict, rec: Recorder) -> dict:
    """Standalone samples of the per-trial layers, on the last traced
    repetition's graph and centers, outside run_s."""
    (g, seq, params), delta = res["objects"], res["delta"]
    times: dict[str, list[float]] = {}

    def timed(name, fn):
        with rec.span(name):
            start = time.perf_counter()
            fn()
            times.setdefault(name, []).append(time.perf_counter() - start)

    full = pd.VertexMask.full(g.n)
    for _ in range(3):
        timed("separators.greedy_find_root", lambda: pd.greedy_find(g, full))

    def nets():
        for path in seq.paths:
            pd.greedy_net(pd.PathMetricView.from_path(g, path), delta / 4.0)
    for _ in range(3):
        timed("nets.net", nets)

    texp = params.texp()
    for t in range(wl.carve_probes):
        rng = pd.RngStream(pd.derive_seed(seed, t))
        timed("sampler.radii", lambda: pd.texp_sample_many(texp, rng, len(seq.records)))
    for t in range(wl.carve_probes):
        trial = replace(params, seed=pd.derive_seed(seed, t))
        timed("decomposer.carve", lambda: pd.carve(g, seq, trial))
    for t in range(wl.baseline_probes):
        timed("decomposer.baseline",
              lambda: pd.baseline_decompose(g, delta, pd.derive_seed(seed, t)))
    return times


def per_layer(wl: Workload, seed: int, runs, scale: float) -> tuple[dict, list[dict]]:
    untraced = [rec for rec, _ in runs if not rec.trace]
    traced = [(rec, res) for rec, res in runs if rec.trace]
    per_rep = [span_metrics(rec.spans) for rec, _ in traced]

    def med_total(name):
        return statistics.median(m["totals"].get(name, 0.0) for m in per_rep)

    last_rec, last_res = traced[-1]
    probe_rec = Recorder(wl.name, f"{wl.name}/seed{seed}/probes", True)
    samples = probe(wl, seed, last_res, probe_rec)

    values = {
        "generators.gen_s": med_total("generators.gen"),
        "graph.csr_s": med_total("graph.csr"),
        "graph.weighted_diameter_s": med_total("graph.weighted_diameter"),
        "decomposer.choose_centers_s": med_total("decomposer.choose_centers"),
        "decomposer.carve_first_s": med_total("decomposer.carve_first"),
        "decomposer.carve_s": statistics.median(samples["decomposer.carve"]),
        "decomposer.carve_p90_s": _quantile(samples["decomposer.carve"], 0.9),
        "decomposer.baseline_first_s": med_total("decomposer.baseline_first"),
        "decomposer.baseline_s": statistics.median(samples["decomposer.baseline"]),
        "decomposer.baseline_p90_s": _quantile(samples["decomposer.baseline"], 0.9),
        "separators.greedy_find_root_s": statistics.median(samples["separators.greedy_find_root"]),
        "separators.validate_s": med_total("separators.validate"),
        "nets.net_s": statistics.median(samples["nets.net"]),
        "sampler.radii_s": statistics.median(samples["sampler.radii"]),
        "verifier.check_partition_s": med_total("verifier.check_partition"),
        "verifier.check_cluster_diameters_s": med_total("verifier.check_cluster_diameters"),
        "verifier.threatener_report_s": med_total("verifier.threatener_report"),
        "verifier.padding_s": med_total("verifier.padding"),
        "verifier.padding_baseline_s": med_total("verifier.padding_baseline"),
    }
    values["verifier.padding_self_s"] = (
        values["verifier.padding_s"] - values["decomposer.choose_centers_s"]
        - values["decomposer.carve_first_s"] - (wl.trials - 1) * values["decomposer.carve_s"]
    )
    for layer in LAYERS:
        values[f"{layer}.self_s"] = statistics.median(m["self"][layer] for m in per_rep)

    counts = dict(last_res["counts"])
    checks, _ = consistency([res for _, res in runs])
    nontrivial = nontrivial_balls(last_res["objects"][0], last_res["delta"], seed)
    counts.update({
        "verifier.nontrivial_ball_ratio": nontrivial / counts["verifier.padding_balls"],
        "verifier.checks": checks.attempted,
        "verifier.checks_failed": checks.failed,
        "verifier.check_fail_ratio": checks.failed / checks.attempted,
    })
    values.update(counts)

    traced_run = statistics.median(rec.stages["run_s"] for rec, _ in traced)
    untraced_run = statistics.median(rec.stages["run_s"] for rec in untraced)
    values.update({
        "trace.run_s": traced_run,
        "trace.untraced_run_s": untraced_run,
        "trace.overhead_s": traced_run - untraced_run,
        "trace.gap_s": statistics.median(m["gap"] for m in per_rep),
        "trace.spans": len(last_rec.spans),
    })
    metrics = {
        k: {"value": values[k] * scale if unit == "s" else values[k], "unit": unit}
        for k, unit in PER_LAYER_UNITS.items()
    }
    spans = [s for rec, _ in traced for s in rec.spans] + probe_rec.spans
    return metrics, spans


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def git_commit(root: Path) -> str | None:
    """HEAD commit read from the .git directory; None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path, seed: int, thread_cap: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_cap": thread_cap,
        "seed": seed,
        "git_commit": git_commit(root),
    }


def warm_up(name: str) -> None:
    """Load every code path once on a throwaway toy graph before timing."""
    wl = TINY[name]
    rec = Recorder(wl.name, "warm-up", True)
    res = run_pipeline(wl, 0, rec)
    probe(wl, 0, res, rec)
    nontrivial_balls(res["objects"][0], res["delta"], 0)


def benchmark(wl: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict, list]:
    """Measure one workload. Returns (result line, detail, spans)."""
    speed = SpeedProbe()
    speed.sample()
    # alternate untraced and traced repetitions so drift hits both alike
    runs, kernel = repeat(wl, seed, seconds, (False, True) if trace else (False,), speed)
    scale = REFERENCE_KERNEL_S / statistics.median(kernel)
    raw, spans = {}, []
    if trace:
        metrics, spans = per_layer(wl, seed, runs, scale)
    else:
        metrics, raw = end_to_end(wl, runs, scale)
    results = [res for _, res in runs]
    checks, same = consistency(results)
    detail = {
        "workload": wl.name,
        "repetitions": len(runs),
        "trials": wl.trials,
        "baseline_trials": wl.baseline_trials,
        "delta": results[0]["delta"],
        "n": results[0]["n"],
        "paper_digest": results[0]["paper_digest"],
        "baseline_digest": results[0]["baseline_digest"],
        "repetitions_agree": same,
        "stages": [rec.stages for rec, _ in runs],
        "kernel_s": kernel,
        "scale": scale,
        "raw": raw,
    }
    line = {
        "correct": checks.failed == 0 and same,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }
    return line, detail, spans
