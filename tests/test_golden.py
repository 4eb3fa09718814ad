"""Golden digests: byte-identity of partitions, diameters and reports.

`golden_digests.json` holds SHA-256 digests of `format_partition` for paper
and baseline partitions over a fixed (graph, delta, seed) matrix, the repr of
each graph's `weighted_diameter`, and digests of two harness reports with
their timestamp removed. pytest only compares; a change that alters outputs on
purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import pytest

import pathdecomp as pd

GOLDEN = Path(__file__).with_name("golden_digests.json")

GRAPHS = [("grid", 8, 8), ("grid", 16, 16), ("grid", 33, 33),
          ("ktree", 200, 1), ("ktree", 600, 2), ("ktree", 1024, 3)]
WEIGHTS = ("unit", "uniform")
DELTA_DIVS = (8, 4, 2)
SEEDS = (0, 7)
REPORTS = {
    "grid:8,8": dict(gen="grid:8,8", trials=40, seed=31, scheme="both"),
    "ktree:200,2": dict(gen="ktree:200,2", weights="uniform", trials=40, seed=5,
                        scheme="both"),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _graph(kind, a, b, weights):
    if kind == "grid":
        return pd.gen_grid(a, b, weights, 0)
    return pd.gen_ktree(a, b, weights, 0).graph


def graph_digests(kind, a, b, weights) -> dict:
    """Diameter repr and partition digests for one input graph."""
    g = _graph(kind, a, b, weights)
    w = pd.weighted_diameter(g)
    name = f"{kind}:{a},{b}:{weights}"
    out = {f"{name}/diameter": repr(w)}
    for div in DELTA_DIVS:
        delta = w / div
        seq = pd.choose_centers(g, delta)
        for seed in SEEDS:
            header = {"delta": repr(delta), "seed": seed}
            params = pd.DecompositionParams.for_graph(delta, seed, seq.p_eff, g.n)
            paper = pd.carve(g, seq, params)
            base = pd.baseline_decompose(g, delta, seed)
            key = f"{name}/W/{div}/seed{seed}"
            out[f"{key}/paper"] = _sha(pd.format_partition(paper, {**header, "p_eff": seq.p_eff}))
            out[f"{key}/baseline"] = _sha(pd.format_partition(base, header))
    return out


def report_digest(cfg_kwargs, dump_dir) -> dict:
    """Digest of a harness report without its timestamp and dump paths, and of
    each partition dump it wrote."""
    prefix = Path(dump_dir) / "part"
    report = pd.run_experiment(pd.ExperimentConfig(dump_partition=str(prefix), **cfg_kwargs))
    report.pop("timestamp")
    dumps = []
    for res in report["results"]:
        dumps.append(Path(res.pop("partition_dump")).read_text(encoding="utf-8"))
    text = json.dumps(report, indent=2, sort_keys=True)
    return {"report": _sha(text), "dumps": [_sha(d) for d in dumps]}


def compute_all(dump_dir) -> dict:
    partitions = {}
    for kind, a, b in GRAPHS:
        for weights in WEIGHTS:
            partitions.update(graph_digests(kind, a, b, weights))
    reports = {name: report_digest(kw, dump_dir) for name, kw in REPORTS.items()}
    return {"partitions": partitions, "reports": reports}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("kind,a,b", GRAPHS)
@pytest.mark.parametrize("weights", WEIGHTS)
def test_partition_digests(golden, kind, a, b, weights):
    got = graph_digests(kind, a, b, weights)
    want = {k: v for k, v in golden["partitions"].items()
            if k.startswith(f"{kind}:{a},{b}:{weights}/")}
    assert got == want


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_digests(golden, name, tmp_path):
    assert report_digest(REPORTS[name], tmp_path) == golden["reports"][name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        data = compute_all(tmp)
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(data['partitions'])} partition entries and "
          f"{len(data['reports'])} reports to {GOLDEN}")
