"""Smoke self-test of the benchmark: every workload's pipeline on toy inputs.

    python3 perfbench/test_smoke.py        # or: python3 -m pytest perfbench

Each run is a fresh `run.py --tiny` process, as the real runs are. The test
checks that every metric BENCHMARK.json names is emitted with its unit, that
no check fails, and that the benchmark refuses to run without the library
sources beside it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def result_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(line: dict, spec_metrics: list) -> None:
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["attempted"] >= 1 and line["failed"] == 0
    assert set(line["metrics"]) == {m["name"] for m in spec_metrics}
    for m in spec_metrics:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], (int, float)), (m["name"], got)


def test_end_to_end_metrics():
    for workload in WORKLOADS:
        line = result_line(run(workload, 0))
        check_metrics(line, SPEC["end_to_end"])
        for m in SPEC["end_to_end"]:
            assert line["metrics"][m["name"]]["value"] > 0, (workload, m["name"])


def test_per_layer_metrics():
    for workload in WORKLOADS:
        line = result_line(run(workload, 1))
        check_metrics(line, SPEC["per_layer"])
        metrics = line["metrics"]
        assert metrics["verifier.check_fail_ratio"]["value"] == 0
        assert metrics["verifier.checks"]["value"] == line["attempted"]
        assert 0 <= metrics["verifier.nontrivial_ball_ratio"]["value"] <= 1


def test_refuses_without_library_sources():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(WORKLOADS[0], 0, cwd=bare)
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    for test in (test_end_to_end_metrics, test_per_layer_metrics,
                 test_refuses_without_library_sources):
        test()
        print(f"{test.__name__}: ok")
