"""Every demo script runs to the end and prints the lines its narrative
promises. Each runs in-process, as `python demos/<name>.py` would."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

EXPECTED = {
    "01_graphs_and_distances.py": ["corner to corner: d(0, 63) = 14.0",
                                   "file round-trip: n=64, m=112"],
    "02_truncated_exponential.py": ["icdf(0) = 2.0, icdf(1) = 3.2", "replay identical: True"],
    "03_separators_and_centers.py": ["validator says: ok",
                                     "separator paths partition the vertices: True"],
    "04_decompose_and_verify.py": ["partition valid:  ok", "identical partitions: True"],
    "05_paper_vs_baseline.py": ["fitted padding exponents", "worst threatener count"],
}


def test_every_demo_is_listed():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    out = capsys.readouterr().out
    for line in EXPECTED[name]:
        assert line in out
