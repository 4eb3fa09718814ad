"""Command line entry point.

    decomp run --gen grid:16,16 --delta 4,8 --trials 1000 --seed 7 --out report.json

Exit status: 0 when every check passes, 1 on a check failure, 2 on bad usage
or unreadable inputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .generators import WEIGHT_MODES
from .harness import FINDERS, SCHEMES, ConfigError, ExperimentConfig, run_experiment
from .verifier import GAMMA_MAX


def _parse_floats(text: str, what: str) -> tuple[float, ...]:
    out = []
    for token in text.split(","):
        token = token.strip()
        num, slash, den = token.partition("/")
        try:
            out.append(float(num) / float(den) if slash else float(num))
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"cannot parse {what} value {token!r}")
    return tuple(out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decomp",
        description="Randomized padded decompositions of weighted graphs, with checks.",
    )
    # every option's dest is a config field, and the config holds every default
    defaults = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="decompose a graph and verify the guarantees")
    src = run.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph", dest="graph_file", metavar="FILE",
                     help="edge-list graph file (n m header, then u v w lines)")
    src.add_argument("--gen", metavar="SPEC", help="generator spec: grid:R,C or ktree:N,K")
    run.add_argument("--weights", choices=WEIGHT_MODES,
                     help="generator edge weights: all 1, or uniform in [1,2] "
                          "(default %(default)s)")
    run.add_argument("--gen-seed", type=int, help="generator seed (default %(default)s)")
    run.add_argument("--delta", dest="deltas", metavar="D[,D...]",
                     help="cluster scale(s); default W/8,W/4,W/2 for diameter W")
    run.add_argument("--gamma", dest="gammas", metavar="G[,G...]",
                     help=f"padding radii as fractions of delta, each in [0, {GAMMA_MAX}]; "
                          "accepts 1/400 style fractions "
                          f"(default {','.join(map(str, defaults['gammas']))})")
    run.add_argument("--trials", type=int, help="Monte-Carlo trials (default %(default)s)")
    run.add_argument("--seed", type=int, help="master seed (default %(default)s)")
    run.add_argument("--finder", choices=tuple(FINDERS),
                     help="separator finder; centroid requires a tree (default %(default)s)")
    run.add_argument("--scheme", choices=SCHEMES,
                     help="decomposition scheme(s) to run (default %(default)s)")
    run.add_argument("--out", metavar="PATH", help="write the JSON report here (default stdout)")
    run.add_argument("--dump-partition", metavar="PREFIX",
                     help="also dump each partition to PREFIX.delta-<d>.<scheme>.txt")
    run.set_defaults(**defaults)
    return parser


def main(argv=None) -> int:
    opts = vars(build_parser().parse_args(argv))
    del opts["command"]
    try:
        for field, what in (("deltas", "delta"), ("gammas", "gamma")):
            if isinstance(opts[field], str):
                opts[field] = _parse_floats(opts[field], what)
        cfg = ExperimentConfig(**opts)
        report = run_experiment(cfg)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"decomp: error: {exc}", file=sys.stderr)
        return 2
    if not cfg.out:
        import json

        print(json.dumps(report, indent=2, sort_keys=True))
    summary = "PASS" if report["pass"] else "FAIL"
    print(f"decomp: {summary} ({len(report['results'])} delta/scheme runs)", file=sys.stderr)
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
