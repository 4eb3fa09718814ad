"""Run one pathdecomp benchmark workload and print its metrics.

    python3 perfbench/run.py --workload grid-padding --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout: the library is imported from
`src/pathdecomp` beside this directory, never from an installed copy. The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: end-to-end metrics with `--trace 0`,
per-layer metrics with `--trace 1`. The line before it is a JSON detail
record (environment, partition digests, raw per-repetition stage times and
the speed-kernel times behind the reference-second scale). A traced
run also writes its spans to `perfbench/out/`.

Exit status: 0 after a measured run, 2 on bad usage or when the library
sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# BLAS/OpenMP threads are capped before numpy is first imported: the
# threatener matmul would otherwise use every core of a shared machine.
THREAD_CAP = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(THREAD_CAP)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure for at least this long (repetitions continue until then)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="toy input sizes, for the smoke self-test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds < 0:
        parser.error("--seconds must be non-negative")
    return args


def main(argv=None) -> int:
    if not (SRC / "pathdecomp" / "__init__.py").is_file():
        print(f"pathdecomp sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench

    if Path(bench.pd.__file__).resolve().parent != SRC / "pathdecomp":
        print(f"imported pathdecomp from {bench.pd.__file__}, not {SRC}", file=sys.stderr)
        return 2

    args = parse_args(argv, bench.WORKLOADS)
    wl = (bench.TINY if args.tiny else bench.WORKLOADS)[args.workload]
    bench.warm_up(args.workload)
    line, detail, spans = bench.benchmark(wl, args.seed, args.seconds, bool(args.trace))
    detail["environment"] = bench.environment(ROOT, args.seed, THREAD_CAP)
    if args.trace:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        path = out / f"spans-{wl.name}-seed{args.seed}{'-tiny' if args.tiny else ''}.json"
        path.write_text(json.dumps({"detail": detail, "spans": spans}) + "\n")
        detail["spans_file"] = str(path.relative_to(ROOT))
    print(json.dumps({"detail": detail}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
