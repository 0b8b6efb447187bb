"""Run the solve benchmark on one workload and print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload nnsc --seed 0 --seconds 55 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0``
reports the end-to-end metrics of untraced solves; ``--trace 1`` reports
the per-layer metrics of a traced pass next to an untraced one. Earlier
lines carry context: the machine, reference objectives, failures with
their exceptions, and in traced runs every span.
"""

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# OpenBLAS reads its thread count once, when numpy loads it. Both sides of a
# comparison must use the same count. One thread: on a shared 2-core machine
# two threads made latlrr3 solves about 35% slower and their set-up spike
# from 3 ms to 14 ms, while the blocks are too small to gain from threads.
BLAS_THREADS = "1"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("nnsc", "latlrr3"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not (SRC / "mmadmm" / "__init__.py").is_file():
        print(f"mmadmm sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(SRC), str(HERE)]
    import harness  # after the thread settings: it loads numpy

    result = harness.run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
