"""Benchmark of colexgraph: build, open, query and space on seeded workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload wheeler-dna --seed 1 --seconds 10 --trace 0

Workloads: wheeler-dna, nfa-corpus (see workloads.py). Each run
is a closed loop with one client: a single process issues each build, open or
query when the previous one returns. ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` records spans around the calls into each module and
prints the per-layer metrics. Every query answer is checked against
``colexgraph.oracle`` outside the timed region. Times are reported at the
host's full speed: each is divided by the slowdown a calibration loop read
around it (see hostspeed.py). The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the exit code is
0 only when every answer was correct.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# numpy's BLAS runs this many threads in every run (set before numpy loads);
# one thread keeps the relation stage's matrix products steady on a shared host.
BLAS_THREADS = 1
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="wheeler-dna or nfa-corpus")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the query phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "colexgraph" / "__init__.py").is_file():
        print(f"error: colexgraph sources not found under {src}", file=sys.stderr)
        return 2
    for var in _BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))
    import harness  # imports numpy, so only after the BLAS variables are set

    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    return harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                       BLAS_THREADS)


if __name__ == "__main__":
    sys.exit(main())
