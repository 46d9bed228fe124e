#!/usr/bin/env python3
"""structag benchmark: run one workload end to end, or traced by layer.

    python3 bench/run.py --workload train-joint-rnn-gru --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the package is imported from
`src/structag` next to this directory, and scratch files go to
`.bench_work/`. With `--trace 0` the last stdout line is a JSON object
holding every end-to-end metric; with `--trace 1` it holds the per-layer
metrics. Exit codes: 0 when every output check passes, 1 when one
fails, 2 when the checkout has no `src/structag` or the arguments are
bad. See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# One BLAS thread: the matrices are at most 100 x 700, so extra threads
# only add scheduling noise on a small shared machine.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="length of the timed phase (BENCHMARK.json "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "structag" / "__init__.py").is_file():
        print(f"error: no src/structag under {ROOT}; run from a structag "
              "checkout", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS      # before numpy is imported
    sys.path.insert(0, str(ROOT / "src"))

    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    info = harness.provenance(ROOT, w, args.seed, args.seconds,
                              bool(args.trace), BLAS_THREADS)
    print("provenance " + json.dumps(info, sort_keys=True), flush=True)
    outcome = harness.run_workload(w, args.seed, args.seconds, bool(args.trace),
                                   ROOT / ".bench_work", info["src_sha256"])
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name:28s} {value:16.6f} {unit}")
    print(f"{'ops_attempted':28s} {outcome.attempted:16d} count")
    print(f"{'ops_failed':28s} {outcome.failed:16d} count")
    for key, value in outcome.notes.items():
        print(f"{key} " + json.dumps(value, sort_keys=True))
    for desc, ok, detail in outcome.checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {desc}" + (f" ({detail})" if detail else ""))
    print(outcome.result_line(), flush=True)
    return 0 if outcome.correct and not outcome.failed else 1


if __name__ == "__main__":
    sys.exit(main())
