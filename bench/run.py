"""Run the ddls benchmark.

    python3 bench/run.py --workload desk --seed 0 --seconds 52 --trace 0
    python3 bench/run.py --list-metrics

Run from a checkout's root.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}; ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json and ``--trace 1`` the
per-layer ones.  Results, with the environment and the sample count
behind every figure, go to .bench_out/<workload>-seed<n>-trace<t>.json,
and a traced run's spans to .bench_out/<workload>.spans.jsonl.

The ddls package is imported from src/ of the checkout and nowhere
else; without it the benchmark exits with status 2.  BLAS and OpenMP
pools are capped at one thread, so every run is single-threaded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="desk or crowd (BENCHMARK.json), or wide")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=52.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list-metrics", action="store_true",
                        help="print every metric with its unit and direction")
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up the workload, print 'ready' and exit (times setup_s)")
    args = parser.parse_args(argv)
    if not args.list_metrics and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "ddls" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} holds no src/ddls package or no BENCHMARK.json", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import ddls

    if Path(ddls.__file__).resolve().parent != (src / "ddls").resolve():
        print(f"error: imported ddls from {ddls.__file__}, not {src}", file=sys.stderr)
        return 2
    import harness

    if args.list_metrics:
        print(harness.list_metrics())
        return 0
    if args.workload not in harness.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}, expected one of "
              f"{sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        harness.setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
