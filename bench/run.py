"""Benchmark of the spinscatter CLI.

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from anywhere; the code under test is the `src/` next to this
directory.  Prints a readable report, then one JSON line:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones.
Exits 2 without a result when the sources are missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from spinbench import harness
from spinbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="summed op latency to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, report = harness.run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), ROOT)
    except harness.MissingLibrary as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for key, value in report.items():
        if key not in ("metrics", "ungated"):
            print(f"{key}: {json.dumps(value)}")
    for name, m in report["metrics"].items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    for name, m in report.get("ungated", {}).items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}  (no bound)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
