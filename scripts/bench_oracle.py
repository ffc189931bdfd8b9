#!/usr/bin/env python3
"""Time the joint and union oracles and a default certify(), and write a JSON record.

Each timed operation is one call of ``grid_maximize_joint`` or
``grid_maximize_union_ssd`` on each of a fixed set of scenarios, or one
default ``certify()`` over the 5x6 grid. Every operation is called once as a
warm-up; then the repeats are interleaved (joint, union, certify, joint, ...),
so a slow spell of the machine touches all three alike. The record holds the
minimum and median milliseconds of each, with the numpy version and CPU count.

    python scripts/bench_oracle.py --out bench.json
    python scripts/bench_oracle.py --quick --out bench.json   # a smoke run
"""

import argparse
import json
import os
import platform
import statistics
import sys
import time

import numpy as np

from seqdisc import Scenario
from seqdisc.oracle import certify, grid_maximize_joint, grid_maximize_union_ssd

#: Scenarios of each oracle operation: small, middle and large overlaps.
SCENARIOS = ((0.04, 0.5), (0.36, 0.2), (0.6, 0.05))


def measure(repeats: int) -> dict:
    """Warm up each operation, then time ``repeats`` interleaved rounds."""
    scenarios = [Scenario(s, p1) for s, p1 in SCENARIOS]
    ops = {
        "grid_maximize_joint": lambda: [grid_maximize_joint(sc) for sc in scenarios],
        "grid_maximize_union_ssd": lambda: [grid_maximize_union_ssd(sc) for sc in scenarios],
        "certify": certify,
    }
    for op in ops.values():
        op()
    times = {name: [] for name in ops}
    for _ in range(repeats):
        for name, op in ops.items():
            start = time.perf_counter()
            op()
            times[name].append(1e3 * (time.perf_counter() - start))
    return {
        name: {"min_ms": min(ms), "median_ms": statistics.median(ms), "repeats": repeats}
        for name, ms in times.items()
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="2 repeats instead of 15")
    parser.add_argument("--out", required=True, help="path of the JSON record")
    args = parser.parse_args()
    record = {
        "scenarios_per_oracle_op": [list(sc) for sc in SCENARIOS],
        "numpy": np.__version__,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "results": measure(2 if args.quick else 15),
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    for name, r in record["results"].items():
        print(f"{name}: min {r['min_ms']:.2f} ms, median {r['median_ms']:.2f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
