#!/usr/bin/env python3
"""Time the brute-force oracles and certify(), and write a JSON record.

Each timed operation is one call of ``grid_maximize_joint``,
``grid_maximize_union_ssd``, ``grid_maximize_cloning``, the stage oracle
``grid_maximize_bob`` at t = sqrt(s), or ``left_discord_measurement_oracle``
at t = r = sqrt(s), on each of a fixed set of scenarios; one default
``certify()`` over the 5x6 grid; or one ``certify(["protocol3"])`` at a
single scenario (a cloner solve, the cloning oracle and a stage oracle).
Every operation is called once as a warm-up; then the repeats are
interleaved (joint, union, cloning, ...), so a slow spell of the machine
touches them all alike. The record holds the minimum and median
milliseconds of each (and, without a parent, its minor page faults), with
the numpy version and CPU count.

With ``--parent DIR`` the ops of the checkout at DIR run in the same process,
each round beside this tree's (see ``bench_common``), and the record adds the
parent's times and each round's change/parent ratio.

    python scripts/bench_oracle.py --out bench.json
    python scripts/bench_oracle.py --quick --out bench.json   # a smoke run
    python scripts/bench_oracle.py --parent ../parent --out bench.json
"""

import os
import platform
import sys

import numpy as np

import bench_common
import seqdisc

#: Scenarios of each oracle operation: small, middle and large overlaps.
SCENARIOS = ((0.04, 0.5), (0.36, 0.2), (0.6, 0.05))
#: The scenario of the single-quantity certify operation.
CLONING_SCENARIO = (0.36, 0.2)


def make_ops(package) -> dict:
    """The timed operations on one tree's ``seqdisc`` package."""
    scenarios = [package.Scenario(s, p1) for s, p1 in SCENARIOS]
    discord_inputs = [package.CorrelationInput(p1, s**0.5, s**0.5) for s, p1 in SCENARIOS]
    oracle = package.oracle
    discord_oracle = package.correlations.left_discord_measurement_oracle
    s, p1 = CLONING_SCENARIO
    return {
        "grid_maximize_joint": lambda: [oracle.grid_maximize_joint(sc) for sc in scenarios],
        "grid_maximize_union_ssd": lambda: [oracle.grid_maximize_union_ssd(sc) for sc in scenarios],
        "grid_maximize_cloning": lambda: [oracle.grid_maximize_cloning(sc) for sc in scenarios],
        "grid_maximize_bob": lambda: [oracle.grid_maximize_bob(sc, sc.s**0.5) for sc in scenarios],
        "left_discord_measurement_oracle": lambda: [discord_oracle(inp) for inp in discord_inputs],
        "certify": oracle.certify,
        "certify_protocol3": lambda: oracle.certify(["protocol3"], (s,), (p1,)),
    }


def main() -> int:
    args = bench_common.parse_args(__doc__)
    trees = {"change": make_ops(seqdisc)}
    if args.parent:
        trees["parent"] = make_ops(bench_common.load_parent(args.parent))
    times = bench_common.time_rounds(trees, 2 if args.quick else 15)
    record = {
        "scenarios_per_oracle_op": [list(sc) for sc in SCENARIOS],
        "certify_protocol3_scenario": list(CLONING_SCENARIO),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "results": bench_common.summarize(times),
    }
    bench_common.write_record(args.out, record)
    bench_common.print_results(record["results"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
