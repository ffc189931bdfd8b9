#!/usr/bin/env python3
"""Time point queries: ``seqdisc optimal``, the six closed forms it prints and the cloner.

One ``optimal`` operation calls ``cli.main(["optimal", "--s", ..., "--p1", ...])``
on each of a fixed set of scenarios, with its report written to a discarded
buffer; argument parsing is part of it. One operation of a closed form
(``joint_optimal``, ``protocol1_optimal``, ``protocol2_optimal``,
``protocol3_optimal``, ``at_least_one_ssd``, ``at_least_one_protocol3``) or of
``clone_optimal_for_prior`` calls it on each scenario. Each operation runs its
scenarios LOOPS times over, and the record gives milliseconds per call (per
scenario): the minimum and median over the repeats, with the numpy version
and CPU count. Every operation is called once as a warm-up; then the repeats
are interleaved (optimal, joint_optimal, ..., optimal, ...), so a slow spell
of the machine touches all of them alike.

With ``--parent DIR`` the ops of the checkout at DIR run in the same process,
each round beside this tree's (see ``bench_common``), and the record adds the
parent's times and each round's change/parent ratio.

    python scripts/bench_point.py --out bench.json
    python scripts/bench_point.py --quick --out bench.json   # a smoke run
    python scripts/bench_point.py --parent ../parent --out bench.json
"""

import contextlib
import importlib
import io
import os
import platform
import sys

import numpy as np

import bench_common
import seqdisc

#: (s, p1): generic points, equal priors, a small prior, s near 1 and the
#: small overlaps 1e-6 and 1e-10.
SCENARIOS = ((0.36, 0.2), (0.04, 0.5), (0.6, 0.05), (0.9, 0.4), (1e-6, 0.3), (1e-10, 0.1))
#: Passes over SCENARIOS in one timed operation.
LOOPS = 20
#: The library functions timed one scenario per call: the six closed forms and the cloner.
POINT_CALLS = (
    "joint_optimal",
    "protocol1_optimal",
    "protocol2_optimal",
    "protocol3_optimal",
    "at_least_one_ssd",
    "at_least_one_protocol3",
    "clone_optimal_for_prior",
)


def make_ops(package) -> dict:
    """The timed operations on one tree's ``seqdisc`` package."""
    cli = importlib.import_module(package.__name__ + ".cli")
    argvs = [["optimal", "--s", repr(s), "--p1", repr(p1)] for s, p1 in SCENARIOS]
    scenarios = [package.Scenario(s, p1) for s, p1 in SCENARIOS]

    def optimal():
        with contextlib.redirect_stdout(io.StringIO()):
            for _ in range(LOOPS):
                for argv in argvs:
                    if cli.main(argv) != 0:
                        raise RuntimeError(f"seqdisc {' '.join(argv)} failed")

    def per_scenario(fn):
        def op():
            for _ in range(LOOPS):
                for sc in scenarios:
                    fn(sc)

        return op

    ops = {"optimal": optimal}
    ops.update((name, per_scenario(getattr(package, name))) for name in POINT_CALLS)
    return ops


def main() -> int:
    args = bench_common.parse_args(__doc__)
    trees = {"change": make_ops(seqdisc)}
    if args.parent:
        trees["parent"] = make_ops(bench_common.load_parent(args.parent))
    times = bench_common.time_rounds(trees, 2 if args.quick else 15)
    record = {
        "scenarios": [list(sc) for sc in SCENARIOS],
        "loops_per_op": LOOPS,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "results": bench_common.summarize(times, divisor=LOOPS * len(SCENARIOS)),
    }
    bench_common.write_record(args.out, record)
    bench_common.print_results(record["results"], " per call")
    return 0


if __name__ == "__main__":
    sys.exit(main())
