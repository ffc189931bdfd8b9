#!/usr/bin/env python3
"""Time the figure presets and the joint column kernel, and write a JSON record.

One ``figure_<name>`` operation runs ``run_figure(name)`` and writes its CSV
into a discarded buffer with ``write_csv``, as ``seqdisc sweep --figure`` and
``make_figures.py`` do. One ``figure_set`` operation does that for all eight
presets. One ``joint_optimal_values`` operation calls the ``ssd`` column kernel
on each of the six ``ssd`` columns of the presets (1197 lanes). Each
operation runs LOOPS times over, and the record gives milliseconds per run:
the minimum and median over the repeats, with the numpy version and CPU
count. Every operation is called once as a warm-up; then the repeats are
interleaved (figure_2, figure_3a, ..., figure_2, ...), so a slow spell of the
machine touches all of them alike.

With ``--parent DIR`` the ops of the checkout at DIR run in the same process,
each round beside this tree's (see ``bench_common``), and the record adds the
parent's times and each round's change/parent ratio. Before timing, every
preset's CSV and every ``ssd`` column of the two trees must be equal.

    python scripts/bench_sweep.py --out bench.json
    python scripts/bench_sweep.py --quick --out bench.json   # a smoke run
    python scripts/bench_sweep.py --parent ../parent --out bench.json
"""

import io
import os
import platform
import sys

import numpy as np

import bench_common
import seqdisc

#: Runs of an operation in one timed call.
LOOPS = 5


def _ssd_columns(sweeps) -> list:
    """The (s, p1) arrays of each ``ssd`` column of the figure presets."""
    columns = []
    for variable, grid, preset_columns in sweeps.FIGURE_PRESETS.values():
        for _, quantity, fixed in preset_columns:
            if quantity == "ssd":
                at = {k: np.full(grid.shape, float(v)) for k, v in fixed.items()}
                at[sweeps._FIELD_OF_VARIABLE[variable]] = grid
                columns.append((at["s"], at["p1"]))
    return columns


def _csv(sweeps, name: str) -> str:
    buf = io.StringIO()
    sweeps.write_csv(*sweeps.run_figure(name), buf)
    return buf.getvalue()


def _looped(fn):
    def op():
        for _ in range(LOOPS):
            fn()

    return op


def make_ops(package) -> dict:
    """The timed operations on one tree's ``seqdisc`` package."""
    sweeps = package.sweeps
    names = list(sweeps.FIGURE_PRESETS)
    columns = _ssd_columns(sweeps)
    kernel = package.ssd.joint_optimal_values
    ops = {f"figure_{name}": _looped(lambda name=name: _csv(sweeps, name)) for name in names}
    ops["figure_set"] = _looped(lambda: [_csv(sweeps, name) for name in names])
    ops["joint_optimal_values"] = _looped(lambda: [kernel(s, p1) for s, p1 in columns])
    return ops


def _check_same_output(change, parent) -> None:
    """Raise unless both trees write the same CSVs and ``ssd`` columns."""
    for name in change.sweeps.FIGURE_PRESETS:
        if _csv(change.sweeps, name) != _csv(parent.sweeps, name):
            raise RuntimeError(f"figure {name}: the CSVs of the two trees differ")
    for s, p1 in _ssd_columns(change.sweeps):
        a, b = change.ssd.joint_optimal_values(s, p1), parent.ssd.joint_optimal_values(s, p1)
        if not np.array_equal(a, b, equal_nan=True):
            raise RuntimeError("joint_optimal_values: the columns of the two trees differ")


def main() -> int:
    args = bench_common.parse_args(__doc__)
    trees = {"change": make_ops(seqdisc)}
    if args.parent:
        parent = bench_common.load_parent(args.parent)
        _check_same_output(seqdisc, parent)
        trees["parent"] = make_ops(parent)
    times = bench_common.time_rounds(trees, 2 if args.quick else 15)
    record = {
        "ssd_column_lanes": sum(s.size for s, _ in _ssd_columns(seqdisc.sweeps)),
        "loops_per_op": LOOPS,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "results": bench_common.summarize(times, divisor=LOOPS),
    }
    bench_common.write_record(args.out, record)
    bench_common.print_results(record["results"], " per run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
