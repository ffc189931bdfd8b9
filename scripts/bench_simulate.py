#!/usr/bin/env python3
"""Time the Monte Carlo sampler and its tally alone, and write a JSON record.

One ``run_ssd_trials`` operation is a run of 10^6 trials on each of a fixed
set of (scenario, strategy, seed) cases: Philox draws, the chunked tally and
the fold into a summary. One ``tally`` operation runs ``simulate._tally`` on
the same 10^6 trials' Philox words, drawn once beforehand, under each case's
integer thresholds and with one row index buffer for all chunks, as
``run_ssd_trials`` passes it (a tree whose ``_tally`` takes none makes its
own), so it times the tally without the draws. Both
operations are called once as a warm-up; then the repeats are interleaved
(run_ssd_trials, tally, run_ssd_trials, ...), so a slow spell of the machine
touches both alike. The record holds the minimum and median milliseconds per
10^6 trials of each, with the numpy version and CPU count.

With ``--parent DIR`` the ops of the checkout at DIR run in the same process,
each round beside this tree's (see ``bench_common``), and the record adds the
parent's times and each round's change/parent ratio.

    python scripts/bench_simulate.py --out bench.json
    python scripts/bench_simulate.py --quick --out bench.json   # a smoke run
    python scripts/bench_simulate.py --parent ../parent --out bench.json
"""

import inspect
import os
import platform
import sys

import numpy as np

import bench_common
import seqdisc

N_TRIALS = 10**6
#: (s, p1, t, q1b, q1c, seed): a generic point, a small overlap and a strategy
#: whose Bob declarations have probability 0 (t = s).
CASES = (
    (0.36, 0.25, 0.6, 0.7, 0.5, 1),
    (0.04, 0.5, 0.2, 0.2, 0.2, 2),
    (0.3, 0.2, 0.3, 1.0, 0.5, 3),
)
#: Seed of the trials every case's tally operation reads.
TALLY_SEED = 42


def _cumulative(package, s, p1, t, q1b, q1c):
    """Bob's (2, 3) and Charlie's (6, 3) cumulative rows, as run_ssd_trials builds them.

    Built here from ``_outcome_table`` alone, so the script can also time an
    older checkout against a newer one.
    """
    probs = package.simulate._outcome_table(package.Scenario(s, p1), t, q1b, q1c)
    probs_b = probs.sum(axis=2)
    probs_c = np.divide(
        probs, probs_b[..., None], out=np.zeros_like(probs), where=probs_b[..., None] > 0.0
    )
    return np.cumsum(probs_b, axis=1), np.cumsum(probs_c.reshape(6, 3), axis=1)


def make_ops(package) -> dict:
    """The two timed operations on one tree's ``seqdisc`` package."""
    sim = package.simulate
    tables = [(p1, *_cumulative(package, s, p1, t, q1b, q1c)) for s, p1, t, q1b, q1c, _ in CASES]
    chunks = list(sim._trial_words(TALLY_SEED, 0, N_TRIALS))
    tables = [[sim._word_thresholds(c) for c in table] for table in tables]

    def run_trials():
        for s, p1, t, q1b, q1c, seed in CASES:
            package.run_ssd_trials(package.Scenario(s, p1), t, q1b, q1c, N_TRIALS, seed)

    # the row index buffer that run_ssd_trials hands each chunk's tally, where
    # the tree's _tally takes one
    takes_row = "row" in inspect.signature(sim._tally).parameters
    row = (np.empty(sim._CHUNK, dtype=np.intp),) if takes_row else ()

    def tally():
        for table in tables:
            for trials in chunks:
                sim._tally(trials, *table, *row)

    return {"run_ssd_trials": run_trials, "tally": tally}


def main() -> int:
    args = bench_common.parse_args(__doc__)
    trees = {"change": make_ops(seqdisc)}
    if args.parent:
        trees["parent"] = make_ops(bench_common.load_parent(args.parent))
    times = bench_common.time_rounds(trees, 2 if args.quick else 15)
    record = {
        "n_trials_per_case": N_TRIALS,
        "cases_s_p1_t_q1b_q1c_seed": [list(case) for case in CASES],
        "tally_seed": TALLY_SEED,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "results": bench_common.summarize(times, divisor=len(CASES)),
    }
    bench_common.write_record(args.out, record)
    bench_common.print_results(record["results"], " per 10^6 trials")
    return 0


if __name__ == "__main__":
    sys.exit(main())
