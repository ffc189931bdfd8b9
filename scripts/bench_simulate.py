#!/usr/bin/env python3
"""Time the Monte Carlo sampler and its tally alone, and write a JSON record.

One ``run_ssd_trials`` operation is a run of 10^6 trials on each of a fixed
set of (scenario, strategy, seed) cases: Philox draws, the chunked tally and
the fold into a summary. One ``tally`` operation runs ``simulate._tally`` on
the same 10^6 trials' uniforms, drawn once beforehand, under each case's
cumulative outcome rows, so it times the tally without the draws. Both
operations are called once as a warm-up; then the repeats are interleaved
(run_ssd_trials, tally, run_ssd_trials, ...), so a slow spell of the machine
touches both alike. The record holds the minimum and median milliseconds per
10^6 trials of each, with the numpy version and CPU count.

    python scripts/bench_simulate.py --out bench.json
    python scripts/bench_simulate.py --quick --out bench.json   # a smoke run
"""

import argparse
import json
import os
import platform
import statistics
import sys
import time

import numpy as np

from seqdisc import Scenario, run_ssd_trials, simulate, trial_uniforms

N_TRIALS = 10**6
#: (s, p1, t, q1b, q1c, seed): a generic point, a small overlap and a strategy
#: whose Bob declarations have probability 0 (t = s).
CASES = (
    (0.36, 0.25, 0.6, 0.7, 0.5, 1),
    (0.04, 0.5, 0.2, 0.2, 0.2, 2),
    (0.3, 0.2, 0.3, 1.0, 0.5, 3),
)
#: Seed of the uniforms every case's tally operation reads.
TALLY_SEED = 42


def _cumulative(s, p1, t, q1b, q1c):
    """Bob's (2, 3) and Charlie's (6, 3) cumulative rows, as run_ssd_trials builds them.

    Built here from ``_outcome_table`` alone, so the script can also time an
    older checkout against a newer one.
    """
    probs = simulate._outcome_table(Scenario(s, p1), t, q1b, q1c)
    probs_b = probs.sum(axis=2)
    probs_c = np.divide(
        probs, probs_b[..., None], out=np.zeros_like(probs), where=probs_b[..., None] > 0.0
    )
    return np.cumsum(probs_b, axis=1), np.cumsum(probs_c.reshape(6, 3), axis=1)


def measure(repeats: int) -> dict:
    """Warm up each operation, then time ``repeats`` interleaved rounds."""
    chunk = simulate._CHUNK
    uniforms = [
        trial_uniforms(TALLY_SEED, a, min(a + chunk, N_TRIALS)) for a in range(0, N_TRIALS, chunk)
    ]
    tables = [(p1, *_cumulative(s, p1, t, q1b, q1c)) for s, p1, t, q1b, q1c, _ in CASES]

    def run_trials():
        for s, p1, t, q1b, q1c, seed in CASES:
            run_ssd_trials(Scenario(s, p1), t, q1b, q1c, N_TRIALS, seed)

    def tally():
        for p1, cum_b, cum_c in tables:
            for u in uniforms:
                simulate._tally(u, p1, cum_b, cum_c)

    ops = {"run_ssd_trials": run_trials, "tally": tally}
    for op in ops.values():
        op()
    times = {name: [] for name in ops}
    for _ in range(repeats):
        for name, op in ops.items():
            start = time.perf_counter()
            op()
            times[name].append(1e3 * (time.perf_counter() - start) / len(CASES))
    return {
        name: {
            "min_ms": round(min(ms), 3),
            "median_ms": round(statistics.median(ms), 3),
            "repeats": repeats,
        }
        for name, ms in times.items()
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="2 repeats instead of 15")
    parser.add_argument("--out", required=True, help="path of the JSON record")
    args = parser.parse_args()
    record = {
        "n_trials_per_case": N_TRIALS,
        "cases_s_p1_t_q1b_q1c_seed": [list(case) for case in CASES],
        "tally_seed": TALLY_SEED,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "results": measure(2 if args.quick else 15),
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    for name, r in record["results"].items():
        print(f"{name}: min {r['min_ms']:.2f} ms, median {r['median_ms']:.2f} ms per 10^6 trials")
    return 0


if __name__ == "__main__":
    sys.exit(main())
