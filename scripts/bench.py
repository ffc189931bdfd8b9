#!/usr/bin/env python3
"""Time every layer of seqdisc, from one closed form to the figure set, and write a JSON record.

Every run times every op of ``make_ops`` on the inputs below.  Each op is
called once as a warm-up; then every round runs every op, so a slow spell of
the machine touches all of them alike.  Times are per call, to 4 significant
digits, so a closed form of a few microseconds keeps its precision.  Minor
page faults are counted beside them, so memory that an op gives back to the
system and faults in again shows.

An op that needs a name the parent lacks, such as ``cloning_bounds``
(``bounds._cloning_bounds``, the cloning rows' exact enclosure), is timed
on the tree that has it alone.

With ``--parent DIR``, ``DIR/src/seqdisc`` must write the same CSVs and give
the same results of every point call on every point scenario, oracle
results, ``certify()`` rows, rows of each quantity certified alone on the
certify draws, correlation reports and Monte Carlo counts, and print the
same CLI transcripts (exit code, stdout and stderr of ``cli.main`` on each
of CLI_ARGVS), bit for bit. An
output that the change moves on purpose is named with ``--moved NAME``
(repeatable; ``certify().joint`` is the joint row,
``joint_optimal(0.36, 0.2)`` one point call's result,
``cli(optimal --s 0.36 --p1 0.2)`` one transcript): it may differ, and
its value on each tree goes into the record under ``moved``. The parent is
then timed beside this tree, the two in alternating order from round to
round; each round's change/parent ratio cancels a slow spell where raw
times do not.  The op that runs second in a round can read
faster or slower than the first (on one unchanged op, 1.10-1.29 in one order
and 0.76-0.96 in the other), so the 16 rounds give each order 8, and an op's
reported median ratio is the mean of the two orders' median ratios; both are
recorded beside it.  The trees
share one heap, so one tree's allocations can spare the other its faults:
they are recorded only without a parent; compare them between runs of each
tree alone (``PYTHONPATH=DIR/src``).

seqdisc is imported from ``src/`` of the checkout this script sits in; a
``seqdisc`` from anywhere else (one imported before, say) exits with status 2.

``--quick`` is a smoke run of 2 rounds, one in each order: it shows that
every op runs on both trees, and its record says so (``smoke_run``,
``rounds``), but its ratios are not evidence; two bit-identical trees have
read 1.07 and 1.23 on ``figure_set``.

    python scripts/bench.py --out bench.json
    python scripts/bench.py --quick --out bench.json   # a smoke run
    python scripts/bench.py --parent ../parent --out bench.json
    python scripts/bench.py --parent ../parent --moved 'certify().joint' --moved 'certify_draws().joint' --out bench.json
    python scripts/bench.py --parent ../parent --moved 'certify().protocol3' --moved 'certify().at_least_one_p3' \
        --moved 'certify_draws().protocol3' --moved 'certify_draws().at_least_one_p3' --out bench.json
    python scripts/bench.py --quick --parent . --out bench.json   # the tree against itself, as CI runs it
"""

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import os
import platform
import re
import resource
import statistics
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np

#: src/ of the checkout this script sits in: its seqdisc is the one timed,
#: not an installed copy (lower case, so the record does not take it for an
#: input)
_src = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(_src))
import seqdisc  # noqa: E402

#: Scenarios (s, p1) of each oracle op: small, middle and large overlaps.
ORACLE_SCENARIOS = ((0.04, 0.5), (0.36, 0.2), (0.6, 0.05))
#: The scenario of the single-quantity certify ops.
CERTIFY_SCENARIO = (0.36, 0.2)
#: Seed and count of the certify_draws op's (s, p1) draws, uniform in the
#: certify workload's ranges: s in [0.002, 0.98], p1 in [0.02, 0.5].
CERTIFY_DRAWS_SEED = 8
CERTIFY_DRAWS = 24
#: (s, p1) of the point queries: generic points, equal priors, a small prior,
#: s near 1 and the small overlaps 1e-6 and 1e-10.
POINT_SCENARIOS = ((0.36, 0.2), (0.04, 0.5), (0.6, 0.05), (0.9, 0.4), (1e-6, 0.3), (1e-10, 0.1))
#: Passes over POINT_SCENARIOS (ORACLE_SCENARIOS for correlation_report) in one point op.
POINT_LOOPS = 20
#: The library functions timed one scenario per call: the six closed forms
#: that ``optimal`` prints, and the two solvers under them, q* and the cloner.
POINT_CALLS = (
    "joint_optimal", "protocol1_optimal", "protocol2_optimal", "protocol3_optimal",
    "at_least_one_ssd", "at_least_one_protocol3", "solve_q_star", "clone_optimal_for_prior",
)
#: The optimal op's argvs, one per point scenario.
OPTIMAL_ARGVS = tuple(("optimal", "--s", repr(s), "--p1", repr(p1)) for s, p1 in POINT_SCENARIOS)
#: The argvs of the CLI transcripts: the optimal op's, one of every other
#: subcommand but sweep (whose CSVs are compared as figures), and usage
#: errors of the top-level parser and of a subcommand's.
CLI_ARGVS = (
    *OPTIMAL_ARGVS,
    ("correlations", "--s", "0.36", "--p1", "0.3", "--t", "0.6"),
    ("simulate", "--s", "0.04", "--p1", "0.5", "--n", "1000", "--seed", "42"),
    ("verify", "--quantity", "protocol1"),
    (),
    ("-h",),
    ("bogus",),
    ("optimal", "-h"),
    ("--", "optimal", "--s", "0.3", "--p1", "0.2"),
    ("optimal", "--s", "0.3", "--p1", "0.2", "extra"),
    ("optimal", "--s", "abc", "--p1", "0.2"),
    ("optimal", "--s", "-1e-6", "--p1", "0.2"),
)
#: Trials of each Monte Carlo case.
N_TRIALS = 10**6
#: (s, p1, t, q1b, q1c, seed): a generic point, a small overlap and a strategy
#: whose Bob declarations have probability 0 (t = s).
CASES = (
    (0.36, 0.25, 0.6, 0.7, 0.5, 1),
    (0.04, 0.5, 0.2, 0.2, 0.2, 2),
    (0.3, 0.2, 0.3, 1.0, 0.5, 3),
)
#: Seed of the trials every case's tally reads.
TALLY_SEED = 42
#: Runs of a sweep op in one timed call.
SWEEP_LOOPS = 5


def load_parent(checkout: str):
    """The package ``<checkout>/src/seqdisc``, imported as ``seqdisc_parent``."""
    init = Path(checkout) / "src" / "seqdisc" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        "seqdisc_parent", init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = package  # its relative imports resolve here
    spec.loader.exec_module(package)
    return package


def _each(fn, inputs, loops=1):
    """An op that calls fn on each of inputs, loops times over."""

    def op():
        for _ in range(loops):
            for x in inputs:
                fn(x)

    return op


def _ssd_columns() -> list:
    """The (s, p1) arrays of each ``ssd`` column of this tree's figure
    presets; a parent's ops take the same arrays."""
    columns = []
    for variable, grid, preset_columns in seqdisc.sweeps.FIGURE_PRESETS.values():
        for _, quantity, fixed in preset_columns:
            if quantity == "ssd":
                at = seqdisc.sweeps._grid_scenarios(variable, grid, fixed)
                columns.append((at["s"], at["p1"]))
    return columns


def _discord_entropy_lanes() -> list:
    """The arrays that this tree's discord kernels pass to ``entropy_H_values``
    over presets 6a-6c, recorded once; a parent's ops take the same arrays."""
    correlations = seqdisc.correlations
    entropy, recorded = correlations.entropy_H_values, []

    def record(x):
        recorded.append(x.copy())
        return entropy(x)

    with mock.patch.object(correlations, "entropy_H_values", record):
        for name in ("6a", "6b", "6c"):
            seqdisc.sweeps.run_figure(name)
    return recorded


def _certify_draws() -> list:
    """The CERTIFY_DRAWS seeded (s, p1) of the certify_draws op."""
    rng = np.random.default_rng(CERTIFY_DRAWS_SEED)
    return [tuple(x) for x in rng.uniform([0.002, 0.02], [0.98, 0.5], (CERTIFY_DRAWS, 2)).tolist()]


def _certify_each(oracle) -> dict:
    """{quantity: its ``certify`` rows}, each of the package's quantities
    certified alone on each of the certify draws, as the certify workload's
    ops run them."""
    draws = _certify_draws()
    return {q: [oracle.certify([q], [s], [p1])[0] for s, p1 in draws] for q in oracle._CERTIFIERS}


def _csv(sweeps, name: str) -> str:
    buf = io.StringIO()
    sweeps.write_csv(*sweeps.run_figure(name), buf)
    return buf.getvalue()


def _report_inputs(package) -> list:
    """The inputs of the correlation ops: each of ORACLE_SCENARIOS at t = sqrt(s)."""
    return [package.CorrelationInput(p1, s**0.5, s**0.5) for s, p1 in ORACLE_SCENARIOS]


def _run_case(package, case):
    """The ``TrialSummary`` of one of CASES."""
    s, p1, t, q1b, q1c, seed = case
    return package.run_ssd_trials(package.Scenario(s, p1), t, q1b, q1c, N_TRIALS, seed)


def _tally_inputs(package) -> tuple[list, np.ndarray]:
    """Each of CASES' trial thresholds, and the (N_TRIALS, 4) words of the
    trials seeded TALLY_SEED, all built before any tally runs."""
    sim = package.simulate
    thresholds = [sim._trial_thresholds(package.Scenario(*c[:2]), *c[2:5]) for c in CASES]
    return thresholds, np.concatenate(list(sim._trial_words(TALLY_SEED, 0, N_TRIALS)))


def _tally(package, words: np.ndarray, thresholds):
    """``run_ssd_trials`` at TALLY_SEED on words drawn and thresholds built
    beforehand: the tally and the summary alone, through names that a parent
    has too.  Each ``_trial_words(seed, start, stop)`` call gets the rows
    [start, stop) of ``words``, cut at the tree's own ``_CHUNK``, as views."""
    sim = package.simulate

    def trial_words(seed, start, stop):
        return (words[a : min(a + sim._CHUNK, stop)] for a in range(start, stop, sim._CHUNK))

    with mock.patch.object(sim, "_trial_words", trial_words):
        with mock.patch.object(sim, "_trial_thresholds", lambda *args: thresholds):
            return package.run_ssd_trials(package.Scenario(0.5, 0.3), 0.6, 0.7, 0.5, N_TRIALS, TALLY_SEED)


def make_ops(package) -> dict:
    """Every op on one tree's ``seqdisc`` package: {name: (callable, calls)}."""
    oracle, sweeps = package.oracle, package.sweeps
    cli = importlib.import_module(package.__name__ + ".cli")
    discord = package.correlations.left_discord_measurement_oracle
    scenarios = [package.Scenario(s, p1) for s, p1 in ORACLE_SCENARIOS]
    inputs = _report_inputs(package)
    grid = tuple([x] for x in CERTIFY_SCENARIO)
    ops = {
        "grid_maximize_joint": (_each(oracle.grid_maximize_joint, scenarios), 1),
        "grid_maximize_union_ssd": (_each(oracle.grid_maximize_union_ssd, scenarios), 1),
        "grid_maximize_cloning": (_each(oracle.grid_maximize_cloning, scenarios), 1),
        "grid_maximize_bob": (
            _each(lambda sc: oracle.grid_maximize_bob(sc, sc.s**0.5), scenarios), 1
        ),
        "left_discord_measurement_oracle": (_each(discord, inputs), 1),
        "certify": (oracle.certify, 1),
        "certify_protocol3": (lambda: oracle.certify(["protocol3"], *grid), 1),
        "certify_joint": (lambda: oracle.certify(["joint"], *grid), 1),
        "certify_draws": (lambda: _certify_each(oracle), CERTIFY_DRAWS * len(oracle._CERTIFIERS)),
    }
    if hasattr(package.bounds, "_cloning_bounds"):  # beside grid_maximize_cloning, at the closed forms' cloner
        enclosure_args = []
        for sc in scenarios:
            both, _, u = package.protocols._cloned_optimum(sc)
            enclosure_args.append((sc.p1, sc.s, u, both.argmax["q1b"]))
        ops["cloning_bounds"] = (_each(lambda args: package.bounds._cloning_bounds(*args), enclosure_args), 1)

    point_calls = POINT_LOOPS * len(POINT_SCENARIOS)
    argvs = [list(argv) for argv in OPTIMAL_ARGVS]

    def optimal():
        with contextlib.redirect_stdout(io.StringIO()):
            for _ in range(POINT_LOOPS):
                for argv in argvs:
                    if cli.main(argv) != 0:
                        raise RuntimeError(f"seqdisc {' '.join(argv)} failed")

    ops["optimal"] = (optimal, point_calls)
    points = [package.Scenario(s, p1) for s, p1 in POINT_SCENARIOS]
    for name in POINT_CALLS:
        ops[name] = (_each(getattr(package, name), points, POINT_LOOPS), point_calls)
    report_calls = POINT_LOOPS * len(inputs)
    ops["correlation_report"] = (_each(package.correlation_report, inputs, POINT_LOOPS), report_calls)

    thresholds, words = _tally_inputs(package)
    ops["run_ssd_trials"] = (_each(lambda case: _run_case(package, case), CASES), len(CASES))
    ops["tally"] = (_each(lambda m: _tally(package, words, m), thresholds), len(CASES))

    def figure(name):
        _csv(sweeps, name)

    def write(table):
        sweeps.write_csv(*table, io.StringIO())

    def kernel(column):
        package.ssd.joint_optimal_values(*column)

    names = list(sweeps.FIGURE_PRESETS)
    for name in names:
        ops[f"figure_{name}"] = (_each(figure, [name], SWEEP_LOOPS), SWEEP_LOOPS)
    ops["figure_set"] = (_each(figure, names, SWEEP_LOOPS), SWEEP_LOOPS)
    ops["joint_optimal_values"] = (_each(kernel, _ssd_columns(), SWEEP_LOOPS), SWEEP_LOOPS)
    entropy_lanes = _discord_entropy_lanes()
    ops["entropy_H_values"] = (_each(package.core.entropy_H_values, entropy_lanes, SWEEP_LOOPS), SWEEP_LOOPS)
    tables = [seqdisc.sweeps.run_figure(name) for name in names]
    ops["write_csv"] = (_each(write, tables, SWEEP_LOOPS), SWEEP_LOOPS)
    return ops


def _oracle_results(package) -> list:
    """(name, result) of every ``grid_maximize_*`` oracle on each of
    ORACLE_SCENARIOS, the stage oracles at t = sqrt(s), of each
    ``certify()`` row, named ``certify().<quantity>``, and of each
    quantity's rows on the certify draws, ``certify_draws().<quantity>``."""
    oracle = package.oracle
    results = []
    for s, p1 in ORACLE_SCENARIOS:
        sc = package.Scenario(s, p1)
        for name in ("joint", "union_ssd", "cloning", "protocol2", "bob", "charlie"):
            fn = getattr(oracle, f"grid_maximize_{name}")
            args = (sc, s**0.5) if name in ("bob", "charlie") else (sc,)
            results.append((f"grid_maximize_{name}{(s, p1)}", fn(*args)))
    results += [(f"certify().{row.quantity}", row) for row in oracle.certify()]
    return results + [(f"certify_draws().{q}", rows) for q, rows in _certify_each(oracle).items()]


def _point_results(package) -> list:
    """(name, result) of each of POINT_CALLS on each of POINT_SCENARIOS, named
    like ``joint_optimal(0.36, 0.2)``: the values ``optimal`` prints and the
    two solvers under them."""
    points = [(s, p1, package.Scenario(s, p1)) for s, p1 in POINT_SCENARIOS]
    return [(f"{name}{(s, p1)}", getattr(package, name)(sc)) for name in POINT_CALLS for s, p1, sc in points]


def _cli_results(package) -> list:
    """(name, transcript) of ``cli.main`` on each of CLI_ARGVS, named like
    ``cli(optimal --s 0.36 --p1 0.2)``: its exit code (argparse's SystemExit
    included), stdout and stderr, with the time ``verify`` prints masked."""
    cli = importlib.import_module(package.__name__ + ".cli")
    results = []
    for argv in CLI_ARGVS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
        printed = re.sub(r"(?m)^(certification finished in )\d+\.\d( ms)$", r"\1-\2", out.getvalue())
        results.append((f"cli({' '.join(argv)})", (code, printed, err.getvalue())))
    return results


def _sampled_results(package) -> list:
    """(name, result) of ``correlation_report`` on each of its op's inputs, and
    the counts and error count of each of CASES' runs and of each tally."""
    results = [(f"correlation_report({inp!r})", package.correlation_report(inp)) for inp in _report_inputs(package)]
    thresholds, words = _tally_inputs(package)
    for case, m in zip(CASES, thresholds):
        for name, summary in (("run_ssd_trials", _run_case(package, case)), ("tally", _tally(package, words, m))):
            results.append((f"{name}{case}", (summary.counts.tolist(), summary.error_count)))
    return results


def check_same_output(change, parent, moved=()) -> dict:
    """Raise unless both trees write the same CSVs and ``ssd`` columns, and
    give the same point results, CLI transcripts, oracle tuples,
    ``certify()`` rows, correlation reports and trial counts bit for bit: a float's repr is the
    shortest that reads back to the same bits. The outputs named in ``moved`` may differ, and a name
    that is no output is an error; return each one's repr on both trees,
    ``{name: {"change": ..., "parent": ...}}``."""
    for name in change.sweeps.FIGURE_PRESETS:
        if _csv(change.sweeps, name) != _csv(parent.sweeps, name):
            raise RuntimeError(f"figure {name}: the CSVs of the two trees differ")
    for s, p1 in _ssd_columns():
        a, b = change.ssd.joint_optimal_values(s, p1), parent.ssd.joint_optimal_values(s, p1)
        if not np.array_equal(a, b, equal_nan=True):
            raise RuntimeError("joint_optimal_values: the columns of the two trees differ")
    found = {}
    for results in (_point_results, _cli_results, _oracle_results, _sampled_results):
        for (name, a), (_, b) in zip(results(change), results(parent)):
            if name in moved:
                found[name] = {"change": repr(a), "parent": repr(b)}
            elif repr(a) != repr(b):
                raise RuntimeError(f"{name}: the two trees differ, {a!r} against {b!r}")
    unknown = sorted(set(moved) - found.keys())
    if unknown:
        raise RuntimeError(f"--moved names no output: {unknown}")
    return found


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def time_rounds(trees: dict, repeats: int) -> dict:
    """Milliseconds and minor page faults of each op's calls:
    ``{op: {tree: {"ms": [per round], "minor_faults": [per round]}}}``.

    ``trees`` maps "change" and, with a parent, "parent" to that tree's ops;
    an op runs on each tree that has it.
    """
    for ops in trees.values():
        for fn, _ in ops.values():
            fn()
    runs = {op: {tree: {"ms": [], "minor_faults": []} for tree in trees if op in trees[tree]} for op in trees["change"]}
    for r in range(repeats):
        for name, by_tree in runs.items():
            for tree in list(by_tree)[:: -1 if r % 2 else 1]:
                fn = trees[tree][name][0]
                faults = _minor_faults()
                start = time.perf_counter()
                fn()
                ms = 1e3 * (time.perf_counter() - start)
                by_tree[tree]["minor_faults"].append(_minor_faults() - faults)
                by_tree[tree]["ms"].append(ms)
    return runs


def _stats(run: dict, calls: int, faults: bool) -> dict:
    """Min and median ms per call to 4 significant digits, and the median faults."""
    ms = [x / calls for x in run["ms"]]
    stats = {"min_ms": float(f"{min(ms):.4g}"), "median_ms": float(f"{statistics.median(ms):.4g}")}
    if faults:
        stats["minor_faults_median"] = statistics.median(run["minor_faults"])
    return stats


def summarize(runs: dict, ops: dict) -> dict:
    """Each op's calls and its min and median ms per call; with a parent, also
    the parent's and the per-round change/parent time ratios, the median of
    the rounds that ran this tree first (even rounds) and of those that ran
    the parent first (odd rounds), and the mean of the two as the median;
    without one, the median minor page faults per op."""
    results = {}
    for name, by_tree in runs.items():
        calls = ops[name][1]
        alone = "parent" not in by_tree
        record = {"calls": calls, **_stats(by_tree["change"], calls, alone)}
        record["repeats"] = len(by_tree["change"]["ms"])
        if not alone:
            record["parent"] = _stats(by_tree["parent"], calls, faults=False)
            ratios = [c / p for c, p in zip(by_tree["change"]["ms"], by_tree["parent"]["ms"])]
            change_first = statistics.median(ratios[0::2])
            parent_first = statistics.median(ratios[1::2])
            record["change_over_parent"] = {
                "median": round(0.5 * (change_first + parent_first), 4),
                "median_change_first": round(change_first, 4),
                "median_parent_first": round(parent_first, 4),
                "per_round": [round(x, 4) for x in ratios],
            }
        results[name] = record
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="a smoke run: 2 rounds (one in each order) instead of 16, no evidence",
    )
    parser.add_argument("--out", required=True, help="path of the JSON record")
    parser.add_argument(
        "--parent", metavar="DIR", help="a checkout whose src/seqdisc is timed beside this one"
    )
    parser.add_argument(
        "--moved",
        action="append",
        default=[],
        metavar="NAME",
        help="an output the change moves on purpose, such as certify().joint (repeatable; needs --parent)",
    )
    args = parser.parse_args()
    if args.moved and not args.parent:
        parser.error("--moved needs --parent")
    if not Path(seqdisc.__file__).resolve().is_relative_to(_src.resolve()):
        print(f"error: imported seqdisc from {seqdisc.__file__}, not from {_src}", file=sys.stderr)
        return 2
    trees, moved = {"change": make_ops(seqdisc)}, {}
    if args.parent:
        parent = load_parent(args.parent)
        moved = check_same_output(seqdisc, parent, args.moved)
        trees["parent"] = make_ops(parent)
    rounds = 2 if args.quick else 16
    results = summarize(time_rounds(trees, rounds), trees["change"])
    record = {
        "smoke_run": args.quick,
        "rounds": rounds,
        # every upper-case constant of this module is an input of the ops
        **{name.lower(): value for name, value in globals().items() if name.isupper()},
        "ssd_column_lanes": sum(s.size for s, _ in _ssd_columns()),
        "discord_entropy_lanes": sum(x.size for x in _discord_entropy_lanes()),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "moved": moved,
        "results": results,
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    for name, r in results.items():
        line = f"{name}: min {r['min_ms']:.4g} ms, median {r['median_ms']:.4g} ms per call"
        line += f" ({r['calls']} per op)"
        if "minor_faults_median" in r:
            line += f", {r['minor_faults_median']:g} minor faults per op"
        if "parent" in r:
            p = r["parent"]
            line += (
                f"; parent min {p['min_ms']:.4g} ms, median {p['median_ms']:.4g} ms;"
                f" change/parent median {r['change_over_parent']['median']:.3f}"
            )
            if args.quick:
                line += f" (smoke run, {rounds} rounds: not evidence)"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
