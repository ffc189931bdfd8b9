import dataclasses
import importlib.util
import math
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench.py"
_SPEC = importlib.util.spec_from_file_location("seqdisc_bench_script", _PATH)
bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench)


def _runs(change_ms, parent_ms):
    return {"op": {tree: {"ms": ms, "minor_faults": [0] * len(ms)}
                   for tree, ms in (("change", change_ms), ("parent", parent_ms))}}


def test_times_the_seqdisc_of_its_own_checkout():
    # not an installed copy, which would be timed in its place
    src = _PATH.parents[1] / "src"
    assert Path(bench.seqdisc.__file__).resolve().is_relative_to(src.resolve())
    assert bench._src == src


def test_median_ratio_is_the_mean_of_the_two_orders():
    # even rounds run this tree first, odd rounds the parent; a tree that
    # reads 20% slower whenever it runs first is no slower in the mean
    change = [1.2, 1.0, 1.2, 1.0, 1.2, 1.0, 1.2, 1.0]
    parent = [1.0, 1.2, 1.0, 1.2, 1.0, 1.2, 1.0, 1.2]
    ratios = bench.summarize(_runs(change, parent), {"op": (None, 1)})["op"]["change_over_parent"]
    assert ratios["median_change_first"] == 1.2
    assert ratios["median_parent_first"] == pytest.approx(1.0 / 1.2, abs=1e-4)
    assert ratios["median"] == round(0.5 * (1.2 + 1.0 / 1.2), 4)
    assert len(ratios["per_round"]) == 8



def test_an_op_the_parent_lacks_runs_on_this_tree_alone():
    # such as cloning_bounds against a parent without bounds._cloning_bounds
    calls = []
    trees = {
        "change": {"both": (lambda: calls.append("change"), 1), "new": (lambda: calls.append("new"), 1)},
        "parent": {"both": (lambda: calls.append("parent"), 1)},
    }
    runs = bench.time_rounds(trees, 2)
    assert {op: list(by_tree) for op, by_tree in runs.items()} == {"both": ["change", "parent"], "new": ["change"]}
    assert calls.count("new") == 3 and calls.count("parent") == 3  # a warm-up and two rounds
    results = bench.summarize(runs, trees["change"])
    assert "parent" in results["both"] and "parent" not in results["new"]


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_tally_op_counts_the_trials_of_its_seed(monkeypatch, cpus):
    # each span of the run gets its own rows of the words drawn beforehand,
    # not all of them: the op's counts are those of the trials it stands for
    simulate = bench.seqdisc.simulate
    monkeypatch.setattr(bench, "N_TRIALS", 3 * simulate._CHUNK + 7)
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: cpus)
    thresholds, words = bench._tally_inputs(bench.seqdisc)
    for case, m in zip(bench.CASES, thresholds):
        s, p1, t, q1b, q1c, _ = case
        expected = bench.seqdisc.run_ssd_trials(bench.seqdisc.Scenario(s, p1), t, q1b, q1c, bench.N_TRIALS, bench.TALLY_SEED)
        summary = bench._tally(bench.seqdisc, words, m)
        assert summary.counts.tolist() == expected.counts.tolist()
        assert summary.error_count == expected.error_count


@pytest.fixture(scope="module")
def parent():
    """This tree's package loaded a second time, as ``--parent`` loads one."""
    return bench.load_parent(str(_PATH.parents[1]))


def _shifted_summary(summary):
    """A trial summary with one more error declaration than ``summary``."""
    return type(summary)(summary.n_trials, summary.seed, summary.counts, summary.error_count + 1)


@pytest.mark.parametrize(
    "differs", [None, "point", "transcript", "report", "trials", "tally", "joint_tuple", "certify_draw"]
)
def test_parent_check_compares_reports_and_counts(monkeypatch, parent, differs):
    # the tally runs at TALLY_SEED, each of the CASES at its own seed
    monkeypatch.setattr(bench, "N_TRIALS", 1000)
    report, run = parent.correlation_report, parent.run_ssd_trials
    joint, last = parent.oracle.grid_maximize_joint, bench.ORACLE_SCENARIOS[-1]
    if differs == "point":
        # the protocol2 value at the last point scenario alone moved, which
        # the check compares before every oracle tuple
        protocol2, point = parent.protocol2_optimal, bench.POINT_SCENARIOS[-1]

        def protocol2_optimal(sc):
            found = protocol2(sc)
            moved = dataclasses.replace(found, value=math.nextafter(found.value, 1.0))
            return moved if (sc.s, sc.p1) == point else found

        monkeypatch.setattr(parent, "protocol2_optimal", protocol2_optimal)
    elif differs == "transcript":
        # the protocol2 value that optimal prints at the last point scenario
        # moved by 1e-9 relative: a printed digit, which no result compared
        # before the transcripts shows
        protocol2, point = parent.cli.protocol2_optimal, bench.POINT_SCENARIOS[-1]

        def protocol2_printed(sc):
            found = protocol2(sc)
            moved = dataclasses.replace(found, value=found.value * (1.0 + 1e-9))
            return moved if (sc.s, sc.p1) == point else found

        monkeypatch.setattr(parent.cli, "protocol2_optimal", protocol2_printed)
    elif differs == "certify_draw":
        # the bob row of the last certify draw alone moved
        certify, (s, p1) = parent.oracle.certify, bench._certify_draws()[-1]

        def certify_one_draw_moved(*args):
            rows = certify(*args)
            if args == (["bob"], [s], [p1]):
                return [dataclasses.replace(rows[0], worst_gap=math.nextafter(rows[0].worst_gap, 1.0))]
            return rows

        monkeypatch.setattr(parent.oracle, "certify", certify_one_draw_moved)
    elif differs == "joint_tuple":
        # a tuple that differs at the last of ORACLE_SCENARIOS alone, which
        # the check compares before certify()
        def grid_maximize_joint(sc):
            found = joint(sc)
            return (math.nextafter(found[0], 1.0), *found[1:]) if (sc.s, sc.p1) == last else found

        monkeypatch.setattr(parent.oracle, "grid_maximize_joint", grid_maximize_joint)
    elif differs == "report":
        monkeypatch.setattr(
            parent, "correlation_report",
            lambda inp: dataclasses.replace(report(inp), d_symm=math.nextafter(report(inp).d_symm, 1.0)),
        )
    elif differs is not None:
        def run_ssd_trials(sc, t, q1b, q1c, n, seed):
            summary = run(sc, t, q1b, q1c, n, seed)
            return _shifted_summary(summary) if (seed == bench.TALLY_SEED) == (differs == "tally") else summary

        monkeypatch.setattr(parent, "run_ssd_trials", run_ssd_trials)
    if differs is None:
        bench.check_same_output(bench.seqdisc, parent)
    elif differs == "transcript":
        # named by its argv, which --moved takes
        name = "cli(optimal --s 1e-10 --p1 0.1)"
        with pytest.raises(RuntimeError, match=r"^cli\(optimal --s 1e-10 --p1 0\.1\): the two trees differ"):
            bench.check_same_output(bench.seqdisc, parent)
        assert list(bench.check_same_output(bench.seqdisc, parent, (name,))) == [name]
    else:
        name = {
            "point": "protocol2_optimal",
            "report": "correlation_report",
            "trials": "run_ssd_trials",
            "tally": "tally",
            "joint_tuple": "grid_maximize_joint",
            "certify_draw": "certify_draws",
        }[differs]
        with pytest.raises(RuntimeError, match=f"^{name}\\(.*the two trees differ"):
            bench.check_same_output(bench.seqdisc, parent)


def _joint_row_moved(certify):
    """``certify`` with the joint row's worst gap one ulp higher."""

    def moved(*args, **kwargs):
        return [
            dataclasses.replace(row, worst_gap=math.nextafter(row.worst_gap, 1.0)) if row.quantity == "joint" else row
            for row in certify(*args, **kwargs)
        ]

    return moved


def test_parent_check_takes_a_named_moved_row_alone(monkeypatch, parent):
    # every joint row moved: the default grid's and the certify draws'
    monkeypatch.setattr(bench, "N_TRIALS", 1000)
    monkeypatch.setattr(parent.oracle, "certify", _joint_row_moved(parent.oracle.certify))
    # unnamed, or another row named, the moved row is refused
    for moved in ((), ("certify().bob",)):
        with pytest.raises(RuntimeError, match=r"^certify\(\)\.joint: the two trees differ"):
            bench.check_same_output(bench.seqdisc, parent, moved)
    with pytest.raises(RuntimeError, match=r"^certify_draws\(\)\.joint: the two trees differ"):
        bench.check_same_output(bench.seqdisc, parent, ("certify().joint",))
    found = bench.check_same_output(bench.seqdisc, parent, ("certify().joint", "certify_draws().joint"))
    assert list(found) == ["certify().joint", "certify_draws().joint"]
    change, parent_row = found["certify().joint"]["change"], found["certify().joint"]["parent"]
    assert change != parent_row and "quantity='joint'" in change and "quantity='joint'" in parent_row
    # a name that is no output would excuse nothing, and is refused
    with pytest.raises(RuntimeError, match=r"--moved names no output: \['certify\(\)\.jiont'\]"):
        bench.check_same_output(bench.seqdisc, parent, ("certify().joint", "certify_draws().joint", "certify().jiont"))
