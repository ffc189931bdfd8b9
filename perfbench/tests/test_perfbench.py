"""Tests of the benchmark's own code, kept out of the repository's tier-1 suite.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import seqdisc  # noqa: E402
import seqdisc.cli  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import Op, Outcome  # noqa: E402


def _cycles(name: str, seed: int, n: int = 3) -> list[list[Op]]:
    w = workloads.make_workload(name, seed)
    return [w.cycle() for _ in range(n)]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(name):
    assert _cycles(name, 7) == _cycles(name, 7)
    assert _cycles(name, 7) != _cycles(name, 8)


def test_stratified_draws_cover_every_stratum_once_per_block():
    draws = workloads._Draws(workloads.random.Random(3))
    strata = sorted(int(draws.unit("k") * workloads.STRATA) for _ in range(workloads.STRATA))
    assert strata == list(range(workloads.STRATA))


def _bindings() -> dict:
    return {
        (name, attr): value
        for name, mod in tracer.package_modules().items()
        for attr, value in vars(mod).items()
    }


def test_tracer_restores_every_binding_even_when_traced_code_raises():
    before = _bindings()
    tr = tracer.Tracer()
    with pytest.raises(ZeroDivisionError):
        with tr:
            wrapped = seqdisc.ssd.solve_q_star
            assert wrapped is not before["seqdisc.ssd", "solve_q_star"]
            assert seqdisc.solve_q_star is wrapped
            assert seqdisc.cli.solve_q_star is wrapped
            seqdisc.joint_optimal(seqdisc.Scenario(0.1, 0.3))
            1 / 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    # Under critical_prior_PC the solver is only counted, elsewhere it is spanned.
    under_pc = tr.calls["ssd.solve_q_star", "ssd.critical_prior_PC"]
    assert under_pc > 1
    assert tr.calls["ssd.solve_q_star", "ssd.joint_optimal"] == 1
    assert [s[2] for s in tr.spans].count("ssd.solve_q_star") == 1
    metrics = tr.metrics(passes=1)
    assert metrics["ssd.q_star_solves_per_critical_prior"] == (under_pc, "1")
    assert metrics["ssd.solve_q_star.calls"] == (under_pc + 1, "count")


def test_self_time_excludes_child_spans():
    tr = tracer.Tracer()
    with tr:
        seqdisc.joint_optimal(seqdisc.Scenario(0.1, 0.3), compute_boundary=False)
    (child,) = [s for s in tr.spans if s[2] == "ssd.solve_q_star"]
    (parent,) = [s for s in tr.spans if s[2] == "ssd.joint_optimal"]
    m = tr.metrics(passes=1)
    expected = (parent[4] - parent[3] - (child[4] - child[3])) / 1e6
    assert m["ssd.joint_optimal.self_ms"][0] == pytest.approx(expected)


def _problems(workload, op, outcome) -> list[workloads.Problem]:
    return workload.check(op, outcome)


def test_figures_check():
    w = workloads.make_workload("figures", 1)
    op = Op("all_presets", ("4", "6a"))
    good = w.run(op, seqdisc)
    assert _problems(w, op, good) == []
    ref = w.reference["4"]
    lines = ref.split("\n")
    cells = lines[5].split(",")
    cells[1] = repr(float(cells[1]) + 1e-7)
    planted = "\n".join(lines[:5] + [",".join(cells)] + lines[6:])
    assert _problems(w, op, Outcome(None, {**good.out, "4": planted}, None))
    cells[1] = ""
    emptied = "\n".join(lines[:5] + [",".join(cells)] + lines[6:])
    assert _problems(w, op, Outcome(None, {**good.out, "4": emptied}, None))
    assert _problems(w, op, Outcome(None, {**good.out, "6a": w.reference["6a"].replace("0.", "nan", 1)}, None))
    assert _problems(w, op, Outcome(None, {}, RuntimeError("boom")))


def _replace_value(text: str, row: str, value: str) -> str:
    out = []
    for line in text.splitlines():
        fields = line.split()
        if fields and fields[0] == row:
            line = line.replace(fields[1], value, 1)
        out.append(line)
    return "\n".join(out)


def test_queries_check_optimal():
    w = workloads.make_workload("queries", 1)
    op = Op("optimal.uniform_high", ("optimal", "--s", "0.3", "--p1", "0.2"), 0.3, 0.2)
    good = w.run(op, seqdisc)
    assert good.code == 0
    assert _problems(w, op, good) == []
    for row, value in (("ssd_joint", "1.5"), ("protocol2", "0.99"), ("at_least_one_ssd", "0.5")):
        planted = Outcome(0, _replace_value(good.out, row, value), None)
        assert _problems(w, op, planted), row
    assert _problems(w, op, Outcome(1, good.out, None))
    (problem,) = _problems(w, op, Outcome(None, "", seqdisc.NumericError("bisection stalled")))
    assert problem.cause is None
    (problem,) = _problems(w, op, Outcome(None, "", ZeroDivisionError("float division by zero")))
    assert problem.cause is None  # not raised inside clone_params_of_omega


def test_queries_check_attributes_seed_defects():
    w = workloads.make_workload("queries", 1)
    op = Op("optimal.decade-9", ("optimal", "--s", "1e-09", "--p1", "0.3"), 1e-9, 0.3)
    problems = _problems(w, op, w.run(op, seqdisc))
    assert {p.cause for p in problems} == {"protocol3_zero_division", "qstar_scan_small_s"}


def test_queries_check_attributes_the_prior_snap_only_near_one_half():
    w = workloads.make_workload("queries", 1)
    op = Op("optimal.uniform_high", ("optimal", "--s", "0.3340586294418574", "--p1", "0.4999847640608822"),
            0.3340586294418574, 0.4999847640608822)
    (problem,) = _problems(w, op, w.run(op, seqdisc))
    assert problem.cause == "protocol3_prior_snap"
    far = Op(op.kind, op.args, op.s, 0.3)
    (problem,) = _problems(w, far, Outcome(0, _replace_value(w.run(op, seqdisc).out, "at_least_one_p3", "0.5"), None))
    assert problem.cause is None


def test_queries_check_correlations_and_malformed():
    w = workloads.make_workload("queries", 1)
    op = Op("correlations", ("correlations", "--s", "0.3", "--p1", "0.2", "--t", "0.6"), 0.3, 0.2)
    good = w.run(op, seqdisc)
    assert _problems(w, op, good) == []
    assert _problems(w, op, Outcome(0, _replace_value(good.out, "d_symm", "2.0"), None))
    assert _problems(w, op, Outcome(2, good.out, None))
    assert _problems(w, op, Outcome(None, good.out, RuntimeError("boom")))

    bad = Op("malformed.s_above_1", ("optimal", "--s", "1.5", "--p1", "0.2"), 0.3, 0.2)
    assert _problems(w, bad, w.run(bad, seqdisc)) == []
    assert _problems(w, bad, Outcome(0, "", None))
    (problem,) = _problems(w, bad, Outcome(None, "", ValueError("boom")))
    assert problem.cause is None


def test_certify_check():
    w = workloads.make_workload("certify", 1)
    op = Op("protocol1", ("protocol1",), 0.3, 0.2)
    good = w.run(op, seqdisc)
    assert _problems(w, op, good) == []
    row = seqdisc.CertificationRow("protocol1", 1e-3, (0.3, 0.2), 1e-6)
    assert _problems(w, op, Outcome(None, [row], None))
    assert _problems(w, op, Outcome(None, [dataclasses.replace(row, worst_gap=float("nan"))], None))
    assert _problems(w, op, Outcome(None, [], None))
    assert _problems(w, op, Outcome(None, None, RuntimeError("boom")))


def test_certify_check_attributes_the_protocol2_oracle_defect():
    w = workloads.make_workload("certify", 1)
    op = Op("protocol2", ("protocol2",), 0.6270261493131573, 0.12589908239228245)
    (problem,) = _problems(w, op, w.run(op, seqdisc))
    assert problem.cause == "protocol2_oracle_boundary_tie"
    row = seqdisc.CertificationRow("protocol2", 0.1, (op.s, op.p1), 1e-6)
    (problem,) = _problems(w, op, Outcome(None, [row], None))
    assert problem.cause is None


def test_montecarlo_check():
    w = workloads.make_workload("montecarlo", 1)
    op = w.cycle()[0]
    assert _problems(w, op, w.run(op, seqdisc)) == []
    assert _problems(w, op, Outcome(4, "", None))
    assert _problems(w, op, Outcome(None, "", RuntimeError("boom")))


def _run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_printed_metrics_match_benchmark_json(name, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = spec["per_layer" if trace else "end_to_end"]
    proc = _run_bench(ROOT, name, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}


def test_attempted_and_failed_repeat_for_a_seed():
    runs = [json.loads(_run_bench(ROOT, "queries", 0).stdout.splitlines()[-1]) for _ in range(2)]
    counts = [(r["attempted"], r["failed"]) for r in runs]
    assert counts[0] == counts[1]
    assert counts[0][1] > 0  # the seed's known defects show on queries


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench(tmp_path, "figures", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
