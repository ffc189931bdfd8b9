import contextlib
import io
import math
import re
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqdisc import (
    Scenario,
    TrialSummary,
    at_least_one_protocol3,
    cli,
    oracle,
    protocol3_optimal,
    protocols,
)
from seqdisc.cli import main
from seqdisc.core import ConstraintError, DomainError, NumericError
from seqdisc.sweeps import FIGURE_PRESETS, available_quantities


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestOptimal:
    def test_report_contents(self, capsys):
        assert main(["optimal", "--s", "0.04", "--p1", "0.5"]) == 0
        out = capsys.readouterr().out
        for token in ("ssd_joint", "protocol1", "protocol2", "protocol3",
                      "at_least_one_ssd", "at_least_one_p3"):
            assert token in out
        assert "0.64" in out and "0.96" in out and "0.9216" in out
        assert "0.886153846154" in out

    def test_symmetry_broken_case_label(self, capsys):
        assert main(["optimal", "--s", "0.36", "--p1", "0.5"]) == 0
        out = capsys.readouterr().out
        ssd_line = [l for l in out.splitlines() if l.startswith("ssd_joint")][0]
        assert "CaseII" in ssd_line

    def test_orthogonal_states_all_one(self, capsys):
        assert main(["optimal", "--s", "0", "--p1", "0.5"]) == 0
        out = capsys.readouterr().out
        for line in out.splitlines():
            if line.startswith(("ssd_joint", "protocol", "at_least")):
                assert line.split()[1] == "1"

    def test_invalid_scenario_exits_2(self, capsys):
        assert main(["optimal", "--s", "0.04", "--p1", "0.7"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("p1", ["1e-15", "1e-17", "1e-20", "1e-300", "5e-324"])
    def test_tiny_prior(self, capsys, p1):
        assert main(["optimal", "--s", "0.5", "--p1", p1]) == 0
        assert "at_least_one_p3" in capsys.readouterr().out

    def test_tiny_overlap_takes_the_root_near_sqrt_s(self, capsys):
        # below s of about 8e-48 eigvals gives 0 for the three small roots;
        # q* = 1 would print 0.5 where (1 - sqrt(s))^2 rounds to 1
        assert main(["optimal", "--s", "1e-50", "--p1", "0.5"]) == 0
        rows = {line.split()[0]: line.split() for line in capsys.readouterr().out.splitlines()}
        assert rows["ssd_joint"][1:3] == ["1", "CaseI"]

    @pytest.mark.parametrize("p1", ["1e-300", "1e-310", "5e-324"])
    def test_orthogonal_states_subnormal_prior_take_case_i(self, capsys, p1):
        # p2/p1 overflows below about 1e-308; at s = 0 the stationary point
        # must still be q1b = 0, not sqrt(inf) * 0 = NaN
        assert main(["optimal", "--s", "0", "--p1", p1]) == 0
        rows = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()}
        assert "CaseI " in rows["protocol1"] and " q1b=0 " in rows["protocol1"]
        assert "CaseI " in rows["protocol2"]
        assert rows["protocol2"].endswith(" q1b=0 q2b=0 q1c=0 q2c=0")
        assert "CaseI " in rows["at_least_one_ssd"] and " q1_product=0 " in rows["at_least_one_ssd"]


def _cloning_scenarios():
    """Seeded (s, p1): s log-uniform from 1e-12 to 1 and p1 log-uniform from
    1e-300 to 1/2, then s = 0 and s = 1."""
    rng = np.random.default_rng(20)
    s = 10.0 ** rng.uniform(-12.0, 0.0, 40)
    p1 = 10.0 ** rng.uniform(-300.0, np.log10(0.5), 40)
    pairs = [(float(a), float(b)) for a, b in zip(s, p1)]
    return pairs + [(0.0, 0.3), (0.0, 0.5), (1.0, 1e-300), (1.0, 0.5)]


class TestSharedCloner:
    """``optimal`` prints both cloning rows from one solve of the cloner."""

    @pytest.mark.parametrize("s, p1", _cloning_scenarios())
    def test_rows_equal_the_standalone_optima(self, monkeypatch, capsys, s, p1):
        printed = {}
        monkeypatch.setattr(cli, "_print_result", lambda name, res: printed.setdefault(name, res))
        assert main(["optimal", "--s", repr(s), "--p1", repr(p1)]) == 0
        sc = Scenario(s, p1)
        for name, standalone in (
            ("protocol3", protocol3_optimal(sc)),
            ("at_least_one_p3", at_least_one_protocol3(sc)),
        ):
            row = printed[name]
            assert row.value == standalone.value and row.case_label == standalone.case_label
            assert list(row.argmax.items()) == list(standalone.argmax.items())
            assert row.boundary_prior is standalone.boundary_prior is None

    def test_one_cloner_solve_per_query(self, monkeypatch, capsys):
        calls = []
        solve = protocols._clone_for_prior

        def counted(sc):
            calls.append(sc)
            return solve(sc)

        monkeypatch.setattr(protocols, "_clone_for_prior", counted)
        assert main(["optimal", "--s", "0.36", "--p1", "0.2"]) == 0
        assert len(calls) == 1


class TestSweep:
    def test_figure2_header_and_shape(self, tmp_path):
        out = tmp_path / "fig2.csv"
        assert main(["sweep", "--figure", "2", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "P1,Pb_max_t0.06,Pb_max_t0.1"
        assert len(lines) == 201

    def test_byte_stable_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--figure", "6c", "--out", str(a)]) == 0
        assert main(["sweep", "--figure", "6c", "--out", str(b)]) == 0
        assert _read(a) == _read(b)

    def test_custom_sweep(self, tmp_path):
        out = tmp_path / "custom.csv"
        code = main(
            ["sweep", "--variable", "P1", "--start", "0.1", "--stop", "0.5", "--steps", "5",
             "--s", "0.04", "--quantities", "protocol1,ssd", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "P1,protocol1,ssd"
        assert len(lines) == 6
        assert lines[-1].startswith("0.5,0.96,0.64")

    def test_custom_t_sweep_leaves_cells_below_s_empty(self, capsys):
        code = main(
            ["sweep", "--variable", "t", "--start", "0.1", "--stop", "0.9", "--steps", "5",
             "--s", "0.4", "--p1", "0.2", "--quantities", "prop_left,ssd", "--out", "-"]
        )
        assert code == 0
        rows = [l.split(",") for l in capsys.readouterr().out.splitlines()[1:]]
        assert [r[1] == "" for r in rows] == [True, True, False, False, False]
        assert len({r[2] for r in rows}) == 1  # ssd does not read t

    def test_empty_cells_for_undefined_proportions(self, tmp_path):
        out = tmp_path / "fig6a.csv"
        assert main(["sweep", "--figure", "6a", "--out", str(out)]) == 0
        rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
        low_t = [r for r in rows if float(r[0]) < 0.5]
        assert all(r[2] == "" for r in low_t)  # s = 0.5 column infeasible there
        assert "nan" not in out.read_text().lower()

    def test_unwritable_path_exits_3(self, tmp_path, capsys):
        target = tmp_path / "missing_dir" / "out.csv"
        assert main(["sweep", "--figure", "2", "--out", str(target)]) == 3
        assert "I/O" in capsys.readouterr().err

    def test_stdout_output(self, capsys):
        assert main(["sweep", "--figure", "2", "--out", "-"]) == 0
        assert capsys.readouterr().out.startswith("P1,")

    def test_p1_sweep_without_s_exits_2(self, capsys):
        code = main(["sweep", "--variable", "P1", "--start", "0.1", "--stop", "0.5",
                     "--quantities", "ssd", "--out", "-"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")


class TestCorrelations:
    def test_report_fields(self, capsys):
        assert main(["correlations", "--s", "0.36", "--p1", "0.3", "--t", "0.6"]) == 0
        out = capsys.readouterr().out
        for token in ("tau_abe", "d_right", "d_left", "prop_left", "d_symm"):
            assert token in out

    def test_undefined_proportions_printed(self, capsys):
        assert main(["correlations", "--s", "0.36", "--p1", "0.3", "--t", "1.0"]) == 0
        assert "undefined" in capsys.readouterr().out

    def test_infeasible_t_exits_2(self, capsys):
        assert main(["correlations", "--s", "0.36", "--p1", "0.3", "--t", "0.2"]) == 2

    @pytest.mark.parametrize("t", ["0", "1.5"])
    def test_t_outside_unit_interval_exits_2(self, t, capsys):
        assert main(["correlations", "--s", "0", "--p1", "0.3", "--t", t]) == 2
        assert "outside [s, 1]" in capsys.readouterr().err

    def test_zero_t_error_states_the_rule(self, capsys):
        # t = 0 lies in [s, 1] = [0, 1]; the message names the rule it breaks
        assert main(["correlations", "--s", "0", "--p1", "0.3", "--t", "0"]) == 2
        assert "need 0 < t <= 1 and t >= s" in capsys.readouterr().err


class TestSimulate:
    def test_defaults_run_clean(self, capsys):
        code = main(["simulate", "--s", "0.04", "--p1", "0.5", "--n", "50000", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "error_count          0" in out

    def test_single_trial(self, capsys):
        assert main(["simulate", "--s", "0.04", "--p1", "0.5", "--n", "1"]) == 0

    def test_infeasible_q_exits_2(self, capsys):
        code = main(
            ["simulate", "--s", "0.04", "--p1", "0.5", "--t", "0.2", "--q1b", "0.01",
             "--n", "10"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv,message",
        [
            # q1 <= 0 where r > 0, and q1 outside [0, 1] where r^2 = 0: the
            # two raises of StrategyParams.from_q1 itself
            (["--s", "0.36", "--p1", "0.3", "--t", "0.6", "--q1b", "0"],
             "error: q1=0.0 below lower bound r^2=0.36"),
            (["--s", "0", "--p1", "0.3", "--t", "0.5", "--q1b", "1.5"],
             "error: q1=1.5 outside [0, 1]"),
        ],
    )
    def test_q1_rejected_by_from_q1_exits_2(self, capsys, argv, message):
        assert main(["simulate", *argv, "--n", "10"]) == 2
        assert capsys.readouterr().err.strip() == message

    def test_negative_seed_exits_2(self, capsys):
        assert main(["simulate", "--s", "0.04", "--p1", "0.5", "--n", "10", "--seed", "-1"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_identical_states_default_to_no_success(self, capsys):
        assert main(["simulate", "--s", "1", "--p1", "0.5", "--n", "1000"]) == 0
        out = capsys.readouterr().out
        assert "joint_success_rate   0\n" in out

    def test_case_ii_defaults_to_the_joint_optimum(self, capsys):
        assert main(["simulate", "--s", "0.5", "--p1", "0.3", "--n", "1000"]) == 0
        assert "q1b=1 q1c=1" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "s,p1,expected",
        [("0.04", "0.5", "t=0.5 q1b=0.08 q1c=0.5"), ("0", "0.3", "t=0.5 q1b=0 q1c=0.7637")],
    )
    def test_given_t_defaults_to_each_stage_optimum(self, capsys, s, p1, expected):
        # the joint optimum's q1b, q1c can be infeasible at another t
        assert main(["simulate", "--s", s, "--p1", p1, "--t", "0.5", "--n", "1000"]) == 0
        assert expected in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["--s", "1", "--p1", "0.5"],
            # the analytic rate is 9.2e-41: q1b = q1c = 0.04 sit at r^2, so p2's term is 0
            ["--s", "0.04", "--p1", "1e-40", "--t", "0.2", "--q1b", "0.04", "--q1c", "0.04"],
        ],
    )
    def test_certain_outcome_runs_clean(self, capsys, argv):
        assert main(["simulate", *argv, "--n", "1000"]) == 0

    def test_wrong_rate_fails_when_the_analytic_rate_is_certain(self, capsys, monkeypatch):
        # at s = 1 the analytic joint rate is exactly 0, so sigma is 0
        def one_joint_success(scenario, t, q1b, q1c, n, seed):
            counts = np.zeros((2, 2, 2), dtype=np.int64)
            counts[0, 1, 1], counts[1, 0, 0] = 1, n - 1
            return TrialSummary(n_trials=n, seed=seed, counts=counts, error_count=0)

        monkeypatch.setattr(cli, "run_ssd_trials", one_joint_success)
        assert main(["simulate", "--s", "1", "--p1", "0.5", "--n", "1000"]) == 4
        assert "FAIL" in capsys.readouterr().err

    def test_erroneous_declarations_fail(self, capsys, monkeypatch):
        # a declaration that contradicts the preparation fails the run, whatever the rate
        def one_error(scenario, t, q1b, q1c, n, seed):
            counts = np.zeros((2, 2, 2), dtype=np.int64)
            counts[1, 0, 0] = n
            return TrialSummary(n_trials=n, seed=seed, counts=counts, error_count=1)

        monkeypatch.setattr(cli, "run_ssd_trials", one_error)
        assert main(["simulate", "--s", "1", "--p1", "0.5", "--n", "1000"]) == 4
        assert "FAIL: erroneous declarations occurred" in capsys.readouterr().err

    def test_orthogonal_states_exit_2(self, capsys):
        # the joint optimum has t = 0, outside the simulator's t > 0
        assert main(["simulate", "--s", "0", "--p1", "0.5", "--n", "10"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_orthogonal_states_without_t_name_the_option(self, capsys):
        assert main(["simulate", "--s", "0", "--p1", "0.3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "explicit --t" in err
        # an explicit t makes the same scenario run
        assert main(["simulate", "--s", "0", "--p1", "0.3", "--t", "0.5", "--n", "1000"]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--s", "0.04", "--p1", "0.5", "--q1b", "nan", "--n", "10"],
        ["simulate", "--s", "0.04", "--p1", "0.5", "--q1c", "nan", "--n", "10"],
        ["simulate", "--s", "0.04", "--p1", "0.5", "--t", "nan", "--n", "10"],
        ["sweep", "--variable", "P1", "--start", "0.1", "--stop", "0.5", "--s", "0.04",
         "--t", "nan", "--quantities", "bob_max", "--out", "-"],
        ["verify", "--quantity", "protocol1", "--tolerance", "nan"],
        ["verify", "--quantity", "protocol1", "--tolerance", "0"],
        ["verify", "--quantity", "protocol1", "--tolerance", "inf"],
        ["verify", "--quantity", ""],
    ],
    ids=[
        "q1b", "q1c", "simulate_t", "sweep_t", "tolerance", "tolerance_zero", "tolerance_inf",
        "empty_quantity",
    ],
)
def test_nan_arguments_exit_2(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "s=nan" not in err


@pytest.mark.parametrize(
    "argv",
    [
        # the cloner's solve at a tiny prior: p1(u) underflows to 0 above u of
        # about 1e-67, far from its root, and the steps run out of reads
        ["optimal", "--s", "2.47e-229", "--p1", "1e-300"],
        # the cloner's working point: its denominators underflow to 0 near u = 0
        ["optimal", "--s", "1e-300", "--p1", "0.5"],
        ["optimal", "--s", "1e-250", "--p1", "0.5"],
        ["optimal", "--s", "1e-300", "--p1", "0.4999"],
        # the same in the cloner's column kernel, where it reads 0/0 = NaN
        ["sweep", "--variable", "s", "--start", "1e-300", "--stop", "2e-300", "--steps", "2",
         "--p1", "0.5", "--quantities", "protocol3", "--out", "-"],
    ],
    ids=[
        "q_star", "cloner_underflow", "cloner_underflow_1e-250", "cloner_underflow_0.4999",
        "cloner_kernel_underflow",
    ],
)
def test_numeric_failure_exits_6(argv, capsys):
    # s below the documented 1e-12: the solvers may fail, but not with a traceback
    assert main(argv) == cli.EXIT_NUMERIC == 6
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_cloner_solves_far_below_documented_overlap(capsys):
    # far below the documented s >= 1e-12 the cloner's root in u (3e-101 at
    # s = 1e-200, p1 = 0.3) lies hundreds of halvings of [0, 1] away; its
    # Newton steps start at the small-s root
    assert main(["optimal", "--s", "1e-200", "--p1", "0.3"]) == 0
    assert re.search(r"^protocol3 +\S+ +Case", capsys.readouterr().out, re.M)


def test_main_runs_repeatedly_in_one_process(capsys):
    # main builds its parser once; each call must still parse afresh
    assert main(["optimal", "--s", "0.04", "--p1", "0.5"]) == 0
    assert "0.886153846154" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["optimal", "--s", "0.04"])
    assert exc.value.code == 2
    assert "--p1" in capsys.readouterr().err
    assert main(["correlations", "--s", "0.36", "--p1", "0.3", "--t", "1.0"]) == 0
    assert "undefined" in capsys.readouterr().out
    assert main(["sweep", "--figure", "2", "--out", "-"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "P1,Pb_max_t0.06,Pb_max_t0.1" and len(lines) == 201
    assert main(["optimal", "--s", "0.36", "--p1", "0.5"]) == 0
    assert "CaseII" in capsys.readouterr().out


class TestVerify:
    def test_filtered_quantity_passes(self, capsys):
        assert main(["verify", "--quantity", "protocol1"]) == 0
        out = capsys.readouterr().out
        assert "protocol1" in out and "PASS" in out and "FAIL" not in out

    def test_unreachable_tolerance_fails(self, capsys):
        # protocol (2)'s scanned row reads 2.7e-9
        code = main(["verify", "--quantity", "protocol2", "--tolerance", "1e-12"])
        assert code == 5
        assert "FAIL" in capsys.readouterr().out

    def test_nan_gap_fails_and_exits_5(self, capsys, monkeypatch):
        monkeypatch.setitem(oracle._CERTIFIERS, "joint", lambda sc: [("joint", float("nan"))])
        assert main(["verify", "--quantity", "joint"]) == 5
        (row,) = [line for line in capsys.readouterr().out.splitlines() if line.startswith("joint ")]
        assert row.split()[1] == "nan" and row.endswith(" FAIL")

    def test_nan_union_argmax_fails_and_exits_5(self, capsys, monkeypatch):
        # Fraction(nan) raised a bare ValueError, and verify ended in a traceback
        real = oracle.at_least_one_ssd

        def nan_argmax(sc):
            result = real(sc)
            argmax = {**result.argmax, "q1_product": math.nan}
            return type(result)(result.value, result.case_label, argmax, result.boundary_prior)

        monkeypatch.setattr(oracle, "at_least_one_ssd", nan_argmax)
        assert main(["verify", "--quantity", "at_least_one_ssd"]) == 5
        out, err = capsys.readouterr()
        (row,) = [line for line in out.splitlines() if line.startswith("at_least_one_ssd ")]
        assert row.split()[1] == "inf" and row.endswith(" FAIL") and err == ""

    @pytest.mark.parametrize(
        "name,closed_form",
        [
            ("bob", "bob_optimal"),
            ("charlie", "charlie_optimal"),
            ("protocol1", "protocol1_optimal"),
            ("at_least_one_ssd", "at_least_one_ssd"),
            ("joint", "joint_optimal"),
        ],
    )
    def test_nan_value_of_an_exact_row_fails_and_exits_5(self, capsys, monkeypatch, name, closed_form):
        # Fraction(nan) raised a bare ValueError, and verify ended in a traceback
        real = getattr(oracle, closed_form)

        def nan_value(*args, **kwargs):
            return types.SimpleNamespace(value=math.nan, argmax=real(*args, **kwargs).argmax)

        monkeypatch.setattr(oracle, closed_form, nan_value)
        assert main(["verify", "--quantity", name]) == 5
        out, err = capsys.readouterr()
        (row,) = [line for line in out.splitlines() if line.startswith(f"{name} ")]
        assert row.split()[1] == "nan" and row.endswith(" FAIL") and err == ""

    def test_cloner_out_of_reads_exits_6(self, capsys, monkeypatch):
        # the cloner solve's convergence check raises NumericError, which
        # verify reports as a numeric failure, not as a failed row
        monkeypatch.setattr(protocols, "_CLONE_STEPS", 1)
        assert main(["verify", "--quantity", "protocol3"]) == cli.EXIT_NUMERIC == 6
        err = capsys.readouterr().err
        assert err.startswith("error:") and "did not converge" in err and "Traceback" not in err

    def test_prints_elapsed_time(self, capsys):
        assert main(["verify", "--quantity", "protocol1,bob"]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert re.fullmatch(r"certification finished in \d+\.\d ms", last)

    def test_repeated_quantity_exits_2(self, capsys):
        # a doubled row would pass a count of the PASS rows unseen
        assert main(["verify", "--quantity", "joint,joint"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and "more than once" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["verify", "--quantity", "protocol1", "--tolerance", "-1e-6"], "must be positive"),
        (["optimal", "--s", "-1e-3", "--p1", "0.3"], "outside [0, 1]"),
    ],
    ids=["tolerance", "overlap"],
)
def test_negative_exponent_values_reach_the_range_checks(argv, message, capsys):
    # argparse alone would read -1e-6 as an option and stop at "expected one argument"
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize(
    "extra,message",
    [
        ([], "needs either --figure"),
        (["--variable", "P1", "--stop", "0.5", "--s", "0.04", "--quantities", "ssd"],
         "need --start and --stop"),
        (["--variable", "P1", "--start", "0.5", "--stop", "0.1", "--s", "0.04",
          "--quantities", "ssd"], "empty sweep range"),
        (["--variable", "s", "--start", "0.5", "--stop", "inf", "--steps", "3", "--p1", "0.3",
          "--quantities", "ssd"], "not finite"),
        (["--variable", "P1", "--start", "0.1", "--stop", "0.5", "--s", "0.04",
          "--quantities", "nope"], "unknown quantities"),
        (["--figure", "4", "--variable", "s", "--steps", "5"], "--figure takes no --variable, --steps"),
        # a 7.1 PiB grid, beyond any address space: its allocation fails
        # before it touches memory
        (["--variable", "P1", "--start", "0.01", "--stop", "0.5", "--steps", str(10**15),
          "--s", "0.3", "--quantities", "ssd"], "too many grid points to allocate"),
        # beyond 2^53 points linspace's float64 count is not exact; beyond
        # 2^63 numpy would return an empty grid
        (["--variable", "P1", "--start", "0.01", "--stop", "0.5", "--steps", str(2**53 + 1),
          "--s", "0.3", "--quantities", "ssd"], "above the most a grid can count"),
        (["--variable", "P1", "--start", "0.01", "--stop", "0.5", "--steps", str(2**63),
          "--s", "0.3", "--quantities", "ssd"], "above the most a grid can count"),
        # --p1 fixes the swept field, which the grid would overwrite
        (["--variable", "P1", "--start", "0.1", "--stop", "0.5", "--steps", "3", "--s", "0.3",
          "--p1", "0.2", "--quantities", "ssd"], "cannot also fix p1"),
        # no quantity reads t: every row would print one value
        (["--variable", "t", "--start", "0.1", "--stop", "0.5", "--steps", "3", "--s", "0.3",
          "--p1", "0.2", "--quantities", "ssd"], "none of ['ssd'] reads t"),
        (["--variable", "P1", "--start", "0.1", "--stop", "0.5", "--steps", "3", "--s", "0.3",
          "--t", "0.9", "--quantities", "ssd"], "none of ['ssd'] reads t"),
    ],
    ids=[
        "no_sweep", "no_start", "empty_range", "infinite_stop", "unknown_quantity",
        "figure_and_variable", "steps_beyond_memory", "steps_beyond_exact_count", "steps_beyond_int64",
        "swept_field_fixed", "t_swept_unread", "t_fixed_unread",
    ],
)
def test_invalid_sweep_exits_2_and_writes_no_file(extra, message, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", *extra, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


#: Values of the float options: the edges of every range, nan, +-inf, the
#: smallest subnormal, 1e308 and a tiny normal; points inside the ranges
#: weigh three times, and the strings that argparse refuses (empty,
#: non-numeric) once, so that most argvs reach the library.
_FLOAT_POOL = [
    "nan", "-nan", "inf", "-inf", "5e-324", "1e308", "-1e308", "2.47e-229", "0", "-0", "1", "2",
    "-0.1", "-1e-6", "1e-12", "1e-50", "1.0000000000000002", "0.9999999999999999", "0.5000000000000001",
    *["0.04", "0.1", "0.2", "0.3", "0.36", "0.5", "0.6", "0.7071067811865476", "0.9"] * 3,
    "", "abc", "0x1p-3",
]
#: Trial counts, never above 1,000, so an example runs in milliseconds.
_N_POOL = ["1", "2", "999", "1000", "1000", "1000", "0", "-5", "", "x", "1e3"]
_SEED_POOL = ["0", "1", "42", "-1", str(2**128 - 1), str(2**128), "", "x", "1.5"]
_STEPS_POOL = ["1", "2", "3", "17", "17", "200", "0", "-1", "", "x", "2.5"]
_QUANTITY_POOL = ["", ",", "nope", "ssd,ssd", ",".join(available_quantities()), *available_quantities()]
#: Each subcommand's options, the required ones first, and their pools.
_ARGV_OPTIONS = {
    "optimal": {"--s": _FLOAT_POOL, "--p1": _FLOAT_POOL},
    "correlations": {"--s": _FLOAT_POOL, "--p1": _FLOAT_POOL, "--t": _FLOAT_POOL},
    "simulate": {
        "--s": _FLOAT_POOL, "--p1": _FLOAT_POOL, "--t": _FLOAT_POOL, "--q1b": _FLOAT_POOL,
        "--q1c": _FLOAT_POOL, "--seed": _SEED_POOL,
    },
    "sweep": {
        "--figure": [*FIGURE_PRESETS, "9z", ""], "--variable": ["P1", "s", "t", "p1", ""],
        "--start": _FLOAT_POOL, "--stop": _FLOAT_POOL, "--steps": _STEPS_POOL, "--s": _FLOAT_POOL,
        "--p1": _FLOAT_POOL, "--t": _FLOAT_POOL, "--quantities": _QUANTITY_POOL,
    },
}
_REQUIRED = {"optimal": 2, "correlations": 3, "simulate": 2, "sweep": 0}
#: How an argv reaches the top-level parser: mostly led by its subcommand,
#: else without it, led by an unknown command or by "--", or with a trailing
#: token that no option takes.
_FORMS = ("plain",) * 6 + ("missing", "unknown", "dashdash", "trailing")
_UNKNOWN_POOL = ["bogus", "optimall", "Optimal", "opt", "", "-x", "--s", "-1e-6"]
_TRAILING_POOL = ["extra", "--bogus", "-x", "-1e-6", "0.3", "--", "sweep"]


@st.composite
def _argvs(draw):
    """An argv of one subcommand with a value from each option's pool: its
    required options present 9 times in 10, the others half the time;
    simulate always with --n of at most 1,000, sweep always with --out -.
    Four times in ten the argv takes one of the top-level ``_FORMS``."""
    command = draw(st.sampled_from(sorted(_ARGV_OPTIONS)))
    argv = [command]
    for k, (option, pool) in enumerate(_ARGV_OPTIONS[command].items()):
        if draw(st.integers(0, 9)) < (9 if k < _REQUIRED[command] else 5):
            argv += [option, draw(st.sampled_from(pool))]
    if command == "simulate":
        argv += ["--n", draw(st.sampled_from(_N_POOL))]
    if command == "sweep":
        argv += ["--out", "-"]
    form = draw(st.sampled_from(_FORMS))
    if form == "missing":
        return argv[1:]
    if form == "unknown":
        return [draw(st.sampled_from(_UNKNOWN_POOL)), *argv[1:]]
    if form == "dashdash":
        return ["--", *argv]
    if form == "trailing":
        return [*argv, draw(st.sampled_from(_TRAILING_POOL))]
    return argv


def _transcript(run, argv):
    """(exit code, stdout, stderr) of ``run(argv)``, argparse's SystemExit included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(_argvs())
def test_every_argv_exits_with_a_documented_code(argv):
    # argparse's own errors exit 2 by SystemExit; anything else uncaught,
    # a RuntimeWarning included (pyproject makes it an error), fails
    code, _, err = _transcript(main, argv)
    assert code in (0, 2, 3, 4, 5, 6), (argv, code, err)
    assert "Traceback" not in err


def _reference_main(argv=None):
    """The reference for ``main``: the top-level parser reads every argv,
    then ``main``'s dispatch and exit codes."""
    args = cli._parser().parse_args(argv)
    try:
        return args.fn(args)
    except (DomainError, ConstraintError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return cli.EXIT_USAGE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return cli.EXIT_IO
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return cli.EXIT_NUMERIC


#: Argvs of the top-level parser (none, help, an unknown command, "--" first)
#: and of a subcommand's (help, a trailing token, a value argparse refuses,
#: a negative value in exponent form).
_USAGE_ARGVS = [
    [],
    ["-h"],
    ["bogus"],
    ["optimal", "-h"],
    ["--", "optimal", "--s", "0.3", "--p1", "0.2"],
    ["optimal", "--s", "0.3", "--p1", "0.2", "extra"],
    ["optimal", "--s", "abc", "--p1", "0.2"],
    ["optimal", "--s", "-1e-6", "--p1", "0.2"],
]


@pytest.mark.parametrize("argv", _USAGE_ARGVS, ids=" ".join)
def test_usage_transcripts_equal_the_top_level_parse(argv):
    # argparse reads any iterable of strings, and so does main
    assert _transcript(main, argv) == _transcript(main, iter(argv)) == _transcript(_reference_main, argv)


@settings(max_examples=300, deadline=None)
@given(_argvs())
def test_every_argv_prints_what_the_top_level_parse_prints(argv):
    assert _transcript(main, argv) == _transcript(_reference_main, argv)


@pytest.mark.parametrize(
    "argv", [["optimal", "--s", "0.3", "--p1", "0.2"], *_USAGE_ARGVS], ids=" ".join
)
def test_main_without_argv_reads_sys_argv(monkeypatch, argv):
    monkeypatch.setattr(sys, "argv", ["seqdisc", *argv])
    found = _transcript(main, None)
    assert found == _transcript(_reference_main, None) == _transcript(main, argv)
