"""Column kernels against the scalar point API, cell by cell.

A sweep evaluates each CSV column with one array kernel; the scalar
functions are the reference.  Every column must agree with them bit for bit,
empty cells must fall in the same places, and a column fails where a scalar
lane does.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqdisc import (
    CorrelationInput,
    DomainError,
    SYMMETRY_BREAK_OVERLAP,
    Scenario,
    at_least_one_protocol3,
    at_least_one_ssd,
    bob_optimal,
    charlie_optimal,
    correlation_report,
    joint_optimal,
    protocol1_optimal,
    protocol2_critical_priors,
    protocol2_optimal,
    protocol3_optimal,
)
from seqdisc.cli import main
from seqdisc.sweeps import SweepSpec, _QUANTITIES, run_figure, run_sweep


def _report_field(name):
    def value(s, p1, t):
        if t < s or t <= 0.0:
            return None
        return getattr(correlation_report(CorrelationInput(p1, t, s / t)), name)

    return value


#: Quantity name -> its scalar value at (s, p1, t).
_SCALAR = {
    "ssd": lambda s, p1, t: joint_optimal(Scenario(s, p1)).value,
    "protocol1": lambda s, p1, t: protocol1_optimal(Scenario(s, p1)).value,
    "protocol2": lambda s, p1, t: protocol2_optimal(Scenario(s, p1)).value,
    "protocol3": lambda s, p1, t: protocol3_optimal(Scenario(s, p1)).value,
    "ssd_star": lambda s, p1, t: at_least_one_ssd(Scenario(s, p1)).value,
    "p3_star": lambda s, p1, t: at_least_one_protocol3(Scenario(s, p1)).value,
    "bob_max": lambda s, p1, t: bob_optimal(Scenario(s, p1), t).value,
    "charlie_max": lambda s, p1, t: charlie_optimal(Scenario(s, p1), t).value,
    "prop_left": _report_field("prop_left"),
    "d_symm": _report_field("d_symm"),
}
_CLONING = {"protocol3", "p3_star"}
_CORRELATIONS = {"prop_left", "d_symm"}


def _scalar_column(name, s, p1, t):
    """The scalar values lane by lane, or the exceptions the lanes raised."""
    values, raised = [], []
    for lane in zip(s.tolist(), p1.tolist(), t.tolist()):
        try:
            values.append(_SCALAR[name](*lane))
        except Exception as exc:  # the kernel must fail alike
            raised.append(type(exc))
    return values, tuple(raised)


def _assert_column_matches(name, s, p1, t):
    s, p1, t = (np.asarray(a, dtype=float) for a in (s, p1, t))
    kernel, needs_t = _QUANTITIES[name]
    wanted, raised = _scalar_column(name, s, p1, t)
    if raised:
        with pytest.raises(raised):
            kernel(s, p1, t) if needs_t else kernel(s, p1)
        return
    column = kernel(s, p1, t) if needs_t else kernel(s, p1)
    assert column.shape == s.shape
    for i, want in enumerate(wanted):
        got = None if math.isnan(column[i]) else float(column[i])
        assert got == want, (name, s[i], p1[i], t[i], got, want)


_S_EDGES = (0.0, 1e-12, 1e-4, 0.04, SYMMETRY_BREAK_OVERLAP, 0.36, 0.9, 1.0 - 1e-9, 1.0)
_P1_EDGES = (5e-324, 1e-310, 1e-300, 1e-20, 1e-3, 0.1, 0.2, 0.3, 0.45, 0.5)


@pytest.mark.parametrize("name", sorted(_SCALAR))
def test_kernel_matches_scalar_on_edge_grid(name):
    s, p1 = (a.ravel() for a in np.meshgrid(_S_EDGES, _P1_EDGES))
    if name in _CORRELATIONS:  # below s, at s, between, at 1 and at 0
        lanes = [(s, p1, t) for t in (0.5 * s, s, np.sqrt(s), np.ones_like(s), np.zeros_like(s))]
    elif name in ("bob_max", "charlie_max"):
        lanes = [(s, p1, np.where(s > 0.0, t, 0.5)) for t in (s, np.sqrt(s), np.ones_like(s))]
    else:
        lanes = [(s, p1, np.full_like(s, np.nan))]
    for lane in lanes:
        _assert_column_matches(name, *lane)


@pytest.mark.parametrize("s", [0.04, 0.5])
def test_protocol2_kernel_at_its_critical_priors(s):
    p_c1, p_c2 = protocol2_critical_priors(s)
    near = [p * (1.0 + e) for p in (p_c1, p_c2) for e in (-1e-15, 0.0, 1e-15, 1e-9)]
    p1 = np.array([p for p in near if 0.0 < p <= 0.5])
    _assert_column_matches("protocol2", np.full_like(p1, s), p1, np.full_like(p1, np.nan))


_S = st.one_of(st.sampled_from([0.0, 1e-12, 1.0 - 1e-9, 1.0]), st.floats(0.0, 1.0))
_P1 = st.one_of(st.sampled_from([5e-324, 1e-310, 1e-300, 0.5]), st.floats(1e-300, 0.5))


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(sorted(_SCALAR)),
    st.lists(st.tuples(_S, _P1, st.floats(0.0, 1.0), st.booleans()), min_size=1, max_size=6),
)
def test_kernel_matches_scalar_property(name, lanes):
    s, p1, t = [], [], []
    for s_i, p1_i, frac, at_s in lanes:
        if name in _CLONING and s_i > 0.0:  # the cloner is solved for s >= 1e-12
            s_i = max(s_i, 1e-12)
        if name in _CORRELATIONS:
            t_i = s_i if at_s else frac  # t below s leaves the cell empty
        else:  # a stage quantity needs 0 < t, s <= t
            t_i = s_i if at_s and s_i > 0.0 else s_i + frac * (1.0 - s_i)
            t_i = t_i if t_i > 0.0 else 1.0
        s.append(s_i)
        p1.append(p1_i)
        t.append(t_i)
    _assert_column_matches(name, s, p1, t)


@pytest.mark.parametrize(
    "spec",
    [
        SweepSpec("P1", 0.0, 0.5, 5, {"s": 0.04}, ("ssd",)),
        SweepSpec("s", 0.5, 1.5, 5, {"p1": 0.2}, ("protocol3",)),
        SweepSpec("P1", 0.1, 0.5, 5, {"s": 0.5, "t": 0.3}, ("bob_max",)),
        SweepSpec("P1", 0.1, 0.5, 5, {"s": 0.5, "t": math.nan}, ("charlie_max",)),
        SweepSpec("P1", 0.1, 0.5, 5, {"s": 0.5, "t": math.nan}, ("prop_left",)),
        SweepSpec("t", 0.5, 1.5, 5, {"s": 0.4, "p1": 0.2}, ("d_symm",)),
    ],
    ids=["p1_reaches_0", "s_above_1", "bob_t_below_s", "charlie_nan_t", "prop_nan_t", "t_above_1"],
)
def test_custom_sweep_domain_errors(spec):
    with pytest.raises(DomainError):
        run_sweep(spec)


def test_sweep_spec_rejects_nan_steps():
    with pytest.raises(DomainError, match="at least 2"):
        SweepSpec("P1", 0.1, 0.5, math.nan, {"s": 0.04}, ("ssd",))


@pytest.mark.parametrize(
    "extra",
    [
        ["--variable", "P1", "--start", "0", "--stop", "0.5", "--s", "0.04", "--quantities", "ssd"],
        ["--variable", "P1", "--start", "0.1", "--stop", "0.5", "--s", "0.5", "--t", "0.3",
         "--quantities", "bob_max"],
        ["--variable", "P1", "--start", "0.1", "--stop", "0.5", "--s", "0.5", "--t", "nan",
         "--quantities", "d_symm"],
    ],
    ids=["p1_reaches_0", "bob_t_below_s", "nan_t"],
)
def test_custom_sweep_domain_errors_exit_2(extra, capsys):
    assert main(["sweep", *extra, "--steps", "5", "--out", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: SweepSpec("x", 0.1, 0.5, 5), "not one of"),
        (lambda: SweepSpec("P1", 0.5, 0.5, 5, {"s": 0.04}, ("ssd",)), "empty sweep range"),
        (lambda: run_sweep(SweepSpec("P1", 0.1, 0.5, 5, {"s": 0.04}, ("nope",))), "unknown quantities"),
        (lambda: run_sweep(SweepSpec("P1", 0.1, 0.5, 5, {"s": 0.04})), "at least one quantity"),
        (lambda: run_figure("9"), "unknown figure preset"),
    ],
    ids=["variable", "empty_range", "unknown_quantity", "no_quantity", "unknown_figure"],
)
def test_sweep_validation_errors(call, message):
    with pytest.raises(DomainError, match=message):
        call()
