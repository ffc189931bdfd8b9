"""Column kernels against the scalar point API, cell by cell.

A sweep evaluates each quantity with one array kernel call over the lanes
of all of its columns; the scalar functions are the reference.  Every column must agree with them bit for bit,
empty cells must fall in the same places, and a column fails where a scalar
lane does.
"""

import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from seqdisc import (
    CaseLabel,
    CorrelationInput,
    DomainError,
    SYMMETRY_BREAK_OVERLAP,
    Scenario,
    at_least_one_protocol3,
    at_least_one_ssd,
    bob_optimal,
    charlie_optimal,
    correlation_report,
    critical_prior_PC,
    joint_optimal,
    protocol1_optimal,
    protocol2_critical_priors,
    protocol2_optimal,
    protocol3_optimal,
)
from seqdisc import protocols, ssd
from seqdisc.cli import main
from seqdisc.sweeps import (
    FIGURE_PRESETS,
    SweepSpec,
    _BLOCK_ROWS,
    _QUANTITIES,
    _grid_scenarios,
    run_figure,
    run_sweep,
    write_csv,
)


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


_S_EDGES = (0.0, 1e-170, 1e-12, 1e-4, 0.04, SYMMETRY_BREAK_OVERLAP, 0.36, 0.9, 1.0 - 1e-9, 1.0)
_P1_EDGES = (5e-324, 1e-310, 1e-300, 1e-20, 1e-3, 0.1, 0.2, 0.3, 0.45, 0.5)


@pytest.mark.parametrize("name", sorted(_SCALAR))
def test_kernel_matches_scalar_on_edge_grid(name):
    s, p1 = (a.ravel() for a in np.meshgrid(_S_EDGES, _P1_EDGES))
    if name in _CORRELATIONS:
        # below s, at s, between, at 1 and at 0; then the product state t = 1
        # (both discords 0: an undefined proportion, d_symm 0) in every other
        # lane of one call, beside lanes at sqrt(s)
        product = np.where(np.arange(s.size) % 2 == 0, 1.0, np.sqrt(s))
        lanes = [(s, p1, t) for t in (0.5 * s, s, np.sqrt(s), np.ones_like(s), np.zeros_like(s), product)]
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


def _skip_rule_edge_lanes():
    """(s, p1) lanes that hug every edge of the joint kernel's q* skip rule:
    p1 at P_C(s)*(1 +- 10^-k) and at the rule's absolute margin +- 1e-12 for
    seeded s in [1e-12, 0.2), s a few ulps from 3 - 2*sqrt(2) and from
    3 - 2*sqrt(2) + 1e-9 (just past P_C = 1/2, where P_C's margins alone
    decide) at p1 near 1/2, priors down to 5e-324, and s near 1,
    where case II's value p2*(1-s)^2 crosses 1e-10 and falls far under 1e-12,
    so that only a relative tie rule leaves it ahead."""
    rng = np.random.default_rng(24)
    s_small = np.exp(rng.uniform(math.log(1e-12), math.log(0.2), 40)).tolist()
    lanes = []
    for s in s_small:
        p_c = critical_prior_PC(s).value
        lanes += [(s, p_c * (1.0 + sign * 10.0**-k)) for k in range(1, 16) for sign in (-1, 1)]
        threshold = p_c * (1.0 - ssd._PC_REL_MARGIN) - ssd._PC_ABS_MARGIN
        lanes += [(s, threshold - 1e-12), (s, threshold), (s, threshold + 1e-12)]
    for edge in (SYMMETRY_BREAK_OVERLAP, SYMMETRY_BREAK_OVERLAP + 1e-9):
        for ulps in range(-4, 5):
            s = edge
            for _ in range(abs(ulps)):
                s = math.nextafter(s, ulps * math.inf)
            lanes += [(s, 0.5), (s, 0.5 - 1e-12)]
    for s in (1e-12, 1e-10, 8e-11, 1e-6, 0.04, SYMMETRY_BREAK_OVERLAP, 0.36):
        lanes += [(s, p1) for p1 in (5e-324, 1e-310, 1e-300, 1e-20, 5.4e-10)]
    for p1 in (0.5, 0.3, 1e-3, 5e-324):
        lanes += [(1.0 - 10.0**-k, p1) for k in range(3, 17)]
        v2 = 1e-10 / (1.0 - p1)
        lanes += [(1.0 - math.sqrt(v2 * (1.0 + e)), p1) for e in (-1e-3, -1e-12, 0.0, 1e-12, 1e-3)]
    s, p1 = np.array([lane for lane in lanes if 0.0 < lane[1] <= 0.5]).T
    return s, p1


def test_joint_kernel_matches_scalar_at_the_skip_rule_edges():
    s, p1 = _skip_rule_edge_lanes()
    may_win = ssd._case_i_may_win(s, p1)
    assert may_win.any() and not may_win.all()
    assert not may_win[s > 0.9].any()  # s near 1 is skipped: case II wins there
    _assert_column_matches("ssd", s, p1, np.full_like(s, np.nan))


def _relative_case_ii_lead(s, p1):
    """(v2 - v1)/v2 of the joint choice on the lanes: case II's value v2
    against case I's v1 at q*."""
    p2 = 1.0 - p1
    v1 = ssd._joint_case1_objective(p1, p2, s, ssd._q_star_values(s, p1, p2))
    v2 = p2 * ((1.0 - s) * (1.0 - s))
    return (v2 - v1) / v2


def test_skipped_lanes_leave_case_ii_ahead_beyond_the_tie_rule():
    # the skip rule rests on case II beating case I by far more than the
    # relative 1e-12 tie tolerance on every lane it skips (v2 <= 1, so this
    # is also an absolute lead of 1e-11 on the small-s lanes), or on an exact
    # tie: one ulp below s = 1 at p1 = 1/2, q* = sqrt(s) rounds to 1, where
    # case I's point is case II's and the values are equal
    s, p1 = _skip_rule_edge_lanes()
    skip = ~ssd._case_i_may_win(s, p1)
    s, p1 = s[skip], p1[skip]
    lead = _relative_case_ii_lead(s, p1)
    tie = lead == 0.0
    assert s.size > 100 and lead[~tie].min() >= 1e-11, (s[np.argmin(lead)], p1[np.argmin(lead)])
    assert not ssd._case_i_wins(1.0 - lead[~tie], 1.0).any()
    s, p1 = s[tie], p1[tie]
    assert s.tolist() == [math.nextafter(1.0, 0.0)] and p1.tolist() == [0.5]
    assert ssd._q_star_values(s, p1, 1.0 - p1).tolist() == [1.0]


def test_skip_rule_agrees_with_the_scalar_choice_near_s_one():
    # seeded lanes with 1 - s log-uniform in [1e-15, 1e-6], where case II's
    # value is below 1e-12: the kernel skips them all, and the scalar choice
    # takes case II there too, with the same value
    rng = np.random.default_rng(26)
    s = 1.0 - np.exp(rng.uniform(math.log(1e-15), math.log(1e-6), 300))
    p1 = np.concatenate([rng.uniform(0.0, 0.5, 150), np.exp(rng.uniform(math.log(1e-300), math.log(0.5), 150))])
    p1 = np.maximum(p1, 5e-324)
    assert not ssd._case_i_may_win(s, p1).any()
    assert _relative_case_ii_lead(s, p1).min() >= 0.3
    labels = {joint_optimal(Scenario(*lane)).case_label for lane in zip(s.tolist(), p1.tolist())}
    assert labels == {CaseLabel.CASE_II}
    _assert_column_matches("ssd", s, p1, np.full_like(s, np.nan))


def _preset_ssd_lanes(name):
    """Each ``ssd`` column of the preset as its (s, p1) arrays."""
    variable, grid, columns = FIGURE_PRESETS[name]
    for _, quantity, fixed in columns:
        if quantity == "ssd":
            at = _grid_scenarios(variable, grid, fixed)
            yield at["s"], at["p1"]


def test_presets_solve_q_star_on_their_case_i_lanes_only(monkeypatch):
    calls = []
    q_star_values = ssd._q_star_values

    def recorded(s, p1, p2):
        calls.append(list(zip(s.tolist(), p1.tolist())))
        return q_star_values(s, p1, p2)

    monkeypatch.setattr(ssd, "_q_star_values", recorded)
    case_i = []  # per preset with a case-I ssd lane, those lanes in column order
    for name in FIGURE_PRESETS:
        run_figure(name)
        lanes = [
            lane
            for s, p1 in _preset_ssd_lanes(name)
            for lane in zip(s.tolist(), p1.tolist())
            if joint_optimal(Scenario(*lane)).case_label == CaseLabel.CASE_I
        ]
        case_i += [lanes] if lanes else []
    assert calls == case_i
    assert len(calls) == 3 and sum(map(len, calls)) == 275
    calls.clear()
    run_figure("3a")  # its s = 0.36 column lies beyond 3 - 2*sqrt(2)
    assert len(calls) == 1 and {s for s, _ in calls[0]} == {0.04}


def test_presets_call_each_quantity_kernel_once(monkeypatch):
    calls = []

    def counted(name, kernel):
        def kernel_call(*lanes):
            calls.append(name)
            return kernel(*lanes)

        return kernel_call

    for name, (kernel, needs_t) in list(_QUANTITIES.items()):
        monkeypatch.setitem(_QUANTITIES, name, (counted(name, kernel), needs_t))
    total = 0
    for preset, (_, _, columns) in FIGURE_PRESETS.items():
        calls.clear()
        run_figure(preset)
        assert sorted(calls) == sorted({quantity for _, quantity, _ in columns}), preset
        total += len(calls)
    assert total == 12  # against one call per column, 20


@pytest.mark.parametrize("preset", sorted(FIGURE_PRESETS))
def test_preset_cells_equal_a_column_at_a_time_evaluation(preset):
    variable, grid, columns = FIGURE_PRESETS[preset]
    header, rows = run_figure(preset)
    assert header == [variable] + [label for label, _, _ in columns]
    for k, (_, quantity, fixed) in enumerate(columns, start=1):
        kernel, needs_t = _QUANTITIES[quantity]
        at = _grid_scenarios(variable, grid, fixed)
        column = kernel(at["s"], at["p1"], at["t"]) if needs_t else kernel(at["s"], at["p1"])
        wanted = [None if math.isnan(v) else v.hex() for v in column.tolist()]
        assert [None if row[k] is None else row[k].hex() for row in rows] == wanted, (preset, k)


def test_figure_cloner_solves_take_at_most_six_newton_steps(monkeypatch):
    # every read of the working point but the first follows one Newton step
    reads, solves = [0], []
    working_point, solve = protocols._clone_working_point, protocols._clone_optimal_values

    def read(*args):
        reads[0] += 1
        return working_point(*args)

    def counted(s, p1):
        reads[0] = 0
        params = solve(s, p1)
        solves.append((s.size, reads[0] - 1))
        return params

    monkeypatch.setattr(protocols, "_clone_working_point", read)
    monkeypatch.setattr(protocols, "_clone_optimal_values", counted)
    for name in ("4", "5"):
        run_figure(name)
    assert len(solves) == 2
    assert all(lanes == 200 and 1 <= steps <= 6 for lanes, steps in solves), solves


_S = st.one_of(st.sampled_from([0.0, 1e-12, 1.0 - 1e-9, 1.0]), st.floats(0.0, 1.0))
_P1 = st.one_of(st.sampled_from([5e-324, 1e-310, 1e-300, 0.5]), st.floats(1e-300, 0.5))


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(sorted(_SCALAR)),
    st.lists(st.tuples(_S, _P1, st.floats(0.0, 1.0), st.booleans()), min_size=1, max_size=6),
)
# p2*s/p1 overflows at the subnormal priors (q* = s there) and the other lane
# has a root, so the q* kernel returns from its overflow branch; the edge grid
# always holds a lane that raises before that return
@example("ssd", [(0.1, p1, 0.5, False) for p1 in (5e-324, 1e-310, 0.3)])
@example("ssd", [(0.04, p1, 0.5, False) for p1 in (5e-324, 1e-310, 0.3)])
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
    "steps", [3.0, 3.5, True, np.float64(3.0)], ids=["float", "fraction", "bool", "numpy_float"]
)
def test_sweep_spec_rejects_steps_that_are_not_an_integer(steps):
    # np.linspace refuses a float count with a bare TypeError
    with pytest.raises(DomainError, match="must be an integer"):
        SweepSpec("P1", 0.1, 0.5, steps, {"s": 0.04}, ("ssd",))


def test_sweep_spec_takes_a_numpy_integer_for_steps():
    spec = SweepSpec("P1", 0.1, 0.5, np.int64(3), {"s": 0.04}, ("ssd",))
    assert run_sweep(spec) == run_sweep(SweepSpec("P1", 0.1, 0.5, 3, {"s": 0.04}, ("ssd",)))


def test_sweep_spec_rejects_a_string_of_quantity_names():
    # a str is a sequence of its characters, each an unknown quantity
    with pytest.raises(DomainError, match="'ssd' must be a sequence of quantity names"):
        SweepSpec("P1", 0.1, 0.5, 3, {"s": 0.04}, "ssd")


@pytest.mark.parametrize("quantities", [None, (["ssd"],)], ids=["none", "list_as_a_name"])
def test_sweep_spec_rejects_quantities_that_are_not_names(quantities):
    # None raised a bare AttributeError, and a list as a name was accepted,
    # for run_sweep to fail on with a bare TypeError
    with pytest.raises(DomainError, match="must be a sequence of quantity names"):
        SweepSpec("P1", 0.1, 0.5, 3, {"s": 0.04}, quantities)


@pytest.mark.parametrize("fixed", [None, [("s", 0.04)]], ids=["none", "list_of_pairs"])
def test_sweep_spec_rejects_a_fixed_that_is_not_a_mapping(fixed):
    # a bare AttributeError from fixed.items()
    with pytest.raises(DomainError, match="fixed=.* must map s, p1 or t to a real number"):
        SweepSpec("P1", 0.1, 0.5, 3, fixed, ("ssd",))


def test_sweep_spec_holds_its_quantities_as_a_tuple():
    spec = SweepSpec("P1", 0.1, 0.5, 3, {"s": 0.04}, ["ssd", "protocol1"])
    assert spec.quantities == ("ssd", "protocol1")
    as_tuple = SweepSpec("P1", 0.1, 0.5, 3, {"s": 0.04}, ("ssd", "protocol1"))
    assert spec == as_tuple and run_sweep(spec) == run_sweep(as_tuple)


@pytest.mark.parametrize(
    "extra",
    [
        ["--variable", "P1", "--start", "0", "--stop", "0.5", "--s", "0.04", "--quantities", "ssd"],
        ["--variable", "P1", "--start", "0.1", "--stop", "0.5", "--s", "0.5", "--t", "0.3",
         "--quantities", "bob_max"],
        ["--variable", "P1", "--start", "0.1", "--stop", "0.5", "--s", "0.5", "--t", "nan",
         "--quantities", "d_symm"],
        # a second, identical column
        ["--variable", "P1", "--start", "0.1", "--stop", "0.5", "--s", "0.3", "--quantities", "ssd,ssd"],
    ],
    ids=["p1_reaches_0", "bob_t_below_s", "nan_t", "quantity_twice"],
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
        (lambda: SweepSpec("s", 0.5, math.inf, 3, {"p1": 0.3}, ("ssd",)), "not finite"),
        (lambda: SweepSpec("s", -math.inf, 0.5, 3, {"p1": 0.3}, ("ssd",)), "not finite"),
        # a spec is checked when it is built, not when it runs
        (lambda: SweepSpec("P1", 0.1, 0.5, 5, {"s": 0.04}, ("nope",)), "unknown quantities"),
        (lambda: SweepSpec("P1", 0.1, 0.5, 5, {"s": 0.04}), "at least one quantity"),
        (lambda: SweepSpec("P1", 0.1, 0.5, 5, {}, ("ssd",)), r"needs fixed values for \['s'\]"),
        (lambda: SweepSpec("P1", 0.1, 0.5, 5, quantities=("ssd",)), r"needs fixed values for \['s'\]"),
        (lambda: run_figure("9"), "unknown figure preset"),
        # the grid would overwrite the fixed value
        (lambda: SweepSpec("P1", 0.1, 0.5, 3, {"s": 0.3, "p1": 0.2}, ("ssd",)), "cannot also fix p1"),
        # no quantity reads t, so each row would repeat one value
        (lambda: SweepSpec("t", 0.1, 0.5, 3, {"s": 0.3, "p1": 0.2}, ("ssd",)),
         r"none of \['ssd'\] reads t"),
        (lambda: SweepSpec("P1", 0.1, 0.5, 3, {"s": 0.3, "t": 0.9}, ("ssd", "p3_star")), "reads t"),
        # each would write a second, identical column
        (lambda: SweepSpec("P1", 0.1, 0.5, 3, {"s": 0.3}, ("ssd", "protocol1", "ssd")),
         r"named more than once: \['ssd'\]"),
        # a field no quantity reads would be ignored
        (lambda: SweepSpec("P1", 0.1, 0.5, 3, {"s": 0.3, "x": 1.0}, ("ssd",)), "'x' is not one of"),
        # float() would take the string, and a list would raise a bare TypeError
        (lambda: SweepSpec("P1", 0.1, 0.5, 3, {"s": "0.3"}, ("ssd",)), "fixed s='0.3' must be a real"),
        (lambda: SweepSpec("P1", 0.1, 0.5, 3, {"s": [0.3, 0.4]}, ("ssd",)), "fixed s=.* must be a real"),
        (lambda: SweepSpec("P1", "0.1", 0.5, 3, {"s": 0.3}, ("ssd",)), "start='0.1' must be a real"),
        (lambda: SweepSpec("P1", 0.1, "0.5", 3, {"s": 0.3}, ("ssd",)), "stop='0.5' must be a real"),
        # a bool would be taken as 1 or 0: s = 1, or the grid [0, 1]
        (lambda: SweepSpec("P1", 0.1, 0.5, 3, {"s": True}, ("protocol1",)), "fixed s=True must be a real"),
        (lambda: SweepSpec("s", False, 1.0, 3, {"p1": 0.3}, ("protocol1",)), "start=False must be a real"),
        (lambda: SweepSpec("s", 0.0, True, 3, {"p1": 0.3}, ("protocol1",)), "stop=True must be a real"),
        # float() of an int beyond float range raised a bare OverflowError;
        # 10**5000's repr would pass int's 4,300-digit limit
        (lambda: SweepSpec("P1", 10**400, 0.5, 3, {"s": 0.3}, ("ssd",)), "start is a number outside the float"),
        (lambda: SweepSpec("P1", 0.1, 10**400, 3, {"s": 0.3}, ("ssd",)), "stop is a number outside the float"),
        (lambda: SweepSpec("P1", -(10**400), 0.5, 3, {"s": 0.3}, ("ssd",)), "start is a number outside"),
        (lambda: SweepSpec("P1", 0.1, 0.5, 3, {"s": 10**400}, ("ssd",)), "fixed s is a number outside"),
        (lambda: SweepSpec("P1", 0.1, 0.5, 3, {"s": 10**5000}, ("ssd",)), "fixed s is a number outside"),
    ],
    ids=[
        "variable", "empty_range", "infinite_stop", "infinite_start", "unknown_quantity",
        "no_quantity", "missing_fixed", "omitted_fixed", "unknown_figure", "swept_field_fixed", "t_swept_unread",
        "t_fixed_unread",
        "quantity_twice", "unknown_fixed_field", "fixed_string", "fixed_list", "start_string",
        "stop_string", "fixed_bool", "start_bool", "stop_bool", "start_beyond_float", "stop_beyond_float",
        "negative_start_beyond_float", "fixed_beyond_float", "fixed_past_repr_limit",
    ],
)
def test_sweep_validation_errors(call, message):
    with pytest.raises(DomainError, match=message):
        call()


def _reference_csv(header, rows):
    """The CSV text written cell by cell: each number as ``%.12g`` of its
    float, each None as an empty cell."""
    lines = [header] + [["" if v is None else format(float(v), ".12g") for v in row] for row in rows]
    return "".join(",".join(line) + "\n" for line in lines)


def _mixed_rows(n, columns, seed):
    """n seeded rows of values that stress %.12g (subnormals, -0, inf, NaN,
    huge and tiny numbers) with None in about a quarter of the cells."""
    rng = np.random.default_rng(seed)
    special = [0.0, -0.0, 5e-324, 1e-310, math.inf, -math.inf, math.nan, 1e300, 0.1, 123456789012345.0]
    rows = []
    for _ in range(n):
        row = []
        for _ in range(columns):
            kind = rng.integers(4)
            if kind == 0:
                row.append(None)
            elif kind == 1:
                row.append(special[rng.integers(len(special))])
            else:
                row.append(float(rng.standard_normal() * 10.0 ** rng.integers(-30, 30)))
        rows.append(row)
    return rows


_CSV_TABLES = {
    "none_first_middle_last": (
        ["t", "a", "b", "c"],
        [[None, 0.5, 0.25, 1.0], [0.1, None, 0.2, 0.3], [0.1, 0.2, 0.3, None],
         [0.2, 1 / 3, 2 / 3, 1e-20], [None, 0.5, None, None]],
    ),
    "all_none_row": (["t", "a", "b"], [[0.1, 0.2, 0.3], [None, None, None], [0.4, None, 0.6]]),
    "header_only": (["t", "a"], []),
    "one_column": (["t"], [[0.1], [None], [1e-300], [-0.0]]),
    "longer_than_a_block": (["t", "a", "b"], _mixed_rows(2 * _BLOCK_ROWS + 3, 3, 7)),
}


@pytest.mark.parametrize("name", sorted(_CSV_TABLES))
def test_write_csv_bytes_match_a_cell_by_cell_writer(name):
    header, rows = _CSV_TABLES[name]
    buf = io.StringIO()
    write_csv(header, rows, buf)
    assert buf.getvalue() == _reference_csv(header, rows)
