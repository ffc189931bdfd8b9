import collections
import dataclasses
import functools
import math
import tracemalloc
import types
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from seqdisc import (
    CERT_P1_VALUES,
    CERT_S_VALUES,
    SYMMETRY_BREAK_OVERLAP,
    CaseLabel,
    ConstraintError,
    DomainError,
    NumericError,
    Scenario,
    at_least_one_ssd,
    bob_optimal,
    certify,
    charlie_optimal,
    critical_prior_PC,
    grid_maximize_bob,
    grid_maximize_charlie,
    grid_maximize_cloning,
    grid_maximize_joint,
    grid_maximize_protocol2,
    grid_maximize_union_ssd,
    joint_optimal,
    protocol1_optimal,
    protocol2_critical_priors,
    protocol2_optimal,
)
from seqdisc import bounds as bounds_module
from seqdisc import oracle as oracle_module
from seqdisc import protocols as protocols_module
from seqdisc.bounds import _root_bracket, _root_count, _sturm_chain
from seqdisc.oracle import _REFINEMENT_PASSES, _SCAN_POINTS, _joint_term, _max_diagonal, _union_term
from seqdisc.core import _pick
from seqdisc.protocols import _cloned_optimum, protocol1_optimal_values
from seqdisc.sweeps import _P1_GRID, FIGURE_PRESETS, run_figure


def _cloning_objective_values(g1, s, p1, p2):
    """The cloning objective in every lane of g1, -inf where the constraint
    has no root: the oracle's lane body (``oracle._cloning_lanes``), a fresh
    one per call, so the buffer returned is the caller's to keep."""
    return oracle_module._cloning_lanes(s, p1, p2)(g1)


class TestCertifyTolerance:
    def test_default_tolerance(self):
        (row,) = certify(["protocol1"], [0.2], [0.3])
        assert row.tolerance == 1e-6

    # a string or None raised a bare TypeError from comparing with 0.0, and
    # True was taken as a tolerance of 1
    @pytest.mark.parametrize("tolerance", [0.0, -1e-6, math.nan, math.inf, "1e-6", None, True])
    def test_rejects_nonpositive_tolerance(self, tolerance):
        with pytest.raises(DomainError, match="must be positive"):
            certify(["protocol1"], [0.2], [0.3], tolerance=tolerance)

    @pytest.mark.parametrize("s_values,p1_values", [([], [0.3]), ([0.2], []), ((), ())])
    def test_rejects_empty_grid(self, s_values, p1_values):
        # an empty grid used to pass with worst_gap -1 at (nan, nan)
        with pytest.raises(DomainError, match="at least one s value"):
            certify(["protocol1"], s_values, p1_values)

    @pytest.mark.parametrize("grid", [0.2, "0.2"], ids=["number", "string"])
    @pytest.mark.parametrize("name", ["s_values", "p1_values"])
    def test_rejects_a_grid_that_is_a_number_or_a_string(self, name, grid):
        # a number raised a bare TypeError from len(), and a string one from
        # comparing str with float
        with pytest.raises(DomainError, match=f"{name}=.* must be a sequence of numbers"):
            certify(["protocol1"], **{"s_values": [0.2], "p1_values": [0.3], name: grid})

    def test_rejects_empty_selection(self):
        # an empty list used to certify all 8 quantities, like None
        with pytest.raises(DomainError, match="at least one quantity"):
            certify([], [0.2], [0.3])

    @pytest.mark.parametrize("nan_at", [0, 1, 2], ids=["first", "middle", "last"])
    def test_nan_gap_fails_its_row(self, monkeypatch, nan_at):
        # a NaN gap failed `gap > worst`, so the row passed at worst_gap -1
        # and (nan, nan); it is now the row's worst gap, the first one kept
        s_values = (0.04, 0.36, 0.6)
        real = oracle_module._CERTIFIERS["joint"]

        def stub(sc):
            return [("joint", math.nan)] if sc.s == s_values[nan_at] else real(sc)

        monkeypatch.setitem(oracle_module._CERTIFIERS, "joint", stub)
        joint, bob = certify(["joint", "bob"], s_values, (0.3,))
        assert math.isnan(joint.worst_gap) and joint.worst_scenario == (s_values[nan_at], 0.3)
        assert not joint.passed
        assert bob.passed

    @pytest.mark.parametrize("name", ["bob", "charlie"])
    def test_nan_closed_form_at_the_second_overlap_fails_its_row(self, monkeypatch, name):
        # max() kept the first overlap's gap over a NaN second one, so the
        # row passed on that gap alone; each overlap's gap now reaches the fold
        closed_form = f"{name}_optimal"
        real = getattr(oracle_module, closed_form)

        def stub(sc, t):
            return _with_value(real, math.nan)(sc, t) if t == 0.5 * (1.0 + sc.s) else real(sc, t)

        monkeypatch.setattr(oracle_module, closed_form, stub)
        rows = {row.quantity: row for row in certify(["bob", "charlie"], (0.04, 0.36), (0.3,))}
        assert math.isnan(rows[name].worst_gap) and rows[name].worst_scenario == (0.04, 0.3)
        assert not rows[name].passed
        (other,) = set(rows) - {name}
        assert rows[other].passed and not math.isnan(rows[other].worst_gap)

    def test_rejects_repeated_quantity(self):
        # a repeated name used to give two identical rows, which hides a
        # doubled row from a count of the rows
        with pytest.raises(DomainError, match=r"more than once: \['protocol1'\]"):
            certify(["protocol1", "bob", "protocol1"], [0.2], [0.3])


def _with_value(closed_form, value):
    """``closed_form`` with its result's value replaced by ``value``, its
    argmax kept: a plain namespace, since a ``PiecewiseResult`` refuses a
    value outside [0, 1], NaN too."""

    def stub(*args, **kwargs):
        return types.SimpleNamespace(value=value, argmax=closed_form(*args, **kwargs).argmax)

    return stub


class TestStageOracles:
    def test_bob_equal_priors(self):
        val, _ = grid_maximize_bob(Scenario(0.05, 0.5), 0.1)
        assert val == pytest.approx(0.5, abs=1e-6)

    def test_bob_boundary_argmax(self):
        val, q1b = grid_maximize_bob(Scenario(0.05, 0.1), 0.06)
        assert val == pytest.approx(0.275, abs=1e-6)
        assert q1b == 1.0

    def test_bob_degenerate_t(self):
        val, _ = grid_maximize_bob(Scenario(0.05, 0.5), 0.05)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_charlie(self):
        val, _ = grid_maximize_charlie(Scenario(0.04, 0.5), 0.2)
        assert val == pytest.approx(0.8, abs=1e-6)

    @pytest.mark.parametrize("p1", [0.05, 0.3, 0.5])
    def test_certify_stage_rows_at_orthogonal_states(self, p1):
        # t = sqrt(s) = 0 defines no stage, so only t = 1/2 is certified
        rows = certify(["bob", "charlie", "protocol1"], (0.0,), (p1,))
        assert [row.quantity for row in rows] == ["bob", "charlie", "protocol1"]
        assert all(row.passed and row.worst_scenario == (0.0, p1) for row in rows), rows


class TestJointOracle:
    def test_equal_priors(self):
        val, t, q1b, q1c = grid_maximize_joint(Scenario(0.04, 0.5))
        assert val == pytest.approx(0.64, abs=1e-5)
        assert abs(t - 0.2) <= (1.0 - 0.04) / 300  # within one coarse grid step of sqrt(s)

    def test_symmetry_broken_region(self):
        val, _, q1b, q1c = grid_maximize_joint(Scenario(0.36, 0.5))
        assert val == pytest.approx(0.2048, abs=1e-5)

    def test_deviation_helps(self):
        val, *_ = grid_maximize_joint(Scenario(0.04, 0.45))
        assert val >= 0.64 - 1e-9


class TestProtocol2Oracle:
    def test_equal_priors(self):
        val, _, _ = grid_maximize_protocol2(Scenario(0.04, 0.5))
        assert val == pytest.approx(0.9216, abs=1e-5)

    def test_below_pc2_degenerate(self):
        s = 0.2
        _, p_c2 = protocol2_critical_priors(s)
        sc = Scenario(s, p_c2 * 0.9)
        val, q1b, q1c = grid_maximize_protocol2(sc)
        assert val == pytest.approx(sc.p2 * (1 - s * s), abs=1e-9)
        assert q1b == 1.0
        assert math.isnan(q1c)

    def test_middle_region_matches_closed_form(self):
        s = 0.2
        p_c1, p_c2 = protocol2_critical_priors(s)
        sc = Scenario(s, 0.5 * (p_c1 + p_c2))
        val, _, _ = grid_maximize_protocol2(sc)
        assert val == pytest.approx(protocol2_optimal(sc).value, abs=1e-5)

    @pytest.mark.parametrize(
        "s,p1",
        [(0.6652559277808546, 0.1762154337588584), (0.6270261493131573, 0.12589908239228245)],
    )
    def test_rounding_tie_at_boundary_snaps_to_q1b_one(self, s, p1):
        # the grid's best point 0.9999999999999998 evaluates an ulp above the
        # boundary value p2(1 - s^2); Charlie's stage must not be run there
        (row,) = certify(["protocol2"], [s], [p1])
        assert row.passed and row.worst_gap <= 1e-12

    @pytest.mark.parametrize("s", [0.1, 0.5])
    def test_no_gap_just_above_pc2(self, s):
        # Bob's interior gain is below an ulp there; a value tie used to put
        # the oracle in case III and the closed form in case II (gap 0.15 at s = 0.5)
        _, p_c2 = protocol2_critical_priors(s)
        scenarios = [Scenario(s, p_c2 + d) for d in np.logspace(-9, -4, 200)]
        gaps = [abs(grid_maximize_protocol2(sc)[0] - protocol2_optimal(sc).value) for sc in scenarios]
        assert max(gaps) <= 1e-6

    @pytest.mark.parametrize(
        "s,p1",
        [
            (0.9999999999999996, 0.4999999999999998),
            (0.999999999999976, 0.49999999999998807),
            (0.9999999999568306, 0.4999999999784153),
            (0.9112208659912447, 0.453648484413604),
            (0.7429634011369497, 0.35566786762105373),
            (0.09947212883241696, 0.009797758490267563),
            (0.018269785334533273, 0.0003336736808816116),
            (7.961017515298589e-128, 6.337779987889093e-255),
        ],
    )
    def test_side_of_the_jump_within_ulps_of_pc2(self, s, p1):
        # within two ulps of p_c2 both take Bob's side by the exact sign of
        # p2 s^2 - p1 (p2 = 1 - p1): a rounded stationary point put the closed
        # form in case III on six of these, 0.16 above the oracle at s = 0.74.
        # The value is also held to 60 digits on that side, relative to
        # itself, since some are far below the oracle's absolute resolution.
        res = protocol2_optimal(Scenario(s, p1))
        boundary = Fraction(s) ** 2 * (1 - Fraction(p1)) >= Fraction(p1)
        assert (res.case_label is CaseLabel.CASE_III) == boundary
        (row,) = certify(["protocol2"], [s], [p1])
        assert row.passed and row.worst_gap <= 1e-9
        with mpmath.workdps(60):
            ms, m1 = mpmath.mpf(s), mpmath.mpf(p1)
            if boundary:
                ref = (1 - m1) * (1 - ms * ms)
            else:  # Charlie's prior is far below his own critical prior here
                ref = (1 - m1 - mpmath.sqrt(m1 * (1 - m1)) * ms) * (1 - ms * ms)
        assert abs(res.value - ref) <= 1e-14 * ref

    @pytest.mark.parametrize("p1", [0.2, 0.5])
    def test_orthogonal_states(self, p1):
        # Bob's grid argmax is q1b = 0, where q2b = 0 (it used to divide by zero)
        assert grid_maximize_protocol2(Scenario(0.0, p1)) == (1.0, 0.0, 0.0)

    def test_identical_states_at_equal_priors(self):
        # Bob never succeeds, so Charlie's priors are not conditioned on it
        val, q1b, q1c = grid_maximize_protocol2(Scenario(1.0, 0.5))
        assert (val, q1b) == (0.0, 1.0) and math.isnan(q1c)
        assert protocol2_optimal(Scenario(1.0, 0.5)).value == 0.0


class TestCloningOracle:
    def test_symmetric_optimum(self):
        val, g1, g2 = grid_maximize_cloning(Scenario(0.36, 0.5))
        assert val == pytest.approx(1 / 1.36, abs=1e-6)
        assert g1 == pytest.approx(g2, abs=1e-3)

    def test_orthogonal_states(self):
        val, _, _ = grid_maximize_cloning(Scenario(0.0, 0.5))
        assert val == 1.0

    def test_constraint_respected_at_argmax(self):
        for p1 in (0.1, 0.3, 0.5):
            _, g1, g2 = grid_maximize_cloning(Scenario(0.2, p1))
            res = abs(0.2 - math.sqrt(g1 * g2) * 0.04 - math.sqrt((1 - g1) * (1 - g2)))
            assert res < 1e-10

    def test_argmax_where_gamma2_rounds_to_one(self):
        # gamma2 = x^2 rounds to 1.0 at the argmax, so 1 - gamma2 rounds to
        # 0; the residual takes sqrt(1 - gamma2) from the root's own y, or it
        # would see s itself
        rows = certify(
            quantities=["protocol3", "at_least_one_p3"],
            s_values=(2.54e-10,),
            p1_values=(1e-12,),
            tolerance=1e-12,
        )
        assert all(row.passed for row in rows), rows

    @pytest.mark.parametrize("s", [1e-12, 0.04, 0.5, 1.0 - 1e-9])
    def test_neither_branch_valid_gives_minus_inf(self, s):
        # with 1 - g1 = (s/2)^2 the constraint has no real root, R < 0: the
        # lanes are -inf, and on a float the expression body's and the
        # argmax root's math.sqrt raise
        g1 = np.array([1.0 - 0.25 * s * s, 1.0])
        assert np.all(_cloning_objective_values(g1, s, 0.3, 0.7) == -np.inf)
        for x in g1.tolist():
            with pytest.raises(ValueError):
                _cloning_objective(x, s, 0.3, 0.7, math.sqrt, min)
            with pytest.raises(ValueError):
                oracle_module._cloning_root(x, s)

    @pytest.mark.parametrize("s", [1e-10, 0.04, 0.36, 0.98, 1.0 - 1e-9])
    def test_a_point_with_no_root_is_never_the_argmax(self, s):
        # every lane past the tangent point is -inf, not the value p1 + p2 of
        # x clipped to 1 (a clip that takes NaN to 1 makes g1 = 1 the
        # argmax), and the oracle's argmax lies below the tangent
        g1 = np.linspace(0.0, 1.0, _SCAN_POINTS)
        values = _cloning_objective_values(g1, s, 0.3, 0.7)
        assert np.all(values[g1 > 1.0 / (1.0 + s * s)] == -np.inf)
        assert values[-1] == -np.inf and np.isfinite(values[0])
        _, argmax, _ = grid_maximize_cloning(Scenario(s, 0.3))
        assert argmax <= 1.0 / (1.0 + s * s)

    @pytest.mark.parametrize("s", [1e-300, 1e-12, 0.36, 1.0 - 2**-53])
    @pytest.mark.parametrize("p1", [1e-300, 0.3, 0.5])
    def test_first_scan_starts_at_a_root(self, s, p1):
        # gamma1 = 0, the first scan's first point, always has a constraint
        # root, of value about p2*(1 - s^2): so the scan's maximum is finite
        sc = Scenario(s, p1)
        (start,) = _cloning_objective_values(np.array([0.0]), s, sc.p1, sc.p2).tolist()
        assert math.isfinite(start)
        value = grid_maximize_cloning(sc)[0]
        assert math.isfinite(value) and value >= start

    def test_argmax_off_the_constraint_raises(self, monkeypatch):
        # gamma2 = 1 with sqrt(1 - gamma2) = 0 misses the constraint by
        # s*(1 - s*sqrt(gamma1)) >= s*(1 - s), here at least 0.2304
        monkeypatch.setattr(oracle_module, "_cloning_root", lambda g1, s: (1.0, 0.0))
        with pytest.raises(NumericError, match="violates the constraint at gamma1="):
            grid_maximize_cloning(Scenario(0.36, 0.2))


def _angle_objective(g1, s, p1, p2):
    """The former cloning objective, a test-only reference: gamma2 =
    cos^2(th2) at the angle th2 = psi - delta of the constraint written as
    A*cos(th2) + B*sin(th2) = s, with psi = arctan2(B, A) and delta =
    arccos(s / hypot(A, B)); -inf where th2 is NaN or outside [0, pi/2]
    beyond 1e-12."""
    a, b = s * s * np.sqrt(g1), np.sqrt(1.0 - g1)
    with np.errstate(invalid="ignore", divide="ignore"):
        th2 = np.arctan2(b, a) - np.arccos(s / np.hypot(a, b))
    valid = (th2 >= -1e-12) & (th2 <= 0.5 * math.pi + 1e-12)
    value = p1 * g1 + p2 * np.cos(np.clip(th2, 0.0, 0.5 * math.pi)) ** 2
    return np.where(valid, value, -np.inf)


def _two_root_objective(g1, s, p1, p2):
    """The reference for ``_cloning_objective_values``: both roots x =
    (A*s +- B*sqrt(R)) / (A^2 + B^2) by the body's own steps, each clipped at
    1 and valid where x >= 0, and the better value picked, the "+" root's on
    a tie; -inf where neither is valid."""
    ss = s * s
    co_g1 = 1.0 - g1
    den = ss * ss * g1 + co_g1
    with np.errstate(invalid="ignore"):
        root = np.sqrt((1.0 - s) * (1.0 + s) * (co_g1 - ss * g1))
    a_s, b_root = np.sqrt(g1) * (s * ss), np.sqrt(co_g1) * root
    best = np.full_like(g1, -np.inf)
    for x in ((a_s - b_root) / den, (a_s + b_root) / den):  # "+" last, so it wins a tie
        x = np.minimum(x, 1.0)
        value = p1 * g1 + p2 * (x * x)
        best = np.where((x >= 0.0) & (value >= best), value, best)  # False where x is NaN
    return best


def _tangent_neighbourhood(s):
    """g1 at the tangent point 1/(1 + s^2), 2000 ulps either side of it, and
    at relative offsets from 1e-15 to 1e-3 either side, cut to [0, 1]."""
    tangent = 1.0 / (1.0 + s * s)
    near = [tangent]
    for direction in (-math.inf, math.inf):
        x = tangent
        for _ in range(2000):
            x = math.nextafter(x, direction)
            near.append(x)
    offsets = np.geomspace(1e-15, 1e-3, 200)
    return np.clip(np.concatenate([near, tangent * (1.0 - offsets), tangent * (1.0 + offsets)]), 0.0, 1.0)


def _exact_value(g1, s, p1):
    """p1*g1 + p2*gamma2 at the "+" root in 50 digits, for the floats g1, s
    and p1; a point past the tangent by rounding (R < 0) takes R = 0."""
    with mpmath.workdps(50):
        g1, s, p1 = mpmath.mpf(g1), mpmath.mpf(s), mpmath.mpf(p1)
        a, b = s * s * mpmath.sqrt(g1), mpmath.sqrt(1 - g1)
        h2 = a * a + b * b
        x = (a * s + b * mpmath.sqrt(max(h2 - s * s, 0))) / h2
        return p1 * g1 + (1 - p1) * x * x, h2 - s * s


def _accuracy_points(seed, n):
    """n seeded (s, g1, p1) in each of three s regimes, uniform in (0, 1),
    log-uniform in [1e-10, 1] and 1 - 10^U(-9, -1): g1 below the tangent
    point by a relative 10^U(-16, -6) ("near") or 10^U(-6, 0) ("away")."""
    rng = np.random.default_rng(seed)
    s = np.concatenate(
        [rng.uniform(0.0, 1.0, n), np.exp(rng.uniform(math.log(1e-10), 0.0, n)), 1.0 - 10.0 ** rng.uniform(-9, -1, n)]
    )
    tangent = 1.0 / (1.0 + s * s)
    points = {}
    for kind, lo, hi in (("near", -16, -6), ("away", -6, 0)):
        g1 = tangent * (1.0 - 10.0 ** rng.uniform(lo, hi, 3 * n))
        points[kind] = list(zip(s.tolist(), g1.tolist(), rng.uniform(0.0, 0.5, 3 * n).tolist()))
    return points


_ROOT_S = (1e-10, 2.54e-10, 1e-6, 0.5, 1.0 - 1e-9)
_ROOT_P1 = (1e-12, 1e-6, 0.05, 0.3, 0.5)


class TestRootCloningObjective:
    """The cloning objective takes each point's better constraint root in
    closed form (``oracle._cloning_lanes``; ``_cloning_objective`` on a
    float)."""

    @pytest.mark.parametrize(
        "s,p1",
        [(s, p1) for s in _ROOT_S for p1 in _ROOT_P1]
        + [tuple(x) for x in np.random.default_rng(26).uniform([0.002, 1e-3], [0.98, 0.5], (20, 2)).tolist()],
    )
    def test_on_every_scan_of_the_oracle(self, monkeypatch, s, p1):
        # the first scan and both refinement windows, each lane against the
        # float body bit for bit: -inf exactly where math.sqrt raises
        scans = []
        lanes = oracle_module._cloning_lanes

        def recording(*args):
            body = lanes(*args)
            return lambda g1: scans.append(g1.copy()) or body(g1)

        monkeypatch.setattr(oracle_module, "_cloning_lanes", recording)
        value, g1_max, _ = grid_maximize_cloning(Scenario(s, p1))
        assert len(scans) == 1 + _REFINEMENT_PASSES  # the argmax's own call is on a float
        for g1 in scans:
            floats = []
            for x in g1.tolist():
                try:
                    floats.append(_cloning_objective(x, s, p1, 1.0 - p1, math.sqrt, min))
                except ValueError:
                    floats.append(-math.inf)
            assert np.array(floats).tobytes() == lanes(s, p1, 1.0 - p1)(g1).tobytes()
        assert _cloning_objective(g1_max, s, p1, 1.0 - p1, math.sqrt, min) == value

    @pytest.mark.parametrize("s", _ROOT_S + (0.04, 0.36, 0.98))
    def test_plus_root_is_the_better_of_both(self, s):
        # on a fine grid and next to the tangent point, where the two roots
        # meet; from s = 0.04 up the "-" root is a root (x >= 0) on part of
        # the grid, below only within about s^4 of the tangent point
        g1 = np.concatenate([np.linspace(0.0, 1.0, 200001), _tangent_neighbourhood(s)])
        for p1 in _ROOT_P1:
            got = _cloning_objective_values(g1, s, p1, 1.0 - p1)
            assert got.tobytes() == _two_root_objective(g1, s, p1, 1.0 - p1).tobytes(), (s, p1)
        with np.errstate(invalid="ignore"):
            root = np.sqrt((1.0 - s) * (1.0 + s) * ((1.0 - g1) - s * s * g1))
        minus = np.sqrt(g1) * s**3 - np.sqrt(1.0 - g1) * root
        assert (minus < 0.0).any() and (minus >= 0.0).any() == (s >= 0.04)
        assert np.isfinite(got).any() and (got == -np.inf).any()

    #: 50-digit error bounds near the tangent point and away from it. These
    #: 600 points came within 5.1e-10 and 8.8e-15 (the angle form within
    #: 1.2e-8 and 3.5e-10); 6,000 (seed 7, n = 1000) within 1.8e-9 and
    #: 1.8e-14 (the angle form 1.5e-8 and 6.0e-10)
    _EXACT_BOUNDS = {"near": 1e-9, "away": 2e-14}

    def test_within_a_bound_of_the_50_digit_root(self):
        # a point is -inf only where it has no real root, R <= 0 in 50 digits
        # (the angle form lost 9 of these points that have one)
        for kind, points in _accuracy_points(48, 100).items():
            for s, g1, p1 in points:
                got = float(_cloning_objective_values(np.array([g1]), s, p1, 1.0 - p1)[0])
                want, r = _exact_value(g1, s, p1)
                if got == -math.inf:
                    assert r <= 0, (s, g1)
                else:
                    assert abs(got - want) <= self._EXACT_BOUNDS[kind], (kind, s, g1, p1, got)

    @pytest.mark.parametrize("s", (1e-10, 1e-6, 0.04, 0.1716, 0.36, 0.6, 0.98))
    def test_angle_form_agrees_away_from_the_tangent(self, s):
        # the former objective, within 1e-6 relative of the tangent point
        # left out, where both lose digits to its conditioning; the two
        # differ by at most 1.5e-14, at s = 0.98
        g1 = np.linspace(0.0, 1.0, _SCAN_POINTS)
        g1 = g1[np.abs(g1 * (1.0 + s * s) - 1.0) > 1e-6]
        for p1 in _ROOT_P1:
            root, angle = _cloning_objective_values(g1, s, p1, 1.0 - p1), _angle_objective(g1, s, p1, 1.0 - p1)
            assert np.array_equal(np.isfinite(root), np.isfinite(angle))
            finite = np.isfinite(root)
            assert np.max(np.abs(root[finite] - angle[finite])) <= 3e-14, (s, p1)


_WINDOW_SCAN_SCENARIOS = [(1e-6, 0.4), (0.04, 0.05), (0.1716, 0.2), (0.36, 0.5), (0.6, 0.3), (0.98, 0.02)]


class TestWindowScanArgmax:
    """Each 1-D oracle returns its objective's value at its argmax, bit for
    bit, and no less than the maximum of its first 2001-point scan."""

    @pytest.mark.parametrize("s,p1", _WINDOW_SCAN_SCENARIOS)
    def test_stage_objective(self, s, p1):
        for r in (0.0, s, math.sqrt(s)):
            f = _stage_objective(p1, 1.0 - p1, r)
            value, q1 = oracle_module._grid_max_stage(p1, 1.0 - p1, r)
            assert r * r <= q1 <= 1.0
            assert value == float(f(np.array([q1]))[0])
            assert value >= float(np.max(f(np.linspace(r * r, 1.0, _SCAN_POINTS))))

    @pytest.mark.parametrize("s,p1", _WINDOW_SCAN_SCENARIOS[:3])
    def test_cloning_objective(self, s, p1):
        p2 = 1.0 - p1
        value, g1, g2 = grid_maximize_cloning(Scenario(s, p1))
        values = _cloning_objective_values(np.array([g1]), s, p1, p2)
        assert (value, g2) == (float(values[0]), _cloning_objective(g1, s, p1, p2, math.sqrt, min, roots=True)[1])
        first = _cloning_objective_values(np.linspace(0.0, 1.0, _SCAN_POINTS), s, p1, p2)
        assert value >= float(np.max(first))


def _stage_objective(p1, p2, r):
    """Success probability of one discrimination stage as a function of q1: on
    floats or arrays, or on ``Fraction``s, which its integer literals keep
    exact. The reference for the stage's lane body and its exact bounds."""
    r2 = r * r
    if r2 == 0:
        return lambda q: p1 * (1 - q) + p2  # orthogonal flags: q2 = 0
    return lambda q: p1 * (1 - q) + p2 * (1 - r2 / q)


def _stage_expression(q, p1, p2, r):
    """``_stage_objective``'s expression body on an array, allocating each
    operation's result: the reference for the stage's lane body."""
    return _stage_objective(p1, p2, r)(q)


def _cloning_objective(g1, s, p1, p2, sqrt, minimum, roots=False):
    """p1*gamma1 + p2*gamma2 at the better root of the cloning constraint
    (``oracle._cloning_lanes`` derives it), for g1 in [0, 1] and 0 < s < 1,
    on floats (``math.sqrt``, ``min``) or on arrays (``np.sqrt``,
    ``np.minimum``); with ``roots``, the tuple (value, gamma2,
    sqrt(1 - gamma2)). Past the tangent point R < 0: an array lane's value is
    NaN and ``math.sqrt`` raises on a float. The expression body, the
    reference for the cloning lane body and for the argmax's root
    (``oracle._cloning_root``)."""
    ss = s * s
    co_g1 = 1.0 - g1
    den = ss * ss * g1 + co_g1  # A^2 + B^2
    root = sqrt((1.0 - s) * (1.0 + s) * (co_g1 - ss * g1))  # sqrt(R)
    sqrt_g1, b = sqrt(g1), sqrt(co_g1)
    x = minimum((sqrt_g1 * (s * ss) + b * root) / den, 1.0)
    value = p1 * g1 + p2 * (x * x)
    if not roots:
        return value
    return value, x * x, (b * s - sqrt_g1 * ss * root) / den


def _cloning_expression(g1, s, p1, p2):
    """``_cloning_objective``'s expression body on an array (``np.sqrt``,
    ``np.minimum``), NaN made -inf: the reference for the cloning lane body."""
    with np.errstate(invalid="ignore", divide="ignore"):
        value = _cloning_objective(g1, s, p1, p2, np.sqrt, np.minimum)
    return np.where(np.isnan(value), -np.inf, value)


def _lane_scenarios():
    """(s, p1): 12 seeded draws of the certify range, s in [0.002, 0.98] and
    p1 in [0.02, 0.5], and s at 1e-12 and 1 - 1e-9 at seeded priors."""
    rng = np.random.default_rng(33)
    draws = rng.uniform([0.002, 0.02], [0.98, 0.5], (12, 2)).tolist()
    return [tuple(x) for x in draws] + [(s, float(p1)) for s in (1e-12, 1.0 - 1e-9) for p1 in rng.uniform(0.02, 0.5, 3)]


def _seeded_lanes(lo, hi, seed, n=2001):
    """n seeded lanes uniform in [lo, hi], with both ends and a scan's
    2001 grid points."""
    rng = np.random.default_rng(seed)
    return np.concatenate([[lo, hi], rng.uniform(lo, hi, n), np.linspace(lo, hi, _SCAN_POINTS)])


class TestLaneBodies:
    """Each scan's lane body (``oracle._stage_lanes``, ``oracle._cloning_lanes``)
    writes its expression body's operations into buffers made once per scan,
    so every lane is the expression's float bit for bit."""

    @pytest.mark.parametrize("s,p1", _lane_scenarios())
    def test_stage_lanes_are_the_expression(self, s, p1):
        # at Bob's and Charlie's overlaps, protocol (1)'s s, and r = 0 and 1
        for k, r in enumerate((0.0, s, math.sqrt(s), s / (0.5 * (1.0 + s)), 0.5 * (1.0 + s), 1.0)):
            q = _seeded_lanes(r * r, 1.0, k)
            got = oracle_module._stage_lanes(p1, 1.0 - p1, r)(q)
            assert got.tobytes() == _stage_expression(q, p1, 1.0 - p1, r).tobytes(), (s, p1, r)

    @pytest.mark.parametrize("s,p1", _lane_scenarios())
    def test_cloning_lanes_are_the_expression(self, s, p1):
        # lanes past the tangent point 1/(1 + s^2) have no root and read -inf
        g1 = _seeded_lanes(0.0, 1.0, 1)
        tangent = 1.0 / (1.0 + s * s)
        past = tangent + (1.0 - tangent) * np.random.default_rng(2).uniform(1e-3, 1.0, 500)
        g1 = np.concatenate([g1, past[past > tangent]])
        got = _cloning_objective_values(g1, s, p1, 1.0 - p1)
        assert got.tobytes() == _cloning_expression(g1, s, p1, 1.0 - p1).tobytes(), (s, p1)
        assert np.all(got[g1 > tangent] == -np.inf) and np.isfinite(got).any()
        assert (g1 > tangent).sum() >= (500 if s > 1e-6 else 0)

    @pytest.mark.parametrize("s,p1", _lane_scenarios()[::3])
    def test_a_single_lane_is_the_float(self, s, p1):
        # one lane against the expression on the float itself, the argmax's
        # path: math.sqrt raises where a lane reads -inf
        stage = oracle_module._stage_lanes(p1, 1.0 - p1, s)
        cloning = oracle_module._cloning_lanes(s, p1, 1.0 - p1)
        for q in _seeded_lanes(s * s, 1.0, 3, 20).tolist():
            assert stage(np.array([q])).tolist() == [_stage_objective(p1, 1.0 - p1, s)(q)]
        for g1 in _seeded_lanes(0.0, 1.0, 4, 20).tolist():
            try:
                want = _cloning_objective(g1, s, p1, 1.0 - p1, math.sqrt, min)
            except ValueError:
                want = -math.inf
            assert cloning(np.array([g1])).tolist() == [want]

    @pytest.mark.parametrize("s,p1", _lane_scenarios()[::3])
    def test_cloning_root_is_the_expression(self, s, p1):
        # the argmax's (gamma2, sqrt(1 - gamma2)) on its float, against the
        # expression body's roots bit for bit, and raising where it raises
        for g1 in _seeded_lanes(0.0, 1.0, 5, 200).tolist():
            try:
                want = _cloning_objective(g1, s, p1, 1.0 - p1, math.sqrt, min, roots=True)[1:]
            except ValueError:
                with pytest.raises(ValueError):
                    oracle_module._cloning_root(g1, s)
            else:
                assert oracle_module._cloning_root(g1, s) == want, g1

    @pytest.mark.parametrize("s,p1", [(0.36, 0.2), (1e-12, 0.3), (1.0 - 1e-9, 0.5)])
    def test_calls_of_other_sizes_leave_no_stale_lane(self, s, p1):
        # one scan's body: calls of one size reuse its value buffer, and a
        # call of another size gives exactly its own lanes, each the
        # expression's
        r = math.sqrt(s)
        bodies = (
            (oracle_module._stage_lanes(p1, 1.0 - p1, r), r * r, lambda x: _stage_expression(x, p1, 1.0 - p1, r)),
            (oracle_module._cloning_lanes(s, p1, 1.0 - p1), 0.0, lambda x: _cloning_expression(x, s, p1, 1.0 - p1)),
        )
        for body, lo, expression in bodies:
            first = body(np.linspace(lo, 1.0, _SCAN_POINTS))
            assert body(np.linspace(lo, 0.5 * (lo + 1.0), _SCAN_POINTS)) is first
            for k, n in enumerate((7, _SCAN_POINTS, 1, 3000, 2)):
                x = _seeded_lanes(lo, 1.0, 10 + k, n)[2 : 2 + n]
                got = body(x)
                assert got.shape == (n,) and got.tobytes() == expression(x).tobytes(), n


class TestSharedFirstPass:
    """The first scan of every [0, 1] window scan is one shared read-only
    grid (``core._unit_points``), on which the cloning lane body takes its
    scenario-free lanes from a read-only cache (``oracle._unit_lanes``)."""

    def test_cache_is_read_only_and_the_body_s_own_operations(self):
        g1 = oracle_module._unit_points(_SCAN_POINTS)
        lanes = oracle_module._unit_lanes()
        assert lanes is oracle_module._unit_lanes()
        assert g1.tobytes() == np.linspace(0.0, 1.0, _SCAN_POINTS).tobytes()
        want = (1.0 - g1, np.sqrt(g1), np.sqrt(1.0 - g1))
        for lane, expected in zip((g1, *lanes), (g1, *want)):
            assert not lane.flags.writeable and lane.tobytes() == expected.tobytes()
            with pytest.raises(ValueError):
                lane[0] = 0.5

    def test_certify_leaves_the_cache_as_it_was(self):
        arrays = (oracle_module._unit_points(_SCAN_POINTS), *oracle_module._unit_lanes())
        before = [a.tobytes() for a in arrays]
        rows = certify(None, (0.0, 0.04, 0.36, 1.0), (0.2, 0.5))
        assert len(rows) == 8 and all(row.passed for row in rows)
        assert [a.tobytes() for a in arrays] == before

    @pytest.mark.parametrize("s,p1", _lane_scenarios())
    def test_cloning_lanes_on_the_shared_grid_are_the_expression(self, s, p1):
        # the shared grid takes the cache, an equal copy of it the body's own
        # lanes: both are the expression bit for bit, in either call order
        g1 = oracle_module._unit_points(_SCAN_POINTS)
        want = _cloning_expression(g1, s, p1, 1.0 - p1).tobytes()
        for order in ((g1, g1.copy()), (g1.copy(), g1)):
            body = oracle_module._cloning_lanes(s, p1, 1.0 - p1)
            assert [body(x).tobytes() for x in order] == [want, want], (s, p1)


class TestUnionOracle:
    def test_matches_protocol1_value(self):
        sc = Scenario(0.36, 0.2)
        val, *_ = grid_maximize_union_ssd(sc)
        assert val == pytest.approx(0.712, abs=1e-6)


#: Points per axis of the 3-D reference's first scan, and per axis of each
#: of its refinements.
_JOINT_POINTS = 301
_REFINE_POINTS = 33


def _joint_factors(q1b, q2b, q1c, q2c, p1, p2):
    """Bob and Charlie factors whose rank-2 product is ``_joint_term``."""
    return ((1.0 - q1b) * p1, (1.0 - q2b) * p2), (1.0 - q1c, 1.0 - q2c)


def _union_factors(q1b, q2b, q1c, q2c, p1, p2):
    """Factors of ``_union_term`` less its constant p1 + p2, which moves no
    argmax; Charlie's are q1c and q2c themselves."""
    return (q1b * -p1, q2b * -p2), (q1c, q2c)


def _reference_max_3d(scenario, slice_best, n=_JOINT_POINTS):
    """A brute-force scan of the whole (t, q1b, q1c) box, with q1b in
    [(s/t)^2, 1] and q1c in [t^2, 1] on unit grids, and two refinements of
    ``_REFINE_POINTS`` per axis around the best point, one t-slice at a time:
    ``slice_best(q1b, q2b, q1c, q2c)`` gives a slice's first maximum as
    (value, ib, ic), and the first highest value over the slices wins."""
    s = scenario.s
    t_lo_global = max(s, 1e-9)

    def evaluate(ts, us, vs):
        best = (-1.0, 0.0, 0.0, 0.0)
        r2 = (s / ts) ** 2
        for j, t in enumerate(ts):
            lob = r2[j]
            q1b = lob + us * (1.0 - lob)
            q1c = t * t + vs * (1.0 - t * t)
            q2b = np.where(q1b > 0.0, lob / np.where(q1b > 0.0, q1b, 1.0), 1.0)
            q2c = t * t / q1c
            v, ib, ic = slice_best(q1b, q2b, q1c, q2c)
            if v > best[0]:
                best = (v, float(t), float(q1b[ib]), float(q1c[ic]))
        return best

    best = evaluate(
        np.linspace(t_lo_global, 1.0, n), np.linspace(0.0, 1.0, n), np.linspace(0.0, 1.0, n)
    )
    t_step = (1.0 - t_lo_global) / (n - 1)
    u_step = 1.0 / (n - 1)
    for _ in range(_REFINEMENT_PASSES):
        t0 = best[1]
        lob = (s / t0) ** 2 if t0 > 0 else 0.0
        u0 = (best[2] - lob) / (1.0 - lob) if lob < 1.0 else 0.0
        v0 = (best[3] - t0 * t0) / (1.0 - t0 * t0) if t0 < 1.0 else 0.0
        ts = np.linspace(
            max(t_lo_global, t0 - 1.5 * t_step), min(1.0, t0 + 1.5 * t_step), _REFINE_POINTS
        )
        us = np.linspace(max(0.0, u0 - 1.5 * u_step), min(1.0, u0 + 1.5 * u_step), _REFINE_POINTS)
        vs = np.linspace(max(0.0, v0 - 1.5 * u_step), min(1.0, v0 + 1.5 * u_step), _REFINE_POINTS)
        cand = evaluate(ts, us, vs)
        if cand[0] > best[0]:
            best = cand
        t_step *= 3.0 / _REFINE_POINTS
        u_step *= 3.0 / _REFINE_POINTS
    return best


def _max_3d_loop(scenario, term, n=_JOINT_POINTS):
    """Elementwise 3-D reference: each t-slice is the full (q1b, q1c) array
    of ``term``."""
    p1, p2 = scenario.p1, scenario.p2

    def slice_best(q1b, q2b, q1c, q2c):
        val = term(q1b[:, None], q2b[:, None], q1c[None, :], q2c[None, :], p1, p2)
        k = int(np.argmax(val))
        return float(val.flat[k]), *divmod(k, len(q1c))

    return _reference_max_3d(scenario, slice_best, n)


@functools.cache
def _max_3d_rank2(scenario, term, factors, n=_JOINT_POINTS):
    """Rank-2 3-D reference: each t-slice is the full (q1b, q1c) array of
    a1*b1 + a2*b2 over the ``factors``, each product and the sum rounded once
    (a matmul rounds through BLAS and ranks ties on the union's flat ridge
    Q1*Q2 = s^2 differently), and its first maximum is re-evaluated with
    ``term``. einsum forms each outer product: the same bits as a broadcast
    ``multiply``, in about 0.4 of its time. Memoized: the diagonal tests and
    the certificates' cross-checks share scenarios, and each is scanned
    once."""
    p1, p2 = scenario.p1, scenario.p2
    buffers = np.empty((2, max(n, _REFINE_POINTS) ** 2))

    def slice_best(q1b, q2b, q1c, q2c):
        (a1, a2), (b1, b2) = factors(q1b, q2b, q1c, q2c, p1, p2)
        slab, prod = buffers[:, : len(q1b) * len(q1c)].reshape(2, len(q1b), len(q1c))
        np.einsum("i,j->ij", a1, b1, out=slab)
        slab += np.einsum("i,j->ij", a2, b2, out=prod)
        ib, ic = divmod(int(np.argmax(slab)), len(q1c))
        return float(term(q1b[ib], q2b[ib], q1c[ic], q2c[ic], p1, p2)), ib, ic

    return _reference_max_3d(scenario, slice_best, n)


#: The 3-D references' (term, factors) for the joint and the union.
_REFERENCES = [(_joint_term, _joint_factors), (_union_term, _union_factors)]
_SCAN_IDS = ["joint", "union"]

scenarios = st.builds(
    Scenario,
    s=st.floats(min_value=1e-10, max_value=0.999),
    p1=st.floats(min_value=1e-3, max_value=0.5),
)


class TestRank2SliceScan:
    """The rank-2 slice products find the elementwise scan's maximum within 1e-15."""

    @pytest.mark.parametrize("term,factors", _REFERENCES, ids=_SCAN_IDS)
    @settings(max_examples=40, deadline=None)
    @given(sc=scenarios)
    def test_random_scenarios_coarse_grid(self, term, factors, sc):
        assert abs(_max_3d_rank2(sc, term, factors, n=100)[0] - _max_3d_loop(sc, term, n=100)[0]) <= 1e-15

    @pytest.mark.parametrize("term,factors", _REFERENCES, ids=_SCAN_IDS)
    @pytest.mark.parametrize("s,p1", [(0.04, 0.5), (0.36, 0.2), (0.6, 0.05)])
    def test_fixed_scenarios_coarse_grid(self, term, factors, s, p1):
        sc = Scenario(s, p1)
        assert abs(_max_3d_rank2(sc, term, factors, n=100)[0] - _max_3d_loop(sc, term, n=100)[0]) <= 1e-15

    @pytest.mark.parametrize("term,factors", _REFERENCES, ids=_SCAN_IDS)
    @pytest.mark.parametrize("s,p1", [(0.04, 0.5), (0.36, 0.2), (0.6, 0.05)])
    def test_fixed_scenarios_default_grid(self, term, factors, s, p1):
        # the grid on which the cross-checks run the rank-2 reference
        sc = Scenario(s, p1)
        assert abs(_max_3d_rank2(sc, term, factors)[0] - _max_3d_loop(sc, term)[0]) <= 1e-15


_CERT_GRID = [(s, p1) for s in CERT_S_VALUES for p1 in CERT_P1_VALUES]


def _seeded_edge_scenarios():
    # s log-uniform in [1e-10, 1 - 1e-9] and p1 log-uniform down to 1e-8, plus
    # the ends of the domain, the symmetry break and a tiny prior
    rng = np.random.default_rng(1308)
    s = np.exp(rng.uniform(math.log(1e-10), math.log(1.0 - 1e-9), 36))
    p1 = np.exp(rng.uniform(math.log(1e-8), math.log(0.5), 36))
    fixed = [(0.0, 0.3), (1.0, 0.3), (SYMMETRY_BREAK_OVERLAP, 0.5), (0.36, 1e-300)]
    return fixed + list(zip(s.tolist(), p1.tolist()))


def _pc_tie_scenarios():
    # P_C, where the joint optimum has two basins of equal height, and tiny
    # s, where the joint's maximum sits near u = sqrt(s)
    ties = [(s, critical_prior_PC(s).value) for s in np.geomspace(1e-3, 0.17, 8).tolist()]
    return ties + [(1e-9, 0.5), (1e-12, 0.5)]


def _workload_scenarios():
    # 12 seeded draws from the certify benchmark's range, then p1 = 1/2 at
    # s = 0.1716 and 0.2, near the symmetry break
    rng = np.random.default_rng(4242)
    draws = zip(rng.uniform(0.002, 0.98, 12).tolist(), rng.uniform(0.02, 0.5, 12).tolist())
    return list(draws) + [(0.1716, 0.5), (0.2, 0.5)]


log_uniform_scenarios = st.builds(
    Scenario,
    s=st.floats(min_value=1e-10, max_value=0.999),
    p1=st.floats(min_value=math.log(1e-12), max_value=math.log(0.5)).map(
        lambda x: min(0.5, math.exp(x))
    ),
)

#: The diagonal scans with the term and factors of their 3-D references.
_DIAGONALS = [
    (grid_maximize_joint, _joint_term, _joint_factors),
    (grid_maximize_union_ssd, _union_term, _union_factors),
]


def _assert_diagonal_holds_the_box_maximum(oracle, term, reference, sc):
    """``oracle``'s tuple is on the diagonal t = sqrt(s), q1b = q1c = u, its
    value is ``term`` there, and no point of the 3-D ``reference`` scan of
    the whole box is higher, up to 2 ulps of 1."""
    value, t, q1b, q1c = oracle(sc)
    q2 = sc.s / q1b if sc.s else 0.0
    assert (t, q1c) == (math.sqrt(sc.s), q1b)
    assert value == float(term(q1b, q2, q1b, q2, sc.p1, sc.p2))
    assert value >= reference[0] - 2 * math.ulp(1.0), (value, reference)


class TestDiagonalHoldsTheBoxMaximum:
    """Each diagonal scan is at least the 3-D reference's maximum of the
    whole (t, q1b, q1c) box, less 2 ulps of 1: the box optimum lies on the
    diagonal. Read: at most 1.7e-16 below it, on the union's flat ridge
    Q1*Q2 = s^2, and up to 2.1e-13 above it, where the 3-D grid misses
    t = sqrt(s)."""

    @pytest.mark.parametrize("oracle,term,factors", _DIAGONALS, ids=_SCAN_IDS)
    @pytest.mark.parametrize("s,p1", _CERT_GRID)
    def test_certification_grid(self, oracle, term, factors, s, p1):
        sc = Scenario(s, p1)
        _assert_diagonal_holds_the_box_maximum(oracle, term, _max_3d_rank2(sc, term, factors), sc)

    @pytest.mark.parametrize("oracle,term,factors", _DIAGONALS, ids=_SCAN_IDS)
    @pytest.mark.parametrize("s,p1", _seeded_edge_scenarios())
    def test_seeded_edge_scenarios(self, oracle, term, factors, s, p1):
        sc = Scenario(s, p1)
        _assert_diagonal_holds_the_box_maximum(oracle, term, _max_3d_rank2(sc, term, factors), sc)

    @pytest.mark.parametrize("oracle,term,factors", _DIAGONALS, ids=_SCAN_IDS)
    @pytest.mark.parametrize("s,p1", _pc_tie_scenarios())
    def test_two_basins_and_tiny_overlaps(self, oracle, term, factors, s, p1):
        sc = Scenario(s, p1)
        _assert_diagonal_holds_the_box_maximum(oracle, term, _max_3d_rank2(sc, term, factors), sc)

    @pytest.mark.parametrize("oracle,term,factors", _DIAGONALS, ids=_SCAN_IDS)
    @pytest.mark.parametrize("s,p1", _workload_scenarios())
    def test_certify_workload_draws(self, oracle, term, factors, s, p1):
        sc = Scenario(s, p1)
        _assert_diagonal_holds_the_box_maximum(oracle, term, _max_3d_rank2(sc, term, factors), sc)

    @pytest.mark.parametrize("oracle,term,factors", _DIAGONALS, ids=_SCAN_IDS)
    @settings(max_examples=40, deadline=None)
    @given(sc=log_uniform_scenarios)
    # ties on the union's flat ridge Q1*Q2 = s^2
    @example(sc=Scenario(0.4, 0.49999999999999994))
    @example(sc=Scenario(0.25817803361335, 0.1141424420877434))
    def test_random_scenarios_coarse_grid(self, oracle, term, factors, sc):
        _assert_diagonal_holds_the_box_maximum(oracle, term, _max_3d_rank2(sc, term, factors, n=100), sc)

    @pytest.mark.parametrize("oracle", [d[0] for d in _DIAGONALS], ids=_SCAN_IDS)
    def test_one_call_peaks_below_250_kb(self, oracle):
        # a few arrays of the scan's points (read: 113 kB joint, 97 kB union)
        assert _one_call_peak(oracle, Scenario(0.36, 0.2)) < 2.5e5

    @pytest.mark.parametrize("s,p1", _CERT_GRID)
    def test_first_highest_point_wins_on_rounded_ties(self, s, p1):
        # rounding the joint term ties the points of a plateau: the first
        # scan's first highest point stays unless a refinement is higher
        def term(*args):
            return np.round(_joint_term(*args), 2)

        sc = Scenario(s, p1)
        us = np.linspace(s, 1.0, _SCAN_POINTS)
        q2 = s / us if s else np.zeros_like(us)
        first = term(us, q2, us, q2, sc.p1, sc.p2)
        i = int(np.argmax(first))
        value, _, u, _ = _max_diagonal(sc, term)
        assert value >= first[i]
        if value == first[i]:
            assert u == us[i]


def _one_call_peak(oracle, sc):
    """The bytes that one call of ``oracle`` on ``sc`` allocates at its peak,
    after a warm-up call."""
    oracle(sc)
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        oracle(sc)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()


def _recording(fn, calls):
    """``fn``, appending each result to ``calls``."""

    def wrapped(*args):
        calls.append(fn(*args))
        return calls[-1]

    return wrapped


#: Scenarios of the cloning rows' tests, all with 0 < s < 1, where the
#: optimal cloner is solved.
_CLONING_S = (0.04, 0.36, 0.6)
_CLONING_P1 = (0.2, 0.5)


class TestCertify:
    def test_single_quantity_passes(self):
        rows = certify(quantities=["protocol1"], s_values=(0.2,), p1_values=(0.3, 0.5))
        assert len(rows) == 1
        assert rows[0].passed

    def test_unknown_quantity_rejected(self):
        with pytest.raises(DomainError):
            certify(quantities=["nonsense"])

    def test_a_string_of_quantity_names_is_rejected(self):
        # a str is a sequence of its characters, each an unknown quantity
        with pytest.raises(DomainError, match="'joint' must be a sequence of quantity names"):
            certify(quantities="joint")

    @pytest.mark.parametrize("quantities", [5, [["bob"]]], ids=["number", "nested_list"])
    def test_rejects_quantities_that_are_not_names(self, quantities):
        # a bare TypeError from list(5), and "unhashable type" from a list as a name
        with pytest.raises(DomainError, match="must be a sequence of quantity names"):
            certify(quantities, [0.2], [0.3])

    @pytest.mark.parametrize(
        "grid", [[[0.2, 0.3], [0.4]], ["0.2"], [True]], ids=["ragged", "strings", "bools"]
    )
    @pytest.mark.parametrize("name", ["s_values", "p1_values"])
    def test_rejects_a_ragged_grid_or_one_of_strings(self, name, grid):
        # numpy's ValueError ("inhomogeneous shape") from np.ndim, a bare
        # TypeError from Scenario comparing str with float, and True taken
        # as s = 1 (a row at worst_scenario (True, 0.3)) or as p1 = 1
        with pytest.raises(DomainError, match=f"{name}=.* must be a sequence of numbers"):
            certify(["bob"], **{"s_values": [0.2], "p1_values": [0.3], name: grid})

    @pytest.mark.parametrize(
        "grid",
        [[0.2], (0.2,), range(1), np.array([0.2]), [np.float64(0.2)], [Fraction(1, 5)]],
        ids=["list", "tuple", "range", "ndarray", "numpy_float", "fraction"],
    )
    @pytest.mark.parametrize("name", ["s_values", "p1_values"])
    def test_accepts_a_flat_sequence_of_numbers(self, name, grid):
        # each value reaches Scenario as given; range(1)'s p1 = 0 then fails
        # Scenario's prior check, not the grid's. The row holds the
        # Scenario's Python floats, whatever number type the grid holds
        grids = {"s_values": [0.2], "p1_values": [0.3], name: grid}
        if name == "p1_values" and isinstance(grid, range):
            with pytest.raises(DomainError, match="prior p1=0 outside"):
                certify(["protocol1"], **grids)
            return
        (row,) = certify(["protocol1"], **grids)
        scenario = Scenario(grids["s_values"][0], grids["p1_values"][0])
        assert row.passed and row.worst_scenario == (scenario.s, scenario.p1)
        assert all(type(x) is float for x in row.worst_scenario)

    @pytest.mark.parametrize(
        "grid",
        [
            np.array([[0.2]]),
            np.array(0.2),
            (x for x in [0.2]),
            {0.2: 1},
            {0.2},
            b"\x00",
            None,
            ((0.2,),),
            [np.True_],
            # neither a list nor a tuple, and ragged: np.ndim raises ValueError
            collections.deque([[0.2], [0.3, 0.4]]),
        ],
        ids=[
            "ndarray_2d",
            "ndarray_0d",
            "generator",
            "dict",
            "set",
            "bytes",
            "none",
            "nested_tuple",
            "numpy_bool",
            "ragged_deque",
        ],
    )
    @pytest.mark.parametrize("name", ["s_values", "p1_values"])
    def test_rejects_what_is_no_flat_sequence_of_numbers(self, name, grid):
        with pytest.raises(DomainError, match=f"{name}=.* must be a sequence of numbers"):
            certify(["protocol1"], **{"s_values": [0.2], "p1_values": [0.3], name: grid})

    def test_tolerance_below_grid_resolution_fails(self):
        # protocol (2)'s row is still scanned: its gap here is 2.7e-9
        rows = certify(quantities=["protocol2"], s_values=(0.36,), p1_values=(0.2,), tolerance=1e-13)
        assert not rows[0].passed

    @pytest.mark.parametrize(
        "names",
        [
            ["protocol3"],
            ["at_least_one_p3"],
            ["protocol3", "at_least_one_p3"],
            ["at_least_one_p3", "protocol3"],
        ],
    )
    def test_cloning_rows_share_one_cloner_and_one_enclosure_per_scenario(self, monkeypatch, names):
        calls = {}
        for module, fn in (
            (protocols_module, protocols_module._clone_for_prior),
            (oracle_module, oracle_module._cloning_bounds),
            (oracle_module, oracle_module.grid_maximize_cloning),  # the tests' cross-check alone
        ):
            calls[fn.__name__] = []
            monkeypatch.setattr(module, fn.__name__, _recording(fn, calls[fn.__name__]))
        certify(names, _CLONING_S, _CLONING_P1)
        n = len(_CLONING_S) * len(_CLONING_P1)
        counts = {name: len(c) for name, c in calls.items()}
        assert counts == {"_clone_for_prior": n, "_cloning_bounds": n, "grid_maximize_cloning": 0}

    def test_cloning_rows_equal_their_single_rows(self):
        together = certify(["protocol3", "at_least_one_p3"], _CLONING_S, _CLONING_P1)
        alone = [certify([row.quantity], _CLONING_S, _CLONING_P1)[0] for row in together]
        assert [row.quantity for row in together] == ["protocol3", "at_least_one_p3"]
        assert together == alone

    def test_reordered_names_give_one_row_each_in_order(self):
        # a repeated name is rejected (TestCertifyTolerance)
        names = ["at_least_one_p3", "bob", "protocol3"]
        rows = certify(names, (0.36,), (0.2, 0.5))
        assert [row.quantity for row in rows] == names
        for row in rows:
            assert row == certify([row.quantity], (0.36,), (0.2, 0.5))[0]


def _as_fractions(bounds):
    """Integer (numerator, denominator) pairs, such as ``bounds._stage_bounds``
    and ``bounds._joint_bounds`` give, as ``Fraction``s."""
    return tuple(Fraction(n, d) for n, d in bounds)


def _ulps_outside(value, lower, upper):
    """How far a float lies outside [lower, upper], in its own ulps."""
    v = Fraction(value)
    return float(max(lower - v, v - upper, 0) / Fraction(math.ulp(value)))


def _reference_dual_bound(p1, p2, r):
    """The stage's semidefinite dual bound in ``Fraction``s, the reference for
    ``bounds._stage_bounds``' upper bound: the least of the case-I dual point
    (p1, p2, c), c the 2^-200 multiple just below sqrt(p1*p2), and, where p1
    <= r^2*p2, the case-II point's p2*(1 - r^2)."""
    g = p1 * p2
    bits = bounds_module._DUAL_BITS
    c = Fraction(math.isqrt((g.numerator << 2 * bits) // g.denominator), 1 << bits)
    upper = p1 + p2 - 2 * r * c
    if p1 <= r * r * p2:
        upper = min(upper, p2 * (1 - r * r))
    return upper


def _reference_stage_certificate(p1, p2, r, q1):
    """``bounds._stage_bounds``' (lower, upper) in ``Fraction``s, each argument
    taken exactly: the stage's success at q1, and its dual bound."""
    p1, p2, r = (Fraction(x) for x in (p1, p2, r))
    if not (math.isfinite(q1) and r * r <= (q1 := Fraction(q1)) <= 1):
        raise ConstraintError(f"q1={float(q1)!r} outside [r^2, 1] for r={float(r)!r}")
    return _stage_objective(p1, p2, r)(q1), _reference_dual_bound(p1, p2, r)


def _reference_joint_certificate(p1, p2, s, q, near=None):
    """``bounds._joint_bounds``' (lower, upper) in ``Fraction``s: g(q), and the
    largest of g(s), g(1) and, where q*'s quartic has three roots in [s, 1],
    g at the floats a < b around the middle one and p1*(1 - a)^2 + p2*(1 -
    s/b)^2."""
    if not s <= q <= 1.0:
        raise ConstraintError(f"q={q!r} outside [s, 1] for s={s!r}")
    start = q if near is None else near
    p1, p2, s, q = (Fraction(x) for x in (p1, p2, s, q))
    if s == 0:  # orthogonal states: q2 = 0, so g(u) = p1*(1 - u)^2 + p2
        return p1 * (1 - q) ** 2 + p2, p1 + p2

    def g(u):
        return p1 * (1 - u) ** 2 + p2 * (1 - s / u) ** 2

    upper = max(g(s), g(1))
    if s < 1:
        coefficients = (p1, -p1, 0, p2 * s, -p2 * s * s)
        den = math.lcm(*(c.denominator for c in coefficients))
        chain = _sturm_chain(bounds_module._primitive([c.numerator * (den // c.denominator) for c in coefficients]))
        if _root_count(chain, s, 1) >= 3:
            a, b = (Fraction(x) for x in _root_bracket(chain, float(s), 1.0, 2, start))
            upper = max(upper, g(a), g(b), p1 * (1 - a) ** 2 + p2 * (1 - s / b) ** 2)
    return g(q), upper


def _union_bounds(sc):
    """The union certificate's (lower, upper) at the closed form's argmax,
    derived apart from ``bounds._stage_bounds``: ``_union_term`` at (t,
    q1b, q1c) = (1, q1_product, 1), and the stage's dual bound at r = s."""
    p1, p2, s = Fraction(sc.p1), Fraction(sc.p2), Fraction(sc.s)
    q1b = Fraction(at_least_one_ssd(sc).argmax["q1_product"])
    lower = _union_term(q1b, s * s / q1b if q1b else 0, 1, 1, p1, p2)
    return lower, _reference_dual_bound(p1, p2, s)


def _union_scenarios():
    """328 seeded scenarios: the ends s = 0 and 1, s = 1e-12 and 1 - 1e-9 at
    equal, generic, tiny and subnormal priors and at the case boundary
    s^2/(1+s^2) and within 1e-12 relative of it (less the one above 1/2);
    then 60 each at p1 = 1/2, within 1e-12 relative of the boundary, at
    p1 <= 1e-12 with s down to 1e-15, with 1 - s down to 1e-16, and
    uniform."""
    out = []
    for s in (0.0, 1.0, 1e-12, 1.0 - 1e-9):
        out += [(s, p1) for p1 in (0.5, 0.3, 1e-12, 1e-300, 5e-324)]
        if s > 0.0:
            out += [(s, s * s / (1.0 + s * s) * (1.0 + e)) for e in (-1e-12, 0.0, 1e-12)]
    rng = np.random.default_rng(4141)
    s = rng.uniform(0.0, 1.0, 120)
    out += [(x, 0.5) for x in s[:60]]
    out += [(x, x * x / (1.0 + x * x) * (1.0 + e)) for x, e in zip(s[60:], rng.uniform(-1e-12, 1e-12, 60))]
    tiny = np.exp(rng.uniform(math.log(1e-15), 0.0, 60))
    out += list(zip(tiny, np.exp(rng.uniform(math.log(1e-300), math.log(1e-12), 60))))
    out += list(zip(1.0 - np.exp(rng.uniform(math.log(1e-16), math.log(0.1), 60)), rng.uniform(1e-6, 0.5, 60)))
    out += list(zip(rng.uniform(0.0, 1.0, 60), rng.uniform(1e-6, 0.5, 60)))
    return [(float(s), float(p1)) for s, p1 in out if p1 <= 0.5]


_UNION_SCENARIOS = _union_scenarios()


class TestStageCertificate:
    """``bounds._stage_bounds``' exact bounds hold protocol (1) at r = s,
    Charlie at r = t and Bob at the exact r = s/t within a pinned number of
    ulps: the closed forms read at most 1.264 ulps outside [L, U] on the 5x6
    grid (protocol (1) and Charlie), 1.0002 on figure 4's P1_max column and
    3.2477 on figure 2's Bob columns."""

    @pytest.mark.parametrize("s,p1", _CERT_GRID)
    def test_protocol1_and_charlie_on_the_certification_grid(self, s, p1):
        sc = Scenario(s, p1)
        cells = [(protocol1_optimal(sc), s, "q1b")]
        cells += [(charlie_optimal(sc, t), t, "q1c") for t in (math.sqrt(s), 0.5 * (1.0 + s))]
        for result, r, name in cells:
            lower, upper = _as_fractions(bounds_module._stage_bounds(sc.p1, sc.p2, r, 1, result.argmax[name]))
            assert lower <= upper
            assert _ulps_outside(result.value, lower, upper) <= 1.3, (r, name)

    def test_figure_4_protocol1_column(self):
        s = np.full(_P1_GRID.shape, 0.04)
        for p1, lane in zip(_P1_GRID.tolist(), protocol1_optimal_values(s, _P1_GRID).tolist()):
            sc = Scenario(0.04, p1)
            result = protocol1_optimal(sc)
            assert result.value == lane
            lower, upper = _as_fractions(bounds_module._stage_bounds(sc.p1, sc.p2, 0.04, 1, result.argmax["q1b"]))
            assert _ulps_outside(result.value, lower, upper) <= 1.01, p1

    def test_figure_2_bob_columns(self):
        # r is the exact quotient of the floats s and t: at s = 0.05 and
        # t = 0.06 (r near 5/6) the cells read at most 3.2477 ulps, at
        # p1 = 0.2025; at t = 0.1 at most 1.2907
        _, rows = run_figure("2")
        fixed = [c[2] for c in FIGURE_PRESETS["2"].columns]
        assert len(rows) == 200 and len(fixed) == 2
        for p1, *cells in rows:
            for at, value in zip(fixed, cells):
                s, t = at["s"], at["t"]
                sc = Scenario(s, p1)
                result = bob_optimal(sc, t)
                assert result.value == value
                lower, upper = _as_fractions(bounds_module._stage_bounds(sc.p1, sc.p2, s, t, result.argmax["q1b"]))
                assert lower <= upper
                assert _ulps_outside(value, lower, upper) <= 3.2477, (p1, t)

    def test_bounds_are_rationals_and_take_a_rational_overlap(self):
        # Bob's r = s/t kept exact as x/y: 3/7 has no float
        bounds = bounds_module._stage_bounds(0.2, 0.8, 3, 7, 0.5)
        assert all(type(n) is int and type(d) is int and d > 0 for n, d in bounds)
        lower, upper = _as_fractions(bounds)
        r2 = Fraction(9, 49)
        assert lower == Fraction(0.2) * Fraction(1, 2) + Fraction(0.8) * (1 - 2 * r2)
        assert lower <= upper

    def test_case_ii_dual_point_is_the_boundary_value(self):
        # p1 <= r^2*p2: the optimum p2*(1 - r^2) at q1 = 1 is met from both sides
        lower, upper = _as_fractions(bounds_module._stage_bounds(0.1, 0.9, 0.5, 1, 1.0))
        assert lower == upper == Fraction(0.9) * (1 - Fraction(1, 4))

    def test_orthogonal_flags(self):
        # r = 0: q2 = 0 and the stage succeeds surely at q1 = 0
        bounds = _as_fractions(bounds_module._stage_bounds(0.3, 0.7, 0.0, 1, 0.0))
        assert bounds == (Fraction(0.3) + Fraction(0.7),) * 2

    @pytest.mark.parametrize("q1", [0.2, 1.0 + 2**-52, 0.0, math.nan, math.inf])
    def test_infeasible_argmax_is_rejected(self, q1):
        # below r^2 = 0.25, above 1, q1 = 0 at r > 0, and NaN and inf, on
        # which Fraction raises a bare ValueError and OverflowError
        with pytest.raises(ConstraintError, match="outside \\[r\\^2, 1\\]"):
            bounds_module._stage_bounds(0.3, 0.7, 0.5, 1, q1)

    @pytest.mark.parametrize("objective", ["stage", "union", "joint"])
    def test_objectives_on_floats_arrays_and_rationals(self, objective):
        # integer literals: bit for bit with 1.0 on floats and arrays, exact on Fractions
        p1, p2, r, q = 0.3, 0.7, 0.36, np.linspace(0.1296, 1.0, 101)
        if objective == "stage":
            f, ref = _stage_objective(p1, p2, r), lambda q: p1 * (1.0 - q) + p2 * (1.0 - r * r / q)
        elif objective == "union":
            f = lambda q: _union_term(q, r * r / q, 0.9, 1.0 / 0.9, p1, p2)
            ref = lambda q: p1 * (1.0 - q * 0.9) + p2 * (1.0 - (r * r / q) * (1.0 / 0.9))
        else:
            f = lambda q: _joint_term(q, r * r / q, 0.9, 0.4, p1, p2)
            ref = lambda q: p1 * (1.0 - q) * (1.0 - 0.9) + p2 * (1.0 - r * r / q) * (1.0 - 0.4)
        assert np.array_equal(f(q), ref(q))
        assert [f(x) for x in q.tolist()] == ref(q).tolist()
        p1, p2, half = Fraction(1, 4), Fraction(3, 4), Fraction(1, 2)
        if objective == "stage":
            exact = _stage_objective(p1, p2, half)(half)
        elif objective == "union":
            exact = _union_term(half, half, 1, 1, p1, p2)
        else:
            exact = _joint_term(half, half, 0, 0, p1, p2)
        assert type(exact) is Fraction and exact == p1 * half + p2 * half


class TestUnionCertificate:
    """The union row from exact bounds: L = ``_union_term`` at the closed
    form's argmax, U = the stage's dual bound at r = s."""

    @pytest.mark.parametrize("s,p1", _CERT_GRID + _UNION_SCENARIOS)
    def test_closed_form_within_its_bounds(self, s, p1):
        # worst read: 1.44 ulps outside [L, U]; the row's gap at most 1.60e-16
        sc = Scenario(s, p1)
        lower, upper = _union_bounds(sc)
        assert lower <= upper
        # at t = 1 the union term is the stage objective at r = s
        argmax = at_least_one_ssd(sc).argmax["q1_product"]
        assert (lower, upper) == _as_fractions(bounds_module._stage_bounds(sc.p1, sc.p2, s, 1, argmax))
        assert _ulps_outside(at_least_one_ssd(sc).value, lower, upper) <= 1.5
        assert certify(["at_least_one_ssd"], [s], [p1])[0].worst_gap < 1e-15

    def test_seeded_set_covers_the_edges(self):
        assert len(_UNION_SCENARIOS) >= 300
        s = {s for s, _ in _UNION_SCENARIOS}
        assert {0.0, 1.0, 1e-12, 1.0 - 1e-9} <= s
        assert any(p1 <= 1e-12 for _, p1 in _UNION_SCENARIOS)
        assert sum(p1 == 0.5 for _, p1 in _UNION_SCENARIOS) >= 60

    def test_figure_5_union_column(self):
        for p1 in _P1_GRID.tolist():
            sc = Scenario(0.36, p1)
            assert _ulps_outside(at_least_one_ssd(sc).value, *_union_bounds(sc)) <= 1.5, p1

    def test_certify_row_runs_no_grid_scan(self, monkeypatch):
        def scan(sc):
            raise AssertionError("the union row scanned (t, q1b, q1c)")

        monkeypatch.setattr(oracle_module, "grid_maximize_union_ssd", scan)
        (row,) = certify(["at_least_one_ssd"], tolerance=1e-15)
        assert row.passed

    def test_value_off_by_1e_12_fails(self, monkeypatch):
        def shifted(sc):
            result = at_least_one_ssd(sc)
            return type(result)(result.value - 1e-12, result.case_label, result.argmax, result.boundary_prior)

        monkeypatch.setattr(oracle_module, "at_least_one_ssd", shifted)
        (row,) = certify(["at_least_one_ssd"], tolerance=1e-15)
        assert not row.passed and 0.9e-12 < row.worst_gap < 1.1e-12

    @pytest.mark.parametrize(
        "q1", [0.5 * 0.04**2, 1.0 + 2**-52, math.nan, math.inf], ids=["below_s2", "above_1", "nan", "inf"]
    )
    def test_argmax_outside_its_range_fails(self, monkeypatch, q1):
        def moved(sc):
            result = at_least_one_ssd(sc)
            argmax = {**result.argmax, "q1_product": q1}
            return type(result)(result.value, result.case_label, argmax, result.boundary_prior)

        monkeypatch.setattr(oracle_module, "at_least_one_ssd", moved)
        (row,) = certify(["at_least_one_ssd"], [0.04], [0.3])
        assert row.worst_gap == math.inf and not row.passed

    def test_lower_above_upper_fails(self, monkeypatch):
        monkeypatch.setattr(oracle_module, "_stage_bounds", lambda *args: ((1, 1), (0, 1)))
        (row,) = certify(["at_least_one_ssd"], [0.36], [0.2])
        assert row.worst_gap == math.inf and not row.passed


#: The union's brute-force maxima over its whole (t, q1b, q1c) box: the
#: diagonal scan, and the 3-D reference.
_UNION_SCANS = {
    "diagonal": grid_maximize_union_ssd,
    "3d_reference": lambda sc: _max_3d_rank2(sc, _union_term, _union_factors),
}


class TestUnionScanCrossCheck:
    """Both scans stay as the certificate's brute-force cross-checks: each
    maximum is at most U, up to its float rounding, and at least L - 1e-12.
    Read: the diagonal 0.64 ulps of 1 above and 9.7e-17 below, the 3-D
    reference 0.63 ulps above and 4.7e-14 below."""

    @pytest.mark.parametrize(
        "scan,s,p1",
        [("diagonal", s, p1) for s, p1 in _CERT_GRID + _seeded_edge_scenarios()]
        + [("3d_reference", s, p1) for s, p1 in _CERT_GRID + _seeded_edge_scenarios()[:30]],
    )
    def test_scan_between_the_bounds(self, scan, s, p1):
        sc = Scenario(s, p1)
        lower, upper = _union_bounds(sc)
        value = Fraction(_UNION_SCANS[scan](sc)[0])
        assert value <= upper + 2 * Fraction(math.ulp(1.0))
        assert value >= lower - Fraction(1e-12)


def _joint_bounds(sc, near=None):
    """``bounds._joint_bounds``' (lower, upper) as ``Fraction``s at the closed
    form's q1b, its bracket started from the closed form's q* (or from
    ``near``), as ``oracle._cert_joint`` takes them."""
    result = joint_optimal(sc, compute_boundary=False)
    q = result.argmax["q1b"]
    near = result.argmax.get("q_star", q) if near is None else near
    return _as_fractions(bounds_module._joint_bounds(sc.p1, sc.p2, sc.s, q, near))


#: Where the joint scan misses the optimum, by 3.8e-6, 3.2e-4, 4.3e-4 and
#: 2.9e-5: its linear grid cannot resolve t = sqrt(s) and q* near sqrt(s).
_SCAN_MISSES = [(1e-9, 0.5), (1e-9, 0.3), (1.46e-8, 0.065), (1e-12, 0.5)]


def _joint_regimes():
    """s = 1/4 at p1 = 1/2, where h(sqrt(s)) = 0 (a triple root at 1/2); case II
    with three roots above s = 3 - 2*sqrt(2); p1 at P_C and an ulp either
    side; s near 1; the ends s = 0 and 1; a tiny s and a tiny prior."""
    p_c = critical_prior_PC(0.04).value
    at_pc = [(0.04, p) for p in (math.nextafter(p_c, 0.0), p_c, math.nextafter(p_c, 1.0))]
    ends = [(0.0, 0.3), (1.0, 0.3), (1e-300, 0.3), (0.36, 1e-300)]
    return [(0.25, 0.5), (0.2, 0.5), (0.18, 0.5), *at_pc, (1.0 - 1e-9, 0.3), (1.0 - 1e-9, 0.5), *ends]


def _integer_poly(*roots):
    """The integer coefficients, highest first, of the product of (u - r)."""
    p = [1]
    for r in roots:
        p = [a - r * b for a, b in zip(p + [0], [0] + p)]
    return p


class TestJointCertificate:
    """The joint row from exact bounds: L = g(q) at the closed form's q1b, U
    from a Sturm count of q*'s quartic and a bracket of its middle root. The
    closed form reads at most 1.904 ulps outside [L, U] on the 5x6 grid, 1.254
    where the scan misses and 1.28 in the regimes."""

    @pytest.mark.parametrize("s,p1", _SCAN_MISSES)
    def test_passes_where_the_scan_misses(self, s, p1):
        (row,) = certify(["joint"], [s], [p1], tolerance=1e-15)
        assert row.passed, row

    @pytest.mark.parametrize("s,p1", _CERT_GRID + _SCAN_MISSES + _joint_regimes())
    def test_closed_form_within_its_bounds(self, s, p1):
        sc = Scenario(s, p1)
        lower, upper = _joint_bounds(sc)
        assert lower <= upper
        assert _ulps_outside(joint_optimal(sc).value, lower, upper) <= 1.95
        assert certify(["joint"], [s], [p1])[0].worst_gap < 1e-15

    @pytest.mark.parametrize(
        "s,p1,roots", [(0.25, 0.5, 1), (0.2, 0.5, 3), (0.04, 0.5, 3), (1e-9, 0.3, 3), (0.6, 0.3, 1), (0.04, 0.05, 1)]
    )
    def test_root_count_of_the_quartic(self, monkeypatch, s, p1, roots):
        counts = []

        def count(chain, lo, hi):
            counts.append(_root_count(chain, lo, hi))
            return counts[-1]

        monkeypatch.setattr(bounds_module, "_root_count", count)
        _joint_bounds(Scenario(s, p1))
        assert counts == [roots]

    def test_sturm_count_of_distinct_roots(self):
        # simple roots, and a triple root counted once; each count is of (lo, hi]
        chain = _sturm_chain(_integer_poly(-1, 1, 2, 3))
        assert [_root_count(chain, lo, hi) for lo, hi in ((0, 4), (1, 3), (1.5, 2), (-2, 0), (3, 9))] == [3, 2, 1, 1, 0]
        chain = _sturm_chain([16, -16, 0, 4, -1])  # (2u - 1)^3 (2u + 1)
        assert _root_count(chain, 0.25, 1.0) == 1 and _root_count(chain, -1.0, 1.0) == 2

    @pytest.mark.parametrize("near", [0.0, 1.5, 2.0, 2.5, 4.0, math.nan])
    def test_bracket_of_a_root_from_any_start(self, near):
        # the second root, 2, is a float: the bracket (a, b] ends at it
        chain = _sturm_chain(_integer_poly(1, 2, 3))
        assert _root_bracket(chain, 0.0, 4.0, 2, near) == (math.nextafter(2.0, 0.0), 2.0)

    @pytest.mark.parametrize("s,p1", [(0.04, 0.5), (1e-9, 0.5), (0.2, 0.5), (0.04, 0.2311581247086681)])
    def test_bracket_from_any_start_gives_the_same_bounds(self, s, p1):
        # a start far from q* closes the bracket by bisection, on the same floats
        sc = Scenario(s, p1)
        bounds = _joint_bounds(sc)
        assert all(_joint_bounds(sc, near) == bounds for near in (s, 1.0, 0.5))

    @pytest.mark.parametrize("s,p1", [(0.04, 0.5), (0.1, 0.3), (0.2, 0.5), *_SCAN_MISSES])
    def test_upper_bound_holds_next_to_the_middle_root(self, s, p1):
        # g at rationals an eighth of an ulp apart around q*, where the
        # maximum of g lies between two floats, stays at or below U
        sc = Scenario(s, p1)
        q_star = joint_optimal(sc).argmax["q_star"]
        S, P1, P2 = Fraction(s), Fraction(sc.p1), Fraction(sc.p2)
        upper = _joint_bounds(sc)[1]
        for k in range(-24, 25):
            u = Fraction(q_star) + k * Fraction(math.ulp(q_star)) / 8
            assert P1 * (1 - u) ** 2 + P2 * (1 - S / u) ** 2 <= upper, k

    def test_ends_of_the_overlap_are_exact(self):
        # orthogonal states: the optimum p1 + p2 at q = 0; identical states: 0 at q = 1
        assert _as_fractions(bounds_module._joint_bounds(0.3, 0.7, 0.0, 0.0, 0.0)) == (Fraction(0.3) + Fraction(0.7),) * 2
        assert _as_fractions(bounds_module._joint_bounds(0.3, 0.7, 1.0, 1.0, 1.0)) == (0, 0)

    @pytest.mark.parametrize("q", [0.02, 1.0 + 2**-52, math.nan])
    def test_infeasible_q_is_rejected(self, q):
        with pytest.raises(ConstraintError, match="outside \\[s, 1\\]"):
            bounds_module._joint_bounds(0.3, 0.7, 0.04, q, q)

    def test_certify_row_runs_no_grid_scan(self, monkeypatch):
        def scan(sc):
            raise AssertionError("the joint row scanned (t, q1b, q1c)")

        monkeypatch.setattr(oracle_module, "grid_maximize_joint", scan)
        (row,) = certify(["joint"], tolerance=1e-15)
        assert row.passed

    def test_value_off_by_1e_12_fails(self, monkeypatch):
        def shifted(sc, **kwargs):
            result = joint_optimal(sc, **kwargs)
            return type(result)(result.value - 1e-12, result.case_label, result.argmax, result.boundary_prior)

        monkeypatch.setattr(oracle_module, "joint_optimal", shifted)
        (row,) = certify(["joint"], tolerance=1e-15)
        assert not row.passed and 0.9e-12 < row.worst_gap < 1.1e-12

    @pytest.mark.parametrize(
        "q1b", [0.02, 1.0 + 2**-52, math.nan, math.inf], ids=["below_s", "above_1", "nan", "inf"]
    )
    def test_argmax_outside_its_range_fails(self, monkeypatch, q1b):
        def moved(sc, **kwargs):
            result = joint_optimal(sc, **kwargs)
            argmax = {**result.argmax, "q1b": q1b}
            return type(result)(result.value, result.case_label, argmax, result.boundary_prior)

        monkeypatch.setattr(oracle_module, "joint_optimal", moved)
        (row,) = certify(["joint"], [0.04], [0.3])
        assert row.worst_gap == math.inf and not row.passed

    def test_lower_above_upper_fails(self, monkeypatch):
        monkeypatch.setattr(oracle_module, "_joint_bounds", lambda *args: ((1, 1), (0, 1)))
        (row,) = certify(["joint"], [0.36], [0.2])
        assert row.worst_gap == math.inf and not row.passed


def _joint_cross_scenarios():
    """30 seeded scenarios: s log-uniform in [1e-3, 1), above the scan's blind
    spot, and p1 log-uniform in [1e-8, 1/2]."""
    rng = np.random.default_rng(1946)
    s = np.exp(rng.uniform(math.log(1e-3), 0.0, 30))
    p1 = np.exp(rng.uniform(math.log(1e-8), math.log(0.5), 30))
    return list(zip(s.tolist(), p1.tolist()))


def _joint_reference(sc):
    """The joint's 3-D reference scan of its whole (t, q1b, q1c) box."""
    return _max_3d_rank2(sc, _joint_term, _joint_factors)


#: The joint's brute-force maxima, each with how far below L it may read:
#: the diagonal scan, and the 3-D reference, whose grid is coarser.
_JOINT_SCANS = {"diagonal": (grid_maximize_joint, 1e-14), "3d_reference": (_joint_reference, 1e-9)}


class TestJointScanCrossCheck:
    """Both scans stay as the certificate's brute-force cross-checks: each
    maximum is at most U, up to its float rounding, and at least L less its
    bound. Read: the diagonal 1.10 ulps of 1 above and 1.6e-15 below, also
    where the 3-D reference misses; the 3-D reference 0.475 ulps above and
    6.5e-10 below."""

    @pytest.mark.parametrize(
        "scan,s,p1",
        [
            ("diagonal", s, p1)
            for s, p1 in _CERT_GRID + _joint_cross_scenarios() + _seeded_edge_scenarios() + _SCAN_MISSES
        ]
        + [("3d_reference", s, p1) for s, p1 in _CERT_GRID + _joint_cross_scenarios()],
    )
    def test_scan_between_the_bounds(self, scan, s, p1):
        sc = Scenario(s, p1)
        lower, upper = _joint_bounds(sc)
        oracle, below = _JOINT_SCANS[scan]
        value = Fraction(oracle(sc)[0])
        assert value <= upper + 2 * Fraction(math.ulp(1.0))
        assert value >= lower - Fraction(below)

    @pytest.mark.parametrize("s,p1", _SCAN_MISSES)
    def test_scan_misses_the_maximum_below_s_of_1e_8(self, s, p1):
        # the 3-D reference's grid is linear in t, q1b and q1c, while the
        # argmax has t = sqrt(s) and q1b = q1c near sqrt(s) (read: 3.82e-6,
        # 3.21e-4, 4.28e-4 and 2.85e-5 below L)
        sc = Scenario(s, p1)
        lower, _ = _joint_bounds(sc)
        assert Fraction(_joint_reference(sc)[0]) < lower - Fraction(1e-6)

    @pytest.mark.parametrize("s,p1", [(1e-30, 0.5), (1e-300, 0.3)])
    def test_diagonal_misses_by_its_last_step_where_sqrt_s_is_below_it(self, s, p1):
        # the floor ``grid_maximize_joint`` documents: below s of about
        # 1e-20 the argmax u near sqrt(s) lies within the last step of the
        # diagonal's grid, about 5e-10 (read: 5.0e-10 and 3.0e-10 below L)
        sc = Scenario(s, p1)
        lower, _ = _joint_bounds(sc)
        assert lower - Fraction(1e-9) < Fraction(grid_maximize_joint(sc)[0]) < lower - Fraction(1e-10)


def _certify_range_draws(seed, n):
    """n seeded (s, p1) uniform in the certify benchmark's range, s in
    [0.002, 0.98] and p1 in [0.02, 0.5]."""
    rng = np.random.default_rng(seed)
    return [tuple(x) for x in rng.uniform([0.002, 0.02], [0.98, 0.5], (n, 2)).tolist()]


#: The 24 seeded (s, p1) of ``scripts/bench.py``'s certify_draws op.
_BENCH_CERTIFY_DRAWS = _certify_range_draws(8, 24)

#: The rows certified by exact bounds, each with the closed form it reads.
_EXACT_ROWS = {
    "bob": "bob_optimal",
    "charlie": "charlie_optimal",
    "protocol1": "protocol1_optimal",
    "at_least_one_ssd": "at_least_one_ssd",
    "joint": "joint_optimal",
}


def _integer_bounds_calls(monkeypatch, kernel, quantities, s, p1):
    """(arguments, bounds) of each call that ``certify(quantities)`` makes of
    the integer kernel ``oracle.<kernel>`` at (s, p1)."""
    calls, real = [], getattr(oracle_module, kernel)

    def record(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    monkeypatch.setattr(oracle_module, kernel, record)
    certify(quantities, [s], [p1])
    return calls


#: Edges of the stage rows: s = 0 (r = 0 for Bob, protocol (1) and the union
#: at t = 1/2), s = 1 and within ulps of it (Bob's S/T near 1 at t = sqrt(s)
#: and (1 + s)/2), p1 = 1/2, and p1 down to the least subnormal.
_EXACT_EDGES = [
    (0.0, 0.3),
    (0.0, 0.5),
    (1.0, 0.3),
    *((1.0 - k * 2.0**-53, p1) for k in (1, 2, 3, 8) for p1 in (0.3, 0.5)),
    *((s, p1) for s in (0.04, 0.36, 0.98) for p1 in (0.5, 1e-300, 5e-324)),
    (1e-12, 0.5),
]


class TestIntegerCertificates:
    """The integer bounds that ``certify`` takes (``bounds._stage_bounds``,
    ``bounds._joint_bounds``) equal, as rationals, the ``Fraction``
    references they replaced, at every call ``certify`` makes."""

    @pytest.mark.parametrize("s,p1", _certify_range_draws(52, 40) + _EXACT_EDGES)
    def test_stage_bounds_are_the_fraction_reference(self, monkeypatch, s, p1):
        quantities = ["bob", "charlie", "protocol1", "at_least_one_ssd"]
        calls = _integer_bounds_calls(monkeypatch, "_stage_bounds", quantities, s, p1)
        assert len(calls) == (6 if s > 0.0 else 4)  # Bob and Charlie skip t = 0
        for (p1_, p2, x, y, q1), bounds in calls:
            r = Fraction(x) / Fraction(y)
            assert _as_fractions(bounds) == _reference_stage_certificate(p1_, p2, r, q1), (r, q1)

    @pytest.mark.parametrize("s,p1", _certify_range_draws(53, 40) + _EXACT_EDGES + _joint_regimes())
    def test_joint_bounds_are_the_fraction_reference(self, monkeypatch, s, p1):
        ((args, bounds),) = _integer_bounds_calls(monkeypatch, "_joint_bounds", ["joint"], s, p1)
        assert _as_fractions(bounds) == _reference_joint_certificate(*args)

    @pytest.mark.parametrize("p1", [0.5, 0.3, 1e-300, 5e-324])
    @pytest.mark.parametrize(
        "x,y,q1",
        [(0, 1, 0.0), (0, 1, 1.0), (3, 4, 0.5625), (3, 4, 1.0), (1, 1, 1.0)]
        + [(s, t, 1.0) for s in (0.36, 1.0 - 2.0**-53) for t in (math.sqrt(s), 0.5 * (1.0 + s))],
    )
    def test_stage_bounds_at_q1_of_r2_and_of_1(self, x, y, q1, p1):
        # the ends of [r^2, 1] for r = x/y exactly: 3/4 squared is a float;
        # and Bob's exact s/t near 1 at q1 = 1
        bounds = bounds_module._stage_bounds(p1, 1.0 - p1, x, y, q1)
        assert _as_fractions(bounds) == _reference_stage_certificate(p1, 1.0 - p1, Fraction(x) / Fraction(y), q1)

    @pytest.mark.parametrize("p1,p2", [(0.1875, 0.75), (0.25, 1.0), (2.0**-1002, 2.0**-1000)])
    def test_stage_bounds_on_the_case_boundary(self, p1, p2):
        # p1 = r^2*p2 exactly at r = 1/2: case II's p2*(1 - r^2), met at q1 =
        # 1, is the bound; case I's equals it only where sqrt(p1*p2) is a
        # multiple of 2^-200, which 2^-1001 is not
        bounds = _as_fractions(bounds_module._stage_bounds(p1, p2, 1, 2, 1.0))
        assert bounds == _reference_stage_certificate(p1, p2, Fraction(1, 2), 1.0)
        assert bounds == (Fraction(p2) * Fraction(3, 4),) * 2

    @settings(max_examples=200, deadline=None)
    @given(
        p1=st.floats(min_value=5e-324, max_value=0.5),
        s=st.floats(min_value=0.0, max_value=1.0),
        t=st.floats(min_value=0.0, max_value=1.0),
        u=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_stage_bounds_at_any_feasible_point(self, p1, s, t, u):
        # Bob's flag overlap s/t for s <= t, at any float q1 in [(s/t)^2, 1]
        s, t = min(s, t), max(s, t)
        assume(t > 0.0)
        r = Fraction(s) / Fraction(t)
        q1 = min(1.0, max(u, math.nextafter(float(r * r), 2.0)))
        assume(r * r <= Fraction(q1))
        bounds = bounds_module._stage_bounds(p1, 1.0 - p1, s, t, q1)
        assert _as_fractions(bounds) == _reference_stage_certificate(p1, 1.0 - p1, r, q1)

    @pytest.mark.parametrize("s,q", [(0.0, 0.0), (0.0, 1.0), (0.04, 0.04), (0.04, 1.0), (1.0 - 2.0**-53, 1.0)])
    @pytest.mark.parametrize("p1", [0.5, 1e-300, 5e-324])
    def test_joint_bounds_at_the_ends_of_s_1(self, s, q, p1):
        bounds = bounds_module._joint_bounds(p1, 1.0 - p1, s, q, q)
        assert _as_fractions(bounds) == _reference_joint_certificate(p1, 1.0 - p1, s, q)

    @pytest.mark.parametrize("q1", [0.2, 1.0 + 2**-52, 0.0, math.nan, math.inf, -math.inf])
    def test_infeasible_q1_is_an_infinite_gap(self, q1):
        # below r^2 = 1/4, above 1, q1 = 0 at r > 0, NaN and infinite
        assert bounds_module._exact_gap(0.5, bounds_module._stage_bounds, 0.3, 0.7, 1, 2, q1) == math.inf

    @pytest.mark.parametrize("name", ["bob", "charlie", "protocol1"])
    @pytest.mark.parametrize("q1", [0.5 * 0.04**2, 1.0 + 2**-52, math.nan], ids=["below_r2", "above_1", "nan"])
    def test_stage_argmax_outside_its_range_fails(self, monkeypatch, name, q1):
        real, key = getattr(oracle_module, _EXACT_ROWS[name]), "q1c" if name == "charlie" else "q1b"

        def moved(*args):
            result = real(*args)
            argmax = {**result.argmax, key: q1}
            return type(result)(result.value, result.case_label, argmax, result.boundary_prior)

        monkeypatch.setattr(oracle_module, _EXACT_ROWS[name], moved)
        (row,) = certify([name], [0.04], [0.3])
        assert row.worst_gap == math.inf and not row.passed

    @pytest.mark.parametrize("name", ["bob", "charlie", "protocol1"])
    def test_stage_lower_above_upper_fails(self, monkeypatch, name):
        monkeypatch.setattr(oracle_module, "_stage_bounds", lambda *args: ((1, 1), (0, 1)))
        (row,) = certify([name], [0.36], [0.2])
        assert row.worst_gap == math.inf and not row.passed

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "minus_inf"])
    @pytest.mark.parametrize("name", list(_EXACT_ROWS))
    def test_non_finite_value_fails_its_row(self, monkeypatch, name, value):
        # Fraction(nan) raised ValueError and Fraction(inf) OverflowError, so
        # certify ended in a traceback instead of a failed row
        closed_form = _EXACT_ROWS[name]
        monkeypatch.setattr(oracle_module, closed_form, _with_value(getattr(oracle_module, closed_form), value))
        (row,) = certify([name], [0.04, 0.36], [0.3])
        assert not row.passed and row.worst_scenario == (0.04, 0.3)
        assert math.isnan(row.worst_gap) if math.isnan(value) else row.worst_gap == math.inf

    @pytest.mark.parametrize("s,p1", _CERT_GRID + _EXACT_EDGES)
    def test_gaps_are_the_fraction_gaps(self, s, p1):
        # each comparison's gap is one rounding of the exact max(|v - L|,
        # |v - U|), as float() of the references' Fractions gives it
        sc = Scenario(s, p1)
        ts = [t for t in (math.sqrt(s), 0.5 * (1.0 + s)) if t > 0.0]
        joint = joint_optimal(sc, compute_boundary=False)
        q = joint.argmax["q1b"]

        def stage(result, r, key):
            return result.value, _reference_stage_certificate(sc.p1, sc.p2, r, result.argmax[key])

        comparisons = {
            "bob": [stage(bob_optimal(sc, t), Fraction(s) / Fraction(t), "q1b") for t in ts],
            "charlie": [stage(charlie_optimal(sc, t), Fraction(t), "q1c") for t in ts],
            "protocol1": [stage(protocol1_optimal(sc), Fraction(s), "q1b")],
            "at_least_one_ssd": [stage(at_least_one_ssd(sc), Fraction(s), "q1_product")],
            "joint": [(joint.value, _reference_joint_certificate(sc.p1, sc.p2, s, q, joint.argmax.get("q_star", q)))],
        }
        for name, pairs in comparisons.items():
            want = [(name, float(max(abs(Fraction(v) - lo), abs(Fraction(v) - hi)))) for v, (lo, hi) in pairs]
            assert oracle_module._CERTIFIERS[name](sc) == want, name


#: The overlaps t(s) of the scans' cross-check: sqrt(s) and (1 + s)/2, as
#: ``certify`` takes them, and, for Bob only, 1, protocol (1)'s stage.
_STAGE_T = (math.sqrt, lambda s: 0.5 * (1.0 + s), lambda s: 1.0)


class TestStageScanCrossCheck:
    """``grid_maximize_bob`` and ``grid_maximize_charlie`` stay as the stage
    certificate's brute-force cross-checks: each maximum lies within 2 ulps
    of 1 of [L, U] at the closed form's argmax, Bob's at the exact r = s/t.
    Read: 0.72 ulps of 1 (Bob) and 0.45 (Charlie). In the value's own ulps
    they read up to 15.5 and 7.5, where the scan's 1 - r^2/q cancels."""

    @pytest.mark.parametrize("s,p1", _CERT_GRID + _BENCH_CERTIFY_DRAWS)
    def test_scan_between_the_bounds(self, s, p1):
        sc = Scenario(s, p1)
        cells = [(grid_maximize_bob, bob_optimal, "q1b", at(s), (s, at(s))) for at in _STAGE_T]
        cells += [(grid_maximize_charlie, charlie_optimal, "q1c", at(s), (at(s), 1)) for at in _STAGE_T[:2]]
        for scan, closed_form, key, t, (x, y) in cells:
            q1 = closed_form(sc, t).argmax[key]
            lower, upper = _as_fractions(bounds_module._stage_bounds(sc.p1, sc.p2, x, y, q1))
            value = Fraction(scan(sc, t)[0])
            assert lower - 2 * Fraction(math.ulp(1.0)) <= value <= upper + 2 * Fraction(math.ulp(1.0)), (scan, t)


def _copy_priors(sc):
    """A cloned copy's stage priors, p1*gamma1 : p2*gamma2 at the cloning
    oracle's argmax, normalized as ``oracle._cert_cloning`` forms them."""
    _, g1, g2 = grid_maximize_cloning(sc)
    w1, w2 = sc.p1 * g1, sc.p2 * g2
    return w1, w2, w1 / (w1 + w2), w2 / (w1 + w2)


class TestCopyStageCrossCheck:
    """At a cloned copy's priors the stage's exact dual bound at r = s
    (``bounds._stage_upper``) is the copy's optimum, which
    ``bounds._cloning_bounds`` takes at the ends of the copy's prior, and
    the copy's stage scan (``oracle._conditioned_stage``) at the cloning
    scan's priors stays as its brute-force cross-check: within 1 ulp of the
    value, read 1.0 on the 5x6 grid and the benchmark's certify draws. (On
    160 draws seeded 1 in the same range it read up to 6 ulps, at s =
    0.979, where the scan's 1 - r^2/q cancels.)"""

    @pytest.mark.parametrize("s,p1", _CERT_GRID + _BENCH_CERTIFY_DRAWS)
    def test_scan_within_an_ulp_of_the_bound(self, s, p1):
        sc = Scenario(s, p1)
        w1, w2, a, b = _copy_priors(sc)
        n, d = bounds_module._stage_upper(a, b, sc.s, 1)
        disc = n / d
        scan = oracle_module._conditioned_stage(w1, w2, sc.s)[0]
        assert abs(scan - disc) <= math.ulp(disc), (scan, disc)

    @pytest.mark.parametrize("s,p1", _CERT_GRID + _BENCH_CERTIFY_DRAWS)
    def test_bound_is_the_fraction_reference(self, s, p1):
        # the copy's priors are never on the mirror boundary p2 <= s^2*p1
        # (``_stage_upper``'s docstring), where the bound is no optimum
        _, _, a, b = _copy_priors(Scenario(s, p1))
        assert b > s * s * a
        (upper,) = _as_fractions([bounds_module._stage_upper(a, b, s, 1)])
        assert upper == _reference_dual_bound(Fraction(a), Fraction(b), Fraction(s))

    @pytest.mark.parametrize("p1,p2", [(0.3, 0.7), (0.5, 0.5), (0.05, 0.95), (1e-300, 1.0), (5e-324, 1.0)])
    @pytest.mark.parametrize(
        "x,y",
        [(0, 1), (0.0, 1.0), (1, 1), (1.0, 1.0), (3, 4), (0.36, 0.6), (0.36, 1.0), (0.6, 0.8)],
        ids=["r0_int", "r0_float", "r1_int", "r1_float", "int_pair", "float_pair", "float_s", "float_t"],
    )
    def test_equals_the_upper_half_of_stage_bounds(self, p1, p2, x, y):
        # at q1 = 1, feasible at every r in [0, 1]; the pair is compared as
        # integers, not only as rationals
        assert bounds_module._stage_upper(p1, p2, x, y) == bounds_module._stage_bounds(p1, p2, x, y, 1.0)[1]


def _mp_prior(s, t):
    """The prior p1(u) that the cloner's working point at u = sqrt(t)
    optimizes, at 60 digits: ``protocols._clone_working_point``'s steps in
    mpmath."""
    with mpmath.workdps(60):
        point = protocols_module._clone_working_point(mpmath.sqrt(mpmath.mpf(t)), mpmath.mpf(s), mpmath.sqrt, _pick)
        return point[protocols_module._P1_OF_OMEGA]


#: The cloning enclosure's regimes: p1 = 1/2, where u* = 0; p1 = 0.01*s^2,
#: where u* lies in a layer of width about s at u = 1; an interior prior; at
#: s = 1e-12, 1e-3, 0.36 and 0.98.
_CLONING_EDGES = [(s, p1) for s in (1e-12, 1e-3, 0.36, 0.98) for p1 in (0.5, 0.01 * s * s, 0.3)]


def _cloning_enclosure(sc):
    """``bounds._cloner_bounds`` at the scenario, its bracket started at the
    cloner solve's own u, as ``oracle._cert_cloning`` starts it."""
    return bounds_module._cloner_bounds(sc.p1, sc.s, _cloned_optimum(sc)[2])


class TestCloningEnclosure:
    """``bounds._cloning_bounds`` holds both cloning rows exactly: its bracket
    of the optimal cloner's u* by exact side tests, the bounds on p_cl and
    p1_cl that follow from it, and the closed forms within 1e-15 of each
    row's [L, U]. ``grid_maximize_cloning`` stays as its brute-force
    cross-check."""

    @pytest.mark.parametrize("s,p1", _certify_range_draws(61, 24) + _CLONING_EDGES)
    def test_bracket_ends_lie_either_side_of_the_prior(self, s, p1):
        # the bracket is of t = u^2: p1(u) falls, so the 60-digit prior lies
        # above p1 at its lower end and not above it at its upper end
        sc = Scenario(s, p1)
        (a, b), _, _ = _cloning_enclosure(sc)
        if p1 == 0.5:
            assert a == b == 0.0 and _mp_prior(s, a) == 0.5
        else:
            assert b == math.nextafter(a, 1.0)
            assert _mp_prior(s, a) > p1 >= _mp_prior(s, b), (a, b)

    @pytest.mark.parametrize("s,p1", _CERT_GRID)
    def test_closed_forms_on_the_grid(self, s, p1):
        gaps = dict(oracle_module._cert_cloning(Scenario(s, p1)))
        assert list(gaps) == ["protocol3", "at_least_one_p3"]
        assert max(gaps.values()) <= 1e-15, gaps

    def test_closed_forms_on_seeded_draws(self):
        # read: 4.9e-16 (protocol3) and 3.1e-16 (at_least_one_p3) at worst
        worst = [0.0, 0.0]
        for s, p1 in _certify_range_draws(62, 300):
            gaps = [gap for _, gap in oracle_module._cert_cloning(Scenario(s, p1))]
            worst = [max(w, g) for w, g in zip(worst, gaps)]
        assert max(worst) <= 1e-15, worst

    @pytest.mark.parametrize("s,p1", _CERT_GRID)
    def test_scan_between_the_bounds_on_p_cl(self, s, p1):
        # the scan's maximum of rounded values can lie above U by a few ulps
        # (read: 6.4e-16), and below L by its flat top's resolution, about
        # (2e-8)^2 (read: never below L)
        sc = Scenario(s, p1)
        lower, upper = _as_fractions(_cloning_enclosure(sc)[1])
        value = Fraction(grid_maximize_cloning(sc)[0])
        assert lower - Fraction(1e-15) <= value <= upper + Fraction(1e-15)

    @pytest.mark.parametrize("s", [0.0, 1.0])
    @pytest.mark.parametrize("p1", [0.1, 0.3, 0.5])
    def test_identical_or_orthogonal_states(self, s, p1):
        # cloning always succeeds and leaves the prior: the copy's stage at the
        # scenario's own prior, each closed form within an ulp of 1 of [L, U]
        rows = bounds_module._cloning_bounds(p1, s, 0.0, 1.0 if s else 0.0)
        for (lower, upper), (_, gap) in zip(rows, oracle_module._cert_cloning(Scenario(s, p1))):
            assert not bounds_module._exceeds(lower, upper) and gap <= 2**-52

    @pytest.mark.parametrize("name", ["protocol3", "at_least_one_p3"])
    def test_rows_take_the_enclosure(self, monkeypatch, name):
        # each row's U raised by 1e-12 moves its gap to about that: the rows
        # read the enclosure, each its own pair
        real = bounds_module._cloning_bounds

        def raised(*args):
            return [(lower, (upper[0] + upper[1] // 10**12, upper[1])) for lower, upper in real(*args)]

        monkeypatch.setattr(oracle_module, "_cloning_bounds", raised)
        (row,) = certify([name], [0.36], [0.2])
        assert 0.99e-12 < row.worst_gap < 1.01e-12

    @pytest.mark.parametrize("q1", [0.36**2 / 2, 1.0 + 2**-52, math.nan], ids=["below_s2", "above_1", "nan"])
    def test_copy_argmax_outside_its_range_fails(self, monkeypatch, q1):
        real = oracle_module._cloned_optimum

        def moved(sc):
            both, at_least_one, u = real(sc)
            return dataclasses.replace(both, argmax={**both.argmax, "q1b": q1}), at_least_one, u

        monkeypatch.setattr(oracle_module, "_cloned_optimum", moved)
        rows = certify(["protocol3", "at_least_one_p3"], [0.36], [0.2])
        assert [row.worst_gap for row in rows] == [math.inf, math.inf]

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_value_fails_its_row(self, monkeypatch, value):
        real = oracle_module._cloned_optimum

        def moved(sc):
            both, at_least_one, u = real(sc)
            return both, types.SimpleNamespace(value=value, argmax=at_least_one.argmax), u  # as _with_value

        monkeypatch.setattr(oracle_module, "_cloned_optimum", moved)
        both, at_least_one = certify(["protocol3", "at_least_one_p3"], [0.36], [0.2])
        assert both.passed and not at_least_one.passed
        assert math.isnan(at_least_one.worst_gap) if math.isnan(value) else at_least_one.worst_gap == math.inf
