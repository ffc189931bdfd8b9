import math
import sys
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from seqdisc import (
    CERT_P1_VALUES,
    CERT_S_VALUES,
    SYMMETRY_BREAK_OVERLAP,
    CaseLabel,
    ConstraintError,
    DomainError,
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
    protocol1_optimal,
    protocol2_critical_priors,
    protocol2_optimal,
)
from seqdisc import oracle as oracle_module
from seqdisc import protocols as protocols_module
from seqdisc.oracle import (
    _BOUND_SLACK,
    _CHUNK_SLICES,
    _JOINT_POINTS,
    _REFINE_POINTS,
    _REFINEMENT_PASSES,
    _SCAN_POINTS,
    _cloning_objective_values,
    _joint_factors,
    _joint_term,
    _max_3d,
    _union_factors,
    _union_term,
    stage_certificate,
)
from seqdisc.protocols import protocol1_optimal_values
from seqdisc.sweeps import _P1_GRID, FIGURE_PRESETS, run_figure

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
        real = oracle_module.grid_maximize_joint

        def stub(sc):
            value, *argmax = real(sc)
            return (math.nan if sc.s == s_values[nan_at] else value, *argmax)

        monkeypatch.setattr(oracle_module, "grid_maximize_joint", stub)
        joint, bob = certify(["joint", "bob"], s_values, (0.3,))
        assert math.isnan(joint.worst_gap) and joint.worst_scenario == (s_values[nan_at], 0.3)
        assert not joint.passed
        assert bob.passed

    def test_rejects_repeated_quantity(self):
        # a repeated name used to give two identical rows, which hides a
        # doubled row from a count of the rows
        with pytest.raises(DomainError, match=r"more than once: \['protocol1'\]"):
            certify(["protocol1", "bob", "protocol1"], [0.2], [0.3])


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
        # cos^2(th2) rounds to 1.0 at the argmax, so 1 - gamma2 rounds to 0;
        # the residual takes sin^2(th2) from the branch angle th2, or it
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
        # with 1 - g1 = (s/2)^2 the constraint has no real solution: s / hypot(a, b) > 1
        g1 = np.array([1.0 - 0.25 * s * s, 1.0])
        values, g2s, th2s = _cloning_objective_values(g1, s, 0.3, 0.7)
        assert np.all(values == -np.inf) and np.all(np.isnan(g2s)) and np.all(np.isnan(th2s))

    @pytest.mark.parametrize("s", [1e-6, 0.04, 0.36, 0.98])
    def test_branch_angle_gives_gamma2(self, s):
        g1 = np.linspace(0.0, 1.0, _SCAN_POINTS)
        values, g2s, th2s = _cloning_objective_values(g1, s, 0.3, 0.7)
        valid = np.isfinite(values)
        assert valid.any()
        assert np.all((th2s[valid] >= 0.0) & (th2s[valid] <= 0.5 * math.pi))
        np.testing.assert_array_equal(np.cos(th2s[valid]) ** 2, g2s[valid])


def _two_branch_cloning_objective(g1, s, p1, p2):
    """The reference for ``_cloning_objective_values``: both constraint
    branches evaluated on every point, the better one picked (psi + delta on
    a tie of values), each branch's invalid points filled first."""
    p1_g1 = p1 * g1
    a = np.sqrt(g1)
    a *= s * s
    b = np.subtract(1.0, g1)
    np.sqrt(b, out=b)
    with np.errstate(invalid="ignore", divide="ignore"):
        delta = np.hypot(a, b)
        np.divide(s, delta, out=delta)
        np.arccos(delta, out=delta)
        psi = np.arctan2(b, a, out=a)
        branches = []
        for th2 in (psi + delta, psi - delta):
            valid = th2 >= -1e-12
            valid &= th2 <= 0.5 * math.pi + 1e-12  # False where th2 is NaN
            invalid = ~valid
            np.clip(th2, 0.0, 0.5 * math.pi, out=th2)
            g2 = np.cos(th2)
            g2 *= g2
            value = np.multiply(g2, p2)
            value += p1_g1
            for out, fill in ((g2, np.nan), (th2, np.nan), (value, -np.inf)):
                np.copyto(out, fill, where=invalid)
            branches.append((value, g2, th2))
    (va, g2a, tha), (vb, g2b, thb) = branches
    pick_a = va >= vb
    for out, a_in in ((vb, va), (g2b, g2a), (thb, tha)):
        np.copyto(out, a_in, where=pick_a)
    return vb, g2b, thb


def _branch_angles(g1, s):
    """psi - delta and psi + delta of ``_cloning_objective_values``."""
    a, b = s * s * np.sqrt(g1), np.sqrt(1.0 - g1)
    with np.errstate(invalid="ignore", divide="ignore"):
        delta = np.arccos(s / np.hypot(a, b))
    psi = np.arctan2(b, a)
    return psi - delta, psi + delta


def _in_quadrant(th):
    return (th >= -1e-12) & (th <= 0.5 * math.pi + 1e-12)


def _assert_one_branch_matches_two(g1, s, p1):
    got = _cloning_objective_values(g1, s, p1, 1.0 - p1)
    want = _two_branch_cloning_objective(g1, s, p1, 1.0 - p1)
    for name, x, y in zip(("value", "gamma2", "th2"), got, want):
        assert x.tobytes() == y.tobytes(), (name, s, p1, np.flatnonzero(x.view(np.int64) != y.view(np.int64))[:5])


_ONE_BRANCH_S = (1e-10, 2.54e-10, 1e-6, 0.5, 1.0 - 1e-9)
_ONE_BRANCH_P1 = (1e-12, 1e-6, 0.05, 0.3, 0.5)


class TestOneBranchCloningObjective:
    """The cloning objective evaluates one constraint branch per point and
    equals the two-branch reference, all three arrays, bit for bit."""

    @pytest.mark.parametrize(
        "s,p1",
        [(s, p1) for s in _ONE_BRANCH_S for p1 in _ONE_BRANCH_P1]
        + [tuple(x) for x in np.random.default_rng(26).uniform([0.002, 1e-3], [0.98, 0.5], (20, 2)).tolist()],
    )
    def test_on_every_scan_of_the_oracle(self, monkeypatch, s, p1):
        # the first scan and both refinement windows
        scans = []
        objective = oracle_module._cloning_objective_values

        def recording(g1, *args):
            scans.append(g1.copy())
            return objective(g1, *args)

        monkeypatch.setattr(oracle_module, "_cloning_objective_values", recording)
        grid_maximize_cloning(Scenario(s, p1))
        assert len(scans) == 1 + _REFINEMENT_PASSES + 1  # and the argmax's own evaluation
        for g1 in scans:
            _assert_one_branch_matches_two(g1, s, p1)

    @pytest.mark.parametrize("s", (1e-10, 1e-6, 0.04, 0.36, 0.6, 0.98, 1.0 - 1e-9))
    def test_where_one_branch_or_neither_is_valid(self, s):
        # psi - delta alone is valid on much of [0, 1], neither branch past
        # the tangent point g1 = 1/(1 + s^2); psi + delta is never valid
        # where psi - delta is not, so the objective never evaluates it
        g1 = np.linspace(0.0, 1.0, 200001)
        minus, plus = _branch_angles(g1, s)
        assert (_in_quadrant(minus) & ~_in_quadrant(plus)).any()
        assert (~_in_quadrant(minus) & ~_in_quadrant(plus)).any()
        assert not (_in_quadrant(plus) & ~_in_quadrant(minus)).any()
        for p1 in _ONE_BRANCH_P1:
            _assert_one_branch_matches_two(g1, s, p1)

    @pytest.mark.parametrize("s", _ONE_BRANCH_S + (0.04, 0.36, 0.98))
    def test_where_the_branch_angles_meet(self, s):
        # s / hypot(A, B) -> 1 at g1 = 1/(1 + s^2), 2000 ulps either side
        # and at relative offsets down to 1e-15: delta -> 0, so the two
        # angles are equal or one smallest arccos step apart (about 3e-8),
        # where the argument that the smaller angle is never worse rests on
        # cos^2 alone
        tangent = 1.0 / (1.0 + s * s)
        near = [tangent]
        for direction in (-math.inf, math.inf):
            x = tangent
            for _ in range(2000):
                x = math.nextafter(x, direction)
                near.append(x)
        offsets = np.geomspace(1e-15, 1e-3, 200)
        g1 = np.clip(np.concatenate([near, tangent * (1.0 - offsets), tangent * (1.0 + offsets)]), 0.0, 1.0)
        minus, plus = _branch_angles(g1, s)
        both = _in_quadrant(minus) & _in_quadrant(plus)
        if s >= 0.36:  # below, the tangent's neighbours have one valid branch
            assert (plus - minus)[both].min() < 1e-7
        for p1 in _ONE_BRANCH_P1:
            _assert_one_branch_matches_two(g1, s, p1)


_WINDOW_SCAN_SCENARIOS = [(1e-6, 0.4), (0.04, 0.05), (0.1716, 0.2), (0.36, 0.5), (0.6, 0.3), (0.98, 0.02)]


class TestWindowScanArgmax:
    """Each 1-D oracle returns its objective's value at its argmax, bit for
    bit, and no less than the maximum of its first 2001-point scan."""

    @pytest.mark.parametrize("s,p1", _WINDOW_SCAN_SCENARIOS)
    def test_stage_objective(self, s, p1):
        for r in (0.0, s, math.sqrt(s)):
            f = oracle_module._stage_objective(p1, 1.0 - p1, r)
            value, q1 = oracle_module._grid_max_stage(p1, 1.0 - p1, r)
            assert r * r <= q1 <= 1.0
            assert value == float(f(np.array([q1]))[0])
            assert value >= float(np.max(f(np.linspace(r * r, 1.0, _SCAN_POINTS))))

    @pytest.mark.parametrize("s,p1", _WINDOW_SCAN_SCENARIOS[:3])
    def test_cloning_objective(self, s, p1):
        p2 = 1.0 - p1
        value, g1, g2 = grid_maximize_cloning(Scenario(s, p1))
        values, g2s, _ = _cloning_objective_values(np.array([g1]), s, p1, p2)
        assert (value, g2) == (float(values[0]), float(g2s[0]))
        first, _, _ = _cloning_objective_values(np.linspace(0.0, 1.0, _SCAN_POINTS), s, p1, p2)
        assert value >= float(np.max(first))


class TestUnionOracle:
    def test_matches_protocol1_value(self):
        sc = Scenario(0.36, 0.2)
        val, *_ = grid_maximize_union_ssd(sc)
        assert val == pytest.approx(0.712, abs=1e-6)


def _reference_max_3d(scenario, slice_best, n=_JOINT_POINTS):
    """The oracle's (t, q1b, q1c) grid and refinement, one t-slice at a time:
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
    """Elementwise reference for the oracle's scan: each t-slice is the full
    (q1b, q1c) array of ``term``."""
    p1, p2 = scenario.p1, scenario.p2

    def slice_best(q1b, q2b, q1c, q2c):
        val = term(q1b[:, None], q2b[:, None], q1c[None, :], q2c[None, :], p1, p2)
        k = int(np.argmax(val))
        return float(val.flat[k]), *divmod(k, len(q1c))

    return _reference_max_3d(scenario, slice_best, n)


def _max_3d_rank2(scenario, term, factors, n=_JOINT_POINTS):
    """Rank-2 reference for the oracle's scan: each t-slice is the full
    (q1b, q1c) array of a1*b1 + a2*b2 over the ``factors``, each product and
    the sum rounded once, as in the oracle's rows (a matmul rounds through
    BLAS and ranked ties on the union's flat ridge Q1*Q2 = s^2 differently),
    and its first maximum is re-evaluated with ``term``. einsum forms each
    outer product: the same bits as a broadcast ``multiply``, in about 0.4 of
    its time."""
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


_SCANS = [(grid_maximize_joint, _joint_term), (grid_maximize_union_ssd, _union_term)]
_SCAN_IDS = ["joint", "union"]

scenarios = st.builds(
    Scenario,
    s=st.floats(min_value=1e-10, max_value=0.999),
    p1=st.floats(min_value=1e-3, max_value=0.5),
)


class TestRank2SliceScan:
    """The rank-2 slice products find the elementwise scan's maximum within 1e-15."""

    @pytest.mark.parametrize("oracle,term", _SCANS, ids=_SCAN_IDS)
    @settings(max_examples=40, deadline=None)
    @given(sc=scenarios)
    def test_random_scenarios_coarse_grid(self, oracle, term, sc):
        # a function-scoped monkeypatch fixture would trip Hypothesis' health check
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle_module, "_JOINT_POINTS", 100)
            assert abs(oracle(sc)[0] - _max_3d_loop(sc, term, n=100)[0]) <= 1e-15

    @pytest.mark.parametrize("oracle,term", _SCANS, ids=_SCAN_IDS)
    @pytest.mark.parametrize("s,p1", [(0.04, 0.5), (0.36, 0.2), (0.6, 0.05)])
    def test_fixed_scenarios_default_grid(self, oracle, term, s, p1):
        sc = Scenario(s, p1)
        assert abs(oracle(sc)[0] - _max_3d_loop(sc, term)[0]) <= 1e-15


_CHAINS = [
    (grid_maximize_joint, _joint_term, _joint_factors),
    (grid_maximize_union_ssd, _union_term, _union_factors),
]
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
    # s, where the joint oracle's maximum sits in its first t-slices
    ties = [(s, critical_prior_PC(s).value) for s in np.geomspace(1e-3, 0.17, 8).tolist()]
    return ties + [(1e-9, 0.5), (1e-12, 0.5)]


def _workload_scenarios():
    # 12 seeded draws from the certify benchmark's range, then p1 = 1/2 at
    # s = 0.1716 and 0.2, where the joint scan keeps its most blocks
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


class TestChainSearch:
    """Each Bob row's search at the two grid points bracketing Charlie's
    stationary point t*sqrt(a2/a1) returns the rank-2 scan's (value,
    t, q1b, q1c) exactly, also where the stationary point is off the grid or
    undefined (t = 1, a1 = 0) and where the row is nearly flat (small s,
    tiny priors)."""

    @pytest.mark.parametrize("oracle,term,factors", _CHAINS, ids=_SCAN_IDS)
    @pytest.mark.parametrize("s,p1", _CERT_GRID)
    def test_certification_grid(self, oracle, term, factors, s, p1):
        sc = Scenario(s, p1)
        assert oracle(sc) == _max_3d_rank2(sc, term, factors)

    @pytest.mark.parametrize("oracle,term,factors", _CHAINS, ids=_SCAN_IDS)
    @pytest.mark.parametrize("s,p1", _seeded_edge_scenarios())
    def test_seeded_edge_scenarios(self, oracle, term, factors, s, p1):
        sc = Scenario(s, p1)
        assert oracle(sc) == _max_3d_rank2(sc, term, factors)

    @pytest.mark.parametrize("oracle,term,factors", _CHAINS, ids=_SCAN_IDS)
    @pytest.mark.parametrize("s,p1", _pc_tie_scenarios())
    def test_two_basins_and_tiny_overlaps(self, oracle, term, factors, s, p1):
        # where a wrongly skipped chunk of t-slices would hide the first maximum
        sc = Scenario(s, p1)
        assert oracle(sc) == _max_3d_rank2(sc, term, factors)

    @pytest.mark.parametrize("oracle,term,factors", _CHAINS, ids=_SCAN_IDS)
    @pytest.mark.parametrize("s,p1", _workload_scenarios())
    def test_certify_workload_draws_and_widest_blocks(self, oracle, term, factors, s, p1):
        # the last two keep the most blocks of the first scan
        sc = Scenario(s, p1)
        assert oracle(sc) == _max_3d_rank2(sc, term, factors)

    @pytest.mark.parametrize("oracle,term,factors", _CHAINS, ids=_SCAN_IDS)
    @settings(max_examples=40, deadline=None)
    @given(sc=log_uniform_scenarios)
    # ties on the union's flat ridge Q1*Q2 = s^2, which a matmul reference
    # ranked differently from the oracle's rows
    @example(sc=Scenario(0.4, 0.49999999999999994))
    @example(sc=Scenario(0.25817803361335, 0.1141424420877434))
    def test_random_scenarios_coarse_grid(self, oracle, term, factors, sc):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle_module, "_JOINT_POINTS", 100)
            assert oracle(sc) == _max_3d_rank2(sc, term, factors, n=100)

    @pytest.mark.parametrize("oracle", [c[0] for c in _CHAINS], ids=_SCAN_IDS)
    def test_one_call_peaks_below_2_mb(self, oracle):
        # pieces of slices bound the working set: all 301 slices at once
        # would peak near 9 MB
        assert _one_call_peak(oracle, Scenario(0.36, 0.2)) < 2e6

    @pytest.mark.skipif(sys.platform != "linux", reason="counts Linux minor page faults")
    @pytest.mark.parametrize("oracle", [c[0] for c in _CHAINS], ids=_SCAN_IDS)
    def test_repeated_calls_fault_no_working_set_back_in(self, oracle):
        # each call writes every pass into one workspace; arrays made afresh
        # each pass were given back between calls, and each call faulted
        # about 160-220 pages back in. In a fresh process glibc maps the
        # first call's blocks on their own and raises its mmap threshold as
        # it frees them, and the second call grows the heap once; so two
        # warm-up calls.
        import resource  # Unix only

        sc = Scenario(0.36, 0.2)
        oracle(sc)
        oracle(sc)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(3):
            oracle(sc)
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 30


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


def _first_scan_row_maxima(scenario, term, factors):
    """Each (t, u) row's grid maximum over q1c in the oracle's first scan, as
    a (t, u) array: ``term`` at the row's first highest point of the rank-2
    product, on ``_reference_max_3d``'s grid."""
    p1, p2 = scenario.p1, scenario.p2
    found = []

    def slice_best(q1b, q2b, q1c, q2c):
        bob, charlie = factors(q1b, q2b, q1c, q2c, p1, p2)
        ic = np.argmax(np.matmul(np.stack(bob, axis=1), np.stack(charlie)), axis=1)
        found.append(term(q1b, q2b, q1c[ic], q2c[ic], p1, p2))
        ib = int(np.argmax(found[-1]))
        return float(found[-1][ib]), ib, int(ic[ib])

    _reference_max_3d(scenario, slice_best)
    return np.array(found[:_JOINT_POINTS], dtype=float)


_N_CHUNKS = -(-_JOINT_POINTS // _CHUNK_SLICES)
_N_BLOCKS = -(-_JOINT_POINTS // _REFINE_POINTS)


def _first_scan_passes(scenario):
    """The joint oracle's first scan on ``scenario``: its blocks' kept mask,
    (t-chunk, u-block), and the (rows, u points) of each of its passes after
    the bound pass."""
    terms, factors = [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle_module, "_joint_term", _recording(_joint_term, terms))
        mp.setattr(oracle_module, "_joint_factors", _recording(_joint_factors, factors))
        grid_maximize_joint(scenario)
    values = terms[0].reshape(3, _N_CHUNKS, _N_BLOCKS)
    keep = ~(values[0] + _BOUND_SLACK < values[1:].max())
    bob = [np.shape(a1) for (a1, _), _ in factors if np.ndim(a1) == 2]
    return keep, bob[1 : len(bob) - _REFINEMENT_PASSES]


class TestChunkBounds:
    """The first scan keeps a block of ``_CHUNK_SLICES`` t-slices by
    ``_REFINE_POINTS`` u points unless its bound row (Bob's a1 at the block's
    first u and a2 at its last, both at its last t, and Charlie at its first
    t) plus ``_BOUND_SLACK`` is below the best of two real rows per block,
    then evaluates every slice of each t-chunk with a kept block over the u
    points of every kept block, in pieces of at most ``_REFINE_POINTS`` x
    ``_JOINT_POINTS`` (row, u) pairs."""

    @pytest.mark.parametrize("oracle,term,factors", _CHAINS, ids=_SCAN_IDS)
    @pytest.mark.parametrize(
        "s,p1", _CERT_GRID + _seeded_edge_scenarios() + _pc_tie_scenarios()
    )
    def test_bound_rows_dominate_their_slices(self, oracle, term, factors, s, p1):
        sc = Scenario(s, p1)
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle_module, term.__name__, _recording(term, calls))
            found = oracle(sc)
        if oracle is grid_maximize_union_ssd:
            # flat in t, so no bound can skip a block and the union runs no
            # bound pass: its first kernel pass is its first piece's, and the
            # result is the full scan's
            assert len(calls[0]) == _REFINE_POINTS
            assert found == _max_3d_rank2(sc, term, factors)
            return
        # the first kernel pass is the blocks' bounds, (t-chunk, u-block),
        # then its real rows
        bounds = calls[0][:_N_CHUNKS]
        assert bounds.shape == (_N_CHUNKS, _N_BLOCKS) == (28, 10)
        maxima = _first_scan_row_maxima(sc, term, factors)
        for k, m in np.ndindex(bounds.shape):
            t = slice(k * _CHUNK_SLICES, (k + 1) * _CHUNK_SLICES)
            u = slice(m * _REFINE_POINTS, (m + 1) * _REFINE_POINTS)
            assert bounds[k, m] >= maxima[t, u].max(), (k, m, float(bounds[k, m]), float(maxima[t, u].max()))

    @pytest.mark.parametrize(
        "oracle,factors,bound_passes,least,most",
        # (row, u) pairs of the first scan's passes after its bound pass, of
        # 301^2 = 90,601, where one piece is at most 9,933. The union
        # objective is flat in t, so it runs no bound pass and evaluates
        # every block.
        [
            (grid_maximize_joint, _joint_factors, 1, 2_035, 29_799),
            (grid_maximize_union_ssd, _union_factors, 0, _JOINT_POINTS**2, _JOINT_POINTS**2),
        ],
        ids=_SCAN_IDS,
    )
    def test_chunks_evaluated_on_the_certification_grid(
        self, oracle, factors, bound_passes, least, most
    ):
        evaluated = []
        for s, p1 in _CERT_GRID:
            calls = []
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(oracle_module, factors.__name__, _recording(factors, calls))
                oracle(Scenario(s, p1))
            # each pass forms Bob's factors on its (rows, u) arrays, then
            # Charlie's at his bracket points; less the bound pass, if any,
            # and one pass per refinement
            bob = [np.size(a1) for (a1, _), _ in calls if np.ndim(a1) == 2]
            evaluated.append(sum(bob[bound_passes : len(bob) - _REFINEMENT_PASSES]))
        assert least <= min(evaluated) and max(evaluated) <= most, evaluated

    def test_kept_u_points_beyond_a_chunks_own_blocks(self):
        # every kept chunk is evaluated over the u points of every kept
        # block, so some of its rows run over u-blocks its own bounds skip
        sc = Scenario(0.2, 0.05)
        keep, passes = _first_scan_passes(sc)
        chunks, union = keep.any(axis=1), keep.any(axis=0)
        assert (keep[chunks] != union).any()
        index = np.arange(_JOINT_POINTS)
        rows, points = chunks[index // _CHUNK_SLICES].sum(), union[index // _REFINE_POINTS].sum()
        assert passes == [(rows, points)]
        assert grid_maximize_joint(sc) == _max_3d_rank2(sc, _joint_term, _joint_factors)

    def test_widest_cell_runs_in_pieces(self):
        # the grid's widest cell keeps 9 chunks over all 10 u-blocks: 99 x
        # 301 pairs, three pieces of 33 rows in one workspace
        sc = Scenario(0.1716, 0.5)
        keep, passes = _first_scan_passes(sc)
        assert int(keep.any(axis=1).sum()) == 9 and keep.any(axis=0).all()
        assert passes == [(_REFINE_POINTS, _JOINT_POINTS)] * 3
        assert grid_maximize_joint(sc) == _max_3d_rank2(sc, _joint_term, _joint_factors)
        assert _one_call_peak(grid_maximize_joint, sc) < 2e6

    @pytest.mark.parametrize("s,p1", _CERT_GRID)
    def test_first_highest_slice_wins_on_rounded_ties(self, s, p1):
        # rounding the joint term ties slices across chunks and pieces;
        # rounding is monotone, so every bound still holds, and the scan
        # without bounds takes t order
        def term(*args):
            return np.round(_joint_term(*args), 2)

        sc = Scenario(s, p1)
        with_bounds = _max_3d(sc, term, _joint_factors, bound_chunks=True)
        assert with_bounds == _max_3d(sc, term, _joint_factors, bound_chunks=False)


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

    def test_tolerance_below_grid_resolution_fails(self):
        rows = certify(quantities=["joint"], s_values=(0.2,), p1_values=(0.05,), tolerance=1e-13)
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
    def test_cloning_rows_share_one_cloner_and_one_oracle_per_scenario(self, monkeypatch, names):
        calls = {}
        for module, fn in (
            (protocols_module, protocols_module.clone_optimal_for_prior),
            (oracle_module, oracle_module.grid_maximize_cloning),
            (oracle_module, oracle_module._conditioned_stage),
        ):
            calls[fn.__name__] = []
            monkeypatch.setattr(module, fn.__name__, _recording(fn, calls[fn.__name__]))
        certify(names, _CLONING_S, _CLONING_P1)
        n = len(_CLONING_S) * len(_CLONING_P1)
        assert {name: len(c) for name, c in calls.items()} == dict.fromkeys(calls, n)

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


def _ulps_outside(value, lower, upper):
    """How far a float lies outside [lower, upper], in its own ulps."""
    v = Fraction(value)
    return float(max(lower - v, v - upper, 0) / Fraction(math.ulp(value)))


def _union_bounds(sc):
    """The union certificate's (lower, upper) at the closed form's argmax:
    ``_union_term`` at (t, q1b, q1c) = (1, q1_product, 1) and the stage's dual
    bound at r = s, as ``oracle._cert_union`` forms them."""
    p1, p2, s = Fraction(sc.p1), Fraction(sc.p2), Fraction(sc.s)
    q1b = Fraction(at_least_one_ssd(sc).argmax["q1_product"])
    lower = _union_term(q1b, s * s / q1b if q1b else 0, 1, 1, p1, p2)
    return lower, oracle_module._stage_dual_bound(p1, p2, s)


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
    """``stage_certificate``'s exact bounds hold protocol (1) at r = s,
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
            lower, upper = stage_certificate(sc.p1, sc.p2, r, result.argmax[name])
            assert lower <= upper
            assert _ulps_outside(result.value, lower, upper) <= 1.3, (r, name)

    def test_figure_4_protocol1_column(self):
        s = np.full(_P1_GRID.shape, 0.04)
        for p1, lane in zip(_P1_GRID.tolist(), protocol1_optimal_values(s, _P1_GRID).tolist()):
            sc = Scenario(0.04, p1)
            result = protocol1_optimal(sc)
            assert result.value == lane
            lower, upper = stage_certificate(sc.p1, sc.p2, 0.04, result.argmax["q1b"])
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
                r = Fraction(s) / Fraction(t)
                lower, upper = stage_certificate(sc.p1, sc.p2, r, result.argmax["q1b"])
                assert lower <= upper
                assert _ulps_outside(value, lower, upper) <= 3.2477, (p1, t)

    def test_bounds_are_rationals_and_take_a_rational_overlap(self):
        # Bob's r = s/t kept exact: 3/7 has no float
        lower, upper = stage_certificate(0.2, 0.8, Fraction(3, 7), 0.5)
        r2 = Fraction(9, 49)
        assert lower == Fraction(0.2) * Fraction(1, 2) + Fraction(0.8) * (1 - 2 * r2)
        assert isinstance(upper, Fraction) and lower <= upper

    def test_case_ii_dual_point_is_the_boundary_value(self):
        # p1 <= r^2*p2: the optimum p2*(1 - r^2) at q1 = 1 is met from both sides
        lower, upper = stage_certificate(0.1, 0.9, 0.5, 1.0)
        assert lower == upper == Fraction(0.9) * (1 - Fraction(1, 4))

    def test_orthogonal_flags(self):
        # r = 0: q2 = 0 and the stage succeeds surely at q1 = 0
        assert stage_certificate(0.3, 0.7, 0.0, 0.0) == (Fraction(0.3) + Fraction(0.7),) * 2

    @pytest.mark.parametrize("q1", [0.2, 1.0 + 2**-52, 0.0])
    def test_infeasible_argmax_is_rejected(self, q1):
        # below r^2 = 0.25, above 1, and q1 = 0 at r > 0
        with pytest.raises(ConstraintError, match="outside \\[r\\^2, 1\\]"):
            stage_certificate(0.3, 0.7, 0.5, q1)

    @pytest.mark.parametrize("objective", ["stage", "union"])
    def test_objectives_on_floats_arrays_and_rationals(self, objective):
        # integer literals: bit for bit with 1.0 on floats and arrays, exact on Fractions
        p1, p2, r, q = 0.3, 0.7, 0.36, np.linspace(0.1296, 1.0, 101)
        if objective == "stage":
            f, ref = oracle_module._stage_objective(p1, p2, r), lambda q: p1 * (1.0 - q) + p2 * (1.0 - r * r / q)
        else:
            f = lambda q: _union_term(q, r * r / q, 0.9, 1.0 / 0.9, p1, p2)
            ref = lambda q: p1 * (1.0 - q * 0.9) + p2 * (1.0 - (r * r / q) * (1.0 / 0.9))
        assert np.array_equal(f(q), ref(q))
        assert [f(x) for x in q.tolist()] == ref(q).tolist()
        p1, p2, half = Fraction(1, 4), Fraction(3, 4), Fraction(1, 2)
        if objective == "stage":
            exact = oracle_module._stage_objective(p1, p2, half)(half)
        else:
            exact = _union_term(half, half, 1, 1, p1, p2)
        assert exact == p1 * half + p2 * half


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
        assert (lower, upper) == stage_certificate(sc.p1, sc.p2, s, argmax)
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
        monkeypatch.setattr(oracle_module, "_max_3d", scan)
        (row,) = certify(["at_least_one_ssd"], tolerance=1e-15)
        assert row.passed

    def test_value_off_by_1e_12_fails(self, monkeypatch):
        def shifted(sc):
            result = at_least_one_ssd(sc)
            return type(result)(result.value - 1e-12, result.case_label, result.argmax, result.boundary_prior)

        monkeypatch.setattr(oracle_module, "at_least_one_ssd", shifted)
        (row,) = certify(["at_least_one_ssd"], tolerance=1e-15)
        assert not row.passed and 0.9e-12 < row.worst_gap < 1.1e-12

    @pytest.mark.parametrize("q1", [0.5 * 0.04**2, 1.0 + 2**-52], ids=["below_s2", "above_1"])
    def test_argmax_outside_its_range_fails(self, monkeypatch, q1):
        def moved(sc):
            result = at_least_one_ssd(sc)
            argmax = {**result.argmax, "q1_product": q1}
            return type(result)(result.value, result.case_label, argmax, result.boundary_prior)

        monkeypatch.setattr(oracle_module, "at_least_one_ssd", moved)
        (row,) = certify(["at_least_one_ssd"], [0.04], [0.3])
        assert row.worst_gap == math.inf and not row.passed

    def test_lower_above_upper_fails(self, monkeypatch):
        monkeypatch.setattr(oracle_module, "_stage_dual_bound", lambda p1, p2, r: Fraction(0))
        (row,) = certify(["at_least_one_ssd"], [0.36], [0.2])
        assert row.worst_gap == math.inf and not row.passed


class TestUnionScanCrossCheck:
    """The (t, q1b, q1c) scan stays as the certificate's brute-force
    cross-check: its maximum is at most U, up to its float rounding (read:
    0.63 ulps of 1 above), and at least L - 1e-12 (read: 4.7e-14 below)."""

    @pytest.mark.parametrize("s,p1", _CERT_GRID + _seeded_edge_scenarios()[:30])
    def test_scan_between_the_bounds(self, s, p1):
        sc = Scenario(s, p1)
        lower, upper = _union_bounds(sc)
        value = Fraction(grid_maximize_union_ssd(sc)[0])
        assert value <= upper + 2 * Fraction(math.ulp(1.0))
        assert value >= lower - Fraction(1e-12)
