import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqdisc import (
    DomainError,
    Scenario,
    certify,
    grid_maximize_bob,
    grid_maximize_charlie,
    grid_maximize_cloning,
    grid_maximize_joint,
    grid_maximize_protocol2,
    grid_maximize_union_ssd,
    protocol2_critical_priors,
    protocol2_optimal,
)
from seqdisc.core import golden_max
from seqdisc import oracle as oracle_module
from seqdisc.oracle import (
    _JOINT_POINTS,
    _REFINE_POINTS,
    _REFINEMENT_PASSES,
    _SCAN_POINTS,
    _cloning_objective,
    _cloning_objective_values,
    _joint_term,
    _max_1d,
    _stage_objective,
    _union_term,
)

class TestCertifyTolerance:
    def test_default_tolerance(self):
        (row,) = certify(["protocol1"], [0.2], [0.3])
        assert row.tolerance == 1e-6

    @pytest.mark.parametrize("tolerance", [0.0, -1e-6, math.nan])
    def test_rejects_nonpositive_tolerance(self, tolerance):
        with pytest.raises(DomainError, match="must be positive"):
            certify(["protocol1"], [0.2], [0.3], tolerance=tolerance)


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


def _same_bits(a: float, b: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or a == b


class TestCloningObjectiveTwin:
    """The golden-section refinement calls the scalar twin; the grid scan calls
    the array form. They must agree bit for bit, or the refinement would land
    on other floats than the array form would give."""

    @settings(max_examples=200, deadline=None)
    @given(
        g1s=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20),
        log_s=st.floats(math.log(1e-12), math.log(1.0 - 1e-9)),
        p1=st.floats(0.0, 0.5, exclude_min=True),
    )
    def test_scalar_equals_array_bit_for_bit(self, g1s, log_s, p1):
        s = min(math.exp(log_s), 1.0 - 1e-9)
        # g1 = 1 has no valid branch for any s < 1
        g1 = np.array([0.0, 1.0, *g1s])
        values, g2s = _cloning_objective_values(g1, s, p1, 1.0 - p1)
        assert values[1] == -math.inf
        for k, x in enumerate(g1):
            v, g2 = _cloning_objective(float(x), s, p1, 1.0 - p1)
            assert v == values[k] and _same_bits(g2, g2s[k]), (float(x), s, p1)

    @pytest.mark.parametrize("s", [1e-6, 0.04, 0.1716, 0.36, 0.6, 0.9, 0.98, 1.0 - 1e-9])
    def test_scalar_equals_array_on_the_oracle_grid(self, s):
        # hypot rounds differently in math and numpy in under 1% of lanes,
        # mostly where s^2 sqrt(g1) and sqrt(1 - g1) are comparable
        g1 = np.linspace(0.0, 1.0, _SCAN_POINTS)
        values, g2s = _cloning_objective_values(g1, s, 0.3, 0.7)
        for k, x in enumerate(g1):
            v, g2 = _cloning_objective(float(x), s, 0.3, 0.7)
            assert v == values[k] and _same_bits(g2, g2s[k]), float(x)

    @pytest.mark.parametrize("s", [1e-12, 0.04, 0.5, 1.0 - 1e-9])
    def test_neither_branch_valid_gives_minus_inf(self, s):
        # with 1 - g1 = (s/2)^2 the constraint has no real solution: s / hypot(a, b) > 1
        g1 = np.array([1.0 - 0.25 * s * s, 1.0])
        values, g2s = _cloning_objective_values(g1, s, 0.3, 0.7)
        assert np.all(values == -np.inf) and np.all(np.isnan(g2s))
        for x in g1:
            v, g2 = _cloning_objective(float(x), s, 0.3, 0.7)
            assert v == -math.inf and math.isnan(g2)


def _max_1d_through_arrays(f_vec, lo, hi):
    """``_max_1d`` as it was before the refinement ran on floats: every
    refinement point and edge check wrapped in a 1-element array."""
    xs = np.linspace(lo, hi, _SCAN_POINTS)
    vals = f_vec(xs)
    i = int(np.argmax(vals))
    best_x, best_v = float(xs[i]), float(vals[i])

    def f(x):
        return float(f_vec(np.array([x]))[0])

    step = xs[1] - xs[0] if len(xs) > 1 else 0.0
    for _ in range(_REFINEMENT_PASSES):
        if step <= 0.0:
            break
        x, v = golden_max(f, max(lo, best_x - step), min(hi, best_x + step))
        if v > best_v:
            best_x, best_v = x, v
        step *= 1e-2
    for x_edge in (lo, hi):
        v = f(x_edge)
        if v > best_v:
            best_x, best_v = x_edge, v
    return best_v, best_x


_MAX_1D_SCENARIOS = [(1e-6, 0.4), (0.04, 0.05), (0.1716, 0.2), (0.36, 0.5), (0.6, 0.3), (0.98, 0.02)]


class TestMax1dOnFloats:
    """The float refinement returns exactly the (value, x) of the 1-element-array path."""

    @pytest.mark.parametrize("s,p1", _MAX_1D_SCENARIOS)
    def test_stage_objective(self, s, p1):
        for r in (0.0, s, math.sqrt(s)):
            f = _stage_objective(p1, 1.0 - p1, r)
            expected = _max_1d_through_arrays(f, r * r, 1.0)
            assert _max_1d(f, r * r, 1.0) == expected

    @pytest.mark.parametrize("s,p1", _MAX_1D_SCENARIOS[:3])
    def test_cloning_objective(self, s, p1):
        p2 = 1.0 - p1

        def values(g):
            return _cloning_objective_values(g, s, p1, p2)[0]

        expected = _max_1d_through_arrays(values, 0.0, 1.0)
        got = _max_1d(lambda g: _cloning_objective(g, s, p1, p2)[0], 0.0, 1.0, values)
        assert got == expected


class TestUnionOracle:
    def test_matches_protocol1_value(self):
        sc = Scenario(0.36, 0.2)
        val, *_ = grid_maximize_union_ssd(sc)
        assert val == pytest.approx(0.712, abs=1e-6)


def _max_3d_loop(scenario, term, n=_JOINT_POINTS):
    """Elementwise reference for the oracle's (t, q1b, q1c) scan: each t-slice
    is the full (q1b, q1c) array of ``term``, with the same grid, refinement
    and first-maximum order as ``oracle._max_3d``."""
    s, p1, p2 = scenario.s, scenario.p1, scenario.p2
    t_lo_global = max(s, 1e-9)

    def evaluate(ts, us, vs):
        best = (-1.0, 0.0, 0.0, 0.0)
        r2 = (s / ts) ** 2
        for j, t in enumerate(ts):
            lob = r2[j]
            q1b = (lob + us * (1.0 - lob))[:, None]
            q1c = (t * t + vs * (1.0 - t * t))[None, :]
            q2b = np.where(q1b > 0.0, r2[j] / np.where(q1b > 0.0, q1b, 1.0), 1.0)
            q2c = t * t / q1c
            val = term(q1b, q2b, q1c, q2c, p1, p2)
            k = int(np.argmax(val))
            v = float(val.flat[k])
            if v > best[0]:
                ib, ic = divmod(k, val.shape[1])
                best = (v, float(t), float(q1b[ib, 0]), float(q1c[0, ic]))
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


class TestCertify:
    def test_single_quantity_passes(self):
        rows = certify(quantities=["protocol1"], s_values=(0.2,), p1_values=(0.3, 0.5))
        assert len(rows) == 1
        assert rows[0].passed

    def test_unknown_quantity_rejected(self):
        with pytest.raises(DomainError):
            certify(quantities=["nonsense"])

    def test_tolerance_below_grid_resolution_fails(self):
        rows = certify(quantities=["joint"], s_values=(0.2,), p1_values=(0.05,), tolerance=1e-13)
        assert not rows[0].passed
