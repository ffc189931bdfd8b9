import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqdisc import (
    DomainError,
    GridSpec,
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
from seqdisc.oracle import _JOINT_POINTS, _REFINE_POINTS, _joint_term, _union_term

FAST = GridSpec(points_per_axis=501, refinement_passes=2, tolerance=1e-6)


class TestGridSpec:
    def test_defaults(self):
        spec = GridSpec()
        assert spec.points_per_axis == 2001
        assert spec.refinement_passes == 2
        assert spec.tolerance == 1e-6

    def test_rejects_coarse_grid(self):
        with pytest.raises(DomainError):
            GridSpec(points_per_axis=50)

    def test_rejects_nonpositive_tolerance(self):
        with pytest.raises(DomainError):
            GridSpec(tolerance=0.0)


class TestStageOracles:
    def test_bob_equal_priors(self):
        val, _ = grid_maximize_bob(Scenario(0.05, 0.5), 0.1, FAST)
        assert val == pytest.approx(0.5, abs=1e-6)

    def test_bob_boundary_argmax(self):
        val, q1b = grid_maximize_bob(Scenario(0.05, 0.1), 0.06, FAST)
        assert val == pytest.approx(0.275, abs=1e-6)
        assert q1b == 1.0

    def test_bob_degenerate_t(self):
        val, _ = grid_maximize_bob(Scenario(0.05, 0.5), 0.05, FAST)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_charlie(self):
        val, _ = grid_maximize_charlie(Scenario(0.04, 0.5), 0.2, FAST)
        assert val == pytest.approx(0.8, abs=1e-6)


class TestJointOracle:
    def test_equal_priors(self):
        val, t, q1b, q1c = grid_maximize_joint(Scenario(0.04, 0.5), FAST)
        assert val == pytest.approx(0.64, abs=1e-5)
        assert abs(t - 0.2) <= (1.0 - 0.04) / 300  # within one coarse grid step of sqrt(s)

    def test_symmetry_broken_region(self):
        val, _, q1b, q1c = grid_maximize_joint(Scenario(0.36, 0.5), FAST)
        assert val == pytest.approx(0.2048, abs=1e-5)

    def test_deviation_helps(self):
        val, *_ = grid_maximize_joint(Scenario(0.04, 0.45), FAST)
        assert val >= 0.64 - 1e-9


class TestProtocol2Oracle:
    def test_equal_priors(self):
        val, _, _ = grid_maximize_protocol2(Scenario(0.04, 0.5), FAST)
        assert val == pytest.approx(0.9216, abs=1e-5)

    def test_below_pc2_degenerate(self):
        s = 0.2
        _, p_c2 = protocol2_critical_priors(s)
        sc = Scenario(s, p_c2 * 0.9)
        val, q1b, q1c = grid_maximize_protocol2(sc, FAST)
        assert val == pytest.approx(sc.p2 * (1 - s * s), abs=1e-9)
        assert q1b == 1.0
        assert math.isnan(q1c)

    def test_middle_region_matches_closed_form(self):
        s = 0.2
        p_c1, p_c2 = protocol2_critical_priors(s)
        sc = Scenario(s, 0.5 * (p_c1 + p_c2))
        val, _, _ = grid_maximize_protocol2(sc, FAST)
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
        val, g1, g2 = grid_maximize_cloning(Scenario(0.36, 0.5), FAST)
        assert val == pytest.approx(1 / 1.36, abs=1e-6)
        assert g1 == pytest.approx(g2, abs=1e-3)

    def test_orthogonal_states(self):
        val, _, _ = grid_maximize_cloning(Scenario(0.0, 0.5), FAST)
        assert val == 1.0

    def test_constraint_respected_at_argmax(self):
        for p1 in (0.1, 0.3, 0.5):
            _, g1, g2 = grid_maximize_cloning(Scenario(0.2, p1), FAST)
            res = abs(0.2 - math.sqrt(g1 * g2) * 0.04 - math.sqrt((1 - g1) * (1 - g2)))
            assert res < 1e-10


class TestUnionOracle:
    def test_matches_protocol1_value(self):
        sc = Scenario(0.36, 0.2)
        val, *_ = grid_maximize_union_ssd(sc, FAST)
        assert val == pytest.approx(0.712, abs=1e-6)


def _max_3d_loop(scenario, spec, term):
    """Elementwise reference for the oracle's (t, q1b, q1c) scan: each t-slice
    is the full (q1b, q1c) array of ``term``, with the same grid, refinement
    and first-maximum order as ``oracle._max_3d``."""
    s, p1, p2 = scenario.s, scenario.p1, scenario.p2
    n = min(spec.points_per_axis, _JOINT_POINTS)
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
    for _ in range(spec.refinement_passes):
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
        spec = GridSpec(points_per_axis=100)
        assert abs(oracle(sc, spec)[0] - _max_3d_loop(sc, spec, term)[0]) <= 1e-15

    @pytest.mark.parametrize("oracle,term", _SCANS, ids=_SCAN_IDS)
    @pytest.mark.parametrize("s,p1", [(0.04, 0.5), (0.36, 0.2), (0.6, 0.05)])
    def test_fixed_scenarios_default_grid(self, oracle, term, s, p1):
        sc, spec = Scenario(s, p1), GridSpec()
        assert abs(oracle(sc, spec)[0] - _max_3d_loop(sc, spec, term)[0]) <= 1e-15


class TestCertify:
    def test_single_quantity_passes(self):
        rows = certify(quantities=["protocol1"], s_values=(0.2,), p1_values=(0.3, 0.5))
        assert len(rows) == 1
        assert rows[0].passed

    def test_unknown_quantity_rejected(self):
        with pytest.raises(DomainError):
            certify(quantities=["nonsense"])

    def test_tolerance_below_grid_resolution_fails(self):
        spec = GridSpec(points_per_axis=501, refinement_passes=2, tolerance=1e-13)
        rows = certify(quantities=["joint"], s_values=(0.2,), p1_values=(0.05,), spec=spec)
        assert not rows[0].passed
