import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqdisc import (
    CERT_P1_VALUES,
    CERT_S_VALUES,
    SYMMETRY_BREAK_OVERLAP,
    DomainError,
    Scenario,
    certify,
    critical_prior_PC,
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
from seqdisc import protocols as protocols_module
from seqdisc.oracle import (
    _JOINT_POINTS,
    _REFINE_POINTS,
    _REFINEMENT_PASSES,
    _SCAN_POINTS,
    _cloning_objective,
    _cloning_objective_values,
    _joint_factors,
    _joint_term,
    _max_1d,
    _stage_objective,
    _union_factors,
    _union_term,
)

class TestCertifyTolerance:
    def test_default_tolerance(self):
        (row,) = certify(["protocol1"], [0.2], [0.3])
        assert row.tolerance == 1e-6

    @pytest.mark.parametrize("tolerance", [0.0, -1e-6, math.nan, math.inf])
    def test_rejects_nonpositive_tolerance(self, tolerance):
        with pytest.raises(DomainError, match="must be positive"):
            certify(["protocol1"], [0.2], [0.3], tolerance=tolerance)

    @pytest.mark.parametrize("s_values,p1_values", [([], [0.3]), ([0.2], []), ((), ())])
    def test_rejects_empty_grid(self, s_values, p1_values):
        # an empty grid used to pass with worst_gap -1 at (nan, nan)
        with pytest.raises(DomainError, match="at least one s value"):
            certify(["protocol1"], s_values, p1_values)

    def test_rejects_empty_selection(self):
        # an empty list used to certify all 8 quantities, like None
        with pytest.raises(DomainError, match="at least one quantity"):
            certify([], [0.2], [0.3])


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

    @pytest.mark.parametrize("s", [0.1, 0.5])
    def test_no_gap_just_above_pc2(self, s):
        # Bob's interior gain is below an ulp there; a value tie used to put
        # the oracle in case III and the closed form in case II (gap 0.15 at s = 0.5)
        _, p_c2 = protocol2_critical_priors(s)
        scenarios = [Scenario(s, p_c2 + d) for d in np.logspace(-9, -4, 200)]
        gaps = [abs(grid_maximize_protocol2(sc)[0] - protocol2_optimal(sc).value) for sc in scenarios]
        assert max(gaps) <= 1e-6

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
        # cos^2(th2) rounds to 1.0 at the argmax, so the residual must take
        # 1 - gamma2 as sin^2(th2), or it would see s itself
        rows = certify(
            quantities=["protocol3", "at_least_one_p3"],
            s_values=(2.54e-10,),
            p1_values=(1e-12,),
            tolerance=1e-12,
        )
        assert all(row.passed for row in rows), rows


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
            v, g2, _ = _cloning_objective(float(x), s, p1, 1.0 - p1)
            assert v == values[k] and _same_bits(g2, g2s[k]), (float(x), s, p1)

    @pytest.mark.parametrize("s", [1e-6, 0.04, 0.1716, 0.36, 0.6, 0.9, 0.98, 1.0 - 1e-9])
    def test_scalar_equals_array_on_the_oracle_grid(self, s):
        # hypot rounds differently in math and numpy in under 1% of lanes,
        # mostly where s^2 sqrt(g1) and sqrt(1 - g1) are comparable
        g1 = np.linspace(0.0, 1.0, _SCAN_POINTS)
        values, g2s = _cloning_objective_values(g1, s, 0.3, 0.7)
        for k, x in enumerate(g1):
            v, g2, _ = _cloning_objective(float(x), s, 0.3, 0.7)
            assert v == values[k] and _same_bits(g2, g2s[k]), float(x)

    @pytest.mark.parametrize("s", [1e-12, 0.04, 0.5, 1.0 - 1e-9])
    def test_neither_branch_valid_gives_minus_inf(self, s):
        # with 1 - g1 = (s/2)^2 the constraint has no real solution: s / hypot(a, b) > 1
        g1 = np.array([1.0 - 0.25 * s * s, 1.0])
        values, g2s = _cloning_objective_values(g1, s, 0.3, 0.7)
        assert np.all(values == -np.inf) and np.all(np.isnan(g2s))
        for x in g1:
            v, g2, _ = _cloning_objective(float(x), s, 0.3, 0.7)
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


def _max_3d_matmul(scenario, term, factors, n=_JOINT_POINTS):
    """Rank-2 reference for the oracle's scan: each t-slice is one
    ``(U, 2) @ (2, V)`` product of the ``factors``, and its first maximum is
    re-evaluated with ``term``."""
    p1, p2 = scenario.p1, scenario.p2

    def slice_best(q1b, q2b, q1c, q2c):
        bob, charlie = factors(q1b, q2b, q1c, q2c, p1, p2)
        slab = np.matmul(np.stack(bob, axis=1), np.stack(charlie))
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


log_uniform_scenarios = st.builds(
    Scenario,
    s=st.floats(min_value=1e-10, max_value=0.999),
    p1=st.floats(min_value=math.log(1e-12), max_value=math.log(0.5)).map(
        lambda x: min(0.5, math.exp(x))
    ),
)


class TestChainSearch:
    """Each Bob row's search at the two grid points bracketing Charlie's
    stationary point t*sqrt(a2/a1) returns the rank-2 matmul scan's (value,
    t, q1b, q1c) exactly, also where the stationary point is off the grid or
    undefined (t = 1, a1 = 0) and where the row is nearly flat (small s,
    tiny priors)."""

    @pytest.mark.parametrize("oracle,term,factors", _CHAINS, ids=_SCAN_IDS)
    @pytest.mark.parametrize("s,p1", _CERT_GRID)
    def test_certification_grid(self, oracle, term, factors, s, p1):
        sc = Scenario(s, p1)
        assert oracle(sc) == _max_3d_matmul(sc, term, factors)

    @pytest.mark.parametrize("oracle,term,factors", _CHAINS, ids=_SCAN_IDS)
    @pytest.mark.parametrize("s,p1", _seeded_edge_scenarios())
    def test_seeded_edge_scenarios(self, oracle, term, factors, s, p1):
        sc = Scenario(s, p1)
        assert oracle(sc) == _max_3d_matmul(sc, term, factors)

    @pytest.mark.parametrize("oracle,term,factors", _CHAINS, ids=_SCAN_IDS)
    @pytest.mark.parametrize("s,p1", _pc_tie_scenarios())
    def test_two_basins_and_tiny_overlaps(self, oracle, term, factors, s, p1):
        # where a wrongly skipped chunk of t-slices would hide the first maximum
        sc = Scenario(s, p1)
        assert oracle(sc) == _max_3d_matmul(sc, term, factors)

    @pytest.mark.parametrize("oracle,term,factors", _CHAINS, ids=_SCAN_IDS)
    @settings(max_examples=40, deadline=None)
    @given(sc=log_uniform_scenarios)
    def test_random_scenarios_coarse_grid(self, oracle, term, factors, sc):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle_module, "_JOINT_POINTS", 100)
            assert oracle(sc) == _max_3d_matmul(sc, term, factors, n=100)

    @pytest.mark.parametrize("oracle", [c[0] for c in _CHAINS], ids=_SCAN_IDS)
    def test_one_call_peaks_below_2_mb(self, oracle):
        # blocks of slices bound the working set: all 301 slices at once
        # would peak near 9 MB
        sc = Scenario(0.36, 0.2)
        oracle(sc)  # warm-up
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            oracle(sc)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert peak < 2e6


def _recording(fn, calls):
    """``fn``, appending each result to ``calls``."""

    def wrapped(*args):
        calls.append(fn(*args))
        return calls[-1]

    return wrapped


def _first_scan_slice_maxima(scenario, term, factors):
    """Each t-slice's grid maximum in the oracle's first scan, as
    ``_max_3d_matmul`` finds it: its ``term`` is called once per slice."""
    found = []
    _max_3d_matmul(scenario, _recording(term, found), factors)
    return np.array(found[:_JOINT_POINTS], dtype=float)


_N_CHUNKS = -(-_JOINT_POINTS // _REFINE_POINTS)


class TestChunkBounds:
    """The first scan skips a chunk of ``_REFINE_POINTS`` t-slices when its
    bound row (Bob at the chunk's last t, Charlie at its first) plus
    ``_BOUND_SLACK`` is below the best value found."""

    @pytest.mark.parametrize("oracle,term,factors", _CHAINS, ids=_SCAN_IDS)
    @pytest.mark.parametrize(
        "s,p1", _CERT_GRID + _seeded_edge_scenarios() + _pc_tie_scenarios()
    )
    def test_bound_rows_dominate_their_slices(self, oracle, term, factors, s, p1):
        sc = Scenario(s, p1)
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle_module, term.__name__, _recording(term, calls))
            oracle(sc)
        bounds = calls[0]  # the first kernel pass is the bound rows'
        assert len(bounds) == _N_CHUNKS
        maxima = _first_scan_slice_maxima(sc, term, factors)
        for k, bound in enumerate(bounds):
            chunk = maxima[k * _REFINE_POINTS : (k + 1) * _REFINE_POINTS]
            assert bound >= chunk.max(), (k, float(bound), float(chunk.max()))

    @pytest.mark.parametrize(
        "oracle,factors,least,most",
        # the union objective is flat in t, so none of its chunks is skipped
        [
            (grid_maximize_joint, _joint_factors, 1, 5),
            (grid_maximize_union_ssd, _union_factors, _N_CHUNKS, _N_CHUNKS),
        ],
        ids=_SCAN_IDS,
    )
    def test_chunks_evaluated_on_the_certification_grid(self, oracle, factors, least, most):
        evaluated = []
        for s, p1 in _CERT_GRID:
            calls = []
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(oracle_module, factors.__name__, _recording(factors, calls))
                oracle(Scenario(s, p1))
            # less the bound rows' pass and one pass per refinement
            evaluated.append(len(calls) - 1 - _REFINEMENT_PASSES)
        assert least <= min(evaluated) and max(evaluated) <= most, evaluated


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

    def test_tolerance_below_grid_resolution_fails(self):
        rows = certify(quantities=["joint"], s_values=(0.2,), p1_values=(0.05,), tolerance=1e-13)
        assert not rows[0].passed

    @pytest.mark.parametrize(
        "names",
        [
            ["protocol3"],
            ["at_least_one_p3"],
            ["protocol3", "at_least_one_p3"],
            ["at_least_one_p3", "protocol3", "at_least_one_p3"],
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

    def test_duplicated_reordered_names_give_one_row_each_in_order(self):
        names = ["at_least_one_p3", "bob", "protocol3", "at_least_one_p3", "bob"]
        rows = certify(names, (0.36,), (0.2, 0.5))
        assert [row.quantity for row in rows] == names
        for row in rows:
            assert row == certify([row.quantity], (0.36,), (0.2, 0.5))[0]
