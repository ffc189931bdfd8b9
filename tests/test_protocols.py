import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from seqdisc import (
    CaseLabel,
    ConditionalPriors,
    DegenerateStrategyError,
    DomainError,
    NumericError,
    SYMMETRY_BREAK_OVERLAP,
    Scenario,
    at_least_one_protocol3,
    at_least_one_ssd,
    bob_optimal,
    clone_optimal_for_prior,
    clone_params_of_omega,
    conditional_priors_after_bob,
    critical_prior_PC,
    grid_maximize_cloning,
    joint_optimal,
    omega_range,
    protocol1_optimal,
    protocol2_critical_priors,
    protocol2_optimal,
    protocol3_optimal,
)
from seqdisc.core import _pick
from seqdisc.protocols import (
    _P1_OF_OMEGA,
    _clone_params,
    _clone_params_values,
    _clone_working_point,
    _protocol2_case1,
    _protocol2_case2,
)

scenarios = st.builds(
    Scenario,
    s=st.floats(min_value=1e-3, max_value=0.99),
    p1=st.floats(min_value=1e-3, max_value=0.5),
)


class TestProtocol1:
    def test_equal_priors(self):
        res = protocol1_optimal(Scenario(0.04, 0.5))
        assert res.value == pytest.approx(0.96, abs=1e-12)
        assert res.case_label is CaseLabel.CASE_I

    def test_orthogonal_states(self):
        assert protocol1_optimal(Scenario(0.0, 0.5)).value == pytest.approx(1.0, abs=1e-12)

    def test_tiny_prior_boundary_case(self):
        res = protocol1_optimal(Scenario(0.2, 0.001))
        assert res.value == pytest.approx(0.999 * 0.96, abs=1e-12)
        assert res.case_label is CaseLabel.CASE_II

    def test_feasible_optimizer(self):
        # the optimizing q1b is sqrt(p2/p1)*s, which stays feasible for p1 <= 1/2
        res = protocol1_optimal(Scenario(0.1, 0.3))
        assert res.argmax["q1b"] == pytest.approx(math.sqrt(0.7 / 0.3) * 0.1, abs=1e-12)
        assert res.argmax["q1b"] * res.argmax["q2b"] == pytest.approx(0.01, abs=1e-12)

    @pytest.mark.parametrize("p1", [5e-324, 1e-310])
    def test_stationary_point_where_prior_ratio_overflows(self, p1):
        # p2/p1 overflows below about 1e-308, but the stationary point
        # s/sqrt(p1/p2) lies in [s, 1]: 4.5e-9 at p1 = 5e-324, not sqrt(inf)*s
        sc = Scenario(1e-170, p1)
        for res, name in (
            (protocol1_optimal(sc), "q1b"),
            (at_least_one_ssd(sc), "q1_product"),
            (bob_optimal(sc, 1.0), "q1b"),
        ):
            assert res.case_label is CaseLabel.CASE_I
            assert res.value == 1.0
            assert res.argmax[name] == pytest.approx(1e-170 / math.sqrt(p1), rel=1e-15)


class TestConditionalPriors:
    def test_symmetric_at_equal_priors(self):
        cp = conditional_priors_after_bob(Scenario(0.04, 0.5), 0.04)
        assert cp.p1_prime == pytest.approx(0.5, abs=1e-12)

    def test_ignored_state_never_arrives(self):
        cp = conditional_priors_after_bob(Scenario(0.1, 0.3), 1.0)
        assert cp.p1_prime == 0.0
        assert cp.p2_prime == 1.0

    def test_matches_closed_form(self):
        s, p1 = 0.1, 0.3
        q1b = math.sqrt(0.7 / 0.3) * s
        cp = conditional_priors_after_bob(Scenario(s, p1), q1b)
        u = math.sqrt(p1 * (1 - p1)) * s
        assert cp.p1_prime == pytest.approx((p1 - u) / (1 - 2 * u), abs=1e-12)
        assert cp.p1_prime == pytest.approx(0.2798201867892059, abs=1e-12)

    def test_degenerate_strategy_rejected(self):
        with pytest.raises(DegenerateStrategyError):
            conditional_priors_after_bob(Scenario(1.0, 0.5), 1.0)

    def test_priors_must_sum_to_one(self):
        with pytest.raises(DomainError, match="sum to 1"):
            ConditionalPriors(0.7, 0.7)


@pytest.mark.parametrize(
    "call",
    [lambda: protocol2_critical_priors(1.5), lambda: omega_range(0.0)],
    ids=["critical_priors_s_above_1", "omega_range_s_0"],
)
def test_overlap_outside_domain_rejected(call):
    with pytest.raises(DomainError):
        call()


class TestProtocol2:
    def test_equal_priors(self):
        res = protocol2_optimal(Scenario(0.04, 0.5))
        assert res.value == pytest.approx(0.9216, abs=1e-12)
        assert res.case_label is CaseLabel.CASE_I

    def test_critical_priors_ordered(self):
        for s in np.linspace(0.01, 0.99, 99):
            p_c1, p_c2 = protocol2_critical_priors(float(s))
            assert 0.0 < p_c2 <= p_c1 <= 0.5 + 1e-12

    def test_continuity_at_pc1(self):
        s = 0.2
        p_c1, _ = protocol2_critical_priors(s)
        below = protocol2_optimal(Scenario(s, p_c1 * (1 - 1e-9))).value
        above = protocol2_optimal(Scenario(s, p_c1 * (1 + 1e-9))).value
        assert below == pytest.approx(above, abs=1e-8)

    def test_discontinuity_at_pc2(self):
        s = 0.2
        _, p_c2 = protocol2_critical_priors(s)
        left = protocol2_optimal(Scenario(s, p_c2 * (1 - 1e-9)))
        right = protocol2_optimal(Scenario(s, p_c2 * (1 + 1e-9)))
        assert left.case_label is CaseLabel.CASE_III
        assert right.case_label is CaseLabel.CASE_II
        assert left.value - right.value > 1e-3

    def test_nonincreasing_in_p1(self):
        for s in (0.04, 0.2, 0.36):
            vals = [
                protocol2_optimal(Scenario(s, p1)).value for p1 in np.linspace(0.002, 0.5, 200)
            ]
            assert np.all(np.diff(vals) <= 1e-12)

    def test_branches_meet_at_pc1(self):
        # s = 1 is left out: Bob's interior success vanishes there (0/0)
        for s in np.logspace(-10, -1e-9, 600).tolist():
            p_c1, _ = protocol2_critical_priors(s)
            v_case1, _ = _protocol2_case1(s, p_c1)
            assert abs(v_case1 - _protocol2_case2(s, p_c1)) <= 1e-12

    @pytest.mark.parametrize("p1", [0.1, 0.5])
    def test_identical_states(self, p1):
        res = protocol2_optimal(Scenario(1.0, p1))
        assert res.value == 0.0


class TestCloneParams:
    def test_symmetric_endpoint(self):
        s = 0.36
        w1, _ = omega_range(s)
        cp = clone_params_of_omega(w1, s)
        assert cp.gamma1 == pytest.approx(1 / (1 + s), abs=1e-10)
        assert cp.gamma2 == pytest.approx(1 / (1 + s), abs=1e-10)
        assert cp.p1_of_omega == pytest.approx(0.5, abs=1e-10)
        assert cp.p_cl == pytest.approx(1 / (1 + s), abs=1e-10)

    def test_zero_prior_endpoint(self):
        s = 0.36
        _, w2 = omega_range(s)
        cp = clone_params_of_omega(w2, s)
        assert cp.x == pytest.approx(0.0, abs=1e-10)
        assert cp.gamma1 == pytest.approx(s * s / (1 + s * s), abs=1e-10)
        assert cp.gamma2 == pytest.approx(1 / (1 + s * s), abs=1e-10)
        assert cp.p1_of_omega == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("s", [0.1, 0.36, 0.7])
    def test_constraint_residual_interior(self, s):
        w1, w2 = omega_range(s)
        for om in np.linspace(w1 + 1e-9, w2 - 1e-12, 1000):
            cp = clone_params_of_omega(float(om), s)
            residual = abs(
                s
                - math.sqrt(cp.gamma1 * cp.gamma2) * s * s
                - math.sqrt((1 - cp.gamma1) * (1 - cp.gamma2))
            )
            assert residual < 1e-10
            assert cp.p1_cl + cp.p2_cl == pytest.approx(1.0, abs=1e-12)

    def test_prior_monotone_in_omega(self):
        s = 0.36
        w1, w2 = omega_range(s)
        oms = np.linspace(w1 + 1e-9, w2 - 1e-12, 1000)
        p1s = [clone_params_of_omega(float(om), s).p1_of_omega for om in oms]
        assert np.all(np.diff(p1s) < 0.0)

    def test_rejects_outside_range(self):
        w1, w2 = omega_range(0.36)
        with pytest.raises(DomainError):
            clone_params_of_omega(w1 - 1e-6, 0.36)
        with pytest.raises(DomainError):
            clone_params_of_omega(w2 + 1e-6, 0.36)

    def test_rejects_nan(self):
        # NaN must not be clamped to the omega_1 working point
        with pytest.raises(DomainError, match="outside"):
            clone_params_of_omega(math.nan, 0.3)

    @pytest.mark.parametrize("s", [1.1e-16, 1e-16, 1e-17])
    def test_collapsed_range_raises(self, s):
        # both ends of the omega range round to 1 here; this divided by zero
        w1, w2 = omega_range(s)
        assert w1 == w2
        with pytest.raises(NumericError, match=f"s={s}"):
            clone_params_of_omega(w1, s)

    def test_smallest_open_range_keeps_prior_one_half(self):
        w1, w2 = omega_range(1.2e-16)
        assert w1 < w2
        assert clone_params_of_omega(w1, 1.2e-16).p1_of_omega == 0.5

    def test_inversion_hits_requested_prior(self):
        cp = clone_optimal_for_prior(Scenario(0.2, 0.3))
        assert cp.p1_of_omega == pytest.approx(0.3, abs=1e-9)

    def test_inversion_matches_grid_oracle(self):
        sc = Scenario(0.2, 0.3)
        cp = clone_optimal_for_prior(sc)
        oracle_val, _, _ = grid_maximize_cloning(sc)
        assert cp.p_cl == pytest.approx(oracle_val, abs=1e-6)


class TestProtocol3:
    def test_equal_priors_closed_form(self):
        s = 0.04
        res = protocol3_optimal(Scenario(s, 0.5))
        assert res.value == pytest.approx((1 - s) ** 2 / (1 + s), abs=1e-9)

    def test_orthogonal_states(self):
        assert protocol3_optimal(Scenario(0.0, 0.5)).value == 1.0

    def test_skewed_prior_matches_constraint_manifold_oracle(self):
        sc = Scenario(0.04, 0.4)
        closed = protocol3_optimal(sc).value
        p_cl, g1, g2 = grid_maximize_cloning(sc)
        w1 = sc.p1 * g1
        p1cl = w1 / (w1 + sc.p2 * g2)
        boundary = sc.s**2 / (1 + sc.s**2)
        if p1cl >= boundary:
            disc = 1 - 2 * math.sqrt(p1cl * (1 - p1cl)) * sc.s
        else:
            disc = (1 - p1cl) * (1 - sc.s**2)
        assert closed == pytest.approx(p_cl * disc * disc, abs=1e-6)


class TestCloningOptima:
    """Both cloning optima share the cloner and the copy's stage."""

    @pytest.mark.parametrize("s", [0.0, 0.04, 0.36, 1.0])
    def test_same_argmax_and_case_and_no_boundary_prior(self, s):
        both = protocol3_optimal(Scenario(s, 0.2))
        union = at_least_one_protocol3(Scenario(s, 0.2))
        assert set(both.argmax) == {"omega", "gamma1", "gamma2", "p_cl", "p1_cl", "q1b", "q1c"}
        assert both.argmax == union.argmax and both.case_label is union.case_label
        assert both.boundary_prior is None and union.boundary_prior is None

    @pytest.mark.parametrize(
        "s,value,label,q1", [(0.0, 1.0, CaseLabel.CASE_I, 0.0), (1.0, 0.0, CaseLabel.CASE_II, 1.0)]
    )
    def test_endpoints(self, s, value, label, q1):
        for res in (protocol3_optimal(Scenario(s, 0.3)), at_least_one_protocol3(Scenario(s, 0.3))):
            assert (res.value, res.case_label, res.argmax["q1b"]) == (value, label, q1)
            assert res.argmax["p_cl"] == 1.0 and res.argmax["p1_cl"] == 0.3

    def test_case_switches_where_p1_cl_crosses_the_stage_boundary(self):
        s = 0.36
        boundary = s * s / (1 + s * s)  # 0.1147, a threshold on p1_cl
        for p1 in np.linspace(0.01, 0.5, 50):
            res = at_least_one_protocol3(Scenario(s, float(p1)))
            above = res.argmax["p1_cl"] >= boundary
            assert res.case_label is (CaseLabel.CASE_I if above else CaseLabel.CASE_II)
        # cloning lowers the prior of state 1, so p1 = 0.15 > 0.1147 is still case II
        assert at_least_one_protocol3(Scenario(s, 0.15)).case_label is CaseLabel.CASE_II


class TestAtLeastOne:
    def test_ssd_union_examples(self):
        assert at_least_one_ssd(Scenario(0.36, 0.5)).value == pytest.approx(0.64, abs=1e-12)
        assert at_least_one_ssd(Scenario(0.0, 0.5)).value == pytest.approx(1.0, abs=1e-12)
        assert at_least_one_ssd(Scenario(0.36, 0.2)).value == pytest.approx(0.712, abs=1e-12)

    def test_ssd_union_equals_protocol1(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            sc = Scenario(float(rng.uniform(1e-3, 0.999)), float(rng.uniform(1e-3, 0.5)))
            assert at_least_one_ssd(sc).value == pytest.approx(
                protocol1_optimal(sc).value, abs=1e-12
            )

    def test_cloning_union_equal_priors(self):
        s = 0.36
        res = at_least_one_protocol3(Scenario(s, 0.5))
        # p_cl*(1 - 4*(1/4)*s^2) = (1-s^2)/(1+s) = 1-s
        assert res.value == pytest.approx(1 - s, abs=1e-9)

    def test_cloning_union_small_conditional_prior_limit(self):
        s = 0.36
        res = at_least_one_protocol3(Scenario(s, 1e-3))
        cp = clone_optimal_for_prior(Scenario(s, 1e-3))
        assert res.case_label is CaseLabel.CASE_II
        assert res.value == pytest.approx(
            cp.p_cl * (1 - (cp.p1_cl + cp.p2_cl * s * s) ** 2), abs=1e-12
        )
        # p1_cl -> 0 limit approaches p_cl*(1 - s^4)
        assert res.value == pytest.approx(cp.p_cl * (1 - s**4), abs=1e-3)

    def test_cloning_union_dominates_ssd_union(self):
        s = 0.36
        for p1 in np.linspace(0.0025, 0.5, 200):
            sc = Scenario(s, float(p1))
            gap = at_least_one_protocol3(sc).value - at_least_one_ssd(sc).value
            assert gap >= -1e-12
            if p1 < 0.499:
                assert gap > 0.0


def _union_grid_max_loop(sc, points):
    """Brute-force max of p1(1 - q1b q1c) + p2(1 - q2b q2c) on a points^3 grid."""
    s, p1, p2 = sc.s, sc.p1, sc.p2
    best = 0.0
    for t in np.linspace(max(s, 1e-9), 1.0, points):
        r2 = (s / t) ** 2
        q1b = np.linspace(r2, 1.0, points)[:, None]
        q1c = np.linspace(t * t, 1.0, points)[None, :]
        q2b = r2 / q1b if r2 > 0.0 else np.zeros_like(q1b)
        q2c = t * t / q1c
        val = p1 * (1.0 - q1b * q1c) + p2 * (1.0 - q2b * q2c)
        best = max(best, float(val.max()))
    return best


class TestUnionGridBound:
    """A 25^3 grid over (t, q1b, q1c) never beats the closed form by over 1e-9."""

    @pytest.mark.parametrize(
        "s,p1",
        [(0.0, 0.5), (1.0, 0.3), (0.04, 0.5), (0.36, 0.2), (1e-10, 0.01), (0.9, 0.49), (0.5, 1e-3)],
    )
    def test_fixed_scenarios(self, s, p1):
        sc = Scenario(s, p1)
        assert _union_grid_max_loop(sc, 25) <= at_least_one_ssd(sc).value + 1e-9

    @settings(max_examples=80, deadline=None)
    @given(scenarios)
    def test_random_scenarios(self, sc):
        assert _union_grid_max_loop(sc, 25) <= at_least_one_ssd(sc).value + 1e-9


class TestOrdering:
    def test_all_optima_nonincreasing_in_p1(self):
        fns = (
            lambda sc: protocol1_optimal(sc).value,
            lambda sc: protocol2_optimal(sc).value,
            lambda sc: protocol3_optimal(sc).value,
            lambda sc: joint_optimal(sc, compute_boundary=False).value,
            lambda sc: at_least_one_ssd(sc).value,
            lambda sc: at_least_one_protocol3(sc).value,
        )
        for s in (0.04, 0.36):
            grid = np.linspace(0.005, 0.5, 100)
            for fn in fns:
                vals = [fn(Scenario(s, float(p1))) for p1 in grid]
                assert np.all(np.diff(vals) <= 1e-12)

    def test_figure4_ordering_sample(self):
        s = 0.04
        for p1 in (0.05, 0.2, 0.35, 0.5):
            sc = Scenario(s, p1)
            v1 = protocol1_optimal(sc).value
            v2 = protocol2_optimal(sc).value
            v3 = protocol3_optimal(sc).value
            vssd = joint_optimal(sc, compute_boundary=False).value
            assert v1 >= v2 - 1e-9
            assert v2 >= v3 - 1e-9
            assert v3 >= vssd - 1e-9


def _boundary_scenario(kind, x, sign, eps):
    """A scenario eps beside one regime boundary; x is p1 for the symmetry-
    breaking overlap and s for the priors P_C, p_c1 and p_c2."""
    if kind == "3-2sqrt2":
        s, p1 = SYMMETRY_BREAK_OVERLAP + sign * eps, x
    elif kind == "P_C":
        s, p1 = x, critical_prior_PC(x).value + sign * eps
    else:
        s = x
        p1 = protocol2_critical_priors(s)[kind == "p_c2"] * (1.0 + sign * eps)
    return Scenario(s, min(p1, 0.5))


@pytest.mark.parametrize("eps", [1e-12, 1e-8, 1e-4])
@pytest.mark.parametrize("sign", [-1.0, 1.0])
@pytest.mark.parametrize(
    "kind,x",
    [("3-2sqrt2", p1) for p1 in (0.05, 0.3, 0.5)]
    + [("P_C", s) for s in (0.01, 0.1, 0.16)]
    + [(kind, s) for kind in ("p_c1", "p_c2") for s in (0.05, 0.5, 0.95)],
)
def test_orderings_beside_regime_boundaries(kind, x, sign, eps):
    sc = _boundary_scenario(kind, x, sign, eps)
    joint = joint_optimal(sc, compute_boundary=False).value
    p1_value = protocol1_optimal(sc).value
    assert joint >= (1.0 - math.sqrt(sc.s)) ** 2 - 1e-12  # symmetric point t = q = sqrt(s)
    assert joint <= p1_value + 1e-12
    assert protocol2_optimal(sc).value <= p1_value + 1e-12
    assert abs(at_least_one_ssd(sc).value - p1_value) <= 1e-12
    assert at_least_one_protocol3(sc).value >= at_least_one_ssd(sc).value - 1e-12


def _check_cloning_optimum(sc):
    """Protocol 3 raises nothing, the cloner reproduces the prior and the
    cloning union beats the SSD union."""
    assert abs(clone_optimal_for_prior(sc).p1_of_omega - sc.p1) <= 1e-9
    assert protocol3_optimal(sc).value >= 0.0
    assert at_least_one_protocol3(sc).value >= at_least_one_ssd(sc).value - 1e-12


@pytest.mark.parametrize("p1", [1e-3, 0.05, 0.3, 0.4999, 0.5])
@pytest.mark.parametrize("s", [10.0**-k for k in range(10, 0, -1)])
def test_cloning_optimum_at_small_overlap(s, p1):
    _check_cloning_optimum(Scenario(s, p1))


@pytest.mark.parametrize("gap", [10.0**-k for k in range(3, 13)])
@pytest.mark.parametrize("s", [0.3, 0.6, 0.9, 0.99])
def test_cloning_optimum_beside_equal_priors(s, gap):
    _check_cloning_optimum(Scenario(s, 0.5 - gap))


@settings(max_examples=80, deadline=None)
@given(scenarios)
def test_union_identity_property(sc):
    assert at_least_one_ssd(sc).value == pytest.approx(protocol1_optimal(sc).value, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.01, max_value=0.95), st.floats(min_value=0.0, max_value=1.0))
def test_clone_constraint_property(s, frac):
    w1, w2 = omega_range(s)
    om = w1 + frac * (w2 - w1)
    cp = clone_params_of_omega(om, s)
    assert 0.0 <= cp.gamma1 <= cp.gamma2 <= 1.0
    assert abs(cp.x) <= 1.0 and abs(cp.y) <= 1.0
    residual = abs(
        s - math.sqrt(cp.gamma1 * cp.gamma2) * s * s - math.sqrt((1 - cp.gamma1) * (1 - cp.gamma2))
    )
    assert residual < 1e-10


@settings(max_examples=100, deadline=None)
@example(log_s=math.log10(0.25), frac=0.0)
@example(log_s=math.log10(2.2e-12), frac=1.3e-4)
@given(st.floats(min_value=-12.0, max_value=math.log10(1.0 - 1e-9)), st.floats(0.0, 1.0))
def test_clone_params_stay_ordered_down_to_tiny_overlap(log_s, frac):
    s = 10.0**log_s
    w1, w2 = omega_range(s)
    cp = clone_params_of_omega(w1 + frac * (w2 - w1), s)
    assert -1.0 <= cp.x <= cp.y <= 1.0
    assert 0.0 <= cp.gamma1 <= cp.gamma2 <= 1.0
    # y once rounded one ulp above 1 here, adding two rounded terms
    edge = _clone_params(0.7623128417527466, 0.9999999967658476)
    assert -1.0 <= edge.x <= edge.y <= 1.0
    assert 0.0 <= cp.p1_of_omega <= 0.5 and cp.p_cl <= 1.0
    if frac == 0.0:
        assert cp.gamma1 == cp.gamma2 and cp.p1_of_omega == 0.5
    _check_brent_step_field(np.array([math.sqrt(frac)]), np.array([s]))


def _check_brent_step_field(u, s):
    """The root searches' steps read ``p1_of_omega`` from the working point's
    fields without building ``CloneParams``; in each lane of (u, s) that field
    equals ``_clone_params(u, s).p1_of_omega`` bit for bit, from floats and
    from arrays alike."""
    lanes = _clone_working_point(u, s, np.sqrt, np.where)[_P1_OF_OMEGA]
    assert np.array_equal(lanes, _clone_params_values(u, s).p1_of_omega)
    for ui, si, lane in zip(u.tolist(), s.tolist(), lanes.tolist()):
        step = _clone_working_point(ui, si, math.sqrt, _pick)[_P1_OF_OMEGA]
        assert step == _clone_params(ui, si).p1_of_omega == lane


@pytest.mark.parametrize("seed", [0, 1])
def test_brent_step_field_matches_clone_params(seed):
    # s log-uniform from 1e-12 to 1, then 1 - s log-uniform from 1e-9 to 1;
    # u uniform, with both ends
    rng = np.random.default_rng(seed)
    small, near_one = 10.0 ** rng.uniform(-12.0, 0.0, 1000), 1.0 - 10.0 ** rng.uniform(-9.0, 0.0, 1000)
    s = np.concatenate([small, near_one])
    u = rng.uniform(0.0, 1.0, s.size)
    u[:2], u[-2:] = 0.0, 1.0
    _check_brent_step_field(u, s)
