import math
import random
from dataclasses import fields
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from seqdisc import (
    CERT_P1_VALUES,
    CERT_S_VALUES,
    CaseLabel,
    DomainError,
    NumericError,
    SYMMETRY_BREAK_OVERLAP,
    Scenario,
    at_least_one_protocol3,
    at_least_one_ssd,
    bob_optimal,
    charlie_optimal,
    clone_optimal_for_prior,
    critical_prior_PC,
    grid_maximize_cloning,
    joint_optimal,
    protocol1_optimal,
    protocol2_critical_priors,
    protocol2_optimal,
    protocol3_optimal,
)
from seqdisc import bounds, protocols
from seqdisc.core import _pick
from seqdisc.ssd import _stage_candidates, _stage_optimum
from seqdisc.protocols import (
    _P1_OF_OMEGA,
    _SLOPE,
    CloneParams,
    _bob_state1_mass,
    _check_prior,
    _clone_optimal_values,
    _clone_working_point,
    at_least_one_protocol3_values,
    clone_params_of_omega,
    omega_range,
    protocol1_optimal_values,
    protocol2_optimal_values,
    protocol3_optimal_values,
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
        # s/sqrt(p1/p2) lies in [s, 1]: 4.5e-9 at p1 = 5e-324, not sqrt(inf)*s.
        # Protocol (2)'s Charlie sees the same prior, as Bob's success
        # probability rounds to 1.
        sc = Scenario(1e-170, p1)
        for res, name in (
            (protocol1_optimal(sc), "q1b"),
            (at_least_one_ssd(sc), "q1_product"),
            (bob_optimal(sc, 1.0), "q1b"),
            (protocol2_optimal(sc), "q1b"),
            (protocol2_optimal(sc), "q1c"),
        ):
            assert res.case_label is CaseLabel.CASE_I
            assert res.value == 1.0
            assert res.argmax[name] == pytest.approx(1e-170 / math.sqrt(p1), rel=1e-15)


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

    def test_conditioned_prior_matches_its_definition(self):
        # Charlie's prior p1(1 - q1)/(p1(1 - q1) + p2(1 - q2)) at Bob's
        # optimal q1b = sqrt(p2/p1)*s, against the mass body over Bob's
        # success; Charlie's stage runs at that prior
        s, p1, p2 = 0.1, 0.3, 0.7
        q1b = math.sqrt(p2 / p1) * s
        b1, b2 = p1 * (1.0 - q1b), p2 * (1.0 - s * s / q1b)
        sc = Scenario(s, p1)
        p1c = _bob_state1_mass(p1, p2, s, math.sqrt, _pick) / protocol1_optimal(sc).value
        assert p1c == pytest.approx(b1 / (b1 + b2), abs=1e-12)
        assert p1c == pytest.approx(0.2798201867892059, abs=1e-12)
        res = protocol2_optimal(sc)
        assert res.argmax["q1b"] == protocol1_optimal(sc).argmax["q1b"]
        assert res.argmax["q1c"] == math.sqrt((1.0 - p1c) / p1c) * s

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
        # at p_c1, Charlie's two candidates at the prior Bob's success leaves
        # give protocol (2) the same value (case I meets case II), and
        # Charlie's case switches from II to I across it
        # s = 1 is left out: Bob's interior success vanishes there (0/0)
        for s in np.logspace(-10, -1e-9, 600).tolist():
            p_c1, _ = protocol2_critical_priors(s)
            p2 = 1.0 - p_c1
            bob = _stage_optimum(p_c1, p2, s)[0]
            p1c = _bob_state1_mass(p_c1, p2, s, math.sqrt, _pick) / bob
            v_int, v_boundary = _stage_candidates(p1c, 1.0 - p1c, s, math.sqrt, _pick)
            assert abs(bob * (v_int - v_boundary)) <= 1e-12, s
            below = protocol2_optimal(Scenario(s, p_c1 * (1.0 - 1e-9)))
            above = protocol2_optimal(Scenario(s, min(p_c1 * (1.0 + 1e-9), 0.5)))
            assert (below.case_label, above.case_label) == (CaseLabel.CASE_II, CaseLabel.CASE_I), s

    @pytest.mark.parametrize("p1", [0.1, 0.5])
    def test_identical_states(self, p1):
        res = protocol2_optimal(Scenario(1.0, p1))
        assert res.value == 0.0

    @pytest.mark.parametrize("p1", [0.5, 0.3, 1e-300, 5e-324])
    def test_orthogonal_states_take_case_i(self, p1):
        # at s = 0 both critical priors are 0, so case I's own formulas give
        # value 1 and the stationary points 0, also where p2/p1 overflows
        res = protocol2_optimal(Scenario(0.0, p1))
        assert res.value == 1.0 and res.case_label is CaseLabel.CASE_I
        assert res.argmax == {"q1b": 0.0, "q2b": 0.0, "q1c": 0.0, "q2c": 0.0}
        assert res.boundary_prior == 0.0
        assert protocol2_optimal_values(np.array([0.0]), np.array([p1])).tolist() == [1.0]

    @pytest.mark.parametrize(
        "s, p1",
        [
            (1e-170, 5e-324),  # p2/p1 overflows: sqrt(inf)*s would be inf
            (0.45451421984580365, 0.17121337355265906),  # p1 == p_c2: q1b rounds above 1
            (0.8669372275162597, 0.42908693255311925),  # p1 == p_c2 too
            (1.5e-162, 5e-324),  # Charlie's conditioned prior rounds to 0
        ],
    )
    def test_argmax_is_feasible(self, s, p1):
        _assert_protocol2_argmax_feasible(s, p1)

    def test_argmax_is_feasible_beside_the_critical_priors(self):
        for s, p1 in _protocol2_edge_scenarios():
            _assert_protocol2_argmax_feasible(s, p1)

    def test_case_iii_is_protocol1_boundary_value(self):
        # below p_c2 = s^2/(1+s^2) Bob ignores state 1, and both protocols
        # take the stage's boundary value p2*(1 - s^2) from one body
        rng = np.random.default_rng(30)
        n = 2000
        s = np.where(rng.random(n) < 0.5, rng.random(n), 1.0 - 10.0 ** rng.uniform(-16.0, -1.0, n))
        frac = np.where(rng.random(n) < 0.5, rng.random(n), 10.0 ** rng.uniform(-300.0, 0.0, n))
        p1 = s * s / (1.0 + s * s) * np.minimum(frac, 1.0 - 1e-11)
        for sc in (Scenario(a, b) for a, b in zip(s.tolist(), p1.tolist()) if b > 0.0):
            case3, single = protocol2_optimal(sc), protocol1_optimal(sc)
            assert case3.case_label is CaseLabel.CASE_III, sc
            assert single.case_label is CaseLabel.CASE_II, sc
            assert case3.value == single.value, sc

    def test_case_iii_exactly_where_protocol1_ignores_state_1(self):
        # Bob's stage is protocol (1)'s, so protocol (2) takes case III on
        # exactly the scenarios where protocol (1)'s q1b is 1, with its value
        # and argmax bit for bit: a few ulps either side of p_c2, beside it,
        # and anywhere, with s near 1 for half of the draws.  That is where
        # p1 <= s^2/(1 + s^2) exactly, with p2 = 1 - p1 in rationals.
        rng = random.Random(32)
        counts = {True: 0, False: 0}
        for _ in range(3000):
            s = 1.0 - 10.0 ** rng.uniform(-16, -1) if rng.random() < 0.5 else rng.random()
            p_c2 = protocol2_critical_priors(s)[1]
            kind = rng.random()
            if kind < 0.5:
                p1 = p_c2 + rng.randint(-4, 4) * math.ulp(p_c2)
            elif kind < 0.8:
                p1 = p_c2 * (1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-16, -3))
            else:
                p1 = rng.uniform(1e-9, 0.5)
            if not 0.0 < p1 <= 0.5:
                continue
            sc = Scenario(s, p1)
            res, single = protocol2_optimal(sc), protocol1_optimal(sc)
            case_iii = single.argmax["q1b"] == 1.0
            assert case_iii == (Fraction(s) ** 2 * (1 - Fraction(p1)) >= Fraction(p1)), (s, p1)
            assert (res.case_label is CaseLabel.CASE_III) == case_iii, (s, p1)
            counts[case_iii] += 1
            if case_iii:
                assert res.value == single.value, (s, p1)
                assert res.argmax == single.argmax, (s, p1)
            else:
                assert res.argmax["q1b"] == single.argmax["q1b"] < 1.0, (s, p1)
        assert min(counts.values()) > 1000


def _assert_protocol2_argmax_feasible(s, p1):
    """Every q of protocol (2)'s argmax lies in [0, 1], and q2 = s*s/q1 (0
    where q1 = 0) for each stage it names."""
    argmax, k = protocol2_optimal(Scenario(s, p1)).argmax, s * s
    assert all(0.0 <= q <= 1.0 for q in argmax.values()), (s, p1, argmax)
    for q1, q2 in (("q1b", "q2b"), ("q1c", "q2c")):
        if q1 in argmax:
            assert argmax[q2] == (k / argmax[q1] if argmax[q1] > 0.0 else 0.0), (s, p1, argmax)


def _protocol2_edge_scenarios(n=2700):
    """Seeded (s, p1): s log-uniform from 1e-320 to 1 or 1 - s log-uniform
    from 1e-16 to 1, and p1 within 1e-17 to 1e-6 (relative) of p_c1 or p_c2,
    or log-uniform from 5e-324 to 1/2; priors outside (0, 1/2] are dropped."""
    rng = np.random.default_rng(29)
    s = np.where(
        rng.random(n) < 0.5,
        10.0 ** rng.uniform(-320.0, 0.0, n),
        1.0 - 10.0 ** rng.uniform(-16.0, 0.0, n),
    )
    edges = np.array([protocol2_critical_priors(float(x)) for x in s])
    edge = edges[np.arange(n), rng.integers(0, 2, n)]
    near = edge * (1.0 + rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-17.0, -6.0, n))
    low = 10.0 ** rng.uniform(np.log10(5e-324), np.log10(0.5), n)
    p1 = np.where(rng.random(n) < 0.75, near, low)
    keep = (p1 > 0.0) & (p1 <= 0.5)
    return list(zip(s[keep].tolist(), p1[keep].tolist()))


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
        # the certification grid and 300 draws from the certify benchmark's
        # range: the cloner's p_cl and the oracle's maximum agree within
        # 8.9e-16 (3.0e-15 with the former angle form of the oracle)
        rng = random.Random(4)
        draws = [(rng.uniform(0.002, 0.98), rng.uniform(0.02, 0.5)) for _ in range(300)]
        grid = [(s, p1) for s in CERT_S_VALUES for p1 in CERT_P1_VALUES]
        for s, p1 in grid + draws:
            sc = Scenario(s, p1)
            assert abs(clone_optimal_for_prior(sc).p_cl - grid_maximize_cloning(sc)[0]) <= 5e-15, (s, p1)


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

    @pytest.mark.parametrize("p1", [0.5, 0.3, 1e-300, 5e-324])
    @pytest.mark.parametrize("s,value,q1", [(0.0, 1.0, 0.0), (1.0, 0.0, 1.0)])
    def test_endpoints(self, s, value, q1, p1):
        # cloning always succeeds and leaves the prior, so the copy's stage
        # is protocol (1)'s, tie rule included: case I at (1, 1/2)
        label = protocol1_optimal(Scenario(s, p1)).case_label
        assert label is (CaseLabel.CASE_I if s == 0.0 or p1 == 0.5 else CaseLabel.CASE_II)
        for res in (protocol3_optimal(Scenario(s, p1)), at_least_one_protocol3(Scenario(s, p1))):
            assert (res.value, res.case_label, res.argmax["q1b"]) == (value, label, q1)
            assert res.argmax["p_cl"] == 1.0 and res.argmax["p1_cl"] == p1
        for kernel in (protocol3_optimal_values, at_least_one_protocol3_values):
            assert kernel(np.array([s]), np.array([p1])).tolist() == [value]

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


def _protocol1_reference(s, p1):
    """Protocol (1) at 50 digits: (value, case, whether (s, p1) lies in the
    tie band, where |v_int - v_bnd| <= 1e-11*max or |q1 - 1| <= 1e-11)."""
    with mpmath.workdps(50):
        s, p1 = mpmath.mpf(s), mpmath.mpf(p1)
        p2 = 1 - p1
        q1 = mpmath.sqrt(p2 / p1) * s
        v_int, v_bnd = 1 - 2 * mpmath.sqrt(p1 * p2) * s, p2 * (1 - s * s)
        tie = abs(v_int - v_bnd) <= 1e-11 * max(v_int, v_bnd) or abs(q1 - 1) <= 1e-11
        if q1 <= 1:
            return v_int, CaseLabel.CASE_I, tie
        return v_bnd, CaseLabel.CASE_II, tie


def _near_identical_scenarios(n, seed=2026):
    """Seeded (s, p1) with 1 - s = 10^U(-15, -1) and p1 = 1/2 - 10^U(-16, -1)
    (40%), s^2/(1+s^2)*(1 +- 10^U(-9, -3)) (30%) or U(1e-6, 1/2); priors
    above 1/2 are dropped."""
    rng, out = random.Random(seed), []
    for _ in range(n):
        s, u = 1.0 - 10.0 ** rng.uniform(-15, -1), rng.random()
        if u < 0.4:
            p1 = 0.5 - 10.0 ** rng.uniform(-16, -1)
        elif u < 0.7:
            p1 = s * s / (1 + s * s) * (1 + rng.choice([-1, 1]) * 10.0 ** rng.uniform(-9, -3))
        else:
            p1 = rng.uniform(1e-6, 0.5)
        if p1 <= 0.5:
            out.append((s, p1))
    return out


class TestNearIdenticalStates:
    """The stage's interior value 1 - 2*sqrt(p1*p2)*s and boundary value
    p2*(1 - s^2) cancel as s nears 1; the one body that computes both must
    not."""

    def test_stationary_point_wins_where_it_is_feasible(self):
        sc = Scenario(0.9999907486809279, 0.4999953803918516)
        res, (ref, _, _) = protocol1_optimal(sc), _protocol1_reference(sc.s, sc.p1)
        assert res.case_label is CaseLabel.CASE_I and res.argmax["q1b"] < 1.0
        assert abs(res.value - ref) <= 1e-15 * ref

    def test_relative_error_and_case_against_50_digits(self):
        for s, p1 in _near_identical_scenarios(330):
            res = protocol1_optimal(Scenario(s, p1))
            ref, label, tie = _protocol1_reference(s, p1)
            assert abs(res.value - ref) <= 1e-14 * ref, (s, p1)
            assert tie or res.case_label is label, (s, p1)

    def test_orthogonal_states_give_exactly_one(self):
        rng = np.random.default_rng(30)
        priors = [0.5, 5e-324] + (10.0 ** rng.uniform(-323.0, math.log10(0.5), 200)).tolist()
        for p1 in priors:
            sc = Scenario(0.0, p1)
            assert protocol1_optimal(sc).value == 1.0, p1
            assert bob_optimal(sc, float(rng.uniform(5e-324, 1.0))).value == 1.0, p1
            # Charlie's overlap t is positive; at the smallest ones his value rounds to 1
            assert charlie_optimal(sc, 5e-324).value == 1.0, p1
        assert (protocol1_optimal_values(np.zeros(len(priors)), np.array(priors)) == 1.0).all()

    def test_identical_states_give_exactly_zero(self):
        # beside p1 = 1/2 the stationary point rounds to 1 or lies within the
        # 1e-12 feasibility margin above it; the value is the one at q1 = 1
        rng = np.random.default_rng(31)
        priors = [0.5] + (0.5 - 10.0 ** rng.uniform(-16.0, -12.0, 100)).tolist()
        for p1 in priors:
            sc = Scenario(1.0, p1)
            for res in (protocol1_optimal(sc), bob_optimal(sc, 1.0), protocol3_optimal(sc)):
                assert res.value == 0.0 and res.argmax["q1b"] == 1.0, (p1, res)
        assert not protocol1_optimal_values(np.ones(len(priors)), np.array(priors)).any()

    def test_protocol2_stage_factors_against_50_digits(self):
        # cases I and III are products of stage values; case II's factor
        # p2 - sqrt(p1*p2)*s is sqrt(p2)*(d + sqrt(p1)*(1 - s)), d = sqrt(p2) - sqrt(p1)
        rng = random.Random(6)
        # case II, where the direct form's first factor cancels to a relative
        # 2.0e-8, and case I, where Charlie's prior did so to 1.2e-10
        extra = [(0.9999999961722553, 0.49999999895134045), (0.999999287032437, 0.4999999999998079)]
        for _ in range(150):  # p1 in (p_c1, 1/2], a gap of order 1 - s
            s = 1.0 - 10.0 ** rng.uniform(-15, -1)
            p_c1 = protocol2_critical_priors(s)[0]
            extra.append((s, 0.5 - (0.5 - p_c1) * rng.random()))
        for _ in range(150):  # p1 in [p_c2, p_c1]
            s = 1.0 - 10.0 ** rng.uniform(-15, -1) if rng.random() < 0.7 else rng.random()
            p_c1, p_c2 = protocol2_critical_priors(s)
            extra.append((s, p_c2 + (p_c1 - p_c2) * rng.random()))
        checked = {label: 0 for label in CaseLabel}
        for s, p1 in _near_identical_scenarios(330, seed=6) + extra:
            p_c1, p_c2 = protocol2_critical_priors(s)
            res = protocol2_optimal(Scenario(s, p1))
            with mpmath.workdps(50):
                ms, m1 = mpmath.mpf(s), mpmath.mpf(p1)
                bob = 1 - 2 * mpmath.sqrt(m1 * (1 - m1)) * ms
                if p1 > p_c1 + 1e-14:  # clear of p_c1's rounding
                    p1c = (m1 - mpmath.sqrt(m1 * (1 - m1)) * ms) / bob
                    ref = bob * (1 - 2 * mpmath.sqrt(p1c * (1 - p1c)) * ms)
                elif p1 < p_c2 - 1e-14:
                    ref = (1 - m1) * (1 - ms * ms)
                elif p_c2 + 1e-14 < p1 < p_c1 - 1e-14:
                    ref = (1 - m1 - mpmath.sqrt(m1 * (1 - m1)) * ms) * (1 - ms * ms)
                else:
                    continue
                checked[res.case_label] += 1
                assert abs(res.value - ref) <= 1e-14 * ref, (s, p1, res.case_label)
        assert min(checked.values()) > 80 and sum(checked.values()) > 450

    def test_protocol2_never_above_protocol1(self):
        rng = random.Random(4)
        scenarios = _near_identical_scenarios(300, seed=5) + [
            (rng.random(), rng.uniform(1e-9, 0.5)) for _ in range(300)
        ]
        # just below p_c2, where protocol (2) takes case III's boundary value
        # and protocol (1) ties its case I within rounding of it
        for _ in range(300):
            s = rng.random() if rng.random() < 0.5 else 1.0 - 10.0 ** rng.uniform(-15, -1)
            scenarios.append((s, s * s / (1 + s * s) * (1 - 10.0 ** rng.uniform(-17, -12))))
        for s, p1 in scenarios:
            sc = Scenario(s, p1)
            assert protocol2_optimal(sc).value <= protocol1_optimal(sc).value, (s, p1)


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
    edge = CloneParams(
        *_clone_working_point(0.7623128417527466, 0.9999999967658476, math.sqrt, _pick)[:_SLOPE]
    )
    assert -1.0 <= edge.x <= edge.y <= 1.0
    assert 0.0 <= cp.p1_of_omega <= 0.5 and cp.p_cl <= 1.0
    if frac == 0.0:
        assert cp.gamma1 == cp.gamma2 and cp.p1_of_omega == 0.5
    _check_step_fields(np.array([math.sqrt(frac)]), np.array([s]))


def _check_step_fields(u, s):
    """The Newton steps read ``p1_of_omega`` and the slope p1'(u) from the
    working point's tuple, and the root's ``CloneParams`` is built from the
    same tuple; in each lane of (u, s) both fields are the float path's bit
    for bit, and the built field is the one the steps read."""
    lanes = _clone_working_point(u, s, np.sqrt, np.where)
    built = CloneParams(*lanes[:_SLOPE])
    assert np.array_equal(lanes[_P1_OF_OMEGA], built.p1_of_omega)
    for i, (ui, si) in enumerate(zip(u.tolist(), s.tolist())):
        point = _clone_working_point(ui, si, math.sqrt, _pick)
        assert CloneParams(*point[:_SLOPE]).p1_of_omega == point[_P1_OF_OMEGA]
        assert (point[_P1_OF_OMEGA], point[_SLOPE]) == (
            lanes[_P1_OF_OMEGA][i], lanes[_SLOPE][i]
        )


@pytest.mark.parametrize("seed", [0, 1])
def test_step_fields_match_on_floats_and_lanes(seed):
    # s log-uniform from 1e-12 to 1, then 1 - s log-uniform from 1e-9 to 1;
    # u uniform, with both ends
    rng = np.random.default_rng(seed)
    small, near_one = 10.0 ** rng.uniform(-12.0, 0.0, 1000), 1.0 - 10.0 ** rng.uniform(-9.0, 0.0, 1000)
    s = np.concatenate([small, near_one])
    u = rng.uniform(0.0, 1.0, s.size)
    u[:2], u[-2:] = 0.0, 1.0
    _check_step_fields(u, s)


@pytest.mark.parametrize("s", [1e-200, 1e-12, 1e-4, 0.04, 0.36, 0.9, 1.0 - 1e-9])
@pytest.mark.parametrize("z", [0.3, 1.0, 3.0])
def test_slope_is_the_derivative_of_the_prior(s, z):
    # p1'(u) against a 40-digit central difference of the same steps in
    # mpmath, at u = z*sqrt(s) (where the root lies for small s) and near 1,
    # except at s = 1e-200, where p1 and its slope, about s^2 there, underflow
    near_one = {1.0 - 0.1 * z / (1.0 + z)} if s > 1e-100 else set()
    for u in {min(z * math.sqrt(s), 0.5)} | near_one:
        with mpmath.workdps(40):
            prior = lambda x: _clone_working_point(x, mpmath.mpf(s), mpmath.sqrt, _pick)[
                _P1_OF_OMEGA
            ]
            want = mpmath.diff(prior, mpmath.mpf(u), h=mpmath.mpf(u) * 1e-12)
        got = _clone_working_point(u, s, math.sqrt, _pick)[_SLOPE]
        assert got < 0.0 and abs(got - want) <= 1e-12 * abs(want), (s, u, got, want)


def test_prior_check_fails_nan_alike_on_floats_and_lanes():
    # one accuracy contract for both solves: NaN fails it, and a lane fails
    # with the float's message
    message = r"p1\(omega\)=nan, wanted 0.3$"
    with pytest.raises(NumericError, match=message):
        _check_prior(math.nan, 0.3)
    with pytest.raises(NumericError, match=message):
        _check_prior(np.array([0.2, math.nan, 0.1]), np.array([0.2, 0.3, 0.4]))
    _check_prior(0.3 + 0.9e-9, 0.3)


def _mp_cloner(s, p1):
    """p_cl and p1_cl of the optimal cloner at 50 digits: the working point's
    steps in mpmath, its prior matched by bisection in ln u over [1e-300, 1]."""
    with mpmath.workdps(50):
        s, p1 = mpmath.mpf(s), mpmath.mpf(p1)
        lo, hi = mpmath.log(mpmath.mpf("1e-300")), mpmath.mpf(0)
        for _ in range(200):
            mid = (lo + hi) / 2
            point = _clone_working_point(mpmath.exp(mid), s, mpmath.sqrt, _pick)
            lo, hi = (mid, hi) if point[_P1_OF_OMEGA] > p1 else (lo, mid)
        cp = CloneParams(*_clone_working_point(mpmath.exp(lo), s, mpmath.sqrt, _pick)[:_SLOPE])
        return cp.p_cl, cp.p1_cl


#: Where ``bounds._cloner_bounds`` is held to ``_mp_cloner``: seeded draws in
#: the certify benchmark's range (s in [0.002, 0.98], p1 in [0.02, 0.5]), p1 =
#: 1/2, where u* = 0, p1 = 0.01*s^2, where u* lies in a layer at u = 1, and
#: s = 1e-12.
_ENCLOSURE_SCENARIOS = [
    *(tuple(x) for x in np.random.default_rng(63).uniform([0.002, 0.02], [0.98, 0.5], (8, 2)).tolist()),
    *((s, p1) for s in (1e-12, 1e-3, 0.36) for p1 in (0.5, 0.01 * s * s)),
    (1e-12, 0.3),
]


@pytest.mark.parametrize("s,p1", _ENCLOSURE_SCENARIOS)
def test_cloner_enclosure_holds_the_50_digit_cloner(s, p1):
    # the exact bounds on p_cl and p1_cl, its bracket started at the solve's
    # own u, hold the reference within its 50 digits, and lie within 1e-15
    # of each other (read: 7.3e-18 and 2.8e-16 relative on 330 draws in the
    # certify range; 2.2e-13 relative on p1_cl's 1.0e-14 at p1 = 0.01*s^2,
    # s = 1e-3, where p1_cl falls steeply in u)
    sc = Scenario(s, p1)
    _, *enclosure = bounds._cloner_bounds(sc.p1, s, protocols._cloned_optimum(sc)[2])
    for (lower, upper), want in zip(enclosure, _mp_cloner(s, p1)):
        lower, upper = Fraction(*lower), Fraction(*upper)
        with mpmath.workdps(50):
            slack = want * mpmath.mpf(10) ** -45
            assert mpmath.mpf(lower.numerator) / lower.denominator - slack <= want
            assert want <= mpmath.mpf(upper.numerator) / upper.denominator + slack
        assert lower <= upper <= lower + Fraction(1e-15)


@pytest.mark.parametrize("s", [1e-120, 1e-200])
@pytest.mark.parametrize("p1", [0.1, 0.3])
def test_cloner_far_below_documented_overlap(s, p1):
    # the root in u lies near 1e-60 and 1e-100 here, hundreds of halvings of
    # [0, 1] away from any bracket end; floats and lanes end on the same cloner
    cp = clone_optimal_for_prior(Scenario(s, p1))
    lanes = _clone_optimal_values(np.array([s, s]), np.array([p1, 0.5]))
    for f in fields(CloneParams):
        assert getattr(lanes, f.name)[0] == getattr(cp, f.name), f.name
    p_cl, p1_cl = _mp_cloner(s, p1)
    assert abs(cp.p_cl - p_cl) <= 1e-15 * p_cl and abs(cp.p1_cl - p1_cl) <= 1e-15 * p1_cl


@pytest.mark.parametrize("s", [1e-3, 1e-6, 1e-12, 1e-60])
def test_cloner_below_prior_s_squared_takes_few_reads(s, monkeypatch):
    # below p1 = s^2 the root lies in a layer of width about s at u = 1; the
    # steps start at that layer's inverse rather than bisect toward u = 1
    reads = [0]

    def read(*args):
        reads[0] += 1
        return _clone_working_point(*args)

    monkeypatch.setattr(protocols, "_clone_working_point", read)
    p1 = np.array([0.01, 0.3, 0.5, 0.9, 0.99]) * (s * s)
    lanes = _clone_optimal_values(np.full(p1.shape, s), p1)
    assert reads[0] <= 6
    for i, prior in enumerate(p1.tolist()):
        cp = clone_optimal_for_prior(Scenario(s, prior))
        assert (cp.p_cl, cp.p1_cl) == (lanes.p_cl[i], lanes.p1_cl[i])


def test_cloner_out_of_reads_fails_alike_on_floats_and_lanes():
    # p1(u) has underflowed to 0 long before its root here, so the steps
    # bisect toward it and run out of reads; the prior check alone, 1e-9
    # absolute, would pass that last read
    message = r"did not converge in \d+ reads: s=2.47e-229, p1=1e-300$"
    with pytest.raises(NumericError, match=message):
        clone_optimal_for_prior(Scenario(2.47e-229, 1e-300))
    with pytest.raises(NumericError, match=message):
        _clone_optimal_values(np.array([0.5, 2.47e-229]), np.array([0.3, 1e-300]))
