import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqdisc import (
    CaseLabel,
    ConstraintError,
    DomainError,
    SYMMETRY_BREAK_OVERLAP,
    Scenario,
    bob_optimal,
    bob_success,
    charlie_optimal,
    critical_prior_PC,
    joint_optimal,
    joint_success,
    solve_q_star,
)
from seqdisc import ssd
from seqdisc.core import NumericError

_EPS = float(np.finfo(float).eps)

scenarios = st.builds(
    Scenario,
    s=st.floats(min_value=1e-10, max_value=0.999),
    p1=st.floats(min_value=1e-3, max_value=0.5),
)


class TestBobSuccess:
    def test_no_information_extracted_at_t_eq_s(self):
        assert bob_success(Scenario(0.05, 0.5), 0.05, 1.0) == 0.0

    def test_direct_arithmetic_equal_priors(self):
        assert bob_success(Scenario(0.05, 0.5), 0.1, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_direct_arithmetic_boundary_strategy(self):
        # q2b = s^2/t^2 = 0.25, so 0.8 * 0.75
        assert bob_success(Scenario(0.05, 0.2), 0.1, 1.0) == pytest.approx(0.6, abs=1e-12)

    @pytest.mark.parametrize("t", [0.01, 1.5, 0.0])
    def test_rejects_bad_t(self, t):
        with pytest.raises(DomainError):
            bob_success(Scenario(0.05, 0.5), t, 0.5)

    def test_rejects_infeasible_q1b(self):
        with pytest.raises(ConstraintError, match="bound"):
            bob_success(Scenario(0.05, 0.5), 0.1, 0.1)  # below s^2/t^2 = 0.25


class TestBobOptimal:
    def test_equal_priors_interior(self):
        res = bob_optimal(Scenario(0.05, 0.5), 0.1)
        assert res.value == pytest.approx(0.5, abs=1e-12)
        assert res.case_label is CaseLabel.CASE_I

    def test_skewed_prior_boundary(self):
        res = bob_optimal(Scenario(0.05, 0.1), 0.06)
        assert res.value == pytest.approx(0.9 * (1 - (0.05 / 0.06) ** 2), abs=1e-12)
        assert res.case_label is CaseLabel.CASE_II
        assert res.boundary_prior == pytest.approx(0.0025 / 0.0061, abs=1e-12)

    @pytest.mark.parametrize("p1", [0.5, 0.3, 0.05])
    def test_zero_at_t_eq_s(self, p1):
        assert bob_optimal(Scenario(0.1, p1), 0.1).value == pytest.approx(0.0, abs=1e-12)

    def test_argmax_reproduces_value(self):
        for s, p1, t in [(0.05, 0.5, 0.1), (0.05, 0.1, 0.06), (0.3, 0.4, 0.7)]:
            res = bob_optimal(Scenario(s, p1), t)
            assert bob_success(Scenario(s, p1), t, res.argmax["q1b"]) == pytest.approx(
                res.value, abs=1e-12
            )

    @pytest.mark.parametrize("s,p1,t", [(0.05, 0.5, 0.1), (0.05, 0.1, 0.06), (0.2, 0.3, 0.5)])
    def test_dominates_dense_q_grid(self, s, p1, t):
        sc = Scenario(s, p1)
        best = max(bob_success(sc, t, q) for q in np.linspace((s / t) ** 2, 1.0, 1000))
        assert bob_optimal(sc, t).value >= best - 1e-9

    def test_monotone_nondecreasing_in_t(self):
        for s, p1 in [(0.05, 0.5), (0.1, 0.2), (0.3, 0.4)]:
            vals = [bob_optimal(Scenario(s, p1), t).value for t in np.linspace(s, 1.0, 50)]
            assert np.all(np.diff(vals) >= -1e-12)

    def test_enhanced_by_prior_deviation(self):
        for s, t in [(0.05, 0.1), (0.2, 0.5)]:
            vals = [bob_optimal(Scenario(s, p1), t).value for p1 in np.linspace(0.5, 0.01, 40)]
            assert np.all(np.diff(vals) >= -1e-12)

    def test_continuous_across_case_boundary(self):
        s, t = 0.05, 0.1
        p_star = s * s / (s * s + t * t)
        sc = Scenario(s, p_star)
        case1 = 1.0 - 2.0 * math.sqrt(p_star * (1 - p_star)) * s / t
        case2 = (1 - p_star) * (1 - (s / t) ** 2)
        assert case1 == pytest.approx(case2, abs=1e-9)
        below = bob_optimal(Scenario(s, p_star * (1 - 1e-9)), t).value
        above = bob_optimal(Scenario(s, p_star * (1 + 1e-9)), t).value
        assert below == pytest.approx(above, abs=1e-8)


class TestCharlieOptimal:
    def test_nothing_left_at_t_one(self):
        assert charlie_optimal(Scenario(0.04, 0.5), 1.0).value == pytest.approx(0.0, abs=1e-12)

    def test_equal_priors(self):
        res = charlie_optimal(Scenario(0.04, 0.5), 0.2)
        assert res.value == pytest.approx(0.8, abs=1e-12)
        assert res.case_label is CaseLabel.CASE_I

    def test_skewed_prior_boundary(self):
        res = charlie_optimal(Scenario(0.01, 0.02), 0.2)
        assert res.value == pytest.approx(0.98 * 0.96, abs=1e-12)
        assert res.case_label is CaseLabel.CASE_II

    def test_monotone_nonincreasing_in_t(self):
        for s, p1 in [(0.05, 0.5), (0.1, 0.2)]:
            vals = [charlie_optimal(Scenario(s, p1), t).value for t in np.linspace(s, 1.0, 50)]
            assert np.all(np.diff(vals) <= 1e-12)

    def test_continuous_across_case_boundary(self):
        s, t = 0.05, 0.3
        p_star = t * t / (1 + t * t)
        case1 = 1.0 - 2.0 * math.sqrt(p_star * (1 - p_star)) * t
        case2 = (1 - p_star) * (1 - t * t)
        assert case1 == pytest.approx(case2, abs=1e-9)


@pytest.mark.parametrize("stage", [bob_optimal, charlie_optimal])
def test_numpy_overlap_gives_the_float_result(stage):
    # the value, the argmax and the boundary prior were np.float64 for a numpy t
    sc = Scenario(0.3, 0.2)
    result = stage(sc, np.float64(0.6))
    assert repr(result) == repr(stage(sc, 0.6))
    assert all(type(x) is float for x in (result.value, result.boundary_prior, *result.argmax.values()))


def _fraction_interior(p1, r):
    """The reference for ``ssd._interior``: r^2*(1 - p1) < p1 in ``Fraction``s."""
    p1, r = Fraction(p1), Fraction(r)
    return r * r * (1 - p1) < p1


def _near_tie_pairs():
    """Seeded (p1, r) within 4 ulps of the critical prior p1 = r^2/(1 + r^2)
    as rounded, p1 in [0, 1/2]: r log-uniform from 1e-165, where r^2
    underflows and the tie reaches the least subnormal 5e-324, to 1, and r =
    0, 1 - 2^-53 and 1."""
    rng = np.random.default_rng(5505)
    rs = np.exp(rng.uniform(math.log(1e-165), 0.0, 300)).tolist() + [0.0, 1.0 - 2.0**-53, 1.0]
    pairs = []
    for r in rs:
        below = above = r * r / (1.0 + r * r)
        around = [below]
        for _ in range(4):
            below, above = math.nextafter(below, -1.0), math.nextafter(above, 1.0)
            around += [below, above]
        pairs += [(p1, r) for p1 in around if 0.0 <= p1 <= 0.5]
    return pairs


_NEAR_TIE = _near_tie_pairs()


class TestExactSide:
    """``ssd._interior``, the side of a stage's critical prior, equals its
    ``Fraction`` reference next to the tie, where its rounded comparison
    defers to the integer one (``_exactly_interior``)."""

    def test_reference_set_reaches_the_edges(self):
        assert {0.0, 1.0 - 2.0**-53, 1.0} <= {r for _, r in _NEAR_TIE}
        assert 5e-324 in {p1 for p1, _ in _NEAR_TIE}
        # the set is sharp: the rounded comparison alone takes the wrong side
        # on 161 of its 2681 pairs
        wrong = sum((r * r < p1 * (1.0 + r * r)) != _fraction_interior(p1, r) for p1, r in _NEAR_TIE)
        assert wrong > 100

    def test_integer_side_test_is_the_fraction_reference(self):
        for p1, r in _NEAR_TIE:
            want = _fraction_interior(p1, r)
            assert ssd._exactly_interior(p1, r) is want, (p1, r)
            assert ssd._exactly_interior(np.float64(p1), np.float64(r)) is want, (p1, r)

    def test_side_on_floats_and_lanes(self):
        want = [_fraction_interior(p1, r) for p1, r in _NEAR_TIE]
        assert [bool(ssd._interior(p1, r)) for p1, r in _NEAR_TIE] == want
        p1, r = (np.array(x) for x in zip(*_NEAR_TIE))
        assert ssd._interior(p1, r).tolist() == want

    @settings(max_examples=300, deadline=None)
    @given(p1=st.floats(min_value=0.0, max_value=0.5), r=st.floats(min_value=0.0, max_value=1.0))
    def test_side_anywhere(self, p1, r):
        assert ssd._exactly_interior(p1, r) is _fraction_interior(p1, r)
        assert bool(ssd._interior(p1, r)) is _fraction_interior(p1, r)


class TestJointSuccess:
    def test_zero_at_t_one(self):
        # q1c q2c = 1 forces q1c = q2c = 1
        assert joint_success(Scenario(0.04, 0.5), 1.0, 0.5, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_point(self):
        assert joint_success(Scenario(0.04, 0.5), 0.2, 0.2, 0.2) == pytest.approx(0.64, abs=1e-12)

    def test_boundary_strategies(self):
        assert joint_success(Scenario(0.04, 0.5), 0.2, 1.0, 1.0) == pytest.approx(
            0.4608, abs=1e-12
        )

    def test_rejects_infeasible(self):
        with pytest.raises(ConstraintError):
            joint_success(Scenario(0.04, 0.5), 0.2, 0.01, 0.2)

    def test_nonnegative_with_q1_at_rounded_r_squared(self):
        # q1 = 0.04 lies a rounding error below (0.2)^2, where q2 = r^2/q1 exceeded 1
        assert joint_success(Scenario(0.04, 1e-40), 0.2, 0.04, 0.04) >= 0.0


class TestSolveQStar:
    @pytest.mark.parametrize("s", [0.04, 0.09])
    def test_equal_priors_root_is_sqrt_s(self, s):
        assert solve_q_star(Scenario(s, 0.5)) == pytest.approx(math.sqrt(s), abs=1e-12)

    def test_against_numpy_roots(self):
        s, p1, p2 = 0.04, 0.4, 0.6
        q = solve_q_star(Scenario(s, p1))
        roots = np.roots([p1, -p1, 0.0, p2 * s, -p2 * s * s])
        real = [float(r.real) for r in roots if abs(r.imag) < 1e-12 and s <= r.real <= 1.0]
        obj = lambda q: p1 * (1 - q) ** 2 + p2 * (1 - s / q) ** 2
        assert q == pytest.approx(max(real, key=obj), abs=1e-10)

    def test_residual_contract(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            s = float(rng.uniform(1e-3, 0.999))
            p1 = float(rng.uniform(1e-3, 0.5))
            q = solve_q_star(Scenario(s, p1))
            assert s <= q <= 1.0
            residual = p1 * q**4 - p1 * q**3 + (1 - p1) * s * q - (1 - p1) * s * s
            assert abs(residual) < 1e-12

    def test_rejects_degenerate_overlap(self):
        with pytest.raises(DomainError):
            solve_q_star(Scenario(0.0, 0.5))

    def test_kernel_matches_the_scalar_on_the_whole_domain(self):
        # one kernel call over seeded lanes: s log-uniform down to 1e-300 (so
        # below _TINY_OVERLAP), 1 - s log-uniform down to 1e-16, s within 8
        # ulps of 3 - 2*sqrt(2), and s uniform; p1 log-uniform down to
        # 5e-324 (p2*s/p1 overflows beside ordinary lanes), within 1e-17 to
        # 0.1 below 1/2, and uniform; most lie where case II wins, which the
        # joint kernel never sends to q*
        rng = np.random.default_rng(35)
        n = 500
        s = np.concatenate([
            10.0 ** rng.uniform(-300.0, 0.0, n),
            1.0 - 10.0 ** rng.uniform(-16.0, math.log10(0.5), n),
            SYMMETRY_BREAK_OVERLAP * (1.0 + rng.integers(-8, 9, n) * _EPS),
            rng.uniform(0.0, 1.0, n),
        ])
        p1 = np.concatenate([
            np.maximum(10.0 ** rng.uniform(-323.3, math.log10(0.5), 2 * n), 5e-324),
            0.5 - 10.0 ** rng.uniform(-17.0, -1.0, n),
            rng.uniform(0.0, 0.5, n),
        ])
        p1 = rng.permutation(p1)
        keep = (0.0 < s) & (s < 1.0) & (0.0 < p1)
        s, p1 = s[keep], p1[keep]
        with np.errstate(over="ignore"):
            overflow = np.isinf((1.0 - p1) * s / p1)
        assert overflow.sum() > 20 and (~overflow).sum() > 1500
        assert (s < ssd._TINY_OVERLAP).sum() > 200
        assert (~ssd._case_i_may_win(s, p1)).sum() > 1000
        expected = [solve_q_star(Scenario(*lane)) for lane in zip(s.tolist(), p1.tolist())]
        assert ssd._q_star_values(s, p1, 1.0 - p1).tolist() == expected

    def test_kernel_fails_a_rootless_lane_with_the_scalar_error(self, monkeypatch):
        monkeypatch.setattr(ssd, "_is_root", lambda p1, p2, s, q, pick: q != q)
        message = r"no real root in \[s, 1\] for quartic coefficients \[0.3, -0.3, 0, "
        with pytest.raises(NumericError, match=message):
            solve_q_star(Scenario(0.04, 0.3))
        with pytest.raises(NumericError, match=message):
            ssd._q_star_values(np.array([0.04]), np.array([0.3]), np.array([0.7]))


def _best_numpy_root(s, p1):
    """Best real root of the q* quartic in [s, 1] from np.roots, as a reference."""
    p2 = 1.0 - p1
    roots = np.roots([p1, -p1, 0.0, p2 * s, -p2 * s * s])
    real = [min(1.0, max(s, float(r.real))) for r in roots
            if abs(r.imag) < 1e-9 and s - 1e-10 <= r.real <= 1.0 + 1e-10]
    return max(real, key=lambda q: p1 * (1 - q) ** 2 + p2 * (1 - s / q) ** 2)


class TestSmallOverlap:
    # s log-spaced down to 1e-10, where roots near s and sqrt(s) crowd together,
    # and on down to 1e-300, where eigvals gives 0 for the three small roots
    S_VALUES = np.logspace(-300, -20, 15).tolist() + np.logspace(-10, -1, 10).tolist()

    @pytest.mark.parametrize("s", S_VALUES)
    @pytest.mark.parametrize("p1", [1e-3, 0.05, 0.3, 0.5])
    def test_joint_beats_symmetric_point(self, s, p1):
        # t = q1b = q1c = sqrt(s) is feasible and gives (1 - sqrt(s))^2
        assert joint_optimal(Scenario(s, p1)).value >= (1 - math.sqrt(s)) ** 2 - 1e-12

    @pytest.mark.parametrize(
        "s, p1, case, q_star",
        [
            # p2*s*s underflows, so Newton from the eigenvalue 0 stays at 0; the
            # only root in [s, 1] lies within an ulp of s (about p1*s relative),
            # a minimum of case I's objective, and case II's q1 = 1 wins
            (1e-310, 1e-310, CaseLabel.CASE_II, 1e-310),
            (2.2e-309, 2.2e-309, CaseLabel.CASE_II, 2.2e-309),
            (5e-324, 5e-324, CaseLabel.CASE_II, 5e-324),
            # the root near sqrt(p2*s/p1), where the quartic's terms are
            # subnormal or underflow unless p1 and p2 are scaled up
            (3.999541e-317, 2.48432500406135e-310, CaseLabel.CASE_I, 4.0131743793787996e-4),
            (5e-324, 0.5, CaseLabel.CASE_I, 2.2227587494850775e-162),
        ],
    )
    def test_subnormal_overlap(self, s, p1, case, q_star):
        res = joint_optimal(Scenario(s, p1))
        assert (res.value, res.case_label) == (1.0, case)
        assert res.argmax["q_star"] == pytest.approx(q_star, rel=1e-12)

    def test_q_star_is_a_root_down_to_the_smallest_floats(self):
        # s and p1 log-uniform down to 5e-324: the quartic over q^2,
        # p2*r*(1-r) - p1*q*(1-q) with r = s/q, vanishes at q* against its
        # terms in 60-digit arithmetic, so no q* passes on underflowed terms
        rng = np.random.default_rng(5)
        with mpmath.workdps(60):
            for ls, lp in rng.uniform([-323.3, -323.3], [0.0, math.log10(0.5)], (300, 2)).tolist():
                s, p1 = min(10.0**ls, 0.999), 10.0**lp
                q = solve_q_star(Scenario(s, p1))
                mq, r, p2 = mpmath.mpf(q), mpmath.mpf(s) / q, 1 - mpmath.mpf(p1)
                terms = p1 * mq * (1 + mq) + p2 * r * (1 + r)
                assert abs(p2 * r * (1 - r) - p1 * mq * (1 - mq)) <= 1e-14 * terms, (s, p1, q)

    def test_equal_priors_tiny_overlap(self):
        res = joint_optimal(Scenario(1e-6, 0.5))
        assert res.value == pytest.approx(0.998001, abs=1e-12)
        assert res.case_label is CaseLabel.CASE_I
        assert res.argmax["q_star"] == pytest.approx(1e-3, abs=1e-12)

    @pytest.mark.parametrize("s", np.logspace(-10, math.log10(0.17), 12).tolist())
    def test_critical_prior_found(self, s):
        res = critical_prior_PC(s)
        assert res.case_i_applies and 0.0 < res.value < 0.5
        assert joint_optimal(Scenario(s, min(0.5, res.value * (1 + 1e-6)))).case_label is CaseLabel.CASE_I

    @pytest.mark.parametrize("s", [1e-10, 4e-10, 1e-8, 1e-6, 1e-4, 0.01, 0.1, 0.5, 0.9, 1 - 1e-9])
    def test_matches_numpy_roots_down_to_tiny_priors(self, s):
        for p1 in np.logspace(-12, math.log10(0.5), 40).tolist():
            q = solve_q_star(Scenario(s, p1))
            assert q == pytest.approx(_best_numpy_root(s, p1), abs=1e-10), p1


class TestJointOptimal:
    def test_equal_priors_small_s(self):
        res = joint_optimal(Scenario(0.04, 0.5))
        assert res.value == pytest.approx(0.64, abs=1e-12)
        assert res.case_label is CaseLabel.CASE_I
        assert res.argmax["t"] == pytest.approx(0.2, abs=1e-12)

    def test_symmetry_broken_large_s(self):
        res = joint_optimal(Scenario(0.36, 0.5))
        assert res.value == pytest.approx(0.2048, abs=1e-12)
        assert res.case_label is CaseLabel.CASE_II

    def test_small_prior_limit(self):
        res = joint_optimal(Scenario(0.04, 1e-9))
        assert res.value == pytest.approx((1 - 0.04) ** 2, rel=1e-6)
        assert res.case_label is CaseLabel.CASE_II

    def test_dominates_feasible_grid(self):
        sc = Scenario(0.04, 0.3)
        best = joint_optimal(sc).value
        count = 0
        for t in np.linspace(sc.s, 1.0, 22):
            for q1b in np.linspace((sc.s / t) ** 2, 1.0, 22):
                for q1c in np.linspace(t * t, 1.0, 22):
                    count += 1
                    assert joint_success(sc, t, q1b, q1c) <= best + 1e-9
        assert count >= 10_000

    @pytest.mark.parametrize("k", range(6, 16))
    @pytest.mark.parametrize("p1", [1e-6, 0.05, 0.3, 0.5])
    def test_no_worse_than_case_ii_near_s_one(self, k, p1):
        # case II's strategy is feasible everywhere, so the optimum is at
        # least its value p2*(1-s)^2, up to the relative tie rule, even
        # where that value is far below 1e-12
        s = 1.0 - 10.0**-k
        v2 = (1.0 - p1) * (1.0 - s) ** 2
        assert joint_optimal(Scenario(s, p1)).value >= v2 * (1.0 - 1e-12)


class TestCriticalPrior:
    def test_half_at_symmetry_breaking_overlap(self):
        res = critical_prior_PC(SYMMETRY_BREAK_OVERLAP)
        assert res.value == pytest.approx(0.5, abs=1e-6)

    def test_branch_agreement_at_crossing(self):
        pc = critical_prior_PC(0.04)
        assert pc.case_i_applies and 0.0 < pc.value < 0.5
        sc = Scenario(0.04, pc.value)
        q = solve_q_star(sc)
        v1 = sc.p1 * (1 - q) ** 2 + sc.p2 * (1 - sc.s / q) ** 2
        v2 = sc.p2 * (1 - sc.s) ** 2
        assert v1 == pytest.approx(v2, abs=1e-9)

    def test_joint_optimal_switches_case_at_pc(self):
        pc = critical_prior_PC(0.04).value
        assert joint_optimal(Scenario(0.04, pc * (1 - 1e-6))).case_label is CaseLabel.CASE_II
        assert joint_optimal(Scenario(0.04, pc * (1 + 1e-6))).case_label is CaseLabel.CASE_I

    @pytest.mark.parametrize("s", [1e-10, 1e-6, 1e-3, 0.04, 0.17])
    def test_matches_the_50_digit_crossing(self, s):
        # the Brent search this formula replaced was 3.2e-7 off at s = 1e-10,
        # where the gap between the branches is flat to rounding
        import mpmath

        with mpmath.workdps(50):
            x = mpmath.mpf(s)
            q = ((1 + x) + mpmath.sqrt((1 - x) * (1 - 5 * x))) / (2 * (2 - x))
            k = x * (q - x) / (q**3 * (1 - q))
            p = k / (1 + k)
            # p makes q a root of the quartic; at p both branches are equal
            case1 = p * (1 - q) ** 2 + (1 - p) * (1 - x / q) ** 2
            assert abs(case1 - (1 - p) * (1 - x) ** 2) < mpmath.mpf(10) ** -45
            pc = critical_prior_PC(s)
            assert pc.case_i_applies
            assert abs(pc.value - p) <= 4 * _EPS * p
            # q is the root solve_q_star picks there
            assert abs(solve_q_star(Scenario(s, pc.value)) - q) <= 1e-12 * q

    def test_sentinel_when_case_i_vanishes(self):
        res = critical_prior_PC(0.36)
        assert not res.case_i_applies
        assert res.value >= 0.5

    def test_rejects_degenerate_overlap(self):
        with pytest.raises(DomainError):
            critical_prior_PC(1.0)


@settings(max_examples=60, deadline=None)
@given(scenarios)
def test_joint_optimum_matches_symmetric_slice(sc):
    # the optimum never falls below the best symmetric strategy at t = sqrt(s)
    t = math.sqrt(sc.s)
    best = joint_optimal(sc, compute_boundary=False).value
    for q in np.linspace(max(sc.s, 1e-6), 1.0, 50):
        assert joint_success(sc, t, q, q) <= best + 1e-9
