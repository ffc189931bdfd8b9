import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from seqdisc import (
    ConstraintError,
    CorrelationInput,
    DomainError,
    NumericError,
    Scenario,
    StrategyParams,
    at_least_one_protocol3,
    at_least_one_ssd,
    bob_optimal,
    charlie_optimal,
    correlation_report,
    entropy_H,
    joint_optimal,
    make_state_pair,
    protocol1_optimal,
    protocol2_critical_priors,
    protocol2_optimal,
    protocol3_optimal,
)
from seqdisc import correlations, oracle, ssd
from seqdisc.core import (
    _check_scenario,
    _is_overlap,
    _is_prior,
    _overlap_error,
    _pick,
    _prior_error,
    _require,
    _scan_indices,
    _scan_points,
    _unit_points,
    check_overlap_t,
    entropy_H_values,
    window_scan_max,
)
from seqdisc.protocols import _check_converged, _check_prior
from seqdisc.ssd import CaseLabel, PiecewiseResult, _probabilities, bob_optimal_values
from seqdisc.sweeps import _column


def binary_entropy(p: float) -> float:
    """Shannon entropy of a bit, -p*log2(p) - (1-p)*log2(1-p): a cross-check
    of ``entropy_H`` written independently of its body."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


class TestEntropy:
    def test_endpoints(self):
        assert entropy_H(0.0) == 0.0
        assert entropy_H(1.0) == 1.0

    def test_value_at_three_quarters(self):
        # h((1 + sqrt(0.25))/2) = h(0.75)
        assert entropy_H(0.75) == pytest.approx(0.8112781244591328, abs=1e-12)

    def test_boundary_clamp(self):
        assert entropy_H(-5e-13) == 0.0
        assert entropy_H(1.0 + 5e-13) == 1.0

    @pytest.mark.parametrize("x", [-1e-6, 1.0 + 1e-6, 2.0, -1.0])
    def test_rejects_out_of_domain(self, x):
        with pytest.raises(DomainError):
            entropy_H(x)

    def test_rejects_nan(self):
        with pytest.raises(DomainError, match="outside"):
            entropy_H(math.nan)

    def test_values_reject_a_nan_lane(self):
        with pytest.raises(DomainError, match="outside"):
            entropy_H_values(np.array([0.3, math.nan]))

    def test_bounded_and_strictly_increasing(self):
        xs = np.linspace(0.0, 1.0, 1000)
        vals = np.array([entropy_H(x) for x in xs])
        assert np.all((0.0 <= vals) & (vals <= 1.0))
        assert np.all(np.diff(vals) > 0.0)

    def test_internal_sign_flip_symmetry(self):
        # replacing sqrt(1-x) -> -sqrt(1-x) gives the same value (h(p) = h(1-p))
        for x in np.linspace(0.0, 1.0, 101):
            p_minus = 0.5 * (1.0 - math.sqrt(1.0 - x))
            assert binary_entropy(p_minus) == pytest.approx(entropy_H(x), abs=1e-12)


def _entropy_draws() -> np.ndarray:
    """1,507 seeded tangles: uniform in [0, 1], log-uniform from 5e-324 to 1,
    and 1 - x log-uniform from 1e-16 to 1; then 0 (the lane that takes
    log2(1)), the smallest subnormal and the ends."""
    rng = np.random.default_rng(43)
    return np.concatenate([
        rng.uniform(0.0, 1.0, 500),
        np.maximum(10.0 ** rng.uniform(math.log10(5e-324), 0.0, 500), 5e-324),
        1.0 - 10.0 ** rng.uniform(-16.0, 0.0, 500),
        [0.0, 5e-324, 1e-310, 1e-16, 0.5, 1.0 - 1e-16, 1.0],
    ])


def _entropy_50(x: float):
    """H(x) at 50 digits, from the smaller eigenvalue and log1p(-lam), as
    log(1 - lam) would round 1 - lam to 1 for lam below about 1e-50."""
    with mpmath.workdps(50):
        x = mpmath.mpf(x)
        lam = x / (2 * (1 + mpmath.sqrt(1 - x)))
        return (-lam * mpmath.log(lam) - (1 - lam) * mpmath.log1p(-lam)) / mpmath.log(2)


class TestEntropyFloatsAndLanes:
    """``entropy_H`` and ``entropy_H_values`` share one body with numpy's
    logarithms, so a float and the lane that holds it agree bit for bit,
    whichever way numpy's log2 and log1p round."""

    def test_agree_bit_for_bit(self):
        xs = _entropy_draws()
        lanes = entropy_H_values(xs).tolist()
        for x, lane in zip(xs.tolist(), lanes):
            value = entropy_H(x)
            assert type(value) is float
            alone = entropy_H_values(np.array([x]))[0]
            assert value.hex() == lane.hex() == float(alone).hex(), x

    def test_relative_error_against_50_digits(self):
        # where lam = x/4 or so is subnormal it keeps fewer bits than a
        # double, so those draws are left out; the bound is the worst
        # measured on these draws, with numpy's logarithms and with math's
        worst = 0.0
        for x in _entropy_draws().tolist():
            if x >= 4.0 * sys.float_info.min:
                ref = _entropy_50(x)
                worst = max(worst, float(abs((entropy_H(x) - ref) / ref)))
        assert worst <= 2.7 * 2.0**-53, worst / 2.0**-53

    def test_subnormal_tangles(self):
        # below x = 4 * 2^-1022, about 9e-308, the smaller eigenvalue is
        # subnormal and relative accuracy is lost (H(5e-324) = 1.33e-321
        # reads 0.0); floats and lanes still agree, and H stays tiny
        xs = np.array([5e-324, 1e-320, 1e-310, math.nextafter(4.0 * sys.float_info.min, 0.0)])
        for x, lane in zip(xs.tolist(), entropy_H_values(xs).tolist()):
            value = entropy_H(x)
            assert value.hex() == lane.hex(), x
            assert math.isfinite(value) and 0.0 <= value < 1e-300, x


class TestMakeStatePair:
    def test_identical_at_s_one(self):
        a, b = make_state_pair(1.0, 2)
        assert np.dot(a, b) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_orthogonal_at_s_zero(self):
        a, b = make_state_pair(0.0, 2)
        assert np.dot(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_overlap_direct_dot_product(self):
        a, b = make_state_pair(0.36, 2)
        assert float(np.dot(a, b)) == pytest.approx(0.36, abs=1e-12)

    def test_embedding_dimension(self):
        pair = make_state_pair(0.5, 3)
        assert pair.shape == (2, 3)
        a, b = pair
        assert np.dot(a, b) == pytest.approx(0.5, abs=1e-12)
        assert a[2] == b[2] == 0.0

    def test_thousand_random_overlaps(self):
        rng = np.random.default_rng(0)
        for s in rng.random(1000):
            a, b = make_state_pair(float(s), 2)
            assert abs(np.dot(a, b) - s) <= 1e-12

    @pytest.mark.parametrize("s,dim", [(-0.1, 2), (1.1, 2), (math.nan, 2), (0.5, 1), (0.5, 0)])
    def test_rejects_bad_arguments(self, s, dim):
        with pytest.raises(DomainError):
            make_state_pair(s, dim)

    @pytest.mark.parametrize("dim", [2.5, True, 3.0, "3"], ids=["fraction", "bool", "float", "str"])
    def test_rejects_a_dim_that_is_not_an_integer(self, dim):
        # 2.5 raised numpy's bare TypeError, and True was refused as "below 2"
        with pytest.raises(DomainError, match="dim=.* must be an integer of at least 2"):
            make_state_pair(0.5, dim)

    def test_numpy_integer_dim(self):
        assert np.array_equal(make_state_pair(0.5, np.int64(3)), make_state_pair(0.5, 3))

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_overlap_property(self, s):
        a, b = make_state_pair(s, 2)
        assert abs(np.dot(a, b) - s) <= 1e-12
        assert abs(np.linalg.norm(a) - 1.0) <= 1e-12


class TestScenario:
    def test_p2_is_derived(self):
        sc = Scenario(0.3, 0.2)
        assert sc.p2 == pytest.approx(0.8)

    @pytest.mark.parametrize("s,p1", [(-0.1, 0.5), (1.1, 0.5), (0.5, 0.0), (0.5, 0.6), (0.5, -0.2)])
    def test_rejects_invalid(self, s, p1):
        with pytest.raises(DomainError):
            Scenario(s, p1)

    # a tiny prior, where p2/p1 overflows; generic points; small and near-one
    # overlaps; both ends of the overlap's range
    @pytest.mark.parametrize(
        "s,p1",
        [
            (0.5, 1e-320),
            (0.36, 0.2),
            (0.04, 0.5),
            (1e-10, 0.1),
            (0.999999287032437, 0.4999999999998079),
            (0.0, 0.3),
            (1.0, 0.5),
        ],
    )
    def test_numpy_scalars_give_the_floats_results(self, s, p1):
        # the same steps as on floats: no warning (an error in this suite)
        # and the same repr, down to the type of every number
        forms = (
            joint_optimal,
            protocol1_optimal,
            protocol2_optimal,
            protocol3_optimal,
            at_least_one_ssd,
            at_least_one_protocol3,
            lambda sc: bob_optimal(sc, max(sc.s, 0.6)),
            lambda sc: charlie_optimal(sc, max(sc.s, 0.6)),
        )
        for form in forms:
            assert repr(form(Scenario(np.float64(s), np.float64(p1)))) == repr(form(Scenario(s, p1)))
        t = max(s, 0.6)
        scalars = correlation_report(CorrelationInput(np.float64(p1), np.float64(t), np.float64(s / t)))
        assert repr(scalars) == repr(correlation_report(CorrelationInput(p1, t, s / t)))

    def test_non_numbers_keep_their_type_error(self):
        with pytest.raises(TypeError):
            Scenario("0.5", 0.2)
        with pytest.raises(TypeError):
            CorrelationInput(0.2, "0.5", 0.5)


class TestStrategyParams:
    def test_product_constraint_enforced(self):
        with pytest.raises(ConstraintError):
            StrategyParams(0.5, 0.5, 0.3)  # 0.25 != 0.09

    def test_bounds_named_in_error(self):
        with pytest.raises(ConstraintError, match="lower bound"):
            StrategyParams.from_q1(0.1, 0.5)  # q1 below r^2 = 0.25
        with pytest.raises(ConstraintError, match="upper bound"):
            StrategyParams.from_q1(1.2, 0.5)  # q1 above 1

    @pytest.mark.parametrize("q1,q2", [(math.nan, 0.5), (0.5, math.nan)])
    def test_rejects_nan(self, q1, q2):
        with pytest.raises(ConstraintError, match="lower bound"):
            StrategyParams(q1, q2, 0.5)

    def test_from_q1_derives_q2(self):
        p = StrategyParams.from_q1(0.5, 0.5)
        assert p.q2 == pytest.approx(0.5)

    def test_q1_a_rounding_error_below_r_squared_is_lifted(self):
        p = StrategyParams.from_q1(0.04, 0.2)  # 0.2 * 0.2 rounds to 0.04000000000000001
        assert p.q1 == 0.2 * 0.2 and p.q2 == 1.0

    def test_zero_overlap_allows_zero_failure(self):
        p = StrategyParams.from_q1(0.0, 0.0)
        assert p.q1 == 0.0 and p.q2 == 0.0

    def test_underflowing_overlap_squared_is_orthogonal(self):
        p = StrategyParams.from_q1(0.0, 1e-170)  # r^2 rounds to 0.0
        assert p.q1 == 0.0 and p.q2 == 0.0


class TestWindowScanMax:
    def test_interior_maximum(self):
        x, fx = window_scan_max(lambda x: -(x - 0.3) ** 2, 0.0, 1.0, 101, 3)
        assert x == pytest.approx(0.3, abs=1e-9)
        assert fx == pytest.approx(0.0, abs=1e-15)

    def test_minimizes_by_negation(self):
        x, fx = window_scan_max(lambda x: -np.cosh(x - 0.6), 0.0, 2.0, 101, 3)
        assert x == pytest.approx(0.6, abs=1e-7)
        assert -fx == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("passes", [0, 1, 3])
    def test_maximum_at_lo(self, passes):
        assert window_scan_max(lambda x: -x, 0.25, 1.0, 11, passes) == (0.25, -0.25)

    @pytest.mark.parametrize("passes", [0, 1, 3])
    def test_maximum_at_hi(self, passes):
        assert window_scan_max(lambda x: x * x, -0.5, 0.75, 11, passes) == (0.75, 0.5625)

    def test_plateau_keeps_its_first_point(self):
        # the first scan meets the plateau first at 0.4; each window's first
        # plateau point only ties it, so the best point stays
        f = lambda x: np.where((x >= 0.35) & (x <= 0.65), 1.0, 0.0)
        for passes in (0, 1, 2):
            assert window_scan_max(f, 0.0, 1.0, 11, passes) == (0.4, 1.0)

    def test_later_pass_replaces_only_when_strictly_higher(self):
        plateau = lambda x: np.where((x >= 0.45) & (x <= 0.55), 1.0, 0.0)
        assert window_scan_max(plateau, 0.0, 1.0, 11, 1) == (0.5, 1.0)
        peaked = lambda x: plateau(x) + (np.abs(x - 0.52) < 1e-9)
        x, fx = window_scan_max(peaked, 0.0, 1.0, 11, 1)
        assert x == pytest.approx(0.52) and fx == 2.0

    @pytest.mark.parametrize("lo,hi", [(0.0, 1.0), (0, 1), (-0.0, 1.0), (0.0, 0.5), (1e-300, 1.0), (-1.0, 1.0)])
    def test_only_a_unit_scan_starts_on_the_shared_grid(self, lo, hi):
        # the first scan of [0, 1], by value, is the shared read-only grid
        # itself; every other scan, and every refinement, is a writable
        # array of the call's own
        grids = []
        window_scan_max(lambda xs: grids.append(xs) or -np.abs(xs - 0.3), lo, hi, 11, 2)
        unit = (lo, hi) == (0.0, 1.0)
        assert (grids[0] is _unit_points(11)) == unit
        assert [xs.flags.writeable for xs in grids] == [not unit, True, True]
        assert all(xs is not _unit_points(11) for xs in grids[1:])

    def test_empty_interval_returns_its_end(self):
        calls = []

        def f(x):
            calls.append(len(x))
            return 2.0 * x

        assert window_scan_max(f, 0.4, 0.4, 5, 2) == (0.4, 0.8)
        assert calls == [5, 5, 5]  # one array call per scan

    @pytest.mark.parametrize(
        "peak,windows,argmax",
        [
            (0.913, [(0.0, 1.0), (0.8, 1.0), (0.9, 0.94)], 0.912),
            (0.99, [(0.0, 1.0), (0.9, 1.0), (0.98, 1.0)], 0.99),  # cut at hi
        ],
    )
    def test_windows_are_one_step_either_side(self, peak, windows, argmax):
        scanned = []

        def f(x):
            scanned.append((float(x[0]), float(x[-1])))
            return -np.abs(x - peak)

        x, _ = window_scan_max(f, 0.0, 1.0, 11, 2)
        assert scanned == [pytest.approx(w) for w in windows]
        assert x == pytest.approx(argmax)


def _seeded_intervals():
    # peaks inside, at and outside the interval, on widths from 1 down to a
    # few ulps, where the grid points collide
    rng = np.random.default_rng(70)
    cases = []
    for width in np.geomspace(1.0, 1e-15, 16).tolist():
        for _ in range(6):
            lo = float(rng.uniform(-2.0, 2.0))
            peak = lo + width * float(rng.uniform(-0.5, 1.5))
            cases.append((lo, lo + width, peak))
    return cases


def _check_window_scan(f, lo, hi, points, passes):
    """``window_scan_max``'s result is a point of [lo, hi] with f's value
    there, no lower than the first scan's maximum or either end, from one
    array call per scan; returns (x, f(x), final grid step)."""
    calls = []

    def counted(xs):
        calls.append(len(xs))
        return f(xs)

    x, fx = window_scan_max(counted, lo, hi, points, passes)
    assert calls == [points] * (passes + 1)
    assert lo <= x <= hi
    assert fx == float(f(np.array([x]))[0])
    first = f(np.linspace(lo, hi, points))
    assert fx >= float(np.max(first))
    assert fx >= float(f(np.array([lo]))[0]) and fx >= float(f(np.array([hi]))[0])
    step = (hi - lo) / (points - 1)
    for _ in range(passes):
        step = 2.0 * step / (points - 1)
    return x, fx, step


class TestWindowScanMaxIntervals:
    @pytest.mark.parametrize("lo,hi,peak", _seeded_intervals())
    def test_seeded_intervals(self, lo, hi, peak):
        ulps = 4.0 * math.ulp(max(abs(lo), abs(hi)))
        for f in (lambda x: -(x - peak) * (x - peak), lambda x: -np.abs(x - peak)):
            x, _, step = _check_window_scan(f, lo, hi, 11, 3)
            # a unimodal maximum lies within one final grid step of the argmax
            assert abs(x - min(max(peak, lo), hi)) <= step + ulps
        x, fx, _ = _check_window_scan(lambda x: 1.0 * x, lo, hi, 11, 3)
        assert (x, fx) == (hi, hi)

    @pytest.mark.parametrize("lo", [0.0, 1e-300, 0.3, 1.0, -2.5])
    def test_collapsed_intervals(self, lo):
        # empty, and one to four ulps wide
        f = lambda x: -(x - 0.3) * (x - 0.3)
        hi = lo
        for _ in range(5):
            _check_window_scan(f, lo, hi, 11, 3)
            _check_window_scan(f, lo, hi, 2001, 2)
            hi = math.nextafter(hi, math.inf)

    @pytest.mark.parametrize("s,p1", [(1e-6, 0.4), (0.04, 0.5), (0.2, 0.3), (0.36, 0.2), (0.9, 0.05)])
    def test_oracle_objectives_on_their_windows(self, monkeypatch, s, p1):
        # every interval the cloning, stage and left-discord oracles refine
        # on, with the objective, grid and passes they pass
        scans = []

        def recording(f, lo, hi, points, passes):
            result = window_scan_max(f, lo, hi, points, passes)
            scans.append((f, lo, hi, points, passes, result))
            return result

        monkeypatch.setattr(oracle, "window_scan_max", recording)
        monkeypatch.setattr(correlations, "window_scan_max", recording)
        sc = Scenario(s, p1)
        oracle.grid_maximize_cloning(sc)
        for t in (math.sqrt(s), 0.5 * (1.0 + s), 1.0):
            oracle.grid_maximize_bob(sc, t)
            oracle.grid_maximize_charlie(sc, t)
        correlations.left_discord_measurement_oracle(
            correlations.CorrelationInput(p1, 0.5 * (1.0 + s), s / (0.5 * (1.0 + s)))
        )
        grids = [(points, passes) for _, _, _, points, passes, _ in scans]
        assert grids == [(2001, 2)] * 7 + [(181, 3)]
        for f, lo, hi, points, passes, result in scans:
            x, fx, _ = _check_window_scan(f, lo, hi, points, passes)
            assert (x, fx) == result


def _linspace_windows():
    """[lo, hi] windows on which a scan's points must be np.linspace's:
    collapsed (lo == hi), 1e-12 wide, [r^2, 1] as r nears 0 and 1, and
    windows a few subnormals wide, where linspace's step rounds to 0."""
    rng = np.random.default_rng(26)
    windows = [(lo, lo) for lo in (0.0, 5e-324, 1e-300, 0.3, 1.0, -2.5)]
    windows += [(lo, lo + 1e-12) for lo in [0.0, 1.0 - 1e-12] + rng.uniform(-2.0, 2.0, 20).tolist()]
    r = [10.0**-k for k in (1, 4, 8, 12, 100, 160, 162, 170)]
    r += [1.0 - 10.0**-k for k in range(1, 17)] + [math.nextafter(1.0, 0.0)]
    windows += [(x * x, 1.0) for x in r]
    windows += [(0.0, 5e-324 * k) for k in (1, 7, 2000, 4001)] + [(1e-310, 1e-310 + 1e-320)]
    return windows


def _assert_linspace_points(xs):
    """xs are np.linspace's points between their ends, bit for bit."""
    want = np.linspace(xs[0], xs[-1], len(xs))
    assert xs.dtype == want.dtype and xs.tobytes() == want.tobytes(), (xs[0], xs[-1], len(xs))


#: The scenarios on whose oracle scans every point must be np.linspace's.
_ORACLE_SCENARIOS = [
    (s, p1) for s in (1e-10, 2.54e-10, 1e-6, 0.04, 0.5, 1.0 - 1e-9) for p1 in (1e-12, 0.3, 0.5)
] + [tuple(x) for x in np.random.default_rng(27).uniform([0.002, 0.01], [0.98, 0.5], (12, 2)).tolist()]


class TestScanPoints:
    @pytest.mark.parametrize("lo,hi", _linspace_windows())
    @pytest.mark.parametrize("points", [2, 3, 11, 33, 181, 2001])
    def test_linspace_points_on_edge_windows(self, lo, hi, points):
        # written into the array given, every lane of it: none keeps the NaN
        # it held before
        out = np.full(points, np.nan)
        xs = _scan_points(lo, hi, points, out)
        assert xs is out and (xs[0], xs[-1]) == (lo, hi)
        _assert_linspace_points(xs)

    def test_cached_indices_are_read_only(self):
        assert _scan_indices(2001) is _scan_indices(2001)
        with pytest.raises(ValueError):
            _scan_indices(2001)[0] = 1.0

    @pytest.mark.parametrize("points", [2, 11, 2001])
    def test_unit_points_are_linspace_and_read_only(self, points):
        # made once per size, linspace's points bit for bit
        xs = _unit_points(points)
        assert xs is _unit_points(points) and not xs.flags.writeable
        with pytest.raises(ValueError):
            xs[0] = 1.0
        assert xs.tobytes() == np.linspace(0.0, 1.0, points).tobytes()

    @pytest.mark.parametrize("s,p1", _ORACLE_SCENARIOS)
    def test_linspace_points_on_every_oracle_window(self, monkeypatch, s, p1):
        # every scan, first and refinement, of the cloning, stage and
        # left-discord oracles; each scan's points are copied, as the scan
        # refills one array in place
        scans = []

        def recording(f, lo, hi, points, passes):
            return window_scan_max(lambda xs: scans.append(xs.copy()) or f(xs), lo, hi, points, passes)

        monkeypatch.setattr(oracle, "window_scan_max", recording)
        monkeypatch.setattr(correlations, "window_scan_max", recording)
        sc = Scenario(s, p1)
        oracle.grid_maximize_cloning(sc)
        oracle.grid_maximize_protocol2(sc)
        for t in (math.sqrt(s), 0.5 * (1.0 + s), 1.0):
            oracle.grid_maximize_bob(sc, t)
            oracle.grid_maximize_charlie(sc, t)
        correlations.left_discord_measurement_oracle(
            correlations.CorrelationInput(p1, 0.5 * (1.0 + s), s / (0.5 * (1.0 + s)))
        )
        assert len(scans) >= 3 * 7 + 4
        for xs in scans:
            _assert_linspace_points(xs)

    @pytest.mark.parametrize("s,p1", _ORACLE_SCENARIOS)
    def test_linspace_points_on_every_joint_and_union_axis(self, monkeypatch, s, p1):
        # the diagonal oracles' u axes: the first scan of [s, 1], then each
        # refinement's window
        axes = []

        def recording(f, lo, hi, points, passes):
            return window_scan_max(lambda xs: axes.append(xs.copy()) or f(xs), lo, hi, points, passes)

        monkeypatch.setattr(oracle, "window_scan_max", recording)
        sc = Scenario(s, p1)
        for grid_maximize in (oracle.grid_maximize_joint, oracle.grid_maximize_union_ssd):
            axes.clear()
            grid_maximize(sc)
            assert [len(xs) for xs in axes] == [oracle._SCAN_POINTS] * (1 + oracle._REFINEMENT_PASSES)
            assert (axes[0][0], axes[0][-1]) == (s, 1.0)
            for xs in axes:
                _assert_linspace_points(xs)


class TestCheckOverlapT:
    @pytest.mark.parametrize("s,t", [(0.0, 1.0), (0.3, 0.3), (0.3, 0.7), (1.0, 1.0)])
    def test_accepts_feasible(self, s, t):
        check_overlap_t(s, t)

    @pytest.mark.parametrize(
        "s,t", [(0.0, 0.0), (0.3, 0.2), (0.3, 1.0 + 1e-12), (0.1, -0.5), (0.3, math.nan)]
    )
    def test_rejects_infeasible(self, s, t):
        with pytest.raises(DomainError, match="outside"):
            check_overlap_t(s, t)


def _raised(call):
    """(type, message) of the exception that ``call()`` raises."""
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


def _squared_entropy(x):
    """A stand-in H(x) = x^2, under which the Koashi-Winter sum is
    -2*tau_B|AE*tau_AE, far below the discord's -1e-10 floor."""
    return x * x


_A = np.array

#: Each check written once, called on a float and on lanes whose first
#: failing lane holds that float: (the float's call, the lanes' call).
_ONE_CHECK_CASES = {
    "overlap_t": (
        lambda: check_overlap_t(0.3, 0.2),
        lambda: check_overlap_t(_A([0.3, 0.3, 0.3]), _A([0.5, 0.2, 0.1])),
    ),
    "overlap_t_kernel": (
        lambda: bob_optimal(Scenario(0.3, 0.2), 0.2),
        lambda: bob_optimal_values(_A([0.3, 0.3]), _A([0.2, 0.2]), _A([0.5, 0.2])),
    ),
    "overlap_t_nan": (
        lambda: check_overlap_t(0.3, math.nan),
        lambda: check_overlap_t(0.3, _A([0.5, math.nan, 0.1])),
    ),
    "probability": (
        lambda: PiecewiseResult(1.5, CaseLabel.CASE_I, {}),
        lambda: _probabilities(_A([0.5, 1.0 + 1e-13, 1.5, -1.0])),
    ),
    "probability_nan": (
        lambda: PiecewiseResult(math.nan, CaseLabel.CASE_I, {}),
        lambda: _probabilities(_A([0.2, math.nan, 2.0])),
    ),
    "entropy": (
        lambda: entropy_H(-0.1),
        lambda: entropy_H_values(_A([0.5, -1e-13, -0.1, 2.0])),
    ),
    "entropy_nan": (lambda: entropy_H(math.nan), lambda: entropy_H_values(_A([math.nan, -1.0]))),
    # p1 fails at lane 0 and s at lane 3: lane 0's p1 is reported
    "scenario_prior_first": (
        lambda: Scenario(0.5, 0.0),
        lambda: _check_scenario(_A([0.5, 0.2, 0.2, 1.5]), _A([0.0, 0.3, 0.3, 0.3])),
    ),
    "scenario_prior_first_column": (
        lambda: Scenario(0.5, 0.0),
        lambda: _column("ssd", {"s": _A([0.5, 0.2, 0.2, 1.5]), "p1": _A([0.0, 0.3, 0.3, 0.3])}),
    ),
    # both fail in one lane: the overlap is reported, as its check comes first
    "scenario_overlap": (
        lambda: Scenario(1.5, 0.7),
        lambda: _check_scenario(_A([0.2, 1.5, -1.0]), _A([0.3, 0.7, 0.3])),
    ),
    # the overlap and prior checks, each one predicate wherever it guards:
    # the lanes fail first at lane 1
    "overlap": (
        lambda: make_state_pair(1.5, 2),
        lambda: _require(_is_overlap(_A([0.2, 1.5, -1.0])), _overlap_error, "s", _A([0.2, 1.5, -1.0])),
    ),
    "overlap_below": (
        lambda: protocol2_critical_priors(-0.5),
        lambda: _require(_is_overlap(_A([0.0, -0.5, 1.0])), _overlap_error, "s", _A([0.0, -0.5, 1.0])),
    ),
    "overlap_nan": (
        lambda: CorrelationInput(0.3, 0.5, math.nan),
        lambda: _require(_is_overlap(_A([1.0, math.nan, 2.0])), _overlap_error, "r", _A([1.0, math.nan, 2.0])),
    ),
    "prior": (
        lambda: CorrelationInput(0.7, 0.5, 0.5),
        lambda: _require(_is_prior(_A([0.5, 0.7, 0.0])), _prior_error, _A([0.5, 0.7, 0.0])),
    ),
    "prior_zero": (
        lambda: CorrelationInput(0.0, 0.5, 0.5),
        lambda: _require(_is_prior(_A([0.3, 0.0, math.nan])), _prior_error, _A([0.3, 0.0, math.nan])),
    ),
    "prior_nan": (
        lambda: CorrelationInput(math.nan, 0.5, 0.5),
        lambda: _require(_is_prior(_A([1e-300, math.nan, 0.7])), _prior_error, _A([1e-300, math.nan, 0.7])),
    ),
    "correlation_t": (
        lambda: CorrelationInput(0.2, 1.5, 0.3 / 1.5),
        lambda: correlations.d_symm_values(
            _A([0.3, 0.3, 0.3]), _A([0.2, 0.2, 0.2]), _A([0.5, 1.5, 2.0])
        ),
    ),
    "discord_floor": (
        lambda: correlations._discords(0.3, 0.6, 0.6, _squared_entropy, math.sqrt, _pick),
        lambda: correlations._discords(
            _A([0.3, 0.3, 0.2]), _A([1.0, 0.6, 0.6]), _A([0.6, 0.6, 0.6]),
            _squared_entropy, np.sqrt, np.where,
        ),
    ),
    "cloner_prior": (
        lambda: _check_prior(0.25, 0.3),
        lambda: _check_prior(_A([0.2, 0.25, 0.0]), _A([0.2, 0.3, 0.4])),
    ),
    "cloner_converged": (
        lambda: _check_converged(False, 2.47e-229, 1e-300),
        lambda: _check_converged(
            _A([True, False, False]), _A([0.5, 2.47e-229, 0.1]), _A([0.3, 1e-300, 0.2])
        ),
    ),
}


@pytest.mark.parametrize("case", list(_ONE_CHECK_CASES))
def test_a_check_fails_a_float_and_its_first_lane_alike(case):
    # one predicate for floats and lanes: the lanes' error is the float's own,
    # type and message, for the first lane that fails
    on_float, on_lanes = _ONE_CHECK_CASES[case]
    assert _raised(on_lanes) == _raised(on_float)


def test_no_root_fails_a_float_and_its_first_lane_alike(monkeypatch):
    # only s = 0.04 is made rootless, at lane 1 of three
    is_root = ssd._is_root
    monkeypatch.setattr(
        ssd, "_is_root", lambda p1, p2, s, q, pick: is_root(p1, p2, s, q, pick) & (s != 0.04)
    )
    on_float = _raised(lambda: ssd.solve_q_star(Scenario(0.04, 0.3)))
    lanes = _A([0.1, 0.04, 0.04]), _A([0.4, 0.3, 0.2])
    assert _raised(lambda: ssd._q_star_values(*lanes, 1.0 - lanes[1])) == on_float
    assert on_float[0] is NumericError and "no real root" in on_float[1]


def _modules_loaded_with_seqdisc(top):
    """Names of package ``top``'s modules loaded by importing seqdisc and its CLI."""
    src = Path(__import__("seqdisc").__file__).resolve().parents[1]
    code = (
        "import sys, seqdisc, seqdisc.cli; "
        f"print(sorted(m for m in sys.modules if m.split('.')[0] == {top!r}))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return out.stdout.strip()


def test_import_pulls_in_no_scipy():
    # the package depends on numpy only; scipy would also raise peak memory
    assert _modules_loaded_with_seqdisc("scipy") == "[]"


def test_import_pulls_in_no_mpmath():
    # mpmath gives reference values in the tests only
    assert _modules_loaded_with_seqdisc("mpmath") == "[]"


@pytest.mark.parametrize("top", ["fractions", "decimal"])
def test_import_pulls_in_no_fractions_or_decimal(top):
    # the exact bounds and side test work in integer pairs; Fraction gives
    # their references in the tests only, and importing it loads decimal
    assert _modules_loaded_with_seqdisc(top) == "[]"


def _load(relative: str, name: str):
    """The repository's script or module at ``relative``, imported as ``name``."""
    path = Path(__file__).resolve().parents[1] / relative
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_names_resolve():
    # the benchmark relies on these names: perfbench's tracer wraps its
    # functions by module path (a rename would make its traced runs fail),
    # its self-tests read package names and pass joint_optimal's
    # compute_boundary keyword, and scripts/bench.py reads package names
    tracer = _load("perfbench/tracer.py", "perfbench_tracer")
    for qual in tracer.SPANNED + tracer.COUNTED:
        module, name = qual.split(".")
        assert callable(getattr(importlib.import_module(f"seqdisc.{module}"), name, None)), qual
    package = importlib.import_module("seqdisc")
    self_test_names = ("CertificationRow", "NumericError", "Scenario", "joint_optimal", "solve_q_star")
    bench = _load("scripts/bench.py", "seqdisc_bench_names")
    bench_names = (*bench.POINT_CALLS, "CorrelationInput", "Scenario", "correlation_report", "run_ssd_trials")
    for name in self_test_names + bench_names:
        assert hasattr(package, name), name
    sc = Scenario(0.04, 0.3)
    assert package.joint_optimal(sc, compute_boundary=False).value == package.joint_optimal(sc).value


@pytest.mark.parametrize(
    "module,name",
    [
        ("core", "BOUNDARY_TOL"),
        ("protocols", "omega_range"),
        ("protocols", "clone_params_of_omega"),
        ("simulate", "trial_uniforms"),
    ],
)
def test_module_only_names_stay_in_their_modules(module, name):
    # no longer exported from the package; the tracer and the tests reach
    # them through their modules
    assert not hasattr(importlib.import_module("seqdisc"), name)
    assert hasattr(importlib.import_module(f"seqdisc.{module}"), name)


def test_readme_library_example():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("## Library example") :]
    code = section[section.index("```python\n") + len("```python\n") : section.index("\n```\n")]
    namespace = {}
    exec(code, namespace)
    joint, p3 = namespace["joint"], namespace["p3"]
    assert joint.value == pytest.approx(0.64, abs=1e-12)
    assert joint.case_label.value == "CaseI"
    assert joint.argmax["t"] == pytest.approx(0.2) and joint.argmax["q_star"] == pytest.approx(0.2)
    assert p3.value == pytest.approx(0.8862, abs=5e-5)
    assert namespace["mc"].error_count == 0
