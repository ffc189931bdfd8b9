import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from seqdisc import (
    ConstraintError,
    DomainError,
    NumericError,
    PureState,
    Scenario,
    StrategyParams,
    binary_entropy,
    entropy_H,
    make_state_pair,
)
from seqdisc.core import (
    brent_root,
    brent_root_values,
    check_overlap_t,
    entropy_H_values,
    golden_max,
)


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


class TestMakeStatePair:
    def test_identical_at_s_one(self):
        a, b = make_state_pair(1.0, 2)
        assert a.overlap(b) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(a.amplitudes, b.amplitudes, atol=1e-12)

    def test_orthogonal_at_s_zero(self):
        a, b = make_state_pair(0.0, 2)
        assert a.overlap(b) == pytest.approx(0.0, abs=1e-12)

    def test_overlap_direct_dot_product(self):
        a, b = make_state_pair(0.36, 2)
        assert float(np.dot(a.amplitudes, b.amplitudes)) == pytest.approx(0.36, abs=1e-12)

    def test_embedding_dimension(self):
        a, b = make_state_pair(0.5, 3)
        assert a.dim == b.dim == 3
        assert a.overlap(b) == pytest.approx(0.5, abs=1e-12)
        assert a.amplitudes[2] == b.amplitudes[2] == 0.0

    def test_thousand_random_overlaps(self):
        rng = np.random.default_rng(0)
        for s in rng.random(1000):
            a, b = make_state_pair(float(s), 2)
            assert abs(a.overlap(b) - s) <= 1e-12

    @pytest.mark.parametrize("s,dim", [(-0.1, 2), (1.1, 2), (0.5, 1), (0.5, 0)])
    def test_rejects_bad_arguments(self, s, dim):
        with pytest.raises(DomainError):
            make_state_pair(s, dim)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_overlap_property(self, s):
        a, b = make_state_pair(s, 2)
        assert abs(a.overlap(b) - s) <= 1e-12
        assert abs(np.linalg.norm(a.amplitudes) - 1.0) <= 1e-12


class TestScenario:
    def test_p2_is_derived(self):
        sc = Scenario(0.3, 0.2)
        assert sc.p2 == pytest.approx(0.8)

    @pytest.mark.parametrize("s,p1", [(-0.1, 0.5), (1.1, 0.5), (0.5, 0.0), (0.5, 0.6), (0.5, -0.2)])
    def test_rejects_invalid(self, s, p1):
        with pytest.raises(DomainError):
            Scenario(s, p1)


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


class TestPureState:
    def test_rejects_unnormalized(self):
        with pytest.raises(DomainError):
            PureState(np.array([1.0, 1.0]))

    def test_accepts_normalized(self):
        v = np.array([3.0, 4.0]) / 5.0
        assert PureState(v).dim == 2

    def test_rejects_nan(self):
        with pytest.raises(DomainError, match="deviates"):
            PureState(np.array([math.nan, 0.0]))


class TestBrentRoot:
    def test_smooth_root_to_full_precision(self):
        f = lambda x: x * x - 2.0
        x, fx = brent_root(f, 0.0, 2.0, f(0.0), f(2.0))
        assert x == pytest.approx(math.sqrt(2.0), rel=4e-16)
        assert fx == f(x)

    def test_crosses_a_jump_that_keeps_its_sign(self):
        # -1 below 0.3, then a smooth rise through zero at 0.7
        f = lambda x: -1.0 if x < 0.3 else x - 0.7
        x, _ = brent_root(f, 0.0, 1.0, f(0.0), f(1.0))
        assert x == pytest.approx(0.7, rel=1e-15)

    def test_zero_at_an_end(self):
        f = lambda x: x - 1.0
        assert brent_root(f, 1.0, 3.0, f(1.0), f(3.0)) == (1.0, 0.0)

    def test_rejects_unbracketed(self):
        with pytest.raises(NumericError, match="bracket"):
            brent_root(math.exp, 0.0, 1.0, 1.0, math.e)

    def test_lockstep_lanes_end_on_the_scalar_root(self):
        # lanes stop after different numbers of steps; one has a zero at an end
        k = np.array([2.0, 1e-30, 0.125, 7.999, 1.0, 8.0])
        a, b = np.zeros_like(k), np.array([2.0, 2.0, 2.0, 2.0, 1.0, 2.0])
        f = lambda x: x * x * x - k
        x, fx = brent_root_values(f, a, b, f(a), f(b))
        for i, k_i in enumerate(k.tolist()):
            g = lambda x: x * x * x - k_i
            assert (x[i], fx[i]) == brent_root(g, a[i], b[i], g(a[i]), g(b[i]))
        with pytest.raises(NumericError, match="bracket"):
            brent_root_values(np.exp, a, b, np.exp(a), np.exp(b))


class TestGoldenMax:
    def test_interior_maximum(self):
        x, fx = golden_max(lambda x: -(x - 0.3) ** 2, 0.0, 1.0)
        assert x == pytest.approx(0.3, abs=1e-7)
        assert fx == pytest.approx(0.0, abs=1e-14)

    def test_minimizes_by_negation(self):
        x, fx = golden_max(lambda x: -math.cosh(x - 0.6), 0.0, 2.0)
        assert x == pytest.approx(0.6, abs=1e-7)
        assert -fx == pytest.approx(1.0, abs=1e-14)

    def test_empty_interval_returns_its_end(self):
        assert golden_max(lambda x: 2.0 * x, 0.4, 0.4) == (0.4, 0.8)


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


def test_tracer_names_resolve():
    # perfbench's tracer wraps these functions by name; a rename would make
    # its traced runs fail
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for qual in tracer.SPANNED + tracer.COUNTED:
        module, name = qual.split(".")
        assert callable(getattr(importlib.import_module(f"seqdisc.{module}"), name, None)), qual
