import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqdisc import (
    CorrelationInput,
    DomainError,
    Scenario,
    correlation_report,
    discord_left,
    discord_right,
    joint_success,
    left_discord_measurement_oracle,
    tangles,
)
from seqdisc.core import golden_max, make_state_pair
from seqdisc.correlations import _vn_entropy_bits

inputs = st.builds(
    CorrelationInput,
    p1=st.floats(min_value=0.01, max_value=0.5),
    t=st.floats(min_value=0.0, max_value=1.0),
    r=st.floats(min_value=0.0, max_value=1.0),
)


class TestTangles:
    def test_no_system_information_extracted(self):
        taus = tangles(CorrelationInput(0.5, 1.0, 0.5))
        assert taus.tau_abe == 0.0
        assert taus.tau_a_be == 0.0
        assert taus.tau_b_ae == pytest.approx(0.75, abs=1e-12)
        assert taus.tau_e_ab == pytest.approx(0.75, abs=1e-12)

    def test_symmetric_under_overlap_exchange(self):
        a = tangles(CorrelationInput(0.5, 0.3, 0.3))
        assert a.tau_a_be == a.tau_b_ae

    def test_vanishing_prior_kills_all_tangles(self):
        taus = tangles(CorrelationInput(1e-12, 0.5, 0.5))
        assert max(taus) < 1e-11

    @settings(max_examples=100, deadline=None)
    @given(inputs)
    def test_monogamy_bounds(self, inp):
        taus = tangles(inp)
        assert taus.tau_abe <= taus.tau_a_be + 1e-15
        assert taus.tau_abe <= taus.tau_b_ae + 1e-15
        assert all(0.0 <= x <= 1.0 for x in taus)


class TestDiscords:
    @pytest.mark.parametrize("p1", [0.1, 0.3, 0.5])
    def test_zero_at_product_state_t_one(self, p1):
        inp = CorrelationInput(p1, 1.0, 0.4)
        assert discord_right(inp) == 0.0
        assert discord_left(inp) == 0.0

    @pytest.mark.parametrize("p1", [0.1, 0.3, 0.5])
    def test_zero_at_product_state_r_one(self, p1):
        inp = CorrelationInput(p1, 0.4, 1.0)
        assert discord_right(inp) == 0.0
        assert discord_left(inp) == 0.0

    def test_left_right_equal_on_diagonal(self):
        inp = CorrelationInput(0.5, 0.6, 0.6)
        assert discord_left(inp) == discord_right(inp)

    def test_exchange_symmetry_exact(self):
        inp = CorrelationInput(0.23, 0.7, 0.4)
        assert discord_right(inp) == discord_left(CorrelationInput(0.23, 0.4, 0.7))

    def test_vanishing_prior_limit(self):
        inp = CorrelationInput(1e-6, 0.6, 0.6)
        assert discord_left(inp) < 1e-4
        assert discord_right(inp) < 1e-4

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            CorrelationInput(0.6, 0.5, 0.5)
        with pytest.raises(DomainError):
            CorrelationInput(0.3, 1.5, 0.5)


def test_rejects_flag_overlap_above_one():
    with pytest.raises(DomainError, match="overlap r=1.5"):
        CorrelationInput(0.3, 0.5, 1.5)


class TestReport:
    def test_balanced_proportions_at_symmetric_point(self):
        for p1 in (0.1, 0.3, 0.5):
            rep = correlation_report(CorrelationInput(p1, 0.6, 0.6))
            assert rep.prop_left == pytest.approx(0.5, abs=1e-12)
            assert rep.prop_right == pytest.approx(0.5, abs=1e-12)

    def test_undefined_proportions_at_product_state(self):
        rep = correlation_report(CorrelationInput(0.3, 1.0, 0.5))
        assert rep.prop_left is None and rep.prop_right is None
        assert rep.d_symm == 0.0

    def test_symmetrized_discord_is_geometric_mean(self):
        rep = correlation_report(CorrelationInput(0.2, 0.7, 0.3))
        assert rep.d_symm == pytest.approx(math.sqrt(rep.d_left * rep.d_right), abs=1e-12)

    def test_symmetrized_invariant_under_exchange(self):
        a = correlation_report(CorrelationInput(0.2, 0.7, 0.3)).d_symm
        b = correlation_report(CorrelationInput(0.2, 0.3, 0.7)).d_symm
        assert a == pytest.approx(b, abs=1e-15)

    def test_left_proportion_increases_with_t(self):
        s, p1 = 0.1, 0.2
        props = []
        for t in np.linspace(0.15, 0.98, 40):
            props.append(correlation_report(CorrelationInput(p1, t, s / t)).prop_left)
        assert np.all(np.diff(props) > 0.0)

    def test_left_proportion_enhanced_by_prior_deviation(self):
        s = 0.1
        t = s**0.25  # t > sqrt(s) > r
        lo = correlation_report(CorrelationInput(0.2, t, s / t)).prop_left
        hi = correlation_report(CorrelationInput(0.5, t, s / t)).prop_left
        assert lo > hi

    def test_symmetrized_discord_reduced_by_prior_deviation(self):
        s, t = 0.36, 0.7
        vals = [
            correlation_report(CorrelationInput(p1, t, s / t)).d_symm
            for p1 in np.linspace(0.5, 0.05, 20)
        ]
        assert np.all(np.diff(vals) < 0.0)

    def test_symmetrized_discord_peaks_with_joint_success(self):
        s, p1 = 0.36, 0.3
        sc = Scenario(s, p1)
        ts = np.linspace(s + 1e-3, 0.999, 201)
        d_vals = [correlation_report(CorrelationInput(p1, t, s / t)).d_symm for t in ts]
        q_grid = np.linspace(math.sqrt(s), 1.0, 400)

        def sym_joint(t):
            lo = max((s / t) ** 2, t * t)
            return max(joint_success(sc, t, q, q) for q in q_grid if q >= lo)

        j_vals = [sym_joint(float(t)) for t in ts]
        step = ts[1] - ts[0]
        assert abs(ts[int(np.argmax(d_vals))] - math.sqrt(s)) <= step + 1e-12
        assert abs(ts[int(np.argmax(j_vals))] - math.sqrt(s)) <= step + 1e-12


class TestMeasurementOracle:
    def test_matches_koashi_winter_on_diagonal(self):
        inp = CorrelationInput(0.3, 0.6, 0.6)
        oracle = left_discord_measurement_oracle(inp)
        closed = discord_left(inp)
        assert closed - 1e-4 <= oracle <= closed + 1e-3

    def test_product_state_is_classical(self):
        assert left_discord_measurement_oracle(CorrelationInput(0.3, 1.0, 0.5)) < 1e-6

    def test_asymmetric_point(self):
        inp = CorrelationInput(0.25, 0.8, 0.35)
        oracle = left_discord_measurement_oracle(inp)
        closed = discord_left(inp)
        assert closed - 1e-4 <= oracle <= closed + 1e-3


def _conditional_entropy_2d(theta, phi, p, states, ops):
    """Average conditional entropy of B for the complex measurement direction
    |m> = (cos(theta/2), e^{i phi} sin(theta/2)) on A and its complement."""
    c = np.cos(0.5 * theta)
    sn = np.sin(0.5 * theta)
    ph = np.exp(-1j * phi)
    amps = [c * f[0] + sn * ph * f[1] for f in states]
    amps_perp = [-sn * np.conj(ph) * f[0] + c * f[1] for f in states]
    total = np.zeros_like(theta, dtype=float)
    for amp_pair in (amps, amps_perp):
        w1 = p[0] * np.abs(amp_pair[0]) ** 2
        w2 = p[1] * np.abs(amp_pair[1]) ** 2
        pm = w1 + w2
        safe = np.where(pm > 1e-300, pm, 1.0)
        cond = (w1[..., None, None] * ops[0] + w2[..., None, None] * ops[1]) / safe[..., None, None]
        lam = np.linalg.eigvalsh(cond)
        total = total + np.where(pm > 1e-300, pm * _vn_entropy_bits(lam), 0.0)
    return total


def _left_discord_2d_scan(inp):
    """Reference for the one-axis oracle: the left discord minimized over a
    181 x 361 grid of complex measurement directions (theta, phi), then one
    golden-section refinement per coordinate."""
    phi1, phi2 = make_state_pair(inp.t, 2)
    a1, a2 = make_state_pair(inp.r, 3)
    f1, f2 = phi1.amplitudes, phi2.amplitudes
    op1 = np.outer(a1.amplitudes, a1.amplitudes)
    op2 = np.outer(a2.amplitudes, a2.amplitudes)
    rho = inp.p1 * np.kron(np.outer(f1, f1), op1) + inp.p2 * np.kron(np.outer(f2, f2), op2)
    rho_a = np.array(
        [[np.trace(rho[3 * i : 3 * i + 3, 3 * j : 3 * j + 3]) for j in range(2)] for i in range(2)]
    )
    s_a = float(_vn_entropy_bits(np.linalg.eigvalsh(rho_a)))
    s_ab = float(_vn_entropy_bits(np.linalg.eigvalsh(rho)))
    args = ((inp.p1, inp.p2), (f1, f2), (op1, op2))

    thetas = np.linspace(0.0, math.pi, 181)
    phis = np.linspace(0.0, 2.0 * math.pi, 361)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    grid = _conditional_entropy_2d(tt.ravel(), pp.ravel(), *args)
    k = int(np.argmin(grid))
    theta0, phi0 = tt.ravel()[k], pp.ravel()[k]
    best = float(grid[k])

    def neg_cond_at(theta, phi):
        return -float(_conditional_entropy_2d(np.array([theta]), np.array([phi]), *args)[0])

    step_t, step_p = thetas[1] - thetas[0], phis[1] - phis[0]
    theta0, v = golden_max(
        lambda th: neg_cond_at(th, phi0), max(0.0, theta0 - step_t), min(math.pi, theta0 + step_t)
    )
    best = min(best, -v)
    _, v = golden_max(lambda ph: neg_cond_at(theta0, ph), phi0 - step_p, phi0 + step_p)
    best = min(best, -v)
    value = s_a - s_ab + best
    return max(value, 0.0) if value > -1e-11 else value


_rng = np.random.default_rng(7)
_SEEDED_INPUTS = [
    (float(_rng.uniform(1e-3, 0.5)), float(_rng.uniform(0.0, 1.0)), float(_rng.uniform(0.0, 1.0)))
    for _ in range(8)
]
_EDGE_OVERLAPS = (0.0, 1e-6, 0.3, 0.9, 1.0 - 1e-9, 1.0)
_EDGE_INPUTS = [
    (p1, t, r) for p1 in (1e-6, 0.01, 0.2, 0.5) for t in _EDGE_OVERLAPS for r in _EDGE_OVERLAPS
]


class TestOneAxisOracle:
    """The real theta scan finds the measurement minimum of the full complex scan."""

    @pytest.mark.parametrize("p1,t,r", _SEEDED_INPUTS)
    def test_never_above_the_complex_scan(self, p1, t, r):
        inp = CorrelationInput(p1, t, r)
        assert left_discord_measurement_oracle(inp) <= _left_discord_2d_scan(inp) + 1e-12

    @pytest.mark.parametrize("p1,t,r", _SEEDED_INPUTS + _EDGE_INPUTS)
    def test_matches_closed_form(self, p1, t, r):
        inp = CorrelationInput(p1, t, r)
        assert abs(left_discord_measurement_oracle(inp) - discord_left(inp)) <= 1e-9
