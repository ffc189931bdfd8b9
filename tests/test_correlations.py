import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqdisc import (
    CorrelationInput,
    DomainError,
    NumericError,
    Scenario,
    correlation_report,
    discord_left,
    discord_right,
    joint_success,
    left_discord_measurement_oracle,
)
from seqdisc import correlations
from seqdisc.core import make_state_pair
from seqdisc.correlations import _vn_entropy_bits, d_symm_values, prop_left_values

inputs = st.builds(
    CorrelationInput,
    p1=st.floats(min_value=0.01, max_value=0.5),
    t=st.floats(min_value=0.0, max_value=1.0),
    r=st.floats(min_value=0.0, max_value=1.0),
)


def _tangles(inp):
    """The report's four tangles, in its field order."""
    rep = correlation_report(inp)
    return rep.tau_abe, rep.tau_a_be, rep.tau_b_ae, rep.tau_e_ab


class TestTangles:
    def test_no_system_information_extracted(self):
        taus = correlation_report(CorrelationInput(0.5, 1.0, 0.5))
        assert taus.tau_abe == 0.0
        assert taus.tau_a_be == 0.0
        assert taus.tau_b_ae == pytest.approx(0.75, abs=1e-12)
        assert taus.tau_e_ab == pytest.approx(0.75, abs=1e-12)

    def test_symmetric_under_overlap_exchange(self):
        a = correlation_report(CorrelationInput(0.5, 0.3, 0.3))
        assert a.tau_a_be == a.tau_b_ae

    def test_vanishing_prior_kills_all_tangles(self):
        assert max(_tangles(CorrelationInput(1e-12, 0.5, 0.5))) < 1e-11

    @settings(max_examples=100, deadline=None)
    @given(inputs)
    def test_monogamy_bounds(self, inp):
        tau_abe, tau_a_be, tau_b_ae, _ = taus = _tangles(inp)
        assert tau_abe <= tau_a_be + 1e-15
        assert tau_abe <= tau_b_ae + 1e-15
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

    def test_kernel_raises_the_scalar_floor_error(self, monkeypatch):
        # with H(x) = x^2 the sum is -2*tau_B|AE*tau_AE, far below the floor
        monkeypatch.setattr(correlations, "entropy_H", lambda x: x * x)
        monkeypatch.setattr(correlations, "entropy_H_values", lambda x: x * x)
        with pytest.raises(NumericError, match="^right discord .* below the -1e-10 floor$"):
            prop_left_values(np.array([0.36]), np.array([0.5]), np.array([0.6]))


def _koashi_winter_80(p1, t, r):
    """(D, kappa): the right discord at 80 digits, and the condition number
    (H(tau_B|AE) + H(tau_E|AB) + H(tau_AE))/D of its Koashi-Winter sum.

    H takes log1p(-lam): at 60 digits mp.log(1 - lam) rounds 1 - lam to 1
    near p1 = 1e-60 and reads 17% off there."""
    with mpmath.workdps(80):
        p1, t, r = mpmath.mpf(p1), mpmath.mpf(t), mpmath.mpf(r)
        c = 4 * p1 * (1 - p1)

        def h(x):
            lam = x / (2 * (1 + mpmath.sqrt(1 - x)))
            return (-lam * mpmath.log(lam) - (1 - lam) * mpmath.log1p(-lam)) / mpmath.log(2)

        terms = (h(c * (1 - r * r)), h(c * (1 - t * t * r * r)), h(c * (1 - t * t) * r * r))
        d = terms[0] - terms[1] + terms[2]
        return d, sum(terms) / d


def _discord_accuracy_inputs():
    """200 seeded (p1, t, r): generic; p1 = 10^U(-300, -6); and 1 - t, 1 - r
    log-uniform in [1e-15, 1e-3] within a factor of 10 of each other."""
    rng = np.random.default_rng(31)
    generic = [(rng.uniform(1e-3, 0.5), rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(70)]
    small = [(10.0 ** rng.uniform(-300, -6), rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(70)]
    near = []
    for _ in range(60):
        gap_t = 10.0 ** rng.uniform(-15, -3)
        gap_r = min(max(gap_t * 10.0 ** rng.uniform(-1, 1), 1e-15), 1e-3)
        near.append((rng.uniform(1e-3, 0.5), 1.0 - gap_t, 1.0 - gap_r))
    return {"generic": generic, "small_p1": small, "near_one": near}


class TestDiscordAccuracy:
    """Both discords against an 80-digit Koashi-Winter.  Every entropy keeps
    its relative accuracy, so what is left is the sum's cancellation: the
    relative error stays within a few ulps times its condition number kappa,
    which is large only where tau_B|AE and tau_AE are lopsided (ROADMAP
    item 10's open corner)."""

    @pytest.mark.parametrize("group", ["generic", "small_p1", "near_one"])
    def test_relative_error(self, group):
        for p1, t, r in _discord_accuracy_inputs()[group]:
            inp = CorrelationInput(float(p1), float(t), float(r))
            for value, args in ((discord_right(inp), (p1, t, r)), (discord_left(inp), (p1, r, t))):
                ref, kappa = _koashi_winter_80(*args)
                assert ref > 0 and value > 0.0, (p1, t, r)
                rel = abs((value - ref) / ref)
                assert rel <= 1e-15 * kappa, (p1, t, r, float(rel), float(kappa))
                if group == "near_one":
                    assert rel <= 1e-13, (p1, t, r, float(rel))

    def test_tiny_prior_symmetrized_discord(self):
        # d_left * d_right underflows here; sqrt(d_left) * sqrt(d_right) does not
        rep = correlation_report(CorrelationInput(1e-200, 0.6, 0.6))
        ref, _ = _koashi_winter_80(1e-200, 0.6, 0.6)
        assert abs(rep.d_left - ref) <= 1e-12 * ref
        assert rep.d_symm > 0.0 and abs(rep.d_symm - rep.d_left) <= 1e-12 * rep.d_left
        column = d_symm_values(np.array([0.36]), np.array([1e-200]), np.array([0.6]))
        assert column[0] == correlation_report(CorrelationInput(1e-200, 0.6, 0.36 / 0.6)).d_symm


def test_discords_are_the_reports_bit_for_bit():
    # discord_right and discord_left read the report's own body, on the
    # seeded accuracy draws and at t and r of 0, an ulp below 1, and 1
    edges = (0.0, 0.6, math.nextafter(1.0, 0.0), 1.0)
    draws = [lane for group in _discord_accuracy_inputs().values() for lane in group]
    draws += [(p1, t, r) for p1 in (1e-200, 0.3, 0.5) for t in edges for r in edges]
    for lane in draws:
        inp = CorrelationInput(*(float(x) for x in lane))
        rep = correlation_report(inp)
        assert (discord_right(inp).hex(), discord_left(inp).hex()) == (rep.d_right.hex(), rep.d_left.hex()), lane


def test_report_and_kernels_agree_bit_for_bit():
    # the report's entropies are floats and the kernels' are lanes of one
    # body with numpy's logarithms, so their discords agree bit for bit on
    # the seeded accuracy draws, t = 1 (both discords 0) included
    draws = [lane for group in _discord_accuracy_inputs().values() for lane in group]
    p1, t, r = (np.array(a) for a in zip(*draws, (0.3, 1.0, 0.6)))
    s = t * r
    prop_left, d_symm = prop_left_values(s, p1, t), d_symm_values(s, p1, t)
    for i, lane in enumerate(zip(p1.tolist(), t.tolist(), (s / t).tolist())):
        rep = correlation_report(CorrelationInput(*lane))
        want = math.nan if rep.prop_left is None else rep.prop_left
        assert float(prop_left[i]).hex() == want.hex(), lane
        assert float(d_symm[i]).hex() == rep.d_symm.hex(), lane


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


def _golden_max(f, lo, hi, steps=70):
    """Maximum of a unimodal f on [lo, hi] by golden-section search on floats;
    returns (x, f(x)). The 2-D reference refines with it, a method of its own
    beside the oracle's window scans."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(steps):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def _left_discord_2d_scan(inp):
    """Reference for the one-axis oracle: the left discord minimized over a
    181 x 361 grid of complex measurement directions (theta, phi), then one
    golden-section refinement per coordinate."""
    f1, f2 = make_state_pair(inp.t, 2)
    a1, a2 = make_state_pair(inp.r, 3)
    op1, op2 = np.outer(a1, a1), np.outer(a2, a2)
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
    theta0, v = _golden_max(
        lambda th: neg_cond_at(th, phi0), max(0.0, theta0 - step_t), min(math.pi, theta0 + step_t)
    )
    best = min(best, -v)
    _, v = _golden_max(lambda ph: neg_cond_at(theta0, ph), phi0 - step_p, phi0 + step_p)
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
