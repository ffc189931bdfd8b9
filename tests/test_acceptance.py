"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import hashlib
import io
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from seqdisc import (
    CaseLabel,
    CorrelationInput,
    SYMMETRY_BREAK_OVERLAP,
    Scenario,
    at_least_one_protocol3,
    at_least_one_ssd,
    certify,
    correlation_report,
    critical_prior_PC,
    discord_left,
    discord_right,
    joint_optimal,
    joint_success,
    left_discord_measurement_oracle,
    protocol1_optimal,
    protocol2_critical_priors,
    protocol2_optimal,
    protocol3_optimal,
    run_figure,
    run_ssd_trials,
    solve_q_star,
    write_csv,
)
from seqdisc.protocols import clone_params_of_omega, omega_range


def _report(number: int, description: str):
    def decorator(fn):
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d} FAIL: {description}")
                raise
            print(f"criterion {number:2d} PASS: {description}")

        wrapper.__name__ = fn.__name__
        return wrapper

    return decorator


@_report(1, "equal-prior SSD optimum (1-sqrt(s))^2 with q* = sqrt(s)")
def test_criterion_1_equal_prior_optimum():
    start = time.perf_counter()
    for s in (0.01, 0.04, 0.09):
        sc = Scenario(s, 0.5)
        q_star = solve_q_star(sc)
        assert q_star == pytest.approx(math.sqrt(s), abs=1e-9)
        residual = 0.5 * q_star**4 - 0.5 * q_star**3 + 0.5 * s * q_star - 0.5 * s * s
        assert abs(residual) < 1e-12
        res = joint_optimal(sc, compute_boundary=False)
        assert res.value == pytest.approx((1.0 - math.sqrt(s)) ** 2, abs=1e-9)
    assert time.perf_counter() - start < 1.0


@_report(2, "joint branch flip and P_C crossing 1/2 at s = 3 - 2*sqrt(2)")
def test_criterion_2_symmetry_breaking_threshold():
    thr = SYMMETRY_BREAK_OVERLAP
    below = joint_optimal(Scenario(thr - 1e-4, 0.5), compute_boundary=False)
    above = joint_optimal(Scenario(thr + 1e-4, 0.5), compute_boundary=False)
    assert below.case_label is CaseLabel.CASE_I
    assert above.case_label is CaseLabel.CASE_II

    pc_below = critical_prior_PC(thr - 1e-4)
    pc_above = critical_prior_PC(thr + 1e-4)
    assert pc_below.case_i_applies and 0.49 < pc_below.value < 0.5
    assert not pc_above.case_i_applies and pc_above.value >= 0.5

    q_star = solve_q_star(Scenario(thr, 0.5))
    v_case1 = 0.5 * (1 - q_star) ** 2 + 0.5 * (1 - thr / q_star) ** 2
    v_case2 = 0.5 * (1 - thr) ** 2
    assert v_case1 == pytest.approx(v_case2, abs=1e-6)


# (worst_gap, worst_scenario) of every certify() row on the standard 5x6
# grid, recorded from the elementwise per-t grid scan. The protocol-2 and
# both cloning rows were re-recorded when the 1-D oracles' golden-section
# refinement gave way to window rescans: those oracles find a flat maximum
# only to about 1e-8 in their argument, so where a refinement lands moves
# their gaps (protocol2 2.6680e-9 -> 2.7318e-9; protocol3 3.0624e-9 at
# (0.36, 0.2) -> 2.6396e-9 at (0.1716, 0.05); at_least_one_p3 1.3172e-9 at
# (0.6, 0.2) -> 9.5568e-10 at (0.6, 0.4)). The at_least_one_ssd row was
# re-recorded when its certifier gave way from the (t, q1b, q1c) grid scan
# (2.2204e-16 at (0.1716, 0.2)) to the exact bounds of the stage at r = s
# (``oracle._stage_bounds``), whose gap bounds the closed form's distance
# from the optimum itself (1.4033e-16 at (0.6, 0.1)). The joint row was
# re-recorded likewise, from the block-bounded (t, q1b, q1c) scan (3.1124e-10
# at (0.2, 0.05)) to the exact bounds of ``oracle.joint_certificate``
# (1.8030e-16 at (0.2, 0.1)). Both cloning rows were re-recorded when the
# cloning oracle's angle form gave way to the constraint's closed-form root,
# which moves its rounding and so where its refinement lands on the flat top
# (protocol3 2.6396e-9 at (0.1716, 0.05) -> 2.9351e-9 at (0.36, 0.1);
# at_least_one_p3 9.5568e-10 at (0.6, 0.4) -> 5.8826e-10 at (0.36, 0.1)).
# The bob, charlie and protocol1 rows were re-recorded when their 1-D stage
# scans gave way to the same exact stage bounds, in integers, at r = s/t
# (the exact quotient), t and s (bob 2.2204e-16 at (0.04, 0.4) -> 1.6431e-16
# at (0.36, 0.1); charlie 1.1102e-16 at (0.04, 0.05) -> 1.4033e-16 at
# (0.2, 0.1); protocol1 1.1102e-16 at (0.04, 0.05) -> 1.4033e-16 at
# (0.6, 0.1)).
_CERTIFIED_ROWS = {
    "bob": (1.6431300764452317e-16, (0.36, 0.1)),
    "charlie": (1.403321903126198e-16, (0.2, 0.1)),
    "joint": (1.8030021919912543e-16, (0.2, 0.1)),
    "protocol1": (1.403321903126198e-16, (0.6, 0.1)),
    "protocol2": (2.7318025619393893e-09, (0.36, 0.2)),
    "protocol3": (2.935119591818136e-09, (0.36, 0.1)),
    "at_least_one_p3": (5.882604403595337e-10, (0.36, 0.1)),
    "at_least_one_ssd": (1.403321903126198e-16, (0.6, 0.1)),
}


@_report(3, "all closed forms within 1e-6 of brute-force oracles, under 60 s")
def test_criterion_3_oracle_certification():
    start = time.perf_counter()
    rows = certify()
    elapsed = time.perf_counter() - start
    for row in rows:
        assert row.passed, f"{row.quantity}: worst gap {row.worst_gap} at {row.worst_scenario}"
        assert row.worst_gap < 1e-6
        gap, at = _CERTIFIED_ROWS[row.quantity]
        assert abs(row.worst_gap - gap) <= 1e-15, (row.quantity, row.worst_gap)
        # below 1e-12 the worst gap is a few ulps, and where it lands is rounding
        if gap > 1e-12:
            assert row.worst_scenario == at, (row.quantity, row.worst_scenario)
    assert [row.quantity for row in rows] == list(_CERTIFIED_ROWS)
    assert elapsed < 60.0, f"certification took {elapsed:.1f}s"


@_report(4, "figure-4 ordering and monotonically shrinking gaps at s = 0.04")
def test_criterion_4_figure4_ordering():
    s = 0.04
    grid = 0.5 * np.arange(1, 201) / 200
    v1, v2, v3, vssd = [], [], [], []
    for p1 in grid:
        sc = Scenario(s, float(p1))
        v1.append(protocol1_optimal(sc).value)
        v2.append(protocol2_optimal(sc).value)
        v3.append(protocol3_optimal(sc).value)
        vssd.append(joint_optimal(sc, compute_boundary=False).value)
    v1, v2, v3, vssd = map(np.asarray, (v1, v2, v3, vssd))
    assert np.all(v1 >= v2 - 1e-9)
    assert np.all(v2 >= v3 - 1e-9)
    assert np.all(v3 >= vssd - 1e-9)
    # gaps shrink monotonically as p1 decreases toward the small-p1 region
    # (grid is ascending in p1)
    for gap in (v1 - v2, v2 - v3, v1 - vssd):
        assert np.all(np.diff(gap) >= -1e-9)
    # the cloning-vs-SSD gap alone turns back up inside the small-p1 region
    # (oracle-verified interior minimum 0.0668 near p1 = 0.016, limit 0.0736
    # at p1 -> 0, against 0.246 at p1 = 1/2); monotone shrinkage holds on the
    # approach and the region stays far below the equal-prior gap
    gap34 = v3 - vssd
    k_min = int(np.argmin(gap34))
    assert grid[k_min] < 0.05
    assert np.all(np.diff(gap34[k_min:]) >= -1e-9)
    assert np.all(gap34[:k_min] <= gap34[-1] / 3.0)


@_report(5, "figure-5 cloning superiority and union identities at s = 0.36")
def test_criterion_5_figure5_superiority_and_identity():
    s = 0.36
    for p1 in 0.5 * np.arange(1, 201) / 200:
        sc = Scenario(s, float(p1))
        ssd_star = at_least_one_ssd(sc).value
        base = protocol1_optimal(sc).value
        # SSD*, protocol-1* and protocol-2* all coincide with the protocol-1 optimum
        assert ssd_star == pytest.approx(base, abs=1e-12)
        p3_star = at_least_one_protocol3(sc).value
        assert p3_star >= ssd_star - 1e-12
        if p1 < 0.5:
            assert p3_star > ssd_star


@_report(6, "protocol-2 jump at p_c2 and continuity at p_c1 for s = 0.2")
def test_criterion_6_protocol2_discontinuity():
    s = 0.2
    p_c1, p_c2 = protocol2_critical_priors(s)
    assert p_c2 == pytest.approx(s * s / (1 + s * s), abs=1e-15)
    left = protocol2_optimal(Scenario(s, p_c2 * (1 - 1e-9))).value
    right = protocol2_optimal(Scenario(s, p_c2 * (1 + 1e-9))).value
    assert abs(left - right) > 1e-3
    below = protocol2_optimal(Scenario(s, p_c1 * (1 - 1e-9)))
    above = protocol2_optimal(Scenario(s, p_c1 * (1 + 1e-9)))
    assert (below.case_label, above.case_label) == (CaseLabel.CASE_II, CaseLabel.CASE_I)
    assert below.value == pytest.approx(above.value, abs=1e-9)


@_report(7, "cloning endpoint values and constraint residual across omega")
def test_criterion_7_cloning_endpoints():
    for s in (0.1, 0.36, 0.6):
        w1, w2 = omega_range(s)
        cp1 = clone_params_of_omega(w1, s)
        assert cp1.gamma1 == pytest.approx(1 / (1 + s), abs=1e-10)
        assert cp1.gamma2 == pytest.approx(1 / (1 + s), abs=1e-10)
        cp2 = clone_params_of_omega(w2, s)
        assert cp2.gamma1 == pytest.approx(s * s / (1 + s * s), abs=1e-10)
        assert cp2.gamma2 == pytest.approx(1 / (1 + s * s), abs=1e-10)
        assert cp2.p1_of_omega == pytest.approx(0.0, abs=1e-10)
        for om in np.linspace(w1, w2, 1000):
            cp = clone_params_of_omega(float(om), s)
            residual = abs(
                s
                - math.sqrt(cp.gamma1 * cp.gamma2) * s * s
                - math.sqrt((1 - cp.gamma1) * (1 - cp.gamma2))
            )
            assert residual < 1e-10


@_report(8, "discord zeros, balanced proportions, peak location and oracle agreement")
def test_criterion_8_discord_properties():
    s = 0.36
    for p1 in (0.1, 0.3, 0.5):
        for t in (1.0, s):  # r = s/t is 0.36 here, or 1 at t = s
            inp = CorrelationInput(p1, t, s / t)
            assert discord_left(inp) < 1e-12
            assert discord_right(inp) < 1e-12
        rep = correlation_report(CorrelationInput(p1, math.sqrt(s), math.sqrt(s)))
        assert rep.prop_left == pytest.approx(0.5, abs=1e-12)
        assert rep.prop_right == pytest.approx(0.5, abs=1e-12)

    ts = np.linspace(s, 1.0, 500)
    d_vals = [
        correlation_report(CorrelationInput(0.3, float(t), s / float(t))).d_symm for t in ts
    ]
    step = ts[1] - ts[0]
    assert abs(ts[int(np.argmax(d_vals))] - math.sqrt(s)) <= step + 1e-12

    rng = np.random.default_rng(2024)
    for _ in range(20):
        inp = CorrelationInput(
            float(rng.uniform(0.05, 0.5)),
            float(rng.uniform(0.2, 0.95)),
            float(rng.uniform(0.2, 0.95)),
        )
        oracle = left_discord_measurement_oracle(inp)
        closed = discord_left(inp)
        assert abs(oracle - closed) < 1e-4


@_report(9, "seeded Monte Carlo: error-free, within 5 sigma, bit-reproducible, < 10 s")
def test_criterion_9_monte_carlo():
    sc = Scenario(0.04, 0.5)
    q_star = solve_q_star(sc)
    assert q_star == pytest.approx(0.2, abs=1e-12)
    start = time.perf_counter()
    summary = run_ssd_trials(sc, 0.2, q_star, q_star, 10**6, 42)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"simulation took {elapsed:.1f}s"
    assert summary.error_count == 0
    expected = joint_success(sc, 0.2, q_star, q_star)
    assert expected == pytest.approx(0.64, abs=1e-12)
    sigma = math.sqrt(expected * (1 - expected) / 10**6)
    assert abs(summary.joint_success_rate - expected) <= 5 * sigma
    rerun = run_ssd_trials(sc, 0.2, q_star, q_star, 10**6, 42)
    assert np.array_equal(summary.counts, rerun.counts)
    assert summary.error_count == rerun.error_count


@_report(10, "figure presets emit CSV sweeps satisfying the quoted shape claims")
def test_criterion_10_figure_presets():
    presets = {}
    for name in ("2", "3a", "3b", "4", "5", "6a", "6b", "6c"):
        start = time.perf_counter()
        header, rows = run_figure(name)
        assert time.perf_counter() - start < 10.0, f"figure {name} preset too slow"
        assert len(header) >= 2 and len(rows) >= 100
        presets[name] = (header, np.array([[np.nan if v is None else v for v in r] for r in rows]))

    # figs 2, 3a: optima grow as p1 deviates from 1/2; fig 3b: decay with s
    for name in ("2", "3a", "3b"):
        _, data = presets[name]
        for col in range(1, data.shape[1]):
            assert np.all(np.diff(data[:, col]) <= 1e-12)

    # fig 4: ordering and shrinking gaps (claims of criterion 4)
    _, f4 = presets["4"]
    ssd, v1, v2, v3 = f4[:, 1], f4[:, 2], f4[:, 3], f4[:, 4]
    assert np.all(v1 >= v2 - 1e-9) and np.all(v2 >= v3 - 1e-9) and np.all(v3 >= ssd - 1e-9)
    for gap in (v1 - v2, v2 - v3):
        assert np.all(np.diff(gap) >= -1e-9)
    gap34 = v3 - ssd  # shallow minimum inside the small-p1 region, see criterion 4
    k_min = int(np.argmin(gap34))
    assert f4[k_min, 0] < 0.05
    assert np.all(np.diff(gap34[k_min:]) >= -1e-9)

    # fig 5: cloning union dominates, strictly away from p1 = 1/2
    _, f5 = presets["5"]
    assert np.all(f5[:, 2] >= f5[:, 1] - 1e-12)
    interior = f5[:, 0] < 0.5
    assert np.all(f5[interior, 2] > f5[interior, 1])

    # fig 6a: left-discord proportion rises with t wherever defined
    # (the s = 0.9 curve only exists on t > 0.9, 19 of the 179 grid points)
    _, f6a = presets["6a"]
    for col in range(1, 4):
        vals = f6a[:, col]
        defined = vals[~np.isnan(vals)]
        assert len(defined) >= 15
        assert np.all(np.diff(defined) >= -1e-12)

    # fig 6b: the left proportion is enhanced as p1 moves away from 1/2
    # (t = s**0.25 > sqrt(s), so it stays above 1/2 everywhere)
    _, f6b = presets["6b"]
    assert np.all(np.diff(f6b[:, 1]) <= 1e-12)
    assert np.all(f6b[:, 1] > 0.5)

    # fig 6c: peak column is t = sqrt(s); all columns grow toward p1 = 1/2
    _, f6c = presets["6c"]
    assert np.all(f6c[:, 1] >= f6c[:, 2] - 1e-12)
    assert np.all(f6c[:, 1] >= f6c[:, 3] - 1e-12)
    for col in range(1, 4):
        assert np.all(np.diff(f6c[:, col]) >= -1e-12)


#: SHA-256 of each preset's CSV bytes, as written by ``write_csv``.  Any
#: change to a grid, a column or a closed form that moves a printed digit
#: shows up here.
FIGURE_CSV_SHA256 = {
    "2": "ffdab0a5594ded33a6d30b85c8488e9fad612b2ef4828549547790f411b14ce9",
    "3a": "d8c333d2abb8dac178acf1f5d1bc63bec3f869587fa7c337d9731cc8db1c07ae",
    "3b": "31d301403fc73217d6f91c6f9b0741eb1de102a3d742531d605690c8fc85e92a",
    "4": "d0719f2c49326c85b49fb210f9ebc794ff24b046ed3ba15e1bc21a3966d9786c",
    "5": "efb1f866e3b66348a321b0fd848b997c50f890ccf9a53dc3da50ec8ee8a31dc8",
    "6a": "a8bc632a5eb8ec8f08302582ea8c3671fee4aeda885b25ec62a1597b8760916c",
    "6b": "7da026d3ee58077ad7e9ce3cfb86384e5b105bdfad6094ee0529a66515617b94",
    "6c": "613dcbd9bf35922124d0a5575e507eb18e70605bf78a5326a90248b41226c9ac",
}


@pytest.mark.parametrize("name", sorted(FIGURE_CSV_SHA256))
def test_figure_csv_bytes_pinned(name):
    buf = io.StringIO()
    write_csv(*run_figure(name), buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == FIGURE_CSV_SHA256[name]


def test_make_figures_script_writes_pinned_csvs(tmp_path):
    repo = Path(__file__).resolve().parents[1]
    subprocess.run(
        [sys.executable, str(repo / "scripts" / "make_figures.py"), "--out-dir", str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(repo / "src")},
        capture_output=True,
        check=True,
        timeout=120,
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"fig{name}.csv" for name in FIGURE_CSV_SHA256
    )
    for name, digest in FIGURE_CSV_SHA256.items():
        assert hashlib.sha256((tmp_path / f"fig{name}.csv").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "p1,printed",
    # 50-digit values 0.89709694566549971356, 0.89411401725050095795 and
    # 0.89110991740449964917 lie beside a rounding half-way point
    [(0.2875, "0.897096945665"), (0.3175, "0.894114017251"), (0.355, "0.891109917404")],
)
def test_figure4_protocol3_cells_correctly_rounded(p1, printed):
    assert format(protocol3_optimal(Scenario(0.04, p1)).value, ".12g") == printed
