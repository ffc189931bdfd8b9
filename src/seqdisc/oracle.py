"""Brute-force grid maximizers certifying every closed-form optimum.

Each oracle evaluates the defining objective on a dense grid of the feasible
set (boundaries always included, since the optima frequently sit at q = 1)
and refines around the best point.  They share nothing with the piecewise
closed forms beyond the objective definitions themselves.

The grids are fixed: 1-D scans take ``_SCAN_POINTS`` points, refined on floats
by golden-section search, and every one-stage maximum (a cloned copy's too)
is ``_grid_max_stage``'s; the (t, q1b, q1c) scans take ``_JOINT_POINTS`` per
axis, refined by ``_REFINEMENT_PASSES`` scans of ``_REFINE_POINTS`` per axis.
``certify`` compares each closed form with its oracle and flags a gap above
its ``tolerance``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import DomainError, NumericError, Scenario, check_overlap_t, golden_max
from .protocols import (
    at_least_one_protocol3,
    at_least_one_ssd,
    protocol1_optimal,
    protocol2_optimal,
    protocol3_optimal,
)
from .ssd import bob_optimal, charlie_optimal, joint_optimal

#: Grid points of each 1-D scan, and per axis of each (t, q1b, q1c) scan and
#: of each of its refinements.
_SCAN_POINTS = 2001
_JOINT_POINTS = 301
_REFINE_POINTS = 33
#: Refinement rounds after every grid scan; each narrows the search window.
_REFINEMENT_PASSES = 2

#: Standard certification grid.
CERT_S_VALUES = (0.04, 0.1716, 0.2, 0.36, 0.6)
CERT_P1_VALUES = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5)


def _max_1d(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    f_values: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[float, float]:
    """Grid scan with golden-section refinement of a scalar objective.

    The grid is scanned by one call of ``f_values`` (default ``f``, for an
    objective of plain arithmetic that serves arrays and floats alike); the
    refinement calls ``f`` on plain floats, and a separate ``f_values`` must
    equal ``f`` bit for bit. The grid holds lo and hi exactly, so no separate
    check of the edges could win.
    """
    xs = np.linspace(lo, hi, _SCAN_POINTS)
    vals = (f_values or f)(xs)
    i = int(np.argmax(vals))
    best_x, best_v = float(xs[i]), float(vals[i])
    step = float(xs[1] - xs[0])
    for _ in range(_REFINEMENT_PASSES):
        x, v = golden_max(f, max(lo, best_x - step), min(hi, best_x + step))
        if v > best_v:
            best_x, best_v = x, v
        step *= 1e-2
    return best_v, best_x


def _stage_objective(p1: float, p2: float, r: float):
    """Success probability of one discrimination stage as a function of q1
    (a float or an array)."""
    r2 = r * r
    if r2 == 0.0:
        return lambda q: p1 * (1.0 - q) + p2  # orthogonal flags: q2 = 0
    return lambda q: p1 * (1.0 - q) + p2 * (1.0 - r2 / q)


def _grid_max_stage(p1: float, p2: float, r: float) -> tuple[float, float]:
    """The one-stage oracle: (max, argmax) of ``_stage_objective`` on [r^2, 1]."""
    return _max_1d(_stage_objective(p1, p2, r), r * r, 1.0)


def _conditioned_stage(w1: float, w2: float, s: float) -> tuple[float, float]:
    """The stage oracle at overlap s for the priors w1 : w2 left by a first step."""
    return _grid_max_stage(w1 / (w1 + w2), w2 / (w1 + w2), s)


def grid_maximize_bob(scenario: Scenario, t: float) -> tuple[float, float]:
    """Brute-force maximum of Bob's success over q1b in [(s/t)^2, 1]."""
    check_overlap_t(scenario.s, t)
    return _grid_max_stage(scenario.p1, scenario.p2, scenario.s / t)


def grid_maximize_charlie(scenario: Scenario, t: float) -> tuple[float, float]:
    """Brute-force maximum of Charlie's success over q1c in [t^2, 1]."""
    check_overlap_t(scenario.s, t)
    return _grid_max_stage(scenario.p1, scenario.p2, t)


def _joint_term(q1b, q2b, q1c, q2c, p1, p2):
    return p1 * (1.0 - q1b) * (1.0 - q1c) + p2 * (1.0 - q2b) * (1.0 - q2c)


def _joint_factors(q1b, q2b, q1c, q2c, p1, p2):
    """Bob and Charlie factors whose rank-2 product is ``_joint_term``."""
    return (p1 * (1.0 - q1b), p2 * (1.0 - q2b)), (1.0 - q1c, 1.0 - q2c)


def _union_term(q1b, q2b, q1c, q2c, p1, p2):
    return p1 * (1.0 - q1b * q1c) + p2 * (1.0 - q2b * q2c)


def _union_factors(q1b, q2b, q1c, q2c, p1, p2):
    """Factors of ``_union_term`` less its constant p1 + p2, which moves no argmax."""
    return (-p1 * q1b, -p2 * q2b), (q1c, q2c)


def _max_3d(
    scenario: Scenario, term: Callable, factors: Callable
) -> tuple[float, float, float, float]:
    """Maximize a two-stage objective over (t, q1b, q1c) with local refinement.

    q1b ranges over [(s/t)^2, 1] and q1c over [t^2, 1]; both are parametrized
    by normalized coordinates in [0, 1] so the search box is rectangular.

    At fixed t the objective is a sum of two Bob-times-Charlie products, so
    each t-slice is evaluated at every (q1b, q1c) grid point as one
    ``(U, 2) @ (2, V)`` matrix product of the ``factors`` into a reused
    buffer. The slice's first maximum is then re-evaluated with ``term``
    itself, and that value competes across slices.
    """
    s, p1, p2 = scenario.s, scenario.p1, scenario.p2
    n = _JOINT_POINTS
    t_lo_global = max(s, 1e-9)

    def evaluate(ts: np.ndarray, us: np.ndarray, vs: np.ndarray):
        best = (-1.0, 0.0, 0.0, 0.0)
        r2 = (s / ts) ** 2
        bob = np.empty((len(us), 2))
        charlie = np.empty((2, len(vs)))
        slab = np.empty((len(us), len(vs)))
        for j, t in enumerate(ts):
            lob = r2[j]
            q1b = lob + us * (1.0 - lob)
            q1c = t * t + vs * (1.0 - t * t)
            q2b = np.where(q1b > 0.0, r2[j] / np.where(q1b > 0.0, q1b, 1.0), 1.0)
            q2c = t * t / q1c
            (bob[:, 0], bob[:, 1]), (charlie[0], charlie[1]) = factors(q1b, q2b, q1c, q2c, p1, p2)
            np.matmul(bob, charlie, out=slab)
            ib, ic = divmod(int(np.argmax(slab)), len(vs))
            v = float(term(q1b[ib], q2b[ib], q1c[ic], q2c[ic], p1, p2))
            if v > best[0]:
                best = (v, float(t), float(q1b[ib]), float(q1c[ic]))
        return best

    ts = np.linspace(t_lo_global, 1.0, n)
    us = np.linspace(0.0, 1.0, n)
    vs = np.linspace(0.0, 1.0, n)
    best = evaluate(ts, us, vs)

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


def grid_maximize_joint(scenario: Scenario) -> tuple[float, float, float, float]:
    """Brute-force maximum of the joint success over (t, q1b, q1c), scanned
    at 301 points per axis (2.7e7 evaluations) before refinement."""
    return _max_3d(scenario, _joint_term, _joint_factors)


def grid_maximize_union_ssd(scenario: Scenario) -> tuple[float, float, float, float]:
    """Brute-force maximum of P(at least one succeeds) over (t, q1b, q1c)."""
    return _max_3d(scenario, _union_term, _union_factors)


def grid_maximize_protocol2(scenario: Scenario) -> tuple[float, float, float]:
    """Brute-force value of protocol (2): Bob's stage maximized first, then
    Charlie's stage at the induced conditional priors.

    When Bob's stage peaks at the boundary q1b = 1 his success implies state 2
    and Charlie needs no measurement; the Charlie coordinate is then reported
    as NaN.
    """
    s, p1, p2 = scenario.s, scenario.p1, scenario.p2
    bob_val, q1b = _grid_max_stage(p1, p2, s)
    exact_boundary = p2 * (1.0 - s * s)
    # Rounding can lift the grid's best point next to q1b = 1 an ulp above the
    # boundary value; a tie within a relative 1e-15 (a few ulps) is the boundary.
    if exact_boundary >= bob_val - 1e-15 * bob_val:
        bob_val, q1b = exact_boundary, 1.0
    if q1b == 1.0:
        return bob_val, 1.0, math.nan
    charlie_val, q1c = _conditioned_stage(p1 * (1.0 - q1b), p2 * (1.0 - s * s / q1b), s)
    return bob_val * charlie_val, q1b, q1c


def _cloning_candidates(g1: np.ndarray, s: float) -> tuple[np.ndarray, np.ndarray]:
    """Both branches of gamma2 solving the cloning overlap constraint.

    Writes the constraint as A*cos(th2) + B*sin(th2) = s with A = s^2*sqrt(g1)
    and B = sqrt(1-g1); samples with no real solution yield NaN and are
    skipped by the caller.
    """
    a = s * s * np.sqrt(g1)
    b = np.sqrt(np.clip(1.0 - g1, 0.0, 1.0))
    rad = np.hypot(a, b)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(rad > 0.0, s / np.where(rad > 0.0, rad, 1.0), np.inf)
        delta = np.arccos(np.clip(ratio, -1.0, 1.0))
        psi = np.arctan2(b, a)
        out = []
        for sign in (1.0, -1.0):
            th2 = psi + sign * delta
            valid = (ratio <= 1.0) & (th2 >= -1e-12) & (th2 <= 0.5 * math.pi + 1e-12)
            g2 = np.where(valid, np.cos(np.clip(th2, 0.0, 0.5 * math.pi)) ** 2, np.nan)
            out.append(g2)
    return out[0], out[1]


def _cloning_objective_values(
    g1: np.ndarray, s: float, p1: float, p2: float
) -> tuple[np.ndarray, np.ndarray]:
    """p1*gamma1 + p2*gamma2 on the better constraint branch, and that gamma2;
    -inf (and gamma2 NaN) where neither branch is valid."""
    g2a, g2b = _cloning_candidates(g1, s)
    va = np.where(np.isnan(g2a), -np.inf, p1 * g1 + p2 * g2a)
    vb = np.where(np.isnan(g2b), -np.inf, p1 * g1 + p2 * g2b)
    pick_a = va >= vb
    return np.where(pick_a, va, vb), np.where(pick_a, g2a, g2b)


def _cloning_objective(g1: float, s: float, p1: float, p2: float) -> tuple[float, float]:
    """Scalar twin of ``_cloning_objective_values`` for g1 >= 0, equal to it
    bit for bit.

    math.sqrt and math.cos round as numpy's do; hypot, arccos and arctan2 are
    numpy's ufuncs, because the math versions round differently. Of the array
    form's clips only the one on th2 can act here: 1 - g1 <= 1, the ratio is
    >= 0, and above 1 neither branch is valid.
    """
    a = s * s * math.sqrt(g1)
    b = math.sqrt(1.0 - g1) if g1 < 1.0 else 0.0
    rad = float(np.hypot(a, b))
    ratio = s / rad if rad > 0.0 else math.inf
    if ratio > 1.0:
        return -math.inf, math.nan
    delta = float(np.arccos(ratio))
    psi = float(np.arctan2(b, a))
    best_v, best_g2 = -math.inf, math.nan
    for th2 in (psi + delta, psi - delta):
        if -1e-12 <= th2 <= 0.5 * math.pi + 1e-12:
            c = math.cos(min(max(th2, 0.0), 0.5 * math.pi))
            g2 = c * c
            v = p1 * g1 + p2 * g2
            if v > best_v:
                best_v, best_g2 = v, g2
    return best_v, best_g2


def _cloning_residual(g1: float, g2: float, s: float) -> float:
    return abs(s - math.sqrt(g1 * g2) * s * s - math.sqrt((1.0 - g1) * (1.0 - g2)))


def grid_maximize_cloning(scenario: Scenario) -> tuple[float, float, float]:
    """Brute-force maximum of p1*gamma1 + p2*gamma2 on the cloning constraint
    manifold, parametrized by gamma1 with both constraint branches."""
    s, p1, p2 = scenario.s, scenario.p1, scenario.p2
    if s in (0.0, 1.0):
        return 1.0, 1.0, 1.0

    value, g1 = _max_1d(
        lambda g: _cloning_objective(g, s, p1, p2)[0],
        0.0,
        1.0,
        lambda g: _cloning_objective_values(g, s, p1, p2)[0],
    )
    g2 = _cloning_objective(g1, s, p1, p2)[1]
    if not math.isfinite(value):
        raise NumericError(f"cloning constraint unsolvable everywhere for s={s}")
    if _cloning_residual(g1, g2, s) > 1e-10:
        raise NumericError(f"cloning oracle argmax violates the constraint at gamma1={g1}")
    return value, g1, g2


@dataclass(frozen=True)
class CertificationRow:
    """Worst closed-form-vs-oracle gap for one quantity over the grid."""

    quantity: str
    worst_gap: float
    worst_scenario: tuple[float, float]
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.worst_gap <= self.tolerance


def _cert_stage(sc: Scenario, closed_form: Callable, oracle: Callable) -> float:
    """Worst gap of a single-stage optimum at two overlaps t in [s, 1]."""
    return max(
        abs(closed_form(sc, t).value - oracle(sc, t)[0])
        for t in (math.sqrt(sc.s), 0.5 * (1.0 + sc.s))
    )


def _cert_gap(sc: Scenario, closed_form: Callable, oracle: Callable) -> float:
    """Gap between a closed form's value and its oracle's maximum."""
    return abs(closed_form(sc).value - oracle(sc)[0])


def _cloned_stage_oracle(sc: Scenario) -> tuple[float, float]:
    """The cloning oracle's success p_cl and one copy's stage maximum at the priors
    it conditions; the oracle twin of ``protocols._cloned_stage_values``."""
    p_cl, g1, g2 = grid_maximize_cloning(sc)
    return p_cl, _conditioned_stage(sc.p1 * g1, sc.p2 * g2, sc.s)[0]


def _cert_protocol3(sc: Scenario) -> float:
    p_cl, disc = _cloned_stage_oracle(sc)
    return abs(protocol3_optimal(sc).value - p_cl * disc * disc)


def _cert_at_least_one_p3(sc: Scenario) -> float:
    p_cl, disc = _cloned_stage_oracle(sc)
    miss = 1.0 - disc
    return abs(at_least_one_protocol3(sc).value - p_cl * (1.0 - miss * miss))


# The lambdas look each oracle up when called, so a rebound module name (such
# as the benchmark's tracer installs) is seen. Protocol 1 is Bob's stage at
# t = 1, where his overlap s/t is s itself.
_CERTIFIERS: dict[str, Callable[[Scenario], float]] = {
    "bob": lambda sc: _cert_stage(sc, bob_optimal, grid_maximize_bob),
    "charlie": lambda sc: _cert_stage(sc, charlie_optimal, grid_maximize_charlie),
    "joint": lambda sc: _cert_gap(sc, joint_optimal, grid_maximize_joint),
    "protocol1": lambda sc: _cert_gap(
        sc, protocol1_optimal, lambda sc: grid_maximize_bob(sc, 1.0)
    ),
    "protocol2": lambda sc: _cert_gap(sc, protocol2_optimal, grid_maximize_protocol2),
    "protocol3": _cert_protocol3,
    "at_least_one_p3": _cert_at_least_one_p3,
    "at_least_one_ssd": lambda sc: _cert_gap(sc, at_least_one_ssd, grid_maximize_union_ssd),
}


def certify(
    quantities: Sequence[str] | None = None,
    s_values: Sequence[float] = CERT_S_VALUES,
    p1_values: Sequence[float] = CERT_P1_VALUES,
    tolerance: float = 1e-6,
) -> list[CertificationRow]:
    """Compare every closed form against its oracle over the s x p1 grid; a
    row passes when its worst gap is at most ``tolerance``."""
    if not tolerance > 0.0:  # negated, so that NaN fails it
        raise DomainError(f"tolerance={tolerance} must be positive")
    names = list(quantities) if quantities else list(_CERTIFIERS)
    unknown = [q for q in names if q not in _CERTIFIERS]
    if unknown:
        raise DomainError(f"unknown certification quantities {unknown}; valid: {sorted(_CERTIFIERS)}")
    rows = []
    for name in names:
        fn = _CERTIFIERS[name]
        worst, worst_at = -1.0, (math.nan, math.nan)
        for s in s_values:
            for p1 in p1_values:
                gap = fn(Scenario(s, p1))
                if gap > worst:
                    worst, worst_at = gap, (s, p1)
        rows.append(CertificationRow(name, worst, worst_at, tolerance))
    return rows
