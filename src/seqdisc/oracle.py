"""Brute-force grid maximizers certifying every closed-form optimum.

Each oracle evaluates the defining objective on a dense grid of the feasible
set (boundaries always included, since the optima frequently sit at q = 1)
and refines around the best point.  They share nothing with the piecewise
closed forms beyond the objective definitions themselves.

The grids are fixed: 1-D scans take ``_SCAN_POINTS`` points, refined on floats
by golden-section search, and every one-stage maximum (a cloned copy's too)
is ``_grid_max_stage``'s; the (t, q1b, q1c) scans take ``_JOINT_POINTS`` per
axis, refined by ``_REFINEMENT_PASSES`` scans of ``_REFINE_POINTS`` per axis.
Each t-slice's exact maximum over (q1b, q1c) takes each Bob row at the two
q1c grid points that bracket Charlie's stationary point. The first scan
takes the slices in chunks of ``_REFINE_POINTS`` and skips a chunk that
cannot hold the maximum: Bob's factors rise with t and Charlie's fall (or
rise against Bob's nonpositive ones), so a row with Bob at a chunk's last t
and Charlie at its first bounds every slice of the chunk. A chunk is skipped
only when its bound plus ``_BOUND_SLACK`` is below the best value found, and
the chunks evaluated are reduced in t order, so every result is the one a
scan of all slices gives, down to the first highest slice.
``certify`` compares each closed form with its oracle and flags a gap above
its ``tolerance``. It runs scenario by scenario, and each certifier it needs
runs once per scenario for all the quantities it covers: the two cloning
rows share one solve of the optimal cloner and one cloning oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import DomainError, NumericError, Scenario, check_overlap_t, golden_max
from .protocols import _cloned_optimum, at_least_one_ssd, protocol1_optimal, protocol2_optimal
from .ssd import bob_optimal, charlie_optimal, joint_optimal

#: Grid points of each 1-D scan, and per axis of each (t, q1b, q1c) scan and
#: of each of its refinements.
_SCAN_POINTS = 2001
_JOINT_POINTS = 301
_REFINE_POINTS = 33
#: Refinement rounds after every grid scan; each narrows the search window.
_REFINEMENT_PASSES = 2
#: A (t, q1b, q1c) chunk is skipped only when its bound plus this slack is
#: below the best value found: values are at most 1 and round by a few ulps.
_BOUND_SLACK = 1e-12

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
    """Bob and Charlie factors whose rank-2 product is ``_joint_term``. Bob's
    factors are nonnegative, so at fixed t each of his rows is concave in q1c."""
    return (p1 * (1.0 - q1b), p2 * (1.0 - q2b)), (1.0 - q1c, 1.0 - q2c)


def _union_term(q1b, q2b, q1c, q2c, p1, p2):
    return p1 * (1.0 - q1b * q1c) + p2 * (1.0 - q2b * q2c)


def _union_factors(q1b, q2b, q1c, q2c, p1, p2):
    """Factors of ``_union_term`` less its constant p1 + p2, which moves no
    argmax. Bob's factors are nonpositive, so at fixed t each of his rows is
    concave in q1c."""
    return (-p1 * q1b, -p2 * q2b), (q1c, q2c)


def _to_unit(lo, q):
    """The grid coordinate in [0, 1] of q in [lo, 1]: lo = r^2 for q1b, t^2 for
    q1c, and q = lo + x*(1 - lo)."""
    return (q - lo) / (1.0 - lo)


def _max_3d(
    scenario: Scenario, term: Callable, factors: Callable
) -> tuple[float, float, float, float]:
    """Maximize a two-stage objective over (t, q1b, q1c) with local refinement.

    q1b ranges over [(s/t)^2, 1] and q1c over [t^2, 1]; both are parametrized
    by normalized coordinates in [0, 1] so the search box is rectangular.

    At fixed t the objective is a1*b1 + a2*b2, Bob's ``factors`` a = (a1, a2)
    against Charlie's b = (b1, b2). Along each Bob row it is a concave
    function of q1c (a1*(1 - q1c) + a2*(1 - t^2/q1c) with a >= 0, or
    a1*q1c + a2*t^2/q1c with a <= 0), whose continuous maximum is at
    q1c* = t*sqrt(a2/a1). q1c is linear in the grid coordinate, so the row's
    grid maximum is one of the two grid points that bracket q1c*; the later
    one wins only when strictly higher, which keeps the row's first maximum.
    A q1c* off the grid (or NaN, at t = 1 or a1 = 0) is clamped to an end
    bracket. Each slice's best row is re-evaluated with ``term`` itself.

    The t-slices are taken ``_REFINE_POINTS`` at a time, and a chunk is
    skipped when a bound shows it cannot hold the maximum. At fixed grid
    coordinates (u, v), Bob's q1b and q2b fall as t rises (r = s/t falls) and
    Charlie's q1c and q2c rise, so Bob's factors rise with t and Charlie's
    fall (joint: 1 - q1c, 1 - q2c) or rise against a nonpositive a (union).
    A row with Bob at a chunk's last t and Charlie at its first is therefore
    at least every slice of the chunk at each (u, v); it is still concave in
    q1c about t_C*sqrt(a2/a1), so the same bracket gives its maximum. All
    chunks' bound rows take one kernel pass; the chunks are then evaluated
    in order of falling bound until a bound plus ``_BOUND_SLACK`` falls
    below the best value found. The evaluated chunks are reduced in t order,
    each replacing the best only when strictly higher, so the first highest
    slice wins, as in a scan of every slice.
    """
    s, p1, p2 = scenario.s, scenario.p1, scenario.p2
    t_lo_global = max(s, 1e-9)

    def evaluate(ts: np.ndarray, us: np.ndarray, vs: np.ndarray):
        n_v = len(vs)
        scale = (n_v - 1) / (vs[-1] - vs[0])
        starts = np.arange(0, len(ts), _REFINE_POINTS)
        stops = np.minimum(starts + _REFINE_POINTS, len(ts))
        bounds = np.full(len(starts), np.inf)
        # The chunks' bound rows (None) queue the chunks, highest bound first.
        # Every pass runs in this one loop: the arrays of a pass replace the
        # last pass's as they are made, so the heap is not given back and
        # faulted in again between passes.
        queue = [None] if len(starts) > 1 else [0]
        found = {}
        best_value = -1.0
        for k in queue:
            if k is None:
                t_b, t_c = ts[stops - 1, None], ts[starts, None]
            elif bounds[k] + _BOUND_SLACK < best_value:
                break
            else:
                t_b = t_c = ts[starts[k] : stops[k], None]
            rows = np.arange(len(t_b))
            r2 = (s / t_b) ** 2
            t2 = t_c * t_c
            span_c = 1.0 - t2
            q1b = us * (1.0 - r2)
            q1b += r2
            q1c = vs * span_c
            q1c += t2
            if r2.all():  # then q1b >= r2 > 0
                q2b = r2 / q1b
            else:
                q2b = np.divide(r2, q1b, out=np.ones(q1b.shape), where=q1b > 0.0)
            q2c = t2 / q1c
            (a1, a2), (b1, b2) = factors(q1b, q2b, q1c, q2c, p1, p2)
            # the grid coordinate of q1c* = t*sqrt(a2/a1), clamped to a lower
            # bracket point (the cast floors it) and made a flat index
            with np.errstate(divide="ignore", invalid="ignore"):
                j = np.divide(a2, a1)
                np.sqrt(j, out=j)
                j *= t_c
                j -= t2
                j /= span_c
            j -= vs[0]
            j *= scale
            np.fmax(j, 0.0, out=j)
            np.fmin(j, n_v - 2, out=j)
            at = j.astype(np.intp)
            at += n_v * rows[:, None]
            above = at + 1
            lower, upper = b1.take(at), b1.take(above)
            lower *= a1
            upper *= a1
            lower += a2 * b2.take(at)
            upper += a2 * b2.take(above)
            at += upper > lower
            ib = np.argmax(np.maximum(lower, upper, out=lower), axis=1)
            ic = at[rows, ib] - n_v * rows
            vals = term(q1b[rows, ib], q2b[rows, ib], q1c[rows, ic], q2c[rows, ic], p1, p2)
            if k is None:
                bounds = vals
                queue += np.argsort(-vals, kind="stable").tolist()
                continue
            i = int(np.argmax(vals))
            found[k] = (float(vals[i]), float(t_b[i, 0]), float(q1b[i, ib[i]]), float(q1c[i, ic[i]]))
            best_value = max(best_value, found[k][0])
        best = (-1.0, 0.0, 0.0, 0.0)
        for k in sorted(found):  # in t order, so the first highest slice wins
            if found[k][0] > best[0]:
                best = found[k]
        return best

    def window(x0: float, step: float, lo: float = 0.0) -> np.ndarray:
        """``_REFINE_POINTS`` points within 1.5 steps of x0, cut to [lo, 1]."""
        return np.linspace(max(lo, x0 - 1.5 * step), min(1.0, x0 + 1.5 * step), _REFINE_POINTS)

    unit = np.linspace(0.0, 1.0, _JOINT_POINTS)
    best = evaluate(np.linspace(t_lo_global, 1.0, _JOINT_POINTS), unit, unit)

    t_step, u_step = (1.0 - t_lo_global) / (_JOINT_POINTS - 1), 1.0 / (_JOINT_POINTS - 1)
    for _ in range(_REFINEMENT_PASSES):
        t0 = best[1]
        lob = (s / t0) ** 2 if t0 > 0 else 0.0
        u0 = _to_unit(lob, best[2]) if lob < 1.0 else 0.0
        v0 = _to_unit(t0 * t0, best[3]) if t0 < 1.0 else 0.0
        cand = evaluate(window(t0, t_step, t_lo_global), window(u0, u_step), window(v0, u_step))
        if cand[0] > best[0]:
            best = cand
        t_step, u_step = t_step * (3.0 / _REFINE_POINTS), u_step * (3.0 / _REFINE_POINTS)
    return best


def grid_maximize_joint(scenario: Scenario) -> tuple[float, float, float, float]:
    """Brute-force maximum of the joint success over (t, q1b, q1c) on a grid
    of 301 points per axis before refinement; each t-slice's exact grid
    maximum takes all 301 Bob rows, each at the two q1c grid points that
    bracket Charlie's stationary point, not all 301^2 points."""
    return _max_3d(scenario, _joint_term, _joint_factors)


def grid_maximize_union_ssd(scenario: Scenario) -> tuple[float, float, float, float]:
    """Brute-force maximum of P(at least one succeeds) over (t, q1b, q1c)."""
    return _max_3d(scenario, _union_term, _union_factors)


def grid_maximize_protocol2(scenario: Scenario) -> tuple[float, float, float]:
    """Brute-force value of protocol (2): Bob's stage maximized first, then
    Charlie's stage at the induced conditional priors.

    Bob's objective is concave in q1b with slope p2 s^2 - p1 at q1b = 1, so he
    takes that boundary exactly when p2 s^2 > p1; a zero slope is a tie and
    goes to the interior, as in the closed form. At the boundary his success
    implies state 2 and Charlie needs no measurement; the Charlie coordinate
    is then reported as NaN, as it is where Bob never succeeds (s = 1,
    p1 = 1/2).
    """
    s, p1, p2 = scenario.s, scenario.p1, scenario.p2
    if p2 * s * s > p1:
        return p2 * (1.0 - s * s), 1.0, math.nan
    bob_val, q1b = _grid_max_stage(p1, p2, s)
    if bob_val == 0.0:
        return 0.0, q1b, math.nan
    q2b = s * s / q1b if q1b > 0.0 else 0.0  # q1b = 0 only at s = 0, the r = 0 limit
    charlie_val, q1c = _conditioned_stage(p1 * (1.0 - q1b), p2 * (1.0 - q2b), s)
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


def _cloning_objective(g1: float, s: float, p1: float, p2: float) -> tuple[float, float, float]:
    """Scalar twin of ``_cloning_objective_values`` for g1 >= 0, equal to it
    bit for bit, and the branch's angle th2 (NaN with gamma2): sin^2(th2) is
    1 - gamma2 where cos^2(th2) rounds to 1. Callers that need it take the sine.

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
        return -math.inf, math.nan, math.nan
    delta = float(np.arccos(ratio))
    psi = float(np.arctan2(b, a))
    best_v, best_g2, best_th2 = -math.inf, math.nan, math.nan
    for th2 in (psi + delta, psi - delta):
        if -1e-12 <= th2 <= 0.5 * math.pi + 1e-12:
            th2 = min(max(th2, 0.0), 0.5 * math.pi)
            c = math.cos(th2)
            g2 = c * c
            v = p1 * g1 + p2 * g2
            if v > best_v:
                best_v, best_g2, best_th2 = v, g2, th2
    return best_v, best_g2, best_th2


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
    _, g2, th2 = _cloning_objective(g1, s, p1, p2)
    if not math.isfinite(value):
        raise NumericError(f"cloning constraint unsolvable everywhere for s={s}")
    residual = s - math.sqrt(g1 * g2) * s * s - math.sqrt((1.0 - g1) * math.sin(th2) ** 2)
    if abs(residual) > 1e-10:
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


def _cert_cloning(sc: Scenario) -> dict[str, float]:
    """Gaps of both cloning optima, from one solve of the optimal cloner and
    one cloning oracle: each combines the oracle's success p_cl with one
    copy's stage maximum disc at the priors it conditions."""
    both, at_least_one = _cloned_optimum(sc)
    p_cl, g1, g2 = grid_maximize_cloning(sc)
    disc = _conditioned_stage(sc.p1 * g1, sc.p2 * g2, sc.s)[0]
    return {
        "protocol3": abs(both.value - p_cl * disc * disc),
        "at_least_one_p3": abs(at_least_one.value - p_cl * (1.0 - (1.0 - disc) * (1.0 - disc))),
    }


# Each certifier maps a scenario to the gaps of every quantity it covers, and
# is listed under each of their names. The lambdas look each oracle up when
# called, so a rebound module name (such as the benchmark's tracer installs)
# is seen. Protocol 1 is Bob's stage at t = 1, where his overlap s/t is s
# itself. The two cloning combinations are written here apart from
# protocols', so that a slip in either shows as a gap.
_CERTIFIERS: dict[str, Callable[[Scenario], dict[str, float]]] = {
    "bob": lambda sc: {"bob": _cert_stage(sc, bob_optimal, grid_maximize_bob)},
    "charlie": lambda sc: {"charlie": _cert_stage(sc, charlie_optimal, grid_maximize_charlie)},
    "joint": lambda sc: {"joint": _cert_gap(sc, joint_optimal, grid_maximize_joint)},
    "protocol1": lambda sc: {
        "protocol1": _cert_gap(sc, protocol1_optimal, lambda sc: grid_maximize_bob(sc, 1.0))
    },
    "protocol2": lambda sc: {"protocol2": _cert_gap(sc, protocol2_optimal, grid_maximize_protocol2)},
    "protocol3": _cert_cloning,
    "at_least_one_p3": _cert_cloning,
    "at_least_one_ssd": lambda sc: {
        "at_least_one_ssd": _cert_gap(sc, at_least_one_ssd, grid_maximize_union_ssd)
    },
}


def certify(
    quantities: Sequence[str] | None = None,
    s_values: Sequence[float] = CERT_S_VALUES,
    p1_values: Sequence[float] = CERT_P1_VALUES,
    tolerance: float = 1e-6,
) -> list[CertificationRow]:
    """Compare each closed form in ``quantities`` (None: all) against its oracle
    over the s x p1 grid; a row passes when its worst gap is at most
    ``tolerance``.  An empty selection or grid, or an infinite tolerance,
    would pass anything, and is rejected."""
    if not 0.0 < tolerance < math.inf:  # negated, so that NaN fails it
        raise DomainError(f"tolerance={tolerance} must be positive and finite")
    if len(s_values) == 0 or len(p1_values) == 0:
        raise DomainError("certify needs at least one s value and one p1 value")
    names = list(_CERTIFIERS) if quantities is None else list(quantities)
    if not names:
        raise DomainError("certify needs at least one quantity")
    unknown = [q for q in names if q not in _CERTIFIERS]
    if unknown:
        raise DomainError(f"unknown certification quantities {unknown}; valid: {sorted(_CERTIFIERS)}")
    certifiers = dict.fromkeys(_CERTIFIERS[name] for name in names)  # each once, in order
    worst = dict.fromkeys(names, (-1.0, (math.nan, math.nan)))
    for s in s_values:
        for p1 in p1_values:
            sc = Scenario(s, p1)
            for fn in certifiers:
                for name, gap in fn(sc).items():
                    if name in worst and gap > worst[name][0]:
                        worst[name] = (gap, (s, p1))
    return [CertificationRow(name, *worst[name], tolerance) for name in names]
