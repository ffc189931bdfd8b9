"""Closed-form optima for sequential unambiguous state discrimination.

Bob measures first, attenuating the state overlap from s to t (s <= t <= 1);
unitarity forces his failure parameters to satisfy q1b * q2b = (s/t)**2.  The
qubit then travels to Charlie, who discriminates the forwarded pair of overlap
t, with q1c * q2c = t**2.  Average success probabilities:

    P_b    = p1*(1 - q1b) + p2*(1 - q2b)
    P_ssd  = p1*(1 - q1b)*(1 - q1c) + p2*(1 - q2b)*(1 - q2c)

Each maximization is piecewise: an interior stationary point where feasible
(case I), otherwise the boundary q1 = 1 where the observer ignores the less
likely state (case II).  The joint optimum sits at t = sqrt(s) and
q1b = q1c = q*, with q* a root of

    p1*q**4 - p1*q**3 + p2*s*q - p2*s**2 = 0.

Case I survives at equal priors only for s < 3 - 2*sqrt(2); beyond that the
optimal strategy breaks the symmetry and ignores one state even at p1 = 1/2.
The prior separating the joint cases, P_C, has a closed form.  The quartic
gives the prior ratio of each root, p1/p2 = k(q) = s(q - s)/(q^3 (1 - q));
equating the two branches at that prior leaves the quadratic
(2 - s)q^2 - (1 + s)q + s = 0 for the root q_C at the crossing.

The point API (``bob_optimal``, ``joint_optimal``, ...) works on floats; each
``*_values`` kernel gives the same value in every lane of arrays.  The
stage's two candidate values, its stationary point and the exact test of
whether that lies below 1 (of the closed forms, only the stage optimum
reads them; protocol (2)'s oracle reads the test too), the stage optimum
(which also gives protocol (1), both of protocol (2)'s stages and each
cloned copy), the case-I tie rule, the joint two-case choice and P_C's
closed form are each one body that both call, on floats with ``math.sqrt`` (and ``_pick``), on arrays with
``np.sqrt`` (and ``np.where``).  So are q*'s companion eigenvalues
(``_eigen_starts``) and the steps from each start (``_polished_root``: the
Newton polish, root test, clip and objective), where each start stops on
its own.  The float and lane paths differ only in control flow:
``solve_q_star`` loops over one scenario's starts and keeps the first
maximum, ``_q_star_values`` polishes every lane's starts as one array and
takes each row's argmax, and the joint kernel solves for q* only on the
lanes where case I can win.  The cloner's Newton steps are one body,
``protocols._clone_solve``.  Each check is one predicate for both too
(``core._require``): q*'s no-root error, the overlap t
(``core.check_overlap_t``) and the [0, 1] range and clamp of a value
(``core._clamp_unit``, in ``PiecewiseResult`` and, on lanes,
``_probabilities``), so a kernel fails its first bad lane with the float's
message.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

import numpy as np

from .core import (
    BOUNDARY_TOL,
    DomainError,
    NumericError,
    Scenario,
    StrategyParams,
    _Checked,
    _clamp_unit,
    _pick,
    _require,
    check_overlap_t,
)

#: Overlap above which case I vanishes even at equal priors.
SYMMETRY_BREAK_OVERLAP = 3.0 - 2.0 * math.sqrt(2.0)

#: Relative tie margin of ``_case_i_wins``.
_TIE_TOL = 1e-12
#: The float just below 1, for a stationary point below 1 that rounds to it.
_BELOW_ONE = 1.0 - 2.0**-53

# ``joint_optimal_values`` solves for q* only on the lanes where case I can
# win: p1 >= P_C*(1 - _PC_REL_MARGIN) - _PC_ABS_MARGIN.  That also keeps s
# below 3 - 2*sqrt(2), up to a sliver: above s = 0.2 the crossing prior is
# NaN and the comparison False, and from 3 - 2*sqrt(2) to 0.2 it lies above
# 1/2, so only lanes within about 6e-7 above 3 - 2*sqrt(2) with p1 near 1/2
# pass there, and the kernel solves those exactly.  On every other lane v2
# must beat case I's v1 by more than the relative tie tolerance _TIE_TOL*v2,
# or the tie rule would take case I.  Over about 700,000 lanes hugging the
# P_C margins and 3 - 2*sqrt(2) (s from 1e-13 to 0.999, p1 from 1e-300 up)
# the gap v2 - v1 was at least 0.2 times p1's distance below P_C, and never
# below 2.0e-11, at (s, p1) = (8.0e-11, 5.4e-10).  As s nears 1,
# v2 = p2*(1-s)^2 falls far under 1e-12 but the rule is relative: on 200,000
# seeded lanes with 1 - s log-uniform from 1e-16 to 0.5 and p1 from 5e-324 to
# 1/2, case II led by at least 0.31*v2 for 1 - s >= 1e-15, and by 2.6e-3*v2
# one ulp below s = 1.  There, at p1 = 1/2, q* = sqrt(s) rounds to 1, where
# case I's point and so its value are case II's: the tie takes case I, with
# case II's value.
#: Relative margin below P_C: a guard against the closed form's own rounding,
#: orders of magnitude above it, that leaves a gap of at least 2e-7*P_C.
_PC_REL_MARGIN = 1e-6
#: Absolute margin below P_C: where P_C is small the relative margin alone
#: leaves a gap under 1e-12; this one leaves at least 2e-11 by itself.
#: Below s of about 1.25e-11 the threshold is negative and every lane is kept.
_PC_ABS_MARGIN = 1e-10

_NEWTON_STEPS = 8
#: Overlap below which q*'s root search also polishes the starts
#: sqrt(p2*s/p1) and s.  eigvals gives 0 for the three small roots below s of
#: about 8e-48 (about eps^3), and Newton from 0 reaches only the root near s,
#: or none where p2*s*s underflows.
_TINY_OVERLAP = 1e-30
#: 2^600, by which p1 and p2 are scaled (exactly) in q*'s Newton steps and
#: root test.  Neither changes under a common scale of the coefficients, but
#: their terms then stay clear of underflow at tiny s and p1.
_QUARTIC_SCALE = 2.0**600
_EPS = float(np.finfo(float).eps)


class CaseLabel(str, Enum):
    CASE_I = "CaseI"
    CASE_II = "CaseII"
    CASE_III = "CaseIII"


class _PiecewiseFields(NamedTuple):
    value: float
    case_label: CaseLabel
    argmax: dict
    boundary_prior: float | None


class PiecewiseResult(_Checked, _PiecewiseFields):
    """Optimal value of a piecewise maximization plus its provenance.

    ``argmax`` maps parameter names (q1b, q2b, t, ...) to the optimizing
    values; ``boundary_prior`` is the critical p1 separating the analytic
    cases for the instance, when one is defined.
    """

    __slots__ = ()

    def __new__(cls, value, case_label, argmax, boundary_prior=None) -> PiecewiseResult:
        value = _clamp_unit(value, _probability_error)
        return tuple.__new__(cls, (value, case_label, argmax, boundary_prior))


def _probability_error(value) -> NumericError:
    return NumericError(f"probability {value} outside [0, 1]")


def _probabilities(values: np.ndarray) -> np.ndarray:
    """``PiecewiseResult``'s range check and clamp to [0, 1], in every lane."""
    return _clamp_unit(values, _probability_error, np.where)


def bob_success(scenario: Scenario, t: float, q1b: float) -> float:
    """Bob's average success probability for failure parameter q1b.

    q2b is fixed by the constraint q1b * q2b = (s/t)**2.
    """
    check_overlap_t(scenario.s, t)
    params = StrategyParams.from_q1(q1b, scenario.s / t)
    return scenario.p1 * (1.0 - params.q1) + scenario.p2 * (1.0 - params.q2)


def _case_i_wins(v_int, v_boundary):
    """The tie rule of every two-case choice: the interior value wins when it is
    larger, or when |v_int - v_boundary| <= 1e-12*max(v_int, v_boundary),
    written here for v_int <= v_boundary.  The margin is relative, so a
    boundary value far below 1e-12 (s near 1) still beats a smaller interior
    value.  Floats or arrays."""
    return (v_int > v_boundary) | (v_boundary - v_int <= _TIE_TOL * v_boundary)


def _stationary_q1(p1, p2, r, sqrt, pick):
    """A stage's interior stationary point sqrt(p2/p1)*r for p1 > 0, on floats
    (``math.sqrt``, ``_pick``) or on arrays (``np.sqrt``, ``np.where``).

    Where p2/p1 overflows (p1 below about 1e-308) it is r/sqrt(p1/p2), which
    stays finite: 0 at r = 0, and inside [r, 1] when r is below about
    sqrt(p1).  It is not clamped: above 1 it is infeasible.
    """
    ratio = p2 / p1
    return pick(ratio < math.inf, sqrt(ratio) * r, r / sqrt(p1 / p2))


def _interior(p1, r):
    """Whether a stage's stationary point sqrt(p2/p1)*r lies below 1 for
    p2 = 1 - p1, that is r^2*(1 - p1) < p1, or p1 above the critical prior
    r^2/(1 + r^2); exactly, on floats or arrays.

    The rounded stationary point, or p2*r^2 with p2 rounded, can fall on the
    wrong side within an ulp or two of the tie, where protocol (2) jumps.
    The rounded comparison of r^2 with p1*(1 + r^2) errs by at most a
    relative 4.5e-16 (and 1e-323 on underflow), so it decides every argument
    farther than 1e-15 from the tie; integers decide the rest, lane by lane
    (``_exactly_interior``).
    """
    k = r * r
    bound = p1 * (1.0 + k)
    inside = k < bound
    near = abs(k - bound) <= 1e-15 * bound + 1e-300  # False where p1 is NaN
    if not isinstance(near, np.ndarray):
        return _exactly_interior(p1, r) if near else inside
    if near.any():
        p1, r = np.broadcast_to(p1, near.shape), np.broadcast_to(r, near.shape)
        for i in np.flatnonzero(near):
            inside.flat[i] = _exactly_interior(p1.flat[i], r.flat[i])
    return inside


def _exactly_interior(p1, r):
    """``_interior`` for one pair of floats, exactly: with p1 = a/b and r =
    c/d their exact ratios (b, d > 0), r^2*(1 - p1) < p1 is c^2*(b - a) <
    a*d^2, compared in integers."""
    (a, b), (c, d) = float(p1).as_integer_ratio(), float(r).as_integer_ratio()
    return c * c * (b - a) < a * d * d


def _stage_candidates(p1, p2, r, sqrt, pick):
    """A stage's two candidate values at flag overlap r, (interior, boundary):
    1 - 2*sqrt(p1*p2)*r at the stationary point and p2*(1 - r^2) at q1 = 1,
    on floats (``math.sqrt``, ``_pick``) or on arrays (``np.sqrt``,
    ``np.where``).  Defined for p1 = 0 too, where the interior value is 1.

    Neither cancels as r nears 1.  Where x = 2*sqrt(p1*p2)*r exceeds 1/2 the
    interior value is d^2 + 2*sqrt(p1*p2)*(1 - r), with
    d = sqrt(p2) - sqrt(p1) = (p2 - p1)/(sqrt(p2) + sqrt(p1)) (p1 + p2 = 1);
    below, 1 - x loses nothing and gives exactly 1 at r = 0.  The boundary
    value is p2*((1 - r)*(1 + r)), whose 1 - r is exact for r >= 1/2.
    """
    g = sqrt(p1 * p2)
    x = 2.0 * g * r
    d = (p2 - p1) / (sqrt(p2) + sqrt(p1))
    v_int = pick(x <= 0.5, 1.0 - x, d * d + 2.0 * g * (1.0 - r))
    return v_int, p2 * ((1.0 - r) * (1.0 + r))


def _stage(p1, p2, r, sqrt, pick):
    """(value, q1, case I) of ``_stage_optimum`` for p1 > 0, on floats
    (``math.sqrt``, ``_pick``) or on arrays (``np.sqrt``, ``np.where``).

    On arrays a lane with p1 = 0 gets the boundary.  The stationary point
    is inside where ``_interior`` says so, exactly; one that rounds to 1
    there is reported as the float below 1, so q1 < 1 exactly where the
    stage takes its stationary point.  The value is the interior one only
    where the point is inside and its value above the boundary's: the
    interior value is the objective's maximum over all q1 > 0, never below
    the boundary value but by rounding, so a tie that takes case I with the
    smaller float reports the boundary value (no stage reports less than
    that), and so does a stationary point at or up to 1e-12 above q1 = 1,
    where the value at q1 = 1 is the boundary's (0 at r = 1).
    """
    v_int, v_boundary = _stage_candidates(p1, p2, r, sqrt, pick)
    q_int = _stationary_q1(p1, p2, r, sqrt, pick)
    inside = _interior(p1, r)
    case_i = (q_int <= 1.0 + BOUNDARY_TOL) & _case_i_wins(v_int, v_boundary)
    value = pick(inside & (v_int > v_boundary), v_int, v_boundary)
    q1 = pick(q_int < 1.0, q_int, _BELOW_ONE)
    return value, pick(case_i & inside, q1, 1.0), case_i


def _stage_optimum(p1: float, p2: float, r: float) -> tuple[float, float, CaseLabel]:
    """Maximize p1*(1-q1) + p2*(1-r^2/q1) over q1 in [r^2, 1].

    Returns (value, q1, case).  The interior stationary point q1 = sqrt(p2/p1)*r
    is used when it is feasible and not beaten by the boundary q1 = 1; ties
    within a relative 1e-12 resolve to case I.  At p1 = 0 only the boundary
    is optimal.
    """
    if p1 > 0.0:
        value, q1, case_i = _stage(p1, p2, r, math.sqrt, _pick)
    else:  # the stationary point would divide by zero
        value, q1, case_i = _stage_candidates(p1, p2, r, math.sqrt, _pick)[1], 1.0, False
    return value, q1, CaseLabel.CASE_I if case_i else CaseLabel.CASE_II


def _stage_optimum_values(p1: np.ndarray, p2: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The value of ``_stage_optimum`` in every lane, by the same body."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return _stage(p1, p2, r, np.sqrt, np.where)[0]


def _stage_result(
    scenario: Scenario, r: float, names: tuple[str, str], **fixed: float
) -> PiecewiseResult:
    """One stage's optimum at flag overlap r, as a result.

    The argmax holds the ``fixed`` entries, then the optimal (q1, q2) under
    ``names``; the boundary is the case-separating prior r^2/(1+r^2).
    ``_stage_optimum`` puts q1 in [r, 1], so q2 = r^2/q1 needs no check; q1 is
    0 only at r = 0, where q2 is 0 too.
    """
    value, q1, label = _stage_optimum(scenario.p1, scenario.p2, r)
    argmax = {**fixed, names[0]: q1, names[1]: r * r / q1 if q1 > 0.0 else 0.0}
    return PiecewiseResult(value, label, argmax, r * r / (1.0 + r * r))


def bob_optimal(scenario: Scenario, t: float) -> PiecewiseResult:
    """Bob's optimal success probability at fixed overlap attenuation s -> t.

    Case I: 1 - 2*sqrt(p1*p2)*s/t at q1b = sqrt(p2/p1)*s/t, valid for
    p1 >= s^2/(s^2 + t^2).  Case II: p2*(1 - s^2/t^2) at q1b = 1 (Bob ignores
    state 1).
    """
    check_overlap_t(scenario.s, t)
    t = float(t)  # as Scenario holds its fields: a numpy t gives a float's result
    return _stage_result(scenario, scenario.s / t, ("q1b", "q2b"), t=t)


def bob_optimal_values(s: np.ndarray, p1: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``bob_optimal(Scenario(s, p1), t).value`` in every lane of valid scenarios."""
    check_overlap_t(s, t)
    return _probabilities(_stage_optimum_values(p1, 1.0 - p1, s / t))


def charlie_optimal(scenario: Scenario, t: float) -> PiecewiseResult:
    """Charlie's optimal success probability given Bob left overlap t.

    Case I: 1 - 2*sqrt(p1*p2)*t at q1c = sqrt(p2/p1)*t for p1 >= t^2/(1+t^2);
    case II: p2*(1 - t^2) at q1c = 1.
    """
    check_overlap_t(scenario.s, t)
    t = float(t)  # as in ``bob_optimal``
    return _stage_result(scenario, t, ("q1c", "q2c"), t=t)


def charlie_optimal_values(s: np.ndarray, p1: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``charlie_optimal(Scenario(s, p1), t).value`` in every lane of valid scenarios."""
    check_overlap_t(s, t)
    return _probabilities(_stage_optimum_values(p1, 1.0 - p1, t))


def joint_success(scenario: Scenario, t: float, q1b: float, q1c: float) -> float:
    """Probability that both Bob and Charlie identify the state."""
    check_overlap_t(scenario.s, t)
    bob = StrategyParams.from_q1(q1b, scenario.s / t)
    charlie = StrategyParams.from_q1(q1c, t)
    return scenario.p1 * (1.0 - bob.q1) * (1.0 - charlie.q1) + scenario.p2 * (
        1.0 - bob.q2
    ) * (1.0 - charlie.q2)


def _quartic(p1, p2, s, q):
    return ((p1 * q - p1) * q * q + p2 * s) * q - p2 * s * s


def _quartic_slope(p1, p2, s, q):
    return (4.0 * p1 * q - 3.0 * p1) * q * q + p2 * s


def _is_root(p1, p2, s, q, pick):
    """Whether q is a root of the quartic in [s, 1], up to a relative 1e-12.

    The quartic over q^2, p2*r*(1-r) - p1*q*(1-q) with r = s/q, must lie
    within rounding of its terms (a backward-error test).  Its larger term,
    at least sqrt(p1*p2*s), is a normal float for every scenario once p1 and
    p2 are scaled by ``_QUARTIC_SCALE``.  Were the terms to underflow, as the
    quartic's own do at tiny s, the residual would vanish with them and any q
    would pass.  Floats or arrays.
    """
    in_range = (s * (1.0 - BOUNDARY_TOL) <= q) & (q <= 1.0 + BOUNDARY_TOL)
    q = pick(in_range, q, 1.0)
    r = s / q
    a, b = p1 * q, p2 * s / q
    terms = a * (1.0 + q) + b * (1.0 + r)
    return in_range & (abs(b * (1.0 - r) - a * (1.0 - q)) <= 16.0 * _EPS * terms)


def _joint_case1_objective(p1, p2, s, q):
    a, b = 1.0 - q, 1.0 - s / q
    return p1 * (a * a) + p2 * (b * b)


def _joint_choice(p1, p2, s, q_star, pick):
    """(value, case I) of the joint optimum for 0 < s < 1 given q*: case I's
    objective at q* against case II's p2*(1-s)^2.  Floats or arrays."""
    v1 = _joint_case1_objective(p1, p2, s, q_star)
    v2 = p2 * ((1.0 - s) * (1.0 - s))
    case_i = _case_i_wins(v1, v2)
    return pick(case_i, v1, v2), case_i


def _eigen_starts(s, p1, p2):
    """The real parts of the companion matrix's eigenvalues, the quartic's
    four roots: shape (4,) for floats, (n, 4) for lanes, one LAPACK call per
    lane.  For p2*s/p1 finite."""
    companion = np.zeros(np.shape(s) + (4, 4))
    companion[..., 0, 0] = companion[..., 1, 0] = companion[..., 2, 1] = companion[..., 3, 2] = 1.0
    companion[..., 0, 2] = -(p2 * s / p1)
    companion[..., 0, 3] = p2 * s * s / p1
    return np.linalg.eigvals(companion).real


def _polished_root(p1, p2, s, q, pick):
    """(q, objective) from one start q of q*'s root search: Newton steps on the
    quartic with p1 and p2 scaled by ``_QUARTIC_SCALE``, then q clipped to
    [s, 1] and the joint objective there, or -inf where the polished q fails
    ``_is_root``.  On a float (``_pick``) or on an (n, k) array of starts with
    (n, 1) scenarios (``np.where``); a start stops on its own once its slope
    is 0 or its step is at most an ulp of q, and keeps its q while the others
    step on.
    """
    c1, c2 = p1 * _QUARTIC_SCALE, p2 * _QUARTIC_SCALE
    going = True
    for _ in range(_NEWTON_STEPS):
        slope = _quartic_slope(c1, c2, s, q)
        going = going & (slope != 0.0)
        step = pick(going, _quartic(c1, c2, s, q) / pick(going, slope, 1.0), 0.0)
        q = q - step
        going = going & (abs(step) > _EPS * abs(q))  # a NaN step stops
        if not (going if isinstance(going, bool) else going.any()):
            break
    is_root = _is_root(c1, c2, s, q, pick)
    q = pick(q > s, q, s)
    q = pick(q < 1.0, q, 1.0)
    return q, pick(is_root, _joint_case1_objective(p1, p2, s, q), -math.inf)


def solve_q_star(scenario: Scenario) -> float:
    """Root of p1*q^4 - p1*q^3 + p2*s*q - p2*s^2 = 0 on [s, 1] maximizing the
    symmetric joint objective p1*(1-q)^2 + p2*(1-s/q)^2.

    The quartic is the stationarity condition of the objective.  Its roots are
    the eigenvalues of the 4x4 companion matrix (``_eigen_starts``); the real
    part of each is polished by ``_polished_root``.  Below ``_TINY_OVERLAP``,
    where the eigenvalues of the three small roots come out as 0,
    sqrt(p2*s/p1) (a product of square roots, which cannot underflow) and s
    are polished too.  A polished value counts as a root when it passes
    ``_is_root`` (a backward-error test) and lies in [s, 1], up to a relative
    1e-12 that is clipped away.  Among the roots, the first with the largest
    objective value is returned.  Since the quartic is negative at s and
    positive at 1, a root always exists; NumericError reports a failure to
    find it.  Where p2*s/p1 overflows (p1 below about 5e-309*s) the root's
    offset from s is about p1*s relative to it, far below an ulp, and s
    itself is returned.
    """
    s, p1, p2 = scenario.s, scenario.p1, scenario.p2
    if not 0.0 < s < 1.0:
        raise DomainError(f"q* is defined for 0 < s < 1, got s={s}")
    if p2 * s / p1 == math.inf:
        return s
    starts = _eigen_starts(s, p1, p2).tolist()
    if s < _TINY_OVERLAP:
        starts += [math.sqrt(p2) * math.sqrt(s) / math.sqrt(p1), s]
    q_star, best = None, -math.inf
    for start in starts:
        q, objective = _polished_root(p1, p2, s, start, _pick)
        if objective > best:
            q_star, best = q, objective
    _require(best > -math.inf, _no_root_error, s, p1, p2)
    return q_star


def _no_root_error(s, p1, p2) -> NumericError:
    coefficients = f"[{p1}, {-p1}, 0, {p2 * s}, {-p2 * s * s}]"
    return NumericError(f"no real root in [s, 1] for quartic coefficients {coefficients}")


def _q_star_values(s: np.ndarray, p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """``solve_q_star`` in every lane, for 0 < s < 1: each row's first maximum
    over an (n, k) array of starts.  Where p2*s/p1 overflows, q* = s as in the
    scalar path: those lanes are masked to the prior 1/2, which keeps every
    start finite, solved with the others, and given s at the end.  Only if
    some lane lies below ``_TINY_OVERLAP`` do the two extra starts get
    columns; elsewhere those hold copies of the first eigenvalue, whose root
    ties it and so never wins.  The first lane without a root fails with the
    scalar's error for its (s, p1, p2)."""
    with np.errstate(over="ignore"):
        overflow = np.isinf(p2 * s / p1)
    p1, p2 = np.where(overflow, 0.5, p1), np.where(overflow, 0.5, p2)
    q = _eigen_starts(s, p1, p2)
    tiny = s < _TINY_OVERLAP
    if tiny.any():
        near_sqrt = np.sqrt(p2) * np.sqrt(s) / np.sqrt(p1)
        q = np.column_stack([q, np.where(tiny, near_sqrt, q[:, 0]), np.where(tiny, s, q[:, 0])])
    with np.errstate(all="ignore"):
        q, objective = _polished_root(p1[:, None], p2[:, None], s[:, None], q, np.where)
    best = objective.max(axis=1)
    _require(best > -math.inf, _no_root_error, s, p1, p2)
    q = np.take_along_axis(q, np.argmax(objective, axis=1)[:, None], axis=1)[:, 0]
    return np.where(overflow, s, q)


class CriticalPrior(NamedTuple):
    """Critical prior for the joint optimum; below it case I never wins."""

    value: float
    case_i_applies: bool


def _crossing_prior(s, sqrt):
    """The crossing prior k/(1 + k) of ``critical_prior_PC``, on floats for
    0 < s < 0.2 (``math.sqrt``) or on arrays (``np.sqrt``, NaN where s > 0.2)."""
    q = ((1.0 + s) + sqrt((1.0 - s) * (1.0 - 5.0 * s))) / (2.0 * (2.0 - s))
    k = s * (q - s) / (q**3 * (1.0 - q))
    return k / (1.0 + k)


def critical_prior_PC(s: float) -> CriticalPrior:
    """Prior at which the two branches of the joint optimum exchange.

    At the crossing p*(1-q*)^2 + (1-p)*(1-s/q*)^2 = (1-p)*(1-s)^2 with q* the
    quartic's root, which is

        q_C = [(1 + s) + sqrt((1 - s)(1 - 5s))] / (2(2 - s)),

    and P_C = k/(1 + k) with k = s(q_C - s)/(q_C^3 (1 - q_C)), the prior ratio
    at which q_C solves the quartic.  P_C grows from about 8*s at small s to
    1/2 at s = 3 - 2*sqrt(2), where q_C = sqrt(s).  Beyond that case I never
    applies on (0, 1/2]; the sentinel value 0.5 is returned with the flag
    cleared.  ``joint_optimal_values`` evaluates the same formula on arrays to
    find the lanes where case I can win.
    """
    if not 0.0 < s < 1.0:
        raise DomainError(f"critical prior is defined for 0 < s < 1, got s={s}")
    s = float(s)  # as in ``bob_optimal``
    if s < 0.2:  # the crossing root is real
        p_c = _crossing_prior(s, math.sqrt)
        # a few floats just above 3 - 2*sqrt(2) still lie below the real
        # threshold; the crossing prior itself says which side s is on
        if p_c <= 0.5:
            return CriticalPrior(p_c, True)
    return CriticalPrior(0.5, False)


def joint_optimal(scenario: Scenario, *, compute_boundary: bool = True) -> PiecewiseResult:
    """Optimal probability that both observers identify the state.

    Case I (p1 >= P_C): p1*(1-q*)^2 + p2*(1-s/q*)^2 at t = sqrt(s) and
    q1b = q1c = q*.  Case II: p2*(1-s)^2 at q1b = q1c = 1, where both
    observers ignore state 1.  For s >= 3 - 2*sqrt(2) case II always wins.
    """
    s, p1, p2 = scenario.s, scenario.p1, scenario.p2
    if s == 0.0:
        return PiecewiseResult(
            1.0,
            CaseLabel.CASE_I,
            {"t": 0.0, "q_star": 0.0, "q1b": 0.0, "q2b": 0.0, "q1c": 0.0, "q2c": 0.0},
            0.0,
        )
    if s == 1.0:
        return PiecewiseResult(
            0.0,
            CaseLabel.CASE_II,
            {"t": 1.0, "q1b": 1.0, "q2b": 1.0, "q1c": 1.0, "q2c": 1.0},
            0.5,
        )
    q_star = solve_q_star(scenario)
    value, case_i = _joint_choice(p1, p2, s, q_star, _pick)
    boundary = critical_prior_PC(s).value if compute_boundary else None
    t_opt = math.sqrt(s)
    q1, q2 = (q_star, s / q_star) if case_i else (1.0, s)
    argmax = {"t": t_opt, "q_star": q_star, "q1b": q1, "q2b": q2, "q1c": q1, "q2c": q2}
    label = CaseLabel.CASE_I if case_i else CaseLabel.CASE_II
    return PiecewiseResult(value, label, argmax, boundary)


def _case_i_may_win(s: np.ndarray, p1: np.ndarray) -> np.ndarray:
    """The lanes, for 0 < s <= 1, where case I can win the joint choice: p1 at
    or above P_C, up to its margins (which also keep s below 3 - 2*sqrt(2))."""
    with np.errstate(invalid="ignore"):  # sqrt of a negative above s = 0.2, 0/0 at 1
        p_c = _crossing_prior(s, np.sqrt)
    return p1 >= p_c * (1.0 - _PC_REL_MARGIN) - _PC_ABS_MARGIN


def joint_optimal_values(s: np.ndarray, p1: np.ndarray) -> np.ndarray:
    """``joint_optimal(Scenario(s, p1)).value`` in every lane of valid scenarios.

    Every lane starts at case II's p2*(1-s)^2 (0 at s = 1), or 1 at s = 0,
    the scalar path's endpoint values.  Only the inner lanes where case I
    can win (``_case_i_may_win``) take q* from ``_q_star_values`` and then
    the scalar path's own two-case choice.  On the
    others that choice takes case II, so the values agree bit for bit.
    """
    p2 = 1.0 - p1
    value = np.where(s == 0.0, 1.0, p2 * ((1.0 - s) * (1.0 - s)))
    may_win = (s > 0.0) & _case_i_may_win(s, p1)
    if may_win.any():
        s, p1, p2 = s[may_win], p1[may_win], p2[may_win]
        value[may_win] = _joint_choice(p1, p2, s, _q_star_values(s, p1, p2), np.where)[0]
    return _probabilities(value)
