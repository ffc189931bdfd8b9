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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .core import (
    BOUNDARY_TOL,
    DomainError,
    NumericError,
    Scenario,
    StrategyParams,
    check_overlap_t,
)

#: Overlap above which case I vanishes even at equal priors.
SYMMETRY_BREAK_OVERLAP = 3.0 - 2.0 * math.sqrt(2.0)

_TIE_TOL = 1e-12
_NEWTON_STEPS = 8
_EPS = float(np.finfo(float).eps)


class CaseLabel(str, Enum):
    CASE_I = "CaseI"
    CASE_II = "CaseII"
    CASE_III = "CaseIII"


@dataclass(frozen=True)
class PiecewiseResult:
    """Optimal value of a piecewise maximization plus its provenance.

    ``argmax`` maps parameter names (q1b, q2b, t, ...) to the optimizing
    values; ``boundary_prior`` is the critical p1 separating the analytic
    cases for the instance, when one is defined.
    """

    value: float
    case_label: CaseLabel
    argmax: dict
    boundary_prior: float | None = None

    def __post_init__(self) -> None:
        if not -_TIE_TOL <= self.value <= 1.0 + _TIE_TOL:
            raise NumericError(f"probability {self.value} outside [0, 1]")
        object.__setattr__(self, "value", min(1.0, max(0.0, self.value)))


def bob_success(scenario: Scenario, t: float, q1b: float) -> float:
    """Bob's average success probability for failure parameter q1b.

    q2b is fixed by the constraint q1b * q2b = (s/t)**2.
    """
    check_overlap_t(scenario.s, t)
    params = StrategyParams.from_q1(q1b, scenario.s / t)
    return scenario.p1 * (1.0 - params.q1) + scenario.p2 * (1.0 - params.q2)


def _stage_optimum(p1: float, p2: float, r: float) -> tuple[float, float, CaseLabel]:
    """Maximize p1*(1-q1) + p2*(1-r^2/q1) over q1 in [r^2, 1].

    Returns (value, q1, case).  The interior stationary point q1 = sqrt(p2/p1)*r
    is used when it is feasible and not beaten by the boundary q1 = 1; ties
    within 1e-12 resolve to case I.  At p1 = 0 only the boundary is optimal.
    """
    v_boundary = p2 * (1.0 - r * r)
    q_int = math.sqrt(p2 / p1) * r if p1 > 0.0 else math.inf
    if q_int <= 1.0 + _TIE_TOL:
        v_int = 1.0 - 2.0 * math.sqrt(p1 * p2) * r
        if v_int > v_boundary or abs(v_int - v_boundary) < _TIE_TOL:
            return v_int, min(q_int, 1.0), CaseLabel.CASE_I
    return v_boundary, 1.0, CaseLabel.CASE_II


def _stage_optimum_values(p1: np.ndarray, p2: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The value of ``_stage_optimum`` in every lane, by the same operations."""
    v_boundary = p2 * (1.0 - r * r)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        q_int = np.where(p1 > 0.0, np.sqrt(p2 / p1) * r, np.inf)
    v_int = 1.0 - 2.0 * np.sqrt(p1 * p2) * r
    tie = (v_int > v_boundary) | (np.abs(v_int - v_boundary) < _TIE_TOL)
    return np.where((q_int <= 1.0 + _TIE_TOL) & tie, v_int, v_boundary)


def _probabilities(values: np.ndarray) -> np.ndarray:
    """``PiecewiseResult``'s range check and clamp to [0, 1], in every lane."""
    bad = ~((values >= -_TIE_TOL) & (values <= 1.0 + _TIE_TOL))
    if bad.any():
        raise NumericError(f"probability {values[bad][0]} outside [0, 1]")
    return np.where(values > 0.0, np.where(values < 1.0, values, 1.0), 0.0)


def _check_overlaps_t(s: np.ndarray, t: np.ndarray) -> None:
    """``check_overlap_t`` in every lane; raises for the first lane that fails it."""
    bad = ~((0.0 < t) & (t <= 1.0) & (t >= s))
    if bad.any():
        i = int(np.argmax(bad))
        check_overlap_t(float(s[i]), float(t[i]))


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
    return _stage_result(scenario, scenario.s / t, ("q1b", "q2b"), t=t)


def bob_optimal_values(s: np.ndarray, p1: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``bob_optimal(Scenario(s, p1), t).value`` in every lane of valid scenarios."""
    _check_overlaps_t(s, t)
    return _probabilities(_stage_optimum_values(p1, 1.0 - p1, s / t))


def charlie_optimal(scenario: Scenario, t: float) -> PiecewiseResult:
    """Charlie's optimal success probability given Bob left overlap t.

    Case I: 1 - 2*sqrt(p1*p2)*t at q1c = sqrt(p2/p1)*t for p1 >= t^2/(1+t^2);
    case II: p2*(1 - t^2) at q1c = 1.
    """
    check_overlap_t(scenario.s, t)
    return _stage_result(scenario, t, ("q1c", "q2c"), t=t)


def charlie_optimal_values(s: np.ndarray, p1: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``charlie_optimal(Scenario(s, p1), t).value`` in every lane of valid scenarios."""
    _check_overlaps_t(s, t)
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


def _is_root(p1, p2, s, q):
    """Whether q is a root of the quartic in [s, 1], up to a relative 1e-12.

    The residual must lie within rounding of the polynomial's terms (a
    backward-error test).  Products, not powers, keep huge roots finite.
    """
    a = abs(q)
    a2 = a * a
    terms = p1 * (a2 * a2) + p1 * (a2 * a) + p2 * s * a + p2 * s * s
    return (
        (abs(_quartic(p1, p2, s, q)) <= 16.0 * _EPS * terms)
        & (s * (1.0 - BOUNDARY_TOL) <= q)
        & (q <= 1.0 + BOUNDARY_TOL)
    )


def _joint_case1_objective(p1, p2, s, q):
    a, b = 1.0 - q, 1.0 - s / q
    return p1 * (a * a) + p2 * (b * b)


def solve_q_star(scenario: Scenario) -> float:
    """Root of p1*q^4 - p1*q^3 + p2*s*q - p2*s^2 = 0 on [s, 1] maximizing the
    symmetric joint objective p1*(1-q)^2 + p2*(1-s/q)^2.

    The quartic is the stationarity condition of the objective.  Its roots are
    the eigenvalues of the 4x4 companion matrix; the real part of each is
    polished by Newton steps on the quartic.  A polished value counts as a
    root when its residual is within rounding of the polynomial's terms
    (a backward-error test) and it lies in [s, 1], up to a relative 1e-12
    that is clipped away.  Among the roots, the one with the largest objective
    value is returned.  Since the quartic is negative at s and positive at 1,
    a root always exists; NumericError reports a failure to find it.  Where
    p2*s/p1 overflows (p1 below about 5e-309*s) the root's offset from s is
    about p1*s relative to it, far below an ulp, and s itself is returned.
    """
    s, p1, p2 = scenario.s, scenario.p1, scenario.p2
    if not 0.0 < s < 1.0:
        raise DomainError(f"q* is defined for 0 < s < 1, got s={s}")
    linear = p2 * s / p1
    if linear == math.inf:
        return s
    companion = np.eye(4, k=-1)
    companion[0] = (1.0, 0.0, -linear, p2 * s * s / p1)
    roots = []
    for z in np.linalg.eigvals(companion).tolist():
        q = z.real
        for _ in range(_NEWTON_STEPS):
            slope = _quartic_slope(p1, p2, s, q)
            if slope == 0.0:
                break
            step = _quartic(p1, p2, s, q) / slope
            q -= step
            if abs(step) <= _EPS * abs(q):
                break
        if _is_root(p1, p2, s, q):
            roots.append(min(1.0, max(s, q)))
    if not roots:
        raise NumericError(
            "no real root in [s, 1] for quartic coefficients "
            f"[{p1}, {-p1}, 0, {p2 * s}, {-p2 * s * s}]"
        )
    return max(roots, key=lambda q: _joint_case1_objective(p1, p2, s, q))


def _q_star_values(s: np.ndarray, p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """``solve_q_star`` in every lane, for 0 < s < 1: one batched eigenvalue
    call, then the same Newton steps, root test, clip and choice, lane by lane.
    """
    with np.errstate(over="ignore"):
        linear = p2 * s / p1
    if np.isinf(linear).any():  # q* = s there, as in the scalar path
        q, rest = s.copy(), ~np.isinf(linear)
        if rest.any():
            q[rest] = _q_star_values(s[rest], p1[rest], p2[rest])
        return q
    companion = np.zeros(s.shape + (4, 4))
    companion[:, 0, 0] = companion[:, 1, 0] = companion[:, 2, 1] = companion[:, 3, 2] = 1.0
    companion[:, 0, 2] = -linear
    companion[:, 0, 3] = p2 * s * s / p1
    q = np.linalg.eigvals(companion).real
    p1, p2, s = p1[:, None], p2[:, None], s[:, None]
    active = np.ones(q.shape, dtype=bool)
    with np.errstate(all="ignore"):
        for _ in range(_NEWTON_STEPS):
            slope = _quartic_slope(p1, p2, s, q)
            active &= slope != 0.0
            step = np.where(active, _quartic(p1, p2, s, q) / np.where(active, slope, 1.0), 0.0)
            q = q - step
            active &= ~(np.abs(step) <= _EPS * np.abs(q))
            if not active.any():
                break
        is_root = _is_root(p1, p2, s, q)
        q = np.where(q > s, q, s)
        q = np.where(q < 1.0, q, 1.0)
        objective = np.where(is_root, _joint_case1_objective(p1, p2, s, q), -np.inf)
    missing = ~is_root.any(axis=1)
    if missing.any():
        i = int(np.argmax(missing))
        raise NumericError(f"no real root in [s, 1] at s={s[i, 0]}, p1={p1[i, 0]}")
    return np.take_along_axis(q, np.argmax(objective, axis=1)[:, None], axis=1)[:, 0]


class CriticalPrior(NamedTuple):
    """Critical prior for the joint optimum; below it case I never wins."""

    value: float
    case_i_applies: bool


def critical_prior_PC(s: float) -> CriticalPrior:
    """Prior at which the two branches of the joint optimum exchange.

    At the crossing p*(1-q*)^2 + (1-p)*(1-s/q*)^2 = (1-p)*(1-s)^2 with q* the
    quartic's root, which is

        q_C = [(1 + s) + sqrt((1 - s)(1 - 5s))] / (2(2 - s)),

    and P_C = k/(1 + k) with k = s(q_C - s)/(q_C^3 (1 - q_C)), the prior ratio
    at which q_C solves the quartic.  P_C grows from about 8*s at small s to
    1/2 at s = 3 - 2*sqrt(2), where q_C = sqrt(s).  Beyond that case I never
    applies on (0, 1/2]; the sentinel value 0.5 is returned with the flag
    cleared.
    """
    if not 0.0 < s < 1.0:
        raise DomainError(f"critical prior is defined for 0 < s < 1, got s={s}")
    if s < 0.2:  # the crossing root is real
        q = ((1.0 + s) + math.sqrt((1.0 - s) * (1.0 - 5.0 * s))) / (2.0 * (2.0 - s))
        k = s * (q - s) / (q**3 * (1.0 - q))
        p_c = k / (1.0 + k)
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
    v1 = _joint_case1_objective(p1, p2, s, q_star)
    v2 = p2 * ((1.0 - s) * (1.0 - s))
    boundary = critical_prior_PC(s).value if compute_boundary else None
    t_opt = math.sqrt(s)
    if v1 > v2 or abs(v1 - v2) < _TIE_TOL:
        argmax = {
            "t": t_opt,
            "q_star": q_star,
            "q1b": q_star,
            "q2b": s / q_star,
            "q1c": q_star,
            "q2c": s / q_star,
        }
        return PiecewiseResult(v1, CaseLabel.CASE_I, argmax, boundary)
    argmax = {"t": t_opt, "q_star": q_star, "q1b": 1.0, "q2b": s, "q1c": 1.0, "q2c": s}
    return PiecewiseResult(v2, CaseLabel.CASE_II, argmax, boundary)


def joint_optimal_values(s: np.ndarray, p1: np.ndarray) -> np.ndarray:
    """``joint_optimal(Scenario(s, p1)).value`` in every lane of valid scenarios.

    The same operations as the scalar path, so the values agree bit for bit.
    """
    value = np.where(s == 0.0, 1.0, 0.0)
    inner = (s > 0.0) & (s < 1.0)
    if inner.any():
        s, p1 = s[inner], p1[inner]
        p2 = 1.0 - p1
        v1 = _joint_case1_objective(p1, p2, s, _q_star_values(s, p1, p2))
        v2 = p2 * ((1.0 - s) * (1.0 - s))
        value[inner] = np.where((v1 > v2) | (np.abs(v1 - v2) < _TIE_TOL), v1, v2)
    return _probabilities(value)
