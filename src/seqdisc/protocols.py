"""Discrimination strategies in which Bob and Charlie communicate classically.

(1) Bob performs the optimal unambiguous discrimination on the qubit and
    announces the outcome; success means both parties know the state.
(2) Bob performs his optimal discrimination; on success he prepares a fresh
    qubit in the identified state for Charlie, who then discriminates it with
    the conditional priors induced by Bob's success.  Bob's measurement is the
    one optimal for his own stage, so the overall optimum is a three-case
    piecewise function of p1 with a genuine discontinuity at p_c2 (where Bob
    starts ignoring state 1 and Charlie's task becomes trivial).
(3) Bob applies the optimal probabilistic cloner; on success each party
    unambiguously discriminates an independent copy.  The cloner is handled
    through the parametrization
        x = (1 - (1+s^2)*w)/s,  y = (1 - (1-s^2)*w)/s,
        gamma_i = (1 + x*y + (-1)^i sqrt((1-x^2)(1-y^2))) / 2,
    with w in [1/(1+s), 1/(1+s^2)]; the endpoints correspond to priors 1/2
    and 0, and stationarity of p1*gamma1 + p2*gamma2 ties each interior w to
    the prior p1 = gamma2' / (gamma2' - gamma1').

The module also provides the optimal probabilities that at least one of the
two observers succeeds: for SSD and protocols (1)-(2) these all collapse to
protocol (1)'s optimum, while the cloning protocol does strictly better for
every interior prior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    BOUNDARY_TOL,
    DegenerateStrategyError,
    DomainError,
    NumericError,
    Scenario,
    StrategyParams,
    brent_root,
)
from .ssd import CaseLabel, PiecewiseResult, _stage_optimum, _stage_result


@dataclass(frozen=True)
class ConditionalPriors:
    """Priors conditioned on Bob's success."""

    p1_prime: float
    p2_prime: float

    def __post_init__(self) -> None:
        for name, p in (("p1_prime", self.p1_prime), ("p2_prime", self.p2_prime)):
            if not -BOUNDARY_TOL <= p <= 1.0 + BOUNDARY_TOL:
                raise DomainError(f"{name}={p} outside [0, 1]")
        if abs(self.p1_prime + self.p2_prime - 1.0) > BOUNDARY_TOL:
            raise DomainError("conditional priors must sum to 1")


@dataclass(frozen=True)
class CloneParams:
    """Probabilistic-cloning working point on the constraint manifold.

    gamma1, gamma2 are the per-state cloning success probabilities, p_cl the
    average success probability, p1_of_omega the prior this working point
    optimizes, and (p1_cl, p2_cl) the priors conditioned on cloning success.
    """

    omega: float
    x: float
    y: float
    gamma1: float
    gamma2: float
    p_cl: float
    p1_of_omega: float
    p1_cl: float
    p2_cl: float


def protocol1_optimal(scenario: Scenario) -> PiecewiseResult:
    """Optimal success of a single unambiguous discrimination at overlap s.

    Case I: 1 - 2*sqrt(p1*p2)*s at q1b = sqrt(p2/p1)*s, for p1 >= s^2/(1+s^2);
    case II: p2*(1 - s^2) at q1b = 1.
    """
    return _stage_result(scenario, scenario.s, ("q1b", "q2b"))


def conditional_priors_after_bob(scenario: Scenario, q1b: float) -> ConditionalPriors:
    """Priors of the two states conditioned on Bob's success at t = 1.

    p_i' = p_i (1 - q_i) / [p1 (1 - q1) + p2 (1 - q2)] with q2 = s^2 / q1.
    """
    params = StrategyParams.from_q1(q1b, scenario.s)
    b1 = scenario.p1 * (1.0 - params.q1)
    b2 = scenario.p2 * (1.0 - params.q2)
    if b1 + b2 <= 0.0:
        raise DegenerateStrategyError(
            "Bob never succeeds (q1 = q2 = 1); conditional priors undefined"
        )
    return ConditionalPriors(b1 / (b1 + b2), b2 / (b1 + b2))


def protocol2_critical_priors(s: float) -> tuple[float, float]:
    """The two critical priors (p_c1, p_c2) of protocol (2).

    p_c2 = s^2/(1+s^2) is where Bob starts ignoring state 1; p_c1 is where
    Charlie's conditional prior hits his own case boundary,
    p1'(p_c1) = s^2/(1+s^2), which reduces to a quadratic in p1.
    """
    if not 0.0 <= s <= 1.0:
        raise DomainError(f"overlap s={s} outside [0, 1]")
    k = s * s
    p_c2 = k / (1.0 + k)
    disc = math.sqrt(k * k - 2.0 * k + 5.0)
    p_c1 = k * ((3.0 + k * k) + (1.0 - k) * disc) / (2.0 * (1.0 + 3.0 * k - k * k + k**3))
    return p_c1, p_c2


def _protocol2_case1(s: float, p1: float) -> tuple[float, float, float]:
    """(value, q1b, q1c) with both stages at their interior optima."""
    p2 = 1.0 - p1
    u = math.sqrt(p1 * p2) * s
    bob = 1.0 - 2.0 * u
    p1c = (p1 - u) / bob
    p2c = 1.0 - p1c
    charlie = 1.0 - 2.0 * math.sqrt(p1c * p2c) * s
    q1c = math.sqrt(p2c / p1c) * s if p1c > 0.0 else 1.0
    return bob * charlie, math.sqrt(p2 / p1) * s, q1c


def _protocol2_case2(s: float, p1: float) -> float:
    p2 = 1.0 - p1
    return (p2 - math.sqrt(p1 * p2) * s) * (1.0 - s * s)


def protocol2_optimal(scenario: Scenario) -> PiecewiseResult:
    """Optimal probability that both succeed in protocol (2).

    Case I (p1 > p_c1): (1 - 2 sqrt(p1 p2) s)(1 - 2 sqrt(p1' p2') s);
    case II (p_c2 <= p1 <= p_c1): (p2 - sqrt(p1 p2) s)(1 - s^2), Charlie
    recognizes only state 2; case III (p1 < p_c2): p2 (1 - s^2), Bob ignores
    state 1 and Charlie learns the state for free.
    """
    s, p1, p2 = scenario.s, scenario.p1, scenario.p2
    if s == 0.0:
        return PiecewiseResult(
            1.0, CaseLabel.CASE_I, {"q1b": 0.0, "q2b": 0.0, "q1c": 0.0, "q2c": 0.0}, 0.0
        )
    p_c1, p_c2 = protocol2_critical_priors(s)
    if p1 > p_c1:
        value, q1b, q1c = _protocol2_case1(s, p1)
        argmax = {"q1b": q1b, "q2b": s * s / q1b, "q1c": q1c, "q2c": s * s / q1c}
        return PiecewiseResult(value, CaseLabel.CASE_I, argmax, p_c1)
    if p1 >= p_c2:
        q1b = math.sqrt(p2 / p1) * s
        argmax = {"q1b": q1b, "q2b": s * s / q1b, "q1c": 1.0, "q2c": s * s}
        return PiecewiseResult(_protocol2_case2(s, p1), CaseLabel.CASE_II, argmax, p_c1)
    value = p2 * (1.0 - s * s)
    return PiecewiseResult(value, CaseLabel.CASE_III, {"q1b": 1.0, "q2b": s * s}, p_c1)


def omega_range(s: float) -> tuple[float, float]:
    """Admissible range [1/(1+s), 1/(1+s^2)] of the cloning parameter."""
    if not 0.0 < s < 1.0:
        raise DomainError(f"cloning parametrization requires 0 < s < 1, got s={s}")
    return 1.0 / (1.0 + s), 1.0 / (1.0 + s * s)


def clone_params_of_omega(omega: float, s: float) -> CloneParams:
    """Cloning success probabilities and matched prior at working point omega.

    The lower endpoint omega = 1/(1+s) makes the derivative ratio singular
    (sqrt(1-y^2) -> 0); its one-sided limit gamma1 = gamma2 = 1/(1+s) with
    prior 1/2 is substituted exactly there.
    """
    w1, w2 = omega_range(s)
    if omega < w1 - BOUNDARY_TOL or omega > w2 + BOUNDARY_TOL:
        raise DomainError(f"omega={omega} outside [{w1}, {w2}]")
    omega = min(w2, max(w1, omega))
    x = (1.0 - (1.0 + s * s) * omega) / s
    y = (1.0 - (1.0 - s * s) * omega) / s
    rx = math.sqrt(max(1.0 - x * x, 0.0))
    ry = math.sqrt(max(1.0 - y * y, 0.0))
    if omega - w1 < 1e-13 or ry == 0.0:
        g = 1.0 / (1.0 + s)
        return CloneParams(
            omega=w1,
            x=(1.0 - s) / (1.0 + s),
            y=1.0,
            gamma1=g,
            gamma2=g,
            p_cl=g,
            p1_of_omega=0.5,
            p1_cl=0.5,
            p2_cl=0.5,
        )
    root = rx * ry
    gamma1 = 0.5 * (1.0 + x * y - root)
    gamma2 = 0.5 * (1.0 + x * y + root)
    d1 = math.sqrt(gamma1 * (1.0 - gamma1)) / s * (-(1.0 + s * s) / rx - (1.0 - s * s) / ry)
    d2 = math.sqrt(gamma2 * (1.0 - gamma2)) / s * (-(1.0 + s * s) / rx + (1.0 - s * s) / ry)
    p1 = min(0.5, max(0.0, d2 / (d2 - d1)))
    p_cl = (d2 * gamma1 - d1 * gamma2) / (d2 - d1)
    p1_cl = min(1.0, max(0.0, p1 * gamma1 / p_cl))
    return CloneParams(
        omega=omega,
        x=x,
        y=y,
        gamma1=gamma1,
        gamma2=gamma2,
        p_cl=p_cl,
        p1_of_omega=p1,
        p1_cl=p1_cl,
        p2_cl=1.0 - p1_cl,
    )


def clone_optimal_for_prior(scenario: Scenario) -> CloneParams:
    """Invert p1(omega) by Brent's method to get the optimal cloner for a prior.

    p1(omega) falls monotonically from 1/2 at omega_1 to 0 at omega_2.  Near
    omega_1 it behaves like 1/2 - c*sqrt(omega - omega_1), so priors closer to
    1/2 than the innermost bracket end omega_1 + 1e-9*(omega_2 - omega_1)
    snap to the omega_1 limit (the induced error in p_cl is quadratic in
    1/2 - p1 and negligible).  The result must reproduce the prior within 1e-9.
    """
    s, target = scenario.s, scenario.p1
    w1, w2 = omega_range(s)
    if target >= 0.5:
        return clone_params_of_omega(w1, s)

    def excess(omega: float) -> float:
        return clone_params_of_omega(omega, s).p1_of_omega - target

    lo = w1 + 1e-9 * (w2 - w1)
    hi = w2 - 1e-12 * (w2 - w1)
    f_lo = excess(lo)
    if f_lo <= 0.0:
        return clone_params_of_omega(w1, s)
    f_hi = excess(hi)
    if f_hi > 0.0:
        raise NumericError(f"failed to bracket omega for prior p1={target} at s={s}")
    omega, _ = brent_root(excess, lo, hi, f_lo, f_hi)
    params = clone_params_of_omega(omega, s)
    if abs(params.p1_of_omega - target) > 1e-9:
        raise NumericError(
            f"omega inversion stalled: p1(omega)={params.p1_of_omega}, wanted {target}"
        )
    return params


def protocol3_optimal(scenario: Scenario) -> PiecewiseResult:
    """Optimal probability that both succeed in the cloning protocol.

    Product of the optimal cloning probability at the omega matched to the
    prior and two identical discrimination optima evaluated at the priors
    conditioned on cloning success.
    """
    s = scenario.s
    if s == 0.0:
        argmax = {"omega": 1.0, "gamma1": 1.0, "gamma2": 1.0, "p_cl": 1.0, "p1_cl": scenario.p1}
        return PiecewiseResult(1.0, CaseLabel.CASE_I, argmax)
    if s == 1.0:
        argmax = {"omega": 0.5, "gamma1": 1.0, "gamma2": 1.0, "p_cl": 1.0, "p1_cl": scenario.p1}
        return PiecewiseResult(0.0, CaseLabel.CASE_II, argmax)
    cp = clone_optimal_for_prior(scenario)
    disc, q1, label = _stage_optimum(cp.p1_cl, cp.p2_cl, s)
    argmax = {
        "omega": cp.omega,
        "gamma1": cp.gamma1,
        "gamma2": cp.gamma2,
        "p_cl": cp.p_cl,
        "p1_cl": cp.p1_cl,
        "q1b": q1,
        "q1c": q1,
    }
    return PiecewiseResult(cp.p_cl * disc * disc, label, argmax)


def at_least_one_ssd(scenario: Scenario) -> PiecewiseResult:
    """Optimal probability that at least one observer succeeds in SSD.

    The products Q_i = q_i^b q_i^c satisfy Q1 Q2 = s^2 with Q_i in [s^2, 1],
    so the problem collapses onto protocol (1).
    """
    base = protocol1_optimal(scenario)
    argmax = {"q1_product": base.argmax["q1b"], "q2_product": base.argmax["q2b"]}
    return PiecewiseResult(base.value, base.case_label, argmax, base.boundary_prior)


def at_least_one_protocol3(scenario: Scenario) -> PiecewiseResult:
    """Optimal probability that at least one observer succeeds after cloning.

    With conditional priors (p1_cl, p2_cl) at the optimal cloner:
    case I (p1_cl >= s^2/(1+s^2)): p_cl * (1 - 4 p1_cl p2_cl s^2);
    case II: p_cl * (1 - (p1_cl + p2_cl s^2)^2).
    """
    s = scenario.s
    if s == 0.0:
        return PiecewiseResult(1.0, CaseLabel.CASE_I, {"p_cl": 1.0, "p1_cl": scenario.p1})
    if s == 1.0:
        return PiecewiseResult(0.0, CaseLabel.CASE_II, {"p_cl": 1.0, "p1_cl": scenario.p1})
    cp = clone_optimal_for_prior(scenario)
    disc, _, label = _stage_optimum(cp.p1_cl, cp.p2_cl, s)
    argmax = {"omega": cp.omega, "p_cl": cp.p_cl, "p1_cl": cp.p1_cl}
    value = cp.p_cl * (1.0 - (1.0 - disc) ** 2)
    return PiecewiseResult(value, label, argmax, s * s / (1.0 + s * s))
