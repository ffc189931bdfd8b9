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
    and 0, and stationarity of p1*gamma1 + p2*gamma2 ties each w to the prior
    p1 = gamma2' / (gamma2' - gamma1').  x and y cancel in w, so the code works
    in u in [0, 1], w = 1/(1+s) + D*u^2 with D the width of the range, where
    nothing cancels and p1(u) is smooth: one root search on [0, 1] matches each prior.

The module also provides the optimal probabilities that at least one of the
two observers succeeds: for SSD and protocols (1)-(2) these all collapse to
protocol (1)'s optimum, while the cloning protocol does strictly better for
every interior prior.  Both cloning optima come from one body, which solves
the optimal cloner (success p_cl) once, then one copy's stage optimum disc at
the priors conditioned on cloning success, and returns both combinations,
p_cl*disc^2 (both succeed) and p_cl*(1 - (1 - disc)^2) (at least one
succeeds); the column kernels take the same two combinations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .core import (
    BOUNDARY_TOL,
    DegenerateStrategyError,
    DomainError,
    NumericError,
    Scenario,
    StrategyParams,
    _pick,
    brent_root,
    brent_root_values,
)
from .ssd import (
    CaseLabel,
    PiecewiseResult,
    _probabilities,
    _stage_optimum,
    _stage_optimum_values,
    _stage_result,
)


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


def protocol1_optimal_values(s: np.ndarray, p1: np.ndarray) -> np.ndarray:
    """``protocol1_optimal(Scenario(s, p1)).value`` in every lane of valid scenarios."""
    return _probabilities(_stage_optimum_values(p1, 1.0 - p1, s))


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
    return _protocol2_priors(s, math.sqrt)


# The helpers below serve floats (sqrt = math.sqrt) and arrays (np.sqrt) alike.
def _protocol2_priors(s, sqrt):
    """(p_c1, p_c2) of ``protocol2_critical_priors``, without its check."""
    k = s * s
    p_c2 = k / (1.0 + k)
    disc = sqrt(k * k - 2.0 * k + 5.0)
    p_c1 = k * ((3.0 + k * k) + (1.0 - k) * disc) / (2.0 * (1.0 + 3.0 * k - k * k + k * k * k))
    return p_c1, p_c2


def _protocol2_case1(s, p1, sqrt=math.sqrt):
    """(value, p1c) with both stages at their interior optima; p1c is the
    prior of state 1 conditioned on Bob's success."""
    u = sqrt(p1 * (1.0 - p1)) * s
    bob = 1.0 - 2.0 * u
    p1c = (p1 - u) / bob
    return bob * (1.0 - 2.0 * sqrt(p1c * (1.0 - p1c)) * s), p1c


def _protocol2_case2(s, p1, sqrt=math.sqrt):
    p2 = 1.0 - p1
    return (p2 - sqrt(p1 * p2) * s) * (1.0 - s * s)


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
        value, p1c = _protocol2_case1(s, p1)
        q1b = math.sqrt(p2 / p1) * s
        q1c = math.sqrt((1.0 - p1c) / p1c) * s if p1c > 0.0 else 1.0
        argmax = {"q1b": q1b, "q2b": s * s / q1b, "q1c": q1c, "q2c": s * s / q1c}
        return PiecewiseResult(value, CaseLabel.CASE_I, argmax, p_c1)
    if p1 >= p_c2:
        q1b = math.sqrt(p2 / p1) * s
        argmax = {"q1b": q1b, "q2b": s * s / q1b, "q1c": 1.0, "q2c": s * s}
        return PiecewiseResult(_protocol2_case2(s, p1), CaseLabel.CASE_II, argmax, p_c1)
    value = p2 * (1.0 - s * s)
    return PiecewiseResult(value, CaseLabel.CASE_III, {"q1b": 1.0, "q2b": s * s}, p_c1)


def protocol2_optimal_values(s: np.ndarray, p1: np.ndarray) -> np.ndarray:
    """``protocol2_optimal(Scenario(s, p1)).value`` in every lane of valid
    scenarios: the three cases by the same operations, chosen by the priors
    of ``protocol2_critical_priors``.
    """
    p_c1, p_c2 = _protocol2_priors(s, np.sqrt)
    with np.errstate(divide="ignore", invalid="ignore"):  # lanes of other cases
        case1 = _protocol2_case1(s, p1, np.sqrt)[0]
        case2 = _protocol2_case2(s, p1, np.sqrt)
    case3 = (1.0 - p1) * (1.0 - s * s)
    value = np.where(p1 > p_c1, case1, np.where(p1 >= p_c2, case2, case3))
    return _probabilities(np.where(s == 0.0, 1.0, value))


def omega_range(s: float) -> tuple[float, float]:
    """Admissible range [1/(1+s), 1/(1+s^2)] of the cloning parameter."""
    if not 0.0 < s < 1.0:
        raise DomainError(f"cloning parametrization requires 0 < s < 1, got s={s}")
    return 1.0 / (1.0 + s), 1.0 / (1.0 + s * s)


def _clone_params(u: float, s: float) -> CloneParams:
    """Cloning working point at omega = omega_1 + D*u^2, u in [0, 1].

    D = omega_2 - omega_1 = s(1-s)/((1+s)(1+s^2)).  No field subtracts nearly
    equal numbers: 1 - x = (2s + (1-s)u^2)/(1+s), 1 - y = ((1-s)u)^2/(1+s^2),
    x = (1-s)(1-u^2)/(1+s) and y = (1-u^2) + 2s u^2/(1+s^2), or y = 1 - (1-y)
    for s > 1/2, where the sum could round above 1; the gammas come
    from h = sqrt(gamma1 gamma2) = (x+y)/2, k = sqrt((1-gamma1)(1-gamma2)) =
    s*omega, gamma2 - h = ((1-x)(1-y) + r_x r_y)/2 and 1 - gamma1 - k =
    ((1+x)(1-y) + r_x r_y)/2.  In the prior p1 = gamma2'/(gamma2' - gamma1')
    both derivatives are multiplied by s r_x r_y A/(1-s), where
    A = (1+s)r_x + u sqrt(2(1+s^2) - ((1-s)u)^2): -gamma1' becomes
    sqrt(gamma1(1-gamma1)) A^2 and gamma2' becomes sqrt(gamma2(1-gamma2))
    4s(1-u^2), its factor (1-s^2)r_x - (1+s^2)r_y a difference of squares
    over A.  So gamma1 <= gamma2 <= 1, and p1(0) = 1/2, p1(1) = 0 exactly.

    ``_clone_params_values`` takes the same steps in every lane of arrays.
    """
    return CloneParams(*_clone_working_point(u, s, math.sqrt, _pick))


def _clone_params_values(u: np.ndarray, s: np.ndarray) -> CloneParams:
    """``_clone_params`` in every lane; the fields are arrays."""
    return CloneParams(*_clone_working_point(u, s, np.sqrt, np.where))


def _clone_working_point(u, s, sqrt, pick) -> tuple:
    """The body of ``_clone_params``, for floats or for arrays with np.where as
    ``pick``: the fields of ``CloneParams`` as a tuple in their order.  The
    root searches' steps read ``p1_of_omega`` from it at ``_P1_OF_OMEGA``, so
    a ``CloneParams`` is built only at the root.
    """
    a = 1.0 - s
    c = pick(u > 0.5, (1.0 - u) * (1.0 + u), 1.0 - u * u)  # 1 - u^2 <= 1
    v = a * u * u
    au2 = (a * u) * (a * u)
    bx, cx = 2.0 * s + v, 2.0 - v  # (1+s)(1-x) and (1+s)(1+x)
    one_minus_x, one_minus_y = bx / (1.0 + s), au2 / (1.0 + s * s)
    x = a * c / (1.0 + s)
    y = pick(s > 0.5, 1.0 - one_minus_y, c + 2.0 * s * u * u / (1.0 + s * s))  # x <= y <= 1
    ax = sqrt(bx * cx)  # (1+s) r_x
    uw = u * sqrt(2.0 * (1.0 + s * s) - au2)  # (1+s^2) r_y / (1-s)
    rxry = ax / (1.0 + s) * (a * uw / (1.0 + s * s))
    omega = (1.0 + s * v / (1.0 + s * s)) / (1.0 + s)
    h, k = 0.5 * (x + y), s * omega
    co_gamma1 = k + 0.5 * ((1.0 + x) * one_minus_y + rxry)
    ratio = k / co_gamma1
    co_gamma2 = co_gamma1 * (ratio * ratio)
    gamma2 = 1.0 - co_gamma2
    ratio = h / (h + 0.5 * (one_minus_x * one_minus_y + rxry))
    gamma1 = gamma2 * (ratio * ratio)
    d1 = sqrt(gamma1 * co_gamma1) * (bx * cx + uw * (2.0 * ax + uw))  # A^2, 4s at u = 0
    d2 = sqrt(gamma2 * co_gamma2) * 4.0 * s * c
    n1, n2 = d2 * gamma1, d1 * gamma2  # p1*gamma1 and p2*gamma2, times d1 + d2
    p_cl, p1_of_omega = (n1 + n2) / (d1 + d2), d2 / (d1 + d2)
    return omega, x, y, gamma1, gamma2, p_cl, p1_of_omega, n1 / (n1 + n2), n2 / (n1 + n2)


#: The index of ``p1_of_omega`` in ``_clone_working_point``'s tuple.
_P1_OF_OMEGA = [f.name for f in fields(CloneParams)].index("p1_of_omega")


def clone_params_of_omega(omega: float, s: float) -> CloneParams:
    """Cloning success probabilities and matched prior at working point omega.

    Evaluated at u = sqrt((omega - omega_1)/(omega_2 - omega_1)); omega_1
    gives gamma1 = gamma2 = 1/(1+s) and prior 1/2, omega_2 gives prior 0.

    Below s of about 1.1e-16 both ends of the range round to 1, so no u can be
    read off omega; that is a NumericError.
    """
    w1, w2 = omega_range(s)
    if w1 == w2:
        raise NumericError(f"cloning range of omega rounds to the point {w1} at s={s}")
    if not w1 - BOUNDARY_TOL <= omega <= w2 + BOUNDARY_TOL:  # NaN fails too
        raise DomainError(f"omega={omega} outside [{w1}, {w2}]")
    omega = min(w2, max(w1, omega))
    return _clone_params(math.sqrt((omega - w1) / (w2 - w1)), s)


def clone_optimal_for_prior(scenario: Scenario) -> CloneParams:
    """Invert p1(u) by Brent's method to get the optimal cloner for a prior.

    p1(u) falls monotonically and smoothly from 1/2 at u = 0 to 0 at u = 1,
    so the bracket is all of [0, 1] with f(0) = 1/2 - p1 and f(1) = -p1; a
    prior of 1/2 returns u = 0.  The result must reproduce the prior within 1e-9.
    Each step reads p1(u) from ``_clone_working_point``'s fields; only the
    root becomes a ``CloneParams``.  The cloning optima call this once per
    scenario for both of their values (``_cloned_optimum``).

    Below s of about 1e-216 the working point's denominators underflow to 0
    near u = 0 (s is documented down to 1e-12); that is a NumericError.
    """
    s, target = scenario.s, scenario.p1
    omega_range(s)  # raises DomainError unless 0 < s < 1

    def excess(u: float) -> float:
        return _clone_working_point(u, s, math.sqrt, _pick)[_P1_OF_OMEGA] - target

    try:
        u, _ = brent_root(excess, 0.0, 1.0, 0.5 - target, -target)
        params = _clone_params(u, s)
    except ZeroDivisionError:
        raise NumericError(f"cloning working point underflows at s={s}") from None
    if abs(params.p1_of_omega - target) > 1e-9:
        raise NumericError(
            f"omega inversion stalled: p1(omega)={params.p1_of_omega}, wanted {target}"
        )
    return params


def _clone_optimal_values(s: np.ndarray, p1: np.ndarray) -> CloneParams:
    """``clone_optimal_for_prior`` in every lane at once, for 0 < s < 1: one
    Brent search in u over all priors in lockstep, which ends on the scalar
    search's u in every lane.  A lane whose working point underflows to 0/0
    (s below about 1e-216) reads NaN and fails the prior check.
    """

    def excess(u: np.ndarray) -> np.ndarray:
        return _clone_working_point(u, s, np.sqrt, np.where)[_P1_OF_OMEGA] - p1

    u, _ = brent_root_values(excess, np.zeros_like(p1), np.ones_like(p1), 0.5 - p1, -p1)
    with np.errstate(divide="ignore", invalid="ignore"):
        params = _clone_params_values(u, s)
    off = ~(np.abs(params.p1_of_omega - p1) <= 1e-9)  # NaN is off too
    if off.any():
        i = int(np.argmax(off))
        raise NumericError(
            f"omega inversion stalled: p1(omega)={params.p1_of_omega[i]}, wanted {p1[i]}"
        )
    return params


def _cloned_stage_values(s: np.ndarray, p1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The optimal cloner's success probability p_cl and one copy's
    discrimination optimum, in every lane of valid scenarios.  At s = 0 and
    s = 1 these are (1, 1) and (1, 0), the scalar path's endpoint values.
    """
    p_cl, disc = np.ones_like(s), np.where(s == 0.0, 1.0, 0.0)
    inner = (s > 0.0) & (s < 1.0)
    if inner.any():
        cp = _clone_optimal_values(s[inner], p1[inner])
        p_cl[inner] = cp.p_cl
        disc[inner] = _stage_optimum_values(cp.p1_cl, cp.p2_cl, s[inner])
    return p_cl, disc


def _both_succeed(p_cl, disc):
    """P(both succeed) after cloning p_cl, each copy discriminated with success
    disc, taking the two copies' successes as independent (the paper's form)."""
    return p_cl * disc * disc


def _at_least_one_succeeds(p_cl, disc):
    """P(at least one succeeds) after cloning p_cl, each copy with success disc,
    taking the two copies' successes as independent (the paper's form)."""
    miss = 1.0 - disc
    return p_cl * (1.0 - miss * miss)


def protocol3_optimal_values(s: np.ndarray, p1: np.ndarray) -> np.ndarray:
    """``protocol3_optimal(Scenario(s, p1)).value`` in every lane of valid scenarios."""
    return _probabilities(_both_succeed(*_cloned_stage_values(s, p1)))


def _cloned_optimum(scenario: Scenario) -> tuple[PiecewiseResult, PiecewiseResult]:
    """The cloning protocol's two optima, (both succeed, at least one
    succeeds), from one solve of the optimal cloner for the prior and one
    copy's stage optimum at the priors conditioned on cloning success.  The
    case is the copy's, and both results carry the same argmax.

    At s = 0 and s = 1 cloning always succeeds and leaves the prior, with
    omega = 1/(1+s); orthogonal copies are always told apart (case I, q1 = 0),
    identical ones never (case II, q1 = 1).
    """
    s = scenario.s
    if 0.0 < s < 1.0:
        cp = clone_optimal_for_prior(scenario)
        omega, gamma1, gamma2, p_cl, p1_cl = cp.omega, cp.gamma1, cp.gamma2, cp.p_cl, cp.p1_cl
        disc, q1, label = _stage_optimum(cp.p1_cl, cp.p2_cl, s)
    else:
        omega, gamma1, gamma2, p_cl, p1_cl = 1.0 / (1.0 + s), 1.0, 1.0, 1.0, scenario.p1
        disc, q1 = (1.0, 0.0) if s == 0.0 else (0.0, 1.0)
        label = CaseLabel.CASE_I if s == 0.0 else CaseLabel.CASE_II
    argmax = {
        "omega": omega, "gamma1": gamma1, "gamma2": gamma2, "p_cl": p_cl, "p1_cl": p1_cl,
        "q1b": q1, "q1c": q1,
    }
    return (
        PiecewiseResult(_both_succeed(p_cl, disc), label, argmax),
        PiecewiseResult(_at_least_one_succeeds(p_cl, disc), label, dict(argmax)),
    )


def protocol3_optimal(scenario: Scenario) -> PiecewiseResult:
    """Optimal probability that both succeed in the cloning protocol.

    p_cl * disc^2: the optimal cloning probability at the omega matched to
    the prior, times two identical discrimination optima disc at the priors
    (p1_cl, p2_cl) conditioned on cloning success.  The copies' case switches
    where p1_cl crosses s^2/(1+s^2), which is not a threshold on p1 itself,
    so no boundary prior is reported.

    This is the paper's formula, and it treats the two copies' successes as
    independent events. Both copies carry the same state label i, though, and
    a copy of state i succeeds with probability 1 - q_i, so a realized cloner
    and copy measurements give p_cl * sum_i p_i,cl (1 - q_i)^2 instead. The
    two agree at p1 = 1/2, where q1 = q2.
    """
    return _cloned_optimum(scenario)[0]


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

    p_cl * (1 - (1 - disc)^2) with the cloner and copies of
    ``protocol3_optimal``; with conditional priors (p1_cl, p2_cl):
    case I (p1_cl >= s^2/(1+s^2)): p_cl * (1 - 4 p1_cl p2_cl s^2);
    case II: p_cl * (1 - (p1_cl + p2_cl s^2)^2).  As there, the switch is a
    threshold on p1_cl, not on p1, and no boundary prior is reported.

    Like ``protocol3_optimal`` this is the paper's formula with the copies'
    successes taken as independent; realized copies give
    p_cl * sum_i p_i,cl (1 - q_i^2). The formula's value exceeds the
    single-copy unambiguous bound, protocol (1)'s value, for most interior
    priors, by up to 0.025 near (s, p1) = (0.48, 0.22); any scheme in which
    every answer given is right is one unambiguous measurement of the
    original qubit, so no realized cloning scheme can do that.
    """
    return _cloned_optimum(scenario)[1]


def at_least_one_protocol3_values(s: np.ndarray, p1: np.ndarray) -> np.ndarray:
    """``at_least_one_protocol3(Scenario(s, p1)).value`` in every lane of valid scenarios."""
    return _probabilities(_at_least_one_succeeds(*_cloned_stage_values(s, p1)))
