"""Discrimination strategies in which Bob and Charlie communicate classically.

(1) Bob performs the optimal unambiguous discrimination on the qubit and
    announces the outcome; success means both parties know the state.
(2) Bob performs his optimal discrimination; on success he prepares a fresh
    qubit in the identified state for Charlie, who then discriminates it with
    the conditional priors induced by Bob's success.  So the optimum is two
    stage optima, each protocol (1)'s body: Bob's at (p1, p2), then
    Charlie's at the priors his success leaves.  Up to p_c2 Bob ignores
    state 1 and Charlie's task becomes trivial, a genuine discontinuity that
    the stage places exactly; above it Charlie's own stage takes case I or
    II, which switch at p_c1.
(3) Bob applies the optimal probabilistic cloner; on success each party
    unambiguously discriminates an independent copy.  The cloner is handled
    through the parametrization
        x = (1 - (1+s^2)*w)/s,  y = (1 - (1-s^2)*w)/s,
        gamma_i = (1 + x*y + (-1)^i sqrt((1-x^2)(1-y^2))) / 2,
    with w in [1/(1+s), 1/(1+s^2)]; the endpoints correspond to priors 1/2
    and 0, and stationarity of p1*gamma1 + p2*gamma2 ties each w to the prior
    p1 = gamma2' / (gamma2' - gamma1').  x and y cancel in w, so the code works
    in u in [0, 1], w = 1/(1+s) + D*u^2 with D the width of the range, where
    nothing cancels and p1(u) is smooth: safeguarded Newton steps from the
    small-s root u ~ sqrt(s) match each prior, on floats and lanes alike.

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
    DomainError,
    NumericError,
    Scenario,
    _is_overlap,
    _overlap_error,
    _pick,
    _require,
)
from .ssd import (
    CaseLabel,
    PiecewiseResult,
    _probabilities,
    _stage,
    _stage_optimum,
    _stage_optimum_values,
    _stage_result,
)


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


def protocol2_critical_priors(s: float) -> tuple[float, float]:
    """The two critical priors (p_c1, p_c2) of protocol (2).

    p_c2 = s^2/(1+s^2) is where Bob starts ignoring state 1; p_c1 is where
    Charlie's conditional prior hits his own case boundary,
    p1'(p_c1) = s^2/(1+s^2), which reduces to a quadratic in p1.
    """
    _require(_is_overlap(s), _overlap_error, "s", s)
    s = float(s)  # as Scenario holds its fields: a numpy s gives a float's result
    k = s * s
    disc = math.sqrt(k * k - 2.0 * k + 5.0)
    p_c1 = k * ((3.0 + k * k) + (1.0 - k) * disc) / (2.0 * (1.0 + 3.0 * k - k * k + k * k * k))
    return p_c1, k / (1.0 + k)


def _bob_state1_mass(p1, p2, s, sqrt, pick):
    """p1 - sqrt(p1*p2)*s, state 1's share p1*(1 - q1b) of Bob's success at his
    stationary point, on floats (``math.sqrt``, ``_pick``) or on arrays
    (``np.sqrt``, ``np.where``); Charlie's prior is this over Bob's success.

    For s > 1/2 it is sqrt(p1)*(sqrt(p2)*(1 - s) - d) with
    d = sqrt(p2) - sqrt(p1) = (1 - 2*p1)/(sqrt(p2) + sqrt(p1)), which does
    not cancel as s nears 1; 1 - s is exact there, and 1 - 2*p1 for
    p1 >= 1/4.  Where rounding leaves it at or below 0 it is 0.
    """
    sp1, sp2 = sqrt(p1), sqrt(p2)
    d = (1.0 - 2.0 * p1) / (sp2 + sp1)
    mass = pick(s > 0.5, sp1 * (sp2 * (1.0 - s) - d), p1 - sqrt(p1 * p2) * s)
    return pick(mass > 0.0, mass, 0.0)


def protocol2_optimal(scenario: Scenario) -> PiecewiseResult:
    """Optimal probability that both succeed in protocol (2).

    Two stage optima: Bob's, protocol (1)'s own, and, where his q1b is below
    1, Charlie's on a fresh qubit at the priors Bob's success leaves,
    p1c = (p1 - sqrt(p1 p2) s)/bob and p2c = 1 - p1c.  The value is
    bob*charlie with Charlie's label: case I (p1 > p_c1) where his stationary
    point wins, (1 - 2 sqrt(p1 p2) s)(1 - 2 sqrt(p1c p2c) s); case II
    (p_c2 <= p1 <= p_c1) where he recognizes only state 2,
    (p2 - sqrt(p1 p2) s)(1 - s^2).  Where Bob's q1b is 1 (p1 <= p_c2, which
    the stage decides exactly) he ignores state 1, Charlie learns the state for free, and the result is
    case III with Bob's value p2 (1 - s^2), protocol (1)'s.  The argmax is
    the two stages', and ``boundary_prior`` is p_c1.
    """
    s, p1, p2 = scenario.s, scenario.p1, scenario.p2
    k, p_c1 = s * s, protocol2_critical_priors(s)[0]
    bob, q1b, _ = _stage_optimum(p1, p2, s)
    argmax = {"q1b": q1b, "q2b": k / q1b if q1b > 0.0 else 0.0}
    if q1b == 1.0:
        return PiecewiseResult(bob, CaseLabel.CASE_III, argmax, p_c1)
    p1c = _bob_state1_mass(p1, p2, s, math.sqrt, _pick) / bob
    charlie, q1c, label = _stage_optimum(p1c, 1.0 - p1c, s)
    argmax.update(q1c=q1c, q2c=k / q1c if q1c > 0.0 else 0.0)
    return PiecewiseResult(bob * charlie, label, argmax, p_c1)


def protocol2_optimal_values(s: np.ndarray, p1: np.ndarray) -> np.ndarray:
    """``protocol2_optimal(Scenario(s, p1)).value`` in every lane of valid
    scenarios, by the same two stage calls; a lane with p1c = 0 gets an
    infinite or NaN stationary point and so Charlie's boundary, as there.
    """
    p2 = 1.0 - p1
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        bob, q1b, _ = _stage(p1, p2, s, np.sqrt, np.where)
        p1c = _bob_state1_mass(p1, p2, s, np.sqrt, np.where) / bob
        charlie = _stage(p1c, 1.0 - p1c, s, np.sqrt, np.where)[0]
    return _probabilities(np.where(q1b < 1.0, bob * charlie, bob))


def omega_range(s: float) -> tuple[float, float]:
    """Admissible range [1/(1+s), 1/(1+s^2)] of the cloning parameter."""
    if not 0.0 < s < 1.0:
        raise DomainError(f"cloning parametrization requires 0 < s < 1, got s={s}")
    return 1.0 / (1.0 + s), 1.0 / (1.0 + s * s)


def _clone_working_point(u, s, sqrt, pick) -> tuple:
    """Cloning working point at omega = omega_1 + D*u^2, u in [0, 1], on floats
    (``math.sqrt``, ``_pick``) or on arrays (``np.sqrt``, ``np.where``): the
    fields of ``CloneParams`` as a tuple in their order, then p1'(u).  The
    root search's steps read ``p1_of_omega`` from it at ``_P1_OF_OMEGA`` and
    the slope at ``_SLOPE``, so a ``CloneParams`` is built only at the root.

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

    The slope differentiates these steps in u (primes below): with
    p1 = d2/(d1 + d2) it is p1 q (ln(d2/d1))' over the factors of d2 other
    than 1 - u^2, q = 1 - p1, less q sqrt(gamma2(1-gamma2)) 8su/(d1 + d2)
    for that factor, where gamma1 = h^2/gamma2 and 1 - gamma2 =
    k^2/(1 - gamma1) reduce (ln(d2/d1))' to k'/k, (1 - gamma1)'/(1 - gamma1),
    h'/h and A'/A.  It divides by d1 + d2, not its square, which underflows
    far above d1 + d2 itself.
    """
    a, b, e = 1.0 - s, 1.0 + s, 1.0 + s * s
    c = pick(u > 0.5, (1.0 - u) * (1.0 + u), 1.0 - u * u)  # 1 - u^2 <= 1
    v = a * u * u
    au2 = (a * u) * (a * u)
    bx, cx = 2.0 * s + v, 2.0 - v  # (1+s)(1-x) and (1+s)(1+x)
    one_minus_x, one_minus_y = bx / b, au2 / e
    x = a * c / b
    y = pick(s > 0.5, 1.0 - one_minus_y, c + 2.0 * s * u * u / e)  # x <= y <= 1
    ax = sqrt(bx * cx)  # (1+s) r_x
    w = sqrt(2.0 * e - au2)
    uw = u * w  # (1+s^2) r_y / (1-s)
    rxry = ax / b * (a * uw / e)
    omega = (1.0 + s * v / e) / b
    h, k = 0.5 * (x + y), s * omega
    co_gamma1 = k + 0.5 * ((1.0 + x) * one_minus_y + rxry)
    ratio = k / co_gamma1
    co_gamma2 = co_gamma1 * (ratio * ratio)
    gamma2 = 1.0 - co_gamma2
    ratio = h / (h + 0.5 * (one_minus_x * one_minus_y + rxry))
    gamma1 = gamma2 * (ratio * ratio)
    d1 = sqrt(gamma1 * co_gamma1) * (bx * cx + uw * (2.0 * ax + uw))  # A^2, 4s at u = 0
    r2 = sqrt(gamma2 * co_gamma2)
    d2 = r2 * 4.0 * s * c
    n1, n2 = d2 * gamma1, d1 * gamma2  # p1*gamma1 and p2*gamma2, times d1 + d2
    p_cl, p1_of_omega = (n1 + n2) / (d1 + d2), d2 / (d1 + d2)
    dv = 2.0 * a * u
    dax, duw = dv * (a - v) / ax, 2.0 * (e - au2) / w
    drxry = a / (b * e) * (dax * uw + ax * duw)
    dco_gamma1 = s * s * dv / (e * b) + 0.5 * ((1.0 + x) * a * dv / e - dv / b * one_minus_y + drxry)
    kappa, lam1 = s * dv / (e + s * v), dco_gamma1 / co_gamma1  # k'/k, (1 - gamma1)'/(1 - gamma1)
    dlog = kappa - lam1 - (2.0 * kappa - lam1) * co_gamma2 / gamma2
    dlog += 0.5 * dv * (1.0 / b + a / e) / h - 2.0 * (dax + duw) / (ax + uw)
    q = d1 / (d1 + d2)
    slope = p1_of_omega * q * dlog - q * (r2 * 8.0 * s * u) / (d1 + d2)
    return omega, x, y, gamma1, gamma2, p_cl, p1_of_omega, n1 / (n1 + n2), n2 / (n1 + n2), slope


#: The indices of ``p1_of_omega`` and of p1'(u) in ``_clone_working_point``'s tuple.
_P1_OF_OMEGA = [f.name for f in fields(CloneParams)].index("p1_of_omega")
_SLOPE = len(fields(CloneParams))

#: Most reads of one cloner solve before it raises NumericError.  A
#: figure's lanes take 6 and 20,000 seeded scenarios over the documented
#: domain at most 7; only roots that the working point cannot resolve,
#: far below s = 1e-12, bisect for longer.
_CLONE_STEPS = 64


def _check_prior(found, wanted) -> None:
    """The cloner's accuracy contract: the prior p1(omega) of the working point
    found must reproduce the prior wanted within 1e-9, and NaN fails it.  On
    arrays every lane must, and the first lane that does not raises as a float."""
    _require(abs(found - wanted) <= 1e-9, _stalled_error, found, wanted)


def _stalled_error(found, wanted) -> NumericError:
    return NumericError(f"omega inversion stalled: p1(omega)={found}, wanted {wanted}")


def _check_converged(done, s, p1) -> None:
    """Every lane of a cloner solve that ran out of reads must have stopped,
    for ``_check_prior``'s 1e-9 alone passes any read at a prior below 1e-9;
    the first lane that did not raises as a float."""
    _require(done, _unconverged_error, s, p1)


def _unconverged_error(s, p1) -> NumericError:
    return NumericError(f"cloner solve did not converge in {_CLONE_STEPS} reads: s={s}, p1={p1}")


def _clone_solve(s, p1, sqrt, pick) -> tuple[CloneParams, object]:
    """The optimal cloner for prior p1 at 0 < s < 1, and the u of its working
    point, on floats (``math.sqrt``, ``_pick``) or in every lane of arrays
    (``np.sqrt``, ``np.where``), by the same safeguarded Newton steps on f(u)
    = p1(u) - p1.

    p1(u) falls monotonically and smoothly from 1/2 at u = 0 to 0 at u = 1.
    As s -> 0 it becomes 1/2 - z sqrt(z^2+2)/(2(1+z^2)) with z = u/sqrt(s),
    whose exact inverse starts the steps: u0 = sqrt(s) (sqrt(p2) - sqrt(p1))
    / sqrt(2 sqrt(p1 p2)), cut to 1, with the difference taken as
    (1 - 2 p1)/(sqrt(p2) + sqrt(p1)); a prior of 1/2 starts and ends at u = 0.
    Below p1 = s^2 the root may lie in a layer of width about s at u = 1,
    where p1(u) ~ s^2 2t/(1 + 2t) with t = (1 - u)/s; for s < 0.1 that
    layer's inverse, 1 - s p1/(2(s^2 - p1)), starts the steps where it lies
    above u0.  Each step reads p1(u) and p1'(u) from ``_clone_working_point``
    and narrows the sign bracket, first [0, 1]; a Newton step that leaves the
    bracket, or is not finite, bisects it instead.  A lane stops once
    |f| <= 2^-50 p1, once its bracket holds no float between its ends, once
    it reads NaN (which fails ``_check_prior``), or after one more read once
    a Newton step was at most 1e-8 of the nearer of u and 1 - u (near u = 1
    the prior goes with 1 - u) or left u as it was; a step that small stays
    put rather than leave the bracket.  A stopped lane keeps its u while the
    others go on, so each lane takes the float's steps and ends on its u.  A
    lane still going after ``_CLONE_STEPS`` reads raises NumericError
    (``_check_converged``).  Only the last read becomes a ``CloneParams``,
    which must pass ``_check_prior``.
    """
    p2, ss = 1.0 - p1, s * s
    u = sqrt(s) * ((1.0 - 2.0 * p1) / (sqrt(p2) + sqrt(p1)) / sqrt(2.0 * sqrt(p1 * p2)))
    layer = (p1 < ss) & (ss < 0.01)
    edge = 1.0 - s * p1 / (2.0 * pick(layer, ss - p1, 1.0))
    u = pick(layer & (edge > u), edge, u)
    u = pick(u < 1.0, u, 1.0)
    lo, hi = 0.0 * p1, 1.0 + 0.0 * p1  # 0.0 and 1.0, or shaped like the lanes
    done = small = u < 0.0  # False in every lane
    tol = 2.0**-50 * p1
    for _ in range(_CLONE_STEPS):
        point = _clone_working_point(u, s, sqrt, pick)
        f, slope = point[_P1_OF_OMEGA] - p1, point[_SLOPE]
        lo, hi = pick(f > 0.0, u, lo), pick(f < 0.0, u, hi)
        mid = 0.5 * (lo + hi)
        done = done | small | (abs(f) <= tol) | (mid == lo) | (mid == hi)
        done = done | (f != f)  # NaN fails _check_prior
        if done if isinstance(done, bool) else done.all():
            break
        step = -f / pick(slope < 0.0, slope, math.nan)  # p1 falls: NaN bisects
        new = u + step
        newton = (new > lo) & (new < hi)
        small = (abs(step) <= 1e-8 * pick(u > 0.5, 1.0 - u, u)) | (new == u)
        u = pick(done, u, pick(newton, new, pick(small, u, mid)))
    else:
        _check_converged(done, s, p1)
    params = CloneParams(*point[:_SLOPE])
    _check_prior(params.p1_of_omega, p1)
    return params, u


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
    u = math.sqrt((omega - w1) / (w2 - w1))
    return CloneParams(*_clone_working_point(u, s, math.sqrt, _pick)[:_SLOPE])


def clone_optimal_for_prior(scenario: Scenario) -> CloneParams:
    """The optimal cloner for the scenario's prior, by ``_clone_solve`` on
    floats: Newton steps from the small-s root invert p1(u), and the result
    reproduces the prior within 1e-9.  The cloning optima take this solve
    once per scenario for both of their values (``_cloned_optimum``, by
    ``_clone_for_prior``).

    Far below the documented s >= 1e-12 the steps still find the root, u
    about sqrt(s) (1e-100 at s = 1e-200), until the working point's terms
    underflow.  Below s of about 1e-162 the smaller priors go first, their
    p1(u) underflowing to 0 short of the root, and the solve runs out of
    reads with a NumericError: at s = 1e-170 for p1 = 1e-300, at s = 1e-200
    for priors of 1e-120 and below.  For priors from 1e-20 to 1/2 its terms,
    about s^1.5, turn subnormal and lose the prior, a NumericError below s
    of about 1e-210 to 1e-216; at p1 = 1/2 its denominators underflow to 0
    below s of about 1e-216.
    """
    return _clone_for_prior(scenario)[0]


def _clone_for_prior(scenario: Scenario) -> tuple[CloneParams, float]:
    """``clone_optimal_for_prior``'s cloner and the u in [0, 1] of its working
    point, at which ``bounds._cloning_bounds`` starts its bracket of the
    optimal u; ``CloneParams`` holds no u."""
    s = scenario.s
    omega_range(s)  # raises DomainError unless 0 < s < 1
    try:
        return _clone_solve(s, scenario.p1, math.sqrt, _pick)
    except ZeroDivisionError:
        raise NumericError(f"cloning working point underflows at s={s}") from None


def _clone_optimal_values(s: np.ndarray, p1: np.ndarray) -> CloneParams:
    """``clone_optimal_for_prior`` in every lane at once, for 0 < s < 1, by
    ``_clone_solve`` on arrays: the scalar's Newton steps in u over all
    priors in lockstep; the fields are arrays.  Where the scalar solve fails
    this raises a NumericError too: a lane that runs out of reads fails
    ``_check_converged`` and one whose working point ends off the prior
    fails ``_check_prior`` as there, and one that underflows to 0/0 (s below
    about 1e-216 at p1 = 1/2) stops at its NaN read and fails the latter.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return _clone_solve(s, p1, np.sqrt, np.where)[0]


def _cloned_stage_values(s: np.ndarray, p1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The optimal cloner's success probability p_cl and one copy's
    discrimination optimum, in every lane of valid scenarios.  At s = 0 and
    s = 1, as in ``_cloned_optimum``, cloning succeeds and leaves the prior:
    the cloner solves every lane, those two masked to (s, p1) = (1/2, 1/2),
    which stop at u = 0 on their first read, and then take p_cl = 1 and
    their own prior back.
    """
    inner = (s > 0.0) & (s < 1.0)
    cp = _clone_optimal_values(np.where(inner, s, 0.5), np.where(inner, p1, 0.5))
    p_cl = np.where(inner, cp.p_cl, 1.0)
    p1_cl, p2_cl = np.where(inner, cp.p1_cl, p1), np.where(inner, cp.p2_cl, 1.0 - p1)
    return p_cl, _stage_optimum_values(p1_cl, p2_cl, s)


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


def _cloned_optimum(scenario: Scenario) -> tuple[PiecewiseResult, PiecewiseResult, float]:
    """The cloning protocol's two optima, (both succeed, at least one
    succeeds), from one solve of the optimal cloner for the prior and one
    copy's stage optimum at the priors conditioned on cloning success, and
    the u of the cloner's working point.  The case is the copy's, and both
    results carry the same argmax.

    At s = 0 and s = 1 cloning always succeeds and leaves the prior, with
    omega = 1/(1+s), which is u = 0, so the copy's stage runs at the
    scenario's own priors.
    """
    s = scenario.s
    if 0.0 < s < 1.0:
        cp, u = _clone_for_prior(scenario)
        omega, gamma1, gamma2, p_cl = cp.omega, cp.gamma1, cp.gamma2, cp.p_cl
        p1_cl, p2_cl = cp.p1_cl, cp.p2_cl
    else:
        omega, gamma1, gamma2, p_cl, u = 1.0 / (1.0 + s), 1.0, 1.0, 1.0, 0.0
        p1_cl, p2_cl = scenario.p1, scenario.p2
    disc, q1, label = _stage_optimum(p1_cl, p2_cl, s)
    argmax = {
        "omega": omega, "gamma1": gamma1, "gamma2": gamma2, "p_cl": p_cl, "p1_cl": p1_cl,
        "q1b": q1, "q1c": q1,
    }
    return (
        PiecewiseResult(_both_succeed(p_cl, disc), label, argmax),
        PiecewiseResult(_at_least_one_succeeds(p_cl, disc), label, dict(argmax)),
        u,
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
    return _stage_result(scenario, scenario.s, ("q1_product", "q2_product"))


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
