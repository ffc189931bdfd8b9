"""Brute-force grid maximizers and exact bounds certifying every closed-form optimum.

Each oracle evaluates the defining objective on a dense grid of the feasible
set (boundaries always included, since the optima frequently sit at q = 1)
and refines around the best point.  They share nothing with the piecewise
closed forms beyond the objective definitions themselves, with one
exception: protocol (2)'s oracle takes Bob's side of his case boundary from
the closed form's exact test, ``ssd._interior``.  At p_c2 his objective's
slope at q1b = 1 changes sign, and within an ulp or two of that tie the
rounded slope can take either side of protocol (2)'s jump, which no grid
can resolve.

The grids are fixed: every scan takes ``_SCAN_POINTS`` points and is
refined by ``_REFINEMENT_PASSES`` rescans of ``_SCAN_POINTS`` points over
the window one grid step either side of the best point
(``core.window_scan_max``), and every one-stage maximum (a cloned copy's
too) is ``_grid_max_stage``'s. Every refinement calls the same array
objective as its first scan. The stage and cloning scans evaluate it by a
lane body (``_stage_lanes``, ``_cloning_lanes``): the expression's
operations in its order, written into buffers made once per scan, so each
lane is the expression's float, and a pass allocates no array.
``certify`` compares each closed form with its reference and flags a gap
above its ``tolerance``. It runs scenario by scenario, and each certifier it
needs runs once per scenario for all the quantities it covers: the two
cloning rows share one solve of the optimal cloner and one cloning oracle.
That oracle scans gamma1 and takes each point's gamma2 from the cloning
constraint's better root in closed form, a line meeting the unit circle
(``_cloning_objective``), by correctly rounded operations alone. A
certifier returns one (quantity, gap) pair per comparison, such as each of
a stage's two overlaps, and ``certify``'s fold alone reduces the pairs to
each row's worst gap: a NaN gap ranks above every number, so it fails its
row, and of equal gaps the first is kept.

Five rows are certified without a scan, by exact bounds in integers: Bob,
Charlie, protocol (1), the union (``at_least_one_ssd``) and the joint. The
first three are single stages, at the flag overlaps s/t (exact), t and s,
and so is the union: every feasible (t, q1b, q1c) has Q1*Q2 = s^2 for the
products Qi = qib*qic, so its optimum is the stage's at s. A stage's L is
its success at the closed form's argmax, and U its semidefinite dual bound
(``_stage_bounds``). The joint's optimum is the maximum over u in [s, 1] of
one function g(u), whose stationary points are the roots of q*'s quartic:
L is g at the closed form's q1b, and U comes from a Sturm count of the
quartic's roots and a bracket of floats around its middle one
(``joint_certificate``). All five take one gap rule (``_exact_gap``):
max(|v - L|, |v - U|), which bounds the closed form's distance from the
optimum itself, and fails the row where v is not finite, where L > U, or
where the closed form's argmax is no feasible point.
By the same reductions the union's and the joint's maxima over the whole
(t, q1b, q1c) box lie on its diagonal t = sqrt(s), q1b = q1c = u, u in [s,
1]: there Q1 = u^2 takes every value in [s^2, 1], and the joint equals
g(u). So ``grid_maximize_union_ssd`` and ``grid_maximize_joint`` are 1-D
scans of that diagonal (``_max_diagonal``). The tests keep them, and
``grid_maximize_bob`` and ``grid_maximize_charlie``, as the certificates'
brute-force cross-checks; they hold a 3-D scan of the box as their own
reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .core import (
    ConstraintError,
    DomainError,
    NumericError,
    Scenario,
    _is_real,
    _primitive,
    _quantity_names,
    _root_bracket,
    _root_count,
    _sturm_chain,
    check_overlap_t,
    window_scan_max,
)
from .protocols import _cloned_optimum, at_least_one_ssd, protocol1_optimal, protocol2_optimal
from .ssd import _interior, bob_optimal, charlie_optimal, joint_optimal

#: Grid points of each scan and of each of its refinements.
_SCAN_POINTS = 2001
#: Refinement rounds after every grid scan; each narrows the search window.
_REFINEMENT_PASSES = 2

#: Bits of the rational just below sqrt(p1*p2) in a stage's case-I dual point.
_DUAL_BITS = 200

#: Standard certification grid.
CERT_S_VALUES = (0.04, 0.1716, 0.2, 0.36, 0.6)
CERT_P1_VALUES = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5)


def _lane_buffers(count: int) -> Callable[[np.ndarray], list[np.ndarray]]:
    """A lane body's buffers: ``take(xs)`` gives ``count`` float arrays of xs'
    length, made on the first call and made again only when the length
    changes, so every pass of a scan writes into the same ones."""
    held: list[np.ndarray] = []

    def take(xs: np.ndarray) -> list[np.ndarray]:
        if not held or len(held[0]) != len(xs):
            held[:] = [np.empty(len(xs)) for _ in range(count)]
        return held

    return take


def _stage_lanes(p1: float, p2: float, r: float) -> Callable[[np.ndarray], np.ndarray]:
    """One stage's success as a function of q1, p1*(1 - q) + p2*(1 - r^2/q)
    (q2 = 0 where r = 0), as a lane body: the expression's operations in its
    order, each written into buffers made once per scan (``_lane_buffers``),
    so every lane is the expression's float. Returns its value buffer, which
    the next call overwrites."""
    r2 = r * r
    take = _lane_buffers(2)

    def values(q: np.ndarray) -> np.ndarray:
        value, rest = take(q)
        np.subtract(1.0, q, out=value)
        np.multiply(p1, value, out=value)  # p1 * (1 - q)
        if r2 == 0:  # orthogonal flags: q2 = 0
            return np.add(value, p2, out=value)
        np.divide(r2, q, out=rest)
        np.subtract(1.0, rest, out=rest)
        np.multiply(p2, rest, out=rest)  # p2 * (1 - r2 / q)
        return np.add(value, rest, out=value)

    return values


def _grid_max_stage(p1: float, p2: float, r: float) -> tuple[float, float]:
    """The one-stage oracle: (max, argmax) of the stage's success on [r^2,
    1], scanned by its lane body (``_stage_lanes``)."""
    q1, value = window_scan_max(_stage_lanes(p1, p2, r), r * r, 1.0, _SCAN_POINTS, _REFINEMENT_PASSES)
    return value, q1


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
    # integer literals, so that Fractions stay exact (floats and arrays round
    # as with 1.0)
    return p1 * (1 - q1b) * (1 - q1c) + p2 * (1 - q2b) * (1 - q2c)


def _union_term(q1b, q2b, q1c, q2c, p1, p2):
    # integer literals, so that Fractions stay exact (floats and arrays round
    # as with 1.0)
    return p1 * (1 - q1b * q1c) + p2 * (1 - q2b * q2c)


def _max_diagonal(scenario: Scenario, term: Callable) -> tuple[float, float, float, float]:
    """(max, t, q1b, q1c) of a two-stage objective on the diagonal t =
    sqrt(s), q1b = q1c = u of the (t, q1b, q1c) box: one window scan of
    ``term`` at (u, s/u, u, s/u) over u in [s, 1], with q2 = 0 at s = 0."""
    s, p1, p2 = scenario.s, scenario.p1, scenario.p2

    def values(u):
        q2 = s / u if s else 0.0  # u = 0 is on the grid at s = 0
        return term(u, q2, u, q2, p1, p2)

    u, value = window_scan_max(values, s, 1.0, _SCAN_POINTS, _REFINEMENT_PASSES)
    return value, math.sqrt(s), u, u


def grid_maximize_joint(scenario: Scenario) -> tuple[float, float, float, float]:
    """Brute-force maximum of the joint success over the whole (t, q1b, q1c)
    box, by a scan of the diagonal that holds it (``_max_diagonal``).

    For a, b in [0, 1], (1 - a)(1 - b) <= (1 - sqrt(ab))^2, and every
    feasible point has Q1*Q2 = s^2 for the products Qi = qib*qic. So with u
    = sqrt(Q1) in [s, 1] the joint success is at most p1*(1 - u)^2 +
    p2*(1 - s/u)^2, which t = sqrt(s), q1b = q1c = u attains: the box's
    maximum is on that diagonal (``joint_certificate`` bounds it exactly).
    The argmax u is near sqrt(s) at small s, and the scan's grid is linear
    in u, with a last step of about 5e-10: it is within 1e-14 of the
    maximum down to s = 1e-12, and 5e-10 below it at (s, p1) = (1e-30,
    1/2), where sqrt(s) lies within the first step."""
    return _max_diagonal(scenario, _joint_term)


def grid_maximize_union_ssd(scenario: Scenario) -> tuple[float, float, float, float]:
    """Brute-force maximum of P(at least one succeeds) over the whole (t, q1b,
    q1c) box, by a scan of the diagonal that holds it (``_max_diagonal``).

    Every feasible point has Q1*Q2 = s^2 for the products Qi = qib*qic, so
    the union p1*(1 - Q1) + p2*(1 - s^2/Q1) depends on Q1 alone, over [s^2,
    1]. The diagonal t = sqrt(s), q1b = q1c = u takes every such Q1 = u^2
    (``_stage_bounds`` at r = s bounds its maximum exactly)."""
    return _max_diagonal(scenario, _union_term)


def grid_maximize_protocol2(scenario: Scenario) -> tuple[float, float, float]:
    """Brute-force value of protocol (2): Bob's stage maximized first, then
    Charlie's stage at the induced conditional priors.

    Bob's objective is concave in q1b with slope p2 s^2 - p1 at q1b = 1, so he
    takes that boundary exactly where the slope is not negative, where his
    stationary point is not below 1. Within an ulp or two of that tie the
    rounded slope can take the wrong side of protocol (2)'s jump, so the side
    is the closed form's exact test, ``ssd._interior``. At the boundary his
    success implies state 2 and Charlie needs no measurement; the Charlie
    coordinate is then reported as NaN.  That side takes s = 1 too, so inside
    s < 1 and Bob's grid maximum is at least p2 (1 - s^2) > 0, q1b = 1 being
    on the grid: his success always leaves Charlie a prior.
    """
    s, p1, p2 = scenario.s, scenario.p1, scenario.p2
    if not _interior(p1, s):
        return p2 * (1.0 - s * s), 1.0, math.nan
    bob_val, q1b = _grid_max_stage(p1, p2, s)
    q2b = s * s / q1b if q1b > 0.0 else 0.0  # q1b = 0 only at s = 0, the r = 0 limit
    charlie_val, q1c = _conditioned_stage(p1 * (1.0 - q1b), p2 * (1.0 - q2b), s)
    return bob_val * charlie_val, q1b, q1c


def _cloning_objective(g1, s, p1, p2, sqrt, minimum, roots=False):
    """p1*gamma1 + p2*gamma2 at the better root of the cloning constraint, for
    g1 in [0, 1] and 0 < s < 1, on floats (``math.sqrt``, ``min``) or on
    arrays (``np.sqrt``, ``np.minimum``); with ``roots``, the tuple (value,
    gamma2, sqrt(1 - gamma2)).

    The constraint (Duan and Guo, Phys. Rev. Lett. 80, 4999 (1998)) is
    s = s^2*sqrt(gamma1*gamma2) + sqrt((1 - gamma1)(1 - gamma2)). At fixed
    gamma1 = g1 it is the line A*x + B*y = s, with A = s^2*sqrt(g1) and
    B = sqrt(1 - g1), on the unit circle of (x, y) = (sqrt(gamma2),
    sqrt(1 - gamma2)). Its roots are (A*s +- B*sqrt(R), B*s -+ A*sqrt(R)) / h2,
    with h2 = A^2 + B^2 = s^4*g1 + (1 - g1), a sum of nonnegatives, and
    R = h2 - s^2 = (1 - s^2)*((1 - g1) - s^2*g1), formed as that product with
    1 - s^2 = (1 - s)(1 + s). Only the last factor cancels, near the tangent
    point g1 = 1/(1 + s^2), and its error of an ulp of 1 - g1 is scaled by
    1 - s^2 with R: the sum (1 - g1) - s^2*(1 - s^2*g1) leaves it unscaled,
    which costs digits as s -> 1, and (1 - s^2) - (1 - s^4)*g1 loses s^2's
    digits as s -> 0.

    The "+" root is the better one: A*s >= 0, so its x is at least the
    other's |x|, after rounding too, and x^2 rises with x >= 0. It is a
    root wherever R >= 0: x >= 0, and B*s >= A*sqrt(R) since s >= A. Past
    the tangent point R < 0, where an array lane's value is NaN
    (``_cloning_lanes`` makes it -inf) and ``math.sqrt`` raises on a float.
    x is clipped at 1 by ``minimum``, which passes NaN through, so a point
    with no root never takes x = 1. Every step is +, -, *, / or a square
    root, each correctly rounded, so a float and the lane that holds it
    agree bit for bit, on every CPU and numpy.

    The scans take the value from the lane body ``_cloning_lanes``, which
    makes these same operations in the same order into its own buffers;
    ``tests/test_oracle.py::TestLaneBodies`` holds the two together bit for
    bit (``test_cloning_lanes_are_the_expression``), so an edit here must be
    made there too.
    """
    ss = s * s
    co_g1 = 1.0 - g1
    den = ss * ss * g1 + co_g1  # A^2 + B^2
    root = sqrt((1.0 - s) * (1.0 + s) * (co_g1 - ss * g1))  # sqrt(R)
    sqrt_g1, b = sqrt(g1), sqrt(co_g1)
    x = minimum((sqrt_g1 * (s * ss) + b * root) / den, 1.0)
    value = p1 * g1 + p2 * (x * x)
    if not roots:
        return value
    return value, x * x, (b * s - sqrt_g1 * ss * root) / den


def _cloning_lanes(s: float, p1: float, p2: float) -> Callable[[np.ndarray], np.ndarray]:
    """``_cloning_objective``'s value as a lane body, -inf where the constraint
    has no root: the expression's operations in its order, each written into
    buffers made once per scan (``_lane_buffers``), so every lane is the
    float body's value bit for bit. Returns its value buffer, which the next
    call overwrites."""
    ss = s * s
    ss_ss, s_ss, one_minus_ss = ss * ss, s * ss, (1.0 - s) * (1.0 + s)
    take = _lane_buffers(3)

    def values(g1: np.ndarray) -> np.ndarray:
        co_g1, den, x = take(g1)
        with np.errstate(invalid="ignore", divide="ignore"):
            np.subtract(1.0, g1, out=co_g1)
            np.multiply(ss_ss, g1, out=den)
            np.add(den, co_g1, out=den)  # A^2 + B^2
            np.multiply(ss, g1, out=x)
            np.subtract(co_g1, x, out=x)
            np.multiply(one_minus_ss, x, out=x)
            np.sqrt(x, out=x)  # sqrt(R)
            np.multiply(np.sqrt(co_g1, out=co_g1), x, out=co_g1)  # b * sqrt(R)
            np.multiply(np.sqrt(g1, out=x), s_ss, out=x)
            np.add(x, co_g1, out=x)
            np.divide(x, den, out=x)
        np.minimum(x, 1.0, out=x)
        np.multiply(x, x, out=x)
        np.multiply(p2, x, out=x)
        np.multiply(p1, g1, out=den)
        np.add(den, x, out=den)
        return np.fmax(den, -np.inf, out=den)

    return values


def grid_maximize_cloning(scenario: Scenario) -> tuple[float, float, float]:
    """Brute-force maximum of p1*gamma1 + p2*gamma2 on the cloning constraint
    manifold, parametrized by gamma1, each point at its better constraint
    root (``_cloning_objective``). The scans take the array form; the
    argmax's gamma2 and sqrt(1 - gamma2) come from one float call, whose
    value is the scan's bit for bit."""
    s, p1, p2 = scenario.s, scenario.p1, scenario.p2
    if s in (0.0, 1.0):
        return 1.0, 1.0, 1.0

    g1, value = window_scan_max(_cloning_lanes(s, p1, p2), 0.0, 1.0, _SCAN_POINTS, _REFINEMENT_PASSES)
    _, g2, co_root = _cloning_objective(g1, s, p1, p2, math.sqrt, min, roots=True)
    residual = s - math.sqrt(g1 * g2) * s * s - math.sqrt(1.0 - g1) * co_root
    if abs(residual) > 1e-10:
        raise NumericError(f"cloning oracle argmax violates the constraint at gamma1={g1}")
    return value, g1, g2


def _exceeds(x, y) -> bool:
    """x > y for (numerator, denominator) pairs with positive denominators,
    by cross-multiplication."""
    return x[0] * y[1] > y[0] * x[1]


def _stage_bounds(p1, p2, x, y, q1):
    """Exact (lower, upper) bounds on the optimum of one stage at flag overlap
    r = x/y, each an integer (numerator, denominator) pair with a positive
    denominator, for floats, ints or ``Fraction``s taken exactly.

    The lower bound is the stage's success at the reported q1, p1*(1 - q1) +
    p2*(1 - r^2/q1) (q2 = 0 where r = 0). The upper bound is a semidefinite
    dual bound. The stage maximizes p1*x1 + p2*x2 over success probabilities
    with Gamma - diag(x) PSD, Gamma = [[1, r], [r, 1]] (Eldar, IEEE Trans.
    Inf. Theory 49, 446 (2003)). By weak duality any Z = [[a, -c], [-c, b]]
    with a >= p1, b >= p2, c >= 0 and c^2 <= a*b bounds it by a + b - 2*r*c.
    Case I takes (p1, p2, c) with c the 2^-200 multiple just below
    sqrt(p1*p2); case II takes (r^2*p2, p2, r*p2), which gives p2*(1 - r^2)
    exactly and is feasible where p1 <= r^2*p2. The bound is the least of
    the feasible ones.
    """
    (a, aa), (b, bb), (xn, xd), (yn, yd) = (v.as_integer_ratio() for v in (p1, p2, x, y))
    rn, rd = xn * yd, xd * yn
    r2n, r2d = rn * rn, rd * rd
    qn, qd = q1.as_integer_ratio() if math.isfinite(q1) else (-1, 1)  # NaN and inf: infeasible
    if not (r2n * qd <= qn * r2d and qn <= qd):
        raise ConstraintError(f"q1={float(q1)!r} outside [r^2, 1] for r={rn / rd!r}")
    if rn:
        lower = (a * (qd - qn) * bb * r2d * qn + b * (r2d * qn - r2n * qd) * aa * qd, aa * qd * bb * r2d * qn)
    else:  # orthogonal flags: q2 = 0
        lower = (a * (qd - qn) * bb + b * aa * qd, aa * bb * qd)
    c = math.isqrt((a * b << 2 * _DUAL_BITS) // (aa * bb))  # times 2^-200
    upper = (((a * bb + b * aa) * rd << _DUAL_BITS) - 2 * rn * c * aa * bb, aa * bb * rd << _DUAL_BITS)
    if a * bb * r2d <= r2n * b * aa:  # p1 <= r^2*p2
        boundary = (b * (r2d - r2n), bb * r2d)
        if _exceeds(upper, boundary):
            upper = boundary
    return lower, upper


def joint_certificate(
    p1: float, p2: float, s: float, q: float, near: float | None = None
) -> tuple[Fraction, Fraction]:
    """(lower, upper) bounds, as ``Fraction``s, on the joint optimum over the
    whole (t, q1b, q1c) box, for the float priors p1 > 0 and p2, overlap s
    and reported q1b = q1c = q.

    For a, b in [0, 1], (1 - a)(1 - b) <= (1 - sqrt(ab))^2. Every feasible
    point has Q1*Q2 = s^2 for the products Qi = qib*qic, so with u =
    sqrt(Q1) in [s, 1] the joint success is at most g(u) =
    p1*(1 - u)^2 + p2*(1 - s/u)^2, which t = sqrt(s), q1b = q1c = u attains:
    the optimum is max g on [s, 1]. g'(u) = 2h(u)/u^3 with the quartic
    h(u) = p1*u^4 - p1*u^3 + p2*s*u - p2*s^2 of q*, and h(s) < 0 < h(1) for
    0 < s < 1, so an interior maximum of g is a root where h goes from + to
    -, which takes three roots in [s, 1] (then all simple), and then is the
    middle one.

    The lower bound is g(q), the value at a feasible point (t = sqrt(s)
    exactly). The upper bound is max(g(s), g(1)) where a Sturm count finds
    fewer than three roots. With three, the adjacent floats a < b around
    the middle root (``_root_bracket``) add g(a), g(b) and p1*(1 - a)^2 +
    p2*(1 - s/b)^2: g is at most its end values on [s, a] and on [b, 1],
    which hold no maximum, and on [a, b] at most that sum, as one term falls
    in u and the other rises. The bracket's search starts at ``near`` (q by
    default); the bounds do not depend on it, but a start far from the root
    costs more Sturm counts. At s = 0 the optimum is p1 + p2, and at s = 1
    it is g(1) = 0. A q outside [s, 1] is no feasible point, so it bounds
    nothing and is a ``ConstraintError``.
    """
    (ln, ld), (un, ud) = _joint_bounds(p1, p2, s, q, q if near is None else near)
    return Fraction(ln, ld), Fraction(un, ud)


def _joint_bounds(p1: float, p2: float, s: float, q: float, near: float):
    """``joint_certificate``'s (lower, upper), each an exact integer
    (numerator, denominator) pair with a positive denominator, its bracket
    started at ``near``."""
    if not s <= q <= 1.0:
        raise ConstraintError(f"q={q!r} outside [s, 1] for s={s!r}")
    (a, aa), (b, bb), (sn, sd) = (v.as_integer_ratio() for v in (p1, p2, s))

    def g(x, y):  # p1*(1 - x)^2 + p2*(1 - s/y)^2
        (xn, xd), (yn, yd) = x.as_integer_ratio(), y.as_integer_ratio()
        first, second = aa * xd * xd, bb * (sd * yn) ** 2
        return a * (xd - xn) ** 2 * second + b * (sd * yn - sn * yd) ** 2 * first, first * second

    if not sn:  # orthogonal states: q2 = 0, so g(u) = p1*(1 - u)^2 + p2 at any y
        return g(q, 1.0), g(0.0, 1.0)
    candidates = [g(s, s), g(1.0, 1.0)]
    if sn < sd:  # q*'s quartic times p1*p2*s^2's denominators, in integers
        h = [a * bb * sd * sd, -a * bb * sd * sd, 0, b * sn * aa * sd, -b * sn * sn * aa]
        chain = _sturm_chain(_primitive(h))
        if _root_count(chain, s, 1) >= 3:
            lo, hi = _root_bracket(chain, s, 1.0, 2, near)
            candidates += [g(lo, lo), g(hi, hi), g(lo, hi)]
    upper = candidates[0]
    for x in candidates[1:]:
        if _exceeds(x, upper):
            upper = x
    return g(q, q), upper


def stage_certificate(p1, p2, r, q1) -> tuple[Fraction, Fraction]:
    """(lower, upper) bounds, as ``Fraction``s, on the optimum of one stage at
    flag overlap r with priors p1 and p2 (``_stage_bounds``). Each argument
    is a float or a ``Fraction``, taken exactly; a ``Fraction`` r keeps an
    overlap such as Bob's s/t exact. A q1 outside [r^2, 1], NaN or infinite
    too, is no feasible point, so it bounds nothing and is a
    ``ConstraintError``."""
    (ln, ld), (un, ud) = _stage_bounds(p1, p2, r, 1, q1)
    return Fraction(ln, ld), Fraction(un, ud)


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


def _cert_stage(
    sc: Scenario, name: str, closed_form: Callable, q1_name: str, overlap: Callable
) -> list[tuple[str, float]]:
    """The gaps of a single-stage optimum at the overlaps t = sqrt(s) and
    (1 + s)/2 in [s, 1], one pair each, less t = 0 (at s = 0), where no
    stage is defined: its value against the stage's exact bounds
    (``_exact_gap``) at its argmax ``q1_name`` and the flag overlap x/y for
    (x, y) = ``overlap(s, t)``."""
    pairs = []
    for t in (math.sqrt(sc.s), 0.5 * (1.0 + sc.s)):
        if t > 0.0:
            result = closed_form(sc, t)
            bounds = (sc.p1, sc.p2, *overlap(sc.s, t), result.argmax[q1_name])
            pairs.append((name, _exact_gap(result.value, _stage_bounds, *bounds)))
    return pairs


def _cert_at_s(sc: Scenario, name: str, closed_form: Callable, q1_name: str) -> list[tuple[str, float]]:
    """The gap of an optimum that is the stage's at flag overlap s: its value
    against that stage's exact bounds (``_exact_gap``) at its argmax
    ``q1_name``."""
    result = closed_form(sc)
    return [(name, _exact_gap(result.value, _stage_bounds, sc.p1, sc.p2, sc.s, 1.0, result.argmax[q1_name]))]


def _cert_cloning(sc: Scenario) -> list[tuple[str, float]]:
    """Gaps of both cloning optima, from one solve of the optimal cloner and
    one cloning oracle: each combines the oracle's success p_cl with one
    copy's stage maximum disc at the priors p1*gamma1 : p2*gamma2 it
    conditions. The oracle's p_cl, gamma1 and gamma2 come from the
    constraint's root by +, -, *, / and square roots alone
    (``_cloning_objective``), each correctly rounded, so both gaps are the
    same on every CPU and numpy. They are the 1-D scan's argmax resolution on
    a flat top: its gamma1, up to about 2e-8 from the optimum's, moves p_cl
    by an ulp or two but disc's priors to first order."""
    both, at_least_one = _cloned_optimum(sc)
    p_cl, g1, g2 = grid_maximize_cloning(sc)
    disc = _conditioned_stage(sc.p1 * g1, sc.p2 * g2, sc.s)[0]
    return [
        ("protocol3", abs(both.value - p_cl * disc * disc)),
        ("at_least_one_p3", abs(at_least_one.value - p_cl * (1.0 - (1.0 - disc) * (1.0 - disc)))),
    ]


def _exact_gap(value: float, bounds: Callable, *args) -> float:
    """max(|v - L|, |v - U|) for the exact bounds (L, U) = ``bounds(*args)``
    on an optimum, integer (numerator, denominator) pairs with positive
    denominators, which bounds |v - optimum| wherever L <= U: compared by
    cross-multiplication and rounded once, by int true division, which is
    correctly rounded as ``float(Fraction)`` is. L > U, or an argmax that the
    bounds reject as no feasible point (``ConstraintError``), is an infinite
    gap; a NaN or infinite value is a NaN or infinite gap."""
    if not math.isfinite(value):
        return abs(value)
    try:
        lower, upper = bounds(*args)
    except ConstraintError:
        return math.inf
    if _exceeds(lower, upper):
        return math.inf
    vn, vd = value.as_integer_ratio()
    below, above = ((abs(vn * d - n * vd), vd * d) for n, d in (lower, upper))
    gap = above if _exceeds(above, below) else below
    return gap[0] / gap[1]


def _cert_joint(sc: Scenario) -> list[tuple[str, float]]:
    """The joint's value against ``joint_certificate``'s exact bounds on its
    optimum (``_exact_gap``), at the closed form's q1b, with the bracket of
    q*'s root started from its q*, which case II reports too."""
    result = joint_optimal(sc, compute_boundary=False)
    q = result.argmax["q1b"]
    near = result.argmax.get("q_star", q)
    return [("joint", _exact_gap(result.value, _joint_bounds, sc.p1, sc.p2, sc.s, q, near))]


# Each certifier maps a scenario to a list of (quantity, gap) pairs, one per
# comparison of a closed form with its reference, and is listed under each
# quantity it covers; ``certify``'s fold is the one place that reduces them
# to a row's worst gap. The lambdas look each closed form and oracle up when
# called, so a rebound module name (such as the benchmark's tracer installs)
# is seen. The two cloning combinations are written here apart from
# protocols', so that a slip in either shows as a gap. The five exact rows
# share one gap rule (``_exact_gap``): Bob, Charlie and protocol (1), which
# is Bob's stage at t = 1, take the stage's bounds at the flag overlaps s/t
# (exact), t and s; the union, whose closed-form argmax (1, q1_product, 1)
# is that stage's point q1 = q1_product at s, takes them at s too; and the
# joint takes ``joint_certificate``'s.
_CERTIFIERS: dict[str, Callable[[Scenario], list[tuple[str, float]]]] = {
    "bob": lambda sc: _cert_stage(sc, "bob", bob_optimal, "q1b", lambda s, t: (s, t)),
    "charlie": lambda sc: _cert_stage(sc, "charlie", charlie_optimal, "q1c", lambda s, t: (t, 1.0)),
    "joint": _cert_joint,
    "protocol1": lambda sc: _cert_at_s(sc, "protocol1", protocol1_optimal, "q1b"),
    "protocol2": lambda sc: [("protocol2", abs(protocol2_optimal(sc).value - grid_maximize_protocol2(sc)[0]))],
    "protocol3": _cert_cloning,
    "at_least_one_p3": _cert_cloning,
    "at_least_one_ssd": lambda sc: _cert_at_s(sc, "at_least_one_ssd", at_least_one_ssd, "q1_product"),
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
    would pass anything, and is rejected; so is a tolerance that is not a
    real number (``core._is_real``: a bool is not), a quantity named twice,
    whose second row would repeat the first (the quantities follow
    ``core._quantity_names``' rule), and a grid that is not a flat sequence
    of real numbers, such as a bare number, a string, a list of strings or
    of bools, or a nested list."""
    if not (_is_real(tolerance) and 0.0 < tolerance < math.inf):  # NaN fails too
        raise DomainError(f"tolerance={tolerance!r} must be positive and finite")
    for name, values in (("s_values", s_values), ("p1_values", p1_values)):
        try:
            flat = np.ndim(values) == 1  # 0 for a number or a str
        except ValueError:  # a ragged nested sequence
            flat = False
        if not (flat and all(_is_real(v) for v in values)):
            raise DomainError(f"{name}={values!r} must be a sequence of numbers")
    if len(s_values) == 0 or len(p1_values) == 0:
        raise DomainError("certify needs at least one s value and one p1 value")
    names = _quantity_names(_CERTIFIERS if quantities is None else quantities, _CERTIFIERS)
    certifiers = dict.fromkeys(_CERTIFIERS[name] for name in names)  # each once, in order
    worst = dict.fromkeys(names, (-1.0, (math.nan, math.nan)))
    for s in s_values:
        for p1 in p1_values:
            sc = Scenario(s, p1)
            for fn in certifiers:
                for name, gap in fn(sc):
                    # a NaN gap fails every comparison: it ranks above any number
                    rank = (math.isnan(gap), gap)
                    if name in worst and rank > (math.isnan(worst[name][0]), worst[name][0]):
                        worst[name] = (gap, (s, p1))
    return [CertificationRow(name, *worst[name], tolerance) for name in names]
