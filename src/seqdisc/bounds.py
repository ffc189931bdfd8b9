"""Exact bounds on the optima that ``oracle.certify`` holds five closed forms
to, and the gap rule that compares a closed form with them.

Every bound is an integer (numerator, denominator) pair with a positive
denominator, formed from floats taken exactly (``as_integer_ratio``) and
compared by cross-multiplication (``_exceeds``): the one exact form in
``src/``. ``ssd._interior``'s side test cross-multiplies such pairs too, but
in ``ssd``, since no closed form's path imports this module. The five rows
are Bob, Charlie, protocol (1), the union (``at_least_one_ssd``) and the
joint; the two cloning rows take a cloned copy's stage maximum from the
stage bound too.

One stage (``_stage_bounds``). Bob, Charlie and protocol (1) are single
stages, at the flag overlaps s/t (exact, as the pair x/y), t and s, and so
is the union: every feasible (t, q1b, q1c) has Q1*Q2 = s^2 for the products
Qi = qib*qic, so p1*(1 - Q1) + p2*(1 - s^2/Q1) depends on Q1 alone, over
[s^2, 1], and its optimum is the stage's at r = s. The lower bound is the
stage's success at the reported q1, p1*(1 - q1) + p2*(1 - r^2/q1) (q2 = 0
where r = 0). The upper bound is a semidefinite dual bound. The stage
maximizes p1*x1 + p2*x2 over success probabilities with Gamma - diag(x) PSD,
Gamma = [[1, r], [r, 1]] (Eldar, IEEE Trans. Inf. Theory 49, 446 (2003)).
By weak duality any Z = [[a, -c], [-c, b]] with a >= p1, b >= p2, c >= 0 and
c^2 <= a*b bounds it by a + b - 2*r*c. Case I takes (p1, p2, c) with c the
2^-200 multiple just below sqrt(p1*p2) (``_DUAL_BITS``); case II takes
(r^2*p2, p2, r*p2), which gives p2*(1 - r^2) exactly and is feasible where
p1 <= r^2*p2. The bound is the least of the feasible ones
(``_stage_upper``). It has a second user: a cloned copy's stage is one
stage too, at r = s and the priors p1*gamma1 : p2*gamma2 that the cloning
oracle leaves, and there the bound is the optimum itself, so
``oracle._cert_cloning`` takes that stage's maximum from it instead of a
scan (``_stage_upper``'s docstring says why).

The joint (``_joint_bounds``). For a, b in [0, 1], (1 - a)(1 - b) <= (1 -
sqrt(ab))^2, so with u = sqrt(Q1) in [s, 1] the joint success is at most
g(u) = p1*(1 - u)^2 + p2*(1 - s/u)^2, which t = sqrt(s), q1b = q1c = u
attains: the optimum is max g on [s, 1]. So the joint's and the union's
maxima over the whole (t, q1b, q1c) box lie on its diagonal t = sqrt(s),
q1b = q1c = u, u in [s, 1], where Q1 = u^2 takes every value in [s^2, 1].
g'(u) = 2h(u)/u^3 with the quartic h(u) = p1*u^4 - p1*u^3 + p2*s*u -
p2*s^2 of q*, and h(s) < 0 < h(1) for 0 < s < 1, so an interior maximum of
g is a root where h goes from + to -, which takes three roots in [s, 1]
(then all simple), and then is the middle one. The lower bound is g(q), the
value at a feasible point (t = sqrt(s) exactly). The upper bound is
max(g(s), g(1)) where a Sturm count finds fewer than three roots. With
three, the adjacent floats a < b around the middle root add g(a), g(b) and
p1*(1 - a)^2 + p2*(1 - s/b)^2: g is at most its end values on [s, a] and on
[b, 1], which hold no maximum, and on [a, b] at most that sum, as one term
falls in u and the other rises. At s = 0 the optimum is p1 + p2, and at
s = 1 it is g(1) = 0.

The Sturm chain of an integer polynomial (``_sturm_chain``) counts its
distinct real roots in an interval (``_root_count``), each member evaluated
exactly at a float, and brackets one between adjacent floats by such counts
alone (``_root_bracket``).

The gap (``_exact_gap``). A value v against exact bounds (L, U) on its
optimum has the gap max(|v - L|, |v - U|), which bounds v's distance from
the optimum wherever L <= U. It is infinite where L > U or where the
reported argmax is no feasible point, and NaN or infinite where v is.
"""

import math

from .core import ConstraintError

#: Bits of the rational just below sqrt(p1*p2) in a stage's case-I dual point.
_DUAL_BITS = 200


def _exceeds(x, y) -> bool:
    """x > y for (numerator, denominator) pairs with positive denominators,
    by cross-multiplication."""
    return x[0] * y[1] > y[0] * x[1]


def _stage_bounds(p1, p2, x, y, q1):
    """Exact (lower, upper) bounds on the optimum of one stage at flag overlap
    r = x/y (the module docstring's argument), each an integer (numerator,
    denominator) pair with a positive denominator, for floats or ints taken
    exactly; x/y keeps an overlap such as Bob's s/t exact. A q1 outside
    [r^2, 1], NaN or infinite too, is no feasible point, so it bounds nothing
    and is a ``ConstraintError``. The upper bound is ``_stage_upper``'s.
    """
    (a, aa), (b, bb) = p1.as_integer_ratio(), p2.as_integer_ratio()
    (xn, xd), (yn, yd) = x.as_integer_ratio(), y.as_integer_ratio()
    rn, rd = xn * yd, xd * yn
    r2n, r2d = rn * rn, rd * rd
    qn, qd = q1.as_integer_ratio() if math.isfinite(q1) else (-1, 1)  # NaN and inf: infeasible
    if not (r2n * qd <= qn * r2d and qn <= qd):
        raise ConstraintError(f"q1={float(q1)!r} outside [r^2, 1] for r={rn / rd!r}")
    if rn:
        lower = (a * (qd - qn) * bb * r2d * qn + b * (r2d * qn - r2n * qd) * aa * qd, aa * qd * bb * r2d * qn)
    else:  # orthogonal flags: q2 = 0
        lower = (a * (qd - qn) * bb + b * aa * qd, aa * bb * qd)
    return lower, _stage_upper(p1, p2, x, y)


def _stage_upper(p1, p2, x, y):
    """The semidefinite dual bound on the optimum of one stage at flag overlap
    r = x/y (the module docstring's argument), an integer (numerator,
    denominator) pair with a positive denominator, for floats or ints taken
    exactly: ``_stage_bounds``' upper bound.

    Except where the optimum sits at q1 = r^2, the bound is the optimum. An
    interior optimum is p1 + p2 - 2*r*sqrt(p1*p2), which case I meets to
    2*r*2^-200, and the optimum p2*(1 - r^2) at q1 = 1 (where p1 <= r^2*p2)
    is case II's, exactly. The other boundary, q1 = r^2, holds the optimum
    where p2 <= r^2*p1, and there the bound lies above it by (sqrt(p2) -
    r*sqrt(p1))^2. So ``oracle._cert_cloning`` takes a cloned copy's stage
    optimum from it, rounded once: the copy's priors p1*gamma1 : p2*gamma2
    have p1' <= p2' (p1 <= 1/2 and gamma1 <= gamma2), so that boundary
    never holds the optimum below r = 1, and at r = 1 case II gives the
    optimum 0. (At p1 = 1/2 the cloning scan's gamma1 can exceed its gamma2
    by the scan's resolution, about 2e-9; the boundary then needs r within
    about 4e-9 of 1, and the excess there is second order in it.)
    """
    (a, aa), (b, bb) = p1.as_integer_ratio(), p2.as_integer_ratio()
    (xn, xd), (yn, yd) = x.as_integer_ratio(), y.as_integer_ratio()
    rn, rd = xn * yd, xd * yn
    r2n, r2d = rn * rn, rd * rd
    c = math.isqrt((a * b << 2 * _DUAL_BITS) // (aa * bb))  # times 2^-200
    upper = (((a * bb + b * aa) * rd << _DUAL_BITS) - 2 * rn * c * aa * bb, aa * bb * rd << _DUAL_BITS)
    if a * bb * r2d <= r2n * b * aa:  # p1 <= r^2*p2
        boundary = (b * (r2d - r2n), bb * r2d)
        if _exceeds(upper, boundary):
            upper = boundary
    return upper


def _primitive(p: list[int]) -> list[int]:
    """p less its leading zeros, divided by the gcd of its coefficients: a
    positive multiple, so it has p's sign at every point."""
    while p and not p[0]:
        p = p[1:]
    g = math.gcd(*p)
    return [c // g for c in p] if g > 1 else p


def _negated_remainder(a: list[int], b: list[int]) -> list[int]:
    """-(a mod b) times a positive number, in integers (coefficients highest
    first): each step scales a by |lead(b)| before it cancels a's lead."""
    sign = 1 if b[0] > 0 else -1
    while len(a) >= len(b):
        f = sign * a[0]
        a = [abs(b[0]) * c - f * (b[i] if i < len(b) else 0) for i, c in enumerate(a)][1:]
    return _primitive([-c for c in a])


def _sturm_chain(p: list[int]) -> list[list[int]]:
    """The Sturm sequence of the integer polynomial p (coefficients highest
    first), each member a positive multiple of the textbook one, so that it
    counts p's distinct real roots (``_root_count``)."""
    chain = [p, _primitive([c * (len(p) - 1 - i) for i, c in enumerate(p[:-1])])]
    while len(chain[-1]) > 1:
        r = _negated_remainder(chain[-2], chain[-1])
        if not r:
            break
        chain.append(r)
    return chain


def _sign_changes(chain: list[list[int]], x) -> int:
    """Sign changes along ``chain`` at x (an int, a float or a ``Fraction``),
    zeros skipped: each member evaluated exactly, as d^deg p(n/d) for x =
    n/d."""
    n, d = x.as_integer_ratio()
    signs = []
    for p in chain:
        v, dk = p[0], d
        for c in p[1:]:
            v, dk = v * n + c * dk, dk * d
        if v:
            signs.append(v > 0)
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _root_count(chain: list[list[int]], lo, hi) -> int:
    """Distinct real roots in (lo, hi] of the polynomial that heads ``chain``
    (Sturm's theorem)."""
    return _sign_changes(chain, lo) - _sign_changes(chain, hi)


def _root_bracket(
    chain: list[list[int]], lo: float, hi: float, k: int, near: float
) -> tuple[float, float]:
    """The adjacent floats a < b with the k-th distinct root in (lo, hi] of
    the polynomial that heads ``chain`` in (a, b], for floats lo < hi between
    which it has at least k roots.

    Every side is decided by a Sturm count. The search starts at ``near``
    (clamped to [lo, hi]) and steps away from it in doubling steps, from
    one ulp, until the root is enclosed; bisection then closes the bracket.
    So a start near the root takes a few counts, and any other start gives
    the same bracket, by more of them.
    """
    v_lo = _sign_changes(chain, lo)

    def past(x):  # the k-th root is at or below x
        return v_lo - _sign_changes(chain, x) >= k

    a, b = lo, hi
    x = min(max(near, lo), hi)
    step = math.ulp(x)
    while a < x < b:
        if past(x):
            b, x = x, max(a, x - step)
        else:
            a, x = x, min(b, x + step)
        step *= 2
    while a < (m := 0.5 * (a + b)) < b:
        if past(m):
            b = m
        else:
            a = m
    return a, b


def _joint_bounds(p1: float, p2: float, s: float, q: float, near: float):
    """Exact (lower, upper) bounds on the joint optimum over the whole (t,
    q1b, q1c) box (the module docstring's argument), for the float priors
    p1 > 0 and p2, overlap s and reported q1b = q1c = q, each an integer
    (numerator, denominator) pair with a positive denominator.

    The bracket of q*'s middle root (``_root_bracket``) starts at ``near``;
    the bounds do not depend on it, but a start far from the root costs more
    Sturm counts. A q outside [s, 1] is no feasible point, so it bounds
    nothing and is a ``ConstraintError``.
    """
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


def _exact_gap(value: float, bounds, *args) -> float:
    """The gap of ``value`` against the exact bounds (L, U) = ``bounds(*args)``
    on its optimum (the module docstring's rule), integer (numerator,
    denominator) pairs with positive denominators: compared by
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
