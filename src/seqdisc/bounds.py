"""Exact bounds on the optima that ``oracle.certify`` holds seven closed forms
to, and the gap rule that compares a closed form with them.

Every bound is an integer (numerator, denominator) pair with a positive
denominator, formed from floats taken exactly (``as_integer_ratio``) and
compared by cross-multiplication (``_exceeds``): the one exact form in
``src/``. ``ssd._interior``'s side test cross-multiplies such pairs too, but
in ``ssd``, since no closed form's path imports this module. The seven rows
are Bob, Charlie, protocol (1), the union (``at_least_one_ssd``), the joint
and the two cloning rows.

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
p1 <= r^2*p2. The bound is the least of the feasible ones, formed once
over integer pieces (``_stage_dual``). A cloned copy's stage is one stage
too, at r = s and the priors p1*gamma1 : p2*gamma2 that cloning leaves, and
there the bound is the optimum itself (``_stage_upper``'s docstring says
why).

The optimal cloner (``_cloner_bounds``). It maximizes p_cl = p1*gamma1 +
p2*gamma2, p2 = 1 - p1, on the Duan-Guo boundary s =
s^2*sqrt(gamma1*gamma2) + sqrt((1 - gamma1)(1 - gamma2)) (Duan and Guo,
Phys. Rev. Lett. 80, 4999 (1998)). In the cloner's coordinate u in [0, 1]
(``protocols``), with t = u^2, x = (1 - s)(1 - t)/(1 + s), y = 1 - (1 -
s)^2*t/(1 + s^2) and Q = (1 - x^2)(1 - y^2), its points are gamma1,2 = (1 +
x*y -+ sqrt(Q))/2: x and y are rational at a float t. The feasible (gamma1,
gamma2) form a convex set: the Duan-Guo condition is semidefinite, and
linear once sqrt(gamma1*gamma2) is relaxed to a matrix entry (Fiurasek,
Phys. Rev. A 70, 032308 (2004)). p_cl is linear with positive weights, so
its stationary point on the boundary is its maximum. That point's prior is
p1(u) = gamma2'/(gamma2' - gamma1') = 1/2 + P*sqrt(Q)/Q' with P = (x*y)'
(primes in t), which falls from 1/2 at u = 0 to 0 at u = 1, so each p1 in
(0, 1/2] has one u*. Q rises in t (x >= 0 and y > 0 fall, y from 1), so Q'
> 0 and p1(u) - p1 has the sign of (1 - 2*p1)*Q' + 2*P*sqrt(Q), whose first
term is not negative and whose second is not positive: the side of u* at a
float t is decided in integers by one squaring. Adjacent floats ta < tb
with the sign change between them bracket t* = u*^2 exactly
(``_float_bracket``, started at the cloner solve's own u); at p1 = 1/2, u*
= 0 exactly, so the bracket is [0, 0]. gamma2' - gamma1' = sqrt(Q)' > 0 and
p1(u) in [0, 1/2] give gamma1' <= 0 <= gamma2': gamma1 falls and gamma2
rises along u. So p_cl(u*) lies in [p_cl(ta), p1*gamma1(ta) +
p2*gamma2(tb)]: the lower end is a point of the boundary, below its
maximum, and p_cl rises with sqrt(Q) (p2 >= p1), which is rounded down
there and up at tb, to 128 bits by ``math.isqrt``. The copy's prior p1_cl =
p1*gamma1/p_cl falls along u and with sqrt(Q), so it lies in [p1_cl(tb),
p1_cl(ta)]. Every bound is rounded outward to a multiple of 2^-128
(``_DYADIC_BITS``), which keeps the integers short.

The cloning rows (``_cloning_bounds``). A copy's stage optimum disc at r =
s is a maximum of functions linear in its prior, so it is convex in it, and
on the prior's bounds it is at most the larger of ``_stage_dual`` at their
ends. Its success at the closed form's q1 is linear in the prior, so the
smaller of it at the ends bounds disc from below. Both rows, p_cl*disc^2
and p_cl*(1 - (1 - disc)^2), rise in p_cl >= 0 and in disc in [0, 1], so
the products of the bounds bound them. At s = 0 and s = 1 cloning always
succeeds, p_cl = 1, and the copy's stage runs at (p1, 1 - p1).

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
#: Bits of the dyadic rationals that the cloning bounds round outward to.
_DYADIC_BITS = 128


def _exceeds(x, y) -> bool:
    """x > y for (numerator, denominator) pairs with positive denominators,
    by cross-multiplication."""
    return x[0] * y[1] > y[0] * x[1]


def _least(pairs):
    """The least of (numerator, denominator) pairs with positive denominators,
    the first of equals."""
    least = pairs[0]
    for x in pairs[1:]:
        if _exceeds(least, x):
            least = x
    return least


def _most(pairs):
    """The greatest of (numerator, denominator) pairs with positive
    denominators, the first of equals."""
    most = pairs[0]
    for x in pairs[1:]:
        if _exceeds(x, most):
            most = x
    return most


def _outward(x, up: bool):
    """The pair x rounded to the multiple of 2^-128 (``_DYADIC_BITS``) at or
    above it (up) or at or below it, as an integer pair."""
    n = x[0] << _DYADIC_BITS
    return -(-n // x[1]) if up else n // x[1], 1 << _DYADIC_BITS


def _overlap(x, y):
    """The flag overlap r = x/y and r^2 as integer (numerator, denominator)
    pairs, for floats or ints x and y > 0 taken exactly."""
    (xn, xd), (yn, yd) = x.as_integer_ratio(), y.as_integer_ratio()
    rn, rd = xn * yd, xd * yn
    return (rn, rd), (rn * rn, rd * rd)


def _point(q1, r, r2):
    """The integer ratio of a stage's q1 at flag overlap r (r2 = r^2, integer
    pairs). A q1 outside [r^2, 1], NaN or infinite too, is no feasible point,
    so it bounds nothing and is a ``ConstraintError``."""
    (r2n, r2d), (qn, qd) = r2, q1.as_integer_ratio() if math.isfinite(q1) else (-1, 1)  # NaN and inf: infeasible
    if not (r2n * qd <= qn * r2d and qn <= qd):
        raise ConstraintError(f"q1={float(q1)!r} outside [r^2, 1] for r={r[0] / r[1]!r}")
    return qn, qd


def _stage_success(p1, p2, r2, q):
    """One stage's success at the feasible point q = q1, p1*(1 - q1) + p2*(1 -
    r^2/q1) (q2 = 0 where r = 0), over integer pieces: the priors p1 and p2,
    r2 = r^2 and q, each an integer (numerator, denominator) pair with a
    positive denominator. ``_stage_bounds``' lower bound."""
    (a, aa), (b, bb), (r2n, r2d), (qn, qd) = p1, p2, r2, q
    if r2n:
        return a * (qd - qn) * bb * r2d * qn + b * (r2d * qn - r2n * qd) * aa * qd, aa * qd * bb * r2d * qn
    return a * (qd - qn) * bb + b * aa * qd, aa * bb * qd  # orthogonal flags: q2 = 0


def _stage_dual(p1, p2, r, r2):
    """The semidefinite dual bound on one stage's optimum (the module
    docstring's argument) over integer pieces: the priors p1 and p2, the
    flag overlap r and r2 = r^2, each an integer (numerator, denominator)
    pair with a positive denominator. The one form of the stage's upper
    bound, which ``_stage_bounds``, ``_stage_upper`` and ``_cloning_bounds``
    take."""
    (a, aa), (b, bb), (rn, rd), (r2n, r2d) = p1, p2, r, r2
    c = math.isqrt((a * b << 2 * _DUAL_BITS) // (aa * bb))  # times 2^-200
    upper = (((a * bb + b * aa) * rd << _DUAL_BITS) - 2 * rn * c * aa * bb, aa * bb * rd << _DUAL_BITS)
    if a * bb * r2d <= r2n * b * aa:  # p1 <= r^2*p2
        boundary = (b * (r2d - r2n), bb * r2d)
        if _exceeds(upper, boundary):
            upper = boundary
    return upper


def _stage_bounds(p1, p2, x, y, q1):
    """Exact (lower, upper) bounds on the optimum of one stage at flag overlap
    r = x/y (the module docstring's argument), each an integer (numerator,
    denominator) pair with a positive denominator, for floats or ints taken
    exactly; x/y keeps an overlap such as Bob's s/t exact. A q1 outside
    [r^2, 1], NaN or infinite too, is no feasible point, so it bounds nothing
    and is a ``ConstraintError`` (``_point``). The lower bound is the
    success at q1 (``_stage_success``), the upper bound the dual's
    (``_stage_dual``).
    """
    r, r2 = _overlap(x, y)
    q = _point(q1, r, r2)
    p1, p2 = p1.as_integer_ratio(), p2.as_integer_ratio()
    return _stage_success(p1, p2, r2, q), _stage_dual(p1, p2, r, r2)


def _stage_upper(p1, p2, x, y):
    """The semidefinite dual bound on the optimum of one stage at flag overlap
    r = x/y (``_stage_dual``), an integer (numerator, denominator) pair with
    a positive denominator, for floats or ints taken exactly:
    ``_stage_bounds``' upper bound.

    Except where the optimum sits at q1 = r^2, the bound is the optimum. An
    interior optimum is p1 + p2 - 2*r*sqrt(p1*p2), which case I meets to
    2*r*2^-200, and the optimum p2*(1 - r^2) at q1 = 1 (where p1 <= r^2*p2)
    is case II's, exactly. The other boundary, q1 = r^2, holds the optimum
    where p2 <= r^2*p1, and there the bound lies above it by (sqrt(p2) -
    r*sqrt(p1))^2. A cloned copy's priors p1*gamma1 : p2*gamma2 have p1' <=
    p2' (p1 <= 1/2 and gamma1 <= gamma2), so that boundary never holds a
    copy's optimum below r = 1, and at r = 1 case II gives the optimum 0:
    at a copy's priors the bound is the optimum (``_cloning_bounds``). (At
    p1 = 1/2 the tests' cloning scan's gamma1 can exceed its gamma2 by the
    scan's resolution, about 2e-9; the boundary then needs r within about
    4e-9 of 1, and the excess there is second order in it.)
    """
    r, r2 = _overlap(x, y)
    return _stage_dual(p1.as_integer_ratio(), p2.as_integer_ratio(), r, r2)


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


def _float_bracket(past, lo: float, hi: float, near: float) -> tuple[float, float]:
    """The adjacent floats a < b in [lo, hi] with ``past(a)`` false and
    ``past(b)`` true, for a predicate that is false at lo, true at hi and
    changes once between them.

    The search starts at ``near`` (clamped to [lo, hi]) and steps away from
    it in doubling steps, from one ulp, until the change is enclosed;
    bisection then closes the bracket. So a start near the change takes a
    few calls of ``past``, and any other start gives the same bracket, by
    more of them.
    """
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


def _root_bracket(
    chain: list[list[int]], lo: float, hi: float, k: int, near: float
) -> tuple[float, float]:
    """The adjacent floats a < b with the k-th distinct root in (lo, hi] of
    the polynomial that heads ``chain`` in (a, b], for floats lo < hi between
    which it has at least k roots: every side decided by a Sturm count, the
    search started at ``near`` (``_float_bracket``)."""
    v_lo = _sign_changes(chain, lo)
    return _float_bracket(lambda x: v_lo - _sign_changes(chain, x) >= k, lo, hi, near)


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
    return g(q, q), _most(candidates)


def _cloner_bounds(p1: float, s: float, near: float):
    """The optimal cloner for the float prior p1 in (0, 1/2] (and p2 = 1 - p1
    exactly) at 0 < s < 1 (the module docstring's argument): the floats ta
    <= tb, adjacent or both 0 (at p1 = 1/2), with t* = u*^2 in [ta, tb], and
    exact (lower, upper) bounds on its success p_cl and on its copy's prior
    p1_cl, each an integer (numerator, denominator) pair, a multiple of
    2^-128 (``_DYADIC_BITS``).

    The bracket starts at t = near^2 for the float u = ``near``
    (``_float_bracket``); the bounds do not depend on it, but a start far
    from t* costs more side tests.
    """
    (a, aa), (sn, sd) = p1.as_integer_ratio(), s.as_integer_ratio()
    excess = aa - 2 * a  # p2 - p1, times aa
    an, bn, en = sd - sn, sd + sn, sd * sd + sn * sn  # 1 - s, 1 + s, 1 + s^2 over sd, sd, sd^2
    cube = sd * sd * sd

    def pieces(t):  # x, y, 1 - x^2 and 1 - y^2 at t = tn/td, times M, M, M^2 and M^2 for M = sd^2*td
        tn, td = t.as_integer_ratio()
        x, y = an * (td - tn) * sd, en * td - an * an * tn
        return x, y, (bn * sd * td) ** 2 - x * x, (en * td) ** 2 - y * y, td

    def past(t):  # p1(sqrt(t)) <= p1: t* <= t
        x, y, f, g, _ = pieces(t)
        lead, root = excess * (sd * x * g + an * y * f), aa * (sd * y + an * x)
        return lead * lead <= root * root * f * g

    def gammas(t):  # 1 + x*y and sqrt(Q) rounded down and up, over one denominator
        x, y, f, g, td = pieces(t)
        fg = f * g
        k = max(0, 256 - fg.bit_length()) >> 1
        low = math.isqrt(fg << 2 * k)
        high = low + (low * low != fg << 2 * k)
        den = (sd * sd * td) ** 2 * bn * en
        return (den + cube * x * y) << k, cube * low, cube * high, den << k + 1

    ta, tb = (0.0, 0.0) if not excess else _float_bracket(past, 0.0, 1.0, near * near)
    (c, low, _, den), (c_hi, _, high, den_hi) = gammas(ta), gammas(tb)
    p_cl = (
        _outward((aa * c + excess * low, den * aa), False),
        _outward((a * (c - low) * den_hi + (aa - a) * (c_hi + high) * den, den * den_hi * aa), True),
    )
    # gamma1 >= 0, which sqrt(Q) rounded up can pass where gamma1 is below 2^-128
    k, one = _outward((a * (c_hi - high), aa * c_hi + excess * high), False)
    p1_cl = ((max(k, 0), one), _outward((a * (c - low), aa * c + excess * low), True))
    return (ta, tb), p_cl, p1_cl


def _cloning_bounds(p1: float, s: float, near: float, q1: float):
    """Exact (lower, upper) bounds on both cloning optima, p_cl*disc^2 (both
    succeed) and p_cl*(1 - (1 - disc)^2) (at least one succeeds), at the
    optimal cloner for the float prior p1 in (0, 1/2] and overlap s (the module
    docstring's argument): ((L, U) of the first, (L, U) of the second), each
    an integer (numerator, denominator) pair with a positive denominator.

    The bracket of the cloner's u* starts at the float u = ``near``
    (``_cloner_bounds``). disc's lower bound is the copy's success at the
    reported q1, so a q1 outside [s^2, 1] is no feasible point, and a
    ``ConstraintError`` (``_point``).
    """
    r, r2 = _overlap(s, 1)
    q = _point(q1, r, r2)
    if 0 < r[0] < r[1]:
        p_cl, p1_cl = _cloner_bounds(p1, s, near)[1:]
    else:  # s = 0 or 1: cloning always succeeds and leaves the prior
        p_cl, p1_cl = ((1, 1), (1, 1)), [p1.as_integer_ratio()]
    priors = [((k, d), (d - k, d)) for k, d in p1_cl]
    lower = _outward(_least([_stage_success(x, y, r2, q) for x, y in priors]), False)
    upper = _outward(_most([_stage_dual(x, y, r, r2) for x, y in priors]), True)

    def both(p, x):  # p*x^2
        return p[0] * x[0] * x[0], p[1] * x[1] * x[1]

    def at_least_one(p, x):  # p*x*(2 - x)
        return p[0] * x[0] * (2 * x[1] - x[0]), p[1] * x[1] * x[1]

    return (
        (both(p_cl[0], lower), both(p_cl[1], upper)),
        (at_least_one(p_cl[0], lower), at_least_one(p_cl[1], upper)),
    )


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
