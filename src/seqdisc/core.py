"""Problem instances and shared primitives for two-state unambiguous
discrimination.

Alice prepares one of two pure states with real overlap s = <psi1|psi2> and
prior probabilities (p1, 1 - p1).  By convention p1 <= 1/2; to treat p1 > 1/2
relabel the states.  All entropies are in bits (base-2 logarithms), so the
entropy bound of a single qubit is 1.  The entropy H of a tangle is one body
on floats and arrays, computed from the smaller eigenvalue, so it keeps its
relative accuracy down to the smallest tangles; both paths take numpy's
logarithms, so a float and its lane agree bit for bit.

Each input and range check is one predicate of comparisons joined by ``&``,
evaluated on a float or on lanes; ``_require`` raises the check's own
exception for the float, or for the values of the first lane that fails.
``Scenario``'s check (``_check_scenario``), the overlap t
(``check_overlap_t``) and the [0, 1] range and clamp (``_clamp_unit``) are
written here once for both.

The oracles' two search engines live here too: the window scan of a 1-D
objective (``window_scan_max``), and the Sturm chain of an integer
polynomial, which counts its real roots in an interval and brackets one
between adjacent floats (``_sturm_chain``, ``_root_count``,
``_root_bracket``) for the exact certificates.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from numbers import Real
from typing import Callable

import numpy as np

# Absolute tolerance used to absorb floating-point drift at feasibility
# boundaries (probabilities, overlaps, entropy arguments).
BOUNDARY_TOL = 1e-12

_LN2 = math.log(2.0)


class DomainError(ValueError):
    """An argument lies outside its mathematical domain."""


class ConstraintError(ValueError):
    """Strategy parameters violate a feasibility constraint."""


class NumericError(RuntimeError):
    """A numerical procedure failed to meet its accuracy contract."""


class InfeasibleIsometryError(ValueError):
    """No inner-product-preserving map exists between the given state pairs."""


@dataclass(frozen=True)
class Scenario:
    """A discrimination instance: overlap ``s`` and prior ``p1`` of state 1.

    Both are held as Python floats, so a numpy scalar given for either takes
    the same steps, and gives the same results, as the float it holds.
    """

    s: float
    p1: float

    def __post_init__(self) -> None:
        _check_scenario(self.s, self.p1)
        object.__setattr__(self, "s", float(self.s))
        object.__setattr__(self, "p1", float(self.p1))

    @property
    def p2(self) -> float:
        return 1.0 - self.p1


@dataclass(frozen=True)
class StrategyParams:
    """Failure parameters (q1, q2) of one unambiguous-discrimination stage.

    qi is the probability of the inconclusive outcome given preparation i.
    Unitarity of the stage forces q1 * q2 = r**2, where r is the overlap of
    the flag states, and each qi must lie in [r**2, 1].
    """

    q1: float
    q2: float
    r: float

    def __post_init__(self) -> None:
        r2 = self.r * self.r
        for name, q in (("q1", self.q1), ("q2", self.q2)):
            # negated comparisons, so that NaN fails them
            if not q >= r2 - BOUNDARY_TOL:
                raise ConstraintError(f"{name}={q} below lower bound r^2={r2}")
            if not q <= 1.0 + BOUNDARY_TOL:
                raise ConstraintError(f"{name}={q} above upper bound 1")
        if abs(self.q1 * self.q2 - r2) > BOUNDARY_TOL:
            raise ConstraintError(
                f"q1*q2={self.q1 * self.q2} violates the product constraint r^2={r2}"
            )

    @classmethod
    def from_q1(cls, q1: float, r: float) -> "StrategyParams":
        """Build from q1 alone, deriving q2 = r**2 / q1.

        A q1 within BOUNDARY_TOL below r**2 (say 0.04 for r = 0.2, whose
        square rounds above 0.04) is lifted to r**2, so that q2 = 1 exactly.
        """
        r2 = r * r
        if r2 == 0.0:  # orthogonal flags, or r^2 below the smallest double
            if not -BOUNDARY_TOL <= q1 <= 1.0 + BOUNDARY_TOL:
                raise ConstraintError(f"q1={q1} outside [0, 1]")
            return cls(max(q1, 0.0), 0.0, r)
        if q1 <= 0.0:
            raise ConstraintError(f"q1={q1} below lower bound r^2={r2}")
        if r2 - BOUNDARY_TOL <= q1 < r2:
            q1 = r2
        return cls(q1, r2 / q1, r)


def _pick(cond: bool, a: float, b: float) -> float:
    """``np.where`` for one float: the formulas written once for floats and
    arrays take it (and ``math.sqrt``) on floats, ``np.where`` (and ``np.sqrt``)
    on arrays.  Both branches are evaluated, so neither may raise."""
    return a if cond else b


def _is_integer(x: object) -> bool:
    """Whether x is a Python or numpy integer.  A bool is not: numpy would take
    True as 1, and a float it would truncate or refuse with a bare TypeError."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _is_real(x: object) -> bool:
    """Whether x is a real number (``numbers.Real``, which numpy's floats and
    integers are).  A bool is not, as in ``_is_integer``: True would be
    taken as 1."""
    return isinstance(x, Real) and not isinstance(x, bool)


def _quantity_names(quantities, known) -> tuple[str, ...]:
    """The rule for a list of quantity names, shared by ``oracle.certify`` and
    ``sweeps.SweepSpec``: an iterable of str but not one str (a sequence of
    its characters), holding at least one name, each in ``known`` and named
    once.  Returns the names as a tuple."""
    try:
        names = None if isinstance(quantities, str) else tuple(quantities)
    except TypeError:  # not iterable
        names = None
    if names is None or not all(isinstance(q, str) for q in names):
        raise DomainError(f"quantities={quantities!r} must be a sequence of quantity names")
    if not names:
        raise DomainError("at least one quantity is needed")
    unknown = [q for q in names if q not in known]
    if unknown:
        raise DomainError(f"unknown quantities {unknown}; valid: {sorted(known)}")
    repeated = sorted({q for q in names if names.count(q) > 1})
    if repeated:  # each would give a second, identical row or column
        raise DomainError(f"quantities named more than once: {repeated}")
    return names


def _require(ok, error: Callable[..., Exception], *values) -> None:
    """Raise ``error(*values)`` where the check ``ok`` fails.

    A check is written once, as comparisons joined by ``&``, so that ``ok`` is
    a bool on floats and an array on lanes.  ``error`` gets the values, as
    Python numbers, of the first lane where ``ok`` is False (a value may be
    one float for all lanes), so lanes fail with the message of the float in
    that lane.
    """
    if ok is not True and not np.all(ok):
        i = int(np.argmin(ok))
        raise error(*(np.broadcast_to(v, np.shape(ok)).item(i) for v in values))


def _scenario_error(s, p1, s_ok) -> DomainError:
    if not s_ok:
        return DomainError(f"overlap s={s} outside [0, 1]")
    return DomainError(f"prior p1={p1} outside (0, 1/2]")


def _check_scenario(s, p1) -> None:
    """``Scenario``'s check on floats or lanes: DomainError for s outside
    [0, 1], or else for p1 outside (0, 1/2]."""
    s_ok = (0.0 <= s) & (s <= 1.0)
    _require(s_ok & (0.0 < p1) & (p1 <= 0.5), _scenario_error, s, p1, s_ok)


def _overlap_t_error(s, t) -> DomainError:
    need = "need 0 < t <= 1 and t >= s"
    return DomainError(f"overlap t={t} outside [s, 1] = [{s}, 1] or zero: {need}")


def check_overlap_t(s, t) -> None:
    """Raise DomainError unless the post-measurement overlap t lies in (0, 1]
    and t >= s; on lanes, for the first lane that fails."""
    _require((0.0 < t) & (t <= 1.0) & (t >= s), _overlap_t_error, s, t)


def _clamp_unit(x, error: Callable[..., Exception], pick=_pick):
    """x clamped to [0, 1] once it lies within 1e-12 of it, else ``error(x)``
    (NaN fails too); a float, or arrays with ``np.where`` as ``pick``."""
    _require((x >= -BOUNDARY_TOL) & (x <= 1.0 + BOUNDARY_TOL), error, x)
    return pick(x > 0.0, pick(x < 1.0, x, 1.0), 0.0)


def make_state_pair(s: float, dim: int) -> np.ndarray:
    """Two real unit vectors with inner product s, symmetric about the first
    axis, as the rows of a (2, dim) array (so ``a, b = make_state_pair(...)``).

    The half-angle is fixed by cos(2*theta) = s, giving the pair
    (cos(theta), +-sin(theta), 0, ...) embedded in the requested dimension.
    """
    if not 0.0 <= s <= 1.0:
        raise DomainError(f"overlap s={s} outside [0, 1]")
    if dim < 2:
        raise DomainError(f"dim={dim} must be at least 2")
    theta = 0.5 * math.acos(s)
    pair = np.zeros((2, dim))
    pair[:, 0] = math.cos(theta)
    pair[:, 1] = math.sin(theta), -math.sin(theta)
    return pair


def _entropy_of_tangle(x, sqrt, pick):
    """H(x) for x in [0, 1], on floats (``math.sqrt``, ``_pick``) or on arrays
    (``np.sqrt``, ``np.where``); both take numpy's ``log2`` and ``log1p``, so
    a float and the lane that holds it agree bit for bit.

    Works from the smaller eigenvalue lam = x/(2(1 + sqrt(1-x))), which is
    never a difference, as -lam*log2(lam) - (1-lam)*log1p(-lam)/ln 2; the
    larger one, 1 - lam, is never formed, so a small x keeps its relative
    accuracy.  A lane with lam = 0 takes log2(1), so nothing takes log2(0).
    """
    lam = x / (2.0 * (1.0 + sqrt(1.0 - x)))
    return -(lam * np.log2(pick(lam > 0.0, lam, 1.0))) - (1.0 - lam) * np.log1p(-lam) / _LN2


def entropy_H(x: float) -> float:
    """Entropy of the spectrum {(1 + sqrt(1-x))/2, (1 - sqrt(1-x))/2} in bits.

    This is the entanglement of formation of a two-qubit state with tangle x
    (Wootters' formula); it increases monotonically from H(0) = 0 to H(1) = 1.
    Arguments within 1e-12 of [0, 1] are clamped, anything farther is rejected.
    Returns a Python float.

    Relative accuracy is lost below x of about 9e-308, where the smaller
    eigenvalue, about x/4, is subnormal: ``entropy_H(5e-324)`` returns 0.0,
    while the true H is 1.33e-321. The result stays finite, nonnegative and
    below 1e-300 there.
    """
    x = _clamp_unit(x, _entropy_error)
    return float(_entropy_of_tangle(x, math.sqrt, _pick))


def entropy_H_values(x: np.ndarray) -> np.ndarray:
    """``entropy_H`` in every lane of an array, by the same body and the same
    logarithms, so each lane is the float's value bit for bit, and loses
    relative accuracy below x of about 9e-308 as ``entropy_H`` does.

    Raises for the first lane outside [0, 1] beyond 1e-12.
    """
    x = _clamp_unit(x, _entropy_error, np.where)
    return _entropy_of_tangle(x, np.sqrt, np.where)


def _entropy_error(x) -> DomainError:
    return DomainError(f"entropy argument x={x} outside [0, 1]")


@functools.cache
def _scan_indices(points: int) -> np.ndarray:
    """0, 1, ..., points - 1 as read-only floats, shared by every scan."""
    k = np.arange(float(points))
    k.setflags(write=False)
    return k


def _scan_points(lo: float, hi: float, points: int, out: np.ndarray) -> np.ndarray:
    """``np.linspace(lo, hi, points)`` bit for bit (``points`` >= 2), written
    into ``out`` (``points`` float lanes) and returned, by linspace's own steps
    on the cached indices but without its per-call argument handling, which
    costs as much as a 2001-point scan's arithmetic."""
    div = points - 1
    delta = hi - lo
    step = delta / div
    if step == 0.0:  # linspace's path for a step that underflows
        np.divide(_scan_indices(points), div, out=out)
        out *= delta
    else:
        np.multiply(_scan_indices(points), step, out=out)
    out += lo
    out[-1] = hi
    return out


def window_scan_max(
    f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, points: int, passes: int
) -> tuple[float, float]:
    """Maximum of f on [lo, hi] by window scans; returns (x, f(x)).

    ``f`` maps an array of points to their values. The first scan takes
    ``points`` evenly spaced points of [lo, hi] (``points`` >= 2); each of
    ``passes`` more scans takes ``points`` points of the window one grid step
    either side of the best point so far, cut to [lo, hi], and its grid step
    is the next window's half-width; every scan's points are
    ``np.linspace``'s. A scan's first highest point replaces the best only
    when strictly higher. Minimize by negating f.

    The points are one array, made once per call and refilled in place for
    each scan, so ``f`` must not keep it. ``f`` may return a fresh array or a
    buffer of its own that it overwrites on its next call (a lane body, such
    as ``oracle._stage_lanes``): the values are read before that call.
    """
    xs = _scan_points(lo, hi, points, np.empty(points))
    vals = f(xs)
    i = int(vals.argmax())
    best_x, best_v = float(xs[i]), float(vals[i])
    for _ in range(passes):
        step = float(xs[1] - xs[0])
        _scan_points(max(lo, best_x - step), min(hi, best_x + step), points, xs)
        vals = f(xs)
        i = int(vals.argmax())
        if vals[i] > best_v:
            best_x, best_v = float(xs[i]), float(vals[i])
    return best_x, best_v


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
