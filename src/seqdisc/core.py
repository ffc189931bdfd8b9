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
The overlap and prior checks (``_is_overlap``, ``_is_prior``, with their
errors), ``Scenario``'s check (``_check_scenario``), the overlap t
(``check_overlap_t``) and the [0, 1] range and clamp (``_clamp_unit``) are
written here once for both.

The oracles' search engine lives here too: the window scan of a 1-D
objective (``window_scan_max``), whose first scan of [0, 1] is one shared
read-only array (``_unit_points``). The exact certificates, with their
Sturm chain, are ``bounds``'.
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
    the flag states, and each qi must lie in [r**2, 1]. All three are held
    as Python floats, as in ``Scenario``.
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
        for name in ("q1", "q2", "r"):
            object.__setattr__(self, name, float(getattr(self, name)))

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
    return type(x) is float or (isinstance(x, Real) and not isinstance(x, bool))


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
    if len(set(names)) < len(names):  # each would give a second, identical row or column
        repeated = sorted({q for q in names if names.count(q) > 1})
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


def _is_overlap(x):
    """The overlap check, x in [0, 1], on a float or on lanes; NaN fails it.
    Its error is ``_overlap_error``."""
    return (0.0 <= x) & (x <= 1.0)


def _overlap_error(name, x) -> DomainError:
    return DomainError(f"overlap {name}={x} outside [0, 1]")


def _is_prior(p1):
    """The prior check, p1 in (0, 1/2], on a float or on lanes; NaN fails it.
    Its error is ``_prior_error``."""
    return (0.0 < p1) & (p1 <= 0.5)


def _prior_error(p1) -> DomainError:
    return DomainError(f"prior p1={p1} outside (0, 1/2]")


def _scenario_error(s, p1, s_ok) -> DomainError:
    return _prior_error(p1) if s_ok else _overlap_error("s", s)


def _check_scenario(s, p1) -> None:
    """``Scenario``'s check on floats or lanes: DomainError for s outside
    [0, 1], or else for p1 outside (0, 1/2]."""
    s_ok = _is_overlap(s)
    _require(s_ok & _is_prior(p1), _scenario_error, s, p1, s_ok)


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
    _require(_is_overlap(s), _overlap_error, "s", s)
    if not (_is_integer(dim) and dim >= 2):
        raise DomainError(f"dim={dim!r} must be an integer of at least 2")
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


@functools.cache
def _unit_points(points: int) -> np.ndarray:
    """``np.linspace(0, 1, points)`` bit for bit, read-only and made once per
    ``points``: the first scan of every [0, 1] window scan, shared by all of
    them, so a lane body can recognise it by identity and keep lanes of its
    own made from it (``oracle._cloning_lanes``)."""
    xs = _scan_points(0.0, 1.0, points, np.empty(points))
    xs.setflags(write=False)
    return xs


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

    ``f`` must not write to its points, nor keep them. The first scan of
    [0, 1] is the shared read-only ``_unit_points(points)``; every other scan
    is one array, made once per call and refilled in place. ``f`` may return
    a fresh array or a buffer of its own that it overwrites on its next call
    (a lane body, such as ``oracle._stage_lanes``): the values are read
    before that call.
    """
    xs = np.empty(points)
    grid = _unit_points(points) if lo == 0.0 and hi == 1.0 else _scan_points(lo, hi, points, xs)
    vals = f(grid)
    i = int(vals.argmax())
    best_x, best_v = float(grid[i]), float(vals[i])
    for _ in range(passes):
        step = float(grid[1] - grid[0])
        grid = _scan_points(max(lo, best_x - step), min(hi, best_x + step), points, xs)
        vals = f(grid)
        i = int(vals.argmax())
        if vals[i] > best_v:
            best_x, best_v = float(grid[i]), float(vals[i])
    return best_x, best_v

