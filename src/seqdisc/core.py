"""Problem instances and shared primitives for two-state unambiguous
discrimination.

Alice prepares one of two pure states with real overlap s = <psi1|psi2> and
prior probabilities (p1, 1 - p1).  By convention p1 <= 1/2; to treat p1 > 1/2
relabel the states.  All entropies are in bits (base-2 logarithms), so the
entropy bound of a single qubit is 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Absolute tolerance used to absorb floating-point drift at feasibility
# boundaries (probabilities, overlaps, entropy arguments).
BOUNDARY_TOL = 1e-12


class DomainError(ValueError):
    """An argument lies outside its mathematical domain."""


class ConstraintError(ValueError):
    """Strategy parameters violate a feasibility constraint."""


class DegenerateStrategyError(ConstraintError):
    """A strategy conditions on an event of probability zero."""


class NumericError(RuntimeError):
    """A numerical procedure failed to meet its accuracy contract."""


class InfeasibleIsometryError(ValueError):
    """No inner-product-preserving map exists between the given state pairs."""


@dataclass(frozen=True)
class Scenario:
    """A discrimination instance: overlap ``s`` and prior ``p1`` of state 1."""

    s: float
    p1: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.s <= 1.0:
            raise DomainError(f"overlap s={self.s} outside [0, 1]")
        if not 0.0 < self.p1 <= 0.5:
            raise DomainError(f"prior p1={self.p1} outside (0, 1/2]")

    @property
    def p2(self) -> float:
        return 1.0 - self.p1


@dataclass(frozen=True, eq=False)
class PureState:
    """Real-amplitude pure state (dimension 2 for the qubit, 3 for ancillas)."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amp = np.atleast_1d(np.asarray(self.amplitudes, dtype=float))
        object.__setattr__(self, "amplitudes", amp)
        norm = float(np.linalg.norm(amp))
        if not abs(norm - 1.0) <= BOUNDARY_TOL:  # NaN fails too
            raise DomainError(f"state norm {norm!r} deviates from 1 beyond {BOUNDARY_TOL}")

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def overlap(self, other: "PureState") -> float:
        return float(np.dot(self.amplitudes, other.amplitudes))


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


def check_overlap_t(s: float, t: float) -> None:
    """Raise DomainError unless the post-measurement overlap t lies in (0, 1] and t >= s."""
    if not (0.0 < t <= 1.0 and t >= s):
        raise DomainError(f"overlap t={t} outside [s, 1] = [{s}, 1]")


def make_state_pair(s: float, dim: int) -> tuple[PureState, PureState]:
    """Two real unit vectors with inner product s, symmetric about the first axis.

    The half-angle is fixed by cos(2*theta) = s, giving the pair
    (cos(theta), +-sin(theta), 0, ...) embedded in the requested dimension.
    """
    if not 0.0 <= s <= 1.0:
        raise DomainError(f"overlap s={s} outside [0, 1]")
    if dim < 2:
        raise DomainError(f"dim={dim} must be at least 2")
    theta = 0.5 * math.acos(s)
    v1 = np.zeros(dim)
    v2 = np.zeros(dim)
    v1[0] = v2[0] = math.cos(theta)
    v1[1] = math.sin(theta)
    v2[1] = -math.sin(theta)
    return PureState(v1), PureState(v2)


def binary_entropy(p: float) -> float:
    """Shannon entropy of a bit, -p*log2(p) - (1-p)*log2(1-p)."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


def entropy_H(x: float) -> float:
    """Entropy of the spectrum {(1 + sqrt(1-x))/2, (1 - sqrt(1-x))/2} in bits.

    This is the entanglement of formation of a two-qubit state with tangle x
    (Wootters' formula); it increases monotonically from H(0) = 0 to H(1) = 1.
    Arguments within 1e-12 of [0, 1] are clamped, anything farther is rejected.
    """
    if not -BOUNDARY_TOL <= x <= 1.0 + BOUNDARY_TOL:  # NaN fails too
        raise DomainError(f"entropy argument x={x} outside [0, 1]")
    x = min(1.0, max(0.0, x))
    return binary_entropy(0.5 * (1.0 + math.sqrt(1.0 - x)))


def entropy_H_values(x: np.ndarray) -> np.ndarray:
    """``entropy_H`` in every lane of an array, by the same steps.

    Raises for the first lane outside [0, 1] beyond 1e-12.
    """
    bad = ~((x >= -BOUNDARY_TOL) & (x <= 1.0 + BOUNDARY_TOL))
    if bad.any():
        entropy_H(float(x[bad][0]))
    x = np.where(x > 0.0, np.where(x < 1.0, x, 1.0), 0.0)
    p = 0.5 * (1.0 + np.sqrt(1.0 - x))
    h = np.zeros_like(p)
    mixed = (p > 0.0) & (p < 1.0)
    p = p[mixed]
    h[mixed] = -(p * _log2_values(p) + (1.0 - p) * _log2_values(1.0 - p))
    return h


def _log2_values(x: np.ndarray) -> np.ndarray:
    """math.log2 in every lane; numpy's own log2 may round differently."""
    return np.fromiter(map(math.log2, x.tolist()), float, x.size)


def brent_root(
    f: Callable[[float], float], a: float, b: float, fa: float, fb: float
) -> tuple[float, float]:
    """Zero of f bracketed by [a, b], by Brent's method; returns (x, f(x)).

    ``fa`` and ``fb`` are f(a) and f(b) and must not share a sign.  Each step
    takes the inverse-quadratic (or secant) estimate when it falls well inside
    the bracket and bisects otherwise, so a jump or a flat stretch of f costs
    at most bisection's pace.  Stops when f(x) == 0 or the bracket has shrunk
    to two adjacent floats, returning the one with the smaller |f|; a steep f
    needs that last ulp.
    """
    if (fa > 0.0 and fb > 0.0) or (fa < 0.0 and fb < 0.0):
        raise NumericError(f"[{a}, {b}] does not bracket a root: f = {fa}, {fb}")
    c, fc = a, fa
    d = e = b - a
    for _ in range(200):
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c, fa, fb, fc = b, c, b, fb, fc, fb
        tol = 0.5 * math.ulp(b)
        m = 0.5 * (c - b)
        if fb == 0.0 or abs(m) <= tol:
            return b, fb
        if abs(e) >= tol and abs(fa) > abs(fb):
            r = fb / fa
            if a == c:  # two distinct points: secant
                p, q = 2.0 * m * r, 1.0 - r
            else:  # three: inverse quadratic interpolation
                qa, rb = fa / fc, fb / fc
                p = r * (2.0 * m * qa * (qa - rb) - (b - a) * (rb - 1.0))
                q = (qa - 1.0) * (rb - 1.0) * (r - 1.0)
            p, q = abs(p), (-q if p > 0.0 else q)
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > 2.0 * tol else math.copysign(2.0 * tol, m)
        fb = f(b)
    raise NumericError(f"root search on [{a}, {b}] did not converge")


def brent_root_values(
    f: Callable[[np.ndarray], np.ndarray],
    a: np.ndarray,
    b: np.ndarray,
    fa: np.ndarray,
    fb: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``brent_root`` in every lane of arrays at once; returns (x, f(x)).

    ``f`` maps an array of points to their values lane by lane.  Each lane
    takes the scalar search's steps, with each branch an ``np.where``, so it
    ends on the same float; a lane that has stopped keeps its point while the
    others go on.
    """
    if np.any(((fa > 0.0) & (fb > 0.0)) | ((fa < 0.0) & (fb < 0.0))):
        raise NumericError("a lane's bracket does not bracket a root")
    c, fc = a, fa
    d = e = b - a
    x, fx = np.full_like(b, np.nan), np.full_like(b, np.nan)
    active = np.ones(b.shape, dtype=bool)
    with np.errstate(all="ignore"):
        for _ in range(200):
            same = (fb > 0.0) == (fc > 0.0)
            c, fc = np.where(same, a, c), np.where(same, fa, fc)
            d, e = np.where(same, b - a, d), np.where(same, b - a, e)
            swap = np.abs(fc) < np.abs(fb)
            a, b, c = np.where(swap, b, a), np.where(swap, c, b), np.where(swap, b, c)
            fa, fb, fc = np.where(swap, fb, fa), np.where(swap, fc, fb), np.where(swap, fb, fc)
            tol = 0.5 * np.spacing(np.abs(b))
            m = 0.5 * (c - b)
            stop = active & ((fb == 0.0) | (np.abs(m) <= tol))
            x, fx = np.where(stop, b, x), np.where(stop, fb, fx)
            active &= ~stop
            if not active.any():
                return x, fx
            r = fb / fa
            secant = a == c
            qa, rb = fa / fc, fb / fc
            p = np.where(secant, 2.0 * m * r, r * (2.0 * m * qa * (qa - rb) - (b - a) * (rb - 1.0)))
            q = np.where(secant, 1.0 - r, (qa - 1.0) * (rb - 1.0) * (r - 1.0))
            p, q = np.abs(p), np.where(p > 0.0, -q, q)
            bound, other = 3.0 * m * q - np.abs(tol * q), np.abs(e * q)
            bound = np.where(other < bound, other, bound)  # min(), as the scalar takes it
            take = (np.abs(e) >= tol) & (np.abs(fa) > np.abs(fb)) & (2.0 * p < bound)
            d, e = np.where(take, p / q, m), np.where(take, d, m)
            a, fa = b, fb
            step = np.where(np.abs(d) > 2.0 * tol, d, np.copysign(2.0 * tol, m))
            b = b + np.where(active, step, 0.0)
            fb = f(b)
    raise NumericError("lockstep root search did not converge")


def golden_max(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """Maximum of a unimodal f on [lo, hi] by 70 golden-section steps; returns (x, f(x))."""
    if hi <= lo:
        return lo, f(lo)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(70):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)
