"""Brute-force grid maximizers, and ``certify``, which holds every closed-form
optimum to them or to the exact bounds of ``bounds``.

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
(``core.window_scan_max``), and every scanned one-stage maximum is
``_grid_max_stage``'s. Every refinement calls the same array objective as
its first scan. The stage and cloning scans evaluate it by a
lane body (``_stage_lanes``, ``_cloning_lanes``): the expression's
operations in its order, written into buffers made once per scan, so each
lane is the expression's float, and a pass allocates no array. Their
scalar operands are float64 0-d arrays, converted once per scan. The first
scan of [0, 1] is one read-only grid, shared by every scan
(``core._unit_points``); the cloning lane body recognises it by identity
and takes its lanes that no scenario enters, 1 - gamma1, sqrt(gamma1) and
sqrt(1 - gamma1), from a read-only cache made once (``_unit_lanes``). Each lane
body is its objective's one evaluation in ``src/``; the expression bodies
they are held to are the tests' references.
The cloning oracle scans gamma1 and takes each point's gamma2 from the
cloning constraint's better root in closed form, a line meeting the unit
circle, by correctly rounded operations alone; the argmax's root is
recomputed on its float by the same operations (``_cloning_root``) for the
residual check.

``certify`` compares each closed form with its reference and flags a gap
above its ``tolerance``. It runs scenario by scenario, and each certifier it
needs runs once per scenario for all the quantities it covers: the two
cloning rows share one solve of the optimal cloner and one exact enclosure
(``_cert_cloning``). A certifier returns one (quantity, gap) pair per
comparison, such as each of a stage's two overlaps, and ``certify``'s fold
alone reduces the pairs to each row's worst gap: a NaN gap ranks above
every number, so it fails its row, and of equal gaps the first is kept.

Seven rows are certified without a scan, by the exact bounds of
``bounds``, whose module docstring gives each bound's argument and the gap
rule: Bob, Charlie, protocol (1) and the union (``at_least_one_ssd``), one
stage's each, through one certifier (``_stage_gap``), the joint
(``_cert_joint``), and the two cloning rows (``_cert_cloning``). Only
protocol (2)'s row scans.
By ``bounds``' reductions the union's and the joint's maxima over the whole
(t, q1b, q1c) box lie on its diagonal t = sqrt(s), q1b = q1c = u, u in [s,
1]. So ``grid_maximize_union_ssd`` and ``grid_maximize_joint`` are 1-D
scans of that diagonal (``_max_diagonal``). The tests keep them,
``grid_maximize_bob``, ``grid_maximize_charlie`` and
``grid_maximize_cloning`` as the certificates' brute-force cross-checks;
they hold a 3-D scan of the box as the diagonal scans' own reference.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .bounds import _cloning_bounds, _exact_gap, _joint_bounds, _stage_bounds
from .core import (
    ConstraintError,
    DomainError,
    NumericError,
    Scenario,
    _is_real,
    _quantity_names,
    _unit_points,
    check_overlap_t,
    window_scan_max,
)
from .protocols import _cloned_optimum, at_least_one_ssd, protocol1_optimal, protocol2_optimal
from .ssd import _interior, bob_optimal, charlie_optimal, joint_optimal

#: Grid points of each scan and of each of its refinements.
_SCAN_POINTS = 2001
#: Refinement rounds after every grid scan; each narrows the search window.
_REFINEMENT_PASSES = 2

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


def _operands(*values: float) -> list[np.ndarray]:
    """A lane body's scalar operands as float64 0-d arrays, converted once
    per scan rather than by each ufunc call; a ufunc gives the float's IEEE
    result on them."""
    return [np.array(v, float) for v in values]


def _stage_lanes(p1: float, p2: float, r: float) -> Callable[[np.ndarray], np.ndarray]:
    """One stage's success as a function of q1, p1*(1 - q) + p2*(1 - r^2/q)
    (q2 = 0 where r = 0), as a lane body: the expression's operations in its
    order, each written into buffers made once per scan (``_lane_buffers``),
    so every lane is the expression's float. Returns its value buffer, which
    the next call overwrites."""
    orthogonal = r * r == 0  # q2 = 0
    one, p1, p2, r2 = _operands(1.0, p1, p2, r * r)
    take = _lane_buffers(2)

    def values(q: np.ndarray) -> np.ndarray:
        value, rest = take(q)
        np.subtract(one, q, out=value)
        np.multiply(p1, value, out=value)  # p1 * (1 - q)
        if orthogonal:
            return np.add(value, p2, out=value)
        np.divide(r2, q, out=rest)
        np.subtract(one, rest, out=rest)
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
    box, by a scan of the diagonal that holds it (``_max_diagonal``; the
    reduction is in ``bounds``' docstring, and ``bounds._joint_bounds``
    bounds the maximum exactly).

    The argmax u is near sqrt(s) at small s, and the scan's grid is linear
    in u, with a last step of about 5e-10: it is within 1e-14 of the
    maximum down to s = 1e-12, and 5e-10 below it at (s, p1) = (1e-30,
    1/2), where sqrt(s) lies within the first step."""
    return _max_diagonal(scenario, _joint_term)


def grid_maximize_union_ssd(scenario: Scenario) -> tuple[float, float, float, float]:
    """Brute-force maximum of P(at least one succeeds) over the whole (t, q1b,
    q1c) box, by a scan of the diagonal that holds it (``_max_diagonal``; the
    reduction is in ``bounds``' docstring, and ``bounds._stage_bounds`` at r =
    s bounds the maximum exactly)."""
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


def _free_lanes(g1: np.ndarray, out: list[np.ndarray]) -> list[np.ndarray]:
    """The cloning lane body's lanes that no scenario enters, 1 - gamma1,
    sqrt(gamma1) and sqrt(1 - gamma1), written into the three arrays
    ``out`` and returned."""
    co_g1, sqrt_g1, b = out
    np.subtract(1.0, g1, out=co_g1)
    np.sqrt(g1, out=sqrt_g1)
    np.sqrt(co_g1, out=b)
    return out


@functools.cache
def _unit_lanes() -> tuple[np.ndarray, ...]:
    """``_free_lanes`` of the shared first scan ``core._unit_points``,
    read-only and made once."""
    lanes = _free_lanes(_unit_points(_SCAN_POINTS), [np.empty(_SCAN_POINTS) for _ in range(3)])
    for lane in lanes:
        lane.setflags(write=False)
    return tuple(lanes)


def _cloning_lanes(s: float, p1: float, p2: float) -> Callable[[np.ndarray], np.ndarray]:
    """The cloning objective p1*gamma1 + p2*gamma2 at the better root of the
    cloning constraint, for gamma1 = g1 in [0, 1] and 0 < s < 1, as a lane
    body, -inf where the constraint has no root: the expression's operations
    in its order, each written into buffers made once per scan
    (``_lane_buffers``), or, on the shared first scan ``core._unit_points``
    (the very array, not an equal one), taken from its read-only cache
    (``_unit_lanes``). Returns its value buffer, which the next call
    overwrites.

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
    the tangent point R < 0, and the lane's NaN is made -inf. x is clipped
    at 1 by ``np.minimum``, which passes NaN through, so a point with no
    root never takes x = 1. Every step is +, -, *, / or a square root, each
    correctly rounded, so each lane holds what the same steps give on its
    float, bit for bit, on every CPU and numpy, and the argmax's root
    (``_cloning_root``) is its lane's.
    ``tests/test_oracle.py`` holds the lanes to the expression body bit for
    bit (``TestLaneBodies``).
    """
    ss = s * s
    operands = (ss, ss * ss, s * ss, (1.0 - s) * (1.0 + s), p1, p2, 1.0, -math.inf)
    ss, ss_ss, s_ss, one_minus_ss, p1, p2, one, minus_inf = _operands(*operands)
    unit = _unit_points(_SCAN_POINTS)
    take = _lane_buffers(5)

    def values(g1: np.ndarray) -> np.ndarray:
        den, x, *free = take(g1)
        with np.errstate(invalid="ignore", divide="ignore"):
            co_g1, sqrt_g1, b = _unit_lanes() if g1 is unit else _free_lanes(g1, free)
            np.multiply(ss_ss, g1, out=den)
            np.add(den, co_g1, out=den)  # A^2 + B^2
            np.multiply(ss, g1, out=x)
            np.subtract(co_g1, x, out=x)
            np.multiply(one_minus_ss, x, out=x)
            np.sqrt(x, out=x)  # sqrt(R)
            np.multiply(b, x, out=x)  # b * sqrt(R)
            spare = np.multiply(sqrt_g1, s_ss, out=free[0])  # where 1 - gamma1 was, read by now
            np.add(spare, x, out=x)
            np.divide(x, den, out=x)
        np.minimum(x, one, out=x)
        np.multiply(x, x, out=x)
        np.multiply(p2, x, out=x)
        np.multiply(p1, g1, out=den)
        np.add(den, x, out=den)
        return np.fmax(den, minus_inf, out=den)

    return values


def _cloning_root(g1: float, s: float) -> tuple[float, float]:
    """(gamma2, sqrt(1 - gamma2)) at the better root of the cloning
    constraint for the float gamma1 = g1, the root's (x^2, y): the lane
    body's operations in its order (``_cloning_lanes``), so gamma2 is the
    lane's x^2 bit for bit. ``math.sqrt`` raises where the lane reads -inf."""
    ss = s * s
    co_g1 = 1.0 - g1
    den = ss * ss * g1 + co_g1  # A^2 + B^2
    root = math.sqrt((1.0 - s) * (1.0 + s) * (co_g1 - ss * g1))  # sqrt(R)
    sqrt_g1, b = math.sqrt(g1), math.sqrt(co_g1)
    x = min((sqrt_g1 * (s * ss) + b * root) / den, 1.0)
    return x * x, (b * s - sqrt_g1 * ss * root) / den


def grid_maximize_cloning(scenario: Scenario) -> tuple[float, float, float]:
    """Brute-force maximum of p1*gamma1 + p2*gamma2 on the cloning constraint
    manifold, parametrized by gamma1, each point at its better constraint
    root: scanned by the lane body (``_cloning_lanes``), the argmax's gamma2
    and sqrt(1 - gamma2) from the same root on its float
    (``_cloning_root``)."""
    s, p1, p2 = scenario.s, scenario.p1, scenario.p2
    if s in (0.0, 1.0):
        return 1.0, 1.0, 1.0

    g1, value = window_scan_max(_cloning_lanes(s, p1, p2), 0.0, 1.0, _SCAN_POINTS, _REFINEMENT_PASSES)
    g2, co_root = _cloning_root(g1, s)
    residual = s - math.sqrt(g1 * g2) * s * s - math.sqrt(1.0 - g1) * co_root
    if abs(residual) > 1e-10:
        raise NumericError(f"cloning oracle argmax violates the constraint at gamma1={g1}")
    return value, g1, g2


@dataclass(frozen=True)
class CertificationRow:
    """Worst closed-form-vs-oracle gap for one quantity over the grid, at
    ``worst_scenario``, that scenario's (s, p1) as ``Scenario`` holds them."""

    quantity: str
    worst_gap: float
    worst_scenario: tuple[float, float]
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.worst_gap <= self.tolerance


def _flag_ts(s: float) -> list[float]:
    """The overlaps t = sqrt(s) and (1 + s)/2 in [s, 1] at which Bob's and
    Charlie's rows are certified, less t = 0 (at s = 0), where no stage is
    defined."""
    return [t for t in (math.sqrt(s), 0.5 * (1.0 + s)) if t > 0.0]


def _stage_gap(sc: Scenario, name: str, result, q1_name: str, x, y=1.0) -> tuple[str, float]:
    """The (quantity, gap) pair of an optimum ``result`` that is one stage's at
    flag overlap x/y: its value against that stage's exact bounds
    (``_exact_gap``) at its argmax ``q1_name``."""
    return name, _exact_gap(result.value, _stage_bounds, sc.p1, sc.p2, x, y, result.argmax[q1_name])


def _cert_cloning(sc: Scenario) -> list[tuple[str, float]]:
    """Gaps of both cloning optima, from one solve of the optimal cloner and
    one exact enclosure: each value against ``_cloning_bounds``' bounds on
    its optimum (``_exact_gap``), the bracket of the cloner's u started at
    the solve's own u, the copy's stage held at the closed form's q1. With
    these two, seven of ``certify``'s rows are exact. A q1 that the
    enclosure rejects as no feasible point gives both rows L > U, an
    infinite gap."""
    both, at_least_one, u = _cloned_optimum(sc)
    try:
        bounds = _cloning_bounds(sc.p1, sc.s, u, both.argmax["q1b"])
    except ConstraintError:
        bounds = (((1, 1), (0, 1)),) * 2
    return [
        ("protocol3", _exact_gap(both.value, lambda: bounds[0])),
        ("at_least_one_p3", _exact_gap(at_least_one.value, lambda: bounds[1])),
    ]


def _cert_joint(sc: Scenario) -> list[tuple[str, float]]:
    """The joint's value against ``_joint_bounds``' exact bounds on its
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
# is seen. The two cloning combinations are written in ``bounds`` apart from
# protocols', so that a slip in either shows as a gap. The seven exact rows
# share one gap rule (``_exact_gap``). Four are one stage's (``_stage_gap``):
# Bob's and Charlie's at each of ``_flag_ts``, at the flag overlaps s/t
# (exact) and t; protocol (1)'s, Bob's stage at t = 1, at s; and the union's,
# whose closed-form argmax (1, q1_product, 1) is that stage's point q1 =
# q1_product, at s too. The joint takes ``_joint_bounds``' bounds, and the
# two cloning rows ``_cloning_bounds``'.
_CERTIFIERS: dict[str, Callable[[Scenario], list[tuple[str, float]]]] = {
    "bob": lambda sc: [_stage_gap(sc, "bob", bob_optimal(sc, t), "q1b", sc.s, t) for t in _flag_ts(sc.s)],
    "charlie": lambda sc: [
        _stage_gap(sc, "charlie", charlie_optimal(sc, t), "q1c", t) for t in _flag_ts(sc.s)
    ],
    "joint": _cert_joint,
    "protocol1": lambda sc: [_stage_gap(sc, "protocol1", protocol1_optimal(sc), "q1b", sc.s)],
    "protocol2": lambda sc: [("protocol2", abs(protocol2_optimal(sc).value - grid_maximize_protocol2(sc)[0]))],
    "protocol3": _cert_cloning,
    "at_least_one_p3": _cert_cloning,
    "at_least_one_ssd": lambda sc: [
        _stage_gap(sc, "at_least_one_ssd", at_least_one_ssd(sc), "q1_product", sc.s)
    ],
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
    tolerance = float(tolerance)  # a row holds Python floats, as a Scenario does
    for name, values in (("s_values", s_values), ("p1_values", p1_values)):
        try:  # a list or tuple is flat where each item is a number
            flat = type(values) in (list, tuple) or np.ndim(values) == 1  # 0 for a number or a str
        except ValueError:  # a ragged nested sequence
            flat = False
        if not (flat and all(map(_is_real, values))):
            raise DomainError(f"{name}={values!r} must be a sequence of numbers")
    if len(s_values) == 0 or len(p1_values) == 0:
        raise DomainError("certify needs at least one s value and one p1 value")
    names = _quantity_names(_CERTIFIERS if quantities is None else quantities, _CERTIFIERS)
    certifiers = dict.fromkeys(_CERTIFIERS[name] for name in names)  # each once, in order
    # each row's worst (rank, scenario) so far; a NaN gap fails every
    # comparison, so it ranks above any number
    worst = dict.fromkeys(names, ((False, -1.0), (math.nan, math.nan)))
    for s in s_values:
        for p1 in p1_values:
            sc = Scenario(s, p1)
            for fn in certifiers:
                for name, gap in fn(sc):
                    rank = (math.isnan(gap), gap)
                    if name in worst and rank > worst[name][0]:
                        worst[name] = (rank, (sc.s, sc.p1))
    return [CertificationRow(name, gap, at, tolerance) for name, ((_, gap), at) in worst.items()]
