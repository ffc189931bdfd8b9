"""Quantum correlations of the system-ancilla state left by Bob's measurement.

After Bob's stage the qubit A and his qutrit ancilla B are in the separable
rank-2 state

    rho_AB = p1 |phi1><phi1| x |a1><a1| + p2 |phi2><phi2| x |a2><a2|,

with system overlap t = <phi1|phi2> and flag overlap r = <a1|a2> (so the
prepared overlap is s = t*r).  Purifying with an environment qubit E gives a
tripartite pure state whose tangles are

    tau_ABE  = 4 p1 p2 (1-t^2)(1-r^2)     (residual tangle)
    tau_A|BE = 4 p1 p2 (1-t^2)
    tau_B|AE = 4 p1 p2 (1-r^2)
    tau_E|AB = 4 p1 p2 (1-t^2 r^2)

The Koashi-Winter identity turns these into the two discords of rho_AB:

    D_AB (right, measured on B) = H(tau_B|AE) - H(tau_E|AB)
                                  + H(tau_A|BE - tau_ABE)

and the left discord D_BA follows by exchanging t and r, which exchanges
tau_A|BE and tau_B|AE and makes tau_AE the B-E tangle tau_B|AE t^2.  All
discords are in bits.  ``_tangles`` is the one place the tangles are formed,
on floats and arrays; it takes 1 - t^2 as (1 - t)(1 + t) and tau_E|AB as
tau_B|AE + tau_AE (tau_AE = tau_A|BE - tau_ABE), so no tangle is a
difference.  The Koashi-Winter sum and its -1e-10 floor are one body,
``_koashi_winter``.  ``_discords`` is the one body of ``discord_right``,
``discord_left``, the report and the column kernels (``prop_left_values``,
``d_symm_values``): from one set of tangles it forms both discords, their
proportions (NaN where both are 0) and the symmetrized discord
sqrt(d_left)*sqrt(d_right).  Each body takes H (and sqrt and the select)
as arguments: ``entropy_H`` on floats, ``entropy_H_values`` on arrays,
which share one body that keeps its relative accuracy for small tangles.
``CorrelationInput`` and the kernels share the overlap check of t,
``core._is_overlap``.  What cancellation is left is the sum's own, large only
where tau_B|AE and tau_AE are lopsided.
A direct measurement-minimization oracle for the left discord is included to
certify the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BOUNDARY_TOL,
    NumericError,
    _is_overlap,
    _is_prior,
    _overlap_error,
    _pick,
    _prior_error,
    _require,
    entropy_H,
    entropy_H_values,
    make_state_pair,
    window_scan_max,
)

_NEG_FLOOR = 1e-10


@dataclass(frozen=True)
class CorrelationInput:
    """Prior and post-measurement overlaps (p1, t, r); s = t*r is implied.
    All three are held as Python floats, as in ``Scenario``."""

    p1: float
    t: float
    r: float

    def __post_init__(self) -> None:
        _require(_is_prior(self.p1), _prior_error, self.p1)
        _require(_is_overlap(self.t), _overlap_error, "t", self.t)
        _require(_is_overlap(self.r), _overlap_error, "r", self.r)
        for name in ("p1", "t", "r"):
            object.__setattr__(self, name, float(getattr(self, name)))

    @property
    def p2(self) -> float:
        return 1.0 - self.p1


@dataclass(frozen=True)
class CorrelationReport:
    """All correlation quantities for one (p1, t, r).

    Proportions are None when both discords vanish (product state); the
    symmetrized discord is the geometric mean sqrt(d_left)*sqrt(d_right),
    whose product form would underflow at tiny priors.
    """

    tau_abe: float
    tau_a_be: float
    tau_b_ae: float
    tau_e_ab: float
    d_right: float
    d_left: float
    prop_left: float | None
    prop_right: float | None
    d_symm: float


def _tangles(p1, t, r):
    """(tau_ABE, tau_A|BE, tau_B|AE, tau_E|AB, tau_AE) on floats or arrays, the
    one place the tangles are formed.

    1 - t^2 is taken as (1 - t)(1 + t), exact in its first factor for
    t >= 1/2, and likewise 1 - r^2.  tau_E|AB is the sum tau_B|AE + tau_AE,
    the identity Koashi-Winter rests on (tau_AE = tau_A|BE - tau_ABE is the
    A-E tangle), so 1 - t^2 r^2 is never formed and no tangle is a difference.
    """
    c = 4.0 * p1 * (1.0 - p1)
    tau_a_be = c * ((1.0 - t) * (1.0 + t))
    tau_b_ae = c * ((1.0 - r) * (1.0 + r))
    tau_ae = tau_a_be * (r * r)
    return tau_a_be * ((1.0 - r) * (1.0 + r)), tau_a_be, tau_b_ae, tau_b_ae + tau_ae, tau_ae


def _koashi_winter(tau_b_ae, tau_e_ab, tau_ae, entropy, pick):
    """H(tau_B|AE) - H(tau_E|AB) + H(tau_AE), a NumericError below -1e-10 and
    lifted to 0 above it, on floats (``entropy_H``, ``_pick``) or on arrays
    (``entropy_H_values``, ``np.where``)."""
    value = entropy(tau_b_ae) - entropy(tau_e_ab) + entropy(tau_ae)
    _require(value >= -_NEG_FLOOR, _floor_error, value)
    return pick(value < 0.0, 0.0, value)


def _floor_error(value) -> NumericError:
    return NumericError(f"right discord {value} below the -1e-10 floor")


def _discords(p1, t, r, entropy, sqrt, pick):
    """The first four tangles, then d_left, d_right, prop_left, prop_right and
    d_symm, from one set of tangles, on floats (``entropy_H``, ``math.sqrt``,
    ``_pick``) or on arrays (``entropy_H_values``, ``np.sqrt``,
    ``np.where``).  The proportions are NaN where both discords are 0.
    """
    tangles = _tangles(p1, t, r)
    _, tau_a_be, tau_b_ae, tau_e_ab, tau_ae = tangles
    tau_be = tau_b_ae * (t * t)  # tau_AE with t and r exchanged
    d_right = _koashi_winter(tau_b_ae, tau_e_ab, tau_ae, entropy, pick)
    d_left = _koashi_winter(tau_a_be, tau_a_be + tau_be, tau_be, entropy, pick)
    total = d_left + d_right
    total = pick(total > 0.0, total, math.nan)  # x / NaN is NaN, and no 0/0 is formed
    return tangles[:4], d_left, d_right, d_left / total, d_right / total, sqrt(d_left) * sqrt(d_right)


def discord_right(inp: CorrelationInput) -> float:
    """Discord of rho_AB under measurements on the ancilla B, in bits."""
    return _discords(inp.p1, inp.t, inp.r, entropy_H, math.sqrt, _pick)[2]


def discord_left(inp: CorrelationInput) -> float:
    """Discord of rho_AB under measurements on the qubit A, in bits.

    Equal to the right discord with t and r exchanged.
    """
    return _discords(inp.p1, inp.t, inp.r, entropy_H, math.sqrt, _pick)[1]


def correlation_report(inp: CorrelationInput) -> CorrelationReport:
    """Assemble tangles, both discords, their proportions and geometric mean."""
    taus, d_l, d_r, *props, d_symm = _discords(inp.p1, inp.t, inp.r, entropy_H, math.sqrt, _pick)
    prop_left, prop_right = (None if math.isnan(p) else p for p in props)
    return CorrelationReport(*taus, d_r, d_l, prop_left, prop_right, d_symm)


def _discords_values(s: np.ndarray, p1: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``_discords``' d_left, d_right, prop_left, prop_right and d_symm at
    overlap t in every lane, as the rows of one array; NaN where they are
    undefined (t < s or t <= 0).
    """
    defined = ~((t < s) | (t <= 0.0))
    s, p1, t = s[defined], p1[defined], t[defined]
    _require(_is_overlap(t), _overlap_error, "t", t)
    r = s / t  # in [0, 1] once t is
    _, *rows = _discords(p1, t, r, entropy_H_values, np.sqrt, np.where)
    values = np.full((len(rows),) + defined.shape, np.nan)
    values[:, defined] = rows
    return values


def prop_left_values(s: np.ndarray, p1: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``correlation_report``'s left discord proportion at overlap t in every
    lane of valid scenarios; NaN where it is undefined (t < s, t <= 0, or
    both discords 0).
    """
    return _discords_values(s, p1, t)[2]


def d_symm_values(s: np.ndarray, p1: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``correlation_report``'s symmetrized discord at overlap t in every lane
    of valid scenarios; NaN where t < s or t <= 0.
    """
    return _discords_values(s, p1, t)[4]


def _vn_entropy_bits(eigvals: np.ndarray) -> np.ndarray:
    lam = np.clip(eigvals, 0.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(lam > 0.0, lam * np.log2(np.where(lam > 0.0, lam, 1.0)), 0.0)
    return -terms.sum(axis=-1)


def _conditional_entropy(
    theta: np.ndarray,
    p: tuple[float, float],
    states: tuple[np.ndarray, np.ndarray],
    ops: tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """Average post-measurement entropy of B for projective measurements on A.

    The measurement direction is the real |m> = (cos(theta/2), sin(theta/2));
    both outcomes m and its orthogonal complement contribute.
    """
    c = np.cos(0.5 * theta)
    sn = np.sin(0.5 * theta)
    total = np.zeros_like(theta)
    for u, v in ((c, sn), (-sn, c)):
        w1 = p[0] * (u * states[0][0] + v * states[0][1]) ** 2
        w2 = p[1] * (u * states[1][0] + v * states[1][1]) ** 2
        pm = w1 + w2
        safe = np.where(pm > 1e-300, pm, 1.0)
        cond = (w1[..., None, None] * ops[0] + w2[..., None, None] * ops[1]) / safe[..., None, None]
        lam = np.linalg.eigvalsh(cond)
        total = total + np.where(pm > 1e-300, pm * _vn_entropy_bits(lam), 0.0)
    return total


def left_discord_measurement_oracle(inp: CorrelationInput) -> float:
    """Left discord from its measurement definition, independent of the
    Koashi-Winter route.

    Builds rho_AB explicitly, evaluates S(A) and S(AB) from its spectrum, and
    minimizes the conditional entropy of B over rank-1 projective measurements
    on A: a 181-point scan of theta in [0, pi] at phi = 0, then three
    181-point rescans of the window around the best point
    (``core.window_scan_max``).  One real axis suffices:

    - The states are real, so their Bloch vectors lie in the x-z plane, and a
      measurement with Bloch vector n enters only through n's x-z projection.
    - B's unnormalized conditional states are affine in that projection, and
      the average conditional entropy is the perspective of the concave von
      Neumann entropy, hence concave in it.  Its minimum over the unit disk is
      therefore on the unit circle, the real measurements.
    - The measurement along theta + pi is the one along theta with its
      outcomes exchanged, so [0, pi] covers the circle.

    On 144 edge inputs (p1 from 1e-6 to 1/2, t and r from 0 to 1) the result
    lies within 3.4e-14 of the closed form ``discord_left``; the tests also
    hold it to a full scan of 181 x 361 complex directions.
    """
    f1, f2 = make_state_pair(inp.t, 2)
    a1, a2 = make_state_pair(inp.r, 3)
    op1, op2 = np.outer(a1, a1), np.outer(a2, a2)
    rho = inp.p1 * np.kron(np.outer(f1, f1), op1) + inp.p2 * np.kron(np.outer(f2, f2), op2)

    rho_a = np.trace(rho.reshape(2, 3, 2, 3), axis1=1, axis2=3)
    s_a = float(_vn_entropy_bits(np.linalg.eigvalsh(rho_a)))
    s_ab = float(_vn_entropy_bits(np.linalg.eigvalsh(rho)))

    p = (inp.p1, inp.p2)
    states = (f1, f2)
    ops = (op1, op2)

    _, v = window_scan_max(
        lambda thetas: -_conditional_entropy(thetas, p, states, ops), 0.0, math.pi, 181, 3
    )

    value = s_a - s_ab - v
    return max(value, 0.0) if value > -BOUNDARY_TOL * 10 else value
