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

and the left discord D_BA follows by exchanging t and r.  All discords are in
bits.  A direct measurement-minimization oracle for the left discord is
included to certify the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    BOUNDARY_TOL,
    DomainError,
    NumericError,
    entropy_H,
    entropy_H_values,
    golden_max,
    make_state_pair,
)

_NEG_FLOOR = 1e-10


@dataclass(frozen=True)
class CorrelationInput:
    """Prior and post-measurement overlaps (p1, t, r); s = t*r is implied."""

    p1: float
    t: float
    r: float

    def __post_init__(self) -> None:
        if not 0.0 < self.p1 <= 0.5:
            raise DomainError(f"prior p1={self.p1} outside (0, 1/2]")
        if not 0.0 <= self.t <= 1.0:
            raise DomainError(f"overlap t={self.t} outside [0, 1]")
        if not 0.0 <= self.r <= 1.0:
            raise DomainError(f"overlap r={self.r} outside [0, 1]")

    @property
    def p2(self) -> float:
        return 1.0 - self.p1

    def swapped(self) -> "CorrelationInput":
        return CorrelationInput(self.p1, self.r, self.t)


class Tangles(NamedTuple):
    tau_abe: float
    tau_a_be: float
    tau_b_ae: float
    tau_e_ab: float


@dataclass(frozen=True)
class CorrelationReport:
    """All correlation quantities for one (p1, t, r).

    Proportions are None when both discords vanish (product state); the
    symmetrized discord is the geometric mean sqrt(d_left * d_right).
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


def tangles(inp: CorrelationInput) -> Tangles:
    """Tangles of the tripartite purification of rho_AB."""
    c = 4.0 * inp.p1 * inp.p2
    t2, r2 = inp.t * inp.t, inp.r * inp.r
    return Tangles(
        tau_abe=c * (1.0 - t2) * (1.0 - r2),
        tau_a_be=c * (1.0 - t2),
        tau_b_ae=c * (1.0 - r2),
        tau_e_ab=c * (1.0 - t2 * r2),
    )


def discord_right(inp: CorrelationInput) -> float:
    """Discord of rho_AB under measurements on the ancilla B, in bits."""
    c = 4.0 * inp.p1 * inp.p2
    t2, r2 = inp.t * inp.t, inp.r * inp.r
    tau_b_ae = c * (1.0 - r2)
    tau_e_ab = c * (1.0 - t2 * r2)
    tau_ae = c * (1.0 - t2) * r2  # tau_A|BE - tau_ABE, the A-E tangle
    value = entropy_H(tau_b_ae) - entropy_H(tau_e_ab) + entropy_H(tau_ae)
    if value < -_NEG_FLOOR:
        raise NumericError(f"right discord {value} below the -1e-10 floor")
    return max(value, 0.0)


def discord_left(inp: CorrelationInput) -> float:
    """Discord of rho_AB under measurements on the qubit A, in bits.

    Equal to the right discord with t and r exchanged (same code path).
    """
    return discord_right(inp.swapped())


def correlation_report(inp: CorrelationInput) -> CorrelationReport:
    """Assemble tangles, both discords, their proportions and geometric mean."""
    taus = tangles(inp)
    d_r = discord_right(inp)
    d_l = discord_left(inp)
    total = d_l + d_r
    if total > 0.0:
        prop_left, prop_right = d_l / total, d_r / total
    else:
        prop_left = prop_right = None
    return CorrelationReport(
        tau_abe=taus.tau_abe,
        tau_a_be=taus.tau_a_be,
        tau_b_ae=taus.tau_b_ae,
        tau_e_ab=taus.tau_e_ab,
        d_right=d_r,
        d_left=d_l,
        prop_left=prop_left,
        prop_right=prop_right,
        d_symm=math.sqrt(d_l * d_r),
    )


def _discord_right_values(p1: np.ndarray, t: np.ndarray, r: np.ndarray) -> np.ndarray:
    """``discord_right`` in every lane, by the same steps."""
    c = 4.0 * p1 * (1.0 - p1)
    t2, r2 = t * t, r * r
    value = (
        entropy_H_values(c * (1.0 - r2))
        - entropy_H_values(c * (1.0 - t2 * r2))
        + entropy_H_values(c * (1.0 - t2) * r2)
    )
    low = value < -_NEG_FLOOR
    if low.any():
        raise NumericError(f"discord {value[low][0]} below the -1e-10 floor")
    return np.where(value < 0.0, 0.0, value)


def _discords_values(s: np.ndarray, p1: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Left and right discords at overlap t in every lane; NaN where they are
    undefined (t < s or t <= 0).
    """
    defined = ~((t < s) | (t <= 0.0))
    s, p1, t = s[defined], p1[defined], t[defined]
    r = s / t  # in [0, 1] once t is
    bad = ~((0.0 <= t) & (t <= 1.0))
    if bad.any():
        i = int(np.argmax(bad))
        CorrelationInput(float(p1[i]), float(t[i]), float(r[i]))
    d_left, d_right = np.full((2,) + defined.shape, np.nan)
    d_left[defined] = _discord_right_values(p1, r, t)
    d_right[defined] = _discord_right_values(p1, t, r)
    return d_left, d_right


def prop_left_values(s: np.ndarray, p1: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``correlation_report``'s left discord proportion at overlap t in every
    lane of valid scenarios; NaN where it is undefined (t < s, t <= 0, or
    both discords 0).
    """
    d_left, d_right = _discords_values(s, p1, t)
    total = d_left + d_right
    with np.errstate(invalid="ignore"):
        return np.where(total > 0.0, d_left / total, np.nan)


def d_symm_values(s: np.ndarray, p1: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``correlation_report``'s symmetrized discord at overlap t in every lane
    of valid scenarios; NaN where t < s or t <= 0.
    """
    d_left, d_right = _discords_values(s, p1, t)
    return np.sqrt(d_left * d_right)


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
    on A: a 181-point scan of theta in [0, pi] at phi = 0, then one
    golden-section refinement around the best point.  One real axis suffices:

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
    phi1, phi2 = make_state_pair(inp.t, 2)
    a1, a2 = make_state_pair(inp.r, 3)
    f1, f2 = phi1.amplitudes, phi2.amplitudes
    op1 = np.outer(a1.amplitudes, a1.amplitudes)
    op2 = np.outer(a2.amplitudes, a2.amplitudes)
    rho = inp.p1 * np.kron(np.outer(f1, f1), op1) + inp.p2 * np.kron(np.outer(f2, f2), op2)

    rho_a = np.zeros((2, 2))
    for i in range(2):
        for j in range(2):
            rho_a[i, j] = np.trace(rho[3 * i : 3 * i + 3, 3 * j : 3 * j + 3])
    s_a = float(_vn_entropy_bits(np.linalg.eigvalsh(rho_a)))
    s_ab = float(_vn_entropy_bits(np.linalg.eigvalsh(rho)))

    p = (inp.p1, inp.p2)
    states = (f1, f2)
    ops = (op1, op2)

    thetas = np.linspace(0.0, math.pi, 181)
    grid = _conditional_entropy(thetas, p, states, ops)
    k = int(np.argmin(grid))
    step = thetas[1] - thetas[0]
    _, v = golden_max(
        lambda th: -float(_conditional_entropy(np.array([th]), p, states, ops)[0]),
        max(0.0, thetas[k] - step),
        min(math.pi, thetas[k] + step),
    )
    best = min(float(grid[k]), -v)

    value = s_a - s_ab + best
    return max(value, 0.0) if value > -BOUNDARY_TOL * 10 else value
