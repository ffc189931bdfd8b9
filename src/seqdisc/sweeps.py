"""Parameter sweeps and CSV emission, including the figure presets.

CSV output is byte-stable: 12 significant digits, '.' decimal separator,
'\\n' line endings, and an empty cell wherever a quantity is undefined
(infeasible overlap combination or 0/0 discord proportion).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, TextIO

import numpy as np

from .core import DomainError, Scenario
from .correlations import CorrelationInput, correlation_report
from .protocols import (
    at_least_one_protocol3,
    at_least_one_ssd,
    protocol1_optimal,
    protocol2_optimal,
    protocol3_optimal,
)
from .ssd import bob_optimal, charlie_optimal, joint_optimal

_P1_STEPS = 200
_S_STEPS = 199
_T_STEPS = 179


@dataclass(frozen=True)
class SweepSpec:
    """One swept variable against named scalar quantities.

    ``fixed`` holds the non-swept scenario fields needed by the quantities
    (e.g. s for a P1 sweep, or t for discord quantities).
    """

    variable: str
    start: float
    stop: float
    steps: int
    fixed: dict = field(default_factory=dict)
    quantities: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.variable not in ("P1", "s", "t"):
            raise DomainError(f"sweep variable {self.variable!r} not one of P1, s, t")
        if self.steps < 2:
            raise DomainError(f"steps={self.steps} must be at least 2")
        if not self.start < self.stop:
            raise DomainError(f"empty sweep range [{self.start}, {self.stop}]")

    def grid(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.steps)


def _scenario_of(spec: SweepSpec, x: float) -> Scenario:
    p1 = x if spec.variable == "P1" else spec.fixed["p1"]
    s = x if spec.variable == "s" else spec.fixed["s"]
    return Scenario(s, p1)


def _prop_left(p1: float, s: float, t: float) -> float | None:
    if t < s or t <= 0.0:
        return None
    rep = correlation_report(CorrelationInput(p1, t, s / t))
    return rep.prop_left


def _d_symm(p1: float, s: float, t: float) -> float | None:
    if t < s or t <= 0.0:
        return None
    return correlation_report(CorrelationInput(p1, t, s / t)).d_symm


_QUANTITIES: dict[str, Callable] = {
    "ssd": lambda sc, fx: joint_optimal(sc, compute_boundary=False).value,
    "protocol1": lambda sc, fx: protocol1_optimal(sc).value,
    "protocol2": lambda sc, fx: protocol2_optimal(sc).value,
    "protocol3": lambda sc, fx: protocol3_optimal(sc).value,
    "ssd_star": lambda sc, fx: at_least_one_ssd(sc).value,
    "p3_star": lambda sc, fx: at_least_one_protocol3(sc).value,
    "bob_max": lambda sc, fx: bob_optimal(sc, fx["t"]).value,
    "charlie_max": lambda sc, fx: charlie_optimal(sc, fx["t"]).value,
    "prop_left": lambda sc, fx: _prop_left(sc.p1, sc.s, fx["t"]),
    "d_symm": lambda sc, fx: _d_symm(sc.p1, sc.s, fx["t"]),
}


#: Quantities that read the post-measurement overlap t from ``fixed``.
_NEEDS_T = frozenset({"bob_max", "charlie_max", "prop_left", "d_symm"})
_FIELD_OF_VARIABLE = {"P1": "p1", "s": "s", "t": "t"}


def available_quantities() -> tuple[str, ...]:
    return tuple(_QUANTITIES)


def run_sweep(spec: SweepSpec) -> tuple[list[str], list[list[float | None]]]:
    """Evaluate the spec's quantities on its grid; returns (header, rows)."""
    unknown = [q for q in spec.quantities if q not in _QUANTITIES]
    if unknown:
        raise DomainError(f"unknown quantities {unknown}; valid: {sorted(_QUANTITIES)}")
    if not spec.quantities:
        raise DomainError("sweep requires at least one quantity")
    needed = {"s", "p1"} | ({"t"} if _NEEDS_T.intersection(spec.quantities) else set())
    missing = sorted(needed - {_FIELD_OF_VARIABLE[spec.variable]} - set(spec.fixed))
    if missing:
        raise DomainError(f"a sweep over {spec.variable} needs fixed values for {missing}")
    header = [spec.variable] + list(spec.quantities)
    rows: list[list[float | None]] = []
    for x in spec.grid():
        fixed = dict(spec.fixed)
        if spec.variable == "t":
            fixed["t"] = float(x)
        sc = _scenario_of(spec, float(x))
        rows.append([float(x)] + [_QUANTITIES[q](sc, fixed) for q in spec.quantities])
    return header, rows


def _p1_grid() -> np.ndarray:
    # (0, 1/2] with 200 points: 0.0025, 0.005, ..., 0.5
    return 0.5 * np.arange(1, _P1_STEPS + 1) / _P1_STEPS


def _fig2() -> tuple[list[str], list[list[float | None]]]:
    s = 0.05
    header = ["P1", "Pb_max_t0.06", "Pb_max_t0.1"]
    rows = []
    for p1 in _p1_grid():
        sc = Scenario(s, float(p1))
        rows.append([float(p1), bob_optimal(sc, 0.06).value, bob_optimal(sc, 0.1).value])
    return header, rows


def _fig3a() -> tuple[list[str], list[list[float | None]]]:
    header = ["P1", "Pssd_max_s0.04", "Pssd_max_s0.36"]
    rows = []
    for p1 in _p1_grid():
        rows.append(
            [
                float(p1),
                joint_optimal(Scenario(0.04, float(p1)), compute_boundary=False).value,
                joint_optimal(Scenario(0.36, float(p1)), compute_boundary=False).value,
            ]
        )
    return header, rows


def _fig3b() -> tuple[list[str], list[list[float | None]]]:
    header = ["s", "Pssd_max_p0.5", "Pssd_max_p0.4", "Pssd_max_p0.2"]
    rows = []
    for s in np.arange(1, _S_STEPS + 1) / (_S_STEPS + 1):
        row: list[float | None] = [float(s)]
        for p1 in (0.5, 0.4, 0.2):
            row.append(joint_optimal(Scenario(float(s), p1), compute_boundary=False).value)
        rows.append(row)
    return header, rows


def _fig4() -> tuple[list[str], list[list[float | None]]]:
    s = 0.04
    header = ["P1", "Pssd_max", "P1_max", "P2_max", "P3_max"]
    rows = []
    for p1 in _p1_grid():
        sc = Scenario(s, float(p1))
        rows.append(
            [
                float(p1),
                joint_optimal(sc, compute_boundary=False).value,
                protocol1_optimal(sc).value,
                protocol2_optimal(sc).value,
                protocol3_optimal(sc).value,
            ]
        )
    return header, rows


def _fig5() -> tuple[list[str], list[list[float | None]]]:
    s = 0.36
    header = ["P1", "Pssd_star", "P3_star"]
    rows = []
    for p1 in _p1_grid():
        sc = Scenario(s, float(p1))
        rows.append([float(p1), at_least_one_ssd(sc).value, at_least_one_protocol3(sc).value])
    return header, rows


def _fig6a() -> tuple[list[str], list[list[float | None]]]:
    p1 = 0.2
    svals = (0.1, 0.5, 0.9)
    header = ["t"] + [f"Dleft_prop_s{s}" for s in svals]
    rows = []
    for t in np.linspace(0.105, 0.995, _T_STEPS):
        row: list[float | None] = [float(t)]
        for s in svals:
            row.append(_prop_left(p1, s, float(t)))
        rows.append(row)
    return header, rows


def _fig6b() -> tuple[list[str], list[list[float | None]]]:
    s = 0.1
    t = s**0.25
    header = ["P1", f"Dleft_prop_t{t:.6g}"]
    rows = []
    for p1 in _p1_grid():
        rows.append([float(p1), _prop_left(float(p1), s, t)])
    return header, rows


def _fig6c() -> tuple[list[str], list[list[float | None]]]:
    s = 0.36
    ts = (s**0.5, s**0.25, s**0.125)
    header = ["P1"] + [f"Dsymm_t{t:.6g}" for t in ts]
    rows = []
    for p1 in _p1_grid():
        row: list[float | None] = [float(p1)]
        for t in ts:
            row.append(_d_symm(float(p1), s, t))
        rows.append(row)
    return header, rows


FIGURE_PRESETS: dict[str, Callable[[], tuple[list[str], list[list[float | None]]]]] = {
    "2": _fig2,
    "3a": _fig3a,
    "3b": _fig3b,
    "4": _fig4,
    "5": _fig5,
    "6a": _fig6a,
    "6b": _fig6b,
    "6c": _fig6c,
}


def _format_cell(x: float | None) -> str:
    if x is None:
        return ""
    return format(float(x), ".12g")


def write_csv(header: list[str], rows: list[list[float | None]], stream: TextIO) -> None:
    stream.write(",".join(header) + "\n")
    for row in rows:
        stream.write(",".join(_format_cell(v) for v in row) + "\n")


def run_figure(name: str) -> tuple[list[str], list[list[float | None]]]:
    if name not in FIGURE_PRESETS:
        raise DomainError(f"unknown figure preset {name!r}; valid: {sorted(FIGURE_PRESETS)}")
    return FIGURE_PRESETS[name]()
