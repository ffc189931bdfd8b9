"""Parameter sweeps and CSV emission; the figure presets are sweeps given as data.

Custom sweeps and presets share one evaluation path: each CSV column is one
call of its quantity's array kernel over the whole grid.
CSV output is byte-stable: 12 significant digits, '.' decimal separator,
'\\n' line endings, and an empty cell wherever a quantity is undefined
(infeasible overlap combination or 0/0 discord proportion).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, TextIO

import numpy as np

from .core import DomainError, Scenario
from .correlations import d_symm_values, prop_left_values
from .protocols import (
    at_least_one_protocol3_values,
    protocol1_optimal_values,
    protocol2_optimal_values,
    protocol3_optimal_values,
)
from .ssd import bob_optimal_values, charlie_optimal_values, joint_optimal_values


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
        if not self.steps >= 2:  # NaN fails too
            raise DomainError(f"steps={self.steps} must be at least 2")
        if not self.start < self.stop:
            raise DomainError(f"empty sweep range [{self.start}, {self.stop}]")

    def grid(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.steps)


#: Quantity name -> (its column kernel, whether it reads t).  A kernel takes
#: arrays s and p1 of valid scenarios (and t) and returns the quantity in
#: every lane, NaN where it is undefined.
_QUANTITIES: dict[str, tuple[Callable[..., np.ndarray], bool]] = {
    "ssd": (joint_optimal_values, False),
    "protocol1": (protocol1_optimal_values, False),
    "protocol2": (protocol2_optimal_values, False),
    "protocol3": (protocol3_optimal_values, False),
    "ssd_star": (protocol1_optimal_values, False),  # at_least_one_ssd is protocol (1)
    "p3_star": (at_least_one_protocol3_values, False),
    "bob_max": (bob_optimal_values, True),
    "charlie_max": (charlie_optimal_values, True),
    "prop_left": (prop_left_values, True),
    "d_symm": (d_symm_values, True),
}

_NEEDS_T = frozenset(name for name, (_, needs_t) in _QUANTITIES.items() if needs_t)
_FIELD_OF_VARIABLE = {"P1": "p1", "s": "s", "t": "t"}

#: One CSV column: its label, a quantity name and the fixed s, p1 and t.
Column = tuple[str, str, dict]


def available_quantities() -> tuple[str, ...]:
    return tuple(_QUANTITIES)


def _column(name: str, at: dict) -> list[float | None]:
    """One quantity over the grid's scenarios ``at``; None where it is undefined."""
    kernel, needs_t = _QUANTITIES[name]
    s, p1 = at["s"], at["p1"]
    bad = ~((0.0 <= s) & (s <= 1.0) & (0.0 < p1) & (p1 <= 0.5))
    if bad.any():
        i = int(np.argmax(bad))
        Scenario(float(s[i]), float(p1[i]))  # raises DomainError
    values = kernel(s, p1, at["t"]) if needs_t else kernel(s, p1)
    return [None if v != v else v for v in values.tolist()]


def _evaluate(
    variable: str, grid: np.ndarray, columns: tuple[Column, ...]
) -> tuple[list[str], list[list[float | None]]]:
    """Each column's quantity at every grid point, one kernel call per column;
    returns (header, rows)."""
    cells = []
    for _, name, fixed in columns:
        at = {k: np.full(grid.shape, float(v)) for k, v in fixed.items()}
        at[_FIELD_OF_VARIABLE[variable]] = grid
        cells.append(_column(name, at))
    rows = [list(row) for row in zip(grid.tolist(), *cells)]
    return [variable] + [label for label, _, _ in columns], rows


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
    columns = tuple((q, q, spec.fixed) for q in spec.quantities)
    return _evaluate(spec.variable, spec.grid(), columns)


class FigurePreset(NamedTuple):
    """A figure's sweep: the swept variable, its exact grid and its columns."""

    variable: str
    grid: np.ndarray
    columns: tuple[Column, ...]


# (0, 1/2] with 200 points: 0.0025, 0.005, ..., 0.5
_P1_GRID = 0.5 * np.arange(1, 201) / 200

FIGURE_PRESETS: dict[str, FigurePreset] = {
    "2": FigurePreset(
        "P1",
        _P1_GRID,
        tuple((f"Pb_max_t{t}", "bob_max", {"s": 0.05, "t": t}) for t in (0.06, 0.1)),
    ),
    "3a": FigurePreset(
        "P1", _P1_GRID, tuple((f"Pssd_max_s{s}", "ssd", {"s": s}) for s in (0.04, 0.36))
    ),
    "3b": FigurePreset(
        "s",
        np.arange(1, 200) / 200,
        tuple((f"Pssd_max_p{p1}", "ssd", {"p1": p1}) for p1 in (0.5, 0.4, 0.2)),
    ),
    "4": FigurePreset(
        "P1",
        _P1_GRID,
        (
            ("Pssd_max", "ssd", {"s": 0.04}),
            ("P1_max", "protocol1", {"s": 0.04}),
            ("P2_max", "protocol2", {"s": 0.04}),
            ("P3_max", "protocol3", {"s": 0.04}),
        ),
    ),
    "5": FigurePreset(
        "P1",
        _P1_GRID,
        (("Pssd_star", "ssd_star", {"s": 0.36}), ("P3_star", "p3_star", {"s": 0.36})),
    ),
    "6a": FigurePreset(
        "t",
        np.linspace(0.105, 0.995, 179),
        tuple((f"Dleft_prop_s{s}", "prop_left", {"s": s, "p1": 0.2}) for s in (0.1, 0.5, 0.9)),
    ),
    "6b": FigurePreset(
        "P1",
        _P1_GRID,
        ((f"Dleft_prop_t{0.1**0.25:.6g}", "prop_left", {"s": 0.1, "t": 0.1**0.25}),),
    ),
    "6c": FigurePreset(
        "P1",
        _P1_GRID,
        tuple(
            (f"Dsymm_t{t:.6g}", "d_symm", {"s": 0.36, "t": t})
            for t in (0.36**0.5, 0.36**0.25, 0.36**0.125)
        ),
    ),
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
    return _evaluate(*FIGURE_PRESETS[name])
