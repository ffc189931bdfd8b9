"""Parameter sweeps and CSV emission; the figure presets are sweeps given as data.

Custom sweeps and presets share one evaluation path: one call per quantity
over all of its columns' lanes, after ``Scenario``'s own check on those
lanes (``core._check_scenario``).
CSV output is byte-stable: 12 significant digits, '.' decimal separator,
'\\n' line endings, and an empty cell wherever a quantity is undefined
(infeasible overlap combination or 0/0 discord proportion).  Rows are
formatted a block at a time, by one ``%`` per block.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Callable, NamedTuple, TextIO

import numpy as np

from .core import DomainError, _check_scenario, _is_integer, _is_real, _quantity_names
from .correlations import d_symm_values, prop_left_values
from .protocols import (
    at_least_one_protocol3_values,
    protocol1_optimal_values,
    protocol2_optimal_values,
    protocol3_optimal_values,
)
from .ssd import bob_optimal_values, charlie_optimal_values, joint_optimal_values


#: The most points of a sweep: linspace counts its points in float64, whose
#: integers are exact only up to 2^53; longer grids would not be even.
_MAX_STEPS = 2**53


def _as_float(value, name: str) -> float:
    """A real number as a float; one beyond float range is a ``DomainError``,
    not ``float``'s bare OverflowError."""
    try:
        return float(value)
    except OverflowError:
        raise DomainError(f"{name} is a number outside the float range") from None


@dataclass(frozen=True)
class SweepSpec:
    """One swept variable against named scalar quantities.

    ``fixed`` maps the non-swept scenario fields that the quantities read
    (e.g. s for a P1 sweep, or t for discord quantities), each keyed s, p1 or
    t, to a real number (``core._is_real``: not a bool, as for ``start`` and
    ``stop``), and holds no other field.  ``quantities`` is held as
    a tuple of names, each named once (``core._quantity_names``).  The fields
    are checked when the spec is built, as a ``Scenario``'s are, and held as
    Python numbers (``start``, ``stop`` and ``fixed``'s values as floats,
    ``steps`` as an int, ``fixed`` as a dict), so a number beyond float
    range, such as an int of 400 digits, is a ``DomainError``. Running it
    checks only that the grid can be allocated and, lane by lane, that its
    scenarios are valid.
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
        if not (_is_integer(self.steps) and self.steps >= 2):
            raise DomainError(f"steps={self.steps!r} must be an integer of at least 2")
        if self.steps > _MAX_STEPS:
            raise DomainError(f"steps={self.steps} is above the most a grid can count, 2^53")
        for name in ("start", "stop"):
            value = getattr(self, name)
            if not _is_real(value):
                raise DomainError(f"{name}={value!r} must be a real number")
            object.__setattr__(self, name, _as_float(value, name))
        if not self.start < self.stop:
            raise DomainError(f"empty sweep range [{self.start}, {self.stop}]")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise DomainError(f"sweep range [{self.start}, {self.stop}] is not finite")
        object.__setattr__(self, "steps", int(self.steps))
        object.__setattr__(self, "quantities", _quantity_names(self.quantities, _QUANTITIES))
        if not isinstance(self.fixed, Mapping):
            raise DomainError(f"fixed={self.fixed!r} must map s, p1 or t to a real number")
        for name, value in self.fixed.items():
            if name not in ("s", "p1", "t"):
                raise DomainError(f"fixed field {name!r} is not one of s, p1, t")
            if not _is_real(value):
                raise DomainError(f"fixed {name}={value!r} must be a real number")
        fixed = {name: _as_float(value, f"fixed {name}") for name, value in self.fixed.items()}
        object.__setattr__(self, "fixed", fixed)
        swept = _FIELD_OF_VARIABLE[self.variable]
        if swept in self.fixed:  # the grid would overwrite it
            raise DomainError(f"a sweep over {self.variable} cannot also fix {swept}")
        needed = {"s", "p1"} | ({"t"} if _NEEDS_T.intersection(self.quantities) else set())
        missing = sorted(needed - {swept} - set(self.fixed))
        if missing:
            raise DomainError(f"a sweep over {self.variable} needs fixed values for {missing}")
        if "t" not in needed and "t" in (swept, *self.fixed):
            raise DomainError(f"t is swept or fixed, but none of {list(self.quantities)} reads t")

    def grid(self) -> np.ndarray:
        try:
            return np.linspace(self.start, self.stop, self.steps)
        except MemoryError:
            raise DomainError(f"steps={self.steps} is too many grid points to allocate") from None


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
    _check_scenario(s, p1)
    values = kernel(s, p1, at["t"]) if needs_t else kernel(s, p1)
    return [None if v != v else v for v in values.tolist()]


def _grid_scenarios(variable: str, grid: np.ndarray, fixed: dict) -> dict:
    """A column's scenario fields at every grid point: the swept one is the
    grid, and each fixed one is its value in every lane."""
    at = {k: np.full(grid.shape, float(v)) for k, v in fixed.items()}
    at[_FIELD_OF_VARIABLE[variable]] = grid
    return at


def _evaluate(
    variable: str, grid: np.ndarray, columns: tuple[Column, ...]
) -> tuple[list[str], list[list[float | None]]]:
    """Each column's quantity at every grid point; returns (header, rows).

    Each quantity's kernel is called once, over the lanes of all of its
    columns concatenated in column order, and its cells are split back into
    those columns.  Every kernel is lane-independent, so a column's cells are
    those of a call on its lanes alone.  The columns of one quantity fix the
    same fields."""
    groups: dict[str, list[int]] = {}
    for i, (_, name, _) in enumerate(columns):
        groups.setdefault(name, []).append(i)
    n = grid.size
    cells: list[list[float | None]] = [[] for _ in columns]
    for name, members in groups.items():
        ats = [_grid_scenarios(variable, grid, columns[i][2]) for i in members]
        values = _column(name, {k: np.concatenate([at[k] for at in ats]) for k in ats[0]})
        for j, i in enumerate(members):
            cells[i] = values[j * n : (j + 1) * n]
    rows = [list(row) for row in zip(grid.tolist(), *cells)]
    return [variable] + [label for label, _, _ in columns], rows


def run_sweep(spec: SweepSpec) -> tuple[list[str], list[list[float | None]]]:
    """Evaluate the spec's quantities on its grid; returns (header, rows)."""
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


#: The most rows one ``%`` call formats, so a long sweep streams in pieces.
_BLOCK_ROWS = 2048


def _line_format(key: int | tuple[bool, ...]) -> str:
    """A CSV line's format: ``%.12g`` for each number and an empty field,
    ``%.0s``, for each None.  ``key`` is the row's length when it holds no
    None, else whether each of its cells is None."""
    empty = (False,) * key if isinstance(key, int) else key
    return ",".join(["%.0s" if e else "%.12g" for e in empty]) + "\n"


def write_csv(header: list[str], rows: list[list[float | None]], stream: TextIO) -> None:
    """Write the header and rows as CSV lines, each number as ``%.12g`` and
    each None as an empty cell.  Each block of up to ``_BLOCK_ROWS`` rows is
    formatted by one ``%`` of its lines' formats joined, cached by the row's
    length or, for a row holding None, by where its Nones lie."""
    stream.write(",".join(header) + "\n")
    formats: dict[int | tuple[bool, ...], str] = {}
    rows = iter(rows)
    while block := list(islice(rows, _BLOCK_ROWS)):
        keys = [tuple(v is None for v in row) if None in row else len(row) for row in block]
        for key in set(keys).difference(formats):
            formats[key] = _line_format(key)
        stream.write("".join([formats[k] for k in keys]) % tuple(chain.from_iterable(block)))


def run_figure(name: str) -> tuple[list[str], list[list[float | None]]]:
    if name not in FIGURE_PRESETS:
        raise DomainError(f"unknown figure preset {name!r}; valid: {sorted(FIGURE_PRESETS)}")
    return _evaluate(*FIGURE_PRESETS[name])
