"""The benchmark's four seeded workloads: op generation, execution and checks.

Each workload yields cycles of ops. A cycle holds every op kind of the
workload once (some kinds several times), in a seeded order, so whole cycles
always have the same mix. Continuous draws are stratified across cycles: the
c-th draw of a kind falls in stratum perm[c % STRATA] of a permutation drawn
afresh for every block of STRATA draws. The share of ops in each cost regime
therefore barely moves from seed to seed, which keeps throughput steady.

The library only ever sees the generated inputs: nothing here calls seqdisc
to make an input. Ops call seqdisc through attribute lookups on the package
passed in (``lib``), so functions rebound by the tracer are the ones called.

A check returns a list of problems; an op fails when the list is not empty.
A problem carries a cause when it matches one of the defects the seed is
known to have (see README.md); only problems without a cause make a run
incorrect.
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SYM = 3.0 - 2.0 * math.sqrt(2.0)  # overlap above which the joint case I vanishes
STRATA = 8
CSV_TOL = 1e-9
CERT_TOL = 1e-6
PRINT_TOL = 1e-11  # the CLI prints 12 significant digits
UNION_TOL = 1e-12
MC_TRIALS = 1_000_000
PRESETS = ("2", "3a", "3b", "4", "5", "6a", "6b", "6c")
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple
    s: float = math.nan
    p1: float = math.nan


@dataclass(frozen=True)
class Outcome:
    """What an op returned: an exit code (CLI ops only), its captured stdout or
    return value, and the exception it raised, if any."""

    code: int | None
    out: object
    exc: BaseException | None


@dataclass(frozen=True)
class Problem:
    reason: str
    cause: str | None = None


class _Draws:
    """Seeded uniforms, stratified per key across successive draws."""

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._perms: dict[str, list[int]] = {}
        self._count: dict[str, int] = {}

    def unit(self, key: str) -> float:
        c = self._count.get(key, 0)
        self._count[key] = c + 1
        if c % STRATA == 0:
            self._perms[key] = self._rng.sample(range(STRATA), STRATA)
        return (self._perms[key][c % STRATA] + self._rng.random()) / STRATA

    def uniform(self, key: str, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.unit(key)

    def log_uniform(self, key: str, lo: float, hi: float) -> float:
        return 10.0 ** self.uniform(key, math.log10(lo), math.log10(hi))


def _uncaught(exc: BaseException, cause: str | None = None) -> Problem:
    return Problem(f"uncaught {type(exc).__name__}: {exc}", cause)


def _innermost_function(exc: BaseException) -> str:
    tb = exc.__traceback__
    while tb is not None and tb.tb_next is not None:
        tb = tb.tb_next
    return tb.tb_frame.f_code.co_name if tb is not None else ""


def _protocol3_cause(exc: BaseException) -> str | None:
    """The seed's cloning-omega inversion defect, recognised by its signature:
    the bisection in clone_optimal_for_prior stalls (for s below about 0.01 or
    above about 0.98, with p1 near 1/2 or s tiny), or clone_params_of_omega
    divides by zero (s below about 1e-8)."""
    if type(exc).__name__ == "NumericError" and str(exc).startswith("omega inversion stalled"):
        return "protocol3_omega_stall"
    if isinstance(exc, ZeroDivisionError) and _innermost_function(exc) == "clone_params_of_omega":
        return "protocol3_zero_division"
    return None


def run_cli(lib, argv: tuple[str, ...]) -> Outcome:
    """One in-process ``seqdisc`` invocation with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lib.cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects malformed arguments this way
        return Outcome(exc.code, out.getvalue(), None)
    except Exception as exc:
        return Outcome(None, out.getvalue(), exc)
    return Outcome(code, out.getvalue(), None)


class Workload:
    """Base class: a seeded stream of op cycles, plus how to run and check one op."""

    name = ""
    op_size = ""
    kinds: tuple[str, ...] = ()
    # Seconds one cycle takes at the reference speed, calibrations included;
    # it sets how many cycles a run does. Calibration units between two ops.
    cycle_s = 1.0
    cal_units = 1

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.draws = _Draws(self.rng)

    def cycle(self) -> list[Op]:
        ops = [self.make(kind) for kind in self.kinds]
        self.rng.shuffle(ops)
        return ops

    def make(self, kind: str) -> Op:
        raise NotImplementedError

    def parts(self, op: Op) -> list[Op]:
        """The pieces an op is run and checked in; the benchmark calibrates
        between them. Most ops are one piece."""
        return [op]

    def array_share(self, part: Op) -> float:
        """How much of a part's time goes with the speed of numpy array work
        rather than that of the interpreter, from 0 to 1. It picks the blend of
        calibration kernels that scales the part to the reference speed."""
        return 0.0

    def warmup(self) -> Op:
        raise NotImplementedError

    def run(self, op: Op, lib) -> Outcome:
        raise NotImplementedError

    def check(self, op: Op, outcome: Outcome) -> list[Problem]:
        raise NotImplementedError


# --------------------------------------------------------------------- figures


@functools.cache
def load_reference(directory: Path = REFERENCE_DIR) -> dict[str, str]:
    return {name: (directory / f"fig{name}.csv").read_text() for name in PRESETS}


def compare_csv(text: str, ref: str) -> list[Problem]:
    """Same header, rows and empty cells as ``ref``; numbers within CSV_TOL."""
    got, want = text.split("\n"), ref.split("\n")
    if got[0] != want[0]:
        return [Problem(f"header {got[0]!r}, reference {want[0]!r}")]
    if len(got) != len(want):
        return [Problem(f"{len(got)} lines, reference has {len(want)}")]
    for i, (g, w) in enumerate(zip(got[1:], want[1:]), start=1):
        g_cells, w_cells = g.split(","), w.split(",")
        if [c == "" for c in g_cells] != [c == "" for c in w_cells]:
            return [Problem(f"row {i}: empty cells {g!r}, reference {w!r}")]
        for a, b in zip(g_cells, w_cells):
            try:
                close = a == b or abs(float(a) - float(b)) <= CSV_TOL
            except ValueError:
                close = False
            if not close:
                return [Problem(f"row {i}: {a} against reference {b}")]
    return []


class Figures(Workload):
    """An op is a full figure set, as make_figures.py produces it. A single
    preset is no good as the op: four presets take milliseconds and four take
    hundreds of them, so the median preset latency would fall in the gap."""

    name = "figures"
    op_size = "all eight figure presets, each run_figure plus write_csv into memory"
    kinds = ("all_presets",)
    cycle_s = 2.15
    cal_units = 8

    def __init__(self, seed: int, reference: dict[str, str]) -> None:
        super().__init__(seed)
        self.reference = reference

    def make(self, kind: str) -> Op:
        return Op(kind, tuple(self.rng.sample(PRESETS, len(PRESETS))))

    def warmup(self) -> Op:
        return Op("preset_2", ("2",))

    def parts(self, op: Op) -> list[Op]:
        # A figure set runs for over a second, long enough for the CPU speed
        # to change; calibrating between presets tracks it more closely.
        return [Op(f"preset_{name}", (name,)) for name in op.args]

    def run(self, op: Op, lib) -> Outcome:
        csvs = {}
        try:
            for name in op.args:
                buf = io.StringIO()
                header, rows = lib.sweeps.run_figure(name)
                lib.sweeps.write_csv(header, rows, buf)
                csvs[name] = buf.getvalue()
        except Exception as exc:
            return Outcome(None, csvs, exc)
        return Outcome(None, csvs, None)

    def check(self, op: Op, outcome: Outcome) -> list[Problem]:
        if outcome.exc is not None:
            return [_uncaught(outcome.exc)]
        return [
            Problem(f"figure {name}: {p.reason}")
            for name in op.args
            for p in compare_csv(outcome.out[name], self.reference[name])
        ]


# --------------------------------------------------------------------- queries

OPTIMAL_ROWS = ("ssd_joint", "protocol1", "protocol2", "protocol3", "at_least_one_ssd", "at_least_one_p3")
CORRELATION_ROWS = ("tau_abe", "tau_a_be", "tau_b_ae", "tau_e_ab", "d_right", "d_left", "d_symm")
PROPORTION_ROWS = ("prop_left", "prop_right")


def _q_star(s: float, p1: float) -> float:
    """Root of the joint-optimum quartic on [s, 1] with the largest objective,
    from the companion-matrix eigenvalues."""
    p2 = 1.0 - p1
    roots = np.roots([p1, -p1, 0.0, p2 * s, -p2 * s * s])
    real = [r.real for r in roots if abs(r.imag) < 1e-9 and s <= r.real <= 1.0]
    return max(real, key=lambda q: p1 * (1.0 - q) ** 2 + p2 * (1.0 - s / q) ** 2)


def critical_prior(s: float) -> float:
    """P_C for 0 < s < 3 - 2*sqrt(2): the prior where the joint optimum's
    interior branch meets the boundary branch, by bisection."""

    def gap(p: float) -> float:
        q = _q_star(s, p)
        return p * (1.0 - q) ** 2 + (1.0 - p) * ((1.0 - s / q) ** 2 - (1.0 - s) ** 2)

    lo, hi = 1e-9, 0.5
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if gap(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def protocol2_critical_priors(s: float) -> tuple[float, float]:
    """(p_c1, p_c2) of protocol (2), from the paper's closed forms."""
    k = s * s
    p_c1 = k * ((3.0 + k * k) + (1.0 - k) * math.sqrt(k * k - 2.0 * k + 5.0)) / (
        2.0 * (1.0 + 3.0 * k - k * k + k**3)
    )
    return p_c1, k / (1.0 + k)


def _parse_rows(text: str, names: tuple[str, ...]) -> dict[str, str]:
    cells = {}
    for line in text.splitlines():
        fields = line.split()
        if len(fields) >= 2 and fields[0] in names:
            cells[fields[0]] = fields[1]
    return cells


class Queries(Workload):
    name = "queries"
    op_size = "one in-process seqdisc CLI invocation"
    kinds = (
        *("optimal.uniform_low",) * 2,
        *("optimal.uniform_high",) * 10,
        *(f"optimal.decade{d}" for d in range(-10, 0)),
        "optimal.sym_minus",
        "optimal.sym_plus",
        "optimal.pc_minus",
        "optimal.pc_plus",
        "optimal.pc1_minus",
        "optimal.pc1_plus",
        "optimal.pc2_minus",
        "optimal.pc2_plus",
        *("correlations",) * 5,
        "malformed.simulate_negative_seed",
        "malformed.sweep_without_s",
        "malformed.s_above_1",
        "malformed.p1_above_half",
        "malformed.n_zero",
    )
    cycle_s = 1.1
    cal_units = 2

    def _p1(self) -> float:
        return self.draws.uniform("p1", 0.01, 0.5)

    def _s_p1(self, kind: str) -> tuple[float, float]:
        d = self.draws
        family = kind.split(".")[1]
        if family == "uniform_low":
            return d.uniform(kind, 0.0, SYM), self._p1()
        if family == "uniform_high":
            return d.uniform(kind, SYM, 1.0), self._p1()
        if family.startswith("decade"):
            e = int(family[len("decade"):])
            return d.log_uniform(kind, 10.0**e, 10.0 ** (e + 1)), self._p1()
        sign = -1.0 if family.endswith("minus") else 1.0
        eps = d.log_uniform(kind + ".eps", 1e-12, 1e-4)
        if family.startswith("sym"):
            return SYM + sign * eps, self._p1()
        if family.startswith("pc_"):
            s = d.uniform(kind, 0.01, 0.16)
            return s, critical_prior(s) + sign * eps
        s = d.uniform(kind, 0.02, 0.98)
        p_c1, p_c2 = protocol2_critical_priors(s)
        edge = p_c1 if family.startswith("pc1") else p_c2
        return s, min(0.5, edge * (1.0 + sign * eps))

    def make(self, kind: str) -> Op:
        d = self.draws
        if kind.startswith("optimal."):
            s, p1 = self._s_p1(kind)
            return Op(kind, ("optimal", "--s", repr(s), "--p1", repr(p1)), s, p1)
        if kind == "correlations":
            s, p1 = d.uniform("corr.s", 0.001, 0.999), self._p1()
            t = d.uniform("corr.t", s, 1.0)
            return Op(kind, ("correlations", "--s", repr(s), "--p1", repr(p1), "--t", repr(t)), s, p1)
        s, p1 = d.uniform("bad.s", 0.01, 0.99), self._p1()
        if kind == "malformed.simulate_negative_seed":
            argv = ("simulate", "--s", repr(s), "--p1", repr(p1), "--seed", str(-self.rng.randint(1, 1000)))
        elif kind == "malformed.sweep_without_s":
            argv = ("sweep", "--variable", "P1", "--start", "0.1", "--stop", "0.5", "--quantities", "ssd", "--out", "-")
        elif kind == "malformed.s_above_1":
            argv = ("optimal", "--s", repr(1.0 + d.uniform("bad.s_above_1", 1e-9, 1.0)), "--p1", repr(p1))
        elif kind == "malformed.p1_above_half":
            argv = ("optimal", "--s", repr(s), "--p1", repr(1.0 - d.uniform("bad.p1_above_half", 0.0, 0.5)))
        else:
            argv = ("simulate", "--s", repr(s), "--p1", repr(p1), "--n", "0")
        return Op(kind, argv, s, p1)

    def warmup(self) -> Op:
        return Op("optimal.warmup", ("optimal", "--s", "0.5", "--p1", "0.3"), 0.5, 0.3)

    def run(self, op: Op, lib) -> Outcome:
        return run_cli(lib, op.args)

    def check(self, op: Op, outcome: Outcome) -> list[Problem]:
        if op.kind.startswith("malformed."):
            return self._check_malformed(op, outcome)
        if op.kind == "correlations":
            return self._check_correlations(outcome)
        return self._check_optimal(op, outcome)

    @staticmethod
    def _check_malformed(op: Op, outcome: Outcome) -> list[Problem]:
        if outcome.exc is not None:
            known = {
                "malformed.simulate_negative_seed": (ValueError, "simulate_negative_seed"),
                "malformed.sweep_without_s": (KeyError, "sweep_without_s"),
            }.get(op.kind)
            cause = known[1] if known and isinstance(outcome.exc, known[0]) else None
            return [_uncaught(outcome.exc, cause)]
        if outcome.code != 2:
            return [Problem(f"exit {outcome.code}, expected 2")]
        return []

    @staticmethod
    def _check_correlations(outcome: Outcome) -> list[Problem]:
        if outcome.exc is not None:
            return [_uncaught(outcome.exc)]
        if outcome.code != 0:
            return [Problem(f"exit {outcome.code}, expected 0")]
        cells = _parse_rows(outcome.out, CORRELATION_ROWS + PROPORTION_ROWS)
        problems = []
        for name in CORRELATION_ROWS + PROPORTION_ROWS:
            cell = cells.get(name)
            if cell is None:
                problems.append(Problem(f"{name} missing"))
            elif not (name in PROPORTION_ROWS and cell == "undefined"):
                problems.extend(_unit_interval(name, cell))
        return problems

    @staticmethod
    def _check_optimal(op: Op, outcome: Outcome) -> list[Problem]:
        problems = []
        if outcome.exc is not None:
            problems.append(_uncaught(outcome.exc, _protocol3_cause(outcome.exc)))
        elif outcome.code != 0:
            problems.append(Problem(f"exit {outcome.code}, expected 0"))
        cells = _parse_rows(outcome.out, OPTIMAL_ROWS)
        v = {}
        for name, cell in cells.items():
            bad = _unit_interval(name, cell)
            problems.extend(bad)
            if not bad:
                v[name] = float(cell)
        if outcome.exc is None and len(cells) < len(OPTIMAL_ROWS):
            problems.append(Problem(f"rows missing: {sorted(set(OPTIMAL_ROWS) - set(cells))}"))

        def need(relation: str, holds, *names: str, cause: str | None = None) -> None:
            if all(n in v for n in names) and not holds(*(v[n] for n in names)):
                values = ", ".join(f"{n}={v[n]!r}" for n in names)
                problems.append(Problem(f"{relation} violated: {values}", cause))

        sym = (1.0 - math.sqrt(op.s)) ** 2
        need(
            "ssd_joint >= (1-sqrt(s))^2",
            lambda j: j >= sym - PRINT_TOL,
            "ssd_joint",
            cause="qstar_scan_small_s" if op.s < 1e-5 else None,
        )
        need("ssd_joint <= protocol1", lambda j, p: j <= p + PRINT_TOL, "ssd_joint", "protocol1")
        need("protocol2 <= protocol1", lambda a, b: a <= b + PRINT_TOL, "protocol2", "protocol1")
        need(
            "at_least_one_ssd == protocol1",
            lambda a, b: abs(a - b) <= UNION_TOL,
            "at_least_one_ssd",
            "protocol1",
        )
        # The seed's cloning inversion snaps priors near 1/2 to the omega_1
        # limit; that leaves at_least_one_p3 up to about 1e-9 too low there.
        snap = op.p1 > 0.49 and v.get("at_least_one_ssd", 0.0) - v.get("at_least_one_p3", 1.0) <= 1e-8
        need(
            "at_least_one_p3 >= at_least_one_ssd",
            lambda a, b: a >= b - PRINT_TOL,
            "at_least_one_p3",
            "at_least_one_ssd",
            cause="protocol3_prior_snap" if snap else None,
        )
        return problems


def _unit_interval(name: str, cell: str) -> list[Problem]:
    try:
        x = float(cell)
    except ValueError:
        return [Problem(f"{name}={cell!r} is not a number")]
    if not -PRINT_TOL <= x <= 1.0 + PRINT_TOL:
        return [Problem(f"{name}={cell} outside [0, 1]")]
    return []


# --------------------------------------------------------------------- certify

CERT_QUANTITIES = (
    "bob",
    "charlie",
    "joint",
    "protocol1",
    "protocol2",
    "protocol3",
    "at_least_one_p3",
    "at_least_one_ssd",
)


class Certify(Workload):
    name = "certify"
    op_size = "one quantity certified at one scenario"
    # Four quantities certify in 1-3 ms, the two protocol-3 ones in about
    # 14 ms, joint and at_least_one_ssd in 200-300 ms. Taking each protocol-3
    # quantity twice puts the median op inside their group, not on the edge
    # between the cheap half and the costly half, where it jumped.
    kinds = CERT_QUANTITIES + ("protocol3", "at_least_one_p3")
    cycle_s = 0.49
    cal_units = 3

    def make(self, kind: str) -> Op:
        s = self.draws.uniform(kind + ".s", 0.002, 0.98)
        p1 = self.draws.uniform(kind + ".p1", 0.02, 0.5)
        return Op(kind, (kind,), s, p1)

    def warmup(self) -> Op:
        return Op("protocol1", ("protocol1",), 0.5, 0.3)

    def array_share(self, part: Op) -> float:
        # The joint and union oracles maximize over 25^3 grids; the others
        # are dominated by interpreted code.
        return 1.0 if part.kind in ("joint", "at_least_one_ssd") else 0.0

    def run(self, op: Op, lib) -> Outcome:
        try:
            rows = lib.oracle.certify(quantities=[op.kind], s_values=[op.s], p1_values=[op.p1])
        except Exception as exc:
            return Outcome(None, None, exc)
        return Outcome(None, rows, None)

    def check(self, op: Op, outcome: Outcome) -> list[Problem]:
        if outcome.exc is not None:
            return [_uncaught(outcome.exc, _protocol3_cause(outcome.exc))]
        rows = outcome.out
        if len(rows) != 1 or rows[0].quantity != op.kind:
            return [Problem(f"expected one row for {op.kind}, got {rows!r}")]
        gap = rows[0].worst_gap
        if not gap <= CERT_TOL:
            return [Problem(f"gap {gap!r} above {CERT_TOL} at s={op.s!r}, p1={op.p1!r}", _oracle_cause(op, gap))]
        return []


def _oracle_cause(op: Op, gap: float) -> str | None:
    """The seed's protocol-2 oracle defect, recognised by the gap it leaves.

    Below p_c2 Bob's optimum sits at q1b = 1. grid_maximize_protocol2 compares
    its grid maximum with the exact boundary value without a tolerance; when
    the grid value comes out one ulp higher, at q1b one ulp below 1, it goes on
    to Charlie's stage at p1' = 0 and returns p2 (1 - s^2)^2 instead of
    p2 (1 - s^2). The gap is then p2 (1 - s^2) s^2."""
    if op.kind != "protocol2" or op.p1 >= protocol2_critical_priors(op.s)[1]:
        return None
    if abs(gap - (1.0 - op.p1) * (1.0 - op.s**2) * op.s**2) < 1e-9:
        return "protocol2_oracle_boundary_tie"
    return None


# ------------------------------------------------------------------ montecarlo


class MonteCarlo(Workload):
    name = "montecarlo"
    op_size = f"one in-process seqdisc simulate of {MC_TRIALS} trials"
    kinds = ("simulate",) * 4
    cycle_s = 0.77
    cal_units = 8

    def _argv(self, s: float, p1: float, seed: int) -> tuple[str, ...]:
        return ("simulate", "--s", repr(s), "--p1", repr(p1), "--n", str(MC_TRIALS), "--seed", str(seed))

    def make(self, kind: str) -> Op:
        s = self.draws.uniform("s", 0.01, 0.99)
        p1 = self.draws.uniform("p1", 0.02, 0.5)
        return Op(kind, self._argv(s, p1, self.rng.randrange(1, 2**63)), s, p1)

    def warmup(self) -> Op:
        return Op("simulate", self._argv(0.5, 0.3, 1), 0.5, 0.3)

    def array_share(self, part: Op) -> float:
        # Philox draws and the tally run on arrays of a million trials, under
        # a Python loop over chunks.
        return 0.5

    def run(self, op: Op, lib) -> Outcome:
        return run_cli(lib, op.args)

    def check(self, op: Op, outcome: Outcome) -> list[Problem]:
        if outcome.exc is not None:
            return [_uncaught(outcome.exc)]
        if outcome.code != 0:
            return [Problem(f"exit {outcome.code}, expected 0")]
        return []


WORKLOADS = ("figures", "queries", "certify", "montecarlo")


def make_workload(name: str, seed: int) -> Workload:
    if name == "figures":
        return Figures(seed, load_reference())
    return {"queries": Queries, "certify": Certify, "montecarlo": MonteCarlo}[name](seed)
