"""Command-line front end.

Subcommands: optimal, sweep, correlations, simulate, verify.
Exit codes: 0 ok, 2 usage or constraint violation, 3 I/O failure,
4 statistical check failure, 5 certification failure, 6 numeric failure
(a solver did not converge, e.g. at s below the documented 1e-12).

Each call is parsed once: an argv that starts with a subcommand's name goes
straight to that subcommand's parser, and every other argv (none, ``-h``, a
misspelt command, a leading ``--``) to the top-level parser. Both are built
once per process, and the output and exit code are those of a parse by the
top-level parser alone.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
import time

from .core import ConstraintError, DomainError, NumericError, Scenario, check_overlap_t
from .correlations import CorrelationInput, correlation_report
from .oracle import certify
from .protocols import _cloned_optimum, at_least_one_ssd, protocol1_optimal, protocol2_optimal
from .simulate import run_ssd_trials
from .ssd import bob_optimal, charlie_optimal, joint_optimal, joint_success
from .sweeps import (
    FIGURE_PRESETS,
    SweepSpec,
    available_quantities,
    run_figure,
    run_sweep,
    write_csv,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_STATISTICAL = 4
EXIT_CERTIFICATION = 5
EXIT_NUMERIC = 6


def _print_result(name: str, res) -> None:
    line = f"{name:<22} {res.value:<18.12g} {res.case_label.value}"
    if res.boundary_prior is not None:
        line += f"  boundary_p1={res.boundary_prior:.12g}"
    if res.argmax:
        line += "  " + " ".join(f"{k}={v:.12g}" for k, v in res.argmax.items())
    print(line)


def cmd_optimal(args: argparse.Namespace) -> int:
    sc = Scenario(args.s, args.p1)
    print(f"# scenario: s={sc.s:.12g} p1={sc.p1:.12g}")
    print(f"{'quantity':<22} {'value':<18} case")
    _print_result("ssd_joint", joint_optimal(sc))
    _print_result("protocol1", protocol1_optimal(sc))
    _print_result("protocol2", protocol2_optimal(sc))
    # protocol3 and at_least_one_p3 from one solve of the optimal cloner
    protocol3, at_least_one_p3, _ = _cloned_optimum(sc)
    _print_result("protocol3", protocol3)
    _print_result("at_least_one_ssd", at_least_one_ssd(sc))
    _print_result("at_least_one_p3", at_least_one_p3)
    return EXIT_OK


#: The ``sweep`` flags that only a custom sweep reads.
_CUSTOM_SWEEP_FLAGS = ("variable", "start", "stop", "steps", "s", "p1", "t", "quantities")


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.figure:
        given = [f"--{name}" for name in _CUSTOM_SWEEP_FLAGS if getattr(args, name) is not None]
        if given:
            raise DomainError(f"--figure takes no {', '.join(given)}; those define a custom sweep")
        header, rows = run_figure(args.figure)
    else:
        if not (args.variable and args.quantities):
            raise DomainError("sweep needs either --figure or --variable plus --quantities")
        if args.start is None or args.stop is None:
            raise DomainError("custom sweeps need --start and --stop")
        fixed = {name: getattr(args, name) for name in ("s", "p1", "t") if getattr(args, name) is not None}
        spec = SweepSpec(
            variable=args.variable,
            start=args.start,
            stop=args.stop,
            steps=200 if args.steps is None else args.steps,
            fixed=fixed,
            quantities=tuple(args.quantities.split(",")),
        )
        header, rows = run_sweep(spec)
    if args.out == "-":
        write_csv(header, rows, sys.stdout)
    else:
        with open(args.out, "w", newline="") as fh:
            write_csv(header, rows, fh)
    return EXIT_OK


def cmd_correlations(args: argparse.Namespace) -> int:
    sc = Scenario(args.s, args.p1)
    check_overlap_t(sc.s, args.t)
    rep = correlation_report(CorrelationInput(sc.p1, args.t, sc.s / args.t))
    print(f"# correlations: s={sc.s:.12g} p1={sc.p1:.12g} t={args.t:.12g} r={sc.s / args.t:.12g}")
    for name in ("tau_abe", "tau_a_be", "tau_b_ae", "tau_e_ab", "d_right", "d_left", "d_symm"):
        print(f"{name:<12} {getattr(rep, name):.12g}")
    for name in ("prop_left", "prop_right"):
        val = getattr(rep, name)
        print(f"{name:<12} undefined" if val is None else f"{name:<12} {val:.12g}")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    sc = Scenario(args.s, args.p1)
    if args.t is None:
        best = joint_optimal(sc).argmax
        if not best["t"] > 0.0:  # s = 0, where the optimal t is 0
            raise DomainError(
                f"the joint optimum's t={best['t']:.12g} at s={sc.s:.12g} is outside the "
                "simulator's 0 < t <= 1: give an explicit --t"
            )
    else:
        # each stage's own optimum at the given t is feasible there
        best = {**bob_optimal(sc, args.t).argmax, **charlie_optimal(sc, args.t).argmax}
    t = best["t"]
    q1b = args.q1b if args.q1b is not None else best["q1b"]
    q1c = args.q1c if args.q1c is not None else best["q1c"]
    summary = run_ssd_trials(sc, t, q1b, q1c, args.n, args.seed)
    expected = joint_success(sc, t, q1b, q1c)
    sigma = math.sqrt(max(expected * (1.0 - expected), 0.0) / args.n)
    rate = summary.joint_success_rate
    print(f"# simulate: s={sc.s:.12g} p1={sc.p1:.12g} t={t:.12g} q1b={q1b:.12g} q1c={q1c:.12g}")
    print(f"n_trials             {summary.n_trials}")
    print(f"seed                 {summary.seed}")
    for i in (1, 2):
        for b in (1, 0):
            for c in (1, 0):
                label = f"state{i}_bob_{'ok' if b else 'fail'}_charlie_{'ok' if c else 'fail'}"
                print(f"{label:<38} {int(summary.counts[i - 1, b, c])}")
    print(f"error_count          {summary.error_count}")
    print(f"joint_success_rate   {rate:.12g}")
    print(f"expected_joint       {expected:.12g}")
    print(f"deviation_sigmas     {(abs(rate - expected) / sigma if sigma > 0 else 0.0):.12g}")
    if summary.error_count != 0:
        print("FAIL: erroneous declarations occurred", file=sys.stderr)
        return EXIT_STATISTICAL
    if sigma > 0.0:
        deviates = abs(rate - expected) > 5.0 * sigma
    else:  # the analytic rate is 0 or 1 up to rounding, so every trial must agree with it
        deviates = summary.joint_success_count != round(expected * args.n)
    if deviates:
        print("FAIL: joint success rate outside 5 sigma of the analytic value", file=sys.stderr)
        return EXIT_STATISTICAL
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    quantities = None if args.quantity is None else args.quantity.split(",")
    start = time.perf_counter()
    rows = certify(quantities=quantities, tolerance=args.tolerance)
    elapsed = time.perf_counter() - start
    print(f"{'quantity':<18} {'worst gap':<14} {'at (s, p1)':<16} status")
    failed = False
    for row in rows:
        status = "PASS" if row.passed else "FAIL"
        failed = failed or not row.passed
        at = f"({row.worst_scenario[0]:g}, {row.worst_scenario[1]:g})"
        print(f"{row.quantity:<18} {row.worst_gap:<14.3e} {at:<16} {status}")
    print(f"certification finished in {1e3 * elapsed:.1f} ms")
    return EXIT_CERTIFICATION if failed else EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reads a negative number in exponent form, such as -1e-6, as a value and
    not as an option, so that the library's range checks report it; its
    subparsers are of this class too. The top-level parser's ``commands``
    maps each subcommand's name to its parser."""

    commands: dict[str, argparse.ArgumentParser]

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call; parsing leaves it unchanged."""
    parser = _Parser(
        prog="seqdisc",
        description="Sequential unambiguous discrimination of two nonorthogonal qubit states",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    p_opt = sub.add_parser("optimal", help="all optimal success probabilities for one scenario")
    p_opt.add_argument("--s", type=float, required=True, help="state overlap in [0, 1]")
    p_opt.add_argument("--p1", type=float, required=True, help="prior of state 1 in (0, 1/2]")
    p_opt.set_defaults(fn=cmd_optimal)

    p_sweep = sub.add_parser("sweep", help="CSV parameter sweeps, including figure presets")
    p_sweep.add_argument("--figure", choices=sorted(FIGURE_PRESETS), help="figure preset")
    p_sweep.add_argument("--variable", choices=("P1", "s", "t"))
    p_sweep.add_argument("--start", type=float)
    p_sweep.add_argument("--stop", type=float)
    p_sweep.add_argument("--steps", type=int, help="grid points of a custom sweep (default 200)")
    p_sweep.add_argument("--s", type=float)
    p_sweep.add_argument("--p1", type=float)
    p_sweep.add_argument("--t", type=float)
    p_sweep.add_argument(
        "--quantities", help="comma-separated: " + ",".join(available_quantities())
    )
    p_sweep.add_argument("--out", required=True, help="output CSV path ('-' for stdout)")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_corr = sub.add_parser("correlations", help="tangles, discords and proportions")
    p_corr.add_argument("--s", type=float, required=True)
    p_corr.add_argument("--p1", type=float, required=True)
    p_corr.add_argument("--t", type=float, required=True, help="post-measurement overlap in [s, 1]")
    p_corr.set_defaults(fn=cmd_correlations)

    p_sim = sub.add_parser("simulate", help="seeded Monte Carlo through the measurement chain")
    p_sim.add_argument("--s", type=float, required=True)
    p_sim.add_argument("--p1", type=float, required=True)
    p_sim.add_argument("--t", type=float, help="default: t of the joint optimum, sqrt(s)")
    p_sim.add_argument("--q1b", type=float, help="default: q1b of the joint optimum")
    p_sim.add_argument("--q1c", type=float, help="default: q1c of the joint optimum")
    p_sim.add_argument("--n", type=int, default=1_000_000)
    p_sim.add_argument("--seed", type=int, default=42)
    p_sim.set_defaults(fn=cmd_simulate)

    p_ver = sub.add_parser("verify", help="certify closed forms against brute-force oracles")
    p_ver.add_argument("--quantity", help="comma-separated subset of quantities")
    p_ver.add_argument("--tolerance", type=float, default=1e-6)
    p_ver.set_defaults(fn=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one call of ``seqdisc`` (``argv`` defaults to ``sys.argv[1:]``) and
    return its exit code; argparse raises SystemExit itself, 0 after help
    and 2 on a usage error.

    An argv led by a subcommand's name is parsed by that subcommand's parser
    alone, which is what the top-level parser hands it; a token left over is
    reported by the top-level parser, as its own parse would report it.
    """
    parser = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        args = parser.parse_args(argv)
    else:
        args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        return args.fn(args)
    except (DomainError, ConstraintError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
