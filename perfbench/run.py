#!/usr/bin/env python3
"""The seqdisc benchmark: one seeded, closed-loop workload per run.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 16 --trace 0

One client keeps one op in flight and checks every op's output. A run does a
fixed amount of work: the number of whole cycles (see workloads.py) that take
--seconds at the reference speed. The same seed and --seconds therefore give
the same ops, and the same counts of attempted and failed ops, on every run.
The report goes to stdout; its last line is one JSON object with the keys
correct, attempted, failed and metrics.

Times are reported at the reference speed. The CPU this runs on changes speed
by up to 1.7x from minute to minute, so every op part and every set-up is
bracketed by runs of two fixed calibration kernels that do not touch seqdisc:
one bound by the interpreter, one by numpy arrays. A part's wall time is
scaled by (INTERP_REF_MS / i) ** (1 - w) * (ARRAY_REF_MS / a) ** w, where i
and a are the kernels' times around it and w is the part's array share (see
Workload.array_share). The wall-clock figures are printed too.

--trace 0 reports the end-to-end metrics, measured with no tracing installed.
--trace 1 is a separate traced run: it alternates untraced and traced passes
over the first cycle of ops and reports the per-layer metrics per pass, plus
trace.overhead_frac, the traced pass time against the untraced one. The spans
are written to .perfbench_out/ in the checkout.

seqdisc is imported from src/ of the checkout this file sits in; without it
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 15
SETUP_CAL_UNITS = 8
TAIL_BEYOND = 10
INTERP_REF_MS = 1.0  # the interpreter kernel's time at the reference speed
ARRAY_REF_MS = 0.4  # the array kernel's time at the reference speed
MAX_RUN_S = 150.0  # no new cycle starts after this; keeps a run within its time limit

# One client, BLAS threads pinned to the CPUs this process may use; this must
# happen before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(len(os.sched_getaffinity(0)))

import numpy as np  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


_CAL_SMALL = np.linspace(0.0, 1.0, 2000)
_CAL_MID = np.linspace(0.0, 1.0, 16000)


def _interp_unit() -> float:
    """About 1 ms of the kind of interpreter-bound code seqdisc runs: a
    sign-change scan of a quartic on a grid, numpy scalars unboxed one by one,
    a vectorized bisection on small arrays, a Python max over a list."""
    s, p1 = 0.3, 0.2
    p2 = 1.0 - p1
    grid = np.linspace(s, 1.0, 301)
    vals = p1 * grid**4 - p1 * grid**3 + p2 * s * grid - p2 * s * s
    picked = [float(g) for g, v in zip(grid, vals) if v > 0.0]
    lo, hi, flo = grid[:-1].copy(), grid[1:].copy(), vals[:-1].copy()
    for _ in range(20):
        mid = 0.5 * (lo + hi)
        fmid = p1 * mid**4 - p1 * mid**3 + p2 * s * mid - p2 * s * s
        same = flo * fmid > 0.0
        lo, flo, hi = np.where(same, mid, lo), np.where(same, fmid, flo), np.where(same, hi, mid)
    best = max(picked, key=lambda q: p1 * (1.0 - q) ** 2 + p2 * (1.0 - s / q) ** 2)
    a = _CAL_SMALL
    for _ in range(30):
        a = np.sqrt(a * 1.0001 + 1.0)
    return best + float(a[0] + lo[0])


def _array_unit() -> float:
    """About 0.4 ms of elementwise numpy work on arrays of 16000 doubles, the
    size of the 25^3 grids the oracles and self-checks evaluate."""
    a = _CAL_MID
    for _ in range(12):
        a = np.sqrt(a * 1.0001 + 1.0)
    return float(np.max(np.where(a > 1.2, a, 0.0)))


def calibrate(units: int) -> tuple[float, float]:
    """Median times of ``units`` runs of each kernel, interleaved, in ms."""
    interp, array = [], []
    for _ in range(units):
        start = time.perf_counter()
        _interp_unit()
        middle = time.perf_counter()
        _array_unit()
        interp.append((middle - start) * 1e3)
        array.append((time.perf_counter() - middle) * 1e3)
    return statistics.median(interp), statistics.median(array)


def to_reference(before: tuple[float, float], after: tuple[float, float], w: float) -> float:
    """Factor from wall time to reference time for a part with array share w,
    run between the calibrations ``before`` and ``after``."""
    interp = 0.5 * (before[0] + after[0])
    array = 0.5 * (before[1] + after[1])
    return (INTERP_REF_MS / interp) ** (1.0 - w) * (ARRAY_REF_MS / array) ** w


def _purge_seqdisc() -> None:
    for name in list(tracer.package_modules()):
        del sys.modules[name]


def set_up(name: str, seed: int):
    """Import seqdisc and its CLI, generate the workload's first cycle and run
    one untimed warm-up op, SETUP_REPS times from a fresh import, each after a
    calibration. Returns the last set-up's package, workload and first cycle,
    the set-up wall times and their scale factors to the reference speed, and
    the warm-up op's problems."""
    times, scales, problems = [], [], []
    for _ in range(SETUP_REPS):
        _purge_seqdisc()
        gc.collect()  # so that no set-up pays for collecting the previous one's garbage
        cal = calibrate(SETUP_CAL_UNITS)
        scales.append(to_reference(cal, cal, 0.0))  # importing is interpreter work
        start = time.perf_counter()
        lib = importlib.import_module("seqdisc")
        importlib.import_module("seqdisc.cli")
        workload = workloads.make_workload(name, seed)
        first = workload.cycle()
        warm = workload.warmup()
        outcome = workload.run(warm, lib)
        times.append(time.perf_counter() - start)
        problems.extend(workload.check(warm, outcome))
    return lib, workload, first, times, scales, problems


class Log:
    """Latency and problems of every op run. With ``cal_units``, every part of
    an op (see Workload.parts) is followed by a calibration, and the op's
    latency at the reference speed is logged too."""

    def __init__(self, cal_units: int = 0) -> None:
        self.cal_units = cal_units
        self.latencies: list[float] = []
        self.reference: list[float] = []
        self.cal_ms: list[tuple[float, float]] = [calibrate(cal_units)] if cal_units else []
        self.failures: list[tuple[workloads.Op, list[workloads.Problem]]] = []

    def run_op(self, workload, op, lib) -> float:
        wall = ref = 0.0
        problems = []
        for part in workload.parts(op):
            start = time.perf_counter()
            outcome = workload.run(part, lib)
            elapsed = time.perf_counter() - start
            wall += elapsed
            problems.extend(workload.check(part, outcome))
            if self.cal_units:
                self.cal_ms.append(calibrate(self.cal_units))
                ref += elapsed * to_reference(self.cal_ms[-2], self.cal_ms[-1], workload.array_share(part))
        self.latencies.append(wall)
        self.reference.append(ref)
        if problems:
            self.failures.append((op, problems))
        return wall

    def run_pass(self, workload, ops, lib) -> float:
        return sum(self.run_op(workload, op, lib) for op in ops)


def cycles_for(workload, seconds: float) -> int:
    """Whole cycles that take ``seconds`` at the reference speed, and enough
    for 2 * TAIL_BEYOND + 1 ops, so that the tail lies above the median."""
    at_least = -(-(2 * TAIL_BEYOND + 1) // len(workload.kinds))
    return max(at_least, round(seconds / workload.cycle_s))


def timed_run(workload, lib, first, seconds: float) -> tuple[Log, bool]:
    """Run cycles_for(seconds) cycles, each op part between two calibrations.
    Returns the log and whether MAX_RUN_S cut the run short."""
    log = Log(workload.cal_units)
    start = time.perf_counter()
    ops = first
    for c in range(cycles_for(workload, seconds)):
        if c and time.perf_counter() - start >= MAX_RUN_S:
            return log, True
        if c:
            ops = workload.cycle()
        log.run_pass(workload, ops, lib)
    return log, False


def traced_run(workload, lib, first, seconds: float) -> tuple[Log, tracer.Tracer, int, float]:
    log, tr = Log(), tracer.Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    for _ in range(max(1, round(seconds / (2.5 * workload.cycle_s)))):
        if traced and time.perf_counter() - start >= MAX_RUN_S:
            break
        plain.append(log.run_pass(workload, first, lib))
        with tr:
            traced.append(log.run_pass(workload, first, lib))
    return log, tr, len(traced), statistics.median(traced) / statistics.median(plain) - 1.0


def _attributed(problems) -> bool:
    return all(p.cause is not None for p in problems)


def report(args, workload, log: Log, warm_problems, metrics: dict, notes: dict) -> dict:
    attempted = len(log.latencies)
    failed = len(log.failures)
    unexplained = [(op, ps) for op, ps in log.failures if not _attributed(ps)]
    correct = not unexplained and _attributed(warm_problems)
    print(f"# seqdisc benchmark: workload {workload.name}, seed {args.seed}, trace {args.trace}")
    print(f"# op: {workload.op_size}; {len(workload.kinds)} ops per cycle; one client, closed loop")
    if "#" in notes:
        print(f"# {notes['#']}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:<14.6g} {unit:<6} {notes.get(name, '')}")
    print(f"{'failed_frac':<44} {failed / attempted:<14.6g} {'1':<6} {failed} of {attempted} ops failed")
    causes: dict[str, int] = {}
    for _, ps in log.failures:
        for cause in {p.cause or "UNEXPLAINED" for p in ps}:
            causes[cause] = causes.get(cause, 0) + 1
    for cause, n in sorted(causes.items()):
        print(f"#   failed ops with cause {cause}: {n}")
    for op, ps in unexplained[:5]:
        print(f"# unexplained failure of {op.kind} {op.args}: {[p.reason for p in ps]}", file=sys.stderr)
    for p in warm_problems:
        print(f"# warm-up op problem: {p.reason}", file=sys.stderr)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="seqdisc benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "seqdisc" / "__init__.py").is_file():
        print(f"error: no seqdisc package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    lib, workload, first, setup_times, setup_scales, warm_problems = set_up(args.workload, args.seed)
    if not Path(lib.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: imported seqdisc from {lib.__file__}, not from {src}", file=sys.stderr)
        return 2

    notes = {}
    if args.trace:
        log, tr, passes, overhead = traced_run(workload, lib, first, args.seconds)
        metrics = tr.metrics(passes)
        metrics["trace.overhead_frac"] = (overhead, "1")
        spans = ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.tsv"
        tr.write_spans(spans)
        notes["trace.overhead_frac"] = f"spans in {spans.relative_to(ROOT)}"
    else:
        log, cut = timed_run(workload, lib, first, args.seconds)
        lat = sorted(log.reference)
        wall = sorted(log.latencies)
        n = len(lat)
        setup = [t * k for t, k in zip(setup_times, setup_scales)]
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "ops_per_s": (n / sum(lat), "op/s"),
            "op_p50_ms": (statistics.median_high(lat) * 1e3, "ms"),
            "op_tail_ms": (lat[n - 1 - TAIL_BEYOND] * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        notes["setup_s"] = f"median of {SETUP_REPS} set-ups; wall {statistics.median(setup_times):.4g} s"
        notes["ops_per_s"] = f"{n} ops in {sum(lat):.3f} s of op time; wall {n / sum(wall):.4g} op/s"
        notes["op_p50_ms"] = f"upper median; wall {statistics.median_high(wall) * 1e3:.4g} ms"
        notes["op_tail_ms"] = (
            f"p{100.0 * (n - TAIL_BEYOND) / n:.2f}, {TAIL_BEYOND} of {n} ops beyond it; "
            f"wall {wall[n - 1 - TAIL_BEYOND] * 1e3:.4g} ms"
        )
        notes["#"] = "; ".join(
            f"{kind} kernel: median {statistics.median(t):.4g} ms, range {min(t):.4g} to {max(t):.4g} ms, "
            f"reference {ref} ms"
            for kind, t, ref in (
                ("interpreter", [c[0] for c in log.cal_ms], INTERP_REF_MS),
                ("array", [c[1] for c in log.cal_ms], ARRAY_REF_MS),
            )
        )
        if cut:
            notes["#"] += f"; run cut short after {MAX_RUN_S:.0f} s"
    result = report(args, workload, log, warm_problems, metrics, notes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
