"""Outside tracer: per-layer spans and counts without touching seqdisc's source.

While installed, every traced public function is replaced by a wrapper in
every seqdisc module namespace that holds it by name, the package namespace
included; calls made inside seqdisc through those names are caught too. The
originals are put back on exit, also when the traced code raises.

A span records (id, parent id, name, start, end). Spans are kept in memory;
``write_spans`` writes them out once the run is over. Self time is a span's
duration minus that of its child spans. The hot primitives are only counted,
so that tracing adds little to the time of the spans above them: their time
stays in their caller's self time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

SPANNED = (
    "cli.main",
    "sweeps.run_figure",
    "sweeps.write_csv",
    "ssd.solve_q_star",
    "ssd.joint_optimal",
    "ssd.critical_prior_PC",
    "ssd.bob_optimal",
    "ssd.charlie_optimal",
    "protocols.protocol1_optimal",
    "protocols.protocol2_optimal",
    "protocols.protocol3_optimal",
    "protocols.at_least_one_ssd",
    "protocols.at_least_one_protocol3",
    "protocols.clone_optimal_for_prior",
    "correlations.correlation_report",
    "oracle.certify",
    "oracle.grid_maximize_joint",
    "oracle.grid_maximize_union_ssd",
    "oracle.grid_maximize_cloning",
    "oracle.grid_maximize_protocol2",
    "oracle.grid_maximize_bob",
    "oracle.grid_maximize_charlie",
    "simulate.run_ssd_trials",
    "simulate.trial_uniforms",
    "simulate.build_discrimination_unitary",
)
COUNTED = ("protocols.clone_params_of_omega", "core.entropy_H")
# A spanned function that is only counted while it runs under the given parent.
COUNTED_UNDER = {"ssd.solve_q_star": "ssd.critical_prior_PC"}
CLOSED_FORMS = tuple(q for q in SPANNED if q.startswith(("ssd.", "protocols.")))
GRID_ORACLES = tuple(q for q in SPANNED if q.startswith("oracle.grid_"))


def package_modules() -> dict[str, object]:
    """The seqdisc package and its imported submodules, by module name."""
    return {
        name: mod
        for name, mod in list(sys.modules.items())
        if name == "seqdisc" or name.startswith("seqdisc.")
    }


class Tracer:
    """Context manager that installs the wrappers; reusable across passes."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.calls: Counter[tuple[str, str]] = Counter()  # (name, parent name)
        self.trials = 0
        self._stack: list[tuple[int, str]] = [(0, "")]
        self._next_id = 1
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        modules = package_modules()
        for qual in SPANNED + COUNTED:
            mod_name, fn_name = qual.split(".")
            original = getattr(modules[f"seqdisc.{mod_name}"], fn_name)
            wrapper = self._wrap(qual, original)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            mod, attr, value = self._saved.pop()
            setattr(mod, attr, value)
        del self._stack[1:]

    def _wrap(self, qual: str, fn):
        stack, calls = self._stack, self.calls
        if qual in COUNTED:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[qual, stack[-1][1]] += 1
                return fn(*args, **kwargs)

            return counted

        quiet_under = COUNTED_UNDER.get(qual)
        tally_trials = qual == "simulate.run_ssd_trials"

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            parent_id, parent = stack[-1]
            calls[qual, parent] += 1
            if parent == quiet_under:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            stack.append((span_id, qual))
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                self.spans.append((span_id, parent_id, qual, start, end))
            if tally_trials:
                self.trials += result.n_trials
            return result

        return spanned

    def metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, per pass over the traced ops: name -> (value, unit)."""
        total_ns: defaultdict[str, int] = defaultdict(int)
        child_ns: defaultdict[int, int] = defaultdict(int)
        name_of = {0: ""}
        for span_id, parent_id, qual, start, end in self.spans:
            total_ns[qual] += end - start
            child_ns[parent_id] += end - start
            name_of[span_id] = qual
        self_ns: defaultdict[str, int] = defaultdict(int)
        closed_form_ns = 0
        for span_id, parent_id, qual, start, end in self.spans:
            self_ns[qual] += end - start - child_ns[span_id]
            if qual in CLOSED_FORMS and name_of[parent_id] == "oracle.certify":
                closed_form_ns += end - start
        calls: Counter[str] = Counter()
        for (qual, _), n in self.calls.items():
            calls[qual] += n

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        out: dict[str, tuple[float, str]] = {}

        def add(qual: str, *fields: str) -> None:
            for f in fields:
                if f == "calls":
                    out[f"{qual}.calls"] = (calls[qual] / passes, "count")
                else:
                    ns = self_ns[qual] if f == "self_ms" else total_ns[qual]
                    out[f"{qual}.{f}"] = (ns / 1e6 / passes, "ms")

        add("cli.main", "calls", "self_ms")
        add("sweeps.run_figure", "calls", "self_ms")
        add("sweeps.write_csv", "total_ms")
        add("ssd.solve_q_star", "calls", "total_ms")
        add("ssd.joint_optimal", "calls", "self_ms")
        add("ssd.critical_prior_PC", "calls", "self_ms")
        out["ssd.q_star_solves_per_critical_prior"] = (
            ratio(self.calls["ssd.solve_q_star", "ssd.critical_prior_PC"], calls["ssd.critical_prior_PC"]),
            "1",
        )
        add("ssd.bob_optimal", "total_ms")
        add("ssd.charlie_optimal", "total_ms")
        for q in CLOSED_FORMS:
            if q.startswith("protocols."):
                add(q, "calls", "self_ms")
        add("protocols.clone_params_of_omega", "calls")
        out["protocols.omega_evals_per_inversion"] = (
            ratio(
                self.calls["protocols.clone_params_of_omega", "protocols.clone_optimal_for_prior"],
                calls["protocols.clone_optimal_for_prior"],
            ),
            "1",
        )
        add("correlations.correlation_report", "calls", "total_ms")
        add("core.entropy_H", "calls")
        add("oracle.certify", "self_ms")
        for q in GRID_ORACLES:
            add(q, "calls", "total_ms")
        out["oracle.closed_form_ms"] = (closed_form_ns / 1e6 / passes, "ms")
        add("simulate.run_ssd_trials", "calls", "self_ms")
        add("simulate.trial_uniforms", "calls", "total_ms")
        add("simulate.build_discrimination_unitary", "calls", "total_ms")
        out["simulate.trials_per_s"] = (ratio(self.trials, total_ns["simulate.run_ssd_trials"] / 1e9), "1/s")
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for span in self.spans:
                fh.write("\t".join(map(str, span)) + "\n")
