"""Shared parts of the timing harnesses: a second checkout and interleaved rounds.

``load_parent`` imports another checkout's ``src/seqdisc`` under the module
name ``seqdisc_parent``, beside this tree's ``seqdisc``, so one process times
both trees. ``time_rounds`` warms each op up once, then runs it once per tree
in every round, the two trees in alternating order from round to round. A
slow spell of the machine then touches the change and the parent alike, and
each round's change/parent ratio cancels it where the raw times do not.
Beside each time it counts the process's minor page faults
(``resource.getrusage``), so memory that an op gives back to the system and
faults in again shows in the record. The two trees share one heap, so one
tree's allocations can spare the other its faults; ``summarize`` and
``print_results`` therefore report fault counts only for runs without a
parent. Compare them between runs of each tree alone.
"""

import argparse
import importlib.util
import json
import resource
import statistics
import sys
import time
from pathlib import Path

PARENT_MODULE = "seqdisc_parent"


def parse_args(doc: str) -> argparse.Namespace:
    """The harnesses' shared command line: --quick, --out and --parent DIR."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="2 repeats instead of 15")
    parser.add_argument("--out", required=True, help="path of the JSON record")
    parser.add_argument(
        "--parent",
        metavar="DIR",
        help="a second checkout whose src/seqdisc is timed in the same process",
    )
    return parser.parse_args()


def load_parent(checkout: str):
    """The package ``<checkout>/src/seqdisc``, imported as ``seqdisc_parent``."""
    init = Path(checkout) / "src" / "seqdisc" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        PARENT_MODULE, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[PARENT_MODULE] = package  # its relative imports resolve here
    spec.loader.exec_module(package)
    return package


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def time_rounds(trees: dict, repeats: int) -> dict:
    """Milliseconds and minor page faults of each call:
    ``{op: {tree: {"ms": [per round], "minor_faults": [per round]}}}``.

    ``trees`` maps "change" and, when a parent is timed, "parent" to that
    tree's ``{op name: callable}``; both trees have the same op names.
    """
    for ops in trees.values():
        for fn in ops.values():
            fn()
    names = list(trees["change"])
    runs = {name: {tree: {"ms": [], "minor_faults": []} for tree in trees} for name in names}
    for r in range(repeats):
        for name in names:
            for tree in list(trees)[:: -1 if r % 2 else 1]:
                faults = _minor_faults()
                start = time.perf_counter()
                trees[tree][name]()
                ms = 1e3 * (time.perf_counter() - start)
                runs[name][tree]["minor_faults"].append(_minor_faults() - faults)
                runs[name][tree]["ms"].append(ms)
    return runs


def _significant(x: float) -> float:
    """x to 4 significant digits: a few-microsecond op keeps its precision."""
    return float(f"{x:.4g}")


def _stats(run: dict, divisor: float, faults: bool) -> dict:
    ms = [x / divisor for x in run["ms"]]
    stats = {"min_ms": _significant(min(ms)), "median_ms": _significant(statistics.median(ms))}
    if faults:
        stats["minor_faults_median"] = statistics.median(run["minor_faults"])
    return stats


def summarize(runs: dict, divisor: float = 1.0) -> dict:
    """Each op's min and median ms for this tree (each time divided by
    ``divisor``); with a parent, also the parent's and the per-round
    change/parent time ratios with their median. The median minor page
    faults per call are recorded only without a parent: with one, the two
    trees' counts depend on each other through the shared heap."""
    results = {}
    for name, by_tree in runs.items():
        alone = "parent" not in by_tree
        record = {**_stats(by_tree["change"], divisor, alone), "repeats": len(by_tree["change"]["ms"])}
        if not alone:
            record["parent"] = _stats(by_tree["parent"], divisor, faults=False)
            ratios = [c / p for c, p in zip(by_tree["change"]["ms"], by_tree["parent"]["ms"])]
            record["change_over_parent"] = {
                "median": round(statistics.median(ratios), 4),
                "per_round": [round(x, 4) for x in ratios],
            }
        results[name] = record
    return results


def write_record(path: str, record: dict) -> None:
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")


def print_results(results: dict, unit: str = "") -> None:
    """One line per op; fault counts only where ``summarize`` recorded them,
    in runs without a parent."""
    for name, r in results.items():
        line = f"{name}: min {r['min_ms']:.4g} ms, median {r['median_ms']:.4g} ms{unit}"
        if "minor_faults_median" in r:
            line += f", {r['minor_faults_median']:g} minor faults per call"
        if "parent" in r:
            p = r["parent"]
            line += (
                f"; parent min {p['min_ms']:.4g} ms, median {p['median_ms']:.4g} ms;"
                f" change/parent median {r['change_over_parent']['median']:.3f}"
            )
        print(line)
