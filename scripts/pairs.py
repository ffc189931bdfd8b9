#!/usr/bin/env python3
"""Run the benchmark of a parent checkout and of this one in alternating
pairs, and write a JSON record of every run's end-to-end metrics.

Each pair runs ``perfbench/run.py`` once in each tree, on one workload and
seed; pair i runs the parent first when i is odd and this tree first when it
is even, so that neither order is favoured. Each run imports seqdisc from
``src/`` of the checkout its ``run.py`` sits in, so the two trees' runs time
their own code with the same interpreter. The last line of a run's output is
its result; a run that exits non-zero, or whose result is not ``correct`` or
has ``failed`` ops, stops the script with status 1 and writes no record.

The record holds ``what``, ``command``, ``order``, ``numpy``, ``python``,
``cpu_count``, each run's result under ``runs`` (with ``tree``,
``workload``, ``seed`` and ``pair``), and under ``summary``, per workload
and seed, each metric's median and quartiles on both trees, the
change/parent ratio of the medians, and the pairs that favoured the change:
strictly better, in the direction that BENCHMARK.json gives the metric
(ties favour neither side; a metric it does not name gets no count).

    python scripts/pairs.py --parent ../parent --workload certify --seeds 1,2 --pairs 10 --seconds 16 \\
        --out BENCH_label.json
    python scripts/pairs.py --parent . --workload certify --seeds 1 --pairs 1 --seconds 1 --out pairs.json
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

#: The checkout this script sits in: the tree under test, "change".
_ROOT = Path(__file__).resolve().parents[1]


def _revision(tree: Path) -> str:
    """The short git revision of a checkout, "with uncommitted edits" where
    its work tree differs from it, or its directory name outside git."""
    def git(*args):
        return subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True)

    head = git("rev-parse", "--short", "HEAD")
    if head.returncode != 0:
        return tree.resolve().name
    edited = git("status", "--porcelain").stdout.strip()
    return head.stdout.strip() + (" with uncommitted edits" if edited else "")


def _directions() -> dict:
    """{metric: "lower" or "higher"}, the better direction of each end-to-end
    metric that this checkout's BENCHMARK.json names."""
    spec = json.loads((_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result of one ``perfbench/run.py`` run in ``tree``: the JSON object
    on the last line of its output, refused (``SystemExit``) where the run
    failed, is not correct or has failed ops."""
    argv = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload]
    argv += ["--seed", str(seed), "--seconds", repr(seconds)]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    where = f"{tree} --workload {workload} --seed {seed}"
    if done.returncode != 0:
        raise SystemExit(f"error: run.py exited {done.returncode} in {where}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if result.get("correct") is not True or result.get("failed") != 0:
        found = f"correct={result.get('correct')!r}, failed={result.get('failed')!r}"
        raise SystemExit(f"error: refused run in {where}: {found}")
    return result


def _quartiles(values: list) -> list:
    """(first quartile, median, third quartile) of values, or the value
    three times for one."""
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def summarize(runs: list, directions: dict) -> dict:
    """{workload: {seed: {metric: ...}}}: each metric's quartiles on both
    trees, the change/parent ratio of the medians, and the pairs in which
    the change read strictly better (``None`` for a metric without a
    direction)."""
    summary = {}
    for run in runs:
        cell = summary.setdefault(run["workload"], {}).setdefault(str(run["seed"]), {})
        for name, metric in run["metrics"].items():
            cell.setdefault(name, {"parent": {}, "change": {}})[run["tree"]][run["pair"]] = metric["value"]
    for cells in summary.values():
        for cell in cells.values():
            for name, by_tree in cell.items():
                parent, change = by_tree["parent"], by_tree["change"]
                better = directions.get(name)
                wins = None
                if better is not None:
                    sign = 1 if better == "higher" else -1
                    wins = sum(sign * (change[i] - parent[i]) > 0 for i in parent if i in change)
                p_q, c_q = _quartiles(list(parent.values())), _quartiles(list(change.values()))
                cell[name] = {
                    "parent_quartiles": p_q,
                    "change_quartiles": c_q,
                    "change_over_parent": c_q[1] / p_q[1] if p_q[1] else None,
                    "pairs": len(parent),
                    "pair_wins": wins,
                }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--parent", required=True, metavar="DIR", help="a checkout whose perfbench/run.py is the parent"
    )
    parser.add_argument(
        "--workload", required=True, action="append", metavar="W", help="a workload of run.py (repeatable)"
    )
    parser.add_argument("--seeds", default="1", help="comma-separated seeds, each run in its own pairs")
    parser.add_argument("--pairs", type=int, default=10, help="pairs per workload and seed")
    parser.add_argument("--seconds", type=float, default=16.0, help="run.py's --seconds")
    parser.add_argument("--out", required=True, help="path of the JSON record")
    args = parser.parse_args(argv)
    seeds = [int(x) for x in args.seeds.split(",")]
    if args.pairs < 1 or not seeds:
        parser.error("need at least one pair and one seed")
    trees = {"parent": Path(args.parent).resolve(), "change": _ROOT}
    runs = []
    for workload in args.workload:
        for seed in seeds:
            for pair in range(1, args.pairs + 1):
                order = ("parent", "change") if pair % 2 else ("change", "parent")
                for tree in order:
                    result = run_once(trees[tree], workload, seed, args.seconds)
                    runs.append({**result, "tree": tree, "workload": workload, "seed": seed, "pair": pair})
                    print(f"{workload} seed {seed} pair {pair} {tree}: ", json.dumps(result["metrics"]), flush=True)
    record = {
        "what": (
            f"perfbench/run.py end-to-end metrics, parent {_revision(trees['parent'])} against"
            f" {_revision(trees['change'])}, {args.pairs} alternating pairs per workload and seed"
        ),
        "command": f"python3 perfbench/run.py --workload <w> --seed <seed> --seconds {args.seconds!r}",
        "order": "pair i runs the parent first when i is odd, this tree first when even",
        "numpy": metadata.version("numpy"),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "runs": runs,
        "summary": summarize(runs, _directions()),
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
