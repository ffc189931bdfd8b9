#!/usr/bin/env python3
"""Rebuild the figures workload's reference CSVs from a given commit.

    python3 perfbench/make_reference.py --commit <rev>

Exports src/ of that commit with `git archive` into .perfbench_out/, runs
every figure preset through it in a child interpreter and writes
perfbench/reference/fig<name>.csv, plus SOURCE naming the commit and the rule
the benchmark compares by.
"""

from __future__ import annotations

import argparse
import io
import shutil
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "reference"

CHILD = """
import sys
from pathlib import Path
import seqdisc
from seqdisc.sweeps import FIGURE_PRESETS, run_figure, write_csv
src, out = Path(sys.argv[1]).resolve(), Path(sys.argv[2])
assert Path(seqdisc.__file__).resolve().is_relative_to(src), seqdisc.__file__
for name in sorted(FIGURE_PRESETS):
    header, rows = run_figure(name)
    with open(out / f"fig{name}.csv", "w", newline="") as fh:
        write_csv(header, rows, fh)
"""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commit", required=True, help="git revision whose src/ makes the references")
    args = parser.parse_args()
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{args.commit}^{{commit}}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()
    archive = subprocess.run(
        ["git", "archive", "--format=tar", commit, "src"], cwd=ROOT, check=True, capture_output=True
    ).stdout
    work = ROOT / ".perfbench_out" / "reference-src"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(work, filter="data")
    OUT.mkdir(exist_ok=True)
    src = work / "src"
    subprocess.run(
        [sys.executable, "-c", CHILD, str(src), str(OUT)],
        check=True, env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
    )
    (OUT / "SOURCE").write_text(
        f"commit {commit}\n"
        "rule: same header, same rows, identical empty cells, every number within 1e-9\n"
    )
    shutil.rmtree(work)
    print(f"wrote references from {commit} to {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
