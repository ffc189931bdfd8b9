import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench.py"
_SPEC = importlib.util.spec_from_file_location("seqdisc_bench_script", _PATH)
bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench)


def _runs(change_ms, parent_ms):
    return {"op": {tree: {"ms": ms, "minor_faults": [0] * len(ms)}
                   for tree, ms in (("change", change_ms), ("parent", parent_ms))}}


def test_median_ratio_is_the_mean_of_the_two_orders():
    # even rounds run this tree first, odd rounds the parent; a tree that
    # reads 20% slower whenever it runs first is no slower in the mean
    change = [1.2, 1.0, 1.2, 1.0, 1.2, 1.0, 1.2, 1.0]
    parent = [1.0, 1.2, 1.0, 1.2, 1.0, 1.2, 1.0, 1.2]
    ratios = bench.summarize(_runs(change, parent), {"op": (None, 1)})["op"]["change_over_parent"]
    assert ratios["median_change_first"] == 1.2
    assert ratios["median_parent_first"] == pytest.approx(1.0 / 1.2, abs=1e-4)
    assert ratios["median"] == round(0.5 * (1.2 + 1.0 / 1.2), 4)
    assert len(ratios["per_round"]) == 8

