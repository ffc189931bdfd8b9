import importlib.util
import json
import textwrap
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "pairs.py"
_SPEC = importlib.util.spec_from_file_location("seqdisc_pairs_script", _PATH)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

#: A stub perfbench/run.py: it logs its tree and arguments, prints a report
#: line, then the result line, with fixed metrics per tree and a failed
#: count and correct flag that the test chooses.
_STUB = textwrap.dedent(
    """\
    import json, sys
    from pathlib import Path

    tree = Path(__file__).resolve().parents[1]
    with open(tree.parent / "log.txt", "a") as fh:
        fh.write(tree.name + " " + " ".join(sys.argv[1:]) + "\\n")
    ops, p50 = {ops!r}, {p50!r}
    print("a report line")
    metrics = {{"ops_per_s": {{"value": ops, "unit": "op/s"}}, "op_p50_ms": {{"value": p50, "unit": "ms"}},
               "extra": {{"value": 1.0, "unit": "1"}}}}
    print(json.dumps({{"correct": {correct!r}, "attempted": 5, "failed": {failed!r}, "metrics": metrics}}))
    """
)


def _tree(root: Path, name: str, ops: float, p50: float, correct=True, failed=0) -> Path:
    tree = root / name
    (tree / "perfbench").mkdir(parents=True)
    (tree / "perfbench" / "run.py").write_text(_STUB.format(ops=ops, p50=p50, correct=correct, failed=failed))
    return tree


def test_pairs_alternate_and_summarize(tmp_path, monkeypatch):
    # parent 100 op/s at 10 ms, change 110 op/s at 12 ms: ops_per_s rises
    # (higher is better, every pair a win), op_p50_ms rises (lower is
    # better, no win), and a metric that BENCHMARK.json does not name gets
    # no count
    parent = _tree(tmp_path, "parent", 100.0, 10.0)
    monkeypatch.setattr(pairs, "_ROOT", _tree(tmp_path, "change", 110.0, 12.0))
    monkeypatch.setattr(pairs, "_directions", lambda: {"ops_per_s": "higher", "op_p50_ms": "lower"})
    out = tmp_path / "record.json"
    argv = ["--parent", str(parent), "--workload", "certify", "--workload", "queries", "--seeds", "1,2"]
    assert pairs.main(argv + ["--pairs", "3", "--seconds", "0.5", "--out", str(out)]) == 0
    log = (tmp_path / "log.txt").read_text().splitlines()
    order = [line.split()[0] for line in log]
    assert order == ["parent", "change", "change", "parent", "parent", "change"] * 4
    assert log[0].split()[1:] == ["--workload", "certify", "--seed", "1", "--seconds", "0.5"]
    assert log[-1].split()[1:] == ["--workload", "queries", "--seed", "2", "--seconds", "0.5"]
    record = json.loads(out.read_text())
    assert {"what", "command", "order", "numpy", "python", "cpu_count"} <= record.keys()
    first = [(r["tree"], r["pair"]) for r in record["runs"][:4]]
    assert first == [("parent", 1), ("change", 1), ("change", 2), ("parent", 2)]
    assert len(record["runs"]) == 24 and all(r["failed"] == 0 for r in record["runs"])
    for workload in ("certify", "queries"):
        for seed in ("1", "2"):
            cell = record["summary"][workload][seed]
            assert cell["ops_per_s"]["change_over_parent"] == pytest.approx(1.1)
            assert cell["ops_per_s"]["pair_wins"] == 3 and cell["ops_per_s"]["pairs"] == 3
            assert cell["op_p50_ms"]["change_over_parent"] == pytest.approx(1.2)
            assert cell["op_p50_ms"]["pair_wins"] == 0
            assert cell["extra"]["pair_wins"] is None
            assert cell["op_p50_ms"]["parent_quartiles"] == [10.0, 10.0, 10.0]


@pytest.mark.parametrize("bad", [{"failed": 1}, {"correct": False}], ids=["failed", "incorrect"])
def test_a_failed_or_incorrect_run_is_refused(tmp_path, monkeypatch, bad):
    # the refusal stops the script before any record is written
    parent = _tree(tmp_path, "parent", 100.0, 10.0)
    monkeypatch.setattr(pairs, "_ROOT", _tree(tmp_path, "change", 110.0, 12.0, **bad))
    out = tmp_path / "record.json"
    argv = ["--parent", str(parent), "--workload", "certify", "--pairs", "2", "--seconds", "1", "--out", str(out)]
    with pytest.raises(SystemExit, match="refused run"):
        pairs.main(argv)
    assert not out.exists()


def test_directions_are_the_benchmark_s():
    assert pairs._directions() == {
        "setup_s": "lower",
        "ops_per_s": "higher",
        "op_p50_ms": "lower",
        "op_tail_ms": "lower",
        "peak_rss_mb": "lower",
    }
