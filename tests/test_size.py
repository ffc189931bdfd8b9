import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "size.py"
_SPEC = importlib.util.spec_from_file_location("seqdisc_size_script", _PATH)
size = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(size)

#: A docstring, a comment, a blank line and a multi-line call. Code lines:
#: import, def, and the call's four lines. Parser tokens: the docstrings'
#: STRING + NEWLINE (2 each), import (3), def (7), INDENT (1), the call (3 +
#: 2 + 4 + 2), DEDENT and ENDMARKER (2).
_FIXTURE = '''"""A module docstring,
on two lines."""

import math  # a comment

# a comment line


def f(x):
    """A function docstring."""
    return max(
        x,
        math.pi,
    )
'''


def test_counts_of_a_small_module():
    assert size.measure(_FIXTURE) == (6, 28)


def test_a_string_that_is_no_docstring_is_code():
    # an assignment's string spans two code lines; a docstring on the line
    # of its def leaves that line code (tokens: x = STRING, and def f ( ) :
    # STRING, then NEWLINE and ENDMARKER)
    assert size.measure('x = """a\nb"""\n') == (2, 5)
    assert size.measure('def f(): """doc"""\n') == (1, 8)


def test_table_has_each_module_and_the_total(tmp_path):
    modules = [tmp_path / name for name in ("a.py", "b.py")]
    for module in modules:
        module.write_text(_FIXTURE)
    rows = [line.split() for line in size.table(size.sizes(modules))]
    assert rows == [
        ["module", "code", "lines", "parser", "tokens", "headroom"],
        ["a.py", "6", "28", "4068"],
        ["b.py", "6", "28", "4068"],
        ["total", "12", "56"],
    ]


def test_headroom_is_negative_over_the_step(tmp_path):
    # 1,116 lines of "x = 1" (4 tokens each: x, =, 1, NEWLINE) and the
    # ENDMARKER: 4,465 parser tokens, 369 over the step
    module = tmp_path / "big.py"
    module.write_text("x = 1\n" * 1116)
    assert size.table(size.sizes([module]))[1].split() == ["big.py", "1116", "4465", "-369"]


def test_exits_1_when_a_module_passes_the_step(tmp_path, monkeypatch, capsys):
    # one module 369 tokens over the step (as above) beside one under it:
    # the table is printed in full, and the error names the module over it
    (tmp_path / "big.py").write_text("x = 1\n" * 1116)
    (tmp_path / "small.py").write_text(_FIXTURE)
    monkeypatch.setattr(size, "_PACKAGE", tmp_path)
    assert size.main() == 1
    out, err = capsys.readouterr()
    assert [line.split()[0] for line in out.splitlines()[1:]] == ["big.py", "small.py", "total"]
    assert err == "error: over the 4096-token step: big.py\n"


def test_exits_0_at_the_step(tmp_path, monkeypatch):
    # 1,022 lines of "x = 1" (4,088 tokens), "y = f(1)" (7: y, =, f, (, 1,
    # ), NEWLINE) and the ENDMARKER: 4,096 parser tokens, no headroom left
    # but none below it
    (tmp_path / "at.py").write_text("x = 1\n" * 1022 + "y = f(1)\n")
    monkeypatch.setattr(size, "_PACKAGE", tmp_path)
    assert size.sizes([tmp_path / "at.py"]) == [("at.py", 1023, 4096, 0)]
    assert size.main() == 0


def test_prints_the_package(capsys):
    # every module of src/seqdisc, in name order, then the total
    package = _PATH.parents[1] / "src" / "seqdisc"
    assert size.main() == 0
    names = [line.split()[0] for line in capsys.readouterr().out.splitlines()[1:]]
    assert names == [f.name for f in sorted(package.glob("*.py"))] + ["total"]
