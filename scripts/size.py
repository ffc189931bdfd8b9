#!/usr/bin/env python3
"""Print two size numbers for each module of src/seqdisc, and their totals,
with each module's headroom below the parser's token step.

- code lines: the lines that hold a token of code, so docstrings, comments
  and blank lines are left out; a line inside a multi-line call or string
  counts;
- parser tokens: ``tokenize``'s tokens less ENCODING, COMMENT and NL, the
  count that the parser reads (a docstring is one token, however long);
- headroom: 4,096 less the module's parser tokens, negative when over. At
  4,096 tokens CPython's parser doubles its token array, which raises the
  peak memory of importing the module by about 0.4-0.5 MB. The total has no
  headroom: the step is per module.

The script exits 1, naming the modules, when any module's headroom is
negative, and 0 otherwise.

Docstrings are the string statements that open a module, a class or a
function (``ast``). The package is the one in the checkout this script sits
in.

    python scripts/size.py
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "seqdisc"
#: Tokens that the parser token count leaves out.
_NOT_PARSED = {tokenize.ENCODING, tokenize.COMMENT, tokenize.NL}
#: Tokens that make no line a code line: the above, and layout.
_NOT_CODE = _NOT_PARSED | {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
#: Parser tokens at which the parser's token array doubles.
_TOKEN_STEP = 4096


def _docstrings(tree: ast.AST) -> set[tuple[int, int]]:
    """The (first, last) lines of each docstring in ``tree``."""
    spans = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                spans.add((first.lineno, first.end_lineno))
    return spans


def measure(source: str) -> tuple[int, int]:
    """(code lines, parser tokens) of one module's source text."""
    docstrings = _docstrings(ast.parse(source))
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    lines = set()
    for tok in tokens:
        if tok.type in _NOT_CODE or (tok.type == tokenize.STRING and (tok.start[0], tok.end[0]) in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines), sum(tok.type not in _NOT_PARSED for tok in tokens)


def sizes(modules: list[Path]) -> list[tuple[str, int, int, int]]:
    """(name, code lines, parser tokens, headroom) of each module."""
    measured = [(f.name, *measure(f.read_text(encoding="utf-8"))) for f in modules]
    return [(name, lines, tokens, _TOKEN_STEP - tokens) for name, lines, tokens in measured]


def table(rows: list[tuple[str, int, int, int]]) -> list[str]:
    """The printed table of ``sizes``' rows: a header, one row per module,
    then the total."""
    rows = rows + [("total", sum(r[1] for r in rows), sum(r[2] for r in rows), "")]
    width = max(len(r[0]) for r in rows)
    header = f"{'module':<{width}}  {'code lines':>10}  {'parser tokens':>13}  {'headroom':>8}"
    lines = [f"{n:<{width}}  {code:>10}  {tokens:>13}  {room:>8}".rstrip() for n, code, tokens, room in rows]
    return [header] + lines


def main() -> int:
    rows = sizes(sorted(_PACKAGE.glob("*.py")))
    print("\n".join(table(rows)))
    over = [name for name, _, _, room in rows if room < 0]
    if over:
        print(f"error: over the {_TOKEN_STEP}-token step: {', '.join(over)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
