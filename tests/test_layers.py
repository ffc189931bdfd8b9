"""The package's import layers, read from each module's source with ``ast``.

The exact bounds (``bounds``) rest on ``core`` alone. No closed form's path
imports the certificates (``bounds``) or the oracles that apply them
(``oracle``), so a closed form runs the same whether or not it is being
certified; that is why ``ssd._exactly_interior`` is in ``ssd``. ``cli`` is
left out: it runs ``certify``.
"""

import ast
from pathlib import Path

import pytest

_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "seqdisc"

#: The modules on the closed forms' paths.
_CLOSED_FORMS = ["ssd", "protocols", "sweeps", "correlations", "simulate"]


def _package_imports(source: str) -> set[str]:
    """The seqdisc modules that ``source`` imports, at any depth: ``from .x
    import``, ``from . import x``, ``from seqdisc.x import``, ``import
    seqdisc.x``, and ``seqdisc`` itself for ``import seqdisc`` or ``from
    seqdisc import``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module] if node.module else [alias.name for alias in node.names])
        elif isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "seqdisc":
            found.add(node.module.partition(".")[2] or "seqdisc")
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names if alias.name.split(".")[0] == "seqdisc"]
            found.update(name.partition(".")[2] or "seqdisc" for name in names)
    return found


def _imports_of(module: str) -> set[str]:
    return _package_imports((_PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def test_the_reader_sees_each_form():
    source = (
        "import math\nimport seqdisc\nimport seqdisc.ssd\nfrom . import oracle\nfrom .core import x\n"
        "from seqdisc import y\nfrom seqdisc.sweeps import z\n\ndef f():\n    from .bounds import g\n"
    )
    assert _package_imports(source) == {"seqdisc", "ssd", "oracle", "core", "sweeps", "bounds"}
    assert _imports_of("oracle") >= {"bounds", "core", "protocols", "ssd"}


def test_bounds_imports_only_from_core():
    assert _imports_of("bounds") == {"core"}


@pytest.mark.parametrize("module", _CLOSED_FORMS)
def test_no_closed_form_imports_the_certificates(module):
    assert _imports_of(module).isdisjoint({"bounds", "oracle", "seqdisc"})
