"""No module of the package imports a private name from a sibling.

A name that starts with an underscore belongs to its module.  A sibling
that needs it should use a public name instead, so that the owning module
can change its internals without breaking another module.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ncpoint"


def private_imports(source: str):
    """(line, module, name) for each underscore name imported from the package."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "ncpoint":
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                out.append((node.lineno, "." * node.level + module, alias.name))
    return out


def test_detects_a_private_import():
    assert private_imports("from .scalars import Scalar, _Hidden\n") == \
        [(1, ".scalars", "_Hidden")]
    assert private_imports("from ncpoint.linalg import _kernel\n") == \
        [(1, "ncpoint.linalg", "_kernel")]
    assert private_imports("from __future__ import annotations\n") == []


def test_no_module_imports_a_private_sibling_name():
    found = {path.name: private_imports(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert found and {name: hits for name, hits in found.items() if hits} == {}
