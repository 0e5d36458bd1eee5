"""Only `linalg` names the dense `Matrix` and `rref`.

They are the dense reference that tests compare the sparse elimination
against, and a layer the benchmark traces; production code works on
sparse columns and `RowReducer` instead.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ncpoint"
DENSE = {"Matrix", "rref"}


def dense_names(source: str):
    """(line, name) for each import, name or attribute that is a dense one."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.alias):
            name = node.name.rpartition(".")[2]
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            continue
        if name in DENSE:
            out.append((node.lineno, name))
    return out


def test_detects_a_dense_name():
    assert dense_names("from .linalg import Matrix, kernel_basis\n") == [(1, "Matrix")]
    assert dense_names("from . import linalg\nlinalg.rref(m)\n") == [(2, "rref")]
    assert dense_names("from .linalg import solve_columns\n") == []


def test_only_linalg_names_dense_elimination():
    found = {path.name: dense_names(path.read_text())
             for path in sorted(SRC.glob("*.py")) if path.name != "linalg.py"}
    assert found and {name: hits for name, hits in found.items() if hits} == {}
