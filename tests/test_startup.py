"""Starting the CLI stays cheap: no module of the package imports
`dataclasses` or `typing`, and a run builds only its own subparser.

Every `ncpoint` command is its own process, so the import of
`ncpoint.cli` and the build of its parser are paid by every check.
`dataclasses` alone pulls in `inspect`, `ast`, `dis` and `tokenize`, more
than half of that import.
"""

import argparse
import ast
import io
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from ncpoint.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"
SLOW = {"dataclasses", "typing"}
LOADED_BY_SLOW = {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing"}


def slow_imports(source: str):
    """(line, module) for each import of a module in SLOW."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        out.extend((node.lineno, name) for name in names if name.split(".")[0] in SLOW)
    return out


def test_detects_a_slow_import():
    assert slow_imports("from dataclasses import dataclass, field\n") == [(1, "dataclasses")]
    assert slow_imports("import math\nimport typing\n") == [(2, "typing")]
    assert slow_imports("from .typing import x\nimport fractions\n") == []


def test_no_module_imports_dataclasses_or_typing():
    found = {path.name: slow_imports(path.read_text())
             for path in sorted((SRC / "ncpoint").glob("*.py"))}
    assert found and {name: hits for name, hits in found.items() if hits} == {}


def test_cli_import_loads_none_of_them():
    # pytest has loaded all of these already, so a fresh interpreter reads
    # its own sys.modules.  -S keeps site out: a .pth file may import typing.
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import ncpoint.cli; "
            f"print(sorted(set(sys.modules).intersection({sorted(LOADED_BY_SLOW)!r})))")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("argv,built", [
    (["hilbert", str(SRC / "ncpoint" / "fixtures" / "free_2.alg"), "--max-degree", "3"], 1),
    (["nl", "--help"], 1),
    (["--help"], 16),
    (["bogus"], 16),
], ids=["one-command", "command-help", "help", "unknown"])
def test_subparsers_built(monkeypatch, argv, built):
    calls = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        calls.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        main(argv)
    assert len(calls) == built
