"""Starting the CLI stays cheap: no module of the package imports
`dataclasses` or `typing`, importing `ncpoint.cli` loads neither
`hashlib` nor `pathlib` nor an engine module, and a run builds only its
own subparser.

Every `ncpoint` command is its own process, so the import of
`ncpoint.cli` and the build of its parser are paid by every check.
`dataclasses` alone pulls in `inspect`, `ast`, `dis` and `tokenize`, more
than half of that import.  `hashlib` loads OpenSSL, `pathlib` loads
`urllib.parse` and `ipaddress`, and each engine module is loaded by the
command that calls it.
"""

import argparse
import ast
import hashlib
import io
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from random import Random

import pytest

from ncpoint.cli import main
from ncpoint.reports import RunReport

SRC = Path(__file__).resolve().parent.parent / "src"
FIXTURES = SRC / "ncpoint" / "fixtures"
SLOW = {"dataclasses", "typing"}
LOADED_BY_SLOW = {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing"}
ENGINES = {"ncpoint.colorlie", "ncpoint.points", "ncpoint.normal", "ncpoint.veronese"}
NOT_AT_IMPORT = LOADED_BY_SLOW | ENGINES | {"hashlib", "_hashlib", "pathlib"}


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


def run_fresh(statements):
    """The last stdout line of a fresh interpreter that runs `statements`
    with `src` on its path.  pytest has loaded most modules already, so
    only a fresh interpreter reads its own sys.modules.  -S keeps site
    out: a .pth file may import typing, and site may load pathlib."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); {statements}"
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def loaded_of(watched):
    return f"print(sorted(set(sys.modules).intersection({sorted(watched)!r})))"


def test_cli_import_loads_none_of_them():
    assert run_fresh(f"import ncpoint.cli; {loaded_of(NOT_AT_IMPORT)}") == "[]"


@pytest.mark.parametrize("argv,loaded", [
    (["hilbert", str(FIXTURES / "free_2.alg"), "--max-degree", "3"], []),
    (["nl", str(FIXTURES / "heisenberg_w2.cl")], ["ncpoint.colorlie", "ncpoint.normal"]),
], ids=["hilbert", "nl"])
def test_a_run_loads_only_the_engines_it_calls(argv, loaded):
    # colorlie imports normal for HeisenbergWitness
    statements = f"from ncpoint.cli import main; assert main({argv!r}) == 0; {loaded_of(ENGINES)}"
    assert run_fresh(statements) == repr(loaded)


def digest(data):
    report = RunReport("ncpoint")
    report.digest_input("x", data)
    [line] = report.lines
    return line.removeprefix("input x: sha256:")


def test_digest_is_sha256_of_every_fixture():
    paths = sorted(FIXTURES.iterdir())
    assert paths
    for path in paths:
        data = path.read_bytes()
        assert digest(data) == hashlib.sha256(data).hexdigest(), path.name


def test_digest_is_sha256_of_random_bytes():
    rng = Random(0)
    for size in [0, 1, 55, 56, 63, 64, 65, 1000] + [rng.randrange(5000) for _ in range(40)]:
        data = rng.randbytes(size)
        assert digest(data) == hashlib.sha256(data).hexdigest(), size


def test_digest_falls_back_to_hashlib():
    # without CPython's own sha256 module, the digest comes from hashlib
    data = b"generators: x y\nrelation: x*y - y*x\n"
    statements = ('sys.modules["_sha256"] = sys.modules["_sha2"] = None; '
                  "from ncpoint.reports import RunReport; r = RunReport('c'); "
                  f"r.digest_input('x', {data!r}); "
                  "print('hashlib' in sys.modules, r.lines[0].removeprefix('input x: sha256:'))")
    assert run_fresh(statements) == f"True {hashlib.sha256(data).hexdigest()}"


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
