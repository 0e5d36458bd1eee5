"""Starting the CLI stays cheap: no module of the package imports
`dataclasses`, `typing` or `__future__`, importing `ncpoint.cli` loads
neither `hashlib` nor `pathlib` nor `argparse` nor an engine module, a
well-formed run builds no parser and loads no `argparse` or `gettext`,
and no run loads `fractions`, `decimal`, `numbers` or `shlex`.

Every `ncpoint` command is its own process, so the import of
`ncpoint.cli` and the build of its parser are paid by every check.
`dataclasses` alone pulls in `inspect`, `ast`, `dis` and `tokenize`, more
than half of that import.  `from __future__ import annotations` loads the
`__future__` module in every run, for annotations that evaluate without
it.  `hashlib` loads OpenSSL, `pathlib` loads `urllib.parse` and
`ipaddress`, and each engine module is loaded by the command that calls
it.  `fractions` loads `decimal`, with its C module, and `numbers`, and
`shlex` is one more module, for a single `shlex.join` of the command
line; the package's own `scalars.Rational` and `reports.shell_quote`
replace them.  `argparse` (with `gettext`) and the build of a parser
cost about twice the work of a short check, so a run of the common shape
is read off the subcommand table (`cli.read_argv`), and argparse reads
only help, errors and the rarer forms.  Those build the whole parser,
all 16 subparsers, since no well-formed run pays for it.  For
a short command these loads took longer than its work, so a fresh
interpreter checks every kind of run: a `.alg` command, a `.cl` command,
a walk over its Q(t) pencil and a witness search.  The import ends by
freezing what it built, so that the collections at exit, which every
check pays, no longer scan that heap; collection stays on, so a run's own
cycles are still freed, and the freeze happens once, not in every `main`.
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
SLOW = {"dataclasses", "typing", "__future__"}
LOADED_BY_SLOW = {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing", "__future__"}
ENGINES = {"ncpoint.colorlie", "ncpoint.points", "ncpoint.normal", "ncpoint.veronese"}
ARGPARSE = {"argparse", "gettext"}
NOT_AT_IMPORT = LOADED_BY_SLOW | ENGINES | ARGPARSE | {"hashlib", "_hashlib", "pathlib"}
NEVER_LOADED = {"fractions", "decimal", "_decimal", "numbers", "shlex"}


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
    assert slow_imports("from __future__ import annotations\n") == [(1, "__future__")]
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


@pytest.mark.parametrize("argv", [
    ["hilbert", str(FIXTURES / "d_2_1.alg"), "--max-degree", "5"],
    ["koszul", str(FIXTURES / "heisenberg_w2.cl"), "--max-degree", "4"],
    ["torsionfree", str(FIXTURES / "downup_4_-4.alg"), "--g", "x*y-2*y*x", "--length", "4",
     "--samples", "0", "--generic"],
    ["heisenberg", str(FIXTURES / "d_2_1.alg"), "--g", "x*x*y + 2*x*y*x + y*x*x"],
    ["heisenberg", str(FIXTURES / "d_2_1.alg"), "--g", "x*x*y + 2*x*y*x + y*x*x", "--x", "x",
     "--y", "x*y + y*x", "--u=-1"],
], ids=["hilbert", "koszul", "torsionfree-generic", "heisenberg-search", "heisenberg-verify"])
def test_a_run_loads_no_fractions_or_shlex(argv):
    # nor argparse: each argv has the shape `read_argv` reads
    statements = (f"from ncpoint.cli import main; assert main({argv!r}) == 0; "
                  f"{loaded_of(NEVER_LOADED | ARGPARSE)}")
    assert run_fresh(statements) == "[]"


@pytest.mark.parametrize("argv,code", [(["nl", "--help"], 0), (["bogus"], 2)],
                         ids=["command-help", "unknown"])
def test_help_and_errors_load_argparse(argv, code):
    statements = f"from ncpoint.cli import main; assert main({argv!r}) == {code}; {loaded_of(ARGPARSE)}"
    assert run_fresh(statements) == repr(sorted(ARGPARSE))


def test_cli_import_freezes_what_it_built():
    statements = ("import gc; before = len(gc.get_objects()); import ncpoint.cli; "
                  "print(gc.isenabled(), gc.get_freeze_count() >= before)")
    assert run_fresh(statements) == "True True"


def test_a_cycle_made_after_the_import_is_collected():
    statements = ("import gc, weakref; import ncpoint.cli; freed = []; "
                  "node = type('Node', (), {})(); node.me = node; "
                  "weakref.finalize(node, freed.append, 'freed'); del node; "
                  "gc.collect(); print(freed)")
    assert run_fresh(statements) == "['freed']"


def test_main_freezes_nothing():
    argv = ["hilbert", str(FIXTURES / "free_2.alg"), "--max-degree", "3"]
    statements = ("import gc; from ncpoint.cli import main; frozen = gc.get_freeze_count(); "
                  f"assert main({argv!r}) == 0 and main({argv!r}) == 0; "
                  "print(gc.get_freeze_count() - frozen)")
    assert run_fresh(statements) == "0"


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
    (["hilbert", str(SRC / "ncpoint" / "fixtures" / "free_2.alg"), "--max-degree", "3"], 0),
    (["nl", "--help"], 16),
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
