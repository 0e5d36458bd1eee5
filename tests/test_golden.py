"""Golden corpus: the README commands must keep their exact stdout bytes
and exit codes.

Each case file ``tests/golden/NN-<subcommand>.txt`` holds the command on
its first line (``$ ncpoint ...``), the exit code on its second
(``exit: N``) and the expected stdout after that.  Commands run in-process
with the fixtures directory as the working directory, so the echoed
command line matches the README.  Sizes are reduced from the README so
the whole corpus runs in a few seconds.

To record new cases, run from the repository root::

    PYTHONPATH=src python tests/test_golden.py

The recorder writes only the case files that are missing, so a run after
a code change never re-blesses the corpus.  To re-record a case after an
intended output change, delete its file first.
"""

import io
import os
import re
import shlex
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from ncpoint.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
FIXTURES = Path(__file__).resolve().parent.parent / "src" / "ncpoint" / "fixtures"

COMMANDS = [
    "hilbert downup_4_-4.alg --max-degree 6",
    "minrel downup_4_-4.alg --max-degree 6",
    'heisenberg downup_2_-1.alg --g "x*y - y*x" --x x --y y --u 1',
    'heisenberg d_2_1.alg --g "x*x*y + 2*x*y*x + y*x*x"',
    'power-ids downup_4_-4.alg --g "x*y-2*y*x" --x x --y y --u 2 --r-max 5',
    'qv-check downup_4_-4.alg --g "x*y-2*y*x"',
    'weyl-witness downup_4_-4.alg --g "x*y-2*y*x" --x x --y y --u 2',
    'point-extend quantum_plane_2.alg --points "1:1 2:1"',
    'torsionfree downup_4_-4.alg --g "x*y-2*y*x" --length 4 --samples 20',
    'skew-variety --omega "1,2,2;1/2,1,2;1/2,1/2,1"',
    "compare heisenberg_w2.cl quantum_plane_2.alg --length 4 --samples 50",
    "stabilize downup_4_-4.alg --from 3 --to 6 --samples 10",
    "color-check heisenberg_w2.cl",
    "upresent heisenberg_w2.cl --max-degree 5",
    "nl heisenberg_w2.cl",
    "koszul heisenberg_w2.cl --max-degree 6",
    "heisenberg-extract heisenberg_w2.cl",
    "upresent heisenberg3_skew.cl --max-degree 6",
    "koszul heisenberg3_skew.cl --max-degree 6",
    "heisenberg-extract heisenberg_w13.cl",
    'weyl-witness d_2_1.alg --g "x*x*y + 2*x*y*x + y*x*x" --x x --y "x*y - y*x" --u -1',
    'weyl-witness d_2_1.alg --g "x*y*y + 2*y*x*y + y*y*x" --x x --y "x*y + y*x" --u -1',
    "color-check bad_jacobi.cl",
    "hilbert d_2_1.alg --max-degree 9",
    "minrel d_2_1.alg --max-degree 9",
    "hilbert free_2.alg --max-degree 8",
    "upresent heisenberg_w13.cl --max-degree 7",
    "hilbert downup_4_-4.alg --max-degree 9 --budget 100",
    'torsionfree downup_4_-4.alg --g "x*y-2*y*x" --length 4 --samples 30 --no-generic',
    'torsionfree d_2_1.alg --g "x*x*y + 2*x*y*x + y*x*x" --length 5 --samples 40',
    "compare heisenberg_w2.cl --length 3 --samples 40",
    "compare heisenberg_w2.cl quantum_plane_2.alg --length 2 --samples 60 --seed 3",
    "stabilize d_2_1.alg --from 2 --to 5 --samples 20 --seed 7",
    "koszul bad_antisym.cl --max-degree 4",
    'point-extend quantum_plane_2.alg --points "1:t"',
    'point-extend downup_4_-4.alg --points "1:t 1:2"',
    "heisenberg-extract heisenberg3_skew.cl",
    "upresent skew3.cl --max-degree 6",
    "upresent heisenberg_w1.cl --max-degree 7",
    "upresent abelian_2.cl --max-degree 5",
    'point-extend downup_4_-4.alg --points "1:1"',
    "upresent heisenberg_w2.cl --max-degree 0",
    "upresent heisenberg_w2.cl --max-degree 1",
    "heisenberg-extract heisenberg_w13.cl --cap 5",
    "compare heisenberg3_skew.cl --length 2 --samples 20",
    "qv-check free_2.alg --g x",
    'qv-check downup_2_-1.alg --g "x*y-y*x"',
    'heisenberg downup_4_-4.alg --g "x*y-2*y*x"',
    'weyl-witness quantum_plane_2.alg --g "x*y" --x x --y y --u 2',
    'torsionfree downup_2_-1.alg --g "x*y-y*x" --length 4 --samples 10',
    "stabilize downup_2_-1.alg --from 3 --to 5 --samples 10",
    "skew-variety heisenberg3_skew.cl",
    "skew-variety skew3.cl",
    "torsionfree quantum_plane_2.alg --g x --length 300 --samples 0 --no-generic",
    'point-extend quantum_plane_2.alg --points "(1:(t+1))"',
    'qv-check d_2_1.alg --g "x*x*y + 2*x*y*x + y*x*x" --cap 10',
    'point-extend d_2_1.alg --points "1:2 3:1"',
]


def run_case(command: str):
    """Exit code and stdout bytes of one command run in the fixtures dir."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(shlex.split(command))
    return code, out.getvalue().encode()


def _case_files():
    return sorted(GOLDEN.glob("*.txt"))


def _read_case(path: Path):
    head, exit_line, stdout = path.read_bytes().split(b"\n", 2)
    assert head.startswith(b"$ ncpoint ") and exit_line.startswith(b"exit: ")
    return head[len(b"$ ncpoint "):].decode(), int(exit_line[len(b"exit: "):]), stdout


def test_corpus_covers_every_command():
    assert [_read_case(p)[0] for p in _case_files()] == COMMANDS


@pytest.mark.parametrize("path", _case_files(), ids=lambda p: p.stem)
def test_golden_stdout_and_exit_code(path, monkeypatch):
    command, want_code, want_stdout = _read_case(path)
    monkeypatch.chdir(FIXTURES)
    code, stdout = run_case(command)
    assert (code, stdout) == (want_code, want_stdout)


@pytest.mark.parametrize("path", _case_files(), ids=lambda p: p.stem)
def test_exit_code_is_the_report_verdict(path):
    # exit 1 exactly when a check line reads FAIL, exit 0 exactly when
    # the report ends in "result: pass"; exit 2 and 3 print no report
    _, code, stdout = _read_case(path)
    lines = stdout.decode().splitlines()
    failed = any(re.fullmatch(r"check .*: FAIL( \(.*\))?", line) for line in lines)
    assert (code == 1) == failed
    assert (code == 0) == (lines[-1:] == ["result: pass"])


def record():
    """Record the case files that are missing; existing ones are kept."""
    cwd = Path.cwd()
    os.chdir(FIXTURES)
    try:
        for i, command in enumerate(COMMANDS, start=1):
            path = GOLDEN / f"{i:02d}-{shlex.split(command)[0]}.txt"
            if path.exists():
                continue
            code, stdout = run_case(command)
            header = f"$ ncpoint {command}\nexit: {code}\n".encode()
            path.write_bytes(header + stdout)
    finally:
        os.chdir(cwd)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    record()
