"""The argparse surface of the CLI: help, usage errors and their exit codes.

Each probe in ``tests/cli_surface.json`` holds an argv and the exit code,
stdout and stderr that `main` gave for it when the file was recorded.  The
probes are the top-level help and errors, every subcommand's ``--help``, an
unrecognized option and a missing required option.  Argparse wraps its text
to the terminal width, so the probes run with ``COLUMNS=80``; the bytes are
those of the Python version that recorded them (3.11).

To record the file when it is missing, run from the repository root::

    PYTHONPATH=src python tests/test_cli_surface.py
"""

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from ncpoint.cli import main

RECORD = Path(__file__).resolve().parent / "cli_surface.json"

SUBCOMMANDS = [
    "hilbert", "minrel", "heisenberg", "power-ids", "qv-check", "weyl-witness",
    "point-extend", "torsionfree", "skew-variety", "compare", "stabilize",
    "color-check", "upresent", "nl", "koszul", "heisenberg-extract",
]

PROBES = [
    [],
    ["--help"],
    ["bogus"],
    *([name, "--help"] for name in SUBCOMMANDS),
    ["hilbert", "free_2.alg", "--max-degree", "3", "--bogus"],
    ["hilbert", "free_2.alg"],
]


def run_probe(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def recorded():
    return json.loads(RECORD.read_text())


def test_every_probe_is_recorded():
    assert [probe["argv"] for probe in recorded()] == PROBES


@pytest.mark.parametrize("index", range(len(PROBES)),
                         ids=[" ".join(argv) or "no-arguments" for argv in PROBES])
def test_surface_is_unchanged(index, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    want = recorded()[index]
    assert run_probe(want["argv"]) == want


def record():
    """Write the record when it is missing; an existing one is kept."""
    if RECORD.exists():
        return
    os.environ["COLUMNS"] = "80"
    RECORD.write_text(json.dumps([run_probe(argv) for argv in PROBES], indent=1) + "\n")


if __name__ == "__main__":
    record()
