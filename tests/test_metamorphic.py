"""Metamorphic relations of the command line: a change of presentation
that leaves the algebra as it is must leave the report as it is.

- Multiplying a relation by a nonzero rational generates the same ideal,
  so `hilbert`, `minrel`, `torsionfree`, `compare` and the `heisenberg`
  witness search print the same stdout.
- Renaming the generators keeps their order, so the dimensions printed
  by `hilbert` and `minrel` stay the same.

Only the command line and the input digests may differ.  Each case
writes every `.alg` fixture, transformed, under its own name into a
temporary directory and runs the command there and in the fixtures
directory.
"""

import io
import shlex
from contextlib import redirect_stderr, redirect_stdout

import pytest

from ncpoint.cli import main
from ncpoint.freealg import Presentation, parse_algebra, serialize_algebra
from ncpoint.scalars import Rational as F

from conftest import FIXTURES

# relation i of a file is scaled by factors[i % len(factors)]: one factor
# for all relations, or several at once, negative and fractional ones too
SCALINGS = [(F(3),), (F(3), F(-1)), (F(-2, 7), F(5, 3)), (F(5, 3), F(-2, 7), F(-1))]

SCALED_COMMANDS = [
    "hilbert downup_4_-4.alg --max-degree 6",
    "minrel d_2_1.alg --max-degree 7",
    'torsionfree downup_4_-4.alg --g "x*y-2*y*x" --length 4 --samples 20',
    'torsionfree d_2_1.alg --g "x*x*y+2*x*y*x+y*x*x" --length 4 --samples 5',
    "compare downup_2_-1.alg quantum_plane_2.alg --length 3 --samples 20",
    'heisenberg downup_4_-4.alg --g "x*y-2*y*x"',
    'heisenberg d_2_1.alg --g "x*x*y + 2*x*y*x + y*x*x"',
]

RENAMED_COMMANDS = [
    "hilbert downup_4_-4.alg --max-degree 6",
    "hilbert d_2_1.alg --max-degree 7",
    "minrel downup_2_-1.alg --max-degree 6",
    "minrel d_2_1.alg --max-degree 7",
]


def report(cmd, cwd, monkeypatch):
    """Exit code and stdout lines of cmd run in cwd, without the lines
    that name the command and the inputs' digests."""
    monkeypatch.chdir(cwd)
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(shlex.split(cmd))
    lines = [line for line in out.getvalue().splitlines()
             if not line.startswith(("command:", "input "))]
    return code, lines


def write_fixtures(tmp_path, transform):
    """Every .alg fixture, its presentation passed through transform."""
    for path in FIXTURES.glob("*.alg"):
        pres = transform(parse_algebra(path.read_text()))
        (tmp_path / path.name).write_text(serialize_algebra(pres))


@pytest.mark.parametrize("factors", SCALINGS,
                         ids=[",".join(map(str, factors)) for factors in SCALINGS])
@pytest.mark.parametrize("cmd", SCALED_COMMANDS)
def test_scaling_a_relation_changes_nothing(tmp_path, monkeypatch, cmd, factors):
    def scaled(pres):
        return Presentation(pres.names, [f.scale(factors[i % len(factors)])
                                         for i, f in enumerate(pres.relations)])

    write_fixtures(tmp_path, scaled)
    assert report(cmd, tmp_path, monkeypatch) == report(cmd, FIXTURES, monkeypatch)


@pytest.mark.parametrize("names", [("p", "q"), ("y", "x")], ids=["fresh", "swapped"])
@pytest.mark.parametrize("cmd", RENAMED_COMMANDS)
def test_renaming_generators_changes_nothing(tmp_path, monkeypatch, cmd, names):
    write_fixtures(tmp_path, lambda pres: Presentation(names, pres.relations))
    assert report(cmd, tmp_path, monkeypatch) == report(cmd, FIXTURES, monkeypatch)
