"""Exact stdout of commands whose coefficients live in Q(t): a color Lie
algebra with omega = [[1, t], [1/t, 1]], a down-up algebra with t in its
relations, and a skew space where one relation has a t coefficient and
two do not.  The golden corpus has no such input; these cases pin the
bytes that the Q(t) paths of the quotient, PBW rewriting and the Koszul
check print.
"""

import io
import shlex
from contextlib import redirect_stderr, redirect_stdout

import pytest

from ncpoint.cli import main

from conftest import HEISENBERG_T_CL

INPUTS = {
    "heisenberg_t.cl": HEISENBERG_T_CL,
    "downup_t.alg": """\
generators: x y
relation: x*x*y - (t+1)*x*y*x + t*y*x*x
relation: x*y*y - (t+1)*y*x*y + t*y*y*x
""",
    "skew_t.alg": """\
generators: x y z
relation: x*y - t*y*x
relation: y*z - z*y
relation: z*x - 2*x*z
""",
}

CL_DIGEST = "input heisenberg_t.cl: sha256:919b2c0d5d2f5c55565089f4f181abc6ce8c47003382dfa4101b8d2b73ff0dfa\n"
DOWNUP_DIGEST = "input downup_t.alg: sha256:28e845dffb0967e616514564ffb3000b84b3039aee17cc87a82cfab453ffb124\n"
SKEW_DIGEST = "input skew_t.alg: sha256:4586728e314d986a321b51d60d73759c6af04a0c1bb0e0e140a8018b51536351\n"

CASES = [
    ("upresent heisenberg_t.cl --max-degree 4", CL_DIGEST + """\
generators: x y
relation: x*x*y + (-2*t)*x*y*x + (t^2)*y*x*x
relation: x*y*y + (-2*t)*y*x*y + (t^2)*y*y*x
dimensions: 1,2,4,6,9
result: pass
"""),
    ("koszul heisenberg_t.cl --max-degree 6", CL_DIGEST + """\
check color Lie axioms: pass
check koszul resolution:
  d o d = 0: ok
  exactness in internal degrees >= 1: ok
check d^2 = 0: pass
check exactness in degrees 1..cap: pass
result: pass
"""),
    ("heisenberg-extract heisenberg_t.cl", CL_DIGEST + """\
n_L: 2
choice: g = [x, 1*y], u = t
g: x*y + (-t)*y*x
x: x
y: y
u: t
check q'-heisenberg:
  g nonzero mod ideal: ok
  (i) g = x*y - u*y*x: ok
  (ii) x*g = u*g*x: ok
  (iii) g*y = u*y*g: ok
  g normal: ok
  g regular up to degree 3: ok
  normality checked at degree: 3
  multiplication by g injective up to source degree: 3
check extracted witness verifies: pass
result: pass
"""),
    ("hilbert downup_t.alg --max-degree 9", DOWNUP_DIGEST + """\
dimensions: 1,2,4,6,9,12,16,20,25,30
result: pass
"""),
    ("minrel downup_t.alg --max-degree 9", DOWNUP_DIGEST + """\
degree 3: 2
result: pass
"""),
    ("hilbert skew_t.alg --max-degree 5", SKEW_DIGEST + """\
dimensions: 1,3,6,10,15,21
result: pass
"""),
    ("minrel skew_t.alg --max-degree 5", SKEW_DIGEST + """\
degree 2: 3
result: pass
"""),
]


@pytest.mark.parametrize("command,want", CASES, ids=[c for c, _ in CASES])
def test_q_t_stdout(command, want, tmp_path, monkeypatch):
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(shlex.split(command))
    assert (code, out.getvalue()) == (0, f"command: ncpoint {command}\n{want}")
