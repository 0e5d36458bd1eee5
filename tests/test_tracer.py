"""The benchmark's outside-in tracer must still find every layer it wraps.

`perfbench/tracer.py` wraps ncpoint functions by module and name, and
raises when one is gone.  Installing it here, in a fresh interpreter,
makes a renamed or deleted layer fail the test suite instead of only a
later traced benchmark run.  A small job set then calls every layer at
least once, apart from the targets known to read 0 calls, so that a
layer the program stops calling shows here too.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "src" / "ncpoint" / "fixtures"

# targets that no command reaches through the traced binding
ZERO_CALL_TARGETS = {"scalars.make_ratfunc", "linalg.rref", "linalg.matmul"}

# (argv, exit code); each job runs after the tracer is installed
JOBS = [
    (["torsionfree", "downup_4_-4.alg", "--g", "x*y-2*y*x", "--length", "4",
      "--samples", "20"], 0),
    (["compare", "heisenberg_w2.cl", "quantum_plane_2.alg", "--length", "2",
      "--samples", "5"], 0),
    (["koszul", "heisenberg_w2.cl", "--max-degree", "3"], 0),
    (["heisenberg", "d_2_1.alg", "--g", "x*x*y + 2*x*y*x + y*x*x", "--seed", "0"], 0),
    # x*x is not normal in downup_4_-4, so regularity is ranked on both sides
    (["heisenberg", "downup_4_-4.alg", "--g", "x*x", "--x", "x", "--y", "y", "--u", "1"], 1),
    (["weyl-witness", "downup_4_-4.alg", "--g", "x*y-2*y*x", "--x", "x", "--y", "y",
      "--u", "2"], 0),
    (["qv-check", "downup_4_-4.alg", "--g", "x*y-2*y*x"], 0),
]

SCRIPT = """
import io, json, sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from ncpoint.cli import main
from tracer import TARGETS, Tracer

tracer = Tracer()
tracer.install()
codes = []
for argv in json.loads(sys.argv[1]):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        codes.append(main(argv))
calls = Counter(span[0] for span in tracer.spans)
print(json.dumps({"codes": codes, "calls": {name: calls[name] for name, *_ in TARGETS}}))
"""


def test_tracer_installs_on_every_layer():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    argvs = [argv for argv, _ in JOBS]
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(argvs)], cwd=FIXTURES,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [code for _, code in JOBS]
    zero = {name for name, count in result["calls"].items() if not count}
    assert zero == ZERO_CALL_TARGETS, result["calls"]
