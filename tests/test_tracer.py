"""The benchmark's outside-in tracer must still find every layer it wraps.

`perfbench/tracer.py` wraps ncpoint functions by module and name, and
raises when one is gone.  Installing it here, in a fresh interpreter,
makes a renamed or deleted layer fail the test suite instead of only a
later traced benchmark run.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import io, sys
from contextlib import redirect_stderr, redirect_stdout
from ncpoint.cli import main
from tracer import Tracer

tracer = Tracer()
tracer.install()
with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
    code = main(sys.argv[1:])
names = {span[0] for span in tracer.spans}
assert code == 0, code
assert {"points.sample", "points.search", "points.extension_fiber"} <= names, names
"""


def test_tracer_installs_on_every_layer():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    fixtures = ROOT / "src" / "ncpoint" / "fixtures"
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, "compare", str(fixtures / "heisenberg_w2.cl"),
         "--length", "3", "--samples", "5"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
