"""Degenerate input files: every file-reading subcommand ends on them.

Each run is its own process with a 10 s timeout, so a hang or a crash
shows as a failed run rather than a stuck suite.  A run must exit 0, 1
or 2 without a traceback, and exit 2 where the parser or the
presentability check refuses the input.  The runs go four at a time.
"""

import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

INPUTS = {
    # no generators at all: compare used to sample points of P^-1 forever
    "rank_0.cl": "rank: 0\n",
    # no designated generator for e_0: heisenberg-extract used to report n_L = 0
    "no_basis.cl": "rank: 1\nomega: 1\n",
    "repeated_rank.cl": "rank: 2\nbasis: x:(1,0)\nbasis: y:(0,1)\nomega: 1 2\n"
                        "omega: 1/2 1\nrank: 3\n",
    "repeated_bracket.cl": "rank: 2\nbasis: x:(1,0)\nbasis: y:(0,1)\nbasis: z:(1,1)\n"
                           "omega: 1 2\nomega: 1/2 1\nbracket: [x,y] = z\n"
                           "bracket: [x,y] = 2*z\n",
    "repeated_generators.alg": "generators: x y\nrelation: x*y - y*x\ngenerators: a b c\n",
}

ALG_COMMANDS = [
    ("hilbert", "--max-degree", "3"),
    ("minrel", "--max-degree", "3"),
    ("heisenberg", "--g", "x*y"),
    ("power-ids", "--g", "x*y", "--x", "x", "--y", "y", "--u", "1"),
    ("qv-check", "--g", "x*y"),
    ("weyl-witness", "--g", "x*y", "--x", "x", "--y", "y", "--u", "1"),
    ("point-extend", "--points", "1:1"),
    ("torsionfree", "--g", "x*y", "--length", "3"),
    ("compare", "--length", "2", "--samples", "3"),
    ("stabilize", "--from", "2", "--to", "3", "--samples", "3"),
]
CL_COMMANDS = [
    ("color-check",),
    ("upresent", "--max-degree", "3"),
    ("nl",),
    ("koszul", "--max-degree", "3"),
    ("koszul", "--max-degree", "3", "--r-max", "1"),
    ("heisenberg-extract",),
    ("skew-variety",),
    ("compare", "--length", "2", "--samples", "3"),
]

# the runs that need no designated generator and end normally; every other
# run is refused (exit 2), most of them while the input is parsed
ACCEPTED = {("no_basis.cl", "color-check"), ("no_basis.cl", "nl")}

# refusals whose message is pinned: koszul's default --r-max is dim L = 0,
# and a message about the range of --r-max would name a flag never passed
MESSAGES = {("no_basis.cl", "koszul"): "error: L has no basis, so it has no Koszul complex\n"}


def runs():
    for name in INPUTS:
        for command, *flags in ALG_COMMANDS if name.endswith(".alg") else CL_COMMANDS:
            yield name, command, flags


def run(tmp_path, name, command, flags):
    argv = [sys.executable, "-S", "-m", "ncpoint.cli", command, name, *flags]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    try:
        proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=10)
    except subprocess.TimeoutExpired:
        return name, command, None, "timed out"
    return name, command, proc.returncode, proc.stderr


def test_every_subcommand_ends_on_degenerate_inputs(tmp_path):
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text)
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(lambda r: run(tmp_path, *r), runs()))
    bad = [(name, command, code, err) for name, command, code, err in results
           if code not in (0, 1, 2) or "Traceback" in err
           or ((name, command) not in ACCEPTED and code != 2)
           or err != MESSAGES.get((name, command), err)]
    assert bad == []
