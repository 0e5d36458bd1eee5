"""Time the ROADMAP baseline-table runs at their stated sizes.

    python3 perfbench/roadmap_table.py

Run from the root of a checkout.  Each run is ``ncpoint.cli.main(argv)``
in this process, timed with perf_counter; the best of REPEAT runs is
printed, one JSON object per line, so the figures compare with the table in
ROADMAP.md, which was measured the same way.  Exit codes are checked.
"""

import contextlib
import io
import json
import platform
import sys
import time
from pathlib import Path

REPEAT = 2
FIX = "src/ncpoint/fixtures/"
SKEW3 = "generators: x y z\nscalar: rational\nrelation: x*y - 2*y*x\n" \
        "relation: x*z - 3*z*x\nrelation: y*z - 5*z*y\n"

RUNS = (
    ["torsionfree", FIX + "downup_4_-4.alg", "--g", "x*y-2*y*x", "--length", "4",
     "--samples", "1000"],
    ["compare", FIX + "heisenberg_w2.cl", FIX + "quantum_plane_2.alg", "--length", "4",
     "--samples", "500"],
    ["stabilize", FIX + "downup_4_-4.alg", "--from", "3", "--to", "6", "--samples", "100"],
    ["qv-check", FIX + "downup_4_-4.alg", "--g", "x*y-2*y*x"],
    ["hilbert", FIX + "downup_4_-4.alg", "--max-degree", "12"],
    ["hilbert", FIX + "downup_4_-4.alg", "--max-degree", "13"],
    ["hilbert", ".perfbench/skew3.alg", "--max-degree", "8"],
    ["koszul", FIX + "heisenberg_w2.cl", "--max-degree", "10"],
    ["koszul", FIX + "heisenberg3_skew.cl", "--max-degree", "6"],
)


def main():
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    from ncpoint.cli import main as cli_main

    skew = root / ".perfbench" / "skew3.alg"
    skew.parent.mkdir(exist_ok=True)
    skew.write_text(SKEW3)
    print(json.dumps({"python": platform.python_version(), "machine": platform.machine(),
                      "processor": platform.processor()}))
    for argv in RUNS:
        times = []
        for _ in range(REPEAT):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                start = time.perf_counter()
                code = cli_main(argv)
                times.append(time.perf_counter() - start)
            if code != 0:
                raise SystemExit(f"{' '.join(argv)} exited with {code}")
        print(json.dumps({"run": " ".join(argv), "best_s": round(min(times), 3),
                          "runs": REPEAT}), flush=True)
    skew.unlink()


if __name__ == "__main__":
    main()
