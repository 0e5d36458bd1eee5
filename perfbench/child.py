"""Child entry point: one ncpoint CLI job in a fresh interpreter.

    python3 perfbench/child.py REPORT_PATH TRACE -- ARGV...

Imports ``ncpoint.cli`` from the checkout's ``src`` directory, records the
moment it is ready, calls ``main(ARGV)`` and exits with its code.  Stdout
and stderr are the program's own.  REPORT_PATH receives a JSON object with
the ready time (on the machine-wide monotonic clock, so the load generator
can subtract its spawn time), the in-child seconds of ``main`` and, when
TRACE is 1, the spans recorded by perfbench/tracer.py.  It also holds the
moment this file started running, which times the interpreter's own start.
"""

import sys
import time

BOOTED = time.monotonic()  # the interpreter has started; no ncpoint code has run

import os  # noqa: E402  (already loaded by site, so it costs nothing here)


def run(report_path, trace, argv):
    # Only what ncpoint.cli imports itself is charged to the set-up time.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    sys.path.insert(0, src)
    import ncpoint.cli

    imported_from = os.path.dirname(os.path.dirname(os.path.abspath(ncpoint.cli.__file__)))
    if imported_from != src:
        raise SystemExit(f"imported ncpoint from {ncpoint.cli.__file__}, not {src}")
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    ready = time.monotonic()
    start = time.perf_counter()
    code = ncpoint.cli.main(argv)
    main_s = time.perf_counter() - start
    sys.stdout.flush()
    import json
    report = {"booted": BOOTED, "ready": ready, "main_s": main_s,
              "spans": tracer.spans if tracer else None}
    with open(report_path, "w") as f:
        json.dump(report, f)
    return code


if __name__ == "__main__":
    report_path, trace, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py REPORT_PATH TRACE -- ARGV...")
    sys.exit(run(report_path, trace == "1", argv))
