"""ncpoint CLI benchmark: a closed loop with one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The load generator writes the workload's
inputs from the seed, then runs its job list once and keeps cycling through
it until the time is spent, one job at a time, each in a fresh interpreter
(perfbench/child.py imports ``ncpoint.cli`` from ``src`` and calls
``main``), because users run every ``ncpoint`` command as its own process
and no in-process memo may carry from one job to the next.  Every job is
checked against its oracle (perfbench/workloads.py) and against its own
first stdout; a wrong answer, exit code or timeout counts as failed, not as
fast.  A job's time is its median over its runs.  Each run's times are
scaled by that child's own interpreter start (see BOOT_S); the unscaled
end-to-end figures go to stderr.

--trace 0 prints the end-to-end metrics that BENCHMARK.json declares, and
--trace 1 its per-layer metrics; a declared metric that the run cannot
compute is an error.  --trace 1 runs each job untraced and then traced
(perfbench/tracer.py wraps the layer functions inside the child), checks
that both print the same stdout bytes and writes every span to
``.perfbench/trace-<workload>-<seed>.json``.  The last line of stdout is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
JOB_TIMEOUT_S = 60.0
RUN_LIMIT_S = 100.0  # a run must end well inside 180 s, whatever --seconds says

# The host's speed drifts by tens of percent over minutes.  Each child
# reports when its interpreter had started, before any ncpoint code ran;
# every time the child yields is scaled by BOOT_S / (that child's interpreter
# start), so it reads as seconds on a host where an interpreter starts in
# BOOT_S, and a change to the program moves the metric but not the scale.
BOOT_S = 0.05


@dataclass
class Result:
    wall: float
    rss_kb: int
    stdout: bytes
    error: str | None = None
    setup: float | None = None
    main: float | None = None
    spans: list | None = None
    boot: float | None = None
    scale: float | None = None  # BOOT_S / boot, once the child has reported


def run_job(job, traced, workdir, root, timeout):
    """Spawn one child, wait for it with os.wait4, and time it."""
    stdout_path = workdir / "stdout"
    report_path = workdir / "report.json"
    report_path.unlink(missing_ok=True)
    argv = [sys.executable, str(CHILD), str(report_path), "1" if traced else "0", "--",
            *job.argv]
    timed_out = threading.Event()
    with open(stdout_path, "wb") as out:
        spawned = time.monotonic()
        proc = subprocess.Popen(argv, cwd=root, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=subprocess.DEVNULL)

        def kill():
            timed_out.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        exited = time.monotonic()
    proc.returncode = code = os.waitstatus_to_exitcode(status)  # reaped by wait4
    res = Result(exited - spawned, usage.ru_maxrss, stdout_path.read_bytes())
    if timed_out.is_set():
        res.error = f"timed out after {timeout:.0f} s"
    elif not report_path.exists():
        res.error = f"child exited with {code} before reporting"
    else:
        report = json.loads(report_path.read_text())
        res.boot = report["booted"] - spawned
        res.scale = BOOT_S / res.boot
        res.setup = report["ready"] - spawned
        res.main = report["main_s"]
        res.spans = report["spans"]
        res.error = job.verify(code, res.stdout)
    return res


class Runner:
    def __init__(self, jobs, workdir, root, deadline):
        self.jobs = jobs
        self.workdir = workdir
        self.root = root
        self.hard_deadline = time.monotonic() + RUN_LIMIT_S
        self.deadline = min(deadline, self.hard_deadline)
        self.reference = [None] * len(jobs)   # stdout of each job's first run
        self.attempted = 0
        self.failures = []

    def run(self, i, traced):
        job = self.jobs[i]
        timeout = min(JOB_TIMEOUT_S, max(1.0, self.hard_deadline - time.monotonic()))
        res = run_job(job, traced, self.workdir, self.root, timeout)
        self.attempted += 1
        if res.error is None:
            if self.reference[i] is None:
                self.reference[i] = res.stdout
            elif res.stdout != self.reference[i]:
                res.error = ("traced stdout differs from untraced" if traced
                             else "stdout differs from an earlier run")
        if res.error is not None:
            self.failures.append(f"{' '.join(job.argv)}: {res.error}")
        return res

    def measure(self, kinds):
        """Run every job once per kind in `kinds` (traced flags), then keep
        cycling through the job list until the measuring time is spent.
        Returns, per kind, each job's list of results."""
        samples = {traced: [[] for _ in self.jobs] for traced in kinds}
        n = len(self.jobs)
        i = 0
        while i < n or time.monotonic() < self.deadline:
            for traced in kinds:
                samples[traced][i % n].append(self.run(i % n, traced))
            i += 1
        return samples


def per_job_median(samples, field, scaled=True):
    """Sum over jobs of the job's median `field` (seconds) across the runs
    whose child reported, each run scaled by its own interpreter start."""
    total = 0.0
    for runs in samples:
        values = [getattr(res, field) * (res.scale if scaled else 1.0)
                  for res in runs if res.scale is not None]
        if values:
            total += statistics.median(values)
    return total


def declared(root, kind):
    """{name: unit} of the metrics BENCHMARK.json declares under `kind`."""
    doc = json.loads((root / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in doc[kind]}


def end_to_end(samples, scaled=True):
    runs = [res for job_runs in samples for res in job_runs]
    setups = [res.setup * (res.scale if scaled else 1.0)
              for res in runs if res.scale is not None]
    return {
        "wall_s": per_job_median(samples, "wall", scaled),
        "setup_s": statistics.median(setups) if setups else 0.0,
        "peak_rss_mb": max(res.rss_kb for res in runs) / 1024,
    }


def per_layer(jobs, plain, traced, names):
    """Counts and ratios come from each job's first traced run; self times
    are summed over jobs of each job's median across its traced runs.
    `cmd.<command>_s` is a command's in-child main() seconds, untraced,
    summed over its jobs, for each such name in `names`."""
    out = tracer.layer_metrics([runs[0].spans or [] for runs in traced])
    per_run = [[(tracer.layer_metrics([res.spans]), res.scale) for res in runs
                if res.scale is not None] for runs in traced]
    for metric in out:
        if metric.endswith(".self_s"):
            out[metric] = sum(statistics.median(m[metric] * scale for m, scale in runs)
                              for runs in per_run if runs)
    for name in names:
        if name.startswith("cmd.") and name.endswith("_s"):
            command = name[len("cmd."):-len("_s")].replace("_", "-")
            out[name] = per_job_median(
                [runs for runs, job in zip(plain, jobs) if job.command == command], "main")
    out["cli.stdout_bytes"] = sum(len(runs[0].stdout) for runs in plain)
    out["trace.overhead_ratio"] = (per_job_median(traced, "wall")
                                   / per_job_median(plain, "wall") - 1)
    return out


def write_spans(path, jobs, traced):
    spans = []
    for job_no, runs in enumerate(traced):
        for run_no, res in enumerate(runs):
            job_id = f"job{job_no}/run{run_no}"
            spans += [[name, start, end, parent, job_id, attr]
                      for name, start, end, parent, attr in res.spans or []]
    doc = {"fields": ["name", "start", "end", "parent", "job", "attr"],
           "jobs": [" ".join(job.argv) for job in jobs], "spans": spans}
    path.write_text(json.dumps(doc))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    for need in ("src/ncpoint/cli.py", "BENCHMARK.json"):
        if not (root / need).is_file():
            print(f"error: {root} holds no {need}; run from a checkout's root", file=sys.stderr)
            return 2
    units = declared(root, "per_layer" if args.trace else "end_to_end")
    deadline = time.monotonic() + args.seconds
    out_dir = root / ".perfbench"
    workdir = out_dir / f"work-{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        jobs = workloads.build(args.workload, args.seed, workdir, root)
        # Byte-compile once, untimed, as an installed package would be.
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(root / "src" / "ncpoint")],
                       check=True, stdout=subprocess.DEVNULL)
        runner = Runner(jobs, workdir, root, deadline)
        if args.trace:
            samples = runner.measure((False, True))
            raw = per_layer(jobs, samples[False], samples[True], units)
            write_spans(out_dir / f"trace-{args.workload}-{args.seed}.json", jobs,
                        samples[True])
        else:
            samples = runner.measure((False,))
            raw = end_to_end(samples[False])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in runner.failures:
        print(f"failed: {failure}", file=sys.stderr)
    boots = [res.boot for kind in samples.values() for runs in kind for res in runs
             if res.boot is not None]
    metrics = dict(raw, **{"host.boot_s": statistics.median(boots) if boots else 0.0})
    unscaled = end_to_end(samples[False], scaled=False)
    print(f"boot_s={metrics['host.boot_s']:.6g}; unscaled: wall_s={unscaled['wall_s']:.6g}, "
          f"setup_s={unscaled['setup_s']:.6g}", file=sys.stderr)
    missing = [name for name in units if name not in metrics]
    if missing:
        print(f"error: BENCHMARK.json declares metrics this run does not compute: {missing}",
              file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
