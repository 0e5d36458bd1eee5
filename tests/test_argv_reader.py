"""`cli.read_argv` against argparse, its oracle.

A run of the common shape (the subcommand, its positionals, then exact
long options, each once) is read off the subcommand's declarations
without argparse; anything else is left to argparse.  So wherever the
reader gives a namespace, it must be the one argparse gives for the same
argv, and where argparse refuses an argv, or prints help, the reader must
give None.  The argvs are built from each subcommand's own declarations:
exact and abbreviated option names, values with "=" and as their own
token, values that argparse reads apart ("--", "-", "", "-h", "-1"),
repeated and missing options, and positionals before, between and after
the options.  Every benchmark job's argv is read by the reader, so no
workload pays for argparse and its 16 subparsers.
"""

import io
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncpoint import cli
from ncpoint.cli import SUBCOMMANDS, build_parser, read_argv

from test_golden import COMMANDS

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402  (perfbench's job lists)

# golden cases whose argv only argparse reads: 21 and 22 give "--u -1",
# 60-65 abbreviate, put an option first, repeat one or misplace a positional
ON_ARGPARSE = {21, 22, 60, 61, 62, 63, 64, 65}

# the values an option of each kind takes, and values that argparse reads
# apart or refuses
GOOD = {"int": ["3", "0", "12"], "str": ["x", "x*y - y*x", "1:1 2:1", "a=b", "", "-x", "-1"],
        "flag": [""]}
ODD = ["", "-1", "-", "--", "-h", "--help"]
# a change listed twice is drawn twice as often
CHANGES = ["misspell", "odd value", "odd value", "repeat", "drop", "shuffle", "positional",
           "positional", "help"]


def parsed(argv):
    """vars of argparse's namespace for argv, or None when it exits."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser().parse_args(argv))
        except SystemExit:
            return None


def declared(name):
    """Whether each positional is required, (option string, kind, required)
    for each option, and the misspellings of the options, from the
    subcommand's declarations."""
    positionals, options = [], []
    for method, names, kwargs in cli._declarations(name):
        if method != "add_argument":
            continue
        if not names[0].startswith("-"):
            positionals.append("nargs" not in kwargs)
        elif kwargs.get("action") == cli.BOOLEAN_OPTIONAL:
            options += [(names[0], "flag", False), ("--no-" + names[0][2:], "flag", False)]
        else:
            kind = "int" if kwargs.get("type") is int else "str"
            options.append((names[0], kind, kwargs.get("required", False)))
    misspelled = [o[:k] for o, _, _ in options for k in (3, -1)]
    return positionals, options, st.sampled_from(misspelled + ["--help", "-h", "--", "-"])


TABLE = {name: declared(name) for name in SUBCOMMANDS}
VALUE = {kind: st.sampled_from(values) for kind, values in GOOD.items()}
SEPARATOR = {kind: st.just("") if kind == "flag" else st.sampled_from(["=", " "]) for kind in GOOD}
ODD_SEPARATOR = st.sampled_from(["=", "=", " "])


@st.composite
def argvs(draw):
    """A well-formed run of one subcommand, built from its declarations,
    with up to three CHANGES made to it: an option misspelled (abbreviated,
    or --help, -h, "--" or "-"), given an odd value, given twice, dropped
    (even a required one), the options shuffled, a positional put among or
    after them, or --help or -h added."""
    name = draw(st.sampled_from(list(SUBCOMMANDS)))
    positionals, options, misspelled = TABLE[name]
    lead = [draw(st.sampled_from(["a.alg", "b.cl", ""]))
            for required in positionals if required or draw(st.booleans())]
    items = [[option, kind, draw(VALUE[kind]), draw(SEPARATOR[kind])]
             for option, kind, required in options if required or draw(st.booleans())]
    changes = draw(st.lists(st.sampled_from(CHANGES), max_size=3))
    for change in changes:
        at = draw(st.integers(0, len(items)))
        if change == "repeat" and options:
            option, kind, _ = draw(st.sampled_from(options))
            items.insert(at, [option, kind, draw(VALUE[kind]), draw(SEPARATOR[kind])])
        elif at == len(items):
            continue
        elif change == "misspell":
            items[at][0] = draw(misspelled)
        elif change == "odd value":
            items[at][2:] = [draw(st.sampled_from(ODD)), draw(ODD_SEPARATOR)]
        elif change == "drop":
            del items[at]
        elif change == "shuffle":
            items = draw(st.permutations(items))
    tokens = []
    for option, _, value, sep in items:
        tokens += [f"{option}={value}"] if sep == "=" else [option, value] if sep else [option]
    for change in changes:
        if change in ("positional", "help"):
            token = "c" if change == "positional" else draw(st.sampled_from(["--help", "-h"]))
            tokens.insert(draw(st.one_of(st.just(len(tokens)), st.integers(0, len(tokens)))), token)
    return [name, *lead, *tokens]


@settings(max_examples=1500, deadline=None)
@given(argvs())
@example(["compare", "a.cl", "--length", "2", "b.alg"])  # argparse takes no late positional
@example(["skew-variety", "--omega=--"])  # argparse reads "--name=--" as the value []
@example(["compare", "a.cl", "--length", "2", "--s", "3"])  # --samples or --seed
def test_reads_what_argparse_reads(argv):
    got = read_argv(argv)
    assert got is None or vars(got) == parsed(argv)


def test_golden_runs_are_read_without_argparse():
    for number, command in enumerate(COMMANDS, start=1):
        argv = shlex.split(command)
        got = read_argv(argv)
        if number in ON_ARGPARSE:
            assert got is None, command
        else:
            assert got is not None and vars(got) == parsed(argv), command


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_benchmark_jobs_are_read_without_argparse(tmp_path, workload):
    for seed in range(10):
        workdir = tmp_path / str(seed)
        workdir.mkdir()
        for job in workloads.build(workload, seed, workdir, tmp_path):
            got = read_argv(job.argv)
            assert got is not None and vars(got) == parsed(job.argv), (seed, job.argv)
