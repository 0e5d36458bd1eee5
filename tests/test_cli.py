import importlib
import io
import os
import shlex
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from ncpoint import cli, colorlie
from ncpoint.cli import main
from ncpoint.quotient import QuotientCache

from conftest import THREE_STEP_CL, fixture_path


def run_cli(*args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


def fx(name):
    return str(fixture_path(name))


ANTISYMMETRY = "L is not a color Lie algebra: antisymmetry: [x,y] != -eps*[y,x]"


class TestExitCodes:
    def test_hilbert_pass(self):
        code, out, _ = run_cli("hilbert", fx("downup_4_-4.alg"), "--max-degree", "6")
        assert code == 0
        assert "dimensions: 1,2,4,6,9,12,16" in out
        assert out.endswith("result: pass\n")

    def test_heisenberg_failure_is_exit_1(self):
        code, out, _ = run_cli("heisenberg", fx("commutative_plane.alg"),
                               "--g", "x*y - y*x", "--x", "x", "--y", "y", "--u", "1")
        assert code == 1
        assert "result: fail" in out

    def test_missing_file_is_exit_2(self):
        code, _, err = run_cli("hilbert", "no_such_file.alg", "--max-degree", "3")
        assert code == 2
        assert "error" in err

    def test_bad_expression_is_exit_2(self):
        code, _, err = run_cli("heisenberg", fx("downup_4_-4.alg"),
                               "--g", "x*q", "--x", "x", "--y", "y", "--u", "1")
        assert code == 2

    def test_large_cubic_pivot_is_solved_in_time(self, tmp_path):
        # d_2_1 with a 10-digit coefficient: the walk meets a cubic pivot
        # whose constant term has 33 digits
        text = fixture_path("d_2_1.alg").read_text().replace(
            "x*y*y + 2*y*x*y + y*y*x", "x*y*y + 1000000007*y*x*y + y*y*x")
        path = tmp_path / "big_pivot.alg"
        path.write_text(text)
        start = time.perf_counter()
        code, out, _ = run_cli("torsionfree", str(path), "--g", "x*x*y+2*x*y*x+y*x*x",
                               "--length", "6", "--samples", "3")
        assert code == 0 and "95000000570" in out
        assert time.perf_counter() - start < 10

    def test_witness_search_fail_covers_the_sampled_x(self, tmp_path):
        # downup_4_-4 with x -> x - 7y and y -> y - 5x in its relations, and g
        # the image of xy - 2yx: no sampled x is proportional to the witness x
        path = tmp_path / "downup_sheared.alg"
        path.write_text(
            "generators: x y\n"
            "relation: -5*x*x*x + x*x*y + 171*x*y*x - 959*x*y*y - 101*y*x*x"
            " + 945*y*x*y - 245*y*y*x + 49*y*y*y\n"
            "relation: 25*x*x*x - 685*x*x*y + 675*x*y*x + x*y*y - 175*y*x*x"
            " + 171*y*x*y - 101*y*y*x - 7*y*y*y\n")
        g = "5*x*x - 69*x*y + 33*y*x + 7*y*y"
        code, out, _ = run_cli("heisenberg", str(path), "--g", g)
        assert code == 1
        assert ("check witness search: FAIL (no (x, y, u) found for the sampled x: "
                "the generators and up to 4 seeded combinations)") in out.splitlines()
        code, out, _ = run_cli("heisenberg", str(path), "--g", g,
                               "--x", "x - 7*y", "--y", "y - 5*x", "--u", "2")
        assert code == 0 and out.endswith("result: pass\n")

    def test_huge_scalar_exponent_is_exit_2(self, tmp_path):
        path = tmp_path / "huge_power.alg"
        path.write_text("generators: x y\nrelation: x*y - t^3000000*y*x\n")
        start = time.perf_counter()
        code, out, err = run_cli("hilbert", str(path), "--max-degree", "3")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err == "error: exponent 3000000 exceeds 1000 (line 2, col 8)\n"

    @pytest.mark.parametrize("literal,message,col", [
        # the column of the base, after the 6 characters of "x*y - "
        ("((t+1)^100)^100", "power of degree 10000 exceeds 1000", 6),
        ("((2^1000)^1000)^1000", "power of 1001000 bits exceeds 64000", 7),
    ], ids=["degree", "bits"])
    def test_power_of_a_power_is_exit_2(self, tmp_path, literal, message, col):
        path = tmp_path / "nested_power.alg"
        path.write_text(f"generators: x y\nrelation: x*y - {literal}*y*x\n")
        start = time.perf_counter()
        code, out, err = run_cli("hilbert", str(path), "--max-degree", "3")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == f"error: {message} (line 2, col {col})\n"

    def test_unknown_subcommand_is_exit_2(self):
        code, _, _ = run_cli("frobnicate")
        assert code == 2

    def test_budget_exceeded_is_exit_2(self):
        code, _, err = run_cli("hilbert", fx("downup_4_-4.alg"),
                               "--max-degree", "9", "--budget", "100")
        assert code == 2
        assert "budget" in err

    @pytest.mark.parametrize("offset", [1, -1])
    def test_invariant_failure_is_exit_3(self, monkeypatch, offset):
        # +1: the quotient has too few words in degree 0; -1: too many
        real = colorlie.pbw_dim
        monkeypatch.setattr(colorlie, "pbw_dim", lambda L, d: real(L, d) + offset)
        code, out, err = run_cli("upresent", fx("heisenberg_w2.cl"), "--max-degree", "4")
        assert code == 3
        assert out == ""
        assert err.startswith("error: PBW dimension check failed in degree ")
        assert err.count("\n") == 1

    def test_recursion_error_is_exit_3(self, monkeypatch):
        # a RecursionError is a fault in the program, although Python
        # derives it from RuntimeError
        def overflow(*args):
            raise RecursionError("maximum recursion depth exceeded")
        monkeypatch.setattr(cli, "hilbert", overflow)
        code, out, err = run_cli("hilbert", fx("downup_4_-4.alg"), "--max-degree", "3")
        assert code == 3
        assert out == ""
        assert err == "error: maximum recursion depth exceeded\n"

    @pytest.mark.parametrize("args", [
        ("--g", "x*y-2*y*x", "--cap", "2"),
        ("--g", "x+x*y"),
    ], ids=["cap-below-normality-degree", "inhomogeneous-g"])
    def test_qv_check_usage_error_is_exit_2(self, args):
        # a check that cannot run is not a verified failure
        code, out, err = run_cli("qv-check", fx("downup_4_-4.alg"), *args)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("args", [
        ("koszul", fx("heisenberg_w2.cl")),
        ("torsionfree", fx("downup_4_-4.alg"), "--g", "x*y-2*y*x", "--length", "3"),
        ("stabilize", fx("downup_4_-4.alg"), "--from", "3", "--to", "4"),
        ("point-extend", fx("quantum_plane_2.alg"), "--points", "1:1"),
    ], ids=lambda a: a[0])
    def test_budget_not_offered_where_unread(self, args):
        code, out, err = run_cli(*args, "--budget", "10")
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --budget 10" in err

    @pytest.mark.parametrize("args", [
        ("heisenberg", fx("downup_2_-1.alg"), "--g", "x*y - y*x", "--u", "5"),
        ("heisenberg", fx("downup_2_-1.alg"), "--g", "x*y - y*x", "--x", "x", "--y", "y"),
        ("skew-variety", fx("heisenberg_w2.cl"), "--omega", "1,2;1/2,1"),
        ("stabilize", fx("d_2_1.alg"), "--from", "4", "--to", "4"),
    ], ids=["witness-u-only", "witness-without-u", "omega-and-file", "empty-length-range"])
    def test_ignored_input_is_exit_2(self, args):
        # an input the command would ignore, or a range with no length to
        # check, is a usage error rather than a silent pass
        code, out, err = run_cli(*args)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("args", [
        ("--r-max", "0", "--max-degree", "3"),
        ("--r-max", "-1", "--max-degree", "3"),
        ("--max-degree", "-1"),
    ], ids=["r-max-0", "r-max-negative", "max-degree-negative"])
    def test_koszul_empty_range_is_exit_2(self, args):
        # exit 1 is kept for a complex that is checked and found not exact
        code, out, err = run_cli("koszul", fx("heisenberg_w2.cl"), *args)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("name,value,message", [
        ("_homogeneous_span_elements", [], "no nonzero bracket"),
        ("solve_columns", ([None], 0), "element is not expressible"),
    ], ids=["no-bracket", "not-expressible"])
    def test_extraction_invariant_is_exit_3(self, monkeypatch, name, value, message):
        # unreachable for a valid L, so a fault in the program
        monkeypatch.setattr(colorlie, name, lambda *args: value)
        code, out, err = run_cli("heisenberg-extract", fx("heisenberg_w2.cl"))
        assert code == 3
        assert out == ""
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize("text,cap", [(None, "2"), (THREE_STEP_CL, "3")],
                             ids=["heisenberg_w2", "three-step"])
    def test_extract_cap_below_check_degree_is_exit_2(self, tmp_path, text, cap):
        # the witness is checked on the quotient its relations were
        # searched in, so a cap below the degrees of the check is a usage
        # error, not a verified failure
        path = fx("heisenberg_w2.cl")
        if text is not None:
            path = tmp_path / "three_step.cl"
            path.write_text(text)
        code, out, err = run_cli("heisenberg-extract", str(path), "--cap", cap)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("args", [
        ("torsionfree", "QT", "--g", "x*y", "--length", "3", "--samples", "3"),
        ("torsionfree", fx("quantum_plane_2.alg"), "--g", "x*y - t*y*x", "--length", "3"),
        ("compare", "QT", "Q2", "--length", "3", "--samples", "5"),
        ("stabilize", "QT", "--from", "2", "--to", "4", "--samples", "5"),
    ], ids=["torsionfree-relation", "torsionfree-g", "compare", "stabilize"])
    def test_t_coefficient_in_point_walk_is_exit_2(self, tmp_path, args):
        # the walks use t for their Q(t) pencil, so a coefficient in t
        # would be read as the pencil parameter
        files = {"QT": "x*y - t*y*x", "Q2": "x*y - 2*y*x"}
        for stem, relation in files.items():
            (tmp_path / f"{stem}.alg").write_text(f"generators: x y\nrelation: {relation}\n")
        argv = [str(tmp_path / f"{a}.alg") if a in files else a for a in args]
        code, out, err = run_cli(*argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_point_extend_accepts_t_coefficients(self, tmp_path):
        path = tmp_path / "qt.alg"
        path.write_text("generators: x y\nrelation: x*y - t*y*x\n")
        code, out, _ = run_cli("point-extend", str(path), "--points", "1:1")
        assert code == 0
        assert "fiber basis point: (t:1)" in out

    @pytest.mark.parametrize("points,want", [
        ("1:1:1", ["(1/2:1:0)", "(5/4:0:1)"]),
        ("2:-3:7", ["(2/9:1:0)", "(-5/6:0:1)"]),
    ])
    def test_point_extend_prints_free_coordinate_one(self, tmp_path, points, want):
        # each basis vector of a fiber over Q prints with its free
        # coordinate, its last nonzero entry, equal to 1
        path = tmp_path / "xyz.alg"
        path.write_text("generators: x y z\nrelation: x*y - 2*y*x + 3*x*z - 5*z*y\n")
        code, out, _ = run_cli("point-extend", str(path), "--points", points)
        assert code == 0
        assert [line.split(": ", 1)[1] for line in out.splitlines()
                if line.startswith("fiber basis point: ")] == want

    @pytest.mark.parametrize("text,cap,degrees", [
        (None, 3, [3, 3]),
        (THREE_STEP_CL, 4, [4, 4, 4]),
    ], ids=["heisenberg_w2", "three-step"])
    def test_compare_builds_u_through_relation_degrees(self, tmp_path, monkeypatch,
                                                       text, cap, degrees):
        # U(L) is built to degree n_L + 1, where its relations end: a
        # higher cap finds the same relations
        path = fixture_path("heisenberg_w2.cl")
        if text is None:
            text = path.read_text()
        else:
            path = tmp_path / "three_step.cl"
            path.write_text(text)
        built = []
        real = colorlie.u_presentation

        def recording(L, max_degree, *rest):
            cache = real(L, max_degree, *rest)
            built.append((max_degree, cache.pres))
            return cache

        monkeypatch.setattr(colorlie, "u_presentation", recording)
        code, _, _ = run_cli("compare", str(path), fx("quantum_plane_2.alg"),
                             "--length", "2", "--samples", "5")
        assert code == 0
        [(built_cap, pres)] = built
        assert built_cap == cap
        assert [f.degree() for f in pres.relations] == degrees
        assert pres == real(colorlie.parse_colorlie(text), 6).pres

    def test_compare_has_no_max_degree(self):
        code, out, _ = run_cli("compare", fx("heisenberg_w2.cl"), fx("quantum_plane_2.alg"),
                               "--length", "2", "--max-degree", "5")
        assert (code, out) == (2, "")

    def test_upresent_negative_degree_is_exit_2(self):
        code, out, err = run_cli("upresent", fx("heisenberg_w2.cl"), "--max-degree", "-1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_color_check_violation_is_exit_1(self):
        code, out, _ = run_cli("color-check", fx("bad_jacobi.cl"))
        assert code == 1
        assert "violation" in out

    def test_color_check_pass(self):
        code, _, _ = run_cli("color-check", fx("heisenberg_w2.cl"))
        assert code == 0


NON_GRADED_CL = """\
rank: 2
basis: x:(1,0)
basis: y:(0,1)
omega: 1 1
omega: 1 1
bracket: [x,y] = x
"""


# 3,000 nested parentheses, and 3,000 unary minus signs
DEEPLY_NESTED = pytest.mark.parametrize(
    "nested", ["(" * 3000 + "1" + ")" * 3000, "(" + "-" * 3000 + "1)"],
    ids=["parentheses", "minus-signs"])


class TestRefusals:
    """Counts from the command line are bounded, and U(L) is built only
    for a bracket table that passes the axioms: each refusal is one
    error line and exit 2."""

    @pytest.mark.parametrize("args,message", [
        (("power-ids", "downup_4_-4.alg", "--g", "x*y-2*y*x", "--x", "x", "--y", "y",
          "--u", "2", "--r-max", "0"), "--r-max must be at least 1"),
        (("power-ids", "downup_4_-4.alg", "--g", "x*y-2*y*x", "--x", "x", "--y", "y",
          "--u", "2", "--r-max", "-1"), "--r-max must be at least 1"),
        (("torsionfree", "downup_4_-4.alg", "--g", "x*y-2*y*x", "--length", "4",
          "--samples", "-5"), "--samples must be nonnegative"),
        (("upresent", "bad_antisym.cl"), ANTISYMMETRY),
        (("heisenberg-extract", "bad_antisym.cl"), ANTISYMMETRY),
        (("compare", "bad_antisym.cl", "--length", "2", "--samples", "5"), ANTISYMMETRY),
        (("stabilize", "downup_4_-4.alg", "--from", "3", "--to", "6", "--samples", "-5"),
         "--samples must be nonnegative"),
        (("compare", "heisenberg_w2.cl", "--length", "3", "--samples", "-5"),
         "--samples must be nonnegative"),
        (("compare", "heisenberg_w2.cl", "--length", "0", "--samples", "5"),
         "--length must be at least 1"),
    ], ids=["r-max-0", "r-max-negative", "samples-negative", "upresent-bad-antisym",
            "extract-bad-antisym", "compare-bad-antisym", "stabilize-samples-negative",
            "compare-samples-negative", "compare-length-0"])
    def test_refused_with_exit_2(self, args, message):
        code, out, err = run_cli(args[0], fx(args[1]), *args[2:])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("command", ["upresent", "heisenberg-extract"])
    def test_not_generated_in_degree_one(self, tmp_path, command):
        # n_L = 1 here, so heisenberg-extract must check L before it
        # reports the S_epsilon case
        path = tmp_path / "not_generated.cl"
        path.write_text("rank: 2\nbasis: x:(1,0)\nbasis: y:(0,1)\nbasis: z:(1,1)\n"
                        "omega: 1 2\nomega: 1/2 1\n")
        code, out, err = run_cli(command, str(path))
        assert (code, out, err) == (2, "", "error: L is not generated by its degree-one part\n")

    def test_huge_generator_exponent(self, tmp_path):
        path = tmp_path / "huge_power.alg"
        path.write_text("generators: x y\nrelation: x^3000000*y - y*x^3000000\n")
        start = time.perf_counter()
        code, out, err = run_cli("hilbert", str(path), "--max-degree", "3")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == "error: exponent 3000000 exceeds 1000 (line 2, col 2)\n"

    @pytest.mark.parametrize("command", ["color-check", "nl", "koszul"])
    def test_huge_epsilon_power(self, tmp_path, command):
        # eps(|x|, |y|) = 2^(10^16): refused while L is built, before any
        # command computes a sign
        path = tmp_path / "huge_degrees.cl"
        path.write_text("rank: 2\nbasis: x:(100000000,0)\nbasis: y:(0,100000000)\n"
                        "basis: z:(100000000,100000000)\nomega: 1 2\nomega: 1/2 1\n")
        start = time.perf_counter()
        code, out, err = run_cli(command, str(path))
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == ("error: eps(|x|, |y|) is too large: "
                       "power of 20000000000000000 bits exceeds 64000\n")

    @DEEPLY_NESTED
    def test_deep_nesting_in_relation(self, tmp_path, nested):
        path = tmp_path / "deep.alg"
        path.write_text(f"generators: x y\nrelation: {nested}*x*y - y*x\n")
        code, out, err = run_cli("hilbert", str(path), "--max-degree", "2")
        assert (code, out) == (2, "")
        assert err.startswith("error: parentheses and signs nest deeper than 100 (line 2, col ")

    @DEEPLY_NESTED
    def test_deep_nesting_in_g(self, nested):
        code, out, err = run_cli("torsionfree", fx("quantum_plane_2.alg"), f"--g={nested}*x",
                                 "--length", "3")
        assert (code, out, err) == (2, "", "error: parentheses and signs nest deeper than 100\n")

    def test_ragged_omega_flag(self):
        code, out, err = run_cli("skew-variety", "--omega", "1,1,1;1,1,1;1")
        assert (code, out, err) == (2, "", "error: omega must be square\n")

    @pytest.mark.parametrize("command", ["color-check", "skew-variety", "upresent"])
    def test_ragged_omega_file(self, tmp_path, command):
        path = tmp_path / "ragged.cl"
        path.write_text("rank: 2\nbasis: x:(1,0)\nbasis: y:(0,1)\nomega: 1 2\nomega:\n")
        code, out, err = run_cli(command, str(path))
        assert (code, out, err) == (2, "", "error: omega must be square\n")


def run_isolated(command, path):
    """Run one command in its own interpreter under a timeout, so a walk
    that never ends fails the test instead of hanging."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "ncpoint.cli", command, str(path)],
                          capture_output=True, text=True, timeout=20, env=env)
    return proc.returncode, proc.stdout, proc.stderr


class TestNonGradedBracket:
    """A bracket that breaks the grading is a usage error for every
    command that builds degree by degree, since those walks need the
    grading to end."""

    @pytest.mark.parametrize("command", ["nl", "heisenberg-extract", "upresent", "koszul"])
    def test_rejected_with_exit_2(self, command, tmp_path):
        path = tmp_path / "non_graded.cl"
        path.write_text(NON_GRADED_CL)
        assert run_isolated(command, path) == (
            2, "", "error: bracket breaks the grading: [x,y] hits x of degree (1, 0), "
                   "expected (1, 1)\n")

    def test_color_check_lists_grading_violation(self, tmp_path):
        path = tmp_path / "non_graded.cl"
        path.write_text(NON_GRADED_CL)
        code, out, _ = run_cli("color-check", str(path))
        assert code == 1
        assert "violation: grading: [x,y] hits x of degree (1, 0), expected (1, 1)" in out


class TestNonPositiveDegree:
    """A basis element of total degree 0 or less would give a PBW degree
    infinitely many monomials, so every .cl command refuses it."""

    @pytest.mark.parametrize("degree,name", [("(0,0)", "z"), ("(-1,1)", "y")],
                             ids=["zero", "cancelling"])
    @pytest.mark.parametrize("command", ["koszul", "nl", "color-check"])
    def test_rejected_with_exit_2(self, command, degree, name, tmp_path):
        path = tmp_path / "non_positive.cl"
        path.write_text(f"rank: 2\nbasis: x:(1,0)\nbasis: {name}:{degree}\nomega: 1 1\nomega: 1 1\n")
        assert run_isolated(command, path) == (
            2, "", f"error: basis element {name} has total degree 0; "
                   "basis degrees must be positive\n")


class TestSingleBuild:
    """Each command builds the quotient of its algebra once: U(L) grows
    one degree at a time in the cache that the caller then reads.  The
    regularity check of a normal g adds one build, of A/(g), on A's own
    presentation: g enters that cache through `grow`."""

    @pytest.mark.parametrize("args,by_g", [
        (("upresent", "heisenberg3_skew.cl", "--max-degree", "6"), 0),
        (("heisenberg-extract", "heisenberg3_skew.cl"), 1),
        (("compare", "heisenberg_w2.cl", "quantum_plane_2.alg",
          "--length", "2", "--samples", "5"), 0),
    ], ids=["upresent", "heisenberg-extract", "compare"])
    def test_one_quotient_build(self, monkeypatch, args, by_g):
        builds = []
        init = QuotientCache.__init__

        def counted(self, *a, **kw):
            builds.append(self)
            init(self, *a, **kw)

        monkeypatch.setattr(QuotientCache, "__init__", counted)
        argv = [a if a.startswith("-") or a[0].isdigit() else fx(a) for a in args[1:]]
        code, _, _ = run_cli(args[0], *argv)
        assert code == 0
        assert len(builds) == 1 + by_g
        assert all(quotient.pres is builds[0].pres for quotient in builds[1:])


def count_calls(monkeypatch, targets):
    """Count the calls of each "module.function" or "module.Class.method"
    in targets, replacing every binding of a function in every ncpoint
    module, or the method on its class."""
    counts = dict.fromkeys(targets, 0)
    for target in targets:
        module_name, _, qualname = target.partition(".")
        owner_name, _, name = qualname.rpartition(".")
        module = importlib.import_module(f"ncpoint.{module_name}")
        owner = getattr(module, owner_name) if owner_name else None
        original = getattr(owner or module, name)

        def counted(*args, _target=target, _fn=original, **kwargs):
            counts[_target] += 1
            return _fn(*args, **kwargs)

        if owner is not None:
            monkeypatch.setattr(owner, name, counted)
            continue
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "ncpoint":
                for key, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, key, counted)
    return counts


class TestDecidedOnce:
    """Each command decides a normal-element fact once: normality, nu,
    and the full q'-Heisenberg check of the witness it reports.  A kernel
    basis is built only where it is read (`linalg._kernel`), and
    heisenberg-extract and compare walk the lower central series of L once.
    An epsilon sign is computed once per basis pair of L, and koszul lists
    the PBW monomials of each degree once and builds each wedge's part of
    the differential once.  The point walk derives each relation's window
    form and degree once, and a normal g's regularity is read off one
    quotient A/(g).  A walk over Q takes every extension fiber in
    integers, without the pivot-tracking kernel or a RowReducer."""

    @pytest.mark.parametrize("args,want", [
        (("qv-check", "downup_4_-4.alg", "--g", "x*y-2*y*x"),
         {"normal.nu_automorphism": 1, "normal._nu_solves": 1, "linalg.rref": 0,
          "linalg._kernel": 0, "veronese.qv_mul": 0}),
        # bold-g: each degree's words once, not once per quasi-Veronese entry
        (("qv-check", "downup_4_-4.alg", "--g", "x*y-2*y*x"),
         {"quotient.QuotientCache.normal_form": 106}),
        # a normal g: regularity read off A/(g), with no multiplication map ranked
        (("heisenberg", "d_2_1.alg", "--g", "x*x*y + 2*x*y*x + y*x*x"),
         {"normal.is_q_heisenberg": 1, "normal.multiplication_injective": 0}),
        (("heisenberg", "downup_4_-4.alg", "--g", "x*y-2*y*x"),
         {"normal.is_q_heisenberg": 1, "normal.multiplication_injective": 0}),
        (("weyl-witness", "downup_4_-4.alg", "--g", "x*y-2*y*x",
          "--x", "x", "--y", "y", "--u", "2"),
         {"normal._nu_solves": 1, "normal.nu_automorphism": 0, "linalg._kernel": 0}),
        # one grading check in the presentability test and one among the axioms;
        # the one kernel is that of U(L)'s cubic relations
        (("heisenberg-extract", "heisenberg_w2.cl"),
         {"colorlie._lower_central_layers": 1, "colorlie._grading_violations": 2,
          "linalg._kernel": 1}),
        (("compare", "heisenberg_w2.cl", fx("quantum_plane_2.alg"),
          "--length", "2", "--samples", "5"),
         {"colorlie._lower_central_layers": 1, "colorlie._grading_violations": 2}),
        # dim L = 3: 9 signs, and 3 + 3 + 1 wedges of degree 1, 2 and 3
        (("koszul", "heisenberg_w2.cl", "--max-degree", "10"),
         {"colorlie.Bicharacter.eval": 9, "colorlie._wedge_terms": 7}),
        # one PBW basis per internal degree 0..7
        (("koszul", "heisenberg3_skew.cl", "--max-degree", "7"),
         {"colorlie.pbw_monomials": 8}),
        # the window forms of the two relations, derived with the presentation,
        # deg g in the search, and g's window form, not one per node
        (("torsionfree", "downup_4_-4.alg", "--g", "x*y-2*y*x", "--length", "4",
          "--samples", "20"),
         {"freealg.NCPoly.degree": 4}),
        # every fiber of a walk over Q is eliminated in integers
        (("torsionfree", "downup_4_-4.alg", "--g", "x*y-2*y*x", "--length", "4",
          "--samples", "20", "--no-generic"),
         {"linalg.kernel_basis_tracking_pivots": 0, "linalg.RowReducer.insert": 0}),
    ], ids=["qv-check", "qv-check-bold-g", "heisenberg-d_2_1", "heisenberg-downup", "weyl-witness",
            "heisenberg-extract", "compare", "koszul", "koszul-pbw-bases", "torsionfree-forms",
            "torsionfree-q-fibers"])
    def test_call_counts(self, monkeypatch, args, want):
        counts = count_calls(monkeypatch, want)
        code, _, _ = run_cli(args[0], fx(args[1]), *args[2:])
        assert code == 0
        assert counts == want

    def test_generic_walk_keeps_the_q_t_kernel(self, monkeypatch):
        # the Q(t) fibers of the generic seed still take the pivot-tracking kernel
        counts = count_calls(monkeypatch, ["linalg.kernel_basis_tracking_pivots",
                                           "linalg.RowReducer.insert"])
        code, _, _ = run_cli("torsionfree", fx("downup_4_-4.alg"), "--g", "x*y-2*y*x",
                             "--length", "4", "--samples", "20", "--generic")
        assert code == 0
        assert all(counts.values()), counts


class TestRegularitySides:
    """The regularity clause apart from the normality clause, both ways:
    a normal g that is not regular, and a regular g that is not normal."""

    CASES = [
        ("x2.alg", "generators: x y\nrelation: x*x\nrelation: x*y - y*x\n",
         ("--g", "x*y", "--x", "x", "--y", "y", "--u", "1"),
         "command: ncpoint heisenberg x2.alg --g 'x*y' --x x --y y --u 1\n"
         "input x2.alg: sha256:f2e090cad1b51ab7790d7c0529607c4b9fcdf2d8a77592a51d80ae0ba36ca19a\n"
         "cap: 8\n"
         "check q'-heisenberg:\n"
         "  g nonzero mod ideal: ok\n"
         "  (i) g = x*y - u*y*x: FAILED\n"
         "  (ii) x*g = u*g*x: ok\n"
         "  (iii) g*y = u*y*g: ok\n"
         "  g normal: ok\n"
         "  g regular up to degree 6: FAILED\n"
         "  normality checked at degree: 3\n"
         "  multiplication by g injective up to source degree: 6\n"
         "check q'-heisenberg verdict: FAIL ((i) g = x*y - u*y*x, g regular up to degree 6)\n"
         "result: fail\n"),
        ("quantum_plane_2.alg", fixture_path("quantum_plane_2.alg").read_text(),
         ("--g", "x*x+y*y", "--x", "x", "--y", "x", "--u", "1"),
         "command: ncpoint heisenberg quantum_plane_2.alg --g 'x*x+y*y' --x x --y x --u 1\n"
         "input quantum_plane_2.alg: "
         "sha256:814aa0d5f1068207f219d3845145fb8d64545ab5798768556d966352ebdc0104\n"
         "cap: 8\n"
         "check q'-heisenberg:\n"
         "  g nonzero mod ideal: ok\n"
         "  (i) g = x*y - u*y*x: FAILED\n"
         "  (ii) x*g = u*g*x: FAILED\n"
         "  (iii) g*y = u*y*g: FAILED\n"
         "  g normal: FAILED\n"
         "  g regular up to degree 6: ok\n"
         "  normality checked at degree: 3\n"
         "  multiplication by g injective up to source degree: 6\n"
         "check q'-heisenberg verdict: FAIL ((i) g = x*y - u*y*x, (ii) x*g = u*g*x, "
         "(iii) g*y = u*y*g, g normal)\n"
         "result: fail\n"),
    ]

    @pytest.mark.parametrize("name,text,flags,want", CASES,
                             ids=["normal-not-regular", "regular-not-normal"])
    def test_report_bytes(self, tmp_path, monkeypatch, name, text, flags, want):
        (tmp_path / name).write_text(text)
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli("heisenberg", name, *flags)
        assert (code, out) == (1, want)


class TestDeterminism:
    @pytest.mark.parametrize("args", [
        ("hilbert", "downup_4_-4.alg", "--max-degree", "5"),
        ("torsionfree", "downup_4_-4.alg", "--g", "x*y-2*y*x",
         "--length", "3", "--samples", "5", "--seed", "3"),
        ("compare", "heisenberg_w2.cl", "quantum_plane_2.alg",
         "--length", "3", "--samples", "10", "--seed", "1"),
    ])
    def test_reports_byte_identical(self, args):
        argv = [args[0], fx(args[1])] + list(args[2:])
        if args[0] == "compare":
            argv = [args[0], fx(args[1]), fx(args[2])] + list(args[3:])
        code1, out1, _ = run_cli(*argv)
        code2, out2, _ = run_cli(*argv)
        assert code1 == code2
        assert out1 == out2

    def test_report_contains_digest_and_seed(self):
        _, out, _ = run_cli("torsionfree", fx("downup_4_-4.alg"),
                            "--g", "x*y-2*y*x", "--length", "3", "--seed", "7")
        assert "sha256:" in out
        assert "seed: 7" in out

    def test_timing_kept_out_of_stdout(self):
        _, out, err = run_cli("hilbert", fx("downup_4_-4.alg"), "--max-degree", "4")
        assert "elapsed" not in out
        assert "elapsed" in err


class TestSubcommands:
    def test_minrel(self):
        code, out, _ = run_cli("minrel", fx("downup_4_-4.alg"), "--max-degree", "6")
        assert code == 0 and "degree 3: 2" in out

    def test_power_ids(self):
        code, _, _ = run_cli("power-ids", fx("downup_4_-4.alg"),
                             "--g", "x*y-2*y*x", "--x", "x", "--y", "y",
                             "--u", "2", "--r-max", "5")
        assert code == 0

    def test_qv_check(self):
        code, out, _ = run_cli("qv-check", fx("downup_4_-4.alg"), "--g", "x*y-2*y*x")
        assert code == 0
        assert "twisting system law: pass" in out

    def test_qv_check_precondition_failure(self):
        code, out, _ = run_cli("qv-check", fx("free_2.alg"), "--g", "x")
        assert code == 1
        assert "bold-g normality precondition: FAIL (g is not normal;" in out

    def test_weyl_witness(self):
        code, out, _ = run_cli("weyl-witness", fx("downup_4_-4.alg"),
                               "--g", "x*y-2*y*x", "--x", "x", "--y", "y", "--u", "2")
        assert code == 0 and "verified" in out

    def test_point_extend(self):
        code, out, _ = run_cli("point-extend", fx("quantum_plane_2.alg"),
                               "--points", "1:1")
        assert code == 0
        assert "fiber projective dimension: 0" in out

    def test_point_extend_invalid_module(self):
        code, _, _ = run_cli("point-extend", fx("quantum_plane_2.alg"),
                             "--points", "1:1 1:1")
        assert code == 1

    @pytest.mark.parametrize("case", ["08", "35", "41", "57"])
    def test_point_extend_reads_the_points_it_prints(self, case):
        # each fiber basis point, as printed, extends the case's points to a module
        path, = (Path(__file__).resolve().parent / "golden").glob(f"{case}-*.txt")
        command, _, stdout = path.read_text().split("\n", 2)
        _, _, _, name, _, points = shlex.split(command)
        printed = [line.split(": ", 1)[1] for line in stdout.splitlines()
                   if line.startswith("fiber basis point: ")]
        assert printed
        for point in printed:
            code, out, _ = run_cli("point-extend", fx(name), "--points", f"{points} {point}")
            assert code == 0 and "check input is a truncated point module: pass" in out

    @pytest.mark.parametrize("points", ["(1:2", "1:2)", "(1:2))", "(1:1) (1:2"])
    def test_point_extend_unbalanced_parentheses(self, points):
        code, _, err = run_cli("point-extend", fx("quantum_plane_2.alg"), "--points", points)
        assert code == 2 and err.startswith("error: ")

    def test_torsionfree_found_and_empty(self):
        code, out, _ = run_cli("torsionfree", fx("downup_4_-4.alg"),
                               "--g", "x*y-2*y*x", "--length", "3")
        assert code == 0 and "found" in out
        code, out, _ = run_cli("torsionfree", fx("downup_4_-4.alg"),
                               "--g", "x*y-2*y*x", "--length", "4")
        assert code == 0 and "empty" in out

    def test_skew_variety_flag_and_file(self):
        code, out, _ = run_cli("skew-variety", "--omega", "1,2,2;1/2,1,2;1/2,1/2,1")
        assert code == 0
        assert out.count("maximal support") == 3
        code, out, _ = run_cli("skew-variety", fx("skew3.cl"))
        assert code == 0
        assert out.count("maximal support") == 3

    def test_compare_with_epsilon_symmetric_default(self):
        code, out, _ = run_cli("compare", fx("heisenberg_w2.cl"),
                               "--length", "3", "--samples", "10", "--seed", "0")
        assert code == 0
        assert "epsilon-symmetric" in out

    def test_stabilize(self):
        code, _, _ = run_cli("stabilize", fx("downup_4_-4.alg"),
                             "--from", "3", "--to", "5", "--samples", "10",
                             "--seed", "0")
        assert code == 0

    def test_upresent(self):
        code, out, _ = run_cli("upresent", fx("heisenberg_w2.cl"),
                               "--max-degree", "5")
        assert code == 0
        assert "x*x*y - 4*x*y*x + 4*y*x*x" in out

    def test_nl(self):
        code, out, _ = run_cli("nl", fx("heisenberg_w2.cl"))
        assert code == 0 and "n_L: 2" in out

    def test_koszul_pass_and_fail(self):
        code, _, _ = run_cli("koszul", fx("heisenberg_w2.cl"), "--max-degree", "5")
        assert code == 0
        code, out, _ = run_cli("koszul", fx("bad_antisym.cl"), "--max-degree", "4")
        assert code == 1
        assert "FAILED" in out

    def test_heisenberg_extract(self):
        code, out, _ = run_cli("heisenberg-extract", fx("heisenberg_w2.cl"))
        assert code == 0
        assert "x*y - 2*y*x" in out

    def test_heisenberg_extract_cap_bounds_the_check(self):
        code, out, _ = run_cli("heisenberg-extract", fx("heisenberg_w2.cl"), "--cap", "7")
        assert code == 0
        assert "g regular up to degree 5: ok" in out

    def test_heisenberg_extract_s_epsilon(self):
        code, out, _ = run_cli("heisenberg-extract", fx("abelian_2.cl"))
        assert code == 0
        assert "S_epsilon" in out

    def test_heisenberg_search_mode(self):
        code, out, _ = run_cli("heisenberg", fx("d_2_1.alg"),
                               "--g", "x*x*y + 2*x*y*x + y*x*x")
        assert code == 0
        assert "found u: -1" in out
