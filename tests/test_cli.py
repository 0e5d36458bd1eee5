import importlib
import io
import os
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

    @pytest.mark.parametrize("text,cap", [(None, "2"), (THREE_STEP_CL, "3")],
                             ids=["heisenberg_w2", "three-step"])
    def test_compare_cap_below_relation_degrees_is_exit_2(self, tmp_path, text, cap):
        # U(L) has relations up to degree n_L + 1; a lower cap would
        # sample the modules of an algebra with relations missing
        path = fx("heisenberg_w2.cl")
        if text is not None:
            path = tmp_path / "three_step.cl"
            path.write_text(text)
        code, out, err = run_cli("compare", str(path), fx("quantum_plane_2.alg"),
                                 "--length", "4", "--samples", "20", "--max-degree", cap)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

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

    def test_ragged_omega_flag(self):
        code, out, err = run_cli("skew-variety", "--omega", "1,1,1;1,1,1;1")
        assert (code, out, err) == (2, "", "error: omega must be square\n")

    @pytest.mark.parametrize("command", ["color-check", "skew-variety", "upresent"])
    def test_ragged_omega_file(self, tmp_path, command):
        path = tmp_path / "ragged.cl"
        path.write_text("rank: 2\nbasis: x:(1,0)\nbasis: y:(0,1)\nomega: 1 2\nomega:\n")
        code, out, err = run_cli(command, str(path))
        assert (code, out, err) == (2, "", "error: omega must be square\n")


class TestNonGradedBracket:
    """A bracket that breaks the grading is a usage error for every
    command that builds degree by degree, since those walks need the
    grading to end.  Each command runs in its own interpreter under a
    timeout, so a walk that never ends fails the test instead of hanging."""

    @pytest.mark.parametrize("command", ["nl", "heisenberg-extract", "upresent", "koszul"])
    def test_rejected_with_exit_2(self, command, tmp_path):
        path = tmp_path / "non_graded.cl"
        path.write_text(NON_GRADED_CL)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-m", "ncpoint.cli", command, str(path)],
                              capture_output=True, text=True, timeout=20, env=env)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == ("error: bracket breaks the grading: [x,y] hits x "
                               "of degree (1, 0), expected (1, 1)\n")

    def test_color_check_lists_grading_violation(self, tmp_path):
        path = tmp_path / "non_graded.cl"
        path.write_text(NON_GRADED_CL)
        code, out, _ = run_cli("color-check", str(path))
        assert code == 1
        assert "violation: grading: [x,y] hits x of degree (1, 0), expected (1, 1)" in out


class TestSingleBuild:
    """Each command builds the quotient of its algebra once: U(L) grows
    one degree at a time in the cache that the caller then reads."""

    @pytest.mark.parametrize("args", [
        ("upresent", "heisenberg3_skew.cl", "--max-degree", "6"),
        ("heisenberg-extract", "heisenberg3_skew.cl"),
        ("compare", "heisenberg_w2.cl", "quantum_plane_2.alg",
         "--length", "2", "--samples", "5"),
    ], ids=lambda a: a[0])
    def test_one_quotient_build(self, monkeypatch, args):
        builds = []
        init = QuotientCache.__init__

        def counted(self, *a, **kw):
            builds.append(a)
            init(self, *a, **kw)

        monkeypatch.setattr(QuotientCache, "__init__", counted)
        argv = [a if a.startswith("-") or a[0].isdigit() else fx(a) for a in args[1:]]
        code, _, _ = run_cli(args[0], *argv)
        assert code == 0
        assert len(builds) == 1


def count_calls(monkeypatch, targets):
    """Count the calls of each "module.function" in targets, replacing
    every binding of the function in every ncpoint module."""
    counts = dict.fromkeys(targets, 0)
    for target in targets:
        module_name, name = target.split(".")
        original = getattr(importlib.import_module(f"ncpoint.{module_name}"), name)

        def counted(*args, _target=target, _fn=original, **kwargs):
            counts[_target] += 1
            return _fn(*args, **kwargs)

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
    heisenberg-extract and compare walk the lower central series of L once."""

    @pytest.mark.parametrize("args,want", [
        (("qv-check", "downup_4_-4.alg", "--g", "x*y-2*y*x"),
         {"normal.nu_automorphism": 1, "normal.is_normal": 0, "linalg.rref": 0,
          "linalg._kernel": 0}),
        (("heisenberg", "d_2_1.alg", "--g", "x*x*y + 2*x*y*x + y*x*x"),
         {"normal.is_q_heisenberg": 1, "normal.multiplication_injective": 12}),
        (("heisenberg", "downup_4_-4.alg", "--g", "x*y-2*y*x"),
         {"normal.is_q_heisenberg": 1, "normal.multiplication_injective": 14}),
        (("weyl-witness", "downup_4_-4.alg", "--g", "x*y-2*y*x",
          "--x", "x", "--y", "y", "--u", "2"),
         {"normal.is_normal": 1, "linalg._kernel": 0}),
        # one grading check in the presentability test and one among the axioms;
        # the one kernel is that of U(L)'s cubic relations
        (("heisenberg-extract", "heisenberg_w2.cl"),
         {"colorlie._lower_central_layers": 1, "colorlie._grading_violations": 2,
          "linalg._kernel": 1}),
        (("compare", "heisenberg_w2.cl", fx("quantum_plane_2.alg"),
          "--length", "2", "--samples", "5"),
         {"colorlie._lower_central_layers": 1, "colorlie._grading_violations": 2}),
    ], ids=["qv-check", "heisenberg-d_2_1", "heisenberg-downup", "weyl-witness",
            "heisenberg-extract", "compare"])
    def test_call_counts(self, monkeypatch, args, want):
        counts = count_calls(monkeypatch, want)
        code, _, _ = run_cli(args[0], fx(args[1]), *args[2:])
        assert code == 0
        assert counts == want


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
