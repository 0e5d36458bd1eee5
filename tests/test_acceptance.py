"""Acceptance suite: one test per criterion, exact arithmetic throughout
(zero numerical tolerance), with the stated wall-clock budgets.

Each test prints a single PASS line on success (visible under pytest -s);
a failed assertion marks the criterion FAILED via pytest itself.
"""

import io
import itertools
import time
from contextlib import redirect_stderr, redirect_stdout
from random import Random

from ncpoint.cli import main
from ncpoint.colorlie import (
    koszul_complex,
    koszul_verify,
    n_invariant,
    skew_point_variety,
    u_presentation,
)
from ncpoint.freealg import parse_poly
from ncpoint.points import sample_modules, stabilization_check
from ncpoint.quotient import hilbert, minimal_relation_degrees
from ncpoint.scalars import Rational

from conftest import fixture_path, load_algebra, load_colorlie
from walk_reference import g_action_scalars

F = Rational


def run_cli(*args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(a) for a in args])
    return code, out.getvalue()


def announce(num, text):
    print(f"ACCEPTANCE {num:02d} PASS: {text}")


def test_criterion_01_q_heisenberg_examples():
    start = time.monotonic()
    code, _ = run_cli("heisenberg", fixture_path("downup_2_-1.alg"),
                      "--g", "x*y - y*x", "--x", "x", "--y", "y", "--u", "1",
                      "--cap", "8")
    t1 = time.monotonic() - start
    assert code == 0
    assert t1 < 10.0

    start = time.monotonic()
    code, _ = run_cli("heisenberg", fixture_path("d_2_1.alg"),
                      "--g", "x*x*y + 2*x*y*x + y*x*x",
                      "--x", "x", "--y", "x*y + y*x", "--u", "-1", "--cap", "8")
    t2 = time.monotonic() - start
    assert code == 0
    assert t2 < 10.0

    start = time.monotonic()
    code, _ = run_cli("heisenberg", fixture_path("commutative_plane.alg"),
                      "--g", "x*y - y*x", "--x", "x", "--y", "y", "--u", "1",
                      "--cap", "8")
    t3 = time.monotonic() - start
    assert code == 1
    assert t3 < 10.0
    announce(1, f"q'-Heisenberg examples verified, commutative plane rejected "
                f"({t1:.1f}s / {t2:.1f}s / {t3:.1f}s)")


def test_criterion_02_torsionfree_nonexistence():
    start = time.monotonic()
    code, out = run_cli("torsionfree", fixture_path("downup_4_-4.alg"),
                        "--g", "x*y-2*y*x", "--length", "4",
                        "--samples", "1000", "--generic", "--seed", "0")
    assert code == 0
    assert "result: empty" in out
    assert "seeds (coordinate): 2" in out
    assert "seeds (random): 1000" in out
    assert "seeds (generic): 1" in out

    code, out = run_cli("torsionfree", fixture_path("downup_4_-4.alg"),
                        "--g", "x*y-2*y*x", "--length", "3", "--seed", "0")
    assert code == 0
    assert "found module" in out
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    announce(2, f"no torsionfree module at length 4, one found at length 3 "
                f"({elapsed:.1f}s)")


def test_criterion_03_correspondence():
    start = time.monotonic()
    code, out = run_cli("compare", fixture_path("heisenberg_w2.cl"),
                        fixture_path("quantum_plane_2.alg"),
                        "--length", "4", "--samples", "500", "--seed", "0")
    assert code == 0
    assert "left modules sampled: 500" in out
    assert "right modules sampled: 500" in out
    assert "left-only (fail on the right): 0" in out
    assert "right-only (fail on the left): 0" in out

    code, out = run_cli("compare", fixture_path("heisenberg_w2.cl"),
                        fixture_path("quantum_plane_2.alg"),
                        "--length", "2", "--samples", "500", "--seed", "0")
    assert code == 0
    left_only = int(out.split("left-only (fail on the right): ")[1].split()[0])
    assert left_only > 0
    assert "right-only (fail on the left): 0" in out
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    announce(3, f"length-4 point sets agree both ways (500 samples); length 2 "
                f"has {left_only} enveloping-only modules ({elapsed:.1f}s)")


def test_criterion_04_skew_point_variety():
    def brute_force(omega):
        k = len(omega)
        good = [frozenset(s)
                for size in range(k + 1)
                for s in itertools.combinations(range(k), size)
                if all(omega[i][j] * omega[j][l] == omega[i][l]
                       for i, j, l in itertools.combinations(s, 3))]
        return {s for s in good if not any(s < o for o in good)}

    rng = Random(12345)
    pool = [F(1), F(2), F(1, 2), F(3), F(1, 3), F(-1), F(4)]
    for trial in range(50):
        k = rng.randint(3, 5)  # m = k - 1 <= 4
        om = [[F(1)] * k for _ in range(k)]
        for i in range(k):
            for j in range(i + 1, k):
                v = rng.choice(pool)
                om[i][j] = v
                om[j][i] = 1 / v
        assert set(skew_point_variety(om)) == brute_force(om), f"trial {trial}"
    all2 = [[F(1), F(2), F(2)], [F(1, 2), F(1), F(2)], [F(1, 2), F(1, 2), F(1)]]
    assert set(skew_point_variety(all2)) == {
        frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2})}
    announce(4, "skew point variety matches brute force on 50 random "
                "bicharacters and the three-coordinate-lines example")


def test_criterion_05_koszul_resolution():
    start = time.monotonic()
    for name in ("heisenberg_w1.cl", "heisenberg_w2.cl", "abelian_2.cl"):
        L = load_colorlie(name)
        rep = koszul_verify(koszul_complex(L, L.dim, 6))
        assert rep.ok_d_squared, (name, rep.failures)
        assert rep.ok_exact, (name, rep.failures)
    Lbad = load_colorlie("bad_antisym.cl")
    rep_bad = koszul_verify(koszul_complex(Lbad, Lbad.dim, 4))
    assert not rep_bad.ok_d_squared
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    announce(5, f"Koszul d^2 = 0 and zero homology in degrees 1..6 for three "
                f"fixtures; corrupted fixture fails d^2 = 0 ({elapsed:.1f}s)")


def test_criterion_06_weyl_witness():
    code, out = run_cli("weyl-witness", fixture_path("downup_2_-1.alg"),
                        "--g", "x*y - y*x", "--x", "x", "--y", "y", "--u", "1")
    assert code == 0 and "verified" in out
    code, out = run_cli("weyl-witness", fixture_path("d_2_1.alg"),
                        "--g", "x*x*y + 2*x*y*x + y*x*x",
                        "--x", "x", "--y", "x*y + y*x", "--u", "-1")
    assert code == 0 and "verified" in out
    announce(6, "homogeneous Weyl identity verified entrywise for both examples")


def test_criterion_07_relation_degree_bound():
    L = load_colorlie("heisenberg_w2.cl")
    n = n_invariant(L)
    pres = u_presentation(L, 6).pres
    counts = minimal_relation_degrees(pres, 6)
    assert counts == {3: 2}
    assert all(counts.get(d, 0) == 0 for d in (4, 5, 6))
    assert 3 == 2 * n - 1
    announce(7, "minimal relations of the enveloping algebra sit in degree "
                "3 = 2 n_L - 1 only")


def test_criterion_08_stabilization_evidence():
    pres = load_algebra("downup_4_-4.alg")
    rep = stabilization_check(pres, 3, 6, 100, Random(0))
    assert rep.ok
    for d in (3, 4, 5):
        row = rep.per_length[d]
        assert row["samples"] == 100
        assert row["singleton"] == 100
        assert row["positive_dim"] == 0
        assert row["shift_failures"] == 0
    announce(8, "extension fibers are singletons and shifted sequences stay "
                "valid on 100 samples per length")


def test_criterion_09_hilbert_pbw_consistency():
    for name in ("heisenberg_w1.cl", "heisenberg_w2.cl", "heisenberg_w13.cl"):
        L = load_colorlie(name)
        pres = u_presentation(L, 5).pres
        assert hilbert(pres, 5) == [1, 2, 4, 6, 9, 12], name
    announce(9, "rank-computed dimensions equal the PBW count 1,2,4,6,9,12 "
                "for all three commutation parameters")


def test_criterion_10_all_or_nothing():
    rng = Random(99)
    total = 0
    for alg_name, gtxt in (("downup_4_-4.alg", "x*y - 2*y*x"),
                           ("downup_2_-1.alg", "x*y - y*x")):
        pres = load_algebra(alg_name)
        g = parse_poly(gtxt, pres.names)
        for length in (2, 3, 4, 5):
            for pts in sample_modules(pres, length, 70, rng):
                lams = g_action_scalars(pres, g, pts)
                zero = [not lam for lam in lams]
                assert all(zero) or not any(zero), \
                    f"mixed torsion pattern on {pts}: {lams}"
                total += 1
    assert total >= 500
    announce(10, f"all-or-nothing action verified on {total} sampled modules, "
                 f"no mixed pattern")
