import itertools
import re
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from ncpoint import colorlie
from ncpoint.colorlie import (
    Bicharacter,
    ColorLieAlgebra,
    check_color_axioms,
    epsilon_symmetric,
    heisenberg_from_color,
    koszul_complex,
    koszul_verify,
    n_invariant,
    parse_colorlie,
    pbw_dim,
    pbw_monomials,
    pbw_normal_form,
    presentable_layers,
    u_presentation,
)
from ncpoint.freealg import NCPoly, parse_poly, poly_to_str
from ncpoint.linalg import RowReducer, axpy, row, solve_affine, values
from ncpoint.normal import is_q_heisenberg
from ncpoint.quotient import QuotientCache, hilbert
from ncpoint.scalars import Rational, parse_scalar, sc_inv, scalar_to_str
from ncpoint.veronese import weyl_witness

from conftest import FIXTURES, THREE_STEP_CL, fixture_path, load_colorlie, rationals
from koszul_reference import reference_matrices
from span_quotient import span_equal
from upresent_reference import reference_u_presentation

F = Rational


def brute_epsilon(omega, alpha, beta):
    """Direct product over all matrix positions, no shortcuts."""
    out = F(1)
    for i in range(len(omega)):
        for j in range(len(omega)):
            e = alpha[i] * beta[j]
            if e >= 0:
                for _ in range(e):
                    out *= omega[i][j]
            else:
                for _ in range(-e):
                    out /= omega[i][j]
    return out


class TestBicharacter:
    def test_skew_symmetry_enforced(self):
        with pytest.raises(ValueError):
            Bicharacter([[F(1), F(2)], [F(2), F(1)]])

    def test_eval_matches_brute_force(self):
        rng = Random(0)
        om = [[F(1), F(2)], [F(1, 2), F(1)]]
        b = Bicharacter(om)
        for _ in range(200):
            alpha = tuple(rng.randint(-3, 3) for _ in range(2))
            beta = tuple(rng.randint(-3, 3) for _ in range(2))
            assert b.eval(alpha, beta) == brute_epsilon(om, alpha, beta)

    def test_additivity_laws(self):
        rng = Random(1)
        om = [[F(1), F(3)], [F(1, 3), F(1)]]
        b = Bicharacter(om)
        for _ in range(200):
            a, be, c = (tuple(rng.randint(-2, 2) for _ in range(2))
                        for _ in range(3))
            ab = tuple(x + y for x, y in zip(a, be))
            bc = tuple(x + y for x, y in zip(be, c))
            assert b.eval(ab, c) == b.eval(a, c) * b.eval(be, c)
            assert b.eval(a, bc) == b.eval(a, be) * b.eval(a, c)
            assert b.eval(a, be) * b.eval(be, a) == 1


class TestEpsilonTable:
    @pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.cl")))
    def test_matches_eval(self, name):
        L = load_colorlie(name)
        assert [[L.epsilon[i][j] for j in range(L.dim)] for i in range(L.dim)] == \
            [[L.eps.eval(L.degrees[i], L.degrees[j]) for j in range(L.dim)]
             for i in range(L.dim)]

    @settings(max_examples=100, deadline=None)
    # a basis degree needs a positive total; its entries may be negative
    @given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(lambda d: sum(d) > 0),
                    min_size=1, max_size=4),
           rationals(min_value=-5, max_value=5, max_denominator=5).filter(bool))
    def test_matches_eval_on_random_degrees(self, degrees, q):
        L = ColorLieAlgebra([f"b{i}" for i in range(len(degrees))], degrees,
                            Bicharacter([[F(1), q], [1 / q, F(1)]]), {})
        for i, a in enumerate(degrees):
            for j, b in enumerate(degrees):
                assert L.epsilon[i][j] == L.eps.eval(a, b) == brute_epsilon(L.eps.omega, a, b)

    def test_huge_power_refused_naming_the_pair(self):
        eps = Bicharacter([[F(1), F(2)], [F(1, 2), F(1)]])
        with pytest.raises(ValueError, match=re.escape("eps(|u|, |v|) is too large")):
            ColorLieAlgebra(["u", "v"], [(10 ** 8, 0), (0, 10 ** 8)], eps, {})
        # a power of omega_ii = 1 stays 1, so a huge degree alone is fine
        L = ColorLieAlgebra(["u"], [(10 ** 8, 0)], eps, {})
        assert L.epsilon == ((F(1),),)


class TestAxioms:
    @pytest.mark.parametrize("name", [
        "heisenberg_w1.cl", "heisenberg_w2.cl", "heisenberg_w13.cl",
        "abelian_2.cl", "skew3.cl", "heisenberg3_skew.cl",
    ])
    def test_good_fixtures(self, name):
        ok, violations = check_color_axioms(load_colorlie(name))
        assert ok, violations

    def test_bad_jacobi(self):
        ok, violations = check_color_axioms(load_colorlie("bad_jacobi.cl"))
        assert not ok
        assert any("jacobi" in v for v in violations)

    def test_bad_antisym(self):
        ok, violations = check_color_axioms(load_colorlie("bad_antisym.cl"))
        assert not ok
        assert any("antisymmetry" in v for v in violations)
        assert any("x" in v and "y" in v for v in violations)


class TestPBW:
    def test_heisenberg_yx(self):
        L = load_colorlie("heisenberg_w2.cl")
        # yx = (1/2) xy - (1/2) z
        assert values(pbw_normal_form(L, (1, 0))) == {(0, 1): F(1, 2), (2,): F(-1, 2)}

    def test_sorted_word_fixed(self):
        L = load_colorlie("heisenberg_w2.cl")
        assert values(pbw_normal_form(L, (0, 1, 2))) == {(0, 1, 2): F(1)}

    def test_zx_skew_commutes(self):
        L = load_colorlie("heisenberg_w2.cl")
        # eps(|z|, |x|) = omega_00 * omega_10 = 1/2 and [z, x] = 0
        assert L.eps.eval((1, 1), (1, 0)) == F(1, 2)
        assert values(pbw_normal_form(L, (2, 0))) == {(0, 2): F(1, 2)}

    def test_confluence_between_strategies(self):
        # pbw_normal_form rewrites the leftmost inversion first; rewriting
        # the rightmost one first must reach the same normal form
        def rightmost(L, word):
            for k in range(len(word) - 2, -1, -1):
                i, j = word[k], word[k + 1]
                if L.rank_of[i] > L.rank_of[j]:
                    out = {}
                    e = L.eps.eval(L.degrees[i], L.degrees[j])
                    terms = [(word[:k] + (j, i) + word[k + 2:], e)]
                    terms += [(word[:k] + (b,) + word[k + 2:], c)
                              for b, c in L.bracket(i, j).items()]
                    for w, c in terms:
                        for mono, d in rightmost(L, w).items():
                            out[mono] = out.get(mono, 0) + c * d
                    return {mono: c for mono, c in out.items() if c}
            return {word: F(1)}

        rng = Random(2)
        for name in ("heisenberg_w2.cl", "heisenberg_w13.cl"):
            L = load_colorlie(name)
            for _ in range(100):
                word = tuple(rng.randrange(L.dim)
                             for _ in range(rng.randint(1, 5)))
                assert values(pbw_normal_form(L, word)) == rightmost(L, word)

    def test_long_word_needs_no_recursion(self):
        # z^35 x^35: 35 * 35 swaps of z x = (1/2) x z, and [x, z] = 0
        L = load_colorlie("heisenberg_w2.cl")
        assert values(pbw_normal_form(L, (2,) * 35 + (0,) * 35)) == \
            {(0,) * 35 + (2,) * 35: F(1, 2) ** 1225}

    def test_monomial_count_heisenberg(self):
        L = load_colorlie("heisenberg_w2.cl")
        # same count as the down-up oracle: #{(i,j,k): i + 2j + k = d}
        assert [pbw_dim(L, d) for d in range(6)] == [1, 2, 4, 6, 9, 12]

    def test_monomials_are_sorted(self):
        L = load_colorlie("heisenberg_w2.cl")
        for mono in pbw_monomials(L, 4):
            ranks = [L.rank_of[i] for i in mono]
            assert ranks == sorted(ranks)


class TestUPresentation:
    @pytest.mark.parametrize("name,omega", [
        ("heisenberg_w1.cl", F(1)),
        ("heisenberg_w2.cl", F(2)),
        ("heisenberg_w13.cl", F(1, 3)),
    ])
    def test_matches_downup_family(self, name, omega):
        # U(L) for the Heisenberg family is the down-up algebra
        # A(2w, -w^2): mutual ideal membership of the relation sets
        from ncpoint.freealg import Presentation
        L = load_colorlie(name)
        pres = u_presentation(L, 5).pres
        assert len(pres.relations) == 2
        assert all(f.degree() == 3 for f in pres.relations)
        a, b = 2 * omega, -omega * omega
        handwritten = Presentation(
            pres.names,
            [parse_poly(f"x*x*y - {a}*x*y*x - ({b})*y*x*x", pres.names),
             parse_poly(f"x*y*y - {a}*y*x*y - ({b})*y*y*x", pres.names)])
        cache_u = QuotientCache(pres, 4)
        cache_h = QuotientCache(handwritten, 4)
        for f in handwritten.relations:
            assert cache_u.is_zero_mod_ideal(f)
        for f in pres.relations:
            assert cache_h.is_zero_mod_ideal(f)

    def test_pbw_dimension_consistency(self):
        for name in ("heisenberg_w1.cl", "heisenberg_w2.cl", "heisenberg_w13.cl"):
            L = load_colorlie(name)
            pres = u_presentation(L, 5).pres
            assert hilbert(pres, 5) == [1, 2, 4, 6, 9, 12]

    def test_abelian_trivial_bicharacter(self):
        L = load_colorlie("abelian_2.cl")
        pres = u_presentation(L, 4).pres
        assert [poly_to_str(f, pres.names) for f in pres.relations] == \
            ["x*y - y*x"]

    def test_abelian_skew(self):
        text = ("rank: 2\nbasis: x:(1,0)\nbasis: y:(0,1)\n"
                "omega: 1 5\nomega: 1/5 1\n")
        L = parse_colorlie(text)
        pres = u_presentation(L, 4).pres
        assert [poly_to_str(f, pres.names) for f in pres.relations] == \
            ["x*y - 5*y*x"]

    def test_minimal_relation_degree_bound(self):
        # relations live in degrees <= 2 n_L - 1
        from ncpoint.quotient import minimal_relation_degrees
        for name in ("heisenberg_w1.cl", "heisenberg_w2.cl", "heisenberg_w13.cl"):
            L = load_colorlie(name)
            n = n_invariant(L)
            pres = u_presentation(L, 6).pres
            counts = minimal_relation_degrees(pres, 6)
            assert counts == {3: 2}
            assert max(counts) <= 2 * n - 1


def seeded_colorlie_text(rng: Random) -> str:
    """A random Heisenberg-type color Lie algebra: a Heisenberg algebra,
    three skew generators with one central bracket, or a three-step
    algebra, with random commutation scalars and basis lines in random
    order."""
    q = lambda: rng.choice([F(1), F(-1), F(2), F(-2), F(3), F(1, 2), F(-1, 3), F(5, 2)])
    kind = rng.choice(["heisenberg", "skew3", "three-step"])
    if kind == "skew3":
        rank, gens = 3, ["x", "y", "z"]
        a, b = sorted(rng.sample(range(3), 2))
        deg = [1 if c in (a, b) else 0 for c in range(3)]
        extra = [f"w:({','.join(map(str, deg))})"]
        brackets = [f"[{gens[a]},{gens[b]}] = w"]
    else:
        rank, gens = 2, ["x", "y"]
        extra = ["z:(1,1)"]
        brackets = ["[x,y] = z"]
        if kind == "three-step":
            extra += ["w:(2,1)", "v:(1,2)"]
            brackets += ["[x,z] = w", "[y,z] = v"]
    units = [f"{g}:({','.join('1' if c == i else '0' for c in range(rank))})"
             for i, g in enumerate(gens)]
    basis = units + extra
    rng.shuffle(basis)
    omega = [[F(1)] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i + 1, rank):
            omega[i][j] = q()
            omega[j][i] = 1 / omega[i][j]
    lines = [f"rank: {rank}"] + [f"basis: {b}" for b in basis]
    lines += ["omega: " + " ".join(str(v) for v in row) for row in omega]
    lines += [f"bracket: {b}" for b in brackets]
    return "\n".join(lines) + "\n"


class TestUPresentationReference:
    """The relations read off the standard words equal those of the
    all-words elimination with a picker (tests/upresent_reference.py)."""

    @pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.cl")))
    def test_fixtures(self, name):
        L = load_colorlie(name)
        ok, violations = check_color_axioms(L)
        if not ok:
            # U(L) is built only for a bracket table that passes the axioms
            with pytest.raises(ValueError, match=re.escape(violations[0])):
                u_presentation(L, 6)
            return
        try:
            want = [f.terms for f in reference_u_presentation(L, 6).relations]
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                u_presentation(L, 6)
            return
        assert [f.terms for f in u_presentation(L, 6).pres.relations] == want

    def test_seeded_heisenberg_type(self):
        rng = Random(41)
        kinds = set()
        for _ in range(24):
            text = seeded_colorlie_text(rng)
            L = parse_colorlie(text)
            assert check_color_axioms(L)[0], text
            kinds.add(L.dim)
            cap = 5 if len(L.theta_indices()) == 3 else 6
            got = [f.terms for f in u_presentation(L, cap).pres.relations]
            assert got == [f.terms for f in reference_u_presentation(L, cap).relations], text
        assert kinds == {3, 4, 5}


class TestNInvariant:
    def test_abelian(self):
        assert n_invariant(load_colorlie("abelian_2.cl")) == 1

    def test_heisenberg(self):
        assert n_invariant(load_colorlie("heisenberg_w2.cl")) == 2

    def test_dim_two_always_one(self):
        text = ("rank: 2\nbasis: x:(1,0)\nbasis: y:(0,1)\n"
                "omega: 1 7\nomega: 1/7 1\n")
        assert n_invariant(parse_colorlie(text)) == 1


class TestEpsilonSymmetric:
    def test_heisenberg_gives_quantum_plane(self):
        L = load_colorlie("heisenberg_w2.cl")
        pres = epsilon_symmetric(L)
        assert [poly_to_str(f, pres.names) for f in pres.relations] == \
            ["x*y - 2*y*x"]

    def test_three_generators_commutative(self):
        text = ("rank: 3\nbasis: a:(1,0,0)\nbasis: b:(0,1,0)\nbasis: c:(0,0,1)\n"
                "omega: 1 1 1\nomega: 1 1 1\nomega: 1 1 1\n")
        pres = epsilon_symmetric(parse_colorlie(text))
        assert len(pres.relations) == 3
        for f in pres.relations:
            assert sorted(f.terms.values()) == [F(-1), F(1)]

    def test_skew3_family(self):
        pres = epsilon_symmetric(load_colorlie("skew3.cl"))
        assert len(pres.relations) == 3
        for f in pres.relations:
            assert F(-2) in f.terms.values()


class TestHeisenbergExtraction:
    def test_heisenberg_w2(self):
        L = load_colorlie("heisenberg_w2.cl")
        res = heisenberg_from_color(L)
        assert res.kind == "witness"
        w = res.witness
        assert w.u == 2
        names = res.cache.pres.names
        assert poly_to_str(w.g, names) == "x*y - 2*y*x"
        assert poly_to_str(w.x, names) == "x"
        assert poly_to_str(w.y, names) == "y"

    def test_classical_heisenberg(self):
        res = heisenberg_from_color(load_colorlie("heisenberg_w1.cl"))
        assert res.witness.u == 1

    def test_abelian_reports_s_epsilon(self):
        res = heisenberg_from_color(load_colorlie("abelian_2.cl"))
        assert res.kind == "s-epsilon" and res.witness is None

    def test_three_step_algebra(self):
        # L_1^3 != 0, so y comes from the second layer L_1^2 = span(z)
        text = ("rank: 2\nbasis: x:(1,0)\nbasis: y:(0,1)\nbasis: z:(1,1)\n"
                "basis: w:(2,1)\nbasis: v:(1,2)\nomega: 1 2\nomega: 1/2 1\n"
                "bracket: [x,y] = z\nbracket: [x,z] = w\nbracket: [y,z] = v\n")
        L = parse_colorlie(text)
        assert check_color_axioms(L)[0]
        res = heisenberg_from_color(L)
        assert res.n_value == n_invariant(L) == 3
        assert res.chosen == "g = [x, 1*z], u = 2"
        cache = QuotientCache(res.cache.pres, 3 * res.n_value - 1)
        assert is_q_heisenberg(cache, res.witness).ok

    @pytest.mark.parametrize("name", [
        "heisenberg_w2.cl", "heisenberg_w13.cl", "heisenberg3_skew.cl", "skew3.cl"])
    def test_span_elements_are_homogeneous_and_span(self, name):
        # oracle: the returned elements lie in one multidegree each, come
        # sorted by it, and are a basis of the span of the input vectors
        L = load_colorlie(name)
        degree = lambda v: L.degrees[min(v)]

        def combination(u, v):  # u + 2 v
            out = dict(u)
            axpy(out, 2, v)
            return out

        for layer in colorlie._lower_central_layers(L):
            vectors = layer + [combination(u, v)  # dependent ones
                               for u in layer for v in layer if degree(u) == degree(v)]
            elems = colorlie._homogeneous_span_elements(L, vectors)
            assert [g for g, _ in elems] == sorted(g for g, _ in elems)
            for gamma, vec in elems:
                assert vec and all(L.degrees[k] == gamma for k in vec)
            assert span_equal(vectors, [v for _, v in elems])
            span = RowReducer()
            for v in vectors:
                span.insert(row(v))
            assert len(elems) == span.rank

    @pytest.mark.parametrize("name", [
        "heisenberg_w1.cl", "heisenberg_w2.cl", "heisenberg_w13.cl"])
    def test_extracted_witness_passes_downstream_checks(self, name):
        res = heisenberg_from_color(load_colorlie(name))
        cache = QuotientCache(res.cache.pres, 3 * res.n_value - 1)
        assert is_q_heisenberg(cache, res.witness).ok
        assert weyl_witness(cache, res.witness).ok


# three generators with n_L = 3, where U(L) has degree-two relations
# x*s - 3*s*x and y*s - 5*s*y
GEN3_STEP3_CL = """\
rank: 3
basis: x:(1,0,0)
basis: y:(0,1,0)
basis: s:(0,0,1)
basis: z:(1,1,0)
basis: w:(2,1,0)
basis: v:(1,2,0)
omega: 1 2 3
omega: 1/2 1 5
omega: 1/3 1/5 1
bracket: [x,y] = z
bracket: [x,z] = w
bracket: [y,z] = v
"""


def all_words_y(L, vec, degree):
    """Reference for the extracted y: the solve over all k^degree free
    words in the thetas, which vanishes off the pivot columns."""
    thetas = L.theta_indices()
    words = list(itertools.product(range(len(thetas)), repeat=degree))
    images = [values(pbw_normal_form(L, tuple(thetas[i] for i in w))) for w in words]
    sol = solve_affine(images, {(k,): c for k, c in vec.items()})
    return NCPoly({w: c for w, c in zip(words, sol) if c})


class TestExtractionReference:
    """y is solved on the standard words of U(L); the all-words solve
    gives the same polynomial."""

    @pytest.mark.parametrize("text", [
        *(fixture_path(p.name).read_text() for p in sorted(FIXTURES.glob("*.cl"))),
        THREE_STEP_CL, GEN3_STEP3_CL,
    ], ids=[*sorted(p.stem for p in FIXTURES.glob("*.cl")), "three-step", "gen3-step3"])
    def test_y_matches_all_words_solve(self, monkeypatch, text):
        L = parse_colorlie(text)
        solved = []
        real = colorlie._express_in_thetas

        def spy(L, cache, vec, degree):
            y = real(L, cache, vec, degree)
            solved.append((vec, degree, y))
            return y

        monkeypatch.setattr(colorlie, "_express_in_thetas", spy)
        if not check_color_axioms(L)[0]:
            with pytest.raises(ValueError):
                heisenberg_from_color(L)
            return
        res = heisenberg_from_color(L)
        if res.kind == "s-epsilon":
            assert solved == []
            return
        [(vec, degree, y)] = solved
        assert degree == res.n_value - 1
        assert y.terms == all_words_y(L, vec, degree).terms
        assert res.witness.y == y


class TestKoszul:
    def test_heisenberg_ranks(self):
        L = load_colorlie("heisenberg_w2.cl")
        K = koszul_complex(L, 3, 6)
        # exterior powers of a 3-dimensional space: ranks 1, 3, 3, 1
        from ncpoint.colorlie import wedge_basis
        assert [len(wedge_basis(L, r)) for r in range(4)] == [1, 3, 3, 1]

    def test_d1_sends_generator_to_itself(self):
        L = load_colorlie("heisenberg_w2.cl")
        from ncpoint.colorlie import _differential_image
        img = _differential_image(L, (), (0,), {})
        assert values(img) == {((0,), ()): F(1)}

    def test_d2_display(self):
        L = load_colorlie("heisenberg_w2.cl")
        from ncpoint.colorlie import _differential_image
        # d2(1 (x) (x ^ y)) = x (x) y - eps(|x|,|y|) y (x) x - 1 (x) [x,y]
        img = _differential_image(L, (), (0, 1), {})
        assert values(img) == {((0,), (1,)): F(1),
                       ((1,), (0,)): F(-2),
                       ((), (2,)): F(-1)}

    @pytest.mark.parametrize("name", [
        "heisenberg_w1.cl", "heisenberg_w2.cl", "abelian_2.cl"])
    def test_resolution_exact(self, name):
        L = load_colorlie(name)
        K = koszul_complex(L, L.dim, 6)
        rep = koszul_verify(K)
        assert rep.ok_d_squared and rep.ok_exact, rep.failures

    def test_corrupted_fixture_fails_d_squared(self):
        for name in ("bad_antisym.cl", "bad_jacobi.cl"):
            L = load_colorlie(name)
            K = koszul_complex(L, min(3, L.dim), 4)
            rep = koszul_verify(K)
            assert not rep.ok_d_squared, name


# omega_01 of a Heisenberg-type L: rationals, -1, and Q(t) values
_OMEGA_ENTRIES = ["2", "-1", "1/3", "-3/2", "5", "t", "2*t/(t+1)"]


@st.composite
def heisenberg_type(draw):
    """Generators x_0..x_{m-1} of unit degree and one z = c [x_i, x_j] of
    degree e_i + e_j, central, with random omega; such an L satisfies the
    axioms for every omega.  Returns (L, r_max, max_degree)."""
    m = draw(st.integers(2, 3))
    omega = [[F(1)] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            omega[i][j] = parse_scalar(draw(st.sampled_from(_OMEGA_ENTRIES)))
            omega[j][i] = sc_inv(omega[i][j])
    i, j = draw(st.sampled_from([(i, j) for i in range(m) for j in range(m) if i != j]))
    degrees = [tuple(int(k == a) for k in range(m)) for a in range(m)]
    degrees.append(tuple(int(k in (i, j)) for k in range(m)))
    c = draw(rationals(min_value=-3, max_value=3, max_denominator=3).filter(bool))
    L = ColorLieAlgebra([f"x{a}" for a in range(m)] + ["z"], degrees,
                        Bicharacter(omega), {(i, j): {m: c}})
    return L, draw(st.integers(1, m + 1)), draw(st.integers(0, 5 if m == 2 else 4))


def column_values(K):
    """The columns of each differential of K as maps {row index: scalar}."""
    return {key: [values(col) for col in cols] for key, cols in K.matrices.items()}


class TestKoszulReference:
    """koszul_complex, with its epsilon table and per-wedge terms, against
    the differential written from the formula (tests/koszul_reference.py)."""

    @pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.cl")))
    def test_fixture_columns(self, name):
        L = load_colorlie(name)
        K = koszul_complex(L, L.dim, 5)
        assert column_values(K) == reference_matrices(K)

    @settings(max_examples=100, deadline=None)
    @given(heisenberg_type())
    def test_seeded_heisenberg_type(self, case):
        L, r_max, max_degree = case
        assert check_color_axioms(L)[0]
        K = koszul_complex(L, r_max, max_degree)
        assert column_values(K) == reference_matrices(K)
        assert koszul_verify(K).ok_d_squared


def serialize_colorlie(L):
    """L as the text of a .cl file, for the parser's round trip."""
    lines = [f"rank: {L.eps.rank}"]
    for nm, deg in zip(L.names, L.degrees):
        lines.append(f"basis: {nm}:({','.join(str(a) for a in deg)})")
    for row in L.eps.omega:
        lines.append("omega: " + " ".join(scalar_to_str(v) for v in row))
    for (i, j), vec in L.brackets.items():
        poly = NCPoly({(k,): c for k, c in vec.items()})
        rhs = poly_to_str(poly, L.names) if poly else "0"
        lines.append(f"bracket: [{L.names[i]},{L.names[j]}] = {rhs}")
    return "\n".join(lines) + "\n"


class TestColorLieFiles:
    @pytest.mark.parametrize("name", [
        "heisenberg_w1.cl", "heisenberg_w2.cl", "heisenberg_w13.cl",
        "abelian_2.cl", "skew3.cl", "heisenberg3_skew.cl",
        "bad_jacobi.cl", "bad_antisym.cl",
    ])
    def test_round_trip(self, name):
        L = parse_colorlie(fixture_path(name).read_text())
        again = parse_colorlie(serialize_colorlie(L))
        assert again.names == L.names
        assert again.degrees == L.degrees
        assert again.eps.omega == L.eps.omega
        assert again.brackets == L.brackets
        assert serialize_colorlie(again) == serialize_colorlie(L)

    def test_parse_errors(self):
        from ncpoint.freealg import ParseError
        with pytest.raises(ParseError):
            parse_colorlie("rank: 2\nomega: 1 1\n")  # missing second row
        with pytest.raises(ParseError):
            parse_colorlie("rank: 1\nbasis: x(1)\nomega: 1\n")

    @pytest.mark.parametrize("rank", ["0", "-2"])
    def test_rank_below_one_names_its_line(self, rank):
        from ncpoint.freealg import ParseError
        with pytest.raises(ParseError) as exc:
            parse_colorlie(f"# no grading\nrank: {rank}\n")
        assert str(exc.value) == f"rank must be at least 1, got {rank} (line 2)"

    def test_both_bracket_orders_are_kept(self):
        # the axiom check compares a pair stored in both orders
        L = parse_colorlie("rank: 2\nbasis: x:(1,0)\nbasis: y:(0,1)\nbasis: z:(1,1)\n"
                           "omega: 1 2\nomega: 1/2 1\nbracket: [x,y] = z\nbracket: [y,x] = z\n")
        assert L.brackets == {(0, 1): {2: 1}, (1, 0): {2: 1}}
        ok, violations = check_color_axioms(L)
        assert not ok and violations[0].startswith("antisymmetry: [x,y]")

    def test_presentability_needs_the_designated_generators(self):
        # rank 1 and no basis: L_1 = 0 generates L = 0, but no theta_0 exists
        L = parse_colorlie("rank: 1\nomega: 1\n")
        with pytest.raises(ValueError, match="^degree e_0 must carry exactly one basis element$"):
            presentable_layers(L)

    def test_bad_rank_names_its_line(self):
        from ncpoint.freealg import ParseError
        with pytest.raises(ParseError) as exc:
            parse_colorlie("# two generators\nrank: x\n")
        assert exc.value.line == 2
        assert str(exc.value).startswith("bad rank: ")
