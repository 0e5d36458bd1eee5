from random import Random

import pytest
from hypothesis import assume, given, settings, strategies as st

from ncpoint.freealg import NCPoly, Presentation, parse_algebra, parse_poly
from ncpoint.linalg import Matrix, rref
from ncpoint.normal import (
    HeisenbergWitness,
    NonUniqueSolutionError,
    NotNormalError,
    NuAutomorphism,
    check_power_identities,
    find_witness,
    is_q_heisenberg,
    multiplication_injective,
    nu_automorphism,
    regular_degrees,
)
from ncpoint.quotient import DegreeCapError, QuotientCache
from ncpoint.scalars import Rational

from conftest import FIXTURES, load_algebra, rationals
from span_quotient import span_equal

F = Rational


def witness(pres, g, x, y, u):
    names = pres.names
    return HeisenbergWitness(g=parse_poly(g, names), x=parse_poly(x, names),
                             y=parse_poly(y, names), u=u)


def is_normal(cache, g):
    """The normality decision of `nu_automorphism`, which raises
    NotNormalError exactly when g is not normal."""
    try:
        nu_automorphism(cache, g)
    except NotNormalError:
        return False
    except NonUniqueSolutionError:
        pass
    return True


@pytest.fixture
def cache44(downup_4_4):
    return QuotientCache(downup_4_4, 8)


@pytest.fixture
def cache21(downup_2_1):
    return QuotientCache(downup_2_1, 8)


# the shipped algebras, and x*y = 0, where g x_j and x_j g can span
# spaces of different dimensions
SPAN_CACHES = {p.name: QuotientCache(parse_algebra(p.read_text()), 4)
               for p in FIXTURES.glob("*.alg")}
SPAN_CACHES["xy_zero"] = QuotientCache(parse_algebra("generators: x y\nrelation: x*y\n"), 4)


class TestIsNormal:
    def test_downup_2_1(self, cache21, downup_2_1):
        g = parse_poly("x*y - y*x", downup_2_1.names)
        assert is_normal(cache21, g)

    def test_free_generator_not_normal(self, free_2):
        cache = QuotientCache(free_2, 3)
        # span{x^2, xy} differs from span{x^2, yx}
        assert not is_normal(cache, parse_poly("x", free_2.names))

    def test_central_generator(self, commutative_plane):
        cache = QuotientCache(commutative_plane, 3)
        assert is_normal(cache, parse_poly("x", commutative_plane.names))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_span_equality(self, data):
        # oracle: span(g A_1) = span(A_1 g), compared as reduced echelon forms
        cache = SPAN_CACHES[data.draw(st.sampled_from(sorted(SPAN_CACHES)))]
        words = cache.retained_words(data.draw(st.integers(1, 3)))
        coeffs = data.draw(st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -3]),
                                    min_size=len(words), max_size=len(words)))
        g = NCPoly({w: F(c) for w, c in zip(words, coeffs) if c})
        assume(g)
        gens = [NCPoly.gen(j) for j in range(cache.pres.num_generators)]
        want = span_equal([cache.normal_form(g * x).terms for x in gens],
                          [cache.normal_form(x * g).terms for x in gens])
        assert is_normal(cache, g) == want

    def test_cap_guard(self, downup_4_4):
        cache = QuotientCache(downup_4_4, 2)
        with pytest.raises(DegreeCapError):
            is_normal(cache, parse_poly("x*y - 2*y*x", downup_4_4.names))


class TestNuAutomorphism:
    def test_downup_4_4_scalars(self, cache44, downup_4_4):
        g = parse_poly("x*y - 2*y*x", downup_4_4.names)
        nu = nu_automorphism(cache44, g)
        assert nu.images == (NCPoly({(0,): F(1, 2)}), NCPoly({(1,): F(2)}))

    def test_central_gives_identity(self, commutative_plane):
        cache = QuotientCache(commutative_plane, 3)
        nu = nu_automorphism(cache, parse_poly("x", commutative_plane.names))
        assert nu.images == (NCPoly.gen(0), NCPoly.gen(1))

    def test_downup_2_1_identity(self, cache21, downup_2_1):
        nu = nu_automorphism(cache21, parse_poly("x*y - y*x", downup_2_1.names))
        assert nu.images == (NCPoly.gen(0), NCPoly.gen(1))

    def test_not_normal_raises(self, free_2):
        cache = QuotientCache(free_2, 3)
        with pytest.raises(NotNormalError):
            nu_automorphism(cache, parse_poly("x", free_2.names))

    def test_defining_congruence(self, cache44, downup_4_4):
        g = parse_poly("x*y - 2*y*x", downup_4_4.names)
        nu = nu_automorphism(cache44, g)
        for j in range(2):
            a = parse_poly(downup_4_4.names[j], downup_4_4.names)
            lhs = nu.apply(a) * g
            rhs = g * a
            assert cache44.is_zero_mod_ideal(lhs - rhs)

    def test_scales_witness_generators_by_u(self, downup_4_4, downup_2_1):
        # whenever the witness x, y are themselves generators,
        # nu(x) = x/u and nu(y) = u y modulo the ideal
        from ncpoint.scalars import sc_pow
        for pres, gtxt, u in ((downup_4_4, "x*y - 2*y*x", F(2)),
                              (downup_2_1, "x*y - y*x", F(1))):
            cache = QuotientCache(pres, 8)
            g = parse_poly(gtxt, pres.names)
            nu = nu_automorphism(cache, g)
            x = parse_poly("x", pres.names)
            y = parse_poly("y", pres.names)
            assert cache.is_zero_mod_ideal(nu.apply(x) - x.scale(sc_pow(u, -1)))
            assert cache.is_zero_mod_ideal(nu.apply(y) - y.scale(u))


def dense_nu(cache, g):
    """nu and nu^-1 the dense way: coordinates of x_j g and g x_j over the
    standard words of degree n + 1, one RREF of [R | L] for the matrix M
    of nu, and one RREF of [M | I] for its inverse; column j of each
    holds the image of x_j."""
    k = cache.pres.num_generators
    words = cache.retained_words(g.degree() + 1)
    gens = [NCPoly.gen(j) for j in range(k)]
    cols = [cache.normal_form(x * g).terms for x in gens]
    cols += [cache.normal_form(g * x).terms for x in gens]
    _, pivots, red = rref(Matrix([[c.get(w, 0) for c in cols] for w in words]))
    assert pivots[:k] == list(range(k))
    m = [row[k:] for row in red.rows[:k]]
    eye = [[F(i == j) for j in range(k)] for i in range(k)]
    _, pivots, red = rref(Matrix([m[i] + eye[i] for i in range(k)]))
    assert pivots[:k] == list(range(k))
    m_inv = [row[k:] for row in red.rows]

    def columns(mat):
        return tuple(NCPoly({(i,): mat[i][j] for i in range(k) if mat[i][j]})
                     for j in range(k))

    return columns(m), columns(m_inv)


def seeded_downup(rng):
    """A down-up algebra A(r + s, -rs) and its normal element xy - s yx,
    for random nonzero rationals r and s."""
    r, s = (F(rng.choice([-3, -2, -1, 1, 2, 3, 5]), rng.choice([1, 2, 3]))
            for _ in range(2))
    x, y = NCPoly.gen(0), NCPoly.gen(1)
    rels = [x * x * y - (x * y * x).scale(r + s) + (y * x * x).scale(r * s),
            x * y * y - (y * x * y).scale(r + s) + (y * y * x).scale(r * s)]
    return QuotientCache(Presentation("xy", rels), 6), x * y - (y * x).scale(s)


def nu_cases():
    fixtures = [("downup_4_-4.alg", "x*y - 2*y*x", 8),
                ("d_2_1.alg", "x*x*y + 2*x*y*x + y*x*x", 8),
                ("quantum_plane_2.alg", "x*y", 6)]
    for name, gtxt, cap in fixtures:
        pres = load_algebra(name)
        yield QuotientCache(pres, cap), parse_poly(gtxt, pres.names)
    rng = Random(11)
    for _ in range(12):
        yield seeded_downup(rng)


class TestNuOracle:
    def test_images_match_dense_computation(self):
        for cache, g in nu_cases():
            nu = nu_automorphism(cache, g)
            assert (nu.images, nu.inverse) == dense_nu(cache, g)
            for j in range(cache.pres.num_generators):
                assert nu.apply(nu.inverse[j]) == NCPoly.gen(j)
            n = g.degree()
            for d in range(cache.cap - n + 1):
                for w in cache.retained_words(d):
                    a = NCPoly.monomial(w)
                    assert cache.is_zero_mod_ideal(nu.apply(a) * g - g * a)


def letterwise_apply(nu, f, power):
    """nu^power(f) with each letter of each word substituted, one power
    of nu or nu^-1 at a time, from the generator images alone."""
    images = nu.images if power > 0 else nu.inverse
    for _ in range(abs(power)):
        out = NCPoly.zero()
        for w, c in f.terms.items():
            term = NCPoly.one().scale(c)
            for letter in w:
                term = term * images[letter]
            out = out + term
        f = out
    return f


class TestNuApplyOracle:
    """NuAutomorphism.apply against letterwise substitution: on real nu
    of the nu cases, and on random invertible linear maps of two
    generators."""

    def test_nu_cases(self):
        for cache, g in nu_cases():
            nu = nu_automorphism(cache, g)
            for power in (-2, -1, 0, 1, 2, 1, -1):
                for d in range(4):
                    f = NCPoly({w: F(i + 1) for i, w in enumerate(cache.retained_words(d))})
                    assert nu.apply(f, power) == letterwise_apply(nu, f, power)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(rationals(min_value=-3, max_value=3, max_denominator=3),
                    min_size=4, max_size=4),
           st.lists(st.tuples(st.lists(st.integers(0, 1), max_size=4).map(tuple),
                              rationals(min_value=-2, max_value=2, max_denominator=2)),
                    max_size=6),
           st.lists(st.integers(-2, 2), min_size=1, max_size=5))
    def test_random_linear_maps(self, entries, terms, powers):
        a, b, c, d = entries
        det = a * d - b * c
        assume(det)
        images = (NCPoly({(0,): a, (1,): c}), NCPoly({(0,): b, (1,): d}))
        inverse = (NCPoly({(0,): d / det, (1,): -c / det}),
                   NCPoly({(0,): -b / det, (1,): a / det}))
        nu = NuAutomorphism(images, inverse)
        f = NCPoly.zero()
        for w, coeff in terms:
            f = f + NCPoly.monomial(w, coeff)
        for power in powers:
            assert nu.apply(f, power) == letterwise_apply(nu, f, power)


class TestIsQHeisenberg:
    def test_downup_2_1(self, cache21, downup_2_1):
        w = witness(downup_2_1, "x*y - y*x", "x", "y", F(1))
        assert is_q_heisenberg(cache21, w).ok

    def test_downup_4_4(self, cache44, downup_4_4):
        w = witness(downup_4_4, "x*y - 2*y*x", "x", "y", F(2))
        assert is_q_heisenberg(cache44, w).ok

    def test_d_2_1(self, d_2_1):
        cache = QuotientCache(d_2_1, 8)
        w = witness(d_2_1, "x*x*y + 2*x*y*x + y*x*x", "x", "x*y + y*x", F(-1))
        assert is_q_heisenberg(cache, w).ok

    def test_commutative_plane_fails(self, commutative_plane):
        cache = QuotientCache(commutative_plane, 8)
        w = witness(commutative_plane, "x*y - y*x", "x", "y", F(1))
        rep = is_q_heisenberg(cache, w)
        assert not rep.ok
        assert "g nonzero mod ideal" in rep.failed_clauses()

    def test_wrong_u_fails(self, cache44, downup_4_4):
        w = witness(downup_4_4, "x*y - 2*y*x", "x", "y", F(3))
        rep = is_q_heisenberg(cache44, w)
        assert not rep.ok
        assert any("(i)" in c or "(ii)" in c for c in rep.failed_clauses())

    def test_derived_cubic_identities(self, cache44, cache21, downup_4_4, downup_2_1):
        # x^2 y - 2u xyx + u^2 yx^2 and xy^2 - 2u yxy + u^2 y^2 x vanish
        for cache, pres, u in ((cache44, downup_4_4, F(2)),
                               (cache21, downup_2_1, F(1))):
            names = pres.names
            x, y = parse_poly("x", names), parse_poly("y", names)
            lhs1 = x * x * y - (x * y * x).scale(2 * u) + (y * x * x).scale(u * u)
            lhs2 = x * y * y - (y * x * y).scale(2 * u) + (y * y * x).scale(u * u)
            assert cache.is_zero_mod_ideal(lhs1)
            assert cache.is_zero_mod_ideal(lhs2)

    def test_normality_closed_under_product(self, cache44, downup_4_4):
        g = parse_poly("x*y - 2*y*x", downup_4_4.names)
        assert is_normal(cache44, g)
        g2 = cache44.normal_form(g * g)
        assert is_normal(cache44, g2)


class TestPowerIdentities:
    def test_downup_2_1_r5(self, cache21, downup_2_1):
        w = witness(downup_2_1, "x*y - y*x", "x", "y", F(1))
        assert check_power_identities(cache21, w, 5)

    def test_downup_4_4_r5(self, cache44, downup_4_4):
        w = witness(downup_4_4, "x*y - 2*y*x", "x", "y", F(2))
        assert check_power_identities(cache44, w, 5)

    def test_r1_tautology(self, cache44, downup_4_4):
        w = witness(downup_4_4, "x*y - 2*y*x", "x", "y", F(2))
        assert check_power_identities(cache44, w, 1)

    def test_cap_guard(self, cache44, downup_4_4):
        w = witness(downup_4_4, "x*y - 2*y*x", "x", "y", F(2))
        with pytest.raises(DegreeCapError):
            check_power_identities(cache44, w, 20)


class TestRegularitySurrogate:
    def test_injectivity_on_domain(self, cache44, downup_4_4):
        g = parse_poly("x*y - 2*y*x", downup_4_4.names)
        for d in range(0, 7):
            assert multiplication_injective(cache44, g, d, "left")
            assert multiplication_injective(cache44, g, d, "right")

    def test_zero_divisor_detected(self, commutative_plane):
        cache = QuotientCache(commutative_plane, 8)
        g = parse_poly("x*y - y*x", commutative_plane.names)  # zero mod I
        assert not multiplication_injective(cache, g, 1, "left")

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_sides_agree_for_normal_g(self, data):
        # a normal g has gA_d = A_d g, so its right rank, ranked here, must
        # agree with its left rank in every degree
        cache, g = draw_normal_element(data)
        for d in range(cache.cap - g.degree() + 1):
            assert (multiplication_injective(cache, g, d, "left")
                    == multiplication_injective(cache, g, d, "right"))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_quotient_criterion_matches_left_rank(self, data):
        # is_q_heisenberg reads a normal g's regularity off A/(g): in each
        # source degree d, dim (A/(g))_{d+n} = dim A_{d+n} - dim A_d exactly
        # when left multiplication by g is injective on A_d
        cache, g = draw_normal_element(data)
        assert list(regular_degrees(cache, g)) == [
            multiplication_injective(cache, g, d, "left")
            for d in range(cache.cap - g.degree() + 1)]


def draw_normal_element(data):
    """A cache and a normal element g of it with deg g + 1 <= cap: from
    A(r + s, -rs), from a skew plane with or without x^2 = 0, or from
    d_2_1, a product of one or two of its normal elements.  Degree-one g
    and zero divisors are among them."""
    x, y = NCPoly.gen(0), NCPoly.gen(1)
    scalar = st.sampled_from([F(0), F(1), F(-1), F(2), F(-3), F(1, 2), F(-2, 3)])
    family = data.draw(st.sampled_from(["downup", "skew", "d_2_1"]))
    if family == "downup":
        # A(r + s, -rs): x g = s g x and g y = s y g for g = xy - r yx,
        # so g is normal when s != 0, and so is xy - s yx when r != 0
        r, s = data.draw(scalar), data.draw(scalar.filter(bool))
        rels = [x * x * y - (x * y * x).scale(r + s) + (y * x * x).scale(r * s),
                x * y * y - (y * x * y).scale(r + s) + (y * y * x).scale(r * s)]
        cache = QuotientCache(Presentation("xy", rels), 6)
        normals = [x * y - (y * x).scale(r)] + ([x * y - (y * x).scale(s)] if r else [])
    elif family == "skew":
        # xy = q yx, where x and y are normal; x^2 = 0 makes x a zero divisor
        q = data.draw(scalar.filter(bool))
        rels = [x * y - (y * x).scale(q)] + data.draw(st.sampled_from([[], [x * x]]))
        cache = QuotientCache(Presentation("xy", rels), 6)
        normals = [x, y]
    else:
        cache = QuotientCache(load_algebra("d_2_1.alg"), 7)
        normals = [parse_poly(t, cache.pres.names) for t in
                   ("x*x*y + 2*x*y*x + y*x*x", "x*y*y + 2*y*x*y + y*y*x")]
    factors = data.draw(st.lists(st.sampled_from(normals), min_size=1, max_size=2))
    g = NCPoly.one()
    for f in factors:
        g = g * f
    assume(g and g.degree() + 1 <= cache.cap)
    assert is_normal(cache, g)
    return cache, g


class TestFindWitness:
    def test_recovers_downup_2_1(self, cache21, downup_2_1):
        g = parse_poly("x*y - y*x", downup_2_1.names)
        rep = find_witness(cache21, g, rng=Random(0))
        assert rep is not None and rep.ok and rep.witness.u == 1

    def test_recovers_d_2_1(self, d_2_1):
        cache = QuotientCache(d_2_1, 8)
        g = parse_poly("x*x*y + 2*x*y*x + y*x*x", d_2_1.names)
        rep = find_witness(cache, g, rng=Random(0))
        assert rep is not None and rep.witness.u == -1
        assert rep.ok and is_q_heisenberg(cache, rep.witness).ok

    def test_recovers_downup_4_4(self, cache44, downup_4_4):
        g = parse_poly("x*y - 2*y*x", downup_4_4.names)
        rep = find_witness(cache44, g, rng=Random(0))
        assert rep is not None and rep.ok and rep.witness.u == 2

    def test_commutative_has_no_witness(self, commutative_plane):
        cache = QuotientCache(commutative_plane, 8)
        g = parse_poly("x*y + y*x", commutative_plane.names)  # nonzero mod I
        assert find_witness(cache, g, rng=Random(0)) is None
