import io
from contextlib import redirect_stderr, redirect_stdout
from random import Random
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from ncpoint.freealg import NCPoly, Presentation, parse_poly
from ncpoint import veronese
from ncpoint.cli import main
from ncpoint.normal import HeisenbergWitness, NuAutomorphism, nu_automorphism
from ncpoint.quotient import QuotientCache
from ncpoint.scalars import Rational
from conftest import fixture_path, load_algebra
from test_normal import draw_normal_element
from ncpoint.veronese import (
    QVElement,
    TwistSystem,
    bold_g,
    qv_mul,
    twist_mul,
    verify_bold_normal,
    weyl_images,
    weyl_witness,
)

F = Rational


@pytest.fixture
def cache44(downup_4_4):
    return QuotientCache(downup_4_4, 8)


def rand_qv(cache, size, degree, rng):
    rows = []
    for i in range(size):
        row = []
        for j in range(size):
            e = size * degree + j - i
            if e < 0:
                row.append(NCPoly.zero())
                continue
            words = cache.retained_words(e)
            terms = {w: F(rng.randint(-2, 2)) for w in rng.sample(
                words, min(2, len(words)))}
            row.append(cache.normal_form(NCPoly(terms)))
        rows.append(row)
    return QVElement(size, degree, rows)


class TestQVElement:
    def test_entry_degree_validation(self, downup_4_4):
        g = parse_poly("x*y - 2*y*x", downup_4_4.names)
        with pytest.raises(ValueError):
            QVElement(2, 1, [[g, g], [g, g]])  # off-diagonal degrees wrong

    def test_bold_g_shape(self, downup_4_4):
        g = parse_poly("x*y - 2*y*x", downup_4_4.names)
        b = bold_g(g)
        assert b.size == 2 and b.degree == 1
        assert b.entries[0][0] == g and not b.entries[0][1]

    def test_bold_g_size_one(self, commutative_plane):
        x = parse_poly("x", commutative_plane.names)
        assert bold_g(x).entries[0][0] == x

    def test_bold_g_needs_a_homogeneous_g(self, downup_4_4):
        for text in ("x*y + x", "0"):
            with pytest.raises(ValueError):
                bold_g(parse_poly(text, downup_4_4.names))


class TestQVMul:
    def test_size_one_is_normal_form_product(self, cache44, downup_4_4):
        f = parse_poly("x*y", downup_4_4.names)
        g = parse_poly("y*x", downup_4_4.names)
        a = QVElement(1, 2, [[f]])
        b = QVElement(1, 2, [[g]])
        prod = qv_mul(a, b, cache44)
        assert prod.entries[0][0] == cache44.normal_form(f * g)

    def test_bold_g_squared_is_diagonal(self, cache44, downup_4_4):
        g = parse_poly("x*y - 2*y*x", downup_4_4.names)
        b = bold_g(g)
        sq = qv_mul(b, b, cache44)
        g2 = cache44.normal_form(g * g)
        assert sq.entries[0][0] == g2 and sq.entries[1][1] == g2
        assert not sq.entries[0][1] and not sq.entries[1][0]

    def test_identity_is_two_sided_unit(self, cache44, downup_4_4):
        rng = Random(0)
        one = QVElement(2, 0, [[NCPoly.one(), NCPoly.zero()],
                               [NCPoly.zero(), NCPoly.one()]])
        a = rand_qv(cache44, 2, 1, rng)
        assert qv_mul(one, a, cache44) == a
        assert qv_mul(a, one, cache44) == a

    def test_associative_on_random_triples(self, cache44):
        rng = Random(1)
        for _ in range(5):
            a = rand_qv(cache44, 2, 1, rng)
            b = rand_qv(cache44, 2, 1, rng)
            c = rand_qv(cache44, 2, 1, rng)
            assert qv_mul(qv_mul(a, b, cache44), c, cache44) == \
                qv_mul(a, qv_mul(b, c, cache44), cache44)


class TestVerifyBoldNormal:
    def test_downup_4_4(self, cache44, downup_4_4):
        g = parse_poly("x*y - 2*y*x", downup_4_4.names)
        ok, checked, _, _ = verify_bold_normal(cache44, g)
        assert ok and checked > 0

    def test_commutative_central(self, commutative_plane):
        cache = QuotientCache(commutative_plane, 6)
        ok, _, _, _ = verify_bold_normal(cache, parse_poly("x", commutative_plane.names))
        assert ok

    def test_free_algebra_precondition(self, free_2):
        cache = QuotientCache(free_2, 4)
        with pytest.raises(ValueError):
            verify_bold_normal(cache, parse_poly("x", free_2.names))


def elementary(size, degree, i, j, poly):
    rows = [[NCPoly.zero()] * size for _ in range(size)]
    rows[i][j] = poly
    return QVElement(size, degree, rows)


def word_bold_normal(cache, g, nu):
    """The bold-g identity word by word: NF(g w) against NF(nu(w) g) for
    each standard word w of each (q, i, j) entry within the cap, each
    degree's words checked at its first entry and counted at a later one.
    Returns (ok, checked, skipped)."""
    n = g.degree()
    checked = skipped = 0
    passed = set()  # degrees whose words passed
    for q in range((cache.cap - n) // n + 1):
        for i in range(n):
            for j in range(n):
                e = n * q + j - i
                if e < 0:
                    continue
                if e + n > cache.cap:
                    skipped += 1
                    continue
                if e in passed:
                    checked += cache.dim(e)
                    continue
                for w in cache.retained_words(e):
                    a = NCPoly.monomial(w)
                    checked += 1
                    if cache.normal_form(g * a) != cache.normal_form(nu.apply(a) * g):
                        return False, checked, skipped
                passed.add(e)
    return True, checked, skipped


def dressed_bold_normal(cache, g, nu):
    """The bold-g identity through full quasi-Veronese products: bold-g E
    against nu(E) bold-g for each elementary E whose products stay within
    the cap, in the order of word_bold_normal.  Returns (ok, checked,
    skipped)."""
    n = g.degree()
    bold = bold_g(g)
    checked = skipped = 0
    for q in range((cache.cap - n) // n + 1):
        for i in range(n):
            for j in range(n):
                e = n * q + j - i
                if e < 0:
                    continue
                if e + n > cache.cap:
                    skipped += 1
                    continue
                for w in cache.retained_words(e):
                    a = elementary(n, q, i, j, NCPoly.monomial(w))
                    nua = a.map_entries(lambda p: cache.normal_form(nu.apply(p)))
                    checked += 1
                    if qv_mul(bold, a, cache) != qv_mul(nua, bold, cache):
                        return False, checked, skipped
    return True, checked, skipped


def planted_nu(cache, g, j=0):
    """nu of g with nu(x_j) replaced by nu(x_j) + x_{j+1} (indices mod k):
    not an automorphism with nu(a) g = g a."""
    nu = nu_automorphism(cache, g)
    images = list(nu.images)
    images[j] += NCPoly.gen((j + 1) % len(images))
    return NuAutomorphism(tuple(images), nu.inverse)


def agrees_with_word_loop(cache, g):
    """verify_bold_normal against the word loop, for g's own nu and for a
    planted nu at each generator; returns the planted results."""
    got = verify_bold_normal(cache, g)
    assert got[:3] == word_bold_normal(cache, g, got[3])
    assert got[0]
    planted = []
    for j in range(len(got[3].images)):
        nu = planted_nu(cache, g, j)
        with patch.object(veronese, "nu_automorphism", lambda *_: nu):
            result = verify_bold_normal(cache, g)[:3]
        assert result == word_bold_normal(cache, g, nu)
        planted.append(result)
    return planted


ORACLE_CASES = [
    ("downup_4_-4.alg", "x*y - 2*y*x", 8),
    ("downup_2_-1.alg", "x*y - y*x", 8),
    ("quantum_plane_2.alg", "x*y", 8),
    ("d_2_1.alg", "x*x*y + 2*x*y*x + y*x*x", 10),
]


class TestBoldNormalOracle:
    @pytest.mark.parametrize("name,g,cap", ORACLE_CASES)
    def test_agrees_with_dressed_products(self, name, g, cap):
        pres = load_algebra(name)
        cache = QuotientCache(pres, cap)
        g = parse_poly(g, pres.names)
        ok, checked, skipped, _ = verify_bold_normal(cache, g)
        assert ok
        assert dressed_bold_normal(cache, g, nu_automorphism(cache, g)) == \
            (ok, checked, skipped)

    @pytest.mark.parametrize("name,g,cap", ORACLE_CASES + [("quantum_plane_2.alg", "x", 8)])
    def test_agrees_with_word_loop_at_each_cap(self, name, g, cap):
        pres = load_algebra(name)
        g = parse_poly(g, pres.names)
        for c in range(g.degree() + 1, cap + 1):
            planted = agrees_with_word_loop(QuotientCache(pres, c), g)
            # the first failing generator fails after the degree-0 word and
            # the generators before it
            assert planted == [(False, j + 2, 0) for j in range(len(planted))], c

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_agrees_with_word_loop_on_normal_elements(self, data):
        cache, g = draw_normal_element(data)
        try:
            nu_automorphism(cache, g)
        except ValueError as exc:
            with pytest.raises(type(exc)):
                verify_bold_normal(cache, g)
            return
        agrees_with_word_loop(cache, g)

    def test_planted_nu_fails_at_the_same_count(self, monkeypatch, downup_4_4):
        cache = QuotientCache(downup_4_4, 8)
        g = parse_poly("x*y - 2*y*x", downup_4_4.names)
        assert dressed_bold_normal(cache, g, planted_nu(cache, g)) == (False, 2, 0)
        monkeypatch.setattr(veronese, "nu_automorphism", planted_nu)
        assert verify_bold_normal(cache, g)[:3] == (False, 2, 0)

    def test_planted_nu_fails_both_qv_check_lines(self, monkeypatch):
        monkeypatch.setattr(veronese, "nu_automorphism", planted_nu)
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(["qv-check", str(fixture_path("downup_4_-4.alg")),
                         "--g", "x*y-2*y*x"])
        assert code == 1
        assert out.getvalue().splitlines()[2:] == [
            "entry identities checked: 2",
            "check bold-g normal identity g a = nu(a) g: FAIL",
            "check twisting system law: FAIL",
            "result: fail",
        ]


def qv1(p):
    """A homogeneous polynomial as the size-1 quasi-Veronese element."""
    return QVElement(1, p.degree(), [[p]])


def sampled_twist_law(cache, nu, law_degree=2):
    """The twisting-system check by sampling: nu kills every relation, and
    nu_l(nu_j(a) b) = nu_{j+l}(a) nu_l(b) holds mod the ideal for
    j, l in {-1, 0, 1, 2} and standard words a, b of degree <= law_degree."""
    for f in cache.pres.relations:
        if not cache.is_zero_mod_ideal(nu.apply(f)):
            return False
    for da in range(1, law_degree + 1):
        for db in range(1, law_degree + 1):
            if da + db > cache.cap:
                continue
            for wa in cache.retained_words(da):
                a = NCPoly.monomial(wa)
                for wb in cache.retained_words(db):
                    b = NCPoly.monomial(wb)
                    for j in (-1, 0, 1, 2):
                        for l in (-1, 0, 1, 2):
                            lhs = nu.apply(nu.apply(a, j) * b, l)
                            rhs = nu.apply(a, j + l) * nu.apply(b, l)
                            if not cache.is_zero_mod_ideal(lhs - rhs):
                                return False
    return True


def downup_2r(r):
    """The down-up algebra A(2r, -r^2) and its normal element xy - r yx."""
    x, y = NCPoly.gen(0), NCPoly.gen(1)
    rels = [x * x * y - (x * y * x).scale(2 * r) + (y * x * x).scale(r * r),
            x * y * y - (y * x * y).scale(2 * r) + (y * y * x).scale(r * r)]
    return QuotientCache(Presentation("xy", rels), 6), x * y - (y * x).scale(r)


class TestTwistSystemOracle:
    @pytest.mark.parametrize("name,g,cap", [
        ("downup_4_-4.alg", "x*y - 2*y*x", 8),
        ("downup_2_-1.alg", "x*y - y*x", 8),
        ("d_2_1.alg", "x*x*y + 2*x*y*x + y*x*x", 10),
        ("quantum_plane_2.alg", "x*y", 8),
    ])
    def test_agrees_with_sampled_law(self, name, g, cap):
        pres = load_algebra(name)
        cache = QuotientCache(pres, cap)
        nu = nu_automorphism(cache, parse_poly(g, pres.names))
        assert TwistSystem(nu).validate(cache)
        assert sampled_twist_law(cache, nu)

    def test_agrees_on_seeded_downup(self):
        rng = Random(21)
        for _ in range(6):
            r = F(rng.choice([-3, -2, -1, 1, 2, 3, 5]), rng.choice([1, 2, 3]))
            cache, g = downup_2r(r)
            nu = nu_automorphism(cache, g)
            assert TwistSystem(nu).validate(cache), r
            assert sampled_twist_law(cache, nu), r

    def test_planted_inverse_fails(self, cache44, downup_4_4):
        # nu itself, with a stored inverse that does not invert it
        nu = nu_automorphism(cache44, parse_poly("x*y - 2*y*x", downup_4_4.names))
        bad = NuAutomorphism(nu.images, (nu.inverse[0].scale(F(2)),) + nu.inverse[1:])
        assert all(cache44.is_zero_mod_ideal(bad.apply(f)) for f in downup_4_4.relations)
        assert not TwistSystem(bad).validate(cache44)
        assert not sampled_twist_law(cache44, bad)

    def test_planted_relation_miss_fails(self, cache44):
        # the shear x -> x + y, y -> y with its true inverse x -> x - y
        x, y = NCPoly.gen(0), NCPoly.gen(1)
        shear = NuAutomorphism((x + y, y), (x - y, y))
        assert not TwistSystem(shear).validate(cache44)
        assert not sampled_twist_law(cache44, shear)


class TestTwist:
    def test_degree_zero_is_plain_product(self, cache44, downup_4_4):
        g = parse_poly("x*y - 2*y*x", downup_4_4.names)
        nu = nu_automorphism(cache44, g)
        a = parse_poly("x*y", downup_4_4.names)
        assert twist_mul(nu, qv1(a), qv1(NCPoly.one()), cache44) == \
            qv1(cache44.normal_form(a))

    def test_quantum_plane_twist(self, quantum_plane):
        # nu(x) = x/2, nu(y) = 2y on the quantum plane: x o y = xy/2
        cache = QuotientCache(quantum_plane, 6)
        g = parse_poly("x*y", quantum_plane.names)
        nu = nu_automorphism(cache, g)
        assert nu.images == (NCPoly({(0,): F(1, 2)}), NCPoly({(1,): F(2)}))
        x = parse_poly("x", quantum_plane.names)
        y = parse_poly("y", quantum_plane.names)
        assert twist_mul(nu, qv1(x), qv1(y), cache) == \
            qv1(cache.normal_form((x * y).scale(F(1, 2))))

    def test_twist_system_law(self, cache44, downup_4_4):
        g = parse_poly("x*y - 2*y*x", downup_4_4.names)
        ts = TwistSystem(nu_automorphism(cache44, g))
        assert ts.validate(cache44)

    def test_twist_system_law_deeper_degrees(self, downup_2_1):
        cache = QuotientCache(downup_2_1, 8)
        g = parse_poly("x*y - y*x", downup_2_1.names)
        ts = TwistSystem(nu_automorphism(cache, g))
        assert ts.validate(cache)
        assert sampled_twist_law(cache, ts.nu, law_degree=3)

    def test_twist_associativity(self, cache44, downup_4_4):
        g = parse_poly("x*y - 2*y*x", downup_4_4.names)
        nu = nu_automorphism(cache44, g)
        rng = Random(2)
        words = cache44.retained_words(2)
        for _ in range(10):
            a, b, c = (qv1(NCPoly.monomial(rng.choice(words))) for _ in range(3))
            lhs = twist_mul(nu, twist_mul(nu, a, b, cache44), c, cache44)
            rhs = twist_mul(nu, a, twist_mul(nu, b, c, cache44), cache44)
            assert lhs == rhs

    def test_twist_associativity_size_two(self, cache44, downup_4_4):
        g = parse_poly("x*y - 2*y*x", downup_4_4.names)
        nu = nu_automorphism(cache44, g)
        rng = Random(3)
        for _ in range(3):
            a, b, c = (rand_qv(cache44, 2, 1, rng) for _ in range(3))
            lhs = twist_mul(nu, twist_mul(nu, a, b, cache44), c, cache44)
            rhs = twist_mul(nu, a, twist_mul(nu, b, c, cache44), cache44)
            assert lhs == rhs


class TestWeylWitness:
    def test_images_shape(self, downup_4_4):
        w = HeisenbergWitness(
            g=parse_poly("x*y - 2*y*x", downup_4_4.names),
            x=parse_poly("x", downup_4_4.names),
            y=parse_poly("y", downup_4_4.names), u=F(2))
        X, Y = weyl_images(w)
        assert X.entries[0][1] == w.x * w.g and X.entries[1][0] == w.x
        assert Y.entries[0][1] == w.g * w.y and Y.entries[1][0] == w.y

    def test_downup_4_4(self, cache44, downup_4_4):
        w = HeisenbergWitness(
            g=parse_poly("x*y - 2*y*x", downup_4_4.names),
            x=parse_poly("x", downup_4_4.names),
            y=parse_poly("y", downup_4_4.names), u=F(2))
        cert = weyl_witness(cache44, w)
        assert cert.ok

    def test_downup_2_1(self, downup_2_1):
        cache = QuotientCache(downup_2_1, 8)
        w = HeisenbergWitness(
            g=parse_poly("x*y - y*x", downup_2_1.names),
            x=parse_poly("x", downup_2_1.names),
            y=parse_poly("y", downup_2_1.names), u=F(1))
        assert weyl_witness(cache, w).ok

    def test_d_2_1(self, d_2_1):
        cache = QuotientCache(d_2_1, 8)
        w = HeisenbergWitness(
            g=parse_poly("x*x*y + 2*x*y*x + y*x*x", d_2_1.names),
            x=parse_poly("x", d_2_1.names),
            y=parse_poly("x*y + y*x", d_2_1.names), u=F(-1))
        assert weyl_witness(cache, w).ok

    def test_diagonal_entries_equal_g_squared(self, cache44, downup_4_4):
        w = HeisenbergWitness(
            g=parse_poly("x*y - 2*y*x", downup_4_4.names),
            x=parse_poly("x", downup_4_4.names),
            y=parse_poly("y", downup_4_4.names), u=F(2))
        cert = weyl_witness(cache44, w)
        g2 = cache44.normal_form(w.g * w.g)
        diag = [lhs for i, j, _, lhs, _ in cert.entries if i == j]
        assert all(entry == g2 for entry in diag)

    def test_failing_witness_reported(self, downup_2_1):
        # y taken equal to x: the decomposition clause fails and the
        # certificate comes back negative
        cache = QuotientCache(downup_2_1, 8)
        w = HeisenbergWitness(
            g=parse_poly("x*y - y*x", downup_2_1.names),
            x=parse_poly("x", downup_2_1.names),
            y=parse_poly("x", downup_2_1.names), u=F(1))
        cert = weyl_witness(cache, w)
        assert not cert.ok
        assert not cert.precondition_ok
        assert cert.offending_entries()
