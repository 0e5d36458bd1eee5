import io
import itertools
from contextlib import redirect_stderr, redirect_stdout
from random import Random
from time import perf_counter

import pytest
from hypothesis import example, given, settings, strategies as st

from ncpoint.cli import main
from ncpoint.colorlie import u_presentation
from ncpoint.freealg import NCPoly, Presentation, parse_poly
from ncpoint.linalg import RowReducer, row, values
from ncpoint.quotient import (
    BudgetError,
    DegreeCapError,
    QuotientCache,
    hilbert,
    minimal_relation_degrees,
    rewrite,
)
from ncpoint.scalars import Rational

from conftest import fixture_path, load_algebra, load_colorlie
from fraction_reference import ReferenceQuotient
from span_quotient import SpanQuotient

F = Rational


def downup_dim_oracle(d: int) -> int:
    """Independent count of monomials x^i (xy)^j ... for the down-up family:
    dim A_d = #{(i, j, k) >= 0 : i + 2j + k = d}."""
    return sum(1 for j in range(d // 2 + 1) for i in range(d - 2 * j + 1))


def commutative_dim_oracle(d: int) -> int:
    return d + 1


class TestHilbert:
    def test_commutative_plane(self, commutative_plane):
        dims = hilbert(commutative_plane, 3)
        assert dims == [commutative_dim_oracle(d) for d in range(4)]

    def test_free_algebra(self, free_2):
        assert hilbert(free_2, 4) == [1, 2, 4, 8, 16]

    def test_downup_4_4(self, downup_4_4):
        dims = hilbert(downup_4_4, 6)
        assert dims == [downup_dim_oracle(d) for d in range(7)]
        assert dims == [1, 2, 4, 6, 9, 12, 16]

    def test_downup_2_1(self, downup_2_1):
        assert hilbert(downup_2_1, 5) == [downup_dim_oracle(d) for d in range(6)]

    def test_quantum_plane(self, quantum_plane):
        # skew-commutative monomial count: x^i y^j
        assert hilbert(quantum_plane, 4) == [1, 2, 3, 4, 5]


class TestNormalForm:
    def test_commutative_reduction(self, commutative_plane):
        cache = QuotientCache(commutative_plane, 3)
        yx = parse_poly("y*x", commutative_plane.names)
        assert cache.normal_form(yx) == parse_poly("x*y", commutative_plane.names)

    def test_relations_reduce_to_zero(self, downup_4_4):
        cache = QuotientCache(downup_4_4, 4)
        for f in downup_4_4.relations:
            assert not cache.normal_form(f)

    def test_degree_one_free(self, downup_4_4):
        cache = QuotientCache(downup_4_4, 2)
        x = parse_poly("x", downup_4_4.names)
        assert cache.normal_form(x) == x

    def test_idempotent_and_linear(self, downup_4_4):
        cache = QuotientCache(downup_4_4, 5)
        rng = Random(0)
        words4 = cache.retained_words(3)
        for _ in range(10):
            f = NCPoly({w: F(rng.randint(-3, 3)) for w in rng.sample(words4, 3)})
            g = NCPoly({w: F(rng.randint(-3, 3)) for w in rng.sample(words4, 3)})
            nf = cache.normal_form
            assert nf(nf(f)) == nf(f)
            assert nf(f + g) == nf(f) + nf(g)

    def test_reduction_stays_in_ideal_span(self, downup_4_4):
        # normal_form(w) - w must lie in the span of {u f v} at that degree
        cache = QuotientCache(downup_4_4, 4)
        d = 4
        col = {w: i for i, w in enumerate(itertools.product(range(2), repeat=d))}
        span = RowReducer()
        for f in downup_4_4.relations:
            e = f.degree()
            for lu in range(d - e + 1):
                lv = d - e - lu
                for u in itertools.product(range(2), repeat=lu):
                    for v in itertools.product(range(2), repeat=lv):
                        uf = NCPoly.monomial(u) * f * NCPoly.monomial(v)
                        span.insert(row({col[w]: c for w, c in uf.terms.items()}))
        for w in itertools.product(range(2), repeat=d):
            poly = NCPoly.monomial(w)
            diff = cache.normal_form(poly) - poly
            if diff:
                assert not span.reduce(row({col[ww]: c for ww, c in diff.terms.items()}))[1]

    def test_long_word_needs_no_recursion(self, quantum_plane):
        # y^40 x^40 takes 1600 rewrites of y*x -> x*y / 2 in a chain, more
        # than the interpreter's recursion limit; the budget admits 2^80 words
        cache = QuotientCache(quantum_plane, 80, budget=2 ** 80)
        nf = cache.normal_form(NCPoly.monomial((1,) * 40 + (0,) * 40))
        assert nf == NCPoly.monomial((0,) * 40 + (1,) * 40, F(1, 2 ** 1600))

    def test_rewrite_loop_on_a_toy_system(self):
        # ba -> ab + a / 2 on words in a < b: the normal form of b^2 a is
        # a b^2 + a b + a / 4, and the memo keeps every word rewritten
        def step(v):
            k = next((k for k in range(len(v) - 1) if v[k] > v[k + 1]), None)
            if k is None:
                return None
            head, tail = v[:k], v[k + 2:]
            return 2, [(head + (0, 1) + tail, 2), (head + (0,) + tail, 1)]

        memo = {}
        nf = rewrite((1, 1, 0), memo, step)
        assert nf == (4, {(0, 1, 1): 4, (0, 1): 4, (0,): 1})
        assert values(nf) == {(0, 1, 1): F(1), (0, 1): F(1), (0,): F(1, 4)}
        assert memo[(1, 0)] == (2, {(0, 1): 2, (0,): 1})
        assert rewrite((1, 1, 0), memo, step) is nf

    def test_degree_cap_error(self, downup_4_4):
        cache = QuotientCache(downup_4_4, 3)
        with pytest.raises(DegreeCapError):
            cache.normal_form(parse_poly("x*y*x*y", downup_4_4.names))


class TestEqualModIdeal:
    def test_commutative(self, commutative_plane):
        cache = QuotientCache(commutative_plane, 2)
        xy = parse_poly("x*y", commutative_plane.names)
        yx = parse_poly("y*x", commutative_plane.names)
        assert cache.is_zero_mod_ideal(xy - yx)

    def test_free(self, free_2):
        cache = QuotientCache(free_2, 2)
        assert not cache.is_zero_mod_ideal(parse_poly("x*y", free_2.names)
                                           - parse_poly("y*x", free_2.names))

    def test_downup_relation_rearranged(self, downup_2_1):
        cache = QuotientCache(downup_2_1, 3)
        lhs = parse_poly("x*x*y", downup_2_1.names)
        rhs = parse_poly("2*x*y*x - y*x*x", downup_2_1.names)
        assert cache.is_zero_mod_ideal(lhs - rhs)


class TestInvariants:
    def test_rank_nullity_per_degree(self, downup_4_4):
        cache = QuotientCache(downup_4_4, 6)
        for d in range(7):
            assert cache.ideal_dim(d) + cache.dim(d) == 2 ** d

    def test_normal_form_multiplicative(self, downup_4_4):
        cache = QuotientCache(downup_4_4, 6)
        rng = Random(1)
        nf = cache.normal_form
        for _ in range(15):
            dfg = rng.choice([(2, 3), (3, 3), (2, 4), (1, 4)])
            f = NCPoly({tuple(rng.randrange(2) for _ in range(dfg[0])):
                        F(rng.randint(-3, 3)) or F(1)})
            g = NCPoly({tuple(rng.randrange(2) for _ in range(dfg[1])):
                        F(rng.randint(-3, 3)) or F(1)})
            assert nf(f * g) == nf(nf(f) * nf(g))


class TestMinimalRelationDegrees:
    def test_downup(self, downup_4_4):
        assert minimal_relation_degrees(downup_4_4, 6) == {3: 2}

    def test_presented_multiset_reproduced(self, downup_2_1, d_2_1):
        assert minimal_relation_degrees(downup_2_1, 5) == {3: 2}
        assert minimal_relation_degrees(d_2_1, 6) == {3: 1, 4: 1}

    def test_commutative(self, commutative_plane):
        assert minimal_relation_degrees(commutative_plane, 4) == {2: 1}

    def test_free_empty(self, free_2):
        assert minimal_relation_degrees(free_2, 4) == {}

    def test_cap_below_relation_degree(self, downup_4_4):
        with pytest.raises(ValueError):
            minimal_relation_degrees(downup_4_4, 2)


class TestBudget:
    def test_budget_error(self, free_2):
        with pytest.raises(BudgetError):
            QuotientCache(free_2, 8, budget=100)

    def test_budget_counts_free_words_not_basis_words(self, downup_4_4):
        # dim A_7 = 20, but 2^7 = 128 free-algebra words exceed the budget
        with pytest.raises(BudgetError, match="degree 7 needs 128 words"):
            QuotientCache(downup_4_4, 9, budget=100)


class TestLargeDegree:
    @staticmethod
    def run_timed(command, fixture, *args):
        """Exit code, stdout and seconds of one in-process CLI run."""
        out = io.StringIO()
        start = perf_counter()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main([command, str(fixture_path(fixture)), *args])
        return code, out.getvalue(), perf_counter() - start

    def test_downup_degree_20_closed_form(self):
        code, out, elapsed = self.run_timed("hilbert", "downup_4_-4.alg",
                                            "--max-degree", "20", "--budget", "1048576")
        want = ",".join(str((d + 2) ** 2 // 4) for d in range(21))
        assert code == 0
        assert f"dimensions: {want}\n" in out
        assert elapsed < 2.0

    def test_free_degree_18(self):
        # 2^18 standard words in the top degree, within the default budget
        code, out, elapsed = self.run_timed("hilbert", "free_2.alg", "--max-degree", "18")
        want = ",".join(str(2 ** d) for d in range(19))
        assert code == 0
        assert f"dimensions: {want}\n" in out
        assert elapsed < 2.0
        code, out, _ = self.run_timed("minrel", "free_2.alg", "--max-degree", "18")
        assert code == 0
        assert "minimal relations: none\n" in out


def skew_plane_3():
    names = "xyz"
    return Presentation(names, [parse_poly(text, names)
                                for text in ("x*y - 2*y*x", "x*z - 3*z*x", "y*z - 5*z*y")])


STANDARD_WORD_CASES = {
    "free_2": (lambda: load_algebra("free_2.alg"), 12),
    "downup_4_-4": (lambda: load_algebra("downup_4_-4.alg"), 10),
    "d_2_1": (lambda: load_algebra("d_2_1.alg"), 10),
    "skew_plane_3": (skew_plane_3, 7),
    "u_heisenberg_w2": (lambda: u_presentation(load_colorlie("heisenberg_w2.cl"), 8).pres, 8),
    "u_heisenberg3_skew": (lambda: u_presentation(load_colorlie("heisenberg3_skew.cl"), 6).pres,
                           6),
}


class TestStandardWordOracle:
    @pytest.mark.parametrize("name", sorted(STANDARD_WORD_CASES))
    def test_retained_words_are_brute_force_standard_words(self, name):
        # every word of degree d in lex order, less those that contain a
        # leading word of the reference Gröbner basis as a factor
        build, cap = STANDARD_WORD_CASES[name]
        pres = build()
        leads = ReferenceQuotient(pres, cap)._rules
        cache = QuotientCache(pres, cap)
        for d in range(cap + 1):
            want = [w for w in itertools.product(range(pres.num_generators), repeat=d)
                    if not any(w[i:j] in leads for i in range(d) for j in range(i + 1, d + 1))]
            assert cache.retained_words(d) == want


@st.composite
def small_presentations(draw):
    """2-3 generators, 1-3 homogeneous relations of degree 2-3 with small
    integer coefficients, and a cap of at most 6."""
    k = draw(st.integers(2, 3))
    relations = []
    for _ in range(draw(st.integers(1, 3))):
        words = list(itertools.product(range(k), repeat=draw(st.integers(2, 3))))
        support = draw(st.lists(st.sampled_from(words), min_size=1, max_size=4, unique=True))
        coeffs = draw(st.lists(st.integers(-3, 3).filter(bool),
                               min_size=len(support), max_size=len(support)))
        relations.append(NCPoly({w: F(c) for w, c in zip(support, coeffs)}))
    return Presentation("xyz"[:k], relations), draw(st.integers(3, 6))


class TestSpanOracle:
    @staticmethod
    def assert_matches_span(cache, span, pres, cap):
        for d in range(cap + 1):
            assert cache.dim(d) == span.dim(d)
            assert cache.retained_words(d) == span.retained_words(d)
        for d in range(min(cap, 5) + 1):
            for w in itertools.product(range(pres.num_generators), repeat=d):
                f = NCPoly.monomial(w)
                assert cache.normal_form(f) == span.normal_form(f)

    @settings(max_examples=200, deadline=None)
    @given(small_presentations())
    @example((Presentation("xy", ()), 6))
    def test_matches_span_build(self, case):
        pres, cap = case
        span = SpanQuotient(pres, cap)
        self.assert_matches_span(QuotientCache(pres, cap), span, pres, cap)
        assert minimal_relation_degrees(pres, cap) == span.minimal_relation_degrees()

    @settings(max_examples=200, deadline=None)
    @given(small_presentations())
    @example((Presentation("xy", ()), 6))
    def test_grown_matches_span_build(self, case):
        # the same presentation grown from cap 0, its relations added one
        # degree at a time
        pres, cap = case
        cache = QuotientCache(Presentation(pres.names, ()), 0)
        for d in range(1, cap + 1):
            cache.grow()
            cache.add_relations(f for f in pres.relations if f.degree() == d)
        assert cache.cap == cap
        assert sorted(map(repr, cache.pres.relations)) == \
            sorted(repr(f) for f in pres.relations if f.degree() <= cap)
        self.assert_matches_span(cache, SpanQuotient(pres, cap), pres, cap)

    def test_add_relations_rejects_other_degrees(self):
        cache = QuotientCache(Presentation("xy", ()), 2)
        with pytest.raises(ValueError, match="degree 2"):
            cache.add_relations([NCPoly.monomial((0, 1, 1))])
        assert cache.pres.relations == () and cache.dim(2) == 4
