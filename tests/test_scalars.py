import math
import operator
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncpoint.scalars import (
    MAX_EXPONENT,
    MAX_NESTING,
    RatFunc,
    Rational,
    ScalarParseError,
    SpecializationError,
    T,
    int_pair,
    make_ratfunc,
    parse_scalar,
    poly_eval,
    poly_gcd,
    poly_mul,
    poly_rational_roots,
    primitive_integers,
    scalar_to_str,
    sc_inv,
    sc_pow,
)

import ratfunc_reference as ref
from conftest import rationals
from ratfunc_reference import package, reference

F = Rational

small_rationals = rationals(min_value=-50, max_value=50, max_denominator=12)


def small_ratfunc(num_coeffs, den_coeffs):
    num = tuple(F(c) for c in num_coeffs)
    den = tuple(F(c) for c in den_coeffs)
    return make_ratfunc(num, den)


scalars = st.one_of(
    small_rationals,
    st.builds(
        small_ratfunc,
        st.lists(st.integers(-5, 5), min_size=1, max_size=3),
        st.lists(st.integers(-5, 5), min_size=1, max_size=3).filter(
            lambda cs: any(cs)),
    ),
)


class TestFieldAxioms:
    @settings(max_examples=200, deadline=None)
    @given(scalars, scalars, scalars)
    def test_associativity_and_distributivity(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=100, deadline=None)
    @given(scalars, scalars)
    def test_commutativity(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @settings(max_examples=100, deadline=None)
    @given(scalars)
    def test_inverse(self, a):
        if not a:
            return
        assert a * sc_inv(a) == 1


class TestCanonicalForm:
    def test_constant_ratfunc_demotes_to_fraction(self):
        v = (T * T - 1) / (T - 1) - T  # collapses to the constant 1
        assert isinstance(v, Rational)
        assert v == 1

    def test_monic_denominator(self):
        # held as a primitive integer pair, shown over a monic denominator
        r = (T + 1) / (2 * T)
        assert isinstance(r, RatFunc)
        assert int_pair(r) == ((1, 1), (0, 2))
        assert scalar_to_str(r) == "(1/2*t+1/2)/(t)"

    def test_reduced(self):
        r = (T * T - 1) / (T * T + 2 * T + 1)  # (t-1)/(t+1)
        assert scalar_to_str(r) == "(t-1)/(t+1)"

    def test_pow(self):
        assert sc_pow(T, 0) == 1
        assert sc_pow(F(2), -3) == F(1, 8)
        assert sc_pow(T + 1, -1) * (T + 1) == 1

    @settings(max_examples=60, deadline=None)
    @given(scalars, st.integers(-9, 9))
    def test_pow_is_repeated_product(self, a, k):
        if not a and k < 0:
            return
        base = a if k >= 0 else sc_inv(a)
        want = F(1)
        for _ in range(abs(k)):
            want = want * base
        assert sc_pow(a, k) == want


class TestSerialization:
    @pytest.mark.parametrize("text", [
        "2", "-1/3", "t", "3*t^2-1", "(t^2-1)/(2*t)", "(t)/(t^2+1)", "1/2",
    ])
    def test_round_trip(self, text):
        v = parse_scalar(text)
        assert parse_scalar(scalar_to_str(v)) == v

    def test_parse_errors(self):
        with pytest.raises(ScalarParseError):
            parse_scalar("2 +")
        with pytest.raises(ScalarParseError):
            parse_scalar("q")
        with pytest.raises(ScalarParseError):
            parse_scalar("1/0")

    @pytest.mark.parametrize("text,pos", [("t^1001", 2), ("(t+1)^-3000000", 7),
                                          ("2*t^2000", 4)])
    def test_exponent_bound(self, text, pos):
        with pytest.raises(ScalarParseError, match="exceeds") as info:
            parse_scalar(text)
        assert info.value.pos == pos

    @pytest.mark.parametrize("text,message,pos", [
        ("t^-", "exponent must be an integer", 3),
        ("t^", "exponent must be an integer", 2),
        ("t^--1", "exponent must be an integer", 3),
        ("t^(2)", "exponent must be an integer", 2),
        ("2^x", "exponent must be an integer", 2),
        ("t^-1001", "exponent 1001 exceeds 1000", 3),
        ("(t+1", "missing closing parenthesis", 0),
        ("1/0", "division by zero in scalar literal", None),
        ("x", "unknown symbol 'x' in scalar", 0),
        ("1 2", "trailing input in scalar literal", 2),
        ("*", "unexpected token '*' in scalar", 0),
        ("", "unexpected end of input in scalar", 0),
        ("1+", "unexpected end of input in scalar", 2),
        # a negative power of zero is refused before Rational divides by it
        ("0^-1", "division by zero in scalar literal", 0),
        ("2*(t-t)^-2", "division by zero in scalar literal", 2),
    ])
    def test_error_message_and_position(self, text, message, pos):
        with pytest.raises(ScalarParseError) as info:
            parse_scalar(text)
        assert (str(info.value), info.value.pos) == (message, pos)

    def test_exponent_at_bound(self):
        assert int_pair(parse_scalar(f"t^{MAX_EXPONENT}")) == ((0,) * MAX_EXPONENT + (1,), (1,))
        assert parse_scalar(f"(1/3)^{MAX_EXPONENT}") == F(1, 3 ** MAX_EXPONENT)
        assert parse_scalar("((t+1)^-20)^-50") == (T + 1) ** 1000

    @pytest.mark.parametrize("open_,close,sign,pos", [("(", ")", 1, MAX_NESTING),
                                                     ("-", "", -1, MAX_NESTING + 1)],
                             ids=["parentheses", "minus-signs"])
    def test_nesting_is_bounded(self, open_, close, sign, pos):
        # a leading '-' belongs to the sum, so one more sign fits
        depth = MAX_NESTING + (open_ == "-")
        assert parse_scalar(open_ * depth + "2" + close * depth) == 2 * sign ** depth
        with pytest.raises(ScalarParseError) as info:
            parse_scalar(open_ * 3000 + "2" + close * 3000)
        message = f"parentheses and signs nest deeper than {MAX_NESTING}"
        assert (str(info.value), info.value.pos) == (message, pos)

    @pytest.mark.parametrize("text,message,pos", [
        ("((t+1)^100)^100", "power of degree 10000 exceeds 1000", 0),
        ("(t^1000)^2", "power of degree 2000 exceeds 1000", 0),
        ("2*(1/(t^2+1))^-501", "power of degree 1002 exceeds 1000", 2),
        ("((2^1000)^1000)^1000", "power of 1001000 bits exceeds 64000", 1),
        ("(2^1000/3)^64", "power of 64064 bits exceeds 64000", 0),
    ])
    def test_power_of_a_power_is_bounded(self, text, message, pos):
        # refused at the base, before the power is computed
        with pytest.raises(ScalarParseError) as info:
            parse_scalar(text)
        assert (str(info.value), info.value.pos) == (message, pos)


class TestRootsAndSpecialization:
    def test_rational_roots(self):
        # t^2 + t - 2 = (t + 2)(t - 1)
        assert poly_rational_roots((F(-2), F(1), F(1))) == [F(-2), F(1)]
        # 2t^3: root 0 only
        assert poly_rational_roots((F(0), F(0), F(0), F(2))) == [F(0)]
        # 6t^2 - 5t + 1 = (2t-1)(3t-1)
        assert poly_rational_roots((F(1), F(-5), F(6))) == [F(1, 3), F(1, 2)]

    def test_specialize(self):
        r = (T * T - 1) / (2 * T)
        assert r.eval_at(F(3)) == F(4, 3)
        with pytest.raises(SpecializationError):
            (1 / T).eval_at(F(0))


def reference_rational_roots(a):
    """Rational-root theorem by trial division: every +-p/q with p | a_0 and
    q | a_n, evaluated exactly.  The test oracle for the closed forms
    and the Sturm isolation of `poly_rational_roots`."""
    def divisors(n):
        n = abs(n)
        return sorted({d for i in range(1, math.isqrt(n) + 1) if n % i == 0
                       for d in (i, n // i)})

    roots = set()
    k = 0
    while a[k] == 0:
        k += 1
    if k:
        roots.add(F(0))
        a = a[k:]
    if len(a) == 1:
        return sorted(roots)
    lcm = math.lcm(*(c.denominator for c in a))
    ints = [(c * lcm).numerator for c in a]
    for p in divisors(ints[0]):
        for q in divisors(ints[-1]):
            for cand in (F(p, q), F(-p, q)):
                if poly_eval(a, cand) == 0:
                    roots.add(cand)
    return sorted(roots)


small_roots = rationals(min_value=-4, max_value=4, max_denominator=3)
small_coeffs = rationals(min_value=-5, max_value=5, max_denominator=3)
linear_factors = st.builds(lambda r, c: (-c * r, c), small_roots, small_coeffs.filter(bool))
quadratic_factors = st.tuples(small_coeffs, small_coeffs, small_coeffs.filter(bool))


@st.composite
def factored_polys(draw):
    """Products of rational linear factors and random quadratics, degree 1-6."""
    poly = (draw(small_coeffs.filter(bool)),)
    for factor in draw(st.lists(st.one_of(linear_factors, quadratic_factors),
                                min_size=1, max_size=4)):
        if len(poly) + len(factor) - 2 <= 6:
            poly = poly_mul(poly, factor)
    return poly


class TestRationalRootsOracle:
    @settings(max_examples=200, deadline=None)
    @given(factored_polys())
    def test_matches_trial_division(self, a):
        assert poly_rational_roots(a) == reference_rational_roots(a)

    @pytest.mark.parametrize("a", [
        (F(0), F(3)),                              # 3t: the zero root alone
        (F(0), F(0), F(-1, 2), F(1, 4)),           # t^2 (t/4 - 1/2)
        (F(1, 4), F(-1), F(1)),                    # (t - 1/2)^2: zero discriminant
        (F(-4, 9), F(0), F(0), F(0), F(0), F(1, 9)),  # t^5/9 - 4/9: no rational root
        (F(-1), F(3), F(-3), F(1)),                # (t - 1)^3
        (F(2), F(0), F(3)),                        # 3t^2 + 2: negative discriminant
        (F(6, 5), F(-1, 3), F(-7, 2), F(5, 3)),   # non-monic, fractional
        (F(-8), F(0), F(0), F(27)),               # 27t^3 - 8
    ])
    def test_edge_cases(self, a):
        assert poly_rational_roots(a) == reference_rational_roots(a)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-9, 9), min_size=4, max_size=7).filter(lambda cs: cs[-1]))
    def test_integer_polys_of_degree_3_up(self, cs):
        # mostly irreducible: no candidate may pass for an irrational root
        a = tuple(F(c) for c in cs)
        assert poly_rational_roots(a) == reference_rational_roots(a)

    def test_large_cubic_pivot(self):
        # a pivot of a walk whose constant term has 33 digits, which trial
        # division up to its square root could not finish
        a = (285791672668291708392250096026000, -9025000186516667945208336245400,
             190000002596666675470, -1000000007)
        assert poly_rational_roots(a) == [F(95000000570)]


def int_polys(max_size=4):
    """Trimmed integer polynomials, the zero polynomial included."""
    return st.lists(st.integers(-6, 6), max_size=max_size).map(
        lambda cs: ref.poly_add(tuple(cs), ()))


def same_up_to_scale(a, b) -> bool:
    """a and b are nonzero rational multiples of each other."""
    return len(a) == len(b) and all(x * b[-1] == y * a[-1] for x, y in zip(a, b))


class TestGcdConstant:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(-9, 9).filter(bool), int_polys())
    def test_constant_argument_matches_euclid(self, c, b):
        # a nonzero constant divides everything
        assert poly_gcd((c,), b) in ((1,), (-1,)) and ref.euclid_gcd((c,), b) == (1,)
        if b:
            assert poly_gcd(b, (c,)) == (1,) and ref.euclid_gcd(b, (c,)) == (1,)


class TestGcdOracle:
    @settings(max_examples=150, deadline=None)
    @given(int_polys(3).filter(any), int_polys(), int_polys())
    def test_matches_euclid_up_to_scale(self, common, a, b):
        # a shared factor, so the gcd is often not constant
        a, b = ref.poly_mul(a, common), ref.poly_mul(b, common)
        if a and b:
            g = poly_gcd(a, b)
            assert all(type(c) is int for c in g) and math.gcd(*g) == 1
            assert same_up_to_scale(g, ref.euclid_gcd(a, b))


# degree <= 3 over small fractions: the reference's Euclid stays fast
ref_coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3)
ref_polys = st.lists(ref_coeffs, min_size=1, max_size=4).map(tuple)


# integer polynomials over the denominator 1: RatFunc's polynomial fast path
ref_int_polys = st.lists(st.integers(-4, 4).map(Fraction), min_size=1, max_size=4).map(tuple)


@st.composite
def ref_operands(draw):
    """One value built both ways, with the Fraction pair it was built from:
    in three examples of four a polynomial with integer coefficients, over 1."""
    if draw(st.integers(0, 3)):
        num, den = draw(ref_int_polys), (Fraction(1),)
    else:
        num, den = draw(ref_polys), draw(ref_polys.filter(any))
    return make_ratfunc(package(num), package(den)), ref.make_ratfunc(num, den), num, den


def agree(fast, slow) -> bool:
    """Same kind, the same value as a primitive integer pair with lead(D) > 0
    and as a monic Fraction pair, and the same text."""
    if isinstance(slow, ref.RatFunc):
        n, d = int_pair(fast)
        return (isinstance(fast, RatFunc) and math.gcd(*n, *d) == 1 and d[-1] > 0
                and all(type(c) is int for c in n + d)
                and ref.monic_pair(fast) == (slow.num, slow.den)
                and scalar_to_str(fast) == ref.scalar_to_str(slow))
    return type(fast) is Rational and reference(fast) == slow and scalar_to_str(fast) == str(slow)


class TestReferenceOracle:
    """The integer-pair RatFunc against the Fraction-pair reference."""

    @settings(max_examples=200, deadline=None)
    @given(ref_operands(), ref_operands(),
           st.fractions(min_value=-50, max_value=50, max_denominator=12).filter(bool),
           st.integers(-4, 4),
           st.fractions(min_value=-3, max_value=3, max_denominator=4), st.integers(-3, 3))
    def test_matches_fraction_pairs(self, a, b, c, k, value, n):
        (fa, ra, _, _), (fb, rb, _, _) = a, b
        assert agree(fa, ra) and agree(fb, rb)
        # an int and an integral Rational are polynomials over 1, like c when integral
        for x, y, rx, ry in ((fa, fb, ra, rb), (fa, package(c), ra, c), (package(c), fa, c, ra),
                             (fa, n, ra, n), (n, fa, n, ra), (fa, F(n), ra, Fraction(n))):
            for op in (operator.add, operator.sub, operator.mul):
                assert agree(op(x, y), op(rx, ry))
            if y:
                assert agree(x / y, rx / ry)
        if fa:
            assert agree(sc_inv(fa), ref.sc_inv(ra))
            assert agree(sc_pow(fa, k), ra ** k)
        if isinstance(ra, ref.RatFunc):
            try:
                want = ra.eval_at(value)
            except SpecializationError:
                with pytest.raises(SpecializationError):
                    fa.eval_at(package(value))
            else:
                assert reference(fa.eval_at(package(value))) == want

    @settings(max_examples=60, deadline=None)
    @given(ref_operands(), ref_polys.filter(any), ref_operands())
    def test_equal_values_hash_equal(self, a, common, b):
        fa, _, num, den = a
        fb = b[0]
        # the same value from a scaled pair, and through a product and quotient
        for same in (make_ratfunc(*package((ref.poly_mul(num, common), ref.poly_mul(den, common)))),
                     fa * fb / fb if fb else fa):
            assert same == fa and hash(same) == hash(fa)


class TestPolynomialFastPath:
    """Sums and products of two polynomials skip the content step: they
    stay canonical, and a constant result is a Rational.  The Fraction-pair
    oracle above draws such operands in most examples."""

    @pytest.mark.parametrize("value,want", [
        ((T + 1) + (-T), F(1)), (T * T - T * (T + 2), F(-2) * T), ((2 * T) * 0, F(0)),
        ((T + 1) * (T - 1) - T * T, F(-1)), (T * F(3) + T * -3, F(0)), (T - T, F(0)),
        ((2 * T + 4) * F(1, 2), T + 2), ((T + 1) * (T + 1), T * T + 2 * T + 1),
    ], ids=["sum-const", "product-diff", "times-0", "difference-const", "int-cancel",
            "self-difference", "half", "square"])
    def test_named_cases(self, value, want):
        assert value == want and type(value) is type(want)
        if isinstance(value, RatFunc):
            n, d = int_pair(value)
            assert d == (1,) and all(type(c) is int for c in n)


class TestIntOperands:
    """The integer walk hands RatFunc plain int operands: each result
    equals the one with the same value as a Rational."""

    @pytest.mark.parametrize("op", [
        lambda a: T * a, lambda a: a * T, lambda a: T + a, lambda a: a - T,
        lambda a: a / T, lambda a: T / a, lambda a: T == a,
    ], ids=["T*3", "3*T", "T+3", "3-T", "3/T", "T/3", "T==3"])
    def test_matches_fraction_operand(self, op):
        got, want = op(3), op(F(3))
        assert got == want and type(got) is type(want)

    def test_named_cases(self):
        assert T * 3 == 3 * T == T * F(3)
        assert T + 2 == T + F(2) and 2 - T == F(2) - T
        assert 3 / T == F(3) / T and T / 3 == T / F(3)
        assert (T == 3) is False


class TestPrimitiveIntegers:
    def test_one_common_scale(self):
        assert primitive_integers((F(1, 2), F(-1, 3)), (F(2, 3),)) == [(3, -2), (4,)]
        assert primitive_integers((4, -6), (10,)) == [(2, -3), (5,)]
        assert primitive_integers((F(4), 6), negate=True) == [(-2, -3)]

    def test_zero_vectors_stay_zero(self):
        assert primitive_integers((F(0), F(0))) == [(0, 0)]
        assert primitive_integers((), (F(2), F(4))) == [(), (1, 2)]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(small_rationals, min_size=1, max_size=3), min_size=1, max_size=3),
           st.booleans())
    def test_integers_with_gcd_one(self, vecs, negate):
        out = primitive_integers(*vecs, negate=negate)
        flat = [c for v in out for c in v]
        assert all(type(c) is int for c in flat)
        if any(c for v in vecs for c in v):
            assert math.gcd(*flat) == 1
            # one scale for all: every entry is the same multiple of its input
            scales = {F(c) / x for v, w in zip(out, vecs) for c, x in zip(v, w) if x}
            assert len(scales) == 1 and (scales.pop() < 0) == negate


# small ints, and ints of a few hundred bits, where gcds and hashes wrap
ints = st.one_of(st.integers(-30, 30), st.integers(-2 ** 300, 2 ** 300))
nonzero_ints = ints.filter(bool)
pairs = st.tuples(ints, nonzero_ints)


def same(got, want: Fraction) -> bool:
    """got is the Rational of want's value, in lowest terms."""
    return type(got) is Rational and (got.numerator, got.denominator) == \
        (want.numerator, want.denominator)


class TestRationalAgainstFraction:
    """`Rational` against `fractions.Fraction`, its oracle."""

    @settings(max_examples=300, deadline=None)
    @given(pairs, pairs, ints, st.integers(-6, 6))
    def test_arithmetic(self, a, b, n, k):
        (ra, fa), (rb, fb) = (Rational(*a), Fraction(*a)), (Rational(*b), Fraction(*b))
        assert same(ra, fa) and same(rb, fb)
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            for x, y, fx, fy in ((ra, rb, fa, fb), (ra, n, fa, n), (n, ra, n, fa)):
                if fy or op is not operator.truediv:
                    assert same(op(x, y), op(fx, fy))
                else:
                    with pytest.raises(ZeroDivisionError):
                        op(x, y)
        assert same(-ra, -fa) and same(abs(ra), abs(fa)) and bool(ra) == bool(fa)
        if fa or k >= 0:
            assert same(ra ** k, fa ** k)
        else:
            with pytest.raises(ZeroDivisionError):
                ra ** k

    @settings(max_examples=300, deadline=None)
    @given(pairs, pairs, ints)
    def test_comparisons(self, a, b, n):
        (ra, fa), (rb, fb) = (Rational(*a), Fraction(*a)), (Rational(*b), Fraction(*b))
        for op in (operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge):
            assert op(ra, rb) == op(fa, fb)
            assert op(ra, n) == op(fa, n) and op(n, ra) == op(n, fa)
        assert op(ra, ra) == op(fa, fa)

    @settings(max_examples=300, deadline=None)
    @given(pairs, ints, st.integers(1, 2 ** 80))
    def test_hash_str_and_limit_denominator(self, a, n, bound):
        ra, fa = Rational(*a), Fraction(*a)
        assert hash(ra) == hash(fa) and str(ra) == str(fa)
        assert hash(Rational(n)) == hash(n) == hash(Fraction(n))
        assert same(ra.limit_denominator(bound), fa.limit_denominator(bound))
        assert same(ra.limit_denominator(1), fa.limit_denominator(1))

    def test_hash_of_a_denominator_the_modulus_divides(self):
        # no inverse mod the hash modulus: Fraction hashes such a value as inf
        modulus = sys.hash_info.modulus
        for n, d in ((1, modulus), (-3, 2 * modulus), (modulus + 1, modulus)):
            assert hash(Rational(n, d)) == hash(Fraction(n, d))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(pairs, max_size=12))
    def test_sets_and_int_keys_as_with_fraction(self, values):
        # equal hashes: the same set order, and an integral value keys as its int
        fractions = list({Fraction(*v) for v in values})
        assert [(r.numerator, r.denominator) for r in {Rational(*v) for v in values}] == \
            [(f.numerator, f.denominator) for f in fractions]
        keyed = {n: "int" for n in range(-3, 4)}
        keyed.update({Rational(n): "rational" for n in range(4)})
        assert keyed == {n: "int" if n < 0 else "rational" for n in range(-3, 4)}

    def test_zero_division(self):
        for make in (lambda: Rational(1, 0), lambda: Rational(1, 2) / 0,
                     lambda: Rational(1, 2) / Rational(0), lambda: 1 / Rational(0),
                     lambda: Rational(0) ** -1):
            with pytest.raises(ZeroDivisionError):
                make()

    def test_integral_results_stay_rational(self):
        assert type(Rational(1, 2) + Rational(1, 2)) is Rational
        assert type(Rational(3) * 2) is Rational and Rational(6, 2) == 3

    def test_gcd_refuses_a_rational(self):
        # `primitive_integers` finds a Rational entry by this TypeError
        with pytest.raises(TypeError):
            math.gcd(Rational(2), 4)
        with pytest.raises(TypeError):
            math.gcd(Rational(1, 2))
        assert primitive_integers((Rational(1, 2), 3)) == [(1, 6)]
