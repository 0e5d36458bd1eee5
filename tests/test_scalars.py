from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncpoint.scalars import (
    RatFunc,
    ScalarParseError,
    SpecializationError,
    T,
    make_ratfunc,
    parse_scalar,
    poly_rational_roots,
    scalar_to_str,
    sc_inv,
    sc_pow,
)

F = Fraction

fractions = st.fractions(min_value=-50, max_value=50, max_denominator=12)
nonzero_fractions = fractions.filter(bool)


def small_ratfunc(num_coeffs, den_coeffs):
    num = tuple(F(c) for c in num_coeffs)
    den = tuple(F(c) for c in den_coeffs)
    return make_ratfunc(num, den)


scalars = st.one_of(
    fractions,
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
        assert isinstance(v, Fraction)
        assert v == 1

    def test_monic_denominator(self):
        r = (T + 1) / (2 * T)
        assert isinstance(r, RatFunc)
        assert r.den[-1] == 1

    def test_reduced(self):
        r = (T * T - 1) / (T * T + 2 * T + 1)  # (t-1)/(t+1)
        assert scalar_to_str(r) == "(t-1)/(t+1)"

    def test_pow(self):
        assert sc_pow(T, 0) == 1
        assert sc_pow(F(2), -3) == F(1, 8)
        assert sc_pow(T + 1, -1) * (T + 1) == 1


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
