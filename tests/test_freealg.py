import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncpoint.colorlie import parse_colorlie
from ncpoint.freealg import (
    NCPoly,
    ParseError,
    Presentation,
    parse_algebra,
    parse_poly,
    poly_to_str,
    serialize_algebra,
)
from ncpoint.scalars import Rational, T, ScalarParseError, parse_scalar

from conftest import fixture_path
from span_quotient import homogeneous_parts

F = Rational
NAMES = ("x", "y")


def P(text: str) -> NCPoly:
    return parse_poly(text, NAMES)


class TestPolyMul:
    def test_word_concatenation(self):
        assert P("x*y") * P("x") == P("x*y*x")

    def test_expansion(self):
        assert P("x - y") * P("x + y") == P("x*x + x*y - y*x - y*y")

    def test_hand_expansion_of_square(self):
        # (xy - 2yx)^2 expanded by hand
        g = P("x*y - 2*y*x")
        expected = P("x*y*x*y - 2*x*y*y*x - 2*y*x*x*y + 4*y*x*y*x")
        assert g * g == expected

    def test_degree_adds(self):
        assert (P("x*y") * P("y")).degree() == 3

    def test_zero_absorbs(self):
        assert not (P("x") - P("x")) * P("y")


class TestNCPoly:
    def test_no_stored_zeros(self):
        p = P("x*y") - P("x*y")
        assert p.terms == {}

    def test_homogeneous_parts(self):
        p = P("x") + P("x*y")
        parts = homogeneous_parts(p)
        assert set(parts) == {1, 2}
        assert parts[1] == P("x")

    def test_scale_by_rational(self):
        assert P("x*y").scale(F(1, 2)) == P("1/2*x*y")

    def test_scale_by_ratfunc(self):
        assert P("x*y").scale(T) == parse_poly("t*x*y", NAMES)

    @pytest.mark.parametrize("s", [2, F(2), T], ids=["int", "Rational", "RatFunc"])
    def test_star_refuses_a_scalar(self, s):
        # `scale` is the one way to multiply by a scalar, on either side
        with pytest.raises(TypeError):
            P("x") * s
        with pytest.raises(TypeError):
            s * P("x")


class TestParsing:
    def test_relation_syntax(self):
        p = P("x*x*y - 4*x*y*x + 4*y*x*x")
        assert p.terms[(0, 0, 1)] == 1
        assert p.terms[(0, 1, 0)] == -4
        assert p.terms[(1, 0, 0)] == 4

    def test_powers(self):
        assert P("x^3*y") == P("x*x*x*y")

    def test_coefficients(self):
        p = parse_poly("1/2*x*y + (t+1)*y*x", NAMES)
        assert p.terms[(0, 1)] == F(1, 2)

    def test_round_trip(self):
        for text in ["x*y - 2*y*x", "x*x*y - 4*x*y*x + 4*y*x*x",
                     "x*y*y + 2*y*x*y + y*y*x"]:
            p = P(text)
            assert parse_poly(poly_to_str(p, NAMES), NAMES) == p

    def test_parse_error_position(self):
        with pytest.raises(ParseError):
            P("x*?")
        with pytest.raises(ParseError):
            P("x*z")  # unknown generator

    def test_truncated_input_reports_end_of_input(self):
        with pytest.raises(ParseError, match=r"^unexpected end of input \(line 2, col 4\)$"):
            parse_algebra("generators: x y\nrelation: x*y*\n")

    @pytest.mark.parametrize("text,message,col", [
        ("x^-1", "generator exponent must be a positive integer", 2),
        ("x^0", "generator exponent must be a positive integer", 2),
        ("x^t", "generator exponent must be a positive integer", 2),
        ("x^", "generator exponent must be a positive integer", 2),
        ("x^-1001", "generator exponent must be a positive integer", 2),
        ("x^(2)", "generator exponent must be a positive integer", 2),
        ("x^1001", "exponent 1001 exceeds 1000", 2),
        ("t^1001*x", "exponent 1001 exceeds 1000", 2),
        ("t^-", "exponent must be an integer", 3),
        ("2^x", "exponent must be an integer", 2),
        ("x*", "unexpected end of input", 2),
        ("x+", "unexpected end of input", 2),
        ("-", "unexpected end of input", 1),
        ("", "unexpected end of input", 0),
        ("x*/y", "unexpected token '/'", 2),
        ("q", "unexpected token 'q'", 0),
        ("x y", "trailing input", 2),
        ("x^2^2", "trailing input", 3),
        ("x)", "trailing input", 1),
        ("(t+1", "missing closing parenthesis", 0),
        ("1/0*x", "division by zero coefficient", 0),
        ("x^1.5", "unexpected character '.'", 3),
    ])
    def test_error_message_and_column(self, text, message, col):
        with pytest.raises(ParseError) as info:
            P(text)
        assert (str(info.value), info.value.col) == (message, col)


# the tokenizer's alphabet (four of its digits), one undeclared name and
# one stray character; at most 8 symbols keep nested powers of t below
# degree 1,000
_SYMBOLS = st.sampled_from(list("0129t^*/+-() .") + ["x", "y", "q"])


@settings(max_examples=1000, deadline=None)
@given(st.lists(_SYMBOLS, max_size=8).map("".join))
def test_parsers_raise_only_parse_errors(text):
    """Malformed input is refused with the parser's own error type."""
    try:
        P(text)
    except ParseError:
        pass
    try:
        parse_scalar(text)
    except ScalarParseError:
        pass


class TestPresentation:
    def test_rejects_inhomogeneous_relation(self):
        with pytest.raises(ValueError):
            Presentation(NAMES, [P("x*y - x")])

    def test_rejects_degree_one_relation(self):
        with pytest.raises(ValueError):
            Presentation(NAMES, [P("x - y")])

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError):
            Presentation(("x", "x"), [])

    def test_rejects_generator_named_t(self):
        with pytest.raises(ValueError):
            Presentation(("t", "y"), [])


class TestAlgebraFiles:
    @pytest.mark.parametrize("name", [
        "downup_2_-1.alg", "downup_4_-4.alg", "d_2_1.alg",
        "quantum_plane_2.alg", "commutative_plane.alg", "free_2.alg",
    ])
    def test_round_trip(self, name):
        text = fixture_path(name).read_text()
        pres = parse_algebra(text)
        again = parse_algebra(serialize_algebra(pres))
        assert again == pres
        # serialize is a fixed point after one pass
        assert serialize_algebra(again) == serialize_algebra(pres)

    def test_parse_error_carries_line(self):
        bad = "generators: x y\nrelation: x*y -\n"
        with pytest.raises(ParseError) as exc:
            parse_algebra(bad)
        assert exc.value.line == 2

    def test_relation_before_generators(self):
        with pytest.raises(ParseError):
            parse_algebra("relation: x*y\n")

    def test_unknown_scalar_variant_names_its_line(self):
        with pytest.raises(ParseError, match=r"^unknown scalar variant 'complex' \(line 3\)$"):
            parse_algebra("# comment\ngenerators: x y\nscalar: complex\n")

    @pytest.mark.parametrize("parse, text", [
        (parse_algebra, "generators: x y\nx*y - y*x\n"),
        (parse_colorlie, "rank: 1\n[x,x] = 0\n"),
    ], ids=["alg", "cl"])
    def test_line_without_key_names_its_line(self, parse, text):
        # both file formats are read by the one directive reader
        with pytest.raises(ParseError, match=r"^expected 'key: value' \(line 2\)$"):
            parse(text)

    @pytest.mark.parametrize("parse, text, message", [
        (parse_algebra, "generators: x y\nrelation: x*y - y*x\ngenerators: a b c\n",
         "repeated 'generators' line (line 3)"),
        (parse_colorlie, "rank: 2\nbasis: x:(1,0)\nrank: 3\n", "repeated 'rank' line (line 3)"),
        (parse_colorlie, "rank: 1\nbasis: x:(1)\nbasis: y:(1)\nomega: 1\n"
         "bracket: [x,y] = 0\n# again\nbracket: [x, y] = 0\n",
         "repeated bracket [x,y] (line 7)"),
    ], ids=["generators", "rank", "bracket"])
    def test_repeated_directive_names_its_line(self, parse, text, message):
        # a second line would silently replace what the first one set
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert str(exc.value) == message

    def test_scalar_line_follows_the_coefficients(self):
        # the declared variant is checked, not stored: serializing states
        # whether a coefficient uses t
        pres = parse_algebra("generators: x y\nscalar: rational\nrelation: x*y - t*y*x\n")
        assert serialize_algebra(pres).splitlines()[1] == "scalar: rational-function"
        plain = parse_algebra("generators: x y\nscalar: rational-function\nrelation: x*y\n")
        assert serialize_algebra(plain).splitlines()[1] == "scalar: rational"
