from fractions import Fraction

import pytest

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

from conftest import fixture_path

F = Fraction
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
        parts = p.homogeneous_parts()
        assert set(parts) == {1, 2}
        assert parts[1] == P("x")

    def test_scale_by_rational(self):
        assert P("x*y").scale(F(1, 2)) == P("1/2*x*y")


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

    def test_scalar_line_follows_the_coefficients(self):
        # the declared variant is checked, not stored: serializing states
        # whether a coefficient uses t
        pres = parse_algebra("generators: x y\nscalar: rational\nrelation: x*y - t*y*x\n")
        assert serialize_algebra(pres).splitlines()[1] == "scalar: rational-function"
        plain = parse_algebra("generators: x y\nscalar: rational-function\nrelation: x*y\n")
        assert serialize_algebra(plain).splitlines()[1] == "scalar: rational"
