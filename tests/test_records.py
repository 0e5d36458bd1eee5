"""The result records are plain classes: each instance gets its own
containers, and `HeisenbergWitness` validates in its constructor."""

from fractions import Fraction as F

import pytest

from ncpoint.colorlie import KoszulComplex, KoszulReport
from ncpoint.freealg import parse_poly
from ncpoint.normal import HeisenbergReport, HeisenbergWitness, NuAutomorphism, nu_automorphism
from ncpoint.points import CompareReport, ProjLinearFiber, StabilizeReport, TorsionfreeReport
from ncpoint.quotient import QuotientCache
from ncpoint.reports import RunReport
from ncpoint.veronese import WeylCertificate

NAMES = ("x", "y")


def poly(text):
    return parse_poly(text, NAMES)


@pytest.mark.parametrize("make,fields", [
    (lambda: RunReport("ncpoint hilbert"), ["lines"]),
    (lambda: TorsionfreeReport(3), ["seeds_tried", "fiber_dims_seen", "special_values"]),
    (lambda: CompareReport(3), ["left_only", "right_only"]),
    (lambda: StabilizeReport(), ["per_length"]),
    (lambda: KoszulReport(True, True), ["failures"]),
    (lambda: HeisenbergReport(None, True), ["clauses"]),
    (lambda: WeylCertificate(True, True), ["entries"]),
    (lambda: KoszulComplex(None, 1, 2), ["bases", "matrices"]),
    (lambda: ProjLinearFiber([]), ["special_values"]),
], ids=["RunReport", "TorsionfreeReport", "CompareReport", "StabilizeReport", "KoszulReport",
        "HeisenbergReport", "WeylCertificate", "KoszulComplex", "ProjLinearFiber"])
def test_default_containers_are_per_instance(make, fields):
    first, second = make(), make()
    for name in fields:
        mine, theirs = getattr(first, name), getattr(second, name)
        assert isinstance(mine, (list, dict, set)) and not mine
        assert mine is not theirs


def test_nu_powers_are_per_instance(downup_4_4):
    cache = QuotientCache(downup_4_4, 4)
    g = parse_poly("x*y - 2*y*x", downup_4_4.names)
    first, second = nu_automorphism(cache, g), nu_automorphism(cache, g)
    assert first._powers is not second._powers
    first.apply(poly("x*y"), 2)
    assert 2 in first._powers and 2 not in second._powers
    assert NuAutomorphism(second.images, second.inverse)._powers.keys() == {-1, 0, 1}


@pytest.mark.parametrize("g,x,y,u,message", [
    ("x*y - y*x + x", "x", "y", F(1), "g must be homogeneous of degree >= 1"),
    ("x*y - y*x", "x*y", "y", F(1), "x must be homogeneous of degree 1"),
    ("x*y - y*x", "x", "y*y", F(1), "y must be homogeneous of degree n - 1"),
    ("x*y - y*x", "x", "y", F(0), "u must be nonzero"),
], ids=["g", "x", "y", "u"])
def test_witness_constructor_validates(g, x, y, u, message):
    with pytest.raises(ValueError, match=message):
        HeisenbergWitness(g=poly(g), x=poly(x), y=poly(y), u=u)
