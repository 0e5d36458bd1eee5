"""End-to-end chain on a three-generator skew instance: extraction of the
Heisenberg-type element from the color Lie algebra, nonexistence of long
torsionfree modules over its enveloping algebra, agreement of the point
sets with the degree-one symmetric side, and the coordinate-line variety.
"""

from random import Random

from ncpoint.colorlie import (
    check_color_axioms,
    degree_one_omega,
    epsilon_symmetric,
    heisenberg_from_color,
    koszul_complex,
    koszul_verify,
    n_invariant,
    skew_point_variety,
    u_presentation,
)
from ncpoint.freealg import poly_to_str
from ncpoint.normal import is_q_heisenberg
from ncpoint.points import (
    compare_point_sets,
    torsionfree_search,
)
from ncpoint.quotient import QuotientCache, hilbert, minimal_relation_degrees
from ncpoint.veronese import weyl_witness

from conftest import load_colorlie


def pbw_count_oracle(d):
    """Multisets over degrees (1, 1, 1, 2) with total d."""
    return sum((d - 2 * j + 2) * (d - 2 * j + 1) // 2 for j in range(d // 2 + 1))


def test_three_generator_skew_chain():
    L = load_colorlie("heisenberg3_skew.cl")
    ok, violations = check_color_axioms(L)
    assert ok, violations
    assert n_invariant(L) == 2

    pres = u_presentation(L, 5).pres
    rel_texts = {poly_to_str(f, pres.names) for f in pres.relations}
    assert rel_texts == {"x*z - 3*z*x", "y*z - 5*z*y",
                         "x*x*y - 4*x*y*x + 4*y*x*x",
                         "x*y*y - 4*y*x*y + 4*y*y*x"}
    assert hilbert(pres, 5) == [pbw_count_oracle(d) for d in range(6)]
    counts = minimal_relation_degrees(pres, 5)
    assert counts == {2: 2, 3: 2}
    assert max(counts) <= 2 * n_invariant(L) - 1

    res = heisenberg_from_color(L)
    assert res.kind == "witness" and res.witness.u == 2
    cache = QuotientCache(res.cache.pres, 6)
    assert is_q_heisenberg(cache, res.witness).ok
    assert weyl_witness(cache, res.witness).ok

    g = res.witness.g
    empty = torsionfree_search(pres, g, 4, random_seeds=30, generic=True, seed=0)
    assert empty.found is None
    found = torsionfree_search(pres, g, 3, random_seeds=10, generic=True, seed=0)
    assert found.found is not None

    side = epsilon_symmetric(L)
    rep = compare_point_sets(pres, side, 4, 80, Random(0))
    assert len(rep.left_only) == 0 and len(rep.right_only) == 0

    thetas = L.theta_indices()
    omega = [[L.eps.eval(L.degrees[i], L.degrees[j]) for j in thetas]
             for i in thetas]
    assert degree_one_omega(L) == omega
    assert set(skew_point_variety(omega)) == {
        frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2})}

    report = koszul_verify(koszul_complex(L, L.dim, 5))
    assert report.ok_d_squared and report.ok_exact, report.failures
