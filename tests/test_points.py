import inspect
import itertools
import sys
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncpoint.freealg import parse_poly
from ncpoint.points import (
    compare_point_sets,
    extension_fiber,
    g_action_scalars,
    generic_point,
    is_g_torsionfree_truncated,
    is_truncated_point_module,
    normalize_point,
    sample_modules,
    skew_point_variety,
    specialize_point,
    specialize_points,
    stabilization_check,
    torsionfree_search,
    window_value,
)
from ncpoint.scalars import (
    SpecializationError,
    T,
    denominator_poly,
    make_ratfunc,
    numerator_poly,
    poly_divmod,
    poly_eval,
    poly_gcd,
    poly_mul,
)

F = Fraction


def action_matrix_oracle(pres, pts):
    """Independent validity check: build the (d+1)-dimensional module with
    basis m_0..m_d, let each generator act by x_j . m_i = p^(i+1)_j m_{i+1},
    and evaluate every relation as a product of action matrices."""
    d = len(pts)
    size = d + 1
    mats = []
    for j in range(pres.num_generators):
        m = [[F(0)] * size for _ in range(size)]
        for i in range(d):
            m[i + 1][i] = pts[i][j]
        mats.append(m)

    def mat_mul(a, b):
        return [[sum((a[i][l] * b[l][j] for l in range(size)), F(0))
                 for j in range(size)] for i in range(size)]

    for f in pres.relations:
        total = [[F(0)] * size for _ in range(size)]
        for w, c in f.terms.items():
            prod = [[F(1) if i == j else F(0) for j in range(size)]
                    for i in range(size)]
            for letter in w:
                prod = mat_mul(prod, mats[letter])
            for i in range(size):
                for j in range(size):
                    total[i][j] += c * prod[i][j]
        if any(e for row in total for e in row):
            return False
    return True


class TestWindowEvaluation:
    def test_quantum_plane_valid_pair(self, quantum_plane):
        pts = [(F(1), F(1)), (F(2), F(1))]
        ok, violation = is_truncated_point_module(quantum_plane, pts)
        assert ok and violation is None

    def test_quantum_plane_invalid_pair(self, quantum_plane):
        ok, violation = is_truncated_point_module(
            quantum_plane, [(F(1), F(1)), (F(1), F(1))])
        assert not ok and violation == (0, 0)

    def test_single_point_always_valid(self, downup_4_4):
        ok, _ = is_truncated_point_module(downup_4_4, [(F(3), F(7))])
        assert ok

    def test_zero_point_rejected(self, quantum_plane):
        with pytest.raises(ValueError):
            is_truncated_point_module(quantum_plane, [(F(0), F(0))])

    def test_matches_action_matrix_oracle(self, downup_4_4, quantum_plane):
        rng = Random(0)
        for pres in (downup_4_4, quantum_plane):
            agree = 0
            for _ in range(60):
                pts = [tuple(F(rng.randint(-2, 2)) for _ in range(2))
                       for _ in range(rng.randint(1, 4))]
                if any(not any(p) for p in pts):
                    continue
                ok, _ = is_truncated_point_module(pres, pts)
                assert ok == action_matrix_oracle(pres, pts)
                agree += 1
            assert agree > 30


class TestExtensionFiber:
    def test_quantum_plane_singleton(self, quantum_plane):
        fiber = extension_fiber(quantum_plane, [(F(1), F(1))])
        assert fiber.proj_dim == 0
        assert normalize_point(fiber.basis[0]) == normalize_point((F(2), F(1)))

    def test_free_algebra_full_fiber(self, free_2):
        fiber = extension_fiber(free_2, [(F(1), F(1))])
        assert fiber.proj_dim == 1

    def test_downup_two_equation_system(self, downup_4_4):
        pts = [(F(0), F(1)), (F(1), F(0)), (F(0), F(1))]
        fiber = extension_fiber(downup_4_4, pts)
        # brute check: each basis vector satisfies both cubic windows
        for v in fiber.basis:
            ext = pts + [tuple(v)]
            for f in downup_4_4.relations:
                assert window_value(f, ext, 1) == 0

    def test_fiber_contains_last_point(self, downup_4_4, quantum_plane):
        rng = Random(3)
        for pres in (quantum_plane, downup_4_4):
            for pts in sample_modules(pres, 4, 10, rng):
                fiber = extension_fiber(pres, pts[:-1])
                # last point must lie in the span of the fiber basis
                from ncpoint.linalg import RowReducer
                red = RowReducer()
                for b in fiber.basis:
                    red.insert({i: c for i, c in enumerate(b) if c})
                assert not red.reduce(
                    {i: c for i, c in enumerate(pts[-1]) if c})


class TestGActionScalars:
    def test_vanishing_on_quantum_line(self, downup_4_4):
        g = parse_poly("x*y - 2*y*x", downup_4_4.names)
        pts = [(F(1), F(1)), (F(2), F(1)), (F(4), F(1))]
        assert g_action_scalars(downup_4_4, g, pts) == [F(0), F(0)]

    def test_nonvanishing(self, downup_4_4):
        g = parse_poly("x*y - 2*y*x", downup_4_4.names)
        assert g_action_scalars(downup_4_4, g, [(F(0), F(1)), (F(1), F(0))]) == [F(1)]

    def test_too_short_errors(self, downup_4_4):
        g = parse_poly("x*y - 2*y*x", downup_4_4.names)
        with pytest.raises(ValueError):
            g_action_scalars(downup_4_4, g, [(F(1), F(1))])

    def test_torsionfree_boundary_case(self, downup_4_4):
        g = parse_poly("x*y - 2*y*x", downup_4_4.names)
        assert is_g_torsionfree_truncated(
            downup_4_4, g, [(F(0), F(1)), (F(1), F(0))])
        assert not is_g_torsionfree_truncated(
            downup_4_4, g, [(F(1), F(1)), (F(2), F(1))])


class TestAllOrNothing:
    def test_lambda_list_never_mixes(self, downup_4_4, downup_2_1):
        # the all-or-nothing property of a normal element's action
        rng = Random(7)
        checked = 0
        for pres, gtxt in ((downup_4_4, "x*y - 2*y*x"),
                           (downup_2_1, "x*y - y*x")):
            g = parse_poly(gtxt, pres.names)
            for length in (3, 4, 5):
                for pts in sample_modules(pres, length, 45, rng):
                    lams = g_action_scalars(pres, g, pts)
                    zero = [not l for l in lams]
                    assert all(zero) or not any(zero), (pts, lams)
                    checked += 1
        assert checked >= 250


class TestTorsionfreeSearch:
    def test_downup_4_4_length_4_empty(self, downup_4_4):
        g = parse_poly("x*y - 2*y*x", downup_4_4.names)
        report = torsionfree_search(downup_4_4, g, 4, random_seeds=50,
                                    generic=True, seed=0)
        assert report.found is None
        assert report.special_values  # numeric branches were taken

    def test_downup_4_4_length_3_found(self, downup_4_4):
        g = parse_poly("x*y - 2*y*x", downup_4_4.names)
        report = torsionfree_search(downup_4_4, g, 3, random_seeds=5,
                                    generic=True, seed=0)
        assert report.found is not None
        ok, _ = is_truncated_point_module(downup_4_4, report.found)
        assert ok
        assert is_g_torsionfree_truncated(downup_4_4, g, report.found)

    def test_d_2_1_bound_is_sharp(self, d_2_1):
        # degree-3 element: modules survive at lengths 4 and 5 and
        # disappear at length 6 = 2n
        g = parse_poly("x*x*y + 2*x*y*x + y*x*x", d_2_1.names)
        found5 = torsionfree_search(d_2_1, g, 5, random_seeds=40,
                                    generic=True, seed=0)
        assert found5.found is not None
        assert is_g_torsionfree_truncated(d_2_1, g, found5.found)
        empty6 = torsionfree_search(d_2_1, g, 6, random_seeds=40,
                                    generic=True, seed=0)
        assert empty6.found is None

    def test_generic_seed_disabled(self, downup_4_4):
        g = parse_poly("x*y - 2*y*x", downup_4_4.names)
        report = torsionfree_search(downup_4_4, g, 3, random_seeds=3,
                                    generic=False, seed=0)
        assert "generic" not in report.seeds_tried

    def test_length_below_minimum(self, downup_4_4):
        g = parse_poly("x*y - 2*y*x", downup_4_4.names)
        with pytest.raises(ValueError):
            torsionfree_search(downup_4_4, g, 2)

    def test_long_walk_keeps_its_own_stack(self, quantum_plane):
        # 299 points deep, with room for only 100 more Python frames than
        # the caller uses: the walk's depth is not Python recursion
        g = parse_poly("x", quantum_plane.names)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 100)
        try:
            report = torsionfree_search(quantum_plane, g, 300, generic=False)
        finally:
            sys.setrecursionlimit(limit)
        assert len(report.found) == 299
        assert is_g_torsionfree_truncated(quantum_plane, g, report.found)

    def test_fiber_dimension_budget_reported(self):
        # a six-generator free algebra has P^5 fibers, above the default
        # bound of 4: the branch is dropped and the event is reported
        from ncpoint.freealg import Presentation
        pres = Presentation(tuple("abcdef"), [])
        g = parse_poly("a*b - b*a", pres.names)
        report = torsionfree_search(pres, g, 3, random_seeds=0,
                                    generic=False, seed=0)
        assert report.budget_events > 0
        assert report.found is None


class TestSpecialization:
    def test_specialize_generic_sequence(self):
        pts = [(F(1), T), (F(1), T * T)]
        sp = specialize_points(pts, F(2))
        assert sp == [(F(1), F(2)), (F(1), F(4))]

    def test_specialize_to_zero_point(self):
        pts = [(T, T)]
        assert specialize_points(pts, F(0)) is None

    def test_generic_point_shape(self):
        assert generic_point(2) == (F(1), T)


def lcm_specialize(p, value):
    """Clear every denominator with their lcm, then evaluate: the
    reference that specialize_point must match away from poles too."""
    common = (F(1),)
    for c in p:
        den = denominator_poly(c)
        common = poly_mul(common, poly_divmod(den, poly_gcd(common, den))[0])
    return normalize_point(
        poly_eval(poly_mul(numerator_poly(c), poly_divmod(common, denominator_poly(c))[0]),
                  value)
        for c in p)


small_polys = st.lists(st.integers(-3, 3), min_size=1, max_size=3).map(
    lambda cs: tuple(F(c) for c in cs))
coordinates = st.builds(lambda num, den: make_ratfunc(num, den) if any(den) else F(num[0]),
                        small_polys, small_polys)


class TestSpecializeOracle:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(coordinates, min_size=2, max_size=3), st.integers(-3, 3))
    def test_direct_evaluation_matches_lcm_path(self, p, value):
        assert specialize_point(tuple(p), F(value)) == lcm_specialize(p, F(value))

    @pytest.mark.parametrize("p,want", [
        ((1 / T, F(1)), (F(1), F(0))),
        ((1 / T, 1 / (T * T - T)), (F(1), F(-1))),
        ((F(2), (T + 1) / (T * T)), (F(0), F(1))),
    ])
    def test_pole_takes_lcm_path(self, p, want):
        with pytest.raises(SpecializationError):
            [c.eval_at(F(0)) for c in p if not isinstance(c, Fraction)]
        assert specialize_point(p, F(0)) == lcm_specialize(p, F(0)) == want


class TestSkewPointVariety:
    @staticmethod
    def brute_force(omega):
        k = len(omega)
        good = []
        for size in range(k + 1):
            for s in itertools.combinations(range(k), size):
                ok = all(omega[i][j] * omega[j][l] == omega[i][l]
                         for i, j, l in itertools.combinations(s, 3))
                if ok:
                    good.append(frozenset(s))
        return {s for s in good if not any(s < o for o in good)}

    def test_commutative_case(self):
        om = [[F(1)] * 3 for _ in range(3)]
        assert skew_point_variety(om) == [frozenset({0, 1, 2})]

    def test_all_two_example(self):
        om = [[F(1), F(2), F(2)], [F(1, 2), F(1), F(2)], [F(1, 2), F(1, 2), F(1)]]
        result = set(skew_point_variety(om))
        assert result == {frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2})}

    def test_compatible_triple(self):
        om = [[F(1), F(2), F(2)], [F(1, 2), F(1), F(1)], [F(1, 2), F(1), F(1)]]
        assert skew_point_variety(om) == [frozenset({0, 1, 2})]

    def test_m_equals_one_full_line(self):
        assert skew_point_variety([[F(1), F(5)], [F(1, 5), F(1)]]) == [
            frozenset({0, 1})]

    def test_against_brute_force_random(self):
        rng = Random(0)
        pool = [F(1), F(2), F(1, 2), F(3), F(-1)]
        for _ in range(50):
            k = rng.randint(3, 5)
            om = [[F(1)] * k for _ in range(k)]
            for i in range(k):
                for j in range(i + 1, k):
                    v = rng.choice(pool)
                    om[i][j] = v
                    om[j][i] = 1 / v
            assert set(skew_point_variety(om)) == self.brute_force(om)

    def test_malformed_omega(self):
        with pytest.raises(ValueError):
            skew_point_variety([[F(1), F(2)], [F(2), F(1)]])


class TestSampling:
    def test_samples_are_valid_modules(self, downup_4_4):
        mods = sample_modules(downup_4_4, 4, 25, Random(0))
        assert len(mods) == 25
        for pts in mods:
            ok, _ = is_truncated_point_module(downup_4_4, pts)
            assert ok

    def test_deterministic_given_seed(self, downup_4_4):
        a = sample_modules(downup_4_4, 3, 10, Random(42))
        b = sample_modules(downup_4_4, 3, 10, Random(42))
        assert a == b


class TestCompare:
    def test_downup_vs_quantum_plane_length_4(self, downup_4_4, quantum_plane):
        rep = compare_point_sets(downup_4_4, quantum_plane, 4, 60, Random(0))
        assert len(rep.left_only) == 0
        assert len(rep.right_only) == 0

    def test_length_2_distinguishes(self, downup_4_4, quantum_plane):
        rep = compare_point_sets(downup_4_4, quantum_plane, 2, 60, Random(0))
        assert len(rep.left_only) > 0
        assert len(rep.right_only) == 0

    def test_counterexample_pair(self, downup_4_4, quantum_plane):
        # (0:1),(1:0) is a module on the down-up side only
        pts = [(F(0), F(1)), (F(1), F(0))]
        assert is_truncated_point_module(downup_4_4, pts)[0]
        assert not is_truncated_point_module(quantum_plane, pts)[0]

    def test_identical_presentations(self, quantum_plane):
        rep = compare_point_sets(quantum_plane, quantum_plane, 3, 20, Random(1))
        assert len(rep.left_only) == 0 and len(rep.right_only) == 0

    def test_generator_count_mismatch(self, quantum_plane):
        from ncpoint.freealg import Presentation
        other = Presentation(("a", "b", "c"), [])
        with pytest.raises(ValueError):
            compare_point_sets(quantum_plane, other, 2, 5, Random(0))

    def test_sampling_failure_raised(self, quantum_plane):
        # all length-2 windows are forced nonzero: no module of 2 points
        from ncpoint.freealg import Presentation, parse_poly
        dead = Presentation(("x", "y"), [
            parse_poly(rel, ("x", "y"))
            for rel in ("x*x", "x*y", "y*x", "y*y")])
        from ncpoint.points import SamplingError
        with pytest.raises(SamplingError):
            compare_point_sets(dead, quantum_plane, 2, 5, Random(0))


class TestStabilization:
    def test_downup_fibers_singleton(self, downup_4_4):
        rep = stabilization_check(downup_4_4, 3, 6, 30, Random(0))
        assert rep.ok
        for d, row in rep.per_length.items():
            assert row["positive_dim"] == 0
            assert row["shift_failures"] == 0
            assert row["singleton"] == row["samples"]

    def test_free_algebra_flags(self, free_2):
        rep = stabilization_check(free_2, 2, 4, 5, Random(0))
        assert not rep.ok

    def test_quantum_plane_singletons_from_length_1(self, quantum_plane):
        rep = stabilization_check(quantum_plane, 1, 4, 10, Random(0))
        assert rep.ok
