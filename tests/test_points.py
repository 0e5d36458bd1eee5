import inspect
import io
import itertools
import math
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncpoint import points
from ncpoint.cli import main
from ncpoint.colorlie import (
    SKEW_STEP_BOUND,
    parse_colorlie,
    presentable_layers,
    skew_point_variety,
    u_presentation,
)
from ncpoint.freealg import NCPoly, Presentation, parse_poly, window_form
from ncpoint.linalg import RowReducer, kernel_basis_tracking_pivots, row
from ncpoint.points import (
    SamplingError,
    compare_point_sets,
    extension_fiber,
    format_points,
    generic_point,
    is_truncated_point_module,
    normalize_point,
    sample_modules,
    specialize_points,
    stabilization_check,
    torsionfree_search,
)
from ncpoint.scalars import Rational, RatFunc, SpecializationError, T, make_ratfunc

import fraction_reference
import walk_reference as ref
from ratfunc_reference import (
    denominator_poly,
    euclid_gcd,
    numerator_poly,
    package,
    poly_divmod,
    poly_eval,
    poly_mul,
    reference,
)
from walk_reference import g_action_scalars, is_g_torsionfree_truncated, window_value
from conftest import FIXTURES, rationals

F = Rational


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
                red = RowReducer()
                for b in fiber.basis:
                    red.insert(row(dict(enumerate(b))))
                assert not red.reduce(row(dict(enumerate(pts[-1]))))[1]


kernel_entries = st.one_of(st.integers(-6, 6),
                           rationals(min_value=-6, max_value=6, max_denominator=4))


@st.composite
def kernel_rows(draw):
    """k = 1..4 columns and 0..8 rows with entries in [-6, 6], ints and
    Fractions: drawn rows, zero rows, and copies of earlier rows times
    1, -1, 2 or 1/2, so tall sets reach full rank before their last row."""
    k = draw(st.integers(1, 4))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["drawn", "zero", "copy"] if rows else ["drawn", "zero"]))
        if kind == "drawn":
            rows.append(draw(st.lists(kernel_entries, min_size=k, max_size=k)))
        elif kind == "zero":
            rows.append([0] * k)
        else:
            c = draw(st.sampled_from([1, -1, 2, F(1, 2)]))
            rows.append([c * x for x in draw(st.sampled_from(rows))])
    return k, rows


class TestIntegerKernel:
    """Fiber kernels, read off the RowReducer by the pivot-tracking kernel,
    against the kernel over Fractions of tests/fraction_reference.py: the
    reduced row echelon basis times L, the lcm of the pivot rows' entry
    denominators with a row with t counting as 1, so ints over Q."""

    @staticmethod
    def kernels(k, rows):
        """The package's (basis, specials) of dense rows over k columns,
        over Fractions, and the reference's."""
        got = kernel_basis_tracking_pivots([row(dict(enumerate(r))) for r in rows], k)
        cols = [{i: F(1) * r[j] for i, r in enumerate(rows) if r[j]} for j in range(k)]
        want = fraction_reference.kernel_basis(cols), fraction_reference.special_values(cols)
        assert reference(got) == want
        return got

    @settings(max_examples=300, deadline=None)
    @given(kernel_rows())
    @example((3, [[1, 2, 3], [0, 1, 4], [5, 6, 0]]))  # full rank
    @example((2, [[F(1, 2), 1], [1, 2], [0, 0]]))  # a point 1/2:1, twice
    @example((3, [[2, 2, 1]]))  # two kernel vectors of different content
    @example((2, [[1, 2], [3, 4], [5, 6], [0, 0], [1, 1]]))  # tall: full rank at row 2 of 5
    @example((3, [[1, 0, 2], [2, 0, 4], [0, 1, F(1, 2)], [1, 1, F(5, 2)], [0, 0, 0]]))  # tall, rank 2
    def test_over_q_ints(self, case):
        k, rows = case
        basis, specials = self.kernels(k, rows)
        assert specials == []
        assert all(type(c) is int for v in basis for c in v)
        assert all(sum(a * b for a, b in zip(r, v)) == 0 for r in rows for v in basis)

    @pytest.mark.parametrize("k,rows,scale", [
        # over Q(t): every pivot row has a t entry, so L = 1
        (3, [[T, 1, 0], [0, T - 1, 1]], 1),
        (3, [[T, 1, 2], [2 * T, 2, 4]], 1),
        # a t-free pivot row over den 2 beside a t row: L = 2
        (4, [[2, 0, 1, 0], [0, T, 0, 1]], 2),
        # t cancels in the second row, which leaves the t-free pivot row
        # (0, 1, 1/2) beside a t row: L = 2
        (3, [[T, 1, 0], [T, 2, F(1, 2)]], 2),
    ], ids=["q-t", "q-t-rank-1", "mixed", "t-cancelled"])
    def test_over_q_t(self, k, rows, scale):
        basis, _ = self.kernels(k, rows)
        assert basis
        # each vector is L at its free coordinate, its last nonzero entry
        assert all([c for c in v if c][-1] == scale for v in basis)


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
    """Clear every denominator with their lcm, then evaluate, over
    Fractions: the reference that specialize_points must match away from
    poles too."""
    value = reference(value)
    common = (1,)
    for c in p:
        den = denominator_poly(c)
        common = poly_mul(common, poly_divmod(den, euclid_gcd(common, den))[0])
    return normalize_point(package([
        poly_eval(poly_mul(numerator_poly(c), poly_divmod(common, denominator_poly(c))[0]),
                  value)
        for c in p]))


small_polys = st.lists(st.integers(-3, 3), min_size=1, max_size=3).map(
    lambda cs: tuple(F(c) for c in cs))
coordinates = st.builds(lambda num, den: make_ratfunc(num, den) if any(den) else num[0],
                        small_polys, small_polys)


def specialize_one(p, value):
    """specialize_points on the one point p, in first-coordinate-1 form."""
    got = specialize_points([tuple(p)], value)
    return None if got is None else normalize_point(got[0])


class TestSpecializeOracle:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(coordinates, min_size=2, max_size=3), st.integers(-3, 3))
    def test_direct_evaluation_matches_lcm_path(self, p, value):
        assert specialize_one(p, F(value)) == lcm_specialize(p, F(value))

    @pytest.mark.parametrize("p,want", [
        ((1 / T, F(1)), (F(1), F(0))),
        ((1 / T, 1 / (T * T - T)), (F(1), F(-1))),
        ((F(2), (T + 1) / (T * T)), (F(0), F(1))),
    ])
    def test_pole_takes_lcm_path(self, p, want):
        with pytest.raises(SpecializationError):
            [c.eval_at(F(0)) for c in p if not isinstance(c, Rational)]
        assert specialize_one(p, F(0)) == lcm_specialize(p, F(0)) == want

    @settings(max_examples=100, deadline=None)
    @given(st.integers(-2, 2),
           st.lists(st.tuples(st.integers(0, 3), *[st.integers(-3, 3).filter(bool)] * 3),
                    min_size=2, max_size=3).filter(lambda cs: len({c[0] for c in cs} - {0}) > 1))
    def test_highest_pole_order_wins(self, value, coords):
        # c = a (s + k) / (s^m (s + l)) with s = t - value has a pole of
        # order m at value, with leading Laurent coefficient a k / l; two
        # coordinates have poles of different orders, and only those of
        # the highest order survive
        s = T - value
        p = [a * (s + k) / (s ** m * (s + l)) for m, a, k, l in coords]
        top = max(m for m, _, _, _ in coords)
        want = normalize_point([F(a * k, l) if m == top else 0 for m, a, k, l in coords])
        assert specialize_one(p, F(value)) == lcm_specialize(p, F(value)) == want


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

    def test_against_brute_force_wider(self):
        # mostly commuting pairs, so the maximal supports are large
        rng = Random(4)
        pool = [F(1), F(1), F(1), F(2), F(1, 2), F(-1)]
        for _ in range(20):
            k = rng.randint(6, 8)
            om = [[F(1)] * k for _ in range(k)]
            for i, j in itertools.combinations(range(k), 2):
                om[i][j] = rng.choice(pool)
                om[j][i] = 1 / om[i][j]
            assert set(skew_point_variety(om)) == self.brute_force(om)

    def test_malformed_omega(self):
        with pytest.raises(ValueError):
            skew_point_variety([[F(1), F(2)], [F(2), F(1)]])

    def test_sixteen_commuting_generators(self):
        assert skew_point_variety([[F(1)] * 16 for _ in range(16)]) == [frozenset(range(16))]

    @pytest.mark.parametrize("k", [20, 40])
    def test_commuting_generators_are_one_support(self, k):
        # every index lies in no bad triple, so the walk has nothing to try
        # among the 2^k admissible supports
        omega = ";".join(",".join(["1"] * k) for _ in range(k))
        start = time.perf_counter()
        with redirect_stdout(io.StringIO()) as out:
            code = main(["skew-variety", "--omega", omega])
        assert time.perf_counter() - start < 2.0
        assert code == 0
        assert out.getvalue().splitlines()[1:] == [
            f"ambient: P^{k - 1}",
            "maximal support: {" + ",".join(str(i) for i in range(k)) + "}",
            "result: pass"]

    @pytest.mark.parametrize("k,upper", [(70, F(2))], ids=["every-triple-bad"])
    def test_bound_ends_the_walk(self, k, upper):
        # 2,415 pairs that each cost 70 steps
        omega = ";".join(",".join("1" if i == j else str(upper if i < j else 1 / upper)
                                  for j in range(k)) for i in range(k))
        start = time.perf_counter()
        with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:
            code = main(["skew-variety", "--omega", omega])
        assert time.perf_counter() - start < 2.0
        assert (code, out.getvalue()) == (2, "")
        assert err.getvalue() == (f"error: skew-variety needs more than {SKEW_STEP_BOUND} "
                                  f"steps (one per admissible support, {k} per pair of "
                                  "generators)\n")


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


# ---------------------------------------------------------------------------
# exactness and the integer walk
# ---------------------------------------------------------------------------

def exact(values) -> bool:
    return all(isinstance(c, (int, Rational, RatFunc)) for c in values)


class TestExactness:
    """No point, normalized, specialized or met by a walk, holds a float."""

    def test_int_point_normalizes_to_fractions(self):
        got = normalize_point((2, 4))
        assert got == (F(1), F(2)) and all(type(c) is Rational for c in got)
        assert normalize_point((0, -3, 6)) == (F(0), F(1), F(-2))
        got = specialize_points([(2, 4), (F(-3), F(6))], F(5))
        assert got == [(1, 2), (1, -2)] and all(type(c) is int for p in got for c in p)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.one_of(st.integers(-9, 9), coordinates), min_size=1, max_size=3),
           st.integers(-3, 3))
    def test_normalize_and_specialize_are_exact(self, p, value):
        got = specialize_points([tuple(p)], F(value))
        assert got is None or all(type(c) is int for c in got[0])
        got = normalize_point(p)
        assert got is None or exact(got)

    def test_walk_points_are_never_floats(self, monkeypatch, downup_4_4, quantum_plane):
        children = points._children
        met = []

        def checked(*args):
            for pts, fresh in children(*args):
                met.append(pts)
                assert all(exact(p) for p in pts), pts
                yield pts, fresh

        monkeypatch.setattr(points, "_children", checked)
        g = parse_poly("x*y - 2*y*x", downup_4_4.names)
        found = torsionfree_search(downup_4_4, g, 3, random_seeds=5, seed=0).found
        assert all(type(c) is int for p in found for c in p)
        for pts in sample_modules(downup_4_4, 4, 10, Random(1)) + \
                sample_modules(quantum_plane, 3, 10, Random(2)):
            assert all(type(c) is int for p in pts for c in p)
        assert any(points.points_use_t(pts) for pts in met)  # the Q(t) pencil was walked too
        assert any(not points.points_use_t(pts) for pts in met)


class TestWindowForms:
    def test_primitive_integer_multiples(self, downup_4_4, d_2_1):
        for pres in (downup_4_4, d_2_1):
            for f, (degree, terms) in zip(pres.relations, pres.forms):
                assert degree == f.degree()
                coeffs = [c for _, c in terms]
                assert all(type(c) is int for c in coeffs) and math.gcd(*coeffs) == 1
                ratios = {F(c) / f.terms[letters[::-1]] for letters, c in terms}
                assert len(ratios) == 1 and ratios.pop() > 0

    def test_derived_with_the_presentation(self, monkeypatch, downup_4_4):
        # a search derives g's form alone: the relations' came with pres
        assert downup_4_4.forms == tuple(map(window_form, downup_4_4.relations))
        derived = []
        monkeypatch.setattr(points, "window_form",
                            lambda f: derived.append(f) or window_form(f))
        g = parse_poly("x*y - 2*y*x", downup_4_4.names)
        torsionfree_search(downup_4_4, g, 4, random_seeds=5, seed=0)
        assert derived == [g]


class TestLinearPrune:
    def test_children_keep_the_points_before_fresh(self, monkeypatch, downup_4_4):
        # the prune skips the windows of points[:fresh], which the parent
        # passed, so a child must share them; a specialized child shares none
        children = points._children
        kinds = set()

        def checked(pres, pts, *args):
            for child, fresh in children(pres, pts, *args):
                assert child[:fresh] == pts[:fresh]
                assert fresh == len(pts) if len(child) > len(pts) else fresh == 0
                kinds.add(len(child) > len(pts))
                yield child, fresh

        monkeypatch.setattr(points, "_children", checked)
        g = parse_poly("x*y - 2*y*x", downup_4_4.names)
        torsionfree_search(downup_4_4, g, 4, random_seeds=3, generic=True, seed=0)
        assert kinds == {True, False}

    def test_long_walk_is_linear(self, monkeypatch):
        # each node checks only its newest lambda window: the 1,499-point
        # walk took 8-15 s when every node re-checked all of them
        monkeypatch.chdir(FIXTURES)
        start = time.perf_counter()
        with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()):
            code = main(["torsionfree", "quantum_plane_2.alg", "--g", "x", "--length", "1500",
                         "--samples", "0", "--no-generic"])
        assert time.perf_counter() - start < 2.0
        assert code == 0 and "found module: " + " ".join(["(1:0)"] * 1499) in out.getvalue()


# ---------------------------------------------------------------------------
# differential oracle: the integer walk against the Fraction walk
# ---------------------------------------------------------------------------

PARAMS = st.sampled_from([F(2), F(-2), F(3), F(1, 2), F(-1, 3)])


def downup(alpha, beta):
    """A(alpha, beta): x^2 y = alpha xyx + beta y x^2, x y^2 = alpha yxy + beta y^2 x."""
    return Presentation(("x", "y"), [
        NCPoly({(0, 0, 1): F(1), (0, 1, 0): -alpha, (1, 0, 0): -beta}),
        NCPoly({(0, 1, 1): F(1), (1, 0, 1): -alpha, (1, 1, 0): -beta})])


def heisenberg_u(q):
    L = parse_colorlie("rank: 2\nbasis: x:(1,0)\nbasis: y:(0,1)\nbasis: z:(1,1)\n"
                       f"omega: 1 {q}\nomega: {1 / q} 1\nbracket: [x,y] = z\n")
    return u_presentation(L, len(presentable_layers(L)) + 1).pres


def skew_algebra(k, params):
    """x_i x_j = q_ij x_j x_i for each pair i < j given a q_ij in params:
    the skew plane when every pair has one; fibers of positive dimension,
    with fractional kernel bases, when pairs are left free."""
    return Presentation("xyzw"[:k], [NCPoly({(i, j): F(1), (j, i): -q})
                                      for (i, j), q in params.items()])


@st.composite
def walk_inputs(draw):
    """A seeded algebra with an element g of degree 2: a down-up algebra
    A(2r, -r^2) or A(alpha, beta), U(L) of a Heisenberg color Lie algebra,
    or a skew algebra on three or four generators."""
    kind = draw(st.sampled_from(["downup-normal", "downup", "heisenberg", "skew"]))
    r, s = draw(PARAMS), draw(PARAMS)
    # g is the normal element x*y - r*y*x, or x*x - s*y*y, which is not
    g = draw(st.sampled_from([NCPoly({(0, 1): F(1), (1, 0): -r}),
                              NCPoly({(0, 0): F(1), (1, 1): -s})]))
    if kind == "downup-normal":
        pres = downup(2 * r, -r * r)
    elif kind == "downup":
        pres = downup(r, s)
    elif kind == "heisenberg":
        pres = heisenberg_u(r)
    else:
        k = draw(st.integers(3, 4))
        pairs = draw(st.lists(st.sampled_from(list(itertools.combinations(range(k), 2))),
                              min_size=1, unique=True))
        pres = skew_algebra(k, {pair: draw(PARAMS) for pair in sorted(pairs)})
    return kind, pres, g


def outcome(run):
    """The report lines of a run, or the error it raised."""
    try:
        return run()
    except SamplingError as exc:
        return ["SamplingError", str(exc)]


class TestWalkReference:
    """Report lines of the integer walk are byte-identical to those of the
    Fraction walk in tests/walk_reference.py, on the same seeds."""

    @settings(max_examples=40, deadline=None)
    @given(walk_inputs(), st.integers(0, 10 ** 6), st.booleans(), st.integers(3, 5))
    def test_torsionfree_search(self, inputs, seed, generic, length):
        kind, pres, g = inputs
        if kind == "skew":
            length = 3

        def lines(search):
            rep = search(pres, g, length, random_seeds=4, generic=generic, seed=seed)
            return rep.lines() + [format_points(rep.found) if rep.found else ""]

        assert lines(torsionfree_search) == lines(ref.torsionfree_search)

    @settings(max_examples=30, deadline=None)
    @given(walk_inputs(), st.integers(0, 10 ** 6), st.integers(1, 4))
    def test_sample_modules(self, inputs, seed, num_points):
        _, pres, _ = inputs
        if pres.num_generators > 2:
            num_points = min(num_points, 3)
        want = ref.sample_modules(pres, num_points, 8, Random(seed))
        got = sample_modules(pres, num_points, 8, Random(seed))
        assert [format_points(pts) for pts in got] == [format_points(pts) for pts in want]

    @settings(max_examples=20, deadline=None)
    @given(walk_inputs(), walk_inputs(), st.integers(0, 10 ** 6), st.integers(1, 3))
    def test_compare_point_sets(self, left, right, seed, num_points):
        pres_left, pres_right = left[1], right[1]
        if pres_left.num_generators != pres_right.num_generators:
            pres_right = pres_left
        assert outcome(lambda: compare_point_sets(
            pres_left, pres_right, num_points, 8, Random(seed)).lines()) == \
            outcome(lambda: ref.compare_point_sets(
                pres_left, pres_right, num_points, 8, Random(seed)).lines())

    @settings(max_examples=20, deadline=None)
    @given(walk_inputs(), st.integers(0, 10 ** 6), st.integers(1, 3))
    def test_stabilization_check(self, inputs, seed, d0):
        _, pres, _ = inputs
        d_top = d0 + (1 if pres.num_generators > 2 else 2)
        assert outcome(lambda: stabilization_check(pres, d0, d_top, 6, Random(seed)).lines()) \
            == outcome(lambda: ref.stabilization_check(pres, d0, d_top, 6, Random(seed)).lines())
