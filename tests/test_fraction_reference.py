"""linalg's integer rows, the quotient's normal forms, PBW rewriting and
the Koszul ranks against the same computations over Fractions
(tests/fraction_reference.py), on seeded down-up algebras, skew planes,
d_2_1 and U(L) of every color Lie fixture, over Q and Q(t)."""

import pytest
from hypothesis import example, given, settings, strategies as st

import fraction_reference as ref
from ncpoint.colorlie import koszul_complex, parse_colorlie, pbw_normal_form, u_presentation
from ncpoint.freealg import NCPoly, Presentation
from ncpoint.linalg import (
    RowReducer,
    kernel_basis,
    kernel_basis_tracking_pivots,
    row,
    solve_affine,
    solve_columns,
    values,
)
from ncpoint.quotient import QuotientCache
from ncpoint.scalars import Rational, T
from ratfunc_reference import reference

from conftest import FIXTURES, HEISENBERG_T_CL, load_algebra

F = Rational
RATIONALS = [F(n, d) for n in (-3, -2, -1, 1, 2, 3, 5) for d in (1, 2, 3)]
COEFFS = [F(0), F(1), F(-1), F(2), F(-1, 2), F(3, 4)]
T_COEFFS = COEFFS + [T, 1 - T, T / (T + 2)]
CL_TEXTS = {p.name: p.read_text() for p in sorted(FIXTURES.glob("*.cl"))}
CL_TEXTS["heisenberg_t.cl"] = HEISENBERG_T_CL
PRESENTABLE = [name for name in sorted(CL_TEXTS) if not name.startswith("bad_")]


def downup(alpha, beta):
    x, y = NCPoly.gen(0), NCPoly.gen(1)
    return Presentation("xy", [x * x * y - (x * y * x).scale(alpha) - (y * x * x).scale(beta),
                               x * y * y - (y * x * y).scale(alpha) - (y * y * x).scale(beta)])


def skew_plane(q01, q02, q12):
    x = [NCPoly.gen(i) for i in range(3)]
    return Presentation("xyz", [x[i] * x[j] - (x[j] * x[i]).scale(q)
                                for (i, j), q in (((0, 1), q01), ((0, 2), q02), ((1, 2), q12))])


@st.composite
def presentations(draw):
    """(presentation, cap): a seeded down-up algebra, a skew plane, d_2_1,
    or a down-up or skew plane with t among its parameters."""
    kind = draw(st.sampled_from(["downup", "skew", "d_2_1", "downup_t", "skew_t"]))
    if kind == "d_2_1":
        return load_algebra("d_2_1.alg"), 6
    params = draw(st.lists(st.sampled_from(RATIONALS), min_size=3, max_size=3))
    if kind.endswith("_t"):
        params[0] = draw(st.sampled_from([T, T + 1, 2 / T]))
    if kind.startswith("downup"):
        return downup(params[0], params[1]), 6
    return skew_plane(*params), 4


def element(draw, cache, d, coeffs):
    """A random element of degree d on the standard words of the cache."""
    words = cache.retained_words(d)
    return NCPoly({w: c for w in words if (c := draw(st.sampled_from(coeffs)))})


@st.composite
def quotient_maps(draw):
    """Columns of multiplication by a random g on A_d, the normal forms of
    g w over the standard words w, then one or two combinations of them,
    with right-hand sides: a combination of the columns and a random
    element of the target degree."""
    pres, cap = draw(presentations())
    cache = QuotientCache(pres, cap)
    coeffs = T_COEFFS if draw(st.booleans()) else COEFFS
    e = draw(st.integers(1, 2))
    d = draw(st.integers(1, cap - e))
    g = element(draw, cache, e, coeffs)
    cols = [cache.normal_form(g * NCPoly.monomial(w)).terms for w in cache.retained_words(d)]

    def combination():
        out = {}
        for col in cols:
            ref.axpy(out, draw(st.sampled_from(coeffs)), col)
        return out

    cols += [combination() for _ in range(draw(st.integers(1, 2)))]
    other = cache.normal_form(element(draw, cache, d + e, coeffs)).terms
    return cols, [combination(), other]


def assert_same_elimination(cols, rhs):
    new, old = RowReducer(), ref.RowReducer()
    for r in transposed(cols):
        new.insert(row(r))
        old.insert(r)
    assert reference({p: values(r) for p, r in new.pivot_rows.items()}) == old.pivot_rows
    assert reference(kernel_basis(cols)) == ref.kernel_basis(cols)
    assert reference(kernel_basis_tracking_pivots(list(map(row, transposed(cols))), len(cols))) \
        == (ref.kernel_basis(cols), ref.special_values(cols))
    assert reference(solve_columns(cols, rhs)) == ref.solve_columns(cols, rhs)
    for b in rhs:
        assert reference(solve_affine(cols, b)) == ref.solve_affine(cols, b)


def transposed(cols):
    """The rows {column index: entry} of the map with these columns, in
    increasing row key order."""
    rows = {}
    for j, col in enumerate(cols):
        for key, v in col.items():
            rows.setdefault(key, {})[j] = v
    return [rows[key] for key in sorted(rows)]


@st.composite
def mixed_rows(draw):
    """k = 1..4 columns and up to seven sparse rows over them, each over Q
    or with t entries: drawn rows, and rows that combine two earlier ones
    over Q(t).  So the column sets come tall, often of full rank before
    their last row, and rank-deficient."""
    k = draw(st.integers(1, 4))
    rows = []
    for _ in range(draw(st.integers(1, 7))):
        if rows and not draw(st.integers(0, 3)):
            r = dict(draw(st.sampled_from(rows)))
            ref.axpy(r, draw(st.sampled_from(T_COEFFS)), draw(st.sampled_from(rows)))
            rows.append(r)
            continue
        entries = T_COEFFS if draw(st.booleans()) else RATIONALS + [F(0)]
        rows.append({j: c for j in range(k) if (c := draw(st.sampled_from(entries)))})
    return k, rows


class TestLinearAlgebra:
    @settings(max_examples=150, deadline=None)
    @given(mixed_rows())
    # tall over Q(t): full rank at the second of four rows
    @example((2, [{0: T, 1: F(1)}, {0: F(1), 1: T}, {0: F(2), 1: F(3)}, {0: T, 1: T}]))
    # rank-deficient: the third row is the first plus t times the second
    @example((3, [{0: F(1), 1: T}, {1: F(1), 2: 1 - T}, {0: F(1), 1: 2 * T, 2: T - T * T}]))
    # mixed: Q rows around a t row, full rank at the last
    @example((3, [{0: F(1), 1: F(2)}, {0: T, 2: F(1)}, {1: F(-1, 2), 2: F(3)}]))
    def test_rows_over_q_and_q_t(self, case):
        # int rows and rows with t entries reduce against each other
        k, rows = case
        cols = [{i: r[j] for i, r in enumerate(rows) if j in r} for j in range(k)]
        assert_same_elimination(cols, [rows[0]])
        new, old = RowReducer(), ref.RowReducer()
        for r in rows[1:]:
            new.insert(row(r))
            old.insert(r)
        assert reference(values(new.reduce(row(rows[0])))) == old.reduce(rows[0])

    @pytest.mark.parametrize("rows,inserts", [
        # full rank at the second of four rows: the last two are never read
        ([{0: T, 1: F(1)}, {0: F(1), 1: T}, {0: F(2), 1: F(3)}, {0: T, 1: T}], 1),
        # rank 1 of 2 from the first row: the others are only reduced, to 0
        ([{0: T, 1: F(1)}, {0: 2 * T, 1: F(2)}, {0: T * T, 1: T}], 1),
        # Q rows, one dependent, then rows with t: full rank at the fourth row
        ([{0: F(1), 1: F(2)}, {0: F(2), 1: F(4)}, {1: T, 2: F(1)}, {0: F(1), 2: 1 - T},
          {2: F(5)}], 3),
    ], ids=["tall", "rank-deficient", "mixed"])
    def test_kernel_stops_at_its_last_pivot(self, monkeypatch, rows, inserts):
        # once the rank is one below the column count a row is only reduced,
        # and the first that adds rank ends the elimination unnormalized
        cols = [{i: r[j] for i, r in enumerate(rows) if j in r}
                for j in range(1 + max(j for r in rows for j in r))]
        want = ref.kernel_basis(cols), ref.special_values(cols)
        calls = []
        insert = RowReducer.insert
        monkeypatch.setattr(RowReducer, "insert",
                            lambda red, r, on_pivot=None: calls.append(r) or insert(red, r, on_pivot))
        assert reference(kernel_basis_tracking_pivots(list(map(row, rows)), len(cols))) == want
        assert reference(kernel_basis(cols)) == want[0]
        assert len(calls) == 2 * inserts

    @settings(max_examples=100, deadline=None)
    @given(quotient_maps())
    def test_quotient_maps(self, case):
        assert_same_elimination(*case)

    @pytest.mark.parametrize("name", PRESENTABLE)
    def test_pbw_images_of_words(self, name):
        # the words of degree d in the designated generators to their PBW
        # normal forms in U(L): the relations of U(L) are its kernel
        L = parse_colorlie(CL_TEXTS[name])
        thetas = L.theta_indices()
        words = [()]
        for _ in range(4):
            words = [w + (i,) for w in words for i in range(len(thetas))]
            cols = [values(pbw_normal_form(L, tuple(thetas[i] for i in w))) for w in words]
            assert_same_elimination(cols, cols[:1])


class TestNormalForms:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_quotient_normal_forms(self, data):
        pres, cap = data.draw(presentations())
        cache, old = QuotientCache(pres, cap), ref.ReferenceQuotient(pres, cap)
        coeffs = T_COEFFS if data.draw(st.booleans()) else COEFFS
        d = data.draw(st.integers(0, cap))
        words = data.draw(st.lists(st.lists(st.integers(0, pres.num_generators - 1),
                                            min_size=d, max_size=d).map(tuple),
                                   min_size=1, max_size=4))
        f = NCPoly({w: data.draw(st.sampled_from(coeffs[1:])) for w in words})
        assert reference(cache.normal_form(f).terms) == old.normal_form(f).terms

    @pytest.mark.parametrize("name", PRESENTABLE)
    def test_u_l_normal_forms(self, name):
        # U(L) on its degree-one generators, every word up to degree 4
        L = parse_colorlie(CL_TEXTS[name])
        cache = u_presentation(L, 4)
        old = ref.ReferenceQuotient(cache.pres, 4)
        k = cache.pres.num_generators
        words = [()]
        for _ in range(4):
            words = [w + (i,) for w in words for i in range(k)]
            for w in words:
                f = NCPoly.monomial(w)
                assert reference(cache.normal_form(f).terms) == old.normal_form(f).terms

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_pbw_normal_forms(self, data):
        L = parse_colorlie(CL_TEXTS[data.draw(st.sampled_from(sorted(CL_TEXTS)))])
        word = tuple(data.draw(st.lists(st.integers(0, L.dim - 1), max_size=7)))
        assert reference(values(pbw_normal_form(L, word))) == ref.reference_pbw(L, word, {})


class TestKoszulRanks:
    @pytest.mark.parametrize("name", sorted(CL_TEXTS))
    def test_ranks_per_degree(self, name):
        L = parse_colorlie(CL_TEXTS[name])
        K = koszul_complex(L, L.dim, 5)
        for key, cols in K.matrices.items():
            new, old = RowReducer(), ref.RowReducer()
            for col in cols:
                new.insert(col)
                old.insert(values(col))
            assert new.rank == old.rank, key
            assert reference({p: values(r) for p, r in new.pivot_rows.items()}) == old.pivot_rows, key

