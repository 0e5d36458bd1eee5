import itertools
from fractions import Fraction
from random import Random

from ncpoint.linalg import (
    Matrix,
    RowReducer,
    axpy,
    kernel_basis,
    kernel_basis_tracking_pivots,
    rank,
    rref,
    solve_affine,
    solve_columns,
)
from ncpoint.scalars import RatFunc, SpecializationError, T

from span_quotient import span_equal

F = Fraction


def identity(n):
    return Matrix([[F(i == j) for j in range(n)] for i in range(n)])


def columns(m: Matrix, keys=None):
    """The sparse columns {row key: entry} of a dense matrix; row i is
    keyed by keys[i], by default by i."""
    keys = range(m.nrows) if keys is None else keys
    return [{key: row[j] for key, row in zip(keys, m.rows) if row[j]}
            for j in range(m.ncols)]


def combine(cols, v):
    """sum_j v[j] cols[j] as a sparse map, accumulated with axpy."""
    acc = {}
    for c, col in zip(v, cols):
        axpy(acc, c, col)
    return acc


def transpose(m: Matrix) -> Matrix:
    return Matrix([list(col) for col in zip(*m.rows)], ncols=m.nrows)


def random_matrix(rng, nrows, ncols, span=5):
    return Matrix([[F(rng.randint(-span, span)) for _ in range(ncols)]
                   for _ in range(nrows)], ncols=ncols)


class TestRref:
    def test_proportional_rows(self):
        r, pivots, red = rref(Matrix([[F(1), F(2)], [F(2), F(4)]]))
        assert r == 1
        assert pivots == [0]
        assert red.rows[0] == [F(1), F(2)]
        assert red.rows[1] == [F(0), F(0)]

    def test_identity(self):
        r, pivots, _ = rref(identity(3))
        assert r == 3
        assert pivots == [0, 1, 2]

    def test_rational_function_rank_one(self):
        # second row is t times the first: hand elimination gives rank 1
        m = Matrix([[F(1), T], [T, T * T]])
        r, pivots, red = rref(m)
        assert r == 1
        assert pivots == [0]
        assert red.rows[0] == [F(1), T]

    def test_empty(self):
        r, pivots, _ = rref(Matrix([], ncols=3))
        assert r == 0 and pivots == []

    def test_idempotent_and_row_space_preserved(self):
        rng = Random(7)
        for _ in range(20):
            m = Matrix([[F(rng.randint(-5, 5)) for _ in range(4)]
                        for _ in range(3)])
            r1, p1, red = rref(m)
            r2, p2, red2 = rref(red)
            assert (r1, p1) == (r2, p2)
            assert red2.rows == red.rows
            assert span_equal(
                [{j: v for j, v in enumerate(row) if v} for row in m.rows],
                [{j: v for j, v in enumerate(row) if v} for row in red.rows])

    def test_rank_equals_transpose_rank(self):
        rng = Random(3)
        for _ in range(25):
            ncols = rng.randint(1, 5)
            m = Matrix([[F(rng.randint(-4, 4)) for _ in range(ncols)]
                        for _ in range(rng.randint(1, 5))])
            assert rref(m)[0] == rref(transpose(m))[0]


class TestKernel:
    def test_single_row(self):
        basis = kernel_basis([{0: F(1)}, {0: F(1)}])
        assert len(basis) == 1
        v = basis[0]
        assert v[0] + v[1] == 0 and any(v)

    def test_identity_empty_kernel(self):
        assert kernel_basis(columns(identity(2))) == []

    def test_rank_nullity_and_exactness(self):
        cols = [{"r": F(1)}, {"r": F(2)}, {"r": F(3)}]
        basis = kernel_basis(cols)
        assert len(basis) == 2  # 3 columns - rank 1
        for v in basis:
            assert combine(cols, v) == {}

    def test_random_kernel_vectors_multiply_to_zero(self):
        rng = Random(11)
        for _ in range(25):
            m = random_matrix(rng, rng.randint(1, 4), 4)
            cols = columns(m)
            basis = kernel_basis(cols)
            assert len(basis) + rref(m)[0] == 4
            for v in basis:
                assert combine(cols, v) == {}
                assert m.mul(transpose(Matrix([v]))).rows == [[0]] * m.nrows

    def test_zero_and_empty_columns(self):
        assert kernel_basis([]) == []
        assert kernel_basis([{}, {0: F(2)}, {}]) == [[1, 0, 0], [0, 0, 1]]

    def test_rank_is_the_dense_rank(self):
        rng = Random(19)
        for _ in range(25):
            m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), span=2)
            assert rank(columns(m)) == rref(m)[0] == m.ncols - len(kernel_basis(columns(m)))
        assert rank([]) == 0 and rank([{}, {"r": F(2)}]) == 1


class TestSolveAffine:
    def test_scalar_equation(self):
        assert solve_affine([{0: F(3)}], {0: F(6)}) == [F(2)]

    def test_underdetermined(self):
        assert solve_affine([{0: F(1)}, {0: F(1)}], {}) == [F(0), F(0)]

    def test_inconsistent(self):
        assert solve_affine([{0: F(1), 1: F(2)}], {0: F(1), 1: F(1)}) is None
        assert solve_affine([{0: F(1)}], {1: F(1)}) is None  # row outside the columns

    def test_solution_is_exact(self):
        rng = Random(5)
        for _ in range(20):
            m = random_matrix(rng, 3, 3)
            b = {i: F(rng.randint(-5, 5)) for i in range(3)}
            b = {i: v for i, v in b.items() if v}
            sol = solve_affine(columns(m), b)
            if sol is not None:
                assert combine(columns(m), sol) == b

    def test_consistent_exactly_when_rank_holds(self):
        # b is solvable exactly when rank([m | b]) = rank(m), and then the
        # solution is the one solve_columns reads off
        rng = Random(13)
        inconsistent = 0
        for _ in range(60):
            m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), span=2)
            b = {i: F(rng.randint(-2, 2)) for i in range(m.nrows)}
            sol = solve_affine(columns(m), b)
            inconsistent += sol is None
            assert (sol is None) == (rank(columns(m) + [b]) > rank(columns(m)))
            assert sol == solve_columns(columns(m), [b])[0][0]
        assert inconsistent

    def test_columns_solved_in_one_elimination(self):
        # each right-hand side is solved exactly when rank([m | b]) = rank(m);
        # a repeated inconsistent column is not a pivot of the joint RREF
        # but must still read as inconsistent
        rng = Random(17)
        seen_none = 0
        for _ in range(40):
            ncols = rng.randint(1, 4)
            m = random_matrix(rng, rng.randint(1, 4), ncols, span=2)
            rhs = [[F(rng.randint(-2, 2)) for _ in range(m.nrows)] for _ in range(3)]
            rhs.append(list(rhs[0]))
            cols = columns(m)
            solutions, col_rank = solve_columns(cols, columns(transpose(Matrix(rhs))))
            assert col_rank == ncols - len(kernel_basis(cols))
            _, pivots, _ = rref(m)
            for b, x in zip(rhs, solutions):
                aug = Matrix([row + [b[i]] for i, row in enumerate(m.rows)])
                if x is None:
                    seen_none += 1
                    assert rref(aug)[0] > rref(m)[0]
                else:
                    assert combine(cols, x) == {i: e for i, e in enumerate(b) if e}
                    assert all(not v for j, v in enumerate(x) if j not in pivots)
            assert (solutions[0] is None) == (solutions[-1] is None)
        assert seen_none


def dense_kernel(m: Matrix):
    """Kernel of a dense matrix read off its rref, one vector per free
    column in increasing order."""
    _, pivots, red = rref(m)
    basis = []
    for f in range(m.ncols):
        if f in pivots:
            continue
        v = [F(0)] * m.ncols
        v[f] = F(1)
        for i, p in enumerate(pivots):
            v[p] = -red.rows[i][f]
        basis.append(v)
    return basis


def dense_solution(m: Matrix, b):
    """The solution of m x = b vanishing off the pivot columns, read off
    the rref of [m | b]; None when the system is inconsistent."""
    aug = Matrix([row + [b[i]] for i, row in enumerate(m.rows)], ncols=m.ncols + 1)
    _, pivots, red = rref(aug)
    if m.ncols in pivots:
        return None
    x = [F(0)] * m.ncols
    for i, p in enumerate(pivots):
        x[p] = red.rows[i][m.ncols]
    return x


class TestColumnDifferential:
    def test_column_api_matches_dense_rref(self):
        # random sparse columns keyed by words, in a random key order;
        # the dense reference is the matrix whose row i is the i-th word
        # in sorted order
        rng = Random(29)
        inconsistent = 0
        words = [w for d in range(3) for w in itertools.product(range(2), repeat=d)]
        for _ in range(120):
            ncols = rng.randint(0, 5)
            keys = sorted(rng.sample(words, rng.randint(1, 6)))
            cols = []
            for _ in range(ncols):
                col = {w: F(rng.randint(-3, 3), rng.randint(1, 2)) for w in keys
                       if rng.random() < 0.6}
                cols.append(dict(reversed(list(col.items()))))
            if ncols > 1 and rng.random() < 0.4:
                cols[-1] = combine(cols[:2], [F(2), F(-1)])  # a dependent column
            dense = Matrix([[col.get(w, F(0)) for col in cols] for w in keys], ncols=ncols)
            assert kernel_basis(cols) == dense_kernel(dense)
            rhs = [{w: F(rng.randint(-3, 3)) for w in keys if rng.random() < 0.5}
                   for _ in range(2)]
            rhs.append(combine(cols, [F(rng.randint(-2, 2)) for _ in cols]))
            solutions, col_rank = solve_columns(cols, rhs)
            assert col_rank == ncols - len(dense_kernel(dense))
            for b, x in zip(rhs, solutions):
                assert x == dense_solution(dense, [b.get(w, F(0)) for w in keys])
                inconsistent += x is None
            assert solutions[-1] is not None
        assert inconsistent


class TestTrackingPivots:
    def test_specials_from_vanishing_pivot(self):
        # rank drops exactly at t = 0 and t = 1
        m = Matrix([[T, F(0)], [F(0), T - 1]])
        basis, specials = kernel_basis_tracking_pivots(columns(m))
        assert basis == []
        assert F(0) in specials and F(1) in specials

    def test_rows_meet_pivots_in_key_order(self):
        # rows (t, 1) and (1, 1): eliminated in that order the pivots are
        # t and 1 - 1/t, in the other order 1 and 1 - t
        t_first = [{"a": T, "b": F(1)}, {"a": F(1), "b": F(1)}]
        one_first = [{"b": T, "a": F(1)}, {"b": F(1), "a": F(1)}]
        assert kernel_basis_tracking_pivots(t_first) == ([], [F(0), F(1)])
        assert kernel_basis_tracking_pivots(one_first) == ([], [F(1)])

    def test_no_specials_over_q(self):
        basis, specials = kernel_basis_tracking_pivots([{0: F(1)}, {0: F(1)}])
        assert specials == []
        assert len(basis) == 1


def _specialize(m: Matrix, t):
    """m with t substituted, or None where an entry has a pole at t."""
    rows = []
    for row in m.rows:
        try:
            rows.append([e.eval_at(t) if isinstance(e, RatFunc) else e for e in row])
        except SpecializationError:
            return None
    return Matrix(rows, ncols=m.ncols)


class TestSpecialValues:
    GRID = sorted({F(n, d) for n in range(-4, 5) for d in range(1, 4)})

    @staticmethod
    def _random_entry(rng):
        a, b = F(rng.randint(-2, 2)), F(rng.randint(-2, 2))
        return rng.choice([
            F(rng.randint(-2, 2)), F(0), T - a, (T - a) * (T - b),
            F(rng.randint(1, 2)) / (T - a), (T - a) / (T - b + 3), a * T + b])

    def test_rank_is_generic_outside_special_set(self):
        # away from the returned values the specialized kernel has the
        # generic dimension; the set may over-approximate, never miss one
        rng = Random(23)
        drops = 0
        for _ in range(150):
            nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
            rows = [[self._random_entry(rng) for _ in range(ncols)]
                    for _ in range(nrows)]
            if nrows > 1 and rng.random() < 0.5:
                # a row that depends on the others over Q(t) only
                c = self._random_entry(rng)
                rows[-1] = [x + c * y for x, y in zip(rows[0], rows[1])]
            m = Matrix(rows, ncols=ncols)
            basis, specials = kernel_basis_tracking_pivots(columns(m))
            for t in self.GRID:
                mt = _specialize(m, t)
                if mt is None:
                    continue
                nullity = ncols - rref(mt)[0]
                if t in specials:
                    drops += nullity > len(basis)
                else:
                    assert nullity == len(basis), (m, t, specials)
        assert drops


class TestRowReducer:
    def test_insert_and_reduce(self):
        red = RowReducer()
        assert red.insert({0: F(1), 1: F(2)}) == 0
        assert red.insert({0: F(2), 1: F(4)}) is None
        assert red.insert({1: F(1)}) == 1
        assert red.rank == 2
        assert red.reduce({0: F(5), 1: F(7)}) == {}

    def test_int_rows_are_divided_exactly(self):
        # an int pivot divides as a Fraction: 1 / 3 stays exact, so an int
        # combination of the rows leaves no residue
        red = RowReducer()
        assert red.insert({0: 3, 1: 1}) == 0
        assert red.insert({1: 7, 2: 2}) == 1
        assert all(type(c) is Fraction for row in red.pivot_rows.values() for c in row.values())
        assert red.pivot_rows == {0: {0: F(1), 2: F(-2, 21)}, 1: {1: F(1), 2: F(2, 7)}}
        assert red.reduce({0: 6, 1: 37, 2: 10}) == {}

    def test_canonical_span_comparison(self):
        a = [{0: F(1), 1: F(1)}, {1: F(1)}]
        b = [{0: F(1)}, {0: F(3), 1: F(2)}]
        assert span_equal(a, b)
        assert not span_equal(a, [{0: F(1), 1: F(1)}])
