"""Exact linear algebra over Q and Q(t).

Everything here is exact: a kernel vector multiplies back to literal
zero, never to "small".  :class:`RowReducer`, the sparse incremental
RREF over rows that are dictionaries column -> scalar, divides an int
pivot as a Fraction, so rows of ints stay exact.  It is the elimination
loop of the package: the Gröbner rules of each degree of a quotient,
spans of color-Lie layers, Koszul ranks, the dense `rref` and the
kernels, solves and Q(t) special values all run on it.  The one other
elimination is that of an extension fiber over Q, a few short rows that
`points` reduces fraction-free in Python ints; a fiber over Q(t) comes
here, to the pivot-tracking kernel.  The kernels, solves and special
values take a linear map as a list of sparse columns {row key: scalar},
keyed by words, PBW monomials or relation indices, and read their dense
answers straight off the pivot rows; normality is read off two such
solves.  No other module uses the dense `Matrix` and `rref`: they are
the reference that tests compare against, and a layer the benchmark
traces.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import Scalar, int_pair, poly_rational_roots, scalar_to_str

_ZERO = Fraction(0)
_ONE = Fraction(1)


def axpy(acc: dict, s, vec: dict):
    """acc += s * vec on sparse maps key -> scalar, dropping zeros."""
    for key, c in vec.items():
        new = acc.get(key, _ZERO) + s * c
        if new:
            acc[key] = new
        else:
            acc.pop(key, None)


class Matrix:
    """Dense row-major matrix of exact scalars."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, rows, ncols=None):
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        if self.nrows:
            self.ncols = len(self.rows[0])
            if any(len(r) != self.ncols for r in self.rows):
                raise ValueError("ragged matrix")
        else:
            self.ncols = 0 if ncols is None else ncols

    def mul(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch in matrix product")
        out = []
        for i in range(self.nrows):
            row = []
            for j in range(other.ncols):
                acc: Scalar = _ZERO
                for l in range(self.ncols):
                    a = self.rows[i][l]
                    if a:
                        b = other.rows[l][j]
                        if b:
                            acc = acc + a * b
                row.append(acc)
            out.append(row)
        return Matrix(out, ncols=other.ncols)

    def __repr__(self):
        body = "; ".join(
            " ".join(scalar_to_str(e) for e in row) for row in self.rows)
        return f"Matrix[{self.nrows}x{self.ncols}: {body}]"


def rref(m: Matrix):
    """Reduced row echelon form of m, eliminated by a :class:`RowReducer`.

    Returns (rank, pivot columns in increasing order, reduced Matrix);
    the zero rows of the reduced matrix come last.
    """
    red = RowReducer()
    for row in m.rows:
        red.insert({j: v for j, v in enumerate(row) if v})
    pivots = sorted(red.pivot_rows)
    rows = [[red.pivot_rows[p].get(j, _ZERO) for j in range(m.ncols)] for p in pivots]
    rows += [[_ZERO] * m.ncols for _ in range(m.nrows - len(pivots))]
    return len(pivots), pivots, Matrix(rows, ncols=m.ncols)


def _eliminate(cols, on_pivot=None) -> dict:
    """Eliminate the map whose column j is cols[j], a sparse {row key:
    scalar}, inserting its rows in increasing key order (the order in
    which ``on_pivot`` meets the pivots).  Returns the pivot rows."""
    rows = {}
    for j, col in enumerate(cols):
        for key, v in col.items():
            if v:
                rows.setdefault(key, {})[j] = v
    red = RowReducer()
    for key in sorted(rows):
        red.insert(rows[key], on_pivot)
    return red.pivot_rows


def _kernel(pivot_rows: dict, n: int):
    """The kernel basis of the first n columns, read off their pivot rows:
    one dense vector per free column, in increasing column order."""
    kernel = []
    for f in range(n):
        if f not in pivot_rows:
            v = [_ZERO] * n
            v[f] = _ONE
            for p, row in pivot_rows.items():
                if f in row:
                    v[p] = -row[f]
            kernel.append(v)
    return kernel


def rank(cols) -> int:
    """The rank of the map with sparse columns cols."""
    return len(_eliminate(cols))


def kernel_basis(cols):
    """Basis of {v : sum_j v[j] cols[j] = 0} for sparse columns; each
    vector is dense over the columns, and len = len(cols) - rank."""
    return _kernel(_eliminate(cols), len(cols))


def _solutions(pivot_rows: dict, n: int, m: int):
    """The solutions for the m right-hand sides after the first n columns:
    None for a side outside the column span, which is when a pivot row
    past the columns has an entry in its column; else the dense solution
    that vanishes off the pivot columns."""
    solutions = []
    for j in range(n, n + m):
        if any(j in row for p, row in pivot_rows.items() if p >= n):
            solutions.append(None)
            continue
        x = [_ZERO] * n
        for p, row in pivot_rows.items():
            if p < n:
                x[p] = row.get(j, _ZERO)
        solutions.append(x)
    return solutions


def solve_columns(cols, rhs):
    """Solve sum_j x[j] cols[j] = b for every sparse b in rhs with one
    elimination of the columns followed by rhs.

    Returns (solutions, rank): solutions[i] is None when rhs[i] is not in
    the column span, else the dense solution that vanishes off the pivot
    columns; the solutions are unique when rank, that of cols, is len(cols).
    """
    n = len(cols)
    pivot_rows = _eliminate(list(cols) + list(rhs))
    return _solutions(pivot_rows, n, len(rhs)), sum(p < n for p in pivot_rows)


def solve_affine(cols, b):
    """Solve sum_j x[j] cols[j] = b exactly: the dense solution that
    vanishes off the pivot columns, or None when the system is inconsistent."""
    return _solutions(_eliminate(list(cols) + [b]), len(cols), 1)[0]


def kernel_basis_tracking_pivots(cols):
    """Kernel basis of sparse columns plus the rational t-values where the
    elimination path could change.

    Over Q(t) a pivot is invertible as a rational function, so the RREF
    is the generic one; at a rational root of any pivot's numerator (or
    a pole of any pivot) the specialized map may have lower rank and a
    strictly larger kernel.  Those finitely many candidate values are
    returned so callers can re-run the computation numerically there;
    over Q there are none.  The pivots met in practice have degree 1 or
    2, whose roots `poly_rational_roots` finds in closed form.
    """
    special = set()

    def collect_roots(piv):
        for poly in int_pair(piv):
            if len(poly) > 1:
                special.update(poly_rational_roots(poly))

    return _kernel(_eliminate(cols, collect_roots), len(cols)), sorted(special)


class RowReducer:
    """Incremental reduced row echelon form over sparse rows.

    Rows are dicts mapping column index -> nonzero scalar.  Columns are
    eliminated in increasing index order, so callers choose the pivot
    preference by their column numbering.  After every insertion the
    stored rows form an RREF: each pivot column appears in exactly one
    row, with coefficient 1.
    """

    __slots__ = ("pivot_rows",)

    def __init__(self):
        self.pivot_rows = {}  # pivot column -> row dict (row[pivot] == 1)

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def reduce(self, row: dict) -> dict:
        """Residue of row modulo the current row space (row is not mutated)."""
        out = dict(row)
        for c in sorted(out):
            coeff = out.get(c)
            if not coeff:
                out.pop(c, None)
                continue
            piv = self.pivot_rows.get(c)
            if piv is not None:
                axpy(out, -coeff, piv)
        return {c: v for c, v in out.items() if v}

    def insert(self, row: dict, on_pivot=None):
        """Reduce and store; returns the new pivot column or None if dependent.

        ``on_pivot``, when given, is called with the pivot entry before the
        row is normalized.  An int pivot is divided as a Fraction, so a row
        of ints is stored exactly."""
        res = self.reduce(row)
        if not res:
            return None
        p = min(res)
        inv = res[p]
        if on_pivot is not None:
            on_pivot(inv)
        if isinstance(inv, int):
            inv = Fraction(inv)
        res = {c: v / inv for c, v in res.items()}
        for other in self.pivot_rows.values():
            f = other.get(p)
            if f:
                axpy(other, -f, res)
        self.pivot_rows[p] = res
        return p
