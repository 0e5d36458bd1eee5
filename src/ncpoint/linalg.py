"""Exact linear algebra over Q and Q(t) on one sparse row type.

A row is a pair (den, nums): a positive int den and a dict key ->
nonzero numerator for the vector {key: num / den}, with ints and
gcd(den, nums) = 1 over Q, so rows compare by value; a row with a t
entry keeps its Rational and RatFunc entries over den 1.  `_divide` is
the one place that form is chosen, and rows are never changed once
built.  :class:`RowReducer`, the sparse incremental RREF, is the
one elimination loop of the package; its pivot rows are the RREF by
value, each with numerator den at its pivot, and over Q it reduces by
integer cross-multiplication and content division (fraction-free, as in
Bareiss, Math. Comp. 22 (1968)).  `_kernel` is the one readout of a
kernel basis off pivot rows, scaled by L, the lcm of the pivot rows'
denominators, and it stops at full column rank
(`kernel_pivot_rows`).  The pivot-tracking kernel of a point fiber and
`rank` take rows; `kernel_basis` and the solves take a map as sparse
columns {row key: scalar} and transpose them to rows once (`_rows`).
The dense `Matrix` and `rref` are the reference that tests compare
against, and a layer the benchmark traces.
"""

import math

from .scalars import Rational, Scalar, int_pair, poly_rational_roots, sc_inv

_ZERO = Rational(0)


def axpy(acc: dict, s, vec: dict):
    """acc += s * vec on sparse maps key -> scalar or int, dropping zeros."""
    for key, c in vec.items():
        new = acc.get(key, 0) + s * c
        if new:
            acc[key] = new
        else:
            acc.pop(key, None)


def _divide(acc: dict, den=1):
    """The row of the vector acc / den, for a nonzero int den or scalar
    den.  An int acc has its content divided out and its sign put on den;
    any other acc is scaled by 1 / den, kept over 1 when an entry has t,
    and else cleared to ints over the lcm of its denominators, which
    leaves gcd 1 since each entry is in lowest terms."""
    try:  # a TypeError: an entry or den is not an int
        g = math.gcd(den, *acc.values())
    except TypeError:
        g = 0
    if g:
        g = g if den > 0 else -g
        return (den, acc) if g == 1 else (den // g, {k: c // g for k, c in acc.items()})
    if den != 1:
        inv = sc_inv(den)
        acc = {k: c * inv for k, c in acc.items()}
    dens = [getattr(c, "denominator", 0) for c in acc.values()]
    if 0 in dens:  # a RatFunc entry
        return 1, acc
    den = math.lcm(*dens)
    return den, {k: c.numerator * (den // c.denominator) for k, c in acc.items()}


def row(vec: dict):
    """The row of a sparse map {key: scalar}; zero entries are dropped."""
    return _divide({k: c for k, c in vec.items() if c})


def values(r) -> dict:
    """The sparse map {key: scalar} of a row, ints over den as Rationals."""
    den, nums = r
    return {k: Rational(c, den) if type(c) is int else c for k, c in nums.items()}


def combine(parts, den: int = 1):
    """The row of (sum of c * r over the (c, r) in parts) / den, with int
    c (scalars when a row has a t entry)."""
    lcm = math.lcm(*[d for _, (d, _) in parts])
    acc = {}
    for c, (d, nums) in parts:
        m = c if d == lcm else c * (lcm // d)
        if acc:
            axpy(acc, m, nums)
        elif m:  # a copy or one product per entry, and no sum with 0
            acc = dict(nums) if m == 1 else {k: m * v for k, v in nums.items()}
    return _divide(acc, den * lcm)


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


def rref(m: Matrix):
    """Reduced row echelon form of m, eliminated by a :class:`RowReducer`.

    Returns (rank, pivot columns in increasing order, reduced Matrix);
    the zero rows of the reduced matrix come last.
    """
    red = RowReducer()
    for r in m.rows:
        red.insert(row(dict(enumerate(r))))
    pivots = sorted(red.pivot_rows)
    rows = [[r.get(j, _ZERO) for j in range(m.ncols)]
            for r in (values(red.pivot_rows[p]) for p in pivots)]
    rows += [[_ZERO] * m.ncols for _ in range(m.nrows - len(pivots))]
    return len(pivots), pivots, Matrix(rows, ncols=m.ncols)


def _rows(cols):
    """The rows of the map with sparse columns cols, in key order."""
    rows = {}
    for j, col in enumerate(cols):
        for key, v in col.items():
            rows.setdefault(key, {})[j] = v
    return [row(rows[key]) for key in sorted(rows)]


def kernel_pivot_rows(rows, n, on_pivot=None):
    """The pivot rows of rows over the columns 0..n-1, or None when their
    kernel is zero: past rank n - 1 a row is only reduced, and a nonzero
    residue stops the elimination once ``on_pivot`` has its pivot, as in insert."""
    red = RowReducer()
    for r in rows:
        if red.rank < n - 1:
            red.insert(r, on_pivot)
        elif nums := red.reduce(r)[1]:
            if on_pivot is not None:
                on_pivot(nums[min(nums)])
            return None
    return red.pivot_rows


def _kernel(rows, n, on_pivot=None):
    """The kernel basis of rows over the columns 0..n-1: for each free
    column f, in increasing order, the reduced row echelon vector of f
    (1 at f) times L, the lcm of the pivot rows' denominators.  So a
    kernel over Q is int vectors, and one over Q(t) whose pivot rows all
    have t entries is the reduced row echelon basis itself."""
    pivot_rows = kernel_pivot_rows(rows, n, on_pivot)
    if pivot_rows is None:
        return []
    scale = math.lcm(*[den for den, _ in pivot_rows.values()])
    kernel = []
    for f in range(n):
        if f not in pivot_rows:
            v = [0] * n
            v[f] = scale
            for p, (den, nums) in pivot_rows.items():
                v[p] = -nums.get(f, 0) * (scale // den)
            kernel.append(v)
    return kernel


def rank(rows) -> int:
    """The rank of rows, which is that of the map whose columns they are."""
    return len(kernel_pivot_rows(rows, math.inf))


def kernel_basis(cols):
    """Basis of {v : sum_j v[j] cols[j] = 0} for sparse columns: the
    `_kernel` readout, dense over the columns, with len = len(cols) - rank."""
    return _kernel(_rows(cols), len(cols))


def _solutions(pivot_rows: dict, n: int, m: int):
    """The solutions for the m right-hand sides after the first n columns:
    None for a side outside the column span, which is when a pivot row
    past the columns has an entry in its column; else the dense solution
    that vanishes off the pivot columns."""
    solutions = []
    for j in range(n, n + m):
        if any(j in nums for p, (_, nums) in pivot_rows.items() if p >= n):
            solutions.append(None)
            continue
        x = [_ZERO] * n
        for p, (den, nums) in pivot_rows.items():
            if p < n:
                c = nums.get(j, _ZERO)
                x[p] = Rational(c, den) if type(c) is int else c
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
    pivot_rows = kernel_pivot_rows(_rows([*cols, *rhs]), math.inf)
    return _solutions(pivot_rows, n, len(rhs)), sum(p < n for p in pivot_rows)


def solve_affine(cols, b):
    """Solve sum_j x[j] cols[j] = b exactly: the dense solution that
    vanishes off the pivot columns, or None when the system is inconsistent."""
    return _solutions(kernel_pivot_rows(_rows([*cols, b]), math.inf), len(cols), 1)[0]


def kernel_basis_tracking_pivots(rows, n):
    """The `_kernel` basis of rows over the columns 0..n-1, plus the
    rational t-values where the elimination path could change.

    Over Q(t) a pivot is invertible as a rational function, so the RREF
    is the generic one; at a rational root of any pivot's numerator (or
    a pole of any pivot) the specialized map may have lower rank and a
    strictly larger kernel.  Those finitely many candidate values are
    returned, sorted, so callers can re-run the computation numerically
    there; over Q there are none.  The pivots met in practice have degree
    1 or 2, whose roots `poly_rational_roots` finds in closed form.  No
    pivot is met past full column rank, where the elimination stops.
    """
    special = set()

    def collect_roots(piv):
        for poly in int_pair(piv):
            if len(poly) > 1:
                special.update(poly_rational_roots(poly))

    return _kernel(rows, n, collect_roots), sorted(special)


class RowReducer:
    """Incremental reduced row echelon form over rows.

    Columns are eliminated in increasing key order, so callers choose the
    pivot preference by their column numbering.  After every insertion the
    stored rows are an RREF: each pivot column is in one row, at value 1.
    """

    __slots__ = ("pivot_rows",)

    def __init__(self):
        self.pivot_rows = {}  # pivot column -> row (nums[pivot] == den)

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def reduce(self, r):
        """The residue of the row r modulo the current row space: r minus
        its entry at each pivot column times that column's pivot row."""
        den, nums = r
        pivots = self.pivot_rows
        hits = [(-c, pivots[k]) for k, c in nums.items() if k in pivots]
        return combine([(1, (1, nums)), *hits], den) if hits else r

    def insert(self, r, on_pivot=None):
        """Reduce and store; returns the new pivot column or None if dependent.
        ``on_pivot``, if given, gets the residue's numerator at its pivot (its
        value there up to a positive int) before the row is scaled."""
        _, nums = self.reduce(r)
        if not nums:
            return None
        p = min(nums)
        x = nums[p]
        if on_pivot is not None:
            on_pivot(x)
        piv = _divide(nums, x)
        pivots = self.pivot_rows
        for q, (oden, onums) in pivots.items():
            y = onums.get(p)
            if y:
                pivots[q] = combine([(1, (1, onums)), (-y, piv)], oden)
        pivots[p] = piv
        return p
