"""Exact linear algebra over Q and Q(t).

Everything here is exact: a kernel vector multiplies back to literal
zero, never to "small".  :class:`RowReducer`, the sparse incremental
RREF over rows that are dictionaries column -> scalar, is the one
elimination loop: span tests, Koszul ranks and the dense
:class:`Matrix` API (kernels, solves and Q(t) special values for the
small systems of point propagation and PBW coordinates) all run on it.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import (
    Scalar,
    denominator_poly,
    numerator_poly,
    poly_degree,
    poly_rational_roots,
    scalar_to_str,
)

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

    @classmethod
    def identity(cls, n):
        return cls([[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, cols, nrows: int) -> "Matrix":
        """The nrows x len(cols) matrix whose column j is cols[j]."""
        return cls([[col[i] for col in cols] for i in range(nrows)], ncols=len(cols))

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


def rref(m: Matrix, on_pivot=None):
    """Reduced row echelon form of m, eliminated by a :class:`RowReducer`.

    ``on_pivot``, when given, is called with every pivot entry before
    its row is normalized.

    Returns (rank, pivot columns in increasing order, reduced Matrix);
    the zero rows of the reduced matrix come last.
    """
    red = RowReducer()
    for row in m.rows:
        red.insert({j: v for j, v in enumerate(row) if v}, on_pivot)
    pivots = sorted(red.pivot_rows)
    rows = [[red.pivot_rows[p].get(j, _ZERO) for j in range(m.ncols)] for p in pivots]
    rows += [[_ZERO] * m.ncols for _ in range(m.nrows - len(pivots))]
    return len(pivots), pivots, Matrix(rows, ncols=m.ncols)


def _kernel_from_rref(pivots, red: Matrix, ncols: int):
    """Kernel basis read off an RREF whose first ncols columns are the
    system; one vector per free column, in increasing column order."""
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [_ZERO] * ncols
        v[f] = _ONE
        for i, p in enumerate(pivots):
            v[p] = -red.rows[i][f]
        basis.append(v)
    return basis


def kernel_basis(m: Matrix):
    """Basis of the right kernel {v : m v = 0}; len = ncols - rank."""
    _, pivots, red = rref(m)
    return _kernel_from_rref(pivots, red, m.ncols)


def solve_columns(m: Matrix, rhs):
    """Solve m x = b for every b in rhs with one elimination of [m | rhs].

    Returns (solutions, kernel): solutions[i] is None when m x = rhs[i] is
    inconsistent, else the solution that vanishes off the pivot columns;
    kernel is the full kernel basis of m.  The left block of the RREF is
    RREF(m), and rhs[i] lies in the column space of m exactly when its
    column of the RREF vanishes below row rank(m).
    """
    if any(len(b) != m.nrows for b in rhs):
        raise ValueError("right-hand side length mismatch")
    n = m.ncols
    aug = Matrix([row + [b[i] for b in rhs] for i, row in enumerate(m.rows)],
                 ncols=n + len(rhs))
    _, pivots, red = rref(aug)
    pivots = [p for p in pivots if p < n]
    solutions = []
    for j in range(n, n + len(rhs)):
        if any(red.rows[i][j] for i in range(len(pivots), m.nrows)):
            solutions.append(None)
            continue
        x = [_ZERO] * n
        for i, p in enumerate(pivots):
            x[p] = red.rows[i][j]
        solutions.append(x)
    return solutions, _kernel_from_rref(pivots, red, n)


def solve_affine(m: Matrix, b):
    """Solve m x = b exactly.

    Returns (particular, kernel) where particular is None when the
    system is inconsistent; kernel is always the full kernel basis.
    """
    solutions, kernel = solve_columns(m, [b])
    return solutions[0], kernel


def kernel_basis_tracking_pivots(m: Matrix):
    """Kernel basis plus the rational t-values where the elimination path
    could change.

    Over Q(t) a pivot is invertible as a rational function, so the RREF
    is the generic one; at a rational root of any pivot's numerator (or
    a pole of any pivot) the specialized matrix may have lower rank and
    a strictly larger kernel.  Those finitely many candidate values are
    returned so callers can re-run the computation numerically there.
    """
    special = set()

    def collect_roots(piv):
        for poly in (numerator_poly(piv), denominator_poly(piv)):
            if poly_degree(poly) > 0:
                special.update(poly_rational_roots(poly))

    _, pivots, red = rref(m, on_pivot=collect_roots)
    return _kernel_from_rref(pivots, red, m.ncols), sorted(special)


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
        row is normalized."""
        res = self.reduce(row)
        if not res:
            return None
        p = min(res)
        inv = res[p]
        if on_pivot is not None:
            on_pivot(inv)
        res = {c: v / inv for c, v in res.items()}
        for other in self.pivot_rows.values():
            f = other.get(p)
            if f:
                axpy(other, -f, res)
        self.pivot_rows[p] = res
        return p

    def canonical(self):
        """Hashable canonical form of the row space (for span comparison)."""
        return tuple(
            (p, tuple(sorted(self.pivot_rows[p].items())))
            for p in sorted(self.pivot_rows)
        )


def span_equal(rows_a, rows_b) -> bool:
    """Do two lists of sparse rows span the same subspace?"""
    ra, rb = RowReducer(), RowReducer()
    for r in rows_a:
        ra.insert(r)
    for r in rows_b:
        rb.insert(r)
    return ra.canonical() == rb.canonical()
