"""Exact linear algebra, quotient normal forms and PBW rewriting as they
were over Fractions: the differential oracle for linalg's integer rows.

A vector is a dict {key: scalar} of Fraction and RatFunc entries, and
`axpy` adds them with Fraction arithmetic.  `RowReducer` stores every
pivot row scaled to 1 at its pivot by dividing through by the pivot
entry; kernels, solves and special values read those rows.  A kernel
vector is the reduced row echelon one times L, the lcm of the pivot
rows' entry denominators, where a row with a t entry counts as 1.
`ReferenceQuotient` builds the reduced Gröbner basis degree by degree
as `ncpoint.quotient.QuotientCache` does, with rule tails and memoized
normal forms kept over Fractions, and `reference_pbw` rewrites into the
PBW basis with the same leftmost-inversion rule.  Only the presentation
and the algebra's tables come from the package.  For small inputs only.

The package's scalars come in through `ratfunc_reference.reference`, as
Fractions and that module's Fraction-pair RatFuncs, where a row enters a
`RowReducer`, a polynomial enters `ReferenceQuotient`, and an entry of
the algebra's tables is read; results are over Fractions.
"""

import math
from fractions import Fraction

from ncpoint.freealg import NCPoly
from ncpoint.scalars import poly_rational_roots
from ratfunc_reference import RatFunc, package, parts, reference

_ZERO = Fraction(0)
_ONE = Fraction(1)


def axpy(acc: dict, s, vec: dict):
    """acc += s * vec on sparse maps key -> scalar, dropping zeros; the
    scalars are all the package's or all Fractions."""
    for key, c in vec.items():
        new = acc.get(key, 0) + s * c
        if new:
            acc[key] = new
        else:
            acc.pop(key, None)


class RowReducer:
    """Incremental RREF over dict rows; each pivot row is 1 at its pivot."""

    def __init__(self):
        self.pivot_rows = {}

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def reduce(self, row: dict) -> dict:
        out = reference(row)
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
        res = self.reduce(row)
        if not res:
            return None
        p = min(res)
        inv = res[p]
        if on_pivot is not None:
            on_pivot(inv)
        inv = Fraction(inv) if isinstance(inv, int) else inv
        res = {c: v / inv for c, v in res.items()}
        for other in self.pivot_rows.values():
            f = other.get(p)
            if f:
                axpy(other, -f, res)
        self.pivot_rows[p] = res
        return p


def eliminate(cols, on_pivot=None) -> dict:
    """The pivot rows of the map with sparse columns cols, its rows
    inserted in increasing key order."""
    rows = {}
    for j, col in enumerate(cols):
        for key, v in col.items():
            if v:
                rows.setdefault(key, {})[j] = v
    red = RowReducer()
    for key in sorted(rows):
        red.insert(rows[key], on_pivot)
    return red.pivot_rows


def _clearing(row: dict) -> int:
    """The lcm of the denominators of a row's entries; 1 with a t entry."""
    if any(isinstance(v, RatFunc) for v in row.values()):
        return 1
    return math.lcm(*[v.denominator for v in row.values()])


def kernel_basis(cols):
    n, pivot_rows = len(cols), eliminate(cols)
    scale = math.lcm(*[_clearing(row) for row in pivot_rows.values()])
    kernel = []
    for f in range(n):
        if f not in pivot_rows:
            v = [_ZERO] * n
            v[f] = _ONE
            for p, row in pivot_rows.items():
                if f in row:
                    v[p] = -row[f]
            kernel.append([scale * c for c in v])
    return kernel


def _solutions(pivot_rows: dict, n: int, m: int):
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
    n = len(cols)
    pivot_rows = eliminate(list(cols) + list(rhs))
    return _solutions(pivot_rows, n, len(rhs)), sum(p < n for p in pivot_rows)


def solve_affine(cols, b):
    return _solutions(eliminate(list(cols) + [b]), len(cols), 1)[0]


def special_values(cols):
    """The rational roots and poles of every pivot met eliminating cols."""
    special = set()

    def collect_roots(piv):
        for poly in parts(piv):
            if len(poly) > 1:
                special.update(reference(poly_rational_roots(package(poly))))

    eliminate(cols, collect_roots)
    return sorted(special)


def rewrite(word, memo, step):
    """Normal form of word, memoized; step(v) is None or the parts
    [(v', c)] of v = sum of c * v'."""
    if word in memo:
        return memo[word]
    parts = step(word)
    if parts is None:
        nf = {word: _ONE}
    else:
        nf = {}
        for p, c in parts:
            axpy(nf, c, rewrite(p, memo, step))
    memo[word] = nf
    return nf


def _flip(word):
    return tuple(-i for i in word)


class ReferenceQuotient:
    """The reduced Gröbner basis of a presentation up to cap, degree by
    degree: overlaps of the lower rules, then the relations, each reduced
    by the lower rules into one RowReducer keyed by flipped words."""

    def __init__(self, pres, cap: int):
        self._rules = {}  # leading word -> monic tail {word: coeff}
        self._memo = {}
        for d in range(cap + 1):
            top = RowReducer()
            for s in self._overlaps(d):
                top.insert({_flip(w): c for w, c in self._nf(s).items()})
            for f in pres.relations:
                if f.degree() == d:
                    top.insert({_flip(w): c for w, c in self._nf(f.terms).items()})
            if top.rank:
                self._rules.update(
                    (_flip(p), {_flip(w): c for w, c in row.items() if w != p})
                    for p, row in top.pivot_rows.items())
                self._memo = {}

    def _overlaps(self, d: int):
        out = []
        for l1, t1 in self._rules.items():
            for l2, t2 in self._rules.items():
                o = len(l1) + len(l2) - d
                if 0 < o < min(len(l1), len(l2)) and l1[-o:] == l2[:o]:
                    u, v = l1[:-o], l2[o:]
                    s = {w + v: c for w, c in t1.items()}
                    axpy(s, -_ONE, {u + w: c for w, c in t2.items()})
                    out.append(s)
        return out

    def _step(self, w):
        for n in sorted({len(lead) for lead in self._rules}):
            for i in range(len(w) - n + 1):
                tail = self._rules.get(w[i:i + n])
                if tail is not None:
                    return [(w[:i] + t + w[i + n:], -c) for t, c in tail.items()]
        return None

    def _nf(self, terms: dict) -> dict:
        out = {}
        for w, c in reference(terms).items():
            axpy(out, c, rewrite(w, self._memo, self._step))
        return out

    def normal_form(self, f: NCPoly) -> NCPoly:
        return NCPoly(dict(sorted(self._nf(f.terms).items())))


def reference_pbw(L, word, memo):
    """{sorted word: coeff}: rewrite the leftmost inversion b_j b_i as
    eps(|b_j|, |b_i|) b_i b_j + [b_j, b_i] until none is left."""
    def step(v):
        pos = next((k for k in range(len(v) - 1)
                    if L.rank_of[v[k]] > L.rank_of[v[k + 1]]), None)
        if pos is None:
            return None
        i, j = v[pos], v[pos + 1]
        head, tail = v[:pos], v[pos + 2:]
        return ([(head + (j, i) + tail, reference(L.epsilon[i][j]))]
                + [(head + (k,) + tail, c) for k, c in reference(L.bracket(i, j)).items()])

    return rewrite(tuple(word), memo, step)
