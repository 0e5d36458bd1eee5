"""Degree-capped quotient bases, normal forms, and Hilbert data.

For a presentation with k generators the degree-d component of the
relation ideal is spanned by {u f v : |u| + deg f + |v| = d}; here it is
assembled incrementally as x_i * I_{d-1} + I_{d-1} * x_i + (relations of
degree d) and row-reduced degree by degree.  Words are eliminated
largest-first in graded-lex order (generator 0 smallest), so normal
forms are supported on the lex-smallest words and are identical across
runs and platforms.
"""

from __future__ import annotations

from fractions import Fraction

from .freealg import NCPoly, Presentation
from .linalg import RowReducer

_ZERO = Fraction(0)
_ONE = Fraction(1)

DEFAULT_WORD_BUDGET = 300_000


class DegreeCapError(ValueError):
    """An operation needed a degree beyond the cache's cap."""


class BudgetError(RuntimeError):
    """The per-degree word count exceeded the configured budget."""


class _DegreeData:
    __slots__ = ("degree", "nwords", "reducer", "retained", "closure_rank", "full_rank")

    def __init__(self, degree, nwords, reducer, retained, closure_rank, full_rank):
        self.degree = degree
        self.nwords = nwords
        self.reducer = reducer          # RowReducer in largest-first column order
        self.retained = retained        # non-pivot words, lex order
        self.closure_rank = closure_rank
        self.full_rank = full_rank


class QuotientCache:
    """Per-degree quotient bases and reducers for a presentation.

    Immutable after construction; all queries are pure.
    """

    def __init__(self, pres: Presentation, cap: int, budget: int = DEFAULT_WORD_BUDGET):
        if cap < 0:
            raise ValueError("cap must be nonnegative")
        self.pres = pres
        self.cap = cap
        self.budget = budget
        self._k = pres.num_generators
        self._deg: list[_DegreeData] = []
        rels_by_degree: dict[int, list[NCPoly]] = {}
        for f in pres.relations:
            rels_by_degree.setdefault(f.degree(), []).append(f)
        for d in range(cap + 1):
            self._deg.append(self._build_degree(d, rels_by_degree.get(d, ())))

    # -- column numbering: eliminate the graded-lex LARGEST word first ----
    def _word_rank(self, w) -> int:
        r = 0
        for i in w:
            r = r * self._k + i
        return r

    def _col(self, w) -> int:
        return (self._k ** len(w) - 1) - self._word_rank(w)

    def _word_from_col(self, col: int, d: int):
        r = (self._k ** d - 1) - col
        out = []
        for _ in range(d):
            out.append(r % self._k)
            r //= self._k
        return tuple(reversed(out))

    def _build_degree(self, d: int, rels) -> _DegreeData:
        nwords = self._k ** d
        if nwords > self.budget:
            raise BudgetError(
                f"degree {d} needs {nwords} words, over the budget of {self.budget}")
        reducer = RowReducer()
        if d >= 2:
            prev = self._deg[d - 1].reducer.pivot_rows
            for row in prev.values():
                words = [(self._word_from_col(c, d - 1), v) for c, v in row.items()]
                for i in range(self._k):
                    left = {self._col((i,) + w): v for w, v in words}
                    reducer.insert(left)
                    right = {self._col(w + (i,)): v for w, v in words}
                    reducer.insert(right)
            closure_rank = reducer.rank
            for f in rels:
                reducer.insert({self._col(w): c for w, c in f.terms.items()})
        else:
            closure_rank = 0
        full_rank = reducer.rank
        pivots = set(reducer.pivot_rows)
        retained = [self._word_from_col(c, d)
                    for c in sorted(set(range(nwords)) - pivots, reverse=True)]
        return _DegreeData(d, nwords, reducer, retained, closure_rank, full_rank)

    # -- queries -----------------------------------------------------------
    def dim(self, d: int) -> int:
        self._check_degree(d)
        return self._deg[d].nwords - self._deg[d].full_rank

    def ideal_dim(self, d: int) -> int:
        self._check_degree(d)
        return self._deg[d].full_rank

    def retained_words(self, d: int):
        self._check_degree(d)
        return list(self._deg[d].retained)

    def _check_degree(self, d: int):
        if d < 0:
            raise ValueError("negative degree")
        if d > self.cap:
            raise DegreeCapError(f"degree {d} exceeds cap {self.cap}")

    def normal_form(self, f: NCPoly) -> NCPoly:
        """Canonical representative of f modulo the relation ideal.

        Linear and idempotent; the result is supported on retained words.
        Works degreewise on non-homogeneous input.
        """
        out = NCPoly.zero()
        for d, part in f.homogeneous_parts().items():
            self._check_degree(d)
            vec = {self._col(w): c for w, c in part.terms.items()}
            res = self._deg[d].reducer.reduce(vec)
            out = out + NCPoly({self._word_from_col(c, d): v for c, v in res.items()})
        return out

    def is_zero_mod_ideal(self, f: NCPoly) -> bool:
        return not self.normal_form(f)

    def equal_mod_ideal(self, f: NCPoly, g: NCPoly) -> bool:
        df, dg = f.degree(), g.degree()
        if f and g and df != dg:
            raise ValueError(f"degree mismatch: {df} vs {dg}")
        return self.is_zero_mod_ideal(f - g)

    def coords(self, f: NCPoly, d: int):
        """Coordinates of normal_form(f) over retained_words(d)."""
        nf = self.normal_form(f)
        if nf and nf.degree() != d:
            raise ValueError("wrong degree for coordinates")
        index = {w: i for i, w in enumerate(self._deg[d].retained)}
        vec = [_ZERO] * len(index)
        for w, c in nf.terms.items():
            vec[index[w]] = c
        return vec


def hilbert(pres: Presentation, max_degree: int,
            budget: int = DEFAULT_WORD_BUDGET):
    """dim A_d for d = 0..max_degree."""
    cache = QuotientCache(pres, max_degree, budget)
    return [cache.dim(d) for d in range(max_degree + 1)]


def minimal_relation_degrees(pres: Presentation, max_degree: int,
                             budget: int = DEFAULT_WORD_BUDGET):
    """Count of minimal homogeneous ideal generators per degree <= max_degree.

    In degree d this is dim I_d minus the dimension of
    (F_1 I_{d-1} + I_{d-1} F_1)_d inside the free algebra F.
    """
    if pres.relations and max_degree < pres.max_relation_degree():
        raise ValueError("max_degree below the largest presented relation degree")
    cache = QuotientCache(pres, max_degree, budget)
    out = {}
    for d in range(2, max_degree + 1):
        count = cache._deg[d].full_rank - cache._deg[d].closure_rank
        if count:
            out[d] = count
    return out
