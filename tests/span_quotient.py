"""Span references for differential tests: `span_equal`, the oracle of
`ncpoint.normal`'s normality decision, and the linear span build of a quotient.

For a presentation with k generators the degree-d component of the
relation ideal is spanned by {u f v : |u| + deg f + |v| = d}; here it is
assembled over all k^d words as x_i * I_{d-1} + I_{d-1} * x_i + (relations
of degree d) and row-reduced degree by degree.  Words are eliminated
largest-first in lex order (generator 0 smallest), the order whose
reduced normal forms `ncpoint.quotient.QuotientCache` must reproduce.
Exponential in the degree: for small presentations only.
"""

from ncpoint.freealg import NCPoly
from ncpoint.linalg import RowReducer, row, values


def homogeneous_parts(f):
    """{degree: the part of f in that degree}, in increasing degree."""
    parts = {}
    for w, c in f.terms.items():
        parts.setdefault(len(w), {})[w] = c
    return {d: NCPoly(p) for d, p in sorted(parts.items())}


def span_equal(rows_a, rows_b) -> bool:
    """Do two lists of sparse rows {key: scalar} span the same subspace?
    Both reduced row echelon forms are unique, so their values are
    compared as they are."""
    ra, rb = RowReducer(), RowReducer()
    for r in rows_a:
        ra.insert(row(r))
    for r in rows_b:
        rb.insert(row(r))
    return ({p: values(r) for p, r in ra.pivot_rows.items()}
            == {p: values(r) for p, r in rb.pivot_rows.items()})


class SpanQuotient:
    def __init__(self, pres, cap):
        self._k = pres.num_generators
        self._reducers = []
        self._retained = []
        self._relation_ranks = []  # per degree: rank the relations add
        rels_by_degree = {}
        for f in pres.relations:
            rels_by_degree.setdefault(f.degree(), []).append(f)
        for d in range(cap + 1):
            self._build_degree(d, rels_by_degree.get(d, ()))

    # -- column numbering: eliminate the lex-LARGEST word first ------------
    def _col(self, w):
        r = 0
        for i in w:
            r = r * self._k + i
        return (self._k ** len(w) - 1) - r

    def _word_from_col(self, col, d):
        r = (self._k ** d - 1) - col
        out = []
        for _ in range(d):
            out.append(r % self._k)
            r //= self._k
        return tuple(reversed(out))

    def _build_degree(self, d, rels):
        reducer = RowReducer()
        if d >= 2:
            for r in self._reducers[d - 1].pivot_rows.values():
                words = [(self._word_from_col(c, d - 1), v) for c, v in values(r).items()]
                for i in range(self._k):
                    reducer.insert(row({self._col((i,) + w): v for w, v in words}))
                    reducer.insert(row({self._col(w + (i,)): v for w, v in words}))
        closure_rank = reducer.rank
        for f in rels:
            reducer.insert(row({self._col(w): c for w, c in f.terms.items()}))
        self._reducers.append(reducer)
        self._relation_ranks.append(reducer.rank - closure_rank)
        free = set(range(self._k ** d)) - set(reducer.pivot_rows)
        self._retained.append([self._word_from_col(c, d) for c in sorted(free, reverse=True)])

    # -- queries -----------------------------------------------------------
    def dim(self, d):
        return len(self._retained[d])

    def retained_words(self, d):
        return list(self._retained[d])

    def minimal_relation_degrees(self):
        return {d: n for d, n in enumerate(self._relation_ranks) if n}

    def normal_form(self, f):
        out = NCPoly.zero()
        for d, part in homogeneous_parts(f).items():
            vec = {self._col(w): c for w, c in part.terms.items()}
            res = values(self._reducers[d].reduce(row(vec)))
            out = out + NCPoly({self._word_from_col(c, d): v for c, v in res.items()})
        return out
