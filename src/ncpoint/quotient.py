"""Degree-capped quotients A = T(V)/I: bases, normal forms, Hilbert data.

Within a degree, words are ordered lexicographically with generator 0
smallest, and the lex-largest word of a polynomial leads.  For this order
the cache holds the reduced Gröbner basis of the homogeneous ideal I up
to its cap, built degree by degree as in Bergman's diamond lemma: the
rules of degree d come from the overlap S-polynomials of length d of the
lower rules and then from the presented relations of degree d, each
reduced by the lower rules.  The rules of a degree are the RREF of a
RowReducer (Lazard's Gaussian-elimination view of Gröbner bases) keyed
by flipped words, so its pivot, the smallest key, is the leading word.
A rule is its leading word and its tail, a linalg row.  A cache grows
by one degree at a time and takes new relations in its top degree, so a
caller that finds relations degree by degree builds one.
A word is standard when no leading word occurs in it.  The standard
words of degree d are a basis of A_d; they are grown one letter at a
time from those of degree d - 1, so a degree lists only its standard
words, which are all k^d words only in a free algebra.  A normal form
is the unique representative of f + I supported on standard words,
found by rewriting leading words; it is identical across runs and
platforms, and its terms are the sparse column {standard word: coeff}
that linalg's kernels and solves take.
The memoized loop that rewrites, `rewrite`, sums linalg rows; it also
computes PBW normal forms in colorlie.
"""

from .freealg import NCPoly, Presentation
from .linalg import RowReducer, combine, row, values

DEFAULT_WORD_BUDGET = 300_000


def _flip(word):
    """The word with every letter negated: within a degree, lex order reversed."""
    return tuple(-i for i in word)


class DegreeCapError(ValueError):
    """An operation needed a degree beyond the cache's cap."""


class BudgetError(RuntimeError):
    """The per-degree word count exceeded the configured budget."""


class InvariantError(Exception):
    """A runtime self-check of a computed result failed: a fault in the
    program, not in its input."""


def rewrite(word, memo, step):
    """Normal form of `word` in a reduction system, memoized in `memo`.

    `step(v)` returns None when v is irreducible, and otherwise one rewrite
    (den, parts), v = (sum of c * v' over the parts (v', c)) / den, with int
    c (scalars over den 1 for a rule with t) and each v' smaller than v in
    a well-founded order.  Runs on an explicit stack, so long chains of
    rewrites need no recursion.  The returned linalg row is the memo entry.
    """
    nf = memo.get(word)
    if nf is not None:
        return nf
    stack = [(word, None)]
    while stack:
        v, parts = stack[-1]
        if parts is None:
            if v in memo:
                stack.pop()
                continue
            parts = step(v)
            if parts is None:
                memo[v] = 1, {v: 1}
                stack.pop()
                continue
            stack[-1] = (v, parts)
            stack.extend((p, None) for p, _ in parts[1] if p not in memo)
            continue
        den, parts = parts
        memo[v] = combine([(c, memo[p]) for p, c in parts], den)
        stack.pop()
    return memo[word]


class QuotientCache:
    """Truncated reduced Gröbner basis of a presentation, with its
    standard words per degree and a memo of word normal forms.

    `grow` and `add_relations` extend the basis; queries only fill the memo.
    """

    def __init__(self, pres: Presentation, cap: int, budget: int = DEFAULT_WORD_BUDGET):
        if cap < 0:
            raise ValueError("cap must be nonnegative")
        self.pres = pres
        self.cap = -1
        self.budget = budget
        self._k = pres.num_generators
        self._rules: dict = {}          # leading word -> tail row over words
        self._lead_lengths: list = []   # distinct leading-word lengths, increasing
        self._retained: list = []       # standard words per degree, lex order
        self._relation_leads: list = [] # per degree: leading words from relations
        self._memo: list = []           # per degree: word -> normal form row
        self._top = RowReducer()        # top-degree rules, keyed by flipped words
        for d in range(cap + 1):
            self.grow([f for f in pres.relations if f.degree() == d])

    # -- construction ------------------------------------------------------
    def grow(self, relations=()):
        """Raise the cap by one degree d: its rules come from the overlaps
        of the lower rules, then from `relations` (presented, of degree d)."""
        d = self.cap + 1
        if self._k ** d > self.budget:
            raise BudgetError(
                f"degree {d} needs {self._k ** d} words, over the budget of {self.budget}")
        self.cap = d
        self._memo.append({})
        self._relation_leads.append(0)
        self._top = RowReducer()
        for s in self._overlaps(d):
            self._insert(s)
        self._add(relations)

    def add_relations(self, relations):
        """Add relations of the top degree to the presentation and the basis."""
        relations = tuple(relations)
        if any(f.degree() != self.cap for f in relations):
            raise ValueError(f"relations must be homogeneous of degree {self.cap}")
        self.pres = Presentation(self.pres.names, self.pres.relations + relations)
        self._add(relations)

    def _add(self, relations):
        """Insert relations into the top degree, counting the leading words
        they add; then commit its rules, read off the pivot rows."""
        d, before = self.cap, self._top.rank
        for f in relations:
            self._insert(row(f.terms))
        self._relation_leads[d] += self._top.rank - before
        if self._top.rank:
            self._rules.update(
                (_flip(p), (den, {_flip(w): c for w, c in nums.items() if w != p}))
                for p, (den, nums) in self._top.pivot_rows.items())
            self._lead_lengths = sorted({*self._lead_lengths, d})
            self._memo[d] = {}  # computed before the degree-d rules existed
        self._retained[d:] = [self._standard_words(d)]

    def _overlaps(self, d: int):
        """S-polynomials of length d: for leading words l1 = u s and
        l2 = s v with s nonempty, (l1 + t1) v - u (l2 + t2) = t1 v - u t2."""
        out = []
        for l1, (d1, t1) in self._rules.items():
            for l2, (d2, t2) in self._rules.items():
                o = len(l1) + len(l2) - d
                if 0 < o < min(len(l1), len(l2)) and l1[-o:] == l2[:o]:
                    u, v = l1[:-o], l2[o:]
                    out.append(combine([(1, (d1, {w + v: c for w, c in t1.items()})),
                                        (-1, (d2, {u + w: c for w, c in t2.items()}))]))
        return out

    def _insert(self, f):
        """Reduce the row f of the top degree by the committed rules and
        insert it into the top degree's RowReducer, keyed by flipped words."""
        den, r = self._reduce(f)
        self._top.insert((den, {_flip(w): c for w, c in r.items()}))

    def _standard_words(self, d: int):
        """Standard words of degree d in lex order: a standard word of
        degree d - 1 plus one letter, unless a leading word is a suffix;
        one filter per leading-word length, none in a free algebra."""
        if d == 0:
            return [()]
        letters = [(i,) for i in range(self._k)]
        words = [s + a for s in self._retained[d - 1] for a in letters]
        for n in self._lead_lengths:
            words = [w for w in words if w[-n:] not in self._rules]
        return words

    def _step(self, w):
        """One rewrite of w at the first leading word found in it, as the
        (den, parts) of `rewrite`; None when w is standard."""
        rules = self._rules
        for n in self._lead_lengths:
            if n > len(w):
                break
            for i in range(len(w) - n + 1):
                tail = rules.get(w[i:i + n])
                if tail is not None:
                    a, b = w[:i], w[i + n:]
                    return tail[0], [(a + t + b, -c) for t, c in tail[1].items()]
        return None

    def _reduce(self, f):
        """The normal form of the row f over words, from those of its words."""
        den, nums = f
        return combine([(c, rewrite(w, self._memo[len(w)], self._step))
                        for w, c in nums.items()], den)

    # -- queries -----------------------------------------------------------
    def dim(self, d: int) -> int:
        self._check_degree(d)
        return len(self._retained[d])

    def ideal_dim(self, d: int) -> int:
        return self._k ** d - self.dim(d)

    def retained_words(self, d: int):
        self._check_degree(d)
        return list(self._retained[d])

    def _check_degree(self, d: int):
        if d < 0:
            raise ValueError("negative degree")
        if d > self.cap:
            raise DegreeCapError(f"degree {d} exceeds cap {self.cap}")

    def normal_form(self, f: NCPoly) -> NCPoly:
        """Canonical representative of f modulo the relation ideal.

        Linear and idempotent; the result is supported on retained words,
        its terms in lex order whatever the memo already holds.  Works
        degreewise on non-homogeneous input.
        """
        for d in sorted({len(w) for w in f.terms}):
            self._check_degree(d)
        return NCPoly(dict(sorted(values(self._reduce(row(f.terms))).items())))

    def is_zero_mod_ideal(self, f: NCPoly) -> bool:
        return not self.normal_form(f)


def hilbert(pres: Presentation, max_degree: int,
            budget: int = DEFAULT_WORD_BUDGET):
    """dim A_d for d = 0..max_degree."""
    cache = QuotientCache(pres, max_degree, budget)
    return [cache.dim(d) for d in range(max_degree + 1)]


def minimal_relation_degrees(pres: Presentation, max_degree: int,
                             budget: int = DEFAULT_WORD_BUDGET):
    """Count of minimal homogeneous ideal generators per degree <= max_degree.

    In degree d this is dim I_d minus the dimension of
    (F_1 I_{d-1} + I_{d-1} F_1)_d inside the free algebra F: the number
    of leading words of degree d that the presented relations add to
    those of the overlaps.
    """
    if pres.relations and max_degree < pres.max_relation_degree():
        raise ValueError("max_degree below the largest presented relation degree")
    cache = QuotientCache(pres, max_degree, budget)
    return {d: n for d, n in enumerate(cache._relation_leads) if d >= 2 and n}
