"""Color Lie algebras graded by Z^{m+1}: axioms, PBW arithmetic in the
enveloping algebra (on quotient's rewriting loop), U(L) as one quotient
grown degree by degree (each degree's relations read off the kernel of
its standard words into U(L)), the epsilon-symmetric algebra and the
point variety of a skew polynomial algebra, the nilpotency index of the
degree-1 part, Heisenberg-element extraction, and the color Koszul complex.

Only the epsilon(gamma, gamma) = 1 sector is implemented (the standing
hypothesis of every check downstream); the super sector is out of scope.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

from .freealg import NCPoly, ParseError, Presentation, directives, parse_poly
from .linalg import RowReducer, axpy, kernel_basis, solve_columns
from .normal import HeisenbergWitness
from .quotient import DEFAULT_WORD_BUDGET, BudgetError, InvariantError, QuotientCache, rewrite
from .scalars import Scalar, check_power_size, parse_scalar, scalar_to_str, sc_pow

_ZERO = Fraction(0)
_ONE = Fraction(1)
SKEW_STEP_BOUND = 1 << 17  # steps of `skew_point_variety`: its pre-pass and its walk


class Bicharacter:
    """Skew symmetric bicharacter on Z^{m+1} determined by a matrix of
    nonzero scalars with omega_ij * omega_ji = 1."""

    __slots__ = ("omega", "rank")

    def __init__(self, omega):
        omega = tuple(tuple(row) for row in omega)
        n = len(omega)
        if any(len(row) != n for row in omega):
            raise ValueError("omega must be square")
        for i, row in enumerate(omega):
            for j, v in enumerate(row):
                if not v:
                    raise ValueError("omega entries must be nonzero")
                if omega[i][j] * omega[j][i] != 1:
                    raise ValueError("omega_ij * omega_ji must equal 1")
        self.omega = omega
        self.rank = n

    def eval(self, alpha, beta) -> Scalar:
        """epsilon(alpha, beta) = prod omega_ij^(alpha_i beta_j); a factor past
        the bound of `scalars.check_power_size` raises before it is computed."""
        out: Scalar = _ONE
        for i, a in enumerate(alpha):
            if not a:
                continue
            for j, b in enumerate(beta):
                if not b:
                    continue
                check_power_size(self.omega[i][j], abs(a * b))
                out = out * sc_pow(self.omega[i][j], a * b)
        return out


def _vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


class ColorLieAlgebra:
    """Finite dimensional color Lie algebra with a chosen homogeneous basis.

    An element is a sparse map {basis index: nonzero scalar}, the format
    of linalg's rows and columns.  Brackets are stored for the pairs given
    in the input, each in basis order; a missing opposite pair is derived
    from epsilon-antisymmetry (once, then memoized), and a pair that is
    stored in both orders is kept verbatim so that axiom checking can flag
    genuine inconsistencies.

    Every basis element has a positive total degree, so each PBW degree
    has finitely many monomials.  epsilon[a][b] = eps(|b_a|, |b_b|) is
    computed once per basis pair.  A pair whose factor
    omega_ij^(alpha_i beta_j) passes the scalar power bound
    (`scalars.check_power_size`) is refused with ValueError.
    """

    def __init__(self, names, degrees, eps: Bicharacter, brackets):
        self.names = tuple(names)
        self.degrees = tuple(tuple(d) for d in degrees)
        self.eps = eps
        if len(self.names) != len(self.degrees):
            raise ValueError("one degree vector per basis element")
        if len(set(self.names)) != len(self.names):
            raise ValueError("basis names must be distinct")
        for name, d in zip(self.names, self.degrees):
            if len(d) != eps.rank:
                raise ValueError("degree vectors must match the grading rank")
            if sum(d) <= 0:
                raise ValueError(f"basis element {name} has total degree {sum(d)}; "
                                 "basis degrees must be positive")
        self.dim = len(self.names)
        self.brackets = {}
        for (i, j), vec in brackets.items():
            if not all(0 <= k < self.dim for k in vec):
                raise ValueError("bracket values must be in the basis")
            self.brackets[(i, j)] = {k: vec[k] for k in sorted(vec) if vec[k]}
        # PBW order: by (total Z-degree, input position)
        self.order = sorted(range(self.dim),
                            key=lambda i: (sum(self.degrees[i]), i))
        self.rank_of = {idx: pos for pos, idx in enumerate(self.order)}
        self.epsilon = tuple(tuple(self._epsilon_entry(a, b) for b in range(self.dim))
                             for a in range(self.dim))
        self._derived = {}
        self._pbw_cache = {}
        self._layers = None  # set by `presentable_layers`

    def _epsilon_entry(self, a: int, b: int) -> Scalar:
        try:
            return self.eps.eval(self.degrees[a], self.degrees[b])
        except ValueError as exc:
            raise ValueError(f"eps(|{self.names[a]}|, |{self.names[b]}|) "
                             f"is too large: {exc}") from None

    # -- bracket lookup -------------------------------------------------
    def bracket(self, i: int, j: int):
        stored = self.brackets.get((i, j))
        if stored is not None:
            return stored
        derived = self._derived.get((i, j))
        if derived is None:
            e = self.epsilon[i][j]
            derived = {k: -(e * c) for k, c in self.brackets.get((j, i), {}).items()}
            self._derived[(i, j)] = derived
        return derived

    def bracket_vectors(self, u, v):
        """Bilinear extension of the bracket to elements."""
        out = {}
        for i, ci in u.items():
            for j, cj in v.items():
                axpy(out, ci * cj, self.bracket(i, j))
        return out

    def total_degree(self, i: int) -> int:
        return sum(self.degrees[i])

    # -- designated generators -------------------------------------------
    def theta_indices(self):
        """Basis index of theta_i for each unit degree e_i; raises when a
        unit degree is missing or carries more than one basis element."""
        ones = self.degree_one_indices()
        out = []
        for coord in range(self.eps.rank):
            matches = [i for i in ones if self.degrees[i][coord]]
            if len(matches) != 1:
                raise ValueError(
                    f"degree e_{coord} must carry exactly one basis element")
            out.append(matches[0])
        return out

    def degree_one_indices(self):
        """Basis indices whose degree is a unit vector e_i."""
        return [i for i, d in enumerate(self.degrees)
                if d.count(1) == 1 and d.count(0) == len(d) - 1]


def _grading_violations(L: ColorLieAlgebra):
    for (i, j), vec in L.brackets.items():
        want = _vec_add(L.degrees[i], L.degrees[j])
        for k in vec:
            if L.degrees[k] != want:
                yield (f"[{L.names[i]},{L.names[j]}] hits {L.names[k]} "
                       f"of degree {L.degrees[k]}, expected {want}")


def _require_graded(L: ColorLieAlgebra):
    """Raise ValueError naming the first bracket that breaks the grading.

    The degree-by-degree constructions (L_1^j, PBW coordinates, Koszul
    components) rely on the grading; without it they need not terminate.
    """
    first = next(_grading_violations(L), None)
    if first is not None:
        raise ValueError(f"bracket breaks the grading: {first}")


def check_color_axioms(L: ColorLieAlgebra):
    """Grading, epsilon-antisymmetry, epsilon-Jacobi, and epsilon(g,g) = 1
    on occupied degrees.  Returns (ok, violations)."""
    violations = [f"grading: {v}" for v in _grading_violations(L)]
    for i in range(L.dim):
        for j in range(i, L.dim):
            bad = dict(L.bracket(i, j))
            axpy(bad, L.epsilon[i][j], L.bracket(j, i))
            if bad:
                violations.append(
                    f"antisymmetry: [{L.names[i]},{L.names[j]}] != "
                    f"-eps*[{L.names[j]},{L.names[i]}]")
    eps = L.epsilon
    for a, b, c in itertools.product(range(L.dim), repeat=3):
        e_ca, e_ab, e_bc = eps[c][a], eps[a][b], eps[b][c]
        total = {}
        for x, y, z, e in ((a, b, c, e_ca), (b, c, a, e_ab), (c, a, b, e_bc)):
            for k, ck in L.bracket(y, z).items():
                axpy(total, e * ck, L.bracket(x, k))
        if total:
            violations.append(
                f"jacobi: cyclic sum fails on ({L.names[a]},{L.names[b]},{L.names[c]})")
    for i in range(L.dim):
        if eps[i][i] != 1:
            violations.append(
                f"sector: eps(gamma,gamma) != 1 at {L.names[i]} (super sector unsupported)")
    return not violations, violations


# ---------------------------------------------------------------------------
# PBW rewriting in U(L)
# ---------------------------------------------------------------------------

def pbw_normal_form(L: ColorLieAlgebra, word):
    """Rewrite a word in basis elements into the PBW basis of sorted words.

    b_j b_i -> eps(|b_j|, |b_i|) b_i b_j + [b_j, b_i] at the leftmost
    pair where b_j comes after b_i in the (total degree, input order)
    ranking.  Each step either keeps the length and removes an inversion
    or shortens the word, so rewriting terminates.  Normal forms are
    memoized per algebra by the shared rewriting loop.
    """
    rank_of, eps = L.rank_of, L.epsilon

    def step(v):
        pos = next((k for k in range(len(v) - 1)
                    if rank_of[v[k]] > rank_of[v[k + 1]]), None)
        if pos is None:
            return None
        i, j = v[pos], v[pos + 1]
        head, tail = v[:pos], v[pos + 2:]
        parts = [(head + (j, i) + tail, eps[i][j])]
        parts += [(head + (k,) + tail, ck) for k, ck in L.bracket(i, j).items()]
        return parts

    return dict(rewrite(tuple(word), L._pbw_cache, step))


def pbw_monomials(L: ColorLieAlgebra, total: int):
    """Sorted PBW monomials (nondecreasing in the basis ranking) with the
    given total Z-degree."""
    order = L.order
    out = []

    def rec(prefix, pos, remaining):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for p in range(pos, len(order)):
            idx = order[p]
            d = L.total_degree(idx)
            if d <= remaining:
                rec(prefix + [idx], p, remaining - d)

    rec([], 0, total)
    return out


def pbw_dim(L: ColorLieAlgebra, total: int) -> int:
    return len(pbw_monomials(L, total))


# ---------------------------------------------------------------------------
# presentations
# ---------------------------------------------------------------------------

def _lower_central_layers(L: ColorLieAlgebra):
    """Bases of L_1, L_1^2, ... up to the last nonzero term, where
    L_1^(j+1) = [L_1^j, L_1]; each vector is a bracket [u, v] of a basis
    vector u of the layer before with a degree-one basis vector v.

    L_1^j lies in total degree j, so the layers are independent of each
    other and the walk ends; both need the grading, which callers check.
    """
    ones = [{i: _ONE} for i in L.degree_one_indices()]
    layers = []
    current = ones
    while current:
        layers.append(current)
        span = RowReducer()
        nxt = []
        for u in current:
            for v in ones:
                w = L.bracket_vectors(u, v)
                if w and span.insert(w) is not None:
                    nxt.append(w)
        current = nxt
    return layers


def _pbw_images(L: ColorLieAlgebra, thetas, words):
    """The PBW normal forms {mono: coeff} of the images in U(L) of the
    given words in the thetas."""
    return [pbw_normal_form(L, tuple(thetas[i] for i in w)) for w in words]


def presentable_layers(L: ColorLieAlgebra):
    """Raise ValueError naming why U(L) has no presentation on L_1: the
    grading, then the axioms, then the designated generators, then
    generation by L_1.  Returns the bases of L_1, L_1^2, ..., L_1^{n_L},
    which the last check walks; they are kept on L, so the checks run
    once per algebra."""
    if L._layers is None:
        _require_graded(L)
        ok, violations = check_color_axioms(L)
        if not ok:
            raise ValueError(f"L is not a color Lie algebra: {violations[0]}")
        L.theta_indices()
        layers = _lower_central_layers(L)
        if sum(map(len, layers)) != L.dim:
            raise ValueError("L is not generated by its degree-one part")
        L._layers = layers
    return L._layers


def u_presentation(L: ColorLieAlgebra, max_degree: int,
                   budget: int = DEFAULT_WORD_BUDGET) -> QuotientCache:
    """The quotient of U(L) on the designated generators, grown one degree
    at a time up to max_degree; its `pres` holds the minimal homogeneous
    relations found on the way.

    The new relations of degree d span the kernel of the map from the
    standard words of degree d, modulo the relations found so far, to
    U(L)_d; each is supported on standard words below its free word,
    so it is already a normal form, and it is scaled to make its
    lex-smallest word monic.

    L must pass `presentable_layers`, or ValueError names why not.
    Validity of the PBW basis is asserted at runtime: the quotient must
    reproduce the PBW monomial count in every degree up to the cap, or
    InvariantError is raised.
    """
    presentable_layers(L)
    thetas = L.theta_indices()
    cache = QuotientCache(Presentation((L.names[i] for i in thetas), ()),
                          min(max_degree, 1), budget)
    for d in range(max_degree + 1):
        want = pbw_dim(L, d)
        if d > cache.cap:
            cache.grow()
            words = cache.retained_words(d)
            if len(words) > want:
                rels = [NCPoly({w: c for w, c in zip(words, vec) if c})
                        for vec in kernel_basis(_pbw_images(L, thetas, words))]
                cache.add_relations(f.scale(sc_pow(f.terms[min(f.terms)], -1)) for f in rels)
        if cache.dim(d) != want:
            raise InvariantError(f"PBW dimension check failed in degree {d}")
    return cache


def degree_one_omega(L: ColorLieAlgebra):
    """omega on L_1: omega_ij = eps(|theta_i|, |theta_j|) for the designated
    generators theta_i."""
    thetas = L.theta_indices()
    return [[L.epsilon[i][j] for j in thetas] for i in thetas]


def epsilon_symmetric(L: ColorLieAlgebra) -> Presentation:
    """S_eps(L_1): the skew polynomial algebra on the designated generators
    with relations theta_i theta_j - omega_ij theta_j theta_i, i < j."""
    omega = degree_one_omega(L)
    m1 = len(omega)
    rels = [NCPoly({(i, j): _ONE, (j, i): -omega[i][j]})
            for i in range(m1) for j in range(i + 1, m1)]
    return Presentation((L.names[i] for i in L.theta_indices()), rels)


def skew_point_variety(omega):
    """Maximal coordinate supports without a bad triple.

    A support S is admissible when no i < j < l in S has
    omega_ij * omega_jl != omega_il; the point variety is the union of
    the coordinate subspaces P(S) over the returned maximal supports.  A
    pre-pass lists the bad triples of each pair, k steps per pair; an
    index in no bad triple belongs to every maximal support, so it is
    added to each up front.  A walk then grows each admissible support of
    the other indices by indices above its last one and keeps the bit set
    of the indices that are neither members nor make a bad triple with
    two members: a support is maximal when that set is empty.  It takes a
    step per support, and past SKEW_STEP_BOUND steps in all raises
    BudgetError.  `Bicharacter` validates omega; a ValueError names what
    is wrong.
    """
    omega = Bicharacter(omega).omega
    k = len(omega)
    if k < 2:
        raise ValueError("need at least two generators")
    if any(omega[i][i] != 1 for i in range(k)):
        raise ValueError("omega must have unit diagonal")
    over = BudgetError(f"skew-variety needs more than {SKEW_STEP_BOUND} steps "
                       f"(one per admissible support, {k} per pair of generators)")
    steps = k * (k * (k - 1) // 2)
    if steps > SKEW_STEP_BOUND:
        raise over
    # blocks[a, b]: the bit set of the v with omega_ab omega_bv != omega_av.
    # As omega_ji = 1 / omega_ij, that says omega_ij omega_jl != omega_il
    # for i < j < l, whichever two of the three a and b are.
    blocks = {(a, b): sum(1 << v for v in range(k) if omega[a][b] * omega[b][v] != omega[a][v])
              for a, b in itertools.combinations(range(k), 2)}
    in_bad = 0
    for bits in blocks.values():
        in_bad |= bits
    always = tuple(v for v in range(k) if not in_bad >> v & 1)

    maximal = []
    stack = [((), in_bad, 0)]  # (members, the indices still free, first to try)
    while stack:
        members, free, start = stack.pop()
        if not free:
            maximal.append(frozenset(always + members))
        for nxt in range(start, k):
            if free >> nxt & 1:
                steps += 1
                grown = free & ~(1 << nxt)
                for a in members:
                    grown &= ~blocks[a, nxt]
                if steps > SKEW_STEP_BOUND:
                    raise over
                stack.append((members + (nxt,), grown, nxt + 1))
    return sorted(maximal, key=lambda s: (len(s), sorted(s)), reverse=True)


def n_invariant(L: ColorLieAlgebra) -> int:
    """max { j : L_1^j != 0 } where L_1^(j+1) = [L_1^j, L_1]."""
    _require_graded(L)
    return len(_lower_central_layers(L))


class ColorHeisenberg:
    def __init__(self, kind: str, n_value: int, witness: HeisenbergWitness | None = None,
                 cache: QuotientCache | None = None, chosen: str = ""):
        self.kind = kind                # "witness" or "s-epsilon"
        self.n_value = n_value
        self.witness = witness
        self.cache = cache              # the quotient U(L) up to the cap
        self.chosen = chosen


def _homogeneous_span_elements(L: ColorLieAlgebra, vectors):
    """Homogeneous elements spanning span(vectors), grouped by multidegree:
    the vectors are homogeneous, so each row of the reduced echelon form
    of their span lies in one multidegree.  Rows keep pivot order there."""
    span = RowReducer()
    for v in vectors:
        span.insert(v)
    out = [(L.degrees[min(row)], row) for row in span.pivot_rows.values()]
    return sorted(out, key=lambda elem: elem[0])


def heisenberg_from_color(L: ColorLieAlgebra, max_degree: int | None = None,
                          budget: int = DEFAULT_WORD_BUDGET) -> ColorHeisenberg:
    """Extract g = [x, y] in L_1^{n} with x a designated generator and y
    homogeneous, expressed in the degree-one presentation of U(L), with
    u = eps(|x|, |y|).  When n = 1 there is nothing to extract and the
    epsilon-symmetric case is reported."""
    layers = presentable_layers(L)
    n = len(layers)
    if n < 2:
        return ColorHeisenberg(kind="s-epsilon", n_value=n)
    thetas = L.theta_indices()
    candidates_y = _homogeneous_span_elements(L, layers[-2])
    found = next(((ti, y_vec) for ti in thetas for _, y_vec in candidates_y
                  if L.bracket_vectors({ti: _ONE}, y_vec)), None)
    if found is None:
        raise InvariantError("no nonzero bracket [theta, y] found in L_1^n")
    ti, y_vec = found
    cap = max_degree if max_degree is not None else max(3 * n - 1, n + 1)
    cache = u_presentation(L, cap, budget)
    u = L.epsilon[ti][min(y_vec)]  # eps(|x|, |y|), as y is homogeneous
    x_poly = NCPoly.gen(thetas.index(ti))
    y_poly = _express_in_thetas(L, cache, y_vec, n - 1)
    g_poly = x_poly * y_poly - (y_poly * x_poly).scale(u)
    witness = HeisenbergWitness(g=g_poly, x=x_poly, y=y_poly, u=u)
    chosen = (f"g = [{L.names[ti]}, {_vec_str(L, y_vec)}], "
              f"u = {scalar_to_str(u)}")
    return ColorHeisenberg(kind="witness", n_value=n, witness=witness,
                           cache=cache, chosen=chosen)


def _vec_str(L, vec):
    parts = [f"{scalar_to_str(vec[k])}*{L.names[k]}" for k in sorted(vec)]
    return " + ".join(parts) if parts else "0"


def _express_in_thetas(L: ColorLieAlgebra, cache: QuotientCache, vec,
                       degree: int) -> NCPoly:
    """The polynomial on the standard words of the given degree in the
    quotient U(L) whose image in U(L) is the given element of L.

    The standard words are a basis of U(L) in that degree, so the answer
    is unique; it is the solve over all words that vanishes off their
    lex-greedy basis, which is the standard words."""
    words = cache.retained_words(degree)
    target = {(k,): c for k, c in vec.items()}
    (sol,), _ = solve_columns(_pbw_images(L, L.theta_indices(), words), [target])
    if sol is None:
        raise InvariantError("element is not expressible in the generators")
    return NCPoly({w: c for w, c in zip(words, sol) if c})


# ---------------------------------------------------------------------------
# color Koszul complex
# ---------------------------------------------------------------------------

def _wedge_sort(L: ColorLieAlgebra, word):
    """Sort a wedge word into strictly increasing ranking order.

    u ^ v = -eps(|u|, |v|) v ^ u; a repeated factor is zero because
    eps(gamma, gamma) = 1 in characteristic zero."""
    word = list(word)
    coeff: Scalar = _ONE
    for a in range(1, len(word)):
        b = a
        while b > 0 and L.rank_of[word[b - 1]] > L.rank_of[word[b]]:
            coeff = coeff * -L.epsilon[word[b - 1]][word[b]]
            word[b - 1], word[b] = word[b], word[b - 1]
            b -= 1
    if len(set(word)) != len(word):
        return None, _ZERO
    return tuple(word), coeff


def wedge_basis(L: ColorLieAlgebra, r: int):
    return [tuple(L.order[i] for i in combo)
            for combo in itertools.combinations(range(L.dim), r)]


def wedge_weight(L: ColorLieAlgebra, word) -> int:
    return sum(L.total_degree(i) for i in word)


class KoszulComplex:
    def __init__(self, L: ColorLieAlgebra, r_max: int, max_degree: int):
        self.L = L
        self.r_max = r_max
        self.max_degree = max_degree
        self.bases = {}  # (r, s) -> [(mono, wedge)]
        # (r, s) -> d_r on C_r in internal degree s: one sparse column
        # {row index in C_{r-1}: coeff} per basis element of C_r
        self.matrices = {}

    def dim(self, r: int, s: int) -> int:
        return len(self.bases.get((r, s), []))


def _wedge_terms(L: ColorLieAlgebra, wedge):
    """The part of d_r(mono (x) wedge) that does not depend on mono.

    d_r(mono (x) w_1 ^ ... ^ w_r) = sum_i (-1)^(i+1) eta_i mono w_i (x) (wedge
    without w_i) + sum_{i<j} (-1)^(i+j) eta_i eta_j eps(|w_j|, |w_i|)
    mono (x) [w_i, w_j] ^ (wedge without w_i, w_j), 1-based, with
    eta_i = prod_{l<i} eps(|w_l|, |w_i|).  Returns the first sum as
    (coefficient, w_i, wedge without w_i) triples and the second as
    {sorted smaller wedge: coefficient}."""
    eps, r = L.epsilon, len(wedge)
    etas = []
    for i in range(r):
        eta = _ONE
        for l in range(i):
            eta = eta * eps[wedge[l]][wedge[i]]
        etas.append(eta)
    pbw_terms = [(etas[i] if i % 2 == 0 else -etas[i], wedge[i], wedge[:i] + wedge[i + 1:])
                 for i in range(r)]
    bracket_terms = {}
    for i in range(r):
        for j in range(i + 1, r):
            sign = _ONE if (i + j) % 2 == 0 else -_ONE
            factor = sign * etas[i] * etas[j] * eps[wedge[j]][wedge[i]]
            rest = tuple(v for k, v in enumerate(wedge) if k not in (i, j))
            for k, ck in L.bracket(wedge[i], wedge[j]).items():
                sorted_w, sgn = _wedge_sort(L, (k,) + rest)
                if sorted_w is not None:
                    axpy(bracket_terms, factor, {sorted_w: ck * sgn})
    return pbw_terms, bracket_terms


def _differential_image(L: ColorLieAlgebra, mono, wedge, memo=None):
    """d_r(mono (x) wedge) as a map {(mono', smaller wedge): coeff}.

    The wedge's terms are read from `memo` (wedge -> `_wedge_terms`), or
    computed and stored there; only the PBW products mono w_i depend on
    mono."""
    if memo is None:
        memo = {}
    terms = memo.get(wedge)
    if terms is None:
        terms = memo[wedge] = _wedge_terms(L, wedge)
    pbw_terms, bracket_terms = terms
    out = {(mono, w): c for w, c in bracket_terms.items()}
    for coeff, letter, rest in pbw_terms:
        image = pbw_normal_form(L, mono + (letter,))
        axpy(out, coeff, {(mono2, rest): c for mono2, c in image.items()})
    return out


def koszul_complex(L: ColorLieAlgebra, r_max: int,
                   max_degree: int) -> KoszulComplex:
    """Materialize the differentials per homological and internal degree.

    The wedge basis uses strictly increasing words in the PBW ranking,
    which is a basis because eps(gamma, gamma) = 1 throughout.  The PBW
    monomials of each degree are listed once, and each wedge's part of
    the differential is built once, for all monomials."""
    if not L.dim:
        raise ValueError("L has no basis, so it has no Koszul complex")
    if not 1 <= r_max <= L.dim or max_degree < 0:
        raise ValueError("need 1 <= r_max <= dim L and max_degree >= 0")
    _require_graded(L)
    K = KoszulComplex(L, r_max, max_degree)
    pbw = [pbw_monomials(L, q) for q in range(max_degree + 1)]
    for s in range(0, max_degree + 1):
        for r in range(0, r_max + 1):
            K.bases[(r, s)] = [(mono, w) for w in wedge_basis(L, r)
                               if wedge_weight(L, w) <= s
                               for mono in pbw[s - wedge_weight(L, w)]]
    memo = {}
    for s in range(0, max_degree + 1):
        for r in range(1, r_max + 1):
            rows = {b: i for i, b in enumerate(K.bases[(r - 1, s)])}
            K.matrices[(r, s)] = [
                {rows[key]: c for key, c in _differential_image(L, mono, wedge, memo).items()}
                for mono, wedge in K.bases[(r, s)]]
    return K


class KoszulReport:
    def __init__(self, ok_d_squared: bool, ok_exact: bool, failures: list | None = None):
        self.ok_d_squared = ok_d_squared
        self.ok_exact = ok_exact
        self.failures = [] if failures is None else failures

    def lines(self):
        out = [f"d o d = 0: {'ok' if self.ok_d_squared else 'FAILED'}",
               f"exactness in internal degrees >= 1: {'ok' if self.ok_exact else 'FAILED'}"]
        out.extend(self.failures)
        return out


def koszul_verify(K: KoszulComplex) -> KoszulReport:
    """d^2 = 0 exactly, and rank bookkeeping for exactness: in every
    internal degree s >= 1, rank d_r + rank d_{r+1} = dim C_r, with the
    augmentation-level check rank d_1 = dim C_0 there."""
    failures = []
    ok_sq = True
    for s in range(0, K.max_degree + 1):
        for r in range(2, K.r_max + 1):
            outer = K.matrices[(r - 1, s)]
            for col in K.matrices[(r, s)]:
                image = {}
                for i, c in col.items():
                    axpy(image, c, outer[i])
                if image:
                    ok_sq = False
                    failures.append(f"d_{r-1} o d_{r} != 0 at internal degree {s}")
                    break
    ok_exact = True
    ranks = {}
    for key, cols in K.matrices.items():
        span = RowReducer()
        for col in cols:
            span.insert(col)
        ranks[key] = span.rank
    for s in range(1, K.max_degree + 1):
        if ranks[(1, s)] != K.dim(0, s):
            ok_exact = False
            failures.append(f"coker d_1 != 0 at internal degree {s}")
        for r in range(1, K.r_max):
            if ranks[(r, s)] + ranks[(r + 1, s)] != K.dim(r, s):
                ok_exact = False
                failures.append(
                    f"homology at r = {r}, internal degree {s} is nonzero")
        if K.r_max == K.L.dim:
            if ranks[(K.r_max, s)] != K.dim(K.r_max, s):
                ok_exact = False
                failures.append(
                    f"kernel of the top differential nonzero at degree {s}")
    if K.dim(0, 0) != 1 or (ranks.get((1, 0), 0) != 0):
        ok_exact = False
        failures.append("homology at r = 0, degree 0 is not k")
    return KoszulReport(ok_d_squared=ok_sq, ok_exact=ok_exact, failures=failures)


# ---------------------------------------------------------------------------
# color Lie files
# ---------------------------------------------------------------------------

_BASIS_RE = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*)\s*:\s*\(([^)]*)\)$")
_BRACKET_RE = re.compile(r"^\[\s*([A-Za-z_][A-Za-z_0-9]*)\s*,\s*([A-Za-z_][A-Za-z_0-9]*)\s*\]\s*=\s*(.*)$")


def parse_colorlie(text: str) -> ColorLieAlgebra:
    """Parse a color Lie algebra file.

    Format::

        rank: 2
        basis: x:(1,0)
        basis: y:(0,1)
        basis: z:(1,1)
        omega: 1 2
        omega: 1/2 1
        bracket: [x,y] = z
    """
    rank_ = None
    names = []
    degrees = []
    omega_rows = []
    bracket_lines = []
    for lineno, key, value in directives(text):
        if key == "rank":
            if rank_ is not None:
                raise ParseError("repeated 'rank' line", line=lineno)
            try:
                rank_ = int(value)
            except ValueError as exc:
                raise ParseError(f"bad rank: {exc}", line=lineno) from exc
            if rank_ < 1:
                raise ParseError(f"rank must be at least 1, got {rank_}", line=lineno)
        elif key == "basis":
            m = _BASIS_RE.match(value)
            if not m:
                raise ParseError("basis entries look like name:(a0,...,am)", line=lineno)
            names.append(m.group(1))
            try:
                vec = tuple(int(p.strip()) for p in m.group(2).split(","))
            except ValueError as exc:
                raise ParseError(f"bad degree vector: {exc}", line=lineno) from exc
            degrees.append(vec)
        elif key == "omega":
            try:
                omega_rows.append(tuple(parse_scalar(p) for p in value.split()))
            except ValueError as exc:
                raise ParseError(f"bad omega entry: {exc}", line=lineno) from exc
        elif key == "bracket":
            bracket_lines.append((lineno, value))
        else:
            raise ParseError(f"unknown directive {key!r}", line=lineno)
    if rank_ is None:
        raise ParseError("missing 'rank' line")
    if len(omega_rows) != rank_:
        raise ParseError(f"expected {rank_} omega rows, got {len(omega_rows)}")
    try:
        eps = Bicharacter(omega_rows)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    index = {nm: i for i, nm in enumerate(names)}
    brackets = {}
    for lineno, value in bracket_lines:
        m = _BRACKET_RE.match(value)
        if not m:
            raise ParseError("bracket lines look like [a,b] = expr", line=lineno)
        a, b, rhs = m.group(1), m.group(2), m.group(3).strip()
        if a not in index or b not in index:
            raise ParseError(f"unknown basis element in bracket", line=lineno)
        terms = {}
        if rhs not in ("0", ""):
            try:
                terms = parse_poly(rhs, names).terms
            except ParseError as exc:
                raise ParseError(str(exc), line=lineno) from exc
        if any(len(w) != 1 for w in terms):
            raise ParseError("bracket values are linear in the basis", line=lineno)
        if (index[a], index[b]) in brackets:
            raise ParseError(f"repeated bracket [{a},{b}]", line=lineno)
        brackets[(index[a], index[b])] = {w[0]: c for w, c in terms.items()}
    try:
        return ColorLieAlgebra(names, degrees, eps, brackets)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc

