"""Normal elements, the associated graded automorphism, and the
two-sided commutation conditions that make a normal element
Heisenberg-like (g = xy - u yx with xg = u gx and gy = u yg).

Regularity is undecidable from a finite degree cap; what every check
here actually consumes is injectivity of multiplication by g up to the
cap, and that is what is verified and reported.  For a normal g it is
read off the Hilbert function of one quotient A/(g); for any other g
both multiplication maps are ranked in every source degree.
"""

from .freealg import NCPoly
from .linalg import rank, row, solve_affine, solve_columns
from .quotient import DegreeCapError, QuotientCache
from .scalars import Rational, Scalar, sc_pow

EXTRA_X = 4  # seeded random degree-one x candidates of find_witness


class NotNormalError(ValueError):
    pass


class NonUniqueSolutionError(ValueError):
    """The defining congruence nu(a) g = g a has several solutions,
    which signals that g is not regular at this degree."""


class HeisenbergWitness:
    def __init__(self, g: NCPoly, x: NCPoly, y: NCPoly, u: Scalar):
        n = g.degree()
        if n is None or n < 1:
            raise ValueError("g must be homogeneous of degree >= 1")
        if x.degree() != 1:
            raise ValueError("x must be homogeneous of degree 1")
        if (y.degree() if y else 0) != n - 1:
            raise ValueError("y must be homogeneous of degree n - 1")
        if not u:
            raise ValueError("u must be nonzero")
        self.g = g
        self.x = x
        self.y = y
        self.u = u

    @property
    def n(self) -> int:
        return self.g.degree()


def _nu_solves(cache: QuotientCache, g: NCPoly):
    """Solve g x_j = sum_i c_ij x_i g and x_j g = sum_i c_ij g x_i in
    A_{n+1} for every generator x_j, on the normal forms of the products.

    Returns (images, inverse, rank): images[j] and inverse[j] are the
    dense coefficient vectors, or None where the product is not in the
    span of the other side; rank is that of the x_i g.  g is normal when
    every solve succeeds, that is span(g A_1) = span(A_1 g); for an
    algebra generated in degree 1 that is gA = Ag degreewise within the cap.
    """
    n = g.degree()
    if n is None:
        raise ValueError("g must be homogeneous")
    if n + 1 > cache.cap:
        raise DegreeCapError(f"normality check needs degree {n + 1} > cap {cache.cap}")
    gens = [NCPoly.gen(j) for j in range(cache.pres.num_generators)]
    left = [cache.normal_form(g * x).terms for x in gens]
    right = [cache.normal_form(x * g).terms for x in gens]
    images, right_rank = solve_columns(right, left)
    inverse, _ = solve_columns(left, right)
    return images, inverse, right_rank


class NuAutomorphism:
    """The graded automorphism nu with nu(a) g = g a, held by its values
    on the generators: images[j] = nu(x_j) and inverse[j] = nu^-1(x_j).
    """

    def __init__(self, images: tuple, inverse: tuple):
        self.images = images
        self.inverse = inverse
        gens = tuple(NCPoly.gen(j) for j in range(len(images)))
        self._powers = {0: gens, 1: images, -1: inverse}

    def _gens(self, k: int) -> tuple:
        """nu^k(x_j) for every j, substituted once per exponent."""
        if k not in self._powers:
            step = 1 if k > 0 else -1
            self._powers[k] = tuple(self.apply(p, step) for p in self._gens(k - step))
        return self._powers[k]

    def apply(self, f: NCPoly, power: int = 1) -> NCPoly:
        """Extend multiplicatively to words of any degree (free-algebra output)."""
        gens = self._gens(power)
        out = NCPoly.zero()
        for w, c in f.terms.items():
            term = NCPoly({(): c})
            for letter in w:
                term = term * gens[letter]
            out = out + term
        return out


def nu_automorphism(cache: QuotientCache, g: NCPoly) -> NuAutomorphism:
    """Solve nu(x_i) g = g x_i and g nu^-1(x_i) = x_i g for every generator.

    g is normal exactly when both solves succeed.  The solutions are
    unique when the products x_j g are linearly independent in A_{n+1},
    and then the g x_j, which span the same space, are independent too.
    """
    return _nu_from(*_nu_solves(cache, g))


def _nu_from(images, inverse, right_rank) -> NuAutomorphism:
    """nu from the two solves of `_nu_solves`, or the error that says why
    they do not define it."""
    if None in images or None in inverse:
        raise NotNormalError("g is not normal at degree n + 1")
    if right_rank < len(images):
        raise NonUniqueSolutionError("non-unique solution: g is not regular at this degree")

    def linear(vec):
        return NCPoly({(j,): c for j, c in enumerate(vec) if c})

    return NuAutomorphism(tuple(map(linear, images)), tuple(map(linear, inverse)))


def multiplication_injective(cache: QuotientCache, g: NCPoly, d: int,
                             side: str) -> bool:
    """Is (left or right) multiplication by g injective A_d -> A_{d+n}?"""
    images = []
    for w in cache.retained_words(d):
        b = NCPoly.monomial(w)
        images.append(row(cache.normal_form(g * b if side == "left" else b * g).terms))
    return rank(images) == len(images)


def regular_degrees(cache: QuotientCache, g: NCPoly):
    """For a normal g of degree n, yield for each source degree
    d = 0..cap - n whether multiplication by g is injective A_d -> A_{d+n}.

    Normality gives (g)_{d+n} = g A_d, so g is regular in degree d exactly
    when dim (A/(g))_{d+n} = dim A_{d+n} - dim A_d: the Hilbert series
    identity H_{A/(g)} = (1 - t^n) H_A, degree by degree.  A/(g) grows one
    degree at a time, and g enters at degree n through `grow`, since a
    presentation refuses relations of degree below 2.
    """
    n = g.degree()
    quotient = QuotientCache(cache.pres, n - 1, cache.budget)
    for d in range(n, cache.cap + 1):
        relations = [f for f in cache.pres.relations if f.degree() == d]
        quotient.grow(relations + [g] if d == n else relations)
        yield quotient.dim(d) == cache.dim(d) - cache.dim(d - n)


class HeisenbergReport:
    def __init__(self, witness: HeisenbergWitness, ok: bool, clauses: dict | None = None,
                 checked_normal_degree: int = 0, regular_up_to: int = 0, nu_solves=None):
        self.witness = witness
        self.ok = ok
        self.clauses = {} if clauses is None else clauses
        self.checked_normal_degree = checked_normal_degree
        self.regular_up_to = regular_up_to
        self.nu_solves = nu_solves

    def nu(self) -> NuAutomorphism:
        """nu of g from the solves that decided the "g normal" clause;
        raises as `nu_automorphism` does."""
        return _nu_from(*self.nu_solves)

    def failed_clauses(self):
        return [name for name, good in self.clauses.items() if not good]

    def lines(self):
        out = []
        for name, good in self.clauses.items():
            out.append(f"{name}: {'ok' if good else 'FAILED'}")
        out.append(f"normality checked at degree: {self.checked_normal_degree}")
        out.append(f"multiplication by g injective up to source degree: {self.regular_up_to}")
        return out


def is_q_heisenberg(cache: QuotientCache, w: HeisenbergWitness) -> HeisenbergReport:
    """Check the three defining identities mod the ideal, plus normality
    and the regularity surrogate: injectivity of multiplication by g for
    all source degrees within the cap, read off A/(g) for a normal g
    (see `regular_degrees`) and ranked on both sides for any other g."""
    g, x, y, u = w.g, w.x, w.y, w.u
    n = w.n
    if n + 1 > cache.cap or 2 * n - 1 > cache.cap:
        raise DegreeCapError("witness degrees exceed the cache cap")
    clauses = {}
    clauses["g nonzero mod ideal"] = bool(cache.normal_form(g))
    clauses["(i) g = x*y - u*y*x"] = cache.is_zero_mod_ideal(g - (x * y - (y * x).scale(u)))
    clauses["(ii) x*g = u*g*x"] = cache.is_zero_mod_ideal(x * g - (g * x).scale(u))
    clauses["(iii) g*y = u*y*g"] = cache.is_zero_mod_ideal(g * y - (y * g).scale(u))
    nu_solves = images, inverse, _ = _nu_solves(cache, g)
    normal = clauses["g normal"] = None not in images and None not in inverse
    reg_top = cache.cap - n
    if normal:
        regular = all(regular_degrees(cache, g))
    else:
        regular = all(multiplication_injective(cache, g, d, side)
                      for d in range(reg_top + 1) for side in ("left", "right"))
    clauses[f"g regular up to degree {reg_top}"] = regular
    return HeisenbergReport(
        witness=w,
        ok=all(clauses.values()),
        clauses=clauses,
        checked_normal_degree=n + 1,
        regular_up_to=reg_top,
        nu_solves=nu_solves,
    )


def check_power_identities(cache: QuotientCache, w: HeisenbergWitness,
                           r_max: int) -> bool:
    """x^r y = r u^(r-1) x y x^(r-1) - (r-1) u^r y x^r  and
    y x^r = r u^-(r-1) x^(r-1) y x - (r-1) u^-r x^r y,  for 1 <= r <= r_max."""
    g, x, y, u = w.g, w.x, w.y, w.u
    n = w.n
    if r_max + n - 1 > cache.cap:
        raise DegreeCapError("power identities exceed the cache cap")
    for r in range(1, r_max + 1):
        xr = x ** r
        xr1 = x ** (r - 1)
        lhs1 = xr * y
        rhs1 = (x * y * xr1).scale(Rational(r) * sc_pow(u, r - 1)) \
            - (y * xr).scale(Rational(r - 1) * sc_pow(u, r))
        if not cache.is_zero_mod_ideal(lhs1 - rhs1):
            return False
        lhs2 = y * xr
        rhs2 = (xr1 * y * x).scale(Rational(r) * sc_pow(u, -(r - 1))) \
            - (xr * y).scale(Rational(r - 1) * sc_pow(u, -r))
        if not cache.is_zero_mod_ideal(lhs2 - rhs2):
            return False
    return True


def find_witness(cache: QuotientCache, g: NCPoly, rng):
    """Search for a witness (x, y, u) of g.  x runs over the generators,
    then a few seeded random degree-1 combinations.  For each x, u is the
    one scalar with x g = u g x mod I, and y is solved exactly from
    g = x y - u y x and g y = u y g mod I on the standard words of degree
    n - 1.  Then only g's own clauses (nonzero, normal, regular) can fail,
    so the first x that solves is final: returns its report if it passes
    the full check, else None.
    """
    n = g.degree()
    if n is None or n < 1:
        raise ValueError("g must be homogeneous of degree >= 1")
    if n + 1 > cache.cap or 2 * n - 1 > cache.cap:
        raise DegreeCapError("witness search needs degree 2n - 1 within the cap")
    k = cache.pres.num_generators
    x_cands = [NCPoly.gen(j) for j in range(k)]
    for _ in range(EXTRA_X):
        coeffs = [Rational(rng.randint(-3, 3)) for _ in range(k)]
        p = NCPoly({(j,): c for j, c in enumerate(coeffs) if c})
        if p:
            x_cands.append(p)
    basis = cache.retained_words(n - 1)

    def tagged(tag, f):  # (i) rows are tagged 0 and (iii) rows 1, apart even when n = 1
        return {(tag, w_): c for w_, c in cache.normal_form(f).terms.items()}

    target = tagged(0, g)
    for x in x_cands:
        xg = cache.normal_form(x * g).terms
        gx = cache.normal_form(g * x).terms
        if not gx:
            continue  # g x = 0: g is not regular, so this x cannot pass
        w0, c0 = next(iter(gx.items()))
        u = xg.get(w0, 0) / c0
        if not u or xg != {w_: u * c for w_, c in gx.items()}:
            continue
        cols = []
        for w_ in basis:
            b = NCPoly.monomial(w_)
            cols.append({**tagged(0, x * b - (b * x).scale(u)),
                         **tagged(1, g * b - (b * g).scale(u))})
        sol = solve_affine(cols, target)
        if sol is None:
            continue
        y = NCPoly({w_: c for w_, c in zip(basis, sol) if c})
        report = is_q_heisenberg(cache, HeisenbergWitness(g=g, x=x, y=y, u=u))
        return report if report.ok else None
    return None
