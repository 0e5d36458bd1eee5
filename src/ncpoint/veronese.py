"""Quasi-Veronese regrading, twisting systems, and the Weyl witness.

A degree-p element of the r-th quasi-Veronese algebra is an r x r array
whose (i, j) entry is homogeneous of degree r p + j - i, multiplied by
(a b)_{i,j} = sum_l a_{l,j} b_{i,l}.  A degree-n normal element g gives
the diagonal degree-1 element bold-g, and its automorphism nu generates
a twisting system nu^j acting entrywise on quasi-Veronese elements (a
degree-p polynomial is the size-1 one of degree p).  As bold-g is
diagonal, bold-g a = nu(a) bold-g comes down to the one nonzero entry of
each elementary a, and as nu is multiplicative, to the generators.

The dehomogenization by bold-g is never materialized: the homomorphism
from the Weyl algebra is certified through the homogeneous identity
phi(X) o phi(Y) - phi(Y) o phi(X) = bold-g o bold-g, which together with
bold-1 = bold-g in the dehomogenized ring settles the generator
relation.
"""

from .freealg import NCPoly, poly_to_str
from .normal import (HeisenbergWitness, NotNormalError, NuAutomorphism, is_q_heisenberg,
                     nu_automorphism)
from .quotient import DegreeCapError, QuotientCache


class QVElement:
    """Homogeneous element of the r-th quasi-Veronese algebra."""

    __slots__ = ("size", "degree", "entries")

    def __init__(self, size: int, degree: int, entries):
        entries = tuple(tuple(row) for row in entries)
        if len(entries) != size or any(len(row) != size for row in entries):
            raise ValueError("entry array must be size x size")
        for i in range(size):
            for j in range(size):
                e = entries[i][j]
                if not e:
                    continue
                want = size * degree + j - i
                if want < 0 or e.degree() != want:
                    raise ValueError(
                        f"entry ({i},{j}) must be homogeneous of degree {want}")
        self.size = size
        self.degree = degree
        self.entries = entries

    def map_entries(self, fn) -> "QVElement":
        return QVElement(self.size, self.degree,
                         [[fn(e) for e in row] for row in self.entries])

    def __add__(self, other):
        if self.size != other.size or self.degree != other.degree:
            raise ValueError("size/degree mismatch")
        return QVElement(self.size, self.degree,
                         [[a + b for a, b in zip(r1, r2)]
                          for r1, r2 in zip(self.entries, other.entries)])

    def __sub__(self, other):
        return self + other.map_entries(lambda e: -e)

    def __eq__(self, other):
        if not isinstance(other, QVElement):
            return NotImplemented
        return (self.size == other.size and self.degree == other.degree
                and self.entries == other.entries)

    def __repr__(self):
        return f"QVElement(size={self.size}, degree={self.degree})"


def qv_mul(a: QVElement, b: QVElement, cache: QuotientCache) -> QVElement:
    """(a b)_{i,j} = normal_form(sum_l a_{l,j} b_{i,l})."""
    if a.size != b.size:
        raise ValueError("size mismatch")
    r = a.size
    out = []
    for i in range(r):
        row = []
        for j in range(r):
            acc = NCPoly.zero()
            for l in range(r):
                p, q = a.entries[l][j], b.entries[i][l]
                if p and q:
                    acc = acc + p * q
            row.append(cache.normal_form(acc))
        out.append(row)
    return QVElement(r, a.degree + b.degree, out)


def bold_g(g: NCPoly) -> QVElement:
    """Diagonal degree-1 element of the n-th quasi-Veronese algebra, n = deg g."""
    n = g.degree()
    if not n:
        raise ValueError("g must be homogeneous of degree n >= 1")
    rows = [[g if i == j else NCPoly.zero() for j in range(n)] for i in range(n)]
    return QVElement(n, 1, rows)


def verify_bold_normal(cache: QuotientCache, g: NCPoly):
    """Check bold-g a = nu(a) bold-g for the elementary elements a.

    An elementary a holds one word w, of degree e = n q + j - i, at (i, j)
    in quasi-Veronese degree q; both products have their one nonzero entry
    there, NF(g w) and NF(nu(w) g).  nu is multiplicative and the ideal
    two-sided, so g x_j = nu(x_j) g for each generator gives g w = nu(w) g
    for every word w, by induction on its length, whatever the cap: only
    the generators are normal-formed.  A (q, i, j) whose products pass the
    cap is skipped, and one within it counts its dim A_e words as checked.
    A failing generator fails where the words in (q, i, j) order first
    would: after the degree-0 word and the generators before it.  Returns
    (ok, checked, skipped, nu).
    """
    n = g.degree()
    try:
        nu = nu_automorphism(cache, g)
    except NotNormalError as exc:
        raise NotNormalError("g is not normal; bold-g check requires a normal element") from exc
    for idx, w in enumerate(cache.retained_words(1)):
        x = NCPoly.monomial(w)
        if cache.normal_form(g * x) != cache.normal_form(nu.apply(x) * g):
            return False, idx + 2, 0, nu
    degrees = [e for q in range((cache.cap - n) // n + 1) for i in range(n) for j in range(n)
               if (e := n * q + j - i) >= 0]
    within = [e for e in degrees if e + n <= cache.cap]
    return True, sum(map(cache.dim, within)), len(degrees) - len(within), nu


class TwistSystem:
    """The multiplicative system {nu^i : i in Z} of a graded automorphism."""

    def __init__(self, nu: NuAutomorphism):
        self.nu = nu

    def validate(self, cache: QuotientCache) -> bool:
        """nu maps every relation into the ideal, and nu^-1 inverts nu on
        every generator in the free algebra.  Then nu(I) = I (nu is
        multiplicative, so nu(I) lies in I, and nu(I_d) = I_d by dimension),
        so the nu^j are graded automorphisms of A, and the twisting law
        nu_l(nu_j(a) b) = nu_{j+l}(a) nu_l(b) holds for all j, l in Z."""
        nu = self.nu
        gens = [NCPoly.gen(j) for j in range(len(nu.images))]
        return (all(cache.is_zero_mod_ideal(nu.apply(f)) for f in cache.pres.relations)
                and all(nu.apply(nu.apply(x), -1) == x == nu.apply(nu.apply(x, -1))
                        for x in gens))


def twist_mul(nu: NuAutomorphism, a: QVElement, b: QVElement, cache: QuotientCache) -> QVElement:
    """Twisted product a o b = nu^(deg b)(a) b, normal-formed."""
    return qv_mul(a.map_entries(lambda p: nu.apply(p, b.degree)), b, cache)


class WeylCertificate:
    def __init__(self, ok: bool, precondition_ok: bool, entries: list | None = None,
                 names: tuple = ()):
        self.ok = ok
        self.precondition_ok = precondition_ok
        self.entries = [] if entries is None else entries  # (i, j, equal, lhs, rhs)
        self.names = names

    def offending_entries(self):
        return [(i, j) for i, j, eq, _, _ in self.entries if not eq]

    def lines(self):
        out = [f"witness passes q'-Heisenberg check: {'yes' if self.precondition_ok else 'NO'}"]
        for i, j, eq, lhs, rhs in self.entries:
            status = "ok" if eq else "MISMATCH"
            out.append(f"entry ({i},{j}): {status}")
            out.append(f"  lhs = {poly_to_str(lhs, self.names)}")
            out.append(f"  rhs = {poly_to_str(rhs, self.names)}")
        out.append(f"identity phi(X) o phi(Y) - phi(Y) o phi(X) = g o g: "
                   f"{'verified' if self.ok else 'FAILED'}")
        return out


def weyl_images(w: HeisenbergWitness) -> tuple[QVElement, QVElement]:
    """phi(X): superdiagonal entries x g with corner x; phi(Y): corner g y
    with subdiagonal y.  Both are degree-1 quasi-Veronese elements."""
    n = w.n
    z = NCPoly.zero()
    X = [[z] * n for _ in range(n)]
    Y = [[z] * n for _ in range(n)]
    if n == 1:
        X[0][0] = w.x
        Y[0][0] = w.g * w.y
    else:
        for i in range(n - 1):
            X[i][i + 1] = w.x * w.g
        X[n - 1][0] = w.x
        Y[0][n - 1] = w.g * w.y
        for i in range(1, n):
            Y[i][i - 1] = w.y
    return QVElement(n, 1, X), QVElement(n, 1, Y)


def weyl_witness(cache: QuotientCache, w: HeisenbergWitness) -> WeylCertificate:
    """Certify the homogeneous Weyl identity entrywise mod the ideal.

    The certificate is computed even for failing witnesses so that the
    offending entries can be reported; ok requires the precondition too.
    """
    n = w.n
    if 3 * n - 1 > cache.cap:
        raise DegreeCapError(
            f"Weyl witness at degree {3 * n - 1} exceeds cap {cache.cap}")
    report = is_q_heisenberg(cache, w)
    phi_x, phi_y = weyl_images(w)
    nu = report.nu()
    bold = bold_g(w.g)
    lhs = twist_mul(nu, phi_x, phi_y, cache) - twist_mul(nu, phi_y, phi_x, cache)
    rhs = twist_mul(nu, bold, bold, cache)
    entries = []
    all_eq = True
    for i in range(n):
        for j in range(n):
            le, re_ = lhs.entries[i][j], rhs.entries[i][j]
            eq = le == re_
            all_eq = all_eq and eq
            entries.append((i, j, eq, le, re_))
    return WeylCertificate(ok=report.ok and all_eq, precondition_ok=report.ok,
                           entries=entries, names=cache.pres.names)
