"""Quasi-Veronese regrading, twisting systems, and the Weyl witness.

A degree-p element of the r-th quasi-Veronese algebra is an r x r array
whose (i, j) entry is homogeneous of degree r p + j - i, multiplied by
(a b)_{i,j} = sum_l a_{l,j} b_{i,l}.  A degree-n normal element g gives
the diagonal degree-1 element bold-g, and its automorphism nu generates
a twisting system nu^j acting entrywise.

The dehomogenization by bold-g is never materialized: the homomorphism
from the Weyl algebra is certified through the homogeneous identity
phi(X) o phi(Y) - phi(Y) o phi(X) = bold-g o bold-g, which together with
bold-1 = bold-g in the dehomogenized ring settles the generator
relation.
"""

from __future__ import annotations

from fractions import Fraction

from .freealg import NCPoly, poly_to_str
from .normal import (HeisenbergWitness, NotNormalError, NuAutomorphism, is_q_heisenberg,
                     nu_automorphism)
from .quotient import DegreeCapError, QuotientCache

_ZERO = Fraction(0)
_ONE = Fraction(1)


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

    @classmethod
    def elementary(cls, size, degree, i, j, poly):
        rows = [[NCPoly.zero()] * size for _ in range(size)]
        rows[i][j] = poly
        return cls(size, degree, rows)

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


def bold_g(g: NCPoly, n: int) -> QVElement:
    """Diagonal degree-1 element of the n-th quasi-Veronese algebra."""
    if g.degree() != n or n < 1:
        raise ValueError("g must be homogeneous of degree n >= 1")
    rows = [[g if i == j else NCPoly.zero() for j in range(n)] for i in range(n)]
    return QVElement(n, 1, rows)


def verify_bold_normal(cache: QuotientCache, g: NCPoly):
    """Check g a = nu(a) g through the quasi-Veronese dressing.

    Runs over the elementary spanning set of every quasi-Veronese degree
    whose products stay within the cap.  Returns (ok, details, nu).
    """
    n = g.degree()
    try:
        nu = nu_automorphism(cache, g)
    except NotNormalError as exc:
        raise NotNormalError("g is not normal; bold-g check requires a normal element") from exc
    bold = bold_g(g, n)
    checked = 0
    skipped = 0
    max_q = (cache.cap - n) // n
    for q in range(0, max_q + 1):
        for i in range(n):
            for j in range(n):
                e = n * q + j - i
                if e < 0:
                    continue
                if n * (q + 1) + j - i > cache.cap:
                    skipped += 1
                    continue
                for w in cache.retained_words(e):
                    a = QVElement.elementary(n, q, i, j, NCPoly.monomial(w))
                    lhs = qv_mul(bold, a, cache)
                    nua = a.map_entries(lambda p: cache.normal_form(nu.apply(p)))
                    rhs = qv_mul(nua, bold, cache)
                    checked += 1
                    if lhs != rhs:
                        return False, {"checked": checked, "skipped": skipped,
                                       "failure": (q, i, j, w)}, nu
    return True, {"checked": checked, "skipped": skipped, "max_degree": max_q}, nu


class TwistSystem:
    """The multiplicative system {nu^i : i in Z} of a graded automorphism."""

    def __init__(self, nu: NuAutomorphism):
        self.nu = nu

    def apply(self, f, j: int):
        if isinstance(f, QVElement):
            return f.map_entries(lambda p: self.nu.apply(p, j))
        return self.nu.apply(f, j)

    def validate(self, cache: QuotientCache, law_degree: int = 2) -> bool:
        """nu kills every relation, and the twisting law
        nu_l(nu_j(a) b) = nu_{j+l}(a) nu_l(b) holds on basis words."""
        for f in cache.pres.relations:
            if not cache.is_zero_mod_ideal(self.nu.apply(f)):
                return False
        for da in range(1, law_degree + 1):
            for db in range(1, law_degree + 1):
                if da + db > cache.cap:
                    continue
                for wa in cache.retained_words(da):
                    a = NCPoly.monomial(wa)
                    for wb in cache.retained_words(db):
                        b = NCPoly.monomial(wb)
                        for j in (-1, 0, 1, 2):
                            for l in (-1, 0, 1, 2):
                                lhs = self.nu.apply(self.nu.apply(a, j) * b, l)
                                rhs = self.nu.apply(a, j + l) * self.nu.apply(b, l)
                                if not cache.is_zero_mod_ideal(lhs - rhs):
                                    return False
        return True


def twist_mul(ts: TwistSystem, a, b, cache: QuotientCache):
    """Twisted product a o b = nu^(deg b)(a) * b, normal-formed."""
    if isinstance(a, QVElement) != isinstance(b, QVElement):
        raise TypeError("operands must be of the same kind")
    if isinstance(a, QVElement):
        return qv_mul(ts.apply(a, b.degree), b, cache)
    db = b.degree()
    if db is None:
        raise ValueError("b must be homogeneous")
    return cache.normal_form(ts.apply(a, db) * b)


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
    pre = is_q_heisenberg(cache, w).ok
    phi_x, phi_y = weyl_images(w)
    ts = TwistSystem(nu_automorphism(cache, w.g))
    bold = bold_g(w.g, n)
    lhs = twist_mul(ts, phi_x, phi_y, cache) - twist_mul(ts, phi_y, phi_x, cache)
    rhs = twist_mul(ts, bold, bold, cache)
    entries = []
    all_eq = True
    for i in range(n):
        for j in range(n):
            le, re_ = lhs.entries[i][j], rhs.entries[i][j]
            eq = le == re_
            all_eq = all_eq and eq
            entries.append((i, j, eq, le, re_))
    return WeylCertificate(ok=pre and all_eq, precondition_ok=pre,
                           entries=entries, names=cache.pres.names)
