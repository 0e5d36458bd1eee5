"""Exact scalar arithmetic: rationals and univariate rational functions.

A plain rational is a :class:`Rational`: two coprime ints, the
denominator positive.  It has what the package asks of a rational and
no more: arithmetic with ints and Rationals, comparison, abs, str and
`limit_denominator`.  It hashes as ``fractions.Fraction`` does, so an
integral value keys a dict as its int does; an integral result is still
a Rational, and with no ``__index__`` `math.gcd` refuses it.  The
package does not import ``fractions``, which loads ``decimal`` and
``numbers`` too: every ncpoint command starts a fresh interpreter, and
for a short command that import costs more than the command's work.
Anything that genuinely depends on the indeterminate ``t`` is a
:class:`RatFunc`, and every result that collapses to a constant is a
Rational, so a value is a RatFunc if and only if it depends on t.

Polynomials are tuples of coefficients, low degree first, with no
trailing zeros; ``()`` is the zero polynomial.  A RatFunc is the pair
(N, D) of integer polynomials with gcd(N, D) = 1 in Q[t], the gcd of
all the coefficients of N and D together 1, and lead(D) > 0.  That form
is canonical, so equality and hashing compare the pairs, and arithmetic
runs on Python ints only: the one gcd it needs, of two non-constant
polynomials, is the primitive pseudo-remainder gcd in Z[t] `poly_gcd`,
followed by exact division (Gauss's lemma).  `int_pair` reads (N, D) off
a Rational or a RatFunc, and `make_ratfunc` builds a value from a pair
with Rational or int coefficients.  One helper, `primitive_integers`,
clears denominators and content, here and in the point walk.

Rational roots of the Q(t) pivots are solved in closed form in degrees
1 and 2, and above that by Sturm's theorem (`poly_rational_roots`).  A
scalar literal may not raise a base to a power of t-degree above
MAX_EXPONENT, or of a size above 64 * MAX_EXPONENT bits, or nest
parentheses and unary minus signs more than MAX_NESTING deep.
"""

import math
import operator
import re
import sys

Poly = tuple  # coefficients (Rational or int), low degree first, trimmed

MAX_EXPONENT = 1000  # largest |k| a scalar literal may raise a base to
MAX_NESTING = 100  # deepest a scalar literal may nest '(' and unary '-'


class SpecializationError(ValueError):
    """Raised when substituting a t-value hits a vanishing denominator."""


class ScalarParseError(ValueError):
    def __init__(self, message, pos=None):
        super().__init__(message)
        self.pos = pos


# ---------------------------------------------------------------------------
# rationals
# ---------------------------------------------------------------------------

_HASH_MODULUS = sys.hash_info.modulus
_new_object = object.__new__


def _rational(n: int, d: int) -> "Rational":
    """The Rational n/d of coprime ints n and d > 0, taken as they are."""
    r = _new_object(Rational)
    r.numerator, r.denominator = n, d
    return r


def _add(na, da, nb, db):
    g = math.gcd(da, db)
    if g == 1:
        return _rational(na * db + nb * da, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = math.gcd(t, g)
    return _rational(t // g2, s * (db // g2))


def _mul(na, da, nb, db):
    g1, g2 = math.gcd(na, db), math.gcd(nb, da)
    return _rational((na // g1) * (nb // g2), (da // g2) * (db // g1))


def _truediv(na, da, nb, db):
    if not nb:
        raise ZeroDivisionError("division by a zero Rational")
    g1, g2 = math.gcd(na, nb), math.gcd(da, db)
    n, d = (na // g1) * (db // g2), (nb // g1) * (da // g2)
    return _rational(n, d) if d > 0 else _rational(-n, -d)


def _binary(op):
    """The forward and reflected methods of op(na, da, nb, db), for a
    Rational or an int on the other side."""
    def forward(a, b):
        if type(b) is Rational:
            return op(a.numerator, a.denominator, b.numerator, b.denominator)
        return op(a.numerator, a.denominator, b, 1) if isinstance(b, int) else NotImplemented

    def reflected(b, a):
        return op(a, 1, b.numerator, b.denominator) if isinstance(a, int) else NotImplemented
    return forward, reflected


def _comparison(op):
    def compare(a, b):
        if type(b) is Rational:
            return op(a.numerator * b.denominator, b.numerator * a.denominator)
        return op(a.numerator, b * a.denominator) if isinstance(b, int) else NotImplemented
    return compare


class Rational:
    """numerator / denominator in lowest terms, with denominator > 0."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: int, denominator: int = 1):
        if not denominator:
            raise ZeroDivisionError(f"Rational({numerator}, 0)")
        g = math.gcd(numerator, denominator)
        g = -g if denominator < 0 else g
        self.numerator, self.denominator = numerator // g, denominator // g

    __add__, __radd__ = _binary(_add)
    __sub__, __rsub__ = _binary(lambda na, da, nb, db: _add(na, da, -nb, db))
    __mul__, __rmul__ = _binary(_mul)
    __truediv__, __rtruediv__ = _binary(_truediv)
    __lt__, __le__, __gt__, __ge__ = map(_comparison, (operator.lt, operator.le,
                                                       operator.gt, operator.ge))

    def __eq__(self, other):
        if type(other) is Rational:
            return self.numerator == other.numerator and self.denominator == other.denominator
        if isinstance(other, int):
            return self.denominator == 1 and self.numerator == other
        return NotImplemented

    def __hash__(self):
        """As ``hash(fractions.Fraction(numerator, denominator))``."""
        n, d = self.numerator, self.denominator
        if d == 1:
            return hash(n)
        try:
            h = hash(hash(abs(n)) * pow(d, -1, _HASH_MODULUS))
        except ValueError:  # d is a multiple of the modulus
            h = sys.hash_info.inf
        h = h if n >= 0 else -h
        return -2 if h == -1 else h

    def __bool__(self):
        return self.numerator != 0

    def __neg__(self):
        return _rational(-self.numerator, self.denominator)

    def __abs__(self):
        return _rational(abs(self.numerator), self.denominator)

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        n, d = self.numerator, self.denominator
        if k < 0:
            if not n:
                raise ZeroDivisionError("negative power of a zero Rational")
            n, d, k = (d, n, -k) if n > 0 else (-d, -n, -k)
        return _rational(n ** k, d ** k)

    def __str__(self):
        n, d = self.numerator, self.denominator
        return str(n) if d == 1 else f"{n}/{d}"

    def limit_denominator(self, max_denominator: int) -> "Rational":
        """The closest rational with denominator at most max_denominator >= 1,
        found by continued fractions as ``fractions.Fraction`` finds it."""
        if self.denominator <= max_denominator:
            return self
        p0, q0, p1, q1 = 0, 1, 1, 0
        n, d = self.numerator, self.denominator
        while True:
            a = n // d
            q2 = q0 + a * q1
            if q2 > max_denominator:
                break
            p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
            n, d = d, n - a * d
        k = (max_denominator - q0) // q1
        # p1/q1 lies d/(q1 * denominator) from self, 1/(q1 * (q0 + k*q1)) from the other bound
        if 2 * d * (q0 + k * q1) <= self.denominator:
            return _rational(p1, q1)
        return _rational(p0 + k * p1, q0 + k * q1)


_ZERO = Rational(0)
_ONE = Rational(1)


# ---------------------------------------------------------------------------
# polynomial helpers (internal)
# ---------------------------------------------------------------------------

def _trim(coeffs) -> Poly:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def poly_add(a: Poly, b: Poly) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def poly_neg(a: Poly) -> Poly:
    return tuple([-c for c in a])


def poly_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] += ca * cb
    return _trim(out)


def poly_eval(a: Poly, x: Rational) -> Rational:
    acc = _ZERO
    for c in reversed(a):
        acc = acc * x + c
    return acc


def poly_to_str(a: Poly) -> str:
    if not a:
        return "0"
    parts = []
    for k in range(len(a) - 1, -1, -1):
        c = a[k]
        if not c:
            continue
        if k == 0:
            core = str(abs(c))
        else:
            tpow = "t" if k == 1 else f"t^{k}"
            core = tpow if abs(c) == 1 else f"{abs(c)}*{tpow}"
        if not parts:
            parts.append(core if c > 0 else "-" + core)
        else:
            parts.append(("+" if c > 0 else "-") + core)
    return "".join(parts)


def poly_rational_roots(a: Poly):
    """All rational roots of a nonzero polynomial over Q, sorted, each
    verified exactly as q^n a(p/q) = 0 in integers.  Over primitive integer
    coefficients, degrees 1 and 2 are solved in closed form; higher degrees
    try one candidate per real root (`_root_candidates`).
    """
    if not a:
        raise ValueError("rational roots of the zero polynomial are undefined")
    k = 0
    while a[k] == 0:
        k += 1
    roots = {_ZERO} if k else set()
    a = a[k:]
    if len(a) == 1:
        return sorted(roots)
    ints = primitive_integers(a)[0]
    if len(ints) == 2:
        cands = [Rational(-ints[0], ints[1])]
    elif len(ints) == 3:
        c0, c1, c2 = ints
        disc = c1 * c1 - 4 * c2 * c0
        r = math.isqrt(disc) if disc >= 0 else -1
        cands = [Rational(-c1 + r, 2 * c2), Rational(-c1 - r, 2 * c2)] if r * r == disc else []
    else:
        cands = _root_candidates(ints)
    roots.update(r for r in cands if _int_horner(ints, r.numerator, r.denominator) == 0)
    return sorted(roots)


def _root_candidates(a):
    """One rational per real root of the integer polynomial a: the nearest
    with denominator at most L = lead of a's square-free part, so the root
    itself if rational, as two such lie 1/L^2 apart or more.  Roots are
    isolated by Sturm's theorem in exact bisection from the Cauchy bound."""
    a = _zquo(a, poly_gcd(a, _deriv(a)))
    chain = [a, _deriv(a)]
    while len(chain[-1]) > 1:
        chain.append(tuple(-c for c in primitive_integers(_prem(chain[-2], chain[-1]))[0]))

    def variations(x):  # sign changes of the chain at x; q^k f(p/q) has f's sign
        signs = [v > 0 for v in (_int_horner(f, x.numerator, x.denominator) for f in chain) if v]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    lead = abs(a[-1])
    bound = Rational(2 + max(map(abs, a)) // lead)
    out, stack = [], [(-bound, variations(-bound), bound, variations(bound))]
    while stack:  # (lo, hi] holds V(lo) - V(hi) roots
        lo, v_lo, hi, v_hi = stack.pop()
        mid = (lo + hi) / 2
        if v_lo - v_hi == 1 and hi - lo < Rational(1, 2 * lead * lead):
            out.append(mid.limit_denominator(lead))
        elif v_lo != v_hi:
            v_mid = variations(mid)
            stack += [(lo, v_lo, mid, v_mid), (mid, v_mid, hi, v_hi)]
    return out


def _deriv(a):
    return tuple([k * c for k, c in enumerate(a)][1:])


def _int_horner(ints, p: int, q: int) -> int:
    """q^n a(p/q) for integer coefficients ints of a degree-n polynomial a."""
    acc, qpow = 0, 1
    for c in reversed(ints):
        acc = acc * p + c * qpow
        qpow *= q
    return acc


# ---------------------------------------------------------------------------
# integer polynomials: the arithmetic under RatFunc
# ---------------------------------------------------------------------------

def primitive_integers(*vecs, negate=False):
    """The vectors times the one rational scale that makes all their
    entries integers with gcd 1 together, as int tuples.  The scale is
    positive, or negative when `negate`; entries are ints or Rationals.
    When every entry is zero, the vectors come back as int zeros.  This
    clears denominators for `RatFunc` and for the point walk."""
    try:
        g = math.gcd(*[c for v in vecs for c in v])
    except TypeError:  # a Rational entry
        m = math.lcm(*[c.denominator for v in vecs for c in v])
        vecs = [[c.numerator * (m // c.denominator) for c in v] for v in vecs]
        g = math.gcd(*[c for v in vecs for c in v])
    if negate:
        g = -g
    if g == 1 or not g:
        return [tuple(v) for v in vecs]
    return [tuple([c // g for c in v]) for v in vecs]


def _prem(a, b):
    """A positive integer multiple of the remainder of a by b != 0."""
    rem, n, lead = list(a), len(b) - 1, b[-1]
    for k in range(len(a) - len(b), -1, -1):
        c = rem.pop()
        if c:
            g = math.gcd(c, lead)
            if g != abs(lead):
                rem = [x * (abs(lead) // g) for x in rem]
            c = c // g if lead > 0 else -c // g
            for j in range(n):
                rem[k + j] -= c * b[j]
    return _trim(rem)


def poly_gcd(a, b):
    """A primitive gcd in Z[t] of integer polynomials, by the primitive
    pseudo-remainder sequence (Knuth, TAOCP vol. 2, 4.6.1)."""
    while len(b) > 1:
        a, b = b, primitive_integers(_prem(a, b))[0]
    return (1,) if b else primitive_integers(a)[0]


def _zquo(a, b):
    """a / b for integer polynomials where b divides a in Z[t]."""
    rem, n = list(a), len(b) - 1
    quo = [0] * (len(a) - n)
    for k in range(len(quo) - 1, -1, -1):
        c = quo[k] = rem.pop() // b[-1]
        for j in range(n):
            rem[k + j] -= c * b[j]
    return tuple(quo)


def _ratfunc(n, d):
    """The canonical Scalar n/d of trimmed integer polynomials, d != 0."""
    if not n:
        return _ZERO
    if d != (1,):  # a polynomial is canonical as it is
        if len(n) > 1 and len(d) > 1:
            g = poly_gcd(n, d)
            if len(g) > 1:
                n, d = _zquo(n, g), _zquo(d, g)
        n, d = primitive_integers(n, d, negate=d[-1] < 0)
    if len(n) == 1 == len(d):
        return _rational(n[0], d[0])
    return RatFunc(n, d)


def int_pair(s):
    """The integer numerator and denominator (N, D) of a Rational or a
    RatFunc, as in the module docstring; None for anything else."""
    if isinstance(s, RatFunc):
        return s._n, s._d
    if isinstance(s, (int, Rational)):
        return ((s.numerator,) if s else ()), (s.denominator,)
    return None


def _int_pow(a, k: int):
    out = (1,)
    for bit in bin(k)[2:]:  # square and multiply, high bit first
        out = poly_mul(out, out)
        if bit == "1":
            out = poly_mul(out, a)
    return out


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

class RatFunc:
    """A univariate rational function over Q that depends on t, held as
    the canonical integer pair (N, D) of the module docstring.

    Values come from arithmetic, `T` and :func:`make_ratfunc`; they are
    never constant, so never zero, and constant results are Rationals.
    """

    __slots__ = ("_n", "_d")

    def __init__(self, n, d):
        self._n = n
        self._d = d

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other):
        o = int_pair(other)
        if o is None:
            return NotImplemented
        (a, b), (c, d) = (self._n, self._d), o
        if b == d == (1,):  # two polynomials
            return _ratfunc(poly_add(a, c), d)
        return _ratfunc(poly_add(poly_mul(a, d), poly_mul(c, b)), poly_mul(b, d))

    __radd__ = __add__

    def __sub__(self, other):
        return NotImplemented if int_pair(other) is None else self + -other

    def __rsub__(self, other):
        return NotImplemented if int_pair(other) is None else -self + other

    def __mul__(self, other):
        o = int_pair(other)
        if o is None:
            return NotImplemented
        return _ratfunc(poly_mul(self._n, o[0]), o[1] if self._d == (1,) else poly_mul(self._d, o[1]))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return NotImplemented if int_pair(other) is None else self * sc_inv(other)

    def __rtruediv__(self, other):
        return NotImplemented if int_pair(other) is None else sc_inv(self) * other

    def __neg__(self):
        return RatFunc(poly_neg(self._n), self._d)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k == 0:
            return _ONE
        base = self if k > 0 else sc_inv(self)
        # N^k and D^k are coprime, and content is multiplicative (Gauss),
        # so the powers are canonical as they are
        return RatFunc(_int_pow(base._n, abs(k)), _int_pow(base._d, abs(k)))

    # -- structure ----------------------------------------------------
    def __eq__(self, other):
        if isinstance(other, RatFunc):
            return self._n == other._n and self._d == other._d
        if isinstance(other, (int, Rational)):
            return False  # canonical form: RatFunc is never constant
        return NotImplemented

    def __hash__(self):
        return hash((self._n, self._d))

    def __repr__(self):
        return f"RatFunc({scalar_to_str(self)})"

    def eval_at(self, value: Rational) -> Rational:
        p, q = value.numerator, value.denominator
        d = _int_horner(self._d, p, q)
        if d == 0:
            raise SpecializationError(f"denominator vanishes at t = {value}")
        n = _int_horner(self._n, p, q)  # q^deg times the value at p/q, like d
        shift = len(self._d) - len(self._n)
        return Rational(n * q ** shift, d) if shift >= 0 else Rational(n, d * q ** -shift)


def make_ratfunc(num: Poly, den: Poly):
    """Canonical Scalar from a numerator/denominator polynomial pair."""
    num, den = primitive_integers(_trim(num), _trim(den))
    if not den:
        raise ZeroDivisionError("rational function with zero denominator")
    return _ratfunc(num, den)


T = RatFunc((0, 1), (1,))  # the indeterminate itself

Scalar = Rational | RatFunc


# ---------------------------------------------------------------------------
# generic scalar helpers
# ---------------------------------------------------------------------------

def sc_inv(s: Scalar) -> Scalar:
    if isinstance(s, RatFunc):
        n, d = s._d, s._n
        return RatFunc(n, d) if d[-1] > 0 else RatFunc(poly_neg(n), poly_neg(d))
    if s == 0:
        raise ZeroDivisionError("inverse of zero")
    return _ONE / s


def sc_pow(s: Scalar, k: int) -> Scalar:
    if isinstance(s, RatFunc):
        return s ** k
    return (_ONE * s) ** k


def uses_t(s: Scalar) -> bool:
    return isinstance(s, RatFunc)


def scalar_to_str(s: Scalar) -> str:
    """A Rational as it prints; a RatFunc over its monic denominator."""
    if isinstance(s, RatFunc):
        num, den = ([Rational(c, s._d[-1]) for c in poly] for poly in (s._n, s._d))
        num = poly_to_str(num)
        return num if len(den) == 1 else f"({num})/({poly_to_str(den)})"
    return str(s)


def scalar_is_atom(s: Scalar) -> bool:
    """True when the serialized form needs no parentheses inside a product."""
    if isinstance(s, RatFunc):
        return False
    return s >= 0


# ---------------------------------------------------------------------------
# scalar literal parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<pow>\^)"
                       r"|(?P<mul>\*)|(?P<div>/)|(?P<add>\+)|(?P<sub>-)|(?P<lpar>\()|(?P<rpar>\)))")


def tokenize(text: str):
    """Tokenize a scalar/relation expression; yields (kind, value, pos)."""
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip() == "":
                break
            raise ScalarParseError(f"unexpected character {text[pos]!r}", pos)
        pos = m.end()
        kind = m.lastgroup
        value = m.group(kind)
        out.append((kind, int(value) if kind == "int" else value, m.start(kind)))
    out.append(("end", None, len(text)))
    return out


class ScalarParser:
    """Recursive-descent parser for pure scalar expressions in t."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0
        self.depth = 0  # open '(' and unary '-' around the current factor

    def peek(self, ahead: int = 0):
        return self.tokens[self.i + ahead]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    @staticmethod
    def unexpected(kind, value, pos, where: str = "") -> ScalarParseError:
        what = "end of input" if kind == "end" else f"token {value!r}"
        return ScalarParseError(f"unexpected {what}{where}", pos)

    def signed_sum(self, term):
        """An optional sign, then `term()` values joined by '+' and '-'."""
        negate = self.peek()[0] in ("add", "sub") and self.take()[0] == "sub"
        val = -term() if negate else term()
        while self.peek()[0] in ("add", "sub"):
            if self.take()[0] == "add":
                val = val + term()
            else:
                val = val - term()
        return val

    def exponent(self) -> int:
        """Take a '^' and the signed integer after it, at most MAX_EXPONENT in size."""
        self.take()
        kind, value, pos = self.take()
        negate = kind == "sub"
        if negate:
            kind, value, pos = self.take()
        if kind != "int":
            raise ScalarParseError("exponent must be an integer", pos)
        if value > MAX_EXPONENT:
            raise ScalarParseError(f"exponent {value} exceeds {MAX_EXPONENT}", pos)
        return -value if negate else value

    def expr(self) -> Scalar:
        return self.signed_sum(self.term)

    def term(self) -> Scalar:
        val = self.factor()
        while self.peek()[0] in ("mul", "div"):
            if self.take()[0] == "mul":
                val = val * self.factor()
            else:
                d = self.factor()
                if not d:
                    raise ScalarParseError("division by zero in scalar literal")
                val = val / d
        return val

    def nested(self, parse, pos) -> Scalar:
        """parse() inside one more '(' or unary '-', at most MAX_NESTING deep."""
        if self.depth == MAX_NESTING:
            raise ScalarParseError(f"parentheses and signs nest deeper than {MAX_NESTING}", pos)
        self.depth += 1
        val = parse()
        self.depth -= 1
        return val

    def factor(self) -> Scalar:
        kind, value, pos = self.take()
        if kind == "int":
            base: Scalar = Rational(value)
        elif kind == "name":
            if value != "t":
                raise ScalarParseError(f"unknown symbol {value!r} in scalar", pos)
            base = T
        elif kind == "sub":
            return -self.nested(self.factor, pos)
        elif kind == "lpar":
            base = self.nested(self.expr, pos)
            if self.take()[0] != "rpar":
                raise ScalarParseError("missing closing parenthesis", pos)
        else:
            raise self.unexpected(kind, value, pos, " in scalar")
        if self.peek()[0] == "pow":
            k = self.exponent()
            if k < 0 and not base:
                raise ScalarParseError("division by zero in scalar literal", pos)
            check_power_size(base, abs(k), pos)
            base = sc_pow(base, k)
        return base


def check_power_size(base: Scalar, k: int, pos=None):
    """Refuse base^k (k >= 0) before computing it when its t-degree would
    pass MAX_EXPONENT, or a rational's size 64 * MAX_EXPONENT bits.  A
    power of 1 or -1 has one bit at any k and is never refused."""
    if isinstance(base, RatFunc):
        degree = k * (max(len(base._n), len(base._d)) - 1)
        if degree > MAX_EXPONENT:
            raise ScalarParseError(f"power of degree {degree} exceeds {MAX_EXPONENT}", pos)
    elif abs(base) != 1:
        bits = k * max(base.numerator.bit_length(), base.denominator.bit_length())
        if bits > 64 * MAX_EXPONENT:
            raise ScalarParseError(f"power of {bits} bits exceeds {64 * MAX_EXPONENT}", pos)


def parse_scalar(text: str) -> Scalar:
    parser = ScalarParser(tokenize(text))
    val = parser.expr()
    if parser.peek()[0] != "end":
        raise ScalarParseError("trailing input in scalar literal", parser.peek()[2])
    return val
