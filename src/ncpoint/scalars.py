"""Exact scalar arithmetic: rationals and univariate rational functions.

Plain rationals are ``fractions.Fraction``.  Anything that genuinely
depends on the indeterminate ``t`` is a :class:`RatFunc`, and every
result that collapses to a constant is a Fraction, so a value is a
RatFunc if and only if it depends on t.

Polynomials are tuples of coefficients, low degree first, with no
trailing zeros; ``()`` is the zero polynomial.  A RatFunc is the pair
(N, D) of integer polynomials with gcd(N, D) = 1 in Q[t], the gcd of
all the coefficients of N and D together 1, and lead(D) > 0.  That form
is canonical, so equality and hashing compare the pairs, and arithmetic
runs on Python ints only: the one gcd it needs, of two non-constant
polynomials, is a primitive pseudo-remainder gcd in Z[t] followed by
exact division (Gauss's lemma).  The Fraction tuples `RatFunc.num` and
`RatFunc.den`, over a monic denominator, are derived from the pair on
access; `make_ratfunc` takes such a pair of Fraction tuples.

Rational roots of the Q(t) pivots are solved in closed form in degrees
1 and 2 (`poly_rational_roots`).  A scalar literal may not raise a base
to a power of t-degree above MAX_EXPONENT, or of a size above
64 * MAX_EXPONENT bits.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

Poly = tuple  # coefficients (Fraction or int), low degree first, trimmed

_ZERO = Fraction(0)
_ONE = Fraction(1)

MAX_EXPONENT = 1000  # largest |k| a scalar literal may raise a base to


class SpecializationError(ValueError):
    """Raised when substituting a t-value hits a vanishing denominator."""


class ScalarParseError(ValueError):
    def __init__(self, message, pos=None):
        super().__init__(message)
        self.pos = pos


# ---------------------------------------------------------------------------
# polynomial helpers (internal)
# ---------------------------------------------------------------------------

def _trim(coeffs) -> Poly:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def poly_const(c) -> Poly:
    c = Fraction(c)
    return (c,) if c else ()


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


def poly_divmod(a: Poly, b: Poly):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    quo = [_ZERO] * max(0, len(a) - len(b) + 1)
    inv_lead = 1 / b[-1]
    for k in range(len(rem) - len(b), -1, -1):
        c = rem[k + len(b) - 1] * inv_lead
        if c:
            quo[k] = c
            for j, cb in enumerate(b):
                rem[k + j] -= c * cb
    return _trim(quo), _trim(rem)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over Q, read off the primitive gcd in Z[t]."""
    if len(a) == 1 or len(b) == 1:
        return (_ONE,)  # a nonzero constant divides everything
    g = _zgcd(*_integral(a, b))
    return tuple([Fraction(c, g[-1]) for c in g])


def poly_eval(a: Poly, x: Fraction) -> Fraction:
    acc = _ZERO
    for c in reversed(a):
        acc = acc * x + c
    return acc


def poly_degree(a: Poly) -> int:
    return len(a) - 1  # -1 for the zero polynomial


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


def _int_divisors(n: int):
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            out.append(n // d)
        d += 1
    return sorted(set(out))


def poly_rational_roots(a: Poly):
    """All rational roots of a nonzero polynomial over Q, sorted, each
    verified exactly as q^n a(p/q) = 0 in integers.  Over primitive integer
    coefficients, degrees 1 and 2 are solved in closed form; higher degrees
    try the rational-root candidates p/q in lowest terms.
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
    ints = _primitive(_integral(a)[0])
    if len(ints) == 2:
        cands = [Fraction(-ints[0], ints[1])]
    elif len(ints) == 3:
        c0, c1, c2 = ints
        disc = c1 * c1 - 4 * c2 * c0
        r = math.isqrt(disc) if disc >= 0 else -1
        cands = [Fraction(-c1 + r, 2 * c2), Fraction(-c1 - r, 2 * c2)] if r * r == disc else []
    else:
        cands = [Fraction(s * p, q)
                 for p in _int_divisors(ints[0]) for q in _int_divisors(ints[-1])
                 if math.gcd(p, q) == 1 for s in (1, -1)]
    roots.update(r for r in cands if _int_horner(ints, r.numerator, r.denominator) == 0)
    return sorted(roots)


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

def _integral(*polys):
    """The polynomials times the lcm of all their coefficient denominators."""
    m = math.lcm(*(c.denominator for a in polys for c in a))
    return [tuple([c.numerator * (m // c.denominator) for c in a]) for a in polys]


def _primitive(a):
    """a over the gcd of its coefficients."""
    g = math.gcd(*a)
    return tuple([c // g for c in a]) if g > 1 else a


def _prem(a, b):
    """A nonzero integer multiple of the remainder of a by b != 0."""
    rem, n, lead = list(a), len(b) - 1, b[-1]
    for k in range(len(a) - len(b), -1, -1):
        c = rem.pop()
        if c:
            g = math.gcd(c, lead)
            if g != lead:
                rem = [x * (lead // g) for x in rem]
            c //= g
            for j in range(n):
                rem[k + j] -= c * b[j]
    return _trim(rem)


def _zgcd(a, b):
    """A primitive gcd in Z[t] of integer polynomials, by the primitive
    pseudo-remainder sequence (Knuth, TAOCP vol. 2, 4.6.1)."""
    while len(b) > 1:
        a, b = b, _primitive(_prem(a, b))
    return (1,) if b else _primitive(a)


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
    if len(n) > 1 and len(d) > 1:
        g = _zgcd(n, d)
        if len(g) > 1:
            n, d = _zquo(n, g), _zquo(d, g)
    c = math.gcd(*n, *d)
    if d[-1] < 0:
        c = -c
    if c != 1:
        n, d = tuple([x // c for x in n]), tuple([x // c for x in d])
    if len(n) == 1 == len(d):
        return Fraction(n[0], d[0])
    return RatFunc(n, d)


def _pair(s):
    """The integer numerator and denominator of a scalar, or None."""
    if isinstance(s, RatFunc):
        return s._n, s._d
    if isinstance(s, (int, Fraction)):
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
    never constant, so never zero, and constant results are Fractions.
    """

    __slots__ = ("_n", "_d")

    def __init__(self, n, d):
        self._n = n
        self._d = d

    @property
    def num(self) -> Poly:
        """The numerator over the monic denominator, in Fractions."""
        return tuple([Fraction(c, self._d[-1]) for c in self._n])

    @property
    def den(self) -> Poly:
        """The monic denominator, in Fractions."""
        return tuple([Fraction(c, self._d[-1]) for c in self._d])

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other):
        o = _pair(other)
        if o is None:
            return NotImplemented
        (a, b), (c, d) = (self._n, self._d), o
        return _ratfunc(poly_add(poly_mul(a, d), poly_mul(c, b)), poly_mul(b, d))

    __radd__ = __add__

    def __sub__(self, other):
        return NotImplemented if _pair(other) is None else self + -other

    def __rsub__(self, other):
        return NotImplemented if _pair(other) is None else -self + other

    def __mul__(self, other):
        o = _pair(other)
        if o is None:
            return NotImplemented
        return _ratfunc(poly_mul(self._n, o[0]), poly_mul(self._d, o[1]))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return NotImplemented if _pair(other) is None else self * sc_inv(other)

    def __rtruediv__(self, other):
        return NotImplemented if _pair(other) is None else sc_inv(self) * other

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
        if isinstance(other, (int, Fraction)):
            return False  # canonical form: RatFunc is never constant
        return NotImplemented

    def __hash__(self):
        return hash((self._n, self._d))

    def __repr__(self):
        return f"RatFunc({scalar_to_str(self)})"

    def eval_at(self, value: Fraction) -> Fraction:
        p, q = value.numerator, value.denominator
        d = _int_horner(self._d, p, q)
        if d == 0:
            raise SpecializationError(f"denominator vanishes at t = {value}")
        n = _int_horner(self._n, p, q)  # q^deg times the value at p/q, like d
        shift = len(self._d) - len(self._n)
        return Fraction(n * q ** shift, d) if shift >= 0 else Fraction(n, d * q ** -shift)


def make_ratfunc(num: Poly, den: Poly):
    """Canonical Scalar from a numerator/denominator polynomial pair."""
    num, den = _integral(_trim(num), _trim(den))
    if not den:
        raise ZeroDivisionError("rational function with zero denominator")
    return _ratfunc(num, den)


T = RatFunc((0, 1), (1,))  # the indeterminate itself

Scalar = Fraction | RatFunc


# ---------------------------------------------------------------------------
# generic scalar helpers
# ---------------------------------------------------------------------------

def sc_inv(s: Scalar) -> Scalar:
    if isinstance(s, RatFunc):
        n, d = s._d, s._n
        return RatFunc(n, d) if d[-1] > 0 else RatFunc(poly_neg(n), poly_neg(d))
    if s == 0:
        raise ZeroDivisionError("inverse of zero")
    return 1 / Fraction(s)


def sc_pow(s: Scalar, k: int) -> Scalar:
    if isinstance(s, RatFunc):
        return s ** k
    return Fraction(s) ** k


def uses_t(s: Scalar) -> bool:
    return isinstance(s, RatFunc)


def numerator_poly(s: Scalar) -> Poly:
    return s.num if isinstance(s, RatFunc) else poly_const(s)


def denominator_poly(s: Scalar) -> Poly:
    return s.den if isinstance(s, RatFunc) else (_ONE,)


def scalar_to_str(s: Scalar) -> str:
    if isinstance(s, RatFunc):
        num = poly_to_str(s.num)
        if s.den == (_ONE,):
            return num
        return f"({num})/({poly_to_str(s.den)})"
    return str(Fraction(s))


def scalar_is_atom(s: Scalar) -> bool:
    """True when the serialized form needs no parentheses inside a product."""
    if isinstance(s, RatFunc):
        return False
    return Fraction(s) >= 0


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

    def factor(self) -> Scalar:
        kind, value, pos = self.take()
        if kind == "int":
            base: Scalar = Fraction(value)
        elif kind == "name":
            if value != "t":
                raise ScalarParseError(f"unknown symbol {value!r} in scalar", pos)
            base = T
        elif kind == "sub":
            return -self.factor()
        elif kind == "lpar":
            base = self.expr()
            if self.take()[0] != "rpar":
                raise ScalarParseError("missing closing parenthesis", pos)
        else:
            raise self.unexpected(kind, value, pos, " in scalar")
        if self.peek()[0] == "pow":
            k = self.exponent()
            if k < 0 and not base:
                raise ScalarParseError("division by zero in scalar literal", pos)
            _check_power_size(base, abs(k), pos)
            base = sc_pow(base, k)
        return base


def _check_power_size(base: Scalar, k: int, pos):
    """Refuse base^k before computing it when its t-degree would pass
    MAX_EXPONENT, or a rational's size 64 * MAX_EXPONENT bits."""
    if isinstance(base, RatFunc):
        degree = k * (max(len(base._n), len(base._d)) - 1)
        if degree > MAX_EXPONENT:
            raise ScalarParseError(f"power of degree {degree} exceeds {MAX_EXPONENT}", pos)
    else:
        bits = k * max(base.numerator.bit_length(), base.denominator.bit_length())
        if bits > 64 * MAX_EXPONENT:
            raise ScalarParseError(f"power of {bits} bits exceeds {64 * MAX_EXPONENT}", pos)


def parse_scalar(text: str) -> Scalar:
    parser = ScalarParser(tokenize(text))
    val = parser.expr()
    if parser.peek()[0] != "end":
        raise ScalarParseError("trailing input in scalar literal", parser.peek()[2])
    return val
