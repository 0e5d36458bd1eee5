"""Exact scalar arithmetic: rationals and univariate rational functions.

Plain rationals are ``fractions.Fraction``.  Anything that genuinely
depends on the indeterminate ``t`` is a :class:`RatFunc`.  Mixed
arithmetic promotes a Fraction to a constant rational function on the
fly, and every RatFunc result that collapses to a constant is demoted
back to Fraction, so the representation is canonical: a value is a
RatFunc if and only if it depends on t.

Polynomials are stored as tuples of Fractions, low degree first, with
no trailing zeros; ``()`` is the zero polynomial.  Rational functions
keep a monic denominator and coprime numerator/denominator.

The Q(t) elimination's hot helpers take exact shortcuts: `poly_gcd`
with a constant argument, and `poly_rational_roots` in degrees 1 and 2.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Union

Poly = tuple  # tuple[Fraction, ...], low degree first, trimmed

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


POLY_T: Poly = (_ZERO, _ONE)


def poly_add(a: Poly, b: Poly) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def poly_neg(a: Poly) -> Poly:
    return tuple(-c for c in a)


def poly_sub(a: Poly, b: Poly) -> Poly:
    return poly_add(a, poly_neg(b))


def poly_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ()
    out = [_ZERO] * (len(a) + len(b) - 1)
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
    if len(a) == 1 or len(b) == 1:
        return (_ONE,)  # a nonzero constant divides everything
    while b:
        a, b = b, poly_divmod(a, b)[1]
    if not a:
        return ()
    return tuple(c / a[-1] for c in a)  # monic


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
    verified exactly.  Over primitive integer coefficients, degrees 1 and
    2 are solved in closed form; higher degrees try the rational-root
    candidates p/q in lowest terms, evaluating q^n a(p/q) in integers.
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
    lcm = math.lcm(*(c.denominator for c in a))
    ints = [c.numerator * (lcm // c.denominator) for c in a]
    g = math.gcd(*ints)
    ints = [v // g for v in ints]
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
                 if math.gcd(p, q) == 1 for s in (1, -1) if _int_horner(ints, s * p, q) == 0]
    roots.update(r for r in cands if poly_eval(a, r) == 0)
    return sorted(roots)


def _int_horner(ints, p: int, q: int) -> int:
    """q^n a(p/q) for integer coefficients ints of a degree-n polynomial a."""
    acc, qpow = 0, 1
    for c in reversed(ints):
        acc = acc * p + c * qpow
        qpow *= q
    return acc


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

class RatFunc:
    """A reduced univariate rational function over Q with monic denominator.

    Instances are immutable and always genuinely non-constant; constant
    values live as plain Fractions (see :func:`make_ratfunc`).
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly, _normalized=False):
        if not _normalized:
            raise TypeError("use make_ratfunc() to construct RatFunc values")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *args):
        raise AttributeError("RatFunc is immutable")

    # -- arithmetic ---------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, (int, Fraction)):
            return _ConstView(poly_const(other))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        num = poly_add(poly_mul(self.num, o.den), poly_mul(o.num, self.den))
        return make_ratfunc(num, poly_mul(self.den, o.den))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        num = poly_sub(poly_mul(self.num, o.den), poly_mul(o.num, self.den))
        return make_ratfunc(num, poly_mul(self.den, o.den))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        num = poly_sub(poly_mul(o.num, self.den), poly_mul(self.num, o.den))
        return make_ratfunc(num, poly_mul(self.den, o.den))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return make_ratfunc(poly_mul(self.num, o.num), poly_mul(self.den, o.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.num:
            raise ZeroDivisionError("division by zero scalar")
        return make_ratfunc(poly_mul(self.num, o.den), poly_mul(self.den, o.num))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.num:
            raise ZeroDivisionError("division by zero scalar")
        return make_ratfunc(poly_mul(o.num, self.den), poly_mul(o.den, self.num))

    def __neg__(self):
        return make_ratfunc(poly_neg(self.num), self.den)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k == 0:
            return _ONE
        base = self if k > 0 else sc_inv(self)
        out = _ONE
        for bit in bin(abs(k))[2:]:  # square and multiply, high bit first
            out = out * out
            if bit == "1":
                out = out * base
        return out

    # -- structure ----------------------------------------------------
    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, RatFunc):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction)):
            return False  # canonical form: RatFunc is never constant
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RatFunc({scalar_to_str(self)})"

    def eval_at(self, value: Fraction) -> Fraction:
        d = poly_eval(self.den, value)
        if d == 0:
            raise SpecializationError(f"denominator vanishes at t = {value}")
        return poly_eval(self.num, value) / d


class _ConstView:
    """Internal adapter letting RatFunc arithmetic treat constants uniformly."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly):
        self.num = num
        self.den = (_ONE,)


def make_ratfunc(num: Poly, den: Poly):
    """Canonical Scalar from a numerator/denominator polynomial pair."""
    num = _trim(num)
    den = _trim(den)
    if not den:
        raise ZeroDivisionError("rational function with zero denominator")
    if not num:
        return _ZERO
    g = poly_gcd(num, den)
    if poly_degree(g) > 0:
        num = poly_divmod(num, g)[0]
        den = poly_divmod(den, g)[0]
    lead = den[-1]
    if lead != 1:
        num = tuple(c / lead for c in num)
        den = tuple(c / lead for c in den)
    if len(den) == 1 and len(num) == 1:
        return num[0]
    return RatFunc(num, den, _normalized=True)


T = make_ratfunc(POLY_T, (_ONE,))  # the indeterminate itself

Scalar = Union[Fraction, RatFunc]


# ---------------------------------------------------------------------------
# generic scalar helpers
# ---------------------------------------------------------------------------

def sc_inv(s: Scalar) -> Scalar:
    if isinstance(s, RatFunc):
        return make_ratfunc(s.den, s.num)
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
            base = sc_pow(base, k)
        return base


def parse_scalar(text: str) -> Scalar:
    parser = ScalarParser(tokenize(text))
    val = parser.expr()
    if parser.peek()[0] != "end":
        raise ScalarParseError("trailing input in scalar literal", parser.peek()[2])
    return val
