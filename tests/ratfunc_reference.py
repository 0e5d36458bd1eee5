"""Rational functions as reduced pairs of Fraction tuples: the oracle of
`ncpoint.scalars.RatFunc`, which holds a coprime pair of integer tuples.

A value keeps a monic denominator and a numerator coprime to it, reduced
by Euclid's algorithm over Q; a value that collapses to a constant is a
plain Fraction, as in `ncpoint.scalars`.  Polynomials are tuples of
Fractions, low degree first, with no trailing zeros.  The polynomial
arithmetic is this module's own, so that it checks the package's rather
than repeating it; `monic_pair` reads the package's values in this form.
The oracles take the package's scalars in through `reference`, which
turns each Rational into a Fraction and each package RatFunc into one of
this module, and `package` turns their results back.
"""

from fractions import Fraction

from ncpoint import scalars
from ncpoint.scalars import SpecializationError, int_pair, poly_to_str

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _trim(coeffs):
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def poly_const(c):
    c = Fraction(c)
    return (c,) if c else ()


def poly_add(a, b):
    n = max(len(a), len(b))
    return _trim((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))


def poly_neg(a):
    return tuple(-c for c in a)


def poly_mul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _trim(out)


def poly_eval(a, x):
    acc = _ZERO
    for c in reversed(a):
        acc = acc * x + c
    return acc


def poly_divmod(a, b):
    """Quotient and remainder of long division over Q; b != 0."""
    rem = [Fraction(c) for c in a]
    quo = [_ZERO] * max(0, len(a) - len(b) + 1)
    for k in range(len(rem) - len(b), -1, -1):
        c = quo[k] = rem[k + len(b) - 1] / b[-1]
        for j, cb in enumerate(b):
            rem[k + j] -= c * cb
    return _trim(quo), _trim(rem)


def monic_pair(s):
    """A package scalar (int, Fraction or RatFunc) as its numerator and
    monic denominator in Fractions, read off its integer pair."""
    n, d = int_pair(s)
    return tuple(Fraction(c, d[-1]) for c in n), tuple(Fraction(c, d[-1]) for c in d)


def reference(x):
    """x with each package scalar in it, inside dicts, lists and tuples, as
    a value of this module; ints, dict keys and other objects are kept."""
    if isinstance(x, scalars.Rational):
        return Fraction(x.numerator, x.denominator)
    if isinstance(x, scalars.RatFunc):
        return make_ratfunc(*monic_pair(x))
    if isinstance(x, dict):
        return {k: reference(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return type(x)(map(reference, x))
    return x


def package(x):
    """x with each Fraction and RatFunc of this module in it as the
    package scalar of the same value: the inverse of `reference`."""
    if isinstance(x, Fraction):
        return scalars.Rational(x.numerator, x.denominator)
    if isinstance(x, RatFunc):
        return scalars.make_ratfunc(x.num, x.den)
    if isinstance(x, dict):
        return {k: package(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return type(x)(map(package, x))
    return x


def numerator_poly(s):
    return monic_pair(s)[0]


def denominator_poly(s):
    return monic_pair(s)[1]


def euclid_gcd(a, b):
    """Monic gcd over Q by Euclid's algorithm."""
    while b:
        a, b = b, poly_divmod(a, b)[1]
    return tuple(Fraction(c) / a[-1] for c in a) if a else ()


def make_ratfunc(num, den):
    """The canonical value num/den of two Fraction tuples."""
    num = poly_add(num, ())  # trims
    den = poly_add(den, ())
    if not den:
        raise ZeroDivisionError("rational function with zero denominator")
    if not num:
        return Fraction(0)
    g = euclid_gcd(num, den)
    if len(g) > 1:
        num = poly_divmod(num, g)[0]
        den = poly_divmod(den, g)[0]
    lead = den[-1]
    num = tuple(Fraction(c) / lead for c in num)
    den = tuple(Fraction(c) / lead for c in den)
    if len(den) == 1 and len(num) == 1:
        return num[0]
    return RatFunc(num, den)


def parts(s):
    """(numerator, denominator) of a value of this module; None for
    anything else."""
    if isinstance(s, RatFunc):
        return s.num, s.den
    if isinstance(s, (int, Fraction)):
        return poly_const(s), (_ONE,)
    return None


class RatFunc:
    """num/den, reduced, with a monic den; never constant."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num = num
        self.den = den

    def __add__(self, other):
        o = parts(other)
        if o is None:
            return NotImplemented
        return make_ratfunc(poly_add(poly_mul(self.num, o[1]), poly_mul(o[0], self.den)),
                            poly_mul(self.den, o[1]))

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = parts(other)
        if o is None:
            return NotImplemented
        return make_ratfunc(poly_mul(self.num, o[0]), poly_mul(self.den, o[1]))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = parts(other)
        if o is None:
            return NotImplemented
        if not o[0]:
            raise ZeroDivisionError("division by zero scalar")
        return make_ratfunc(poly_mul(self.num, o[1]), poly_mul(self.den, o[0]))

    def __rtruediv__(self, other):
        return sc_inv(self) * other

    def __neg__(self):
        return RatFunc(poly_neg(self.num), self.den)

    def __pow__(self, k: int):
        base = self if k >= 0 else sc_inv(self)
        out = _ONE
        for _ in range(abs(k)):
            out = out * base
        return out

    def __eq__(self, other):
        if isinstance(other, RatFunc):
            return (self.num, self.den) == (other.num, other.den)
        return False

    def __hash__(self):
        return hash((self.num, self.den))

    def eval_at(self, value):
        d = poly_eval(self.den, value)
        if d == 0:
            raise SpecializationError(f"denominator vanishes at t = {value}")
        return poly_eval(self.num, value) / d


def sc_inv(s):
    if isinstance(s, RatFunc):
        return make_ratfunc(s.den, s.num)
    return 1 / Fraction(s)


def scalar_to_str(s) -> str:
    if isinstance(s, RatFunc):
        num = poly_to_str(s.num)
        if s.den == (_ONE,):
            return num
        return f"({num})/({poly_to_str(s.den)})"
    return str(Fraction(s))
