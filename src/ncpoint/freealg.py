"""Free algebra arithmetic, graded presentations and their text form.

Words are tuples of generator indices; a noncommutative polynomial is a
finitely supported map word -> scalar.  The product concatenates words.
Algebra and color Lie files are read line by line by `directives`.
"""

from .scalars import (
    Rational,
    Scalar,
    ScalarParseError,
    ScalarParser,
    primitive_integers,
    scalar_is_atom,
    scalar_to_str,
    tokenize,
    uses_t,
)

_ZERO = Rational(0)
_ONE = Rational(1)


class ParseError(ValueError):
    def __init__(self, message, line=None, col=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", col {col}" if col is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.col = col


class NCPoly:
    """Noncommutative polynomial: finitely supported map word -> scalar."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        cleaned = {}
        if terms:
            for w, c in terms.items():
                if c:
                    cleaned[tuple(w)] = c
        self.terms = cleaned

    # -- constructors ---------------------------------------------------
    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({(): _ONE})

    @classmethod
    def gen(cls, i: int):
        return cls({(i,): _ONE})

    @classmethod
    def monomial(cls, word, coeff=_ONE):
        return cls({tuple(word): coeff})

    # -- structure --------------------------------------------------------
    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def degree(self):
        """Degree of a nonzero homogeneous polynomial, else None."""
        lengths = {len(w) for w in self.terms}
        if len(lengths) == 1:
            return lengths.pop()
        return None

    def max_generator(self) -> int:
        return max((max(w) for w in self.terms if w), default=-1)

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        out = dict(self.terms)
        for w, c in other.terms.items():
            new = out.get(w, _ZERO) + c
            if new:
                out[w] = new
            else:
                out.pop(w, None)
        res = NCPoly.__new__(NCPoly)
        res.terms = out
        return res

    def __neg__(self):
        res = NCPoly.__new__(NCPoly)
        res.terms = {w: -c for w, c in self.terms.items()}
        return res

    def __sub__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self + (-other)

    def scale(self, s: Scalar) -> "NCPoly":
        if not s:
            return NCPoly.zero()
        res = NCPoly.__new__(NCPoly)
        res.terms = {w: s * c for w, c in self.terms.items()}
        return res

    def __mul__(self, other):
        """The product of two polynomials; a scalar multiplies by `scale`."""
        if not isinstance(other, NCPoly):
            return NotImplemented
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                new = out.get(w, _ZERO) + c1 * c2
                if new:
                    out[w] = new
                else:
                    out.pop(w, None)
        res = NCPoly.__new__(NCPoly)
        res.terms = out
        return res

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = NCPoly.one()
        for _ in range(k):
            out = out * self
        return out

    def __repr__(self):
        return f"NCPoly({self.terms!r})"


def window_form(f: NCPoly):
    """f's window form (degree, terms) for the point walk: its words as
    (letters in the order they act, coefficient), with the coefficients
    over Q scaled to primitive integers."""
    coeffs = list(f.terms.values())
    if not coefficients_use_t([f]):
        coeffs = primitive_integers(coeffs)[0]
    return f.degree(), tuple([(w[::-1], c) for w, c in zip(f.terms, coeffs)])


class Presentation:
    """A connected graded algebra: degree-1 generators plus homogeneous
    relations of degree >= 2, with the window form of each relation."""

    __slots__ = ("names", "relations", "forms")

    def __init__(self, names, relations):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("generator names must be distinct")
        for nm in names:
            if not nm.isidentifier():
                raise ValueError(f"bad generator name {nm!r}")
            if nm == "t":
                raise ValueError("generator name 't' collides with the scalar indeterminate")
        rels = tuple(relations)
        forms = tuple(map(window_form, rels))
        for f, (d, _) in zip(rels, forms):
            if not f:
                raise ValueError("zero relation")
            if d is None or d < 2:
                raise ValueError("relations must be homogeneous of degree >= 2")
            if f.max_generator() >= len(names):
                raise ValueError("relation uses an undeclared generator")
        self.names = names
        self.relations = rels
        self.forms = forms

    @property
    def num_generators(self) -> int:
        return len(self.names)

    def max_relation_degree(self) -> int:
        return max((f.degree() for f in self.relations), default=0)

    def __eq__(self, other):
        if not isinstance(other, Presentation):
            return NotImplemented
        return self.names == other.names and self.relations == other.relations

    def __repr__(self):
        rels = "; ".join(poly_to_str(f, self.names) for f in self.relations)
        return f"Presentation(<{', '.join(self.names)} | {rels}>)"


# ---------------------------------------------------------------------------
# text form:  x*x*y - 4*x*y*x + 4*y*x*x   with scalar coefficients
# ---------------------------------------------------------------------------

def poly_to_str(p: NCPoly, names) -> str:
    if not p:
        return "0"
    items = sorted(p.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))
    parts = []
    for w, c in items:
        word_txt = "*".join(names[i] for i in w)
        neg = False
        if scalar_is_atom(-c) and not scalar_is_atom(c):
            neg = True
            c = -c
        if not w:
            body = scalar_to_str(c) if scalar_is_atom(c) else f"({scalar_to_str(c)})"
        elif c == 1:
            body = word_txt
        else:
            ctxt = scalar_to_str(c) if scalar_is_atom(c) else f"({scalar_to_str(c)})"
            body = f"{ctxt}*{word_txt}"
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append((" - " if neg else " + ") + body)
    return "".join(parts)


class _PolyParser(ScalarParser):
    """Extends the scalar grammar with generator names.

    term ::= atom ('*' atom)* ; atoms are scalar factors or generators,
    and consecutive generator atoms concatenate noncommutatively.
    """

    def __init__(self, tokens, names):
        super().__init__(tokens)
        self.names = {nm: i for i, nm in enumerate(names)}

    def poly_term(self) -> NCPoly:
        coeff: Scalar = _ONE
        word = []
        while True:
            kind, value, pos = self.peek()
            if kind == "name" and value in self.names:
                self.take()
                reps = 1
                if self.peek()[0] == "pow":
                    kind, k, at = self.peek(1)
                    if kind != "int" or k < 1:
                        raise ScalarParseError("generator exponent must be a positive integer", at)
                    reps = self.exponent()
                word.extend([self.names[value]] * reps)
            elif kind in ("int", "lpar") or (kind == "name" and value == "t"):
                c = self.factor()
                while self.peek()[0] == "div":
                    self.take()
                    d = self.factor()
                    if not d:
                        raise ScalarParseError("division by zero coefficient", pos)
                    c = c / d
                coeff = coeff * c
            else:
                raise self.unexpected(kind, value, pos)
            if self.peek()[0] == "mul":
                self.take()
                continue
            break
        return NCPoly.monomial(tuple(word), coeff)


def parse_poly(text: str, names) -> NCPoly:
    """Parse relation syntax like ``x*x*y - 4*x*y*x + 4*y*x*x``."""
    try:
        parser = _PolyParser(tokenize(text), names)
        val = parser.signed_sum(parser.poly_term)
        if parser.peek()[0] != "end":
            raise ScalarParseError("trailing input", parser.peek()[2])
    except ScalarParseError as exc:
        raise ParseError(str(exc), col=exc.pos) from exc
    return val


# ---------------------------------------------------------------------------
# algebra files
# ---------------------------------------------------------------------------

SCALAR_VARIANTS = ("rational", "rational-function")


def directives(text: str):
    """(line number, key, value) for each 'key: value' line of a file,
    skipping blank lines and '#' comments."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ParseError("expected 'key: value'", line=lineno)
        key, _, value = line.partition(":")
        yield lineno, key.strip(), value.strip()


def parse_algebra(text: str) -> Presentation:
    """Parse an algebra file.

    Format (one directive per line, '#' comments)::

        generators: x y
        scalar: rational
        relation: x*y - 2*y*x

    The optional 'scalar' line must name one of SCALAR_VARIANTS.  It is
    checked but not stored: coefficients in t parse under either name.
    """
    names = None
    relations = []
    for lineno, key, value in directives(text):
        if key == "generators":
            if names is not None:
                raise ParseError("repeated 'generators' line", line=lineno)
            names = tuple(value.split())
            if not names:
                raise ParseError("empty generator list", line=lineno)
        elif key == "scalar":
            if value not in SCALAR_VARIANTS:
                raise ParseError(f"unknown scalar variant {value!r}", line=lineno)
        elif key == "relation":
            if names is None:
                raise ParseError("'relation' before 'generators'", line=lineno)
            try:
                relations.append(parse_poly(value, names))
            except ParseError as exc:
                raise ParseError(str(exc), line=lineno, col=exc.col) from exc
        else:
            raise ParseError(f"unknown directive {key!r}", line=lineno)
    if names is None:
        raise ParseError("missing 'generators' line")
    try:
        return Presentation(names, relations)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def coefficients_use_t(polys) -> bool:
    """Does a coefficient of any of these polynomials involve t?"""
    return any(uses_t(c) for f in polys for c in f.terms.values())


def serialize_algebra(pres: Presentation) -> str:
    """Algebra file text; the 'scalar' line says whether a coefficient uses t."""
    variant = "rational-function" if coefficients_use_t(pres.relations) else "rational"
    lines = [f"generators: {' '.join(pres.names)}", f"scalar: {variant}"]
    for f in pres.relations:
        lines.append(f"relation: {poly_to_str(f, pres.names)}")
    return "\n".join(lines) + "\n"
