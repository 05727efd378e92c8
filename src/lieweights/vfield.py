"""Polynomial charts, vector fields, and the ASCII expression grammar.

Grammar accepted by the parser (whitespace insignificant, errors carry
line/column):

    expr     := term { ("+" | "-") term }
    term     := factor { ("*" | "/") factor }
    factor   := atom [ "^" nat ]
    atom     := rational | ident | "d" ident | "(" expr ")" | "-" atom
    rational := nat [ "/" nat ]
    ident    := letter { letter | digit | "_" }

"/" between arbitrary factors is a superset of the written grammar so that
printed rational functions re-parse.  The parser carries numerators over
one common denominator and takes no gcd; a vector field's coefficients are
divided by it once, exactly, at the end, so "(x^2-1)/(x-1)*dx" loads as
"(x + 1)*dx" and a coefficient that is not a polynomial is a parse error.
An identifier that exactly matches a chart variable wins over the
"d"-prefixed reading.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Sequence

from .exactalg import Poly, RatFunc, Scalar, derive_into, divide_exact, record

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


@record
class Chart:
    """An ordered tuple of distinct coordinate names."""

    names: tuple[str, ...]

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        seen = set()
        for name in names:
            if not _IDENT_RE.fullmatch(name):
                raise ValueError(f"invalid coordinate name {name!r}")
            if name in seen:
                raise ValueError(f"duplicate coordinate name {name!r}")
            seen.add(name)
        object.__setattr__(self, "names", names)

    @property
    def dim(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"no coordinate named {name!r}") from None

    def var(self, name: str) -> Poly:
        return Poly.variable(self.dim, self.index(name))

    def zero(self) -> Poly:
        return Poly.zero(self.dim)

    def one(self) -> Poly:
        return Poly.one(self.dim)


def _as_poly(value: Scalar | Fraction | int, nvars: int) -> Poly:
    """A coefficient as a Poly: a RatFunc must have denominator 1.  Nearly
    every coefficient is a Poly already, so that case is tested first."""
    if isinstance(value, Poly):
        if value.nvars != nvars:
            raise ValueError("polynomial dimension mismatch")
        return value
    if isinstance(value, RatFunc):
        if not value.is_polynomial():
            raise ValueError("vector field coefficients must be polynomial")
        return _as_poly(value.num, nvars)
    return Poly.const(nvars, value)


class VectorField:
    """A vector field on a chart, one polynomial coefficient per coordinate
    direction."""

    __slots__ = ("chart", "coeffs")

    def __init__(self, chart: Chart, coeffs: Sequence[Scalar | Fraction | int]):
        if len(coeffs) != chart.dim:
            raise ValueError("coefficient count does not match chart dimension")
        object.__setattr__(
            self, "coeffs", tuple(_as_poly(c, chart.dim) for c in coeffs)
        )
        object.__setattr__(self, "chart", chart)

    def __setattr__(self, name, value):
        raise AttributeError("VectorField is immutable")

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def apply(self, f: Scalar) -> Scalar:
        """Directional derivative: sum of coeff_a * df/dx_a.

        Returns a Poly for a polynomial argument, summed term by term into
        one dict by exactalg.derive_into; a RatFunc with unit denominator
        counts as polynomial.  On n/d it is the one quotient
        (X(n)*d - n*X(d)) / d^2.
        """
        if isinstance(f, RatFunc):
            if not f.is_polynomial():
                n, d = f.num, f.den
                return RatFunc(self.apply(n) * d - n * self.apply(d), d * d)
            f = f.num
        if f.nvars != self.chart.dim:
            raise ValueError("function does not live on the field's chart")
        out: dict = {}
        derive_into(out, self.coeffs, f.terms, 1)
        return Poly.from_sum(f.nvars, out)

    def __add__(self, other: "VectorField") -> "VectorField":
        if not isinstance(other, VectorField):
            return NotImplemented
        if other.chart != self.chart:
            raise ValueError("vector fields live on different charts")
        return VectorField(
            self.chart, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __sub__(self, other: "VectorField") -> "VectorField":
        if not isinstance(other, VectorField):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "VectorField":
        return VectorField(self.chart, [-c for c in self.coeffs])

    def scale(self, factor: Scalar | Fraction | int) -> "VectorField":
        return VectorField(self.chart, [c * factor for c in self.coeffs])

    def value_at(self, point: Sequence[Fraction]) -> tuple[Fraction, ...]:
        return tuple(c.eval(point) for c in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        return self.chart == other.chart and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.chart, self.coeffs))

    def __repr__(self):
        return f"VectorField({format_vector_field(self)!r})"


def coordinate_field(chart: Chart, index: int) -> VectorField:
    """The coordinate frame field d/dx_index."""
    coeffs = [Fraction(1) if i == index else Fraction(0) for i in range(chart.dim)]
    return VectorField(chart, coeffs)


def lie_bracket(x: VectorField, y: VectorField) -> VectorField:
    """Commutator [X, Y], whose a-th coefficient is X(Y^a) - Y(X^a): one
    dict per coefficient, summed by two exactalg.derive_into calls with
    factors +1 and -1."""
    if x.chart != y.chart:
        raise ValueError("vector fields live on different charts")
    coeffs = []
    for xa, ya in zip(x.coeffs, y.coeffs):
        out: dict = {}
        derive_into(out, x.coeffs, ya.terms, 1)
        derive_into(out, y.coeffs, xa.terms, -1)
        coeffs.append(Poly.from_sum(x.chart.dim, out))
    return VectorField(x.chart, coeffs)


def restrict_zero(value: Scalar, fiber_indices: Iterable[int]) -> Scalar:
    """Substitute 0 for the listed variables.

    The result keeps the ambient variable count.  Raises when a rational
    function's denominator vanishes identically under the substitution.
    """
    fiber = set(fiber_indices)

    def chop(p: Poly) -> Poly:
        return Poly(
            p.nvars,
            {m: c for m, c in p.terms.items() if all(m[i] == 0 for i in fiber)},
        )

    if isinstance(value, Poly):
        return chop(value)
    den = chop(value.den)
    if den.is_zero():
        raise ZeroDivisionError("denominator vanishes identically on the submanifold")
    return RatFunc(chop(value.num), den)


# -- parsing -----------------------------------------------------------------


class ParseError(ValueError):
    """Syntax or semantic error in expression text, with position info."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


@record
class _Token:
    kind: str  # "nat" | "ident" | "op" | "end"
    text: str
    line: int
    column: int


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(src):
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(src) and src[j].isdigit():
                j += 1
            tokens.append(_Token("nat", src[i:j], line, col))
            col += j - i
            i = j
            continue
        m = _IDENT_RE.match(src, i)
        if m:
            tokens.append(_Token("ident", m.group(), line, col))
            col += len(m.group())
            i = m.end()
            continue
        if ch in "+-*/^()":
            tokens.append(_Token("op", ch, line, col))
            col += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Value:
    """Intermediate parse value: the numerators of a scalar part and of an
    optional vector part, over one shared denominator.  No gcd is taken;
    the callers of the parser divide once, at the end."""

    __slots__ = ("scalar", "vector", "den")

    def __init__(self, scalar: Poly, vector: tuple[Poly, ...] | None, den: Poly):
        self.scalar = scalar
        self.vector = vector
        self.den = den

    def map(self, f, den: Poly) -> "_Value":
        """f applied to every numerator, over the new denominator den.  f
        is linear, so a zero numerator is left as it is."""
        vector = None if self.vector is None else tuple(f(c) if c else c for c in self.vector)
        scalar = f(self.scalar) if self.scalar else self.scalar
        return _Value(scalar, vector, den)

    def times(self, factor: Poly, den: Poly) -> "_Value":
        """Every numerator times factor, over den; a factor of 1 leaves
        them as they are."""
        if factor.is_one():
            return _Value(self.scalar, self.vector, den)
        return self.map(lambda c: c * factor, den)

    def parts(self) -> tuple[Poly, ...]:
        return (self.scalar, *(self.vector or ()), self.den)


# parentheses and unary minus recurse; past this depth the parser refuses
# the input instead of exhausting the interpreter stack
MAX_NESTING = 100

# largest total degree (of a numerator or a denominator) and largest
# exponent the parser builds; it refuses a power or product that would go
# past it before computing it, so input text cannot blow up expansion time
# or the default degree bounds derived from generator degrees
MAX_DEGREE = 12

# largest number of terms (of a numerator or a denominator) the parser
# builds; a degree cap alone still lets (1+x+y+z+u+v)^12 expand to 6188
# terms, so products and powers are bounded before they are computed
MAX_TERMS = 500

# largest number of monomials of degree <= the degree bound in the chart
# variables, C(n + bound, n); every bounded module system has one unknown
# per generator and monomial, so a larger explicit bound is refused at
# load time instead of eliminated for minutes, and a defaulted one is
# lowered to fit (the (2,3,5) Cartan default bound 7 on five variables
# gives 792)
MAX_MONOMIALS = 1000


def _product(p: Poly, q: Poly) -> Poly:
    """p * q, skipping the product when either is 1."""
    if p.is_one():
        return q
    if q.is_one():
        return p
    return p * q


def _value_degree(val: _Value) -> int:
    """Largest total degree of a numerator or the denominator, at least 0."""
    return max(0, *(p.total_degree() for p in val.parts()))


def _value_terms(val: _Value) -> int:
    """Largest term count of a numerator or the denominator, at least 1."""
    return max(1, *(len(p.terms) for p in val.parts()))


class _Parser:
    def __init__(self, src: str, chart: Chart):
        self.chart = chart
        # Polys are immutable, so one 0 and one 1 serve the whole parse
        self.zero, self.one = chart.zero(), chart.one()
        self.tokens = _tokenize(src)
        self.pos = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, tok: _Token):
        raise ParseError(message, tok.line, tok.column)

    def _scalar(self, value: Poly) -> _Value:
        return _Value(value, None, self.one)

    def check_degree(self, degree: int, tok: _Token):
        if degree > MAX_DEGREE:
            self.error(f"total degree {degree} exceeds the limit of {MAX_DEGREE}", tok)

    def check_terms(self, terms: int, tok: _Token):
        if terms > MAX_TERMS:
            self.error(
                f"expansion to up to {terms} terms exceeds the limit of {MAX_TERMS}", tok
            )

    def parse(self) -> _Value:
        val = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            self.error(f"unexpected {tok.text!r}", tok)
        return val

    def expr(self) -> _Value:
        val = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.next()
            rhs = self.term()
            if rhs.den != val.den:
                lden, rden = val.den, rhs.den
                val = val.times(rden, _product(lden, rden))
                rhs = rhs.times(lden, val.den)
            add = Poly.__add__ if op.text == "+" else Poly.__sub__
            scalar = add(val.scalar, rhs.scalar)
            if val.vector is None and rhs.vector is None:
                vector = None
            else:
                zero = (self.zero,) * self.chart.dim
                left = val.vector or zero
                right = rhs.vector or zero
                vector = tuple(add(a, b) for a, b in zip(left, right))
            val = _Value(scalar, vector, val.den)
            # common denominators add degrees and multiply term counts, so
            # sums are checked too; their operands are already bounded
            self.check_degree(_value_degree(val), op)
            self.check_terms(_value_terms(val), op)
        return val

    def term(self) -> _Value:
        val = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.next()
            rhs = self.factor()
            self.check_degree(_value_degree(val) + _value_degree(rhs), op)
            self.check_terms(_value_terms(val) * _value_terms(rhs), op)
            if op.text == "*":
                if val.vector is not None and rhs.vector is not None:
                    self.error("cannot multiply two vector fields", op)
                if rhs.vector is not None:
                    val, rhs = rhs, val
                factor, den = rhs.scalar, _product(val.den, rhs.den)
            else:
                if rhs.vector is not None:
                    self.error("cannot divide by a vector field", op)
                if rhs.scalar.is_zero():
                    self.error("division by zero", op)
                factor, den = rhs.den, _product(val.den, rhs.scalar)
            val = val.times(factor, den)
        return val

    def factor(self) -> _Value:
        val = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            op = self.next()
            exp_tok = self.peek()
            if exp_tok.kind != "nat":
                self.error("exponent must be a natural number", exp_tok)
            self.next()
            if val.vector is not None:
                self.error("cannot raise a vector field to a power", op)
            digits = exp_tok.text.lstrip("0") or "0"
            if len(digits) > len(str(MAX_DEGREE)) or int(digits) > MAX_DEGREE:
                self.error(f"exponent exceeds the limit of {MAX_DEGREE}", exp_tok)
            exponent = int(digits)
            self.check_degree(_value_degree(val) * exponent, op)
            # (a_1 + ... + a_t)^e has at most comb(t + e - 1, e) terms
            self.check_terms(math.comb(_value_terms(val) + exponent - 1, exponent), op)
            val = _Value(val.scalar**exponent, None, val.den**exponent)
        return val

    def atom(self) -> _Value:
        tok = self.peek()
        if tok.kind == "op" and tok.text in "(-":
            if self.depth == MAX_NESTING:
                self.error(f"nesting deeper than {MAX_NESTING} levels", tok)
            self.depth += 1
            val = self.nested(tok)
            self.depth -= 1
            return val
        if tok.kind == "nat":
            self.next()
            try:
                value = int(tok.text)
            except ValueError:  # past the interpreter's digit limit
                self.error("number has too many digits", tok)
            return self._scalar(Poly.const(self.chart.dim, value))
        if tok.kind == "ident":
            self.next()
            name = tok.text
            if name in self.chart.names:
                return self._scalar(self.chart.var(name))
            if name.startswith("d") and name[1:] in self.chart.names:
                idx = self.chart.index(name[1:])
                zero, one = self.zero, self.one
                vec = tuple(one if i == idx else zero for i in range(self.chart.dim))
                return _Value(zero, vec, one)
            self.error(f"unknown identifier {name!r}", tok)
        self.error(f"unexpected {tok.text!r}" if tok.text else "unexpected end of input", tok)

    def nested(self, tok: _Token) -> _Value:
        """A parenthesized expression or a negated atom."""
        self.next()
        if tok.text == "(":
            val = self.expr()
            close = self.peek()
            if not (close.kind == "op" and close.text == ")"):
                self.error("expected ')'", close)
            self.next()
            return val
        val = self.atom()
        return val.map(Poly.__neg__, val.den)


def _parse_scalar_value(src: str, chart: Chart) -> _Value:
    val = _Parser(src, chart).parse()
    if val.vector is not None:
        raise ParseError("expression contains vector field factors", 1, 1)
    return val


def parse_scalar(src: str, chart: Chart) -> RatFunc:
    """Parse a scalar (function) expression to a rational function."""
    val = _parse_scalar_value(src, chart)
    return RatFunc(val.scalar, val.den)


def parse_polynomial(src: str, chart: Chart) -> Poly:
    """Parse a polynomial expression; rejects genuine denominators."""
    val = _parse_scalar_value(src, chart)
    quotient = divide_exact(val.scalar, val.den)
    if quotient is None:
        raise ParseError("expression is not polynomial", 1, 1)
    return quotient


def parse_vector_field(src: str, chart: Chart) -> VectorField:
    """Parse a vector field: a sum of terms, each with exactly one d-factor.

    Each coefficient is divided by the common denominator once, exactly;
    a coefficient that is not a polynomial is a parse error.
    """
    val = _Parser(src, chart).parse()
    if val.vector is None:
        raise ParseError("expression has no directional part", 1, 1)
    if not val.scalar.is_zero():
        raise ParseError("vector field expression has a scalar part", 1, 1)
    coeffs = []
    for name, num in zip(chart.names, val.vector):
        quotient = divide_exact(num, val.den)
        if quotient is None:
            raise ParseError(f"the coefficient of d{name} is not a polynomial", 1, 1)
        coeffs.append(quotient)
    return VectorField(chart, coeffs)


# -- printing -----------------------------------------------------------------


def _print_order_key(mono):
    return (sum(mono), tuple(-e for e in mono))


def _format_monomial(mono, chart: Chart) -> str:
    parts = []
    for name, e in zip(chart.names, mono):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def _poly_term_strings(p: Poly, chart: Chart) -> list[tuple[bool, str]]:
    """Per-term (negative?, body) pairs in canonical print order."""
    out = []
    for mono, c in sorted(p.terms.items(), key=lambda kv: _print_order_key(kv[0])):
        neg = c < 0
        mag = -c if neg else c
        mono_str = _format_monomial(mono, chart)
        if not mono_str:
            body = str(mag)
        elif mag == 1:
            body = mono_str
        else:
            body = f"{mag}*{mono_str}"
        out.append((neg, body))
    return out


def _join_signed(parts: list[tuple[bool, str]]) -> str:
    if not parts:
        return "0"
    neg, body = parts[0]
    # a leading "-x^2" would re-parse as (-x)^2 under the grammar's unary
    # minus, so spell out the unit coefficient in exactly that position
    if neg and body[0].isalpha() and "^" in body.split("*", 1)[0]:
        body = f"1*{body}"
    text = ("-" if neg else "") + body
    for neg, body in parts[1:]:
        text += (" - " if neg else " + ") + body
    return text


def format_poly(p: Poly, chart: Chart) -> str:
    if p.nvars != chart.dim:
        raise ValueError("polynomial does not live on this chart")
    return _join_signed(_poly_term_strings(p, chart))


def _den_needs_parens(den: Poly) -> bool:
    if len(den.terms) != 1:
        return True
    ((mono, c),) = den.terms.items()
    if c != 1 and sum(mono) > 0:
        return True
    return sum(1 for e in mono if e) > 1


def format_scalar(value: Scalar, chart: Chart) -> str:
    if isinstance(value, Poly):
        return format_poly(value, chart)
    if value.is_polynomial():
        return format_poly(value.num, chart)
    num = format_poly(value.num, chart)
    if len(value.num.terms) > 1:
        num = f"({num})"
    den = format_poly(value.den, chart)
    if _den_needs_parens(value.den):
        den = f"({den})"
    return f"{num}/{den}"


def format_vector_field(v: VectorField) -> str:
    chart = v.chart
    parts: list[tuple[bool, str]] = []
    for name, p in zip(chart.names, v.coeffs):
        if p.is_zero():
            continue
        if len(p.terms) == 1:
            for neg, body in _poly_term_strings(p, chart):
                if body == "1":
                    parts.append((neg, f"d{name}"))
                else:
                    parts.append((neg, f"{body}*d{name}"))
            continue
        parts.append((False, f"({format_poly(p, chart)})*d{name}"))
    if not parts:
        return f"0*d{chart.names[0]}"
    return _join_signed(parts)
