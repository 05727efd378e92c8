"""Polynomial charts, vector fields, the ASCII expression grammar and printing.

Grammar accepted by the parser (whitespace insignificant, errors carry
line/column):

    expr     := term { ("+" | "-") term }
    term     := factor { ("*" | "/") factor }
    factor   := "-" factor | power
    power    := atom [ "^" nat ]
    atom     := rational | ident | "d" ident | "(" expr ")"
    rational := nat [ "/" nat ]
    ident    := letter { letter | digit | "_" }

The power binds tighter than a unary minus on its left, as in the usual
notation (and Python's): "-x^2" is -(x^2), and (-x)^2 needs its
parentheses.

"/" between arbitrary factors is a superset of the written grammar so that
printed rational functions re-parse.  The parser carries numerators over
one common denominator and takes no gcd; a vector field's coefficients are
divided by it once, exactly, at the end, through exactalg.divide_exact, so
"(x^2-1)/(x-1)*dx" loads as "(x + 1)*dx" and a coefficient that is not a
polynomial is a parse error.  Numerators and denominator are plain term
dicts with integer coefficients (every literal is a natural number and
every quotient goes to the denominator), multiplied, raised and summed by
exactalg's term-dict kernels (mul_terms, pow_terms, add_scaled); a Poly is
built only for the result.  Errors carry the line and column of the token
they name, worked out from its offset when raised.
An identifier that exactly matches a chart variable wins over the
"d"-prefixed reading.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import chain
from typing import Iterable, Sequence

from .exactalg import (
    Poly,
    RatFunc,
    Scalar,
    add_scaled,
    derive_into,
    divide_exact,
    evaluate,
    mul_terms,
    pow_terms,
    record,
)

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


def _as_poly(value: Scalar | Fraction | int, nvars: int) -> Poly:
    """A coefficient as a Poly: a rational becomes a constant, and a
    RatFunc, which is never a polynomial, is refused.  Nearly every
    coefficient is a Poly already, so that case is tested first."""
    if isinstance(value, Poly):
        if value.nvars != nvars:
            raise ValueError("polynomial dimension mismatch")
        return value
    if isinstance(value, (int, Fraction)):
        return Poly.const(nvars, value)
    raise ValueError("vector field coefficients must be polynomial")


class VectorField:
    """A vector field on a chart, one polynomial coefficient per coordinate
    direction."""

    __slots__ = ("chart", "coeffs")

    def __init__(self, chart: Chart, coeffs: Sequence[Scalar | Fraction | int]):
        n = chart.dim
        if len(coeffs) != n:
            raise ValueError("coefficient count does not match chart dimension")
        object.__setattr__(self, "coeffs", tuple(_as_poly(c, n) for c in coeffs))
        object.__setattr__(self, "chart", chart)

    def __setattr__(self, name, value):
        raise AttributeError("VectorField is immutable")

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def apply(self, f: Scalar) -> Scalar:
        """Directional derivative: sum of coeff_a * df/dx_a.

        Returns a Poly for a polynomial argument, summed term by term into
        one dict by exactalg.derive_into.  On a RatFunc n/d it is the one
        quotient (X(n)*d - n*X(d)) / d^2.
        """
        if isinstance(f, RatFunc):
            n, d = f.num, f.den
            return (self.apply(n) * d - n * self.apply(d)) / (d * d)
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
        """The coefficients' values at a point, which exactalg.evaluate
        checks and holds once for all of them."""
        return evaluate(self.coeffs, point)

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
    one, zero = Poly.one(chart.dim), Poly.zero(chart.dim)
    return VectorField(chart, [one if i == index else zero for i in range(chart.dim)])


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


# -- parsing -----------------------------------------------------------------


class ParseError(ValueError):
    """Syntax or semantic error in expression text, with position info."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


# one token after optional whitespace: a run of decimal digits, an
# identifier, an operator character, or any other character, which the
# lexer refuses.  \s matches what str.isspace accepts, and every \d
# character is a digit int() reads
_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9_]*)|([-+*/^()])|(\S))")

NAT, IDENT, END = "nat", "ident", "end"


def _position(src: str, offset: int) -> tuple[int, int]:
    """Line and column, both from 1, of a character offset."""
    return src.count("\n", 0, offset) + 1, offset - src.rfind("\n", 0, offset)


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    """(kind, text, offset) per token, then an end token, in one pass of
    _TOKEN_RE.  An operator's kind is its own character, and a number is
    a maximal run of decimal digits.  A character that begins no other
    token, such as a superscript digit, raises ParseError at its own
    position; whitespace after the last token matches nothing."""
    tokens = []
    for m in _TOKEN_RE.finditer(src):
        group = m.lastindex
        text, start = m.group(group), m.start(group)
        if group == 4:
            raise ParseError(f"unexpected character {text!r}", *_position(src, start))
        tokens.append(((NAT, IDENT, text)[group - 1], text, start))
    tokens.append((END, "", len(src)))
    return tokens


# Term dicts {monomial: int}: every literal is a natural number and every
# quotient goes to the denominator, so the parser's numerators and
# denominators keep integer coefficients and no zero entries.


class _Value:
    """Intermediate parse value: numerators over one shared denominator,
    each a term dict.  num maps part -1, the scalar part, and each a >= 0,
    the coefficient of d/dx_a, to its numerator, nonzero ones only; vector
    says whether a d-factor occurred, even one that cancelled.  No gcd is
    taken; the callers of the parser divide once, at the end.

    ndeg is the largest total degree of a numerator, -1 with none, and
    ddeg the denominator's.  They are carried along exactly: the degree of
    a product of nonzero polynomials is the sum of theirs, so only a sum,
    where terms may cancel, counts them again."""

    __slots__ = ("num", "vector", "den", "ndeg", "ddeg", "size")

    def __init__(self, num: dict, vector: bool, den: dict, ndeg: int, ddeg: int, size=0):
        self.num = num
        self.vector = vector
        self.den = den
        self.ndeg = ndeg
        self.ddeg = ddeg
        # terms(), once read; an atom passes its 1
        self.size = size

    def times(self, factor: dict, fdeg: int, den: dict, ddeg: int, one: dict) -> "_Value":
        """Every numerator times factor, of degree fdeg, over den, of
        degree ddeg; a factor of 1 leaves them as they are, and a factor of
        0 drops them."""
        if factor == one:
            return _Value(self.num, self.vector, den, self.ndeg, ddeg)
        if not factor or not self.num:
            return _Value({}, self.vector, den, -1, ddeg)
        num = {a: mul_terms(part, factor) for a, part in self.num.items()}
        return _Value(num, self.vector, den, self.ndeg + fdeg, ddeg)

    def degree(self) -> int:
        """Largest total degree of a numerator or the denominator, at least 0."""
        return max(0, self.ndeg, self.ddeg)

    def terms(self) -> int:
        """Largest term count of a numerator or the denominator, at least 1."""
        if not self.size:
            self.size = max(1, len(self.den), *map(len, self.num.values()))
        return self.size


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



class _Parser:
    def __init__(self, src: str, chart: Chart):
        self.src = src
        self.nvars = n = chart.dim
        self.zero = (0,) * n
        self.one = {self.zero: 1}
        self.names = {name: i for i, name in enumerate(chart.names)}
        self.tokens = _tokenize(src)
        self.pos = 0
        self.tok = self.tokens[0]
        # the monomial of each chart variable the text names
        self.units: dict[int, tuple[int, ...]] = {}
        self.depth = 0

    def advance(self) -> tuple[str, str, int]:
        """The current token, moving past it; the end token is never
        moved past."""
        tok = self.tok
        self.pos += 1
        self.tok = self.tokens[self.pos]
        return tok

    def error(self, message: str, tok: tuple[str, str, int]):
        raise ParseError(message, *_position(self.src, tok[2]))

    def product(self, p: dict, q: dict) -> dict:
        """p * q, skipping the product when either is 1."""
        if p == self.one:
            return q
        if q == self.one:
            return p
        return mul_terms(p, q)

    def check_degree(self, degree: int, tok):
        if degree > MAX_DEGREE:
            self.error(f"total degree {degree} exceeds the limit of {MAX_DEGREE}", tok)

    def check_terms(self, terms: int, tok):
        if terms > MAX_TERMS:
            self.error(
                f"expansion to up to {terms} terms exceeds the limit of {MAX_TERMS}", tok
            )

    def parse(self) -> _Value:
        val = self.expr()
        tok = self.tok
        if tok[0] != END:
            self.error(f"unexpected {tok[1]!r}", tok)
        return val

    def expr(self) -> _Value:
        val = self.term()
        while self.tok[0] in ("+", "-"):
            op = self.advance()
            rhs = self.term()
            if rhs.den != val.den:
                lden, rden, lddeg, rddeg = val.den, rhs.den, val.ddeg, rhs.ddeg
                val = val.times(rden, rddeg, self.product(lden, rden), lddeg + rddeg, self.one)
                rhs = rhs.times(lden, lddeg, val.den, val.ddeg, self.one)
            sign = 1 if op[0] == "+" else -1
            num = dict(val.num)
            for a, part in rhs.num.items():
                # a fresh copy: a numerator may be the shared one dict
                total = dict(num.get(a, {}))
                add_scaled(total, sign, part)
                if total:
                    num[a] = total
                else:
                    del num[a]
            ndeg = max(map(sum, chain(*num.values())), default=-1)
            val = _Value(num, val.vector or rhs.vector, val.den, ndeg, val.ddeg)
            # common denominators add degrees and multiply term counts, so
            # sums are checked too; their operands are already bounded
            self.check_degree(val.degree(), op)
            self.check_terms(val.terms(), op)
        return val

    def term(self) -> _Value:
        val = self.factor()
        while self.tok[0] in ("*", "/"):
            op = self.advance()
            rhs = self.factor()
            self.check_degree(val.degree() + rhs.degree(), op)
            self.check_terms(val.terms() * rhs.terms(), op)
            if op[0] == "*":
                if val.vector and rhs.vector:
                    self.error("cannot multiply two vector fields", op)
                if rhs.vector:
                    val, rhs = rhs, val
                # rhs is scalar: its one numerator has degree rhs.ndeg
                factor, fdeg = rhs.num.get(-1, {}), rhs.ndeg
                den, ddeg = self.product(val.den, rhs.den), val.ddeg + rhs.ddeg
            else:
                if rhs.vector:
                    self.error("cannot divide by a vector field", op)
                if -1 not in rhs.num:
                    self.error("division by zero", op)
                factor, fdeg = rhs.den, rhs.ddeg
                den, ddeg = self.product(val.den, rhs.num[-1]), val.ddeg + rhs.ndeg
            val = val.times(factor, fdeg, den, ddeg, self.one)
        return val

    def factor(self) -> _Value:
        """A negated factor, or an atom with an optional power."""
        tok = self.tok
        if tok[0] == "-":
            if self.depth == MAX_NESTING:
                self.error(f"nesting deeper than {MAX_NESTING} levels", tok)
            self.depth += 1
            self.advance()
            val = self.factor()
            self.depth -= 1
            num = {a: {m: -c for m, c in part.items()} for a, part in val.num.items()}
            return _Value(num, val.vector, val.den, val.ndeg, val.ddeg, val.size)
        val = self.atom()
        if self.tok[0] == "^":
            op = self.advance()
            exp_tok = self.tok
            if exp_tok[0] != NAT:
                self.error("exponent must be a natural number", exp_tok)
            self.advance()
            if val.vector:
                self.error("cannot raise a vector field to a power", op)
            digits = exp_tok[1].lstrip("0") or "0"
            if len(digits) > len(str(MAX_DEGREE)) or int(digits) > MAX_DEGREE:
                self.error(f"exponent exceeds the limit of {MAX_DEGREE}", exp_tok)
            exponent = int(digits)
            self.check_degree(val.degree() * exponent, op)
            # (a_1 + ... + a_t)^e has at most comb(t + e - 1, e) terms
            self.check_terms(math.comb(val.terms() + exponent - 1, exponent), op)
            scalar = pow_terms(val.num.get(-1, {}), exponent, self.one)
            den = pow_terms(val.den, exponent, self.one)
            # a zero scalar part to the power 0 is 1, of degree -1 * 0
            ndeg = val.ndeg * exponent if scalar else -1
            val = _Value({-1: scalar} if scalar else {}, False, den, ndeg, val.ddeg * exponent)
        return val

    def atom(self) -> _Value:
        tok = self.tok
        kind = tok[0]
        if kind == "(":
            if self.depth == MAX_NESTING:
                self.error(f"nesting deeper than {MAX_NESTING} levels", tok)
            self.depth += 1
            self.advance()
            val = self.expr()
            close = self.tok
            if close[0] != ")":
                self.error("expected ')'", close)
            self.advance()
            self.depth -= 1
            return val
        if kind == NAT:
            self.advance()
            try:
                value = int(tok[1])
            except ValueError:  # past the interpreter's digit limit
                self.error("number has too many digits", tok)
            if not value:
                return _Value({}, False, self.one, -1, 0, 1)
            return _Value({-1: {self.zero: value}}, False, self.one, 0, 0, 1)
        if kind == IDENT:
            self.advance()
            name = tok[1]
            index = self.names.get(name)
            if index is not None:
                mono = self.units.get(index)
                if mono is None:
                    mono = self.units[index] = self.zero[:index] + (1,) + self.zero[index + 1 :]
                return _Value({-1: {mono: 1}}, False, self.one, 1, 0, 1)
            index = self.names.get(name[1:]) if name.startswith("d") else None
            if index is not None:
                return _Value({index: self.one}, True, self.one, 0, 0, 1)
            self.error(f"unknown identifier {name!r}", tok)
        self.error(f"unexpected {tok[1]!r}" if tok[1] else "unexpected end of input", tok)


def _parse_scalar_value(src: str, chart: Chart) -> _Value:
    val = _Parser(src, chart).parse()
    if val.vector:
        raise ParseError("expression contains vector field factors", 1, 1)
    return val


def parse_scalar(src: str, chart: Chart) -> Scalar:
    """Parse a scalar (function) expression: a Poly when it is a
    polynomial, otherwise a RatFunc."""
    val = _parse_scalar_value(src, chart)
    return Poly.from_sum(chart.dim, val.num.get(-1, {})) / Poly.from_sum(chart.dim, val.den)


def parse_polynomial(src: str, chart: Chart) -> Poly:
    """Parse a polynomial expression; rejects genuine denominators."""
    val = _parse_scalar_value(src, chart)
    n = chart.dim
    quotient = divide_exact(Poly.from_sum(n, val.num.get(-1, {})), Poly.from_sum(n, val.den))
    if quotient is None:
        raise ParseError("expression is not polynomial", 1, 1)
    return quotient


def parse_vector_field(src: str, chart: Chart) -> VectorField:
    """Parse a vector field: a sum of terms, each with exactly one d-factor.

    Each coefficient is divided by the common denominator once, exactly,
    by exactalg.divide_exact; a coefficient that is not a polynomial is a
    parse error.
    """
    val = _Parser(src, chart).parse()
    if not val.vector:
        raise ParseError("expression has no directional part", 1, 1)
    if -1 in val.num:
        raise ParseError("vector field expression has a scalar part", 1, 1)
    n = chart.dim
    den = Poly.from_sum(n, val.den)
    # most coefficients of a field are 0, and one Poly serves them all
    zero = Poly.zero(n)
    coeffs = []
    for a, name in enumerate(chart.names):
        part = val.num.get(a)
        quotient = zero if part is None else divide_exact(Poly.from_sum(n, part), den)
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
