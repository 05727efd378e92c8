"""Exact arithmetic foundation: sparse rational-coefficient polynomials,
rational functions, and deterministic exact linear algebra.

Representation notes:
  * Scalars are stdlib ``fractions.Fraction`` (lowest terms, positive
    denominator by construction).
  * A polynomial is a mapping {exponent tuple -> Fraction} with no zero
    coefficients stored; two polynomials are equal iff the mappings are
    equal.  The public ``Poly(nvars, terms)`` checks and canonicalizes its
    input.  ``Poly``'s own arithmetic (``+``, unary ``-``, scalar and
    polynomial ``*``, ``diff``) builds its results through the private
    ``Poly._canonical``, which skips the checks: every key there is already
    a tuple of ``nvars`` non-negative ints and every value a nonzero
    ``Fraction``, by construction.
  * The fixed monomial order is graded lexicographic: total degree first,
    then the exponent tuple compared left to right.
  * A rational function is normalized so its denominator has integer
    content 1 and positive leading coefficient.  The numerator/denominator
    gcd is cancelled only while both total degrees are at most
    ``GCD_DEGREE_CAP``; larger pairs stay unreduced (values unaffected,
    only size).
  * All exact linear algebra goes through one kernel, ``RowEchelon``:
    sparse rows, pivot on the first column holding a nonzero entry.  Its
    outputs are fixed because the reduced row echelon form of a matrix is
    unique: ranks, solutions (free variables 0) and nullspace bases do not
    depend on how the elimination is ordered.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter
from typing import Iterable, Mapping, Sequence, Union

Monomial = tuple[int, ...]
ScalarLike = Union[Fraction, int]

GCD_DEGREE_CAP = 8


def record(cls):
    """Make cls an immutable value record, as a frozen standard-library
    data class would be.

    The fields are the class's own annotations, in order; a class-level
    value is that field's default.  A field whose name starts with ``_`` is
    internal: it is not an argument, and ``==``, ``hash`` and ``repr`` skip it.
    The generated ``__init__`` takes the fields by position or keyword and
    then calls ``__post_init__``, if the class has one; a class's own
    ``__init__`` is kept.  ``==`` holds only between instances of the same
    class, ``hash`` is the hash of the tuple of fields, and assignment and
    deletion raise AttributeError.  Instances keep a ``__dict__``.

    It is built from closures, with no generated source to compile, so
    the package need not import the data-class module, which loads
    ``inspect``: those two were most of the command line's start-up.
    """
    name = cls.__name__
    fields = tuple(f for f in cls.__dict__.get("__annotations__", {}) if not f.startswith("_"))
    defaults = {f: cls.__dict__[f] for f in fields if f in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)
    if len(fields) == 1:
        get = attrgetter(fields[0])

        def key(self):
            return (get(self),)

    else:
        key = attrgetter(*fields)

    def bind(args, kwargs) -> dict:
        values = dict(zip(fields, args))
        if len(args) > len(fields) or any(f in values or f not in fields for f in kwargs):
            raise TypeError(f"{name}() takes the arguments {fields}, each once")
        values = {**defaults, **values, **kwargs}
        if len(values) < len(fields):
            missing = [f for f in fields if f not in values]
            raise TypeError(f"{name}() is missing the arguments {missing}")
        return values

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(fields):
            self.__dict__.update(bind(args, kwargs))
        else:
            self.__dict__.update(zip(fields, args))
        if post_init is not None:
            post_init(self)

    def __repr__(self):
        parts = ", ".join(f"{f}={getattr(self, f)!r}" for f in fields)
        return f"{self.__class__.__qualname__}({parts})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __setattr__(self, attr, value):
        raise AttributeError(f"{name} is immutable")

    def __delattr__(self, attr):
        raise AttributeError(f"{name} is immutable")

    if "__init__" not in cls.__dict__:
        cls.__init__ = __init__
    cls.__repr__ = __repr__
    cls.__eq__ = __eq__
    cls.__hash__ = __hash__
    cls.__setattr__ = __setattr__
    cls.__delattr__ = __delattr__
    return cls


def grlex_key(mono: Monomial) -> tuple[int, Monomial]:
    """Sort key realizing graded lexicographic order (ascending)."""
    return (sum(mono), mono)


def weight_of(mono: Monomial, weights: Sequence[int]) -> int:
    """Weighted degree sum_p s_p * w_p of an exponent tuple."""
    return sum(e * w for e, w in zip(mono, weights))


def weighted_multiindices(weights: Sequence[int], bound: int) -> list[Monomial]:
    """Exponent tuples s with weight_of(s, weights) <= bound, for positive
    weights, ordered by weighted degree, then grlex; none for bound < 0."""
    if bound < 0:
        return []
    out: list[Monomial] = []

    def rec(pos: int, remaining: int, cur: list[int]):
        if pos == len(weights):
            out.append(tuple(cur))
            return
        w = weights[pos]
        for e in range(remaining // w + 1):
            cur.append(e)
            rec(pos + 1, remaining - e * w, cur)
            cur.pop()

    rec(0, bound, [])
    out.sort(key=lambda s: (weight_of(s, weights), grlex_key(s)))
    return out


def _as_fraction(value: ScalarLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected rational scalar, got {type(value).__name__}")


class Poly:
    """Sparse multivariate polynomial over the rationals.

    Immutable by convention: the term mapping is canonicalized at
    construction time and never mutated afterwards.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Monomial, ScalarLike] | None = None):
        if nvars < 0:
            raise ValueError("nvars must be non-negative")
        canon: dict[Monomial, Fraction] = {}
        for mono, coeff in (terms or {}).items():
            mono = tuple(mono)
            if len(mono) != nvars:
                raise ValueError(f"exponent tuple {mono} does not match nvars={nvars}")
            if any(e < 0 for e in mono):
                raise ValueError(f"negative exponent in {mono}")
            c = _as_fraction(coeff)
            if c:
                canon[mono] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", canon)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def _canonical(cls, nvars: int, terms: dict[Monomial, Fraction]) -> "Poly":
        """Wrap a dict that is canonical already: tuple keys of length
        nvars with non-negative entries, nonzero Fraction values.  Nothing
        is checked; only Poly's own arithmetic calls this."""
        p = object.__new__(cls)
        object.__setattr__(p, "nvars", nvars)
        object.__setattr__(p, "terms", terms)
        return p

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "Poly":
        return Poly(nvars)

    @staticmethod
    def const(nvars: int, value: ScalarLike) -> "Poly":
        return Poly(nvars, {(0,) * nvars: value})

    @staticmethod
    def one(nvars: int) -> "Poly":
        return Poly.const(nvars, 1)

    @staticmethod
    def variable(nvars: int, index: int) -> "Poly":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for nvars={nvars}")
        mono = tuple(1 if i == index else 0 for i in range(nvars))
        return Poly(nvars, {mono: 1})

    @staticmethod
    def term(nvars: int, mono: Monomial, coeff: ScalarLike) -> "Poly":
        return Poly(nvars, {tuple(mono): coeff})

    # -- predicates and views ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        if len(self.terms) != 1:
            return False
        ((mono, c),) = self.terms.items()
        return c == 1 and not any(mono)

    def total_degree(self) -> int:
        """Maximum total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def degree_in(self, index: int) -> int:
        """Maximum exponent of one variable; 0 when the variable is absent."""
        if not self.terms:
            return 0
        return max(m[index] for m in self.terms)

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=grlex_key)

    def leading_coefficient(self) -> Fraction:
        return self.terms[self.leading_monomial()]

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in ascending graded lexicographic order."""
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]))

    def variables_used(self) -> tuple[int, ...]:
        used = set()
        for m in self.terms:
            for i, e in enumerate(m):
                if e:
                    used.add(i)
        return tuple(sorted(used))

    # -- ring operations -----------------------------------------------------

    def _coerce(self, other) -> "Poly | None":
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise ValueError("polynomial dimension mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(self.nvars, other)
        return None

    def __add__(self, other) -> "Poly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.terms:
            return self
        if not self.terms:
            return o
        out = dict(self.terms)
        for mono, c in o.terms.items():
            s = out.get(mono)
            if s is None:
                out[mono] = c
            else:
                s += c
                if s:
                    out[mono] = s
                else:
                    del out[mono]
        return Poly._canonical(self.nvars, out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._canonical(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "Poly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if not c:
                return Poly.zero(self.nvars)
            return Poly._canonical(self.nvars, {m: k * c for m, k in self.terms.items()})
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in o.terms.items():
                mono = tuple(a + b for a, b in zip(m1, m2))
                s = out.get(mono)
                out[mono] = c1 * c2 if s is None else s + c1 * c2
        return Poly._canonical(self.nvars, {m: c for m, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial exponent must be a non-negative integer")
        result = Poly.one(self.nvars)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.nvars == other.nvars and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == Poly.const(self.nvars, other).terms
        return NotImplemented

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- calculus and evaluation ---------------------------------------------

    def diff(self, index: int) -> "Poly":
        """Partial derivative with respect to one variable."""
        if not 0 <= index < self.nvars:
            raise ValueError(f"variable index {index} out of range")
        # lowering one exponent is injective on the monomials that carry it
        out: dict[Monomial, Fraction] = {}
        for mono, c in self.terms.items():
            e = mono[index]
            if e:
                out[mono[:index] + (e - 1,) + mono[index + 1 :]] = c * e
        return Poly._canonical(self.nvars, out)

    def subst(self, images: Sequence["Poly | RatFunc"]):
        """Substitute one expression per variable.

        Returns a Poly when every image is a Poly, otherwise a RatFunc.
        All images must share a common variable count, which becomes the
        variable count of the result.
        """
        if len(images) != self.nvars:
            raise ValueError("substitution needs one image per variable")
        if not images:
            if self.nvars == 0:
                raise ValueError("cannot infer target dimension for 0-variable substitution")
        target = images[0].nvars if images else 0
        for img in images:
            if img.nvars != target:
                raise ValueError("substitution images live in different variable counts")
        all_poly = all(isinstance(img, Poly) for img in images)
        if all_poly:
            acc_p = Poly.zero(target)
            for mono, c in self.sorted_terms():
                term = Poly.const(target, c)
                for i, e in enumerate(mono):
                    if e:
                        term = term * images[i] ** e
                acc_p = acc_p + term
            return acc_p
        acc = RatFunc(Poly.zero(target))
        for mono, c in self.sorted_terms():
            term = RatFunc(Poly.const(target, c))
            for i, e in enumerate(mono):
                if e:
                    img = images[i]
                    rf = img if isinstance(img, RatFunc) else RatFunc(img)
                    term = term * rf ** e
            acc = acc + term
        return acc

    def eval(self, point: Sequence[ScalarLike]) -> Fraction:
        if len(point) != self.nvars:
            raise ValueError("evaluation point has wrong dimension")
        pt = [_as_fraction(v) for v in point]
        total = Fraction(0)
        for mono, c in self.terms.items():
            val = c
            for i, e in enumerate(mono):
                if e:
                    val *= pt[i] ** e
            total += val
        return total

    # -- content helpers ------------------------------------------------------

    def content(self) -> Fraction:
        """Positive rational c such that self/c has coprime integer coefficients.

        Returns 0 for the zero polynomial.
        """
        if not self.terms:
            return Fraction(0)
        nums = [c.numerator for c in self.terms.values()]
        dens = [c.denominator for c in self.terms.values()]
        g = 0
        for n in nums:
            g = gcd(g, abs(n))
        l = 1
        for d in dens:
            l = lcm(l, d)
        return Fraction(g, l)

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
        bits = []
        for mono, c in self.sorted_terms():
            factors = [str(c)]
            for i, e in enumerate(mono):
                if e:
                    factors.append(f"v{i}" + (f"^{e}" if e > 1 else ""))
            bits.append("*".join(factors))
        return "Poly(" + " + ".join(bits) + ")"


def divide_exact(f: Poly, g: Poly) -> Poly | None:
    """Exact polynomial quotient f/g, or None when g does not divide f."""
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if f.is_zero():
        return Poly.zero(f.nvars)
    if f.nvars != g.nvars:
        raise ValueError("polynomial dimension mismatch")
    if g.is_one():
        return f
    lm_g = g.leading_monomial()
    lc_g = g.terms[lm_g]
    if len(g.terms) == 1:
        # a monomial divides term by term
        shifted = {
            tuple(a - b for a, b in zip(mono, lm_g)): c / lc_g for mono, c in f.terms.items()
        }
        if any(e < 0 for mono in shifted for e in mono):
            return None
        return Poly(f.nvars, shifted)
    quotient: dict[Monomial, Fraction] = {}
    rem = f
    while not rem.is_zero():
        lm = rem.leading_monomial()
        diff = tuple(a - b for a, b in zip(lm, lm_g))
        if any(d < 0 for d in diff):
            return None
        c = rem.terms[lm] / lc_g
        quotient[diff] = c
        rem = rem - Poly.term(f.nvars, diff, c) * g
    return Poly(f.nvars, quotient)


def _coeffs_in(p: Poly, var: int) -> dict[int, Poly]:
    """View p as univariate in one variable with polynomial coefficients."""
    out: dict[int, dict[Monomial, Fraction]] = {}
    for mono, c in p.terms.items():
        k = mono[var]
        stripped = tuple(0 if i == var else e for i, e in enumerate(mono))
        out.setdefault(k, {})[stripped] = c
    return {k: Poly(p.nvars, terms) for k, terms in out.items()}


def _content_in(p: Poly, var: int) -> Poly:
    """Gcd of the coefficients of p viewed as univariate in var."""
    coeffs = _coeffs_in(p, var)
    acc = Poly.zero(p.nvars)
    for k in sorted(coeffs):
        acc = poly_gcd(acc, coeffs[k])
        if acc.is_one():
            break
    return acc


def _primitive_in(p: Poly, var: int) -> Poly:
    """p over its content in var, scaled to integer-primitive form so that
    remainder sequences do not grow their rational content."""
    cont = _content_in(p, var)
    if cont.is_zero():
        return p
    q = divide_exact(p, cont)
    assert q is not None
    return _normalize_primitive(q)


def _lead_in(p: Poly, var: int) -> Poly:
    """The coefficient of the highest power of var in p."""
    d = p.degree_in(var)
    return Poly(
        p.nvars,
        {mono[:var] + (0,) + mono[var + 1 :]: c for mono, c in p.terms.items() if mono[var] == d},
    )


def _pseudo_rem(a: Poly, b: Poly, var: int) -> Poly:
    """lc(b)^(deg a - deg b + 1) * a mod b in one variable, deg a >= deg b:
    a step whose leading terms cancel past one degree still counts."""
    db = b.degree_in(var)
    lb = _lead_in(b, var)
    steps = a.degree_in(var) - db + 1
    while not a.is_zero() and a.degree_in(var) >= db:
        da = a.degree_in(var)
        shift = Poly.term(a.nvars, tuple(da - db if i == var else 0 for i in range(a.nvars)), 1)
        a = lb * a - _lead_in(a, var) * shift * b
        steps -= 1
    return a * lb**steps if steps else a


def _normalize_primitive(p: Poly) -> Poly:
    """Scale to coprime integer coefficients with positive leading coefficient."""
    if p.is_zero():
        return p
    c = p.content()
    if p.leading_coefficient() < 0:
        c = -c
    q = p * (1 / c)
    return q


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Gcd over Q[x_1..x_n], returned integer-primitive with positive lead.

    Constants count as units: the gcd of two nonzero constants is 1.
    """
    if f.nvars != g.nvars:
        raise ValueError("polynomial dimension mismatch")
    if f.is_zero():
        return _normalize_primitive(g)
    if g.is_zero():
        return _normalize_primitive(f)
    used = sorted(set(f.variables_used()) | set(g.variables_used()))
    if not used:
        return Poly.one(f.nvars)
    # the result is unique, so take the variable of least degree: a variable
    # only f or only g has reduces the gcd to contents at once
    var = min(used, key=lambda v: sorted((f.degree_in(v), g.degree_in(v))))
    cont_f = _content_in(f, var)
    cont_g = _content_in(g, var)
    a = _primitive_in(f, var)
    b = _primitive_in(g, var)
    if a.degree_in(var) < b.degree_in(var):
        a, b = b, a
    # subresultant remainder sequence (Collins 1967; Cohen, Alg. 3.3.1):
    # each pseudo-remainder divides exactly by lead * h^delta, which keeps
    # the coefficients small without a content gcd per step
    lead = h = Poly.one(f.nvars)
    while b.degree_in(var):
        delta = a.degree_in(var) - b.degree_in(var)
        r = _pseudo_rem(a, b, var)
        a, b = b, divide_exact(r, lead * h**delta)
        assert b is not None, "subresultant division is not exact"
        lead = _lead_in(a, var)
        if delta:
            h = divide_exact(lead**delta, h ** (delta - 1))
            assert h is not None, "subresultant division is not exact"
    # a last remainder free of var (b nonzero) leaves the gcd no part in var
    result = poly_gcd(cont_f, cont_g)
    if b.is_zero():
        result = result * _primitive_in(a, var)
    return _normalize_primitive(result)


def _unit_poly(nvars: int) -> Poly:
    """The constant 1 in nvars variables, for an nvars taken from a Poly."""
    return Poly._canonical(nvars, {(0,) * nvars: Fraction(1)})


class RatFunc:
    """Quotient of two polynomials in normalized form.

    The denominator always has integer content 1 and positive leading
    coefficient; the zero function is stored as 0/1.  Equality is semantic
    (cross multiplication), so deferred gcd reduction never changes it.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        if den is None:
            den = _unit_poly(num.nvars)
        if num.nvars != den.nvars:
            raise ValueError("numerator/denominator dimension mismatch")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            den = _unit_poly(num.nvars)
        elif not den.is_one():
            if (
                num.total_degree() <= GCD_DEGREE_CAP
                and den.total_degree() <= GCD_DEGREE_CAP
            ):
                g = poly_gcd(num, den)
                if not g.is_one():
                    num_q = divide_exact(num, g)
                    den_q = divide_exact(den, g)
                    assert num_q is not None and den_q is not None
                    num, den = num_q, den_q
            c = den.content()
            if den.leading_coefficient() < 0:
                c = -c
            if c != 1:
                inv = 1 / c
                num = num * inv
                den = den * inv
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    @staticmethod
    def const(nvars: int, value: ScalarLike) -> "RatFunc":
        return RatFunc(Poly.const(nvars, value))

    @property
    def nvars(self) -> int:
        return self.num.nvars

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.is_one()

    def _coerce(self, other) -> "RatFunc | None":
        if isinstance(other, RatFunc):
            if other.nvars != self.nvars:
                raise ValueError("rational function dimension mismatch")
            return other
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise ValueError("rational function dimension mismatch")
            return RatFunc(other)
        if isinstance(other, (int, Fraction)):
            return RatFunc.const(self.nvars, other)
        return None

    def __add__(self, other) -> "RatFunc":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den.is_one() and o.den.is_one():
            return RatFunc(self.num + o.num)
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __sub__(self, other) -> "RatFunc":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "RatFunc":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> "RatFunc":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den.is_one() and o.den.is_one():
            return RatFunc(self.num * o.num)
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFunc":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by the zero function")
        return RatFunc(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other) -> "RatFunc":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, exponent: int) -> "RatFunc":
        if not isinstance(exponent, int):
            raise ValueError("exponent must be an integer")
        if exponent < 0:
            if self.is_zero():
                raise ZeroDivisionError("negative power of the zero function")
            return RatFunc(self.den ** (-exponent), self.num ** (-exponent))
        return RatFunc(self.num**exponent, self.den**exponent)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num * o.den == o.num * self.den

    def __hash__(self):
        # == cross-multiplies and past GCD_DEGREE_CAP the stored form is not
        # reduced, so hash the lowest terms, which are unique and normalized
        num, den = self.num, self.den
        if not den.is_one():
            g = poly_gcd(num, den)
            num, den = divide_exact(num, g), divide_exact(den, g)
        if den.is_one():
            return hash(num)
        return hash((num, den))

    def __bool__(self):
        return not self.num.is_zero()

    def diff(self, index: int) -> "RatFunc":
        """Partial derivative (quotient rule when the denominator is nontrivial)."""
        if self.den.is_one():
            return RatFunc(self.num.diff(index))
        return RatFunc(
            self.num.diff(index) * self.den - self.num * self.den.diff(index),
            self.den * self.den,
        )

    def subst(self, images: Sequence["Poly | RatFunc"]) -> "RatFunc":
        num = self.num.subst(images)
        den = self.den.subst(images)
        num_rf = num if isinstance(num, RatFunc) else RatFunc(num)
        den_rf = den if isinstance(den, RatFunc) else RatFunc(den)
        return num_rf / den_rf

    def eval(self, point: Sequence[ScalarLike]) -> Fraction:
        d = self.den.eval(point)
        if not d:
            raise ZeroDivisionError("denominator vanishes at evaluation point")
        return self.num.eval(point) / d

    def __repr__(self):
        if self.den.is_one():
            return f"RatFunc({self.num!r})"
        return f"RatFunc({self.num!r} / {self.den!r})"


def as_ratfunc(value: "Poly | RatFunc | ScalarLike", nvars: int) -> RatFunc:
    """Coerce a polynomial or scalar into a RatFunc of given dimension."""
    if isinstance(value, RatFunc):
        if value.nvars != nvars:
            raise ValueError("rational function dimension mismatch")
        return value
    if isinstance(value, Poly):
        if value.nvars != nvars:
            raise ValueError("polynomial dimension mismatch")
        return RatFunc(value)
    return RatFunc.const(nvars, value)


@record
class LinearSolution:
    """A particular solution together with a basis of the homogeneous space."""

    particular: tuple[Fraction, ...]
    nullspace: tuple[tuple[Fraction, ...], ...]


class RowEchelon:
    """Reduced row echelon form over an exact field, built one row at a time.

    Rows are sparse ``{column: entry}`` dicts; any other row is read as a
    dense sequence and converted, and int entries become Fractions.
    Entries need +, -, *, / and truthiness for the zero test, so Fraction
    and RatFunc both work.
    An inserted row is cleared of the existing pivot columns, takes its
    first nonzero column as pivot, is scaled to a leading 1 and cleared
    from the other rows, so the held rows are in reduced form after every
    insertion.  RREF is unique, so the rank, the reduced rows and every
    solution read off them do not depend on the strategy or the row order.
    pivot_rows maps each pivot column to its row, which has a 1 there; it
    is a read-only view.  A column index, _holders, maps each non-pivot
    column to the pivots of the held rows with an entry there, so an
    insertion touches only the rows holding its pivot column.
    """

    def __init__(self, rows: Iterable = ()):
        self.pivot_rows: dict[int, dict] = {}
        self._holders: dict[int, set] = {}
        for row in rows:
            self.add(row)

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def reduce(self, row) -> dict:
        """The row's normal form: the row minus the combination of held rows
        that clears every pivot column.  Empty exactly when the row is in
        the span.  The pivot columns are fixed by the span, so the normal
        form is unique and is linear in the row."""
        items = row.items() if isinstance(row, dict) else enumerate(row)
        out = {c: Fraction(x) if isinstance(x, int) else x for c, x in items if x}
        for p in [c for c in out if c in self.pivot_rows]:
            # pivot rows vanish on the other pivot columns: no new ones appear
            _subtract_multiple(out, out[p], self.pivot_rows[p])
        return out

    def contains(self, row) -> bool:
        return not self.reduce(row)

    def add(self, row) -> bool:
        """Insert a row; returns whether it extended the span."""
        rest = self.reduce(row)
        if not rest:
            return False
        pivot = min(rest)
        lead = rest[pivot]
        if lead != 1:
            rest = {c: x / lead for c, x in rest.items()}
        tail = [(c, x) for c, x in rest.items() if c != pivot]
        holders = self._holders
        # the pivot column leaves the index; rest vanishes on the other
        # pivot columns, so fill-in lands on non-pivot columns only
        for p in holders.pop(pivot, ()):
            other = self.pivot_rows[p]
            factor = other.pop(pivot)
            for c, x in tail:
                if c in other:
                    y = other[c] - factor * x
                    if y:
                        other[c] = y
                    else:
                        del other[c]
                        column = holders[c]
                        column.discard(p)
                        if not column:
                            del holders[c]
                else:
                    other[c] = -(factor * x)
                    holders.setdefault(c, set()).add(p)
        for c, _ in tail:
            holders.setdefault(c, set()).add(pivot)
        self.pivot_rows[pivot] = rest
        return True

    def reduced_rows(self, width: int) -> tuple[tuple[Fraction, ...], ...]:
        """The reduced rows in pivot order, as dense rational vectors."""
        return tuple(
            tuple(row.get(c, Fraction(0)) for c in range(width))
            for _, row in sorted(self.pivot_rows.items())
        )

    def particular(self, ncols: int, rhs: int) -> tuple | None:
        """A particular solution of A x = b for held rows [A | B]: A is
        columns < ncols, and b is column rhs >= ncols of B.

        The free variables are set to 0, so x is b's entries on the rows
        with their pivot in A.  None when b is not in the span of A's
        columns, that is when a row with its pivot in B has an entry in
        column rhs (with one right-hand side, a row 0 = 1).  The reduced
        form of [A | B] restricted to A and b is that of [A | b], so the
        other columns of B do not change the result.  The rows holding
        column rhs are read from the column index.
        """
        if rhs in self.pivot_rows:
            return None
        x = [Fraction(0)] * ncols
        for p in self._holders.get(rhs, ()):
            if p >= ncols:
                return None
            x[p] = self.pivot_rows[p][rhs]
        return tuple(x)

    def solve(self, ncols: int) -> LinearSolution | None:
        """Solve A x = b, b in column ncols, as in particular(), with a
        basis of the nullspace of A: vector number k has a 1 at the k-th
        free column of A.  Rows with their pivot at or past ncols have no
        entries in A, and the basis skips columns >= ncols, so it is that
        of A alone."""
        particular = self.particular(ncols, ncols)
        if particular is None:
            return None
        zero = Fraction(0)
        basis = {c: [zero] * ncols for c in range(ncols) if c not in self.pivot_rows}
        for c, vec in basis.items():
            vec[c] = Fraction(1)
        for p, row in self.pivot_rows.items():
            for c, x in row.items():
                if c < ncols and c != p:
                    basis[c][p] = -x
        return LinearSolution(
            particular=particular,
            nullspace=tuple(tuple(vec) for vec in basis.values()),
        )


def _subtract_multiple(target: dict, factor, row: Mapping) -> None:
    """target -= factor * row in place, dropping entries that cancel."""
    for c, x in row.items():
        if c in target:
            y = target[c] - factor * x
            if y:
                target[c] = y
            else:
                del target[c]
        else:
            target[c] = -(factor * x)


def matrix_rank(rows: Sequence[Sequence]) -> int:
    """Rank of a matrix over an exact field (Fraction or RatFunc entries)."""
    return RowEchelon(rows).rank


def matrix_inverse(rows: Sequence[Sequence]) -> list[list] | None:
    """Inverse of a square matrix over an exact field, or None when singular.

    [A | I] reduces to [I | A^-1] exactly when A is invertible.
    """
    k = len(rows)
    if not k:
        return []
    one = rows[0][0] ** 0
    span = RowEchelon({**dict(enumerate(row)), k + i: one} for i, row in enumerate(rows))
    if any(p >= k for p in span.pivot_rows):
        return None
    zero = one * 0
    return [[span.pivot_rows[i].get(k + j, zero) for j in range(k)] for i in range(k)]


def linear_solve_exact(
    rows: Sequence[Sequence[ScalarLike]], rhs: Sequence[ScalarLike]
) -> LinearSolution | None:
    """Solve A x = b exactly over the rationals.

    Returns a particular solution (free variables set to 0) plus a basis
    of the nullspace, or None when the system is infeasible.  Output is
    deterministic for a given input.
    """
    m = len(rows)
    if len(rhs) != m:
        raise ValueError("right-hand side length does not match row count")
    n = len(rows[0]) if m else 0
    augmented = RowEchelon()
    for row, b in zip(rows, rhs):
        if len(row) != n:
            raise ValueError("ragged matrix")
        entries = {c: x for c, x in enumerate(map(_as_fraction, row)) if x}
        b = _as_fraction(b)
        if b:
            entries[n] = b
        augmented.add(entries)
    return augmented.solve(n)
