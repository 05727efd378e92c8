"""Exact arithmetic foundation: sparse rational-coefficient polynomials,
rational functions, and deterministic exact linear algebra.

Representation notes:
  * Scalars are exact rationals in one held form, which ``Poly`` and
    ``RowEchelon`` share: an integral value is a plain ``int`` and any
    other a stdlib ``fractions.Fraction`` with denominator > 1 (``held``
    gives it).  Nearly every coefficient of these problems is an integer,
    and ``int`` arithmetic is far cheaper than ``Fraction`` arithmetic.
    Since ``3 == Fraction(3)`` and the two hash and print alike, the
    form changes no equality, hash or printed text.  Every true division
    divides by a ``Fraction``, so two ints never give a float.  The
    read-outs stay ``Fraction``: ``evaluate`` (so ``Poly.eval`` and
    ``value_at``) and the ``RowEchelon`` read-outs ``particular``,
    ``nullspace``, ``reduced_rows`` and ``matrix_inverse``.
  * A polynomial is a mapping {exponent tuple -> held rational} with no
    zero coefficients stored; two polynomials are equal iff the mappings
    are equal.  The public ``Poly(nvars, terms)`` checks and canonicalizes
    its input.  ``Poly``'s own arithmetic (``+``, unary ``-``, scalar and
    polynomial ``*``), ``substitute``, ``restrict_terms`` and
    the constructors ``zero``, ``const``, ``one`` and ``variable`` build
    their results through the private ``Poly._canonical``, which skips
    the checks: every key there is already a tuple of ``nvars``
    non-negative ints and every value a nonzero held rational, by
    construction.  It sets the two slots
    through their member descriptors, which skip ``__setattr__``; the
    problems' kernel calls are small (3 to 5 variables, 1 to 3 terms),
    so a wrap's fixed cost is a large part of each.
  * Each job on a point or a fiber has one kernel: ``evaluate`` is every
    point evaluation (``Poly.eval``, ``RatFunc.eval``,
    ``VectorField.value_at``), which checks and holds the point once for
    all its polynomials and skips a term with a positive exponent on a
    zero coordinate, and ``restrict_terms`` every restriction to N, which
    keeps the terms with no fiber exponent as they are held.  A point that
    is kept, a ``Submanifold``'s base point or ``osculating_at``'s, goes
    through ``rational_point``: the same check, read out as Fractions.
  * Each operation on term dicts {monomial: coefficient} has one
    kernel, which ``Poly`` and the parser in ``vfield`` both call:
    ``mul_terms`` is every polynomial product, ``pow_terms`` every power
    (square and multiply through ``mul_terms``), ``add_scaled`` every
    sum of the parser (below), and ``divide_exact`` every exact
    division, by a constant too.  Every derivation goes through
    ``derive_into``: it adds factor * sum_a c_a * df/dx_a term by term
    into one dict.  ``Poly.from_sum`` drops the zeros of such a dict,
    holds its integral values as ints and wraps it.
  * ``substitute`` is every substitution, as ``evaluate`` is every point
    evaluation: the weighted chart, the osculating stage's base-point
    shift and its freeze of the weight-0 coordinates all go through it.
    It checks the images and makes each power of an image's numerator or
    denominator once for a whole batch of polynomials, and ``Poly.subst``
    and ``RatFunc.subst`` are its one-function case.  Image i is
    num_i / den_i (den_i = 1 for a ``Poly``); each polynomial's terms'
    images are summed into one dict over the common denominator
    prod den_i^top_i, through ``pow_terms``, ``mul_terms`` and
    ``add_scaled``, and each result goes through at most one
    ``quotient`` (none when every image is a ``Poly``).
  * The fixed monomial order is graded lexicographic: total degree first,
    then the exponent tuple compared left to right.
  * An exact function (a ``Scalar``) is a ``Poly`` exactly when it is a
    polynomial, and a ``RatFunc`` otherwise.  One function, ``quotient``,
    decides it: it reduces num/den to lowest terms and returns a Poly when
    the reduced denominator is 1.  RatFunc arithmetic and ``subst`` and
    Poly division return through it, so no other code tests for a unit
    denominator.  A RatFunc's denominator has integer content 1 and a
    positive leading coefficient; that form is unique, so equality and
    hashing compare it directly.  A constant Poly equals, and hashes as,
    its rational value.
  * All exact linear algebra goes through one kernel, ``RowEchelon``:
    sparse rows, pivot on the first column holding a nonzero entry.  Its
    outputs are fixed because the reduced row echelon form of a matrix is
    unique: ranks, solutions (free variables 0) and nullspace bases do not
    depend on how the elimination is ordered.  Its rational entries are
    held in the form above on input (an elimination step may leave an
    integral ``Fraction`` as it is); the values it reads out are
    ``Fraction`` again.  Every read-out of a ``RowEchelon`` is a
    sparse ``{column: value}`` map with no zero entries, or a tuple of
    them; only ``matrix_inverse`` returns a matrix.
  * Every sparse accumulate, target += factor * row over such maps or
    over term dicts, goes through ``add_scaled``, which stores no zero
    result: ``RowEchelon`` reduces a row with it, the osculating algebra
    sums its brackets and classes with it, and the parser adds and
    subtracts its numerators with it.  ``Poly``'s own ``+`` is the one
    sum that also holds its integral results as ints.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, attrgetter
from typing import Iterable, Mapping, Sequence, Union

Monomial = tuple[int, ...]
ScalarLike = Union[Fraction, int]
Scalar = Union["Poly", "RatFunc"]


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
    weights, ordered by weighted degree, then grlex; none for bound < 0.

    The recursion carries each prefix's weight and total degree and files
    every tuple under its (weight, degree); it makes the tuples in
    lexicographic order, so each bucket is in grlex order already and the
    buckets, read in key order, are the whole list, with no sort of the
    tuples."""
    if bound < 0:
        return []
    if not weights:
        return [()]
    buckets: dict[tuple[int, int], list[Monomial]] = {}
    last = len(weights) - 1

    def rec(pos: int, prefix: Monomial, weight: int, degree: int):
        w = weights[pos]
        top = (bound - weight) // w
        if pos == last:
            for e in range(top + 1):
                key = (weight + e * w, degree + e)
                bucket = buckets.get(key)
                if bucket is None:
                    bucket = buckets[key] = []
                bucket.append(prefix + (e,))
            return
        for e in range(top + 1):
            rec(pos + 1, prefix + (e,), weight + e * w, degree + e)

    rec(0, (), 0, 0)
    return [s for key in sorted(buckets) for s in buckets[key]]


def held(x):
    """A rational in the held form: an integral Fraction as its int, any
    other value as it is."""
    return x.numerator if type(x) is Fraction and x.denominator == 1 else x


def _held_scalar(value: ScalarLike) -> ScalarLike:
    """A rational scalar in the held form, checked: an int when it is
    integral (a bool becomes its int), else a Fraction with denominator
    > 1."""
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    raise TypeError(f"expected rational scalar, got {type(value).__name__}")


def _read_out(x):
    """A held value as the read-outs give it (Poly.eval, the RowEchelon
    read-outs, and a scalar divisor): an int as a Fraction."""
    return Fraction(x) if isinstance(x, int) else x


def _check_nvars(nvars: int) -> None:
    if nvars < 0:
        raise ValueError("nvars must be non-negative")


class Poly:
    """Sparse multivariate polynomial over the rationals.

    Immutable by convention: the term mapping is canonicalized at
    construction time and never mutated afterwards.  Each coefficient is
    held as RowEchelon holds its entries: an int when it is integral (so
    Fraction(6, 2) is held as 3), else a Fraction with denominator > 1.
    eval reads a value out as a Fraction.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Monomial, ScalarLike] | None = None):
        _check_nvars(nvars)
        canon: dict[Monomial, ScalarLike] = {}
        for mono, coeff in (terms or {}).items():
            mono = tuple(mono)
            if len(mono) != nvars:
                raise ValueError(f"exponent tuple {mono} does not match nvars={nvars}")
            if any(e < 0 for e in mono):
                raise ValueError(f"negative exponent in {mono}")
            c = _held_scalar(coeff)
            if c:
                canon[mono] = c
        _set_nvars(self, nvars)
        _set_terms(self, canon)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def _canonical(cls, nvars: int, terms: dict[Monomial, ScalarLike]) -> "Poly":
        """Wrap a dict that is canonical already: tuple keys of length
        nvars with non-negative entries, nonzero values in the held form.
        Nothing is checked; only this module calls it.  The slots are set
        through their member descriptors, which skip __setattr__."""
        p = _new(cls)
        _set_nvars(p, nvars)
        _set_terms(p, terms)
        return p

    @classmethod
    def from_sum(cls, nvars: int, sums: dict[Monomial, ScalarLike]) -> "Poly":
        """The polynomial of a term dict that a kernel built (mul_terms,
        pow_terms, derive_into) or the parser read, the zero
        values dropped once and the integral ones held as ints.  Its keys
        are monomials in nvars variables and its values ints or
        Fractions, so nothing else is checked."""
        return cls._canonical(nvars, {m: held(c) for m, c in sums.items() if c})

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "Poly":
        _check_nvars(nvars)
        return Poly._canonical(nvars, {})

    @staticmethod
    def const(nvars: int, value: ScalarLike) -> "Poly":
        _check_nvars(nvars)
        c = _held_scalar(value)
        return Poly._canonical(nvars, {(0,) * nvars: c} if c else {})

    @staticmethod
    def one(nvars: int) -> "Poly":
        _check_nvars(nvars)
        return Poly._canonical(nvars, {(0,) * nvars: 1})

    @staticmethod
    def variable(nvars: int, index: int) -> "Poly":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for nvars={nvars}")
        mono = tuple(1 if i == index else 0 for i in range(nvars))
        return Poly._canonical(nvars, {mono: 1})

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
                    out[mono] = held(s)
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
        """A rational scales each term, an int term by a Fraction as one
        Fraction built from the product's numerator and denominator; a
        Poly multiplies through mul_terms, whose result from_sum holds."""
        if isinstance(other, (int, Fraction)):
            if not other:
                return Poly.zero(self.nvars)
            # 1/2 * 2 is the int 1
            if type(other) is Fraction:
                # an int k times p/q is built as the one Fraction (k * p)/q
                p, q = other.numerator, other.denominator
                terms = {
                    m: held(Fraction(k * p, q) if type(k) is int else k * other)
                    for m, k in self.terms.items()
                }
            else:
                terms = {m: held(k * other) for m, k in self.terms.items()}
            return Poly._canonical(self.nvars, terms)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Poly.from_sum(self.nvars, mul_terms(self.terms, o.terms))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial exponent must be a non-negative integer")
        one = {(0,) * self.nvars: 1}
        return Poly.from_sum(self.nvars, pow_terms(self.terms, exponent, one))

    def __truediv__(self, other) -> Scalar:
        if isinstance(other, (int, Fraction)):
            return self * (1 / _read_out(other))
        if isinstance(other, Poly):
            return quotient(self, other)
        return NotImplemented

    def __rtruediv__(self, other) -> Scalar:
        if isinstance(other, (int, Fraction)):
            return quotient(Poly.const(self.nvars, other), self)
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.nvars == other.nvars and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            # a constant's one term, or none for 0
            terms = self.terms
            if not other:
                return not terms
            return len(terms) == 1 and terms.get((0,) * self.nvars) == other
        return NotImplemented

    def __hash__(self):
        # a constant equals its value, an int or Fraction, so hashes as it
        terms = self.terms
        if len(terms) > 1 or any(map(any, terms)):
            return hash((self.nvars, frozenset(terms.items())))
        return hash(terms.get((0,) * self.nvars, 0))

    def __bool__(self):
        return bool(self.terms)

    # -- calculus and evaluation ---------------------------------------------

    def subst(self, images: Sequence[Scalar]) -> Scalar:
        """Substitute one expression per variable: substitute's case of
        one polynomial."""
        return substitute((self,), images)[0]

    def eval(self, point: Sequence[ScalarLike]) -> Fraction:
        """The value at a point of rationals, as evaluate gives it."""
        return evaluate((self,), point)[0]

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


_new = object.__new__
_set_nvars = Poly.nvars.__set__
_set_terms = Poly.terms.__set__


def rational_point(point: Sequence[ScalarLike]) -> tuple[Fraction, ...]:
    """A point of rationals, each entry checked as evaluate checks it (an
    int or a Fraction; a float is a TypeError) and read out as a
    Fraction."""
    return tuple(_read_out(_held_scalar(v)) for v in point)


def evaluate(polys: Sequence[Poly], point: Sequence[ScalarLike]) -> tuple[Fraction, ...]:
    """The values of polynomials at one point of rationals, each summed in
    the held form and read out once as a Fraction.

    The point is checked and held once for all of them: each entry is an
    int or a Fraction (a float is a TypeError), and every polynomial must
    have one variable per entry.  A term with a positive exponent on a
    zero coordinate is zero and is skipped.
    """
    pt = [_held_scalar(v) for v in point]
    n = len(pt)
    values = []
    for p in polys:
        if p.nvars != n:
            raise ValueError("evaluation point has wrong dimension")
        total = 0
        for mono, c in p.terms.items():
            for v, e in zip(pt, mono):
                if e:
                    if not v:
                        break
                    c *= v**e
            else:
                total += c
        values.append(_read_out(total))
    return tuple(values)


def substitute(polys: Sequence[Scalar], images: Sequence[Scalar]) -> tuple[Scalar, ...]:
    """Substitute one expression per variable into each of polys, the
    images shared by all of them.

    The images are checked once for all of them: each of polys must have
    one variable per image, and the images one common variable count,
    which becomes the variable count of the results.  Image i is
    num_i / den_i, with den_i = 1 for a Poly.  Each polynomial's terms are
    summed into one term dict over the common denominator
    prod den_i^top_i, top_i its largest exponent of variable i: the image
    of c x^s is c prod num_i^s_i den_i^(top_i - s_i), a product
    (mul_terms) of powers (pow_terms), added by add_scaled, which stores
    no zero.  Each power of a numerator or denominator is made once per
    call, for all of polys.  A RatFunc among polys takes its tops over
    its numerator and denominator together, so the common denominator
    cancels and the result is the numerator's sum over the denominator's;
    a Poly with a rational image has the common denominator, the sum for
    the monomial 1, as its denominator.  Each result goes through at most
    one quotient, and none when it has no denominator: with Poly images
    a Poly's image is its sum.
    """
    for p in polys:
        if p.nvars != len(images):
            raise ValueError("substitution needs one image per variable")
    if not images:
        raise ValueError("cannot infer target dimension for 0-variable substitution")
    target = images[0].nvars
    for img in images:
        if img.nvars != target:
            raise ValueError("substitution images live in different variable counts")
    one = {(0,) * target: 1}
    # bases[i] is num_i, and bases[len(images) + j] is den_i of the j-th
    # RatFunc image, i = rational[j]
    bases = []
    rational = []
    for i, img in enumerate(images):
        if isinstance(img, RatFunc):
            rational.append(i)
            img = img.num
        bases.append(img.terms)
    if rational:
        bases += [images[i].den.terms for i in rational]
        unit = {(0,) * len(images): 1}
    powers: dict[tuple[int, int], dict] = {}
    results: list[Scalar] = []
    # every value is canonical, so the order of the terms does not matter
    for p in polys:
        parts = (p.num.terms, p.den.terms) if isinstance(p, RatFunc) else (p.terms,)
        tops = rational and [
            max((m[i] for terms in parts for m in terms), default=0) for i in rational
        ]
        if any(tops) and len(parts) == 1:
            # a Poly's denominator is the image of 1: prod den_i^top_i
            parts = (p.terms, unit)
        for terms in parts:
            out: dict[Monomial, ScalarLike] = {}
            for mono, c in terms.items():
                if tops:
                    # the denominators' exponents follow the numerators'
                    mono += tuple([top - mono[i] for i, top in zip(rational, tops)])
                product = one
                for i, e in enumerate(mono):
                    if e:
                        factor = powers.get((i, e))
                        if factor is None:
                            factor = bases[i]
                            if e > 1:
                                factor = pow_terms(factor, e, one)
                            powers[(i, e)] = factor
                        product = mul_terms(product, factor) if product is not one else factor
                add_scaled(out, c, product)
            results.append(Poly._canonical(target, {m: held(c) for m, c in out.items()}))
        if len(parts) == 2:
            den = results.pop()
            results.append(quotient(results.pop(), den))
    return tuple(results)


def restrict_terms(p: Poly, fiber: Sequence[int]) -> Poly:
    """p with the variables fiber set to 0: the terms with no exponent on
    them, kept as they are held, so nothing is re-held or checked; p itself
    when every term is kept."""
    kept = {}
    for m, c in p.terms.items():
        for i in fiber:
            if m[i]:
                break
        else:
            kept[m] = c
    if len(kept) == len(p.terms):
        return p
    return Poly._canonical(p.nvars, kept)


def derive_into(
    out: dict[Monomial, ScalarLike],
    coeffs: Sequence[Poly],
    terms: Mapping[Monomial, ScalarLike],
    factor: ScalarLike,
) -> None:
    """Add factor * sum_a coeffs[a] * df/dx_a into out, f the polynomial
    with these terms: the derivation with these coefficients applied to f,
    term by term, with no Poly built in between.

    Every derivation of the engine goes through here: X(f), each component
    X(Y^a) - Y(X^a) of a bracket as two calls with factors +1 and -1, and
    each eps-power of a jet series.  out may hold zeros afterwards;
    Poly.from_sum drops them once, after the last call.
    """
    for a, coeff in enumerate(coeffs):
        cterms = coeff.terms
        if not cterms:
            continue
        for mono, c in terms.items():
            e = mono[a]
            if not e:
                continue
            lowered = mono[:a] + (e - 1,) + mono[a + 1 :]
            scale = c * (e * factor)
            for m, k in cterms.items():
                key = tuple(map(add, lowered, m))
                s = out.get(key)
                out[key] = k * scale if s is None else s + k * scale


def divide_exact(f: Poly, g: Poly) -> Poly | None:
    """Exact polynomial quotient f/g, or None when g does not divide f.

    A constant g scales f by its inverse, and any other monomial divides
    term by term, its quotient wrapped by Poly.from_sum; a longer g goes
    through long division.  The variable counts are checked first, so a
    zero f on another chart raises too."""
    if f.nvars != g.nvars:
        raise ValueError("polynomial dimension mismatch")
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if g.is_one():
        return f
    lm_g = g.leading_monomial()
    # coefficients may be ints: divide by a Fraction, never int / int
    lc_g = Fraction(g.terms[lm_g])
    if len(g.terms) == 1:
        if not any(lm_g):
            return f * (1 / lc_g)
        shifted = {
            tuple(a - b for a, b in zip(mono, lm_g)): c / lc_g for mono, c in f.terms.items()
        }
        if any(e < 0 for mono in shifted for e in mono):
            return None
        return Poly.from_sum(f.nvars, shifted)
    quotient: dict[Monomial, ScalarLike] = {}
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
    out: dict[int, dict[Monomial, ScalarLike]] = {}
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


def quotient(num: Poly, den: Poly) -> Scalar:
    """num / den in lowest terms: a Poly when den divides num, and a
    RatFunc otherwise.

    This is the one place that decides whether a quotient is a
    polynomial.  RatFunc arithmetic and subst, Poly division and
    RatFunc(num, den) all return through it, so a Scalar is a Poly exactly
    when it is a polynomial.  Only where the operands fix the answer does
    RatFunc arithmetic skip it: a RatFunc negated, scaled by a nonzero
    rational or added to a polynomial is a RatFunc over the same
    denominator, still in lowest terms.
    """
    if num.nvars != den.nvars:
        raise ValueError("numerator/denominator dimension mismatch")
    if den.is_zero():
        raise ZeroDivisionError("zero denominator")
    if num.terms and den.total_degree() > 0:
        g = poly_gcd(num, den)
        if not g.is_one():
            num, den = divide_exact(num, g), divide_exact(den, g)
            assert num is not None and den is not None, "the gcd divides both"
    return _coprime_quotient(num, den)


def _coprime_quotient(num: Poly, den: Poly) -> Scalar:
    """num / den for coprime num and den, den nonzero: a Poly when den is
    a constant; otherwise a RatFunc whose denominator is scaled to integer
    content 1 and a positive leading coefficient.  No gcd is taken."""
    if not num.terms:
        return num
    if den.total_degree() == 0:
        return num * (1 / Fraction(den.terms[(0,) * den.nvars]))
    c = den.content()
    if den.leading_coefficient() < 0:
        c = -c
    if c != 1:
        inv = 1 / c
        num, den = num * inv, den * inv
    return RatFunc._canonical(num, den)


class RatFunc:
    """A quotient of two polynomials that is not a polynomial, in lowest
    terms.

    The numerator and denominator are coprime, and the denominator is not
    a constant, has integer content 1 and a positive leading coefficient.
    That form is unique, so equality and hashing compare (num, den) as
    stored, and a RatFunc never equals a Poly or a rational.
    RatFunc(num, den) reduces through quotient and raises ValueError when
    the quotient is a polynomial.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        q = quotient(num, den)
        if not isinstance(q, RatFunc):
            raise ValueError("the quotient is a polynomial: build it as a Poly")
        _set_num(self, q.num)
        _set_den(self, q.den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    @classmethod
    def _canonical(cls, num: Poly, den: Poly) -> "RatFunc":
        """Wrap a pair already in the form above.  Nothing is checked; only
        this module calls it."""
        r = _new(cls)
        _set_num(r, num)
        _set_den(r, den)
        return r

    @property
    def nvars(self) -> int:
        return self.num.nvars

    def is_zero(self) -> bool:
        # the zero function is the Poly 0
        return False

    def _check(self, other) -> bool:
        """Whether other is an operand of RatFunc arithmetic; a RatFunc or
        Poly must have the same variable count."""
        if isinstance(other, (RatFunc, Poly)):
            if other.nvars != self.nvars:
                raise ValueError("rational function dimension mismatch")
            return True
        return isinstance(other, (int, Fraction))

    def __add__(self, other) -> Scalar:
        if not self._check(other):
            return NotImplemented
        num, den = self.num, self.den
        if not isinstance(other, RatFunc):
            # num + other * den is coprime to den: no gcd to take
            return RatFunc._canonical(num + den * other, den)
        if den == other.den:
            return quotient(num + other.num, den)
        return quotient(num * other.den + other.num * den, den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return RatFunc._canonical(-self.num, self.den)

    def __sub__(self, other) -> Scalar:
        if not self._check(other):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> Scalar:
        if not self._check(other):
            return NotImplemented
        return (-self) + other

    def __mul__(self, other) -> Scalar:
        if not self._check(other):
            return NotImplemented
        if isinstance(other, RatFunc):
            return quotient(self.num * other.num, self.den * other.den)
        if isinstance(other, Poly):
            return quotient(self.num * other, self.den)
        if not other:
            return Poly.zero(self.nvars)
        # a nonzero rational keeps num and den coprime
        return RatFunc._canonical(self.num * other, self.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> Scalar:
        if not self._check(other):
            return NotImplemented
        if isinstance(other, RatFunc):
            return quotient(self.num * other.den, self.den * other.num)
        if isinstance(other, Poly):
            return quotient(self.num, self.den * other)
        return RatFunc._canonical(self.num * (1 / _read_out(other)), self.den)

    def __rtruediv__(self, other) -> Scalar:
        if not self._check(other):
            return NotImplemented
        if isinstance(other, Poly):
            return quotient(other * self.den, self.num)
        return _coprime_quotient(self.den * other, self.num)

    def __pow__(self, exponent: int) -> Scalar:
        if not isinstance(exponent, int):
            raise ValueError("exponent must be an integer")
        # powers of coprime polynomials stay coprime
        if exponent < 0:
            return _coprime_quotient(self.den ** (-exponent), self.num ** (-exponent))
        return _coprime_quotient(self.num**exponent, self.den**exponent)

    def __eq__(self, other):
        if isinstance(other, RatFunc):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (Poly, int, Fraction)):
            return False
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def subst(self, images: Sequence[Scalar]) -> Scalar:
        """The numerator's image over the denominator's, both substituted
        in one substitute call."""
        return substitute((self,), images)[0]

    def eval(self, point: Sequence[ScalarLike]) -> Fraction:
        n, d = evaluate((self.num, self.den), point)
        if not d:
            raise ZeroDivisionError("denominator vanishes at evaluation point")
        return n / d

    def __repr__(self):
        return f"RatFunc({self.num!r} / {self.den!r})"


_set_num = RatFunc.num.__set__
_set_den = RatFunc.den.__set__


@record
class LinearSolution:
    """A particular solution together with a basis of the homogeneous
    space, each a sparse {column: value} map with no zero entries."""

    particular: dict[int, Fraction]
    nullspace: tuple[dict[int, Fraction], ...]


class RowEchelon:
    """Reduced row echelon form over an exact field, built one row at a time.

    Rows are sparse ``{column: entry}`` dicts; any other row is read as a
    dense sequence and converted.  Entries need +, -, *, / and truthiness
    for the zero test: int, Fraction, Poly and RatFunc entries all work,
    and may be mixed, since Poly division goes through quotient.  Rational
    entries are held as ints where they are integral, as Poly holds its
    coefficients: an integral Fraction becomes its int on input, and int
    arithmetic stays int (a Fraction that an elimination step makes
    integral is kept as it is).  A row is scaled to its
    leading 1 by negation when the lead is -1 and otherwise by dividing
    through by the lead, an int lead as a Fraction, so no float can appear;
    integral quotients go back to ints.  The pivot entry itself is set to
    1, not divided by itself, which for a Poly lead would take a gcd.  A
    Poly or RatFunc entry takes the same path (its pivot entry may then be
    the int 1).  Values read out through
    particular, nullspace and reduced_rows are Fractions (or Polys and
    RatFuncs) again, each in a sparse {column: value} map with no zero
    entries; reduce may return ints, which compare, hash and print like
    the equal Fractions.
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
        form is unique and is linear in the row.  Integral rational entries
        may come back as ints."""
        items = row.items() if isinstance(row, dict) else enumerate(row)
        out = {c: held(x) for c, x in items if x}
        for p in [c for c in out if c in self.pivot_rows]:
            # pivot rows vanish on the other pivot columns: no new ones appear
            add_scaled(out, -out[p], self.pivot_rows[p])
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
        if lead == -1:
            rest = {c: -x for c, x in rest.items()}
        elif lead != 1:
            # the pivot entry is set to 1, not divided by itself, which
            # for a Poly lead would take a gcd
            lead = Fraction(lead) if type(lead) is int else lead
            rest = {c: 1 if c == pivot else held(x / lead) for c, x in rest.items()}
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

    def reduced_rows(self) -> tuple[dict, ...]:
        """The reduced rows in pivot order, as sparse {column: entry} maps
        in column order, with no zero entries."""
        return tuple(
            {c: _read_out(x) for c, x in sorted(row.items())}
            for _, row in sorted(self.pivot_rows.items())
        )

    def particular(self, ncols: int, rhs: int) -> dict | None:
        """The nonzero entries {column: value} of the particular solution
        of A x = b for held rows [A | B]: A is columns < ncols, and b is
        column rhs >= ncols of B.

        The free variables are set to 0, so x is b's entries on the rows
        with their pivot in A.  None when b is not in the span of A's
        columns, that is when a row with its pivot in B has an entry in
        column rhs (with one right-hand side, a row 0 = 1).  The reduced
        form of [A | B] restricted to A and b is that of [A | b], so the
        other columns of B do not change the result.  The rows holding
        column rhs are read from the column index, so the cost is the
        number of nonzero entries, not ncols.
        """
        if rhs in self.pivot_rows:
            return None
        x = {}
        for p in self._holders.get(rhs, ()):
            if p >= ncols:
                return None
            x[p] = _read_out(self.pivot_rows[p][rhs])
        return x

    def nullspace(self, ncols: int) -> tuple[dict, ...]:
        """A basis of the nullspace of the leading columns A, the columns
        < ncols, one sparse {column: value} map per free column of A, the
        free columns in increasing order: a 1 at that column, and minus
        its entries on the rows with their pivot in A.

        RREF has a prefix property: the rows with their pivot in A, cut to
        A, are the reduced form of A alone, and the other rows vanish on A.
        So every prefix of the held columns reads its own nullspace here,
        equal to that of a system of its own.  A row holding a column of A
        has its pivot before that column, so the column index gives each
        vector's entries directly.
        """
        basis = []
        for c in range(ncols):
            if c in self.pivot_rows:
                continue
            vec = {c: Fraction(1)}
            for p in self._holders.get(c, ()):
                vec[p] = _read_out(-self.pivot_rows[p][c])
            basis.append(vec)
        return tuple(basis)


def mul_terms(p: Mapping[Monomial, ScalarLike], q: Mapping[Monomial, ScalarLike]) -> dict:
    """The product of two term dicts {monomial: coefficient}, neither with
    a zero value, as a new dict with none; the arguments are not changed.

    Every polynomial product goes through here: Poly * Poly and the
    parser's products.  A one-term factor maps distinct monomials to
    distinct ones and nonzero coefficients to nonzero ones, so that
    product is one pass with no zero filter, in the other factor's order.
    """
    if len(p) == 1:
        p, q = q, p
    if len(q) == 1:
        ((mq, cq),) = q.items()
        return {tuple(map(add, m, mq)): c * cq for m, c in p.items()}
    out: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(map(add, m1, m2))
            s = out.get(m)
            out[m] = c1 * c2 if s is None else s + c1 * c2
    return {m: c for m, c in out.items() if c}


def pow_terms(p: Mapping[Monomial, ScalarLike], exponent: int, one: dict) -> dict:
    """p ** exponent for a term dict p and a natural exponent, by square
    and multiply through mul_terms; one is the term dict of 1, returned
    as it is for exponent 0.  Poly ** int and the parser's powers go
    through here."""
    result, base = one, p
    while exponent:
        if exponent & 1:
            result = mul_terms(result, base)
        exponent >>= 1
        if exponent:
            base = mul_terms(base, base)
    return result


def add_scaled(target: dict, factor, row: Mapping) -> None:
    """target += factor * row in place, for sparse maps: an entry whose
    sum is zero is removed, and a zero product is never stored."""
    for c, x in row.items():
        y = factor * x
        if c in target:
            y = target[c] + y
        if y:
            target[c] = y
        else:
            target.pop(c, None)


def matrix_rank(rows: Sequence[Sequence]) -> int:
    """Rank of a matrix over an exact field: rational entries, or
    functions (Poly and RatFunc entries) over the rational-function field."""
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
    return [
        [_read_out(span.pivot_rows[i].get(k + j, zero)) for j in range(k)] for i in range(k)
    ]


def linear_solve_exact(
    rows: Sequence[Sequence[ScalarLike]], rhs: Sequence[ScalarLike]
) -> LinearSolution | None:
    """Solve A x = b exactly over the rationals.

    Returns a particular solution (free variables set to 0) plus a basis
    of the nullspace, as RowEchelon.particular and nullspace read them
    out: sparse {column: value} maps.  None when the system is
    infeasible.  Output is deterministic for a given input.
    """
    m = len(rows)
    if len(rhs) != m:
        raise ValueError("right-hand side length does not match row count")
    n = len(rows[0]) if m else 0
    augmented = RowEchelon()
    for row, b in zip(rows, rhs):
        if len(row) != n:
            raise ValueError("ragged matrix")
        entries = {c: x for c, x in enumerate(map(_held_scalar, row)) if x}
        b = _held_scalar(b)
        if b:
            entries[n] = b
        augmented.add(entries)
    particular = augmented.particular(n, n)
    if particular is None:
        return None
    return LinearSolution(particular=particular, nullspace=augmented.nullspace(n))
