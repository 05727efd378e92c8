"""Higher-order tangent bundles as truncated polynomial jets.

A jet of order r at a curve records the coefficients of each coordinate up
to epsilon^r, with epsilon^(r+1) = 0.  Functions and vector fields on the
base chart lift to the jet chart: a function splits into graded components
(one per epsilon power) and a vector field lifts at every vertical depth j
by shifting which component slots it differentiates into.  Exponentials of
depth-graded families act on jets unipotently; the flow-out of the jets of
a submanifold under such exponentials built from a filtration is cut out
by weighted-coordinate equations, which is what flowout_sample verifies.

flowout_sample first tries a certificate: every generator listed at level
-j has weighted filtration degree at least -j.  Then each lifted letter is
tangent to the flow-out locus Q, every exponential the sampler could draw
keeps Q, and the start jets lie in Q, so every sample passes and nothing
is drawn or moved.  When the certificate fails, _sample_by_moving moves
and tests each sample, and its first failing jet is a witness.

Every sampled jet is the jet of a curve through the base point m of the
submanifold, and every letter has depth at least 1, so a moved jet keeps
m as its base point.  The weighted chart is regular at m, so no sample
meets a pole of it and q_membership never raises on one.

The exponentials are expanded in words.  With Y = sum_L c_L eps^(j_L) X_L,
one letter L per listed generator X_L of level -j_L, the power Y^k x_a is
multilinear in the coefficients: the sum over words L1..Lk of
c_L1...c_Lk eps^(j_L1 + ... + j_Lk) X_L1(...X_Lk(x_a)).  Only words of
depth sum at most r survive the truncation, so _ExpTable computes their
polynomials once per filtration, one per field sequence, with integer
coefficients over one table denominator.  A sampled group element is then
a coefficient vector and a time t, and moving a jet by it is integer
arithmetic on the table: a jet is integer numerators over one common
denominator, and the membership test looks only at which numerators
vanish.  No Poly, RatFunc or VectorField is built per sample, and moving
and testing a jet runs on Python ints.  u_exp_act and u_exp_apply use the
same table, with one letter of coefficient 1 per term of the URElem.

The sampler draws from one random.Random(seed) in a fixed order, so a
report depends only on (count, seed).  Per sample: components 1..r of
each tangent row (random() < 0.7, then choice() when kept), then
randrange(1, 4) group elements.  Per element, level by
level and generator by generator, random() < 0.5 decides whether the
generator is kept and a kept one draws its coefficient with choice(); a
level whose kept combination sum_g c_g g is zero adds no term.  The time
t is drawn with choice() last, and only when some level added a term;
otherwise the element is skipped.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial, gcd, lcm
from typing import Sequence

from .exactalg import Poly, RatFunc, RowEchelon, record
from .lieflt import Filtration, Submanifold, field_entries, transposed
from .vfield import Chart, VectorField
from .weightcoord import WeightedChart, vf_filtration_degree

Scalar = Poly | RatFunc


@record
class JetChart:
    """Chart of component variables for jets of a base chart.

    The component i of base variable `name` is called `name_i`; its column
    index is base_index * (order + 1) + i.
    """

    base: Chart
    order: int
    chart: Chart = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("jet order must be at least 1")
        names = []
        for name in self.base.names:
            for i in range(self.order + 1):
                names.append(f"{name}_{i}")
        if len(set(names)) != len(names):
            raise ValueError("jet component names collide; rename base variables")
        object.__setattr__(self, "chart", Chart(tuple(names)))

    @property
    def dim(self) -> int:
        return self.base.dim * (self.order + 1)

    def index(self, a: int, i: int) -> int:
        if not (0 <= a < self.base.dim and 0 <= i <= self.order):
            raise ValueError("jet component out of range")
        return a * (self.order + 1) + i

    def var(self, a: int, i: int) -> Poly:
        return Poly.variable(self.dim, self.index(a, i))


def _zero_like(sample):
    if isinstance(sample, Poly):
        return Poly.zero(sample.nvars)
    if isinstance(sample, RatFunc):
        return RatFunc.const(sample.nvars, 0)
    return Fraction(0)


@record
class TruncSeries:
    """Polynomial in epsilon truncated by epsilon^(order+1) = 0.

    Coefficients live in any common exact ring (Fraction, Poly, RatFunc).
    """

    order: int
    coefficients: tuple

    def __post_init__(self):
        if len(self.coefficients) != self.order + 1:
            raise ValueError("series needs exactly order + 1 coefficients")

    def is_zero(self) -> bool:
        return not any(self.coefficients)

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        if self.order != other.order:
            raise ValueError("series order mismatch")
        return TruncSeries(
            self.order, tuple(a + b for a, b in zip(self.coefficients, other.coefficients))
        )

    def __neg__(self) -> "TruncSeries":
        return TruncSeries(self.order, tuple(-c for c in self.coefficients))

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        return self + (-other)

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        if self.order != other.order:
            raise ValueError("series order mismatch")
        out: list = [None] * (self.order + 1)
        for i, a in enumerate(self.coefficients):
            if not a:
                continue
            for j, b in enumerate(other.coefficients):
                if i + j > self.order:
                    break
                if not b:
                    continue
                term = a * b
                out[i + j] = term if out[i + j] is None else out[i + j] + term
        zero = _zero_like(self.coefficients[0])
        return TruncSeries(self.order, tuple(zero if c is None else c for c in out))

    def shift(self, j: int) -> "TruncSeries":
        """Multiply by epsilon^j."""
        if j < 0:
            raise ValueError("shift must be non-negative")
        zero = _zero_like(self.coefficients[0])
        coeffs = (zero,) * min(j, self.order + 1) + self.coefficients[: max(0, self.order + 1 - j)]
        return TruncSeries(self.order, coeffs)

    def inverse(self) -> "TruncSeries":
        """Multiplicative inverse; the constant term must be a nonzero rational."""
        c0 = self.coefficients[0]
        if not isinstance(c0, Fraction) or c0 == 0:
            raise ZeroDivisionError("series has no invertible constant term")
        inv = [Fraction(1) / c0] + [Fraction(0)] * self.order
        for k in range(1, self.order + 1):
            acc = Fraction(0)
            for i in range(1, k + 1):
                ci = self.coefficients[i]
                if ci:
                    acc += ci * inv[k - i]
            inv[k] = -acc / c0
        return TruncSeries(self.order, tuple(inv))


@record
class JetPoint:
    """Order-r jet: the epsilon-components of every base coordinate.

    Component i of coordinate a is nums[a][i] / den.  The denominator is
    positive and shares no factor with all the numerators at once, so equal
    jets have equal fields.  comps, flat and base_point give the values as
    Fractions.
    """

    chart: Chart
    order: int
    nums: tuple[tuple[int, ...], ...]
    den: int = 1

    def __post_init__(self):
        if len(self.nums) != self.chart.dim or any(
            [len(row) != self.order + 1 for row in self.nums]
        ):
            raise ValueError("jet components must be dim x (order + 1)")
        if self.den <= 0:
            raise ValueError("jet denominator must be positive")
        # list comprehensions, not generators, here and in from_rows: every
        # sample and move builds a jet, and generator frames on that path
        # raise the peak resident size
        g = gcd(self.den, *[v for row in self.nums for v in row])
        if g != 1:
            object.__setattr__(
                self, "nums", tuple([tuple([v // g for v in row]) for row in self.nums])
            )
            object.__setattr__(self, "den", self.den // g)

    @classmethod
    def from_rows(cls, chart: Chart, order: int, rows) -> "JetPoint":
        """The jet with the given components: ints, Fractions, or anything
        else Fraction accepts."""
        values = [
            [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in row] for row in rows
        ]
        den = lcm(*[v.denominator for row in values for v in row])
        nums = tuple(
            [tuple([v.numerator * (den // v.denominator) for v in row]) for row in values]
        )
        return cls(chart, order, nums, den)

    @classmethod
    def zero(cls, chart: Chart, order: int) -> "JetPoint":
        return cls(chart, order, tuple((0,) * (order + 1) for _ in range(chart.dim)))

    @property
    def comps(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(v, self.den) for v in row) for row in self.nums)

    def base_point(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(row[0], self.den) for row in self.nums)

    def flat(self) -> tuple[Fraction, ...]:
        """Components in jet-chart variable order."""
        return tuple(Fraction(v, self.den) for row in self.nums for v in row)


def eval_jet(u: JetPoint, f: Scalar) -> TruncSeries:
    """Value of a function on the jet: substitute each coordinate's
    truncated series and expand.  The result is a unital algebra morphism
    in f.  Rational functions require the denominator to be a unit at the
    jet's base point."""
    return _JetEvaluator(u)(f)


class _JetEvaluator:
    """Polynomials on one jet, in integers.

    A monomial of degree m is the product of the jet's numerator rows, over
    den^m.  powers[a][e - 1] is the coefficient list of (row a)^e and
    monomials maps an exponent tuple to its coefficient list; both grow on
    demand and are shared by every function evaluated.
    """

    def __init__(self, u: JetPoint):
        self.dim = u.chart.dim
        self.order = u.order
        self.den = u.den
        self.powers = [[list(row)] for row in u.nums]
        self.monomials: dict[tuple[int, ...], list[int]] = {}

    def power(self, a: int, e: int) -> list[int]:
        table = self.powers[a]
        while len(table) < e:
            table.append(_trunc_mul(table[-1], table[0], self.order))
        return table[e - 1]

    def monomial(self, mono: tuple[int, ...]) -> list[int]:
        """Numerators of the monomial on the jet, over den^(degree of
        mono); do not mutate the list."""
        series = self.monomials.get(mono)
        if series is None:
            r = self.order
            for a, e in enumerate(mono):
                if e:
                    p = self.power(a, e)
                    series = p if series is None else _trunc_mul(series, p, r)
            if series is None:
                series = [1] + [0] * r
            self.monomials[mono] = series
        return series

    def numerators(self, f: Poly) -> tuple[list[int], int]:
        """f on the jet as integer coefficients over one positive
        denominator: the lcm of f's coefficient denominators times den^deg."""
        if f.nvars != self.dim:
            raise ValueError("function does not live on the jet's base chart")
        total = [0] * (self.order + 1)
        if not f.terms:
            return total, 1
        degrees = [sum(mono) for mono in f.terms]
        top = max(degrees)
        scale = lcm(*[c.denominator for c in f.terms.values()])
        lift = [1]
        for _ in range(top):
            lift.append(lift[-1] * self.den)
        for (mono, c), m in zip(f.terms.items(), degrees):
            w = c.numerator * (scale // c.denominator) * lift[top - m]
            for i, v in enumerate(self.monomial(mono)):
                if v:
                    total[i] += w * v
        return total, scale * lift[top]

    def __call__(self, f: Scalar) -> TruncSeries:
        if isinstance(f, RatFunc):
            if f.is_polynomial():
                return self(f.num)
            return self(f.num) * self(f.den).inverse()
        total, den = self.numerators(f)
        return TruncSeries(self.order, tuple(Fraction(v, den) for v in total))


def _trunc_mul(p: Sequence[int], q: Sequence[int], r: int) -> list[int]:
    """Product of two coefficient lists, truncated after epsilon^r."""
    out = [0] * (r + 1)
    for i, a in enumerate(p):
        if a:
            for j in range(r + 1 - i):
                b = q[j]
                if b:
                    out[i + j] += a * b
    return out


def lift_all(jc: JetChart, f: Poly) -> tuple[Poly, ...]:
    """All graded components of a function on the jet chart at once.

    Component i is the coefficient of t^i after substituting each base
    variable by its component series.  Component 0 is the pullback of f
    through the base projection.
    """
    if f.nvars != jc.base.dim:
        raise ValueError("function does not live on the jet chart's base")
    n = jc.base.dim
    r = jc.order
    big = jc.dim + 1  # trailing slot is the grading variable t
    images = []
    for a in range(n):
        terms = {}
        for i in range(r + 1):
            mono = [0] * big
            mono[jc.index(a, i)] = 1
            mono[jc.dim] = i
            terms[tuple(mono)] = Fraction(1)
        images.append(Poly(big, terms))
    expanded = f.subst(images)
    assert isinstance(expanded, Poly)
    buckets: list[dict] = [dict() for _ in range(r + 1)]
    for mono, c in expanded.terms.items():
        ti = mono[jc.dim]
        if ti <= r:
            buckets[ti][mono[: jc.dim]] = c
    return tuple(Poly(jc.dim, b) for b in buckets)


def lift_function(jc: JetChart, f: Poly, i: int) -> Poly:
    """Component i of a lifted function, as a polynomial on the jet chart."""
    if not 0 <= i <= jc.order:
        raise ValueError("component index out of range")
    return lift_all(jc, f)[i]


@record
class LiftedVF:
    """A vector field lifted to the jet chart at vertical depth `level`.

    Depth 0 is the tangent lift; depth j >= 1 shifts every target slot by
    j and is vertical (it kills all components of index below j).
    """

    jet_chart: JetChart
    base: VectorField
    level: int
    field: VectorField


def lift_vf(jc: JetChart, x: VectorField, j: int) -> LiftedVF:
    if x.chart != jc.base:
        raise ValueError("field does not live on the jet chart's base")
    if not 0 <= j <= jc.order:
        raise ValueError("lift depth out of range")
    n = jc.base.dim
    r = jc.order
    coeffs: list[Poly] = [Poly.zero(jc.dim) for _ in range(jc.dim)]
    for a, comp in enumerate(x.coeffs):
        if comp.is_zero():
            continue
        pieces = lift_all(jc, comp)
        for i in range(r + 1 - j):
            coeffs[jc.index(a, i + j)] = coeffs[jc.index(a, i + j)] + pieces[i]
    return LiftedVF(jc, x, j, VectorField(jc.chart, coeffs))


@record
class LiftCombination:
    """Finite sum of jet-chart-coefficient multiples of lifted fields.

    Terms are (g, X, j) triples standing for g * lift of X at depth j.
    This is the shape the epsilon-action operates on.
    """

    jet_chart: JetChart
    terms: tuple[tuple[Poly, VectorField, int], ...]

    def __post_init__(self):
        for g, x, j in self.terms:
            if g.nvars != self.jet_chart.dim:
                raise ValueError("coefficient does not live on the jet chart")
            if not 0 <= j <= self.jet_chart.order:
                raise ValueError("lift depth out of range")

    def materialize(self) -> VectorField:
        total = VectorField(
            self.jet_chart.chart, [Fraction(0)] * self.jet_chart.dim
        )
        for g, x, j in self.terms:
            total = total + lift_vf(self.jet_chart, x, j).field.scale(g)
        return total


def koszul_shift(comb: LiftCombination) -> LiftCombination:
    """The epsilon-action on lift combinations: depth j becomes j + 1,
    and depth-r terms are annihilated."""
    r = comb.jet_chart.order
    kept = tuple((g, x, j + 1) for g, x, j in comb.terms if j + 1 <= r)
    return LiftCombination(comb.jet_chart, kept)


@record
class URElem:
    """exp(t * sum_j X_j eps^j) with every depth j >= 1: a unipotent
    automorphism of functions valued in the truncated series ring."""

    chart: Chart
    order: int
    terms: tuple[tuple[int, VectorField], ...]
    t: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "t", Fraction(self.t))
        for j, x in self.terms:
            if not 1 <= j <= self.order:
                raise ValueError("unipotent terms need depth between 1 and the order")
            if x.chart != self.chart:
                raise ValueError("term field lives on the wrong chart")

    def inverse(self) -> "URElem":
        return URElem(self.chart, self.order, self.terms, -self.t)


def _coordinates(n: int) -> tuple[Poly, ...]:
    return tuple(Poly.variable(n, a) for a in range(n))


def _primitive_rows(span: RowEchelon, width: int) -> tuple[tuple[int, ...], ...]:
    """The held rows, dense over columns 0..width - 1, scaled to coprime
    integers."""
    out = []
    for row in span.pivot_rows.values():
        scale = lcm(*[x.denominator for x in row.values()])
        ints = [int(row.get(c, 0) * scale) for c in range(width)]
        g = gcd(*ints)
        out.append(tuple(x // g for x in ints))
    return tuple(out)


class _ExpTable:
    """Word expansion of exp(s * Y), Y = sum_L c_L * eps^(depth L) * X_L,
    on fixed target functions, with the letter coefficients c_L and the
    time s left free.

    Y^k f is the sum, over words L1..Lk of depth sum at most the order,
    of c_L1...c_Lk eps^(depth sum) X_L1(...X_Lk(f)).  `entries` lists
    (polys, words) per field sequence: polys holds X_L1(...X_Lk(f)) for
    each target f, shared by every word with that field sequence (levels
    repeat generators), and words the (letter indices, depth sum) of
    those words.  A polynomial is kept as (monomial, integer) pairs over
    the one table denominator `den`, and `max_degree` is the largest
    total degree of those monomials and of the coordinate functions.  The
    empty word, which leaves the targets as they are, has no entry.  A
    field sequence whose polynomials are all zero is dropped together
    with every extension of it.  `levels` groups the letter indices by
    depth 1..order.  `row_spaces[d - 1]` holds primitive integer rows
    spanning the row space of level d's letter matrix (one column of
    field entries per letter), so that coefficients on those letters
    combine the fields to zero exactly when every row is orthogonal to
    them (`cancels`); it is None when the letters are independent.
    """

    def __init__(
        self,
        order: int,
        letters: Sequence[tuple[int, VectorField]],
        targets: Sequence[Poly],
    ):
        self.order = order
        self.targets = tuple(targets)
        self.levels = tuple(
            tuple(i for i, (j, _) in enumerate(letters) if j == depth)
            for depth in range(1, order + 1)
        )
        field_ids: dict[frozenset, int] = {}
        fields: list[VectorField] = []
        by_field: list[list[int]] = []
        letter_entries = [field_entries(x) for _, x in letters]
        for i, (_, x) in enumerate(letters):
            key = frozenset(letter_entries[i].items())
            if key not in field_ids:
                field_ids[key] = len(fields)
                fields.append(x)
                by_field.append([])
            by_field[field_ids[key]].append(i)
        spans = [
            RowEchelon(transposed([letter_entries[i] for i in level]))
            for level in self.levels
        ]
        self.row_spaces = tuple(
            None if span.rank == len(level) else _primitive_rows(span, len(level))
            for span, level in zip(spans, self.levels)
        )
        entries: list[tuple[tuple[Poly, ...], list]] = []
        current = [(self.targets, [((), 0)])]
        while current:
            extended = []
            for polys, words in current:
                for field, ids in zip(fields, by_field):
                    longer = [
                        ((i,) + word, depth + letters[i][0])
                        for word, depth in words
                        for i in ids
                        if depth + letters[i][0] <= order
                    ]
                    if not longer:
                        continue
                    moved = tuple(field.apply(p) for p in polys)
                    if any(moved):
                        extended.append((moved, longer))
            entries.extend(extended)
            current = extended
        terms = [p.terms for polys, _ in entries for p in polys]
        self.den = lcm(*[c.denominator for t in terms for c in t.values()])
        self.max_degree = max([1] + [sum(mono) for t in terms for mono in t])
        self.entries = [
            (
                tuple(
                    tuple(
                        (mono, c.numerator * (self.den // c.denominator))
                        for mono, c in p.terms.items()
                    )
                    for p in polys
                ),
                words,
            )
            for polys, words in entries
        ]

    def cancels(self, depth: int, ints: Sequence[int]) -> bool:
        """Whether integer coefficients on level depth's letters combine
        their fields to zero."""
        rows = self.row_spaces[depth - 1]
        if rows is None:
            return not any(ints)
        return not any(sum([a * b for a, b in zip(row, ints)]) for row in rows)

    @classmethod
    def of_filtration(cls, filtration: Filtration) -> "_ExpTable":
        """One letter per listed generator, level by level, acting on the
        coordinate functions."""
        letters = [
            (j, g) for j, gens in enumerate(filtration.levels, 1) for g in gens
        ]
        return cls(filtration.order, letters, _coordinates(filtration.chart.dim))

    def _weights(self, coeffs: Sequence[Fraction], s: Fraction) -> tuple[int, list[dict]]:
        """(den, sums): sums[a][depth] maps each monomial to its integer
        coefficient, over den, at eps^depth in exp(s * Y) f_a - f_a.

        A word L1..Lk weighs c_L1...c_Lk * s^k / k!.  With d the lcm of the
        denominators of the c_L and of s, C_L = d * c_L and S = d * s, that
        is prod(C_Li * S) * d^(2(r - k)) * r!/k! over d^(2r) * r!, one
        denominator for every word length k; den also carries the table's.
        """
        r = self.order
        d = lcm(s.denominator, *[c.denominator for c in coeffs])
        letter = [c.numerator * (d // c.denominator) for c in coeffs]
        step = s.numerator * (d // s.denominator)
        d2 = d * d
        scale = [d2**r * factorial(r)]
        for k in range(1, r + 1):
            scale.append(scale[-1] * step // (d2 * k))
        sums = [[{} for _ in range(r + 1)] for _ in self.targets]
        for polys, words in self.entries:
            by_depth: dict[int, int] = {}
            for word, depth in words:
                w = scale[len(word)]
                for i in word:
                    w *= letter[i]
                    if not w:
                        break
                if w:
                    by_depth[depth] = by_depth.get(depth, 0) + w
            for depth, w in by_depth.items():
                if w:
                    for series, p in zip(sums, polys):
                        acc = series[depth]
                        for mono, c in p:
                            acc[mono] = acc.get(mono, 0) + w * c
        return scale[0] * self.den, sums

    def expand(self, coeffs: Sequence[Fraction], t: Fraction) -> list[list[Poly]]:
        """The eps-coefficients of exp(t * Y) f for every target f."""
        den, sums = self._weights(coeffs, t)
        out = []
        for f, by_depth in zip(self.targets, sums):
            terms = [{m: Fraction(w, den) for m, w in acc.items()} for acc in by_depth[1:]]
            out.append([f] + [Poly(f.nvars, part) for part in terms])
        return out

    def act(self, u: JetPoint, coeffs: Sequence[Fraction], t: Fraction) -> JetPoint:
        """The group element (coeffs, t) moves the jet: row a of the result
        is exp(-t * Y) x_a evaluated on u.  The targets must be the
        coordinate functions.

        Everything is integer arithmetic over one common denominator,
        wden * u.den^M with wden from _weights and M = max_degree: a
        monomial of degree m on u's numerator rows, over u.den^m, is
        lifted by u.den^(M - m), and u's own rows by wden * u.den^(M - 1).
        The moved jet divides by one gcd.
        """
        r = self.order
        wden, sums = self._weights(coeffs, -t)
        top = self.max_degree
        lift = [1]
        for _ in range(top):
            lift.append(lift[-1] * u.den)
        keep = wden * lift[top - 1]
        values_at = _JetEvaluator(u)
        rows = []
        for series, row in zip(sums, u.nums):
            row = [v * keep for v in row]
            for depth in range(1, r + 1):
                for mono, w in series[depth].items():
                    if w:
                        values = values_at.monomial(mono)
                        w *= lift[top - sum(mono)]
                        for i in range(r + 1 - depth):
                            if values[i]:
                                row[i + depth] += w * values[i]
            rows.append(tuple(row))
        return JetPoint(u.chart, r, tuple(rows), wden * lift[top])


def _elem_table(elem: URElem, targets: Sequence[Poly]) -> tuple[_ExpTable, list[Fraction]]:
    """A URElem is a table with one letter per term, each with coefficient 1."""
    return _ExpTable(elem.order, elem.terms, targets), [Fraction(1)] * len(elem.terms)


def u_exp_apply(elem: URElem, f: Poly) -> TruncSeries:
    """The exponential as a finite operator sum applied to a function."""
    if f.nvars != elem.chart.dim:
        raise ValueError("function does not live on the element's chart")
    table, coeffs = _elem_table(elem, (f,))
    return TruncSeries(elem.order, tuple(table.expand(coeffs, elem.t)[0]))


def u_exp_act(elem: URElem, u: JetPoint) -> JetPoint:
    """Group action on jets: the moved jet evaluates coordinates through
    the inverse exponential."""
    if u.chart != elem.chart or u.order != elem.order:
        raise ValueError("jet and group element are incompatible")
    table, coeffs = _elem_table(elem, _coordinates(u.chart.dim))
    return table.act(u, coeffs, elem.t)


def q_membership(u: JetPoint, weighting: WeightedChart) -> bool:
    """Whether the jet lies in the flow-out locus: every weighted
    coordinate of weight w must have vanishing components below index w.

    The test runs on integers.  A rational coordinate num/den is tested on
    num alone: den must be a unit on the jet (a nonzero constant term,
    else ZeroDivisionError), and multiplying by a unit, like scaling by a
    positive integer, does not change which components vanish.
    """
    if u.chart != weighting.source_chart:
        raise ValueError("jet does not live on the weighting's source chart")
    values_at = _JetEvaluator(u)
    for p in range(weighting.dim):
        w = weighting.weights[p]
        if w == 0:
            continue
        f = weighting.forward[p]
        if not f.is_polynomial():
            if not values_at.numerators(f.den)[0][0]:
                raise ZeroDivisionError("series has no invertible constant term")
        series, _ = values_at.numerators(f.num)
        if any(series[: min(w, u.order + 1)]):
            return False
    return True


@record
class QDimension:
    total: int
    base: int
    graded: tuple[int, ...]


def q_dimension(ranks: Sequence[int]) -> QDimension:
    """Dimension of the flow-out locus: the sum of the rank flag, graded
    by level (base dimension first)."""
    total = sum(ranks)
    return QDimension(total=total, base=ranks[0], graded=tuple(ranks[1:]))


_COEFF_POOL = tuple(
    Fraction(num, den) for num in (-2, -1, 1, 2) for den in (1, 2, 3)
)
# scales a pool draw to integers
_POOL_LCM = lcm(*[c.denominator for c in _COEFF_POOL])


@record
class SampleReport:
    """Flow-out sampling outcome: tested counts the samples, all of them.

    certified says that flowout_sample's certificate held.  Then every
    sample lies in the flow-out locus, the certificate decided that
    without a jet being moved, and failed is 0.  Without it, each sample
    was moved and tested one by one, and failed == 0 means only that no
    failing jet turned up among them."""

    tested: int
    failed: int
    first_failure: dict | None
    certified: bool = False

    @property
    def passed(self) -> bool:
        return self.failed == 0


def _random_tangent_jet(
    rng: random.Random, submanifold: Submanifold, order: int
) -> JetPoint:
    """The jet of a curve in the submanifold through its base point:
    component 0 of every row is the base point, and only components
    1..order of the tangent rows are drawn."""
    tangent = set(submanifold.tangent_indices)
    rows = []
    for a, base in enumerate(submanifold.base_point):
        row = [base] + [0] * order
        if a in tangent:
            for i in range(1, order + 1):
                if rng.random() < 0.7:
                    row[i] = rng.choice(_COEFF_POOL)
        rows.append(row)
    return JetPoint.from_rows(submanifold.chart, order, rows)


def _random_element(
    rng: random.Random, table: _ExpTable
) -> tuple[list[Fraction | int], Fraction] | None:
    """Draw a group element as letter coefficients and a time t.

    Each generator is kept with probability 1/2 and a coefficient from the
    pool.  A level whose combination is zero adds no term, and with no
    term at all no t is drawn and nothing is returned.
    """
    coeffs: list[Fraction | int] = []
    for depth, level in enumerate(table.levels, 1):
        drawn = [rng.choice(_COEFF_POOL) if rng.random() < 0.5 else 0 for _ in level]
        # with independent letters only the zero draw is a zero combination
        if table.row_spaces[depth - 1] is not None and table.cancels(
            depth, [c.numerator * (_POOL_LCM // c.denominator) for c in drawn]
        ):
            drawn = [0] * len(level)
        coeffs.extend(drawn)
    if not any(coeffs):
        return None
    return coeffs, rng.choice(_COEFF_POOL)


def _flowout_certified(
    filtration: Filtration, submanifold: Submanifold, weighting: WeightedChart
) -> bool:
    """Whether every generator listed at level -j has filtration degree at
    least -j in the weighting, and the submanifold and its base point are
    the ones the weighting was built along.  A generator listed at several
    levels needs the bound of the first."""
    first_level: dict[VectorField, int] = {}
    for j, gens in enumerate(filtration.levels, 1):
        for x in gens:
            first_level.setdefault(x, j)
    return submanifold == weighting.submanifold and all(
        vf_filtration_degree(x, weighting) >= -j for x, j in first_level.items()
    )


def flowout_sample(
    filtration: Filtration,
    submanifold: Submanifold,
    weighting: WeightedChart,
    count: int,
    seed: int,
) -> SampleReport:
    """Flow-out check: products of unipotent exponentials built from the
    filtration levels, applied to jets of the submanifold, must all
    satisfy the weighted membership equations.  Deterministic for a fixed
    (count, seed), and the counts equal _sample_by_moving's.

    The outcome is decided before anything is drawn.  The filtration is
    certified when every generator X listed at level -j has
    vf_filtration_degree(X, weighting) >= -j, and the submanifold is the
    weighting's.  Then every sample passes:

    - Let Q = {phi_p^(i) = 0 for i < w_p} in the jets, phi_p the weighted
      coordinate of weight w_p.  The depth-j lift of X has component
      lift_all(X(phi_p))[i - j] along phi_p^(i).  On Q a weighted monomial
      of weighted degree d starts at eps^d, and the weighted chart's
      denominators are functions on N, of weight 0 and units on the chart.
      So when X(phi_p) has weighted degree >= w_p - j, that component
      vanishes on Q for every i < w_p: every lifted letter is tangent to
      Q, a coordinate subspace of the lifted weighted chart.
    - A sampled element exp(t * sum_L c_L eps^(j_L) X_L) is a finite sum
      of powers of such a field, and each power maps the ideal of Q into
      itself, so the element keeps Q.
    - A start jet has zero fiber rows, so it lies in the jets of N, and
      each positive-weight coordinate vanishes on N.  weighted_coordinates
      guarantees that: it requires the filtration_degree of every fiber
      coordinate to equal its weight, at least 1, and the empty word, of
      weighted order 0, is among the words that test sees, so a
      coordinate not vanishing on N would have degree 0 and raise.
    - Every sample has its base point at m.  normalize_chart requires the
      frame pairing, a polynomial matrix on N, to be nonsingular at m, and
      every denominator of the weighted chart divides a power of its
      determinant, so no sample meets a pole.

    So a certified run draws, moves and tests nothing: tested is count and
    failed is 0.  Without the certificate the samples are moved and tested
    by _sample_by_moving, whose first_failure is a failing jet."""
    if not _flowout_certified(filtration, submanifold, weighting):
        return _sample_by_moving(filtration, submanifold, weighting, count, seed)
    return SampleReport(count, 0, None, certified=True)


def _sample_by_moving(
    filtration: Filtration,
    submanifold: Submanifold,
    weighting: WeightedChart,
    count: int,
    seed: int,
) -> SampleReport:
    """The randomized flow-out check itself: each sample, a tangent jet of
    the submanifold at its base point, is moved by one to three group
    elements and tested with q_membership."""
    table = _ExpTable.of_filtration(filtration)
    rng = random.Random(seed)
    failed = 0
    first = None
    for k in range(count):
        u = _random_tangent_jet(rng, submanifold, table.order)
        for _ in range(rng.randrange(1, 4)):
            elem = _random_element(rng, table)
            if elem is not None:
                u = table.act(u, *elem)
        if not q_membership(u, weighting):
            failed += 1
            if first is None:
                first = {
                    "sample": k,
                    "components": [[str(c) for c in row] for row in u.comps],
                }
    return SampleReport(count, failed, first)
