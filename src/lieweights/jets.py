"""Higher-order tangent bundles as truncated polynomial jets.

A jet of order r at a curve records the coefficients of each coordinate up
to epsilon^r, with epsilon^(r+1) = 0.  Functions and vector fields on the
base chart lift to the jet chart: a function splits into graded components
(one per epsilon power) and a vector field lifts at every vertical depth j
by shifting which component slots it differentiates into.  Exponentials of
depth-graded families act on jets unipotently; the flow-out of the jets of
a submanifold under such exponentials built from a filtration is cut out
by weighted-coordinate equations, which is what flowout_sample verifies.

The exponentials are expanded in words.  With Y = sum_L c_L eps^(j_L) X_L,
one letter L per listed generator X_L of level -j_L, the power Y^k x_a is
multilinear in the coefficients: the sum over words L1..Lk of
c_L1...c_Lk eps^(j_L1 + ... + j_Lk) X_L1(...X_Lk(x_a)).  Only words of
depth sum at most r survive the truncation, so _ExpTable computes their
polynomials once per filtration, one per field sequence.  A sampled group
element is then a coefficient vector and a time t, and moving a jet by it
is rational arithmetic on the table: no Poly, RatFunc or VectorField is
built per sample.  u_exp_act and u_exp_apply use the same table, with one
letter of coefficient 1 per term of the URElem.

flowout_sample draws from one random.Random(seed) in a fixed order, so a
report depends only on (count, seed).  Per sample: each component of each
tangent row (random() < 0.7, then choice() when kept), then
randrange(1, 4) group elements.  Per element, level by
level and generator by generator, random() < 0.5 decides whether the
generator is kept and a kept one draws its coefficient with choice(); a
level whose kept combination sum_g c_g g is zero adds no term.  The time
t is drawn with choice() last, and only when some level added a term;
otherwise the element is skipped.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactalg import Poly, RatFunc, RowEchelon
from .lieflt import Filtration, Submanifold, field_entries, module_solve
from .vfield import Chart, VectorField
from .weightcoord import WeightedChart

Scalar = Poly | RatFunc


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class JetPoint:
    """Order-r jet: the epsilon-components of every base coordinate."""

    chart: Chart
    order: int
    comps: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if len(self.comps) != self.chart.dim or any(
            len(row) != self.order + 1 for row in self.comps
        ):
            raise ValueError("jet components must be dim x (order + 1)")

    @classmethod
    def from_rows(cls, chart: Chart, order: int, rows) -> "JetPoint":
        return cls(
            chart,
            order,
            tuple(tuple(Fraction(v) for v in row) for row in rows),
        )

    @classmethod
    def zero(cls, chart: Chart, order: int) -> "JetPoint":
        return cls(chart, order, tuple((Fraction(0),) * (order + 1) for _ in range(chart.dim)))

    def base_point(self) -> tuple[Fraction, ...]:
        return tuple(row[0] for row in self.comps)

    def flat(self) -> tuple[Fraction, ...]:
        """Components in jet-chart variable order."""
        return tuple(c for row in self.comps for c in row)


def eval_jet(u: JetPoint, f: Scalar) -> TruncSeries:
    """Value of a function on the jet: substitute each coordinate's
    truncated series and expand.  The result is a unital algebra morphism
    in f.  Rational functions require the denominator to be a unit at the
    jet's base point."""
    return _JetEvaluator(u)(f)


class _JetEvaluator:
    """eval_jet for any number of functions on one jet.

    powers[a][e - 1] is the coefficient list of (row a)^e and monomials
    maps an exponent tuple to its coefficient list; both grow on demand
    and are shared by every function evaluated.
    """

    def __init__(self, u: JetPoint):
        self.u = u
        self.powers = [[list(row)] for row in u.comps]
        self.monomials: dict[tuple[int, ...], list[Fraction]] = {}

    def power(self, a: int, e: int) -> list[Fraction]:
        table = self.powers[a]
        while len(table) < e:
            table.append(_trunc_mul(table[-1], table[0], self.u.order))
        return table[e - 1]

    def monomial(self, mono: tuple[int, ...]) -> list[Fraction]:
        """Coefficient list of the monomial on the jet; do not mutate it."""
        series = self.monomials.get(mono)
        if series is None:
            r = self.u.order
            for a, e in enumerate(mono):
                if e:
                    p = self.power(a, e)
                    series = p if series is None else _trunc_mul(series, p, r)
            if series is None:
                series = [Fraction(1)] + [Fraction(0)] * r
            self.monomials[mono] = series
        return series

    def __call__(self, f: Scalar) -> TruncSeries:
        if isinstance(f, RatFunc):
            if f.is_polynomial():
                return self(f.num)
            return self(f.num) * self(f.den).inverse()
        if f.nvars != self.u.chart.dim:
            raise ValueError("function does not live on the jet's base chart")
        total = [Fraction(0)] * (self.u.order + 1)
        for mono, c in f.terms.items():
            for i, v in enumerate(self.monomial(mono)):
                if v:
                    total[i] += c * v
        return TruncSeries(self.u.order, tuple(total))


def _trunc_mul(p: Sequence[Fraction], q: Sequence[Fraction], r: int) -> list[Fraction]:
    """Product of two coefficient lists, truncated after epsilon^r."""
    out = [Fraction(0)] * (r + 1)
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


@dataclass(frozen=True)
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
    if not x.has_poly_coeffs():
        raise ValueError("lifting requires polynomial coefficients")
    n = jc.base.dim
    r = jc.order
    coeffs: list[Poly] = [Poly.zero(jc.dim) for _ in range(jc.dim)]
    for a, comp in enumerate(x.poly_coeffs()):
        if comp.is_zero():
            continue
        pieces = lift_all(jc, comp)
        for i in range(r + 1 - j):
            coeffs[jc.index(a, i + j)] = coeffs[jc.index(a, i + j)] + pieces[i]
    return LiftedVF(jc, x, j, VectorField(jc.chart, coeffs))


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
            if not x.has_poly_coeffs():
                raise ValueError("unipotent terms require polynomial coefficients")

    def inverse(self) -> "URElem":
        return URElem(self.chart, self.order, self.terms, -self.t)


def _coordinates(n: int) -> tuple[Poly, ...]:
    return tuple(Poly.variable(n, a) for a in range(n))


class _ExpTable:
    """Word expansion of exp(s * Y), Y = sum_L c_L * eps^(depth L) * X_L,
    on fixed target functions, with the letter coefficients c_L and the
    time s left free.

    Y^k f is the sum, over words L1..Lk of depth sum at most the order,
    of c_L1...c_Lk eps^(depth sum) X_L1(...X_Lk(f)).  `entries` lists
    (polys, words) per field sequence: polys holds X_L1(...X_Lk(f)) for
    each target f, shared by every word with that field sequence (levels
    repeat generators), and words the (letter indices, depth sum) of
    those words.  The empty word, which leaves the targets as they are,
    has no entry.  A field sequence whose polynomials are all zero is
    dropped together with every extension of it.  `levels` groups the
    letter indices by depth 1..order, and `relations[d - 1]` spans the
    coefficient vectors on level d's letters whose combination of fields
    is zero.
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
        self.relations = tuple(
            RowEchelon(module_solve([letter_entries[i] for i in level]).nullspace)
            for level in self.levels
        )
        self.entries: list[tuple[tuple[Poly, ...], list]] = []
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
            self.entries.extend(extended)
            current = extended

    @classmethod
    def of_filtration(cls, filtration: Filtration) -> "_ExpTable":
        """One letter per listed generator, level by level, acting on the
        coordinate functions."""
        letters = [
            (j, g) for j, gens in enumerate(filtration.levels, 1) for g in gens
        ]
        return cls(filtration.order, letters, _coordinates(filtration.chart.dim))

    def _weights(self, coeffs: Sequence[Fraction], s: Fraction):
        """(polys, {depth: weight}) per entry with a nonzero weight, where
        a word of length k weighs c_L1...c_Lk * s^k / k!."""
        scale = [Fraction(1)]
        for k in range(1, self.order + 1):
            scale.append(scale[-1] * s / k)
        for polys, words in self.entries:
            by_depth: dict[int, Fraction] = {}
            for word, depth in words:
                w = scale[len(word)]
                for i in word:
                    if not coeffs[i]:
                        break
                    w *= coeffs[i]
                else:
                    if w:
                        by_depth[depth] = by_depth.get(depth, 0) + w
            if by_depth:
                yield polys, by_depth

    def expand(self, coeffs: Sequence[Fraction], t: Fraction) -> list[list[Poly]]:
        """The eps-coefficients of exp(t * Y) f for every target f."""
        out = [[f] + [Poly.zero(f.nvars)] * self.order for f in self.targets]
        for polys, by_depth in self._weights(coeffs, t):
            for series, p in zip(out, polys):
                if p:
                    for depth, w in by_depth.items():
                        series[depth] = series[depth] + p * w
        return out

    def act(self, u: JetPoint, coeffs: Sequence[Fraction], t: Fraction) -> JetPoint:
        """The group element (coeffs, t) moves the jet: row a of the result
        is exp(-t * Y) x_a evaluated on u.  The targets must be the
        coordinate functions."""
        r = self.order
        # per target: the weight of each (depth, monomial) over all words
        combined: list[dict] = [{} for _ in self.targets]
        for polys, by_depth in self._weights(coeffs, -t):
            for acc, p in zip(combined, polys):
                for mono, c in p.terms.items():
                    for depth, w in by_depth.items():
                        key = (depth, mono)
                        acc[key] = acc.get(key, 0) + w * c
        values_at = _JetEvaluator(u)
        rows = []
        for acc, row in zip(combined, u.comps):
            row = list(row)
            for (depth, mono), w in acc.items():
                if w:
                    series = values_at.monomial(mono)
                    for i in range(r + 1 - depth):
                        if series[i]:
                            row[i + depth] += w * series[i]
            rows.append(tuple(row))
        return JetPoint(u.chart, r, tuple(rows))


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
    coordinate of weight w must have vanishing components below index w."""
    if u.chart != weighting.source_chart:
        raise ValueError("jet does not live on the weighting's source chart")
    values_at = _JetEvaluator(u)
    for p in range(weighting.dim):
        w = weighting.weights[p]
        if w == 0:
            continue
        series = values_at(weighting.forward[p])
        for i in range(min(w, u.order + 1)):
            if series.coefficients[i]:
                return False
    return True


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class SampleReport:
    tested: int
    failed: int
    first_failure: dict | None

    @property
    def passed(self) -> bool:
        return self.failed == 0


def _random_tangent_jet(
    rng: random.Random, submanifold: Submanifold, order: int
) -> JetPoint:
    chart = submanifold.chart
    rows = []
    tangent = set(submanifold.tangent_indices)
    for a in range(chart.dim):
        if a in tangent:
            row = tuple(
                rng.choice(_COEFF_POOL) if rng.random() < 0.7 else Fraction(0)
                for _ in range(order + 1)
            )
        else:
            row = (Fraction(0),) * (order + 1)
        rows.append(row)
    return JetPoint(chart, order, tuple(rows))


def _random_element(
    rng: random.Random, table: _ExpTable
) -> tuple[list[Fraction], Fraction] | None:
    """Draw a group element as letter coefficients and a time t.

    Each generator is kept with probability 1/2 and a coefficient from the
    pool.  A level whose combination is zero adds no term, and with no
    term at all no t is drawn and nothing is returned.
    """
    coeffs: list[Fraction] = []
    for level, relations in zip(table.levels, table.relations):
        drawn = [
            rng.choice(_COEFF_POOL) if rng.random() < 0.5 else Fraction(0)
            for _ in level
        ]
        coeffs.extend([Fraction(0)] * len(level) if relations.contains(drawn) else drawn)
    if not any(coeffs):
        return None
    return coeffs, rng.choice(_COEFF_POOL)


def flowout_sample(
    filtration: Filtration,
    submanifold: Submanifold,
    weighting: WeightedChart,
    count: int,
    seed: int,
) -> SampleReport:
    """Randomized flow-out check: products of unipotent exponentials built
    from the filtration levels, applied to jets of the submanifold, must
    all satisfy the weighted membership equations.  Deterministic for a
    fixed (count, seed)."""
    table = _ExpTable.of_filtration(filtration)
    rng = random.Random(seed)
    failed = 0
    first = None
    for k in range(count):
        u = _random_tangent_jet(rng, submanifold, filtration.order)
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
    return SampleReport(tested=count, failed=failed, first_failure=first)
