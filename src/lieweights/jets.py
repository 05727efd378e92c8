"""Higher-order tangent bundles as truncated polynomial jets.

A jet of order r at a curve records the coefficients of each coordinate up
to epsilon^r, with epsilon^(r+1) = 0.  Functions and vector fields on the
base chart lift to the jet chart: a function splits into graded components
(one per epsilon power) and a vector field lifts at every vertical depth j
by shifting which component slots it differentiates into.  Exponentials of
depth-graded families act on jets unipotently; the flow-out of the jets of
a submanifold under such exponentials built from a filtration is cut out
by weighted-coordinate equations, which is what flowout_sample verifies.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactalg import Poly, RatFunc
from .lieflt import Filtration, Submanifold
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

    powers[a][e - 1] is the coefficient list of (row a)^e; the table of a
    row grows on demand and is shared by every function evaluated.
    """

    def __init__(self, u: JetPoint):
        self.u = u
        self.powers = [[list(row)] for row in u.comps]

    def power(self, a: int, e: int) -> list[Fraction]:
        table = self.powers[a]
        while len(table) < e:
            table.append(_trunc_mul(table[-1], table[0], self.u.order))
        return table[e - 1]

    def __call__(self, f: Scalar) -> TruncSeries:
        if isinstance(f, RatFunc):
            return self(f.num) * self(f.den).inverse()
        if f.nvars != self.u.chart.dim:
            raise ValueError("function does not live on the jet's base chart")
        r = self.u.order
        total = [Fraction(0)] * (r + 1)
        for mono, c in f.terms.items():
            term = None
            for a, e in enumerate(mono):
                if e:
                    p = self.power(a, e)
                    term = [c * v for v in p] if term is None else _trunc_mul(term, p, r)
            if term is None:
                total[0] += c
                continue
            for i, v in enumerate(term):
                if v:
                    total[i] += v
        return TruncSeries(r, tuple(total))


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


def scalar_action(t: Fraction | int, u: JetPoint) -> JetPoint:
    """Component i scales by t^i; t = 0 collapses to the base point."""
    t = Fraction(t)
    return JetPoint(
        u.chart,
        u.order,
        tuple(tuple(c * t**i for i, c in enumerate(row)) for row in u.comps),
    )


def tm_action(v: Sequence[Fraction | int], u: JetPoint) -> JetPoint:
    """Translation by an ambient tangent vector in the top component slot."""
    if len(v) != u.chart.dim:
        raise ValueError("tangent vector has wrong dimension")
    rows = []
    for a, row in enumerate(u.comps):
        moved = list(row)
        moved[u.order] = moved[u.order] - Fraction(v[a])
        rows.append(tuple(moved))
    return JetPoint(u.chart, u.order, tuple(rows))


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


# t * sum_j X_j eps^j as (depth j, [(a, t * coefficient of d/dx_a in X_j)]),
# zero coefficients left out
PolyTerms = list[tuple[int, list[tuple[int, Poly]]]]


def _poly_terms(elem: URElem) -> PolyTerms:
    return [
        (j, [(a, c * elem.t) for a, c in enumerate(x.poly_coeffs()) if c])
        for j, x in elem.terms
    ]


def _ur_generator_apply(terms: PolyTerms, coeffs: Sequence[Poly]) -> list[Poly]:
    """One application of t * sum_j X_j eps^j to a function-coefficient series."""
    r = len(coeffs) - 1
    out = [Poly.zero(coeffs[0].nvars)] * (r + 1)
    for j, field in terms:
        for i in range(r + 1 - j):
            coeff = coeffs[i]
            if not coeff:
                continue
            moved = out[i + j]
            for a, c in field:
                moved = moved + c * coeff.diff(a)
            out[i + j] = moved
    return out


def _exp_series(terms: PolyTerms, order: int, f: Poly) -> list[Poly]:
    """Coefficients of the exponential applied to f.

    Each application of the generator raises the epsilon-degree, so the
    series terminates; the step count is asserted against the order.
    """
    current = [f] + [Poly.zero(f.nvars)] * order
    total = current
    k = 0
    while any(current):
        k += 1
        assert k <= order + 1, "unipotent exponential failed to terminate"
        # term k is the generator applied to term k - 1, divided by k
        current = _ur_generator_apply(terms, current)
        if k > 1:
            step = Fraction(1, k)
            current = [c * step for c in current]
        total = [a + b for a, b in zip(total, current)]
    return total


def u_exp_apply(elem: URElem, f: Poly) -> TruncSeries:
    """The exponential as a finite operator sum applied to a function."""
    if f.nvars != elem.chart.dim:
        raise ValueError("function does not live on the element's chart")
    return TruncSeries(elem.order, tuple(_exp_series(_poly_terms(elem), elem.order, f)))


def u_exp_act(elem: URElem, u: JetPoint) -> JetPoint:
    """Group action on jets: the moved jet evaluates coordinates through
    the inverse exponential."""
    if u.chart != elem.chart or u.order != elem.order:
        raise ValueError("jet and group element are incompatible")
    terms = _poly_terms(elem.inverse())
    values_at = _JetEvaluator(u)
    n = u.chart.dim
    r = u.order
    rows = []
    for a in range(n):
        image = _exp_series(terms, r, Poly.variable(n, a))
        acc = [Fraction(0)] * (r + 1)
        for k, coeff in enumerate(image):
            if not coeff:
                continue
            values = values_at(coeff)
            for i, c in enumerate(values.coefficients):
                if i + k <= r and c:
                    acc[i + k] += c
        rows.append(tuple(acc))
    return JetPoint(u.chart, r, tuple(rows))


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


def _random_ur_element(rng: random.Random, filtration: Filtration) -> URElem | None:
    chart = filtration.chart
    terms = []
    for j in range(1, filtration.order + 1):
        combo: list[Poly] | None = None
        for g in filtration.levels[j - 1]:
            if rng.random() < 0.5:
                c = rng.choice(_COEFF_POOL)
                scaled = [p * c for p in g.poly_coeffs()]
                combo = scaled if combo is None else [a + b for a, b in zip(combo, scaled)]
        if combo is not None and any(combo):
            terms.append((j, VectorField(chart, combo)))
    if not terms:
        return None
    return URElem(chart, filtration.order, tuple(terms), rng.choice(_COEFF_POOL))


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
    rng = random.Random(seed)
    failed = 0
    first = None
    for k in range(count):
        u = _random_tangent_jet(rng, submanifold, filtration.order)
        for _ in range(rng.randrange(1, 4)):
            elem = _random_ur_element(rng, filtration)
            if elem is not None:
                u = u_exp_act(elem, u)
        if not q_membership(u, weighting):
            failed += 1
            if first is None:
                first = {
                    "sample": k,
                    "components": [[str(c) for c in row] for row in u.comps],
                }
    return SampleReport(tested=count, failed=failed, first_failure=first)
