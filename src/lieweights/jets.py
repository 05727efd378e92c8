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

The sampler draws from one random.Random(seed) in a fixed order, so a
report depends only on (count, seed).  Per sample: components 1..r of
each tangent row (random() < 0.7, then choice() when kept), then
randrange(1, 4) group elements.  Per element, level by
level and generator by generator, random() < 0.5 decides whether the
generator is kept and a kept one draws its coefficient with choice(); a
level whose kept combination sum_g c_g g is zero adds no term.  The time
t is drawn with choice() last, and only when some level added a term;
otherwise the element is skipped.  Each element is a URElem, and
u_exp_act, the group action on jets, moves the sample by it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from .exactalg import Poly, RatFunc, record
from .lieflt import Filtration, Submanifold
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
    _chart: Chart

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("jet order must be at least 1")
        names = []
        for name in self.base.names:
            for i in range(self.order + 1):
                names.append(f"{name}_{i}")
        if len(set(names)) != len(names):
            raise ValueError("jet component names collide; rename base variables")
        object.__setattr__(self, "_chart", Chart(tuple(names)))

    @property
    def chart(self) -> Chart:
        return self._chart

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
    """Order-r jet: comps[a][i] is the epsilon^i component of coordinate a."""

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
        """The jet with the given components: anything Fraction accepts."""
        return cls(chart, order, tuple(tuple(Fraction(v) for v in row) for row in rows))

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
    if isinstance(f, RatFunc):
        return eval_jet(u, f.num) * eval_jet(u, f.den).inverse()
    if f.nvars != u.chart.dim:
        raise ValueError("function does not live on the jet's base chart")
    r = u.order
    rows = [TruncSeries(r, row) for row in u.comps]
    zeros = (Fraction(0),) * r
    total = TruncSeries(r, (Fraction(0),) + zeros)
    for mono, c in f.terms.items():
        term = TruncSeries(r, (c,) + zeros)
        for row, e in zip(rows, mono):
            for _ in range(e):
                term = term * row
        total = total + term
    return total


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


def u_exp_apply(elem: URElem, f: Poly) -> TruncSeries:
    """The exponential as a finite operator sum applied to a function: the
    eps-coefficients of sum_k (t Y)^k / k! f, Y = sum_j eps^j X_j.  Every
    depth j is at least 1, so (t Y)^k f starts at eps^k and the sum stops
    after k = order."""
    if f.nvars != elem.chart.dim:
        raise ValueError("function does not live on the element's chart")
    r = elem.order
    zero = Poly.zero(f.nvars)
    current = [f] + [zero] * r
    total = list(current)
    k = 0
    while any(current):
        k += 1
        moved = [zero] * (r + 1)
        for j, x in elem.terms:
            for i in range(r + 1 - j):
                if current[i]:
                    moved[i + j] = moved[i + j] + x.apply(current[i])
        current = [p * (elem.t / k) for p in moved]
        total = [a + b for a, b in zip(total, current)]
    return TruncSeries(r, tuple(total))


def u_exp_act(elem: URElem, u: JetPoint) -> JetPoint:
    """Group action on jets: row a of the moved jet is exp(-t Y) x_a
    evaluated on u."""
    if u.chart != elem.chart or u.order != elem.order:
        raise ValueError("jet and group element are incompatible")
    inverse = elem.inverse()
    n = u.chart.dim
    rows = []
    for a in range(n):
        row = TruncSeries(u.order, (Fraction(0),) * (u.order + 1))
        for k, p in enumerate(u_exp_apply(inverse, Poly.variable(n, a)).coefficients):
            if p:
                row = row + eval_jet(u, p).shift(k)
        rows.append(row.coefficients)
    return JetPoint(u.chart, u.order, tuple(rows))


def q_membership(u: JetPoint, weighting: WeightedChart) -> bool:
    """Whether the jet lies in the flow-out locus: every weighted
    coordinate of weight w must have vanishing components below index w.
    A rational coordinate needs a unit denominator on the jet, else
    ZeroDivisionError."""
    if u.chart != weighting.source_chart:
        raise ValueError("jet does not live on the weighting's source chart")
    for p in range(weighting.dim):
        w = weighting.weights[p]
        if w == 0:
            continue
        series = eval_jet(u, weighting.forward[p])
        if any(series.coefficients[: min(w, u.order + 1)]):
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


def _random_element(rng: random.Random, filtration: Filtration) -> URElem | None:
    """Draw a group element: per level, the sum of its kept generators.

    Each generator is kept with probability 1/2 and a coefficient from the
    pool.  A level whose sum is zero adds no term, and with no term at all
    no t is drawn and nothing is returned.
    """
    chart = filtration.chart
    terms = []
    for depth, gens in enumerate(filtration.levels, 1):
        level = VectorField(chart, [0] * chart.dim)
        for g in gens:
            if rng.random() < 0.5:
                level = level + g.scale(rng.choice(_COEFF_POOL))
        if not level.is_zero():
            terms.append((depth, level))
    if not terms:
        return None
    return URElem(chart, filtration.order, tuple(terms), rng.choice(_COEFF_POOL))


def _flowout_certified(filtration: Filtration, weighting: WeightedChart) -> bool:
    """Whether every generator listed at level -j has filtration degree at
    least -j in the weighting.  A generator listed at several levels needs
    the bound of the first."""
    first_level: dict[VectorField, int] = {}
    for j, gens in enumerate(filtration.levels, 1):
        for x in gens:
            first_level.setdefault(x, j)
    return all(vf_filtration_degree(x, weighting) >= -j for x, j in first_level.items())


def flowout_sample(
    filtration: Filtration, weighting: WeightedChart, count: int, seed: int
) -> SampleReport:
    """Flow-out check: products of unipotent exponentials built from the
    filtration levels, applied to jets of the weighting's submanifold, must
    all satisfy the weighted membership equations.  Deterministic for a
    fixed (count, seed), and the counts equal _sample_by_moving's.

    The outcome is decided before anything is drawn.  The filtration is
    certified when every generator X listed at level -j has
    vf_filtration_degree(X, weighting) >= -j.  Then every sample passes:

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
    if not _flowout_certified(filtration, weighting):
        return _sample_by_moving(filtration, weighting, count, seed)
    return SampleReport(count, 0, None, certified=True)


def _sample_by_moving(
    filtration: Filtration, weighting: WeightedChart, count: int, seed: int
) -> SampleReport:
    """The randomized flow-out check itself: each sample, a tangent jet of
    the weighting's submanifold at its base point, is moved by one to
    three group elements and tested with q_membership."""
    rng = random.Random(seed)
    failed = 0
    first = None
    for k in range(count):
        u = _random_tangent_jet(rng, weighting.submanifold, filtration.order)
        for _ in range(rng.randrange(1, 4)):
            elem = _random_element(rng, filtration)
            if elem is not None:
                u = u_exp_act(elem, u)
        if not q_membership(u, weighting):
            failed += 1
            if first is None:
                first = {
                    "sample": k,
                    "components": [[str(c) for c in row] for row in u.comps],
                }
    return SampleReport(count, failed, first)
