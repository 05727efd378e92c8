"""Higher-order tangent bundles as truncated polynomial jets.

A jet of order r at a curve records the coefficients of each coordinate up
to epsilon^r, with epsilon^(r+1) = 0.  Functions and vector fields on the
base chart lift to the jet chart: a function splits into graded components
(one per epsilon power) and a vector field lifts at every vertical depth j
by shifting which component slots it differentiates into.  Exponentials of
depth-graded families act on jets unipotently; the flow-out of the jets of
a submanifold under such exponentials built from a filtration is cut out
by weighted-coordinate equations, which is what flowout_sample verifies.

Every value on a jet is one exactalg.substitute call.  Each coordinate's
series sum_i u[a][i] eps^i is a Poly whose last variable is eps (after the
components' variables, of which a rational jet has none); eval_jet
substitutes them into a function, lift_all into a function on the base of
the symbolic jet, and u_exp_act into every row exp(-t Y) x_a of a move,
written as one Poly in x and eps, with eps itself as eps's image.  The
terms past eps^r are dropped after the expansion.

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

from .exactalg import Poly, RatFunc, Scalar, derive_into, record, substitute
from .lieflt import Filtration, Submanifold
from .vfield import Chart, VectorField
from .weightcoord import WeightedChart, vf_filtration_degree


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


@record
class JetPoint:
    """Order-r jet: comps[a][i] is the epsilon^i component of coordinate a.

    Components may be any exact ring element: Fractions for a point of
    the jet bundle, or jet-chart Polys for the symbolic jet whose
    component (a, i) is the variable of that slot (lift_all).
    """

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

    def flat(self) -> tuple[Fraction, ...]:
        """Components in jet-chart variable order."""
        return tuple(c for row in self.comps for c in row)


def _series_images(u: JetPoint) -> tuple[list[Poly], int]:
    """Each coordinate's series sum_i u[a][i] * eps^i as a Poly whose last
    variable is eps, and the number m of variables before it: the
    components' variables, none for a rational jet."""
    m = next((c.nvars for row in u.comps for c in row if isinstance(c, Poly)), 0)
    images = []
    for row in u.comps:
        terms = {}
        for i, c in enumerate(row):
            for mono, v in (c if isinstance(c, Poly) else Poly.const(m, c)).terms.items():
                terms[mono + (i,)] = v
        images.append(Poly.from_sum(m + 1, terms))
    return images, m


def _truncated(p: Poly, order: int, m: int) -> tuple:
    """The coefficients of eps^0..eps^order in p, eps its last variable:
    Fractions when m is 0, else Polys in the m variables before eps."""
    parts: list[dict] = [{} for _ in range(order + 1)]
    for mono, c in p.terms.items():
        if mono[-1] <= order:
            parts[mono[-1]][mono[:-1]] = c
    if m:
        return tuple(Poly.from_sum(m, part) for part in parts)
    return tuple(Fraction(part.get((), 0)) for part in parts)


def eval_jet(u: JetPoint, f: Scalar) -> tuple:
    """Value of a function on the jet: the coefficients of eps^0..eps^r of
    f evaluated on the coordinates' series, r the jet's order.

    Each series is a Poly in the components' variables (none for a
    rational jet) and eps, and one substitute call expands f, or the
    numerator and denominator of a RatFunc together, into them; the terms
    past eps^r are dropped.  The result is a unital algebra morphism in f,
    with Fraction values on a rational jet and Poly values on a symbolic
    one.  A RatFunc's value is the series quotient of the two, which needs
    a nonzero rational constant term in the denominator's series, a unit
    at the jet's base point; otherwise ZeroDivisionError."""
    if f.nvars != u.chart.dim:
        raise ValueError("function does not live on the jet's base chart")
    images, m = _series_images(u)
    parts = (f.num, f.den) if isinstance(f, RatFunc) else (f,)
    series = [_truncated(p, u.order, m) for p in substitute(parts, images)]
    if len(series) == 1:
        return series[0]
    num, den = series
    if not isinstance(den[0], (int, Fraction)) or not den[0]:
        raise ZeroDivisionError("series has no invertible constant term")
    quotient: list = []
    for k, c in enumerate(num):
        quotient.append((c - sum(den[i] * quotient[k - i] for i in range(1, k + 1))) / den[0])
    return tuple(quotient)


def lift_all(jc: JetChart, f: Poly) -> tuple[Poly, ...]:
    """All graded components of a function on the jet chart at once, as a
    tuple of jet-chart Polys.

    Component i is the coefficient of epsilon^i in f evaluated on the
    symbolic jet, whose component (a, i) is the jet-chart variable of that
    slot: eval_jet on that jet, so one substitute call.  Component 0 is the
    pullback of f through the base projection.
    """
    if f.nvars != jc.base.dim:
        raise ValueError("function does not live on the jet chart's base")
    comps = tuple(
        tuple(Poly.variable(jc.dim, jc.index(a, i)) for i in range(jc.order + 1))
        for a in range(jc.base.dim)
    )
    return eval_jet(JetPoint(jc.base, jc.order, comps), f)


def lift_function(jc: JetChart, f: Poly, i: int) -> Poly:
    """Component i of a lifted function, as a polynomial on the jet chart."""
    if not 0 <= i <= jc.order:
        raise ValueError("component index out of range")
    return lift_all(jc, f)[i]


def lift_vf(jc: JetChart, x: VectorField, j: int) -> VectorField:
    """A vector field lifted to the jet chart at vertical depth j.

    Depth 0 is the tangent lift; depth j >= 1 shifts every target slot by
    j and is vertical (it kills all components of index below j).
    """
    if x.chart != jc.base:
        raise ValueError("field does not live on the jet chart's base")
    if not 0 <= j <= jc.order:
        raise ValueError("lift depth out of range")
    r = jc.order
    coeffs: list[Poly] = [Poly.zero(jc.dim) for _ in range(jc.dim)]
    for a, comp in enumerate(x.coeffs):
        if comp.is_zero():
            continue
        pieces = lift_all(jc, comp)
        for i in range(r + 1 - j):
            coeffs[jc.index(a, i + j)] = coeffs[jc.index(a, i + j)] + pieces[i]
    return VectorField(jc.chart, coeffs)


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
            total = total + lift_vf(self.jet_chart, x, j).scale(g)
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
    automorphism of functions valued in the polynomials in eps modulo
    eps^(order+1), whose eps-coefficients u_exp_apply gives."""

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


def u_exp_apply(elem: URElem, f: Poly) -> tuple[Poly, ...]:
    """The exponential as a finite operator sum applied to a function: the
    tuple of eps-coefficients of sum_k (t Y)^k / k! f, eps^0 to eps^order,
    Y = sum_j eps^j X_j.  Every depth j is at least 1, so (t Y)^k f starts
    at eps^k and the sum stops after k = order.  Step k adds (t / k) X_j of
    every eps-power of step k - 1 into one dict per eps-power, through
    exactalg.derive_into."""
    n = f.nvars
    if n != elem.chart.dim:
        raise ValueError("function does not live on the element's chart")
    r = elem.order
    current = [f] + [Poly.zero(n)] * r
    total = list(current)
    k = 0
    while any(current):
        k += 1
        factor = elem.t / k
        moved: list[dict] = [{} for _ in range(r + 1)]
        for j, x in elem.terms:
            for i in range(r + 1 - j):
                if current[i]:
                    derive_into(moved[i + j], x.coeffs, current[i].terms, factor)
        current = [Poly.from_sum(n, out) for out in moved]
        total = [a + b for a, b in zip(total, current)]
    return tuple(total)


def u_exp_act(elem: URElem, u: JetPoint) -> JetPoint:
    """Group action on jets: row a of the moved jet is exp(-t Y) x_a
    evaluated on u.

    Each exp(-t Y) x_a is written as one Poly in x and eps, the sum of its
    eps^k coefficients (u_exp_apply) times eps^k, and one substitute call
    evaluates every row on u: x_b goes to the series of row b of u, as
    eval_jet builds it, and eps to eps itself.  The terms past eps^order
    are dropped."""
    if u.chart != elem.chart or u.order != elem.order:
        raise ValueError("jet and group element are incompatible")
    inverse = elem.inverse()
    n = u.chart.dim
    rows = []
    for a in range(n):
        terms = {}
        for k, p in enumerate(u_exp_apply(inverse, Poly.variable(n, a))):
            for mono, c in p.terms.items():
                terms[mono + (k,)] = c
        rows.append(Poly.from_sum(n + 1, terms))
    images, m = _series_images(u)
    moved = substitute(rows, [*images, Poly.variable(m + 1, m)])
    return JetPoint(u.chart, u.order, tuple(_truncated(p, u.order, m) for p in moved))


def q_membership(u: JetPoint, weighting: WeightedChart) -> bool:
    """Whether the jet lies in the flow-out locus: every weighted
    coordinate of weight w must have vanishing components below index w.
    Each coordinate is evaluated by its own eval_jet call, in position
    order, and the first one with a nonzero low component decides.  A
    rational coordinate needs a unit denominator on the jet, else
    ZeroDivisionError."""
    if u.chart != weighting.source_chart:
        raise ValueError("jet does not live on the weighting's source chart")
    for p in range(weighting.dim):
        w = weighting.weights[p]
        if w == 0:
            continue
        series = eval_jet(u, weighting.forward[p])
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
    the bound of the first: the filtration keeps it once, in new_at(j) for
    that j."""
    gens = filtration.generators(filtration.order)
    return all(
        vf_filtration_degree(gens[p], weighting) >= -j
        for j in range(1, filtration.order + 1)
        for p in filtration.new_at(j)
    )


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
