"""Construction of weighted coordinates from a clean filtration.

Pipeline: the rank flags and the frame come from lieflt.check_clean, whose
span at the base point adopts the generators that extend it, one block per
level; a linear change makes the frame pair with the fiber coordinates as
the identity along N; then higher-weight fiber coordinates receive
polynomial corrections, computed degree by degree, so that every operator
word of weighted order below the target weight kills them along N.  Each
correction divides by a normalization constant that must equal the product
of factorials of the multi-index; this is asserted, not assumed.

Coordinate functions of the weighted chart are kept as exact expressions
in the original chart (``forward``) together with the inverse substitution
(``inverse``), so rewriting in weighted coordinates is a substitution, not
a numerical change of basis.  The inverse is written in closed form: each
correction multiplies a monomial in already final lower-weight coordinates,
so the correction records give the linear coordinates in the weighted
chart, and the pairing matrix of the linear stage gives the original fiber
variables from those.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

from .exactalg import (
    Poly,
    RatFunc,
    as_ratfunc,
    matrix_inverse,
    matrix_rank,
    record,
    weight_of,
    weighted_multiindices,
)
from .lieflt import CleanResult, Submanifold, weight_sequence
from .vfield import Chart, VectorField

Scalar = Poly | RatFunc

INFINITE = math.inf


def normalize_chart(
    clean: CleanResult,
) -> tuple[tuple[RatFunc, ...], tuple[tuple[RatFunc, ...], ...]]:
    """Linear fiber coordinate change making (V_a x_c)|_N the identity,
    V the frame of the clean result.

    Returns the new fiber coordinate functions, expressed in the original
    chart, and the pairing matrix pairing[a][c] = (V_a x_{fiber_c})|_N,
    a function on N, whose transpose maps them back to the fiber
    variables.  Raises when the pairing matrix is singular at the base
    point.
    """
    submanifold = clean.submanifold
    n = submanifold.chart.dim
    fiber = submanifold.fiber_indices
    k = len(fiber)
    if len(clean.frame) != k:
        raise ValueError("frame size does not match the fiber dimension")
    pairing = tuple(
        tuple(
            as_ratfunc(submanifold.restrict(field.apply(Poly.variable(n, c))), n)
            for c in fiber
        )
        for field in clean.frame
    )
    point_matrix = [
        [entry.eval(submanifold.base_point) for entry in row] for row in pairing
    ]
    if k and matrix_rank(point_matrix) < k:
        raise ValueError("frame-coordinate pairing is singular at the base point")
    inverse = matrix_inverse(pairing)
    assert inverse is not None
    coords = []
    for b in range(k):
        acc = RatFunc.const(n, 0)
        for c in range(k):
            acc = acc + inverse[c][b] * Poly.variable(n, fiber[c])
        coords.append(acc)
    for a, field in enumerate(clean.frame):
        for b in range(k):
            val = as_ratfunc(submanifold.restrict(field.apply(coords[b])), n)
            expected = Fraction(1 if a == b else 0)
            assert val == expected, "normalized pairing failed to be the identity"
    return tuple(coords), pairing


def _apply_word(frame: Sequence[VectorField], s: Sequence[int], f: Scalar) -> Scalar:
    """V^s f: frame field p applied s[p] times, the last field first."""
    for field, mult in reversed(list(zip(frame, s))):
        for _ in range(mult):
            f = field.apply(f)
    return f


def filtration_degree(f: Scalar, clean: CleanResult, cap: int) -> int:
    """Largest i <= cap with (V^s f)|_N = 0 for every word in the frame V
    of weighted order below i; equals the smallest weighted order of a
    word that sees f along N, capped."""
    for s in weighted_multiindices(clean.frame_levels, cap - 1):
        if not clean.submanifold.restrict(_apply_word(clean.frame, s, f)).is_zero():
            return weight_of(s, clean.frame_levels)
    return cap


@record
class CorrectionRecord:
    """One correction step: target position, multi-index, normalization
    constant, and the correction coefficient."""

    position: int
    multi_index: tuple[int, ...]
    constant: Fraction
    coefficient: RatFunc


@record
class WeightedChart:
    """A weighted chart adapted to the submanifold of a clean result.

    Position p of the weighted chart is chart index positions[p] of the
    source chart (the submanifold's adapted order) and has weight
    weights[p].  forward[p] expresses weighted coordinate p in the
    original chart; inverse[c] expresses original variable c in the
    weighted chart; the two substitutions compose to the identity.
    corrections are the steps that made the higher-weight coordinates.
    """

    clean: CleanResult
    weights: tuple[int, ...]
    forward: tuple[RatFunc, ...]
    inverse: tuple[RatFunc, ...]
    corrections: tuple[CorrectionRecord, ...]

    @property
    def submanifold(self) -> Submanifold:
        return self.clean.submanifold

    @property
    def source_chart(self) -> Chart:
        return self.clean.submanifold.chart

    @property
    def positions(self) -> tuple[int, ...]:
        return self.clean.submanifold.adapted_order

    @property
    def chart(self) -> Chart:
        """The original variable names permuted to adapted order."""
        names = self.source_chart.names
        return Chart(tuple(names[p] for p in self.positions))

    @property
    def dim(self) -> int:
        return self.source_chart.dim

    def base_point_weighted(self) -> tuple[Fraction, ...]:
        m = self.submanifold.base_point
        return tuple(
            m[p] if w == 0 else Fraction(0) for p, w in zip(self.positions, self.weights)
        )

    def to_weighted(self, value: Scalar) -> Scalar:
        """Rewrite a function on the original chart in weighted coordinates."""
        return value.subst(list(self.inverse))


def weighted_coordinates(clean: CleanResult) -> WeightedChart:
    """Build the weighted chart induced by a clean filtration, from the
    frame check_clean adopted.

    Raises ValueError when the cleanness test failed, when the top level
    does not span, when the pairing matrix is singular at the base point,
    or when a normalization constant or a recomputed filtration degree is
    not the expected one.  That the normalized pairing is the identity and
    that forward after inverse is the identity are asserted.
    """
    if clean.verdict != "pass":
        raise ValueError(
            f"submanifold is not clean for this filtration (level {clean.first_bad_level})"
        )
    weights = weight_sequence(clean)
    fiber_coords, pairing = normalize_chart(clean)

    submanifold = clean.submanifold
    n = submanifold.chart.dim
    k0 = submanifold.dim
    positions = submanifold.adapted_order
    fiber_weights = weights[k0:]

    current: list[RatFunc] = [
        RatFunc(Poly.variable(n, positions[p])) for p in range(k0)
    ] + list(fiber_coords)

    records: list[CorrectionRecord] = []
    # corrections only for weights >= 3; the fiber weights are the frame's
    # depths, nondecreasing, so position order is weight order
    for a in range(k0, n):
        w_a = weights[a]
        if w_a < 3:
            continue
        admissible = [
            s for s in weighted_multiindices(fiber_weights, w_a - 1) if sum(s) >= 2
        ]
        admissible.sort(key=lambda s: (sum(s), s))
        # partial is current[a] + sum of chi_u * y^u over the finished
        # tiers, the u with |u| < |s|.  The word and the restriction to N
        # are linear, so each word is applied once, to partial, not to
        # each term.
        partial = current[a]
        for _, tier in itertools.groupby(admissible, key=sum):
            terms = []
            for s in tier:
                power = _monomial_of(current, k0, s, n)
                c_s = as_ratfunc(
                    submanifold.restrict(_apply_word(clean.frame, s, power)), n
                )
                expected = Fraction(math.prod(math.factorial(e) for e in s))
                if c_s.eval(submanifold.base_point) == 0:
                    raise ValueError(
                        f"normalization constant vanishes at the base point for {s}"
                    )
                if c_s != expected:
                    raise ValueError(
                        f"normalization constant for {s} is not the factorial product"
                    )
                total = as_ratfunc(
                    submanifold.restrict(_apply_word(clean.frame, s, partial)), n
                )
                coeff = -(total / expected)
                records.append(
                    CorrectionRecord(
                        position=a, multi_index=s, constant=expected, coefficient=coeff
                    )
                )
                if coeff:
                    terms.append(coeff * power)
            partial = sum(terms, partial)
        current[a] = partial

    for p in range(k0, n):
        got = filtration_degree(current[p], clean, cap=weights[p])
        if got != weights[p]:
            raise ValueError(
                f"weighted coordinate at position {p} has filtration degree {got}, "
                f"expected {weights[p]}"
            )

    inverse = _invert_weighting(submanifold, pairing, records)
    for p in range(n):
        composed = current[p].subst(list(inverse))
        assert composed == RatFunc(
            Poly.variable(n, p)
        ), "forward and inverse substitutions do not compose to the identity"
    return WeightedChart(
        clean=clean,
        weights=weights,
        forward=tuple(current),
        inverse=inverse,
        corrections=tuple(records),
    )


def _monomial_of(
    current: Sequence[RatFunc], k0: int, s: Sequence[int], n: int
) -> RatFunc:
    acc = RatFunc.const(n, 1)
    for offset, e in enumerate(s):
        if e:
            acc = acc * current[k0 + offset] ** e
    return acc


def _invert_weighting(
    submanifold: Submanifold,
    pairing: Sequence[Sequence[RatFunc]],
    records: Sequence[CorrectionRecord],
) -> tuple[RatFunc, ...]:
    """Closed-form inverse of the weighting substitution, in the weighted chart.

    A correction at position p multiplies a function on N by a monomial in
    coordinates of weight at most w_p - 2, which are final when it is made.
    So the normalized linear coordinate at p is y_p - sum_s chi_s * y^s,
    read off the records, and the pairing matrix gives the original fiber
    variables: x_{fiber_c} = sum_p pairing[p][c] * linear_p.  Functions on N
    enter through their tangent variables; base variables are weighted
    variables verbatim.
    """
    positions = submanifold.adapted_order
    n = len(positions)
    k0 = submanifold.dim
    y = [Poly.variable(n, p) for p in range(n)]
    on_n = [Poly.zero(n)] * n
    for p in range(k0):
        on_n[positions[p]] = y[p]
    linear = [RatFunc(y[p]) for p in range(k0, n)]
    for rec in records:
        if rec.coefficient.is_zero():
            continue
        term = rec.coefficient.subst(on_n)
        for offset, e in enumerate(rec.multi_index):
            if e:
                term = term * y[k0 + offset] ** e
        linear[rec.position - k0] = linear[rec.position - k0] - term
    inverse = [RatFunc(img) for img in on_n]
    for ci, c in enumerate(submanifold.fiber_indices):
        acc = RatFunc.const(n, 0)
        for p, row in enumerate(pairing):
            acc = acc + row[ci].subst(on_n) * linear[p]
        inverse[c] = acc
    return tuple(inverse)


def weighted_degree(f: Scalar, weighting: WeightedChart) -> int | float:
    """Minimal weighted order of f, computed in the weighted chart.

    This is the weighting itself, read as the filtration of functions that
    defines it: f lies in C^inf(M)_(i) exactly when its weighted order is
    at least i.  Base (weight-0) variables contribute nothing.  The zero
    function has degree +inf.
    """
    return weighted_degree_in_chart(weighting.to_weighted(f), weighting.weights)


def push_to_weighted(
    field: VectorField, weighting: WeightedChart
) -> tuple[Scalar, ...]:
    """The coefficients of a vector field rewritten in the weighted chart.

    Coefficient p is the field applied to weighted coordinate p, written in
    the weighted variables.  A weighted chart may have rational coordinates,
    so the coefficients are rational functions, not a VectorField.
    """
    if field.chart != weighting.source_chart:
        raise ValueError("field does not live on the weighting's source chart")
    return tuple(
        weighting.to_weighted(field.apply(weighting.forward[p]))
        for p in range(weighting.dim)
    )


def vf_filtration_degree(field: VectorField, weighting: WeightedChart) -> int | float:
    """Largest j with: each weighted coefficient has weighted degree at
    least (weight of its direction) + j.  The zero field gives +inf."""
    return vf_degree_in_chart(push_to_weighted(field, weighting), weighting)


def vf_degree_in_chart(
    coeffs: Sequence[Scalar], weighting: WeightedChart
) -> int | float:
    """vf_filtration_degree of a field given by its weighted-chart
    coefficients, as push_to_weighted returns them."""
    return min(
        (
            weighted_degree_in_chart(coeff, weighting.weights) - weighting.weights[p]
            for p, coeff in enumerate(coeffs)
            if not coeff.is_zero()
        ),
        default=INFINITE,
    )


def weighted_degree_in_chart(g: Scalar, weights: Sequence[int]) -> int | float:
    """Weighted order of a function already written in the weighted chart:
    the least weight of a numerator term minus that of a denominator
    term, +inf for zero."""
    if g.is_zero():
        return INFINITE
    if isinstance(g, Poly):
        g = RatFunc(g)
    num = min(weight_of(mono, weights) for mono in g.num.terms)
    return num - min(weight_of(mono, weights) for mono in g.den.terms)
