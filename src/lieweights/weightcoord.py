"""Construction of weighted coordinates from a clean filtration.

Pipeline: the rank flags and the frame come from lieflt.check_clean, whose
span at the base point adopts the generators that extend it, one block per
level; a linear change makes the frame pair with the fiber coordinates as
the identity along N; then higher-weight fiber coordinates receive
polynomial corrections, computed degree by degree, so that every operator
word of weighted order below the target weight kills them along N.  Each
correction divides by a normalization constant that must equal the product
of factorials of the multi-index; this is asserted, not assumed.

Every word value V^s f is read from one WordValues table per coordinate
function: V^s f = V_p(V^(s - e_p) f), p the first nonzero index of s, so a
word costs one application of a frame field once its prefix is known.
normalize_chart's identity check reads each table's one-letter words, the
corrections read the words of each tier, and the filtration-degree recheck
reads every word below the coordinate's weight, all from the same table.
A tier that adds a nonzero correction changes the coordinate, so the
coordinate gets a new table; each table is dropped once its position is
done.

Coordinate functions of the weighted chart are kept as exact expressions
in the original chart (``forward``) together with the inverse substitution
(``inverse``), so rewriting in weighted coordinates is a substitution, not
a numerical change of basis.  The inverse is written in closed form: each
correction multiplies a monomial in already final lower-weight coordinates,
so the correction records give the linear coordinates in the weighted
chart, and the pairing matrix of the linear stage gives the original fiber
variables from those.  Each batch of functions rewritten by one
substitution (the monomials y^s a corrected position has not built yet,
substituted into the coordinates; the inverse check; a field's pushed
coefficients) goes through one exactalg.substitute call, which makes each
image's powers once for the whole batch and raises no image that the
batch does not read.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

from .exactalg import (
    Monomial,
    Poly,
    Scalar,
    add_scaled,
    evaluate,
    matrix_inverse,
    matrix_rank,
    mul_terms,
    record,
    substitute,
    weight_of,
    weighted_multiindices,
)
from .lieflt import CleanResult, Submanifold, weight_sequence
from .vfield import Chart, VectorField

INFINITE = math.inf


def normalize_chart(
    clean: CleanResult,
) -> tuple[list[WordValues], tuple[tuple[Poly, ...], ...]]:
    """Linear fiber coordinate change making (V_a x_c)|_N the identity,
    V the frame of the clean result.

    Returns the word tables of the new fiber coordinate functions, each
    function expressed in the original chart (its table's function), and
    the pairing matrix pairing[a][c] = (V_a x_{fiber_c})|_N, V_a's
    coefficient fiber_c restricted to N, whose transpose maps them back to
    the fiber variables.  The identity is asserted on the tables'
    one-letter words, so the corrections and the filtration-degree recheck
    read those values again rather than apply the frame once more.  The
    pairing's Poly entries are inverted as they are; every denominator of
    the inverse divides det P, so with a constant determinant every
    coordinate is a Poly.
    Raises when the frame size differs from the fiber dimension, or when
    the pairing matrix is singular at the base point.

    Neither can happen on the clean result that weighted_coordinates
    passes: weight_sequence has already refused a top level that does not
    span, and check_clean adopts a generator only when its value at m
    extends a span that starts from the tangent unit rows.  So the frame
    has one field per fiber direction, and the fiber components of the
    frame's values at m, which are the pairing at m, form an invertible
    matrix.  Only a hand-built CleanResult reaches the two checks.
    """
    submanifold = clean.submanifold
    n = submanifold.chart.dim
    fiber = submanifold.fiber_indices
    k = len(fiber)
    if len(clean.frame) != k:
        raise ValueError("frame size does not match the fiber dimension")
    pairing = tuple(
        tuple(submanifold.restrict(field.coeffs[c]) for c in fiber)
        for field in clean.frame
    )
    # the base point is held once for every entry of the pairing
    values = evaluate([entry for row in pairing for entry in row], submanifold.base_point)
    point_matrix = [values[a * k : (a + 1) * k] for a in range(k)]
    if k and matrix_rank(point_matrix) < k:
        raise ValueError("frame-coordinate pairing is singular at the base point")
    inverse = matrix_inverse(pairing)
    assert inverse is not None
    # coordinate b is sum_c inverse[c][b] * x_{fiber c}: a Poly entry is
    # shifted by one in exponent fiber[c], its terms summed into one dict;
    # a RatFunc entry is multiplied out
    tables = []
    for b in range(k):
        terms: dict = {}
        rational = []
        for c, i in enumerate(fiber):
            entry = inverse[c][b]
            if not isinstance(entry, Poly):
                rational.append(entry * Poly.variable(n, i))
                continue
            for m, v in entry.terms.items():
                key = m[:i] + (m[i] + 1,) + m[i + 1 :]
                s = terms.get(key)
                terms[key] = v if s is None else s + v
        tables.append(WordValues(clean.frame, sum(rational, Poly.from_sum(n, terms))))
    for a in range(k):
        letter = tuple(1 if p == a else 0 for p in range(k))
        for b, table in enumerate(tables):
            val = submanifold.restrict(table.value(letter))
            expected = Fraction(1 if a == b else 0)
            assert val == expected, "normalized pairing failed to be the identity"
    return tables, pairing


class WordValues:
    """The values V^s f of one function f under the words s of a frame V,
    each made once.

    V^s applies frame field p s[p] times, the last field first, so the
    field it applies last is V_p, p the first nonzero index of s, and
    V^s f = V_p(V^(s - e_p) f): a word whose prefix s - e_p is in the
    table costs one application.  The table is keyed by word and belongs
    to the one function it was made for; a function that changes gets a
    new table.
    """

    __slots__ = ("frame", "function", "_values")

    def __init__(self, frame: Sequence[VectorField], function: Scalar):
        self.frame = frame
        self.function = function
        self._values: dict[Monomial, Scalar] = {(0,) * len(frame): function}

    def value(self, s: Monomial) -> Scalar:
        """V^s f, made from its prefix's value the first time it is read."""
        got = self._values.get(s)
        if got is None:
            p = next(i for i, e in enumerate(s) if e)
            prefix = s[:p] + (s[p] - 1,) + s[p + 1 :]
            got = self._values[s] = self.frame[p].apply(self.value(prefix))
        return got


def frame_words(levels: Sequence[int], top: int) -> tuple[tuple[Monomial, ...], ...]:
    """The multi-indices s over a frame with these levels, by weighted
    order: entry w lists those with weight_of(s, levels) = w, in grlex
    order, for w = 0..top.

    One weighted_multiindices enumeration, split where the weighted order
    grows (its output is sorted by it), so every reader of a weight or of
    the words below a weight reads a slice of the one list.
    """
    by_weight: list[list[Monomial]] = [[] for _ in range(top + 1)]
    for s in weighted_multiindices(levels, top):
        by_weight[weight_of(s, levels)].append(s)
    return tuple(tuple(words) for words in by_weight)


def filtration_degree(
    values: WordValues,
    submanifold: Submanifold,
    words: Sequence[Sequence[Monomial]],
    cap: int,
) -> int:
    """Largest i <= cap with (V^s f)|_N = 0 for every word in the frame V
    of weighted order below i, f the function of the word table values;
    equals the smallest weighted order of a word that sees f along N,
    capped.  words is frame_words of the frame's levels, up to cap - 1 at
    least.  The word values come from the table, so a word read there
    before costs no application."""
    if cap > len(words):
        raise ValueError(f"frame words up to weight {len(words) - 1} cannot reach {cap - 1}")
    for weight in range(cap):
        for s in words[weight]:
            if not submanifold.restrict(values.value(s)).is_zero():
                return weight
    return cap


@record
class CorrectionRecord:
    """One correction step: target position, multi-index, normalization
    constant, and the correction coefficient, a function on N."""

    position: int
    multi_index: tuple[int, ...]
    constant: Fraction
    coefficient: Scalar


@record
class WeightedChart:
    """A weighted chart adapted to the submanifold of a clean result.

    Position p of the weighted chart is chart index positions[p] of the
    source chart (the submanifold's adapted order) and has weight
    weights[p].  forward[p] expresses weighted coordinate p in the
    original chart; inverse[c] expresses original variable c in the
    weighted chart; the two substitutions compose to the identity.
    corrections are the steps that made the higher-weight coordinates.
    An entry of forward or inverse is a RatFunc only when the inverse of
    the frame pairing has a true denominator.
    """

    clean: CleanResult
    weights: tuple[int, ...]
    forward: tuple[Scalar, ...]
    inverse: tuple[Scalar, ...]
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
        return value.subst(self.inverse)


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
    tables, pairing = normalize_chart(clean)

    submanifold = clean.submanifold
    n = submanifold.chart.dim
    k0 = submanifold.dim
    positions = submanifold.adapted_order
    words = frame_words(clean.frame_levels, max(weights, default=0) - 1)

    current: list[Scalar] = [
        *(Poly.variable(n, positions[p]) for p in range(k0)),
        *(table.function for table in tables),
    ]

    records: list[CorrectionRecord] = []
    # word s -> (y^s, its normalization constant), built and checked once
    # per word
    powers: dict[Monomial, tuple[Scalar, Fraction]] = {}
    # each position's filtration degree, checked once every position is
    # corrected, so a normalization constant is refused first as before
    degrees: list[int] = []
    # the fiber weights are the frame's depths, nondecreasing, so position
    # order is weight order.  Only weights >= 3 get corrections: a word
    # with |s| >= 2 has weight >= 2, so below weight 3 none is admissible
    for a in range(k0, n):
        w_a = weights[a]
        admissible = [s for tier in words[:w_a] for s in tier if sum(s) >= 2]
        admissible.sort(key=lambda s: (sum(s), s))
        # partial is current[a] + sum of chi_u * y^u over the finished
        # tiers, the u with |u| < |s|, and table holds its word values.
        # The word and the restriction to N are linear, so each word is
        # applied once, to partial, not to each term.  The table is taken
        # out of the list, so it is dropped once position a is done
        table = tables.pop(0)
        partial = table.function
        if admissible:
            # the y^s of every word not built yet, in one substitute call
            # into the fiber coordinates: a word of weight < w_a with
            # |s| >= 2 reads only coordinates of weight <= w_a - 2, which
            # are final before position a is corrected, and an image that
            # no word reads is never raised to a power
            new = [s for s in admissible if s not in powers]
            built = substitute([Poly.term(n - k0, s, 1) for s in new], current[k0:])
            for s, power in zip(new, built):
                c_s = submanifold.restrict(WordValues(clean.frame, power).value(s))
                expected = Fraction(math.prod(math.factorial(e) for e in s))
                if c_s.eval(submanifold.base_point) == 0:
                    raise ValueError(
                        f"normalization constant vanishes at the base point for {s}"
                    )
                if c_s != expected:
                    raise ValueError(
                        f"normalization constant for {s} is not the factorial product"
                    )
                powers[s] = power, expected
        for _, tier in itertools.groupby(admissible, key=sum):
            terms = []
            for s in tier:
                power, expected = powers[s]
                total = submanifold.restrict(table.value(s))
                coeff = -(total * (1 / expected))
                records.append(CorrectionRecord(a, s, expected, coeff))
                if coeff:
                    terms.append(coeff * power)
            if terms:
                partial = sum(terms, partial)
                table = WordValues(clean.frame, partial)
        current[a] = partial
        degrees.append(filtration_degree(table, submanifold, words, cap=w_a))

    for p, got in zip(range(k0, n), degrees):
        if got != weights[p]:
            raise ValueError(
                f"weighted coordinate at position {p} has filtration degree {got}, "
                f"expected {weights[p]}"
            )

    inverse = _invert_weighting(submanifold, pairing, records)
    composed = substitute(current, inverse)
    for p in range(n):
        assert composed[p] == Poly.variable(n, p), (
            "forward and inverse substitutions do not compose to the identity"
        )
    return WeightedChart(
        clean=clean,
        weights=weights,
        forward=tuple(current),
        inverse=inverse,
        corrections=tuple(records),
    )


def _invert_weighting(
    submanifold: Submanifold,
    pairing: Sequence[Sequence[Poly]],
    records: Sequence[CorrectionRecord],
) -> tuple[Scalar, ...]:
    """Closed-form inverse of the weighting substitution, in the weighted chart.

    A correction at position p multiplies a function on N by a monomial in
    coordinates of weight at most w_p - 2, which are final when it is made.
    So the normalized linear coordinate at p is y_p - sum_s chi_s * y^s,
    read off the records, each y^s a monomial of the weighted chart built
    as one term, and the pairing matrix gives the original fiber
    variables: x_{fiber_c} = sum_p pairing[p][c] * linear_p, over the
    nonzero entries only.  Functions on N enter through their tangent
    variables, the nonzero coefficients and pairing entries in one
    substitute call; base variables are weighted variables verbatim.  Each
    fiber variable's Poly products are summed into one term dict, and a
    RatFunc product is added to it after.
    """
    positions = submanifold.adapted_order
    n = len(positions)
    k0 = submanifold.dim
    fiber = submanifold.fiber_indices
    y = [Poly.variable(n, p) for p in range(n)]
    on_n = [Poly.zero(n)] * n
    for p in range(k0):
        on_n[positions[p]] = y[p]
    corrections = [rec for rec in records if not rec.coefficient.is_zero()]
    entries = [(p, ci) for p, row in enumerate(pairing) for ci, entry in enumerate(row) if entry]
    moved = substitute(
        [rec.coefficient for rec in corrections] + [pairing[p][ci] for p, ci in entries], on_n
    )
    linear: list[Scalar] = y[k0:]
    for rec, coefficient in zip(corrections, moved):
        term = coefficient * Poly.term(n, (0,) * k0 + rec.multi_index, 1)
        linear[rec.position - k0] = linear[rec.position - k0] - term
    sums: list[dict] = [{} for _ in fiber]
    rational: list[list[Scalar]] = [[] for _ in fiber]
    for (p, ci), entry in zip(entries, moved[len(corrections) :]):
        if isinstance(linear[p], Poly):
            add_scaled(sums[ci], 1, mul_terms(entry.terms, linear[p].terms))
        else:
            rational[ci].append(entry * linear[p])
    inverse: list[Scalar] = list(on_n)
    for ci, c in enumerate(fiber):
        inverse[c] = sum(rational[ci], Poly.from_sum(n, sums[ci]))
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
    the weighted variables: the n applied values are substituted in one
    substitute call, so each power of an inverse entry is made once per
    field.  A weighted chart may have rational coordinates, so a
    coefficient may be a RatFunc, and they are returned as a tuple, not a
    VectorField.
    """
    if field.chart != weighting.source_chart:
        raise ValueError("field does not live on the weighting's source chart")
    return substitute([field.apply(f) for f in weighting.forward], weighting.inverse)


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
        return min(weight_of(mono, weights) for mono in g.terms)
    return weighted_degree_in_chart(g.num, weights) - weighted_degree_in_chart(g.den, weights)
