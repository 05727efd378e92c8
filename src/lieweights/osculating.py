"""Graded nilpotent Lie algebras osculating a filtration at a point.

The graded piece at depth i is gr_i = H_{-i} / (H_{-(i-1)} + m H_{-i}),
where m is the ideal of functions vanishing at the point.  Each call
translates the chart once so that the point becomes the origin; there m
is spanned by the monomials x^beta with beta != 0.  So the denominator,
truncated at the degree bound, is spanned by the lower fields and by the
level's fields times the nonconstant monomials.  Each depth puts this
span in reduced form once (exactalg.RowEchelon) and reads its quotient
off normal forms.  The level's candidates are reduced in list order; one
whose field entries survive becomes a basis element and joins the span
with a marker column of its own.  A field's class is the negated marker
part of its normal form.  A relation whose certificate needs coefficient
degree above the bound is missed, so reported dimensions are upper
bounds that settle once the bound is raised far enough.  Structure
constants that cannot be certified at the bound are flagged as
unverified, never guessed.  Representatives stay in the original chart.

Basis elements are picked greedily in generator-list order, which makes
every output deterministic for a given input ordering.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .exactalg import Poly, RowEchelon, record, weight_of, weighted_multiindices
from .lieflt import (
    Filtration,
    Submanifold,
    field_entries,
    module_columns,
    monomials_up_to,
    tangency_solve,
)
from .vfield import VectorField, lie_bracket
from .weightcoord import WeightedChart, push_to_weighted, vf_degree_in_chart

Vector = tuple[Fraction, ...]


def _zero_vector(n: int) -> Vector:
    return tuple(Fraction(0) for _ in range(n))


def _unit_vector(n: int, j: int) -> Vector:
    return tuple(Fraction(1) if i == j else Fraction(0) for i in range(n))


def _add_scaled(acc: list[Fraction], vec: Sequence[Fraction], c: Fraction) -> None:
    for i, v in enumerate(vec):
        if v:
            acc[i] += c * v


def _centred(
    fields: Sequence[VectorField], point: Sequence[Fraction]
) -> tuple[VectorField, ...]:
    """The fields rewritten under x -> x + point, so that the point sits at
    the origin.  A translation has identity Jacobian: only the
    coefficients move, and brackets commute with it."""
    n = len(point)
    shift = [Poly.variable(n, i) + Poly.const(n, v) for i, v in enumerate(point)]
    return tuple(
        VectorField(g.chart, [c.subst(shift) for c in g.coeffs]) for g in fields
    )


def _class(rest: dict, n: int) -> dict[int, Fraction] | None:
    """Basis coordinates read off a reduction against a level's span: the
    negated marker part, or None when a field entry survives (no
    certificate at the degree bound)."""
    if any(a < n for a, _ in rest):
        return None
    return {a - n: -x for (a, _), x in rest.items()}


def _embed(cls: dict[int, Fraction], offset: int, total: int) -> Vector:
    vec = [Fraction(0)] * total
    for pos, c in cls.items():
        vec[offset + pos] = c
    return tuple(vec)


@record
class GradedLieAlg:
    """A graded nilpotent Lie algebra concentrated in degrees -1..-order.

    Each basis element carries its (negative) degree and a vector-field
    representative.  structure stores [e_u, e_v] for u < v as coordinate
    vectors; pairs whose degree sum drops below -order are zero and not
    stored.  unverified lists the pairs whose constants had no certificate
    at the degree bound used to build the algebra (entries left zero).
    candidate_classes[i - 1] holds the classes in the global basis of
    filtration.generators(i), in order; they define the quotient map used
    when pairing the algebra with other data.
    """

    order: int
    degrees: tuple[int, ...]
    representatives: tuple[VectorField, ...]
    structure: tuple[tuple[int, int, Vector], ...]
    unverified: tuple[tuple[int, int], ...]
    candidate_classes: tuple[tuple[Vector, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.degrees)

    def graded_dims(self) -> tuple[int, ...]:
        return tuple(
            sum(1 for d in self.degrees if d == -i) for i in range(1, self.order + 1)
        )

    def level_indices(self, depth: int) -> tuple[int, ...]:
        return tuple(u for u, d in enumerate(self.degrees) if d == -depth)

    def basis_vector(self, u: int) -> Vector:
        return _unit_vector(self.dim, u)

    def bracket_basis(self, u: int, v: int) -> Vector:
        if u == v:
            return _zero_vector(self.dim)
        if u > v:
            return tuple(-c for c in self.bracket_basis(v, u))
        for a, b, vec in self.structure:
            if (a, b) == (u, v):
                return vec
        return _zero_vector(self.dim)

    def bracket_elements(
        self, x: Sequence[Fraction], y: Sequence[Fraction]
    ) -> Vector:
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("element length does not match the algebra dimension")
        acc = [Fraction(0)] * self.dim
        for u, cu in enumerate(x):
            if not cu:
                continue
            for v, cv in enumerate(y):
                if not cv or u == v:
                    continue
                _add_scaled(acc, self.bracket_basis(u, v), cu * cv)
        return tuple(acc)

    def check_antisymmetry(self) -> bool:
        for u in range(self.dim):
            for v in range(self.dim):
                left = self.bracket_basis(u, v)
                right = self.bracket_basis(v, u)
                if any(a + b for a, b in zip(left, right)):
                    return False
        return True

    def check_grading(self) -> bool:
        """Stored brackets land in the correct graded piece and vanish
        whenever the degree sum drops below -order."""
        for u, v, vec in self.structure:
            q = -(self.degrees[u] + self.degrees[v])
            if q > self.order:
                if any(vec):
                    return False
                continue
            block = set(self.level_indices(q))
            if any(c for w, c in enumerate(vec) if w not in block):
                return False
        return True

    def check_jacobi(self) -> bool:
        for u in range(self.dim):
            eu = self.basis_vector(u)
            for v in range(u + 1, self.dim):
                ev = self.basis_vector(v)
                for w in range(v + 1, self.dim):
                    ew = self.basis_vector(w)
                    total = [Fraction(0)] * self.dim
                    _add_scaled(total, self.bracket_elements(eu, self.bracket_basis(v, w)), Fraction(1))
                    _add_scaled(total, self.bracket_elements(ev, self.bracket_basis(w, u)), Fraction(1))
                    _add_scaled(total, self.bracket_elements(ew, self.bracket_basis(u, v)), Fraction(1))
                    if any(total):
                        return False
        return True

    def axioms_ok(self) -> bool:
        """All axioms, refusing to vouch when some constants are unverified."""
        if self.unverified:
            return False
        return (
            self.check_antisymmetry() and self.check_grading() and self.check_jacobi()
        )


def osculating_at(
    filtration: Filtration, point: Sequence[Fraction | int], degree_bound: int
) -> GradedLieAlg:
    """The graded nilpotent algebra of the filtration at the point.

    degree_bound caps the coefficient degree of relation and bracket
    certificates; raise it when a bracket comes back unverified or when a
    dimension looks too large.
    """
    chart = filtration.chart
    n = chart.dim
    point = tuple(Fraction(v) for v in point)
    if len(point) != n:
        raise ValueError("point has wrong dimension")
    order = filtration.order

    # generator lists are cumulative: each level's list extends the last
    centred = _centred(filtration.generators(order), point)
    centred_levels = [
        centred[: len(filtration.generators(depth))] for depth in range(1, order + 1)
    ]
    ideal_monos = monomials_up_to(n, degree_bound)[1:]

    spans: list[RowEchelon] = []
    level_basis: list[tuple[int, ...]] = []
    level_classes: list[list[dict[int, Fraction]]] = []
    for depth in range(1, order + 1):
        cands = centred_levels[depth - 1]
        lower = centred_levels[depth - 2] if depth > 1 else ()
        # the denominator: constant multiples of the lower fields, and the
        # level's fields times the nonconstant monomials
        span = RowEchelon(field_entries(g) for g in lower)
        for col in module_columns(cands, ideal_monos):
            span.add(col)
        basis: list[int] = []
        classes: list[dict[int, Fraction]] = []
        for j, g in enumerate(cands):
            rest = span.reduce(field_entries(g))
            cls = _class(rest, n)
            if cls is None:
                # a marker column (n + pos, ()) sorts after every field key
                # and records the new basis position in later reductions
                cls = {len(basis): Fraction(1)}
                span.add({**rest, (n + len(basis), ()): Fraction(1)})
                basis.append(j)
            classes.append(cls)
        spans.append(span)
        level_basis.append(tuple(basis))
        level_classes.append(classes)

    offsets: list[int] = []
    total = 0
    degrees: list[int] = []
    representatives: list[VectorField] = []
    centred_reps: list[VectorField] = []
    for depth in range(1, order + 1):
        offsets.append(total)
        for j in level_basis[depth - 1]:
            degrees.append(-depth)
            representatives.append(filtration.generators(depth)[j])
            centred_reps.append(centred_levels[depth - 1][j])
        total += len(level_basis[depth - 1])

    candidate_classes = tuple(
        tuple(_embed(cls, offsets[depth - 1], total) for cls in level_classes[depth - 1])
        for depth in range(1, order + 1)
    )

    structure: list[tuple[int, int, Vector]] = []
    unverified: list[tuple[int, int]] = []
    for u in range(total):
        for v in range(u + 1, total):
            q = -(degrees[u] + degrees[v])
            if q > order:
                continue
            target = lie_bracket(centred_reps[u], centred_reps[v])
            cls = _class(spans[q - 1].reduce(field_entries(target)), n)
            if cls is None:
                unverified.append((u, v))
            elif cls:
                structure.append((u, v, _embed(cls, offsets[q - 1], total)))

    return GradedLieAlg(
        order=order,
        degrees=tuple(degrees),
        representatives=tuple(representatives),
        structure=tuple(structure),
        unverified=tuple(unverified),
        candidate_classes=candidate_classes,
    )


@record
class GradedSubalg:
    """A graded subspace of a GradedLieAlg, one reduced span per depth."""

    parent: GradedLieAlg
    spans: tuple[tuple[Vector, ...], ...]

    @property
    def dim(self) -> int:
        return sum(len(s) for s in self.spans)

    def graded_dims(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.spans)

    def contains(self, vec: Sequence[Fraction]) -> bool:
        return RowEchelon(row for span in self.spans for row in span).contains(vec)

    def closed_under_bracket(self) -> bool:
        order = self.parent.order
        spans = [RowEchelon(span) for span in self.spans]
        for i in range(1, order + 1):
            for j in range(i, order + 1):
                for va in self.spans[i - 1]:
                    for vb in self.spans[j - 1]:
                        got = self.parent.bracket_elements(va, vb)
                        if not any(got):
                            continue
                        if i + j > order:
                            return False
                        if not spans[i + j - 1].contains(got):
                            return False
        return True


def tangent_subalg(
    filtration: Filtration,
    submanifold: Submanifold,
    degree_bound: int,
    parent: GradedLieAlg,
) -> GradedSubalg:
    """Classes at the base point of the combinations tangent to the
    submanifold, one graded span per depth.

    The tangency certificates come from a bounded-degree solve whose
    unknowns are polynomials on N, so the spans are lower bounds for the
    true tangent subalgebra; when N is a point the tangency system does not
    depend on the bound.  A combination sum u_j g_j contributes the class
    sum u_j(m) [g_j], in parent, the algebra at the base point.
    """
    m = submanifold.base_point
    spans: list[tuple[Vector, ...]] = []
    for depth in range(1, filtration.order + 1):
        gens = filtration.generators(depth)
        combos = tangency_solve(gens, submanifold, degree_bound)
        vecs: list[Vector] = []
        for combo in combos:
            acc = [Fraction(0)] * parent.dim
            for j, u in enumerate(combo):
                lam = u.eval(m)
                if lam:
                    _add_scaled(acc, parent.candidate_classes[depth - 1][j], lam)
            vecs.append(tuple(acc))
        spans.append(RowEchelon(vecs).reduced_rows(parent.dim))
    return GradedSubalg(parent=parent, spans=tuple(spans))


@lru_cache(maxsize=None)
def _dynkin_blocks(order: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Block sequences ((r1,s1),...,(rn,sn)), each block nonzero, total
    letter count between 1 and order."""
    out: list[tuple[tuple[int, int], ...]] = []

    def rec(blocks: list[tuple[int, int]], letters_left: int) -> None:
        if blocks:
            out.append(tuple(blocks))
        if letters_left == 0:
            return
        for ri in range(letters_left + 1):
            for si in range(letters_left - ri + 1):
                if ri + si == 0:
                    continue
                blocks.append((ri, si))
                rec(blocks, letters_left - ri - si)
                blocks.pop()

    rec([], order)
    return tuple(out)


def bch(
    algebra: GradedLieAlg, x: Sequence[Fraction], y: Sequence[Fraction]
) -> Vector:
    """Group product on the algebra through the bracket series.

    Nilpotency truncates the series at bracket words of length `order`, so
    the sum below is the exact group law: right-nested bracket words over
    the two arguments weighted by the alternating block coefficients.
    """
    dim = algebra.dim
    if len(x) != dim or len(y) != dim:
        raise ValueError("element length does not match the algebra dimension")
    args = (tuple(x), tuple(y))
    acc = [Fraction(0)] * dim
    for blocks in _dynkin_blocks(algebra.order):
        letters: list[int] = []
        fact = 1
        for ri, si in blocks:
            letters.extend([0] * ri)
            letters.extend([1] * si)
            fact *= math.factorial(ri) * math.factorial(si)
        t = len(letters)
        coeff = Fraction((-1) ** (len(blocks) - 1), len(blocks) * t * fact)
        val = args[letters[-1]]
        for letter in reversed(letters[:-1]):
            val = algebra.bracket_elements(args[letter], val)
            if not any(val):
                break
        if any(val):
            _add_scaled(acc, val, coeff)
    return tuple(acc)


def fiber_class_pairs(
    weighting: WeightedChart, depth: int
) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Basis labels for the ambient graded piece at the given depth.

    A label (position, multi-index) stands for the class of x^s d/dx_p
    where s runs over fiber-supported multi-indices of weighted degree
    exactly (weight of p) - depth, in grlex order, which is the order
    weighted_multiindices gives them within one weight.  Labels with s = 0
    span the complement of the tangent part; there is one for each
    position of weight depth.
    """
    k0 = weighting.submanifold.dim
    fiber_weights = weighting.weights[k0:]
    out: list[tuple[int, tuple[int, ...]]] = []
    for p in range(weighting.dim):
        target = weighting.weights[p] - depth
        if target < 0:
            continue
        out.extend(
            (p, (0,) * k0 + s)
            for s in weighted_multiindices(fiber_weights, target)
            if weight_of(s, fiber_weights) == target
        )
    return tuple(out)


def _frozen_fiber_part(coeff, weighting: WeightedChart) -> tuple[Poly, Fraction]:
    """Freeze the weight-0 variables at the base point and return the
    numerator and the denominator's constant term c0, which must not
    vanish."""
    n = weighting.dim
    base = weighting.base_point_weighted()
    images = [
        Poly.const(n, base[p]) if weighting.weights[p] == 0 else Poly.variable(n, p)
        for p in range(n)
    ]
    frozen = coeff.subst(images)
    if isinstance(frozen, Poly):
        return frozen, Fraction(1)
    c0 = frozen.den.terms.get((0,) * n, Fraction(0))
    if c0 == 0:
        raise ZeroDivisionError("denominator vanishes at the base point")
    return frozen.num, c0


def weighted_fiber_class(
    field: VectorField, weighting: WeightedChart, depth: int
) -> Vector | None:
    """Coordinates of the field's class in the ambient graded piece, along
    the fiber_class_pairs basis.

    The field must live on the weighting's source chart.  Returns None
    when its weighted degree is below -depth (it has no class at that
    depth).  The component at (p, s) is the coefficient of x^s in the
    direction-p coefficient after freezing the weight-0 variables at the
    base point.  That coefficient has weighted degree at least the weight
    of s, and a frozen denominator is its constant term c0 plus terms of
    positive weight, so only c0 meets the numerator's x^s term: the
    component is that term's coefficient divided by c0.
    """
    pushed = push_to_weighted(field, weighting)
    if vf_degree_in_chart(pushed, weighting) < -depth:
        return None
    frozen: dict[int, tuple[Poly, Fraction]] = {}
    comps: list[Fraction] = []
    for p, phi in fiber_class_pairs(weighting, depth):
        if p not in frozen:
            frozen[p] = _frozen_fiber_part(pushed[p], weighting)
        num, c0 = frozen[p]
        comps.append(num.terms.get(phi, Fraction(0)) / c0)
    return tuple(comps)


def class_in_tangent_part(
    pairs: Sequence[tuple[int, tuple[int, ...]]], components: Sequence[Fraction]
) -> bool:
    """Whether a class lies in the span of the tangent-direction labels.

    Labels with a nonzero multi-index come from fields vanishing on the
    submanifold, so membership means every bare-direction component is
    zero."""
    return all(
        c == 0 for (p, phi), c in zip(pairs, components) if not any(phi)
    )


@record
class HHReport:
    """Checks tying the osculating quotients to the weighting's ranks.

    fiber_total_ok: dim p - dim r equals the fiber dimension.
    per_degree_ok: per depth, dim p - dim r equals the rank increment.
    maps_into_ok: pushing tangent-class representatives to the weighted
    chart lands them in the tangent part of the ambient graded piece.

    The verdict is fail only when maps_into_ok is false: a tangency
    certificate gives the class of a tangent field at any bound.  The
    dimensions at a bound are only upper bounds, so a mismatch, like an
    unverified structure constant, is inconclusive.
    """

    algebra: GradedLieAlg
    p_dims: tuple[int, ...]
    r_dims: tuple[int, ...]
    quotient_dims: tuple[int, ...]
    expected_dims: tuple[int, ...]
    fiber_total_ok: bool
    per_degree_ok: bool
    maps_into_ok: bool

    @property
    def verdict(self) -> str:
        if not self.maps_into_ok:
            return "fail"
        if not (self.fiber_total_ok and self.per_degree_ok) or self.algebra.unverified:
            return "inconclusive"
        return "pass"


def verify_hh(
    weighting: WeightedChart, algebra: GradedLieAlg, tangent: GradedSubalg
) -> HHReport:
    """Cross-check the osculating quotients against the induced weighting.

    algebra is the osculating algebra at the weighting's base point and
    tangent its tangent subalgebra.  Verifies that (a) the total quotient
    dimension matches the fiber dimension, (b) each graded quotient
    dimension matches the rank increment of the filtration along the
    submanifold, and (c) the classes of tangent representatives land in
    the tangent part of the ambient graded pieces of the weighted chart.
    """
    order = algebra.order
    p_dims = algebra.graded_dims()
    r_dims = tangent.graded_dims()
    quotient = tuple(p - r for p, r in zip(p_dims, r_dims))
    expected = tuple(
        sum(1 for w in weighting.weights if w == depth) for depth in range(1, order + 1)
    )
    fiber_dim = weighting.dim - weighting.submanifold.dim
    fiber_total_ok = algebra.dim - tangent.dim == fiber_dim
    per_degree_ok = quotient == expected

    maps_into_ok = True
    for depth in range(1, order + 1):
        pairs = fiber_class_pairs(weighting, depth)
        for span_vec in tangent.spans[depth - 1]:
            rep = None
            for u, value in enumerate(span_vec):
                if not value:
                    continue
                term = algebra.representatives[u].scale(value)
                rep = term if rep is None else rep + term
            if rep is None:
                continue
            cls = weighted_fiber_class(rep, weighting, depth)
            if cls is None or not class_in_tangent_part(pairs, cls):
                maps_into_ok = False

    return HHReport(
        algebra=algebra,
        p_dims=p_dims,
        r_dims=r_dims,
        quotient_dims=quotient,
        expected_dims=expected,
        fiber_total_ok=fiber_total_ok,
        per_degree_ok=per_degree_ok,
        maps_into_ok=maps_into_ok,
    )
