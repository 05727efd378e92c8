"""Graded nilpotent Lie algebras osculating a filtration at a point.

The graded piece at depth i is gr_i = H_{-i} / P_i, where
P_i = H_{-(i-1)} + m H_{-i} and m is the ideal of functions vanishing at
the point.  Each call centres the chart at the point, substituting
x -> x + point into every generator coefficient in one call, so that the
point becomes the origin; there m is spanned by the monomials x^beta with
beta != 0.  So P_i, truncated at the degree bound, is spanned by the
lower fields and by the level's fields times the nonconstant monomials.
The denominators are nested, P_i <= H_{-i} <= P_{i+1}, so one span
(exactalg.RowEchelon) serves every depth, grown depth by depth over
the packed integer keys of one lieflt.ModuleRows, and each depth puts
this span in reduced form once.
At depth i the nonconstant multiples of the generators new at that level
go on offer, and the span takes only those its questions reach: a
multiple joins when it shares a packed key with a candidate, a bracket
or a row the span holds, and then reaches its own keys in turn.  Rows
that share keys, directly or through other rows, form blocks; the RREF
of a block-diagonal system is block-diagonal, and a normal form only
meets the blocks of its own keys, so every class and structure constant
is the one a span holding every multiple gives.  On the (2,3,5) Cartan
filtration at bound 3 that is 6 of the 385 multiples.  The level's new
candidates are reduced in list order, and one whose field entries
survive becomes a basis element and joins the span with a marker column
of its own.  A field's class is the negated
marker part of its normal form, so the brackets landing at depth i are
read off before the span moves on.  Then the depth's markers are retired
by unit rows, which puts H_{-i} itself into the span.  A relation whose
certificate needs coefficient degree above the bound is missed, so
reported dimensions are upper bounds that settle once the bound is
raised far enough.  Structure constants that cannot be certified at the
bound are flagged as unverified, never guessed.  Representatives stay in
the original chart.

Basis elements are picked greedily in generator-list order, which makes
every output deterministic for a given input ordering.

Every element, class, structure constant and tangent-span row keeps the
form RowEchelon gives: a sparse map {basis index: Fraction} with no zero
entries.  Marker number u is basis element u, so a normal form's marker
part is a class in the global basis.  bch sums the Dynkin series once per
bracket word: the words and their summed coefficients depend on the
order alone and are computed once per order.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .exactalg import (
    Monomial,
    Poly,
    RowEchelon,
    add_scaled,
    evaluate,
    rational_point,
    record,
    substitute,
    weight_of,
)
from .lieflt import (
    Filtration,
    ModuleRows,
    PackedKeys,
    Submanifold,
    check_degree_bound,
    fields_degree,
    monomials_up_to,
    tangency_solve,
)
from .vfield import VectorField, lie_bracket
from .weightcoord import WeightedChart, push_to_weighted, vf_degree_in_chart

def _centred(
    fields: Sequence[VectorField], point: Sequence[Fraction]
) -> tuple[VectorField, ...]:
    """The fields rewritten under x -> x + point, so that the point sits at
    the origin.  A translation has identity Jacobian: only the
    coefficients move, every coefficient of every field in one substitute
    call with the images x_i + p_i, and brackets commute with it.  At the
    origin the fields are returned as they are, with no substitute call."""
    if not any(point):
        return tuple(fields)
    n = len(point)
    images = [Poly.variable(n, i) + Poly.const(n, p) for i, p in enumerate(point)]
    moved = iter(substitute([c for g in fields for c in g.coeffs], images))
    return tuple(VectorField(g.chart, [next(moved) for _ in g.coeffs]) for g in fields)


def _class(rest: dict, keys: PackedKeys) -> dict[int, Fraction] | None:
    """Coordinates in the global basis read off a normal form against the
    span: the negated marker part, or None when a field entry survives (no
    certificate at the degree bound).  Retired markers are pivots of unit
    rows, so a normal form holds only the live ones, the current level's."""
    first = keys.marker(0)
    if any(key < first for key in rest):
        return None
    return {keys.unpack(key)[0] - keys.nvars: Fraction(-x) for key, x in rest.items()}


class _ReachedSpan:
    """The osculating span, holding only the module rows its questions
    reach (the block argument is in osculating_at).

    A key is reached when a normal form is asked of a row with an entry
    there, or when a held row has one.  The multiples x^alpha * g of the
    generators offered so far, rows of one ModuleRows, are on offer; one
    joins the span once it holds a reached key, and then reaches its own
    keys.  So after every step no multiple left out shares a key with a
    held row or with the row being reduced.  The rows callers add to span
    themselves, candidates and unit rows, hold reached field keys and
    marker keys, which no multiple holds.
    """

    def __init__(self, rows: ModuleRows):
        self.span = RowEchelon()
        self._rows = rows
        self._offered = range(0)
        self._reached: set[int] = set()
        self._joined: set[tuple[int, int]] = set()

    def offer(self, new: range) -> None:
        """Put the multiples of the generators at positions new, which
        follow those offered, on offer: those holding a reached key join
        at once."""
        self._offered = range(new.stop)
        fresh: list[int] = []
        for key in list(self._reached):
            self._join(self._rows.holding(key, new), fresh)
        self._close(fresh)

    def reduce(self, row: dict) -> dict:
        """The row's normal form, once the multiples its keys reach have
        joined."""
        fresh = [key for key in row if key not in self._reached]
        self._reached.update(fresh)
        self._close(fresh)
        return self.span.reduce(row)

    def _close(self, fresh: list[int]) -> None:
        while fresh:
            self._join(self._rows.holding(fresh.pop(), self._offered), fresh)

    def _join(self, multiples: list[tuple[int, int]], fresh: list[int]) -> None:
        """Add each multiple (j, shift) not added yet; the keys it reaches
        first go onto fresh."""
        for multiple in multiples:
            if multiple in self._joined:
                continue
            self._joined.add(multiple)
            row = self._rows.row(*multiple)
            self.span.add(row)
            new = [key for key in row if key not in self._reached]
            self._reached.update(new)
            fresh.extend(new)


@record
class GradedLieAlg:
    """A graded nilpotent Lie algebra concentrated in degrees -1..-order.

    Each basis element carries its (negative) degree and a vector-field
    representative.  An element of the algebra, a class or a structure
    constant is a sparse map {basis index: Fraction} holding no zero
    entry.  structure maps (u, v), u < v, to [e_u, e_v]; pairs whose
    bracket is zero, or whose degree sum drops below -order, are not
    stored.  unverified lists, in order, the pairs whose constants had no
    certificate at the degree bound used to build the algebra (not
    stored).  candidate_classes[i - 1] holds the classes in the global
    basis of filtration.generators(i), in order; they define the quotient
    map used when pairing the algebra with other data.  The methods that
    take elements raise ValueError on a key outside range(dim).
    """

    order: int
    degrees: tuple[int, ...]
    representatives: tuple[VectorField, ...]
    structure: dict[tuple[int, int], dict[int, Fraction]]
    unverified: tuple[tuple[int, int], ...]
    candidate_classes: tuple[tuple[dict[int, Fraction], ...], ...]

    @property
    def dim(self) -> int:
        return len(self.degrees)

    def graded_dims(self) -> tuple[int, ...]:
        return tuple(
            sum(1 for d in self.degrees if d == -i) for i in range(1, self.order + 1)
        )

    def level_indices(self, depth: int) -> tuple[int, ...]:
        return tuple(u for u, d in enumerate(self.degrees) if d == -depth)

    def _check_keys(self, *elements: dict) -> None:
        """Raise ValueError unless every key of the elements is a basis
        index."""
        basis = range(self.dim)
        if any(u not in basis for x in elements for u in x):
            raise ValueError("element key outside the algebra's basis")

    def basis_vector(self, u: int) -> dict[int, Fraction]:
        vec = {u: Fraction(1)}
        self._check_keys(vec)
        return vec

    def bracket_basis(self, u: int, v: int) -> dict[int, Fraction]:
        """[e_u, e_v], read from structure; callers must not mutate it."""
        if u > v:
            return {w: -c for w, c in self.structure.get((v, u), {}).items()}
        return self.structure.get((u, v), {})

    def bracket_elements(self, x: dict, y: dict) -> dict[int, Fraction]:
        self._check_keys(x, y)
        acc: dict = {}
        for u, cu in x.items():
            if not cu:
                continue
            for v, cv in y.items():
                if cv and u != v:
                    add_scaled(acc, cu * cv, self.bracket_basis(u, v))
        return acc

    def check_antisymmetry(self) -> bool:
        """structure has its documented form: each key (u, v) has
        0 <= u < v < dim and each value is a nonempty map with no zero
        entry.  bracket_basis reads (v, u) as the negated (u, v) and reads
        no other key, so then [e_v, e_u] = -[e_u, e_v] for every u and v."""
        return all(
            0 <= u < v < self.dim and vec and all(vec.values())
            for (u, v), vec in self.structure.items()
        )

    def check_grading(self) -> bool:
        """Stored brackets land in the correct graded piece and vanish
        whenever the degree sum drops below -order."""
        for (u, v), vec in self.structure.items():
            q = -(self.degrees[u] + self.degrees[v])
            if q > self.order:
                if any(vec.values()):
                    return False
                continue
            block = set(self.level_indices(q))
            if any(c for w, c in vec.items() if w not in block):
                return False
        return True

    def check_jacobi(self) -> bool:
        for u in range(self.dim):
            for v in range(u + 1, self.dim):
                for w in range(v + 1, self.dim):
                    total: dict = {}
                    for a, b, c in ((u, v, w), (v, w, u), (w, u, v)):
                        ea = self.basis_vector(a)
                        add_scaled(total, 1, self.bracket_elements(ea, self.bracket_basis(b, c)))
                    if total:
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

    The point's entries are ints or Fractions (a float is a TypeError),
    checked as a Submanifold's base point is.  degree_bound caps the
    coefficient degree of relation and bracket certificates; raise it when
    a bracket comes back unverified or when a dimension looks too large.

    One span serves every depth.  Before depth i it holds H_{-(i-1)} and
    the retired markers of the lower depths, which no field reaches, so a
    normal form against it is the one against P_i once the multiples
    m H_{-i} are in: m H_{-(i-1)} is already there, and only the level's
    new generators add theirs.  The candidates of earlier levels lie in
    H_{-(i-1)} and have class 0.  A bracket of basis elements of depths j
    and k lands at depth j + k, after both representatives are known, and
    is read while that depth's markers are live.  Then the depth's
    markers are retired by unit rows {marker: 1}, which clear them from
    the basis rows and put H_{-i} into the span, so each depth puts this
    span in reduced form once.

    The span takes only the multiples its questions reach (_ReachedSpan):
    a multiple x^beta * g joins when it shares a packed key with a
    candidate, a bracket it reduces or a row it holds, and each row that
    joins reaches its own keys in turn; at each new depth the level's
    multiples on keys reached already join first.  Rows sharing keys,
    directly or through other rows, form blocks; the RREF is unique and,
    for a block-diagonal system, block-diagonal, and a normal form only
    touches the blocks of its own keys.  So every class, structure
    constant, candidate class and unverified pair is the one a span
    holding every multiple gives.  Markers sort after every field key, so
    every pivot but a retired marker's is a field key, and a marker-only
    normal form, with every class and certificate, is the one a span of
    the depth's own would give.  Marker number u is basis element u, so a
    class is read in the global basis.  The span's rows, candidates and
    brackets are packed by one ModuleRows, the nonconstant multiples of
    the centred generators up to the bound, whose reach is the brackets'
    degree, at most twice the generators' less one.
    """
    check_degree_bound(degree_bound)
    chart = filtration.chart
    n = chart.dim
    point = rational_point(point)
    if len(point) != n:
        raise ValueError("point has wrong dimension")
    order = filtration.order

    gens = filtration.generators(order)
    centred = _centred(gens, point)
    # a bracket of two centred generators has degree at most 2*top - 1
    top = fields_degree(centred)
    rows = ModuleRows(centred, monomials_up_to(n, degree_bound)[1:], n, 2 * top - 1)
    keys = rows.keys

    reach = _ReachedSpan(rows)
    span = reach.span
    degrees: list[int] = []
    representatives: list[VectorField] = []
    centred_reps: list[VectorField] = []
    candidate_classes: list[tuple[dict[int, Fraction], ...]] = []
    structure: dict[tuple[int, int], dict[int, Fraction]] = {}
    unverified: list[tuple[int, int]] = []
    for depth in range(1, order + 1):
        new = filtration.new_at(depth)
        reach.offer(new)
        first = len(degrees)
        classes: list[dict[int, Fraction]] = [{} for _ in range(new.start)]
        for j in new:
            rest = reach.reduce(rows.entries(centred[j]))
            cls = _class(rest, keys)
            if cls is None:
                # a marker column sorts after every field key and records
                # the new basis position in later reductions
                cls = {len(degrees): Fraction(1)}
                span.add({**rest, keys.marker(len(degrees)): Fraction(1)})
                degrees.append(-depth)
                representatives.append(gens[j])
                centred_reps.append(centred[j])
            classes.append(cls)
        candidate_classes.append(tuple(classes))
        for u in range(first):
            for v in range(u + 1, first):
                if degrees[u] + degrees[v] == -depth:
                    target = lie_bracket(centred_reps[u], centred_reps[v])
                    cls = _class(reach.reduce(rows.entries(target)), keys)
                    if cls is None:
                        unverified.append((u, v))
                    elif cls:
                        structure[u, v] = cls
        # retire the depth's markers: H_{-depth} joins the span
        for pos in range(first, len(degrees)):
            span.add({keys.marker(pos): Fraction(1)})

    return GradedLieAlg(
        order=order,
        degrees=tuple(degrees),
        representatives=tuple(representatives),
        structure=structure,
        unverified=tuple(sorted(unverified)),
        candidate_classes=tuple(candidate_classes),
    )


@record
class GradedSubalg:
    """A graded subspace of a GradedLieAlg, one reduced span per depth,
    each a tuple of sparse rows {basis index: Fraction} in pivot order."""

    parent: GradedLieAlg
    spans: tuple[tuple[dict[int, Fraction], ...], ...]

    @property
    def dim(self) -> int:
        return sum(len(s) for s in self.spans)

    def graded_dims(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.spans)

    def contains(self, vec: dict) -> bool:
        self.parent._check_keys(vec)
        return RowEchelon(row for span in self.spans for row in span).contains(vec)

    def closed_under_bracket(self) -> bool:
        order = self.parent.order
        spans = [RowEchelon(span) for span in self.spans]
        for i in range(1, order + 1):
            for j in range(i, order + 1):
                for va in self.spans[i - 1]:
                    for vb in self.spans[j - 1]:
                        got = self.parent.bracket_elements(va, vb)
                        if not got:
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
    sum u_j(m) [g_j], in parent, the algebra at the base point.  The
    generator lists are cumulative, so one tangency_solve of the top
    level's system reads every depth's combinations off its prefixes.
    """
    m = submanifold.base_point
    order = filtration.order
    every_depth = tangency_solve(
        filtration.generators(order),
        submanifold,
        degree_bound,
        [filtration.new_at(depth).stop for depth in range(1, order + 1)],
    )
    spans: list[tuple[dict[int, Fraction], ...]] = []
    for depth, combos in enumerate(every_depth, start=1):
        span = RowEchelon()
        for combo in combos:
            acc: dict = {}
            for j, lam in enumerate(evaluate(combo, m)):
                if lam:
                    add_scaled(acc, lam, parent.candidate_classes[depth - 1][j])
            span.add(acc)
        spans.append(span.reduced_rows())
    return GradedSubalg(parent=parent, spans=tuple(spans))


@lru_cache(maxsize=None)
def _dynkin_words(order: int) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
    """The Dynkin series up to `order` letters, summed per bracket word:
    (word, coefficient) pairs, letters 0 for x and 1 for y, zero sums
    dropped.  Each block sequence ((r1,s1),...,(rn,sn)), every block
    nonzero, spells the word x^r1 y^s1 ... x^rn y^sn and contributes
    (-1)^(n-1) / (n * t * prod r_i! s_i!), t the word's length."""
    words: dict[tuple[int, ...], Fraction] = {}

    def rec(blocks: list[tuple[int, int]], letters_left: int) -> None:
        if blocks:
            word: list[int] = []
            fact = 1
            for ri, si in blocks:
                word += [0] * ri + [1] * si
                fact *= math.factorial(ri) * math.factorial(si)
            coeff = Fraction((-1) ** (len(blocks) - 1), len(blocks) * len(word) * fact)
            key = tuple(word)
            words[key] = words.get(key, 0) + coeff
        for ri in range(letters_left + 1):
            for si in range(letters_left - ri + 1):
                if ri + si:
                    blocks.append((ri, si))
                    rec(blocks, letters_left - ri - si)
                    blocks.pop()

    rec([], order)
    return tuple((word, c) for word, c in words.items() if c)


def bch(algebra: GradedLieAlg, x: dict, y: dict) -> dict[int, Fraction]:
    """Group product on the algebra through the bracket series.

    Nilpotency truncates the series at bracket words of length `order`, so
    the sum below is the exact group law: right-nested bracket words over
    the two arguments, each bracketed once and weighted by its summed
    Dynkin coefficient.
    """
    algebra._check_keys(x, y)
    args = (x, y)
    acc: dict = {}
    for word, coeff in _dynkin_words(algebra.order):
        val = args[word[-1]]
        for letter in reversed(word[:-1]):
            val = algebra.bracket_elements(args[letter], val)
            if not val:
                break
        add_scaled(acc, coeff, val)
    return acc


def weighted_fiber_class(
    field: VectorField, weighting: WeightedChart, depth: int
) -> dict[tuple[int, Monomial], Fraction] | None:
    """The field's class in the ambient graded piece at the given depth,
    as a map {(position, multi-index): value} with no zero entries.

    A label (p, s) stands for the class of x^s d/dx_p, s a multi-index of
    weighted degree exactly (weight of p) - depth; s is supported on the
    fiber variables, since the weight-0 variables are frozen.  The field
    must live on the weighting's source chart.  Returns None when its
    weighted degree is below -depth (it has no class at that depth).  The
    value at (p, s) is the coefficient of x^s in the direction-p
    coefficient after freezing the weight-0 variables at the base point.
    That coefficient has weighted degree at least the weight of s, and a
    frozen denominator is its constant term c0 plus terms of positive
    weight, so only c0 meets the numerator's x^s term: the value is that
    term's coefficient divided by c0.  The freezing images are built once,
    and every coefficient with a class at the depth is frozen in one
    substitute call.  ValueError when depth is not a filtration level;
    ZeroDivisionError when a frozen denominator has c0 = 0.
    """
    if depth < 1:
        raise ValueError(f"depth {depth} is not a filtration level")
    pushed = push_to_weighted(field, weighting)
    if vf_degree_in_chart(pushed, weighting) < -depth:
        return None
    weights = weighting.weights
    n = weighting.dim
    base = weighting.base_point_weighted()
    images = [
        Poly.const(n, base[p]) if w == 0 else Poly.variable(n, p) for p, w in enumerate(weights)
    ]
    positions = [p for p, c in enumerate(pushed) if weights[p] >= depth and not c.is_zero()]
    frozen = substitute([pushed[p] for p in positions], images)
    cls: dict[tuple[int, Monomial], Fraction] = {}
    for p, f in zip(positions, frozen):
        num, c0 = (f, 1) if isinstance(f, Poly) else (f.num, f.den.terms.get((0,) * n, 0))
        if not c0:
            raise ZeroDivisionError("denominator vanishes at the base point")
        target = weights[p] - depth
        for mono, value in num.terms.items():
            if weight_of(mono, weights) == target:
                # value and c0 may both be ints: divide by a Fraction
                cls[(p, mono)] = value / Fraction(c0)
    return cls


def class_in_tangent_part(cls: dict[tuple[int, Monomial], Fraction]) -> bool:
    """Whether a class lies in the span of the tangent-direction labels.

    Labels with a nonzero multi-index come from fields vanishing on the
    submanifold, so membership means the class has no bare-direction
    label (p, 0)."""
    return all(any(s) for _, s in cls)


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
        for span_vec in tangent.spans[depth - 1]:
            rep = None
            for u, value in sorted(span_vec.items()):
                term = algebra.representatives[u].scale(value)
                rep = term if rep is None else rep + term
            if rep is None:
                continue
            cls = weighted_fiber_class(rep, weighting, depth)
            if cls is None or not class_in_tangent_part(cls):
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
