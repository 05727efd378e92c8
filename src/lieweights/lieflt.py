"""Singular Lie filtrations on a chart and their compatibility checks.

A filtration is given by per-level generator lists of polynomial vector
fields, level -1 through level -r, understood as nested C^inf-modules
H_{-1} <= H_{-2} <= ... <= H_{-r} (level -r is expected to span the whole
tangent space at the base point).  Whether the lists honestly generate
locally finitely generated sheaves is not symbolically decidable and is
taken on trust; every verdict produced here is certified on its own terms:
"pass" carries re-substitutable coefficients, "fail" carries a witness
point, and anything else is reported as inconclusive rather than guessed.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import comb
from typing import Callable, Iterable, Mapping, Sequence

from .exactalg import (
    Monomial,
    Poly,
    RowEchelon,
    rational_point,
    record,
    weighted_multiindices,
)
from .vfield import Chart, VectorField, lie_bracket, restrict_zero

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


@record
class TriState:
    """Checker verdict: pass/fail carry certificates, inconclusive a reason."""

    verdict: str
    certificate: object = None
    reason: str = ""

    @staticmethod
    def passed(certificate) -> "TriState":
        return TriState(PASS, certificate, "")

    @staticmethod
    def failed(certificate) -> "TriState":
        return TriState(FAIL, certificate, "")

    @staticmethod
    def undecided(reason: str) -> "TriState":
        return TriState(INCONCLUSIVE, None, reason)


@record
class Submanifold:
    """A coordinate submanifold {fiber variables = 0} with a base point on it.

    The base point's entries are ints or Fractions, checked as evaluate
    checks a point (a float is a TypeError) and held as Fractions.  The
    fiber indices are worked out once, in the constructor, and restrict
    is the package's one way to set them to zero.
    """

    chart: Chart
    tangent_indices: tuple[int, ...]
    base_point: tuple[Fraction, ...]
    # the chart indices off tangent_indices, in chart order
    _fiber: tuple[int, ...]

    def __init__(
        self,
        chart: Chart,
        tangent_indices: Iterable[int],
        base_point: Sequence[Fraction | int],
    ):
        tangent = tuple(sorted(set(tangent_indices)))
        for idx in tangent:
            if not 0 <= idx < chart.dim:
                raise ValueError(f"tangent index {idx} out of range")
        point = rational_point(base_point)
        if len(point) != chart.dim:
            raise ValueError("base point has wrong dimension")
        tangent_set = set(tangent)
        for i, v in enumerate(point):
            if i not in tangent_set and v != 0:
                raise ValueError(
                    f"base point coordinate {chart.names[i]!r} must vanish off the submanifold"
                )
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "tangent_indices", tangent)
        object.__setattr__(self, "base_point", point)
        object.__setattr__(
            self, "_fiber", tuple(i for i in range(chart.dim) if i not in tangent_set)
        )

    @property
    def dim(self) -> int:
        return len(self.tangent_indices)

    @property
    def fiber_indices(self) -> tuple[int, ...]:
        return self._fiber

    @property
    def adapted_order(self) -> tuple[int, ...]:
        """Chart indices in adapted order: tangent, then fiber, each in
        chart order."""
        return self.tangent_indices + self.fiber_indices

    def restrict(self, value):
        """Set the fiber variables to zero (ambient variable count kept)."""
        return restrict_zero(value, self._fiber)


@record
class Filtration:
    """Generator lists for levels -1..-order on a common chart.

    Each distinct generator, by value, is kept once, in order of first
    appearance, found through one dict keyed by the field, in which every
    listed occurrence is looked up.  Those first listed at a level of
    depth at most depth are a prefix of that order, so one prefix size per
    depth lays the depths out: generators(depth) is that prefix, and
    new_at(depth) the range of positions it adds to the one before.  A
    level lists the generators by position, level_indices(depth), and
    levels[depth - 1] holds those same objects, so a field that the lists
    repeat is one object, and anything derived from it can be computed
    once per generator.
    """

    chart: Chart
    order: int
    levels: tuple[tuple[VectorField, ...], ...]
    # the distinct generators, the prefix size of each depth after a
    # leading 0, and the positions each level lists
    _distinct: tuple[VectorField, ...]
    _sizes: tuple[int, ...]
    _indices: tuple[tuple[int, ...], ...]

    def __init__(self, chart: Chart, order: int, levels: Sequence[Sequence[VectorField]]):
        if order < 1:
            raise ValueError("filtration order must be at least 1")
        if len(levels) != order:
            raise ValueError("expected one generator list per level -1..-order")
        position: dict[VectorField, int] = {}
        distinct: list[VectorField] = []
        sizes, indices = [0], []
        for gens in levels:
            level = []
            for g in gens:
                p = position.setdefault(g, len(distinct))
                if p == len(distinct):
                    if g.chart != chart:
                        raise ValueError("generator lives on a different chart")
                    distinct.append(g)
                level.append(p)
            indices.append(tuple(level))
            sizes.append(len(distinct))
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "order", order)
        object.__setattr__(
            self, "levels", tuple(tuple(distinct[p] for p in level) for level in indices)
        )
        object.__setattr__(self, "_distinct", tuple(distinct))
        object.__setattr__(self, "_sizes", tuple(sizes))
        object.__setattr__(self, "_indices", tuple(indices))

    def _check_depth(self, depth: int) -> None:
        if not 1 <= depth <= self.order:
            raise ValueError(f"level depth {depth} out of range")

    def generators(self, depth: int) -> tuple[VectorField, ...]:
        """Generators of H_{-depth}: every listed generator of levels 1..depth,
        each once, in order of first appearance."""
        self._check_depth(depth)
        return self._distinct[: self._sizes[depth]]

    def new_at(self, depth: int) -> range:
        """The positions in generators(self.order) of the generators first
        listed at this depth: generators(depth) less generators(depth - 1),
        empty when the level adds none."""
        self._check_depth(depth)
        return range(self._sizes[depth - 1], self._sizes[depth])

    def level_indices(self, depth: int) -> tuple[int, ...]:
        """The position in generators(self.order) of each generator the
        level lists, in list order."""
        self._check_depth(depth)
        return self._indices[depth - 1]

    def max_generator_degree(self) -> int:
        return fields_degree(self.generators(self.order))

    def default_degree_bound(self) -> int:
        return 2 * self.max_generator_degree() + self.order


def monomials_up_to(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples of total degree <= degree, ascending grlex."""
    return weighted_multiindices((1,) * nvars, degree)


_RATIONAL_CYCLE = (
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(1, 3),
    Fraction(-1, 3),
    Fraction(2, 3),
    Fraction(-2, 3),
    Fraction(3, 2),
    Fraction(-3, 2),
)


# length of the witness-point sequence sample_points yields
SAMPLE_BUDGET = 60


def sample_points(nvars: int):
    """Deterministic witness-point sequence, each point a tuple of
    Fractions: the origin, the integer shells of radius 1 and 2, then the
    rational cycle, the first SAMPLE_BUDGET of those in that order."""
    shells = (
        pt
        for radius in (1, 2)
        for pt in itertools.product(range(-radius, radius + 1), repeat=nvars)
        if max(map(abs, pt), default=0) == radius
    )
    m = len(_RATIONAL_CYCLE)
    cycle = (tuple(_RATIONAL_CYCLE[(k + i) % m] for i in range(nvars)) for k in range(m))
    candidates = itertools.chain([(0,) * nvars], shells, cycle)
    for pt in itertools.islice(candidates, SAMPLE_BUDGET):
        yield tuple(Fraction(v) for v in pt)


class PackedKeys:
    """One int key per (component, monomial) entry of a field on nvars
    variables, and one per marker column.

    The entry (a, alpha) packs to a*B^n + sum alpha_i*B^(n-1-i), the digits
    of (a, alpha_0, ..., alpha_{n-1}) in base B, and the marker number pos
    to (n + pos)*B^n, the packing of (n + pos, 0).  With every exponent
    below B the map is injective and orders keys as the tuples
    (component, monomial) order, lexicographically; a marker sorts after
    every field key.  Multiplying by x^beta adds enc(beta) to a key, as
    long as the shifted exponents stay below B (Monagan and Pearce 2007,
    packed exponent vectors).  enc and pack raise ValueError on an exponent
    of B or more, so two entries never share a key silently.  ModuleRows
    picks the base.
    """

    def __init__(self, nvars: int, base: int):
        if base < 1:
            raise ValueError("the packing base must be positive")
        self.nvars = nvars
        self.base = base
        self.place = base**nvars

    def enc(self, mono: Sequence[int]) -> int:
        base = self.base
        key = 0
        for e in mono:
            if e >= base:
                raise ValueError(f"exponent {e} does not fit the packing base {base}")
            key = key * base + e
        return key

    def pack(self, a: int, mono: Sequence[int]) -> int:
        return a * self.place + self.enc(mono)

    def unpack(self, key: int) -> tuple[int, tuple[int, ...]]:
        a, rest = divmod(key, self.place)
        digits = []
        for _ in range(self.nvars):
            rest, e = divmod(rest, self.base)
            digits.append(e)
        return a, tuple(reversed(digits))

    def marker(self, pos: int) -> int:
        return (self.nvars + pos) * self.place


def fields_degree(fields: Iterable[VectorField]) -> int:
    """Largest total degree of a term of the fields' coefficients; 0 for
    none."""
    return max([0, *(c.total_degree() for f in fields for c in f.coeffs)])


class ModuleRows:
    """The bounded module system of the multiples x^alpha * g of generators
    g by monomials alpha: the one place that packs them, shifts them, lays
    them out as a system and decodes its solutions.

    Keys: the packing base B is one more than the larger of the
    generators' total degree plus the monomials' top total degree, and
    reach, the largest total degree of any other field packed beside the
    rows (the right-hand sides of a membership, the brackets an osculating
    span reduces; 0 when there are none).  An exponent of a row is at most
    a total degree of its generator plus one of its monomial, so below B,
    and a shift never carries into the next digit; entries(field) packs
    any field of total degree at most reach, and PackedKeys.pack raises
    ValueError on any exponent of B or more.

    Each generator's entries are packed once, and the row of x^alpha * g
    is its entries shifted by enc(alpha).  So x^alpha * g holds the key k
    exactly when k - e = enc(alpha) for an entry key e of g, of the same
    component as k: holding() reads the multiples of a key off the entries
    bucketed by component.

    Layout: the columns of system() are the rows, generator (outer loop)
    by monomial (inner loop), so column p is generator p // len(monos)
    times monos[p % len(monos)], the first k generators own the leading
    width(k) columns, and right-hand column s follows them all, at
    width(len(gens)) + s.  coefficients() reads a solution map back as one
    coefficient polynomial per generator.
    """

    def __init__(
        self, gens: Sequence[VectorField], monos: Sequence[Monomial], nvars: int, reach: int
    ):
        top = max((sum(alpha) for alpha in monos), default=0)
        self.keys = keys = PackedKeys(nvars, max(fields_degree(gens) + top, reach) + 1)
        self._monos = monos
        self._entries = [self.entries(g) for g in gens]
        self._by_component: dict[int, list[tuple[int, int]]] = {}
        for j, entries in enumerate(self._entries):
            for e in entries:
                self._by_component.setdefault(e // keys.place, []).append((j, e))
        self._shifts = [keys.enc(alpha) for alpha in monos]
        self._shift_set = frozenset(self._shifts)

    def entries(self, field: VectorField) -> dict[int, Fraction]:
        """Nonzero coefficients of a field under packed (component,
        monomial) keys, held as Poly and RowEchelon hold them."""
        return {
            self.keys.pack(a, mono): value
            for a, c in enumerate(field.coeffs)
            for mono, value in c.terms.items()
        }

    def row(self, j: int, shift: int) -> dict[int, Fraction]:
        """The entries of x^alpha * gens[j], shift = enc(alpha)."""
        return {k + shift: value for k, value in self._entries[j].items()}

    def holding(self, key: int, positions: range) -> list[tuple[int, int]]:
        """The multiples (j, shift), j in positions, whose row has an entry
        at key."""
        return [
            (j, key - e)
            for j, e in self._by_component.get(key // self.keys.place, ())
            if j in positions and key - e in self._shift_set
        ]

    def width(self, k: int) -> int:
        """The number of columns the first k generators own."""
        return k * len(self._monos)

    def system(self, fields: Sequence[VectorField]) -> RowEchelon:
        """The transposed system, one sparse row per packed key: entry p of
        a row is column p's, the rows in the layout order and then one
        right-hand column per field."""
        rows: dict[int, dict[int, Fraction]] = {}
        columns = [self.row(j, s) for j in range(len(self._entries)) for s in self._shifts]
        columns.extend(self.entries(f) for f in fields)
        for p, column in enumerate(columns):
            for key, value in column.items():
                rows.setdefault(key, {})[p] = value
        return RowEchelon(rows.values())

    def coefficients(self, solution: Mapping[int, Fraction], k: int) -> tuple[Poly, ...]:
        """The coefficient polynomials u_0, ..., u_{k-1} of a sparse
        {column: value} map on the first width(k) columns."""
        monos = self._monos
        size = len(monos)
        terms: list[dict] = [{} for _ in range(k)]
        for p, x in sorted(solution.items()):
            terms[p // size][monos[p % size]] = x
        return tuple(Poly(self.keys.nvars, t) for t in terms)


def check_degree_bound(degree_bound: int) -> None:
    """Raise ValueError on a negative degree bound, which no certificate
    has: the library's entry points refuse it as the command line does."""
    if degree_bound < 0:
        raise ValueError(f"degree bound must be non-negative, got {degree_bound}")


def degree_schedule(nvars: int, cap: int) -> list[int]:
    """The rungs 0 = d_0 < d_1 < ... < cap that bounded membership walks.

    The next rung is the least degree whose monomial count C(n + d, n) is
    at least 4 times the previous rung's; a rung whose count exceeds a
    quarter of the cap's is skipped, and the cap is always the last rung.
    So the walk builds at most 1.5 times the cap's columns (4/3 for n >= 2).
    A middle rung decides a bracket whose certificate has low positive
    degree, such as -x1*dx4 in the full module, certified by -x1 on dx4.
    """
    check_degree_bound(cap)
    top = comb(nvars + cap, nvars)
    rungs = [0]
    for d in range(1, cap):
        count = comb(nvars + d, nvars)
        if 4 * count > top:
            break
        if count >= 4 * comb(nvars + rungs[-1], nvars):
            rungs.append(d)
    if cap:
        rungs.append(cap)
    return rungs


def _pointwise_scan(fields, gens, open_prefixes: dict, points, failed: dict) -> None:
    """Fail each open question, field t against prefix k for k in
    open_prefixes[t], at the first of points where fields[t] leaves the
    pointwise span of gens[:k]: record the point as failed[(t, k)] and
    drop k from open_prefixes[t], and t once it has no prefix left.

    Each field and generator is evaluated once per point, and one
    pointwise span grows through the prefixes in increasing order.
    """
    pending = sorted(
        ((t, k) for t, prefixes in open_prefixes.items() for k in prefixes),
        key=lambda question: question[1],
    )
    for point in points:
        if not pending:
            break
        pointwise = RowEchelon()
        done = 0
        values: dict[int, tuple[Fraction, ...]] = {}
        inside = []
        for t, k in pending:
            for g in gens[done:k]:
                pointwise.add(g.value_at(point))
            done = k
            value = values.get(t)
            if value is None:
                value = values[t] = fields[t].value_at(point)
            if pointwise.contains(value):
                inside.append((t, k))
            else:
                failed[(t, k)] = point
        pending = inside
    open_prefixes.clear()
    for t, k in sorted(pending):
        open_prefixes.setdefault(t, []).append(k)


def module_membership_batch(
    fields: Sequence[VectorField],
    gens: Sequence[VectorField],
    reads: Sequence[tuple[int, int, int]],
    degree_bound: int,
) -> tuple[TriState, ...]:
    """Decide sign * v = sum u_j g_j over the first k generators, with
    polynomial u_j of degree <= degree_bound and v = fields[t], for every
    read (t, k, sign) of the batch, sign +1 or -1; one verdict per read,
    in order.  Each field is one right-hand column, however many reads
    it has.

    The bound is walked up degree_schedule(n, degree_bound), and each rung
    d is one elimination: the ModuleRows system of the generators up to
    the largest open prefix over monos_d, with the fields that have an
    open read as right-hand columns, reaching their degree.  The first k
    generators own the leading width(k) columns, so field t, open field
    number s, is read against prefix k with
    RowEchelon.particular(width(k), width(used) + s), a sparse map that
    ModuleRows.coefficients decodes into the certificate.  That is
    exact because RREF has a prefix property: restricted to the leading
    columns A_1..A_k and one column b of B, the reduced form of
    [A_1 | A_2 | ... | B] is row equivalent to [A_1..A_k | b]; its rows
    with a pivot among the leading columns are in reduced form there, and
    its other rows vanish on them.
    So b is in the span of the leading columns exactly when none of those
    other rows (pivot at or past the prefix) has an entry in b's column,
    and the particular solution (free variables 0) is then b's entries on
    the rows with their pivot before it.  RREF is unique, so each rung's
    verdict and certificate equal those of solving the field on its own
    against its prefix at that rung's bound, in a system of its own.

    Three readings follow, which let one column answer every read of its
    field.  The particular solution is linear in b, so -b reads the
    negated certificate, at the same rung, and a pointwise witness is one
    for -b too.  A row with its pivot at or past a prefix k vanishes on
    the first k columns, so when b lies in their span it has no entry
    there: b passes against every larger prefix, with the prefix-k
    certificate padded by zero coefficients.  So a field's open prefixes
    are read in increasing order, up to the first that passes.  And a
    smaller prefix spans less: it never passes where a larger one fails.

    A pass certificate is the tuple of coefficient polynomials, one per
    generator of the prefix, read at the first rung that solves the read;
    a fail certificate is the first point of sample_points where v leaves
    the pointwise span of those generators.  The reads rung 0 leaves open
    are tested at the first point, and those the last rung leaves open are
    scanned from the second point on.  When neither a bounded solution nor
    a witness exists the verdict is inconclusive.

    Every verdict and witness is that of one elimination at the cap: the
    monomial sets are nested, so a rung's solution is one at the cap, and a
    polynomial combination holds pointwise, so a pointwise witness rules
    out every bound.  Only a pass certificate can differ, being read at the
    deciding rung.
    """
    check_degree_bound(degree_bound)
    if any(not 0 <= t < len(fields) for t, _, _ in reads):
        raise ValueError("read of a field outside the batch")
    if any(not 0 <= k <= len(gens) for _, k, _ in reads):
        raise ValueError("generator-prefix length out of range")
    if any(sign not in (1, -1) for _, _, sign in reads):
        raise ValueError("a read's sign is +1 or -1")
    if not reads:
        return ()
    chart = fields[0].chart
    if any(x.chart != chart for x in (*fields, *gens)):
        raise ValueError("fields and generators live on different charts")
    n = chart.dim
    results: list[TriState] = [TriState.undecided("degree_bound")] * len(reads)
    # each question (t, k) once, with the reads that ask it
    asked: dict[tuple[int, int], list[int]] = {}
    for r, (t, k, _) in enumerate(reads):
        asked.setdefault((t, k), []).append(r)
    # per field, its open prefixes in increasing order
    open_prefixes: dict[int, list[int]] = {}
    for t, k in sorted(asked):
        open_prefixes.setdefault(t, []).append(k)
    failed: dict[tuple[int, int], tuple[Fraction, ...]] = {}
    points = sample_points(n)
    reach = fields_degree(fields)
    zero = Poly.zero(n)
    for d in degree_schedule(n, degree_bound):
        # generators past every open prefix own trailing columns no read needs
        used = max(ks[-1] for ks in open_prefixes.values())
        rows = ModuleRows(gens[:used], monomials_up_to(n, d), n, reach)
        span = rows.system([fields[t] for t in open_prefixes])
        ncols = rows.width(used)
        for s, (t, prefixes) in enumerate(list(open_prefixes.items())):
            for pos, k in enumerate(prefixes):
                solution = span.particular(rows.width(k), ncols + s)
                if solution is not None:
                    break
            else:
                continue
            # a pass against prefix k, with one coefficient per generator
            # of that prefix, answers every prefix after it too
            certificate = {1: rows.coefficients(solution, k)}
            for larger in prefixes[pos:]:
                padding = (zero,) * (larger - k)
                for r in asked[(t, larger)]:
                    sign = reads[r][2]
                    if sign not in certificate:
                        certificate[sign] = tuple(-u for u in certificate[1])
                    results[r] = TriState.passed(certificate[sign] + padding)
            if pos:
                open_prefixes[t] = prefixes[:pos]
            else:
                del open_prefixes[t]
        if d == 0:
            _pointwise_scan(fields, gens, open_prefixes, itertools.islice(points, 1), failed)
        if not open_prefixes:
            break
    _pointwise_scan(fields, gens, open_prefixes, points, failed)
    for question, point in failed.items():
        for r in asked[question]:
            results[r] = TriState.failed(point)
    return tuple(results)


def module_membership(
    v: VectorField, gens: Sequence[VectorField], degree_bound: int
) -> TriState:
    """Decide v = sum u_j g_j with polynomial u_j of degree <= degree_bound:
    module_membership_batch on the one field v, against every generator."""
    return module_membership_batch([v], gens, [(0, len(gens), 1)], degree_bound)[0]


@record
class BracketCheck:
    """Result for one generator pair: [G_{-i}[gi], G_{-j}[gj]] in H_{-(i+j)}."""

    i: int
    j: int
    gi: int
    gj: int
    result: TriState


@record
class BracketCompatReport:
    checks: tuple[BracketCheck, ...]

    @property
    def verdict(self) -> str:
        verdicts = [c.result.verdict for c in self.checks]
        if FAIL in verdicts:
            return FAIL
        if INCONCLUSIVE in verdicts:
            return INCONCLUSIVE
        return PASS

    def first_failure(self) -> BracketCheck | None:
        for c in self.checks:
            if c.result.verdict == FAIL:
                return c
        return None


class _BracketTable:
    """Brackets [g_p, g_q] of the generators of one filtration, by
    position: each unordered pair of distinct generators is bracketed once,
    when first asked for, as [g_p, g_q] with p < q; the reversed pair reads
    its negation, and [g_p, g_p] is the zero field.  One table serves one
    check_bracket_compat call."""

    def __init__(self, gens: Sequence[VectorField], zero: VectorField):
        self.gens = gens
        self.zero = zero
        self.built: dict[tuple[int, int], VectorField] = {}

    def bracket(self, p: int, q: int) -> VectorField:
        if p == q:
            return self.zero
        key = (min(p, q), max(p, q))
        field = self.built.get(key)
        if field is None:
            field = self.built[key] = lie_bracket(self.gens[key[0]], self.gens[key[1]])
        return field if p < q else -field


class _TautologicalPass(TriState):
    """Pass of a bracket [g, h] in the full module of vector fields.

    The certificate is the bracket's own coefficients on the coordinate
    frame, padded with a zero coefficient per top-level generator.  It is
    built on first read, from the zero-argument bracket, so a verdict
    alone never computes the bracket.
    """

    def __init__(self, bracket: Callable[[], VectorField], padding: tuple[Poly, ...]):
        object.__setattr__(self, "verdict", PASS)
        object.__setattr__(self, "reason", "")
        object.__setattr__(self, "_pair", (bracket, padding))

    @functools.cached_property
    def certificate(self) -> tuple[Poly, ...]:
        bracket, padding = self._pair
        return bracket().coeffs + padding


def check_bracket_compat(filtration: Filtration, degree_bound: int) -> BracketCompatReport:
    """Verify [H_{-i}, H_{-j}] <= H_{-(i+j)} on all generator pairs.

    A pair is named by levels and list positions, (i, j, gi, gj), but its
    bracket depends only on the two generators: the filtration keeps each
    distinct generator once, so every unordered pair of distinct generators
    is bracketed once, in a _BracketTable, and a pair (g, g) is the zero
    field.  The target modules are nested: generators(k) is a prefix of
    generators(top) for every target level k <= top.  So all brackets go
    into one module_membership_batch call against the top target level's
    generators, each distinct bracket one right-hand column, read against
    the prefix generators(i + j) of each pair that asks it, with sign -1
    for a pair in the reversed order: one elimination per rung for every
    level, whose verdicts and certificates equal those of one call per
    level and per pair (the prefix property of RREF and the linearity of
    the particular solution; see module_membership_batch).  That call
    walks the degree bound up from 0, with the still-open reads only, and
    tests what rung 0 leaves open at the origin first: nearly every
    bracket is decided there.  Each verdict and witness is that of one
    elimination at the cap; a pass certificate is read at the least rung
    that solves its bracket.  Pairs with i + j beyond the filtration order
    land in the full module of vector fields and pass with the tautological
    coordinate-field certificate, whose bracket is taken from the table
    only when the certificate is read.
    """
    r = filtration.order
    n = filtration.chart.dim
    table = _BracketTable(
        filtration.generators(r), VectorField(filtration.chart, [0] * n)
    )
    padding = (Poly.zero(n),) * len(filtration.generators(r))
    columns: dict[tuple[int, int], int] = {}
    fields: list[VectorField] = []
    reads: list[tuple[int, int, int]] = []
    pairs = []
    listed = [filtration.level_indices(depth) for depth in range(1, r + 1)]
    for i in range(1, r + 1):
        for j in range(i, r + 1):
            for gi, p in enumerate(listed[i - 1]):
                for gj, q in enumerate(listed[j - 1]):
                    if i == j and gj < gi:
                        continue
                    pairs.append((i, j, gi, gj, p, q))
                    if i + j > r:
                        continue
                    # every pair (g, g) reads the one zero field
                    key = (min(p, q), max(p, q)) if p != q else (0, 0)
                    t = columns.get(key)
                    if t is None:
                        t = columns[key] = len(fields)
                        fields.append(table.bracket(*key))
                    reads.append((t, filtration.new_at(i + j).stop, 1 if p <= q else -1))
    top = max((k for _, k, _ in reads), default=0)
    gens = filtration.generators(r)
    verdicts = iter(module_membership_batch(fields, gens[:top], reads, degree_bound))
    # the pairs past the order that name the same generators, in the same
    # order, share one tautological pass
    tautological: dict[tuple[int, int], TriState] = {}
    checks = []
    for i, j, gi, gj, p, q in pairs:
        if i + j <= r:
            result = next(verdicts)
        else:
            result = tautological.get((p, q))
            if result is None:
                result = tautological[(p, q)] = _TautologicalPass(
                    functools.partial(table.bracket, p, q), padding
                )
        checks.append(BracketCheck(i, j, gi, gj, result))
    return BracketCompatReport(tuple(checks))


@record
class CleanResult:
    """Rank flag of TN + H_{-i} along the submanifold, and its frame.

    ranks[i] is the dimension at the base point m of the span of a tangent
    basis of N and the values of the level -i generators; generic_ranks[i]
    is the same dimension over the rational-function field of N, with the
    generators restricted to N.  The submanifold is clean exactly when the
    two agree at every level.  frame lists, in generator-list order, the
    generators whose value at m extended the span, and frame_levels[p] is
    the depth at which frame[p] joined: depth i adds ranks[i] - ranks[i-1].
    """

    verdict: str
    ranks: tuple[int, ...]
    generic_ranks: tuple[int, ...]
    first_bad_level: int | None
    submanifold: Submanifold
    frame: tuple[VectorField, ...]
    frame_levels: tuple[int, ...]


def check_clean(filtration: Filtration, submanifold: Submanifold) -> CleanResult:
    """Both rank flags, each from one span grown level by level.

    A span starts from the tangent unit rows and takes, at each depth,
    only the generators new at that depth: the earlier ones are in it
    already, so its rank after depth i is the rank of TN + H_{-i}, and
    adopting greedily over the new generators adopts what a greedy scan
    of all of H_{-i} would.
    """
    chart = filtration.chart
    if submanifold.chart != chart:
        raise ValueError("submanifold lives on a different chart")
    m = submanifold.base_point
    generic = RowEchelon({b: 1} for b in submanifold.tangent_indices)
    at_point = RowEchelon({b: Fraction(1)} for b in submanifold.tangent_indices)
    ranks = [at_point.rank]
    generic_ranks = [generic.rank]
    frame: list[VectorField] = []
    frame_levels: list[int] = []
    gens = filtration.generators(filtration.order)
    for depth in range(1, filtration.order + 1):
        for j in filtration.new_at(depth):
            g = gens[j]
            generic.add([submanifold.restrict(c) for c in g.coeffs])
            if at_point.add(g.value_at(m)):
                frame.append(g)
                frame_levels.append(depth)
        ranks.append(at_point.rank)
        generic_ranks.append(generic.rank)
    first_bad = next(
        (i for i, (a, b) in enumerate(zip(ranks, generic_ranks)) if a != b), None
    )
    return CleanResult(
        verdict=PASS if first_bad is None else FAIL,
        ranks=tuple(ranks),
        generic_ranks=tuple(generic_ranks),
        first_bad_level=first_bad,
        submanifold=submanifold,
        frame=tuple(frame),
        frame_levels=tuple(frame_levels),
    )


def weight_sequence(clean: CleanResult) -> tuple[int, ...]:
    """Weight of each position of the submanifold's adapted_order: 0 for
    tangent positions, and for fiber positions the depth at which the
    rank flag first covers them."""
    sub = clean.submanifold
    if clean.ranks[-1] != sub.chart.dim:
        raise ValueError("top filtration level does not span the tangent space")
    return (0,) * sub.dim + clean.frame_levels


def tangency_solve(
    gens: Sequence[VectorField],
    submanifold: Submanifold,
    degree_bound: int,
    prefixes: Sequence[int],
) -> tuple[list[tuple[Poly, ...]], ...]:
    """Coefficient tuples u with sum u_j g_j tangent to the submanifold,
    one basis for each generator prefix gens[:prefixes[t]], in order.

    Tangency and the values u_j(m) depend only on u restricted to N, so
    the unknowns are polynomials on N: monomials of degree <= degree_bound
    in the tangent variables, enumerated in those variables alone and
    embedded with zero fiber exponents.  Graded lexicographic order
    compares the fiber exponents, all 0, as equal, so the embedding keeps
    the order the tangent monomials have among all of the chart's.  The
    system is "fiber components vanish on N", homogeneous: the ModuleRows
    system of the generators' fiber parts restricted to N, with no other
    field beside its rows.  The first k generators own its leading
    width(k) columns, so each prefix's system is a column prefix of the
    whole one: one elimination serves every prefix, each basis read with
    RowEchelon.nullspace (the prefix property of RREF), whose sparse maps
    ModuleRows.coefficients decodes into coefficient tuples.  Each basis is
    deterministic and equals that of a system of the prefix's own.  May
    miss higher-degree combinations (degree-bound caveat).  When N is a
    point the system is the constant nullspace of the generators' values
    there, whatever the bound.
    """
    check_degree_bound(degree_bound)
    chart = submanifold.chart
    n = chart.dim
    fiber = submanifold.fiber_indices
    for g in gens:
        if g.chart != chart:
            raise ValueError("generator lives on a different chart")
    if any(not 0 <= k <= len(gens) for k in prefixes):
        raise ValueError("generator-prefix length out of range")
    tangent = submanifold.tangent_indices
    monos = []
    for alpha in monomials_up_to(len(tangent), degree_bound):
        mono = [0] * n
        for i, e in zip(tangent, alpha):
            mono[i] = e
        monos.append(tuple(mono))
    zero = Poly.zero(n)
    # fiber components restricted to N; a shift by a monomial on N keeps a
    # term off the fiber variables
    parts = [
        VectorField(
            chart,
            [submanifold.restrict(c) if a in fiber else zero for a, c in enumerate(g.coeffs)],
        )
        for g in gens
    ]
    rows = ModuleRows(parts, monos, n, 0)
    span = rows.system([])
    return tuple(
        [rows.coefficients(vec, k) for vec in span.nullspace(rows.width(k))] for k in prefixes
    )
