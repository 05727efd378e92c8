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
from typing import Iterable, Sequence

from .exactalg import (
    Poly,
    RatFunc,
    RowEchelon,
    held,
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
        return TriState(PASS, certificate=certificate)

    @staticmethod
    def failed(certificate) -> "TriState":
        return TriState(FAIL, certificate=certificate)

    @staticmethod
    def undecided(reason: str) -> "TriState":
        return TriState(INCONCLUSIVE, reason=reason)


@record
class Submanifold:
    """A coordinate submanifold {fiber variables = 0} with a base point on it."""

    chart: Chart
    tangent_indices: tuple[int, ...]
    base_point: tuple[Fraction, ...]

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
        point = tuple(Fraction(v) for v in base_point)
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

    @property
    def dim(self) -> int:
        return len(self.tangent_indices)

    @property
    def fiber_indices(self) -> tuple[int, ...]:
        tangent = set(self.tangent_indices)
        return tuple(i for i in range(self.chart.dim) if i not in tangent)

    @property
    def adapted_order(self) -> tuple[int, ...]:
        """Chart indices in adapted order: tangent, then fiber, each in
        chart order."""
        return self.tangent_indices + self.fiber_indices

    def restrict(self, value):
        """Set the fiber variables to zero (ambient variable count kept)."""
        return restrict_zero(value, self.fiber_indices)


@record
class Filtration:
    """Generator lists for levels -1..-order on a common chart."""

    chart: Chart
    order: int
    levels: tuple[tuple[VectorField, ...], ...]
    # generators(depth) for depth 1..order, built once
    _generators: tuple[tuple[VectorField, ...], ...]

    def __init__(self, chart: Chart, order: int, levels: Sequence[Sequence[VectorField]]):
        if order < 1:
            raise ValueError("filtration order must be at least 1")
        if len(levels) != order:
            raise ValueError("expected one generator list per level -1..-order")
        frozen = []
        for gens in levels:
            gens = tuple(gens)
            for g in gens:
                if g.chart != chart:
                    raise ValueError("generator lives on a different chart")
            frozen.append(gens)
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "levels", tuple(frozen))
        cumulative: list[VectorField] = []
        generators = []
        for gens in frozen:
            for g in gens:
                if g not in cumulative:
                    cumulative.append(g)
            generators.append(tuple(cumulative))
        object.__setattr__(self, "_generators", tuple(generators))

    def generators(self, depth: int) -> tuple[VectorField, ...]:
        """Generators of H_{-depth}: every listed generator of levels 1..depth."""
        if not 1 <= depth <= self.order:
            raise ValueError(f"level depth {depth} out of range")
        return self._generators[depth - 1]

    def max_generator_degree(self) -> int:
        return fields_degree(g for gens in self.levels for g in gens)

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
    """Deterministic witness-point sequence: origin, integer shells, rationals."""
    count = 0

    def emit(pt):
        nonlocal count
        count += 1
        return tuple(Fraction(v) for v in pt)

    yield emit((0,) * nvars)
    for radius in (1, 2):
        for pt in itertools.product(range(-radius, radius + 1), repeat=nvars):
            if max(abs(c) for c in pt) == radius:
                yield emit(pt)
                if count >= SAMPLE_BUDGET:
                    return
    m = len(_RATIONAL_CYCLE)
    for k in range(m):
        pt = tuple(_RATIONAL_CYCLE[(k + i) % m] for i in range(nvars))
        yield emit(pt)
        if count >= SAMPLE_BUDGET:
            return


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
    of B or more, so two entries never share a key silently.
    """

    def __init__(self, nvars: int, base: int):
        if base < 1:
            raise ValueError("the packing base must be positive")
        self.nvars = nvars
        self.base = base
        self.place = base**nvars

    @classmethod
    def for_degree(cls, nvars: int, degree: int) -> "PackedKeys":
        """Keys for monomials of total degree at most degree: B = degree + 1."""
        return cls(nvars, degree + 1)

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
    return max((sum(m) for f in fields for c in f.coeffs for m in c.terms), default=0)


def field_entries(field: VectorField, keys: PackedKeys) -> dict[int, Fraction]:
    """Nonzero coefficients of a field under packed (component, monomial)
    keys, held as RowEchelon holds them."""
    return {
        keys.pack(a, mono): held(value)
        for a, c in enumerate(field.coeffs)
        for mono, value in c.terms.items()
    }


def module_columns(
    gens: Sequence[VectorField], monos: Sequence[tuple[int, ...]], keys: PackedKeys
) -> list[dict[int, Fraction]]:
    """Entries of x^alpha * g for every generator g (outer loop) and
    monomial alpha (inner loop), the layout unpack_coefficients reads.

    Each generator's entries are packed once and shifted by enc(alpha).
    A shifted exponent reaches at most the generator's top exponent in
    that variable plus the monomials' top one; ValueError when that is B
    or more, so a shift never carries into the next digit.
    """
    n = keys.nvars
    shifts = [keys.enc(alpha) for alpha in monos]
    mono_top = [max((alpha[i] for alpha in monos), default=0) for i in range(n)]
    cols = []
    for g in gens:
        for i in range(n):
            top = max((c.degree_in(i) for c in g.coeffs), default=0)
            if top + mono_top[i] >= keys.base:
                raise ValueError(f"a shifted exponent does not fit the packing base {keys.base}")
        entries = field_entries(g, keys).items()
        for s in shifts:
            cols.append({k + s: value for k, value in entries})
    return cols


def transposed(columns: Sequence[dict[int, Fraction]]) -> list[dict[int, Fraction]]:
    """One sparse row per packed key: entry k is column k's."""
    rows: dict[int, dict[int, Fraction]] = {}
    for k, col in enumerate(columns):
        for key, value in col.items():
            rows.setdefault(key, {})[k] = value
    return list(rows.values())


def unpack_coefficients(
    vec: Sequence[Fraction], count: int, monos: Sequence[tuple[int, ...]], nvars: int
) -> tuple[Poly, ...]:
    """Per-generator polynomials from a vector laid out like module_columns."""
    size = len(monos)
    chunks = (vec[j * size : (j + 1) * size] for j in range(count))
    return tuple(
        Poly(nvars, {alpha: x for alpha, x in zip(monos, chunk) if x}) for chunk in chunks
    )


def degree_schedule(nvars: int, cap: int) -> list[int]:
    """The rungs 0 = d_0 < d_1 < ... < cap that bounded membership walks.

    The next rung is the least degree whose monomial count C(n + d, n) is
    at least 4 times the previous rung's; a rung whose count exceeds a
    quarter of the cap's is skipped, and the cap is always the last rung.
    So the walk builds at most 1.5 times the cap's columns (4/3 for n >= 2).
    A middle rung decides a bracket whose certificate has low positive
    degree, such as -x1*dx4 in the full module, certified by -x1 on dx4.
    """
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


def _pointwise_scan(fields, gens, prefixes, pending, points, results) -> list[int]:
    """Fail each pending field at the first of points where it leaves the
    pointwise span of its generator prefix; the fields still pending.

    The generators are evaluated once per point, and one pointwise span
    grows through the prefixes in increasing order.
    """
    pending = sorted(pending, key=prefixes.__getitem__)
    for point in points:
        if not pending:
            break
        pointwise = RowEchelon()
        done = 0
        inside = []
        for t in pending:
            for g in gens[done : prefixes[t]]:
                pointwise.add(g.value_at(point))
            done = prefixes[t]
            if pointwise.contains(fields[t].value_at(point)):
                inside.append(t)
            else:
                results[t] = TriState.failed(point)
        pending = inside
    return pending


def module_membership_batch(
    fields: Sequence[VectorField],
    gens: Sequence[VectorField],
    prefixes: Sequence[int],
    degree_bound: int,
) -> tuple[TriState, ...]:
    """Decide v = sum u_j g_j over the first prefixes[t] generators, with
    polynomial u_j of degree <= degree_bound, for every field v = fields[t]
    of the batch, one verdict per field in order.

    The bound is walked up degree_schedule(n, degree_bound), and each rung
    d is one elimination: the transposed system of module_columns over
    monos_d and the generators up to the largest open prefix, with the
    open fields as right-hand columns, open field number s as ncols + s.
    Generator j owns the block of columns j*len(monos_d) up to
    (j + 1)*len(monos_d), so the first prefixes[t] generators own the
    leading k_t = prefixes[t]*len(monos_d) columns, and field t is read with
    RowEchelon.particular_entries(k_t, ncols + s).  That is exact because
    RREF has a prefix property: restricted to the leading columns
    A_1..A_k and one column b of B, the reduced form of
    [A_1 | A_2 | ... | B] is row equivalent to [A_1..A_k | b]; its rows
    with a pivot among the leading columns are in reduced form there, and
    its other rows vanish on them.
    So b is in the span of the leading columns exactly when none of those
    other rows (pivot at or past k_t) has an entry in b's column, and the
    particular solution (free variables 0) is then b's entries on the rows
    with their pivot before k_t.  RREF is unique, so each rung's verdict and
    certificate equal those of solving the field on its own against its
    prefix at that rung's bound, in a system of its own.

    A pass certificate is the tuple of coefficient polynomials, one per
    generator of the prefix, read at the first rung that solves the field;
    a fail certificate is the first point of sample_points where v leaves
    the pointwise span of those generators.  The fields rung 0 leaves open
    are tested at the first point, and those the last rung leaves open are
    scanned from the second point on.  When neither a bounded solution nor
    a witness exists the verdict is inconclusive.

    Every verdict and witness is that of one elimination at the cap: the
    monomial sets are nested, so a rung's solution is one at the cap, and a
    polynomial combination holds pointwise, so a pointwise witness rules
    out every bound.  Only a pass certificate can differ, being read at the
    deciding rung.
    """
    if len(prefixes) != len(fields):
        raise ValueError("expected one generator-prefix length per field")
    if any(not 0 <= k <= len(gens) for k in prefixes):
        raise ValueError("generator-prefix length out of range")
    if not fields:
        return ()
    chart = fields[0].chart
    if any(x.chart != chart for x in (*fields, *gens)):
        raise ValueError("fields and generators live on different charts")
    n = chart.dim
    results: list[TriState] = [TriState.undecided("degree_bound")] * len(fields)
    pending = list(range(len(fields)))
    points = sample_points(n)
    gens_degree, top_field_degree = fields_degree(gens), fields_degree(fields)
    for d in degree_schedule(n, degree_bound):
        monos = monomials_up_to(n, d)
        keys = PackedKeys.for_degree(n, max(gens_degree + d, top_field_degree))
        # generators past every open prefix own trailing columns no read needs
        used = max(prefixes[t] for t in pending)
        columns = module_columns(gens[:used], monos, keys)
        ncols = len(columns)
        rhs = [field_entries(fields[t], keys) for t in pending]
        span = RowEchelon(transposed(columns + rhs))
        size = len(monos)
        still = []
        for s, t in enumerate(pending):
            k = prefixes[t]
            solution = span.particular_entries(k * size, ncols + s)
            if solution is None:
                still.append(t)
                continue
            # column p is generator p // size times monomial monos[p % size]
            by_gen: list[dict] = [{} for _ in range(k)]
            for p, x in sorted(solution.items()):
                by_gen[p // size][monos[p % size]] = x
            results[t] = TriState.passed(tuple(Poly(n, terms) for terms in by_gen))
        pending = still
        if d == 0:
            pending = _pointwise_scan(
                fields, gens, prefixes, pending, itertools.islice(points, 1), results
            )
        if not pending:
            break
    _pointwise_scan(fields, gens, prefixes, pending, points, results)
    return tuple(results)


def module_membership(
    v: VectorField, gens: Sequence[VectorField], degree_bound: int
) -> TriState:
    """Decide v = sum u_j g_j with polynomial u_j of degree <= degree_bound:
    module_membership_batch on the one field v, against every generator."""
    return module_membership_batch([v], gens, [len(gens)], degree_bound)[0]


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


class _TautologicalPass(TriState):
    """Pass of a bracket [g, h] in the full module of vector fields.

    The certificate is the bracket's own coefficients on the coordinate
    frame, padded with a zero coefficient per top-level generator.  It is
    built on first read, so a verdict alone never computes the bracket.
    """

    def __init__(self, g: VectorField, h: VectorField, padding: tuple[Poly, ...]):
        object.__setattr__(self, "verdict", PASS)
        object.__setattr__(self, "reason", "")
        object.__setattr__(self, "_pair", (g, h, padding))

    @functools.cached_property
    def certificate(self) -> tuple[Poly, ...]:
        g, h, padding = self._pair
        return lie_bracket(g, h).coeffs + padding


def check_bracket_compat(filtration: Filtration, degree_bound: int) -> BracketCompatReport:
    """Verify [H_{-i}, H_{-j}] <= H_{-(i+j)} on all generator pairs.

    The target modules are nested: generators(k) is a prefix of
    generators(top) for every target level k <= top.  So all brackets go
    into one module_membership_batch call against the top target level's
    generators, each bracket read against the prefix generators(i + j): one
    elimination per rung for every level, whose verdicts and certificates
    equal those of one call per level (the prefix property of RREF; see
    module_membership_batch).  That call walks the degree bound up from 0,
    with the still-open brackets only, and tests what rung 0 leaves open
    at the origin first: nearly every bracket is decided there.  Each
    verdict and witness is that of one elimination at the cap; a pass
    certificate is read at the least rung that solves its bracket.  Pairs
    with i + j beyond the filtration order land in the full module of
    vector fields and pass with the tautological coordinate-field
    certificate, whose bracket is computed only when the certificate is
    read.
    """
    r = filtration.order
    pairs = []
    for i in range(1, r + 1):
        for j in range(i, r + 1):
            gens_i = filtration.levels[i - 1]
            gens_j = filtration.levels[j - 1]
            for gi, g in enumerate(gens_i):
                for gj, h in enumerate(gens_j):
                    if i == j and gj < gi:
                        continue
                    pairs.append((i, j, gi, gj, g, h))
    inside = [(i + j, g, h) for i, j, _, _, g, h in pairs if i + j <= r]
    top = max((k for k, _, _ in inside), default=1)
    verdicts = iter(
        module_membership_batch(
            [lie_bracket(g, h) for _, g, h in inside],
            filtration.generators(top),
            [len(filtration.generators(k)) for k, _, _ in inside],
            degree_bound,
        )
    )
    padding = tuple(Poly.zero(filtration.chart.dim) for _ in filtration.generators(r))
    checks = []
    for i, j, gi, gj, g, h in pairs:
        if i + j <= r:
            result = next(verdicts)
        else:
            result = _TautologicalPass(g, h, padding)
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
    one = RatFunc.const(chart.dim, 1)
    fiber = submanifold.fiber_indices
    m = submanifold.base_point
    generic = RowEchelon({b: one} for b in submanifold.tangent_indices)
    at_point = RowEchelon({b: Fraction(1)} for b in submanifold.tangent_indices)
    ranks = [at_point.rank]
    generic_ranks = [generic.rank]
    frame: list[VectorField] = []
    frame_levels: list[int] = []
    done = 0
    for depth in range(1, filtration.order + 1):
        gens = filtration.generators(depth)
        for g in gens[done:]:
            generic.add([RatFunc(restrict_zero(c, fiber)) for c in g.coeffs])
            if at_point.add(g.value_at(m)):
                frame.append(g)
                frame_levels.append(depth)
        done = len(gens)
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
    in the tangent variables.  The system is "fiber components vanish on
    N", homogeneous, with the generators' fiber parts restricted to N as
    columns.  Generator j owns columns j*len(monos) up to
    (j + 1)*len(monos), so each prefix's system is a column prefix of the
    whole one: one elimination serves every prefix, each basis read with
    RowEchelon.nullspace (the prefix property of RREF).  Each basis is
    deterministic and equals that of a system of the prefix's own.  May
    miss higher-degree combinations (degree-bound caveat).  When N is a
    point the system is the constant nullspace of the generators' values
    there, whatever the bound.
    """
    chart = submanifold.chart
    n = chart.dim
    fiber = submanifold.fiber_indices
    for g in gens:
        if g.chart != chart:
            raise ValueError("generator lives on a different chart")
    if any(not 0 <= k <= len(gens) for k in prefixes):
        raise ValueError("generator-prefix length out of range")
    monos = [
        mono
        for mono in monomials_up_to(n, degree_bound)
        if not any(mono[f] for f in fiber)
    ]
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
    keys = PackedKeys.for_degree(n, fields_degree(parts) + degree_bound)
    span = RowEchelon(transposed(module_columns(parts, monos, keys)))
    size = len(monos)
    return tuple(
        [unpack_coefficients(vec, k, monos, n) for vec in span.nullspace(k * size)]
        for k in prefixes
    )
