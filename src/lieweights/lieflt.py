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
from typing import Iterable, Sequence

from .exactalg import (
    LinearSolution,
    Poly,
    RatFunc,
    RowEchelon,
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
        deg = 0
        for gens in self.levels:
            for g in gens:
                for c in g.coeffs:
                    deg = max(deg, c.total_degree())
        return deg

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


RowKey = tuple[int, tuple[int, ...]]


def field_entries(field: VectorField) -> dict[RowKey, Fraction]:
    """Nonzero coefficients of a field keyed (component, monomial)."""
    return {
        (a, mono): value
        for a, c in enumerate(field.coeffs)
        for mono, value in c.terms.items()
    }


def module_columns(
    gens: Sequence[VectorField], monos: Sequence[tuple[int, ...]]
) -> list[dict[RowKey, Fraction]]:
    """Entries of x^alpha * g for every generator g (outer loop) and
    monomial alpha (inner loop), the layout unpack_coefficients reads."""
    cols = []
    for g in gens:
        entries = field_entries(g).items()
        for alpha in monos:
            cols.append(
                {
                    (a, tuple(x + y for x, y in zip(alpha, mono))): value
                    for (a, mono), value in entries
                }
            )
    return cols


def transposed(columns: Sequence[dict[RowKey, Fraction]]) -> list[dict[int, Fraction]]:
    """One sparse row per (component, monomial) key: entry k is column k's."""
    rows: dict[RowKey, dict[int, Fraction]] = {}
    for k, col in enumerate(columns):
        for rk, value in col.items():
            rows.setdefault(rk, {})[k] = value
    return list(rows.values())


def module_solve(
    columns: Sequence[dict[RowKey, Fraction]],
    target: dict[RowKey, Fraction] | None = None,
) -> LinearSolution | None:
    """Solve sum_k x_k columns[k] = target, or None when infeasible.

    The columns are transposed into one sparse row per (component,
    monomial) key, with the target in column len(columns); target None
    means 0.  The reduced echelon form is unique, so the row order does
    not matter.
    """
    rows = transposed([*columns, target or {}])
    return RowEchelon(rows).solve(len(columns))


def unpack_coefficients(
    vec: Sequence[Fraction], count: int, monos: Sequence[tuple[int, ...]], nvars: int
) -> tuple[Poly, ...]:
    """Per-generator polynomials from a vector laid out like module_columns."""
    size = len(monos)
    chunks = (vec[j * size : (j + 1) * size] for j in range(count))
    return tuple(
        Poly(nvars, {alpha: x for alpha, x in zip(monos, chunk) if x}) for chunk in chunks
    )


def module_membership_batch(
    fields: Sequence[VectorField], gens: Sequence[VectorField], degree_bound: int
) -> tuple[TriState, ...]:
    """Decide v = sum u_j g_j with polynomial u_j of degree <= degree_bound
    for every field v of the batch, one verdict per field in order.

    One elimination serves the batch: the transposed system of
    module_columns(gens, monos) with field t as right-hand column
    ncols + t.  A field is feasible exactly when no reduced row with its
    pivot at or past ncols has an entry in its column, and its particular
    solution is then that column's entries on the other rows
    (RowEchelon.particular).  RREF is unique and rows that vanish on the
    generator columns do not change a feasible column, so each verdict
    and certificate equals that of solving the field on its own.

    A pass certificate is the tuple of coefficient polynomials; a fail
    certificate is the first point of sample_points where v leaves the
    pointwise span of the generators.  When neither a bounded solution nor
    a witness exists the verdict is inconclusive.
    """
    if not fields:
        return ()
    chart = fields[0].chart
    if any(x.chart != chart for x in (*fields, *gens)):
        raise ValueError("fields and generators live on different charts")
    n = chart.dim
    monos = monomials_up_to(n, degree_bound)
    columns = module_columns(gens, monos)
    ncols = len(columns)
    span = RowEchelon(transposed(columns + [field_entries(v) for v in fields]))
    results: list[TriState] = []
    pending: list[int] = []
    for t in range(len(fields)):
        solution = span.particular(ncols, ncols + t)
        if solution is None:
            results.append(TriState.undecided("degree_bound"))
            pending.append(t)
        else:
            coeffs = unpack_coefficients(solution, len(gens), monos, n)
            results.append(TriState.passed(coeffs))
    for point in sample_points(n):
        if not pending:
            break
        pointwise = RowEchelon(g.value_at(point) for g in gens)
        inside = []
        for t in pending:
            if pointwise.contains(fields[t].value_at(point)):
                inside.append(t)
            else:
                results[t] = TriState.failed(point)
        pending = inside
    return tuple(results)


def module_membership(
    v: VectorField, gens: Sequence[VectorField], degree_bound: int
) -> TriState:
    """Decide v = sum u_j g_j with polynomial u_j of degree <= degree_bound:
    module_membership_batch on the one field v."""
    return module_membership_batch([v], gens, degree_bound)[0]


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

    Every pair with the same i + j is tested against the same target
    module, so the brackets are grouped by target level and each level
    is one module_membership_batch call: one elimination, with each
    bracket as its own right-hand side.  Pairs with i + j beyond the
    filtration order land in the full module of vector fields and pass
    with the tautological coordinate-field certificate, whose bracket is
    computed only when the certificate is read.
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
    by_level: dict[int, list[VectorField]] = {}
    for i, j, _, _, g, h in pairs:
        if i + j <= r:
            by_level.setdefault(i + j, []).append(lie_bracket(g, h))
    verdicts = {
        k: iter(module_membership_batch(brackets, filtration.generators(k), degree_bound))
        for k, brackets in by_level.items()
    }
    padding = tuple(Poly.zero(filtration.chart.dim) for _ in filtration.generators(r))
    checks = []
    for i, j, gi, gj, g, h in pairs:
        if i + j <= r:
            result = next(verdicts[i + j])
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
    gens: Sequence[VectorField], submanifold: Submanifold, degree_bound: int
) -> list[tuple[Poly, ...]]:
    """Coefficient tuples u with sum u_j g_j tangent to the submanifold.

    Tangency and the values u_j(m) depend only on u restricted to N, so
    the unknowns are polynomials on N: monomials of degree <= degree_bound
    in the tangent variables.  Solves the homogeneous system "fiber
    components vanish on N" and returns a deterministic basis of
    coefficient tuples.  May miss higher-degree combinations
    (degree-bound caveat).  When N is a point the system is the constant
    nullspace of the generators' values there, whatever the bound.
    """
    chart = submanifold.chart
    n = chart.dim
    fiber = submanifold.fiber_indices
    for g in gens:
        if g.chart != chart:
            raise ValueError("generator lives on a different chart")
    monos = [
        mono
        for mono in monomials_up_to(n, degree_bound)
        if not any(mono[f] for f in fiber)
    ]
    # fiber components restricted to N: drop monomials using a fiber variable
    cols = [
        {
            (a, mono): value
            for (a, mono), value in col.items()
            if a in fiber and not any(mono[f] for f in fiber)
        }
        for col in module_columns(gens, monos)
    ]
    solution = module_solve(cols)
    assert solution is not None
    return [
        unpack_coefficients(vec, len(gens), monos, n) for vec in solution.nullspace
    ]
