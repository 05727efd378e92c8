"""Filtration checks: membership, bracket compatibility, cleanness, weights."""

import contextlib
import functools
import io
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import (
    CHART_TABC,
    CountingRowEchelon,
    filiform_problem,
    module_solve,
    multiple_columns,
    pack_key,
    pushed_forward_model,
    unpack_key,
    unpack_reference,
)
from lieweights import exactalg, lieflt
from lieweights.cli import load_problem, main
from lieweights.exactalg import (
    LinearSolution,
    Poly,
    RatFunc,
    RowEchelon,
    grlex_key,
    held,
    linear_solve_exact,
    matrix_rank,
)
from lieweights.lieflt import (
    FAIL,
    INCONCLUSIVE,
    MAX_MONOMIALS,
    PASS,
    Filtration,
    ModuleRows,
    Submanifold,
    check_bracket_compat,
    TriState,
    capped_bound,
    check_clean,
    degree_schedule,
    fields_degree,
    module_membership,
    module_membership_batch,
    monomials_up_to,
    sample_points,
    tangency_solve,
    weight_sequence,
)
from lieweights.vfield import (
    Chart,
    ParseError,
    VectorField,
    coordinate_field,
    lie_bracket,
    parse_vector_field,
)

CHART = Chart(("x", "y", "z"))
PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
BENCH_PROBLEMS = PROBLEMS.parent / "bench" / "problems"


def vf(src: str) -> VectorField:
    return parse_vector_field(src, CHART)


def origin_sub() -> Submanifold:
    return Submanifold(CHART, (), (0, 0, 0))


def example1_filtration() -> Filtration:
    x = vf("dx + x*dz")
    y = vf("dy")
    z = vf("dz")
    return Filtration(CHART, 3, [[x], [x, y], [x, y, z]])


def martinet_filtration() -> Filtration:
    x = vf("dx + (2*x + y)*dz")
    y = vf("dy + (x + x^2)*dz")
    b = vf("2*x*dz")
    frame = [coordinate_field(CHART, a) for a in range(3)]
    return Filtration(CHART, 4, [[x], [x, y], [x, y, b], [x, y, b] + frame])


# -- bounded-module systems ---------------------------------------------------


def dense_module_solve(columns, target):
    """Reference: dense rows sorted by (component, grlex monomial), one zero
    row when there are no keys, solved by linear_solve_exact."""
    target = target or {}
    keys = set(target).union(*columns)
    row_keys = sorted(keys, key=lambda rk: (rk[0], grlex_key(rk[1])))
    rows = [[col.get(rk, 0) for col in columns] for rk in row_keys]
    rhs = [target.get(rk, 0) for rk in row_keys]
    return linear_solve_exact(rows or [[0] * len(columns)], rhs or [0])


ROW_KEYS = st.tuples(st.integers(0, 2), st.tuples(st.integers(0, 2), st.integers(0, 2)))
NONZERO = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 3))


@st.composite
def module_systems(draw):
    columns = draw(
        st.lists(st.dictionaries(ROW_KEYS, NONZERO, max_size=4), max_size=7)
    )
    kind = draw(st.sampled_from(["none", "random", "in_span"]))
    if kind == "none":
        return columns, None
    if kind == "random":
        return columns, draw(st.dictionaries(ROW_KEYS, NONZERO, max_size=4))
    target: dict = {}
    for col in columns:
        c = draw(st.integers(-2, 2))
        for rk, value in col.items():
            target[rk] = target.get(rk, 0) + c * value
    return columns, {rk: value for rk, value in target.items() if value}


@settings(max_examples=150, deadline=None)
@given(module_systems())
def test_module_solve_matches_dense_reference(system):
    columns, target = system
    assert module_solve(columns, target) == dense_module_solve(columns, target)


def test_module_solve_edge_cases():
    key = (0, (0, 0))
    # no columns: only the zero target is reachable
    assert module_solve([]) == LinearSolution({}, ())
    assert module_solve([], {key: Fraction(1)}) is None
    # all columns empty, homogeneous: every column is free
    sol = module_solve([{}, {}, {}])
    assert sol.particular == {}
    assert sol.nullspace == ({0: 1}, {1: 1}, {2: 1})
    # infeasible target
    assert module_solve([{key: Fraction(2)}], {(1, (0, 0)): Fraction(1)}) is None


# -- packed keys ----------------------------------------------------------------


@st.composite
def fields_and_bounds(draw):
    """A field on 1-4 variables with coefficients of degree <= 3 and a
    degree bound 0-4."""
    n = draw(st.integers(1, 4))
    chart = Chart(tuple("xyzw"[:n]))
    coeff = st.dictionaries(st.sampled_from(monomials_up_to(n, 3)), NONZERO, max_size=3)
    field = VectorField(chart, [Poly(n, draw(coeff)) for _ in range(n)])
    return field, draw(st.integers(0, 4))


def rows_for(field, bound):
    """The module rows of the field's multiples by the monomials up to the
    bound: base fields_degree([field]) + bound + 1."""
    n = field.chart.dim
    return ModuleRows([field], monomials_up_to(n, bound), n, 0)


@settings(max_examples=100, deadline=None)
@given(fields_and_bounds())
def test_packed_keys_order_like_tuple_keys_and_round_trip(case):
    field, bound = case
    n = field.chart.dim
    rows = rows_for(field, bound)
    entries = {
        (a, tuple(x + y for x, y in zip(mono, beta)))
        for a, c in enumerate(field.coeffs)
        for mono in c.terms
        for beta in monomials_up_to(n, bound)
    }
    # a marker is the packing of (n + pos, 0): after every field key
    markers = {(n + pos, (0,) * n) for pos in range(3)}
    ordered = sorted(entries | markers)
    packed = [pack_key(rows, a, mono) for a, mono in ordered]
    assert all(k < k_next for k, k_next in zip(packed, packed[1:]))
    assert [unpack_key(rows, k) for k in packed] == ordered
    assert packed[-3:] == [rows.marker(pos) for pos in range(3)]


@settings(max_examples=100, deadline=None)
@given(fields_and_bounds())
def test_a_monomial_shift_adds_its_code(case):
    field, bound = case
    n = field.chart.dim
    monos = monomials_up_to(n, bound)
    rows = ModuleRows([field], monos, n, 0)
    entries = rows.entries(field)
    assert entries == {
        pack_key(rows, a, mono): x
        for a, c in enumerate(field.coeffs)
        for mono, x in c.terms.items()
    }
    # held as RowEchelon holds them: integral values as ints
    assert all(type(x) is int or x.denominator != 1 for x in entries.values())
    for beta in monos:
        shifted = rows.entries(field.scale(Poly.term(n, beta, 1)))
        row = rows.row(0, rows.enc(beta))
        assert row == shifted == {k + rows.enc(beta): x for k, x in entries.items()}


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.just(n), st.integers(1, 5), st.lists(st.integers(0, 6), min_size=n, max_size=n)
        )
    )
)
def test_packing_raises_exactly_on_an_exponent_at_or_past_the_base(case):
    n, base, mono = case
    # no generator and no monomial: the reach alone sets the base
    rows = ModuleRows([], [], n, base - 1)
    assert (rows.base, rows.place) == (base, base**n)
    if max(mono) >= base:
        with pytest.raises(ValueError):
            rows.enc(mono)
        with pytest.raises(ValueError):
            chart = Chart(tuple("xyzw"[:n]))
            rows.entries(VectorField(chart, [Poly.term(n, tuple(mono), 1)] * n))
    else:
        assert unpack_key(rows, pack_key(rows, 1, mono)) == (1, tuple(mono))


def test_module_rows_pick_their_packing_base():
    # B = max(generators' degree + the monomials' top degree, reach) + 1
    chart = Chart(("x", "y"))
    g = VectorField(chart, [Poly.term(2, (2, 0), 1), Poly.zero(2)])
    assert ModuleRows([g], monomials_up_to(2, 1), 2, 0).base == 4
    assert ModuleRows([g], monomials_up_to(2, 1), 2, 5).base == 6
    assert ModuleRows([g], [], 2, -1).base == 3
    assert ModuleRows([], [], 2, -1).base == 1
    # base 5: x^2*dx packs to 0*5^2 + 2*5 + 0 = 10, times y^2 to 12, and
    # marker 1 to (2 + 1)*5^2
    rows = ModuleRows([g], [(0, 0), (0, 2)], 2, 0)
    assert [rows.row(0, rows.enc(beta)) for beta in [(0, 0), (0, 2)]] == [{10: 1}, {12: 1}]
    assert rows.marker(1) == 75
    # a field above the reach may not fit: packing still refuses it
    with pytest.raises(ValueError):
        rows.entries(VectorField(chart, [Poly.term(2, (0, 5), 1), Poly.zero(2)]))


@st.composite
def module_rows_cases(draw):
    """Generators of degree <= 3 on 1-4 variables, distinct monomials of
    degree <= 3, a reach -1..6 and two other fields of degree 0..6."""
    n = draw(st.integers(1, 4))
    chart = Chart(tuple("xyzw"[:n]))

    def field(degree):
        coeff = st.dictionaries(st.sampled_from(monomials_up_to(n, degree)), NONZERO, max_size=3)
        return VectorField(chart, [Poly(n, draw(coeff)) for _ in range(n)])

    gens = [field(3) for _ in range(draw(st.integers(0, 3)))]
    monos = draw(st.lists(st.sampled_from(monomials_up_to(n, 3)), max_size=5, unique=True))
    others = [field(draw(st.integers(0, 6))) for _ in range(2)]
    return gens, monos, n, draw(st.integers(-1, 6)), others


def tuple_entries(field, beta):
    """The (component, monomial) entries of x^beta * field."""
    return {
        (a, tuple(e + b for e, b in zip(mono, beta))): x
        for a, c in enumerate(field.coeffs)
        for mono, x in c.terms.items()
    }


@settings(max_examples=150, deadline=None)
@given(module_rows_cases())
def test_no_shift_carries(case):
    # every row key, and every key of a field within the reach, unpacks
    # back to its (component, monomial) pair, and holding() finds each
    # multiple on each of its keys
    gens, monos, n, reach, others = case
    rows = ModuleRows(gens, monos, n, reach)
    everyone = range(len(gens))
    for j, g in enumerate(gens):
        for beta in monos:
            shift = rows.enc(beta)
            row = rows.row(j, shift)
            assert {unpack_key(rows, k): x for k, x in row.items()} == tuple_entries(g, beta)
            assert all((j, shift) in rows.holding(k, everyone) for k in row)
    for f in others:
        if fields_degree([f]) <= reach:
            unpacked = {unpack_key(rows, k): x for k, x in rows.entries(f).items()}
            assert unpacked == tuple_entries(f, (0,) * n)


MARKER_VALUES = st.one_of(NONZERO, st.integers(-3, 3).filter(bool))


@settings(max_examples=100, deadline=None)
@given(module_rows_cases(), st.dictionaries(st.integers(0, 5), MARKER_VALUES, max_size=4), st.data())
def test_markers_read_back_every_marker_and_refuse_a_field_key(case, part, data):
    # a normal form holding marker keys alone reads back as its negated
    # marker part, by marker number; any key below the first marker is a
    # field key, and then there is no class to read
    gens, monos, n, reach, _ = case
    rows = ModuleRows(gens, monos, n, reach)
    rest = {rows.marker(pos): x for pos, x in part.items()}
    assert all(unpack_key(rows, k) == (n + pos, (0,) * n) for pos, k in zip(part, rest))
    read = rows.markers(rest)
    assert read == {pos: -x for pos, x in part.items()}
    assert all(type(x) is Fraction for x in read.values())
    field_key = data.draw(st.integers(0, rows.marker(0) - 1))
    assert rows.markers({**rest, field_key: data.draw(MARKER_VALUES)}) is None


@st.composite
def layout_cases(draw):
    """Generators, distinct monomials and a sparse coefficient map over the
    columns of their ModuleRows system."""
    gens = draw(st.lists(small_field(), min_size=1, max_size=3))
    monos = draw(
        st.lists(st.sampled_from(monomials_up_to(3, 2)), min_size=1, max_size=4, unique=True)
    )
    columns = st.integers(0, len(gens) * len(monos) - 1)
    return gens, monos, draw(st.dictionaries(columns, NONZERO, max_size=6))


@settings(max_examples=100, deadline=None)
@given(layout_cases())
def test_coefficients_decode_the_module_rows_layout(case):
    # column p is generator p // len(monos) times monos[p % len(monos)]:
    # the product columns a map weights sum to the entries of the field
    # that its decoded coefficients combine the generators to
    gens, monos, weights = case
    rows = ModuleRows(gens, monos, 3, 0)
    columns = multiple_columns(rows, gens, monos)
    assert rows.width(len(gens)) == len(columns)
    summed: dict = {}
    for p, x in weights.items():
        for key, value in columns[p].items():
            summed[key] = summed.get(key, 0) + x * value
    coeffs = rows.coefficients(weights, len(gens))
    assert coeffs == unpack_reference(weights, len(gens), monos, 3)
    target = combination(coeffs, gens)
    assert {key: x for key, x in summed.items() if x} == rows.entries(target)
    # system() is the transposed product columns with the target last, and
    # each prefix of generators owns the leading width(k) columns
    solution = module_solve(columns, rows.entries(target))
    span = rows.system([target])
    every = rows.width(len(gens))
    assert span.particular(every, every) == solution.particular
    for k in range(len(gens) + 1):
        head = combination(coeffs[:k], gens[:k])
        found = rows.system([head]).particular(rows.width(k), every)
        assert found is not None
        assert combination(rows.coefficients(found, k), gens[:k]) == head


# -- membership ---------------------------------------------------------------


def test_membership_pass_with_certificate():
    v = vf("x*dx")
    res = module_membership(v, [coordinate_field(CHART, 0)], 1)
    assert res.verdict == PASS
    assert res.certificate == (Poly.variable(3, 0),)


def test_membership_fail_at_origin():
    v = coordinate_field(CHART, 2)
    gens = [vf("dx"), vf("dy + x*dz")]
    res = module_membership(v, gens, 2)
    assert res.verdict == FAIL
    assert res.certificate == (Fraction(0), Fraction(0), Fraction(0))


def test_membership_fail_away_from_origin():
    v = vf("2*x*dz")
    gens = [vf("dx + (2*x + y)*dz"), vf("dy + (x + x^2)*dz")]
    res = module_membership(v, gens, 2)
    assert res.verdict == FAIL
    # the witness re-verifies: v(p) leaves the span of the generators at p
    p = res.certificate
    cols = [g.value_at(p) for g in gens]
    rows = [[c[a] for c in cols] for a in range(3)]
    ext = [row + [v.value_at(p)[a]] for a, row in enumerate(rows)]
    assert matrix_rank(ext) == matrix_rank(rows) + 1


def test_membership_inconclusive_when_degree_bound_too_small():
    # z^3*dx needs degree 3 coefficients but never fails pointwise
    v = VectorField(CHART, [Poly.variable(3, 2) ** 3, 0, 0])
    res = module_membership(v, [coordinate_field(CHART, 0)], 2)
    assert res.verdict == INCONCLUSIVE
    assert res.reason == "degree_bound"
    assert module_membership(v, [coordinate_field(CHART, 0)], 3).verdict == PASS


@st.composite
def poly_coeff(draw):
    degree_two = monomials_up_to(3, 2)
    terms = {}
    for _ in range(draw(st.integers(0, 2))):
        mono = draw(st.sampled_from(degree_two))
        terms[mono] = Fraction(draw(st.integers(-2, 2)))
    return Poly(3, terms)


@settings(max_examples=25, deadline=None)
@given(st.lists(poly_coeff(), min_size=2, max_size=2))
def test_membership_certificates_resubstitute(coeffs):
    gens = [vf("dx + x*dz"), vf("dy")]
    total = [Poly.zero(3)] * 3
    for u, g in zip(coeffs, gens):
        for a, c in enumerate(g.coeffs):
            total[a] = total[a] + u * c
    v = VectorField(CHART, total)
    res = module_membership(v, gens, 2)
    assert res.verdict == PASS
    rebuilt = [Poly.zero(3)] * 3
    for u, g in zip(res.certificate, gens):
        for a, c in enumerate(g.coeffs):
            rebuilt[a] = rebuilt[a] + u * c
    assert VectorField(CHART, rebuilt) == v


def per_field_membership(v, gens, degree_bound):
    """Oracle: membership as decided before batching, one elimination and
    one witness scan per field."""
    chart = v.chart
    for g in gens:
        if g.chart != chart:
            raise ValueError("generators live on a different chart")
    n = chart.dim
    monos = monomials_up_to(n, degree_bound)
    rows = ModuleRows(gens, monos, n, fields_degree([v]))
    solution = module_solve(multiple_columns(rows, gens, monos), rows.entries(v))
    if solution is not None:
        return TriState.passed(unpack_reference(solution.particular, len(gens), monos, n))
    for point in sample_points(n):
        span = RowEchelon(g.value_at(point) for g in gens)
        if not span.contains(v.value_at(point)):
            return TriState.failed(point)
    return TriState.undecided("degree_bound")


LINEAR_MONOS = monomials_up_to(3, 1)


@st.composite
def small_poly(draw, monos=LINEAR_MONOS):
    terms = {}
    for _ in range(draw(st.integers(0, 2))):
        terms[draw(st.sampled_from(monos))] = Fraction(draw(st.integers(-2, 2)))
    return Poly(3, terms)


@st.composite
def small_field(draw):
    return VectorField(CHART, [draw(small_poly()) for _ in range(3)])


def walk_membership(v, gens, degree_bound):
    """Oracle for the bound walk: per_field_membership at the cap, except
    that a pass is the oracle's pass at the deciding rung, the first rung
    of degree_schedule where it passes."""
    at_cap = per_field_membership(v, gens, degree_bound)
    if at_cap.verdict != PASS:
        return at_cap
    for d in degree_schedule(v.chart.dim, degree_bound):
        at_rung = per_field_membership(v, gens, d)
        if at_rung.verdict == PASS:
            return at_rung
    raise AssertionError("the cap is the last rung")


def combination(coeffs, gens):
    """sum u_j g_j, the field a pass certificate re-substitutes to."""
    total = VectorField(CHART, [0, 0, 0])
    for u, g in zip(coeffs, gens):
        total = total + g.scale(u)
    return total


@st.composite
def membership_batches(draw):
    """(fields, gens, bound, reads): combinations of the generators with
    coefficients of degree <= 2, so some need more than the bound, and
    random fields, often infeasible; plus the zero field, and a repeat of
    the first field the oracle does not pass, and negated copies of up to
    two fields.  Sometimes a generator is a monomial multiple of an
    earlier one, so that a field passes at a low rung with a certificate
    other than the cap's.  Each field has one to three reads (t, k), in
    shuffled order: the prefixes are all full, or drawn per read, so one
    column is often read against several prefixes."""
    gens = draw(st.lists(small_field(), min_size=1, max_size=3))
    if draw(st.booleans()):
        mono = draw(st.sampled_from(monomials_up_to(3, 2)[1:]))
        gens.append(draw(st.sampled_from(gens)).scale(Poly.term(3, mono, 1)))
    bound = draw(st.integers(0, 3))
    fields = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            v = VectorField(CHART, [0, 0, 0])
            for g in gens:
                v = v + g.scale(draw(small_poly(monomials_up_to(3, 2))))
            fields.append(v)
        else:
            fields.append(draw(small_field()))
    fields.insert(draw(st.integers(0, len(fields))), VectorField(CHART, [0, 0, 0]))
    for v in fields:
        if per_field_membership(v, gens, bound).verdict != PASS:
            fields.append(v)
            break
    negated = draw(st.lists(st.integers(0, len(fields) - 1), max_size=2, unique=True))
    fields.extend(-fields[t] for t in negated)
    full = draw(st.booleans())
    reads = [
        (t, len(gens) if full else draw(st.integers(0, len(gens))))
        for t in range(len(fields))
        for _ in range(draw(st.integers(1, 3)))
    ]
    return fields, gens, bound, draw(st.permutations(reads))


@settings(max_examples=150, deadline=None)
@given(membership_batches())
def test_batch_membership_matches_per_field_oracle(batch):
    # per read of fields[t] against gens[:k]: the verdict and any fail
    # witness are the oracle's at the cap, and a pass certificate is the
    # oracle's at the deciding rung, which re-substitutes to the field
    # exactly
    fields, gens, bound, reads = batch
    results = module_membership_batch(fields, gens, reads, bound)
    assert len(results) == len(reads)
    for (t, k), result in zip(reads, results):
        v = fields[t]
        at_cap = per_field_membership(v, gens[:k], bound)
        assert result.verdict == at_cap.verdict
        if result.verdict != PASS:
            assert result == at_cap
        else:
            assert result == walk_membership(v, gens[:k], bound)
            assert combination(result.certificate, gens[:k]) == v
    assert module_membership(fields[-1], gens, bound) == walk_membership(
        fields[-1], gens, bound
    )


def test_a_pass_is_certified_at_the_deciding_rung():
    # x*dx against [dx, x*dx] at bound 1: rung 0 already solves it with
    # (0, 1); one elimination at the cap reads (x, 0), its free column
    # x^0 * (x*dx) set to 0.  Both re-substitute.
    x = Poly.variable(3, 0)
    zero, one = Poly.zero(3), Poly.one(3)
    v = vf("x*dx")
    gens = [vf("dx"), v]
    assert degree_schedule(3, 1) == [0, 1]
    result = module_membership(v, gens, 1)
    assert result == TriState.passed((zero, one))
    assert result == per_field_membership(v, gens, 0)
    assert per_field_membership(v, gens, 1) == TriState.passed((x, zero))
    for certificate in (result.certificate, (x, zero)):
        assert combination(certificate, gens) == v


@pytest.mark.parametrize("nvars", range(1, 13))
def test_degree_schedule_builds_at_most_half_again_the_cap(nvars):
    cap = 0
    while math.comb(nvars + cap, nvars) <= MAX_MONOMIALS:
        rungs = degree_schedule(nvars, cap)
        assert rungs[0] == 0 and rungs[-1] == cap
        assert rungs == sorted(set(rungs))
        top = math.comb(nvars + cap, nvars)
        total = sum(math.comb(nvars + d, nvars) for d in rungs)
        assert 2 * total <= 3 * top
        if nvars >= 2:
            assert 3 * total <= 4 * top
        cap += 1


@pytest.mark.parametrize("nvars", range(1, 9))
def test_capped_bound_keeps_a_bound_that_fits_and_lowers_one_that_does_not(nvars):
    for bound in range(21):
        got = capped_bound(nvars, bound)
        if math.comb(nvars + bound, nvars) <= MAX_MONOMIALS:
            assert got == bound
        else:
            fits = math.comb(nvars + got, nvars) <= MAX_MONOMIALS
            assert fits and MAX_MONOMIALS < math.comb(nvars + got + 1, nvars)


@pytest.mark.parametrize(
    "nvars, bound, capped", [(1, 999, 999), (1, 1000, 999), (999, 1, 1), (999, 2, 1)]
)
def test_capped_bound_keeps_a_bound_with_exactly_the_cap(nvars, bound, capped):
    # C(1000, 1) = C(1000, 999) = MAX_MONOMIALS: no smaller chart or bound
    # reaches the cap exactly, so only these tell <= from <
    assert math.comb(nvars + capped, nvars) == MAX_MONOMIALS
    assert capped_bound(nvars, bound) == capped


NEGATIVE_BOUND = "degree bound must be non-negative, got -1"


def test_a_negative_degree_bound_is_refused():
    # the command line refuses it with exit 3; the library raised nothing
    # (bracket-compat passed with degree-0 certificates, degree_schedule
    # gave [0, -1]) or an unrelated packing error (tangency)
    with pytest.raises(ValueError, match=NEGATIVE_BOUND):
        degree_schedule(3, -1)
    with pytest.raises(ValueError, match=NEGATIVE_BOUND):
        module_membership_batch([vf("dx")], [vf("dx")], [(0, 1)], -1)
    # refused before the batch is read, so an empty batch too
    with pytest.raises(ValueError, match=NEGATIVE_BOUND):
        module_membership_batch([], [], [], -1)
    cartan = load_problem(str(BENCH_PROBLEMS / "cartan235.json"))
    with pytest.raises(ValueError, match=NEGATIVE_BOUND):
        check_bracket_compat(cartan.filtration, -1)
    with pytest.raises(ValueError, match=NEGATIVE_BOUND):
        tangency_solve([vf("dx")], Submanifold(CHART, (0,), (0, 0, 0)), -1, [1])


def built_system_degrees(monkeypatch):
    """Patch lieflt.ModuleRows to record the degree bound of each system
    it builds; the list it appends to."""
    degrees = []

    class Recording(ModuleRows):
        def __init__(self, gens, monos, nvars, reach):
            degrees.append(max(sum(alpha) for alpha in monos))
            super().__init__(gens, monos, nvars, reach)

    monkeypatch.setattr(lieflt, "ModuleRows", Recording)
    return degrees


def test_cartan_at_bound_seven_decides_every_bracket_at_rung_zero(monkeypatch):
    degrees = built_system_degrees(monkeypatch)
    path = str(BENCH_PROBLEMS / "cartan235.json")
    assert main(["check", path, "--degree-bound", "7"]) == 0
    assert degree_schedule(5, 7) == [0, 1, 3, 7]
    assert degrees == [0]


def test_engel4_broken_decides_its_last_bracket_at_the_middle_rung(monkeypatch):
    # the default bound is 5, whose system has 126 monomials per generator.
    # Rung 0 passes every bracket but two, and the origin fails
    # [X1, X2] = dx3 at level -2.  [X2, x1*dx3] = -x1*dx4 at level -3 has a
    # coefficient of degree 1: rung 1 passes it, so the cap is never built.
    degrees = built_system_degrees(monkeypatch)
    path = str(BENCH_PROBLEMS / "engel4_broken.json")
    flt = load_problem(path).filtration
    cap = flt.default_degree_bound()
    assert main(["check", path]) == 1
    assert degree_schedule(4, cap) == [0, 1, cap]
    assert degrees == [0, 1]
    (check,) = [
        c
        for c in check_bracket_compat(flt, cap).checks
        if (c.i, c.j, c.gi, c.gj) == (1, 2, 1, 2)
    ]
    bracket = lie_bracket(flt.levels[0][1], flt.levels[1][2])
    assert bracket == VectorField(flt.chart, [0, 0, 0, -Poly.variable(4, 0)])
    assert per_field_membership(bracket, flt.generators(3), 0).verdict != PASS
    assert check.result == per_field_membership(bracket, flt.generators(3), 1)


def test_batch_repeats_an_infeasible_field():
    # dz is not in the span at the origin; its repeat must not be read as
    # feasible off the row that the first copy pivots on
    gens = [vf("dx"), vf("dy + x*dz")]
    dz, inside = vf("dz"), vf("y*dx + dy + x*dz")
    zero = VectorField(CHART, [0, 0, 0])
    results = module_membership_batch(
        [dz, inside, dz, zero], gens, [(t, 2) for t in range(4)], 1
    )
    assert [r.verdict for r in results] == [FAIL, PASS, FAIL, PASS]
    assert results[0] == results[2] == per_field_membership(dz, gens, 1)
    assert results[1].certificate == (Poly.variable(3, 1), Poly.one(3))
    assert results[3].certificate == (Poly.zero(3), Poly.zero(3))
    assert module_membership_batch([], gens, [], 1) == ()


def test_membership_rejects_foreign_chart_and_rational_coefficients():
    other = parse_vector_field("du", Chart(("u", "v", "w")))
    with pytest.raises(ValueError):
        module_membership(other, [vf("dx")], 1)
    with pytest.raises(ValueError):
        module_membership(vf("dx"), [other], 1)
    with pytest.raises(ValueError):
        module_membership_batch([vf("dx"), other], [vf("dx")], [(0, 1), (1, 1)], 1)
    # a rational coefficient never reaches membership: the parser and the
    # VectorField constructor both refuse it
    with pytest.raises(ParseError, match="not a polynomial"):
        vf("1/(1 + x)*dx")
    one_over = RatFunc(Poly.one(3), Poly.one(3) + Poly.variable(3, 0))
    with pytest.raises(ValueError, match="must be polynomial"):
        VectorField(CHART, [one_over, 0, 0])


def reference_sample_points(nvars):
    # the witness sequence as first written, counted by hand: the origin,
    # the integer shells of radius 1 and 2, then the rational cycle
    cycle = [Fraction(p, q) for p, q in ((1, 2), (-1, 2), (1, 3), (-1, 3))]
    cycle += [Fraction(p, q) for p, q in ((2, 3), (-2, 3), (3, 2), (-3, 2))]
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
                if count >= 60:
                    return
    m = len(cycle)
    for k in range(m):
        yield emit(tuple(cycle[(k + i) % m] for i in range(nvars)))
        if count >= 60:
            return


def test_sample_points_deterministic():
    assert lieflt.SAMPLE_BUDGET == 60
    for nvars in range(1, 6):
        points = list(sample_points(nvars))
        assert points == list(sample_points(nvars))
        assert points == list(reference_sample_points(nvars))
        assert points[0] == (0,) * nvars
        assert len(points) <= lieflt.SAMPLE_BUDGET
        for point in points:
            assert type(point) is tuple and len(point) == nvars
            assert all(type(c) is Fraction for c in point)
    # one variable has fewer candidates than the budget; three have more
    assert len(list(sample_points(1))) == 13
    assert len(list(sample_points(3))) == 60


def test_zero_variables_sample_the_empty_point_and_pass():
    # with no variable a point has no entry to take the max of: the shells
    # are empty, and the origin and the rational cycle are all ()
    assert list(sample_points(0)) == [()] * 9
    chart = Chart(())
    zero = VectorField(chart, [])
    # the bracket at levels (1, 1) is read against level 2 and reaches
    # the final pointwise scan
    report = check_bracket_compat(Filtration(chart, 2, [[zero], [zero]]), degree_bound=2)
    assert report.verdict == PASS


# -- bracket compatibility ------------------------------------------------------


def test_martinet_brackets_pass_at_degree_two():
    report = check_bracket_compat(martinet_filtration(), degree_bound=2)
    assert report.verdict == PASS
    for check in report.checks:
        assert check.result.verdict == PASS


def test_broken_filtration_fails_at_level_one_pair():
    gens = [vf("dx"), vf("dy + x*dz")]
    frame = [coordinate_field(CHART, a) for a in range(3)]
    broken = Filtration(CHART, 3, [gens, gens, gens + frame])
    report = check_bracket_compat(broken, degree_bound=3)
    assert report.verdict == FAIL
    first = report.first_failure()
    assert (first.i, first.j) == (1, 1)
    assert first.result.certificate == (Fraction(0), Fraction(0), Fraction(0))


def test_abelian_filtration_passes():
    flt = Filtration(CHART, 2, [[vf("dx")], [vf("dx"), vf("dy"), vf("dz")]])
    assert check_bracket_compat(flt, degree_bound=2).verdict == PASS


def test_pairs_beyond_order_pass_tautologically():
    report = check_bracket_compat(example1_filtration(), degree_bound=2)
    assert report.verdict == PASS
    deep = [c for c in report.checks if c.i + c.j > 3]
    assert deep and all(c.result.verdict == PASS for c in deep)


@pytest.mark.parametrize("name", ["engel4", "cartan235"])
def test_bracket_compat_builds_only_the_brackets_it_tests(name, monkeypatch):
    spec = load_problem(str(PROBLEMS / f"{name}.json"))
    flt = spec.filtration
    built = []

    def counting_bracket(g, h):
        built.append(frozenset((id(g), id(h))))
        return lie_bracket(g, h)

    monkeypatch.setattr(lieflt, "lie_bracket", counting_bracket)
    report = check_bracket_compat(flt, spec.degree_bound)
    assert report.verdict == PASS
    assert report.first_failure() is None

    def pair(check):
        return flt.levels[check.i - 1][check.gi], flt.levels[check.j - 1][check.gj]

    def generator_pairs(checks):
        # unordered pairs of distinct generators; a repeated generator is
        # one object at every level that lists it
        return {frozenset(map(id, pair(c))) for c in checks if len(set(map(id, pair(c)))) == 2}

    tested = [c for c in report.checks if c.i + c.j <= flt.order]
    deep = [c for c in report.checks if c.i + c.j > flt.order]
    assert tested and deep
    # one bracket per unordered pair of distinct generators the tested
    # pairs name, none for a pair (g, g), and none for a deep pair yet
    assert len(built) == len(set(built))
    assert set(built) == generator_pairs(tested)
    assert len(built) < len(tested)

    # reading a tautological certificate builds its bracket, and the
    # certificate re-substitutes to it on the frame plus H_{-order}
    basis = [coordinate_field(flt.chart, a) for a in range(flt.chart.dim)]
    basis += flt.generators(flt.order)
    for check in deep:
        cert = check.result.certificate
        assert len(cert) == len(basis)
        total = basis[0].scale(cert[0])
        for coeff, gen in zip(cert[1:], basis[1:]):
            total = total + gen.scale(coeff)
        assert total == lie_bracket(*pair(check))
    # reading the deep certificates built only the pairs still missing
    assert len(built) == len(set(built))
    assert set(built) == generator_pairs(tested) | generator_pairs(deep)


def test_filiform_ten_check_brackets_each_generator_pair_once(tmp_path, monkeypatch):
    # filiform 10 lists 54 generator strings, 10 distinct, over 9 levels:
    # bracket-compat tests 310 of its 1485 pairs (those with i + j <= 9),
    # which name 29 unordered generator pairs.  It brackets the 24 pairs
    # of distinct generators once each; the five pairs (g, g) read the
    # zero field, with no bracket.
    path = tmp_path / "filiform10.json"
    path.write_text(json.dumps(filiform_problem(10)))
    built = []

    def counting_bracket(g, h):
        built.append((g, h))
        return lie_bracket(g, h)

    monkeypatch.setattr(lieflt, "lie_bracket", counting_bracket)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["check", str(path)]) == 0
    assert len(built) == 24
    flt = load_problem(str(path)).filtration
    report = check_bracket_compat(flt, 0)
    assert len(report.checks) == 1485
    tested = [c for c in report.checks if c.i + c.j <= flt.order]
    names = {
        frozenset((flt.level_indices(c.i)[c.gi], flt.level_indices(c.j)[c.gj]))
        for c in tested
    }
    assert len(tested) == 310
    assert len(names) == 29 and sum(len(p) == 1 for p in names) == 5


def per_level_bracket_compat(filtration, degree_bound):
    """Oracle: the verdicts of check_bracket_compat as decided before the
    elimination was shared, one module_membership_batch per target level
    against that level's generators; keyed (i, j, gi, gj)."""
    r = filtration.order
    by_level: dict = {}
    for i in range(1, r + 1):
        for j in range(i, r + 1):
            if i + j > r:
                continue
            for gi, g in enumerate(filtration.levels[i - 1]):
                for gj, h in enumerate(filtration.levels[j - 1]):
                    if i < j or gi <= gj:
                        by_level.setdefault(i + j, []).append(((i, j, gi, gj), lie_bracket(g, h)))
    results = {}
    for k, entries in by_level.items():
        gens = filtration.generators(k)
        brackets = [b for _, b in entries]
        reads = [(t, len(gens)) for t in range(len(brackets))]
        verdicts = module_membership_batch(brackets, gens, reads, degree_bound)
        results.update(zip((key for key, _ in entries), verdicts))
    return results


@st.composite
def small_filtrations(draw):
    """Filtrations with 2 or 3 levels of one or two small fields each,
    often repeating an earlier level's field, and a bound 0..2."""
    order = draw(st.integers(2, 3))
    levels = []
    for _ in range(order):
        level = []
        for _ in range(draw(st.integers(1, 2))):
            earlier = [g for lv in levels for g in lv]
            if earlier and draw(st.booleans()):
                level.append(draw(st.sampled_from(earlier)))
            else:
                level.append(draw(small_field()))
        levels.append(level)
    return Filtration(CHART, order, levels), draw(st.integers(0, 2))


@settings(max_examples=50, deadline=None)
@given(small_filtrations())
def test_new_at_tiles_the_generators_in_order(case):
    filtration, _ = case
    order = filtration.order
    every = filtration.generators(order)
    ranges = [filtration.new_at(depth) for depth in range(1, order + 1)]
    assert [p for new in ranges for p in new] == list(range(len(every)))
    for depth, new in enumerate(ranges, start=1):
        assert new.step == 1 and new.stop == len(filtration.generators(depth))
        assert filtration.generators(depth)[new.start :] == tuple(every[p] for p in new)


def test_new_at_is_empty_where_a_level_adds_nothing():
    gens = [vf("dx"), vf("dy + x*dz")]
    flt = Filtration(CHART, 3, [gens, gens[::-1], [vf("dz"), vf("dx")]])
    # compare the bounds: every empty range equals every other
    bounds = [(new.start, new.stop) for new in map(flt.new_at, (1, 2, 3))]
    assert bounds == [(0, 2), (2, 2), (2, 3)]
    for depth in (0, 4, -1):
        with pytest.raises(ValueError, match="out of range"):
            flt.new_at(depth)


@settings(max_examples=100, deadline=None)
@given(small_filtrations())
def test_shared_elimination_matches_per_level_oracle(case):
    filtration, bound = case
    expected = per_level_bracket_compat(filtration, bound)
    report = check_bracket_compat(filtration, bound)
    inside = {
        (c.i, c.j, c.gi, c.gj): c.result
        for c in report.checks
        if c.i + c.j <= filtration.order
    }
    assert inside == expected


def test_bracket_in_a_higher_level_only_fails_at_the_lower_target(monkeypatch):
    # [dx, dy + x*dz] = dz lies in H_{-3} but not in H_{-2}: the pair at
    # levels (1, 1) must fail, its twin at (1, 2) must pass, off one
    # shared elimination (plus the pointwise span at the origin)
    gens = [vf("dx"), vf("dy + x*dz")]
    flt = Filtration(CHART, 3, [gens, gens, [vf("dz")]])
    monkeypatch.setattr(lieflt, "RowEchelon", CountingRowEchelon)
    CountingRowEchelon.built = 0
    report = check_bracket_compat(flt, degree_bound=1)
    assert CountingRowEchelon.built == 2
    checks = {(c.i, c.j, c.gi, c.gj): c.result for c in report.checks}
    assert checks[(1, 1, 0, 1)] == TriState.failed((0, 0, 0))
    one, zero = Poly.one(3), Poly.zero(3)
    assert checks[(1, 2, 0, 1)] == TriState.passed((zero, zero, one))
    assert checks[(1, 2, 1, 0)] == TriState.passed((zero, zero, -one))
    assert module_membership(vf("dz"), flt.generators(3), 1).verdict == PASS
    for key, expected in per_level_bracket_compat(flt, 1).items():
        assert checks[key] == expected


def test_bracket_compat_builds_one_bounded_system(monkeypatch):
    # three target levels, every bracket passes at rung 0 of the walk: no
    # witness scan, no later rung, and one elimination in place of one per
    # level
    flt = martinet_filtration()
    monkeypatch.setattr(lieflt, "RowEchelon", CountingRowEchelon)
    CountingRowEchelon.built = 0
    report = check_bracket_compat(flt, degree_bound=2)
    assert report.verdict == PASS
    assert {c.i + c.j for c in report.checks if c.i + c.j <= flt.order} == {2, 3, 4}
    assert CountingRowEchelon.built == 1


def test_batch_reads_each_field_against_its_prefix():
    gens = [vf("dx"), vf("dy"), vf("dz")]
    dz = vf("dz")
    reads = [(0, 3), (0, 2), (0, 0), (1, 3)]
    results = module_membership_batch([dz, -dz], gens, reads, 0)
    zero, one = Poly.zero(3), Poly.one(3)
    assert results[0] == TriState.passed((zero, zero, one))
    assert results[1] == results[2] == TriState.failed((0, 0, 0))
    assert results[3] == TriState.passed((zero, zero, -one))
    with pytest.raises(ValueError):
        module_membership_batch([dz], gens, [(0, 4)], 0)
    with pytest.raises(ValueError):
        module_membership_batch([dz], gens, [(1, 3)], 0)


def test_a_pass_at_a_prefix_answers_the_larger_ones_padded():
    # x*dz is in the module of [dz] at bound 1 (rung 1), and of [dz, x*dz]
    # already at rung 0; [dx] alone never holds it.  Read against all
    # three prefixes of [dz, x*dz, dx], each prefix keeps its own deciding
    # rung, and prefix 3 is prefix 2's certificate padded with a zero.
    gens = [vf("dz"), vf("x*dz"), vf("dx")]
    v = vf("x*dz")
    fields = [v, -v]
    zero, one = Poly.zero(3), Poly.one(3)
    reads = [(0, 1), (1, 2), (0, 3)]
    results = module_membership_batch(fields, gens, reads, 1)
    assert results[0] == TriState.passed((Poly.variable(3, 0),))
    assert results[1] == TriState.passed((zero, -one))
    assert results[2] == TriState.passed((zero, one, zero))
    for (t, k), result in zip(reads, results):
        assert result == walk_membership(fields[t], gens[:k], 1)


# -- cleanness and weights -------------------------------------------------------


def test_example1_ranks():
    res = check_clean(example1_filtration(), origin_sub())
    assert res.verdict == PASS
    assert res.ranks == (0, 1, 2, 3)
    assert res.generic_ranks == (0, 1, 2, 3)


def test_martinet_ranks():
    res = check_clean(martinet_filtration(), origin_sub())
    assert res.verdict == PASS
    assert res.ranks == (0, 1, 2, 2, 3)


def test_non_constant_rank_fails():
    # x*dy restricted to N = {y=0} spans dy only where the base coordinate
    # x is nonzero, so the rank along N exceeds the rank at the base point
    chart = Chart(("x", "y"))
    g = parse_vector_field("x*dy", chart)
    frame = [coordinate_field(chart, a) for a in range(2)]
    flt = Filtration(chart, 2, [[g], [g] + frame])
    sub = Submanifold(chart, (0,), (0, 0))
    res = check_clean(flt, sub)
    assert res.verdict == FAIL
    assert res.first_bad_level == 1
    assert res.ranks[1] == 1 and res.generic_ranks[1] == 2


def test_weight_sequences():
    res1 = check_clean(example1_filtration(), origin_sub())
    assert weight_sequence(res1) == (1, 2, 3)
    assert origin_sub().adapted_order == (0, 1, 2)
    res2 = check_clean(martinet_filtration(), origin_sub())
    assert weight_sequence(res2) == (1, 2, 4)


def test_weight_sequence_with_tangent_directions():
    chart = Chart(("t", "x", "y"))
    g1 = parse_vector_field("dx", chart)
    frame = [coordinate_field(chart, a) for a in range(3)]
    flt = Filtration(chart, 2, [[g1], [g1] + frame])
    sub = Submanifold(chart, (0,), (5, 0, 0))
    res = check_clean(flt, sub)
    assert res.ranks == (1, 2, 3)
    assert weight_sequence(res) == (0, 1, 2)
    assert sub.adapted_order == (0, 1, 2)


def test_weight_sequence_rejects_short_span():
    chart = Chart(("x", "y"))
    g = parse_vector_field("dx", chart)
    flt = Filtration(chart, 1, [[g]])
    res = check_clean(flt, Submanifold(chart, (), (0, 0)))
    with pytest.raises(ValueError):
        weight_sequence(res)


def reference_clean(filtration, submanifold):
    """Rank flags by a fresh dense matrix_rank per depth, over the
    rational functions of N and at the base point, and a greedy frame that
    scans all of H_{-i}."""
    n = filtration.chart.dim
    m = submanifold.base_point
    ranks, generic_ranks = [], []
    for depth in range(filtration.order + 1):
        columns = [
            [Poly.const(n, 1 if a == b else 0) for a in range(n)]
            for b in submanifold.tangent_indices
        ]
        if depth:
            for g in filtration.generators(depth):
                columns.append([submanifold.restrict(c) for c in g.coeffs])
        rows = [[col[a] for col in columns] for a in range(n)]
        generic_ranks.append(matrix_rank(rows))
        ranks.append(matrix_rank([[x.eval(m) for x in row] for row in rows]))
    span = RowEchelon({b: Fraction(1)} for b in submanifold.tangent_indices)
    frame, levels = [], []
    for depth in range(1, filtration.order + 1):
        for g in filtration.generators(depth):
            if span.add(g.value_at(m)):
                frame.append(g)
                levels.append(depth)
    return tuple(ranks), tuple(generic_ranks), tuple(frame), tuple(levels)


def reference_weights(ranks, submanifold):
    """Weights read off the rank sequence: fiber position p gets the first
    depth whose rank covers it; None when the top level does not span."""
    n = submanifold.chart.dim
    if ranks[-1] != n:
        return None
    return tuple(
        0 if p < ranks[0] else next(i for i, k in enumerate(ranks) if k > p)
        for p in range(n)
    )


@functools.lru_cache(maxsize=None)
def pushed_forward_models():
    rng = random.Random(20261)
    return tuple(pushed_forward_model(rng) for _ in range(60))


def assert_clean_matches_reference(filtration, submanifold):
    res = check_clean(filtration, submanifold)
    ranks, generic_ranks, frame, levels = reference_clean(filtration, submanifold)
    assert res.ranks == ranks
    assert res.generic_ranks == generic_ranks
    assert res.frame == frame
    assert res.frame_levels == levels
    assert (res.verdict == PASS) == (ranks == generic_ranks)
    weights = reference_weights(ranks, submanifold)
    if weights is None:
        with pytest.raises(ValueError, match="does not span"):
            weight_sequence(res)
    else:
        assert weight_sequence(res) == weights
        assert submanifold.adapted_order == (
            submanifold.tangent_indices + submanifold.fiber_indices
        )
    return res


PROBLEM_FILES = sorted(PROBLEMS.glob("*.json")) + sorted(
    (PROBLEMS.parent / "bench" / "problems").glob("*.json")
)


@pytest.mark.parametrize(
    "path",
    PROBLEM_FILES,
    ids=lambda path: path.relative_to(PROBLEMS.parent).with_suffix("").as_posix(),
)
def test_clean_matches_dense_reference_on_problem_files(path):
    spec = load_problem(str(path))
    assert_clean_matches_reference(spec.filtration, spec.submanifold)


@pytest.mark.parametrize("t", [0, 1, 2, -1])
def test_clean_matches_dense_reference_on_pushed_forward_models(t):
    # N = {a = b = c = 0} at t: a generator scaled by t or t + 1 drops rank
    # at t = 0 or t = -1, so some of these cases are not clean
    sub = Submanifold(CHART_TABC, (0,), (t, 0, 0, 0))
    verdicts = {
        assert_clean_matches_reference(filt, sub).verdict
        for filt in pushed_forward_models()
    }
    assert verdicts == ({PASS} if t in (1, 2) else {PASS, FAIL})


# -- tangency -----------------------------------------------------------------


def test_tangency_forces_vanishing_restriction():
    # tangency of u*(dx + y*dz) to {z=0} forces u*y = 0 on N, so u vanishes
    # on N; the unknowns are polynomials on N, so no combination is left
    sub = Submanifold(CHART, (0, 1), (0, 0, 0))
    assert tangency_solve([vf("dx + y*dz")], sub, 2, [1]) == ([],)
    # with dz adjoined, u*(dx + y*dz) - u*y*dz is tangent for every u on N;
    # at bound 2 that leaves u in {1, x, y}
    (combos,) = tangency_solve([vf("dx + y*dz"), vf("dz")], sub, 2, [2])
    assert len(combos) == 3
    y = Poly.variable(3, 1)
    for u, w in combos:
        assert w == -(u * y)
        assert all(mono[2] == 0 for c in (u, w) for mono in c.terms)


def test_tangency_at_a_point_ignores_the_bound():
    # N a point: sum u_j g_j is tangent exactly when it vanishes at m, which
    # only the values u_j(m) decide, so the system is the constant nullspace
    # of the generators' values at m whatever the bound
    point = Submanifold(CHART, (), (0, 0, 0))
    gens = [vf("dx + y*dz"), vf("2*dx + x*dy"), vf("dz + x^2*dy"), vf("z*dx")]
    one, zero = Poly.one(3), Poly.zero(3)
    expected = [(one * -2, one, zero, zero), (zero, zero, zero, one)]
    for bound in (0, 2, 5):
        assert tangency_solve(gens, point, bound, [4]) == (expected,)


def test_monomial_enumeration_is_graded():
    monos = monomials_up_to(2, 2)
    assert monos == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]


@pytest.mark.parametrize("nvars", range(5))
def test_monomial_enumeration_matches_filtered_product(nvars):
    # the definition: every tuple in {0..d}^n of total degree <= d, grlex sorted
    for degree in range(-1, 5):
        cube = itertools.product(range(degree + 1), repeat=nvars)
        expected = sorted((m for m in cube if sum(m) <= degree), key=grlex_key)
        assert monomials_up_to(nvars, degree) == expected


def test_check_clean_on_heisenberg_takes_no_gcd(monkeypatch):
    # the generic span's pivot entries are set to 1, not divided by
    # themselves: (-x)/(-x) used to take gcds through quotient
    calls = []
    poly_gcd = exactalg.poly_gcd

    def counting_gcd(f, g):
        calls.append((f, g))
        return poly_gcd(f, g)

    monkeypatch.setattr(exactalg, "poly_gcd", counting_gcd)
    spec = load_problem(str(PROBLEMS / "heisenberg.json"))
    assert check_clean(spec.filtration, spec.submanifold).verdict == PASS
    assert calls == []
