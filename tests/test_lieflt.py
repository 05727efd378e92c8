"""Filtration checks: membership, bracket compatibility, cleanness, weights."""

import functools
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import CHART_TABC, pushed_forward_model
from lieweights import lieflt
from lieweights.cli import load_problem
from lieweights.exactalg import (
    LinearSolution,
    Poly,
    RatFunc,
    RowEchelon,
    grlex_key,
    linear_solve_exact,
    matrix_rank,
)
from lieweights.lieflt import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    Filtration,
    Submanifold,
    check_bracket_compat,
    TriState,
    check_clean,
    field_entries,
    module_columns,
    module_membership,
    module_membership_batch,
    module_solve,
    monomials_up_to,
    sample_points,
    tangency_solve,
    unpack_coefficients,
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
    assert module_solve([]) == LinearSolution((), ())
    assert module_solve([], {key: Fraction(1)}) is None
    # all columns empty, homogeneous: every column is free
    sol = module_solve([{}, {}, {}])
    assert sol.particular == (0, 0, 0)
    assert sol.nullspace == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    # infeasible target
    assert module_solve([{key: Fraction(2)}], {(1, (0, 0)): Fraction(1)}) is None


# -- membership ---------------------------------------------------------------


def test_membership_pass_with_certificate():
    v = vf("x*dx")
    res = module_membership(v, [coordinate_field(CHART, 0)], 1)
    assert res.verdict == PASS
    assert res.certificate == (CHART.var("x"),)


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
    v = VectorField(CHART, [CHART.var("z") ** 3, CHART.zero(), CHART.zero()])
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
    solution = module_solve(module_columns(gens, monos), field_entries(v))
    if solution is not None:
        return TriState.passed(
            unpack_coefficients(solution.particular, len(gens), monos, n)
        )
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


@st.composite
def membership_batches(draw):
    """(fields, gens, bound): combinations of the generators with
    coefficients of degree <= 2, so some need more than the bound, and
    random fields, often infeasible; plus the zero field, and a repeat of
    the first field the oracle does not pass."""
    gens = draw(st.lists(small_field(), min_size=1, max_size=3))
    bound = draw(st.integers(0, 2))
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
    return fields, gens, bound


@settings(max_examples=120, deadline=None)
@given(membership_batches())
def test_batch_membership_matches_per_field_oracle(batch):
    fields, gens, bound = batch
    expected = tuple(per_field_membership(v, gens, bound) for v in fields)
    assert module_membership_batch(fields, gens, bound) == expected
    assert module_membership(fields[-1], gens, bound) == expected[-1]


def test_batch_repeats_an_infeasible_field():
    # dz is not in the span at the origin; its repeat must not be read as
    # feasible off the row that the first copy pivots on
    gens = [vf("dx"), vf("dy + x*dz")]
    dz, inside = vf("dz"), vf("y*dx + dy + x*dz")
    results = module_membership_batch([dz, inside, dz, VectorField(CHART, [0, 0, 0])], gens, 1)
    assert [r.verdict for r in results] == [FAIL, PASS, FAIL, PASS]
    assert results[0] == results[2] == per_field_membership(dz, gens, 1)
    assert results[1].certificate == (CHART.var("y"), Poly.one(3))
    assert results[3].certificate == (Poly.zero(3), Poly.zero(3))
    assert module_membership_batch([], gens, 1) == ()


def test_membership_rejects_foreign_chart_and_rational_coefficients():
    other = parse_vector_field("du", Chart(("u", "v", "w")))
    with pytest.raises(ValueError):
        module_membership(other, [vf("dx")], 1)
    with pytest.raises(ValueError):
        module_membership(vf("dx"), [other], 1)
    with pytest.raises(ValueError):
        module_membership_batch([vf("dx"), other], [vf("dx")], 1)
    # a rational coefficient never reaches membership: the parser and the
    # VectorField constructor both refuse it
    with pytest.raises(ParseError, match="not a polynomial"):
        vf("1/(1 + x)*dx")
    one_over = RatFunc(Poly.one(3), Poly.one(3) + CHART.var("x"))
    with pytest.raises(ValueError, match="must be polynomial"):
        VectorField(CHART, [one_over, 0, 0])


def test_sample_points_deterministic():
    a = list(itertools.islice(sample_points(3), 40))
    b = list(itertools.islice(sample_points(3), 40))
    assert a == b
    assert a[0] == (0, 0, 0)


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
        built.append((id(g), id(h)))
        return lie_bracket(g, h)

    monkeypatch.setattr(lieflt, "lie_bracket", counting_bracket)
    report = check_bracket_compat(flt, spec.degree_bound)
    assert report.verdict == PASS
    assert report.first_failure() is None

    def pair(check):
        return flt.levels[check.i - 1][check.gi], flt.levels[check.j - 1][check.gj]

    tested = [c for c in report.checks if c.i + c.j <= flt.order]
    deep = [c for c in report.checks if c.i + c.j > flt.order]
    assert tested and deep
    assert built == [(id(g), id(h)) for g, h in map(pair, tested)]

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
    assert len(built) == len(tested) + len(deep)


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
    """Rank flags by a fresh dense matrix_rank per depth, over RatFunc and
    at the base point, and a greedy frame that scans all of H_{-i}."""
    n = filtration.chart.dim
    m = submanifold.base_point
    ranks, generic_ranks = [], []
    for depth in range(filtration.order + 1):
        columns = [
            [RatFunc.const(n, 1 if a == b else 0) for a in range(n)]
            for b in submanifold.tangent_indices
        ]
        if depth:
            for g in filtration.generators(depth):
                columns.append([RatFunc(submanifold.restrict(c)) for c in g.coeffs])
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
    assert tangency_solve([vf("dx + y*dz")], sub, 2) == []
    # with dz adjoined, u*(dx + y*dz) - u*y*dz is tangent for every u on N;
    # at bound 2 that leaves u in {1, x, y}
    combos = tangency_solve([vf("dx + y*dz"), vf("dz")], sub, 2)
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
        assert tangency_solve(gens, point, bound) == expected


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
