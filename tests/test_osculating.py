"""Osculating algebra construction: frozen examples and algebra axioms."""

import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import CHART_TABC, CHARTS, COEFFS, pushed_forward_model, random_poly
from lieweights.cli import load_problem
from lieweights.exactalg import (
    Poly,
    RatFunc,
    RowEchelon,
    as_ratfunc,
    grlex_key,
    weight_of,
    weighted_multiindices,
)
from lieweights.lieflt import (
    Filtration,
    Submanifold,
    check_clean,
    field_entries,
    module_columns,
    module_solve,
    monomials_up_to,
    unpack_coefficients,
)
from lieweights.vfield import (
    Chart,
    VectorField,
    coordinate_field,
    lie_bracket,
    parse_vector_field,
)
from lieweights.weightcoord import (
    WeightedChart,
    push_to_weighted,
    vf_degree_in_chart,
    weighted_coordinates,
)
from lieweights.osculating import (
    GradedSubalg,
    bch,
    class_in_tangent_part,
    fiber_class_pairs,
    osculating_at,
    tangent_subalg,
    verify_hh,
    weighted_fiber_class,
)

CHART3 = Chart(("x", "y", "z"))
ORIGIN3 = Submanifold(CHART3, (), (0, 0, 0))


def heisenberg():
    x_fld = parse_vector_field("dx", CHART3)
    y_fld = parse_vector_field("dy + x*dz", CHART3)
    z_fld = parse_vector_field("dz", CHART3)
    return Filtration(CHART3, 2, ((x_fld, y_fld), (x_fld, y_fld, z_fld)))


def step3_flag():
    # rank growth 1, 2, 3; all brackets happen to vanish at the origin
    x_fld = parse_vector_field("dx + x*dz", CHART3)
    y_fld = parse_vector_field("dy", CHART3)
    z_fld = parse_vector_field("dz", CHART3)
    return Filtration(CHART3, 3, ((x_fld,), (x_fld, y_fld), (x_fld, y_fld, z_fld)))


def step4_flag():
    x_fld = parse_vector_field("dx + (2*x + y)*dz", CHART3)
    y_fld = parse_vector_field("dy + (x + x^2)*dz", CHART3)
    b_fld = parse_vector_field("2*x*dz", CHART3)
    full = (
        x_fld,
        y_fld,
        b_fld,
        coordinate_field(CHART3, 0),
        coordinate_field(CHART3, 1),
        coordinate_field(CHART3, 2),
    )
    return Filtration(CHART3, 4, ((x_fld,), (x_fld, y_fld), (x_fld, y_fld, b_fld), full))


def hh_report(filtration, submanifold, algebra):
    """verify_hh on the weighting and the bound-2 tangent subalgebra, as
    the report pipeline builds them."""
    weighting = weighted_coordinates(check_clean(filtration, submanifold))
    tangent = tangent_subalg(filtration, submanifold, 2, parent=algebra)
    return verify_hh(weighting, algebra, tangent)


@pytest.fixture(scope="module")
def heis_alg():
    return osculating_at(heisenberg(), (0, 0, 0), 2)


@pytest.fixture(scope="module")
def step4_alg():
    return osculating_at(step4_flag(), (0, 0, 0), 2)


class TestHeisenberg:
    def test_dims_and_degrees(self, heis_alg):
        assert heis_alg.graded_dims() == (2, 1)
        assert heis_alg.degrees == (-1, -1, -2)

    def test_representatives(self, heis_alg):
        filt = heisenberg()
        assert heis_alg.representatives == (
            filt.levels[0][0],
            filt.levels[0][1],
            filt.levels[1][2],
        )

    def test_bracket(self, heis_alg):
        assert heis_alg.bracket_basis(0, 1) == (0, 0, 1)
        assert heis_alg.bracket_basis(1, 0) == (0, 0, -1)

    def test_candidate_classes(self, heis_alg):
        # level 2 candidates: the two level-1 fields die, dz survives
        assert heis_alg.candidate_classes[1] == (
            (0, 0, 0),
            (0, 0, 0),
            (0, 0, 1),
        )

    def test_axioms(self, heis_alg):
        assert heis_alg.unverified == ()
        assert heis_alg.axioms_ok()

    @pytest.mark.parametrize("point", [(1, 5, -2), (0, 0, 7), (-3, 2, 1)])
    def test_regular_dims_at_other_points(self, point):
        alg = osculating_at(heisenberg(), point, 2)
        assert alg.graded_dims() == (2, 1)
        assert alg.bracket_basis(0, 1) == (0, 0, 1)


@pytest.mark.parametrize(
    "third, point, cls",
    [
        # constant relation dx + 2*dy - third = 0
        ("dx + 2*dy", (0, 0), (1, 2)),
        # dx + x*dy = dx + dy + (x - 1)*dy, the last term in the ideal at (1, 0)
        ("dx + x*dy", (1, 0), (1, 1)),
    ],
)
def test_candidate_classes_through_relations(third, point, cls):
    chart = Chart(("x", "y"))
    gens = tuple(parse_vector_field(t, chart) for t in ("dx", "dy", third))
    alg = osculating_at(Filtration(chart, 1, (gens,)), point, 2)
    assert alg.graded_dims() == (2,)
    assert alg.candidate_classes[0] == ((1, 0), (0, 1), cls)


class TestStepFourFlag:
    def test_dims(self, step4_alg):
        assert step4_alg.graded_dims() == (1, 1, 1, 1)

    def test_structure_constants(self, step4_alg):
        assert step4_alg.bracket_basis(0, 1) == (0, 0, 1, 0)
        assert step4_alg.bracket_basis(0, 2) == (0, 0, 0, 2)
        # beyond the grading everything vanishes
        assert step4_alg.bracket_basis(1, 2) == (0, 0, 0, 0)
        assert step4_alg.bracket_basis(2, 3) == (0, 0, 0, 0)

    def test_axioms(self, step4_alg):
        assert step4_alg.unverified == ()
        assert step4_alg.axioms_ok()

    def test_bracket_elements_bilinear(self, step4_alg):
        x = (Fraction(2), Fraction(0), Fraction(-1), Fraction(3))
        y = (Fraction(1), Fraction(4), Fraction(0), Fraction(0))
        # [2e1 - e3 + 3e4, e1 + 4e2] = 8[e1,e2] - [e3,e1] = 8e3 + 2e4
        assert step4_alg.bracket_elements(x, y) == (0, 0, 8, 2)

    def test_low_degree_bound_inflates_top_level(self):
        # the relations dx ~ level-1 field need ideal coefficients of
        # degree 1, so bound 0 misses them and the top level triples
        alg = osculating_at(step4_flag(), (0, 0, 0), degree_bound=0)
        assert alg.graded_dims() == (1, 1, 1, 3)

    def test_tangent_subalgebra(self, step4_alg):
        sub = tangent_subalg(step4_flag(), ORIGIN3, 2, parent=step4_alg)
        assert sub.graded_dims() == (0, 0, 1, 0)
        assert sub.spans[2] == ((Fraction(0), Fraction(0), Fraction(1), Fraction(0)),)
        assert sub.closed_under_bracket()

    def test_hh_report(self, step4_alg):
        report = hh_report(step4_flag(), ORIGIN3, step4_alg)
        assert report.verdict == "pass"
        assert report.p_dims == (1, 1, 1, 1)
        assert report.r_dims == (0, 0, 1, 0)
        assert report.quotient_dims == (1, 1, 0, 1)
        assert report.expected_dims == (1, 1, 0, 1)


class TestStepThreeFlag:
    def test_abelian(self):
        alg = osculating_at(step3_flag(), (0, 0, 0), 2)
        assert alg.graded_dims() == (1, 1, 1)
        assert alg.structure == ()
        assert alg.axioms_ok()

    def test_tangent_trivial_at_point(self):
        alg = osculating_at(step3_flag(), (0, 0, 0), 2)
        sub = tangent_subalg(step3_flag(), ORIGIN3, 2, parent=alg)
        assert sub.graded_dims() == (0, 0, 0)

    def test_hh_report(self):
        alg = osculating_at(step3_flag(), (0, 0, 0), 2)
        report = hh_report(step3_flag(), ORIGIN3, alg)
        assert report.verdict == "pass"
        assert report.quotient_dims == (1, 1, 1)
        assert report.expected_dims == (1, 1, 1)


class TestTangentSubalgebra:
    def test_whole_chart_gives_everything(self, heis_alg):
        whole = Submanifold(CHART3, (0, 1, 2), (0, 0, 0))
        sub = tangent_subalg(heisenberg(), whole, 2, parent=heis_alg)
        assert sub.graded_dims() == heis_alg.graded_dims()
        assert sub.closed_under_bracket()

    def test_axis_spans(self, heis_alg):
        axis = Submanifold(CHART3, (0,), (0, 0, 0))
        sub = tangent_subalg(heisenberg(), axis, 2, parent=heis_alg)
        assert sub.graded_dims() == (1, 0)
        assert sub.spans[0] == ((Fraction(1), Fraction(0), Fraction(0)),)
        assert sub.contains((1, 0, 0))
        assert not sub.contains((0, 1, 0))

    def test_not_closed_detected(self, heis_alg):
        # span both level-1 classes but drop their bracket
        spans = (
            ((Fraction(1), Fraction(0), Fraction(0)), (Fraction(0), Fraction(1), Fraction(0))),
            (),
        )
        sub = GradedSubalg(parent=heis_alg, spans=spans)
        assert not sub.closed_under_bracket()

    def test_hh_report_along_axis(self, heis_alg):
        axis = Submanifold(CHART3, (0,), (0, 0, 0))
        report = hh_report(heisenberg(), axis, heis_alg)
        assert report.verdict == "pass"
        assert report.p_dims == (2, 1)
        assert report.r_dims == (1, 0)
        assert report.quotient_dims == (1, 1)
        assert report.expected_dims == (1, 1)

    def test_hh_detects_bad_tangent_span(self, step4_alg):
        # claim the top-level class is tangent: its bare-direction
        # component survives, so the class map check must fail
        spans = (
            (),
            (),
            ((Fraction(0), Fraction(0), Fraction(1), Fraction(0)),),
            ((Fraction(0), Fraction(0), Fraction(0), Fraction(1)),),
        )
        bad = GradedSubalg(parent=step4_alg, spans=spans)
        weighting = weighted_coordinates(check_clean(step4_flag(), ORIGIN3))
        report = verify_hh(weighting, step4_alg, bad)
        assert not report.maps_into_ok
        assert report.verdict == "fail"


class TestUnverifiedBrackets:
    def cubic_flag(self):
        # [dx, dy + x^3*dz] = 3x^2*dz needs an ideal coefficient of
        # degree 2 to certify membership
        x_fld = parse_vector_field("dx", CHART3)
        y_fld = parse_vector_field("dy + x^3*dz", CHART3)
        full = (
            x_fld,
            y_fld,
            coordinate_field(CHART3, 0),
            coordinate_field(CHART3, 1),
            coordinate_field(CHART3, 2),
        )
        return Filtration(CHART3, 3, ((x_fld,), (x_fld, y_fld), full))

    def test_low_bound_leaves_bracket_unverified(self):
        alg = osculating_at(self.cubic_flag(), (0, 0, 0), degree_bound=1)
        assert (0, 1) in alg.unverified
        assert not alg.axioms_ok()

    def test_higher_bound_certifies_zero(self):
        alg = osculating_at(self.cubic_flag(), (0, 0, 0), degree_bound=3)
        assert alg.unverified == ()
        assert alg.bracket_basis(0, 1) == (0,) * alg.dim


class TestGroupLaw:
    def test_heisenberg_half_bracket(self, heis_alg):
        e1 = heis_alg.basis_vector(0)
        e2 = heis_alg.basis_vector(1)
        assert bch(heis_alg, e1, e2) == (1, 1, Fraction(1, 2))

    def test_step4_series(self, step4_alg):
        e1 = step4_alg.basis_vector(0)
        e2 = step4_alg.basis_vector(1)
        assert bch(step4_alg, e1, e2) == (1, 1, Fraction(1, 2), Fraction(1, 6))

    def test_inverse_element(self, step4_alg):
        rng = random.Random(5)
        for _ in range(5):
            x = tuple(Fraction(rng.randint(-3, 3)) for _ in range(step4_alg.dim))
            neg = tuple(-c for c in x)
            assert bch(step4_alg, x, neg) == (0,) * step4_alg.dim
            assert bch(step4_alg, x, (Fraction(0),) * step4_alg.dim) == x

    def test_abelian_is_addition(self):
        alg = osculating_at(step3_flag(), (0, 0, 0), 2)
        x = (Fraction(1), Fraction(-2), Fraction(3))
        y = (Fraction(4), Fraction(1, 2), Fraction(0))
        assert bch(alg, x, y) == (5, Fraction(-3, 2), 3)

    def test_associativity(self, step4_alg):
        rng = random.Random(17)
        for _ in range(10):
            x, y, z = (
                tuple(Fraction(rng.randint(-2, 2)) for _ in range(step4_alg.dim))
                for _ in range(3)
            )
            left = bch(step4_alg, bch(step4_alg, x, y), z)
            right = bch(step4_alg, x, bch(step4_alg, y, z))
            assert left == right


@pytest.fixture(scope="module")
def step3_weighting():
    return weighted_coordinates(check_clean(step3_flag(), ORIGIN3))


@pytest.fixture(scope="module")
def step4_weighting():
    return weighted_coordinates(check_clean(step4_flag(), ORIGIN3))


class TestAmbientModule:
    def test_class_pairs_step3(self, step3_weighting):
        assert fiber_class_pairs(step3_weighting, 1) == (
            (0, (0, 0, 0)),
            (1, (1, 0, 0)),
            (2, (0, 1, 0)),
            (2, (2, 0, 0)),
        )
        assert fiber_class_pairs(step3_weighting, 3) == ((2, (0, 0, 0)),)

    def test_class_of_vertical_field(self, step3_weighting):
        z_fld = parse_vector_field("dz", CHART3)
        cls = weighted_fiber_class(z_fld, step3_weighting, 3)
        assert cls == (1,)
        pairs = fiber_class_pairs(step3_weighting, 3)
        assert not class_in_tangent_part(pairs, cls)

    def test_class_below_depth_is_none(self, step3_weighting):
        z_fld = parse_vector_field("dz", CHART3)
        assert weighted_fiber_class(z_fld, step3_weighting, 1) is None

    def test_class_of_bracket_field(self, step4_weighting):
        b_fld = parse_vector_field("2*x*dz", CHART3)
        pairs = fiber_class_pairs(step4_weighting, 3)
        assert pairs == ((2, (1, 0, 0)),)
        cls = weighted_fiber_class(b_fld, step4_weighting, 3)
        assert cls == (2,)
        assert class_in_tangent_part(pairs, cls)

    def test_rational_coefficient_class(self, step3_weighting):
        # a chart whose third coordinate is z/(c + x): pushing x^2*dz there
        # gives the rational coefficient x^2/(c + x)
        x, y, z = (Poly.variable(3, i) for i in range(3))
        field = parse_vector_field("x^2*dz", CHART3)
        for c, expected in ((1, 1), (2, Fraction(1, 2))):
            den = Poly.const(3, c) + x
            w = step3_weighting
            rational = WeightedChart(
                w.clean,
                w.weights,
                forward=(RatFunc(x), RatFunc(y), RatFunc(z, den)),
                inverse=(RatFunc(x), RatFunc(y), RatFunc(z * den)),
                corrections=(),
            )
            assert push_to_weighted(field, rational)[2] == RatFunc(x**2, den)
            # x^2/(1+x) expands to x^2 - x^3 + ..., weight-2 part is x^2
            cls = weighted_fiber_class(field, rational, 1)
            assert cls == (0, 0, 0, expected)

    def test_axis_class_lies_in_tangent_part(self):
        x_fld = parse_vector_field("dx", CHART3)
        y_fld = parse_vector_field("dy + x*dz", CHART3)
        z_fld = parse_vector_field("dz", CHART3)
        filt = Filtration(CHART3, 2, ((x_fld, y_fld), (x_fld, y_fld, z_fld)))
        axis = Submanifold(CHART3, (0,), (0, 0, 0))
        weighting = weighted_coordinates(check_clean(filt, axis))
        pairs = fiber_class_pairs(weighting, 1)
        assert pairs == ((1, (0, 0, 0)), (2, (0, 1, 0)))
        cls = weighted_fiber_class(x_fld, weighting, 1)
        assert cls == (0, -1)
        assert class_in_tangent_part(pairs, cls)


# -- fiber classes against the weight-part reading ------------------------------

SINGULAR_CHART = load_problem(
    str(Path(__file__).resolve().parent.parent / "problems" / "singular_chart.json")
)


def poly_weight_part(p, weights, degree):
    """The terms of p whose weighted degree is exactly degree."""
    return Poly(
        p.nvars,
        {mono: c for mono, c in p.terms.items() if weight_of(mono, weights) == degree},
    )


def reference_fiber_class(field, weighting, depth):
    """Oracle: the labels sorted in grlex order per position, and each
    component read off the weight part of the frozen numerator, divided by
    the frozen denominator's constant term."""
    n = weighting.dim
    k0 = weighting.submanifold.dim
    fiber_weights = weighting.weights[k0:]
    pairs = []
    for p in range(n):
        target = weighting.weights[p] - depth
        exact = [
            (0,) * k0 + s
            for s in weighted_multiindices(fiber_weights, target)
            if weight_of(s, fiber_weights) == target
        ]
        pairs.extend((p, phi) for phi in sorted(exact, key=grlex_key))
    pushed = push_to_weighted(field, weighting)
    if vf_degree_in_chart(pushed, weighting) < -depth:
        return tuple(pairs), None
    base = weighting.base_point_weighted()
    images = [
        Poly.const(n, base[p]) if weighting.weights[p] == 0 else Poly.variable(n, p)
        for p in range(n)
    ]
    comps = []
    for p, phi in pairs:
        frozen = as_ratfunc(pushed[p].subst(images), n)
        c0 = frozen.den.terms[(0,) * n]
        part = poly_weight_part(frozen.num, weighting.weights, weighting.weights[p] - depth)
        comps.append(part.terms.get(phi, Fraction(0)) * (1 / c0))
    return tuple(pairs), tuple(comps)


@given(st.integers(0, 2**32), st.sampled_from([None, 1, 2]))
@settings(max_examples=12, deadline=None)
def test_fiber_classes_match_the_weight_part_reading(seed, t):
    # t None is singular_chart.json; otherwise a pushed-forward model with
    # N = {a = b = c = 0} at that t, whose weighted chart has denominators
    rng = random.Random(seed)
    if t is None:
        filt, sub = SINGULAR_CHART.filtration, SINGULAR_CHART.submanifold
    else:
        filt = pushed_forward_model(rng)
        sub = Submanifold(CHART_TABC, (0,), (t, 0, 0, 0))
    weighting = weighted_coordinates(check_clean(filt, sub))
    n = filt.chart.dim
    fields = list(filt.generators(filt.order))
    fields += [g.scale(random_poly(rng, n, 2)) for g in fields]
    for depth in range(1, filt.order + 1):
        for field in fields:
            pairs, expected = reference_fiber_class(field, weighting, depth)
            assert fiber_class_pairs(weighting, depth) == pairs
            assert weighted_fiber_class(field, weighting, depth) == expected


# -- centred chart against recentred columns ------------------------------------


def _recentred_membership_solve(leading, lower, ideal_gens, point, degree_bound, target):
    """Oracle: the quotient solve in the original chart, with polynomial
    multiples of the lower fields and ideal columns (x^beta - m^beta) * g."""
    n = len(point)
    monos = monomials_up_to(n, degree_bound)
    cols = [field_entries(g) for g in leading]
    cols.extend(module_columns(lower, monos))
    for g in ideal_gens:
        for beta in monos:
            if sum(beta) == 0:
                continue
            m_beta = math.prod((p**e for p, e in zip(point, beta)), start=Fraction(1))
            factor = Poly.term(n, beta, 1) - Poly.const(n, m_beta)
            cols.append(field_entries(g.scale(factor)))
    solution = module_solve(cols, field_entries(target) if target is not None else None)
    if solution is None:
        return None
    k = len(leading)
    if target is None:
        return RowEchelon(vec[:k] for vec in solution.nullspace).reduced_rows(k)
    for vec in solution.nullspace:
        assert not any(vec[:k]), "chosen basis is dependent at this degree bound"
    return tuple(solution.particular[:k])


def _all_variable_tangency(gens, submanifold, degree_bound):
    """Oracle: tangent combinations with unknowns on monomials in every
    variable, not only in N's."""
    n = submanifold.chart.dim
    fiber = submanifold.fiber_indices
    monos = monomials_up_to(n, degree_bound)
    cols = [
        {
            (a, mono): value
            for (a, mono), value in col.items()
            if a in fiber and not any(mono[f] for f in fiber)
        }
        for col in module_columns(gens, monos)
    ]
    return [
        unpack_coefficients(vec, len(gens), monos, n)
        for vec in module_solve(cols).nullspace
    ]


@st.composite
def filtrations_at_points(draw):
    """A filtration of order 2-3 on 2-3 variables, a submanifold whose base
    point is nonzero on a tangent coordinate, and a degree bound 0-3."""
    n = draw(st.integers(2, 3))
    chart = CHARTS[n]
    monos = monomials_up_to(n, 2)
    poly = st.dictionaries(st.sampled_from(monos), st.sampled_from(COEFFS), max_size=2)
    field = st.lists(poly, min_size=n, max_size=n).map(
        lambda cs: VectorField(chart, [Poly(n, c) for c in cs])
    )
    order = draw(st.integers(2, 3))
    levels = [draw(st.lists(field, min_size=1, max_size=2)) for _ in range(order)]
    tangent = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    coord = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    point = [Fraction(0)] * n
    for idx in tangent:
        point[idx] = draw(coord)
    point[tangent[0]] = draw(st.sampled_from(COEFFS))
    bound = draw(st.integers(0, 3))
    return Filtration(chart, order, levels), Submanifold(chart, tangent, point), bound


@given(filtrations_at_points())
@settings(max_examples=50, deadline=None)
def test_centred_chart_matches_recentred_columns(case):
    filt, sub, bound = case
    m = sub.base_point
    alg = osculating_at(filt, m, bound)
    degrees = []
    for depth in range(1, filt.order + 1):
        cands = filt.generators(depth)
        lower = filt.generators(depth - 1) if depth > 1 else ()
        relations = _recentred_membership_solve(cands, lower, cands, m, bound, None)
        span = RowEchelon(relations)
        basis = [j for j in range(len(cands)) if span.add({j: Fraction(1)})]
        degrees.extend([-depth] * len(basis))
        block = alg.level_indices(depth)
        assert [alg.representatives[u] for u in block] == [cands[j] for j in basis]
        # each candidate minus its class is a relation
        span = RowEchelon(relations)
        for j, cls in enumerate(alg.candidate_classes[depth - 1]):
            assert not any(c for u, c in enumerate(cls) if u not in block)
            rest = {j: Fraction(1)}
            for b, u in zip(basis, block):
                rest[b] = rest.get(b, Fraction(0)) - cls[u]
            assert span.contains(rest)
    assert alg.degrees == tuple(degrees)

    structure = {(u, v): vec for u, v, vec in alg.structure}
    unverified = []
    for u in range(alg.dim):
        for v in range(u + 1, alg.dim):
            q = -(alg.degrees[u] + alg.degrees[v])
            if q > filt.order:
                continue
            block = alg.level_indices(q)
            coords = _recentred_membership_solve(
                [alg.representatives[w] for w in block],
                filt.generators(q - 1) if q > 1 else (),
                filt.generators(q),
                m,
                bound,
                lie_bracket(alg.representatives[u], alg.representatives[v]),
            )
            if coords is None:
                unverified.append((u, v))
                assert (u, v) not in structure
                continue
            vec = [Fraction(0)] * alg.dim
            for w, c in zip(block, coords):
                vec[w] = c
            assert structure.get((u, v), tuple(vec)) == tuple(vec)
            assert ((u, v) in structure) == any(vec)
    assert alg.unverified == tuple(unverified)

    tangent = tangent_subalg(filt, sub, bound, parent=alg)
    for depth in range(1, filt.order + 1):
        vecs = []
        for combo in _all_variable_tangency(filt.generators(depth), sub, bound):
            acc = [Fraction(0)] * alg.dim
            for u, cls in zip(combo, alg.candidate_classes[depth - 1]):
                for w, c in enumerate(cls):
                    acc[w] += u.eval(m) * c
            vecs.append(acc)
        assert tangent.spans[depth - 1] == RowEchelon(vecs).reduced_rows(alg.dim)
