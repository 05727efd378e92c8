"""Jet bundle layer: evaluation, lifts, epsilon-action, group action, flow-out."""

import random
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corpus import (
    CHART_TABC,
    TruncSeries,
    assert_canonical,
    eval_jet_reference,
    lift_identity_cases,
    partial,
    pushed_forward_model,
)
from lieweights import jets
from lieweights.cli import load_problem
from lieweights.exactalg import Poly, RatFunc, quotient
from lieweights.lieflt import Filtration, Submanifold, check_clean
from lieweights.vfield import Chart, VectorField, coordinate_field, lie_bracket, parse_vector_field
from lieweights.weightcoord import weighted_coordinates
from lieweights.jets import (
    JetChart,
    JetPoint,
    LiftCombination,
    SampleReport,
    URElem,
    eval_jet,
    flowout_sample,
    koszul_shift,
    lift_all,
    lift_function,
    lift_vf,
    q_dimension,
    q_membership,
    u_exp_act,
    u_exp_apply,
    _random_element,
    _random_tangent_jet,
    _sample_by_moving,
)

CHART1 = Chart(("x",))
CHART2 = Chart(("x", "z"))
CHART3 = Chart(("x", "y", "z"))
# the order-3 jet at the origin of CHART3, every component 0
ZERO_JET3 = JetPoint.from_rows(CHART3, 3, [(0, 0, 0, 0)] * 3)
PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
PROBLEM_FILES = sorted(PROBLEMS.glob("*.json")) + sorted(
    (PROBLEMS.parent / "bench" / "problems").glob("*.json")
)
PROBLEM_IDS = [str(p.relative_to(PROBLEMS.parent)) for p in PROBLEM_FILES]


def jet(chart, rows):
    order = len(rows[0]) - 1
    return JetPoint.from_rows(chart, order, rows)


def test_the_jet_chart_is_no_constructor_argument():
    with pytest.raises(TypeError):
        JetChart(CHART2, 2, chart=CHART2)


class TestEvalJet:
    def test_square_first_order(self):
        u = jet(CHART1, [(3, 5)])
        series = eval_jet(u, Poly.variable(1, 0) ** 2)
        assert series == (Fraction(9), Fraction(30))

    def test_constant(self):
        u = jet(CHART2, [(1, 2), (3, 4)])
        series = eval_jet(u, Poly.const(2, Fraction(7, 2)))
        assert series == (Fraction(7, 2), Fraction(0))

    def test_coordinate_row(self):
        u = jet(CHART2, [(1, 2), (3, 4)])
        assert eval_jet(u, Poly.variable(2, 1)) == (Fraction(3), Fraction(4))

    def test_rational_function(self):
        # 1/(1+x) at the jet x = 1 + eps: series 1/(2 + eps) = 1/2 - eps/4
        u = jet(CHART1, [(1, 1)])
        f = RatFunc(Poly.one(1), Poly.one(1) + Poly.variable(1, 0))
        series = eval_jet(u, f)
        assert series == (Fraction(1, 2), Fraction(-1, 4))

    def test_rational_needs_unit_denominator(self):
        u = jet(CHART1, [(-1, 1)])
        f = RatFunc(Poly.one(1), Poly.one(1) + Poly.variable(1, 0))
        with pytest.raises(ZeroDivisionError):
            eval_jet(u, f)


@st.composite
def jets_and_polys(draw):
    coeff = st.integers(-3, 3).map(Fraction)
    rows = draw(
        st.lists(
            st.tuples(coeff, coeff, coeff),
            min_size=2,
            max_size=2,
        )
    )
    monos = [(a, b) for a in range(3) for b in range(3) if a + b <= 2]
    def poly(d):
        return Poly(2, {m: Fraction(c) for m, c in d.items() if c})
    f = poly(draw(st.dictionaries(st.sampled_from(monos), st.integers(-2, 2), max_size=3)))
    g = poly(draw(st.dictionaries(st.sampled_from(monos), st.integers(-2, 2), max_size=3)))
    return JetPoint.from_rows(CHART2, 2, rows), f, g


@given(jets_and_polys())
@settings(max_examples=60, deadline=None)
def test_eval_jet_is_algebra_morphism(data):
    # the product and sum of the values are taken in the reference series
    u, f, g = data
    value_f, value_g = (TruncSeries(u.order, eval_jet(u, h)) for h in (f, g))
    assert eval_jet(u, f * g) == (value_f * value_g).coefficients
    assert eval_jet(u, f + g) == (value_f + value_g).coefficients


@st.composite
def jets_and_high_powers(draw):
    order = draw(st.integers(1, 4))
    coeff = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2))
    rows = draw(
        st.lists(
            st.lists(coeff, min_size=order + 1, max_size=order + 1),
            min_size=2,
            max_size=2,
        )
    )
    monos = st.tuples(st.integers(0, 4), st.integers(0, 4))
    terms = draw(st.dictionaries(monos, coeff, max_size=3))
    return JetPoint.from_rows(CHART2, order, rows), Poly(2, terms)


@given(jets_and_high_powers())
@settings(max_examples=40, deadline=None)
def test_eval_jet_matches_lifted_components(data):
    # eval_jet and lift_all share one substitution, so both are checked
    # against the reference's products of truncated series
    u, f = data
    jc = JetChart(CHART2, u.order)
    expected = eval_jet_reference(u, f).coefficients
    assert eval_jet(u, f) == expected
    flat = u.flat()
    assert tuple(piece.eval(flat) for piece in lift_all(jc, f)) == expected


@st.composite
def jets_and_rational_functions(draw):
    order = draw(st.integers(1, 4))
    coeff = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2))
    base = draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
    rows = [
        [b] + draw(st.lists(coeff, min_size=order, max_size=order)) for b in base
    ]
    nonzero = coeff.filter(bool)
    monos = st.tuples(st.integers(0, 3), st.integers(0, 3))
    num = Poly(2, draw(st.dictionaries(monos, nonzero, min_size=1, max_size=3)))
    # a nonconstant denominator, which vanishes at the jet's base point
    # about half of the time
    den = Poly(2, draw(st.dictionaries(monos.filter(any), nonzero, min_size=1, max_size=3)))
    den = den - den.eval(base) if draw(st.booleans()) else den + draw(coeff)
    return JetPoint.from_rows(CHART2, order, rows), quotient(num, den)


@given(jets_and_rational_functions())
@settings(max_examples=80, deadline=None)
def test_eval_jet_of_a_ratfunc_matches_the_series_quotient(data):
    # a unit denominator at the base point gives the reference's value, and
    # any other raises ZeroDivisionError in both
    u, f = data
    assume(isinstance(f, RatFunc))
    expected = _outcome(lambda u, f: eval_jet_reference(u, f).coefficients, u, f)
    assert _outcome(eval_jet, u, f) == expected
    base = tuple(row[0] for row in u.comps)
    assert (expected == "no unit denominator") == (f.den.eval(base) == 0)


def _per_term_apply(x, f):
    """X(f) as the Poly sum of c_a * df/dx_a, one product per direction,
    independently of the derivation kernel."""
    acc = Poly.zero(f.nvars)
    for a, c in enumerate(x.coeffs):
        acc = acc + c * partial(f, a)
    return acc


def _reference_exp(elem, f):
    """The eps-coefficients of sum_k (t Y)^k / k! f, with Y applied
    term by term through _per_term_apply."""
    r = elem.order
    current = [f] + [Poly.zero(f.nvars)] * r
    total = list(current)
    k = 0
    while any(current):
        k += 1
        assert k <= r + 1
        moved = [Poly.zero(f.nvars)] * (r + 1)
        for j, x in elem.terms:
            for i in range(r + 1 - j):
                moved[i + j] = moved[i + j] + _per_term_apply(x, current[i]) * (elem.t / k)
        current = moved
        total = [a + b for a, b in zip(total, current)]
    return total


@st.composite
def unipotent_elements(draw):
    order = draw(st.integers(1, 4))
    small = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3))
    monos = [(a, b) for a in range(3) for b in range(3) if a + b <= 2]

    def poly():
        terms = draw(st.dictionaries(st.sampled_from(monos), small, max_size=3))
        return Poly(2, terms)

    terms = tuple(
        (draw(st.integers(1, order)), VectorField(CHART2, [poly(), poly()]))
        for _ in range(draw(st.integers(1, 3)))
    )
    elem = URElem(CHART2, order, terms, draw(small))
    rows = draw(
        st.lists(st.lists(small, min_size=order + 1, max_size=order + 1), min_size=2, max_size=2)
    )
    return elem, JetPoint.from_rows(CHART2, order, rows), poly()


def _reference_move(elem, u):
    """The rows of u moved by elem: each coordinate evaluated through
    exp(-t Y), the value of each eps^k coefficient of the image a
    reference series shifted by k, independently of the substitution."""
    rows = []
    for a in range(u.chart.dim):
        image = _reference_exp(elem.inverse(), Poly.variable(u.chart.dim, a))
        row = TruncSeries(u.order, (Fraction(0),) * (u.order + 1))
        for k, coeff in enumerate(image):
            row = row + eval_jet_reference(u, coeff).shift(k)
        rows.append(row.coefficients)
    return tuple(rows)


@given(unipotent_elements())
@settings(max_examples=40, deadline=None)
def test_exponentials_match_reference_series(data):
    elem, u, f = data
    series = u_exp_apply(elem, f)
    assert series == tuple(_reference_exp(elem, f))
    for coeff in series:
        assert_canonical(coeff)
    assert u_exp_act(elem, u).comps == _reference_move(elem, u)


def test_jet_values_and_moves_take_one_substitute_call_each(monkeypatch):
    # eval_jet of a Poly or a RatFunc, lift_all and u_exp_act each reach
    # their values through one substitute call: the numerator and
    # denominator together, and every row of a move together
    calls = []
    substitute = jets.substitute

    def counting_substitute(polys, images):
        calls.append(len(polys))
        return substitute(polys, images)

    monkeypatch.setattr(jets, "substitute", counting_substitute)
    u = jet(CHART2, [(1, -2, 3), (2, 1, -1)])
    f = Poly(2, {(3, 1): Fraction(2), (0, 2): Fraction(1), (0, 0): Fraction(-5)})
    assert eval_jet(u, f) == eval_jet_reference(u, f).coefficients
    assert calls == [1]
    g = RatFunc(f, Poly.one(2) + Poly.variable(2, 1))
    assert eval_jet(u, g) == eval_jet_reference(u, g).coefficients
    assert calls == [1, 2]
    lift_all(JetChart(CHART2, 2), f)
    assert calls == [1, 2, 1]
    x = parse_vector_field("x^2*dx + 1/2*x*z*dz", CHART2)
    elem = URElem(CHART2, 2, ((1, x), (2, x)), Fraction(3, 2))
    for _ in range(3):
        u = u_exp_act(elem, u)
    assert calls == [1, 2, 1, 2, 2, 2]


# generators with non-integral polynomial coefficients and monomials of
# several degrees, like Cartan's 1/2*x1^2
CHAIN_FIELDS = tuple(
    parse_vector_field(src, CHART2)
    for src in ("dx + 1/2*x^2*dz", "1/3*z*dx - x*dz", "2/3*x*z*dz + dx", "dz")
)


@st.composite
def chained_moves(draw):
    order = draw(st.integers(2, 4))
    small = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 4))
    letters = [
        (draw(st.integers(1, order)), draw(st.sampled_from(CHAIN_FIELDS)))
        for _ in range(draw(st.integers(1, 3)))
    ]
    moves = [
        ([draw(small) for _ in letters], draw(small))
        for _ in range(draw(st.integers(1, 3)))
    ]
    rows = draw(
        st.lists(st.lists(small, min_size=order + 1, max_size=order + 1), min_size=2, max_size=2)
    )
    return order, letters, moves, JetPoint.from_rows(CHART2, order, rows)


@given(chained_moves())
@settings(max_examples=40, deadline=None)
def test_chained_moves_match_reference_series(data):
    # letter coefficients with mixed denominators, on fields whose
    # polynomials are not integral: each move must match the reference
    # series applied to the previous result
    order, letters, moves, u = data
    for coeffs, t in moves:
        terms = tuple((j, x.scale(c)) for c, (j, x) in zip(coeffs, letters))
        elem = URElem(CHART2, order, terms, t)
        expected = _reference_move(elem, u)
        u = u_exp_act(elem, u)
        assert u.comps == expected


def _jet_variable(jc):
    """The jet coordinate x_a^(i) of the chart as a polynomial, by (a, i)."""
    return lambda a, i: Poly.variable(jc.dim, jc.index(a, i))


class TestLiftFunction:
    def test_product_rule(self):
        jc = JetChart(CHART2, 1)
        f = Poly.variable(2, 0) * Poly.variable(2, 1)
        got = lift_function(jc, f, 1)
        var = _jet_variable(jc)
        expected = var(0, 0) * var(1, 1) + var(0, 1) * var(1, 0)
        assert got == expected

    def test_zeroth_component_is_pullback(self):
        jc = JetChart(CHART2, 2)
        f = Poly(2, {(2, 1): Fraction(3), (0, 0): Fraction(-1)})
        got = lift_function(jc, f, 0)
        var = _jet_variable(jc)
        expected = f.subst([var(0, 0), var(1, 0)])
        assert got == expected

    def test_frozen_expansion(self):
        # f = z - x^2 at order 3, component 2
        jc = JetChart(CHART2, 3)
        f = Poly.variable(2, 1) - Poly.variable(2, 0) ** 2
        got = lift_function(jc, f, 2)
        var = _jet_variable(jc)
        expected = var(1, 2) - (2 * var(0, 0) * var(0, 2) + var(0, 1) ** 2)
        assert got == expected

    def test_eval_consistency(self):
        jc = JetChart(CHART2, 2)
        f = Poly(2, {(1, 1): Fraction(2), (0, 2): Fraction(1)})
        u = jet(CHART2, [(1, -2, 3), (2, 1, -1)])
        series = eval_jet(u, f)
        flat = u.flat()
        for i, piece in enumerate(lift_all(jc, f)):
            assert piece.eval(flat) == series[i]


class TestLiftVF:
    def test_coordinate_field_lift(self):
        jc = JetChart(CHART2, 3)
        for j in range(4):
            lifted = lift_vf(jc, coordinate_field(CHART2, 0), j)
            expected = [Fraction(0)] * jc.dim
            expected[jc.index(0, j)] = Fraction(1)
            assert lifted == VectorField(jc.chart, expected)

    def test_bracket_identity_corpus(self):
        for chart, r, x, y, f, i, j in lift_identity_cases(seed=11, count=30):
            jc = JetChart(chart, r)
            lx = lift_vf(jc, x, i)
            ly = lift_vf(jc, y, j)
            got = lie_bracket(lx, ly)
            if i + j <= r:
                assert got == lift_vf(jc, lie_bracket(x, y), i + j)
            else:
                assert got.is_zero()

    def test_module_identity_corpus(self):
        for chart, r, x, _y, f, i, _j in lift_identity_cases(seed=23, count=30):
            jc = JetChart(chart, r)
            scaled = x.scale(f)
            lhs = lift_vf(jc, scaled, i)
            terms = tuple(
                (lift_function(jc, f, k), x, i + k) for k in range(r - i + 1)
            )
            rhs = LiftCombination(jc, terms).materialize()
            assert lhs == rhs

    def test_annihilates_lower_components(self):
        jc = JetChart(CHART2, 3)
        x = parse_vector_field("z*dx + x^2*dz", CHART2)
        f = Poly(2, {(1, 1): Fraction(1)})
        for j in range(1, 4):
            lifted = lift_vf(jc, x, j)
            for i in range(j):
                piece = lift_function(jc, f, i)
                assert lifted.apply(piece).is_zero()


class TestKoszul:
    def test_shift_matches_deeper_lift(self):
        jc = JetChart(CHART2, 3)
        x = parse_vector_field("dx + x*dz", CHART2)
        comb = LiftCombination(jc, ((Poly.one(jc.dim), x, 0),))
        shifted = koszul_shift(comb)
        assert shifted.materialize() == lift_vf(jc, x, 1)

    def test_r_plus_one_shifts_vanish(self):
        jc = JetChart(CHART2, 2)
        x = parse_vector_field("x*dx", CHART2)
        comb = LiftCombination(jc, ((Poly.one(jc.dim), x, 0),))
        for _ in range(jc.order + 1):
            comb = koszul_shift(comb)
        assert comb.terms == ()
        assert comb.materialize().is_zero()

    def test_linearity_over_coefficients(self):
        jc = JetChart(CHART2, 3)
        x = parse_vector_field("dz", CHART2)
        g = lift_function(jc, Poly.variable(2, 0), 1)
        comb = LiftCombination(jc, ((g, x, jc.order - 1),))
        shifted = koszul_shift(comb)
        assert shifted.terms == ((g, x, jc.order),)
        assert shifted.materialize() == lift_vf(jc, x, jc.order).scale(g)

    def test_commutes_with_lift_bracket(self):
        jc = JetChart(CHART2, 2)
        x = parse_vector_field("dx + x*dz", CHART2)
        y = parse_vector_field("z*dx", CHART2)
        bracket = lie_bracket(x, y)
        level0 = lie_bracket(lift_vf(jc, x, 0), lift_vf(jc, y, 0))
        assert level0 == lift_vf(jc, bracket, 0)
        comb = koszul_shift(LiftCombination(jc, ((Poly.one(jc.dim), bracket, 0),)))
        assert comb.materialize() == lift_vf(jc, bracket, 1)


class TestJetActions:
    def test_scalar_action_homogeneity(self):
        # reparametrizing the curve by eps -> t*eps scales component i by
        # t^i, and the order-i piece of a lifted function by t^i
        jc = JetChart(CHART2, 2)
        f = Poly(2, {(2, 0): Fraction(1), (1, 1): Fraction(-2)})
        u = jet(CHART2, [(1, -1, 2), (3, 2, -2)])
        t = Fraction(5, 3)
        scaled = jet(CHART2, [[c * t**i for i, c in enumerate(row)] for row in u.comps])
        for i in range(3):
            piece = lift_function(jc, f, i)
            assert piece.eval(scaled.flat()) == t**i * piece.eval(u.flat())

    def test_exp_apply_single_top_term(self):
        # exp(t X eps^r) x_a = x_a + t (X x_a) eps^r exactly
        x = parse_vector_field("x^2*dx + dz", CHART2)
        elem = URElem(CHART2, 2, ((2, x),), Fraction(1, 2))
        series = u_exp_apply(elem, Poly.variable(2, 0))
        assert series == (
            Poly.variable(2, 0),
            Poly.zero(2),
            Poly.variable(2, 0) ** 2 * Fraction(1, 2),
        )

    def test_exp_apply_with_an_integer_time(self):
        # t and the coefficients are ints, and each step k divides t by k:
        # no float may reach the held coefficients
        x = parse_vector_field("x^2*dx + 3*dz", CHART2)
        f = Poly.variable(2, 0) + Poly.variable(2, 1) ** 2
        elem = URElem(CHART2, 3, ((1, x),), 2)
        series = u_exp_apply(elem, f)
        for piece in series:
            assert_canonical(piece)
        assert list(series) == _reference_exp(elem, f)
        assert series[2] != 0

    def test_exp_act_top_level_matches_translation(self):
        x = parse_vector_field("x^2*dx + dz", CHART2)
        t = Fraction(3, 2)
        elem = URElem(CHART2, 2, ((2, x),), t)
        u = jet(CHART2, [(2, 1, -1), (0, 4, 1)])
        moved = u_exp_act(elem, u)
        # translation by t*X(base point) in the top component slot
        v = tuple(t * c for c in x.value_at(tuple(row[0] for row in u.comps)))
        assert moved == jet(
            CHART2, [row[:-1] + (row[-1] - va,) for row, va in zip(u.comps, v)]
        )

    def test_exp_act_identity_at_zero_time(self):
        x = parse_vector_field("dx + x*dz", CHART2)
        elem = URElem(CHART2, 2, ((1, x),), Fraction(0))
        u = jet(CHART2, [(2, 1, -1), (0, 4, 1)])
        assert u_exp_act(elem, u) == u

    def test_top_layer_abelian(self):
        x = parse_vector_field("x*dx + dz", CHART2)
        y = parse_vector_field("dx + x^2*dz", CHART2)
        ex = URElem(CHART2, 2, ((2, x),), Fraction(2))
        ey = URElem(CHART2, 2, ((2, y),), Fraction(-1))
        u = jet(CHART2, [(1, 2, 0), (3, -1, 2)])
        assert u_exp_act(ex, u_exp_act(ey, u)) == u_exp_act(ey, u_exp_act(ex, u))

    def test_exp_is_group_inverse(self):
        x = parse_vector_field("dx + x*dz", CHART2)
        y = parse_vector_field("x^2*dz", CHART2)
        elem = URElem(CHART2, 3, ((1, x), (2, y)), Fraction(2, 3))
        u = jet(CHART2, [(1, -2, 1, 0), (2, 0, -1, 3)])
        roundtrip = u_exp_act(elem.inverse(), u_exp_act(elem, u))
        assert roundtrip == u

    def test_unipotent_rejects_level_zero(self):
        x = parse_vector_field("dx", CHART2)
        with pytest.raises(ValueError):
            URElem(CHART2, 2, ((0, x),), Fraction(1))


def _example1():
    x_fld = parse_vector_field("dx + x*dz", CHART3)
    y_fld = parse_vector_field("dy", CHART3)
    z_fld = parse_vector_field("dz", CHART3)
    filt = Filtration(CHART3, 3, ((x_fld,), (x_fld, y_fld), (x_fld, y_fld, z_fld)))
    sub = Submanifold(CHART3, (), (Fraction(0),) * 3)
    return filt, sub, weighted_coordinates(check_clean(filt, sub))


def _example2():
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
    filt = Filtration(
        CHART3, 4, ((x_fld,), (x_fld, y_fld), (x_fld, y_fld, b_fld), full)
    )
    sub = Submanifold(CHART3, (), (Fraction(0),) * 3)
    return filt, sub, weighted_coordinates(check_clean(filt, sub))


class TestFlowOut:
    def test_membership_zero_jet(self):
        _, _, result = _example1()
        assert q_membership(ZERO_JET3, result)

    def test_membership_integral_curve_jet(self):
        # jet of the horizontal integral curve t -> (t, 0, t^2/2)
        _, _, result = _example1()
        rows = [
            (0, 1, 0, 0),
            (0, 0, 0, 0),
            (0, 0, Fraction(1, 2), 0),
        ]
        assert q_membership(JetPoint.from_rows(CHART3, 3, rows), result)

    def test_membership_rejects_straight_line_jet(self):
        # the straight curve t -> (t, 0, 0) is not horizontal: the induced
        # weighted coordinate picks up a nonzero second component
        _, _, result = _example1()
        rows = [(0, 1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)]
        assert not q_membership(JetPoint.from_rows(CHART3, 3, rows), result)

    def test_membership_rejects_shallow_vertical(self):
        _, _, result = _example1()
        rows = [list(row) for row in ZERO_JET3.comps]
        rows[2][1] = Fraction(1)
        assert not q_membership(JetPoint.from_rows(CHART3, 3, rows), result)

    def test_flowout_sample_example2(self):
        filt, sub, result = _example2()
        report = flowout_sample(filt, result, count=25, seed=0)
        assert report.tested == 25
        assert report.failed == 0
        assert report.first_failure is None
        assert report.passed

    def test_flowout_sample_vacuous(self):
        filt, sub, result = _example1()
        report = flowout_sample(filt, result, count=0, seed=1)
        assert report.tested == 0 and report.failed == 0

    def test_tangent_jets_are_members(self):
        chart = Chart(("x", "u"))
        sub = Submanifold(chart, (0,), (Fraction(0), Fraction(0)))
        filt = Filtration(chart, 1, ((coordinate_field(chart, 1),),))
        result = weighted_coordinates(check_clean(filt, sub))
        rows = [(Fraction(2), Fraction(-1)), (Fraction(0), Fraction(0))]
        u = JetPoint.from_rows(chart, 1, rows)
        assert q_membership(u, result)

    def test_determinism(self):
        filt, sub, result = _example2()
        a = flowout_sample(filt, result, count=10, seed=7)
        b = flowout_sample(filt, result, count=10, seed=7)
        assert a == b

    def test_failing_report_is_pinned(self):
        # no golden report has a failing flow-out; this pins the sampled
        # jets and the random stream behind them
        spec = load_problem(str(PROBLEMS / "broken.json"))
        w = weighted_coordinates(check_clean(spec.filtration, spec.submanifold))
        report = flowout_sample(spec.filtration, w, count=50, seed=101)
        assert report.failed == 20
        assert report.first_failure == {
            "sample": 0,
            "components": [
                ["0", "1/3", "-7/6", "-3/2"],
                ["0", "1/3", "-4/3", "-26/9"],
                ["0", "0", "2/9", "61/36"],
            ],
        }

    def test_cancelling_levels_draw_no_time(self):
        # level -1 lists dx and -dx: a combination can cancel, and when no
        # level adds a term no t is drawn.  The weighting belongs to another
        # filtration, so the failures pin the random stream.
        chart = Chart(("x", "y"))
        dx, minus_dx, dy = (parse_vector_field(f, chart) for f in ("dx", "-dx", "dy"))
        filt = Filtration(
            chart, 2, ((dx, minus_dx), (dx, minus_dx, parse_vector_field("dy + x*dx", chart)))
        )
        sub = Submanifold(chart, (), (0, 0))
        other = Filtration(chart, 2, ((dy,), (dy, dx)))
        w = weighted_coordinates(check_clean(other, sub))
        report = flowout_sample(filt, w, count=50, seed=7)
        assert report.failed == 43
        assert report.first_failure == {
            "sample": 1,
            "components": [["0", "-5/6", "-7/18"], ["0", "0", "7/18"]],
        }

    def test_lift_tangency_at_sampled_points(self):
        # fields from level -j stay tangent to the flow-out locus
        import random as _random

        filt, sub, result = _example1()
        w = result
        jc = JetChart(CHART3, 3)
        defining = []
        for p in range(3):
            wt = w.weights[p]
            if wt == 0:
                continue
            poly = w.forward[p]
            assert isinstance(poly, Poly)
            for i in range(wt):
                defining.append(lift_function(jc, poly, i))
        rng = _random.Random(5)
        points = []
        for _ in range(4):
            u = ZERO_JET3
            for _ in range(2):
                elem = _random_element(rng, filt)
                if elem is not None:
                    u = u_exp_act(elem, u)
            assert q_membership(u, w)
            points.append(u)
        for j in range(1, 4):
            for x in filt.levels[j - 1]:
                lifted = lift_vf(jc, x, j)
                for g in defining:
                    moved = lifted.apply(g)
                    for u in points:
                        assert moved.eval(u.flat()) == 0


@cache
def _rational_models():
    """Pushed-forward (t, a, b, c) models whose weighted coordinates have
    denominators in t."""
    sub = Submanifold(CHART_TABC, (0,), (2, 0, 0, 0))
    rng = random.Random(20260)
    models = []
    while len(models) < 4:
        filt = pushed_forward_model(rng)
        w = weighted_coordinates(check_clean(filt, sub))
        if any(isinstance(f, RatFunc) for f in w.forward):
            models.append((filt, w))
    return tuple(models)


def _series_by_substitution(u, f):
    """The reference series of f on u, with values from lift_all."""
    jc = JetChart(u.chart, u.order)
    return TruncSeries(u.order, tuple(piece.eval(u.flat()) for piece in lift_all(jc, f)))


def _membership_by_series(u, weighting):
    """The membership test on rational series: each weighted coordinate
    num/den is the truncated series of num times the inverse of den's,
    with values from lift_all."""
    for p in range(weighting.dim):
        w = weighting.weights[p]
        if w == 0:
            continue
        f = weighting.forward[p]
        if isinstance(f, Poly):
            series = _series_by_substitution(u, f)
        else:
            den = _series_by_substitution(u, f.den)
            series = _series_by_substitution(u, f.num) * den.inverse()
        if any(series.coefficients[: min(w, u.order + 1)]):
            return False
    return True


def _outcome(check, u, weighting):
    try:
        return check(u, weighting)
    except ZeroDivisionError:
        return "no unit denominator"


@st.composite
def jets_on_rational_models(draw):
    filt, w = draw(st.sampled_from(_rational_models()))
    r = filt.order
    small = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3))
    tangent = draw(st.lists(small, min_size=r + 1, max_size=r + 1).filter(any))
    u = JetPoint.from_rows(CHART_TABC, r, [tangent] + [[0] * (r + 1)] * 3)
    # moved jets lie on the flow-out locus, a perturbed one mostly not
    rng = random.Random(draw(st.integers(0, 2**16)))
    for _ in range(draw(st.integers(0, 3))):
        elem = _random_element(rng, filt)
        if elem is not None:
            u = u_exp_act(elem, u)
    if draw(st.booleans()):
        rows = [list(row) for row in u.comps]
        rows[draw(st.integers(1, 3))][draw(st.integers(0, r))] += draw(small)
        u = JetPoint.from_rows(CHART_TABC, r, rows)
    return w, u


@given(jets_on_rational_models())
@settings(max_examples=60, deadline=None)
def test_membership_on_rational_coordinates_matches_series(data):
    w, u = data
    assert _outcome(q_membership, u, w) == _outcome(_membership_by_series, u, w)


class TestRationalCoordinates:
    def test_jets_flowed_out_on_the_chart_are_members(self):
        for filt, w in _rational_models():
            report = flowout_sample(filt, w, count=20, seed=3)
            assert report.tested > 0
            assert report.failed == 0

    def test_a_denominator_that_is_no_unit_is_rejected(self):
        # a/(1 + t) at t = -1: the numerator alone vanishes to every order,
        # and the jet must still not count as tested
        spec = load_problem(str(PROBLEMS / "singular_chart.json"))
        w = weighted_coordinates(check_clean(spec.filtration, spec.submanifold))
        t = Poly.variable(3, 0)
        assert w.forward[1] == RatFunc(Poly.variable(3, 1), t + 1)
        rows = [(-1, 1, 0), (0, 0, 0), (0, 0, 0)]
        with pytest.raises(ZeroDivisionError):
            q_membership(JetPoint.from_rows(spec.chart, 2, rows), w)
        rows[0] = (2, 1, 0)
        assert q_membership(JetPoint.from_rows(spec.chart, 2, rows), w)

    def test_moved_samples_never_meet_a_pole(self):
        # dt, (t + 1)*da, db at level -1 is not certified on singular_chart's
        # weighting, so every sample is moved and tested; its base point
        # stays at t = 2, where a/(1 + t) is regular
        spec = load_problem(str(PROBLEMS / "singular_chart.json"))
        w = weighted_coordinates(check_clean(spec.filtration, spec.submanifold))
        level = tuple(parse_vector_field(f, spec.chart) for f in ("dt", "(t + 1)*da", "db"))
        filt = Filtration(spec.chart, 2, (level, level))
        report = _sample_by_moving(filt, w, 200, 0)
        assert report.tested == 200 and report.failed > 0
        assert flowout_sample(filt, w, 200, 0) == report


# -- the flow-out certificate ------------------------------------------------


@cache
def _problem_case(path):
    spec = load_problem(str(path))
    clean = check_clean(spec.filtration, spec.submanifold)
    return spec.filtration, weighted_coordinates(clean)


@cache
def _pushed_forward_cases(t):
    # N = {a = b = c = 0} at t = 1, 2 or 3 is clean for every model; a
    # chart may have a denominator t or 1 + t, with its poles away from m
    sub = Submanifold(CHART_TABC, (0,), (t, 0, 0, 0))
    rng = random.Random(20261)
    return tuple(
        (filt, weighted_coordinates(check_clean(filt, sub)))
        for filt in (pushed_forward_model(rng) for _ in range(60))
    )


def _assert_certificate_matches_moving(filt, w, count, seed):
    report = flowout_sample(filt, w, count, seed)
    # equal tested, failed and first_failure
    assert SampleReport(report.tested, report.failed, report.first_failure) == _sample_by_moving(
        filt, w, count, seed
    )
    assert not report.certified or report.failed == 0
    return report


# the filtrations whose bracket-compat fails or is inconclusive; every
# other one certifies
UNCERTIFIED = {"broken.json", "engel4_broken.json", "uncertified.json"}


@pytest.mark.parametrize("path", PROBLEM_FILES, ids=PROBLEM_IDS)
@pytest.mark.parametrize("seed", [0, 101])
def test_certificate_matches_moving_on_problem_files(path, seed):
    report = _assert_certificate_matches_moving(*_problem_case(path), 40, seed)
    assert report.certified == (path.name not in UNCERTIFIED)


@pytest.mark.parametrize("t", [1, 2])
def test_certificate_matches_moving_on_pushed_forward_models(t):
    with_poles = 0
    for filt, w in _pushed_forward_cases(t):
        with_poles += any(isinstance(f, RatFunc) for f in w.forward)
        for seed in (3, 17):
            report = _assert_certificate_matches_moving(filt, w, 12, seed)
            assert report.certified
    # some charts have poles, so moved jets are tested on rational coordinates
    assert with_poles


def _assert_chart_regular_at_base_point(w):
    for f in w.forward:
        if isinstance(f, RatFunc):
            assert f.den.eval(w.submanifold.base_point) != 0


@pytest.mark.parametrize("path", PROBLEM_FILES, ids=PROBLEM_IDS)
def test_weighted_chart_is_regular_at_the_base_point(path):
    _, w = _problem_case(path)
    _assert_chart_regular_at_base_point(w)


@pytest.mark.parametrize("t", [1, 2, 3])
def test_pushed_forward_charts_are_regular_at_the_base_point(t):
    with_poles = 0
    for _, w in _pushed_forward_cases(t):
        with_poles += any(isinstance(f, RatFunc) for f in w.forward)
        _assert_chart_regular_at_base_point(w)
    assert with_poles


@pytest.mark.parametrize(
    "sub",
    [
        Submanifold(CHART_TABC, (0,), (2, 0, 0, 0)),
        Submanifold(CHART_TABC, (0, 2), (Fraction(-1, 2), 0, 3, 0)),
    ],
    ids=["t", "t-b"],
)
def test_sampled_jets_start_at_the_base_point(sub):
    rng = random.Random(11)
    drawn = set()
    for _ in range(30):
        u = _random_tangent_jet(rng, sub, 3)
        assert tuple(row[0] for row in u.comps) == sub.base_point
        for a in sub.fiber_indices:
            assert not any(u.comps[a])
        drawn.update(u.comps[a][i] for a in sub.tangent_indices for i in (1, 2, 3))
    # the tangent components above 0 are drawn, zero and nonzero
    assert len(drawn) > 1


def test_uncertified_filtration_whose_samples_pass_is_pinned():
    # broken.json fails bracket-compat; these five samples all pass, which
    # without the certificate proves nothing
    report = flowout_sample(*_problem_case(PROBLEMS / "broken.json"), 5, 1)
    assert report == SampleReport(5, 0, None, certified=False)


@pytest.mark.parametrize(
    "path",
    [
        PROBLEMS / "example1.json",
        PROBLEMS / "example2.json",
        PROBLEMS / "heisenberg.json",
        PROBLEMS / "singular_chart.json",
        PROBLEMS.parent / "bench" / "problems" / "engel4.json",
    ],
    ids=lambda p: p.name,
)
def test_certified_filtration_moves_no_jet(path, monkeypatch):
    def refuse(*args):
        raise AssertionError("a certified flow-out moved or tested a jet")

    monkeypatch.setattr(jets, "u_exp_act", refuse)
    monkeypatch.setattr(jets, "q_membership", refuse)
    report = flowout_sample(*_problem_case(path), 500, 101)
    assert (report.tested, report.failed, report.certified) == (500, 0, True)


class TestQDimension:
    def test_example_totals(self):
        assert q_dimension((0, 1, 2, 3)).total == 6
        assert q_dimension((0, 1, 2, 2, 3)).total == 8

    def test_graded_parts(self):
        d = q_dimension((0, 1, 2, 2, 3))
        assert d.base == 0
        assert d.graded == (1, 2, 2, 3)

    def test_trivial_weighting(self):
        d = q_dimension((2, 5))
        assert d.total == 7 and d.base == 2 and d.graded == (5,)
