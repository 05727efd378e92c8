"""Weighted chart construction: frozen worked examples plus invariants."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import CHART_TABC, pushed_forward_model
from lieweights.exactalg import Poly, RatFunc, weighted_multiindices
from lieweights.lieflt import (
    CleanResult,
    Filtration,
    Submanifold,
    check_clean,
    monomials_up_to,
)
from lieweights.vfield import (
    Chart,
    VectorField,
    coordinate_field,
    format_scalar,
    lie_bracket,
    parse_polynomial,
    parse_vector_field,
)
from lieweights.weightcoord import (
    INFINITE,
    filtration_degree,
    normalize_chart,
    push_to_weighted,
    vf_filtration_degree,
    weighted_coordinates,
    weighted_degree,
)

CHART3 = Chart(("x", "y", "z"))
ORIGIN3 = Submanifold(CHART3, (), (Fraction(0), Fraction(0), Fraction(0)))


def heis_plus_vertical():
    # step-3 flag: X, then Y at level 2, full at level 3
    x_fld = parse_vector_field("dx + x*dz", CHART3)
    y_fld = parse_vector_field("dy", CHART3)
    z_fld = parse_vector_field("dz", CHART3)
    return Filtration(CHART3, 3, ((x_fld,), (x_fld, y_fld), (x_fld, y_fld, z_fld)))


def martinet():
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


def test_weighted_multiindices_order():
    got = weighted_multiindices((1, 2), 3)
    assert got == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (3, 0)]


def test_word_applies_the_last_frame_field_first():
    # a hand-built frame on the Heisenberg fields, with dz put at level 3:
    # dx(dy + x*dz)(z) = 1 but (dy + x*dz)(dx(z)) = 0, so z has weighted
    # order 2 only when V^(1,1,0) applies the second field first
    a = coordinate_field(CHART3, 0)
    b = parse_vector_field("dy + x*dz", CHART3)
    c = coordinate_field(CHART3, 2)
    assert lie_bracket(a, b) == c
    clean = check_clean(Filtration(CHART3, 3, ((a, b), (a, b), (a, b, c))), ORIGIN3)
    assert (clean.frame, clean.frame_levels) == ((a, b, c), (1, 1, 3))
    assert filtration_degree(Poly.variable(3, 2), clean, cap=4) == 2


@pytest.fixture(scope="module")
def step3_result():
    return weighted_coordinates(check_clean(heis_plus_vertical(), ORIGIN3))


@pytest.fixture(scope="module")
def martinet_result():
    return weighted_coordinates(check_clean(martinet(), ORIGIN3))


class TestStepThreeExample:
    @pytest.fixture
    def result(self, step3_result):
        return step3_result

    def test_weights_and_positions(self, result):
        assert result.weights == (1, 2, 3)
        assert result.positions == (0, 1, 2)
        assert result.chart == CHART3

    def test_frame(self, result):
        assert result.clean.frame_levels == (1, 2, 3)
        filt = heis_plus_vertical()
        assert result.clean.frame == (
            filt.levels[0][0],
            filt.levels[1][1],
            filt.levels[2][2],
        )

    def test_coordinates(self, result):
        fwd = result.forward
        assert fwd[0] == Poly.variable(3, 0)
        assert fwd[1] == Poly.variable(3, 1)
        assert format_scalar(fwd[2], CHART3) == "z - 1/2*x^2"

    def test_correction_log(self, result):
        assert len(result.corrections) == 1
        rec = result.corrections[0]
        assert rec.position == 2
        assert rec.multi_index == (2, 0, 0)
        assert rec.constant == 2
        assert rec.coefficient == Fraction(-1, 2)

    def test_inverse(self, result):
        inv = result.inverse
        assert inv[0] == Poly.variable(3, 0)
        assert inv[1] == Poly.variable(3, 1)
        assert inv[2] == parse_polynomial("z + 1/2*x^2", result.chart)

    def test_filtration_degree_of_uncorrected_vertical(self, result):
        z = Poly.variable(3, 2)
        assert filtration_degree(z, result.clean, cap=4) == 2

    def test_filtration_degree_edge_cases(self, result):
        assert filtration_degree(Poly.const(3, 5), result.clean, cap=3) == 0
        assert filtration_degree(Poly.zero(3), result.clean, cap=3) == 3
        corrected = result.forward[2]
        assert filtration_degree(corrected, result.clean, cap=3) == 3

    def test_weighted_degree(self, result):
        w = result
        assert weighted_degree(Poly.variable(3, 2), w) == 2
        assert weighted_degree(Poly.variable(3, 0), w) == 1
        assert weighted_degree(Poly.zero(3), w) == INFINITE

    def test_weighted_degree_of_quotients(self, result):
        w = result
        one_plus_z = RatFunc(Poly.one(3), parse_polynomial("1 + z", CHART3))
        assert weighted_degree(one_plus_z, w) == 0
        x_over = RatFunc(Poly.variable(3, 0), parse_polynomial("1 + z", CHART3))
        assert weighted_degree(x_over, w) == 1

    def test_vf_degrees(self, result):
        w = result
        filt = heis_plus_vertical()
        assert vf_filtration_degree(filt.levels[0][0], w) == -1
        assert vf_filtration_degree(filt.levels[1][1], w) == -2
        assert vf_filtration_degree(filt.levels[2][2], w) == -3
        zero = VectorField(CHART3, [Fraction(0)] * 3)
        assert vf_filtration_degree(zero, w) == INFINITE

    def test_base_point(self, result):
        assert result.base_point_weighted() == (0, 0, 0)


class TestMartinetExample:
    @pytest.fixture
    def result(self, martinet_result):
        return martinet_result

    def test_weights(self, result):
        assert result.weights == (1, 2, 4)
        assert result.clean.frame_levels == (1, 2, 4)

    def test_frame_fields(self, result):
        filt = martinet()
        assert result.clean.frame == (
            filt.levels[0][0],
            filt.levels[1][1],
            coordinate_field(CHART3, 2),
        )

    def test_coordinates(self, result):
        fwd = result.forward
        assert fwd[0] == Poly.variable(3, 0)
        assert fwd[1] == Poly.variable(3, 1)
        assert format_scalar(fwd[2], CHART3) == "z - x^2 - x*y"

    def test_correction_log(self, result):
        log = [
            (rec.position, rec.multi_index, rec.constant, rec.coefficient)
            for rec in result.corrections
        ]
        assert log == [
            (2, (1, 1, 0), Fraction(1), RatFunc.const(3, -1)),
            (2, (2, 0, 0), Fraction(2), RatFunc.const(3, -1)),
            (2, (3, 0, 0), Fraction(6), RatFunc.const(3, 0)),
        ]

    def test_inverse_and_roundtrip(self, result):
        w = result
        assert w.inverse[2] == parse_polynomial("z + x^2 + x*y", w.chart)
        for p in range(3):
            assert w.forward[p].subst(list(w.inverse)) == RatFunc(Poly.variable(3, p))

    def test_bracket_field_degree(self, result):
        w = result
        bracket = parse_vector_field("2*x*dz", CHART3)
        assert vf_filtration_degree(bracket, w) == -3
        pushed = push_to_weighted(bracket, w)
        assert pushed[2] == Poly(3, {(1, 0, 0): Fraction(2)})

    def test_normalization_constants_are_factorials(self, result):
        # exercised on words the construction itself never needed
        frame = result.clean.frame
        fwd = result.forward
        for s, expected in [
            ((1, 0, 1), 1),
            ((0, 2, 0), 2),
            ((2, 1, 0), 2),
            ((0, 0, 2), 2),
        ]:
            power = RatFunc.const(3, 1)
            for offset, e in enumerate(s):
                if e:
                    power = power * fwd[offset] ** e
            # V^s applies the last frame field first
            value = power
            for field, mult in reversed(list(zip(frame, s))):
                for _ in range(mult):
                    value = field.apply(value)
            assert ORIGIN3.restrict(value) == Fraction(expected)


def test_rational_normalization_stage():
    chart = Chart(("y", "u"))
    sub = Submanifold(chart, (0,), (Fraction(0), Fraction(0)))
    filt = Filtration(chart, 1, ((parse_vector_field("(1 + y)*du", chart),),))
    w = weighted_coordinates(check_clean(filt, sub))
    assert w.weights == (0, 1)
    assert w.positions == (0, 1)
    expected = RatFunc(Poly.variable(2, 1), parse_polynomial("1 + y", chart))
    assert w.forward[1] == expected
    assert w.inverse[1] == parse_polynomial("u + y*u", w.chart)
    assert weighted_degree(Poly.variable(2, 1), w) == 1


def test_nonzero_base_point():
    chart = Chart(("y", "u"))
    sub = Submanifold(chart, (0,), (Fraction(3), Fraction(0)))
    filt = Filtration(chart, 1, ((parse_vector_field("(1 + y)*du", chart),),))
    result = weighted_coordinates(check_clean(filt, sub))
    assert result.base_point_weighted() == (3, 0)
    assert result.forward[1] == RatFunc(
        Poly.variable(2, 1), parse_polynomial("1 + y", chart)
    )


def test_permuted_adapted_order():
    chart = Chart(("x", "y"))
    sub = Submanifold(chart, (1,), (Fraction(0), Fraction(0)))
    filt = Filtration(chart, 1, ((coordinate_field(chart, 0),),))
    w = weighted_coordinates(check_clean(filt, sub))
    assert w.positions == (1, 0)
    assert w.chart.names == ("y", "x")
    assert w.forward[0] == Poly.variable(2, 1)
    assert weighted_degree(Poly.variable(2, 0), w) == 1
    assert weighted_degree(Poly.variable(2, 1), w) == 0


def test_normalize_rejects_singular_pairing():
    chart = Chart(("y", "u"))
    sub = Submanifold(chart, (0,), (Fraction(0), Fraction(0)))
    # check_clean never adopts a field vanishing at m, so the frame is
    # built by hand
    frame = (parse_vector_field("y*du", chart),)
    clean = CleanResult("pass", (1, 2), (1, 2), None, sub, frame, (1,))
    with pytest.raises(ValueError, match="singular at the base point"):
        normalize_chart(clean)


def test_unclean_input_raises():
    chart = Chart(("x", "y"))
    sub = Submanifold(chart, (0,), (Fraction(0), Fraction(0)))
    xdy = parse_vector_field("x*dy", chart)
    filt = Filtration(chart, 1, ((coordinate_field(chart, 0), xdy),))
    with pytest.raises(ValueError, match="not clean"):
        weighted_coordinates(check_clean(filt, sub))


_RESULT_CACHE = {}


def _step3_result():
    if "r" not in _RESULT_CACHE:
        clean = check_clean(heis_plus_vertical(), ORIGIN3)
        _RESULT_CACHE["r"] = weighted_coordinates(clean)
    return _RESULT_CACHE["r"]


_MONOS3 = monomials_up_to(3, 3)


@st.composite
def small_polys(draw):
    entries = draw(
        st.dictionaries(st.sampled_from(_MONOS3), st.integers(-3, 3), max_size=4)
    )
    return Poly(3, {m: Fraction(c) for m, c in entries.items() if c})


@given(small_polys())
@settings(max_examples=40, deadline=None)
def test_word_vanishing_matches_weighted_degree(f):
    # the operator-word filtration degree and the weighted-monomial degree
    # must agree for every polynomial, up to the cap
    result = _step3_result()
    fd = filtration_degree(f, result.clean, cap=4)
    wd = weighted_degree(f, result)
    assert fd == min(wd, 4)


def _compositions_are_identity(w):
    n = w.dim
    ys = [RatFunc(Poly.variable(n, p)) for p in range(n)]
    forward_after_inverse = [f.subst(list(w.inverse)) for f in w.forward]
    inverse_after_forward = [g.subst(list(w.forward)) for g in w.inverse]
    return forward_after_inverse == ys and inverse_after_forward == ys


def test_correction_of_a_corrected_coordinate_inverts():
    # the graded model du, dv, dw of weights (1, 3, 5) pushed forward by
    # (x, y, z) -> (x, y + x^2/2, z + x*y): the weight-5 correction
    # multiplies u by the corrected weight-3 coordinate, not by its linear
    # part
    chart = Chart(("u", "v", "w"))
    x_fld = parse_vector_field("du + u*dv + (v - 1/2*u^2)*dw", chart)
    y_fld = parse_vector_field("dv + u*dw", chart)
    full = (x_fld, y_fld) + tuple(coordinate_field(chart, i) for i in range(3))
    lower, middle = (x_fld,), (x_fld, y_fld)
    filt = Filtration(chart, 5, (lower, lower, middle, middle, full))
    w = weighted_coordinates(check_clean(filt, Submanifold(chart, (), (0, 0, 0))))
    assert w.weights == (1, 3, 5)
    assert [format_scalar(f, chart) for f in w.forward] == [
        "u",
        "v - 1/2*u^2",
        "w - u*v + 1/2*u^3",
    ]
    inverse = [format_scalar(g, w.chart) for g in w.inverse]
    assert inverse == ["u", "v + 1/2*u^2", "w + u*v"]
    assert _compositions_are_identity(w)


def test_both_compositions_are_identity_on_pushed_forward_models():
    # N = {a = b = c = 0} at t = 2: the pairing entries depend on t
    sub = Submanifold(CHART_TABC, (0,), (2, 0, 0, 0))
    rng = random.Random(20260)
    nested = 0
    for case in range(24):
        result = weighted_coordinates(check_clean(pushed_forward_model(rng), sub))
        assert _compositions_are_identity(result), case
        active = [rec for rec in result.corrections if rec.coefficient]
        corrected = {rec.position - sub.dim for rec in active}
        nested += any(rec.multi_index[j] for rec in active for j in corrected)
    # some correction multiplies a coordinate that was itself corrected
    assert nested
