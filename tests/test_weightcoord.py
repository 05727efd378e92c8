"""Weighted chart construction: frozen worked examples plus invariants."""

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import CHART_TABC, CHARTS, pushed_forward_model, random_field, random_poly
from lieweights import weightcoord
from lieweights.cli import load_problem
from lieweights.exactalg import (
    Poly,
    RatFunc,
    divide_exact,
    poly_gcd,
    weight_of,
    weighted_multiindices,
)
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
    WordValues,
    filtration_degree,
    frame_words,
    normalize_chart,
    push_to_weighted,
    vf_filtration_degree,
    weighted_coordinates,
    weighted_degree,
)

CHART3 = Chart(("x", "y", "z"))
BENCH_PROBLEMS = Path(__file__).resolve().parents[1] / "bench" / "problems"
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


def degree_up_to(f, clean, cap):
    """filtration_degree of f's word table, read off the frame words up to
    weight 3, a prefix of them for every cap up to 4."""
    values = WordValues(clean.frame, f)
    return filtration_degree(values, clean.submanifold, frame_words(clean.frame_levels, 3), cap)


@pytest.mark.parametrize("levels", [(), (1,), (1, 1, 2), (2, 3), (1, 2, 2, 4)])
def test_frame_words_split_the_enumeration_by_weight(levels):
    for top in range(-1, 6):
        words = frame_words(levels, top)
        assert len(words) == top + 1
        assert [s for tier in words for s in tier] == weighted_multiindices(levels, top)
        for weight, tier in enumerate(words):
            assert all(weight_of(s, levels) == weight for s in tier)


def test_filtration_degree_refuses_words_that_stop_short():
    clean = check_clean(heis_plus_vertical(), ORIGIN3)
    words = frame_words(clean.frame_levels, 2)
    values = WordValues(clean.frame, Poly.variable(3, 2))
    assert filtration_degree(values, clean.submanifold, words, cap=3) == 2
    with pytest.raises(ValueError, match="cannot reach"):
        filtration_degree(values, clean.submanifold, words, cap=4)


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
    assert degree_up_to(Poly.variable(3, 2), clean, cap=4) == 2


def apply_word(frame, s, f):
    """V^s f letter by letter: frame field p applied s[p] times, the last
    field first.  The reference the word tables are checked against."""
    for field, mult in reversed(list(zip(frame, s))):
        for _ in range(mult):
            f = field.apply(f)
    return f


WORDS3 = st.lists(st.tuples(*[st.integers(0, 2)] * 3), min_size=1, max_size=8)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), WORDS3)
def test_word_table_matches_letter_by_letter_application(seed, words):
    # three random quadratic fields on x, y, z, which do not commute, and a
    # random cubic; the words are read in any order, so a word's prefix may
    # or may not be in the table already
    rng = random.Random(seed)
    frame = tuple(random_field(rng, CHARTS[3], 2) for _ in range(3))
    f = random_poly(rng, 3, 3)
    table = WordValues(frame, f)
    for s in words:
        assert table.value(s) == apply_word(frame, s, f), s
    assert table.value((0, 0, 0)) is f


def test_word_table_applies_the_field_of_the_first_letter_last():
    # dx and dy + x*dz do not commute: dx(dy + x*dz)(z) = 1, while
    # (dy + x*dz)(dx(z)) = 0
    a = coordinate_field(CHART3, 0)
    b = parse_vector_field("dy + x*dz", CHART3)
    z = Poly.variable(3, 2)
    table = WordValues((a, b), z)
    assert table.value((1, 1)) == Poly.one(3)
    assert table.value((0, 1)) == Poly.variable(3, 0)
    assert WordValues((b, a), z).value((1, 1)).is_zero()


@settings(max_examples=15, deadline=None)
@given(
    st.integers(0, 10**6),
    st.sampled_from([1, 2]),
    st.lists(st.tuples(*[st.integers(0, 1)] * 3), min_size=1, max_size=5),
)
def test_word_table_matches_letter_by_letter_application_on_rational_charts(seed, t, words):
    # the normalized fiber coordinates of a pushed-forward model at t = 1
    # or 2, a RatFunc where the pairing has a denominator t or 1 + t, under
    # the model's frame
    sub = Submanifold(CHART_TABC, (0,), (t, 0, 0, 0))
    clean = check_clean(pushed_forward_model(random.Random(seed)), sub)
    for table in normalize_chart(clean)[0]:
        for s in words:
            assert table.value(s) == apply_word(clean.frame, s, table.function), s


def test_word_tables_see_ratfunc_coordinates():
    # the rational-chart property above draws its models from this stream,
    # in which the normalized coordinates are RatFuncs
    sub = Submanifold(CHART_TABC, (0,), (1, 0, 0, 0))
    rng = random.Random(20261)
    rational = 0
    for _ in range(10):
        clean = check_clean(pushed_forward_model(rng), sub)
        tables = normalize_chart(clean)[0]
        rational += sum(isinstance(table.function, RatFunc) for table in tables)
        for table in tables:
            for s in [(1, 1, 0), (0, 1, 1), (2, 0, 0), (1, 0, 1)]:
                assert table.value(s) == apply_word(clean.frame, s, table.function)
    assert rational


def test_weighted_coordinates_apply_each_word_once_per_coordinate(monkeypatch):
    # cartan235: 25 applications for the identity check's one-letter words,
    # 6 for the normalization constants and one per (position, word) for
    # the corrections' three words on the two weight-3 positions; the
    # filtration-degree recheck reads the tables.  Letter by letter it took
    # 63
    spec = load_problem(str(BENCH_PROBLEMS / "cartan235.json"))
    clean = check_clean(spec.filtration, spec.submanifold)
    calls = []
    apply = VectorField.apply

    def counting_apply(self, f):
        calls.append(1)
        return apply(self, f)

    monkeypatch.setattr(VectorField, "apply", counting_apply)
    w = weighted_coordinates(clean)
    assert w.weights == (1, 1, 2, 3, 3)
    assert len(calls) <= 40


def test_weighted_coordinates_build_the_powers_in_one_call_per_corrected_position(monkeypatch):
    # cartan235 corrects its two weight-3 positions.  The first builds the
    # y^s of its three words in one substitute call into the coordinates,
    # and the second finds them built, so its call has nothing to build;
    # the inverse's coefficients and the compose check make the last two
    # calls.  No y^s is multiplied out power by power
    spec = load_problem(str(BENCH_PROBLEMS / "cartan235.json"))
    clean = check_clean(spec.filtration, spec.submanifold)
    calls = []
    substitute = weightcoord.substitute

    def counting_substitute(polys, images):
        calls.append((list(polys), images))
        return substitute(polys, images)

    monkeypatch.setattr(weightcoord, "substitute", counting_substitute)
    w = weighted_coordinates(clean)
    assert w.weights == (1, 1, 2, 3, 3)
    assert len(calls) == 4
    words = ((0, 2, 0, 0, 0), (1, 1, 0, 0, 0), (2, 0, 0, 0, 0))
    built = [[tuple(p.terms.items()) for p in polys] for polys, _ in calls[:2]]
    assert built == [[((s, 1),) for s in words], []]
    # the images are the fiber coordinates, the words' letters final
    assert calls[0][1][:2] == list(w.forward[:2])
    assert {rec.multi_index for rec in w.corrections} == set(words)


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
        assert degree_up_to(z, result.clean, cap=4) == 2

    def test_filtration_degree_edge_cases(self, result):
        assert degree_up_to(Poly.const(3, 5), result.clean, cap=3) == 0
        assert degree_up_to(Poly.zero(3), result.clean, cap=3) == 3
        corrected = result.forward[2]
        assert degree_up_to(corrected, result.clean, cap=3) == 3

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
            (2, (1, 1, 0), Fraction(1), Poly.const(3, -1)),
            (2, (2, 0, 0), Fraction(2), Poly.const(3, -1)),
            (2, (3, 0, 0), Fraction(6), Poly.zero(3)),
        ]

    def test_inverse_and_roundtrip(self, result):
        w = result
        assert w.inverse[2] == parse_polynomial("z + x^2 + x*y", w.chart)
        for p in range(3):
            assert w.forward[p].subst(list(w.inverse)) == Poly.variable(3, p)

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
            power = Poly.one(3)
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
    fd = degree_up_to(f, result.clean, cap=4)
    wd = weighted_degree(f, result)
    assert fd == min(wd, 4)


def _compositions_are_identity(w):
    n = w.dim
    ys = [Poly.variable(n, p) for p in range(n)]
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


PROBLEM_FILES = sorted((Path(__file__).resolve().parents[1] / "problems").glob("*.json"))


def _chart_entries(w):
    """Every forward, inverse and correction-coefficient entry, labelled."""
    return [
        *((f"forward[{p}]", f) for p, f in enumerate(w.forward)),
        *((f"inverse[{c}]", g) for c, g in enumerate(w.inverse)),
        *((f"coefficient{rec.multi_index}", rec.coefficient) for rec in w.corrections),
    ]


@pytest.mark.parametrize("path", PROBLEM_FILES, ids=[p.name for p in PROBLEM_FILES])
def test_problem_charts_are_polynomial_unless_the_pairing_has_a_denominator(path):
    spec = load_problem(str(path))
    w = weighted_coordinates(check_clean(spec.filtration, spec.submanifold))
    rational = {label: f for label, f in _chart_entries(w) if not isinstance(f, Poly)}
    if path.name != "singular_chart.json":
        assert rational == {}
        return
    # the pairing is diag(1 + t, 1): only the fiber coordinate a/(1 + t)
    # divides, and its inverse a*(1 + t) does not
    assert list(rational) == ["forward[1]"]
    assert isinstance(rational["forward[1]"], RatFunc)
    assert rational["forward[1]"].den == parse_polynomial("1 + t", spec.chart)


def _has_unit_denominator(f):
    if isinstance(f, Poly):
        return True
    reduced = divide_exact(f.den, poly_gcd(f.num, f.den))
    return set(reduced.terms) == {(0,) * f.nvars}


def test_pushed_forward_chart_entries_are_ratfuncs_exactly_with_a_denominator():
    # at t = 1 a chart may have a denominator t or 1 + t
    sub = Submanifold(CHART_TABC, (0,), (1, 0, 0, 0))
    rng = random.Random(20261)
    kinds = set()
    for case in range(20):
        w = weighted_coordinates(check_clean(pushed_forward_model(rng), sub))
        for label, f in _chart_entries(w):
            assert isinstance(f, RatFunc) != _has_unit_denominator(f), (case, label)
            kinds.add(type(f))
    # both kinds occur
    assert kinds == {Poly, RatFunc}
