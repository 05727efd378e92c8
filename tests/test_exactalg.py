"""Exact arithmetic layer: canonical forms, ring ops, gcd, linear solving."""

import itertools
import signal
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus import assert_canonical, partial, restrict_to, translate_reference
from lieweights import exactalg
from lieweights.exactalg import (
    LinearSolution,
    Poly,
    RatFunc,
    RowEchelon,
    _coeffs_in,
    _normalize_primitive,
    add_scaled,
    derive_into,
    divide_exact,
    grlex_key,
    linear_solve_exact,
    matrix_inverse,
    matrix_rank,
    mul_terms,
    poly_gcd,
    pow_terms,
    quotient,
    rational_point,
    substitute,
    weight_of,
    weighted_multiindices,
)
from lieweights.lieflt import Submanifold
from lieweights.vfield import (
    Chart,
    VectorField,
    coordinate_field,
    parse_polynomial,
    parse_vector_field,
)

X = Poly.variable(3, 0)
Y = Poly.variable(3, 1)
Z = Poly.variable(3, 2)


def sympy_symbols(n):
    return sympy.symbols(f"v0:{n}")


def to_sympy(p: Poly):
    syms = sympy_symbols(p.nvars)
    expr = sympy.Integer(0)
    for mono, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for s, e in zip(syms, mono):
            term *= s**e
        expr += term
    return sympy.expand(expr)


@st.composite
def polys(draw, nvars=3, max_terms=4, max_exp=2):
    n_terms = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n_terms):
        mono = tuple(draw(st.integers(0, max_exp)) for _ in range(nvars))
        coeff = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
        terms[mono] = coeff
    return Poly(nvars, terms)


# -- canonical form and ordering -------------------------------------------


def test_zero_coefficients_are_dropped():
    p = Poly(2, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
    assert (1, 0) not in p.terms
    assert p == Poly(2, {(0, 1): 2})


def test_equality_is_mapping_equality():
    assert X + Y == Y + X
    assert X - X == Poly.zero(3)
    assert Poly.const(3, 0).is_zero()


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        X + Poly.variable(2, 0)


def test_public_constructor_validates():
    with pytest.raises(ValueError, match="negative exponent"):
        Poly(2, {(1, -1): 1})
    with pytest.raises(ValueError, match="does not match nvars"):
        Poly(2, {(1, 0, 0): 1})
    with pytest.raises(TypeError, match="rational"):
        Poly(2, {(1, 0): 0.5})
    with pytest.raises(ValueError):
        Poly(-1)
    # integral coefficients are held as ints, others as Fractions, and zero
    # ones are dropped
    p = Poly(2, {(1, 0): Fraction(6, 2), (0, 1): 0, (0, 0): True, (1, 1): Fraction(1, 2)})
    assert p.terms == {(1, 0): 3, (0, 0): 1, (1, 1): Fraction(1, 2)}
    assert [type(c) for c in p.terms.values()] == [int, int, Fraction]


@settings(max_examples=80)
@given(
    polys(max_terms=5, max_exp=3),
    polys(max_terms=5, max_exp=3),
    st.one_of(
        st.integers(-3, 3),
        st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
    ),
    st.integers(0, 2),
)
def test_arithmetic_results_are_canonical(p, q, c, i):
    # q - q, p + (-p), c = 0 and the cross terms of (p + q) * (p - q)
    # exercise exact cancellation
    products = (p * q, (p + q) * (p - q), p * (q - q), c * p, p * c)
    unit = [Poly.one(3) if a == i else Poly.zero(3) for a in range(3)]
    out = {}
    derive_into(out, unit, p.terms, 1)
    for r in (p + q, p - q, q - q, p + (-p), -p, Poly.from_sum(3, out)) + products:
        assert_canonical(r)
    # Fraction values that land integral are held as ints: 1/2 + 1/2, and
    # 1/2 * x times 2, as a scalar and as a polynomial
    half = Fraction(1, 2)
    half_p = p * half
    landing = (
        Poly.const(3, half) + half,
        half_p + half_p,
        half_p - (-half_p),
        half_p * 2,
        2 * half_p,
        half_p * Poly.const(3, 2),
        Poly.const(3, 2) * (half_p * Poly.variable(3, i)),
        Poly.from_sum(3, {(0, 0, 0): half + half}),
    )
    for r in landing:
        assert_canonical(r)
    assert landing[0] == 1 and landing[1] == landing[3] == p


def test_no_division_of_ints_gives_a_float():
    # coefficients are held as ints, so each true division divides by a
    # Fraction: 2*x / 4 is x/2 with the coefficient Fraction(1, 2)
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    two_x, four = 2 * x, Poly.const(2, 4)
    half_x = Poly(2, {(1, 0): Fraction(1, 2)})
    cases = [
        (divide_exact(two_x, four), half_x),
        (divide_exact(2 * x * y, 4 * x), Poly(2, {(0, 1): Fraction(1, 2)})),
        (divide_exact(2 * x * x + 2 * x, 4 * x + 4), half_x),
        (two_x / 4, half_x),
        (two_x / 2, x),
        (quotient(two_x, four), half_x),
        (quotient(3 * x, Poly.const(2, 3)), x),
    ]
    for got, expected in cases:
        assert got == expected
        assert_canonical(got)
    assert type(half_x.terms[(1, 0)]) is Fraction


def test_equality_with_a_rational_reads_the_constant_term():
    x = Poly.variable(2, 0)
    three = Poly.const(2, Fraction(6, 2))
    assert three.terms == {(0, 0): 3} and type(three.terms[(0, 0)]) is int
    assert three == 3 == Fraction(3) and three != 2 and three != 0
    assert hash(three) == hash(3) == hash(Fraction(3))
    assert Poly.zero(2) == 0 and Poly.zero(2) == Fraction(0) and Poly.zero(2) != 1
    assert x != 1 and x + 3 != 3 and Poly.const(2, Fraction(1, 2)) == Fraction(1, 2)
    assert Poly.one(2) == 1 and Poly.const(2, True) == 1
    with pytest.raises(TypeError, match="rational"):
        Poly.const(2, 0.5)
    with pytest.raises(ValueError):
        Poly.zero(-1)
    with pytest.raises(ValueError):
        Poly.one(-1)
    with pytest.raises(ValueError):
        Poly.const(-1, 1)


def test_grlex_total_order_and_compatibility():
    monos = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (2, 0, 0), (1, 1, 0), (0, 0, 2)]
    ordered = sorted(monos, key=grlex_key)
    # degree dominates, then left-to-right comparison
    assert ordered == [(0, 0, 0), (0, 1, 0), (1, 0, 0), (0, 0, 2), (1, 1, 0), (2, 0, 0)]
    shift = (0, 2, 1)
    shifted = [tuple(a + b for a, b in zip(m, shift)) for m in ordered]
    assert shifted == sorted(shifted, key=grlex_key)


# -- ring operations ----------------------------------------------------------


def test_weighted_multiindices_of_a_negative_bound_are_empty():
    assert weighted_multiindices((), -1) == []
    assert weighted_multiindices((1, 2), -1) == []
    assert weighted_multiindices((), 0) == [()]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 5), max_size=5), st.integers(-1, 8))
@example([], -1)
@example([], 3)
@example([1, 1, 1, 1, 1], 3)
@example([3, 1, 2], 6)
def test_weighted_multiindices_match_the_filtered_product(weights, bound):
    # the definition: every tuple of weighted degree <= bound, ordered by
    # weighted degree, then grlex; so one weight's tuples come in grlex order
    box = itertools.product(*(range(bound // w + 1) for w in weights))
    expected = sorted(
        (s for s in box if weight_of(s, weights) <= bound),
        key=lambda s: (weight_of(s, weights), grlex_key(s)),
    )
    assert weighted_multiindices(weights, bound) == expected


def test_product_difference_of_squares():
    assert (X + Y) * (X - Y) == X**2 - Y**2


def test_sum_cancels_quadratic():
    assert (Z - X**2) + X**2 == Z


def test_substitution_collapses_correction():
    f = Z - X**2 - X * Y
    images = [X, Y, Z + X**2 + X * Y]
    assert f.subst(images) == Z


def shifted_images(point):
    n = len(point)
    return [Poly.variable(n, i) + Poly.const(n, p) for i, p in enumerate(point)]


@settings(max_examples=80, deadline=None)
@given(
    polys(max_terms=5, max_exp=3),
    st.lists(
        st.one_of(st.just(Fraction(0)), st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))),
        min_size=3,
        max_size=3,
    ),
)
def test_shift_substitution_matches_the_binomial_expansion(f, point):
    moved = f.subst(shifted_images(point))
    assert_canonical(moved)
    assert moved == translate_reference(f, point)
    assert moved.subst(shifted_images([-p for p in point])) == f


def test_shift_substitution_leaves_unshifted_coordinates_alone():
    f = X**2 * Y + Fraction(1, 2) * Z**3 - Y
    assert f.subst(shifted_images([0, 0, 0])).terms == f.terms
    # only the x exponents are expanded; y and z keep theirs
    moved = f.subst(shifted_images([2, 0, 0]))
    assert moved == (X + 2) ** 2 * Y + Fraction(1, 2) * Z**3 - Y
    assert moved == translate_reference(f, [2, 0, 0])
    assert {m[1:] for m in moved.terms} == {m[1:] for m in f.terms}
    # x^2 - 4x + 4 = (x - 2)^2 moves to x^2 at x -> x + 2, every cancelled
    # term dropped
    assert (X**2 - 4 * X + 4).subst(shifted_images([2, 0, 0])).terms == {(2, 0, 0): 1}
    with pytest.raises(ValueError):
        f.subst(shifted_images([1, 2]))


def test_substituting_rational_images_takes_one_quotient_per_result(monkeypatch):
    # each result is one sum over the common denominator, reduced once;
    # a sum term by term through RatFunc arithmetic takes a quotient for
    # nearly every term (4 for f alone, 14 for the batch below)
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    images = [RatFunc(x, y + 1), RatFunc(x + y, x - 2)]
    f = x**2 + 3 * x * y - y**2 + 5 * x - 7
    g = x**3 * y + x - 1
    calls = []

    def counting_quotient(num, den):
        calls.append((num, den))
        return quotient(num, den)

    monkeypatch.setattr(exactalg, "quotient", counting_quotient)
    got_f = f.subst(images)
    assert len(calls) == 1
    calls.clear()
    batch = (f, g, f / g)
    got = substitute(batch, images)
    # one builds f / g, and one per result
    assert len(calls) == 4
    calls.clear()
    # Poly images give a Poly its image with no quotient
    u, v = x + y, x * y
    assert f.subst([u, v]) == u**2 + 3 * u * v - v**2 + 5 * u - 7
    assert calls == []
    monkeypatch.undo()
    mapping = dict(zip(sympy_symbols(2), map(sympy_value, images)))
    for value, result in zip((f, *batch), (got_f, *got)):
        assert_normal_form(result, sympy_value(value).subs(mapping, simultaneous=True))


def test_a_ratfunc_takes_its_tops_over_numerator_and_denominator_together():
    # x / (y^2 + 1): the numerator has no y and the denominator no x, so
    # each part's own tops would give common denominators that do not cancel
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    h = RatFunc(x, y**2 + 1)
    images = [RatFunc(x, y + 1), RatFunc(x + y, x - 2)]
    expected = (x / (y + 1)) / ((x + y) / (x - 2) * ((x + y) / (x - 2)) + 1)
    assert h.subst(images) == expected
    mapping = dict(zip(sympy_symbols(2), map(sympy_value, images)))
    assert_normal_form(h.subst(images), sympy_value(h).subs(mapping, simultaneous=True))


def test_subst_raises_each_image_to_each_power_once(monkeypatch):
    # Poly images: each (variable, exponent > 1) is one pow_terms call, and
    # an exponent 1 takes the image's terms as they are
    calls = []

    def counting_pow_terms(p, exponent, one):
        calls.append((tuple(sorted(p.items())), exponent))
        return pow_terms(p, exponent, one)

    image = X + 2 * Y
    f = X**2 + X**2 * Y + X**2 * Z + X**3 + Y**2 + Y * Z
    expected = (X + 2 * Y) ** 2 * (1 + Y + Z) + (X + 2 * Y) ** 3 + Y**2 + Y * Z
    monkeypatch.setattr(exactalg, "pow_terms", counting_pow_terms)
    got = f.subst([image, Y, Z])
    monkeypatch.undo()
    assert got == expected
    # x^2 appears three times, x^3 and y^2 once each: three powers in all
    assert sorted(e for _, e in calls) == [2, 2, 3]
    assert len(set(calls)) == 3


def test_substitute_raises_each_image_to_each_power_once_for_all(monkeypatch):
    # the powers are held for the whole batch: x^2 and y^2, each in two
    # polynomials of the batch, are one pow_terms call each
    calls = []

    def counting_pow_terms(p, exponent, one):
        calls.append((tuple(sorted(p.items())), exponent))
        return pow_terms(p, exponent, one)

    images = [X + 2 * Y, Y - Z, Z]
    batch = [X**2 + Y**2, X**2 * Z, Y**2 * Z - X, Poly.zero(3)]
    monkeypatch.setattr(exactalg, "pow_terms", counting_pow_terms)
    got = substitute(batch, images)
    monkeypatch.undo()
    assert got == tuple(f.subst(images) for f in batch)
    assert sorted(e for _, e in calls) == [2, 2]
    assert len(set(calls)) == 2


@settings(max_examples=80, deadline=None)
@given(
    st.lists(polys(max_terms=3, max_exp=2), min_size=3, max_size=3),
    polys(max_terms=5, max_exp=3),
    st.one_of(
        st.integers(-2, 2),
        st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
    ),
)
def test_derive_into_adds_the_scaled_derivation(coeffs, f, factor):
    expected = Poly.zero(3)
    for a, c in enumerate(coeffs):
        expected = expected + c * partial(f, a) * factor
    out = {}
    derive_into(out, coeffs, f.terms, factor)
    once = Poly.from_sum(3, out)
    assert_canonical(once)
    assert once == expected
    # a second call with the opposite factor cancels every entry
    derive_into(out, coeffs, f.terms, -factor)
    assert Poly.from_sum(3, out).terms == {}


def test_subst_returns_ratfunc_when_image_is_ratfunc():
    f = Z - X**2
    inv = RatFunc(Poly.one(3), Poly.one(3) + Y)
    out = f.subst([X, Y, inv])
    assert isinstance(out, RatFunc)
    assert out == RatFunc(Poly.one(3) - X**2 * (Poly.one(3) + Y), Poly.one(3) + Y)


def test_power_and_eval():
    p = (X + 2 * Y) ** 3
    assert p.eval([1, 1, 0]) == Fraction(27)
    assert p.eval([Fraction(1, 2), 0, 5]) == Fraction(1, 8)


def test_eval_reads_out_a_fraction_and_checks_its_point():
    # int coefficients at an int point sum as ints; the value reads out
    # as a Fraction, for the zero polynomial too
    p = 2 * X + 3 * Y**2
    half = Poly(3, {(1, 0, 0): Fraction(1, 2)})
    for poly, point, value in (
        (p, (1, 2, 0), 14),
        (Poly.zero(3), (1, 2, 3), 0),
        (Poly.const(3, 5), (0, 0, 0), 5),
        (half + half, (3, 0, 0), 3),
        (p, (Fraction(1, 2), True, 0), 4),
    ):
        got = poly.eval(point)
        assert got == value and type(got) is Fraction
    for poly in (p, Poly.zero(3)):
        with pytest.raises(TypeError, match="rational"):
            poly.eval((1.0, 2, 0))
        with pytest.raises(ValueError, match="wrong dimension"):
            poly.eval((1, 2))


@settings(max_examples=60)
@given(polys(), polys(), polys())
def test_ring_axioms(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert (f * g) * h == f * (g * h)
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h


@settings(max_examples=40)
@given(polys(), polys())
def test_product_matches_sympy_oracle(f, g):
    assert to_sympy(f * g) == sympy.expand(to_sympy(f) * to_sympy(g))


@settings(max_examples=40)
@given(polys(), polys())
def test_leibniz_rule(f, g):
    for i in range(3):
        assert partial(f * g, i) == partial(f, i) * g + f * partial(g, i)


@settings(max_examples=40)
@given(polys())
def test_subst_identity(f):
    images = [Poly.variable(3, i) for i in range(3)]
    assert f.subst(images) == f


@settings(max_examples=40)
@given(polys(), st.lists(st.integers(-3, 3), min_size=3, max_size=3))
def test_eval_is_ring_homomorphism(f, pt):
    g = X * Y - 2
    assert (f * g).eval(pt) == f.eval(pt) * g.eval(pt)
    assert (f + g).eval(pt) == f.eval(pt) + g.eval(pt)


# -- division and gcd ---------------------------------------------------------


def test_divide_exact_basic():
    f = (X + Y) * (X - Y)
    assert divide_exact(f, X + Y) == X - Y
    assert divide_exact(X**2 + Y, X + Y) is None


def test_divide_exact_by_a_monomial():
    assert divide_exact(X**2 * Y + 3 * X * Z, 2 * X) == Fraction(1, 2) * X * Y + Fraction(3, 2) * Z
    assert divide_exact(X * Y + Z, X) is None
    assert divide_exact(6 * X, Poly.const(3, 3)) == 2 * X


def test_divide_exact_checks_the_variable_count_first():
    # a zero numerator on another chart is refused as a nonzero one is,
    # for a constant, a monomial and a longer divisor alike
    for f in (Poly.zero(2), Poly.variable(2, 0)):
        for g in (Poly.const(3, 2), Poly.variable(3, 0), Poly.variable(3, 0) + 1):
            with pytest.raises(ValueError, match="dimension mismatch"):
                divide_exact(f, g)
    assert divide_exact(Poly.zero(3), Poly.variable(3, 0)) == Poly.zero(3)


def test_poly_gcd_shared_factor():
    f = (X + Y) * (X - Y)
    g = (X + Y) * Z
    assert poly_gcd(f, g) == X + Y


def test_poly_gcd_units_and_zero():
    assert poly_gcd(Poly.const(3, 6), Poly.const(3, 4)) == Poly.one(3)
    assert poly_gcd(Poly.zero(3), 3 * X) == X
    assert poly_gcd(-2 * X, Poly.zero(3)) == X


@settings(max_examples=30, deadline=None)
@given(polys(max_terms=3, max_exp=2), polys(max_terms=3, max_exp=2), polys(max_terms=2, max_exp=1))
def test_gcd_divides_and_sees_common_factor(f, g, m):
    d = poly_gcd(f, g)
    if not (f.is_zero() and g.is_zero()):
        assert divide_exact(f, d) is not None
        assert divide_exact(g, d) is not None
    if not (m.is_zero() or f.is_zero() or g.is_zero()):
        dm = poly_gcd(f * m, g * m)
        assert divide_exact(dm, poly_gcd(m, m)) is not None


def reference_gcd(f: Poly, g: Poly) -> Poly:
    """Gcd by the primitive remainder sequence: every pseudo-remainder is
    divided by its content in the main variable, a gcd of its coefficients.
    Any nonzero multiple of a mod b serves there, so this pseudo-remainder
    skips the lc(b) factor of a step whose leading terms cancel further."""
    if f.is_zero() or g.is_zero():
        return _normalize_primitive(f + g)
    used = sorted(set(f.variables_used()) | set(g.variables_used()))
    if not used:
        return Poly.one(f.nvars)
    var = min(used, key=lambda v: sorted((f.degree_in(v), g.degree_in(v))))

    def content(p):
        acc = Poly.zero(p.nvars)
        for _, c in sorted(_coeffs_in(p, var).items()):
            acc = reference_gcd(acc, c)
        return acc

    def primitive(p):
        return p if p.is_zero() else _normalize_primitive(divide_exact(p, content(p)))

    a, b = primitive(f), primitive(g)
    if a.degree_in(var) < b.degree_in(var):
        a, b = b, a
    while not b.is_zero():
        db = b.degree_in(var)
        lb = _coeffs_in(b, var)[db]
        r = a
        while not r.is_zero() and r.degree_in(var) >= db:
            dr = r.degree_in(var)
            shift = Poly.term(r.nvars, tuple(dr - db if i == var else 0 for i in range(r.nvars)), 1)
            r = lb * r - _coeffs_in(r, var)[dr] * shift * b
        a, b = b, primitive(r)
    return _normalize_primitive(reference_gcd(content(f), content(g)) * primitive(a))


@settings(max_examples=40, deadline=None)
@given(polys(max_terms=3, max_exp=2), polys(max_terms=3, max_exp=2), polys(max_terms=3, max_exp=1))
def test_gcd_matches_the_primitive_remainder_sequence(f, g, common):
    assert poly_gcd(f * common, g * common) == reference_gcd(f * common, g * common)


def test_gcd_of_a_quotient_derivative_is_fast():
    # the numerator X(n)*d - n*X(d) of X(n/d) against d^2: every variable
    # occurs in both, and a content gcd per remainder step took seconds
    chart = Chart(("x", "y", "z"))
    d = parse_polynomial("y^2*z^2 + 3/2*x^2*z^2 - x^2*y*z", chart)
    n = parse_polynomial("1/2*x", chart)
    field = parse_vector_field("2*x*z^2*dy + (3*x^2*y - 2)*dz", chart)
    top = field.apply(n) * d - n * field.apply(d)
    start = time.perf_counter()
    assert poly_gcd(top, d * d) == Poly.one(3)
    assert time.perf_counter() - start < 1.0


def test_a_ratfunc_derivative_can_cancel_its_whole_denominator():
    # for coprime n/d, X(n)*d - n*X(d) and d^2 may share all of d^2, not
    # only a factor of d: x^2*dx on 1/x is (0*x - 1*x^2)/x^2 = -1, and
    # x^3*dx on 1/x^2 is (0*x^2 - 1*2*x^4)/x^4 = -2.  A gcd taken against d
    # alone would leave a denominator here
    chart = Chart(("x",))
    x = Poly.variable(1, 0)
    one = Poly.one(1)
    got = parse_vector_field("x^2*dx", chart).apply(RatFunc(one, x))
    assert isinstance(got, Poly) and got == Poly.const(1, -1)
    got = parse_vector_field("x^3*dx", chart).apply(RatFunc(one, x**2))
    assert isinstance(got, Poly) and got == Poly.const(1, -2)


def test_a_float_point_is_refused_where_a_point_is_taken():
    # every entry point that takes a point checks it as evaluate does
    chart = Chart(("x", "y"))
    with pytest.raises(TypeError, match="got float"):
        Submanifold(chart, [0], [0.1, 0])
    with pytest.raises(TypeError, match="got float"):
        rational_point([Fraction(1, 2), 0.0])
    with pytest.raises(TypeError, match="got float"):
        Poly.variable(2, 0).eval([0.1, 0])
    # ints, bools and Fractions are read out as Fractions
    point = rational_point([3, True, Fraction(4, 2), Fraction(1, 3)])
    assert point == (3, 1, 2, Fraction(1, 3))
    assert all(type(v) is Fraction for v in point)
    sub = Submanifold(chart, [0], [Fraction(1, 10), 0])
    assert sub.base_point == (Fraction(1, 10), 0)
    assert all(type(v) is Fraction for v in sub.base_point)


# -- rational functions -------------------------------------------------------


def test_ratfunc_normalization():
    one = Poly.one(3)
    a = RatFunc(2 * one, 2 * (one + Y))
    b = RatFunc(one, one + Y)
    assert a.num == b.num and a.den == b.den
    assert a == b
    neg = RatFunc(one, -(one + Y))
    assert neg.den.leading_coefficient() > 0
    assert neg == RatFunc(-one, one + Y)


def test_ratfunc_gcd_cancellation():
    f = (X**2 - Y**2) / (X + Y)
    assert isinstance(f, Poly)
    assert f == X - Y
    with pytest.raises(ValueError):
        RatFunc(X**2 - Y**2, X + Y)


def test_ratfunc_arithmetic_matches_sympy():
    one = Poly.one(3)
    a = RatFunc(X, one + Y)
    b = RatFunc(Y, one - Y)
    syms = sympy_symbols(3)
    sa = syms[0] / (1 + syms[1])
    sb = syms[1] / (1 - syms[1])
    for ours, theirs in [
        (a + b, sa + sb),
        (a * b, sa * sb),
        (a - b, sa - sb),
        (a / b, sa / sb),
    ]:
        assert sympy.simplify(to_sympy(ours.num) / to_sympy(ours.den) - theirs) == 0


def test_ratfunc_diff_quotient_rule():
    # the oracle's quotient rule, and d/dy applied as a vector field
    one = Poly.one(3)
    f = RatFunc(X, one + Y)
    df = RatFunc(-X, (one + Y) ** 2)
    assert partial(f, 1) == df
    assert coordinate_field(Chart(("x", "y", "z")), 1).apply(f) == df


def test_ratfunc_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RatFunc(X, Poly.zero(3))


def test_ratfunc_is_in_lowest_terms_at_high_degree():
    # both degrees are 9 or more: the gcd is cancelled at every degree
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    one = Poly.one(2)
    plain = RatFunc(y, y + one)
    padded = RatFunc(x**9 * y, x**9 * (y + one))
    assert (padded.num, padded.den) == (plain.num, plain.den)
    assert plain == padded
    assert hash(plain) == hash(padded)
    assert len({plain, padded}) == 1
    polynomial = x**9 * y / x**9
    assert isinstance(polynomial, Poly)
    assert polynomial == y
    assert hash(polynomial) == hash(y)
    # a polynomial in lowest terms restricts, evaluates and is a coefficient
    # where x vanishes
    assert restrict_to(polynomial, [0]) == y
    assert polynomial.eval([0, 3]) == 3
    field = VectorField(Chart(("x", "y")), [polynomial, 1])
    assert field.coeffs == (y, one)


@st.composite
def high_degree_factors(draw):
    """A polynomial in three variables whose leading monomial has total
    degree 9 or 10 in one or two of them, plus lower terms."""
    used = draw(st.lists(st.integers(0, 2), min_size=1, max_size=2, unique=True))
    degree = draw(st.integers(9, 10))
    first = draw(st.integers(1, degree)) if len(used) == 2 else degree
    exps = [0, 0, 0]
    exps[used[0]] = first
    if len(used) == 2:
        exps[used[1]] = degree - first
    lower = draw(polys(max_terms=2, max_exp=1))
    return Poly.term(3, tuple(exps), draw(st.sampled_from([1, -2, Fraction(1, 3)]))) + lower


@settings(max_examples=30, deadline=None)
@given(
    polys(max_terms=3, max_exp=2),
    polys(max_terms=3, max_exp=2).filter(bool),
    high_degree_factors(),
)
def test_a_common_factor_of_high_degree_cancels(num, den, common):
    reduced = quotient(num, den)
    padded = quotient(num * common, den * common)
    assert type(padded) is type(reduced)
    assert padded == reduced
    assert hash(padded) == hash(reduced)
    assert isinstance(padded, Poly) == (divide_exact(num, den) is not None)


@settings(max_examples=30, deadline=None)
@given(polys(max_terms=3, max_exp=2), polys(max_terms=2, max_exp=2).filter(bool))
def test_equal_ratfuncs_hash_alike(num, den):
    pad = Poly.variable(3, 0) ** 9 + Poly.one(3)
    assert hash(quotient(num, den)) == hash(quotient(num * pad, den * pad))


def test_ratfunc_eval():
    one = Poly.one(3)
    f = RatFunc(X + Y, one + Y)
    assert f.eval([1, 1, 0]) == Fraction(1)
    with pytest.raises(ZeroDivisionError):
        f.eval([0, -1, 0])


# -- one normal form: a quotient is a RatFunc only when it is not a polynomial -


def sympy_value(f):
    """A Poly, RatFunc, Fraction or int as a sympy expression."""
    if isinstance(f, RatFunc):
        return to_sympy(f.num) / to_sympy(f.den)
    if isinstance(f, Poly):
        return to_sympy(f)
    return sympy.Rational(f.numerator, f.denominator)


def assert_normal_form(got, expected):
    """got is a function equal to the sympy expression expected, and is a
    Poly exactly when cancel leaves expected a constant denominator."""
    assert isinstance(got, (Poly, RatFunc))
    _, den = sympy.fraction(sympy.cancel(expected))
    assert isinstance(got, Poly) == (not den.free_symbols), (got, expected)
    assert sympy.cancel(sympy_value(got) - expected) == 0


@st.composite
def quotient_pairs(draw, nvars):
    """(num, den) with den nonzero: unrelated, with a planted common
    factor, or with den dividing num."""
    num = draw(polys(nvars=nvars, max_terms=3, max_exp=2))
    den = draw(polys(nvars=nvars, max_terms=3, max_exp=2).filter(bool))
    kind = draw(st.sampled_from(["plain", "common", "multiple"]))
    if kind == "common":
        common = draw(polys(nvars=nvars, max_terms=2, max_exp=2).filter(bool))
        num, den = num * common, den * common
    elif kind == "multiple":
        num = num * den
    return num, den


@st.composite
def scalars(draw, nvars):
    """An int, a Fraction, a Poly or a quotient, in nvars variables."""
    kind = draw(st.sampled_from(["int", "fraction", "poly", "quotient", "quotient"]))
    if kind == "int":
        return draw(st.integers(-3, 3))
    if kind == "fraction":
        return Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
    if kind == "poly":
        return draw(polys(nvars=nvars, max_terms=3, max_exp=2))
    return quotient(*draw(quotient_pairs(nvars)))


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 3).flatmap(quotient_pairs))
def test_quotient_is_a_poly_exactly_when_cancel_leaves_no_denominator(pair):
    num, den = pair
    assert_normal_form(quotient(num, den), to_sympy(num) / to_sympy(den))
    assert_normal_form(num / den, to_sympy(num) / to_sympy(den))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 3).flatmap(lambda n: st.tuples(scalars(n), scalars(n))))
def test_arithmetic_keeps_the_type_rule(operands):
    a, b = operands
    for x, y in ((a, b), (b, a)):
        if not isinstance(x, (Poly, RatFunc)) and not isinstance(y, (Poly, RatFunc)):
            continue
        sx, sy = sympy_value(x), sympy_value(y)
        assert_normal_form(x + y, sx + sy)
        assert_normal_form(x - y, sx - sy)
        assert_normal_form(x * y, sx * sy)
        if y == 0:
            with pytest.raises(ZeroDivisionError):
                x / y
        else:
            assert_normal_form(x / y, sx / sy)
    for x in (a, b):
        if isinstance(x, (Poly, RatFunc)):
            assert_normal_form(-x, -sympy_value(x))
            for k in range(-2 if isinstance(x, RatFunc) else 0, 4):
                assert_normal_form(x**k, sympy_value(x) ** k)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 3).flatmap(
        lambda n: st.tuples(scalars(n), st.lists(scalars(n), min_size=n, max_size=n))
    )
)
def test_subst_keeps_the_type_rule(case):
    f, images = case
    if not isinstance(f, (Poly, RatFunc)):
        return
    nvars = f.nvars
    images = [c if isinstance(c, (Poly, RatFunc)) else Poly.const(nvars, c) for c in images]
    mapping = dict(zip(sympy_symbols(nvars), map(sympy_value, images)))
    expected = sympy_value(f).subs(mapping, simultaneous=True)
    try:
        got = f.subst(images)
    except ZeroDivisionError:
        # only a denominator can vanish under the substitution
        assert isinstance(f, RatFunc)
        assert sympy.cancel(to_sympy(f.den).subs(mapping, simultaneous=True)) == 0
        return
    assert_normal_form(got, expected)


def _expire(signum, frame):
    raise TimeoutError("poly_gcd ran past its 3-s budget")


@pytest.mark.xfail(strict=True, raises=TimeoutError, reason="ROADMAP item 13")
def test_poly_gcd_of_a_swelling_pair_finishes_within_a_budget():
    # test_subst_keeps_the_type_rule's example at --hypothesis-seed=6: the
    # images of f's numerator and denominator are a and b, and f's image
    # needs the gcd of a.num * b.den (63 terms, degree 28) and
    # a.den * b.num (54 terms, degree 26).  sympy finds it in a fraction of
    # a second; the subresultant sequence swells and does not finish.
    v0, v1, v2 = (Poly.variable(3, i) for i in range(3))
    d = -2 * v0 * v1 * v2**2 + 3 * v0**2 * v2**2 + 2 * v0**2 * v1**2 * v2
    f = RatFunc(Fraction(-8, 3) * v2**2 - 2 * v0**2, d)
    images = [
        RatFunc(-2 * v0**2 + 2 * v1**2 * v2**2, d),
        Poly.zero(3),
        Fraction(4, 3) * v0 * v2 + 4 * v0**2 * v1**2 * v2**2,
    ]
    a, b = f.num.subst(images), f.den.subst(images)
    left, right = a.num * b.den, a.den * b.num
    assert (len(left.terms), left.total_degree()) == (63, 28)
    assert (len(right.terms), right.total_degree()) == (54, 26)
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, 3)
    try:
        got = poly_gcd(left, right)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert got == _normalize_primitive((2 * v0 * v1**2 + 3 * v0 * v2 - 2 * v1 * v2) ** 2)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 3).flatmap(lambda n: st.tuples(scalars(n), scalars(n), scalars(n))))
def test_equal_values_hash_alike(values):
    pool = list(values)
    for x in values:
        if isinstance(x, (Poly, RatFunc)):
            n = x.nvars
            pad = Poly.variable(n, 0) + 2
            pool += [x + 0, x * 1, (x * pad) / pad, x - x, x / 1]
        else:
            pool += [Poly.const(n, x) for n in (2, 3)]
            pool += [Fraction(x)]
    for x in pool:
        for y in pool:
            if x == y:
                assert hash(x) == hash(y), (x, y)


def test_constant_polys_hash_as_their_values():
    assert len({Poly.const(2, 3), 3}) == 1
    assert hash(Poly.zero(2)) == hash(0)
    assert hash(Poly.const(3, Fraction(1, 2))) == hash(Fraction(1, 2))
    assert {Poly.one(2): "one"}[1] == "one"
    # a constant quotient is a Poly too
    assert quotient(2 * (X + Y), 4 * (X + Y)) == Fraction(1, 2)
    assert len({quotient(2 * (X + Y), 4 * (X + Y)), Fraction(1, 2)}) == 1


# -- linear solving ----------------------------------------------------------


def nonzero(vec) -> dict:
    """A dense reference vector as the kernel reads it out: its nonzero
    entries {column: value}."""
    return {c: x for c, x in enumerate(vec) if x}


def test_identity_system():
    sol = linear_solve_exact([[1, 0], [0, 1]], [1, 2])
    assert sol == LinearSolution(particular={0: Fraction(1), 1: Fraction(2)}, nullspace=())


def test_infeasible_system():
    assert linear_solve_exact([[0]], [1]) is None


def test_underdetermined_deterministic():
    sol = linear_solve_exact([[1, 1]], [3])
    assert sol.particular == {0: Fraction(3)}
    assert sol.nullspace == ({0: Fraction(-1), 1: Fraction(1)},)
    again = linear_solve_exact([[1, 1]], [3])
    assert again == sol


@st.composite
def systems(draw):
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    rows = [[Fraction(draw(st.integers(-3, 3))) for _ in range(n)] for _ in range(m)]
    x = [Fraction(draw(st.integers(-3, 3))) for _ in range(n)]
    rhs = [sum(r[j] * x[j] for j in range(n)) for r in rows]
    return rows, rhs


@settings(max_examples=60)
@given(systems())
def test_solutions_reverify(sys_pair):
    rows, rhs = sys_pair
    sol = linear_solve_exact(rows, rhs)
    assert sol is not None
    n = len(rows[0])
    for r, b in zip(rows, rhs):
        assert sum(r[j] * x for j, x in sol.particular.items()) == b
    for vec in sol.nullspace:
        for r in rows:
            assert sum(r[j] * x for j, x in vec.items()) == 0
    assert len(sol.nullspace) == n - matrix_rank(rows)


def test_matrix_rank_over_ratfunc_field():
    one = Poly.one(1)
    y = Poly.variable(1, 0)
    rows = [[one, y], [y, y * y]]
    assert matrix_rank(rows) == 1
    assert matrix_rank([[one, y / (one + y)], [one + y, y]]) == 1


# -- the elimination kernel against sympy's rref ------------------------------


def to_sympy_matrix(rows, ncols):
    entries = [sympy.Rational(x.numerator, x.denominator) for r in rows for x in r]
    return sympy.Matrix(len(rows), ncols, entries)


def from_sympy(x) -> Fraction:
    return Fraction(int(x.p), int(x.q))


@st.composite
def sparse_systems(draw):
    """Mostly-zero rational matrices with some forced zero rows and columns,
    plus an arbitrary right-hand side (often infeasible)."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6))
    entry = st.one_of(
        st.just(Fraction(0)),
        st.just(Fraction(0)),
        st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)),
    )
    zero_rows = draw(st.sets(st.integers(0, m - 1), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, n - 1), max_size=2))
    rows = [
        [
            Fraction(0) if i in zero_rows or j in zero_cols else draw(entry)
            for j in range(n)
        ]
        for i in range(m)
    ]
    rhs = [draw(entry) for _ in range(m)]
    probe = [draw(entry) for _ in range(n)]
    return rows, rhs, probe


@settings(max_examples=150, deadline=None)
@given(sparse_systems())
def test_kernel_matches_sympy_rref(system):
    rows, rhs, probe = system
    n = len(rows[0])
    A = to_sympy_matrix(rows, n)
    reduced, pivots = A.rref()
    echelon = RowEchelon(rows)
    assert echelon.rank == len(pivots) == matrix_rank(rows)
    assert sorted(echelon.pivot_rows) == list(pivots)
    assert echelon.reduced_rows() == tuple(
        {j: from_sympy(reduced[i, j]) for j in range(n) if reduced[i, j] != 0}
        for i in range(len(pivots))
    )
    assert all(echelon.contains(r) for r in rows)
    extends = A.col_join(to_sympy_matrix([probe], n)).rank() > len(pivots)
    assert echelon.contains(probe) is not extends
    assert echelon.add(probe) is extends
    assert echelon.rank == len(pivots) + extends

    aug_reduced, aug_pivots = A.row_join(to_sympy_matrix([[b] for b in rhs], 1)).rref()
    sol = linear_solve_exact(rows, rhs)
    if n in aug_pivots:
        assert sol is None
        return
    particular = [Fraction(0)] * n
    for i, c in enumerate(aug_pivots):
        particular[c] = from_sympy(aug_reduced[i, n])
    assert sol.particular == nonzero(particular)
    assert sol.nullspace == tuple(
        nonzero(from_sympy(x) for x in vec) for vec in A.nullspace()
    )


@settings(max_examples=150, deadline=None)
@given(sparse_systems(), st.lists(st.integers(0, 3), min_size=1, max_size=4))
def test_solve_reads_each_right_hand_column_as_alone(system, picks):
    # B's columns are drawn, with repeats, from the often infeasible rhs,
    # the zero column, A's first column and their sum; each must solve as
    # if it were the only one
    rows, rhs, _ = system
    n = len(rows[0])
    first = [r[0] for r in rows]
    choices = [rhs, [Fraction(0)] * len(rows), first, [a + b for a, b in zip(first, rhs)]]
    columns = [choices[k] for k in picks]
    echelon = RowEchelon(row + [col[i] for col in columns] for i, row in enumerate(rows))
    for t, col in enumerate(columns):
        alone = linear_solve_exact(rows, col)
        assert echelon.particular(n, n + t) == (alone.particular if alone else None)
        if t == 0 and alone:
            # the nullspace is A's, whatever B holds past the first column
            assert echelon.nullspace(n) == alone.nullspace


def test_ratfunc_inverse_multiplies_back_to_identity():
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    one = Poly.one(2)
    rows = [
        [one, y, Poly.zero(2)],
        [x, (one + x * y) / (one + x), y * y],
        [Poly.zero(2), x, one - y],
    ]
    inverse = matrix_inverse(rows)
    assert inverse is not None
    for i in range(3):
        for j in range(3):
            entry = sum(
                (rows[i][k] * inverse[k][j] for k in range(3)), Poly.zero(2)
            )
            assert entry == Poly.const(2, 1 if i == j else 0)
    singular = [[one, y], [x, x * y]]
    assert matrix_inverse(singular) is None


# -- one sparse accumulate ------------------------------------------------------


# small values, so that sums cancel often, and explicit zero entries
SMALL = st.one_of(st.integers(-2, 2), st.builds(Fraction, st.integers(-2, 2), st.integers(1, 2)))


@settings(max_examples=200)
@given(
    st.dictionaries(st.integers(0, 6), SMALL, max_size=6),
    SMALL,
    st.dictionaries(st.integers(0, 6), SMALL, max_size=6),
)
def test_add_scaled_matches_a_dense_sum(target, factor, row):
    # target keeps its zero entries only where row touches it, so every
    # zero the result could hold comes from the accumulate itself
    target = {c: x for c, x in target.items() if x or c in row}
    keys = range(7)
    dense = [target.get(c, 0) + factor * row.get(c, 0) for c in keys]
    expected = {c: x for c, x in zip(keys, dense) if x}
    frozen = dict(row)
    add_scaled(target, factor, row)
    assert target == expected and all(target.values())
    assert row == frozen


# -- term-dict kernels ----------------------------------------------------------


def schoolbook_product(p: dict, q: dict) -> dict:
    """Every pair of terms multiplied and summed, then the zeros dropped."""
    out: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


# term dicts in two variables with small nonzero coefficients, so that
# products cancel often
TERM_DICTS = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), SMALL.filter(bool), max_size=4
)


@settings(max_examples=300)
@given(
    polys(max_terms=5, max_exp=3),
    st.one_of(st.integers(-6, 6), st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))),
)
# int and Fraction coefficients, by a Fraction that makes both integral
@example(Poly(3, {(1, 0, 0): 2, (0, 1, 0): Fraction(2, 3)}), Fraction(3, 2))
def test_scalar_product_matches_the_plain_product_in_the_held_form(p, c):
    expected = {m: Fraction(k) * c for m, k in p.terms.items() if c}
    for r in (p * c, c * p):
        assert r.terms == expected
        assert_canonical(r)


@settings(max_examples=300)
@given(TERM_DICTS, TERM_DICTS)
@example({}, {})
@example({}, {(1, 0): 3})
@example({(1, 0): 2}, {(0, 1): Fraction(1, 2)})
@example({(1, 0): 2}, {(1, 0): 1, (0, 1): -1, (0, 0): Fraction(1, 2)})
# (x + y)(x - y): the two x*y terms cancel
@example({(1, 0): 1, (0, 1): 1}, {(1, 0): 1, (0, 1): -1})
def test_mul_terms_matches_the_schoolbook_product(p, q):
    frozen = dict(p), dict(q)
    for a, b in ((p, q), (q, p)):
        got = mul_terms(a, b)
        assert got == schoolbook_product(a, b)
        assert all(got.values())
        assert got is not a and got is not b
    assert (p, q) == frozen


@settings(max_examples=100)
@given(TERM_DICTS, st.integers(0, 5))
@example({}, 0)
@example({(1, 0): 1, (0, 1): -1}, 0)
def test_pow_terms_matches_repeated_products(p, exponent):
    one = {(0, 0): 1}
    expected = one
    for _ in range(exponent):
        expected = mul_terms(expected, p)
    frozen = dict(p)
    got = pow_terms(p, exponent, one)
    assert got == expected and all(got.values())
    assert p == frozen and one == {(0, 0): 1}


# -- the kernel's column index -------------------------------------------------


@st.composite
def row_batches(draw):
    """Sparse Fraction rows with zero rows, repeated rows and combinations
    of earlier rows mixed in, plus two insertion orders."""
    n = draw(st.integers(1, 7))
    entry = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3))
    rows: list[dict] = []
    for _ in range(draw(st.integers(1, 9))):
        kind = draw(st.sampled_from(["sparse", "sparse", "zero", "repeat", "combination"]))
        if kind == "zero":
            rows.append({})
        elif kind == "repeat" and rows:
            rows.append(dict(draw(st.sampled_from(rows))))
        elif kind == "combination" and rows:
            combined: dict = {}
            for _ in range(draw(st.integers(1, 3))):
                factor = draw(entry)
                for c, x in draw(st.sampled_from(rows)).items():
                    combined[c] = combined.get(c, Fraction(0)) + factor * x
            rows.append({c: x for c, x in combined.items() if x})
        else:
            cols = draw(st.sets(st.integers(0, n - 1), max_size=n))
            rows.append({c: draw(entry) for c in sorted(cols)})
    first = draw(st.permutations(rows))
    second = draw(st.permutations(rows))
    return n, first, second


def recomputed_index(echelon: RowEchelon) -> dict:
    index: dict = {}
    for p, row in echelon.pivot_rows.items():
        for c in row:
            if c != p:
                index.setdefault(c, set()).add(p)
    return index


def scanned_particular(echelon: RowEchelon, ncols: int, rhs: int):
    x = [Fraction(0)] * ncols
    for p, row in echelon.pivot_rows.items():
        if rhs in row:
            if p >= ncols:
                return None
            x[p] = row[rhs]
    return tuple(x)


@settings(max_examples=200, deadline=None)
@given(row_batches())
def test_column_index_tracks_the_held_rows(batch):
    n, first, second = batch
    spans = []
    for order in (first, second):
        echelon = RowEchelon()
        for row in order:
            echelon.add(row)
            index = recomputed_index(echelon)
            assert echelon._holders == index
            assert not set(index) & set(echelon.pivot_rows)
            for ncols in range(n):
                for rhs in range(ncols, n):
                    expected = scanned_particular(echelon, ncols, rhs)
                    assert echelon.particular(ncols, rhs) == (
                        None if expected is None else nonzero(expected)
                    )
        spans.append(echelon)
    assert spans[0].pivot_rows == spans[1].pivot_rows


# -- integral entries held as ints -----------------------------------------------


def gauss_jordan(rows, width):
    """Reference: dense Fraction Gauss-Jordan; the nonzero reduced rows and
    their pivot columns."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(width):
        hit = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if hit is None:
            continue
        mat[r], mat[hit] = mat[hit], mat[r]
        lead = mat[r][c]
        mat[r] = [x / lead for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                factor = mat[i][c]
                mat[i] = [x - factor * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return [tuple(row) for row in mat[:r]], pivots


def reference_solve(rows, ncols, rhs):
    """Particular solution (free variables 0) and nullspace basis of
    A x = b, A the first ncols columns and b column rhs, or None."""
    reduced, pivots = gauss_jordan([[*row[:ncols], row[rhs]] for row in rows], ncols + 1)
    if ncols in pivots:
        return None
    particular = [Fraction(0)] * ncols
    for row, p in zip(reduced, pivots):
        particular[p] = row[ncols]
    nullspace = []
    for c in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[c] = Fraction(1)
        for row, p in zip(reduced, pivots):
            vec[p] = -row[c]
        nullspace.append(tuple(vec))
    return tuple(particular), tuple(nullspace)


@st.composite
def integral_systems(draw):
    """Small matrices [A | B] mixing ints, integral Fractions and proper
    fractions, with leading entries of 1, -1 and other values; each row is
    given dense or as a sparse dict."""
    ncols = draw(st.integers(1, 5))
    width = ncols + draw(st.integers(1, 2))
    entry = st.one_of(
        st.just(0),
        st.just(0),
        st.integers(-4, 4),
        st.builds(Fraction, st.integers(-4, 4)),
        st.builds(Fraction, st.integers(-5, 5), st.integers(2, 4)),
    )
    lead = st.sampled_from(
        [1, -1, 2, -3, 5, Fraction(1), Fraction(-1), Fraction(4), Fraction(-2, 3)]
    )
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        start = draw(st.integers(0, width))
        row = [0] * start
        row += [draw(lead) if c == start else draw(entry) for c in range(start, width)]
        rows.append(row)
    sparse = [draw(st.booleans()) for _ in rows]
    return rows, sparse, ncols, width


@settings(max_examples=200, deadline=None)
@given(integral_systems())
def test_integral_entries_match_dense_fraction_reference(system):
    rows, sparse, ncols, width = system
    given_rows = [
        {c: x for c, x in enumerate(row) if x} if as_dict else row
        for row, as_dict in zip(rows, sparse)
    ]
    echelon = RowEchelon(given_rows)
    reduced, pivots = gauss_jordan(rows, width)
    assert echelon.rank == len(pivots) == matrix_rank(rows)
    got = echelon.reduced_rows()
    assert got == tuple({c: x for c, x in enumerate(row) if x} for row in reduced)
    assert all(list(row) == sorted(row) for row in got)
    for rhs in range(ncols, width):
        expected = reference_solve(rows, ncols, rhs)
        particular = echelon.particular(ncols, rhs)
        assert particular == (nonzero(expected[0]) if expected else None)
        read_out = [*got, particular or {}]
        if rhs == ncols and expected is not None:
            nullspace = echelon.nullspace(ncols)
            assert nullspace == tuple(map(nonzero, expected[1]))
            read_out.extend(nullspace)
        assert all(type(x) is Fraction for vec in read_out for x in vec.values())
    if len(rows) >= ncols:
        square = [row[:ncols] for row in rows[:ncols]]
        inverse = matrix_inverse(square)
        if gauss_jordan(square, ncols)[1] == list(range(ncols)):
            assert all(type(x) is Fraction for row in inverse for x in row)
            product = [
                [sum(a * b for a, b in zip(row, col)) for col in zip(*inverse)]
                for row in square
            ]
            assert product == [[int(i == j) for j in range(ncols)] for i in range(ncols)]
        else:
            assert inverse is None


@settings(max_examples=200, deadline=None)
@given(integral_systems())
def test_nullspace_of_every_column_prefix_matches_the_reference(system):
    # one elimination of the whole matrix reads the nullspace of each
    # leading block of columns, as a reduction of that block alone would
    rows, sparse, _, width = system
    echelon = RowEchelon(
        {c: x for c, x in enumerate(row) if x} if as_dict else row
        for row, as_dict in zip(rows, sparse)
    )
    for ncols in range(width + 1):
        reduced, pivots = gauss_jordan([row[:ncols] for row in rows], ncols)
        expected = []
        for c in (c for c in range(ncols) if c not in pivots):
            vec = [Fraction(0)] * ncols
            vec[c] = Fraction(1)
            for row, p in zip(reduced, pivots):
                vec[p] = -row[c]
            expected.append(nonzero(vec))
        got = echelon.nullspace(ncols)
        assert got == tuple(expected)
        assert all(type(x) is Fraction for vec in got for x in vec.values())


def test_integral_pivots_take_the_int_and_fraction_paths():
    # lead -1 negates the row, lead 2 divides through as a Fraction, and
    # integral Fractions go in as ints
    echelon = RowEchelon([[-1, Fraction(3), 4], {1: 2, 2: Fraction(1, 2)}])
    held = [x for row in echelon.pivot_rows.values() for x in row.values()]
    assert all(type(x) in (int, Fraction) for x in held)
    assert any(type(x) is int for x in held)
    assert echelon.reduced_rows() == (
        {0: Fraction(1), 2: Fraction(-13, 4)},
        {1: Fraction(1), 2: Fraction(1, 4)},
    )
    assert echelon.particular(2, 2) == {0: Fraction(-13, 4), 1: Fraction(1, 4)}
    assert echelon.reduce([0, 0, Fraction(6, 3)]) == {2: 2}
