"""The exact kernels against the plainer versions they replaced.

Each oracle below is the earlier, slower form of one kernel, kept here so
that a rewrite for speed can be checked term for term: point evaluation,
restriction to N, substitution (one polynomial at a time, and the batch
against a loop of the one-polynomial form it replaced) and the normalized
fiber coordinates.  The
weighted multi-index enumeration is checked against the sorted box in
test_exactalg.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus import CHART_TABC, assert_canonical, pushed_forward_model, restrict_to
from lieweights.cli import load_problem
from lieweights.exactalg import (
    Poly,
    RatFunc,
    add_scaled,
    evaluate,
    held,
    matrix_inverse,
    mul_terms,
    pow_terms,
    quotient,
    restrict_terms,
    substitute,
)
from lieweights.lieflt import Submanifold, check_clean
from lieweights.vfield import Chart, VectorField
from lieweights.weightcoord import normalize_chart

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


# -- the replaced versions ----------------------------------------------------


def oracle_eval(p: Poly, point) -> Fraction:
    """Every term summed in Fraction arithmetic, none skipped."""
    if len(point) != p.nvars:
        raise ValueError("evaluation point has wrong dimension")
    total = Fraction(0)
    for mono, c in p.terms.items():
        value = Fraction(c)
        for v, e in zip(point, mono):
            value *= Fraction(v) ** e
        total += value
    return total


def oracle_chop(p: Poly, fiber) -> Poly:
    """The terms with no fiber exponent, re-held through Poly.from_sum."""
    fiber = set(fiber)
    return Poly.from_sum(
        p.nvars, {m: c for m, c in p.terms.items() if all(m[i] == 0 for i in fiber)}
    )


def oracle_restrict(value, fiber):
    if isinstance(value, Poly):
        return oracle_chop(value, fiber)
    den = oracle_chop(value.den, fiber)
    if den.is_zero():
        raise ZeroDivisionError("denominator vanishes identically on the submanifold")
    return oracle_chop(value.num, fiber) / den


def oracle_subst(p: Poly, images):
    """Each term's image added to a Poly or RatFunc accumulator in turn."""
    acc = Poly.zero(images[0].nvars)
    for mono, c in p.terms.items():
        term = c
        for i, e in enumerate(mono):
            if e:
                term = term * images[i] ** e
        acc = acc + term
    return acc


def one_subst(p, images):
    """Poly.subst and RatFunc.subst before the batch: one polynomial per
    call, each image's powers held for that call only."""
    if isinstance(p, RatFunc):
        return one_subst(p.num, images) / one_subst(p.den, images)
    if len(images) != p.nvars:
        raise ValueError("substitution needs one image per variable")
    if not images:
        raise ValueError("cannot infer target dimension for 0-variable substitution")
    target = images[0].nvars
    for img in images:
        if img.nvars != target:
            raise ValueError("substitution images live in different variable counts")
    if all(isinstance(img, Poly) for img in images):
        one = {(0,) * target: 1}
        out = {}
        factors = {}
        for mono, c in p.terms.items():
            product = one
            for i, e in enumerate(mono):
                if e:
                    factor = factors.get((i, e))
                    if factor is None:
                        factor = images[i].terms
                        if e > 1:
                            factor = pow_terms(factor, e, one)
                        factors[(i, e)] = factor
                    product = mul_terms(product, factor) if product is not one else factor
            add_scaled(out, c, product)
        return Poly(target, {m: held(c) for m, c in out.items()})
    return oracle_subst(p, images)


def oracle_coordinates(clean):
    """sum_c inverse[c][b] * x_{fiber c}, one Poly product and sum a term."""
    sub = clean.submanifold
    n = sub.chart.dim
    fiber = sub.fiber_indices
    pairing = [[sub.restrict(field.coeffs[c]) for c in fiber] for field in clean.frame]
    inverse = matrix_inverse(pairing)
    coords = []
    for b in range(len(fiber)):
        acc = Poly.zero(n)
        for c in range(len(fiber)):
            acc = acc + inverse[c][b] * Poly.variable(n, fiber[c])
        coords.append(acc)
    return tuple(coords)


# -- strategies ---------------------------------------------------------------

RATIONALS = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
)
# zero coordinates often, as at a base point on N
COORDINATES = st.one_of(st.just(0), st.just(Fraction(0)), RATIONALS)


@st.composite
def polys(draw, nvars=3, max_terms=4, max_exp=3):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        mono = tuple(draw(st.integers(0, max_exp)) for _ in range(nvars))
        terms[mono] = draw(RATIONALS)
    return Poly(nvars, terms)


@st.composite
def ratfuncs(draw, nvars=3):
    """A quotient with a nonconstant denominator; it may reduce to a Poly."""
    num = draw(polys(nvars, max_terms=3, max_exp=2))
    den = draw(polys(nvars, max_terms=2, max_exp=1))
    den = den + Poly.variable(nvars, draw(st.integers(0, nvars - 1)))
    if den.is_zero():
        den = Poly.one(nvars)
    return quotient(num, den)


FIBERS = st.lists(st.integers(0, 3), max_size=4)


# -- evaluation ---------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(polys(), st.lists(COORDINATES, min_size=3, max_size=3))
@example(Poly(3, {(1, 0, 0): 2, (0, 1, 0): 3, (0, 0, 0): 1}), [0, 5, Fraction(1, 2)])
def test_eval_matches_the_full_sum(p, point):
    got = p.eval(point)
    assert got == oracle_eval(p, point)
    assert type(got) is Fraction


@settings(max_examples=80, deadline=None)
@given(st.lists(polys(), max_size=4), st.lists(COORDINATES, min_size=3, max_size=3))
def test_evaluate_matches_eval_entry_by_entry(ps, point):
    assert evaluate(ps, point) == tuple(oracle_eval(p, point) for p in ps)
    field = VectorField(Chart(("x", "y", "z")), (ps + [Poly.zero(3)] * 3)[:3])
    assert field.value_at(point) == tuple(oracle_eval(c, point) for c in field.coeffs)


def test_evaluate_checks_the_point_once_for_every_polynomial():
    p = Poly.variable(3, 0)
    with pytest.raises(TypeError):
        evaluate([p], [0.5, 0, 0])
    # a float is refused with no polynomial to evaluate too
    with pytest.raises(TypeError):
        evaluate([], [0.5])
    with pytest.raises(ValueError, match="wrong dimension"):
        evaluate([p, Poly.zero(2)], [1, 2, 3])


# -- restriction to N ---------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(polys(nvars=4), FIBERS)
def test_restrict_terms_matches_the_chop(p, fiber):
    got = restrict_terms(p, fiber)
    assert_canonical(got)
    assert got == oracle_chop(p, fiber)
    assert restrict_to(p, fiber) == got


@settings(max_examples=60, deadline=None)
@given(ratfuncs(nvars=4), FIBERS)
def test_restrict_zero_of_a_ratfunc_matches_the_chop(value, fiber):
    try:
        expected = oracle_restrict(value, fiber)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError, match="vanishes identically on the submanifold"):
            restrict_to(value, fiber)
        return
    assert restrict_to(value, fiber) == expected


def test_restrict_terms_returns_a_polynomial_with_no_fiber_term_as_it_is():
    p = Poly(3, {(1, 0, 0): 2, (2, 0, 0): Fraction(1, 2)})
    assert restrict_terms(p, (1, 2)) is p
    assert restrict_terms(p, (0,)).is_zero()


# -- substitution -------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(polys(max_terms=5), st.lists(polys(max_terms=3, max_exp=2), min_size=3, max_size=3))
# x*y + z with x -> a, y -> b, z -> -a*b: every term cancels
@example(
    Poly(3, {(1, 1, 0): 1, (0, 0, 1): 1}),
    [Poly.variable(3, 0), Poly.variable(3, 1), Poly(3, {(1, 1, 0): -1})],
)
# x^2 - y with x -> a + b, y -> a^2 + 2ab: one term is left
@example(
    Poly(3, {(2, 0, 0): 1, (0, 1, 0): -1}),
    [Poly(3, {(1, 0, 0): 1, (0, 1, 0): 1}), Poly(3, {(2, 0, 0): 1, (1, 1, 0): 2}), Poly.zero(3)],
)
def test_subst_with_poly_images_matches_the_accumulator(p, images):
    got = p.subst(images)
    assert isinstance(got, Poly)
    assert_canonical(got)
    assert got == oracle_subst(p, images)


@settings(max_examples=40, deadline=None)
@given(
    polys(max_terms=3, max_exp=2),
    st.lists(st.one_of(polys(max_terms=2, max_exp=1), ratfuncs()), min_size=3, max_size=3),
)
def test_subst_with_ratfunc_images_matches_the_accumulator(p, images):
    assert p.subst(images) == oracle_subst(p, images)


def one_subst_or_raise(p, images):
    try:
        return one_subst(p, images)
    except ZeroDivisionError:
        return ZeroDivisionError


BATCH_POLYS = st.one_of(polys(max_terms=4, max_exp=2), st.just(Poly.zero(3)))


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(
        # Poly images, into polynomials and rational functions
        st.tuples(
            st.lists(st.one_of(BATCH_POLYS, ratfuncs()), max_size=4),
            st.lists(polys(max_terms=3, max_exp=2), min_size=3, max_size=3),
        ),
        # RatFunc images, into polynomials: a RatFunc over RatFunc images
        # takes a gcd of products, which the explicit example below keeps
        # small
        st.tuples(
            st.lists(BATCH_POLYS, max_size=4),
            st.lists(st.one_of(polys(max_terms=2, max_exp=1), ratfuncs()), min_size=3, max_size=3),
        ),
    )
)
@example(
    (
        [RatFunc(Poly.variable(3, 0), Poly.variable(3, 1) + 1), Poly.variable(3, 2) ** 2],
        [
            RatFunc(Poly.one(3), Poly.variable(3, 2) + 2),
            Poly.variable(3, 0),
            RatFunc(Poly.variable(3, 1), Poly.variable(3, 0) + 1),
        ],
    )
)
def test_substitute_matches_a_loop_of_the_one_polynomial_form(case):
    batch, images = case
    expected = [one_subst_or_raise(p, images) for p in batch]
    if ZeroDivisionError in expected:
        # a RatFunc whose denominator's image is 0
        with pytest.raises(ZeroDivisionError):
            substitute(batch, images)
        return
    got = substitute(batch, images)
    assert got == tuple(expected)
    for value in got:
        if isinstance(value, Poly):
            assert_canonical(value)


@pytest.mark.parametrize(
    "batch, images",
    [
        # a polynomial with another variable count than the images cover
        ([Poly.variable(3, 0), Poly.variable(2, 0)], [Poly.variable(2, 0)] * 3),
        ([RatFunc(Poly.one(2), Poly.variable(2, 1))], [Poly.variable(2, 0)] * 3),
        # images in different variable counts
        ([Poly.variable(3, 0)], [Poly.variable(3, 0), Poly.variable(3, 1), Poly.zero(2)]),
        # no image to read the target count from
        ([Poly.one(0)], []),
    ],
)
def test_substitute_refuses_what_the_one_polynomial_form_refused(batch, images):
    with pytest.raises(ValueError) as expected:
        for p in batch:
            one_subst(p, images)
    with pytest.raises(ValueError, match=str(expected.value)):
        substitute(batch, images)
    with pytest.raises(ValueError, match=str(expected.value)):
        batch[0].subst(images) if len(batch) == 1 else batch[1].subst(images)


def test_substitute_of_an_empty_batch_still_checks_the_images():
    assert substitute([], [Poly.variable(2, 0), Poly.variable(2, 1)]) == ()
    with pytest.raises(ValueError, match="different variable counts"):
        substitute([], [Poly.variable(2, 0), Poly.zero(3)])


def test_subst_into_another_variable_count():
    # images in two variables: the result lives in two
    p = Poly(3, {(1, 0, 2): 3, (0, 1, 0): -1})
    s, t = Poly.variable(2, 0), Poly.variable(2, 1)
    got = p.subst([s + t, s, t - 1])
    assert got.nvars == 2
    assert got == 3 * (s + t) * (t - 1) ** 2 - s


# -- normalized fiber coordinates ---------------------------------------------


def test_normalized_coordinates_match_the_products_on_the_problems():
    compared = 0
    for path in sorted(PROBLEMS.glob("*.json")):
        spec = load_problem(str(path))
        clean = check_clean(spec.filtration, spec.submanifold)
        if clean.verdict == "pass":
            coords = tuple(table.function for table in normalize_chart(clean)[0])
            assert coords == oracle_coordinates(clean), path.name
            compared += 1
    assert compared >= 8


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([1, 2]))
def test_normalized_coordinates_match_the_products_on_pushed_forward_models(seed, t):
    # N = {a = b = c = 0} at t: the pairing depends on t, so an inverse
    # entry may be a RatFunc
    sub = Submanifold(CHART_TABC, (0,), (t, 0, 0, 0))
    clean = check_clean(pushed_forward_model(random.Random(seed)), sub)
    coords = tuple(table.function for table in normalize_chart(clean)[0])
    assert coords == oracle_coordinates(clean)
    for coord in coords:
        if isinstance(coord, Poly):
            assert_canonical(coord)
        else:
            assert isinstance(coord, RatFunc)
