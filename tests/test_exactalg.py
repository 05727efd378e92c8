"""Exact arithmetic layer: canonical forms, ring ops, gcd, linear solving."""

import itertools
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from lieweights.exactalg import (
    LinearSolution,
    Poly,
    RatFunc,
    RowEchelon,
    GCD_DEGREE_CAP,
    _coeffs_in,
    _normalize_primitive,
    divide_exact,
    grlex_key,
    linear_solve_exact,
    matrix_inverse,
    matrix_rank,
    poly_gcd,
    weight_of,
    weighted_multiindices,
)
from lieweights.vfield import Chart, parse_polynomial, parse_vector_field

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
    # int coefficients become Fractions, zero ones are dropped
    p = Poly(2, {(1, 0): 3, (0, 1): 0})
    assert p.terms == {(1, 0): Fraction(3)} and type(p.terms[(1, 0)]) is Fraction


def assert_canonical(r: Poly) -> None:
    """The invariant the arithmetic's unchecked constructor relies on."""
    for mono, c in r.terms.items():
        assert type(c) is Fraction and c != 0
        assert type(mono) is tuple and len(mono) == r.nvars
        assert all(type(e) is int and e >= 0 for e in mono)
    assert r == Poly(r.nvars, r.terms)


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
    for r in (p + q, p - q, q - q, p + (-p), -p, p.diff(i)) + products:
        assert_canonical(r)


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


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 4), max_size=4), st.integers(-1, 7))
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
        assert (f * g).diff(i) == f.diff(i) * g + f * g.diff(i)


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
    f = RatFunc(X**2 - Y**2, X + Y)
    assert f.is_polynomial()
    assert f.num == X - Y


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
    one = Poly.one(3)
    f = RatFunc(X, one + Y)
    df = f.diff(1)
    assert df == RatFunc(-X, (one + Y) ** 2)


def test_ratfunc_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RatFunc(X, Poly.zero(3))


def test_ratfunc_hash_agrees_with_eq_past_the_gcd_cap():
    # x^9 pushes both degrees past the cap, so the stored forms stay unreduced
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    one = Poly.one(2)
    assert 9 > GCD_DEGREE_CAP
    plain = RatFunc(y, y + one)
    padded = RatFunc(x**9 * y, x**9 * (y + one))
    assert padded.den != plain.den
    assert plain == padded
    assert hash(plain) == hash(padded)
    assert len({plain, padded}) == 1
    quotient = RatFunc(x**9 * y, x**9)
    assert not quotient.is_polynomial()
    assert quotient == y
    assert hash(quotient) == hash(y)


@settings(max_examples=30, deadline=None)
@given(polys(max_terms=3, max_exp=2), polys(max_terms=2, max_exp=2).filter(bool))
def test_equal_ratfuncs_hash_alike(num, den):
    pad = Poly.variable(3, 0) ** (GCD_DEGREE_CAP + 1) + Poly.one(3)
    assert hash(RatFunc(num, den)) == hash(RatFunc(num * pad, den * pad))


def test_ratfunc_eval():
    one = Poly.one(3)
    f = RatFunc(X + Y, one + Y)
    assert f.eval([1, 1, 0]) == Fraction(1)
    with pytest.raises(ZeroDivisionError):
        f.eval([0, -1, 0])


# -- linear solving ----------------------------------------------------------


def test_identity_system():
    sol = linear_solve_exact([[1, 0], [0, 1]], [1, 2])
    assert sol == LinearSolution(particular=(Fraction(1), Fraction(2)), nullspace=())


def test_infeasible_system():
    assert linear_solve_exact([[0]], [1]) is None


def test_underdetermined_deterministic():
    sol = linear_solve_exact([[1, 1]], [3])
    assert sol.particular == (Fraction(3), Fraction(0))
    assert sol.nullspace == ((Fraction(-1), Fraction(1)),)
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
        assert sum(r[j] * sol.particular[j] for j in range(n)) == b
    for vec in sol.nullspace:
        for r in rows:
            assert sum(r[j] * vec[j] for j in range(n)) == 0
    assert len(sol.nullspace) == n - matrix_rank(rows)


def test_matrix_rank_over_ratfunc_field():
    one = Poly.one(1)
    y = Poly.variable(1, 0)
    rows = [
        [RatFunc(one), RatFunc(y)],
        [RatFunc(y), RatFunc(y * y)],
    ]
    assert matrix_rank(rows) == 1


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
    assert echelon.reduced_rows(n) == tuple(
        tuple(from_sympy(reduced[i, j]) for j in range(n))
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
    assert sol.particular == tuple(particular)
    assert sol.nullspace == tuple(
        tuple(from_sympy(x) for x in vec) for vec in A.nullspace()
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
        alone = RowEchelon(row + [b] for row, b in zip(rows, col)).solve(n)
        assert echelon.particular(n, n + t) == (alone.particular if alone else None)
        if t == 0:
            # the nullspace is A's, whatever B holds past the first column
            assert echelon.solve(n) == alone


def test_ratfunc_inverse_multiplies_back_to_identity():
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    one = Poly.one(2)
    rows = [
        [RatFunc(one), RatFunc(y), RatFunc(Poly.zero(2))],
        [RatFunc(x), RatFunc(one + x * y, one + x), RatFunc(y * y)],
        [RatFunc(Poly.zero(2)), RatFunc(x), RatFunc(one - y)],
    ]
    inverse = matrix_inverse(rows)
    assert inverse is not None
    for i in range(3):
        for j in range(3):
            entry = sum(
                (rows[i][k] * inverse[k][j] for k in range(3)), RatFunc.const(2, 0)
            )
            assert entry == RatFunc.const(2, 1 if i == j else 0)
    singular = [[RatFunc(one), RatFunc(y)], [RatFunc(x), RatFunc(x * y)]]
    assert matrix_inverse(singular) is None


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
                    assert echelon.particular(ncols, rhs) == scanned_particular(
                        echelon, ncols, rhs
                    )
        spans.append(echelon)
    assert spans[0].pivot_rows == spans[1].pivot_rows
