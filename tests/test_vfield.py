"""Vector fields, brackets, operator words, and the expression grammar."""

import re
import string
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from corpus import assert_canonical, partial
from lieweights import exactalg, vfield
from lieweights.exactalg import Poly, RatFunc
from lieweights.vfield import (
    MAX_DEGREE,
    MAX_NESTING,
    MAX_TERMS,
    Chart,
    ParseError,
    VectorField,
    coordinate_field,
    format_poly,
    format_scalar,
    format_vector_field,
    lie_bracket,
    parse_polynomial,
    parse_scalar,
    parse_vector_field,
    restrict_zero,
)

CHART = Chart(("x", "y", "z"))
X_, Y_, Z_ = (Poly.variable(3, i) for i in range(3))


def sympy_bracket(x_coeffs, y_coeffs, syms):
    out = []
    for a in range(len(syms)):
        expr = sympy.Integer(0)
        for b in range(len(syms)):
            expr += x_coeffs[b] * sympy.diff(y_coeffs[a], syms[b])
            expr -= y_coeffs[b] * sympy.diff(x_coeffs[a], syms[b])
        out.append(sympy.expand(expr))
    return out


def to_sympy(p: Poly, syms):
    expr = sympy.Integer(0)
    for mono, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for s, e in zip(syms, mono):
            term *= s**e
        expr += term
    return sympy.expand(expr)


# -- chart -----------------------------------------------------------------


def test_chart_rejects_bad_names():
    with pytest.raises(ValueError):
        Chart(("x", "x"))
    with pytest.raises(ValueError):
        Chart(("2x",))
    with pytest.raises(ValueError):
        Chart(("a-b",))


# -- brackets and application -------------------------------------------------


def test_bracket_of_martinet_pair():
    x = parse_vector_field("dx + (2*x + y)*dz", CHART)
    y = parse_vector_field("dy + (x + x^2)*dz", CHART)
    assert lie_bracket(x, y) == parse_vector_field("2*x*dz", CHART)


def test_bracket_euler_example():
    dx = coordinate_field(CHART, 0)
    euler = parse_vector_field("x*dx", CHART)
    assert lie_bracket(dx, euler) == dx


def test_apply_examples():
    v = parse_vector_field("dx + x*dz", CHART)
    assert v.apply(Z_) == X_
    assert v.apply(v.apply(Z_)) == Poly.one(3)
    martinet = parse_vector_field("dx + (2*x + y)*dz", CHART)
    assert martinet.apply(Z_ - X_**2 - X_ * Y_) == Poly.zero(3)


@st.composite
def fields(draw):
    coeffs = []
    for _ in range(3):
        terms = {}
        for _ in range(draw(st.integers(0, 2))):
            mono = tuple(draw(st.integers(0, 2)) for _ in range(3))
            terms[mono] = Fraction(draw(st.integers(-3, 3)))
        coeffs.append(Poly(3, terms))
    return VectorField(CHART, coeffs)


@st.composite
def funcs(draw):
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        mono = tuple(draw(st.integers(0, 2)) for _ in range(3))
        terms[mono] = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 2)))
    return Poly(3, terms)


@settings(max_examples=40)
@given(fields(), fields())
def test_bracket_matches_sympy_oracle(x, y):
    syms = sympy.symbols("x y z")
    xs = [to_sympy(c, syms) for c in x.coeffs]
    ys = [to_sympy(c, syms) for c in y.coeffs]
    expected = sympy_bracket(xs, ys, syms)
    got = lie_bracket(x, y)
    for a in range(3):
        assert to_sympy(got.coeffs[a], syms) == expected[a]


def double_loop_bracket(x, y):
    """Oracle: the coefficient formula X^b d_b Y^a - Y^b d_b X^a, summed
    one product at a time."""
    n = x.chart.dim
    out = []
    for a in range(n):
        acc = Poly.zero(n)
        for b in range(n):
            if x.coeffs[b]:
                acc = acc + x.coeffs[b] * partial(y.coeffs[a], b)
            if y.coeffs[b]:
                acc = acc - y.coeffs[b] * partial(x.coeffs[a], b)
        out.append(acc)
    return VectorField(x.chart, out)


@settings(max_examples=30, deadline=None)
@given(fields(), fields())
def test_bracket_matches_double_loop_formula(x, y):
    assert lie_bracket(x, y) == double_loop_bracket(x, y)


@settings(max_examples=40)
@given(fields(), fields(), funcs())
def test_word_commutator_identity(x, y, f):
    lhs = x.apply(y.apply(f)) - y.apply(x.apply(f))
    assert lhs == lie_bracket(x, y).apply(f)


@settings(max_examples=40)
@given(fields(), st.fractions(min_value=-3, max_value=3, max_denominator=4))
def test_scalar_scale_matches_constant_poly_scale(x, c):
    assert x.scale(c) == x.scale(Poly.const(3, c))


def test_scale_checks_its_factor():
    x = parse_vector_field("dx + y*dz", CHART)
    with pytest.raises(ValueError):
        x.scale(Poly.variable(2, 0))
    assert x.scale(X_ * Y_ / Y_) == x.scale(X_)
    with pytest.raises(ValueError):
        x.scale(RatFunc(X_, Y_))


@settings(max_examples=40)
@given(fields(), funcs(), funcs())
def test_apply_is_derivation(x, f, g):
    assert x.apply(f * g) == x.apply(f) * g + f * x.apply(g)


def per_term_apply(x, f):
    """Oracle: sum_a c_a * d_a(f) in RatFunc arithmetic, one quotient-rule
    partial per term."""
    acc = Poly.zero(f.nvars)
    for a, c in enumerate(x.coeffs):
        if c:
            acc = acc + c * partial(f, a)
    return acc


@settings(max_examples=40, deadline=None)
@given(fields(), funcs(), funcs().filter(bool))
# poly_gcd once took about 95 s on this quotient's derivative: its
# remainder sequences grew their rational content exponentially
@example(
    parse_vector_field("(x^2 - 3*x*y^2)*dx + (3*x^2*y^2*z^2 - 3*x*z)*dy", CHART),
    parse_polynomial("1/2*z", CHART),
    parse_polynomial("-3/2*x*z + 2*y^2*z + y^2*z^2", CHART),
)
def test_apply_on_a_quotient_matches_the_per_term_sum(x, num, den):
    f = num / den
    assert per_term_apply(x, f) == x.apply(f)


@st.composite
def rational_fields(draw):
    """Fields with rational coefficients of degree <= 2, scaled copies of
    one another often enough that brackets cancel."""
    coeffs = []
    small = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    for _ in range(3):
        terms = {}
        for _ in range(draw(st.integers(0, 3))):
            mono = tuple(draw(st.integers(0, 2)) for _ in range(3))
            terms[mono] = draw(small)
        coeffs.append(Poly(3, terms))
    return VectorField(CHART, coeffs)


@settings(max_examples=40, deadline=None)
@given(rational_fields(), rational_fields(), funcs(), st.integers(-2, 2))
def test_apply_and_bracket_results_are_canonical(x, y, f, c):
    for value in (x.apply(f), y.apply(f), x.apply(Poly.zero(3))):
        assert_canonical(value)
    for bracket in (lie_bracket(x, y), lie_bracket(y, x), lie_bracket(x, x.scale(c))):
        for coeff in bracket.coeffs:
            assert_canonical(coeff)
    # a field commutes with its multiples: every coefficient cancels
    assert lie_bracket(x, x.scale(c)).is_zero()
    assert lie_bracket(x, y) == -lie_bracket(y, x)


@settings(max_examples=25, deadline=None)
@given(rational_fields(), rational_fields(), rational_fields())
def test_jacobi_identity_on_rational_fields(x, y, z):
    total = (
        lie_bracket(x, lie_bracket(y, z))
        + lie_bracket(y, lie_bracket(z, x))
        + lie_bracket(z, lie_bracket(x, y))
    )
    assert total.is_zero()


@settings(max_examples=25, deadline=None)
@given(fields(), fields(), fields())
def test_jacobi_identity(x, y, z):
    total = (
        lie_bracket(x, lie_bracket(y, z))
        + lie_bracket(y, lie_bracket(z, x))
        + lie_bracket(z, lie_bracket(x, y))
    )
    assert total.is_zero()


# -- restriction ---------------------------------------------------------------


def test_restrict_drops_fiber_monomials():
    f = X_ + Z_**2 + X_ * Z_
    assert restrict_zero(f, [2]) == X_
    g = RatFunc(Poly.one(3), Poly.one(3) + Z_)
    assert restrict_zero(g, [2]) == Poly.one(3)


def test_restrict_detects_vanishing_denominator():
    g = RatFunc(Poly.one(3), Z_)
    with pytest.raises(ZeroDivisionError):
        restrict_zero(g, [2])


# -- parsing and printing ------------------------------------------------------


def test_parse_polynomial_basic():
    assert parse_polynomial("z - 1/2*x^2", CHART) == Z_ - Fraction(1, 2) * X_**2
    assert parse_polynomial("(x + y)*(x - y)", CHART) == X_**2 - Y_**2
    assert parse_polynomial("-x", CHART) == -X_
    assert parse_polynomial("3", CHART) == Poly.const(3, 3)


def test_parse_vector_field_basic():
    v = parse_vector_field("dx + (2*x + y)*dz", CHART)
    assert v.coeffs[0] == Poly.one(3)
    assert v.coeffs[1].is_zero()
    assert v.coeffs[2] == 2 * X_ + Y_


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x + * y", CHART)
    assert err.value.line == 1 and err.value.column == 5
    with pytest.raises(ParseError) as err:
        parse_polynomial("x +\n  qq", CHART)
    assert err.value.line == 2 and err.value.column == 3


def test_parse_nesting_depth_is_capped():
    deepest = "(" * MAX_NESTING + "dx" + ")" * MAX_NESTING
    assert parse_vector_field(deepest, CHART) == coordinate_field(CHART, 0)
    assert parse_polynomial("-" * MAX_NESTING + "x", CHART) == X_
    with pytest.raises(ParseError) as err:
        parse_vector_field("(" + deepest + ")", CHART)
    assert err.value.column == MAX_NESTING + 1
    with pytest.raises(ParseError):
        parse_polynomial("-" * (MAX_NESTING + 1) + "x", CHART)
    with pytest.raises(ParseError):
        parse_polynomial("(-" * 3000 + "x" + ")" * 3000, CHART)


def test_parse_degree_is_capped():
    half = MAX_DEGREE // 2
    assert parse_polynomial(f"x^{MAX_DEGREE}", CHART).total_degree() == MAX_DEGREE
    assert parse_polynomial(f"x^{half}*y^{MAX_DEGREE - half}", CHART).total_degree() == MAX_DEGREE
    too_big = [
        f"x^{MAX_DEGREE + 1}",
        "x^1000000",
        "x^" + "9" * 5000,
        "(1+x+y+z)^40",
        f"(x^{half}*y)*x^{MAX_DEGREE - half}",
        f"1/x^{MAX_DEGREE}/y",
        # common denominators add degrees
        " + ".join(f"1/(x+{k})" for k in range(1, MAX_DEGREE + 2)),
    ]
    for text in too_big:
        with pytest.raises(ParseError, match="limit of"):
            parse_scalar(text, CHART)
    with pytest.raises(ParseError, match="limit of"):
        parse_vector_field(f"(x*dx)*y^{MAX_DEGREE}", CHART)
    # refused at the "^", before the power is expanded
    with pytest.raises(ParseError) as err:
        parse_polynomial(f"(x^2+y)^{half + 1}", CHART)
    assert "total degree" in str(err.value) and err.value.column == 8


def test_parse_degree_is_exact_after_cancellation():
    # the degree check reads the degree a sum has after its terms cancel,
    # and a product's degree is the sum of its factors' degrees
    top = f"x^{MAX_DEGREE}"
    assert parse_polynomial(f"({top} + 1 - {top})*y^{MAX_DEGREE}", CHART) == Y_**MAX_DEGREE
    # a cancelled numerator leaves the denominator's degree
    assert parse_polynomial(f"(({top} - {top})/x)*y^{MAX_DEGREE - 1}", CHART) == Poly.zero(3)
    with pytest.raises(ParseError, match=f"total degree {MAX_DEGREE + 1} "):
        parse_polynomial(f"(({top} - {top})/x)*y^{MAX_DEGREE}", CHART)
    with pytest.raises(ParseError, match=f"total degree {MAX_DEGREE + 1} "):
        parse_polynomial(f"({top} + y - {top})*y^{MAX_DEGREE}", CHART)
    with pytest.raises(ParseError, match=f"total degree {MAX_DEGREE + 2} "):
        parse_scalar(f"1/(x + y)^2*x^{MAX_DEGREE}", CHART)


def test_parse_terms_are_capped():
    # 455 terms, the most a degree-12 power of four terms can have
    assert len(parse_polynomial("(1+x+y+z)^12", CHART).terms) == 455
    chart5 = Chart(("x", "y", "z", "u", "v"))
    too_many = [
        # the bound multiplies the operands' term counts
        "(1+x+y+z)^6*(1+x+y+z)^6*dx",
        "dx/(1+x+y+z)^6/(1+x+y+z+u+v)^3",
        # sums are checked once formed: 4 * 126 terms with disjoint supports
        "(" + " + ".join(f"{m}(1+x+y+z+u+v)^4" for m in ("", "x^5*", "y^5*", "z^5*")) + ")*dx",
    ]
    for text in too_many:
        with pytest.raises(ParseError, match=f"limit of {MAX_TERMS}"):
            parse_vector_field(text, chart5)
    # 6188 terms, refused at the "^" before expansion
    with pytest.raises(ParseError) as err:
        parse_scalar("(1+x+y+z+u+v)^12", chart5)
    assert "6188 terms" in str(err.value) and err.value.column == 14


def test_parse_rejects_overlong_number():
    with pytest.raises(ParseError, match="too many digits"):
        parse_scalar("9" * 5000 + "*x", CHART)


@pytest.mark.parametrize(
    "text, char, line, column",
    [
        ("2²*dx", "²", 1, 2),
        ("²*dx", "²", 1, 1),
        ("x + y³*dz", "³", 1, 6),
        ("(x\n+ 1⁰)*dy", "⁰", 2, 4),
    ],
)
def test_parse_refuses_a_superscript_digit_where_it_stands(text, char, line, column):
    # str.isdigit accepts a superscript digit, but it is no decimal digit:
    # the lexer refuses it as a character, not as an overlong number
    with pytest.raises(ParseError) as err:
        parse_vector_field(text, CHART)
    assert str(err.value).startswith(f"unexpected character {char!r} ")
    assert (err.value.line, err.value.column) == (line, column)


_REFERENCE_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9_]*)|([-+*/^()]))")


def reference_tokenize(src):
    # the lexer as first written: the regex, then a hand scanner for
    # whitespace at the end, a refused character, or a str.isdigit run
    tokens = []
    pos, end = 0, len(src)
    match = _REFERENCE_TOKEN_RE.match
    while True:
        m = match(src, pos)
        if m is not None:
            _, ident, op = m.groups()
            if ident:
                tokens.append((vfield.IDENT, ident, m.start(2)))
                pos = m.end()
                continue
            if op:
                tokens.append((op, op, m.start(3)))
                pos = m.end()
                continue
            start, pos = m.start(1), m.end()
        else:
            while pos < end and src[pos].isspace():
                pos += 1
            if pos == end:
                break
            if not src[pos].isdigit():
                raise ParseError(f"unexpected character {src[pos]!r}", *vfield._position(src, pos))
            start = pos
        while pos < end and src[pos].isdigit():
            pos += 1
        tokens.append((vfield.NAT, src[start:pos], start))
    tokens.append((vfield.END, "", end))
    return tokens


BLANKS = ["", " ", "  ", "\t", "\n", "\u00a0", " \n\t"]


@st.composite
def expression_texts(draw):
    """Expression-like ASCII text: tokens of the grammar and some refused
    characters, separated and ended by blanks of several kinds."""
    pieces = st.sampled_from(
        ["x", "y", "dz", "ab_1", "0", "12", "007", "+", "-", "*", "/", "^", "(", ")", "$", ".", "é"]
    )
    text = ""
    for piece in draw(st.lists(pieces, max_size=12)):
        text += draw(st.sampled_from(BLANKS)) + piece
    return text + draw(st.sampled_from(BLANKS))


@settings(max_examples=300)
@given(st.one_of(expression_texts(), st.text(alphabet=string.printable + "\u00a0", max_size=30)))
def test_tokenize_matches_the_reference_lexer(text):
    try:
        expected = reference_tokenize(text)
    except ParseError as refused:
        with pytest.raises(ParseError) as err:
            vfield._tokenize(text)
        assert str(err.value) == str(refused)
        return
    assert vfield._tokenize(text) == expected


def test_parse_rejects_mixed_and_scalar_only():
    with pytest.raises(ParseError):
        parse_vector_field("x + dx", CHART)
    with pytest.raises(ParseError):
        parse_vector_field("x*y", CHART)
    with pytest.raises(ParseError):
        parse_polynomial("dx", CHART)
    with pytest.raises(ParseError):
        parse_vector_field("dx*dy", CHART)
    with pytest.raises(ParseError):
        parse_vector_field("dx^2", CHART)


def test_variable_shadows_d_prefix():
    chart = Chart(("dx", "x"))
    p = parse_polynomial("dx + x", chart)
    assert p == Poly.variable(2, 0) + Poly.variable(2, 1)
    v = parse_vector_field("ddx", chart)
    assert v.coeffs[0] == Poly.one(2)


def test_power_binds_tighter_than_unary_minus():
    # per the grammar "-x^2" is -(x^2), as in the usual notation
    assert parse_polynomial("-x^2", CHART) == -(X_**2)
    assert parse_polynomial("0 - x^2", CHART) == -(X_**2)
    assert parse_polynomial("(-x)^2", CHART) == X_**2
    assert parse_polynomial("2*-x^2*y", CHART) == -2 * X_**2 * Y_
    assert parse_polynomial("-2^2", CHART) == Poly.const(3, -4)
    assert parse_polynomial("--x^3", CHART) == X_**3
    assert parse_vector_field("-x^2*y*dx + dy", CHART) == VectorField(
        CHART, [-(X_**2) * Y_, 1, 0]
    )


def test_print_canonical_examples():
    assert format_poly(Z_ - Fraction(1, 2) * X_**2, CHART) == "z - 1/2*x^2"
    assert format_poly(Z_ - X_**2 - X_ * Y_, CHART) == "z - x^2 - x*y"
    assert format_poly(Poly.zero(3), CHART) == "0"
    assert format_vector_field(parse_vector_field("dx + (2*x + y)*dz", CHART)) == (
        "dx + (2*x + y)*dz"
    )
    assert format_vector_field(VectorField(CHART, [0, 0, 0])) == "0*dx"


def test_leading_negative_power_round_trips():
    p = -(X_**2)
    assert parse_polynomial(format_poly(p, CHART), CHART) == p
    q = -(X_**2) - Y_
    assert parse_polynomial(format_poly(q, CHART), CHART) == q
    # "-x^2" reads as -(x^2), so a leading minus before a power prints bare
    r = -(X_**2) + Y_**3
    assert format_poly(r, CHART) == "-x^2 + y^3"
    assert parse_polynomial("-x^2 + y^3", CHART) == r
    v = VectorField(CHART, [0, -(X_**2), 0])
    assert format_vector_field(v) == "-x^2*dy"
    assert parse_vector_field("-x^2*dy", CHART) == v


def test_ratfunc_print_round_trip():
    val = RatFunc(X_ + Y_, Poly.one(3) + Y_)
    assert parse_scalar(format_scalar(val, CHART), CHART) == val
    val2 = RatFunc(-(X_**2), 2 * (Poly.one(3) + Y_))
    assert parse_scalar(format_scalar(val2, CHART), CHART) == val2
    val3 = RatFunc(X_, Y_**2)
    assert parse_scalar(format_scalar(val3, CHART), CHART) == val3


@settings(max_examples=60)
@given(funcs())
def test_poly_print_parse_round_trip(f):
    assert parse_polynomial(format_poly(f, CHART), CHART) == f


@settings(max_examples=60)
@given(fields())
def test_vf_print_parse_round_trip(v):
    assert parse_vector_field(format_vector_field(v), CHART) == v


def sympy_text(p: Poly) -> str:
    """p as sympy prints it, with ** written ^: "-x^2/2 + 3*x*y", a unary
    minus directly before a power wherever the leading term has one."""
    return sympy.sstr(to_sympy(p, sympy.symbols("x y z"))).replace("**", "^")


@settings(max_examples=100)
@given(funcs())
def test_poly_sympy_print_parse_round_trip(f):
    assert parse_polynomial(sympy_text(f), CHART) == f


@settings(max_examples=60)
@given(fields())
def test_vf_sympy_print_parse_round_trip(v):
    text = " + ".join(f"({sympy_text(c)})*d{name}" for name, c in zip(CHART.names, v.coeffs))
    assert parse_vector_field(text, CHART) == v


# -- parser arithmetic against a RatFunc reference ------------------------------

CHART2 = Chart(("x", "y"))
X2, Y2 = (Poly.variable(2, i) for i in range(2))
SCALAR_LEAVES = {
    "x": X2,
    "y": Y2,
    "2": Poly.const(2, 2),
    "(x + 1)": X2 + 1,
    "(x - y)": X2 - Y2,
    "(1 + y)": Y2 + 1,
}


def scalar_trees():
    """Scalar expression trees: ("leaf", text, exponent) or (op, *children)."""
    leaves = st.tuples(
        st.just("leaf"), st.sampled_from(sorted(SCALAR_LEAVES)), st.integers(0, 2)
    )
    return st.recursive(
        leaves,
        lambda kids: st.one_of(
            st.tuples(st.sampled_from(["+", "-", "*", "/", "exact"]), kids, kids),
            st.tuples(st.just("neg"), kids),
        ),
        max_leaves=4,
    )


def vector_trees():
    leaves = st.tuples(st.just("d"), st.integers(0, 1))
    return st.recursive(
        leaves,
        lambda kids: st.one_of(
            st.tuples(st.sampled_from(["+", "-"]), kids, kids),
            st.tuples(st.sampled_from(["*", "/", "exact"]), kids, scalar_trees()),
            st.tuples(st.just("left*"), scalar_trees(), kids),
            st.tuples(st.just("neg"), kids),
        ),
        max_leaves=4,
    )


def render(tree) -> str:
    op = tree[0]
    if op == "leaf":
        return tree[1] if tree[2] == 1 else f"{tree[1]}^{tree[2]}"
    if op == "d":
        return f"d{CHART2.names[tree[1]]}"
    if op == "neg":
        return f"-({render(tree[1])})"
    if op == "left*":
        return f"({render(tree[1])})*({render(tree[2])})"
    a, b = render(tree[1]), render(tree[2])
    if op == "exact":
        # divides by a factor it has just multiplied in
        return f"(({a})*({b}))/({b})"
    return f"({a}){op}({b})"


def evaluate(tree):
    """The tree in Poly and RatFunc arithmetic: a function, or a tuple of
    them for a vector tree.  Raises ZeroDivisionError on division by zero."""
    op = tree[0]
    if op == "leaf":
        return SCALAR_LEAVES[tree[1]] ** tree[2]
    if op == "d":
        return tuple(Poly.const(2, int(a == tree[1])) for a in range(2))
    if op == "neg":
        val = evaluate(tree[1])
        return tuple(-c for c in val) if isinstance(val, tuple) else -val
    if op == "left*":
        return tuple(evaluate(tree[1]) * c for c in evaluate(tree[2]))
    a, b = evaluate(tree[1]), evaluate(tree[2])
    if op == "exact":
        op, a = "/", (tuple(c * b for c in a) if isinstance(a, tuple) else a * b)
    if isinstance(a, tuple):
        if op in "+-":
            return tuple(x + y if op == "+" else x - y for x, y in zip(a, b))
        return tuple(c * b if op == "*" else c / b for c in a)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    return a * b if op == "*" else a / b


@settings(max_examples=150, deadline=None)
@given(vector_trees())
def test_parse_vector_field_matches_ratfunc_reference(tree):
    text = render(tree)
    try:
        reference = evaluate(tree)
    except ZeroDivisionError:
        with pytest.raises(ParseError, match="division by zero"):
            parse_vector_field(text, CHART2)
        return
    quotients = [c if isinstance(c, Poly) else None for c in reference]
    try:
        got = parse_vector_field(text, CHART2)
    except ParseError as err:
        if "limit of" in str(err):
            reject()
        assert "not a polynomial" in str(err)
        assert None in quotients
        return
    assert None not in quotients
    assert got.coeffs == tuple(quotients)


def test_exact_quotient_loads_as_polynomial():
    got = parse_vector_field("(x^2-1)/(x-1)*dx", CHART)
    assert got.coeffs == (X_ + 1, Poly.zero(3), Poly.zero(3))
    assert got == parse_vector_field("(x + 1)*dx", CHART)
    # a quotient that is a polynomial is a Poly, so it is a coefficient
    assert VectorField(CHART, [(X_**2 - 1) / (X_ - 1), 0, 0]) == got


@pytest.mark.parametrize(
    "src, expected",
    [
        ("x^2*y/x*dx", "x*y*dx"),
        ("(x*y)^2/(x*y)*dy", "x*y*dy"),
        ("x/(2*x)*dz", "1/2*dz"),
        ("x*y^3/(x*y)*dx + x^2*y*z/(x*y)*dz", "y^2*dx + x*z*dz"),
    ],
)
def test_monomial_denominator_divides_through_divide_exact(monkeypatch, src, expected):
    calls = []
    real_divide = vfield.divide_exact

    def counted(f, g):
        calls.append(g)
        return real_divide(f, g)

    monkeypatch.setattr(vfield, "divide_exact", counted)
    got = parse_vector_field(src, CHART)
    # the one exact division, once per coefficient the field has
    assert len(calls) == sum(1 for c in got.coeffs if c)
    assert got == parse_vector_field(expected, CHART)


@pytest.mark.parametrize(
    "src, expected",
    [
        ("x/2*dx + x/2*dx", "x*dx"),
        ("(x+y)*(x-y)*dy - x^2*dy", "-y^2*dy"),
        # a d-factor's numerator is the parser's shared 1, which a sum
        # must copy before it adds into it
        ("dy - dy + dy + 2*dz", "dy + 2*dz"),
    ],
)
def test_sums_cancel_across_a_common_denominator(src, expected):
    got = parse_vector_field(src, CHART)
    assert format_vector_field(got) == expected
    assert got == parse_vector_field(expected, CHART)
    for c in got.coeffs:
        assert_canonical(c)


@pytest.mark.parametrize("src", ["1/x*dx", "y/x*dx", "x/y^2*dz + dy"])
def test_monomial_denominator_that_does_not_divide_is_refused(src):
    with pytest.raises(ParseError, match="not a polynomial"):
        parse_vector_field(src, CHART)


def test_parser_takes_no_gcd(monkeypatch):
    calls = []
    real_gcd = exactalg.poly_gcd

    def counted(f, g):
        calls.append((f, g))
        return real_gcd(f, g)

    monkeypatch.setattr(exactalg, "poly_gcd", counted)
    chart5 = Chart(("x", "y", "z", "u", "v"))
    six = " + ".join(f"1/(x+{k}*y+z+u+v+1)*dx" for k in range(1, 7))
    with pytest.raises(ParseError, match="not a polynomial"):
        parse_vector_field(six, chart5)
    assert calls == []
