"""Seeded random generators and model problems shared by test modules.

Kept outside the package on purpose: production code never needs random
polynomials, and the acceptance suite must drive the same corpus as the
unit tests.
"""

from fractions import Fraction
import math
import random

from lieweights.exactalg import LinearSolution, Poly, RatFunc, RowEchelon, quotient, record
from lieweights.lieflt import Filtration, monomials_up_to
from lieweights.vfield import Chart, VectorField, format_vector_field, lie_bracket

COEFFS = tuple(Fraction(n, d) for n in (-2, -1, 1, 2) for d in (1, 2))

CHARTS = {
    1: Chart(("x",)),
    2: Chart(("x", "y")),
    3: Chart(("x", "y", "z")),
}


def transposed(columns):
    """One sparse row per key: entry k is column k's."""
    rows: dict = {}
    for k, col in enumerate(columns):
        for key, value in col.items():
            rows.setdefault(key, {})[k] = value
    return list(rows.values())


def multiple_columns(rows, gens, monos):
    """The packed entries of each product field x^beta * g, generator
    (outer loop) by monomial (inner loop), each packed by rows.entries:
    the reference for the layout of a ModuleRows system."""
    return [
        rows.entries(g.scale(Poly.term(g.chart.dim, beta, 1))) for g in gens for beta in monos
    ]


def unpack_reference(entries, count, monos, nvars):
    """The coefficient polynomials u_0, ..., u_{count-1} of a sparse
    {column: value} map over the layout of multiple_columns: column p is
    generator p // len(monos) times the monomial monos[p % len(monos)]."""
    size = len(monos)
    terms: list[dict] = [{} for _ in range(count)]
    for p, x in entries.items():
        terms[p // size][monos[p % size]] = x
    return tuple(Poly(nvars, t) for t in terms)


def module_solve(columns, target=None):
    """Solve sum_k x_k columns[k] = target (None means 0) in one
    elimination of the transposed system, or None when infeasible: the
    reference the bounded-module oracles solve with."""
    span = RowEchelon(transposed([*columns, target or {}]))
    particular = span.particular(len(columns), len(columns))
    if particular is None:
        return None
    return LinearSolution(particular, span.nullspace(len(columns)))


class CountingRowEchelon(RowEchelon):
    """A RowEchelon that counts its constructions, to pin how many
    eliminations a stage builds."""

    built = 0

    def __init__(self, rows=()):
        type(self).built += 1
        super().__init__(rows)


def assert_canonical(r: Poly) -> None:
    """The invariant the arithmetic's unchecked constructor relies on:
    each coefficient held as a nonzero int, or as a Fraction that is not
    integral."""
    for mono, c in r.terms.items():
        assert (type(c) is int and c != 0) or (type(c) is Fraction and c.denominator > 1)
        assert type(mono) is tuple and len(mono) == r.nvars
        assert all(type(e) is int and e >= 0 for e in mono)
    assert r == Poly(r.nvars, r.terms)


def partial(f, i: int):
    """df/dx_i of a Poly, exponent by exponent, or of a RatFunc by the
    quotient rule: the partial-derivative oracle, kept apart from the
    package's derivation kernel."""
    if isinstance(f, RatFunc):
        num, den = f.num, f.den
        return quotient(partial(num, i) * den - num * partial(den, i), den * den)
    if not 0 <= i < f.nvars:
        raise ValueError(f"variable index {i} out of range")
    terms = {}
    for mono, c in f.terms.items():
        if mono[i]:
            terms[mono[:i] + (mono[i] - 1,) + mono[i + 1 :]] = c * mono[i]
    return Poly(f.nvars, terms)


def translate_reference(f: Poly, point) -> Poly:
    """Oracle for the shift x -> x + point: f(x + point), each monomial
    expanded binomially in the coordinates with p_i != 0 and the others
    left as they are, so at the origin the terms do not change."""
    if len(point) != f.nvars:
        raise ValueError("translation point has wrong dimension")
    shifts = [(i, Fraction(p)) for i, p in enumerate(point) if p]
    out: dict = {}
    for mono, c in f.terms.items():
        partial_terms = [(mono, c)]
        for i, p in shifts:
            e = mono[i]
            scales = [math.comb(e, k) * p ** (e - k) for k in range(e + 1)]
            partial_terms = [
                (m[:i] + (k,) + m[i + 1 :], q * scale)
                for m, q in partial_terms
                for k, scale in enumerate(scales)
            ]
        for m, q in partial_terms:
            out[m] = out.get(m, 0) + q
    return Poly(f.nvars, out)


@record
class TruncSeries:
    """Oracle for the jet values: a polynomial in epsilon truncated by
    epsilon^(order+1) = 0, with its own sum, product, shift and inverse.

    Coefficients live in any common exact ring (Fraction, Poly, RatFunc).
    """

    order: int
    coefficients: tuple

    def __post_init__(self):
        if len(self.coefficients) != self.order + 1:
            raise ValueError("series needs exactly order + 1 coefficients")

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        if self.order != other.order:
            raise ValueError("series order mismatch")
        return TruncSeries(
            self.order, tuple(a + b for a, b in zip(self.coefficients, other.coefficients))
        )

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        if self.order != other.order:
            raise ValueError("series order mismatch")
        out: list = [None] * (self.order + 1)
        for i, a in enumerate(self.coefficients):
            if not a:
                continue
            for j, b in enumerate(other.coefficients):
                if i + j > self.order:
                    break
                if not b:
                    continue
                term = a * b
                out[i + j] = term if out[i + j] is None else out[i + j] + term
        zero = self.coefficients[0] * 0
        return TruncSeries(self.order, tuple(zero if c is None else c for c in out))

    def shift(self, j: int) -> "TruncSeries":
        """Multiply by epsilon^j."""
        if j < 0:
            raise ValueError("shift must be non-negative")
        zero = self.coefficients[0] * 0
        coeffs = (zero,) * min(j, self.order + 1) + self.coefficients[: max(0, self.order + 1 - j)]
        return TruncSeries(self.order, coeffs)

    def inverse(self) -> "TruncSeries":
        """Multiplicative inverse; the constant term must be a nonzero
        rational, an int or a Fraction."""
        c0 = self.coefficients[0]
        if not isinstance(c0, (int, Fraction)) or c0 == 0:
            raise ZeroDivisionError("series has no invertible constant term")
        inv = [Fraction(1) / c0] + [Fraction(0)] * self.order
        for k in range(1, self.order + 1):
            acc = Fraction(0)
            for i in range(1, k + 1):
                ci = self.coefficients[i]
                if ci:
                    acc += ci * inv[k - i]
            inv[k] = -acc / c0
        return TruncSeries(self.order, tuple(inv))


def eval_jet_reference(u, f) -> TruncSeries:
    """Oracle for jets.eval_jet: each term of f expanded by repeated
    products of the coordinates' truncated series, a RatFunc as its
    numerator's series times the inverse of its denominator's.  The
    components may be any exact ring element, and every coefficient of f
    is taken into their ring, as a multiple of its unit."""
    if isinstance(f, RatFunc):
        return eval_jet_reference(u, f.num) * eval_jet_reference(u, f.den).inverse()
    if f.nvars != u.chart.dim:
        raise ValueError("function does not live on the jet's base chart")
    r = u.order
    rows = [TruncSeries(r, row) for row in u.comps]
    one = u.comps[0][0] ** 0 if u.comps else Fraction(1)
    zeros = (one * 0,) * r
    total = TruncSeries(r, (one * 0,) + zeros)
    for mono, c in f.terms.items():
        term = TruncSeries(r, (one * c,) + zeros)
        for row, e in zip(rows, mono):
            for _ in range(e):
                term = term * row
        total = total + term
    return total


def random_poly(rng: random.Random, nvars: int, degree: int, max_terms: int = 3) -> Poly:
    monos = monomials_up_to(nvars, degree)
    terms = {}
    for _ in range(rng.randrange(0, max_terms + 1)):
        terms[rng.choice(monos)] = rng.choice(COEFFS)
    return Poly(nvars, terms)


def random_field(rng: random.Random, chart: Chart, degree: int) -> VectorField:
    return VectorField(
        chart, [random_poly(rng, chart.dim, degree) for _ in range(chart.dim)]
    )


def lift_identity_cases(seed: int, count: int):
    """(chart, order, X, Y, f, i, j) tuples with n <= 3, deg <= 2, r <= 3."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randrange(1, 4)
        chart = CHARTS[n]
        r = rng.randrange(1, 4)
        x = random_field(rng, chart, 2)
        y = random_field(rng, chart, 2)
        f = random_poly(rng, n, 2)
        i = rng.randrange(0, r + 1)
        j = rng.randrange(0, r + 1)
        out.append((chart, r, x, y, f, i, j))
    return out


CHART_TABC = Chart(("t", "a", "b", "c"))
# (1, 3, 5) twice: among weights up to 5 it is the only triple in which a
# correction multiplies a corrected coordinate
WEIGHT_TRIPLES = [
    (1, 3, 5), (1, 3, 5), (1, 4, 5), (1, 2, 4), (1, 2, 3), (1, 1, 3), (2, 3, 5)
]


def _random_fiber_poly(rng, variables, degree):
    # every monomial carries a fiber variable, so the map preserves N
    out = Poly.zero(4)
    for _ in range(rng.randint(1, 3)):
        exps = [0, 0, 0, 0]
        for _ in range(rng.randint(1, degree)):
            exps[rng.choice(variables)] += 1
        if not any(exps[1:]):
            exps[rng.choice(variables[1:])] += 1
        coeff = rng.choice([-2, -1, Fraction(1, 2), 1, 3])
        out = out + Poly.term(4, tuple(exps), coeff)
    return out


def pushed_forward_model(rng: random.Random) -> Filtration:
    """The graded model s_a(t)*da, s_b(t)*db, s_c(t)*dc on (t, a, b, c),
    with weights drawn up to 5, pushed forward by the triangular map
    (t, a, b, c) -> (t, a, b + P(t, a), c + Q(t, a, b))."""
    weights = rng.choice(WEIGHT_TRIPLES)
    t, a, b, c = (Poly.variable(4, i) for i in range(4))
    p_map = _random_fiber_poly(rng, [0, 1], 2)
    q_map = _random_fiber_poly(rng, [0, 1, 2], 2)
    image = [t, a, b + p_map, c + q_map]
    b_back = b - p_map
    back = [t, a, b_back, c - q_map.subst([t, a, b_back, c])]
    fields = []
    for i in (1, 2, 3):
        scale = rng.choice([Poly.one(4), t, t + 1])
        coeffs = [(scale * partial(image[j], i)).subst(back) for j in range(4)]
        fields.append(VectorField(CHART_TABC, coeffs))
    levels = [
        tuple(f for f, wt in zip(fields, weights) if wt <= depth)
        for depth in range(1, weights[-1] + 1)
    ]
    return Filtration(CHART_TABC, weights[-1], levels)


def filiform_problem(n: int) -> dict:
    """The chained (Goursat) filiform model on x1..xn, as a problem document.

    Y_j = sum over k >= j + 2 of x1^(k-2-j)/(k-2-j)! dxk, and level -d lists
    dx1, Y_0, ..., Y_{d-1}; the order is n - 1.  N is the origin, where the
    weights are 1, 1, 2, ..., n - 1.
    """

    def term(e: int, k: int) -> str:
        if e == 0:
            return f"dx{k}"
        if e == 1:
            return f"x1*dx{k}"
        return f"1/{math.factorial(e)}*x1^{e}*dx{k}"

    ys = [
        " + ".join(term(k - 2 - j, k) for k in range(j + 2, n + 1))
        for j in range(n - 1)
    ]
    return {
        "variables": [f"x{i}" for i in range(1, n + 1)],
        "order": n - 1,
        "filtration": {str(-d): ["dx1", *ys[:d]] for d in range(1, n)},
        "submanifold": {"tangent": [], "base_point": ["0"] * n},
    }


def grushin_problem(k: int, base: Fraction | None) -> dict:
    """The Grushin-type filtration on (x, y), as a problem document.

    X = dx and Y = x^k dy at level -1, and level -(j+1) adds
    ad_X^j Y = k!/(k-j)! x^(k-j) dy; the order is k + 1.  base None makes
    N the origin; otherwise N is the x-axis, with base point (base, 0).
    """

    def ad_x(j: int) -> str:
        coeff, e = math.factorial(k) // math.factorial(k - j), k - j
        factors = ([str(coeff)] if coeff != 1 else []) + ([f"x^{e}"] if e > 1 else ["x"] * e)
        return "*".join([*factors, "dy"])

    fields = ["dx", *(ad_x(j) for j in range(k + 1))]
    if base is None:
        submanifold = {"tangent": [], "base_point": ["0", "0"]}
    else:
        submanifold = {"tangent": ["x"], "base_point": [str(base), "0"]}
    return {
        "variables": ["x", "y"],
        "order": k + 1,
        "filtration": {str(-d): fields[: d + 1] for d in range(1, k + 2)},
        "submanifold": submanifold,
    }


def times_space(doc: dict, k: int, base) -> dict:
    """The model document times R^k, as a problem document.

    The variables t1..tk go first, every level lists dt1..dtk ahead of the
    model's fields, and N is the t-space, with base point (base, 0, ..., 0):
    base is the point's k t-coordinates, and every model coordinate is 0
    (the model's own submanifold is dropped).  The dt's commute with the
    model's fields, so the product is Lie exactly when the model is.
    """
    if len(base) != k:
        raise ValueError("the base point has one t-coordinate per factor")
    ts = [f"t{i}" for i in range(1, k + 1)]
    return {
        "variables": [*ts, *doc["variables"]],
        "order": doc["order"],
        "filtration": {
            level: [*(f"d{t}" for t in ts), *fields] for level, fields in doc["filtration"].items()
        },
        "submanifold": {
            "tangent": ts,
            "base_point": [*(str(Fraction(c)) for c in base), *["0"] * len(doc["variables"])],
        },
    }


def lyndon_words(letters: int, length: int) -> list[tuple[int, ...]]:
    """Lyndon words over 0..letters-1 of length 1..length, by length, then
    lexicographically (Duval's generation)."""
    words = []
    w = [-1]
    while w:
        w[-1] += 1
        words.append(tuple(w))
        m = len(w)
        while len(w) < length:
            w.append(w[len(w) - m])
        while w and w[-1] == letters - 1:
            w.pop()
    return sorted(words, key=lambda w: (len(w), w))


def _standard_factorization(w: tuple[int, ...], lyndon: set) -> tuple[tuple, tuple]:
    """w = uv with v the longest proper suffix of w that is a Lyndon word."""
    for i in range(1, len(w)):
        if w[i:] in lyndon:
            return w[:i], w[i:]
    raise ValueError("a single letter has no standard factorization")


# x/(1 - exp(-x)) = sum of B_k^+ x^k / k!, up to k = 6
ADJOINT_SERIES = (
    Fraction(1), Fraction(1, 2), Fraction(1, 12), Fraction(0), Fraction(-1, 720),
    Fraction(0), Fraction(1, 30240),
)


def free_nilpotent_problem(letters: int, step: int) -> dict:
    """The free nilpotent group of the given step on `letters` generators,
    in exponential coordinates of the first kind, as a problem document.

    Coordinates x_w run over the Lyndon words w of length <= step (the
    Lyndon basis, each word bracketed by its standard factorization), and
    X_i(x) = sum_k B_k^+ / k! ad_x^k (e_i), the left-invariant field of
    e_i, a finite sum since ad_x^step vanishes (exact up to step 7).
    Level -d lists X_1..X_m and the bracket fields of the Lyndon words of
    length 2..d.  Every field is homogeneous for the weights |w|, and the
    bracket field of w equals d/dx_w at the origin, so N = the origin has
    weights |w| and the coordinates are already weighted.
    """
    if step > len(ADJOINT_SERIES):
        raise ValueError(f"the adjoint series is kept up to step {len(ADJOINT_SERIES)}")
    words = lyndon_words(letters, step)
    index = {w: k for k, w in enumerate(words)}
    lyndon = set(words)

    # Lie polynomials as {word: coefficient} in the free associative
    # algebra, truncated at length step
    def bracket(a: dict, b: dict) -> dict:
        out: dict = {}
        for u, x in a.items():
            for v, y in b.items():
                if len(u) + len(v) <= step:
                    for w, c in ((u + v, x * y), (v + u, -x * y)):
                        out[w] = out.get(w, 0) + c
        return {w: c for w, c in out.items() if c}

    basis: dict = {}
    for w in words:
        if len(w) == 1:
            basis[w] = {w: Fraction(1)}
        else:
            u, v = _standard_factorization(w, lyndon)
            basis[w] = bracket(basis[u], basis[v])

    def coordinates(element: dict) -> dict[int, Fraction]:
        # the least word of a Lie polynomial is Lyndon and leads its basis
        # element, the other words of which are larger
        element, out = dict(element), {}
        while element:
            w = min(element)
            c = element[w]
            out[index[w]] = c
            for u, x in basis[w].items():
                element[u] = element.get(u, 0) - c * x
                if not element[u]:
                    del element[u]
        return out

    structure = {
        (a, b): coordinates(bracket(basis[u], basis[v]))
        for a, u in enumerate(words)
        for b, v in enumerate(words)
    }
    n = len(words)
    xs = [Poly.variable(n, k) for k in range(n)]

    def ad_x(element: list[Poly]) -> list[Poly]:
        out = [Poly.zero(n) for _ in range(n)]
        for a in range(n):
            for b, y in enumerate(element):
                if y.is_zero():
                    continue
                for w, c in structure[a, b].items():
                    out[w] = out[w] + xs[a] * y * c
        return out

    names = ["x" + "".join(str(letter + 1) for letter in w) for w in words]
    chart = Chart(tuple(names))
    fields = []
    for i in range(letters):
        term = [Poly.one(n) if k == i else Poly.zero(n) for k in range(n)]
        total = list(term)
        for coeff in ADJOINT_SERIES[1:step]:
            term = ad_x(term)
            total = [t + s * coeff for t, s in zip(total, term)]
        fields.append(VectorField(chart, total))
    for w in words[letters:]:
        u, v = _standard_factorization(w, lyndon)
        fields.append(lie_bracket(fields[index[u]], fields[index[v]]))
    return {
        "variables": names,
        "order": step,
        "filtration": {
            str(-d): [format_vector_field(f) for f, w in zip(fields, words) if len(w) <= d]
            for d in range(1, step + 1)
        },
        "submanifold": {"tangent": [], "base_point": ["0"] * n},
    }


def witt_dimension(letters: int, length: int) -> int:
    """Dimension of the degree-length piece of the free Lie algebra on
    `letters` generators: (1/k) sum over d | k of mu(d) letters^(k/d)."""

    def mobius(d: int) -> int:
        sign, p = 1, 2
        while p * p <= d:
            if d % p == 0:
                d //= p
                if d % p == 0:
                    return 0
                sign = -sign
            p += 1
        return -sign if d > 1 else sign

    total = sum(mobius(d) * letters ** (length // d) for d in range(1, length + 1) if length % d == 0)
    return total // length
